"""Minimal transversals of simple hypergraphs, max(F,e) / cmax(F,e), the
stem table built from them, the stem <-> meet-irreducible bridges, M(F)
extraction, and minimal keys.

``StemTable.of`` keeps the stems and roots as masks; the ``stems_of`` and
``roots_of`` views of ``SetFamily``s and ``AttrSet``s are built by their
properties on ``StemTable``, on first read.
"""

from __future__ import annotations

from typing import Union

from .closure import ClosureSource, flat_rows, lectic_masks, source_universe
from .core import (
    AttrSet,
    ImplicationSet,
    SetFamily,
    Universe,
    _set,
    _set_key,
    _Value,
    bits,
    extreme_masks,
)


def _transversal_masks(edges: list[int]) -> list[int]:
    """Minimal transversals of nonempty edges, by Berge multiplication
    with incremental minimality.

    Of the transversals t of the edges so far, those hitting the next edge
    stay minimal; each missing one grows by one edge element x, and t | x
    is minimal unless some hitting transversal through x lies inside it.
    """
    trs = [0]
    for edge in edges:
        hit = []
        miss = []
        for t in trs:
            if t & edge:
                hit.append(t)
            else:
                miss.append(t)
        if not miss:
            continue
        trs = hit.copy()
        for x in bits(edge):
            bit = 1 << x
            blockers = [k ^ bit for k in hit if k & bit]
            for t in miss:
                for b in blockers:
                    if not b & ~t:
                        break
                else:
                    trs.append(t | bit)
    return trs


def minimal_transversals(h: SetFamily) -> SetFamily:
    """The antichain of minimal hitting sets, by Berge multiplication.
    Non-antichain inputs are minimized first.

    Conventions: mtr of the empty hypergraph is {∅}; an empty edge admits no
    transversal at all.
    """
    u = h.universe
    edges = extreme_masks(h.masks())
    return SetFamily.from_masks(u, () if 0 in edges else _transversal_masks(edges))


ClosedSource = Union[ImplicationSet, SetFamily]


def _row_tops(source: ClosureSource) -> list[tuple[int, int]]:
    """(forced, top) pairs whose tops, less e, include max(F,e) for every e.

    A family lists its members (forced = top = member); an implication
    family lists the bubble-free 012 rows of F(sigma), where the largest
    member of a row avoiding e is its top less e unless the row forces e;
    a bare operator lists its closed sets. The rows come from
    ``flat_rows``, which imposes the rules in the split-saving order of
    ``closure._split_order``: they are never printed, and only their
    members matter here.
    """
    if isinstance(source, ImplicationSet):
        return [(ones, ones | free) for ones, _, free, _ in flat_rows(source)]
    if isinstance(source, SetFamily):
        return [(m, m) for m in source.masks()]
    return [(m, m) for m in lectic_masks(source)]


def _max_avoiding(tops: list[tuple[int, int]], e: int) -> list[int]:
    bit = 1 << e
    return extreme_masks(
        [top & ~bit for forced, top in tops if not forced & bit], maximal=True
    )


def _stem_masks(tops: list[tuple[int, int]], e: int, full: int) -> list[int]:
    """stems(e) = mtr(cmax(F,e)) less {e}.

    Every edge of cmax(F,e) contains e, so dropping e from each edge leaves
    exactly the transversals other than {e}; an edge that was just {e}
    (E less e is closed) leaves no stem at all.
    """
    edges = [full & ~m & ~(1 << e) for m in _max_avoiding(tops, e)]
    if 0 in edges:
        return []
    return _transversal_masks(edges)


class StemTable(_Value):
    """stems(e) per element and roots(U) per stem, held as masks:
    ``_stems`` maps each position to its stem masks and ``_roots`` each
    stem mask to its roots mask.

    The fields ``stems_of`` (position -> ``SetFamily`` of its stems, in
    ``AttrSet.key`` order) and ``roots_of`` (stem -> roots, ``AttrSet``s in
    the key order of the stems) are views, built on first read from one
    key-order sort of the stems and kept; a table made from them keeps
    them. Eq, repr and pickles read the views.
    """

    __slots__ = ("universe", "_stems", "_roots", "_order", "_stems_of", "_roots_of")
    _fields = ("universe", "stems_of", "roots_of")

    def __init__(
        self,
        universe: Universe,
        stems_of: dict[int, SetFamily],  # position -> antichain of stems
        roots_of: dict[AttrSet, AttrSet],  # stem -> its roots
    ):
        universe._check(*stems_of.values(), *roots_of, *roots_of.values())
        for e in stems_of:
            universe._check_position(e)
        roots = {s.mask: r.mask for s, r in roots_of.items()}
        self._fill(universe, {e: f.masks() for e, f in stems_of.items()}, roots)
        _set(self, "_order", tuple(roots))
        _set(self, "_stems_of", stems_of)
        _set(self, "_roots_of", roots_of)

    def _fill(self, universe: Universe, stems: dict[int, list[int]], roots: dict[int, int]):
        _set(self, "universe", universe)
        _set(self, "_stems", stems)
        _set(self, "_roots", roots)
        _set(self, "_order", None)
        _set(self, "_stems_of", None)
        _set(self, "_roots_of", None)
        return self

    def _ordered(self) -> tuple[int, ...]:
        """The stem masks in the order of ``roots_of``, sorted on first use."""
        order = self._order
        if order is None:
            order = tuple(sorted(self._roots, key=_set_key))
            _set(self, "_order", order)
        return order

    @property
    def stems_of(self) -> dict[int, SetFamily]:
        fams = self._stems_of
        if fams is None:
            # one walk of the sorted stems leaves each element's in order
            per: dict[int, list[int]] = {e: [] for e in self._stems}
            roots = self._roots
            for s in self._ordered():
                for e in bits(roots[s]):
                    per[e].append(s)
            u = self.universe
            fams = {e: SetFamily._of(u, tuple(ms)) for e, ms in per.items()}
            _set(self, "_stems_of", fams)
        return fams

    @property
    def roots_of(self) -> dict[AttrSet, AttrSet]:
        objs = self._roots_of
        if objs is None:
            u, roots = self.universe, self._roots
            objs = {AttrSet(u, s): AttrSet(u, roots[s]) for s in self._ordered()}
            _set(self, "_roots_of", objs)
        return objs

    def direct_base(self) -> ImplicationSet:
        """The canonical direct base {X -> roots(X) : X a stem}, in the
        order of ``roots_of``."""
        roots = self._roots
        return ImplicationSet._of(self.universe, tuple([(s, roots[s]) for s in self._ordered()]))

    @classmethod
    def of(cls, source: ClosureSource) -> StemTable:
        """All stems and roots, as stems(e) = mtr(cmax(F,e)) less {e}, with
        max(F,e) read off the 012 rows, the family, or the closed sets."""
        u = source_universe(source)
        tops = _row_tops(source)
        stems: dict[int, list[int]] = {}
        roots: dict[int, int] = {}
        for e in range(u.size):
            ms = stems[e] = _stem_masks(tops, e, u.full_mask)
            bit = 1 << e
            for m in ms:
                roots[m] = roots.get(m, 0) | bit
        return cls.__new__(cls)._fill(u, stems, roots)


def max_noncovers(source: ClosedSource, e: int) -> SetFamily:
    """max(F,e): the closed sets maximal with e outside them.

    A family argument is an intersection-generating set of F and is scanned
    directly; an implication argument goes through the compressed rows of
    F(sigma), taking per row the largest member avoiding e.
    """
    u = source_universe(source)
    u._check_position(e)
    return SetFamily.from_masks(u, _max_avoiding(_row_tops(source), e))


class MaxNonCover(_Value):
    """max(F,e) and its complement family cmax(F,e) for every element."""

    __slots__ = _fields = ("universe", "max_of", "cmax_of")

    def __init__(
        self, universe: Universe, max_of: dict[int, SetFamily], cmax_of: dict[int, SetFamily]
    ):
        universe._check(*max_of.values(), *cmax_of.values())
        self._init(universe, max_of, cmax_of)


def max_noncover_table(source: ClosedSource) -> MaxNonCover:
    u = source_universe(source)
    tops = _row_tops(source)
    max_of: dict[int, SetFamily] = {}
    cmax_of: dict[int, SetFamily] = {}
    for e in range(u.size):
        maxes = _max_avoiding(tops, e)
        max_of[e] = SetFamily.from_masks(u, maxes)
        cmax_of[e] = SetFamily.from_masks(u, [u.full_mask & ~m for m in maxes])
    return MaxNonCover(universe=u, max_of=max_of, cmax_of=cmax_of)


def meet_irreducibles(source: ClosedSource) -> SetFamily:
    """M(F): the union over e of max(F,e), read off the compressed rows
    (family sources scan the family per element instead)."""
    u = source_universe(source)
    tops = _row_tops(source)
    masks: set[int] = set()
    for e in range(u.size):
        masks.update(_max_avoiding(tops, e))
    return SetFamily.from_masks(u, masks)


def stems_from_meetirr(m: SetFamily, e: int) -> SetFamily:
    """stems(e) from a generating family, as mtr(cmax(F,e)) minus {e}.

    Also covers elements of ⋂F, for which the answer is {∅}.
    """
    u = m.universe
    u._check_position(e)
    return SetFamily.from_masks(u, _stem_masks(_row_tops(m), e, u.full_mask))


def cmax_from_stems(table: StemTable, e: int) -> SetFamily:
    """cmax(F,e) as mtr(stems(e) ∪ {{e}}); complementing gives max(F,e)."""
    u = table.universe
    u._check_position(e)
    return minimal_transversals(SetFamily.from_masks(u, [*table._stems[e], 1 << e]))


def minimal_keys(source: ClosedSource) -> SetFamily:
    """All minimal generating sets of E: the minimal transversals of the
    complements of the hyperplanes (the maximal closed sets below E).

    A closed set below E lies in a row whose top is either below E, and
    closed, or E itself, and then the row also holds E less e for each e
    it does not force. The hyperplanes are the maximal ones among those
    tops and those sets.
    """
    u = source_universe(source)
    full = u.full_mask
    below = []
    for forced, top in _row_tops(source):
        if top != full:
            below.append(top)
        else:
            below.extend([full & ~(1 << e) for e in bits(full & ~forced)])
    hyper = extreme_masks(below, maximal=True)
    return minimal_transversals(SetFamily.from_masks(u, [full & ~m for m in hyper]))
