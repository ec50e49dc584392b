"""Minimal transversals of simple hypergraphs, max(F,e) / cmax(F,e), the
stem table built from them, the stem <-> meet-irreducible bridges, M(F)
extraction, and minimal keys.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Union

from .closure import ClosureSource, flat_rows, lectic_masks, source_universe
from .core import (
    AttrSet,
    Implication,
    ImplicationSet,
    SetFamily,
    Universe,
    bits,
    extreme_masks,
)
from .errors import UniverseMismatchError


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
    if 0 in edges:
        return SetFamily(u, ())
    trs = _transversal_masks(edges)
    return SetFamily.from_masks(u, trs)


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


@dataclass(frozen=True, slots=True)
class StemTable:
    """stems(e) per element and roots(U) per stem."""

    universe: Universe
    stems_of: dict[int, SetFamily]  # position -> antichain of stems
    roots_of: dict[AttrSet, AttrSet]  # stem -> its roots

    def direct_base(self) -> ImplicationSet:
        """The canonical direct base {X -> roots(X) : X a stem}."""
        items = tuple(Implication(stem, roots) for stem, roots in self.roots_of.items())
        return ImplicationSet(self.universe, items)

    @classmethod
    def of(cls, source: ClosureSource) -> StemTable:
        """All stems and roots, as stems(e) = mtr(cmax(F,e)) less {e}, with
        max(F,e) read off the 012 rows, the family, or the closed sets."""
        u = source_universe(source)
        tops = _row_tops(source)
        stems_of: dict[int, SetFamily] = {}
        roots_by_stem: dict[int, int] = {}
        for e in range(u.size):
            ms = _stem_masks(tops, e, u.full_mask)
            for m in ms:
                roots_by_stem[m] = roots_by_stem.get(m, 0) | 1 << e
            stems_of[e] = SetFamily.from_masks(u, ms)
        stems = SetFamily.from_masks(u, roots_by_stem)
        roots_of = {s: AttrSet(u, roots_by_stem[s.mask]) for s in stems}
        return cls(universe=u, stems_of=stems_of, roots_of=roots_of)


def max_noncovers(source: ClosedSource, e: int) -> SetFamily:
    """max(F,e): the closed sets maximal with e outside them.

    A family argument is an intersection-generating set of F and is scanned
    directly; an implication argument goes through the compressed rows of
    F(sigma), taking per row the largest member avoiding e.
    """
    u = source_universe(source)
    if not 0 <= e < u.size:
        raise UniverseMismatchError(f"element position {e} outside universe")
    return SetFamily.from_masks(u, _max_avoiding(_row_tops(source), e))


@dataclass(frozen=True, slots=True)
class MaxNonCover:
    """max(F,e) and its complement family cmax(F,e) for every element."""

    universe: Universe
    max_of: dict[int, SetFamily]
    cmax_of: dict[int, SetFamily]


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
    if not 0 <= e < u.size:
        raise UniverseMismatchError(f"element position {e} outside universe")
    return SetFamily.from_masks(u, _stem_masks(_row_tops(m), e, u.full_mask))


def cmax_from_stems(table: StemTable, e: int) -> SetFamily:
    """cmax(F,e) as mtr(stems(e) ∪ {{e}}); complementing gives max(F,e)."""
    u = table.universe
    edges = list(table.stems_of[e].sets) + [AttrSet(u, 1 << e)]
    return minimal_transversals(SetFamily(u, tuple(edges)))


def minimal_keys(source: ClosedSource) -> SetFamily:
    """All minimal generating sets of E: the minimal transversals of the
    complements of the hyperplanes (the maximal closed sets below E).
    """
    u = source_universe(source)
    mi = meet_irreducibles(source)
    hyper = mi.maximize()
    comp = SetFamily(u, tuple(s.complement() for s in hyper))
    return minimal_transversals(comp)
