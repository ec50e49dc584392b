"""Forward-chaining closure, family-intersection closure, quasiclosure,
semantic consequence, and every engine that lists closed sets: the 012n
row engine (the closed sets of Σ, or the models of Σ plus complications,
as disjoint rows) and the lectic listings read off those rows or made by
NextClosure. LinClosure gives every closure of an implication family; the
row-wise rounds serve ``step``, ``is_closed``, ``close_trace`` and the
"row" cross-check.

This module imports only ``core`` and ``errors``. ``rows`` wraps the row
engine in its public ``Row012n``/``RowSystem`` values, and ``dualize``
reads max(F,e) off the same rows.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial
from typing import Callable, Iterable, Iterator, Union

from .core import (
    EXHAUSTIVE_LIMIT,
    AttrSet,
    ImplicationSet,
    Implication,
    SetFamily,
    Universe,
    bits,
    submasks,
)
from .errors import BoundExceededError, UniverseMismatchError

ClosureSource = Union[ImplicationSet, SetFamily, "Closure"]

Pairs = list[tuple[int, int]]
Columns = tuple[list[list[int]], list[int], list[int], int]


def _rounds(pairs: Pairs, mask: int) -> Iterator[int]:
    """The forward-chaining rounds S', S'', ... of mask, ending with the
    repeated fixpoint; a rule that has fired drops out of later rounds."""
    while True:
        new = mask
        pending = []
        for pair in pairs:
            if pair[0] & ~mask == 0:
                new |= pair[1]
            else:
                pending.append(pair)
        yield new
        if new == mask:
            return
        mask = new
        pairs = pending


def _close_rowwise(pairs: Pairs, mask: int) -> int:
    """Least fixpoint: the last of the rounds."""
    for mask in _rounds(pairs, mask):
        pass
    return mask


def _close_columnwise(cols: Columns, stop: int, mask: int) -> int:
    """Least fixpoint in the vertical layout, by LinClosure (Beeri and
    Bernstein 1979), or a set inside it that holds stop.

    occ[p] lists the rules whose premise contains position p, and need[i]
    counts the premise positions of rule i; axioms unites the conclusions
    of the empty-premise rules. The positions join in layers, and each
    position is visited once, when its layer is taken: a rule fires when
    its last premise position is visited. The conclusions of the rules
    that fire in a layer are united into one mask, and its positions not
    yet closed make the next layer. The loop returns before a layer once
    the set holds stop; cols is (occ, need, concs, axioms).
    """
    occ, need, concs, axioms = cols
    left = need.copy()
    closed = mask | axioms
    todo = closed
    while todo:
        if closed & stop == stop:
            return closed
        new = 0
        while todo:
            low = todo & -todo
            todo ^= low
            for i in occ[low.bit_length() - 1]:
                left[i] -= 1
                if not left[i]:
                    new |= concs[i]
        todo = new & ~closed
        closed |= todo
    return closed


def _columns(sigma: ImplicationSet) -> Columns:
    """The compiled rules that ``_close_columnwise`` reads."""
    pairs = sigma.mask_pairs()
    occ: list[list[int]] = [[] for _ in range(sigma.universe.size)]
    axioms = 0
    for i, (prem, conc) in enumerate(pairs):
        if not prem:
            axioms |= conc
        for p in bits(prem):
            occ[p].append(i)
    need = [prem.bit_count() for prem, _ in pairs]
    concs = [conc for _, conc in pairs]
    return occ, need, concs, axioms


def _close_family(full: int, every: int, cols: list[int], mask: int) -> int:
    """Intersection of the members containing mask, through their
    per-position bitsets (the derivation A'' of formal concept analysis).

    Each member owns one bit of the integers cols[p] and every: cols[p]
    selects the members that contain position p, and every selects them
    all. The extent of mask is the AND of the columns of its positions;
    the closure keeps each position whose column covers the whole extent,
    which is every position when the extent is empty.
    """
    sel = every
    for p in bits(mask):
        sel &= cols[p]
    if not sel:
        return full
    out = 0
    for p, col in enumerate(cols):
        if col & sel == sel:
            out |= 1 << p
    return out


def _compile_family(family: SetFamily) -> Callable[[int], int]:
    """The columns of the family's cross table, built by transposing the
    members' bit strings (a per-bit loop is about 15 times slower)."""
    n = family.universe.size
    members = family.masks()
    if members:
        rows = [format(m, f"0{n}b") for m in members]
        # column i of the strings is position n-1-i, and member j is its
        # bit k-1-j: the same in every column, so the extents agree
        cols = [int("".join(col), 2) for col in zip(*rows)][::-1]
    else:
        cols = [0] * n
    every = (1 << len(members)) - 1
    return partial(_close_family, family.universe.full_mask, every, cols)


_COMPILERS: dict[str, Callable[..., Callable[[int], int]]] = {
    "row": lambda sigma: partial(_close_rowwise, sigma.mask_pairs()),
    "column": lambda sigma: partial(_close_columnwise, _columns(sigma), sigma.universe.full_mask),
    "family": _compile_family,
}


def _kernel(source: ImplicationSet | SetFamily, key: str) -> Callable[[int], int]:
    """The source's closure kernel of kind key, compiled on first use.

    The kernels live in a dict in the source's ``_compiled`` slot, so a
    family compiles once however many operators and queries are made from
    it; the source is frozen, so nothing there goes stale.
    """
    kernels = source._compiled
    if kernels is None:
        kernels = {}
        object.__setattr__(source, "_compiled", kernels)
    fn = kernels.get(key)
    if fn is None:
        fn = kernels[key] = _COMPILERS[key](source)
    return fn


class Closure:
    """Memoizing wrapper around a closure operator.

    The memo is a benign interior cache (idempotent writes); everything else
    is immutable, so instances are safe to share across threads.
    """

    __slots__ = ("universe", "_fn", "_memo")

    def __init__(self, universe: Universe, fn: Callable[[int], int]):
        self.universe = universe
        self._fn = fn
        self._memo: dict[int, int] = {}

    def of_mask(self, mask: int) -> int:
        memo = self._memo
        got = memo.get(mask)
        if got is None:
            got = memo[mask] = self._fn(mask)
        return got

    def __call__(self, s: AttrSet) -> AttrSet:
        if s.universe != self.universe:
            raise UniverseMismatchError("set outside the operator's universe")
        return AttrSet(self.universe, self.of_mask(s.mask))

    @classmethod
    def from_sigma(cls, sigma: ImplicationSet, layout: str = "column") -> Closure:
        """Closure under sigma, evaluated column-wise by LinClosure
        ("column", the default: a query touches only the rules whose
        premises meet the positions it adds, unites the conclusions that
        fire in one layer into one mask, and stops at E) or row-wise ("row",
        the cross-check). Both give the same sets; ValueError otherwise."""
        if layout not in ("row", "column"):
            raise ValueError(f"unknown layout {layout!r}")
        return cls(sigma.universe, _kernel(sigma, layout))

    @classmethod
    def from_family(cls, family: SetFamily) -> Closure:
        """Closure under the intersections of family members, evaluated
        through per-position member bitsets: a query ANDs the bitsets of its
        positions into its extent, then keeps the positions whose bitset
        covers that extent."""
        return cls(family.universe, _kernel(family, "family"))

    @classmethod
    def wrap(cls, source: ClosureSource) -> Closure:
        source_universe(source)
        if isinstance(source, Closure):
            return source
        if isinstance(source, ImplicationSet):
            return cls.from_sigma(source)
        return cls.from_family(source)


def source_universe(source: ClosureSource) -> Universe:
    """The universe of a closure source; TypeError on anything else."""
    if not isinstance(source, (ImplicationSet, SetFamily, Closure)):
        raise TypeError(f"not a closure source: {source!r}")
    return source.universe


@dataclass(frozen=True, slots=True)
class ClosureTrace:
    """The chain S, S', S'', ... ending with the repeated fixpoint."""

    rounds: tuple[AttrSet, ...]

    @property
    def closure(self) -> AttrSet:
        return self.rounds[-1]


def _set_rounds(sigma: ImplicationSet, s: AttrSet) -> Iterator[int]:
    if s.universe != sigma.universe:
        raise UniverseMismatchError("set and family in different universes")
    return _rounds(sigma.mask_pairs(), s.mask)


def step(sigma: ImplicationSet, s: AttrSet) -> AttrSet:
    """One forward-chaining round: S plus the conclusions of premises inside S."""
    return AttrSet(s.universe, next(_set_rounds(sigma, s)))


def close(sigma: ImplicationSet, s: AttrSet) -> AttrSet:
    """Forward-chaining closure of s under sigma, by the column kernel of
    ``Closure.from_sigma``."""
    return Closure.from_sigma(sigma)(s)


def close_trace(sigma: ImplicationSet, s: AttrSet) -> ClosureTrace:
    u = s.universe
    return ClosureTrace((s, *(AttrSet(u, m) for m in _set_rounds(sigma, s))))


def close_family(family: SetFamily, s: AttrSet) -> AttrSet:
    """Intersection of family members containing s; E when none does.
    Evaluated through per-position member bitsets (see
    ``Closure.from_family``)."""
    return Closure.from_family(family)(s)


def is_closed(sigma: ImplicationSet, s: AttrSet) -> bool:
    """True iff every implication with premise inside s concludes inside s."""
    return step(sigma, s) == s


def entails(sigma: ImplicationSet, query: Implication) -> bool:
    """True iff the conclusion of query lies in the closure of its premise."""
    if query.universe != sigma.universe:
        raise UniverseMismatchError("implication and family in different universes")
    cl = Closure.from_sigma(sigma).of_mask(query.premise.mask)
    return query.conclusion.mask & ~cl == 0


def equivalent(sigma1: ImplicationSet, sigma2: ImplicationSet) -> bool:
    """True iff the two families induce the same closure operator."""
    if sigma1.universe != sigma2.universe:
        raise UniverseMismatchError("families in different universes")
    for rules, other in ((sigma2, sigma1), (sigma1, sigma2)):
        c = Closure.from_sigma(other)
        if any(conc & ~c.of_mask(p) for p, conc in rules.mask_pairs()):
            return False
    return True


def quasiclosure(source: ClosureSource, s: AttrSet) -> AttrSet:
    """Least fixpoint of S° = S ∪ ⋃{c(U) : U ⊆ S, c(U) ≠ c(S)}.

    Quantifies over all subsets of the current set, so it raises
    BoundExceededError when the set grows beyond ``core.EXHAUSTIVE_LIMIT``
    (20) elements.
    """
    c = Closure.wrap(source)
    if s.universe != c.universe:
        raise UniverseMismatchError("set outside the operator's universe")
    cur = s.mask
    while True:
        if cur.bit_count() > EXHAUSTIVE_LIMIT:
            raise BoundExceededError(
                f"quasiclosure needs all subsets of a {cur.bit_count()}-element set"
                f" (bound {EXHAUSTIVE_LIMIT})"
            )
        c_cur = c.of_mask(cur)
        acc = cur
        for sub in submasks(cur):
            c_sub = c.of_mask(sub)
            if c_sub != c_cur:
                acc |= c_sub
        if acc == cur:
            return AttrSet(s.universe, cur)
        cur = acc


# A row in flight: (ones, zeros, free, bubbles), the fields of a Row012n
# without its universe. The splitters below work on these plain tuples and
# append their output rows to a list. Row012n, with its partition check, is
# built once per row that goes back to a library caller; a printed row is
# checked by ``Universe.row_lines`` instead.
Row = tuple[int, int, int, tuple[int, ...]]


def _force_ones(row: Row, m: int) -> Row | None:
    """Restrict the row to subsets containing m; None when that is empty."""
    ones, zeros, free, bubbles = row
    if m & zeros:
        return None
    kept = []
    for b in bubbles:
        rest = b & ~m
        if rest == b:
            kept.append(b)
        elif rest == 0:
            return None  # bubble fully forced present, but it needs a 0
        elif rest.bit_count() == 1:
            zeros |= rest
        else:
            kept.append(rest)
    return ones | m, zeros, free & ~m, tuple(kept)


def _at_least_one_zero(row: Row, amask: int, out: list[Row]) -> None:
    """Append rows covering exactly the members of row missing part of amask."""
    ones, zeros, free, bubbles = row
    if amask & zeros:
        out.append(row)
        return
    for b in bubbles:
        if b & ~amask == 0:
            out.append(row)  # some bubble lies inside amask, so a 0 is certain
            return
    cand = amask & ~ones
    if cand == 0:
        return  # amask forced fully present
    in_bubbles = cand & ~free
    if in_bubbles == 0:
        # all candidate positions free: one new bubble (or a lone 0)
        if cand.bit_count() == 1:
            out.append((ones, zeros | cand, free & ~cand, bubbles))
        else:
            out.append((ones, zeros, free & ~cand, bubbles + (cand,)))
        return
    # a candidate position sits inside an existing bubble: branch on it
    p = in_bubbles & -in_bubbles
    b = next(b for b in bubbles if b & p)
    others = tuple(x for x in bubbles if x != b)
    # p absent: its bubble is satisfied, remaining bubble positions run free
    out.append((ones, zeros | p, free | (b & ~p), others))
    # p present: the bubble shrinks and the rest of amask must miss something
    with_p = _force_ones(row, p)
    if with_p is not None:
        _at_least_one_zero(with_p, amask & ~p, out)


def _impose(
    rows: list[Row], pairs: Iterable[tuple[int, int]], complications: Iterable[int]
) -> list[Row]:
    """Filter the rows by each (premise, conclusion) mask pair in turn, then
    by each complication mask; the rows stay pairwise disjoint."""
    for amask, bmask in pairs:
        out: list[Row] = []
        for row in rows:
            ones, zeros, _, bubbles = row
            # a row left whole: the premise cannot hold (a forced 0, or a
            # bubble inside it), or the conclusion is certain when it does
            if amask & zeros or not bmask & ~(amask | ones):
                out.append(row)
                continue
            for b in bubbles:
                if not b & ~amask:
                    out.append(row)
                    break
            else:
                # split: the members missing part of the premise, then
                # those holding premise and conclusion
                _at_least_one_zero(row, amask, out)
                forced = _force_ones(row, amask | bmask)
                if forced is not None:
                    out.append(forced)
        rows = out
    for amask in complications:
        out = []
        for row in rows:
            _at_least_one_zero(row, amask, out)
        rows = out
    return rows


def _split_order(pairs: Pairs) -> Pairs:
    """The pairs in the order that splits the fewest rows: ascending
    premise size, then descending popularity of the premise, the sum over
    its positions of the number of premises holding the position.

    A small premise splits a row into few rows, and a popular one fixes
    positions that many later premises share, so that more of the rows
    they meet are left whole. The sort is stable, so ties keep the given
    order and the result is deterministic.
    """
    hits: dict[int, int] = {}
    for prem, _ in pairs:
        for p in bits(prem):
            hits[p] = hits.get(p, 0) + 1

    def key(pair: tuple[int, int]) -> tuple[int, int]:
        prem = pair[0]
        return prem.bit_count(), -sum([hits[p] for p in bits(prem)])

    return sorted(pairs, key=key)


def _model_rows(
    universe: Universe, pairs: Pairs, complications: Iterable[int] = ()
) -> list[Row]:
    """Disjoint rows of the subsets of the universe that respect every
    (premise, conclusion) mask pair, imposed in the order given, and cover
    no complication mask."""
    return _impose([(0, 0, universe.full_mask, ())], pairs, complications)


def model_rows(sigma: ImplicationSet, complications: Iterable[int] = ()) -> list[Row]:
    """Disjoint rows of the closed sets of sigma that cover no complication
    mask, as plain tuples, with the rules imposed in their given order:
    the rows that ``enumerate`` prints and ``rows.enumerate_horn`` wraps."""
    return _model_rows(sigma.universe, sigma.mask_pairs(), complications)


def _expand_bubbles(row: Row, out: list[Row]) -> None:
    ones, zeros, free, bubbles = row
    if not bubbles:
        out.append(row)
        return
    rest = bubbles[1:]
    before = 0  # the bubble's positions below p, present in p's row
    after = bubbles[0]
    while after:
        p = after & -after
        after ^= p
        _expand_bubbles((ones | before, zeros | p, free | after, rest), out)
        before |= p


def expand_rows(rows: Iterable[Row]) -> list[Row]:
    """Equivalent bubble-free rows, in order: each k-position bubble
    becomes the k disjoint rows 0 2..2, 1 0 2..2, ..., 1..1 0."""
    out: list[Row] = []
    for row in rows:
        _expand_bubbles(row, out)
    return out


def split_rows(sigma: ImplicationSet, complications: Iterable[int] = ()) -> list[Row]:
    """Disjoint rows of the closed sets of sigma that cover no complication
    mask, as plain tuples, for callers that never print them.

    The rules are imposed in ``_split_order``: the same sets as the rows of
    ``model_rows``, in fewer rows, but not the same rows.
    """
    pairs = _split_order(sigma.mask_pairs())
    return _model_rows(sigma.universe, pairs, complications)


def flat_rows(sigma: ImplicationSet, complications: Iterable[int] = ()) -> list[Row]:
    """The rows of ``split_rows`` with their bubbles expanded."""
    return expand_rows(split_rows(sigma, complications))


def lectic_masks(source: ClosureSource, complications: Iterable[int] = ()) -> Iterator[int]:
    """The masks of the closed sets that cover no complication mask, each
    once, in lectic order.

    Lectic order is taken on positions with the smallest position most
    significant (the usual NextClosure convention). An implication family
    is read off its 012 rows; a family or a bare operator, which has no
    rows, goes through NextClosure and takes no complications.
    """
    universe = source_universe(source)
    if isinstance(source, ImplicationSet):
        return _lectic_from_rows(universe, flat_rows(source, complications))
    if complications:
        raise TypeError("complications need an implication family")
    return _next_closure(Closure.wrap(source))


def enumerate_closed_lectic(source: ClosureSource) -> Iterator[AttrSet]:
    """Yield every closed set exactly once, in lectic order (see
    ``lectic_masks``)."""
    return map(partial(AttrSet, source_universe(source)), lectic_masks(source))


def _lectic_from_rows(universe: Universe, flat: Iterable[Row]) -> Iterator[int]:
    """The members of disjoint bubble-free rows, in lectic order.

    A member m is sorted as one plain integer: m with its bits reversed in
    the high half, where the smallest position is the most significant,
    and m itself in the low half. So the sorted integers are in lectic
    order, and the low half gives each set back without a second reversal.
    """
    n = universe.size
    top = 2 * n - 1
    keys: list[int] = []
    for ones, _, free, _ in flat:
        row = [ones]
        for p in bits(ones):
            row[0] |= 1 << (top - p)
        for p in bits(free):
            both = 1 << p | 1 << (top - p)
            row += [key | both for key in row]
        keys += row
    keys.sort()
    return map(universe.full_mask.__and__, keys)


def _next_closure(c: Closure) -> Iterator[int]:
    """NextClosure (Ganter 1984). The loop calls the kernel directly: each
    set is closed once, so a memo would never hit."""
    kernel = c._fn
    n = c.universe.size
    cur = kernel(0)
    while True:
        yield cur
        # the next closed set: drop trailing elements until adding one
        # closes to a set that adds nothing before it
        for i in range(n - 1, -1, -1):
            bit = 1 << i
            if cur & bit:
                cur &= ~bit
            else:
                closed = kernel(cur | bit)
                if (closed & ~cur) & (bit - 1) == 0:
                    cur = closed
                    break
        else:
            return
