"""Compressed enumeration of closure systems and impure Horn model sets as
disjoint 012n-rows, plus Horn satisfiability and near-minimum compression.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Iterator

from . import canonical, closure
from .core import (
    AttrSet,
    Implication,
    ImplicationSet,
    SetFamily,
    Universe,
    submasks,
)
from .errors import InvariantError, UniverseMismatchError


@dataclass(frozen=True, slots=True)
class Row012n:
    """One block of subsets: fixed-absent, fixed-present and free positions,
    plus bubbles demanding at least one absent position each.

    The four masks partition the universe; every bubble spans >= 2 positions.
    """

    universe: Universe
    ones: int
    zeros: int
    free: int
    bubbles: tuple[int, ...]

    def __post_init__(self) -> None:
        # the parts cover the universe, and their sizes add up to its size
        # only when no two of them overlap
        acc = self.ones | self.zeros | self.free
        size = self.ones.bit_count() + self.zeros.bit_count() + self.free.bit_count()
        for b in self.bubbles:
            k = b.bit_count()
            if k < 2:
                raise InvariantError("a bubble needs at least two positions")
            acc |= b
            size += k
        if acc != self.universe.full_mask or size != self.universe.size:
            raise InvariantError("row masks do not partition the universe")

    def count(self) -> int:
        """Number of subsets: a k-position bubble contributes 2^k - 1."""
        return _size(self.free, self.bubbles)

    def members(self) -> Iterator[int]:
        """Member masks, read off the row's bubble-free expansion."""
        flat: list[Row] = []
        _expand_bubbles((self.ones, self.zeros, self.free, self.bubbles), flat)
        for ones, _, free, _ in flat:
            for f in submasks(free):
                yield ones | f

    def intersects(self, other: Row012n) -> bool:
        """Symbol-compatibility test: is some subset in both rows?

        The joint forced-present mask is a common member iff it avoids both
        forced-absent masks and fully covers no bubble.
        """
        ones = self.ones | other.ones
        if ones & (self.zeros | other.zeros):
            return False
        for b in self.bubbles + other.bubbles:
            if b & ~ones == 0:
                return False
        return True

    def render(self) -> str:
        names: dict[int, str] = {}
        for b in self.bubbles:
            names[b] = chr(ord("a") + len(names))
        symbols = []
        for p in range(self.universe.size):
            bit = 1 << p
            if bit & self.ones:
                symbols.append("1")
            elif bit & self.zeros:
                symbols.append("0")
            elif bit & self.free:
                symbols.append("2")
            else:
                symbols.append(next(names[b] for b in self.bubbles if b & bit))
        return " ".join(symbols)


@dataclass(frozen=True, slots=True)
class RowSystem:
    """Disjoint rows jointly denoting a set of subsets."""

    universe: Universe
    rows: tuple[Row012n, ...]

    def count(self) -> int:
        return sum(r.count() for r in self.rows)

    def members(self) -> Iterator[AttrSet]:
        for r in self.rows:
            for m in r.members():
                yield AttrSet(self.universe, m)

    def member_masks(self) -> set[int]:
        return {m for r in self.rows for m in r.members()}

    def pairwise_disjoint(self) -> bool:
        rs = self.rows
        for i in range(len(rs)):
            for j in range(i + 1, len(rs)):
                if rs[i].intersects(rs[j]):
                    return False
        return True

    def render(self) -> str:
        return "\n".join(r.render() for r in self.rows)


# A row in flight: (ones, zeros, free, bubbles), the fields of a Row012n
# without its universe. The splitters below work on these plain tuples and
# append their output rows to a list; Row012n, with its partition check, is
# built once per row that goes back to a caller.
Row = tuple[int, int, int, tuple[int, ...]]


def _size(free: int, bubbles: tuple[int, ...]) -> int:
    total = 1 << free.bit_count()
    for b in bubbles:
        total *= (1 << b.bit_count()) - 1
    return total


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


def _model_rows(sigma: ImplicationSet, complications: Iterable[int] = ()) -> list[Row]:
    full: Row = (0, 0, sigma.universe.full_mask, ())
    return _impose([full], sigma.mask_pairs(), complications)


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


def flat_rows(sigma: ImplicationSet, complications: Iterable[int] = ()) -> list[Row]:
    """Bubble-free rows of the closed sets of sigma that cover no
    complication mask, as plain tuples: the rows of to_012(enumerate_horn)."""
    out: list[Row] = []
    for row in _model_rows(sigma, complications):
        _expand_bubbles(row, out)
    return out


def _tuples(rows: RowSystem) -> list[Row]:
    return [(r.ones, r.zeros, r.free, r.bubbles) for r in rows.rows]


def _system(universe: Universe, rows: list[Row]) -> RowSystem:
    return RowSystem(universe, tuple(Row012n(universe, *row) for row in rows))


def impose_implication(rows: RowSystem, imp: Implication) -> RowSystem:
    """Filter the denotation by one implication; rows stay pairwise disjoint."""
    if imp.universe != rows.universe:
        raise UniverseMismatchError("implication outside the rows' universe")
    pair = (imp.premise.mask, imp.conclusion.mask)
    return _system(rows.universe, _impose(_tuples(rows), (pair,), ()))


def impose_complication(rows: RowSystem, aset: AttrSet) -> RowSystem:
    """Filter by a negative clause: keep subsets not covering aset."""
    if aset.universe != rows.universe:
        raise UniverseMismatchError("complication outside the rows' universe")
    return _system(rows.universe, _impose(_tuples(rows), (), (aset.mask,)))


def enumerate_compact(sigma: ImplicationSet) -> RowSystem:
    """Disjoint 012n-rows denoting exactly the closed sets of sigma."""
    return _system(sigma.universe, _model_rows(sigma))


def count(rows: RowSystem | HornSystem) -> int:
    """Denotation cardinality (rows must be disjoint, which they are by
    construction here). A HornSystem is counted off its rows, Mod(h),
    without building them."""
    if isinstance(rows, HornSystem):
        return sum(
            _size(free, bubbles)
            for _, _, free, bubbles in _model_rows(rows.sigma, rows.gamma.masks())
        )
    return rows.count()


def to_012(rows: RowSystem) -> RowSystem:
    """Equivalent bubble-free rows: each k-position bubble becomes the k
    disjoint rows 0 2..2, 1 0 2..2, ..., 1..1 0."""
    out: list[Row] = []
    for row in _tuples(rows):
        _expand_bubbles(row, out)
    return _system(rows.universe, out)


@dataclass(frozen=True, slots=True)
class HornSystem:
    """Implications plus complications: an impure Horn function f ∧ g.

    The complication family is normalized to the unique antichain with the
    same noncovers.
    """

    sigma: ImplicationSet
    gamma: SetFamily

    def __post_init__(self) -> None:
        if self.sigma.universe != self.gamma.universe:
            raise UniverseMismatchError("sigma and gamma in different universes")
        object.__setattr__(self, "gamma", self.gamma.minimize())

    @property
    def universe(self) -> Universe:
        return self.sigma.universe


def enumerate_horn(h: HornSystem) -> RowSystem:
    """Disjoint rows denoting Mod(h): the closed sets that cover no
    complication."""
    return _system(h.universe, _model_rows(h.sigma, h.gamma.masks()))


def enumerate_horn_lectic(h: HornSystem) -> Iterator[AttrSet]:
    """Mod(h) in lectic order, read off its bubble-free rows."""
    return closure.lectic_from_rows(h.universe, flat_rows(h.sigma, h.gamma.masks()))


def horn_satisfiable(h: HornSystem) -> tuple[bool, AttrSet | None]:
    """Satisfiability in linear time: the least closed set is a model unless
    it covers a complication; it is returned as the witness."""
    bottom = closure.Closure.from_sigma(h.sigma).of_mask(0)
    for aset in h.gamma:
        if aset.mask & ~bottom == 0:
            return False, None
    return True, AttrSet(h.universe, bottom)


def near_minimum_base(h: HornSystem) -> HornSystem:
    """Near-minimum base: a minimum implication base of Mod(h) ∪ {E} plus the
    single complication E; within one of the minimum size.

    A pure input (no complications) just gets its implication part minimized.
    """
    u = h.universe
    if not h.gamma.sets:
        return HornSystem(canonical.shock_minimize(h.sigma), SetFamily(u, ()))
    full = u.full()
    lift = tuple(Implication(aset, full) for aset in h.gamma)
    base_bottom = ImplicationSet(u, h.sigma.items + lift)
    sigma0 = canonical.shock_minimize(base_bottom)
    return HornSystem(sigma0, SetFamily(u, (full,)))
