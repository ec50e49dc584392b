"""Compressed enumeration of closure systems and impure Horn model sets as
disjoint 012n-rows, plus Horn satisfiability and near-minimum compression.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator

from . import canonical
from .closure import Closure
from .core import (
    AttrSet,
    Implication,
    ImplicationSet,
    SetFamily,
    Universe,
    bits,
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
        total = 1 << self.free.bit_count()
        for b in self.bubbles:
            total *= (1 << b.bit_count()) - 1
        return total

    def members(self) -> Iterator[int]:
        def rec(idx: int, acc: int) -> Iterator[int]:
            if idx == len(self.bubbles):
                for f in submasks(self.free):
                    yield acc | f
                return
            b = self.bubbles[idx]
            for sub in submasks(b):
                if sub != b:  # at least one 0 inside the bubble
                    yield from rec(idx + 1, acc | sub)

        return rec(0, self.ones)

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


def _full_row(universe: Universe) -> Row012n:
    return Row012n(universe, ones=0, zeros=0, free=universe.full_mask, bubbles=())


def _force_ones(row: Row012n, m: int) -> Row012n | None:
    """Restrict the row to subsets containing m; None when that is empty."""
    if m & row.zeros:
        return None
    bubbles = []
    zeros = row.zeros
    for b in row.bubbles:
        rest = b & ~m
        if rest == b:
            bubbles.append(b)
        elif rest == 0:
            return None  # bubble fully forced present, but it needs a 0
        elif rest.bit_count() == 1:
            zeros |= rest
        else:
            bubbles.append(rest)
    return Row012n(
        row.universe,
        ones=row.ones | m,
        zeros=zeros,
        free=row.free & ~m,
        bubbles=tuple(bubbles),
    )


def _at_least_one_zero(row: Row012n, amask: int) -> list[Row012n]:
    """Rows covering exactly the members of row missing part of amask."""
    if amask & row.zeros:
        return [row]
    for b in row.bubbles:
        if b & ~amask == 0:
            return [row]  # some bubble lies inside amask, so a 0 is certain
    cand = amask & ~row.ones
    if cand == 0:
        return []  # amask forced fully present
    in_bubbles = cand & ~row.free
    if in_bubbles == 0:
        # all candidate positions free: one new bubble (or a lone 0)
        if cand.bit_count() == 1:
            return [
                Row012n(
                    row.universe,
                    ones=row.ones,
                    zeros=row.zeros | cand,
                    free=row.free & ~cand,
                    bubbles=row.bubbles,
                )
            ]
        return [
            Row012n(
                row.universe,
                ones=row.ones,
                zeros=row.zeros,
                free=row.free & ~cand,
                bubbles=row.bubbles + (cand,),
            )
        ]
    # a candidate position sits inside an existing bubble: branch on it
    p = in_bubbles & -in_bubbles
    b = next(b for b in row.bubbles if b & p)
    others = tuple(x for x in row.bubbles if x != b)
    # p absent: its bubble is satisfied, remaining bubble positions run free
    branch0 = Row012n(
        row.universe,
        ones=row.ones,
        zeros=row.zeros | p,
        free=row.free | (b & ~p),
        bubbles=others,
    )
    # p present: the bubble shrinks and the rest of amask must miss something
    with_p = _force_ones(row, p)
    out = [branch0]
    if with_p is not None:
        out.extend(_at_least_one_zero(with_p, amask & ~p))
    return out


def _impose_on_row(row: Row012n, amask: int, bmask: int) -> list[Row012n]:
    if amask & row.zeros:
        return [row]
    for b in row.bubbles:
        if b & ~amask == 0:
            return [row]
    if bmask & ~(amask | row.ones) == 0:
        return [row]  # conclusion already certain whenever the premise holds
    out = _at_least_one_zero(row, amask)
    forced = _force_ones(row, amask | bmask)
    if forced is not None:
        out.append(forced)
    return out


def impose_implication(rows: RowSystem, imp: Implication) -> RowSystem:
    """Filter the denotation by one implication; rows stay pairwise disjoint."""
    if imp.universe != rows.universe:
        raise UniverseMismatchError("implication outside the rows' universe")
    out: list[Row012n] = []
    for row in rows.rows:
        out.extend(_impose_on_row(row, imp.premise.mask, imp.conclusion.mask))
    return RowSystem(rows.universe, tuple(out))


def impose_complication(rows: RowSystem, aset: AttrSet) -> RowSystem:
    """Filter by a negative clause: keep subsets not covering aset."""
    if aset.universe != rows.universe:
        raise UniverseMismatchError("complication outside the rows' universe")
    out: list[Row012n] = []
    for row in rows.rows:
        out.extend(_at_least_one_zero(row, aset.mask))
    return RowSystem(rows.universe, tuple(out))


def enumerate_compact(sigma: ImplicationSet) -> RowSystem:
    """Disjoint 012n-rows denoting exactly the closed sets of sigma."""
    rows = RowSystem(sigma.universe, (_full_row(sigma.universe),))
    for imp in sigma:
        rows = impose_implication(rows, imp)
    return rows


def count(rows: RowSystem) -> int:
    """Denotation cardinality (rows must be disjoint, which they are by
    construction here)."""
    return rows.count()


def to_012(rows: RowSystem) -> RowSystem:
    """Equivalent bubble-free rows: each k-position bubble becomes the k
    disjoint rows 0 2..2, 1 0 2..2, ..., 1..1 0."""
    out: list[Row012n] = []
    for row in rows.rows:
        out.extend(_expand_bubbles(row))
    return RowSystem(rows.universe, tuple(out))


def _expand_bubbles(row: Row012n) -> list[Row012n]:
    if not row.bubbles:
        return [row]
    b = row.bubbles[0]
    rest = row.bubbles[1:]
    out = []
    positions = list(bits(b))
    for i, p in enumerate(positions):
        ones_add = 0
        for q in positions[:i]:
            ones_add |= 1 << q
        free_add = 0
        for q in positions[i + 1 :]:
            free_add |= 1 << q
        out.extend(
            _expand_bubbles(
                Row012n(
                    row.universe,
                    ones=row.ones | ones_add,
                    zeros=row.zeros | (1 << p),
                    free=row.free | free_add,
                    bubbles=rest,
                )
            )
        )
    return out


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
    rows = enumerate_compact(h.sigma)
    for aset in h.gamma:
        rows = impose_complication(rows, aset)
    return rows


def horn_satisfiable(h: HornSystem) -> tuple[bool, AttrSet | None]:
    """Satisfiability in linear time: the least closed set is a model unless
    it covers a complication; it is returned as the witness."""
    bottom = Closure.from_sigma(h.sigma).of_mask(0)
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
