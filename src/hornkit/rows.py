"""Compressed enumeration of closure systems and impure Horn model sets as
disjoint 012n-rows, plus Horn satisfiability and near-minimum compression.

The row engine itself (splitting rows by implications and complications,
expanding bubbles) lives in ``closure`` beside the other closed-set
engines; this module wraps its plain tuples in checked ``Row012n`` and
``RowSystem`` values and adds the Horn-function verbs on top.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial
from typing import Iterator

from .canonical import shock_minimize
from .closure import (
    Closure,
    Row,
    _impose,
    expand_rows,
    lectic_masks,
    model_rows,
    split_rows,
)
from .core import (
    AttrSet,
    Implication,
    ImplicationSet,
    SetFamily,
    Universe,
    submasks,
)
from .errors import UniverseMismatchError


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
        self.universe.check_row(self._tuple())

    def count(self) -> int:
        """Number of subsets: a k-position bubble contributes 2^k - 1."""
        return _size(self.free, self.bubbles)

    def members(self) -> Iterator[int]:
        """Member masks, read off the row's bubble-free expansion."""
        for ones, _, free, _ in expand_rows((self._tuple(),)):
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
        """The row in 012n notation, by ``Universe.row_lines``."""
        return self.universe.row_lines((self._tuple(),))

    def _tuple(self) -> Row:
        return self.ones, self.zeros, self.free, self.bubbles


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
        """One row per line, by ``Universe.row_lines``."""
        return self.universe.row_lines(_tuples(self))


def _size(free: int, bubbles: tuple[int, ...]) -> int:
    total = 1 << free.bit_count()
    for b in bubbles:
        total *= (1 << b.bit_count()) - 1
    return total


def _tuples(rows: RowSystem) -> list[Row]:
    return [r._tuple() for r in rows.rows]


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
    return _system(sigma.universe, model_rows(sigma))


def count(rows: RowSystem | HornSystem) -> int:
    """Denotation cardinality (rows must be disjoint, which they are by
    construction here).

    A HornSystem is counted off the plain rows of Mod(h) from
    ``closure.split_rows``, with no Row012n built.
    """
    if isinstance(rows, HornSystem):
        return sum(
            _size(free, bubbles)
            for _, _, free, bubbles in split_rows(rows.sigma, rows.gamma.masks())
        )
    return rows.count()


def to_012(rows: RowSystem) -> RowSystem:
    """Equivalent bubble-free rows: each k-position bubble becomes the k
    disjoint rows 0 2..2, 1 0 2..2, ..., 1..1 0."""
    return _system(rows.universe, expand_rows(_tuples(rows)))


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
    return _system(h.universe, model_rows(h.sigma, h.gamma.masks()))


def enumerate_horn_lectic(h: HornSystem) -> Iterator[AttrSet]:
    """Mod(h) in lectic order, read off its bubble-free rows."""
    return map(partial(AttrSet, h.universe), lectic_masks(h.sigma, h.gamma.masks()))


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
        return HornSystem(shock_minimize(h.sigma), SetFamily(u, ()))
    lift = [(m, u.full_mask) for m in h.gamma.masks()]
    sigma0 = shock_minimize(ImplicationSet.from_pairs(u, h.sigma.mask_pairs() + lift))
    return HornSystem(sigma0, SetFamily(u, (u.full(),)))
