"""Stems and roots, the canonical direct base, strong-stem classification,
the D-basis ordering, and one-pass ordered closure.
"""

from __future__ import annotations

from dataclasses import dataclass

from .closure import Closure, ClosureSource, source_universe
from .core import (
    EXHAUSTIVE_LIMIT,
    AttrSet,
    Implication,
    ImplicationSet,
    Universe,
    bits,
)
from .dualize import StemTable
from .errors import (
    BoundExceededError,
    InvariantError,
    NotDirectError,
    UniverseMismatchError,
)


def _search_ground(source: ClosureSource) -> int:
    # elements never occurring in a premise are inert, so stems avoid them
    if isinstance(source, ImplicationSet):
        ground = 0
        for p, _ in source.mask_pairs():
            ground |= p
        return ground
    return source_universe(source).full_mask


def stem_table(source: ClosureSource) -> StemTable:
    """All stems and roots, by dualization: stems(e) = mtr(cmax(F,e)) \\ {e}.

    Raises BoundExceededError when the premise elements (the full universe
    for family-given operators) outnumber ``core.EXHAUSTIVE_LIMIT`` (20).
    """
    ground = _search_ground(source)
    if ground.bit_count() > EXHAUSTIVE_LIMIT:
        raise BoundExceededError(
            f"stem search over {ground.bit_count()} premise elements"
            f" (bound {EXHAUSTIVE_LIMIT})"
        )
    return StemTable.of(source)


def canonical_direct(source: ClosureSource) -> ImplicationSet:
    """The canonical direct base {X -> roots(X) : X a stem}.

    One forward-chaining step on it already reaches the closure.
    """
    return stem_table(source).direct_base()


@dataclass(frozen=True, slots=True)
class StemClassification:
    """Per-stem flags: strong, and the roots it is closure-minimal for."""

    strong: bool
    closure_minimal_for: AttrSet


def classify_stems(
    table: StemTable, source: ClosureSource
) -> dict[AttrSet, StemClassification]:
    """Strong stems (roots(X) = c(X) \\ X) and closure-minimality per root."""
    c = Closure.wrap(source)
    u = c.universe
    out: dict[AttrSet, StemClassification] = {}
    for stem, roots in table.roots_of.items():
        cl = c.of_mask(stem.mask)
        strong = roots.mask == cl & ~stem.mask
        minimal_for = 0
        for e in bits(roots.mask):
            competitors = [c.of_mask(s.mask) for s in table.stems_of[e]]
            if not any(other != cl and other & ~cl == 0 for other in competitors):
                minimal_for |= 1 << e
        out[stem] = StemClassification(
            strong=strong, closure_minimal_for=AttrSet(u, minimal_for)
        )
    return out


@dataclass(frozen=True, slots=True)
class OrderedBase:
    """Unit implications to apply once, left to right: binary prefix first,
    then the order-minimal block."""

    universe: Universe
    items: tuple[Implication, ...]
    binary_count: int

    def __post_init__(self) -> None:
        for imp in self.items[: self.binary_count]:
            if len(imp.premise) > 1:
                raise InvariantError(f"binary prefix holds {imp.render()}")

    def binary_part(self) -> tuple[Implication, ...]:
        return self.items[: self.binary_count]

    def as_sigma(self) -> ImplicationSet:
        return ImplicationSet(self.universe, self.items)

    def render(self) -> str:
        return self.as_sigma().render()


def d_basis(source: ClosureSource) -> OrderedBase:
    """The D-basis: all unit prime implicates with premise of size <= 1,
    followed by the order-minimal larger ones.

    Applied once each, in order, the implications close any set in one pass.
    """
    c = Closure.wrap(source)
    u = c.universe
    table = stem_table(source)

    # strictly-smaller relation from singleton closures
    singles = [c.of_mask(1 << p) for p in range(u.size)]
    smaller = [0] * u.size
    for a in range(u.size):
        for b in bits(singles[a] & ~(1 << a)):
            if not singles[b] >> a & 1:
                smaller[a] |= 1 << b

    stem_masks = {e: fam.as_mask_set() for e, fam in table.stems_of.items()}
    binary: list[Implication] = []
    larger: list[Implication] = []
    for stem, roots in table.roots_of.items():
        for e in bits(roots.mask):
            unit = Implication(stem, AttrSet(u, 1 << e))
            if len(stem) <= 1:
                binary.append(unit)
            elif _order_minimal(stem.mask, e, smaller, stem_masks):
                larger.append(unit)
    binary.sort(key=Implication.key)
    larger.sort(key=Implication.key)
    return OrderedBase(
        universe=u, items=tuple(binary + larger), binary_count=len(binary)
    )


def _order_minimal(
    stem: int, e: int, smaller: list[int], stem_masks: dict[int, frozenset[int]]
) -> bool:
    # replaceable iff swapping some premise element for a strictly smaller
    # one yields another prime implicate for the same root
    for a in bits(stem):
        for a2 in bits(smaller[a] & ~stem):
            if (stem & ~(1 << a)) | 1 << a2 in stem_masks[e]:
                return False
    return True


def ordered_close(ordered: OrderedBase, s: AttrSet, verify: bool = False) -> AttrSet:
    """Single left-to-right pass applying each implication exactly once.

    On a non-direct ordering the result can undershoot the closure; with
    verify=True that raises instead of returning silently.
    """
    if s.universe != ordered.universe:
        raise UniverseMismatchError("set outside the base's universe")
    mask = s.mask
    for imp in ordered.items:
        if imp.premise.mask & ~mask == 0:
            mask |= imp.conclusion.mask
    if verify:
        true_mask = Closure.from_sigma(ordered.as_sigma()).of_mask(s.mask)
        if true_mask != mask:
            raise NotDirectError("one-pass result undershoots the closure")
    return AttrSet(s.universe, mask)
