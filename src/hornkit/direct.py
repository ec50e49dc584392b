"""Stems and roots, the canonical direct base, strong-stem classification,
the D-basis (from the stem table alone), and one-pass ordered closure.

Everything here reads the stem table's masks: the ``stems_of`` and
``roots_of`` views are built only by ``dualize.StemTable``'s properties,
when a caller reads them, and ``classify_stems`` builds ``AttrSet``s only
for its result.
"""

from __future__ import annotations

from .closure import Closure, ClosureSource, source_universe
from .core import (
    EXHAUSTIVE_LIMIT,
    AttrSet,
    Implication,
    ImplicationSet,
    Universe,
    _implication,
    _MaskTuple,
    _set,
    _Value,
    bits,
    unit_expand,
)
from .dualize import StemTable
from .errors import BoundExceededError, InvariantError, NotDirectError


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


class StemClassification(_Value):
    """Per-stem flags: strong, and the roots it is closure-minimal for."""

    __slots__ = _fields = ("strong", "closure_minimal_for")

    def __init__(self, strong: bool, closure_minimal_for: AttrSet):
        _set(self, "strong", strong)
        _set(self, "closure_minimal_for", closure_minimal_for)


def classify_stems(
    table: StemTable, source: ClosureSource
) -> dict[AttrSet, StemClassification]:
    """Strong stems (roots(X) = c(X) \\ X) and closure-minimality per root."""
    c = Closure.wrap(source)
    u = c.universe
    u._check(table)
    out: dict[AttrSet, StemClassification] = {}
    for stem, roots in table.direct_base().mask_pairs():
        cl = c.of_mask(stem)
        strong = roots == cl & ~stem
        minimal_for = 0
        for e in bits(roots):
            competitors = [c.of_mask(s) for s in table._stems[e]]
            if not any(other != cl and other & ~cl == 0 for other in competitors):
                minimal_for |= 1 << e
        out[AttrSet(u, stem)] = StemClassification(
            strong=strong, closure_minimal_for=AttrSet(u, minimal_for)
        )
    return out


class OrderedBase(_MaskTuple):
    """Unit implications to apply once, left to right: binary prefix first,
    then the order-minimal block; held as mask pairs, as ``ImplicationSet``."""

    __slots__ = ("binary_count",)
    _fields = ("universe", "items", "binary_count")
    _object = staticmethod(_implication)
    items = property(_MaskTuple._kept, doc="The rules as ``Implication``s, built on first use.")

    def __init__(self, universe: Universe, items: tuple[Implication, ...], binary_count: int):
        universe._check(*items)
        if not 0 <= binary_count <= len(items):
            raise InvariantError(f"binary count {binary_count} outside 0..{len(items)}")
        for imp in items[:binary_count]:
            if len(imp.premise) > 1:
                raise InvariantError(f"binary prefix holds {imp.render()}")
        self._fill(universe, tuple([(i.premise.mask, i.conclusion.mask) for i in items]), items)
        _set(self, "binary_count", binary_count)

    @classmethod
    def _of_pairs(cls, universe: Universe, pairs: tuple, binary_count: int) -> OrderedBase:
        base = cls._of(universe, pairs)
        _set(base, "binary_count", binary_count)
        return base

    def _values(self) -> tuple:
        return (self.universe, self._masks, self.binary_count)

    def __reduce__(self):
        return (self._of_pairs, self._values())

    def binary_part(self) -> tuple[Implication, ...]:
        return self.items[: self.binary_count]

    def as_sigma(self) -> ImplicationSet:
        return ImplicationSet._of(self.universe, self._masks, self._objects)

    render = ImplicationSet.render


def d_basis(source: ClosureSource) -> OrderedBase:
    """The D-basis: all unit prime implicates with premise of size <= 1,
    followed by the order-minimal larger ones.

    Applied once each, in order, the implications close any set in one pass.
    The unit primes come as ``primes.unit_primes`` lists them, the binary
    block first. The canonical direct base closes in one step, so c({a}) is
    a plus the conclusions of the binary units on {} and on {a}. The stems
    of each root are read off the table's masks; no ``AttrSet`` is built.
    """
    table = stem_table(source)
    u = table.universe
    units = unit_expand(table.direct_base()).mask_pairs()
    binary_count = sum(1 for p, _ in units if p.bit_count() <= 1)

    # strictly-smaller relation from singleton closures
    singles = [1 << a for a in range(u.size)]
    for p, c in units[:binary_count]:
        for a in bits(p or u.full_mask):
            singles[a] |= c
    smaller = [0] * u.size
    for a in range(u.size):
        for b in bits(singles[a] & ~(1 << a)):
            if not singles[b] >> a & 1:
                smaller[a] |= 1 << b

    stems = {1 << e: frozenset(ms) for e, ms in table._stems.items()}
    larger = [(p, c) for p, c in units[binary_count:] if _order_minimal(p, smaller, stems[c])]
    return OrderedBase._of_pairs(u, tuple(units[:binary_count] + larger), binary_count)


def _order_minimal(stem: int, smaller: list[int], stems: frozenset[int]) -> bool:
    # replaceable iff swapping some premise element for a strictly smaller
    # one yields another of ``stems``, the stems of the same root
    for a in bits(stem):
        for a2 in bits(smaller[a] & ~stem):
            if (stem & ~(1 << a)) | 1 << a2 in stems:
                return False
    return True


def ordered_close(ordered: OrderedBase, s: AttrSet, verify: bool = False) -> AttrSet:
    """Single left-to-right pass applying each implication exactly once.

    On a non-direct ordering the result can undershoot the closure; with
    verify=True that raises instead of returning silently.
    """
    ordered.universe._check(s)
    mask = s.mask
    for p, c in ordered._masks:
        if p & ~mask == 0:
            mask |= c
    if verify:
        true_mask = Closure.from_sigma(ordered.as_sigma()).of_mask(s.mask)
        if true_mask != mask:
            raise NotDirectError("one-pass result undershoots the closure")
    return AttrSet(s.universe, mask)
