"""Forward-chaining closure, family-intersection closure, quasiclosure,
semantic consequence, and lectic enumeration of closed sets.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial
from typing import Callable, Iterable, Iterator, Union

from . import rows
from .core import (
    AttrSet,
    ImplicationSet,
    Implication,
    SetFamily,
    Universe,
    bits,
    exhaustive_bound,
    submasks,
)
from .errors import BoundExceededError, UniverseMismatchError

ClosureSource = Union[ImplicationSet, SetFamily, "Closure"]

Pairs = list[tuple[int, int]]


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


def _close_columnwise(
    occ: list[list[int]], need: list[int], concs: list[int], axioms: int, mask: int
) -> int:
    """Least fixpoint in the vertical layout, by LinClosure (Beeri and
    Bernstein 1979).

    occ[p] lists the rules whose premise contains position p, and need[i]
    counts the premise positions of rule i; axioms unites the conclusions
    of the empty-premise rules. Each position that joins the set is visited
    once, and a rule fires when its last premise position joins.
    """
    left = need.copy()
    closed = mask | axioms
    todo = closed
    while todo:
        low = todo & -todo
        todo ^= low
        for i in occ[low.bit_length() - 1]:
            left[i] -= 1
            if not left[i]:
                add = concs[i] & ~closed
                if add:
                    closed |= add
                    todo |= add
    return closed


def _compile_columnwise(n: int, pairs: Pairs) -> Callable[[int], int]:
    occ: list[list[int]] = [[] for _ in range(n)]
    axioms = 0
    for i, (prem, conc) in enumerate(pairs):
        if not prem:
            axioms |= conc
        for p in bits(prem):
            occ[p].append(i)
    need = [prem.bit_count() for prem, _ in pairs]
    concs = [conc for _, conc in pairs]
    return partial(_close_columnwise, occ, need, concs, axioms)


def _close_family(full: int, members: list[int], mask: int) -> int:
    acc = full
    for m in members:
        if mask & ~m == 0:
            acc &= m
    return acc


class _Compiled:
    """Mask pairs and closure kernels of one implication family.

    Kept in the family's ``_compiled`` slot, so a family compiles once
    however many operators and queries are made from it; the family is
    frozen, so nothing here goes stale.
    """

    __slots__ = ("n", "pairs", "kernels")

    def __init__(self, sigma: ImplicationSet):
        self.n = sigma.universe.size
        self.pairs = sigma.mask_pairs()
        self.kernels: dict[str, Callable[[int], int]] = {}

    def kernel(self, layout: str) -> Callable[[int], int]:
        fn = self.kernels.get(layout)
        if fn is None:
            if layout == "row":
                fn = partial(_close_rowwise, self.pairs)
            else:
                fn = _compile_columnwise(self.n, self.pairs)
            self.kernels[layout] = fn
        return fn


def _compiled(sigma: ImplicationSet) -> _Compiled:
    got = sigma._compiled
    if got is None:
        got = _Compiled(sigma)
        object.__setattr__(sigma, "_compiled", got)
    return got


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
    def from_sigma(cls, sigma: ImplicationSet, layout: str = "auto") -> Closure:
        """Closure under sigma, evaluated row-wise ("row") or column-wise by
        LinClosure ("column"). "auto" takes the column kernel: a query
        touches only the rules whose premises meet the positions it adds."""
        if layout == "auto":
            layout = "column"
        elif layout not in ("row", "column"):
            raise ValueError(f"unknown layout {layout!r}")
        return cls(sigma.universe, _compiled(sigma).kernel(layout))

    @classmethod
    def from_family(cls, family: SetFamily) -> Closure:
        fn = family._compiled
        if fn is None:
            fn = partial(_close_family, family.universe.full_mask, family.masks())
            object.__setattr__(family, "_compiled", fn)
        return cls(family.universe, fn)

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
    return _rounds(_compiled(sigma).pairs, s.mask)


def step(sigma: ImplicationSet, s: AttrSet) -> AttrSet:
    """One forward-chaining round: S plus the conclusions of premises inside S."""
    return AttrSet(s.universe, next(_set_rounds(sigma, s)))


def close(sigma: ImplicationSet, s: AttrSet, layout: str = "auto") -> AttrSet:
    """Forward-chaining closure of s under sigma.

    Row-wise and column-wise (vertical layout) evaluation are bit-identical;
    layout only selects the internal loop shape.
    """
    return Closure.from_sigma(sigma, layout)(s)


def close_trace(sigma: ImplicationSet, s: AttrSet) -> ClosureTrace:
    u = s.universe
    return ClosureTrace((s, *(AttrSet(u, m) for m in _set_rounds(sigma, s))))


def close_family(family: SetFamily, s: AttrSet) -> AttrSet:
    """Intersection of family members containing s; E when none does."""
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
    c1 = Closure.from_sigma(sigma1)
    c2 = Closure.from_sigma(sigma2)
    for imp in sigma2:
        if imp.conclusion.mask & ~c1.of_mask(imp.premise.mask):
            return False
    for imp in sigma1:
        if imp.conclusion.mask & ~c2.of_mask(imp.premise.mask):
            return False
    return True


def quasiclosure(source: ClosureSource, s: AttrSet) -> AttrSet:
    """Least fixpoint of S° = S ∪ ⋃{c(U) : U ⊆ S, c(U) ≠ c(S)}.

    Quantifies over all subsets of the current set, so it raises
    BoundExceededError when the set grows beyond HORNKIT_MAX_EXHAUSTIVE
    elements (default 20).
    """
    c = Closure.wrap(source)
    if s.universe != c.universe:
        raise UniverseMismatchError("set outside the operator's universe")
    limit = exhaustive_bound()
    cur = s.mask
    while True:
        if cur.bit_count() > limit:
            raise BoundExceededError(
                f"quasiclosure needs all subsets of a {cur.bit_count()}-element set"
                f" (bound {limit})"
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


def enumerate_closed_lectic(source: ClosureSource) -> Iterator[AttrSet]:
    """Yield every closed set exactly once, in lectic order.

    Lectic order is taken on positions with the smallest position most
    significant (the usual NextClosure convention). An implication family
    is read off its 012 rows; a family or a bare operator, which has no
    rows, goes through NextClosure.
    """
    if isinstance(source, ImplicationSet):
        return lectic_from_rows(source.universe, rows.flat_rows(source))
    return _next_closure(Closure.wrap(source))


def lectic_from_rows(universe: Universe, flat: Iterable[rows.Row]) -> Iterator[AttrSet]:
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
    full = universe.full_mask
    for key in keys:
        yield AttrSet(universe, key & full)


def _next_closure(c: Closure) -> Iterator[AttrSet]:
    """NextClosure (Ganter 1984). The loop calls the kernel directly: each
    set is closed once, so a memo would never hit."""
    kernel = c._fn
    n = c.universe.size
    cur = kernel(0)
    while True:
        yield AttrSet(c.universe, cur)
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
