"""Attribute sets over a fixed universe, implications, set families, and
their text format.

Sets are bit-vectors indexed by universe position (a Python int, so
universes beyond 64 elements cost nothing extra), which keeps all the set
algebra in the closure algorithms word-parallel.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field
from typing import Iterable, Iterator

from .errors import InvariantError, ParseError, UniverseMismatchError

_HEADER = "elements:"


def exhaustive_bound() -> int:
    """Size limit of the stem search and quasiclosure: 20 elements, or
    HORNKIT_MAX_EXHAUSTIVE when set."""
    raw = os.environ.get("HORNKIT_MAX_EXHAUSTIVE")
    if raw is None:
        return 20
    try:
        return int(raw)
    except ValueError:
        raise ParseError(f"HORNKIT_MAX_EXHAUSTIVE must be an integer, got {raw!r}")


def bits(mask: int) -> Iterator[int]:
    """Positions of the set bits of ``mask``, ascending."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


def submasks(mask: int) -> Iterator[int]:
    """All submasks of ``mask``, including 0 and ``mask`` itself."""
    sub = mask
    while True:
        yield sub
        if sub == 0:
            return
        sub = (sub - 1) & mask


def extreme_masks(masks: Iterable[int], maximal: bool = False) -> list[int]:
    """The inclusion-minimal distinct masks (inclusion-maximal with
    ``maximal=True``), by ascending (descending) cardinality.

    Only a mask of smaller (larger) cardinality can lie inside (around)
    another, so one pass against the masks kept so far suffices.
    """
    kept: list[int] = []
    if maximal:
        for m in sorted(set(masks), key=int.bit_count, reverse=True):
            for k in kept:
                if not m & ~k:
                    break
            else:
                kept.append(m)
    else:
        for m in sorted(set(masks), key=int.bit_count):
            for k in kept:
                if not k & ~m:
                    break
            else:
                kept.append(m)
    return kept


class Universe:
    """Ordered set of attribute labels; positions are stable 0..size-1."""

    __slots__ = ("labels", "index", "size", "full_mask")

    def __init__(self, labels: Iterable[str]):
        labels = tuple(labels)
        if not labels:
            raise ParseError("empty universe declaration")
        index: dict[str, int] = {}
        for pos, lab in enumerate(labels):
            # "-" is the empty set, "->" splits implication lines, "#" starts
            # a comment
            if not lab or lab == "-" or "->" in lab or "#" in lab:
                raise ParseError(f"illegal label {lab!r}")
            if lab in index:
                raise ParseError(f"duplicate label {lab!r}")
            index[lab] = pos
        self.labels = labels
        self.index = index
        self.size = len(labels)
        self.full_mask = (1 << self.size) - 1

    def __eq__(self, other: object) -> bool:
        return isinstance(other, Universe) and self.labels == other.labels

    def __hash__(self) -> int:
        return hash(self.labels)

    def __repr__(self) -> str:
        return f"Universe({' '.join(self.labels)})"

    # -- set construction -------------------------------------------------

    def set_of(self, labels: Iterable[str]) -> AttrSet:
        mask = 0
        for lab in labels:
            pos = self.index.get(lab)
            if pos is None:
                raise ParseError(f"unknown label {lab!r}")
            mask |= 1 << pos
        return AttrSet(self, mask)

    def from_mask(self, mask: int) -> AttrSet:
        return AttrSet(self, mask)

    def from_positions(self, positions: Iterable[int]) -> AttrSet:
        mask = 0
        for pos in positions:
            if not 0 <= pos < self.size:
                raise UniverseMismatchError(f"position {pos} outside universe")
            mask |= 1 << pos
        return AttrSet(self, mask)

    def empty(self) -> AttrSet:
        return AttrSet(self, 0)

    def full(self) -> AttrSet:
        return AttrSet(self, self.full_mask)

    def parse_set(self, text: str) -> AttrSet:
        """Parse a whitespace-separated label list; "-" denotes the empty set."""
        tokens = text.split()
        if tokens == ["-"]:
            return self.empty()
        return self.set_of(tokens)


@dataclass(frozen=True, slots=True)
class AttrSet:
    """Subset of a universe, equal iff same universe and same members."""

    universe: Universe
    mask: int

    def __post_init__(self) -> None:
        if self.mask & ~self.universe.full_mask:
            raise UniverseMismatchError("set has members outside its universe")

    def __len__(self) -> int:
        return self.mask.bit_count()

    def __iter__(self) -> Iterator[int]:
        return bits(self.mask)

    def __contains__(self, pos: int) -> bool:
        return bool(self.mask >> pos & 1)

    def __or__(self, other: AttrSet) -> AttrSet:
        return AttrSet(self.universe, self.mask | self._mate(other))

    def __and__(self, other: AttrSet) -> AttrSet:
        return AttrSet(self.universe, self.mask & self._mate(other))

    def __sub__(self, other: AttrSet) -> AttrSet:
        return AttrSet(self.universe, self.mask & ~self._mate(other))

    def _mate(self, other: AttrSet) -> int:
        if other.universe != self.universe:
            raise UniverseMismatchError("sets live in different universes")
        return other.mask

    def issubset(self, other: AttrSet) -> bool:
        return not self.mask & ~self._mate(other)

    def complement(self) -> AttrSet:
        return AttrSet(self.universe, self.universe.full_mask & ~self.mask)

    @property
    def positions(self) -> tuple[int, ...]:
        return tuple(bits(self.mask))

    def key(self) -> tuple[int, tuple[int, ...]]:
        """Canonical sort key: cardinality, then positions lexicographically."""
        return (self.mask.bit_count(), self.positions)

    def render(self) -> str:
        return " ".join(self.universe.labels[p] for p in bits(self.mask))

    def __repr__(self) -> str:
        return f"{{{self.render()}}}"


@dataclass(frozen=True, slots=True)
class Implication:
    """Premise/conclusion pair; either side may be empty."""

    premise: AttrSet
    conclusion: AttrSet

    def __post_init__(self) -> None:
        if self.premise.universe != self.conclusion.universe:
            raise UniverseMismatchError("implication sides in different universes")

    @property
    def universe(self) -> Universe:
        return self.premise.universe

    def is_tautology(self) -> bool:
        return self.conclusion.issubset(self.premise)

    def key(self):
        return (self.premise.key(), self.conclusion.key())

    def render(self) -> str:
        return f"{self.premise.render()} -> {self.conclusion.render()}".strip()

    def __repr__(self) -> str:
        return f"({self.render()})"


@dataclass(frozen=True, slots=True)
class ImplicationSet:
    """Family of implications; item order only matters for ordered evaluation."""

    universe: Universe
    items: tuple[Implication, ...]
    #: compiled closure kernel, filled on first use by ``hornkit.closure``;
    #: not part of the value, so it stays out of eq, hash, repr and pickles
    _compiled: object = field(
        default=None, init=False, compare=False, hash=False, repr=False
    )

    def __post_init__(self) -> None:
        for imp in self.items:
            if imp.universe != self.universe:
                raise UniverseMismatchError("implication outside family universe")

    def __reduce__(self):
        return (type(self), (self.universe, self.items))

    def __len__(self) -> int:
        return len(self.items)

    def __iter__(self) -> Iterator[Implication]:
        return iter(self.items)

    def mask_pairs(self) -> list[tuple[int, int]]:
        return [(imp.premise.mask, imp.conclusion.mask) for imp in self.items]

    def sorted(self) -> ImplicationSet:
        return ImplicationSet(self.universe, tuple(sorted(self.items, key=Implication.key)))

    def as_pair_set(self) -> frozenset[tuple[int, int]]:
        return frozenset((i.premise.mask, i.conclusion.mask) for i in self.items)

    def render(self) -> str:
        return "\n".join(imp.render() for imp in self.items)


@dataclass(frozen=True, slots=True)
class SetFamily:
    """List of attribute sets; used for generating families and hypergraphs."""

    universe: Universe
    sets: tuple[AttrSet, ...]
    #: compiled closure kernel, as on ImplicationSet
    _compiled: object = field(
        default=None, init=False, compare=False, hash=False, repr=False
    )

    def __post_init__(self) -> None:
        for s in self.sets:
            if s.universe != self.universe:
                raise UniverseMismatchError("set outside family universe")

    def __reduce__(self):
        return (type(self), (self.universe, self.sets))

    def __len__(self) -> int:
        return len(self.sets)

    def __iter__(self) -> Iterator[AttrSet]:
        return iter(self.sets)

    def masks(self) -> list[int]:
        return [s.mask for s in self.sets]

    def as_mask_set(self) -> frozenset[int]:
        return frozenset(s.mask for s in self.sets)

    @property
    def is_antichain(self) -> bool:
        ms = self.masks()
        for i, a in enumerate(ms):
            for j, b in enumerate(ms):
                if i != j and a & ~b == 0:
                    return False
        return True

    def canonical(self) -> SetFamily:
        """Deduplicate and sort by cardinality, then lexicographically."""
        uniq = {s.mask: s for s in self.sets}
        return SetFamily(self.universe, tuple(sorted(uniq.values(), key=AttrSet.key)))

    def minimize(self) -> SetFamily:
        """Keep inclusion-minimal members only (canonical order)."""
        return self._from_masks(extreme_masks(self.masks()))

    def maximize(self) -> SetFamily:
        """Keep inclusion-maximal members only (canonical order)."""
        return self._from_masks(extreme_masks(self.masks(), maximal=True))

    def _from_masks(self, masks: list[int]) -> SetFamily:
        u = self.universe
        return SetFamily(u, tuple(AttrSet(u, m) for m in masks)).canonical()

    def render(self) -> str:
        return "\n".join(s.render() or "-" for s in self.sets)


@dataclass(frozen=True, slots=True)
class MeasureReport:
    """Size measures of an implication family."""

    ca: int
    s: int
    lhs: int
    rhs: int

    def __post_init__(self) -> None:
        if self.s != self.lhs + self.rhs:
            raise InvariantError(f"s={self.s} is not lhs+rhs={self.lhs + self.rhs}")


# -- parsing ---------------------------------------------------------------


def _content_lines(text: str) -> Iterator[str]:
    for raw in text.splitlines():
        line = raw.split("#", 1)[0].strip()
        if line:
            yield line


def _body_lines(text: str) -> Iterator[str]:
    """Content lines after an optional leading header; a later header is an
    error rather than a line to skip."""
    for i, line in enumerate(_content_lines(text)):
        if line.startswith(_HEADER):
            if i:
                raise ParseError(f"second {_HEADER!r} header: {line!r}")
            continue
        yield line


def parse_universe(text: str) -> Universe:
    """Read the universe from the first content line: "elements: a b c"."""
    for line in _content_lines(text):
        if not line.startswith(_HEADER):
            raise ParseError(f"expected {_HEADER!r} header, got {line!r}")
        return Universe(line[len(_HEADER):].split())
    raise ParseError("empty universe declaration")


def parse_implication(line: str, universe: Universe) -> Implication:
    if "->" not in line:
        raise ParseError(f"missing '->' in {line!r}")
    left, right = line.split("->", 1)
    return Implication(universe.parse_set(left), universe.parse_set(right))


def parse_implications(text: str, universe: Universe) -> ImplicationSet:
    """Parse one implication per content line, in file order."""
    items = []
    for line in _body_lines(text):
        items.append(parse_implication(line, universe))
    return ImplicationSet(universe, tuple(items))


def parse_family(text: str, universe: Universe) -> SetFamily:
    """Parse one set per content line; "-" denotes the empty set."""
    sets = []
    for line in _body_lines(text):
        sets.append(universe.parse_set(line))
    return SetFamily(universe, tuple(sets))


def load_implications(text: str) -> tuple[Universe, ImplicationSet]:
    """Parse a full implication file: universe header plus implication lines."""
    universe = parse_universe(text)
    return universe, parse_implications(text, universe)


def load_family(text: str) -> tuple[Universe, SetFamily]:
    """Parse a full family file: universe header plus one set per line."""
    universe = parse_universe(text)
    return universe, parse_family(text, universe)


# -- measures and unit form -------------------------------------------------


def measures(sigma: ImplicationSet) -> MeasureReport:
    """ca / s / lhs / rhs counts of a family, exactly as given."""
    lhs = sum(len(imp.premise) for imp in sigma)
    rhs = sum(len(imp.conclusion) for imp in sigma)
    return MeasureReport(ca=len(sigma), s=lhs + rhs, lhs=lhs, rhs=rhs)


def unit_expand(sigma: ImplicationSet) -> ImplicationSet:
    """Replace each A->B by the unit implications A->{b}, premise-major order.

    Implications with empty conclusion vanish.
    """
    u = sigma.universe
    items = []
    for imp in sigma:
        for pos in imp.conclusion:
            items.append(Implication(imp.premise, AttrSet(u, 1 << pos)))
    return ImplicationSet(u, tuple(items))


def aggregate(sigma: ImplicationSet) -> ImplicationSet:
    """Merge implications with identical premises by uniting conclusions."""
    u = sigma.universe
    merged: dict[int, int] = {}
    for imp in sigma:
        p = imp.premise.mask
        merged[p] = merged.get(p, 0) | imp.conclusion.mask
    items = tuple(
        Implication(AttrSet(u, p), AttrSet(u, c)) for p, c in merged.items()
    )
    return ImplicationSet(u, items)


def normalize(sigma: ImplicationSet) -> ImplicationSet:
    """Drop tautologies (conclusion inside premise) and exact duplicates."""
    seen = set()
    items = []
    for imp in sigma:
        if imp.is_tautology():
            continue
        pair = (imp.premise.mask, imp.conclusion.mask)
        if pair in seen:
            continue
        seen.add(pair)
        items.append(imp)
    return ImplicationSet(sigma.universe, tuple(items))
