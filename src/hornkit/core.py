"""Attribute sets over a fixed universe, implications, set families, and
their text format.

Sets are bit-vectors indexed by universe position (a Python int, so
universes beyond 64 elements cost nothing extra), which keeps all the set
algebra in the closure algorithms word-parallel.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, Iterator

from .errors import InvariantError, ParseError, UniverseMismatchError

_HEADER = "elements:"


#: size limit, in elements, of the stem search and quasiclosure, whose work
#: grows exponentially with the set they range over
EXHAUSTIVE_LIMIT = 20


def bits(mask: int) -> Iterator[int]:
    """Positions of the set bits of ``mask``, ascending."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


#: the set positions of each byte value, ascending
_BYTE_BITS = tuple(tuple(bits(b)) for b in range(256))


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

    __slots__ = ("labels", "index", "size", "full_mask", "_text", "_lanes")

    def __init__(self, labels: Iterable[str]):
        labels = tuple(labels)
        if not labels:
            raise ParseError("empty universe declaration")
        index: dict[str, int] = {}
        for pos, lab in enumerate(labels):
            # sets render as labels one space apart, so a label must be one
            # nonempty word; "-" is the empty set, "->" splits implication
            # lines, "#" starts a comment, and a line that starts with the
            # header is read as a header
            if (
                lab.split() != [lab] or lab == "-" or "->" in lab or "#" in lab
                or lab.startswith(_HEADER)
            ):
                raise ParseError(f"illegal label {lab!r}")
            if lab in index:
                raise ParseError(f"duplicate label {lab!r}")
            index[lab] = pos
        self.labels = labels
        self.index = index
        self.size = len(labels)
        self.full_mask = (1 << self.size) - 1
        #: per-chunk text tables of ``text``, made on its first call; not
        #: part of the value, so ``__reduce__`` leaves them out of pickles
        #: and copies, and each entry is written with one fixed text, so
        #: threads may share a universe
        self._text: list[dict[int, str]] | None = None
        #: the lane layout of ``row_lines``, made on its first call, on the
        #: same terms as ``_text``
        self._lanes: tuple | None = None

    def __reduce__(self):
        return (type(self), (self.labels,))

    def __eq__(self, other: object) -> bool:
        return other is self or (
            isinstance(other, Universe) and self.labels == other.labels
        )

    def __hash__(self) -> int:
        return hash(self.labels)

    def __repr__(self) -> str:
        return f"Universe({' '.join(self.labels)})"

    # -- rendering ----------------------------------------------------------

    def text(self, mask: int) -> str:
        """The members of ``mask`` as their labels in position order, one
        space apart; "" for the empty set.

        Each chunk of 8 positions has a table from byte values to text. An
        entry is filled the first time its byte is rendered, so a universe
        that prints a few sets pays for a few entries only.
        """
        tables = self._text
        if tables is None:
            tables = self._text = [{} for _ in range((self.size + 7) // 8)]
        parts = []
        c = 0
        while mask:
            byte = mask & 255
            if byte:
                table = tables[c]
                part = table.get(byte)
                if part is None:
                    base = 8 * c
                    labels = self.labels
                    part = table[byte] = " ".join([labels[base + p] for p in _BYTE_BITS[byte]])
                parts.append(part)
            mask >>= 8
            c += 1
        return " ".join(parts)

    def lines(self, masks: Iterable[int]) -> str:
        """The sets of ``masks``, one line each, as ``parse_set`` reads
        them back: "-" for the empty set."""
        text = self.text
        return "\n".join([text(m) or "-" for m in masks])

    def row_lines(self, rows: Iterable[tuple[int, int, int, tuple[int, ...]]]) -> str:
        """The 012n rows ``(ones, zeros, free, bubbles)``, one line each:
        per position 1 (forced present), 0 (forced absent), 2 (free) or
        the name of its bubble, one space apart. Bubble i is named in
        bijective base 26: a to z, then aa, ab, and so on.

        Each mask is spread to one lane per position, by reading its bit
        string as big-endian characters of one byte (four bytes past 507
        positions). Lane p of a row ends up holding 1 for a forced
        present, 2 for a free position and 3 + i in bubble i, and one
        ``str.translate`` writes the symbols: a row costs a few big-int
        steps per mask, not a step per position.

        Every printed row passes ``check_row``.
        """
        lanes = self._lanes
        if lanes is None:
            lanes = self._lanes = _row_lanes(self.size)
        fmt, enc, dec, nbytes, zero, table = lanes
        spread = int.from_bytes
        lines = []
        for row in rows:
            self.check_row(row)
            ones, _, free, bubbles = row
            # each spread also puts the character "0" in every lane; those
            # characters, weight of them per lane, come off at the end
            code = spread(format(ones, fmt).encode(enc), "big") + 2 * spread(
                format(free, fmt).encode(enc), "big"
            )
            weight = 3
            for c, b in enumerate(bubbles, 3):
                code += c * spread(format(b, fmt).encode(enc), "big")
                weight += c
            text = (code - weight * zero).to_bytes(nbytes, "little").decode(dec, "surrogatepass")
            lines.append(text.translate(table)[:-1])
        return "\n".join(lines)

    def check_row(self, row: tuple[int, int, int, tuple[int, ...]]) -> None:
        """InvariantError unless the masks of the 012n row ``(ones, zeros,
        free, bubbles)`` partition the universe (they cover it, and their sizes
        add up to its size only when no two overlap) and no bubble is a singleton."""
        ones, zeros, free, bubbles = row
        acc = ones | zeros | free
        size = ones.bit_count() + zeros.bit_count() + free.bit_count()
        for b in bubbles:
            k = b.bit_count()
            if k < 2:
                raise InvariantError("a bubble needs at least two positions")
            acc |= b
            size += k
        if acc != self.full_mask or size != self.size:
            raise InvariantError("row masks do not partition the universe")

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


def _bubble_name(i: int) -> str:
    """The name of bubble i in bijective base 26: a..z, aa..az, ba, ..."""
    name = ""
    i += 1
    while i:
        i, r = divmod(i - 1, 26)
        name = chr(ord("a") + r) + name
    return name


def _row_lanes(n: int) -> tuple:
    """The lane layout of ``Universe.row_lines`` at n positions: the bit
    string format, the codecs that spread a bit string to lanes and read
    lanes back as characters, the byte length of a row, the lane integer
    of n "0" characters, and the table from lane values to symbols. A row
    has at most n // 2 bubbles, so its lane values stay below n // 2 + 3,
    and one byte per lane holds them up to 507 positions."""
    enc, dec, width = ("latin-1", "latin-1", 1) if n // 2 + 3 <= 256 else (
        "utf-32-be", "utf-32-le", 4
    )
    table = {0: "0 ", 1: "1 ", 2: "2 "}
    for i in range(n // 2):
        table[3 + i] = _bubble_name(i) + " "
    zero = int.from_bytes(("0" * n).encode(enc), "big")
    return f"0{n}b", enc, dec, width * n, zero, table


def set_text(s: AttrSet) -> str:
    """A set as one line of text, as ``Universe.parse_set`` reads it back:
    "-" for the empty set."""
    return s.universe.lines((s.mask,))


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
        return self.universe.text(self.mask)

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
    #: dict of compiled closure kernels ("row", "column"), filled on first
    #: use by ``hornkit.closure``; not part of the value, so it stays out of
    #: eq, hash, repr and pickles
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

    @classmethod
    def from_pairs(cls, universe: Universe, pairs: Iterable[tuple[int, int]]) -> ImplicationSet:
        """The rules of the ``(premise, conclusion)`` mask pairs, in the
        given order: the inverse of ``mask_pairs``."""
        return cls(universe, tuple(
            Implication(AttrSet(universe, p), AttrSet(universe, c)) for p, c in pairs
        ))

    def mask_pairs(self) -> list[tuple[int, int]]:
        """The ``(premise, conclusion)`` mask pair of each rule, in order."""
        return [(imp.premise.mask, imp.conclusion.mask) for imp in self.items]

    def sorted(self) -> ImplicationSet:
        return ImplicationSet(self.universe, tuple(sorted(self.items, key=Implication.key)))

    def as_pair_set(self) -> frozenset[tuple[int, int]]:
        return frozenset(self.mask_pairs())

    def render(self) -> str:
        return "\n".join(imp.render() for imp in self.items)


@dataclass(frozen=True, slots=True)
class SetFamily:
    """List of attribute sets; used for generating families and hypergraphs."""

    universe: Universe
    sets: tuple[AttrSet, ...]
    #: dict holding the family's one closure kernel, as on ImplicationSet
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

    @classmethod
    def from_masks(cls, universe: Universe, masks: Iterable[int]) -> SetFamily:
        """The family of the distinct masks, sorted by ``AttrSet.key``."""
        sets = sorted([AttrSet(universe, m) for m in set(masks)], key=AttrSet.key)
        return cls(universe, tuple(sets))

    def minimize(self) -> SetFamily:
        """Keep inclusion-minimal members only (canonical order)."""
        return SetFamily.from_masks(self.universe, extreme_masks(self.masks()))

    def maximize(self) -> SetFamily:
        """Keep inclusion-maximal members only (canonical order)."""
        return SetFamily.from_masks(self.universe, extreme_masks(self.masks(), maximal=True))

    def render(self) -> str:
        return self.universe.lines(self.masks())


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
    pairs = sigma.mask_pairs()
    lhs = sum(p.bit_count() for p, _ in pairs)
    rhs = sum(c.bit_count() for _, c in pairs)
    return MeasureReport(ca=len(pairs), s=lhs + rhs, lhs=lhs, rhs=rhs)


def unit_expand(sigma: ImplicationSet) -> ImplicationSet:
    """Replace each A->B by the unit implications A->{b}, premise-major order.

    Implications with empty conclusion vanish.
    """
    units = [(p, 1 << e) for p, c in sigma.mask_pairs() for e in bits(c)]
    return ImplicationSet.from_pairs(sigma.universe, units)


def aggregate(sigma: ImplicationSet) -> ImplicationSet:
    """Merge implications with identical premises by uniting conclusions,
    in the order the premises first occur."""
    merged: dict[int, int] = {}
    for p, c in sigma.mask_pairs():
        merged[p] = merged.get(p, 0) | c
    return ImplicationSet.from_pairs(sigma.universe, merged.items())


def normalize(sigma: ImplicationSet) -> ImplicationSet:
    """Drop tautologies (conclusion inside premise) and exact duplicates;
    the first occurrence of each rule stays, in order."""
    kept = dict.fromkeys((p, c) for p, c in sigma.mask_pairs() if c & ~p)
    return ImplicationSet.from_pairs(sigma.universe, kept)
