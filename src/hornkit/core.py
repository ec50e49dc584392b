"""Attribute sets over a fixed universe, implications, set families, and
their text format.

Sets are bit-vectors indexed by universe position (a Python int, so
universes beyond 64 elements cost nothing extra), which keeps all the set
algebra in the closure algorithms word-parallel. Rule sets hold mask
pairs and families hold masks: parsing maps labels straight to bits (one
table lookup per label, see ``Universe._bit_table``), and
``Implication`` and ``AttrSet`` objects are built only when asked for.

The package's value types, ``Universe`` aside, are plain ``__slots__``
classes on one frozen base, ``_Value``: eq, hash, repr and pickling over
their fields, and instances that refuse assignment. ``ImplicationSet``,
``SetFamily`` and ``direct.OrderedBase`` extend it through ``_MaskTuple``,
whose value is its masks. Each class writes its own ``__init__``
(``AttrSet`` and ``Implication`` also eq and hash), so nothing is generated
at import and the CLI loads no ``dataclasses``.

Every value lives over one ``Universe``, and the universe holds the
contract: ``Universe._check`` refuses values over another universe,
``Universe._check_mask`` a mask with members outside it, and
``Universe._check_position`` a position outside it, each with
``UniverseMismatchError``. The library's refusals all go through them,
except ``primes.ImplicationGraph``'s check of its successor tuple; the
CLI refuses a second input file over another universe in its own words.
"""

from __future__ import annotations

from functools import lru_cache
from itertools import chain, groupby, islice
from typing import Callable, Iterable, Iterator

from .errors import HornkitError, InvariantError, ParseError, UniverseMismatchError

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


def _check_labels(labels: tuple[str, ...]) -> None:
    """ParseError for the first label, in order, that breaks a rule of
    ``Universe``: the label itself, else a repeat of an earlier label."""
    seen = set()
    for lab in labels:
        # sets render as labels one space apart, so a label must be one
        # nonempty word; "-" is the empty set, "->" splits implication
        # lines, "#" starts a comment, and a line that starts with the
        # header is read as a header
        if (
            lab.split() != [lab] or lab == "-" or "->" in lab or "#" in lab
            or lab.startswith(_HEADER)
        ):
            raise ParseError(f"illegal label {lab!r}")
        if lab in seen:
            raise ParseError(f"duplicate label {lab!r}")
        seen.add(lab)


class Universe:
    """Ordered set of attribute labels; positions are stable 0..size-1."""

    __slots__ = ("labels", "index", "size", "full_mask", "_text", "_bits")

    def __init__(self, labels: Iterable[str]):
        labels = tuple(labels)
        if not labels:
            raise ParseError("empty universe declaration")
        index = dict(zip(labels, range(len(labels))))
        # the rules of ``_check_labels``, each one test over all labels: the
        # labels are distinct, each is one word (then the words of their
        # join are the labels), none is "-", and none holds "->" or "#" or
        # starts with the header (each label follows a space in " " + join)
        try:
            joined = " " + " ".join(labels)
        except TypeError:  # a label that is no string
            joined = ""
        if (
            len(index) != len(labels) or joined.split() != list(labels) or "-" in index
            or "->" in joined or "#" in joined or " " + _HEADER in joined
        ):
            _check_labels(labels)
        self.labels = labels
        self.index = index
        self.size = len(labels)
        self.full_mask = (1 << self.size) - 1
        #: the chunk text tables of ``text`` and ``lines`` (see
        #: ``_text_tables``), made on the first call; not part of the value,
        #: so ``__reduce__`` leaves them out of pickles and copies, and each
        #: entry is written with one fixed text, so threads may share a
        #: universe
        self._text: list[_TextTable] | None = None
        #: label -> one-bit mask (see ``_bit_table``), made on first use and,
        #: like ``_text``, not part of the value
        self._bits: dict[str, int] | None = None

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

        A set is cut into chunks of positions, and each chunk's text is
        one lookup in its table (see ``_text_tables``). Up to 24 positions
        there are two chunks, the lower and the upper half, so a set costs
        two lookups and one concatenation; above that, a set is read byte
        by byte.
        """
        tables = self._text or self._text_tables()
        if len(tables) == 2:
            lo, hi = tables
            cut = hi.base
            return (lo[mask & (1 << cut) - 1] + hi[mask >> cut])[1:]
        return "".join(map(_entry, tables, mask.to_bytes(len(tables), "little")))[1:]

    def lines(self, masks: Iterable[int]) -> str:
        """The sets of ``masks``, one line each, as ``parse_set`` reads
        them back: "-" for the empty set.

        The table lookups of ``text`` are written out in the comprehension,
        so a set costs no call of its own.
        """
        tables = self._text or self._text_tables()
        if len(tables) == 2:
            lo, hi = tables
            cut = hi.base
            low = (1 << cut) - 1
            return "\n".join([(lo[m & low] + hi[m >> cut])[1:] or "-" for m in masks])
        nbytes = len(tables)
        return "\n".join([
            "".join(map(_entry, tables, m.to_bytes(nbytes, "little")))[1:] or "-"
            for m in masks
        ])

    def _text_tables(self) -> list[_TextTable]:
        """The chunk tables of ``text`` and ``lines``, made once. The chunk
        width follows from the universe size n: up to 24 positions, two
        tables, over the lower ceil(n/2) positions and the rest, with at
        most 4,096 entries each (the upper one of a one-position universe
        holds the empty chunk only); above that, one table per 8 positions,
        with at most 256 entries each. ``int.to_bytes`` cuts a set into
        bytes in one step and ``map`` reads their tables, so a wide set
        costs no Python loop over its chunks."""
        n = self.size
        width = (n + 1) // 2 if n <= 24 else 8
        tables = self._text = [_TextTable(self.labels, b) for b in range(0, max(n, 2), width)]
        return tables

    def row_lines(self, rows: Iterable[tuple[int, int, int, tuple[int, ...]]]) -> str:
        """The 012n rows ``(ones, zeros, free, bubbles)``, one line each:
        per position 1 (forced present), 0 (forced absent), 2 (free) or
        the name of its bubble, one space apart. Bubble i is named in
        bijective base 26: a to z, then aa, ab, and so on.

        Rows are rendered a block at a time (see ``_row_layout``). Each
        mask kind of a block (ones, zeros, free, and bubble slot j, 0 where
        a row has no j-th bubble) is written as one string of bit strings,
        read as one integer with a lane of 16 bits per position (32 past
        319 positions). Lane sums do the rest: relative to the "0" lanes,
        ones + 2 free + (49 + j) bubble j is the symbol in the low half of
        each lane, a constant puts " " or, at a row's last position, "\n"
        in the high half, and the block's text is the integer's bytes,
        decoded once. Names past z are written by one ``str.translate``
        per block. Each block is first cut into runs (``_slot_run``), each
        written as a block of its own: rows of up to ``_ROW_SLOTS`` (8)
        bubbles share a run, so such a block is one run, and a wider row
        spreads its bubble slots over its own run, not the whole block.

        Each block or run is checked as ``rows.Row012n`` checks one row:
        every mask is nonnegative and inside the universe (no "-" in a bit
        string, and each is n long), every bubble has two positions or
        more, and the lane sum of all kinds is 1 at every position, so
        the masks of each row partition the universe. Else InvariantError.
        """
        n = self.size
        layout = _row_layout(n)
        rows = iter(rows)
        texts = []
        while block := list(islice(rows, layout[0])):
            texts += [_row_text(n, layout, list(run)) for _, run in groupby(block, _slot_run)]
        if texts:
            texts[-1] = texts[-1][:-1]  # the last row ends the text
        return "".join(texts)

    # -- the universe contract --------------------------------------------

    def _check(self, *values) -> None:
        """UniverseMismatchError unless each value's ``universe`` is this one."""
        for v in values:
            u = v.universe
            if u is not self and u != self:
                raise UniverseMismatchError(f"{type(v).__name__} over another universe")

    def _check_mask(self, mask: int) -> None:
        """UniverseMismatchError unless ``mask`` is a nonnegative mask of
        positions inside this universe."""
        if mask & ~self.full_mask:
            raise UniverseMismatchError("set has members outside its universe")

    def _check_position(self, pos: int) -> None:
        """UniverseMismatchError unless ``pos`` is a position of this universe."""
        if not 0 <= pos < self.size:
            raise UniverseMismatchError(f"element position {pos} outside universe")

    # -- set construction -------------------------------------------------

    def _bit_table(self) -> dict[str, int]:
        """Label -> one-bit mask, made once: every parser turns labels into
        bits through this table, one lookup and one OR per label. Each
        entry is written once, before the table is shared, so threads may
        share a universe."""
        table = self._bits = {lab: 1 << pos for pos, lab in enumerate(self.labels)}
        return table

    def _mask(self, labels: Iterable[str]) -> int:
        """The mask of a label list, through ``_bit_table``."""
        table = self._bits or self._bit_table()
        mask = 0
        for lab in labels:
            try:
                mask |= table[lab]
            except KeyError:
                raise ParseError(f"unknown label {lab!r}") from None
        return mask

    def _parse_mask(self, text: str) -> int:
        """The mask of a whitespace-separated label list; "-" alone is the
        empty set, and a "-" among labels is an unknown label."""
        tokens = text.split()
        return 0 if tokens == ["-"] else self._mask(tokens)

    def _parse_rule(self, line: str) -> tuple[int, int]:
        """The ``(premise, conclusion)`` masks of one implication line."""
        left, arrow, right = line.partition("->")
        if not arrow:
            raise ParseError(f"missing '->' in {line!r}")
        return self._parse_mask(left), self._parse_mask(right)

    def set_of(self, labels: Iterable[str]) -> AttrSet:
        return AttrSet(self, self._mask(labels))

    def from_mask(self, mask: int) -> AttrSet:
        return AttrSet(self, mask)

    def empty(self) -> AttrSet:
        return AttrSet(self, 0)

    def full(self) -> AttrSet:
        return AttrSet(self, self.full_mask)

    def parse_set(self, text: str) -> AttrSet:
        """Parse a whitespace-separated label list; "-" denotes the empty set."""
        return AttrSet(self, self._parse_mask(text))


def _bubble_name(i: int) -> str:
    """The name of bubble i in bijective base 26: a..z, aa..az, ba, ..."""
    name = ""
    i += 1
    while i:
        i, r = divmod(i - 1, 26)
        name = chr(ord("a") + r) + name
    return name


class _TextTable(dict):
    """The text of each value of one chunk of positions, starting at
    ``base``: the labels of its members, each after one space, so the
    chunks of a set concatenate to its text with one space in front. An
    entry is made the first time its value is read, from the entry
    without its top member, so a universe that prints a few sets pays for
    a few entries only."""

    __slots__ = ("labels", "base")

    def __init__(self, labels: tuple[str, ...], base: int):
        super().__init__({0: ""})
        self.labels = labels
        self.base = base

    def __missing__(self, chunk: int) -> str:
        top = chunk.bit_length() - 1
        text = self[chunk] = self[chunk ^ 1 << top] + " " + self.labels[self.base + top]
        return text


#: a table entry, read with ``__missing__``; ``map`` calls it once per chunk
_entry = dict.__getitem__


#: the most rows ``Universe.row_lines`` renders at once, and the most
#: positions in one block of them, so that a block's lane integers stay
#: within 256 KB however wide the universe
_ROW_BLOCK = 1024
_ROW_BLOCK_LANES = 1 << 16


@lru_cache(maxsize=8)
def _row_layout(n: int) -> tuple:
    """The lane layout of ``Universe.row_lines`` at n positions: the rows
    of a full block, the bit string format, the codecs that spread a bit
    string to lanes and read lanes back as text, the bytes per lane, and
    two constants of a full block, one 1 per lane and the separators.

    A lane holds a symbol in its low half and a separator in its high
    half. Bubble j (from 0) takes the value 97 + j: a letter up to z,
    else a character that ``str.translate`` replaces by the name. A row
    has at most n // 2 bubbles, so one byte per half holds the symbol up
    to 319 positions (latin-1 then reads each byte as a character) and two
    bytes (read as UTF-16) past that."""
    rows = min(_ROW_BLOCK, max(1, _ROW_BLOCK_LANES // n))
    enc, dec, width = ("utf-16-be", "latin-1", 2) if n // 2 < 160 else (
        "utf-32-be", "utf-16-le", 4
    )

    def lanes(text: str) -> int:
        return int.from_bytes(text.encode(enc), "big")

    unit = lanes("\1" * (rows * n))
    # a row's bit string starts at its last position
    ends = lanes(("\1" + "\0" * (n - 1)) * rows)
    sep = (ord(" ") * unit + (ord("\n") - ord(" ")) * ends) << 4 * width
    return rows, f"0{n}b", enc, dec, width, unit, sep


#: the most bubble slots a block of ``Universe.row_lines`` spreads over all
#: its rows; a wider row is cut into a run of its own (``_slot_run``)
_ROW_SLOTS = 8


def _slot_run(row: tuple[int, int, int, tuple[int, ...]]) -> int:
    """The run key of a row in a block of ``Universe.row_lines``: rows of
    up to ``_ROW_SLOTS`` bubbles share a run, and a wider row starts one,
    shared only by the rows right after it with as many bubbles."""
    return max(_ROW_SLOTS, len(row[3]))


def _row_text(n: int, layout: tuple, block: list) -> str:
    """The text of a block of at most ``layout[0]`` rows of
    ``Universe.row_lines``, each row ending with a newline, after the
    block's check; block is reversed in place."""
    most, fmt, enc, dec, width, unit_full, sep_full = layout
    pad = "0" * n
    r = len(block)
    # the constants of a short block are the low lanes of a full one
    cut = 8 * width * n * (most - r)
    unit, sep = unit_full >> cut, sep_full >> cut
    block.reverse()  # the first row goes to the lowest lanes
    bubbles = [row[3] for row in block]
    slots = max(map(len, bubbles))
    if min(map(int.bit_count, chain.from_iterable(bubbles)), default=2) < 2:
        raise InvariantError("a bubble needs at least two positions")
    # n // 2 disjoint bubbles at most; refusing more also keeps every
    # lane sum below the lane's size, so the sum test below is exact
    if slots > n // 2:
        raise InvariantError("row masks do not partition the universe")
    if 96 + slots > 0xFFFF:
        raise HornkitError("a row of over 65,439 bubbles cannot be printed")
    coefs = (1, 0, 2, *range(49, 49 + slots))
    kinds = chain(
        ("".join([format(row[k], fmt) for row in block]) for k in (0, 1, 2)),
        ("".join([format(b[j], fmt) if len(b) > j else pad for b in bubbles])
         for j in range(slots)),
    )
    total = code = 0
    for c, text in zip(coefs, kinds):
        if "-" in text:
            raise InvariantError("a row mask is negative")
        if len(text) != r * n:
            raise InvariantError("row masks do not partition the universe")
        spread = int.from_bytes(text.encode(enc), "big")
        total += spread
        code += c * spread
    # each kind put the character "0" (48) in every lane; the code keeps
    # one of them: "0" + 1 is "1", "0" + 49 + j is "a" + j
    if total != (48 * len(coefs) + 1) * unit:
        raise InvariantError("row masks do not partition the universe")
    code += sep - 48 * (sum(coefs) - 1) * unit
    text = code.to_bytes(width * r * n, "little").decode(dec, "surrogatepass")
    if slots > 26:
        text = text.translate({97 + j: _bubble_name(j) for j in range(26, slots)})
    return text


def set_text(s: AttrSet) -> str:
    """A set as one line of text, as ``Universe.parse_set`` reads it back:
    "-" for the empty set."""
    return s.universe.lines((s.mask,))


def _set_key(mask: int) -> tuple[int, tuple[int, ...]]:
    """Canonical sort key of a set: cardinality, then positions lexicographically."""
    return (mask.bit_count(), tuple(bits(mask)))


_set = object.__setattr__


def _frozen(text: str) -> Exception:
    # imported here, on the raising path only: ``dataclasses`` pulls in
    # ``inspect`` and ``ast``, a sizeable share of the CLI's start-up
    from dataclasses import FrozenInstanceError

    return FrozenInstanceError(text)


class _Value:
    """A frozen value: the slots named by ``_fields``, set once by the
    subclass's ``__init__`` through ``object.__setattr__``.

    Eq and hash compare the field tuple of two instances of one class
    (``NotImplemented`` against any other class), repr shows the fields as
    ``Name(field=value, ...)``, pickles and copies rebuild the value through
    ``__init__``, ``__match_args__`` lists the fields, and assignment and
    deletion raise ``dataclasses.FrozenInstanceError``.
    """

    __slots__ = ()
    _fields: tuple[str, ...] = ()

    def __init_subclass__(cls) -> None:
        cls.__match_args__ = cls._fields

    def _init(self, *values) -> None:
        for name, value in zip(self._fields, values):
            _set(self, name, value)

    def _values(self) -> tuple:
        """What eq, hash and pickles read: the fields, in order."""
        return tuple([getattr(self, name) for name in self._fields])

    def __setattr__(self, name: str, value: object) -> None:
        raise _frozen(f"cannot assign to field {name!r}")

    def __delattr__(self, name: str) -> None:
        raise _frozen(f"cannot delete field {name!r}")

    def __eq__(self, other: object) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._values() == other._values()

    def __hash__(self) -> int:
        return hash(self._values())

    def __reduce__(self):
        return (type(self), self._values())

    def __repr__(self) -> str:
        fields = ", ".join([f"{name}={getattr(self, name)!r}" for name in self._fields])
        return f"{type(self).__qualname__}({fields})"


class AttrSet(_Value):
    """Subset of a universe, equal iff same universe and same members."""

    __slots__ = _fields = ("universe", "mask")

    def __init__(self, universe: Universe, mask: int):
        universe._check_mask(mask)
        _set(self, "universe", universe)
        _set(self, "mask", mask)

    def __eq__(self, other: object) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self.mask == other.mask and (
            self.universe is other.universe or self.universe == other.universe
        )

    def __hash__(self) -> int:
        # the hash of (universe, mask), as hash(universe) is hash(labels),
        # without a call into Universe.__hash__
        return hash((self.universe.labels, self.mask))

    def __len__(self) -> int:
        return self.mask.bit_count()

    def __iter__(self) -> Iterator[int]:
        return bits(self.mask)

    def __contains__(self, pos: int) -> bool:
        return pos >= 0 and bool(self.mask >> pos & 1)

    def __or__(self, other: AttrSet) -> AttrSet:
        return AttrSet(self.universe, self.mask | self._mate(other))

    def __and__(self, other: AttrSet) -> AttrSet:
        return AttrSet(self.universe, self.mask & self._mate(other))

    def __sub__(self, other: AttrSet) -> AttrSet:
        return AttrSet(self.universe, self.mask & ~self._mate(other))

    def _mate(self, other: AttrSet) -> int:
        self.universe._check(other)
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
        return _set_key(self.mask)

    def render(self) -> str:
        return self.universe.text(self.mask)

    def __repr__(self) -> str:
        return f"{{{self.render()}}}"


class Implication(_Value):
    """Premise/conclusion pair; either side may be empty."""

    __slots__ = _fields = ("premise", "conclusion")

    def __init__(self, premise: AttrSet, conclusion: AttrSet):
        premise.universe._check(conclusion)
        _set(self, "premise", premise)
        _set(self, "conclusion", conclusion)

    def __eq__(self, other: object) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self.premise == other.premise and self.conclusion == other.conclusion

    def __hash__(self) -> int:
        return hash((self.premise, self.conclusion))

    @property
    def universe(self) -> Universe:
        return self.premise.universe

    def is_tautology(self) -> bool:
        return self.conclusion.issubset(self.premise)

    def key(self):
        return _pair_key((self.premise.mask, self.conclusion.mask))

    def render(self) -> str:
        return f"{self.premise.render()} -> {self.conclusion.render()}".strip()

    def __repr__(self) -> str:
        return f"({self.render()})"


def _pair_key(pair: tuple[int, int]) -> tuple:
    """``Implication.key`` of a ``(premise, conclusion)`` mask pair."""
    return (_set_key(pair[0]), _set_key(pair[1]))


def _implication(universe: Universe, pair: tuple[int, int]) -> Implication:
    return Implication(AttrSet(universe, pair[0]), AttrSet(universe, pair[1]))


class _MaskTuple(_Value):
    """A frozen value over one universe whose value is one tuple ``_masks``
    of masks (a family) or mask pairs (a rule set), in the given order:
    eq, hash, pickles and every mask query read the masks. The objects
    (``AttrSet``s or ``Implication``s, the field that repr shows beside
    the universe) are built on first read or iteration, then kept; an
    instance made from objects keeps them."""

    __slots__ = ("universe", "_masks", "_objects", "_compiled")

    universe: Universe
    #: the value objects, or None until first asked for
    _objects: tuple | None
    #: dict of closure kernels, filled on first use by ``closure._kernel``
    #: ("row", "column" and "lin" for rules, "family" for a family); not
    #: part of the value, so it stays out of eq, hash, repr and pickles
    _compiled: dict | None
    #: the objects' builder from (universe, entry)
    _object: Callable

    def _fill(self, universe: Universe, masks: tuple, objects: tuple | None):
        _set(self, "universe", universe)
        _set(self, "_masks", masks)
        _set(self, "_objects", objects)
        _set(self, "_compiled", None)
        return self

    @classmethod
    def _of(cls, universe: Universe, masks: tuple, objects: tuple | None = None):
        """An instance holding masks already known to lie in the universe."""
        return cls.__new__(cls)._fill(universe, masks, objects)

    def _kept(self) -> tuple:
        objects = self._objects
        if objects is None:
            objects = tuple([self._object(self.universe, m) for m in self._masks])
            _set(self, "_objects", objects)
        return objects

    def _values(self) -> tuple:
        return (self.universe, self._masks)

    def __reduce__(self):
        return (self._of, self._values())

    def __len__(self) -> int:
        return len(self._masks)

    def __iter__(self) -> Iterator:
        return iter(self._kept())


class ImplicationSet(_MaskTuple):
    """Family of implications, held as ``(premise, conclusion)`` mask pairs;
    item order only matters for ordered evaluation."""

    __slots__ = ()
    _fields = ("universe", "items")
    _object = staticmethod(_implication)
    items = property(_MaskTuple._kept, doc="The rules as ``Implication``s, built on first use.")

    def __init__(self, universe: Universe, items: Iterable[Implication]):
        items = tuple(items)
        universe._check(*items)
        self._fill(universe, tuple([(i.premise.mask, i.conclusion.mask) for i in items]), items)

    @classmethod
    def from_pairs(cls, universe: Universe, pairs: Iterable[tuple[int, int]]) -> ImplicationSet:
        """The rules of the ``(premise, conclusion)`` mask pairs, in the
        given order: the inverse of ``mask_pairs``."""
        pairs = tuple(pairs)
        every = 0
        for p, c in pairs:
            every |= p | c
        universe._check_mask(every)
        return cls._of(universe, pairs)

    def _select(self, indices: Iterable[int]) -> ImplicationSet:
        """The rules at ``indices``, in that order; the ``Implication``
        objects come along when they were already built."""
        indices = list(indices)
        pairs, items = self._masks, self._objects
        if items is not None:
            items = tuple([items[i] for i in indices])
        return self._of(self.universe, tuple([pairs[i] for i in indices]), items)

    def mask_pairs(self) -> list[tuple[int, int]]:
        """The ``(premise, conclusion)`` mask pair of each rule, in order."""
        return list(self._masks)

    def sorted(self) -> ImplicationSet:
        """The rules in ``Implication.key`` order."""
        pairs = self._masks
        return self._select(sorted(range(len(pairs)), key=lambda i: _pair_key(pairs[i])))

    def as_pair_set(self) -> frozenset[tuple[int, int]]:
        return frozenset(self._masks)

    def render(self) -> str:
        text = self.universe.text
        return "\n".join([f"{text(p)} -> {text(c)}".strip() for p, c in self._masks])


class SetFamily(_MaskTuple):
    """List of attribute sets, held as masks in the given order, duplicates
    kept; used for generating families and hypergraphs."""

    __slots__ = ()
    _fields = ("universe", "sets")
    _object = AttrSet
    sets = property(_MaskTuple._kept, doc="The members as ``AttrSet``s, built on first use.")

    def __init__(self, universe: Universe, sets: Iterable[AttrSet]):
        sets = tuple(sets)
        universe._check(*sets)
        self._fill(universe, tuple([s.mask for s in sets]), sets)

    @classmethod
    def from_masks(cls, universe: Universe, masks: Iterable[int]) -> SetFamily:
        """The family of the distinct masks, sorted by ``AttrSet.key``."""
        masks = set(masks)
        if masks:
            # some mask is negative or reaches past the universe iff the
            # OR of the least and the greatest one does
            universe._check_mask(min(masks) | max(masks))
        return cls._of(universe, tuple(sorted(masks, key=_set_key)))

    def masks(self) -> list[int]:
        return list(self._masks)

    def as_mask_set(self) -> frozenset[int]:
        return frozenset(self._masks)

    @property
    def is_antichain(self) -> bool:
        return len(extreme_masks(self._masks)) == len(self._masks)

    def minimize(self) -> SetFamily:
        """Keep inclusion-minimal members only (canonical order)."""
        return self.from_masks(self.universe, extreme_masks(self._masks))

    def maximize(self) -> SetFamily:
        """Keep inclusion-maximal members only (canonical order)."""
        return self.from_masks(self.universe, extreme_masks(self._masks, maximal=True))

    def render(self) -> str:
        return self.universe.lines(self._masks)


class MeasureReport(_Value):
    """Size measures of an implication family."""

    __slots__ = _fields = ("ca", "s", "lhs", "rhs")

    def __init__(self, ca: int, s: int, lhs: int, rhs: int):
        if s != lhs + rhs:
            raise InvariantError(f"s={s} is not lhs+rhs={lhs + rhs}")
        self._init(ca, s, lhs, rhs)


# -- parsing ---------------------------------------------------------------
#
# A loader splits its text into lines once: ``parse_universe`` splits only
# the lines up to the header, and ``parse_implications`` or ``parse_family``
# split the whole text and drop a leading header. A body line's labels are mapped through ``Universe._bit_table`` in the
# parser's own loop; a line that loop cannot map (a "-" side, an unknown
# label, no "->", or a header) is read again by ``_reread``, which gives its
# value or its ParseError, so the first bad line still raises first.


def _body_lines(text: str) -> list[str]:
    """The content lines of ``text`` (comments cut, whitespace stripped,
    blank lines dropped), after an optional leading header."""
    lines = [line for raw in text.splitlines() if (line := raw.partition("#")[0].strip())]
    if lines and lines[0].startswith(_HEADER):
        del lines[0]
    return lines


def _reread(line: str, read: Callable[[str], object]):
    """``read(line)`` of a body line the parser's loop could not map: the
    value of a line with a "-" side, else the line's ParseError. A header
    lands here, as no label starts with the header, and is a second one."""
    if line.startswith(_HEADER):
        raise ParseError(f"second {_HEADER!r} header: {line!r}")
    return read(line)


def parse_universe(text: str) -> Universe:
    """Read the universe from the first content line: "elements: a b c".

    Only the lines up to it are split: the text is read one piece at a
    time, each ending just after a newline character, and no line break
    of ``str.splitlines`` spans the end of such a piece."""
    start, end = 0, len(text)
    while start < end:
        stop = text.find("\n", start) + 1 or end
        for raw in text[start:stop].splitlines():
            line = raw.partition("#")[0].strip()
            if line:
                if not line.startswith(_HEADER):
                    raise ParseError(f"expected {_HEADER!r} header, got {line!r}")
                return Universe(line[len(_HEADER):].split())
        start = stop
    raise ParseError("empty universe declaration")


def parse_implication(line: str, universe: Universe) -> Implication:
    return _implication(universe, universe._parse_rule(line))


def parse_implications(text: str, universe: Universe) -> ImplicationSet:
    """Parse one implication per content line, in file order."""
    table = universe._bits or universe._bit_table()
    pairs = []
    for line in _body_lines(text):
        left, arrow, right = line.partition("->")
        p = c = 0
        try:
            for lab in left.split():
                p |= table[lab]
            for lab in right.split():
                c |= table[lab]
        except KeyError:
            arrow = ""
        if not arrow:
            p, c = _reread(line, universe._parse_rule)
        pairs.append((p, c))
    return ImplicationSet._of(universe, tuple(pairs))


def parse_family(text: str, universe: Universe) -> SetFamily:
    """Parse one set per content line; "-" denotes the empty set."""
    table = universe._bits or universe._bit_table()
    masks = []
    for line in _body_lines(text):
        mask = 0
        try:
            for lab in line.split():
                mask |= table[lab]
        except KeyError:
            mask = _reread(line, universe._parse_mask)
        masks.append(mask)
    return SetFamily._of(universe, tuple(masks))


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
