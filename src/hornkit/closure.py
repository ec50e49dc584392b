"""Forward-chaining closure, family-intersection closure, quasiclosure,
semantic consequence, and every engine that lists closed sets: the 012n
row engine (the closed sets of Σ, or the models of Σ plus complications,
as disjoint rows) and the lectic listings read off those rows or made by
NextClosure, with the bit order and text of a listing (``lectic_lines``).
LinClosure gives every closure of an implication family; the row-wise
rounds serve ``step``, ``is_closed``, ``close_trace`` and the "row"
cross-check.

This module imports only ``core`` and ``errors``. ``rows`` wraps the row
engine in its public ``Row012n``/``RowSystem`` values, and ``dualize``
reads max(F,e) off the same rows.
"""

from __future__ import annotations

from collections import defaultdict
from functools import partial
from itertools import chain
from typing import Callable, Iterable, Iterator, Union

from .core import (
    EXHAUSTIVE_LIMIT,
    AttrSet,
    ImplicationSet,
    Implication,
    SetFamily,
    Universe,
    _Value,
    bits,
    submasks,
)
from .errors import BoundExceededError

ClosureSource = Union[ImplicationSet, SetFamily, "Closure"]

Pairs = list[tuple[int, int]]
# (occ, unit, need, concs, axioms), as ``_columns`` builds them
Columns = tuple[list[list[int]], list[int], Union[bytearray, list[int]], list[int], int]


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
    Bernstein 1979), or a set inside it that holds stop: a membership
    test, stop ⊆ c(mask), passes stop as the target and reads the answer
    off ``stop & ~result == 0``; a closure passes stop = E.

    The positions join in layers, and each position is visited once, when
    its layer is taken: the rules with the one-element premise {p} fire
    when p is visited, through unit[p], and a longer premise fires when
    its last position is visited, when its counter in ``left`` reaches 0.
    The counters are one copy of need per call (one memcpy for a
    bytearray), so the compiled cols are never written. The conclusions
    of the rules that fire in a layer are united into one mask, and its
    positions not yet closed make the next layer. The loop returns before
    a layer once the set holds stop; cols is (occ, unit, need, concs,
    axioms), as ``_columns`` builds it.
    """
    occ, unit, need, concs, axioms = cols
    left = need[:]
    closed = mask | axioms
    todo = closed
    while todo:
        if closed & stop == stop:
            return closed
        new = 0
        while todo:
            low = todo & -todo
            todo ^= low
            p = low.bit_length() - 1
            u = unit[p]
            if u:
                new |= u
            for i in occ[p]:
                c = left[i] - 1
                left[i] = c
                if not c:
                    new |= concs[i]
        todo = new & ~closed
        closed |= todo
    return closed


def _columns(sigma: ImplicationSet) -> Columns:
    """The compiled rules that ``_close_columnwise`` reads: (occ, unit,
    need, concs, axioms).

    Rule i has conclusion concs[i] and premise size need[i]. axioms unites
    the conclusions of the empty-premise rules, and unit[p] those of the
    rules whose premise is {p}. occ[p] lists the rules whose premise holds
    p and at least one more position: only they need a counter.

    need is a bytearray on a universe of 256 or more positions, where a
    call often stops after a small share of the positions: copying it is
    one memcpy, where copying a list takes a reference to every counter.
    On a smaller universe a call visits a large share of it, and list
    counters, which CPython reads and writes faster, repay their copy;
    need is a list there, and also when a premise has 256 or more
    positions, which a byte cannot count.
    """
    n = sigma.universe.size
    pairs = sigma.mask_pairs()
    occ: list[list[int]] = [[] for _ in range(n)]
    unit = [0] * n
    axioms = 0
    for i, (prem, conc) in enumerate(pairs):
        if prem & (prem - 1):
            while prem:
                low = prem & -prem
                occ[low.bit_length() - 1].append(i)
                prem ^= low
        elif prem:
            unit[prem.bit_length() - 1] |= conc
        else:
            axioms |= conc
    counts = [prem.bit_count() for prem, _ in pairs]
    need = bytearray(counts) if n >= 256 and max(counts, default=0) < 256 else counts
    return occ, unit, need, [conc for _, conc in pairs], axioms


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


_COMPILERS: dict[str, Callable[..., Callable[..., int]]] = {
    "row": lambda sigma: partial(_close_rowwise, sigma.mask_pairs()),
    # LinClosure compiled once, called as (stop, mask); the "column"
    # kernel binds stop = E, and partial flattens the two into one call
    "lin": lambda sigma: partial(_close_columnwise, _columns(sigma)),
    "column": lambda sigma: partial(_kernel(sigma, "lin"), sigma.universe.full_mask),
    "family": _compile_family,
}


def _kernel(source: ImplicationSet | SetFamily, key: str) -> Callable[..., int]:
    """The source's kernel of kind key, compiled on first use: a closure
    mask -> mask, or for "lin" LinClosure as (stop, mask).

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
        self.universe._check(s)
        return AttrSet(self.universe, self.of_mask(s.mask))

    @classmethod
    def from_sigma(cls, sigma: ImplicationSet, layout: str = "column") -> Closure:
        """Closure under sigma, evaluated column-wise by LinClosure
        ("column", the default: a query touches only the rules whose
        premises meet the positions it adds, unites the conclusions that
        fire in one layer into one mask, and stops at E) or row-wise ("row",
        the cross-check). Both give the same sets; ValueError otherwise.
        The column kernel shares its compiled rules with ``entails``,
        ``equivalent`` and ``primes.is_prime_implicate``, so an operator made
        after them compiles nothing new."""
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


class ClosureTrace(_Value):
    """The chain S, S', S'', ... ending with the repeated fixpoint."""

    __slots__ = _fields = ("rounds",)

    def __init__(self, rounds: tuple[AttrSet, ...]):
        self._init(rounds)

    @property
    def closure(self) -> AttrSet:
        return self.rounds[-1]


def _set_rounds(sigma: ImplicationSet, s: AttrSet) -> Iterator[int]:
    sigma.universe._check(s)
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
    """True iff the conclusion of query lies in the closure of its premise.

    A membership test: LinClosure runs from the premise only until the
    set holds the conclusion, and to the fixpoint when it never does.
    """
    sigma.universe._check(query)
    target = query.conclusion.mask
    return target & ~_kernel(sigma, "lin")(target, query.premise.mask) == 0


def equivalent(sigma1: ImplicationSet, sigma2: ImplicationSet) -> bool:
    """True iff the two families induce the same closure operator: each
    entails every rule p -> c of the other, by LinClosure stopped at c."""
    sigma1.universe._check(sigma2)
    for rules, other in ((sigma2, sigma1), (sigma1, sigma2)):
        lin = _kernel(other, "lin")
        if any(conc & ~lin(conc, p) for p, conc in rules.mask_pairs()):
            return False
    return True


def quasiclosure(source: ClosureSource, s: AttrSet) -> AttrSet:
    """Least fixpoint of S° = S ∪ ⋃{c(U) : U ⊆ S, c(U) ≠ c(S)}.

    Quantifies over all subsets of the current set, so it raises
    BoundExceededError when the set grows beyond ``core.EXHAUSTIVE_LIMIT``
    (20) elements.
    """
    c = Closure.wrap(source)
    c.universe._check(s)
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
# built once per row that goes back to a library caller; printed rows are
# checked by ``Universe.row_lines`` instead, a block of rows at a time.
Row = tuple[int, int, int, tuple[int, ...]]


def _force_ones(row: Row, m: int) -> Row | None:
    """Restrict the row to its members that hold m; None when none does.

    When m lies inside ones ∪ free, no bubble can lose a position, so the
    bubbles stay whole and are not scanned: the row comes back with m
    forced present. Otherwise each bubble that m meets loses those
    positions in place: one left with two or more positions stays where
    it was, one left with a single position drops out and that position
    becomes a forced 0, and one that m covers leaves no member, since a
    bubble needs a 0. So the bubbles keep their order, which
    ``Universe.row_lines`` names them by.
    """
    ones, zeros, free, bubbles = row
    if m & zeros:
        return None
    if not m & ~(ones | free):
        return ones | m, zeros, free & ~m, bubbles
    kept = []
    for b in bubbles:
        rest = b & ~m
        if rest == b:
            kept.append(b)
        elif rest == 0:
            return None  # bubble fully forced present, but it needs a 0
        elif rest & (rest - 1):
            kept.append(rest)
        else:
            zeros |= rest
    return ones | m, zeros, free & ~m, tuple(kept)


def _at_least_one_zero(row: Row, amask: int, out: list[Row]) -> None:
    """Append disjoint rows covering exactly the members of row that miss
    part of amask.

    The row stays whole when every member misses part of amask: amask
    meets a forced 0, or a bubble lies inside amask. No row is appended
    when amask lies inside ones. When the rest of amask lies inside free,
    one row is appended with that rest as a lone forced 0 or as one new
    bubble, placed last. Otherwise the loop branches on the lowest
    position p of amask that lies in a bubble: first the row with p
    absent, where that bubble is dropped and its other positions run
    free; then, with p present, the bubble shrinks in place, or becomes a
    forced 0 when one position is left, and the loop goes on with amask
    less p. The loop checks nothing again: every bubble keeps a position
    outside amask, since none lay inside it, so no bubble comes to lie
    inside amask and no new forced 0 falls in it. The other bubbles keep
    their order, which ``Universe.row_lines`` names them by.
    """
    ones, zeros, free, bubbles = row
    if amask & zeros:
        out.append(row)
        return
    for b in bubbles:
        if b & ~amask == 0:
            out.append(row)  # some bubble lies inside amask, so a 0 is certain
            return
    while True:
        cand = amask & ~ones
        if not cand:
            return  # amask forced fully present
        in_bubbles = cand & ~free
        if not in_bubbles:
            if cand & (cand - 1):
                out.append((ones, zeros, free & ~cand, bubbles + (cand,)))
            else:
                out.append((ones, zeros | cand, free & ~cand, bubbles))
            return
        p = in_bubbles & -in_bubbles
        i = 0
        while not bubbles[i] & p:
            i += 1
        rest = bubbles[i] ^ p
        others = bubbles[:i] + bubbles[i + 1 :]
        # p absent: its bubble is satisfied, remaining bubble positions run free
        out.append((ones, zeros | p, free | rest, others))
        # p present: the rest of amask must miss something
        ones |= p
        amask ^= p
        if rest & (rest - 1):
            bubbles = bubbles[:i] + (rest,) + bubbles[i + 1 :]
        else:
            zeros |= rest
            bubbles = others


def _impose(
    rows: list[Row], pairs: Iterable[tuple[int, int]], complications: Iterable[int]
) -> list[Row]:
    """Filter the rows by each (premise, conclusion) mask pair in turn, then
    by each complication mask; the rows stay pairwise disjoint.

    A row stays whole under a pair when its premise cannot hold (it meets
    a forced 0, or a bubble lies inside it) or when its conclusion is
    certain once it does. Any other row splits into the members missing
    part of the premise, then those holding premise and conclusion
    (``_force_ones``). When the premise lies inside ones ∪ free, no bubble
    can lie inside it, so the bubble scan is skipped and the missing part
    is appended directly: nothing when the premise lies inside ones, else
    a lone forced 0 or one new bubble, placed last. Only a premise that
    meets a bubble goes to ``_at_least_one_zero``, which scans the bubbles
    and keeps the row whole when one lies inside the premise; then
    ``_force_ones`` finds that bubble covered and adds nothing. Both paths
    keep the order of the bubbles, which ``Universe.row_lines`` names
    them by.
    """
    for amask, bmask in pairs:
        out: list[Row] = []
        for row in rows:
            ones, zeros, free, bubbles = row
            if amask & zeros or not bmask & ~(amask | ones):
                out.append(row)
                continue
            cand = amask & ~ones
            if cand & ~free:
                _at_least_one_zero(row, amask, out)
            elif cand & (cand - 1):
                out.append((ones, zeros, free & ~cand, bubbles + (cand,)))
            elif cand:
                out.append((ones, zeros | cand, free & ~cand, bubbles))
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


def lectic_groups(
    sigma: ImplicationSet, complications: Iterable[int] = ()
) -> Iterator[tuple[int, list[int]]]:
    """The closed sets of sigma that cover no complication mask, in lectic
    order, grouped by their lower chunk: pairs (h, uppers), in ascending
    h, of a reversed lower chunk and the ascending list of the reversed
    upper chunks of its sets (see ``_lectic_cut``).

    The rules and complications are mirrored once, position p to bit
    n - 1 - p (``_reversed``), and the rows are the ``flat_rows`` of the
    mirrored rules: so every row mask is in lectic bit order already, its
    top bits (``>> width``) the reversed lower chunk and the rest the
    reversed upper chunk. A bubble-free row is the product of the list H
    of its lower chunks and the list L of its upper chunks, each its
    forced ones OR'ed onto the ascending submask list of its free
    positions, made once per listing for each free chunk. L is appended
    with one ``list +=`` to the bucket of every h in H, and each bucket
    is sorted by ``list.sort`` when its turn comes. So a set costs no
    Python bytecode of its own, and memory is one list slot per set and
    one list per group beside the rows; a row and a group cost a few
    bytecodes each, so a listing whose groups hold one set each pays them
    per set. The buckets are built when this is called; the groups come
    as they are sorted.
    """
    n = sigma.universe.size
    width = n - _lectic_cut(n)
    upper = (1 << width) - 1
    pairs = [(_reversed(prem, n), _reversed(conc, n)) for prem, conc in sigma.mask_pairs()]
    mirrored = ImplicationSet.from_pairs(sigma.universe, pairs)
    gamma = [_reversed(g, n) for g in complications]
    subs = _Cache(lambda chunk: list(submasks(chunk))[::-1])
    buckets: defaultdict[int, list[int]] = defaultdict(list)
    for ones, _, free, _ in flat_rows(mirrored, gamma):
        ls = subs[free & upper]
        if ones & upper:
            ls = list(map((ones & upper).__or__, ls))
        for h in map((ones >> width).__or__, subs[free >> width]):
            buckets[h] += ls
    return _sorted_groups(buckets)


def _sorted_groups(buckets: dict[int, list[int]]) -> Iterator[tuple[int, list[int]]]:
    """The buckets in ascending h, each sorted when its turn comes and
    dropped from buckets, so that a written group's memory is freed."""
    for h in sorted(buckets):
        group = buckets.pop(h)
        group.sort()
        yield h, group


def lectic_masks(source: ClosureSource, complications: Iterable[int] = ()) -> Iterator[int]:
    """The masks of the closed sets that cover no complication mask, each
    once, in lectic order.

    Lectic order is taken on positions with the smallest position most
    significant (the usual NextClosure convention). An implication family
    is read off the groups of ``lectic_groups``: each group's masks are
    its lower chunk OR'ed onto its upper chunks, through two C-level
    ``map`` calls and a per-listing cache of unreversed upper chunks. A
    family or a bare operator, which has no rows, goes through NextClosure
    and takes no complications.
    """
    universe = source_universe(source)
    complications = tuple(complications)
    if isinstance(source, ImplicationSet):
        n = universe.size
        cut = _lectic_cut(n)
        width = n - cut
        upper = _Cache(lambda chunk: _reversed(chunk, width) << cut)
        get = upper.__getitem__
        return chain.from_iterable(
            map(_reversed(h, cut).__or__, map(get, group))
            for h, group in lectic_groups(source, complications)
        )
    if complications:
        raise TypeError("complications need an implication family")
    return _next_closure(Closure.wrap(source))


def lectic_lines(
    universe: Universe, groups: Iterable[tuple[int, list[int]]], block: int
) -> Iterator[str]:
    """The sets of ``lectic_groups`` groups, one line each as
    ``Universe.lines`` writes them, in text blocks of about ``block``
    lines; a group longer than a block is written in slices of ``block``
    sets.

    A group is the reversed lower chunk h of its sets and the ascending
    list of their reversed upper chunks (see ``_lectic_cut``). It is
    written as one prefix, the text of h, and one ``str.join`` over a
    ``map`` of a per-listing cache of upper-chunk texts
    (``_spaced_texts``); so a set whose upper chunk is cached costs no
    Python bytecode of its own, and a set whose upper chunk is new costs
    one cache miss. The group of h = 0 reads a second cache, whose
    entries have no space in front and whose empty chunk, the empty set,
    is "-". Each cache holds at most ``_CACHE_LIMIT`` entries.
    """
    cut = _lectic_cut(universe.size)
    heads = _spaced_texts(universe.text, 0, cut)
    upper = _spaced_texts(universe.text, cut, universe.size - cut)
    bare = _Cache(lambda chunk: upper[chunk][1:] or "-")
    parts: list[str] = []
    count = 0
    for h, group in groups:
        head = heads[h][1:]
        get = (upper if h else bare).__getitem__
        for i in range(0, len(group), block):
            part = group[i : i + block]
            parts.append(head + ("\n" + head).join(map(get, part)))
            count += len(part)
            if count >= block:
                yield "\n".join(parts)
                parts = []
                count = 0
    if parts:
        yield "\n".join(parts)


def _lectic_cut(n: int) -> int:
    """The lectic listing's cut of n positions into a lower chunk, the
    positions below ceil(n/2), and an upper chunk, the rest; up to 24
    positions it is the cut of ``Universe._text_tables``. Each chunk is
    read bit-reversed (``_reversed``), its smallest position most
    significant, so lectic order is the order of the reversed lower
    chunks, then of the reversed upper ones."""
    return (n + 1) // 2


def _reversed(chunk: int, width: int) -> int:
    """The chunk of ``width`` bits read backwards: bit i goes to bit
    width - 1 - i. Its bytes are reversed by ``_REVERSED_BYTES`` and read
    in the other byte order, in three C calls."""
    nbytes = (width + 7) >> 3
    turned = chunk.to_bytes(nbytes, "little").translate(_REVERSED_BYTES)
    return int.from_bytes(turned, "big") >> (nbytes << 3) - width


#: byte b read backwards, at index b
_REVERSED_BYTES = bytes(int(f"{b:08b}"[::-1], 2) for b in range(256))


#: the most entries a ``_Cache`` holds: as many as the largest half table
#: of ``Universe._text_tables``, so a lectic listing of up to 24 positions,
#: whose chunks take at most 4,096 values, never empties one
_CACHE_LIMIT = 1 << 12


class _Cache(dict):
    """A dict that makes each missing entry by one call of ``make``, so
    that ``map(cache.__getitem__, keys)`` runs no Python code on a hit. A
    miss on a full cache (``_CACHE_LIMIT`` entries) empties it first, so
    its memory stays bounded however many keys a listing reads."""

    __slots__ = ("make",)

    def __init__(self, make: Callable[[int], object]):
        super().__init__()
        self.make = make

    def __missing__(self, key: int) -> object:
        if len(self) >= _CACHE_LIMIT:
            self.clear()
        value = self[key] = self.make(key)
        return value


def _spaced_texts(text: Callable[[int], str], start: int, width: int) -> _Cache:
    """A cache of the texts of the reversed chunks of the ``width``
    positions from ``start`` on, each label after one space, "" for the
    empty chunk. A miss joins the cached texts of the chunk's two halves,
    each made by ``text`` on first read, so a listing of many distinct
    chunks makes few texts."""
    k = width // 2
    top = _Cache(lambda chunk: " " + text(_reversed(chunk, width - k) << start) if chunk else "")
    low = _Cache(lambda chunk: " " + text(_reversed(chunk, k) << start + width - k) if chunk else "")
    mask = (1 << k) - 1
    return _Cache(lambda chunk: top[chunk >> k] + low[chunk & mask])


def enumerate_closed_lectic(source: ClosureSource) -> Iterator[AttrSet]:
    """Yield every closed set exactly once, in lectic order (see
    ``lectic_masks``)."""
    return map(partial(AttrSet, source_universe(source)), lectic_masks(source))


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
