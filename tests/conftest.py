"""Shared fixtures: tiny builders, worked-example data, independent
brute-force oracles, and seeded random instance generators.

The oracles re-derive everything from first principles (powerset filters,
exhaustive searches) so they share no code path with the library.
"""

from __future__ import annotations

import random
from functools import lru_cache
from itertools import count as naturals, product
from string import ascii_lowercase
from typing import Iterable, Iterator

from hornkit import (
    AttrSet,
    Closure,
    HornClause,
    HornkitError,
    Implication,
    ImplicationSet,
    ParseError,
    SetFamily,
    Universe,
    load_family,
    load_implications,
)

SEED = 0xC0FFEE


# -- builders ----------------------------------------------------------------


@lru_cache(maxsize=None)
def uni(n: int) -> Universe:
    return Universe(tuple(str(i + 1) for i in range(n)))


def aset(u: Universe, text: str) -> AttrSet:
    return u.parse_set(text)


def imp(u: Universe, line: str) -> Implication:
    left, right = line.split("->")
    return Implication(u.parse_set(left), u.parse_set(right))


def sig(u: Universe, *lines: str) -> ImplicationSet:
    return ImplicationSet(u, tuple(imp(u, line) for line in lines))


def fam(u: Universe, *lines: str) -> SetFamily:
    return SetFamily(u, tuple(u.parse_set(line) for line in lines))


def pairs(sigma: ImplicationSet) -> frozenset[tuple[int, int]]:
    return sigma.as_pair_set()


# -- worked-example data -------------------------------------------------------

U6 = uni(6)
U7 = uni(7)
U9 = uni(9)

#: four-implication family over [6]
EQ38 = sig(U6, "3 -> 5", "1 5 -> 4", "6 -> 3", "2 3 -> 1")

#: singleton-premise family over [9]
EQ15 = sig(
    U9,
    "1 -> 6",
    "2 -> 5 6",
    "3 -> 2",
    "4 -> 3 6 8 9",
    "5 -> 3 4 7",
    "6 -> 9",
    "7 -> 8",
    "8 -> 7",
)

#: its canonical base (full conclusions)
EQ15_GD = sig(
    U9,
    "1 -> 1 6 9",
    "2 -> 2 3 4 5 6 7 8 9",
    "3 -> 2 3 4 5 6 7 8 9",
    "4 -> 2 3 4 5 6 7 8 9",
    "5 -> 2 3 4 5 6 7 8 9",
    "6 -> 6 9",
    "7 -> 7 8",
    "8 -> 7 8",
)

#: a four-member closure system over [7], listed completely
FIG4A = fam(U7, "1 2", "1 2 3 4", "1 2 5", "1 2 3 4 5 6 7")

FIG4A_GD = sig(
    U7,
    "-> 1 2",
    "1 2 3 -> 1 2 3 4",
    "1 2 4 -> 1 2 3 4",
    "1 2 6 -> 1 2 3 4 5 6 7",
    "1 2 7 -> 1 2 3 4 5 6 7",
    "1 2 3 4 5 -> 1 2 3 4 5 6 7",
)

#: the meet-irreducibles of the EQ38 system
EQ25_MF = fam(
    U6,
    "1 2",
    "1 2 3 4 5",
    "1 2 4",
    "1 2 4 5",
    "1 3 4 5 6",
    "2 4 5",
    "2 5",
    "3 4 5 6",
    "3 5 6",
)


def padded_mf_text() -> str:
    """EQ25_MF as a family file padded to 24 elements, past the stem-search
    limit; the 18 new ones are in every member."""
    pad = " ".join(str(i) for i in range(7, 25))
    return f"elements: 1 2 3 4 5 6 {pad}\n" + "".join(
        f"{s.render()} {pad}\n" for s in EQ25_MF.sets
    )


#: canonical direct base of that system
EQ27_CD = sig(
    U6,
    "1 3 -> 4",
    "1 6 -> 4",
    "2 3 -> 1 4",
    "2 6 -> 1 4",
    "1 5 -> 4",
    "6 -> 3 5",
    "3 -> 5",
)

#: its ten unit prime implicates (consensus fixpoint)
L6_PRIMES = sig(
    U6,
    "3 -> 5",
    "1 5 -> 4",
    "6 -> 3",
    "2 3 -> 1",
    "1 3 -> 4",
    "6 -> 5",
    "2 6 -> 1",
    "2 3 -> 4",
    "1 6 -> 4",
    "2 6 -> 4",
)

#: a Shock-minimized base of the EQ27 operator
SHOCK_MIN = sig(U6, "2 3 -> 2 3 1 4 5", "1 5 -> 1 5 4", "6 -> 6 3 5", "3 -> 3 5")

#: D-basis of a six-element lattice: binary primes then order-minimal ones
EQ35_DB = sig(
    U6,
    "2 -> 1",
    "6 -> 3",
    "6 -> 1",
    "5 -> 4",
    "3 -> 1",
    "1 4 -> 3",
    "2 4 -> 5",
    "1 5 -> 6",
    "2 4 -> 6",
    "2 3 -> 6",
)
EQ35_BINARY = sig(U6, "2 -> 1", "6 -> 3", "6 -> 1", "5 -> 4", "3 -> 1")

#: acyclic unit family whose nonredundant prime base is extracted in tests
ACYC7 = sig(
    U6,
    "4 -> 5",
    "6 -> 1",
    "2 3 -> 4",
    "2 3 -> 1",
    "3 5 -> 6",
    "3 4 -> 6",
    "2 3 4 -> 5",
)


# -- brute-force oracles -------------------------------------------------------


def brute_closed_masks(n: int, sigma: ImplicationSet) -> list[int]:
    """Filter the powerset by the closed-set predicate, directly."""
    ps = sigma.mask_pairs()
    out = []
    for m in range(1 << n):
        if all(prem & ~m != 0 or conc & ~m == 0 for prem, conc in ps):
            out.append(m)
    return out


def naive_fixpoint(pairs: list[tuple[int, int]], mask: int) -> int:
    """Fire any applicable rule that adds something until none does."""
    changed = True
    while changed:
        changed = False
        for prem, conc in pairs:
            if prem & ~mask == 0 and conc & ~mask:
                mask |= conc
                changed = True
    return mask


def brute_redundancy_survivors(pairs: list[tuple[int, int]]) -> list[int]:
    """The indices of the rules that left-to-right redundancy removal
    keeps, by its definition: rule i goes when ``naive_fixpoint`` closes
    its premise, under the other rules not yet dropped, to a set holding
    its conclusion."""
    live = list(range(len(pairs)))
    for i, (prem, conc) in enumerate(pairs):
        others = [pairs[j] for j in live if j != i]
        if not conc & ~naive_fixpoint(others, prem):
            live.remove(i)
    return live


def oracle_close(closed: list[int], full: int, m: int) -> int:
    """Closure as the intersection of the closed supersets of m."""
    acc = full
    for x in closed:
        if m & ~x == 0:
            acc &= x
    return acc


def brute_family_close(family: SetFamily, m: int) -> int:
    """The family closure by its definition: scan every member and
    intersect those containing m; E when none does."""
    return oracle_close(family.masks(), family.universe.full_mask, m)


def brute_family_closed(n: int, family: SetFamily) -> list[int]:
    """All intersections of subfamilies (the generated closure system)."""
    full = (1 << n) - 1
    ms = family.masks()
    out = {full}
    frontier = {full}
    while frontier:
        new = set()
        for x in frontier:
            for y in ms:
                z = x & y
                if z not in out:
                    out.add(z)
                    new.add(z)
        frontier = new
    return sorted(out)


def brute_mtr(n: int, edges: list[int]) -> set[int]:
    """Minimal transversals by scanning the whole powerset."""
    hitting = [m for m in range(1 << n) if all(m & e for e in edges)]
    out = set()
    for m in hitting:
        if not any(h != m and h & ~m == 0 for h in hitting):
            out.add(m)
    return out


def brute_stems(n: int, closed: list[int]) -> dict[int, set[int]]:
    """stems(e) from the closure system: minimal U with e in close(U) \\ U."""
    full = (1 << n) - 1
    close = [oracle_close(closed, full, m) for m in range(1 << n)]
    stems: dict[int, set[int]] = {e: set() for e in range(n)}
    for m in sorted(range(1 << n), key=lambda m: m.bit_count()):
        gained = close[m] & ~m
        for e in range(n):
            if gained >> e & 1 and not any(s & ~m == 0 for s in stems[e]):
                stems[e].add(m)
    return stems


def brute_unit_primes(n: int, closed: list[int]) -> set[tuple[int, int]]:
    """All (premise mask, root) pairs of unit prime implicates."""
    stems = brute_stems(n, closed)
    return {(u, e) for e, us in stems.items() for u in us}


def brute_d_basis(n: int, closed: list[int]) -> tuple[list[tuple[int, int]], int]:
    """The D-basis from its definition: every unit prime implicate U -> e
    (U a stem of e) with |U| <= 1, then each one with a larger U in which
    no member a can be swapped for an a' with c({a'}) a proper subset of
    c({a}) to give another stem of e; each block sorted by |U|, then U's
    positions, then e. Returns the (premise, conclusion) mask pairs and the
    length of the first block."""
    full = (1 << n) - 1
    stems = brute_stems(n, closed)
    single = [oracle_close(closed, full, 1 << a) for a in range(n)]

    def replaceable(prem: int, e: int) -> bool:
        return any(
            prem >> a & 1 and single[a2] != single[a] and single[a2] & ~single[a] == 0
            and (prem & ~(1 << a)) | 1 << a2 in stems[e]
            for a in range(n) for a2 in range(n)
        )

    units = sorted(
        brute_unit_primes(n, closed),
        key=lambda unit: (unit[0].bit_count(), [p for p in range(n) if unit[0] >> p & 1], unit[1]),
    )
    binary = [(prem, 1 << e) for prem, e in units if prem.bit_count() <= 1]
    larger = [
        (prem, 1 << e) for prem, e in units if prem.bit_count() > 1 and not replaceable(prem, e)
    ]
    return binary + larger, len(binary)


def brute_pseudoclosed(n: int, closed: list[int]) -> set[int]:
    """Pseudoclosed sets straight from the quasiclosure definition:
    minimal properly quasiclosed member of each closure class."""
    full = (1 << n) - 1
    close = [oracle_close(closed, full, m) for m in range(1 << n)]

    def quasi(m: int) -> int:
        while True:
            acc = m
            sub = m
            while True:
                if close[sub] != close[m]:
                    acc |= close[sub]
                if sub == 0:
                    break
                sub = (sub - 1) & m
            if acc == m:
                return m
            m = acc

    proper = [m for m in range(1 << n) if close[m] != m and quasi(m) == m]
    out = set()
    for m in proper:
        if not any(q != m and q & ~m == 0 and close[q] == close[m] for q in proper):
            out.add(m)
    return out


def brute_minimal_keys(n: int, closed: list[int]) -> set[int]:
    """The minimal sets whose closure is E, by scanning the powerset; a
    superset of a key is a key, so a key is minimal iff no key lies one
    element below it."""
    full = (1 << n) - 1
    keys = {m for m in range(1 << n) if oracle_close(closed, full, m) == full}
    return {k for k in keys if not any(k >> p & 1 and k & ~(1 << p) in keys for p in range(n))}


def brute_meet_irreducibles(n: int, closed: list[int]) -> set[int]:
    full = (1 << n) - 1
    out = set()
    for x in closed:
        if x == full:
            continue
        inter = full
        for y in closed:
            if y != x and x & ~y == 0:
                inter &= y
        if inter != x:
            out.add(x)
    return out


def oracle_bubble_names() -> Iterator[str]:
    """a, ..., z, aa, ab, ..., zz, aaa, ...: the words over a-z, shortest
    first and alphabetical within a length (bijective base 26)."""
    for size in naturals(1):
        for letters in product(ascii_lowercase, repeat=size):
            yield "".join(letters)


def oracle_row_text(row) -> str:
    """A Row012n rendered position by position: 1 forced present, 0 forced
    absent, 2 free, and the name of the bubble holding the position."""
    names = dict(zip(row.bubbles, oracle_bubble_names()))
    symbols = []
    for p in range(row.universe.size):
        bit = 1 << p
        if bit & row.ones:
            symbols.append("1")
        elif bit & row.zeros:
            symbols.append("0")
        elif bit & row.free:
            symbols.append("2")
        else:
            symbols.append(next(names[b] for b in row.bubbles if b & bit))
    return " ".join(symbols)


def exact_min_base_size(
    n: int, mod: set[int], allow_complications: bool = True
) -> int:
    """Exhaustive minimum size of a system with exactly mod as model set.

    Every implication (ordered premise/conclusion pair) and, optionally,
    every complication is a candidate; a candidate set is a base iff its
    members hold in every model and together exclude every non-model, so
    the search is an exact minimum set cover over exclusion sets.
    """
    universe = range(1 << n)
    nonmod = frozenset(m for m in universe if m not in mod)
    if not nonmod:
        return 0
    kills: set[frozenset[int]] = set()
    for a in universe:
        for b in universe:
            if b & ~a == 0:
                continue  # tautology excludes nothing
            kill = frozenset(x for x in universe if a & ~x == 0 and b & ~x)
            if kill and kill <= nonmod:
                kills.add(kill)
        if allow_complications:
            kill = frozenset(x for x in universe if a & ~x == 0)
            if kill and kill <= nonmod:
                kills.add(kill)
    pool = [k for k in kills if not any(k < other for other in kills)]
    biggest = max((len(k) for k in pool), default=0)

    def cover(remaining: frozenset[int], k: int) -> bool:
        if not remaining:
            return True
        if k * biggest < len(remaining):
            return False
        # branch on the element with the fewest covering candidates
        pick = min(remaining, key=lambda x: sum(x in cand for cand in pool))
        return any(
            cover(remaining - cand, k - 1) for cand in pool if pick in cand
        )

    k = 0
    while not cover(nonmod, k):
        k += 1
        assert k <= len(nonmod)
    return k


# -- the row splitter before its flat rewrite ---------------------------------
#
# The recursive splitter that ``hornkit.closure`` used before its splits
# became one flat loop, kept verbatim (names aside) as the reference that
# the library's rows must equal tuple for tuple, in order.

Row = tuple[int, int, int, tuple[int, ...]]


def reference_force_ones(row: Row, m: int) -> Row | None:
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


def reference_at_least_one_zero(row: Row, amask: int, out: list[Row]) -> None:
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
    with_p = reference_force_ones(row, p)
    if with_p is not None:
        reference_at_least_one_zero(with_p, amask & ~p, out)


def reference_impose(
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
                reference_at_least_one_zero(row, amask, out)
                forced = reference_force_ones(row, amask | bmask)
                if forced is not None:
                    out.append(forced)
        rows = out
    for amask in complications:
        out = []
        for row in rows:
            reference_at_least_one_zero(row, amask, out)
        rows = out
    return rows


def reference_model_rows(
    n: int, pairs: list[tuple[int, int]], complications: Iterable[int] = ()
) -> list[Row]:
    """The rows of the full n-position cube under the pairs, imposed in
    the order given, then the complications."""
    return reference_impose([(0, 0, (1 << n) - 1, ())], pairs, complications)


def reference_expand(rows: Iterable[Row]) -> list[Row]:
    """Bubble-free rows, in order: the first bubble's positions p, in
    ascending order, each give the rows with p absent, the positions
    below p present and those above p free, expanded in turn."""
    out: list[Row] = []
    for ones, zeros, free, bubbles in rows:
        if not bubbles:
            out.append((ones, zeros, free, bubbles))
            continue
        first, rest = bubbles[0], bubbles[1:]
        below = 0
        for p in range(first.bit_length()):
            bit = 1 << p
            if first & bit:
                above = first & ~(below | bit)
                out += reference_expand([(ones | below, zeros | bit, free | above, rest)])
                below |= bit
    return out


def reference_lectic_keys(n: int, flat: Iterable[Row]) -> list[int]:
    """The lectic sort keys of the members of bubble-free rows, row by row,
    built bit by bit: each member m with its bits reversed in the high
    half (position p at bit 2n-1-p) and m itself in the low half."""
    top = 2 * n - 1
    keys: list[int] = []
    for ones, _, free, _ in flat:
        row = [ones]
        for p in range(n):
            if ones >> p & 1:
                row[0] |= 1 << (top - p)
        for p in range(n):
            if free >> p & 1:
                both = 1 << p | 1 << (top - p)
                row += [key | both for key in row]
        keys += row
    return keys


# -- the line-by-line loader, before the one-pass parsers ----------------------
#
# Text in, labels and masks out: each content line comes from a generator
# over ``str.splitlines``, each label is looked up in a position index, and
# a header after the first content line is refused when its line comes up.
# ``core``'s parsers must give the same values and the same first error.

_HEADER = "elements:"


def reference_index(labels: Iterable[str]) -> dict[str, int]:
    """The position of each label, after ``Universe``'s rules, one label at
    a time: the first illegal or repeated label raises."""
    index: dict[str, int] = {}
    for pos, lab in enumerate(labels):
        if (
            lab.split() != [lab] or lab == "-" or "->" in lab or "#" in lab
            or lab.startswith(_HEADER)
        ):
            raise ParseError(f"illegal label {lab!r}")
        if lab in index:
            raise ParseError(f"duplicate label {lab!r}")
        index[lab] = pos
    if not index:
        raise ParseError("empty universe declaration")
    return index


def _reference_content_lines(text: str) -> Iterator[str]:
    for raw in text.splitlines():
        line = raw.split("#", 1)[0].strip()
        if line:
            yield line


def _reference_body_lines(text: str) -> Iterator[str]:
    for i, line in enumerate(_reference_content_lines(text)):
        if line.startswith(_HEADER):
            if i:
                raise ParseError(f"second {_HEADER!r} header: {line!r}")
            continue
        yield line


def reference_parse_universe(text: str) -> tuple[str, ...]:
    """The labels of the header, the first content line."""
    for line in _reference_content_lines(text):
        if not line.startswith(_HEADER):
            raise ParseError(f"expected {_HEADER!r} header, got {line!r}")
        labels = tuple(line[len(_HEADER):].split())
        reference_index(labels)
        return labels
    raise ParseError("empty universe declaration")


def reference_parse_mask(index: dict[str, int], text: str) -> int:
    """The mask of a label list; "-" alone is the empty set."""
    tokens = text.split()
    if tokens == ["-"]:
        return 0
    mask = 0
    for lab in tokens:
        pos = index.get(lab)
        if pos is None:
            raise ParseError(f"unknown label {lab!r}")
        mask |= 1 << pos
    return mask


def reference_parse_rule(index: dict[str, int], line: str) -> tuple[int, int]:
    if "->" not in line:
        raise ParseError(f"missing '->' in {line!r}")
    left, right = line.split("->", 1)
    return reference_parse_mask(index, left), reference_parse_mask(index, right)


def reference_parse_implications(text: str, labels: tuple[str, ...]) -> list[tuple[int, int]]:
    index = reference_index(labels)
    return [reference_parse_rule(index, line) for line in _reference_body_lines(text)]


def reference_parse_family(text: str, labels: tuple[str, ...]) -> list[int]:
    index = reference_index(labels)
    return [reference_parse_mask(index, line) for line in _reference_body_lines(text)]


def reference_load_implications(text: str) -> tuple[tuple[str, ...], list[tuple[int, int]]]:
    labels = reference_parse_universe(text)
    return labels, reference_parse_implications(text, labels)


def reference_load_family(text: str) -> tuple[tuple[str, ...], list[int]]:
    labels = reference_parse_universe(text)
    return labels, reference_parse_family(text, labels)


# -- consensus on clause objects, before its mask-pair loop --------------------


def reference_consensus_closure(clauses: list[HornClause]) -> list[HornClause]:
    """Consensus to fixpoint on ``HornClause`` objects, one new object per
    resolvent: the push, subsumption and pending-pair loop that
    ``primes.consensus_closure`` runs on (negatives mask, positive) pairs,
    so both give the same list in the same order."""
    if not clauses:
        return []
    if any(not c.is_pure() for c in clauses):
        raise HornkitError("consensus closure expects pure Horn clauses")
    active: list[HornClause] = []
    alive: list[bool] = []
    pending: list[tuple[int, int]] = []

    def resolve(c1: HornClause, c2: HornClause) -> HornClause | None:
        # exactly one opposite-literal pair, which must be a positive of one
        # clause occurring negated in the other
        p1_in = c1.positive in c2.negatives
        p2_in = c2.positive in c1.negatives
        if p1_in == p2_in:  # zero or two clashes
            return None
        if p2_in:
            c1, c2 = c2, c1
        negs = (c1.negatives.mask | c2.negatives.mask) & ~(1 << c1.positive)
        return HornClause(AttrSet(c1.universe, negs), c2.positive)

    def push(cl: HornClause) -> None:
        for i, a in enumerate(active):
            if alive[i] and a.subsumes(cl):
                return
        for i, a in enumerate(active):
            if alive[i] and cl.subsumes(a):
                alive[i] = False
        idx = len(active)
        active.append(cl)
        alive.append(True)
        for i in range(idx):
            if alive[i]:
                pending.append((i, idx))

    for cl in clauses:
        push(cl)
    while pending:
        i, j = pending.pop()
        if not (alive[i] and alive[j]):
            continue
        res = resolve(active[i], active[j])
        if res is not None:
            push(res)
    out = [c for c, ok in zip(active, alive) if ok]
    out.sort(key=HornClause.key)
    return out



# -- random instances ----------------------------------------------------------


def rng_for(case: int) -> random.Random:
    return random.Random(SEED + case)


def rand_mask(rng: random.Random, n: int) -> int:
    return rng.getrandbits(n) & rng.getrandbits(n)


def rand_sigma(rng: random.Random, u: Universe, max_items: int | None = None) -> ImplicationSet:
    n = u.size
    k = rng.randint(1, max_items if max_items is not None else 2 * n)
    items = []
    for _ in range(k):
        prem = rand_mask(rng, n)
        conc = rand_mask(rng, n)
        if rng.random() < 0.1:
            prem = 0
        items.append(Implication(AttrSet(u, prem), AttrSet(u, conc)))
    return ImplicationSet(u, tuple(items))


def rand_antichain(rng: random.Random, u: Universe, k: int = 5) -> SetFamily:
    sets = tuple(
        AttrSet(u, rand_mask(rng, u.size) | (1 << rng.randrange(u.size)))
        for _ in range(k)
    )
    return SetFamily(u, sets).minimize()


def rand_family(rng: random.Random, u: Universe, k: int = 5) -> SetFamily:
    sets = tuple(AttrSet(u, rand_mask(rng, u.size)) for _ in range(k))
    return SetFamily(u, sets)


def rule_file(rng: random.Random, n: int) -> str:
    """An implication file over 1..n: up to 2n rules in no order, with
    premises of 0-3 positions and conclusions of 1-2, sometimes a repeat."""
    labels = [str(p) for p in range(1, n + 1)]
    rules = [
        f"{' '.join(rng.sample(labels, min(n, rng.choice((0, 1, 2, 2, 3)))))} -> "
        + " ".join(rng.sample(labels, min(n, rng.randint(1, 2))))
        for _ in range(rng.randint(0, 2 * n))
    ]
    if rules and rng.random() < 0.3:
        rules.insert(rng.randrange(len(rules)), rng.choice(rules))
    return "\n".join([f"elements: {' '.join(labels)}", *rules]) + "\n"


def family_file(rng: random.Random, n: int) -> str:
    """A family file over 1..n: up to 6 members in no order, sometimes a
    repeated member and sometimes the empty set ("-")."""
    labels = [str(p) for p in range(1, n + 1)]
    members = [
        " ".join(lab for lab in labels if rng.random() < 0.6) or "-"
        for _ in range(rng.randint(0, 6))
    ]
    if members and rng.random() < 0.5:
        members.insert(rng.randrange(len(members)), rng.choice(members))
    if rng.random() < 0.3:
        members.insert(rng.randrange(len(members) + 1), "-")
    return "\n".join([f"elements: {' '.join(labels)}", *members]) + "\n"


def seeded_source(seed: int, case: int, full: bool = False):
    """``(n, source, closed masks)`` of one seeded source over 1..n, n = 1-8:
    an implication file on even cases, a family file on odd ones (with
    ``full``, sometimes also listing E), and every third one wrapped as a
    bare ``Closure``. The closed sets come from the brute-force filters."""
    rng = rng_for(seed + case)
    n = rng.randint(1, 8)
    if case % 2:
        text = family_file(rng, n)
        if full and rng.random() < 0.4:
            text += " ".join(str(p) for p in range(1, n + 1)) + "\n"
        source = load_family(text)[1]
        closed = brute_family_closed(n, source)
    else:
        source = load_implications(rule_file(rng, n))[1]
        closed = brute_closed_masks(n, source)
    if case % 3 == 0:
        source = Closure.wrap(source)
    return n, source, closed
