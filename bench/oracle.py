"""Independent reference code for checking the program's answers.

Nothing here imports hornkit: outputs are read back from their text form
with this module's own parser and compared against a counter-based
closure (Beeri and Bernstein's LinClosure), powerset scans at small n, and
direct checks of the defining properties.
"""

from __future__ import annotations

import random


def bits(mask: int):
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


def submasks(mask: int):
    sub = mask
    while True:
        yield sub
        if sub == 0:
            return
        sub = (sub - 1) & mask


# -- text ----------------------------------------------------------------------


def parse_set(index: dict[str, int], text: str) -> int:
    text = text.strip()
    if text in ("", "-"):
        return 0
    mask = 0
    for tok in text.split():
        mask |= 1 << index[tok]
    return mask


def parse_sigma(index: dict[str, int], text: str) -> list[tuple[int, int]]:
    out = []
    for line in text.splitlines():
        if not line.strip():
            continue
        left, right = line.split("->")
        out.append((parse_set(index, left), parse_set(index, right)))
    return out


def parse_sets(index: dict[str, int], text: str) -> list[int]:
    return [parse_set(index, line) for line in text.splitlines() if line.strip()]


def index_of(n: int) -> dict[str, int]:
    return {str(i + 1): i for i in range(n)}


def parse_row(line: str) -> tuple[int, int, int, list[int]]:
    """A rendered 012n row as (ones, zeros, free, bubbles)."""
    ones = zeros = free = 0
    bubbles: dict[str, int] = {}
    for pos, sym in enumerate(line.split()):
        bit = 1 << pos
        if sym == "1":
            ones |= bit
        elif sym == "0":
            zeros |= bit
        elif sym == "2":
            free |= bit
        else:
            bubbles[sym] = bubbles.get(sym, 0) | bit
    return ones, zeros, free, list(bubbles.values())


def row_count(row) -> int:
    _, _, free, bubbles = row
    total = 1 << free.bit_count()
    for b in bubbles:
        total *= (1 << b.bit_count()) - 1
    return total


def row_has(row, mask: int) -> bool:
    ones, zeros, _, bubbles = row
    if mask & ones != ones or mask & zeros:
        return False
    return all(mask & b != b for b in bubbles)


# -- closure -------------------------------------------------------------------


class Horn:
    """Counter-based closure (LinClosure): each rule keeps the number of
    premise elements still missing and fires when it reaches zero."""

    def __init__(self, n: int, pairs: list[tuple[int, int]]):
        self.n = n
        self.full = (1 << n) - 1
        self.pairs = pairs
        self.size = [p.bit_count() for p, _ in pairs]
        self.watch: list[list[int]] = [[] for _ in range(n)]
        self.axioms = 0
        for i, (prem, conc) in enumerate(pairs):
            if prem == 0:
                self.axioms |= conc
            for e in bits(prem):
                self.watch[e].append(i)

    def close(self, mask: int) -> int:
        missing = self.size[:]
        seen = mask | self.axioms
        todo = list(bits(seen))
        pairs, watch = self.pairs, self.watch
        while todo:
            for i in watch[todo.pop()]:
                missing[i] -= 1
                if missing[i] == 0:
                    add = pairs[i][1] & ~seen
                    if add:
                        seen |= add
                        todo.extend(bits(add))
        return seen


class Family:
    """Closure by intersecting the members of a generating family."""

    def __init__(self, n: int, masks: list[int]):
        self.n = n
        self.full = (1 << n) - 1
        self.masks = masks

    def close(self, mask: int) -> int:
        acc = self.full
        for m in self.masks:
            if mask & ~m == 0:
                acc &= m
        return acc


def entails(op, prem: int, conc: int) -> bool:
    return conc & ~op.close(prem) == 0


def equivalent(op, n: int, base: list[tuple[int, int]]) -> bool:
    """Same closure operator: every rule of each side holds in the other.

    For a family-given operator the base must also close every member
    (and nothing else) to itself, which the powerset scan at small n
    settles directly.
    """
    other = Horn(n, base)
    if not all(entails(op, p, c) for p, c in base):
        return False
    if isinstance(op, Horn):
        return all(entails(other, p, c) for p, c in op.pairs)
    return all(other.close(m) == op.close(m) for m in range(1 << n))


def nonredundant(n: int, base: list[tuple[int, int]]) -> bool:
    for i, (p, c) in enumerate(base):
        rest = Horn(n, base[:i] + base[i + 1 :])
        if entails(rest, p, c):
            return False
    return True


def minimum_size(op: Horn, n: int) -> int:
    """Size of a minimum base: full implications A -> c(A), deduplicated,
    then redundant ones dropped (Shock's theorem makes the survivors
    minimum)."""
    fulls = {}
    for prem, _ in op.pairs:
        cl = op.close(prem)
        if cl != prem:
            fulls[prem] = cl
    kept = list(fulls.items())
    i = 0
    while i < len(kept):
        rest = Horn(n, kept[:i] + kept[i + 1 :])
        if entails(rest, *kept[i]):
            kept.pop(i)
        else:
            i += 1
    return len(kept)


def is_prime(op, prem: int, root: int) -> bool:
    """prem -> root holds and no premise element can be dropped."""
    bit = 1 << root
    if prem & bit or not op.close(prem) & bit:
        return False
    return all(not op.close(prem & ~(1 << a)) & bit for a in bits(prem))


def stems_complete(op, n: int, pairs: set[tuple[int, int]]) -> bool:
    """No stem is missing from the (stem, root) pairs. For each root e, the
    sets that hold none of e's listed stems are the subsets of the
    complements of their minimal transversals; if none of those maximal
    sets generates e, every generator of e holds a listed stem."""
    for e in range(n):
        rest = ((1 << n) - 1) & ~(1 << e)
        for t in minimal_transversals([u for u, r in pairs if r == e]):
            if op.close(rest & ~t) >> e & 1:
                return False
    return True


# -- powerset scans (small n) ----------------------------------------------------


class Table:
    """Closure of every subset, and what the definitions give from it."""

    def __init__(self, op, n: int):
        self.n = n
        self.clo = [op.close(m) for m in range(1 << n)]

    def stems(self) -> set[tuple[int, int]]:
        """(stem, root) pairs: minimal U with root in c(U) minus U."""
        found: dict[int, list[int]] = {e: [] for e in range(self.n)}
        for m in sorted(range(1 << self.n), key=int.bit_count):
            for e in bits(self.clo[m] & ~m):
                if not any(s & ~m == 0 for s in found[e]):
                    found[e].append(m)
        return {(s, e) for e, ss in found.items() for s in ss}

    def pseudoclosed(self) -> set[int]:
        """Minimal non-closed quasiclosed sets of each closure class; P is
        quasiclosed when every subset's closure lies in P or equals c(P)."""
        clo = self.clo
        quasi = []
        for p in range(1 << self.n):
            cp = clo[p]
            if cp == p:
                continue
            if all(clo[q] & ~p == 0 or clo[q] == cp for q in submasks(p)):
                quasi.append(p)
        return {
            p
            for p in quasi
            if not any(q != p and q & ~p == 0 and clo[q] == clo[p] for q in quasi)
        }


# -- transversals, keys, meet-irreducibles ---------------------------------------


def minimal_transversals(edges: list[int]) -> list[int]:
    """Berge's edge-by-edge multiplication, minimized after every edge."""
    trs = [0]
    for edge in edges:
        grown = {t for t in trs if t & edge}
        grown.update(t | 1 << x for t in trs if not t & edge for x in bits(edge))
        trs = [t for t in grown if not any(u != t and u & ~t == 0 for u in grown)]
    return trs


def is_minimal_transversal(edges: list[int], t: int) -> bool:
    if not all(t & e for e in edges):
        return False
    for x in bits(t):
        bit = 1 << x
        if all(t & e & ~bit for e in edges):
            return False
    return True


def shrink_transversal(edges: list[int], t: int, order: list[int]) -> int:
    """A minimal transversal inside t, dropping elements in the given order."""
    for x in order:
        if t >> x & 1 and all(t & e & ~(1 << x) for e in edges):
            t &= ~(1 << x)
    return t


def is_minimal_key(op, k: int) -> bool:
    if op.close(k) != op.full:
        return False
    return all(op.close(k & ~(1 << x)) != op.full for x in bits(k))


def shrink_key(op, k: int, order: list[int]) -> int:
    """A minimal key inside the key k, dropping elements in the given order."""
    for x in order:
        if k >> x & 1 and op.close(k & ~(1 << x)) == op.full:
            k &= ~(1 << x)
    return k


def is_meet_irreducible(op, m: int) -> bool:
    """Closed, not the top, and its closed strict supersets meet above it."""
    if op.close(m) != m or m == op.full:
        return False
    meet = op.full
    for e in bits(op.full & ~m):
        meet &= op.close(m | 1 << e)
    return meet != m


def sample_closed(op, n: int, rng: random.Random, k: int) -> list[int]:
    """Closures of k random sets of assorted density."""
    out = []
    for _ in range(k):
        mask = rng.getrandbits(n)
        for _ in range(rng.randrange(4)):
            mask &= rng.getrandbits(n)
        out.append(op.close(mask))
    return out
