"""Seeded input generators. Every input the program sees is produced here
from a ``random.Random`` and rendered in hornkit's text formats; the
program receives only the rendered text (as files or parsed objects).

Sizes are chosen in ``workloads.py``; see ``README.md`` for the reasons.
"""

from __future__ import annotations

import random


def labels(n: int) -> list[str]:
    return [str(i + 1) for i in range(n)]


def header(n: int) -> str:
    return "elements: " + " ".join(labels(n))


def render_set(lab: list[str], mask: int) -> str:
    out = []
    pos = 0
    while mask:
        if mask & 1:
            out.append(lab[pos])
        mask >>= 1
        pos += 1
    return " ".join(out)


def render_sigma(n: int, pairs: list[tuple[int, int]]) -> str:
    lab = labels(n)
    lines = [header(n)]
    for prem, conc in pairs:
        lines.append(f"{render_set(lab, prem)} -> {render_set(lab, conc)}".strip())
    return "\n".join(lines) + "\n"


def render_family(n: int, masks: list[int]) -> str:
    lab = labels(n)
    lines = [header(n)]
    lines.extend(render_set(lab, m) or "-" for m in masks)
    return "\n".join(lines) + "\n"


def _sample_mask(rng: random.Random, n: int, k: int) -> int:
    mask = 0
    for p in rng.sample(range(n), k):
        mask |= 1 << p
    return mask


def unit_horn(
    rng: random.Random, n: int, m: int, prem_sizes: tuple[int, ...]
) -> list[tuple[int, int]]:
    """m implications with premise sizes drawn from prem_sizes and one
    conclusion element outside the premise (no tautologies)."""
    out = []
    for _ in range(m):
        prem = _sample_mask(rng, n, rng.choice(prem_sizes))
        while True:
            e = rng.randrange(n)
            if not prem >> e & 1:
                break
        out.append((prem, 1 << e))
    return out


def dense_family(rng: random.Random, n: int, k: int, lo: float, hi: float) -> list[int]:
    """k members over n elements, each keeping every element with its own
    probability drawn from [lo, hi]."""
    out = []
    for _ in range(k):
        p = rng.uniform(lo, hi)
        mask = 0
        for e in range(n):
            if rng.random() < p:
                mask |= 1 << e
        out.append(mask)
    return out


def query_sets(rng: random.Random, n: int, count: int, repeat: float = 0.25) -> list[int]:
    """Seed sets of 2-40 elements; about ``repeat`` of them repeat an
    earlier one, so a memo keyed on the premise would see hits."""
    out: list[int] = []
    for _ in range(count):
        if out and rng.random() < repeat:
            out.append(rng.choice(out))
        else:
            out.append(_sample_mask(rng, n, rng.randint(2, 40)))
    return out


def random_theory(rng: random.Random, n: int, m: int) -> list[tuple[int, int]]:
    """Random sparse Horn theory: premises of 1-3 elements, conclusions of
    1-2 elements, a few empty premises."""
    out = []
    for _ in range(m):
        k = 0 if rng.random() < 0.03 else rng.choice((1, 2, 2, 3))
        prem = _sample_mask(rng, n, k)
        conc = _sample_mask(rng, n, rng.choice((1, 1, 2))) & ~prem
        if conc == 0:
            conc = 1 << next(e for e in range(n) if not prem >> e & 1)
        out.append((prem, conc))
    return out


def complications(rng: random.Random, n: int, k: int, lo: int, hi: int) -> list[int]:
    """k negative clauses (sets that no model may cover) of lo-hi elements."""
    return [_sample_mask(rng, n, rng.randint(lo, hi)) for _ in range(k)]


def hypergraph(rng: random.Random, n: int, k: int, lo: int, hi: int) -> list[int]:
    """k edges of lo-hi elements over n vertices."""
    return [_sample_mask(rng, n, rng.randint(lo, hi)) for _ in range(k)]


#: the survey's worked instances, as hornkit text files
WORKED = {
    "eq15.imp": """elements: 1 2 3 4 5 6 7 8 9
1 -> 6
2 -> 5 6
3 -> 2
4 -> 3 6 8 9
5 -> 3 4 7
6 -> 9
7 -> 8
8 -> 7
""",
    "eq38.imp": """elements: 1 2 3 4 5 6
3 -> 5
1 5 -> 4
6 -> 3
2 3 -> 1
""",
    "fig4a.fam": """elements: 1 2 3 4 5 6 7
1 2
1 2 3 4
1 2 5
1 2 3 4 5 6 7
""",
    "acyc7.imp": """elements: 1 2 3 4 5 6
4 -> 5
6 -> 1
2 3 -> 4
2 3 -> 1
3 5 -> 6
3 4 -> 6
2 3 4 -> 5
""",
}
