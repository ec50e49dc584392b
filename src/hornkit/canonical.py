"""Pseudoclosed sets, the Guigues-Duquenne base, redundancy removal, and
Shock's minimum-base algorithm.
"""

from __future__ import annotations

from dataclasses import dataclass

from .closure import Closure, ClosureSource, _close_rowwise
from .core import (
    AttrSet,
    Implication,
    ImplicationSet,
    SetFamily,
    exhaustive_bound,
    normalize,
)
from .errors import BoundExceededError


@dataclass(frozen=True, slots=True)
class PseudoclosedReport:
    """All pseudoclosed sets plus their closures (the essential closed sets)."""

    pseudoclosed: SetFamily
    essential_closures: SetFamily


def pseudoclosed_sets(
    source: ClosureSource, bound: int | None = None
) -> PseudoclosedReport:
    """All pseudoclosed sets, by cardinality-ascending scan.

    Uses the recursive characterization: P is pseudoclosed iff P is not
    closed and c(P0) ⊆ P for every pseudoclosed P0 strictly inside P.
    """
    c = Closure.wrap(source)
    u = c.universe
    n = u.size
    limit = exhaustive_bound() if bound is None else bound
    if n > limit:
        raise BoundExceededError(
            f"pseudoclosed scan over a {n}-element universe (bound {limit})"
        )
    found: list[tuple[int, int]] = []  # (pseudoclosed mask, its closure)
    for mask in sorted(range(1 << n), key=lambda m: m.bit_count()):
        cl = c.of_mask(mask)
        if cl == mask:
            continue
        ok = True
        for p0, cp0 in found:
            if p0 != mask and p0 & ~mask == 0 and cp0 & ~mask:
                ok = False
                break
        if ok:
            found.append((mask, cl))
    pseudo = SetFamily(u, tuple(AttrSet(u, m) for m, _ in found)).canonical()
    essential = SetFamily(u, tuple(AttrSet(u, cl) for _, cl in found)).canonical()
    return PseudoclosedReport(pseudoclosed=pseudo, essential_closures=essential)


def gd_base(source: ClosureSource, bound: int | None = None) -> ImplicationSet:
    """The canonical (Guigues-Duquenne) base {P -> c(P) : P pseudoclosed}."""
    c = Closure.wrap(source)
    report = pseudoclosed_sets(c, bound)
    u = c.universe
    items = tuple(
        Implication(p, AttrSet(u, c.of_mask(p.mask))) for p in report.pseudoclosed
    )
    return ImplicationSet(u, items)


def remove_redundancy(sigma: ImplicationSet) -> ImplicationSet:
    """Drop, left to right, each implication entailed by the remaining ones.

    When an earlier and a later implication are interchangeable the earlier
    one is dropped; the survivors keep their input order.
    """
    pairs = sigma.mask_pairs()
    kept = []
    for i, imp in enumerate(sigma):
        prem, conc = pairs[i]
        # leave rule i out: an empty rule (0, 0) never adds anything
        pairs[i] = (0, 0)
        if conc & ~_close_rowwise(pairs, prem):
            pairs[i] = (prem, conc)
            kept.append(imp)
    return ImplicationSet(sigma.universe, tuple(kept))


def trim_conclusions(sigma: ImplicationSet) -> ImplicationSet:
    """Shorten each A -> B to A -> B \\ A (drops implications that become empty)."""
    u = sigma.universe
    items = []
    for imp in sigma:
        rest = imp.conclusion - imp.premise
        if rest.mask:
            items.append(Implication(imp.premise, rest))
    return ImplicationSet(u, tuple(items))


def shock_minimize(sigma: ImplicationSet, trim: bool = False) -> ImplicationSet:
    """Minimum base via Shock's method.

    Each A -> B becomes the full implication A -> c(A); duplicates merge and
    a redundancy pass leaves a nonredundant family of full implications,
    which is minimum.
    """
    u = sigma.universe
    c = Closure.from_sigma(sigma)
    fulls: list[Implication] = []
    seen: set[int] = set()
    for imp in sigma:
        p = imp.premise.mask
        if p in seen:
            continue
        seen.add(p)
        cl = c.of_mask(p)
        if cl == p:
            continue
        fulls.append(Implication(imp.premise, AttrSet(u, cl)))
    out = remove_redundancy(ImplicationSet(u, tuple(fulls)))
    return trim_conclusions(out) if trim else out


def is_minimum(sigma: ImplicationSet) -> bool:
    """True iff sigma (after normalization) already has minimum cardinality."""
    return len(normalize(sigma)) == len(gd_base(sigma))
