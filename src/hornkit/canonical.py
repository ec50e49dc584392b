"""Pseudoclosed sets, the Guigues-Duquenne base, redundancy removal, and
Shock's minimum-base algorithm.
"""

from __future__ import annotations

from dataclasses import dataclass

from .closure import Closure, ClosureSource, _close_rowwise, source_universe
from .core import AttrSet, Implication, ImplicationSet, SetFamily, normalize
from .direct import canonical_direct


@dataclass(frozen=True, slots=True)
class PseudoclosedReport:
    """All pseudoclosed sets plus their closures (the essential closed sets)."""

    pseudoclosed: SetFamily
    essential_closures: SetFamily


def _gd_pairs(source: ClosureSource) -> list[tuple[int, int]]:
    """(P, c(P)) for every pseudoclosed P, by left-saturating a minimum base.

    Shock's base of the source (sigma itself, or the canonical direct base
    of a family or bare operator) is a nonredundant family of full
    implications A -> c(A); closing each premise under the other
    implications gives the pseudoclosed sets (Day 1992). Only the stem
    search behind the canonical direct base has a size limit.
    """
    base = source if isinstance(source, ImplicationSet) else canonical_direct(source)
    pairs = shock_minimize(base).mask_pairs()
    out = []
    for i, (prem, conc) in enumerate(pairs):
        # leave rule i out: an empty rule (0, 0) never adds anything
        pairs[i] = (0, 0)
        out.append((_close_rowwise(pairs, prem), conc))
        pairs[i] = (prem, conc)
    return out


def pseudoclosed_sets(source: ClosureSource) -> PseudoclosedReport:
    """All pseudoclosed sets: the left-saturated premises of Shock's
    minimum base, polynomial in the size of an implication source."""
    u = source_universe(source)
    found = _gd_pairs(source)
    pseudo = SetFamily(u, tuple(AttrSet(u, p) for p, _ in found)).canonical()
    essential = SetFamily(u, tuple(AttrSet(u, cl) for _, cl in found)).canonical()
    return PseudoclosedReport(pseudoclosed=pseudo, essential_closures=essential)


def gd_base(source: ClosureSource) -> ImplicationSet:
    """The canonical (Guigues-Duquenne) base {P -> c(P) : P pseudoclosed}."""
    u = source_universe(source)
    items = tuple(Implication(AttrSet(u, p), AttrSet(u, cl)) for p, cl in _gd_pairs(source))
    return ImplicationSet(u, items).sorted()


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
    """True iff sigma (after normalization) already has minimum cardinality.

    Shock's base is minimum and polynomial to build, so no pseudoclosed
    set is needed.
    """
    return len(normalize(sigma)) == len(shock_minimize(sigma))
