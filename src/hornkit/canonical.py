"""Pseudoclosed sets, the Guigues-Duquenne base, redundancy removal, and
Shock's minimum-base algorithm.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator

from .closure import Closure, ClosureSource, _close_columnwise, _columns, source_universe
from .core import ImplicationSet, SetFamily, normalize
from .direct import canonical_direct


@dataclass(frozen=True, slots=True)
class PseudoclosedReport:
    """All pseudoclosed sets plus their closures (the essential closed sets)."""

    pseudoclosed: SetFamily
    essential_closures: SetFamily


def _leave_one_out(sigma: ImplicationSet) -> Iterator[tuple[int, int]]:
    """(i, closure of premise i under the other rules) for each rule i, left
    to right, that they do not entail; an entailed rule is dropped for good.
    Rule i is knocked out by a conclusion of 0 while its own check runs."""
    occ, need, concs, axioms = _columns(sigma)
    empty = [j for j, k in enumerate(need) if not k]
    for i, (prem, conc) in enumerate(sigma.mask_pairs()):
        concs[i] = 0
        if not prem:
            axioms = 0
            for j in empty:
                axioms |= concs[j]
        closed = _close_columnwise((occ, need, concs, axioms), conc, prem)
        if conc & ~closed:
            concs[i] = conc
            if not prem:
                axioms |= conc
            yield i, closed


def _gd_pairs(source: ClosureSource) -> list[tuple[int, int]]:
    """(P, c(P)) for every pseudoclosed P, by left-saturating a minimum base.

    Shock's base of the source (sigma itself, or the canonical direct base
    of a family or bare operator) is a nonredundant family of full
    implications A -> c(A); closing each premise under the others, by
    ``_leave_one_out``, gives the pseudoclosed sets (Day 1992). Only the
    stem search behind the canonical direct base has a size limit.
    """
    base = source if isinstance(source, ImplicationSet) else canonical_direct(source)
    minimum = shock_minimize(base)
    pairs = minimum.mask_pairs()
    return [(closed, pairs[i][1]) for i, closed in _leave_one_out(minimum)]


def pseudoclosed_sets(source: ClosureSource) -> PseudoclosedReport:
    """All pseudoclosed sets: the left-saturated premises of Shock's
    minimum base, polynomial in the size of an implication source."""
    u = source_universe(source)
    found = _gd_pairs(source)
    pseudo = SetFamily.from_masks(u, [p for p, _ in found])
    essential = SetFamily.from_masks(u, [cl for _, cl in found])
    return PseudoclosedReport(pseudoclosed=pseudo, essential_closures=essential)


def gd_base(source: ClosureSource) -> ImplicationSet:
    """The canonical (Guigues-Duquenne) base {P -> c(P) : P pseudoclosed}."""
    return ImplicationSet.from_pairs(source_universe(source), _gd_pairs(source)).sorted()


def remove_redundancy(sigma: ImplicationSet) -> ImplicationSet:
    """Drop, left to right, each implication entailed by the remaining ones.

    When an earlier and a later implication are interchangeable the earlier
    one is dropped; the survivors keep their input order.
    """
    kept = tuple(sigma.items[i] for i, _ in _leave_one_out(sigma))
    return ImplicationSet(sigma.universe, kept)


def trim_conclusions(sigma: ImplicationSet) -> ImplicationSet:
    """Shorten each A -> B to A -> B \\ A (drops implications that become empty)."""
    trimmed = [(p, c & ~p) for p, c in sigma.mask_pairs() if c & ~p]
    return ImplicationSet.from_pairs(sigma.universe, trimmed)


def shock_minimize(sigma: ImplicationSet) -> ImplicationSet:
    """Minimum base via Shock's method.

    Each A -> B becomes the full implication A -> c(A); duplicates merge and
    a redundancy pass leaves a nonredundant family of full implications,
    which is minimum.
    """
    c = Closure.from_sigma(sigma)
    closure_of = {p: c.of_mask(p) for p in dict.fromkeys(p for p, _ in sigma.mask_pairs())}
    fulls = [(p, cl) for p, cl in closure_of.items() if cl != p]
    return remove_redundancy(ImplicationSet.from_pairs(sigma.universe, fulls))


def is_minimum(sigma: ImplicationSet) -> bool:
    """True iff sigma (after normalization) already has minimum cardinality.

    Shock's base is minimum and polynomial to build, so no pseudoclosed
    set is needed.
    """
    return len(normalize(sigma)) == len(shock_minimize(sigma))
