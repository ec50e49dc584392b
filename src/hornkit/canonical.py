"""Pseudoclosed sets, the Guigues-Duquenne base, redundancy removal, and
Shock's minimum-base algorithm.
"""

from __future__ import annotations

from dataclasses import dataclass

from .closure import Closure, ClosureSource, _close_rowwise, _next_closed
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
    """All pseudoclosed sets, by Ganter's NextClosure for pseudo-intents.

    Walks, in lectic order, the sets closed under L•, where L holds the
    pseudoclosed sets found so far: each such set is closed or
    pseudoclosed, and it is pseudoclosed exactly when the operator does
    not close it. Cost follows the number of closed plus pseudoclosed
    sets, not 2^n.
    """
    # most sets the loop hands the operator are closed already, which the
    # row kernel settles in one pass over the rules
    c = Closure.wrap(source, layout="row")
    u = c.universe
    n = u.size
    limit = exhaustive_bound() if bound is None else bound
    if n > limit:
        raise BoundExceededError(
            f"pseudoclosed scan over a {n}-element universe (bound {limit})"
        )
    kernel = c._fn
    found: list[tuple[int, int]] = []  # (pseudoclosed mask, its closure)

    def close_found(mask: int) -> int:
        # L•: add c(P) for each found P strictly inside, to a fixpoint;
        # a P once strictly inside stays so as the set grows
        pending = found
        while True:
            new = mask
            rest = []
            for p, cp in pending:
                if p & ~mask == 0 and p != mask:
                    new |= cp
                else:
                    rest.append((p, cp))
            if new == mask:
                return mask
            mask = new
            pending = rest

    cur: int | None = 0  # no pseudoclosed set is known yet, so ∅ is L•-closed
    while cur is not None:
        cl = kernel(cur)
        if cl != cur:
            found.append((cur, cl))
        cur = _next_closed(close_found, n, cur)
    pseudo = SetFamily(u, tuple(AttrSet(u, m) for m, _ in found)).canonical()
    essential = SetFamily(u, tuple(AttrSet(u, cl) for _, cl in found)).canonical()
    return PseudoclosedReport(pseudoclosed=pseudo, essential_closures=essential)


def gd_base(source: ClosureSource, bound: int | None = None) -> ImplicationSet:
    """The canonical (Guigues-Duquenne) base {P -> c(P) : P pseudoclosed}."""
    c = Closure.wrap(source)
    report = pseudoclosed_sets(source, bound)
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
    """True iff sigma (after normalization) already has minimum cardinality.

    Shock's base is minimum and polynomial to build, so no pseudoclosed
    set is needed.
    """
    return len(normalize(sigma)) == len(shock_minimize(sigma))
