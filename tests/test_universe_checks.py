"""Every public callable that takes two universe-bearing arguments refuses
a pair from different universes with UniverseMismatchError: universes of
different sizes, and universes of one size that differ only in labels.
Callables that take an element position refuse one outside the universe
the same way.

The table must name every callable export of ``hornkit``, either as a case
or as taking at most one universe-bearing argument, so a new export has to
be placed in one of the two.
"""

import pytest

import hornkit
from hornkit import (
    Closure,
    HornClause,
    HornSystem,
    Implication,
    ImplicationGraph,
    ImplicationSet,
    MaxNonCover,
    OrderedBase,
    PseudoclosedReport,
    Row012n,
    RowSystem,
    SetFamily,
    StemTable,
    Universe,
    UniverseMismatchError,
    classify_stems,
    close,
    close_family,
    close_trace,
    cmax_from_stems,
    consensus_closure,
    d_basis,
    entails,
    enumerate_compact,
    equivalent,
    implications_of,
    impose_complication,
    impose_implication,
    is_closed,
    is_prime_implicate,
    max_noncovers,
    ordered_close,
    quasiclosure,
    stem_table,
    stems_from_meetirr,
    step,
)

AB = Universe("a b".split())
#: the other universe: one more element, or the same size with other labels
OTHERS = {"size": Universe("a b c".split()), "labels": Universe("x y".split())}


def sigma(u):
    return ImplicationSet.from_pairs(u, [(1, 2)])


def family(u):
    return SetFamily.from_masks(u, [1, u.full_mask])


def one(u):
    return u.from_mask(1)


def rule(u):
    return Implication(u.from_mask(1), u.from_mask(2))


def clause(u):
    return HornClause(u.from_mask(1), 1)


def row(u):
    return Row012n(u, 0, 0, u.full_mask, ())


#: case name (export, then the method when it is one) -> call with one
#: argument over ``u`` and the other over ``v``
CASES = {
    "AttrSet.__or__": lambda u, v: one(u) | one(v),
    "AttrSet.__and__": lambda u, v: one(u) & one(v),
    "AttrSet.__sub__": lambda u, v: one(u) - one(v),
    "AttrSet.issubset": lambda u, v: one(u).issubset(one(v)),
    "Implication": lambda u, v: Implication(one(u), one(v)),
    "ImplicationSet": lambda u, v: ImplicationSet(u, [rule(v)]),
    "SetFamily": lambda u, v: SetFamily(u, [one(v)]),
    "Closure.__call__": lambda u, v: Closure.from_sigma(sigma(u))(one(v)),
    "HornClause.subsumes": lambda u, v: clause(u).subsumes(clause(v)),
    # another positive literal: subsumption is decided by the universes first
    "HornClause.subsumes.positive": lambda u, v: clause(u).subsumes(HornClause(v.empty(), 0)),
    "HornSystem": lambda u, v: HornSystem(sigma(u), family(v)),
    "OrderedBase": lambda u, v: OrderedBase(u, (rule(v),), 0),
    "PseudoclosedReport": lambda u, v: PseudoclosedReport(family(u), family(v)),
    "StemTable.stems_of": lambda u, v: StemTable(u, {0: family(v)}, {}),
    "StemTable.roots_of": lambda u, v: StemTable(u, {}, {one(v): one(v)}),
    "MaxNonCover.max_of": lambda u, v: MaxNonCover(u, {0: family(v)}, {}),
    "MaxNonCover.cmax_of": lambda u, v: MaxNonCover(u, {}, {0: family(v)}),
    "Row012n.intersects": lambda u, v: row(u).intersects(row(v)),
    "RowSystem": lambda u, v: RowSystem(u, (row(v),)),
    "classify_stems": lambda u, v: classify_stems(stem_table(sigma(u)), sigma(v)),
    "close": lambda u, v: close(sigma(u), one(v)),
    "close_family": lambda u, v: close_family(family(u), one(v)),
    "close_trace": lambda u, v: close_trace(sigma(u), one(v)),
    "consensus_closure": lambda u, v: consensus_closure([clause(u), clause(v)]),
    "entails": lambda u, v: entails(sigma(u), rule(v)),
    "equivalent": lambda u, v: equivalent(sigma(u), sigma(v)),
    "implications_of": lambda u, v: implications_of([clause(v)], u),
    "impose_complication": lambda u, v: impose_complication(enumerate_compact(sigma(u)), one(v)),
    "impose_implication": lambda u, v: impose_implication(enumerate_compact(sigma(u)), rule(v)),
    "is_closed": lambda u, v: is_closed(sigma(u), one(v)),
    "is_prime_implicate.clause": lambda u, v: is_prime_implicate(sigma(u), clause(v)),
    "is_prime_implicate.rule": lambda u, v: is_prime_implicate(sigma(u), rule(v)),
    "ordered_close": lambda u, v: ordered_close(d_basis(sigma(u)), one(v)),
    "quasiclosure": lambda u, v: quasiclosure(sigma(u), one(v)),
    "step": lambda u, v: step(sigma(u), one(v)),
}

#: case name -> call with an element position ``e`` of a source over ``u``
POSITION_CASES = {
    "HornClause": lambda u, e: HornClause(u.empty(), e),
    "ImplicationGraph.reachable_from":
        lambda u, e: ImplicationGraph.from_sigma(sigma(u)).reachable_from(e),
    "cmax_from_stems": lambda u, e: cmax_from_stems(stem_table(sigma(u)), e),
    "StemTable.stems_of position": lambda u, e: StemTable(u, {e: family(u)}, {}),
    "max_noncovers.sigma": lambda u, e: max_noncovers(sigma(u), e),
    "max_noncovers.family": lambda u, e: max_noncovers(family(u), e),
    "stems_from_meetirr": lambda u, e: stems_from_meetirr(family(u), e),
}

#: callable exports taking at most one universe-bearing argument (a
#: universe beside text, masks or a kernel does not count)
SINGLE = {
    "Universe", "ClosureTrace", "MeasureReport", "StemClassification",
    "acyclic_base", "aggregate", "canonical_direct", "clauses_of", "count", "d_basis",
    "enumerate_closed_lectic", "enumerate_compact", "enumerate_horn", "enumerate_horn_lectic",
    "gd_base", "horn_satisfiable", "is_acyclic", "is_minimum", "load_family",
    "load_implications", "max_noncover_table", "measures", "meet_irreducibles", "minimal_keys",
    "minimal_transversals", "near_minimum_base", "normalize", "parse_family",
    "parse_implication", "parse_implications", "parse_universe", "pseudoclosed_sets",
    "remove_redundancy", "shock_minimize", "stem_table", "to_012", "trim_conclusions",
    "unit_expand", "unit_primes",
}


def test_table_names_every_callable_export():
    exports = {
        name for name in hornkit.__all__
        if callable(getattr(hornkit, name))
        and not (isinstance(getattr(hornkit, name), type)
                 and issubclass(getattr(hornkit, name), Exception))
    }
    covered = {name.split(".")[0] for name in (*CASES, *POSITION_CASES)}
    assert covered <= exports and SINGLE <= exports
    assert not covered & SINGLE
    assert covered | SINGLE == exports


@pytest.mark.parametrize("kind", sorted(OTHERS))
@pytest.mark.parametrize("name", sorted(CASES))
def test_mismatched_universes_refused(name, kind):
    call = CASES[name]
    call(AB, AB)  # the same universe is accepted
    with pytest.raises(UniverseMismatchError, match="over another universe"):
        call(AB, OTHERS[kind])


@pytest.mark.parametrize("name", sorted(POSITION_CASES))
def test_position_outside_universe_refused(name):
    call = POSITION_CASES[name]
    for e in range(AB.size):
        call(AB, e)
    for e in (AB.size, 5, -1):
        with pytest.raises(UniverseMismatchError):
            call(AB, e)


def test_refused_row_system_and_base_answer_nothing():
    # unchecked, these answer wrongly: 8 subsets of a 2-element universe,
    # and a base whose rules range over other labels
    abc = OTHERS["size"]
    with pytest.raises(UniverseMismatchError):
        RowSystem(AB, (Row012n(abc, 0, 0, abc.full_mask, ()),)).count()
    with pytest.raises(UniverseMismatchError):
        OrderedBase(AB, (rule(OTHERS["labels"]),), 0)
    assert not Row012n(AB, 1, 2, 0, ()).intersects(Row012n(AB, 2, 1, 0, ()))


@pytest.mark.parametrize("succ", [(0,), (0, 0, 0), (0, 4), (1, -1)])
def test_graph_arcs_outside_universe_refused(succ):
    # unchecked, find_cycle indexes past the successor tuple
    with pytest.raises(UniverseMismatchError):
        ImplicationGraph(AB, succ)
    assert ImplicationGraph(AB, (2, 1)).find_cycle() == (0, 1, 0)


def test_membership_outside_universe_is_false():
    s = AB.full()
    assert 0 in s and 1 in s
    for pos in (AB.size, -1, -AB.size, 1 << 70, -(1 << 70)):
        assert pos not in s
