"""The value contract of every frozen value type, one table row per class:
the repr text, eq and hash, inequality against other classes, pickle and
deepcopy round trips, refused assignment and deletion, keyword and
positional construction, ``__match_args__``, and the constructor's checks.

The repr texts are those the types printed as generated dataclasses, so
they pin the text that scripts and doctests may read.
"""

import copy
import os
import pickle
import subprocess
import sys
from dataclasses import FrozenInstanceError
from pathlib import Path
from typing import Callable, NamedTuple

import pytest

from hornkit import (
    AttrSet,
    ClosureTrace,
    HornClause,
    HornkitError,
    HornSystem,
    Implication,
    ImplicationGraph,
    ImplicationSet,
    InvariantError,
    MaxNonCover,
    MeasureReport,
    OrderedBase,
    PseudoclosedReport,
    Row012n,
    RowSystem,
    SetFamily,
    StemClassification,
    StemTable,
    Universe,
    UniverseMismatchError,
)

AB = Universe("a b".split())
ABC = Universe("a b c".split())
XY = Universe("x y".split())
A, B, AB_SET = AB.from_mask(1), AB.from_mask(2), AB.from_mask(3)


def fam(u, *masks):
    return SetFamily.from_masks(u, masks)


def rule(u, p, c):
    return Implication(u.from_mask(p), u.from_mask(c))


class Row(NamedTuple):
    cls: type
    fields: tuple[str, ...]
    #: builds the value by keywords, and an unequal value of the same class
    make: Callable
    other: Callable
    repr: str
    #: constructor calls that must fail, with the error they raise
    bad: tuple[tuple[Callable, type], ...] = ()
    hashable: bool = True


ROWS = [
    Row(
        AttrSet, ("universe", "mask"),
        lambda: AttrSet(universe=AB, mask=1), lambda: AttrSet(AB, 2),
        "{a}",
        ((lambda: AttrSet(AB, 4), UniverseMismatchError),
         (lambda: AttrSet(AB, -1), UniverseMismatchError)),
    ),
    Row(
        Implication, ("premise", "conclusion"),
        lambda: Implication(premise=A, conclusion=B), lambda: Implication(B, A),
        "(a -> b)",
        ((lambda: Implication(A, XY.from_mask(2)), UniverseMismatchError),),
    ),
    Row(
        MeasureReport, ("ca", "s", "lhs", "rhs"),
        lambda: MeasureReport(ca=2, s=5, lhs=2, rhs=3), lambda: MeasureReport(2, 5, 3, 2),
        "MeasureReport(ca=2, s=5, lhs=2, rhs=3)",
        ((lambda: MeasureReport(2, 6, 2, 3), InvariantError),),
    ),
    Row(
        ClosureTrace, ("rounds",),
        lambda: ClosureTrace(rounds=(A, AB_SET, AB_SET)), lambda: ClosureTrace((B, B)),
        "ClosureTrace(rounds=({a}, {a b}, {a b}))",
    ),
    Row(
        PseudoclosedReport, ("pseudoclosed", "essential_closures"),
        lambda: PseudoclosedReport(pseudoclosed=fam(AB, 1, 3), essential_closures=fam(AB, 3)),
        lambda: PseudoclosedReport(fam(AB, 1), fam(AB, 3)),
        "PseudoclosedReport(pseudoclosed=SetFamily(universe=Universe(a b), sets=({a}, {a b})),"
        " essential_closures=SetFamily(universe=Universe(a b), sets=({a b},)))",
        ((lambda: PseudoclosedReport(fam(AB, 1), fam(XY, 1)), UniverseMismatchError),),
    ),
    Row(
        StemClassification, ("strong", "closure_minimal_for"),
        lambda: StemClassification(strong=True, closure_minimal_for=B),
        lambda: StemClassification(False, B),
        "StemClassification(strong=True, closure_minimal_for={b})",
    ),
    Row(
        OrderedBase, ("universe", "items", "binary_count"),
        lambda: OrderedBase(universe=AB, items=(rule(AB, 1, 2),), binary_count=1),
        lambda: OrderedBase(AB, (rule(AB, 1, 2),), 0),
        "OrderedBase(universe=Universe(a b), items=((a -> b),), binary_count=1)",
        ((lambda: OrderedBase(AB, (rule(XY, 1, 2),), 0), UniverseMismatchError),
         (lambda: OrderedBase(ABC, (rule(ABC, 3, 4),), 1), InvariantError)),
    ),
    Row(
        StemTable, ("universe", "stems_of", "roots_of"),
        lambda: StemTable(universe=AB, stems_of={1: fam(AB, 1)}, roots_of={A: B}),
        lambda: StemTable(AB, {1: fam(AB, 1)}, {}),
        "StemTable(universe=Universe(a b), stems_of={1: SetFamily(universe=Universe(a b),"
        " sets=({a},))}, roots_of={{a}: {b}})",
        ((lambda: StemTable(AB, {1: fam(XY, 1)}, {}), UniverseMismatchError),),
        hashable=False,
    ),
    Row(
        MaxNonCover, ("universe", "max_of", "cmax_of"),
        lambda: MaxNonCover(universe=AB, max_of={0: fam(AB, 2)}, cmax_of={0: fam(AB, 1)}),
        lambda: MaxNonCover(AB, {0: fam(AB, 2)}, {}),
        "MaxNonCover(universe=Universe(a b), max_of={0: SetFamily(universe=Universe(a b),"
        " sets=({b},))}, cmax_of={0: SetFamily(universe=Universe(a b), sets=({a},))})",
        ((lambda: MaxNonCover(AB, {}, {0: fam(XY, 1)}), UniverseMismatchError),),
        hashable=False,
    ),
    Row(
        HornClause, ("negatives", "positive"),
        lambda: HornClause(negatives=A, positive=1), lambda: HornClause(A, None),
        "HornClause(negatives={a}, positive=1)",
        ((lambda: HornClause(A, 2), UniverseMismatchError),
         (lambda: HornClause(A, 0), HornkitError)),
    ),
    Row(
        ImplicationGraph, ("universe", "succ"),
        lambda: ImplicationGraph(universe=AB, succ=(2, 0)), lambda: ImplicationGraph(AB, (0, 1)),
        "ImplicationGraph(universe=Universe(a b), succ=(2, 0))",
        ((lambda: ImplicationGraph(AB, (0,)), UniverseMismatchError),
         (lambda: ImplicationGraph(AB, (0, 0, 0)), UniverseMismatchError),
         (lambda: ImplicationGraph(AB, (0, 4)), UniverseMismatchError),
         (lambda: ImplicationGraph(AB, (-1, 0)), UniverseMismatchError)),
    ),
    Row(
        Row012n, ("universe", "ones", "zeros", "free", "bubbles"),
        lambda: Row012n(universe=ABC, ones=1, zeros=0, free=0, bubbles=(6,)),
        lambda: Row012n(ABC, 0, 1, 0, (6,)),
        "Row012n(universe=Universe(a b c), ones=1, zeros=0, free=0, bubbles=(6,))",
        ((lambda: Row012n(ABC, 1, 0, 2, ()), InvariantError),
         (lambda: Row012n(ABC, 1, 0, 2, (4,)), InvariantError)),
    ),
    Row(
        RowSystem, ("universe", "rows"),
        lambda: RowSystem(universe=AB, rows=(Row012n(AB, 1, 0, 2, ()),)),
        lambda: RowSystem(AB, ()),
        "RowSystem(universe=Universe(a b), rows=(Row012n(universe=Universe(a b), ones=1,"
        " zeros=0, free=2, bubbles=()),))",
        ((lambda: RowSystem(AB, (Row012n(XY, 1, 0, 2, ()),)), UniverseMismatchError),),
    ),
    Row(
        HornSystem, ("sigma", "gamma"),
        # the complications are kept as their minimal members
        lambda: HornSystem(sigma=ImplicationSet.from_pairs(AB, [(1, 2)]), gamma=fam(AB, 1, 3)),
        lambda: HornSystem(ImplicationSet.from_pairs(AB, [(1, 2)]), fam(AB, 3)),
        "HornSystem(sigma=ImplicationSet(universe=Universe(a b), items=((a -> b),)),"
        " gamma=SetFamily(universe=Universe(a b), sets=({a},)))",
        ((lambda: HornSystem(ImplicationSet.from_pairs(AB, []), fam(XY, 1)),
          UniverseMismatchError),),
    ),
]

BY_NAME = {row.cls.__name__: row for row in ROWS}
NAMES = sorted(BY_NAME)


def test_one_row_per_value_class():
    assert len(BY_NAME) == len(ROWS) == 14


@pytest.mark.parametrize("name", NAMES)
def test_repr(name):
    row = BY_NAME[name]
    assert repr(row.make()) == row.repr


@pytest.mark.parametrize("name", NAMES)
def test_eq_and_hash(name):
    row = BY_NAME[name]
    v, w, other = row.make(), row.make(), row.other()
    assert v == w and not v != w
    assert v != other and not v == other
    if row.hashable:
        assert hash(v) == hash(w)
        assert len({v, w, other}) == 2
    else:
        with pytest.raises(TypeError, match="unhashable"):
            hash(v)


@pytest.mark.parametrize("name", NAMES)
def test_other_classes_are_never_equal(name):
    v = BY_NAME[name].make()
    values = tuple(getattr(v, f) for f in BY_NAME[name].fields)
    others = [r.make() for r in ROWS if r.cls is not type(v)]
    for x in (values, list(values), object(), None, *others):
        assert v.__eq__(x) is NotImplemented
        assert v != x and not v == x


@pytest.mark.parametrize("name", NAMES)
def test_pickle_and_deepcopy_round_trip(name):
    row = BY_NAME[name]
    v = row.make()
    for back in (pickle.loads(pickle.dumps(v)), copy.deepcopy(v), copy.copy(v)):
        assert type(back) is row.cls
        assert back == v and repr(back) == row.repr
        if row.hashable:
            assert hash(back) == hash(v)


@pytest.mark.parametrize("name", NAMES)
def test_assignment_and_deletion_refused(name):
    row = BY_NAME[name]
    v = row.make()
    for f in (*row.fields, "unknown"):
        with pytest.raises(FrozenInstanceError):
            setattr(v, f, None)
        with pytest.raises(FrozenInstanceError):
            delattr(v, f)
    assert repr(v) == row.repr


@pytest.mark.parametrize("name", NAMES)
def test_fields_construct_by_keyword_and_position(name):
    row = BY_NAME[name]
    v = row.make()
    assert row.cls.__match_args__ == row.fields
    values = [getattr(v, f) for f in row.fields]
    assert row.cls(*values) == v
    assert row.cls(**dict(zip(row.fields, values))) == v
    match v:
        case row.cls(first):
            assert first is values[0]
        case _:
            pytest.fail("no class pattern match")


@pytest.mark.parametrize("name", NAMES)
def test_constructor_checks(name):
    for call, error in BY_NAME[name].bad:
        with pytest.raises(error):
            call()


def test_cli_import_leaves_dataclasses_out():
    # the value types are plain slots classes; ``dataclasses`` (and the
    # ``inspect`` and ``ast`` behind it) would add to every CLI start
    env = dict(os.environ, PYTHONPATH=str(Path(__file__).resolve().parents[1] / "src"))
    code = (
        "import sys, hornkit.cli\n"
        "print(' '.join(m for m in ('dataclasses', 'inspect') if m in sys.modules))\n"
    )
    done = subprocess.run([sys.executable, "-S", "-c", code], capture_output=True, text=True,
                          env=env)
    assert done.returncode == 0, done.stderr
    assert done.stdout.strip() == ""
