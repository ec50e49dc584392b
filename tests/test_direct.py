import pytest

from hornkit import (
    Closure,
    ImplicationSet,
    InvariantError,
    NotDirectError,
    OrderedBase,
    SetFamily,
    canonical_direct,
    classify_stems,
    close,
    d_basis,
    ordered_close,
    pseudoclosed_sets,
    quasiclosure,
    stem_table,
    step,
    unit_expand,
    unit_primes,
)

from conftest import (
    EQ25_MF,
    EQ27_CD,
    EQ35_BINARY,
    EQ35_DB,
    U6,
    aset,
    brute_stems,
    brute_closed_masks,
    fam,
    pairs,
    rand_sigma,
    rng_for,
    sig,
    uni,
)


def stems_as_masks(table, e):
    return {s.mask for s in table.stems_of[e]}


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

    def test_bound_refusal(self, monkeypatch):
        from hornkit import BoundExceededError
        from conftest import EQ15

        monkeypatch.setenv("HORNKIT_MAX_EXHAUSTIVE", "2")
        with pytest.raises(BoundExceededError):
            stem_table(EQ15)


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
