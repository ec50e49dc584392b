import pytest

from hornkit import (
    Closure,
    ImplicationSet,
    SetFamily,
    UniverseMismatchError,
    close_family,
    cmax_from_stems,
    max_noncovers,
    meet_irreducibles,
    minimal_keys,
    minimal_transversals,
    stem_table,
    stems_from_meetirr,
)

from hornkit.core import submasks
from hornkit.dualize import _max_avoiding, _row_tops

from conftest import (
    EQ25_MF,
    EQ38,
    U6,
    aset,
    brute_closed_masks,
    brute_meet_irreducibles,
    brute_minimal_keys,
    brute_mtr,
    fam,
    rand_antichain,
    rand_sigma,
    rng_for,
    seeded_source,
    sig,
    uni,
)


def masks(family):
    return family.as_mask_set()


class TestRowTops:
    def test_rows_partition_the_closed_sets(self):
        # _row_tops reads bubble-free rows, each the interval [forced, top],
        # with the rules imposed in split order: the rows must be pairwise
        # disjoint, hold exactly the closed sets, and give max(F,e)
        for case in range(40):
            rng = rng_for(64000 + case)
            n = rng.randint(1, 9)
            s = rand_sigma(rng, uni(n))
            tops = _row_tops(s)
            for i, (f1, t1) in enumerate(tops):
                for f2, t2 in tops[i + 1 :]:
                    # two intervals meet iff both tops hold both bottoms
                    assert (f1 | f2) & ~(t1 & t2)
            closed = brute_closed_masks(n, s)
            members = [f | sub for f, t in tops for sub in submasks(t & ~f)]
            assert sorted(members) == closed
            for e in range(n):
                avoiding = [m for m in closed if not m >> e & 1]
                want = {
                    m
                    for m in avoiding
                    if not any(x != m and m & ~x == 0 for x in avoiding)
                }
                assert set(_max_avoiding(tops, e)) == want
                assert masks(max_noncovers(s, e)) == want


class TestMinimalTransversals:
    def test_worked_example(self):
        h = fam(U6, "1 3 4 6", "3 4 5 6", "1 2 4")
        got = minimal_transversals(h)
        assert {s.render() for s in got} == {"4", "1 3", "1 6", "2 3", "2 6", "1 5"}

    def test_singleton(self):
        u = uni(2)
        assert {s.render() for s in minimal_transversals(fam(u, "1"))} == {"1"}

    def test_empty_conventions(self):
        u = uni(2)
        # no edges: the empty set hits them all
        assert masks(minimal_transversals(SetFamily(u, ()))) == {0}
        # an empty edge cannot be hit
        assert len(minimal_transversals(fam(u, "-"))) == 0

    def test_non_antichain_minimized_first(self):
        u = uni(3)
        got = minimal_transversals(fam(u, "1 2", "1 2 3", "3"))
        want = minimal_transversals(fam(u, "1 2", "3"))
        assert masks(got) == masks(want)

    def test_involution_against_brute_oracle(self):
        for case in range(40):
            rng = rng_for(26000 + case)
            n = rng.randint(1, 7)
            u = uni(n)
            h = rand_antichain(rng, u)
            if any(s.mask == 0 for s in h):
                continue
            tr = minimal_transversals(h)
            assert masks(tr) == brute_mtr(n, h.masks())
            assert masks(minimal_transversals(tr)) == masks(h)


class TestMaxNoncovers:
    def test_family_route(self):
        got = max_noncovers(EQ25_MF, U6.index["4"])
        assert {s.render() for s in got} == {"2 5", "1 2", "3 5 6"}

    def test_rows_route(self):
        got = max_noncovers(EQ38, U6.index["4"])
        assert {s.render() for s in got} == {"2 5", "1 2", "3 5 6"}

    def test_top_only_family(self):
        u = uni(3)
        top = fam(u, "1 2 3")
        for e in range(3):
            assert len(max_noncovers(top, e)) == 0

    def test_element_out_of_range(self):
        with pytest.raises(UniverseMismatchError):
            max_noncovers(EQ25_MF, 9)

    def test_matches_definition(self):
        for case in range(20):
            rng = rng_for(27000 + case)
            n = rng.randint(2, 6)
            u = uni(n)
            s = rand_sigma(rng, u)
            closed = brute_closed_masks(n, s)
            for e in range(n):
                avoiding = [m for m in closed if not m >> e & 1]
                want = {
                    m
                    for m in avoiding
                    if not any(x != m and m & ~x == 0 for x in avoiding)
                }
                assert masks(max_noncovers(s, e)) == want


class TestMeetIrreducibles:
    def test_eq38_system(self):
        got = meet_irreducibles(EQ38)
        assert masks(got) == masks(EQ25_MF)

    def test_powerset(self):
        u = uni(3)
        got = meet_irreducibles(ImplicationSet(u, ()))
        assert {s.render() for s in got} == {"1 2", "1 3", "2 3"}

    def test_single_closed_set(self):
        u = uni(3)
        got = meet_irreducibles(sig(u, "-> 1 2 3"))
        assert len(got) == 0

    def test_rows_vs_brute_methods(self):
        for case in range(25):
            rng = rng_for(28000 + case)
            n = rng.randint(2, 7)
            s = rand_sigma(rng, uni(n))
            assert masks(meet_irreducibles(s)) == brute_meet_irreducibles(
                n, brute_closed_masks(n, s)
            )

    def test_matches_definitional_oracle(self):
        for case in range(25):
            rng = rng_for(29000 + case)
            n = rng.randint(2, 6)
            s = rand_sigma(rng, uni(n))
            closed = brute_closed_masks(n, s)
            assert masks(meet_irreducibles(s)) == brute_meet_irreducibles(n, closed)

    def test_generates_the_same_closure(self):
        for case in range(15):
            rng = rng_for(30000 + case)
            n = rng.randint(2, 6)
            u = uni(n)
            s = rand_sigma(rng, u)
            mi = meet_irreducibles(s)
            c = Closure.from_sigma(s)
            for m in range(1 << n):
                assert close_family(mi, u.from_mask(m)).mask == c.of_mask(m)


class TestTheorem4Bridges:
    def test_stems_from_meetirr_golden(self):
        got = stems_from_meetirr(EQ25_MF, U6.index["4"])
        assert {s.render() for s in got} == {"1 3", "1 6", "2 3", "2 6", "1 5"}

    def test_rootless_elements(self):
        assert len(stems_from_meetirr(EQ25_MF, U6.index["2"])) == 0
        assert len(stems_from_meetirr(EQ25_MF, U6.index["6"])) == 0

    def test_cmax_from_stems_golden(self):
        t = stem_table(EQ25_MF)
        got = cmax_from_stems(t, U6.index["4"])
        assert {s.render() for s in got} == {"1 3 4 6", "3 4 5 6", "1 2 4"}

    def test_rootless_element_cmax(self):
        u = uni(3)
        t = stem_table(ImplicationSet(u, ()))
        got = cmax_from_stems(t, 0)
        assert {s.render() for s in got} == {"1"}

    def test_round_trips_random(self):
        for case in range(25):
            rng = rng_for(31000 + case)
            n = rng.randint(2, 6)
            u = uni(n)
            s = rand_sigma(rng, u)
            mi = meet_irreducibles(s)
            t = stem_table(s)
            for e in range(n):
                via_mtr = stems_from_meetirr(mi, e)
                assert masks(via_mtr) == masks(t.stems_of[e])
                cmax = cmax_from_stems(t, e)
                want_cmax = {
                    s2.complement().mask for s2 in max_noncovers(s, e)
                }
                assert masks(cmax) == want_cmax

    def test_transversal_membership_matches_closure(self):
        # e lies in close(Y) exactly when Y hits every complement of a
        # maximal e-avoiding closed set
        for case in range(15):
            rng = rng_for(32000 + case)
            n = rng.randint(2, 6)
            u = uni(n)
            s = rand_sigma(rng, u)
            c = Closure.from_sigma(s)
            cmaxes = {
                e: [x.complement().mask for x in max_noncovers(s, e)]
                for e in range(n)
            }
            for y in range(1 << n):
                cy = c.of_mask(y)
                for e in range(n):
                    hits = all(y & comp for comp in cmaxes[e])
                    assert hits == bool(cy >> e & 1)


class TestMinimalKeys:
    def test_worked_example(self):
        got = minimal_keys(EQ38)
        assert {s.render() for s in got} == {"2 6"}
        assert Closure.from_sigma(EQ38).of_mask(aset(U6, "2 6").mask) == U6.full_mask

    def test_powerset_key_is_everything(self):
        u = uni(3)
        got = minimal_keys(ImplicationSet(u, ()))
        assert masks(got) == {u.full_mask}

    def test_everything_generated_by_empty(self):
        u = uni(3)
        got = minimal_keys(sig(u, "-> 1 2 3"))
        assert masks(got) == {0}

    def test_keys_generate_and_are_minimal(self):
        for case in range(15):
            rng = rng_for(33000 + case)
            n = rng.randint(2, 6)
            u = uni(n)
            s = rand_sigma(rng, u)
            c = Closure.from_sigma(s)
            keys = minimal_keys(s)
            full = u.full_mask
            want = {
                m
                for m in range(1 << n)
                if c.of_mask(m) == full
                and all(
                    c.of_mask(m & ~(1 << p)) != full for p in range(n) if m >> p & 1
                )
            }
            assert masks(keys) == want

    def test_matches_brute_force_on_every_source_kind(self):
        # implication files, families with repeated, empty and full members,
        # and bare operators of either, n = 1-8: the hyperplanes come off
        # the row tops, and family input keeps the transversal route
        for case in range(330):
            n, source, closed = seeded_source(59000, case, full=True)
            assert masks(minimal_keys(source)) == brute_minimal_keys(n, closed), case

    @pytest.mark.parametrize("n", [1, 2, 5])
    def test_only_e_closed(self, n):
        # F = {E}: E has no hyperplane, so the empty set is the one key
        u = uni(n)
        e = " ".join(str(p) for p in range(1, n + 1))
        for source in (SetFamily(u, ()), fam(u, e), fam(u, e, e), sig(u, f"-> {e}")):
            for s in (source, Closure.wrap(source)):
                assert masks(minimal_keys(s)) == {0}
