import copy
import pickle
from itertools import combinations

import pytest

from hornkit import (
    BoundExceededError,
    Closure,
    Implication,
    ImplicationSet,
    SetFamily,
    StemTable,
    Universe,
    UniverseMismatchError,
    canonical_direct,
    close,
    close_family,
    close_trace,
    d_basis,
    entails,
    enumerate_closed_lectic,
    equivalent,
    gd_base,
    is_closed,
    meet_irreducibles,
    minimal_keys,
    pseudoclosed_sets,
    quasiclosure,
    stem_table,
    step,
)

from conftest import (
    EQ15,
    EQ25_MF,
    EQ38,
    FIG4A,
    U6,
    aset,
    brute_closed_masks,
    fam,
    imp,
    oracle_close,
    rand_mask,
    rand_sigma,
    rng_for,
    sig,
    uni,
)


class TestStep:
    def test_no_premise_applies(self):
        assert step(EQ38, aset(U6, "2 5")) == aset(U6, "2 5")

    def test_single_rule_fires(self):
        assert step(EQ38, aset(U6, "3")) == aset(U6, "3 5")

    def test_top_is_fixed(self):
        assert step(EQ38, U6.full()) == U6.full()


class TestClose:
    def test_singleton_one(self):
        assert close(EQ15, aset(uni(9), "1")) == aset(uni(9), "1 6 9")

    def test_singleton_three(self):
        assert close(EQ15, aset(uni(9), "3")) == aset(uni(9), "2 3 4 5 6 7 8 9")

    def test_empty_sigma_is_identity(self):
        u = uni(4)
        empty = ImplicationSet(u, ())
        for m in range(1 << 4):
            assert close(empty, u.from_mask(m)).mask == m

    def test_row_and_column_layouts_agree(self):
        for case in range(40):
            rng = rng_for(2000 + case)
            u = uni(rng.randint(2, 8))
            s = rand_sigma(rng, u)
            m = rng.getrandbits(u.size)
            want = oracle_close(brute_closed_masks(u.size, s), u.full_mask, m)
            assert (
                close(s, u.from_mask(m), layout="row").mask
                == close(s, u.from_mask(m), layout="column").mask
                == close(s, u.from_mask(m)).mask
                == want
            )

    def test_unknown_layout_refused(self):
        s = sig(U6, "1 -> 2")
        for _ in range(2):
            with pytest.raises(ValueError):
                Closure.from_sigma(s, "diagonal")
        assert s._compiled is None

    def test_wide_universe_multiword(self):
        # positions beyond 64 exercise the arbitrary-width masks
        u = Universe(tuple(f"x{i}" for i in range(80)))
        s = sig(u, "x0 -> x70", "x70 x1 -> x79", "x79 -> x5")
        got = close(s, u.set_of(["x0", "x1"]))
        assert got == u.set_of(["x0", "x1", "x70", "x79", "x5"])

    def test_matches_family_intersection_oracle(self):
        for case in range(30):
            rng = rng_for(3000 + case)
            u = uni(6)
            s = rand_sigma(rng, u)
            closed = brute_closed_masks(6, s)
            c = Closure.from_sigma(s)
            for m in range(1 << 6):
                assert c.of_mask(m) == oracle_close(closed, u.full_mask, m)


class TestCloseTrace:
    def test_chain_shape(self):
        tr = close_trace(EQ38, aset(U6, "2 6"))
        masks = [r.mask for r in tr.rounds]
        assert masks[-1] == masks[-2]
        for a, b in zip(masks, masks[1:-1]):
            assert a & ~b == 0 and a != b
        assert tr.closure == close(EQ38, aset(U6, "2 6"))

    def test_closed_input(self):
        tr = close_trace(EQ38, aset(U6, "2 5"))
        assert [r.mask for r in tr.rounds] == [aset(U6, "2 5").mask] * 2

    def test_three_round_chain(self):
        # plain forward chaining on the six-element lattice base needs three
        # rounds from {2,5}, where the ordered one-pass route needs one
        lattice = sig(
            U6,
            "2 -> 1", "6 -> 3", "6 -> 1", "5 -> 4", "3 -> 1",
            "1 4 -> 3", "2 4 -> 5", "1 5 -> 6", "2 4 -> 6", "2 3 -> 6",
        )
        tr = close_trace(lattice, aset(U6, "2 5"))
        want = ["2 5", "1 2 4 5", "1 2 3 4 5 6", "1 2 3 4 5 6"]
        assert [r.render() for r in tr.rounds] == want


def _one_round(sigma: ImplicationSet, m: int) -> int:
    """S' straight from the definition: S plus every conclusion whose
    premise lies inside S."""
    out = m
    for i in sigma:
        if i.premise.mask & ~m == 0:
            out |= i.conclusion.mask
    return out


class TestFoldedRounds:
    """step, close_trace and is_closed read one round loop; each is checked
    against the one-round definition and the closed-set oracle."""

    @staticmethod
    def _theories():
        u1 = uni(1)
        yield ImplicationSet(u1, ())
        yield sig(u1, "-> 1")
        yield sig(u1, "1 -> 1")
        yield ImplicationSet(U6, ())
        yield sig(U6, "-> 2", "2 -> 3 4", "3 4 -> 3", "5 -> 5", "4 -> 1")
        for case in range(40):
            rng = rng_for(5800 + case)
            yield rand_sigma(rng, uni(rng.randint(1, 6)))

    def test_against_oracles(self):
        for s in self._theories():
            u = s.universe
            n = u.size
            closed = brute_closed_masks(n, s)
            for m in range(1 << n):
                x = u.from_mask(m)
                want = oracle_close(closed, u.full_mask, m)
                assert step(s, x).mask == _one_round(s, m)
                assert is_closed(s, x) == (m == want)
                chain = [m]
                while True:
                    chain.append(_one_round(s, chain[-1]))
                    if chain[-1] == chain[-2]:
                        break
                tr = close_trace(s, x)
                assert [r.mask for r in tr.rounds] == chain
                assert tr.closure.mask == want


class TestCloseFamily:
    def test_meet_irreducible_family(self):
        assert close_family(EQ25_MF, aset(U6, "1 3")) == aset(U6, "1 3 4 5")

    def test_top_only(self):
        u = uni(3)
        assert close_family(fam(u, "1 2 3"), aset(u, "2")) == u.full()

    def test_complete_listing(self):
        assert close_family(FIG4A, aset(uni(7), "3")) == aset(uni(7), "1 2 3 4")

    def test_no_superset_gives_top(self):
        u = uni(3)
        assert close_family(fam(u, "1"), aset(u, "2")) == u.full()


class TestIsClosedEntails:
    def test_is_closed_examples(self):
        assert is_closed(EQ38, aset(U6, "2 5"))
        assert not is_closed(EQ38, aset(U6, "3"))
        assert is_closed(EQ38, U6.full())

    def test_entails_transitive(self):
        u = uni(3)
        assert entails(sig(u, "1 -> 2", "2 -> 3"), imp(u, "1 -> 3"))

    def test_entails_empty_conclusion(self):
        u = uni(3)
        assert entails(sig(u, "1 -> 2"), imp(u, "2 3 ->"))

    def test_entails_derived_rule(self):
        assert entails(EQ38, imp(U6, "2 6 -> 1 4"))

    def test_other_universe_refused(self):
        # a set over a larger universe must not be read as a mask of [6]
        u7 = uni(7)
        for fn in (step, close_trace, is_closed):
            with pytest.raises(UniverseMismatchError):
                fn(EQ38, aset(u7, "2 5"))
        with pytest.raises(UniverseMismatchError):
            entails(EQ38, imp(u7, "2 6 -> 7"))

    def test_entails_matches_model_oracle(self):
        for case in range(30):
            rng = rng_for(4000 + case)
            u = uni(6)
            s = rand_sigma(rng, u)
            closed = brute_closed_masks(6, s)
            for _ in range(10):
                a = rng.getrandbits(6)
                b = rng.getrandbits(6)
                want = all(b & ~x == 0 for x in closed if a & ~x == 0)
                query = Implication(u.from_mask(a), u.from_mask(b))
                assert entails(s, query) == want


class TestEquivalent:
    def test_redundant_vs_aggregated(self):
        u = uni(3)
        s1 = sig(u, "1 -> 2", "1 -> 3", "1 -> 2 3")
        s3 = sig(u, "1 -> 2 3")
        assert equivalent(s1, s3)

    def test_prime_vs_nonprime_presentation(self):
        u = uni(3)
        s = sig(u, "1 -> 2", "2 -> 3")
        s2 = sig(u, "1 -> 3", "2 -> 3", "1 3 -> 2")
        assert equivalent(s, s2)

    def test_tautology_invisible(self):
        u = uni(3)
        s = sig(u, "1 -> 2")
        assert equivalent(s, sig(u, "1 -> 2", "1 2 3 ->"))

    def test_detects_difference(self):
        u = uni(3)
        assert not equivalent(sig(u, "1 -> 2"), sig(u, "1 -> 3"))


class TestQuasiclosure:
    def test_fig4a_singleton(self):
        assert quasiclosure(FIG4A, aset(uni(7), "3")) == aset(uni(7), "1 2 3")

    def test_closed_set_is_fixed(self):
        assert quasiclosure(EQ38, aset(U6, "2 5")) == aset(U6, "2 5")

    def test_properly_quasiclosed_fixed(self):
        assert quasiclosure(FIG4A, aset(uni(7), "1 2 6")) == aset(uni(7), "1 2 6")

    def test_contained_in_closure_and_idempotent(self):
        for case in range(20):
            rng = rng_for(5000 + case)
            u = uni(6)
            s = rand_sigma(rng, u)
            c = Closure.from_sigma(s)
            for _ in range(8):
                m = rng.getrandbits(6)
                q = quasiclosure(s, u.from_mask(m))
                assert m & ~q.mask == 0
                assert q.mask & ~c.of_mask(m) == 0
                assert quasiclosure(s, q) == q

    def test_bound_refusal(self, monkeypatch):
        monkeypatch.setenv("HORNKIT_MAX_EXHAUSTIVE", "3")
        u = uni(6)
        with pytest.raises(BoundExceededError):
            quasiclosure(EQ38, u.full())

    def test_matches_definition_over_intersection_closure(self):
        # oracle evaluates the same fixpoint formula, but with the closure
        # taken by intersecting brute-force closed supersets
        for case in range(20):
            rng = rng_for(5500 + case)
            n = rng.randint(2, 6)
            u = uni(n)
            s = rand_sigma(rng, u)
            closed = brute_closed_masks(n, s)
            cl = [oracle_close(closed, u.full_mask, m) for m in range(1 << n)]

            def quasi(m: int) -> int:
                while True:
                    acc = m
                    sub = m
                    while True:
                        if cl[sub] != cl[m]:
                            acc |= cl[sub]
                        if sub == 0:
                            break
                        sub = (sub - 1) & m
                    if acc == m:
                        return m
                    m = acc

            for _ in range(10):
                m = rng.getrandbits(n)
                assert quasiclosure(s, u.from_mask(m)).mask == quasi(m)


class TestLecticEnumeration:
    def lectic_key(self, mask: int, n: int):
        return tuple((mask >> p) & 1 for p in range(n))

    def test_eq38_count(self):
        got = list(enumerate_closed_lectic(EQ38))
        assert len(got) == 22

    def test_empty_sigma_full_powerset(self):
        u = uni(3)
        got = list(enumerate_closed_lectic(ImplicationSet(u, ())))
        assert len(got) == 8

    def test_family_source(self):
        got = list(enumerate_closed_lectic(FIG4A))
        assert {s.mask for s in got} == {s.mask for s in FIG4A}

    def test_family_and_sigma_routes_agree(self):
        # the meet-irreducible family generates the same 22-set system
        via_family = {s.mask for s in enumerate_closed_lectic(EQ25_MF)}
        via_sigma = {s.mask for s in enumerate_closed_lectic(EQ38)}
        assert via_family == via_sigma and len(via_family) == 22

    def test_matches_brute_force_in_lectic_order(self):
        for case in range(30):
            rng = rng_for(6000 + case)
            n = rng.randint(2, 7)
            u = uni(n)
            s = rand_sigma(rng, u)
            closed = brute_closed_masks(n, s)
            want = sorted(closed, key=lambda m: self.lectic_key(m, n))
            got = [x.mask for x in enumerate_closed_lectic(s)]
            assert got == want

    def edge_sigma(self, rng, u: Universe, case: int) -> ImplicationSet:
        """Random rules, with the corners the rows listing must survive:
        no rules, axioms, tautologies and repeated rules."""
        n = u.size
        if case % 10 == 0:
            return ImplicationSet(u, ())
        items = []
        for _ in range(rng.randint(1, 2 * n)):
            prem = rand_mask(rng, n)
            conc = rand_mask(rng, n)
            roll = rng.random()
            if roll < 0.15:
                prem = 0  # an axiom
            elif roll < 0.25:
                conc &= prem  # a tautology
            items.append(Implication(u.from_mask(prem), u.from_mask(conc)))
            if rng.random() < 0.15:
                items.append(items[-1])  # a repeated rule
        return ImplicationSet(u, tuple(items))

    def test_rows_listing_matches_brute_force(self):
        for case in range(320):
            rng = rng_for(61000 + case)
            n = 1 if case % 16 == 0 else rng.randint(1, 10)
            u = uni(n)
            s = self.edge_sigma(rng, u, case)
            want = sorted(brute_closed_masks(n, s), key=lambda m: self.lectic_key(m, n))
            assert [x.mask for x in enumerate_closed_lectic(s)] == want

    def test_rows_listing_matches_next_closure_on_wide_universes(self):
        # a few free positions spread over the universe; every other
        # position is an axiom or tied both ways to one free position, so
        # each closed set is the closure of its free part
        for n in (63, 64, 65, 130):
            for case in range(4):
                rng = rng_for(62000 + 10 * n + case)
                u = uni(n)
                free = sorted({0, n - 1, n // 2, *rng.sample(range(n), 4)})
                items = []
                for q in range(n):
                    if q in free:
                        continue
                    if rng.random() < 0.2:
                        items.append(Implication(u.empty(), u.from_mask(1 << q)))
                    else:
                        f = rng.choice(free)
                        items.append(Implication(u.from_mask(1 << f), u.from_mask(1 << q)))
                        items.append(Implication(u.from_mask(1 << q), u.from_mask(1 << f)))
                for _ in range(3):
                    prem = sum(1 << f for f in rng.sample(free, 2))
                    items.append(Implication(u.from_mask(prem), u.from_mask(1 << rng.choice(free))))
                rng.shuffle(items)
                s = ImplicationSet(u, tuple(items))
                c = Closure.from_sigma(s)
                sets = {c.of_mask(sum(1 << f for f in pick))
                        for k in range(len(free) + 1)
                        for pick in combinations(free, k)}
                family = SetFamily(u, tuple(u.from_mask(m) for m in sets))
                got = [x.mask for x in enumerate_closed_lectic(s)]
                assert got == [x.mask for x in enumerate_closed_lectic(family)]
                assert got == sorted(sets, key=lambda m: self.lectic_key(m, n))


NOT_A_SOURCE = (
    pseudoclosed_sets,
    gd_base,
    StemTable.of,
    stem_table,
    canonical_direct,
    meet_irreducibles,
    minimal_keys,
    d_basis,
    enumerate_closed_lectic,
)


@pytest.mark.parametrize("fn", NOT_A_SOURCE, ids=lambda fn: fn.__qualname__)
def test_non_source_raises_type_error(fn):
    with pytest.raises(TypeError, match="not a closure source: 42"):
        fn(42)


class TestClosureAxioms:
    def test_extensive_monotone_idempotent(self):
        for case in range(25):
            rng = rng_for(7000 + case)
            n = rng.randint(2, 7)
            u = uni(n)
            s = rand_sigma(rng, u)
            c = Closure.from_sigma(s)
            for m in range(1 << n):
                cm = c.of_mask(m)
                assert m & ~cm == 0
                assert c.of_mask(cm) == cm
                for p in range(n):
                    assert cm & ~c.of_mask(m | 1 << p) == 0


class TestCompileOnce:
    def test_kernel_shared_memo_not(self):
        s = sig(U6, "3 -> 5", "1 5 -> 4")
        for layout in ("row", "column"):
            c1 = Closure.from_sigma(s, layout)
            c1.of_mask(aset(U6, "3").mask)
            c2 = Closure.from_sigma(s, layout)
            assert c2._fn is c1._fn
            assert c2._memo == {} and c1._memo
        assert Closure.from_sigma(s)._fn is Closure.from_sigma(s, "column")._fn
        assert Closure.from_sigma(s, "row")._fn is not Closure.from_sigma(s, "column")._fn
        f1 = Closure.from_family(EQ25_MF)
        f1.of_mask(0)
        f2 = Closure.from_family(EQ25_MF)
        assert f2._fn is f1._fn and f2._memo == {}

    def test_cache_invisible_in_value(self):
        fresh_s = sig(U6, "3 -> 5", "1 5 -> 4", "6 -> 3")
        fresh_f = fam(U6, "1 3 4 5", "2 5", "-")
        for fresh, build in ((fresh_s, Closure.from_sigma), (fresh_f, Closure.from_family)):
            before = (hash(fresh), repr(fresh), pickle.dumps(fresh))
            twin = pickle.loads(before[2])
            build(fresh).of_mask(0)
            assert fresh._compiled is not None and twin._compiled is None
            assert fresh == twin and hash(fresh) == before[0]
            assert repr(fresh) == before[1]
            after = pickle.dumps(fresh)
            assert len(after) == len(before[2])
            for back in (pickle.loads(after), copy.deepcopy(fresh)):
                assert back == fresh and back._compiled is None
                assert build(back).of_mask(0) == build(fresh).of_mask(0)
