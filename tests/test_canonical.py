from collections import Counter
from itertools import permutations

import pytest

from hornkit import (
    BoundExceededError,
    Closure,
    Implication,
    ImplicationSet,
    SetFamily,
    equivalent,
    gd_base,
    is_minimum,
    load_family,
    normalize,
    pseudoclosed_sets,
    remove_redundancy,
    shock_minimize,
    trim_conclusions,
)

from conftest import (
    ACYC7,
    EQ15,
    EQ15_GD,
    EQ27_CD,
    FIG4A,
    FIG4A_GD,
    SHOCK_MIN,
    U6,
    brute_closed_masks,
    brute_family_closed,
    brute_pseudoclosed,
    brute_redundancy_survivors,
    fam,
    imp,
    oracle_close,
    padded_mf_text,
    pairs,
    rand_family,
    rand_mask,
    rand_sigma,
    rng_for,
    sig,
    uni,
)


class TestPseudoclosed:
    def test_fig4a_boldface_sets(self):
        rep = pseudoclosed_sets(FIG4A)
        got = {p.render() for p in rep.pseudoclosed}
        assert got == {"", "1 2 3", "1 2 4", "1 2 6", "1 2 7", "1 2 3 4 5"}
        assert {c.render() for c in rep.essential_closures} == {
            "1 2",
            "1 2 3 4",
            "1 2 3 4 5 6 7",
        }

    def test_powerset_has_none(self):
        u = uni(4)
        rep = pseudoclosed_sets(ImplicationSet(u, ()))
        assert len(rep.pseudoclosed) == 0

    def test_singleton_premises(self):
        rep = pseudoclosed_sets(EQ15)
        got = {p.render() for p in rep.pseudoclosed}
        assert got == {str(k) for k in range(1, 9)}

    def test_bound_refusal(self):
        # a bare operator has no rules, so its base goes through the stem
        # search over the whole universe, which the limit guards
        with pytest.raises(
            BoundExceededError, match=r"^stem search over 21 premise elements \(bound 20\)$"
        ):
            pseudoclosed_sets(Closure.from_sigma(ImplicationSet(uni(21), ())))

    def test_family_over_limit_refused(self):
        _, mf24 = load_family(padded_mf_text())
        with pytest.raises(
            BoundExceededError, match=r"^stem search over 24 premise elements \(bound 20\)$"
        ):
            pseudoclosed_sets(mf24)

    def test_implication_input_has_no_limit(self):
        # 21 independent rules x_i -> y_i over 42 elements, past the limit:
        # the pseudoclosed sets are the singletons {x_i}
        u = uni(42)
        s = ImplicationSet(u, tuple(imp(u, f"{i} -> {i + 21}") for i in range(1, 22)))
        base = gd_base(s)
        assert sorted(i.premise.mask for i in base) == [1 << i for i in range(21)]
        assert equivalent(base, s)

    def test_large_implication_input(self):
        # n = 100 lies far past the stem-search limit, which a family of the
        # same size still hits
        rng = rng_for(8400)
        u = uni(100)
        items = []
        for _ in range(300):
            prem = 0
            for _ in range(rng.randint(1, 3)):
                prem |= 1 << rng.randrange(100)
            items.append(Implication(u.from_mask(prem), u.from_mask(1 << rng.randrange(100))))
        s = ImplicationSet(u, tuple(items))
        base = gd_base(s)
        assert equivalent(base, s)
        assert len(base) == len(shock_minimize(s))
        c = Closure.from_sigma(s)
        for i in base:
            assert i.conclusion.mask == c.of_mask(i.premise.mask)
        with pytest.raises(BoundExceededError):
            gd_base(SetFamily(u, (u.empty(),)))

    def test_padded_with_inert_elements(self):
        # elements in no rule change no pseudoclosed set, so a theory padded
        # past the default limit of 20 matches the oracle on the small one
        pad = 17
        for case in range(30):
            rng = rng_for(8500 + case)
            n = rng.randint(1, 8)
            s = rand_sigma(rng, uni(n))
            padded = sig(uni(max(n + pad, 21)), *(i.render() for i in s))
            want = brute_pseudoclosed(n, brute_closed_masks(n, s))
            got = {p.mask for p in pseudoclosed_sets(padded).pseudoclosed}
            assert got == want

    def test_matches_quasiclosure_definition(self):
        # independent oracle: minimal properly quasiclosed set per closure class
        for case in range(25):
            rng = rng_for(8000 + case)
            n = rng.randint(2, 6)
            u = uni(n)
            s = rand_sigma(rng, u)
            closed = brute_closed_masks(n, s)
            want = brute_pseudoclosed(n, closed)
            got = {p.mask for p in pseudoclosed_sets(s).pseudoclosed}
            assert got == want


    def test_matches_oracle_on_every_source_kind(self):
        # one left-saturation engine serves implication, family and bare
        # operator sources (the last two through their canonical direct
        # base); implication sources reach n = 8-11 here
        for case in range(12):
            rng = rng_for(8500 + case)
            n = 8 + case % 4
            u = uni(n)
            s = rand_sigma(rng, u)
            closed = brute_closed_masks(n, s)
            want = brute_pseudoclosed(n, closed)
            c = Closure.from_sigma(s)
            family = SetFamily(u, tuple(u.from_mask(m) for m in closed))
            for source in (s, family, c):
                got = {p.mask for p in pseudoclosed_sets(source).pseudoclosed}
                assert got == want
            assert c._memo == {}  # the loop calls the kernel, not the memo


def _check_against_oracle(source, n, closed):
    """pseudoclosed_sets and gd_base agree with the brute-force oracles."""
    want = brute_pseudoclosed(n, closed)
    full = (1 << n) - 1
    rep = pseudoclosed_sets(source)
    assert {p.mask for p in rep.pseudoclosed} == want
    assert {c.mask for c in rep.essential_closures} == {
        oracle_close(closed, full, p) for p in want
    }
    base = gd_base(source)
    assert [i.premise.mask for i in base] == [p.mask for p in rep.pseudoclosed]
    assert pairs(base) == {(p, oracle_close(closed, full, p)) for p in want}


class TestLeftSaturation:
    """The pseudoclosed sets as the left-saturated premises of Shock's base,
    against the definition on the inputs where that base is degenerate."""

    def test_empty_sigma(self):
        for n in (1, 3, 5):
            s = ImplicationSet(uni(n), ())
            _check_against_oracle(s, n, brute_closed_masks(n, s))

    def test_axiom_rules(self):
        # an empty premise makes the empty set pseudoclosed
        u = uni(4)
        for lines in (("-> 1",), ("-> 1", "1 -> 2"), ("-> 1", "2 -> 3", "-> 4")):
            s = sig(u, *lines)
            _check_against_oracle(s, 4, brute_closed_masks(4, s))
        assert [p.mask for p in pseudoclosed_sets(sig(u, "-> 1")).pseudoclosed] == [0]

    def test_tautologies_and_repeated_premises(self):
        # Shock drops the tautologies and merges the repeated premises
        u = uni(5)
        for lines in (
            ("1 -> 1", "1 2 -> 2"),
            ("1 -> 2", "1 -> 3", "1 -> 2 3", "2 -> 2"),
            ("1 2 -> 3", "2 1 -> 4", "3 -> 3", "4 -> 5", "4 -> 5"),
        ):
            s = sig(u, *lines)
            _check_against_oracle(s, 5, brute_closed_masks(5, s))

    def test_random_theories_up_to_4n_rules(self):
        for case in range(7):
            rng = rng_for(14000 + case)
            n = 8 + case % 5
            u = uni(n)
            s = rand_sigma(rng, u, max_items=4 * n)
            _check_against_oracle(s, n, brute_closed_masks(n, s))

    def test_families_and_bare_operators(self):
        for case in range(30):
            rng = rng_for(15000 + case)
            n = rng.randint(2, 7)
            u = uni(n)
            f = rand_family(rng, u, k=rng.randint(0, 2 * n))
            if case % 3 == 1:  # every member holds element 1
                f = SetFamily(u, tuple(u.from_mask(m | 1) for m in f.masks()))
            elif case % 3 == 2:
                f = SetFamily(u, f.sets + (u.empty(),))
            closed = brute_family_closed(n, f)
            for source in (f, Closure.from_family(f)):
                _check_against_oracle(source, n, closed)
        # the empty family closes every set to the universe
        _check_against_oracle(SetFamily(uni(3), ()), 3, [7])


class TestGdBase:
    def test_fig4a_golden(self):
        assert pairs(gd_base(FIG4A)) == pairs(FIG4A_GD)

    def test_eq15_golden(self):
        assert pairs(gd_base(EQ15)) == pairs(EQ15_GD)

    def test_powerset_golden(self):
        assert len(gd_base(ImplicationSet(uni(4), ()))) == 0

    def test_equivalent_to_source(self):
        for case in range(20):
            rng = rng_for(9000 + case)
            s = rand_sigma(rng, uni(6))
            assert equivalent(gd_base(s), s)

    def test_canonical_rendering_order(self):
        lines = gd_base(FIG4A).render().splitlines()
        assert lines[0] == "-> 1 2"
        assert lines[-1] == "1 2 3 4 5 -> 1 2 3 4 5 6 7"


class TestRemoveRedundancy:
    def test_drops_earlier_redundant_items(self):
        u = uni(3)
        s = sig(u, "1 -> 2", "1 -> 3", "1 -> 2 3")
        assert pairs(remove_redundancy(s)) == pairs(sig(u, "1 -> 2 3"))

    def test_nonredundant_unchanged(self):
        u = uni(3)
        s = sig(u, "1 -> 2", "2 -> 3")
        assert remove_redundancy(s).items == s.items

    def test_acyclic_family(self):
        # 2 3 -> 1 is entailed by {2 3 -> 4, 4 -> 5, 3 5 -> 6, 6 -> 1} and is
        # seen while 3 4 -> 6 is still present, so it goes too
        got = remove_redundancy(ACYC7)
        assert pairs(got) == pairs(sig(U6, "4 -> 5", "6 -> 1", "2 3 -> 4", "3 5 -> 6"))

    def test_repeated_axiom_keeps_the_second(self):
        # the first -> 1 goes, since the second derives 1; the second
        # stays, since the first is out, axioms included
        s = sig(uni(2), "-> 1", "-> 1")
        got = remove_redundancy(s)
        assert len(got) == 1 and got.items[0] is s.items[1]

    def test_dropped_axiom_stays_out(self):
        s = sig(uni(2), "-> 1", "1 -> 2", "-> 1 2")
        assert remove_redundancy(s).items == (s.items[2],)

    def test_matches_leave_one_out_oracle(self):
        special = ("empty premise", "repeat", "(0, 0)", "inside premise")
        seen = Counter()
        for case in range(300):
            rng = rng_for(10500 + case)
            n = rng.randint(1, 8)
            u = uni(n)
            pairs = []
            for _ in range(rng.randint(0, 3 * n)):
                kind = rng.choice(special + ("random", "random"))
                if kind == "repeat" and not pairs:
                    kind = "random"
                prem = rand_mask(rng, n)
                conc = rand_mask(rng, n)
                if kind == "empty premise":
                    prem = 0
                elif kind == "repeat":
                    prem, conc = rng.choice(pairs)
                elif kind == "(0, 0)":
                    prem = conc = 0
                elif kind == "inside premise":
                    conc &= prem
                seen[kind] += 1
                pairs.append((prem, conc))
            items = tuple(Implication(u.from_mask(p), u.from_mask(c)) for p, c in pairs)
            # one Implication object per rule, so identity tells repeats apart
            index = {id(x): i for i, x in enumerate(items)}
            got = [index[id(x)] for x in remove_redundancy(ImplicationSet(u, items))]
            assert got == brute_redundancy_survivors(pairs)
        assert min(seen[k] for k in special) >= 100

    def test_contract_equivalent_and_nonredundant(self):
        for case in range(20):
            rng = rng_for(10000 + case)
            u = uni(6)
            s = rand_sigma(rng, u)
            nr = remove_redundancy(s)
            assert equivalent(nr, s)
            for i in range(len(nr)):
                rest = ImplicationSet(u, nr.items[:i] + nr.items[i + 1 :])
                assert not equivalent(rest, s)

    def test_theorem_essential_closures(self):
        # closures of the premises of any nonredundant base form the core
        for case in range(15):
            rng = rng_for(11000 + case)
            u = uni(6)
            s = rand_sigma(rng, u)
            nr = remove_redundancy(normalize(s))
            c = Closure.from_sigma(s)
            got = {c.of_mask(i.premise.mask) for i in nr}
            want = {x.mask for x in pseudoclosed_sets(s).essential_closures}
            assert got == want


class TestSharedShortPremises:
    """The leave-one-out pass knocks a rule with an empty or one-element
    premise out of the union its premise fires, and puts it back when the
    rule survives: the rules left on that premise keep their conclusions."""

    @staticmethod
    def check(n: int, pairs: list[tuple[int, int]]) -> None:
        u = uni(n)
        s = ImplicationSet.from_pairs(u, pairs)
        closed = brute_closed_masks(n, s)
        kept = remove_redundancy(s)
        assert kept.mask_pairs() == [pairs[i] for i in brute_redundancy_survivors(pairs)]
        assert brute_closed_masks(n, kept) == closed
        mini = shock_minimize(s)
        assert brute_closed_masks(n, mini) == closed
        assert len(mini) == len(brute_pseudoclosed(n, closed))
        _check_against_oracle(s, n, closed)

    def test_three_rules_on_one_position_in_every_order(self):
        # 1 -> 2, 1 -> 2 3 and 1 -> 3 as masks, then with rules that
        # reach or leave position 1 through other premises
        rules = [(1, 2), (1, 6), (1, 4)]
        for extra in ([], [(2, 8)], [(0, 1)], [(6, 8), (8, 1)], [(0, 2), (1, 0)]):
            for order in permutations(rules):
                self.check(4, list(order) + extra)
                self.check(4, extra + list(order))
        u = uni(4)
        got = remove_redundancy(sig(u, "1 -> 2", "1 -> 2 3", "1 -> 3"))
        assert pairs(got) == pairs(sig(u, "1 -> 2 3"))
        got = remove_redundancy(sig(u, "1 -> 3", "1 -> 2", "-> 4", "1 -> 2 3"))
        assert pairs(got) == pairs(sig(u, "-> 4", "1 -> 2 3"))

    def test_seeded_theories_with_a_crowded_position(self):
        for case in range(150):
            rng = rng_for(43700 + case)
            n = rng.randint(2, 7)
            hub = 1 << rng.randrange(n)
            pairs = []
            for _ in range(rng.randint(1, 3 * n)):
                r = rng.random()
                if r < 0.4:
                    prem = hub
                elif r < 0.6:
                    prem = 1 << rng.randrange(n)
                elif r < 0.7:
                    prem = 0
                else:
                    prem = rand_mask(rng, n)
                pairs.append((prem, rand_mask(rng, n)))
            self.check(n, pairs)


class TestShock:
    def test_direct_base_golden(self):
        assert pairs(shock_minimize(EQ27_CD)) == pairs(SHOCK_MIN)

    def test_already_minimum_full_base(self):
        u = uni(3)
        s = sig(u, "1 -> 1 2 3")
        assert pairs(shock_minimize(s)) == pairs(s)

    def test_collapses_redundant_family(self):
        u = uni(3)
        s = sig(u, "1 -> 2", "1 -> 3", "1 -> 2 3")
        assert pairs(shock_minimize(s)) == pairs(sig(u, "1 -> 1 2 3"))

    def test_trim_variant(self):
        u = uni(3)
        s = sig(u, "1 -> 2", "1 -> 3", "1 -> 2 3")
        assert pairs(trim_conclusions(shock_minimize(s))) == pairs(sig(u, "1 -> 2 3"))
        assert pairs(trim_conclusions(SHOCK_MIN)) == pairs(
            sig(U6, "2 3 -> 1 4 5", "1 5 -> 4", "6 -> 3 5", "3 -> 5")
        )

    def test_minimum_cardinality(self):
        for case in range(20):
            rng = rng_for(12000 + case)
            s = rand_sigma(rng, uni(6))
            mini = shock_minimize(s)
            assert equivalent(mini, s)
            assert len(mini) == len(gd_base(s))
            # full conclusions and nonredundant
            c = Closure.from_sigma(s)
            for impl in mini:
                assert impl.conclusion.mask == c.of_mask(impl.premise.mask)


class TestIsMinimum:
    def test_aggregated_is_minimum(self):
        u = uni(3)
        assert is_minimum(sig(u, "1 -> 2 3"))

    def test_redundant_is_not(self):
        u = uni(3)
        assert not is_minimum(sig(u, "1 -> 2", "1 -> 3", "1 -> 2 3"))

    def test_empty_is_minimum(self):
        assert is_minimum(ImplicationSet(uni(3), ()))

    def test_no_size_bound(self):
        # Shock's base is polynomial, so no exhaustive bound applies
        u = uni(30)
        chain = tuple(imp(u, f"{i} -> {i + 1}") for i in range(1, 30))
        assert is_minimum(ImplicationSet(u, chain))
        assert not is_minimum(ImplicationSet(u, chain + (imp(u, "1 -> 3"),)))

    def test_gd_size_lower_bounds_all_bases(self):
        for case in range(15):
            rng = rng_for(13000 + case)
            u = uni(6)
            s = rand_sigma(rng, u)
            base = gd_base(s)
            c = Closure.from_sigma(s)
            # pad with random consequences: still a base, never smaller
            extras = list(s.items)
            for _ in range(3):
                a = rng.getrandbits(6)
                extras.append(Implication(u.from_mask(a), u.from_mask(c.of_mask(a))))
            padded = ImplicationSet(u, tuple(extras))
            assert equivalent(padded, s)
            assert len(base) <= len(normalize(padded))
