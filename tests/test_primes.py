import time

import pytest

from hornkit import (
    Closure,
    HornClause,
    HornkitError,
    Implication,
    ImplicationGraph,
    ImplicationSet,
    NotAcyclicError,
    Universe,
    UniverseMismatchError,
    acyclic_base,
    clauses_of,
    consensus_closure,
    equivalent,
    implications_of,
    is_acyclic,
    is_prime_implicate,
    remove_redundancy,
    unit_expand,
    unit_primes,
)
from hornkit.core import bits

from conftest import (
    ACYC7,
    EQ27_CD,
    EQ38,
    L6_PRIMES,
    U6,
    aset,
    brute_closed_masks,
    brute_unit_primes,
    imp,
    pairs,
    rand_mask,
    rand_sigma,
    reference_consensus_closure,
    rng_for,
    sig,
    uni,
)


class TestHornClause:
    def test_rejects_positive_in_negatives(self):
        with pytest.raises(HornkitError):
            HornClause(negatives=aset(U6, "1 2"), positive=0)

    def test_clause_forms(self):
        c = HornClause(negatives=aset(U6, "1 2"), positive=3)
        assert c.is_pure()
        assert c.to_implication() == imp(U6, "1 2 -> 4")
        n = HornClause(negatives=aset(U6, "1 2"), positive=None)
        assert not n.is_pure()
        with pytest.raises(HornkitError):
            n.to_implication()

    def test_from_implication_requires_unit(self):
        with pytest.raises(HornkitError):
            HornClause.from_implication(imp(U6, "1 -> 2 3"))


class TestConsensus:
    def test_worked_start_reaches_ten_primes(self):
        got = consensus_closure(clauses_of(EQ38))
        got_sigma = implications_of(got, U6)
        assert pairs(got_sigma) == pairs(L6_PRIMES)
        assert len(got) == 10

    def test_single_clause_fixed(self):
        c = [HornClause(negatives=aset(U6, "1 2"), positive=2)]
        assert consensus_closure(c) == c

    def test_prime_input_unchanged_as_set(self):
        start = clauses_of(EQ27_CD)
        got = consensus_closure(start)
        assert {c.key() for c in got} == {c.key() for c in start}

    def test_subsumption_free(self):
        got = consensus_closure(clauses_of(EQ38))
        for a in got:
            for b in got:
                if a is not b:
                    assert not a.subsumes(b)

    def test_matches_brute_primes(self):
        for case in range(25):
            rng = rng_for(21000 + case)
            n = rng.randint(2, 6)
            u = uni(n)
            s = rand_sigma(rng, u)
            want = brute_unit_primes(n, brute_closed_masks(n, s))
            got = {
                (c.negatives.mask, 1 << c.positive)
                for c in consensus_closure(clauses_of(s))
            }
            assert got == {(prem, 1 << e) for prem, e in want}

    def test_rejects_impure_input(self):
        with pytest.raises(HornkitError):
            consensus_closure([HornClause(negatives=aset(U6, "1"), positive=None)])

    def test_matches_the_object_loop(self):
        # unsorted clause lists with repeats and empty-premise clauses give
        # the list the same loop on HornClause objects gives, order included
        changed = 0
        for case in range(320):
            rng = rng_for(56000 + case)
            n = rng.randint(1, 7)
            u = uni(n)
            clauses = []
            for _ in range(rng.randint(0, 2 * n)):
                pos = rng.randrange(n)
                others = [p for p in range(n) if p != pos]
                k = 0 if not others or rng.random() < 0.15 else rng.randint(1, min(3, len(others)))
                negs = sum(1 << p for p in rng.sample(others, k))
                clauses.append(HornClause(u.from_mask(negs), pos))
            for _ in range(rng.randint(0, 2) if clauses else 0):
                clauses.insert(rng.randrange(len(clauses)), rng.choice(clauses))
            want = reference_consensus_closure(list(clauses))
            assert consensus_closure(list(clauses)) == want, case
            changed += set(want) != set(clauses)
        assert changed >= 150


class TestUnitPrimes:
    def test_worked_family(self):
        assert pairs(unit_primes(EQ38)) == pairs(L6_PRIMES)

    def test_matches_brute_primes(self):
        for case in range(20):
            rng = rng_for(21500 + case)
            n = rng.randint(2, 10)
            u = uni(n)
            s = rand_sigma(rng, u)
            want = brute_unit_primes(n, brute_closed_masks(n, s))
            got = unit_primes(s)
            assert {(i.premise.mask, i.conclusion.mask) for i in got} == {
                (prem, 1 << e) for prem, e in want
            }
            assert list(got) == sorted(got, key=lambda i: HornClause.from_implication(i).key())


class TestIsPrimeImplicate:
    def test_weakening_of_binary_rule(self):
        u = uni(3)
        s = sig(u, "1 -> 2", "2 -> 3")
        assert not is_prime_implicate(s, imp(u, "1 3 -> 2"))
        assert is_prime_implicate(s, imp(u, "1 -> 2"))
        assert is_prime_implicate(s, imp(u, "1 -> 3"))

    def test_oversized_premise(self):
        assert not is_prime_implicate(ACYC7, imp(U6, "2 3 4 -> 5"))
        assert is_prime_implicate(ACYC7, imp(U6, "2 3 -> 1"))

    def test_degenerate_clause_rejected(self):
        with pytest.raises(HornkitError):
            is_prime_implicate(EQ38, imp(U6, "1 2 -> 1"))

    def test_negative_clause_never_an_implicate(self):
        assert not is_prime_implicate(EQ38, HornClause(aset(U6, "1"), None))

    def test_non_implicate(self):
        u = uni(3)
        assert not is_prime_implicate(sig(u, "1 -> 2"), imp(u, "1 -> 3"))

    def test_clause_from_another_universe_refused(self):
        # sigma over a b; the clause over a b c differs in size, the one
        # over x y only in its labels
        s = sig(Universe(("a", "b")), "a -> b")
        for labels, line in ((("a", "b", "c"), "c -> a"), (("x", "y"), "x -> y")):
            query = imp(Universe(labels), line)
            for clause in (query, HornClause.from_implication(query)):
                with pytest.raises(UniverseMismatchError):
                    is_prime_implicate(s, clause)


class TestAcyclicity:
    def test_chain_is_acyclic(self):
        u = uni(3)
        ok, cycle = is_acyclic(sig(u, "1 -> 2", "2 -> 3"))
        assert ok and cycle is None

    def test_cyclic_presentation_of_acyclic_operator(self):
        u = uni(3)
        ok, _ = is_acyclic(sig(u, "1 -> 3", "2 -> 3", "1 3 -> 2"))
        assert ok

    def test_two_cycle_with_witness(self):
        u = uni(3)
        ok, cycle = is_acyclic(sig(u, "1 -> 2", "2 -> 1"))
        assert not ok
        assert cycle[0] == cycle[-1]
        assert set(cycle) == {0, 1}

    def test_long_cycle_without_recursion(self):
        n = 3000
        succ = tuple(1 << (a + 1) % n for a in range(n))
        g = ImplicationGraph(uni(n), succ)
        cycle = g.find_cycle()
        assert cycle == tuple(range(n)) + (0,)
        chain = ImplicationGraph(uni(n), succ[:-1] + (0,))
        assert chain.find_cycle() is None

    def test_long_chain_needs_no_primes(self):
        # i -> i+1 has about 4.5 million unit primes; its own graph has no
        # cycle, which settles the answer
        n = 3000
        u = uni(n)
        chain = ImplicationSet(u, tuple(
            Implication(u.from_mask(1 << a), u.from_mask(1 << a + 1)) for a in range(n - 1)
        ))
        t0 = time.perf_counter()
        assert is_acyclic(chain) == (True, None)
        assert time.perf_counter() - t0 < 2

    def ranked_sigma(self, rng, u):
        """Random rules whose premise elements all rank below their
        conclusion elements; now and then a rule runs against the ranking."""
        n = u.size
        order = rng.sample(range(n), n)
        items = []
        for _ in range(rng.randint(1, 2 * n)):
            low = sum(1 << p for p in order[:rng.randint(1, n - 1)])
            prem = rand_mask(rng, n) & low
            conc = rand_mask(rng, n) & ~low & u.full_mask
            if rng.random() < 0.2:
                prem, conc = conc, prem
            items.append(Implication(u.from_mask(prem), u.from_mask(conc)))
        return ImplicationSet(u, tuple(items))

    def test_input_graph_shortcut_matches_the_prime_graph(self):
        shortcut = 0
        for case in range(240):
            rng = rng_for(23000 + case)
            n = rng.randint(2, 8)
            u = uni(n)
            s = self.ranked_sigma(rng, u) if case % 3 else rand_sigma(rng, u)
            succ = [0] * n
            for prem, root in brute_unit_primes(n, brute_closed_masks(n, s)):
                for a in bits(prem):
                    succ[a] |= 1 << root
            want = ImplicationGraph(u, tuple(succ)).find_cycle() is None
            ok, cycle = is_acyclic(s)
            assert ok == want and (cycle is None) == ok
            if ImplicationGraph.from_sigma(s).find_cycle() is None:
                shortcut += 1
                assert ok
        assert shortcut >= 100

    def test_witness_is_a_real_walk(self):
        for case in range(20):
            rng = rng_for(22000 + case)
            s = rand_sigma(rng, uni(6))
            ok, cycle = is_acyclic(s)
            if not ok:
                g = ImplicationGraph.from_sigma(unit_primes(s))
                for a, b in zip(cycle, cycle[1:]):
                    assert g.succ[a] >> b & 1


class TestAcyclicBase:
    def test_worked_family_verified_value(self):
        # the published listing for this family keeps 2 3 -> 1, but that
        # rule is entailed by {2 3 -> 4, 4 -> 5, 3 5 -> 6, 6 -> 1}; the
        # faithful reducer removes it (see test below for uniqueness)
        got = acyclic_base(ACYC7)
        assert pairs(got) == pairs(sig(U6, "4 -> 5", "6 -> 1", "2 3 -> 4", "3 5 -> 6"))

    def test_unique_nonredundant_prime_base_brute(self):
        # enumerate all subfamilies of the prime implicates of the worked
        # family: exactly one is both a base and nonredundant
        primes_sigma = unit_primes(ACYC7)
        items = primes_sigma.items
        u = U6
        winners = []
        for pick in range(1 << len(items)):
            subset = tuple(items[i] for i in range(len(items)) if pick >> i & 1)
            sub = ImplicationSet(u, subset)
            if not equivalent(sub, ACYC7):
                continue
            nonredundant = all(
                not equivalent(ImplicationSet(u, subset[:i] + subset[i + 1 :]), ACYC7)
                for i in range(len(subset))
            )
            if nonredundant:
                winners.append(pairs(sub))
        assert winners == [pairs(acyclic_base(ACYC7))]

    def test_presentation_independent(self):
        u = uni(3)
        s = sig(u, "1 -> 2", "2 -> 3")
        s2 = sig(u, "1 -> 3", "2 -> 3", "1 3 -> 2")
        assert pairs(acyclic_base(s)) == pairs(acyclic_base(s2)) == pairs(s)
        for case in range(20):
            rng = rng_for(23000 + case)
            base = rand_sigma(rng, uni(5))
            ok, _ = is_acyclic(base)
            if not ok:
                continue
            c = Closure.from_sigma(base)
            padded = list(unit_expand(base).items)
            for _ in range(2):
                a = rng.getrandbits(5)
                cl = c.of_mask(a)
                if cl != a:
                    padded.append(Implication(uni(5).from_mask(a), uni(5).from_mask(cl)))
            other = ImplicationSet(uni(5), tuple(padded))
            assert equivalent(other, base)
            assert pairs(acyclic_base(other)) == pairs(acyclic_base(base))

    def test_any_removal_order_converges(self):
        # uniqueness of the nonredundant prime base: shuffling the prime
        # list before the redundancy pass never changes the outcome
        for case in range(15):
            rng = rng_for(23500 + case)
            s = rand_sigma(rng, uni(5))
            ok, _ = is_acyclic(s)
            if not ok:
                continue
            want = pairs(acyclic_base(s))
            prime_items = list(unit_primes(s).items)
            for _ in range(4):
                rng.shuffle(prime_items)
                shuffled = ImplicationSet(uni(5), tuple(prime_items))
                assert pairs(remove_redundancy(shuffled)) == want

    def test_redundant_binary_dropped(self):
        u = uni(3)
        got = acyclic_base(sig(u, "1 -> 2", "2 -> 3", "1 -> 3"))
        assert pairs(got) == pairs(sig(u, "1 -> 2", "2 -> 3"))

    def test_chain_unchanged(self):
        u = uni(3)
        s = sig(u, "1 -> 2", "2 -> 3")
        assert pairs(acyclic_base(s)) == pairs(s)

    def test_rejects_cyclic_operator(self):
        u = uni(3)
        with pytest.raises(NotAcyclicError):
            acyclic_base(sig(u, "1 -> 2", "2 -> 1"))

    def test_output_is_prime_and_nonredundant(self):
        for case in range(25):
            rng = rng_for(24000 + case)
            s = rand_sigma(rng, uni(6))
            ok, _ = is_acyclic(s)
            if not ok:
                continue
            base = acyclic_base(s)
            assert equivalent(base, s)
            assert pairs(base) == pairs(remove_redundancy(base))
            for impl in base:
                assert is_prime_implicate(s, impl)

    def test_poset_type_property(self):
        # reachability order of the acyclic prime graph bounds every closure
        for case in range(20):
            rng = rng_for(25000 + case)
            n = rng.randint(2, 6)
            u = uni(n)
            s = rand_sigma(rng, u)
            ok, _ = is_acyclic(s)
            if not ok:
                continue
            c = Closure.from_sigma(s)
            if c.of_mask(0) != 0:
                continue  # the order-ideal comparison needs an empty bottom
            g = ImplicationGraph.from_sigma(acyclic_base(s))
            down = [g.reachable_from(a) for a in range(n)]
            for m in range(1 << n):
                ideal = 0
                for a in range(n):
                    if m >> a & 1:
                        ideal |= down[a]
                assert c.of_mask(m) & ~ideal == 0
