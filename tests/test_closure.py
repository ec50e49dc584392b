import copy
import pickle
import sys
import threading
from collections import Counter
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
    is_prime_implicate,
    meet_irreducibles,
    minimal_keys,
    pseudoclosed_sets,
    quasiclosure,
    stem_table,
    step,
)
import hornkit.closure as closure_module
from hornkit.closure import _close_columnwise, _columns, _kernel, lectic_masks

from conftest import (
    EQ15,
    EQ25_MF,
    EQ38,
    FIG4A,
    U6,
    aset,
    brute_closed_masks,
    brute_family_close,
    brute_family_closed,
    brute_unit_primes,
    fam,
    imp,
    naive_fixpoint,
    oracle_close,
    rand_family,
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
                Closure.from_sigma(s, "row").of_mask(m)
                == Closure.from_sigma(s, "column").of_mask(m)
                == close(s, u.from_mask(m)).mask
                == want
            )

    def test_unknown_layout_refused(self):
        s = sig(U6, "1 -> 2")
        for layout in ("diagonal", "auto"):
            with pytest.raises(ValueError):
                Closure.from_sigma(s, layout)
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


class TestWideKernels:
    """Both kernels on universes of hundreds or thousands of positions,
    where LinClosure runs many layers or fills E in one, against a naive
    fixpoint loop."""

    @staticmethod
    def theory(n: int, pairs: list[tuple[int, int]]) -> ImplicationSet:
        u = Universe(tuple(f"x{i}" for i in range(n)))
        items = tuple(Implication(u.from_mask(p), u.from_mask(c)) for p, c in pairs)
        return ImplicationSet(u, items)

    def check(self, s: ImplicationSet, queries: list[int]) -> list[int]:
        row = Closure.from_sigma(s, "row")
        column = Closure.from_sigma(s, "column")
        pairs = s.mask_pairs()
        u = s.universe
        n = u.size
        cols = _columns(s)
        rng = rng_for(4100 + n)
        got = []
        for m in queries:
            want = naive_fixpoint(pairs, m)
            # LinClosure stopped at E, as Closure compiles it, and run to
            # the end under a stop mask outside the universe, which no set
            # holds
            stopped = _close_columnwise(cols, u.full_mask, m)
            whole = _close_columnwise(cols, 1 << n, m)
            assert column.of_mask(m) == stopped == whole == row.of_mask(m) == want
            # membership tests, as entails runs them: stopped at a random
            # one-element target and at the empty one, the kernel returns
            # a set between m and the closure, and the answer is the same
            for target in (1 << rng.randrange(n), 0):
                part = _close_columnwise(cols, target, m)
                assert m & ~part == 0 and part & ~want == 0
                answer = target & ~want == 0
                assert (target & ~part == 0) == (target & ~stopped == 0) == answer
                assert entails(s, Implication(u.from_mask(m), u.from_mask(target))) == answer
            got.append(want)
        return got

    def test_stop_at_target_inside_premise(self):
        n = 2000
        s = self.theory(n, [(1 << i, 1 << (i + 1)) for i in range(n - 1)])
        cols = _columns(s)
        m = 1 << 5 | 1 << 900
        # the premise holds the target: no layer is taken
        assert _close_columnwise(cols, 1 << 900, m) == m
        assert _close_columnwise(cols, 0, m) == m
        u = s.universe
        assert entails(s, Implication(u.from_mask(m), u.from_mask(1 << 900)))

    def test_stop_at_target_from_empty_premises(self):
        n = 600
        axioms = 1 << 7 | 1 << 300
        pairs = [(0, 1 << 7), (0, 1 << 300), (1 << 7, 1 << 599), (1 << 599, 1 << 598)]
        s = self.theory(n, pairs)
        cols = _columns(s)
        u = s.universe
        # position 1 meets no premise: only the axioms bring the target in,
        # and the kernel returns before the first layer is taken
        for m in (0, 1 << 1):
            for target in (1 << 7, 1 << 300, axioms):
                assert _close_columnwise(cols, target, m) == m | axioms
                assert entails(s, Implication(u.from_mask(m), u.from_mask(target)))
            assert _close_columnwise(cols, 1 << 599, m) == m | axioms | 1 << 599
        assert self.check(s, [0, 1 << 1]) == [axioms | 3 << 598, 2 | axioms | 3 << 598]

    def test_stop_at_unreachable_target(self):
        n = 2000
        s = self.theory(n, [(1 << i, 1 << (i + 1)) for i in range(n - 1)])
        cols = _columns(s)
        u = s.universe
        tail = ((1 << n) - 1) ^ ((1 << 1000) - 1)
        # the target is never reached, so the loop runs to the fixpoint
        assert _close_columnwise(cols, 1 << 3, 1 << 1000) == tail
        assert _close_columnwise(cols, 1 << 3 | 1 << 1999, 1 << 1000) == tail
        assert not entails(s, Implication(u.from_mask(1 << 1000), u.from_mask(1 << 3)))
        assert not entails(s, Implication(u.from_mask(1 << 1000), u.from_mask(1 << 3 | 1 << 1999)))

    def test_seeded_theories_percolate(self):
        big = 0
        for case in range(8):
            rng = rng_for(4000 + case)
            n = rng.randint(300, 1000)
            pairs = []
            for _ in range(rng.randint(2 * n, 3 * n)):
                prem = sum(1 << p for p in rng.sample(range(n), rng.randint(1, 3)))
                conc = sum(1 << p for p in rng.sample(range(n), rng.randint(1, 3)))
                pairs.append((prem, conc))
            queries = [
                sum(1 << p for p in rng.sample(range(n), rng.randint(1, 6)))
                for _ in range(12)
            ]
            closed = self.check(self.theory(n, pairs), queries)
            big += sum(c.bit_count() > n // 2 for c in closed)
        # at least half the queries must percolate through many layers
        assert big >= 48

    def test_chain_one_position_per_layer(self):
        n = 2000
        s = self.theory(n, [(1 << i, 1 << (i + 1)) for i in range(n - 1)])
        full = (1 << n) - 1
        tail = full ^ ((1 << 1000) - 1)
        assert self.check(s, [1, 1 << 1000, 1 << (n - 1), 0]) == [
            full,
            tail,
            1 << (n - 1),
            0,
        ]
        u = s.universe
        assert entails(s, Implication(u.from_mask(1), u.from_mask(1 << (n - 1))))
        assert not entails(s, Implication(u.from_mask(2), u.from_mask(1)))

    def test_wide_fan_fills_in_one_layer(self):
        n = 1000
        full = (1 << n) - 1
        fan = self.theory(n, [(1, 1 << i) for i in range(1, n)])
        whole = self.theory(n, [(1, full), (1, full)])
        for s in (fan, whole):
            assert self.check(s, [1, 2, 3]) == [full, 2, full]

    def test_empty_premise_rules(self):
        n = 500
        pairs = [
            (0, 1 << 7),
            (0, 0),
            (1 << 7, 1 << 300),
            (1 << 300 | 1 << 7, 1 << 499),
        ]
        want = 1 << 7 | 1 << 300 | 1 << 499
        assert self.check(self.theory(n, pairs), [0, 1 << 7, 1 << 499, 1]) == [
            want,
            want,
            want,
            want | 1,
        ]
        only = self.theory(n, [(0, (1 << n) - 1)])
        assert self.check(only, [0, 5]) == [(1 << n) - 1] * 2

    def test_conclusions_inside_premise_or_closed(self):
        n = 400
        a, b, c, d = 1 << 3, 1 << 150, 1 << 299, 1 << 399
        pairs = [
            (a | b, a),  # inside its own premise
            (a | b, a | b | c),  # partly inside
            (c, a),  # already closed when it fires
            (c, c | d),
            (d, 0),  # empty conclusion
        ]
        s = self.theory(n, pairs)
        assert self.check(s, [a | b, a, c, a | b | c | d]) == [
            a | b | c | d,
            a,
            a | c | d,
            a | b | c | d,
        ]

    def test_two_rules_with_one_premise(self):
        n = 700
        p = 1 << 10 | 1 << 600
        pairs = [(p, 1 << 20), (p, 1 << 650), (1 << 20 | 1 << 650, 1 << 699)]
        want = p | 1 << 20 | 1 << 650 | 1 << 699
        assert self.check(self.theory(n, pairs), [p, 1 << 10, p | 1 << 20]) == [
            want,
            1 << 10,
            want,
        ]


class TestCounterLayout:
    """The compiled LinClosure layout on its edge cases: empty premises,
    one-element premises, which fire through unit[p] with no counter
    (several of them on one position), repeated rules, conclusions that
    overlap their premises, and premises too long for a byte counter."""

    WIDE = Universe(tuple(f"x{i}" for i in range(256)))

    def test_seeded_edge_theories_match_the_oracle(self):
        special = ("empty premise", "one element", "shared element", "repeat", "overlap")
        seen = Counter()
        for case in range(300):
            rng = rng_for(43000 + case)
            n = rng.randint(1, 10)
            u = uni(n)
            hub = 1 << rng.randrange(n)
            pairs = []
            for _ in range(rng.randint(0, 3 * n)):
                kind = rng.choice(special + ("random",))
                if kind == "repeat" and not pairs:
                    kind = "random"
                prem = rand_mask(rng, n)
                conc = rand_mask(rng, n)
                if kind == "empty premise":
                    prem = 0
                elif kind == "one element":
                    prem = 1 << rng.randrange(n)
                elif kind == "shared element":
                    prem = hub
                elif kind == "repeat":
                    prem, conc = rng.choice(pairs)
                elif kind == "overlap":
                    conc |= prem & rand_mask(rng, n)
                seen[kind] += 1
                pairs.append((prem, conc))
            s = ImplicationSet.from_pairs(u, pairs)
            # the same rules on a 256-position universe, whose extra
            # positions no rule names: byte counters in place of a list
            wide = ImplicationSet.from_pairs(self.WIDE, pairs)
            assert type(_columns(s)[2]) is list
            assert type(_columns(wide)[2]) is bytearray
            closed = brute_closed_masks(n, s)
            row = Closure.from_sigma(s, "row")
            column = Closure.from_sigma(s, "column")
            wide_column = Closure.from_sigma(wide, "column")
            queries = range(1 << n) if n <= 6 else [rand_mask(rng, n) for _ in range(40)]
            for m in queries:
                want = oracle_close(closed, u.full_mask, m)
                assert column.of_mask(m) == row.of_mask(m) == wide_column.of_mask(m) == want
                for target in (1 << rng.randrange(n), rand_mask(rng, n)):
                    answer = target & ~want == 0
                    assert entails(s, Implication(u.from_mask(m), u.from_mask(target))) == answer
                    query = Implication(self.WIDE.from_mask(m), self.WIDE.from_mask(target))
                    assert entails(wide, query) == answer
        assert min(seen[k] for k in special) >= 100

    def test_premises_too_long_for_a_byte(self):
        # 255 positions still fit a byte counter; 256 and 260 need the list
        n = 300
        u = Universe(tuple(f"x{i}" for i in range(n)))
        for k, kind in ((255, bytearray), (256, list), (260, list)):
            prem = (1 << k) - 1
            goal = 1 << 299
            # position 5 can also come in one layer late, through 280
            s = ImplicationSet.from_pairs(
                u, [(prem, goal), (1 << 280, 1 << 5), (goal, 1 << 290), (1 << 5 | 1 << 7, 1 << 6)]
            )
            assert type(_columns(s)[2]) is kind
            row = Closure.from_sigma(s, "row")
            c = Closure.from_sigma(s)
            pairs = s.mask_pairs()
            late = prem ^ 1 << 5 | 1 << 280
            for m, fires in ((prem, True), (prem ^ 1 << 100, False), (late, True), (prem ^ 1, False)):
                want = naive_fixpoint(pairs, m)
                assert c.of_mask(m) == row.of_mask(m) == want
                assert (goal & ~want == 0) == fires
                assert entails(s, Implication(u.from_mask(m), u.from_mask(goal))) == fires
                assert entails(s, Implication(u.from_mask(m), u.from_mask(goal | 1 << 290))) == fires
            assert c.of_mask(prem) == prem | goal | 1 << 290

    @pytest.mark.parametrize("n", [200, 300])
    def test_shared_operator_stays_stateless(self, n):
        # list counters on 200 positions, byte counters on 300
        rng = rng_for(43500 + n)
        u = Universe(tuple(f"x{i}" for i in range(n)))
        pairs = []
        for _ in range(3 * n):
            prem = sum(1 << p for p in rng.sample(range(n), rng.randint(1, 3)))
            pairs.append((prem, 1 << rng.randrange(n)))
        s = ImplicationSet.from_pairs(u, pairs)
        lin = _kernel(s, "lin")
        occ, unit, need, concs, axioms = lin.args[0]
        assert type(need) is (bytearray if n >= 256 else list)
        compiled = (bytes(need), list(unit), [list(o) for o in occ], list(concs), axioms)
        streams = [
            [(rand_mask(rng, n) & rand_mask(rng, n) & rand_mask(rng, n), 1 << rng.randrange(n))
             for _ in range(200)]
            for _ in range(4)
        ]
        seq = Closure.from_sigma(s)

        def answers(c: Closure, stream) -> list[tuple[int, bool]]:
            return [
                (c.of_mask(m), entails(s, Implication(u.from_mask(m), u.from_mask(t))))
                for m, t in stream
            ]

        want = [answers(seq, stream) for stream in streams]
        flags = {w for stream in want for _, w in stream}
        assert flags == {True, False}
        # membership tests that stop before the fixpoint leave their
        # counters part-way down
        assert any(lin(t, m) != seq.of_mask(m) for m, t in streams[0])
        assert (bytes(need), unit, occ, concs, axioms) == compiled

        shared = Closure.from_sigma(s)
        got: list = [None] * 4

        def work(k: int) -> None:
            got[k] = answers(shared, streams[k])

        threads = [threading.Thread(target=work, args=(k,)) for k in range(4)]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in threads)
        assert got == want
        assert (bytes(need), unit, occ, concs, axioms) == compiled


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

    @staticmethod
    def edge_family(rng, u: Universe, k: int) -> SetFamily:
        """k random members, with the corners the kernel must survive:
        the empty member, the full member and repeated members."""
        n = u.size
        masks = [rng.getrandbits(n) | rand_mask(rng, n) for _ in range(k)]
        for i in range(k):
            roll = rng.random()
            if roll < 0.1:
                masks[i] = 0
            elif roll < 0.2:
                masks[i] = u.full_mask
            elif roll < 0.3 and i:
                masks[i] = masks[rng.randrange(i)]
        return SetFamily(u, tuple(u.from_mask(m) for m in masks))

    def assert_matches_scan(self, family: SetFamily, queries) -> None:
        c = Closure.from_family(family)
        for m in queries:
            assert c.of_mask(m) == brute_family_close(family, m)

    def test_matches_member_scan_on_every_mask(self):
        for case in range(80):
            rng = rng_for(63000 + case)
            n = 1 + case % 8
            u = uni(n)
            k = 0 if case % 10 == 0 else rng.randint(1, 12)
            self.assert_matches_scan(self.edge_family(rng, u, k), range(1 << n))

    def test_empty_dash_full_and_repeated_members(self):
        u = uni(4)
        for members in ((), ("-",), ("1 2 3 4",), ("-", "1 2 3 4"), ("1 2", "1 2", "2 3")):
            self.assert_matches_scan(fam(u, *members), range(16))
        assert close_family(fam(u), aset(u, "-")) == u.full()
        assert close_family(fam(u, "-", "1 2 3 4"), aset(u, "-")) == aset(u, "-")
        assert close_family(fam(u, "1 2", "1 2", "2 3"), aset(u, "2")) == aset(u, "2")

    def test_extent_spans_machine_words(self):
        # the member selection is a k-bit integer: one, two and four words
        for k in (1, 63, 64, 65, 200):
            rng = rng_for(64000 + k)
            u = uni(8)
            self.assert_matches_scan(self.edge_family(rng, u, k), range(1 << 8))

    def test_wide_universe(self):
        for n in (80, 130):
            for k in (5, 64, 65):
                rng = rng_for(65000 + 1000 * n + k)
                u = uni(n)
                family = self.edge_family(rng, u, k)
                queries = [0, u.full_mask] + [rand_mask(rng, n) & rand_mask(rng, n)
                                              for _ in range(150)]
                queries += [family.masks()[rng.randrange(k)] & rng.getrandbits(n)
                            for _ in range(150)]
                self.assert_matches_scan(family, queries)


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

    def test_bound_refusal(self):
        u = uni(21)
        with pytest.raises(
            BoundExceededError,
            match=r"^quasiclosure needs all subsets of a 21-element set \(bound 20\)$",
        ):
            quasiclosure(ImplicationSet(u, ()), u.full())

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

    def test_family_listing_matches_brute_force(self):
        for case in range(30):
            rng = rng_for(66000 + case)
            n = rng.randint(2, 8)
            u = uni(n)
            family = rand_family(rng, u, rng.randint(1, 2 * n))
            want = sorted(brute_family_closed(n, family), key=lambda m: self.lectic_key(m, n))
            assert [x.mask for x in enumerate_closed_lectic(family)] == want

    def test_mask_listing_takes_complications_on_implication_input_only(self):
        assert list(lectic_masks(EQ25_MF)) == [s.mask for s in enumerate_closed_lectic(EQ38)]
        gamma = [aset(U6, "1 2").mask, aset(U6, "3 6").mask]
        want = [m for m in lectic_masks(EQ38) if all(g & ~m for g in gamma)]
        assert list(lectic_masks(EQ38, gamma)) == want and len(want) == 14
        for source in (EQ25_MF, Closure.from_sigma(EQ38)):
            with pytest.raises(TypeError, match="complications"):
                lectic_masks(source, gamma)

    def test_complications_may_be_one_shot_iterators(self):
        # an empty iterator is no complication, also on input without rules,
        # and a generator of complications lists the masks that a list does
        for source in (EQ25_MF, Closure.from_sigma(EQ38)):
            want = [s.mask for s in enumerate_closed_lectic(source)]
            assert list(lectic_masks(source, iter(()))) == want and len(want) == 22
        gamma = [aset(U6, "1 2").mask, aset(U6, "3 6").mask]
        got = list(lectic_masks(EQ38, (g for g in gamma)))
        assert got == list(lectic_masks(EQ38, gamma)) and len(got) == 14

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

    def test_membership_queries_share_the_column_compile(self, monkeypatch):
        s = sig(U6, "3 -> 5", "1 5 -> 4", "6 -> 3")
        size = len(pickle.dumps(s))
        compiled = []
        real = closure_module._columns

        def counted(sigma):
            compiled.append(sigma)
            return real(sigma)

        monkeypatch.setattr(closure_module, "_columns", counted)
        assert entails(s, imp(U6, "1 6 -> 4"))
        assert not entails(s, imp(U6, "5 -> 3"))
        assert equivalent(s, s)
        assert is_prime_implicate(s, imp(U6, "6 -> 5"))
        assert compiled == [s]
        # the operator made afterwards reuses the same compile, and binds
        # stop = E in one flat partial
        c = Closure.from_sigma(s)
        assert c._fn.func is _close_columnwise and c._fn.args[1] == U6.full_mask
        assert c.of_mask(aset(U6, "1 6").mask) == aset(U6, "1 3 4 5 6").mask
        assert compiled == [s]
        after = pickle.dumps(s)
        assert len(after) == size and pickle.loads(after)._compiled is None


class TestStoppedQueriesAgainstOracles:
    """Membership queries, which stop LinClosure at their target, against
    brute-force oracles on every small case."""

    def test_is_prime_implicate_matches_brute_primes(self):
        for case in range(200):
            rng = rng_for(4200 + case)
            n = rng.randint(1, 8)
            u = uni(n)
            s = rand_sigma(rng, u)
            want = brute_unit_primes(n, brute_closed_masks(n, s))
            for prem in range(1 << n):
                for e in range(n):
                    if prem >> e & 1:
                        continue
                    query = Implication(u.from_mask(prem), u.from_mask(1 << e))
                    assert is_prime_implicate(s, query) == ((prem, e) in want)

    def test_equivalent_matches_closed_sets(self):
        seen = {True: 0, False: 0}
        for case in range(200):
            rng = rng_for(4400 + case)
            n = rng.randint(1, 8)
            u = uni(n)
            s = rand_sigma(rng, u)
            pairs = s.mask_pairs()
            prem = rand_mask(rng, n)
            entailed = (prem, naive_fixpoint(pairs, prem) & rand_mask(rng, n))
            random_rule = (rand_mask(rng, n), rand_mask(rng, n))
            i = rng.randrange(len(pairs))
            for other in (
                ImplicationSet.from_pairs(u, pairs[:i] + pairs[i + 1 :]),
                ImplicationSet.from_pairs(u, [*pairs, entailed]),
                ImplicationSet.from_pairs(u, [*pairs, random_rule]),
                gd_base(s),
                rand_sigma(rng, u),
            ):
                want = brute_closed_masks(n, s) == brute_closed_masks(n, other)
                assert equivalent(s, other) == equivalent(other, s) == want
                seen[want] += 1
        assert min(seen.values()) >= 200
