"""Acceptance suite: one test per criterion, each printing a pass/fail line
and holding its wall-clock budget (run with -s to see the lines).
"""

import time
from contextlib import contextmanager

from hornkit import (
    Closure,
    HornSystem,
    Implication,
    ImplicationSet,
    OrderedBase,
    SetFamily,
    acyclic_base,
    canonical_direct,
    clauses_of,
    consensus_closure,
    enumerate_compact,
    enumerate_horn,
    gd_base,
    implications_of,
    max_noncover_table,
    max_noncovers,
    meet_irreducibles,
    minimal_transversals,
    normalize,
    ordered_close,
    shock_minimize,
    stem_table,
    stems_from_meetirr,
    cmax_from_stems,
    near_minimum_base,
)

from conftest import (
    ACYC7,
    EQ15,
    EQ15_GD,
    EQ25_MF,
    EQ27_CD,
    EQ35_DB,
    EQ38,
    FIG4A,
    FIG4A_GD,
    L6_PRIMES,
    SHOCK_MIN,
    U6,
    aset,
    brute_closed_masks,
    brute_meet_irreducibles,
    exact_min_base_size,
    oracle_close,
    pairs,
    rand_antichain,
    rand_family,
    rand_sigma,
    rng_for,
    sig,
    uni,
)


@contextmanager
def criterion(num: str, budget: float, desc: str):
    t0 = time.perf_counter()
    ok = False
    try:
        yield
        ok = True
    finally:
        elapsed = time.perf_counter() - t0
        status = "PASS" if ok and elapsed < budget else "FAIL"
        print(f"[{status}] criterion {num} ({elapsed:.2f}s / {budget:.0f}s): {desc}")
    assert elapsed < budget, f"criterion {num} took {elapsed:.2f}s (budget {budget}s)"


def test_criterion_01_gd_base_of_listed_system():
    with criterion("1", 1.0, "canonical base of the four-set closure system"):
        assert pairs(gd_base(FIG4A)) == pairs(FIG4A_GD)
        assert len(gd_base(FIG4A)) == 6


def test_criterion_02_gd_base_of_singleton_premises():
    with criterion("2", 1.0, "canonical base of the singleton-premise family"):
        assert pairs(gd_base(EQ15)) == pairs(EQ15_GD)
        assert len(gd_base(EQ15)) == 8


def test_criterion_03_stems_and_direct_base_from_meet_irreducibles():
    with criterion("3", 1.0, "stems(4) and the canonical direct base from M(F)"):
        table = stem_table(EQ25_MF)
        got = {s.render() for s in table.stems_of[U6.index["4"]]}
        assert got == {"1 3", "1 6", "2 3", "2 6", "1 5"}
        cd = canonical_direct(EQ25_MF)
        assert pairs(cd) == pairs(EQ27_CD)
        assert len(cd) == 7


def test_criterion_04_consensus_fixpoint():
    with criterion("4", 1.0, "consensus closure reaches the ten prime clauses"):
        got = consensus_closure(clauses_of(EQ38))
        assert len(got) == 10
        assert pairs(implications_of(got, U6)) == pairs(L6_PRIMES)
        for a in got:
            for b in got:
                assert a is b or not a.subsumes(b)


def test_criterion_05_shock_minimization():
    with criterion("5", 1.0, "Shock minimization of the direct base"):
        assert pairs(shock_minimize(EQ27_CD)) == pairs(SHOCK_MIN)


def test_criterion_06_compact_enumeration_and_row_extraction():
    with criterion("6", 1.0, "compact enumeration: 22 models and max(F,4)"):
        rows = enumerate_compact(EQ38)
        assert rows.count() == 22
        brute = {
            m
            for m in range(1 << 6)
            if all(
                p & ~m != 0 or c & ~m == 0
                for p, c in EQ38.mask_pairs()
            )
        }
        assert rows.member_masks() == brute
        got = {s.render() for s in max_noncovers(EQ38, U6.index["4"])}
        assert got == {"2 5", "1 2", "3 5 6"}


def test_criterion_07a_acyclic_base_published_listing():
    # The published listing for this family is a base of it, but not a
    # nonredundant one: it keeps 2 3 -> 1, which its other four rules
    # already entail ({2,3} -> 4 -> 5, then {3,5} -> 6 -> 1). An acyclic
    # operator has a unique nonredundant base of prime implicates, so
    # acyclic_base must return the listing less 2 3 -> 1 (test_primes
    # confirms by exhaustive search that this is the only one). The
    # test checks both facts about the listing with the brute-force
    # oracles, which share no code with the library, then pins the base.
    desc = "acyclic base equals the published listing less its redundant 2 3 -> 1"
    with criterion("7a", 1.0, desc):
        rest = ("4 -> 5", "6 -> 1", "2 3 -> 4", "3 5 -> 6")
        published = sig(U6, *rest, "2 3 -> 1")
        assert brute_closed_masks(6, published) == brute_closed_masks(6, ACYC7)
        rest_closed = brute_closed_masks(6, sig(U6, *rest))
        got = oracle_close(rest_closed, U6.full_mask, aset(U6, "2 3").mask)
        assert got & aset(U6, "1").mask
        assert pairs(acyclic_base(ACYC7)) == pairs(sig(U6, *rest))


def test_criterion_07b_ordered_one_pass_closure():
    with criterion("7b", 1.0, "one ordered pass closes {2,5} completely"):
        published_order = OrderedBase(universe=U6, items=EQ35_DB.items, binary_count=5)
        assert ordered_close(published_order, aset(U6, "2 5")) == U6.full()
        assert ordered_close(published_order, aset(U6, "2 5"), verify=True) == U6.full()


def test_criterion_08_property_suite_thousand_instances():
    desc = "1000 random families: axioms, oracles, duality, directness, rows"
    with criterion("8", 60.0, desc):
        for case in range(1000):
            rng = rng_for(800_000 + case)
            n = 3 + case % 6
            u = uni(n)
            full = u.full_mask
            s = rand_sigma(rng, u)
            ps = s.mask_pairs()
            c = Closure.from_sigma(s)

            # brute-force model set straight from the closed-set predicate
            closed = [
                m
                for m in range(1 << n)
                if all(p & ~m != 0 or q & ~m == 0 for p, q in ps)
            ]
            closed_set = set(closed)

            # closure axioms, exactly, plus agreement with the predicate
            for m in range(1 << n):
                cm = c.of_mask(m)
                assert m & ~cm == 0
                assert c.of_mask(cm) == cm
                assert (cm == m) == (m in closed_set)
                for p in range(n):
                    if not m >> p & 1:
                        assert cm & ~c.of_mask(m | 1 << p) == 0

            # semantic-consequence test equals the model-checking oracle
            for _ in range(5):
                a = rng.getrandbits(n)
                b = rng.getrandbits(n)
                want = all(b & ~x == 0 for x in closed if a & ~x == 0)
                assert (b & ~c.of_mask(a) == 0) == want

            # the model set is intersection-closed and contains the top
            assert full in closed_set
            for i, x in enumerate(closed):
                for y in closed[i + 1 :]:
                    assert x & y in closed_set

            # transversal involution on a random antichain
            h = rand_antichain(rng, u)
            if all(x.mask for x in h):
                tr = minimal_transversals(h)
                assert minimal_transversals(tr).as_mask_set() == h.as_mask_set()

            # stem/meet-irreducible bridges, both directions
            mi = meet_irreducibles(s)
            table = stem_table(s)
            mnc = max_noncover_table(s)
            for e in range(n):
                assert (
                    stems_from_meetirr(mi, e).as_mask_set()
                    == table.stems_of[e].as_mask_set()
                )
                assert (
                    cmax_from_stems(table, e).as_mask_set()
                    == mnc.cmax_of[e].as_mask_set()
                )

            # the direct base closes in one forward-chaining step
            cd = [(stem.mask, roots.mask) for stem, roots in table.roots_of.items()]
            for m in range(1 << n):
                one = m
                for prem, conc in cd:
                    if prem & ~m == 0:
                        one |= conc
                assert one == c.of_mask(m)

            # canonical base is never beaten, also by padded supersets
            base = gd_base(c)
            assert len(base) <= len(normalize(s))
            extras = list(s.items)
            for _ in range(rng.randint(1, 3)):
                a = rng.getrandbits(n)
                extras.append(Implication(u.from_mask(a), u.from_mask(c.of_mask(a))))
            padded = ImplicationSet(u, tuple(extras))
            assert len(base) <= len(normalize(padded))

            # compressed rows: exact denotation, exact count, disjoint
            rows = enumerate_compact(s)
            assert rows.member_masks() == closed_set
            assert rows.count() == len(closed)
            if len(rows.rows) <= 40:
                assert rows.pairwise_disjoint()


def test_criterion_09_almost_minimum_compression_bound():
    desc = "200 impure systems on 4 elements: exhaustive near-minimality"
    with criterion("9", 120.0, desc):
        u = uni(4)
        full = u.full_mask
        for case in range(200):
            rng = rng_for(900_000 + case)
            h = HornSystem(
                rand_sigma(rng, u, max_items=4),
                rand_family(rng, u, k=rng.randint(0, 3)),
            )
            mod = enumerate_horn(h).member_masks()
            mod_top = set(mod) | {full}

            ca_bottom = exact_min_base_size(4, mod_top, allow_complications=False)
            fam_top = SetFamily(u, tuple(u.from_mask(m) for m in sorted(mod_top)))
            assert ca_bottom == len(gd_base(fam_top))

            ca_h = exact_min_base_size(4, mod, allow_complications=True)
            assert ca_bottom <= ca_h <= ca_bottom + 1

            out = near_minimum_base(h)
            assert enumerate_horn(out).member_masks() == mod
            assert len(out.sigma) + len(out.gamma) <= ca_h + 1


def test_criterion_10_differential_checks():
    desc = "row vs vertical closure (10^4 queries); rows vs brute M(F)"
    with criterion("10", 60.0, desc):
        queries = 0
        case = 0
        sizes = (4, 6, 8, 12, 40, 80)
        while queries < 10_000:
            rng = rng_for(1_000_000 + case)
            n = sizes[case % len(sizes)]
            u = uni(n)
            s = rand_sigma(rng, u, max_items=24)
            c_row = Closure.from_sigma(s, layout="row")
            c_col = Closure.from_sigma(s, layout="column")
            for _ in range(20):
                m = rng.getrandbits(n)
                assert c_row.of_mask(m) == c_col.of_mask(m)
                queries += 1
            case += 1

        for case in range(1000):
            rng = rng_for(800_000 + case)  # identical instances to criterion 8
            n = 3 + case % 6
            s = rand_sigma(rng, uni(n))
            assert meet_irreducibles(s).as_mask_set() == brute_meet_irreducibles(
                n, brute_closed_masks(n, s)
            )
