import pytest

from hornkit import (
    HornSystem,
    Implication,
    ImplicationSet,
    InvariantError,
    Row012n,
    RowSystem,
    SetFamily,
    count,
    enumerate_compact,
    enumerate_horn,
    enumerate_horn_lectic,
    gd_base,
    horn_satisfiable,
    impose_complication,
    impose_implication,
    near_minimum_base,
    to_012,
)

from conftest import (
    EQ38,
    U6,
    aset,
    brute_closed_masks,
    exact_min_base_size,
    fam,
    imp,
    rand_family,
    rand_sigma,
    rng_for,
    sig,
    uni,
)


def row(u, ones="", zeros="", free="", bubbles=()):
    return Row012n(
        u,
        ones=u.parse_set(ones).mask,
        zeros=u.parse_set(zeros).mask,
        free=u.parse_set(free).mask,
        bubbles=tuple(u.parse_set(b).mask for b in bubbles),
    )


def full_cube(u):
    return RowSystem(u, (row(u, free=" ".join(u.labels)),))


class TestRow012n:
    def test_partition_enforced(self):
        with pytest.raises(InvariantError):
            Row012n(U6, ones=1, zeros=1, free=0, bubbles=())

    def test_bubble_needs_two_positions(self):
        with pytest.raises(InvariantError):
            row(U6, ones="2 3", zeros="4 5 6", bubbles=("1",))

    def test_count_arithmetic(self):
        r = row(U6, ones="3 4", free="2 6", bubbles=("1 5",))
        assert r.count() == 3 * 4
        assert r.count() == len(set(r.members()))
        r2 = row(U6, ones="4", free="2 3 6", bubbles=("1 5",))
        assert r2.count() == 3 * 8
        assert r2.count() == len(set(r2.members()))

    def test_members_match_brute_membership(self):
        # random partitions of [7] into ones, zeros, free and 0-3 bubbles;
        # a subset is a member iff it holds the ones, misses the zeros and
        # leaves a position of every bubble out
        u = uni(7)
        for case in range(60):
            rng = rng_for(9700 + case)
            k = case % 4
            parts = [rng.randrange(3 + k) for _ in range(7)]
            # every bubble gets at least two positions
            for i, p in enumerate(rng.sample(range(7), 2 * k)):
                parts[p] = 3 + i // 2
            masks = [sum(1 << p for p in range(7) if parts[p] == i) for i in range(3 + k)]
            bubbles = tuple(masks[3:])
            r = Row012n(u, masks[0], masks[1], masks[2], bubbles)
            want = [
                m
                for m in range(1 << 7)
                if m & masks[0] == masks[0]
                and not m & masks[1]
                and all(m & b != b for b in bubbles)
            ]
            got = list(r.members())
            assert sorted(got) == want
            assert r.count() == len(want)

    def test_render_symbols(self):
        r = row(U6, zeros="3 6", free="2 4", bubbles=("1 5",))
        assert r.render() == "a 2 0 2 a 0"
        r2 = row(U6, ones="1", zeros="6", bubbles=("2 3", "4 5"))
        assert r2.render() == "1 a a b b 0"


class TestImpose:
    def test_first_clause_split(self):
        rows = impose_implication(full_cube(U6), imp(U6, "1 5 -> 4"))
        assert rows.render() == "a 2 2 2 a 2\n1 2 2 1 1 2"

    def test_reference_table_layout(self):
        rows = full_cube(U6)
        for line in ("1 5 -> 4", "2 3 -> 1", "3 -> 5", "6 -> 3"):
            rows = impose_implication(rows, imp(U6, line))
        assert rows.render() == (
            "a 2 0 2 a 0\n0 0 1 2 1 2\n1 2 2 1 1 0\n1 2 1 1 1 1"
        )
        assert rows.count() == 22
        assert rows.pairwise_disjoint()

    def test_reference_table_intermediate_stages(self):
        rows = impose_implication(full_cube(U6), imp(U6, "1 5 -> 4"))
        rows = impose_implication(rows, imp(U6, "2 3 -> 1"))
        assert rows.render() == ("a b b 2 a 2\n1 1 1 2 0 2\n1 2 2 1 1 2")
        rows = impose_implication(rows, imp(U6, "3 -> 5"))
        assert rows.render() == ("a 2 0 2 a 2\n0 0 1 2 1 2\n1 2 2 1 1 2")

    def test_satisfied_rows_untouched(self):
        rows = impose_implication(full_cube(U6), imp(U6, "1 5 -> 4"))
        again = impose_implication(rows, imp(U6, "1 5 -> 4"))
        assert again.render() == rows.render()

    def test_empty_result_is_legal(self):
        u = uni(2)
        rows = impose_complication(full_cube(u), aset(u, "-"))
        assert rows.rows == ()
        assert count(rows) == 0

    def test_exactness_against_filter(self):
        for case in range(40):
            rng = rng_for(34000 + case)
            n = rng.randint(2, 6)
            u = uni(n)
            rows = full_cube(u)
            members = set(range(1 << n))
            for _ in range(rng.randint(1, 6)):
                a = rng.getrandbits(n)
                b = rng.getrandbits(n)
                rows = impose_implication(
                    rows, Implication(u.from_mask(a), u.from_mask(b))
                )
                members = {m for m in members if a & ~m or not (b & ~m)}
                assert rows.member_masks() == members
                assert rows.count() == len(members)
                assert rows.pairwise_disjoint()


class TestEnumerateCompact:
    def test_empty_sigma_single_row(self):
        u = uni(6)
        rows = enumerate_compact(ImplicationSet(u, ()))
        assert len(rows.rows) == 1
        assert count(rows) == 64

    def test_eq38_denotation(self):
        rows = enumerate_compact(EQ38)
        assert count(rows) == 22
        assert rows.member_masks() == set(brute_closed_masks(6, EQ38))

    def test_random_exact_and_disjoint(self):
        for case in range(30):
            rng = rng_for(35000 + case)
            n = rng.randint(2, 7)
            u = uni(n)
            s = rand_sigma(rng, u)
            rows = enumerate_compact(s)
            want = set(brute_closed_masks(n, s))
            assert rows.member_masks() == want
            assert count(rows) == len(want)
            assert rows.pairwise_disjoint()


class TestTo012:
    def test_three_bubble_pattern(self):
        u = uni(3)
        rows = to_012(RowSystem(u, (row(u, bubbles=("1 2 3",)),)))
        assert rows.render() == "0 2 2\n1 0 2\n1 1 0"

    def test_bubble_free_unchanged(self):
        rows = enumerate_compact(sig(U6, "1 -> 2"))
        flat = to_012(rows)
        assert to_012(flat).render() == flat.render()

    def test_equal_denotation_with_reference_expansion(self):
        # the two-position bubble row expands to two rows here; the same
        # block is sometimes written as three fully-fixed rows
        r1 = RowSystem(U6, (row(U6, free="2 3 4 6", bubbles=("1 5",)),))
        flat = to_012(r1)
        reference = RowSystem(
            U6,
            (
                row(U6, zeros="1 5", free="2 3 4 6"),
                row(U6, zeros="1", ones="5", free="2 3 4 6"),
                row(U6, ones="1", zeros="5", free="2 3 4 6"),
            ),
        )
        assert flat.member_masks() == reference.member_masks()
        assert flat.pairwise_disjoint()

    def test_preserves_denotation_random(self):
        for case in range(25):
            rng = rng_for(36000 + case)
            n = rng.randint(2, 6)
            s = rand_sigma(rng, uni(n))
            rows = enumerate_compact(s)
            flat = to_012(rows)
            assert all(not r.bubbles for r in flat.rows)
            assert flat.member_masks() == rows.member_masks()
            assert flat.pairwise_disjoint()


class TestHornSystem:
    def test_gamma_normalized_to_antichain(self):
        u = uni(3)
        h = HornSystem(sig(u, "1 -> 2"), fam(u, "1 2", "1 2 3", "2"))
        assert h.gamma.as_mask_set() == fam(u, "2").as_mask_set()
        assert h.gamma.is_antichain

    def test_enumerate_horn_golden(self):
        u = uni(3)
        h = HornSystem(ImplicationSet(u, ()), fam(u, "1 2"))
        assert count(enumerate_horn(h)) == 6

    def test_gamma_empty_matches_compact(self):
        h = HornSystem(EQ38, SetFamily(U6, ()))
        assert enumerate_horn(h).member_masks() == enumerate_compact(EQ38).member_masks()

    def test_excluding_top(self):
        h = HornSystem(EQ38, fam(U6, "1 2 3 4 5 6"))
        assert count(enumerate_horn(h)) == 21

    def test_count_without_rows_matches_rows(self):
        for case in range(25):
            rng = rng_for(37500 + case)
            u = uni(rng.randint(1, 7))
            h = HornSystem(rand_sigma(rng, u), rand_family(rng, u, k=rng.randint(0, 3)))
            assert count(h) == count(enumerate_horn(h))

    def test_lectic_listing_of_models(self):
        for case in range(40):
            rng = rng_for(37700 + case)
            n = rng.randint(1, 7)
            u = uni(n)
            s = rand_sigma(rng, u)
            g = rand_family(rng, u, k=rng.randint(0, 3))
            want = [m for m in brute_closed_masks(n, s) if all(a & ~m for a in g.masks())]
            want.sort(key=lambda m: [m >> p & 1 for p in range(n)])
            got = [x.mask for x in enumerate_horn_lectic(HornSystem(s, g))]
            assert got == want

    def test_random_exactness(self):
        for case in range(25):
            rng = rng_for(37000 + case)
            n = rng.randint(2, 6)
            u = uni(n)
            s = rand_sigma(rng, u)
            g = rand_family(rng, u, k=rng.randint(0, 3))
            h = HornSystem(s, g)
            closed = set(brute_closed_masks(n, s))
            want = {
                m
                for m in closed
                if all(a & ~m for a in g.masks())
            }
            rows = enumerate_horn(h)
            assert rows.member_masks() == want
            assert rows.pairwise_disjoint()


class TestSatisfiability:
    def test_pure_always_satisfiable(self):
        h = HornSystem(EQ38, SetFamily(U6, ()))
        ok, witness = horn_satisfiable(h)
        assert ok and witness.mask == 0

    def test_bottom_covers_complication(self):
        u = uni(3)
        h = HornSystem(sig(u, "-> 1 2"), fam(u, "1"))
        ok, witness = horn_satisfiable(h)
        assert not ok and witness is None

    def test_witness_is_bottom(self):
        u = uni(3)
        h = HornSystem(sig(u, "1 -> 2"), fam(u, "1 2"))
        ok, witness = horn_satisfiable(h)
        assert ok and witness.mask == 0

    def test_agrees_with_model_emptiness(self):
        for case in range(30):
            rng = rng_for(38000 + case)
            n = rng.randint(2, 6)
            u = uni(n)
            h = HornSystem(
                rand_sigma(rng, u), rand_family(rng, u, k=rng.randint(0, 3))
            )
            ok, witness = horn_satisfiable(h)
            models = enumerate_horn(h).member_masks()
            assert ok == bool(models)
            if ok:
                assert witness.mask in models


class TestTheorem6Compress:
    def test_pure_bypass(self):
        h = HornSystem(sig(uni(3), "1 -> 2", "1 -> 3"), SetFamily(uni(3), ()))
        out = near_minimum_base(h)
        assert len(out.gamma) == 0
        assert out.sigma.as_pair_set() == sig(uni(3), "1 -> 1 2 3").as_pair_set()

    def test_small_impure_instance(self):
        u = uni(3)
        h = HornSystem(sig(u, "1 -> 2"), fam(u, "1 2", "2 3"))
        out = near_minimum_base(h)
        assert out.gamma.as_mask_set() == {u.full_mask}
        assert enumerate_horn(out).member_masks() == enumerate_horn(h).member_masks()
        mod = enumerate_horn(h).member_masks()
        ca_h = exact_min_base_size(3, mod)
        assert len(out.sigma) + len(out.gamma) <= ca_h + 1

    def test_unsatisfiable_input(self):
        u = uni(2)
        h = HornSystem(sig(u, "-> 1 2"), fam(u, "1"))
        out = near_minimum_base(h)
        assert enumerate_horn(out).member_masks() == set()
        # the compressed implication part still drives bottom to the top
        from hornkit import Closure

        assert Closure.from_sigma(out.sigma).of_mask(0) == u.full_mask

    def test_model_set_preserved_random(self):
        for case in range(25):
            rng = rng_for(39000 + case)
            n = rng.randint(2, 5)
            u = uni(n)
            h = HornSystem(
                rand_sigma(rng, u, max_items=4),
                rand_family(rng, u, k=rng.randint(0, 3)),
            )
            out = near_minimum_base(h)
            assert enumerate_horn(out).member_masks() == enumerate_horn(h).member_masks()
            assert len(out.sigma) == len(gd_base_size_source(out, h))


def gd_base_size_source(out, h):
    # the compressed implication part is a minimum base of Mod(h) + top
    u = h.universe
    mod = enumerate_horn(h).member_masks()
    mod.add(u.full_mask)
    family = SetFamily(u, tuple(u.from_mask(m) for m in sorted(mod)))
    return gd_base(family)
