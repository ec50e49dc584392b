from itertools import islice
from math import prod

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
    meet_irreducibles,
    minimal_keys,
    near_minimum_base,
    stem_table,
    to_012,
)

from hornkit.closure import (
    _at_least_one_zero,
    _force_ones,
    _impose,
    _model_rows,
    _split_order,
    expand_rows,
    flat_rows,
    lectic_masks,
    model_rows,
    split_rows,
)
from hornkit.core import _row_layout
from hornkit.rows import _system

from conftest import (
    EQ38,
    U6,
    aset,
    brute_closed_masks,
    brute_meet_irreducibles,
    brute_minimal_keys,
    brute_stems,
    exact_min_base_size,
    fam,
    imp,
    oracle_bubble_names,
    oracle_row_text,
    rand_family,
    rand_mask,
    rand_sigma,
    reference_at_least_one_zero,
    reference_expand,
    reference_force_ones,
    reference_impose,
    reference_model_rows,
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


    def test_render_matches_the_position_oracle(self):
        # random partitions into ones, zeros, free and 0-5 bubbles
        for case in range(120):
            rng = rng_for(9800 + case)
            k = case % 6
            n = rng.randint(max(1, 2 * k), 2 * k + 12)
            r = Row012n(uni(n), *partition_row(rng, n, k))
            assert r.render() == oracle_row_text(r)


def partition_row(rng, n, k):
    """A random 012n row tuple over n positions with k bubbles (2k <= n):
    each position goes to ones, zeros, free or a bubble, and each bubble
    first takes two positions of its own."""
    parts = [rng.randrange(3 + k) for _ in range(n)]
    for i, p in enumerate(rng.sample(range(n), 2 * k)):
        parts[p] = 3 + i // 2
    masks = [sum(1 << p for p in range(n) if parts[p] == i) for i in range(3 + k)]
    return masks[0], masks[1], masks[2], tuple(masks[3:])


def pairs_theory(k: int) -> ImplicationSet:
    """2k + 1 elements and the k rules x(2i-1) x(2i) -> x(2k+1): the given
    order leaves k bubbles in the first row."""
    u = uni(2 * k + 1)
    return sig(u, *(f"{2 * i - 1} {2 * i} -> {2 * k + 1}" for i in range(1, k + 1)))


class TestRowLines:
    """Universe.row_lines is the one row renderer: Row012n.render,
    RowSystem.render and the enumerate verb all print through it."""

    def assert_matches_oracle(self, u, rows):
        assert u.row_lines(rows) == "\n".join(oracle_row_text(Row012n(u, *r)) for r in rows)
        for r in rows:
            assert u.row_lines([r]) == oracle_row_text(Row012n(u, *r))

    def test_bubble_names_past_z(self):
        s = pairs_theory(27)
        rows = model_rows(s)
        names = [*"abcdefghijklmnopqrstuvwxyz", "aa"]
        assert len(rows) == 28
        assert s.universe.row_lines(rows[:1]) == " ".join(x for x in names for _ in "xy") + " 2"
        assert enumerate_compact(s).render().split("\n")[0].endswith("z z aa aa 2")
        assert count(HornSystem(s, SetFamily(s.universe, ()))) == 2**54 + 3**27
        self.assert_matches_oracle(s.universe, rows)
        few = [r for r in rows if len(r[3]) <= 3]
        self.assert_matches_oracle(s.universe, expand_rows(few))

    def test_oracle_names(self):
        names = list(islice(oracle_bubble_names(), 703))
        assert [names[i] for i in (0, 25, 26, 27, 51, 52, 701, 702)] == [
            "a", "z", "aa", "ab", "az", "ba", "zz", "aaa",
        ]

    def test_compact_and_flat_rows_of_random_theories(self):
        # n = 1, and sizes on both sides of a multiple of 8
        for case in range(60):
            rng = rng_for(42000 + case)
            n = (1, 7, 9, 15, 17, 22)[case % 6] if case % 5 else 1
            u = uni(n)
            s = rand_sigma(rng, u)
            g = rand_family(rng, u, k=rng.randint(0, 2)).masks()
            for rows in (model_rows(s, g), expand_rows(model_rows(s, g)), flat_rows(s, g)):
                self.assert_matches_oracle(u, rows)

    def test_four_byte_lanes(self):
        # past 319 positions a lane takes four bytes: a row may have more
        # than 159 bubbles, whose symbols outgrow one byte
        n = 601
        u = uni(n)
        bubbles = tuple(3 << (2 * i) for i in range(300))
        rows = [(0, 1 << 600, 0, bubbles), (1 << 600, 0, (1 << 600) - 1, ())]
        self.assert_matches_oracle(u, rows)
        assert u.row_lines(rows[:1]).split()[-3:] == ["kn", "kn", "0"]

    def test_rows_that_do_not_partition_are_refused(self):
        top, mid = 1 << 21, sum(1 << p for p in range(4, 20))
        bad = {
            6: [
                (1, 1, 62, ()),  # position 1 forced both ways
                (1, 2, 56, ()),  # positions 3 and 4 in no part
                (0, 0, 62, (1,)),  # a one-position bubble
                (0, 0, 60, (3, 6)),  # two bubbles share position 2
                (0, 0, 63, (3, 12)),  # bubbles inside the free positions
                (64, 0, 63, ()),  # a position outside the universe
                (-1, 0, 63, ()),  # a negative mask
                (0, 0, 63, (-4,)),  # a negative bubble
            ],
            # format(-5, "022b") is "-" and 21 bits, 22 characters like any
            # mask, and its "-" lane (3 below "0") cancels against the four
            # other kinds that hold position 22: the lane sums alone pass it
            22: [(-5, top | 1 << 1, top | mid, (top | 1 << 20, top | 1 << 3))],
            # 2^16 bubbles on positions 1-3 and a one on position 1: lanes
            # of 2^16 + 1, 2^16, 2^16 and 0 carry over to the lane sums of a
            # partition, so only the count of bubbles refuses it
            4: [(1, 0, 0, (7,) * (1 << 16))],
        }
        for n in (53, 54, 601):
            # members above the universe, in each kind of mask
            full = (1 << n) - 1
            bad[n] = [
                (1 << n, 0, full, ()),
                (0, 1 << n | 1, full ^ 1, ()),
                (0, 0, full | 1 << (n + 7), ()),
                (0, 0, full ^ 3, (3 | 1 << n,)),
            ]
        for n, rows in bad.items():
            u = uni(n)
            good = (0, 0, u.full_mask, ())
            block = _row_layout(n)[0]
            for row in rows:
                with pytest.raises(InvariantError):
                    Row012n(u, *row)
                # in the first block, and as the first row of the second one
                for listing in ([good, row], [good] * block + [row, good]):
                    with pytest.raises(InvariantError):
                        u.row_lines(listing)
                    with pytest.raises(InvariantError):
                        u.row_lines(iter(listing))
        assert uni(6).row_lines([]) == ""

    @pytest.mark.parametrize("n", [18, 19, 30, 64, 601])
    def test_blocks_with_wide_rows_match_the_oracle(self, n):
        # a block holding a row of over 8 bubbles is written in runs: rows
        # of 0-12 bubbles and of the most a row can hold, alone and in runs
        # of equal counts, at the start, middle and end of a block
        rng = rng_for(53000 + n)
        u = uni(n)
        block = _row_layout(n)[0]
        rows = []
        while len(rows) < 2 * block + 3:
            k = rng.choice([0, 1, 5, 8, 9, 9, 10, 12, n // 2])
            rows += [partition_row(rng, n, min(k, n // 2))] * rng.choice([1, 1, 2, 3])
        want = [oracle_row_text(Row012n(u, *r)) for r in rows]
        for start, stop in ((0, len(rows)), (0, 1), (block - 2, block + 2), (5, 9)):
            assert u.row_lines(rows[start:stop]) == "\n".join(want[start:stop])
            assert u.row_lines(iter(rows[start:stop])) == "\n".join(want[start:stop])
        assert sum(len(r[3]) > 8 for r in rows) > block // 4

    def test_bad_rows_among_wide_rows_are_refused(self):
        # each fault in a row of many bubbles, or next to one, in any run
        rng = rng_for(53700)
        for n in (18, 53, 601):
            u = uni(n)
            block = _row_layout(n)[0]
            wide = partition_row(rng, n, n // 2)
            nine = partition_row(rng, n, 9)
            ones, zeros, free, bubbles = wide
            b0, b1 = bubbles[0], bubbles[1]
            low = b0 & -b0
            bad = [
                (ones, zeros | b0 ^ low, free, (low, *bubbles[1:])),  # a one-position bubble
                (ones, zeros, free, (b0 | b1 & -b1, *bubbles[1:])),  # two bubbles overlap
                (ones, zeros, free, bubbles[1:]),  # the positions of b0 in no part
                (ones, zeros, free, (*bubbles, -4)),  # a negative bubble
                (ones | 1 << n, zeros, free, bubbles),  # a position outside the universe
                (ones, zeros, free, (*bubbles[1:], b0, b0)),  # one bubble twice
                (-1, zeros, free, bubbles),  # a negative mask
            ]
            good = (0, 0, u.full_mask, ())
            for row in bad:
                with pytest.raises(InvariantError):
                    Row012n(u, *row)
                for listing in ([good, nine, row], [wide, wide, row, good], [row, nine],
                                [good] * block + [nine, row, wide]):
                    with pytest.raises(InvariantError):
                        u.row_lines(listing)
                fixed = (ones, zeros, free, bubbles)
                assert u.row_lines([good, nine, fixed]).count("\n") == 2

    @pytest.mark.parametrize("n", [1, 2, 8, 22, 52, 53, 54, 64, 601])
    def test_listings_of_every_length_match_the_oracle(self, n):
        # lengths around the block size, lists and generators, rows of
        # 0-5 bubbles (about four with the most a row can hold, which names
        # bubbles past z from n = 54 on) and their expansions
        rng = rng_for(51000 + n)
        u = uni(n)
        block = _row_layout(n)[0]
        most = 3 * block + 500 if n <= 22 else 2 * block + 1
        rows = []
        for _ in range(most):
            k = n // 2 if rng.random() < 4 / most else rng.randint(0, min(5, n // 2))
            rows.append(partition_row(rng, n, k))
        want = [oracle_row_text(Row012n(u, *r)) for r in rows]
        for length in sorted({0, 1, block - 1, block, block + 1, 2 * block + 1, most}):
            text = "\n".join(want[:length])
            assert u.row_lines(rows[:length]) == text
            if length > block:
                assert u.row_lines(r for r in rows[:length]) == text
        # a k-position bubble expands to k rows
        flat = expand_rows(r for r in rows[: block + 1] if prod(map(int.bit_count, r[3])) <= 64)
        assert u.row_lines(iter(flat)) == "\n".join(
            oracle_row_text(Row012n(u, *r)) for r in flat
        )


def sparse_sigma(rng, u):
    """A theory of 2-3-position premises and 1-2-position conclusions,
    sometimes with an empty premise or an empty conclusion: fewer of its
    rows stay whole than under ``rand_sigma``, so it splits more."""
    n = u.size

    def sample(k):
        return sum(1 << p for p in rng.sample(range(n), min(n, k)))

    pairs = [
        (sample(rng.randint(2, 3)), sample(rng.randint(1, 2)))
        for _ in range(rng.randint(1, 2 * n))
    ]
    if rng.random() < 0.3:
        pairs.insert(rng.randrange(len(pairs)), (0, sample(1)))
    if rng.random() < 0.3:
        pairs.insert(rng.randrange(len(pairs)), (sample(2), 0))
    return ImplicationSet.from_pairs(u, pairs)


def theory_draws(seed, cases):
    """A fresh ``rng_for(seed + case)`` per case, twice: once with
    ``rand_sigma``, whose theories have few closed sets, and once with
    ``sparse_sigma``, whose rows split more."""
    for case in range(cases):
        for draw in (rand_sigma, sparse_sigma):
            yield rng_for(seed + case), draw


class TestSplitOrder:
    """Row listings that are never printed impose the rules in
    closure._split_order; the order must change no answer."""

    def test_split_order_sorts_by_size_then_popularity(self):
        u = uni(5)
        s = sig(u, "1 2 3 -> 4", "4 5 -> 1", "1 2 -> 3", "5 -> 1", "1 -> 5", "-> 2", "4 -> 3")
        # premises holding each position: 1 in three, 2, 4 and 5 in two, 3
        # in one; "5 -> 1" and "4 -> 3" tie at 2 and keep their order
        want = sig(u, "-> 2", "1 -> 5", "5 -> 1", "4 -> 3", "1 2 -> 3", "4 5 -> 1", "1 2 3 -> 4")
        assert _split_order(s.mask_pairs()) == want.mask_pairs()

    def test_orders_agree_with_brute_force(self):
        for rng, draw in theory_draws(41000, 200):
            n = rng.randint(1, 10)
            u = uni(n)
            s = draw(rng, u)
            h = HornSystem(s, rand_family(rng, u, k=rng.randint(0, 3)))
            gamma = h.gamma.masks()
            closed = brute_closed_masks(n, s)
            models = [m for m in closed if all(a & ~m for a in gamma)]
            given = _system(u, model_rows(s, gamma))
            split = _system(u, _model_rows(u, _split_order(s.mask_pairs()), gamma))
            assert given.pairwise_disjoint() and split.pairwise_disjoint()
            assert given.member_masks() == split.member_masks() == set(models)
            assert given.count() == split.count() == count(h) == len(models)
            models.sort(key=lambda m: [m >> p & 1 for p in range(n)])
            assert list(lectic_masks(s, gamma)) == models
            assert meet_irreducibles(s).as_mask_set() == brute_meet_irreducibles(n, closed)
            assert minimal_keys(s).as_mask_set() == brute_minimal_keys(n, closed)
            stems = stem_table(s).stems_of
            assert {e: f.as_mask_set() for e, f in stems.items()} == brute_stems(n, closed)


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


def rand_row(rng, n):
    """A random valid row over n positions: each position is a one, a
    forced 0 or free, or starts a bubble of 2-5 positions."""
    order = list(range(n))
    rng.shuffle(order)
    ones = zeros = free = 0
    bubbles = []
    while order:
        k = rng.randint(2, 5)
        if k <= len(order) and rng.random() < 0.3:
            bubbles.append(sum(1 << p for p in order[:k]))
            del order[:k]
            continue
        bit = 1 << order.pop()
        pick = rng.random()
        if pick < 0.3:
            ones |= bit
        elif pick < 0.5:
            zeros |= bit
        else:
            free |= bit
    return ones, zeros, free, tuple(bubbles)


class TestSplitterMatchesReference:
    """The flat splitter gives the rows of the recursive one that it
    replaced (``conftest.reference_impose``), tuple for tuple and in
    order, so every printed listing and bubble name stays as it was."""

    def test_listings_of_random_theories(self):
        seen = {"empty premise": 0, "empty conclusion": 0, "long conclusion": 0}
        for case in range(640):
            rng = rng_for(47000 + case)
            n = rng.randint(1, 12)
            s = (rand_sigma if case % 2 else sparse_sigma)(rng, uni(n))
            pairs = s.mask_pairs()
            seen["empty premise"] += any(not a for a, _ in pairs)
            seen["empty conclusion"] += any(not b for _, b in pairs)
            seen["long conclusion"] += any(b & (b - 1) for _, b in pairs)
            split = _split_order(pairs)
            for gamma in ([], [rand_mask(rng, n) for _ in range(rng.randint(1, 3))]):
                assert model_rows(s, gamma) == reference_model_rows(n, pairs, gamma)
                want = reference_model_rows(n, split, gamma)
                assert split_rows(s, gamma) == want
                assert flat_rows(s, gamma) == reference_expand(want)
        assert min(seen.values()) >= 30, seen

    def test_one_step_on_random_rows(self):
        for case in range(3000):
            rng = rng_for(48000 + case)
            n = rng.randint(1, 16)
            row = rand_row(rng, n)
            a = rand_mask(rng, n) if rng.random() < 0.8 else 0
            b = rand_mask(rng, n)
            c = rand_mask(rng, n)
            assert _force_ones(row, a) == reference_force_ones(row, a)
            assert _force_ones(row, a | b) == reference_force_ones(row, a | b)
            got, want = [], []
            _at_least_one_zero(row, a, got)
            reference_at_least_one_zero(row, a, want)
            assert got == want
            assert _impose([row], [(a, b)], ()) == reference_impose([row], [(a, b)], ())
            assert _impose([row], (), [c]) == reference_impose([row], (), [c])

    @staticmethod
    def universe(n):
        """The universe [n] and a reader of its position lists as masks."""
        u = uni(n)
        return u, lambda text: u.parse_set(text).mask

    @staticmethod
    def step(u, row, rule):
        """One pair imposed on one row, checked against the reference."""
        a, b = (u.parse_set(side).mask for side in rule.split("->"))
        got = _impose([row], [(a, b)], ())
        assert got == reference_impose([row], [(a, b)], ())
        return got

    def test_premise_meets_two_bubbles(self):
        u, m = self.universe(8)
        row = (0, 0, m("5 6 7 8"), (m("1 2"), m("3 4")))
        assert self.step(u, row, "1 3 5 -> 6") == [
            (0, m("1"), m("2 5 6 7 8"), (m("3 4"),)),
            (m("1"), m("2 3"), m("4 5 6 7 8"), ()),
            (m("1 3"), m("2 4 5"), m("6 7 8"), ()),
            (m("1 3 5 6"), m("2 4"), m("7 8"), ()),
        ]

    def test_bubbles_shrink_in_place_or_to_a_forced_zero(self):
        u, m = self.universe(8)
        row = (0, 0, m("8"), (m("1 2"), m("3 4 5"), m("6 7")))
        # 3 4 5 keeps its place behind 1 2 as 4 5; 6 7 becomes a forced 0
        want = (m("3 6"), m("7"), m("8"), (m("1 2"), m("4 5")))
        assert _force_ones(row, m("3 6")) == want
        assert reference_force_ones(row, m("3 6")) == want
        got, ref = [], []
        _at_least_one_zero(row, m("3 6 8"), got)
        reference_at_least_one_zero(row, m("3 6 8"), ref)
        assert got == ref == [
            (0, m("3"), m("4 5 8"), (m("1 2"), m("6 7"))),
            (m("3"), m("6"), m("7 8"), (m("1 2"), m("4 5"))),
            (m("3 6"), m("7 8"), 0, (m("1 2"), m("4 5"))),
        ]
        assert u.row_lines(got) == "a a 0 2 2 b b 2\na a 1 b b 0 2 2\na a 1 b b 1 0 0"

    def test_conclusion_inside_a_bubble(self):
        u, m = self.universe(4)
        row = (0, 0, m("1 2"), (m("3 4"),))
        assert self.step(u, row, "1 -> 3") == [
            (0, m("1"), m("2"), (m("3 4"),)),
            (m("1 3"), m("4"), m("2"), ()),
        ]
        # a conclusion covering the bubble leaves only the missing part
        assert self.step(u, row, "1 -> 3 4") == [(0, m("1"), m("2"), (m("3 4"),))]

    def test_conclusion_forced_absent(self):
        u, m = self.universe(3)
        row = (0, m("2"), m("1 3"), ())
        assert self.step(u, row, "1 -> 2") == [(0, m("1 2"), m("3"), ())]

    def test_premise_inside_ones(self):
        u, m = self.universe(6)
        row = (m("1 2"), 0, m("3 4"), (m("5 6"),))
        assert self.step(u, row, "1 2 -> 3") == [(m("1 2 3"), 0, m("4"), (m("5 6"),))]

    def test_empty_complication_leaves_no_rows(self):
        u, m = self.universe(6)
        rows = [(0, 0, u.full_mask, ()), (m("1"), m("2"), m("5 6"), (m("3 4"),))]
        assert _impose(rows, (), [0]) == reference_impose(rows, (), [0]) == []
        assert model_rows(EQ38, [0]) == split_rows(EQ38, [0]) == []


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
        for rng, draw in theory_draws(35000, 30):
            n = rng.randint(2, 7)
            u = uni(n)
            s = draw(rng, u)
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
        for rng, draw in theory_draws(37500, 25):
            u = uni(rng.randint(1, 7))
            h = HornSystem(draw(rng, u), rand_family(rng, u, k=rng.randint(0, 3)))
            assert count(h) == count(enumerate_horn(h))

    def test_lectic_listing_of_models(self):
        for rng, draw in theory_draws(37700, 40):
            n = rng.randint(1, 7)
            u = uni(n)
            s = draw(rng, u)
            g = rand_family(rng, u, k=rng.randint(0, 3))
            want = [m for m in brute_closed_masks(n, s) if all(a & ~m for a in g.masks())]
            want.sort(key=lambda m: [m >> p & 1 for p in range(n)])
            got = [x.mask for x in enumerate_horn_lectic(HornSystem(s, g))]
            assert got == want

    def test_random_exactness(self):
        for rng, draw in theory_draws(37000, 25):
            n = rng.randint(2, 6)
            u = uni(n)
            s = draw(rng, u)
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
