import copy
import pickle
from collections import Counter

import pytest

from hornkit import (
    Implication,
    ImplicationSet,
    InvariantError,
    MeasureReport,
    ParseError,
    SetFamily,
    Universe,
    UniverseMismatchError,
    aggregate,
    load_family,
    load_implications,
    measures,
    normalize,
    parse_family,
    parse_implications,
    parse_universe,
    trim_conclusions,
    unit_expand,
)
from hornkit.closure import Closure
from hornkit.core import bits, set_text

from conftest import (
    EQ27_CD,
    EQ38,
    aset,
    imp,
    pairs,
    rand_mask,
    rand_sigma,
    rng_for,
    sig,
    uni,
)


class TestParsing:
    def test_universe_basic(self):
        u = parse_universe("elements: 1 2 3 4 5 6 7")
        assert u.size == 7
        assert u.labels == tuple("1234567")

    def test_universe_named_attributes(self):
        u = parse_universe("# schema\nelements: C T H R S")
        assert u.size == 5
        assert u.index["H"] == 2

    def test_duplicate_label_rejected(self):
        with pytest.raises(ParseError):
            parse_universe("elements: a b a")

    def test_empty_declaration_rejected(self):
        with pytest.raises(ParseError):
            parse_universe("elements:")
        with pytest.raises(ParseError):
            parse_universe("# nothing\n")

    def test_reserved_labels_rejected(self):
        with pytest.raises(ParseError):
            parse_universe("elements: a - b")
        with pytest.raises(ParseError):
            parse_universe("elements: a ->")
        # "a b" would render as two labels that parse_set cannot read back
        # a content line that starts with the header is read as a second one
        for lab in ("a b", "", " a", "a\t", "a\nb", "elements:", "elements:x"):
            with pytest.raises(ParseError, match="illegal label"):
                Universe([lab, "c"])

    def test_labels_containing_an_arrow_rejected(self):
        # such a label could never be used on an implication line, nor
        # survive a render-and-parse round trip
        for text in ("elements: a->b c", "elements: a b->", "elements: ->a"):
            with pytest.raises(ParseError):
                parse_universe(text)
        u = parse_universe("elements: a- >b c")
        s = parse_implications("a- >b -> c", u)
        assert parse_implications(s.render(), u) == s

    def test_missing_header_rejected(self):
        with pytest.raises(ParseError):
            parse_universe("1 2 3")

    def test_second_header_rejected(self):
        # a header is read only as the first content line
        for text in ("elements: 1 2\n1 -> 2\nelements: 1 2\n",
                     "# note\nelements: 1 2\nelements: 1 2 3\n"):
            with pytest.raises(ParseError):
                load_implications(text)
            with pytest.raises(ParseError):
                load_family(text.replace("1 -> 2", "1"))
        with pytest.raises(ParseError):
            parse_family("1\nelements: 1 2", uni(2))
        u, s = load_implications("# note\nelements: 1 2\n1 -> 2\n")
        assert [i.render() for i in s] == ["1 -> 2"]

    def test_implications_file_order(self):
        u = uni(6)
        s = parse_implications("3 -> 5\n1 5 -> 4\n6 -> 3\n2 3 -> 1", u)
        assert pairs(s) == pairs(EQ38)
        assert [i.render() for i in s] == ["3 -> 5", "1 5 -> 4", "6 -> 3", "2 3 -> 1"]

    def test_empty_premise_and_conclusion(self):
        u = uni(3)
        s = parse_implications("-> 1 2\n1 2 ->", u)
        assert s.items[0].premise.mask == 0
        assert s.items[0].conclusion == aset(u, "1 2")
        assert s.items[1].conclusion.mask == 0

    def test_unknown_label(self):
        with pytest.raises(ParseError):
            parse_implications("1 -> 9", uni(3))

    def test_missing_arrow(self):
        with pytest.raises(ParseError):
            parse_implications("1 2 3", uni(3))

    def test_family_lines_and_empty_set(self):
        u = uni(3)
        f = parse_family("1 2\n-\n3\n# note\n", u)
        assert [s.mask for s in f] == [0b011, 0, 0b100]

    def test_load_round_trip(self):
        text = "elements: 1 2 3\n-> 1\n1 2 -> 3\n"
        u, s = load_implications(text)
        rendered = "elements: " + " ".join(u.labels) + "\n" + s.render() + "\n"
        assert rendered == text
        u2, f = load_family("elements: a b\n-\na b\n")
        assert ("elements: " + " ".join(u2.labels) + "\n" + f.render() + "\n") == "elements: a b\n-\na b\n"


class TestMaskText:
    def labels(self, n):
        # labels of several lengths
        return tuple("x" * (i % 4) + str(i) for i in range(n))

    @pytest.mark.parametrize("n", [1, 7, 8, 9, 16, 17, 64, 200])
    def test_matches_the_label_join(self, n):
        labels = self.labels(n)
        u = Universe(labels)
        rng = rng_for(1700 + n)
        full = u.full_mask
        masks = [0, full, 1, 1 << n - 1]
        for _ in range(300):
            masks.append(rng.getrandbits(n) & rng.getrandbits(n) | rng.getrandbits(n) >> 2)
        for _ in range(2):  # the second pass reads the filled tables
            for m in masks:
                want = " ".join(labels[p] for p in bits(m))
                assert u.text(m) == want
                assert u.from_mask(m).render() == want
                assert set_text(u.from_mask(m)) == (want or "-")
        assert u.lines(masks) == "\n".join(" ".join(labels[p] for p in bits(m)) or "-"
                                           for m in masks)
        family = SetFamily(u, tuple(u.from_mask(m) for m in masks))
        assert family.render() == u.lines(masks)
        assert parse_family(family.render(), u) == family

    def test_empty_listing_and_empty_set(self):
        u = uni(3)
        assert u.text(0) == "" and u.lines([0]) == "-" and u.lines([]) == ""
        assert SetFamily(u, ()).render() == ""

    def test_tables_invisible_in_value(self):
        u = Universe(self.labels(20))
        before = (hash(u), repr(u), pickle.dumps(u))
        twin = pickle.loads(before[2])
        u.text(u.full_mask)
        u.lines(range(300))
        assert u._text is not None and twin._text is None
        assert u == twin and hash(u) == before[0] and repr(u) == before[1]
        assert pickle.dumps(u) == before[2]
        for back in (pickle.loads(pickle.dumps(u)), copy.deepcopy(u)):
            assert back == u and back._text is None
            assert back.index == u.index and back.full_mask == u.full_mask
            assert back.lines(range(300)) == u.lines(range(300))


class TestSetAlgebra:
    def test_universe_equality_is_by_labels(self):
        labels = tuple(f"x{i}" for i in range(1000))
        u, twin = Universe(labels), Universe(list(labels))
        assert u is not twin and u.labels is not twin.labels
        assert u == u and u == twin and twin == u and not (u != twin)
        assert hash(u) == hash(twin) and repr(u) == repr(twin)
        assert pickle.dumps(u) == pickle.dumps(twin)
        for other in (
            Universe(labels[:-1] + ("y",)),
            Universe(labels[::-1]),
            Universe(labels[:-1]),
        ):
            assert u != other and other != u and not (u == other)
        assert u != labels

    def test_equality_needs_same_universe(self):
        a = aset(uni(3), "1 2")
        b = aset(uni(4), "1 2")
        assert a != b

    def test_mixing_universes_raises(self):
        with pytest.raises(UniverseMismatchError):
            aset(uni(3), "1") | aset(uni(4), "1")

    def test_canonical_key_orders_by_size_then_position(self):
        u = uni(4)
        sets = [aset(u, t) for t in ("2 3", "4", "1 4", "1 2 3", "")]
        ordered = sorted(sets, key=lambda s: s.key())
        assert [s.render() for s in ordered] == ["", "4", "1 4", "2 3", "1 2 3"]


class TestMeasures:
    def test_worked_example(self):
        u = parse_universe("elements: a b c d e f")
        s = parse_implications("a b -> c d\na c e -> b\nd -> b f", u)
        m = measures(s)
        assert (m.ca, m.s, m.lhs, m.rhs) == (3, 11, 6, 5)

    def test_empty(self):
        m = measures(ImplicationSet(uni(3), ()))
        assert (m.ca, m.s, m.lhs, m.rhs) == (0, 0, 0, 0)

    def test_direct_base_count(self):
        assert measures(EQ27_CD).ca == 7

    def test_size_must_add_up(self):
        with pytest.raises(InvariantError):
            MeasureReport(ca=1, s=3, lhs=1, rhs=1)


class TestUnitExpandAggregate:
    def test_unit_expand_splits_conclusions(self):
        u = uni(4)
        s = sig(u, "1 2 -> 3 4")
        assert pairs(unit_expand(s)) == pairs(sig(u, "1 2 -> 3", "1 2 -> 4"))

    def test_unit_expand_premise_major_order(self):
        u = uni(4)
        s = sig(u, "1 -> 3 4", "2 -> 1")
        assert [i.render() for i in unit_expand(s)] == ["1 -> 3", "1 -> 4", "2 -> 1"]

    def test_unit_expand_drops_empty_conclusions(self):
        u = uni(3)
        s = sig(u, "1 2 ->", "1 -> 2")
        assert len(unit_expand(s)) == 1

    def test_unit_expand_five_clauses(self):
        u = parse_universe("elements: a b c d e f")
        s = parse_implications("a b -> c d\na c e -> b\nd -> b f", u)
        assert len(unit_expand(s)) == 5

    def test_aggregate_merges_premises(self):
        u = uni(5)
        s = sig(u, "1 2 -> 3", "1 2 -> 4", "3 5 -> 4", "3 5 -> 1", "4 5 -> 2")
        assert pairs(aggregate(s)) == pairs(sig(u, "1 2 -> 3 4", "3 5 -> 1 4", "4 5 -> 2"))

    def test_aggregate_identity_and_duplicates(self):
        u = uni(2)
        assert pairs(aggregate(sig(u, "1 -> 2"))) == pairs(sig(u, "1 -> 2"))
        assert pairs(aggregate(sig(u, "1 -> 2", "1 -> 2"))) == pairs(sig(u, "1 -> 2"))

    def test_unit_count_equals_aggregate_rhs(self):
        for case in range(20):
            rng = rng_for(case)
            s = rand_sigma(rng, uni(5))
            agg = aggregate(s)
            assert len(unit_expand(agg)) == measures(agg).rhs

    def test_equivalence_preserved_exhaustively(self):
        for case in range(25):
            rng = rng_for(1000 + case)
            u = uni(6)
            s = rand_sigma(rng, u)
            variants = [unit_expand(s), aggregate(s), normalize(s)]
            c0 = Closure.from_sigma(s)
            for v in variants:
                cv = Closure.from_sigma(v)
                for m in range(1 << 6):
                    assert c0.of_mask(m) == cv.of_mask(m)


class TestNormalize:
    def test_drops_tautologies_and_duplicates(self):
        u = uni(3)
        s = sig(u, "1 2 ->", "1 -> 1", "1 -> 2", "1 -> 2", "1 2 -> 2")
        assert pairs(normalize(s)) == pairs(sig(u, "1 -> 2"))
        assert len(normalize(s)) == 1

    def test_keeps_order(self):
        u = uni(3)
        s = sig(u, "2 -> 3", "1 -> 2", "2 -> 3")
        assert [i.render() for i in normalize(s)] == ["2 -> 3", "1 -> 2"]


class TestMaskPairHelpers:
    """The mask-pair helpers against definitions written out here, order
    included, on seeded theories with every corner case."""

    KINDS = ("empty premise", "empty conclusion", "tautology", "repeat")

    def theories(self):
        seen = Counter()
        for case in range(300):
            rng = rng_for(19000 + case)
            n = rng.randint(1, 10)
            u = uni(n)
            ps = []
            for _ in range(rng.randint(0, 3 * n)):
                kind = rng.choice(self.KINDS + ("random", "random"))
                if kind == "repeat" and not ps:
                    kind = "random"
                prem, conc = rand_mask(rng, n), rand_mask(rng, n)
                if kind == "empty premise":
                    prem = 0
                elif kind == "empty conclusion":
                    conc = 0
                elif kind == "tautology":
                    conc &= prem
                elif kind == "repeat":
                    prem, conc = rng.choice(ps)
                seen[kind] += 1
                ps.append((prem, conc))
            items = tuple(Implication(u.from_mask(p), u.from_mask(c)) for p, c in ps)
            yield u, ps, ImplicationSet(u, items)
        assert min(seen[k] for k in self.KINDS) >= 100

    def test_from_pairs_inverts_mask_pairs(self):
        for u, ps, s in self.theories():
            assert s.mask_pairs() == ps
            back = ImplicationSet.from_pairs(u, ps)
            assert back == s and hash(back) == hash(s)
            assert back.as_pair_set() == frozenset(ps)

    def test_from_pairs_checks_the_universe(self):
        with pytest.raises(UniverseMismatchError):
            ImplicationSet.from_pairs(uni(2), [(0b100, 0)])

    def test_helpers_match_definitions(self):
        for u, ps, s in self.theories():
            units = [(p, 1 << e) for p, c in ps for e in range(u.size) if c >> e & 1]
            assert unit_expand(s).mask_pairs() == units
            premises = []
            for p, _ in ps:
                if p not in premises:
                    premises.append(p)
            merged = []
            for p in premises:
                conc = 0
                for q, c in ps:
                    if q == p:
                        conc |= c
                merged.append((p, conc))
            assert aggregate(s).mask_pairs() == merged
            firsts = []
            for p, c in ps:
                if c & ~p and (p, c) not in firsts:
                    firsts.append((p, c))
            assert normalize(s).mask_pairs() == firsts
            trimmed = [(p, c & ~p) for p, c in ps if c & ~p]
            assert trim_conclusions(s).mask_pairs() == trimmed
            lhs = sum(bin(p).count("1") for p, _ in ps)
            rhs = sum(bin(c).count("1") for _, c in ps)
            m = measures(s)
            assert (m.ca, m.s, m.lhs, m.rhs) == (len(ps), lhs + rhs, lhs, rhs)


class TestExtremeMembers:
    def test_minimize_and_maximize_match_definition(self):
        for case in range(25):
            rng = rng_for(1500 + case)
            u = uni(6)
            ms = [rng.getrandbits(6) for _ in range(rng.randint(0, 12))]
            fam = SetFamily(u, tuple(u.from_mask(m) for m in ms))
            lows = {m for m in ms if not any(k != m and k & ~m == 0 for k in ms)}
            highs = {m for m in ms if not any(k != m and m & ~k == 0 for k in ms)}
            assert fam.minimize().as_mask_set() == lows
            assert fam.maximize().as_mask_set() == highs
            keys = [s.key() for s in fam.maximize()]
            assert keys == sorted(set(keys))  # deduplicated, in canonical order
