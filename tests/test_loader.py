"""The loader against the line-by-line reference in ``conftest``: on seeded
texts over 1 to 1000 labels, every parser gives the same value or raises
the same first ``ParseError``.

The texts mix every line break of ``str.splitlines``, in-line whitespace
that breaks no line, comments and blank lines, and ``-`` sides. Some
carry faults: a missing, doubled or late header; a reserved, repeated or
whitespace label in the header; an unknown label on either side; a line
without ``->``; a ``-`` among labels. A label may also repeat within a
line, which is no fault.
"""

from __future__ import annotations

import random

import pytest

from conftest import (
    reference_index,
    reference_load_family,
    reference_load_implications,
    reference_parse_family,
    reference_parse_implications,
    reference_parse_mask,
    reference_parse_rule,
    reference_parse_universe,
    rng_for,
)
from hornkit import (
    AttrSet,
    Implication,
    ImplicationSet,
    ParseError,
    SetFamily,
    Universe,
    load_family,
    load_implications,
    parse_family,
    parse_implication,
    parse_implications,
    parse_universe,
)

#: every line break of ``str.splitlines``
BREAKS = ("\n", "\r\n", "\r", "\x0b", "\x0c", "\x1c", "\x1d", "\x1e", "\x85", "\u2028", "\u2029")
#: whitespace that separates labels but breaks no line
SPACES = (" ", "  ", "\t", "\x1f", "\xa0", "\u3000")
#: label stems that come close to the reserved words without being one
STEMS = ("a", "x-", "-x", "p>q", "elements", "elem:", "é", "ß", "a.b", ">", "n")
#: labels no universe may hold
RESERVED = ("-", "a->b", "->", "x#", "#", "elements:", "elements:x")
#: labels the seeded universes never hold
UNKNOWN = ("zz", "0", "elements", "Z9", ">>")

CASES = 400
_HEADER_LINE = "elements:"


def outcome(f, *args):
    """What ``f(*args)`` gives, as labels and masks (see ``plain``), or the
    text of the ParseError it raises."""
    try:
        return plain(f(*args))
    except ParseError as e:
        return ("ParseError", str(e))


def plain(value):
    """A parser's value as the reference gives it: labels for a universe,
    mask pairs for rules, masks for sets; a loader's pair stays a pair."""
    if isinstance(value, tuple) and value and isinstance(value[0], Universe):
        u, loaded = value
        assert loaded.universe is u
        return u.labels, plain(loaded)
    if isinstance(value, Universe):
        return value.labels
    if isinstance(value, ImplicationSet):
        return value.mask_pairs()
    if isinstance(value, SetFamily):
        return value.masks()
    if isinstance(value, Implication):
        return value.premise.mask, value.conclusion.mask
    if isinstance(value, AttrSet):
        return value.mask
    return value


def case_labels(rng: random.Random, case: int) -> list[str]:
    n = 1 if case == 0 else 1000 if case == 1 else (
        rng.randint(1, 12) if rng.random() < 0.7 else rng.randint(13, 1000)
    )
    if rng.random() < 0.5:
        return [str(i + 1) for i in range(n)]
    return [f"{rng.choice(STEMS)}{i}" if i else rng.choice(STEMS) for i in range(n)]


def side(rng: random.Random, labels: list[str], most: int) -> str:
    """A label list of 0-``most`` labels, sometimes "-" or one label twice."""
    if rng.random() < 0.1:
        return "-"
    picked = [rng.choice(labels) for _ in range(rng.randint(0, most))]
    if picked and rng.random() < 0.15:
        picked.insert(rng.randrange(len(picked) + 1), rng.choice(picked))
    return rng.choice(SPACES).join(picked)


def fault(rng: random.Random, labels: list[str], rules: bool) -> str:
    """A body line that no parser accepts."""
    unknown = rng.choice(UNKNOWN)
    kind = rng.randrange(6 if rules else 3)
    if kind == 0:
        return f"{_HEADER_LINE} {' '.join(rng.sample(labels, min(3, len(labels))))}"
    if kind == 1:
        line = f"- {rng.choice(labels)}"
        return f"{line} -> {rng.choice(labels)}" if rules else line
    if kind == 2:
        line = f"{side(rng, labels, 2)} {unknown} {side(rng, labels, 2)}"
        return f"{line} -> {rng.choice(labels)}" if rules else line
    if kind == 3:
        return f"{rng.choice(labels)} -> {side(rng, labels, 2)} {unknown}"
    if kind == 4:  # bad on both sides: the premise names the error
        return f"{unknown} -> - {rng.choice(labels)}"
    return side(rng, labels, 3)  # no "->"


def body(rng: random.Random, labels: list[str], rules: bool) -> list[str]:
    """Body lines, valid but for one or two faults in some cases."""
    count = rng.randint(0, 12) if rng.random() < 0.9 else rng.randint(13, 40)
    lines = []
    for _ in range(count):
        if rules:
            arrow = rng.choice(("->", " -> ", "  ->", "->\t"))
            lines.append(f"{side(rng, labels, 4)}{arrow}{side(rng, labels, 3)}")
        else:
            lines.append(side(rng, labels, 8 if rng.random() < 0.9 else 200))
    if rng.random() < 0.5:
        for _ in range(rng.randint(1, 2)):
            lines.insert(rng.randint(0, len(lines)), fault(rng, labels, rules))
    return lines


def header(rng: random.Random, labels: list[str]) -> list[str]:
    """The header lines: usually one good header; else a header with a
    reserved, repeated or no label, two headers, or none."""
    good = f"{_HEADER_LINE}{rng.choice(SPACES)}{' '.join(labels)}"
    kind = rng.randrange(10)
    if kind == 0:
        bad = list(labels)
        bad.insert(rng.randint(0, len(bad)), rng.choice(RESERVED))
        return [f"{_HEADER_LINE} {' '.join(bad)}"]
    if kind == 1:
        bad = list(labels)
        bad.insert(rng.randint(0, len(bad)), rng.choice(labels))
        return [f"{_HEADER_LINE} {' '.join(bad)}"]
    if kind == 2:
        return [_HEADER_LINE]
    if kind == 3:
        return [good, good]
    if kind == 4:
        return []
    return [good]


def decorate(rng: random.Random, lines: list[str]) -> str:
    """The lines with comments, blank lines and stray whitespace added,
    each ended by a line break drawn from ``BREAKS``."""
    out = []
    for line in lines:
        if rng.random() < 0.15:
            out.append(rng.choice(("", "   ", "\t", "# a comment -> b", "  # elements: x")))
        if rng.random() < 0.15:
            line += rng.choice((" # note", "#", " # -> elements: 1"))
        if rng.random() < 0.2:
            line = rng.choice(SPACES) + line + rng.choice(SPACES)
        out.append(line)
    breaks = [rng.choice(BREAKS) for _ in out]
    if out and rng.random() < 0.3:
        breaks[-1] = ""
    return "".join(line + brk for line, brk in zip(out, breaks))


def loader_case(case: int) -> tuple[list[str], str, str]:
    """The labels of one seeded case, and a rule text and a family text
    over them, which share the case's header lines."""
    rng = rng_for(7000 + case)
    labels = case_labels(rng, case)
    head = header(rng, labels)
    rule_lines, family_lines = body(rng, labels, True), body(rng, labels, False)
    first: tuple[list[str], list[str]] = ([], [])
    if head and rng.random() < 0.1:  # a bad line before the header
        first = [fault(rng, labels, True)], [fault(rng, labels, False)]
    return (
        labels,
        decorate(rng, first[0] + head + rule_lines),
        decorate(rng, first[1] + head + family_lines),
    )


@pytest.mark.parametrize("block", range(8))
def test_loader_matches_line_by_line_reference(block):
    for case in range(block, CASES, 8):
        labels, rule_text, family_text = loader_case(case)
        u = Universe(labels)
        index, key = reference_index(labels), tuple(labels)
        assert u.index == index
        for text in (rule_text, family_text):
            for got, want in (
                (outcome(parse_universe, text), outcome(reference_parse_universe, text)),
                (outcome(load_implications, text), outcome(reference_load_implications, text)),
                (outcome(load_family, text), outcome(reference_load_family, text)),
                (outcome(parse_implications, text, u),
                 outcome(reference_parse_implications, text, key)),
                (outcome(parse_family, text, u), outcome(reference_parse_family, text, key)),
            ):
                assert got == want, (case, text)
            for raw in text.splitlines()[:25]:
                assert outcome(parse_implication, raw, u) == outcome(
                    reference_parse_rule, index, raw), (case, raw)
                assert outcome(u.parse_set, raw) == outcome(reference_parse_mask, index, raw), (
                    case, raw)


def test_loader_cases_cover_every_fault():
    # the seeded cases reach each error text, and n = 1 and 1000
    texts = set()
    for case in range(CASES):
        labels, rule_text, family_text = loader_case(case)
        for f, text in ((reference_load_implications, rule_text), (reference_load_family, family_text)):
            got = outcome(f, text)
            texts.add(got[1].split(" ", 1)[0] if got[0] == "ParseError" else "ok")
    assert texts == {"ok", "illegal", "duplicate", "empty", "expected", "second", "unknown", "missing"}
    assert {len(loader_case(c)[0]) for c in (0, 1)} == {1, 1000}


def test_universe_labels_match_reference():
    # whitespace, reserved and repeated labels at random places: the first
    # bad label in order names the error, as in the label-by-label check
    rng = random.Random(7500)
    odd = ("a b", "", " ", "\t", "x y", "\x1f", "\xa0", *RESERVED)
    for _ in range(300):
        labels = [str(i) for i in range(rng.randint(1, 30))]
        for _ in range(rng.randint(0, 3)):
            bad = rng.choice(odd) if rng.random() < 0.6 else rng.choice(labels)
            labels.insert(rng.randint(0, len(labels)), bad)
        assert outcome(lambda: Universe(labels).index) == outcome(reference_index, labels), labels
