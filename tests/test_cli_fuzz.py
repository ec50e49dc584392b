"""Seeded fuzz of every CLI verb on small, often malformed, input files.

Whatever the input, a run ends with exit code 0, 1 or 2 and never with an
uncaught exception.
"""

import contextlib
import io

from hornkit.cli import main

from conftest import rng_for

LABELS = ("1", "2", "3", "a", "b", "x7", "é", "q-", ">r", "s>")

VERBS = (
    "close", "entails", "equiv", "base-gd", "base-direct", "base-dbasis",
    "minimize", "primes", "acyclic", "meetirr", "stems", "dualize", "keys",
    "enumerate", "count", "sat", "compress", "measures",
)


def _side(rng, labels):
    return " ".join(lab for lab in labels if rng.random() < 0.35)


#: defects of the text, and of its encoding; None leaves it well formed
DEFECTS = (None, "header", None, "twice", None, "arrow", None, "label", None, "comment")
FORMS = (None, "crlf", None, "bom", None, "latin", None)


def _text(rng, labels, kind, defect):
    """An implication or family file with the given defect."""
    header = "elements: " + " ".join(labels)
    lines = [header]
    for _ in range(rng.randint(0, 2 * len(labels))):
        if kind == "imp":
            lines.append(f"{_side(rng, labels)} -> {_side(rng, labels)}")
        else:
            lines.append(_side(rng, labels) or "-")
    at = rng.randint(1, len(lines))
    if defect == "header":
        lines.pop(0)
    elif defect == "twice":
        lines.insert(at, header)
    elif defect == "arrow":
        lines.insert(at, _side(rng, labels) or "1")
    elif defect == "label":
        lines.insert(at, "zz -> zz" if kind == "imp" else "zz")
    elif defect == "comment":
        lines.insert(at, "# note")
    return "\n".join(lines) + "\n"


def _encode(rng, text, form):
    """UTF-8 bytes, with CRLF line ends, a byte-order mark or a byte that is
    not UTF-8 as the form asks."""
    if form == "crlf":
        text = text.replace("\n", "\r\n")
    data = text.encode("utf-8")
    if form == "bom":
        data = b"\xef\xbb\xbf" + data
    elif form == "latin":
        cut = rng.randrange(len(data) + 1)
        data = data[:cut] + b"\xff" + data[cut:]
    return data


def _universe(rng):
    labels = rng.sample(LABELS, rng.randint(1, 8))
    if rng.random() < 0.05:
        labels[0] = "a->b"  # a label that would swallow the arrow
    return labels


def _argv(rng, verb, files, labels):
    def pick_set():
        return rng.choice(["-", _side(rng, labels) or "-", "zz"])

    def element():
        return rng.choice(labels + ["zz"])

    def source():
        return rng.choice(
            [["--sigma", files["imp"]], ["--family", files["fam"]]] * 4 + [[]]
        )

    sigma = ["--sigma", files["imp"]]
    gamma = ["--gamma", files["fam"]] if rng.random() < 0.4 else []
    choice = rng.choice
    if verb == "close":
        extra = choice([[], ["--quasi"], ["--one-step"], ["--trace"]])
        return [verb, *source(), "--set", pick_set(), *extra]
    if verb == "entails":
        return [verb, *sigma, "--query", f"{pick_set()} -> {pick_set()}"]
    if verb == "equiv":
        return [verb, *sigma, "--sigma2", choice([files["imp2"], files["imp"]])]
    if verb == "base-gd":
        return [verb, *source(), *choice([[], ["--pseudoclosed"], ["--core"], ["--trim"]])]
    if verb == "base-direct":
        return [verb, *source(), *choice([[], ["--classify"]])]
    if verb == "base-dbasis":
        return [verb, *source(), *choice([[], ["--close-set", pick_set()]])]
    if verb == "minimize":
        extra = choice([[], ["--trim"], ["--redundancy-only"], ["--check"],
                        ["--unit-expand"], ["--aggregate"]])
        return [verb, *sigma, *extra]
    if verb == "primes":
        return [verb, *sigma, *choice([[], ["--check", f"{pick_set()} -> {element()}"]])]
    if verb == "acyclic":
        return [verb, *sigma, *choice([[], ["--base"]])]
    if verb == "meetirr":
        extra = choice([[], ["--element", element()]])
        return [verb, *source(), *extra]
    if verb == "stems":
        return [verb, *source(), *choice([[], ["--element", element()]])]
    if verb == "dualize":
        return [verb, *choice([["--family", files["fam"]],
                               [*source(), "--cmax-of", element()]])]
    if verb == "keys":
        return [verb, *source()]
    if verb == "enumerate":
        extra = choice([[], ["--expand"], ["--materialize"]])
        if rng.random() < 0.3:
            return [verb, *source(), "--lectic"]
        return [verb, *sigma, *gamma, *extra]
    if verb == "sat":
        return [verb, *sigma, *gamma, *choice([[], ["--format", "lines"]])]
    if verb in ("count", "compress"):
        return [verb, *sigma, *gamma]
    return [verb, *sigma]


def _run(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as exc:  # argparse usage errors
            code = exc.code
    return code, out.getvalue(), err.getvalue()


def test_every_verb_exits_cleanly(tmp_path):
    codes = set()
    for case in range(30):
        rng = rng_for(40000 + case)
        labels = _universe(rng)
        files = {}
        for i, (name, kind) in enumerate((("imp", "imp"), ("fam", "fam"), ("imp2", "imp"))):
            text = _text(rng, labels, kind, DEFECTS[(case + i) % len(DEFECTS)])
            path = tmp_path / f"{case}-{name}"
            path.write_bytes(_encode(rng, text, FORMS[(case + 3 * i) % len(FORMS)]))
            files[name] = str(path)
        if rng.random() < 0.1:
            files[rng.choice(["imp", "fam"])] = str(tmp_path)  # a directory
        twice = {files[name] for i, name in enumerate(("imp", "fam", "imp2"))
                 if DEFECTS[(case + i) % len(DEFECTS)] == "twice"}
        for verb in VERBS:
            argv = _argv(rng, verb, files, labels)
            if rng.random() < 0.05:
                argv += ["--format", "lines"]  # only sat reads it
            code, _, err = _run(argv)
            assert code in (0, 1, 2), argv
            assert "Traceback" not in err, argv
            if code != 2 and twice & set(argv):
                # every verb reads the files it is given; a second header
                # is a parse error
                assert code == 1, argv
            codes.add(code)
    assert codes == {0, 1, 2}
