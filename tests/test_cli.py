import argparse
import inspect
import os
import re
import subprocess
import sys
from collections import Counter
from pathlib import Path

import pytest

import hornkit.closure
from hornkit import (
    HornSystem,
    SetFamily,
    enumerate_closed_lectic,
    enumerate_horn_lectic,
    load_family,
    load_implications,
)
from hornkit.cli import build_parser, main
from hornkit.core import bits

from conftest import (
    EQ38, U6, brute_closed_masks, brute_meet_irreducibles, padded_mf_text,
    reference_lectic_keys, rng_for,
)

EQ15_TEXT = """elements: 1 2 3 4 5 6 7 8 9
1 -> 6
2 -> 5 6
3 -> 2
4 -> 3 6 8 9
5 -> 3 4 7
6 -> 9
7 -> 8
8 -> 7
"""

FIG4A_TEXT = """elements: 1 2 3 4 5 6 7
1 2
1 2 3 4
1 2 5
1 2 3 4 5 6 7
"""

EQ38_TEXT = """elements: 1 2 3 4 5 6
3 -> 5
1 5 -> 4
6 -> 3
2 3 -> 1
"""

MF_TEXT = """elements: 1 2 3 4 5 6
1 2
1 2 3 4 5
1 2 4
1 2 4 5
1 3 4 5 6
2 4 5
2 5
3 4 5 6
3 5 6
"""


@pytest.fixture
def files(tmp_path):
    paths = {}
    for name, text in (
        ("eq15.imp", EQ15_TEXT),
        ("fig4a.fam", FIG4A_TEXT),
        ("eq38.imp", EQ38_TEXT),
        ("mf.fam", MF_TEXT),
    ):
        p = tmp_path / name
        p.write_text(text, encoding="utf-8")
        paths[name] = str(p)
    return paths


@pytest.fixture
def padded_mf(tmp_path):
    """MF padded to 24 elements, past the stem-search limit; the 18 new
    ones are in every member."""
    padded = tmp_path / "mf24.fam"
    padded.write_text(padded_mf_text(), encoding="utf-8")
    return str(padded)


#: the verbs that read --sigma or --family, the other flags they need, and
#: their message when given neither
SOURCE_VERBS = (
    ("close", ["--set", "3"], "need --sigma or --family input"),
    ("base-gd", [], "need --sigma or --family input"),
    ("base-direct", [], "need --sigma or --family input"),
    ("base-dbasis", [], "need --sigma or --family input"),
    ("meetirr", [], "need --sigma or --family input"),
    ("stems", [], "need --sigma or --family input"),
    ("dualize", [], "need --sigma or --family input"),
    ("keys", [], "need --sigma or --family input"),
    ("enumerate", [], "need --sigma or --family input"),
)

#: the verbs that read --sigma alone (with --gamma on count, sat and
#: compress), and the other flags they need
SIGMA_VERBS = (
    ("entails", ["--query", "2 -> 1"]),
    ("equiv", ["--sigma2", "eq38.imp"]),
    ("minimize", []),
    ("primes", []),
    ("acyclic", []),
    ("measures", []),
    ("count", []),
    ("sat", []),
    ("compress", []),
)


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def run_alone(*argv):
    """Exit code, stdout and stderr of ``hornkit argv`` in a new process."""
    env = dict(os.environ, PYTHONPATH=str(Path(__file__).resolve().parents[1] / "src"))
    proc = subprocess.run([sys.executable, "-m", "hornkit.cli", *argv],
                          capture_output=True, text=True, env=env, timeout=60)
    return proc.returncode, proc.stdout, proc.stderr


class TestGoldenInvocations:
    def test_close(self, files, capsys):
        code, out, _ = run(capsys, "close", "--sigma", files["eq15.imp"], "--set", "1")
        assert code == 0
        assert out == "1 6 9\n"

    def test_base_gd_family(self, files, capsys):
        code, out, _ = run(capsys, "base-gd", "--family", files["fig4a.fam"])
        assert code == 0
        assert out == (
            "-> 1 2\n"
            "1 2 3 -> 1 2 3 4\n"
            "1 2 4 -> 1 2 3 4\n"
            "1 2 6 -> 1 2 3 4 5 6 7\n"
            "1 2 7 -> 1 2 3 4 5 6 7\n"
            "1 2 3 4 5 -> 1 2 3 4 5 6 7\n"
        )

    def test_count(self, files, capsys):
        code, out, _ = run(capsys, "count", "--sigma", files["eq38.imp"])
        assert code == 0
        assert out == "22\n"


class TestVerbTour:
    def test_close_variants(self, files, capsys):
        _, quasi, _ = run(
            capsys, "close", "--family", files["fig4a.fam"], "--set", "3", "--quasi"
        )
        assert quasi == "1 2 3\n"
        _, one, _ = run(
            capsys, "close", "--sigma", files["eq38.imp"], "--set", "3", "--one-step"
        )
        assert one == "3 5\n"
        _, trace, _ = run(
            capsys, "close", "--sigma", files["eq38.imp"], "--set", "2 6", "--trace"
        )
        assert trace.splitlines()[0] == "2 6"
        assert trace.splitlines()[-1] == trace.splitlines()[-2]
        _, full, _ = run(capsys, "close", "--sigma", files["eq38.imp"], "--set", "2 6")
        assert full == "1 2 3 4 5 6\n"

    def test_entails(self, files, capsys):
        code, out, _ = run(
            capsys, "entails", "--sigma", files["eq38.imp"], "--query", "2 6 -> 1 4"
        )
        assert code == 0 and out == "true\n"
        _, out, _ = run(
            capsys, "entails", "--sigma", files["eq38.imp"], "--query", "2 -> 1"
        )
        assert out == "false\n"

    def test_equiv(self, files, capsys, tmp_path):
        other = tmp_path / "other.imp"
        other.write_text(
            "elements: 1 2 3 4 5 6\n3 -> 5\n1 5 -> 4\n6 -> 3 5\n2 3 -> 1\n",
            encoding="utf-8",
        )
        code, out, _ = run(
            capsys, "equiv", "--sigma", files["eq38.imp"], "--sigma2", str(other)
        )
        assert code == 0 and out == "true\n"

    def test_base_direct_and_stems(self, files, capsys):
        _, out, _ = run(capsys, "base-direct", "--family", files["mf.fam"])
        assert "2 3 -> 1 4" in out.splitlines()
        assert len(out.splitlines()) == 7
        _, out, _ = run(
            capsys, "stems", "--family", files["mf.fam"], "--element", "4"
        )
        assert out.splitlines() == ["1 3", "1 5", "1 6", "2 3", "2 6"]
        # --element on a family takes mtr(cmax(F,e)); the full listing takes
        # the stem table: the two agree
        _, table, _ = run(capsys, "stems", "--family", files["mf.fam"])
        assert [l[3:] for l in table.splitlines() if l.startswith("4: ")] == out.splitlines()

    def test_family_stems_of_one_element_have_no_size_limit(self, capsys, padded_mf):
        code, out, _ = run(capsys, "stems", "--family", padded_mf, "--element", "4")
        assert code == 0
        assert out.splitlines() == ["1 3", "1 5", "1 6", "2 3", "2 6"]
        code, out, err = run(capsys, "stems", "--family", padded_mf)
        assert code == 1 and out == ""
        assert err == "hornkit: stem search over 24 premise elements (bound 20)\n"

    def test_base_dbasis(self, files, capsys, tmp_path):
        lat = tmp_path / "lat.imp"
        lat.write_text(
            "elements: 1 2 3 4 5 6\n2 -> 1\n6 -> 3\n6 -> 1\n5 -> 4\n3 -> 1\n"
            "1 4 -> 3\n2 4 -> 5\n1 5 -> 6\n2 4 -> 6\n2 3 -> 6\n",
            encoding="utf-8",
        )
        _, out, _ = run(capsys, "base-dbasis", "--sigma", str(lat))
        lines = out.splitlines()
        assert len(lines) == 10
        assert all(len(l.split("->")[0].split()) == 1 for l in lines[:5])
        _, closed, _ = run(
            capsys, "base-dbasis", "--sigma", str(lat), "--close-set", "2 5"
        )
        assert closed == "1 2 3 4 5 6\n"

    def test_minimize_and_measures(self, files, capsys, tmp_path):
        cd = tmp_path / "cd.imp"
        cd.write_text(
            "elements: 1 2 3 4 5 6\n1 3 -> 4\n1 6 -> 4\n2 3 -> 1 4\n2 6 -> 1 4\n"
            "1 5 -> 4\n6 -> 3 5\n3 -> 5\n",
            encoding="utf-8",
        )
        _, out, _ = run(capsys, "minimize", "--sigma", str(cd))
        assert out.splitlines() == [
            "2 3 -> 1 2 3 4 5",
            "1 5 -> 1 4 5",
            "6 -> 3 5 6",
            "3 -> 3 5",
        ]
        _, out, _ = run(capsys, "minimize", "--sigma", str(cd), "--check")
        assert out == "false\n"
        _, out, _ = run(capsys, "measures", "--sigma", str(cd))
        assert out == "ca=7 s=22 lhs=12 rhs=10\n"

    def test_primes_and_acyclic(self, files, capsys, tmp_path):
        _, out, _ = run(capsys, "primes", "--sigma", files["eq38.imp"])
        assert len(out.splitlines()) == 10
        _, out, _ = run(
            capsys, "primes", "--sigma", files["eq38.imp"], "--check", "2 6 -> 4"
        )
        assert out == "true\n"
        acyc = tmp_path / "acyc.imp"
        acyc.write_text(
            "elements: 1 2 3 4 5 6\n4 -> 5\n6 -> 1\n2 3 -> 4\n2 3 -> 1\n"
            "3 5 -> 6\n3 4 -> 6\n2 3 4 -> 5\n",
            encoding="utf-8",
        )
        _, out, _ = run(capsys, "acyclic", "--sigma", str(acyc))
        assert out == "true\n"
        _, out, _ = run(capsys, "acyclic", "--sigma", str(acyc), "--base")
        assert set(out.splitlines()) == {"4 -> 5", "6 -> 1", "2 3 -> 4", "3 5 -> 6"}
        cyc = tmp_path / "cyc.imp"
        cyc.write_text("elements: 1 2\n1 -> 2\n2 -> 1\n", encoding="utf-8")
        _, out, _ = run(capsys, "acyclic", "--sigma", str(cyc))
        assert out.startswith("false  cycle: ")

    def test_meetirr_dualize_keys(self, files, capsys):
        _, rows_out, _ = run(capsys, "meetirr", "--sigma", files["eq38.imp"])
        brute = brute_meet_irreducibles(6, brute_closed_masks(6, EQ38))
        want = SetFamily.from_masks(U6, brute)
        assert rows_out == want.render() + "\n"
        assert len(rows_out.splitlines()) == 9
        _, mx, _ = run(
            capsys, "meetirr", "--sigma", files["eq38.imp"], "--element", "4"
        )
        assert mx.splitlines() == ["1 2", "2 5", "3 5 6"]
        _, mtr_out, _ = run(capsys, "dualize", "--family", files["mf.fam"])
        assert len(mtr_out.splitlines()) > 0
        _, keys_out, _ = run(capsys, "keys", "--sigma", files["eq38.imp"])
        assert keys_out == "2 6\n"

    def test_enumerate_count_sat_compress(self, files, capsys, tmp_path):
        _, rows_out, _ = run(capsys, "enumerate", "--sigma", files["eq38.imp"])
        assert len(rows_out.splitlines()) >= 1
        _, flat, _ = run(
            capsys, "enumerate", "--sigma", files["eq38.imp"], "--expand"
        )
        assert all(ch in "012 " for ch in flat.replace("\n", " "))
        _, mat, _ = run(
            capsys, "enumerate", "--sigma", files["eq38.imp"], "--materialize"
        )
        assert len(mat.splitlines()) == 22
        _, lectic, _ = run(
            capsys, "enumerate", "--sigma", files["eq38.imp"], "--lectic"
        )
        assert len(lectic.splitlines()) == 22
        gamma = tmp_path / "gamma.fam"
        gamma.write_text("elements: 1 2 3 4 5 6\n1 2 3 4 5 6\n", encoding="utf-8")
        _, cnt, _ = run(
            capsys, "count", "--sigma", files["eq38.imp"], "--gamma", str(gamma)
        )
        assert cnt == "21\n"
        _, sat, _ = run(
            capsys, "sat", "--sigma", files["eq38.imp"], "--gamma", str(gamma)
        )
        assert sat == "satisfiable\nwitness: -\n"
        _, comp, _ = run(
            capsys, "compress", "--sigma", files["eq38.imp"], "--gamma", str(gamma)
        )
        assert comp.splitlines()[-1] == "! 1 2 3 4 5 6"

    def test_enumerate_names_bubbles_past_z(self, capsys, tmp_path):
        # 27 rules x(2i-1) x(2i) -> x55: the first row holds 27 bubbles
        theory = tmp_path / "pairs.imp"
        theory.write_text(
            "elements: " + " ".join(map(str, range(1, 56))) + "\n"
            + "".join(f"{2 * i - 1} {2 * i} -> 55\n" for i in range(1, 28)),
            encoding="utf-8",
        )
        code, out, _ = run(capsys, "enumerate", "--sigma", str(theory))
        lines = out.splitlines()
        assert code == 0 and len(lines) == 28
        assert lines[0].split()[48:] == ["y", "y", "z", "z", "aa", "aa", "2"]
        _, cnt, _ = run(capsys, "count", "--sigma", str(theory))
        assert cnt == f"{2**54 + 3**27}\n" == "18022024106966971\n"

    def test_cmax_of(self, files, capsys):
        _, out, _ = run(
            capsys, "dualize", "--family", files["mf.fam"], "--cmax-of", "4"
        )
        assert out.splitlines() == ["1 2 4", "1 3 4 6", "3 4 5 6"]

    def test_cmax_of_has_no_size_limit(self, capsys, padded_mf):
        # cmax(F,e) is read off max(F,e), as meetirr --element reads it
        code, out, err = run(capsys, "dualize", "--family", padded_mf, "--cmax-of", "4")
        assert code == 0 and err == ""
        assert out.splitlines() == ["1 2 4", "1 3 4 6", "3 4 5 6"]

    def test_sat_lines_format(self, files, capsys, tmp_path):
        gamma = tmp_path / "g.fam"
        gamma.write_text("elements: 1 2 3 4 5 6\n1 2 3 4 5 6\n", encoding="utf-8")
        _, out, _ = run(
            capsys,
            "sat", "--sigma", files["eq38.imp"], "--gamma", str(gamma),
            "--format", "lines",
        )
        assert out == "satisfiable\n-\n"

    def test_deterministic_output(self, files, capsys):
        _, first, _ = run(capsys, "base-direct", "--sigma", files["eq38.imp"])
        _, second, _ = run(capsys, "base-direct", "--sigma", files["eq38.imp"])
        assert first == second


class TestRepeatedCalls:
    """``main`` runs on one parser for the whole process, so each call must
    give what the same argv gives alone."""

    def test_flags_of_a_call_do_not_carry_over(self, files, capsys):
        eq38, mf = files["eq38.imp"], files["mf.fam"]
        for first, then in (
            (["sat", "--sigma", eq38, "--format", "lines"], ["sat", "--sigma", eq38]),
            (["close", "--sigma", eq38, "--set", "3", "--quasi"],
             ["close", "--sigma", eq38, "--set", "3"]),
            (["enumerate", "--sigma", eq38, "--gamma", mf], ["enumerate", "--sigma", eq38]),
        ):
            before = run(capsys, *first)
            assert run(capsys, *then) == run_alone(*then) != before, then
        assert "witness: " in run(capsys, "sat", "--sigma", eq38)[1]

    def test_usage_error_and_help_leave_no_trace(self, files, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["close", "--sigma", files["eq38.imp"]])  # no --set
        assert exc.value.code == 2
        with pytest.raises(SystemExit) as exc:
            main(["--help"])
        assert exc.value.code == 0
        capsys.readouterr()
        argv = ("count", "--sigma", files["eq38.imp"])
        assert run(capsys, *argv) == run_alone(*argv) == (0, "22\n", "")

    def test_one_parser_per_process(self, files, capsys):
        assert build_parser() is build_parser()
        run(capsys, "count", "--sigma", files["eq38.imp"])
        assert build_parser.cache_info().misses == 1


class TestLecticFlags:
    def gamma(self, tmp_path, *lines):
        path = tmp_path / "gamma.fam"
        path.write_text("elements: 1 2 3 4 5 6\n" + "".join(f"{x}\n" for x in lines),
                        encoding="utf-8")
        return str(path)

    def test_gamma_lists_models_in_lectic_order(self, files, capsys, tmp_path):
        # brute force: the closed sets of EQ38 covering neither {1 2} nor {3 6}
        gamma = self.gamma(tmp_path, "1 2", "3 6")
        premises = [(0b000100, 0b010000), (0b010001, 0b001000),
                    (0b100000, 0b000100), (0b000110, 0b000001)]
        models = [m for m in range(64)
                  if all(p & ~m or not c & ~m for p, c in premises)
                  and 0b11 & ~m and 0b100100 & ~m]
        models.sort(key=lambda m: [m >> p & 1 for p in range(6)])
        want = "".join(
            (" ".join(str(p + 1) for p in range(6) if m >> p & 1) or "-") + "\n"
            for m in models
        )
        code, out, _ = run(capsys, "enumerate", "--sigma", files["eq38.imp"],
                           "--gamma", gamma, "--lectic")
        assert code == 0 and out == want
        assert len(models) == 14
        _, count, _ = run(capsys, "count", "--sigma", files["eq38.imp"], "--gamma", gamma)
        assert count == "14\n"

    def test_gamma_on_family_refused(self, files, capsys, tmp_path):
        gamma = self.gamma(tmp_path, "1 2")
        want = run(capsys, "enumerate", "--family", files["mf.fam"], "--gamma", gamma)
        got = run(capsys, "enumerate", "--family", files["mf.fam"], "--gamma", gamma,
                  "--lectic")
        assert got == want
        assert got[0] == 1 and "--sigma" in got[2]

    @pytest.mark.parametrize("flag", ["--expand", "--materialize"])
    def test_expand_and_materialize_refused(self, files, capsys, flag):
        with pytest.raises(SystemExit) as exc:
            main(["enumerate", "--sigma", files["eq38.imp"], "--lectic", flag])
        assert exc.value.code == 2
        assert "--lectic" in capsys.readouterr().err

    def test_plain_lectic_goes_through_the_library_entry(self, files, capsys, monkeypatch,
                                                         tmp_path):
        # --sigma, with or without --gamma, lists through the bucket engine
        # once and never through lectic_masks; --family lists through
        # lectic_masks (NextClosure) once and never through the engine.
        # Both print the 22 closed sets of EQ38, one per line, in lectic order
        want = "".join(
            (" ".join(str(p + 1) for p in bits(m)) or "-") + "\n"
            for m in sorted(brute_closed_masks(6, EQ38),
                            key=lambda m: [m >> p & 1 for p in range(6)])
        )
        calls = []
        for name in ("lectic_groups", "lectic_masks"):
            orig = getattr(hornkit.closure, name)
            monkeypatch.setattr(
                hornkit.closure, name,
                lambda source, *rest, name=name, orig=orig:
                    calls.append((name, type(source).__name__)) or orig(source, *rest),
            )
        gamma = self.gamma(tmp_path, "1 2")
        for src, entry in (
            (["--sigma", files["eq38.imp"]], ("lectic_groups", "ImplicationSet")),
            (["--sigma", files["eq38.imp"], "--gamma", gamma],
             ("lectic_groups", "ImplicationSet")),
            (["--family", files["mf.fam"]], ("lectic_masks", "SetFamily")),
        ):
            calls.clear()
            code, out, err = run(capsys, "enumerate", *src, "--lectic")
            assert code == 0 and err == "" and calls == [entry]
            if "--gamma" in src:
                assert out.splitlines() == [x for x in want.splitlines()
                                            if not {"1", "2"} <= set(x.split())]
            else:
                assert out == want and len(out.splitlines()) == 22


class TestLecticBlocks:
    """The lectic listing is printed in blocks of many lines; joined, the
    blocks must give each set's own line, in order."""

    def per_set(self, listing) -> str:
        return "".join(
            (" ".join(s.universe.labels[p] for p in s) or "-") + "\n" for s in listing
        )

    def test_sixteen_free_elements(self, capsys, tmp_path):
        wide = tmp_path / "wide.imp"
        wide.write_text("elements: " + " ".join(map(str, range(1, 17))) + "\n",
                        encoding="utf-8")
        _, sigma = load_implications(wide.read_text(encoding="utf-8"))
        code, out, err = run(capsys, "enumerate", "--sigma", str(wide), "--lectic")
        assert code == 0 and err == ""
        assert out == self.per_set(enumerate_closed_lectic(sigma))
        lines = out.splitlines()
        assert len(lines) == 65536
        assert (lines[0], lines[1023], lines[1024]) == ("-", "7 8 9 10 11 12 13 14 15 16", "6")
        assert lines[-1] == " ".join(map(str, range(1, 17)))

    def test_seeded_theory_with_and_without_gamma(self, capsys, tmp_path):
        # 80 rules with three-element premises over 19 elements: about 24,000
        # closed sets
        rng = rng_for(41900)
        n = 19
        labels = [f"e{i}" for i in range(n)]
        rules = []
        for _ in range(80):
            prem = rng.sample(range(n), 3)
            conc = rng.choice([e for e in range(n) if e not in prem])
            rules.append(" ".join(labels[p] for p in prem) + f" -> {labels[conc]}")
        header = "elements: " + " ".join(labels) + "\n"
        theory = tmp_path / "t19.imp"
        theory.write_text(header + "\n".join(rules) + "\n", encoding="utf-8")
        gamma = tmp_path / "t19.fam"
        gamma.write_text(header + "e0 e1\ne2 e3 e4\n", encoding="utf-8")
        _, sigma = load_implications(theory.read_text(encoding="utf-8"))
        _, gamma_sets = load_family(gamma.read_text(encoding="utf-8"))
        code, out, _ = run(capsys, "enumerate", "--sigma", str(theory), "--lectic")
        assert code == 0 and out == self.per_set(enumerate_closed_lectic(sigma))
        assert len(out.splitlines()) > 20 * 1024
        code, out, _ = run(capsys, "enumerate", "--sigma", str(theory), "--gamma", str(gamma),
                           "--lectic")
        want = self.per_set(enumerate_horn_lectic(HornSystem(sigma, gamma_sets)))
        assert code == 0 and out == want and len(out.splitlines()) > 10 * 1024

    def test_seeded_theories_match_the_lectic_masks(self, capsys, tmp_path):
        # 200 theories over 10-22 elements with labels of 1-3 letters, some
        # with a number: each listing, with and without --gamma, is the label
        # join of lectic_masks, and lectic_masks is the sorted bit-by-bit
        # oracle keys of the theory's flat rows, cut back to masks
        long = 0
        for case in range(200):
            rng = rng_for(52000 + case)
            n = 10 + case % 13
            labels = [chr(97 + i % 26) * (1 + i % 3) + (str(i) if i % 2 else "")
                      for i in range(n)]
            rules = []
            for _ in range(rng.randint(2 * n, 5 * n)):
                prem = rng.sample(labels, rng.choice((1, 2, 2, 3, 3)))
                conc = rng.choice([lab for lab in labels if lab not in prem])
                rules.append(" ".join(prem) + " -> " + conc)
            header = "elements: " + " ".join(labels) + "\n"
            theory = tmp_path / f"t{case}.imp"
            theory.write_text(header + "\n".join(rules) + "\n", encoding="utf-8")
            gamma = tmp_path / f"t{case}.fam"
            gamma.write_text(header + "".join(
                " ".join(rng.sample(labels, rng.randint(2, 4))) + "\n"
                for _ in range(rng.randint(1, 4))
            ), encoding="utf-8")
            _, sigma = load_implications(theory.read_text(encoding="utf-8"))
            _, gamma_sets = load_family(gamma.read_text(encoding="utf-8"))
            for extra, complications in (((), ()), (("--gamma", str(gamma)), gamma_sets.masks())):
                code, out, err = run(capsys, "enumerate", "--sigma", str(theory), *extra,
                                     "--lectic")
                masks = list(hornkit.closure.lectic_masks(sigma, complications))
                flat = hornkit.closure.flat_rows(sigma, complications)
                full = (1 << n) - 1
                assert masks == [k & full for k in sorted(reference_lectic_keys(n, flat))]
                want = "".join(
                    (" ".join(labels[p] for p in bits(m)) or "-") + "\n" for m in masks
                )
                assert code == 0 and err == "" and out == want
                long += len(masks) > 1024
        assert long >= 30

    @staticmethod
    def bucket_theory(rng, n: int, kind: str) -> tuple[list[str], list[str]]:
        """Labels and rules of a theory over n elements with at most 2^12
        closed sets. Up to 12 open elements; each other element is tied
        both ways to an open one ("tied": the empty set stays closed) or
        made an axiom ("axioms"). "low" and "high" put every open element
        in one half of the positions (the lower ceil(n/2) or the rest) and
        make the others axioms, so every row's free positions lie in that
        half. Random rules over the open elements follow."""
        labels = [chr(97 + i % 26) * (1 + i % 3) + (str(i) if i % 2 else "") for i in range(n)]
        cut = (n + 1) // 2
        pool = {"low": range(cut), "high": range(cut, n)}.get(kind, range(n)) or range(n)
        opened = rng.sample(list(pool), min(len(pool), rng.randint(1, 12)))
        rules = []
        for p in range(n):
            if p in opened:
                continue
            if kind == "tied":
                q = labels[rng.choice(opened)]
                rules += [f"{labels[p]} -> {q}", f"{q} -> {labels[p]}"]
            else:
                rules.append(f"-> {labels[p]}")
        if len(opened) > 1:
            for _ in range(rng.randint(0, len(opened))):
                prem = rng.sample(opened, rng.randint(1, min(3, len(opened) - 1)))
                conc = rng.choice([p for p in opened if p not in prem])
                rules.append(" ".join(labels[p] for p in prem) + f" -> {labels[conc]}")
        return labels, rules

    def test_bucket_engine_matches_the_oracle_keys(self, capsys, tmp_path):
        # 360 theories at n = 1, 2, 3-26, 33, 40, 64 and 65, across a byte
        # and a 64-bit word, each with and without complications:
        # lectic_masks is the sorted bit-by-bit oracle keys cut back to
        # masks (and the brute-force closed sets up to 14 elements), the CLI
        # prints their label join, and lectic_lines gives the same text in
        # blocks of at least `block` and under 2 * `block` lines, a group
        # longer than a block cut in slices
        sizes = [1, 2, *range(3, 27), 33, 40, 64, 65]
        kinds = ("tied", "axioms", "low", "high")
        seen = {"one half": 0, "empty closed": 0, "empty not closed": 0, "sliced": 0,
                "sliced at 64": 0, "sliced by the CLI": 0}
        for case in range(12 * len(sizes)):
            rng = rng_for(61000 + case)
            n = sizes[case % len(sizes)]
            labels, rules = self.bucket_theory(rng, n, kinds[case // len(sizes) % 4])
            header = "elements: " + " ".join(labels) + "\n"
            theory = tmp_path / "t.imp"
            theory.write_text(header + "".join(r + "\n" for r in rules), encoding="utf-8")
            gamma = tmp_path / "t.fam"
            gamma.write_text(header + "".join(
                " ".join(rng.sample(labels, rng.randint(1, min(4, n)))) + "\n"
                for _ in range(rng.randint(1, 4))
            ), encoding="utf-8")
            universe, sigma = load_implications(theory.read_text(encoding="utf-8"))
            _, gamma_sets = load_family(gamma.read_text(encoding="utf-8"))
            cut, full = (n + 1) // 2, (1 << n) - 1
            for extra, complications in (((), ()), (("--gamma", str(gamma)), gamma_sets.masks())):
                flat = hornkit.closure.flat_rows(sigma, complications)
                masks = list(hornkit.closure.lectic_masks(sigma, complications))
                assert masks == [k & full for k in sorted(reference_lectic_keys(n, flat))]
                if n <= 14:
                    assert sorted(masks) == [m for m in brute_closed_masks(n, sigma)
                                             if all(g & ~m for g in complications)]
                want = "".join(
                    (" ".join(labels[p] for p in bits(m)) or "-") + "\n" for m in masks
                )
                code, out, err = run(capsys, "enumerate", "--sigma", str(theory), *extra,
                                     "--lectic")
                assert code == 0 and err == "" and out == want
                for block in (1, 7, 64):
                    groups = hornkit.closure.lectic_groups(sigma, complications)
                    parts = list(hornkit.closure.lectic_lines(universe, groups, block))
                    assert "".join(p + "\n" for p in parts) == want
                    lines = [p.count("\n") + 1 for p in parts]
                    assert all(k < 2 * block for k in lines)
                    assert all(k >= block for k in lines[:-1])
                frees = [f for _, _, f, _ in flat if f]
                seen["one half"] += bool(frees) and (
                    all(not f >> cut for f in frees) or all(not f & (1 << cut) - 1 for f in frees)
                )
                seen["empty closed" if masks[:1] == [0] else "empty not closed"] += 1
                longest = max(Counter(m & (1 << cut) - 1 for m in masks).values(), default=0)
                seen["sliced"] += longest > 7
                seen["sliced at 64"] += longest > 64
                seen["sliced by the CLI"] += longest > 1024
        assert seen.pop("sliced by the CLI") >= 3 and seen.pop("sliced at 64") >= 10, seen
        assert min(seen.values()) >= 20, seen

    def test_listings_past_the_cache_limit_match_the_oracle(self, capsys, tmp_path):
        # 13 positions of the lower half each tied both ways to one of the
        # upper half, the rest axioms: 8,192 closed sets, each alone in its
        # group, with 8,192 distinct lower and upper chunks, so every text
        # and mask cache of the listing fills and is emptied on the way
        for case, n in enumerate((26, 31, 40, 40)):
            rng = rng_for(63000 + case)
            cut = (n + 1) // 2
            labels = [f"{chr(97 + i % 26)}{i}" for i in range(n)]
            pairs = zip(rng.sample(range(cut), 13), rng.sample(range(cut, n), 13))
            rules = [r for p, q in pairs for r in (f"{labels[p]} -> {labels[q]}",
                                                   f"{labels[q]} -> {labels[p]}")]
            tied = {lab for r in rules for lab in r.split(" -> ")}
            rules += [f"-> {lab}" for lab in labels if lab not in tied]
            header = "elements: " + " ".join(labels) + "\n"
            theory = tmp_path / "t.imp"
            theory.write_text(header + "".join(r + "\n" for r in rules), encoding="utf-8")
            gamma = tmp_path / "t.fam"
            gamma.write_text(header + " ".join(rng.sample(sorted(tied), 3)) + "\n",
                             encoding="utf-8")
            universe, sigma = load_implications(theory.read_text(encoding="utf-8"))
            _, gamma_sets = load_family(gamma.read_text(encoding="utf-8"))
            for extra, complications in (((), ()), (("--gamma", str(gamma)), gamma_sets.masks())):
                flat = hornkit.closure.flat_rows(sigma, complications)
                masks = list(hornkit.closure.lectic_masks(sigma, complications))
                assert masks == [k & universe.full_mask
                                 for k in sorted(reference_lectic_keys(n, flat))]
                assert len(masks) > 6000
                assert len({m >> cut for m in masks}) == len(masks)
                want = "".join(
                    (" ".join(labels[p] for p in bits(m)) or "-") + "\n" for m in masks
                )
                code, out, err = run(capsys, "enumerate", "--sigma", str(theory), *extra,
                                     "--lectic")
                assert code == 0 and err == "" and out == want


class TestErrors:
    def test_domain_error_exit_one(self, files, capsys):
        code, out, err = run(
            capsys, "close", "--sigma", files["eq38.imp"], "--set", "9"
        )
        assert code == 1
        assert "hornkit:" in err

    def test_unreadable_file(self, capsys):
        code, _, err = run(capsys, "close", "--sigma", "/nonexistent", "--set", "1")
        assert code == 1 and "cannot read" in err

    def test_non_utf8_file(self, capsys, tmp_path):
        bad = tmp_path / "bad.imp"
        bad.write_bytes(b"elements: 1 2\n1 -> 2\xff\n")
        code, _, err = run(capsys, "close", "--sigma", str(bad), "--set", "1")
        assert code == 1 and "cannot read" in err

    def test_byte_order_mark_accepted(self, capsys, tmp_path):
        bom = tmp_path / "bom.imp"
        bom.write_bytes("elements: 1 2\r\n1 -> 2\r\n".encode("utf-8-sig"))
        code, out, _ = run(capsys, "close", "--sigma", str(bom), "--set", "1")
        assert code == 0 and out == "1 2\n"

    def test_format_only_on_sat(self, files, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["close", "--sigma", files["eq15.imp"], "--set", "1", "--format", "lines"])
        assert exc.value.code == 2

    def test_universe_mismatch(self, files, capsys, tmp_path):
        other = tmp_path / "other.imp"
        other.write_text("elements: a b\na -> b\n", encoding="utf-8")
        code, _, err = run(
            capsys, "equiv", "--sigma", files["eq38.imp"], "--sigma2", str(other)
        )
        assert code == 1

    @pytest.mark.parametrize("verb, flag, text, message", [
        ("count", "--gamma", "elements: a b\na\n", "--gamma universe differs from the input's"),
        ("equiv", "--sigma2", "elements: a b\na -> b\n",
         "the two families use different universes"),
    ])
    def test_second_file_over_another_universe(
        self, files, capsys, tmp_path, verb, flag, text, message
    ):
        other = tmp_path / "other.txt"
        other.write_text(text, encoding="utf-8")
        code, out, err = run(capsys, verb, "--sigma", files["eq38.imp"], flag, str(other))
        assert (code, out, err) == (1, "", f"hornkit: {message}\n")

    def test_step_needs_sigma(self, files, capsys):
        code, _, err = run(
            capsys,
            "close", "--family", files["fig4a.fam"], "--set", "3", "--one-step",
        )
        assert code == 1 and "--sigma" in err

    @pytest.mark.parametrize(
        "argv",
        [
            ["close", "--sigma", "eq38.imp", "--set", "3", "--one-step", "--trace"],
            ["close", "--sigma", "eq38.imp", "--set", "3", "--quasi", "--one-step"],
            ["base-gd", "--sigma", "eq38.imp", "--pseudoclosed", "--core"],
            ["base-gd", "--sigma", "eq38.imp", "--pseudoclosed", "--trim"],
            ["minimize", "--sigma", "eq38.imp", "--check", "--trim"],
            ["meetirr", "--sigma", "eq38.imp", "--element", "4", "--method", "brute"],
            ["meetirr", "--sigma", "eq38.imp", "--method", "rows"],
            ["close", "--sigma", "eq38.imp", "--set", "3", "--layout", "row"],
            ["stems", "--family", "mf.fam", "--via-dualization"],
            ["base-dbasis", "--sigma", "eq38.imp", "--verify"],
            ["base-dbasis", "--sigma", "eq38.imp", "--close-set", "3", "--verify"],
            ["stems", "--family", "mf.fam", "--element", "4", "--via-dualization"],
            ["enumerate", "--sigma", "eq38.imp", "--expand", "--materialize"],
        ],
        ids=lambda argv: " ".join(
            [argv[0], *(a for a in argv[2:] if a.startswith("--") and a != "--set")]
        ),
    )
    def test_conflicting_or_incomplete_flags_exit_two(self, files, capsys, argv):
        argv = [files.get(a, a) for a in argv]
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2
        assert capsys.readouterr().out == ""

    @pytest.mark.parametrize(
        "verb, extra, neither", SOURCE_VERBS, ids=[v[0] for v in SOURCE_VERBS]
    )
    def test_sigma_and_family_exclude_each_other(self, files, capsys, verb, extra, neither):
        with pytest.raises(SystemExit) as exc:
            main([verb, "--sigma", files["eq38.imp"], "--family", files["fig4a.fam"], *extra])
        assert exc.value.code == 2
        out = capsys.readouterr()
        assert out.out == "" and "not allowed with argument" in out.err
        code, out, err = run(capsys, verb, *extra)
        assert code == 1 and out == "" and err == f"hornkit: {neither}\n"

    @pytest.mark.parametrize(
        "verb, extra", SIGMA_VERBS, ids=[v[0] for v in SIGMA_VERBS]
    )
    def test_family_refused_where_sigma_is_read(self, files, capsys, verb, extra):
        extra = [files.get(a, a) for a in extra]
        for argv in (
            [verb, "--family", files["mf.fam"], *extra],
            [verb, "--sigma", files["eq38.imp"], "--family", files["mf.fam"], *extra],
        ):
            with pytest.raises(SystemExit) as exc:
                main(argv)
            assert exc.value.code == 2
            assert capsys.readouterr().out == ""
        code, _, _ = run(capsys, verb, "--sigma", files["eq38.imp"], *extra)
        assert code == 0

    @pytest.mark.parametrize(
        "verb, extra", [v[:2] for v in SOURCE_VERBS], ids=[v[0] for v in SOURCE_VERBS]
    )
    def test_family_accepted_where_a_source_is_read(self, files, capsys, verb, extra):
        code, out, err = run(capsys, verb, "--family", files["mf.fam"], *extra)
        if verb == "enumerate":  # its rows need implications; --lectic takes a family
            assert code == 1 and err == "hornkit: this verb needs --sigma input\n"
            code, out, err = run(capsys, verb, "--family", files["mf.fam"], "--lectic")
        assert code == 0 and out and err == ""

    def test_every_verb_declares_its_input(self):
        parser = build_parser()
        verbs = next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
        assert set(verbs.choices) == {v[0] for v in SOURCE_VERBS + SIGMA_VERBS}
        # handlers yield their text and main writes it: none prints itself
        for name, sub in verbs.choices.items():
            assert inspect.isgeneratorfunction(sub.get_default("fn")), name

    @pytest.mark.parametrize("flag", ["--lectic", "--materialize"])
    def test_reader_closing_the_pipe_early(self, tmp_path, flag):
        # 2^14 closed sets: far more output than a pipe buffers, so the
        # writer is still printing when the reader goes away
        wide = tmp_path / "wide.imp"
        wide.write_text("elements: " + " ".join(map(str, range(1, 15))) + "\n1 -> 2\n",
                        encoding="utf-8")
        env = dict(os.environ, PYTHONPATH=str(Path(__file__).resolve().parents[1] / "src"))
        proc = subprocess.Popen(
            [sys.executable, "-m", "hornkit.cli", "enumerate", "--sigma", str(wide), flag],
            stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env,
        )
        assert proc.stdout.readline()
        proc.stdout.close()
        err = proc.stderr.read()
        proc.stderr.close()
        assert proc.wait(timeout=60) == 1
        assert err == b""

    @pytest.mark.skipif(not os.path.isdir("/proc/self/fd"), reason="needs /proc/self/fd")
    def test_closed_pipe_leaks_no_descriptor(self, tmp_path, monkeypatch):
        wide = tmp_path / "wide.imp"
        wide.write_text("elements: " + " ".join(map(str, range(1, 17))) + "\n",
                        encoding="utf-8")
        read_end, write_end = os.pipe()
        os.close(read_end)
        with open(write_end, "w", encoding="utf-8") as pipe:
            monkeypatch.setattr(sys, "stdout", pipe)
            before = len(os.listdir("/proc/self/fd"))
            assert main(["enumerate", "--sigma", str(wide), "--lectic"]) == 1
            assert len(os.listdir("/proc/self/fd")) == before

    def test_usage_error_exit_two(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["close"])  # missing required --set
        assert exc.value.code == 2

    def test_unknown_verb(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["frobnicate"])
        assert exc.value.code == 2


def test_readme_table_names_every_flag():
    # the CLI table in README.md and the parser name the same flags per verb;
    # the input flags are described once, above the table
    ignored = {"--sigma", "--family", "--gamma"}
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    documented = {}
    for line in readme.splitlines():
        row = re.match(r"\| `([a-z-]+)` \|(.*)", line)
        if row:
            documented[row[1]] = set(re.findall(r"--[a-z0-9][a-z0-9-]*", row[2])) - ignored
    parser = build_parser()
    verbs = next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
    assert set(documented) == set(verbs.choices)
    for verb, sub in verbs.choices.items():
        flags = {o for a in sub._actions if a.dest != "help" for o in a.option_strings}
        assert documented[verb] == flags - ignored, verb
