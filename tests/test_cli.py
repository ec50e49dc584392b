import pytest

import hornkit.closure
from hornkit.cli import main

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


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


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
        _, row, _ = run(
            capsys,
            "close", "--sigma", files["eq38.imp"], "--set", "2 6", "--layout", "row",
        )
        _, col, _ = run(
            capsys,
            "close", "--sigma", files["eq38.imp"], "--set", "2 6", "--layout", "column",
        )
        assert row == col == "1 2 3 4 5 6\n"

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
        _, out2, _ = run(
            capsys,
            "stems", "--family", files["mf.fam"], "--element", "4",
            "--via-dualization",
        )
        assert out2 == out

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
            capsys, "base-dbasis", "--sigma", str(lat), "--close-set", "2 5", "--verify"
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
        _, brute_out, _ = run(
            capsys, "meetirr", "--sigma", files["eq38.imp"], "--method", "brute"
        )
        assert rows_out == brute_out
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

    def test_cmax_of(self, files, capsys):
        _, out, _ = run(
            capsys, "dualize", "--family", files["mf.fam"], "--cmax-of", "4"
        )
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

    def test_plain_lectic_goes_through_the_library_entry(self, files, capsys, monkeypatch):
        calls = []
        orig = hornkit.closure.enumerate_closed_lectic
        monkeypatch.setattr(hornkit.closure, "enumerate_closed_lectic",
                            lambda source: calls.append(source) or orig(source))
        for src in (["--sigma", files["eq38.imp"]], ["--family", files["mf.fam"]]):
            code, out, _ = run(capsys, "enumerate", *src, "--lectic")
            assert code == 0 and len(out.splitlines()) == 22
        assert len(calls) == 2


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
            ["stems", "--family", "mf.fam", "--via-dualization"],
            ["base-dbasis", "--sigma", "eq38.imp", "--verify"],
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

    def test_layout_needs_sigma(self, files, capsys):
        code, out, err = run(
            capsys,
            "close", "--family", files["fig4a.fam"], "--set", "3", "--layout", "row",
        )
        assert code == 1 and out == "" and "--sigma" in err

    def test_usage_error_exit_two(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["close"])  # missing required --set
        assert exc.value.code == 2

    def test_unknown_verb(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["frobnicate"])
        assert exc.value.code == 2
