"""Seeded output sweep: every CLI verb, run in-process through ``cli.main``
on well-formed inputs, must print exactly what it printed when the digest
file was written.

Each verb gets one SHA-256 over the argv, exit code, stdout and stderr of
all its runs, with the input directory replaced by ``<dir>``. The inputs are
``test_cli_fuzz`` files without defects (n = 5-9), one ``test_cli_fuzz._argv``
draw per verb and file set, plus fixed runs of the family verbs on the
padded MF, which is past the stem-search limit. A change that alters an
output on purpose regenerates the digests with

    PYTHONPATH=src python tests/test_output_sweep.py --write

and names the verbs whose digest changed.
"""

from __future__ import annotations

import hashlib
import json
import sys
import tempfile
from pathlib import Path

from conftest import padded_mf_text, rng_for
from test_cli_fuzz import LABELS, VERBS, _argv, _run, _text

DIGESTS = Path(__file__).with_name("output_sweep.json")
CASES = 40

#: family-verb runs on the padded MF: some pass the limit, some stop at it
PADDED_MF_RUNS = (
    ["close", "--set", "1 2"],
    ["base-gd"],
    ["base-direct"],
    ["base-dbasis"],
    ["meetirr"],
    ["meetirr", "--element", "4"],
    ["stems"],
    ["stems", "--element", "4"],
    ["dualize"],
    ["dualize", "--cmax-of", "4"],
    ["keys"],
    ["enumerate", "--lectic"],
)


def _runs(directory: Path):
    """(verb, argv) pairs of the sweep, with its input files written under
    ``directory``."""
    for case in range(CASES):
        rng = rng_for(50000 + case)
        labels = rng.sample(LABELS, rng.randint(5, 9))
        files = {}
        for name, kind in (("imp", "imp"), ("fam", "fam"), ("imp2", "imp")):
            path = directory / f"{case}-{name}"
            path.write_text(_text(rng, labels, kind, None), encoding="utf-8")
            files[name] = str(path)
        for verb in VERBS:
            yield verb, _argv(rng, verb, files, labels)
    padded = directory / "mf24.fam"
    padded.write_text(padded_mf_text(), encoding="utf-8")
    for verb, *flags in PADDED_MF_RUNS:
        yield verb, [verb, "--family", str(padded), *flags]


def sweep(directory: Path) -> dict[str, str]:
    """Verb -> SHA-256 of all its runs."""
    hashes = {verb: hashlib.sha256() for verb in VERBS}
    for verb, argv in _runs(directory):
        code, out, err = _run(argv)
        record = "\0".join([*argv, str(code), out, err, ""])
        hashes[verb].update(record.replace(str(directory), "<dir>").encode("utf-8"))
    return {verb: h.hexdigest() for verb, h in hashes.items()}


def test_every_verb_prints_what_it_printed(tmp_path):
    expected = json.loads(DIGESTS.read_text(encoding="utf-8"))
    got = sweep(tmp_path)
    assert set(expected) == set(VERBS)
    changed = [verb for verb in VERBS if got[verb] != expected[verb]]
    assert not changed, f"output changed for: {' '.join(changed)}"


if __name__ == "__main__":
    if sys.argv[1:] != ["--write"]:
        sys.exit(f"usage: {sys.argv[0]} --write  (rewrites {DIGESTS.name})")
    with tempfile.TemporaryDirectory() as tmp:
        digests = sweep(Path(tmp))
    DIGESTS.write_text(json.dumps(digests, indent=1) + "\n", encoding="utf-8")
    print(f"wrote {len(digests)} digests to {DIGESTS}")
