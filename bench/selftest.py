"""Small-size self-test of the benchmark.

    python3 bench/selftest.py

Runs every workload at ``--scale small`` untraced and traced, and fails
unless each run checks out with error_rate 0 and reports every metric.
Also checks that the benchmark refuses to run, without printing a
result, where the program's sources are missing.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

from run import END_TO_END  # noqa: E402
from tracing import METRICS  # noqa: E402


def _run(cwd: Path, workload: str, trace: int) -> subprocess.CompletedProcess:
    argv = [sys.executable, "bench/run.py", "--workload", workload, "--seed", "7",
            "--seconds", "1", "--trace", str(trace), "--scale", "small"]
    return subprocess.run(argv, cwd=cwd, capture_output=True, text=True, timeout=300)


def main() -> int:
    problems = []
    for workload in ("query-stream", "bases", "models"):
        for trace, names in ((0, END_TO_END), (1, METRICS)):
            proc = _run(ROOT, workload, trace)
            tag = f"{workload} trace={trace}"
            if proc.returncode != 0:
                problems.append(f"{tag}: exit {proc.returncode}\n{proc.stderr[-2000:]}")
                continue
            result = json.loads(proc.stdout.strip().splitlines()[-1])
            if set(result) != {"correct", "attempted", "failed", "metrics"}:
                problems.append(f"{tag}: result keys {sorted(result)}")
            if not result["correct"] or result["failed"] or result["attempted"] < 1:
                problems.append(f"{tag}: error_rate {result['failed']}/{result['attempted']}"
                                f"\n{proc.stderr[-2000:]}")
            if set(result["metrics"]) != set(names):
                problems.append(f"{tag}: metrics {sorted(set(names) ^ set(result['metrics']))}")
            print(f"ok {tag}: {result['attempted']} ops, {len(result['metrics'])} metrics")

    # a tree holding only the benchmark: it must fail without a result
    (ROOT / ".bench_out").mkdir(exist_ok=True)
    bare = Path(tempfile.mkdtemp(prefix="bare-", dir=ROOT / ".bench_out"))
    try:
        shutil.copytree(HERE, bare / "bench", ignore=shutil.ignore_patterns("__pycache__"))
        shutil.copy(ROOT / "BENCHMARK.json", bare / "BENCHMARK.json")
        proc = _run(bare, "query-stream", 0)
        if proc.returncode == 0 or proc.stdout.strip():
            problems.append(f"bare tree: exit {proc.returncode}, stdout {proc.stdout[-200:]!r}")
        else:
            print(f"ok bare tree refused: exit {proc.returncode}")
    finally:
        shutil.rmtree(bare, ignore_errors=True)

    for p in problems:
        print("FAIL", p)
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
