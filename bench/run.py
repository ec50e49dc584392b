"""hornkit benchmark: one seeded workload, closed loop, one client.

    python3 bench/run.py --workload query-stream --seed 1 --seconds 25 --trace 0

Run from the repository root (the program is imported from ``src/``).
``--trace 0`` times the workload untraced and prints the end-to-end
metrics; ``--trace 1`` runs each op of a fixed prefix of the op stream
untraced and traced, back to back, and prints the per-layer metrics.
Every answer is checked right after its op, outside the op's time; the
last stdout line is one JSON object with keys correct, attempted, failed
and metrics. README.md describes the workloads and metrics.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from array import array
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

#: set-ups per run, spread over the timed loop; setup_s is their median
SETUP_REPS = 6
#: fresh interpreters per run, spread over the loop; startup_ms is their median
STARTUP_REPS = 16
#: seconds of loop time between two reference samples (see speed.py)
CAL_PERIOD = 0.25
#: every run issues at least this many ops, so ten or more lie beyond p90
MIN_OPS = 100
#: traced passes cover this many cycles of the workload's op pattern,
#: enough to reach every verb of one instance per class
TRACE_CYCLES = {"query-stream": 60, "bases": 5, "models": 2}
#: cycles of the op pattern run before the timed loop to measure
#: peak_rss_mb (capped at MIN_OPS ops, which the loop always repeats)
MEMORY_CYCLES = {"query-stream": 20, "bases": 1, "models": 1}

END_TO_END = {
    "setup_s": "s",
    "ops_per_s": "1/s",
    "op_p50_ms": "ms",
    "op_p90_ms": "ms",
    "peak_rss_mb": "MB",
    "startup_ms": "ms",
}


def _peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def _env() -> dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC) + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


def _timed_setup(w) -> float:
    t0 = time.perf_counter()
    w.setup()
    return time.perf_counter() - t0


def _startup_probe(workdir: Path):
    """A callable that times one fresh ``python -m hornkit.cli measures``
    on EQ38, in seconds; a wrong answer counts as a failed op."""
    import gen
    import oracle as ora

    text = gen.WORKED["eq38.imp"]
    path = workdir / "startup-eq38.imp"
    path.write_text(text, encoding="utf-8")
    pairs = ora.parse_sigma(ora.index_of(6), "\n".join(text.splitlines()[1:]))
    lhs = sum(p.bit_count() for p, _ in pairs)
    rhs = sum(c.bit_count() for _, c in pairs)
    want = f"ca={len(pairs)} s={lhs + rhs} lhs={lhs} rhs={rhs}"
    argv = [sys.executable, "-m", "hornkit.cli", "measures", "--sigma", str(path)]

    def probe(ledger: Ledger) -> float:
        t0 = time.perf_counter()
        proc = subprocess.run(argv, cwd=ROOT, env=_env(), capture_output=True, text=True,
                              timeout=60)
        dt = time.perf_counter() - t0
        ledger.attempted += 1
        if proc.returncode != 0 or proc.stdout.strip() != want:
            ledger.fail(f"startup: {proc.stdout!r} {proc.stderr[-500:]!r}")
        return dt

    return probe


def _import_ms(reps: int) -> float:
    """Median in-interpreter time of ``import hornkit.cli`` over fresh
    interpreters."""
    code = ("import time; t = time.perf_counter(); import hornkit.cli; "
            "print((time.perf_counter() - t) * 1e3)")
    times = []
    for _ in range(reps):
        proc = subprocess.run([sys.executable, "-c", code], cwd=ROOT, env=_env(),
                              capture_output=True, text=True, timeout=60, check=True)
        times.append(float(proc.stdout))
    return statistics.median(times)


class Ledger:
    """Checks each answer right after its op, outside the op's timer.

    Only a digest of each distinct op's first answer is kept, so repeats
    can be compared with it; no answer outlives its check. The digest is
    Python's own 64-bit hash of the answer (a str, int or bool): hashlib
    would load OpenSSL, about 4 MB of the measured memory."""

    def __init__(self):
        self.seen: dict[str, tuple[int, bool]] = {}  # op key -> (digest, first answer ok)
        self.unchecked: dict[str, int] = {}  # answers of the memory pass
        self.attempted = 0
        self.failed = 0
        self.errors: list[str] = []

    def fail(self, msg: str) -> None:
        self.failed += 1
        if len(self.errors) < 20:
            self.errors.append(msg)

    def call(self, op):
        """Run one op, unchecked; returns (seconds, answer), the answer
        None when the op raised."""
        self.attempted += 1
        t0 = time.perf_counter()
        try:
            got = op.run()
        except Exception:
            dt = time.perf_counter() - t0
            self.fail(f"{op.key}: {traceback.format_exc(limit=3)}")
            return dt, None
        return time.perf_counter() - t0, got

    def run(self, op) -> tuple[float, float]:
        """Run and check one op; returns (op seconds, check seconds)."""
        dt, got = self.call(op)
        return dt, self.verify(op, got)

    def verify(self, op, got) -> float:
        """Check one answer of ``call``; returns the seconds it took."""
        if got is None:
            return 0.0
        t0 = time.perf_counter()
        digest = hash(got)
        seen = self.seen.get(op.key)
        if seen is None:
            try:
                ok = op.check(got)
            except Exception:
                ok = False
                self.errors.append(f"{op.key}: check raised {traceback.format_exc(limit=3)}")
            early = self.unchecked.pop(op.key, digest)
            self.seen[op.key] = (digest, ok)
            if not ok:
                self.fail(f"{op.key}: wrong answer")
            if early != digest:
                self.fail(f"{op.key}: memory-pass answer differs from the checked one")
        elif seen != (digest, True):
            self.fail(f"{op.key}: wrong answer" if seen[0] == digest
                       else f"{op.key}: answer differs from its first call")
        return time.perf_counter() - t0

    def run_unchecked(self, op) -> None:
        """Run one op and keep only its digest, to be compared with the
        checked answer of the same op later in the run."""
        _, got = self.call(op)
        if got is not None:
            self.unchecked[op.key] = hash(got)

    def finish(self) -> None:
        for key in self.unchecked:
            self.fail(f"{key}: answer of the memory pass never checked")
        self.unchecked.clear()


def _memory_pass(w, ledger: Ledger) -> float:
    """Peak RSS in MB after running a fixed prefix of the op stream,
    unchecked and keeping no answers. Nothing that depends on time has
    run yet, so the figure depends on the seed and the program only."""
    stream = w.stream()
    for _ in range(min(MIN_OPS, len(w.pattern()) * MEMORY_CYCLES[w.name])):
        ledger.run_unchecked(next(stream))
    return _peak_rss_mb()


def _timed(w, seconds: float, ledger: Ledger, startup) -> dict[str, dict[str, float]]:
    """The closed loop. Set-up and start-up samples are spread evenly over
    it, and a reference sample is taken every CAL_PERIOD; none of them,
    and no answer check, counts against the loop's time. Returns raw and
    speed-scaled values."""
    from speed import Speed

    speed = Speed()
    side = ["setup"] * SETUP_REPS + ["startup"] * STARTUP_REPS
    side = [side[(i * 7) % len(side)] for i in range(len(side))]  # interleave
    n_side = len(side)
    setups: list[tuple[float, float]] = []  # (start, seconds)
    startups: list[tuple[float, float]] = []
    lat_t = array("d")  # op start times
    lat = array("d")  # op seconds
    stream = w.stream()
    start = time.perf_counter()
    aside = 0.0
    next_cal = 0.0
    while True:
        busy = time.perf_counter() - start - aside
        t0 = time.perf_counter()
        if busy >= next_cal:
            speed.sample()
            next_cal += CAL_PERIOD
        elif side and busy >= (n_side - len(side)) * seconds / n_side:
            if side.pop() == "setup":
                setups.append((t0, _timed_setup(w)))
            else:
                startups.append((t0, startup(ledger)))
        elif busy >= seconds and len(lat) >= MIN_OPS and not side:
            break
        else:
            dt, check_s = ledger.run(next(stream))
            lat_t.append(t0)
            lat.append(dt)
            aside += check_s
            continue
        aside += time.perf_counter() - t0
    speed.sample()

    def summary(scale) -> dict[str, float]:
        ops = [dt * scale(t) for t, dt in zip(lat_t, lat)]
        return {
            "setup_s": statistics.median(dt * scale(t) for t, dt in setups),
            "ops_per_s": len(ops) / sum(ops),
            "op_p50_ms": statistics.median(ops) * 1e3,
            "op_p90_ms": statistics.quantiles(ops, n=10)[8] * 1e3,
            "startup_ms": statistics.median(dt * scale(t) for t, dt in startups) * 1e3,
        }

    return {"scaled": summary(speed.factor), "raw": summary(lambda t: 1.0)}


def _traced(w, seconds: float, ledger: Ledger, spans_path: Path) -> dict[str, float]:
    """Passes over a fixed prefix of the op stream. In each pass every op
    (and the set-up) runs twice back to back, once untraced and once
    traced, in alternating order; the pair's times give the overhead ratio
    without the machine's drift between them. Times are scaled like the
    end-to-end ones; each value is the median over passes."""
    from speed import REF_S, Speed
    from tracing import METRICS, Tracer

    stream = w.stream()
    ops = [next(stream) for _ in range(len(w.pattern()) * TRACE_CYCLES[w.name])]
    tracer = Tracer()
    speed = Speed()
    passes: list[dict[str, float]] = []
    t_start = time.perf_counter()

    def pair(first_traced: bool, label: str, call, op=None) -> tuple[float, float]:
        """(untraced, traced) seconds of two back-to-back calls; each call
        returns (seconds, answer), and an op's answers are checked after
        the tracer is taken out again."""
        times = {}
        for traced in (True, False) if first_traced else (False, True):
            if traced:
                tracer.op_id = label
                tracer.install()
            try:
                times[traced], got = call()
            finally:
                tracer.uninstall()
            if op is not None:
                ledger.verify(op, got)
        return times[False], times[True]

    while True:
        t_pass = time.perf_counter()
        n_samples = len(speed.durations)
        tracer.reset()
        k = len(passes)
        plain, traced = pair(k % 2 == 0, "setup", lambda: (_timed_setup(w), None))
        next_cal = time.perf_counter()
        for i, op in enumerate(ops):
            if time.perf_counter() >= next_cal:
                speed.sample()
                next_cal = time.perf_counter() + CAL_PERIOD
            u, t = pair((k + i) % 2 == 1, f"{k}:{i}:{op.key}", lambda: ledger.call(op), op)
            plain += u
            traced += t
        speed.sample()
        scale = REF_S / statistics.median(speed.durations[n_samples:])
        m = tracer.metrics()
        for name, (unit, _) in METRICS.items():
            if unit == "s" and name in m:
                m[name] *= scale
        m["trace.overhead_ratio"] = traced / plain
        passes.append(m)
        elapsed = time.perf_counter() - t_start
        if elapsed + (time.perf_counter() - t_pass) > seconds:
            break
    spans_path.parent.mkdir(parents=True, exist_ok=True)
    with spans_path.open("w", encoding="utf-8") as fh:
        json.dump({"fields": ["name", "start", "end", "parent", "op"], "spans": tracer.spans}, fh)
    out = {k: statistics.median(p[k] for p in passes) for k in passes[0]}
    for _ in range(5):
        speed.sample()
    out["cli.import_ms"] = _import_ms(7) * REF_S / statistics.median(speed.durations[-5:])
    missing = set(METRICS) - set(out)
    if missing:
        raise RuntimeError(f"per-layer metrics not computed: {sorted(missing)}")
    return out


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=("query-stream", "bases", "models"))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--scale", choices=("full", "small"), default="full",
                    help="input sizes; small is for the self-test")
    args = ap.parse_args(argv)

    if not (SRC / "hornkit" / "__init__.py").is_file():
        print(f"hornkit sources not found under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    sys.path.insert(0, str(HERE))
    import hornkit.cli  # noqa: F401  (traced as the cli layer)
    from tracing import METRICS
    from workloads import WORKLOADS

    out_dir = ROOT / ".bench_out"
    workdir = out_dir / f"{args.workload}-{args.seed}-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    ledger = Ledger()
    try:
        w = WORKLOADS[args.workload](args.seed, args.scale, workdir)
        w.setup()  # the loaded state the first ops use
        if args.trace:
            spans = out_dir / f"spans-{args.workload}-{args.seed}.json"
            values = _traced(w, args.seconds, ledger, spans)
            units = {k: u for k, (u, _) in METRICS.items()}
            raw = values
        else:
            peak = _memory_pass(w, ledger)
            both = _timed(w, args.seconds, ledger, _startup_probe(workdir))
            values, raw = both["scaled"], both["raw"]
            values["peak_rss_mb"] = raw["peak_rss_mb"] = peak
            units = END_TO_END
        ledger.finish()
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    for err in ledger.errors:
        print(err, file=sys.stderr)
    error_rate = ledger.failed / ledger.attempted
    print(f"workload={args.workload} seed={args.seed} trace={args.trace} "
          f"attempted={ledger.attempted} failed={ledger.failed} error_rate={error_rate:g}")
    for name in units:
        note = f"  (raw {raw[name]:.6g})" if raw[name] != values[name] else ""
        print(f"  {name} = {values[name]:.6g} {units[name]}{note}")
    result = {
        "correct": ledger.failed == 0,
        "attempted": ledger.attempted,
        "failed": ledger.failed,
        "metrics": {name: {"value": values[name], "unit": units[name]} for name in units},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
