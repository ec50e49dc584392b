"""The three workloads: their seeded inputs, the operations a run issues,
and the check of every answer.

A workload is a set of op classes, each a list of operations, interleaved
by a fixed weight pattern, so any prefix of the stream holds the classes
in (nearly) the designed proportions. The weights put the p50 and p90
ranks inside a class rather than on a boundary between two, which keeps
those percentiles steady from seed to seed. README.md records why each
size was chosen.
"""

from __future__ import annotations

import contextlib
import io
import random
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

import gen
import oracle as ora

#: sizes per scale; "small" is the self-test
SIZES = {
    "full": dict(
        qs_n=1000, deep_m=3000, shallow_m=10000, fam_n=200, fam_k=2000, qs_queries=800,
        # (n, m, theories, weight): p50 falls among the n=12 base verbs,
        # p90 among the n=16 ones
        bases=((10, 25, 48, 2), (12, 24, 120, 6), (14, 35, 24, 1), (16, 32, 48, 2)),
        # (class, n, m, premise sizes, theories, weight): p90 falls among
        # the lectic ops; their premises have exactly 3 elements, which keeps
        # the number of closed sets within ~6% across seeds
        models=(("rows", 22, 44, (2, 3), 128, 8), ("lattice", 20, 40, (2, 3), 48, 2),
                ("lectic", 19, 80, (3,), 48, 2)),
        dual=(22, 14, 3, 6, 48, 2),
    ),
    "small": dict(
        qs_n=100, deep_m=300, shallow_m=1000, fam_n=40, fam_k=200, qs_queries=60,
        bases=((8, 16, 9, 2), (10, 20, 9, 6), (11, 22, 7, 1), (12, 24, 7, 2)),
        models=(("rows", 12, 24, (2, 3), 12, 8), ("lattice", 11, 22, (2, 3), 4, 2),
                ("lectic", 10, 30, (3,), 4, 2)),
        dual=(10, 8, 2, 4, 4, 2),
    ),
}


@dataclass
class Op:
    key: str  # names the distinct operation; repeats must answer the same
    run: Callable[[], object]
    check: Callable[[object], bool]


@dataclass
class Workload:
    name: str
    setup: Callable[[], None]  # program-side set-up, timed by the runner
    classes: list[tuple[str, int, list[Op]]] = field(default_factory=list)

    def pattern(self) -> list[int]:
        """Smooth weighted round robin: each class appears ``weight`` times,
        spread as evenly as the weights allow."""
        weights = [w if ops else 0 for _, w, ops in self.classes]
        credit = [0] * len(weights)
        out = []
        for _ in range(sum(weights)):
            for ci, w in enumerate(weights):
                credit[ci] += w
            best = max(range(len(weights)), key=lambda ci: credit[ci])
            credit[best] -= sum(weights)
            out.append(best)
        return out

    def stream(self):
        """Endless op stream; each class cycles through its own list."""
        cursor = [0] * len(self.classes)
        pat = self.pattern()
        while True:
            for ci in pat:
                ops = self.classes[ci][2]
                yield ops[cursor[ci] % len(ops)]
                cursor[ci] += 1


def _run_cli(argv: list[str]) -> Callable[[], object]:
    from hornkit import cli

    def run():
        out = io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
            code = cli.main(argv)
        if code != 0:
            raise RuntimeError(f"exit {code}: {' '.join(argv)}")
        return out.getvalue()

    return run


# -- query-stream ----------------------------------------------------------------


def query_stream(seed: int, scale: str, workdir: Path) -> Workload:
    """Library calls on three operators loaded once: close and entails
    alternate, one client, no process or file per call."""
    import hornkit as hk

    z = SIZES[scale]
    rng = random.Random(seed)
    n = z["qs_n"]
    deep = gen.unit_horn(rng, n, z["deep_m"], (1, 2, 3))
    shallow = gen.unit_horn(rng, n, z["shallow_m"], (2, 3))
    fam_n = z["fam_n"]
    fam = gen.dense_family(rng, fam_n, z["fam_k"], 0.80, 0.97)
    texts = {
        "deep": gen.render_sigma(n, deep),
        "shallow": gen.render_sigma(n, shallow),
        "family": gen.render_family(fam_n, fam),
    }
    refs = {
        "deep": ora.Horn(n, deep),
        "shallow": ora.Horn(n, shallow),
        "family": ora.Family(fam_n, fam),
    }
    loaded: dict[str, object] = {}

    def setup():
        loaded["deep"] = hk.load_implications(texts["deep"])[1]
        loaded["shallow"] = hk.load_implications(texts["shallow"])[1]
        loaded["family"] = hk.load_family(texts["family"])[1]

    # one compiled operator per layout, for the row/column agreement check
    layouts: dict[tuple[str, str], object] = {}

    def layout_close(name: str, layout: str, mask: int) -> int:
        c = layouts.get((name, layout))
        if c is None:
            c = layouts[(name, layout)] = hk.Closure.from_sigma(loaded[name], layout)
        return c.of_mask(mask)

    def layouts_agree(name: str, i: int, q: int) -> bool:
        # every fourth query: the row kernel alone costs as much as the op
        if i % 4:
            return True
        return layout_close(name, "row", q) == layout_close(name, "column", q) == refs[name].close(q)

    def make(name: str, i: int, q: int, target: int) -> Op:
        ref = refs[name]
        if name == "family":
            def run():
                fam_obj = loaded["family"]
                return hk.close_family(fam_obj, hk.AttrSet(fam_obj.universe, q)).mask

            return Op(f"{name}/close/{i}", run, lambda got: got == ref.close(q))
        if i % 2 == 0:
            def run():
                sigma = loaded[name]
                return hk.close(sigma, hk.AttrSet(sigma.universe, q)).mask

            def check(got):
                return got == ref.close(q) and layouts_agree(name, i, q)

            return Op(f"{name}/close/{i}", run, check)

        def run():
            sigma = loaded[name]
            u = sigma.universe
            return hk.entails(sigma, hk.Implication(hk.AttrSet(u, q), hk.AttrSet(u, target)))

        def check(got):
            return got == (target & ~ref.close(q) == 0) and layouts_agree(name, i, q)

        return Op(f"{name}/entails/{i}", run, check)

    w = Workload("query-stream", setup)
    # weights: deep closure times are bimodal (a seed set either stays
    # small or percolates to most of E) with a seed-dependent mix, so the
    # p50 is placed among the shallow calls, whose time is mostly compiling
    for name, size, weight in (("deep", n, 1), ("shallow", n, 3), ("family", fam_n, 1)):
        qs = gen.query_sets(rng, size, z["qs_queries"] * weight)
        ops = [make(name, i, q, 1 << rng.randrange(size)) for i, q in enumerate(qs)]
        w.classes.append((name, weight, ops))
    return w


# -- bases -----------------------------------------------------------------------

BASE_VERBS = (
    ("base-gd",),
    ("base-gd", "--pseudoclosed"),
    ("base-direct",),
    ("base-dbasis",),
    ("stems",),
    ("minimize",),
    ("minimize", "--check"),
    ("primes",),
    ("acyclic",),
)
#: consensus (primes, acyclic) is kept to n <= 10: at n = 12 a few random
#: theories already take ~1 s per op, which made runs unsteady
CONSENSUS_MAX_N = 10
#: brute-force references (powerset scans) are affordable up to here
BRUTE_MAX_N = 12


class Instance:
    """One input operator and its brute-force reference data. A check
    asks for that data at most once, so it is built per call and kept
    nowhere: memory does not grow with the number of instances checked."""

    def __init__(self, n: int, path: Path, pairs=None, family=None):
        self.n = n
        self.path = str(path)
        self.index = ora.index_of(n)
        self.pairs = pairs
        self.op = ora.Horn(n, pairs) if pairs is not None else ora.Family(n, family)
        self.flag = "--sigma" if pairs is not None else "--family"

    def stems(self) -> set[tuple[int, int]]:
        return ora.Table(self.op, self.n).stems()

    def pseudo(self) -> set[int]:
        return ora.Table(self.op, self.n).pseudoclosed()


def _check_base(inst: Instance, verb: tuple[str, ...], out: str) -> bool:
    n, op, small = inst.n, inst.op, inst.n <= BRUTE_MAX_N
    if verb == ("base-gd",):
        base = ora.parse_sigma(inst.index, out)
        if not ora.equivalent(op, n, base) or not ora.nonredundant(n, base):
            return False
        if any(c != op.close(p) for p, c in base):
            return False
        return not small or {p for p, _ in base} == inst.pseudo()
    if verb == ("base-gd", "--pseudoclosed"):
        ps = ora.parse_sets(inst.index, out)
        if small:
            return set(ps) == inst.pseudo() and len(ps) == len(set(ps))
        for p in ps:
            if op.close(p) == p:
                return False
            for q in ps:
                if q != p and q & ~p == 0 and op.close(q) & ~p:
                    return False
        base = [(p, op.close(p)) for p in ps]
        return ora.equivalent(op, n, base) and ora.nonredundant(n, base)
    if verb == ("base-direct",):
        base = ora.parse_sigma(inst.index, out)
        pairs = {(p, e) for p, c in base for e in ora.bits(c)}
        if small:
            return pairs == inst.stems()
        return (ora.equivalent(op, n, base) and all(ora.is_prime(op, p, e) for p, e in pairs)
                and ora.stems_complete(op, n, pairs))
    if verb == ("base-dbasis",):
        base = ora.parse_sigma(inst.index, out)
        if any(c.bit_count() != 1 or not ora.is_prime(op, p, c.bit_length() - 1) for p, c in base):
            return False
        if small:
            binary = {(p, e) for p, e in inst.stems() if p.bit_count() <= 1}
            got = {(p, c.bit_length() - 1) for p, c in base if p.bit_count() <= 1}
            if got != binary:
                return False
            tests = range(1 << n)
        else:
            rng = random.Random(n)
            tests = [1 << e for e in range(n)] + [rng.getrandbits(n) & rng.getrandbits(n) for _ in range(64)]
        for s in tests:
            mask = s
            for p, c in base:
                if p & ~mask == 0:
                    mask |= c
            if mask != op.close(s):
                return False
        return True
    if verb == ("stems",):
        got = set()
        for line in out.splitlines():
            root, stem = line.split(":", 1)
            got.add((ora.parse_set(inst.index, stem), inst.index[root.strip()]))
        if small:
            return got == inst.stems()
        return (all(ora.is_prime(op, p, e) for p, e in got)
                and ora.stems_complete(op, n, got))
    if verb == ("minimize",):
        base = ora.parse_sigma(inst.index, out)
        if not ora.equivalent(op, n, base) or not ora.nonredundant(n, base):
            return False
        return len(base) == ora.minimum_size(op, n)
    if verb == ("minimize", "--check"):
        given = {(p, c) for p, c in inst.pairs if c & ~p}
        want = len(given) == ora.minimum_size(op, n)
        return out.strip() == ("true" if want else "false")
    if verb == ("primes",):
        got = {(p, c.bit_length() - 1) for p, c in ora.parse_sigma(inst.index, out)}
        return got == inst.stems()
    if verb == ("acyclic",):
        succ = [0] * n
        for p, e in inst.stems():
            for a in ora.bits(p):
                succ[a] |= 1 << e
        has_cycle = _has_cycle(succ)
        text = out.strip()
        if not has_cycle:
            return text == "true"
        if not text.startswith("false"):
            return False
        walk = [inst.index[t.strip()] for t in text.split("cycle:", 1)[1].split("->")]
        return walk[0] == walk[-1] and all(succ[a] >> b & 1 for a, b in zip(walk, walk[1:]))
    raise ValueError(verb)


def _has_cycle(succ: list[int]) -> bool:
    """Kahn's algorithm: a cycle remains when some vertex is never freed."""
    n = len(succ)
    indeg = [0] * n
    for a in range(n):
        for b in ora.bits(succ[a]):
            indeg[b] += 1
    todo = [v for v in range(n) if indeg[v] == 0]
    done = 0
    while todo:
        a = todo.pop()
        done += 1
        for b in ora.bits(succ[a]):
            indeg[b] -= 1
            if indeg[b] == 0:
                todo.append(b)
    return done < n


def _base_ops(inst: Instance, name: str, verbs) -> list[Op]:
    ops = []
    for verb in verbs:
        argv = [verb[0], inst.flag, inst.path, *verb[1:]]
        ops.append(
            Op(f"{name}/{' '.join(verb)}", _run_cli(argv),
               lambda out, v=verb: _check_base(inst, v, out))
        )
    return ops


def _write(workdir: Path, name: str, text: str) -> Path:
    path = workdir / name
    path.write_text(text, encoding="utf-8")
    return path


def _loader(paths: list[Path]) -> Callable[[], None]:
    """Set-up of the CLI workloads: parse every input file once with the
    program's own loaders, which also proves the files well formed."""
    import hornkit as hk

    def setup():
        for p in paths:
            text = p.read_text(encoding="utf-8")
            if p.suffix == ".imp":
                hk.load_implications(text)
            else:
                hk.load_family(text)

    return setup


def bases(seed: int, scale: str, workdir: Path) -> Workload:
    """cli.main base verbs on random theories of n = 10-16 and on the
    survey's worked instances."""
    z = SIZES[scale]
    rng = random.Random(seed)
    paths: list[Path] = []
    classes = []
    worked = []
    for fname, text in gen.WORKED.items():
        path = _write(workdir, fname, text)
        paths.append(path)
        n = len(text.splitlines()[0].split()) - 1
        idx = ora.index_of(n)
        rows = [ln for ln in text.splitlines()[1:] if ln.strip()]
        if fname.endswith(".imp"):
            inst = Instance(n, path, pairs=ora.parse_sigma(idx, "\n".join(rows)))
            verbs = BASE_VERBS
        else:
            inst = Instance(n, path, family=ora.parse_sets(idx, "\n".join(rows)))
            verbs = BASE_VERBS[:5]
        worked.extend(_base_ops(inst, fname, verbs))
    classes.append(("worked", 1, worked))
    for n, m, count, weight in z["bases"]:
        ops = []
        verbs = BASE_VERBS if n <= CONSENSUS_MAX_N else BASE_VERBS[:7]
        for i in range(count):
            pairs = gen.random_theory(rng, n, m)
            path = _write(workdir, f"theory-n{n}-{i}.imp", gen.render_sigma(n, pairs))
            paths.append(path)
            # one verb per theory, rotating: a run then averages over many
            # theories instead of a few, which steadies it from seed to seed
            verb = verbs[i % len(verbs)]
            ops.extend(_base_ops(Instance(n, path, pairs=pairs), path.name, [verb]))
        classes.append((f"n{n}", weight, ops))
    return Workload("bases", _loader(paths), classes)


# -- models ----------------------------------------------------------------------


def _rows_of(out: str) -> list:
    return [ora.parse_row(line) for line in out.splitlines() if line.strip()]


def _check_rows(inst: Instance, out: str, gamma: list[int], bubbles_ok: bool) -> bool:
    """Sampled soundness and completeness: each row's least member is a
    model, and sampled models lie in exactly one row, non-models in none."""
    rows = _rows_of(out)
    if not bubbles_ok and any(r[3] for r in rows):
        return False

    def model(mask):
        return inst.op.close(mask) == mask and not any(g & ~mask == 0 for g in gamma)

    if not all(model(r[0]) for r in rows):
        return False
    rng = random.Random(len(rows))
    for s in ora.sample_closed(inst.op, inst.n, rng, 24) + [rng.getrandbits(inst.n) for _ in range(8)]:
        hits = sum(ora.row_has(r, s) for r in rows)
        if hits != (1 if model(s) else 0):
            return False
    return True


class ModelsInstance(Instance):
    def __init__(self, n, path, pairs, gamma, gamma_path):
        super().__init__(n, path, pairs=pairs)
        self.gamma = gamma
        self.gamma_path = str(gamma_path)

    def answer(self, verb: tuple[str, ...]) -> str:
        """This instance's answer to a sibling verb, from a fresh call
        made while checking (so outside any op's time)."""
        return _run_cli([verb[0], "--sigma", self.path, *verb[1:]])()


def _check_models(inst: ModelsInstance, verb: tuple[str, ...], out: str) -> bool:
    n, op = inst.n, inst.op
    if verb == ("count",):
        want = sum(ora.row_count(r) for r in _rows_of(inst.answer(("enumerate",))))
        return out.strip() == str(want)
    if verb == ("enumerate",):
        return _check_rows(inst, out, [], True)
    if verb == ("enumerate", "--expand"):
        total = sum(ora.row_count(r) for r in _rows_of(out))
        want = sum(ora.row_count(r) for r in _rows_of(inst.answer(("enumerate",))))
        return total == want and _check_rows(inst, out, [], False)
    if verb == ("enumerate", "--gamma"):
        return _check_rows(inst, out, inst.gamma, True)
    if verb == ("sat", "--gamma"):
        bottom = op.close(0)
        if any(g & ~bottom == 0 for g in inst.gamma):
            return out.strip() == "unsatisfiable"
        lines = out.splitlines()
        return lines[0] == "satisfiable" and ora.parse_set(inst.index, lines[1].split(":", 1)[1]) == bottom
    if verb == ("compress", "--gamma"):
        full = op.full
        sigma_lines = [ln for ln in out.splitlines() if not ln.startswith("!")]
        bangs = [ln[1:] for ln in out.splitlines() if ln.startswith("!")]
        if inst.gamma and [ora.parse_set(inst.index, b) for b in bangs] != [full]:
            return False
        lifted = ora.Horn(n, inst.pairs + [(g, full) for g in inst.gamma])
        return ora.equivalent(lifted, n, ora.parse_sigma(inst.index, "\n".join(sigma_lines)))
    if verb == ("meetirr",):
        got = ora.parse_sets(inst.index, out)
        if not all(ora.is_meet_irreducible(op, m) for m in got):
            return False
        have = set(got)
        rng = random.Random(n)
        return all(
            s in have for s in ora.sample_closed(op, n, rng, 48) if ora.is_meet_irreducible(op, s)
        )
    if verb == ("keys",):
        got = set(ora.parse_sets(inst.index, out))
        if not all(ora.is_minimal_key(op, k) for k in got):
            return False
        rng = random.Random(n)
        return all(ora.shrink_key(op, op.full, _shuffled(rng, n)) in got for _ in range(16))
    if verb == ("enumerate", "--lectic"):
        sets = ora.parse_sets(inst.index, out)
        if len(set(sets)) != len(sets):
            return False
        # lectic order: the smallest position is the most significant bit
        keys = [int(format(s, f"0{n}b")[::-1], 2) for s in sets]
        if keys != sorted(keys):
            return False
        if not all(op.close(s) == s for s in sets[:: max(1, len(sets) // 400)]):
            return False
        return len(sets) == int(inst.answer(("count",)).strip())
    raise ValueError(verb)


ROWS_VERBS = (
    ("count",),
    ("enumerate",),
    ("enumerate", "--expand"),
    ("enumerate", "--gamma"),
    ("sat", "--gamma"),
    ("compress", "--gamma"),
)
MODEL_VERBS = {
    "rows": ROWS_VERBS,
    "lattice": (("meetirr",), ("keys",)),
    "lectic": (("enumerate", "--lectic"),),
}


def _models_ops(inst: ModelsInstance, name: str, verbs) -> list[Op]:
    ops = []
    for verb in verbs:
        argv = [verb[0], "--sigma", inst.path]
        if "--gamma" in verb:
            argv += ["--gamma", inst.gamma_path, *[v for v in verb[1:] if v != "--gamma"]]
        else:
            argv += list(verb[1:])
        ops.append(
            Op(f"{name}/{' '.join(verb)}", _run_cli(argv),
               lambda out, v=verb: _check_models(inst, v, out))
        )
    return ops


def _dual_check(edges: list[int], n: int, out: str) -> bool:
    got = set(ora.parse_sets(ora.index_of(n), out))
    if not all(ora.is_minimal_transversal(edges, t) for t in got):
        return False
    rng = random.Random(n)
    full = (1 << n) - 1
    return all(ora.shrink_transversal(edges, full, _shuffled(rng, n)) in got for _ in range(16))


def _shuffled(rng: random.Random, n: int) -> list[int]:
    order = list(range(n))
    rng.shuffle(order)
    return order


def models(seed: int, scale: str, workdir: Path) -> Workload:
    """cli.main model verbs: 012n rows, lattice verbs, lectic enumeration,
    dualization."""
    z = SIZES[scale]
    rng = random.Random(seed)
    paths: list[Path] = []
    classes = []
    for tag, n, m, prem_sizes, count, weight in z["models"]:
        verbs = MODEL_VERBS[tag]
        ops: list[Op] = []
        for i in range(count):
            pairs = gen.unit_horn(rng, n, m, prem_sizes)
            gamma = gen.complications(rng, n, max(2, n // 5), 3, 6)
            path = _write(workdir, f"{tag}-n{n}-{i}.imp", gen.render_sigma(n, pairs))
            gpath = _write(workdir, f"{tag}-n{n}-{i}.gamma.fam", gen.render_family(n, gamma))
            paths.extend((path, gpath))
            inst = ModelsInstance(n, path, pairs, gamma, gpath)
            # one verb per theory, rotating, as in bases
            ops.extend(_models_ops(inst, path.name, [verbs[i % len(verbs)]]))
        classes.append((tag, weight, ops))
    n, k, lo, hi, count, weight = z["dual"]
    ops = []
    for i in range(count):
        edges = gen.hypergraph(rng, n, k, lo, hi)
        path = _write(workdir, f"hyper-n{n}-{i}.fam", gen.render_family(n, edges))
        paths.append(path)
        ops.append(
            Op(f"{path.name}/dualize", _run_cli(["dualize", "--family", str(path)]),
               lambda out, e=edges, n=n: _dual_check(e, n, out))
        )
    classes.append(("dualize", weight, ops))
    return Workload("models", _loader(paths), classes)


WORKLOADS = {"query-stream": query_stream, "bases": bases, "models": models}
