"""Run-time tracing of hornkit's layers, from the benchmark's side.

``Tracer.install`` swaps chosen public functions and methods of each
hornkit module for timing wrappers and puts the originals back on
``uninstall``; nothing under ``src/`` is edited. A wrapped function is
replaced in every hornkit namespace that binds it, so calls between
modules (``from .closure import Closure`` and the like) are traced too.

Layer boundaries record spans: name, start, end, parent span, op id. Hot
inner calls (closure lookups, set rendering) only bump counters, which
keeps the traced run within a small factor of the untraced one. Spans
stay in memory and are written out by the runner when the run ends.
"""

from __future__ import annotations

import functools
import sys
import time

LAYERS = ("core", "closure", "canonical", "direct", "primes", "dualize", "rows", "cli")

#: module -> public functions traced as spans
SPANNED = {
    "core": ("load_implications", "load_family", "parse_universe", "parse_implications",
             "parse_family", "measures", "unit_expand", "aggregate", "normalize"),
    "closure": ("close", "close_family", "close_trace", "entails", "equivalent", "is_closed",
                "quasiclosure", "step"),
    "canonical": ("pseudoclosed_sets", "gd_base", "remove_redundancy", "trim_conclusions",
                  "shock_minimize", "is_minimum"),
    "direct": ("stem_table", "canonical_direct", "classify_stems", "d_basis", "ordered_close"),
    "primes": ("clauses_of", "implications_of", "consensus_closure", "unit_primes",
               "is_prime_implicate", "is_acyclic", "acyclic_base"),
    "dualize": ("minimal_transversals", "max_noncovers", "max_noncover_table",
                "meet_irreducibles", "stems_from_meetirr", "cmax_from_stems", "minimal_keys"),
    "rows": ("impose_implication", "impose_complication", "enumerate_compact", "count",
             "to_012", "enumerate_horn", "horn_satisfiable", "near_minimum_base"),
    "cli": ("main",),
}

#: (module, class, method, span name)
SPANNED_METHODS = (
    ("closure", "Closure", "from_sigma", "closure.compile"),
    ("closure", "Closure", "from_family", "closure.compile"),
    ("primes", "ImplicationGraph", "find_cycle", "primes.find_cycle"),
)

#: rendering methods: counted (time and lines), outermost call only
RENDERERS = (
    ("core", "AttrSet", lambda self: 1),
    ("core", "ImplicationSet", lambda self: len(self.items)),
    ("core", "SetFamily", lambda self: len(self.sets)),
    ("rows", "RowSystem", lambda self: len(self.rows)),
    ("direct", "OrderedBase", lambda self: len(self.items)),
)

PARSE_SPANS = ("core.load_implications", "core.load_family", "core.parse_universe",
               "core.parse_implications", "core.parse_family")

#: metric name -> unit, better; every per-layer metric the traced run reports
METRICS = {
    "closure.compile_s": ("s", "lower"),
    "closure.compiles": ("count", "lower"),
    "closure.kernel_s": ("s", "lower"),
    "closure.kernel_evals": ("count", "lower"),
    "closure.lookups": ("count", "lower"),
    "closure.memo_hit_ratio": ("ratio", "higher"),
    "closure.memo_entries_max": ("count", "lower"),
    "closure.lectic_sets": ("count", "higher"),
    "canonical.pseudoclosed_s": ("s", "lower"),
    "canonical.closure_lookups": ("count", "lower"),
    "canonical.pseudoclosed_found": ("count", "higher"),
    "canonical.pseudoclosed_yield": ("ratio", "higher"),
    "canonical.redundancy_s": ("s", "lower"),
    "canonical.redundancy_candidates": ("count", "lower"),
    "direct.stem_table_s": ("s", "lower"),
    "direct.closure_lookups": ("count", "lower"),
    "direct.stems_found": ("count", "higher"),
    "direct.stem_yield": ("ratio", "higher"),
    "direct.d_basis_s": ("s", "lower"),
    "primes.consensus_s": ("s", "lower"),
    "primes.clauses_in": ("count", "lower"),
    "primes.primes_out": ("count", "higher"),
    "primes.cycle_s": ("s", "lower"),
    "rows.impose_s": ("s", "lower"),
    "rows.impose_calls": ("count", "lower"),
    "rows.rows_peak": ("count", "lower"),
    "rows.rows_out": ("count", "lower"),
    "rows.models_out": ("count", "higher"),
    "rows.compression_ratio": ("ratio", "higher"),
    "rows.to_012_s": ("s", "lower"),
    "rows.expand_ratio": ("ratio", "lower"),
    "dualize.mtr_s": ("s", "lower"),
    "dualize.mtr_edges": ("count", "lower"),
    "dualize.mtr_out": ("count", "higher"),
    "dualize.max_noncover_s": ("s", "lower"),
    "dualize.meetirr_out": ("count", "higher"),
    "core.parse_s": ("s", "lower"),
    "core.parse_lines": ("count", "higher"),
    "core.render_s": ("s", "lower"),
    "core.render_lines": ("count", "higher"),
    "cli.self_s": ("s", "lower"),
    "cli.import_ms": ("ms", "lower"),
    "trace.overhead_ratio": ("ratio", "lower"),
}


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


class Tracer:
    """Spans and counters of one traced pass; ``reset`` starts the next."""

    def __init__(self):
        self.spans: list[tuple[str, float, float, int, str]] = []
        self.op_id = "setup"
        #: (target, attribute, original, wrapper), built by the first install
        self._plan: list[tuple[object, str, object, object]] = []
        self.reset()

    def reset(self) -> None:
        self.first_span = len(self.spans)
        self._stack: list[int] = []
        self.active: dict[str, int] = {}
        self.c: dict[str, float] = {}
        self._render_depth = 0

    def bump(self, key: str, by: float = 1) -> None:
        self.c[key] = self.c.get(key, 0) + by

    # -- installation ---------------------------------------------------------

    def install(self) -> None:
        if not self._plan:
            self._build_plan()  # swaps as it goes
            return
        for target, attr, _, new in self._plan:
            setattr(target, attr, new)

    def uninstall(self) -> None:
        for target, attr, orig, _ in reversed(self._plan):
            setattr(target, attr, orig)

    def _build_plan(self) -> None:
        import hornkit

        mods = {name: sys.modules[f"hornkit.{name}"] for name in LAYERS}
        namespaces = [hornkit, *[m for k, m in sys.modules.items()
                                 if k.startswith("hornkit.") and m is not None]]

        def rebind(orig, wrapped) -> None:
            for ns in namespaces:
                for attr, val in list(vars(ns).items()):
                    if val is orig:
                        self._swap(ns, attr, wrapped)

        for layer, names in SPANNED.items():
            for fname in names:
                orig = getattr(mods[layer], fname)
                rebind(orig, self._span(f"{layer}.{fname}", orig))
        for layer, cls_name, meth, span in SPANNED_METHODS:
            cls = getattr(mods[layer], cls_name)
            raw = cls.__dict__[meth]
            if isinstance(raw, classmethod):
                self._swap(cls, meth, classmethod(self._span(span, raw.__func__)))
            else:
                self._swap(cls, meth, self._span(span, raw))
        closure_cls = mods["closure"].Closure
        self._swap(closure_cls, "of_mask", self._lookup(closure_cls.__dict__["of_mask"]))
        lectic = mods["closure"].enumerate_closed_lectic
        rebind(lectic, self._counted_iter("closure.lectic_sets", lectic))
        for layer, cls_name, lines in RENDERERS:
            cls = getattr(mods[layer], cls_name)
            self._swap(cls, "render", self._render(cls.__dict__["render"], lines))

    def _swap(self, target, attr: str, new) -> None:
        orig = target.__dict__[attr] if isinstance(target, type) else getattr(target, attr)
        self._plan.append((target, attr, orig, new))
        setattr(target, attr, new)

    # -- wrappers ---------------------------------------------------------------

    def _span(self, name: str, fn):
        tracer = self
        post = _POST.get(name)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            stack = tracer._stack
            parent = stack[-1] if stack else -1
            idx = len(tracer.spans)
            tracer.spans.append((name, 0.0, 0.0, parent, tracer.op_id))
            stack.append(idx)
            active = tracer.active
            active[name] = active.get(name, 0) + 1
            t0 = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = time.perf_counter()
                stack.pop()
                active[name] -= 1
                tracer.spans[idx] = (name, t0, t1, parent, tracer.op_id)
            if post is not None and active[name] == 0:
                post(tracer, args, kwargs, result)
            return result

        return wrapper

    def _lookup(self, of_mask):
        tracer = self

        @functools.wraps(of_mask)
        def wrapper(self, mask):
            c = tracer.c
            c["closure.lookups"] = c.get("closure.lookups", 0) + 1
            active = tracer.active
            if active.get("canonical.pseudoclosed_sets"):
                tracer.bump("canonical.closure_lookups")
            if active.get("direct.stem_table"):
                tracer.bump("direct.closure_lookups")
            if mask in self._memo:
                c["closure.memo_hits"] = c.get("closure.memo_hits", 0) + 1
                return of_mask(self, mask)
            t0 = time.perf_counter()
            got = of_mask(self, mask)
            c["closure.kernel_s"] = c.get("closure.kernel_s", 0) + time.perf_counter() - t0
            c["closure.kernel_evals"] = c.get("closure.kernel_evals", 0) + 1
            if len(self._memo) > c.get("closure.memo_entries_max", 0):
                c["closure.memo_entries_max"] = len(self._memo)
            return got

        return wrapper

    def _counted_iter(self, key: str, gen_fn):
        tracer = self

        @functools.wraps(gen_fn)
        def wrapper(*args, **kwargs):
            for item in gen_fn(*args, **kwargs):
                tracer.bump(key)
                yield item

        return wrapper

    def _render(self, render, lines):
        tracer = self

        @functools.wraps(render)
        def wrapper(self):
            if tracer._render_depth:
                return render(self)
            tracer._render_depth = 1
            t0 = time.perf_counter()
            try:
                return render(self)
            finally:
                tracer.bump("core.render_s", time.perf_counter() - t0)
                tracer.bump("core.render_lines", lines(self))
                tracer._render_depth = 0

        return wrapper

    # -- metrics ----------------------------------------------------------------

    def metrics(self) -> dict[str, float]:
        """Per-layer metrics of the spans and counters since ``reset``."""
        spans = self.spans[self.first_span:]
        base = self.first_span
        inclusive: dict[str, float] = {}
        child_time = [0.0] * len(spans)
        for i, (name, t0, t1, parent, _) in enumerate(spans):
            if parent >= base:
                child_time[parent - base] += t1 - t0
            # count a span only when no ancestor has the same name
            p = parent
            nested = False
            while p >= base:
                if spans[p - base][0] == name:
                    nested = True
                    break
                p = spans[p - base][3]
            if not nested:
                inclusive[name] = inclusive.get(name, 0.0) + t1 - t0
        cli_self = sum(t1 - t0 - child_time[i] for i, (name, t0, t1, _, _) in enumerate(spans)
                       if name == "cli.main")
        parse_s = 0.0
        for i, (name, t0, t1, parent, _) in enumerate(spans):
            if name in PARSE_SPANS and (parent < base or spans[parent - base][0] not in PARSE_SPANS):
                parse_s += t1 - t0
        compiles = sum(1 for s in spans if s[0] == "closure.compile")
        c = self.c
        g = c.get
        return {
            "closure.compile_s": inclusive.get("closure.compile", 0.0),
            "closure.compiles": compiles,
            "closure.kernel_s": g("closure.kernel_s", 0.0),
            "closure.kernel_evals": g("closure.kernel_evals", 0),
            "closure.lookups": g("closure.lookups", 0),
            "closure.memo_hit_ratio": _ratio(g("closure.memo_hits", 0), g("closure.lookups", 0)),
            "closure.memo_entries_max": g("closure.memo_entries_max", 0),
            "closure.lectic_sets": g("closure.lectic_sets", 0),
            "canonical.pseudoclosed_s": inclusive.get("canonical.pseudoclosed_sets", 0.0),
            "canonical.closure_lookups": g("canonical.closure_lookups", 0),
            "canonical.pseudoclosed_found": g("canonical.pseudoclosed_found", 0),
            "canonical.pseudoclosed_yield": _ratio(g("canonical.pseudoclosed_found", 0),
                                                   g("canonical.closure_lookups", 0)),
            "canonical.redundancy_s": inclusive.get("canonical.remove_redundancy", 0.0),
            "canonical.redundancy_candidates": g("canonical.redundancy_candidates", 0),
            "direct.stem_table_s": inclusive.get("direct.stem_table", 0.0),
            "direct.closure_lookups": g("direct.closure_lookups", 0),
            "direct.stems_found": g("direct.stems_found", 0),
            "direct.stem_yield": _ratio(g("direct.stems_found", 0), g("direct.closure_lookups", 0)),
            "direct.d_basis_s": inclusive.get("direct.d_basis", 0.0),
            "primes.consensus_s": inclusive.get("primes.consensus_closure", 0.0),
            "primes.clauses_in": g("primes.clauses_in", 0),
            "primes.primes_out": g("primes.primes_out", 0),
            "primes.cycle_s": inclusive.get("primes.find_cycle", 0.0),
            "rows.impose_s": inclusive.get("rows.impose_implication", 0.0)
            + inclusive.get("rows.impose_complication", 0.0),
            "rows.impose_calls": g("rows.impose_calls", 0),
            "rows.rows_peak": g("rows.rows_peak", 0),
            "rows.rows_out": g("rows.rows_out", 0),
            "rows.models_out": g("rows.models_out", 0),
            "rows.compression_ratio": _ratio(g("rows.models_out", 0), g("rows.rows_out", 0)),
            "rows.to_012_s": inclusive.get("rows.to_012", 0.0),
            "rows.expand_ratio": _ratio(g("rows.expand_out", 0), g("rows.expand_in", 0)),
            "dualize.mtr_s": inclusive.get("dualize.minimal_transversals", 0.0),
            "dualize.mtr_edges": g("dualize.mtr_edges", 0),
            "dualize.mtr_out": g("dualize.mtr_out", 0),
            "dualize.max_noncover_s": inclusive.get("dualize.max_noncover_table", 0.0)
            + inclusive.get("dualize.max_noncovers", 0.0),
            "dualize.meetirr_out": g("dualize.meetirr_out", 0),
            "core.parse_s": parse_s,
            "core.parse_lines": g("core.parse_lines", 0),
            "core.render_s": g("core.render_s", 0.0),
            "core.render_lines": g("core.render_lines", 0),
            "cli.self_s": cli_self,
        }


# -- counters taken from arguments and results, outermost call only -----------------


def _impose(t: Tracer, args, kwargs, result) -> None:
    t.bump("rows.impose_calls")
    if len(result.rows) > t.c.get("rows.rows_peak", 0):
        t.c["rows.rows_peak"] = len(result.rows)


def _enumerated(t: Tracer, args, kwargs, result) -> None:
    if t.active.get("rows.enumerate_horn") or t.active.get("rows.enumerate_compact"):
        return  # enumerate_horn's inner enumerate_compact
    t.bump("rows.rows_out", len(result.rows))
    t.bump("rows.models_out", result.count())


def _parsed(t: Tracer, args, kwargs, result) -> None:
    t.bump("core.parse_lines", len(result))


_POST = {
    "canonical.pseudoclosed_sets":
        lambda t, a, k, r: t.bump("canonical.pseudoclosed_found", len(r.pseudoclosed)),
    "canonical.remove_redundancy":
        lambda t, a, k, r: t.bump("canonical.redundancy_candidates", len(a[0])),
    "direct.stem_table":
        lambda t, a, k, r: t.bump("direct.stems_found", sum(len(f) for f in r.stems_of.values())),
    "primes.consensus_closure": lambda t, a, k, r: (t.bump("primes.clauses_in", len(a[0])),
                                                    t.bump("primes.primes_out", len(r))),
    "rows.impose_implication": _impose,
    "rows.impose_complication": _impose,
    "rows.enumerate_compact": _enumerated,
    "rows.enumerate_horn": _enumerated,
    "rows.to_012": lambda t, a, k, r: (t.bump("rows.expand_in", len(a[0].rows)),
                                       t.bump("rows.expand_out", len(r.rows))),
    "dualize.minimal_transversals": lambda t, a, k, r: (t.bump("dualize.mtr_edges", len(a[0])),
                                                        t.bump("dualize.mtr_out", len(r))),
    "dualize.meet_irreducibles": lambda t, a, k, r: t.bump("dualize.meetirr_out", len(r)),
    "core.parse_implications": _parsed,
    "core.parse_family": _parsed,
}
