"""Command-line front door: parse inputs, dispatch to the library, render
deterministic text output.

Exit codes: 0 success, 1 domain error (parse failure, universe mismatch,
a stem search or quasiclosure over its size limit, ...), 2 usage error
(also for flags that exclude each other).
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

from . import canonical, closure, core, direct, dualize, primes, rows
from .core import ImplicationSet, SetFamily, Universe
from .errors import HornkitError, UniverseMismatchError


def _read(path: str) -> str:
    # utf-8-sig also reads files that start with a byte-order mark
    try:
        return Path(path).read_text(encoding="utf-8-sig")
    except (OSError, UnicodeDecodeError) as exc:
        raise HornkitError(f"cannot read {path}: {exc}")


def _load_source(args) -> tuple[Universe, ImplicationSet | SetFamily]:
    if getattr(args, "sigma", None):
        universe, sigma = core.load_implications(_read(args.sigma))
        return universe, sigma
    if getattr(args, "family", None):
        universe, family = core.load_family(_read(args.family))
        return universe, family
    raise HornkitError("need --sigma or --family input")


def _load_sigma(args) -> tuple[Universe, ImplicationSet]:
    if not getattr(args, "sigma", None):
        raise HornkitError("this verb needs --sigma input")
    return core.load_implications(_read(args.sigma))


def _load_gamma(args, universe: Universe) -> SetFamily:
    if not getattr(args, "gamma", None):
        return SetFamily(universe, ())
    g_universe, fam = core.load_family(_read(args.gamma))
    if g_universe != universe:
        raise UniverseMismatchError("--gamma universe differs from the input's")
    return fam


def _element(label: str, universe: Universe) -> int:
    pos = universe.index.get(label)
    if pos is None:
        raise HornkitError(f"unknown element {label!r}")
    return pos


def _print_set(s) -> None:
    print(s.render() or "-")


def _print_family(fam: SetFamily) -> None:
    out = fam.canonical().render()
    if out:
        print(out)


def _print_sigma(sigma: ImplicationSet) -> None:
    out = sigma.render()
    if out:
        print(out)


def _cmd_close(args) -> None:
    universe, source = _load_source(args)
    s = universe.parse_set(args.set)
    if args.quasi:
        _print_set(closure.quasiclosure(source, s))
        return
    if isinstance(source, SetFamily):
        if args.one_step or args.trace:
            raise HornkitError("--one-step/--trace need a --sigma input")
        if args.layout != "auto":
            raise HornkitError("--layout needs a --sigma input")
        _print_set(closure.close_family(source, s))
        return
    if args.one_step:
        _print_set(closure.step(source, s))
    elif args.trace:
        for r in closure.close_trace(source, s).rounds:
            _print_set(r)
    else:
        _print_set(closure.close(source, s, layout=args.layout))


def _cmd_entails(args) -> None:
    universe, sigma = _load_sigma(args)
    query = core.parse_implication(args.query, universe)
    print("true" if closure.entails(sigma, query) else "false")


def _cmd_equiv(args) -> None:
    universe, sigma = _load_sigma(args)
    universe2, sigma2 = core.load_implications(_read(args.sigma2))
    if universe2 != universe:
        raise UniverseMismatchError("the two families use different universes")
    print("true" if closure.equivalent(sigma, sigma2) else "false")


def _cmd_base_gd(args) -> None:
    universe, source = _load_source(args)
    if args.pseudoclosed or args.core:
        report = canonical.pseudoclosed_sets(source)
        _print_family(report.essential_closures if args.core else report.pseudoclosed)
        return
    base = canonical.gd_base(source)
    if args.trim:
        base = canonical.trim_conclusions(base)
    _print_sigma(base)


def _cmd_base_direct(args) -> None:
    universe, source = _load_source(args)
    if args.classify:
        table = direct.stem_table(source)
        for stem, cls in direct.classify_stems(table, source).items():
            kind = "strong" if cls.strong else "plain"
            mins = cls.closure_minimal_for.render() or "-"
            print(f"{stem.render() or '-'}: {kind} closure-minimal-for: {mins}")
        return
    _print_sigma(direct.canonical_direct(source))


def _cmd_base_dbasis(args) -> None:
    if args.verify and args.close_set is None:
        args.usage_error("--verify needs --close-set")
    universe, source = _load_source(args)
    ordered = direct.d_basis(source)
    if args.close_set is not None:
        s = universe.parse_set(args.close_set)
        _print_set(direct.ordered_close(ordered, s, verify=args.verify))
        return
    if ordered.items:
        print(ordered.render())


def _cmd_minimize(args) -> None:
    universe, sigma = _load_sigma(args)
    if args.check:
        print("true" if canonical.is_minimum(sigma) else "false")
        return
    if args.unit_expand:
        _print_sigma(core.unit_expand(sigma))
        return
    if args.aggregate:
        _print_sigma(core.aggregate(sigma))
        return
    if args.redundancy_only:
        _print_sigma(canonical.remove_redundancy(sigma))
        return
    _print_sigma(canonical.shock_minimize(sigma, trim=args.trim))


def _cmd_primes(args) -> None:
    universe, sigma = _load_sigma(args)
    if args.check is not None:
        query = core.parse_implication(args.check, universe)
        print("true" if primes.is_prime_implicate(sigma, query) else "false")
        return
    _print_sigma(primes.unit_primes(sigma))


def _cmd_acyclic(args) -> None:
    universe, sigma = _load_sigma(args)
    if args.base:
        _print_sigma(primes.acyclic_base(sigma))
        return
    ok, cycle = primes.is_acyclic(sigma)
    if ok:
        print("true")
    else:
        walk = " -> ".join(universe.labels[p] for p in cycle)
        print(f"false  cycle: {walk}")


def _cmd_meetirr(args) -> None:
    universe, source = _load_source(args)
    if args.element is not None:
        _print_family(dualize.max_noncovers(source, _element(args.element, universe)))
        return
    _print_family(dualize.meet_irreducibles(source, method=args.method or "rows"))


def _cmd_stems(args) -> None:
    if args.via_dualization and args.element is None:
        args.usage_error("--via-dualization needs --element")
    universe, source = _load_source(args)
    if args.via_dualization:
        if not isinstance(source, SetFamily):
            raise HornkitError("--via-dualization needs a --family input")
        _print_family(dualize.stems_from_meetirr(source, _element(args.element, universe)))
        return
    table = direct.stem_table(source)
    if args.element is not None:
        _print_family(table.stems_of[_element(args.element, universe)])
        return
    for pos in range(universe.size):
        for stem in table.stems_of[pos].canonical():
            print(f"{universe.labels[pos]}: {stem.render() or '-'}")


def _cmd_dualize(args) -> None:
    if args.cmax_of is not None:
        universe, source = _load_source(args)
        table = direct.stem_table(source)
        _print_family(dualize.cmax_from_stems(table, _element(args.cmax_of, universe)))
        return
    if not args.family:
        raise HornkitError("dualize needs a --family input")
    universe, fam = core.load_family(_read(args.family))
    _print_family(dualize.minimal_transversals(fam))


def _cmd_keys(args) -> None:
    universe, source = _load_source(args)
    _print_family(dualize.minimal_keys(source))


def _horn_system(args) -> rows.HornSystem:
    universe, sigma = _load_sigma(args)
    gamma = _load_gamma(args, universe)
    return rows.HornSystem(sigma, gamma)


def _cmd_enumerate(args) -> None:
    if args.lectic:
        if args.expand or args.materialize:
            args.usage_error("--lectic cannot be combined with --expand or --materialize")
        if args.gamma:
            listing = rows.enumerate_horn_lectic(_horn_system(args))
        else:
            universe, source = _load_source(args)
            listing = closure.enumerate_closed_lectic(source)
        for s in listing:
            _print_set(s)
        return
    h = _horn_system(args)
    system = rows.enumerate_horn(h)
    if args.expand:
        system = rows.to_012(system)
    if args.materialize:
        fam = SetFamily(h.universe, tuple(system.members()))
        _print_family(fam)
        return
    out = system.render()
    if out:
        print(out)


def _cmd_count(args) -> None:
    h = _horn_system(args)
    print(rows.count(h))


def _cmd_sat(args) -> None:
    h = _horn_system(args)
    ok, witness = rows.horn_satisfiable(h)
    if ok:
        print("satisfiable")
        if args.format == "text":
            print(f"witness: {witness.render() or '-'}")
        else:
            _print_set(witness)
    else:
        print("unsatisfiable")


def _cmd_compress(args) -> None:
    h = _horn_system(args)
    out = rows.near_minimum_base(h)
    _print_sigma(out.sigma)
    for aset in out.gamma.canonical():
        print(f"! {aset.render() or '-'}")


def _cmd_measures(args) -> None:
    universe, sigma = _load_sigma(args)
    m = core.measures(sigma)
    print(f"ca={m.ca} s={m.s} lhs={m.lhs} rhs={m.rhs}")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="hornkit",
        description="closure systems, implication bases, and Horn toolbox",
    )
    sub = parser.add_subparsers(dest="verb", required=True)

    def add(name: str, fn):
        p = sub.add_parser(name)
        # usage_error prints the verb's usage and exits 2, as argparse does
        p.set_defaults(fn=fn, usage_error=p.error)
        return p

    p = add("close", _cmd_close)
    p.add_argument("--sigma")
    p.add_argument("--family")
    p.add_argument("--set", required=True)
    p.add_argument("--layout", choices=("auto", "row", "column"), default="auto")
    g = p.add_mutually_exclusive_group()
    g.add_argument("--quasi", action="store_true")
    g.add_argument("--one-step", dest="one_step", action="store_true")
    g.add_argument("--trace", action="store_true")

    p = add("entails", _cmd_entails)
    p.add_argument("--sigma", required=True)
    p.add_argument("--query", required=True)

    p = add("equiv", _cmd_equiv)
    p.add_argument("--sigma", required=True)
    p.add_argument("--sigma2", required=True)

    p = add("base-gd", _cmd_base_gd)
    p.add_argument("--sigma")
    p.add_argument("--family")
    g = p.add_mutually_exclusive_group()
    g.add_argument("--pseudoclosed", action="store_true")
    g.add_argument("--core", action="store_true")
    g.add_argument("--trim", action="store_true")

    p = add("base-direct", _cmd_base_direct)
    p.add_argument("--sigma")
    p.add_argument("--family")
    p.add_argument("--classify", action="store_true")

    p = add("base-dbasis", _cmd_base_dbasis)
    p.add_argument("--sigma")
    p.add_argument("--family")
    p.add_argument("--close-set", dest="close_set")
    p.add_argument("--verify", action="store_true")

    p = add("minimize", _cmd_minimize)
    p.add_argument("--sigma", required=True)
    g = p.add_mutually_exclusive_group()
    g.add_argument("--trim", action="store_true")
    g.add_argument("--redundancy-only", dest="redundancy_only", action="store_true")
    g.add_argument("--check", action="store_true")
    g.add_argument("--unit-expand", dest="unit_expand", action="store_true")
    g.add_argument("--aggregate", action="store_true")

    p = add("primes", _cmd_primes)
    p.add_argument("--sigma", required=True)
    p.add_argument("--check")

    p = add("acyclic", _cmd_acyclic)
    p.add_argument("--sigma", required=True)
    p.add_argument("--base", action="store_true")

    p = add("meetirr", _cmd_meetirr)
    p.add_argument("--sigma")
    p.add_argument("--family")
    g = p.add_mutually_exclusive_group()
    g.add_argument("--method", choices=("rows", "brute"))
    g.add_argument("--element")

    p = add("stems", _cmd_stems)
    p.add_argument("--sigma")
    p.add_argument("--family")
    p.add_argument("--element")
    p.add_argument("--via-dualization", dest="via_dualization", action="store_true")

    p = add("dualize", _cmd_dualize)
    p.add_argument("--family")
    p.add_argument("--sigma")
    p.add_argument("--cmax-of", dest="cmax_of")

    p = add("keys", _cmd_keys)
    p.add_argument("--sigma")
    p.add_argument("--family")

    p = add("enumerate", _cmd_enumerate)
    p.add_argument("--sigma")
    p.add_argument("--family")
    p.add_argument("--gamma")
    p.add_argument("--expand", action="store_true")
    p.add_argument("--materialize", action="store_true")
    p.add_argument("--lectic", action="store_true")

    p = add("count", _cmd_count)
    p.add_argument("--sigma", required=True)
    p.add_argument("--gamma")

    p = add("sat", _cmd_sat)
    p.add_argument("--sigma", required=True)
    p.add_argument("--gamma")
    p.add_argument("--format", choices=("text", "lines"), default="text")

    p = add("compress", _cmd_compress)
    p.add_argument("--sigma", required=True)
    p.add_argument("--gamma")

    p = add("measures", _cmd_measures)
    p.add_argument("--sigma", required=True)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        args.fn(args)
    except HornkitError as exc:
        print(f"hornkit: {exc}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
