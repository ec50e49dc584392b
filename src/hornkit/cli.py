"""Command-line front door: parse inputs, dispatch to the library, render
deterministic text output.

Each verb declares the input it reads when ``build_parser`` adds it:
``"sigma"`` (an implication file), ``"horn"`` (that file plus an optional
``--gamma`` family of negative clauses) or ``"source"`` (``--sigma`` or
``--family``, never both). ``main`` loads ``--sigma`` or ``--family`` once
and passes the universe and the loaded source to the verb's handler.
``--gamma`` is read by the one ``HornSystem`` builder, and only ``equiv``
reads a further file itself (``--sigma2``).

Exit codes: 0 success, 1 domain error (parse failure, universe mismatch,
a stem search or quasiclosure over its size limit, ...), 2 usage error
(also for flags that exclude each other). A reader that closes stdout
early (``hornkit ... | head -1``) also gives exit 1, with no traceback:
as the Python ``signal`` documentation recommends for ``BrokenPipeError``,
stdout is then pointed at ``os.devnull`` so the flush at shutdown stays
silent.
"""

from __future__ import annotations

import argparse
import os
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


def _load(args) -> tuple[Universe, ImplicationSet | SetFamily]:
    if args.sigma:
        return core.load_implications(_read(args.sigma))
    if args.family:
        return core.load_family(_read(args.family))
    raise HornkitError("need --sigma or --family input")


def _horn_system(args, universe: Universe, source) -> rows.HornSystem:
    if not isinstance(source, ImplicationSet):
        raise HornkitError("this verb needs --sigma input")
    gamma = SetFamily(universe, ())
    if args.gamma:
        g_universe, gamma = core.load_family(_read(args.gamma))
        if g_universe != universe:
            raise UniverseMismatchError("--gamma universe differs from the input's")
    return rows.HornSystem(source, gamma)


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


def _cmd_close(args, universe, source) -> None:
    s = universe.parse_set(args.set)
    if args.quasi:
        _print_set(closure.quasiclosure(source, s))
        return
    if isinstance(source, SetFamily):
        if args.one_step or args.trace:
            raise HornkitError("--one-step/--trace need a --sigma input")
        _print_set(closure.close_family(source, s))
        return
    if args.one_step:
        _print_set(closure.step(source, s))
    elif args.trace:
        for r in closure.close_trace(source, s).rounds:
            _print_set(r)
    else:
        _print_set(closure.close(source, s))


def _cmd_entails(args, universe, sigma) -> None:
    query = core.parse_implication(args.query, universe)
    print("true" if closure.entails(sigma, query) else "false")


def _cmd_equiv(args, universe, sigma) -> None:
    universe2, sigma2 = core.load_implications(_read(args.sigma2))
    if universe2 != universe:
        raise UniverseMismatchError("the two families use different universes")
    print("true" if closure.equivalent(sigma, sigma2) else "false")


def _cmd_base_gd(args, universe, source) -> None:
    if args.pseudoclosed or args.core:
        report = canonical.pseudoclosed_sets(source)
        _print_family(report.essential_closures if args.core else report.pseudoclosed)
        return
    base = canonical.gd_base(source)
    if args.trim:
        base = canonical.trim_conclusions(base)
    _print_sigma(base)


def _cmd_base_direct(args, universe, source) -> None:
    if args.classify:
        table = direct.stem_table(source)
        for stem, cls in direct.classify_stems(table, source).items():
            kind = "strong" if cls.strong else "plain"
            mins = cls.closure_minimal_for.render() or "-"
            print(f"{stem.render() or '-'}: {kind} closure-minimal-for: {mins}")
        return
    _print_sigma(direct.canonical_direct(source))


def _cmd_base_dbasis(args, universe, source) -> None:
    ordered = direct.d_basis(source)
    if args.close_set is not None:
        s = universe.parse_set(args.close_set)
        _print_set(direct.ordered_close(ordered, s, verify=True))
        return
    if ordered.items:
        print(ordered.render())


def _cmd_minimize(args, universe, sigma) -> None:
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
    base = canonical.shock_minimize(sigma)
    if args.trim:
        base = canonical.trim_conclusions(base)
    _print_sigma(base)


def _cmd_primes(args, universe, sigma) -> None:
    if args.check is not None:
        query = core.parse_implication(args.check, universe)
        print("true" if primes.is_prime_implicate(sigma, query) else "false")
        return
    _print_sigma(primes.unit_primes(sigma))


def _cmd_acyclic(args, universe, sigma) -> None:
    if args.base:
        _print_sigma(primes.acyclic_base(sigma))
        return
    ok, cycle = primes.is_acyclic(sigma)
    if ok:
        print("true")
    else:
        walk = " -> ".join(universe.labels[p] for p in cycle)
        print(f"false  cycle: {walk}")


def _cmd_meetirr(args, universe, source) -> None:
    if args.element is not None:
        _print_family(dualize.max_noncovers(source, _element(args.element, universe)))
        return
    _print_family(dualize.meet_irreducibles(source))


def _cmd_stems(args, universe, source) -> None:
    if args.element is not None and isinstance(source, SetFamily):
        # one element of a family: mtr(cmax(F,e)), with no stem-search limit
        _print_family(dualize.stems_from_meetirr(source, _element(args.element, universe)))
        return
    table = direct.stem_table(source)
    if args.element is not None:
        _print_family(table.stems_of[_element(args.element, universe)])
        return
    for pos in range(universe.size):
        for stem in table.stems_of[pos].canonical():
            print(f"{universe.labels[pos]}: {stem.render() or '-'}")


def _cmd_dualize(args, universe, source) -> None:
    if args.cmax_of is not None:
        # cmax(F,e): the complements of max(F,e), with no stem-search limit
        maxes = dualize.max_noncovers(source, _element(args.cmax_of, universe))
        _print_family(SetFamily(universe, tuple(s.complement() for s in maxes)))
        return
    if not isinstance(source, SetFamily):
        raise HornkitError("dualize needs a --family input")
    _print_family(dualize.minimal_transversals(source))


def _cmd_keys(args, universe, source) -> None:
    _print_family(dualize.minimal_keys(source))


def _cmd_enumerate(args, universe, source) -> None:
    if args.lectic:
        if args.gamma:
            listing = rows.enumerate_horn_lectic(_horn_system(args, universe, source))
        else:
            listing = closure.enumerate_closed_lectic(source)
        for s in listing:
            _print_set(s)
        return
    system = rows.enumerate_horn(_horn_system(args, universe, source))
    if args.materialize:
        _print_family(SetFamily(universe, tuple(system.members())))
        return
    if args.expand:
        system = rows.to_012(system)
    out = system.render()
    if out:
        print(out)


def _cmd_count(args, universe, source) -> None:
    print(rows.count(_horn_system(args, universe, source)))


def _cmd_sat(args, universe, source) -> None:
    ok, witness = rows.horn_satisfiable(_horn_system(args, universe, source))
    if ok:
        print("satisfiable")
        if args.format == "text":
            print(f"witness: {witness.render() or '-'}")
        else:
            _print_set(witness)
    else:
        print("unsatisfiable")


def _cmd_compress(args, universe, source) -> None:
    out = rows.near_minimum_base(_horn_system(args, universe, source))
    _print_sigma(out.sigma)
    for aset in out.gamma.canonical():
        print(f"! {aset.render() or '-'}")


def _cmd_measures(args, universe, sigma) -> None:
    m = core.measures(sigma)
    print(f"ca={m.ca} s={m.s} lhs={m.lhs} rhs={m.rhs}")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="hornkit",
        description="closure systems, implication bases, and Horn toolbox",
    )
    sub = parser.add_subparsers(dest="verb", required=True)

    def add(name: str, fn, *reads: str):
        """The verb's parser, with the input flags of the kinds it reads:
        "sigma" (--sigma), "horn" (also --gamma) or "source" (--sigma or
        --family)."""
        p = sub.add_parser(name)
        p.set_defaults(fn=fn, family=None)
        if "source" in reads:
            g = p.add_mutually_exclusive_group()
            g.add_argument("--sigma")
            g.add_argument("--family")
        else:
            p.add_argument("--sigma", required=True)
        if "horn" in reads:
            p.add_argument("--gamma")
        return p

    p = add("close", _cmd_close, "source")
    p.add_argument("--set", required=True)
    g = p.add_mutually_exclusive_group()
    g.add_argument("--quasi", action="store_true")
    g.add_argument("--one-step", dest="one_step", action="store_true")
    g.add_argument("--trace", action="store_true")

    p = add("entails", _cmd_entails, "sigma")
    p.add_argument("--query", required=True)

    p = add("equiv", _cmd_equiv, "sigma")
    p.add_argument("--sigma2", required=True)

    p = add("base-gd", _cmd_base_gd, "source")
    g = p.add_mutually_exclusive_group()
    g.add_argument("--pseudoclosed", action="store_true")
    g.add_argument("--core", action="store_true")
    g.add_argument("--trim", action="store_true")

    p = add("base-direct", _cmd_base_direct, "source")
    p.add_argument("--classify", action="store_true")

    p = add("base-dbasis", _cmd_base_dbasis, "source")
    p.add_argument("--close-set", dest="close_set")

    p = add("minimize", _cmd_minimize, "sigma")
    g = p.add_mutually_exclusive_group()
    g.add_argument("--trim", action="store_true")
    g.add_argument("--redundancy-only", dest="redundancy_only", action="store_true")
    g.add_argument("--check", action="store_true")
    g.add_argument("--unit-expand", dest="unit_expand", action="store_true")
    g.add_argument("--aggregate", action="store_true")

    p = add("primes", _cmd_primes, "sigma")
    p.add_argument("--check")

    p = add("acyclic", _cmd_acyclic, "sigma")
    p.add_argument("--base", action="store_true")

    p = add("meetirr", _cmd_meetirr, "source")
    p.add_argument("--element")

    p = add("stems", _cmd_stems, "source")
    p.add_argument("--element")

    p = add("dualize", _cmd_dualize, "source")
    p.add_argument("--cmax-of", dest="cmax_of")

    add("keys", _cmd_keys, "source")

    p = add("enumerate", _cmd_enumerate, "source", "horn")
    g = p.add_mutually_exclusive_group()
    g.add_argument("--expand", action="store_true")
    g.add_argument("--materialize", action="store_true")
    g.add_argument("--lectic", action="store_true")

    add("count", _cmd_count, "horn")

    p = add("sat", _cmd_sat, "horn")
    p.add_argument("--format", choices=("text", "lines"), default="text")

    add("compress", _cmd_compress, "horn")

    add("measures", _cmd_measures, "sigma")

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        universe, source = _load(args)
        args.fn(args, universe, source)
        sys.stdout.flush()
    except HornkitError as exc:
        print(f"hornkit: {exc}", file=sys.stderr)
        return 1
    except BrokenPipeError:
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
