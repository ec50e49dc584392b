"""Command-line front door: parse inputs, dispatch to the library, render
deterministic text output.

Each verb declares the input it reads when ``build_parser`` adds it:
``"sigma"`` (an implication file), ``"horn"`` (that file plus an optional
``--gamma`` family of negative clauses) or ``"source"`` (``--sigma`` or
``--family``, never both). ``main`` loads ``--sigma`` or ``--family`` once
and passes the universe and the loaded source to the verb's handler.
``--gamma`` is read by the one ``HornSystem`` builder, and only ``equiv``
reads a further file itself (``--sigma2``).

Output has one writer. Each handler is a generator of text blocks (one
line, or several joined by newlines) and writes nothing itself; ``main``
prints each non-empty block once, as it comes, so an empty result prints
nothing and a long listing streams. A lectic listing of ``--sigma`` stays
in the groups of ``closure.lectic_groups`` (the sets that share their
lower half of the positions; its rows are built from rules mirrored
once, so their bits are in lectic order) until ``closure.lectic_lines``
writes each group straight to text, in blocks of about ``_LISTING_BLOCK``
lines; one of ``--family`` is a stream of masks, printed by
``Universe.lines`` ``_LISTING_BLOCK`` lines per block. 012n rows stay
plain mask tuples, printed ``_LISTING_BLOCK`` rows per block (each block
expanded on its own with ``--expand``). Sets are written by
``Universe.text`` and the ``lines`` writers, which write the empty set as
``-``, the glyph that family files use, and rows by ``Universe.row_lines``.

``main`` may be called any number of times in one process: the argparse
tree is built once, by the first call, and keeps nothing from one call to
the next.

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
import functools
import os
import sys
from itertools import islice
from pathlib import Path
from typing import Iterator

from . import canonical, closure, core, direct, dualize, primes, rows
from .core import ImplicationSet, SetFamily, Universe, set_text
from .errors import HornkitError, UniverseMismatchError


#: lines per block of a lectic listing (about that many on ``--sigma``), and
#: source rows per block of a 012n listing: one ``print`` each, so the
#: listing still streams
_LISTING_BLOCK = 1024


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


def _cmd_close(args, universe, source) -> Iterator[str]:
    s = universe.parse_set(args.set)
    if args.quasi:
        yield set_text(closure.quasiclosure(source, s))
    elif isinstance(source, SetFamily):
        if args.one_step or args.trace:
            raise HornkitError("--one-step/--trace need a --sigma input")
        yield set_text(closure.close_family(source, s))
    elif args.one_step:
        yield set_text(closure.step(source, s))
    elif args.trace:
        yield from map(set_text, closure.close_trace(source, s).rounds)
    else:
        yield set_text(closure.close(source, s))


def _cmd_entails(args, universe, sigma) -> Iterator[str]:
    query = core.parse_implication(args.query, universe)
    yield "true" if closure.entails(sigma, query) else "false"


def _cmd_equiv(args, universe, sigma) -> Iterator[str]:
    universe2, sigma2 = core.load_implications(_read(args.sigma2))
    if universe2 != universe:
        raise UniverseMismatchError("the two families use different universes")
    yield "true" if closure.equivalent(sigma, sigma2) else "false"


def _cmd_base_gd(args, universe, source) -> Iterator[str]:
    if args.pseudoclosed or args.core:
        report = canonical.pseudoclosed_sets(source)
        yield (report.essential_closures if args.core else report.pseudoclosed).render()
    else:
        base = canonical.gd_base(source)
        yield (canonical.trim_conclusions(base) if args.trim else base).render()


def _cmd_base_direct(args, universe, source) -> Iterator[str]:
    if args.classify:
        table = direct.stem_table(source)
        for stem, cls in direct.classify_stems(table, source).items():
            kind = "strong" if cls.strong else "plain"
            mins = set_text(cls.closure_minimal_for)
            yield f"{set_text(stem)}: {kind} closure-minimal-for: {mins}"
    else:
        yield direct.canonical_direct(source).render()


def _cmd_base_dbasis(args, universe, source) -> Iterator[str]:
    ordered = direct.d_basis(source)
    if args.close_set is not None:
        s = universe.parse_set(args.close_set)
        yield set_text(direct.ordered_close(ordered, s, verify=True))
    else:
        yield ordered.render()


def _cmd_minimize(args, universe, sigma) -> Iterator[str]:
    if args.check:
        yield "true" if canonical.is_minimum(sigma) else "false"
    elif args.unit_expand:
        yield core.unit_expand(sigma).render()
    elif args.aggregate:
        yield core.aggregate(sigma).render()
    elif args.redundancy_only:
        yield canonical.remove_redundancy(sigma).render()
    else:
        base = canonical.shock_minimize(sigma)
        yield (canonical.trim_conclusions(base) if args.trim else base).render()


def _cmd_primes(args, universe, sigma) -> Iterator[str]:
    if args.check is not None:
        query = core.parse_implication(args.check, universe)
        yield "true" if primes.is_prime_implicate(sigma, query) else "false"
    else:
        yield primes.unit_primes(sigma).render()


def _cmd_acyclic(args, universe, sigma) -> Iterator[str]:
    if args.base:
        yield primes.acyclic_base(sigma).render()
    else:
        ok, cycle = primes.is_acyclic(sigma)
        if ok:
            yield "true"
        else:
            walk = " -> ".join(universe.labels[p] for p in cycle)
            yield f"false  cycle: {walk}"


def _cmd_meetirr(args, universe, source) -> Iterator[str]:
    if args.element is not None:
        yield dualize.max_noncovers(source, _element(args.element, universe)).render()
    else:
        yield dualize.meet_irreducibles(source).render()


def _cmd_stems(args, universe, source) -> Iterator[str]:
    if args.element is not None and isinstance(source, SetFamily):
        # one element of a family: mtr(cmax(F,e)), with no stem-search limit
        yield dualize.stems_from_meetirr(source, _element(args.element, universe)).render()
    elif args.element is not None:
        yield direct.stem_table(source).stems_of[_element(args.element, universe)].render()
    else:
        # one block: per element in position order, its stems in key order
        labels, text = universe.labels, universe.text
        yield "\n".join([
            f"{labels[pos]}: {text(m) or '-'}"
            for pos, stems in direct.stem_table(source).stems_of.items()
            for m in stems.masks()
        ])


def _cmd_dualize(args, universe, source) -> Iterator[str]:
    if args.cmax_of is not None:
        # cmax(F,e): the complements of max(F,e), with no stem-search limit
        maxes = dualize.max_noncovers(source, _element(args.cmax_of, universe)).masks()
        yield SetFamily.from_masks(universe, [universe.full_mask & ~m for m in maxes]).render()
    elif isinstance(source, SetFamily):
        yield dualize.minimal_transversals(source).render()
    else:
        raise HornkitError("dualize needs a --family input")


def _cmd_keys(args, universe, source) -> Iterator[str]:
    yield dualize.minimal_keys(source).render()


def _cmd_enumerate(args, universe, source) -> Iterator[str]:
    if args.lectic:
        if args.gamma or isinstance(source, ImplicationSet):
            h = _horn_system(args, universe, source)
            groups = closure.lectic_groups(h.sigma, h.gamma.masks())
            yield from closure.lectic_lines(universe, groups, _LISTING_BLOCK)
            return
        masks = closure.lectic_masks(source)
        while block := list(islice(masks, _LISTING_BLOCK)):
            yield universe.lines(block)
        return
    h = _horn_system(args, universe, source)
    if args.materialize:
        models = closure.lectic_masks(h.sigma, h.gamma.masks())
        yield SetFamily.from_masks(universe, models).render()
        return
    # the rows stay plain tuples, printed (and checked) by row_lines in
    # blocks of _LISTING_BLOCK rows, each expanded on its own with --expand
    found = closure.model_rows(h.sigma, h.gamma.masks())
    for i in range(0, len(found), _LISTING_BLOCK):
        part = found[i : i + _LISTING_BLOCK]
        yield universe.row_lines(closure.expand_rows(part) if args.expand else part)


def _cmd_count(args, universe, source) -> Iterator[str]:
    yield str(rows.count(_horn_system(args, universe, source)))


def _cmd_sat(args, universe, source) -> Iterator[str]:
    ok, witness = rows.horn_satisfiable(_horn_system(args, universe, source))
    if not ok:
        yield "unsatisfiable"
    elif args.format == "text":
        yield f"satisfiable\nwitness: {set_text(witness)}"
    else:
        yield f"satisfiable\n{set_text(witness)}"


def _cmd_compress(args, universe, source) -> Iterator[str]:
    out = rows.near_minimum_base(_horn_system(args, universe, source))
    yield out.sigma.render()
    for aset in out.gamma:
        yield f"! {set_text(aset)}"


def _cmd_measures(args, universe, sigma) -> Iterator[str]:
    m = core.measures(sigma)
    yield f"ca={m.ca} s={m.s} lhs={m.lhs} rhs={m.rhs}"


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The one parser of the process, built on the first call.

    It holds no per-call state: ``parse_args`` makes a fresh ``Namespace``
    each time, and the defaults are the handler and ``None``, ``False`` or
    a string. Each verb's ``fn`` default binds its ``_cmd_*`` handler when
    the parser is built, so replacing ``cli._cmd_*`` afterwards has no
    effect: patch the library function that the handler calls instead.
    Callers must not change the parser.
    """
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
    args = build_parser().parse_args(argv)
    try:
        universe, source = _load(args)
        for block in args.fn(args, universe, source):
            if block:
                print(block)
        sys.stdout.flush()
    except HornkitError as exc:
        print(f"hornkit: {exc}", file=sys.stderr)
        return 1
    except BrokenPipeError:
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
