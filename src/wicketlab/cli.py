"""Command-line entry point.

Exit codes: 0 success, 1 usage errors, any OSError or ValueError (a
cap or set file that `errors._read_set_file` refuses, a SetFileError
naming the file and the line; a path that cannot be read or written; a
domain beyond its size guard) and a stdout closed before all output was
written, 2 verification failures and any other package error (a
progression found in a claimed cap, named with its file; a census
counterexample; a color class still holding a wicket the lister
missed), 3 exhausted resample budgets, 130 an interrupt (Ctrl-C). The
output files of `build`, `color` and `census` are opened before any
work starts. All outputs are deterministic for fixed inputs and seeds;
JSON objects are printed with sorted keys.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import sys
from contextlib import ExitStack
from typing import Optional

from . import _MODULES, __getattr__ as _package_getattr
from .errors import (
    MAX_DOMAIN_SIZE,
    CapVerificationError,
    ColoringBudgetError,
    DomainTooLargeError,
    WicketlabError,
)


def __getattr__(name: str):
    """Bind a name of the package table on first access, so `cli.<name>`
    can be read and patched before `main` runs, and `main` calls
    whatever value was set."""
    if name not in _MODULES:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = globals()[name] = _package_getattr(name)
    return value


def _bind(*modules: str) -> None:
    """Bind the table's names of `modules` that are not bound yet, so a
    command imports only the layers it runs; a name set on the module
    before stays as it was set."""
    bound = globals()
    for name, module in _MODULES.items():
        if module in modules and name not in bound:
            __getattr__(name)


class _Parser(argparse.ArgumentParser):
    """argparse exits with status 2 on bad usage; this CLI promises 1."""

    def error(self, message):
        self.print_usage(sys.stderr)
        print(f"error: {message}", file=sys.stderr)
        raise SystemExit(1)


def _int_at_least(low: int):
    """argparse type for integers of at least `low`, so resource inputs
    are rejected before any work starts."""

    def parse(text: str) -> int:
        try:
            value = int(text)
        except ValueError:
            raise argparse.ArgumentTypeError(
                f"invalid int value: {text!r}"
            ) from None
        if value < low:
            raise argparse.ArgumentTypeError(f"must be at least {low}, got {value}")
        return value

    return parse


def _open_outputs(stack: ExitStack, args, *dests: str) -> list:
    """Open the files the output options `dests` name (an unset one
    stays None), so a path that cannot be written fails before any work
    starts. A file that two outputs, or an output and the input file
    (`--cap`, `--set`), both name is refused first: opening it would
    empty the input or lose an output."""
    named: dict = {}
    for dest in ("cap", "set", *dests):
        path = getattr(args, dest, None)
        if path:
            other = named.setdefault(os.path.realpath(path), dest)
            if other != dest:
                raise ValueError(f"--{other} and --{dest} name one file: {path}")
    paths = [getattr(args, dest) for dest in dests]
    return [stack.enter_context(open(p, "w")) if p else None for p in paths]


def _emit(payload: dict) -> None:
    print(json.dumps(payload, sort_keys=True))


def _cap_json(cap) -> dict:
    return {
        "dimension": cap.dimension,
        "size": len(cap),
        "elements": [vec_to_string(v) for v in cap.sorted_elements],
    }


def cmd_cap(args) -> int:
    _bind("gf3")
    if args.action == "verify":
        try:
            cap = load_cap_file(args.file)
        except CapVerificationError as exc:
            print("ap3-free: false")
            print(
                "witness: "
                + " ".join(vec_to_string(v) for v in exc.witness)
            )
            return 2
        print("ap3-free: true")
        print(f"dimension: {cap.dimension}")
        print(f"size: {len(cap)}")
        return 0
    if args.action == "max":
        cap = max_cap_exact(args.n)
        _emit(_cap_json(cap))
        return 0
    if args.action == "product":
        left, right = load_cap_file(args.left), load_cap_file(args.right)
        size = len(left) * len(right) * (left.dimension + right.dimension)
        _check_domain(size, "cap product", "coordinates")
        cap = product_cap(left, right)
    else:  # lift
        cap = load_cap_file(args.cap)
        size = max(len(cap), 1) * args.dimension  # an empty cap's pad too
        _check_domain(size, "--dimension", "coordinates")
        cap = lift_cap(cap, args.dimension)
    if args.out:
        write_cap_file(cap, args.out)
    _emit({"dimension": cap.dimension, "size": len(cap)})
    return 0


def _check_domain(
    size: int, flag: str, what: str = "domain candidates"
) -> None:
    """Refuse more than MAX_DOMAIN_SIZE domain candidates (or cap
    coordinates) before they are built."""
    if size > MAX_DOMAIN_SIZE:
        raise DomainTooLargeError(
            f"{flag} asks for {size} {what}; the limit is {MAX_DOMAIN_SIZE}"
        )


def _make_build(args):
    """Shared between `build` and `color`: returns (build, n, set_size)."""
    if args.family == "f3":
        _bind("gf3")
        cap = load_cap_file(args.cap)
        _check_domain(3**cap.dimension, "--cap")
        return build_f3(cap), cap.dimension, len(cap)
    if args.family == "modular":
        n = args.k * args.k - args.k + 1
        _check_domain(n, "--k")
        elems = load_int_set_file(args.set, modulus=n)
        return build_modular(elems, args.k), n, len(elems)
    _bind("eisenstein")
    _check_domain(region_scan_size(args.bound), "--bound")
    if args.set is not None:
        elems = load_eisenstein_set_file(args.set)
    else:
        _bind("eqfree")
        region = region_points(args.bound, norm=args.norm)
        if len(region) > TRIANGLE_EXHAUSTIVE_LIMIT:
            raise DomainTooLargeError(
                f"--auto needs a region of at most "
                f"{TRIANGLE_EXHAUSTIVE_LIMIT} points (this one has "
                f"{len(region)}); pass --set instead"
            )
        elems = max_triangle_free(args.bound, norm=args.norm).elements
    build = build_eisenstein(elems, args.bound, norm=args.norm)
    return build, args.bound, len(elems)


def cmd_build(args) -> int:
    _bind("bounds", "construction", "hypergraph")
    with ExitStack() as stack:
        out, report_file = _open_outputs(stack, args, "out", "report")
        build, n, set_size = _make_build(args)
        h = build.hypergraph
        if build.plane_families:
            wicket_count, degree = plane_wicket_counts(build)
        else:
            families = wicket_families(build)
            wicket_count = len(families[1]) // 5
            degree = wicket_dependency_degree(families)
        k = colors_needed(set_size)
        selected = -(-h.edge_count // k)
        payload = {
            "n": n,
            "set_size": set_size,
            "vertices": h.vertex_count,
            "edges": h.edge_count,
            "wickets": wicket_count,
            "max_dependency_degree": degree,
            "k": k,
            "selected_edges": selected,
            "exponent": (
                round(concrete_exponent(selected, h.vertex_count), 4)
                if selected
                else 0.0
            ),
        }
        if out:
            out.write(write_hypergraph_text(h))
        if report_file:
            json.dump(payload, report_file, sort_keys=True)
            report_file.write("\n")
    _emit(payload)
    return 0


def cmd_color(args) -> int:
    _bind("coloring", "construction", "hypergraph")
    with ExitStack() as stack:
        (out,) = _open_outputs(stack, args, "out")
        build = _make_build(args)[0]
        h = build.hypergraph
        selection = color_edges(build, seed=args.seed, attempts=args.attempts)
        k = selection.coloring.color_count
        payload = {
            "k": k,
            "seed": args.seed,
            "attempt": selection.coloring.attempt,
            "resamples": selection.coloring.resamples,
            "color": selection.color,
            "selected_edges": len(selection.edge_ids),
            "total_edges": h.edge_count,
            "lower_bound": -(-h.edge_count // k),
            "wickets": selection.coloring.wickets,
        }
        if out:
            out.write(write_hypergraph_text(selection.hypergraph))
    _emit(payload)
    return 0


def _set_json(elements) -> list:
    out = []
    for e in elements:
        if isinstance(e, EisensteinPoint):
            out.append(f"{e.a},{e.b}")
        else:
            out.append(e)
    return out


def cmd_search(args) -> int:
    _bind("eisenstein", "eqfree")
    if args.problem == "ruzsa":
        _check_domain(args.n, "--n")
        spec = ruzsa_equation()
        domain = tuple(range(1, args.n + 1))
        label = f"1..{args.n}"
        limit = DEFAULT_EXHAUSTIVE_LIMIT
    elif args.problem == "modular":
        n = args.k * args.k - args.k + 1
        _check_domain(n, "--k")
        spec = modular_equation(args.k)
        domain = tuple(range(n))
        label = f"Z/{n}"
        limit = DEFAULT_EXHAUSTIVE_LIMIT
    else:
        _check_domain(region_scan_size(args.bound), "--bound")
        spec = equilateral_equation()
        domain = region_points(args.bound, norm=args.norm)
        label = f"{args.norm}<={args.bound}"
        limit = TRIANGLE_EXHAUSTIVE_LIMIT

    mode = args.mode
    if mode == "auto":
        mode = "exhaustive" if len(domain) <= limit else "local"
    if mode == "exhaustive":
        if len(domain) > limit:
            raise DomainTooLargeError(
                f"domain has {len(domain)} elements, exhaustive limit is "
                f"{limit}; use --mode local instead"
            )
        result = max_free_exhaustive(domain, spec, max_domain=limit)
    else:
        result = max_free_heuristic(
            domain, spec, seed=args.seed, budget=args.budget, method=mode
        )
    _emit(
        {
            "problem": spec.name,
            "domain": label,
            "method": result.method,
            "size": result.size,
            "set": _set_json(result.elements),
            "verified": result.verified,
            "optimal": result.optimal,
        }
    )
    return 0 if result.verified else 2


def cmd_census(args) -> int:
    _bind("census")
    with ExitStack() as stack:
        (csv,) = _open_outputs(stack, args, "csv")
        report = run_census(csv=csv)
        payload = {**report._asdict(), "verified": report.verified}
        if args.minimality:
            witness = minimal_free_example()
            payload["minimality_witness"] = list(witness) if witness else None
    _emit(payload)
    return 0 if report.verified else 2


def cmd_bounds(args) -> int:
    _bind("bounds")
    if args.calc == "exponent":
        if args.base is not None:
            value = asymptotic_exponent(args.base)
        elif args.selected is not None and args.n is not None:
            value = dimension_exponent(args.selected, args.n)
        else:
            print(
                "error: provide --base or both --selected and --n",
                file=sys.stderr,
            )
            return 1
        print(f"{value:.4f}")
        return 0
    if args.calc == "corollary":
        value = cap_bound_base(args.c)
        _emit(
            {
                "baseline": CAP_BOUND_BASELINE,
                "improves": improves_cap_bound(value),
                "value": round(value, 4),
            }
        )
        return 0
    print(f"{gowers_long_constant(args.exponent):.4f}")
    return 0


def _fill_cap(cap) -> None:
    sub = cap.add_subparsers(dest="action", required=True)
    verify = sub.add_parser("verify", help="check a cap file")
    verify.add_argument("file")
    largest = sub.add_parser("max", help="exact maximum cap (n <= 3)")
    largest.add_argument("--n", type=int, required=True)
    product = sub.add_parser("product", help="coordinate-wise product")
    product.add_argument("--left", required=True)
    product.add_argument("--right", required=True)
    product.add_argument("--out")
    lift = sub.add_parser("lift", help="zero-pad to a larger dimension")
    lift.add_argument("--cap", required=True)
    lift.add_argument("--dimension", type=int, required=True)
    lift.add_argument("--out")
    cap.set_defaults(func=cmd_cap)


def _fill_families(parser) -> tuple:
    """The three family subcommands that `build` and `color` share."""
    sub = parser.add_subparsers(dest="family", required=True)
    f3 = sub.add_parser("f3", help="lines over GF(3) vectors from a cap file")
    f3.add_argument("--cap", required=True, help="cap file (base-3 lines)")

    mod = sub.add_parser("modular", help="residue construction mod k^2-k+1")
    mod.add_argument("--k", type=_int_at_least(2), required=True)
    mod.add_argument("--set", required=True, help="set file, one residue per line")

    eis = sub.add_parser("eisenstein", help="triangular-lattice construction")
    eis.add_argument("--bound", type=_int_at_least(0), required=True)
    eis.add_argument(
        "--norm", choices=("coordinate", "ring"), default="coordinate"
    )
    group = eis.add_mutually_exclusive_group(required=True)
    group.add_argument("--set", help="set file, one 'a,b' pair per line")
    group.add_argument(
        "--auto",
        action="store_true",
        help="use the exact largest triangle-free subset of the region",
    )
    return f3, mod, eis


def _fill_build(build) -> None:
    for family in _fill_families(build):
        family.add_argument("--out", help="write the hypergraph file here")
        family.add_argument("--report", help="also write the JSON report here")
        family.set_defaults(func=cmd_build)


def _fill_color(color) -> None:
    for family in _fill_families(color):
        family.add_argument("--seed", type=int, default=0)
        family.add_argument("--attempts", type=_int_at_least(1), default=8)
        family.add_argument("--out", help="write the selected class here")
        family.set_defaults(func=cmd_color)


def _fill_search(search) -> None:
    sub = search.add_subparsers(dest="problem", required=True)
    ruzsa = sub.add_parser("ruzsa", help="3x+y=2z+2w over 1..n")
    ruzsa.add_argument("--n", type=_int_at_least(0), required=True)
    modular = sub.add_parser(
        "modular", help="kx-(k-1)y=z over the residues mod k^2-k+1"
    )
    modular.add_argument("--k", type=_int_at_least(2), required=True)
    triangle = sub.add_parser(
        "triangle", help="equilateral-free subsets of a lattice disc"
    )
    triangle.add_argument("--bound", type=_int_at_least(0), required=True)
    triangle.add_argument(
        "--norm", choices=("coordinate", "ring"), default="coordinate"
    )
    for problem in (ruzsa, modular, triangle):
        problem.add_argument(
            "--mode",
            choices=("auto", "exhaustive", "greedy", "local"),
            default="auto",
        )
        problem.add_argument("--seed", type=int, default=0)
        problem.add_argument("--budget", type=_int_at_least(0), default=2000)
        problem.set_defaults(func=cmd_search)


def _fill_census(census) -> None:
    census.add_argument(
        "--jobs",
        type=_int_at_least(1),
        default=1,
        help="accepted for compatibility; the census runs in one process",
    )
    census.add_argument(
        "--detectors",
        action="store_true",
        help="accepted for compatibility; the census always reads its tables",
    )
    census.add_argument("--csv", help="write per-system classifications here")
    census.add_argument(
        "--minimality",
        action="store_true",
        help="include a 4-edge linear system with neither pattern",
    )
    census.set_defaults(func=cmd_census)


def _fill_bounds(bounds) -> None:
    sub = bounds.add_subparsers(dest="calc", required=True)
    exponent = sub.add_parser("exponent")
    exponent.add_argument("--base", type=float)
    exponent.add_argument("--selected", type=int)
    exponent.add_argument(
        "--n",
        type=_int_at_least(0),
        help="GF(3) dimension; the vertex count is taken as 3^(n+1)",
    )
    corollary = sub.add_parser("corollary")
    corollary.add_argument("--c", type=float, required=True)
    gl = sub.add_parser("gl")
    gl.add_argument("--exponent", type=float, required=True)
    bounds.set_defaults(func=cmd_bounds)


# Each command's help line and the function that fills in its parser.
_COMMANDS = {
    "cap": ("progression-free set utilities", _fill_cap),
    "build": ("construct a hypergraph", _fill_build),
    "color": ("build, then color away all wickets", _fill_color),
    "search": ("largest solution-free sets", _fill_search),
    "census": ("classify all linear 5-edge grid systems", _fill_census),
    "bounds": ("exponent and bound formulas", _fill_bounds),
}


def build_parser(command: Optional[str] = None) -> argparse.ArgumentParser:
    """The CLI parser with every command listed. Given a command's name,
    only that command's branch is filled in, since a run parses with it
    alone; otherwise (no name, `-h`, an unknown word) the whole tree is,
    so help and usage errors read the same either way."""
    parser = _Parser(
        prog="wicketlab",
        description=(
            "Construct linear tripartite hypergraphs from progression-free "
            "sets, and color and verify their wicket-free classes."
        ),
    )
    top = parser.add_subparsers(dest="command", required=True)
    whole = command not in _COMMANDS
    for name, (help_text, fill) in _COMMANDS.items():
        sub = top.add_parser(name, help=help_text)
        if whole or name == command:
            fill(sub)
    return parser


def main(argv: Optional[list] = None) -> int:
    if argv is None:
        argv = sys.argv[1:]
    parser = build_parser(argv[0] if argv else None)
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        code = exc.code
        return code if isinstance(code, int) else 0
    try:
        return args.func(args)
    except BrokenPipeError:
        raise  # console_main quiets a closed stdout
    except (OSError, ValueError) as exc:  # incl. file and domain errors
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except ColoringBudgetError as exc:
        _emit({"error": "budget-exhausted", **exc.diagnostics})
        return 3
    except WicketlabError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


def console_main() -> None:
    # The start-up heap (interpreter, site, argparse, json, this package)
    # lives until the process ends; frozen, it is skipped by the final
    # collections at shutdown and left to the OS. `main` does not
    # freeze, since in-process callers run it many times.
    gc.freeze()
    try:
        code = main()
        sys.stdout.flush()
    except BrokenPipeError:
        # The reader went away. Point stdout at devnull so the
        # interpreter's final flush of the buffered rest stays quiet.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        code = 1
    except KeyboardInterrupt:
        print("error: interrupted", file=sys.stderr)
        code = 130
    sys.exit(code)


if __name__ == "__main__":
    console_main()
