"""Command-line front end: exact counts, verification suites, constructions.

Output is a JSON report on stdout (or a human-readable rendering with
--pretty); identical invocations produce byte-identical output, so
timing goes to stderr.  Exit codes: 0 success, 1 check failure, 2 usage
error, 3 model error.  In-process ``main`` calls share one parser, built
on the first call, and read each table function's signature once.
"""

from __future__ import annotations

import argparse
import functools
import inspect
import os
import sys
import time

from . import etale, ramified
from .constructions import (
    count_vanishing_generic_bielliptic,
    count_vanishing_genus6,
    hyperelliptic_report,
)
from .gf2 import GF2Vector
from .picard import ModelError
from .report import build_report, dumps, render_pretty
from .verify import SUITES

CONSTRUCT_TARGETS = {
    "bielliptic-g6": count_vanishing_genus6,
    "bielliptic-generic": count_vanishing_generic_bielliptic,
    "hyperelliptic": hyperelliptic_report,
}


def _checked_genus(g: int) -> int:
    if g > ramified.MAX_GENUS:
        raise ValueError(f"genus {g} exceeds the supported bound {ramified.MAX_GENUS}")
    return g


def _ramified_counts(b: int, r: int) -> dict:
    g = _checked_genus(2 * b + r - 1)
    counts = ramified.closed_form_counts(b, r)
    return {"b": b, "r": r, "g": g, **counts, "asymptotic_ratio": ramified.asymptotic_ratio(b, r)}


def _etale_counts(b: int, rho: str | None = None) -> dict:
    g = _checked_genus(2 * b - 1)
    results = {"b": b, "g": g, **etale.closed_form_counts(b), "subspace_dim": g - 1}
    if rho is not None:
        if len(rho) != 2 * b:
            raise ValueError("cover class must live in GF(2)^(2b)")
        cover = GF2Vector.from_bitstring(rho)
        results["T_size_enumerated"] = etale.count_vanishing_enumerated(etale.EtaleCoverSpec(b, cover.bits))
    return results


COUNT_CASES = {"ramified": _ramified_counts, "etale": _etale_counts}

# subcommand -> (argument that picks the function, functions, flags); each function takes
# the flags its signature names, with its own defaults.  SUITES is held, not copied.
COMMANDS = {
    "count": ("case", COUNT_CASES, ("b", "r", "rho")),
    "verify": ("suite", SUITES, ("max_b", "max_r", "seed")),
    "construct": ("target", CONSTRUCT_TARGETS, ("g", "N", "seed")),
}


@functools.cache
def _parameters(func):
    """``func``'s parameters, read once per function object, so a replaced table entry is read anew."""
    return inspect.signature(func).parameters


def _flag_kwargs(func, args, flags: tuple[str, ...], name: str) -> dict:
    """The flags that ``func``'s signature names, each at its value or, if
    unset, at the function's default; a set flag it does not name, or an
    unset one it has no default for, is a usage error."""
    params = _parameters(func)
    unused = [f"--{k.replace('_', '-')}" for k in flags if getattr(args, k) is not None and k not in params]
    if unused:
        raise ValueError(f"{name} takes no {' '.join(unused)}")
    kwargs = {k: p.default if getattr(args, k) is None else getattr(args, k) for k, p in params.items() if k in flags}
    missing = [f"--{k}" for k, v in kwargs.items() if v is inspect.Parameter.empty]
    if missing:
        raise ValueError(f"{name} requires {' '.join(missing)}")
    return kwargs


def _run(args) -> int:
    """Run the chosen function on its flags and emit the report ``build_report`` makes of its results."""
    selector, table, flags = COMMANDS[args.command]
    choice = getattr(args, selector)
    name = f"{args.command} {choice}"
    kwargs = _flag_kwargs(table[choice], args, flags, name)
    results = table[choice](**kwargs)
    if results == []:
        raise ValueError(f"{name} runs no checks with these bounds")
    params = {selector: choice, **{k: v for k, v in kwargs.items() if v is not None}}
    report = build_report(args.command, params, results)
    text = dumps(report)
    if args.json_out is not None:
        try:
            with open(args.json_out, "w") as fh:
                fh.write(text)
        except OSError as exc:
            raise ValueError(f"cannot write --json-out: {exc}") from exc
    sys.stdout.write(render_pretty(report) if args.pretty else text)
    return 0 if report.get("checks_passed", True) else 1


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The one parser of the process, built on the first call.  Each
    subcommand's ``choices`` are read then, so a key added to a ``COMMANDS``
    table later is refused; a replaced value still takes effect."""
    parser = argparse.ArgumentParser(
        prog="thetanulls",
        description="Exact counting and verification of involution-invariant "
        "theta characteristics and vanishing thetanulls.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--pretty", action="store_true", help="human-readable rendering")
        p.add_argument("--json-out", metavar="FILE", help="also write the JSON report to FILE")

    p_count = sub.add_parser("count", help="closed-form counts")
    p_count.add_argument("--case", choices=list(COUNT_CASES), required=True)
    p_count.add_argument("--b", type=int, default=None, help="base genus")
    p_count.add_argument("--r", type=int, default=None, help="half the number of branch points")
    p_count.add_argument("--rho", default=None, help="etale cover class as a 0/1 string of length 2b")
    common(p_count)

    p_verify = sub.add_parser("verify", help="enumeration-vs-formula and oracle suites")
    p_verify.add_argument("--suite", choices=sorted(SUITES), required=True)
    p_verify.add_argument("--max-b", type=int, default=None)
    p_verify.add_argument("--max-r", type=int, default=None)
    p_verify.add_argument("--seed", type=int, default=None)
    common(p_verify)

    p_construct = sub.add_parser("construct", help="end-to-end constructions with certificates")
    p_construct.add_argument("target", choices=sorted(CONSTRUCT_TARGETS))
    p_construct.add_argument("--N", type=int, default=None, help="torsion modulus (multiple of 4)")
    p_construct.add_argument("--seed", type=int, default=None)
    p_construct.add_argument("--g", type=int, default=None, help="curve genus")
    common(p_construct)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    # probe --json-out before the work, so a bad path costs nothing; only a report truncates
    # the file, and a file the probe created is removed again when no report is written
    created = args.json_out is not None and not os.path.lexists(args.json_out)
    try:
        if args.json_out is not None:
            open(args.json_out, "a").close()
    except OSError as exc:
        parser.error(f"cannot write --json-out: {exc}")
    started = time.monotonic()
    code = None
    try:
        code = _run(args)
    except ValueError as exc:
        parser.error(str(exc))  # exits with status 2
        return 2  # unreachable, keeps type checkers happy
    except ModelError as exc:
        print(f"model error: {exc}", file=sys.stderr)
        return 3
    finally:
        if created and code is None:
            os.remove(args.json_out)
    print(f"elapsed_ms={int(1000 * (time.monotonic() - started))}", file=sys.stderr)
    return code


def run() -> None:
    """Console entry: ``main``, then a flush of stdout, so a closed pipe exits 2 with one
    error line; stdout then goes to devnull, where the exit flush drops the unsent report."""
    try:
        code = main()
        sys.stdout.flush()
    except BrokenPipeError as exc:
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        build_parser().error(f"cannot write stdout: {exc}")
    sys.exit(code)
