"""Command-line front end: exact counts, verification suites, constructions.

Output is a JSON report on stdout (or a human-readable rendering with
--pretty); identical invocations produce byte-identical output, so
timing goes to stderr.  Exit codes: 0 success, 1 check failure, 2 usage
error, 3 model error.
"""

from __future__ import annotations

import argparse
import inspect
import sys
import time

from . import etale, ramified
from .constructions import (
    build_bielliptic_genus6,
    count_vanishing_generic_bielliptic,
    count_vanishing_genus6,
    hyperelliptic_report,
)
from .gf2 import GF2Vector
from .picard import ModelError
from .report import build_report, dumps, render_pretty
from .verify import SUITES

MAX_GENUS = 46

# verify flags; each suite takes the ones its signature names, with its own defaults
VERIFY_FLAGS = ("max_b", "max_r", "seed", "threads")


class UsageError(Exception):
    pass


def _emit(report: dict, args) -> None:
    text = dumps(report)
    if args.json_file:
        try:
            with args.json_file as fh:
                fh.write(text)
        except OSError as exc:
            raise UsageError(f"cannot write --json-out: {exc}") from exc
    sys.stdout.write(render_pretty(report) if args.pretty else text)


def _cmd_count(args) -> int:
    if args.case == "ramified":
        if args.r is None:
            raise UsageError("--case ramified requires --r")
        if args.rho is not None:
            raise UsageError("--case ramified takes no --rho")
        b, r = args.b, args.r
        if b < 0 or r < 1:
            raise UsageError("need --b >= 0 and --r >= 1")
        g = 2 * b + r - 1
        if g > MAX_GENUS:
            raise UsageError(f"genus {g} exceeds the supported bound {MAX_GENUS}")
        results = {
            "b": b,
            "r": r,
            "g": g,
            **ramified.closed_form_counts(b, r),
            "asymptotic_ratio": ramified.asymptotic_ratio(b, r),
        }
        params = {"case": "ramified", "b": b, "r": r}
    else:
        if args.r is not None:
            raise UsageError("--case etale takes no --r")
        b = args.b
        if b < 1:
            raise UsageError("need --b >= 1 in the etale case")
        g = 2 * b - 1
        if g > MAX_GENUS:
            raise UsageError(f"genus {g} exceeds the supported bound {MAX_GENUS}")
        results = {"b": b, "g": g, **etale.closed_form_counts(b), "subspace_dim": g - 1}
        params = {"case": "etale", "b": b}
        if args.rho is not None:
            try:
                cover = GF2Vector.from_bitstring(args.rho)
                spec = etale.EtaleCoverSpec(b, cover)
            except ValueError as exc:
                raise UsageError(f"bad --rho: {exc}") from exc
            params["rho"] = cover.to_bitstring()
            results["T_size_enumerated"] = len(etale.vanishing_thetanulls(spec))
    report = build_report("count", params, results)
    _emit(report, args)
    return 0


def _cmd_verify(args) -> int:
    suite = SUITES[args.suite]
    defaults = {k: p.default for k, p in inspect.signature(suite).parameters.items() if k in VERIFY_FLAGS}
    unused = [f"--{k.replace('_', '-')}" for k in VERIFY_FLAGS if getattr(args, k) is not None and k not in defaults]
    if unused:
        raise UsageError(f"--suite {args.suite} takes no {' '.join(unused)}")
    kwargs = {k: default if getattr(args, k) is None else getattr(args, k) for k, default in defaults.items()}
    try:
        checks = suite(**kwargs)
    except ValueError as exc:
        raise UsageError(f"bad bounds for --suite {args.suite}: {exc}") from exc
    if not checks:
        raise UsageError(f"--suite {args.suite} runs no checks with these bounds")
    passed = sum(1 for c in checks if c["pass"])
    report = build_report(
        "verify",
        {"suite": args.suite, **{k: v for k, v in kwargs.items() if k != "threads"}},
        {"checks_total": len(checks), "checks_passed": passed},
        checks,
    )
    _emit(report, args)
    return 0 if passed == len(checks) else 1


def _cmd_construct(args) -> int:
    if args.target == "bielliptic-g6":
        config = build_bielliptic_genus6(N=args.N, seed=args.seed)
        certificate = count_vanishing_genus6(config)
        params = {"target": args.target, "N": args.N, "seed": args.seed}
    elif args.target == "bielliptic-generic":
        if args.g is None:
            raise UsageError("bielliptic-generic requires --g")
        try:
            certificate = count_vanishing_generic_bielliptic(args.g, N=args.N, seed=args.seed)
        except ValueError as exc:
            raise UsageError(f"bad --g: {exc}") from exc
        params = {"target": args.target, "g": args.g, "N": args.N, "seed": args.seed}
    else:
        if args.g is None:
            raise UsageError("hyperelliptic requires --g")
        try:
            certificate = hyperelliptic_report(args.g)
        except ValueError as exc:
            raise UsageError(f"bad --g: {exc}") from exc
        params = {"target": args.target, "g": args.g}
    report = build_report("construct", params, certificate)
    _emit(report, args)
    return 0


def build_parser() -> argparse.ArgumentParser:
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
    p_count.add_argument("--case", choices=["ramified", "etale"], required=True)
    p_count.add_argument("--b", type=int, required=True, help="base genus")
    p_count.add_argument("--r", type=int, default=None, help="half the number of branch points")
    p_count.add_argument("--rho", default=None, help="etale cover class as a 0/1 string of length 2b")
    common(p_count)
    p_count.set_defaults(func=_cmd_count)

    p_verify = sub.add_parser("verify", help="enumeration-vs-formula and oracle suites")
    p_verify.add_argument("--suite", choices=sorted(SUITES), required=True)
    p_verify.add_argument("--max-b", type=int, default=None)
    p_verify.add_argument("--max-r", type=int, default=None)
    p_verify.add_argument("--seed", type=int, default=None)
    p_verify.add_argument("--threads", type=int, default=None, help="worker processes for independent cells")
    common(p_verify)
    p_verify.set_defaults(func=_cmd_verify)

    p_construct = sub.add_parser("construct", help="end-to-end constructions with certificates")
    p_construct.add_argument("target", choices=["bielliptic-g6", "bielliptic-generic", "hyperelliptic"])
    p_construct.add_argument("--N", type=int, default=240, help="torsion modulus (multiple of 4)")
    p_construct.add_argument("--seed", type=int, default=0)
    p_construct.add_argument("--g", type=int, default=None, help="curve genus")
    common(p_construct)
    p_construct.set_defaults(func=_cmd_construct)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if getattr(args, "threads", None) is not None and args.threads < 1:
        parser.error("--threads must be at least 1")
    # open --json-out before the work starts, so a bad path costs nothing
    try:
        args.json_file = open(args.json_out, "w") if args.json_out else None
    except OSError as exc:
        parser.error(f"cannot write --json-out: {exc}")
    started = time.monotonic()
    try:
        code = args.func(args)
    except UsageError as exc:
        parser.error(str(exc))  # exits with status 2
        return 2  # unreachable, keeps type checkers happy
    except ModelError as exc:
        print(f"model error: {exc}", file=sys.stderr)
        return 3
    finally:
        if args.json_file:
            args.json_file.close()
    print(f"elapsed_ms={int(1000 * (time.monotonic() - started))}", file=sys.stderr)
    return code


def run() -> None:
    sys.exit(main())
