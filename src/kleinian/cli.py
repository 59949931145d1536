"""Command-line front end with JSON input and output.

Verbs:

    describe            curve invariants (genus, gaps, monomial order)
    uniformize          divisor -> basis wp-values; --extended adds the
                        (3,4) extension values
    invert-basis        basis wp-values -> divisor
    add / negate        divisor group law
    verify-identities   model residuals at --divisor, else the worst over
                        --trials random divisors (default 5)
    periods             period matrices, Legendre residual, tau, kappa
    theta-bridge        wp from theta vs wp from algebra at --divisor, else
                        at --trials random divisors (default 3)
    selftest            the full acceptance suite (seeded, deterministic)

Exit codes: 0 all checks pass, 1 a check failed its tolerance, 2 bad
input, 3 numerical failure.  `--tol name=value` overrides any named
tolerance; `--seed` fixes every randomized trial.  verify-identities and
theta-bridge run the per-divisor checks of the acceptance suite.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
import time

import numpy as np

from . import jsonio
from .acceptance import (
    CRITERIA,
    bridge_errors,
    identities_pass,
    identity_residuals,
    keep_worst,
    run_acceptance,
)
from .addition import add as divisor_add
from .addition import negate as divisor_negate
from .errors import InputError, InvalidCurveError, KleinianError
from .sampling import random_divisor
from .tolerances import resolve
from .transcendental import period_matrices, riemann_characteristic
from .uniformization import basis_to_divisor, divisor_to_basis, extended_34

EXIT_OK = 0
EXIT_CHECK_FAILED = 1
EXIT_INPUT = 2
EXIT_NUMERIC = 3


def _parse_tol(items) -> dict:
    out = {}
    for item in items or []:
        if "=" not in item:
            raise InputError(f"--tol expects name=value, got {item!r}")
        name, val = item.split("=", 1)
        try:
            out[name] = float(val)
        except ValueError:
            raise InputError(f"--tol {name} expects a number, got {val!r}") from None
        if not 0.0 < out[name] < math.inf:
            raise InputError(f"--tol {name} must be finite and positive, got {val!r}")
    return out


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(prog="kleinian", description=__doc__,
                                 formatter_class=argparse.RawDescriptionHelpFormatter)
    sub = ap.add_subparsers(dest="command", required=True)

    def verb(name, summary, handler, curve=True):
        p = sub.add_parser(name, help=summary)
        p.set_defaults(handler=handler)
        if curve:
            p.add_argument("--curve", required=True, help="curve JSON file")
        p.add_argument("--tol", action="append", metavar="NAME=VALUE", help="tolerance override")
        p.add_argument("--seed", type=int, default=0)
        p.add_argument("--output", help="write the JSON report here instead of stdout")
        return p

    verb("describe", "curve invariants", _cmd_describe)
    p = verb("uniformize", "divisor -> basis record", _cmd_uniformize)
    p.add_argument("--divisor", required=True)
    p.add_argument("--extended", action="store_true", help="add the (3,4) extension values")
    p = verb("invert-basis", "basis record -> divisor", _cmd_invert_basis)
    p.add_argument("--basis", required=True)
    p = verb("add", "sum of two divisor classes", _cmd_add)
    p.add_argument("--divisors", nargs=2, required=True, metavar=("D1", "D2"))
    p = verb("negate", "inverse divisor class", _cmd_negate)
    p.add_argument("--divisor", required=True)
    p = verb("verify-identities", "model residuals", _cmd_verify_identities)
    p.add_argument("--divisor", help="divisor JSON; omit for random trials")
    p.add_argument("--trials", type=int, default=5)
    verb("periods", "period matrices and Legendre check", _cmd_periods)
    p = verb("theta-bridge", "wp from theta vs algebra", _cmd_theta_bridge)
    p.add_argument("--divisor", help="divisor JSON; omit for random trials")
    p.add_argument("--trials", type=int, default=3)
    p = verb("selftest", "acceptance suite", _cmd_selftest, curve=False)
    p.add_argument("--suite", action="append", dest="suites",
                   choices=[k for k, _, _ in CRITERIA], help="run only these suites")
    p.add_argument("--with-timings", action="store_true",
                   help="include wall-clock timings (breaks byte-for-byte determinism)")
    return ap


def run(args) -> tuple[int, dict]:
    """Execute one parsed verb; returns (exit_status, JSON report)."""
    tols = resolve(_parse_tol(args.tol))
    t0 = time.time()
    status, body = args.handler(args, tols)
    report = {"command": args.command, "seed": args.seed, **body}
    if args.command != "selftest" or args.with_timings:
        report["elapsed_s"] = round(time.time() - t0, 3)
    return status, report


def _load_curve(args):
    return jsonio.curve_from_json(jsonio.load_json(args.curve))


def _load_divisor(curve, path, tols):
    return jsonio.divisor_from_json(curve, jsonio.load_json(path), tol=tols["on-curve"])


def _divisors(args, curve, tols) -> list:
    """The given --divisor, else --trials random divisors drawn from --seed."""
    if args.trials < 1:
        raise InputError(f"--trials must be at least 1, got {args.trials}")
    if args.divisor:
        return [_load_divisor(curve, args.divisor, tols)]
    rng = np.random.default_rng(args.seed)
    return [random_divisor(curve, curve.genus, rng) for _ in range(args.trials)]


def _divisor_result(inputs: dict, D, tols):
    """Report of a verb that returns the divisor D: the check is D on the curve."""
    worst = D.max_curve_residual()
    body = {"inputs": inputs, "divisor": jsonio.divisor_to_json(D), "max_curve_residual": worst}
    return (EXIT_OK if worst < tols["on-curve"] else EXIT_CHECK_FAILED), body


def _cmd_describe(args, tols):
    curve = _load_curve(args)
    body = {
        "inputs": {"curve": jsonio.curve_to_json(curve)},
        "genus": curve.genus,
        "gaps": list(curve.gaps),
        "family": curve.family,
        "wgt_sigma": curve.sigma_weight(),
        "monomials": [str(m) for m in curve.monomials_up_to(3 * curve.genus)],
    }
    return EXIT_OK, body


def _cmd_uniformize(args, tols):
    curve = _load_curve(args)
    D = _load_divisor(curve, args.divisor, tols)
    rec = divisor_to_basis(curve, D)
    if args.extended and (curve.n, curve.s) == (3, 4):
        rec = extended_34(curve, rec)
    body = {
        "inputs": {"curve": jsonio.curve_to_json(curve), "divisor": jsonio.divisor_to_json(D)},
        "record": jsonio.record_to_json(rec),
    }
    return EXIT_OK, body


def _cmd_invert_basis(args, tols):
    curve = _load_curve(args)
    D = basis_to_divisor(curve, jsonio.record_from_json(jsonio.load_json(args.basis)))
    return _divisor_result({"curve": jsonio.curve_to_json(curve)}, D, tols)


def _cmd_negate(args, tols):
    curve = _load_curve(args)
    D = _load_divisor(curve, args.divisor, tols)
    inputs = {"curve": jsonio.curve_to_json(curve), "divisor": jsonio.divisor_to_json(D)}
    return _divisor_result(inputs, divisor_negate(curve, D), tols)


def _cmd_add(args, tols):
    curve = _load_curve(args)
    D1, D2 = (_load_divisor(curve, path, tols) for path in args.divisors)
    inputs = {
        "curve": jsonio.curve_to_json(curve),
        "divisors": [jsonio.divisor_to_json(D1), jsonio.divisor_to_json(D2)],
    }
    return _divisor_result(inputs, divisor_add(curve, D1, D2), tols)


def _cmd_verify_identities(args, tols):
    curve = _load_curve(args)
    divisors = _divisors(args, curve, tols)
    worst: dict = {}
    for D in divisors:
        keep_worst(worst, identity_residuals(curve, D))
    body = {
        "inputs": {"curve": jsonio.curve_to_json(curve)},
        "trials": len(divisors),
        "residuals": worst,
        "tolerances": {"identity": tols["identity"], "identity-extended": tols["identity-extended"]},
    }
    return (EXIT_OK if identities_pass(worst, tols) else EXIT_CHECK_FAILED), body


def _cmd_periods(args, tols):
    curve = _load_curve(args)
    pd = period_matrices(curve)
    riemann_characteristic(pd)
    ok = pd.legendre_residual < tols["legendre"]
    body = {
        "inputs": {"curve": jsonio.curve_to_json(curve)},
        "periods": jsonio.period_to_json(pd),
    }
    return (EXIT_OK if ok else EXIT_CHECK_FAILED), body


def _cmd_theta_bridge(args, tols):
    curve = _load_curve(args)
    pd = period_matrices(curve)
    ch = riemann_characteristic(pd)
    rows = []
    worst = 0.0
    for D in _divisors(args, curve, tols):
        u, errors = bridge_errors(curve, D, pd, ch)
        rows.append({"u": [[z.real, z.imag] for z in u], **errors})
        worst = max(worst, *errors.values())
    body = {
        "inputs": {"curve": jsonio.curve_to_json(curve)},
        "legendre_residual": pd.legendre_residual,
        "bridge": rows,
        "worst": worst,
        "tolerance": tols["bridge"],
    }
    return (EXIT_OK if worst < tols["bridge"] else EXIT_CHECK_FAILED), body


def _cmd_selftest(args, tols):
    report = run_acceptance(
        seed=args.seed,
        suites=args.suites,
        tol_overrides=tols,
        echo=lambda line: print(line, file=sys.stderr),
    )
    if not args.with_timings:
        for c in report["criteria"]:
            c.pop("elapsed_s", None)
    return (EXIT_OK if report["ok"] else EXIT_CHECK_FAILED), report


def main(argv=None) -> int:
    ap = build_parser()
    try:
        args = ap.parse_args(argv)
        status, report = run(args)
    except (InputError, InvalidCurveError, FileNotFoundError) as exc:
        # domain violations (unsupported family, wrong degrees, bad weights)
        # are input problems, not numerical failures
        print(json.dumps({"error": str(exc), "kind": "input"}), file=sys.stderr)
        return EXIT_INPUT
    except KleinianError as exc:
        print(json.dumps({"error": str(exc), "kind": type(exc).__name__}), file=sys.stderr)
        return EXIT_NUMERIC
    text = json.dumps(report, indent=2, sort_keys=True)
    if args.output:
        with open(args.output, "w") as fh:
            fh.write(text + "\n")
    else:
        print(text)
    return status


if __name__ == "__main__":
    sys.exit(main())
