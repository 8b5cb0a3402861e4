"""Command-line interface: catalog, analyze, kernel, scan, minimize, integrate, verify.

Scalars cross this boundary as strings read by ``Scalar.parse`` ("1/3",
"0.25", "-1/2*sqrt(5)", "(1+sqrt(5))/2").  Exit codes: 0 success, 1
verification/runtime failure, 2 invalid rule, parameter or scalar,
3 numerical-ambiguity flag raised under --strict.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
from pathlib import Path

from .bounds import bound_scan, export_scan_csv, export_scan_json, minimize_bound
from .composite import composite_integrate
from .errors import PeanoQuadError
from .exactness import degree_of_exactness
from .peano import export_kernel_csv, export_kernel_json, kernel_l1_norm, verify_peano_identity
from .polynomials import Polynomial
from .rules import _PY_NAMES, CATALOG, family, make_rule, rule_to_json_dict
from .scalars import Scalar

_EXIT_OK = 0
_EXIT_FAIL = 1
_EXIT_BAD_SPEC = 2
_EXIT_AMBIGUOUS = 3

_MAX_REPORT_ORDER = 8


def _write(path: str, write) -> None:
    """Call ``write`` on the output path, under $PEANOQUAD_OUTDIR when that is
    set and the path is relative, and report the file written."""
    base = os.environ.get("PEANOQUAD_OUTDIR")
    if base and not os.path.isabs(path):
        os.makedirs(base, exist_ok=True)
        path = os.path.join(base, path)
    write(path)
    print(f"wrote {path}")


def _write_json(payload: dict, path: str) -> None:
    _write(path, lambda p: Path(p).write_text(json.dumps(payload, indent=2) + "\n"))


def _parse_params(pairs: list[str]) -> dict:
    params = {}
    for item in pairs or ():
        name, sep, value = item.partition("=")
        if not sep:
            raise ValueError(f"expected name=value, got {item!r}")
        key = name.strip()
        params[_PY_NAMES.get(key, key)] = Scalar.parse(value.strip())
    return params


def _integrand(spec: str):
    """Named integrand with derivative: exp, sin, cos, runge, or poly:c0,c1,..."""
    if spec.startswith("poly:"):
        coeffs = [Scalar.parse(c) for c in spec[len("poly:"):].split(",")]
        p = Polynomial(coeffs)
        return p, p.derivative()
    table = {
        "exp": (math.exp, math.exp),
        "sin": (math.sin, math.cos),
        "cos": (math.cos, lambda t: -math.sin(float(t))),
        "runge": (
            lambda t: 1.0 / (1.0 + 25.0 * float(t) ** 2),
            lambda t: -50.0 * float(t) / (1.0 + 25.0 * float(t) ** 2) ** 2,
        ),
    }
    if spec not in table:
        raise ValueError(f"unknown function {spec!r}; use exp, sin, cos, runge, or poly:c0,c1,...")
    return table[spec]


def _cmd_catalog(args) -> int:
    for name, entry in CATALOG.items():
        params = ", ".join(entry.param_names) if entry.param_names else "no parameters"
        print(f"{name} ({params})")
        print(f"    {entry.description}")
    return _EXIT_OK


def _cmd_analyze(args) -> int:
    rule = make_rule(args.rule, **_parse_params(args.param))
    report = degree_of_exactness(rule, k_max=args.kmax)
    d = report.degree
    d_label = f">= {d}" if report.at_least else str(d)
    print(f"rule {rule.name}: degree of exactness {d_label}")
    if report.first_nonzero_index is not None:
        r_first = report.remainders[report.first_nonzero_index]
        print(f"  first nonzero remainder R(e_{report.first_nonzero_index}) = "
              f"{r_first.to_json_str(args.digits)}")
    constants = []
    for r in range(min(d, _MAX_REPORT_ORDER) + 1):
        rep = kernel_l1_norm(rule, r)
        m = rep.l1_norm
        exact = m.to_json_str() if m.is_exact else None
        decimal = m.to_decimal(args.digits)
        if exact is None:
            print(f"  M_{r} = {decimal}  (radius {rep.radius:.2g})")
        else:
            print(f"  M_{r} = {exact}" + ("" if m.is_rational else f" = {decimal}"))
        constants.append({
            "r": r,
            "value_decimal": decimal,
            "exact": exact,
            "radius": rep.radius,
        })
    if args.json:
        _write_json({
            "rule": rule_to_json_dict(rule),
            "degree": d,
            "degree_at_least": report.at_least,
            "remainders": [s.to_json_str(args.digits) for s in report.remainders],
            "constants": constants,
            "ambiguous_indices": list(report.ambiguous_indices),
        }, args.json)
    if args.strict and report.ambiguous_indices:
        print(f"numerically ambiguous remainder indices: {list(report.ambiguous_indices)}",
              file=sys.stderr)
        return _EXIT_AMBIGUOUS
    return _EXIT_OK


def _cmd_kernel(args) -> int:
    rule = make_rule(args.rule, **_parse_params(args.param))
    report = kernel_l1_norm(rule, args.r)
    print(f"rule {rule.name}, order {args.r}: M_{args.r} = {report.l1_norm.to_decimal(args.digits)}"
          f" (radius {report.radius:.2g})")
    if args.csv:
        _write(args.csv, lambda p: export_kernel_csv(report, p, args.grid, args.digits))
    if args.json:
        _write(args.json, lambda p: export_kernel_json(report, p, digits=args.digits))
    return _EXIT_OK


def _cmd_scan(args) -> int:
    fam = family(args.family, **_parse_params(args.param))
    scan = bound_scan(
        fam,
        args.r,
        grid_size=args.grid,
        lo=args.lo.as_fraction() if args.lo else None,
        hi=args.hi.as_fraction() if args.hi else None,
    )
    x, v = scan.minimizer
    print(f"family {fam.label()}, order {args.r}: grid {len(scan.grid)}")
    print(f"  minimizer x* = {x.to_decimal(args.digits)}, M = {v.to_decimal(args.digits)}")
    if scan.branch_points:
        print("  branch points: " + ", ".join(b.to_decimal(12) for b in scan.branch_points))
    if scan.multimodal_suspected:
        print("  warning: multimodal suspected; minimizer is grid-refined only")
    if args.csv:
        _write(args.csv, lambda p: export_scan_csv(scan, p, digits=args.digits))
    if args.json:
        _write(args.json, lambda p: export_scan_json(scan, p, digits=args.digits))
    return _EXIT_OK


def _cmd_minimize(args) -> int:
    fam = family(args.family, **_parse_params(args.param))
    res = minimize_bound(fam, args.r, tol=args.tol.as_fraction())
    print(f"family {fam.label()}, order {args.r}:")
    print(f"  x*  = {res.x.to_decimal(args.digits)}")
    print(f"  M_r = {res.value.to_decimal(args.digits)}")
    if res.multimodal_suspected:
        print("  warning: multimodal suspected")
    if args.json:
        _write_json({
            "family": fam.label(),
            "order": args.r,
            "x": res.x.to_decimal(args.digits),
            "value": res.value.to_decimal(args.digits),
            "multimodal_suspected": res.multimodal_suspected,
        }, args.json)
    return _EXIT_OK


def _cmd_integrate(args) -> int:
    rule = make_rule(args.rule, **_parse_params(args.param))
    f, fprime = _integrand(args.function)
    res = composite_integrate(
        rule, f, args.a, args.b, args.n, args.r, args.deriv_sup, fprime=fprime
    )
    print(f"composite {rule.name} on [{args.a}, {args.b}], {args.n} panel(s), order {args.r}:")
    print(f"  value       = {res.value.to_decimal(args.digits)}")
    print(f"  certificate = {res.certificate.to_decimal(args.digits)}"
          f"  (asserted sup |f^({args.r + 1})| = {res.deriv_sup_asserted.to_decimal(6)})")
    if args.json:
        _write_json({
            "rule": rule.name,
            "a": str(args.a), "b": str(args.b),
            "panels": res.panels,
            "order": res.order_used,
            "value": res.value.to_decimal(args.digits),
            "certificate": res.certificate.to_decimal(args.digits),
            "deriv_sup": res.deriv_sup_asserted.to_decimal(args.digits),
        }, args.json)
    return _EXIT_OK


def _cmd_verify(args) -> int:
    rule = make_rule(args.rule, **_parse_params(args.param))
    if args.r == 0 and rule.deriv_nodes:
        print("note: at order 0 the kernel omits the derivative-node point "
              "masses, so the identity below covers the value part only "
              "(use r >= 1 for the full functional)")
    ok = True
    tests = [Polynomial.monomial(args.r + 1 + k) for k in range(3)]
    tests.append(Polynomial([1, -2, 0, 3]) * Polynomial.monomial(max(args.r - 1, 0)))
    for f in tests:
        lhs, rhs = verify_peano_identity(rule, args.r, f)
        good = (lhs - rhs).zero_within()
        status = "ok" if good else "MISMATCH"
        print(f"  degree {f.degree}: remainder {lhs.to_decimal(12)}  kernel side "
              f"{rhs.to_decimal(12)}  [{status}]")
        ok = ok and good
    print("peano identity verified" if ok else "peano identity FAILED")
    return _EXIT_OK if ok else _EXIT_FAIL


def _scalar_arg(text: str) -> Scalar:
    try:
        return Scalar.parse(text)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from None


def _int_arg(least: int, text: str) -> int:
    try:
        value = int(text)
    except ValueError:
        value = least - 1
    if value < least:
        raise argparse.ArgumentTypeError(f"need an integer >= {least}, got {text!r}")
    return value


def _add_rule_args(p):
    p.add_argument("rule", help="catalog rule name (see `peanoquad catalog`)")
    p.add_argument("-p", "--param", action="append", default=[],
                   help="rule parameter name=value (repeatable), e.g. -p x=1/3")


def _add_family_args(p):
    p.add_argument("family", help="family name (rule with a free node x)")
    p.add_argument("-p", "--param", action="append", default=[],
                   help="fixed family parameter name=value (repeatable)")
    p.add_argument("--r", type=int, required=True, help="kernel order")


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="peanoquad",
        description="Sharp error constants and certified integration for "
                    "Birkhoff-type quadrature rules on [-1, 1].",
    )
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--digits", type=lambda t: _int_arg(1, t), default=17,
                        help="significant digits for decimal output (default 17)")
    sub = ap.add_subparsers(dest="command", required=True)

    sub.add_parser("catalog", parents=[common],
                   help="list every rule family and its parameter domains")

    p = sub.add_parser("analyze", parents=[common], help="degree of exactness and constants M_r")
    _add_rule_args(p)
    p.add_argument("--kmax", type=int, default=20, help="monomial search cap (default 20)")
    p.add_argument("--json", help="write the full report to this JSON file")
    p.add_argument("--strict", action="store_true",
                   help="exit 3 when any zero test was numerically ambiguous")

    p = sub.add_parser("kernel", parents=[common], help="export an order-r kernel as CSV/JSON")
    _add_rule_args(p)
    p.add_argument("--r", type=int, required=True, help="kernel order")
    p.add_argument("--grid", type=lambda t: _int_arg(2, t), default=2001,
                   help="CSV grid points (default 2001)")
    p.add_argument("--csv", help="CSV output path (columns t, K_r)")
    p.add_argument("--json", help="JSON sidecar path (breakpoints, pieces, norm)")

    p = sub.add_parser("scan", parents=[common], help="scan the bound function x -> M_r(x) of a family")
    _add_family_args(p)
    p.add_argument("--grid", type=lambda t: _int_arg(3, t), default=101)
    p.add_argument("--lo", type=_scalar_arg, help="scan window lower end (rational)")
    p.add_argument("--hi", type=_scalar_arg, help="scan window upper end (rational)")
    p.add_argument("--csv", help="CSV output path (columns x, M_r, branch_id)")
    p.add_argument("--json", help="JSON summary path")

    p = sub.add_parser("minimize", parents=[common], help="minimize the bound function of a family")
    _add_family_args(p)
    p.add_argument("--tol", type=_scalar_arg, default=Scalar.parse("1e-12"))
    p.add_argument("--json")

    p = sub.add_parser("integrate", parents=[common], help="composite integration with an error certificate")
    _add_rule_args(p)
    p.add_argument("--function", required=True,
                   help="exp | sin | cos | runge | poly:c0,c1,...")
    p.add_argument("--a", type=_scalar_arg, required=True)
    p.add_argument("--b", type=_scalar_arg, required=True)
    p.add_argument("--n", type=int, default=1, help="panel count (default 1)")
    p.add_argument("--r", type=int, required=True, help="bound order r <= degree")
    p.add_argument("--deriv-sup", type=_scalar_arg, required=True,
                   help="asserted sup norm of f^(r+1) on [a, b]")
    p.add_argument("--json")

    p = sub.add_parser("verify", parents=[common], help="check the kernel remainder identity on test polynomials")
    _add_rule_args(p)
    p.add_argument("--r", type=int, required=True)

    return ap


_HANDLERS = {
    "catalog": _cmd_catalog,
    "analyze": _cmd_analyze,
    "kernel": _cmd_kernel,
    "scan": _cmd_scan,
    "minimize": _cmd_minimize,
    "integrate": _cmd_integrate,
    "verify": _cmd_verify,
}


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return _HANDLERS[args.command](args)
    except (PeanoQuadError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return _EXIT_BAD_SPEC


if __name__ == "__main__":
    sys.exit(main())
