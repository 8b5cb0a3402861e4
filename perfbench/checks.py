"""Check each operation's output against the oracle.

``check(op, out)`` returns ``(ok, reason, known)``: ``known`` names the
documented defect a failure belongs to (see NOTES.md), or is None.  Oracle
values are computed at twice the working precision and cached per input.
"""

from __future__ import annotations

import csv
import json
import math
from fractions import Fraction

import mpmath

import oracle
from workloads import CATALOG, FAMILY_DOMAIN, FLOAT_SIZES, WORKING_DPS

F = Fraction
U = F(1, 2 ** 53)  # unit roundoff of a double


def csv_rows(text: str) -> list[list[str]]:
    return list(csv.reader(text.splitlines()))


def slack(wp: int, scale=1) -> Fraction:
    """Allowance for the oracle's own rounding at twice the precision."""
    return F(1, 10 ** (3 * wp // 2)) * max(F(1), abs(F(scale)))


def bounds(s) -> tuple[Fraction, Fraction]:
    """Exact endpoints of a library Scalar's enclosure."""
    if s.is_rational:
        f = s.as_fraction()
        return f, f
    lo, hi = s.interval()._mpi_
    return oracle.to_fraction(mpmath.mp.make_mpf(lo)), oracle.to_fraction(mpmath.mp.make_mpf(hi))


def encloses(s, ref, wp: int) -> bool:
    """The library value equals an exact reference, or encloses it."""
    if isinstance(ref, F) and s.is_rational:
        return s.as_fraction() == ref
    r = oracle.to_fraction(ref)
    lo, hi = bounds(s)
    sl = slack(wp, r)
    return lo - sl <= r <= hi + sl


class Checker:
    def __init__(self):
        self._cache = {}

    def _memo(self, key, fn):
        key = json.dumps(key, sort_keys=True)
        if key not in self._cache:
            self._cache[key] = fn()
        return self._cache[key]

    # -- oracle values, at twice the working precision --------------------

    def m_r(self, rule: dict, r: int, wp: int):
        def calc():
            with mpmath.workdps(2 * wp):
                return oracle.l1_norm(oracle.rule_nodes(rule), r)
        return self._memo(["m", rule, r, wp], calc)

    def degree(self, rule: dict, wp: int) -> int:
        def calc():
            with mpmath.workdps(2 * wp):
                return oracle.degree(oracle.rule_nodes(rule), zero_tol=slack(wp))
        return self._memo(["d", rule, wp], calc)

    def family_m(self, fam: dict, r: int, x: Fraction, wp: int = WORKING_DPS):
        rule = {"kind": "catalog", "name": fam["name"], "params": {**fam["fixed"], "x": str(x)}}
        return self.m_r(rule, r, wp)

    # -- per kind ----------------------------------------------------------

    def check(self, op, out):
        fn = getattr(self, "_check_" + op.kind)
        with mpmath.workdps(2 * WORKING_DPS):
            return fn(op.spec, out)

    def _check_kernel(self, s, out):
        rule, r, wp = s["rule"], s["r"], s["dps"]
        if "degree" in out and out["degree"] != self.degree(rule, wp):
            return False, f"degree {out['degree']} != {self.degree(rule, wp)}", None
        m = self.m_r(rule, r, wp)
        if not encloses(out["m"], m, wp):
            reason = f"M_{r} = {out['m']} misses the oracle {mpmath.nstr(oracle.to_mpf(m), 25)}"
            with mpmath.workdps(2 * wp):
                nodes = oracle.rule_nodes(rule)
                missed = oracle.root_count(nodes, r) - out["sign_changes"]
            if missed > 0 and oracle.is_exact(nodes):
                # the exact Sturm path lost kernel roots (see
                # workloads.known_deadline_defect for the cause)
                return False, f"{reason}; {missed} kernel root(s) missed", "sturm-miss"
            return False, reason, None
        name = rule.get("name")
        if rule["kind"] == "catalog" and name == "simpson":
            want = (F(5, 9), F(8, 81), F(1, 36), F(1, 90))[r]
            if not (out["m"].is_rational and out["m"].as_fraction() == want):
                return False, f"simpson M_{r} = {out['m']} is not exactly {want}", None
        if rule["kind"] == "catalog" and name == "gauss_legendre2" and r == 2:
            with mpmath.workdps(2 * wp):
                ref = (9 - 4 * mpmath.sqrt(3)) / 108
            if not encloses(out["m"], ref, wp):
                return False, "gauss_legendre2 M_2 misses (9 - 4 sqrt 3)/108", None
        if s["poly"] is not None:
            with mpmath.workdps(2 * wp):
                rem = oracle.remainder(oracle.rule_nodes(rule), [F(c) for c in s["poly"]])
            lhs, rhs = out["lhs"], out["rhs"]
            if lhs.is_rational and rhs.is_rational:
                same = lhs.as_fraction() == rhs.as_fraction()
            else:
                (a, b), (c, d) = bounds(lhs), bounds(rhs)
                same = a <= d and c <= b
            if not (same and encloses(lhs, rem, wp) and encloses(rhs, rem, wp)):
                return False, f"peano identity lhs {lhs} rhs {rhs} remainder {mpmath.nstr(rem, 20)}", None
        return True, None, None

    def _local_min(self, fam, r, x: Fraction, v: float, lo=None, hi=None):
        """No oracle value a step of 1e-6 to either side, inside [lo, hi]
        (default: the open family domain), is below v."""
        if lo is None:
            if fam["name"] not in FAMILY_DOMAIN:
                return None
            lo, hi = FAMILY_DOMAIN[fam["name"]]
        tol = 1e-11 * (1 + abs(v))
        for probe in (x - F(1, 10 ** 6), x + F(1, 10 ** 6)):
            if not lo < probe < hi:
                continue
            if float(self.family_m(fam, r, probe)) < v - tol:
                return f"oracle M_{r}({float(probe)}) is below the reported minimum {v}"
        return None

    def _check_scan(self, s, out):
        fam, r = s["family"], s["r"]
        scan = out["scan"]
        grid = [g.as_fraction() for g in scan.grid]
        if len(grid) != s["grid"] or out["csv_rows"] != s["grid"] + 1:
            return False, "grid or CSV row count is wrong", None
        for i in sorted({0, len(grid) // 2, len(grid) - 1}):
            if not encloses(scan.values[i], self.family_m(fam, r, grid[i]), WORKING_DPS):
                return False, f"M_{r}({grid[i]}) = {scan.values[i]} misses the oracle", None
        x, v = scan.minimizer
        xf = x.as_fraction()
        if not encloses(v, self.family_m(fam, r, xf), WORKING_DPS):
            return False, f"minimum value {v} misses the oracle at x = {xf}", None
        vf = float(v)
        if vf > min(float(g) for g in scan.values) + 1e-12 * (1 + abs(vf)):
            return False, "refined minimum is above a grid value", None
        # the scan minimizes over its grid window, not the open domain
        bad = self._local_min(fam, r, xf, vf, grid[0], grid[-1])
        if bad:
            return False, bad, None
        if fam["name"] == "gs2" and r == 1:
            s3 = math.sqrt(3)
            if abs(float(xf) - (4 - 2 * s3)) > 2e-12 or abs(vf - (7 - 4 * s3)) > 1e-11:
                return False, f"gs2 M_1 minimizer ({float(xf)}, {vf}) is not 4-2sqrt3, 7-4sqrt3", None
        if abs(float(out["json"]["minimizer"]["x_decimal"]) - float(xf)) > 1e-15:
            return False, "JSON export minimizer disagrees with the scan", None
        return True, None, None

    def _check_minimize(self, s, out):
        fam, r = s["family"], s["r"]
        res = out["min"]
        xf = res.x.as_fraction()
        if not encloses(res.value, self.family_m(fam, r, xf), WORKING_DPS):
            return False, f"minimum value {res.value} misses the oracle at x = {xf}", None
        if res.multimodal_suspected:
            # documented: a flagged result is only the best grid-refined value
            return True, None, None
        vf = float(res.value)
        bad = self._local_min(fam, r, xf, vf)
        if bad:
            return False, bad, None
        lo, hi = FAMILY_DOMAIN.get(fam["name"], (None, None))
        if lo is not None:
            for k in range(1, 9):
                xg = lo + (hi - lo) * F(k, 9)
                if float(self.family_m(fam, r, xg)) < vf - 1e-11 * (1 + abs(vf)):
                    return False, f"oracle M_{r}({xg}) is below the reported minimum", None
        return True, None, None

    def _check_alomari4(self, s, out):
        lam = F(s["lambda"])
        x, v = out["pair"]
        want = ((1 - lam) / 2, (3 * lam * lam - 2 * lam + 1) / 2)
        if not (x.is_rational and v.is_rational and (x.as_fraction(), v.as_fraction()) == want):
            return False, f"alomari4_min_m0({lam}) = ({x}, {v}), want {want}", None
        return True, None, None

    def _float_allowance(self, s, n: int) -> Fraction:
        """Bound on the error from evaluating f in floating point at rounded
        nodes, which the certificate does not cover."""
        fmax, d1, d2 = FLOAT_SIZES[s["f"]]
        a, b = F(s["a"]), F(s["b"])
        rule = {"kind": "catalog", "name": s["rule"], "params": {}}
        vals, ders = oracle.rule_nodes(rule)
        h = (b - a) / (2 * n)
        wsum = sum(abs(oracle.to_fraction(w)) for _, w in vals) * (b - a) / 2
        dsum = sum(abs(oracle.to_fraction(w)) for _, w in ders) * (b - a) / 2 * h
        xmax = max(abs(a), abs(b))
        return 4 * U * (wsum * (fmax + d1 * xmax) + dsum * (d1 + d2 * xmax))

    def _containment(self, s, value_bounds, cert_hi, n, wp=WORKING_DPS):
        a, b = F(s["a"]), F(s["b"])
        if s["f"] == "poly":
            truth = oracle.poly_integral([F(c) for c in s["coeffs"]], a, b)
            sl = F(0)
        else:
            truth = oracle.to_fraction(oracle.integral(s["f"], a, b))
            sl = slack(wp, truth)
        vlo, vhi = value_bounds
        miss = max(vlo - cert_hi - truth, truth - vhi - cert_hi, F(0)) - sl
        if miss <= 0:
            return True, None, None
        reason = (f"true integral is {float(miss):.3g} outside value +- certificate "
                  f"(certificate {float(cert_hi):.3g})")
        if s["f"] != "poly" and miss <= self._float_allowance(s, n):
            return False, reason, "float-eval-certificate"
        return False, reason, None

    def _check_integrate(self, s, out):
        res = out["res"]
        if res.panels != s["n"]:
            return False, "panel count differs", None
        return self._containment(s, bounds(res.value), bounds(res.certificate)[1], s["n"])

    def _check_panels(self, s, out):
        r, n = s["r"], out["n"]
        rule = {"kind": "catalog", "name": s["rule"], "params": {}}
        m = oracle.to_mpf(self.m_r(rule, r, WORKING_DPS))
        w = oracle.to_mpf(F(s["b"]) - F(s["a"]))
        c = m * (w / 2) ** (r + 2) * oracle.to_mpf(F(s["deriv_sup"]))
        eps = oracle.to_mpf(F(s["eps"]))
        rel = mpmath.mpf(10) ** -40
        if c / n ** (r + 1) > eps * (1 + rel):
            return False, f"certificate with {n} panels exceeds eps", None
        if n > 1 and c / (n - 1) ** (r + 1) <= eps * (1 - rel):
            return False, f"{n - 1} panels already meet eps", None
        return True, None, None

    # -- CLI ---------------------------------------------------------------

    def _check_cli(self, s, out):
        sub, argv = s["subcommand"], s["argv"]
        if out["code"] != 0:
            return False, f"{sub} exited {out['code']}", None
        files = out["files"]
        stdout = files.get("stdout.txt", "")
        if sub == "catalog":
            listed = {line.split(" ")[0] for line in stdout.splitlines() if not line.startswith(" ")}
            if listed != set(CATALOG):
                return False, "catalog listing differs from the catalog", None
            return True, None, None
        if sub == "analyze":
            return self._cli_analyze(argv, json.loads(files["analyze.json"]))
        if sub == "kernel":
            return self._cli_kernel(argv, json.loads(files["kernel.json"]), files["kernel.csv"])
        if sub == "scan":
            js = json.loads(files["scan.json"])
            x, v = float(js["minimizer"]["x_decimal"]), float(js["minimizer"]["value_decimal"])
            s3 = math.sqrt(3)
            if abs(x - (4 - 2 * s3)) > 2e-12 or abs(v - (7 - 4 * s3)) > 1e-11:
                return False, f"scan gs2 r=1 minimizer ({x}, {v}) is not 4-2sqrt3, 7-4sqrt3", None
            if len(csv_rows(files["scan.csv"])) != js["grid_size"] + 1:
                return False, "scan CSV row count is wrong", None
            return True, None, None
        if sub == "minimize":
            js = json.loads(files["minimize.json"])
            fam = {"name": argv[1], "fixed": {}}
            r = int(argv[argv.index("--r") + 1])
            x = F(js["x"])
            v = float(js["value"])
            m = float(self.family_m(fam, r, x))
            if abs(m - v) > 1e-14 * (1 + abs(v)):
                return False, f"minimize value {v} differs from the oracle {m}", None
            bad = None if js["multimodal_suspected"] else self._local_min(fam, r, x, v)
            return (False, bad, None) if bad else (True, None, None)
        if sub == "integrate":
            js = json.loads(files["integrate.json"])
            spec = {"rule": argv[1], "f": argv[argv.index("--function") + 1],
                    "a": argv[argv.index("--a") + 1], "b": argv[argv.index("--b") + 1]}
            value, cert = F(js["value"]), F(js["certificate"])
            rounding = abs(value) * F(1, 10 ** 15)
            return self._containment(spec, (value - rounding, value + rounding), cert, js["panels"])
        if sub == "verify":
            if "peano identity verified" not in stdout:
                return False, "verify did not report success", None
            return self._cli_verify(argv, stdout)
        return False, f"unknown subcommand {sub}", None

    def _cli_analyze(self, argv, js):
        rule = {"kind": "catalog", "name": argv[1],
                "params": dict(p.split("=", 1) for p in argv[3:argv.index("--json"):2])}
        if js["degree"] != self.degree(rule, WORKING_DPS):
            return False, f"analyze degree {js['degree']} differs from the oracle", None
        for c in js["constants"]:
            m = self.m_r(rule, c["r"], WORKING_DPS)
            if c["exact"] is not None:
                ok = F(c["exact"]) == m if isinstance(m, F) else abs(F(c["exact"]) - oracle.to_fraction(m)) <= slack(WORKING_DPS)
            else:
                ok = abs(float(c["value_decimal"]) - float(m)) <= 1e-15 * abs(float(m)) + c["radius"]
            if not ok:
                return False, f"analyze M_{c['r']} differs from the oracle", None
        return True, None, None

    def _cli_kernel(self, argv, js, csv_text):
        rule = {"kind": "catalog", "name": argv[1], "params": {}}
        r = int(argv[argv.index("--r") + 1])
        m = float(self.m_r(rule, r, WORKING_DPS))
        if abs(float(js["l1_norm_decimal"]) - m) > 1e-15 * m + js["radius"]:
            return False, "kernel JSON l1_norm differs from the oracle", None
        rows = csv_rows(csv_text)[1:]
        if len(rows) != 2001:
            return False, "kernel CSV row count is wrong", None
        nodes = oracle.rule_nodes(rule)
        scale = max(abs(float(v)) for _, v in rows)
        for i in (0, 400, 1000, 1600, 2000):
            t = F(rows[i][0])
            ref = float(oracle.kernel_value(nodes, r, t))
            if abs(float(rows[i][1]) - ref) > 1e-15 * scale:
                return False, f"kernel CSV K_{r}({t}) = {rows[i][1]} differs from the oracle {ref}", None
        return True, None, None

    def _cli_verify(self, argv, stdout):
        rule = {"kind": "catalog", "name": argv[1], "params": {}}
        r = int(argv[argv.index("--r") + 1])
        nodes = oracle.rule_nodes(rule)
        tests = [[F(0)] * (r + 1 + k) + [F(1)] for k in range(3)]
        tests.append([F(0)] * max(r - 1, 0) + [F(1), F(-2), F(0), F(3)])
        lines = [ln for ln in stdout.splitlines() if ln.strip().startswith("degree")]
        if len(lines) != len(tests):
            return False, "verify printed an unexpected number of cases", None
        for f, line in zip(tests, lines):
            shown = float(line.split("remainder")[1].split()[0])
            rem = float(oracle.remainder(nodes, f))
            if abs(shown - rem) > 1e-11 * max(1.0, abs(rem)):
                return False, f"verify remainder {shown} differs from the oracle {rem}", None
        return True, None, None
