"""The four benchmark workloads: seeded inputs, the calls into the library,
and the checks of every output against the oracle.

Input generation uses only the standard library (no mpmath, no peanoquad),
so a set-up probe can generate its inputs before it starts the clock on
``import peanoquad``.  The library sees only the generated inputs.

Why each workload exists (see NOTES.md for the predictions they support):

* rule_analysis    exact Sturm and interval root isolation dominate; bounds
                   and composite stay idle.
* family_scan      hundreds of kernel builds per call at rational x; the
                   bounds caches and interval tier show; almost no Sturm work.
* composite_panels per-panel rule mapping and scalar arithmetic; one kernel
                   per call; panel counts from 8 to 10000.
* cli_session      whole CLI processes: import cost and the cli layer.
"""

from __future__ import annotations

import json
import math
import os
import random
import re
import subprocess
from dataclasses import dataclass
from fractions import Fraction

F = Fraction

WORKLOADS = ("rule_analysis", "family_scan", "composite_panels", "cli_session")

#: catalog entries and the degree of exactness every parameter value
#: reaches (the catalog's generic degree)
CATALOG = {
    "ostrowski": 0, "mp3": 1, "mod3": 1, "mod3_opt": 2, "simpson": 3, "dcr": 0, "gs2": 1,
    "gauss_legendre2": 3, "franjic": 1, "radau2": 2, "alomari2": 0, "alomari4": 1,
    "lobatto4": 5, "liu_park": 1, "liu_park_gauss": 3, "dragomir_sofo": 1, "q44": 1,
}
SQRT_RULES = ("gauss_legendre2", "lobatto4", "liu_park_gauss")
#: one-parameter families (free node x) and the parameters they pin
FAMILIES = {
    "ostrowski": (), "mp3": (), "mod3": ("lambda",), "mod3_opt": (), "dcr": ("lambda",),
    "gs2": (), "franjic": (), "alomari4": ("lambda",), "liu_park": (),
    "dragomir_sofo": (), "q44": ("lambda", "gamma", "delta"),
}
#: family domains for x (dcr's depends on lambda)
FAMILY_DOMAIN = {
    "ostrowski": (F(-1), F(1)), "mp3": (F(-1), F(1)), "mod3": (F(-1), F(1)),
    "mod3_opt": (F(-1), F(1)), "gs2": (F(0), F(1)), "franjic": (F(-1), F(1)),
    "alomari4": (F(0), F(1)), "liu_park": (F(0), F(1)), "dragomir_sofo": (F(-1), F(1)),
    "q44": (F(0), F(1)),
}

WORKING_DPS = 60
#: per-operation time limits in seconds, far above any correct operation;
#: the known Sturm hang is cut sooner (see run.Deadline)
DEADLINE = {"rule_analysis": 10.0, "family_scan": 30.0, "composite_panels": 30.0,
            "cli_session": 60.0}


#: seconds one round takes on the reference machine (2 cores, Python
#: 3.11, mpmath 1.3 on its Python backend).  A run measures a fixed number
#: of whole rounds sized from --seconds with these, so the mix of
#: operations, the sample count and the tail percentile do not depend on
#: how fast the machine happens to be during the run.
ROUND_SECONDS = {"rule_analysis": 2.0, "family_scan": 15.0, "composite_panels": 5.3,
                 "cli_session": 3.1}


def rounds_for(workload: str, seconds: float) -> int:
    return max(1, round(seconds / ROUND_SECONDS[workload]))


def fstr(q: Fraction) -> str:
    return str(q.numerator) if q.denominator == 1 else f"{q.numerator}/{q.denominator}"


@dataclass
class Op:
    id: str
    kind: str
    spec: dict


@dataclass
class Plan:
    workload: str
    seed: int
    warmup: Op
    rounds: list  # list[list[Op]]; a run cycles through them

    def inputs(self) -> dict:
        return {
            "workload": self.workload,
            "seed": self.seed,
            "warmup": [self.warmup.id, self.warmup.spec],
            "rounds": [[[op.id, op.spec] for op in rnd] for rnd in self.rounds],
        }


# --------------------------------------------------------------------------
# seeded inputs


def _rat(rng: random.Random, lo: Fraction, hi: Fraction, open_lo=True, open_hi=True,
         max_den=24) -> Fraction:
    """Seeded rational strictly inside (lo, hi) (or on a closed end)."""
    while True:
        den = rng.randint(2, max_den)
        num = rng.randint(math.floor(lo * den), math.ceil(hi * den))
        q = F(num, den)
        if (lo < q or (not open_lo and q == lo)) and (q < hi or (not open_hi and q == hi)):
            return q


def catalog_params(rng: random.Random, name: str) -> dict:
    """Seeded rational parameters inside the entry's domain."""
    one = F(1)
    if name in ("ostrowski", "mp3", "mod3_opt", "franjic", "dragomir_sofo"):
        p = {"x": _rat(rng, -one, one)}
    elif name == "mod3":
        p = {"x": _rat(rng, -one, one), "lambda": _rat(rng, F(0), one, open_hi=False)}
    elif name == "dcr":
        lam = _rat(rng, F(0), F(2, 3))
        p = {"lambda": lam, "x": _rat(rng, -1 + 3 * lam / 2, 1 - 3 * lam / 2)}
    elif name in ("gs2", "liu_park"):
        p = {"x": _rat(rng, F(0), one)}
    elif name == "alomari2":
        lam = _rat(rng, F(-1, 2), F(1, 2))
        p = {"lambda": lam, "x": _rat(rng, -one, lam), "y": _rat(rng, lam, one)}
    elif name == "alomari4":
        p = {"lambda": _rat(rng, F(0), one), "x": _rat(rng, F(0), one)}
    elif name == "q44":
        p = {"lambda": _rat(rng, F(0), one), "gamma": _rat(rng, F(-1, 4), F(1, 4)),
             "delta": _rat(rng, F(-1, 4), F(1, 4)), "x": _rat(rng, F(0), one)}
    else:
        p = {}
    return p


def _solve(rows, rhs):
    """Exact Gauss-Jordan elimination over the rationals."""
    n = len(rhs)
    m = [list(r) + [b] for r, b in zip(rows, rhs)]
    for c in range(n):
        piv = next(i for i in range(c, n) if m[i][c] != 0)
        m[c], m[piv] = m[piv], m[c]
        for i in range(n):
            if i != c and m[i][c] != 0:
                f = m[i][c] / m[c][c]
                m[i] = [a - f * b for a, b in zip(m[i], m[c])]
    return [m[i][n] / m[i][i] for i in range(n)]


def _moment(k: int) -> Fraction:
    return F(2, k + 1) if k % 2 == 0 else F(0)


def random_rule(rng: random.Random, label: str, n: int, double: bool) -> tuple[dict, int]:
    """A random rational custom rule on n distinct nodes of the 1/25 grid, and
    the degree its construction reaches: interpolatory (degree >= n - 1), or
    with value and derivative weights at every node (degree >= 2n - 1)."""
    while True:
        xs = sorted({F(rng.randint(-25, 25), 25) for _ in range(n)})
        if len(xs) == n:
            break
    if not double:
        ws = _solve([[x ** j for x in xs] for j in range(n)], [_moment(j) for j in range(n)])
        spec = {"kind": "custom", "name": label,
                "value_nodes": [[fstr(x), fstr(w)] for x, w in zip(xs, ws)], "deriv_nodes": []}
        return spec, n - 1
    rows = [[x ** j for x in xs] + [j * x ** (j - 1) if j else F(0) for x in xs]
            for j in range(2 * n)]
    ws = _solve(rows, [_moment(j) for j in range(2 * n)])
    spec = {"kind": "custom", "name": label,
            "value_nodes": [[fstr(x), fstr(w)] for x, w in zip(xs, ws[:n])],
            "deriv_nodes": [[fstr(x), fstr(w)] for x, w in zip(xs, ws[n:]) if w != 0]}
    return spec, 2 * n - 1


def _poly(rng: random.Random, degree: int) -> list[str]:
    return [fstr(F(rng.randint(-9, 9), rng.randint(1, 7))) for _ in range(degree)] + [
        fstr(F(rng.choice((-1, 1)) * rng.randint(1, 9), rng.randint(1, 7)))]


def _kernel_ops(rng, rule: dict, degree: int, dps: int, tag: str) -> list[Op]:
    ops = []
    has_derivs = bool(rule.get("deriv_nodes")) or rule.get("name") in (
        "liu_park", "liu_park_gauss", "dragomir_sofo", "q44")
    for r in range(min(degree, 8) + 1):
        # at r = 0 the kernel omits derivative-node point masses, so the
        # remainder identity is only claimed from r = 1 for such rules
        poly = None if (r == 0 and has_derivs) else _poly(rng, r + 2)
        ops.append(Op(f"{tag}/r{r}@{dps}", "kernel",
                      {"rule": rule, "r": r, "dps": dps, "poly": poly, "degree": r == 0}))
    return ops


def _plan_rule_analysis(rng, seed) -> Plan:
    catalog_ops = []
    for name, degree in CATALOG.items():
        params = catalog_params(rng, name)
        rule = {"kind": "catalog", "name": name, "params": {k: fstr(v) for k, v in params.items()}}
        for dps in ((WORKING_DPS, 2 * WORKING_DPS) if name in SQRT_RULES else (WORKING_DPS,)):
            catalog_ops.extend(_kernel_ops(rng, rule, degree, dps, name))
    # every round has the same number of random rules of each shape, so the
    # seed changes the nodes but not the mix of kernel sizes
    shapes = [(n, False) for n in (3, 4, 5, 6) for _ in range(3)]
    shapes += [(n, True) for n in (2, 3) for _ in range(4)]
    rounds = []
    for k in range(16):
        ops = list(catalog_ops)
        for j, (n, double) in enumerate(shapes):
            spec, degree = random_rule(rng, f"rand{k}.{j}", n, double)
            ops.extend(_kernel_ops(rng, spec, degree, WORKING_DPS, spec["name"]))
        rng.shuffle(ops)
        rounds.append(ops)
    warm = Op("warmup", "kernel", {"rule": {"kind": "catalog", "name": "simpson", "params": {}},
                                   "r": 3, "dps": WORKING_DPS, "poly": None, "degree": True})
    return Plan("rule_analysis", seed, warm, rounds)


def _family_spec(name: str, fixed: dict) -> dict:
    return {"name": name, "fixed": {k: fstr(v) for k, v in fixed.items()}}


#: seeded pinned parameters of the families come from these narrow ranges,
#: where the number of branch points (and so the cost of a scan) holds still
FAMILY_PINNED = {
    "mod3": {"lambda": (F(2, 5), F(3, 5))},
    "dcr": {"lambda": (F(1, 5), F(1, 3))},
    "alomari4": {"lambda": (F(1, 6), F(1, 4))},
    "q44": {"lambda": (F(1, 6), F(1, 4)), "gamma": (F(1, 40), F(1, 20)),
            "delta": (F(1, 12), F(1, 8))},
}


def _plan_family_scan(rng, seed) -> Plan:
    ops = []
    for name, pinned in FAMILIES.items():
        fixed = {k: _rat(rng, *FAMILY_PINNED[name][k], max_den=60) for k in pinned}
        fam = _family_spec(name, fixed)
        top = CATALOG[name]
        for r in range(top + 1):
            grid = 101 if (name, r) == ("gs2", 1) else 33
            ops.append(Op(f"scan/{name}/r{r}", "scan", {"family": fam, "r": r, "grid": grid}))
        ops.append(Op(f"minimize/{name}/r{top}", "minimize", {"family": fam, "r": top}))
    ops.append(Op("minimize/liu_park/r0", "minimize",
                  {"family": _family_spec("liu_park", {}), "r": 0}))
    lams = ["1/5"] + [fstr(_rat(rng, *FAMILY_PINNED["alomari4"]["lambda"], max_den=60))
                      for _ in range(2)]
    for k, lam in enumerate(lams):
        ops.append(Op(f"alomari4_min_m0/{k}", "alomari4", {"lambda": lam}))
    rng.shuffle(ops)
    warm = Op("warmup", "scan", {"family": _family_spec("mp3", {}), "r": 0, "grid": 33})
    return Plan("family_scan", seed, warm, [ops])


#: composite integrands: (sup |f|, sup |f'|, sup |f''|) bounds on any
#: interval inside [-1, 2], used only to tell float evaluation error apart
#: from other certificate misses
FLOAT_SIZES = {"exp": (8, 8, 8), "sin": (1, 1, 1), "cos": (1, 1, 1), "runge": (1, 4, 50)}
COMPOSITE_RULES = (("simpson", 3), ("radau2", 2), ("gauss_legendre2", 3), ("lobatto4", 5),
                   ("liu_park_gauss", 3))
#: panel-count bands; the seed picks n inside a band, so the cost of a round
#: barely moves from seed to seed
PANEL_LEVELS = ((8, 10), (100, 110), (480, 520))


def float_deriv_sup(fname: str, r: int, a: Fraction, b: Fraction) -> Fraction:
    """A valid upper bound of |f^(r+1)| on [a, b] for a named integrand."""
    if fname == "exp":
        # math.exp is within one ulp; pad by 2^-50 relative
        return F(math.exp(b)) * (1 + F(1, 2 ** 50))
    if fname in ("sin", "cos"):
        return F(1)
    # runge 1/(1+25t^2) = Re 1/(1+5it): |f^(k)| <= k! 5^k
    return F(math.factorial(r + 1) * 5 ** (r + 1))


def _poly_case(rng, r: int, a: Fraction, b: Fraction):
    """Polynomial of degree r+2 and the exact sup of |f^(r+1)| on [a, b]."""
    coeffs = [F(rng.randint(-9, 9), rng.randint(1, 5)) for _ in range(r + 3)]
    c1 = coeffs[r + 1] * math.factorial(r + 1)
    c2 = coeffs[r + 2] * math.factorial(r + 2)
    sup = max(abs(c1 + c2 * a), abs(c1 + c2 * b))
    return [fstr(c) for c in coeffs], sup


def _plan_composite(rng, seed) -> Plan:
    ops = []
    fnames = ("exp", "sin", "cos", "runge", "poly")
    i = 0
    for rule, r in COMPOSITE_RULES:
        for fname in fnames:
            lo, hi = PANEL_LEVELS[i % len(PANEL_LEVELS)]
            i += 1
            n = rng.randint(lo, hi)
            # no interval symmetric about 0: there an odd integrand's float
            # errors cancel exactly on a symmetric rule
            a = rng.choice((F(-1), F(-3, 4), F(0), F(1, 4)))
            b = a + 1
            spec = {"rule": rule, "r": r, "f": fname, "a": fstr(a), "b": fstr(b), "n": n}
            if fname == "poly":
                spec["coeffs"], sup = _poly_case(rng, r, a, b)
            else:
                sup = float_deriv_sup(fname, r, a, b)
            spec["deriv_sup"] = fstr(sup)
            ops.append(Op(f"integrate/{rule}/{fname}/n{n}", "integrate", spec))
        eps = F(rng.randint(1, 9), 10 ** rng.randint(6, 12))
        ops.append(Op(f"panels/{rule}", "panels",
                      {"rule": rule, "r": r, "a": "0", "b": "1", "eps": fstr(eps),
                       "deriv_sup": fstr(float_deriv_sup("exp", r, F(0), F(1)))}))
    # the case whose certificate is known not to hold (float evaluation
    # error is not covered); it stays in every seed
    ops.append(Op("integrate/simpson/exp/n10000", "integrate",
                  {"rule": "simpson", "r": 3, "f": "exp", "a": "0", "b": "1", "n": 10000,
                   "deriv_sup": fstr(F(math.e))}))
    rng.shuffle(ops)
    warm = Op("warmup", "integrate", {"rule": "simpson", "r": 3, "f": "exp", "a": "0", "b": "1",
                                      "n": 8, "deriv_sup": fstr(F(math.e))})
    return Plan("composite_panels", seed, warm, [ops])


def _plan_cli(rng, seed) -> Plan:
    # the seed varies values and order, not the cost of a round: every
    # subcommand keeps its rule and grid
    dcr = catalog_params(rng, "dcr")
    while dcr["x"] == 0:
        # x = 0 makes the rule symmetric, one degree more exact, and adds a
        # constant to every analyze output: exact_share would change with it
        dcr = catalog_params(rng, "dcr")
    fname = rng.choice(("exp", "sin", "cos"))
    n = rng.randint(8, 64)
    cmds = [
        ("catalog", ["catalog"]),
        ("analyze", ["analyze", "dcr", "-p", f"lambda={fstr(dcr['lambda'])}",
                     "-p", f"x={fstr(dcr['x'])}", "--json", "analyze.json"]),
        ("kernel", ["kernel", "lobatto4", "--r", "3", "--csv", "kernel.csv",
                    "--json", "kernel.json"]),
        ("scan", ["scan", "gs2", "--r", "1", "--csv", "scan.csv", "--json", "scan.json"]),
        ("minimize", ["minimize", "liu_park", "--r", "0", "--json", "minimize.json"]),
        ("integrate", ["integrate", "simpson", "--function", fname, "--a", "0", "--b", "1",
                       "--n", str(n), "--r", "3",
                       "--deriv-sup", fstr(float_deriv_sup(fname, 3, F(0), F(1))),
                       "--json", "integrate.json"]),
        ("verify", ["verify", "liu_park_gauss", "--r", "3"]),
    ]
    ops = [Op(f"cli/{name}", "cli", {"subcommand": name, "argv": argv}) for name, argv in cmds]
    rng.shuffle(ops)
    warm = Op("warmup", "cli", {"subcommand": "catalog", "argv": ["catalog"]})
    return Plan("cli_session", seed, warm, [ops])


def make_plan(workload: str, seed: int) -> Plan:
    rng = random.Random(f"peanoquad-bench:{workload}:{seed}")
    builders = {"rule_analysis": _plan_rule_analysis, "family_scan": _plan_family_scan,
                "composite_panels": _plan_composite, "cli_session": _plan_cli}
    return builders[workload](rng, seed)


# --------------------------------------------------------------------------
# executing operations (the only code that calls the library)


class Env:
    """What an operation needs besides its spec: the package, a scratch
    directory, and the command that starts the CLI."""

    def __init__(self, pq, scratch: str, cli_command: list[str], cli_env: dict):
        self.pq = pq
        self.scratch = scratch
        self.cli_command = cli_command
        self.cli_env = cli_env
        self.children = []  # peak RSS in KiB of each CLI process


def _make_rule(pq, spec: dict):
    if spec["kind"] == "catalog":
        params = {("lam" if k == "lambda" else k): F(v) for k, v in spec["params"].items()}
        return pq.make_rule(spec["name"], **params)
    return pq.custom_rule(
        spec["name"],
        [(F(x), F(w)) for x, w in spec["value_nodes"]],
        [(F(y), F(w)) for y, w in spec.get("deriv_nodes", [])],
    )


def _family(pq, fam: dict):
    fixed = {("lam" if k == "lambda" else k): F(v) for k, v in fam["fixed"].items()}
    return pq.family(fam["name"], **fixed)


def _integrand(fname: str):
    if fname == "exp":
        return math.exp, math.exp
    if fname == "sin":
        return math.sin, math.cos
    if fname == "cos":
        return math.cos, lambda t: -math.sin(float(t))
    return (lambda t: 1.0 / (1.0 + 25.0 * float(t) ** 2),
            lambda t: -50.0 * float(t) / (1.0 + 25.0 * float(t) ** 2) ** 2)


def execute(env: Env, op: Op):
    """Run one operation; returns the library's outputs as plain data."""
    pq = env.pq
    s = op.spec
    if op.kind == "kernel":
        pq.set_working_dps(s["dps"])
        try:
            rule = _make_rule(pq, s["rule"])
            out = {}
            if s["degree"]:
                out["degree"] = pq.degree_of_exactness(rule).degree
            rep = pq.kernel_l1_norm(rule, s["r"])
            out["m"] = rep.l1_norm
            out["sign_changes"] = len(rep.sign_changes)
            if s["poly"] is not None:
                out["lhs"], out["rhs"] = pq.verify_peano_identity(
                    rule, s["r"], pq.Polynomial([F(c) for c in s["poly"]]))
            return out
        finally:
            pq.set_working_dps(WORKING_DPS)
    if op.kind == "scan":
        scan = pq.bound_scan(_family(pq, s["family"]), s["r"], grid_size=s["grid"])
        csv_path = os.path.join(env.scratch, "scan.csv")
        json_path = os.path.join(env.scratch, "scan.json")
        pq.export_scan_csv(scan, csv_path)
        pq.export_scan_json(scan, json_path)
        with open(csv_path) as fh:
            rows = sum(1 for _ in fh)
        with open(json_path) as fh:
            summary = json.load(fh)
        return {"scan": scan, "csv_rows": rows, "json": summary}
    if op.kind == "minimize":
        return {"min": pq.minimize_bound(_family(pq, s["family"]), s["r"])}
    if op.kind == "alomari4":
        return {"pair": pq.alomari4_min_m0(s["lambda"])}
    if op.kind == "integrate":
        rule = pq.make_rule(s["rule"])
        if s["f"] == "poly":
            f = pq.Polynomial([F(c) for c in s["coeffs"]])
            fprime = f.derivative()
        else:
            f, fprime = _integrand(s["f"])
        res = pq.composite_integrate(rule, f, F(s["a"]), F(s["b"]), s["n"], s["r"],
                                     F(s["deriv_sup"]), fprime=fprime)
        return {"res": res}
    if op.kind == "panels":
        rule = pq.make_rule(s["rule"])
        return {"n": pq.panels_for_tolerance(rule, s["r"], F(s["deriv_sup"]), F(s["a"]),
                                             F(s["b"]), F(s["eps"]))}
    if op.kind == "cli":
        return run_cli(env, s["argv"])
    raise ValueError(op.kind)


def run_cli(env: Env, argv: list[str]) -> dict:
    """One CLI process; waits with wait4 so its own peak RSS is known."""
    for name in os.listdir(env.scratch):
        os.remove(os.path.join(env.scratch, name))
    out_path = os.path.join(env.scratch, "stdout.txt")
    with open(out_path, "wb") as out, open(os.devnull, "wb") as err:
        proc = subprocess.Popen(env.cli_command + argv, stdout=out, stderr=err,
                                env=env.cli_env, cwd=env.scratch)
    try:
        _, status, usage = os.wait4(proc.pid, 0)
    except BaseException:
        proc.kill()
        os.wait4(proc.pid, 0)
        proc.returncode = -9
        raise
    proc.returncode = os.waitstatus_to_exitcode(status)
    env.children.append(usage.ru_maxrss)
    files = {}
    for name in os.listdir(env.scratch):
        with open(os.path.join(env.scratch, name)) as fh:
            files[name] = fh.read()
    return {"code": proc.returncode, "files": files}


# --------------------------------------------------------------------------
# what an operation returned: constants for exact_share and radius


def returned_values(op: Op, out) -> list[tuple[bool, float]]:
    """(is exact rational, radius) of every constant or value returned."""
    if op.kind == "kernel":
        return [(v.is_rational, v.radius()) for k in ("m", "lhs", "rhs") if k in out
                for v in (out[k],)]
    if op.kind == "scan":
        scan = out["scan"]
        vals = list(scan.values) + [scan.minimizer[1]]
        return [(v.is_rational, v.radius()) for v in vals]
    if op.kind == "minimize":
        v = out["min"].value
        return [(v.is_rational, v.radius())]
    if op.kind == "alomari4":
        return [(v.is_rational, v.radius()) for v in out["pair"]]
    if op.kind == "integrate":
        res = out["res"]
        return [(v.is_rational, v.radius()) for v in (res.value, res.certificate)]
    if op.kind == "panels":
        return []
    if op.kind == "cli":
        return _cli_values(out)
    raise ValueError(op.kind)


_EXACT_RE = re.compile(r"^-?\d+(/\d+)?$")


def _cli_values(out) -> list[tuple[bool, float]]:
    vals = []
    files = out["files"]
    if "analyze.json" in files:
        for c in json.loads(files["analyze.json"])["constants"]:
            vals.append((c["exact"] is not None, float(c["radius"])))
    if "kernel.json" in files:
        k = json.loads(files["kernel.json"])
        vals.append((bool(_EXACT_RE.match(k["l1_norm"])), float(k["radius"])))
    if "scan.json" in files:
        v = json.loads(files["scan.json"])["minimizer"]["value"]
        vals.append((bool(_EXACT_RE.match(v)), 0.0))
    return vals


def known_deadline_defect(tb) -> str | None:
    """Name of the known defect an expired deadline hit, from its traceback.

    roots._to_int_primitive forces a positive leading coefficient on every
    Sturm remainder, which breaks the sign-variation count.  Where the count
    stays at two or more, the bisection stack in roots._isolate_rational
    (which has no width floor) never empties: "sturm-hang".  Where it drops
    to zero, roots are missed and the constant is wrong: "sturm-miss", see
    checks.py.
    """
    while tb is not None:
        code = tb.tb_frame.f_code
        if code.co_name == "_isolate_rational" and code.co_filename.endswith(
                os.path.join("peanoquad", "roots.py")):
            return "sturm-hang"
        tb = tb.tb_next
    return None
