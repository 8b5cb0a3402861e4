#!/usr/bin/env python3
"""Compare the outputs of every benchmark operation between two source trees.

    python3 tools/same_outputs.py TREE_A TREE_B

Each tree must hold ``src/peanoquad`` and ``perfbench/workloads.py``.  For
each tree, a fresh interpreter imports that tree's package and workload
definitions (read only), builds the plans with ``make_plan`` and runs every
operation with ``execute``:

* rule_analysis, seeds 1 and 2, the first two rounds;
* composite_panels, family_scan and cli_session, seeds 1 to 3.

Every Scalar in an output is written as its ``to_json_str``, its tier
(rational, sqrt or interval) and the exact rational ends of its enclosure;
a CLI operation gives its exit code, standard output and written files, and
an operation that raises gives its exception type and message.

Each tree's ``demos/*.py`` also run, each from a fresh empty working
directory with the same relative ``PEANOQUAD_OUTDIR``, so the paths they
print match; a demo gives its exit code, standard output and the files it
writes.

A second set of direct calls covers outputs that no benchmark operation
reads, at 20, 60 and 120 working digits: for every catalog rule that takes no
parameter, and for four rules with interval data (gs2 at x = 1/2 +- 1e-40
and at sqrt(1/3) +- 1e-50, Simpson with one interval weight and node, a
double node at 1/3 +- 1e-40), the ``degree_of_exactness`` report (k_max 20),
``kernel_l1_norm`` of every order r up to the degree (M_r and the sign
changes), and both sides of ``verify_peano_identity`` on two seeded
polynomials per (rule, r).  At 60 digits it also calls, for lanes that no
operation reaches (the builder fallback of the bound function, ``_Dual``
arithmetic, interval root windows), ``bound_scan`` (grid 9) and
``minimize_bound`` of alomari4 at lambda = sqrt(1/20) and at
1/5 +- 1e-40, r = 0 and 1, and ``isolate_roots`` on three windows with an
exact end e = sqrt(1/3) that hold or miss the root r = double(e) + 1e-40:
t - r on (0, e), t + r on (-e, 0) and t - r on (e, 1); on the same windows
(0, e) and (e, 1) for t + c, c = -r +- 1e-50 an interval; and on windows
that reach each exit of the exact engine after the sign-variation count V
of Descartes' rule: 53t(t^2 - 6t + 3)(t - 5)^2 on (-1, 1) and on (0, 1)
(there V = 1 with a repeated factor), t^3 - 6t^2 + 3t on (-1, 1) (a Sturm
bisection that hits the root 0) and (10t^2 - 10t + 3)(t + 5) on (0, 1)
(V = 2 and no root).  Last, at 60 digits too, one call per family of
``R0_FAMILIES`` (those the tests scan) for its r = 0 bound function: the
signature (a fresh probe), value and slope at each closed domain end, at 0,
+-1/3, +-1/2 and +-1 where the domain holds them (nodes meet, or a root c_i
of the kernel c_i - t meets a breakpoint: liu_park at 1/2), and at the
family's other such points; and an r = 0 ``bound_scan`` of liu_park on the
narrow window [49/100, 51/100], grid 5.  And ``composite_integrate`` (r = 0)
of math.exp, with math.exp as its derivative, where no operation takes it:
each rule the benchmark integrates with, at n = 1 and 7, on
[sqrt(3)/4 - 1, sqrt(3)/2 + 1/3] (nodes with a stepping sqrt(3) part) and
on [-3/4, 1/4] with ends +- 1e-40 (interval nodes), and liu_park_gauss on
[-3/4, 1/4] itself (its double nodes).  346 calls in all.

The ids of the operations, the names of the demos and the ids of the direct
calls whose outputs differ are printed; the second-to-last line counts the
operations and demos, the last line the direct calls.  Each goes on to say
how each Scalar that differs moved: its exact string or tier changed, or,
from one enclosure to another, it got narrower (and overlaps the old one),
kept its width but moved, got wider, or is disjoint from the old one; any
other value that differs (a CLI's output text, say) counts as other.  Exit
status: 0 when every output is identical, 1 otherwise.
"""

from __future__ import annotations

import dataclasses
import json
import math
import os
import random
import subprocess
import sys
import tempfile
from collections import Counter
from fractions import Fraction

#: (workload, seeds, rounds per seed; None for all)
DUMP_SET = (
    ("rule_analysis", (1, 2), 2),
    ("composite_panels", (1, 2, 3), None),
    ("family_scan", (1, 2, 3), None),
    ("cli_session", (1, 2, 3), None),
)


def _plain(x, scalar_type):
    """x as JSON data, with every Scalar spelled out exactly."""
    if isinstance(x, scalar_type):
        tier = "rational" if x.is_rational else "sqrt" if x.is_exact else "interval"
        return {"scalar": x.to_json_str(), "tier": tier, "bounds": [str(e) for e in x.bounds()]}
    if dataclasses.is_dataclass(x):
        return {f.name: _plain(getattr(x, f.name), scalar_type) for f in dataclasses.fields(x)}
    if hasattr(x, "_asdict"):
        return _plain(x._asdict(), scalar_type)
    if isinstance(x, dict):
        return {str(k): _plain(v, scalar_type) for k, v in x.items()}
    if isinstance(x, (list, tuple)):
        return [_plain(v, scalar_type) for v in x]
    if isinstance(x, (float, Fraction)):
        return str(x)
    return x


#: how a Scalar can differ, in the order of the summary
KINDS = ("exact or tier changed", "narrower", "moved", "wider", "disjoint")


def _is_scalar(x) -> bool:
    return isinstance(x, dict) and x.keys() == {"scalar", "tier", "bounds"}


def _kind(a: dict, b: dict) -> str:
    """How the dumped Scalar a became b (a != b), one of KINDS."""
    if a["tier"] != "interval" or b["tier"] != "interval":
        return KINDS[0]
    (alo, ahi), (blo, bhi) = ([Fraction(e) for e in x["bounds"]] for x in (a, b))
    if bhi < alo or ahi < blo:
        return "disjoint"
    return "wider" if bhi - blo > ahi - alo else "narrower" if bhi - blo < ahi - alo else "moved"


def classify(a, b, counts: Counter | None = None) -> Counter:
    """Count the differences of two dumped outputs, walked alike: each Scalar
    that differs by its kind, any other value that differs as "other"."""
    counts = Counter() if counts is None else counts
    if a == b:
        return counts
    if _is_scalar(a) and _is_scalar(b):
        counts[_kind(a, b)] += 1
    elif isinstance(a, dict) and isinstance(b, dict):
        for key in a.keys() | b.keys():
            classify(a.get(key), b.get(key), counts)
    elif isinstance(a, list) and isinstance(b, list) and len(a) == len(b):
        for x, y in zip(a, b):
            classify(x, y, counts)
    else:
        counts["other"] += 1
    return counts


def _kinds(counts: Counter) -> str:
    kinds = ", ".join(f"{counts[kind]} {kind}" for kind in KINDS)
    return f"Scalars: {kinds}; {counts['other']} other values differ"


def summary(n_differ: int, n_ops: int, n_demos_differ: int, n_demos: int, counts: Counter) -> str:
    """The operations' line: the counts of differing ops and demos, then of each kind of change."""
    return f"{n_differ} of {n_ops} ops differ, {n_demos_differ} of {n_demos} demos differ; {_kinds(counts)}"


def direct_summary(n_differ: int, n_calls: int, counts: Counter) -> str:
    """The last line: the count of differing direct calls, then of each kind of change."""
    return f"{n_differ} of {n_calls} direct calls differ; {_kinds(counts)}"


#: working digits of the direct calls, and of the scans, minimizers and root windows
DIRECT_DPS, LANE_DPS = (20, 60, 120), 60


def _direct_rules(pq) -> dict:
    """{label: rule} at the working precision: every catalog rule without a
    parameter, then the rules with interval data."""
    def near(q, digits=40):
        return pq.Scalar.from_interval(q - Fraction(1, 10**digits), q + Fraction(1, 10**digits))

    rules = {}
    for name in pq.catalog_names():
        try:
            rules[name] = pq.make_rule(name)
        except pq.UnknownRule:  # a rule that takes parameters
            continue
    third = Fraction(1, 3)
    rules["gs2@1/2+-1e-40"] = pq.make_rule("gs2", x=near(Fraction(1, 2)))
    rules["gs2@sqrt(1/3)+-1e-50"] = pq.make_rule("gs2", x=pq.sqrt(pq.Scalar(third)) + near(0, 50))
    rules["interval_simpson"] = pq.custom_rule(
        "interval_simpson", [(-1, near(third)), (near(0), Fraction(4, 3)), (1, third)])
    rules["interval_double_node"] = pq.custom_rule(
        "interval_double_node", [(-1, Fraction(1, 2)), (near(third), Fraction(3, 2))],
        [(near(third), near(Fraction(1, 7)))])
    return rules


def _kernel(pq, rule, r: int) -> dict:
    rep = pq.kernel_l1_norm(rule, r)
    return {"m": rep.l1_norm, "sign_changes": [rt.location for rt in rep.sign_changes]}


def _lane_calls(pq, call) -> None:
    """The scans and minimizers of alomari4 at an irrational and at an
    interval lambda, the root windows with an exact irrational end, and the
    root windows of the exits of the exact engine."""
    tiny = Fraction(1, 10**40)
    lams = {"sqrt(1/20)": pq.sqrt(pq.Scalar(Fraction(1, 20))),
            "1/5+-1e-40": pq.Scalar.from_interval(Fraction(1, 5) - tiny, Fraction(1, 5) + tiny)}
    for label, lam in lams.items():
        fam = pq.family("alomari4", lam=lam)
        for r in (0, 1):
            call(f"direct/alomari4@{label}/scan{r}", pq.bound_scan, fam, r, 9)
            call(f"direct/alomari4@{label}/minimize{r}", pq.minimize_bound, fam, r)
    e = pq.sqrt(pq.Scalar(Fraction(1, 3)))
    x = Fraction(float(e)) + tiny
    for window, c, lo, hi in (("(0,e)", -x, 0, e), ("(-e,0)", x, -e, 0), ("(e,1)", -x, e, 1)):
        call(f"direct/window{window}", pq.isolate_roots, pq.Polynomial([c, 1]), lo, hi)
    c = pq.Scalar.from_interval(-x - Fraction(1, 10**50), -x + Fraction(1, 10**50))
    for window, lo, hi in (("(0,e)", 0, e), ("(e,1)", e, 1)):
        call(f"direct/interval-window{window}", pq.isolate_roots, pq.Polynomial([c, 1]), lo, hi)
    quintic = [0, 3975, -9540, 4664, -848, 53]  # 53t(t^2 - 6t + 3)(t - 5)^2
    for label, coeffs, lo, hi in (("53t(t2-6t+3)(t-5)2(-1,1)", quintic, -1, 1),
                                  ("53t(t2-6t+3)(t-5)2(0,1)", quintic, 0, 1),
                                  ("t3-6t2+3t(-1,1)", [0, 3, -6, 1], -1, 1),
                                  ("(10t2-10t+3)(t+5)(0,1)", [15, -47, 40, 10], 0, 1)):
        call(f"direct/roots/{label}", pq.isolate_roots, pq.Polynomial(coeffs), lo, hi)


#: (name, fixed parameters, the points other than 0, +-1/3, +-1/2 and +-1 where
#: a root c_i of the r = 0 kernel c_i - t meets a breakpoint)
R0_FAMILIES = (
    ("ostrowski", {}, ()), ("mp3", {}, ()), ("mod3_opt", {}, ()), ("gs2", {}, ()),
    ("franjic", {}, ()), ("liu_park", {}, ()), ("dragomir_sofo", {}, ()),
    ("mod3", {"lam": Fraction(9, 19)}, (Fraction(-9, 10), Fraction(9, 10))),
    ("mod3", {"lam": Fraction(7, 17)}, (Fraction(-7, 10), Fraction(7, 10))),
    ("dcr", {"lam": Fraction(2, 7)}, ()), ("dcr", {"lam": Fraction(17, 60)}, ()),
    ("alomari4", {"lam": Fraction(9, 43)}, (Fraction(34, 43),)),
    ("alomari4", {"lam": Fraction(3, 16)}, (Fraction(13, 16),)),
    ("q44", {"lam": Fraction(1, 5), "gamma": Fraction(1, 32), "delta": Fraction(5, 53)},
     (Fraction(4, 5),)),
    ("q44", {"lam": Fraction(13, 53), "gamma": Fraction(2, 57), "delta": Fraction(3, 25)},
     (Fraction(40, 53),)),
)


def _r0_points(pq, name: str, fixed: dict, extra: tuple) -> dict:
    """{x: signature, value and slope} of the r = 0 bound function of one family,
    each x probed afresh, at the points of ``R0_FAMILIES`` that its domain holds."""
    pq.bounds._memo.cache_clear()
    fam = pq.family(name, **fixed)
    fn, sig, slope = pq.bounds._bound_fn(fam, 0)
    points = {fam.domain.lo, fam.domain.hi, *extra,
              *(Fraction(k, n) for n in (1, 2, 3) for k in (-1, 0, 1))}
    return {x: {"signature": sig(x), "value": fn(x), "slope": slope(x)}
            for x in sorted(points) if fam.domain.contains(x)}


def _r0_calls(pq, call) -> None:
    """The r = 0 bound functions of ``R0_FAMILIES``, one call per family, and an
    r = 0 scan on a narrow window."""
    for name, fixed, extra in R0_FAMILIES:
        label = name + "".join(f",{k}={v}" for k, v in fixed.items())
        call(f"direct/r0/{label}", _r0_points, pq, name, fixed, extra)
    call("direct/r0/liu_park/scan[49/100,51/100]", pq.bound_scan, pq.family("liu_park"), 0, 5,
         Fraction(49, 100), Fraction(51, 100))


#: the rules of the benchmark's composite operations
COMPOSITE_RULES = ("simpson", "radau2", "gauss_legendre2", "lobatto4", "liu_park_gauss")


def _composite(pq, name: str, ends: str, n: int):
    """``composite_integrate`` (r = 0) of math.exp, its own derivative, with
    the rule ``name`` on n panels of the interval ``ends`` names."""
    s3, tiny, lo, hi = pq.sqrt(pq.Scalar(3)), Fraction(1, 10**40), Fraction(-3, 4), Fraction(1, 4)
    a, b = {"sqrt3": (s3 / 4 - 1, s3 / 2 + Fraction(1, 3)), "rational": (lo, hi),
            "interval": [pq.Scalar.from_interval(x - tiny, x + tiny) for x in (lo, hi)]}[ends]
    return pq.composite_integrate(pq.make_rule(name), math.exp, a, b, n, 0, 1, math.exp)


def _composite_calls(pq, call) -> None:
    """The composite sums of math.exp at the ends and panel counts that no operation uses."""
    for ends in ("sqrt3", "interval", "rational"):
        for name in COMPOSITE_RULES if ends != "rational" else ("liu_park_gauss",):
            for n in (1, 7):
                call(f"direct/composite/{name}@{ends}/n{n}", _composite, pq, name, ends, n)


def direct_outputs(pq) -> dict:
    """{call id: output} of the direct calls, at each working precision of DIRECT_DPS,
    then of ``_lane_calls``, ``_r0_calls`` and ``_composite_calls`` at LANE_DPS."""
    outputs, dps0 = {}, pq.get_working_dps()

    def call(key, fn, *args):
        try:
            outputs[key] = _plain(fn(*args), pq.Scalar)
        except Exception as exc:  # a raise is an output too
            outputs[key] = {"raised": type(exc).__name__, "message": str(exc)}
        return outputs[key]

    try:
        for dps in DIRECT_DPS:
            pq.set_working_dps(dps)
            for label, rule in _direct_rules(pq).items():
                key = f"direct/dps{dps}/{label}"
                report = call(f"{key}/exactness", pq.degree_of_exactness, rule, 20)
                for r in range(report.get("degree", -1) + 1):
                    call(f"{key}/M{r}", _kernel, pq, rule, r)
                    rng = random.Random(f"{label}/{r}")
                    for i in range(2):
                        f = pq.Polynomial([Fraction(rng.randint(-9, 9), rng.randint(1, 7))
                                           for _ in range(r + 2 + 2 * i)])
                        call(f"{key}/identity{r}/{i}", pq.verify_peano_identity, rule, r, f)
        pq.set_working_dps(LANE_DPS)
        _lane_calls(pq, call)
        _r0_calls(pq, call)
        _composite_calls(pq, call)
    finally:
        pq.set_working_dps(dps0)
    return outputs


def dump(tree: str, scratch: str, out_path: str) -> None:
    """Run the dump set and the direct calls on one tree and write
    {"ops": {op key: outputs}, "direct": {call id: output}} to out_path."""
    src = os.path.join(tree, "src")
    sys.path[:0] = [os.path.join(tree, "perfbench"), src]
    import peanoquad as pq
    import workloads as wl

    cli_env = dict(os.environ, PYTHONPATH=src, PEANOQUAD_OUTDIR=scratch)
    env = wl.Env(pq, scratch, [sys.executable, "-m", "peanoquad.cli"], cli_env)
    outputs = {}
    for workload, seeds, rounds in DUMP_SET:
        for seed in seeds:
            plan = wl.make_plan(workload, seed)
            for k, ops in enumerate(plan.rounds[:rounds]):
                for i, op in enumerate(ops):
                    try:
                        out = _plain(wl.execute(env, op), pq.Scalar)
                    except Exception as exc:  # a raise is an output too
                        out = {"raised": type(exc).__name__, "message": str(exc)}
                    outputs[f"{workload}/seed{seed}/round{k}/{i}/{op.id}"] = out
    with open(out_path, "w") as fh:
        json.dump({"ops": outputs, "direct": direct_outputs(pq)}, fh)


def run_demos(tree: str) -> dict:
    """{demo file name: exit code, standard output, {written file: text}}."""
    tree = os.path.abspath(tree)
    demos = os.path.join(tree, "demos")
    env = dict(os.environ, PYTHONPATH=os.path.join(tree, "src"), PEANOQUAD_OUTDIR="out")
    outputs = {}
    for name in sorted(n for n in os.listdir(demos) if n.endswith(".py")):
        with tempfile.TemporaryDirectory() as cwd:
            proc = subprocess.run([sys.executable, os.path.join(demos, name)], cwd=cwd, env=env,
                                  capture_output=True, text=True)
            files = {}
            for root, _, names in os.walk(cwd):
                for n in names:
                    with open(os.path.join(root, n)) as fh:
                        files[os.path.relpath(os.path.join(root, n), cwd)] = fh.read()
        outputs[name] = [proc.returncode, proc.stdout, files]
    return outputs


def main(argv: list[str]) -> int:
    if len(argv) == 4 and argv[0] == "--dump":
        dump(*argv[1:])
        return 0
    if len(argv) != 2:
        print(__doc__.strip().splitlines()[2], file=sys.stderr)
        return 2
    with tempfile.TemporaryDirectory() as tmp:
        scratch = os.path.join(tmp, "scratch")  # one path, so written paths match
        os.mkdir(scratch)
        dumps = []
        for n, tree in enumerate(argv):
            path = os.path.join(tmp, f"dump{n}.json")
            subprocess.run([sys.executable, os.path.abspath(__file__), "--dump",
                            os.path.abspath(tree), scratch, path], check=True)
            with open(path) as fh:
                dumps.append(json.load(fh))
    (a, b), (xa, xb) = ([d[part] for d in dumps] for part in ("ops", "direct"))
    da, db = [run_demos(tree) for tree in argv]
    differ, demos, direct = ([key for key in sorted(p.keys() | q.keys()) if p.get(key) != q.get(key)]
                             for p, q in ((a, b), (da, db), (xa, xb)))
    for key in differ + [f"demos/{name}" for name in demos] + direct:
        print(key)
    print(summary(len(differ), len(a.keys() | b.keys()), len(demos), len(da.keys() | db.keys()),
                  classify(a, b)))
    print(direct_summary(len(direct), len(xa.keys() | xb.keys()), classify(xa, xb)))
    return 1 if differ or demos or direct else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
