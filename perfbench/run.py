#!/usr/bin/env python3
"""peanoquad benchmark.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --baseline

Run from the repository root.  The library is imported from ``src/`` of the
same tree.  One process, one thread, closed loop: an operation starts when
the previous one has finished.  A run measures as many whole rounds of
operations as take ``--seconds`` on the reference machine (so every run of a
workload does the same work), then checks every output against the oracle
(``checks.py``) and prints the metrics; the last line of standard output is
one JSON object with ``correct``, ``attempted``, ``failed`` and ``metrics``.

``--trace 0`` prints the end-to-end metrics, their timings scaled to a
nominal machine speed (see ``machine_speed``), ``--trace 1`` the per-layer
metrics of a traced run.  ``--baseline`` times the cases of the ROADMAP's
open item 1.  Full records go to ``perfbench/results/``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import platform
import resource
import signal
import statistics
import subprocess
import sys
import time
from fractions import Fraction
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
RESULTS = HERE / "results"

import workloads as wl  # noqa: E402  (stdlib only; imports neither mpmath nor peanoquad)

SETUP_PROBES = 7
STUCK_TICK = 0.05
#: end-to-end timings are reported as if reference() took this long; see
#: machine_speed()
REF_NOMINAL_S = 0.002
#: reference() runs before each set-up probe
SETUP_REFS = 20
#: radius_digits when no validated result is wider: an exact result is
#: resolved to at least the oracle's precision
RADIUS_DIGITS_CAP = 2 * wl.WORKING_DPS
#: deadlines are this much longer in a traced run, whose wrappers slow calls
TRACE_DEADLINE_FACTOR = 4

E2E_UNITS = {"ops_per_s": "1/s", "op_p50_ms": "ms", "op_tail_ms": "ms", "ok_share": "share",
             "exact_share": "share", "radius_digits": "digits", "setup_s": "s",
             "peak_rss_mb": "MiB"}
TRACED_FUNCS = (
    "scalars.Scalar.interval", "scalars.sqrt", "polynomials.Polynomial.evaluate",
    "roots.isolate_roots", "exactness.degree_of_exactness", "exactness.has_degree_at_least",
    "rules.make_rule", "rules.map_rule_to_interval", "rules.apply_rule",
    "composite.composite_integrate", "composite.panels_for_tolerance", "peano.build_kernel",
    "peano.kernel_l1_norm", "peano.verify_peano_identity", "peano.export_kernel_csv",
    "bounds.bound_scan", "bounds.minimize_bound", "bounds.alomari4_min_m0",
)
CLI_SUBCOMMANDS = ("catalog", "analyze", "kernel", "scan", "minimize", "integrate", "verify")


class DeadlineExceeded(BaseException):
    """Raised in the running operation when its deadline passes.  A
    BaseException, so no ``except Exception`` in the library swallows it."""


class Deadline:
    """Per-operation deadline, checked by a timer that ticks every STUCK_TICK
    seconds.  An operation is cut when it passes its limit, or when two
    ticks in a row find it inside the same roots._isolate_rational call: the
    known hang (see workloads.known_deadline_defect).  No correct call of
    that function has been seen to take more than 10 ms."""

    def __init__(self, pq):
        self.armed = False
        self.end = 0.0
        self.seen = None
        self.hang_code = pq.roots._isolate_rational.__code__
        signal.signal(signal.SIGALRM, self._tick)

    def _tick(self, signum, frame):
        if not self.armed:
            return
        while frame is not None and frame.f_code is not self.hang_code:
            frame = frame.f_back
        if (frame is not None and frame is self.seen) or time.perf_counter() >= self.end:
            self.disarm()
            raise DeadlineExceeded()
        self.seen = frame

    def arm(self, seconds: float):
        self.armed = True
        self.end = time.perf_counter() + seconds
        signal.setitimer(signal.ITIMER_REAL, STUCK_TICK, STUCK_TICK)

    def disarm(self):
        self.armed = False
        self.seen = None
        signal.setitimer(signal.ITIMER_REAL, 0)


class Outcome:
    __slots__ = ("op", "out", "error", "known", "seconds")

    def __init__(self, op, out, error, known, seconds):
        self.op, self.out, self.error, self.known, self.seconds = op, out, error, known, seconds


def run_op(env, op, deadline: Deadline, limit: float) -> Outcome:
    t0 = time.perf_counter()
    deadline.arm(limit)
    try:
        out = wl.execute(env, op)
    except DeadlineExceeded as exc:
        deadline.disarm()
        return Outcome(op, None, "cut by its deadline",
                       wl.known_deadline_defect(exc.__traceback__), time.perf_counter() - t0)
    except Exception as exc:  # an operation failure is a measured outcome
        deadline.disarm()
        return Outcome(op, None, f"raised {exc!r}", None, time.perf_counter() - t0)
    deadline.disarm()
    return Outcome(op, out, None, None, time.perf_counter() - t0)


def run_rounds(plan, env, deadline, limit, rounds: int, refs: list | None = None):
    """Run whole rounds; returns the outcomes and the wall time.  With
    `refs`, reference() runs after each operation and its times are
    appended there; they are not part of the wall time."""
    outcomes = []
    t0 = time.perf_counter()
    for k in range(rounds):
        for op in plan.rounds[k % len(plan.rounds)]:
            outcomes.append(run_op(env, op, deadline, limit))
            if refs is not None:
                refs.append(timed_reference())
    return outcomes, time.perf_counter() - t0 - sum(refs or ())


# --------------------------------------------------------------------------
# machine speed


def reference():
    """A fixed computation in the program's own arithmetic (Fraction, mpmath
    real and interval numbers at 60 digits) that calls no library code."""
    import mpmath

    s = Fraction(0)
    for i in range(1, 120):
        s += Fraction(i, 2 * i + 1) * Fraction(3, i)
    with mpmath.workdps(60):
        x = mpmath.mpf(1) / 3
        for _ in range(60):
            x = x * x + 1 / x
    iv, prec = mpmath.iv, mpmath.iv.prec
    iv.dps = 60
    try:
        y = iv.mpf(1) / 3
        for _ in range(30):
            y = y * y + 1 / y
    finally:
        iv.prec = prec
    return s, x, y


def timed_reference() -> float:
    t0 = time.perf_counter()
    reference()
    return time.perf_counter() - t0


def machine_speed(refs: list[float]) -> float:
    """How much faster than nominal the machine ran while `refs` were taken.

    On a shared host the same work takes up to 1.5x as long from one
    minute to the next, in CPU time as much as in wall time.  reference()
    slows with it, so every end-to-end timing is multiplied by this factor:
    it then reads as on a machine where reference() takes REF_NOMINAL_S.
    The raw figures and the factor stay in the record."""
    return REF_NOMINAL_S / statistics.fmean(refs)


# --------------------------------------------------------------------------
# environment


def cli_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC) + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


def make_env(pq, scratch: Path, traced_cli: tuple[Path, Path] | None = None) -> wl.Env:
    """`traced_cli`: (summary file, span file) for traced CLI processes."""
    scratch.mkdir(parents=True, exist_ok=True)
    if traced_cli is None:
        cmd = [sys.executable, "-m", "peanoquad.cli"]
    else:
        cmd = [sys.executable, str(HERE / "cli_child.py"), *map(str, traced_cli), "--"]
    env = cli_env()
    env["PEANOQUAD_OUTDIR"] = str(scratch)
    return wl.Env(pq, str(scratch), cmd, env)


def run_tag(args, plan) -> dict:
    import mpmath

    digest = hashlib.sha256()
    for path in sorted((SRC / "peanoquad").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    commit = None
    if (ROOT / ".git").exists():
        got = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                             capture_output=True, text=True)
        commit = got.stdout.strip() or None
    inputs = json.dumps(plan.inputs(), sort_keys=True).encode()
    return {
        "python": platform.python_version(),
        "mpmath": mpmath.__version__,
        "mpmath_backend": mpmath.libmp.BACKEND,
        "nproc": os.cpu_count(),
        "working_dps": wl.WORKING_DPS,
        "seed": args.seed,
        "git_commit": commit,
        "src_digest": digest.hexdigest(),
        "inputs_digest": hashlib.sha256(inputs).hexdigest(),
    }


def setup_seconds(args, refs: list) -> list[float]:
    """Fresh-interpreter set-up times: import peanoquad + first warm-up op.
    reference() times taken between the probes are appended to `refs`."""
    reference()  # imports mpmath outside the timed calls
    times = []
    for _ in range(SETUP_PROBES):
        refs.extend(timed_reference() for _ in range(SETUP_REFS))
        got = subprocess.run(
            [sys.executable, str(HERE / "run.py"), "--probe-setup", "--workload", args.workload,
             "--seed", str(args.seed)], capture_output=True, text=True, timeout=170)
        if got.returncode != 0:
            raise RuntimeError(f"set-up probe failed: {got.stderr.strip()[-500:]}")
        times.append(float(got.stdout.strip().splitlines()[-1]))
    return times


def probe_setup(args) -> int:
    plan = wl.make_plan(args.workload, args.seed)
    t0 = time.perf_counter()
    import peanoquad

    env = make_env(peanoquad, RESULTS / f"tmp-probe-{os.getpid()}")
    try:
        out = run_op(env, plan.warmup, Deadline(peanoquad), 120.0)
        elapsed = time.perf_counter() - t0
    finally:
        for name in os.listdir(env.scratch):
            os.remove(os.path.join(env.scratch, name))
        os.rmdir(env.scratch)
    if out.error:
        print(f"warm-up failed: {out.error}", file=sys.stderr)
        return 1
    print(elapsed)
    return 0


# --------------------------------------------------------------------------
# checking and metrics


def check_outcomes(outcomes) -> list[dict]:
    """Oracle-check each distinct operation once; repeats must reproduce it."""
    from checks import Checker

    checker = Checker()
    first = {}
    failures: dict[tuple, dict] = {}
    for oc in outcomes:
        if oc.error is None:
            fp = repr(oc.out)
            seen = first.get(oc.op.id)
            if seen is None:
                ok, reason, known = checker.check(oc.op, oc.out)
                first[oc.op.id] = (fp, ok, reason, known)
            elif seen[0] != fp:
                ok, reason, known = False, "output differs from an earlier round", None
            else:
                ok, reason, known = seen[1:]
        else:
            ok, reason, known = False, oc.error, oc.known
        oc.known = known
        oc.error = None if ok else reason
        if not ok:
            key = (oc.op.id, reason)
            entry = failures.setdefault(key, {"op": oc.op.id, "reason": reason, "known": known,
                                              "count": 0})
            entry["count"] += 1
    return list(failures.values())


def quantile(xs: list[float], p: float) -> float:
    """Quantile p of the samples as a weighted mean of order statistics
    (Harrell-Davis weights, Beta approximated by a normal).  Latencies of a
    round's operations cluster by kind, and a single order statistic jumps
    between clusters from run to run; the weighted one moves smoothly."""
    xs = sorted(xs)
    n = len(xs)
    sigma = math.sqrt(p * (1 - p) / (n + 2)) or 1e-12
    cdf = [0.5 * (1 + math.erf((i / n - p) / (sigma * math.sqrt(2)))) for i in range(n + 1)]
    weights = [b - a for a, b in zip(cdf, cdf[1:])]
    return sum(w * x for w, x in zip(weights, xs)) / sum(weights)


def tail_pct(n: int) -> float:
    """The highest percentile with at least ten samples beyond it."""
    return max(0.5, (n - 10) / n) * 100 if n > 10 else 50.0


def end_to_end(outcomes, wall, refs, setup, setup_refs, peak_rss_kib) -> tuple[dict, dict]:
    speed, setup_speed = machine_speed(refs), machine_speed(setup_refs)
    returned = [oc for oc in outcomes if oc.out is not None]
    # latency of the operations that returned; the rest count in ok_share
    raw_lat = [oc.seconds * 1e3 for oc in returned]
    lat = [t * speed for t in raw_lat]
    ok = [oc for oc in outcomes if oc.error is None]
    values = [v for oc in returned for v in wl.returned_values(oc.op, oc.out)]
    radii = sorted(rad for exact, rad in values if not exact and rad > 0)
    widest = radii[-1] if radii else 0.0
    # the radius 90% of validated results stay within: the widest alone is
    # set by a few seeded random rules and moves by digits from seed to seed
    p90 = radii[int(0.9 * (len(radii) - 1))] if radii else 0.0
    pct = tail_pct(len(lat))
    metrics = {
        "ops_per_s": len(returned) / (wall * speed),
        "op_p50_ms": quantile(lat, 0.5),
        "op_tail_ms": quantile(lat, pct / 100),
        "ok_share": len(ok) / len(outcomes),
        "exact_share": sum(1 for exact, _ in values if exact) / max(len(values), 1),
        "radius_digits": min(-math.log10(p90), RADIUS_DIGITS_CAP) if p90 else RADIUS_DIGITS_CAP,
        "setup_s": statistics.median(setup) * setup_speed,
        "peak_rss_mb": peak_rss_kib / 1024,
    }
    panels = sum(oc.op.spec["n"] for oc in returned if oc.op.kind == "integrate")
    extra = {
        "machine_speed": speed,
        "setup_machine_speed": setup_speed,
        "raw_ops_per_s": len(returned) / wall,
        "raw_op_p50_ms": quantile(raw_lat, 0.5),
        "raw_op_tail_ms": quantile(raw_lat, pct / 100),
        "raw_setup_s": statistics.median(setup),
        "op_tail_pct": pct,
        "op_p50_ms_order_statistic": statistics.median(lat),
        "latency_samples": len(lat),
        "failed_share": 1 - metrics["ok_share"],
        "radius_log10_max": math.log10(widest) if widest > 0 else None,
        "panels_per_s": panels / (wall * speed) if panels else None,
        "setup_samples_s": setup,
        "values_returned": len(values),
    }
    return metrics, extra


def per_layer(summary, outcomes, overhead, cli_imports, import_ms) -> dict:
    f = summary["functions"]
    m = {}
    for name in TRACED_FUNCS:
        got = f.get(name, {"calls": 0, "self_ms": 0.0})
        m[f"{name}.calls"] = got["calls"]
        m[f"{name}.self_ms"] = got["self_ms"]
    iso = summary["isolate_roots"]
    m["scalars.tier_drops"] = summary["tier_drops"]
    m["roots.isolate_roots.rational_input_share"] = iso["rational_input"] / max(iso["calls"], 1)
    m["roots.isolate_roots.exact_root_share"] = iso["exact_roots"] / max(iso["roots"], 1)
    m["roots.isolate_roots.uncertified"] = iso["uncertified"]
    m["roots.isolate_roots.deadline_failures"] = sum(
        1 for oc in outcomes if oc.known == "sturm-hang")
    panels = sum(oc.op.spec["n"] for oc in outcomes
                 if oc.op.kind == "integrate" and oc.out is not None)
    ci = f.get("composite.composite_integrate", {"total_ms": 0.0})
    m["composite.us_per_panel"] = ci["total_ms"] * 1e3 / panels if panels else 0.0
    m["bounds.kernels_per_call"] = summary["bounds_kernels"] / max(summary["bounds_calls"], 1)
    m["cli.import_ms"] = statistics.median(cli_imports) if cli_imports else import_ms
    for sub in CLI_SUBCOMMANDS:
        walls = [oc.seconds * 1e3 for oc in outcomes
                 if oc.op.kind == "cli" and oc.op.spec["subcommand"] == sub]
        m[f"cli.{sub}.wall_ms"] = statistics.median(walls) if walls else 0.0
    m["trace.overhead_share"] = overhead
    return m


PER_LAYER_UNITS = {"calls": "count", "self_ms": "ms", "tier_drops": "count",
                   "rational_input_share": "share", "exact_root_share": "share",
                   "uncertified": "count", "deadline_failures": "count",
                   "us_per_panel": "us", "kernels_per_call": "count", "import_ms": "ms",
                   "wall_ms": "ms", "overhead_share": "share"}


def unit_of(name: str) -> str:
    return E2E_UNITS.get(name) or PER_LAYER_UNITS[name.rsplit(".", 1)[1]]


# --------------------------------------------------------------------------
# the run


def run(args) -> int:
    plan = wl.make_plan(args.workload, args.seed)
    setup_refs = []
    setup = setup_seconds(args, setup_refs) if not args.trace else []
    t0 = time.perf_counter()
    import peanoquad
    import peanoquad.cli  # noqa: F401  (cli.import_ms of the in-process workloads)

    import_ms = (time.perf_counter() - t0) * 1e3
    RESULTS.mkdir(exist_ok=True)
    scratch = RESULTS / f"tmp-{os.getpid()}"
    cli_trace = RESULTS / f"cli-trace-{os.getpid()}.jsonl"
    deadline = Deadline(peanoquad)
    limit = wl.DEADLINE[args.workload]
    env = make_env(peanoquad, scratch)
    try:
        warm = run_op(env, plan.warmup, deadline, 120.0)
        if warm.error:
            print(f"error: warm-up operation failed: {warm.error}", file=sys.stderr)
            return 1
        env.children.clear()
        rounds = wl.rounds_for(args.workload, args.seconds)
        if not args.trace:
            refs = []
            outcomes, wall = run_rounds(plan, env, deadline, limit, rounds, refs)
            rss = (max(env.children) if args.workload == "cli_session"
                   else resource.getrusage(resource.RUSAGE_SELF).ru_maxrss)
        else:
            from tracer import SPANS_HEADER, Tracer, merge_summaries, write_spans

            # the same first round untraced, then traced: their ratio is the
            # tracing overhead
            limit *= TRACE_DEADLINE_FACTOR
            plain, _ = run_rounds(plan, env, deadline, limit, 1)
            tracer = Tracer()
            spans = RESULTS / f"spans-{args.workload}-seed{args.seed}.tsv"
            spans.write_text(SPANS_HEADER)
            env = make_env(peanoquad, scratch, (cli_trace, spans))
            tracer.install()
            try:
                outcomes, wall = run_rounds(plan, env, deadline, limit, rounds)
            finally:
                tracer.uninstall()
            overhead = (sum(oc.seconds for oc in outcomes[:len(plain)])
                        / sum(oc.seconds for oc in plain) - 1)
            parts = [tracer.summary()]
            cli_imports = []
            if cli_trace.exists():
                for line in cli_trace.read_text().splitlines():
                    child = json.loads(line)
                    cli_imports.append(child["import_ms"])
                    parts.append(child["summary"])
            write_spans(tracer, str(spans), "main")
            summary = merge_summaries(parts)
    finally:
        for name in os.listdir(scratch):
            os.remove(scratch / name)
        scratch.rmdir()
        if cli_trace.exists():
            cli_trace.unlink()

    failures = check_outcomes(outcomes)
    unknown = [f for f in failures if f["known"] is None]
    failed = sum(1 for oc in outcomes if oc.error is not None)
    record = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
              "trace": args.trace, "tag": run_tag(args, plan), "rounds": rounds,
              "wall_s": wall, "attempted": len(outcomes), "failed": failed,
              "failures": failures}
    if not args.trace:
        metrics, extra = end_to_end(outcomes, wall, refs, setup, setup_refs, rss)
        record["extra"] = extra
    else:
        metrics = per_layer(summary, outcomes, overhead, cli_imports, import_ms)
        record["trace_summary"] = summary
    record["metrics"] = metrics
    out_path = RESULTS / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    out_path.write_text(json.dumps(record, indent=1, default=str) + "\n")

    print(f"{args.workload} seed {args.seed}: {len(outcomes)} operations in {rounds} round(s), "
          f"{wall:.2f} s{' (traced)' if args.trace else ''}")
    for name, value in metrics.items():
        print(f"  {name:<45} {value:>14.6g} {unit_of(name)}")
    for f in failures:
        tag = f"known defect {f['known']}" if f["known"] else "UNEXPECTED"
        print(f"  failed x{f['count']}: {f['op']}: {f['reason']} [{tag}]")
    print(f"record: {out_path.relative_to(ROOT)}")
    print(json.dumps({
        "correct": not unknown,
        "attempted": len(outcomes),
        "failed": failed,
        "metrics": {k: {"value": v, "unit": unit_of(k)} for k, v in metrics.items()},
    }))
    return 0


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", choices=wl.WORKLOADS)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--probe-setup", action="store_true", help=argparse.SUPPRESS)
    ap.add_argument("--baseline", action="store_true",
                    help="time the ROADMAP open-item-1 baseline cases")
    args = ap.parse_args(argv)
    if not (SRC / "peanoquad" / "__init__.py").is_file():
        print(f"error: no peanoquad package under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    if args.baseline:
        from baseline import run_baseline

        return run_baseline(RESULTS, cli_env())
    if args.workload is None:
        ap.error("--workload is required")
    if args.probe_setup:
        return probe_setup(args)
    return run(args)


if __name__ == "__main__":
    sys.exit(main())
