#!/usr/bin/env python3
"""Alternating benchmark pairs of two source trees on one workload.

    python3 tools/bench_pairs.py PARENT_TREE CHANGE_TREE --workload W --pairs N --seed S [--json PATH]

Pair k runs ``perfbench/run.py --workload W --seed S+k --seconds T --trace 0``
once in each tree, from that tree's root, with T the ``run_seconds`` of this
repository's ``BENCHMARK.json``.  The parent runs first in even pairs and the
change first in odd ones.  Each pair is printed when it finishes.  Then, for
every end-to-end metric of ``BENCHMARK.json``, the parent's and the change's
median and quartiles, the number of pairs the change won (strictly better in
the metric's direction), whether the gap between the medians is wider
than the parent's interquartile range, and whether the change's median is
worse than the parent's by more than the metric's relative ``bound`` (a
regression the benchmark's bounds do not allow).  Exit status 1 when a run reports
``correct`` false or prints no result line, else 0.  With ``--json PATH``
the summary is also written to PATH: the workload, the seeds, the number of
pairs, each tree's ``git rev-parse HEAD`` (null for a tree that is not the
root of a git checkout, or whose tracked files have uncommitted changes),
and the rows printed, quartiles as [q1, median, q3].  Standard library only.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def run_once(tree: str, workload: str, seed: int, seconds: float) -> dict | None:
    """The last-line JSON of one benchmark run in tree, or None when there is none."""
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", "0"]
    proc = subprocess.run(cmd, cwd=tree, capture_output=True, text=True)
    try:
        return json.loads(proc.stdout.strip().splitlines()[-1])
    except (IndexError, ValueError):
        sys.stderr.write(proc.stderr)
        return None


def spread(values: list[float]) -> tuple[float, float, float]:
    """(first quartile, median, third quartile); one value is all three."""
    if len(values) < 2:
        return values[0], values[0], values[0]
    return tuple(statistics.quantiles(values, n=4))  # the middle cut is the median


def summarize(pairs: list[tuple[dict, dict]], metrics: list[dict]) -> list[dict]:
    """One row per metric ({"name", "better"} and an optional relative
    "bound") that every run reports: the parent's and the change's (q1,
    median, q3), the pairs the change won, whether the medians lie further
    apart than the parent's q3 - q1, and whether the change's median is worse
    than the parent's by more than bound * |parent median|."""
    rows = []
    for spec in metrics:
        name, sign = spec["name"], 1 if spec["better"] == "higher" else -1
        if not pairs or not all(name in p and name in c for p, c in pairs):
            continue
        parent, change = spread([p[name] for p, _ in pairs]), spread([c[name] for _, c in pairs])
        wins = sum(1 for p, c in pairs if sign * (c[name] - p[name]) > 0)
        bound = spec.get("bound")
        rows.append({"name": name, "parent": parent, "change": change, "wins": wins,
                     "pairs": len(pairs),
                     "resolved": abs(change[1] - parent[1]) > parent[2] - parent[0],
                     "beyond_bound": bound is not None
                     and sign * (parent[1] - change[1]) > bound * abs(parent[1])})
    return rows


def tree_commit(tree: str) -> str | None:
    """HEAD of the git checkout whose root is tree, else None; None too when a
    tracked file differs from HEAD (staged or not), as HEAD then does not hold
    the code that ran.  Untracked files, such as run outputs, do not count."""
    proc = subprocess.run(["git", "rev-parse", "--show-toplevel", "HEAD"], cwd=tree,
                          capture_output=True, text=True)
    lines = proc.stdout.split()
    if proc.returncode or len(lines) != 2 or Path(lines[0]).resolve() != Path(tree).resolve():
        return None
    status = subprocess.run(["git", "status", "--porcelain", "--untracked-files=no"], cwd=tree,
                            capture_output=True, text=True)
    return None if status.returncode or status.stdout.strip() else lines[1]


def _values(result: dict) -> dict:
    return {k: v["value"] for k, v in result["metrics"].items()}


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("parent")
    ap.add_argument("change")
    ap.add_argument("--workload", required=True)
    ap.add_argument("--pairs", type=int, default=10)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--json", metavar="PATH", help="also write the summary to PATH")
    args = ap.parse_args(argv)
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    metrics = bench["end_to_end"]
    ok, pairs = True, []
    for k in range(args.pairs):
        seed = args.seed + k
        order = [("parent", args.parent), ("change", args.change)]
        got = {}
        for side, tree in order if k % 2 == 0 else order[::-1]:
            got[side] = run_once(tree, args.workload, seed, bench["run_seconds"])
            if got[side] is None or not got[side].get("correct"):
                print(f"pair {k + 1} seed {seed}: {side} run failed or is not correct")
                ok = False
        if not ok:
            break
        pairs.append((_values(got["parent"]), _values(got["change"])))
        shown = ", ".join(f"{m['name']} {pairs[-1][0][m['name']]:.4g} -> {pairs[-1][1][m['name']]:.4g}"
                          for m in metrics if m["name"] in pairs[-1][0])
        print(f"pair {k + 1} seed {seed} ({order[k % 2][0]} first): {shown}", flush=True)
    rows = summarize(pairs, metrics)
    print(f"{'metric':<14} {'parent median [q1, q3]':<34} {'change median [q1, q3]':<34} won    "
          "gap>IQR beyond bound")
    for row in rows:
        p, c = (f"{q[1]:.5g} [{q[0]:.5g}, {q[2]:.5g}]" for q in (row["parent"], row["change"]))
        print(f"{row['name']:<14} {p:<34} {c:<34} {row['wins']:>2}/{row['pairs']:<3} "
              f"{'yes' if row['resolved'] else 'no':<7} {'yes' if row['beyond_bound'] else 'no'}")
    if args.json:
        summary = {"workload": args.workload, "seeds": [args.seed + k for k in range(len(pairs))],
                   "pairs": len(pairs), "parent_commit": tree_commit(args.parent),
                   "change_commit": tree_commit(args.change), "metrics": rows}
        Path(args.json).write_text(json.dumps(summary, indent=2) + "\n")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
