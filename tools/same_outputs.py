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

The ids of the operations and the names of the demos whose outputs differ
are printed, and the last line counts them.  It goes on to say how each
Scalar that differs moved: its exact string or tier changed, or, from one
enclosure to another, it got narrower (and overlaps the old one), kept its
width but moved, got wider, or is disjoint from the old one; any other value
that differs (a CLI's output text, say) counts as other.  Exit status: 0
when every output is identical, 1 otherwise.
"""

from __future__ import annotations

import dataclasses
import json
import os
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


def summary(n_differ: int, n_ops: int, n_demos_differ: int, n_demos: int, counts: Counter) -> str:
    """The last line: the counts of differing ops and demos, then of each kind of change."""
    kinds = ", ".join(f"{counts[kind]} {kind}" for kind in KINDS)
    return (f"{n_differ} of {n_ops} ops differ, {n_demos_differ} of {n_demos} demos differ; "
            f"Scalars: {kinds}; {counts['other']} other values differ")


def dump(tree: str, scratch: str, out_path: str) -> None:
    """Run the dump set on one tree and write {op key: outputs} to out_path."""
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
        json.dump(outputs, fh)


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
    (a, b), (da, db) = dumps, [run_demos(tree) for tree in argv]
    differ = [key for key in sorted(a.keys() | b.keys()) if a.get(key) != b.get(key)]
    demos = [key for key in sorted(da.keys() | db.keys()) if da.get(key) != db.get(key)]
    for key in differ + [f"demos/{name}" for name in demos]:
        print(key)
    counts = classify(a, b)
    print(summary(len(differ), len(a.keys() | b.keys()), len(demos), len(da.keys() | db.keys()),
                  counts))
    return 1 if differ or demos else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
