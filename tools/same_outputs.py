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
an operation that raises gives its exception type and message.  The ids of
the operations whose outputs differ are printed, and the last line counts
them.  Exit status: 0 when every output is identical, 1 otherwise.
"""

from __future__ import annotations

import dataclasses
import json
import os
import subprocess
import sys
import tempfile
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
    a, b = dumps
    differ = [key for key in sorted(a.keys() | b.keys()) if a.get(key) != b.get(key)]
    for key in differ:
        print(key)
    print(f"{len(differ)} of {len(a.keys() | b.keys())} ops differ")
    return 1 if differ else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
