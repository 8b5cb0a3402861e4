"""The baseline cases of the ROADMAP's open item 1, each timed as the median
of several runs and compared with the single-run figure quoted there."""

from __future__ import annotations

import json
import math
import statistics
import subprocess
import sys
import time
from fractions import Fraction

REPEATS = 5

#: (name, ROADMAP seconds) in the order the ROADMAP lists them
CASES = (
    ("kernel_l1_norm simpson r=3", 0.002),
    ("kernel_l1_norm lobatto4 r=3", 0.018),
    ("bound_scan(gs2, r=1) grid 101", 0.90),
    ("bound_scan(mp3, r=0)", 0.20),
    ("minimize_bound(liu_park, 0)", 0.39),
    ("composite_integrate simpson exp n=1000", 0.15),
    ('alomari4_min_m0("1/5")', 0.32),
    ("CLI scan gs2 --r 1", 0.68),
    ("CLI catalog", 0.13),
)


def _calls(pq, env):
    def cli(*argv):
        def call():
            subprocess.run([sys.executable, "-m", "peanoquad.cli", *argv], env=env, check=True,
                           stdout=subprocess.DEVNULL)
        return call

    simpson, lobatto4 = pq.make_rule("simpson"), pq.make_rule("lobatto4")
    return (
        lambda: pq.kernel_l1_norm(simpson, 3),
        lambda: pq.kernel_l1_norm(lobatto4, 3),
        lambda: pq.bound_scan(pq.family("gs2"), 1, grid_size=101),
        lambda: pq.bound_scan(pq.family("mp3"), 0),
        lambda: pq.minimize_bound(pq.family("liu_park"), 0),
        lambda: pq.composite_integrate(simpson, math.exp, 0, 1, 1000, 3, Fraction(math.e)),
        lambda: pq.alomari4_min_m0("1/5"),
        cli("scan", "gs2", "--r", "1"),
        cli("catalog"),
    )


def run_baseline(results_dir, env) -> int:
    import peanoquad as pq

    rows = []
    for (name, quoted), call in zip(CASES, _calls(pq, env)):
        times = []
        for _ in range(REPEATS):
            t0 = time.perf_counter()
            call()
            times.append(time.perf_counter() - t0)
        median = statistics.median(times)
        ratio = median / quoted
        rows.append({"case": name, "roadmap_s": quoted, "median_s": median, "runs_s": times,
                     "ratio": ratio, "differs_2x": not 0.5 <= ratio <= 2.0})
        print(f"{name:<42} roadmap {quoted:7.3f} s  median of {REPEATS} {median:7.3f} s  "
              f"x{ratio:.2f}{'  DIFFERS >2x' if rows[-1]['differs_2x'] else ''}")
    results_dir.mkdir(exist_ok=True)
    (results_dir / "baseline.json").write_text(json.dumps(rows, indent=1) + "\n")
    return 0
