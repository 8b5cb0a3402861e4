"""tools/traffic.py on a small fake tree: a two-module package and a workload
file whose plans reach part of it, and a package API on which the direct calls
of tools/same_outputs.py reach another part."""

import subprocess
import sys
from pathlib import Path

TOOL = Path(__file__).resolve().parent.parent / "tools" / "traffic.py"

CORE = '''\
def used(n):
    """Sum 0..n-1."""
    total = 0
    for k in range(n):
        total += k
    if total < 0:
        total = -total
    return total


def unused():
    return 1


def raises():
    try:
        raise ValueError("x")
    except ValueError:
        return 0
    except KeyError:
        return 1


class Box:
    size = 3

    def grow(self):
        return Box.size + 1


def outer():
    def inner():
        return 2
    return (
        3)
'''

# what the direct calls read of the package, as names bound outside any
# function: the listed functions stay those of core and cli
API = '''\
from fractions import Fraction

from .core import Box, outer, unused


class Scalar(Fraction):
    from_interval = staticmethod(lambda lo, hi: Scalar(lo))


UnknownRule, Polynomial, sqrt = LookupError, list, Scalar
get_working_dps = set_working_dps = catalog_names = lambda *args: ()
make_rule = custom_rule = family = lambda *args, **params: Box()
degree_of_exactness = lambda rule, k_max: {"degree": rule.grow() - 4}  # degree 0
kernel_l1_norm = lambda rule, r: outer()  # its report lacks l1_norm: a raise
verify_peano_identity = lambda rule, r, f: unused()
bound_scan = minimize_bound = lambda fam, r, *grid: fam.grow()
isolate_roots = lambda p, lo, hi: ()
'''

CLI = '''\
import os

from . import core


def main(argv):
    print("cli", argv)
    with open("out.txt", "w") as fh:
        fh.write(os.getcwd())
    return core.raises()
'''

WORKLOADS = '''\
from dataclasses import dataclass


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
    rounds: list


class Env:
    def __init__(self, pq, scratch, cli_command, cli_env):
        self.pq = pq


def make_plan(workload, seed):
    kind = "cli" if workload == "cli_session" else "run"
    return Plan(workload, seed, Op("warm", "never", {}),
                [[Op("a", kind, {"argv": ["x"]})], [Op("b", "run", {})], [Op("c", "fail", {})]])


def execute(env, op):
    if op.kind == "fail":
        raise RuntimeError("a raise is traffic too")
    from peanoquad import core
    return core.used(3)
'''


def _tree(root: Path) -> Path:
    pkg = root / "src" / "peanoquad"
    pkg.mkdir(parents=True)
    (pkg / "__init__.py").write_text(API)
    (pkg / "core.py").write_text(CORE)
    (pkg / "cli.py").write_text(CLI)
    (root / "perfbench").mkdir()
    (root / "perfbench" / "workloads.py").write_text(WORKLOADS)
    return root


def test_traffic_lists_reached_and_unreached_statements(tmp_path):
    tree = _tree(tmp_path / "tree")
    before = sorted(p.name for p in tree.rglob("*") if "__pycache__" not in p.parts)
    proc = subprocess.run([sys.executable, str(TOOL), str(tree)], capture_output=True, text=True,
                          cwd=tmp_path, check=True)
    lines = proc.stdout.splitlines()
    # the same_outputs set: 2 rounds of 2 rule_analysis seeds, and every
    # round of 3 seeds of the others, 31 ops in all; the raising op counts
    assert lines[-2] == "13 of 21 statements reached over 31 ops; 4 of 7 functions never entered"
    # the direct calls, apart: at each of 3 precisions, 4 rules of degree 0
    # (exactness, M_0 and 2 identities each), then 8 scans and minimizers,
    # 10 root windows, 2 kernels of a near-node rule, 15 r = 0 bound
    # functions (each raises: the fake API has no bounds module), one scan,
    # 37 composite sums and 2 panel counts (each raises: no
    # composite_integrate, no panels_for_tolerance); they enter Box.grow,
    # outer and unused only
    assert lines[-1] == ("4 of 21 statements reached over 123 direct calls; "
                         "4 of 7 functions never entered")
    by_name = {line.split()[0]: line for line in lines[:-2]}
    assert by_name["core.used"] == "core.used  5/6  never: 7"
    assert by_name["core.unused"] == "core.unused  0/1  never: 12"
    assert by_name["core.Box.grow"] == "core.Box.grow  0/1  never: 28"
    assert by_name["core.outer"] == "core.outer  0/2  never: 32 34"
    assert by_name["core.outer.inner"] == "core.outer.inner  0/1  never: 33"
    assert by_name["cli.main"] == "cli.main  4/4"  # run in process, from a scratch directory
    # the except clause that matched is reached, the one after it is not
    assert by_name["core.raises"] == "core.raises  4/6  never: 20 21"
    assert list(by_name) == ["cli.main", "core.used", "core.unused", "core.raises",
                             "core.Box.grow", "core.outer", "core.outer.inner"]
    assert not (tmp_path / "out.txt").exists()
    after = sorted(p.name for p in tree.rglob("*") if "__pycache__" not in p.parts)
    assert after == before


def test_traffic_needs_one_tree():
    proc = subprocess.run([sys.executable, str(TOOL)], capture_output=True, text=True)
    assert proc.returncode == 2 and "traffic.py TREE" in proc.stderr
    assert proc.stdout == ""
