#!/usr/bin/env python3
"""Which statements of a source tree the benchmark operations reach.

    python3 tools/traffic.py TREE

TREE must hold ``src/peanoquad`` and ``perfbench/workloads.py``.  The tree's
package and workload definitions are imported (read only), and the operation
set of ``tools/same_outputs.py`` (its ``DUMP_SET``) is built with
``make_plan`` and run with ``execute`` under a line tracer (``sys.settrace``)
that records only frames of code in ``TREE/src/peanoquad``.  A CLI operation
runs in this process, as ``peanoquad.cli.main(argv)`` from a temporary
working directory with its output captured, in place of a CLI process.

For each function of the package, in file and line order, one line is
printed: its name, the statements reached out of its statements, and the
line numbers of those never reached.  A function's statements are those of
its body that compile to code, without its docstring; a nested function or
a method is listed by itself, and its ``def`` counts as a statement of the
function around it.  A statement is reached when the tracer saw a line event
on a line of it that holds code (of a compound statement, its header; of an
``except`` clause, its first line).  Module and class bodies are not listed.
The second-to-last line sums the statements reached and counts the functions
never entered.  The last line does the same for the direct calls of
``tools/same_outputs.py`` (its ``direct_outputs``), traced apart from the
operations.  Standard library only; Python 3.10 or later.
"""

from __future__ import annotations

import ast
import contextlib
import io
import os
import sys
import tempfile

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
from same_outputs import DUMP_SET, direct_outputs  # noqa: E402

FUNCTIONS = (ast.FunctionDef, ast.AsyncFunctionDef)


def code_lines(source: str, path: str) -> set[int]:
    """Every line that holds an instruction of the compiled file."""
    lines, todo = set(), [compile(source, path, "exec")]
    while todo:
        code = todo.pop()
        lines.update(line for _, _, line in code.co_lines() if line is not None)
        todo.extend(c for c in code.co_consts if hasattr(c, "co_lines"))
    return lines


def _span(node) -> set[int]:
    """The lines of a simple statement, or of a compound statement's header
    (decorators included)."""
    first = min([node.lineno] + [d.lineno for d in getattr(node, "decorator_list", [])])
    body = getattr(node, "body", None)
    if isinstance(node, ast.ClassDef) or not isinstance(body, list) or not body:
        last = node.end_lineno
    else:
        last = max(node.lineno, body[0].lineno - 1)
    return set(range(first, last + 1))


def functions(source: str, path: str) -> list[tuple[str, int, list[set[int]]]]:
    """(qualified name, first line, the code lines of each statement) for each
    function of a file; statements with no code line are left out."""
    executable, out = code_lines(source, path), []

    def walk(stmts, prefix: str, owner: list | None):
        for node in stmts:
            if isinstance(node, ast.ExceptHandler):
                if owner is not None:
                    owner.append(_span(node) & executable)
                walk(node.body, prefix, owner)
                continue
            if owner is not None and not isinstance(node, ast.ClassDef):
                owner.append(_span(node) & executable)
            if isinstance(node, FUNCTIONS):
                mine: list[set[int]] = []
                out.append((prefix + node.name, node.lineno, mine))
                body = node.body
                if (isinstance(body[0], ast.Expr) and isinstance(body[0].value, ast.Constant)
                        and isinstance(body[0].value.value, str)):
                    body = body[1:]
                walk(body, prefix + node.name + ".", mine)
            elif isinstance(node, ast.ClassDef):
                walk(node.body, prefix + node.name + ".", None)
            else:
                for field in ("body", "orelse", "finalbody", "handlers"):
                    walk(getattr(node, field, []), prefix, owner)
                for case in getattr(node, "cases", []):  # match statements
                    walk(case.body, prefix, owner)

    walk(ast.parse(source).body, "", None)
    for _, _, stmts in out:
        stmts[:] = [s for s in stmts if s]
    return sorted(out, key=lambda f: f[1])


def tracer(prefix: str, hits: dict[str, set[int]]):
    """A global trace function that records the line events of code whose
    file lies under prefix, into hits by file."""
    local_of: dict[str, object] = {}

    def global_trace(frame, event, arg):
        name = frame.f_code.co_filename
        local = local_of.get(name)
        if local is None and name not in local_of:
            if name.startswith(prefix):
                add = hits.setdefault(name, set()).add

                def local(frame, event, arg):
                    if event == "line":
                        add(frame.f_lineno)
                    return local
            local_of[name] = local
        return local

    return global_trace


def run_ops(tree: str, hits: dict[str, set[int]]) -> int:
    """Run the operation set under the tracer; the number of operations."""
    src = os.path.join(tree, "src")
    sys.path[:0] = [os.path.join(tree, "perfbench"), src]
    import peanoquad as pq
    import peanoquad.cli
    import workloads as wl

    count, cwd = 0, os.getcwd()
    os.environ.pop("PEANOQUAD_OUTDIR", None)
    with tempfile.TemporaryDirectory() as scratch:
        env = wl.Env(pq, scratch, [sys.executable, "-m", "peanoquad.cli"], dict(os.environ))
        plans = [wl.make_plan(workload, seed) for workload, seeds, _ in DUMP_SET for seed in seeds]
        rounds = {workload: n for workload, _, n in DUMP_SET}
        os.chdir(scratch)
        sys.settrace(tracer(os.path.join(src, "peanoquad") + os.sep, hits))
        try:
            for plan in plans:
                for ops in plan.rounds[:rounds[plan.workload]]:
                    for op in ops:
                        count += 1
                        try:
                            if op.kind == "cli":
                                sink = io.StringIO()
                                with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
                                    peanoquad.cli.main(list(op.spec["argv"]))
                            else:
                                wl.execute(env, op)
                        except (Exception, SystemExit):  # a raise is traffic too
                            pass
        finally:
            sys.settrace(None)
            os.chdir(cwd)
    return count


def run_direct(tree: str, hits: dict[str, set[int]]) -> int:
    """Run the direct calls under the tracer, after ``run_ops`` has imported
    the tree's package; the number of calls."""
    import peanoquad as pq

    sys.settrace(tracer(os.path.join(tree, "src", "peanoquad") + os.sep, hits))
    try:
        return len(direct_outputs(pq))
    finally:
        sys.settrace(None)


def reach(package: str, hits: dict[str, set[int]]) -> tuple[list[str], tuple[int, int, int, int]]:
    """The line of each function, and the counts of the summary: statements
    reached, statements, functions never entered, functions."""
    lines, reached, total, unentered, n_funcs = [], 0, 0, 0, 0
    for name in sorted(n for n in os.listdir(package) if n.endswith(".py")):
        path = os.path.join(package, name)
        with open(path) as fh:
            source = fh.read()
        seen = hits.get(path, set())
        for qualname, _, stmts in functions(source, path):
            got = [bool(s & seen) for s in stmts]
            never = [min(s) for s, ok in zip(stmts, got) if not ok]
            n_funcs += 1
            unentered += bool(stmts) and not any(got)
            reached, total = reached + sum(got), total + len(stmts)
            line = f"{name[:-3]}.{qualname}  {sum(got)}/{len(stmts)}"
            lines.append(line + ("  never: " + " ".join(map(str, never)) if never else ""))
    return lines, (reached, total, unentered, n_funcs)


def summary(counts: tuple[int, int, int, int], calls: str) -> str:
    reached, total, unentered, n_funcs = counts
    return (f"{reached} of {total} statements reached over {calls}; "
            f"{unentered} of {n_funcs} functions never entered")


def main(argv: list[str]) -> int:
    if len(argv) != 1:
        print(__doc__.strip().splitlines()[2], file=sys.stderr)
        return 2
    tree = os.path.abspath(argv[0])
    package = os.path.join(tree, "src", "peanoquad")
    ops, direct = {}, {}
    n_ops = run_ops(tree, ops)
    n_direct = run_direct(tree, direct)
    lines, counts = reach(package, ops)
    print("\n".join(lines))
    print(summary(counts, f"{n_ops} ops"))
    print(summary(reach(package, direct)[1], f"{n_direct} direct calls"))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
