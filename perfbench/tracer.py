"""Runtime tracing of peanoquad's public functions, from outside the package.

``Tracer.install()`` replaces every public function of the package's modules
with a timing wrapper, everywhere the function object is bound: its own
module and every module that imported it with ``from .x import f`` (for
example ``peanoquad.bounds.kernel_l1_norm``).  ``Scalar.interval`` and
``Polynomial.evaluate`` are wrapped on their classes.  Each call records a
span (name, start, end, parent) in memory; ``uninstall()`` restores the
originals.  Self time is a span's duration minus the time its child spans
cover.

Counts derived from outside the package:

* ``scalars.tier_drops``: an arithmetic operation on two exact or
  sqrt-tagged operands whose result is an interval.
* ``roots.isolate_roots`` input and output: whether every coefficient was
  rational, how many roots are exact (``Root.is_exact()``), and how many
  brackets are uncertified (``Polynomial.evaluate`` at the two ends does not
  give opposite, definite ``sign()``s).
"""

from __future__ import annotations

import importlib
import inspect
import time
from fractions import Fraction

MODULES = ("scalars", "polynomials", "roots", "exactness", "rules", "peano", "bounds",
           "composite", "cli")
#: methods wrapped on their classes: (module, class, method, aliases)
METHODS = (("scalars", "Scalar", "interval", ()),
           ("polynomials", "Polynomial", "evaluate", ("__call__",)))
#: called so often that storing each span would dominate memory; they are
#: still timed and still subtracted from their parent's self time
UNSTORED = {"scalars.Scalar.interval", "polynomials.Polynomial.evaluate"}
#: conversion helpers called inside every Scalar operation; wrapping them
#: would mostly measure the wrapper
SKIPPED = {"scalars.as_scalar", "scalars.get_working_dps"}
#: top-level bounds calls for bounds.kernels_per_call
BOUNDS_TOP = {"bounds.bound_scan", "bounds.minimize_bound", "bounds.alomari4_min_m0"}
ARITHMETIC = ("__add__", "__mul__", "__truediv__", "__pow__")
MAX_SPANS = 300_000


def _raw_to_fraction(raw) -> Fraction:
    """Exact value of an mpmath raw (sign, mantissa, exponent, bits) tuple."""
    sign, man, exp, _ = raw
    v = Fraction(man) * Fraction(2) ** exp
    return -v if sign else v


class Tracer:
    def __init__(self):
        self.calls: dict[str, list] = {}  # name -> [calls, total_s, self_s]
        self.spans: list[tuple] = []  # (id, parent id, name, start, end)
        self.spans_dropped = 0
        self.tier_drops = 0
        self.isolate = {"calls": 0, "rational_input": 0, "roots": 0, "exact_roots": 0,
                        "uncertified": 0}
        self.bounds_calls = 0
        self.bounds_kernels = 0
        self._bounds_depth = 0
        self._stack: list[list] = []  # [child seconds, span id] per open call
        self._next_id = 1
        self._arith_depth = 0
        self._paused = False
        self._restore: list[tuple] = []
        self._pkg = importlib.import_module("peanoquad")

    # -- wrapping ----------------------------------------------------------

    def _wrap(self, name: str, fn):
        clock = time.perf_counter
        stats = self.calls.setdefault(name, [0, 0.0, 0.0])
        store = name not in UNSTORED
        bounds_top = name in BOUNDS_TOP
        kernel = name == "peano.kernel_l1_norm"
        stack = self._stack

        def traced(*args, **kwargs):
            if self._paused:
                return fn(*args, **kwargs)
            if bounds_top:
                self.bounds_calls += self._bounds_depth == 0
                self._bounds_depth += 1
            elif kernel and self._bounds_depth:
                self.bounds_kernels += 1
            parent = stack[-1][1] if stack else 0
            sid = self._next_id
            self._next_id += 1
            frame = [0.0, sid]
            stack.append(frame)
            t0 = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                t1 = clock()
                stack.pop()
                if bounds_top:
                    self._bounds_depth -= 1
                dur = t1 - t0
                stats[0] += 1
                stats[1] += dur
                stats[2] += dur - frame[0]
                if stack:
                    stack[-1][0] += dur
                if store:
                    if len(self.spans) < MAX_SPANS:
                        self.spans.append((sid, parent, name, t0, t1))
                    else:
                        self.spans_dropped += 1

        traced.__wrapped__ = fn
        return traced

    def _wrap_isolate(self, traced):
        def isolate_roots(p, lo, hi, *args, **kwargs):
            roots = traced(p, lo, hi, *args, **kwargs)
            if not self._paused:
                t0 = time.perf_counter()
                self._paused = True
                try:
                    self._count_roots(p, roots)
                finally:
                    self._paused = False
                    # not the library's time: keep it out of the caller's self time
                    if self._stack:
                        self._stack[-1][0] += time.perf_counter() - t0
            return roots

        return isolate_roots

    def _count_roots(self, p, roots):
        s = self.isolate
        s["calls"] += 1
        s["rational_input"] += all(c.is_rational for c in p.coeffs)
        for root in roots:
            s["roots"] += 1
            if root.is_exact():
                s["exact_roots"] += 1
                continue
            ends = [p.evaluate(self._pkg.Scalar(_raw_to_fraction(e)))
                    for e in root.location.interval()._mpi_]
            sa, sb = ends[0].sign(), ends[1].sign()
            if sa is None or sb is None or sa * sb >= 0:
                s["uncertified"] += 1

    def _wrap_arith(self, fn):
        scalar_cls = self._pkg.Scalar

        def exactish(v):
            if isinstance(v, scalar_cls):
                return v._frac is not None or v._sqrt is not None
            return isinstance(v, (int, float, Fraction))

        def arith(a, b):
            if self._arith_depth or self._paused:
                return fn(a, b)
            self._arith_depth += 1
            try:
                out = fn(a, b)
            finally:
                self._arith_depth -= 1
            if exactish(a) and exactish(b) and not exactish(out):
                self.tier_drops += 1
            return out

        return arith

    def install(self):
        originals = {}
        for modname in MODULES:
            mod = importlib.import_module(f"peanoquad.{modname}")
            for attr, obj in vars(mod).items():
                if (attr.startswith("_") or not inspect.isfunction(obj)
                        or obj.__module__ != mod.__name__ or f"{modname}.{attr}" in SKIPPED):
                    continue
                wrapped = self._wrap(f"{modname}.{attr}", obj)
                if (modname, attr) == ("roots", "isolate_roots"):
                    wrapped = self._wrap_isolate(wrapped)
                originals[id(obj)] = (obj, wrapped)
        mods = [self._pkg] + [importlib.import_module(f"peanoquad.{m}") for m in MODULES]
        for mod in mods:
            for attr, obj in list(vars(mod).items()):
                hit = originals.get(id(obj))
                if hit is not None and hit[0] is obj:
                    self._restore.append((mod, attr, obj))
                    setattr(mod, attr, hit[1])
        for modname, clsname, meth, aliases in METHODS:
            cls = getattr(importlib.import_module(f"peanoquad.{modname}"), clsname)
            fn = cls.__dict__[meth]
            wrapped = self._wrap(f"{modname}.{clsname}.{meth}", fn)
            for attr in (meth,) + aliases:
                self._restore.append((cls, attr, cls.__dict__[attr]))
                setattr(cls, attr, wrapped)
        scalar_cls = self._pkg.Scalar
        for attr in ARITHMETIC:
            self._restore.append((scalar_cls, attr, scalar_cls.__dict__[attr]))
            setattr(scalar_cls, attr, self._wrap_arith(scalar_cls.__dict__[attr]))

    def uninstall(self):
        for owner, attr, obj in reversed(self._restore):
            setattr(owner, attr, obj)
        self._restore.clear()

    # -- results -----------------------------------------------------------

    def summary(self) -> dict:
        return {
            "functions": {k: {"calls": v[0], "total_ms": v[1] * 1e3, "self_ms": v[2] * 1e3}
                          for k, v in sorted(self.calls.items())},
            "tier_drops": self.tier_drops,
            "isolate_roots": dict(self.isolate),
            "bounds_calls": self.bounds_calls,
            "bounds_kernels": self.bounds_kernels,
            "spans_stored": len(self.spans),
            "spans_dropped": self.spans_dropped,
        }


def merge_summaries(parts: list[dict]) -> dict:
    """Sum the counts and times of several summaries (one per process)."""
    counts = ("tier_drops", "bounds_calls", "bounds_kernels", "spans_stored", "spans_dropped")
    out = {"functions": {}, "isolate_roots": {}, **{k: 0 for k in counts}}
    for part in parts:
        for name, v in part["functions"].items():
            acc = out["functions"].setdefault(name, {"calls": 0, "total_ms": 0.0, "self_ms": 0.0})
            for k in acc:
                acc[k] += v[k]
        for k, v in part["isolate_roots"].items():
            out["isolate_roots"][k] = out["isolate_roots"].get(k, 0) + v
        for k in counts:
            out[k] += part[k]
    return out


SPANS_HEADER = "process\tid\tparent\tname\tstart_s\tend_s\n"


def write_spans(tracer: Tracer, path: str, process: str) -> None:
    """Append one line per span (process, id, parent id, name, start and end
    in seconds) to a file that starts with SPANS_HEADER."""
    with open(path, "a") as fh:
        for sid, parent, name, t0, t1 in tracer.spans:
            fh.write(f"{process}\t{sid}\t{parent}\t{name}\t{t0:.9f}\t{t1:.9f}\n")
