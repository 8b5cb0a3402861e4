"""Sup-norm error bounds, bound-function scans over rule families, and the
box-domain mean-value bound.

The bound function x -> M_r(x) of a one-parameter family is always computed
from kernels (never from hard-coded formulas), so it works equally for
families without known closed forms.  Branch points are the parameters where
the kernel's interior root pattern changes; the scan tracks that pattern on
the grid, which localizes even branch points where the bound itself is
numerically indistinguishable from smooth.  A probe of that pattern isolates
the kernel's roots, but forms no L1 sum.  A change within the
bisection tolerance of a grid point (a branch switch at x = 1/2, or nodes
colliding at a domain end) is taken as that grid point, exactly; any other
change is bisected, and the simplest rational in the final bracket is
reported, so a kink at a small rational such as 1/3 comes back exactly too.

Minima are found from the exact derivative dM_r/dx, which one kernel pass at
a dual-number node x + eps gives (forward-mode differentiation).  On each
branch the minimizer is a branch end, or lies in a bracket across which
dM_r/dx provably goes from <= 0 to >= 0, shrunk by regula falsi on exact
rational iterates; every decision compares exact values or validated
enclosures, never floats.  A value, probe or slope at a scan point is one
pass that isolates the roots of each kernel
piece: over the integer pieces of the family's fitted form where it covers
the point (a rational x or x + eps), with no rule or kernel object, and over
the kernel of the built rule (``RuleFamily.build``) at any other point.
"""

from __future__ import annotations

import csv
import json
from dataclasses import dataclass
from fractions import Fraction
from typing import NamedTuple

from .composite import _certificate
from .errors import (
    BadInterval,
    InvalidPartition,
    OrderExceedsExactness,
    ParamOutOfDomain,
    PointOutsideBox,
)
from .peano import _kernel_l1, _piece_roots, build_kernel, l1_sum
from .roots import DEFAULT_ROOT_TOL, _isolate_rational, _simplest_in_open
from .rules import Domain, QuadRule, RuleFamily
from .scalars import Scalar, _Dual, approx_quad, as_scalar, field_parts, get_working_dps


def error_bound(rule: QuadRule, r: int, deriv_sup, a=-1, b=1) -> Scalar:
    """A-priori bound M_r * h^(r+2) * deriv_sup for the rule mapped to [a, b].

    `deriv_sup` is the caller-asserted sup norm of f^(r+1) on [a, b]; the
    bound is valid whenever that assertion is.
    """
    return _certificate(rule, r, a, b, deriv_sup)(1)


@dataclass(frozen=True)
class BoundScan:
    """Sampled bound function with its refined minimizer.

    `branch_points` are parameters where the kernel's interior root pattern
    or piece structure changes.  That includes the closed-form branch
    switches of the bound function, and also degenerate parameters where
    nodes collide (typically at domain endpoints); the bound itself may stay
    smooth through the latter.  Each is an exact rational within 1e-9 of the
    change: the grid point itself when the change lies that close to one.
    """

    family: RuleFamily
    order: int
    grid: tuple[Scalar, ...]
    values: tuple[Scalar, ...]
    minimizer: tuple[Scalar, Scalar]  # (x*, M_r(x*))
    branch_points: tuple[Scalar, ...]
    multimodal_suspected: bool


class MinimizeResult(NamedTuple):
    x: Scalar
    value: Scalar
    multimodal_suspected: bool


def _bound_fn(family: RuleFamily, r: int):
    """Memoized x -> M_r(x), x -> kernel root signature, and
    x -> (M_r(x), M_r'(x)).

    The signature is the per-piece count of interior kernel roots; it changes
    exactly where the bound function switches branch.  Each is one pass at x,
    or x + eps, that isolates the roots of every kernel piece: of the fitted
    form's integer pieces (``_forms.form_pieces``) at a rational point that
    the form covers, with no rule or kernel, else of the built rule's kernel
    (``_piece_roots``).  A value or slope pass then sums |K_r| over them
    (``peano.l1_sum``, or ``_kernel_l1`` as ``kernel_l1_norm`` does); a probe
    forms no sum.  A pass at x memoizes its signature; no piece or root
    outlives it.
    The derivative is that of the kernel pass at a dual number x + eps,
    which carries d/dx through the nodes, weights, breakpoints and
    integrals; where M_r has a corner it is the right-hand derivative (the
    left-hand one at the upper end of the domain).
    """
    from ._forms import form_of, form_pieces, form_read  # compiled on a family's first scan

    values: dict[Fraction, Scalar] = {}
    sigs: dict[Fraction, tuple[int, ...]] = {}
    slopes: dict[Fraction, tuple[Scalar, Scalar]] = {}
    form = form_of(family)

    def scan(x: Fraction, d: int = 0, summed: bool = True):  # the pass at x + d*eps
        read = form and form_read(form, family.domain, x, d)
        pieces = read and form_pieces(read, r)
        if pieces:  # value parts to the root engine as isolate_roots hands them over
            ends = [(Fraction(g, read[4]), h and Fraction(h, read[4])) for g, h in read[6]]
            found = [_isolate_rational(A, lo, hi, DEFAULT_ROOT_TOL, Fraction(A[-1], den))
                     for (A, _, den, _), (lo, _), (hi, _) in zip(pieces, ends, ends[1:])]
        else:
            kernel = build_kernel(family.build(_Dual(x, d) if d else Scalar(x)), r)
            found = [roots for _, roots in _piece_roots(kernel)]
        if not d:
            sigs[x] = tuple(map(len, found))
        if summed:
            return l1_sum(pieces, ends, found) if pieces else _kernel_l1(kernel, found)

    def fn(x: Fraction) -> Scalar:
        got = values.get(x)
        if got is None:
            got = values[x] = scan(x)
        return got

    def sig(x: Fraction) -> tuple[int, ...]:
        if x not in sigs:
            scan(x, summed=False)
        return sigs[x]

    def slope(x: Fraction) -> tuple[Scalar, Scalar]:
        got = slopes.get(x)
        if got is None:
            # one-sided into the domain: from the left at its upper end
            seed = -1 if x == family.domain.hi else 1
            m, dm = _Dual.parts(scan(x, seed))
            got = slopes[x] = (m, dm * seed)
        return got

    return fn, sig, slope


def _estimate(g: Scalar) -> Fraction:
    """A rational near g, close relative to |g|, with g's sign (0 for 0)."""
    parts = field_parts([g])
    if parts is None:  # an interval whose sign is known: its midpoint
        lo, hi = g.bounds()
        return (lo + hi) / 2
    m, [(a, b)] = parts
    return approx_quad(a, b, m, 4 * get_working_dps())


def _slope_min(slope, a: Fraction, b: Fraction, tol: Fraction) -> tuple[Fraction, Scalar]:
    """Minimum of M on [a, b] from the sign of M' (``slope(x) = (M, M')``).

    Unless M' goes from <= 0 at a to >= 0 at b, and is not zero at both,
    the minimum is the smaller endpoint value.  Otherwise the sign change of
    M' brackets the minimizer with a certificate (Moore, Kearfott & Cloud,
    *Introduction to Interval Analysis*, SIAM 2009, ch. 8), and the bracket
    is shrunk below ``tol`` by Illinois regula falsi (Dowell & Jarratt, BIT
    11, 1971), with a bisection whenever the bracket fails to halve in three
    steps.  An end with M' = 0 may be a maximum (liu_park r = 1 at x = 0),
    so it is searched too; its secant weight is 0, and as only an original
    end can carry that weight, the secant never divides by zero.  The first
    iterate is the simplest rational inside, so minimizers like 1/2 are hit
    exactly; later ones are exact rationals with modest denominators near
    the secant point.  Each sign is decided by ``Scalar.sign``; a sign it
    cannot decide ends the search with the bracket found so far.  Values
    whose enclosures overlap are a tie, which keeps the incumbent.
    """
    (va, ga), (vb, gb) = slope(a), slope(b)
    best = (b, vb) if vb.lt_definite(va) else (a, va)
    sa, sb = ga.sign(), gb.sign()
    if sa not in (-1, 0) or sb not in (0, 1) or sa == sb or b - a <= tol:
        return best
    qa, qb = _estimate(ga), _estimate(gb)
    side, stale, goal = 0, 0, (b - a) / 2
    c = _simplest_in_open(a, b)
    while True:
        vc, gc = slope(c)
        s = gc.sign()
        if s == 0:
            return c, vc
        if s is None:
            return (c, vc) if vc.lt_definite(best[1]) else best
        # Illinois: halve the weight of an end kept twice in a row
        if s < 0:
            a, va, qa = c, vc, _estimate(gc)
            if side == -1:
                qb /= 2
            side = -1
        else:
            b, vb, qb = c, vc, _estimate(gc)
            if side == 1:
                qa /= 2
            side = 1
        best = (b, vb) if vb.lt_definite(va) else (a, va)
        w = b - a
        if w <= tol:
            return best
        if w <= goal:
            stale, goal = 0, w / 2
        else:
            stale += 1
        if stale == 3:
            c = (a + b) / 2
        else:
            c = b - qb * w / (qb - qa)
            c = _simplest_in_open(max(a, c - w / 2**20), min(b, c + w / 2**20))


def _locate_signature_change(sig, a: Fraction, b: Fraction, tol: Fraction) -> Fraction:
    """A point within ``tol`` of a change of the kernel root signature in
    [a, b], whose end signatures differ.

    Branch switches and node collisions often sit on a grid point (x = 0,
    +-1, 1/2), so the ends are tried first: when the signature one ``tol``
    inside an end differs from that end's own, a change lies within ``tol``
    of that end, which is returned exactly; a cell holding a second change
    (gs2's [1/2, 1] on a 3-point grid) still gives its end.  Otherwise it is
    bisected, and the simplest rational inside the final bracket is returned,
    so a kink at a small rational (1/3, 3/5) comes back exactly.  A cell no
    wider than 2 ``tol`` is only bisected, never probed outside itself.
    """
    sig_a, sig_b = sig(a), sig(b)
    if b - a > 2 * tol:
        if sig(a + tol) != sig_a:
            return a
        if sig(b - tol) != sig_b:
            return b
    while b - a > tol:
        m = (a + b) / 2
        if sig(m) == sig_a:
            a = m
        else:
            b = m
    return _simplest_in_open(a, b)


def _positive_fraction(value, name: str) -> Fraction:
    """A tolerance as an exact rational (a float is read exactly); must be > 0."""
    value = as_scalar(value).as_fraction()
    if value <= 0:
        raise ValueError(f"{name} must be positive")
    return value


def bound_scan(
    family: RuleFamily,
    r: int,
    grid_size: int = 101,
    lo=None,
    hi=None,
    refine_tol=1e-12,
) -> BoundScan:
    """Evaluate x -> M_r(x) on a grid, locate branch points, refine the minimum.

    Each grid cell whose end signatures differ holds a branch point: the cell
    end itself when the change lies within 1e-9 of it (one or two kernel
    passes), otherwise the simplest rational in a bisection bracket of width
    at most 1e-9.  A grid point found from both neighbouring cells is
    reported once.
    On each branch between branch points the minimum is an end of the branch,
    unless dM_r/dx goes from <= 0 to >= 0 across it (zero at one end at
    most).  Then that sign change is bracketed, each sign decided exactly or
    by a validated enclosure, and the bracket is shrunk to width at most
    ``refine_tol``, or until a sign cannot be decided.  The minimizer is the
    bracket end with the smaller value, an exact rational.  When the least
    grid value is definitely below that minimum, its grid point is the
    minimizer instead, and ``multimodal_suspected`` is set unless the
    refined minimizer lies in one of that point's two grid cells.
    ``refine_tol`` and the window ends ``lo`` and ``hi`` are exact rationals
    (a float is read exactly); an irrational or interval end raises
    ``ValueError``.
    """
    refine_tol = _positive_fraction(refine_tol, "refine_tol")
    if grid_size < 3:
        raise ValueError("grid_size must be at least 3")
    if r < 0:
        raise ValueError("kernel order must be nonnegative")
    if r > family.generic_degree:
        raise OrderExceedsExactness(
            f"order {r} exceeds the generic exactness degree "
            f"{family.generic_degree} of family {family.label()}"
        )
    dom = family.domain
    if lo is not None or hi is not None:
        nlo = dom.lo if lo is None else max(dom.lo, as_scalar(lo).as_fraction())
        nhi = dom.hi if hi is None else min(dom.hi, as_scalar(hi).as_fraction())
        if not nlo < nhi:
            raise ParamOutOfDomain("scan window is empty inside the family domain")
        dom = Domain(nlo, nhi, dom.lo_open and nlo == dom.lo, dom.hi_open and nhi == dom.hi)
    grid = dom.grid(grid_size)
    fn, sig, slope = _bound_fn(family, r)
    values = [fn(x) for x in grid]

    branch_tol = Fraction(1, 10**9)
    kinks: list[Fraction] = []
    for i in range(len(grid) - 1):
        if sig(grid[i]) != sig(grid[i + 1]):
            kinks.append(_locate_signature_change(sig, grid[i], grid[i + 1], branch_tol))
    kinks.sort()
    merged: list[Fraction] = []
    for k in kinks:
        # a degenerate transition (double root at the switch) is seen from both
        # sides, as the same grid point when it sits on one; collapse
        # detections within a few bisection tolerances
        if merged and k - merged[-1] <= 8 * branch_tol:
            merged[-1] = (merged[-1] + k) / 2
        else:
            merged.append(k)
    kinks = merged

    cuts = [grid[0], *kinks, grid[-1]]
    best_x, best_v = None, None
    for a, b in zip(cuts, cuts[1:]):
        if not a < b:
            continue
        x, v = _slope_min(slope, a, b, refine_tol)
        if best_v is None or v.lt_definite(best_v):
            best_x, best_v = x, v

    g = 0
    for i, v in enumerate(values):
        if v.lt_definite(values[g]):
            g = i
    multimodal = False
    if values[g].lt_definite(best_v):
        # the best value seen: the exact minimizer when the search ended in a
        # cell next to it, else a basin the per-branch search missed
        multimodal = not grid[max(g - 1, 0)] <= best_x <= grid[min(g + 1, len(grid) - 1)]
        best_x, best_v = grid[g], values[g]
    return BoundScan(
        family=family,
        order=r,
        grid=tuple(Scalar(x) for x in grid),
        values=tuple(values),
        minimizer=(Scalar(best_x), best_v),
        branch_points=tuple(Scalar(k) for k in kinks),
        multimodal_suspected=multimodal,
    )


def minimize_bound(family: RuleFamily, r: int, tol=Fraction(1, 10**12)) -> MinimizeResult:
    """Locate (x*, M_r(x*)) over the family domain.

    A :func:`bound_scan` on 33 grid points: x* is an exact rational within
    ``tol`` of the certified sign change of dM_r/dx on its branch (or a branch
    end; or the end of a wider bracket where a sign could not be decided), and
    the value is M_r(x*).  Assumes the bound is piecewise smooth and unimodal
    per branch (this holds for every catalog family).  The result is flagged
    ``multimodal_suspected`` when the scan flags it, or when M_r at
    x* +- 1e-6 is definitely below the value; it is then only the best
    grid-refined value.
    """
    tol = _positive_fraction(tol, "tol")
    scan = bound_scan(family, r, grid_size=33, refine_tol=tol)
    x_star, v_star = scan.minimizer
    multimodal = scan.multimodal_suspected
    fn = _bound_fn(family, r)[0]
    eps = Fraction(1, 10**6)
    xf = x_star.as_fraction()
    for probe in (xf - eps, xf + eps):
        if family.domain.contains(probe) and fn(probe).lt_definite(v_star):
            multimodal = True
    return MinimizeResult(x=x_star, value=v_star, multimodal_suspected=multimodal)


def alomari4_min_m0(lam) -> tuple[Scalar, Scalar]:
    """Closed-form M_0 minimizer of the symmetric four-point family:
    x* = (1-lambda)/2 with value (3 lambda^2 - 2 lambda + 1)/2.
    """
    lam = as_scalar(lam)
    if not (Scalar(0) < lam < Scalar(1)):
        raise ParamOutOfDomain("alomari4: need 0 < lambda < 1")
    x_star = (Scalar(1) - lam) / 2
    value = (3 * lam * lam - 2 * lam + Scalar(1)) / 2
    return x_star, value


# --------------------------------------------------------------------------
# box-domain mean-value bound and tagged-partition bound


@dataclass(frozen=True)
class BoxDomain:
    """Axis-aligned box with per-direction partial-derivative bounds."""

    intervals: tuple[tuple[Scalar, Scalar], ...]
    deriv_bounds: tuple[Scalar, ...]

    def __post_init__(self):
        if len(self.intervals) != len(self.deriv_bounds):
            raise ValueError("need one derivative bound per dimension")
        for a, b in self.intervals:
            if not a.lt_definite(b):
                raise BadInterval(f"box side [{a}, {b}] is empty")
        for m in self.deriv_bounds:
            if not m > Scalar(0):
                raise ValueError("derivative bounds must be positive")

    @staticmethod
    def of(intervals, deriv_bounds) -> "BoxDomain":
        return BoxDomain(
            tuple((as_scalar(a), as_scalar(b)) for a, b in intervals),
            tuple(as_scalar(m) for m in deriv_bounds),
        )


def multidim_ostrowski_bound(box: BoxDomain, point) -> Scalar:
    """Bound on |f(point) - box average of f| given the per-axis bounds.

    Sum over axes of [1/4 + (x_i - mid_i)^2 / (b_i - a_i)^2] (b_i - a_i) M_i.
    """
    pts = [as_scalar(p) for p in point]
    if len(pts) != len(box.intervals):
        raise ValueError("point dimension does not match the box")
    total = Scalar(0)
    quarter = Scalar(Fraction(1, 4))
    for x, (a, b), m in zip(pts, box.intervals, box.deriv_bounds):
        if x < a or x > b:
            raise PointOutsideBox(f"coordinate {x} outside [{a}, {b}]")
        side = b - a
        off = x - (a + b) / 2
        total = total + (quarter + off * off / (side * side)) * side * m
    return total


def composite_partition_bound(partition, points, deriv_bound) -> Scalar:
    """Tagged-partition bound on [0, 1]: (M/2) sum (x_k-a_{k-1})^2 + (a_k-x_k)^2."""
    parts = [as_scalar(p) for p in partition]
    tags = [as_scalar(x) for x in points]
    if len(parts) < 2 or len(tags) != len(parts) - 1:
        raise InvalidPartition("need n+1 partition points and n tag points")
    if not (parts[0] == Scalar(0) and parts[-1] == Scalar(1)):
        raise InvalidPartition("partition must run from 0 to 1")
    for a, b in zip(parts, parts[1:]):
        if not a.lt_definite(b):
            raise InvalidPartition("partition points must strictly increase")
    for k, x in enumerate(tags):
        if x < parts[k] or x > parts[k + 1]:
            raise InvalidPartition(f"tag {x} outside panel [{parts[k]}, {parts[k + 1]}]")
    m = as_scalar(deriv_bound)
    if m < Scalar(0):
        raise ValueError("derivative bound must be nonnegative")
    total = Scalar(0)
    for k, x in enumerate(tags):
        l = x - parts[k]
        rgt = parts[k + 1] - x
        total = total + l * l + rgt * rgt
    return m / 2 * total


# --------------------------------------------------------------------------
# export


def export_scan_csv(scan: BoundScan, path, digits: int = 17) -> None:
    """Columns x, M_r(x), branch_id: the number of branch points strictly
    below x, compared exactly."""
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(["x", f"M{scan.order}", "branch_id"])
        for x, v in zip(scan.grid, scan.values):
            branch = sum(1 for k in scan.branch_points if k < x)
            w.writerow([x.to_decimal(digits), v.to_decimal(digits), branch])


def scan_json_dict(scan: BoundScan, digits: int = 17) -> dict:
    x, v = scan.minimizer
    return {
        "family": scan.family.label(),
        "order": scan.order,
        "minimizer": {"x": x.to_json_str(digits), "value": v.to_json_str(digits),
                      "x_decimal": x.to_decimal(digits), "value_decimal": v.to_decimal(digits)},
        "branch_points": [b.to_decimal(digits) for b in scan.branch_points],
        "multimodal_suspected": scan.multimodal_suspected,
        "grid_size": len(scan.grid),
    }


def export_scan_json(scan: BoundScan, path, digits: int = 17) -> None:
    with open(path, "w") as fh:
        json.dump(scan_json_dict(scan, digits), fh, indent=2)
        fh.write("\n")
