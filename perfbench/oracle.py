"""Reference values computed without the library under test.

Everything here is rebuilt from the rule formulas themselves: catalog node and
weight formulas, the Peano kernel formula, exact Sturm isolation of kernel
roots and closed-form integrals.  Rational data stays in ``Fraction``;
irrational data is evaluated with mpmath at twice the library's working
precision.  Nothing from ``peanoquad`` is imported.
"""

from __future__ import annotations

import math
from fractions import Fraction

import mpmath

F = Fraction


def to_mpf(x):
    if isinstance(x, F):
        return mpmath.mpf(x.numerator) / x.denominator
    return mpmath.mpf(x)


def to_fraction(x) -> F:
    """Exact rational value of a Fraction, int or finite mpf.

    An mpf is read as it is stored: converting it anew would round it to the
    current precision, and a tight enclosure would then seem to miss.
    """
    if isinstance(x, (F, int)):
        return F(x)
    sign, man, exp, _ = (x if isinstance(x, mpmath.mpf) else mpmath.mpf(x))._mpf_
    if man == 0:
        return F(0)
    v = F(man) * F(2) ** exp
    return -v if sign else v


# --------------------------------------------------------------------------
# catalog rules, rebuilt from their documented formulas


def _sqrt_rat(q: F):
    return mpmath.sqrt(to_mpf(q))


def catalog_nodes(name: str, p: dict):
    """(value_nodes, deriv_nodes) as (node, weight) lists of Fraction or mpf."""
    one = F(1)
    half = F(1, 2)
    if name == "ostrowski":
        return [(p["x"], F(2))], []
    if name == "mp3":
        x = p["x"]
        return [(-one, (1 + x) / 2), (x, one), (one, (1 - x) / 2)], []
    if name in ("mod3", "mod3_opt"):
        x = p["x"]
        lam = p["lambda"] if name == "mod3" else F(2, 3) / (1 - x * x)
        return [(-one, 1 - lam * (1 - x)), (x, 2 * lam), (one, 1 - lam * (1 + x))], []
    if name == "simpson":
        return [(-one, F(1, 3)), (F(0), F(4, 3)), (one, F(1, 3))], []
    if name == "dcr":
        lam, x = p["lambda"], p["x"]
        return [(-one, lam), (x, 2 * (1 - lam)), (one, lam)], []
    if name in ("gs2", "gauss_legendre2"):
        x = p["x"] if name == "gs2" else _sqrt_rat(F(1, 3))
        return [(-x, one), (x, one)], []
    if name in ("franjic", "radau2"):
        x = p["x"] if name == "franjic" else F(1, 3)
        return [(-one, 2 * x / (1 + x)), (x, 2 / (1 + x))], []
    if name == "alomari2":
        lam = p["lambda"]
        return [(p["x"], 1 + lam), (p["y"], 1 - lam)], []
    if name in ("alomari4", "lobatto4"):
        lam, x = (p["lambda"], p["x"]) if name == "alomari4" else (F(1, 6), _sqrt_rat(F(1, 5)))
        return [(-one, lam), (-x, 1 - lam), (x, 1 - lam), (one, lam)], []
    if name in ("liu_park", "liu_park_gauss"):
        x = p["x"] if name == "liu_park" else _sqrt_rat(F(1, 3))
        return [(-one, half), (-x, half), (x, half), (one, half)], [(-x, x / 2), (x, -x / 2)]
    if name == "dragomir_sofo":
        x = p["x"]
        return [(-one, half), (x, one), (one, half)], [(x, -x)]
    if name == "q44":
        lam, g, d, x = p["lambda"], p["gamma"], p["delta"], p["x"]
        return (
            [(-one, lam), (-x, 1 - lam), (x, 1 - lam), (one, lam)],
            [(-one, -g), (-x, -d), (x, d), (one, g)],
        )
    raise KeyError(name)


def rule_nodes(spec: dict):
    """Nodes of a benchmark rule spec (catalog entry or custom node list)."""
    if spec["kind"] == "catalog":
        params = {k: F(v) for k, v in spec["params"].items()}
        return catalog_nodes(spec["name"], params)
    vals = [(F(x), F(w)) for x, w in spec["value_nodes"]]
    ders = [(F(y), F(w)) for y, w in spec.get("deriv_nodes", [])]
    return vals, ders


def is_exact(nodes) -> bool:
    vals, ders = nodes
    return all(isinstance(v, F) for pair in vals + ders for v in pair)


def _uniform(nodes):
    """Exact nodes unchanged; otherwise every entry as an mpf."""
    if is_exact(nodes):
        return nodes
    vals, ders = nodes
    return ([(to_mpf(x), to_mpf(w)) for x, w in vals],
            [(to_mpf(y), to_mpf(w)) for y, w in ders])


# --------------------------------------------------------------------------
# polynomials as ascending coefficient lists


def _trim(c):
    while c and c[-1] == 0:
        c.pop()
    return c


def _peval(c, t):
    acc = 0
    for a in reversed(c):
        acc = acc * t + a
    return acc


def _pderiv(c):
    return [c[i] * i for i in range(1, len(c))]


def _pantideriv(c):
    return [0] + [c[i] / (i + 1) for i in range(len(c))]


def _pdivmod(a, b):
    a = list(a)
    q = [F(0)] * max(len(a) - len(b) + 1, 0)
    while len(a) >= len(b) and a:
        k = len(a) - len(b)
        f = a[-1] / b[-1]
        q[k] = f
        for i in range(len(b)):
            a[k + i] -= f * b[i]
        a.pop()
        _trim(a)
    return _trim(q), a


def _pgcd(a, b):
    while b:
        a, b = b, _pdivmod(a, b)[1]
    return a


def _affine_power(c, r: int):
    """Ascending coefficients of (c - t)**r."""
    return [math.comb(r, j) * c ** (r - j) * (-1) ** j for j in range(r + 1)]


# --------------------------------------------------------------------------
# real roots: exact Sturm isolation, then Newton polishing


def _sturm(q):
    chain = [q, _pderiv(q)]
    while len(chain[-1]) > 1:
        rem = _pdivmod(chain[-2], chain[-1])[1]
        if not rem:
            break
        chain.append([-x for x in rem])
    return chain


def _variations(chain, t) -> int:
    signs = [v > 0 for v in (_peval(p, t) for p in chain) if v != 0]
    return sum(1 for a, b in zip(signs, signs[1:]) if a != b)


def _polish(q, a: F, b: F):
    """The single root of squarefree q in (a, b], to the mpf precision."""
    dq = _pderiv(q)
    qa = _peval(q, a)
    # q is squarefree, so just right of a root at a it has the sign of q'(a)
    s_lo = qa > 0 if qa != 0 else _peval(dq, a) > 0
    qm = [to_mpf(c) for c in q]
    dqm = [to_mpf(c) for c in dq]
    lo, hi = to_mpf(a), to_mpf(b)
    x = (lo + hi) / 2
    eps = mpmath.mpf(2) ** (-mpmath.mp.prec + 8)
    for _ in range(4 * mpmath.mp.prec):
        fx = _peval(qm, x)
        if fx == 0:
            return x
        if (fx > 0) == s_lo:
            lo = x
        else:
            hi = x
        d = _peval(dqm, x)
        nx = x - fx / d if d != 0 else (lo + hi) / 2
        if not lo < nx < hi:
            nx = (lo + hi) / 2
        if abs(nx - x) <= eps * (1 + abs(x)) or hi - lo <= eps:
            return nx
        x = nx
    return x


def _rational_or_polished(q, a: F, b: F):
    """The root of q in (a, b): exact when rational, else polished mpf.

    A rational root's denominator divides the leading coefficient of q
    scaled to integers, so the best approximation with that denominator
    bound is the only candidate to test exactly.
    """
    x = _polish(q, a, b)
    den = 1
    for c in q:
        den = den * c.denominator // math.gcd(den, c.denominator)
    cand = to_fraction(x).limit_denominator(abs(q[-1] * den).numerator or 1)
    return cand if a < cand < b and _peval(q, cand) == 0 else x


def real_roots(coeffs, lo: F, hi: F) -> list:
    """Every distinct real root of the polynomial in (lo, hi), sorted.

    The coefficients are converted to exact rationals (mpf values are dyadic,
    so this is exact), isolated with a Sturm chain of the squarefree part and
    polished by bracketed Newton steps in the current mpf precision.
    """
    p = _trim([to_fraction(c) for c in coeffs])
    if len(p) < 2:
        return []
    g = _pgcd(p, _pderiv(p))
    q = _pdivmod(p, g)[0] if len(g) > 1 else p
    chain = _sturm(q)
    out = []
    stack = [(lo, hi, _variations(chain, lo) - _variations(chain, hi))]
    while stack:
        a, b, n = stack.pop()
        if n <= 0:
            continue
        if n == 1:
            out.append(b if _peval(q, b) == 0 else _rational_or_polished(q, a, b))
            continue
        m = (a + b) / 2
        vm = _variations(chain, m)
        stack.append((a, m, _variations(chain, a) - vm))
        stack.append((m, b, vm - _variations(chain, b)))
    return sorted((x for x in out if lo < to_fraction(x) < hi), key=to_mpf)


# --------------------------------------------------------------------------
# kernels and constants


def _breakpoints(nodes, tol):
    vals, ders = nodes
    pts = sorted([F(-1), F(1)] + [x for x, _ in vals] + [y for y, _ in ders], key=to_mpf)
    out = [pts[0]]
    for p in pts[1:]:
        if abs(to_mpf(p) - to_mpf(out[-1])) > tol:
            out.append(p)
    return out


def kernel_pieces(nodes, r: int):
    """[(lo, hi, ascending coefficients)] of K_r, pieces (lo, hi]."""
    nodes = _uniform(nodes)
    vals, ders = nodes
    tol = mpmath.mpf(10) ** (-mpmath.mp.dps // 2)
    bps = _breakpoints(nodes, tol)
    one = F(1) if is_exact(nodes) else mpmath.mpf(1)
    lead = [c / (r + 1) for c in _affine_power(one, r + 1)]
    pieces = []
    for lo, hi in zip(bps, bps[1:]):
        c = list(lead) + [0 * one]
        hm = to_mpf(hi)
        for x, a in vals:
            if to_mpf(x) >= hm - tol:
                for j, v in enumerate(_affine_power(x, r)):
                    c[j] = c[j] - a * v
        if r >= 1:
            for y, b in ders:
                if to_mpf(y) >= hm - tol:
                    for j, v in enumerate(_affine_power(y, r - 1)):
                        c[j] = c[j] - b * r * v
        pieces.append((lo, hi, [v / math.factorial(r) for v in c]))
    return pieces


def kernel_value(nodes, r: int, t: F):
    """K_r(t), taken from the left piece at breakpoints."""
    pieces = kernel_pieces(nodes, r)
    c = next((c for _, hi, c in pieces if t <= to_fraction(hi)), pieces[-1][2])
    return _peval([to_mpf(v) for v in c], to_mpf(t))


def root_count(nodes, r: int) -> int:
    """Distinct real roots of K_r inside its pieces (open intervals)."""
    return sum(len(real_roots(c, to_fraction(lo), to_fraction(hi)))
               for lo, hi, c in kernel_pieces(nodes, r) if any(v != 0 for v in c))


def l1_norm(nodes, r: int):
    """M_r = integral over [-1, 1] of |K_r|: a Fraction when every cut is
    rational and the data exact, else an mpf."""
    total = 0
    for lo, hi, c in kernel_pieces(nodes, r):
        if not any(v != 0 for v in c):
            continue
        cuts = [lo] + real_roots(c, to_fraction(lo), to_fraction(hi)) + [hi]
        anti = _pantideriv(c)
        if not all(isinstance(v, (F, int)) for v in cuts + anti):
            cuts = [to_mpf(t) for t in cuts]
            anti = [to_mpf(v) for v in anti]
        vals = [_peval(anti, t) for t in cuts]
        for v0, v1 in zip(vals, vals[1:]):
            total = total + abs(v1 - v0)
    return total


def remainder(nodes, f: list):
    """I(f) - Q(f) for a polynomial f given by ascending coefficients."""
    nodes = _uniform(nodes)
    vals, ders = nodes
    if not is_exact(nodes):
        f = [to_mpf(c) for c in f]
    anti = _pantideriv(f)
    df = _pderiv(f)
    q = sum(a * _peval(f, x) for x, a in vals)
    q = q + sum(b * _peval(df, y) for y, b in ders)
    return _peval(anti, F(1)) - _peval(anti, F(-1)) - q


def degree(nodes, k_max: int = 20, zero_tol=None) -> int:
    """Largest d with R(t**k) == 0 for every k <= d (k_max when all vanish)."""
    exact = is_exact(nodes)
    for k in range(k_max + 1):
        rk = remainder(nodes, [F(0)] * k + [F(1)])
        if exact:
            if rk != 0:
                return k - 1
        elif abs(to_fraction(rk)) > zero_tol:
            return k - 1
    return k_max


# --------------------------------------------------------------------------
# integrands


def integral(fname: str, a: F, b: F):
    """Exact or 2x-precision value of the integral of a named integrand."""
    am, bm = to_mpf(a), to_mpf(b)
    if fname == "exp":
        return mpmath.exp(bm) - mpmath.exp(am)
    if fname == "sin":
        return mpmath.cos(am) - mpmath.cos(bm)
    if fname == "cos":
        return mpmath.sin(bm) - mpmath.sin(am)
    if fname == "runge":
        return (mpmath.atan(5 * bm) - mpmath.atan(5 * am)) / 5
    raise KeyError(fname)


def poly_integral(coeffs: list, a: F, b: F) -> F:
    anti = _pantideriv(coeffs)
    return _peval(anti, b) - _peval(anti, a)
