"""Quadrature-rule data model, the rule catalog, and rule application on [a, b].

Rules live canonically on [-1, 1] as two node/weight sequences: plain value
nodes (x_k, A_k) and first-derivative nodes (y_k, B_k).  The catalog covers
the classical one-parameter families (midpoint/trapezoid blends, symmetric
two-point, Radau-type fixed-endpoint, four-point symmetric, double-node
rules) plus the general four-point double-node family.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from fractions import Fraction
from functools import cmp_to_key
from itertools import chain, count, islice, repeat, tee
from math import comb, fsum, isqrt
from operator import truediv
from types import MappingProxyType
from typing import Callable, Mapping

from .errors import BadInterval, MissingDerivative, ParamOutOfDomain, UnknownRule
from ._qpoly import _rule_ints, int_parts, zm_horner
from .integrands import FLOAT_INTEGRANDS
from .polynomials import Polynomial
from .scalars import Scalar, _quad, _quad_round, _rat, as_scalar, sqrt

F = Fraction
_MINUS_ONE, _ZERO, _ONE = Scalar(-1), Scalar(0), Scalar(1)


@dataclass(frozen=True, eq=False)
class QuadRule:
    """Immutable quadrature rule Q(f) = sum A_k f(x_k) + sum B_k f'(y_k) on [-1,1].
    ``params`` is a read-only mapping: ``make_rule`` hands one rule to every
    caller with equal parameters."""

    name: str
    value_nodes: tuple[tuple[Scalar, Scalar], ...]
    deriv_nodes: tuple[tuple[Scalar, Scalar], ...]
    params: Mapping[str, Scalar] = field(default_factory=lambda: MappingProxyType({}))

    def apply(self, f, a=-1, b=1, fprime=None) -> Scalar:
        return apply_rule(self, f, a, b, fprime)


def _node_order(xs, keys=None, order=None) -> tuple[list[Scalar], list[int]]:
    """The distinct values of xs in exact order (the first instance of each
    stays), and the index of each x among them.  Plain exact values are keyed
    by their integer parts over one denominator (``_qpoly.int_parts``), or by
    the ``keys`` and ``order`` of ``_node_keys`` that a caller has read
    already.  Other values merge by Scalar == and sort by Scalar <, so
    values that overlap without being equal raise AmbiguousOrder."""
    if keys is None:
        read = int_parts(xs)
        if read is None:  # the key of x: the index of its first instance
            keys, order = [], xs.__getitem__
            for i, x in enumerate(xs):
                keys.append(next((j for j in range(i) if keys[j] == j and xs[j] == x), i))
        else:
            keys, order = _node_keys(read[0], read[1], read[3])
    first = {}
    for k, x in zip(keys, xs):
        first.setdefault(k, x)
    ranked = sorted(first, key=order)
    rank = {k: j for j, k in enumerate(ranked)}
    return [first[k] for k in ranked], [rank[k] for k in keys]


def _node_keys(G: list[int], H: list[int], m: int):
    """Sort keys (G_i, H_i) of the values (G_i + H_i*sqrt(m))/e, and the key
    function that orders them: pairs in lexicographic order for rationals
    (every H_i is 0), else by the sign of a difference."""
    order = cmp_to_key(lambda u, v: _quad(u[0] - v[0], u[1] - v[1], m).sign()) if m > 1 else None
    return list(zip(G, H)), order


def _merge_nodes(pairs) -> list[tuple[Scalar, Scalar]]:
    """Equal nodes merged (weights summed in input order), in ``_node_order``,
    exact-zero weights dropped."""
    if not pairs:
        return []
    pairs = [(as_scalar(x), as_scalar(w)) for x, w in pairs]
    nodes, at = _node_order([x for x, _ in pairs])
    weights = [None] * len(nodes)
    for (_, w), j in zip(pairs, at):
        weights[j] = w if weights[j] is None else weights[j] + w
    return [(x, w) for x, w in zip(nodes, weights) if not w.is_exact_zero()]


def _assemble(name: str, values, derivs, params: dict) -> QuadRule:
    vnodes = _merge_nodes(values)
    dnodes = _merge_nodes(derivs)
    # each sequence is in exact order: a first node >= -1 and a last node <= 1
    # put all of it inside; otherwise the loop names the first node outside
    ends = [(seq[0][0], seq[-1][0]) for seq in (vnodes, dnodes) if seq]
    if not all(lo.lt_definite(_MINUS_ONE) is False and _ONE.lt_definite(hi) is False
               for lo, hi in ends):
        for x, _ in vnodes + dnodes:
            if x < _MINUS_ONE or x > _ONE:
                raise ParamOutOfDomain(f"{name}: node {x} outside [-1, 1]")
    for seq in (vnodes, dnodes):
        for (x1, _), (x2, _) in zip(seq, seq[1:]):
            if x1.lt_definite(x2) is not True:
                raise ParamOutOfDomain(f"{name}: nodes {x1} and {x2} are not separated")
    return QuadRule(name, tuple(vnodes), tuple(dnodes), MappingProxyType(dict(params)))


# --------------------------------------------------------------------------
# applying rules


def apply_rule(rule: QuadRule, f, a=-1, b=1, fprime=None) -> Scalar:
    """Evaluate the rule for f on [a, b] (affine mapping applied on the fly)."""
    return _sum_panels(rule, f, a, b, 1, fprime)


def _sum_panels(rule: QuadRule, f, a, b, n: int, fprime=None) -> Scalar:
    """The rule applied to f on each of n equal panels of [a, b], summed.

    With h = (b - a)/(2n), the node offsets x*h and the scaled weights w*h
    (w*h^2 at derivative nodes) are formed once.  Panel k's nodes are
    centre + (2k + 1 - n)*h + x*h; the values of f (or fprime) at node j of
    every panel go into one sum S_j, and the result is sum_j W_j*S_j, for
    exact data the panel-by-panel sum:

    * plain exact nodes (all data in Q or one Q(sqrt m)) are stepped in
      integers; interval and ``_Dual`` nodes are formed by the expression;
    * a user's f is called once per node of each panel, panel by panel,
      with Scalars, a distinct plain exact node being one Scalar (equal
      offsets read one :func:`_walk`, -h and +h one of the n + 1 panel ends);
    * a named float integrand (``integrands.FLOAT_INTEGRANDS``) at plain
      exact nodes is evaluated once per distinct node, at the floats of
      :func:`_node_floats`, and its float values summed by :func:`_float_sum`;
    * other float values are summed exactly, in units of 2**-1074, other
      values as Scalars in panel order;
    * a Polynomial with plain exact coefficients in the nodes' field is
      summed in closed form (:func:`_closed_sum`) once n > deg + 1.
    """
    if rule.deriv_nodes and fprime is None:
        if isinstance(f, Polynomial):
            fprime = f.derivative()
        else:
            raise MissingDerivative(
                f"rule {rule.name} has derivative nodes; supply fprime"
            )
    a, b = as_scalar(a), as_scalar(b)
    if not a.lt_definite(b):
        raise BadInterval(f"need a < b, got [{a}, {b}]")
    h = (b - a) / (2 * n)
    nodes = [(f, x * h, w * h) for x, w in rule.value_nodes]
    nodes += [(fprime, y * h, w * h * h) for y, w in rule.deriv_nodes]
    centre = (a + b) / 2
    data = [centre] + [offset for _, offset, _ in nodes] + [-h, h]
    plain, ih = int_parts(data), len(data) - 1
    keys = list(zip(*plain[:2])) if plain else range(len(data))  # equal keys: equal nodes
    lo, hi = keys[ih - 1], keys[ih]

    def steps(read, i, size=n):  # the walk of offset data[i] in read = int_parts(data + ...)
        G, H, e, m = read
        return (G[0] + (1 - n) * G[ih] + G[i], 2 * G[ih], H[0] + (1 - n) * H[ih] + H[i],
                2 * H[ih], e, m, size)

    sums, floats = [Scalar(0)] * len(nodes), [0] * len(nodes)  # floats in units of 2**-1074
    named, looped = {}, []
    for j, (g, offset, _) in enumerate(nodes):
        key = keys[j + 1]
        if read := (plain and isinstance(g, Polynomial) and n > g.degree + 1
                    and int_parts(data + list(g.coeffs))):
            sums[j] = _closed_sum(g, steps(read, j + 1), read[0][ih + 1:], read[1][ih + 1:], n)
        elif plain and any(g is u for u in FLOAT_INTEGRANDS):
            ends = key in (lo, hi) and {lo, hi} <= {keys[i + 1] for i, (u, *_) in enumerate(nodes)
                                                     if u is g}
            if (g, ends or key) not in named:
                walk = steps(plain, ih - 1, n + 1) if ends else steps(plain, j + 1)
                named[g, ends or key] = _float_sum(map(g, _node_floats(*walk)))
            total, first, last = named[g, ends or key]  # panel ends: less end n or end 0
            floats[j] = total - (last if key == lo else first) if ends else total
        else:
            looped.append((j, g, offset, key))
    walks, col = [], {}
    if {lo, hi} <= {key for *_, key in looped}:  # panel k: ends k and k + 1
        walks, col = list(tee(_walk(*steps(plain, ih - 1, n + 1)))), {lo: 0, hi: 1}
        next(walks[1])
    for j, _, offset, key in looped:
        if col.setdefault(key, len(walks)) == len(walks):
            walks.append(_walk(*steps(plain, j + 1)) if plain else
                         map(lambda k, x=offset: centre + (2 * k + 1 - n) * h + x, range(n)))
    looped = [(j, g, col[key]) for j, g, _, key in looped]
    for row in zip(*walks):
        for j, g, c in looped:
            v = g(row[c])
            if isinstance(v, float):
                floats[j] += _units(v)
            else:
                sums[j] = sums[j] + as_scalar(v)
    sums = [s + Scalar(Fraction(e, 1 << 1074)) if e else s for s, e in zip(sums, floats)]
    return sum((w * s for (_, _, w), s in zip(nodes, sums)), Scalar(0))


def _walk(a0: int, a1: int, b0: int, b1: int, e: int, m: int, size: int):
    """The Scalars of the nodes (a0 + k*a1 + (b0 + k*b1)*sqrt(m))/e, k < size."""
    for _ in range(size):
        x = Fraction(a0, e)
        yield _quad(x, Fraction(b0, e), m) if b0 else _rat(x)
        a0 += a1
        b0 += b1


def _node_floats(a0: int, a1: int, b0: int, b1: int, e: int, m: int, size: int):
    """float() of each node of :func:`_walk` from its integers, as
    ``Scalar.__float__`` rounds it: by int/int division if rational; for a
    constant sqrt(m) part, from one isqrt bracket per walk (node*e*2**64 in
    (lo, lo + 1)) where both its ends round alike; else by ``_quad_round``."""
    def exact(k):
        a, b = a0 + k * a1, b0 + k * b1
        return _quad_round(Fraction(a, e), Fraction(b, e), m) if b else a / e

    if not (b0 or b1):
        return map(truediv, range(a0, a0 + size * a1, a1), repeat(e))
    if b1:
        return map(exact, range(size))
    t = isqrt(b0 * b0 * m << 128)
    lo0, step, den = (a0 << 64) + (t if b0 > 0 else -t - 1), a1 << 64, e << 64
    los = range(lo0, lo0 + size * step, step)
    return (x if x == (lo + 1) / den else exact(k)
            for k, lo, x in zip(count(), los, map(truediv, los, repeat(den))))


def _units(v: float) -> int:
    """The float v in units of 2**-1074; inf and nan raise as Scalar(v) does."""
    try:
        p, q = v.as_integer_ratio()
    except (OverflowError, ValueError):
        raise ValueError(f"not a finite number: {v}") from None
    return p << (1075 - q.bit_length())


def _float_sum(values) -> tuple[int, int, int]:
    """The sum of the floats in units of 2**-1074, then its first and last terms.
    A chunk's sum is exact: fsums (correctly rounded from exact partials) of its
    terms less the fsums so far, to 0; or term by term past the float range."""
    values, total, first = iter(values), 0, []
    while chunk := list(islice(values, 4096)):
        first, last, sums, part = first or chunk, chunk[-1], [], 0
        try:
            while s := fsum(chain(chunk, sums)):
                part += _units(s)
                sums.append(-s)
        except (OverflowError, ValueError):
            part = sum(map(_units, chunk))
        total += part
    return total, _units(first[0]), _units(last)


def _closed_sum(g: Polynomial, walk, C: list[int], D: list[int], n: int) -> Scalar:
    """sum of g over the n nodes of a walk (:func:`_walk`'s integers),
    exactly, from its first d + 1 values, d = deg g (:func:`_newton`):
    e**(d+1)*g(node) = X + Y*sqrt(m) by one Horner pass over Z[sqrt m] for
    g = (C + D*sqrt(m))/e, or Scalars from a subclass that evaluates itself."""
    a0, a1, b0, b1, e, m, _ = walk
    d = g.degree
    if type(g).__call__ is not Polynomial.__call__:
        return as_scalar(_newton([g(x) for x in islice(_walk(*walk), d + 1)], n))
    X, Y = zip(*[zm_horner(C, D, a0 + k * a1, b0 + k * b1, e, m) for k in range(d + 1)] or [(0, 0)])
    return _quad(Fraction(_newton(X, n), e ** (d + 1)), Fraction(_newton(Y, n), e ** (d + 1)), m)


def _newton(values, n: int):
    """sum_{k<n} p(k) = sum_i C(n, i+1)*Delta^i p(0) for p(0), p(1), ... = values."""
    total = 0
    for i in range(len(values)):
        total += comb(n, i + 1) * values[0]
        values = [y - x for x, y in zip(values, values[1:])]
    return total


# --------------------------------------------------------------------------
# serialization


def _to_json(v: Scalar):
    """An exact value as its string, an interval as its exact ["lo", "hi"] ends."""
    return v.to_json_str() if v.is_exact else [str(e) for e in v.bounds()]


def _from_json(v) -> Scalar:
    return Scalar.parse(v) if isinstance(v, str) else Scalar.from_interval(F(v[0]), F(v[1]))


def rule_to_json_dict(rule: QuadRule) -> dict:
    return {
        "name": rule.name,
        "value_nodes": [[_to_json(x), _to_json(w)] for x, w in rule.value_nodes],
        "deriv_nodes": [[_to_json(y), _to_json(w)] for y, w in rule.deriv_nodes],
        "params": {k: _to_json(v) for k, v in rule.params.items()},
    }


def rule_from_json_dict(data: dict) -> QuadRule:
    """The rule a dict of rule_to_json_dict describes, normalized and checked
    as custom_rule does."""
    return _assemble(
        data["name"],
        [(_from_json(x), _from_json(w)) for x, w in data["value_nodes"]],
        [(_from_json(y), _from_json(w)) for y, w in data["deriv_nodes"]],
        {k: _from_json(v) for k, v in data.get("params", {}).items()},
    )


def rule_to_json(rule: QuadRule) -> str:
    return json.dumps(rule_to_json_dict(rule), indent=2)


def rule_from_json(text: str) -> QuadRule:
    return rule_from_json_dict(json.loads(text))


# --------------------------------------------------------------------------
# catalog


def _require(cond: bool, msg: str) -> None:
    if not cond:
        raise ParamOutOfDomain(msg)


def _build_ostrowski(x: Scalar):
    _require(_MINUS_ONE <= x <= _ONE, "ostrowski: need -1 <= x <= 1")
    return [(x, 2)], []


def _build_mp3(x: Scalar):
    _require(_MINUS_ONE < x < _ONE, "mp3: need -1 < x < 1")
    return [(-1, (_ONE + x) / 2), (x, 1), (1, (_ONE - x) / 2)], []


def _build_mod3(x: Scalar, lam: Scalar):
    _require(_MINUS_ONE < x < _ONE, "mod3: need -1 < x < 1")
    _require(lam >= _ZERO, "mod3: need lambda >= 0")
    return [(-1, _ONE - lam * (_ONE - x)), (x, 2 * lam), (1, _ONE - lam * (_ONE + x))], []


def _lam_opt(x: Scalar) -> Scalar:
    return Scalar(F(2, 3)) / (_ONE - x * x)


def _build_mod3_opt(x: Scalar):
    _require(_MINUS_ONE < x < _ONE, "mod3_opt: need -1 < x < 1")
    return _build_mod3(x, _lam_opt(x))


def _build_simpson():
    return [(-1, F(1, 3)), (0, F(4, 3)), (1, F(1, 3))], []


def _build_dcr(lam: Scalar, x: Scalar):
    _require(_ZERO <= lam <= _ONE, "dcr: need 0 <= lambda <= 1")
    lo = _MINUS_ONE + 3 * lam / 2
    hi = _ONE - 3 * lam / 2
    _require(lo <= x <= hi, "dcr: need -1 + 3*lambda/2 <= x <= 1 - 3*lambda/2")
    return [(-1, lam), (x, 2 * (_ONE - lam)), (1, lam)], []


def _build_gs2(x: Scalar):
    _require(_ZERO < x <= _ONE, "gs2: need 0 < x <= 1")
    return [(-x, 1), (x, 1)], []


def _build_gauss_legendre2():
    return _build_gs2(sqrt(Scalar(F(1, 3))))


def _build_franjic(x: Scalar):
    _require(_MINUS_ONE < x <= _ONE, "franjic: need -1 < x <= 1")
    return [(-1, 2 * x / (_ONE + x)), (x, 2 / (_ONE + x))], []


def _build_radau2():
    return _build_franjic(Scalar(F(1, 3)))


def _build_alomari2(lam: Scalar, x: Scalar, y: Scalar):
    _require(_MINUS_ONE <= x <= lam <= y <= _ONE, "alomari2: need -1 <= x <= lambda <= y <= 1")
    return [(x, _ONE + lam), (y, _ONE - lam)], []


def _build_alomari4(lam: Scalar, x: Scalar):
    _require(_ZERO < lam < _ONE, "alomari4: need 0 < lambda < 1")
    _require(_ZERO <= x <= _ONE, "alomari4: need 0 <= x <= 1")
    return [(-1, lam), (-x, _ONE - lam), (x, _ONE - lam), (1, lam)], []


def _build_lobatto4():
    return _build_alomari4(Scalar(F(1, 6)), sqrt(Scalar(F(1, 5))))


def _build_liu_park(x: Scalar):
    _require(_ZERO <= x <= _ONE, "liu_park: need 0 <= x <= 1")
    half = Scalar(F(1, 2))
    return (
        [(-1, half), (-x, half), (x, half), (1, half)],
        [(-x, x / 2), (x, -x / 2)],
    )


def _build_liu_park_gauss():
    return _build_liu_park(sqrt(Scalar(F(1, 3))))


def _build_dragomir_sofo(x: Scalar):
    _require(_MINUS_ONE <= x <= _ONE, "dragomir_sofo: need -1 <= x <= 1")
    half = Scalar(F(1, 2))
    return [(-1, half), (x, 1), (1, half)], [(x, -x)]


def _build_q44(lam: Scalar, gamma: Scalar, delta: Scalar, x: Scalar):
    _require(_ZERO < lam < _ONE, "q44: need 0 < lambda < 1")
    _require(_ZERO < x < _ONE, "q44: need 0 < x < 1")
    return (
        [(-1, lam), (-x, _ONE - lam), (x, _ONE - lam), (1, lam)],
        [(-1, -gamma), (-x, -delta), (x, delta), (1, gamma)],
    )


@dataclass(frozen=True)
class CatalogEntry:
    name: str
    param_names: tuple[str, ...]
    builder: Callable
    description: str
    family_domain: tuple[Fraction, Fraction, bool, bool] | None  # lo, hi, lo_open, hi_open
    generic_degree: int


CATALOG: dict[str, CatalogEntry] = {}


def _register(name, param_names, builder, description, family_domain, generic_degree):
    CATALOG[name] = CatalogEntry(
        name, tuple(param_names), builder, description, family_domain, generic_degree
    )


_register(
    "ostrowski", ("x",), _build_ostrowski,
    "one-point rule 2 f(x); free node x in [-1, 1]",
    (F(-1), F(1), False, False), 0,
)
_register(
    "mp3", ("x",), _build_mp3,
    "three-point rule with fixed endpoints: (1+x)/2 f(-1) + f(x) + (1-x)/2 f(1); x in (-1, 1)",
    (F(-1), F(1), True, True), 1,
)
_register(
    "mod3", ("x", "lambda"), _build_mod3,
    "weighted three-point blend [1-lambda(1-x)] f(-1) + 2 lambda f(x) + [1-lambda(1+x)] f(1); "
    "x in (-1, 1), lambda >= 0 (lambda = 0 gives the trapezoid)",
    (F(-1), F(1), True, True), 1,
)
_register(
    "mod3_opt", ("x",), _build_mod3_opt,
    "mod3 with lambda = (2/3)/(1-x^2), the choice that lifts the degree to 2; x in (-1, 1)",
    (F(-1), F(1), True, True), 2,
)
_register(
    "simpson", (), _build_simpson,
    "Simpson rule (1/3)[f(-1) + 4 f(0) + f(1)], degree 3",
    None, 3,
)
_register(
    "dcr", ("lambda", "x"), _build_dcr,
    "endpoint/interior blend lambda [f(-1)+f(1)] + 2(1-lambda) f(x); lambda in [0, 1], "
    "-1+3 lambda/2 <= x <= 1-3 lambda/2",
    None, 0,  # family domain depends on lambda; see family()
)
_register(
    "gs2", ("x",), _build_gs2,
    "symmetric two-point rule f(-x) + f(x); x in (0, 1]",
    (F(0), F(1), True, False), 1,
)
_register(
    "gauss_legendre2", (), _build_gauss_legendre2,
    "two-point Gauss-Legendre rule f(-1/sqrt(3)) + f(1/sqrt(3)), degree 3",
    None, 3,
)
_register(
    "franjic", ("x",), _build_franjic,
    "fixed left endpoint rule 2x/(1+x) f(-1) + 2/(1+x) f(x); x in (-1, 1]",
    (F(-1), F(1), True, False), 1,
)
_register(
    "radau2", (), _build_radau2,
    "two-point Radau rule (1/2) f(-1) + (3/2) f(1/3), degree 2",
    None, 2,
)
_register(
    "alomari2", ("lambda", "x", "y"), _build_alomari2,
    "general two-point rule (1+lambda) f(x) + (1-lambda) f(y); -1 <= x <= lambda <= y <= 1",
    None, 0,
)
_register(
    "alomari4", ("lambda", "x"), _build_alomari4,
    "symmetric four-point rule lambda [f(-1)+f(1)] + (1-lambda)[f(-x)+f(x)]; "
    "lambda in (0, 1), x in [0, 1]",
    (F(0), F(1), False, False), 1,
)
_register(
    "lobatto4", (), _build_lobatto4,
    "four-point Lobatto rule (1/6)[f(-1)+f(1)] + (5/6)[f(-1/sqrt(5)) + f(1/sqrt(5))], degree 5",
    None, 5,
)
_register(
    "liu_park", ("x",), _build_liu_park,
    "symmetric four-point rule with double internal nodes: value weights 1/2 at -1, -x, x, 1 "
    "and derivative weights +x/2 at -x, -x/2 at x; x in [0, 1]",
    (F(0), F(1), False, False), 1,
)
_register(
    "liu_park_gauss", (), _build_liu_park_gauss,
    "liu_park at x = 1/sqrt(3), degree 3",
    None, 3,
)
_register(
    "dragomir_sofo", ("x",), _build_dragomir_sofo,
    "three-point rule with a double inner node: (1/2)[f(-1) + 2 f(x) + f(1)] - x f'(x); "
    "x in [-1, 1]",
    (F(-1), F(1), False, False), 1,
)
_register(
    "q44", ("lambda", "gamma", "delta", "x"), _build_q44,
    "general four-point double-node family lambda[f(1)+f(-1)] + (1-lambda)[f(x)+f(-x)] "
    "+ gamma[f'(1)-f'(-1)] + delta[f'(x)-f'(-x)]; lambda in (0, 1), x in (0, 1), "
    "gamma and delta unrestricted",
    (F(0), F(1), True, True), 1,
)

#: catalog parameter names that are Python keywords, and the keyword-argument
#: names that make_rule, family and the CLI's -p flag take for them
_PY_NAMES = {"lambda": "lam"}


def catalog_names() -> tuple[str, ...]:
    return tuple(CATALOG)


def custom_rule(name: str, value_nodes, deriv_nodes=(), params=None) -> QuadRule:
    """Assemble a rule from raw (node, weight) pairs on [-1, 1].

    Applies the same normalization as the catalog: coincident nodes merge,
    exact-zero weights drop, nodes must end up strictly increasing.
    """
    return _assemble(name, list(value_nodes), list(deriv_nodes), dict(params or {}))


#: make_rule's shared rules by (name, the ``int_parts`` of their parameters),
#: least recently used first; at most _SHARED_SIZE
_SHARED: dict[tuple, QuadRule] = {}
_SHARED_SIZE = 64


def make_rule(name: str, **params) -> QuadRule:
    """Build a catalog rule; parameters may be Scalars, numbers, or strings.

    Plain exact parameters in Q or one Q(sqrt m) (``_qpoly.int_parts``) give
    one shared rule per name and values, whatever form they arrive in, so the
    kernels and reports it keeps serve every caller; the 64 most recently
    used are kept, and only rules whose own nodes and weights are plain
    exact (``_qpoly._rule_ints``).  Interval, ``_Dual`` and mixed-radicand
    parameters give a new rule on every call."""
    entry = CATALOG.get(name)
    if entry is None:
        raise UnknownRule(f"unknown rule {name!r}; see catalog_names()")
    given = set(params)
    expected = {_PY_NAMES.get(p, p) for p in entry.param_names}
    unknown = given - expected
    if unknown:
        raise UnknownRule(f"{name} does not take parameter(s) {sorted(unknown)}")
    missing = expected - given
    if missing:
        raise UnknownRule(f"{name} requires parameter(s) {sorted(missing)}")
    recorded = {p: as_scalar(params[_PY_NAMES.get(p, p)]) for p in entry.param_names}
    read = int_parts(list(recorded.values()))
    key = read and (name, tuple(read[0]), tuple(read[1]), read[2], read[3])
    rule = _SHARED.pop(key, None) if key else None
    if rule is None:
        values, derivs = entry.builder(*recorded.values())
        rule = _assemble(name, values, derivs, recorded)
        if not key or _rule_ints(rule) is None:
            return rule
        if len(_SHARED) >= _SHARED_SIZE:
            del _SHARED[next(iter(_SHARED))]
    _SHARED[key] = rule
    return rule


# --------------------------------------------------------------------------
# one-parameter families (free parameter: the node x)


@dataclass(frozen=True)
class Domain:
    lo: Fraction
    hi: Fraction
    lo_open: bool
    hi_open: bool

    def contains(self, x: Fraction) -> bool:
        if x < self.lo or x > self.hi:
            return False
        if self.lo_open and x == self.lo:
            return False
        if self.hi_open and x == self.hi:
            return False
        return True

    def grid(self, n: int) -> list[Fraction]:
        """n points spanning the domain, nudged inside open endpoints."""
        if n < 2:
            raise ValueError("need at least two grid points")
        lo, hi = self.lo, self.hi
        step = F(hi - lo, n - 1)
        pts = [lo + k * step for k in range(n)]
        if self.lo_open:
            pts[0] = lo + step / 2
        if self.hi_open:
            pts[-1] = hi - step / 2
        return pts

    def __str__(self):
        return f"{'(' if self.lo_open else '['}{self.lo}, {self.hi}{')' if self.hi_open else ']'}"


@dataclass(frozen=True, eq=False)
class RuleFamily:
    """A one-parameter slice of the catalog: x -> QuadRule."""

    name: str
    fixed_params: dict
    domain: Domain
    generic_degree: int

    def build(self, x) -> QuadRule:
        """The rule at node x; the same rule make_rule gives for these parameters.
        The catalog builder raises its own ``ParamOutOfDomain`` outside the domain."""
        x = as_scalar(x)
        entry = CATALOG[self.name]
        params = {p: x if p == "x" else self.fixed_params[p] for p in entry.param_names}
        values, derivs = entry.builder(*params.values())
        return _assemble(self.name, values, derivs, params)

    def label(self) -> str:
        if not self.fixed_params:
            return self.name
        inner = ", ".join(f"{k}={v}" for k, v in self.fixed_params.items())
        return f"{self.name}({inner})"


def family(name: str, **fixed) -> RuleFamily:
    """One-parameter family for bound scans; `fixed` pins every non-x parameter."""
    entry = CATALOG.get(name)
    if entry is None:
        raise UnknownRule(f"unknown rule {name!r}")
    if "x" not in entry.param_names:
        raise UnknownRule(f"{name} has no free node parameter to scan")
    fixed_scalars = {k: as_scalar(v) for k, v in fixed.items()}
    needed = {_PY_NAMES.get(p, p) for p in entry.param_names if p != "x"}
    given = set(fixed_scalars)
    if given != needed:
        raise UnknownRule(
            f"{name} family needs fixed parameter(s) {sorted(needed)}, got {sorted(given)}"
        )
    if entry.name == "dcr":
        if not fixed_scalars["lam"].is_rational:  # the node domain's ends are rational
            raise ParamOutOfDomain(f"dcr: lambda must be rational, got {fixed_scalars['lam']}")
        lam = fixed_scalars["lam"].as_fraction()
        if not 0 <= lam <= 1:
            raise ParamOutOfDomain("dcr: need 0 <= lambda <= 1")
        lo = F(-1) + F(3, 2) * lam
        hi = F(1) - F(3, 2) * lam
        if not lo < hi:
            raise ParamOutOfDomain("dcr: empty node domain for this lambda")
        domain = Domain(lo, hi, False, False)
        generic_degree = 0
    else:
        if entry.family_domain is None:
            raise UnknownRule(f"{name} is a fixed rule, not a family")
        lo, hi, lo_open, hi_open = entry.family_domain
        domain = Domain(lo, hi, lo_open, hi_open)
        generic_degree = entry.generic_degree
    catalog_names = {py: p for p, py in _PY_NAMES.items()}
    display = {catalog_names.get(k, k): v for k, v in fixed_scalars.items()}
    return RuleFamily(name, display, domain, generic_degree)
