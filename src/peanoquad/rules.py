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
from itertools import islice
from math import comb, lcm
from typing import Callable

from .errors import BadInterval, MissingDerivative, ParamOutOfDomain, UnknownRule
from .polynomials import Polynomial
from .scalars import Scalar, _quad, as_scalar, field_parts, sqrt

F = Fraction


@dataclass(frozen=True, eq=False)
class QuadRule:
    """Immutable quadrature rule Q(f) = sum A_k f(x_k) + sum B_k f'(y_k) on [-1,1]."""

    name: str
    value_nodes: tuple[tuple[Scalar, Scalar], ...]
    deriv_nodes: tuple[tuple[Scalar, Scalar], ...]
    params: dict = field(default_factory=dict)

    def weight_sum(self) -> Scalar:
        return sum((a for _, a in self.value_nodes), Scalar(0))

    def apply(self, f, a=-1, b=1, fprime=None) -> Scalar:
        return apply_rule(self, f, a, b, fprime)


def _merge_nodes(pairs) -> list[tuple[Scalar, Scalar]]:
    """Merge equal nodes, drop exact-zero weights, sort by the exact order
    (nodes that overlap without being equal raise AmbiguousOrder)."""
    merged: list[list[Scalar]] = []
    for x, w in pairs:
        x, w = as_scalar(x), as_scalar(w)
        same = next((p for p in merged if p[0] == x), None)
        if same is None:
            merged.append([x, w])
        else:
            same[1] = same[1] + w
    return sorted(((x, w) for x, w in merged if not w.is_exact_zero()), key=lambda p: p[0])


def _assemble(name: str, values, derivs, params: dict) -> QuadRule:
    vnodes = _merge_nodes(values)
    dnodes = _merge_nodes(derivs)
    for x, _ in vnodes + dnodes:
        if x < Scalar(-1) or x > Scalar(1):
            raise ParamOutOfDomain(f"{name}: node {x} outside [-1, 1]")
    for seq in (vnodes, dnodes):
        for (x1, _), (x2, _) in zip(seq, seq[1:]):
            if x1.lt_definite(x2) is not True:
                raise ParamOutOfDomain(f"{name}: nodes {x1} and {x2} are not separated")
    return QuadRule(name, tuple(vnodes), tuple(dnodes), dict(params))


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
    every panel go into one sum S_j, and the result is sum_j W_j*S_j.  f is
    called panel by panel with the same node Scalars as a panel-by-panel
    sum, and for exact data the result equals that sum exactly:

    * exact nodes are stepped in integers (:func:`_walk`), interval nodes
      are formed by the expression above, so their enclosures stay the same;
    * float values of f are summed exactly, as integer multiples of
      2**-1074 (every finite float is one), other values as Scalars in
      panel order;
    * a Polynomial with exact coefficients at exact nodes is summed in
      closed form from its first deg + 1 values (:func:`_closed_sum`) once
      n > deg + 1.
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
    m = _radicand([centre, h] + [offset for _, offset, _ in nodes])
    sums = [Scalar(0)] * len(nodes)
    looped = []
    for j, (g, offset, _) in enumerate(nodes):
        walk = _walk(centre, h, offset, n, m)
        if (m is not None and isinstance(g, Polynomial) and n > g.degree + 1
                and _radicand(g.coeffs, m) is not None):
            sums[j] = _closed_sum(g, walk, n)
        else:
            looped.append((j, g, walk))
    floats = [0] * len(nodes)  # in units of 2**-1074
    for row in zip(*(walk for _, _, walk in looped)):
        for (j, g, _), x in zip(looped, row):
            v = g(x)
            if isinstance(v, float):  # inf and nan raise here, as Fraction(v) does
                p, q = v.as_integer_ratio()
                floats[j] += p << (1075 - q.bit_length())
            else:
                sums[j] = sums[j] + as_scalar(v)
    sums = [s + Scalar(Fraction(e, 1 << 1074)) if e else s for s, e in zip(sums, floats)]
    return sum((w * s for (_, _, w), s in zip(nodes, sums)), Scalar(0))


def _radicand(values, m: int = 1) -> int | None:
    """The radicand shared by values that are all rational or exact
    a + b*sqrt(m) over one m (the given m, or 1 when every value is
    rational), or None for an interval, a dual number or a second radicand."""
    for v in values:
        if type(v) is not Scalar or v._ival is not None:
            return None
        if v._sqrt is not None:
            if m != 1 and v._sqrt[2] != m:
                return None
            m = v._sqrt[2]
    return m


def _walk(centre: Scalar, h: Scalar, offset: Scalar, n: int, m: int | None):
    """Panel k's node centre + (2k + 1 - n)*h + offset for k = 0, ..., n - 1.

    Over one radicand m the node is (a0 + k*a1)/da + ((b0 + k*b1)/db)*sqrt(m)
    with integers formed once, and each node is one Fraction or one _quad:
    the Scalar that the Scalar expression gives.  Interval data (m None)
    take the expression itself, from the centre, so no drift builds up.
    """
    if m is None:
        for k in range(n):
            yield centre + (2 * k + 1 - n) * h + offset
        return
    _, [(a0, b0), (a1, b1)] = field_parts([centre + (1 - n) * h + offset, 2 * h])
    da, db = lcm(a0.denominator, a1.denominator), lcm(b0.denominator, b1.denominator)
    a0, a1 = (q.numerator * (da // q.denominator) for q in (a0, a1))
    b0, b1 = (q.numerator * (db // q.denominator) for q in (b0, b1))
    for _ in range(n):
        x = Fraction(a0, da)
        yield _quad(x, Fraction(b0, db), m) if b0 else Scalar(x)
        a0 += a1
        b0 += b1


def _closed_sum(g: Polynomial, walk, n: int) -> Scalar:
    """sum of g over the n nodes of walk, exactly.  g(node_k) is a
    polynomial of degree d = deg g in k, so by Newton's forward-difference
    formula the sum is sum_i C(n, i + 1) * Delta^i g(node_0) for i <= d,
    from the first d + 1 values."""
    diffs = [g(x) for x in islice(walk, g.degree + 1)]
    total = Scalar(0)
    for i in range(len(diffs)):
        total = total + comb(n, i + 1) * diffs[0]
        diffs = [y - x for x, y in zip(diffs, diffs[1:])]
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
    _require(Scalar(-1) <= x <= Scalar(1), "ostrowski: need -1 <= x <= 1")
    return [(x, 2)], []


def _build_mp3(x: Scalar):
    _require(Scalar(-1) < x < Scalar(1), "mp3: need -1 < x < 1")
    return [(-1, (Scalar(1) + x) / 2), (x, 1), (1, (Scalar(1) - x) / 2)], []


def _build_mod3(x: Scalar, lam: Scalar):
    _require(Scalar(-1) < x < Scalar(1), "mod3: need -1 < x < 1")
    _require(lam >= Scalar(0), "mod3: need lambda >= 0")
    one = Scalar(1)
    return [(-1, one - lam * (one - x)), (x, 2 * lam), (1, one - lam * (one + x))], []


def _lam_opt(x: Scalar) -> Scalar:
    return Scalar(F(2, 3)) / (Scalar(1) - x * x)


def _build_mod3_opt(x: Scalar):
    _require(Scalar(-1) < x < Scalar(1), "mod3_opt: need -1 < x < 1")
    return _build_mod3(x, _lam_opt(x))


def _build_simpson():
    return [(-1, F(1, 3)), (0, F(4, 3)), (1, F(1, 3))], []


def _build_dcr(lam: Scalar, x: Scalar):
    _require(Scalar(0) <= lam <= Scalar(1), "dcr: need 0 <= lambda <= 1")
    lo = Scalar(-1) + 3 * lam / 2
    hi = Scalar(1) - 3 * lam / 2
    _require(lo <= x <= hi, "dcr: need -1 + 3*lambda/2 <= x <= 1 - 3*lambda/2")
    return [(-1, lam), (x, 2 * (Scalar(1) - lam)), (1, lam)], []


def _build_gs2(x: Scalar):
    _require(Scalar(0) < x <= Scalar(1), "gs2: need 0 < x <= 1")
    return [(-x, 1), (x, 1)], []


def _build_gauss_legendre2():
    return _build_gs2(sqrt(Scalar(F(1, 3))))


def _build_franjic(x: Scalar):
    _require(Scalar(-1) < x <= Scalar(1), "franjic: need -1 < x <= 1")
    one = Scalar(1)
    return [(-1, 2 * x / (one + x)), (x, 2 / (one + x))], []


def _build_radau2():
    return _build_franjic(Scalar(F(1, 3)))


def _build_alomari2(lam: Scalar, x: Scalar, y: Scalar):
    _require(Scalar(-1) <= x <= lam <= y <= Scalar(1), "alomari2: need -1 <= x <= lambda <= y <= 1")
    return [(x, Scalar(1) + lam), (y, Scalar(1) - lam)], []


def _build_alomari4(lam: Scalar, x: Scalar):
    _require(Scalar(0) < lam < Scalar(1), "alomari4: need 0 < lambda < 1")
    _require(Scalar(0) <= x <= Scalar(1), "alomari4: need 0 <= x <= 1")
    one = Scalar(1)
    return [(-1, lam), (-x, one - lam), (x, one - lam), (1, lam)], []


def _build_lobatto4():
    return _build_alomari4(Scalar(F(1, 6)), sqrt(Scalar(F(1, 5))))


def _build_liu_park(x: Scalar):
    _require(Scalar(0) <= x <= Scalar(1), "liu_park: need 0 <= x <= 1")
    half = Scalar(F(1, 2))
    return (
        [(-1, half), (-x, half), (x, half), (1, half)],
        [(-x, x / 2), (x, -x / 2)],
    )


def _build_liu_park_gauss():
    return _build_liu_park(sqrt(Scalar(F(1, 3))))


def _build_dragomir_sofo(x: Scalar):
    _require(Scalar(-1) <= x <= Scalar(1), "dragomir_sofo: need -1 <= x <= 1")
    half = Scalar(F(1, 2))
    return [(-1, half), (x, 1), (1, half)], [(x, -x)]


def _build_q44(lam: Scalar, gamma: Scalar, delta: Scalar, x: Scalar):
    _require(Scalar(0) < lam < Scalar(1), "q44: need 0 < lambda < 1")
    _require(Scalar(0) < x < Scalar(1), "q44: need 0 < x < 1")
    one = Scalar(1)
    return (
        [(-1, lam), (-x, one - lam), (x, one - lam), (1, lam)],
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


def make_rule(name: str, **params) -> QuadRule:
    """Build a catalog rule; parameters may be Scalars, numbers, or strings."""
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
    values, derivs = entry.builder(*recorded.values())
    return _assemble(name, values, derivs, recorded)


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
        """The rule at node x; the same rule make_rule gives for these parameters."""
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
