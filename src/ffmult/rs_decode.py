"""Multiplicity-based Reed-Solomon list decoding in the Johnson regime.

Pipeline: pick (m, d, theta) so a nonzero bivariate polynomial of bounded
(1,k)-weighted degree can vanish with multiplicity m at every received
point while keeping the agreement target above d/m; interpolate it by exact
linear algebra; read off candidate messages as Y-roots via shift-and-divide
recursion; keep exactly those with true agreement >= t.  A brute-force
decoder over all q^(k+1) candidate polynomials serves as the oracle, and
the list-size bound 2*gamma/(gamma^2 - R) is exposed as an exact rational.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from math import comb, isqrt

import numpy as np

from .errors import (
    BelowJohnsonRadius,
    InternalDefect,
    InvalidParameters,
    NoFeasibleM,
    SearchSpaceTooLarge,
    ZeroPolynomial,
)
from .ff import FieldSpec, poly_eval_univariate, uni_add, uni_mul, uni_trim
from .interpolate import (
    InterpolationProblem,
    WeightedDegreeBasis,
    count_weighted_monomials,
    vanishing_interpolation,
)
from .mvpoly import MultiPoly

M_SEARCH_CAP = 10 ** 4
CROSS_VALIDATE_CAP = 10 ** 4
BRUTE_FORCE_CAP = 10 ** 6
ROOT_SCAN_BLOCK = 2 ** 12  # field elements per pass of the Y-root scan

# Auto cross-validation: on desk-scale fields the recursive root finder is
# checked against exhaustive enumeration on every call.
AUTO_CROSS_VALIDATE = True


@dataclass(frozen=True)
class RSInstance:
    """Received word (alpha_i, beta_i), degree bound k, agreement target t."""

    spec: FieldSpec
    alphas: tuple[int, ...]
    betas: tuple[int, ...]
    k: int
    t: int

    def __post_init__(self):
        alphas = tuple(self.spec.coerce(a) for a in self.alphas)
        betas = tuple(self.spec.coerce(b) for b in self.betas)
        object.__setattr__(self, "alphas", alphas)
        object.__setattr__(self, "betas", betas)
        if len(set(alphas)) != len(alphas):
            raise InvalidParameters("evaluation points must be distinct")
        if len(alphas) != len(betas):
            raise InvalidParameters("alphas and betas must align")
        if not 1 <= self.k < len(alphas):
            raise InvalidParameters(f"need 1 <= k < n, got k={self.k}, n={len(alphas)}")
        if not 1 <= self.t <= len(alphas):
            raise InvalidParameters(f"need 1 <= t <= n, got t={self.t}")

    @property
    def n(self) -> int:
        return len(self.alphas)

    @property
    def rate(self) -> Fraction:
        return Fraction(self.k, self.n)

    @property
    def gamma(self) -> Fraction:
        return Fraction(self.t, self.n)


@dataclass(frozen=True)
class GSParams:
    """Interpolation multiplicity m, (1,k)-degree bound d, Y-degree fraction
    theta with cap floor(theta*d/k), and the slack parameter used for d."""

    m: int
    d: int
    theta: Fraction
    ydeg_cap: int
    eps: Fraction


def list_size_bound(gamma, rate) -> Fraction:
    """2*gamma/(gamma^2 - R), exact."""
    gamma, rate = Fraction(gamma), Fraction(rate)
    if not 0 < gamma <= 1 or not 0 < rate < 1:
        raise InvalidParameters(f"need gamma in (0,1] and R in (0,1), got {gamma}, {rate}")
    if gamma * gamma <= rate:
        raise InvalidParameters(f"need gamma^2 > R, got {gamma}^2 <= {rate}")
    return 2 * gamma / (gamma * gamma - rate)


def _ceil_sqrt(x: Fraction) -> int:
    """Smallest integer c with c^2 >= x."""
    num, den = x.numerator, x.denominator
    c = isqrt(num // den)
    while c * c * den < num:
        c += 1
    return c


def choose_params(inst: RSInstance, eps=Fraction(1, 4)) -> GSParams:
    """Smallest multiplicity m whose degree bound d = ceil((1+eps)*m*
    sqrt(nk/(theta(2-theta)))) satisfies both the interpolation count
    m(m+1)/2 * n < N(k, d, theta) and the decoding condition t*m > d."""
    eps = Fraction(eps)
    if eps <= 0:
        raise InvalidParameters(f"slack must be positive, got {eps}")
    gamma, rate = inst.gamma, inst.rate
    if gamma * gamma <= rate:
        raise BelowJohnsonRadius(
            f"gamma^2 = {gamma * gamma} <= R = {rate}: agreement below Johnson radius"
        )
    theta = 2 / (1 + gamma * gamma / rate)
    base = Fraction(inst.n * inst.k) / (theta * (2 - theta))
    for m in range(1, M_SEARCH_CAP + 1):
        target = ((1 + eps) * m) ** 2 * base
        d = _ceil_sqrt(target)
        if d <= inst.k:
            continue
        if inst.t * m <= d:
            continue
        if comb(m + 1, 2) * inst.n >= count_weighted_monomials(inst.k, d, theta):
            continue
        ydeg_cap = int((theta * d) // inst.k)
        # re-check the rounding directions exactly
        assert d * d >= target and (d - 1) * (d - 1) < target
        assert ydeg_cap <= theta * d / inst.k < ydeg_cap + 1
        return GSParams(m=m, d=d, theta=theta, ydeg_cap=ydeg_cap, eps=eps)
    raise NoFeasibleM(f"no feasible multiplicity up to {M_SEARCH_CAP}")


def gs_interpolate(inst: RSInstance, params: GSParams, verify: bool = False) -> MultiPoly:
    """Nonzero Q(X, Y) of (1,k)-degree <= d and Y-degree <= ydeg_cap that
    vanishes with multiplicity >= m at every received point."""
    problem = InterpolationProblem(
        spec=inst.spec,
        n=2,
        points=tuple(zip(inst.alphas, inst.betas)),
        m=params.m,
        basis=WeightedDegreeBasis(d=params.d, k=inst.k, ydeg_cap=params.ydeg_cap),
    )
    return vanishing_interpolation(problem, verify=verify)


def compose_bivariate(Q: MultiPoly, fcoeffs, spec: FieldSpec) -> list[int]:
    """Q(X, f(X)) as a univariate coefficient list, by Horner in Y."""
    by_j: dict[int, list[int]] = {}
    for (i, j), c in Q.terms.items():
        by_j.setdefault(j, []).append((i, c))
    levels = {}
    for j, pairs in by_j.items():
        row = [0] * (max(i for i, _ in pairs) + 1)
        for i, c in pairs:
            row[i] = c
        levels[j] = uni_trim(row)
    if not levels:
        return []
    f = uni_trim(list(fcoeffs))
    acc: list[int] = []
    for j in range(max(levels), -1, -1):
        acc = uni_mul(acc, f, spec)
        if j in levels:
            acc = uni_add(acc, levels[j], spec)
    return acc


# -- Y-root extraction --------------------------------------------------------------


def y_roots(Q: MultiPoly, k: int, cross_validate: bool | None = None) -> list[tuple[int, ...]]:
    """All f with deg f <= k and Q(X, f(X)) identically zero.

    Returned as coefficient tuples of length k+1 (low-to-high), canonically
    ordered with the top coefficient most significant.  The recursive finder
    strips X-power factors at each level and branches on the roots of
    Q(0, Y); on small instances it is cross-validated against exhaustive
    enumeration of all q^(k+1) candidates.
    """
    if Q.is_zero:
        raise ZeroPolynomial("Y-roots of the zero polynomial are undefined")
    spec = Q.spec
    if cross_validate is None:
        cross_validate = AUTO_CROSS_VALIDATE and spec.q ** (k + 1) <= CROSS_VALIDATE_CAP
    found: list[tuple[int, ...]] = []
    _rr_search(dict(Q.terms), 0, k, (), found, spec)
    result = sorted(set(found), key=lambda f: tuple(reversed(f)))
    if cross_validate:
        brute = y_roots_bruteforce(Q, k)
        if result != brute:
            raise InternalDefect(
                f"root finder disagrees with enumeration: {result} vs {brute}"
            )
    return result


def y_roots_bruteforce(Q: MultiPoly, k: int) -> list[tuple[int, ...]]:
    """Exhaustive reference enumeration over all degree-<=k polynomials."""
    if Q.is_zero:
        raise ZeroPolynomial("Y-roots of the zero polynomial are undefined")
    spec = Q.spec
    out = [
        f
        for f in itertools.product(range(spec.q), repeat=k + 1)
        if not compose_bivariate(Q, list(f), spec)
    ]
    return sorted(out, key=lambda f: tuple(reversed(f)))


def _rr_search(terms, depth, k, prefix, out, spec: FieldSpec):
    # strip the largest X power dividing the polynomial
    shift = min(i for (i, _) in terms)
    if shift:
        terms = {(i - shift, j): c for (i, j), c in terms.items()}
    # roots of Q(0, Y): the zero-X layer is nonzero after stripping
    layer: dict[int, int] = {}
    for (i, j), c in terms.items():
        if i == 0:
            layer[j] = c
    coeffs = [0] * (max(layer) + 1)
    for j, c in layer.items():
        coeffs[j] = c
    for y0 in _field_roots(coeffs, spec):
        if depth == k:
            if _vanishes_at_constant(terms, y0, spec):
                out.append(prefix + (y0,))
        else:
            _rr_search(
                _substitute_shift(terms, y0, spec), depth + 1, k, prefix + (y0,), out, spec
            )


def _field_roots(coeffs, spec: FieldSpec) -> list[int]:
    """Every y in F_q with sum coeffs[j] y^j = 0, in code order: Horner's rule
    over a block of F_q at a time."""
    roots: list[int] = []
    for lo in range(0, spec.q, ROOT_SCAN_BLOCK):
        ys = np.arange(lo, min(lo + ROOT_SCAN_BLOCK, spec.q), dtype=np.int32)
        acc = spec.vec.poly_eval(coeffs, ys)
        roots += (lo + np.flatnonzero(acc == 0)).tolist()
    return roots


def _vanishes_at_constant(terms, y0: int, spec: FieldSpec) -> bool:
    """Is Q(X, y0) the zero polynomial?"""
    acc: dict[int, int] = {}
    for (i, j), c in terms.items():
        val = spec.mul(c, spec.pow(y0, j)) if j else c
        if val:
            acc[i] = spec.add(acc.get(i, 0), val)
    return not any(acc.values())


def _substitute_shift(terms, y0: int, spec: FieldSpec) -> dict:
    """Q(X, y0 + X*Y) on the sparse term map."""
    p = spec.p
    out: dict[tuple[int, int], int] = {}
    for (i, j), c in terms.items():
        # (y0 + X Y)^j = sum_l C(j,l) y0^(j-l) X^l Y^l
        for l in range(j + 1):
            b = comb(j, l) % p
            if not b:
                continue
            val = spec.mul(c, spec.from_int(b))
            if j > l:
                val = spec.mul(val, spec.pow(y0, j - l))
            if not val:
                continue
            key = (i + l, l)
            s = spec.add(out.get(key, 0), val)
            if s:
                out[key] = s
            else:
                out.pop(key, None)
    return out


# -- decoding ------------------------------------------------------------------------


def agreement(inst: RSInstance, fcoeffs) -> int:
    spec = inst.spec
    return sum(
        1
        for a, b in zip(inst.alphas, inst.betas)
        if poly_eval_univariate(fcoeffs, a, spec) == b
    )


@lru_cache(maxsize=32)
def _candidate_evaluations(spec: FieldSpec, alphas: tuple[int, ...], k: int):
    cands = []
    for f in itertools.product(range(spec.q), repeat=k + 1):
        evals = tuple(poly_eval_univariate(f, a, spec) for a in alphas)
        cands.append((f, evals))
    return cands


def brute_force_decode(inst: RSInstance) -> list[tuple[int, ...]]:
    """All degree-<=k polynomials with agreement >= t, by full enumeration."""
    if inst.spec.q ** (inst.k + 1) > BRUTE_FORCE_CAP:
        raise SearchSpaceTooLarge(
            f"q^(k+1) = {inst.spec.q ** (inst.k + 1)} exceeds {BRUTE_FORCE_CAP}"
        )
    table = _candidate_evaluations(inst.spec, inst.alphas, inst.k)
    out = [
        f
        for f, evals in table
        if sum(1 for e, b in zip(evals, inst.betas) if e == b) >= inst.t
    ]
    return sorted(out, key=lambda f: tuple(reversed(f)))


def instance_to_json(inst: RSInstance) -> dict:
    spec = inst.spec
    field = str(spec.p) if spec.e == 1 else f"{spec.p}^{spec.e}"
    return {
        "field": field,
        "alphas": list(inst.alphas),
        "betas": list(inst.betas),
        "k": inst.k,
        "t": inst.t,
    }


def instance_from_json(data: dict) -> RSInstance:
    from .ff import parse_field_spec

    return RSInstance(
        parse_field_spec(str(data["field"])),
        tuple(data["alphas"]),
        tuple(data["betas"]),
        k=int(data["k"]),
        t=int(data["t"]),
    )


def list_decode(
    inst: RSInstance,
    eps=Fraction(1, 4),
    params: GSParams | None = None,
    cross_validate: bool | None = None,
) -> list[tuple[int, ...]]:
    """Exactly the degree-<=k polynomials agreeing with the received word in
    >= t places.

    Soundness comes from post-filtering the Y-root candidates on true
    agreement; completeness from t*m > d, which forces every qualifying
    polynomial to appear among the Y-roots of the interpolated Q.
    """
    if params is None:
        params = choose_params(inst, eps)
    Q = gs_interpolate(inst, params)
    candidates = y_roots(Q, inst.k, cross_validate=cross_validate)
    out = [f for f in candidates if agreement(inst, f) >= inst.t]
    return sorted(out, key=lambda f: tuple(reversed(f)))
