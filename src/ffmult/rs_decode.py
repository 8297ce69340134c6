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

from dataclasses import dataclass
from fractions import Fraction
from math import isqrt

import numpy as np

from .errors import (
    BelowJohnsonRadius,
    InternalDefect,
    InvalidParameters,
    NoFeasibleM,
    SearchSpaceTooLarge,
    ZeroPolynomial,
)
from .ff import FieldSpec, code_points, parse_field_spec, strict_index
from .interpolate import (
    InterpolationProblem,
    WeightedDegreeBasis,
    count_total_degree_monomials,
    count_weighted_monomials,
    vanishing_interpolation,
)
from .mvpoly import MultiPoly, lucas_binomial, power_tables

M_SEARCH_CAP = 10 ** 4
CROSS_VALIDATE_CAP = 10 ** 4
BRUTE_FORCE_CAP = 10 ** 6
ROOT_SCAN_BLOCK = 2 ** 12  # field elements per pass of the Y-root scan
# Array cells (candidates x columns) per chunk of the exhaustive oracles, and
# the number of field elements at which y_roots_bruteforce evaluates each
# candidate before composing the survivors exactly.
ORACLE_BLOCK_CELLS = 2 ** 16
PREFILTER_POINTS = 8


@dataclass(frozen=True)
class RSInstance:
    """Received word (alpha_i, beta_i), degree bound k, agreement target t."""

    spec: FieldSpec
    alphas: tuple[int, ...]
    betas: tuple[int, ...]
    k: int
    t: int

    def __post_init__(self):
        alphas = tuple(self.spec.check_code(a) for a in self.alphas)
        betas = tuple(self.spec.check_code(b) for b in self.betas)
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
        constraints = count_total_degree_monomials(2, m - 1) * inst.n
        if constraints >= count_weighted_monomials(inst.k, d, theta):
            continue
        ydeg_cap = int((theta * d) // inst.k)
        # re-check the rounding directions exactly
        if not (d * d >= target > (d - 1) * (d - 1)
                and ydeg_cap <= theta * d / inst.k < ydeg_cap + 1):
            raise InternalDefect(f"rounding of d={d} or ydeg_cap={ydeg_cap} is off")
        return GSParams(m=m, d=d, theta=theta, ydeg_cap=ydeg_cap, eps=eps)
    raise NoFeasibleM(f"no feasible multiplicity up to {M_SEARCH_CAP}")


def gs_interpolate(inst: RSInstance, params: GSParams) -> MultiPoly:
    """Nonzero Q(X, Y) of (1,k)-degree <= d and Y-degree <= ydeg_cap that
    vanishes with multiplicity >= m at every received point."""
    problem = InterpolationProblem(
        spec=inst.spec,
        n=2,
        points=tuple(zip(inst.alphas, inst.betas)),
        m=params.m,
        basis=WeightedDegreeBasis(d=params.d, k=inst.k, ydeg_cap=params.ydeg_cap),
    )
    return vanishing_interpolation(problem)


def _y_levels(Q: MultiPoly) -> np.ndarray:
    """Q as sum_j Q_j(X) Y^j: a dense (deg_Y Q + 1) x (deg_X Q + 1) array of
    codes whose row j holds the X-coefficients of Q_j, low to high."""
    levels = np.zeros(tuple(Q.exps.max(axis=0)[::-1] + 1), dtype=np.int64)
    levels[Q.exps[:, 1], Q.exps[:, 0]] = Q.coeffs
    return levels


def _compose_rows(levels: np.ndarray, cands: np.ndarray, vec) -> np.ndarray:
    """Q(X, f(X)) for every coefficient row f of ``cands``, as one row of
    X-coefficients each, by Horner's rule in Y: acc <- acc*f + Q_j.  Each
    product stays within the degree bound of the result, so the
    convolution drops only zero terms."""
    width = levels.shape[1] + (cands.shape[1] - 1) * (len(levels) - 1)
    acc = np.zeros((len(cands), width), dtype=np.int64)
    acc[:, : levels.shape[1]] = levels[-1]
    for level in levels[-2::-1]:
        prod = np.zeros_like(acc)
        for t in range(cands.shape[1]):
            prod[:, t:] = vec.add(prod[:, t:], vec.mul(acc[:, : width - t], cands[:, t : t + 1]))
        prod[:, : len(level)] = vec.add(prod[:, : len(level)], level)
        acc = prod
    return acc


# -- Y-root extraction --------------------------------------------------------------


def y_roots(Q: MultiPoly, k: int) -> list[tuple[int, ...]]:
    """All f with deg f <= k and Q(X, f(X)) identically zero.

    Returned as coefficient tuples of length k+1 (low-to-high), canonically
    ordered with the top coefficient most significant.  The recursive finder
    strips X-power factors at each level and branches on the roots of
    Q(0, Y).  Whenever q^(k+1) <= CROSS_VALIDATE_CAP it is cross-validated
    against exhaustive enumeration of all q^(k+1) candidates.
    """
    if Q.is_zero:
        raise ZeroPolynomial("Y-roots of the zero polynomial are undefined")
    spec = Q.spec
    levels = _y_levels(Q)
    # C(j, l) mod p at [l, j]: the Y-degree is the same at every depth
    ys = np.arange(len(levels))
    binom = lucas_binomial(spec.p, len(levels) - 1)(ys, ys[:, None])
    found: list[tuple[int, ...]] = []
    _rr_search(levels, 0, k, (), found, spec, binom)
    result = sorted(set(found), key=lambda f: tuple(reversed(f)))
    if spec.q ** (k + 1) <= CROSS_VALIDATE_CAP:
        brute = y_roots_bruteforce(Q, k)
        if result != brute:
            raise InternalDefect(
                f"root finder disagrees with enumeration: {result} vs {brute}"
            )
    return result


def y_roots_bruteforce(Q: MultiPoly, k: int) -> list[tuple[int, ...]]:
    """Exhaustive reference enumeration over all degree-<=k polynomials.

    A candidate f must first vanish as Q(a, f(a)) at the first
    PREFILTER_POINTS elements a of F_q, a necessary condition; the
    survivors are confirmed by composing Q(X, f(X)) exactly.
    """
    if Q.is_zero:
        raise ZeroPolynomial("Y-roots of the zero polynomial are undefined")
    spec = Q.spec
    vec = spec.vec
    levels = _y_levels(Q)
    width = levels.shape[1] + k * (len(levels) - 1)  # coefficients of Q(X, f(X))
    points = np.arange(min(spec.q, PREFILTER_POINTS))
    q_at_points = vec.poly_eval_rows(levels, points)  # Q_j(a) at [j, a]
    out: list[tuple[int, ...]] = []
    for cands in _candidate_blocks(spec.q, k, max(len(points), width)):
        fvals = vec.poly_eval_rows(cands, points)
        cands = cands[~vec.poly_eval(q_at_points, fvals).any(axis=1)]
        if len(cands):
            cands = cands[~_compose_rows(levels, cands, vec).any(axis=1)]
            out += map(tuple, cands.tolist())
    return sorted(out, key=lambda f: tuple(reversed(f)))


def _candidate_blocks(q: int, k: int, cols: int):
    """All q^(k+1) coefficient rows (f_0, ..., f_k) in itertools.product
    order, as int64 arrays of at most ORACLE_BLOCK_CELLS // cols rows."""
    rows = max(1, ORACLE_BLOCK_CELLS // cols)
    total = q ** (k + 1)
    for lo in range(0, total, rows):
        yield code_points(np.arange(lo, min(lo + rows, total)), q, k + 1)


def _rr_search(levels, depth, k, prefix, out, spec: FieldSpec, binom):
    """Extend ``prefix`` by each y0 with Q(0, y0) = 0, where ``levels`` is
    Q(X, Y) as ``_y_levels`` gives it, and ``binom`` holds C(j, l) mod p at
    [l, j] for every pair of rows."""
    # strip the largest X power dividing Q, and the zero columns past deg_X Q
    cols = np.flatnonzero(levels.any(axis=0))
    levels = levels[:, cols[0] : cols[-1] + 1]
    # roots of Q(0, Y): the zero-X column is nonzero after stripping
    coeffs = levels[: np.flatnonzero(levels[:, 0])[-1] + 1, 0].tolist()
    for y0 in _field_roots(coeffs, spec):
        if depth < k:
            shifted = _shift_levels(levels, y0, binom, spec.vec)
            _rr_search(shifted, depth + 1, k, prefix + (y0,), out, spec, binom)
        elif not spec.vec.poly_eval(levels, y0).any():  # Q(X, y0) = 0
            out.append(prefix + (y0,))


def _shift_levels(levels, y0: int, binom, vec) -> np.ndarray:
    """Q(X, y0 + XY) from Q(X, Y), both as ``_y_levels`` arrays of the same
    Y-degree.  (y0 + XY)^j = sum_l C(j, l) y0^(j-l) X^l Y^l, so row l is
    sum_j C(j, l) y0^(j-l) Q_j(X), moved right by l."""
    lj = np.arange(len(levels))
    ypow = power_tables(vec, np.array([[y0]]), len(levels) - 1)[0, 0]
    mix = vec.mul(binom, ypow[np.maximum(lj - lj[:, None], 0)])
    rows = vec.dot(mix, levels, np.zeros_like(levels))
    shifted = np.zeros((len(levels), levels.shape[1] + len(levels) - 1), dtype=np.int64)
    shifted[lj[:, None], lj[:, None] + np.arange(levels.shape[1])] = rows
    return shifted


def _field_roots(coeffs, spec: FieldSpec) -> list[int]:
    """Every y in F_q with sum coeffs[j] y^j = 0, in code order, where the
    last coefficient is nonzero: -c0/c1 for a line c0 + c1*Y, else Horner's
    rule over a block of F_q at a time."""
    if len(coeffs) == 2:
        return [spec.mul(spec.neg(coeffs[0]), spec.inv(coeffs[1]))]
    roots: list[int] = []
    for lo in range(0, spec.q, ROOT_SCAN_BLOCK):
        ys = np.arange(lo, min(lo + ROOT_SCAN_BLOCK, spec.q), dtype=np.int32)
        acc = spec.vec.poly_eval(coeffs, ys)
        roots += (lo + np.flatnonzero(acc == 0)).tolist()
    return roots


# -- decoding ------------------------------------------------------------------------


def agreement(inst: RSInstance, cands) -> np.ndarray:
    """For each row f of ``cands``, k + 1 coefficient codes low to high, the
    number of received points (alpha_i, beta_i) with f(alpha_i) = beta_i:
    one evaluation of every row at every alpha."""
    cands = np.asarray(cands, dtype=np.int64).reshape(len(cands), inst.k + 1)
    values = inst.spec.vec.poly_eval_rows(cands, np.array(inst.alphas, dtype=np.int64))
    return (values == np.array(inst.betas, dtype=np.int64)).sum(axis=1)


def brute_force_decode(inst: RSInstance) -> list[tuple[int, ...]]:
    """All degree-<=k polynomials with agreement >= t, by full enumeration."""
    if inst.spec.q ** (inst.k + 1) > BRUTE_FORCE_CAP:
        raise SearchSpaceTooLarge(
            f"q^(k+1) = {inst.spec.q ** (inst.k + 1)} exceeds {BRUTE_FORCE_CAP}"
        )
    out: list[tuple[int, ...]] = []
    for cands in _candidate_blocks(inst.spec.q, inst.k, inst.n):
        out += map(tuple, cands[agreement(inst, cands) >= inst.t].tolist())
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


def instance_from_json(data) -> RSInstance:
    """The instance that ``instance_to_json`` describes; JSON of any other
    shape raises InvalidParameters."""
    try:
        field, alphas, betas = str(data["field"]), tuple(data["alphas"]), tuple(data["betas"])
        k, t = strict_index(data["k"]), strict_index(data["t"])
    except (KeyError, TypeError):
        raise InvalidParameters(
            "an instance is a JSON object with field, alphas, betas, k and t"
        ) from None
    return RSInstance(parse_field_spec(field), alphas, betas, k=k, t=t)


def list_decode(
    inst: RSInstance,
    eps=Fraction(1, 4),
    params: GSParams | None = None,
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
    candidates = y_roots(Q, inst.k)  # in the canonical order
    hits = agreement(inst, candidates).tolist()
    return [f for f, h in zip(candidates, hits) if h >= inst.t]
