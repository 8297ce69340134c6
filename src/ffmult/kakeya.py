"""Kakeya sets in F_q^n: verification, exhaustive minimum search, the two
lower-bound evaluators, the homogeneous-vanishing pipeline, and the
statistical Kakeya-for-curves hypothesis checker.

Points are tuples of element codes.  Directions are canonicalized to one
representative per projective class (first nonzero coordinate equal to 1);
scalar multiples of a direction define the same set of lines, and the zero
direction is excluded by convention.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from fractions import Fraction
from math import ceil, comb

from .errors import (
    HypothesisViolation,
    InternalDefect,
    InvalidParameters,
    ParameterViolation,
    SearchSpaceTooLarge,
    UnsatisfiedCountHypothesis,
)
from .ff import FieldSpec, field_make
from .interpolate import InterpolationProblem, TotalDegreeBasis, vanishing_interpolation
from .mvpoly import Curve, coerce_point, homogeneous_part, multiplicity


def kakeya_lower_bounds(q: int, n: int) -> tuple[Fraction, Fraction]:
    """The crude q^n/2^n bound and the stronger (q^2/(2q-1))^n bound."""
    if q < 2 or n < 1:
        raise InvalidParameters(f"need q >= 2 and n >= 1, got q={q}, n={n}")
    crude = Fraction(q ** n, 2 ** n)
    main = Fraction(q * q, 2 * q - 1) ** n
    return crude, main


def all_points(spec: FieldSpec, n: int) -> list[tuple[int, ...]]:
    return list(itertools.product(range(spec.q), repeat=n))


def canonical_directions(spec: FieldSpec, n: int) -> list[tuple[int, ...]]:
    """One representative per projective direction: first nonzero entry is 1."""
    dirs = []
    for b in itertools.product(range(spec.q), repeat=n):
        nz = next((x for x in b if x), None)
        if nz == 1:
            dirs.append(b)
    return dirs


def lines_in_direction(spec: FieldSpec, n: int, b: tuple[int, ...]):
    """All q^(n-1) distinct lines {a + t*b}, each as a tuple of q points.

    Offsets run over the hyperplane where the pivot coordinate of b is zero,
    which meets every line in the direction exactly once.
    """
    pivot = next(j for j, x in enumerate(b) if x)
    ranges = [range(spec.q) if j != pivot else (0,) for j in range(n)]
    for a in itertools.product(*ranges):
        yield a, tuple(
            tuple(spec.add(aj, spec.mul(t, bj)) for aj, bj in zip(a, b))
            for t in range(spec.q)
        )


@dataclass(frozen=True)
class KakeyaCheck:
    ok: bool
    witnesses: dict[tuple[int, ...], tuple[int, ...]] = field(default_factory=dict)
    violating_direction: tuple[int, ...] | None = None


def is_kakeya(spec: FieldSpec, n: int, K) -> KakeyaCheck:
    """Does K contain a full line in every (nonzero) direction?

    Returns the witness map direction -> offset on success, or the first
    canonical direction with no contained line on failure.  The empty set is
    never a Kakeya set.
    """
    kset = {coerce_point(spec, n, p) for p in K}
    dirs = canonical_directions(spec, n)
    if not kset:
        return KakeyaCheck(False, {}, dirs[0] if dirs else None)
    witnesses: dict[tuple[int, ...], tuple[int, ...]] = {}
    for b in dirs:
        found = None
        for a, line in lines_in_direction(spec, n, b):
            if all(pt in kset for pt in line):
                found = a
                break
        if found is None:
            return KakeyaCheck(False, {}, b)
        witnesses[b] = found
    return KakeyaCheck(True, witnesses, None)


@dataclass(frozen=True)
class KakeyaInstance:
    """A candidate Kakeya set with optional per-direction witness lines."""

    spec: FieldSpec
    n: int
    K: frozenset
    witnesses: dict | None = None

    def verify_witnesses(self) -> bool:
        if self.witnesses is None:
            return False
        for b, a in self.witnesses.items():
            line = {
                tuple(self.spec.add(aj, self.spec.mul(t, bj)) for aj, bj in zip(a, b))
                for t in range(self.spec.q)
            }
            if not line <= self.K:
                return False
        return True


def union_of_witness_lines(spec: FieldSpec, n: int, offsets: dict) -> KakeyaInstance:
    """Build the Kakeya set that is the union of one line per direction."""
    pts: set[tuple[int, ...]] = set()
    for b, a in offsets.items():
        for t in range(spec.q):
            pts.add(tuple(spec.add(aj, spec.mul(t, bj)) for aj, bj in zip(a, b)))
    return KakeyaInstance(spec, n, frozenset(pts), dict(offsets))


def exhaustive_min_kakeya(q: int, n: int, size_cap: int | None = None):
    """A minimum-cardinality Kakeya set, by increasing-size exhaustive search.

    Returns (points, size) where points is the lexicographically least
    minimum set under the canonical point order.  Requires q^n <= 16 so the
    2^(q^n) subset space stays enumerable.  With a size_cap, returns None
    when no Kakeya set of size <= size_cap exists.
    """
    spec = parse_prime_power(q)
    npts = q ** n
    if npts > 16:
        raise SearchSpaceTooLarge(f"q^n = {npts} > 16")
    points = all_points(spec, n)
    index = {pt: i for i, pt in enumerate(points)}
    dir_line_masks: list[list[int]] = []
    for b in canonical_directions(spec, n):
        masks = []
        for _, line in lines_in_direction(spec, n, b):
            mask = 0
            for pt in line:
                mask |= 1 << index[pt]
            masks.append(mask)
        dir_line_masks.append(masks)

    _, main_bound = kakeya_lower_bounds(q, n)
    start = max(q, ceil(main_bound))
    stop = min(npts, size_cap) if size_cap is not None else npts
    for size in range(start, stop + 1):
        for combo in itertools.combinations(range(npts), size):
            mask = 0
            for i in combo:
                mask |= 1 << i
            if all(
                any(mask & lm == lm for lm in masks) for masks in dir_line_masks
            ):
                return frozenset(points[i] for i in combo), size
    if size_cap is not None:
        return None
    raise InternalDefect("the full space is always a Kakeya set")


def is_prime_power_base(q: int) -> tuple[int, int]:
    """Decompose q as p^e with p prime (q itself when q is prime)."""
    for p in range(2, q + 1):
        if q % p == 0:
            e = 0
            m = q
            while m % p == 0:
                m //= p
                e += 1
            if m == 1:
                return p, e
            break
    return q, 1


def parse_prime_power(q: int) -> FieldSpec:
    p, e = is_prime_power_base(q)
    return field_make(p, e)


def homogeneous_vanishing_check(
    instance: KakeyaInstance, ell: int, m: int, d: int
) -> dict:
    """Interpolate P vanishing to multiplicity m on K, then measure how
    strongly the top homogeneous part H_P vanishes across all of F_q^n.

    The three parameters are coupled: ell must be a positive multiple of q,
    with m = 2*ell - ell/q and d = ell*q - 1, the regime where line
    restrictions push multiplicity ell onto H_P at every point.  Raises
    UnsatisfiedCountHypothesis when K is too large for the interpolation
    count argument; that is an expected report for sets above the
    lower-bound threshold, not a defect.
    """
    spec, n = instance.spec, instance.n
    q = spec.q
    if ell <= 0 or ell % q != 0:
        raise InvalidParameters(f"ell must be a positive multiple of q={q}, got {ell}")
    if m != 2 * ell - ell // q:
        raise InvalidParameters(f"m must equal 2*ell - ell/q = {2 * ell - ell // q}, got {m}")
    if d != ell * q - 1:
        raise InvalidParameters(f"d must equal ell*q - 1 = {ell * q - 1}, got {d}")
    n_constraints = comb(m + n - 1, n) * len(instance.K)
    n_monomials = comb(d + n, n)
    if n_constraints >= n_monomials:
        raise UnsatisfiedCountHypothesis(
            f"{n_constraints} constraints vs {n_monomials} monomials for |K|={len(instance.K)}"
        )
    problem = InterpolationProblem(
        spec, n, tuple(sorted(instance.K)), m, TotalDegreeBasis(n, d)
    )
    poly = vanishing_interpolation(problem)
    hp = homogeneous_part(poly)
    mults = {b: multiplicity(hp, b) for b in all_points(spec, n)}
    return {
        "ell": ell,
        "m": m,
        "d": d,
        "poly": poly,
        "homogeneous_part": hp,
        "multiplicities": mults,
        "min_multiplicity": min(mults.values()),
        "ok": all(v >= ell for v in mults.values()),
    }


@dataclass(frozen=True)
class StatKakeyaInstance:
    """Inputs for the statistical Kakeya-for-curves bound.

    For each x in S, curve_map[x] is a curve of degree <= max_degree that
    passes through x and meets K in at least eta*q parameter values.
    """

    spec: FieldSpec
    n: int
    S: tuple
    K: frozenset
    curve_map: dict
    lam: Fraction
    eta: Fraction
    max_degree: int


def statistical_kakeya_bound(q: int, n: int, lam, eta, max_degree: int) -> Fraction:
    """(lam*q / (Lambda*(lam*q - 1)/(eta*q) + 1))^n, as an exact rational."""
    lam, eta = Fraction(lam), Fraction(eta)
    denom = Fraction(max_degree) * (lam * q - 1) / (eta * q) + 1
    return (lam * q / denom) ** n


def statistical_kakeya_check(instance: StatKakeyaInstance) -> dict:
    """Verify the hypotheses of the statistical Kakeya theorem on the
    instance, evaluate the bound exactly, and check |K| against it."""
    spec, n = instance.spec, instance.n
    q = spec.q
    lam, eta, Lam = instance.lam, instance.eta, instance.max_degree
    if not (eta * q > Lam):
        raise ParameterViolation(f"need eta*q > curve degree bound, got {eta * q} <= {Lam}")
    if Fraction(len(instance.S), q ** n) != lam:
        raise InvalidParameters(
            f"|S| = {len(instance.S)} does not equal lam*q^n = {lam * q ** n}"
        )
    kset = instance.K
    required = eta * q
    witnesses = {}
    for x in instance.S:
        curve = instance.curve_map.get(x)
        if curve is None:
            raise HypothesisViolation(f"no curve supplied for point {x}")
        if curve.degree > Lam:
            raise HypothesisViolation(
                f"curve at {x} has degree {curve.degree} > {Lam}"
            )
        values = [curve.eval(t) for t in range(q)]
        if x not in values:
            raise HypothesisViolation(f"curve at {x} does not pass through it")
        hits = sum(1 for v in values if v in kset)
        if hits < required:
            raise HypothesisViolation(
                f"curve at {x} meets K in {hits} parameter values < eta*q = {required}"
            )
        witnesses[x] = hits
    bound = statistical_kakeya_bound(q, n, lam, eta, Lam)
    return {
        "hypothesis_ok": True,
        "bound": bound,
        "set_size": len(kset),
        "witnesses": witnesses,
        "ok": len(kset) >= bound,
    }


def full_space_reduction_instance(spec: FieldSpec, n: int) -> StatKakeyaInstance:
    """The lam = eta = 1, degree-1 instantiation on K = F_q^n.

    Every point carries the line through it in the first coordinate
    direction, which lies entirely inside K, so the statistical bound
    specializes to the Kakeya set bound.
    """
    pts = all_points(spec, n)
    e1 = (1,) + (0,) * (n - 1)
    curves = {x: Curve.line(spec, x, e1) for x in pts}
    return StatKakeyaInstance(
        spec=spec,
        n=n,
        S=tuple(pts),
        K=frozenset(pts),
        curve_map=curves,
        lam=Fraction(1),
        eta=Fraction(1),
        max_degree=1,
    )
