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
from math import ceil

import numpy as np

from .errors import (
    HypothesisViolation,
    InternalDefect,
    InvalidParameters,
    ParameterViolation,
    SearchSpaceTooLarge,
    SpecMismatch,
    UnsupportedSize,
)
from .ff import FieldSpec, code_points, parse_prime_power, point_codes
from .ff import field_make  # noqa: F401  unused; perfbench/test_smoke.py names this binding
from .interpolate import InterpolationProblem, TotalDegreeBasis, vanishing_interpolation
from .mvpoly import Curve, coerce_point, grid_multiplicities, homogeneous_part


def kakeya_lower_bounds(q: int, n: int) -> tuple[Fraction, Fraction]:
    """The crude q^n/2^n bound and the stronger (q^2/(2q-1))^n bound, for
    spaces of at most POINT_CAP points."""
    if q < 2 or n < 1:
        raise InvalidParameters(f"need q >= 2 and n >= 1, got q={q}, n={n}")
    _check_space(q, n)
    crude = Fraction(q ** n, 2 ** n)
    main = Fraction(q * q, 2 * q - 1) ** n
    return crude, main


POINT_CAP = 2 ** 20  # largest q^n whose points or directions are listed


def _check_space(q: int, n: int) -> None:
    """Refuse n < 0, and spaces F_q^n of more than POINT_CAP points."""
    if n < 0:
        raise InvalidParameters(f"need n >= 0, got {n}")
    # q >= 2, so an n past the cap's bit length is refused before q^n is formed
    if n >= POINT_CAP.bit_length() or q ** n > POINT_CAP:
        raise UnsupportedSize(f"F_{q}^{n} has more than {POINT_CAP} points")


def all_points(spec: FieldSpec, n: int) -> list[tuple[int, ...]]:
    _check_space(spec.q, n)
    return list(itertools.product(range(spec.q), repeat=n))


def canonical_directions(spec: FieldSpec, n: int) -> np.ndarray:
    """One representative per projective direction, first nonzero entry 1,
    as a (directions, n) code array in ``all_points`` order."""
    _check_space(spec.q, n)
    pts = code_points(np.arange(spec.q ** n), spec.q, n)
    nonzero = pts != 0
    first = nonzero & (np.cumsum(nonzero, axis=1) == 1)
    return pts[(first & (pts == 1)).any(axis=1)]


def _line_offsets(q: int, n: int, dirs: np.ndarray, lines: np.ndarray) -> np.ndarray:
    """The offset of line ``lines[k]`` of direction ``dirs[k]`` for each row k.

    The q^(n-1) lines of a direction are numbered by their offsets on the
    hyperplane where the pivot coordinate (the first nonzero one) of the
    direction is zero, in itertools.product order over the other
    coordinates.  That hyperplane meets every line of the direction once.
    """
    pivot = np.argmax(dirs != 0, axis=1)[:, None]
    k = np.arange(n - 1)
    offsets = np.zeros((len(lines), n), dtype=np.int64)
    offsets[np.arange(len(lines))[:, None], k + (k >= pivot)] = code_points(lines, q, n - 1)
    return offsets


def _line_codes(spec: FieldSpec, dirs: np.ndarray, offsets: np.ndarray) -> np.ndarray:
    """The point codes of the line {offsets[k] + t*dirs[k]} for each row k,
    of shape (rows, q) in t order."""
    vec, t = spec.vec, np.arange(spec.q)[:, None]
    return point_codes(vec.add(offsets[:, None], vec.mul(t, dirs[:, None])), spec.q)


def _members(q: int, n: int, points: np.ndarray) -> np.ndarray:
    """A boolean mask over the q^n point codes, true at the rows of the
    (N, n) code array ``points``; F_q^n must fit POINT_CAP."""
    _check_space(q, n)
    mask = np.zeros(q ** n, dtype=bool)
    mask[point_codes(points.reshape(len(points), n), q)] = True
    return mask


def _witness_codes(spec: FieldSpec, n: int, witnesses: dict) -> np.ndarray:
    """The point codes of the line {a + t*b} of each direction b -> offset a."""
    rows = [[coerce_point(spec, n, x) for x in pair] for pair in witnesses.items()]
    dirs, offsets = np.array(rows, dtype=np.int64).reshape(len(rows), 2, n).transpose(1, 0, 2)
    return _line_codes(spec, dirs, offsets)


@dataclass(frozen=True)
class KakeyaCheck:
    ok: bool
    witnesses: dict[tuple[int, ...], tuple[int, ...]] = field(default_factory=dict)
    violating_direction: tuple[int, ...] | None = None


LINE_BLOCK_CELLS = 2 ** 14  # (line, parameter) cells per round of is_kakeya


def is_kakeya(spec: FieldSpec, n: int, K) -> KakeyaCheck:
    """Does K contain a full line in every (nonzero) direction?

    Returns the witness map direction -> offset of its first line inside K
    on success, or the first canonical direction with no line inside K on
    failure.  The empty set is never a Kakeya set.

    Works in rounds of at most LINE_BLOCK_CELLS points, looked up in a mask
    over the codes of F_q^n.  Each round takes the next untested lines of the
    lowest-numbered directions that have no witness yet, and the search
    stops once the first direction without a line in K is settled.
    """
    kset = {coerce_point(spec, n, p) for p in K}
    dirs = canonical_directions(spec, n)
    if not kset:
        return KakeyaCheck(False, {}, tuple(dirs[0].tolist()) if len(dirs) else None)
    if not len(dirs):  # n = 0: no direction to cover
        return KakeyaCheck(True, {}, None)
    q = spec.q
    members = _members(q, n, np.array(list(kset), dtype=np.int64))
    per_dir = q ** (n - 1)
    witness = np.full(len(dirs), -1)  # line number of the first line in K
    tested = np.zeros(len(dirs), dtype=np.int64)  # lines tested so far
    pending = np.arange(len(dirs))
    rows = max(1, LINE_BLOCK_CELLS // q)
    while pending.size:
        each = max(1, rows // len(pending))
        batch = pending[: max(1, rows // each)]
        counts = np.minimum(each, per_dir - tested[batch])
        d = np.repeat(batch, counts)
        line = tested[d] + np.arange(len(d)) - np.repeat(np.cumsum(counts) - counts, counts)
        codes = _line_codes(spec, dirs[d], _line_offsets(q, n, dirs[d], line))
        inside = members[codes].all(axis=1)
        hit, first = np.unique(d[inside], return_index=True)
        witness[hit] = line[inside][first]
        tested[batch] += counts
        pending = pending[(witness[pending] < 0) & (tested[pending] < per_dir)]
        # each batch is a prefix of pending, so a direction never has more
        # lines tested than a lower one still pending: every direction below
        # the first exhausted one without a witness is settled
        missing = np.flatnonzero((tested == per_dir) & (witness < 0))
        if missing.size:
            return KakeyaCheck(False, {}, tuple(dirs[missing[0]].tolist()))
    offsets = _line_offsets(q, n, dirs, witness)
    witnesses = zip(map(tuple, dirs.tolist()), map(tuple, offsets.tolist()))
    return KakeyaCheck(True, dict(witnesses), None)


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
        spec, n = self.spec, self.n
        points = np.array([coerce_point(spec, n, p) for p in self.K], dtype=np.int64)
        return bool(_members(spec.q, n, points)[_witness_codes(spec, n, self.witnesses)].all())


def union_of_witness_lines(spec: FieldSpec, n: int, offsets: dict) -> KakeyaInstance:
    """Build the Kakeya set that is the union of one line per direction."""
    codes = np.unique(_witness_codes(spec, n, offsets))
    pts = frozenset(map(tuple, code_points(codes, spec.q, n).tolist()))
    return KakeyaInstance(spec, n, pts, dict(offsets))


def exhaustive_min_kakeya(q: int, n: int, size_cap: int | None = None):
    """A minimum-cardinality Kakeya set, by increasing-size exhaustive search.

    Returns (points, size) where points is the lexicographically least
    minimum set under the canonical point order.  Requires q^n <= 16 so the
    2^(q^n) subset space stays enumerable; a space past POINT_CAP is refused
    as UnsupportedSize before q^n is formed.  With a size_cap, returns None
    when no Kakeya set of size <= size_cap exists.

    Subsets are bit masks with point i at bit q^n - 1 - i, so among sets of
    one size the greatest mask is the lexicographically least one.
    """
    spec = parse_prime_power(q)
    _check_space(q, n)
    npts = q ** n
    if npts > 16:
        raise SearchSpaceTooLarge(f"q^n = {npts} > 16")
    _, main_bound = kakeya_lower_bounds(q, n)
    dirs = canonical_directions(spec, n)
    d, line = np.divmod(np.arange(len(dirs) * q ** (n - 1)), q ** (n - 1))
    codes = _line_codes(spec, dirs[d], _line_offsets(q, n, dirs[d], line))
    bits = 1 << (npts - 1 - np.arange(npts))
    line_masks = np.bitwise_or.reduce(bits[codes], axis=1).reshape(len(dirs), -1)
    masks = np.arange(2 ** npts)
    sizes = sum((masks >> i) & 1 for i in range(npts))

    start = max(q, ceil(main_bound))
    stop = min(npts, size_cap) if size_cap is not None else npts
    for size in range(start, stop + 1):
        found = _kakeya_masks(masks[sizes == size], line_masks)
        if found.size:
            best = int(found.max())
            points = all_points(spec, n)
            return frozenset(points[i] for i in range(npts) if best & bits[i]), size
    if size_cap is not None:
        return None
    raise InternalDefect("the full space is always a Kakeya set")


def _kakeya_masks(masks: np.ndarray, line_masks: np.ndarray) -> np.ndarray:
    """The subset masks that contain a line of every direction (one row of
    line masks per direction)."""
    for lines in line_masks:
        masks = masks[((masks[:, None] & lines) == lines).any(axis=1)]
    return masks


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
    problem = InterpolationProblem(
        spec, n, tuple(sorted(instance.K)), m, TotalDegreeBasis(n, d)
    )
    poly = vanishing_interpolation(problem)
    hp = homogeneous_part(poly)
    points = all_points(spec, n)
    mults = dict(zip(points, grid_multiplicities(hp, range(spec.q)).tolist()))
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
    """(lam*q / (Lambda*(lam*q - 1)/(eta*q) + 1))^n, exact, for eta > 0."""
    lam, eta = Fraction(lam), Fraction(eta)
    if eta <= 0:
        raise InvalidParameters(f"need eta > 0, got {eta}")
    denom = Fraction(max_degree) * (lam * q - 1) / (eta * q) + 1
    return (lam * q / denom) ** n


def statistical_kakeya_check(instance: StatKakeyaInstance) -> dict:
    """Verify the hypotheses of the statistical Kakeya theorem on the
    instance, evaluate the bound exactly, and check |K| against it.  A point
    of S or K outside F_q^n lies on no curve and in no K."""
    spec, n = instance.spec, instance.n
    q = spec.q
    _check_space(q, n)
    lam, eta, Lam = instance.lam, instance.eta, instance.max_degree
    if not (eta * q > Lam):
        raise ParameterViolation(f"need eta*q > curve degree bound, got {eta * q} <= {Lam}")
    if len(set(instance.S)) != len(instance.S):
        raise InvalidParameters("S must be duplicate-free")
    if Fraction(len(instance.S), q ** n) != lam:
        raise InvalidParameters(
            f"|S| = {len(instance.S)} does not equal lam*q^n = {lam * q ** n}"
        )
    kset = instance.K
    kpoints = [p for p in kset if _in_space(q, n, p)]
    members = _members(q, n, np.array(kpoints, dtype=np.int64))
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
        if curve.spec is not spec:
            raise SpecMismatch(f"curve at {x} is over a different field")
        values = curve.values(np.arange(q))
        if not (curve.n == n and _in_space(q, n, x) and (values == x).all(axis=1).any()):
            raise HypothesisViolation(f"curve at {x} does not pass through it")
        hits = int(members[point_codes(values, q)].sum())
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


def _in_space(q: int, n: int, point) -> bool:
    """Is the point an n-tuple of codes of F_q, a point of F_q^n?"""
    return isinstance(point, tuple) and len(point) == n and all(c in range(q) for c in point)


def full_space_reduction_instance(spec: FieldSpec, n: int) -> StatKakeyaInstance:
    """The lam = eta = 1, degree-1 instantiation on K = F_q^n.

    Every point carries the line through it in the first coordinate
    direction, which lies entirely inside K, so the statistical bound
    specializes to the Kakeya set bound.
    """
    if n < 1:  # the direction e1 needs a coordinate
        raise InvalidParameters(f"need n >= 1, got {n}")
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
