"""Scalar references for the array kernels: the log/exp table walk, one
polynomial product per power of the generator, and the one-point,
one-derivative, one-``spec.mul`` walks of the Hasse-shell and Kakeya code,
as the library ran them before those moved onto ``FieldSpec.vec``.  Tests
only."""

import itertools
from math import ceil, comb

from ffmult.ff import parse_prime_power
from ffmult.kakeya import all_points, canonical_directions, kakeya_lower_bounds
from ffmult.mvpoly import INF_MULT, MultiPoly, weak_compositions


def poly_mul(spec, a: int, b: int) -> int:
    """The product of two codes: schoolbook product of their coefficient
    vectors, reduced by the modulus from the top coefficient down."""
    p, e = spec.p, spec.e
    av, bv = spec.code_to_coeffs(a), spec.code_to_coeffs(b)
    prod = [0] * (2 * e - 1)
    for i, ai in enumerate(av):
        for j, bj in enumerate(bv):
            prod[i + j] = (prod[i + j] + ai * bj) % p
    for i in range(2 * e - 2, e - 1, -1):
        c = prod[i]
        for j in range(e + 1):
            prod[i - e + j] = (prod[i - e + j] - c * spec.modulus[j]) % p
    return spec.coeffs_to_code(prod[:e])


def log_exp_tables(spec):
    """(exp, log) by the scalar walk: the powers of each candidate g in code
    order, one ``poly_mul`` at a time, until they return to 1.  The first g
    whose walk takes q - 1 steps generates F_q^*; its walk is exp, and log
    inverts it, with log[0] = 0."""
    q = spec.q
    for g in range(1, q):
        exp, x = [1], g
        while x != 1:
            exp.append(x)
            x = poly_mul(spec, x, g)
        if len(exp) == q - 1:
            log = [0] * q
            for i, x in enumerate(exp):
                log[x] = i
            return exp, log
    raise AssertionError(f"no generator of {spec!r}")


def hasse_eval(P: MultiPoly, i, point) -> int:
    """P^(i)(point) term by term: sum of c_r * C(r, i) * point^(r - i)."""
    spec, p = P.spec, P.spec.p
    acc = 0
    for r, c in P.terms.items():
        if any(rk < ik for rk, ik in zip(r, i)):
            continue
        b = 1
        for rk, ik in zip(r, i):
            b = (b * comb(rk, ik)) % p
        if not b:
            continue
        val = spec.mul(c, spec.from_int(b))
        for rk, ik, ak in zip(r, i, point):
            val = spec.mul(val, spec.pow(ak, rk - ik))
        acc = spec.add(acc, val)
    return acc


def multiplicity(P: MultiPoly, point):
    """The first weight w with a nonzero derivative of weight w at point."""
    if P.is_zero:
        return INF_MULT
    for w in range(P.degree + 1):
        for i in weak_compositions(w, P.n):
            if hasse_eval(P, i, point):
                return w
    raise AssertionError("nonzero polynomial with multiplicity above its degree")


def lines_in_direction(spec, n, b):
    """All q^(n-1) lines {a + t*b}, offsets on the hyperplane where the pivot
    coordinate of b is zero, in itertools.product order."""
    pivot = next(j for j, x in enumerate(b) if x)
    ranges = [range(spec.q) if j != pivot else (0,) for j in range(n)]
    for a in itertools.product(*ranges):
        yield a, tuple(
            tuple(spec.add(aj, spec.mul(t, bj)) for aj, bj in zip(a, b))
            for t in range(spec.q)
        )


def is_kakeya(spec, n, K):
    """(ok, witnesses, violating direction), walking directions and lines."""
    kset = set(K)
    dirs = canonical_directions(spec, n)
    if not kset:
        return False, {}, dirs[0] if dirs else None
    witnesses = {}
    for b in dirs:
        found = next((a for a, line in lines_in_direction(spec, n, b)
                      if all(pt in kset for pt in line)), None)
        if found is None:
            return False, {}, b
        witnesses[b] = found
    return True, witnesses, None


def min_kakeya(q, n, size_cap=None):
    """Increasing-size search over itertools.combinations of point indices."""
    spec = parse_prime_power(q)
    npts = q ** n
    points = all_points(spec, n)
    index = {pt: i for i, pt in enumerate(points)}
    dir_line_masks = []
    for b in canonical_directions(spec, n):
        masks = []
        for _, line in lines_in_direction(spec, n, b):
            mask = 0
            for pt in line:
                mask |= 1 << index[pt]
            masks.append(mask)
        dir_line_masks.append(masks)
    _, main_bound = kakeya_lower_bounds(q, n)
    stop = min(npts, size_cap) if size_cap is not None else npts
    for size in range(max(q, ceil(main_bound)), stop + 1):
        for combo in itertools.combinations(range(npts), size):
            mask = sum(1 << i for i in combo)
            if all(any(mask & lm == lm for lm in masks) for masks in dir_line_masks):
                return frozenset(points[i] for i in combo), size
    return None
