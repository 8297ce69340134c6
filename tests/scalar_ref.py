"""Scalar references for the array kernels: the log/exp table walk, one
polynomial product per power of the generator, and the one-point,
one-derivative, one-``spec.mul`` walks of the evaluation, Hasse-shell and
Kakeya code, as the library ran them before those moved onto
``FieldSpec.vec``, with the statistical Kakeya check that evaluated each
curve one parameter at a time; the term-map steps of the Y-root search: the
test Q(X, y0) = 0 and the shift Q(X, y0 + XY), the one-seed-at-a-time count
of merger outputs, and the merger's Lagrange basis as one product of linear
factors per node, on the scalar coefficient-list helpers ``uni_add`` and
``uni_mul``; the merger's block maps, sources and curve evaluated one point
and one seed at a time; Hasse derivatives and multiplicities read off a
shift expansion, which never touches the binomial term rule; and the
term-dict arithmetic of ``MultiPoly`` (sums, products, scaling, powers,
Hasse derivatives, homogeneous parts, curve composition and text parsing)
as it ran before the terms moved onto exponent and coefficient arrays.
Tests only."""

import itertools
from functools import reduce
from fractions import Fraction
from math import ceil, comb

import numpy as np

from ffmult import merger as mg
from ffmult.ff import FieldSpec, parse_prime_power
from ffmult.errors import HypothesisViolation, InvalidParameters, ParameterViolation
from ffmult.kakeya import _check_space, all_points, kakeya_lower_bounds, statistical_kakeya_bound
from ffmult.mvpoly import INF_MULT, MultiPoly, parse_terms, weak_compositions


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


def eval_codes(P: MultiPoly, point) -> int:
    """P at a point of codes, term by term, on per-coordinate power tables
    built one ``spec.mul`` at a time."""
    spec = P.spec
    tabs = []
    for j, x in enumerate(point):
        tab = [1]
        for _ in range(max((exps[j] for exps in P.terms), default=0)):
            tab.append(spec.mul(tab[-1], x))
        tabs.append(tab)
    acc = 0
    for exps, coeff in P.terms.items():
        val = coeff
        for j, e in enumerate(exps):
            if e:
                val = spec.mul(val, tabs[j][e])
                if not val:
                    break
        acc = spec.add(acc, val)
    return acc


def statistical_kakeya_check(instance) -> dict:
    """The statistical Kakeya check with every curve evaluated by
    ``eval_codes`` one parameter at a time, its points looked up as tuples
    in K, after the same refusals of the space and of a repeated point of S."""
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
    required = eta * q
    witnesses = {}
    for x in instance.S:
        curve = instance.curve_map.get(x)
        if curve is None:
            raise HypothesisViolation(f"no curve supplied for point {x}")
        if curve.degree > Lam:
            raise HypothesisViolation(f"curve at {x} has degree {curve.degree} > {Lam}")
        values = [tuple(eval_codes(c, (t,)) for c in curve.components) for t in range(q)]
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
        val = spec.mul(c, b)
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


# -- the term-dict arithmetic of MultiPoly: dicts from exponent tuples to
# nonzero codes, one scalar ``spec.add`` or ``spec.mul`` per term pair


def dict_add(spec, a: dict, b: dict) -> dict:
    out = dict(a)
    for exps, c in b.items():
        s = spec.add(out.get(exps, 0), c)
        if s:
            out[exps] = s
        else:
            out.pop(exps, None)
    return out


def dict_neg(spec, a: dict) -> dict:
    return {e: spec.neg(c) for e, c in a.items()}


def dict_mul(spec, a: dict, b: dict) -> dict:
    out = {}
    for e1, c1 in a.items():
        for e2, c2 in b.items():
            key = tuple(x + y for x, y in zip(e1, e2))
            s = spec.add(out.get(key, 0), spec.mul(c1, c2))
            if s:
                out[key] = s
            else:
                out.pop(key, None)
    return out


def dict_scale(spec, a: dict, code: int) -> dict:
    return {e: spec.mul(c, code) for e, c in a.items()} if code else {}


def dict_power(spec, n: int, a: dict, k: int) -> dict:
    """a ** k by k products, starting from 1."""
    out = {(0,) * n: 1}
    for _ in range(k):
        out = dict_mul(spec, out, a)
    return out


def dict_hasse(spec, a: dict, i) -> dict:
    """X^r -> C(r, i) X^(r - i), C(r, i) by math.comb mod p."""
    out = {}
    for r, c in a.items():
        if all(rk >= ik for rk, ik in zip(r, i)):
            b = 1
            for rk, ik in zip(r, i):
                b = b * comb(rk, ik) % spec.p
            val = spec.mul(c, b)
            if val:
                out[tuple(rk - ik for rk, ik in zip(r, i))] = val
    return out


def dict_homogeneous_part(a: dict) -> dict:
    d = max(map(sum, a))
    return {e: c for e, c in a.items() if sum(e) == d}


def dict_compose(spec, a: dict, comps) -> dict:
    """a(C_1(T), ..., C_n(T)) for univariate term dicts C_j: each term a
    product of component powers, each power one product more than the last."""
    out = {}
    for exps, coeff in a.items():
        term = {(0,): coeff}
        for comp, e in zip(comps, exps):
            for _ in range(e):
                term = dict_mul(spec, term, comp)
        out = dict_add(spec, out, term)
    return out


def dict_from_text(spec, text: str) -> dict:
    """The terms of 'coeff:e1,...,en;...', a repeated exponent vector summed."""
    out = {}
    for coeff, exps in parse_terms(text):
        out = dict_add(spec, out, {exps: spec.coerce(coeff)} if coeff else {})
    return out


def hasse_via_shift_expansion(P: MultiPoly, order) -> MultiPoly:
    """P^(order) read off from P(X + Z), expanded by repeated multiplication
    of term dicts.

    Works in 2n variables, never touching the binomial term rule, so it is
    an independent oracle for the production derivative.
    """
    spec, n = P.spec, P.n
    shifted = {}
    for exps, coeff in P.terms.items():
        term = {(0,) * (2 * n): coeff}
        for j, e in enumerate(exps):
            # X_j + Z_j inside the 2n-variable ring
            factor = {tuple(int(k == j) for k in range(2 * n)): 1,
                      tuple(int(k == n + j) for k in range(2 * n)): 1}
            for _ in range(e):
                term = dict_mul(spec, term, factor)
        shifted = dict_add(spec, shifted, term)
    order = tuple(order)
    return MultiPoly(spec, n, {e[:n]: c for e, c in shifted.items() if e[n:] == order})


def multiplicity_via_shift(P: MultiPoly, point) -> int | float:
    """Minimum weight of a monomial in P(point + Z), via the shift oracle."""
    if P.is_zero:
        return INF_MULT
    spec, n = P.spec, P.n
    shifted = {}
    for exps, coeff in P.terms.items():
        term = {(0,) * n: coeff}
        for j, e in enumerate(exps):
            factor = dict_add(spec, {tuple(int(k == j) for k in range(n)): 1},
                              {(0,) * n: point[j]} if point[j] else {})
            for _ in range(e):
                term = dict_mul(spec, term, factor)
        shifted = dict_add(spec, shifted, term)
    if not shifted:
        return INF_MULT
    return min(sum(e) for e in shifted)


def canonical_directions(spec, n):
    """One direction per projective class, its first nonzero entry 1, in
    itertools.product order."""
    return [b for b in itertools.product(range(spec.q), repeat=n)
            if next((x for x in b if x), None) == 1]


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


def y_roots_search(terms, k: int, spec: FieldSpec, depth=0, prefix=()):
    """The Y-root recursion on term maps: strip the X power, then for each
    root y0 of Q(0, Y) test Q(X, y0) = 0 at depth k, or recurse on
    Q(X, y0 + XY) below it.  Roots in the order found."""
    from ffmult.rs_decode import _field_roots

    shift = min(i for (i, _) in terms)
    terms = {(i - shift, j): c for (i, j), c in terms.items()}
    coeffs = [0] * (1 + max(j for (i, j) in terms if i == 0))
    for (i, j), c in terms.items():
        if i == 0:
            coeffs[j] = c
    out = []
    for y0 in _field_roots(coeffs, spec):
        if depth < k:
            out += y_roots_search(substitute_shift(terms, y0, spec), k, spec,
                                  depth + 1, prefix + (y0,))
        elif vanishes_at_constant(terms, y0, spec):
            out.append(prefix + (y0,))
    return out


def vanishes_at_constant(terms, y0: int, spec: FieldSpec) -> bool:
    """Is Q(X, y0) the zero polynomial?"""
    acc: dict[int, int] = {}
    for (i, j), c in terms.items():
        val = spec.mul(c, spec.pow(y0, j)) if j else c
        if val:
            acc[i] = spec.add(acc.get(i, 0), val)
    return not any(acc.values())


def substitute_shift(terms, y0: int, spec: FieldSpec) -> dict:
    """Q(X, y0 + X*Y) on the sparse term map."""
    p = spec.p
    out: dict[tuple[int, int], int] = {}
    for (i, j), c in terms.items():
        # (y0 + X Y)^j = sum_l C(j,l) y0^(j-l) X^l Y^l
        for l in range(j + 1):
            b = comb(j, l) % p
            if not b:
                continue
            val = spec.mul(c, b)
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


def merger_counts_per_seed(ms, src) -> np.ndarray:
    """The merger output counts of ``merger.output_counts``, one seed at a
    time: each seed mixes all q^n block tuples at once on code arrays, where
    c*x is a lookup in the row c*(0..q-1), and counts them under their
    base-q number with one bincount."""
    spec, n, q = ms.spec, ms.n, ms.spec.q
    vec, size = spec.vec, q ** n
    pts = np.indices((q,) * n, dtype=np.int64).reshape(n, size).T
    blocks = src.realize_all(pts)
    codes = np.arange(q, dtype=np.int64)
    place = q ** np.arange(n - 1, -1, -1, dtype=np.int64)
    counts = np.zeros(size, dtype=np.int64)
    for mix in ms.mix_table().T.tolist():
        out = reduce(vec.add, [vec.mul(c, codes)[blk] for c, blk in zip(mix, blocks)])
        counts += np.bincount(out @ place, minlength=size)
    return counts


# -- univariate polynomials on coefficient lists (low-to-high codes) -----------


def uni_eval(coeffs, x: int, spec: FieldSpec) -> int:
    """Horner evaluation of a coefficient list at a code x."""
    acc = 0
    for c in reversed(list(coeffs)):
        acc = spec.add(spec.mul(acc, x), c)
    return acc


def uni_trim(coeffs: list[int]) -> list[int]:
    """Drop trailing zero coefficients in place; the zero polynomial is []."""
    while coeffs and coeffs[-1] == 0:
        coeffs.pop()
    return coeffs


def uni_add(a, b, spec: FieldSpec) -> list[int]:
    out = [0] * max(len(a), len(b))
    for i, c in enumerate(a):
        out[i] = c
    for i, c in enumerate(b):
        out[i] = spec.add(out[i], c)
    return uni_trim(out)


def uni_mul(a, b, spec: FieldSpec) -> list[int]:
    if not a or not b:
        return []
    out = [0] * (len(a) + len(b) - 1)
    for i, ai in enumerate(a):
        if ai:
            for j, bj in enumerate(b):
                if bj:
                    out[i + j] = spec.add(out[i + j], spec.mul(ai, bj))
    return uni_trim(out)


def lagrange_basis(spec, gamma) -> tuple[tuple[int, ...], ...]:
    """The Lagrange basis on the nodes ``gamma``, low-to-high coefficients:
    prod over j != i of (X - g_j) / (g_i - g_j), one scalar product of
    polynomials per factor."""
    basis = []
    for i, gi in enumerate(gamma):
        num, denom = [1], 1
        for j, gj in enumerate(gamma):
            if j != i:
                num = uni_mul(num, [spec.neg(gj), 1], spec)
                denom = spec.mul(denom, spec.sub(gi, gj))
        inv = spec.inv(denom)
        basis.append(tuple(spec.mul(c, inv) for c in num))
    return tuple(basis)


# -- the merger one point and one seed at a time ---------------------------------


def apply(bm, spec, point: tuple) -> tuple:
    """The image of one point under a block map, one ``spec.mul`` at a time."""
    if isinstance(bm, mg.AffineMap):
        out = []
        for row, off in zip(bm.matrix, bm.offset):
            acc = off
            for a, x in zip(row, point):
                acc = spec.add(acc, spec.mul(a, x))
            out.append(acc)
        return tuple(out)
    if isinstance(bm, mg.TableMap):
        return bm.table[point]
    raise TypeError(f"no scalar form for {bm!r}")


def realize(src, v: tuple) -> list:
    """Every block of the source when its uniform block is v."""
    return [v if j == src.uniform_index else apply(src.block_maps[j], src.spec, v)
            for j in range(src.num_blocks)]


def mix_coeffs(ms, u: int) -> tuple:
    """(c_1(u), ..., c_L(u)) for a seed element u."""
    return tuple(uni_eval(c, u, ms.spec) for c in ms.basis)


def f_dw(ms, blocks, u: int) -> tuple:
    """The merger output sum_i c_i(u) * x_i, a coordinate at a time."""
    spec, mix = ms.spec, mix_coeffs(ms, u)
    out = []
    for coord in range(ms.n):
        acc = 0
        for ci, pt in zip(mix, blocks):
            acc = spec.add(acc, spec.mul(ci, pt[coord]))
        out.append(acc)
    return tuple(out)
