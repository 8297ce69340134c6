"""Executable invariant suite.

Every algebraic law, counting fact, and theorem-shaped guarantee the
library promises is encoded here as a named check.  Checks draw their
randomness from independent Philox streams derived from (seed, check
index), so a report is a pure function of (seed, trials).

The CLI ``selftest`` subcommand prints the resulting pass/fail table; the
pytest suite calls the same functions with pinned parameters.
"""

from __future__ import annotations

import itertools
from fractions import Fraction

import numpy as np

from . import kakeya as kk
from . import merger as mg
from . import rs_decode as rs
from .errors import FFMultError, UnsatisfiedCountHypothesis
from .ff import field_make, parse_prime_power, rng_stream, verify_modulus_irreducible
from .interpolate import (
    InterpolationProblem,
    TotalDegreeBasis,
    count_total_degree_monomials,
    count_weighted_monomials,
    matrix_rank,
    nullspace_vector,
    vanishing_interpolation,
)
from .mvpoly import (
    Curve,
    INF_MULT,
    MultiPoly,
    compose_curve,
    hasse_derivative,
    homogeneous_part,
    multiplicity,
    multiplicity_mass,
    multiplicity_tuple,
    restrict_to_line,
    vector_binomial,
    weak_compositions,
)

LAW_FIELDS = (2, 3, 5)
LAW_MAX_N = 3
LAW_MAX_DEG = 8


def _check(ok, message: str = "", *args) -> None:
    """Raise AssertionError(message, %-formatted with ``args`` if any) unless
    ``ok``: a check's verdict, which unlike ``assert`` still holds under
    ``python -O``.  With ``args`` the message is formatted only on failure."""
    if not ok:
        raise AssertionError(message % args if args else message)


# -- randomized object generators ----------------------------------------------


def random_exponent(rng, n: int, max_wt: int) -> tuple[int, ...]:
    w = int(rng.integers(max_wt + 1))
    out = []
    rest = w
    for _ in range(n - 1):
        c = int(rng.integers(rest + 1))
        out.append(c)
        rest -= c
    out.append(rest)
    return tuple(out)


def random_poly(spec, n: int, rng, max_deg: int = LAW_MAX_DEG, max_terms: int = 6,
                nonzero: bool = False) -> MultiPoly:
    deg = int(rng.integers(max_deg + 1))
    terms = {}
    for _ in range(1 + int(rng.integers(max_terms))):
        exps = random_exponent(rng, n, deg)
        terms[exps] = int(rng.integers(spec.q))
    poly = MultiPoly(spec, n, terms)
    if nonzero and poly.is_zero:
        exps = random_exponent(rng, n, deg)
        coeff = 1 + int(rng.integers(spec.q - 1))
        poly = MultiPoly(spec, n, {exps: coeff})
    return poly


def random_point(spec, n: int, rng) -> tuple[int, ...]:
    return tuple(int(c) for c in rng.integers(spec.q, size=n))


def random_curve(spec, n: int, rng, max_deg: int = 3) -> Curve:
    deg = 1 + int(rng.integers(max_deg))
    coeff_lists = [
        [int(rng.integers(spec.q)) for _ in range(deg + 1)] for _ in range(n)
    ]
    return Curve.from_coeff_lists(spec, coeff_lists)


def _law_instances(rng, trials: int):
    for _ in range(trials):
        q = LAW_FIELDS[int(rng.integers(len(LAW_FIELDS)))]
        n = 1 + int(rng.integers(LAW_MAX_N))
        yield field_make(q), n


# -- reference oracles (independent computation paths) ---------------------------


def statistical_distance_subset_max(p: mg.Distribution, r: mg.Distribution) -> Fraction:
    """max over events of the probability gap, by exhausting all subsets."""
    keys = sorted(set(p.probs) | set(r.probs))
    best = Fraction(0)
    for size in range(len(keys) + 1):
        for subset in itertools.combinations(keys, size):
            gap = abs(
                sum((p.mass(o) for o in subset), Fraction(0))
                - sum((r.mass(o) for o in subset), Fraction(0))
            )
            best = max(best, gap)
    return best


def excess_mass_grid_minimum(p: mg.Distribution, cap: Fraction) -> Fraction:
    """Brute-force the min statistical distance to the cap-feasible set over
    the exact rational grid of all distributions with denominator lcm."""
    import math

    outcomes = list(range(p.universe_size))
    L = math.lcm(cap.denominator, *(p.mass(o).denominator for o in outcomes))
    cap_units = cap * L
    _check(cap_units.denominator == 1)
    cap_units = int(cap_units)
    best = None
    for split in weak_compositions(L, len(outcomes)):
        if any(u > cap_units for u in split):
            continue
        dist = sum(abs(p.mass(o) - Fraction(u, L)) for o, u in zip(outcomes, split))
        dist = Fraction(dist, 2)
        if best is None or dist < best:
            best = dist
    _check(best is not None, "cap infeasible on this universe")
    return best


def clip_redistribute(p: mg.Distribution, cap: Fraction) -> mg.Distribution:
    """An explicit cap-feasible distribution at exactly excess-mass distance."""
    outcomes = list(range(p.universe_size))
    masses = {o: min(p.mass(o), cap) for o in outcomes}
    deficit = 1 - sum(masses.values())
    for o in outcomes:
        if deficit == 0:
            break
        room = cap - masses[o]
        take = min(room, deficit)
        masses[o] += take
        deficit -= take
    _check(deficit == 0)
    return mg.Distribution({o: m for o, m in masses.items() if m}, p.universe_size)


# -- individual checks -------------------------------------------------------------


def check_field_axioms(rng, trials: int) -> str:
    # every law on all q^3 triples at once: x, y, z broadcast to (q, q, q)
    fields = [(2, 1), (3, 1), (5, 1), (7, 1), (2, 2), (2, 3), (3, 2), (2, 6)]
    for p, e in fields:
        spec = field_make(p, e)
        vec, where = spec.vec, (p, e)
        codes = np.arange(spec.q)
        nonzero = codes[1:]
        inverses = np.array([spec.inv(a) for a in range(1, spec.q)])
        _check((vec.add(codes, 0) == codes).all() and (vec.mul(codes, 1) == codes).all(),
               "identities fail in (%d,%d)", *where)
        _check(not vec.add(codes, vec.neg(codes)).any(), "additive inverse fails in (%d,%d)", *where)
        _check((vec.mul(nonzero, inverses) == 1).all(),
               "multiplicative inverse fails in (%d,%d)", *where)
        x, y, z = np.ix_(codes, codes, codes)
        xy = vec.mul(x, y)
        _check((vec.add(x, y) == vec.add(y, x)).all(), "add commutativity fails in (%d,%d)", *where)
        _check((xy == vec.mul(y, x)).all(), "mul commutativity fails in (%d,%d)", *where)
        _check((vec.add(vec.add(x, y), z) == vec.add(x, vec.add(y, z))).all(),
               "add associativity fails in (%d,%d)", *where)
        _check((vec.mul(xy, z) == vec.mul(x, vec.mul(y, z))).all(),
               "mul associativity fails in (%d,%d)", *where)
        _check((vec.mul(x, vec.add(y, z)) == vec.add(xy, vec.mul(x, z))).all(),
               "distributivity fails in (%d,%d)", *where)
    return f"exhaustive over {fields}"


def check_field_fermat(rng, trials: int) -> str:
    fields = [(2, 1), (3, 1), (5, 1), (7, 1), (2, 2), (3, 2), (2, 3), (2, 6)]
    for p, e in fields:
        spec = field_make(p, e)
        for a in range(1, spec.q):
            _check(spec.pow(a, spec.q - 1) == 1, f"a^(q-1) != 1 in ({p},{e})")
    return f"nonzero elements of {fields}"


def check_field_enumeration(rng, trials: int) -> str:
    for p, e in [(2, 1), (3, 1), (2, 2), (2, 6), (5, 1)]:
        spec = field_make(p, e)
        elems = spec.elements()
        _check(len(elems) == spec.q and len({x.code for x in elems}) == spec.q)
        _check(elems[0].code == 0 and elems[1].code == 1)
        _check([x.code for x in elems] == list(range(spec.q)))
    f4 = field_make(2, 2)
    # residue of X is code 2; X^2 = X + 1 modulo the canonical X^2+X+1
    _check(f4.mul(2, 2) == 3)
    f5 = field_make(5)
    _check(f5.inv(2) == 3)
    return "order, duplicates, and canonical-modulus spot values"


def check_field_sampling(rng, trials: int) -> str:
    spec = field_make(2)
    draws = rng.integers(spec.q, size=10 ** 4)
    freq = float(draws.mean())
    _check(abs(freq - 0.5) <= 0.02, f"F_2 frequency {freq} outside 0.5 +- 0.02")
    f64 = field_make(2, 6)
    a = rng_stream(12345, 7)
    b = rng_stream(12345, 7)
    seq_a = [int(a.integers(f64.q)) for _ in range(100)]
    seq_b = [int(b.integers(f64.q)) for _ in range(100)]
    _check(seq_a == seq_b, "identical seeds must reproduce the draw sequence")
    return f"F_2 frequency {freq:.4f}; 100-draw determinism in F_64"


def check_modulus_table(rng, trials: int) -> str:
    checked = 0
    for p, e in [(2, 2), (2, 3), (2, 4), (2, 6), (3, 2), (3, 3), (5, 2), (7, 2), (2, 10), (11, 2)]:
        spec = field_make(p, e)
        _check(len(spec.modulus) == e + 1 and spec.modulus[-1] == 1)
        _check(verify_modulus_irreducible(spec), f"reducible modulus shipped for ({p},{e})")
        checked += 1
    return f"exhaustive factor check on {checked} entries"


def check_hasse_additivity(rng, trials: int) -> str:
    for spec, n in _law_instances(rng, trials):
        P = random_poly(spec, n, rng)
        Q = random_poly(spec, n, rng)
        i = random_exponent(rng, n, 4)
        lhs = hasse_derivative(P, i) + hasse_derivative(Q, i)
        rhs = hasse_derivative(P + Q, i)
        _check(lhs == rhs, f"additivity fails: {P.to_text()}, {Q.to_text()}, order {i}")
    return f"{trials} random (P, Q, i)"


def check_hasse_homogeneity(rng, trials: int) -> str:
    for spec, n in _law_instances(rng, trials):
        d = int(rng.integers(LAW_MAX_DEG + 1))
        terms = {}
        for _ in range(1 + int(rng.integers(4))):
            exps = list(random_exponent(rng, n, d))
            exps[-1] += d - sum(exps)  # pad to weight exactly d
            terms[tuple(exps)] = int(rng.integers(spec.q))
        P = MultiPoly(spec, n, terms)
        if P.is_zero:
            continue
        i = random_exponent(rng, n, d)
        D = hasse_derivative(P, i)
        if not D.is_zero:
            _check((D.exps.sum(axis=1) == d - sum(i)).all(),
                   "derivative of a homogeneous polynomial is not homogeneous")
    return f"{trials} random homogeneous instances"


def check_hasse_homogeneous_part(rng, trials: int) -> str:
    drop_cases = 0
    for spec, n in _law_instances(rng, trials):
        P = random_poly(spec, n, rng, nonzero=True)
        i = random_exponent(rng, n, 4)
        D = hasse_derivative(P, i)
        lhs = hasse_derivative(homogeneous_part(P), i)
        if not D.is_zero and D.degree == P.degree - sum(i):
            _check(lhs == homogeneous_part(D), "H_P derivative misses H_{P^(i)}")
        else:
            drop_cases += 1
            _check(lhs.is_zero, "degree dropped but (H_P)^(i) is nonzero")
    return f"{trials} instances, {drop_cases} in the degree-drop branch"


def check_hasse_iterated(rng, trials: int) -> str:
    for spec, n in _law_instances(rng, trials):
        P = random_poly(spec, n, rng)
        i = random_exponent(rng, n, 3)
        j = random_exponent(rng, n, 3)
        ij = tuple(a + b for a, b in zip(i, j))
        lhs = hasse_derivative(hasse_derivative(P, i), j)
        rhs = hasse_derivative(P, ij).scale(vector_binomial(ij, i, spec))
        _check(lhs == rhs, f"iterated-derivative law fails on {P.to_text()}")
    return f"{trials} random (P, i, j)"


def check_mult_under_derivative(rng, trials: int) -> str:
    for spec, n in _law_instances(rng, trials):
        P = random_poly(spec, n, rng, nonzero=True)
        a = random_point(spec, n, rng)
        i = random_exponent(rng, n, 3)
        m = multiplicity(P, a)
        got = multiplicity(hasse_derivative(P, i), a)
        _check(got >= m - sum(i), f"mult({P.to_text()}^{i}) = {got} < {m} - {sum(i)}")
    return f"{trials} random (P, a, i)"


def check_mult_composition(rng, trials: int) -> str:
    for spec, n in _law_instances(rng, trials):
        P = random_poly(spec, n, rng, max_deg=5, nonzero=True)
        C = random_curve(spec, n, rng, max_deg=3)
        a = int(rng.integers(spec.q))
        composed = compose_curve(P, C)
        m1 = multiplicity(P, C.eval(a))
        if m1 == 0:
            continue
        shifted = C.shifted_by_value_at(a)
        m2 = multiplicity_tuple(shifted, (a,))
        lhs = multiplicity(composed, (a,))
        if m2 == INF_MULT:
            _check(lhs == INF_MULT, "constant curve but P(C) not identically zero")
        else:
            _check(lhs >= m1 * m2, f"composition law fails: {lhs} < {m1}*{m2}")
    return f"{trials} random (P, C, a)"


def check_line_restriction(rng, trials: int) -> str:
    for spec, n in _law_instances(rng, trials):
        P = random_poly(spec, n, rng, nonzero=True)
        a = random_point(spec, n, rng)
        b = random_point(spec, n, rng)
        t = int(rng.integers(spec.q))
        restricted = restrict_to_line(P, a, b)
        pt = tuple(spec.add(aj, spec.mul(t, bj)) for aj, bj in zip(a, b))
        lower = multiplicity(P, pt)
        got = multiplicity(restricted, (t,)) if not restricted.is_zero else INF_MULT
        _check(got >= lower, f"line restriction fails at t={t}: {got} < {lower}")
    return f"{trials} random (P, a, b, t)"


def check_schwartz_zippel_mass(rng, trials: int) -> str:
    high_degree = 0
    for spec, n in _law_instances(rng, trials):
        P = random_poly(spec, n, rng, nonzero=True)
        d = P.degree
        if d > spec.q:
            high_degree += 1
        mass = multiplicity_mass(P, range(spec.q))
        _check(mass <= d * spec.q ** (n - 1),
               f"mass {mass} exceeds {d}*q^(n-1) for {P.to_text()} over F_{spec.q}")
    # the tight instance: X1*X2 over F_3 meets the bound exactly
    f3 = field_make(3)
    P = MultiPoly(f3, 2, {(1, 1): 1})
    mass = multiplicity_mass(P, range(3))
    _check(mass == 6 and mass == P.degree * 3, f"tight instance gives {mass}, want 6")
    # degree above q on every run, whatever the corpus drew: X1^3*X2 over
    # F_2 has degree 4 > 2 and meets the bound 4*2 exactly
    f2 = field_make(2)
    P = MultiPoly(f2, 2, {(3, 1): 1})
    mass = multiplicity_mass(P, range(2))
    _check(mass == 8 and mass == P.degree * 2, f"deg > q instance gives {mass}, want 8")
    return f"{trials} instances, {high_degree} with deg > q; tight case mass = 6"


def check_sz_zero_accounting(rng, trials: int) -> str:
    for _ in range(max(1, trials // 20)):
        q = LAW_FIELDS[int(rng.integers(len(LAW_FIELDS)))]
        spec = field_make(q)
        exps = [1 + int(rng.integers(3)) for _ in range(q)]
        P = MultiPoly.constant(spec, 2, 1)
        for c, e in enumerate(exps):
            P = P * MultiPoly(spec, 2, {(1, 0): 1, (0, 0): spec.neg(c)}).power(e)
        d = P.degree
        _check(d == sum(exps))
        mass = multiplicity_mass(P, range(q))
        _check(mass == q * d, f"product-of-lines mass {mass} != d*q = {q * d}")
        for c in range(q):
            y = int(rng.integers(q))
            _check(multiplicity(P, (c, y)) == exps[c])
    return "mass saturates d*q^(n-1) on full products of (X1 - c)^e"


def check_interpolation_existence(rng, trials: int) -> str:
    runs = 100
    for _ in range(runs):
        q = LAW_FIELDS[int(rng.integers(len(LAW_FIELDS)))]
        n = 1 + int(rng.integers(2))
        m = 1 + int(rng.integers(3))
        spec = field_make(q)
        n_points = 1 + int(rng.integers(min(3, spec.q ** n)))
        points = set()
        while len(points) < n_points:
            points.add(random_point(spec, n, rng))
        constraints = count_total_degree_monomials(n, m - 1) * n_points
        d = 0
        while count_total_degree_monomials(n, d) <= constraints:
            d += 1
        problem = InterpolationProblem(spec, n, tuple(sorted(points)), m, TotalDegreeBasis(n, d))
        poly = vanishing_interpolation(problem)
        _check(not poly.is_zero, "interpolation returned the zero polynomial")
        for a in problem.points:
            got = multiplicity(poly, a)
            _check(got >= m, f"multiplicity {got} < {m} at {a} (q={q}, n={n}, d={d})")
    return f"{runs} randomized problems, multiplicity re-verified independently"


def check_monomial_count_fact(rng, trials: int) -> str:
    tested = 0
    for d in range(2, 31):
        for k in range(1, d):
            for tenth in range(1, 11):
                theta = Fraction(tenth, 10)
                count = count_weighted_monomials(k, d, theta)
                _check(count > theta * (2 - theta) * d * d / (2 * k),
                       f"count fact fails at k={k}, d={d}, theta={theta}")
                tested += 1
    return f"exhaustive over {tested} (k, d, theta) triples"


def check_nullspace(rng, trials: int) -> str:
    runs = max(10, trials // 10)
    for _ in range(runs):
        q = (2, 3, 4, 5)[int(rng.integers(4))]
        spec = parse_prime_power(q)
        nrows = 1 + int(rng.integers(7))
        ncols = 1 + int(rng.integers(7))
        rows = [[int(rng.integers(spec.q)) for _ in range(ncols)] for _ in range(nrows)]
        v = nullspace_vector(rows, ncols, spec)
        rank = matrix_rank(rows, ncols, spec)
        cols = [[rows[r][c] for r in range(nrows)] for c in range(ncols)]
        _check(rank == matrix_rank(cols, nrows, spec), "rank differs from transpose rank")
        if v is None:
            _check(rank == ncols, "trivial kernel reported but rank < columns")
        else:
            _check(any(v), "kernel vector is zero")
            _check(rank < ncols)
            for row in rows:
                acc = 0
                for a, x in zip(row, v):
                    acc = spec.add(acc, spec.mul(a, x))
                _check(acc == 0, "A v != 0 for the returned kernel vector")
    return f"{runs} random systems over q in (2,3,4,5)"


def check_kakeya_min_q2n2(rng, trials: int) -> str:
    return _kakeya_min_case(2, 2, expected_floor=2)


def check_kakeya_min_q3n2(rng, trials: int) -> str:
    return _kakeya_min_case(3, 2, expected_floor=4)


def _kakeya_min_case(q: int, n: int, expected_floor: int) -> str:
    crude, main = kk.kakeya_lower_bounds(q, n)
    pts, size = kk.exhaustive_min_kakeya(q, n)
    _check(size >= expected_floor, f"minimum {size} below ceil(main bound) {expected_floor}")
    _check(size >= crude and size >= main)
    spec = parse_prime_power(q)
    _check(kk.is_kakeya(spec, n, pts).ok, "search returned a non-Kakeya set")
    for p in sorted(pts):
        _check(not kk.is_kakeya(spec, n, pts - {p}).ok,
               f"set stays Kakeya after removing {p}: not minimal")
    return f"minimum size {size} >= bounds ({crude}, {main}); minimality certified"


def check_kakeya_fullspace(rng, trials: int) -> str:
    cases = [(2, 2), (3, 2), (5, 2), (7, 2), (13, 2), (2, 3), (3, 3), (4, 5),
             (8, 4), (9, 3), (16, 3), (25, 2), (27, 2), (32, 2), (64, 1), (2, 12)]
    for q, n in cases:
        spec = parse_prime_power(q)
        full = kk.all_points(spec, n)
        res = kk.is_kakeya(spec, n, full)
        _check(res.ok, f"full space not recognized as Kakeya for q={q}, n={n}")
    return f"{len(cases)} full spaces up to q^n = 4096"


def check_kakeya_homogeneous_vanishing(rng, trials: int) -> str:
    # genuine Kakeya sets always sit above the count threshold: the checker
    # must report the unsatisfied hypothesis rather than fabricate a run
    spec2 = field_make(2)
    pts, _ = kk.exhaustive_min_kakeya(2, 2)
    inst = kk.KakeyaInstance(spec2, 2, pts)
    try:
        kk.homogeneous_vanishing_check(inst, ell=2, m=3, d=3)
        raise AssertionError("count hypothesis unexpectedly satisfiable on a Kakeya set")
    except UnsatisfiedCountHypothesis:
        pass
    # a single point is feasible; the pipeline must deliver the multiplicity map
    one = kk.KakeyaInstance(spec2, 2, frozenset({(0, 0)}))
    report = kk.homogeneous_vanishing_check(one, ell=2, m=3, d=3)
    _check(not report["poly"].is_zero and not report["homogeneous_part"].is_zero)
    _check(report["multiplicities"][(0, 0)] >= 3)
    _check(set(report["multiplicities"]) == set(kk.all_points(spec2, 2)))
    return "hypothesis gate and single-point pipeline behave as specified"


def check_stat_kakeya_reduction(rng, trials: int) -> str:
    for q in (2, 3, 4, 5, 7):
        spec = parse_prime_power(q)
        for n in (1, 2):
            inst = kk.full_space_reduction_instance(spec, n)
            report = kk.statistical_kakeya_check(inst)
            _, main = kk.kakeya_lower_bounds(q, n)
            _check(report["bound"] == main,
                   f"reduction bound {report['bound']} != Kakeya bound {main} at q={q}, n={n}")
            _check(report["ok"] and report["hypothesis_ok"])
    return "lam = eta = 1, degree-1 reduction matches (q^2/(2q-1))^n exactly"


def check_merger_nodes(rng, trials: int) -> str:
    runs = max(20, trials // 10)
    for _ in range(runs):
        q = (5, 8)[int(rng.integers(2))]
        spec = parse_prime_power(q)
        L = 1 + int(rng.integers(min(4, spec.q)))
        n = 1 + int(rng.integers(3))
        ms = mg.merger_make(spec, n, L)
        blocks = [random_point(spec, n, rng) for _ in range(L)]
        for i, g in enumerate(ms.gamma):
            _check(mg.f_dw(ms, blocks, g) == blocks[i], "node interpolation fails")
        v = random_point(spec, n, rng)
        u = int(rng.integers(spec.q))
        _check(mg.f_dw(ms, [v] * L, u) == v, "partition of unity fails on equal blocks")
    return f"{runs} random node/unity instances over F_5 and F_8"


def check_merger_affine_invariance(rng, trials: int) -> str:
    runs = max(20, trials // 10)
    for _ in range(runs):
        spec = field_make(5)
        n = 1 + int(rng.integers(2))
        L = 2 + int(rng.integers(2))
        ms = mg.merger_make(spec, n, L)
        # random invertible linear map piece by rejection, then a translation
        while True:
            A = [[int(rng.integers(spec.q)) for _ in range(n)] for _ in range(n)]
            if matrix_rank(A, n, spec) == n:
                break
        t = random_point(spec, n, rng)
        lin = mg.AffineMap(A, (0,) * n)
        aff = mg.AffineMap(A, t)
        blocks = [random_point(spec, n, rng) for _ in range(L)]
        u = int(rng.integers(spec.q))
        # the map of the merger output is the last row of each stacked image
        stacked = np.array(blocks + [mg.f_dw(ms, blocks, u)], dtype=np.int64)
        *lin_blocks, lin_out = lin.apply_all(spec, stacked).tolist()
        _check(mg.f_dw(ms, lin_blocks, u) == tuple(lin_out), "linear equivariance fails")
        *aff_blocks, aff_out = aff.apply_all(spec, stacked).tolist()
        _check(mg.f_dw(ms, aff_blocks, u) == tuple(aff_out), "affine equivariance fails")
    return f"{runs} random invertible maps over F_5"


def check_merger_distributions(rng, trials: int) -> str:
    f4 = field_make(2, 2)
    # one block: the merger is the identity on a uniform block
    ms1 = mg.merger_make(f4, 1, 1)
    src1 = mg.SourceSpec(f4, 1, 1, 0, {}, label="single")
    d1 = mg.exact_output_distribution(ms1, src1)
    _check(d1 == mg.Distribution.uniform([(c,) for c in range(4)]))
    # fully correlated blocks: the curve is constant, output uniform
    ms2 = mg.merger_make(f4, 1, 2)
    ident = mg.SourceSpec(f4, 1, 2, 0, {1: mg.AffineMap([[1]], [0])}, label="identical")
    d2 = mg.exact_output_distribution(ms2, ident)
    _check(d2 == mg.Distribution.uniform([(c,) for c in range(4)]))
    # q=4, L=2, second block pinned to zero: 16-pair hand table
    const0 = mg.SourceSpec(f4, 1, 2, 0, {1: mg.AffineMap([[0]], [0])}, label="const0")
    d3 = mg.exact_output_distribution(ms2, const0)
    expected = {(0,): Fraction(7, 16), (1,): Fraction(3, 16),
                (2,): Fraction(3, 16), (3,): Fraction(3, 16)}
    _check(d3 == mg.Distribution(expected, 4), f"got {d3.probs}")
    return "degenerate, correlated, and 16-case hand-checked distributions"


def check_distance_metric(rng, trials: int) -> str:
    runs = max(10, trials // 25)
    for _ in range(runs):
        size = 2 + int(rng.integers(5))
        dists = [_random_distribution(rng, size) for _ in range(3)]
        p, r, s = dists
        _check(mg.statistical_distance(p, p) == 0)
        d_pr = mg.statistical_distance(p, r)
        _check(d_pr == mg.statistical_distance(r, p))
        _check(0 <= d_pr <= 1)
        _check(d_pr <= mg.statistical_distance(p, s) + mg.statistical_distance(s, r),
               "triangle inequality fails")
        _check(d_pr == statistical_distance_subset_max(p, r),
               "half-L1 differs from the subset maximum")
    return f"{runs} random triples; subset-max equivalence exhaustive"


def _random_distribution(rng, size: int, denom: int = 24) -> mg.Distribution:
    cuts = sorted(int(rng.integers(denom + 1)) for _ in range(size - 1))
    masses = []
    prev = 0
    for c in cuts + [denom]:
        masses.append(c - prev)
        prev = c
    return mg.Distribution(
        {i: Fraction(m, denom) for i, m in enumerate(masses) if m}, size
    )


def check_excess_mass(rng, trials: int) -> str:
    runs = max(10, trials // 50)
    for _ in range(runs):
        size = 2 + int(rng.integers(3))
        p = _random_distribution(rng, size, denom=12)
        cap_choices = [Fraction(1, 2), Fraction(1, 3), Fraction(2, 3), Fraction(3, 4), Fraction(1)]
        cap = cap_choices[int(rng.integers(len(cap_choices)))]
        if p.universe_size * cap < 1:
            continue
        val = mg.distance_to_min_entropy(p, threshold=cap)
        grid = excess_mass_grid_minimum(p, cap)
        _check(val == grid, f"excess mass {val} != grid minimum {grid}")
        witness = clip_redistribute(p, cap)
        _check(witness.max_prob() <= cap)
        _check(mg.statistical_distance(p, witness) == val, "witness misses the distance")
    # fixed cases from the design notes
    point = mg.Distribution.point_mass("a", universe_size=2)
    _check(mg.distance_to_min_entropy(point, 1) == Fraction(1, 2))
    tri = mg.Distribution({0: Fraction(1, 2), 1: Fraction(1, 4), 2: Fraction(1, 4)}, 3)
    _check(mg.distance_to_min_entropy(tri, threshold=Fraction(1, 3)) == Fraction(1, 6))
    uni = mg.Distribution.uniform(range(8))
    _check(mg.distance_to_min_entropy(uni, 3) == 0)
    _check(mg.min_entropy(uni).at_least(3) and not mg.min_entropy(uni).at_least(4))
    return "grid-oracle equality plus frozen worked cases"


def check_merger_theorem(rng, trials: int) -> str:
    details = []
    for n in (1, 2):
        report = mg.verify_merger_theorem(Fraction(1, 2), Fraction(1, 2), 2, n)
        _check(report["seed_length"] == 6 and report["q"] == 64)
        _check(report["entropy_threshold_bits"] == 3 * n)
        _check(report["all_ok"], f"flagship merger check fails at n={n}")
        worst = max(e["distance"] for e in report["sources"])
        details.append(f"n={n}: worst distance {worst}")
    _check(mg.seed_length(Fraction(1, 2), Fraction(1, 2), 2) == 6)
    _check(mg.seed_length(1, Fraction(1, 2), 1) == 2)
    prev = None
    for denom in (1, 2, 3, 4, 6, 8):
        d = mg.seed_length(Fraction(1, denom), Fraction(1, 2), 2)
        if prev is not None:
            _check(d >= prev, "seed length must grow as delta shrinks")
        prev = d
    return "; ".join(details)


def check_rs_default_params(rng, trials: int) -> str:
    spec = field_make(5)
    inst = rs.RSInstance(spec, (0, 1, 2, 3, 4), (0, 1, 2, 0, 0), k=1, t=3)
    params = rs.choose_params(inst)  # default slack 1/4
    _check(inst.t * params.m > params.d)
    need = count_total_degree_monomials(2, params.m - 1) * inst.n
    have = count_weighted_monomials(inst.k, params.d, params.theta)
    _check(need < have, f"constraint count {need} not below monomial count {have}")
    return f"default slack gives m={params.m}, d={params.d}, ydeg_cap={params.ydeg_cap}"


RS_CONFIGS = (
    (5, 1, 3),
    (7, 1, 4),
    (7, 2, 5),
)


def check_rs_oracle(rng, trials: int) -> str:
    eps = Fraction(1, 16)
    words = max(20, trials // 5)
    bound_checks = 0
    for q, k, t in RS_CONFIGS:
        spec = field_make(q)
        alphas = tuple(range(q))
        params = None
        bound = rs.list_size_bound(Fraction(t, q), Fraction(k, q))
        for _ in range(words):
            betas = tuple(int(c) for c in rng.integers(q, size=q))
            inst = rs.RSInstance(spec, alphas, betas, k=k, t=t)
            if params is None:
                params = rs.choose_params(inst, eps)
            got = rs.list_decode(inst, params=params)
            want = rs.brute_force_decode(inst)
            _check(got == want, f"decode mismatch at q={q}, k={k}, beta={betas}")
            _check(len(want) <= bound, f"list size {len(want)} exceeds {bound}")
            bound_checks += 1
    # the worked example: two qualifying lines
    spec5 = field_make(5)
    inst = rs.RSInstance(spec5, (0, 1, 2, 3, 4), (0, 1, 2, 0, 0), k=1, t=3)
    out = rs.list_decode(inst, eps=eps)
    _check(out == [(0, 0), (0, 1)], f"worked example returned {out}")
    _check(rs.list_size_bound(Fraction(3, 5), Fraction(1, 5)) == Fraction(15, 2))
    return f"{words} words per config {RS_CONFIGS}; {bound_checks} list-size checks"


def check_y_roots(rng, trials: int) -> str:
    runs = max(10, trials // 25)
    for _ in range(runs):
        q = (3, 5)[int(rng.integers(2))]
        spec = field_make(q)
        k = int(rng.integers(3))
        planted = [tuple(int(rng.integers(q)) for _ in range(k + 1)) for _ in range(2)]
        Q = MultiPoly.constant(spec, 2, 1)
        for f in planted:  # times Y - f(X)
            Q = Q * MultiPoly(spec, 2, {(0, 1): 1, **{(i, 0): spec.neg(c) for i, c in enumerate(f)}})
        extra = random_poly(spec, 2, rng, max_deg=2)
        if not extra.is_zero and int(rng.integers(2)):
            Q = Q * extra  # extra factors may add roots but never remove planted ones
        roots = rs.y_roots(Q, k)  # q^(k+1) <= 125: cross-checked by enumeration
        for f in planted:
            _check(f in roots, f"planted root {f} missing from {roots}")
    # fixed cases
    spec3 = field_make(3)
    Q = MultiPoly(spec3, 2, {(0, 1): 1, (1, 0): spec3.neg(1)})  # Y - X
    _check(rs.y_roots(Q, 1) == [(0, 1)])
    Q2 = MultiPoly(spec3, 2, {(0, 2): 1, (0, 0): 1})  # Y^2 + 1 has no root mod 3
    _check(rs.y_roots(Q2, 0) == [])
    return f"{runs} planted-root instances plus fixed cases"


# -- registry and runner --------------------------------------------------------------

CHECKS = (
    ("field-axioms", check_field_axioms),
    ("field-fermat", check_field_fermat),
    ("field-enumeration", check_field_enumeration),
    ("field-sampling", check_field_sampling),
    ("modulus-table", check_modulus_table),
    ("hasse-additivity", check_hasse_additivity),
    ("hasse-homogeneity", check_hasse_homogeneity),
    ("hasse-homogeneous-part", check_hasse_homogeneous_part),
    ("hasse-iterated", check_hasse_iterated),
    ("mult-under-derivative", check_mult_under_derivative),
    ("mult-composition", check_mult_composition),
    ("line-restriction", check_line_restriction),
    ("schwartz-zippel-mass", check_schwartz_zippel_mass),
    ("sz-zero-accounting", check_sz_zero_accounting),
    ("interpolation-existence", check_interpolation_existence),
    ("monomial-count-fact", check_monomial_count_fact),
    ("nullspace-correctness", check_nullspace),
    ("kakeya-min-q2n2", check_kakeya_min_q2n2),
    ("kakeya-min-q3n2", check_kakeya_min_q3n2),
    ("kakeya-fullspace", check_kakeya_fullspace),
    ("kakeya-homogeneous-vanishing", check_kakeya_homogeneous_vanishing),
    ("stat-kakeya-reduction", check_stat_kakeya_reduction),
    ("merger-node-interpolation", check_merger_nodes),
    ("merger-affine-invariance", check_merger_affine_invariance),
    ("merger-distributions", check_merger_distributions),
    ("distance-metric", check_distance_metric),
    ("excess-mass", check_excess_mass),
    ("merger-theorem-flagship", check_merger_theorem),
    ("rs-default-params", check_rs_default_params),
    ("rs-oracle-equivalence", check_rs_oracle),
    ("y-roots", check_y_roots),
)


def run_selftest(seed: int, trials: int = 1000) -> dict:
    """Run every check with per-check Philox streams; report is a pure
    function of (seed, trials)."""
    results = []
    for index, (key, fn) in enumerate(CHECKS):
        rng = rng_stream(seed, index)
        try:
            detail = fn(rng, trials)
            results.append({"key": key, "ok": True, "detail": detail})
        except (AssertionError, FFMultError) as exc:
            results.append({"key": key, "ok": False, "detail": str(exc)})
    return {
        "seed": seed,
        "trials": trials,
        "checks": results,
        "all_ok": all(r["ok"] for r in results),
    }
