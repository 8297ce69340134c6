import functools
import itertools
import os
import subprocess
import sys
import textwrap
from fractions import Fraction
from math import comb
from pathlib import Path

import numpy as np
import pytest

import ffmult

from ffmult import errors
from ffmult import rs_decode as rs
from ffmult.ff import field_make, rng_stream
from ffmult.interpolate import WeightedDegreeBasis, count_weighted_monomials
from ffmult.mvpoly import MultiPoly, multiplicity
from ffmult.selftest import random_poly

from scalar_ref import uni_add, uni_eval, uni_mul, uni_trim

F3 = field_make(3)
F5 = field_make(5)
F7 = field_make(7)

WORKED = rs.RSInstance(F5, (0, 1, 2, 3, 4), (0, 1, 2, 0, 0), k=1, t=3)


# ---------------------------------------------------------------------------
# instances and bounds
# ---------------------------------------------------------------------------

def test_instance_validation():
    with pytest.raises(errors.InvalidParameters):
        rs.RSInstance(F5, (0, 0, 1), (1, 2, 3), k=1, t=2)  # repeated alpha
    with pytest.raises(errors.InvalidParameters):
        rs.RSInstance(F5, (0, 1, 2), (1, 2, 3), k=3, t=2)  # k >= n
    with pytest.raises(errors.InvalidParameters):
        rs.RSInstance(F5, (0, 1, 2), (1, 2, 3), k=0, t=2)  # k = 0 excluded
    with pytest.raises(errors.InvalidParameters):
        rs.RSInstance(F5, (0, 1, 2), (1, 2, 3), k=1, t=4)  # t > n impossible


def test_rate_and_gamma():
    assert WORKED.rate == Fraction(1, 5)
    assert WORKED.gamma == Fraction(3, 5)


def test_list_size_bound_values():
    assert rs.list_size_bound(Fraction(3, 5), Fraction(1, 5)) == Fraction(15, 2)
    # gamma = 1, rate -> 0: the bound approaches 2 from above
    tiny = Fraction(1, 10 ** 6)
    assert rs.list_size_bound(1, tiny) - 2 < Fraction(1, 10 ** 5)
    assert rs.list_size_bound(1, tiny) > 2
    # barely inside the Johnson region: large but finite and positive
    near = rs.list_size_bound(Fraction(1, 2), Fraction(1, 4) - Fraction(1, 10 ** 6))
    assert near > 1000


def test_list_size_bound_validation():
    with pytest.raises(errors.InvalidParameters):
        rs.list_size_bound(Fraction(1, 2), Fraction(1, 2))  # gamma^2 <= R
    with pytest.raises(errors.InvalidParameters):
        rs.list_size_bound(Fraction(3, 2), Fraction(1, 2))


# ---------------------------------------------------------------------------
# parameter selection
# ---------------------------------------------------------------------------

def test_choose_params_default_slack():
    params = rs.choose_params(WORKED)
    assert params.m >= 1
    assert WORKED.t * params.m > params.d
    assert comb(params.m + 1, 2) * WORKED.n < count_weighted_monomials(
        WORKED.k, params.d, params.theta
    )
    assert params.theta == Fraction(5, 7)


def test_choose_params_small_slack_shrinks_m():
    small = rs.choose_params(WORKED, Fraction(1, 16))
    big = rs.choose_params(WORKED)
    assert small.m <= big.m
    assert small.m == 2 and small.d == 5


def test_below_johnson_radius():
    inst = rs.RSInstance(F5, (0, 1, 2, 3), (0, 0, 0, 0), k=1, t=2)
    # gamma^2 = 1/4 = R exactly
    with pytest.raises(errors.BelowJohnsonRadius):
        rs.choose_params(inst)
    with pytest.raises(errors.BelowJohnsonRadius):
        rs.list_decode(inst)


def test_no_feasible_m_cap(monkeypatch):
    monkeypatch.setattr(rs, "M_SEARCH_CAP", 1)
    with pytest.raises(errors.NoFeasibleM):
        rs.choose_params(WORKED, Fraction(1, 16))  # needs m = 2


# ---------------------------------------------------------------------------
# interpolation stage
# ---------------------------------------------------------------------------

def test_gs_interpolate_single_point():
    inst = rs.RSInstance(F3, (0, 1), (0, 0), k=1, t=2)
    params = rs.GSParams(m=1, d=1, theta=Fraction(1, 2), ydeg_cap=1, eps=Fraction(1, 4))
    Q = rs.gs_interpolate(inst, params)
    assert not Q.is_zero
    assert Q.eval_codes((0, 0)) == 0


def test_gs_interpolate_multiplicity_postcondition():
    params = rs.choose_params(WORKED, Fraction(1, 16))
    Q = rs.gs_interpolate(WORKED, params)
    for a, b in zip(WORKED.alphas, WORKED.betas):
        assert multiplicity(Q, (a, b)) >= params.m
    # weighted degree stays within the bound
    assert all(i + WORKED.k * j <= params.d for (i, j) in Q.terms)
    assert all(j <= params.ydeg_cap for (_, j) in Q.terms)


# ---------------------------------------------------------------------------
# Y-root extraction
# ---------------------------------------------------------------------------

def test_y_roots_simple():
    Q = MultiPoly(F3, 2, {(0, 1): 1, (1, 0): F3.neg(1)})  # Y - X
    assert rs.y_roots(Q, 1) == [(0, 1)]


def test_y_roots_two_roots_canonical_order():
    # (Y - X)(Y - 1) over F_3: constant 1 sorts before X
    Y = MultiPoly(F3, 2, {(0, 1): 1})
    X = MultiPoly(F3, 2, {(1, 0): 1})
    one = MultiPoly.constant(F3, 2, 1)
    Q = (Y - X) * (Y - one)
    assert rs.y_roots(Q, 1) == [(1, 0), (0, 1)]


def test_y_roots_no_roots():
    Q = MultiPoly(F3, 2, {(0, 2): 1, (0, 0): 1})  # Y^2 + 1, -1 non-square mod 3
    assert rs.y_roots(Q, 0) == []


def test_y_roots_zero_polynomial_rejected():
    with pytest.raises(errors.ZeroPolynomial):
        rs.y_roots(MultiPoly.zero(F3, 2), 1)


def test_y_roots_with_x_power_factor():
    # X^2 * (Y - X): stripping the X factor must not lose the root
    Y = MultiPoly(F3, 2, {(0, 1): 1})
    X = MultiPoly(F3, 2, {(1, 0): 1})
    Q = X * X * (Y - X)
    assert (0, 1) in rs.y_roots(Q, 1)


def test_y_roots_matches_bruteforce_random(monkeypatch):
    # the recursive search alone, with no cross-check inside y_roots
    monkeypatch.setattr(rs, "CROSS_VALIDATE_CAP", 0)
    rng = rng_stream(911, 0)
    from ffmult.selftest import random_poly

    for _ in range(30):
        q = (3, 5)[int(rng.integers(2))]
        spec = field_make(q)
        k = int(rng.integers(3))
        Q = random_poly(spec, 2, rng, max_deg=4, max_terms=5, nonzero=True)
        got = rs.y_roots(Q, k)
        want = rs.y_roots_bruteforce(Q, k)
        assert got == want


# Scalar references: the per-candidate enumerations the vectorized oracles
# replaced, kept here verbatim in behaviour.

def _scalar_compose(Q, fcoeffs, spec):
    """Q(X, f(X)) as a univariate coefficient list, by Horner in Y."""
    by_j = {}
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
    acc = []
    for j in range(max(levels), -1, -1):
        acc = uni_mul(acc, f, spec)
        if j in levels:
            acc = uni_add(acc, levels[j], spec)
    return acc


def _scalar_y_roots(Q, k):
    spec = Q.spec
    out = [
        f
        for f in itertools.product(range(spec.q), repeat=k + 1)
        if not _scalar_compose(Q, list(f), spec)
    ]
    return sorted(out, key=lambda f: tuple(reversed(f)))


def _scalar_brute_force_decode(inst):
    spec = inst.spec
    out = []
    for f in itertools.product(range(spec.q), repeat=inst.k + 1):
        evals = [uni_eval(f, a, spec) for a in inst.alphas]
        if sum(1 for e, b in zip(evals, inst.betas) if e == b) >= inst.t:
            out.append(f)
    return sorted(out, key=lambda f: tuple(reversed(f)))


def _y_minus(spec, f):
    """Y - f(X) as a bivariate polynomial."""
    terms = {(i, 0): spec.neg(c) for i, c in enumerate(f) if c}
    terms[(0, 1)] = 1
    return MultiPoly(spec, 2, terms)


def _vanishing(spec, points):
    """The product of X - a over a in points: X^q - X for all of F_q."""
    V = MultiPoly.constant(spec, 2, 1)
    for a in points:
        V = V * MultiPoly(spec, 2, {(1, 0): 1, (0, 0): spec.neg(a)})
    return V


def _oracle_cases(spec, k, rng, vanishing):
    """(label, Q) pairs: random, planted roots, no Y term, a nonzero
    constant, and multiples of ``vanishing``, a V(X) that vanishes at the
    points an evaluation prefilter checks, so that Q(a, f(a)) = 0 there for
    every candidate f, root or not."""
    q = spec.q

    def rand_f():
        return tuple(int(c) for c in rng.integers(q, size=k + 1))

    # the first and the last candidate in enumeration order, and a random one
    first, last = (0,) * (k + 1), (q - 1,) * (k + 1)
    planted = _y_minus(spec, first) * _y_minus(spec, last) * _y_minus(spec, rand_f())
    yield "random", random_poly(spec, 2, rng, max_deg=4, max_terms=5, nonzero=True)
    yield "planted", planted * random_poly(spec, 2, rng, max_deg=2, nonzero=True)
    yield "no-y", MultiPoly(spec, 2, {(i, 0): 1 + int(rng.integers(q - 1))
                                      for i in range(1 + int(rng.integers(4)))})
    yield "constant", MultiPoly.constant(spec, 2, 1 + int(rng.integers(q - 1)))
    yield "vanishing", vanishing
    yield "vanishing-planted", vanishing * planted
    yield "vanishing-mixed", vanishing * _y_minus(spec, first) + _y_minus(spec, rand_f())


ORACLE_FIELDS = [(2, 1), (3, 1), (5, 1), (7, 1), (13, 1), (2, 2), (2, 3), (2, 4), (3, 2)]


@pytest.mark.parametrize("p,e", ORACLE_FIELDS)
def test_y_roots_bruteforce_matches_scalar_enumeration(p, e):
    spec = field_make(p, e)
    rng = rng_stream(977, spec.q)
    field_vanishing = _vanishing(spec, range(spec.q))
    k = 0
    while spec.q ** (k + 1) <= 4096:
        for label, Q in _oracle_cases(spec, k, rng, field_vanishing):
            assert rs.y_roots_bruteforce(Q, k) == _scalar_y_roots(Q, k), (label, k, Q.to_text())
        k += 1


def test_y_roots_bruteforce_chunks(monkeypatch):
    # k = 0 over GF(2^12) spans several chunks of the default size; GF(3^2)
    # at k = 2 with a tiny chunk runs one candidate per chunk.
    spec = field_make(2, 12)
    rng = rng_stream(977, 1)
    prefilter_vanishing = _vanishing(spec, range(rs.PREFILTER_POINTS))
    for label, Q in _oracle_cases(spec, 0, rng, prefilter_vanishing):
        assert rs.y_roots_bruteforce(Q, 0) == _scalar_y_roots(Q, 0), label
    monkeypatch.setattr(rs, "ORACLE_BLOCK_CELLS", 7)
    spec = field_make(3, 2)
    for label, Q in _oracle_cases(spec, 2, rng, _vanishing(spec, range(9))):
        assert rs.y_roots_bruteforce(Q, 2) == _scalar_y_roots(Q, 2), label


def test_y_roots_cross_check_raises_on_disagreement(monkeypatch):
    Q = MultiPoly(F3, 2, {(0, 1): 1, (1, 0): F3.neg(1)})  # Y - X
    monkeypatch.setattr(rs, "y_roots_bruteforce", lambda Q, k: [])
    with pytest.raises(errors.InternalDefect):
        rs.y_roots(Q, 1)  # q^(k+1) = 9: cross-checked


def test_internal_checks_survive_optimize_flag():
    # the same disagreements, in an interpreter that strips assert statements
    script = textwrap.dedent("""
        import sys
        import numpy as np
        from ffmult import errors, ff, interpolate, kakeya, mvpoly, rs_decode as rs
        from ffmult.ff import field_make
        from ffmult.mvpoly import MultiPoly

        assert sys.flags.optimize, "not running under -O"
        F3 = field_make(3)
        rs.y_roots_bruteforce = lambda Q, k: []
        try:
            rs.y_roots(MultiPoly(F3, 2, {(0, 1): 1, (1, 0): 2}), 1)
            sys.exit("y_roots cross-check did not raise")
        except errors.InternalDefect:
            pass
        ceil_sqrt = rs._ceil_sqrt
        rs._ceil_sqrt = lambda x: ceil_sqrt(x) + 1
        inst = rs.RSInstance(field_make(5), (0, 1, 2, 3, 4), (0, 1, 2, 0, 0), k=1, t=3)
        try:
            rs.choose_params(inst)
            sys.exit("choose_params rounding check did not raise")
        except errors.InternalDefect:
            pass
        P = MultiPoly(F3, 2, {(1, 0): 1})
        shell_nonzero = mvpoly._shell_nonzero  # no derivative is ever nonzero
        mvpoly._shell_nonzero = lambda vec, coef, shifts, powers, alive: alive < 0
        try:
            mvpoly.multiplicity(P, (0, 0))
            sys.exit("multiplicity degree check did not raise")
        except errors.InternalDefect:
            pass
        try:
            mvpoly.multiplicity_mass(P, range(3))
            sys.exit("multiplicity_mass termination check did not raise")
        except errors.InternalDefect:
            pass
        mvpoly._shell_nonzero = shell_nonzero
        kakeya._kakeya_masks = lambda masks, line_masks: masks[:0]  # no set is Kakeya
        try:
            kakeya.exhaustive_min_kakeya(2, 2)
            sys.exit("exhaustive_min_kakeya full-space check did not raise")
        except errors.InternalDefect:
            pass
        ff._prime_factors = lambda n: [1]
        try:
            ff.FieldSpec(2, 3, (1, 1, 0, 1))._ensure_tables()
            sys.exit("generator search did not raise")
        except errors.InternalDefect:
            pass
        mvpoly.multiplicities = lambda P, points: np.zeros(len(points), dtype=int)
        problem = interpolate.InterpolationProblem(
            F3, 2, ((0, 0),), 1, interpolate.TotalDegreeBasis(2, 1))
        try:
            interpolate.vanishing_interpolation(problem, verify=True)
            sys.exit("vanishing_interpolation verification did not raise")
        except errors.InternalNoSolution:
            pass
        print("ok")
    """)
    src = str(Path(ffmult.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    out = subprocess.run([sys.executable, "-O", "-c", script], env=env,
                         capture_output=True, text=True, timeout=120)
    assert out.returncode == 0 and out.stdout == "ok\n", out.stderr


# ---------------------------------------------------------------------------
# decoding
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("p,e", [(2, 1), (3, 1), (5, 1), (7, 1), (2, 3), (3, 2)])
def test_brute_force_decode_matches_scalar_enumeration(p, e, monkeypatch):
    spec = field_make(p, e)
    rng = rng_stream(983, spec.q)
    monkeypatch.setattr(rs, "ORACLE_BLOCK_CELLS", 1000)  # several chunks each
    for k in range(1, 4):
        if spec.q ** (k + 1) > 4096 or k >= spec.q:
            break
        for _ in range(4):
            n = int(rng.integers(k + 1, spec.q + 1))
            alphas = tuple(int(a) for a in rng.permutation(spec.q)[:n])
            betas = tuple(int(b) for b in rng.integers(spec.q, size=n))
            t = int(rng.integers(1, n + 1))
            inst = rs.RSInstance(spec, alphas, betas, k=k, t=t)
            assert rs.brute_force_decode(inst) == _scalar_brute_force_decode(inst)


@pytest.mark.parametrize("p,e", [(5, 1), (7, 1), (257, 1), (2, 3), (3, 2), (2, 17)])
def test_block_agreement_matches_scalar_count(p, e):
    spec = field_make(p, e)
    rng = rng_stream(985, spec.q)
    k, n = 2, min(spec.q, 12)
    alphas = tuple(int(a) for a in rng.permutation(spec.q)[:n])
    planted = tuple(int(c) for c in rng.integers(spec.q, size=k + 1))
    betas = [uni_eval(planted, a, spec) for a in alphas]
    betas[:2] = [int(b) for b in rng.integers(spec.q, size=2)]
    inst = rs.RSInstance(spec, alphas, tuple(betas), k=k, t=1)
    others = [tuple(row) for row in rng.integers(spec.q, size=(8, k + 1)).tolist()]
    for count in (0, 1, 2, 9):  # the planted polynomial first
        cands = ([planted] + others)[:count]
        want = [sum(uni_eval(f, a, spec) == b for a, b in zip(alphas, betas)) for f in cands]
        assert rs.agreement(inst, cands).tolist() == want
        rows = np.array(cands, dtype=np.int64).reshape(count, k + 1)
        assert rs.agreement(inst, rows).tolist() == want


def test_brute_force_worked_example():
    assert rs.brute_force_decode(WORKED) == [(0, 0), (0, 1)]


def test_brute_force_search_cap():
    f = field_make(2, 6)
    inst = rs.RSInstance(f, tuple(range(8)), tuple(range(8)), k=3, t=8)
    with pytest.raises(errors.SearchSpaceTooLarge):
        rs.brute_force_decode(inst)


def test_brute_force_contains_interpolant_at_full_agreement():
    # k = q - 1, t = n: the Lagrange interpolant always qualifies
    rng = rng_stream(911, 1)
    for _ in range(5):
        betas = tuple(int(b) for b in rng.integers(5, size=5))
        inst = rs.RSInstance(F5, (0, 1, 2, 3, 4), betas, k=4, t=5)
        out = rs.brute_force_decode(inst)
        assert len(out) == 1
        f = out[0]
        assert all(
            uni_eval(f, a, F5) == b
            for a, b in zip(inst.alphas, inst.betas)
        )


def test_list_decode_worked_example():
    out = rs.list_decode(WORKED, eps=Fraction(1, 16))
    assert out == [(0, 0), (0, 1)]  # the zero polynomial and X


def test_list_decode_default_slack_end_to_end():
    # the default slack needs m = 12, d = 35: one full run through the
    # large interpolation system keeps that path honest
    assert rs.list_decode(WORKED) == [(0, 0), (0, 1)]


def test_list_decode_lists_the_basis_once(monkeypatch):
    listings = []
    listing = WeightedDegreeBasis.__dict__["_listing"]

    def counted(basis):
        listings.append(basis)
        return listing.func(basis)

    prop = functools.cached_property(counted)
    prop.__set_name__(WeightedDegreeBasis, "_listing")
    monkeypatch.setattr(WeightedDegreeBasis, "_listing", prop)
    assert rs.list_decode(WORKED, Fraction(1, 16)) == [(0, 0), (0, 1)]
    assert len(listings) == 1
    basis = listings[0]
    assert basis.monomials() == basis.monomials() and basis.monomials() is not basis.monomials()


def test_list_decode_perfect_agreement_returns_codeword():
    betas = tuple(F5.add(F5.mul(2, a), 3) for a in range(5))  # f = 3 + 2X
    inst = rs.RSInstance(F5, (0, 1, 2, 3, 4), betas, k=1, t=5)
    assert rs.list_decode(inst, eps=Fraction(1, 16)) == [(3, 2)]


def test_oracle_equivalence_random_spot():
    rng = rng_stream(911, 2)
    params_cache = {}
    for _ in range(60):
        q, k, t = [(5, 1, 3), (7, 1, 4), (7, 2, 5)][int(rng.integers(3))]
        spec = field_make(q)
        betas = tuple(int(b) for b in rng.integers(q, size=q))
        inst = rs.RSInstance(spec, tuple(range(q)), betas, k=k, t=t)
        key = (q, k, t)
        if key not in params_cache:
            params_cache[key] = rs.choose_params(inst, Fraction(1, 16))
        assert rs.list_decode(inst, params=params_cache[key]) == rs.brute_force_decode(inst)


def test_list_size_within_bound_random():
    rng = rng_stream(911, 3)
    bound = rs.list_size_bound(Fraction(3, 5), Fraction(1, 5))
    for _ in range(100):
        betas = tuple(int(b) for b in rng.integers(5, size=5))
        inst = rs.RSInstance(F5, (0, 1, 2, 3, 4), betas, k=1, t=3)
        assert len(rs.brute_force_decode(inst)) <= bound


def test_decode_all_words_tiny_field():
    # exhaustive equivalence on every received word over F_3
    inst0 = rs.RSInstance(F3, (0, 1, 2), (0, 0, 0), k=1, t=3)
    params = rs.choose_params(inst0, Fraction(1, 16))
    for betas in itertools.product(range(3), repeat=3):
        inst = rs.RSInstance(F3, (0, 1, 2), betas, k=1, t=3)
        assert rs.list_decode(inst, params=params) == rs.brute_force_decode(inst)


def test_instance_json_roundtrip(tmp_path):
    data = rs.instance_to_json(WORKED)
    assert data == {
        "field": "5",
        "alphas": [0, 1, 2, 3, 4],
        "betas": [0, 1, 2, 0, 0],
        "k": 1,
        "t": 3,
    }
    again = rs.instance_from_json(data)
    assert again == WORKED
    for bad in ({"field": "5"}, [1], None, {**data, "alphas": 3}, {**data, "k": "1"},
                {**data, "t": 2.5}, {**data, "betas": [0, 1, 2, 0, [0]]}):
        with pytest.raises(errors.InvalidParameters):
            rs.instance_from_json(bad)
