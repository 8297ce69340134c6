import itertools
import signal
import time
from math import comb, inf

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import scalar_ref
from ffmult import errors
from ffmult.ff import field_make, parse_prime_power, rng_stream
from ffmult.mvpoly import (
    TABLE_CELLS,
    Curve,
    MultiPoly,
    compose_curve,
    grid_multiplicities,
    hasse_derivative,
    homogeneous_part,
    lucas_binomial,
    multiplicities,
    multiplicity,
    multiplicity_mass,
    multiplicity_tuple,
    poly_eval,
    restrict_to_line,
    vector_binomial,
)
from ffmult.selftest import random_point, random_poly

F2 = field_make(2)
F3 = field_make(3)
F5 = field_make(5)


# ---------------------------------------------------------------------------
# evaluation and structure
# ---------------------------------------------------------------------------

def test_poly_eval_examples():
    P = MultiPoly(F3, 2, {(1, 1): 1})
    assert poly_eval(P, (2, 2)) == 1  # 4 mod 3
    assert type(poly_eval(P, (2, 2))) is int
    Z = MultiPoly.zero(F3, 2)
    assert poly_eval(Z, (1, 2)) == 0
    Q = MultiPoly(F2, 2, {(2, 0): 1, (0, 1): 1})
    assert poly_eval(Q, (1, 1)) == 0


EVAL_FIELDS = [(7, 1), (257, 1), (2, 6), (3, 3), (2, 17), (5, 7)]


@pytest.mark.parametrize("p,e", EVAL_FIELDS)
def test_eval_codes_matches_scalar_walk(p, e):
    spec = field_make(p, e)
    rng = rng_stream(320, spec.q)
    for n in (1, 2, 3):
        polys = [MultiPoly.zero(spec, n), MultiPoly.constant(spec, n, spec.q - 1)]
        polys += [random_poly(spec, n, rng, max_deg=7) for _ in range(12)]
        points = [(0,) * n, (0,) * (n - 1) + (spec.q - 1,)]
        points += [random_point(spec, n, rng) for _ in range(6)]
        for P in polys:
            for a in points:
                assert P.eval_codes(a) == scalar_ref.eval_codes(P, a), (P, a)


def test_single_point_power_table_is_capped():
    # one point of a polynomial of degree TABLE_CELLS needs a power table of
    # TABLE_CELLS + 1 cells, refused as a multiplicity at that point is
    P = MultiPoly(F5, 1, {(TABLE_CELLS,): 1})
    with pytest.raises(errors.UnsupportedSize):
        P.eval_codes((1,))
    with pytest.raises(errors.UnsupportedSize):
        multiplicity(P, (1,))


def test_eval_dimension_mismatch():
    P = MultiPoly(F3, 2, {(1, 1): 1})
    with pytest.raises(errors.DimensionMismatch):
        poly_eval(P, (1,))


def test_degree_sentinel_and_terms():
    assert MultiPoly.zero(F3, 2).degree == float("-inf")
    assert MultiPoly.constant(F3, 2, 1).degree == 0
    assert MultiPoly(F3, 2, {(2, 1): 1, (0, 0): 2}).degree == 3
    # zero coefficients are never stored
    assert MultiPoly(F3, 1, {(4,): 0}).is_zero


def test_serialization_roundtrip_and_order():
    P = MultiPoly(F5, 2, {(1, 1): 3, (0, 0): 1, (2, 0): 4, (0, 2): 1})
    text = P.to_text()
    assert text == "1:0,0;1:0,2;3:1,1;4:2,0"  # graded-lex: weight, then tuple
    assert MultiPoly.from_text(F5, 2, text) == P
    assert MultiPoly.zero(F5, 2).to_text() == "0"
    assert MultiPoly.from_text(F5, 2, "0").is_zero


# ---------------------------------------------------------------------------
# binomials and Hasse derivatives
# ---------------------------------------------------------------------------

def test_vector_binomial_examples():
    assert vector_binomial((2, 1), (1, 1), F5) == 2
    assert vector_binomial((2, 0), (0, 1), F5) == 0
    # C(3,1)*C(3,2) = 9 = 1 mod 2
    assert vector_binomial((3, 3), (1, 2), F2) == 1
    with pytest.raises(errors.DimensionMismatch):
        vector_binomial((1, 2), (1,), F5)
    assert vector_binomial((), (), F5) == 1
    assert all(type(vector_binomial(i, (1, 1), F5)) is int for i in ((2, 1), (0, 0)))
    for i, j in (((-1, 2), (0, 0)), ((3,), (-1,))):  # no binomial: refused, not looped on
        with pytest.raises(errors.InvalidParameters):
            vector_binomial(i, j, F5)


def test_vector_binomial_past_int64():
    # decided on the ints: zero for j_k > i_k, a refusal for i_k above MAX_DEGREE
    assert vector_binomial((1,), (10 ** 20,), F5) == 0
    assert vector_binomial((3, 1), (1, 10 ** 20), F5) == 0
    for i, j in (((10 ** 20,), (1,)), ((2 ** 63,), (0,)), ((2 ** 63 - 1, 0), (1, 0))):
        with pytest.raises(errors.UnsupportedSize):
            vector_binomial(i, j, F5)
    # the largest argument kept: C(2^63 - 2, 1) = 1 mod 5
    assert vector_binomial((2 ** 63 - 2,), (1,), F5) == 1


def test_hasse_examples():
    X2 = MultiPoly(F2, 1, {(2,): 1})
    assert hasse_derivative(X2, (1,)).is_zero  # coefficient 2 = 0 in char 2
    assert hasse_derivative(X2, (2,)) == MultiPoly.constant(F2, 1, 1)
    P = MultiPoly(F5, 2, {(2, 1): 1})
    assert hasse_derivative(P, (1, 1)) == MultiPoly(F5, 2, {(1, 0): 2})
    assert hasse_derivative(P, (0, 3)).is_zero
    assert hasse_derivative(MultiPoly.zero(F5, 2), (1, 0)).is_zero
    with pytest.raises(errors.InvalidParameters):
        hasse_derivative(P, (1, -1))


def test_hasse_against_shift_expansion_oracle():
    rng = rng_stream(314, 0)
    for _ in range(60):
        q = (2, 3, 5)[int(rng.integers(3))]
        spec = field_make(q)
        n = 1 + int(rng.integers(2))
        P = random_poly(spec, n, rng, max_deg=5, max_terms=4)
        i = tuple(int(rng.integers(3)) for _ in range(n))
        assert hasse_derivative(P, i) == scalar_ref.hasse_via_shift_expansion(P, i)


def test_hasse_degree_bound():
    rng = rng_stream(314, 1)
    for _ in range(40):
        P = random_poly(F5, 2, rng, max_deg=6, nonzero=True)
        i = (1, 1)
        D = hasse_derivative(P, i)
        if not D.is_zero:
            assert D.degree <= P.degree - 2


# ---------------------------------------------------------------------------
# multiplicity
# ---------------------------------------------------------------------------

def test_multiplicity_examples():
    P = MultiPoly(F5, 2, {(2, 3): 1})
    assert multiplicity(P, (0, 0)) == 5
    Q = MultiPoly(F3, 1, {(1,): 1, (0,): 1})  # X + 1
    assert multiplicity(Q, (2,)) == 1
    lin = MultiPoly(F5, 1, {(1,): 1, (0,): F5.neg(1)})
    cube = lin * lin * lin
    assert multiplicity(cube, (1,)) == 3
    assert multiplicity(MultiPoly.zero(F5, 1), (0,)) == inf


def test_multiplicity_against_shift_oracle():
    rng = rng_stream(314, 2)
    for _ in range(60):
        q = (2, 3, 5)[int(rng.integers(3))]
        spec = field_make(q)
        n = 1 + int(rng.integers(2))
        P = random_poly(spec, n, rng, max_deg=5, max_terms=4, nonzero=True)
        a = random_point(spec, n, rng)
        assert multiplicity(P, a) == scalar_ref.multiplicity_via_shift(P, a)


def test_multiplicity_positive_iff_zero():
    rng = rng_stream(314, 3)
    for _ in range(40):
        P = random_poly(F3, 2, rng, nonzero=True)
        a = random_point(F3, 2, rng)
        assert (multiplicity(P, a) >= 1) == (P.eval_codes(a) == 0)


def test_tuple_multiplicity_is_min():
    P = MultiPoly(F3, 1, {(2,): 1})
    Q = MultiPoly(F3, 1, {(1,): 1})
    assert multiplicity_tuple([P, Q], (0,)) == 1
    assert multiplicity_tuple([P, MultiPoly.zero(F3, 1)], (0,)) == 2


# ---------------------------------------------------------------------------
# homogeneous part, composition, line restriction
# ---------------------------------------------------------------------------

def test_homogeneous_part_examples():
    P = MultiPoly(F3, 2, {(2, 0): 1, (0, 1): 1})
    assert homogeneous_part(P) == MultiPoly(F3, 2, {(2, 0): 1})
    H = MultiPoly(F3, 2, {(1, 1): 2, (2, 0): 1})
    assert homogeneous_part(H) == H
    P2 = MultiPoly(F3, 2, {(1, 1): 1, (1, 0): 1, (0, 0): 1})
    assert homogeneous_part(P2) == MultiPoly(F3, 2, {(1, 1): 1})
    with pytest.raises(errors.ZeroPolynomial):
        homogeneous_part(MultiPoly.zero(F3, 2))


def test_compose_curve_examples():
    P = MultiPoly(F3, 2, {(1, 1): 1})
    diag = Curve.from_coeff_lists(F3, [(0, 1), (0, 1)])
    assert compose_curve(P, diag) == MultiPoly(F3, 1, {(2,): 1})
    # (1 + T) + 2T = 1 + 3T = 1 mod 3
    S = MultiPoly(F3, 2, {(1, 0): 1, (0, 1): 1})
    line = Curve.from_coeff_lists(F3, [(1, 1), (0, 2)])
    assert compose_curve(S, line) == MultiPoly.constant(F3, 1, 1)
    C = MultiPoly.constant(F3, 2, 2)
    assert compose_curve(C, diag) == MultiPoly.constant(F3, 1, 2)


def test_compose_mismatch_errors():
    P = MultiPoly(F3, 2, {(1, 1): 1})
    with pytest.raises(errors.DimensionMismatch):
        compose_curve(P, Curve.from_coeff_lists(F3, [(0, 1)]))
    with pytest.raises(errors.SpecMismatch):
        compose_curve(P, Curve.from_coeff_lists(F5, [(0, 1), (0, 1)]))


@pytest.mark.parametrize("op", ["+", "*"])
@pytest.mark.parametrize("other,error", [
    (MultiPoly(F3, 2, {(1, 0): 1}), errors.SpecMismatch),
    (MultiPoly(F5, 3, {(1, 0, 0): 1}), errors.DimensionMismatch),
], ids=["field", "variables"])
def test_ring_operations_refuse_another_ring(op, other, error):
    P = MultiPoly(F5, 2, {(1, 0): 1})
    with pytest.raises(error):
        P + other if op == "+" else P * other


def test_restrict_to_line_examples():
    P = MultiPoly(F3, 2, {(1, 1): 1})
    assert restrict_to_line(P, (0, 0), (1, 1)) == MultiPoly(F3, 1, {(2,): 1})
    assert restrict_to_line(P, (2, 1), (0, 0)) == MultiPoly.constant(F3, 1, 2)
    Q = MultiPoly(F5, 2, {(2, 0): 1, (0, 1): 1})
    # (1+2T)^2 + T = 4T^2 + 5T + 1 = 4T^2 + 1 mod 5
    assert restrict_to_line(Q, (1, 0), (2, 1)) == MultiPoly(F5, 1, {(2,): 4, (0,): 1})


def test_curve_degree_and_eval():
    C = Curve.from_coeff_lists(F5, [(1, 2), (0, 0, 3)])
    assert C.degree == 2
    assert C.eval(1) == (3, 3)
    const = Curve.from_coeff_lists(F5, [(2,), (0,)])
    assert const.degree == 0


@pytest.mark.parametrize("p,e", EVAL_FIELDS)
def test_curve_values_match_scalar_components(p, e):
    spec = field_make(p, e)
    rng = rng_stream(321, spec.q)
    ts = np.concatenate([[0, 1, spec.q - 1], rng.integers(spec.q, size=13)])
    for n in (0, 1, 2, 3):
        for _ in range(4):
            # components of 0 to 4 coefficients: zero, constant and higher degree
            coeff_lists = [rng.integers(spec.q, size=rng.integers(5)).tolist() for _ in range(n)]
            C = Curve.from_coeff_lists(spec, coeff_lists)
            want = [[scalar_ref.eval_codes(c, (t,)) for c in C.components] for t in ts.tolist()]
            assert C.values(ts).tolist() == want
            assert C.eval(int(ts[-1])) == tuple(want[-1])


# ---------------------------------------------------------------------------
# multiplicity mass
# ---------------------------------------------------------------------------

def test_mass_examples():
    P = MultiPoly(F3, 2, {(1, 1): 1})
    assert multiplicity_mass(P, range(3)) == 6  # == d * q^(n-1), tight
    one = MultiPoly.constant(F3, 2, 1)
    assert multiplicity_mass(one, range(3)) == 0
    X1 = MultiPoly(F2, 2, {(1, 0): 1})
    assert multiplicity_mass(X1, range(2)) == 2


def test_mass_errors():
    with pytest.raises(errors.ZeroPolynomial):
        multiplicity_mass(MultiPoly.zero(F3, 2), range(3))
    with pytest.raises(errors.EmptySet):
        multiplicity_mass(MultiPoly.constant(F3, 2, 1), [])


def test_mass_agrees_with_pointwise_sum():
    rng = rng_stream(314, 4)
    import itertools

    for _ in range(25):
        q = (2, 3)[int(rng.integers(2))]
        spec = field_make(q)
        P = random_poly(spec, 2, rng, max_deg=4, nonzero=True)
        direct = sum(
            multiplicity(P, pt) for pt in itertools.product(range(q), repeat=2)
        )
        assert multiplicity_mass(P, range(q)) == direct


# ---------------------------------------------------------------------------
# ring laws via hypothesis
# ---------------------------------------------------------------------------

def small_polys():
    term = st.tuples(
        st.tuples(st.integers(0, 3), st.integers(0, 3)), st.integers(0, 4)
    )
    return st.lists(term, max_size=4).map(
        lambda ts: MultiPoly(F5, 2, {e: c for e, c in ts})
    )


@settings(max_examples=60, deadline=None)
@given(small_polys(), small_polys(), small_polys())
def test_ring_laws(a, b, c):
    assert a + b == b + a
    assert (a + b) + c == a + (b + c)
    assert a * b == b * a
    assert a * (b + c) == a * b + a * c
    assert (a - a).is_zero


@settings(max_examples=40, deadline=None)
@given(small_polys(), small_polys())
def test_hasse_additivity_hypothesis(a, b):
    i = (1, 1)
    assert hasse_derivative(a, i) + hasse_derivative(b, i) == hasse_derivative(a + b, i)


# ---------------------------------------------------------------------------
# batched Hasse shells against the scalar references
# ---------------------------------------------------------------------------

SHELL_FIELDS = [(2, 1), (3, 1), (5, 1), (7, 1), (13, 1), (2, 2), (2, 3), (2, 4), (3, 2), (3, 3)]


def _centered_product(spec, a, rng, factors):
    """A product of random linear forms in X - a: multiplicity = degree at a."""
    n = len(a)
    P = MultiPoly.constant(spec, n, 1 + int(rng.integers(spec.q - 1)))
    for _ in range(factors):
        form = MultiPoly.zero(spec, n)
        for j in range(n):
            shifted = MultiPoly.variable(spec, n, j) - MultiPoly.constant(spec, n, a[j])
            form = form + shifted.scale(int(rng.integers(spec.q)))
        if form.is_zero:
            form = MultiPoly.variable(spec, n, 0) - MultiPoly.constant(spec, n, a[0])
        P = P * form
    return P


def _shell_cases(spec, n, rng):
    """(label, P, points): random polynomials, constants, a polynomial of
    degree n with every exponent 1, and centered products that keep a point
    alive to the last shell."""
    grid = list(itertools.product(range(spec.q), repeat=n))
    if len(grid) > 60:
        picks = rng.choice(len(grid), size=60, replace=False)
        grid = [grid[int(k)] for k in picks]
    a = random_point(spec, n, rng)
    points = grid + [a]
    yield "constant", MultiPoly.constant(spec, n, 1 + int(rng.integers(spec.q - 1))), points
    yield "squarefree", MultiPoly(spec, n, {(1,) * n: 1}), points + [(0,) * n]
    for k in range(4):
        yield f"random{k}", random_poly(spec, n, rng, max_deg=5, max_terms=5, nonzero=True), points
    for factors in (1, 3):
        yield f"centered{factors}", _centered_product(spec, a, rng, factors), points


@pytest.mark.parametrize("p,e", SHELL_FIELDS)
def test_multiplicities_match_scalar_shell_walk(p, e):
    spec = field_make(p, e)
    rng = rng_stream(501, spec.q)
    for n in (1, 2, 3):
        for label, P, points in _shell_cases(spec, n, rng):
            got = multiplicities(P, points).tolist()
            assert got == [scalar_ref.multiplicity(P, a) for a in points], (label, n)
            assert got == [scalar_ref.multiplicity_via_shift(P, a) for a in points], (label, n)
            assert [multiplicity(P, a) for a in points[-2:]] == got[-2:]


def test_multiplicities_on_the_smallest_odd_field_above_2_16():
    # GF(5^7) runs on Zech tables built in two blocks of powers
    spec = field_make(5, 7)
    rng = rng_stream(502, 0)
    for n in (1, 2):
        points = [random_point(spec, n, rng) for _ in range(3)] + [(0,) * n]
        for P in (random_poly(spec, n, rng, max_deg=3, max_terms=3, nonzero=True),
                  _centered_product(spec, points[0], rng, 2)):
            assert multiplicities(P, points).tolist() == [
                scalar_ref.multiplicity(P, a) for a in points
            ]


def test_multiplicities_degree_beyond_every_exponent():
    # deg 3 with every exponent 1: orders of weight 2 and 3 exceed each r_j
    P = MultiPoly(F5, 3, {(1, 1, 1): 1})
    assert multiplicities(P, [(0, 0, 0), (0, 0, 1), (0, 1, 1), (1, 1, 1)]).tolist() == [3, 2, 1, 0]
    Q = MultiPoly(F2, 2, {(1, 1): 1, (1, 0): 1})  # X(Y + 1)
    assert multiplicities(Q, [(0, 1), (0, 0), (1, 1), (1, 0)]).tolist() == [2, 1, 1, 0]


def test_multiplicities_zero_polynomial_and_bad_points():
    with pytest.raises(errors.ZeroPolynomial):
        multiplicities(MultiPoly.zero(F5, 2), [(0, 0)])
    assert multiplicity(MultiPoly.zero(F5, 2), (0, 0)) == inf
    P = MultiPoly(F5, 2, {(1, 0): 1})
    assert multiplicities(P, []).tolist() == []
    with pytest.raises(errors.DimensionMismatch):
        multiplicities(P, [(0, 0, 0)])
    with pytest.raises(errors.InvalidParameters):
        multiplicities(P, [(0, 5)])
    with pytest.raises(errors.InvalidParameters):
        multiplicities(P, [(1.7, 2)])
    with pytest.raises(errors.InvalidParameters):
        multiplicity(P, (1.7, 2))


def test_multiplicities_in_small_blocks(monkeypatch):
    import ffmult.mvpoly as mv

    spec = field_make(7)
    rng = rng_stream(503, 0)
    a = (3, 5)
    P = _centered_product(spec, a, rng, 3) * random_poly(spec, 2, rng, max_deg=2, nonzero=True)
    points = list(itertools.product(range(7), repeat=2))
    want = multiplicities(P, points).tolist()
    monkeypatch.setattr(mv, "SHELL_BLOCK_CELLS", 5)
    assert multiplicities(P, points).tolist() == want
    assert want == [scalar_ref.multiplicity(P, pt) for pt in points]


def test_multiplicities_in_point_blocks(monkeypatch):
    import ffmult.mvpoly as mv

    spec = field_make(5)
    rng = rng_stream(505, 0)
    P = _centered_product(spec, (1, 4), rng, 2) * random_poly(spec, 2, rng, max_deg=2, nonzero=True)
    points = list(itertools.product(range(5), repeat=2))
    want = [scalar_ref.multiplicity(P, pt) for pt in points]
    for cells in (1, 7, 40):  # one point per block, and blocks that split the grid
        monkeypatch.setattr(mv, "POINT_BLOCK_CELLS", cells)
        assert multiplicities(P, points).tolist() == want


def test_tables_do_not_depend_on_earlier_calls():
    # each call answers as it would in a fresh process
    assert multiplicity(MultiPoly(F5, 1, {(4_000_000,): 1}), (1,)) == 0
    assert multiplicity(MultiPoly(F5, 1, {(2,): 1}), (0,)) == 2
    with pytest.raises(errors.UnsupportedSize):  # 2^22 + 1 power-table cells
        multiplicity(MultiPoly(F5, 1, {(2 ** 22,): 1}), (0,))
    assert multiplicity(MultiPoly(F5, 1, {(45,): 1}), (0,)) == 45


def test_mass_over_a_whole_large_field():
    # 65536 points with 65 power-table cells each: more than one block
    spec = field_make(2, 16)
    roots = {0: 10, 1: 20, 12345: 30, 65535: 4}
    P = MultiPoly.constant(spec, 1, 1)
    for r, e in roots.items():
        for _ in range(e):
            P = P * MultiPoly(spec, 1, {(1,): 1, (0,): r})  # X - r in characteristic 2
    assert P.degree == 64
    mults = grid_multiplicities(P, range(spec.q))
    assert mults.tolist() == [roots.get(a, 0) for a in range(spec.q)]
    assert multiplicity_mass(P, range(spec.q)) == 64
    for a in (*roots, 2, 777, 40000):
        assert mults[a] == scalar_ref.multiplicity(P, (a,))


def test_grid_in_blocks_and_its_cap(monkeypatch):
    import ffmult.mvpoly as mv

    rng = rng_stream(506, 0)
    P = _centered_product(F5, (1, 4), rng, 2) * random_poly(F5, 2, rng, max_deg=2, nonzero=True)
    want = [scalar_ref.multiplicity(P, pt) for pt in itertools.product(range(5), repeat=2)]
    monkeypatch.setattr(mv, "GRID_CAP", 25)  # 25 points, in blocks of 12
    assert grid_multiplicities(P, range(5)).tolist() == want
    with pytest.raises(errors.UnsupportedSize):  # 36 points
        grid_multiplicities(MultiPoly.constant(field_make(7), 2, 1), range(6))


@pytest.mark.parametrize("q", [2, 3, 4, 5, 9])
def test_mass_matches_scalar_pointwise_sum(q):
    spec = parse_prime_power(q)
    rng = rng_stream(504, q)
    for n in (1, 2, 3):
        for _ in range(3):
            P = random_poly(spec, n, rng, max_deg=4, max_terms=5, nonzero=True)
            S = [int(x) for x in rng.integers(q, size=1 + int(rng.integers(q + 2)))]
            S += S[:2]  # duplicates count once
            want = sum(
                scalar_ref.multiplicity(P, pt)
                for pt in itertools.product(sorted(set(S)), repeat=n)
            )
            assert multiplicity_mass(P, S) == want


def test_lucas_binomial_matches_comb():
    rng = rng_stream(509, 0)
    r, i = np.meshgrid(np.arange(300), np.arange(300), indexing="ij")
    for p in (2, 3, 5, 7, 257, 1048573):
        want = [[comb(a, b) % p for b in range(300)] for a in range(300)]
        assert lucas_binomial(p, 299)(r, i).tolist() == want
        # math.comb near r = 10^6 builds numbers of about 300,000 digits
        r2 = rng.integers(10 ** 4, size=200)
        i2 = np.where(np.arange(200) % 2, rng.integers(10 ** 4, size=200), r2 // 2)
        got = lucas_binomial(p, int(r2.max()))(r2, i2)
        assert got.tolist() == [comb(int(a), int(b)) % p for a, b in zip(r2, i2)]


def test_binomials_of_large_exponents():
    spec = field_make(1048573)
    # C(10^6, 5*10^5) = 743907 and C(10^6, 3) = 512797 mod p, by math.comb once
    t0 = time.perf_counter()
    assert vector_binomial((10 ** 6, 10 ** 6), (5 * 10 ** 5, 3), spec) == 323333
    assert time.perf_counter() - t0 < 0.5
    X = MultiPoly(spec, 1, {(1,): 1})
    P = (X - MultiPoly.constant(spec, 1, 1)).power(50) * X.power(10 ** 5 - 50)
    assert multiplicity(P, (1,)) == 50


# ---------------------------------------------------------------------------
# the term arrays against the term-dict oracles
# ---------------------------------------------------------------------------

# one field per VecOps family: prime, GF(2^e) (also above 2^16), and odd
# p^e (also above 2^16)
ARRAY_FIELDS = [(7, 1), (2, 4), (3, 3), (2, 17), (3, 11)]


def _canonical_form(P, want: dict):
    """P holds exactly the nonzero terms of ``want``, in graded-lex order."""
    want = {e: c for e, c in want.items() if c}
    assert P.exps.dtype == P.coeffs.dtype == np.int64
    assert P.exps.shape == (len(want), P.n) and P.coeffs.shape == (len(want),)
    assert list(P.terms.items()) == sorted(want.items(), key=lambda t: (sum(t[0]), t[0]))


def _term_dict(spec, n, rng, terms: int, top: int) -> dict:
    """Random terms with exponents up to ``top``, so that sums and products
    meet equal exponent vectors; zero coefficients included."""
    return {tuple(int(x) for x in rng.integers(top + 1, size=n)): int(rng.integers(spec.q))
            for _ in range(terms)}


@pytest.mark.parametrize("p,e", ARRAY_FIELDS)
def test_array_arithmetic_matches_term_dict_oracle(p, e):
    spec = field_make(p, e)
    rng = rng_stream(1601, spec.q)
    for trial in range(10):
        n = trial % 3 + 1
        a = _term_dict(spec, n, rng, 1 + trial % 6, 3)
        b = _term_dict(spec, n, rng, 1 + trial % 5, 2)
        for key in list(a)[: trial % 3]:  # terms of a + b that cancel
            b[key] = spec.neg(a[key])
        P, Q = MultiPoly(spec, n, a), MultiPoly(spec, n, b)
        a, b = dict(P.terms), dict(Q.terms)
        _canonical_form(P, a)
        _canonical_form(P + Q, scalar_ref.dict_add(spec, a, b))
        _canonical_form(P - Q, scalar_ref.dict_add(spec, a, scalar_ref.dict_neg(spec, b)))
        _canonical_form(P - P, {})
        _canonical_form(P * Q, scalar_ref.dict_mul(spec, a, b))
        code = int(rng.integers(spec.q))
        _canonical_form(P.scale(code), scalar_ref.dict_scale(spec, a, code))
        k = trial % 4
        _canonical_form(Q.power(k), scalar_ref.dict_power(spec, n, b, k))
        i = tuple(int(x) for x in rng.integers(3, size=n))
        _canonical_form(hasse_derivative(P, i), scalar_ref.dict_hasse(spec, a, i))
        if not P.is_zero:
            _canonical_form(homogeneous_part(P), scalar_ref.dict_homogeneous_part(a))
        comps = [_term_dict(spec, 1, rng, 3, 2) for _ in range(n)]
        C = Curve(spec, [MultiPoly(spec, 1, c) for c in comps])
        comps = [dict(c.terms) for c in C.components]
        _canonical_form(compose_curve(P, C), scalar_ref.dict_compose(spec, a, comps))
        # text with repeated exponent vectors and zero coefficients
        rows = [tuple(int(x) for x in rng.integers(3, size=n)) for _ in range(6)]
        text = ";".join(f"{int(rng.integers(spec.q))}:{','.join(map(str, r))}"
                        for r in rows + rows[:3])
        _canonical_form(MultiPoly.from_text(spec, n, text), scalar_ref.dict_from_text(spec, text))


def test_exponents_past_int64_are_refused():
    # a total degree of 2^63 - 2 is the largest kept: deg + 1 still fits int64
    top = 2 ** 63 - 2
    P = MultiPoly.from_text(F5, 1, f"1:{top}")
    # C(2^63 - 2, 1) = 1 mod 5, as 2^63 = 3 mod 5
    assert P.degree == top and hasse_derivative(P, (1,)).to_text() == f"1:{top - 1}"
    assert hasse_derivative(P, (10 ** 20,)).is_zero  # an order above every exponent
    for n, text in [(1, "1:99999999999999999999"), (1, f"1:{top + 1}"), (2, f"1:{top + 1},0"),
                    (2, f"1:{top},1"), (3, f"1:{top // 2},{top // 2},{top // 2}")]:
        with pytest.raises(errors.UnsupportedSize):
            MultiPoly.from_text(F3, n, text)
        with pytest.raises(errors.UnsupportedSize):
            MultiPoly(F3, n, dict(zip([tuple(map(int, text[2:].split(",")))], [1])))
    X = MultiPoly.from_text(F3, 1, f"1:{2 ** 62}")
    with pytest.raises(errors.UnsupportedSize):  # the product's degree is 2^63
        X * X
    with pytest.raises(errors.UnsupportedSize):
        X.power(2)
    assert X.power(1) == X  # no square is formed past the last bit


def test_negative_power_is_refused():
    def stop(signum, frame):
        raise AssertionError("power(-1) did not return")

    previous = signal.signal(signal.SIGALRM, stop)
    signal.alarm(5)
    try:
        with pytest.raises(errors.InvalidParameters):
            MultiPoly.constant(F5, 1, 2).power(-1)
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)
    assert MultiPoly.constant(F5, 1, 2).power(0) == MultiPoly.constant(F5, 1, 1)
    with pytest.raises(errors.DimensionMismatch):  # the sign is checked first
        MultiPoly.from_text(F3, 1, "1:-99999999999999999999")
