import itertools
from dataclasses import replace
from fractions import Fraction

import numpy as np
import pytest

from ffmult import errors
from ffmult.ff import field_make, rng_stream
from ffmult.interpolate import (
    InterpolationProblem,
    TotalDegreeBasis,
    WeightedDegreeBasis,
    count_total_degree_monomials,
    count_weighted_monomials,
    matrix_rank,
    nullspace_vector,
    vanishing_constraints,
    vanishing_interpolation,
)
from ffmult.mvpoly import MultiPoly, multiplicity

F2 = field_make(2)
F3 = field_make(3)
F5 = field_make(5)


# ---------------------------------------------------------------------------
# monomial counting
# ---------------------------------------------------------------------------

def test_total_degree_counts():
    assert count_total_degree_monomials(2, 1) == 3
    assert count_total_degree_monomials(1, 5) == 6
    assert count_total_degree_monomials(3, 4) == 35
    with pytest.raises(errors.InvalidParameters):
        count_total_degree_monomials(0, 1)


def test_weighted_counts():
    assert count_weighted_monomials(1, 2, 1) == 6
    assert count_weighted_monomials(1, 7, 0) == 8  # only the j = 0 row
    assert count_weighted_monomials(2, 4, 1) == 9
    with pytest.raises(errors.InvalidParameters):
        count_weighted_monomials(3, 3, 1)
    with pytest.raises(errors.InvalidParameters):
        count_weighted_monomials(1, 2, Fraction(3, 2))


def test_weighted_count_matches_basis():
    for k, d, theta in [(1, 5, Fraction(1, 2)), (2, 9, Fraction(3, 4)), (1, 3, 1)]:
        cap = int((Fraction(theta) * d) // k)
        basis = WeightedDegreeBasis(d=d, k=k, ydeg_cap=cap)
        assert basis.count() == count_weighted_monomials(k, d, theta)
        mons = basis.monomials()
        assert len(set(mons)) == len(mons)
        assert all(i + k * j <= d and j <= cap for i, j in mons)
    # the count is summed, not listed: a Y-degree cap past d/k adds nothing
    for d, k, cap in itertools.product(range(12), range(1, 5), range(8)):
        basis = WeightedDegreeBasis(d=d, k=k, ydeg_cap=cap)
        assert basis.count() == len(basis.monomials())


def test_weighted_count_closed_form_matches_the_sum():
    # theta = 0 and 1, and Y-degree caps past d // k, against the literal sum
    for d, k in itertools.product(range(2, 40), range(1, 40)):
        if k >= d:
            continue
        for tenth in range(11):
            theta = Fraction(tenth, 10)
            jmax = int((theta * d) // k)
            want = sum(d - k * j + 1 for j in range(jmax + 1) if d - k * j >= 0)
            assert count_weighted_monomials(k, d, theta) == want, (k, d, theta)
        for cap in range(d // k, d // k + 4):
            want = sum(max(d - k * j + 1, 0) for j in range(cap + 1))
            assert WeightedDegreeBasis(d=d, k=k, ydeg_cap=cap).count() == want


def test_fact_bound_spot_checks():
    # exhaustive range is covered by the acceptance suite
    for k, d, tenth in [(2, 4, 10), (1, 2, 10), (3, 17, 4)]:
        theta = Fraction(tenth, 10)
        assert count_weighted_monomials(k, d, theta) > theta * (2 - theta) * d * d / (2 * k)


# ---------------------------------------------------------------------------
# constraint systems
# ---------------------------------------------------------------------------

def test_single_constant_monomial_system():
    prob = InterpolationProblem(F3, 1, ((0,),), 1, TotalDegreeBasis(1, 0))
    rows = vanishing_constraints(prob)
    assert rows.tolist() == [[1]]
    assert nullspace_vector(rows, 1, F3) is None  # only the trivial solution


def test_origin_linear_system_kernel_dimension():
    prob = InterpolationProblem(F3, 2, ((0, 0),), 1, TotalDegreeBasis(2, 1))
    rows = vanishing_constraints(prob)
    assert rows.tolist() == [[1, 0, 0]]
    assert matrix_rank(rows, 3, F3) == 1  # kernel dimension 2


def test_multiplicity_two_row_count():
    prob = InterpolationProblem(F3, 2, ((1, 2),), 2, TotalDegreeBasis(2, 2))
    rows = vanishing_constraints(prob)
    assert len(rows) == 3  # orders of weight < 2: (0,0), (0,1), (1,0)
    assert prob.constraint_count() == 3


def test_constraint_rows_encode_derivative_evaluation():
    # row (a, i) applied to coefficients of P equals P^(i)(a)
    from ffmult.mvpoly import MultiPoly, exponents_below_weight
    from scalar_ref import hasse_eval

    rng = rng_stream(77, 0)
    basis = TotalDegreeBasis(2, 3)
    mons = basis.monomials()
    for _ in range(20):
        a = (int(rng.integers(5)), int(rng.integers(5)))
        prob = InterpolationProblem(F5, 2, (a,), 2, basis)
        rows = vanishing_constraints(prob)
        coeffs = [int(rng.integers(5)) for _ in mons]
        P = MultiPoly(F5, 2, dict(zip(mons, coeffs)))
        for i, row in zip(exponents_below_weight(2, 2), rows):
            lhs = 0
            for entry, c in zip(row, coeffs):
                lhs = F5.add(lhs, F5.mul(entry, c))
            assert lhs == hasse_eval(P, i, a)


# ---------------------------------------------------------------------------
# nullspace extraction
# ---------------------------------------------------------------------------

def test_nullspace_examples():
    assert nullspace_vector([[0, 0, 0], [0, 0, 0]], 3, F3) == [1, 0, 0]
    identity = [[1, 0, 0], [0, 1, 0], [0, 0, 1]]
    assert nullspace_vector(identity, 3, F3) is None
    assert nullspace_vector([[1, 1]], 2, F2) == [1, 1]


def test_nullspace_no_rows():
    assert nullspace_vector([], 2, F3) == [1, 0]


def test_nullspace_random_systems_prime_and_extension():
    rng = rng_stream(77, 1)
    for _ in range(40):
        q = (3, 4, 5)[int(rng.integers(3))]
        spec = field_make(2, 2) if q == 4 else field_make(q)
        nrows, ncols = 1 + int(rng.integers(6)), 1 + int(rng.integers(6))
        rows = [[int(rng.integers(spec.q)) for _ in range(ncols)] for _ in range(nrows)]
        v = nullspace_vector(rows, ncols, spec)
        rank = matrix_rank(rows, ncols, spec)
        cols = [[rows[r][c] for r in range(nrows)] for c in range(ncols)]
        assert rank == matrix_rank(cols, nrows, spec)
        if v is None:
            assert rank == ncols
        else:
            assert any(v) and rank < ncols
            for row in rows:
                acc = 0
                for x, y in zip(row, v):
                    acc = spec.add(acc, spec.mul(x, y))
                assert acc == 0


# ---------------------------------------------------------------------------
# vanishing interpolation
# ---------------------------------------------------------------------------

def test_interpolation_single_point_linear():
    prob = InterpolationProblem(F3, 2, ((0, 0),), 1, TotalDegreeBasis(2, 1))
    poly = vanishing_interpolation(prob, verify=True)
    assert not poly.is_zero
    assert poly.eval_codes((0, 0)) == 0
    assert poly.degree <= 1


def test_interpolation_double_point():
    prob = InterpolationProblem(F3, 2, ((1, 2),), 2, TotalDegreeBasis(2, 2))
    poly = vanishing_interpolation(prob, verify=True)
    assert multiplicity(poly, (1, 2)) >= 2


def test_interpolation_verify_raises_on_failed_postcondition(monkeypatch):
    from ffmult import interpolate

    prob = InterpolationProblem(F3, 2, ((0, 0),), 1, TotalDegreeBasis(2, 1))
    monkeypatch.setattr(interpolate, "multiplicities", lambda P, pts: np.zeros(len(pts), dtype=int))
    with pytest.raises(errors.InternalNoSolution, match="multiplicity 0 < 1"):
        vanishing_interpolation(prob, verify=True)
    monkeypatch.setattr(interpolate, "nullspace_vector", lambda rows, n, spec: [0] * n)
    with pytest.raises(errors.InternalNoSolution, match="zero polynomial"):
        vanishing_interpolation(prob, verify=True)


def test_interpolation_count_hypothesis_violation():
    points = tuple((a, b) for a in range(2) for b in range(2))
    prob = InterpolationProblem(F2, 2, points, 1, TotalDegreeBasis(2, 1))
    with pytest.raises(errors.UnsatisfiedCountHypothesis):
        vanishing_interpolation(prob)


def test_interpolation_duplicate_points_rejected():
    with pytest.raises(errors.InvalidParameters):
        InterpolationProblem(F3, 1, ((0,), (0,)), 1, TotalDegreeBasis(1, 3))


def test_interpolation_weighted_basis():
    prob = InterpolationProblem(
        F5, 2, ((0, 0),), 1, WeightedDegreeBasis(d=1, k=1, ydeg_cap=1)
    )
    poly = vanishing_interpolation(prob, verify=True)
    assert not poly.is_zero
    assert poly.eval_codes((0, 0)) == 0


@pytest.mark.parametrize("basis", [TotalDegreeBasis(2, 9), WeightedDegreeBasis(d=30, k=3, ydeg_cap=6),
                                   WeightedDegreeBasis(d=30, k=3, ydeg_cap=2)])
def test_interpolation_cuts_each_basis_to_the_smallest_of_its_kind(basis, monkeypatch):
    # the elimination sees the columns of the smallest degree whose basis
    # holds more monomials than constraints, and the polynomial is the one
    # the whole basis gives
    from ffmult import interpolate

    spec = field_make(257)
    rng = rng_stream(215, 0)
    points = tuple(tuple(int(x) for x in rng.integers(spec.q, size=2)) for _ in range(5))
    prob = InterpolationProblem(spec, 2, points, 2, basis)
    rows = prob.constraint_count()
    cut = next(d for d in range(basis.d + 1) if replace(basis, d=d).count() > rows)
    assert 0 < cut < basis.d and replace(basis, d=cut - 1).count() <= rows
    seen = []
    nullspace = interpolate.nullspace_vector
    monkeypatch.setattr(interpolate, "nullspace_vector",
                        lambda A, ncols, sp: seen.append((len(A), ncols)) or nullspace(A, ncols, sp))
    poly = vanishing_interpolation(prob)
    assert seen == [(rows, replace(basis, d=cut).count())]
    whole = nullspace(vanishing_constraints(prob), basis.count(), spec)
    assert poly == MultiPoly(spec, 2, dict(zip(basis.monomials(), whole)))


def test_interpolation_is_deterministic():
    prob1 = InterpolationProblem(F5, 2, ((1, 3), (2, 2)), 2, TotalDegreeBasis(2, 3))
    prob2 = InterpolationProblem(F5, 2, ((1, 3), (2, 2)), 2, TotalDegreeBasis(2, 3))
    assert vanishing_interpolation(prob1) == vanishing_interpolation(prob2)
