"""Differential tests of the array arithmetic (``FieldSpec.vec``) and of the
code built on it against the scalar ``FieldSpec`` operations."""

import functools
import itertools
import os
import subprocess
import sys
from fractions import Fraction

import numpy as np
import pytest

import scalar_ref

from ffmult import interpolate
from ffmult import rs_decode as rs
from ffmult.errors import InternalDefect
from ffmult.ff import (
    REMAINDER_CELLS,
    FieldSpec,
    _modulus_table,
    field_make,
    parse_field_spec,
    rng_stream,
)
from ffmult.interpolate import (
    PANEL,
    InterpolationProblem,
    TotalDegreeBasis,
    WeightedDegreeBasis,
    matrix_rank,
    nullspace_vector,
    vanishing_constraints,
)
from ffmult.mvpoly import MultiPoly, exponents_below_weight, lucas_binomial
from ffmult.selftest import random_poly

SMALL_EXTENSIONS = sorted(
    (p, e) for (p, e) in _modulus_table() if p ** e <= 2 ** 10
)
PRIMES = [(2, 1), (3, 1), (5, 1), (7, 1), (257, 1), (1048573, 1)]
EXHAUSTIVE_CAP = 256
SAMPLE = 10 ** 5


def _operands(q: int, seed: int):
    """Every (a, b) pair for q <= 256, else a seeded sample that includes
    the extremes 0, 1, q-2 and q-1."""
    if q <= EXHAUSTIVE_CAP:
        a, b = np.array(list(itertools.product(range(q), repeat=2))).T
        return a, b
    rng = rng_stream(seed, q)
    a, b = rng.integers(q, size=(2, SAMPLE))
    edges = np.array([0, 1, q - 2, q - 1])
    a[: 16], b[: 16] = np.repeat(edges, 4), np.tile(edges, 4)
    return a, b


@pytest.mark.parametrize("p,e", SMALL_EXTENSIONS + PRIMES + [(2, 17), (2, 20)])
def test_vec_ops_match_scalar(p, e):
    spec = field_make(p, e)
    vec = spec.vec
    a, b = _operands(spec.q, 31)
    al, bl = a.tolist(), b.tolist()
    assert vec.add(a, b).tolist() == list(map(spec.add, al, bl))
    assert vec.mul(a, b).tolist() == list(map(spec.mul, al, bl))
    assert vec.sub(a, b).tolist() == list(map(spec.sub, al, bl))
    assert vec.neg(a).tolist() == list(map(spec.neg, al))
    # a 0-d operand broadcasts
    assert vec.sub(a, bl[0]).tolist() == [spec.sub(x, bl[0]) for x in al]
    assert vec.add(al[-1], b).tolist() == [spec.add(al[-1], y) for y in bl]
    coeffs = bl[-5:]
    assert vec.poly_eval(coeffs, a[:1000]).tolist() == [
        scalar_ref.uni_eval(coeffs, x, spec) for x in al[:1000]
    ]
    _check_poly_eval_shapes(spec, a[:50])
    nonzero = range(1, spec.q) if spec.q <= 2 ** 10 else sorted(set(al) - {0})
    for x in nonzero:
        assert spec.mul(x, vec.inv(x)) == 1


ODD_ABOVE_2_16 = [pe for pe in sorted(_modulus_table()) if pe[0] != 2 and pe[0] ** pe[1] > 2 ** 16]


@pytest.mark.parametrize("p,e", ODD_ABOVE_2_16)
def test_fallback_vec_ops_match_scalar(p, e):
    # every odd p^e above 2^16, on Zech tables built in several blocks: mul
    # against the schoolbook product, since the scalar spec.mul reads the same
    # tables, and the Zech table against the digit-wise scalar subtraction.
    # A fresh spec, so that its tables are freed after the test.
    spec = FieldSpec(p, e, field_make(p, e).modulus)
    vec = spec.vec
    assert type(vec).__name__ == "_ZechVecOps"
    a, b = (x[:2000] for x in _operands(spec.q, 37))
    al, bl = a.tolist(), b.tolist()
    assert vec.add(a, b).tolist() == list(map(spec.add, al, bl))
    assert vec.mul(a, b).tolist() == [scalar_ref.poly_mul(spec, x, y) for x, y in zip(al, bl)]
    assert vec.sub(a, b).tolist() == list(map(spec.sub, al, bl))
    assert vec.neg(a).tolist() == list(map(spec.neg, al))
    n1 = spec.q - 1
    for d in [0, 1, n1 // 2, n1 - 1] + al[:200]:
        d %= n1
        x = int(vec.exp[d])
        assert vec.zech[n1 + d] == vec.zech[2 * n1 + d] == vec.log[spec.sub(1, x)]
    # a 0-d operand broadcasts on either side, and two give a 0-d result
    for x in (0, 1, bl[0], spec.q - 1):
        assert vec.mul(a, x).tolist() == [scalar_ref.poly_mul(spec, y, x) for y in al]
        assert vec.mul(x, b).tolist() == [scalar_ref.poly_mul(spec, x, y) for y in bl]
        assert vec.sub(x, b).tolist() == [spec.sub(x, y) for y in bl]
        assert vec.add(a, x).tolist() == [spec.add(y, x) for y in al]
        assert vec.mul(x, al[1]).tolist() == scalar_ref.poly_mul(spec, x, al[1])
        assert vec.sub(np.int64(x), al[1]).tolist() == spec.sub(x, al[1])
        assert vec.neg(x).tolist() == spec.neg(x)
    # and a column against a row broadcasts to their outer shape
    assert vec.mul(a[:40, None], b[None, :30]).tolist() == [
        [scalar_ref.poly_mul(spec, x, y) for y in bl[:30]] for x in al[:40]
    ]
    assert vec.poly_eval(bl[:3], a[:100]).tolist() == [
        scalar_ref.uni_eval(bl[:3], x, spec) for x in al[:100]
    ]
    _check_poly_eval_shapes(spec, a[:50])


def _check_poly_eval_shapes(spec, xs):
    """poly_eval against scalar Horner with one coefficient and with three,
    as codes and as columns of codes that broadcast against xs, at the
    array xs and at 0-d points."""
    vec, xl = spec.vec, xs.tolist()
    columns = np.resize(xs[::-1], 12).reshape(3, 4, 1)
    for k in (1, 3):
        coeffs = list(columns[:k])
        rows = [[int(c[i, 0]) for c in coeffs] for i in range(4)]
        want = [[scalar_ref.uni_eval(row, x, spec) for x in xl] for row in rows]
        assert vec.poly_eval(coeffs, xs).tolist() == want
        assert vec.poly_eval(rows[1], xs).tolist() == want[1]
        for x in xl[:2] + [0]:
            assert vec.poly_eval(coeffs, x).tolist() == [
                [scalar_ref.uni_eval(row, x, spec)] for row in rows]
            assert vec.poly_eval(rows[2], x).tolist() == scalar_ref.uni_eval(rows[2], x, spec)
            assert vec.poly_eval(rows[2], np.int64(x)).tolist() == scalar_ref.uni_eval(
                rows[2], x, spec)


@pytest.mark.parametrize("p,e", [(2, 1), (3, 1), (1048573, 1), (2, 4), (2, 16), (3, 2),
                                 (5, 3), (2, 17), (3, 11), (5, 7)])
def test_vec_sum_matches_scalar_fold(p, e):
    # one reduction per family: int64 sum mod p, XOR, and folds of add
    spec = field_make(p, e)
    rng = rng_stream(38, spec.q)
    a = rng.integers(spec.q, size=(4, 7, 5))
    a[0, 0] = spec.q - 1
    for axis in range(3):
        want = np.apply_along_axis(
            lambda xs: functools.reduce(spec.add, xs.tolist(), 0), axis, a)
        assert spec.vec.sum(a, axis=axis).tolist() == want.tolist()
    assert spec.vec.sum(a[:, :, :0], axis=2).tolist() == [[0] * 7] * 4


@pytest.mark.parametrize("p,e", [(2, 1), (257, 1), (1048573, 1), (2, 6), (2, 16), (3, 3),
                                 (3, 10), (2, 17), (5, 7)])
def test_vec_dot_matches_scalar_fold(p, e):
    # c + a.b: float64 einsum mod p, XOR of log/exp products, and sums of
    # spread digits (in two chunks on GF(3^10))
    spec = field_make(p, e)
    rng = rng_stream(39, spec.q)
    for rows, k, cols in [(5, 1, 4), (7, PANEL, 6), (3, 40, 2), (0, 3, 2), (4, 0, 3)]:
        a = rng.integers(spec.q, size=(rows, k))
        b = rng.integers(spec.q, size=(k, cols))
        c = rng.integers(spec.q, size=(rows, cols))
        a[:, :1], b[:1] = spec.q - 1, spec.q - 1
        want = [[functools.reduce(spec.add, (spec.mul(x, y) for x, y in zip(row, col)), z)
                 for col, z in zip(b.T.tolist(), crow)] for row, crow in zip(a.tolist(), c.tolist())]
        assert spec.vec.dot(a, b, c).tolist() == want


def test_prime_dot_refuses_an_inexact_float_sum():
    # the exactness bound is an explicit raise, so it holds under python -O
    code = (
        "import numpy as np\n"
        "from ffmult.errors import InternalDefect\n"
        "from ffmult.ff import field_make\n"
        "vec = field_make(1048573).vec\n"
        "k = 2 ** 53 // (1048573 - 1) ** 2\n"
        "vec.dot(np.ones((1, k), dtype=np.int64), np.ones((k, 1), dtype=np.int64), np.zeros((1, 1)))\n"
        "try:\n"
        "    vec.dot(np.ones((1, k + 1), dtype=np.int64), np.ones((k + 1, 1), dtype=np.int64),\n"
        "            np.zeros((1, 1)))\n"
        "except InternalDefect:\n"
        "    print('refused')\n"
    )
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path))
    proc = subprocess.run([sys.executable, "-O", "-c", code], capture_output=True, text=True,
                          env=env, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "refused\n"


# (p, k, float type): the largest k whose sum k*(p-1)^2 + p stays below 2^24
# takes float32, and one more product float64; at k = 32 that boundary lies
# between p = 719 and p = 727.  1048573 at the largest k below 2^53.
FLOAT_BOUNDARY = [(719, 32, np.float32), (719, 33, np.float64), (727, 31, np.float32),
                  (727, 32, np.float64), (1048573, 2 ** 53 // (1048573 - 1) ** 2, np.float64)]


@pytest.mark.parametrize("p,k,real", FLOAT_BOUNDARY)
def test_prime_dot_is_exact_at_the_float_boundaries(p, k, real, monkeypatch):
    spec = field_make(p)
    top = k * (p - 1) ** 2 + p
    assert top < (2 ** 24 if real is np.float32 else 2 ** 53)
    assert real is np.float64 or (k + 1) * (p - 1) ** 2 + p >= 2 ** 24
    # every operand, and c, at p - 1: each cell is the largest sum the bound
    # allows; c as int64, and as the int32 that elimination hands to dot
    a = np.full((2, k), p - 1)
    b = np.full((k, 3), p - 1)
    types = []
    einsum = np.einsum
    monkeypatch.setattr(np, "einsum", lambda spec_, x, y, **kw: types.append(x.dtype) or
                        einsum(spec_, x, y, **kw))
    want = functools.reduce(spec.add, [spec.mul(p - 1, p - 1)] * k, p - 1)
    for c_type in (np.int64, np.int32):
        got = spec.vec.dot(a, b, np.full((2, 3), p - 1, dtype=c_type))
        assert got.tolist() == [[want] * 3] * 2
    assert types == [np.dtype(real)] * 2


def test_prime_intermediates_stay_below_2_62(monkeypatch):
    p = 1048573  # the largest prime field under the 2^20 size cap
    vec = field_make(p).vec
    # mul multiplies two codes; sub_mul moves an entry by at most one such
    # product per call, and elimination reduces a panel after at most PANEL calls
    assert (p - 1) ** 2 < 2 ** 40
    assert p + PANEL * (p - 1) ** 2 < 2 ** 62
    # a panel's product sums PANEL products of codes and one code in float64
    assert PANEL * (p - 1) ** 2 + p < 2 ** 53
    top = np.array([p - 1, p - 2])
    assert vec.mul(top, top).tolist() == [field_make(p).mul(x, x) for x in (p - 1, p - 2)]
    rep = vec.sub_mul(np.array([p - 1]), np.array([p - 1]), np.array([p - 1]))
    assert int(vec.reduce(rep)[0]) == field_make(p).sub(p - 1, field_make(p).mul(p - 1, p - 1))
    # a panel too wide for that bound is refused before any update
    monkeypatch.setattr(interpolate, "PANEL", 2 ** 23)
    with pytest.raises(InternalDefect):
        nullspace_vector([[1, 2]], 2, field_make(p))


# ---------------------------------------------------------------------------
# elimination against the scalar reference
# ---------------------------------------------------------------------------


def _ref_nullspace(rows, ncols, spec):
    """Scalar Gauss-Jordan elimination, kept as the reference."""
    if ncols == 0:
        return None
    if not rows:
        vec = [0] * ncols
        vec[0] = 1
        return vec
    A = [list(row) for row in rows]
    nrows = len(A)
    pivots = []
    r = 0
    for c in range(ncols):
        if r == nrows:
            break
        pr = next((idx for idx in range(r, nrows) if A[idx][c]), None)
        if pr is None:
            continue
        if pr != r:
            A[r], A[pr] = A[pr], A[r]
        inv = spec.inv(A[r][c])
        A[r] = [spec.mul(inv, x) for x in A[r]]
        for idx in range(nrows):
            if idx != r and A[idx][c]:
                f = A[idx][c]
                A[idx] = [spec.sub(x, spec.mul(f, y)) for x, y in zip(A[idx], A[r])]
        pivots.append((r, c))
        r += 1
    pivot_cols = {c for _, c in pivots}
    free = next((c for c in range(ncols) if c not in pivot_cols), None)
    if free is None:
        return None
    vec = [0] * ncols
    vec[free] = 1
    for rr, cc in pivots:
        vec[cc] = spec.neg(A[rr][free])
    return vec


def _ref_rank(rows, ncols, spec):
    if not rows or ncols == 0:
        return 0
    A = [list(row) for row in rows]
    nrows = len(A)
    rank = 0
    for c in range(ncols):
        if rank == nrows:
            break
        pr = next((idx for idx in range(rank, nrows) if A[idx][c]), None)
        if pr is None:
            continue
        A[rank], A[pr] = A[pr], A[rank]
        inv = spec.inv(A[rank][c])
        A[rank] = [spec.mul(inv, x) for x in A[rank]]
        for idx in range(nrows):
            if idx != rank and A[idx][c]:
                f = A[idx][c]
                A[idx] = [spec.sub(x, spec.mul(f, y)) for x, y in zip(A[idx], A[rank])]
        rank += 1
    return rank


def _random_system(spec, rng, nrows, ncols, rank=None, zero_cols=()):
    """Random rows; with ``rank`` given, combinations of that many random
    rows, so the rank is at most ``rank``."""
    def draw():
        return [int(rng.integers(spec.q)) for _ in range(ncols)]

    if rank is None:
        rows = [draw() for _ in range(nrows)]
    else:
        basis = [np.array(draw(), dtype=np.int64) for _ in range(rank)]
        rows = []
        for _ in range(nrows):
            row = np.zeros(ncols, dtype=np.int64)
            for base in basis:
                f = int(rng.integers(spec.q))
                row = spec.vec.add(row, spec.vec.mul(f, base))
            rows.append([int(x) for x in row])
    for row in rows:
        for c in zero_cols:
            row[c] = 0
    return rows


FAMILIES = [(7, 1), (257, 1), (2, 6), (3, 3), (2, 17), (5, 7)]


@pytest.mark.parametrize("p,e", FAMILIES)
def test_row_evaluator_matches_poly_eval_per_row(p, e):
    spec = field_make(p, e)
    vec = spec.vec
    rng = rng_stream(409, spec.q)
    xs = rng.integers(spec.q, size=9)
    xs[:2] = 0, spec.q - 1
    for nrows, ncols in [(0, 3), (1, 1), (1, 4), (6, 1), (7, 5)]:
        rows = rng.integers(spec.q, size=(nrows, ncols))
        got = vec.poly_eval_rows(rows, xs)
        assert got.shape == (nrows, len(xs))
        assert got.tolist() == [vec.poly_eval(list(row), xs).tolist() for row in rows]


@pytest.mark.parametrize("p,e", FAMILIES)
def test_elimination_matches_scalar_reference(p, e):
    spec = field_make(p, e)
    rng = rng_stream(404, p ** e)
    cases = [([], 0), ([], 3), ([[]], 0), ([[], []], 0), ([[0, 0, 0]], 3), ([[1]], 1)]
    for trial in range(24):
        nrows, ncols = 1 + int(rng.integers(9)), 1 + int(rng.integers(9))
        rank = None if trial % 3 == 0 else int(rng.integers(min(nrows, ncols) + 1))
        zero_cols = [c for c in range(ncols) if trial % 4 == 1 and c % 3 == 0]
        cases.append((_random_system(spec, rng, nrows, ncols, rank, zero_cols), ncols))
    cases.append((_random_system(spec, rng, 12, 5), 5))  # ncols < nrows
    cases.append((_random_system(spec, rng, 12, 5, rank=3), 5))
    cases += [(_random_system(spec, rng, 9, 10, rank), 10) for rank in (None, 6)]
    for rows, ncols in cases:
        assert nullspace_vector(rows, ncols, spec) == _ref_nullspace(rows, ncols, spec)
        assert matrix_rank(rows, ncols, spec) == _ref_rank(rows, ncols, spec)


# (rows, columns, rank bound, zero columns): panel edges at 31/32/33 and 64/65,
# tall and wide, rank-deficient, zero rows and columns, and a whole panel of
# zero columns, which finds no pivot
BLOCK_SHAPES = [
    (40, 31, None, ()),
    (31, 32, None, ()),
    (33, 33, 20, (0, 31, 32)),
    (20, 65, None, ()),
    (70, 65, 45, range(32, 64)),
    (64, 65, 64, (64,)),
    (0, 65, None, ()),
    (12, 0, None, ()),
    (100, 100, 97, (5, 50)),
    (40, 70, 37, ()),
]


def _deep_system(p, nrows, ncols):
    """Entry (i, c) is min(i, c) - 1 mod p off the diagonal and min(i, c) + 1
    on it.  Every pivot is 1 and every other entry of its column and row is
    p - 1 when its turn comes, so each rank-one update subtracts (p - 1)^2
    from every entry right of and below the pivot, in every panel: an entry
    of the panel takes PANEL - 1 such updates before its column is reduced."""
    i, c = np.indices((nrows, ncols))
    return ((np.minimum(i, c) - 1 + 2 * (i == c)) % p).tolist()


# 8191 is the largest prime whose panel is int32, 8209 the smallest whose
# panel is int64
@pytest.mark.parametrize("p,e", FAMILIES + [(1048573, 1), (8191, 1), (8209, 1)])
def test_blocked_elimination_matches_scalar_reference(p, e):
    spec = field_make(p, e)
    rng = rng_stream(408, spec.q)
    systems = [(_random_system(spec, rng, nrows, ncols, rank, zero_cols), ncols)
               for nrows, ncols, rank, zero_cols in BLOCK_SHAPES]
    if e == 1:
        systems += [(_deep_system(p, 70, 75), 75), (_deep_system(p, 75, 70), 70)]
    for rows, ncols in systems:
        assert nullspace_vector(rows, ncols, spec) == _ref_nullspace(rows, ncols, spec)
        assert matrix_rank(rows, ncols, spec) == _ref_rank(rows, ncols, spec)


@pytest.mark.parametrize("p", [8191, 8209])
def test_elimination_drives_panel_entries_to_their_bound(p, monkeypatch):
    # every representative the elimination reduces passes through vec.reduce;
    # on the deep system the lowest is a code minus PANEL - 1 products
    # (p - 1)^2, past -2^30.9 at p = 8191, where the panel is int32
    vec = field_make(p).vec
    lowest = []
    reduce = vec.reduce
    monkeypatch.setattr(vec, "reduce", lambda a: lowest.append(int(a.min(initial=0))) or reduce(a))
    for nrows, ncols in [(70, 75), (75, 70)]:
        rows = _deep_system(p, nrows, ncols)
        lowest.clear()
        assert matrix_rank(rows, ncols, field_make(p)) == 70
        assert min(lowest) <= p - (PANEL - 1) * (p - 1) ** 2
        lowest.clear()
        assert (nullspace_vector(rows, ncols, field_make(p)) is None) == (ncols == 70)
        assert min(lowest) <= p - (PANEL - 1) * (p - 1) ** 2


@pytest.mark.parametrize("p,dtype", [(8191, np.int32), (8209, np.int64), (1048573, np.int64)])
@pytest.mark.parametrize("cols", [3, 300])  # below and above REMAINDER_CELLS: both reduce paths
def test_panel_dtype_holds_panel_unreduced_updates(p, dtype, cols):
    # the largest entry a panel can reach: a code, minus PANEL products of
    # codes, each (p - 1)^2, with no reduction in between
    assert interpolate._panel_dtype(p) is dtype
    assert (2 * cols < REMAINDER_CELLS) == (cols == 3)
    vec = field_make(p).vec
    panel = np.full((2, cols), p - 1, dtype=dtype)
    for _ in range(PANEL):
        vec.sub_mul(panel, np.full(cols, p - 1, dtype=dtype), np.full((2, 1), p - 1))
    assert panel.min() == p - 1 - PANEL * (p - 1) ** 2
    want = functools.reduce(field_make(p).sub, [field_make(p).mul(p - 1, p - 1)] * PANEL, p - 1)
    assert vec.reduce(panel).tolist() == [[want] * cols] * 2


# every family: prime, F_2, GF(2^e) log tables (also above 2^16) and odd
# p^e Zech tables
KERNEL_FAMILIES = ["7", "257", "2", "2^6", "3^3", "2^17"]


@pytest.fixture(params=KERNEL_FAMILIES)
def kernel_field(request):
    return parse_field_spec(request.param)


def _system_free_at(spec, rng, nrows, ncols, f):
    """Random rows whose first free column is f <= nrows: columns 0..f-1
    hold an invertible f x f block, rows shuffled, and column f (if any) is
    a random combination of them."""
    rows = np.array(_random_system(spec, rng, nrows, ncols), dtype=np.int64)
    block = rows[:f, :f]
    block[np.triu_indices(f)] = 0
    block[np.diag_indices(f)] = 1
    if f < min(nrows, ncols):
        rows[:, f] = spec.vec.dot(rows[:, :f], rng.integers(spec.q, size=(f, 1)),
                                  np.zeros((nrows, 1), dtype=np.int64))[:, 0]
    return rows[rng.permutation(nrows)].tolist()


def test_kernel_stops_at_the_first_free_column(kernel_field):
    spec = kernel_field
    rng = rng_stream(409, spec.q)
    for f in (0, PANEL - 1, PANEL, 2 * PANEL):
        nrows, ncols = f + 3, f + 5
        rows = _system_free_at(spec, rng, nrows, ncols, f)
        ref = _ref_nullspace(rows, ncols, spec)
        assert max(c for c, x in enumerate(ref) if x) == f
        assert nullspace_vector(rows, ncols, spec) == ref
        assert matrix_rank(rows, ncols, spec) == _ref_rank(rows, ncols, spec)
    # f = nrows: the rows are independent, and every column past them is free
    for nrows in (PANEL - 1, PANEL, PANEL + 1):
        rows = _system_free_at(spec, rng, nrows, nrows + 2, nrows)
        ref = _ref_nullspace(rows, nrows + 2, spec)
        assert ref[nrows:] == [1, 0]
        assert nullspace_vector(rows, nrows + 2, spec) == ref
        assert matrix_rank(rows, nrows + 2, spec) == nrows


def test_kernel_of_tall_zero_and_single_column_matrices(kernel_field):
    spec = kernel_field
    rng = rng_stream(410, spec.q)
    cases = [
        (_random_system(spec, rng, 50, 40, rank=35), 40),  # tall, dependent rows
        (_random_system(spec, rng, 45, PANEL + 1, rank=PANEL), PANEL + 1),
        (_random_system(spec, rng, 40, 36), 36),  # tall, trivial kernel (likely)
        ([[0] * 37 for _ in range(40)], 37),
        ([[0] * 5 for _ in range(3)], 5),
        ([[0]], 1),
        ([[1]], 1),
        ([[0], [0], [0]], 1),
        ([[0], [1], [0]], 1),
        ([[int(rng.integers(1, spec.q))] for _ in range(PANEL + 2)], 1),
    ]
    for rows, ncols in cases:
        assert nullspace_vector(rows, ncols, spec) == _ref_nullspace(rows, ncols, spec)
        assert matrix_rank(rows, ncols, spec) == _ref_rank(rows, ncols, spec)


def test_wide_kernel_is_the_padded_kernel_of_the_first_columns(kernel_field):
    # the first free column is at most nrows, so the columns past nrows never
    # enter the vector
    spec = kernel_field
    rng = rng_stream(411, spec.q)
    for nrows, ncols, rank in [(20, 150, None), (PANEL + 3, 5 * PANEL, None),
                               (40, 200, 30), (3, 70, 1), (1, 9, None)]:
        rows = _random_system(spec, rng, nrows, ncols, rank)
        head = [row[: nrows + 1] for row in rows]
        ref = _ref_nullspace(head, nrows + 1, spec)
        assert nullspace_vector(rows, ncols, spec) == ref + [0] * (ncols - nrows - 1)
        assert nullspace_vector(np.array(rows), ncols, spec) == ref + [0] * (ncols - nrows - 1)
        assert matrix_rank(rows, ncols, spec) == _ref_rank(rows, ncols, spec)


def test_kernel_products_stay_below_the_pivots(monkeypatch):
    """The products a kernel search forms, in order: each panel's trailing
    update on the rows from its first pivot down, over the first nrows + 1
    columns only, and none from the panel that holds the first free column;
    then one product per solved panel, right to left, into the rows above."""
    spec = field_make(257)
    shapes = []
    dot = spec.vec.dot
    monkeypatch.setattr(spec.vec, "dot",
                        lambda a, b, c: shapes.append((np.shape(a), np.shape(b))) or dot(a, b, c))
    rng = rng_stream(412, spec.q)
    nrows = 3 * PANEL + 4
    rows = _system_free_at(spec, rng, nrows, nrows + 50, nrows)
    assert nullspace_vector(rows, nrows + 50, spec) == _ref_nullspace(rows, nrows + 50, spec)
    trailing = [((nrows - t * PANEL, PANEL), (PANEL, nrows + 1 - (t + 1) * PANEL))
                for t in range(3)]
    back = [((3 * PANEL, 4), (4, 1)), ((2 * PANEL, PANEL), (PANEL, 1)),
            ((PANEL, PANEL), (PANEL, 1))]
    assert shapes == trailing + back
    # a free first column ends the search before any product
    rows = _system_free_at(spec, rng, nrows, nrows + 50, 0)
    shapes.clear()
    assert nullspace_vector(rows, nrows + 50, spec) == [1] + [0] * (nrows + 49)
    assert shapes == []


# (n, k, t, eps) of rs-decode instances whose Guruswami-Sudan systems, 42 x 63
# at m = 3 and 60 x 70 at m = 4, span two panels; the first panel's swaps
# move 14 to 29 of its rows on every family
GS_SHAPES = [(7, 1, 4, "1/4"), (6, 2, 4, "1/16")]


def _gs_system(spec, seed, n, k, t, eps):
    """The constraint rows and column count that ``gs_interpolate`` hands to
    ``nullspace_vector`` for a seeded received word of n points."""
    rng = rng_stream(seed, spec.q)
    alphas = tuple(int(a) for a in rng.choice(spec.q, size=n, replace=False))
    betas = tuple(int(b) for b in rng.integers(spec.q, size=n))
    inst = rs.RSInstance(spec, alphas, betas, k=k, t=t)
    params = rs.choose_params(inst, Fraction(eps))
    basis = WeightedDegreeBasis(d=params.d, k=k, ydeg_cap=params.ydeg_cap)
    problem = InterpolationProblem(spec, 2, tuple(zip(alphas, betas)), params.m, basis)
    return vanishing_constraints(problem).tolist(), basis.count()


@pytest.mark.parametrize("p,e", FAMILIES)
def test_elimination_of_gs_systems_matches_scalar_reference(p, e, monkeypatch):
    # rows swap in many columns of the first panel, so the columns right of
    # it are only right when they take the panel's row permutation
    spec = field_make(p, e)
    moved = []
    reduce_panel = interpolate._reduce_panel

    def counting(*args):
        panel, order = reduce_panel(*args)
        moved.append(int(np.count_nonzero(order != np.arange(len(order)))))
        return panel, order

    monkeypatch.setattr(interpolate, "_reduce_panel", counting)
    for seed, (n, k, t, eps) in enumerate(GS_SHAPES):
        rows, ncols = _gs_system(spec, 413 + seed, n, k, t, eps)
        # as built; with column 34 a copy of column 3, so that the first free
        # column is 34, inside the second panel; and cut to its first 40 rows
        twin = [row[:34] + [row[3]] + row[35:] for row in rows]
        moved.clear()
        for case in (rows, twin, rows[:40]):
            ref = _ref_nullspace(case, ncols, spec)
            assert nullspace_vector(case, ncols, spec) == ref
            assert matrix_rank(case, ncols, spec) == _ref_rank(case, ncols, spec)
            if case is twin:
                assert max(c for c, x in enumerate(ref) if x) == 34
        assert len(rows) > PANEL and moved[0] >= PANEL // 4


# ---------------------------------------------------------------------------
# constraint rows and the Y-root scan against scalar references
# ---------------------------------------------------------------------------


def _ref_constraints(problem):
    """Scalar row build: C(r, i) * a^(r - i) one cell at a time."""
    from math import comb

    spec, p = problem.spec, problem.spec.p
    monomials = problem.basis.monomials()
    rows = []
    for a in problem.points:
        for i in exponents_below_weight(problem.m, problem.n):
            row = []
            for r in monomials:
                val = 1
                for rk, ik, ak in zip(r, i, a):
                    val = spec.mul(val, comb(rk, ik) % p) if rk >= ik else 0
                    if rk > ik:
                        val = spec.mul(val, spec.pow(ak, rk - ik))
                row.append(val)
            rows.append(row)
    return rows


@pytest.mark.parametrize("p,e", [(5, 1), (257, 1), (2, 3), (3, 2), (2, 17), (5, 7)])
def test_constraint_rows_match_scalar_build(p, e):
    spec = field_make(p, e)
    rng = rng_stream(406, spec.q)
    for trial in range(8):
        n = 2 if trial % 2 else 1 + int(rng.integers(3))
        points = {tuple(int(x) for x in rng.integers(spec.q, size=n)) for _ in range(4)}
        points.add((0,) * n)
        if trial % 2:
            basis = WeightedDegreeBasis(d=6 + trial, k=2, ydeg_cap=3)
        else:
            basis = TotalDegreeBasis(n, int(rng.integers(7)))
        m = 1 + int(rng.integers(3))
        problem = InterpolationProblem(spec, n, tuple(sorted(points)), m, basis)
        assert vanishing_constraints(problem).tolist() == _ref_constraints(problem)
    empty = InterpolationProblem(spec, 2, (), 2, TotalDegreeBasis(2, 2))
    assert vanishing_constraints(empty).tolist() == []


@pytest.mark.parametrize("p,e", [(5, 1), (1048573, 1), (2, 6), (3, 3), (2, 16)])
def test_root_scan_matches_scalar_evaluation(p, e):
    spec = field_make(p, e)
    rng = rng_stream(407, spec.q)
    ys = range(spec.q) if spec.q <= 2 ** 12 else [0, 1, spec.q - 1] + [
        int(y) for y in rng.integers(spec.q, size=300)
    ]
    for _ in range(3):
        coeffs = [int(c) for c in rng.integers(spec.q, size=4)] + [1]
        # plant a root so the scan has something to find
        coeffs[0] = spec.sub(coeffs[0], scalar_ref.uni_eval(coeffs, ys[-1], spec))
        roots = rs._field_roots(coeffs, spec)
        assert roots == sorted(roots)
        for y in ys:
            assert (y in roots) == (scalar_ref.uni_eval(coeffs, y, spec) == 0)


@pytest.mark.parametrize("p,e", FAMILIES + [(2, 16), (1048573, 1)])
def test_linear_root_matches_the_scan(p, e):
    # c0 + c1*Y gives -c0/c1 without the scan; Horner's rule over all of F_q
    # is the oracle, and a nonzero constant has no root
    spec = field_make(p, e)
    rng = rng_stream(414, spec.q)
    ys = np.arange(spec.q)
    lines = [(0, 1), (spec.q - 1, 1), (1, spec.q - 1), (0, spec.q - 1)]
    lines += [(int(rng.integers(spec.q)), int(rng.integers(1, spec.q))) for _ in range(6)]
    for c0, c1 in lines:
        scan = np.flatnonzero(spec.vec.poly_eval([c0, c1], ys) == 0).tolist()
        assert len(scan) == 1
        assert rs._field_roots([c0, c1], spec) == scan
        assert rs._field_roots([c1], spec) == []


@pytest.mark.parametrize("p,e", FAMILIES + [(2, 1)])
def test_root_search_matches_term_map_search(p, e):
    # the array shift Q(X, y0 + XY) and test Q(X, y0) = 0 against the term-map
    # steps, alone and through a search of depth k
    spec = field_make(p, e)
    rng = rng_stream(409, spec.q)
    X, Y = MultiPoly.variable(spec, 2, 0), MultiPoly.variable(spec, 2, 1)
    stripped = 0
    for trial in range(16):
        R = random_poly(spec, 2, rng, max_deg=3, max_terms=4, nonzero=True)
        y0 = int(rng.integers(spec.q))
        f = MultiPoly(spec, 2, {(j, 0): int(c) for j, c in enumerate(rng.integers(spec.q, size=3))})
        Q = [
            (Y - MultiPoly.constant(spec, 2, y0)) * R,  # the shift leaves X^1 to strip
            (Y - f) * R,  # the root f of degree <= 2
            (Y - f - X * X * Y) * R,
            X.power(trial % 5) * R,
        ][trial % 4]
        levels = rs._y_levels(Q)
        ys = np.arange(len(levels))
        binom = lucas_binomial(p, len(levels) - 1)(ys, ys[:, None])
        for y in (y0, int(rng.integers(spec.q))):
            shifted = rs._shift_levels(levels, y, binom, spec.vec)
            want = scalar_ref.substitute_shift(Q.terms, y, spec)
            nz = np.argwhere(shifted)
            assert {(int(i), int(j)): int(shifted[j, i]) for j, i in nz} == want
            stripped += not shifted[:, 0].any()
        for k in range(3):
            found = []
            rs._rr_search(levels, 0, k, (), found, spec, binom)
            assert found == scalar_ref.y_roots_search(Q.terms, k, spec)
    assert stripped >= 4
