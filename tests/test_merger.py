import functools
import itertools
import os
import subprocess
import sys
import textwrap
import time
from collections import Counter
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import ffmult
from ffmult import errors
from ffmult import merger as mg
from ffmult.ff import code_points, field_make, rng_stream
from ffmult.selftest import (
    clip_redistribute,
    excess_mass_grid_minimum,
    statistical_distance_subset_max,
)

import scalar_ref

F4 = field_make(2, 2)
F5 = field_make(5)
F64 = field_make(2, 6)


# ---------------------------------------------------------------------------
# merger construction and evaluation
# ---------------------------------------------------------------------------

def test_lagrange_basis_two_nodes():
    ms = mg.merger_make(F5, 1, 2)
    assert ms.gamma == (0, 1)
    # c1(u) = 1 - u, c2(u) = u
    assert ms.basis[0] == (1, 4)
    assert ms.basis[1] == (0, 1)


def test_single_block_merger_is_identity():
    ms = mg.merger_make(F5, 2, 1)
    assert ms.basis == ((1,),)
    for u in range(5):
        assert mg.f_dw(ms, [(3, 1)], u) == (3, 1)


@pytest.mark.parametrize("p,e", [(5, 1), (257, 1), (2, 6), (3, 3), (2, 17), (5, 7)])
def test_lagrange_basis_matches_scalar_products(p, e):
    # the node polynomial and its synthetic division against one scalar
    # product of linear factors per node; the 2-D Horner mix table against
    # one scalar evaluation per (block, seed)
    spec = field_make(p, e)
    rng = rng_stream(61, spec.q)
    for L in (L for L in (1, 2, 3, 7, 33) if L <= spec.q):
        gamma = tuple(int(g) for g in rng.choice(min(spec.q, 10 ** 4), size=L, replace=False))
        ms = mg.merger_make(spec, 1, L, gamma)
        assert ms.basis == scalar_ref.lagrange_basis(spec, gamma)
        seeds = rng.integers(spec.q, size=20).tolist()
        table = ms.mix_table()
        assert table.shape == (L, spec.q)
        assert table[:, seeds].T.tolist() == [list(scalar_ref.mix_coeffs(ms, u)) for u in seeds]


@pytest.mark.parametrize("p,e", [(5, 1), (257, 1), (2, 6), (3, 3), (2, 17), (5, 7)])
def test_lagrange_check_rejects_every_corrupted_coefficient(p, e):
    # a changed coefficient moves b_i off the node grid; the O(L^2) check must
    # see it, at nodes that include 0 (where b_i(0) ignores all but b_i[0])
    spec = field_make(p, e)
    rng = rng_stream(62, spec.q)
    for L in (1, 2, 3, 5):
        random_gamma = tuple(int(g) for g in rng.choice(min(spec.q, 10 ** 4), size=L, replace=False))
        for gamma in (tuple(range(L)), random_gamma):
            basis = np.array(scalar_ref.lagrange_basis(spec, gamma), dtype=np.int64)
            node_poly = np.array(functools.reduce(
                lambda acc, g: scalar_ref.uni_mul(acc, [spec.neg(g), 1], spec), gamma, [1]))
            nodes = np.array(gamma, dtype=np.int64)
            assert mg._is_lagrange_basis(spec.vec, nodes, node_poly, basis)
            # the rows still follow N's upper coefficients, but N misses the nodes
            off_nodes = node_poly.copy()
            off_nodes[0] = spec.add(int(off_nodes[0]), 1)
            assert not mg._is_lagrange_basis(spec.vec, nodes, off_nodes, basis)
            for i, k in itertools.product(range(L), repeat=2):
                bad = basis.copy()
                bad[i, k] = spec.add(int(bad[i, k]), 1 + int(rng.integers(spec.q - 1)))
                assert not mg._is_lagrange_basis(spec.vec, nodes, node_poly, bad), (gamma, i, k)


def test_many_blocks_build_fast_and_large_tables_are_refused(capsys):
    from ffmult.cli import main

    # L = 1000 blocks over GF(2^12): the basis is built and checked in O(L^2)
    start = time.perf_counter()
    assert main(["merger-verify", "--delta", "1", "--eps", "1/2", "--lambda", "1000", "--n", "0"]) == 0
    assert time.perf_counter() - start < 1
    assert '"all_ok": true' in capsys.readouterr().out
    # the L x q mix table is bounded by the enumeration cap
    spec = field_make(2, 20)
    with pytest.raises(errors.EnumerationTooLarge, match="mix table"):
        mg.merger_make(spec, 0, mg.ENUMERATION_CAP // spec.q + 1)
    assert mg.merger_make(spec, 0, 2).basis == ((1, 1), (0, 1))


def test_too_few_field_elements():
    with pytest.raises(errors.TooFewFieldElements):
        mg.merger_make(field_make(2), 1, 3)


def test_duplicate_nodes_rejected():
    with pytest.raises(errors.DuplicateNodes):
        mg.merger_make(F5, 1, 2, gamma=(1, 1))


def test_f_dw_node_interpolation_and_unity():
    ms = mg.merger_make(F4, 2, 3)
    blocks = [(0, 1), (2, 3), (1, 1)]
    for i, g in enumerate(ms.gamma):
        assert mg.f_dw(ms, blocks, g) == blocks[i]
    for u in range(4):
        assert mg.f_dw(ms, [(2, 3)] * 3, u) == (2, 3)


def test_f_dw_worked_example_f5():
    ms = mg.merger_make(F5, 1, 2)
    # (1-4)*2 + 4*3 = 6 = 1 mod 5
    assert mg.f_dw(ms, [(2,), (3,)], 4) == (1,)


def test_f_dw_dimension_mismatch():
    ms = mg.merger_make(F5, 2, 2)
    with pytest.raises(errors.DimensionMismatch):
        mg.f_dw(ms, [(1, 2)], 0)


# ---------------------------------------------------------------------------
# seed length
# ---------------------------------------------------------------------------

def test_seed_length_examples():
    assert mg.seed_length(Fraction(1, 2), Fraction(1, 2), 2) == 6
    assert mg.seed_length(1, Fraction(1, 2), 1) == 2
    with pytest.raises(errors.InvalidParameters):
        mg.seed_length(0, Fraction(1, 2), 2)
    with pytest.raises(errors.InvalidParameters):
        mg.seed_length(Fraction(1, 2), 1, 2)


def _exact_seed_length(delta, eps, blocks):
    """The smallest d with 2^(d*a) * rd^b >= rn^b, walked up from 0."""
    a, b = delta.numerator, delta.denominator
    ratio = Fraction(2 * blocks) / eps
    d = 0
    while 2 ** (d * a) * ratio.denominator ** b < ratio.numerator ** b:
        d += 1
    return d


def test_seed_length_float_bound_matches_exact_walk():
    # powers of 2 put x exactly on an integer, and 2L/eps = 4(1 + 2^-50) puts
    # it 2^-50/ln 2 above one, where log2 in float64 reads exactly 2
    rng = rng_stream(62, 0)
    cases = [(Fraction(1), Fraction(1, 2), 1), (Fraction(1, 2), Fraction(1, 4), 2),
             (Fraction(3, 7), Fraction(1, 2), 4), (Fraction(999, 1000), Fraction(1, 2), 2),
             (Fraction(1), Fraction(2 ** 50, 2 ** 50 + 1), 2)]
    for _ in range(300):
        a, b = sorted(int(x) for x in rng.integers(1, 60, size=2))
        eps = Fraction(int(rng.integers(1, 40)), 41)
        cases.append((Fraction(a, b), eps, int(rng.integers(1, 9))))
    for delta, eps, blocks in cases:
        assert mg.seed_length(delta, eps, blocks) == _exact_seed_length(delta, eps, blocks)


def test_seed_length_monotone_in_delta():
    prev = 0
    for denom in (1, 2, 3, 4, 5, 8, 16):
        d = mg.seed_length(Fraction(1, denom), Fraction(1, 2), 2)
        assert d >= prev
        prev = d


def test_seed_length_meets_size_hypothesis():
    # 2L/eps of every form: a power of 2, an integer, a fraction such as 16/3
    # whose bit lengths overstate floor(log2)
    fracs = [Fraction(1, 2), Fraction(1, 3), Fraction(2, 3), Fraction(3, 4), Fraction(1, 5)]
    for delta, eps, blocks in itertools.chain(
        [(Fraction(1, 3), Fraction(1, 4), 3), (Fraction(2, 3), Fraction(1, 2), 5)],
        itertools.product([Fraction(1)] + fracs, fracs, (1, 2, 3)),
    ):
        d = mg.seed_length(delta, eps, blocks)
        ratio = Fraction(2 * blocks) / eps
        a, b = delta.numerator, delta.denominator
        # q = 2^d satisfies q^delta >= 2L/eps, compared via b-th powers
        assert Fraction(2) ** (d * a) >= ratio ** b
        if d > 0:
            assert Fraction(2) ** ((d - 1) * a) < ratio ** b  # and d is minimal


# ---------------------------------------------------------------------------
# exact distributions
# ---------------------------------------------------------------------------

def test_single_block_distribution_uniform():
    ms = mg.merger_make(F4, 1, 1)
    src = mg.SourceSpec(F4, 1, 1, 0, {})
    dist = mg.exact_output_distribution(ms, src)
    assert dist == mg.Distribution.uniform([(c,) for c in range(4)])


def test_identical_blocks_distribution_uniform():
    ms = mg.merger_make(F4, 1, 2)
    src = mg.SourceSpec(F4, 1, 2, 0, {1: mg.AffineMap([[1]], [0])})
    dist = mg.exact_output_distribution(ms, src)
    assert dist == mg.Distribution.uniform([(c,) for c in range(4)])


def test_constant_zero_block_hand_table():
    # 16 (x, u) pairs: u with c1(u) = 0 sends everything to zero
    ms = mg.merger_make(F4, 1, 2)
    src = mg.SourceSpec(F4, 1, 2, 0, {1: mg.AffineMap([[0]], [0])})
    dist = mg.exact_output_distribution(ms, src)
    expected = {(0,): Fraction(7, 16), (1,): Fraction(3, 16),
                (2,): Fraction(3, 16), (3,): Fraction(3, 16)}
    assert dist == mg.Distribution(expected, 4)


def test_distribution_dimension_mismatch():
    ms = mg.merger_make(F4, 2, 2)
    src = mg.SourceSpec(F4, 1, 2, 0, {1: mg.AffineMap([[1]], [0])})
    with pytest.raises(errors.DimensionMismatch):
        mg.exact_output_distribution(ms, src)


def test_uniform_index_placement():
    # the uniform block may sit at any index; node interpolation still holds
    ms = mg.merger_make(F5, 1, 2)
    src = mg.SourceSpec(F5, 1, 2, 1, {0: mg.AffineMap([[0]], [2])})
    dist = mg.exact_output_distribution(ms, src)
    assert sum(dist.probs.values()) == 1
    assert dist.universe_size == 5


# ---------------------------------------------------------------------------
# exact distributions against scalar references
# ---------------------------------------------------------------------------

def _scalar_distribution(ms, src):
    """Scalar enumeration of every (block, seed) pair, kept as the reference."""
    spec, n, q = ms.spec, ms.n, ms.spec.q
    mix_tabs = []
    for u in range(q):
        mix = scalar_ref.mix_coeffs(ms, u)
        mix_tabs.append([[spec.mul(ci, x) for x in range(q)] for ci in mix])
    counts = {}
    for v in itertools.product(range(q), repeat=n):
        blocks = scalar_ref.realize(src, v)
        for u in range(q):
            tabs = mix_tabs[u]
            out = []
            for coord in range(n):
                acc = 0
                for i, blk in enumerate(blocks):
                    acc = spec.add(acc, tabs[i][blk[coord]])
                out.append(acc)
            key = tuple(out)
            counts[key] = counts.get(key, 0) + 1
    total = q ** (n + 1)
    return mg.Distribution({o: Fraction(c, total) for o, c in counts.items()}, q ** n)


def _f_dw_distribution(ms, src):
    """The merger output counted by f_dw over every (v, u)."""
    q, n = ms.spec.q, ms.n
    counts = Counter(
        mg.f_dw(ms, scalar_ref.realize(src, v), u)
        for v in itertools.product(range(q), repeat=n)
        for u in range(q)
    )
    total = q ** (n + 1)
    return mg.Distribution({o: Fraction(c, total) for o, c in counts.items()}, q ** n)


def _every_map_kind(spec, n, rng):
    """The identity, a constant (the zero matrix), a coordinate permutation
    and a random affine map, each an AffineMap, and a random TableMap."""
    def point():
        return tuple(int(c) for c in rng.integers(spec.q, size=n))

    eye = np.eye(n, dtype=np.int64).tolist()
    return [
        mg.AffineMap(eye, (0,) * n),
        mg.AffineMap([(0,) * n] * n, point()),
        mg.AffineMap([eye[j] for j in rng.permutation(n)], (0,) * n),
        mg.AffineMap([point() for _ in range(n)], point()),
        mg.TableMap({v: point() for v in itertools.product(range(spec.q), repeat=n)}),
    ]


# (p, e, n): n = 2 where q^3 <= 4096, n = 1 above that
DIFF_FIELDS = [
    (2, 1, 3), (3, 1, 2), (5, 1, 2), (7, 1, 2), (13, 1, 2),
    (2, 2, 2), (2, 3, 2), (2, 4, 2), (2, 5, 1), (2, 6, 1),
    (3, 2, 2), (3, 3, 1),
]


@pytest.mark.parametrize("p,e,n", DIFF_FIELDS)
def test_exact_distribution_matches_scalar_references(p, e, n):
    spec = field_make(p, e)
    rng = rng_stream(4242, spec.q * 10 + n)
    maps = _every_map_kind(spec, n, rng)
    checked = 0
    for L in range(1, min(3, spec.q) + 1):
        random_gamma = tuple(int(g) for g in rng.choice(spec.q, size=L, replace=False))
        for gamma in (None, random_gamma):
            ms = mg.merger_make(spec, n, L, gamma)
            for ui in sorted({0, L - 1}):
                others = [j for j in range(L) if j != ui]
                for k in range(len(maps)):
                    # with two correlated blocks, pair each kind with the next
                    block_maps = {j: maps[(k + t) % len(maps)] for t, j in enumerate(others)}
                    src = mg.SourceSpec(spec, n, L, ui, block_maps)
                    dist = mg.exact_output_distribution(ms, src)
                    assert dist == _scalar_distribution(ms, src), (L, gamma, ui, k)
                    assert dist == _f_dw_distribution(ms, src), (L, gamma, ui, k)
                    checked += 1
                    if L == 1:
                        break  # no correlated blocks: every kind is the same source
    assert checked >= 5


@pytest.mark.parametrize("p,e,n", DIFF_FIELDS + [(5, 1, 0), (2, 3, 0)])
def test_array_maps_and_curve_match_scalar_oracles(p, e, n):
    # apply_all of every map kind on all of F_q^n against the image of one
    # point at a time, and the array f_dw against the scalar curve
    spec = field_make(p, e)
    rng = rng_stream(4248, spec.q * 10 + n)
    pts = list(itertools.product(range(spec.q), repeat=n))
    arr = np.array(pts, dtype=np.int64).reshape(len(pts), n)
    for bm in _every_map_kind(spec, n, rng):
        images = bm.apply_all(spec, arr)
        assert images.shape == arr.shape, type(bm).__name__
        assert list(map(tuple, images.tolist())) == [scalar_ref.apply(bm, spec, v) for v in pts], type(bm).__name__
    for L in range(1, min(4, spec.q) + 1):
        gamma = tuple(int(g) for g in rng.choice(spec.q, size=L, replace=False))
        ms = mg.merger_make(spec, n, L, gamma)
        for _ in range(10):
            blocks = [pts[i] for i in rng.integers(len(pts), size=L).tolist()]
            u = int(rng.integers(spec.q))
            assert mg.f_dw(ms, blocks, u) == scalar_ref.f_dw(ms, blocks, u), (L, blocks, u)


def test_exact_distribution_matches_scalar_reference_gf256():
    spec = field_make(2, 8)
    rng = rng_stream(4243)
    maps = _every_map_kind(spec, 1, rng)
    gamma = tuple(int(g) for g in rng.choice(spec.q, size=3, replace=False))
    ms = mg.merger_make(spec, 1, 3, gamma)
    for k, bm in enumerate(maps):
        ui = 0 if k % 2 else 2
        src = mg.SourceSpec(spec, 1, 3, ui, {j: bm for j in range(3) if j != ui})
        dist = mg.exact_output_distribution(ms, src)
        assert dist == _scalar_distribution(ms, src)
        if isinstance(bm, mg.TableMap):  # f_dw on all 2^16 pairs costs seconds
            assert dist == _f_dw_distribution(ms, src)


def test_exact_distribution_zero_dimensional_blocks():
    ms = mg.merger_make(F5, 0, 2)
    src = mg.SourceSpec(F5, 0, 2, 0, {1: mg.AffineMap((), ())})
    assert mg.exact_output_distribution(ms, src) == mg.Distribution.point_mass((), 1)


# ---------------------------------------------------------------------------
# blocked counts against the one-seed-at-a-time oracle
# ---------------------------------------------------------------------------

# (p, e, n), with at most 2^16 (seed, point) cells a block
BLOCKED_SHAPES = [
    (2, 6, 2),  # 4096 points, 16 seeds a block: 4 blocks
    (7, 2, 2),  # 2401 points, 27 seeds a block: the last block has 22
    (101, 1, 2),  # 10201 points, 6 seeds a block: 17 blocks, the last has 5
    (2, 8, 1),  # 256 points, every seed in one block
    (5, 1, 7),  # 78125 points: blocks of one seed, the second of 12589 points
    (3, 1, 0),  # one point with no coordinates
    (2, 4, 0),
]


def _check_blocked_counts(spec, n, seed):
    rng = rng_stream(seed, spec.q * 10 + n)
    maps = _every_map_kind(spec, n, rng)
    for L in range(2, min(3, spec.q) + 1):
        gamma = tuple(int(g) for g in rng.choice(spec.q, size=L, replace=False))
        ms = mg.merger_make(spec, n, L, gamma)
        for k in range(len(maps)):
            ui = k % L
            others = [j for j in range(L) if j != ui]
            block_maps = {j: maps[(k + t) % len(maps)] for t, j in enumerate(others)}
            src = mg.SourceSpec(spec, n, L, ui, block_maps)
            got = mg.output_counts(ms, src).tolist()
            assert got == scalar_ref.merger_counts_per_seed(ms, src).tolist(), (L, k)
        if spec.q ** n > 4096:
            break  # one L is enough on the large shapes


@pytest.mark.parametrize("p,e,n", BLOCKED_SHAPES)
def test_blocked_counts_match_per_seed_oracle(p, e, n):
    _check_blocked_counts(field_make(p, e), n, 4245)


def test_blocked_counts_guard_raises(monkeypatch):
    ms = mg.merger_make(F5, 1, 2)
    src = mg.SourceSpec(F5, 1, 2, 0, {1: mg.AffineMap([[1]], [0])})
    table = mg.MergerSpec.mix_table
    monkeypatch.setattr(mg.MergerSpec, "mix_table", lambda self: table(self)[:, :-1])
    with pytest.raises(errors.InternalDefect, match="20 outputs counted for q\\^\\(n\\+1\\) = 25"):
        mg.output_counts(ms, src)


# ---------------------------------------------------------------------------
# distributions built from counts
# ---------------------------------------------------------------------------

def _excess_or_refusal(dist, m):
    try:
        return mg.distance_to_min_entropy(dist, m)
    except errors.UniverseTooSmall:
        return "UniverseTooSmall"


@pytest.mark.parametrize("p,e,n", DIFF_FIELDS)
def test_counted_distribution_matches_init(p, e, n):
    spec = field_make(p, e)
    rng = rng_stream(4247, spec.q * 10 + n)
    ms = mg.merger_make(spec, n, 2)
    refused = 0
    for bm in _every_map_kind(spec, n, rng):
        dist = mg.exact_output_distribution(ms, mg.SourceSpec(spec, n, 2, 0, {1: bm}))
        ref = mg.Distribution(dist.probs, dist.universe_size)
        assert dist == ref
        assert dist.max_prob() == ref.max_prob() == max(ref.probs.values())
        for m in range(n * spec.q.bit_length() + 1):
            got = _excess_or_refusal(dist, m)
            assert got == _excess_or_refusal(ref, m), m
            if got == "UniverseTooSmall":
                refused += 1
            else:  # the excess-mass sum over every outcome, one at a time
                cap = Fraction(1, 2 ** m)
                assert got == sum((x - cap for x in ref.probs.values() if x > cap), Fraction(0))
    assert refused


@pytest.mark.parametrize("bm,error", [
    ({"type": "constant", "value": [7, 0]}, errors.InvalidParameters),
    ({"type": "constant", "value": [-1, 0]}, errors.InvalidParameters),
    ({"type": "constant", "value": [1.0, 0]}, errors.InvalidParameters),
    ({"type": "constant", "value": [1]}, errors.DimensionMismatch),
    ({"type": "permutation", "perm": [1, 1]}, errors.InvalidParameters),
    ({"type": "permutation", "perm": [0, 2]}, errors.InvalidParameters),
    ({"type": "permutation", "perm": [0, 1, 2]}, errors.DimensionMismatch),
    (mg.AffineMap(((1, 0), (0, 5)), (0, 0)), errors.InvalidParameters),
    (mg.AffineMap(((1, 0), (0, 1)), (0, 9)), errors.InvalidParameters),
    (mg.AffineMap(((1, 0),), (0, 0)), errors.DimensionMismatch),
    (mg.AffineMap(((1, 0), (0,)), (0, 0)), errors.DimensionMismatch),
    (mg.AffineMap(((1, 0), (0, 1)), (0,)), errors.DimensionMismatch),
    (mg.TableMap({(0, 0): (0, 0)}), errors.InvalidParameters),
    (mg.TableMap({v: (5, 0) for v in itertools.product(range(5), repeat=2)}),
     errors.InvalidParameters),
    (mg.TableMap({(v[0] + 5, v[1]): v for v in itertools.product(range(5), repeat=2)}),
     errors.InvalidParameters),
    ("not a map", errors.InvalidParameters),
])
def test_source_rejects_bad_block_maps(bm, error):
    # the array path would wrap an out-of-range code where the scalar one
    # failed; a JSON source is refused whatever the number of blocks
    if isinstance(bm, dict):
        for num_blocks in (1, 2, 3):
            with pytest.raises(error):
                mg.source_from_json(F5, 2, num_blocks, bm)
    else:
        with pytest.raises(error):
            mg.SourceSpec(F5, 2, 2, 0, {1: bm})


@pytest.mark.parametrize("num_blocks", [1, 2, 4])
def test_source_from_json_validates_its_one_map_once(monkeypatch, num_blocks):
    seen = []
    validate = mg.AffineMap.validate
    monkeypatch.setattr(mg.AffineMap, "validate",
                        lambda bm, spec, n: seen.append(bm) or validate(bm, spec, n))
    src = mg.source_from_json(F4, 2, num_blocks, {"type": "affine", "matrix": [[1, 2], [3, 0]]})
    assert len(seen) == 1 and all(bm is seen[0] for bm in src.block_maps.values())
    for bad in ({"type": "constant", "value": [9, 9]},
                {"type": "permutation", "perm": [9, 9]},
                {"type": "affine", "matrix": [[9, 9], [9, 9]]}):
        with pytest.raises(errors.InvalidParameters):
            mg.source_from_json(F4, 2, num_blocks, bad)


def _explicit_images(spec, n, pts):
    """(JSON, the image of every row of pts): every type, with default and
    explicit fields; the affine image one scalar product at a time."""
    ones = [1] * n
    rotation = [(j + 1) % n for j in range(n)]
    matrix = [[(r + 2 * c + 1) % 4 for c in range(n)] for r in range(n)]

    def affine(offset):
        return np.array([[functools.reduce(spec.add, map(spec.mul, row, v), off)
                          for row, off in zip(matrix, offset)] for v in pts.tolist()])

    return [
        ({"type": "identical"}, pts),
        ({"type": "constant"}, np.broadcast_to(0, pts.shape)),
        ({"type": "constant", "value": ones}, np.broadcast_to(ones, pts.shape)),
        ({"type": "permutation"}, pts[:, rotation]),
        ({"type": "permutation", "perm": rotation[::-1]}, pts[:, rotation[::-1]]),
        ({"type": "affine", "matrix": matrix}, affine([0] * n)),
        ({"type": "affine", "matrix": matrix, "offset": ones}, affine(ones)),
    ]


@pytest.mark.parametrize("spec", [F4, F5], ids=["4", "5"])
@pytest.mark.parametrize("n", [1, 2])
def test_source_from_json_builds_the_explicit_maps(spec, n):
    pts = code_points(np.arange(spec.q ** n), spec.q, n)
    for data, want in _explicit_images(spec, n, pts):
        src = mg.source_from_json(spec, n, 3, data)
        assert src.label == data["type"] and src.uniform_index == 0
        assert sorted(src.block_maps) == [1, 2]
        bm = src.block_maps[1]
        assert type(bm) is mg.AffineMap and src.block_maps[2] is bm, data
        assert np.array_equal(bm.apply_all(spec, pts), want), data
    assert mg.source_from_json(spec, n, 2, {"type": "identical"}, label="x").label == "x"


@pytest.mark.parametrize("spec", [F4, field_make(2, 3)], ids=["4", "8"])
@pytest.mark.parametrize("n", [1, 2])
def test_default_family_matches_the_explicit_classes(spec, n):
    # each source against a TableMap of its formula: x, 0, all ones, the
    # rotation x_(r+1 mod n), and the band x_r + x_(r+1) + 1
    def band(v):
        return tuple(spec.add(spec.add(v[r], v[r + 1] if r + 1 < n else 0), 1) for r in range(n))

    explicit = [
        ("identical-blocks", lambda v: v),
        ("constant-zero", lambda v: (0,) * n),
        ("constant-ones", lambda v: (1,) * n),
        ("coordinate-rotation", lambda v: v[1:] + v[:1]),
        ("affine-image", band),
    ]
    pts = list(itertools.product(range(spec.q), repeat=n))
    for L in (1, 2, 3):
        ms = mg.merger_make(spec, n, L)
        family = mg.default_adversarial_family(spec, n, L)
        assert [src.label for src in family] == [label for label, _ in explicit]
        for src, (label, image) in zip(family, explicit, strict=True):
            bm = mg.TableMap({v: image(v) for v in pts})
            want = mg.SourceSpec(spec, n, L, 0, {j: bm for j in range(1, L)}, label=label)
            assert np.array_equal(mg.output_counts(ms, src), mg.output_counts(ms, want)), label


def test_source_rejects_negative_dimension():
    with pytest.raises(errors.InvalidParameters):
        mg.SourceSpec(F5, -1, 1, 0, {})
    for kind in ("identical", "constant", "permutation", "affine"):
        for num_blocks in (1, 2):
            with pytest.raises(errors.InvalidParameters, match="block dimension -1 is negative"):
                mg.source_from_json(F5, -1, num_blocks, {"type": kind})


def test_merger_make_guards_raise(monkeypatch):
    true_basis = mg.merger_make(F5, 1, 2).basis
    # every denominator inverted to 1 leaves the numerators unscaled
    monkeypatch.setattr(F5, "inv", lambda a: 1)
    with pytest.raises(errors.InternalDefect, match="wrong at node"):
        mg.merger_make(F5, 1, 2)
    # a wrong basis whose node checks pass: the node grid sees the true basis
    rows_eval = F5.vec.poly_eval_rows
    monkeypatch.setattr(F5.vec, "poly_eval_rows", lambda rows, xs: rows_eval(true_basis, xs))
    with pytest.raises(errors.InternalDefect, match="sums to"):
        mg.merger_make(F5, 1, 2)


def test_merger_make_guards_survive_optimize():
    script = textwrap.dedent("""
        import sys
        from ffmult import errors, merger as mg
        from ffmult.ff import field_make

        assert sys.flags.optimize, "not running under -O"
        spec = field_make(5)
        spec.inv = lambda a: 1
        try:
            mg.merger_make(spec, 1, 2)
            sys.exit("merger_make node check did not raise")
        except errors.InternalDefect:
            pass
        print("ok")
    """)
    src = str(Path(ffmult.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    out = subprocess.run([sys.executable, "-O", "-c", script], env=env,
                         capture_output=True, text=True, timeout=120)
    assert out.returncode == 0 and out.stdout == "ok\n", out.stderr


# ---------------------------------------------------------------------------
# statistical distance and entropy
# ---------------------------------------------------------------------------

def test_statistical_distance_examples():
    u = mg.Distribution.uniform([0, 1])
    assert mg.statistical_distance(u, u) == 0
    a = mg.Distribution.point_mass(0, universe_size=2)
    b = mg.Distribution.point_mass(1, universe_size=2)
    assert mg.statistical_distance(a, b) == 1
    p = mg.Distribution({0: Fraction(3, 4), 1: Fraction(1, 4)}, 2)
    assert mg.statistical_distance(p, u) == Fraction(1, 4)


def test_statistical_distance_universe_mismatch():
    with pytest.raises(errors.UniverseMismatch):
        mg.statistical_distance(
            mg.Distribution.uniform([0, 1]), mg.Distribution.uniform([0, 1, 2])
        )


def rational_dists(size):
    return st.lists(
        st.integers(0, 12), min_size=size, max_size=size
    ).filter(lambda w: sum(w) > 0).map(
        lambda w: mg.Distribution(
            {i: Fraction(x, sum(w)) for i, x in enumerate(w) if x}, size
        )
    )


@settings(max_examples=40, deadline=None)
@given(rational_dists(4), rational_dists(4), rational_dists(4))
def test_statistical_distance_is_a_metric(p, r, s):
    assert mg.statistical_distance(p, r) == mg.statistical_distance(r, p)
    assert mg.statistical_distance(p, p) == 0
    assert (
        mg.statistical_distance(p, r)
        <= mg.statistical_distance(p, s) + mg.statistical_distance(s, r)
    )


@settings(max_examples=30, deadline=None)
@given(rational_dists(5), rational_dists(5))
def test_half_l1_equals_subset_maximum(p, r):
    assert mg.statistical_distance(p, r) == statistical_distance_subset_max(p, r)


def test_min_entropy_examples():
    u8 = mg.Distribution.uniform(range(8))
    h = mg.min_entropy(u8)
    assert h.max_prob == Fraction(1, 8)
    assert h.at_least(3) and not h.at_least(4)
    assert h.bits == 3.0
    assert mg.min_entropy(mg.Distribution.point_mass("x")).bits == 0.0
    p = mg.Distribution({0: Fraction(3, 4), 1: Fraction(1, 4)}, 2)
    assert mg.min_entropy(p).max_prob == Fraction(3, 4)
    assert mg.min_entropy(p).at_least(Fraction(2, 5))  # 3/4 <= 2^(-2/5)
    assert not mg.min_entropy(p).at_least(Fraction(1, 2))  # 3/4 > 2^(-1/2)


def test_distance_to_min_entropy_examples():
    u4 = mg.Distribution.uniform(range(4))
    assert mg.distance_to_min_entropy(u4, 2) == 0
    point = mg.Distribution.point_mass(0, universe_size=2)
    assert mg.distance_to_min_entropy(point, 1) == Fraction(1, 2)
    tri = mg.Distribution({0: Fraction(1, 2), 1: Fraction(1, 4), 2: Fraction(1, 4)}, 3)
    assert mg.distance_to_min_entropy(tri, threshold=Fraction(1, 3)) == Fraction(1, 6)


def test_distance_zero_iff_capped():
    p = mg.Distribution({0: Fraction(1, 2), 1: Fraction(1, 2)}, 4)
    assert mg.distance_to_min_entropy(p, 1) == 0
    assert mg.distance_to_min_entropy(p, 2) > 0


def test_universe_too_small():
    point = mg.Distribution.point_mass(0, universe_size=2)
    with pytest.raises(errors.UniverseTooSmall):
        mg.distance_to_min_entropy(point, 2)  # would need 4 outcomes


def test_distance_parameter_validation():
    u = mg.Distribution.uniform(range(4))
    with pytest.raises(errors.InvalidParameters):
        mg.distance_to_min_entropy(u)
    with pytest.raises(errors.InvalidParameters):
        mg.distance_to_min_entropy(u, 1, threshold=Fraction(1, 2))
    with pytest.raises(errors.InvalidParameters):
        mg.distance_to_min_entropy(u, Fraction(3, 2))  # non-integer bit count


def test_excess_mass_against_lp_oracle():
    scipy = pytest.importorskip("scipy.optimize")
    rng = rng_stream(808, 0)
    for _ in range(25):
        size = 2 + int(rng.integers(5))
        weights = [int(w) for w in rng.integers(0, 10, size=size)]
        if sum(weights) == 0:
            continue
        total = sum(weights)
        p = mg.Distribution(
            {i: Fraction(w, total) for i, w in enumerate(weights) if w}, size
        )
        cap = [Fraction(1, 2), Fraction(1, 3), Fraction(2, 3), Fraction(1)][int(rng.integers(4))]
        if size * cap < 1:
            continue
        got = mg.distance_to_min_entropy(p, threshold=cap)
        # LP: minimize (1/2) sum |p_i - r_i| over 0 <= r_i <= cap, sum r = 1
        import numpy as np

        pv = np.array([float(p.mass(i)) for i in range(size)])
        # variables: r (size), s (size) with s_i >= |p_i - r_i|
        c = np.concatenate([np.zeros(size), 0.5 * np.ones(size)])
        A_ub, b_ub = [], []
        for i in range(size):
            row1 = np.zeros(2 * size)
            row1[i], row1[size + i] = 1.0, -1.0
            A_ub.append(row1)
            b_ub.append(pv[i])
            row2 = np.zeros(2 * size)
            row2[i], row2[size + i] = -1.0, -1.0
            A_ub.append(row2)
            b_ub.append(-pv[i])
        A_eq = [np.concatenate([np.ones(size), np.zeros(size)])]
        res = scipy.linprog(
            c,
            A_ub=np.array(A_ub),
            b_ub=np.array(b_ub),
            A_eq=np.array(A_eq),
            b_eq=[1.0],
            bounds=[(0.0, float(cap))] * size + [(0.0, None)] * size,
            method="highs",
        )
        assert res.success
        assert abs(res.fun - float(got)) < 1e-9


def test_excess_mass_against_exact_grid_oracle():
    rng = rng_stream(808, 1)
    for _ in range(10):
        size = 2 + int(rng.integers(3))
        weights = [int(w) for w in rng.integers(0, 6, size=size)]
        if sum(weights) == 0:
            continue
        total = sum(weights)
        p = mg.Distribution(
            {i: Fraction(w, total) for i, w in enumerate(weights) if w}, size
        )
        cap = Fraction(1, 2)
        if size * cap < 1:
            continue
        got = mg.distance_to_min_entropy(p, threshold=cap)
        assert got == excess_mass_grid_minimum(p, cap)
        witness = clip_redistribute(p, cap)
        assert witness.max_prob() <= cap
        assert mg.statistical_distance(p, witness) == got


# ---------------------------------------------------------------------------
# the merger theorem
# ---------------------------------------------------------------------------

def test_flagship_parameters_n1():
    report = mg.verify_merger_theorem(Fraction(1, 2), Fraction(1, 2), 2, 1)
    assert report["seed_length"] == 6 and report["q"] == 64
    assert report["entropy_threshold_bits"] == 3
    assert report["all_ok"]
    labels = [e["label"] for e in report["sources"]]
    assert "identical-blocks" in labels and "affine-image" in labels
    for e in report["sources"]:
        assert e["distance"] <= Fraction(1, 2)


def test_report_entries_name_their_source_by_label():
    report = mg.verify_merger_theorem(Fraction(1, 2), Fraction(1, 2), 2, 1)
    for e in report["sources"]:
        assert set(e) == {"label", "distance", "ok"}


def test_single_block_theorem_distance_zero():
    report = mg.verify_merger_theorem(Fraction(1, 2), Fraction(1, 2), 1, 1)
    assert all(e["distance"] == 0 for e in report["sources"])


# (delta, eps, blocks, n): q = 4, 8, 16 and 64, with m = 1, 1, 2, 6 and 3
COUNT_PATH_SETTINGS = [
    (Fraction(3, 4), Fraction(3, 4), 1, 2),
    (Fraction(5, 6), Fraction(3, 4), 2, 2),
    (Fraction(3, 4), Fraction(1, 2), 2, 2),
    (Fraction(1, 2), Fraction(1, 2), 2, 2),
    (Fraction(1, 2), Fraction(3, 4), 3, 1),
]


def test_theorem_distances_match_the_distribution_path():
    # the distance read off the output counts against the excess mass of the
    # exact output distribution, for every map kind and uniform block 0 and L-1
    nonzero = 0
    for delta, eps, L, n in COUNT_PATH_SETTINGS:
        d = mg.seed_length(delta, eps, L)
        spec, m = field_make(2, d), int((1 - delta) * n * d)
        maps = _every_map_kind(spec, n, rng_stream(4249, spec.q))
        sources = []
        for ui in sorted({0, L - 1}):
            others = [j for j in range(L) if j != ui]
            for k in range(len(maps) if others else 1):
                block_maps = {j: maps[(k + t) % len(maps)] for t, j in enumerate(others)}
                sources.append(mg.SourceSpec(spec, n, L, ui, block_maps, label=f"{ui}:{k}"))
        report = mg.verify_merger_theorem(delta, eps, L, n, sources=sources)
        assert report["q"] in (4, 8, 16, 64) and report["entropy_threshold_bits"] == m
        ms = mg.merger_make(spec, n, L)
        for entry, src in zip(report["sources"], sources, strict=True):
            want = mg.distance_to_min_entropy(mg.exact_output_distribution(ms, src), m)
            assert entry["distance"] == want, (report["q"], src.label)
            nonzero += want > 0
    assert nonzero


def test_theorem_check_builds_no_distribution(monkeypatch):
    want = mg.verify_merger_theorem(Fraction(1, 2), Fraction(1, 2), 2, 2)

    def refuse(*args, **kwargs):
        raise AssertionError("the merger check built a Distribution")

    monkeypatch.setattr(mg, "Distribution", refuse)
    with pytest.raises(AssertionError):
        mg.exact_output_distribution(mg.merger_make(F4, 1, 1),
                                     mg.SourceSpec(F4, 1, 1, 0, {}))
    assert mg.verify_merger_theorem(Fraction(1, 2), Fraction(1, 2), 2, 2) == want


def test_enumeration_cap():
    with pytest.raises(errors.EnumerationTooLarge, match=r"2\^30 exceeds"):
        mg.verify_merger_theorem(Fraction(1, 2), Fraction(1, 2), 2, 4)


def test_checked_seed_length_at_the_cap():
    # 2^23 <= 10^7 < 2^24; delta = 1 makes d = ceil(log2(2/eps)) for one block
    assert mg.checked_seed_length(1, Fraction(1, 2 ** 22), 1, 0) == 23
    with pytest.raises(errors.EnumerationTooLarge, match=r">= 2\^24 exceeds"):
        mg.checked_seed_length(1, Fraction(1, 2 ** 23), 1, 0)
    # the lower bound floor(log2(2^23 + 1)) = 23 passes; d = 24 does not
    with pytest.raises(errors.EnumerationTooLarge, match=r"= 2\^24 exceeds"):
        mg.checked_seed_length(1, Fraction(2, 2 ** 23 + 1), 1, 0)
    assert mg.checked_seed_length(Fraction(1, 2), Fraction(1, 2), 2, 2) == 6
    with pytest.raises(errors.InvalidParameters, match="negative"):
        mg.checked_seed_length(Fraction(1, 2), Fraction(1, 2), 2, -1)
    with pytest.raises(errors.InvalidParameters):
        mg.checked_seed_length(0, Fraction(1, 2), 2, 1)


def test_checked_seed_length_refuses_before_forming_powers():
    start = time.perf_counter()
    # d >= ceil(10^6 * floor(log2 8)) = 3 * 10^6 puts 2^(2d) over the cap
    with pytest.raises(errors.EnumerationTooLarge, match=r">= 2\^6000000 exceeds"):
        mg.checked_seed_length(Fraction(1, 10 ** 6), Fraction(1, 2), 2, 1)
    with pytest.raises(errors.EnumerationTooLarge, match=r"2\^600000006 exceeds"):
        mg.verify_merger_theorem(Fraction(1, 2), Fraction(1, 2), 2, 10 ** 8)
    assert time.perf_counter() - start < 1


def _limit_address_space():
    import resource

    resource.setrlimit(resource.RLIMIT_AS, (2 * 2 ** 30, 2 * 2 ** 30))


def test_output_counts_refuse_oversized_spaces_before_any_array():
    # in a child process whose address space is capped at 2 GiB: the 2^40
    # pairs of GF(2^10) at n = 3 need an 8 GiB count array, and n = 10^8 a
    # power of q with 3 * 10^8 digits; both are refused before either
    script = textwrap.dedent("""
        import time
        from ffmult import errors, merger as mg
        from ffmult.ff import field_make

        spec = field_make(2, 10)
        start = time.perf_counter()
        for n in (3, 10 ** 8):
            ms = mg.merger_make(spec, n, 1)
            src = mg.SourceSpec(spec, n, 1, 0, {})
            for enumerate_all in (mg.output_counts, mg.exact_output_distribution):
                try:
                    enumerate_all(ms, src)
                    raise SystemExit(f"{enumerate_all.__name__} at n = {n} did not refuse")
                except errors.EnumerationTooLarge:
                    pass
        assert time.perf_counter() - start < 1
        print("ok")
    """)
    src = str(Path(ffmult.__file__).resolve().parents[1])
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1",
               PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    out = subprocess.run([sys.executable, "-c", script], env=env, capture_output=True,
                         text=True, timeout=120, preexec_fn=_limit_address_space)
    assert out.returncode == 0 and out.stdout == "ok\n", out.stderr[-400:]
    # the largest space of GF(5) the cap admits is still enumerated
    assert 5 ** 10 <= mg.ENUMERATION_CAP < 5 ** 11
    counts = mg.output_counts(mg.merger_make(F5, 9, 1), mg.SourceSpec(F5, 9, 1, 0, {}))
    assert counts.shape == (5 ** 9,) and (counts == 5).all()


def test_non_integer_threshold_rejected():
    with pytest.raises(errors.InvalidParameters):
        mg.verify_merger_theorem(Fraction(1, 3), Fraction(1, 3), 2, 1)


def test_distribution_accepts_non_fraction_masses():
    dist = mg.Distribution({0: "1/4", 1: 0.25, 2: Fraction(1, 2), 3: 0}, 4)
    assert dist.probs == {0: Fraction(1, 4), 1: Fraction(1, 4), 2: Fraction(1, 2)}
    assert mg.Distribution({"a": 1}, 1) == mg.Distribution.point_mass("a")
    with pytest.raises(errors.InvalidParameters, match="sum to 5/6"):
        mg.Distribution({0: Fraction(1, 2), 1: Fraction(1, 3)}, 2)
    with pytest.raises(errors.InvalidParameters, match="sum to 0"):
        mg.Distribution({}, 1)


def test_distribution_validation():
    with pytest.raises(errors.InvalidParameters):
        mg.Distribution({0: Fraction(1, 2)}, 2)  # masses do not sum to 1
    with pytest.raises(errors.InvalidParameters):
        mg.Distribution({0: Fraction(3, 2), 1: Fraction(-1, 2)}, 2)
