import itertools
import time
from fractions import Fraction

import pytest

import scalar_ref
from ffmult import errors, kakeya
from ffmult.ff import field_make, parse_prime_power, rng_stream
from ffmult.kakeya import (
    KakeyaInstance,
    StatKakeyaInstance,
    all_points,
    canonical_directions,
    exhaustive_min_kakeya,
    full_space_reduction_instance,
    homogeneous_vanishing_check,
    is_kakeya,
    kakeya_lower_bounds,
    statistical_kakeya_bound,
    statistical_kakeya_check,
    union_of_witness_lines,
)
from ffmult.mvpoly import Curve

F2 = field_make(2)
F3 = field_make(3)
F4 = field_make(2, 2)


def brute_force_is_kakeya(spec, n, K):
    """Naive oracle: quantify over all nonzero directions and all offsets."""
    kset = set(K)
    if not kset:
        return False
    for b in itertools.product(range(spec.q), repeat=n):
        if not any(b):
            continue
        ok = False
        for a in itertools.product(range(spec.q), repeat=n):
            line = {
                tuple(spec.add(x, spec.mul(t, y)) for x, y in zip(a, b))
                for t in range(spec.q)
            }
            if line <= kset:
                ok = True
                break
        if not ok:
            return False
    return True


# ---------------------------------------------------------------------------
# bounds
# ---------------------------------------------------------------------------

def test_lower_bound_examples():
    assert kakeya_lower_bounds(2, 2) == (Fraction(1), Fraction(16, 9))
    assert kakeya_lower_bounds(3, 2) == (Fraction(9, 4), Fraction(81, 25))
    for q in (2, 3, 5, 7):
        crude, main = kakeya_lower_bounds(q, 1)
        assert crude == Fraction(q, 2)
        assert main == Fraction(q * q, 2 * q - 1)
        assert crude < q and main < q  # consistent with K = F_q in one dimension
    for q, n in [(2, 3), (3, 2), (7, 4)]:
        crude, main = kakeya_lower_bounds(q, n)
        assert main >= crude


def test_lower_bounds_refuse_a_huge_space_at_once():
    # (4/3)^(10^7) alone takes seconds to form
    t0 = time.perf_counter()
    for q, n in [(2, 10 ** 8), (2, 21), (1024, 3)]:
        with pytest.raises(errors.UnsupportedSize):
            kakeya_lower_bounds(q, n)
    assert time.perf_counter() - t0 < 0.5
    # the largest spaces still answer
    assert kakeya_lower_bounds(2, 20)[0] == 1
    assert kakeya_lower_bounds(1024, 2)[0] == 512 ** 2


# ---------------------------------------------------------------------------
# the checker
# ---------------------------------------------------------------------------

def test_full_space_is_kakeya():
    res = is_kakeya(F2, 2, all_points(F2, 2))
    assert res.ok and len(res.witnesses) == 3  # 3 projective directions


def test_single_point_is_not_kakeya():
    res = is_kakeya(F3, 2, [(1, 1)])
    assert not res.ok
    assert res.violating_direction is not None


def test_empty_set_is_not_kakeya():
    assert not is_kakeya(F2, 2, []).ok


def test_point_lists_are_capped(monkeypatch):
    # q^n past POINT_CAP is refused before anything is listed, even for huge n
    for n in (21, 40, 10 ** 12):
        for fn in (all_points, canonical_directions):
            with pytest.raises(errors.UnsupportedSize):
                fn(F2, n)
    with pytest.raises(errors.UnsupportedSize):
        all_points(field_make(1031), 2)
    with pytest.raises(errors.UnsupportedSize):
        is_kakeya(F2, 40, [])
    monkeypatch.setattr(kakeya, "POINT_CAP", 16)
    assert len(all_points(F2, 4)) == 16 and len(canonical_directions(F4, 2)) == 5
    with pytest.raises(errors.UnsupportedSize):
        all_points(F2, 5)


@pytest.mark.parametrize("q", [2, 3, 4, 7, 9])
def test_canonical_directions_match_scalar_loop(q):
    spec = parse_prime_power(q)
    for n in range(4):
        dirs = canonical_directions(spec, n)
        want = scalar_ref.canonical_directions(spec, n)
        assert dirs.shape == (len(want), n) and len(want) == (q ** n - 1) // (q - 1)
        assert dirs.tolist() == [list(b) for b in want]


def test_four_line_union_q3():
    # one line per canonical direction gives a small Kakeya set
    dirs = list(map(tuple, canonical_directions(F3, 2).tolist()))
    assert len(dirs) == 4
    inst = union_of_witness_lines(F3, 2, {b: (0, 0) for b in dirs})
    assert len(inst.K) <= 9
    res = is_kakeya(F3, 2, inst.K)
    assert res.ok and len(res.witnesses) == 4
    assert inst.verify_witnesses()
    assert brute_force_is_kakeya(F3, 2, inst.K)


def test_checker_agrees_with_brute_force_on_random_sets():
    rng = rng_stream(555, 0)
    for _ in range(40):
        q = (2, 3)[int(rng.integers(2))]
        spec = field_make(q)
        pts = all_points(spec, 2)
        size = int(rng.integers(len(pts) + 1))
        chosen = [pts[i] for i in rng.choice(len(pts), size=size, replace=False)]
        assert is_kakeya(spec, 2, chosen).ok == brute_force_is_kakeya(spec, 2, chosen)


def test_witnesses_really_cover_their_lines():
    res = is_kakeya(F4, 2, all_points(F4, 2))
    assert res.ok
    inst = KakeyaInstance(F4, 2, frozenset(all_points(F4, 2)), res.witnesses)
    assert inst.verify_witnesses()


KAKEYA_FIELDS = [(2, 1), (3, 1), (5, 1), (7, 1), (13, 1), (2, 2), (2, 3), (2, 4), (3, 2)]


def _line(spec, a, b):
    return {tuple(spec.add(x, spec.mul(t, y)) for x, y in zip(a, b)) for t in range(spec.q)}


def _kakeya_cases(spec, n, rng):
    """Random line unions (Kakeya), the same less one point, random subsets
    of two densities, the full space, one point and the empty set."""
    pts = all_points(spec, n)
    union = set()
    for b in map(tuple, canonical_directions(spec, n).tolist()):
        union |= _line(spec, tuple(int(x) for x in rng.integers(spec.q, size=n)), b)
    yield union
    yield union - {sorted(union)[int(rng.integers(len(union)))]}
    for density in (0.5, 0.9):
        yield {pt for pt, keep in zip(pts, rng.random(len(pts)) < density) if keep}
    yield set(pts)
    yield {pts[-1]}
    yield set()


def _same_check(spec, n, K):
    res = is_kakeya(spec, n, K)
    assert (res.ok, res.witnesses, res.violating_direction) == scalar_ref.is_kakeya(spec, n, K)
    return res.ok


@pytest.mark.parametrize("p,e", KAKEYA_FIELDS)
def test_is_kakeya_matches_scalar_walk(p, e):
    spec = field_make(p, e)
    rng = rng_stream(556, spec.q)
    for n in (2, 3):
        for K in _kakeya_cases(spec, n, rng):
            ok = _same_check(spec, n, K)
            if spec.q ** n <= 81:
                assert ok == brute_force_is_kakeya(spec, n, K)


@pytest.mark.parametrize("p,e", KAKEYA_FIELDS)
def test_witness_lines_match_scalar_lines(p, e):
    # the union of one random line per direction against the scalar lines;
    # the witnesses hold on the union and fail once a point of a line is gone
    spec = field_make(p, e)
    rng = rng_stream(558, spec.q)
    for n in (1, 2, 3):
        offsets = {b: tuple(int(x) for x in rng.integers(spec.q, size=n))
                   for b in map(tuple, canonical_directions(spec, n).tolist())}
        inst = union_of_witness_lines(spec, n, offsets)
        assert inst.K == set().union(*(_line(spec, a, b) for b, a in offsets.items()))
        assert inst.verify_witnesses()
        b, a = next(iter(offsets.items()))
        dropped = KakeyaInstance(spec, n, inst.K - {sorted(_line(spec, a, b))[0]}, offsets)
        assert not dropped.verify_witnesses()
    assert union_of_witness_lines(spec, 2, {}).K == frozenset()


def test_is_kakeya_in_dimension_zero_and_one():
    for spec in (F2, F3, F4):
        for K in ([()], []):
            _same_check(spec, 0, K)
        for K in ([(0,)], all_points(spec, 1), []):
            _same_check(spec, 1, K)


def test_is_kakeya_in_small_rounds(monkeypatch):
    import ffmult.kakeya as kk

    rng = rng_stream(557, 0)
    for (p, e), n, cells in (((3, 1), 2, 3), ((2, 2), 3, 10), ((5, 1), 2, 26), ((2, 3), 2, 70)):
        spec = field_make(p, e)
        monkeypatch.setattr(kk, "LINE_BLOCK_CELLS", cells)
        for K in _kakeya_cases(spec, n, rng):
            _same_check(spec, n, K)


# ---------------------------------------------------------------------------
# exhaustive minimum search
# ---------------------------------------------------------------------------

def test_min_kakeya_q2_n1():
    pts, size = exhaustive_min_kakeya(2, 1)
    assert size == 2 and pts == frozenset({(0,), (1,)})


def test_min_kakeya_q2_n2():
    pts, size = exhaustive_min_kakeya(2, 2)
    crude, main = kakeya_lower_bounds(2, 2)
    assert size >= 2  # ceil(16/9)
    assert size >= crude
    assert is_kakeya(F2, 2, pts).ok
    for p in pts:
        assert not is_kakeya(F2, 2, pts - {p}).ok


def test_min_kakeya_q3_n2():
    pts, size = exhaustive_min_kakeya(3, 2)
    assert size >= 4  # ceil(81/25)
    assert size >= kakeya_lower_bounds(3, 2)[0]
    assert is_kakeya(F3, 2, pts).ok
    for p in pts:
        assert not is_kakeya(F3, 2, pts - {p}).ok


def test_min_kakeya_search_space_guard():
    with pytest.raises(errors.SearchSpaceTooLarge):
        exhaustive_min_kakeya(5, 2)


def test_min_kakeya_size_cap():
    assert exhaustive_min_kakeya(3, 2, size_cap=3) is None
    found = exhaustive_min_kakeya(3, 2, size_cap=9)
    assert found is not None and found[1] <= 9


def test_min_kakeya_deterministic_representative():
    a = exhaustive_min_kakeya(2, 2)
    b = exhaustive_min_kakeya(2, 2)
    assert a == b


# ---------------------------------------------------------------------------
# homogeneous vanishing pipeline
# ---------------------------------------------------------------------------

def test_vanishing_check_count_gate():
    inst = KakeyaInstance(F2, 1, frozenset({(0,), (1,)}))
    with pytest.raises(errors.UnsatisfiedCountHypothesis):
        homogeneous_vanishing_check(inst, ell=2, m=3, d=3)


def test_vanishing_check_single_point_runs():
    inst = KakeyaInstance(F2, 2, frozenset({(0, 0)}))
    report = homogeneous_vanishing_check(inst, ell=2, m=3, d=3)
    assert not report["poly"].is_zero
    assert report["multiplicities"][(0, 0)] >= 3
    assert set(report["multiplicities"].keys()) == set(all_points(F2, 2))
    assert isinstance(report["ok"], bool)


def test_vanishing_check_parameter_contract():
    inst = KakeyaInstance(F2, 2, frozenset({(0, 0)}))
    with pytest.raises(errors.InvalidParameters):
        homogeneous_vanishing_check(inst, ell=3, m=5, d=5)  # ell not multiple of q
    with pytest.raises(errors.InvalidParameters):
        homogeneous_vanishing_check(inst, ell=2, m=4, d=3)  # m != 2*ell - ell/q
    with pytest.raises(errors.InvalidParameters):
        homogeneous_vanishing_check(inst, ell=2, m=3, d=4)  # d != ell*q - 1


# ---------------------------------------------------------------------------
# statistical Kakeya
# ---------------------------------------------------------------------------

def test_reduction_reproduces_kakeya_bound():
    for q, n in [(2, 1), (2, 2), (3, 2), (5, 2), (7, 1)]:
        spec = field_make(q)
        report = statistical_kakeya_check(full_space_reduction_instance(spec, n))
        assert report["hypothesis_ok"] and report["ok"]
        assert report["bound"] == kakeya_lower_bounds(q, n)[1]


def test_stat_bound_q4_example():
    assert statistical_kakeya_bound(4, 1, Fraction(1, 2), Fraction(1, 2), 1) == Fraction(4, 3)
    # a concrete instance meeting the hypothesis: S and K are half of F_4
    S = ((0,), (1,))
    K = frozenset(S)
    curves = {x: Curve.line(F4, x, (1,)) for x in S}
    inst = StatKakeyaInstance(
        F4, 1, S, K, curves, lam=Fraction(1, 2), eta=Fraction(1, 2), max_degree=1
    )
    report = statistical_kakeya_check(inst)
    assert report["bound"] == Fraction(4, 3)
    assert report["set_size"] == 2 and report["ok"]


def test_stat_hypothesis_violation_names_point():
    S = ((0,), (1,))
    K = frozenset({(0,)})  # curves meet K in only one parameter value
    curves = {x: Curve.line(F4, x, (1,)) for x in S}
    inst = StatKakeyaInstance(
        F4, 1, S, K, curves, lam=Fraction(1, 2), eta=Fraction(1, 2), max_degree=1
    )
    with pytest.raises(errors.HypothesisViolation):
        statistical_kakeya_check(inst)


def test_stat_parameter_violation():
    S = ((0,),)
    curves = {(0,): Curve.line(F4, (0,), (1,))}
    inst = StatKakeyaInstance(
        F4, 1, S, frozenset(S), curves, lam=Fraction(1, 4), eta=Fraction(1, 4), max_degree=1
    )
    with pytest.raises(errors.ParameterViolation):
        statistical_kakeya_check(inst)


def test_stat_curve_must_pass_through_point():
    S = ((0,), (1,))
    K = frozenset(all_points(F4, 1))
    off_line = Curve.from_coeff_lists(F4, [(2, 0)])  # constant curve away from (0,)
    curves = {(0,): off_line, (1,): Curve.line(F4, (1,), (1,))}
    inst = StatKakeyaInstance(
        F4, 1, S, K, curves, lam=Fraction(1, 2), eta=Fraction(1, 2), max_degree=1
    )
    with pytest.raises(errors.HypothesisViolation):
        statistical_kakeya_check(inst)


MIN_KAKEYA_CASES = [(q, 1) for q in (2, 3, 4, 5, 7, 8, 9, 11, 13, 16)] + [
    (2, 2), (3, 2), (4, 2), (2, 3), (2, 4)]


@pytest.mark.parametrize("q,n", MIN_KAKEYA_CASES)
def test_min_kakeya_matches_combinations_search(q, n):
    pts, size = exhaustive_min_kakeya(q, n)
    assert (pts, size) == scalar_ref.min_kakeya(q, n)
    for cap in (size - 1, size, size + 1):
        assert exhaustive_min_kakeya(q, n, cap) == scalar_ref.min_kakeya(q, n, cap)
