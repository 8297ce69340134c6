import itertools
import tracemalloc
from math import gcd

import numpy as np
import pytest

import scalar_ref
from ffmult import errors
from ffmult.ff import (
    FieldElement,
    FieldSpec,
    _LogVecOps,
    _modulus_table,
    _ZechVecOps,
    code_points,
    field_enumerate,
    field_make,
    field_sample,
    parse_field_spec,
    point_codes,
    rng_stream,
    verify_modulus_irreducible,
)


# ---------------------------------------------------------------------------
# construction
# ---------------------------------------------------------------------------

def test_prime_field_needs_no_modulus():
    f2 = field_make(2, 1)
    assert f2.q == 2 and f2.p == 2 and f2.e == 1


def test_f64_modulus_from_table_is_irreducible():
    f64 = field_make(2, 6)
    assert f64.q == 64
    assert len(f64.modulus) == 7 and f64.modulus[-1] == 1
    # independent exhaustive factor check: trial-divide by every monic
    # polynomial of degree 1..3 over F_2
    mod = list(f64.modulus)

    def rem(a, b):
        a = a[:]
        db = len(b) - 1
        for i in range(len(a) - 1, db - 1, -1):
            if a[i]:
                for j in range(db + 1):
                    a[i - db + j] ^= b[j]
        return a[:db]

    for deg in (1, 2, 3):
        for packed in range(2 ** deg):
            cand = [(packed >> i) & 1 for i in range(deg)] + [1]
            assert any(rem(mod, cand)), f"modulus divisible by {cand}"


def test_composite_characteristic_rejected():
    with pytest.raises(errors.NonPrimeCharacteristic):
        field_make(4, 1)
    with pytest.raises(errors.NonPrimeCharacteristic):
        field_make(1, 1)


def test_size_cap_and_missing_entry():
    with pytest.raises(errors.UnsupportedSize):
        field_make(2, 21)
    with pytest.raises(errors.UnsupportedSize):
        field_make(2, 0)
    with pytest.raises(errors.MissingModulusEntry):
        field_make(37, 2)


def test_specs_are_canonical_singletons():
    assert field_make(3, 1) is field_make(3, 1)
    assert field_make(3) is field_make(3, 1)  # default arg hits the same cache slot
    assert field_make(2, 6) is parse_field_spec("2^6")
    assert field_make(2, 6).modulus is field_make(2, 6).modulus


def test_parse_field_spec():
    assert parse_field_spec("5").q == 5
    assert parse_field_spec("2^6").q == 64
    assert parse_field_spec(" 3^2 ").q == 9


def test_shipped_moduli_pass_exhaustive_factor_check():
    for p, e in [(2, 2), (2, 3), (2, 4), (2, 6), (3, 2), (3, 3), (5, 2), (7, 2)]:
        assert verify_modulus_irreducible(field_make(p, e))


# ---------------------------------------------------------------------------
# arithmetic
# ---------------------------------------------------------------------------

def test_inverse_example_f5():
    f5 = field_make(5)
    assert f5.inv(2) == 3
    assert f5.mul(2, 3) == 1


def test_extension_multiplication_example_f4():
    f4 = field_make(2, 2)
    x = 2  # code of the residue of X
    assert f4.mul(x, x) == 3  # X^2 = X + 1 mod X^2+X+1


def test_fermat_example_f7():
    f7 = field_make(7)
    assert f7.pow(3, 6) == 1


def test_division_by_zero():
    f5 = field_make(5)
    with pytest.raises(errors.DivisionByZero):
        f5.inv(0)


@pytest.mark.parametrize("p,e", [(2, 1), (3, 1), (5, 1), (2, 2), (3, 2), (2, 3), (2, 4)])
def test_field_axioms_exhaustive(p, e):
    spec = field_make(p, e)
    q = spec.q
    for a in range(q):
        assert spec.add(a, 0) == a
        assert spec.mul(a, 1) == a
        assert spec.add(a, spec.neg(a)) == 0
        if a:
            assert spec.mul(a, spec.inv(a)) == 1
            assert spec.pow(a, q - 1) == 1
    for a in range(q):
        for b in range(q):
            assert spec.add(a, b) == spec.add(b, a)
            assert spec.mul(a, b) == spec.mul(b, a)
            for c in range(q):
                assert spec.mul(a, spec.add(b, c)) == spec.add(spec.mul(a, b), spec.mul(a, c))


@pytest.mark.parametrize("p,e", sorted(pe for pe in _modulus_table() if pe[0] ** pe[1] <= 2 ** 12))
def test_log_exp_tables_match_scalar_walk(p, e):
    # the doubling build on the array kernel against one product per power
    spec = field_make(p, e)
    spec._ensure_tables()
    n1 = spec.q - 1
    exp, log = scalar_ref.log_exp_tables(spec)
    assert spec._exp[:n1].tolist() == exp
    assert spec._log[1:].tolist() == log[1:]
    if p != 2:
        # the Zech table, built digit-wise, against the scalar subtraction
        vec = spec.vec
        assert vec.zech[n1 : 2 * n1].tolist() == [vec.log[spec.sub(1, x)] for x in exp]
    rng = rng_stream(40, spec.q)
    for a, b in rng.integers(spec.q, size=(300, 2)).tolist():
        assert spec._mul_raw(a, b) == scalar_ref.poly_mul(spec, a, b)


@pytest.mark.parametrize("p,e", [(2, 16), (3, 10), (2, 17), (2, 20)])
def test_log_exp_tables_of_the_largest_table_fields(p, e):
    spec = field_make(p, e)
    spec._ensure_tables()
    q = spec.q
    exp, log = spec._exp[: q - 1].tolist(), spec._log.tolist()
    assert sorted(exp) == list(range(1, q))
    assert [log[x] for x in exp] == list(range(q - 1))
    assert log[0] == 2 * (q - 1)
    g = exp[1]
    for i in rng_stream(41, q).integers(q - 1, size=2000).tolist():
        assert exp[(i + 1) % (q - 1)] == spec._mul_raw(exp[i], g)
    # g is the smallest generator: every smaller nonzero code has a smaller order
    assert all(gcd(log[c], q - 1) > 1 for c in range(1, g))


TABLE_FIELDS = sorted(pe for pe in _modulus_table() if pe[0] ** pe[1] <= 2 ** 16)
SMALL_TABLE_FIELDS = [pe for pe in TABLE_FIELDS if pe[0] ** pe[1] <= 64]


@pytest.mark.parametrize("p,e", [(2, 2), (2, 6), (2, 16), (3, 3), (3, 10), (31, 3), (2, 17),
                                 (2, 20)])
def test_one_copy_of_the_tables_in_the_kernel_layout(p, e):
    spec = field_make(p, e)
    spec._ensure_tables()
    n1, exp, log = spec.q - 1, spec._exp, spec._log
    assert log.dtype == np.int32 and log.shape == (spec.q,) and log[0] == 2 * n1
    assert exp.dtype == np.min_scalar_type(n1) and exp.shape == (4 * n1 + 1,)
    assert exp[n1 : 2 * n1].tolist() == exp[:n1].tolist()
    assert not exp[2 * n1 :].any()
    assert not exp.flags.writeable and not log.flags.writeable
    with pytest.raises(ValueError):
        exp[0] = 0
    assert spec.vec.log is log and spec.vec.exp is exp


def fresh_spec(p, e):
    """F_(p^e) with no tables yet; not the cached field, so its tables are
    freed with it rather than kept for the rest of the run."""
    return FieldSpec(p, e, field_make(p, e).modulus)


def _kept_bytes(spec):
    vec = spec.vec
    kept = spec._exp.nbytes + spec._log.nbytes
    return kept + vec.zech.nbytes + vec.spread.nbytes if spec.p != 2 else kept


@pytest.mark.parametrize("p,e", sorted(_modulus_table()))
def test_family_of_every_shipped_field(p, e):
    # GF(2^e) runs on its own log/exp tables, and odd p^e on log/exp and Zech
    # tables, at every size: at most 20 and 68 bytes an element
    spec = fresh_spec(p, e)
    assert type(spec.vec) is (_LogVecOps if p == 2 else _ZechVecOps)
    assert spec.vec.log is spec._log and spec.vec.exp is spec._exp
    assert _kept_bytes(spec) <= (20 if p == 2 else 68) * spec.q


def test_table_build_peak_stays_near_what_it_keeps():
    # the Zech and spread tables are built a block of powers at a time
    spec = fresh_spec(3, 11)
    tracemalloc.start()
    try:
        spec.vec
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 1.5 * _kept_bytes(spec)


@pytest.mark.parametrize("p,e", [(2, 6), (3, 3), (5, 2), (2, 17), (3, 11)])
def test_tables_built_in_small_blocks_are_the_same(p, e, monkeypatch):
    import ffmult.ff as ff

    want = field_make(p, e).vec  # built in blocks of the default size
    monkeypatch.setattr(ff, "TABLE_BLOCK", 7 if want.spec.q < 2 ** 10 else 1000)
    got = fresh_spec(p, e).vec
    assert got.exp.tolist() == want.exp.tolist() and got.log.tolist() == want.log.tolist()
    if p != 2:
        assert got.zech.dtype == np.int32 and got.zech.tolist() == want.zech.tolist()
        assert got.spread.tolist() == want.spread.tolist()


@pytest.mark.parametrize("p,e", [(2, 17), (2, 20), (3, 12)], ids=["17", "20", "3-12"])
def test_table_builder_matches_schoolbook_products(p, e):
    # the product of an array by one code that builds the tables (shift and
    # XOR on GF(2^e), base-p digits on odd p^e), against one scalar
    # schoolbook product per code, from the unsigned exp dtype as well
    spec = field_make(p, e)
    rng = rng_stream(42, spec.q)
    a = rng.integers(spec.q, size=400)
    a[:3] = [0, 1, spec.q - 1]
    al = a.tolist()
    for c in [0, 1, spec.q - 1] + rng.integers(spec.q, size=3).tolist():
        want = [scalar_ref.poly_mul(spec, x, c) for x in al]
        for codes in (a, a.astype(np.min_scalar_type(spec.q - 1))):
            got = spec._mul_by(codes, c)
            assert got.dtype == np.int32 and got.tolist() == want


class _NoKernel:
    def __getattr__(self, name):
        raise AssertionError(f"scalar arithmetic read spec.vec.{name}")


@pytest.mark.parametrize("p,e", TABLE_FIELDS[::4])
def test_scalar_ops_return_ints_and_leave_the_kernel_alone(p, e):
    spec = field_make(p, e)
    spec = FieldSpec(p, e, spec.modulus)  # a fresh spec, tables not yet built
    spec._vec = _NoKernel()
    a, b = 2, spec.q - 1
    for value in (spec.mul(a, b), spec.mul(0, b), spec.inv(a), spec.pow(a, 10 ** 30),
                  spec.pow(a, -3), spec.pow(0, 5)):
        assert type(value) is int


def _ref_pow(spec, a, n):
    out = 1
    for _ in range(n):
        out = scalar_ref.poly_mul(spec, out, a)
    return out


@pytest.mark.parametrize("p,e", SMALL_TABLE_FIELDS)
def test_products_with_zero_are_zero(p, e):
    spec = field_make(p, e)
    codes = np.arange(spec.q)
    for a in codes.tolist():
        assert spec.mul(a, 0) == spec.mul(0, a) == scalar_ref.poly_mul(spec, a, 0) == 0
    assert spec.vec.mul(codes, 0).tolist() == [0] * spec.q
    assert spec.vec.mul(0, codes).tolist() == [0] * spec.q
    assert spec.vec.mul(codes, np.zeros_like(codes)).tolist() == [0] * spec.q


@pytest.mark.parametrize("p,e", SMALL_TABLE_FIELDS)
def test_inverse_of_every_nonzero_code(p, e):
    spec = field_make(p, e)
    for a in range(1, spec.q):
        assert scalar_ref.poly_mul(spec, a, spec.inv(a)) == 1
    with pytest.raises(errors.DivisionByZero):
        spec.inv(0)


@pytest.mark.parametrize("p,e", SMALL_TABLE_FIELDS)
def test_powers_at_zero_negative_and_large_exponents(p, e):
    spec = field_make(p, e)
    q = spec.q
    inverse = {a: b for a in range(1, q) for b in range(1, q)
               if scalar_ref.poly_mul(spec, a, b) == 1}
    for a in range(1, q):
        assert spec.pow(a, 0) == 1
        for n in (q - 1, q, 2 * q + 3):
            assert spec.pow(a, n) == _ref_pow(spec, a, n)
        for n in (1, 2, q + 1):
            assert spec.pow(a, -n) == _ref_pow(spec, inverse[a], n)
    assert spec.pow(0, 0) == 1
    assert spec.pow(0, 1) == spec.pow(0, q) == 0
    with pytest.raises(errors.DivisionByZero):
        spec.pow(0, -1)


def test_element_operators():
    f5 = field_make(5)
    a, b = f5.element(3), f5.element(4)
    assert (a + b).code == 2
    assert (a - b).code == 4
    assert (a * b).code == 2
    assert (a / b).code == f5.mul(3, f5.inv(4))
    assert (-a).code == 2
    assert (a ** 3).code == 2
    assert a.inverse() * a == f5.one()
    assert a != b and a == f5.element(3)
    f4 = field_make(2, 2)
    assert f4.element(3).coeffs == (1, 1)
    with pytest.raises(errors.SpecMismatch):
        _ = a + f4.element(1)


# ---------------------------------------------------------------------------
# enumeration and sampling
# ---------------------------------------------------------------------------

def test_enumeration_examples():
    assert [x.code for x in field_enumerate(field_make(2))] == [0, 1]
    assert [x.code for x in field_enumerate(field_make(3))] == [0, 1, 2]
    f4 = field_enumerate(field_make(2, 2))
    assert len(f4) == 4 and len({x.code for x in f4}) == 4
    assert f4[0].code == 0


def test_enumeration_constant_term_fastest():
    f9 = field_make(3, 2)
    coeffs = [x.coeffs for x in field_enumerate(f9)]
    # constant coefficient cycles 0,1,2 before the X coefficient moves
    assert coeffs[:4] == [(0, 0), (1, 0), (2, 0), (0, 1)]


@pytest.mark.parametrize("q", [2, 3, 4, 7, 9])
def test_point_order_is_itertools_product(q):
    for n in range(4):
        pts = code_points(np.arange(q ** n), q, n)
        assert pts.shape == (q ** n, n)
        assert pts.tolist() == [list(p) for p in itertools.product(range(q), repeat=n)]
        assert point_codes(pts, q).tolist() == list(range(q ** n))
        # narrow coordinate dtypes, as the table kernels return, and leading axes
        stacked = np.stack([pts, pts[::-1]]).astype(np.uint8)
        assert point_codes(stacked, q).tolist() == [list(range(q ** n)),
                                                   list(range(q ** n))[::-1]]


def test_sampling_determinism_and_uniformity():
    f64 = field_make(2, 6)
    a = rng_stream(2024, 0)
    b = rng_stream(2024, 0)
    assert [field_sample(f64, a).code for _ in range(100)] == [
        field_sample(f64, b).code for _ in range(100)
    ]
    rng = rng_stream(5150, 1)
    draws = np.asarray([field_sample(field_make(2), rng).code for _ in range(10 ** 4)])
    assert abs(draws.mean() - 0.5) <= 0.02


def test_distinct_streams_differ():
    f64 = field_make(2, 6)
    a = rng_stream(2024, 0)
    b = rng_stream(2024, 1)
    sa = [field_sample(f64, a).code for _ in range(50)]
    sb = [field_sample(f64, b).code for _ in range(50)]
    assert sa != sb


def test_element_wrapper_identity():
    f4 = field_make(2, 2)
    e = FieldElement(f4, 2)
    assert repr(e) == "F4(2)"
    assert bool(e) and not bool(f4.zero())


def test_element_hash_agrees_with_int_equality():
    f5 = field_make(5)
    x = f5.element(3)
    assert x == 3 and hash(x) == hash(3)
    assert 3 in {x} and x in {3}
    assert {x: "x"}[3] == "x"
    assert {3: "three"}[x] == "three"
    assert len({f5.element(c) for c in range(5)} | set(range(5))) == 5
