from math import gcd

import numpy as np
import pytest

import scalar_ref
from ffmult import errors
from ffmult.ff import (
    FieldElement,
    _modulus_table,
    field_enumerate,
    field_make,
    field_sample,
    parse_field_spec,
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
    exp, log = scalar_ref.log_exp_tables(spec)
    assert spec._exp == exp
    assert spec._log == log
    if p != 2:
        # the Zech table, built digit-wise, against the scalar subtraction
        n1, vec = spec.q - 1, spec.vec
        assert vec.zech[n1 : 2 * n1].tolist() == [vec.log[spec.sub(1, x)] for x in exp]
    rng = rng_stream(40, spec.q)
    for a, b in rng.integers(spec.q, size=(300, 2)).tolist():
        assert spec._mul_raw(a, b) == scalar_ref.poly_mul(spec, a, b)


@pytest.mark.parametrize("p,e", [(2, 16), (3, 10)])
def test_log_exp_tables_of_the_largest_table_fields(p, e):
    spec = field_make(p, e)
    spec._ensure_tables()
    q, exp, log = spec.q, spec._exp, spec._log
    assert sorted(exp) == list(range(1, q))
    assert [log[x] for x in exp] == list(range(q - 1))
    assert log[0] == 0
    g = exp[1]
    for i in rng_stream(41, q).integers(q - 1, size=2000).tolist():
        assert exp[(i + 1) % (q - 1)] == spec._mul_raw(exp[i], g)
    # g is the smallest generator: every smaller nonzero code has a smaller order
    assert all(gcd(log[c], q - 1) > 1 for c in range(1, g))


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
