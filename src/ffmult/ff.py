"""Exact arithmetic over finite fields F_q with q = p^e.

Elements are canonically encoded as integers in [0, q): the code
``c_0 + c_1*p + ... + c_{e-1}*p^{e-1}`` stands for the residue polynomial
``c_0 + c_1*X + ... + c_{e-1}*X^{e-1}`` modulo the canonical irreducible
modulus shipped in ``moduli.txt``.  For e = 1 the code is just the residue
mod p.  :class:`FieldElement` wraps a code together with its field; hot
loops use ``FieldSpec.vec``, the same arithmetic on numpy arrays of codes.

Enumeration order is code order, i.e. lexicographic on coefficient vectors
with the constant term varying fastest, which is stable across runs because
the modulus table is version-controlled data.

Randomness comes from the counter-based Philox-4x64-10 generator (numpy),
seeded by a single 64-bit integer; independent streams for parallel trials
derive from (seed, stream-index) key pairs.
"""

from __future__ import annotations

import operator
from functools import lru_cache
from importlib import resources

import numpy as np

from .errors import (
    DivisionByZero,
    InternalDefect,
    InvalidParameters,
    MissingModulusEntry,
    NonPrimeCharacteristic,
    SpecMismatch,
    UnsupportedSize,
)

SIZE_CAP = 2 ** 20          # largest supported q
_ODD_TABLE_CAP = 2 ** 16    # odd p^e gets log/exp tables up to here; GF(2^e) always
DOT_BLOCK_CELLS = 2 ** 16   # (row, term, column) cells per block of a GF(2^e) dot


def is_prime(n: int) -> bool:
    if n < 2:
        return False
    if n < 4:
        return True
    if n % 2 == 0:
        return False
    d = 3
    while d * d <= n:
        if n % d == 0:
            return False
        d += 2
    return True


@lru_cache(maxsize=1)
def _modulus_table() -> dict[tuple[int, int], tuple[int, ...]]:
    table: dict[tuple[int, int], tuple[int, ...]] = {}
    text = resources.files(__package__).joinpath("moduli.txt").read_text()
    for line in text.splitlines():
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        parts = [int(tok) for tok in line.split()]
        p, e, coeffs = parts[0], parts[1], tuple(parts[2:])
        if len(coeffs) != e + 1 or coeffs[-1] != 1:
            raise MissingModulusEntry(f"malformed modulus entry for ({p}, {e})")
        table[(p, e)] = coeffs
    return table


class FieldElement:
    """An element of F_q in canonical (fully reduced) representation.

    Equality is on (field, code), and a bare int code compares equal to the
    element it encodes, so the hash is the hash of the code.  The coefficient
    vector is available via :attr:`coeffs`.
    """

    __slots__ = ("spec", "code")

    def __init__(self, spec: FieldSpec, code: int):
        self.spec = spec
        self.code = code

    @property
    def coeffs(self) -> tuple[int, ...]:
        return self.spec.code_to_coeffs(self.code)

    def _other_code(self, other) -> int:
        # bare ints are element codes, same as everywhere else in the API
        if isinstance(other, FieldElement):
            if other.spec is not self.spec:
                raise SpecMismatch("operands belong to different fields")
            return other.code
        if isinstance(other, int):
            return self.spec.coerce(other)
        return NotImplemented

    def __add__(self, other):
        c = self._other_code(other)
        if c is NotImplemented:
            return NotImplemented
        return FieldElement(self.spec, self.spec.add(self.code, c))

    __radd__ = __add__

    def __sub__(self, other):
        c = self._other_code(other)
        if c is NotImplemented:
            return NotImplemented
        return FieldElement(self.spec, self.spec.sub(self.code, c))

    def __rsub__(self, other):
        c = self._other_code(other)
        if c is NotImplemented:
            return NotImplemented
        return FieldElement(self.spec, self.spec.sub(c, self.code))

    def __mul__(self, other):
        c = self._other_code(other)
        if c is NotImplemented:
            return NotImplemented
        return FieldElement(self.spec, self.spec.mul(self.code, c))

    __rmul__ = __mul__

    def __truediv__(self, other):
        c = self._other_code(other)
        if c is NotImplemented:
            return NotImplemented
        return FieldElement(self.spec, self.spec.mul(self.code, self.spec.inv(c)))

    def __neg__(self):
        return FieldElement(self.spec, self.spec.neg(self.code))

    def __pow__(self, n: int):
        return FieldElement(self.spec, self.spec.pow(self.code, n))

    def inverse(self) -> "FieldElement":
        return FieldElement(self.spec, self.spec.inv(self.code))

    def __eq__(self, other):
        if isinstance(other, FieldElement):
            return self.spec is other.spec and self.code == other.code
        if isinstance(other, int):
            return 0 <= other < self.spec.q and self.code == other
        return NotImplemented

    def __hash__(self):
        # equal to the hash of the int code, since __eq__ accepts bare codes
        return hash(self.code)

    def __bool__(self):
        return self.code != 0

    def __repr__(self):
        return f"F{self.spec.q}({self.code})"


class FieldSpec:
    """A finite field F_q, q = p^e, with canonical modulus and element codes.

    Use :func:`field_make` to construct; equal (p, e) always share one
    instance, hence the identical modulus.
    """

    def __init__(self, p: int, e: int, modulus: tuple[int, ...]):
        self.p = p
        self.e = e
        self.q = p ** e
        self.modulus = modulus  # length e+1, low-to-high, monic; unused for e=1
        # for p = 2, the modulus as a code of e+1 bits
        self._modulus_bits = sum(c << i for i, c in enumerate(modulus))
        self._exp: np.ndarray | None = None  # log/exp tables, see _ensure_tables
        self._log: np.ndarray | None = None
        self._vec: VecOps | None = None

    # -- element codecs -------------------------------------------------------

    def code_to_coeffs(self, code: int) -> tuple[int, ...]:
        p = self.p
        out = []
        for _ in range(self.e):
            out.append(code % p)
            code //= p
        return tuple(out)

    def coeffs_to_code(self, coeffs) -> int:
        code = 0
        for c in reversed(list(coeffs)):
            code = code * self.p + (c % self.p)
        return code

    def element(self, value) -> FieldElement:
        return FieldElement(self, self.coerce(value))

    def coerce(self, value) -> int:
        """Accept a FieldElement of this field or an integer code in [0, q);
        anything else, a float or a string included, raises InvalidParameters."""
        if isinstance(value, FieldElement):
            if value.spec is not self:
                raise SpecMismatch("element belongs to a different field")
            return value.code
        try:
            code = operator.index(value)
        except TypeError:
            raise InvalidParameters(f"not an element code: {value!r}") from None
        if not 0 <= code < self.q:
            raise InvalidParameters(f"code {code} outside [0, {self.q})")
        return code

    def zero(self) -> FieldElement:
        return FieldElement(self, 0)

    def one(self) -> FieldElement:
        return FieldElement(self, 1)

    def elements(self):
        """All q elements in canonical enumeration order."""
        return [FieldElement(self, c) for c in range(self.q)]

    # -- integer-code arithmetic ----------------------------------------------

    def add(self, a: int, b: int) -> int:
        if self.e == 1:
            return (a + b) % self.p
        if self.p == 2:
            return a ^ b
        p, out, mul = self.p, 0, 1
        for _ in range(self.e):
            out += ((a + b) % p) * mul
            a //= p
            b //= p
            mul *= p
        return out

    def sub(self, a: int, b: int) -> int:
        return self.add(a, self.neg(b))

    def neg(self, a: int) -> int:
        if self.e == 1:
            return (-a) % self.p
        if self.p == 2:
            return a
        p, out, mul = self.p, 0, 1
        for _ in range(self.e):
            out += (-a % p) % p * mul
            a //= p
            mul *= p
        return out

    def _mul_raw(self, a: int, b: int) -> int:
        """Polynomial multiplication of codes, reduced by the modulus."""
        p, e = self.p, self.e
        if p == 2:
            # the same product on bit vectors: carry-less, then reduced from the top
            prod = 0
            for i in range(e):
                if b >> i & 1:
                    prod ^= a << i
            for i in range(2 * e - 2, e - 1, -1):
                if prod >> i & 1:
                    prod ^= self._modulus_bits << (i - e)
            return prod
        av = self.code_to_coeffs(a)
        bv = self.code_to_coeffs(b)
        prod = [0] * (2 * e - 1)
        for i, ai in enumerate(av):
            if ai:
                for j, bj in enumerate(bv):
                    prod[i + j] = (prod[i + j] + ai * bj) % p
        mod = self.modulus
        for i in range(2 * e - 2, e - 1, -1):
            c = prod[i]
            if c:
                prod[i] = 0
                for j in range(e):
                    prod[i - e + j] = (prod[i - e + j] - c * mod[j]) % p
        return self.coeffs_to_code(prod[:e])

    def _ensure_tables(self) -> None:
        """The one copy of the log/exp tables, read-only and in the layout
        the table kernels index: ``log`` is int32 with the sentinel
        log[0] = 2(q-1), and ``exp`` holds the q-1 powers of the generator
        twice, then zeros through index 4(q-1), in the smallest unsigned
        dtype.  So exp[log a + log b] is a*b even when a or b is zero.  Every
        GF(2^e) has them; odd p^e above _ODD_TABLE_CAP has none."""
        if self._exp is not None or (self.p != 2 and self.q > _ODD_TABLE_CAP):
            return
        q, n1 = self.q, self.q - 1
        factors = _prime_factors(n1)
        g = next((c for c in range(1, q)
                  if all(self._pow_raw(c, n1 // r) != 1 for r in factors)), None)
        if g is None:
            raise InternalDefect(f"no multiplicative generator found in {self!r}")
        # exp[n:2n] = exp[:n] * g^n, so log2(q) doublings by the array kernel.
        # Narrow dtypes keep each array freed here near 128 KB or below: a
        # larger free raises glibc's mmap threshold and slowed later ops 4%.
        kernel, code = _PolyVecOps(self), np.min_scalar_type(n1)
        exp = np.zeros(4 * n1 + 1, dtype=code)
        exp[0] = 1
        n, g_n = 1, g
        while n < n1:
            take = min(n, n1 - n)
            exp[n : n + take] = kernel.mul(exp[:take], g_n)
            n, g_n = 2 * n, int(kernel.mul(g_n, g_n))
        exp[n1 : 2 * n1] = exp[:n1]
        log = np.full(q, 2 * n1, dtype=np.int32)
        log[exp[:n1]] = np.arange(n1, dtype=code)
        exp.flags.writeable = log.flags.writeable = False
        self._exp, self._log = exp, log

    def _pow_raw(self, a: int, n: int) -> int:
        result = 1
        while n:
            if n & 1:
                result = self._mul_raw(result, a)
            a = self._mul_raw(a, a)
            n >>= 1
        return result

    def mul(self, a: int, b: int) -> int:
        if self.e == 1:
            return (a * b) % self.p
        self._ensure_tables()
        if self._exp is not None:
            return self._exp.item(self._log.item(a) + self._log.item(b))
        return self._mul_raw(a, b) if a and b else 0

    def inv(self, a: int) -> int:
        if a == 0:
            raise DivisionByZero("zero has no multiplicative inverse")
        if self.e == 1:
            return pow(a, self.p - 2, self.p)
        self._ensure_tables()
        if self._exp is not None:
            return self._exp.item(self.q - 1 - self._log.item(a))
        return self._pow_raw(a, self.q - 2)

    def pow(self, a: int, n: int) -> int:
        if n < 0:
            return self.pow(self.inv(a), -n)
        if self.e == 1:
            return pow(a, n, self.p)
        if a == 0:
            return 1 if n == 0 else 0
        self._ensure_tables()
        if self._exp is not None:
            # in Python ints: log a * n overflows int32
            return self._exp.item(self._log.item(a) * n % (self.q - 1))
        return self._pow_raw(a, n)

    @property
    def vec(self) -> "VecOps":
        """Arithmetic on numpy arrays of codes; built on first use."""
        if self._vec is None:
            self._vec = _make_vec_ops(self)
        return self._vec

    # -- misc ------------------------------------------------------------------

    def __repr__(self):
        return f"GF({self.q})" if self.e == 1 else f"GF({self.p}^{self.e})"

    def __reduce__(self):  # pickle back through the canonical cache
        return (field_make, (self.p, self.e))


def _prime_factors(n: int) -> list[int]:
    out = []
    d = 2
    while d * d <= n:
        if n % d == 0:
            out.append(d)
            while n % d == 0:
                n //= d
        d += 1
    if n > 1:
        out.append(n)
    return out


# -- array arithmetic -------------------------------------------------------------
#
# ``FieldSpec.vec`` applies F_q arithmetic elementwise to numpy arrays of codes,
# with numpy broadcasting (a bare int is a 0-d operand).  Each field family has
# its own implementation.  The scalar FieldSpec methods are the reference for
# add, sub and neg on every field, and for mul on prime fields and on odd p^e
# above _ODD_TABLE_CAP.  A table field (every GF(2^e), and odd p^e up to the
# cap) shares the one copy of the log/exp tables between its scalar methods
# and its kernel, which tests check against ``scalar_ref.log_exp_tables``.


class VecOps:
    """Elementwise arithmetic on arrays of codes; each field family subclasses
    it with its own add, mul, sub and neg.  The methods here are folds over
    those, for the families that have nothing faster."""

    def inv(self, a: int) -> int:
        return self.spec.inv(a)

    def sub_mul(self, a, f, b) -> np.ndarray:
        """A representative of a - f*b; ``a``, an int64 array, may itself be
        a representative and may be overwritten by the result; f and b are
        codes."""
        return self.sub(a, self.mul(f, b))

    def reduce(self, a) -> np.ndarray:
        """Codes from representatives."""
        return a

    def sum(self, a, axis: int) -> np.ndarray:
        """The field sum of an array of codes along one axis, by a fold of
        ``add``; zero over an empty axis."""
        a = np.moveaxis(np.asarray(a), axis, 0)
        acc = np.zeros(a.shape[1:], dtype=np.int64)
        for part in a:
            acc = self.add(acc, part)
        return acc

    def dot(self, a, b, c) -> np.ndarray:
        """c + a·b for arrays of codes a (rows x k), b (k x cols) and c
        (rows x cols), by a fold of ``add`` over the inner index."""
        acc = c
        for t in range(np.shape(a)[1]):
            acc = self.add(acc, self.mul(a[:, t, None], b[t]))
        return acc

    def poly_eval(self, coeffs, xs) -> np.ndarray:
        """The polynomial with low-to-high coefficient codes ``coeffs`` (at
        least one) at every code of xs, by Horner's rule.  A coefficient may
        be an array of codes; the result has the broadcast shape of all."""
        if len(coeffs) == 1:
            shape = np.broadcast_shapes(np.shape(xs), np.shape(coeffs[0]))
            return np.full(shape, coeffs[0], dtype=np.int64)
        acc = coeffs[-1]  # each step broadcasts against xs and one coefficient
        for c in reversed(coeffs[:-1]):
            acc = self.add(self.mul(acc, xs), c)
        return acc

    def poly_eval_rows(self, rows, xs) -> np.ndarray:
        """Every row of the 2-D array ``rows``, low-to-high coefficient codes
        (at least one column), at every code of the 1-D xs: entry [i, j] is
        row i at xs[j].  One Horner pass over the columns."""
        return self.poly_eval(list(np.asarray(rows, dtype=np.int64).T[:, :, None]), xs)


class _PolyVecOps(VecOps):
    """Extension fields in the polynomial basis, with no tables: the family
    of odd p^e above _ODD_TABLE_CAP, and the kernel that builds the tables.

    Base-p digit arrays: mul convolves the e digits of a with those of b and
    reduces by the monic modulus from the top down; add, sub and neg act
    digit by digit.  For p = 2, mul alone takes shift and XOR, a step per bit
    of b: add a where it is set, then multiply a by X, reduced when bit e is
    set.  Codes and digits are int32: for q <= SIZE_CAP a shifted code stays
    below 2^21, and a convolution and its reduction below 2e(p-1)^2 < 2^31.
    """

    def __init__(self, spec: FieldSpec):
        self.spec, self.p, self.e = spec, spec.p, spec.e
        self.modulus = np.array(spec.modulus[: self.e], dtype=np.int32)
        self.powers = self.p ** np.arange(self.e, dtype=np.int32)

    def _digits(self, a, ndim: int) -> np.ndarray:
        """The base-p digits of the codes a, low first, on a new leading
        axis; a first gains leading unit axes up to ``ndim``."""
        a = np.asarray(a, dtype=np.int32)
        a = a.reshape((1,) * (ndim - a.ndim) + a.shape)
        return a // self.powers.reshape((-1,) + (1,) * ndim) % self.p

    def _code(self, digits) -> np.ndarray:
        return np.tensordot(self.powers, digits % self.p, axes=1)

    def _digitwise(self, op, a, b) -> np.ndarray:
        ndim = max(np.ndim(a), np.ndim(b))
        return self._code(op(self._digits(a, ndim), self._digits(b, ndim)))

    def add(self, a, b):
        return self._digitwise(np.add, a, b)

    def sub(self, a, b):
        return self._digitwise(np.subtract, a, b)

    def neg(self, a):
        return self._code(-self._digits(a, np.ndim(a)))

    def mul(self, a, b):
        e = self.e
        if self.p == 2:
            a, b = np.array(a, dtype=np.int32), np.asarray(b, dtype=np.int32)
            acc = np.zeros(np.broadcast_shapes(a.shape, b.shape), dtype=np.int32)
            for bit in range(e):
                acc ^= a & -(b >> bit & 1)
                a <<= 1
                a ^= (a >> e) * self.spec._modulus_bits
            return acc
        ndim = max(np.ndim(a), np.ndim(b))
        ad, bd = self._digits(a, ndim), self._digits(b, ndim)
        prod = np.zeros((2 * e - 1,) + np.broadcast_shapes(ad.shape, bd.shape)[1:],
                        dtype=np.int32)
        for i in range(e):
            prod[i : i + e] += ad[i] * bd
        for k in range(2 * e - 2, e - 1, -1):
            prod[k - e : k] -= np.multiply.outer(self.modulus, prod[k] % self.p)
        return self._code(prod[:e])


class _PrimeVecOps(VecOps):
    """F_p as int64 arithmetic mod p.  Products of codes are at most
    (p-1)^2 < 2^40.  sub_mul skips the reduction, so each call moves an entry
    by at most (p-1)^2; elimination reduces after at most PANEL calls."""

    def __init__(self, spec: FieldSpec):
        self.spec, self.p = spec, spec.p

    def add(self, a, b):
        return np.add(a, b, dtype=np.int64) % self.p

    def mul(self, a, b):
        return np.multiply(a, b, dtype=np.int64) % self.p

    def sub(self, a, b):
        return np.subtract(a, b, dtype=np.int64) % self.p

    def neg(self, a):
        return np.negative(a, dtype=np.int64) % self.p

    def sub_mul(self, a, f, b):
        return np.subtract(a, np.multiply(f, b, dtype=np.int64), out=a)

    def reduce(self, a):
        return np.remainder(a, self.p)

    def sum(self, a, axis):
        # codes are below p <= 2^20, so the int64 sum is exact below 2^43 terms
        return np.sum(a, axis=axis, dtype=np.int64) % self.p

    def dot(self, a, b, c):
        # c plus k products of codes stays below k*(p-1)^2 + p; float32 holds
        # every integer below 2^24 and float64 below 2^53, so the narrowest
        # type the bound allows (FFLAS-FFPACK's rule) sums exactly in any
        # order.  einsum without optimize never calls BLAS, whose threads
        # cost more than they save at these sizes.
        k = np.shape(a)[1]
        bound = k * (self.p - 1) ** 2 + self.p
        if bound >= 2 ** 53:
            raise InternalDefect(f"a sum of {k} products is not exact in float64 mod {self.p}")
        real, whole = (np.float32, np.int32) if bound < 2 ** 24 else (np.float64, np.int64)
        acc = np.einsum("ik,kj->ij", np.asarray(a, dtype=real), np.asarray(b, dtype=real),
                        optimize=False)
        out = acc.astype(whole)
        np.add(out, c, out=out, casting="unsafe")  # c holds codes, of any dtype
        quot = out // self.p  # cheaper than np.remainder
        quot *= self.p
        out -= quot
        return out


class _LogVecOps(VecOps):
    """GF(2^e): XOR subtraction, log/exp multiplication.

    ``log`` and ``exp`` are the field's own tables, not copies: with the
    zero sentinel (see ``FieldSpec._ensure_tables``), ``exp[log[a] + log[b]]``
    is the product even when a or b is zero.
    """

    def __init__(self, spec: FieldSpec):
        spec._ensure_tables()
        self.spec, self.n1, self.log, self.exp = spec, spec.q - 1, spec._log, spec._exp

    def add(self, a, b):
        return np.bitwise_xor(a, b)

    sub = add

    def mul(self, a, b):
        return self.exp[self.log[a] + self.log[b]]

    def neg(self, a):
        return np.asarray(a)

    def sum(self, a, axis):
        return np.bitwise_xor.reduce(a, axis=axis)

    def dot(self, a, b, c):
        # c XOR the k products of each cell, over blocks of rows
        la, lb = self.log[a], self.log[b]
        out = np.array(c, dtype=np.int64)
        step = max(1, DOT_BLOCK_CELLS // max(lb.size, 1))
        for lo in range(0, len(la), step):
            out[lo : lo + step] ^= np.bitwise_xor.reduce(
                self.exp[la[lo : lo + step, :, None] + lb], axis=1)
        return out


class _ZechVecOps(_LogVecOps):
    """Odd p^e with q <= 2^16: log/exp multiplication, and subtraction by Zech
    logarithms (Huber, 1990): g^i - g^j = g^(i + Z(j - i)) with
    Z(d) = log(1 - g^d), which is the zero sentinel at d = 0.

    ``zech`` is indexed by log b - log a + 2(q-1), so that with the zero
    sentinel every case is one lookup: at most 3(q-1) it holds the Zech
    logarithm; above it, where b = 0 and a is not, 0; below q-1, where a = 0
    and b is not, a shift that takes log a back to log(-b).
    """

    def __init__(self, spec: FieldSpec):
        super().__init__(spec)
        n1 = self.n1
        self.half = n1 // 2  # g^half = -1
        kernel = _PolyVecOps(spec)
        zech = self.log[kernel.sub(1, self.exp[:n1])]
        i = np.arange(4 * n1 + 1)
        self.zech = np.where(i < n1, (i + self.half) % n1 - 2 * n1,
                             np.where(i > 3 * n1, 0, zech[i % n1]))
        # dot adds codes digit by digit: ``spread[x]`` holds base-p digit i
        # of the code exp[x] in bits [i*bits, (i+1)*bits) of an int64, so a
        # sum of up to ``terms`` spread codes carries no digit into the next
        self.bits = 63 // spec.e
        self.terms = (2 ** self.bits - 1) // (spec.p - 1)
        digits = kernel._digits(self.exp, 1).astype(np.int64)
        self.spread = np.sum(digits << self.bits * np.arange(spec.e)[:, None], axis=0)

    sum = VecOps.sum

    def dot(self, a, b, c):
        # c and then up to terms - 1 products at a time, summed spread
        la, lb = self.log[a], self.log[b]
        acc = c
        for lo in range(0, la.shape[1], self.terms - 1):
            spread = self.spread[self.log[acc]]
            for t in range(lo, min(lo + self.terms - 1, la.shape[1])):
                spread += self.spread[la[:, t, None] + lb[t]]
            acc = self._unspread(spread)
        return acc

    def _unspread(self, spread):
        """Codes from sums of spread codes: each digit field mod p."""
        p, mask = self.spec.p, 2 ** self.bits - 1
        out = np.zeros(spread.shape, dtype=np.int64)
        for i in reversed(range(self.spec.e)):
            out = out * p + (spread >> (self.bits * i) & mask) % p
        return out

    def add(self, a, b):
        return self.sub(a, self.neg(b))

    def sub(self, a, b):
        la = self.log[a]
        return self.exp[la + self.zech[self.log[b] - la + 2 * self.n1]]

    def neg(self, a):
        return self.exp[self.log[a] + self.half]


def _make_vec_ops(spec: FieldSpec) -> VecOps:
    if spec.e == 1:
        return _PrimeVecOps(spec)
    if spec.p == 2:
        return _LogVecOps(spec)
    return _ZechVecOps(spec) if spec.q <= _ODD_TABLE_CAP else _PolyVecOps(spec)


# -- the point order of F_q^n ------------------------------------------------------


def point_codes(coords, q: int) -> np.ndarray:
    """The code of each point of F_q^n whose coordinates lie on the last axis
    of ``coords``: its base-q number, the first coordinate most significant,
    which is its index in ``itertools.product(range(q), repeat=n)`` order."""
    coords = np.asarray(coords)
    codes = np.zeros(coords.shape[:-1], dtype=np.int64)
    # Horner's rule in place: this is the merger enumeration's inner loop,
    # where an integer matmul with the place values is slower
    for j in range(coords.shape[-1]):
        codes *= q
        codes += coords[..., j]
    return codes


def code_points(codes, q: int, n: int) -> np.ndarray:
    """The points of F_q^n with the given ``point_codes``, as an (..., n)
    int64 array of coordinates."""
    place = q ** np.arange(n - 1, -1, -1, dtype=np.int64)
    return np.asarray(codes, dtype=np.int64)[..., None] // place % q


def field_make(p: int, e: int = 1) -> FieldSpec:
    """Construct (or fetch the cached) F_{p^e} with the canonical modulus.

    Specs are singletons per (p, e), so equal parameters always share the
    identical modulus and may be compared by identity.
    """
    return _field_make(int(p), int(e))


@lru_cache(maxsize=None)
def _field_make(p: int, e: int) -> FieldSpec:
    # a characteristic above the cap is refused by size before any primality
    # test, and a huge e before p ** e is formed
    if p < 2 or (p <= SIZE_CAP and not is_prime(p)):
        raise NonPrimeCharacteristic(f"characteristic {p} is not prime")
    if e < 1:
        raise UnsupportedSize(f"extension degree must be >= 1, got {e}")
    if p > SIZE_CAP or e >= SIZE_CAP.bit_length() or p ** e > SIZE_CAP:
        raise UnsupportedSize(f"{p}^{e} exceeds the supported cap {SIZE_CAP}")
    if e == 1:
        return FieldSpec(p, 1, (0, 1))
    modulus = _modulus_table().get((p, e))
    if modulus is None:
        raise MissingModulusEntry(f"no canonical modulus shipped for ({p}, {e})")
    return FieldSpec(p, e, modulus)


def field_text_parts(text: str) -> tuple[int, int]:
    """(p, e) from the text 'p' or 'p^e'; any other text raises
    InvalidParameters.  Says nothing about whether the field exists."""
    p_str, caret, e_str = str(text).strip().partition("^")
    try:
        return int(p_str), int(e_str) if caret else 1
    except ValueError:
        raise InvalidParameters(f"not a field 'p' or 'p^e': {text!r}") from None


def parse_field_spec(text: str) -> FieldSpec:
    """Parse 'p' or 'p^e' into a field, e.g. '5' or '2^6'."""
    return field_make(*field_text_parts(text))


def parse_prime_power(q: int) -> FieldSpec:
    """The field of order q = p^e; any other q is made as a characteristic,
    which field_make refuses."""
    for p in range(2, q + 1):
        if q % p == 0:
            e, m = 0, q
            while m % p == 0:
                m //= p
                e += 1
            return field_make(p, e) if m == 1 else field_make(q)
    return field_make(q)


def field_enumerate(spec: FieldSpec) -> list[FieldElement]:
    """All q elements, zero first, constant term fastest; stable across runs."""
    return spec.elements()


def rng_stream(seed: int, stream: int = 0) -> np.random.Generator:
    """Counter-based Philox-4x64-10 generator keyed by (seed, stream)."""
    key = np.array([seed % 2 ** 64, stream % 2 ** 64], dtype=np.uint64)
    return np.random.Generator(np.random.Philox(key=key))

def field_sample(spec: FieldSpec, rng: np.random.Generator) -> FieldElement:
    """Uniform draw over the q elements; identical seed => identical sequence."""
    return FieldElement(spec, int(rng.integers(spec.q)))


# -- modulus verification (used by the self-test suite) ------------------------

def verify_modulus_irreducible(spec: FieldSpec) -> bool:
    """Exhaustive factor check of the canonical modulus over F_p.

    Trial-divides by every monic polynomial of degree 1..e//2; intended for
    the supported desk-scale sizes only.
    """
    if spec.e == 1:
        return True
    p, e = spec.p, spec.e
    mod = list(spec.modulus)

    def poly_rem(a: list[int], b: list[int]) -> list[int]:
        a = a[:]
        db = len(b) - 1
        inv_lead = pow(b[-1], p - 2, p)
        for i in range(len(a) - 1, db - 1, -1):
            c = (a[i] * inv_lead) % p
            if c:
                for j in range(db + 1):
                    a[i - db + j] = (a[i - db + j] - c * b[j]) % p
        return a[:db]

    for deg in range(1, e // 2 + 1):
        for packed in range(p ** deg):
            divisor, v = [], packed
            for _ in range(deg):
                divisor.append(v % p)
                v //= p
            divisor.append(1)  # monic
            if not any(poly_rem(mod, divisor)):
                return False
    return True
