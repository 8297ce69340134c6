"""Exact arithmetic over finite fields F_q with q = p^e.

Elements are canonically encoded as integers in [0, q): the code
``c_0 + c_1*p + ... + c_{e-1}*p^{e-1}`` stands for the residue polynomial
``c_0 + c_1*X + ... + c_{e-1}*X^{e-1}`` modulo the canonical irreducible
modulus shipped in ``moduli.txt``.  For e = 1 the code is just the residue
mod p.  :class:`FieldElement` wraps a code together with its field; hot
loops use ``FieldSpec.vec``, the same arithmetic on numpy arrays of codes, in
three families: prime fields mod p, GF(2^e) by log/exp tables and XOR, and
odd p^e by log/exp tables and Zech logarithms.

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
TABLE_BLOCK = 2 ** 16       # codes per block of a table build
DOT_BLOCK_CELLS = 2 ** 16   # (row, term, column) cells per block of a GF(2^e) dot
REMAINDER_CELLS = 2 ** 9    # prime reduce: np.remainder below this many entries,
                            # where it beats floor division (see _PrimeVecOps.reduce)


def strict_index(value) -> int:
    """``operator.index(value)``, which raises TypeError for a bool as well:
    JSON true and false are not integers."""
    if isinstance(value, bool):
        raise TypeError(f"not an integer: {value!r}")
    return operator.index(value)


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
        anything else, a float, a string or a bool included, raises
        InvalidParameters."""
        if isinstance(value, FieldElement):
            if value.spec is not self:
                raise SpecMismatch("element belongs to a different field")
            return value.code
        return self.check_code(value)

    def check_code(self, value) -> int:
        """An integer code in [0, q), as an int; anything else, a
        FieldElement, a float, a string or a bool included, raises
        InvalidParameters."""
        try:
            code = strict_index(value)
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
        return self.coeffs_to_code(x + y for x, y in zip(self.code_to_coeffs(a),
                                                         self.code_to_coeffs(b)))

    def sub(self, a: int, b: int) -> int:
        return self.add(a, self.neg(b))

    def neg(self, a: int) -> int:
        if self.e == 1:
            return (-a) % self.p
        if self.p == 2:
            return a
        return self.coeffs_to_code(-x for x in self.code_to_coeffs(a))

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

    def _mul_by(self, a: np.ndarray, c: int) -> np.ndarray:
        """The array of codes ``a`` times the one code ``c``, as int32 codes:
        _mul_raw on arrays, which builds the tables.  For p = 2, shift and
        XOR: a step per bit of c, which adds a where the bit is set and then
        multiplies a by X, reduced when bit e is set.  For odd p, base-p
        digits: the digits of a times each nonzero digit of c, reduced by the
        monic modulus from the top down.  A shifted code stays below 2^21,
        and a digit sum and its reduction below 2e(p-1)^2 < 2^31."""
        p, e = self.p, self.e
        a = np.array(a, dtype=np.int32)
        if p == 2:
            acc = np.zeros_like(a)
            for bit in range(c.bit_length()):
                if c >> bit & 1:
                    acc ^= a
                a <<= 1
                a ^= (a >> e) * self._modulus_bits
            return acc
        c_digits = [(j, cj) for j, cj in enumerate(self.code_to_coeffs(c)) if cj]
        prod = np.zeros((2 * e - 1,) + a.shape, dtype=np.int32)
        for i in range(e):
            digit = a % p
            a //= p
            for j, cj in c_digits:
                prod[i + j] += cj * digit
        for k in range(2 * e - 2, e - 1, -1):
            top = prod[k] % p
            for j, mj in enumerate(self.modulus[:e]):
                if mj:
                    prod[k - e + j] -= mj * top
        out = np.zeros_like(a)
        for i in reversed(range(e)):
            out *= p
            out += prod[i] % p
        return out

    def _ensure_tables(self) -> None:
        """The one copy of the log/exp tables, read-only and in the layout
        the table kernels index: ``log`` is int32 with the sentinel
        log[0] = 2(q-1), and ``exp`` holds the q-1 powers of the generator
        twice, then zeros through index 4(q-1), in the smallest unsigned
        dtype.  So exp[log a + log b] is a*b even when a or b is zero.  Every
        extension field has them; a prime field needs none."""
        if self._exp is not None:
            return
        q, n1 = self.q, self.q - 1
        factors = _prime_factors(n1)
        g = next((c for c in range(1, q)
                  if all(self._pow_raw(c, n1 // r) != 1 for r in factors)), None)
        if g is None:
            raise InternalDefect(f"no multiplicative generator found in {self!r}")
        # exp[n:2n] = exp[:n] * g^n, so log2(q) doublings, each in blocks of
        # codes.  Narrow dtypes keep each array freed here near 128 KB or
        # below on GF(2^16): a larger free raises glibc's mmap threshold and
        # slowed later ops 4%.
        code = np.min_scalar_type(n1)
        exp = np.zeros(4 * n1 + 1, dtype=code)
        exp[0] = 1
        n, g_n = 1, g
        while n < n1:
            take = min(n, n1 - n)
            for lo in range(0, take, TABLE_BLOCK):
                hi = min(lo + TABLE_BLOCK, take)
                exp[n + lo : n + hi] = self._mul_by(exp[lo:hi], g_n)
            n, g_n = 2 * n, self._mul_raw(g_n, g_n)
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
        return self._exp.item(self._log.item(a) + self._log.item(b))

    def inv(self, a: int) -> int:
        if a == 0:
            raise DivisionByZero("zero has no multiplicative inverse")
        if self.e == 1:
            return pow(a, self.p - 2, self.p)
        self._ensure_tables()
        return self._exp.item(self.q - 1 - self._log.item(a))

    def pow(self, a: int, n: int) -> int:
        if n < 0:
            return self.pow(self.inv(a), -n)
        if self.e == 1:
            return pow(a, n, self.p)
        if a == 0:
            return 1 if n == 0 else 0
        self._ensure_tables()
        # in Python ints: log a * n overflows int32
        return self._exp.item(self._log.item(a) * n % (self.q - 1))

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
# with numpy broadcasting (a bare int is a 0-d operand).  There are three
# families: prime fields, GF(2^e) and odd p^e.  The scalar FieldSpec methods
# are the reference for add, sub and neg on every field, and for mul on prime
# fields.  Every extension field shares the one copy of its log/exp tables
# between its scalar methods and its kernel, which tests check against
# ``scalar_ref.log_exp_tables``, and its mul against ``scalar_ref.poly_mul``.


class VecOps:
    """Elementwise arithmetic on arrays of codes; each field family subclasses
    it with its own add, mul, sub, neg and ``dot(a, b, c)``, which is c + a·b
    for arrays of codes a (rows x k), b (k x cols) and c (rows x cols), and
    may overwrite c and return it.  The methods here are folds over those,
    for the families that have nothing faster."""

    def inv(self, a: int) -> int:
        return self.spec.inv(a)

    def sub_mul(self, a, f, b) -> np.ndarray:
        """a - f*b written into the integer array ``a``, which it returns;
        ``a`` may hold representatives and the result may be one; f and b
        are codes."""
        a[...] = self.sub(a, self.mul(f, b))
        return a

    def reduce(self, a) -> np.ndarray:
        """Codes from the representatives in the integer array ``a``,
        written into it; returns ``a``."""
        return a

    def sum(self, a, axis: int) -> np.ndarray:
        """The field sum of an array of codes along one axis, by a fold of
        ``add``; zero over an empty axis."""
        a = np.moveaxis(np.asarray(a), axis, 0)
        acc = np.zeros(a.shape[1:], dtype=np.int64)
        for part in a:
            acc = self.add(acc, part)
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


class _PrimeVecOps(VecOps):
    """F_p as int64 arithmetic mod p.  Products of codes are at most
    (p-1)^2 < 2^40.  sub_mul skips the reduction and multiplies in the dtype
    of its target, so each call moves an entry by at most (p-1)^2;
    elimination picks that dtype and reduces after at most PANEL calls."""

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
        return np.subtract(a, np.multiply(f, b, dtype=a.dtype), out=a)

    def reduce(self, a):
        # np.remainder is one call, floor division three: numpy divides by a
        # constant with a multiply and a shift, where np.remainder branches
        # on the signs.  On signed representatives (numpy 2.4, one Xeon core,
        # int32 and int64 alike) np.remainder takes 1.1 us on 64 entries
        # against 2.2 us, the two break even near 700 entries, and on a
        # 64 x 384 panel np.remainder takes 63 us against 15 us
        if a.size < REMAINDER_CELLS:
            return np.remainder(a, self.p, out=a)
        quot = a // self.p
        quot *= self.p
        return np.subtract(a, quot, out=a)

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
        return self.reduce(out)


class _LogVecOps(VecOps):
    """GF(2^e): XOR subtraction, log/exp multiplication.

    ``log`` and ``exp`` are the field's own tables, not copies: with the
    zero sentinel (see ``FieldSpec._ensure_tables``), ``exp[log[a] + log[b]]``
    is the product even when a or b is zero.  Lookups go through ``take``,
    which reads an int32 or unsigned index array as it is; indexing first
    converts it to intp, at about the cost of the lookup.
    """

    def __init__(self, spec: FieldSpec):
        spec._ensure_tables()
        self.spec, self.n1, self.log, self.exp = spec, spec.q - 1, spec._log, spec._exp

    def add(self, a, b):
        return np.bitwise_xor(a, b)

    sub = add

    def mul(self, a, b):
        return self.exp.take(self.log.take(a) + self.log.take(b))

    def neg(self, a):
        return np.asarray(a)

    def sum(self, a, axis):
        return np.bitwise_xor.reduce(a, axis=axis)

    def sub_mul(self, a, f, b):
        a ^= self.mul(f, b)
        return a

    def dot(self, a, b, c):
        # c XOR the k products of each cell, over blocks of rows, in place
        la, lb = self.log.take(a), self.log.take(b)
        out = np.asarray(c)
        step = max(1, DOT_BLOCK_CELLS // max(lb.size, 1))
        for lo in range(0, len(la), step):
            out[lo : lo + step] ^= np.bitwise_xor.reduce(
                self.exp.take(la[lo : lo + step, :, None] + lb), axis=1)
        return out


class _ZechVecOps(_LogVecOps):
    """Odd p^e: log/exp multiplication, and subtraction by Zech logarithms
    (Huber, 1990): g^i - g^j = g^(i + Z(j - i)) with Z(d) = log(1 - g^d),
    which is the zero sentinel at d = 0.

    ``zech`` is indexed by log b - log a + 2(q-1), so that with the zero
    sentinel every case is one lookup: at most 3(q-1) it holds the Zech
    logarithm; above it, where b = 0 and a is not, 0; below q-1, where a = 0
    and b is not, a shift that takes log a back to log(-b).

    ``dot`` adds codes digit by digit: ``spread[x]`` holds base-p digit i of
    the code exp[x] in bits [i*bits, (i+1)*bits) of an int64, so a sum of up
    to ``terms`` spread codes carries no digit into the next.

    Both tables are built from TABLE_BLOCK powers at a time, each written to
    both periods, so the build holds little beyond what it keeps.
    """

    def __init__(self, spec: FieldSpec):
        super().__init__(spec)
        p, e, n1 = spec.p, spec.e, self.n1
        self.half = n1 // 2  # g^half = -1
        self.bits = 63 // e
        self.terms = (2 ** self.bits - 1) // (p - 1)
        self.zech = np.zeros(4 * n1 + 1, dtype=np.int32)
        self.spread = np.zeros(4 * n1 + 1, dtype=np.int64)
        self.zech[3 * n1] = 2 * n1  # Z(0), the zero sentinel
        for lo in range(0, n1, TABLE_BLOCK):
            hi = min(lo + TABLE_BLOCK, n1)
            self.zech[lo:hi] = (np.arange(lo, hi, dtype=np.int32) + self.half) % n1 - 2 * n1
            x = self.exp[lo:hi].astype(np.int32)
            one_minus = np.zeros_like(x)  # the code of 1 - x, digit by digit
            spread = np.zeros(hi - lo, dtype=np.int64)
            for i in range(e):
                digit = x % p
                x //= p
                one_minus += (int(i == 0) - digit) % p * p ** i
                spread += digit.astype(np.int64) << self.bits * i
            self.zech[n1 + lo : n1 + hi] = self.zech[2 * n1 + lo : 2 * n1 + hi] = (
                self.log.take(one_minus))
            self.spread[lo:hi] = self.spread[n1 + lo : n1 + hi] = spread

    sum, sub_mul = VecOps.sum, VecOps.sub_mul

    def dot(self, a, b, c):
        # c and then up to terms - 1 products at a time, summed spread
        la, lb = self.log.take(a), self.log.take(b)
        acc = c
        for lo in range(0, la.shape[1], self.terms - 1):
            spread = self.spread.take(self.log.take(acc))
            for t in range(lo, min(lo + self.terms - 1, la.shape[1])):
                spread += self.spread.take(la[:, t, None] + lb[t])
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
        la = self.log.take(a)
        return self.exp.take(la + self.zech.take(self.log.take(b) - la + 2 * self.n1))

    def neg(self, a):
        return self.exp.take(self.log.take(a) + self.half)


def _make_vec_ops(spec: FieldSpec) -> VecOps:
    if spec.e == 1:
        return _PrimeVecOps(spec)
    return _LogVecOps(spec) if spec.p == 2 else _ZechVecOps(spec)


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
