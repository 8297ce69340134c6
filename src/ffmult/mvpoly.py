"""Sparse multivariate polynomials over F_q.

Carries the multiplicity machinery: Hasse derivatives, multiplicity of a
zero at a point, highest-degree homogeneous parts, composition with curves,
line restrictions, and the total multiplicity mass over a grid S^n.

A polynomial holds its terms as two arrays: ``exps``, the distinct exponent
vectors as (T, n) int64 rows in graded-lex order, and ``coeffs``, their
nonzero coefficient codes as (T,) int64.  Every constructor and ring
operation ends in one canonicalizer, and every array path reads the two
arrays as they are.  The degree of the zero polynomial is the sentinel
``NEG_INF`` (never -1), and the multiplicity of the zero polynomial at any
point is ``INF_MULT``.
"""

from __future__ import annotations

from functools import lru_cache
from math import inf, isqrt
from types import MappingProxyType

import numpy as np

from .errors import (
    DimensionMismatch,
    EmptySet,
    InternalDefect,
    InvalidParameters,
    SpecMismatch,
    UnsupportedSize,
    ZeroPolynomial,
)
from .ff import FieldSpec, code_points

NEG_INF = float("-inf")   # degree of the zero polynomial
INF_MULT = inf            # multiplicity of the zero polynomial
MAX_DEGREE = 2 ** 63 - 2  # largest total degree: deg + 1 still fits int64


def weak_compositions(total: int, parts: int):
    """All exponent vectors of given length summing to ``total``."""
    if parts == 0:
        if total == 0:
            yield ()
        return
    if parts == 1:
        yield (total,)
        return
    for first in range(total + 1):
        for rest in weak_compositions(total - first, parts - 1):
            yield (first,) + rest


def exponents_below_weight(max_weight: int, parts: int):
    """Exponent vectors with wt < max_weight, in graded-lex order."""
    for w in range(max_weight):
        yield from weak_compositions(w, parts)


def coerce_point(spec: FieldSpec, n: int, point) -> tuple[int, ...]:
    pt = tuple(spec.check_code(x) for x in point)
    if len(pt) != n:
        raise DimensionMismatch(f"point has length {len(pt)}, expected {n}")
    return pt


def _from_rows(spec: FieldSpec, n: int, rows: list, coeffs) -> "MultiPoly":
    """The polynomial with the given coefficients at exponent tuples from
    outside, which may repeat: DimensionMismatch for a tuple not of length n
    or with a negative entry, UnsupportedSize for one of total degree above
    MAX_DEGREE, so that no entry or row sum of the array passes int64."""
    for r in rows:
        if len(r) != n or min(r, default=0) < 0:
            raise DimensionMismatch(f"bad exponent vector {r} for n={n}")
        if sum(r) > MAX_DEGREE:
            raise UnsupportedSize(f"exponent vector {r} has total degree above {MAX_DEGREE}")
    return _canonical(spec, n, _code_rows(rows, n), [spec.check_code(c) for c in coeffs])


def _canonical(spec: FieldSpec, n: int, exps: np.ndarray, coeffs) -> "MultiPoly":
    """The sum of the terms coeffs[t] X^exps[t], from (T, n) int64 exponent
    rows, which may repeat, and (T,) codes, which may be zero: sorts the rows
    graded-lex, sums each run of equal rows with ``VecOps.sum`` over a
    zero-padded runs x longest-run array, and drops the zero coefficients."""
    coeffs = np.asarray(coeffs, dtype=np.int64)
    if len(exps) > 1:
        order = np.lexsort((*exps.T[::-1], exps.sum(axis=1)))  # the last key is the primary one
        exps, coeffs = exps[order], coeffs[order]
        repeat = (exps[1:] == exps[:-1]).all(axis=1)  # row t + 1 equals row t
        if np.count_nonzero(repeat):
            new = np.concatenate([[True], ~repeat])  # where a run of equal rows starts
            starts = np.flatnonzero(new)
            run = np.cumsum(new) - 1
            pos = np.arange(len(exps)) - starts[run]
            runs = np.zeros((len(starts), int(pos.max()) + 1), dtype=np.int64)
            runs[run, pos] = coeffs
            exps, coeffs = exps[starts], spec.vec.sum(runs, axis=1)
    if np.count_nonzero(coeffs) < len(coeffs):
        keep = coeffs != 0
        exps, coeffs = exps[keep], coeffs[keep]
    return MultiPoly._make(spec, n, exps, coeffs)


def _sum(spec: FieldSpec, n: int, polys) -> "MultiPoly":
    """The sum of polynomials in n variables, canonicalized once."""
    polys = [MultiPoly.zero(spec, n), *polys]  # so that no list is empty
    return _canonical(spec, n, np.concatenate([P.exps for P in polys]),
                      np.concatenate([P.coeffs for P in polys]))


class MultiPoly:
    """Sparse polynomial in n variables over a fixed field, built from a
    dict mapping exponent tuples of length n to element codes.  Instances are
    immutable, their arrays read-only; all operations return new objects.
    """

    __slots__ = ("spec", "n", "exps", "coeffs")

    def __init__(self, spec: FieldSpec, n: int, terms=None):
        terms = terms or {}
        P = _from_rows(spec, n, [tuple(map(int, e)) for e in terms], terms.values())
        self.spec, self.n, self.exps, self.coeffs = spec, n, P.exps, P.coeffs

    @classmethod
    def _make(cls, spec: FieldSpec, n: int, exps: np.ndarray, coeffs) -> "MultiPoly":
        """A polynomial from arrays already in canonical form."""
        P = object.__new__(cls)
        P.spec, P.n, P.exps, P.coeffs = spec, n, exps, np.asarray(coeffs, dtype=np.int64)
        P.exps.flags.writeable = P.coeffs.flags.writeable = False
        return P

    # -- constructors ----------------------------------------------------------

    @classmethod
    def zero(cls, spec: FieldSpec, n: int) -> "MultiPoly":
        return cls._make(spec, n, _code_rows([], n), ())

    @classmethod
    def constant(cls, spec: FieldSpec, n: int, value) -> "MultiPoly":
        code = spec.check_code(value)
        return cls._make(spec, n, np.zeros((1 if code else 0, n), dtype=np.int64),
                         [code] if code else ())

    @classmethod
    def variable(cls, spec: FieldSpec, n: int, index: int) -> "MultiPoly":
        return cls(spec, n, {tuple(int(j == index) for j in range(n)): 1})

    # -- basic structure ---------------------------------------------------------

    @property
    def terms(self):
        """The terms as a read-only mapping from exponent tuples to codes,
        in graded-lex order."""
        return MappingProxyType(dict(zip(map(tuple, self.exps.tolist()), self.coeffs.tolist())))

    @property
    def is_zero(self) -> bool:
        return not len(self.coeffs)

    @property
    def degree(self):
        """Total degree; NEG_INF for the zero polynomial."""
        return sum(self.exps[-1].tolist()) if len(self.exps) else NEG_INF

    def __eq__(self, other):
        return (isinstance(other, MultiPoly) and self.spec is other.spec and self.n == other.n
                and np.array_equal(self.exps, other.exps)
                and np.array_equal(self.coeffs, other.coeffs))

    def __hash__(self):
        return hash((id(self.spec), self.n, self.exps.tobytes(), self.coeffs.tobytes()))

    def _check_compatible(self, other: "MultiPoly") -> None:
        if self.spec is not other.spec:
            raise SpecMismatch("polynomials over different fields")
        if self.n != other.n:
            raise DimensionMismatch("polynomials in different variable counts")

    # -- ring operations ---------------------------------------------------------

    def __add__(self, other: "MultiPoly") -> "MultiPoly":
        self._check_compatible(other)
        return _sum(self.spec, self.n, (self, other))

    def __neg__(self) -> "MultiPoly":
        return MultiPoly._make(self.spec, self.n, self.exps, self.spec.vec.neg(self.coeffs))

    def __sub__(self, other: "MultiPoly") -> "MultiPoly":
        return self + (-other)

    def __mul__(self, other: "MultiPoly") -> "MultiPoly":
        self._check_compatible(other)
        if self.degree + other.degree > MAX_DEGREE:  # the degree of the product
            raise UnsupportedSize(f"a product of degree above {MAX_DEGREE}")
        exps = self.exps[:, None] + other.exps[None]
        coeffs = self.spec.vec.mul(self.coeffs[:, None], other.coeffs[None])
        return _canonical(self.spec, self.n, exps.reshape(-1, self.n), coeffs.ravel())

    def scale(self, value) -> "MultiPoly":
        code = self.spec.check_code(value)
        if not code:
            return MultiPoly.zero(self.spec, self.n)
        return MultiPoly._make(self.spec, self.n, self.exps, self.spec.vec.mul(self.coeffs, code))

    def power(self, k: int) -> "MultiPoly":
        if k < 0:
            raise InvalidParameters(f"power must be non-negative, got {k}")
        result = MultiPoly.constant(self.spec, self.n, 1)
        base = self
        while k:
            if k & 1:
                result = result * base
            k >>= 1
            if k:
                base = base * base
        return result

    # -- evaluation ---------------------------------------------------------------

    def eval_codes(self, point: tuple[int, ...]) -> int:
        """P at a point of codes: the Hasse derivative of order 0, whose
        coefficients C(r, 0) are 1 and whose shifts are the exponents r."""
        vec = self.spec.vec
        powers = power_tables(vec, _code_rows([point], self.n), int(self.exps.max(initial=0)))
        values = hasse_values(vec, self.coeffs[None], self.exps.T[:, None], powers)
        return int(vec.sum(values, axis=2)[0, 0])

    # -- serialization --------------------------------------------------------------

    def to_text(self) -> str:
        if self.is_zero:
            return "0"
        return ";".join(
            f"{c}:{','.join(map(str, e))}"
            for e, c in zip(self.exps.tolist(), self.coeffs.tolist())
        )

    @classmethod
    def from_text(cls, spec: FieldSpec, n: int, text: str) -> "MultiPoly":
        rows, codes = [], []
        for coeff, exps in parse_terms(text):
            if len(exps) != n:
                term = f"{coeff}:{','.join(map(str, exps))}"
                raise DimensionMismatch(f"term {term!r} has wrong arity for n={n}")
            if spec.check_code(coeff):
                rows.append(exps)
                codes.append(coeff)
        return _from_rows(spec, n, rows, codes)

    def __repr__(self):
        return f"MultiPoly({self.spec}, n={self.n}, {self.to_text()!r})"


def parse_terms(text: str) -> list[tuple[int, tuple[int, ...]]]:
    """(coefficient, exponents) pairs of the text 'coeff:e1,...,en' joined by
    ';' ('0' or nothing for no terms); other text raises InvalidParameters."""
    text = text.strip()
    if text == "0" or not text:
        return []
    terms = []
    for chunk in text.split(";"):
        coeff_str, _, exps_str = chunk.partition(":")
        try:
            exps = tuple(int(t) for t in exps_str.split(",")) if exps_str else ()
            terms.append((int(coeff_str), exps))
        except ValueError:
            raise InvalidParameters(f"not a term 'coeff:e1,...,en': {chunk!r}") from None
    return terms


# -- operations ---------------------------------------------------------------------


def poly_eval(P: MultiPoly, point) -> int:
    """Exact evaluation of P at a point of F_q^n, as a code."""
    return P.eval_codes(coerce_point(P.spec, P.n, point))


def vector_binomial(i, j, spec: FieldSpec) -> int:
    """Product of coordinatewise binomials C(i_k, j_k), reduced into F_q.

    Zero whenever some j_k exceeds i_k.
    """
    i, j = tuple(i), tuple(j)
    if len(i) != len(j):
        raise DimensionMismatch("exponent vectors of unequal length")
    if min(i + j, default=0) < 0:
        raise InvalidParameters(f"binomial arguments must be non-negative, got {i} and {j}")
    # decided on the ints, before any entry has to fit int64
    if any(jk > ik for ik, jk in zip(i, j)):
        return 0
    if max(i, default=0) > MAX_DEGREE:
        raise UnsupportedSize(f"binomial argument {max(i)} above {MAX_DEGREE}")
    binom = lucas_binomial(spec.p, max(i, default=0))
    coef, _ = hasse_coefficients(_code_rows([i], len(i)), _code_rows([j], len(j)), binom, spec.p)
    return int(coef[0, 0])


def hasse_derivative(P: MultiPoly, i) -> MultiPoly:
    """The i-th Hasse derivative, term by term: X^r -> C(r,i) X^(r-i)."""
    i = tuple(i)
    if len(i) != P.n:
        raise DimensionMismatch(f"derivative order has length {len(i)}, expected {P.n}")
    if min(i, default=0) < 0:
        raise InvalidParameters(f"derivative order must be non-negative, got {i}")
    spec = P.spec
    top = int(P.exps.max(initial=0))
    if max(i, default=0) > top:  # C(r, i) = 0 for every term, as i_j > r_j
        return MultiPoly.zero(spec, P.n)
    coef, shifts = hasse_coefficients(P.exps, _code_rows([i], P.n),
                                      lucas_binomial(spec.p, top), spec.p)
    coef = np.asarray(spec.vec.mul(coef[0], P.coeffs), dtype=np.int64)
    keep = coef != 0
    # r -> r - i keeps graded-lex order on the terms with r >= i, the ones kept
    return MultiPoly._make(spec, P.n, shifts[:, 0].T[keep], coef[keep])


def multiplicity(P: MultiPoly, point):
    """Largest M with P^(i)(point) = 0 for all wt(i) < M; INF_MULT iff P = 0."""
    pt = coerce_point(P.spec, P.n, point)
    if P.is_zero:
        return INF_MULT
    return int(_multiplicities(P, _code_rows([pt], P.n))[0])


def multiplicity_tuple(polys, point):
    """Multiplicity of a polynomial tuple: the minimum over components."""
    return min(multiplicity(Q, point) for Q in polys)


def homogeneous_part(P: MultiPoly) -> MultiPoly:
    """Terms of weight exactly deg(P); requires P nonzero."""
    if P.is_zero:
        raise ZeroPolynomial("the zero polynomial has no homogeneous part")
    top = P.exps.sum(axis=1) == P.degree
    return MultiPoly._make(P.spec, P.n, P.exps[top], P.coeffs[top])


class Curve:
    """A tuple of univariate component polynomials, mapping F_q -> F_q^n."""

    __slots__ = ("spec", "n", "components", "degree")

    def __init__(self, spec: FieldSpec, components):
        comps = tuple(components)
        for comp in comps:
            if comp.spec is not spec:
                raise SpecMismatch("curve component over a different field")
            if comp.n != 1:
                raise DimensionMismatch("curve components must be univariate")
        self.spec = spec
        self.n = len(comps)
        self.components = comps
        # max component degree; a constant (or zero) curve has degree 0
        self.degree = max((c.degree for c in comps if not c.is_zero), default=0)

    @classmethod
    def from_coeff_lists(cls, spec: FieldSpec, coeff_lists) -> "Curve":
        """Components with the codes of each list as coefficients, low to
        high: once its zeros are dropped, a dense list is in graded-lex order."""
        codes = [[spec.check_code(c) for c in coeffs] for coeffs in coeff_lists]
        return cls(spec, [MultiPoly._make(spec, 1, _code_rows([(k,) for k, c in enumerate(cs) if c], 1),
                                          [c for c in cs if c]) for cs in codes])

    @classmethod
    def line(cls, spec: FieldSpec, a, b) -> "Curve":
        """The parametrized line t -> a + t*b."""
        n = len(a)
        a = coerce_point(spec, n, a)
        b = coerce_point(spec, n, b)
        return cls.from_coeff_lists(spec, [(aj, bj) for aj, bj in zip(a, b)])

    def values(self, ts) -> np.ndarray:
        """The points C(t) at every code t of the 1-D ts, as a (len(ts), n)
        array of codes: one Horner pass over the component coefficient rows."""
        rows = np.zeros((self.n, self.degree + 1), dtype=np.int64)
        for row, comp in zip(rows, self.components):
            row[comp.exps[:, 0]] = comp.coeffs
        return self.spec.vec.poly_eval_rows(rows, ts).T

    def eval(self, t) -> tuple[int, ...]:
        return tuple(self.values(np.array([self.spec.check_code(t)]))[0].tolist())

    def shifted_by_value_at(self, t) -> list[MultiPoly]:
        """The tuple C - C(t), one component polynomial per coordinate."""
        value = self.eval(t)
        return [
            comp - MultiPoly.constant(self.spec, 1, v)
            for comp, v in zip(self.components, value)
        ]

    def __repr__(self):
        return f"Curve({self.spec}, {[c.to_text() for c in self.components]})"


def compose_curve(P: MultiPoly, C: Curve) -> MultiPoly:
    """P(C_1(T), ..., C_n(T)) as a univariate polynomial."""
    if C.spec is not P.spec:
        raise SpecMismatch("curve over a different field")
    if C.n != P.n:
        raise DimensionMismatch(f"curve has {C.n} components, polynomial has {P.n} variables")
    spec = P.spec
    one = MultiPoly.constant(spec, 1, 1)
    powers = [[one] for _ in C.components]  # powers[j][k] = C_j ** k, as needed
    terms = []
    for exps, coeff in zip(P.exps.tolist(), P.coeffs.tolist()):
        term = one
        for comp, pw, e in zip(C.components, powers, exps):
            while len(pw) <= e:
                pw.append(pw[-1] * comp)
            if e:
                term = pw[e] if term is one else term * pw[e]
        terms.append(term.scale(coeff))
    return _sum(spec, 1, terms)


def restrict_to_line(P: MultiPoly, a, b) -> MultiPoly:
    """P(a + T*b) as a univariate polynomial; b = 0 gives the constant P(a)."""
    return compose_curve(P, Curve.line(P.spec, coerce_point(P.spec, P.n, a), b))


def grid_multiplicities(P: MultiPoly, S) -> np.ndarray:
    """mult(P, a) for every a in S^n (S taken as a set, in increasing code
    order), listed in ``itertools.product`` order; P must be nonzero."""
    spec, n = P.spec, P.n
    codes = np.array(sorted({spec.check_code(s) for s in S}), dtype=np.int64)
    if not codes.size:
        raise EmptySet("S must be non-empty")
    size = len(codes) ** n
    if size > GRID_CAP:
        raise UnsupportedSize(f"a grid of {len(codes)}^{n} points exceeds {GRID_CAP}")
    # the coordinates of at most GRID_CAP cells at a time
    step = max(1, GRID_CAP // max(n, 1))
    return np.concatenate([
        _multiplicities(P, codes[code_points(np.arange(lo, min(lo + step, size)), len(codes), n)])
        for lo in range(0, size, step)])


def multiplicity_mass(P: MultiPoly, S) -> int:
    """Sum of mult(P, a) over all a in S^n (S taken as a set)."""
    if P.is_zero:
        raise ZeroPolynomial("mass is defined for nonzero polynomials only")
    return int(grid_multiplicities(P, S).sum())


# -- batched Hasse derivatives --------------------------------------------------------
#
# P^(i)(a) = sum over terms c_r X^r of c_r * C(r, i) * a^(r - i), with
# C(r, i) = prod_j C(r_j, i_j) mod p (zero where some i_j > r_j).  The same
# table of C(r, i) * a^(r - i) gives the rows of the vanishing constraints
# (interpolate) and, summed against the coefficients, the derivative values
# that ``multiplicities`` tests.

SHELL_BLOCK_CELLS = 2 ** 14  # (point, order, term) cells per shell block
POINT_BLOCK_CELLS = 2 ** 20  # power-table cells per block of points
TABLE_CELLS = 2 ** 22        # largest power table or constraint table built
GRID_CAP = 2 ** 22           # most points of a grid S^n, or coordinates listed at once


def _code_rows(rows, n: int) -> np.ndarray:
    """A sequence of n-tuples as an (N, n) int64 array, n = 0 included; no
    rows for an n below 0, the zero polynomial's."""
    return np.array(rows, dtype=np.int64).reshape(len(rows), max(n, 0))


def lucas_binomial(p: int, top: int):
    """C(r, i) mod p, elementwise on int64 arrays with 0 <= r <= top and
    i >= 0 (zero where i > r), by Lucas's theorem: the product over the
    base-p digits of C(r_d, i_d) = r_d! / (i_d! (r_d - i_d)!) mod p.

    The factorials and inverse factorials mod p are built once, for digits
    below min(p, top + 1).  The inverse table is padded with as many zeros,
    so a digit with i_d > r_d reads one of them at the negative index
    r_d - i_d, and its C(r_d, i_d) is 0 with no mask.
    """
    size = min(p, top + 1)
    fact = _prefix_products(np.arange(size), p)
    last = pow(int(fact[-1]), p - 2, p)  # 1 / (size - 1)!, as size <= p
    # 1/k! = 1/(size-1)! * (k+1) * ... * (size-1), from the top down
    inv = last * _prefix_products(np.arange(size, 0, -1) % size, p)[::-1] % p
    inv = np.concatenate([inv, np.zeros(size, dtype=np.int64)])

    def binom(r, i):
        i = np.minimum(i, top + 1)  # i > top >= r: C(r, i) = 0
        out = 1
        while True:
            (r, rd), (i, id_) = np.divmod(r, p), np.divmod(i, p)
            # each factor is below p <= 2^20, so no product reaches 2^63
            out = out * fact[rd] % p * inv[id_] * inv[rd - id_] % p
            if not i.any():  # C(r_d, 0) = 1 for every digit left
                return out

    return binom


def _prefix_products(a: np.ndarray, p: int) -> np.ndarray:
    """Running products mod p of a, its first entry read as 1.  The entries
    are laid out in rows of about sqrt(len(a) / 16): one numpy step per
    column multiplies along every row at once, then one integer step per row
    carries the products across rows.  An integer step costs about a
    sixteenth of a numpy step, hence the row length."""
    width = isqrt(len(a) // 16) + 1
    rows = np.ones(-(-len(a) // width) * width, dtype=np.int64)
    rows[1:len(a)] = a[1:]
    rows = rows.reshape(-1, width)
    for j in range(1, width):
        rows[:, j] = rows[:, j] * rows[:, j - 1] % p
    carry = [1]
    for last in rows[:-1, -1].tolist():
        carry.append(carry[-1] * last % p)
    return (rows * np.array(carry)[:, None] % p).ravel()[:len(a)]


@lru_cache(maxsize=256)
def shell_orders(w: int, n: int) -> np.ndarray:
    """The derivative orders of weight w in n variables, as a read-only
    (K, n) array."""
    orders = _code_rows(list(weak_compositions(w, n)), n)
    orders.flags.writeable = False
    return orders


def hasse_coefficients(exps: np.ndarray, orders: np.ndarray, binom, p: int):
    """C(r, i) mod p for every order i (rows) and exponent vector r
    (columns) as a (K, T) array, and the (n, K, T) array of shifted
    exponents max(r_j - i_j, 0).  ``binom`` is the ``lucas_binomial`` rule
    of the field's characteristic for exponents up to max(exps)."""
    coef = np.ones((len(orders), len(exps)), dtype=np.int64)
    for factor in binom(exps.T[:, None, :], orders.T[:, :, None]):  # one per coordinate
        coef = coef * factor % p
    return coef, np.maximum(exps.T[:, None, :] - orders.T[:, :, None], 0)


def power_tables(vec, points: np.ndarray, top: int) -> np.ndarray:
    """pw[j, a, k] = points[a, j] ** k for k <= top, by doubling."""
    if points.size * (top + 1) > TABLE_CELLS:
        raise UnsupportedSize(
            f"power tables of {points.size} x {top + 1} exceed {TABLE_CELLS} cells"
        )
    x = points.T.reshape(-1, 1)  # every coordinate of every point
    pw = np.ones((len(x), top + 1), dtype=np.int64)
    xk, done = x, 1  # xk = x ** done
    while done <= top:
        take = min(done, top + 1 - done)
        pw[:, done:done + take] = vec.mul(pw[:, :take], xk)
        xk, done = vec.mul(xk, xk), done + take
    return pw.reshape(points.shape[1], len(points), top + 1)


def hasse_values(vec, coef: np.ndarray, shifts: np.ndarray, powers: np.ndarray) -> np.ndarray:
    """coef[i, r] * prod_j a_j ** shifts[j, i, r] at every point a of the
    power tables: a (points, orders, terms) array of codes."""
    if not len(powers):  # n = 0: one empty point per row of the tables
        return np.broadcast_to(coef, (powers.shape[1], *coef.shape))
    out = coef
    for pw, shift in zip(powers, shifts):
        out = vec.mul(out, pw[:, shift])
    return out


def _shell_nonzero(vec, coef, shifts, powers, alive) -> np.ndarray:
    """Which points of ``alive`` have a nonzero derivative among the orders
    of one shell, in blocks of at most SHELL_BLOCK_CELLS cells."""
    step = max(1, SHELL_BLOCK_CELLS // max(coef.size, 1))
    nonzero = np.zeros(len(alive), dtype=bool)
    for lo in range(0, len(alive), step):
        values = hasse_values(vec, coef, shifts, powers[:, alive[lo:lo + step]])
        nonzero[lo:lo + step] = vec.sum(values, axis=2).any(axis=1)
    return nonzero


def multiplicities(P: MultiPoly, points) -> np.ndarray:
    """mult(P, a) for every point a (n-tuples of element codes, checked as
    ``multiplicity`` checks one point), as an int64 array; P must be
    nonzero."""
    return _multiplicities(P, _code_rows([coerce_point(P.spec, P.n, a) for a in points], P.n))


def _multiplicities(P: MultiPoly, pts: np.ndarray) -> np.ndarray:
    """``multiplicities`` at the rows of an (N, n) array of valid codes.

    Takes the points in blocks of at most POINT_BLOCK_CELLS power-table
    cells.  In each block it walks the weight shells w = 0, 1, ... over the
    points still alive: every Hasse derivative of weight w is evaluated at
    all of them at once, and a point where one is nonzero leaves with
    multiplicity w.  The derivative of a top-degree monomial's order is a
    nonzero constant, so the walk ends by w = deg(P).
    """
    if P.is_zero:
        raise ZeroPolynomial("multiplicities of the zero polynomial are infinite")
    spec, n, vec = P.spec, P.n, P.spec.vec
    top = int(P.exps.max(initial=0))
    binom = lucas_binomial(spec.p, top)
    shells = []  # per weight walked so far: coefficients and shifts of its live terms
    mult = np.zeros(len(pts), dtype=np.int64)
    step = max(1, POINT_BLOCK_CELLS // (max(n, 1) * (top + 1)))
    for lo in range(0, len(pts), step):
        powers = power_tables(vec, pts[lo:lo + step], top)
        alive = np.arange(powers.shape[1])
        for w in range(P.degree + 1):
            if not alive.size:
                break
            if w == len(shells):
                coef, shifts = hasse_coefficients(P.exps, shell_orders(w, n), binom, spec.p)
                coef = vec.mul(coef, P.coeffs)
                live = coef.any(axis=0)  # terms with some nonzero derivative of weight w
                shells.append((coef[:, live], shifts[:, :, live]))
            coef, shifts = shells[w]
            if not coef.size:
                continue
            nonzero = _shell_nonzero(vec, coef, shifts, powers, alive)
            mult[lo + alive[nonzero]] = w
            alive = alive[~nonzero]
        if alive.size:
            raise InternalDefect("nonzero polynomial with multiplicity above its degree")
    return mult
