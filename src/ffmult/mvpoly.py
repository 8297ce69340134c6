"""Sparse multivariate polynomials over F_q.

Carries the multiplicity machinery: Hasse derivatives, multiplicity of a
zero at a point, highest-degree homogeneous parts, composition with curves,
line restrictions, and the total multiplicity mass over a grid S^n.

Terms live in a dict mapping exponent tuples to nonzero element codes.  The
degree of the zero polynomial is the sentinel ``NEG_INF`` (never -1), and
the multiplicity of the zero polynomial at any point is ``INF_MULT``.
"""

from __future__ import annotations

from functools import lru_cache
from math import inf, isqrt

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
from .ff import FieldElement, FieldSpec, code_points

NEG_INF = float("-inf")   # degree of the zero polynomial
INF_MULT = inf            # multiplicity of the zero polynomial


def weight(exps) -> int:
    """Total degree wt(i) of an exponent vector."""
    return sum(exps)


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
    pt = tuple(spec.coerce(x) for x in point)
    if len(pt) != n:
        raise DimensionMismatch(f"point has length {len(pt)}, expected {n}")
    return pt


class MultiPoly:
    """Sparse polynomial in n variables over a fixed field.

    ``terms`` maps exponent tuples of length n to nonzero element codes.
    Instances are treated as immutable; all operations return new objects.
    """

    __slots__ = ("spec", "n", "terms")

    def __init__(self, spec: FieldSpec, n: int, terms=None):
        self.spec = spec
        self.n = n
        clean: dict[tuple[int, ...], int] = {}
        for exps, coeff in (terms or {}).items():
            exps = tuple(int(e) for e in exps)
            if len(exps) != n or any(e < 0 for e in exps):
                raise DimensionMismatch(f"bad exponent vector {exps} for n={n}")
            code = spec.coerce(coeff)
            if code:
                clean[exps] = code
        self.terms = clean

    # -- constructors ----------------------------------------------------------

    @classmethod
    def zero(cls, spec: FieldSpec, n: int) -> "MultiPoly":
        return cls(spec, n, {})

    @classmethod
    def constant(cls, spec: FieldSpec, n: int, value) -> "MultiPoly":
        return cls(spec, n, {(0,) * n: spec.coerce(value)})

    @classmethod
    def monomial(cls, spec: FieldSpec, n: int, exps, coeff=1) -> "MultiPoly":
        return cls(spec, n, {tuple(exps): coeff})

    @classmethod
    def variable(cls, spec: FieldSpec, n: int, index: int) -> "MultiPoly":
        exps = [0] * n
        exps[index] = 1
        return cls(spec, n, {tuple(exps): 1})

    # -- basic structure ---------------------------------------------------------

    @property
    def is_zero(self) -> bool:
        return not self.terms

    @property
    def degree(self):
        """Total degree; NEG_INF for the zero polynomial."""
        if not self.terms:
            return NEG_INF
        return max(weight(e) for e in self.terms)

    def coeff(self, exps) -> int:
        return self.terms.get(tuple(exps), 0)

    def __eq__(self, other):
        return (
            isinstance(other, MultiPoly)
            and self.spec is other.spec
            and self.n == other.n
            and self.terms == other.terms
        )

    def __hash__(self):
        return hash((id(self.spec), self.n, frozenset(self.terms.items())))

    def _check_compatible(self, other: "MultiPoly") -> None:
        if self.spec is not other.spec:
            raise SpecMismatch("polynomials over different fields")
        if self.n != other.n:
            raise DimensionMismatch("polynomials in different variable counts")

    # -- ring operations ---------------------------------------------------------

    def __add__(self, other: "MultiPoly") -> "MultiPoly":
        self._check_compatible(other)
        spec = self.spec
        out = dict(self.terms)
        for exps, c in other.terms.items():
            s = spec.add(out.get(exps, 0), c)
            if s:
                out[exps] = s
            else:
                out.pop(exps, None)
        return MultiPoly(spec, self.n, out)

    def __neg__(self) -> "MultiPoly":
        spec = self.spec
        return MultiPoly(spec, self.n, {e: spec.neg(c) for e, c in self.terms.items()})

    def __sub__(self, other: "MultiPoly") -> "MultiPoly":
        return self + (-other)

    def __mul__(self, other: "MultiPoly") -> "MultiPoly":
        self._check_compatible(other)
        spec = self.spec
        out: dict[tuple[int, ...], int] = {}
        for e1, c1 in self.terms.items():
            for e2, c2 in other.terms.items():
                prod = spec.mul(c1, c2)
                if not prod:
                    continue
                key = tuple(a + b for a, b in zip(e1, e2))
                s = spec.add(out.get(key, 0), prod)
                if s:
                    out[key] = s
                else:
                    out.pop(key, None)
        return MultiPoly(spec, self.n, out)

    def scale(self, value) -> "MultiPoly":
        spec = self.spec
        code = spec.coerce(value)
        if not code:
            return MultiPoly.zero(spec, self.n)
        return MultiPoly(spec, self.n, {e: spec.mul(c, code) for e, c in self.terms.items()})

    def power(self, k: int) -> "MultiPoly":
        result = MultiPoly.constant(self.spec, self.n, 1)
        base = self
        while k:
            if k & 1:
                result = result * base
            base = base * base
            k >>= 1
        return result

    # -- evaluation ---------------------------------------------------------------

    def eval_codes(self, point: tuple[int, ...]) -> int:
        spec = self.spec
        powtabs = _power_tables(spec, point, self.terms)
        return _eval_terms(spec, self.terms, powtabs)

    # -- serialization --------------------------------------------------------------

    def sorted_terms(self) -> list[tuple[tuple[int, ...], int]]:
        """Terms in graded-lex order (weight first, then exponent tuple)."""
        return sorted(self.terms.items(), key=lambda kv: (weight(kv[0]), kv[0]))

    def to_text(self) -> str:
        if not self.terms:
            return "0"
        return ";".join(
            f"{c}:{','.join(map(str, e))}" for e, c in self.sorted_terms()
        )

    @classmethod
    def from_text(cls, spec: FieldSpec, n: int, text: str) -> "MultiPoly":
        terms: dict[tuple[int, ...], int] = {}
        for coeff, exps in parse_terms(text):
            if len(exps) != n:
                term = f"{coeff}:{','.join(map(str, exps))}"
                raise DimensionMismatch(f"term {term!r} has wrong arity for n={n}")
            if coeff:
                terms[exps] = spec.add(terms.get(exps, 0), spec.coerce(coeff))
        return cls(spec, n, terms)

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


def _power_tables(spec: FieldSpec, point, terms) -> list[list[int]]:
    """Per-coordinate power tables covering the exponents appearing in terms."""
    n = len(point)
    maxes = [0] * n
    for exps in terms:
        for j, e in enumerate(exps):
            if e > maxes[j]:
                maxes[j] = e
    tabs = []
    for j in range(n):
        tab = [1] * (maxes[j] + 1)
        for k in range(1, maxes[j] + 1):
            tab[k] = spec.mul(tab[k - 1], point[j])
        tabs.append(tab)
    return tabs


def _eval_terms(spec: FieldSpec, terms, powtabs) -> int:
    acc = 0
    for exps, coeff in terms.items():
        val = coeff
        for j, e in enumerate(exps):
            if e:
                val = spec.mul(val, powtabs[j][e])
                if not val:
                    break
        acc = spec.add(acc, val)
    return acc


# -- operations ---------------------------------------------------------------------


def poly_eval(P: MultiPoly, point) -> FieldElement:
    """Exact evaluation of P at a point of F_q^n."""
    pt = coerce_point(P.spec, P.n, point)
    return FieldElement(P.spec, P.eval_codes(pt))


def vector_binomial(i, j, spec: FieldSpec) -> FieldElement:
    """Product of coordinatewise binomials C(i_k, j_k), reduced into F_q.

    Zero whenever some j_k exceeds i_k.
    """
    i, j = tuple(i), tuple(j)
    if len(i) != len(j):
        raise DimensionMismatch("exponent vectors of unequal length")
    if min(i + j, default=0) < 0:
        raise InvalidParameters(f"binomial arguments must be non-negative, got {i} and {j}")
    binom = lucas_binomial(spec.p, max(i, default=0))
    coef, _ = hasse_coefficients(_code_rows([i], len(i)), _code_rows([j], len(j)), binom, spec.p)
    return FieldElement(spec, int(coef[0, 0]))


def hasse_derivative(P: MultiPoly, i) -> MultiPoly:
    """The i-th Hasse derivative, term by term: X^r -> C(r,i) X^(r-i)."""
    i = tuple(i)
    if len(i) != P.n:
        raise DimensionMismatch(f"derivative order has length {len(i)}, expected {P.n}")
    if min(i, default=0) < 0:
        raise InvalidParameters(f"derivative order must be non-negative, got {i}")
    spec = P.spec
    if P.is_zero:
        return P
    exps = _code_rows(list(P.terms), P.n)
    binom = lucas_binomial(spec.p, int(exps.max(initial=0)))
    coef, shifts = hasse_coefficients(exps, _code_rows([i], P.n), binom, spec.p)
    coef = spec.vec.mul(coef[0], np.array(list(P.terms.values()), dtype=np.int64))
    return MultiPoly(spec, P.n, {
        tuple(r.tolist()): int(c) for r, c in zip(shifts[:, 0].T, coef) if c
    })


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
    d = P.degree
    return MultiPoly(P.spec, P.n, {e: c for e, c in P.terms.items() if weight(e) == d})


class Curve:
    """A tuple of univariate component polynomials, mapping F_q -> F_q^n."""

    __slots__ = ("spec", "n", "components")

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

    @classmethod
    def from_coeff_lists(cls, spec: FieldSpec, coeff_lists) -> "Curve":
        comps = [
            MultiPoly(spec, 1, {(k,): c for k, c in enumerate(coeffs)})
            for coeffs in coeff_lists
        ]
        return cls(spec, comps)

    @classmethod
    def line(cls, spec: FieldSpec, a, b) -> "Curve":
        """The parametrized line t -> a + t*b."""
        n = len(a)
        a = coerce_point(spec, n, a)
        b = coerce_point(spec, n, b)
        return cls.from_coeff_lists(spec, [(aj, bj) for aj, bj in zip(a, b)])

    @property
    def degree(self):
        """Max component degree; a constant (or zero) curve has degree 0."""
        degs = [c.degree for c in self.components if not c.is_zero]
        return max(degs, default=0)

    def eval(self, t) -> tuple[int, ...]:
        tc = self.spec.coerce(t)
        return tuple(c.eval_codes((tc,)) for c in self.components)

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
    result = MultiPoly.zero(spec, 1)
    pow_cache: dict[tuple[int, int], MultiPoly] = {}

    def comp_power(j: int, k: int) -> MultiPoly:
        if k == 0:
            return MultiPoly.constant(spec, 1, 1)
        got = pow_cache.get((j, k))
        if got is None:
            got = comp_power(j, k - 1) * C.components[j]
            pow_cache[(j, k)] = got
        return got

    for exps, coeff in P.terms.items():
        term = MultiPoly.constant(spec, 1, coeff)
        for j, e in enumerate(exps):
            if e:
                term = term * comp_power(j, e)
        result = result + term
    return result


def restrict_to_line(P: MultiPoly, a, b) -> MultiPoly:
    """P(a + T*b) as a univariate polynomial; b = 0 gives the constant P(a)."""
    a = coerce_point(P.spec, P.n, a)
    b = coerce_point(P.spec, P.n, b)
    return compose_curve(P, Curve.line(P.spec, a, b))


def grid_multiplicities(P: MultiPoly, S) -> np.ndarray:
    """mult(P, a) for every a in S^n (S taken as a set, in increasing code
    order), listed in ``itertools.product`` order; P must be nonzero."""
    spec, n = P.spec, P.n
    codes = np.array(sorted({spec.coerce(s) for s in S}), dtype=np.int64)
    if not codes.size:
        raise EmptySet("S must be non-empty")
    return _multiplicities(P, codes[code_points(np.arange(len(codes) ** n), len(codes), n)])


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
TABLE_CELLS = 2 ** 22        # largest power table built


def _code_rows(rows, n: int) -> np.ndarray:
    """A sequence of n-tuples as an (N, n) int64 array, n = 0 included."""
    return np.array(rows, dtype=np.int64).reshape(len(rows), n)


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
    """mult(P, a) for every point a (n-tuples of elements or element codes,
    checked as ``multiplicity`` checks one point), as an int64 array; P must
    be nonzero."""
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
    exps = _code_rows(list(P.terms), n)
    coeffs = np.array(list(P.terms.values()), dtype=np.int64)
    top = int(exps.max(initial=0))
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
                coef, shifts = hasse_coefficients(exps, shell_orders(w, n), binom, spec.p)
                coef = vec.mul(coef, coeffs)
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
