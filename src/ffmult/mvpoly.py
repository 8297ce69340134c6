"""Sparse multivariate polynomials over F_q.

Carries the multiplicity machinery: Hasse derivatives, multiplicity of a
zero at a point, highest-degree homogeneous parts, composition with curves,
line restrictions, and the total multiplicity mass over a grid S^n.

Terms live in a dict mapping exponent tuples to nonzero element codes.  The
degree of the zero polynomial is the sentinel ``NEG_INF`` (never -1), and
the multiplicity of the zero polynomial at any point is ``INF_MULT``.
"""

from __future__ import annotations

import itertools
from math import comb, inf

from .errors import DimensionMismatch, EmptySet, InternalDefect, SpecMismatch, ZeroPolynomial
from .ff import FieldElement, FieldSpec

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
        text = text.strip()
        if text == "0" or not text:
            return cls.zero(spec, n)
        terms: dict[tuple[int, ...], int] = {}
        for chunk in text.split(";"):
            coeff_str, _, exps_str = chunk.partition(":")
            exps = tuple(int(t) for t in exps_str.split(",")) if exps_str else ()
            coeff = int(coeff_str)
            if len(exps) != n:
                raise DimensionMismatch(f"term {chunk!r} has wrong arity for n={n}")
            if coeff:
                terms[exps] = spec.add(terms.get(exps, 0), spec.coerce(coeff))
        return cls(spec, n, terms)

    def __repr__(self):
        return f"MultiPoly({self.spec}, n={self.n}, {self.to_text()!r})"


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
    value = 1
    for ik, jk in zip(i, j):
        value *= comb(ik, jk) if jk <= ik else 0
    return FieldElement(spec, spec.from_int(value))


def hasse_derivative(P: MultiPoly, i) -> MultiPoly:
    """The i-th Hasse derivative, term by term: X^r -> C(r,i) X^(r-i)."""
    i = tuple(i)
    if len(i) != P.n:
        raise DimensionMismatch(f"derivative order has length {len(i)}, expected {P.n}")
    spec = P.spec
    p = spec.p
    out: dict[tuple[int, ...], int] = {}
    for r, c in P.terms.items():
        if any(rk < ik for rk, ik in zip(r, i)):
            continue
        b = 1
        for rk, ik in zip(r, i):
            b = (b * comb(rk, ik)) % p
            if not b:
                break
        if not b:
            continue
        coeff = spec.mul(c, spec.from_int(b))
        if coeff:
            out[tuple(rk - ik for rk, ik in zip(r, i))] = coeff
    return MultiPoly(spec, P.n, out)


def hasse_eval(P: MultiPoly, i, point: tuple[int, ...]) -> int:
    """P^(i)(point) without materializing the derivative polynomial."""
    spec = P.spec
    p = spec.p
    powtabs = _power_tables(spec, point, P.terms)
    acc = 0
    for r, c in P.terms.items():
        if any(rk < ik for rk, ik in zip(r, i)):
            continue
        b = 1
        for rk, ik in zip(r, i):
            b = (b * comb(rk, ik)) % p
            if not b:
                break
        if not b:
            continue
        val = spec.mul(c, spec.from_int(b))
        for j, (rk, ik) in enumerate(zip(r, i)):
            if rk > ik and val:
                val = spec.mul(val, powtabs[j][rk - ik])
        acc = spec.add(acc, val)
    return acc


def multiplicity(P: MultiPoly, point):
    """Largest M with P^(i)(point) = 0 for all wt(i) < M; INF_MULT iff P = 0.

    Walks weight shells with early exit at the first nonvanishing derivative;
    for nonzero P the multiplicity never exceeds deg(P).
    """
    pt = coerce_point(P.spec, P.n, point)
    if P.is_zero:
        return INF_MULT
    deg = P.degree
    for w in range(deg + 1):
        for i in weak_compositions(w, P.n):
            if hasse_eval(P, i, pt):
                return w
    raise InternalDefect("nonzero polynomial with multiplicity above its degree")


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


def multiplicity_mass(P: MultiPoly, S) -> int:
    """Sum of mult(P, a) over all a in S^n, by full enumeration.

    Computed shell by shell: mass = sum over w >= 1 of the number of points
    where every derivative of weight < w vanishes.  Points fall out of the
    running set at their exact multiplicity, so the loop ends by deg(P).
    """
    if P.is_zero:
        raise ZeroPolynomial("mass is defined for nonzero polynomials only")
    spec = P.spec
    codes = sorted({spec.coerce(s) for s in S})
    if not codes:
        raise EmptySet("S must be non-empty")
    alive = [pt for pt in itertools.product(codes, repeat=P.n) if P.eval_codes(pt) == 0]
    mass = len(alive)
    deg = P.degree
    w = 1
    while alive and w <= deg:
        shell = [hasse_derivative(P, i) for i in weak_compositions(w, P.n)]
        alive = [
            pt for pt in alive if all(D.eval_codes(pt) == 0 for D in shell)
        ]
        mass += len(alive)
        w += 1
    if alive:
        raise InternalDefect("points alive beyond deg(P) for a nonzero polynomial")
    return mass
