"""Multiplicity-constrained interpolation via exact nullspaces over F_q.

Builds the homogeneous linear system that forces a polynomial (in a
total-degree or weighted-degree monomial basis) to vanish with multiplicity
at least m at every prescribed point, then extracts a nonzero kernel vector
by exact Gaussian elimination with deterministic pivoting.
"""

from __future__ import annotations

from bisect import bisect_right
from copy import copy
from dataclasses import dataclass, replace
from functools import cached_property
from fractions import Fraction
from math import comb

import numpy as np

from .errors import (
    InternalDefect,
    InternalNoSolution,
    InvalidParameters,
    UnsatisfiedCountHypothesis,
    UnsupportedSize,
)
from .ff import FieldSpec
from .mvpoly import (
    TABLE_CELLS,
    MultiPoly,
    _canonical,
    coerce_point,
    exponents_below_weight,
    hasse_coefficients,
    hasse_values,
    lucas_binomial,
    multiplicities,
    power_tables,
)


def count_total_degree_monomials(n: int, d: int) -> int:
    """Number of monomials in n variables of total degree at most d."""
    if n < 1 or d < 0:
        raise InvalidParameters(f"need n >= 1 and d >= 0, got n={n}, d={d}")
    return comb(d + n, n)


def count_weighted_monomials(k: int, d: int, theta) -> int:
    """Number of monomials X^i Y^j with i + k*j <= d and j <= floor(theta*d/k)."""
    theta = Fraction(theta)
    if not (0 < k < d) or not (0 <= theta <= 1):
        raise InvalidParameters(
            f"need 0 < k < d and theta in [0,1], got k={k}, d={d}, theta={theta}"
        )
    return WeightedDegreeBasis(d, k, int((theta * d) // k)).count()


@dataclass(frozen=True)
class TotalDegreeBasis:
    """All monomials of total degree <= d in n variables, graded-lex ordered."""

    n: int
    d: int

    def monomials(self) -> list[tuple[int, ...]]:
        return list(exponents_below_weight(self.d + 1, self.n))

    def count(self) -> int:
        return count_total_degree_monomials(self.n, self.d)


@dataclass(frozen=True)
class WeightedDegreeBasis:
    """Bivariate monomials X^i Y^j with i + k*j <= d and j <= ydeg_cap.

    Ordered by (weighted degree, j, i) for deterministic columns.
    """

    d: int
    k: int
    ydeg_cap: int

    @cached_property
    def _listing(self) -> tuple[tuple[int, int], ...]:
        """The sorted monomials, listed once per basis."""
        mons = [(i, j) for j in range(self.ydeg_cap + 1) for i in range(self.d - self.k * j + 1)]
        return tuple(sorted(mons, key=lambda ij: (ij[0] + self.k * ij[1], ij[1], ij[0])))

    def monomials(self) -> list[tuple[int, int]]:
        return list(self._listing)

    def count(self) -> int:
        """The sum of d - k*j + 1 over j <= J = min(ydeg_cap, d // k), in
        closed form (k >= 1)."""
        J = min(self.ydeg_cap, self.d // self.k)
        return 0 if J < 0 else (J + 1) * (self.d + 1) - self.k * J * (J + 1) // 2


@dataclass(frozen=True)
class InterpolationProblem:
    """Vanish with multiplicity >= m at each point, within the given basis."""

    spec: FieldSpec
    n: int
    points: tuple[tuple[int, ...], ...]
    m: int
    basis: TotalDegreeBasis | WeightedDegreeBasis

    def __post_init__(self):
        if self.n < 1:
            raise InvalidParameters(f"need n >= 1 variables, got {self.n}")
        pts = tuple(coerce_point(self.spec, self.n, p) for p in self.points)
        if len(set(pts)) != len(pts):
            raise InvalidParameters("interpolation points must be duplicate-free")
        if self.m < 1:
            raise InvalidParameters(f"multiplicity must be >= 1, got {self.m}")
        object.__setattr__(self, "points", pts)

    def constraint_count(self) -> int:
        # the orders of weight < m are the exponents of the monomials of
        # degree <= m - 1
        return count_total_degree_monomials(self.n, self.m - 1) * len(self.points)


def _check_table(rows: int, cols: int) -> None:
    if rows * cols > TABLE_CELLS:
        raise UnsupportedSize(
            f"a constraint table of {rows} x {cols} entries exceeds {TABLE_CELLS}")


def vanishing_constraints(problem: InterpolationProblem) -> np.ndarray:
    """One row per (point a, order i with wt(i) < m), expressing P^(i)(a) = 0,
    as an int64 array of codes.

    The column for monomial r carries C(r, i) * a^(r - i), zero when r < i
    coordinatewise; columns follow the basis order.  A table of more than
    TABLE_CELLS entries raises UnsupportedSize before it is built.
    """
    spec, n = problem.spec, problem.n
    _check_table(problem.constraint_count(), problem.basis.count())
    monomials = np.array(problem.basis.monomials(), dtype=np.int64).reshape(-1, n)
    orders = np.array(list(exponents_below_weight(problem.m, n)), dtype=np.int64)
    points = np.array(problem.points, dtype=np.int64).reshape(-1, n)
    top = int(monomials.max(initial=0))
    coef, shifts = hasse_coefficients(monomials, orders, lucas_binomial(spec.p, top), spec.p)
    powers = power_tables(spec.vec, points, top)
    values = hasse_values(spec.vec, coef, shifts, powers)
    return values.astype(np.int64).reshape(len(points) * len(orders), len(monomials))


# Columns reduced one at a time before a single product carries their row
# operations to the columns right of them.
PANEL = 32


def _codes(rows, ncols: int, width: int, vec) -> np.ndarray:
    """The first ``width`` columns of the matrix ``rows``, as a fresh int64
    array of codes."""
    A = np.asarray(rows, dtype=np.int64).reshape(len(rows), ncols)
    return vec.reduce(np.array(A[:, :width]))


def _eliminate(A: np.ndarray, vec, first_free: bool = False) -> list[tuple[int, int]]:
    """Block echelon form of A, in place; returns [(pivot row, pivot column)].

    The pivot for column c is the first row at or below the current one that
    is nonzero there.  Blocked elimination below the pivots: the columns are
    taken in panels of PANEL, and a panel whose first pivot row is r0 is
    reduced Gauss-Jordan, a column at a time, among rows r0 and below only,
    next to one transform column per pivot.  A row that becomes the panel's
    pivot t gets a 1 in transform column t, so the row operations leave in
    the transform columns E, the combination of the panel's pivot rows (as
    they were when the panel began) that each row received.  The panel's row
    swaps reach the columns right of it as one permutation of rows r0 and
    below, and one product ``vec.dot`` then applies the panel to those
    columns: them, with the pivot rows zeroed, plus E times the pivot rows'
    old entries.  The rows of earlier panels are never touched again, so
    each panel's pivot rows are zero left of the panel and hold an identity
    on its pivot columns; what lies right of the panel is not reduced.  With
    ``first_free``, elimination stops at the first column that takes no
    pivot, so the pivots are exactly the columns before it, and the columns
    right of that panel are left as they are.
    """
    if PANEL * (vec.spec.p - 1) ** 2 + vec.spec.p >= 2 ** 62:
        # a panel entry takes at most PANEL unreduced sub_mul steps from a code
        raise InternalDefect(f"{PANEL} unreduced row updates may overflow int64")
    nrows, ncols = A.shape
    pivots: list[tuple[int, int]] = []
    for c0 in range(0, ncols, PANEL):
        r0 = len(pivots)
        if r0 == nrows:
            break
        c1 = min(c0 + PANEL, ncols)
        w = c1 - c0
        # the last panel has no columns right of it, and so no transform columns
        panel = np.zeros((w if c1 == ncols else 2 * w, nrows - r0), dtype=np.int64)
        panel[:w] = A[r0:, c0:c1].T
        panel, order = _reduce_panel(panel, w, c0, pivots, vec, first_free)
        A[r0:, c0:c1] = panel[:w].T
        k = len(pivots) - r0
        if first_free and k < w:
            break
        if k and c1 < ncols:
            rest = A[r0:, c1:]
            rest[:] = rest[order]
            old = rest[:k].copy()
            rest[:k] = 0
            A[r0:, c1:] = vec.dot(panel[w : w + k].T, old, rest)
    return pivots


def _reduce_panel(panel: np.ndarray, w: int, c0: int, pivots: list, vec, first_free: bool):
    """Gauss-Jordan steps on one panel, stored transposed: a row of
    ``panel`` per column, the w columns of the panel first, then its
    transform columns, if any; a column of ``panel`` per matrix row, from
    the panel's first pivot row down.  Appends each pivot to ``pivots``;
    with ``first_free`` it stops at a column with no pivot.  A column takes
    one reduction of its row, whose first nonzero entry at or below the
    current row is the pivot, and one rank-one update by that row times the
    pivot's inverse, with 1 - inverse at the pivot so that the same update
    scales the pivot row.  Row updates may leave representatives (see
    ``VecOps.sub_mul``).  Returns the panel as codes and its row swaps as
    one permutation: matrix row i of the result was row ``order[i]``."""
    r0 = len(pivots)
    order = np.arange(panel.shape[1])
    end = w  # rows of ``panel`` from here on are zero
    for j in range(w):
        r = len(pivots) - r0
        if r == panel.shape[1]:
            break
        row = vec.reduce(panel[j])
        nz = row[r:].nonzero()[0]
        if nz.size == 0:
            if first_free:
                break
            continue
        pr = r + int(nz[0])
        inv = vec.inv(int(row[pr]))
        g = vec.mul(row, inv)  # 1 at pr
        if pr != r:
            g[pr] = g[r]
            panel[:, r], panel[:, pr] = panel[:, pr], panel[:, r].copy()
            order[r], order[pr] = order[pr], order[r]
        g[r] = vec.sub(1, inv)
        if len(panel) > w:
            panel[w + r, r] = 1
            end = w + r + 1
        live = slice(j + 1, end)
        panel[live] = vec.sub_mul(panel[live], g, vec.reduce(panel[live, r, None]))
        panel[j] = 0
        panel[j, r] = 1
        pivots.append((r0 + r, c0 + j))
    return vec.reduce(panel), order


def nullspace_vector(rows, ncols: int, spec: FieldSpec):
    """A nonzero kernel vector of the matrix, or None when the kernel is trivial.

    ``rows`` holds codes, as a list of rows or an int64 array.  The vector
    is the unique one that is 1 at the first free column f (the first column
    that depends on the columns before it), 0 past f, and below f expresses
    column f in the independent columns 0..f-1.  Since f is at most the
    number of rows, only the first min(ncols, nrows + 1) columns are
    eliminated, and elimination stops at f, where the columns before f are
    the pivots, each in the row of its own index.  Block back-substitution
    then reads the vector a panel at a time, right to left:
    x[c0:c1] = -(A[c0:c1, f] + A[c0:c1, c1:f] x[c1:f]).  Each solved panel
    carries its terms into the rows above it with one ``vec.dot``, so no
    product sums more than PANEL terms.
    """
    vec = spec.vec
    A = _codes(rows, ncols, min(ncols, len(rows) + 1), vec)
    f = len(_eliminate(A, vec, first_free=True))
    if f == A.shape[1]:
        return None
    x = np.zeros(ncols, dtype=np.int64)
    x[f] = 1
    rhs = A[:f, f, None]
    for c0 in reversed(range(0, f, PANEL)):
        c1 = min(c0 + PANEL, f)
        x[c0:c1] = vec.neg(rhs[c0:c1, 0])
        if c0:
            rhs[:c0] = vec.dot(A[:c0, c0:c1], x[c0:c1, None], rhs[:c0])
    return x.tolist()


def matrix_rank(rows, ncols: int, spec: FieldSpec) -> int:
    """Rank over F_q: the number of pivots of the same elimination, run
    over every column."""
    return len(_eliminate(_codes(rows, ncols, ncols, spec.vec), spec.vec))


def vanishing_interpolation(problem: InterpolationProblem, verify: bool = False) -> MultiPoly:
    """A nonzero polynomial vanishing with multiplicity >= m on every point.

    Requires strictly more basis monomials than linear constraints; with that
    hypothesis the kernel is nontrivial and the construction cannot fail.
    ``nullspace_vector`` reaches only the first constraint_count() + 1
    columns, so the basis is cut to the smallest one of its kind with more
    monomials than constraints: a lower degree lists a prefix of the same
    order, so the vector is unchanged and the cost follows the constraints.
    """
    n_constraints, n_monomials = problem.constraint_count(), problem.basis.count()
    if n_constraints >= n_monomials:
        raise UnsatisfiedCountHypothesis(
            f"{n_constraints} constraints vs {n_monomials} monomials: "
            "existence is not guaranteed"
        )
    _check_table(n_constraints, n_constraints + 1)  # the smallest table cut below
    # a basis of degree d holds at least d + 1 monomials, so d <= n_constraints
    d = bisect_right(range(min(problem.basis.d, n_constraints) + 1), n_constraints,
                     key=lambda d: replace(problem.basis, d=d).count())
    problem = copy(problem)  # its points are checked: no second __post_init__
    object.__setattr__(problem, "basis", replace(problem.basis, d=d))
    monomials = problem.basis.monomials()
    rows = vanishing_constraints(problem)
    vec = nullspace_vector(rows, len(monomials), problem.spec)
    if vec is None:
        raise InternalNoSolution(
            "no kernel vector although the count hypothesis held"
        )
    poly = _canonical(problem.spec, problem.n, np.array(monomials, dtype=np.int64), vec)
    if verify:
        if poly.is_zero:
            raise InternalNoSolution("kernel vector produced the zero polynomial")
        mults = multiplicities(poly, problem.points)
        low = np.flatnonzero(mults < problem.m)
        if low.size:
            raise InternalNoSolution(
                f"constructed polynomial has multiplicity {mults[low[0]]} < {problem.m} "
                f"at {problem.points[low[0]]}"
            )
    return poly
