"""The curve merger over F_q^n with exact statistical analysis.

The merger evaluates the canonical degree-(L-1) curve through L input
blocks at a seed point u: output = sum_i c_i(u) * x_i, where the c_i are
the Lagrange basis polynomials on L distinct nodes.  Output distributions
of adversarial somewhere-random sources are computed by full enumeration
and held as integer output counts, so every probability is exact;
closeness to a min-entropy threshold is the excess-mass distance.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import reduce
from math import ceil, log2

import numpy as np

from .errors import (
    DimensionMismatch,
    DuplicateNodes,
    EnumerationTooLarge,
    InternalDefect,
    InvalidParameters,
    TooFewFieldElements,
    UniverseMismatch,
    UniverseTooSmall,
)
from .ff import FieldSpec, code_points, field_make, point_codes, strict_index
from .mvpoly import coerce_point

ENUMERATION_CAP = 10 ** 7
# (seed, point) cells per block of the exact enumeration
BLOCK_CELLS = 2 ** 16


# -- exact finite distributions -------------------------------------------------


class Distribution:
    """A finite distribution over the outcomes 0..universe_size-1, held as
    its integer counts: outcome i has mass counts[i] / total exactly."""

    __slots__ = ("counts", "total")

    def __init__(self, counts):
        counts = np.asarray(counts)
        if counts.ndim != 1 or counts.dtype.kind not in "iu":
            raise InvalidParameters(
                f"counts must be a 1-D integer array, got {counts.dtype} of shape {counts.shape}"
            )
        counts = counts.astype(np.int64, copy=False)
        if counts.size and counts.min() < 0:
            raise InvalidParameters(f"negative count for outcome {int(counts.argmin())}")
        # the int64 sum is exact while size * max fits
        big = counts.size and int(counts.max()) > np.iinfo(np.int64).max // counts.size
        self.total = sum(counts.tolist()) if big else int(counts.sum())
        if not self.total:
            raise InvalidParameters("counts sum to 0")
        self.counts = counts

    @classmethod
    def uniform(cls, size: int) -> "Distribution":
        if size < 1:
            raise InvalidParameters(f"a distribution needs an outcome, got size {size}")
        return cls(np.ones(size, dtype=np.int64))

    @classmethod
    def point_mass(cls, outcome: int, universe_size: int = 1) -> "Distribution":
        if not 0 <= outcome < universe_size:
            raise InvalidParameters(f"outcome {outcome} outside [0, {universe_size})")
        counts = np.zeros(universe_size, dtype=np.int64)
        counts[outcome] = 1
        return cls(counts)

    @property
    def universe_size(self) -> int:
        return len(self.counts)

    def mass(self, outcome: int) -> Fraction:
        if not 0 <= outcome < len(self.counts):
            raise InvalidParameters(f"outcome {outcome} outside [0, {len(self.counts)})")
        return Fraction(int(self.counts[outcome]), self.total)

    def max_prob(self) -> Fraction:
        return Fraction(int(self.counts.max()), self.total)


def statistical_distance(p: Distribution, r: Distribution) -> Fraction:
    """Half the L1 distance, equal to the max probability gap over events:
    sum |a*T_r - b*T_p| / (2*T_p*T_r) over the counts a of p and b of r,
    in integers (Python ones once the products could pass int64)."""
    if p.universe_size != r.universe_size:
        raise UniverseMismatch(
            f"universes of size {p.universe_size} and {r.universe_size}"
        )
    a, b, den = p.counts, r.counts, 2 * p.total * r.total
    if den > np.iinfo(np.int64).max:
        a, b = a.astype(object), b.astype(object)
    return Fraction(int(np.abs(a * r.total - b * p.total).sum()), den)


def min_entropy_threshold(m) -> Fraction:
    """The probability cap 2^(-m) for an integer-valued threshold m: a
    distribution has min-entropy >= m exactly when its max_prob() is at most
    this cap."""
    m = Fraction(m)
    if m.denominator != 1 or m < 0:
        raise InvalidParameters(
            f"threshold must be a non-negative integer number of bits, got {m}"
        )
    return Fraction(1, 2 ** m.numerator)


def distance_to_min_entropy(p: Distribution, m=None, *, threshold: Fraction | None = None) -> Fraction:
    """Minimum statistical distance from p to any distribution of min-entropy
    >= m on the same universe, by the excess-mass formula.

    Pass either an integer bit threshold m or the probability cap 2^(-m)
    directly as ``threshold`` (useful when 2^(-m) is rational but m is not).
    The excess mass depends only on how many outcomes share each count: over
    cap = a/b, the k outcomes of count c with c*b > a*T add k*(c*b - a*T),
    summed in integers over the denominator b*T, with one Fraction at the end.
    """
    if (m is None) == (threshold is None):
        raise InvalidParameters("pass exactly one of m and threshold")
    cap = min_entropy_threshold(m) if threshold is None else Fraction(threshold)
    if not 0 < cap <= 1:
        raise InvalidParameters(f"probability cap must lie in (0, 1], got {cap}")
    if p.universe_size * cap < 1:
        raise UniverseTooSmall(
            f"no distribution on {p.universe_size} outcomes has max probability <= {cap}"
        )
    a, b = cap.numerator, cap.denominator
    over = a * p.total
    values, mults = np.unique(p.counts, return_counts=True)
    excess = sum((c * b - over) * k for c, k in zip(values.tolist(), mults.tolist()) if c * b > over)
    return Fraction(excess, b * p.total)


# -- the curve merger -------------------------------------------------------------


@dataclass(frozen=True)
class MergerSpec:
    """Field, block dimension, node set, and the Lagrange mixing basis.

    basis[i] holds the coefficients (low-to-high) of the unique degree
    (num_blocks - 1) polynomial that is 1 at gamma[i] and 0 at the other
    nodes; the basis sums to the constant 1.
    """

    spec: FieldSpec
    n: int
    num_blocks: int
    gamma: tuple[int, ...]
    basis: tuple[tuple[int, ...], ...]

    def mix_table(self) -> np.ndarray:
        """c_i(u) for every block i and seed u, as an (L, q) code array."""
        return self.spec.vec.poly_eval_rows(self.basis, np.arange(self.spec.q))


def _is_lagrange_basis(vec, nodes: np.ndarray, node_poly: np.ndarray, basis: np.ndarray) -> bool:
    """Whether each row b_i of ``basis`` is 1 at node g_i and 0 at the other
    nodes, for any monic N (``node_poly``) of degree L, in O(L^2): checks
    that (X - g_i)*b_i = c_i*N, c_i the top coefficient of b_i, which below
    X^L reads b_i[k-1] = g_i*b_i[k] + c_i*N[k], and that b_i(g_i) = 1.
    At X = g_j the identity reads (g_j - g_i)*b_i(g_j) = c_i*N(g_j).  At
    j = i it gives N(g_i) = 0, as c_i = 0 would make b_i zero; so b_i(g_j) = 0."""
    below = vec.add(vec.mul(nodes[:, None], basis), vec.mul(basis[:, -1:], node_poly[:-1]))
    return bool(not below[:, 0].any() and (below[:, 1:] == basis[:, :-1]).all()
                and (vec.poly_eval(list(basis.T), nodes) == 1).all())


def merger_make(spec: FieldSpec, n: int, num_blocks: int, gamma=None) -> MergerSpec:
    """Build the merger for L blocks of F_q^n, on L distinct nodes.

    gamma defaults to the first L elements in canonical enumeration order.
    """
    if spec.q < num_blocks:
        raise TooFewFieldElements(
            f"q = {spec.q} < {num_blocks} blocks: no distinct nodes available"
        )
    if num_blocks < 1:
        raise InvalidParameters("need at least one block")
    if gamma is None:
        gamma = tuple(range(num_blocks))
    else:
        gamma = tuple(spec.check_code(g) for g in gamma)
    if len(gamma) != num_blocks:
        raise DimensionMismatch(f"{len(gamma)} nodes for {num_blocks} blocks")
    if len(set(gamma)) != num_blocks:
        raise DuplicateNodes(f"nodes must be distinct, got {gamma}")
    # the L x q mix table is the largest array a merger builds (L <= q)
    if num_blocks * spec.q > ENUMERATION_CAP:
        raise EnumerationTooLarge(
            f"{num_blocks} x {spec.q} mix table exceeds {ENUMERATION_CAP} cells"
        )

    # numerators N(X)/(X - g_i) of the node polynomial N(X) = prod (X - g_j),
    # by synthetic division for every node at once: num[k] holds coefficient
    # k of each numerator, and num_i(g_i) is its Lagrange denominator
    vec, L = spec.vec, num_blocks
    nodes = np.array(gamma, dtype=np.int64)
    node_poly = np.zeros(L + 1, dtype=np.int64)
    node_poly[0] = 1
    for g in gamma:
        node_poly = vec.sub(np.concatenate(([0], node_poly[:-1])), vec.mul(g, node_poly))
    num = np.zeros((L, L), dtype=np.int64)
    num[L - 1] = 1
    for k in range(L - 1, 0, -1):
        num[k - 1] = vec.add(node_poly[k], vec.mul(nodes, num[k]))
    denom = vec.poly_eval(list(num), nodes)
    inv = np.array([spec.inv(int(x)) for x in denom], dtype=np.int64)
    basis = vec.mul(num, inv).T
    ms = MergerSpec(spec, n, num_blocks, gamma, tuple(map(tuple, basis.tolist())))

    # construction invariants, checked on the stored basis: the Lagrange
    # conditions, with the L x L node grid evaluated only to locate a failure,
    # and partition of unity
    if not _is_lagrange_basis(vec, nodes, node_poly, basis):
        grid = vec.poly_eval_rows(basis, nodes)
        wrong = np.argwhere(grid != np.eye(L, dtype=np.int64))
        if wrong.size:
            i, j = wrong[0]
            raise InternalDefect(f"Lagrange basis {i} is wrong at node {gamma[j]}")
    total = vec.sum(basis, axis=0)
    if total[0] != 1 or total[1:].any():
        raise InternalDefect(f"Lagrange basis sums to {total.tolist()}, not 1")
    return ms


def f_dw(ms: MergerSpec, blocks, u) -> tuple[int, ...]:
    """Evaluate the canonical curve through the blocks at seed u.

    f(blocks, gamma_i) returns block i exactly; when all blocks coincide the
    output is that common value for every u.
    """
    if len(blocks) != ms.num_blocks:
        raise DimensionMismatch(f"{len(blocks)} blocks, expected {ms.num_blocks}")
    spec, vec = ms.spec, ms.spec.vec
    pts = np.array([coerce_point(spec, ms.n, b) for b in blocks], dtype=np.int64)
    mix = vec.poly_eval_rows(ms.basis, [spec.check_code(u)])  # (L, 1)
    return tuple(vec.sum(vec.mul(mix, pts), axis=0).tolist())


# -- adversarial sources ----------------------------------------------------------


def _check_dimension(n: int) -> None:
    if n < 0:
        raise InvalidParameters(f"block dimension {n} is negative")


def _check_codes(spec: FieldSpec, codes, n: int, what: str) -> None:
    """Raise unless ``codes`` is a tuple or list of n codes of spec."""
    if not isinstance(codes, (tuple, list)) or len(codes) != n:
        raise DimensionMismatch(f"{what} must hold {n} coordinates, got {codes!r}")
    for c in codes:
        try:
            spec.check_code(c)
        except InvalidParameters:
            raise InvalidParameters(f"{what} holds {c!r}, not a code in [0, {spec.q})") from None


class BlockMap:
    """A deterministic map F_q^n -> F_q^n used as a correlated block."""

    def apply_all(self, spec: FieldSpec, pts: np.ndarray) -> np.ndarray:
        """The (N, n) image of every row of an (N, n) code array."""
        raise NotImplementedError

    def validate(self, spec: FieldSpec, n: int) -> None:
        """Raise unless the map sends F_q^n into F_q^n."""
        raise NotImplementedError


class AffineMap(BlockMap):
    """x -> Ax + b, the map of every built-in source type."""

    def __init__(self, matrix, offset):
        self.matrix = tuple(tuple(row) for row in matrix)
        self.offset = tuple(offset)

    def apply_all(self, spec, pts):
        # zero coefficients add nothing and a one adds its column as it is,
        # so identity, constant and permutation matrices cost no product
        vec = spec.vec
        out = np.empty(pts.shape, dtype=np.int64)
        for r, (row, off) in enumerate(zip(self.matrix, self.offset)):
            acc = off
            for a, col in zip(row, pts.T):
                if a:
                    acc = vec.add(acc, col if a == 1 else vec.mul(a, col))
            out[:, r] = acc
        return out

    def validate(self, spec, n):
        if len(self.matrix) != n:
            raise DimensionMismatch(f"affine matrix has {len(self.matrix)} rows, expected {n}")
        for row in self.matrix:
            _check_codes(spec, row, n, "affine matrix row")
        _check_codes(spec, self.offset, n, "affine offset")


class TableMap(BlockMap):
    def __init__(self, table: dict):
        self.table = dict(table)

    def apply_all(self, spec, pts):
        images = [self.table[point] for point in map(tuple, pts.tolist())]
        return np.array(images, dtype=np.int64).reshape(pts.shape)

    def validate(self, spec, n):
        # q^n distinct valid keys: the table is defined on all of F_q^n
        if len(self.table) != spec.q ** n:
            raise InvalidParameters(f"table has {len(self.table)} entries, expected {spec.q ** n}")
        for point, image in self.table.items():
            _check_codes(spec, point, n, "table point")
            _check_codes(spec, image, n, "table image")


@dataclass(frozen=True)
class SourceSpec:
    """A simple somewhere-random source: block ``uniform_index`` is uniform
    over F_q^n and every other block is a deterministic function of it."""

    spec: FieldSpec
    n: int
    num_blocks: int
    uniform_index: int
    block_maps: dict
    label: str = ""

    def __post_init__(self):
        _check_dimension(self.n)
        if not 0 <= self.uniform_index < self.num_blocks:
            raise InvalidParameters(f"uniform block index {self.uniform_index} out of range")
        missing = [
            j
            for j in range(self.num_blocks)
            if j != self.uniform_index and j not in self.block_maps
        ]
        if missing:
            raise InvalidParameters(f"missing block maps for indices {missing}")
        # every block but the uniform one has its map, so any further map is unused
        if len(self.block_maps) >= self.num_blocks:
            unused = [j for j in self.block_maps
                      if j == self.uniform_index or j not in range(self.num_blocks)]
            raise InvalidParameters(f"block maps for indices {unused} that no block uses")
        for j, bm in self.block_maps.items():
            if not isinstance(bm, BlockMap):
                raise InvalidParameters(f"block {j} is not a BlockMap: {bm!r}")
        for bm in {id(bm): bm for bm in self.block_maps.values()}.values():
            bm.validate(self.spec, self.n)  # a map shared by blocks, once

    def realize_all(self, pts: np.ndarray) -> list[np.ndarray]:
        """Every block, for each row of an (N, n) array of uniform blocks."""
        return [
            pts if j == self.uniform_index else self.block_maps[j].apply_all(self.spec, pts)
            for j in range(self.num_blocks)
        ]


def _json_list(data: dict, key: str, default=None) -> list:
    value = data.get(key, default)
    if not isinstance(value, list):
        raise InvalidParameters(f"source field {key!r} must be a JSON list")
    return value


def source_from_json(spec: FieldSpec, n: int, num_blocks: int, data, label=None) -> SourceSpec:
    """The source a JSON object describes: block 0 is uniform and every other
    block is its image x -> Ax + b under the one ``AffineMap`` that ``type``
    names: identical (I, 0), constant (0, ``value``, default zero),
    permutation (row r has its 1 in column ``perm[r]``, default the rotation
    j -> j + 1 mod n; b = 0) or affine (``matrix``, ``offset``, default
    zero).  JSON of any other shape raises InvalidParameters, and values
    outside F_q^n raise here or in the map's ``validate``, which runs once
    whatever ``num_blocks`` is.  The label defaults to the type."""
    _check_dimension(n)
    if not isinstance(data, dict):
        raise InvalidParameters("source must be a JSON object")
    kind = data.get("type")
    zero = [0] * n
    eye = [[int(r == c) for c in range(n)] for r in range(n)]
    if kind == "identical":
        matrix, offset = eye, zero
    elif kind == "constant":
        matrix, offset = [zero] * n, tuple(_json_list(data, "value", zero))
        _check_codes(spec, offset, n, "constant value")
    elif kind == "permutation":
        perm = _json_list(data, "perm", [(j + 1) % n for j in range(n)])
        if len(perm) != n:
            raise DimensionMismatch(f"permutation of {len(perm)} coordinates, expected {n}")
        try:
            indices = sorted(map(strict_index, perm))
        except TypeError:
            indices = None
        if indices != list(range(n)):
            raise InvalidParameters(f"{perm} is not a permutation of range({n})")
        matrix, offset = [eye[j] for j in perm], zero
    elif kind == "affine":
        matrix = _json_list(data, "matrix")
        if not all(isinstance(row, list) for row in matrix):
            raise InvalidParameters("affine matrix rows must be JSON lists")
        offset = _json_list(data, "offset", zero)
    else:
        raise InvalidParameters(f"unknown source type {kind!r}")
    bm = AffineMap(matrix, offset)
    maps = dict.fromkeys(range(1, num_blocks), bm)
    src = SourceSpec(spec, n, num_blocks, 0, maps, label=kind if label is None else label)
    if not maps:  # SourceSpec checks the maps its blocks hold, and here none does
        bm.validate(spec, n)
    return src


def output_counts(ms: MergerSpec, src: SourceSpec) -> np.ndarray:
    """How many of the q^(n+1) (seed, uniform block) pairs send the merger to
    each output, indexed by its ``point_codes`` code.

    The (seed, point) grid is taken in blocks of at most BLOCK_CELLS cells:
    all q^n points at a time when they fit, else one seed and BLOCK_CELLS
    points.  A block forms c*x for the mix coefficients c of its seeds and
    every code x in one ``vec.mul`` (an (L, seeds, q) array, so a block also
    has at most BLOCK_CELLS // q seeds), gathers each input block's codes
    from its row, sums the L terms and counts the outputs with one
    ``bincount``.  More than ENUMERATION_CAP pairs are refused up front.
    """
    if src.spec is not ms.spec or src.n != ms.n or src.num_blocks != ms.num_blocks:
        raise DimensionMismatch("source and merger dimensions differ")
    spec, n, q = ms.spec, ms.n, ms.spec.q
    # q >= 2, so q^(n+1) > cap once 2^(n+1) is
    if n + 1 >= ENUMERATION_CAP.bit_length() or q ** (n + 1) > ENUMERATION_CAP:
        raise EnumerationTooLarge(f"q^(n+1) = {q}^{n + 1} pairs exceed {ENUMERATION_CAP}")
    if n == 0:  # every pair sends the merger to the one empty output
        return np.array([q], dtype=np.int64)
    vec, size = spec.vec, q ** n
    codes = np.arange(q, dtype=np.int64)
    mix = ms.mix_table()[:, :, None]
    span = min(size, BLOCK_CELLS)  # points per block
    step = max(1, BLOCK_CELLS // max(span, q))  # seeds per block
    counts = np.zeros(size, dtype=np.int64)
    for lo in range(0, size, span):
        pts = code_points(np.arange(lo, min(lo + span, size)), q, n)
        blocks = src.realize_all(pts)
        for s in range(0, q, step):
            rows = vec.mul(mix[:, s : s + step], codes)
            out = reduce(vec.add, [np.take(r, blk, axis=1) for r, blk in zip(rows, blocks)])
            counts += np.bincount(point_codes(out, q).ravel(), minlength=size)
    if int(counts.sum()) != q ** (n + 1):
        raise InternalDefect(f"{counts.sum()} outputs counted for q^(n+1) = {q ** (n + 1)} pairs")
    return counts


def exact_output_distribution(ms: MergerSpec, src: SourceSpec) -> Distribution:
    """The exact distribution of the merger output over all q^(n+1) (seed,
    uniform block) pairs: outcome i is the point with ``point_codes`` code i."""
    return Distribution(output_counts(ms, src))


def _seed_length_floor(delta, eps, num_blocks: int) -> tuple[int, Fraction, Fraction]:
    """(d0, delta, ratio): the exact lower bound d0 = ceil(b*floor(log2 r)/a)
    on the seed length, for delta = a/b and r = 2L/eps, once the parameters
    are checked.  It costs no power of r."""
    delta, eps = Fraction(delta), Fraction(eps)
    if not 0 < delta <= 1 or not 0 < eps < 1 or num_blocks < 1:
        raise InvalidParameters(
            f"need 0 < delta <= 1, 0 < eps < 1, blocks >= 1; "
            f"got {delta}, {eps}, {num_blocks}"
        )
    ratio = 2 * num_blocks / eps  # > 2, so k >= 0 below
    rn, rd = ratio.numerator, ratio.denominator
    k = rn.bit_length() - rd.bit_length()
    if rn < rd << k:
        k -= 1  # now 2^k <= ratio < 2^(k+1)
    return -(-delta.denominator * k // delta.numerator), delta, ratio


def _seed_length_from(d: int, delta: Fraction, ratio: Fraction) -> int:
    """The smallest d' >= d with 2^(d'*delta) >= ratio, for delta = a/b: the
    larger of d and ceil(x), x = (b/a)*log2(ratio).  x is computed in floating
    point; when no integer lies within a certified margin of it, that decides
    ceil(x).  Otherwise 2^(d'*a)*rd^b >= rn^b is compared exactly, with
    b-th powers, from the first d' the margin leaves open."""
    a, b = delta.numerator, delta.denominator
    rn, rd = ratio.numerator, ratio.denominator
    # log2 of an int is within 2^-50 * (1 + |log2|) of the truth, and each
    # float operation adds a relative error of 2^-53: 2^-40 covers them all
    x = b / a * (log2(rn) - log2(rd))
    margin = 2 ** -40 * (b / a) * (log2(rn) + log2(rd) + 1)
    low = ceil(x - margin)
    if low == ceil(x + margin):
        return max(d, low)
    d = max(d, low)
    while 2 ** (d * a) * rd ** b < rn ** b:
        d += 1
    return d


def seed_length(delta, eps, num_blocks: int) -> int:
    """ceil((1/delta) * log2(2L/eps)): the seed length whose field q = 2^d
    meets the merger theorem's size hypothesis q >= (2L/eps)^(1/delta)."""
    return _seed_length_from(*_seed_length_floor(delta, eps, num_blocks))


def checked_seed_length(delta, eps, num_blocks: int, n: int) -> int:
    """The seed length d, once the q^(n+1) = 2^(d(n+1)) pairs of an exact
    merger check over blocks of dimension n fit ENUMERATION_CAP.

    Refuses with EnumerationTooLarge before any power is formed when the
    lower bound on d already passes the cap, so a huge n or a tiny delta
    costs nothing.  The message states the exponent of 2."""
    _check_dimension(n)
    top = ENUMERATION_CAP.bit_length()  # 2^k > cap exactly when k >= top
    d, delta, ratio = _seed_length_floor(delta, eps, num_blocks)
    if d * (n + 1) >= top:
        raise EnumerationTooLarge(f"q^(n+1) >= 2^{d * (n + 1)} exceeds {ENUMERATION_CAP}")
    d = _seed_length_from(d, delta, ratio)
    if d * (n + 1) >= top:
        raise EnumerationTooLarge(f"q^(n+1) = 2^{d * (n + 1)} exceeds {ENUMERATION_CAP}")
    return d


def default_adversarial_family(spec: FieldSpec, n: int, num_blocks: int) -> list[SourceSpec]:
    """The fixed adversarial stress family: identical blocks, constant
    blocks (zero and all-ones), a coordinate rotation, and an affine image."""
    ones = [1] * n
    band = [[int(c in (r, r + 1)) for c in range(n)] for r in range(n)]
    return [
        source_from_json(spec, n, num_blocks, data, label=label)
        for label, data in (
            ("identical-blocks", {"type": "identical"}),
            ("constant-zero", {"type": "constant"}),
            ("constant-ones", {"type": "constant", "value": ones}),
            ("coordinate-rotation", {"type": "permutation"}),
            ("affine-image", {"type": "affine", "matrix": band, "offset": ones}),
        )
    ]


def verify_merger_theorem(delta, eps, num_blocks: int, n: int, sources=None) -> dict:
    """Check the merger guarantee at q = 2^seed_length: every source in the
    adversarial family lands within eps of min-entropy (1-delta)*n*log2(q).

    The theorem quantifies over all somewhere-random sources; the family
    here is the documented machine-checkable substitute.
    """
    delta, eps = Fraction(delta), Fraction(eps)
    d = checked_seed_length(delta, eps, num_blocks, n)
    q = 2 ** d
    spec = field_make(2, d)
    m = (1 - delta) * n * d
    if m.denominator != 1:
        raise InvalidParameters(
            f"entropy threshold (1-delta)*n*d = {m} is not an integer bit count"
        )
    m_int = int(m)
    ms = merger_make(spec, n, num_blocks)
    if sources is None:
        sources = default_adversarial_family(spec, n, num_blocks)
    entries = []
    for src in sources:
        gap = distance_to_min_entropy(Distribution(output_counts(ms, src)), m_int)
        entries.append({"label": src.label, "distance": gap, "ok": gap <= eps})
    return {
        "seed_length": d,
        "q": q,
        "entropy_threshold_bits": m_int,
        "epsilon": eps,
        "sources": entries,
        "all_ok": all(e["ok"] for e in entries),
    }
