"""Seeded workload generators and per-op output checks.

A workload is a list of ops (one "pass") built from the benchmark seed with
stdlib ``random``; the program only ever sees the generated argv.  Each op
carries its own output check.  The shape of every op (field, sizes,
multiplicity) follows a fixed schedule and the seed picks only the values,
so two seeds give different inputs of the same cost, and runs of different
seeds can be compared.
"""

from __future__ import annotations

import itertools
import json
import random
from dataclasses import dataclass
from fractions import Fraction
from math import comb
from typing import Callable

from gf import RefField


@dataclass(frozen=True)
class Op:
    """One CLI invocation.  ``argv`` may be a function of the previous op's
    stdout (an ``sz-mass`` of the polynomial ``interpolate`` just returned);
    ``check`` returns None when the stdout is correct, else the reason."""

    label: str
    argv: list[str] | Callable[[str], list[str]]
    check: Callable[[str], str | None]


@dataclass(frozen=True)
class Workload:
    name: str
    fields: tuple[str, ...]  # every field the ops use, built during set-up
    cycles: int  # cycles of the schedule in one pass
    build: Callable  # (rng, fields: dict[str, RefField], ffmult, cycles) -> list[Op]


def _ints(values) -> str:
    return ",".join(str(v) for v in values)


def parse_univariate(text: str, length: int) -> tuple[int, ...]:
    """The CLI's 'coeff:exp;...' text of a univariate polynomial, as a
    low-to-high coefficient tuple of the given length."""
    coeffs = [0] * length
    if text != "0":
        for term in text.split(";"):
            c, e = term.split(":")
            coeffs[int(e)] = int(c)
    return tuple(coeffs)


def _plant_word(F: RefField, rng: random.Random, alphas, k: int, t: int):
    """A received word agreeing with a random degree-<=k f in exactly t places."""
    f = [rng.randrange(F.q) for _ in range(k + 1)]
    agree = set(rng.sample(range(len(alphas)), t))
    betas = []
    for i, a in enumerate(alphas):
        v = F.eval(f, a)
        betas.append(v if i in agree else F.add(v, rng.randrange(1, F.q)))
    return tuple(f), betas


def _rs_argv(F: RefField, alphas, betas, k: int, t: int, eps: str | None) -> list[str]:
    argv = ["rs-decode", "--field", F.text, "--alphas", _ints(alphas),
            "--betas", _ints(betas), "--k", str(k), "--t", str(t)]
    return argv + ["--eps", eps] if eps else argv


# -- rs-large ----------------------------------------------------------------------

# (field, n, k, t, eps): every q^(k+1) exceeds the 10^4 auto cross-validation cap.
RS_LARGE = (
    ("2^6", 40, 2, 13, "1/8"),
    ("3^3", 27, 2, 11, "1/8"),
    ("257", 64, 4, 22, "1/8"),
    ("2^16", 32, 2, 14, "1/4"),
)


def build_rs_large(rng, fields, ffmult, cycles):
    ops = []
    for _ in range(cycles):
        for text, n, k, t, eps in RS_LARGE:
            F = fields[text]
            alphas = rng.sample(range(F.q), n)
            f, betas = _plant_word(F, rng, alphas, k, t)

            def check(out, F=F, alphas=alphas, betas=betas, f=f, k=k, t=t):
                got = [parse_univariate(s, k + 1) for s in json.loads(out)["list"]]
                if f not in got:
                    return f"planted {f} missing from {got}"
                for g in got:
                    agree = sum(F.eval(g, a) == b for a, b in zip(alphas, betas))
                    if agree < t:
                        return f"{g} agrees in {agree} < {t} places"
                return None

            ops.append(Op(f"{text}/n{n}", _rs_argv(F, alphas, betas, k, t, eps), check))
    return ops


# -- rs-batch ----------------------------------------------------------------------

# (field, k, t) with n = q: every q^(k+1) is under the 10^4 auto cross-validation cap.
RS_BATCH = (("5", 1, 4), ("7", 2, 6), ("2^3", 2, 6), ("3^2", 1, 5),
            ("11", 2, 7), ("13", 2, 8), ("2^4", 1, 6))


def build_rs_batch(rng, fields, ffmult, cycles):
    rs = ffmult.rs_decode
    ops = []
    for _ in range(cycles):
        for text, k, t in RS_BATCH:
            F = fields[text]
            alphas = list(range(F.q))
            _, betas = _plant_word(F, rng, alphas, k, t)
            inst = rs.RSInstance(ffmult.parse_field_spec(text), tuple(alphas),
                                 tuple(betas), k=k, t=t)
            want = rs.brute_force_decode(inst)

            def check(out, want=want, k=k):
                got = [parse_univariate(s, k + 1) for s in json.loads(out)["list"]]
                return None if got == want else f"decoded {got}, brute force {want}"

            ops.append(Op(f"{text}/k{k}", _rs_argv(F, alphas, betas, k, t, None), check))
    return ops


# -- merger-enum -------------------------------------------------------------------

# (lambda, n, q): q = 2^seed_length at delta = eps = 1/2; q^(n+1) pairs per op.
MERGER_SETTINGS = ((2, 2, 64), (3, 1, 256))
MERGER_SOURCES = ("identical", "constant", "permutation", "affine")


def _random_source(kind: str, rng, q: int, n: int) -> dict:
    def vec():
        return [rng.randrange(q) for _ in range(n)]

    if kind == "constant":
        return {"type": kind, "value": vec()}
    if kind == "permutation":
        return {"type": kind, "perm": rng.sample(range(n), n)}
    if kind == "affine":
        return {"type": kind, "matrix": [vec() for _ in range(n)], "offset": vec()}
    return {"type": kind}


def build_merger_enum(rng, fields, ffmult, cycles):
    # Two q=256 ops per q=64 op keep the median op inside one setting's
    # times rather than on the gap between the two.
    eps = Fraction(1, 2)
    ops = []
    for _ in range(cycles):
        for kind in MERGER_SOURCES:
            for lam, n, q in MERGER_SETTINGS + MERGER_SETTINGS[1:]:
                source = _random_source(kind, rng, q, n)
                argv = ["merger-run", "--delta", "1/2", "--eps", str(eps),
                        "--lambda", str(lam), "--n", str(n),
                        "--source", json.dumps(source)]

                def check(out, q=q, kind=kind):
                    rep = json.loads(out)
                    if rep["q"] != q or rep["source"] != kind:
                        return f"ran q={rep['q']} source={rep['source']}"
                    if not rep["ok"] or Fraction(rep["distance"]) > eps:
                        return f"distance {rep['distance']} not within {eps}"
                    return None

                ops.append(Op(f"{kind}/q{q}", argv, check))
    return ops


# -- mult-kakeya -------------------------------------------------------------------

# (q, n, m, points): both dimensions and every multiplicity in one cycle.
INTERP = ((5, 3, 2, 16), (7, 2, 4, 14), (11, 3, 3, 10), (13, 2, 3, 18))
# Minimum Kakeya set sizes: the known plane minima for q = 2, 3, 4, and the
# smallest sets whose pairwise differences cover every direction of F_2^3, F_2^4.
KAKEYA_MINIMA = {("2", 2): 3, ("3", 2): 7, ("2^2", 2): 10, ("2", 3): 5, ("2", 4): 6}
KAKEYA_UNIONS = (("2^3", 3), ("3^2", 3), ("2^4", 2), ("13", 2))


def _min_degree(n: int, m: int, npts: int) -> int:
    """Smallest total degree with more monomials than vanishing constraints."""
    constraints = comb(m + n - 1, n) * npts
    d = 0
    while comb(d + n, n) <= constraints:
        d += 1
    return d


def _check_interpolate(out: str) -> str | None:
    rep = json.loads(out)
    if not rep["verified"] or rep["poly"] == "0":
        return f"interpolation not verified: {rep}"
    return None if rep["monomials"] > rep["constraints"] else "count hypothesis broken"


def _check_sz_mass(out: str) -> str | None:
    rep = json.loads(out)
    return None if rep["ok"] and rep["mass"] <= rep["bound"] else f"mass over bound: {rep}"


def _interp_ops(rng) -> list[Op]:
    ops = []
    for q, n, m, npts in INTERP:
        points = rng.sample(list(itertools.product(range(q), repeat=n)), npts)
        field = ["--field", str(q), "--n", str(n)]
        argv = ["interpolate", *field, "--points", json.dumps(points),
                "--multiplicity", str(m), "--degree", str(_min_degree(n, m, npts)),
                "--verify"]
        ops.append(Op(f"interpolate/q{q}n{n}m{m}", argv, _check_interpolate))
        ops.append(Op(f"sz-mass/q{q}n{n}",
                      lambda prev, field=field: ["sz-mass", *field,
                                                 "--poly", json.loads(prev)["poly"]],
                      _check_sz_mass))
    return ops


def _kakeya_search_op(field: str, n: int, want: int) -> Op:
    def check(out):
        rep = json.loads(out)
        if rep["min_size"] != want or len(rep["min_set"]) != want:
            return f"minimum {rep['min_size']}, expected {want}"
        return None

    return Op(f"kakeya-search/{field}n{n}",
              ["kakeya-search", "--field", field, "--n", str(n)], check)


def _kakeya_union_op(F: RefField, n: int, rng) -> Op:
    """A random union of one line per direction: always a Kakeya set."""
    dirs = F.directions(n)
    points = set()
    for b in dirs:
        points.update(F.line([rng.randrange(F.q) for _ in range(n)], b))
    points = sorted(points)

    def check(out):
        rep = json.loads(out)
        if not rep["is_kakeya"] or rep["set_size"] != len(points):
            return f"line union of {len(points)} points not reported Kakeya"
        return None if len(rep["witnesses"]) == len(dirs) else "witness per direction missing"

    argv = ["kakeya-verify", "--field", F.text, "--n", str(n), "--points",
            json.dumps([list(p) for p in points])]
    return Op(f"kakeya-verify/{F.text}n{n}", argv, check)


def build_mult_kakeya(rng, fields, ffmult, cycles):
    ops = []
    for _ in range(cycles):
        ops += _interp_ops(rng)
        ops += [_kakeya_search_op(f, n, want) for (f, n), want in KAKEYA_MINIMA.items()]
        ops += [_kakeya_union_op(fields[f], n, rng) for f, n in KAKEYA_UNIONS]
    return ops


# Why each workload exists is recorded in BENCHMARK.json.
WORKLOADS = {
    w.name: w
    for w in (
        Workload("rs-large", tuple(c[0] for c in RS_LARGE), 1, build_rs_large),
        Workload("rs-batch", tuple(c[0] for c in RS_BATCH), 4, build_rs_batch),
        Workload("merger-enum", ("2^6", "2^8"), 1, build_merger_enum),
        Workload("mult-kakeya",
                 tuple(str(c[0]) for c in INTERP) + ("2", "3", "2^2", "2^3", "3^2", "2^4"),
                 2, build_mult_kakeya),
    )
}
