"""Command-line front end.

Every subcommand emits JSON (or CSV for record tables) built only from the
inputs, with exact rationals serialized as "num/den" strings, so identical
invocations produce byte-identical output.  Domain errors exit with code 1
and a machine-readable {"error": name} payload; usage errors exit with 2.
"""

from __future__ import annotations

import argparse
import json
import operator
import sys
from fractions import Fraction
from functools import lru_cache

from . import kakeya as kk
from . import merger as mg
from . import rs_decode as rs
from .errors import FFMultError, InvalidParameters
from .ff import field_make, field_text_parts, parse_field_spec
from .interpolate import InterpolationProblem, TotalDegreeBasis, vanishing_interpolation
from .mvpoly import (
    MultiPoly,
    Curve,
    coerce_point,
    hasse_derivative,
    multiplicity,
    multiplicity_mass,
    parse_terms,
)
from .selftest import run_selftest


def _frac(fr: Fraction) -> str:
    fr = Fraction(fr)
    return f"{fr.numerator}/{fr.denominator}"


# argparse types: text that does not parse is a usage error (exit 2); values
# that parse but lie outside the field are domain errors, raised later.


def _parse_frac(text: str) -> Fraction:
    try:
        return Fraction(text)
    except (ValueError, ZeroDivisionError):
        raise argparse.ArgumentTypeError(f"invalid fraction: {text!r}") from None


def _parse_ints(text: str) -> tuple[int, ...]:
    text = text.strip()
    if not text:
        return ()
    try:
        return tuple(int(tok) for tok in text.split(","))
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid integer list: {text!r}") from None


def _json_arg(text: str):
    try:
        return json.loads(text)
    except json.JSONDecodeError as exc:
        raise argparse.ArgumentTypeError(f"invalid JSON: {exc}") from None


# the default of --input, so that a file holding JSON null is an instance
_NO_INPUT = object()


def _json_file(path: str):
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return json.load(fh)
    except (OSError, UnicodeDecodeError) as exc:
        raise argparse.ArgumentTypeError(f"cannot read {path!r}: {exc}") from None
    except json.JSONDecodeError as exc:
        raise argparse.ArgumentTypeError(f"invalid JSON in {path!r}: {exc}") from None


def _field_arg(text: str) -> str:
    """'p' or 'p^e'; whether that field exists is decided later."""
    try:
        field_text_parts(text)
    except InvalidParameters as exc:
        raise argparse.ArgumentTypeError(str(exc)) from None
    return text


def _poly_arg(text: str) -> str:
    """Terms 'coeff:e1,...,en' joined by ';'; arity and ranges are checked
    later, against --field and --n."""
    try:
        parse_terms(text)
    except InvalidParameters as exc:
        raise argparse.ArgumentTypeError(str(exc)) from None
    return text


def _points(data) -> list[tuple]:
    """A parsed --points value as a list of point tuples."""
    if not isinstance(data, list) or not all(isinstance(pt, list) for pt in data):
        raise InvalidParameters("points must be a JSON list of lists")
    return [tuple(pt) for pt in data]


def _mult_value(poly: MultiPoly, point):
    m = multiplicity(poly, point)
    return "infinity" if m == float("inf") else int(m)


# -- subcommand handlers ---------------------------------------------------------


def cmd_hasse(args) -> dict:
    spec = parse_field_spec(args.field)
    poly = MultiPoly.from_text(spec, args.n, args.poly)
    deriv = hasse_derivative(poly, args.order)
    return {
        "field": spec.q,
        "poly": poly.to_text(),
        "order": list(args.order),
        "derivative": deriv.to_text(),
    }


def cmd_mult(args) -> dict:
    spec = parse_field_spec(args.field)
    poly = MultiPoly.from_text(spec, args.n, args.poly)
    return {
        "field": spec.q,
        "poly": poly.to_text(),
        "point": list(args.point),
        "multiplicity": _mult_value(poly, args.point),
    }


def cmd_sz_mass(args) -> dict:
    spec = parse_field_spec(args.field)
    poly = MultiPoly.from_text(spec, args.n, args.poly)
    subset = tuple(range(spec.q)) if args.subset is None else args.subset
    mass = multiplicity_mass(poly, subset)
    # for n = 0 a nonzero polynomial is a constant, of degree 0
    bound = int(poly.degree) * len(set(subset)) ** max(args.n - 1, 0)
    return {"mass": mass, "bound": bound, "ok": mass <= bound}


def cmd_interpolate(args) -> dict:
    spec = parse_field_spec(args.field)
    points = tuple(_points(args.points))
    problem = InterpolationProblem(
        spec, args.n, points, args.multiplicity, TotalDegreeBasis(args.n, args.degree)
    )
    poly = vanishing_interpolation(problem, verify=args.verify)
    return {
        "poly": poly.to_text(),
        "monomials": problem.basis.count(),
        "constraints": problem.constraint_count(),
        "verified": bool(args.verify),
    }


def cmd_kakeya_verify(args) -> dict:
    spec = parse_field_spec(args.field)
    points = _points(args.points)
    res = kk.is_kakeya(spec, args.n, points)
    out = {"is_kakeya": res.ok, "set_size": len(set(points))}
    if res.ok:
        out["witnesses"] = {
            ",".join(map(str, b)): list(a) for b, a in sorted(res.witnesses.items())
        }
    else:
        out["violating_direction"] = (
            list(res.violating_direction) if res.violating_direction else None
        )
    return out


def cmd_kakeya_search(args) -> dict:
    q = parse_field_spec(args.field).q
    # the search refuses a large q^n before the bounds' powers are formed
    found = kk.exhaustive_min_kakeya(q, args.n, args.size_cap)
    crude, main = kk.kakeya_lower_bounds(q, args.n)
    out = {
        "lower_bound_crude": _frac(crude),
        "lower_bound_main": _frac(main),
    }
    if found is None:
        out["min_size"] = None
    else:
        pts, size = found
        out["min_size"] = size
        out["min_set"] = sorted(list(p) for p in pts)
    return out


def _stat_instance(spec, n: int, data) -> kk.StatKakeyaInstance:
    """A kakeya-stat --input instance: S, K, curves (each a point and its
    component coefficient lists), lambda, eta and degree.  JSON of any other
    shape raises InvalidParameters, as does a point outside F_q^n."""
    try:
        S, K = [tuple(p) for p in data["S"]], [tuple(p) for p in data["K"]]
        curves = [(tuple(c["point"]), [list(comp) for comp in c["components"]])
                  for c in data["curves"]]
        lam, eta = Fraction(data["lambda"]), Fraction(data["eta"])
        degree = operator.index(data["degree"])
    except (KeyError, TypeError, ValueError, ZeroDivisionError, OverflowError):
        raise InvalidParameters(
            "a kakeya-stat instance is a JSON object with S, K, curves, lambda, eta and degree"
        ) from None
    return kk.StatKakeyaInstance(
        spec=spec,
        n=n,
        S=tuple(coerce_point(spec, n, p) for p in S),
        K=frozenset(coerce_point(spec, n, p) for p in K),
        curve_map={coerce_point(spec, n, pt): Curve.from_coeff_lists(spec, comps)
                   for pt, comps in curves},
        lam=lam,
        eta=eta,
        max_degree=degree,
    )


def cmd_kakeya_stat(args) -> dict:
    spec = parse_field_spec(args.field)
    if args.input is not _NO_INPUT:
        inst = _stat_instance(spec, args.n, args.input)
    else:
        inst = kk.full_space_reduction_instance(spec, args.n)
    report = kk.statistical_kakeya_check(inst)
    bound = report["bound"]
    return {
        "hypothesis_ok": report["hypothesis_ok"],
        "bound_numerator": bound.numerator,
        "bound_denominator": bound.denominator,
        "set_size": report["set_size"],
        "witnesses": {
            ",".join(map(str, x)): hits for x, hits in sorted(report["witnesses"].items())
        },
        "ok": report["ok"],
    }


def _source_list(data: dict, key: str, default=None) -> list:
    value = data.get(key, default)
    if not isinstance(value, list):
        raise InvalidParameters(f"source field {key!r} must be a JSON list")
    return value


def _load_source(spec, n: int, num_blocks: int, data) -> mg.SourceSpec:
    if not isinstance(data, dict):
        raise InvalidParameters("source must be a JSON object")
    kind = data.get("type")
    if kind == "identical":
        factory = lambda: mg.IdentityMap()
    elif kind == "constant":
        value = tuple(_source_list(data, "value", [0] * n))
        factory = lambda: mg.ConstantMap(value)
    elif kind == "permutation":
        perm = tuple(_source_list(data, "perm", [(j + 1) % n for j in range(n)]))
        factory = lambda: mg.CoordinatePermutationMap(perm)
    elif kind == "affine":
        matrix = _source_list(data, "matrix")
        for row in matrix:
            if not isinstance(row, list):
                raise InvalidParameters("affine matrix rows must be JSON lists")
        offset = tuple(_source_list(data, "offset", [0] * n))
        factory = lambda: mg.AffineMap(matrix, offset)
    else:
        raise InvalidParameters(f"unknown source type {kind!r}")
    maps = {j: factory() for j in range(1, num_blocks)}
    return mg.SourceSpec(spec, n, num_blocks, 0, maps, label=str(kind))


def cmd_merger_run(args) -> dict:
    delta, eps = args.delta, args.eps
    d = mg.checked_seed_length(delta, eps, args.num_blocks, args.n)
    spec = field_make(2, d)
    src = _load_source(spec, args.n, args.num_blocks, args.source)
    report = mg.verify_merger_theorem(delta, eps, args.num_blocks, args.n, sources=[src])
    entry = report["sources"][0]
    return {
        "seed_length": report["seed_length"],
        "q": report["q"],
        "entropy_threshold_bits": report["entropy_threshold_bits"],
        "epsilon": _frac(eps),
        "source": entry["source"]["label"],
        "distance": _frac(entry["distance"]),
        "ok": entry["ok"],
    }


def cmd_merger_verify(args) -> dict:
    delta, eps = args.delta, args.eps
    report = mg.verify_merger_theorem(delta, eps, args.num_blocks, args.n)
    return {
        "seed_length": report["seed_length"],
        "q": report["q"],
        "entropy_threshold_bits": report["entropy_threshold_bits"],
        "epsilon": _frac(eps),
        "sources": [
            {
                "label": e["source"]["label"],
                "distance": _frac(e["distance"]),
                "ok": e["ok"],
            }
            for e in report["sources"]
        ],
        "all_ok": report["all_ok"],
    }


def cmd_rs_decode(args) -> dict:
    if args.input is not _NO_INPUT:
        inst = rs.instance_from_json(args.input)
    else:
        if None in (args.field, args.alphas, args.betas, args.k, args.t):
            raise InvalidParameters(
                "pass --input FILE or all of --field/--alphas/--betas/--k/--t"
            )
        inst = rs.RSInstance(
            parse_field_spec(args.field), args.alphas, args.betas, k=args.k, t=args.t
        )
    spec = inst.spec
    params = rs.choose_params(inst, args.eps)
    decoded = rs.list_decode(inst, params=params)
    bound = rs.list_size_bound(inst.gamma, inst.rate)
    polys = [
        MultiPoly(spec, 1, {(i,): c for i, c in enumerate(f)}).to_text() for f in decoded
    ]
    return {
        "params": {
            "m": params.m,
            "d": params.d,
            "theta_num": params.theta.numerator,
            "theta_den": params.theta.denominator,
            "ydeg_cap": params.ydeg_cap,
        },
        "list": polys,
        "bound": _frac(bound),
    }


def cmd_rs_bound(args) -> dict:
    bound = rs.list_size_bound(args.gamma, args.rate)
    return {"bound": _frac(bound)}


def cmd_selftest(args) -> dict:
    report = run_selftest(args.seed, trials=args.trials)
    return report


# -- output plumbing --------------------------------------------------------------


def _emit(data: dict, args) -> None:
    if args.format == "json":
        text = json.dumps(data, sort_keys=True, indent=2) + "\n"
    else:
        text = _to_csv(data)
    if args.output:
        with open(args.output, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _to_csv(data: dict) -> str:
    records = None
    for key in ("checks", "sources"):
        if key in data and isinstance(data[key], list):
            records = data[key]
            break
    if records is None:
        raise InvalidParameters("csv output needs a record table (selftest, merger-verify)")
    cols = sorted({k for rec in records for k in rec})
    lines = [",".join(cols)]
    for rec in records:
        lines.append(",".join(_csv_cell(rec.get(c, "")) for c in cols))
    return "\n".join(lines) + "\n"


def _csv_cell(value) -> str:
    text = str(value)
    if any(ch in text for ch in ",\"\n"):
        text = '"' + text.replace('"', '""') + '"'
    return text


@lru_cache(maxsize=1)
def build_parser() -> argparse.ArgumentParser:
    """The argument parser, built on the first call and shared after it."""
    parser = argparse.ArgumentParser(
        prog="ffmult",
        description="Finite-field multiplicity toolkit: derivatives, Kakeya sets, "
        "curve mergers, and Reed-Solomon list decoding.",
    )
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--output", "-o", help="write output to a file instead of stdout")
    common.add_argument("--format", choices=("json", "csv"), default="json")
    common.add_argument(
        "--jobs",
        type=int,
        default=1,
        help="worker count hint; results are identical for every value",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def field_n(p):
        p.add_argument("--field", required=True, type=_field_arg, help="field as 'p' or 'p^e'")
        p.add_argument("--n", type=int, required=True, help="number of variables")

    p = sub.add_parser("hasse", parents=[common], help="Hasse derivative of a polynomial")
    field_n(p)
    p.add_argument("--poly", required=True, type=_poly_arg,
                   help="terms 'coeff:e1,...,en' joined by ';'")
    p.add_argument("--order", required=True, type=_parse_ints, help="derivative order 'i1,...,in'")
    p.set_defaults(fn=cmd_hasse)

    p = sub.add_parser("mult", parents=[common], help="multiplicity of a zero at a point")
    field_n(p)
    p.add_argument("--poly", required=True, type=_poly_arg)
    p.add_argument("--point", required=True, type=_parse_ints, help="point 'a1,...,an'")
    p.set_defaults(fn=cmd_mult)

    p = sub.add_parser("sz-mass", parents=[common], help="total multiplicity mass over S^n")
    field_n(p)
    p.add_argument("--poly", required=True, type=_poly_arg)
    p.add_argument("--subset", type=_parse_ints,
                   help="subset of element codes, default: the whole field")
    p.set_defaults(fn=cmd_sz_mass)

    p = sub.add_parser("interpolate", parents=[common], help="vanishing interpolation with multiplicity")
    field_n(p)
    p.add_argument("--points", required=True, type=_json_arg, help="JSON list of points")
    p.add_argument("--multiplicity", type=int, required=True)
    p.add_argument("--degree", type=int, required=True)
    p.add_argument("--verify", action="store_true")
    p.set_defaults(fn=cmd_interpolate)

    p = sub.add_parser("kakeya-verify", parents=[common], help="check the line-in-every-direction property")
    field_n(p)
    p.add_argument("--points", required=True, type=_json_arg, help="JSON list of points")
    p.set_defaults(fn=cmd_kakeya_verify)

    p = sub.add_parser("kakeya-search", parents=[common], help="exhaustive minimum Kakeya set search")
    field_n(p)
    p.add_argument("--size-cap", type=int, default=None)
    p.set_defaults(fn=cmd_kakeya_search)

    p = sub.add_parser("kakeya-stat", parents=[common], help="statistical Kakeya-for-curves checker")
    field_n(p)
    p.add_argument("--input", type=_json_file, default=_NO_INPUT,
                   help="instance JSON file; defaults to the full-space reduction")
    p.set_defaults(fn=cmd_kakeya_stat)

    p = sub.add_parser("merger-run", parents=[common], help="exact merger analysis of one source")
    p.add_argument("--delta", required=True, type=_parse_frac)
    p.add_argument("--eps", required=True, type=_parse_frac)
    p.add_argument("--lambda", dest="num_blocks", type=int, required=True)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--source", required=True, type=_json_arg,
                   help='JSON, e.g. {"type": "constant"}')
    p.set_defaults(fn=cmd_merger_run)

    p = sub.add_parser("merger-verify", parents=[common], help="merger theorem over the adversarial family")
    p.add_argument("--delta", required=True, type=_parse_frac)
    p.add_argument("--eps", required=True, type=_parse_frac)
    p.add_argument("--lambda", dest="num_blocks", type=int, required=True)
    p.add_argument("--n", type=int, required=True)
    p.set_defaults(fn=cmd_merger_verify)

    p = sub.add_parser("rs-decode", parents=[common], help="list decoding within the Johnson radius")
    p.add_argument("--field", type=_field_arg)
    p.add_argument("--alphas", type=_parse_ints)
    p.add_argument("--betas", type=_parse_ints)
    p.add_argument("--k", type=int)
    p.add_argument("--t", type=int)
    p.add_argument("--eps", default="1/4", type=_parse_frac, help="slack parameter, default 1/4")
    p.add_argument("--input", type=_json_file, default=_NO_INPUT,
                   help="instance JSON file instead of individual flags")
    p.set_defaults(fn=cmd_rs_decode)

    p = sub.add_parser("rs-bound", parents=[common], help="list-size bound 2*gamma/(gamma^2 - R)")
    p.add_argument("--gamma", required=True, type=_parse_frac)
    p.add_argument("--rate", required=True, type=_parse_frac)
    p.set_defaults(fn=cmd_rs_bound)

    p = sub.add_parser("selftest", parents=[common], help="run the full invariant suite")
    p.add_argument("--seed", type=int, required=True, help="64-bit seed (no default)")
    p.add_argument("--trials", type=int, default=1000)
    p.set_defaults(fn=cmd_selftest)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        data = args.fn(args)
    except FFMultError as exc:
        payload = {"error": exc.name, "message": str(exc)}
        sys.stdout.write(json.dumps(payload, sort_keys=True) + "\n")
        return 1
    try:
        _emit(data, args)
    except InvalidParameters as exc:  # wrong --format for this report shape
        sys.stderr.write(f"ffmult: error: {exc}\n")
        return 2
    if args.command == "selftest" and not data["all_ok"]:
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
