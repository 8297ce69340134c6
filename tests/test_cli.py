import contextlib
import hashlib
import io
import json
import os
import signal
import subprocess
import sys
import time
from math import comb

import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from ffmult.cli import main


def run_cli(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, out


def run_subprocess(*argv):
    proc = subprocess.run(
        [sys.executable, "-m", "ffmult.cli", *argv],
        capture_output=True,
        text=True,
    )
    return proc.returncode, proc.stdout


# ---------------------------------------------------------------------------
# worked examples
# ---------------------------------------------------------------------------

def test_sz_mass_tight_example(capsys):
    code, out = run_cli(capsys, "sz-mass", "--field", "3", "--n", "2", "--poly", "1:1,1")
    assert code == 0
    data = json.loads(out)
    assert data == {"mass": 6, "bound": 6, "ok": True}


def test_mult_at_a_large_exponent(capsys):
    # (X - 1)^50 * X^(10^5 - 50): multiplicity 50 at 1, from C(r, i) with r near 10^5
    p = 1048573
    poly = ";".join(f"{comb(50, k) * (-1) ** (50 - k) % p}:{10 ** 5 - 50 + k}" for k in range(51))
    code, out = run_cli(capsys, "mult", "--field", str(p), "--n", "1", "--poly", poly, "--point", "1")
    assert code == 0
    assert json.loads(out)["multiplicity"] == 50


def test_sz_mass_in_zero_dimensions(capsys):
    # every nonzero polynomial in no variables is a constant, of degree 0
    code, out = run_cli(capsys, "sz-mass", "--field", "5", "--n", "0", "--poly", "1:")
    assert code == 0
    assert '"bound": 0,' in out
    assert json.loads(out) == {"mass": 0, "bound": 0, "ok": True}


def test_kakeya_search_example(capsys):
    code, out = run_cli(capsys, "kakeya-search", "--field", "3", "--n", "2")
    assert code == 0
    data = json.loads(out)
    assert data["lower_bound_crude"] == "9/4"
    assert data["lower_bound_main"] == "81/25"
    assert data["min_size"] >= 4
    assert len(data["min_set"]) == data["min_size"]


def test_rs_decode_worked_example(capsys):
    code, out = run_cli(
        capsys,
        "rs-decode",
        "--field", "5",
        "--alphas", "0,1,2,3,4",
        "--betas", "0,1,2,0,0",
        "--k", "1",
        "--t", "3",
        "--eps", "1/16",
    )
    assert code == 0
    data = json.loads(out)
    assert data["list"] == ["0", "1:1"]
    assert data["bound"] == "15/2"
    assert set(data["params"]) == {"m", "d", "theta_num", "theta_den", "ydeg_cap"}
    assert data["params"]["theta_num"] == 5 and data["params"]["theta_den"] == 7


def test_rs_decode_refuses_an_infeasible_word_quickly(capsys):
    # every m up to the search cap fails the interpolation count or t*m > d
    def stop(signum, frame):
        raise AssertionError("rs-decode did not refuse within 10 s")

    values = ",".join(map(str, range(100)))
    previous = signal.signal(signal.SIGALRM, stop)
    signal.alarm(10)
    try:
        code, out = run_cli(capsys, "rs-decode", "--field", "257", "--alphas", values,
                            "--betas", values, "--k", "10", "--t", "40", "--eps", "1/100000")
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)
    assert code == 1
    assert json.loads(out)["error"] == "NoFeasibleM"


def test_rs_bound(capsys):
    code, out = run_cli(capsys, "rs-bound", "--gamma", "3/5", "--rate", "1/5")
    assert code == 0
    assert json.loads(out) == {"bound": "15/2"}


def test_hasse_and_mult(capsys):
    code, out = run_cli(
        capsys, "hasse", "--field", "5", "--n", "2", "--poly", "1:2,1", "--order", "1,1"
    )
    assert code == 0
    assert json.loads(out)["derivative"] == "2:1,0"
    code, out = run_cli(
        capsys, "mult", "--field", "5", "--n", "2", "--poly", "1:2,3", "--point", "0,0"
    )
    assert code == 0
    assert json.loads(out)["multiplicity"] == 5


def test_interpolate_subcommand(capsys):
    code, out = run_cli(
        capsys,
        "interpolate",
        "--field", "3",
        "--n", "2",
        "--points", "[[0, 0]]",
        "--multiplicity", "1",
        "--degree", "1",
        "--verify",
    )
    assert code == 0
    data = json.loads(out)
    assert data["poly"] != "0" and data["verified"]


def test_interpolate_cost_follows_the_constraint_count(capsys):
    # 3 points at m = 2 make 9 constraints: degree 3 is the smallest feasible,
    # and only the first 10 columns are ever eliminated
    argv = ("interpolate", "--field", "5", "--n", "2", "--points", "[[0, 0], [1, 2], [3, 4]]",
            "--multiplicity", "2", "--degree")
    code, out = run_cli(capsys, *argv, "3")
    assert code == 0
    start = time.perf_counter()
    code, huge = run_cli(capsys, *argv, str(10 ** 20), "--verify")
    assert time.perf_counter() - start < 0.5
    assert code == 0
    assert json.loads(huge)["poly"] == json.loads(out)["poly"]
    assert json.loads(huge)["monomials"] == comb(10 ** 20 + 2, 2)


def test_hasse_order_above_every_exponent_is_zero(capsys):
    code, out = run_cli(capsys, *HUGE_ORDER)
    assert code == 0
    assert json.loads(out)["derivative"] == "0"


def test_kakeya_verify_subcommand(capsys):
    pts = json.dumps([[a, b] for a in range(2) for b in range(2)])
    code, out = run_cli(capsys, "kakeya-verify", "--field", "2", "--n", "2", "--points", pts)
    assert code == 0
    data = json.loads(out)
    assert data["is_kakeya"] and len(data["witnesses"]) == 3
    code, out = run_cli(capsys, "kakeya-verify", "--field", "2", "--n", "2", "--points", "[[0,0]]")
    assert code == 0
    data = json.loads(out)
    assert not data["is_kakeya"] and data["violating_direction"] is not None


def test_kakeya_stat_reduction(capsys):
    code, out = run_cli(capsys, "kakeya-stat", "--field", "3", "--n", "2")
    assert code == 0
    data = json.loads(out)
    assert data["hypothesis_ok"] and data["ok"]
    assert data["bound_numerator"] == 81 and data["bound_denominator"] == 25


def test_merger_run_and_verify(capsys):
    code, out = run_cli(
        capsys,
        "merger-run",
        "--delta", "1/2",
        "--eps", "1/2",
        "--lambda", "2",
        "--n", "1",
        "--source", '{"type": "constant", "value": [0]}',
    )
    assert code == 0
    data = json.loads(out)
    assert data["q"] == 64 and data["seed_length"] == 6 and data["ok"]
    code, out = run_cli(
        capsys, "merger-verify", "--delta", "1/2", "--eps", "1/2", "--lambda", "2", "--n", "1"
    )
    assert code == 0
    data = json.loads(out)
    assert data["all_ok"] and len(data["sources"]) == 5
    for entry in data["sources"]:
        num, den = entry["distance"].split("/")
        assert int(num) * 2 <= int(den)  # distance <= 1/2


# ---------------------------------------------------------------------------
# error and exit-code contract
# ---------------------------------------------------------------------------

def test_domain_error_exit_code(capsys):
    code, out = run_cli(
        capsys, "mult", "--field", "4", "--n", "1", "--poly", "1:1", "--point", "0"
    )
    assert code == 1
    data = json.loads(out)
    assert data["error"] == "NonPrimeCharacteristic"


def test_domain_error_names_propagate(capsys):
    code, out = run_cli(
        capsys, "rs-bound", "--gamma", "1/2", "--rate", "1/2"
    )
    assert code == 1
    assert json.loads(out)["error"] == "InvalidParameters"
    code, out = run_cli(capsys, "kakeya-search", "--field", "5", "--n", "2")
    assert code == 1
    assert json.loads(out)["error"] == "SearchSpaceTooLarge"


def test_usage_error_exit_code():
    code, _ = run_subprocess("sz-mass", "--field", "3")  # --n and --poly missing
    assert code == 2
    code, _ = run_subprocess("no-such-command")
    assert code == 2


@pytest.mark.parametrize("argv", [
    ("mult", "--field", "5", "--n", "2", "--poly", "1:1,0", "--point", "9,9"),
    ("sz-mass", "--field", "5", "--n", "2", "--poly", "1:1,0", "--subset", "7"),
    ("kakeya-verify", "--field", "3", "--n", "2", "--points", "[[0, 7]]"),
    ("kakeya-verify", "--field", "3", "--n", "2", "--points", '[[0, "a"]]'),
    ("kakeya-verify", "--field", "3", "--n", "2", "--points", "5"),
    ("interpolate", "--field", "3", "--n", "1", "--points", "[[3]]",
     "--multiplicity", "1", "--degree", "1"),
    ("rs-decode", "--field", "5", "--alphas", "0,1,2,3,9", "--betas", "0,1,2,0,0",
     "--k", "1", "--t", "3"),
    # JSON true and false are not element codes
    ("interpolate", "--field", "3", "--n", "1", "--points", "[[true]]",
     "--multiplicity", "1", "--degree", "1"),
    ("kakeya-verify", "--field", "3", "--n", "2", "--points", "[[true, 0]]"),
])
def test_out_of_range_input_is_domain_error(capsys, argv):
    code, out = run_cli(capsys, *argv)
    assert code == 1
    assert json.loads(out)["error"] == "InvalidParameters"


@pytest.mark.parametrize("argv", [
    ("rs-bound", "--gamma", "abc", "--rate", "1/4"),
    ("rs-bound", "--gamma", "1/2", "--rate", "1/0"),
    ("kakeya-verify", "--field", "3", "--n", "2", "--points", "[["),
    ("interpolate", "--field", "3", "--n", "2", "--points", "{",
     "--multiplicity", "1", "--degree", "1"),
    ("mult", "--field", "5", "--n", "2", "--poly", "1:1,0", "--point", "1,x"),
    ("merger-verify", "--delta", "half", "--eps", "1/2", "--lambda", "2", "--n", "1"),
    ("rs-decode", "--field", "5", "--alphas", "0,1,2", "--betas", "0,1,2",
     "--k", "1", "--t", "3", "--eps", "x"),
    ("mult", "--field", "5", "--n", "1", "--poly", "abc", "--point", "0"),
    ("mult", "--field", "x", "--n", "1", "--poly", "1:1", "--point", "0"),
    ("hasse", "--field", "5", "--n", "2", "--poly", "1:1,x", "--order", "0,0"),
    ("sz-mass", "--field", "2^", "--n", "1", "--poly", "1:1"),
    ("rs-decode", "--input", "no-such-instance.json"),
    ("selftest", "--seed", "7", "--trials", "-1"),
])
def test_unparsable_input_is_usage_error(capsys, argv):
    with pytest.raises(SystemExit) as exc:
        main(list(argv))
    assert exc.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == "" and "error: argument" in captured.err


# merger checks whose q^(n+1) pairs pass the enumeration cap: refused before
# any source list is built or any power of q (or of 2L/eps) is formed
MERGER_REFUSALS = [
    ("merger-run", "--delta", "1/2", "--eps", "1/2", "--lambda", "2", "--n", "100000000",
     "--source", '{"type":"identical"}'),
    ("merger-run", "--delta", "1/2", "--eps", "1/2", "--lambda", "2", "--n", "10000000",
     "--source", '{"type":"constant"}'),
    ("merger-run", "--delta", "1/2", "--eps", "1/2", "--lambda", "2", "--n", "10000000",
     "--source", '{"type":"permutation"}'),
    ("merger-verify", "--delta", "1/2", "--eps", "1/2", "--lambda", "2", "--n", "100000000"),
    ("merger-verify", "--delta", "1/1000000", "--eps", "1/2", "--lambda", "2", "--n", "1"),
]


# polynomials whose exponents or total degree pass int64, refused up front
EXPONENT_REFUSALS = [
    ("hasse", "--field", "3", "--n", "1", "--poly", "1:99999999999999999999", "--order", "1"),
    ("mult", "--field", "3", "--n", "1", "--poly", "1:99999999999999999999", "--point", "1"),
    ("sz-mass", "--field", "3", "--n", "1", "--poly", "1:99999999999999999999"),
    ("hasse", "--field", "3", "--n", "2", "--poly", "1:9223372036854775807,1",
     "--order", "0,0"),
]
# a derivative order past int64, and so above every exponent
HUGE_ORDER = ("hasse", "--field", "3", "--n", "1", "--poly", "1:5",
              "--order", "99999999999999999999")


# kakeya-stat instances that a dict in argv stands for, written to a file
EMPTY_STAT = {"S": [], "K": [], "curves": [], "lambda": 0, "eta": 1, "degree": 1}
REPEATED_S = {"S": [[0], [0]], "K": [[0]], "curves": [{"point": [0], "components": [[0]]}],
              "lambda": 1, "eta": 1, "degree": 1}
# eta = 0 passes every hypothesis check (0 * q > -1), and the bound divides by eta
ETA_ZERO = {"S": [], "K": [], "curves": [], "lambda": 0, "eta": 0, "degree": -1}
# JSON true is not the integer 1
DEGREE_TRUE = {"S": [], "K": [], "curves": [], "lambda": 0, "eta": 1, "degree": True}
K_TRUE = {"field": "5", "alphas": [0, 1, 2, 3, 4], "betas": [0, 1, 2, 0, 0], "k": True, "t": 3}


@pytest.mark.parametrize("argv,error", [
    (("mult", "--field", "4", "--n", "1", "--poly", "1:1", "--point", "0"),
     "NonPrimeCharacteristic"),
    (("mult", "--field", "2^21", "--n", "1", "--poly", "1:1", "--point", "0"), "UnsupportedSize"),
    (("mult", "--field", "1048583", "--n", "1", "--poly", "1:1", "--point", "0"),
     "UnsupportedSize"),
    (("mult", "--field", "5", "--n", "3", "--poly", "1:1,0", "--point", "0,0,0"),
     "DimensionMismatch"),
    (("mult", "--field", "5", "--n", "1", "--poly", "7:1", "--point", "0"), "InvalidParameters"),
    (("hasse", "--field", "5", "--n", "1", "--poly", "1:-1", "--order", "0"),
     "DimensionMismatch"),
    (("kakeya-verify", "--field", "2", "--n", "40", "--points", "[]"), "UnsupportedSize"),
    (("kakeya-search", "--field", "2", "--n", "100000000"), "UnsupportedSize"),
    (("hasse", "--field", "5", "--n", "1", "--poly", "1:2", "--order=-1"), "InvalidParameters"),
] + [(argv, "EnumerationTooLarge") for argv in MERGER_REFUSALS] + [
    # a repeated point of S would count twice towards lambda
    (("kakeya-stat", "--field", "2", "--n", "1", "--input", REPEATED_S), "InvalidParameters"),
    (("kakeya-stat", "--field", "2", "--n", "-1", "--input", EMPTY_STAT), "InvalidParameters"),
    (("kakeya-stat", "--field", "3", "--n", "100000000", "--input", EMPTY_STAT),
     "UnsupportedSize"),
    # an explicit empty S is not the whole field
    (("sz-mass", "--field", "3", "--n", "1", "--poly", "1:1", "--subset", ""), "EmptySet"),
] + [(argv, "UnsupportedSize") for argv in EXPONENT_REFUSALS] + [
    # the reduction instance's direction e1 needs a coordinate
    (("kakeya-stat", "--field", "2", "--n", "0"), "InvalidParameters"),
    (("kakeya-stat", "--field", "5", "--n", "1", "--input", ETA_ZERO), "InvalidParameters"),
    (("kakeya-stat", "--field", "2", "--n", "1", "--input", DEGREE_TRUE), "InvalidParameters"),
    (("rs-decode", "--input", K_TRUE, "--eps", "1/16"), "InvalidParameters"),
])
def test_field_and_poly_out_of_domain_is_domain_error(tmp_path, capsys, argv, error):
    target = tmp_path / "input.json"
    for doc in [a for a in argv if isinstance(a, dict)]:
        target.write_text(json.dumps(doc))
    start = time.perf_counter()
    code, out = run_cli(capsys, *[str(target) if isinstance(a, dict) else a for a in argv])
    assert time.perf_counter() - start < 1
    assert code == 1
    assert json.loads(out)["error"] == error


# inputs whose grid of points or constraint table would take gigabytes
POINTS_300 = json.dumps([[x // 3, x % 3 * 5] for x in range(300)])
SIZE_REFUSALS = [
    ("sz-mass", "--field", "1048573", "--n", "2", "--poly", "1:1,1"),
    ("sz-mass", "--field", "2^10", "--n", "3", "--poly", "1:1,1,1"),
    ("interpolate", "--field", "101", "--n", "2", "--points", POINTS_300,
     "--multiplicity", "10", "--degree", "200"),
    ("interpolate", "--field", "101", "--n", "2", "--points", "[[0, 0]]",
     "--multiplicity", "100000", "--degree", "10000000"),
    ("rs-decode", "--field", "257", "--alphas", ",".join(map(str, range(257))),
     "--betas", ",".join(["0"] * 257), "--k", "16", "--t", "68", "--eps", "1/50"),
]


def _limit_address_space():
    import resource

    resource.setrlimit(resource.RLIMIT_AS, (2 ** 30, 2 ** 30))


@pytest.mark.parametrize("argv", SIZE_REFUSALS, ids=["sz-mass-p", "sz-mass-2^10", "interpolate",
                                                     "interpolate-m", "rs-decode"])
def test_size_refusals_come_before_any_large_array(argv):
    # in a child process whose address space is capped at 1 GiB, so that an
    # array the cap should have refused fails there and not here
    proc = subprocess.run(
        [sys.executable, "-m", "ffmult.cli", *argv], capture_output=True, text=True,
        preexec_fn=_limit_address_space, timeout=60,
        env={**os.environ, "OPENBLAS_NUM_THREADS": "1"},
    )
    assert proc.returncode == 1, proc.stderr[-400:]
    assert json.loads(proc.stdout)["error"] == "UnsupportedSize"


@pytest.mark.parametrize("argv", MERGER_REFUSALS)
def test_merger_refusals_exit_within_a_second(capsys, argv):
    start = time.perf_counter()
    code, out = run_cli(capsys, *argv)
    assert time.perf_counter() - start < 1
    assert code == 1
    data = json.loads(out)
    assert data["error"] == "EnumerationTooLarge"
    assert "exceeds 10000000" in data["message"] and len(data["message"]) < 80


def test_seed_length_of_a_long_delta_is_decided_in_floating_point(capsys):
    # delta = a/b with b = 10^8: the seed length comes from a float log, and
    # the non-integer entropy threshold is refused as before
    start = time.perf_counter()
    code, out = run_cli(capsys, "merger-verify", "--delta", "99999999/100000000",
                        "--eps", "1/2", "--lambda", "2", "--n", "1")
    assert time.perf_counter() - start < 0.5
    assert code == 1
    assert json.loads(out)["error"] == "InvalidParameters"


def test_field_and_poly_text_errors_outside_the_cli():
    from ffmult.errors import InvalidParameters
    from ffmult.ff import field_make, parse_field_spec
    from ffmult.mvpoly import MultiPoly

    for text in ("x", "2^", "^3", "", "2^x"):
        with pytest.raises(InvalidParameters):
            parse_field_spec(text)
    for text in ("abc", "1:1,,2", "x:1", "1:1;"):
        with pytest.raises(InvalidParameters):
            MultiPoly.from_text(field_make(5), 2, text)


def test_parser_is_built_once_and_reused(capsys):
    from ffmult.cli import build_parser

    calls = [
        ("mult", "--field", "5", "--n", "2", "--poly", "1:2,0;1:0,2", "--point", "0,0"),
        ("rs-bound", "--gamma", "3/5", "--rate", "1/5"),
        ("mult", "--field", "5", "--n", "1", "--poly", "abc", "--point", "0"),
        ("kakeya-search", "--field", "2", "--n", "2", "--size-cap", "3"),
        ("sz-mass", "--field", "3", "--n", "2", "--poly", "1:1,1"),
        ("kakeya-search", "--field", "2", "--n", "2"),
        ("rs-bound", "--gamma", "1/2", "--rate", "1/2"),
    ]

    def outcomes(fresh: bool):
        seen = []
        for argv in calls:
            if fresh:
                build_parser.cache_clear()
            try:
                code = main(list(argv))
            except SystemExit as exc:
                code = exc.code
            captured = capsys.readouterr()
            seen.append((code, captured.out, captured.err))
        return seen

    shared = outcomes(fresh=False)
    assert build_parser() is build_parser()
    assert [code for code, _, _ in shared] == [0, 0, 2, 0, 0, 0, 1]
    assert shared == outcomes(fresh=True)


MERGER_RUN = ("merger-run", "--delta", "1/2", "--eps", "1/2", "--lambda", "2", "--n", "2")


def test_merger_run_malformed_source_is_usage_error(capsys):
    with pytest.raises(SystemExit) as exc:
        main([*MERGER_RUN, "--source", "{bad"])
    assert exc.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == "" and "invalid JSON" in captured.err


@pytest.mark.parametrize("source,error", [
    ('{"type":"affine"}', "InvalidParameters"),
    ('{"type":"constant","value":[999,1]}', "InvalidParameters"),
    ('{"type":"permutation","perm":[5,5]}', "InvalidParameters"),
    ("[1]", "InvalidParameters"),
    ('{"type":"no-such-type"}', "InvalidParameters"),
    ('{"type":"constant","value":7}', "InvalidParameters"),
    ('{"type":"constant","value":[1]}', "DimensionMismatch"),
    ('{"type":"affine","matrix":[1,2]}', "InvalidParameters"),
    ('{"type":"affine","matrix":[[1,2],[3]]}', "DimensionMismatch"),
    ('{"type":"constant","value":[true,0]}', "InvalidParameters"),
    ('{"type":"permutation","perm":[true,false]}', "InvalidParameters"),
])
def test_merger_run_bad_source_is_domain_error(capsys, source, error):
    # one block holds no map of the source, and its map is checked all the same
    for lam in ("2", "1"):
        code, out = run_cli(capsys, "merger-run", "--delta", "1/2", "--eps", "1/2",
                            "--lambda", lam, "--n", "2", "--source", source)
        assert code == 1, lam
        assert json.loads(out)["error"] == error, lam


# the exit code and stdout of a malformed source at q = 64, pinned by their
# sha256: the messages name what is wrong with the JSON, in its own terms
MALFORMED_SOURCES = [
    ("constant-code", '{"type": "constant", "value": [64, 0]}',
     "fde9d48e61aab3147a22da73495a27170fc12873d2b74b243ef9120cae1ed08d"),
    ("constant-length", '{"type": "constant", "value": [1, 1, 1]}',
     "12b9cae533d7b29f6fe6b528007ebabaf06c73b0f1f63c8ee231de0f30ff3aa5"),
    ("constant-bool", '{"type": "constant", "value": [0, true]}',
     "46ef86b57f238e3697751045ef13e729384c20e9a993089e77268eb4761922c0"),
    ("permutation-repeat", '{"type": "permutation", "perm": [1, 1]}',
     "fc13417436f7884ea439d9d539b8dd5a69a59dbfdcfa1882c392b96152bec86c"),
    ("permutation-length", '{"type": "permutation", "perm": [0, 1, 2]}',
     "b8a6b368e43d795f7c685e0a31af4ae881e48498b3a9b861493b8e61d91ddc98"),
    ("permutation-bool", '{"type": "permutation", "perm": [true, false]}',
     "4fca666fa16aad5b41659cb5c0669589c33dc76fc924f5fd7a3dcdd43e255c17"),
    ("permutation-range", '{"type": "permutation", "perm": [0, 2]}',
     "f196b0e213289ab6bfa84b3a1841f34e6b82e267a87fef3cd01c93de5751c67a"),
    ("affine-code", '{"type": "affine", "matrix": [[1, 64], [0, 1]]}',
     "aa810b614688e973f63f209ccb40a01a069353faf593f5b49eed608d79a33e64"),
    ("affine-short-row", '{"type": "affine", "matrix": [[1, 0], [1]]}',
     "ef158c0b48b67e879f8e2831ac537fac4d619c4a35aef87e8e19e4b7d12126a1"),
    ("affine-no-matrix", '{"type": "affine", "offset": [0, 0]}',
     "c054aac07b50550e28dc2bf5432e2c7bd8fe5aae2c246e3f5a6f1b20f89daec1"),
    ("affine-short-offset", '{"type": "affine", "matrix": [[1, 0], [0, 1]], "offset": [1]}',
     "339fe28ed015d214cdcd903468e790c2c332df71f58046c0db8da74820ab9c56"),
    ("unknown-type", '{"type": "shift"}',
     "a0f524d287cebf7c65de91961ddcbc3df40257689779b1c5412729ce85d0b6c2"),
    ("json-list", "[0, 1]",
     "e6b273b1947d865ec8e2c02cf180a8fba9b4cfb8008501f72a2da00e9e127bc9"),
]


@pytest.mark.parametrize("source,digest", [row[1:] for row in MALFORMED_SOURCES],
                         ids=[row[0] for row in MALFORMED_SOURCES])
def test_malformed_source_output_is_pinned(capsys, source, digest):
    code, out = run_cli(capsys, *MERGER_RUN, "--source", source)
    assert hashlib.sha256(f"{code}\n{out}".encode()).hexdigest() == digest, out


def test_selftest_requires_seed():
    code, _ = run_subprocess("selftest")
    assert code == 2


# ---------------------------------------------------------------------------
# determinism and output modes
# ---------------------------------------------------------------------------

def test_byte_identical_runs():
    args = ("sz-mass", "--field", "3", "--n", "2", "--poly", "1:1,1")
    code1, out1 = run_subprocess(*args)
    code2, out2 = run_subprocess(*args)
    assert code1 == code2 == 0 and out1 == out2


# the README's CLI examples, the selftest --seed 7 report, a merger-run of
# each source type, and GF(2^17) and GF(2^20) runs, pinned by the sha256 of
# their stdout: a refactor that claims byte identity must keep these
PINNED_OUTPUTS = [
    (("sz-mass", "--field", "3", "--n", "2", "--poly", "1:1,1"),
     "149c66be240ac454ff06863897da5f98214ebe0ca131cd10e723e8ccb88b8c17"),
    (("kakeya-search", "--field", "3", "--n", "2"),
     "fb2fd84596aad4b29a86d0ef805fbf641618fca62920e72b1f7d1796356bae84"),
    (("kakeya-stat", "--field", "3", "--n", "2"),
     "6b9f4a2e7ca1d018cd4b3fd8688bd4644caf928338298ab261894cec964157aa"),
    (("merger-verify", "--delta", "1/2", "--eps", "1/2", "--lambda", "2", "--n", "2"),
     "eb70b591edb0da6a732d16a5800dbc244c5716c2528e9db6c6659bd0cb4742d2"),
    (("rs-decode", "--field", "5", "--alphas", "0,1,2,3,4", "--betas", "0,1,2,0,0",
      "--k", "1", "--t", "3"),
     "c2087486796719dc8178ca89c36af491f9cf218b1f2e1f0c018a2ebbff006cf5"),
    (("selftest", "--seed", "7"),
     "31cdb4d8f932be854b17e4d2a73805b0a8f000118f7330aaffb83da81ef20be4"),
    ((*MERGER_RUN, "--source", '{"type": "identical"}'),
     "ca7103546c8e46456d2c84584a442a92c4a47b0fc0a043d0e1d602cc7201c508"),
    ((*MERGER_RUN, "--source", '{"type": "constant", "value": [3, 9]}'),
     "1d66157b3b377a1e426da444c9669d53aeb22d32b7d7f99e0b1d07e13a000ce1"),
    ((*MERGER_RUN, "--source", '{"type": "permutation", "perm": [1, 0]}'),
     "7affab9450b4de90246f25f25b708fa8e869701c0f84082089a5981590a897f5"),
    ((*MERGER_RUN, "--source",
      '{"type": "affine", "matrix": [[1, 2], [3, 4]], "offset": [5, 6]}'),
     "52a657712a177781db8455c4ee90112473bfef3e840bb125a84296e79c46e756"),
    (("merger-run", "--delta", "1/2", "--eps", "1/2", "--lambda", "3", "--n", "1",
      "--source", '{"type": "affine", "matrix": [[7]], "offset": [200]}'),
     "b6dbe7ba911e3f93f63dc4e969ade7b4da0e89bbb9f7e13071e162b16b651dc3"),
    (("kakeya-stat", "--field", "2^4", "--n", "2"),
     "af03ac121b3bec8c8e183f5269b727ea1330dc02be8e1536d4783d891529780a"),
    (("kakeya-stat", "--field", "13", "--n", "2"),
     "dbd572f8e5d9d42f0d9c95b5e07b7d15c9a3e3edc3d226f409c7d0cf1e470b91"),
    (("rs-decode", "--field", "2^17", "--alphas", ",".join(map(str, range(40))),
      "--betas", "2,77764,49017,102586,64778,119501,17015,93623,128510,55859,84612,25923,"
      "67834,10032,112525,39002,119884,64395,92965,17649,76101,1684,103999,47608,8616,69238,"
      "40651,110864,56504,127871,25565,84997,87652,31105,125214,50905,109384,33962,70679,15352",
      "--k", "2", "--t", "26", "--eps", "1/8"),
     "46d21e30eab3ec0167280ca35c39b64668385b74c81e6081e35ed6ca6ec244af"),
    (("hasse", "--field", "2^20", "--n", "2", "--poly", "1048571:3,2;777:1,0;349525:0,5;1:4,4",
      "--order", "2,0"),
     "d4ced3d00b2c9f1b33c10a6dfea260b29fa98960cb66804530486fa8270d8a21"),
    # (X + 5)(Y + 1048499): multiplicity 2 at (5, 1048499), with 356 = 5 * 1048499
    (("mult", "--field", "2^20", "--n", "2", "--poly", "1:1,1;5:0,1;1048499:1,0;356:0,0",
      "--point", "5,1048499"),
     "ab6934c6c52c8f6e94f17186ee6c5d41dae272420d8405056c282106e21d8b71"),
]
PINNED_IDS = [argv[0] for argv, _ in PINNED_OUTPUTS]
PINNED_IDS[-10:] = ["merger-run-identical", "merger-run-constant", "merger-run-permutation",
                    "merger-run-affine", "merger-run-affine-L3", "kakeya-stat-2^4",
                    "kakeya-stat-13", "rs-decode-2^17", "hasse-2^20", "mult-2^20"]


@pytest.mark.parametrize("argv,digest", PINNED_OUTPUTS, ids=PINNED_IDS)
def test_pinned_outputs_are_byte_identical(argv, digest):
    code, out = run_subprocess(*argv)
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == digest, out[:400]


def test_jobs_flag_does_not_change_output():
    base = ("kakeya-search", "--field", "3", "--n", "2")
    _, out1 = run_subprocess(*base, "--jobs", "1")
    _, out2 = run_subprocess(*base, "--jobs", "8")
    assert out1 == out2


def test_selftest_csv_and_determinism():
    args = ("selftest", "--seed", "11", "--trials", "25", "--format", "csv")
    code1, out1 = run_subprocess(*args)
    code2, out2 = run_subprocess(*args)
    assert code1 == code2 == 0
    assert out1 == out2
    header = out1.splitlines()[0]
    assert header == "detail,key,ok"


def test_csv_rejected_for_scalar_reports():
    code, _ = run_subprocess(
        "rs-bound", "--gamma", "3/5", "--rate", "1/5", "--format", "csv"
    )
    assert code == 2  # a format/usage problem, not a domain error


def test_output_file(tmp_path, capsys):
    target = tmp_path / "out.json"
    code, _ = run_cli(
        capsys, "rs-bound", "--gamma", "3/5", "--rate", "1/5", "-o", str(target)
    )
    assert code == 0
    assert json.loads(target.read_text()) == {"bound": "15/2"}


def test_rs_decode_from_instance_file(tmp_path, capsys):
    payload = {
        "field": "5",
        "alphas": [0, 1, 2, 3, 4],
        "betas": [0, 1, 2, 0, 0],
        "k": 1,
        "t": 3,
    }
    target = tmp_path / "inst.json"
    target.write_text(json.dumps(payload))
    code, out = run_cli(capsys, "rs-decode", "--input", str(target), "--eps", "1/16")
    assert code == 0
    assert json.loads(out)["list"] == ["0", "1:1"]


def test_kakeya_stat_reports_witnesses(capsys):
    code, out = run_cli(capsys, "kakeya-stat", "--field", "2", "--n", "1")
    assert code == 0
    data = json.loads(out)
    assert data["witnesses"] == {"0": 2, "1": 2}


# the full-space reduction instance over F_2, as a kakeya-stat --input file
STAT_INSTANCE = {
    "S": [[0], [1]],
    "K": [[0], [1]],
    "curves": [{"point": [0], "components": [[0, 1]]},
               {"point": [1], "components": [[1, 1]]}],
    "lambda": "1",
    "eta": "1",
    "degree": 1,
}


def test_kakeya_stat_from_instance_file(tmp_path, capsys):
    target = tmp_path / "stat.json"
    target.write_text(json.dumps(STAT_INSTANCE))
    code, out = run_cli(capsys, "kakeya-stat", "--field", "2", "--n", "1", "--input", str(target))
    assert code == 0
    assert out == run_cli(capsys, "kakeya-stat", "--field", "2", "--n", "1")[1]


@pytest.mark.parametrize("order", [1, -1], ids=["constant-first", "line-first"])
def test_kakeya_stat_refuses_a_point_with_two_curves(tmp_path, capsys, order):
    # over F_3 the constant 1 misses the point 0 and the line t passes through
    # it: kept in a dict, whichever is listed last would decide the verdict
    twice = [{"point": [0], "components": [[1]]}, {"point": [0], "components": [[0, 1]]}]
    lines = [{"point": [x], "components": [[x, 1]]} for x in (1, 2)]
    instance = {"S": [[0], [1], [2]], "K": [[0], [1], [2]], "curves": twice[::order] + lines,
                "lambda": "1", "eta": "1", "degree": 1}
    target = tmp_path / "stat.json"
    target.write_text(json.dumps(instance))
    code, out = run_cli(capsys, "kakeya-stat", "--field", "3", "--n", "1", "--input", str(target))
    assert code == 1
    assert json.loads(out)["error"] == "InvalidParameters"


# ---------------------------------------------------------------------------
# bounded fuzz of the exit-code contract
# ---------------------------------------------------------------------------

JUNK = st.sampled_from(["", "abc", "x", "-", "^", "2^", ":", ";", "1:", "1,,2", "[[", "{",
                        "[]", "null", '[[0,"a"]]', "1/0", "0x10", "nan", "--bogus"])
SMALL = st.integers(-1, 3).map(str)
FIELDS = st.sampled_from(["2", "3", "5", "7", "13", "2^2", "2^3", "2^4", "3^2",
                          "4", "1", "0", "-3", "2^21", "6^1"])
FRACS = st.sampled_from(["1/2", "3/4", "1", "0", "2", "-1/2", "1/3", "2/3", "1/4"])
INTS = st.lists(st.integers(-1, 17), max_size=4).map(lambda xs: ",".join(map(str, xs)))
POINTS = st.lists(st.lists(st.integers(-1, 16), max_size=3), max_size=6).map(json.dumps)
TERM = st.tuples(st.integers(-1, 17), st.lists(st.integers(-1, 4), max_size=3))
POLYS = st.lists(TERM, max_size=4).map(
    lambda ts: ";".join(f"{c}:{','.join(map(str, e))}" for c, e in ts) or "0")
SOURCES = st.sampled_from([
    '{"type":"identical"}', '{"type":"constant"}', '{"type":"permutation"}',
    '{"type":"affine","matrix":[[1,0],[0,1]]}', '{"type":"constant","value":[1]}',
    '{"type":"affine"}', '{"type":"nope"}', "[1]", "7"])

# subcommand -> (option, well-formed values); selftest has no well-formed side,
# since one run takes over a second, and the suite itself is pinned elsewhere
FIELD_N = [("--field", FIELDS), ("--n", SMALL)]
# seed length ceil(log2(2L/eps) / delta): these keep the merger field at q <= 64,
# but for a delta of 1/10^6 and an n of 10^8, which are refused up front
MERGER = [("--delta", st.sampled_from(["1/2", "3/4", "1", "0", "2", "1/1000000"])),
          ("--eps", st.sampled_from(["1/2", "3/4", "0", "1"])),
          ("--lambda", st.integers(-1, 2).map(str)),
          ("--n", SMALL | st.just("100000000"))]
COMMANDS = {
    "hasse": FIELD_N + [("--poly", POLYS), ("--order", INTS)],
    "mult": FIELD_N + [("--poly", POLYS), ("--point", INTS)],
    "sz-mass": FIELD_N + [("--poly", POLYS), ("--subset", INTS)],
    "interpolate": FIELD_N + [("--points", POINTS), ("--multiplicity", SMALL),
                              ("--degree", SMALL), ("--verify", None)],
    "kakeya-verify": FIELD_N + [("--points", POINTS)],
    "kakeya-search": FIELD_N + [("--size-cap", st.integers(-1, 17).map(str))],
    "kakeya-stat": FIELD_N + [("--input", JUNK)],
    "merger-run": MERGER + [("--source", SOURCES)],
    "merger-verify": MERGER,
    "rs-decode": FIELD_N[:1] + [("--alphas", INTS), ("--betas", INTS), ("--k", SMALL),
                                ("--t", SMALL), ("--eps", FRACS), ("--input", JUNK)],
    "rs-bound": [("--gamma", FRACS), ("--rate", FRACS)],
    "selftest": [("--seed", JUNK), ("--trials", JUNK)],
    "no-such-command": [],
}


@st.composite
def cli_argv(draw):
    command = draw(st.sampled_from(sorted(COMMANDS)))
    argv = [command]
    for option, values in COMMANDS[command]:
        if draw(st.integers(0, 9)) == 0 or (values is JUNK and draw(st.booleans())):
            continue  # leave it out, required or not
        argv.append(option)
        if values is not None:
            argv.append(draw(JUNK if draw(st.integers(0, 7)) == 0 else values))
    if draw(st.integers(0, 5)) == 0:
        argv += draw(st.sampled_from([["--format", "csv"], ["--jobs", "2"], ["--jobs", "x"],
                                      ["--format", "xml"], [draw(JUNK)]]))
    return argv


@settings(max_examples=300, deadline=None)
@given(cli_argv())
@example(list(MERGER_REFUSALS[0]))
@example(list(MERGER_REFUSALS[-1]))
@example(list(EXPONENT_REFUSALS[0]))
@example(list(EXPONENT_REFUSALS[1]))
@example(list(EXPONENT_REFUSALS[2]))
@example(list(EXPONENT_REFUSALS[3]))
@example(list(HUGE_ORDER))
def test_cli_exit_code_contract_holds_for_fuzzed_argv(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as exc:
            code = exc.code
    assert code in (0, 1, 2), (argv, code)
    if code == 1:
        assert "error" in json.loads(out.getvalue()), argv
    if code == 2:
        assert out.getvalue() == "", argv
    assert "Traceback" not in err.getvalue(), argv


# --input files: the well-formed instances of rs-decode and kakeya-stat with
# fields dropped or replaced by other JSON, and JSON of other shapes
RS_INSTANCE = {"field": "5", "alphas": [0, 1, 2, 3, 4], "betas": [0, 1, 2, 0, 0],
               "k": 1, "t": 3}
JSON_JUNK = st.recursive(
    st.none() | st.booleans() | st.integers(-2, 9) | st.sampled_from([1.5, "", "5", "x", "1/0"]),
    lambda kids: st.lists(kids, max_size=3) | st.dictionaries(
        st.sampled_from(["field", "point", "components", "S", "type"]), kids, max_size=2),
    max_leaves=6)


@st.composite
def input_doc(draw, template):
    if draw(st.integers(0, 5)) == 0:
        return draw(JSON_JUNK)
    doc = {}
    for key, value in template.items():
        pick = draw(st.integers(0, 5))
        if pick == 0:
            continue
        doc[key] = draw(JSON_JUNK) if pick == 1 else value
    return doc


@settings(max_examples=150, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(st.one_of(
    input_doc(RS_INSTANCE).map(lambda doc: (["rs-decode"], doc)),
    input_doc(STAT_INSTANCE).map(lambda doc: (["kakeya-stat", "--field", "2", "--n", "1"], doc)),
))
@example((["rs-decode"], None))
@example((["kakeya-stat", "--field", "2", "--n", "1"], None))
@example((["kakeya-stat", "--field", "5", "--n", "1"], ETA_ZERO))
def test_cli_exit_code_contract_holds_for_fuzzed_input_files(tmp_path, case):
    argv, doc = case
    target = tmp_path / "input.json"
    target.write_text(json.dumps(doc))
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main([*argv, "--input", str(target)])
    assert code in (0, 1), (doc, code)
    if code == 1:
        assert "error" in json.loads(out.getvalue()), doc
    if not isinstance(doc, dict):
        # a given file is an instance, so null or any other non-object is malformed
        assert code == 1 and json.loads(out.getvalue())["error"] == "InvalidParameters", doc
    assert "Traceback" not in err.getvalue(), doc
