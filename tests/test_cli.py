import json
import subprocess
import sys

import pytest

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
])
def test_unparsable_input_is_usage_error(capsys, argv):
    with pytest.raises(SystemExit) as exc:
        main(list(argv))
    assert exc.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == "" and "error: argument" in captured.err


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
])
def test_merger_run_bad_source_is_domain_error(capsys, source, error):
    code, out = run_cli(capsys, *MERGER_RUN, "--source", source)
    assert code == 1
    assert json.loads(out)["error"] == error


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
