import os
import subprocess
import sys

from ffmult import ff
from ffmult.selftest import CHECKS, rng_stream, run_selftest


def test_report_structure_and_order():
    report = run_selftest(seed=5, trials=10)
    assert [c["key"] for c in report["checks"]] == [key for key, _ in CHECKS]
    assert report["seed"] == 5 and report["trials"] == 10
    assert all(isinstance(c["ok"], bool) and c["detail"] for c in report["checks"])
    assert report["all_ok"]


def test_report_is_pure_function_of_seed_and_trials():
    a = run_selftest(seed=123, trials=15)
    b = run_selftest(seed=123, trials=15)
    assert a == b


def test_different_seeds_still_pass():
    for seed in (0, 1, 2 ** 63):
        assert run_selftest(seed=seed, trials=10)["all_ok"]


def test_schwartz_zippel_mass_passes_when_the_corpus_draws_no_high_degree():
    # small corpora often hold no polynomial of degree above q; the check
    # covers that case with a fixed instance instead of failing
    check = dict(CHECKS)["schwartz-zippel-mass"]
    index = [key for key, _ in CHECKS].index("schwartz-zippel-mass")
    for trials in (0, 1, 3):
        for seed in range(50):
            assert check(rng_stream(seed, index), trials).startswith(f"{trials} instances")


def test_corrupted_modulus_table_is_reported_with_field_key(monkeypatch):
    broken = dict(ff._modulus_table())
    broken[(2, 2)] = (1, 0, 1)  # X^2 + 1 = (X + 1)^2: not irreducible
    monkeypatch.setattr(ff, "_modulus_table", lambda: broken)
    ff._field_make.cache_clear()
    try:
        report = run_selftest(seed=3, trials=5)
        assert not report["all_ok"]
        failing = [c for c in report["checks"] if not c["ok"]]
        assert any("(2, 2)" in c["detail"] or "(2,2)" in c["detail"] for c in failing), \
            f"no failure names the corrupted field: {failing}"
    finally:
        ff._field_make.cache_clear()


def test_checks_hold_under_optimize():
    # a kernel that returns all ones must fail nullspace-correctness also
    # under python -O, which strips assert statements
    code = (
        "from ffmult import selftest\n"
        "selftest.nullspace_vector = lambda rows, ncols, spec: [1] * ncols\n"
        "check = dict(selftest.CHECKS)['nullspace-correctness']\n"
        "try:\n"
        "    check(selftest.rng_stream(7, 16), 10)\n"
        "except AssertionError as exc:\n"
        "    print('failed:', exc)\n"
    )
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path))
    for flags in (["-O"], []):
        proc = subprocess.run([sys.executable, *flags, "-c", code], capture_output=True,
                              text=True, env=env, timeout=120)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.startswith("failed: "), (flags, proc.stdout)
