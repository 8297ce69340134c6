"""Smoke test of the benchmark harness, each workload at a tiny size.

    python3 -m pytest perfbench/test_smoke.py -q
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import run as bench  # noqa: E402
import tracer  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

SPEC = json.loads((HERE.parent / "BENCHMARK.json").read_text())


def tiny(name: str, seed: int, trace: bool) -> dict:
    return bench.run(name, seed, seconds=0, trace=trace, cycles=1, min_passes=1)


def test_spec_lists_every_workload():
    assert [w["name"] for w in SPEC["workloads"]] == list(WORKLOADS)


@pytest.mark.parametrize("name", list(WORKLOADS))
def test_workload_prints_every_metric(name):
    runs = [(tiny(name, 1, False), "end_to_end"), (tiny(name, 2, False), "end_to_end"),
            (tiny(name, 1, True), "per_layer")]
    for report, key in runs:
        assert report["result"]["correct"], report["failures"]
        assert report["result"]["failed"] == 0
        lines = bench.render(report)
        last = json.loads(lines[-1])
        assert set(last) == {"correct", "attempted", "failed", "metrics"}
        for metric in SPEC[key]:
            assert last["metrics"][metric["name"]]["unit"] == metric["unit"]
            assert any(line.startswith(f"{metric['name']} ") and line.endswith(f" {metric['unit']}")
                       for line in lines), metric["name"]
        assert len(last["metrics"]) == len(SPEC[key])
        assert tracer.leftover_wrappers() == []


@pytest.mark.parametrize("name", list(WORKLOADS))
def test_seed_changes_argv_only(name):
    lib = bench.load_ffmult()
    pools = [bench.build_pool(lib, name, seed, cycles=1)[1] for seed in (1, 2, 1)]
    argvs = [[op.argv for op in pool if isinstance(op.argv, list)] for pool in pools]
    assert argvs[0] != argvs[1]
    assert argvs[0] == argvs[2]
    assert [op.label for op in pools[0]] == [op.label for op in pools[1]]


def test_tracer_restores_every_function():
    lib = bench.load_ffmult()
    originals = {(m, f): getattr(getattr(lib, m), f) for m, f, _, _ in tracer.TRACED}
    rec = tracer.SpanRecorder()
    rec.install(lib)
    try:
        wrapped = tracer.leftover_wrappers()
        # every binding is replaced, the package re-exports included
        for name in ("ffmult.rs_decode.y_roots_bruteforce", "ffmult.nullspace_vector",
                     "ffmult.interpolate.nullspace_vector", "ffmult.ff.field_make",
                     "ffmult.kakeya.field_make", "ffmult.merger.field_make"):
            assert name in wrapped
    finally:
        rec.uninstall()
    assert tracer.leftover_wrappers() == []
    for (m, f), fn in originals.items():
        assert getattr(getattr(lib, m), f) is fn


def test_count_pass_repeats_exactly():
    lib = bench.load_ffmult()
    _, pool = bench.build_pool(lib, "rs-batch", 3, cycles=1)
    runner = bench.Runner(lib, pool)
    counts = []
    for _ in range(2):
        counter = tracer.CallCounter()
        counter.install(lib)
        try:
            runner.run_pass("count")
        finally:
            counter.uninstall()
        counts.append(counter.counts)
    assert not runner.failures
    assert counts[0] == counts[1]
    assert counts[0]["mul"] > 0 and counts[0]["add"] > 0
    assert tracer.leftover_wrappers() == []


def test_tail_has_ten_samples_beyond():
    assert bench.tail([float(i) for i in range(20)]) == (9.0, 50)
    assert bench.tail([float(i) for i in range(100)]) == (89.0, 90)
    assert bench.tail([1.0, 3.0, 2.0]) == (3.0, 100)


def test_fails_without_sources(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    shutil.copy(HERE.parent / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "rs-batch", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
