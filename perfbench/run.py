"""Benchmark of the ffmult CLI, end to end and layer by layer.

    python3 perfbench/run.py --workload rs-large --seed 1 --seconds 20 --trace 0

Drives ``ffmult.cli.main(argv)`` in-process with stdout captured: a closed
loop with one client, no threads.  Inputs come from the workload's seeded
generator (``workloads.py``); every op's stdout is checked, and its sha256
must repeat whenever the same op runs again.

``--trace 0`` runs whole passes over the workload's ops, untraced, until
``--seconds`` of op time and at least MIN_PASSES passes are done, and reports
the end-to-end metrics.  ``--trace 1`` alternates untraced and traced passes
over the same ops, then makes one count pass of F_q calls, and reports the
per-layer metrics.  The last stdout line is one JSON object; a report with
run metadata and, when traced, the spans go to ``perfbench/out/``.

On a shared machine the CPU speed swings by 20-40% over seconds to minutes,
so end-to-end times are normalized to a reference machine speed: a fixed
pure-Python probe is timed at least every PROBE_EVERY_S seconds between ops
(and around each set-up sample), and each time is scaled by PROBE_REF_S /
(mean of the probes around it).  The uncorrected figures and the probe range
are in the notes.  Layer times from the traced run are not normalized.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import os
import platform
import random
import resource
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"
sys.path.insert(0, str(HERE))

import tracer  # noqa: E402
from gf import RefField, read_moduli  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

# The tail is the highest percentile with >= 10 samples beyond it.  With at
# least 6 passes the slowest class of ops in every workload (the GF(3^3) and
# GF(257) words, the q=64 merger runs, the GF(13) words, the two largest
# sz-mass runs) has 11 or more samples, so the tail falls among them.
MIN_PASSES = 6
SETUP_REPEATS = 3
PROBE_ITERS = 200_000
# The probe's time on an idle core of the 2-vCPU x86-64 VM (Python 3.11) this
# benchmark was tuned on; normalized times read as seconds on that machine.
PROBE_REF_S = 0.023
PROBE_EVERY_S = 0.5

SETUP_SCRIPT = """\
import sys
sys.path.insert(0, sys.argv[1])
import ffmult
for text in sys.argv[2:]:
    ffmult.parse_field_spec(text).mul(1, 1)  # builds the log/exp tables where used
sys.stdout.write("ready\\n")
sys.stdout.flush()
"""


def load_ffmult():
    """Import ffmult from this checkout's src/, never from anywhere else."""
    if not (SRC / "ffmult" / "__init__.py").is_file():
        raise SystemExit(f"perfbench: no ffmult sources under {SRC}")
    sys.path.insert(0, str(SRC))
    import ffmult
    import ffmult.cli  # noqa: F401

    if Path(ffmult.__file__).resolve().parent != SRC / "ffmult":
        raise SystemExit(f"perfbench: imported ffmult from {ffmult.__file__}, not {SRC}")
    return ffmult


def build_pool(lib, name: str, seed: int, cycles: int | None = None):
    wl = WORKLOADS[name]
    moduli = read_moduli(SRC / "ffmult" / "moduli.txt")
    fields = {}
    for text in wl.fields:
        p, _, e = text.partition("^")
        fields[text] = RefField(int(p), int(e or 1), moduli)
    rng = random.Random(f"{name}:{seed}")
    return wl, wl.build(rng, fields, lib, cycles or wl.cycles)


def measure_setup(fields) -> tuple[float, float]:
    """Seconds from process start until ffmult is imported and every field
    of the workload is made with its tables built: as measured, and
    normalized by the probes taken just before and after."""
    before = probe()
    t0 = time.perf_counter()
    with subprocess.Popen(
        [sys.executable, "-c", SETUP_SCRIPT, str(SRC), *fields],
        stdout=subprocess.PIPE, stdin=subprocess.DEVNULL, cwd=ROOT, text=True,
    ) as proc:
        line = proc.stdout.readline()
        elapsed = time.perf_counter() - t0
        proc.stdout.read()
        if proc.wait(timeout=120) != 0 or line != "ready\n":
            raise RuntimeError(f"set-up process failed with exit code {proc.returncode}")
    return elapsed, elapsed * PROBE_REF_S / ((before + probe()) / 2)


def probe() -> float:
    """Seconds for a fixed pure-Python loop: the machine's speed right now."""
    t0 = time.perf_counter()
    acc, table = 0, {}
    for i in range(PROBE_ITERS):
        acc += i * i % 7
        table[i % 977] = acc
    return time.perf_counter() - t0


class Runner:
    """Runs passes over one pool of ops and checks every output."""

    def __init__(self, lib, pool):
        self.lib, self.pool = lib, pool
        self.probes = [probe()]
        self.probed_at = time.perf_counter()
        self.digests: list[str | None] = [None] * len(pool)
        self.attempted = 0
        self.failures: list[str] = []
        self.decoded = 0  # polynomials listed by rs-decode ops, in traced passes
        self.by_label: dict[str, list[float]] = {}

    def run_pass(self, tag: str, recorder: tracer.SpanRecorder | None = None):
        """Run every op once; returns the op times and the same times
        normalized to the reference machine speed."""
        times, normalized, pending = [], [], []
        prev = ""
        for i, op in enumerate(self.pool):
            self.attempted += 1
            buf = io.StringIO()
            rc, error, t0 = None, None, None
            try:
                argv = op.argv(prev) if callable(op.argv) else op.argv
                t0 = time.perf_counter()
                with contextlib.redirect_stdout(buf):
                    if recorder is None:
                        rc = self.lib.cli.main(argv)
                    else:
                        recorder.op = f"{tag}:{i}"
                        rc = recorder.span("cli", self.lib.cli.main, argv)
            except (Exception, SystemExit):
                error = traceback.format_exc(limit=3)
            finally:
                times.append(time.perf_counter() - t0 if t0 is not None else 0.0)
                self.by_label.setdefault(op.label, []).append(times[-1])
            prev = buf.getvalue()
            if error is None and rc != 0:
                error = f"exit code {rc}: {prev[:200]}"
            if error is None:
                error = self._check(i, op, prev, recorder is not None)
            if error is not None:
                self.failures.append(f"{tag} op {i} ({op.label}): {error}")
            pending.append(times[-1])
            if time.perf_counter() - self.probed_at >= PROBE_EVERY_S or i == len(self.pool) - 1:
                self.probes.append(probe())
                self.probed_at = time.perf_counter()
                scale = PROBE_REF_S / ((self.probes[-2] + self.probes[-1]) / 2)
                normalized += [t * scale for t in pending]
                pending = []
        return times, normalized

    def _check(self, i, op, out, traced) -> str | None:
        try:
            error = op.check(out)
        except (ValueError, KeyError, TypeError) as exc:
            return f"unreadable output ({exc!r}): {out[:200]}"
        digest = hashlib.sha256(out.encode()).hexdigest()
        if self.digests[i] is None:
            self.digests[i] = digest
        elif self.digests[i] != digest:
            error = error or "stdout differs from an earlier run of the same op"
        if traced and isinstance(op.argv, list) and op.argv[0] == "rs-decode":
            self.decoded += len(json.loads(out)["list"])
        return error


def tail(samples: list[float]) -> tuple[float, int]:
    """Value and rank of the highest whole percentile with at least ten
    samples beyond it (nearest-rank); the maximum below 11 samples."""
    xs = sorted(samples)
    n = len(xs)
    if n < 11:
        return xs[-1], 100
    pct = 100 * (n - 10) // n
    return xs[-(-pct * n // 100) - 1], pct


def end_to_end(runner: Runner, passes: list[tuple[list[float], list[float], int]],
               setup: list[tuple[float, float]]) -> tuple[dict, list[str]]:
    """Throughput is the median over passes of ok ops / pass time."""

    def figures(which: int):
        times = [t for p in passes for t in p[which]]
        return (statistics.median(p[2] / sum(p[which]) for p in passes),
                statistics.median(times), *tail(times))

    raw = figures(0)
    throughput, p50, tail_s, pct = figures(1)
    metrics = {
        "throughput_ops_per_s": (throughput, "ops/s"),
        "latency_s.p50": (p50, "s"),
        "latency_s.tail": (tail_s, "s"),
        "setup_s": (statistics.median(norm for _, norm in setup), "s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
    }
    notes = [
        f"latency_s.tail is p{pct} of {len(passes) * len(runner.pool)} samples",
        f"failed_frac {len(runner.failures) / runner.attempted:.6g} ratio",
        f"{len(passes)} passes of {len(runner.pool)} ops, "
        f"{sum(sum(p[0]) for p in passes):.3f} s of op time",
        f"uncorrected: throughput {raw[0]:.6g} ops/s, p50 {raw[1]:.6g} s, tail {raw[2]:.6g} s",
        f"probe {min(runner.probes):.4f}-{max(runner.probes):.4f} s over "
        f"{len(runner.probes)} probes, reference {PROBE_REF_S} s",
        f"setup_s uncorrected samples {[round(raw, 4) for raw, _ in setup]}",
    ]
    return metrics, notes


def per_layer(runner, rec, traced_ops, untraced, traced, counts) -> dict:
    """Layer totals per traced pass; ff.* set-up figures from the traced set-up."""
    passes = len(traced)
    layer = rec.summary(traced_ops)
    setup = rec.summary({"setup"})
    busy, self_ns, cnt = layer["busy_ns"], layer["self_ns"], layer["counts"]

    def b(name):
        return busy.get(name, 0) / 1e9 / passes

    def c(name):
        return cnt.get(name, 0) / passes

    candidates = c("rs_decode.y_roots.candidates")
    nv = "interpolate.nullspace_vector"
    metrics = {
        f"{nv}.busy_s": (b(nv), "s"),
        f"{nv}.busy_s.prime": (b(f"{nv}.prime"), "s"),
        f"{nv}.busy_s.gf2e": (b(f"{nv}.gf2e"), "s"),
        f"{nv}.busy_s.oddpe": (b(f"{nv}.oddpe"), "s"),
        f"{nv}.cells": (c(f"{nv}.cells"), "count"),
        "interpolate.vanishing_constraints.busy_s": (b("interpolate.vanishing_constraints"), "s"),
        "interpolate.vanishing_constraints.rows": (c("interpolate.vanishing_constraints.rows"), "count"),
        "rs_decode.y_roots_bruteforce.busy_s": (b("rs_decode.y_roots_bruteforce"), "s"),
        "rs_decode.y_roots.self_s": (self_ns.get("rs_decode.y_roots", 0) / 1e9 / passes, "s"),
        "rs_decode.y_roots.candidates": (candidates, "count"),
        "rs_decode.decoded_per_candidate": (
            runner.decoded / passes / candidates if candidates else 0.0, "ratio"),
        "rs_decode.choose_params.busy_s": (b("rs_decode.choose_params"), "s"),
        "rs_decode.agreement.busy_s": (b("rs_decode.agreement"), "s"),
        "merger.exact_output_distribution.busy_s": (b("merger.exact_output_distribution"), "s"),
        "merger.pairs_enumerated": (c("merger.exact_output_distribution.pairs"), "count"),
        "merger.support_size": (c("merger.exact_output_distribution.support"), "count"),
        "merger.merger_make.busy_s": (b("merger.merger_make"), "s"),
        "merger.distance_to_min_entropy.busy_s": (b("merger.distance_to_min_entropy"), "s"),
        "mvpoly.multiplicity.busy_s": (b("mvpoly.multiplicity"), "s"),
        "mvpoly.multiplicity.calls": (c("mvpoly.multiplicity.calls"), "count"),
        "mvpoly.multiplicity_mass.busy_s": (b("mvpoly.multiplicity_mass"), "s"),
        "mvpoly.multiplicity_mass.points": (c("mvpoly.multiplicity_mass.points"), "count"),
        "kakeya.exhaustive_min_kakeya.busy_s": (b("kakeya.exhaustive_min_kakeya"), "s"),
        "kakeya.is_kakeya.busy_s": (b("kakeya.is_kakeya"), "s"),
        "kakeya.is_kakeya.calls": (c("kakeya.is_kakeya.calls"), "count"),
        "ff.field_make.busy_s": (
            b("ff.field_make") + setup["busy_ns"].get("ff.field_make", 0) / 1e9, "s"),
        "ff.table_build.busy_s": (setup["busy_ns"].get("ff.table_build", 0) / 1e9, "s"),
        **{f"ff.{k}.calls": (counts.get(k, 0), "count") for k in tracer.COUNTED},
        "cli.self_s": (self_ns.get("cli", 0) / 1e9 / passes, "s"),
        "trace.overhead_frac": (sum(traced) / sum(untraced) - 1, "ratio"),
    }
    return metrics


def run(name: str, seed: int, seconds: float, trace: bool, cycles: int | None = None,
        min_passes: int = MIN_PASSES) -> dict:
    lib = load_ffmult()
    wl, pool = build_pool(lib, name, seed, cycles)
    runner = Runner(lib, pool)
    report = {"workload": name, "seed": seed, "seconds": seconds, "trace": int(trace),
              "ops_per_pass": len(pool), "meta": metadata(lib)}
    if not trace:
        setup = [measure_setup(wl.fields) for _ in range(SETUP_REPEATS)]
        for text in wl.fields:
            lib.parse_field_spec(text).mul(1, 1)
        passes, elapsed = [], 0.0
        while elapsed < seconds or len(passes) < min_passes:
            failed = len(runner.failures)
            times, normalized = runner.run_pass(f"pass{len(passes)}")
            passes.append((times, normalized, len(pool) - (len(runner.failures) - failed)))
            elapsed += sum(times)
        metrics, notes = end_to_end(runner, passes, setup)
    else:
        rec = tracer.SpanRecorder()
        rec.install(lib)
        try:
            rec.op = "setup"
            for text in wl.fields:
                spec = rec.span("setup", lib.parse_field_spec, text)
                rec.span("ff.table_build", spec.mul, 1, 1)
        finally:
            rec.uninstall()
        untraced, traced, traced_ops = [], [], set()
        t0 = time.perf_counter()
        while True:
            pair_start = time.perf_counter()
            tag = f"traced{len(traced)}"
            untraced.append(sum(runner.run_pass(f"untraced{len(untraced)}")[1]))
            rec.install(lib)
            try:
                traced.append(sum(runner.run_pass(tag, rec)[1]))
            finally:
                rec.uninstall()
            traced_ops.update(f"{tag}:{i}" for i in range(len(pool)))
            now = time.perf_counter()
            if now - t0 + (now - pair_start) > seconds:
                break
        counter = tracer.CallCounter()
        counter.install(lib)
        try:
            runner.run_pass("count")
        finally:
            counter.uninstall()
        metrics = per_layer(runner, rec, traced_ops, untraced, traced, counter.counts)
        notes = [f"{len(traced)} traced passes of {len(pool)} ops; layer metrics are per pass"]
        OUT.mkdir(exist_ok=True)
        rec.write(OUT / f"spans-{name}-seed{seed}.jsonl")
    leftover = tracer.leftover_wrappers()
    if leftover:
        runner.failures.append(f"wrappers left installed: {leftover}")
    report.update(metrics={k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
                  notes=notes, failures=runner.failures[:20],
                  median_s_by_op={k: statistics.median(v) for k, v in runner.by_label.items()})
    report["result"] = {
        "correct": not runner.failures,
        "attempted": runner.attempted,
        "failed": len(runner.failures),
        "metrics": report["metrics"],
    }
    return report


def metadata(lib) -> dict:
    sha = None
    if (ROOT / ".git").exists():
        try:
            proc = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                                  capture_output=True, text=True, timeout=30)
            sha = proc.stdout.strip() or None
        except OSError:  # no git on this machine
            pass
    import numpy

    src_lines = sum(len(p.read_text(encoding="utf-8").splitlines())
                    for p in sorted(SRC.rglob("*.py")))
    return {
        "git_sha": sha,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "nproc": os.cpu_count(),
        "src_lines": src_lines,
        "ffmult": lib.__version__,
    }


def render(report: dict) -> list[str]:
    """The stdout lines: each metric with its unit, notes, then the result."""
    lines = [f"{name} {m['value']:.10g} {m['unit']}" for name, m in report["metrics"].items()]
    lines += [f"# {note}" for note in report["notes"]]
    lines += [f"# FAILED {failure}" for failure in report["failures"]]
    lines.append(f"# meta {json.dumps(report['meta'], sort_keys=True)}")
    lines.append(json.dumps(report["result"]))
    return lines


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    report = run(args.workload, args.seed, args.seconds, bool(args.trace))
    OUT.mkdir(exist_ok=True)
    path = OUT / f"report-{args.workload}-seed{args.seed}-trace{args.trace}.json"
    path.write_text(json.dumps(report, indent=2) + "\n")
    print("\n".join(render(report)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
