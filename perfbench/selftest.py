"""Self-test of the benchmark at smoke size.

    python3 perfbench/selftest.py

Checks that:
  * each workload, untraced, prints every end_to_end metric of BENCHMARK.json
    with its unit, and the informational lines (op_ms_p50, op_ms_tail with its
    percentile, error_rate with its counts);
  * a traced run prints every per_layer metric with its unit;
  * the correctness gate fails when one preset reference value, or one value
    of the independent evaluation of a seeded workload, is perturbed;
  * exact counts that differ from an earlier run with the same key fail;
  * in a directory holding only BENCHMARK.json and perfbench/, the benchmark
    exits non-zero without printing a result.
Exits 0 when all hold. Takes about twenty seconds.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np

import run
from workloads import WORKLOADS

SPEC = json.loads((run.ROOT / "BENCHMARK.json").read_text())
SEED = 7


def invoke(*args: str, cwd: Path = run.ROOT, script: Path = Path(run.__file__)):
    cmd = [sys.executable, str(script), "--seed", str(SEED), *args]
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=300)


def result_of(proc) -> dict:
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


def assert_metrics(result: dict, spec: list[dict]) -> None:
    assert set(result) == {"correct", "attempted", "failed", "metrics"}, result.keys()
    assert result["correct"] is True and result["failed"] == 0, result
    assert result["attempted"] >= 1
    want = {m["name"]: m["unit"] for m in spec}
    got = {name: m["unit"] for name, m in result["metrics"].items()}
    assert got == want, sorted(set(got) ^ set(want))
    for name, m in result["metrics"].items():
        assert set(m) == {"value", "unit"} and np.isfinite(m["value"]), (name, m)


def check_end_to_end() -> None:
    for name in WORKLOADS:
        proc = invoke("--workload", name, "--seconds", "1", "--trace", "0", "--smoke")
        assert_metrics(result_of(proc), SPEC["end_to_end"])
        for prefix in ("points_per_s ", "op_ms_p50 ", "op_ms_tail ", "error_rate "):
            assert any(line.startswith(prefix) for line in proc.stdout.splitlines()), prefix
        print(f"ok: {name} prints every end-to-end metric")


def check_per_layer() -> None:
    proc = invoke("--workload", "presets", "--seconds", "3", "--trace", "1", "--smoke")
    assert_metrics(result_of(proc), SPEC["per_layer"])
    print("ok: the traced run prints every per-layer metric")


def check_reference_gate(scratch: Path) -> None:
    perturbed = scratch / "reference"
    shutil.copytree(run.REFERENCE_DIR, perturbed)
    target = perturbed / "swap.csv"
    lines = target.read_text().splitlines()
    fields = lines[100].split(",")
    fields[1] = f"{float(fields[1]) + 1e-9:.12e}"
    lines[100] = ",".join(fields)
    target.write_text("\n".join(lines) + "\n")
    saved = run.REFERENCE_DIR
    run.REFERENCE_DIR = perturbed
    out, err = io.StringIO(), io.StringIO()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = run.main(["--workload", "presets", "--seed", str(SEED),
                             "--seconds", "1", "--smoke"])
    finally:
        run.REFERENCE_DIR = saved
    result = json.loads(out.getvalue().strip().splitlines()[-1])
    assert code == 1 and result["correct"] is False and result["failed"] >= 1, result
    print("ok: a perturbed preset reference value fails the gate")


def check_oracle_gate(xs, scratch: Path) -> None:
    grid = WORKLOADS["grid-parallel"](xs, SEED, scratch, True)
    grid.prepare(run.REFERENCE_DIR)
    cfg = grid.configs[4]
    records = xs.run_sweep(cfg)
    assert grid.check(cfg, records)
    grid.expected[cfg.out][50, 2] += 1e-6
    assert not grid.check(cfg, records)

    library = WORKLOADS["library"](xs, SEED, scratch, True)
    library.prepare(run.REFERENCE_DIR)
    output = library.run(3)
    assert library.check(3, output)
    library.expected[3, 2, 4] += 1e-6
    assert not library.check(3, output)
    print("ok: a perturbed independent evaluation fails the gate")


def check_counts_gate(scratch: Path) -> None:
    saved = run.COUNTS_FILE
    run.COUNTS_FILE = scratch / "counts.json"
    try:
        assert run.remembered_counts("k", {"points": 1}) is None
        assert run.remembered_counts("k", {"points": 2}) == {"points": 1}
    finally:
        run.COUNTS_FILE = saved
    print("ok: exact counts are compared with earlier runs")


def check_bare_directory(scratch: Path) -> None:
    bare = scratch / "bare"
    bare.mkdir()
    shutil.copy(run.ROOT / "BENCHMARK.json", bare)
    shutil.copytree(run.BENCH, bare / run.BENCH.name,
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = invoke("--workload", "presets", "--seconds", "1", "--trace", "0",
                  cwd=bare, script=bare / run.BENCH.name / "run.py")
    assert proc.returncode != 0 and "{" not in proc.stdout, (proc.returncode, proc.stdout)
    print("ok: without src/ the benchmark exits non-zero and prints no result")


def main() -> int:
    xs = run.load_xsteer()
    scratch = run.SCRATCH / f"selftest-{os.getpid()}"
    scratch.mkdir(parents=True)
    try:
        check_end_to_end()
        check_per_layer()
        check_reference_gate(scratch / "reference-gate")
        check_oracle_gate(xs, scratch)
        check_counts_gate(scratch)
        check_bare_directory(scratch)
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
        with contextlib.suppress(OSError):
            run.SCRATCH.rmdir()
    print("selftest passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
