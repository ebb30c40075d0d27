"""Benchmark for xsteer: three closed-loop workloads, end-to-end and per-layer.

    python3 perfbench/run.py --workload presets --seed 1 --seconds 45 --trace 0

Run from anywhere inside a checkout: it imports xsteer from the checkout's
`src/` and nothing else, and exits non-zero without a result if that is
missing. Workloads (see workloads.py and design.json): `presets`,
`grid-parallel`, `library`. Each is one client calling xsteer in a closed
loop, with pool workers never more than nproc. BENCHMARK.json gates presets
and library; grid-parallel spreads too much on a shared host to hold a bound,
so only traced runs and direct runs measure it.

--trace 0 times the named workload for --seconds after one warm-up pass and
prints the end-to-end metrics. --trace 1 runs every workload, each untraced
and then traced for a share of --seconds, plus two counted passes whose exact
call counts must agree with each other and with earlier runs of the same
seed and source; it prints the per-layer metrics, named `<workload>.<layer>...`.
The last stdout line is one JSON object: correct, attempted, failed, metrics.
Every output is checked (workloads.py); the run exits 1 when any check fails.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

import tracing
from workloads import WORKLOADS, nproc

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
REFERENCE_DIR = BENCH / "reference"
SCRATCH = ROOT / ".perfbench_tmp"
TRACE_OUT = ROOT / ".perfbench_out"
COUNTS_FILE = ROOT / ".perfbench_state" / "counts.json"
SETUP_PROBES = 9


def load_xsteer():
    """Import xsteer from this checkout's src/, or exit without a result."""
    if not (SRC / "xsteer" / "__init__.py").is_file():
        sys.exit(f"perfbench: no xsteer package under {SRC}; run from an xsteer checkout")
    sys.path.insert(0, str(SRC))
    import xsteer
    import xsteer.cli  # noqa: F401  (traced runs wrap cli.main)

    if Path(xsteer.__file__).resolve().parent != (SRC / "xsteer").resolve():
        sys.exit(f"perfbench: imported xsteer from {xsteer.__file__}, not from {SRC}")
    return xsteer


def source_digest() -> str:
    h = hashlib.sha256()
    for path in sorted((SRC / "xsteer").glob("*.py")):
        h.update(path.name.encode() + b"\0" + path.read_bytes())
    return h.hexdigest()[:16]


def git_sha() -> str:
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return "none"
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    name = ref[5:]
    loose = ROOT / ".git" / name
    if loose.is_file():
        return loose.read_text().strip()
    packed = ROOT / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    return "unknown"


def cpu_model() -> str:
    with contextlib.suppress(OSError):
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                return line.split(":", 1)[1].strip()
    return platform.processor() or "unknown"


def environment(xs, args) -> dict:
    return {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "nproc": nproc(), "cpu": cpu_model(),
        "python": platform.python_version(), "numpy": np.__version__,
        "xsteer": xs.__version__, "source_sha256": source_digest(), "git": git_sha(),
    }


@dataclass
class Tally:
    attempted: int = 0
    failed: int = 0
    points: int = 0
    csv_bytes: int = 0
    times: list[float] = field(default_factory=list)
    # Times of correct calls by kind of unit (preset, mode, chain), and the
    # points one call of each kind yields.
    kind_times: dict[str, list[float]] = field(default_factory=dict)
    kind_points: dict[str, int] = field(default_factory=dict)

    def add(self, other: "Tally") -> None:
        """Count another phase's attempted and failed calls in this one."""
        self.attempted += other.attempted
        self.failed += other.failed

    @property
    def points_per_s(self) -> float:
        return self.points / sum(self.times) if self.times else 0.0

    @property
    def points_per_s_best(self) -> float:
        """Points per second with each kind of call at its fastest time.

        Other tenants of a shared host slow calls in bursts that can cover most
        of a run, moving even the 10th percentile by 20%; the fastest call of
        each kind moved by 1-10%, so this is the rate that a change to the code
        moves and host load does not.
        """
        seconds = sum(min(t) for t in self.kind_times.values())
        return sum(self.kind_points.values()) / seconds if seconds else 0.0


def execute(wl, unit, tally: Tally, tracer=None) -> None:
    """One timed unit call, then its untimed correctness check."""
    output, error = None, None
    if tracer is not None:
        tracer.request += 1
        tracer.active = True
    start = time.perf_counter()
    try:
        output = wl.run(unit)
    except Exception:
        error = traceback.format_exc()
    finally:
        elapsed = time.perf_counter() - start
        if tracer is not None:
            tracer.active = False
    tally.attempted += 1
    tally.times.append(elapsed)
    if error is None:
        try:
            if not wl.check(unit, output):
                error = "wrong output"
        except Exception:
            error = traceback.format_exc()
    if error is not None:
        if not tally.failed:  # the first failure of a phase, in full
            print(f"perfbench: {wl.name}: failed on {unit!r}\n{error}", file=sys.stderr)
        tally.failed += 1
        return
    kind = wl.kind(unit)
    tally.kind_times.setdefault(kind, []).append(elapsed)
    tally.kind_points[kind] = wl.points(unit)
    tally.points += wl.points(unit)
    tally.csv_bytes += wl.csv_bytes(unit)


def run_pass(wl, units, tracer=None) -> Tally:
    tally = Tally()
    for unit in units:
        execute(wl, unit, tally, tracer)
    return tally


def run_window(wl, seconds: float, tracer=None, between_passes=None) -> Tally:
    """Closed loop over passes until `seconds` of wall time have gone by."""
    tally = Tally()
    deadline = time.perf_counter() + seconds
    while True:
        if between_passes is not None:
            between_passes()
        for unit in wl.pass_units():
            execute(wl, unit, tally, tracer)
            if time.perf_counter() >= deadline:
                return tally


def tail(times: list[float]) -> tuple[float, float, int]:
    """The highest percentile with at least ten samples beyond it.

    Returns (value, percentile, samples): the 11th-largest sample sits at
    percentile 100 (n - 10) / n. With ten samples or fewer it is the maximum.
    """
    ordered = sorted(times)
    n = len(ordered)
    if n <= 10:
        return ordered[-1], 100.0, n
    return ordered[n - 11], 100.0 * (n - 10) / n, n


def setup_probe(args) -> float:
    """Wall time of a fresh interpreter that imports xsteer and builds the inputs."""
    cmd = [
        sys.executable, str(Path(__file__).resolve()), "--setup-probe",
        "--workload", args.workload, "--seed", str(args.seed),
    ] + (["--smoke"] if args.smoke else [])
    start = time.perf_counter()
    subprocess.run(cmd, check=True, stdout=subprocess.DEVNULL, cwd=ROOT)
    return time.perf_counter() - start


def peak_rss_mb(child_kb: int) -> float:
    """Peak RSS of this process plus `child_kb`, the largest pool worker's peak."""
    return (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss + child_kb) / 1024.0


def metric(value: float, unit: str) -> dict:
    return {"value": float(value), "unit": unit}


def ratio(a: float, b: float) -> float:
    """a / b, or 0 when a phase had no correct call to measure."""
    return a / b if b else 0.0


def run_end_to_end(xs, args, workdir: Path) -> tuple[dict, Tally, list[str]]:
    wl = WORKLOADS[args.workload](xs, args.seed, workdir, args.smoke)
    wl.prepare(REFERENCE_DIR)
    total = run_pass(wl, wl.pass_units())  # warm-up, checked but not timed
    # Pool workers have run by now and no set-up probe has: the children's
    # peak is the largest pool worker's.
    pool_kb = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    # Set-up probes are spread over the window, between passes, so that their
    # median samples the host's load over the whole run.
    probes = 2 if args.smoke else SETUP_PROBES
    setup_samples: list[float] = []
    start = time.perf_counter()

    def probe_when_due() -> None:
        due = start + len(setup_samples) * args.seconds / probes
        if len(setup_samples) < probes and time.perf_counter() >= due:
            setup_samples.append(setup_probe(args))

    window = run_window(wl, args.seconds, between_passes=probe_when_due)
    while len(setup_samples) < probes:
        setup_samples.append(setup_probe(args))
    total.add(window)
    rss = peak_rss_mb(pool_kb)
    setup = statistics.median(setup_samples)
    value, pct, n = tail(window.times)
    metrics = {
        "points_per_s_best": metric(window.points_per_s_best, "points/s"),
        "setup_s": metric(setup, "s"),
        "peak_rss_mb": metric(rss, "MB"),
    }
    notes = [
        f"points_per_s {window.points_per_s:.6g} points/s",
        f"op_ms_p50 {1e3 * statistics.median(window.times):.6g} ms",
        f"op_ms_tail {1e3 * value:.6g} ms (p{pct:.2f} of {n} unit calls, 10 beyond it)",
        f"error_rate {total.failed / total.attempted:.6g} "
        f"({total.failed} failed / {total.attempted} attempted)",
    ]
    return metrics, total, notes


def counting_pool(base, counter: list[int]):
    """A ProcessPoolExecutor subclass that counts the tasks submitted to it."""

    class CountingPool(base):
        def submit(self, fn, /, *args, **kwargs):
            counter[0] += 1
            return super().submit(fn, *args, **kwargs)

    return CountingPool


def merged_stats(*span_lists) -> dict[str, list[int]]:
    out: dict[str, list[int]] = {}
    for spans in span_lists:
        for name, values in tracing.layer_stats(spans).items():
            entry = out.setdefault(name, [0, 0, 0])
            for k in range(3):
                entry[k] += values[k]
    return out


def mean_us(stats, *names, self_time=False) -> float:
    calls = sum(stats.get(n, (0, 0, 0))[0] for n in names)
    ns = sum(stats.get(n, (0, 0, 0))[2 if self_time else 1] for n in names)
    return ns / calls / 1e3 if calls else 0.0


def cli_overhead_ms(spans) -> float:
    """Mean of cli.main's span minus its run_sweep child spans."""
    inner: dict[int, int] = {}
    for parent, name, start, end, _ in spans:
        if name == "sweep.run_sweep" and parent >= 0 and spans[parent][1] == "cli.main":
            inner[parent] = inner.get(parent, 0) + end - start
    mains = [(i, s) for i, s in enumerate(spans) if s[1] == "cli.main"]
    total = sum(end - start - inner.get(i, 0) for i, (_, _, start, end, _) in mains)
    return total / len(mains) / 1e6 if mains else 0.0


def cli_argv(cfg) -> list[str]:
    return [
        "--mode", cfg.mode, "--grid", f"{cfg.start!r}:{cfg.stop!r}:{cfg.points}",
        "--nu", repr(cfg.nu), "--rb", str(cfg.r_b), "--g-over-gamma", repr(cfg.g_over_gamma),
        "--bell", cfg.bell.value, "--out", cfg.out, "--jobs", str(cfg.jobs),
    ]


class CliPresets:
    """The presets workload driven through the sweep CLI's main, in-process."""

    def __init__(self, wl) -> None:
        self.wl = wl
        self.name = "presets-cli"

    def run(self, cfg):
        with contextlib.redirect_stdout(io.StringIO()):
            return self.wl.xs.cli.main(cli_argv(cfg))

    def check(self, cfg, exit_code) -> bool:
        return exit_code == 0 and self.wl.check(cfg, self.wl.xs.load_csv(cfg.out))

    def kind(self, cfg) -> str:
        return self.wl.kind(cfg)

    def points(self, cfg) -> int:
        return cfg.points

    def csv_bytes(self, cfg) -> int:
        return 0


def counts_of(tally: Tally, stats, pool_tasks: int) -> dict[str, int]:
    """Exact counts of one counted pass; they must repeat bit for bit per seed."""
    return {
        "points": tally.points,
        "full_report_calls": stats.get("measures.full_report", [0])[0],
        "conditional_entropy_calls": stats.get("measures.conditional_entropy", [0])[0],
        "check_density_calls": stats.get("qstate.check_density", [0])[0],
        "csv_bytes": tally.csv_bytes,
        "pool_tasks": pool_tasks,
    }


def remembered_counts(key: str, counts: dict) -> dict | None:
    """Counts stored by an earlier run under `key`; stores `counts` if none."""
    stored = {}
    with contextlib.suppress(OSError, ValueError):
        stored = json.loads(COUNTS_FILE.read_text())
    if key in stored:
        return stored[key]
    stored[key] = counts
    COUNTS_FILE.parent.mkdir(parents=True, exist_ok=True)
    tmp = COUNTS_FILE.with_suffix(f".{os.getpid()}.tmp")
    tmp.write_text(json.dumps(stored, indent=1, sort_keys=True))
    os.replace(tmp, COUNTS_FILE)
    return None


def pool_phase(xs, wl, rounds: int, total: Tally) -> tuple[dict, list[int]]:
    """The grids at jobs=1 and at jobs=nproc, untraced; tasks counted per pass."""
    counter = [0]
    original = xs.sweep.ProcessPoolExecutor
    xs.sweep.ProcessPoolExecutor = counting_pool(original, counter)
    serial_s = pooled_s = 0.0
    tasks = []
    try:
        for _ in range(rounds):
            serial = run_pass(wl, wl.with_jobs(1))
            counter[0] = 0
            pooled = run_pass(wl, wl.pass_units())
            tasks.append(counter[0])
            serial_s += sum(serial.times)
            pooled_s += sum(pooled.times)
            total.add(serial)
            total.add(pooled)
    finally:
        xs.sweep.ProcessPoolExecutor = original
    sweeps = rounds * len(wl.configs)
    metrics = {
        "sweep.pool.speedup": metric(ratio(serial_s, pooled_s), "ratio"),
        "sweep.pool.overhead_ms": metric(1e3 * (pooled_s - serial_s / nproc()) / sweeps, "ms"),
        "sweep.pool.tasks": metric(tasks[0], "count"),
    }
    return metrics, tasks


def layer_metrics(name: str, counts: dict, layers: dict, window: dict, points: int) -> dict:
    """Per-layer metrics; `window` holds the traced window's stats, `points` its points."""
    metrics = {
        "points": metric(counts["points"], "count"),
        "qstate.check_density.calls": metric(counts["check_density_calls"], "count"),
        "qstate.check_density.us": metric(mean_us(layers, "qstate.check_density"), "us"),
        "qstate.from_x_params.us": metric(mean_us(layers, "qstate.from_x_params"), "us"),
        "qstate.x_params_from_density.us": metric(
            mean_us(layers, "qstate.x_params_from_density"), "us"
        ),
        "measures.full_report.calls": metric(counts["full_report_calls"], "count"),
        "measures.full_report.self_us": metric(
            mean_us(layers, "measures.full_report", self_time=True), "us"
        ),
        "measures.conditional_entropy.calls": metric(
            counts["conditional_entropy_calls"], "count"
        ),
        "measures.conditional_entropy.us": metric(
            mean_us(layers, "measures.conditional_entropy"), "us"
        ),
        "measures.steering_functional.us": metric(
            mean_us(layers, "measures.steering_functional"), "us"
        ),
        "processes.apply_local_channel.us": metric(
            mean_us(layers, "processes.apply_local_channel"), "us"
        ),
        "processes.bell_project_swap.us": metric(
            mean_us(layers, "processes.bell_project_swap"), "us"
        ),
        "processes.accelerate.us": metric(mean_us(layers, "processes.accelerate"), "us"),
        "processes.kraus.us": metric(
            mean_us(layers, "processes.amplitude_damping_kraus", "processes.dephasing_kraus"),
            "us",
        ),
    }
    if name == "library":
        metrics["processes.accelerate_oracle.us"] = metric(
            mean_us(layers, "processes.accelerate_oracle"), "us"
        )
        return metrics
    run_ns = window.get("sweep.run_sweep", [0, 0, 0])[1]
    write_ns = window.get("sweep.write_csv", [0, 0, 0])[1]
    plot_ns = window.get("sweep.emit_plot_script", [0, 0, 0])[1]
    metrics["sweep.evaluate.us_per_point"] = metric(
        ratio(run_ns - write_ns - plot_ns, points) / 1e3, "us/point"
    )
    metrics["sweep.write_csv.us_per_row"] = metric(ratio(write_ns, points) / 1e3, "us/row")
    metrics["sweep.write_csv.bytes"] = metric(counts["csv_bytes"], "B")
    metrics["sweep.emit_plot_script.us"] = metric(
        mean_us(window, "sweep.emit_plot_script"), "us"
    )
    return metrics


def trace_workload(xs, name, args, workdir, tracer, share: float, span_file):
    """Untraced and traced windows, two counted passes and layer-specific phases."""
    wl = WORKLOADS[name](xs, args.seed, workdir, args.smoke)
    wl.prepare(REFERENCE_DIR)
    total = run_pass(wl, wl.pass_units())  # warm-up
    plain = run_window(wl, share)
    traced = run_window(wl, share, tracer)
    window_spans = tracer.take()  # aggregated only; the file holds the first counted pass
    total.add(plain)
    total.add(traced)

    metrics, pool_tasks = {}, [0]
    if name == "grid-parallel":
        metrics, pool_tasks = pool_phase(xs, wl, 1 if args.smoke else 2, total)

    counted, count_spans = [], []
    for _ in range(2):
        t = run_pass(wl, wl.count_units(), tracer)
        count_spans.append(tracer.take())
        counted.append(counts_of(t, tracing.layer_stats(count_spans[-1]), pool_tasks[0]))
        total.add(t)
    phases = [("count", count_spans[0])]

    if name == "presets":
        total.add(run_pass(CliPresets(wl), wl.configs, tracer))
        phases.append(("cli", tracer.take()))
        metrics["cli.main.overhead_ms"] = metric(cli_overhead_ms(phases[-1][1]), "ms")
    tracing.write(span_file, name, phases)

    counts = counted[0]
    key = (
        f"{name} seed={args.seed} smoke={int(args.smoke)} "
        f"source={source_digest()} nproc={nproc()}"
    )
    earlier = remembered_counts(key, counts)
    if counted[0] != counted[1] or len(set(pool_tasks)) > 1 or earlier not in (None, counts):
        total.failed += 1
        print(
            f"perfbench: {name}: exact counts differ: passes {counted}, earlier run "
            f"{earlier}, pool tasks per round {pool_tasks}",
            file=sys.stderr,
        )

    metrics["trace.overhead"] = metric(
        ratio(traced.points_per_s_best, plain.points_per_s_best), "ratio"
    )
    metrics.update(layer_metrics(
        name, counts, merged_stats(window_spans, *count_spans),
        tracing.layer_stats(window_spans), traced.points,
    ))
    notes = [f"{name} exact counts per pass: {json.dumps(counts, sort_keys=True)}"]
    return {f"{name}.{k}": v for k, v in metrics.items()}, total, notes


def run_per_layer(xs, args, workdir: Path) -> tuple[dict, Tally, list[str]]:
    tracer = tracing.Tracer([xs, xs.qstate, xs.measures, xs.processes, xs.sweep, xs.cli])
    share = args.seconds / (2 * len(WORKLOADS))
    metrics, total, notes = {}, Tally(), []
    span_out = TRACE_OUT / f"spans-{args.workload}-seed{args.seed}.tsv.gz"
    try:
        with tracing.open_writer(span_out) as fh:
            for name in WORKLOADS:
                m, t, n = trace_workload(xs, name, args, workdir, tracer, share, fh)
                metrics.update(m)
                total.add(t)
                notes.extend(n)
    finally:
        tracer.close()
    notes.append(f"spans written to {span_out.relative_to(ROOT)}")
    return metrics, total, notes


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=45.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true", help="small inputs, for the self-test")
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    xs = load_xsteer()
    workdir = SCRATCH / f"run-{os.getpid()}"
    if args.setup_probe:
        WORKLOADS[args.workload](xs, args.seed, workdir, args.smoke)
        return 0
    print("environment " + json.dumps(environment(xs, args), sort_keys=True))
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        run = run_per_layer if args.trace else run_end_to_end
        metrics, total, notes = run(xs, args, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        with contextlib.suppress(OSError):
            SCRATCH.rmdir()
    for line in notes:
        print(line)
    for name, m in metrics.items():
        print(f"{name} {m['value']:.6g} {m['unit']}")
    correct = total.failed == 0
    print(json.dumps({
        "correct": correct, "attempted": total.attempted,
        "failed": total.failed, "metrics": metrics,
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
