"""Parameter sweeps producing CSV files and companion gnuplot scripts.

Five modes are supported, one per physical scenario:

* ``nu``                 - the Bell-mixture family versus its mixing parameter
* ``acceleration``       - accelerated Bell mixture versus r (r_b fixed or tracking r_a)
* ``ad-channel``         - amplitude damping on both qubits versus gamma*t
* ``dephasing-channel``  - pure dephasing on both qubits versus gamma*t
* ``swap``               - entanglement swapping of two identical pairs versus nu

Each grid point yields one record (param, s, z, e_x, e_y, i_ab).  Every mode
maps X states to X states, so `evaluate_grid` computes the six X parameters
of every grid point in closed form and evaluates the whole grid in one
vectorised pass.  With jobs > 1 the grid is split into contiguous chunks, one
per worker, each evaluated by the same pass; every operation acts row by row,
so the emitted bytes are identical for any worker count.  The CSV and its plot
script are written to a temporary directory beside the output and moved into
place together.
"""

from __future__ import annotations

import contextlib
import os
import tempfile
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from functools import partial
from pathlib import Path

import numpy as np

from .measures import x_report
from .processes import (
    accelerated_params,
    ad_survival,
    damped_params,
    dephased_params,
    dephasing_coherence,
    swapped_params,
)
from .qstate import DOMAINS, R_MAX, BellIndex, XStateParams, bell_mixture

# What each mode sweeps: its DOMAINS entry and its plot axis label.
_SWEPT = {
    "nu": ("nu", "ν"),
    "acceleration": ("r", "r"),
    "ad-channel": ("gamma_t", "γt"),
    "dephasing-channel": ("gamma_t", "γt"),
    "swap": ("nu", "ν"),
}
MODES = tuple(_SWEPT)

CSV_HEADER = "param,s,z,e_x,e_y,i_ab"
# printf-style; gives the same digits as "{:.12e}".
_ROW_FORMAT = ",".join(["%.12e"] * 6) + "\n"


class ConfigError(ValueError):
    """A sweep configuration field is missing or out of range."""


@dataclass(frozen=True)
class SweepRecord:
    param: float
    s: float
    z: float
    e_x: float
    e_y: float
    i_ab: float


@dataclass(frozen=True)
class SweepConfig:
    """One sweep: the mode, the grid, the fixed parameters, the output path.

    `r_b` is either a float in [0, pi/4] or the string "track", meaning
    r_b follows the swept r_a.  `jobs` > 1 evaluates contiguous chunks of
    the grid in a process pool.
    """

    mode: str
    start: float
    stop: float
    points: int
    out: str
    nu: float = 1.0
    r_b: float | str = 0.0
    g_over_gamma: float = 0.1
    bell: BellIndex = BellIndex.PSI_PLUS
    jobs: int = 1

    def validate(self) -> "SweepConfig":
        if self.mode not in MODES:
            raise ConfigError(f"mode must be one of {MODES}, got {self.mode!r}")
        if self.points < 2:
            raise ConfigError(f"points must be >= 2, got {self.points}")
        if not self.start < self.stop:
            raise ConfigError(f"grid needs start < stop, got {self.start}:{self.stop}")
        if not self.out:
            raise ConfigError("out: an output path is required")
        if self.jobs < 1:
            raise ConfigError(f"jobs must be >= 1, got {self.jobs}")
        swept = DOMAINS[_SWEPT[self.mode][0]]
        if not (swept.contains(self.start) and swept.contains(self.stop)):
            raise ConfigError(f"{self.mode} sweeps need a grid inside {swept}")
        if self.mode == "acceleration":
            if isinstance(self.r_b, str):
                if self.r_b != "track":
                    raise ConfigError(f"r_b must be a number or 'track', got {self.r_b!r}")
            else:
                DOMAINS["r"].check(self.r_b, "r_b", ConfigError)
        if self.mode in ("acceleration", "ad-channel", "dephasing-channel"):
            DOMAINS["nu"].check(self.nu, "nu", ConfigError)
        if self.mode in ("ad-channel", "dephasing-channel"):
            rate = "g_over_gamma_ad" if self.mode == "ad-channel" else "g_over_gamma"
            DOMAINS[rate].check(self.g_over_gamma, "g-over-gamma", ConfigError)
        if not isinstance(self.bell, BellIndex):
            raise ConfigError(f"bell must be a BellIndex, got {self.bell!r}")
        return self

    def grid(self) -> np.ndarray:
        return np.linspace(self.start, self.stop, self.points)


def _x_params(cfg: SweepConfig, grid: np.ndarray) -> XStateParams:
    """The X parameters of the swept state at every grid value."""
    if cfg.mode == "nu":
        return bell_mixture(grid)
    if cfg.mode == "acceleration":
        return accelerated_params(cfg.nu, grid, grid if cfg.r_b == "track" else cfg.r_b)
    if cfg.mode == "ad-channel":
        state = bell_mixture(cfg.nu).validate()
        return damped_params(state, ad_survival(cfg.g_over_gamma, grid))
    if cfg.mode == "dephasing-channel":
        state = bell_mixture(cfg.nu).validate()
        return dephased_params(state, dephasing_coherence(cfg.g_over_gamma, grid))
    if cfg.mode == "swap":
        pair = bell_mixture(grid).validate()
        return swapped_params(pair, pair, cfg.bell)
    raise ConfigError(f"unknown mode {cfg.mode!r}")


def evaluate_grid(cfg: SweepConfig, grid) -> np.ndarray:
    """Rows (param, s, z, e_x, e_y, i_ab) of the sweep `cfg` at the values `grid`.

    One vectorised pass; every guard of the per-state path applies to each
    row and raises its error for the first failing one.
    """
    grid = np.asarray(grid, dtype=float)
    return np.column_stack([grid, x_report(_x_params(cfg, grid))])


def run_sweep(cfg: SweepConfig) -> list[SweepRecord]:
    """Evaluate the grid, write the CSV and its plot script, return the records.

    With jobs > 1 the grid goes to a process pool of at most one worker per
    CPU, since the pool starts all its workers up front, in one contiguous
    chunk per worker.  The CSV and its script are first written to a
    temporary directory beside the output and then renamed into place, CSV
    first; if either write fails, any earlier pair is left as it was.
    """
    cfg.validate()
    grid = cfg.grid()
    if cfg.jobs > 1:
        workers = min(cfg.jobs, os.cpu_count() or 1)
        chunks = np.array_split(grid, min(workers, grid.size))
        with ProcessPoolExecutor(max_workers=workers) as pool:
            table = np.concatenate(list(pool.map(partial(evaluate_grid, cfg), chunks)))
    else:
        table = evaluate_grid(cfg, grid)
    csv_path = Path(cfg.out)
    with tempfile.TemporaryDirectory(prefix=f".{csv_path.name}.", dir=csv_path.parent) as stage:
        staged_csv = write_csv(table, Path(stage) / csv_path.name)
        staged_script = emit_plot_script(staged_csv, cfg.mode)
        os.replace(staged_csv, csv_path)
        os.replace(staged_script, csv_path.with_suffix(".gnuplot"))
    return [SweepRecord(*row) for row in table.tolist()]


def _write_text(path: Path, text: str) -> None:
    """Write `text` to a temporary file beside `path`, then move it into place."""
    tmp = path.with_name(f".{path.name}.{os.getpid()}.tmp")
    try:
        with open(tmp, "w", encoding="utf-8", newline="") as fh:
            fh.write(text)
        os.replace(tmp, path)
    except BaseException:
        with contextlib.suppress(OSError):
            os.unlink(tmp)
        raise


def write_csv(records, path: Path | str) -> Path:
    """UTF-8 CSV with LF endings and 12-significant-digit scientific fields.

    `records` is a sequence of SweepRecord or an (n, 6) array of their
    fields in column order.  A non-finite value raises ValueError, naming
    the first such row, before anything is written.
    """
    path = Path(path)
    if not isinstance(records, np.ndarray):
        records = [(r.param, r.s, r.z, r.e_x, r.e_y, r.i_ab) for r in records]
    table = np.asarray(records, dtype=float).reshape(-1, 6)
    finite = np.isfinite(table).all(axis=1)
    if not finite.all():
        row = int(np.flatnonzero(~finite)[0])
        raise ValueError(f"non-finite sweep record in row {row}: {table[row].tolist()}")
    _write_text(path, CSV_HEADER + "\n" + _ROW_FORMAT * len(table) % tuple(table.ravel().tolist()))
    return path


def load_csv(path: Path | str) -> list[SweepRecord]:
    """Parse a CSV produced by write_csv back into records."""
    lines = Path(path).read_text(encoding="utf-8").splitlines()
    if not lines or lines[0] != CSV_HEADER:
        raise ConfigError(f"{path}: not a sweep CSV (bad header)")
    out = []
    for line in lines[1:]:
        param, s, z, e_x, e_y, i_ab = (float(tok) for tok in line.split(","))
        out.append(SweepRecord(param, s, z, e_x, e_y, i_ab))
    return out


def emit_plot_script(csv_path: Path | str, mode: str) -> Path:
    """Write a gnuplot script next to the CSV: S solid, Z dashed."""
    csv_path = Path(csv_path)
    if not csv_path.exists():
        raise FileNotFoundError(f"CSV not found: {csv_path}")
    if mode not in MODES:
        raise ConfigError(f"mode must be one of {MODES}, got {mode!r}")
    name = csv_path.name
    label = _SWEPT[mode][1]
    script = "\n".join(
        [
            f"# render with: gnuplot -persist {csv_path.stem}.gnuplot",
            "set datafile separator ','",
            f"set xlabel '{label}'",
            "set ylabel 'steering / squeezing'",
            "set yrange [-0.02:1.05]",
            "set key top right",
            f"plot '{name}' skip 1 using 1:2 with lines lw 2 dashtype 1 title 'S', \\",
            f"     '{name}' skip 1 using 1:3 with lines lw 2 dashtype 2 title 'Z'",
        ]
    ) + "\n"
    script_path = csv_path.with_suffix(".gnuplot")
    _write_text(script_path, script)
    return script_path


def figure_presets(outdir: Path | str) -> dict[str, SweepConfig]:
    """The bundled sweep configurations, one per standard curve set.

    Grid densities default to 201 points; gamma*t ranges are chosen so each
    run decays to its asymptote within the window.
    """
    outdir = Path(outdir)

    def cfg(name: str, **kw) -> SweepConfig:
        return SweepConfig(out=str(outdir / f"{name}.csv"), **kw)

    presets = {
        "mixture": cfg("mixture", mode="nu", start=0.0, stop=1.0, points=201),
        "accel-single": cfg(
            "accel-single", mode="acceleration", start=0.0, stop=R_MAX, points=201,
            nu=1.0, r_b=0.0,
        ),
        "accel-joint": cfg(
            "accel-joint", mode="acceleration", start=0.0, stop=R_MAX, points=201,
            nu=1.0, r_b="track",
        ),
        "ad-slow": cfg(
            "ad-slow", mode="ad-channel", start=0.0, stop=100.0, points=201,
            nu=1.0, g_over_gamma=0.01,
        ),
        "ad-fast": cfg(
            "ad-fast", mode="ad-channel", start=0.0, stop=30.0, points=201,
            nu=1.0, g_over_gamma=0.1,
        ),
        "ad-weak": cfg(
            "ad-weak", mode="ad-channel", start=0.0, stop=30.0, points=201,
            nu=0.1, g_over_gamma=0.1,
        ),
        "dephasing-slow": cfg(
            "dephasing-slow", mode="dephasing-channel", start=0.0, stop=60.0, points=201,
            nu=1.0, g_over_gamma=0.01,
        ),
        "dephasing-fast": cfg(
            "dephasing-fast", mode="dephasing-channel", start=0.0, stop=40.0, points=201,
            nu=1.0, g_over_gamma=0.1,
        ),
        "dephasing-weak": cfg(
            "dephasing-weak", mode="dephasing-channel", start=0.0, stop=40.0, points=201,
            nu=0.1, g_over_gamma=0.1,
        ),
        "swap": cfg(
            "swap", mode="swap", start=0.0, stop=1.0, points=201, bell=BellIndex.PSI_PLUS,
        ),
    }
    return presets
