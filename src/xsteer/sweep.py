"""Parameter sweeps producing CSV files and companion gnuplot scripts.

Five modes are supported, one per physical scenario:

* ``nu``                 - the Bell-mixture family versus its mixing parameter
* ``acceleration``       - accelerated Bell mixture versus r (r_b fixed or tracking r_a)
* ``ad-channel``         - amplitude damping on both qubits versus gamma*t
* ``dephasing-channel``  - pure dephasing on both qubits versus gamma*t
* ``swap``               - entanglement swapping of two identical pairs versus nu

Each grid point yields one record (param, s, z, e_x, e_y, i_ab).  Points are
independent; they may be evaluated in a process pool, and the emitted bytes
are identical for any worker count because results are collected in grid
order before anything is written.
"""

from __future__ import annotations

import math
import os
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from functools import partial
from pathlib import Path

import numpy as np

from .measures import full_report
from .processes import (
    accelerate,
    amplitude_damping_kraus,
    apply_local_channel,
    dephasing_kraus,
    swap_bell_mixtures,
)
from .qstate import DOMAINS, R_MAX, BellIndex, bell_mixture, from_x_params

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
_FIELD_FORMAT = "{:.12e}"


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

    def as_row(self) -> str:
        values = (self.param, self.s, self.z, self.e_x, self.e_y, self.i_ab)
        if not all(math.isfinite(v) for v in values):
            raise ValueError(f"non-finite sweep record: {self}")
        return ",".join(_FIELD_FORMAT.format(v) for v in values)


@dataclass(frozen=True)
class SweepConfig:
    """One sweep: the mode, the grid, the fixed parameters, the output path.

    `r_b` is either a float in [0, pi/4] or the string "track", meaning
    r_b follows the swept r_a.  `jobs` > 1 evaluates grid points in a
    process pool.
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


def evaluate_point(cfg: SweepConfig, param: float) -> SweepRecord:
    """The record of one grid point of the sweep `cfg`."""
    param = float(param)
    if cfg.mode == "nu":
        rho = from_x_params(bell_mixture(param))
    elif cfg.mode == "acceleration":
        rb = param if cfg.r_b == "track" else cfg.r_b
        rho = accelerate(cfg.nu, param, rb)
    elif cfg.mode in ("ad-channel", "dephasing-channel"):
        kraus = amplitude_damping_kraus if cfg.mode == "ad-channel" else dephasing_kraus
        ops = kraus(cfg.g_over_gamma, param)
        rho = apply_local_channel(from_x_params(bell_mixture(cfg.nu)), ops, ops)
    elif cfg.mode == "swap":
        rho = swap_bell_mixtures(param, cfg.bell)
    else:
        raise ConfigError(f"unknown mode {cfg.mode!r}")
    rep = full_report(rho)
    return SweepRecord(param=param, s=rep.s, z=rep.z, e_x=rep.e_x, e_y=rep.e_y, i_ab=rep.i_ab)


def run_sweep(cfg: SweepConfig) -> list[SweepRecord]:
    """Evaluate the grid, write the CSV and its plot script, return the records.

    With jobs > 1 the points go to a process pool of at most one worker per
    CPU, since the pool starts all its workers up front.
    """
    cfg.validate()
    point = partial(evaluate_point, cfg)
    if cfg.jobs > 1:
        with ProcessPoolExecutor(max_workers=min(cfg.jobs, os.cpu_count() or 1)) as pool:
            records = list(pool.map(point, cfg.grid(), chunksize=16))
    else:
        records = [point(p) for p in cfg.grid()]
    csv_path = Path(cfg.out)
    write_csv(records, csv_path)
    emit_plot_script(csv_path, cfg.mode)
    return records


def write_csv(records: list[SweepRecord], path: Path | str) -> Path:
    """UTF-8 CSV with LF endings and 12-significant-digit scientific fields."""
    path = Path(path)
    body = "\n".join([CSV_HEADER] + [r.as_row() for r in records]) + "\n"
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write(body)
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
    with open(script_path, "w", encoding="utf-8", newline="") as fh:
        fh.write(script)
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
