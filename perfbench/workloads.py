"""The three benchmark workloads: inputs from a seed, one unit call, its check.

A workload builds its inputs in `__init__` (that is what set-up time
measures), builds what its correctness check compares against in `prepare`,
and then runs unit calls. `run(unit)` is the timed call into xsteer;
`check(unit, output)` returns True when the output is correct. Every xsteer
function is looked up on the package at call time, so the tracer's wrappers
are the ones that run while it is installed.
"""

from __future__ import annotations

import dataclasses
import math
import os
import random
from pathlib import Path

import numpy as np

import oracle

R_MAX = math.pi / 4.0
# Default grid of each sweep mode, as the sweep CLI documents it.
MODE_GRIDS = {
    "nu": (0.0, 1.0),
    "acceleration": (0.0, R_MAX),
    "ad-channel": (0.0, 100.0),
    "dephasing-channel": (0.0, 40.0),
    "swap": (0.0, 1.0),
}
# A flip of the 13th printed CSV digit must pass the preset reference check.
REFERENCE_ATOL = 1e-12
REFERENCE_RTOL = 1e-12
# Seeded outputs against the independent evaluation in oracle.py.
ORACLE_ATOL = 1e-9
# accelerate against accelerate_oracle, elementwise.
ACCEL_ATOL = 1e-12


def nproc() -> int:
    return len(os.sched_getaffinity(0))


def _log_uniform(rng: np.random.Generator, lo: float, hi: float, size=None):
    return np.exp(rng.uniform(math.log(lo), math.log(hi), size))


def _rows(records) -> np.ndarray:
    return np.array([(r.param, r.s, r.z, r.e_x, r.e_y, r.i_ab) for r in records], dtype=float)


class SweepWorkload:
    """Unit call: one run_sweep; checked by reading its CSV back with load_csv."""

    def __init__(self, xs, configs) -> None:
        self.xs = xs
        self.configs = configs
        self.expected: dict[str, np.ndarray] = {}

    def pass_units(self):
        return list(self.configs)

    def count_units(self):
        return list(self.configs)

    def run(self, cfg):
        return self.xs.run_sweep(cfg)

    def kind(self, cfg) -> str:
        return Path(cfg.out).stem

    def points(self, cfg) -> int:
        return cfg.points

    def csv_bytes(self, cfg) -> int:
        return os.path.getsize(cfg.out)

    def check(self, cfg, output) -> bool:
        got = _rows(self.xs.load_csv(cfg.out))
        want = self.expected[cfg.out]
        return (
            len(output) == cfg.points
            and got.shape == want.shape
            and bool(np.all(np.isfinite(got)))
            and self._close(got, want)
        )


class Presets(SweepWorkload):
    """The 10 bundled figure presets at jobs=1, in a seeded order each pass."""

    name = "presets"

    def __init__(self, xs, seed: int, workdir: Path, smoke: bool) -> None:
        super().__init__(xs, list(xs.figure_presets(workdir).values()))
        self._order = random.Random(seed)

    def pass_units(self):
        order = list(self.configs)
        self._order.shuffle(order)
        return order

    def prepare(self, reference_dir: Path) -> None:
        for cfg in self.configs:
            ref = reference_dir / Path(cfg.out).name
            self.expected[cfg.out] = _rows(self.xs.load_csv(ref))

    @staticmethod
    def _close(got, want) -> bool:
        return bool(np.allclose(got, want, rtol=REFERENCE_RTOL, atol=REFERENCE_ATOL))


class GridParallel(SweepWorkload):
    """One fine-grid sweep per mode at jobs=nproc, fixed parameters from the seed."""

    name = "grid-parallel"

    def __init__(self, xs, seed: int, workdir: Path, smoke: bool) -> None:
        rng = np.random.default_rng(seed)
        points = 101 if smoke else 1001
        jobs = nproc()
        bells = list(xs.BellIndex)
        fixed = {
            "nu": {},
            "acceleration": {
                "nu": float(rng.uniform(0.0, 1.0)),
                "r_b": "track" if rng.random() < 0.5 else float(rng.uniform(0.0, R_MAX)),
            },
            "ad-channel": {
                "nu": float(rng.uniform(0.0, 1.0)),
                "g_over_gamma": float(_log_uniform(rng, 0.01, 1.9)),
            },
            "dephasing-channel": {
                "nu": float(rng.uniform(0.0, 1.0)),
                "g_over_gamma": float(_log_uniform(rng, 0.01, 10.0)),
            },
            "swap": {"bell": bells[int(rng.integers(len(bells)))]},
        }
        configs = []
        for mode, (start, stop) in MODE_GRIDS.items():
            configs.append(
                xs.SweepConfig(
                    mode=mode, start=start, stop=stop, points=points,
                    out=str(workdir / f"grid-{mode}.csv"), jobs=jobs, **fixed[mode],
                )
            )
        super().__init__(xs, configs)

    def count_units(self):
        # Pool workers are not traced, so the counted pass runs in-process.
        return self.with_jobs(1)

    def with_jobs(self, jobs: int):
        return [dataclasses.replace(cfg, jobs=jobs) for cfg in self.configs]

    def prepare(self, reference_dir: Path) -> None:
        for cfg in self.configs:
            grid = np.linspace(cfg.start, cfg.stop, cfg.points)
            self.expected[cfg.out] = np.column_stack([grid, self._evaluate(cfg, grid)])

    def _evaluate(self, cfg, grid: np.ndarray) -> np.ndarray:
        if cfg.mode == "nu":
            return oracle.x_report(*oracle.mixture(grid))
        if cfg.mode == "acceleration":
            rhos = np.array(
                [
                    self.xs.accelerate_oracle(cfg.nu, r, r if cfg.r_b == "track" else cfg.r_b)
                    for r in grid
                ]
            )
            return oracle.x_report(*oracle.x_parts(rhos))
        d, c14, c23 = oracle.mixture(np.full_like(grid, cfg.nu))
        if cfg.mode == "ad-channel":
            p = oracle.ad_survival(cfg.g_over_gamma, grid)
            return oracle.x_report(*oracle.damp_both(d, c14, c23, p))
        if cfg.mode == "dephasing-channel":
            f = oracle.dephasing_factor(cfg.g_over_gamma, grid)
            return oracle.x_report(d, f * f * c14, f * f * c23)
        pair = oracle.x_matrix(*oracle.mixture(grid))
        return oracle.density_report(oracle.swap(pair, pair, oracle.BELL_KETS[cfg.bell.value]))

    @staticmethod
    def _close(got, want) -> bool:
        params_ok = np.allclose(got[:, 0], want[:, 0], rtol=REFERENCE_RTOL, atol=REFERENCE_ATOL)
        return bool(params_ok and np.all(np.abs(got[:, 1:] - want[:, 1:]) <= ORACLE_ATOL))


class Library:
    """Seeded random X states through the public API, one state's chain per unit.

    Each chain: full_report on the X state and on a rotated (non-X) copy;
    amplitude damping on A with dephasing on B, then full_report; a Bell
    projection swap with a second seeded state, then full_report; and
    accelerate against accelerate_oracle.
    """

    name = "library"
    ROTATION = 0.7  # fixed R_y angle on qubit A that breaks the X pattern

    def __init__(self, xs, seed: int, workdir: Path, smoke: bool) -> None:
        self.xs = xs
        n = 32 if smoke else 1024
        rng = np.random.default_rng(seed)
        base = int(rng.integers(1 << 40))
        self.states = [xs.random_x_state(base + 2 * i) for i in range(n)]
        self.partners = [xs.random_x_state(base + 2 * i + 1) for i in range(n)]
        bells = list(xs.BellIndex)
        self.bells = [bells[k] for k in rng.integers(len(bells), size=n)]
        self.ad = np.column_stack(
            [_log_uniform(rng, 0.01, 1.9, n), rng.uniform(0.0, 30.0, n)]
        ).tolist()
        self.dephasing = np.column_stack(
            [_log_uniform(rng, 0.01, 10.0, n), rng.uniform(0.0, 40.0, n)]
        ).tolist()
        self.accel = np.column_stack(
            [rng.uniform(0.0, 1.0, n), rng.uniform(0.0, R_MAX, n), rng.uniform(0.0, R_MAX, n)]
        ).tolist()
        u = oracle.local_rotation_a(self.ROTATION)
        self.rotated = u @ oracle.x_matrix(*self._parts(self.states)) @ u.conj().T

    @staticmethod
    def _parts(params):
        a = np.array([(p.d1, p.d2, p.d3, p.d4, p.c14, p.c23) for p in params])
        return a[:, :4], a[:, 4], a[:, 5]

    def pass_units(self):
        return range(len(self.states))

    count_units = pass_units

    def kind(self, i) -> str:
        return "chain"

    def points(self, i) -> int:
        return 1

    def csv_bytes(self, i) -> int:
        return 0

    def run(self, i):
        xs = self.xs
        rho = xs.from_x_params(self.states[i])
        direct = xs.full_report(rho)
        rotated = xs.full_report(self.rotated[i])
        channel = xs.apply_local_channel(
            rho, xs.amplitude_damping_kraus(*self.ad[i]), xs.dephasing_kraus(*self.dephasing[i])
        )
        damped = xs.full_report(channel)
        partner = xs.from_x_params(self.partners[i])
        swapped = xs.full_report(xs.bell_project_swap(rho, partner, self.bells[i]))
        closed = xs.accelerate(*self.accel[i])
        brute = xs.accelerate_oracle(*self.accel[i])
        return (direct, rotated, damped, swapped), (closed, brute)

    def prepare(self, reference_dir: Path) -> None:
        d, c14, c23 = self._parts(self.states)
        ad = np.array(self.ad)
        dephasing = np.array(self.dephasing)
        p = oracle.ad_survival(ad[:, 0], ad[:, 1])
        f = oracle.dephasing_factor(dephasing[:, 0], dephasing[:, 1])
        kets = np.array([oracle.BELL_KETS[b.value] for b in self.bells])
        swapped = oracle.swap(
            oracle.x_matrix(d, c14, c23), oracle.x_matrix(*self._parts(self.partners)), kets
        )
        self.expected = np.stack(
            [
                oracle.x_report(d, c14, c23),
                oracle.density_report(self.rotated),
                oracle.x_report(*oracle.damp_a_dephase_b(d, c14, c23, p, f)),
                oracle.density_report(swapped),
            ],
            axis=1,
        )

    def check(self, i, output) -> bool:
        reports, (closed, brute) = output
        got = np.array([(r.s, r.z, r.e_x, r.e_y, r.i_ab) for r in reports])
        return bool(
            np.all(np.isfinite(got))
            and np.all(np.abs(got - self.expected[i]) <= ORACLE_ATOL)
            and np.max(np.abs(closed - brute)) <= ACCEL_ATOL
        )


WORKLOADS = {w.name: w for w in (Presets, GridParallel, Library)}
