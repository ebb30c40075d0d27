import dataclasses
import errno
import io
import json
import math
import os
import signal
import subprocess
import sys
import warnings
from fractions import Fraction
from itertools import product
from pathlib import Path

import numpy as np
import pytest
from conftest import _batch, _matrix_point

import xsteer.measures as measures
import xsteer.sweep as sweep
from xsteer.cli import EXIT_CONFIG, EXIT_INTERNAL, EXIT_IO, EXIT_OK, build_parser, main
from xsteer.processes import (
    ChannelParameterError,
    ZeroProbabilityOutcomeError,
    accelerated_params,
    ad_survival,
    dephasing_coherence,
)
from xsteer.qstate import (
    DOMAINS,
    R_MAX,
    BellIndex,
    InvalidStateError,
    XStateParams,
    bell_mixture,
)
from xsteer.sweep import (
    CSV_HEADER,
    MAX_POINTS,
    ConfigError,
    SweepConfig,
    evaluate_grid,
    figure_presets,
    load_csv,
    run_sweep,
    write_csv,
)


# Preset CSVs frozen before any numeric refactor; the benchmark checks against them too.
REFERENCE_DIR = Path(__file__).resolve().parents[1] / "perfbench" / "reference"


def _grid_records(cfg, grid) -> list[list[float]]:
    return evaluate_grid(cfg, grid).tolist()


def _cfg(tmp_path, **kw):
    base = dict(mode="nu", start=0.0, stop=1.0, points=11, out=str(tmp_path / "out.csv"))
    base.update(kw)
    return SweepConfig(**base)


# ---------------------------------------------------------------------------
# configuration validation
# ---------------------------------------------------------------------------

@pytest.mark.parametrize(
    "kw, fragment",
    [
        (dict(mode="bogus"), "mode"),
        (dict(points=1), "points"),
        (dict(start=0.7, stop=0.2), "start < stop"),
        (dict(out=""), "out"),
        (dict(jobs=0), "jobs"),
        (dict(mode="nu", start=-0.2, stop=0.5), "inside"),
        (dict(mode="acceleration", start=0.0, stop=2.0), "pi/4"),
        (dict(mode="acceleration", start=0.0, stop=0.5, r_b="sideways"), "track"),
        (dict(mode="acceleration", start=0.0, stop=0.5, r_b=3.0), "r_b"),
        (dict(mode="ad-channel", start=0.0, stop=10.0, nu=1.5), "nu"),
        (dict(mode="ad-channel", start=0.0, stop=10.0, g_over_gamma=2.5), "g/gamma"),
        (dict(mode="dephasing-channel", start=0.0, stop=10.0, g_over_gamma=-1.0), "g/gamma"),
        (dict(mode="swap", bell="psi"), "bell"),
        (dict(mode="acceleration", start=0.0, stop=math.nextafter(math.pi / 4, 1)), "pi/4"),
        (dict(mode="ad-channel", start=0.0, stop=math.inf), "inside"),
        (dict(mode="dephasing-channel", start=0.0, stop=10.0, g_over_gamma=math.inf), "g/gamma"),
        (dict(points=MAX_POINTS + 1), "points"),
        (dict(out="fig.gnuplot"), "gnuplot"),
        (dict(points=5.5), "points"),
        (dict(points=True), "points"),
        (dict(jobs=1.5), "jobs"),
        (dict(jobs=True), "jobs"),
        (dict(start="0"), "start"),
        (dict(stop=1j), "stop"),
        (dict(nu="x"), "nu"),
        (dict(g_over_gamma="x"), "g_over_gamma"),
        (dict(mode="ad-channel", start=0.0, stop=10.0, nu=True), "nu"),
        (dict(mode="acceleration", start=0.0, stop=0.5, r_b=0.1j), "r_b"),
        (dict(out=123), "out"),
        (dict(out="x\0.csv"), "NUL"),
        # an int or Fraction is compared exactly, but no float holds these
        (dict(mode="ad-channel", start=0, stop=10**400), "stop is too large for a float"),
        (dict(mode="ad-channel", start=-10**400, stop=1.0), "start is too large for a float"),
        (dict(stop=Fraction(10**400, 3)), "stop is too large for a float"),
        (dict(mode="ad-channel", start=0.0, stop=10.0, nu=10**400), "nu is too large for a float"),
        (dict(mode="dephasing-channel", start=0.0, stop=10.0, g_over_gamma=10**400),
         "g_over_gamma is too large for a float"),
        # the type rules hold in every mode, r_b's too
        (dict(mode="nu", r_b="sideways"), "track"),
    ],
)
def test_config_validation_reports_offending_field(tmp_path, kw, fragment):
    # run_sweep refuses each before it writes anything: validate the types and
    # the grid's domain, the closed forms the fixed parameters' domains
    with pytest.raises((ConfigError, InvalidStateError, ChannelParameterError), match=fragment):
        run_sweep(_cfg(tmp_path, **kw))
    assert not list(tmp_path.iterdir())


@pytest.mark.parametrize(
    "kw",
    [
        dict(mode="acceleration", r_b=np.float32(0.1)),
        dict(mode="acceleration", nu=np.float16(0.3)),
        dict(mode="dephasing-channel", nu=np.float16(0.3)),
        dict(mode="acceleration", r_b=Fraction(1, 10)),
        dict(mode="ad-channel", g_over_gamma=np.float32(0.1)),
    ],
    ids=["r_b-float32", "nu-float16", "nu-float16-dephasing", "r_b-Fraction", "g-float32"],
)
def test_fixed_parameters_compute_as_their_float(tmp_path, kw):
    # a fixed parameter of another numeric type writes the bytes of its float(),
    # as the grid's ends do
    grid = dict(start=0.0, stop=0.5, points=7)
    run_sweep(SweepConfig(out=str(tmp_path / "typed.csv"), **grid, **kw))
    as_float = {k: v if k == "mode" else float(v) for k, v in kw.items()}
    run_sweep(SweepConfig(out=str(tmp_path / "float.csv"), **grid, **as_float))
    assert (tmp_path / "typed.csv").read_bytes() == (tmp_path / "float.csv").read_bytes()


# Each fixed parameter outside its domain, the closed form that refuses it and
# its message, which the CLI prints after "sweep: invalid config: ".
_CLOSED_FORM_REFUSALS = [
    ("acceleration", "r_b", 3.0, InvalidStateError, "r_b must lie in [0, pi/4], got 3.0"),
    ("acceleration", "nu", 1.5, InvalidStateError,
     "mixing parameter nu must lie in [0, 1], got 1.5"),
    ("ad-channel", "nu", 1.5, InvalidStateError,
     "mixing parameter nu must lie in [0, 1], got 1.5"),
    ("ad-channel", "g_over_gamma", 2.5, ChannelParameterError,
     "g/gamma must lie in (0, 2), got 2.5"),
    ("dephasing-channel", "g_over_gamma", -1.0, ChannelParameterError,
     "g/gamma must lie in (0, inf), got -1.0"),
    ("dephasing-channel", "g_over_gamma", math.inf, ChannelParameterError,
     "g/gamma must lie in (0, inf), got inf"),
    ("dephasing-channel", "nu", math.nan, InvalidStateError,
     "mixing parameter nu must lie in [0, 1], got nan"),
]
_FLAGS = {"nu": "--nu", "r_b": "--rb", "g_over_gamma": "--g-over-gamma"}


@pytest.mark.parametrize(
    "mode, field, value, error, message", _CLOSED_FORM_REFUSALS,
    ids=[f"{mode}-{field}={value}" for mode, field, value, *_ in _CLOSED_FORM_REFUSALS],
)
@pytest.mark.parametrize("jobs", [1, 2])
def test_closed_forms_own_the_fixed_parameters_domains(
    tmp_path, capsys, jobs, mode, field, value, error, message
):
    # validate accepts the config; the closed form refuses it on the first
    # block, in a pool worker too, and nothing is written
    start, stop, _ = sweep._SWEPT[mode][2]
    cfg = _cfg(tmp_path, mode=mode, start=start, stop=stop, jobs=jobs, **{field: value})
    cfg.validate()
    with pytest.raises(error) as refused:
        run_sweep(cfg)
    assert str(refused.value) == message
    assert not list(tmp_path.iterdir())
    argv = ["--mode", mode, _FLAGS[field], str(value), "--jobs", str(jobs), "--out", cfg.out]
    assert main(argv) == EXIT_CONFIG
    assert capsys.readouterr().err == f"sweep: invalid config: {message}\n"
    assert not list(tmp_path.iterdir())


# Python prints no int of more than 4,300 digits, and no float holds 10**5000.
_HUGE = 10**5000


@pytest.mark.parametrize(
    "call, error, field",
    [
        (lambda out: SweepConfig("nu", 0, 1, _HUGE, out).validate(), ConfigError, "points"),
        (lambda out: SweepConfig("nu", 0, 1, -_HUGE, out).validate(), ConfigError, "points"),
        (lambda out: SweepConfig("nu", 0, 1, 3, out, jobs=-_HUGE).validate(), ConfigError, "jobs"),
        (lambda out: SweepConfig("acceleration", 0, 0.5, 3, out, r_b=_HUGE).validate(),
         ConfigError, "r_b"),
        (lambda out: SweepConfig("nu", Fraction(_HUGE + 1, _HUGE // 10), 1, 3, out).validate(),
         ConfigError, "start < stop"),
        (lambda out: bell_mixture(_HUGE), InvalidStateError, "nu"),
        (lambda out: accelerated_params(0.5, _HUGE, 0.1), InvalidStateError, "r_a"),
        (lambda out: ad_survival(0.1, _HUGE), ChannelParameterError, "gamma\\*t"),
        (lambda out: ad_survival(_HUGE, 1.0), ChannelParameterError, "g/gamma"),
        (lambda out: dephasing_coherence(0.1, -_HUGE), ChannelParameterError, "gamma\\*t"),
    ],
    ids=[
        "points", "negative-points", "jobs", "r_b", "fraction-start",
        "bell_mixture", "accelerated_params", "ad_survival-time", "ad_survival-rate",
        "dephasing_coherence",
    ],
)
def test_ints_past_the_digit_limit_get_their_domain_error(tmp_path, call, error, field):
    # the message names the field and writes the value in a few characters,
    # where formatting the int itself raises Python's int-to-str ValueError
    with pytest.raises(error, match=field) as raised:
        call(str(tmp_path / "x.csv"))
    assert len(str(raised.value)) < 100


def test_out_that_is_not_utf8_is_rejected_before_any_write(tmp_path):
    # os.fsdecode turns the byte 0xff of a file name into the lone surrogate
    # U+DCFF, which the plot script, written in UTF-8, could not name
    with pytest.raises(ConfigError, match="out must be valid UTF-8"):
        run_sweep(_cfg(tmp_path, out=str(tmp_path / "\udcff.csv")))
    assert not list(tmp_path.iterdir())


@pytest.mark.parametrize(
    "kw",
    [
        dict(mode="ad-channel", start=0, stop=10**400),
        dict(mode="dephasing-channel", start=0.0, stop=10.0, g_over_gamma=10**400),
        dict(out="."),
        dict(out=Path("/")),
        dict(out="//"),
    ],
)
def test_run_sweep_refuses_before_any_work(tmp_path, monkeypatch, kw):
    # an overflowing field would raise OverflowError in grid() or in
    # dephasing_coherence, and an empty name would fail only once the whole
    # grid was evaluated: validate refuses both with a ConfigError first
    monkeypatch.chdir(tmp_path)

    def refused(*args):
        raise AssertionError("evaluated")

    monkeypatch.setattr(sweep, "evaluate_grid", refused)
    with pytest.raises(ConfigError):
        run_sweep(_cfg(tmp_path, **kw))
    assert not list(tmp_path.iterdir())


def test_valid_configs_pass(tmp_path):
    _cfg(tmp_path).validate()
    _cfg(tmp_path, mode="acceleration", start=0.0, stop=math.pi / 4, r_b="track").validate()
    _cfg(tmp_path, mode="swap", bell=BellIndex.PHI_MINUS).validate()


def test_evaluate_grid_rejects_an_unknown_mode_of_an_unvalidated_config(tmp_path):
    cfg = _cfg(tmp_path, mode="bogus")
    with pytest.raises(ConfigError, match="^unknown mode 'bogus'$"):
        evaluate_grid(cfg, cfg.grid())


# ---------------------------------------------------------------------------
# sweep content
# ---------------------------------------------------------------------------

def test_nu_sweep_endpoint_rows(tmp_path):
    cfg = _cfg(tmp_path, points=101)
    records = run_sweep(cfg)
    assert len(records) == 101
    assert abs(records[0].s - 1.0) < 1e-9
    assert abs(records[0].z - 1.0) < 1e-9
    first_row = (tmp_path / "out.csv").read_text().splitlines()[1]
    fields = first_row.split(",")
    assert fields[1] == "1.000000000000e+00"
    assert fields[2] == "1.000000000000e+00"


def test_acceleration_sweep_starts_at_one(tmp_path):
    cfg = _cfg(
        tmp_path, mode="acceleration", start=0.0, stop=math.pi / 4, points=50,
        nu=1.0, r_b=0.0,
    )
    records = run_sweep(cfg)
    assert abs(records[0].s - 1.0) < 1e-9


def test_swap_sweep_midpoint_is_zero(tmp_path):
    cfg = _cfg(tmp_path, mode="swap", points=11)  # grid includes 0.5
    records = run_sweep(cfg)
    mid = records[5]
    assert mid.param == 0.5
    assert mid.s == 0.0
    row = (tmp_path / "out.csv").read_text().splitlines()[6]
    assert row.split(",")[1] == "0.000000000000e+00"


def test_rows_are_in_ascending_param_order(tmp_path):
    records = run_sweep(_cfg(tmp_path, points=21))
    params = [r.param for r in records]
    assert params == sorted(params)


def test_evaluate_point_tracks_rb(tmp_path):
    cfg = _cfg(tmp_path, mode="acceleration", start=0.0, stop=math.pi / 4, r_b="track")
    [rec_track] = _grid_records(cfg, [0.6])
    cfg_fixed = _cfg(tmp_path, mode="acceleration", start=0.0, stop=math.pi / 4, r_b=0.6)
    [rec_fixed] = _grid_records(cfg_fixed, [0.6])
    assert rec_track == rec_fixed


def _random_configs(tmp_path, mode: str, rng: np.random.Generator) -> list[SweepConfig]:
    """Seeded sweeps of one mode; channel rates log-uniform, with both ends."""
    out = str(tmp_path / "x.csv")
    if mode == "nu":
        return [SweepConfig(mode, 0.0, 1.0, 2, out)]
    if mode == "swap":
        return [SweepConfig(mode, 0.0, 1.0, 2, out, bell=b) for b in BellIndex]
    if mode == "acceleration":
        return [
            SweepConfig(mode, 0.0, R_MAX, 2, out, nu=float(nu), r_b="track" if k % 3 == 0 else rb)
            for k, (nu, rb) in enumerate(zip(rng.uniform(0, 1, 6), rng.uniform(0, R_MAX, 6)))
        ]
    hi = 2.0 if mode == "ad-channel" else 1e3
    ratios = [1e-300, 1e-12, math.nextafter(hi, 0) if mode == "ad-channel" else 1e3, 1.999]
    ratios += list(np.exp(rng.uniform(math.log(1e-9), math.log(hi), 4)))
    return [
        SweepConfig(mode, 0.0, 100.0, 2, out, nu=float(rng.uniform(0, 1)), g_over_gamma=r)
        for r in ratios
    ]


@pytest.mark.parametrize("mode", sweep.MODES)
def test_batched_engine_matches_matrix_oracle(tmp_path, mode):
    # every mode (swap: all four Bell outcomes) at seeded random grid values,
    # against the 4x4 and 16x16 matrix path point by point
    rng = np.random.default_rng(sweep.MODES.index(mode))
    domain = DOMAINS[sweep._SWEPT[mode][0]]
    for cfg in _random_configs(tmp_path, mode, rng):
        hi = 100.0 if math.isinf(domain.hi) else domain.hi
        grid = np.concatenate([[domain.lo, hi], rng.uniform(domain.lo, hi, 30)])
        got = evaluate_grid(cfg, grid)
        want = np.array([_matrix_point(cfg, x) for x in grid])
        np.testing.assert_array_equal(got[:, 0], grid)
        np.testing.assert_allclose(got[:, 1:], want[:, 1:], rtol=0, atol=1e-12, err_msg=str(cfg))


def test_chunked_evaluation_is_bit_identical(tmp_path):
    # what the pool does for any worker count, without starting one
    for cfg in figure_presets(tmp_path).values():
        whole = evaluate_grid(cfg, cfg.grid())
        for k in (2, 3, 7, 64):
            chunks = np.array_split(cfg.grid(), k)
            parts = np.concatenate([evaluate_grid(cfg, c) for c in chunks])
            assert parts.tobytes() == whole.tobytes(), (cfg.out, k)
    # three evaluation blocks, the last of 3 rows: chunks that cross the block
    # edges and one unblocked x_report pass give the same bits in every mode
    points = 2 * sweep._BLOCK_ROWS + 3
    for mode, (_, _, (start, stop, _)) in sweep._SWEPT.items():
        cfg = SweepConfig(mode, start, stop, points, str(tmp_path / "x.csv"))
        whole = evaluate_grid(cfg, cfg.grid())
        unblocked = measures.x_report(sweep._x_params(cfg, cfg.grid()))
        assert whole[:, 1:].tobytes() == unblocked.tobytes(), mode
        chunks = np.array_split(cfg.grid(), 3)
        parts = np.concatenate([evaluate_grid(cfg, c) for c in chunks])
        assert parts.tobytes() == whole.tobytes(), mode


# ---------------------------------------------------------------------------
# the per-row guards, each fired from run_sweep
# ---------------------------------------------------------------------------

def _run_with_params(tmp_path, monkeypatch, rows, **kw):
    """run_sweep over len(rows) points whose X parameters are `rows`."""
    monkeypatch.setattr(sweep, "_x_params", lambda cfg, grid: _batch(rows))
    return run_sweep(_cfg(tmp_path, points=len(rows), **kw))


_PSI = XStateParams(0.5, 0.0, 0.0, 0.5, 0.5, 0.0)
_MIXED = XStateParams(0.25, 0.25, 0.25, 0.25, 0.0, 0.0)


def test_guard_domain_fires_for_first_bad_grid_value(tmp_path, monkeypatch):
    monkeypatch.setattr(SweepConfig, "grid", lambda self: np.array([0.5, 1.5, 2.5]))
    with pytest.raises(InvalidStateError, match="got 1.5"):
        run_sweep(_cfg(tmp_path, points=3))
    monkeypatch.setattr(SweepConfig, "grid", lambda self: np.array([0.0, -1.0, math.nan]))
    with pytest.raises(ChannelParameterError, match="got -1.0"):
        run_sweep(_cfg(tmp_path, mode="ad-channel", start=0.0, stop=1.0, points=3))
    assert not list(tmp_path.iterdir())


@pytest.mark.parametrize(
    "bad, fragment",
    [
        ((0.5, 0.25, 0.25, 1e-9, 0.0, 0.0), "unit trace"),
        ((0.0005, 0.4995, 0.4995, 0.0005, math.sqrt(0.0005**2 + 5e-13), 0.0), "min eigenvalue"),
        ((0.5, 0.0, 0.0, 0.5, 0.5 + 2e-10, 0.0), "c14\\^2"),
        ((0.25, 0.25, 0.25, 0.25, 0.0, 0.25 + 2e-10), "c23\\^2"),
    ],
)
def test_guard_state_checks_fire_per_row(tmp_path, monkeypatch, bad, fragment):
    # validate's trace check, then its block rule: the floor on the smaller
    # eigenvalue, in the outer and the inner block just past it
    with pytest.raises(InvalidStateError, match=fragment):
        _run_with_params(tmp_path, monkeypatch, [_PSI, _MIXED, XStateParams(*bad), _MIXED])
    assert not list(tmp_path.iterdir())


def test_guard_negative_probability_floor(tmp_path, monkeypatch):
    # 1 - t = -2e-13: g clamps |t| to 1, so the row reads as psi+
    tiny = XStateParams(0.5, 0.0, 0.0, 0.5, 0.5 + 1e-13, 0.0)
    rows = _run_with_params(tmp_path, monkeypatch, [_MIXED, tiny, _PSI])
    assert abs(rows[1].s - rows[2].s) < 1e-12 and abs(rows[1].z - rows[2].z) < 1e-12


def test_guard_swap_weight_floor(tmp_path, monkeypatch):
    ground = _batch([XStateParams(1.0, 0.0, 0.0, 0.0, 0.0, 0.0)] * 3)
    monkeypatch.setattr(sweep, "bell_mixture", lambda nu: ground)
    with pytest.raises(ZeroProbabilityOutcomeError, match="phi"):
        run_sweep(_cfg(tmp_path, mode="swap", points=3, bell=BellIndex.PHI_PLUS))
    assert not list(tmp_path.iterdir())


def test_guard_non_finite_rows(tmp_path, monkeypatch):
    def with_nan(cfg, grid):
        table = np.zeros((len(grid), 6))
        table[1, 2] = math.nan
        return table

    monkeypatch.setattr(sweep, "evaluate_grid", with_nan)
    with pytest.raises(ValueError, match="non-finite sweep record in row 1"):
        run_sweep(_cfg(tmp_path, points=3))
    assert not list(tmp_path.iterdir())


@pytest.mark.parametrize(
    "bad, error",
    [
        ((0.5, 0.25, 0.25, 1e-9, 0.0, 0.0), InvalidStateError),
        ((0.5, 0.0, 0.0, 0.5, 0.5 + 2e-10, 0.0), InvalidStateError),
    ],
)
def test_guard_fires_for_one_bad_row_past_the_first_block(tmp_path, monkeypatch, bad, error):
    # one bad row in the second evaluation block raises what it raises alone
    points, row = 2 * sweep._BLOCK_ROWS, sweep._BLOCK_ROWS + 1
    params = np.tile([0.25, 0.25, 0.25, 0.25, 0.0, 0.0], (points, 1))
    params[row] = bad
    with pytest.raises(error) as alone:
        measures.x_report(XStateParams(*params[row:row + 1].T))
    monkeypatch.setattr(SweepConfig, "grid", lambda self: np.arange(float(points)))
    monkeypatch.setattr(
        sweep, "_x_params", lambda cfg, grid: XStateParams(*params[grid.astype(int)].T)
    )
    with pytest.raises(error) as swept:
        run_sweep(_cfg(tmp_path, points=points))
    assert str(swept.value) == str(alone.value)
    assert not list(tmp_path.iterdir())


def test_each_state_is_validated_once(tmp_path, monkeypatch):
    # one check of the swept batch per sweep; swap also checks its input pair,
    # once, since it swaps the pair with itself
    calls = []
    validate = XStateParams.validate

    def counted(self, *args, **kwargs):
        calls.append(self)
        return validate(self, *args, **kwargs)

    monkeypatch.setattr(XStateParams, "validate", counted)
    expected = {"nu": 1, "acceleration": 1, "ad-channel": 1, "dephasing-channel": 1, "swap": 2}
    for mode, count in expected.items():
        calls.clear()
        stop = R_MAX if mode == "acceleration" else 1.0
        run_sweep(_cfg(tmp_path, mode=mode, start=0.0, stop=stop, points=5))
        assert len(calls) == count, mode


# ---------------------------------------------------------------------------
# CSV format, determinism, round trip
# ---------------------------------------------------------------------------

def test_csv_header_and_line_endings(tmp_path):
    run_sweep(_cfg(tmp_path, points=5))
    data = (tmp_path / "out.csv").read_bytes()
    assert data.startswith(CSV_HEADER.encode("utf-8") + b"\n")
    assert b"\r" not in data
    assert data.endswith(b"\n")


def test_csv_byte_determinism_sequential(tmp_path):
    cfg_a = _cfg(tmp_path, out=str(tmp_path / "a.csv"), points=41)
    cfg_b = _cfg(tmp_path, out=str(tmp_path / "b.csv"), points=41)
    run_sweep(cfg_a)
    run_sweep(cfg_b)
    assert (tmp_path / "a.csv").read_bytes() == (tmp_path / "b.csv").read_bytes()


def test_csv_byte_determinism_parallel(tmp_path):
    cfg_a = _cfg(tmp_path, out=str(tmp_path / "seq.csv"), points=41, jobs=1)
    cfg_b = _cfg(tmp_path, out=str(tmp_path / "par.csv"), points=41, jobs=4)
    run_sweep(cfg_a)
    run_sweep(cfg_b)
    assert (tmp_path / "seq.csv").read_bytes() == (tmp_path / "par.csv").read_bytes()


def test_pool_size_is_capped_at_cpu_count(tmp_path, monkeypatch):
    import xsteer.sweep as sweep

    sizes = []

    class InProcessPool:
        def __init__(self, max_workers):
            sizes.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, items, chunksize=1):
            return map(fn, items)

    monkeypatch.setattr(sweep, "ProcessPoolExecutor", InProcessPool)
    run_sweep(_cfg(tmp_path, out=str(tmp_path / "seq.csv"), points=9))
    run_sweep(_cfg(tmp_path, out=str(tmp_path / "par.csv"), points=9, jobs=10**6))
    assert sizes == [os.cpu_count() or 1]
    assert (tmp_path / "seq.csv").read_bytes() == (tmp_path / "par.csv").read_bytes()


def test_csv_round_trip_at_printed_precision(tmp_path):
    records = run_sweep(_cfg(tmp_path, points=17))
    loaded = load_csv(tmp_path / "out.csv")
    assert len(loaded) == len(records)
    for got, ref in zip(loaded, records):
        for name in ("param", "s", "z", "e_x", "e_y", "i_ab"):
            assert getattr(got, name) == float("{:.12e}".format(getattr(ref, name)))


def test_sweep_records_are_read_only(tmp_path):
    records = run_sweep(_cfg(tmp_path, points=5))
    assert records.dtype.names == tuple(CSV_HEADER.split(","))
    for row in (records, load_csv(tmp_path / "out.csv")):
        with pytest.raises(ValueError, match="read-only"):
            row.s[0] = 0.5
        with pytest.raises(ValueError, match="read-only"):
            row[1] = (0.0,) * 6


def test_write_csv_rejects_other_shapes(tmp_path):
    other_records = np.zeros(2, dtype=[(name, float) for name in "abcdef"])
    for table in (np.zeros((3, 4)), np.zeros(12), np.zeros(3, dtype=[("s", float)]), other_records):
        with pytest.raises(ValueError, match=r"\(n, 6\) table"):
            write_csv(table, tmp_path / "bad.csv")
    assert not list(tmp_path.iterdir())


def test_write_csv_takes_records(tmp_path):
    records = run_sweep(_cfg(tmp_path, points=17))
    written = (tmp_path / "out.csv").read_bytes()
    assert write_csv(records, tmp_path / "a.csv").read_bytes() == written
    assert write_csv(load_csv(tmp_path / "out.csv"), tmp_path / "b.csv").read_bytes() == written
    header, *lines = written.decode().splitlines(keepends=True)
    assert write_csv(records[::2], tmp_path / "c.csv").read_text() == header + "".join(lines[::2])


def test_non_finite_record_names_its_row_in_the_whole_table(tmp_path):
    row = sweep._BLOCK_ROWS + 3
    table = np.zeros((row + 10, 6))
    table[row, 4] = math.inf
    with pytest.raises(sweep.NonFiniteRecordError, match=rf"non-finite sweep record in row {row}: "):
        write_csv(table, tmp_path / "inf.csv")
    assert not list(tmp_path.iterdir())


def test_header_only_csv_loads_as_empty_records(tmp_path):
    path = write_csv(np.empty((0, 6)), tmp_path / "empty.csv")
    assert path.read_text() == CSV_HEADER + "\n"
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        rows = load_csv(path)
    assert rows.shape == (0,)
    assert rows.dtype.names == tuple(CSV_HEADER.split(","))


def test_load_csv_rejects_foreign_file(tmp_path):
    path = tmp_path / "junk.csv"
    path.write_text("time,value\n0,1\n")
    with pytest.raises(ConfigError, match="header"):
        load_csv(path)


def test_csv_row_template_matches_format_spec(tmp_path):
    rng = np.random.default_rng(3)
    powers = np.array([float(f"1e{e}") for e in range(-99, 100)])
    # odd t / 2**s with 14 significant digits, the last a 5: exact decimal ties
    s = rng.integers(1, 14, 6000)
    low = 2**s * 10 ** (13 - s)
    ties = (rng.integers(low, 10 * low) | 1) / 2.0**s
    mantissas = rng.integers(10**12, 10**13, 6000) + 0.5
    non_negative = np.concatenate([
        rng.integers(1, 10**7, 32000) / 10.0 ** rng.integers(0, 17, 32000),
        np.linspace(0.0, 1.0, 4001),
        np.linspace(0.0, 40.0, 4001),
        np.concatenate([powers * (1.0 + k * 2.0**-52) for k in range(-4, 5)]),
        ties,
        mantissas * 10.0,
        mantissas * 10.0 ** rng.integers(-12, 0, 6000),
        10.0 ** rng.uniform(-99.0, 100.0, 42000),
        [9.9999999999995, 9.99999999999949, 0.0, 1.5e98, 9.87e-98, 4.2e99, 6.1e-99, 1 / 3],
    ])
    non_negative = rng.permutation(np.resize(non_negative, (len(non_negative) // 6 * 6,)))
    big = non_negative.reshape(-1, 6)
    assert len(big) > sweep._BLOCK_ROWS and non_negative.size > 10**5
    # negatives, -0.0 and 3-digit exponents send their block through _ROW_FORMAT whole
    special = np.concatenate([
        [0.0, -0.0, 1.0, -1.0, 5e-324, 1e-310, 1e308, 0.1, 2.5e-13, -7.5e98],
        [1e100, 9.99999999999951e99, 3.3e-100, 1e-100, 2.0e-99, -4.2e-99],
        rng.normal(size=38) * 10.0 ** rng.integers(-300, 300, 38),
    ]).reshape(-1, 6)
    tables = [big, np.concatenate([big, special]), special, big[:1], big[:0]]
    for i, table in enumerate(tables):
        path = write_csv(table, tmp_path / f"t{i}.csv")
        expected = [",".join("{:.12e}".format(v) for v in row) for row in table.tolist()]
        assert path.read_text().splitlines()[1:] == expected


def test_write_csv_significant_digits(tmp_path):
    rec = (1 / 3, 0.123456789012345, 0.0, 0.5, 0.25, 2.0)
    path = write_csv([rec], tmp_path / "one.csv")
    row = path.read_text().splitlines()[1]
    assert row.split(",")[0] == "3.333333333333e-01"
    assert row.split(",")[1] == "1.234567890123e-01"


# ---------------------------------------------------------------------------
# plot scripts
# ---------------------------------------------------------------------------

def test_plot_script_labels_and_determinism(tmp_path):
    run_sweep(_cfg(tmp_path, points=5))
    script = (tmp_path / "out.gnuplot").read_text(encoding="utf-8")
    assert "set xlabel 'ν'" in script
    assert "title 'S'" in script and "title 'Z'" in script
    assert "dashtype 1" in script and "dashtype 2" in script
    assert "out.csv" in script
    run_sweep(_cfg(tmp_path, points=5))
    assert (tmp_path / "out.gnuplot").read_text(encoding="utf-8") == script


def test_plot_script_quotes_csv_name(tmp_path):
    run_sweep(_cfg(tmp_path, points=3, out=str(tmp_path / "it's.csv")))
    # gnuplot reads '' inside a single-quoted string as one '
    plot, more = (tmp_path / "it's.gnuplot").read_text(encoding="utf-8").splitlines()[-2:]
    assert plot.startswith("plot 'it''s.csv' skip 1 using 1:2 ")
    assert more.startswith("     'it''s.csv' skip 1 using 1:3 ")


def test_plot_script_channel_axis_label(tmp_path):
    cfg = _cfg(tmp_path, mode="ad-channel", start=0.0, stop=5.0, points=4)
    run_sweep(cfg)
    script = (tmp_path / "out.gnuplot").read_text(encoding="utf-8")
    assert "set xlabel 'γt'" in script


@pytest.mark.parametrize(
    "out", ["a.csv/", "b.", "./c.csv", "d//e.csv", ".csv", "noext", "x.csv.", Path("p/q.csv")],
)
def test_out_writes_the_pair_pathlib_names(tmp_path, monkeypatch, out):
    # pathlib is the oracle: Path(out) and Path(out).with_suffix(".gnuplot"),
    # and the script names both by their file names
    monkeypatch.chdir(tmp_path)
    for sub in ("d", "p"):
        (tmp_path / sub).mkdir()
    csv, plot = Path(out), Path(out).with_suffix(".gnuplot")
    run_sweep(_cfg(tmp_path, points=3, out=out))
    written = sorted(str(p.relative_to(tmp_path)) for p in tmp_path.rglob("*") if p.is_file())
    assert written == sorted([str(csv), str(plot)])
    script = plot.read_text(encoding="utf-8").splitlines()
    assert script[0] == f"# render with: gnuplot -persist {plot.name}"
    assert script[-1].startswith(f"     '{csv.name}' skip 1 ")
    assert len(load_csv(csv)) == 3


def test_output_names_spell_paths_as_pathlib_does():
    # every string of up to 6 characters over "a", ".", "/" and a run of
    # random longer ones: the CSV path, plot path and name pathlib gives,
    # and ConfigError where pathlib's name is empty
    alphabet = "a./"
    spellings = ["".join(chars) for n in range(1, 7) for chars in product(alphabet, repeat=n)]
    rng = np.random.default_rng(25)
    spellings += ["".join(rng.choice(list("ab.c/"), size=rng.integers(1, 16))) for _ in range(2000)]
    empty = 0
    for out in spellings:
        path = Path(out)
        if not path.name:
            with pytest.raises(ConfigError, match="out must name a file"):
                sweep._output_names(out)
            empty += 1
            continue
        plot = str(path.with_suffix(".gnuplot"))
        assert sweep._output_names(out) == (str(path), plot, path.name), out
    assert empty > 10


def test_grid_is_linspace_byte_for_byte():
    # spans from denormal (linspace divides before it scales) to 1e300,
    # float and int ends, either order
    rng = np.random.default_rng(2025)
    for _ in range(20_000):
        points = int(rng.choice([2, 3, 201, int(rng.integers(2, 5000))]))
        kind = rng.integers(4)
        if kind == 0:
            start = float(rng.choice([0.0, -0.0, 5e-324, -1e-310]))
            stop = start + float(rng.integers(1, 2000)) * 5e-324
        elif kind == 1:
            start, stop = (int(v) for v in rng.integers(-10**6, 10**6, size=2))
        else:
            scale = 10.0 ** rng.uniform(-300, 300)
            start, stop = rng.normal(size=2) * scale
            if kind == 3:
                start = 0.0
        got = SweepConfig("nu", start, stop, points, "g.csv").grid()
        want = np.linspace(start, stop, points)
        assert got.dtype == want.dtype == np.float64
        assert got.tobytes() == want.tobytes(), (start, stop, points)


def test_grid_ends_are_read_as_floats():
    # np.float32 and Fraction ends give the grid of their float() values
    for start, stop in [(np.float32(0.1), np.float32(0.7)), (Fraction(1, 3), Fraction(2, 3))]:
        got = SweepConfig("nu", start, stop, 7, "g.csv").grid()
        want = np.linspace(float(start), float(stop), 7)
        assert got.dtype == np.float64 and got.tobytes() == want.tobytes()


def test_run_sweep_builds_no_path_and_calls_no_linspace(tmp_path, monkeypatch):
    def refused(*args, **kwargs):
        raise AssertionError("called")

    monkeypatch.setattr(sweep, "Path", refused)
    monkeypatch.setattr(np, "linspace", refused)
    run_sweep(_cfg(tmp_path, points=5))
    monkeypatch.undo()
    assert len(load_csv(tmp_path / "out.csv")) == 5
    assert (tmp_path / "out.gnuplot").is_file()


def test_failed_plot_script_leaves_no_output(tmp_path, monkeypatch):
    fresh, kept = tmp_path / "fresh", tmp_path / "kept"
    fresh.mkdir()
    kept.mkdir()
    # an acceleration sweep's script (x label r) differs from the nu sweep's
    # below, so both of the kept pair would be replaced
    run_sweep(_cfg(kept, mode="acceleration", start=0.0, stop=0.5, points=5))
    before = {p.name: p.read_bytes() for p in kept.iterdir()}
    assert sorted(before) == ["out.csv", "out.gnuplot"]
    opened = []
    os_open = sweep.os.open

    def script_disk_full(path, flags, *args, **kwargs):
        if Path(path).name.startswith(".out.gnuplot."):
            raise OSError("disk full")
        if flags & (os.O_WRONLY | os.O_RDWR):  # not the old files' read-only opens
            opened.append(Path(path))
        return os_open(path, flags, *args, **kwargs)

    monkeypatch.setattr(sweep.os, "open", script_disk_full)
    for outdir in (fresh, kept):
        with pytest.raises(OSError, match="disk full"):
            run_sweep(_cfg(outdir, points=9))
        out = str(outdir / "out.csv")
        assert main(["--mode", "nu", "--grid", "0:1:9", "--out", out]) == EXIT_IO
    assert [p.name for p in opened] == [f".out.csv.{os.getpid()}.tmp"] * 4
    assert not any(p.exists() for p in opened)
    assert not list(fresh.iterdir())
    assert {p.name: p.read_bytes() for p in kept.iterdir()} == before


def test_failed_write_leaves_no_partial_file(tmp_path, monkeypatch):
    run_sweep(_cfg(tmp_path, points=5))
    before = {p.name: p.read_bytes() for p in tmp_path.iterdir()}

    def broken(src, dst):
        raise OSError("rename failed")

    monkeypatch.setattr(sweep.os, "replace", broken)
    with pytest.raises(OSError, match="rename failed"):
        run_sweep(_cfg(tmp_path, points=9))
    assert {p.name: p.read_bytes() for p in tmp_path.iterdir()} == before


def test_failure_while_streaming_the_csv_leaves_no_output(tmp_path, monkeypatch):
    # a block that fails to render after the temporary CSV is open
    run_sweep(_cfg(tmp_path, points=5))
    before = {p.name: p.read_bytes() for p in tmp_path.iterdir()}

    def unrenderable(block):
        raise RuntimeError("render failed")

    monkeypatch.setattr(sweep, "_block_bytes", unrenderable)
    with pytest.raises(RuntimeError, match="render failed"):
        run_sweep(_cfg(tmp_path, points=9))
    assert {p.name: p.read_bytes() for p in tmp_path.iterdir()} == before


@pytest.mark.parametrize("name", ["out.gnuplot", "out.csv"])
def test_directory_target_fails_before_any_write(tmp_path, name):
    # a directory where the CSV or its plot script goes: exit 3 with the old
    # pair's other file and the directory as they were, and no temporaries
    run_sweep(_cfg(tmp_path, points=5))
    (tmp_path / name).unlink()
    (tmp_path / name).mkdir()

    def snapshot():
        return {p.name: p.read_bytes() if p.is_file() else None for p in tmp_path.iterdir()}

    before = snapshot()
    out = str(tmp_path / "out.csv")
    assert main(["--mode", "nu", "--grid", "0:1:9", "--out", out]) == EXIT_IO
    with pytest.raises(IsADirectoryError, match=name):
        run_sweep(_cfg(tmp_path, points=9))
    assert snapshot() == before


def test_short_writes_are_resumed(tmp_path, monkeypatch):
    whole = run_sweep(_cfg(tmp_path, out=str(tmp_path / "whole.csv"), points=41))
    write = sweep.os.write
    monkeypatch.setattr(sweep.os, "write", lambda fd, data: write(fd, bytes(data)[:1000]))
    short = run_sweep(_cfg(tmp_path, out=str(tmp_path / "short.csv"), points=41))
    assert short.tobytes() == whole.tobytes()
    assert (tmp_path / "short.csv").read_bytes() == (tmp_path / "whole.csv").read_bytes()
    script = (tmp_path / "short.gnuplot").read_text()
    assert script == (tmp_path / "whole.gnuplot").read_text().replace("whole", "short")


def _record_renames(monkeypatch) -> list:
    renamed = []
    replace = sweep.os.replace
    monkeypatch.setattr(
        sweep.os, "replace", lambda src, dst: renamed.append(Path(dst).name) or replace(src, dst)
    )
    return renamed


def _identity(path: Path) -> tuple:
    st = path.stat()
    return st.st_ino, st.st_mtime_ns, st.st_mode, path.read_bytes()


def test_sweep_publishes_pair_with_two_renames(tmp_path, monkeypatch):
    renamed, made = _record_renames(monkeypatch), []
    mkdir = sweep.os.mkdir
    monkeypatch.setattr(sweep.os, "mkdir", lambda *a, **kw: made.append(a) or mkdir(*a, **kw))
    run_sweep(_cfg(tmp_path, points=5))
    assert renamed == ["out.csv", "out.gnuplot"] and not made
    assert sorted(p.name for p in tmp_path.iterdir()) == ["out.csv", "out.gnuplot"]


def test_identical_rerun_leaves_the_pair_in_place(tmp_path, monkeypatch):
    run_sweep(_cfg(tmp_path, points=9))
    (tmp_path / "out.csv").chmod(0o600)
    pair = [tmp_path / "out.csv", tmp_path / "out.gnuplot"]
    before = [_identity(p) for p in pair]
    renamed = _record_renames(monkeypatch)
    run_sweep(_cfg(tmp_path, points=9))
    assert renamed == []
    assert [_identity(p) for p in pair] == before
    assert sorted(p.name for p in tmp_path.iterdir()) == ["out.csv", "out.gnuplot"]


def test_rerun_replaces_only_the_file_that_changed(tmp_path, monkeypatch):
    run_sweep(_cfg(tmp_path, points=5))
    script = _identity(tmp_path / "out.gnuplot")
    renamed = _record_renames(monkeypatch)
    run_sweep(_cfg(tmp_path, points=9))
    assert renamed == ["out.csv"]
    assert _identity(tmp_path / "out.gnuplot") == script
    assert len(load_csv(tmp_path / "out.csv")) == 9


def test_rewrite_differing_in_the_last_block_gives_fresh_bytes(tmp_path):
    table = np.random.default_rng(19).random((sweep._BLOCK_ROWS + 3, 6))
    old = table.copy()
    old[-1, 2] = 0.5
    path = write_csv(old, tmp_path / "t.csv")
    fresh = write_csv(table, tmp_path / "fresh.csv").read_bytes()
    assert path.read_bytes() != fresh
    assert write_csv(table, path).read_bytes() == fresh


@pytest.mark.parametrize("edit", ["one byte more", "the last row less"])
def test_old_file_one_byte_or_one_row_off_is_replaced(tmp_path, monkeypatch, edit):
    table = np.random.default_rng(20).random((4, 6))
    fresh = write_csv(table, tmp_path / "fresh.csv").read_bytes()
    if edit == "one byte more":
        old = fresh + b"\n"
    else:
        old = fresh[:fresh.rindex(b"\n", 0, -1) + 1]
        assert len(old.splitlines()) == len(fresh.splitlines()) - 1
    path = tmp_path / "t.csv"
    path.write_bytes(old)
    renamed = _record_renames(monkeypatch)
    assert write_csv(table, path).read_bytes() == fresh
    assert renamed == ["t.csv"]


def test_old_file_is_read_one_block_at_a_time_and_no_further(tmp_path, monkeypatch):
    table = np.random.default_rng(22).random((sweep._BLOCK_ROWS + 3, 6))
    path = write_csv(table, tmp_path / "t.csv")
    first = len(CSV_HEADER) + 1 + memoryview(sweep._block_bytes(table[:sweep._BLOCK_ROWS])).nbytes
    reads = []
    readv = sweep.os.readv
    monkeypatch.setattr(
        sweep.os, "readv", lambda fd, buffers: reads.append(len(buffers[0])) or readv(fd, buffers)
    )
    renamed = _record_renames(monkeypatch)
    # the header joins the first block, and the old file's size ends the
    # comparison: no read past its last byte
    write_csv(table, path)
    assert reads == [first, path.stat().st_size - first] and renamed == []
    # an old file shorter than the first chunk is never read
    path.write_bytes(b"param\n")
    reads.clear()
    write_csv(table, path)
    assert reads == [] and renamed == ["t.csv"]


def test_symlink_to_identical_bytes_is_replaced_by_a_file(tmp_path):
    table = np.random.default_rng(21).random((4, 6))
    target = write_csv(table, tmp_path / "target.csv")
    kept = _identity(target)
    link = tmp_path / "link.csv"
    link.symlink_to(target)
    write_csv(table, link)
    assert not link.is_symlink() and link.read_bytes() == target.read_bytes()
    assert _identity(target) == kept


@pytest.mark.parametrize("kind", ["symlink", "file"])
@pytest.mark.parametrize("name", ["out.csv", "out.gnuplot"])
def test_entry_at_a_temporary_path_is_left_alone(tmp_path, capsys, name, kind):
    # a planted link at a predictable temporary name must not redirect the
    # write, and a file already there is not shared or taken over
    victim = tmp_path / "victim.txt"
    victim.write_bytes(b"keep me\n")
    planted = tmp_path / f".{name}.{os.getpid()}.tmp"
    if kind == "symlink":
        planted.symlink_to(victim)
    else:
        planted.write_bytes(b"another writer\n")
    before = {p.name: (p.is_symlink(), p.read_bytes()) for p in tmp_path.iterdir()}
    cfg = _cfg(tmp_path, out=str(tmp_path / "out.csv"))
    with pytest.raises(FileExistsError):
        run_sweep(cfg)
    assert main(["--mode", "nu", "--grid", "0:1:11", "--out", cfg.out]) == EXIT_IO
    err = capsys.readouterr().err
    assert err.startswith("sweep: I/O failure: ") and err.count("\n") == 1
    assert {p.name: (p.is_symlink(), p.read_bytes()) for p in tmp_path.iterdir()} == before
    if kind == "symlink":
        assert os.readlink(planted) == str(victim)


@pytest.mark.parametrize(
    "flags",
    [
        ["--mode", "dephasing-channel", "--g-over-gamma", "10"],
        ["--mode", "ad-channel", "--g-over-gamma", "1.5"],
    ],
    ids=["dephasing", "ad"],
)
def test_cli_sweep_to_the_largest_times_prints_no_warning(tmp_path, flags):
    # g/gamma * gamma*t overflows past 1.7e308 / (g/gamma): the factor is 0, silently
    import xsteer

    env = dict(os.environ, PYTHONPATH=str(Path(xsteer.__file__).parents[1]))
    out = tmp_path / "x.csv"
    proc = subprocess.run(
        [sys.executable, "-m", "xsteer", *flags, "--grid", "0:1.7e308:5", "--out", str(out)],
        capture_output=True, text=True, env=env, timeout=60,
    )
    assert proc.returncode == EXIT_OK and proc.stderr == ""
    assert np.isfinite(load_csv(out).tolist()).all()


@pytest.mark.parametrize("fed", [False, True])
def test_fifo_at_the_output_path_is_replaced_without_blocking(tmp_path, fed):
    table = np.zeros((2, 6))
    fresh = write_csv(table, tmp_path / "fresh.csv").read_bytes()
    path = tmp_path / "fifo.csv"
    os.mkfifo(path)
    # with no writer, a blocking open would wait for one; fed, a writer holds
    # the new bytes in the pipe, so the FIFO reads as them
    ends = []
    if fed:
        ends = [os.open(path, os.O_RDONLY | os.O_NONBLOCK), os.open(path, os.O_WRONLY)]
        os.write(ends[1], fresh)

    def stuck(signum, frame):
        raise RuntimeError("blocked on the FIFO")  # not an OSError, which opens may absorb

    handler = signal.signal(signal.SIGALRM, stuck)
    signal.alarm(5)
    try:
        write_csv(table, path)
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, handler)
        for fd in ends:
            os.close(fd)
    assert path.is_file() and path.read_bytes() == fresh


def test_render_failure_after_a_matching_prefix_keeps_the_pair(tmp_path, monkeypatch):
    # the rerun matches the old CSV through its first block, then fails
    cfg = _cfg(tmp_path, points=sweep._BLOCK_ROWS + 5)
    run_sweep(cfg)
    pair = [tmp_path / "out.csv", tmp_path / "out.gnuplot"]
    before = [_identity(p) for p in pair]
    rendered = []
    block_bytes = sweep._block_bytes

    def second_block_fails(block):
        rendered.append(len(block))
        if len(rendered) == 2:
            raise RuntimeError("render failed")
        return block_bytes(block)

    monkeypatch.setattr(sweep, "_block_bytes", second_block_fails)
    with pytest.raises(RuntimeError, match="render failed"):
        run_sweep(cfg)
    assert rendered == [sweep._BLOCK_ROWS, 5]
    assert [_identity(p) for p in pair] == before
    assert sorted(p.name for p in tmp_path.iterdir()) == ["out.csv", "out.gnuplot"]


def test_identical_rerun_creates_no_file(tmp_path, monkeypatch):
    run_sweep(_cfg(tmp_path, points=9))
    calls = []
    os_open, unlink, replace = sweep.os.open, sweep.os.unlink, sweep.os.replace

    def opened(path, flags, *args, **kwargs):
        if flags & (os.O_WRONLY | os.O_RDWR | os.O_CREAT):
            calls.append(("open", Path(path).name))
        return os_open(path, flags, *args, **kwargs)

    monkeypatch.setattr(sweep.os, "open", opened)
    monkeypatch.setattr(sweep.os, "unlink", lambda p: calls.append(("unlink", p)) or unlink(p))
    monkeypatch.setattr(
        sweep.os, "replace", lambda src, dst: calls.append(("replace", Path(dst).name))
        or replace(src, dst)
    )
    run_sweep(_cfg(tmp_path, points=9))
    assert calls == []
    # a rerun that changes only the CSV creates and renames that one temporary
    run_sweep(_cfg(tmp_path, points=5))
    assert calls == [("open", f".out.csv.{os.getpid()}.tmp"), ("replace", "out.csv")]


def test_entry_at_a_temporary_path_fails_only_a_run_that_writes_that_file(tmp_path, capsys):
    cfg = _cfg(tmp_path)
    run_sweep(cfg)
    planted = tmp_path / f".out.csv.{os.getpid()}.tmp"
    planted.write_bytes(b"another writer\n")
    before = {p.name: _identity(p) for p in tmp_path.iterdir()}
    assert main(["--mode", "nu", "--grid", "0:1:11", "--out", cfg.out]) == EXIT_OK
    assert capsys.readouterr().err == ""
    assert {p.name: _identity(p) for p in tmp_path.iterdir()} == before
    with pytest.raises(FileExistsError):
        run_sweep(_cfg(tmp_path, points=9))
    assert {p.name: _identity(p) for p in tmp_path.iterdir()} == before


@pytest.mark.parametrize("stem", ["a" * 241, "é" * 120], ids=["ascii", "two-byte"])
def test_temporary_of_a_long_name_fits_in_255_bytes(tmp_path, monkeypatch, stem):
    # with a 7-digit pid, ".<name>.<pid>.tmp" of the 245- or 244-byte CSV name
    # and of its plot script's name would pass 255 bytes: each loses as few
    # leading characters as fit, and the two keep their distinct tails
    monkeypatch.setattr(sweep.os, "getpid", lambda: 4_194_303)
    created = []
    os_open = sweep.os.open

    def opened(path, flags, *args, **kwargs):
        if flags & os.O_CREAT:
            created.append(Path(path).name)
        return os_open(path, flags, *args, **kwargs)

    monkeypatch.setattr(sweep.os, "open", opened)
    cfg = _cfg(tmp_path, out=str(tmp_path / f"{stem}.csv"), points=3)
    run_sweep(cfg)
    assert sorted(p.name for p in tmp_path.iterdir()) == [f"{stem}.csv", f"{stem}.gnuplot"]
    assert len(load_csv(cfg.out)) == 3
    csv_tmp, plot_tmp = created
    assert csv_tmp.endswith(".csv.4194303.tmp") and plot_tmp.endswith(".gnuplot.4194303.tmp")
    assert all(name.startswith(f".{stem[:3]}") for name in created)
    assert all(254 <= len(os.fsencode(name)) <= 255 for name in created)
    # an identical rerun creates nothing
    created.clear()
    run_sweep(cfg)
    assert created == []
    assert sorted(p.name for p in tmp_path.iterdir()) == [f"{stem}.csv", f"{stem}.gnuplot"]


def _record_blocks(monkeypatch) -> list:
    """Record the row count of each block that _block_bytes renders."""
    rendered = []
    block_bytes = sweep._block_bytes
    monkeypatch.setattr(
        sweep, "_block_bytes", lambda block: rendered.append(len(block)) or block_bytes(block)
    )
    return rendered


def test_changed_last_block_renders_the_file_again(tmp_path, monkeypatch):
    rows = sweep._BLOCK_ROWS
    table = np.random.default_rng(23).random((2 * rows + 3, 6))
    old = table.copy()
    old[-1, 2] = 0.5
    path = write_csv(old, tmp_path / "t.csv")
    fresh = write_csv(table, tmp_path / "fresh.csv").read_bytes()
    first = len(CSV_HEADER) + 1 + memoryview(sweep._block_bytes(table[:rows])).nbytes
    reads = []
    readv = sweep.os.readv
    monkeypatch.setattr(
        sweep.os, "readv", lambda fd, buffers: reads.append(len(buffers[0])) or readv(fd, buffers)
    )
    renamed, rendered = _record_renames(monkeypatch), _record_blocks(monkeypatch)
    assert write_csv(table, path).read_bytes() == fresh
    assert renamed == ["t.csv"]
    # each comparison reads at most one chunk; the two blocks that matched
    # are spent, so they are rendered again, and the last is written as it is
    assert max(reads) <= first
    assert rendered == [rows, rows, 3, rows, rows]


@pytest.mark.parametrize("blocks", [[201], [sweep._BLOCK_ROWS, sweep._BLOCK_ROWS, 3]])
def test_changed_rerun_of_a_one_chunk_csv_renders_each_block_once(tmp_path, monkeypatch, blocks):
    # the old CSV is one chunk, and the new first chunk differs from it or
    # runs past it: nothing matched, so nothing is rendered twice
    path = write_csv(np.zeros((201, 6)), tmp_path / "t.csv")
    table = np.random.default_rng(25).random((sum(blocks), 6))
    fresh = write_csv(table, tmp_path / "fresh.csv").read_bytes()
    rendered = _record_blocks(monkeypatch)
    assert write_csv(table, path).read_bytes() == fresh
    assert rendered == blocks


@pytest.mark.parametrize("change", ["one byte edited in place", "truncated"])
def test_old_file_changed_while_compared_gets_only_rendered_bytes(tmp_path, monkeypatch, change):
    # another writer changes the old CSV once its first two blocks have
    # matched; what is published is the rendering, whatever the old file holds
    rows = sweep._BLOCK_ROWS
    table = np.random.default_rng(24).random((2 * rows + 3, 6))
    old = table.copy()
    old[-1, 2] = 0.5
    path = write_csv(old, tmp_path / "t.csv")
    fresh = write_csv(table, tmp_path / "fresh.csv").read_bytes()
    compared = []
    holds = sweep._holds

    def meddled(fd, view):
        compared.append(holds(fd, view))
        if compared == [True, True]:
            if change == "truncated":
                os.truncate(path, 100)
            else:
                with open(path, "r+b") as fh:
                    fh.seek(100)  # in the first row, which already matched
                    fh.write(b"#")
        return compared[-1]

    monkeypatch.setattr(sweep, "_holds", meddled)
    assert write_csv(table, path).read_bytes() == fresh
    assert compared == [True, True, False]


def test_render_failure_while_rendering_again_keeps_the_pair(tmp_path, monkeypatch):
    # the rerun matches the old CSV through its first block and differs in
    # its last, then fails while rendering the first block again
    cfg = _cfg(tmp_path, points=sweep._BLOCK_ROWS + 5)
    run_sweep(cfg)
    pair = [tmp_path / "out.csv", tmp_path / "out.gnuplot"]
    with open(pair[0], "r+b") as fh:
        fh.seek(-2, os.SEEK_END)
        fh.write(b"#")
    before = [_identity(p) for p in pair]
    tmp = tmp_path / f".out.csv.{os.getpid()}.tmp"
    rendered, existed = [], []
    block_bytes = sweep._block_bytes

    def second_rendering_fails(block):
        rendered.append(len(block))
        if len(rendered) == 3:  # the first block of the second rendering
            existed.append(tmp.exists())
            raise RuntimeError("render failed")
        return block_bytes(block)

    monkeypatch.setattr(sweep, "_block_bytes", second_rendering_fails)
    with pytest.raises(RuntimeError, match="render failed"):
        run_sweep(cfg)
    assert rendered == [sweep._BLOCK_ROWS, 5, sweep._BLOCK_ROWS] and existed == [True]
    assert [_identity(p) for p in pair] == before
    assert sorted(p.name for p in tmp_path.iterdir()) == ["out.csv", "out.gnuplot"]


def test_unreadable_directory_target_fails_before_any_write(tmp_path, monkeypatch):
    # a directory that cannot be opened is still found before anything is written
    run_sweep(_cfg(tmp_path, points=5))
    (tmp_path / "out.gnuplot").unlink()
    (tmp_path / "out.gnuplot").mkdir()
    before = {p.name: p.read_bytes() if p.is_file() else None for p in tmp_path.iterdir()}
    os_open = sweep.os.open

    def unreadable(path, flags, *args, **kwargs):
        if Path(path).name == "out.gnuplot":
            raise PermissionError(errno.EACCES, os.strerror(errno.EACCES), str(path))
        return os_open(path, flags, *args, **kwargs)

    monkeypatch.setattr(sweep.os, "open", unreadable)
    with pytest.raises(IsADirectoryError, match="out.gnuplot"):
        run_sweep(_cfg(tmp_path, points=9))
    assert {p.name: p.read_bytes() if p.is_file() else None for p in tmp_path.iterdir()} == before


def test_identical_rerun_into_a_read_only_directory_succeeds(tmp_path):
    outdir = tmp_path / "ro"
    outdir.mkdir()
    out = str(outdir / "out.csv")
    assert main(["--mode", "nu", "--grid", "0:1:11", "--out", out]) == EXIT_OK
    pair = [outdir / "out.csv", outdir / "out.gnuplot"]
    before = [_identity(p) for p in pair]
    outdir.chmod(0o555)
    try:
        if os.access(outdir, os.W_OK):
            pytest.skip("this process may write a directory without write permission")
        assert main(["--mode", "nu", "--grid", "0:1:11", "--out", out]) == EXIT_OK
        assert [_identity(p) for p in pair] == before
        assert main(["--mode", "nu", "--grid", "0:1:9", "--out", out]) == EXIT_IO
        assert [_identity(p) for p in pair] == before
    finally:
        outdir.chmod(0o755)


def test_presets_cover_every_mode(tmp_path):
    presets = figure_presets(tmp_path)
    assert len(presets) == 10
    modes = {cfg.mode for cfg in presets.values()}
    assert modes == {"nu", "acceleration", "ad-channel", "dephasing-channel", "swap"}
    for cfg in presets.values():
        cfg.validate()


def test_presets_match_reference_csvs(tmp_path):
    # values, not bytes: a refactor may flip the 13th printed digit
    presets = figure_presets(tmp_path)
    assert set(presets) == {path.stem for path in REFERENCE_DIR.glob("*.csv")}
    for name, cfg in presets.items():
        run_sweep(cfg)
        got = load_csv(cfg.out).tolist()
        want = load_csv(REFERENCE_DIR / f"{name}.csv").tolist()
        np.testing.assert_allclose(got, want, rtol=1e-12, atol=1e-12, err_msg=name)


# ---------------------------------------------------------------------------
# CLI
# ---------------------------------------------------------------------------

def test_cli_nu_sweep(tmp_path, capsys):
    out = tmp_path / "fig.csv"
    code = main(["--mode", "nu", "--grid", "0:1:11", "--out", str(out)])
    assert code == EXIT_OK
    assert out.exists()
    assert (tmp_path / "fig.gnuplot").exists()
    assert "11 rows" in capsys.readouterr().out


def test_cli_uses_mode_default_grid(tmp_path):
    out = tmp_path / "fig.csv"
    assert main(["--mode", "swap", "--out", str(out)]) == EXIT_OK
    assert len(load_csv(out)) == 201


def test_cli_rejects_unknown_mode(tmp_path, capsys):
    out = tmp_path / "x.csv"
    assert main(["--mode", "sideways", "--out", str(out)]) == EXIT_CONFIG
    err = capsys.readouterr().err
    assert err.startswith("sweep: invalid config: mode must be one of") and err.count("\n") == 1
    assert not out.exists()


@pytest.mark.parametrize(
    "command, code",
    [
        ("--mode dephasing-channel --g-over-gamma -1e-3 --out {out}", EXIT_CONFIG),
        ("--mode nu --grid -0.0:1:3 --out {out}", EXIT_OK),
        ("--mode nu --nu abc --out {out}", EXIT_CONFIG),
        ("--mode sideways --out {out}", EXIT_CONFIG),
        ("--mode swap --bell chi --out {out}", EXIT_CONFIG),
        ("--mode nu --jobs 1.5 --out {out}", EXIT_CONFIG),
        ("--mode nu --out {out} --bogus 1", EXIT_CONFIG),
        ("--mode nu --out {out} --g 0.1", EXIT_CONFIG),  # --grid or --g-over-gamma
        ("--mode acceleration --nu -1e-3 --out {out}", EXIT_CONFIG),
        ("--mode acceleration --rb -1e-3 --out {out}", EXIT_CONFIG),
        ("--mode ad-channel --nu -5e-324 --out {out}", EXIT_CONFIG),
        ("--mode nu --nu -5e-324 --grid 0:1:3 --out {out}", EXIT_OK),  # nu is unused here
    ],
)
def test_cli_flag_values_and_rejections(tmp_path, capsys, command, code):
    # a value starting with "-" reaches its flag, and argparse's own rejections
    # print the same one line as every other invalid configuration
    out = tmp_path / "x.csv"
    assert main([str(out) if word == "{out}" else word for word in command.split()]) == code
    err = capsys.readouterr().err
    if code == EXIT_OK:
        assert err == "" and len(load_csv(out)) == 3
    else:
        assert err.startswith("sweep: invalid config: ") and err.count("\n") == 1, err
        assert not out.exists()


def test_cli_help_exits_0_with_usage_on_stdout(capsys):
    # main returns the code, as for a sweep, rather than raising SystemExit
    assert main(["--help"]) == EXIT_OK
    out, err = capsys.readouterr()
    assert out == build_parser().format_help() and out.startswith("usage: sweep") and err == ""
    unwrapped = "".join(out.split())  # argparse wraps lines after a "-"
    for name in [*sweep.MODES, *(b.value for b in BellIndex)]:
        assert name in unwrapped


def test_cli_help_names_the_defaults_a_sweep_config_takes():
    # each flag's help states the value SweepConfig gives its field when the
    # flag is left out, a Bell outcome by its flag value
    import xsteer.cli as cli

    cfg = SweepConfig("nu", 0.0, 1.0, 2, "x.csv")
    defaulted = {f.name for f in dataclasses.fields(cfg) if f.default is not dataclasses.MISSING}
    helps = {action.dest: action.help for action in build_parser()._actions}
    named = []
    for key, setting in cli._SETTINGS.items():
        if setting.field in defaulted:
            value = getattr(cfg, setting.field)
            assert f"(default {getattr(value, 'value', value)})" in helps[key], key
            named.append(key)
    assert named == ["bell", "nu", "rb", "g_over_gamma", "jobs"]


@pytest.mark.parametrize(
    "argv, fragment",
    [
        (["--config", "latin1.json"], "config: latin1.json is not UTF-8"),
        (["--config", "deep.json"], "config: deep.json nests too deep"),
        (["--config", "cut.json"], "config: cut.json is not valid JSON"),
        (["--config", "long-int.json"], "config: long-int.json is not valid JSON"),
        (["--config", "list.json"], "config: list.json must hold a JSON object"),
        (["--config", "nul.json"], "out must not hold a NUL byte"),
        (["--mode", "nu", "--out", "x\0.csv"], "out must not hold a NUL byte"),
        (["--config", "sweep\0.json"], "config: cannot read sweep\0.json"),
        (["--mode", "nu", "--out", "\udcff.csv"], "out must be valid UTF-8"),
        (["--config", "surrogate.json"], "out must be valid UTF-8"),
        (
            ["--mode", "nu", "--grid", "0:1:3", "--out", 'a\nsystem "touch pwned"\n#.csv'],
            "out must not hold a line break",
        ),
    ],
    ids=[
        "not-utf8", "too-deep", "not-json", "int-past-digit-limit", "not-an-object",
        "nul-in-config-out",
        "nul-in-out-flag", "nul-in-config-path",
        "non-utf8-out-flag", "non-utf8-config-out", "newline-in-out-flag",
    ],
)
def test_cli_rejects_unreadable_config_and_nul_paths(tmp_path, monkeypatch, capsys, argv, fragment):
    monkeypatch.chdir(tmp_path)
    files = {
        "latin1.json": b"\xff",
        "deep.json": b"[" * 100_000,
        "cut.json": b'{"mode": "nu",',
        "long-int.json": b'{"mode": "nu", "grid": [0, 1, 1' + b"0" * 5000 + b"]}",
        "list.json": b"[1, 2]",
        "nul.json": b'{"mode": "nu", "grid": "0:1:3", "out": "x\\u0000.csv"}',
        "surrogate.json": b'{"mode": "nu", "grid": "0:1:3", "out": "\\udcff.csv"}',
    }
    for name, data in files.items():
        (tmp_path / name).write_bytes(data)
    assert main(argv) == EXIT_CONFIG
    err = capsys.readouterr().err
    assert err.startswith(f"sweep: invalid config: {fragment}") and err.count("\n") == 1, err
    assert sorted(p.name for p in tmp_path.iterdir()) == sorted(files)


def test_cli_invalid_grid_is_config_error(tmp_path, capsys):
    code = main(["--mode", "nu", "--grid", "0:1", "--out", str(tmp_path / "x.csv")])
    assert code == EXIT_CONFIG
    assert "invalid config" in capsys.readouterr().err


def test_cli_rejects_out_of_domain_values_without_traceback(tmp_path):
    import xsteer

    env = dict(os.environ, PYTHONPATH=str(Path(xsteer.__file__).parents[1]))
    for flags in (
        ["--mode", "acceleration", "--grid", "0:0.7853981633974484:3"],
        ["--mode", "ad-channel", "--grid", "0:inf:3"],
        ["--mode", "dephasing-channel", "--g-over-gamma", "inf"],
    ):
        proc = subprocess.run(
            [sys.executable, "-m", "xsteer", *flags, "--out", str(tmp_path / "x.csv")],
            capture_output=True, text=True, env=env, timeout=60,
        )
        assert proc.returncode == EXIT_CONFIG, proc.stderr
        assert proc.stderr.startswith("sweep: invalid config:")
        assert proc.stderr.count("\n") == 1 and "Traceback" not in proc.stderr
    assert not (tmp_path / "x.csv").exists()


def test_cli_caps_grid_points_before_building_a_grid(tmp_path, monkeypatch, capsys):
    def no_grid(self):
        raise AssertionError("grid built for an oversized sweep")

    monkeypatch.setattr(SweepConfig, "grid", no_grid)
    out = tmp_path / "x.csv"
    conf = tmp_path / "sweep.json"
    conf.write_text(json.dumps({"mode": "nu", "grid": "0:1:2000000000", "out": str(out)}))
    for argv in (
        ["--mode", "nu", "--grid", "0:1:2000000000", "--out", str(out)],
        ["--config", str(conf)],
    ):
        assert main(argv) == EXIT_CONFIG
        err = capsys.readouterr().err
        assert err.startswith("sweep: invalid config: points must lie in [2, 1000000]")
        assert err.count("\n") == 1
    assert not out.exists()


def test_cli_non_finite_record_is_internal_failure(tmp_path, monkeypatch, capsys):
    def with_nan(cfg, grid):
        table = np.zeros((len(grid), 6))
        table[1, 2] = math.nan
        return table

    monkeypatch.setattr(sweep, "evaluate_grid", with_nan)
    out = str(tmp_path / "x.csv")
    assert main(["--mode", "nu", "--grid", "0:1:3", "--out", out]) == EXIT_INTERNAL
    err = capsys.readouterr().err
    assert err.startswith("sweep: internal consistency failure: non-finite sweep record in row 1")
    assert err.count("\n") == 1 and "Traceback" not in err
    assert not list(tmp_path.iterdir())


def test_cli_rejects_out_named_like_the_plot_script(tmp_path, capsys):
    # the CSV's own .gnuplot path would be both files of the pair
    assert main(["--mode", "nu", "--grid", "0:1:5", "--out", str(tmp_path / "a.csv")]) == EXIT_OK
    before = {p.name: p.read_bytes() for p in tmp_path.iterdir()}
    capsys.readouterr()
    for name in ("a.gnuplot", "fig.gnuplot", "x.gnuplot/"):
        out = str(tmp_path / name)
        assert main(["--mode", "nu", "--grid", "0:1:5", "--out", out]) == EXIT_CONFIG
        err = capsys.readouterr().err
        assert err.startswith("sweep: invalid config: out must not end in .gnuplot")
        assert err.count("\n") == 1
    assert {p.name: p.read_bytes() for p in tmp_path.iterdir()} == before


@pytest.mark.parametrize("out", [".", "/", "//", "./"])
def test_cli_rejects_out_with_an_empty_name(tmp_path, monkeypatch, capsys, out):
    # pathlib gives these an empty name, which no CSV or plot script can have
    monkeypatch.chdir(tmp_path)
    assert main(["--mode", "nu", "--grid", "0:1:3", "--out", out]) == EXIT_CONFIG
    err = capsys.readouterr().err
    assert err == f"sweep: invalid config: out must name a file, got {out!r}\n"
    assert not list(tmp_path.iterdir())


def test_cli_missing_mode_is_config_error(tmp_path):
    assert main(["--out", str(tmp_path / "x.csv")]) == EXIT_CONFIG


def test_cli_unwritable_output_is_io_error(tmp_path, capsys):
    target = str(tmp_path / "no" / "such" / "dir" / "x.csv")
    code = main(["--mode", "nu", "--grid", "0:1:5", "--out", target])
    assert code == EXIT_IO
    assert "I/O failure" in capsys.readouterr().err


@pytest.mark.parametrize(
    "error, code",
    [
        (InvalidStateError, EXIT_CONFIG),
        (ChannelParameterError, EXIT_CONFIG),
        (ZeroProbabilityOutcomeError, EXIT_INTERNAL),
        (sweep.NonFiniteRecordError, EXIT_INTERNAL),
    ],
)
def test_cli_maps_library_errors_to_exit_codes(tmp_path, monkeypatch, capsys, error, code):
    import xsteer.cli as cli

    def boom(cfg):
        raise error("forced")

    monkeypatch.setattr(cli, "run_sweep", boom)
    assert main(["--mode", "nu", "--grid", "0:1:5", "--out", str(tmp_path / "x.csv")]) == code
    prefix = {EXIT_CONFIG: "invalid config", EXIT_INTERNAL: "internal consistency failure"}[code]
    assert capsys.readouterr().err == f"sweep: {prefix}: forced\n"


class _FailingStream(io.StringIO):
    """A text stream whose every write raises `error`."""

    def __init__(self, error: OSError) -> None:
        super().__init__()
        self.error = error

    def write(self, text):
        raise self.error


# How a standard stream fails: a full device, a pipe whose reader has closed
# its end, and a descriptor closed at start-up, for which Python sets None.
_STREAM_FAILURES = {
    "full": lambda: _FailingStream(OSError(errno.ENOSPC, os.strerror(errno.ENOSPC))),
    "pipe": lambda: _FailingStream(BrokenPipeError(errno.EPIPE, os.strerror(errno.EPIPE))),
    "closed": lambda: None,
}


@pytest.mark.parametrize("failure", _STREAM_FAILURES)
def test_cli_success_line_that_cannot_be_written_is_an_io_failure(tmp_path, monkeypatch, failure):
    out = tmp_path / "x.csv"
    stdout = _STREAM_FAILURES[failure]()
    err = io.StringIO()
    monkeypatch.setattr(sys, "stdout", stdout)
    monkeypatch.setattr(sys, "stderr", err)
    assert main(["--mode", "nu", "--grid", "0:1:3", "--out", str(out)]) == EXIT_IO
    assert err.getvalue().startswith("sweep: I/O failure: cannot write to stdout: [Errno ")
    assert err.getvalue().count("\n") == 1
    # the sweep itself succeeded, and the failed stream was closed
    assert len(load_csv(out)) == 3
    assert stdout is None or stdout.closed
    # with stderr failing too, the exit code stays
    monkeypatch.setattr(sys, "stdout", _STREAM_FAILURES["full"]())
    monkeypatch.setattr(sys, "stderr", _STREAM_FAILURES["full"]())
    assert main(["--mode", "nu", "--grid", "0:1:3", "--out", str(out)]) == EXIT_IO


@pytest.mark.parametrize("failure", _STREAM_FAILURES)
def test_cli_help_that_cannot_be_written_is_an_io_failure(monkeypatch, failure):
    stdout, err = _STREAM_FAILURES[failure](), io.StringIO()
    monkeypatch.setattr(sys, "stdout", stdout)
    monkeypatch.setattr(sys, "stderr", err)
    assert main(["--help"]) == EXIT_IO
    assert err.getvalue().startswith("sweep: I/O failure: cannot write to stdout: [Errno ")
    assert err.getvalue().count("\n") == 1
    assert stdout is None or stdout.closed


@pytest.mark.parametrize("failure", _STREAM_FAILURES)
@pytest.mark.parametrize(
    "error, code",
    [
        (ConfigError("forced"), EXIT_CONFIG),
        (OSError(errno.ENOENT, "forced"), EXIT_IO),
        (ZeroProbabilityOutcomeError("forced"), EXIT_INTERNAL),
    ],
    ids=["config", "io", "internal"],
)
def test_cli_failure_whose_line_cannot_be_written_keeps_its_code(
    tmp_path, monkeypatch, failure, error, code
):
    import xsteer.cli as cli

    def boom(cfg):
        raise error

    monkeypatch.setattr(cli, "run_sweep", boom)
    out = io.StringIO()
    monkeypatch.setattr(sys, "stdout", out)
    monkeypatch.setattr(sys, "stderr", _STREAM_FAILURES[failure]())
    assert main(["--mode", "nu", "--grid", "0:1:3", "--out", str(tmp_path / "x.csv")]) == code
    assert out.getvalue() == ""


@pytest.mark.skipif(not os.path.exists("/dev/full"), reason="needs /dev/full")
@pytest.mark.parametrize("unbuffered", ["1", ""], ids=["unbuffered", "buffered"])
def test_cli_on_a_full_device_exits_cleanly(tmp_path, unbuffered):
    import xsteer

    env = dict(os.environ, PYTHONUNBUFFERED=unbuffered,
               PYTHONPATH=str(Path(xsteer.__file__).parents[1]))

    def sweep_cli(grid, **streams):
        args = ["--help"] if grid is None else [
            "--mode", "nu", "--grid", grid, "--out", str(tmp_path / "x.csv")
        ]
        return subprocess.run([sys.executable, "-m", "xsteer", *args], env=env, timeout=60,
                              **streams)

    with open("/dev/full", "w") as full:
        # the success line cannot be written: an I/O failure, on stderr
        proc = sweep_cli("0:1:3", stdout=full, stderr=subprocess.PIPE, text=True)
        assert proc.returncode == EXIT_IO
        assert proc.stderr == (
            "sweep: I/O failure: cannot write to stdout: [Errno 28] No space left on device\n"
        )
        assert len(load_csv(tmp_path / "x.csv")) == 3
        # a failure line that cannot be written leaves the failure's own code
        proc = sweep_cli("0:2:3", stdout=subprocess.PIPE, stderr=full, text=True)
        assert (proc.returncode, proc.stdout) == (EXIT_CONFIG, "")
        # a help text that cannot be written is an I/O failure too
        proc = sweep_cli(None, stdout=full, stderr=subprocess.PIPE, text=True)
        assert proc.returncode == EXIT_IO
        assert proc.stderr == (
            "sweep: I/O failure: cannot write to stdout: [Errno 28] No space left on device\n"
        )
    # a reader that has closed its end of the pipe
    read, write = os.pipe()
    os.close(read)
    try:
        proc = sweep_cli("0:1:3", stdout=write, stderr=subprocess.PIPE, text=True)
    finally:
        os.close(write)
    assert proc.returncode == EXIT_IO
    assert proc.stderr == "sweep: I/O failure: cannot write to stdout: [Errno 32] Broken pipe\n"



def test_cli_config_file_with_flag_override(tmp_path):
    conf = tmp_path / "sweep.json"
    conf.write_text(
        json.dumps(
            {
                "mode": "nu",
                "grid": "0:1:5",
                "out": str(tmp_path / "from_file.csv"),
            }
        )
    )
    # config alone
    assert main(["--config", str(conf)]) == EXIT_OK
    assert len(load_csv(tmp_path / "from_file.csv")) == 5
    # flag wins over the file
    override = tmp_path / "override.csv"
    assert main(["--config", str(conf), "--grid", "0:1:9", "--out", str(override)]) == EXIT_OK
    assert len(load_csv(override)) == 9


def test_cli_config_file_rejects_unknown_keys(tmp_path, capsys):
    conf = tmp_path / "sweep.json"
    conf.write_text(json.dumps({"mode": "nu", "out": "x.csv", "speed": 11}))
    assert main(["--config", str(conf)]) == EXIT_CONFIG
    assert "unknown keys" in capsys.readouterr().err


@pytest.mark.parametrize(
    "key, value",
    [
        ("nu", None),
        ("rb", None),
        ("jobs", "two"),
        ("jobs", 2.7),
        ("nu", "abc"),
        ("g_over_gamma", True),
        ("rb", "fast"),
    ],
)
def test_cli_config_file_rejects_bad_value_types(tmp_path, capsys, key, value):
    conf = tmp_path / "sweep.json"
    out = tmp_path / "x.csv"
    conf.write_text(json.dumps({"mode": "nu", "grid": "0:1:3", "out": str(out), key: value}))
    assert main(["--config", str(conf)]) == EXIT_CONFIG
    err = capsys.readouterr().err
    assert err.startswith(f"sweep: invalid config: config: {key} must be")
    assert err.count("\n") == 1
    assert not out.exists()


@pytest.mark.parametrize(
    "mode, key, field",
    [
        ("nu", "nu", "nu"),
        ("acceleration", "rb", "r_b"),
        ("acceleration", "g_over_gamma", "g_over_gamma"),
    ],
)
def test_cli_config_number_no_float_can_hold(tmp_path, capsys, mode, key, field):
    # a JSON number reaches SweepConfig as parsed, so its one read refuses it
    conf = tmp_path / "sweep.json"
    out = tmp_path / "x.csv"
    conf.write_text(f'{{"mode": "{mode}", "out": {json.dumps(str(out))}, "{key}": 1{"0" * 400}}}')
    assert main(["--config", str(conf)]) == EXIT_CONFIG
    err = capsys.readouterr().err
    assert err == f"sweep: invalid config: {field} is too large for a float, got 1.000e+400\n"
    assert sorted(p.name for p in tmp_path.iterdir()) == ["sweep.json"]


def test_cli_reports_bad_bell_before_bad_rb(tmp_path, capsys):
    conf = tmp_path / "sweep.json"
    conf.write_text(json.dumps({"mode": "nu", "out": str(tmp_path / "x.csv"), "bell": "chi"}))
    assert main(["--config", str(conf), "--rb", "fast"]) == EXIT_CONFIG
    assert capsys.readouterr().err.startswith("sweep: invalid config: bell must be one of")


def test_cli_swap_bell_flag(tmp_path):
    out = tmp_path / "swap.csv"
    code = main(
        ["--mode", "swap", "--grid", "0:1:5", "--bell", "phi-minus", "--out", str(out)]
    )
    assert code == EXIT_OK
