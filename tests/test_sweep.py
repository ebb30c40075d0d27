import dataclasses
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from xsteer.cli import EXIT_CONFIG, EXIT_INTERNAL, EXIT_IO, EXIT_OK, main
from xsteer.measures import PathDisagreementError
from xsteer.qstate import BellIndex
from xsteer.sweep import (
    CSV_HEADER,
    ConfigError,
    SweepConfig,
    SweepRecord,
    emit_plot_script,
    evaluate_point,
    figure_presets,
    load_csv,
    run_sweep,
    write_csv,
)


# Preset CSVs frozen before any numeric refactor; the benchmark checks against them too.
REFERENCE_DIR = Path(__file__).resolve().parents[1] / "perfbench" / "reference"


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
        (dict(mode="ad-channel", start=0.0, stop=10.0, g_over_gamma=2.5), "g-over-gamma"),
        (dict(mode="dephasing-channel", start=0.0, stop=10.0, g_over_gamma=-1.0), "g-over-gamma"),
        (dict(mode="swap", bell="psi"), "bell"),
        (dict(mode="acceleration", start=0.0, stop=math.nextafter(math.pi / 4, 1)), "pi/4"),
        (dict(mode="ad-channel", start=0.0, stop=math.inf), "inside"),
        (dict(mode="dephasing-channel", start=0.0, stop=10.0, g_over_gamma=math.inf),
         "g-over-gamma"),
    ],
)
def test_config_validation_reports_offending_field(tmp_path, kw, fragment):
    with pytest.raises(ConfigError, match=fragment):
        _cfg(tmp_path, **kw).validate()


def test_valid_configs_pass(tmp_path):
    _cfg(tmp_path).validate()
    _cfg(tmp_path, mode="acceleration", start=0.0, stop=math.pi / 4, r_b="track").validate()
    _cfg(tmp_path, mode="swap", bell=BellIndex.PHI_MINUS).validate()


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
    rec_track = evaluate_point(cfg, 0.6)
    cfg_fixed = _cfg(tmp_path, mode="acceleration", start=0.0, stop=math.pi / 4, r_b=0.6)
    rec_fixed = evaluate_point(cfg_fixed, 0.6)
    assert rec_track == rec_fixed


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


def test_load_csv_rejects_foreign_file(tmp_path):
    path = tmp_path / "junk.csv"
    path.write_text("time,value\n0,1\n")
    with pytest.raises(ConfigError, match="header"):
        load_csv(path)


def test_write_csv_significant_digits(tmp_path):
    rec = SweepRecord(param=1 / 3, s=0.123456789012345, z=0.0, e_x=0.5, e_y=0.25, i_ab=2.0)
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
    again = emit_plot_script(tmp_path / "out.csv", "nu")
    assert again.read_text(encoding="utf-8") == script


def test_plot_script_channel_axis_label(tmp_path):
    cfg = _cfg(tmp_path, mode="ad-channel", start=0.0, stop=5.0, points=4)
    run_sweep(cfg)
    script = (tmp_path / "out.gnuplot").read_text(encoding="utf-8")
    assert "set xlabel 'γt'" in script


def test_plot_script_requires_csv(tmp_path):
    with pytest.raises(FileNotFoundError):
        emit_plot_script(tmp_path / "absent.csv", "nu")


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
        got = [dataclasses.astuple(r) for r in load_csv(cfg.out)]
        want = [dataclasses.astuple(r) for r in load_csv(REFERENCE_DIR / f"{name}.csv")]
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


def test_cli_rejects_unknown_mode():
    with pytest.raises(SystemExit) as err:
        main(["--mode", "sideways", "--out", "x.csv"])
    assert err.value.code == 2


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


def test_cli_missing_mode_is_config_error(tmp_path):
    assert main(["--out", str(tmp_path / "x.csv")]) == EXIT_CONFIG


def test_cli_unwritable_output_is_io_error(tmp_path, capsys):
    target = str(tmp_path / "no" / "such" / "dir" / "x.csv")
    code = main(["--mode", "nu", "--grid", "0:1:5", "--out", target])
    assert code == EXIT_IO
    assert "I/O failure" in capsys.readouterr().err


def test_cli_internal_failure_exit_code(tmp_path, monkeypatch, capsys):
    import xsteer.cli as cli

    def boom(cfg):
        raise PathDisagreementError("forced")

    monkeypatch.setattr(cli, "run_sweep", boom)
    code = main(["--mode", "nu", "--grid", "0:1:5", "--out", str(tmp_path / "x.csv")])
    assert code == EXIT_INTERNAL
    assert "internal consistency" in capsys.readouterr().err


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


def test_cli_swap_bell_flag(tmp_path):
    out = tmp_path / "swap.csv"
    code = main(
        ["--mode", "swap", "--grid", "0:1:5", "--bell", "phi-minus", "--out", str(out)]
    )
    assert code == EXIT_OK
