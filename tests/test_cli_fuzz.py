"""Seeded contract fuzz of the sweep CLI, run in process through `cli.main`.

Each draw combines flags and JSON config keys, a flag winning over the file,
with values at and just past the ends of each domain, subnormal and huge
numbers, non-finite and mistyped values, and output paths the CLI must
refuse.  Whatever the draw, the run keeps the CLI's contract: exit code 0, 2,
3 or 4 with no traceback and no warning; on success an empty stderr and a
CSV of finite values whose sampled rows match the matrix oracle; on failure
one `sweep:` line on stderr and no output file.
"""

import json
import math
import warnings

import numpy as np
from conftest import _matrix_point

import xsteer.cli as cli
from xsteer.qstate import R_MAX, BellIndex
from xsteer.sweep import MODES, load_csv, run_sweep

DRAWS = 300
POOL_DRAWS = {0, 100, 200}  # the few draws that ask for --jobs 2

TINY = 5e-324  # the smallest subnormal double
BELOW_2 = math.nextafter(2.0, 0.0)
# Values inside each domain, its ends included, and values just or far outside it.
_INSIDE = {
    "nu": [0.0, 1.0, 0.5, 0.1, TINY, math.nextafter(1.0, 0.0)],
    "r": [0.0, R_MAX, 0.3, TINY, math.nextafter(R_MAX, 0.0)],
    "g_over_gamma": [TINY, 2.2250738585072014e-308, 0.01, 0.1, 1.5, BELOW_2, 10.0, 1e300],
    "gamma_t": [0.0, TINY, 1.0, 30.0, 100.0, 1e300, 1.7e308],
}
_OUTSIDE = {
    "nu": [math.nextafter(1.0, 2.0), -TINY, math.nan, math.inf],
    "r": [math.nextafter(R_MAX, 1.0), -TINY, math.nan],
    "g_over_gamma": [2.0, 0.0, -1.0, math.inf, math.nan],
    "gamma_t": [-1.0, math.inf, math.nan],
}
_SWEPT = {
    "nu": "nu", "acceleration": "r", "ad-channel": "gamma_t",
    "dephasing-channel": "gamma_t", "swap": "nu",
}
# Config values of the wrong JSON type for each key.
_MISTYPED = {
    "mode": [5, None], "grid": [3, ["0", "1", "3"]], "out": [7, False],
    "bell": [1, None], "nu": ["0.5", True, None], "rb": [None, "fast"],
    "g_over_gamma": [[0.1], "inf"], "jobs": [1.5, True, "2"],
}
_BAD_GRIDS = ["0:1", "a:b:c", "0:1:2.5", "0:1:3:4", ""]


def _pick(rng, values):
    return values[int(rng.integers(len(values)))]


def _value(rng, domain: str) -> float:
    """A value inside `domain`, or one outside it on about one draw in ten."""
    return _pick(rng, _OUTSIDE[domain] if rng.random() < 0.1 else _INSIDE[domain])


def _draw(rng, k: int, tmp_path):
    """One draw: the flags, the config file's contents (or None) and the CSV path."""
    values = {}
    mode = _pick(rng, MODES)
    values["mode"] = mode if rng.random() < 0.97 else _pick(rng, ["sideways", None])
    swept = _SWEPT[mode]
    start, stop = sorted((_value(rng, swept), _value(rng, swept)), key=lambda v: (v != v, v))
    points = int(rng.integers(2, 51)) if rng.random() < 0.95 else _pick(rng, [0, 1, -3])
    grid = f"{start!r}:{stop!r}:{points}"
    values["grid"] = grid if rng.random() < 0.97 else _pick(rng, _BAD_GRIDS)
    if rng.random() < 0.6:
        values["nu"] = _value(rng, "nu")
    if mode == "acceleration" and rng.random() < 0.8:
        values["rb"] = "track" if rng.random() < 0.4 else _value(rng, "r")
    if mode in ("ad-channel", "dephasing-channel") and rng.random() < 0.9:
        values["g_over_gamma"] = _value(rng, "g_over_gamma")
        if mode == "ad-channel" and values["g_over_gamma"] > BELOW_2 and rng.random() < 0.8:
            values["g_over_gamma"] = BELOW_2  # mostly the largest rate damping accepts
    if mode == "swap":
        values["bell"] = list(BellIndex)[k % 4].value  # every outcome, in turn
    if k in POOL_DRAWS:
        values["jobs"] = 2
    elif rng.random() < 0.05:
        values["jobs"] = _pick(rng, [1, 0, -1])
    where = rng.random()
    csv = tmp_path / (f"missing/{k}.csv" if where < 0.08 else f"{k}.csv")
    values["out"] = str(tmp_path / f"{k}.gnuplot") if 0.08 <= where < 0.12 else str(csv)
    if rng.random() < 0.02:
        del values["out"]

    flags, config = [], {}
    for key, value in values.items():
        if value is None:
            continue
        # a mode argparse would reject goes to the file, where the CLI's own check sees it
        source = rng.random() if key != "mode" or value in MODES else 0.5
        if source < 0.4 or source >= 0.9:  # a flag; from 0.9 on, over a config value too
            # --key=value, since argparse reads "-5e-324" after a space as a flag
            flags.append(f"--{key.replace('_', '-')}={value}")
        if source >= 0.4:
            config[key] = value
    if config and rng.random() < 0.05:
        key = _pick(rng, list(_MISTYPED))
        config[key] = _pick(rng, _MISTYPED[key])
    if rng.random() < 0.5 and not config:
        config = None
    return flags, config, csv


def test_cli_contract_fuzz(tmp_path, capsys, monkeypatch):
    rng = np.random.default_rng(20)
    runs = []
    def recorded(cfg):
        runs.append((cfg, run_sweep(cfg)))
        return runs[-1][1]

    monkeypatch.setattr(cli, "run_sweep", recorded)
    codes, bells = [], set()
    for k in range(DRAWS):
        flags, config, csv = _draw(rng, k, tmp_path)
        argv = list(flags)
        if config is not None:
            path = tmp_path / f"{k}.json"
            path.write_text(json.dumps(config))
            argv.append(f"--config={path}")
        runs.clear()
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            code = cli.main(argv)
        err = capsys.readouterr().err
        assert code in (0, 2, 3, 4), argv
        assert "Traceback" not in err and not caught, (argv, err, [str(w.message) for w in caught])
        codes.append(code)
        if code:
            assert err.startswith("sweep: ") and err.count("\n") == 1, (argv, err)
            assert not csv.exists(), argv
            continue
        assert err == "", argv
        ((cfg, records),) = runs
        table = np.array(records.tolist())
        printed = [[float(f"{v:.12e}") for v in row] for row in table.tolist()]
        reloaded = np.array(load_csv(cfg.out).tolist())
        assert np.isfinite(reloaded).all() and reloaded.tolist() == printed, argv
        for row in rng.choice(cfg.points, size=min(3, cfg.points), replace=False):
            want = _matrix_point(cfg, table[row, 0])
            np.testing.assert_allclose(table[row], want, rtol=0, atol=1e-12, err_msg=str(argv))
        if cfg.mode == "swap":
            bells.add(cfg.bell)
    # the draws reach success, bad configs and I/O failures, and every swap outcome
    assert {0, 2, 3} <= set(codes)
    assert bells == set(BellIndex)
    assert not list(tmp_path.glob(".*.tmp"))
