"""Seeded contract fuzz of the sweep CLI, run in process through `cli.main`.

Each draw combines flags and JSON config keys, a flag winning over the file,
with values at and just past the ends of each domain, subnormal and huge
numbers, non-finite and mistyped values, and output paths the CLI must
refuse.  Each flag is written as `--key value` or as `--key=value`, so a
value that starts with "-" must reach its flag either way.  Whatever the
draw, the run keeps the CLI's contract: exit code 0, 2, 3 or 4 with no
traceback and no warning; on success an empty stderr and a CSV of finite
values whose sampled rows match the matrix oracle; on failure one `sweep:`
line on stderr and no output file.  A second seeded generator, which leaves
the draws above as they are, picks about one successful draw in ten to rerun
with the same argv, which must leave the pair as it was, and as many to rerun
with the output named, in turn, by a name that is not valid UTF-8 or that
holds a line break: such a draw is valid but for that name, so it must exit
2 with the `out must` message.
"""

import json
import math
import os
import warnings
from pathlib import Path

import numpy as np
from conftest import _matrix_point

import xsteer.cli as cli
from xsteer.qstate import R_MAX, BellIndex
from xsteer.sweep import MODES, load_csv, run_sweep

DRAWS = 300

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
# Output names the CLI must refuse, in turn, relative to the test's directory:
# one holding the byte 0xff as os.fsdecode gives it, one whose plot script
# would run a shell command, and three whose file name pathlib reads as empty.
_REFUSED_OUTS = ["{}\udcff.csv", '{}\nsystem "touch pwned"\n#.csv', ".", "/", "//"]


def _pick(rng, values):
    return values[int(rng.integers(len(values)))]


def _value(rng, domain: str) -> float:
    """A value inside `domain`, or one outside it on about one draw in ten."""
    return _pick(rng, _OUTSIDE[domain] if rng.random() < 0.1 else _INSIDE[domain])


def _draw(rng, k: int, tmp_path, read_only: bool):
    """One draw: the flags, the config file's contents (or None) and the CSV path.

    `read_only` says whether tmp_path/"ro", a directory without write permission,
    is unwritable for this process; root may write it anyway.
    """
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
    if mode == "swap":  # every outcome, in turn, or one that does not exist
        values["bell"] = list(BellIndex)[k % 4].value if rng.random() < 0.95 else "chi"
    if rng.random() < 0.1:  # any valid jobs runs in this process; 0 and -1 are refused
        values["jobs"] = _pick(rng, [1, 2, 64, 10**6, 0, -1])
    where = rng.random()
    if where < 0.08:
        csv = tmp_path / f"missing/{k}.csv"
    elif 0.12 <= where < 0.15:
        csv = tmp_path / f"file/{k}.csv"  # under a regular file: ENOTDIR
    elif 0.15 <= where < 0.18 and read_only:
        csv = tmp_path / f"ro/{k}.csv"
    else:
        csv = tmp_path / f"{k}.csv"
    values["out"] = str(tmp_path / f"{k}.gnuplot") if 0.08 <= where < 0.12 else str(csv)
    if rng.random() < 0.02:
        del values["out"]

    flags, config = [], {}
    for key, value in values.items():
        if value is None:
            continue
        source = rng.random()
        if source < 0.4 or source >= 0.9:  # a flag; from 0.9 on, over a config value too
            flag = f"--{key.replace('_', '-')}"
            flags += [f"{flag}={value}"] if rng.random() < 0.5 else [flag, str(value)]
        if source >= 0.4:
            config[key] = value
    if config and rng.random() < 0.05:
        key = _pick(rng, list(_MISTYPED))
        config[key] = _pick(rng, _MISTYPED[key])
    if rng.random() < 0.5 and not config:
        config = None
    return flags, config, csv


def _identity(path) -> tuple[int, int]:
    st = path.stat()
    return st.st_ino, st.st_mtime_ns


def test_cli_contract_fuzz(tmp_path, capsys, monkeypatch):
    rng = np.random.default_rng(20)
    extra = np.random.default_rng(21)  # reruns and refused output names
    runs = []
    def recorded(cfg):
        runs.append((cfg, run_sweep(cfg)))
        return runs[-1][1]

    monkeypatch.setattr(cli, "run_sweep", recorded)
    monkeypatch.chdir(tmp_path)
    (tmp_path / "file").write_text("")
    (tmp_path / "ro").mkdir(mode=0o555)
    read_only = not os.access(tmp_path / "ro", os.W_OK)
    codes, bells, jobs, reruns, refused_draws = [], set(), set(), 0, 0
    for k in range(DRAWS):
        flags, config, csv = _draw(rng, k, tmp_path, read_only)
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
        jobs.add(cfg.jobs)
        if extra.random() < 0.1:  # an identical rerun leaves the pair as it was
            pair = [Path(cfg.out), Path(cfg.out).with_suffix(".gnuplot")]
            before = [_identity(p) for p in pair]
            assert cli.main(argv) == 0, argv
            assert capsys.readouterr().err == "", argv
            assert [_identity(p) for p in pair] == before, argv
            assert not list(tmp_path.glob(".*.tmp")), argv
            reruns += 1
        if extra.random() < 0.1:
            # the draw once more, its output named by a refused name; the flag
            # wins over the config, and the draw is valid but for that name
            refused = _REFUSED_OUTS[refused_draws % len(_REFUSED_OUTS)].format(k)
            before = sorted(tmp_path.iterdir())
            assert cli.main([*argv, f"--out={refused}"]) == 2, argv
            err = capsys.readouterr().err
            assert err.startswith("sweep: invalid config: out must "), (argv, err)
            assert err.count("\n") == 1, (argv, err)
            assert sorted(tmp_path.iterdir()) == before, refused
            refused_draws += 1
    # the draws reach success, bad configs and I/O failures, every swap
    # outcome and jobs > 1; some are rerun and some name each refused output
    assert {0, 2, 3} <= set(codes)
    assert bells == set(BellIndex)
    assert max(jobs) > 1, jobs
    assert reruns and refused_draws >= len(_REFUSED_OUTS)
    assert not list(tmp_path.glob(".*.tmp"))
