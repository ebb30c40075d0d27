"""Check a sweep CSV written by the CLI against evaluate_grid and an independent oracle.

    sweep --mode dephasing-channel --grid 0:40:40001 --out dp.csv
    python .github/check_cli_csv.py dp.csv dephasing-channel 0:40:40001
    sweep --mode acceleration --rb track --grid 0:0.7853981633974483:40001 --out ac.csv
    python .github/check_cli_csv.py ac.csv acceleration 0:0.7853981633974483:40001 track
    sweep --mode ad-channel --nu 0.1 --g-over-gamma 1.5 --grid 0:100:40001 --out ad.csv
    python .github/check_cli_csv.py ad.csv ad-channel 0:100:40001 --nu 0.1 --g-over-gamma 1.5

The sweep must use the default --bell; an optional fourth argument gives
its --rb value, "track" or a number, and --nu and --g-over-gamma give its
values of those flags, each defaulting to the sweep's own default.
Exits non-zero unless the file holds exactly the header and, per row of
evaluate_grid's table for the same grid, the six values as "{:.12e}", and
unless that table's values lie within 1e-12 of the closed forms in
perfbench/oracle.py, which share no code with xsteer's measures.  For
acceleration the oracle reads the states off xsteer's enlarged-space
`accelerate_oracle`, as the benchmark's grid-parallel check does.
"""

import argparse
import sys
from pathlib import Path

import numpy as np

from xsteer.processes import accelerate_oracle
from xsteer.sweep import CSV_HEADER, SweepConfig, evaluate_grid

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "perfbench"))
import oracle  # noqa: E402

parser = argparse.ArgumentParser()
parser.add_argument("path")
parser.add_argument("mode")
parser.add_argument("grid", help="start:stop:points")
parser.add_argument("rb", nargs="?", default="0")
parser.add_argument("--nu", type=float, default=SweepConfig.nu)
parser.add_argument("--g-over-gamma", type=float, default=SweepConfig.g_over_gamma)
args = parser.parse_args()
path, mode = args.path, args.mode
start, stop, points = args.grid.split(":")
cfg = SweepConfig(
    mode=mode, start=float(start), stop=float(stop), points=int(points), out=path,
    r_b=args.rb if args.rb == "track" else float(args.rb), nu=args.nu,
    g_over_gamma=args.g_over_gamma,
)
table = evaluate_grid(cfg, cfg.grid())
rows = table.tolist()
want = CSV_HEADER + "\n" + "".join(",".join(map("{:.12e}".format, row)) + "\n" for row in rows)
with open(path, "rb") as fh:
    if fh.read() != want.encode("utf-8"):
        sys.exit(f"{path}: bytes differ from the {{:.12e}} rendering of evaluate_grid")

x = np.linspace(cfg.start, cfg.stop, cfg.points)
d, c14, c23 = oracle.mixture(np.full_like(x, cfg.nu))
if mode == "nu":
    expected = oracle.x_report(*oracle.mixture(x))
elif mode == "acceleration":
    track = cfg.r_b == "track"
    rhos = np.array([accelerate_oracle(cfg.nu, r, r if track else cfg.r_b) for r in x.tolist()])
    expected = oracle.x_report(*oracle.x_parts(rhos))
elif mode == "ad-channel":
    p = oracle.ad_survival(cfg.g_over_gamma, x)
    expected = oracle.x_report(*oracle.damp_both(d, c14, c23, p))
elif mode == "dephasing-channel":
    f = oracle.dephasing_factor(cfg.g_over_gamma, x)
    expected = oracle.x_report(d, f * f * c14, f * f * c23)
elif mode == "swap":
    pair = oracle.x_matrix(*oracle.mixture(x))
    expected = oracle.density_report(oracle.swap(pair, pair, oracle.BELL_KETS[cfg.bell.value]))
else:
    sys.exit(f"no oracle for mode {mode!r}")
gap = float(np.abs(table[:, 1:] - expected).max())
if not np.array_equal(table[:, 0], x) or gap > 1e-12:
    sys.exit(f"{path}: evaluate_grid is {gap:.1e} from the oracle, beyond 1e-12")
print(f"{path}: {len(rows)} rows match; largest gap to the oracle {gap:.1e}")
