"""Check a `nu` sweep CSV against the "{:.12e}" rendering of evaluate_grid's table.

    sweep --mode nu --grid 0:1:40001 --out nu.csv
    python .github/check_cli_csv.py nu.csv 0:1:40001

Exits non-zero unless the file holds exactly the header and, per row of
evaluate_grid's table for the same grid, the six values as "{:.12e}".
"""

import sys

from xsteer.sweep import CSV_HEADER, SweepConfig, evaluate_grid

path, grid = sys.argv[1:]
start, stop, points = grid.split(":")
cfg = SweepConfig(mode="nu", start=float(start), stop=float(stop), points=int(points), out=path)
rows = evaluate_grid(cfg, cfg.grid()).tolist()
want = CSV_HEADER + "\n" + "".join(",".join(map("{:.12e}".format, row)) + "\n" for row in rows)
with open(path, "rb") as fh:
    if fh.read() != want.encode("utf-8"):
        sys.exit(f"{path}: bytes differ from the {{:.12e}} rendering of evaluate_grid")
print(f"{path}: {len(rows)} rows match")
