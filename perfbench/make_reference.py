"""Regenerate perfbench/reference/: the CSVs of the 10 bundled presets.

    python3 perfbench/make_reference.py

The presets workload compares every sweep it runs against these files, so
regenerate them only from a commit whose preset output is known to be right,
and record that commit in perfbench/design.json.
"""

import shutil
import sys
import tempfile
from pathlib import Path

from run import REFERENCE_DIR, load_xsteer


def main() -> int:
    xs = load_xsteer()
    REFERENCE_DIR.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory() as tmp:
        for cfg in xs.figure_presets(tmp).values():
            xs.run_sweep(cfg)
            shutil.copyfile(cfg.out, REFERENCE_DIR / Path(cfg.out).name)
    return 0


if __name__ == "__main__":
    sys.exit(main())
