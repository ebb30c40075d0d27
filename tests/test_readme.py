"""README's Python quick start, run as written."""

import contextlib
import io
import re
from pathlib import Path

README = Path(__file__).resolve().parent.parent / "README.md"


def _quick_start() -> str:
    """The first ```python block after the "Quick start (Python)" heading."""
    text = README.read_text(encoding="utf-8")
    section = text[text.index("## Quick start (Python)"):]
    match = re.search(r"```python\n(.*?)```", section, re.DOTALL)
    assert match, "no python block in README's quick start"
    return match.group(1)


def test_readme_quick_start_runs_and_prints_its_documented_values():
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        exec(compile(_quick_start(), str(README), "exec"), {"__name__": "readme"})
    lines = out.getvalue().splitlines()
    assert len(lines) == 3, lines
    # the comment on the first print gives S and Z of the nu = 1/4 mixture
    s, z = lines[0].split()
    assert s.startswith("0.18872") and z.startswith("0.25490"), lines[0]
    for line in lines[1:]:
        assert 0.0 <= float(line) <= 1.0, line
