"""The README's Python quick start runs as written."""

from __future__ import annotations

import contextlib
import io
import os
import re

README = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "README.md")


def test_readme_quick_start_runs():
    with open(README) as fh:
        blocks = re.findall(r"```python\n(.*?)```", fh.read(), re.S)
    assert len(blocks) == 1
    printed = io.StringIO()
    with contextlib.redirect_stdout(printed):
        exec(compile(blocks[0], README, "exec"), {})
    # identical rect sources at 165 ps with detector-only jitters
    assert 0.936 <= float(printed.getvalue()) <= 0.99
