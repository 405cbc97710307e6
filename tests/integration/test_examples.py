"""Every script under ``examples/`` runs to completion, quietly.

The examples are the only callers of some public helpers, so a change
that breaks one must fail here rather than in a reader's terminal.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

REPO = Path(__file__).resolve().parents[2]
EXAMPLES = sorted((REPO / "examples").glob("*.py"))


@pytest.mark.parametrize("script", EXAMPLES, ids=lambda p: p.stem)
def test_example_runs(script, tmp_path):
    proc = subprocess.run(
        [sys.executable, str(script)], cwd=tmp_path, capture_output=True,
        text=True, timeout=120,
        env={**os.environ, "PYTHONPATH": str(REPO / "src")})
    assert proc.returncode == 0, proc.stderr
    assert proc.stderr == ""
    assert not any(tmp_path.iterdir()), "example wrote files"
