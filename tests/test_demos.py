"""Every script in demos/, and README's library quick start, runs to completion against the
package in src/."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
DEMOS = sorted((ROOT / "demos").glob("*.py"))


def _quick_start():
    """The ```python block under README's "Library quick start" heading."""
    section = (ROOT / "README.md").read_text().split("## Library quick start\n", 1)[1]
    return section.split("```python\n", 1)[1].split("```", 1)[0]


SCRIPTS = [pytest.param([str(demo)], id=demo.name) for demo in DEMOS] + [
    pytest.param(["-c", _quick_start()], id="README-quick-start"),
]


def test_demos_found():
    assert DEMOS


@pytest.mark.parametrize("demo", SCRIPTS)
def test_demo_runs(demo):
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    proc = subprocess.run(
        [sys.executable, *demo], cwd=ROOT, env=env,
        capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
