"""Smoke test: every demo script and README's quick start run to completion."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
DEMOS = sorted((ROOT / "demos").glob("*.py"))


def run_python(*args):
    path = os.pathsep.join(filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")]))
    return subprocess.run(
        [sys.executable, *args],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": path},
        timeout=120,
    )


def test_demos_found():
    assert len(DEMOS) == 4


@pytest.mark.parametrize("demo", DEMOS, ids=lambda path: path.name)
def test_demo_exits_cleanly(demo):
    res = run_python(str(demo))
    assert res.returncode == 0, res.stderr


def test_readme_quick_start():
    """The ``python`` block under "Quick start" prints the extension's label
    and a recovered moment's error."""
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    section = readme.split("\n## Quick start\n", 1)[1]
    code = section.split("```python\n", 1)[1].split("```", 1)[0]
    res = run_python("-c", code)
    assert res.returncode == 0, res.stderr
    label, error = res.stdout.split()
    assert label == "essential"
    assert float(error) <= 1e-12
