import importlib
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

import qfaeq
from qfaeq import cli, equivalence, io, linalg, qfa, scalars

ROOT = Path(__file__).resolve().parents[1]
DEMOS = sorted((ROOT / "demos").glob("*.py"))


def run_fresh(args):
    """Run a Python interpreter that imports the same qfaeq package as this
    test process, with every warning an error in it and in its children."""
    package_root = str(Path(qfaeq.__file__).resolve().parents[1])
    return subprocess.run(
        [sys.executable, *args], capture_output=True, text=True, timeout=120,
        env=dict(os.environ, PYTHONPATH=package_root, PYTHONWARNINGS="error"),
    )


@pytest.mark.parametrize("demo", DEMOS, ids=lambda p: p.name)
def test_demo_runs(demo):
    result = run_fresh([str(demo)])
    assert result.returncode == 0, result.stderr


def test_readme_quick_start_runs():
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    blocks = re.findall(r"^```python\n(.*?)^```", readme, re.M | re.S)
    assert len(blocks) == 1
    result = run_fresh(["-c", blocks[0]])
    assert result.returncode == 0, result.stderr


def test_package_exports_resolve():
    missing = [
        f"{module.__name__}.{name}"
        for module in (qfaeq, scalars, linalg, qfa, equivalence, io, cli)
        for name in module.__all__
        if not hasattr(module, name)
    ]
    assert missing == []


def test_console_script_target_resolves():
    # A plain text read: tomllib is missing on Python 3.10.
    text = (ROOT / "pyproject.toml").read_text(encoding="utf-8")
    section = re.search(r"^\[project\.scripts\]\n(.*?)(?=^\[|\Z)", text, re.M | re.S)
    targets = re.findall(r'^qfaeq\s*=\s*"([\w.]+):(\w+)"', section.group(1), re.M)
    assert len(targets) == 1
    module, attr = targets[0]
    assert callable(getattr(importlib.import_module(module), attr, None))
