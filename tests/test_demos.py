import os
import subprocess
import sys
from pathlib import Path

import pytest

import qfaeq

DEMOS = sorted((Path(__file__).resolve().parents[1] / "demos").glob("*.py"))


@pytest.mark.parametrize("demo", DEMOS, ids=lambda p: p.name)
def test_demo_runs(demo):
    # The child imports the same qfaeq package as this test process.
    package_root = str(Path(qfaeq.__file__).resolve().parents[1])
    result = subprocess.run(
        [sys.executable, str(demo)], capture_output=True, text=True,
        timeout=120, env=dict(os.environ, PYTHONPATH=package_root),
    )
    assert result.returncode == 0, result.stderr


def test_package_exports_resolve():
    missing = [name for name in qfaeq.__all__ if not hasattr(qfaeq, name)]
    assert missing == []
