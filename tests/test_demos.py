"""Smoke test: every narrative demo runs to completion against the package.

Demo 03, which integrates three full bending runs, takes about 7 s with one
BLAS thread.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
DEMOS = [
    "01_graphs_and_distance.py",
    "02_coarse_graph_search.py",
    "03_simulate_microtubule.py",
    "04_multiscale_models.py",
    "05_training_schedules.py",
]


@pytest.mark.parametrize("demo", DEMOS)
def test_demo_exits_zero(demo):
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    result = subprocess.run(
        [sys.executable, str(ROOT / "demos" / demo)],
        capture_output=True,
        text=True,
        env=env,
        timeout=300,
    )
    assert result.returncode == 0, result.stderr
