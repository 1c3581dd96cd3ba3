"""The benchmark runner still runs, untraced and traced, at smoke sizes."""

import json
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]


@pytest.mark.parametrize("trace", ["0", "1"])
def test_bench_smoke(trace):
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "all", "--smoke", "--trace", trace],
        cwd=ROOT,
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    last = proc.stdout.strip().splitlines()[-1]
    assert json.loads(last)["correct"] is True
