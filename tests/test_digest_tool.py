"""`tools/digest.py` runs every workload at smoke sizes and repeats its hash."""

import re
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]


def digest(workload, *extra):
    proc = subprocess.run(
        [sys.executable, "tools/digest.py", "--src", ".", "--workload", workload, "--smoke"]
        + list(extra),
        cwd=ROOT,
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    return proc.stdout.splitlines()


@pytest.mark.parametrize("workload", ["fdd-transport", "sklar-roundtrip", "extremal-search"])
def test_digest_is_one_hash_and_repeats(workload):
    once = digest(workload, "--seeds", "1", "2")
    assert len(once) == 1 and re.fullmatch(r"[0-9a-f]{64}", once[0])
    listed = digest(workload, "--seeds", "1", "2", "--list")
    assert listed[-1] == once[0]
    assert len(listed) > 2 and all(line.split()[0] in ("1", "2") for line in listed[:-1])
    assert digest(workload, "--seeds", "2")[0] != once[0]
