"""`tools/digest.py` runs every workload at smoke sizes and repeats its hash.

Given two trees, it hashes each in a process of its own and says whether
they agree: a checkout against itself is equal, and against a copy whose
``phi`` formula was changed it differs.  With ``--list`` it also says how far
the values of the differing operations lie apart.
"""

import ast
import re
import shutil
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


def compare(*trees, extra=()):
    argv = [sys.executable, "tools/digest.py"]
    for tree in trees:
        argv += ["--src", str(tree)]
    argv += ["--workload", "fdd-transport", "--smoke", "--seeds", "1", *extra]
    proc = subprocess.run(argv, cwd=ROOT, capture_output=True, text=True, timeout=300)
    return proc.returncode, proc.stdout.splitlines()


def test_a_tree_compared_with_itself_is_equal():
    code, lines = compare(".", ".")
    assert code == 0 and len(lines) == 3 and lines[-1] == "equal"
    once = digest("fdd-transport", "--seeds", "1")[0]
    assert [line.split() for line in lines[:2]] == [[once, "."], [once, "."]]


def altered_phi_copy(tmp_path):
    """A copy of the sources whose ``phi`` formula was changed."""
    shutil.copytree(ROOT / "src", tmp_path / "src", ignore=shutil.ignore_patterns("__pycache__"))
    topology = tmp_path / "src" / "copulagrid" / "topology.py"
    text = topology.read_text()
    formula = "0.5 + math.atan(x) / math.pi"
    assert text.count(formula) == 1
    topology.write_text(text.replace(formula, "0.5 + math.atan(1.5 * x) / math.pi"))
    return tmp_path


def test_a_seeded_change_in_phi_differs(tmp_path):
    code, lines = compare(".", altered_phi_copy(tmp_path))
    assert code == 1 and len(lines) == 3 and lines[-1] == "differ"
    (ours, _), (theirs, tree) = (line.split() for line in lines[:2])
    assert ours != theirs and tree == str(tmp_path)


def floats(line):
    """The float values of one listed line, read back from its repr."""
    out, stack = [], [ast.literal_eval(line.split(" ", 2)[2])]
    while stack:
        item = stack.pop(0)
        if isinstance(item, tuple):
            stack[:0] = item
        elif isinstance(item, float):
            out.append(item)
    return out


def test_a_listed_comparison_gives_the_largest_difference_of_the_values(tmp_path):
    code, lines = compare(".", ".", extra=["--list"])
    assert code == 0 and lines[-2:] == ["largest difference 0.0 in 0 of 3 operations", "equal"]
    code, lines = compare(".", altered_phi_copy(tmp_path), extra=["--list"])
    assert code == 1 and lines[-1] == "differ" and len(lines) == 10
    ours, theirs = lines[0:3], lines[4:7]
    gaps = [abs(x - y) for a, b in zip(ours, theirs) for x, y in zip(floats(a), floats(b))]
    assert max(gaps) > 1e-3 and all(a != b for a, b in zip(ours, theirs))
    assert lines[-2] == f"largest difference {max(gaps)!r} in 3 of 3 operations"
