"""The Sklar round trip through ``python -m copulagrid.cli`` processes, and its bytes.

Under ``PYTHONHASHSEED`` 0 and 1 the outputs must be the same bytes: with
string labels, a set or dict order leaking into an output would differ.  A
process whose standard output has no reader left exits 141 with nothing on
standard error.
"""

import os
import subprocess
import sys
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest

from copulagrid import Marginal, make_comonotone, random_copula, serialize
from helpers import SRC, run_cli

RAMP = Marginal.continuous([(0, 0), (1, 1)])
COMPOSE = ["compose", "copula.json", "marginals.json", "--out", "joint.json"]
DECOMPOSE = ["decompose", "joint.json", "marginals.json", "--order", "4", "--out", "recovered.json"]


def run_all(directory, copula, marginals, *commands, **env):
    """Write ``copula.json`` and ``marginals.json`` to ``directory``; run ``commands`` there."""
    directory.mkdir(exist_ok=True)
    docs = serialize.encode_copula(copula), serialize.encode_marginals(marginals)
    for name, doc in zip(("copula.json", "marginals.json"), docs):
        (directory / name).write_text(serialize.dumps(doc))
    procs = [run_cli(*argv, cwd=directory, **env) for argv in commands]
    assert [proc.returncode for proc in procs] == [0] * len(commands), [p.stderr for p in procs]
    return [proc.stdout for proc in procs]


def test_the_round_trip_gives_the_copula_back_at_distance_0(tmp_path):
    family = {"kind": "family_spec", "rule": "independence", "order": 4}
    family["universe"] = {"type": "countable"}
    (tmp_path / "family.json").write_text(serialize.dumps(family))
    commands = [["validate", "family.json"], COMPOSE, DECOMPOSE, ["validate", "recovered.json"]]
    distance = ["distance", "copula.json", "recovered.json"]
    printed = run_all(tmp_path, make_comonotone((0, 1), 4), {0: RAMP, 1: RAMP}, *commands, distance)
    assert printed[-1] == b"0\n"


def test_outputs_are_byte_identical_across_processes_and_hash_seeds(tmp_path):
    copula = random_copula(("beta", "alpha", "gamma"), 4, np.random.default_rng(7))
    marginals = {"alpha": RAMP, "beta": Marginal.continuous([(-2, 0), (0, 0.3), (5, 1)])}
    marginals["gamma"] = Marginal.continuous([(1, 0), (1.5, 0.6), (2, 0.9), (4, 1)])

    def outputs(seed):
        # each seed in its own directory, under the same file names
        run = tmp_path / f"seed{seed}"
        printed = run_all(run, copula, marginals, COMPOSE, DECOMPOSE, PYTHONHASHSEED=str(seed))
        return printed + [(run / name).read_bytes() for name in ("joint.json", "recovered.json")]

    with ThreadPoolExecutor(2) as pool:
        first, second = pool.map(outputs, (0, 1))
    assert first == second


@pytest.mark.parametrize("argv", [["compact-demo"], ["extremal", "--order", "3"]])
def test_a_closed_standard_output_ends_the_command_without_a_traceback(tmp_path, argv):
    # the pipe's read end is closed before the child starts, so its first write fails
    read, write = os.pipe()
    os.close(read)
    env = {**os.environ, "PYTHONPATH": str(SRC.parent)}
    try:
        proc = subprocess.run(
            [sys.executable, "-m", "copulagrid.cli", *argv],
            cwd=tmp_path,
            env=env,
            stdout=write,
            stderr=subprocess.PIPE,
            timeout=60,
        )
    finally:
        os.close(write)
    assert (proc.returncode, proc.stderr) == (141, b"")
