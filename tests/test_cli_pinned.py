"""`compose` and `decompose` print the same bytes as the commit before the Sklar sweep.

Each case builds a random copula and marginals from a fixed seed, runs
`compose` (and, for continuous marginals, `decompose` on its joint) and
compares the report line verbatim and the whole standard output by SHA-256
against values recorded from the pointwise ``verify_sklar``.  Every case has
a nonzero deviation, so a change in the last bit of either CDF path shows.
"""

import hashlib
import math

import numpy as np
import pytest

from copulagrid import Marginal, random_copula, serialize
from copulagrid.cli import main


def marginal(rng, continuous, size):
    if continuous:
        xs = np.cumsum(rng.uniform(0.1, 1.0, size=size)) - 0.275 * size
        gaps = rng.uniform(0.1, 1.0, size=size - 1)
        fs = np.concatenate(([0.0], np.cumsum(gaps) / gaps.sum()))
        fs[-1] = 1.0
        return Marginal.continuous(list(zip(xs.tolist(), fs.tolist())))
    finite = np.cumsum(rng.uniform(0.1, 1.0, size=size - 2)) - 0.275 * size
    ws = rng.dirichlet(np.ones(size))
    return Marginal.atomic(list(zip([-math.inf, *finite.tolist(), math.inf], ws.tolist())))


def run(capsys, *argv):
    code = main([str(a) for a in argv])
    out = capsys.readouterr().out
    return code, out.splitlines()[0], hashlib.sha256(out.encode()).hexdigest(), out


CASES = [
    (
        2, 8, "continuous", 1,
        "sklar_max_deviation = 2.22044604925e-16",
        "6b3e84e3a9afce27bb0ad200684dd3aaabd6f36445b1a5bfbf453dde6770cf03",
        "round_trip_max_deviation = 2.22044604925e-16",
        "a1292e762a9eec0dd2f1bbb55afc1361bef702f22eae053256e83fdc34e351e6",
    ),
    (
        2, 8, "atomic", 2,
        "sklar_max_deviation = 5.55111512313e-17",
        "78567acf151bbe56ac2250c1d9548bcb49b21aa4f1825560913d0a3dac6ba8be",
        None,
        None,
    ),
    (
        3, 6, "continuous", 3,
        "sklar_max_deviation = 1.11022302463e-16",
        "8df848400f772fd4ed05e4bd1226885c7d31d624120ec947ba209a76653435b2",
        "round_trip_max_deviation = 1.11022302463e-16",
        "f113328ce435f52bf9eaa3b8df5f3069ae55d69a8261b1916b50ffcc358e3bd5",
    ),
    (
        3, 5, "atomic", 4,
        "sklar_max_deviation = 1.11022302463e-16",
        "1b21f0ffde27d0ae57edd52b7ced8181a663718c60b7206cbbbfe48a04b49c7b",
        None,
        None,
    ),
    (
        3, 17, "continuous", 7,
        "sklar_max_deviation = 2.22044604925e-16",
        "f67f3b7640b2b96770b81236c0c48a930934190ab1f0ce2fc8e632b21b360e74",
        "round_trip_max_deviation = 2.22044604925e-16",
        "64b26aaad947f1715d71ed0c7eaa0d10c12fb624654cc4a2646fb97e6f2fa162",
    ),
]


@pytest.mark.parametrize("d, n, kind, seed, line, digest, back_line, back_digest", CASES)
def test_stdout_bytes_are_pinned(
    tmp_path, capsys, d, n, kind, seed, line, digest, back_line, back_digest
):
    rng = np.random.default_rng(seed)
    copula = random_copula(tuple(range(d)), n, rng)
    continuous = kind == "continuous"
    marginals = {lab: marginal(rng, continuous, 16 if continuous else 6) for lab in range(d)}
    copula_file = tmp_path / "copula.json"
    copula_file.write_text(serialize.dumps(serialize.encode_copula(copula)))
    marginal_file = tmp_path / "marginals.json"
    marginal_file.write_text(serialize.dumps(serialize.encode_marginals(marginals)))

    code, first, sha, out = run(capsys, "compose", copula_file, marginal_file)
    assert (code, first, sha) == (0, line, digest)
    if back_line is None:
        return
    joint_file = tmp_path / "joint.json"
    joint_file.write_text(out.split("\n", 1)[1])
    code, first, sha, _ = run(capsys, "decompose", joint_file, marginal_file, "--order", n)
    assert (code, first, sha) == (0, back_line, back_digest)
