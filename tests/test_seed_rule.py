"""One seed rule, checked before any work: a whole number >= 0, else ``DomainError``.

``maximize_convex`` and ``continuity_probe`` read their seed through
``copulas._checked_seed`` after their other argument checks and before they
evaluate a functional or build a family, and the CLI's ``extremal`` and
``compact-demo`` read ``--seed`` through it, so a bad seed exits 2 with
``validation error: ...`` instead of a traceback from numpy.
"""

import numpy as np
import pytest

from copulagrid import (
    DomainError,
    Marginal,
    continuity_probe,
    make_independence,
    maximize_convex,
)
from copulagrid.cli import main
from copulagrid.copulas import _checked_seed

BAD_SEEDS = [-1, -(2**70), 1.5, float("nan"), "x", None, True, False, np.True_, [1]]


@pytest.mark.parametrize("seed", BAD_SEEDS, ids=repr)
def test_bad_seeds_are_refused(seed):
    with pytest.raises(DomainError, match="seed must be"):
        _checked_seed(seed)


WHOLE_SEEDS = [(0, 0), (7, 7), (np.int64(3), 3), (3.0, 3), ("3", 3), (2**70, 2**70)]


@pytest.mark.parametrize("seed, value", WHOLE_SEEDS)
def test_whole_seeds_are_read_as_ints(seed, value):
    got = _checked_seed(seed)
    assert type(got) is int and got == value


def refusing_functional(c):
    raise AssertionError("the functional ran before the seed was checked")


@pytest.mark.parametrize("seed", BAD_SEEDS, ids=repr)
def test_maximize_convex_refuses_a_bad_seed_before_the_functional(seed):
    with pytest.raises(DomainError, match="seed must be"):
        maximize_convex(refusing_functional, 8, seed=seed)


def test_maximize_convex_checks_its_other_arguments_first():
    with pytest.raises(DomainError, match="order <= 8"):
        maximize_convex(refusing_functional, 9, seed=-1)
    with pytest.raises(DomainError, match="interior_samples"):
        maximize_convex(refusing_functional, 3, interior_samples=-1, seed=-1)


def test_a_whole_seed_gives_the_search_of_its_int():
    def functional(c):
        return float(c.mass[0, 1])

    expected = maximize_convex(functional, 3, interior_samples=20, seed=5)
    for seed in (np.int64(5), 5.0, "5"):
        assert maximize_convex(functional, 3, interior_samples=20, seed=seed) == expected


def test_continuity_probe_refuses_a_bad_seed_before_building_the_target():
    # the marginal of label 1 is missing, which the target family would refuse
    marginals = {0: Marginal.continuous([(0.0, 0.0), (1.0, 1.0)])}
    with pytest.raises(DomainError, match="seed must be >= 0, got -1"):
        continuity_probe(make_independence((0, 1), 2), marginals, [0.1], seed=-1)


@pytest.mark.parametrize(
    "argv, message",
    [
        (["extremal", "--seed", "-1"], "seed must be >= 0, got -1"),
        (["compact-demo", "--seed", "-1"], "seed must be >= 0, got -1"),
        (["extremal", "--order", "-1"], "order must be >= 1, got -1"),
        (["extremal", "--order", "0", "--functional", "max_cell"], "order must be >= 1, got 0"),
    ],
)
def test_the_cli_refuses_with_exit_2(capsys, argv, message):
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"validation error: {message}\n"
