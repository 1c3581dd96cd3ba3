"""``continuity_probe`` draws its marginal directions in canonical label order.

Relabeling the axes in a way that keeps their order keeps the report bit for
bit, also where ``str`` order differs (``10`` sorts before ``2`` as text).
Marginal keys that cannot be ordered are refused like any other label set,
and so are marginals for labels the copula does not have, after the missing
and the unorderable ones.  A value that is not a :class:`Marginal` is refused
as ``compose`` refuses it, and every refusal comes before the target family
is discretized.
"""

import numpy as np
import pytest

import copulagrid.topology
from copulagrid import (
    CheckerboardCopula,
    CompatibilityError,
    ConfigurationError,
    Marginal,
    continuity_probe,
    random_copula,
)

ATOMS = Marginal.atomic([(-1.0, 0.25), (0.0, 0.25), (2.0, 0.5)])
KNOTS = Marginal.continuous([(0.0, 0.0), (1.0, 0.4), (3.0, 1.0)])
COIN = Marginal.atomic([(0.0, 0.5), (1.0, 0.5)])
SCHEDULE = [0.1, 0.01, 0.0]


def probe(labels, mass, seed=3):
    copula = CheckerboardCopula(labels, mass.shape[0], mass)
    marginals = dict(zip(labels, [ATOMS, KNOTS, COIN]))
    return continuity_probe(copula, marginals, SCHEDULE, seed=seed)


@pytest.mark.parametrize("labels", [(2, 10), (2, 3), (9, 10), ("a", "b"), (-1, 0)])
def test_order_preserving_relabeling_keeps_the_report(labels):
    mass = random_copula((0, 1), 3, np.random.default_rng(5)).mass
    assert probe(labels, mass) == probe((0, 1), mass)


def test_order_preserving_relabeling_keeps_the_report_in_three_dimensions():
    mass = random_copula((0, 1, 2), 2, np.random.default_rng(8)).mass
    assert probe((3, 10, 20), mass, seed=1) == probe((0, 1, 2), mass, seed=1)


def test_the_unperturbed_step_reads_zero_after_relabeling():
    mass = random_copula((0, 1), 3, np.random.default_rng(5)).mass
    last = probe((2, 10), mass).steps[-1]
    assert (last.epsilon, last.input_distance, last.output_distance) == (0.0, 0.0, 0.0)


def test_marginal_keys_that_cannot_be_ordered_are_refused():
    copula = CheckerboardCopula((0, 1), 2, np.full((2, 2), 0.25))
    marginals = {0: ATOMS, 1: KNOTS, "a": ATOMS}
    with pytest.raises(CompatibilityError, match="^labels are not mutually orderable: "):
        continuity_probe(copula, marginals, [0.1])


@pytest.mark.parametrize("marginals", [{}, {1: KNOTS}])
def test_missing_marginals_are_named_before_any_label_is_ordered(marginals):
    copula = CheckerboardCopula((0, 1), 2, np.full((2, 2), 0.25))
    with pytest.raises(ConfigurationError, match="^marginals missing for labels "):
        continuity_probe(copula, marginals, [0.1])


@pytest.mark.parametrize("extra", [{7: COIN}, {-1: COIN, 7: ATOMS}])
def test_marginals_the_copula_never_reads_are_refused(extra):
    copula = random_copula((0, 1), 3, np.random.default_rng(5))
    marginals = {0: ATOMS, 1: KNOTS, **extra}
    with pytest.raises(ConfigurationError) as refusal:
        continuity_probe(copula, marginals, SCHEDULE, seed=3)
    unread = sorted(extra)
    assert str(refusal.value) == f"marginals for labels {unread!r} that the copula does not read"


def test_missing_marginals_are_named_before_unread_ones():
    copula = CheckerboardCopula((0, 1), 2, np.full((2, 2), 0.25))
    with pytest.raises(ConfigurationError, match="^marginals missing for labels "):
        continuity_probe(copula, {1: KNOTS, 7: COIN}, [0.1])


def test_a_value_that_is_not_a_marginal_is_refused_as_compose_refuses_it():
    copula = CheckerboardCopula((0, 1), 2, np.full((2, 2), 0.25))
    with pytest.raises(ConfigurationError, match="^marginal for 0 is not a Marginal$"):
        continuity_probe(copula, {0: "x", 1: COIN}, [0.1])


def test_unread_marginals_are_refused_before_the_target_is_discretized(monkeypatch):
    calls = []
    discretize = copulagrid.topology.discretize_joint
    monkeypatch.setattr(
        copulagrid.topology,
        "discretize_joint",
        lambda *args, **kwargs: calls.append(args) or discretize(*args, **kwargs),
    )
    copula = random_copula((0, 1), 3, np.random.default_rng(5))
    with pytest.raises(ConfigurationError, match="^marginals for labels \\[7\\] that the copula"):
        continuity_probe(copula, {0: ATOMS, 1: KNOTS, 7: COIN}, SCHEDULE, seed=3)
    assert calls == []
    continuity_probe(copula, {0: ATOMS, 1: KNOTS}, SCHEDULE, seed=3)
    assert calls  # the probe discretizes through the name the refusal test watches
