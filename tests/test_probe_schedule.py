"""``continuity_probe`` fits its perturbed copulas in one stack, in schedule order.

Every nonzero ``eps`` of the schedule perturbs the copula tensor along one
random direction; the probe fits all of those tensors together, and each step
must still read the copula fitted for its own ``eps``.  The reference below
fits each step alone with ``fit_uniform_margins``, as the probe once did, so
the reports must agree bit for bit, and a slice handed to another step changes
the step's input distance.
"""

import numpy as np
import pytest

from copulagrid import (
    CheckerboardCopula,
    Marginal,
    continuity_probe,
    fdd_distance,
    fit_uniform_margins,
    random_copula,
    transport_distance,
    w1_one_dim,
)
from copulagrid.measures import ATOMIC, canonical_labels
from copulagrid.topology import ContinuityReport, ContinuityStep, _joint_family, _perturb_marginal

MARGINALS = {
    0: Marginal.atomic([(-1.0, 0.25), (0.0, 0.25), (2.0, 0.5)]),
    1: Marginal.continuous([(0.0, 0.0), (1.0, 0.4), (3.0, 1.0)]),
    2: Marginal.atomic([(0.0, 0.5), (1.0, 0.5)]),
}
SCHEDULES = [
    [0.25, 0.0, 0.25, 0.1, 0.0],
    [0.0, 0.3, 0.05, 0.2],
    [0.1],
    [0.0, 0.0],
]


def reference_probe(copula, marginals, epsilons, seed):
    """The probe's steps with each perturbed copula fitted alone, step by step."""
    target_fdd = _joint_family(copula, marginals)
    rng = np.random.default_rng(seed)
    cop_dir = rng.uniform(-1.0, 1.0, size=copula.mass.shape)
    labels = canonical_labels(marginals)
    marg_dirs = {}
    for lab in labels:
        m = marginals[lab]
        size = len(m.xs) if m.kind == ATOMIC else len(m.xs) - 1
        marg_dirs[lab] = rng.uniform(-1.0, 1.0, size=size)
    steps = []
    for eps in map(float, epsilons):
        if eps == 0.0:
            pert_copula, pert_marginals = copula, dict(marginals)
        else:
            mass = fit_uniform_margins(copula.mass * (1.0 + eps * cop_dir))
            pert_copula = CheckerboardCopula(copula.labels, copula.order, mass)
            pert_marginals = {
                lab: _perturb_marginal(m, eps, marg_dirs[lab]) for lab, m in marginals.items()
            }
        input_dist = transport_distance(pert_copula, copula)
        for lab in labels:
            input_dist += w1_one_dim(pert_marginals[lab], marginals[lab])
        out = fdd_distance(_joint_family(pert_copula, pert_marginals), target_fdd)
        steps.append(ContinuityStep(eps, float(input_dist), float(out)))
    return ContinuityReport(tuple(steps))


def bits(report):
    return [
        (s.epsilon.hex(), s.input_distance.hex(), s.output_distance.hex()) for s in report.steps
    ]


@pytest.mark.parametrize("schedule", SCHEDULES, ids=str)
@pytest.mark.parametrize("labels, order, seed", [((0, 1), 3, 4), ((0, 1, 2), 2, 9)])
def test_the_stacked_fit_gives_each_step_its_own_copula(schedule, labels, order, seed):
    copula = random_copula(labels, order, np.random.default_rng(seed))
    marginals = {lab: MARGINALS[lab] for lab in labels}
    got = continuity_probe(copula, marginals, schedule, seed=seed)
    assert bits(got) == bits(reference_probe(copula, marginals, schedule, seed))


def test_each_nonzero_step_reads_its_own_copula():
    """The steps' input distances differ by ``eps``, so a slice on the wrong step would show."""
    copula = random_copula((0, 1), 3, np.random.default_rng(4))
    report = continuity_probe(copula, {0: MARGINALS[0], 1: MARGINALS[1]}, SCHEDULES[0], seed=4)
    by_eps = {s.epsilon: s.input_distance for s in report.steps}
    assert len(set(by_eps.values())) == 3 and by_eps[0.0] == 0.0
