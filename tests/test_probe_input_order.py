"""``continuity_probe`` adds its input-side terms in canonical label order.

Equal marginal mappings built in different insertion orders give the same
report bit for bit: the marginal directions are drawn, and the one-dimensional
distances summed, in :func:`canonical_labels` order.  With the terms added in
insertion order, half of these cases differed in the input distance's last
bit; the output distances did not.
"""

import itertools

import numpy as np
import pytest

from copulagrid import Marginal, continuity_probe, random_copula


def atoms(rng):
    k = int(rng.integers(2, 5))
    xs = np.sort(rng.choice(np.arange(-5, 6), size=k, replace=False)).astype(float)
    w = rng.uniform(0.1, 1.0, size=k)
    return Marginal.atomic(list(zip(xs.tolist(), (w / w.sum()).tolist())))


@pytest.mark.parametrize("seed", range(16))
def test_reversed_mapping_gives_the_same_report(seed):
    rng = np.random.default_rng(seed)
    copula = random_copula((0, 1, 2), 2, rng)
    marginals = {lab: atoms(rng) for lab in (0, 1, 2)}
    reversed_marginals = dict(reversed(list(marginals.items())))
    schedule = [0.1, 0.01]
    assert continuity_probe(copula, reversed_marginals, schedule, seed=seed) == continuity_probe(
        copula, marginals, schedule, seed=seed
    )


@pytest.mark.parametrize("seed", [0, 3, 7])
def test_every_insertion_order_gives_the_same_input_distance(seed):
    rng = np.random.default_rng(seed)
    copula = random_copula(("a", "b", "c"), 2, rng)
    marginals = {lab: atoms(rng) for lab in ("a", "b", "c")}
    distances = {
        continuity_probe(copula, {lab: marginals[lab] for lab in order}, [0.1]).steps[0]
        .input_distance.hex()
        for order in itertools.permutations(marginals)
    }
    assert len(distances) == 1
