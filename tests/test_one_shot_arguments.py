"""The probes read an iterable argument once, and refuse a config of the wrong type.

``continuity_probe`` checks its schedule before it runs it, and
``compactness_probe`` indexes its sequence, so each reads its argument into a
list first: a generator, an iterator or a numpy array gives the report a list
gives, bit for bit.  Read twice, a generator left an empty report after its
check.  ``fdd_distance`` refuses a ``config`` that is not an
:class:`FddMetricConfig` with a typed error, and so does ``continuity_probe``,
which hands its ``config`` on.
"""

import numpy as np
import pytest

from copulagrid import (
    ConfigurationError,
    DomainError,
    FddMetricConfig,
    Marginal,
    compactness_probe,
    continuity_probe,
    family_from_copula,
    fdd_distance,
    make_comonotone,
    make_independence,
    random_copula,
)

MARGINALS = {
    0: Marginal.atomic([(-1.0, 0.25), (0.0, 0.5), (2.0, 0.25)]),
    1: Marginal.continuous([(0.0, 0.0), (1.0, 0.4), (3.0, 1.0)]),
}
SCHEDULE = [0.1, 0.01, 0.0]
SHAPES = {
    "list": list,
    "tuple": tuple,
    "generator": lambda xs: (x for x in xs),
    "iterator": iter,
    "numpy array": np.array,
}


def report_bits(report):
    return [
        (s.epsilon.hex(), s.input_distance.hex(), s.output_distance.hex()) for s in report.steps
    ]


@pytest.mark.parametrize("shape", sorted(SHAPES))
def test_every_schedule_shape_gives_the_list_report(shape):
    copula = random_copula((0, 1), 3, np.random.default_rng(5))
    want = report_bits(continuity_probe(copula, MARGINALS, SCHEDULE, seed=2))
    assert len(want) == len(SCHEDULE)
    got = continuity_probe(copula, MARGINALS, SHAPES[shape](SCHEDULE), seed=2)
    assert report_bits(got) == want


def test_a_generator_schedule_is_refused_before_the_seed_and_the_labels():
    copula = make_independence((0, 1), 2)
    marginals = {**MARGINALS, 5: MARGINALS[0]}  # a label the copula does not read
    with pytest.raises(ConfigurationError, match="^perturbation size 1.5 outside"):
        continuity_probe(copula, marginals, (e for e in [0.1, 1.5]), seed=-1)
    with pytest.raises(DomainError, match="^seed must be >= 0"):
        continuity_probe(copula, marginals, (e for e in [0.1]), seed=-1)
    with pytest.raises(ConfigurationError, match="^marginals for labels "):
        continuity_probe(copula, marginals, (e for e in [0.1]))


@pytest.mark.parametrize("shape", ["generator", "iterator"])
def test_a_one_shot_sequence_clusters_like_its_list(shape):
    rng = np.random.default_rng(9)
    seq = [random_copula((0, 1), 3, rng) for _ in range(5)] + [make_comonotone((0, 1), 3)] * 3
    want = compactness_probe(seq, 0.05)
    got = compactness_probe(SHAPES[shape](seq), 0.05)
    assert (got.indices, got.representative_index, got.num_clusters) == (
        want.indices,
        want.representative_index,
        want.num_clusters,
    )
    assert got.representative is seq[got.representative_index]
    c = make_independence((0, 1), 2)
    assert compactness_probe(iter([c, c]), 0.1).indices == (0, 1)
    with pytest.raises(DomainError, match="^compactness probe needs a nonempty sequence$"):
        compactness_probe(iter([]), 0.1)


@pytest.mark.parametrize("config", [3, None, 7.0, "depth", {"depth": 3}])
def test_a_config_of_another_type_is_refused(config):
    f = family_from_copula(make_independence((0, 1), 2))
    g = family_from_copula(make_comonotone((0, 1), 2))
    with pytest.raises(ConfigurationError, match="^config must be an FddMetricConfig, not "):
        fdd_distance(f, g, config)
    with pytest.raises(ConfigurationError, match="^config must be an FddMetricConfig, not "):
        continuity_probe(make_independence((0, 1), 2), MARGINALS, [0.1], config=config)
    assert fdd_distance(f, g, FddMetricConfig(3)) > 0.0
