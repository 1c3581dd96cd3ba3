"""The Sklar layer against its pointwise reference, bit for bit.

``tests/reference_sklar.py`` holds the copula CDF with one ``np.tensordot``
per axis and ``verify_sklar`` with one ``joint_cdf`` and one
``cdf_eval_tensor`` call per probe.  The library contracts through
``copulas._contract`` and sweeps the probes once, also against a tensor it
did not build; values, worst probes, counts and errors must not change.
"""

import itertools
import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import reference_sklar as ref
from copulagrid import (
    NEG_INF,
    POS_INF,
    CheckerboardCopula,
    CompatibilityError,
    DomainError,
    Marginal,
    TensorMeasure,
    cdf_eval_copula,
    compose,
    decompose,
    discretize_joint,
    family_from_copula,
    make_comonotone,
    make_countermonotone,
    make_independence,
    quantile,
    random_copula,
    verify_sklar,
)
from copulagrid.sklar import _sweep
from helpers import random_atomic, random_continuous, random_tensor

SETTINGS = settings(max_examples=60, deadline=None, derandomize=True, database=None)


def build_copula(kind, d, n, rng):
    labels = tuple(range(d))
    if kind == "comonotone":
        return make_comonotone(labels, n)
    if kind == "independence":
        return make_independence(labels, n)
    if kind == "countermonotone" and d == 2:
        return make_countermonotone(labels, n)
    return random_copula(labels, n, rng)


def same_bits(a, b):
    return float(a).hex() == float(b).hex()


copula_kinds = st.sampled_from(["random", "comonotone", "independence", "countermonotone"])


@SETTINGS
@given(st.integers(1, 3), st.integers(1, 8), copula_kinds, st.integers(0, 2**32 - 1))
@example(3, 8, "random", 0)
@example(1, 1, "random", 1)
def test_copula_cdf_matches_reference(d, n, kind, seed):
    rng = np.random.default_rng(seed)
    c = build_copula(kind, d, n, rng)
    nodes = np.arange(n + 1) / n
    points = [
        [0.0] * d,
        [1.0] * d,
        rng.uniform(0.0, 1.0, size=d).tolist(),
        rng.choice(nodes, size=d).tolist(),
        rng.choice([0.0, 1.0, 0.5, float(rng.uniform())], size=d).tolist(),
        [float(np.nextafter(x, 1.0)) for x in rng.choice(nodes, size=d)],
    ]
    for u in points:
        assert same_bits(cdf_eval_copula(c, u), ref.cdf_eval_copula(c, u)), u


def random_joint(d, n, rng):
    """A composed joint over ``range(d)`` and the grids the CLI would use."""
    copula = random_copula(tuple(range(d)), n, rng)
    marginals = {}
    for lab in range(d):
        if rng.random() < 0.5:
            marginals[lab] = random_atomic(rng, max_atoms=5, allow_inf=True)
        else:
            marginals[lab] = random_continuous(rng, max_knots=6)
    grids = {
        lab: [quantile(m, (k + 1) / n) for k in range(n)]
        for lab, m in marginals.items()
        if m.kind != "atomic"
    }
    return compose(family_from_copula(copula), marginals), grids


def assert_same_check(jm, subset, make_probes, grids):
    got = verify_sklar(jm, subset, make_probes(), grids=grids)
    want = ref.verify_sklar(jm, subset, make_probes(), grids=grids)
    assert same_bits(got.max_deviation, want.max_deviation)
    assert got.probes_checked == want.probes_checked
    assert got.worst_probe == want.worst_probe
    if want.worst_probe is not None:
        assert all(same_bits(a, b) for a, b in zip(got.worst_probe, want.worst_probe))


def probe_sets(joint, rng):
    """Probe iterables over and off the joint's grid, each built afresh per call."""
    axes = [list(axis) for axis in joint.grid]
    grid = list(itertools.product(*axes))
    order = rng.permutation(len(grid))
    cut = int(rng.integers(1, len(grid) + 1))
    finite = [a for axis in axes for a in axis if math.isfinite(a)] or [0.0]
    lo, hi = min(finite) - 1.0, max(finite) + 1.0

    def off_grid(count):
        pool = [NEG_INF, POS_INF, lo, hi, *rng.uniform(lo, hi, size=4).tolist()]
        picks = rng.integers(0, len(pool), size=(count, len(axes)))
        return [tuple(pool[k] for k in row) for row in picks]

    off = off_grid(40)
    return {
        "grid": lambda: grid,
        "islice": lambda: itertools.islice(itertools.product(*axes), cut),
        "shuffled": lambda: [grid[k] for k in order],
        "off_grid": lambda: off,
        "generator": lambda: (tuple(np.asarray(p) * 1.0) for p in grid[::-1]),
        "empty": lambda: [],
    }


@SETTINGS
@given(st.integers(1, 3), st.integers(1, 6), st.integers(0, 2**32 - 1))
@example(3, 6, 0)
@example(2, 8, 5)
def test_verify_sklar_matches_reference(d, n, seed):
    rng = np.random.default_rng(seed)
    jm, grids = random_joint(d, n, rng)
    subset = tuple(range(d))
    joint = discretize_joint(jm, subset, grids=grids)
    for make in probe_sets(joint, rng).values():
        assert_same_check(jm, subset, make, grids)


def tensors_not_from_discretize(d, n, rng):
    """A decomposed joint law and tensors over its labels that its discretization did not build.

    As in the CLI's ``decompose``: a joint of continuous marginals on the quantile
    grid, its recovered copula composed with the same marginals, and that joint,
    a reweighted copy on the same grid and a random tensor on another grid.
    """
    labels = tuple(range(d))
    marginals = {lab: random_continuous(rng, max_knots=6) for lab in labels}
    grids = {lab: [quantile(m, (k + 1) / n) for k in range(n)] for lab, m in marginals.items()}
    joint = discretize_joint(
        compose(family_from_copula(random_copula(labels, n, rng)), marginals), labels, grids=grids
    )
    back = compose(family_from_copula(decompose(joint, marginals, n)), marginals)
    weights = rng.dirichlet(np.ones(joint.mass.size)).reshape(joint.mass.shape)
    return back, [joint, TensorMeasure(labels, joint.grid, weights), random_tensor(rng, labels)]


@SETTINGS
@given(st.integers(1, 3), st.integers(1, 6), st.integers(0, 2**32 - 1))
@example(3, 6, 0)
@example(2, 5, 9)
def test_sweep_of_a_given_tensor_matches_reference(d, n, seed):
    rng = np.random.default_rng(seed)
    jm, tensors = tensors_not_from_discretize(d, n, rng)
    for t in tensors:
        for make in probe_sets(t, rng).values():
            got = _sweep(jm, t, make())
            want = ref.check_tensor(jm, t, make())
            assert same_bits(got.max_deviation, want.max_deviation)
            assert got.probes_checked == want.probes_checked
            assert got.worst_probe == want.worst_probe


def test_infinite_atoms_and_unsorted_labels():
    rng = np.random.default_rng(7)
    copula = random_copula(("a", "b", "c"), 4, rng)
    atoms = Marginal.atomic([(NEG_INF, 0.25), (0.0, 0.25), (1.0, 0.25), (POS_INF, 0.25)])
    marginals = {"a": atoms, "b": random_atomic(rng, allow_inf=True), "c": atoms}
    jm = compose(family_from_copula(copula), marginals)
    joint = discretize_joint(jm, ("c", "a", "b"))
    probes = list(itertools.product(*[list(axis) for axis in joint.grid]))
    assert_same_check(jm, ("c", "b", "a"), lambda: probes, None)


def test_lazy_values_are_clamped_like_the_reference():
    # a total mass just above one puts the unclamped lazy CDF above one at the top corner
    for d in (1, 2, 3):
        labels = tuple(range(d))
        mass = make_independence(labels, 3).mass * (1.0 + 1e-13)
        jm = compose(
            family_from_copula(CheckerboardCopula(labels, 3, mass)),
            {lab: Marginal.atomic([(0.0, 0.5), (POS_INF, 0.5)]) for lab in labels},
        )
        joint = discretize_joint(jm, labels)
        probes = list(itertools.product(*[list(axis) for axis in joint.grid]))
        assert_same_check(jm, labels, lambda: probes, None)
        assert verify_sklar(jm, labels, probes).max_deviation > 0.0


def raised(fn):
    try:
        fn()
    except Exception as exc:  # compared by type and message below
        return type(exc), str(exc)
    return None


@pytest.mark.parametrize(
    "bad",
    [
        (math.nan, 0.5, 0.5),
        (0.5, math.nan, math.nan),
        (0.5, 0.5, math.nan),
        (math.nan, "not a number", 0.5),
        (0.5, "not a number", math.nan),
        (0.5, None, 0.5),
        (0.5, 0.5),
        (0.5, 0.5, 0.5, 0.5),
        (),
    ],
)
def test_errors_match_reference(bad):
    rng = np.random.default_rng(3)
    jm, grids = random_joint(3, 4, rng)
    good = [(0.1, 0.2, 0.3), (POS_INF, NEG_INF, 0.0)]
    for probes in ([bad], good + [bad] + good):
        got = raised(lambda: verify_sklar(jm, (0, 1, 2), iter(probes), grids=grids))
        want = raised(lambda: ref.verify_sklar(jm, (0, 1, 2), iter(probes), grids=grids))
        assert got is not None and got == want


def test_probe_without_length_matches_reference():
    rng = np.random.default_rng(4)
    jm, grids = random_joint(2, 3, rng)
    got = raised(lambda: verify_sklar(jm, (0, 1), [iter((0.1, 0.2))], grids=grids))
    want = raised(lambda: ref.verify_sklar(jm, (0, 1), [iter((0.1, 0.2))], grids=grids))
    assert got is not None and got == want


@pytest.mark.parametrize("u", [-0.1, 1.5, math.nan, -math.inf, math.inf, "x"])
def test_copula_domain_errors_match_reference(u):
    c = random_copula((0, 1), 3, np.random.default_rng(0))
    for point in ([u, 0.5], [0.5, u], [0.5], [0.5, 0.5, u]):
        got = raised(lambda: cdf_eval_copula(c, point))
        assert got is not None and got == raised(lambda: ref.cdf_eval_copula(c, point))
    assert raised(lambda: cdf_eval_copula(c, [0.5, u]))[0] in (DomainError, ValueError)
    assert raised(lambda: cdf_eval_copula(c, [0.5]))[0] is CompatibilityError
