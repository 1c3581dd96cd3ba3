"""``decompose`` against its two-loop reference, bit for bit.

``tests/reference_sklar.py`` keeps ``decompose`` and its compatible-order hint
in their two-loop form: one loop snapped the CDF images onto cell boundaries,
a second binned them, and the hint carried a third copy of the boundary test.
The library snaps and bins in one loop per axis under one boundary rule.  On
every joint below both give the same copula bytes, or the same error type and
message, the "smallest compatible order" hint included.
"""

import numpy as np
from hypothesis import example, given, settings
from hypothesis import strategies as st

import reference_sklar as ref
from copulagrid import (
    Marginal,
    TensorMeasure,
    compose,
    decompose,
    discretize_joint,
    family_from_copula,
    make_comonotone,
    quantile,
    random_copula,
)
from helpers import random_continuous

SETTINGS = settings(max_examples=150, deadline=None, derandomize=True, database=None)


def outcome(fn, t, marginals, order):
    try:
        c = fn(t, marginals, order)
    except Exception as exc:  # the type and message are what is compared
        return type(exc), str(exc)
    return c.labels, c.order, c.mass.tobytes()


def assert_same(t, marginals, order):
    got = outcome(decompose, t, marginals, order)
    assert got == outcome(ref.decompose, t, marginals, order)
    return got


def composed_joint(rng, d, base, per_cell, extra):
    """A copula of order ``base`` composed with continuous marginals.

    Each axis gets ``per_cell`` quantile points per copula cell and ``extra``
    points at random levels, which no cell boundary need hit.
    """
    labels = tuple(range(d))
    copula = (
        make_comonotone(labels, base) if rng.random() < 0.25 else random_copula(labels, base, rng)
    )
    marginals = {lab: random_continuous(rng) for lab in labels}
    points = base * per_cell
    grids = {}
    for lab, m in marginals.items():
        levels = [(k + 1) / points for k in range(points)] + list(rng.uniform(0, 1, extra))
        grids[lab] = sorted({quantile(m, u) for u in levels})
    joint = discretize_joint(compose(family_from_copula(copula), marginals), labels, grids=grids)
    return joint, marginals


def margin_marginals(t):
    """Continuous marginals whose CDF at the grid points is the tensor's own margin."""
    marginals = {}
    for ax, (lab, axis) in enumerate(zip(t.labels, t.grid)):
        margin = t.mass.sum(axis=tuple(i for i in range(t.ndim) if i != ax))
        levels = np.cumsum(margin)
        levels[-1] = 1.0
        knots = [(float(axis[0]) - 1.0, 0.0)] + list(zip(axis.tolist(), levels.tolist()))
        marginals[lab] = Marginal.continuous(knots)
    return marginals


@SETTINGS
@given(
    st.one_of(
        st.tuples(st.integers(1, 2), st.integers(1, 6), st.integers(1, 3)),
        st.tuples(st.just(3), st.integers(1, 3), st.integers(1, 2)),
    ),
    st.integers(0, 2),
    st.integers(1, 12),
    st.integers(0, 2**32 - 1),
)
@example((2, 4, 3), 0, 6, 5)  # compatible: 6 divides the 12 levels per axis
@example((2, 3, 2), 0, 4, 5)  # incompatible: the hint names 2
@example((1, 1, 1), 2, 2, 9)  # one cell and two random levels: no order up to the limit
def test_composed_joints_decompose_as_the_reference(shape, extra, order, seed):
    d, base, per_cell = shape
    rng = np.random.default_rng(seed)
    joint, marginals = composed_joint(rng, d, base, per_cell, extra)
    assert_same(joint, marginals, order)


# most of these orders are incompatible, and a hint search that finds nothing
# tries every order up to its limit: fewer examples keep the file quick
@settings(max_examples=40, deadline=None, derandomize=True, database=None)
@given(st.integers(1, 3), st.integers(1, 12), st.integers(0, 2**32 - 1))
def test_tensor_margins_decompose_as_the_reference(d, order, seed):
    # integer weights put the margin levels on a coarse lattice, which some
    # small orders hit and most do not
    rng = np.random.default_rng(seed)
    grid = []
    for _ in range(d):
        k = int(rng.integers(1, 6))
        grid.append(np.sort(rng.choice(np.arange(-6, 7), size=k, replace=False)))
    shape = tuple(len(axis) for axis in grid)
    weights = rng.integers(1, 4, size=shape).astype(float)
    t = TensorMeasure(tuple(range(d)), tuple(grid), weights / weights.sum())
    assert_same(t, margin_marginals(t), order)


@SETTINGS
@given(st.sampled_from(["missing", "atomic", "deviating"]), st.integers(0, 2**32 - 1))
def test_refusals_match_the_reference(fault, seed):
    rng = np.random.default_rng(seed)
    joint, marginals = composed_joint(rng, 2, int(rng.integers(1, 5)), 2, 0)
    lab = int(rng.integers(0, 2))
    marginals = dict(marginals)
    if fault == "missing":
        del marginals[lab]
    elif fault == "atomic":
        marginals[lab] = Marginal.atomic([(0.0, 0.5), (1.0, 0.5)])
    else:
        marginals[lab] = random_continuous(rng)
    kind, message = assert_same(joint, marginals, 2)
    assert issubclass(kind, Exception) and message


def test_the_hint_names_the_smallest_compatible_order():
    joint, marginals = composed_joint(np.random.default_rng(5), 2, 3, 2, 0)
    kind, message = assert_same(joint, marginals, 4)
    assert message.endswith("; smallest compatible order is 2")
