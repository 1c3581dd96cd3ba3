"""The order a ``decompose`` refusal names is one that ``decompose`` accepts.

A refused order may end in "smallest compatible order is h".  ``h`` must then
be the smallest order >= 2 whose interior cell boundaries the CDF levels of
the grid points all hit and whose binning ``decompose`` accepts; an order that
hits every boundary but misses uniform margins is passed over.  With no such
order the refusal names none.
"""

import re

import numpy as np
from hypothesis import example, given, settings
from hypothesis import strategies as st

from copulagrid import (
    ValidationError,
    cdf_eval,
    compose,
    decompose,
    discretize_joint,
    random_copula,
    serialize,
)
from copulagrid.cli import _quantile_grids
from copulagrid.projective import family_from_copula
from copulagrid.sklar import _BOUNDARY_SNAP
from helpers import run_cli
from test_compose_decompose_roundtrip import stressed_continuous
from test_decompose_reference import composed_joint

NAMED = re.compile(r"; smallest compatible order is (\d+)$")


def accepts(joint, marginals, order):
    try:
        decompose(joint, marginals, order)
    except ValidationError:
        return False
    return True


def named_order(joint, marginals, order):
    """The order the refusal of ``order`` names, or ``None``; ``order`` must be refused."""
    try:
        decompose(joint, marginals, order)
    except ValidationError as exc:
        found = NAMED.search(str(exc))
        return int(found.group(1)) if found else None
    raise AssertionError(f"order {order} was accepted")


def hits_every_boundary(joint, marginals, order):
    """Each interior ``k/order`` lies within the snap distance of a grid point's CDF level."""
    for lab, axis in zip(joint.labels, joint.grid):
        scaled = np.array([cdf_eval(marginals[lab], x) for x in axis]) * order
        near = np.abs(scaled - np.rint(scaled)) <= _BOUNDARY_SNAP * order
        if not set(range(1, order)) <= set(np.rint(scaled[near]).astype(int).tolist()):
            return False
    return True


def roundtrip_joint(seed, order):
    """The 1-d joint of ``test_compose_decompose_roundtrip``'s generator at ``seed``."""
    rng = np.random.default_rng(seed)
    copula = random_copula((0,), order, rng)
    marginals = {0: stressed_continuous(rng)}
    jm = compose(family_from_copula(copula), marginals)
    return discretize_joint(jm, (0,), grids=_quantile_grids(jm, (0,), order)), marginals


def test_a_named_order_is_accepted_on_the_steep_knot_joints():
    """Seed 0 (order 7) named order 7 at orders 2-6 and 8-10, and order 7 is refused;
    seed 9 (order 4) named order 2 at orders 3 and 5-10, and order 2 is refused."""
    for seed, order in [(0, 7), (9, 4)]:
        joint, marginals = roundtrip_joint(seed, order)
        for n in range(2, 11):
            hint = named_order(joint, marginals, n)
            assert hint is None or accepts(joint, marginals, hint), (seed, n, hint)


@settings(max_examples=150, deadline=None, derandomize=True, database=None)
@given(
    st.one_of(
        st.tuples(st.integers(1, 2), st.integers(1, 6), st.integers(1, 3)),
        st.tuples(st.just(3), st.integers(1, 3), st.integers(1, 2)),
    ),
    st.integers(0, 2),
    st.integers(1, 12),
    st.integers(0, 2**32 - 1),
)
# both named order 2, which hits every boundary and is refused
@example((2, 4, 1), 0, 3, 177)
@example((2, 1, 2), 2, 5, 161)
def test_the_named_order_is_the_smallest_accepted_one(shape, extra, order, seed):
    d, base, per_cell = shape
    joint, marginals = composed_joint(np.random.default_rng(seed), d, base, per_cell, extra)
    if accepts(joint, marginals, order):
        return
    hint = named_order(joint, marginals, order)
    if hint is not None:
        assert accepts(joint, marginals, hint)
    elif hits_every_boundary(joint, marginals, order):
        return  # the refusal says every boundary is hit, and searches no other order
    # an order past the grid size plus one cannot hit every boundary
    last = max(len(axis) for axis in joint.grid) + 1 if hint is None else hint - 1
    for c in range(2, last + 1):
        if hits_every_boundary(joint, marginals, c):
            assert not accepts(joint, marginals, c), c


def test_the_cli_names_no_refused_order(tmp_path):
    joint, marginals = roundtrip_joint(0, 7)
    (tmp_path / "joint.json").write_text(serialize.dumps(serialize.encode_tensor(joint)))
    (tmp_path / "marginals.json").write_text(serialize.dumps(serialize.encode_marginals(marginals)))
    proc = run_cli("decompose", "joint.json", "marginals.json", "--order", "3", cwd=tmp_path)
    stderr = proc.stderr.decode()
    assert (proc.returncode, proc.stdout) == (2, b""), stderr
    assert stderr.startswith("validation error: order 3 is incompatible with the CDF images")
    for hint in re.findall(r"smallest compatible order is (\d+)", stderr):
        assert accepts(joint, marginals, int(hint)), stderr
