"""The point readers against their reference copies, bit for bit, and their typed errors.

``cdf_eval`` and ``quantile`` interpolate on Python floats, ``cdf_eval_tensor``
and ``sklar._sweep`` sum the slice below a point through one helper, and
``_sweep`` keeps each coordinate's eager slice end next to its cell weights.
On knots and atoms, their float neighbours, infinite atoms, ``-0.0`` and the
levels ``k/n`` every reader gives its reference copy's bits as a Python
``float``, and every eager value of a sweep is the one ``cdf_eval_tensor``
gives.  An argument that is not a real number, or lies beyond the float range,
is refused with ``DomainError`` by every reader.
"""

import itertools
import math
import re
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import reference_marginals
import reference_readers
import reference_sklar
from copulagrid import (
    NEG_INF,
    POS_INF,
    CheckerboardCopula,
    DomainError,
    Marginal,
    cdf_eval,
    cdf_eval_copula,
    cdf_eval_tensor,
    compose,
    discretize_joint,
    family_from_copula,
    joint_cdf,
    quantile,
    random_copula,
    verify_sklar,
)
from copulagrid import sklar
from copulagrid.copulas import _bounds
from helpers import random_atomic, random_continuous, random_tensor

SETTINGS = settings(max_examples=100, deadline=None, derandomize=True, database=None)

KINDS = ["atomic", "infinite atoms", "continuous"]


def bits(value):
    assert type(value) is float
    return value.hex()


def neighbours(values):
    out = []
    for v in values:
        v = float(v)
        out += [v, math.nextafter(v, -math.inf), math.nextafter(v, math.inf)]
    return out


def law(kind, rng):
    if kind == "continuous":
        return random_continuous(rng, max_knots=8)
    if kind == "atomic":
        return random_atomic(rng, max_atoms=6, allow_inf=True)
    # atoms at both infinities and at 0.0, where -0.0 reads the same ray
    finite = np.unique(np.round(rng.normal(size=int(rng.integers(0, 4))), 2)).tolist()
    xs = sorted(set(finite) | {0.0})
    xs = [NEG_INF] + xs + [POS_INF]
    return Marginal.atomic(list(zip(xs, rng.dirichlet(np.ones(len(xs))))))


def joint(d, n, rng, kinds=KINDS):
    """A composed joint over ``range(d)``, its eager tensor and the grids the CLI would use."""
    labels = tuple(range(d))
    marginals = {lab: law(kinds[int(rng.integers(0, len(kinds)))], rng) for lab in labels}
    grids = {
        lab: sorted({quantile(m, (k + 1) / n) for k in range(n)})
        for lab, m in marginals.items()
        if m.kind != "atomic"
    }
    jm = compose(family_from_copula(random_copula(labels, n, rng)), marginals)
    return jm, discretize_joint(jm, labels, grids=grids)


def coordinates(axis):
    """Grid points, their neighbours, midpoints, both infinities and both zeros."""
    axis = [float(x) for x in axis]
    finite = [x for x in axis if math.isfinite(x)]
    mids = [0.5 * (a + b) for a, b in zip(finite, finite[1:])]
    return neighbours(axis) + mids + [NEG_INF, POS_INF, 0.0, -0.0]


@SETTINGS
@given(st.sampled_from(KINDS), st.integers(1, 40), st.integers(0, 2**32 - 1))
@example("infinite atoms", 4, 0)
@example("continuous", 40, 0)
def test_marginal_readers_match_the_reference(kind, n, seed):
    rng = np.random.default_rng(seed)
    m = law(kind, rng)
    for x in coordinates(m.xs) + rng.normal(size=4).tolist():
        want = bits(reference_marginals.cdf_eval(m, x))
        assert bits(cdf_eval(m, x)) == want, x
        assert bits(cdf_eval(m, np.float64(x))) == want, x
    levels = [k / n for k in range(n + 1)] + neighbours(m.fs) + [-0.0, 1.0]
    for u in levels:
        if 0.0 <= u <= 1.0:
            want = bits(reference_marginals.quantile(m, u))
            assert bits(quantile(m, u)) == want, u
            assert bits(quantile(m, np.float64(u))) == want, u


@SETTINGS
@given(st.integers(1, 3), st.integers(1, 9), st.integers(0, 2**32 - 1))
@example(3, 9, 0)
def test_copula_cdf_matches_the_reference_at_cell_boundaries(d, n, seed):
    rng = np.random.default_rng(seed)
    c = random_copula(tuple(range(d)), n, rng)
    levels = [u for u in neighbours(_bounds(n)) if 0.0 <= u <= 1.0] + [-0.0]
    points = [[1.0] * d, [-0.0] * d]
    points += [[levels[k] for k in rng.integers(0, len(levels), size=d)] for _ in range(40)]
    for u in points:
        assert bits(cdf_eval_copula(c, u)) == bits(reference_sklar.cdf_eval_copula(c, u)), u


@SETTINGS
@given(st.integers(1, 3), st.integers(1, 6), st.integers(0, 2**32 - 1))
@example(3, 6, 0)
def test_tensor_and_joint_cdfs_match_the_reference(d, n, seed):
    rng = np.random.default_rng(seed)
    jm, eager = joint(d, n, rng)
    labels = tuple(range(d))
    given_order = tuple(reversed(labels))
    for t in (eager, random_tensor(rng, labels)):
        axes = [coordinates(axis) for axis in t.grid]
        for _ in range(60):
            point = [axis[int(rng.integers(0, len(axis)))] for axis in axes]
            assert bits(cdf_eval_tensor(t, point)) == bits(
                reference_readers.cdf_eval_tensor(t, point)
            ), point
            got = joint_cdf(jm, given_order, point[::-1])
            assert bits(got) == bits(reference_sklar.joint_cdf(jm, labels, point)), point


def sweep_probes(t, rng):
    """Probes off the grid, repeated, out of product order, and below the grid on some axis."""
    axes = [coordinates(axis) for axis in t.grid]
    grid = list(itertools.product(*[list(axis) for axis in t.grid]))
    off = [tuple(axis[int(rng.integers(0, len(axis)))] for axis in axes) for _ in range(30)]
    below = []
    for j, axis in enumerate(t.grid):
        low = math.nextafter(float(axis[0]), -math.inf)
        if low != float(axis[0]):
            below += [p[:j] + (low,) + p[j + 1 :] for p in grid[:: max(1, len(grid) // 4)]]
    shuffled = [grid[k] for k in rng.permutation(len(grid))]
    probes = grid + off + off[:10] + shuffled + grid[::-1] + below + grid[:3]
    return probes, below


@SETTINGS
@given(st.integers(1, 3), st.integers(1, 6), st.integers(0, 2**32 - 1))
@example(3, 6, 0)
@example(2, 4, 7)
def test_sweep_eager_values_are_the_tensor_cdf(d, n, seed):
    rng = np.random.default_rng(seed)
    jm, eager = joint(d, n, rng)
    mass_below = sklar._mass_below
    for t in (eager, random_tensor(rng, eager.labels)):
        probes, below = sweep_probes(t, rng)
        seen = []

        def recording(mass, ends):
            value = mass_below(mass, ends)
            seen.append(value)
            return value

        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(sklar, "_mass_below", recording)
            got = sklar._sweep(jm, t, probes)
        assert [bits(v) for v in seen] == [bits(cdf_eval_tensor(t, p)) for p in probes]
        assert all(cdf_eval_tensor(t, p) == 0.0 for p in below)
        want = reference_sklar.check_tensor(jm, t, probes)
        assert bits(got.max_deviation) == bits(want.max_deviation)
        assert (got.probes_checked, got.worst_probe) == (want.probes_checked, want.worst_probe)


def test_probes_below_the_eager_grid_read_zero_and_minus_zero_reads_the_atom_at_zero():
    labels = (0, 1)
    atoms = Marginal.atomic([(0.0, 0.5), (1.0, 0.5)])
    copula = random_copula(labels, 3, np.random.default_rng(1))
    jm = compose(family_from_copula(copula), {0: atoms, 1: atoms})
    t = discretize_joint(jm, labels)
    probes = [(-1.0, 2.0), (NEG_INF, POS_INF), (1.0, -5e-324), (-0.0, -0.0), (-0.0, 1.0)]
    got = [cdf_eval_tensor(t, p) for p in probes]
    assert [bits(v) for v in got] == [bits(reference_readers.cdf_eval_tensor(t, p)) for p in probes]
    assert got[:3] == [0.0, 0.0, 0.0] and got[3] > 0.0
    assert got[3:] == [cdf_eval_tensor(t, (0.0, 0.0)), cdf_eval_tensor(t, (0.0, 1.0))]
    assert sklar._sweep(jm, t, probes) == reference_sklar.check_tensor(jm, t, probes)


# -- typed errors -------------------------------------------------------------

NOT_REAL = ["x", None, True]
BEYOND = [10**400, -(10**400), Fraction(10**400, 3)]
BEYOND_IDS = ["10**400", "-10**400", "Fraction(10**400, 3)"]


def readers():
    """Each reader with one argument left open, and the name its messages give that argument."""
    rng = np.random.default_rng(5)
    m = random_continuous(rng)
    c = random_copula((0, 1), 4, rng)
    jm = compose(family_from_copula(c), {0: m, 1: m})
    grids = {lab: [float(m.xs[-1])] for lab in (0, 1)}
    t = discretize_joint(jm, (0, 1), grids=grids)
    return {
        "cdf_eval": (lambda v: cdf_eval(m, v), "cdf argument"),
        "quantile": (lambda v: quantile(m, v), "quantile level"),
        "cdf_eval_tensor": (lambda v: cdf_eval_tensor(t, (POS_INF, v)), "cdf argument"),
        "cdf_eval_copula": (lambda v: cdf_eval_copula(c, (0.5, v)), "copula CDF argument"),
        "joint_cdf": (lambda v: joint_cdf(jm, (1, 0), (v, 0.5)), "cdf argument"),
        "_sweep": (lambda v: sklar._sweep(jm, t, [(0.5, 0.5), (0.5, v)]), "cdf argument"),
        "verify_sklar": (
            lambda v: verify_sklar(jm, (0, 1), [(v, 0.5)], grids=grids),
            "cdf argument",
        ),
    }


READERS = readers()


@pytest.mark.parametrize("name", READERS)
@pytest.mark.parametrize("value", NOT_REAL, ids=repr)
def test_readers_refuse_what_is_not_a_real_number(name, value):
    read, what = READERS[name]
    message = f"^{what} must be a real number, got {re.escape(repr(value))}$"
    with pytest.raises(DomainError, match=message):
        read(value)


@pytest.mark.parametrize("name", READERS)
@pytest.mark.parametrize("value", BEYOND, ids=BEYOND_IDS)
def test_readers_refuse_reals_beyond_the_float_range(name, value):
    read, what = READERS[name]
    with pytest.raises(DomainError, match=f"^{what} lies beyond the float range$"):
        read(value)


@pytest.mark.parametrize("name", READERS)
@pytest.mark.parametrize(
    "value", [0, 1, np.int64(0), np.float32(0.25), Fraction(1, 4), np.float64(0.75)], ids=repr
)
def test_readers_read_real_numbers_as_their_float(name, value):
    read, _ = READERS[name]
    got, want = read(value), read(float(value))
    if isinstance(want, float):
        assert bits(got) == bits(want)
    else:
        assert got == want


@pytest.mark.parametrize(
    "value", NOT_REAL + BEYOND + [math.nan], ids=list(map(repr, NOT_REAL)) + BEYOND_IDS + ["nan"]
)
def test_the_tensor_cdf_reads_every_coordinate_after_one_below_its_axis(value):
    # before, the first axis that read 0 returned 0.0 unread; only a real point gives 0.0
    t = random_tensor(np.random.default_rng(2), (0, 1))
    assert cdf_eval_tensor(t, (NEG_INF, 0.5)) == 0.0
    with pytest.raises(DomainError, match="^cdf argument "):
        cdf_eval_tensor(t, (NEG_INF, value))


def test_one_owner_for_the_cell_boundaries():
    for n in (1, 3, 7, 40):
        bounds = _bounds(n)
        assert bounds is _bounds(n) and not bounds.flags.writeable
        assert bounds.tobytes() == (np.arange(n + 1) / n).tobytes()
        for axis in CheckerboardCopula((0, 1), n, np.full((n, n), 1.0 / n**2)).grid:
            assert not axis.flags.writeable
            assert axis.tobytes() == (np.arange(1, n + 1) / n).tobytes()
