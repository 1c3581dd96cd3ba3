"""One proportional-fitting loop over a stack of slices, bit for bit as one at a time.

``copulas._fit_stack`` fits every slice of a ``(k,) + (n,) * d`` stack as
``reference_copulas.fit_uniform_margins`` fits it alone, each slice leaving
the stack at its own sweep.  ``copulas._random_copulas`` draws its copulas
with one ``rng.uniform`` call, fits them in one pass and hands them out as
read-only views of one checked block; ``random_copula`` and
``maximize_convex``'s interior samples go through it.
"""

import itertools
import math
import pickle

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from copulagrid import (
    CheckerboardCopula,
    CompatibilityError,
    DomainError,
    InternalError,
    ValidationError,
    fit_uniform_margins,
    maximize_convex,
    random_copula,
    validate_copula,
)
from copulagrid.cli import _FUNCTIONALS
from copulagrid.copulas import _checked_order, _fit_stack, _random_copulas
from copulagrid.extremal import ConvexSearchResult
from copulagrid.measures import canonical_labels
from reference_copulas import fit_uniform_margins as reference_fit
from reference_extremal import permutation_copula as reference_permutation

#: per-slice log-scales of the entries: near-uniform slices converge in one sweep,
#: skewed ones take up to a few hundred
SPREADS = (0.0, 1e-9, 0.05, 0.5, 1.0, 1.5)


def skewed_stack(rng, k, n, d):
    """``k`` positive ``(n,) * d`` slices, each with its own spread, so their sweeps differ."""
    spreads = rng.choice(SPREADS, size=k).reshape((-1,) + (1,) * d)
    return np.exp(spreads * rng.normal(size=(k,) + (n,) * d))


def sweeps_alone(mass):
    """Sweeps the reference fit takes on ``mass``: the fewest whose result is the full fit's.

    Fewer sweeps stall or fall back to an earlier iterate, so a bisection finds it.
    """
    want = reference_fit(mass).tobytes()
    lo, hi = 1, 20000
    while lo < hi:
        m = (lo + hi) // 2
        try:
            done = reference_fit(mass, max_iter=m).tobytes() == want
        except InternalError:
            done = False
        lo, hi = (lo, m) if done else (m + 1, hi)
    return lo


def assert_fits_each_slice_alone(stack):
    want = [reference_fit(mass).tobytes() for mass in stack]
    got = _fit_stack(stack.copy())
    assert got.shape == stack.shape
    assert [mass.tobytes() for mass in got] == want
    assert [fit_uniform_margins(mass).tobytes() for mass in stack] == want


stacks = st.tuples(
    st.integers(1, 3),
    st.integers(1, 64),
    st.integers(1, 9),
    st.integers(0, 2**32 - 1),
)


@settings(max_examples=120, deadline=None, derandomize=True, database=None)
@given(stacks)
@example((2, 64, 8, 0))
@example((3, 50, 5, 1))
@example((1, 64, 9, 2))
@example((2, 1, 1, 3))
def test_each_slice_is_fitted_as_alone(case):
    d, k, n, seed = case
    if n**d > 200:
        n = int(200 ** (1 / d))
    assert_fits_each_slice_alone(skewed_stack(np.random.default_rng(seed), k, n, d))


@pytest.mark.parametrize("d, n", [(2, 8), (3, 4)])
def test_the_corpus_slices_converge_at_different_sweeps(d, n):
    # a 1-d slice is uniform after one sweep, whatever its spread
    stack = skewed_stack(np.random.default_rng(7), 12, n, d)
    counts = {sweeps_alone(mass) for mass in stack}
    assert len(counts) >= 4, counts
    assert_fits_each_slice_alone(stack)


@pytest.mark.parametrize("d", [2, 3])
def test_negative_zero_cells_keep_their_sign(d):
    rng = np.random.default_rng(11)
    stack = skewed_stack(rng, 9, 4, d)
    for mass in stack[::2]:
        mass.reshape(-1)[rng.integers(mass.size)] = -0.0
    assert_fits_each_slice_alone(stack)
    assert any(np.signbit(mass).any() for mass in _fit_stack(stack.copy()))


def test_negative_zero_in_one_dimension_is_a_zero_margin():
    # a 1-d slice is its own margin, and -0.0 <= 0, both alone and in a stack
    stack = np.array([[0.25, 0.5, 0.25], [0.2, -0.0, 0.8], [1.0, 2.0, 3.0]])
    message = "^a zero margin slice cannot be rescaled$"
    with pytest.raises(ValidationError, match=message):
        reference_fit(stack[1])
    with pytest.raises(ValidationError, match=message):
        fit_uniform_margins(stack[1])
    with pytest.raises(ValidationError, match=message):
        _fit_stack(stack.copy())
    assert_fits_each_slice_alone(stack[[0, 2]])


def test_a_fortran_ordered_tensor_is_fitted_as_before():
    mass = np.asfortranarray(skewed_stack(np.random.default_rng(3), 1, 7, 2)[0])
    assert fit_uniform_margins(mass).tobytes() == reference_fit(mass).tobytes()


def test_an_empty_stack_is_returned_as_is():
    stack = np.ones((0, 3, 3))
    assert _fit_stack(stack) is stack


def test_a_stalled_slice_raises_as_alone(monkeypatch):
    from copulagrid import copulas

    # three sweeps leave the skewed slice far from uniform and the flat one converged
    monkeypatch.setattr(copulas, "_FIT_MAX_ITER", 3)
    stack = np.stack([np.ones((4, 4)), np.exp(4.0 * np.random.default_rng(5).normal(size=(4, 4)))])
    with pytest.raises(InternalError) as alone:
        reference_fit(stack[1], max_iter=3)
    with pytest.raises(InternalError) as stacked:
        _fit_stack(stack.copy())
    assert str(stacked.value) == str(alone.value)
    assert str(alone.value).startswith("margin fitting stalled at deviation ")


def reference_random_copula(labels, order, rng):
    """``random_copula`` as one draw and one reference fit per copula, built by the constructor."""
    labels = tuple(labels)
    n, d = _checked_order(order), len(labels)
    mass = reference_fit(rng.uniform(0.5, 1.5, size=(n,) * d))
    return CheckerboardCopula(canonical_labels(labels), n, mass)


@pytest.mark.parametrize("labels", [(0,), (0, 1), ("a", "b", "c")])
@pytest.mark.parametrize("order", [1, 2, 5, 8])
@pytest.mark.parametrize("count", [0, 1, 7, 64])
def test_one_stacked_draw_equals_single_draws(labels, order, count):
    rng, ref = np.random.default_rng(count + order), np.random.default_rng(count + order)
    got = _random_copulas(labels, order, rng, count)
    want = [reference_random_copula(labels, order, ref) for _ in range(count)]
    assert rng.bit_generator.state == ref.bit_generator.state
    assert len(got) == count
    for c, w in zip(got, want):
        assert type(c) is CheckerboardCopula
        assert (c.labels, c.order) == (w.labels, w.order)
        assert c.mass.tobytes() == w.mass.tobytes()
    if want:  # random_copula is a stacked draw of one
        single = random_copula(labels, order, np.random.default_rng(count + order))
        assert single.mass.tobytes() == want[0].mass.tobytes()


def test_single_draws_advance_the_generator_as_before():
    rng, ref = np.random.default_rng(42), np.random.default_rng(42)
    for order in (3, 1, 6, 4):
        c, w = random_copula((2, 0), order, rng), reference_random_copula((2, 0), order, ref)
        assert c == w and c.mass.tobytes() == w.mass.tobytes()
        assert rng.bit_generator.state == ref.bit_generator.state
    assert rng.random() == ref.random()


@pytest.mark.parametrize(
    "labels, order, error, message",
    [
        ((0, 0), 3, CompatibilityError, "duplicate labels in [0, 0]"),
        ((0, "a"), 3, CompatibilityError, "labels are not mutually orderable: [0, 'a']"),
        ((), 3, ValidationError, "tensor must be hypercubic, got shape ()"),
        ((0, 1), 0, DomainError, "order must be >= 1, got 0"),
        ((0, 1), -2, DomainError, "order must be >= 1, got -2"),
        ((0, 1), True, DomainError, "order must be a whole number, got True"),
        ((0, 1), 2.5, DomainError, "order must be a whole number, got 2.5"),
        ((0, 1), "x", DomainError, "order must be a whole number, got 'x'"),
    ],
    ids=lambda v: repr(v),
)
def test_random_copula_refuses_as_before(labels, order, error, message):
    """The same error and message, and the same draws used up (labels are read after the draw)."""
    rng, ref = np.random.default_rng(9), np.random.default_rng(9)
    with pytest.raises(error) as got:
        random_copula(labels, order, rng)
    with pytest.raises(error) as want:
        reference_random_copula(labels, order, ref)
    assert str(got.value) == str(want.value) == message
    assert rng.bit_generator.state == ref.bit_generator.state


def test_unhashable_labels_raise_as_before():
    rng, ref = np.random.default_rng(2), np.random.default_rng(2)
    with pytest.raises(TypeError) as got:
        random_copula(([0], 1), 3, rng)
    with pytest.raises(TypeError) as want:
        reference_random_copula(([0], 1), 3, ref)
    assert str(got.value) == str(want.value)
    assert rng.bit_generator.state == ref.bit_generator.state


def reference_search(functional, n, interior_samples, seed, midpoint_checks):
    """``maximize_convex`` with an interior loop of single draws and reference fits.

    Returns the result and every copula the functional saw, in order.
    """
    seen = []

    def value(c):
        seen.append(c)
        return float(functional(c))

    best_val = best_perm = None
    for perm in itertools.permutations(range(n)):
        val = value(reference_permutation(perm))
        if best_val is None or val > best_val:
            best_val, best_perm = val, perm
    rng = np.random.default_rng(seed)
    interior = [reference_random_copula((0, 1), n, rng) for _ in range(interior_samples)]
    values = [value(c) for c in interior]
    violations = 0
    if len(interior) >= 2:
        for _ in range(midpoint_checks):
            i, j = rng.integers(0, len(interior), size=2)
            mid = CheckerboardCopula((0, 1), n, 0.5 * (interior[i].mass + interior[j].mass))
            if value(mid) > 0.5 * (values[i] + values[j]) + 1e-9:
                violations += 1
    interior_best = max(values, default=-math.inf)
    result = ConvexSearchResult(
        extremal_value=best_val,
        extremal_permutation=best_perm,
        interior_value=interior_best,
        interior_samples=len(interior),
        interior_within_bound=interior_best <= best_val + 1e-9,
        midpoint_violations=violations,
    )
    return result, seen


def recorded_search(functional, n, **kwargs):
    seen = []
    result = maximize_convex(lambda c: seen.append(c) or functional(c), n, **kwargs)
    return result, seen


@pytest.mark.parametrize("n, seeds", [(2, range(6)), (4, range(6)), (6, range(3)), (7, range(1))])
@pytest.mark.parametrize("name", sorted(_FUNCTIONALS))
def test_interior_values_match_the_single_draw_reference(name, n, seeds):
    for seed in seeds:
        kwargs = dict(interior_samples=50, seed=seed, midpoint_checks=8)
        functional = _FUNCTIONALS[name](np.random.default_rng(seed), n)
        got, got_seen = recorded_search(functional, n, **kwargs)
        want, want_seen = reference_search(functional, n, **kwargs)
        assert got == want, seed
        assert got.interior_value.hex() == want.interior_value.hex(), seed
        assert len(got_seen) == len(want_seen)
        assert [c.mass.tobytes() for c in got_seen] == [c.mass.tobytes() for c in want_seen]


def test_order_eight_interior_matches_the_reference():
    """The workload's size: 200 interior samples at order 8."""
    n, samples = 8, 200
    functional = _FUNCTIONALS["linear"](np.random.default_rng(3), n)
    got, seen = recorded_search(functional, n, interior_samples=samples, seed=3)
    rng = np.random.default_rng(3)
    want = [reference_random_copula((0, 1), n, rng) for _ in range(samples)]
    interior = seen[math.factorial(n) : math.factorial(n) + samples]
    assert [c.mass.tobytes() for c in interior] == [c.mass.tobytes() for c in want]
    assert got.interior_value == max(float(functional(c)) for c in want)


def interior_copulas(n, samples):
    _, seen = recorded_search(lambda c: 0.0, n, interior_samples=samples, midpoint_checks=0)
    return seen[math.factorial(n) :]


def test_interior_copulas_are_read_only_views_of_one_block():
    interior = interior_copulas(5, 40)
    assert len(interior) == 40
    block = interior[0].mass.base
    assert isinstance(block, np.ndarray) and block.shape == (40, 5, 5)
    for c in interior:
        assert type(c) is CheckerboardCopula and (c.labels, c.order) == ((0, 1), 5)
        assert validate_copula(c).passed
        assert c.mass.base is block
        assert not c.mass.flags.writeable
        before = c.mass.tobytes()
        with pytest.raises(ValueError):
            c.mass[0, 0] = 0.5
        with pytest.raises(ValueError):
            c.mass.setflags(write=True)
        with pytest.raises(ValueError):
            c.mass.base.setflags(write=True)
        assert c.mass.tobytes() == before
    assert len({id(c.mass) for c in interior}) == len(interior)


def test_copies_of_interior_copulas_are_equal_and_cannot_be_reopened():
    for c in interior_copulas(4, 6):
        twin = pickle.loads(pickle.dumps(c))
        assert twin == c and twin.mass.tobytes() == c.mass.tobytes()
        with pytest.raises(ValueError):
            twin.mass.setflags(write=True)


def test_random_copula_mass_cannot_be_reopened():
    c = random_copula((0, 1, 2), 3, np.random.default_rng(0))
    assert validate_copula(c).passed
    for arr in (c.mass, c.mass.base):
        with pytest.raises(ValueError):
            arr.setflags(write=True)
