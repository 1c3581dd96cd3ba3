"""Birkhoff rounds that keep their support, and extend the last round's permutation.

``birkhoff_decompose`` builds the support mask and one column bitmask per row
once and drops, after each subtraction, the cells of the permutation that
fell to ``_DUST`` or below; the next round's matching starts from what is left
of the last one.  These cases make several cells leave in one round, cells
sit just above ``_DUST``, and minima tie.  Their terms must pass the replay
gate of ``helpers.replay_birkhoff``, which recomputes ``work > _DUST`` every
round, or refuse with ``NO_PERMUTATION``.  The stranded-cell stop rule, a
whole permutation leaving in one round and independence keep exact equality
with ``reference_extremal.birkhoff_decompose``, refusals included.
"""

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from copulagrid import (
    CheckerboardCopula,
    CopulaGridError,
    InternalError,
    UnsupportedError,
    birkhoff_decompose,
    make_independence,
)
from copulagrid.extremal import _DUST
from helpers import NO_PERMUTATION, gated_birkhoff
from reference_extremal import _perfect_matching as reference_matching
from reference_extremal import birkhoff_decompose as reference_decompose


def mixture(order, weights, perms):
    """The copula ``sum_k weights[k] * P(perms[k]) / order``."""
    mass = np.zeros((order, order))
    for w, perm in zip(weights, perms):
        mass[np.arange(order), perm] += w / order
    return CheckerboardCopula((0, 1), order, mass)


def dusty(order, rng, ties):
    """A mixture with permutations of cell mass just above ``_DUST``, and offsets below it.

    The light permutations share cells with each other and with the heavy ones,
    so after a light one is subtracted, cells of ``theta + delta`` with
    ``0 < delta <= _DUST`` leave the support with the ``theta`` cell.  With
    ``ties`` the weights come from a few values, so minima tie.  Layers below
    ``_DUST`` keep their share of every margin while leaving no support, so a
    few cases run out of permutations; those must refuse as the reference does.
    """
    k = int(rng.integers(2, 5))
    light = order * _DUST * rng.choice([1.5, 2.0, 3.0], size=int(rng.integers(1, 4)))
    light = np.concatenate((light, order * _DUST * rng.random(2) * 0.5))
    heavy = rng.integers(1, 4, size=k).astype(float) if ties else rng.random(k) + 0.1
    heavy *= (1.0 - light.sum()) / heavy.sum()
    weights = np.concatenate((heavy, light))
    base = rng.permutation(order)
    perms = [rng.permutation(order) for _ in range(k)]
    # the near-dust layers are small edits of one permutation, so they overlap
    for _ in range(len(weights) - k):
        perm = base.copy()
        i, j = rng.integers(order, size=2)
        perm[[i, j]] = perm[[j, i]]
        perms.append(perm)
    return mixture(order, weights, perms)


def outcome(decompose, c):
    """The terms as ``(weight.hex(), perm)`` pairs, or the type and message of the refusal."""
    try:
        return [(w.hex(), perm) for w, perm in decompose(c)]
    except CopulaGridError as exc:
        return type(exc), str(exc)


def assert_same_terms(c):
    got = outcome(birkhoff_decompose, c)
    assert got == outcome(reference_decompose, c)
    return got


def rounds(c):
    """Replay the reference's rounds: per round, the cells that leave the support."""
    n = c.order
    work = c.mass.copy()
    left = []
    while True:
        support = work > _DUST
        if float(work[support].sum()) <= 1e-12:
            return left
        flat = np.where(support.ravel(), work.ravel(), np.inf)
        i0, j0 = divmod(int(np.argmin(flat)), n)
        perm = reference_matching(support, (i0, j0)) or reference_matching(support)
        if perm is None:
            return left
        theta = min(float(work[i, perm[i]]) for i in range(n))
        before = [float(work[i, perm[i]]) for i in range(n)]
        for i in range(n):
            work[i, perm[i]] -= theta
        left.append([b for i, b in enumerate(before) if work[i, perm[i]] <= _DUST])


cases = st.tuples(st.integers(2, 12), st.booleans(), st.integers(0, 2**32 - 1))


@settings(max_examples=150, deadline=None, derandomize=True, database=None)
@given(cases)
@example((12, True, 0))
@example((12, False, 1))
@example((2, True, 2))
def test_dusty_mixtures_pass_the_replay_gate(case):
    order, ties, seed = case
    gated_birkhoff(dusty(order, np.random.default_rng(seed), ties))


def test_cells_just_above_dust_leave_with_the_theta_cell():
    """The corpus reaches the case: a round drops a cell of ``theta + delta`` besides ``theta``."""
    hits = 0
    for seed in range(30):
        dropped = gated_birkhoff(dusty(8, np.random.default_rng(seed), ties=False))
        for gone in [] if dropped == NO_PERMUTATION else dropped:
            if len(gone) >= 2 and max(gone) > min(gone) and min(gone) > _DUST:
                hits += 1
    assert hits >= 5


@pytest.mark.parametrize("order", [3, 5, 9, 16])
def test_tied_minima_pass_the_replay_gate(order):
    rng = np.random.default_rng(order)
    # equal weights on disjoint shifts: every support cell ties
    shifts = [(np.arange(order) + s) % order for s in range(order)]
    k = max(2, order // 2)
    assert gated_birkhoff(mixture(order, [1.0 / k] * k, shifts[:k])) != NO_PERMUTATION
    assert_same_terms(make_independence((0, 1), order))
    # ties among equal weights on random, overlapping permutations
    perms = [rng.permutation(order) for _ in range(4)]
    assert gated_birkhoff(mixture(order, [0.25] * 4, perms)) != NO_PERMUTATION


def test_a_whole_permutation_leaves_in_one_round():
    # theta is every cell of the light identity layer: all of them fall to zero together
    order = 6
    light = 2.5 * order * _DUST
    c = mixture(order, [1.0 - light, light], [np.roll(np.arange(order), 1), np.arange(order)])
    got = assert_same_terms(c)
    assert len(rounds(c)[0]) == order
    assert got[0][1] == tuple(range(order))


def stranded(order, cells):
    """The identity copula mixed with ``cells`` on the two diagonals above the main one.

    The identity keeps the total at one.  No permutation of the support
    passes above the diagonal, so the first round subtracts the identity and
    leaves exactly ``cells`` in the support, at most two to a row or a column,
    which keeps the margins within tolerance.
    """
    mass = np.eye(order) * ((1.0 - sum(cells)) / order)
    above = [(i, i + d) for d in (1, 2) for i in range(order - d)]
    for (i, j), cell in zip(above, cells):
        mass[i, j] = cell
    return CheckerboardCopula((0, 1), order, mass)


def left_over(c):
    """The sum the stop test reads after the first round: the cells above the diagonal."""
    upper = np.triu(c.mass, 1)
    return float(upper[upper > _DUST].sum())


IDENTITY_ONLY = "identity only"


def stop_outcome(order, cells):
    """What the decomposition of ``stranded(order, cells)`` must give, after the reference."""
    c = stranded(order, cells)
    got = assert_same_terms(c)
    assert rounds(c)[0] == [float(c.mass[0, 0])] * order
    if got == [(1.0.hex(), tuple(range(order)))]:
        return IDENTITY_ONLY
    assert got == NO_PERMUTATION
    return got


near_dust = st.floats(_DUST, 1.2e-13, exclude_min=True)


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(st.integers(9, 11), st.lists(near_dust, min_size=9, max_size=11))
@example(9, [1.05e-13] * 9)  # total below 1e-12: the old rule stops on nine cells
@example(9, [1.15e-13] * 9)  # total above 1e-12: the next round finds no permutation
@example(10, [1.05e-13] * 9)
@example(11, [1.15e-13] * 9)
@example(10, [float(np.nextafter(_DUST, 1.0))] * 10)  # ten cells: the last count that sums
@example(10, [1.2e-13] * 10)
@example(11, [float(np.nextafter(_DUST, 1.0))] * 11)  # eleven: the count alone goes on
@example(9, [1.2e-13] * 11)
@example(11, [1.1e-13, 1.2e-13, 1.01e-13] * 3 + [1.2e-13])
def test_the_stop_rule_on_nine_to_eleven_cells_matches_reference(order, cells):
    want = IDENTITY_ONLY if left_over(stranded(order, cells)) <= 1e-12 else NO_PERMUTATION
    assert stop_outcome(order, cells) == want


def test_a_stranded_dusty_case_is_refused_as_unsupported():
    # it passes the doubly stochastic check, but once the identity is
    # subtracted the diagonal is dust, and the nine cells above it, which sum
    # above 1e-12, hold no permutation
    c = stranded(9, [1.15e-13] * 9)
    with pytest.raises(UnsupportedError, match="cells at or below 1e-13 strand") as info:
        birkhoff_decompose(c)
    assert not isinstance(info.value, InternalError)


def test_the_stop_rule_cases_reach_both_sides_of_the_threshold():
    assert stop_outcome(9, [1.05e-13] * 9) == IDENTITY_ONLY
    for order, count in [(9, 9), (10, 10), (11, 11)]:
        assert stop_outcome(order, [1.15e-13] * count) == NO_PERMUTATION
