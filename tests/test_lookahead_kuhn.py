"""Look-ahead on warm Kuhn searches: a row takes a free column of its support before re-seating.

A warm search is one where a row other than the blocked column's is seated,
as in a Birkhoff round that extends the last permutation.  There every row an
augmenting path reaches first takes the lowest free column of its support
(Duff's MC21 look-ahead), and re-seats matched rows only when it has none.
From the forced edge alone, or from the empty matching, the search is the
from-scratch one, bit for bit with ``reference_extremal``.
"""

import numpy as np
from hypothesis import example, given, settings
from hypothesis import strategies as st

from copulagrid import birkhoff_decompose
from copulagrid.extremal import _DUST, _support_rows
from helpers import kuhn, perfect_matching
from reference_extremal import _perfect_matching as reference_matching
from reference_extremal import birkhoff_decompose as reference_decompose
from test_birkhoff_support import dusty
from test_bitmask_kuhn import check_warm_start, sparse_mixture


def test_a_warm_round_seats_the_freed_row_on_its_free_column():
    """Row 0 is free, and its support is columns 0 and 3; column 3 is free.

    The walk in column order would re-seat row 3 from column 0 to column 3
    and give row 0 column 0.  The look-ahead seats row 0 on column 3 and
    moves no other row.
    """
    n = 6
    support = np.eye(n, dtype=bool)
    support[np.ix_([0, 3], [0, 3])] = True
    seats = {1: 1, 2: 2, 3: 0, 4: 4, 5: 5}  # row -> column; (5, 5) is the forced cell
    match = [-1] * n
    for row, col in seats.items():
        match[col] = row
    got = kuhn(_support_rows(support), match, 5)
    assert got == [3, 1, 2, 0, 4, 5]
    assert all(got[row] == col for row, col in seats.items())
    # from the forced cell alone the search is the from-scratch one
    cold = [5 if col == 5 else -1 for col in range(n)]
    assert kuhn(_support_rows(support), cold, 5) == reference_matching(support, (5, 5))


def round_case(case):
    """A support read from a copula-like mass and a warm round on it.

    ``sparse`` masses mix one to six random permutations, and ``ties`` are
    ``test_birkhoff_support.dusty`` copulas with tied weights and cells just
    above ``_DUST``.  ``dust`` mixes one or two permutations and puts
    ``2 * _DUST`` (in the support) and ``_DUST / 2`` (out of it) on ``n``
    random cells each; its blocked cell is one of the first, which need not lie
    on a perfect matching.  The last permutation is the support's cold
    matching; rows leave it with probability ``drop``, and the blocked cell is
    seated in place of its row's and its column's partners, as a round seats
    its smallest cell.
    """
    n, kind, drop, seed = case
    rng = np.random.default_rng(seed)
    if kind == "ties":
        mass = dusty(n, rng, True).mass.copy()
    else:
        mass = sparse_mixture(n, int(rng.integers(1, 3 if kind == "dust" else 7)), rng).mass.copy()
    support = mass > _DUST
    i0, j0 = (int(x) for x in np.argwhere(support)[rng.integers(support.sum())])
    if kind == "dust":
        stray = rng.integers(n, size=(2, 2, n))
        mass[tuple(stray[0])] += 2 * _DUST
        mass[tuple(stray[1])] += _DUST / 2
        support = mass > _DUST
        i0, j0 = int(stray[0, 0, 0]), int(stray[0, 1, 0])
    match = [-1] * n
    for row, col in enumerate(perfect_matching(support)):
        if rng.random() >= drop:
            match[col] = row
    match = [-1 if row == i0 else row for row in match]
    match[j0] = i0
    return support, (i0, j0), match


rounds = st.tuples(
    st.integers(1, 40),
    st.sampled_from(["sparse", "ties", "dust"]),
    st.sampled_from([0.05, 0.2, 0.5, 1.0]),
    st.integers(0, 2**32 - 1),
)


@settings(max_examples=150, deadline=None, derandomize=True, database=None)
@given(rounds)
@example((40, "dust", 0.2, 0))
@example((40, "ties", 0.05, 1))
@example((33, "sparse", 0.5, 2))
@example((1, "dust", 1.0, 3))
def test_warm_rounds_find_a_matching_through_the_blocked_cell_whenever_one_exists(case):
    check_warm_start(*round_case(case))


def test_the_round_corpus_reaches_warm_searches_and_refusals():
    """Most cases seat a row besides the forced one, and some have no matching through it."""
    warm = refused = 0
    for seed in range(40):
        support, forced, match = round_case((24, "dust", 0.2, seed))
        warm += sum(row >= 0 for row in match) > 1
        refused += check_warm_start(support, forced, match) is None
    assert warm >= 30 and refused >= 1


def test_warm_rounds_take_no_more_terms_than_the_reference():
    """The 600 seeded mixtures of orders 3-24 and 2-7 permutations: at most the reference's terms."""
    got = want = 0
    for seed in range(600):
        rng = np.random.default_rng(seed)
        c = sparse_mixture(int(rng.integers(3, 25)), int(rng.integers(2, 8)), rng)
        got += len(birkhoff_decompose(c))
        want += len(reference_decompose(c))
    assert got <= want
