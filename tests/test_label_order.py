"""One label order: axis ``i`` of every measure is its ``i``-th label in canonical order.

``canonical_labels`` alone decides that order.  Tensor measures and copulas
accept labels only when they are already canonical, and refuse any other
order with ``ValidationError`` instead of sorting the labels under an
unchanged mass.  The factories whose mass is symmetric under axis swaps sort
their labels themselves, so every input they accepted keeps its bits, and
``validate`` checks the subsets that ``canonical_subsets`` lists first.
"""

import ast
import re

import numpy as np
import pytest

from copulagrid import (
    CheckerboardCopula,
    CompatibilityError,
    IndexUniverse,
    ProjectiveFamily,
    TensorMeasure,
    ValidationError,
    family_member,
    make_comonotone,
    make_countermonotone,
    make_independence,
    permutation_copula,
    random_copula,
    serialize,
)
from copulagrid.cli import main

EVEN = [[0.25, 0.25], [0.25, 0.25]]
RNG = np.random.default_rng(0)

REFUSALS = {
    (1, 0): "labels must be strictly increasing, got (1, 0)",
    ("b", "a"): "labels must be strictly increasing, got ('b', 'a')",
    (0, 2, 1): "labels must be strictly increasing, got (0, 2, 1)",
    (0, 0): "duplicate labels in [0, 0]",
    (0, "a"): "labels are not mutually orderable: [0, 'a']",
    (): "index subset must be nonempty",
}


@pytest.mark.parametrize("labels", sorted(REFUSALS, key=repr), ids=repr)
def test_measures_refuse_labels_that_are_not_canonical(labels):
    message = f"^{re.escape(REFUSALS[labels])}$"
    d = len(labels)
    with pytest.raises(ValidationError, match=message):
        CheckerboardCopula(labels, 2, np.full((2,) * d, 0.5**d))
    with pytest.raises(ValidationError, match=message):
        TensorMeasure(labels, [[0.0, 1.0]] * d, np.full((2,) * d, 0.5**d))


def test_a_generator_of_canonical_labels_is_accepted():
    c = CheckerboardCopula((lab for lab in (0, 1)), 2, EVEN)
    t = TensorMeasure(iter(("a", "b")), ([0.0, 1.0], [0.0, 1.0]), EVEN)
    assert (c.labels, t.labels) == ((0, 1), ("a", "b"))


def test_a_permutation_copula_over_reversed_labels_is_refused():
    with pytest.raises(ValidationError, match=r"^labels must be strictly increasing"):
        permutation_copula([1, 2, 0], labels=(1, 0))
    # the copula meant by those labels is the transpose: the inverse permutation
    transpose = permutation_copula([1, 2, 0]).mass.T
    assert np.array_equal(permutation_copula([2, 0, 1]).mass, transpose)


FACTORIES = {
    "independence": lambda labels: make_independence(labels, 3),
    "comonotone": lambda labels: make_comonotone(labels, 3),
    "countermonotone": lambda labels: make_countermonotone(labels[:2], 3),
    "random": lambda labels: random_copula(labels, 3, np.random.default_rng(5)),
}


@pytest.mark.parametrize("name", sorted(FACTORIES))
@pytest.mark.parametrize("labels", [(2, 0, 1), ("c", "a", "b"), (1, 0, 2)])
def test_symmetric_factories_sort_their_labels_and_keep_their_bits(name, labels):
    got, want = FACTORIES[name](labels), FACTORIES[name](tuple(sorted(labels)))
    assert got.labels == tuple(sorted(got.labels))
    assert got.mass.tobytes() == want.mass.tobytes()


@pytest.mark.parametrize(
    "call, error, message",
    [
        (lambda: make_countermonotone((0, 0, 1), 3), CompatibilityError, "needs exactly 2 labels"),
        (lambda: make_independence((0, 0), 2), CompatibilityError, "duplicate labels in"),
        (lambda: make_comonotone((), 2), CompatibilityError, "index subset must be nonempty"),
        (lambda: random_copula((), 2, RNG), ValidationError, "hypercubic"),
        (lambda: random_copula((0, "a"), 2, RNG), CompatibilityError, "orderable"),
    ],
)
def test_factories_keep_their_refusals(call, error, message):
    with pytest.raises(error, match=message):
        call()


def test_a_family_rule_cannot_build_a_member_over_reversed_labels():
    def rule(subset):
        return permutation_copula([1, 2, 0], labels=subset[::-1])

    family = ProjectiveFamily(IndexUniverse.finite((0, 1)), "copula", rule)
    with pytest.raises(ValidationError, match=r"^labels must be strictly increasing"):
        family_member(family, (0, 1))


def run_validate(capsys, tmp_path, doc, *options):
    path = tmp_path / "doc.json"
    path.write_text(serialize.dumps(doc))
    code = main(["validate", str(path), *options])
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_validate_refuses_a_copula_document_with_reversed_labels(capsys, tmp_path):
    doc = serialize.encode_copula(permutation_copula([1, 2, 0]))
    doc["labels"] = [1, 0]
    assert run_validate(capsys, tmp_path, doc) == (
        2,
        "",
        "validation error: labels must be strictly increasing, got (1, 0)\n",
    )


def family(universe, order=2):
    return {"kind": "family_spec", "rule": "independence", "order": order, "universe": universe}


@pytest.mark.parametrize(
    "universe, depth, count",
    [
        ({"type": "countable"}, "3", 7),
        ({"type": "finite", "labels": [2, 0, 1]}, "2", 3),
        ({"type": "finite", "labels": [2, 0, 1]}, "3", 7),
        # more labels than the universe holds, and more subsets than islice may take
        ({"type": "finite", "labels": [2, 0, 1]}, "64", 7),
        ({"type": "finite", "labels": ["b", "a"]}, "1000000", 3),
    ],
)
def test_validate_checks_the_subsets_of_the_first_depth_labels(
    capsys, tmp_path, universe, depth, count
):
    code, out, err = run_validate(capsys, tmp_path, family(universe), "--depth", depth)
    assert (code, err) == (0, "")
    assert out.startswith(f"family_spec: consistent on {count} subsets ")


def test_validate_reports_failures_smallest_subset_first(capsys, tmp_path):
    # at tol 0 an order-7 product copula fails on rounding, so most pairs are reported
    doc = family({"type": "finite", "labels": [0, 1, 2, 3]}, order=7)
    code, out, err = run_validate(capsys, tmp_path, doc, "--depth", "4", "--tol", "0")
    assert (code, err) == (2, "")
    pairs = [
        tuple(map(ast.literal_eval, re.match(r"^fail (.*) <= (.*): ", line).groups()))
        for line in out.splitlines()
    ]
    assert pairs and pairs == sorted(pairs, key=lambda p: (len(p[0]), p[0], len(p[1]), p[1]))
