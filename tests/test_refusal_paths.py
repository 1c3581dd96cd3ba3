"""Refusals of the public API and the CLI, each with its typed error and message.

Every case below is a malformed or out-of-domain input that the library
refuses in one place; the test pins that place's error type and message.
"""

import math
import re

import numpy as np
import pytest

from copulagrid import (
    CompatibilityError,
    DomainError,
    EvaluationError,
    IndexUniverse,
    Marginal,
    ProjectiveFamily,
    TensorMeasure,
    UnsupportedError,
    ValidationError,
    atomize,
    cdf_eval_tensor,
    check_consistency,
    compactness_probe,
    compose,
    fit_uniform_margins,
    independence_family,
    joint_cdf,
    make_independence,
    maximize_convex,
    pushforward_tensor,
    serialize,
)
from copulagrid.cli import main

RAMP = Marginal.continuous([(0.0, 0.0), (1.0, 1.0)])
TENSOR = TensorMeasure((0, 1), ([0.0, 1.0], [0.0, 1.0]), [[0.25, 0.25], [0.25, 0.25]])
FAMILY = independence_family(IndexUniverse.finite((0, 1)), 2)
IDENTITY = {0.0: 0.0, 1.0: 1.0}


def interior_nan(c):
    """Finite on permutation copulas (largest cell exactly ``1/3``), NaN inside."""
    return float(np.max(c.mass)) if np.max(c.mass) * 3 == 1.0 else math.nan


CASES = {
    "continuous marginal with one knot": (
        lambda: Marginal.continuous([(0.0, 0.0)]),
        ValidationError,
        "continuous marginal needs at least two knots",
    ),
    "tensor grid with too few axes": (
        lambda: TensorMeasure((0, 1), ([0.0, 1.0],), [0.5, 0.5]),
        CompatibilityError,
        "grid must provide one axis per label",
    ),
    "tensor CDF at NaN": (
        lambda: cdf_eval_tensor(TENSOR, [math.nan, 0.0]),
        DomainError,
        "cdf argument must not be NaN",
    ),
    "pushforward without a map for an axis": (
        lambda: pushforward_tensor(TENSOR, {0: {0.0: 0.0, 1.0: 1.0}}),
        DomainError,
        "no map supplied for axis 1",
    ),
    "pushforward through a map value that is a string": (
        lambda: pushforward_tensor(TENSOR, {0: {0.0: "abc", 1.0: 1.0}, 1: IDENTITY}),
        DomainError,
        "map for axis 0 at 0.0 must be a real number, got 'abc'",
    ),
    "pushforward through a map value beyond the float range": (
        lambda: pushforward_tensor(TENSOR, {0: IDENTITY, 1: {0.0: 0.0, 1.0: 10**400}}),
        DomainError,
        "map for axis 1 at 1.0 lies beyond the float range",
    ),
    "pushforward through a map value that is a bool": (
        lambda: pushforward_tensor(TENSOR, {0: {0.0: 0.0, 1.0: True}, 1: IDENTITY}),
        DomainError,
        "map for axis 0 at 1.0 must be a real number, got True",
    ),
    "atomization of a continuous law": (
        lambda: atomize(RAMP, 0),
        UnsupportedError,
        "only atomic marginals have an exact atomization",
    ),
    "margin fitting of an all-zero tensor": (
        lambda: fit_uniform_margins(np.zeros((2, 2))),
        ValidationError,
        "tensor must carry positive mass",
    ),
    "family of an unknown kind": (
        lambda: ProjectiveFamily(IndexUniverse.finite((0,)), "mixed", lambda subset: None),
        DomainError,
        "unknown family kind 'mixed'",
    ),
    "consistency check without subsets": (
        lambda: check_consistency(FAMILY, []),
        DomainError,
        "check_consistency needs at least one subset",
    ),
    "joint CDF with too few coordinates": (
        lambda: joint_cdf(compose(FAMILY, {0: RAMP, 1: RAMP}), (0, 1), [0.5]),
        CompatibilityError,
        "point has 1 coordinates for subset of size 2",
    ),
    "compactness probe of an empty sequence": (
        lambda: compactness_probe([], 0.1),
        DomainError,
        "compactness probe needs a nonempty sequence",
    ),
    "non-finite functional value inside the polytope": (
        lambda: maximize_convex(interior_nan, 3, interior_samples=2),
        EvaluationError,
        "functional returned nan on an interior copula",
    ),
}


@pytest.mark.parametrize("name", sorted(CASES))
def test_refusal_has_its_type_and_message(name):
    call, error, message = CASES[name]
    with pytest.raises(error, match=f"^{re.escape(message)}$"):
        call()


def test_compose_refuses_an_empty_label_in_the_subset(capsys, tmp_path):
    copula, marginals = tmp_path / "copula.json", tmp_path / "marginals.json"
    copula.write_text(serialize.dumps(serialize.encode_copula(make_independence((0, 1), 2))))
    marginals.write_text(serialize.dumps(serialize.encode_marginals({0: RAMP, 1: RAMP})))
    code = main(["compose", str(copula), str(marginals), "--subset", "0,,1"])
    captured = capsys.readouterr()
    assert (code, captured.out) == (1, "")
    assert captured.err == "parse error: empty label in subset '0,,1'\n"
