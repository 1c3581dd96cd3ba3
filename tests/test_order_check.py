"""A copula order below one raises ValidationError everywhere an order is taken."""

import json

import numpy as np
import pytest

from copulagrid import (
    CheckerboardCopula,
    IndexUniverse,
    Marginal,
    TensorMeasure,
    ValidationError,
    comonotone_family,
    decompose,
    family_member,
    independence_family,
    make_comonotone,
    make_countermonotone,
    make_independence,
    random_copula,
)
from copulagrid.cli import main

BUILDERS = {
    "constructor": lambda n: CheckerboardCopula((0, 1), n, [[1.0]]),
    "independence": lambda n: make_independence((0, 1), n),
    "independence_1d": lambda n: make_independence((0,), n),
    "independence_3d": lambda n: make_independence((0, 1, 2), n),
    "comonotone": lambda n: make_comonotone((0, 1), n),
    "countermonotone": lambda n: make_countermonotone((0, 1), n),
    "random": lambda n: random_copula((0, 1), n, np.random.default_rng(0)),
    "decompose": lambda n: decompose(
        TensorMeasure((0,), ([0.5],), [1.0]),
        {0: Marginal.continuous([(0.0, 0.0), (1.0, 1.0)])},
        n,
    ),
}


@pytest.mark.parametrize("order", [0, -2, "0", -1.0])
@pytest.mark.parametrize("name", sorted(BUILDERS))
def test_nonpositive_order_is_a_validation_error(name, order):
    with pytest.raises(ValidationError, match=rf"^order must be >= 1, got {int(order)}$"):
        BUILDERS[name](order)


@pytest.mark.parametrize("rule", [independence_family, comonotone_family])
@pytest.mark.parametrize("order", [0, -2])
def test_family_rules_refuse_nonpositive_order(rule, order):
    f = rule(IndexUniverse.finite([0, 1, 2]), order)
    for subset in ((0,), (0, 2), (0, 1, 2)):
        with pytest.raises(ValidationError, match=rf"^order must be >= 1, got {order}$"):
            family_member(f, subset)


@pytest.fixture
def zero_order_family(tmp_path):
    path = tmp_path / "family.json"
    doc = {
        "kind": "family_spec",
        "rule": "independence",
        "universe": {"type": "finite", "labels": [0, 1]},
        "order": "0",
    }
    path.write_text(json.dumps(doc))
    return str(path)


@pytest.mark.parametrize(
    "argv",
    [
        ["validate", "{F}"],
        ["distance", "{F}", "{F}", "--fdd"],
        ["compact-demo", "--order", "-1"],
    ],
)
def test_cli_reports_nonpositive_order(capsys, zero_order_family, argv):
    code = main([arg.replace("{F}", zero_order_family) for arg in argv])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert captured.err.startswith("validation error: order must be >= 1, got ")
