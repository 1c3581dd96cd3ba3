"""An order is a whole number >= 1; anything else raises DomainError, never truncated.

``copulas._checked_order`` is the one place an order is converted or
bounded: copula constructors, family rules, ``decompose``,
``maximize_convex`` and the document decoders all go through it.
"""

import json

import numpy as np
import pytest

from copulagrid import (
    CheckerboardCopula,
    DomainError,
    IndexUniverse,
    Marginal,
    TensorMeasure,
    comonotone_family,
    decompose,
    family_member,
    independence_family,
    make_comonotone,
    make_countermonotone,
    make_independence,
    maximize_convex,
    random_copula,
)
from copulagrid.cli import main

BUILDERS = {
    "constructor": lambda n: CheckerboardCopula((0, 1), n, [[0.25, 0.25], [0.25, 0.25]]),
    "independence": lambda n: make_independence((0, 1), n),
    "comonotone": lambda n: make_comonotone((0, 1), n),
    "countermonotone": lambda n: make_countermonotone((0, 1), n),
    "random": lambda n: random_copula((0, 1), n, np.random.default_rng(0)),
    "decompose": lambda n: decompose(
        TensorMeasure((0,), ([0.5, 1.0],), [0.5, 0.5]),
        {0: Marginal.continuous([(0.0, 0.0), (1.0, 1.0)])},
        n,
    ),
    "maximize_convex": lambda n: maximize_convex(lambda c: 0.0, n, interior_samples=2),
}

NOT_WHOLE = {
    "fraction": (2.9, r"2\.9"),
    "true": (True, "True"),
    "false": (False, "False"),
    "text": ("abc", "'abc'"),
    "fraction text": ("2.5", r"'2\.5'"),
    "decimal text": ("3.0", r"'3\.0'"),
    "numpy true": (np.True_, "np.True_"),
    "infinity": (float("inf"), "inf"),
    "nan": (float("nan"), "nan"),
    "list": ([2], r"\[2\]"),
    "none": (None, "None"),
}


@pytest.mark.parametrize("case", sorted(NOT_WHOLE))
@pytest.mark.parametrize("name", sorted(BUILDERS))
def test_orders_that_are_not_whole_numbers_are_refused(name, case):
    order, shown = NOT_WHOLE[case]
    with pytest.raises(DomainError, match=rf"^order must be a whole number, got {shown}$"):
        BUILDERS[name](order)


@pytest.mark.parametrize("rule", [independence_family, comonotone_family])
@pytest.mark.parametrize("order", [2.9, True, "abc"])
def test_family_rules_refuse_orders_that_are_not_whole(rule, order):
    f = rule(IndexUniverse.finite([0, 1]), order)
    with pytest.raises(DomainError, match="^order must be a whole number, got "):
        family_member(f, (0, 1))


@pytest.mark.parametrize("order", ["2", 2.0, np.int64(2), np.float64(2.0)])
def test_whole_numbers_in_other_types_are_accepted(order):
    c = make_independence((0, 1), order)
    assert type(c.order) is int and c.order == 2
    assert c == make_independence((0, 1), 2)


def test_maximize_convex_keeps_its_message_for_order_zero():
    with pytest.raises(DomainError, match=r"^order must be >= 1, got 0$"):
        maximize_convex(lambda c: 0.0, 0)


def _copula_doc(order):
    mass = [["0.25", "0.25"], ["0.25", "0.25"]]
    return {"kind": "checkerboard_copula", "labels": [0, 1], "order": order, "mass": mass}


def _family_doc(order):
    universe = {"type": "finite", "labels": [0, 1]}
    return {"kind": "family_spec", "rule": "independence", "universe": universe, "order": order}


@pytest.mark.parametrize("order", [2.9, True, "abc"])
@pytest.mark.parametrize("make_doc", [_copula_doc, _family_doc], ids=["copula", "family"])
def test_documents_with_orders_that_are_not_whole_exit_2(capsys, tmp_path, make_doc, order):
    path = tmp_path / "doc.json"
    path.write_text(json.dumps(make_doc(order)))
    code = main(["validate", str(path)])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert captured.err == f"validation error: order must be a whole number, got {order!r}\n"


@pytest.mark.parametrize("make_doc", [_copula_doc, _family_doc], ids=["copula", "family"])
def test_documents_with_a_numeric_text_order_still_load(capsys, tmp_path, make_doc):
    path = tmp_path / "doc.json"
    path.write_text(json.dumps(make_doc("2")))
    assert main(["validate", str(path)]) == 0
    assert capsys.readouterr().err == ""
