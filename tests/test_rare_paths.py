"""Paths that no other test runs: the solver's lowest-index entering rule,
``compose --subset`` with string labels given out of order, and a NaN handed
to ``serialize.encode_float``."""

import pytest

from copulagrid import (
    Marginal,
    ParseError,
    make_comonotone,
    make_countermonotone,
    make_independence,
    serialize,
    topology,
    transport_plan,
)
from copulagrid.cli import main

PAIRS = {
    "comonotone vs independence, order 4": (make_comonotone, make_independence, 4),
    "comonotone vs independence, order 8": (make_comonotone, make_independence, 8),
    "countermonotone vs comonotone, order 5": (make_countermonotone, make_comonotone, 5),
}


def solve_both_ways(a, b):
    return transport_plan(a, b), transport_plan(b, a)


def test_lowest_index_rule_from_the_first_degenerate_pivot_keeps_the_values(monkeypatch):
    # a slack far below zero switches the entering rule at the first degenerate pivot
    cases = {name: (f((0, 1), n), g((0, 1), n)) for name, (f, g, n) in PAIRS.items()}
    usual = {name: solve_both_ways(a, b) for name, (a, b) in cases.items()}
    monkeypatch.setattr(topology, "_DEGENERATE_SLACK", -(10**6))
    switched = {name: solve_both_ways(a, b) for name, (a, b) in cases.items()}
    for name in cases:
        for before, after in zip(usual[name], switched[name]):
            assert after.value == before.value, name
            assert after.feasibility_deviation() <= topology._FEASIBILITY_TOL
            assert after.slackness_deviation() <= topology._SLACKNESS_TOL
    assert any(usual[n][0].pivots != switched[n][0].pivots for n in cases)


def test_compose_reads_string_labels_in_any_order(capsys, tmp_path):
    copula, marginals = tmp_path / "copula.json", tmp_path / "marginals.json"
    copula.write_text(serialize.dumps(serialize.encode_copula(make_comonotone(("a", "b"), 3))))
    ramp = Marginal.continuous([(0.0, 0.0), (1.0, 1.0)])
    coin = Marginal.atomic([(0.0, 0.5), (1.0, 0.5)])
    marginals.write_text(serialize.dumps(serialize.encode_marginals({"a": ramp, "b": coin})))
    outputs = []
    for extra in (["--subset", "b,a"], ["--subset", " a , b "], []):
        assert main(["compose", str(copula), str(marginals), *extra]) == 0
        outputs.append(capsys.readouterr())
    assert outputs[0] == outputs[1] == outputs[2]
    assert outputs[0].err == ""
    joint = serialize.loads(outputs[0].out.split("\n", 1)[1])
    assert joint.labels == ("a", "b")


def test_encode_float_refuses_nan():
    with pytest.raises(ParseError, match="^NaN is not serializable$"):
        serialize.encode_float(float("nan"))
