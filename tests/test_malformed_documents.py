"""Malformed documents end in a parse or validation error, never a traceback."""

import json

import numpy as np
import pytest

from copulagrid import CheckerboardCopula, TensorMeasure, ValidationError
from copulagrid.cli import main
from copulagrid.measures import checked_mass

GRID = [["0.0", "1.0"], ["0.0", "1.0"]]
RAGGED = [["0.5", "0.25"], ["0.25"]]
EVEN = [["0.25", "0.25"], ["0.25", "0.25"]]


def _tensor(**fields):
    return {"kind": "tensor_measure", "labels": [0, 1], "grid": GRID, "mass": RAGGED, **fields}


def _copula(**fields):
    return {"kind": "checkerboard_copula", "labels": [0, 1], "order": 2, "mass": RAGGED, **fields}


def _marginal(**fields):
    entry = {"label": 0, "type": "atomic", "atoms": [["0", "1"]], **fields}
    return {"kind": "marginal", "marginals": [entry]}


def _family(**fields):
    doc = {"kind": "family_spec", "rule": "independence", "order": 2}
    return {**doc, "universe": {"type": "finite", "labels": [0, 1]}, **fields}


CORPUS = {
    "ragged tensor mass": json.dumps(_tensor()),
    "ragged copula mass": json.dumps(_copula()),
    "copula mass mixing lists and numbers": json.dumps(
        _copula(mass=[["0.5", ["0.5"]], ["0", "0"]])
    ),
    "ragged joint of a family": json.dumps(
        {"kind": "family_spec", "rule": "from_joint", "joint": _tensor()}
    ),
    "atom of three strings": json.dumps(_marginal(atoms=[["0", "0.5", "1"]])),
    "atom that is a number": json.dumps(_marginal(atoms=[5])),
    "atom that is a string": json.dumps(_marginal(atoms=["0"])),
    "knot of one string": json.dumps(_marginal(type="continuous", knots=[["0"]])),
    "knot that is a number": json.dumps(_marginal(type="continuous", knots=[5])),
    "atoms not a list": json.dumps(_marginal(atoms={"0": "1"})),
    "list as marginal type": json.dumps(_marginal(type=["atomic"])),
    "object as marginal type": json.dumps(_marginal(type={"atomic": 1})),
    "list as family rule": json.dumps(_family(rule=["independence"])),
    "object as family rule": json.dumps(_family(rule={"comonotone": 1})),
    "list as document kind": json.dumps({"kind": ["marginal"], "marginals": []}),
    "object as document kind": json.dumps({"kind": {"marginal": 1}}),
    "missing document kind": json.dumps({"marginals": []}),
    "zero family order": json.dumps(_family(order="0")),
    "negative copula order": json.dumps(_copula(order=-2, mass=[])),
    "infinite copula order": json.dumps(_copula(order=1e400)),
    "infinite family order": json.dumps(_family(order=1e400)),
    "fractional copula order": json.dumps(_copula(order=2.9, mass=[["0.5", "0"], ["0", "0.5"]])),
    "boolean copula order": json.dumps(_copula(order=True, mass=[["1"]])),
    "text copula order": json.dumps(_copula(order="abc")),
    "fractional family order": json.dumps(_family(order=2.9)),
    "boolean family order": json.dumps(_family(order=True)),
    "text family order": json.dumps(_family(order="abc")),
    # deeper than the decoder's recursion, then deeper than the JSON parser's
    "deeply nested mass": '{"kind": "tensor_measure", "labels": [0], "grid": [["0"]], "mass": '
    + "[" * 900
    + '"1.0"'
    + "]" * 900
    + "}",
    "nesting beyond the JSON parser": '{"kind": "tensor_measure", "mass": '
    + "[" * 5000
    + "]" * 5000
    + "}",
    # shapes that used to decode into wrong objects: a string or an object
    # iterated where a list belongs, and a joint whose kind was never read
    "tensor labels as a string": json.dumps(_tensor(labels="01", mass=EVEN)),
    "copula labels as an object": json.dumps(_copula(labels={"a": 1}, order=1, mass=["1"])),
    "tensor grid as a string": json.dumps(_tensor(labels=[0], grid="1", mass=["1"])),
    "tensor grid axis as a string": json.dumps(_tensor(labels=[0], grid=["1"], mass=["1"])),
    "family joint of kind marginal": json.dumps(
        {"kind": "family_spec", "rule": "from_joint", "joint": _tensor(kind="marginal", mass=EVEN)}
    ),
    "text in the mass": json.dumps(_tensor(labels=[0], grid=[["0"]], mass=["abc"])),
    "grid point spelled inf": json.dumps(_tensor(labels=[0], grid=[["inf"]], mass=["1"])),
    "boolean label": json.dumps(_tensor(labels=[True], grid=[["0"]], mass=["1"])),
    "empty marginals list": json.dumps({"kind": "marginal", "marginals": []}),
    "duplicate marginal label": json.dumps(
        {"kind": "marginal", "marginals": _marginal()["marginals"] * 2}
    ),
    "finite universe without labels": json.dumps(
        _family(universe={"type": "finite", "labels": []})
    ),
    "top-level array": json.dumps([_copula(mass=EVEN)]),
    # axis i of a measure is its i-th label in canonical order, so labels that
    # are not already canonical are refused rather than sorted under the mass
    "copula labels out of order": json.dumps(_copula(labels=[1, 0], mass=EVEN)),
    "duplicate copula labels": json.dumps(_copula(labels=[0, 0], mass=EVEN)),
    "copula labels of mixed types": json.dumps(_copula(labels=[0, "a"], mass=EVEN)),
}


@pytest.mark.parametrize("name", sorted(CORPUS))
def test_validate_exits_cleanly(capsys, tmp_path, name):
    path = tmp_path / "doc.json"
    path.write_text(CORPUS[name])
    code = main(["validate", str(path)])
    captured = capsys.readouterr()
    assert code in (1, 2)
    assert captured.out == ""
    assert captured.err.startswith(("parse error: ", "validation error: "))
    assert "Traceback" not in captured.err


NAN = "NaN is not a valid number"
INF = "infinities must be spelled '+inf'/'-inf'"


@pytest.mark.parametrize(
    "spelling, refusal",
    [("nan", NAN), ("NaN", NAN), ("-nan", NAN), ("inf", INF), ("Infinity", INF), ("1e400", INF)],
)
def test_a_number_that_is_not_finite_is_refused_by_its_kind(capsys, tmp_path, spelling, refusal):
    path = tmp_path / "doc.json"
    path.write_text(json.dumps(_tensor(labels=[0], grid=[[spelling]], mass=["1"])))
    assert main(["validate", str(path)]) == 1
    assert capsys.readouterr().err == f"parse error: {refusal}, got {spelling!r}\n"


def test_a_file_that_is_not_utf8_is_a_parse_error(capsys, tmp_path):
    path = tmp_path / "doc.json"
    path.write_bytes(b"\xff\xfe{\x00}\x00")
    code = main(["validate", str(path)])
    captured = capsys.readouterr()
    assert code == 1
    assert captured.out == ""
    assert captured.err.startswith(f"parse error: cannot read {path}: ")
    assert "Traceback" not in captured.err


@pytest.mark.parametrize(
    "mass",
    [[[0.5, 0.25], [0.25]], [[0.5, [0.5]], [0.0, 0.0]], ["a", "b"], [{}, {}], object()],
)
def test_checked_mass_refuses_what_is_not_a_float_array(mass):
    with pytest.raises(ValidationError, match="^mass is not a float array"):
        checked_mass(mass, (2, 2))


def test_measure_constructors_refuse_ragged_mass():
    with pytest.raises(ValidationError):
        TensorMeasure((0, 1), ([0.0, 1.0], [0.0, 1.0]), [[0.5, 0.25], [0.25]])
    with pytest.raises(ValidationError):
        CheckerboardCopula((0, 1), 2, [[0.5, 0.0], [0.5]])
    assert np.array_equal(
        checked_mass([[0.25, 0.25], [0.25, 0.25]], (2, 2)), np.full((2, 2), 0.25)
    )
