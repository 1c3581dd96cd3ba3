"""CLI branches outside the main paths: exit code, stderr prefix and stdout of each.

Also pins that negative counts (``--depth``, ``--samples``) are refused with
exit 2 instead of shrinking the work they count.
"""

import json

import pytest

from copulagrid import (
    DomainError,
    Marginal,
    TensorMeasure,
    make_independence,
    maximize_convex,
    serialize,
)
from copulagrid.cli import main


@pytest.fixture
def files(tmp_path):
    def write(name, doc):
        path = tmp_path / name
        path.write_text(serialize.dumps(doc))
        return str(path)

    tensor = TensorMeasure((0, 1), ([0.0, 1.0], [0.0, 1.0]), [[0.25, 0.25], [0.25, 0.25]])
    marginals = {
        0: Marginal.atomic([(0.0, 0.5), (1.0, 0.5)]),
        1: Marginal.continuous([(0.0, 0.0), (1.0, 1.0)]),
    }

    def family(universe, rule="independence"):
        return {"kind": "family_spec", "rule": rule, "order": 2, "universe": universe}

    return {
        "copula": write("copula.json", serialize.encode_copula(make_independence((0, 1), 2))),
        "marginals": write("marginals.json", serialize.encode_marginals(marginals)),
        "one marginal": write("one.json", serialize.encode_marginals({0: marginals[0]})),
        "tensor": write("tensor.json", serialize.encode_tensor(tensor)),
        "family": write("family.json", family({"type": "finite", "labels": [0, 1]})),
        "family 3": write("family3.json", family({"type": "finite", "labels": [0, 1, 2]})),
        "countable": write("countable.json", family({"type": "countable"})),
        "from_joint": write(
            "joint_family.json",
            {"kind": "family_spec", "rule": "from_joint", "joint": serialize.encode_tensor(tensor)},
        ),
    }


def run(capsys, files, *argv):
    code = main([files.get(arg, arg) for arg in argv])
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_validate_tensor_measure(capsys, files):
    assert run(capsys, files, "validate", "tensor") == (
        0,
        "tensor_measure: pass (invariants hold)\n",
        "",
    )


def test_validate_marginal(capsys, files):
    assert run(capsys, files, "validate", "marginals") == (
        0,
        "marginal: pass (2 entries, invariants hold)\n",
        "",
    )


def test_compose_with_a_copula_family_file_matches_the_copula_file(capsys, files):
    via_family = run(capsys, files, "compose", "family", "marginals")
    via_copula = run(capsys, files, "compose", "copula", "marginals")
    assert via_family == via_copula
    code, out, err = via_family
    assert code == 0 and err == ""
    assert out.startswith("sklar_max_deviation = 0\n")
    assert serialize.loads(out.split("\n", 1)[1]).labels == (0, 1)


INCOMPATIBLE = {
    "compose from_joint family": (
        ("compose", "from_joint", "marginals"),
        "family file does not describe a copula family",
    ),
    "compose countable without subset": (
        ("compose", "countable", "marginals"),
        "--subset is required for countable universes",
    ),
    "compose swapped": (
        ("compose", "marginals", "copula"),
        "expected a checkerboard_copula or copula family_spec file",
    ),
    "compose copula twice": (
        ("compose", "copula", "copula"),
        "second argument must be a marginal file",
    ),
    "decompose swapped": (
        ("decompose", "marginals", "tensor", "--order", "2"),
        "first argument must be a tensor_measure file",
    ),
    "decompose tensor twice": (
        ("decompose", "tensor", "tensor", "--order", "2"),
        "second argument must be a marginal file",
    ),
    "distance family and copula": (
        ("distance", "family", "copula"),
        "family distances need two family_spec files",
    ),
    "distance copula and family": (
        ("distance", "copula", "family", "--fdd"),
        "family distances need two family_spec files",
    ),
    "distance families without fdd": (
        ("distance", "family", "family"),
        "comparing families requires --fdd",
    ),
    "distance multi-entry marginals": (
        ("distance", "marginals", "one marginal"),
        "marginal distance expects single-entry files",
    ),
    "distance marginal and copula": (
        ("distance", "one marginal", "copula"),
        "marginal distances need two marginal files",
    ),
    "distance copulas with fdd and depth": (
        ("distance", "copula", "copula", "--fdd", "--depth", "0"),
        "--fdd and --depth compare two family_spec files only",
    ),
    "distance copula and tensor with depth": (
        ("distance", "copula", "tensor", "--depth", "3"),
        "--fdd and --depth compare two family_spec files only",
    ),
    "distance marginals with fdd": (
        ("distance", "one marginal", "one marginal", "--fdd"),
        "--fdd and --depth compare two family_spec files only",
    ),
}


@pytest.mark.parametrize("name", sorted(INCOMPATIBLE))
def test_incompatible_inputs_exit_3(capsys, files, name):
    argv, message = INCOMPATIBLE[name]
    assert run(capsys, files, *argv) == (3, "", f"incompatible inputs: {message}\n")


@pytest.mark.parametrize("depth", ["-1", "-5", "0"])
def test_validate_refuses_a_depth_below_one(capsys, files, depth):
    assert run(capsys, files, "validate", "family 3", "--depth", depth) == (
        2,
        "",
        f"validation error: depth must be >= 1, got {depth}\n",
    )


def test_extremal_refuses_negative_samples(capsys, files):
    assert run(capsys, files, "extremal", "--samples", "-1") == (
        2,
        "",
        "validation error: interior_samples and midpoint_checks must be >= 0, got -1 and 16\n",
    )


def test_extremal_accepts_zero_samples(capsys, files):
    code, out, _ = run(capsys, files, "extremal", "--samples", "0", "--order", "3")
    assert code == 0
    assert json.loads(out)["interior_samples"] == 0


@pytest.mark.parametrize(
    "counts", [{"interior_samples": -1}, {"midpoint_checks": -1}, {"interior_samples": -3.0}]
)
def test_maximize_convex_refuses_negative_counts(counts):
    with pytest.raises(DomainError, match="^interior_samples and midpoint_checks must be >= 0"):
        maximize_convex(lambda c: 0.0, 3, **counts)


@pytest.mark.parametrize("eps", ["-1", "0"])
def test_compact_demo_refuses_a_nonpositive_eps_by_name(capsys, files, eps):
    # eps is checked before the mixing step, whose mass check would not name it
    assert run(capsys, files, "compact-demo", "--eps", eps) == (
        2,
        "",
        "validation error: eps must be positive\n",
    )
