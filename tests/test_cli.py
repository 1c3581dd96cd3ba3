import json

import numpy as np
import pytest

from copulagrid import (
    Marginal,
    NEG_INF,
    POS_INF,
    TensorMeasure,
    make_comonotone,
    make_independence,
)
from copulagrid import serialize
from copulagrid.cli import main


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def write(tmp_path, name, doc):
    path = tmp_path / name
    path.write_text(serialize.dumps(doc))
    return str(path)


@pytest.fixture
def coin_marginals(tmp_path):
    doc = serialize.encode_marginals(
        {
            0: Marginal.atomic([(0.0, 0.5), (1.0, 0.5)]),
            1: Marginal.atomic([(0.0, 0.5), (1.0, 0.5)]),
        }
    )
    return write(tmp_path, "coins.json", doc)


@pytest.fixture
def independence_file(tmp_path):
    return write(tmp_path, "indep.json", serialize.encode_copula(make_independence((0, 1), 2)))


class TestSerializeRoundTrip:
    def corpus(self):
        rng = np.random.default_rng(0)
        marginals = {
            "a": Marginal.atomic([(NEG_INF, 0.125), (0.5, 0.5), (POS_INF, 0.375)]),
            "b": Marginal.continuous([(-1.0, 0.0), (0.3, 0.7), (2.0, 1.0)]),
        }
        tensor = TensorMeasure(
            (0, 1),
            ([-1.5, 0.1], [0.0, 1.0, 2.0]),
            rng.dirichlet(np.ones(6)).reshape(2, 3),
        )
        copula = make_comonotone((0, 1, 2), 3)
        return marginals, tensor, copula

    def test_values_round_trip_exactly(self):
        marginals, tensor, copula = self.corpus()
        assert serialize.loads(serialize.dumps(serialize.encode_marginals(marginals))) == marginals
        assert serialize.loads(serialize.dumps(serialize.encode_tensor(tensor))) == tensor
        assert serialize.loads(serialize.dumps(serialize.encode_copula(copula))) == copula

    def test_rendering_is_stable(self):
        _, tensor, _ = self.corpus()
        once = serialize.dumps(serialize.encode_tensor(tensor))
        twice = serialize.dumps(serialize.encode_tensor(serialize.loads(once)))
        assert once == twice

    def test_infinities_spelled_explicitly(self):
        marginals, _, _ = self.corpus()
        text = serialize.dumps(serialize.encode_marginals(marginals))
        assert '"-inf"' in text and '"+inf"' in text

    def test_unknown_kind_rejected(self):
        with pytest.raises(Exception, match="kind"):
            serialize.loads('{"kind": "mystery"}')


class TestValidateCommand:
    def test_valid_copula_passes(self, capsys, independence_file):
        code, out, _ = run(capsys, "validate", independence_file)
        assert code == 0
        assert "pass" in out

    def test_tampered_margin_names_axis(self, capsys, tmp_path):
        doc = serialize.encode_copula(make_independence((0, 1), 2))
        doc["mass"] = [["1.0", "0.0"], ["0.0", "0.0"]]
        path = write(tmp_path, "bad.json", doc)
        code, out, _ = run(capsys, "validate", path)
        assert code == 2
        assert "axis" in out

    def test_parse_error_reports_location(self, capsys, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text('{"kind": "marginal",')
        code, _, err = run(capsys, "validate", str(path))
        assert code == 1
        assert "line" in err and "column" in err

    def test_family_spec_consistency(self, capsys, tmp_path):
        doc = {"kind": "family_spec", "universe": {"type": "countable"}, "rule": "independence", "order": 2}
        path = write(tmp_path, "family.json", doc)
        code, out, _ = run(capsys, "validate", str(path), "--depth", "3")
        assert code == 0
        assert "consistent" in out

    def test_from_joint_family_spec(self, capsys, tmp_path):
        tensor = TensorMeasure((0, 1), ([0.0, 1.0], [0.0, 1.0]), np.full((2, 2), 0.25))
        doc = {"kind": "family_spec", "rule": "from_joint", "joint": serialize.encode_tensor(tensor)}
        path = write(tmp_path, "joint_family.json", doc)
        code, out, _ = run(capsys, "validate", str(path))
        assert code == 0


class TestComposeCommand:
    def test_independence_with_coins(self, capsys, tmp_path, independence_file, coin_marginals):
        out_path = str(tmp_path / "joint.json")
        code, out, _ = run(
            capsys, "compose", independence_file, coin_marginals, "--out", out_path
        )
        assert code == 0
        assert "sklar_max_deviation = 0" in out
        joint = serialize.loads((tmp_path / "joint.json").read_text())
        assert np.allclose(joint.mass, 0.25, atol=1e-15)

    def test_label_mismatch_exits_three(self, capsys, tmp_path, independence_file):
        doc = serialize.encode_marginals({0: Marginal.atomic([(0.0, 1.0)])})
        path = write(tmp_path, "partial.json", doc)
        code, _, err = run(capsys, "compose", independence_file, path)
        assert code == 3
        assert "marginals missing" in err

    def test_single_label_echoes_marginal(self, capsys, tmp_path, independence_file, coin_marginals):
        code, out, _ = run(
            capsys, "compose", independence_file, coin_marginals, "--subset", "0"
        )
        assert code == 0
        doc = json.loads(out.split("\n", 1)[1])
        assert doc["mass"] == ["0.5", "0.5"]


class TestDecomposeCommand:
    def test_round_trip(self, capsys, tmp_path):
        marg_doc = serialize.encode_marginals(
            {
                0: Marginal.continuous([(0.0, 0.0), (1.0, 1.0)]),
                1: Marginal.continuous([(0.0, 0.0), (1.0, 1.0)]),
            }
        )
        marg_path = write(tmp_path, "uniform.json", marg_doc)
        joint = TensorMeasure(
            (0, 1), ([0.5, 1.0], [0.5, 1.0]), [[0.5, 0.0], [0.0, 0.5]]
        )
        joint_path = write(tmp_path, "diag.json", serialize.encode_tensor(joint))
        code, out, _ = run(
            capsys, "decompose", joint_path, marg_path, "--order", "2"
        )
        assert code == 0
        assert "round_trip_max_deviation" in out
        doc = json.loads(out.split("\n", 1)[1])
        assert doc["mass"] == [["0.5", "0.0"], ["0.0", "0.5"]]

    def test_file_round_trip_with_continuous_marginals(self, capsys, tmp_path):
        from copulagrid import random_copula

        rng = np.random.default_rng(14)
        copula_path = write(
            tmp_path, "c.json", serialize.encode_copula(random_copula((0, 1), 4, rng))
        )
        marg_path = write(
            tmp_path,
            "m.json",
            serialize.encode_marginals(
                {
                    0: Marginal.continuous([(0.0, 0.0), (1.0, 1.0)]),
                    1: Marginal.continuous([(0.0, 0.0), (0.4, 0.7), (1.0, 1.0)]),
                }
            ),
        )
        joint_path = str(tmp_path / "joint.json")
        code, _, _ = run(capsys, "compose", copula_path, marg_path, "--out", joint_path)
        assert code == 0
        back_path = str(tmp_path / "back.json")
        code, out, _ = run(
            capsys, "decompose", joint_path, marg_path, "--order", "4", "--out", back_path
        )
        assert code == 0
        code, out, _ = run(capsys, "distance", copula_path, back_path)
        assert code == 0
        assert float(out.strip()) <= 1e-9

    def test_atomic_marginals_exit_four(self, capsys, tmp_path, coin_marginals):
        joint = TensorMeasure((0, 1), ([0.0, 1.0], [0.0, 1.0]), np.full((2, 2), 0.25))
        joint_path = write(tmp_path, "joint.json", serialize.encode_tensor(joint))
        code, _, err = run(capsys, "decompose", joint_path, coin_marginals, "--order", "2")
        assert code == 4
        assert "not unique" in err


class TestDistanceCommand:
    def test_identical_files_zero(self, capsys, tmp_path):
        t = TensorMeasure((0,), ([0.0, 1.0],), [0.5, 0.5])
        path = write(tmp_path, "t.json", serialize.encode_tensor(t))
        code, out, _ = run(capsys, "distance", path, path)
        assert code == 0
        assert out.strip() == "0"

    def test_coin_versus_dirac(self, capsys, tmp_path):
        coin = write(
            tmp_path,
            "coin.json",
            serialize.encode_tensor(TensorMeasure((0,), ([0.0, 1.0],), [0.5, 0.5])),
        )
        dirac = write(
            tmp_path,
            "dirac.json",
            serialize.encode_tensor(TensorMeasure((0,), ([0.0],), [1.0])),
        )
        code, out, _ = run(capsys, "distance", coin, dirac)
        assert code == 0
        assert out.strip() == "0.125"

    def test_marginal_files_use_one_dim_oracle(self, capsys, tmp_path):
        a = write(
            tmp_path,
            "a.json",
            serialize.encode_marginals({0: Marginal.atomic([(0.0, 1.0)])}),
        )
        b = write(
            tmp_path,
            "b.json",
            serialize.encode_marginals({0: Marginal.atomic([(POS_INF, 1.0)])}),
        )
        code, out, _ = run(capsys, "distance", a, b)
        assert code == 0
        assert out.strip() == "0.5"

    def test_fdd_between_family_specs(self, capsys, tmp_path):
        f = write(
            tmp_path,
            "f.json",
            {"kind": "family_spec", "universe": {"type": "finite", "labels": [0, 1]}, "rule": "independence", "order": 2},
        )
        g = write(
            tmp_path,
            "g.json",
            {"kind": "family_spec", "universe": {"type": "finite", "labels": [0, 1]}, "rule": "comonotone", "order": 2},
        )
        code, out, _ = run(capsys, "distance", f, g, "--fdd", "--depth", "3")
        assert code == 0
        assert float(out.strip()) > 0.0
        # an unset depth compares the first seven canonical subsets, not one
        unset = run(capsys, "distance", f, g, "--fdd")
        assert unset == run(capsys, "distance", f, g, "--fdd", "--depth", "7")
        assert unset != run(capsys, "distance", f, g, "--fdd", "--depth", "1")

    def test_incompatible_kinds_exit_three(self, capsys, tmp_path):
        t = write(
            tmp_path,
            "t.json",
            serialize.encode_tensor(TensorMeasure((0,), ([0.0],), [1.0])),
        )
        m = write(
            tmp_path,
            "m.json",
            serialize.encode_marginals({0: Marginal.atomic([(0.0, 1.0)])}),
        )
        code, _, err = run(capsys, "distance", t, m)
        assert code == 3


class TestDemosAndDeterminism:
    def test_compact_demo_deterministic(self, capsys):
        runs = [
            run(capsys, "compact-demo", "--count", "40", "--order", "3", "--eps", "0.02", "--seed", "9")
            for _ in range(2)
        ]
        assert runs[0] == runs[1]
        code, out, _ = runs[0]
        assert code == 0
        report = json.loads(out)
        assert report["representative_valid"] is True
        assert report["subsequence_length"] >= np.ceil(40 / report["num_clusters"])

    def test_extremal_deterministic_and_bounded(self, capsys):
        runs = [
            run(capsys, "extremal", "--order", "4", "--functional", "linear", "--seed", "5", "--samples", "60")
            for _ in range(2)
        ]
        assert runs[0] == runs[1]
        code, out, _ = runs[0]
        assert code == 0
        report = json.loads(out)
        assert report["interior_within_bound"] is True
        assert float(report["interior_value"]) <= float(report["extremal_value"]) + 1e-9

    def test_compose_deterministic(self, capsys, tmp_path, independence_file, coin_marginals):
        first = run(capsys, "compose", independence_file, coin_marginals)
        second = run(capsys, "compose", independence_file, coin_marginals)
        assert first == second
