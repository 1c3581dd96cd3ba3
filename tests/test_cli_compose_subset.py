"""``compose --subset`` naming a label that has no marginal exits 3, no traceback."""

from copulagrid import Marginal, serialize
from copulagrid.cli import main


def test_compose_refuses_a_subset_label_without_a_marginal(capsys, tmp_path):
    family = tmp_path / "family.json"
    family.write_text(
        serialize.dumps(
            {
                "kind": "family_spec",
                "rule": "independence",
                "order": 2,
                "universe": {"type": "countable"},
            }
        )
    )
    marginals = tmp_path / "marginals.json"
    marginals.write_text(
        serialize.dumps(
            serialize.encode_marginals(
                {
                    0: Marginal.atomic([(0.0, 0.5), (1.0, 0.5)]),
                    1: Marginal.continuous([(0.0, 0.0), (1.0, 1.0)]),
                }
            )
        )
    )
    code = main(["compose", str(family), str(marginals), "--subset", "0,1,2"])
    captured = capsys.readouterr()
    assert (code, captured.out, captured.err) == (
        3,
        "",
        "incompatible inputs: no marginal supplied for label 2\n",
    )
