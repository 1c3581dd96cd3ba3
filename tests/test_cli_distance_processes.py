"""``distance`` between two order-16 copulas through ``python -m copulagrid.cli`` processes.

Between two random order-16 copulas about half of the 256 atoms on each side
keep mass after the shared mass is paired, so the solve runs on well over
1,024 cells and prices by candidate list.  Both argument orders,
under ``PYTHONHASHSEED`` 0 and 1, must print the same bytes, and those agree
with HiGHS to the printed digits.
"""

from concurrent.futures import ThreadPoolExecutor

import numpy as np

from copulagrid import random_copula, serialize, topology, transport_plan
from helpers import highs_optimum, run_cli
from test_candidate_pricing import recorded_solves


def test_distance_prints_the_same_bytes_in_both_orders_and_hash_seeds(tmp_path):
    rng = np.random.default_rng(16)
    a, b = random_copula((0, 1), 16, rng), random_copula((0, 1), 16, rng)
    for name, copula in (("a.json", a), ("b.json", b)):
        (tmp_path / name).write_text(serialize.dumps(serialize.encode_copula(copula)))
    (res, cells, _), _ = recorded_solves([(a, b)])
    assert cells >= topology._CELL_BLOCK and res.full_pricings < res.pivots + 1

    def printed(case):
        (first, second), seed = case
        proc = run_cli("distance", first, second, cwd=tmp_path, PYTHONHASHSEED=str(seed))
        assert proc.returncode == 0 and proc.stderr == b"", proc.stderr
        return proc.stdout

    orders = (("a.json", "b.json"), ("b.json", "a.json"))
    cases = [(files, seed) for files in orders for seed in (0, 1)]
    with ThreadPoolExecutor(2) as pool:
        outputs = list(pool.map(printed, cases))
    assert len(set(outputs)) == 1
    res = transport_plan(a, b)
    highs = highs_optimum(res.cost, res.row_masses, res.col_masses)
    assert outputs[0] == f"{highs:.12g}\n".encode()
