"""``birkhoff_decompose`` in ``python`` processes under ``PYTHONHASHSEED`` 0 and 1.

Each round extends the last round's matching, held in Python lists and a
set of free rows; an order that leaked from hashing into the rows a round
seats would change the terms between the two processes.
"""

from concurrent.futures import ThreadPoolExecutor

import numpy as np

from copulagrid import birkhoff_decompose, random_copula
from helpers import run_python

SEED = 30

SCRIPT = f"""
import numpy as np
from copulagrid import birkhoff_decompose, random_copula
c = random_copula((0, 1), 30, np.random.default_rng({SEED}))
for w, perm in birkhoff_decompose(c):
    print(w.hex(), *perm)
"""


def test_terms_are_the_same_across_processes_and_hash_seeds(tmp_path):
    def terms(seed):
        return run_python("-c", SCRIPT, cwd=tmp_path, PYTHONHASHSEED=str(seed))

    with ThreadPoolExecutor(2) as pool:
        procs = list(pool.map(terms, (0, 1)))
    assert [proc.returncode for proc in procs] == [0, 0], [proc.stderr for proc in procs]
    assert procs[0].stdout == procs[1].stdout
    c = random_copula((0, 1), 30, np.random.default_rng(SEED))
    here = "".join(f"{w.hex()} {' '.join(map(str, perm))}\n" for w, perm in birkhoff_decompose(c))
    assert procs[0].stdout.decode() == here
    assert len(here.splitlines()) > 30
