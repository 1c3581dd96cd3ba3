"""One SHA-256 over the outputs of every operation of a benchmark workload.

Usage, from the root of a source checkout::

    python3 tools/digest.py --src PATH --workload sklar-roundtrip --seeds 3 11 27

``PATH`` is the root of the checkout whose ``src/copulagrid`` is imported;
the workloads always come from this checkout's ``bench/workloads.py``, so two
trees are compared on the same operations.  For each seed the workload's
cycle is built as the benchmark builds it, every operation runs once, and
the ``repr`` of its digest (the output the benchmark compares between
repeats) goes into the hash.  Equal hashes for a parent and a change mean
equal outputs, bit for bit, on every operation.  ``--list`` also prints each
operation's digest, for a ``diff`` between trees; ``--smoke`` uses the
workload's smoke sizes.

To compare two trees, give ``--src`` twice::

    python3 tools/digest.py --src PARENT --src CHANGE --workload fdd-transport --seeds 3 11 27

Each tree is hashed in its own process, so the two never share an imported
module.  Both hashes are printed, each with its tree, then ``equal`` or
``differ``; the exit status is 1 when they differ and 2 when a tree fails.
With ``--list``, a line before the verdict gives how many operations' lines
differ, and the largest absolute difference between their values: the
floats in each pair of lines, paired in order (``inf`` when their counts
differ).  Integers (pivots, counts, permutation entries) are counters, not
values, and stay out of the figure; the listed lines show them.
"""

import os

# The benchmark pins every BLAS/OpenMP pool to one thread; so does this, before
# numpy is first imported, so that the arithmetic is the benchmark's.
for _var in (
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "BLIS_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
    "NUMEXPR_NUM_THREADS",
):
    os.environ[_var] = "1"

import sys

sys.dont_write_bytecode = True

import argparse
import hashlib
import math
import re
import subprocess
from pathlib import Path

BENCH = Path(__file__).resolve().parent.parent / "bench"

#: a number in a listed line, not inside a word; the floats among them are the values
NUMBER = re.compile(r"(?<![\w.])[-+]?(?:inf|nan|\d+(?:\.\d*)?(?:[eE][-+]?\d+)?)(?![\w.])")


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument(
        "--src",
        required=True,
        action="append",
        help="root of the checkout to import copulagrid from; twice to compare two trees",
    )
    p.add_argument("--workload", required=True)
    p.add_argument("--seeds", type=int, nargs="+", required=True)
    p.add_argument("--smoke", action="store_true", help="the workload's smoke sizes")
    p.add_argument("--list", action="store_true", help="print every operation's digest")
    return p.parse_args(argv)


def values(line):
    return [float(t) for t in NUMBER.findall(line) if not t.lstrip("+-").isdigit()]


def largest_difference(ours, theirs) -> str:
    """How far the values of the operations whose listed lines differ lie apart.

    Both trees run this checkout's workloads, so their lines pair up in order.
    """
    differ = [(values(x), values(y)) for x, y in zip(ours, theirs) if x != y]
    largest = 0.0
    for xs, ys in differ:
        # equal infinities do not differ; values that do not pair up differ by inf
        gaps = [abs(p - q) for p, q in zip(xs, ys) if p != q] if len(xs) == len(ys) else [math.inf]
        largest = max([largest, *gaps])
    return f"largest difference {largest!r} in {len(differ)} of {len(ours)} operations"


def compare(args) -> int:
    """Hash each tree in a process of its own and say whether the hashes agree."""
    flags = ["--workload", args.workload, "--seeds", *map(str, args.seeds)]
    flags += ["--smoke"] * args.smoke + ["--list"] * args.list
    hashes, listings = [], []
    for tree in args.src:
        proc = subprocess.run(
            [sys.executable, __file__, "--src", tree, *flags], capture_output=True, text=True
        )
        if proc.returncode != 0:
            sys.stderr.write(proc.stderr)
            return 2
        *listed, digest = proc.stdout.splitlines()
        for line in listed:
            print(line)
        print(f"{digest}  {tree}")
        hashes.append(digest)
        listings.append(listed)
    if args.list:
        print(largest_difference(*listings))
    print("equal" if hashes[0] == hashes[1] else "differ")
    return 0 if hashes[0] == hashes[1] else 1


def main(argv=None) -> int:
    args = parse_args(argv)
    if len(args.src) > 2:
        print("--src compares at most two trees", file=sys.stderr)
        return 2
    if len(args.src) == 2:
        return compare(args)
    src = Path(args.src[0]).resolve() / "src"
    if not (src / "copulagrid" / "__init__.py").is_file():
        print(f"no copulagrid sources under {src}", file=sys.stderr)
        return 2
    sys.path[:0] = [str(src), str(BENCH)]
    import numpy as np

    import copulagrid as cg
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        names = sorted(WORKLOADS)
        print(f"unknown workload {args.workload!r}; choose from {names}", file=sys.stderr)
        return 2
    wl = WORKLOADS[args.workload]
    schedule = wl.smoke if args.smoke else wl.schedule
    total = hashlib.sha256()
    for seed in args.seeds:
        for case in wl.build(cg, np.random.default_rng(seed), schedule):
            line = f"{seed} {case.slot} {case.digest(case.run())!r}"
            total.update(line.encode() + b"\n")
            if args.list:
                print(line)
    print(total.hexdigest())
    return 0


if __name__ == "__main__":
    sys.exit(main())
