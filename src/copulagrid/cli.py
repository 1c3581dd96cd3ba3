"""Command-line interface.

Subcommands: ``validate``, ``compose``, ``decompose``, ``distance``,
``compact-demo``, ``extremal``.  Reports go to standard output, errors to
standard error.  Exit codes: 0 pass, 1 parse error, 2 validation failure,
3 incompatible inputs, 4 unsupported case, 141 standard output closed by its
reader before the report was written (no traceback).
"""

from __future__ import annotations

import argparse
import itertools
import json
import os
import sys
from pathlib import Path

import numpy as np

from . import serialize
from .copulas import CheckerboardCopula, _checked_order, _checked_seed, random_copula
from .copulas import validate_copula
from .errors import (
    CompatibilityError,
    ConfigurationError,
    EvaluationError,
    ParseError,
    UnsupportedError,
    ValidationError,
)
from .extremal import maximize_convex
from .measures import ATOMIC, TensorMeasure, quantile
from .projective import (
    COPULA,
    IndexUniverse,
    ProjectiveFamily,
    canonical_subsets,
    check_consistency,
    family_from_copula,
    family_member,
)
from .sklar import JointMeasure, _sweep, compose, decompose, discretize_joint
from .topology import (
    FddMetricConfig,
    _checked_eps,
    compactness_probe,
    fdd_distance,
    transport_distance,
    w1_one_dim,
)

_MAX_PROBES = 4096

#: the exit code when the reader closes standard output early: 128 + SIGPIPE,
#: what a shell reports for a writer that a closed pipe stopped
_CLOSED_OUTPUT = 141


def _load(path: str, kind=object, refusal: str = ""):
    try:
        text = Path(path).read_text(encoding="utf-8")
    except (OSError, UnicodeDecodeError) as exc:
        raise ParseError(f"cannot read {path}: {exc}") from None
    obj = serialize.loads(text)
    if not isinstance(obj, kind):
        raise CompatibilityError(refusal)
    return obj


def _parse_labels(text: str):
    labels = []
    for token in text.split(","):
        token = token.strip()
        if not token:
            raise ParseError(f"empty label in subset {text!r}")
        try:
            labels.append(int(token))
        except ValueError:
            labels.append(token)
    return labels


def _emit(args, doc: dict):
    rendered = serialize.dumps(doc)
    if getattr(args, "out", None):
        Path(args.out).write_text(rendered)
        print(f"wrote {args.out}")
    else:
        sys.stdout.write(rendered)


def _copula_family(obj) -> ProjectiveFamily:
    if isinstance(obj, CheckerboardCopula):
        return family_from_copula(obj)
    if isinstance(obj, ProjectiveFamily):
        if obj.kind != COPULA:
            raise CompatibilityError("family file does not describe a copula family")
        return obj
    raise CompatibilityError("expected a checkerboard_copula or copula family_spec file")


def _quantile_grids(jm: JointMeasure, labels, order: int) -> dict:
    """Quantile points at the copula's own resolution for continuous axes.

    Binning a joint discretized on this grid gives the copula back only up to each
    point's CDF miss of its level, so a steep knot segment can make decompose refuse.
    """
    grids = {}
    for lab in labels:
        m = jm.marginal(lab)
        if m.kind != ATOMIC:
            grids[lab] = [quantile(m, (k + 1) / order) for k in range(order)]
    return grids


def _probe_points(t: TensorMeasure):
    axes = [list(axis) for axis in t.grid]
    return itertools.islice(itertools.product(*axes), _MAX_PROBES)


def cmd_validate(args) -> int:
    obj = _load(args.path)
    if isinstance(obj, CheckerboardCopula):
        report = validate_copula(obj)
        if report.passed:
            print(f"checkerboard_copula: pass (max margin deviation {report.max_deviation:.3e})")
            return 0
        for issue in report.issues:
            print(f"fail {issue.where}: {issue.message} (deviation {issue.deviation:.3e})")
        return 2
    if isinstance(obj, TensorMeasure):
        print("tensor_measure: pass (invariants hold)")
        return 0
    if isinstance(obj, dict):  # marginals
        print(f"marginal: pass ({len(obj)} entries, invariants hold)")
        return 0
    if isinstance(obj, ProjectiveFamily):
        # the first 2**k - 1 canonical subsets span the first k labels (islice
        # takes at most sys.maxsize); failures are reported smallest subset first
        count = 2 ** min(_checked_order(args.depth, "depth"), sys.maxsize.bit_length()) - 1
        subsets = itertools.islice(canonical_subsets(obj.universe), count)
        subsets = sorted(subsets, key=lambda subset: (len(subset), subset))
        report = check_consistency(obj, subsets, tol=args.tol)
        for chk in report.checks:
            if not chk.ok:
                print(f"fail {chk.inner!r} <= {chk.outer!r}: {chk.message}")
        if report.passed:
            print(
                f"family_spec: consistent on {len(subsets)} subsets "
                f"(max deviation {report.max_deviation:.3e})"
            )
            return 0
        return 2
    raise ParseError("unrecognized document")


def cmd_compose(args) -> int:
    family = _copula_family(_load(args.copula))
    marginals = _load(args.marginals, dict, "second argument must be a marginal file")
    if args.subset:
        subset = _parse_labels(args.subset)
    elif family.universe.kind == IndexUniverse.FINITE:
        subset = list(family.universe.labels)
    else:
        raise ConfigurationError("--subset is required for countable universes")
    jm = compose(family, marginals)
    order = family_member(family, subset).order
    grids = _quantile_grids(jm, subset, order)
    joint = discretize_joint(jm, subset, grids=grids)
    report = _sweep(jm, joint, _probe_points(joint))
    print(f"sklar_max_deviation = {report.max_deviation:.12g}")
    _emit(args, serialize.encode_tensor(joint))
    return 0


def cmd_decompose(args) -> int:
    joint = _load(args.joint, TensorMeasure, "first argument must be a tensor_measure file")
    marginals = _load(args.marginals, dict, "second argument must be a marginal file")
    copula = decompose(joint, marginals, args.order)
    jm = compose(family_from_copula(copula), marginals)
    report = _sweep(jm, joint, _probe_points(joint))
    print(f"round_trip_max_deviation = {report.max_deviation:.12g}")
    _emit(args, serialize.encode_copula(copula))
    return 0


def cmd_distance(args) -> int:
    a = _load(args.file_a)
    b = _load(args.file_b)
    if isinstance(a, ProjectiveFamily) or isinstance(b, ProjectiveFamily):
        if not (isinstance(a, ProjectiveFamily) and isinstance(b, ProjectiveFamily)):
            raise CompatibilityError("family distances need two family_spec files")
        if not args.fdd:
            raise CompatibilityError("comparing families requires --fdd")
        config = FddMetricConfig() if args.depth is None else FddMetricConfig(depth=args.depth)
        value = fdd_distance(a, b, config)
    elif args.fdd or args.depth is not None:
        raise CompatibilityError("--fdd and --depth compare two family_spec files only")
    elif isinstance(a, dict) or isinstance(b, dict):
        if not (isinstance(a, dict) and isinstance(b, dict)):
            raise CompatibilityError("marginal distances need two marginal files")
        if len(a) != 1 or len(b) != 1:
            raise CompatibilityError("marginal distance expects single-entry files")
        value = w1_one_dim(next(iter(a.values())), next(iter(b.values())))
    else:
        value = transport_distance(a, b)
    print(f"{value:.12g}")
    return 0


def cmd_compact_demo(args) -> int:
    _checked_eps(args.eps)
    rng = np.random.default_rng(_checked_seed(args.seed))
    labels = (0, 1)
    anchors = [random_copula(labels, args.order, rng) for _ in range(3)]
    # convex mixing keeps each draw within eps/2 of its anchor in max norm
    blend = min(0.45, 0.45 * args.order * args.eps)
    seq = []
    for _ in range(args.count):
        anchor = anchors[int(rng.integers(0, 3))]
        noise = random_copula(labels, args.order, rng)
        mass = (1.0 - blend) * anchor.mass + blend * noise.mass
        seq.append(CheckerboardCopula(labels, args.order, mass))
    result = compactness_probe(seq, args.eps)
    report = {
        "count": args.count,
        "eps": serialize.encode_float(args.eps),
        "num_clusters": result.num_clusters,
        "order": args.order,
        "representative_index": result.representative_index,
        "representative_valid": bool(validate_copula(result.representative).passed),
        "seed": args.seed,
        "subsequence": list(result.indices),
        "subsequence_length": len(result.indices),
    }
    print(json.dumps(report, sort_keys=True))
    return 0


def _linear_functional(rng, n):
    cost = rng.uniform(-1.0, 1.0, size=(n, n))
    return lambda c: float(np.sum(cost * c.mass))


_FUNCTIONALS = {
    "linear": _linear_functional,
    "max_cell": lambda rng, n: lambda c: float(np.max(c.mass)),
    "sum_squares": lambda rng, n: lambda c: float(np.sum(c.mass**2)),
}


def cmd_extremal(args) -> int:
    rng = np.random.default_rng(_checked_seed(args.seed))
    functional = _FUNCTIONALS[args.functional](rng, _checked_order(args.order))
    result = maximize_convex(
        functional,
        args.order,
        interior_samples=args.samples,
        seed=args.seed + 1,
    )
    report = {
        "best_permutation": list(result.extremal_permutation),
        "extremal_value": serialize.encode_float(result.extremal_value),
        "functional": args.functional,
        "interior_samples": result.interior_samples,
        "interior_value": serialize.encode_float(result.interior_value),
        "interior_within_bound": result.interior_within_bound,
        "order": args.order,
        "seed": args.seed,
    }
    print(json.dumps(report, sort_keys=True))
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="copulagrid",
        description="Checkerboard copulas, projective families, and transport metrics",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("validate", help="validate a document and report violations")
    p.add_argument("path")
    p.add_argument("--depth", type=int, default=4, help="labels spanned by the consistency check")
    p.add_argument("--tol", type=float, default=1e-12)
    p.set_defaults(handler=cmd_validate)

    p = sub.add_parser("compose", help="compose a copula with marginals into a joint")
    p.add_argument("copula")
    p.add_argument("marginals")
    p.add_argument("--subset", help="comma-separated labels, e.g. 0,1")
    p.add_argument("--out")
    p.set_defaults(handler=cmd_compose)

    p = sub.add_parser("decompose", help="recover the copula of a joint measure")
    p.add_argument("joint")
    p.add_argument("marginals")
    p.add_argument("--order", type=int, required=True)
    p.add_argument("--out")
    p.set_defaults(handler=cmd_decompose)

    p = sub.add_parser("distance", help="transport, marginal, or family distance")
    p.add_argument("file_a")
    p.add_argument("file_b")
    p.add_argument("--fdd", action="store_true", help="compare family_spec files")
    p.add_argument("--depth", type=int, help="canonical subsets --fdd compares (default 7)")
    p.set_defaults(handler=cmd_distance)

    p = sub.add_parser("compact-demo", help="greedy clustering of a random copula sequence")
    p.add_argument("--count", type=int, default=30)
    p.add_argument("--order", type=int, default=4)
    p.add_argument("--eps", type=float, default=0.05)
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(handler=cmd_compact_demo)

    p = sub.add_parser("extremal", help="maximize a convex functional over copulas")
    p.add_argument("--order", type=int, default=4)
    p.add_argument("--functional", choices=sorted(_FUNCTIONALS), default="linear")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--samples", type=int, default=200)
    p.set_defaults(handler=cmd_extremal)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        status = _run(args)
        sys.stdout.flush()  # a reader that has gone shows here, not in the flush at exit
    except BrokenPipeError:
        # nothing more reaches the reader: what is left to flush goes to the null device
        null = os.open(os.devnull, os.O_WRONLY)
        os.dup2(null, sys.stdout.fileno())
        os.close(null)
        return _CLOSED_OUTPUT
    return status


def _run(args) -> int:
    """The handler's exit code, or the code of the typed error it raised, reported on stderr."""
    try:
        return args.handler(args)
    except ParseError as exc:
        print(f"parse error: {exc}", file=sys.stderr)
        return 1
    except (ValidationError, EvaluationError) as exc:
        print(f"validation error: {exc}", file=sys.stderr)
        return 2
    except (CompatibilityError, ConfigurationError) as exc:
        print(f"incompatible inputs: {exc}", file=sys.stderr)
        return 3
    except UnsupportedError as exc:
        print(f"unsupported case: {exc}", file=sys.stderr)
        return 4


if __name__ == "__main__":
    sys.exit(main())
