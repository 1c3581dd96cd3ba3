"""The three workloads: size schedules, seeded inputs, operations and oracles.

Each workload builds one *cycle* of cases from the seed.  A case is one
operation on inputs that were built before timing starts; the operation calls
the same public functions, in the same order, as the CLI command it mirrors.
Sizes come from the workload's schedule and never from the seed: the seed
draws only masses, knots, atoms and the seeds handed to the library.

Library functions are always reached through module attributes at call time
(``cg.transport_plan``, ``serialize.dumps``), so the tracer's rebinding sees
every call.

A case's ``check`` is its oracle.  It runs after the timed loops, imports
:mod:`oracles` (numpy and scipy only) and returns failure messages.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field
from typing import Any, Callable

import numpy as np

#: the CLI's cap on the number of grid nodes a compose/decompose check probes
MAX_PROBES = 4096


@dataclass
class Case:
    slot: str
    run: Callable[[], Any]
    digest: Callable[[Any], Any]
    check: Callable[[Any], list]
    counters: Callable[[Any], dict] = field(default=lambda out: {})


@dataclass(frozen=True)
class Workload:
    name: str
    build: Callable
    schedule: dict
    smoke: dict
    #: cycles a run always completes; latency percentiles use the best of
    #: this many repeats of each operation
    min_cycles: int
    #: name prefixes whose traced self time is predicted to dominate
    dominant: tuple


# ---------------------------------------------------------------------------
# fdd-transport: `distance` and `distance --fdd`
# ---------------------------------------------------------------------------


def _transport_case(cg, order, a, b, check_swap) -> Case:
    def run():
        return cg.transport_plan(a, b)

    def check(result):
        import oracles

        fails = []
        expected = oracles.tensor_distance(a.grid, a.mass, b.grid, b.mass)
        if not abs(result.value - expected) <= 1e-9:
            fails.append(f"value {result.value!r} vs HiGHS {expected!r}")
        if check_swap:
            swapped = cg.transport_plan(b, a).value
            if swapped != result.value:
                fails.append(f"swapped arguments give {swapped!r}, not {result.value!r}")
        return fails

    return Case(f"transport_plan/n={order}", run, lambda r: (r.value, r.pivots), check)


def _fdd_case(cg, order, f_copula, g_copula, depth, check_swap) -> Case:
    config = cg.FddMetricConfig(depth=depth)

    def run():
        return cg.fdd_distance(
            cg.family_from_copula(f_copula), cg.family_from_copula(g_copula), config
        )

    def check(value):
        import oracles

        fails = []
        expected = oracles.fdd_value(
            f_copula.mass, g_copula.mass, f_copula.labels, order, depth
        )
        if not abs(value - expected) <= 1e-9:
            fails.append(f"fdd {value!r} vs HiGHS {expected!r}")
        if check_swap:
            swapped = cg.fdd_distance(
                cg.family_from_copula(g_copula), cg.family_from_copula(f_copula), config
            )
            if swapped != value:
                fails.append(f"swapped families give {swapped!r}, not {value!r}")
        return fails

    return Case(f"fdd_distance/n={order}", run, lambda v: v, check)


def build_fdd_transport(cg, rng, s) -> list:
    """Each size's number of draws is its value in the schedule; the swap
    check costs a second solve, so it runs on the first draw of each size only.

    The draws are weighted so that, in the sorted latencies of a cycle, the
    median falls among the order-12 transport draws, with as many cheaper
    operations below them as costlier ones above, and the p75 tail among the
    order-14 ones.  A percentile that falls on the boundary between two size
    classes, or on a class of few draws, moves with the seed by however the
    drawn inputs happen to come out.
    """
    cases = []
    labels = tuple(range(s["fdd_labels"]))
    rounds = max(*s["transport_orders"].values(), *s["fdd_orders"].values())
    for draw in range(rounds):
        for n, draws in s["transport_orders"].items():
            if draw < draws:
                a = cg.to_tensor_measure(cg.random_copula((0, 1), n, rng))
                b = cg.to_tensor_measure(cg.random_copula((0, 1), n, rng))
                cases.append(_transport_case(cg, n, a, b, check_swap=draw == 0))
        for n, draws in s["fdd_orders"].items():
            if draw < draws:
                f = cg.random_copula(labels, n, rng)
                g = cg.random_copula(labels, n, rng)
                cases.append(_fdd_case(cg, n, f, g, s["depth"], check_swap=draw == 0))
    return cases


# ---------------------------------------------------------------------------
# sklar-roundtrip: `compose` then `decompose`, with a continuity probe
# ---------------------------------------------------------------------------


def _continuous_marginal(cg, rng, knots):
    xs = np.cumsum(rng.uniform(0.1, 1.0, size=knots)) - 0.275 * knots
    gaps = rng.uniform(0.1, 1.0, size=knots - 1)
    fs = np.concatenate(([0.0], np.cumsum(gaps) / gaps.sum()))
    fs[-1] = 1.0
    return cg.Marginal.continuous(list(zip(xs.tolist(), fs.tolist())))


def _atomic_marginal(cg, rng, atoms):
    """``atoms`` atoms, the first at ``-inf`` and the last at ``+inf``."""
    finite = np.cumsum(rng.uniform(0.1, 1.0, size=atoms - 2)) - 0.275 * atoms
    xs = [-math.inf, *finite.tolist(), math.inf]
    ws = rng.dirichlet(np.ones(atoms))
    return cg.Marginal.atomic(list(zip(xs, ws.tolist())))


def _probe_points(t):
    return itertools.islice(itertools.product(*[list(axis) for axis in t.grid]), MAX_PROBES)


def _roundtrip_case(cg, copula, marginals, continuous) -> Case:
    from copulagrid import serialize

    labels = list(copula.labels)
    subsets = [
        combo for size in range(1, len(labels) + 1) for combo in itertools.combinations(labels, size)
    ]

    def run():
        # compose COPULA MARGINALS
        family = cg.family_from_copula(copula)
        jm = cg.compose(family, marginals)
        order = cg.family_member(family, labels).order
        grids = {
            lab: [cg.quantile(m, (k + 1) / order) for k in range(order)]
            for lab, m in marginals.items()
            if m.kind != "atomic"
        }
        joint = cg.discretize_joint(jm, labels, grids=grids)
        report = cg.verify_sklar(jm, labels, _probe_points(joint), grids=grids)
        text = serialize.dumps(serialize.encode_tensor(joint))
        # decompose JOINT MARGINALS --order n, reading the joint back
        back = serialize.loads(text)
        out = {"joint": joint, "report": report, "text": text, "back": back}
        if continuous:
            recovered = cg.decompose(back, marginals, order)
            jm_back = cg.compose(cg.family_from_copula(recovered), marginals)
            dev = 0.0
            for probe in _probe_points(back):
                dev = max(
                    dev,
                    abs(cg.joint_cdf(jm_back, back.labels, probe) - cg.cdf_eval_tensor(back, probe)),
                )
            out["recovered"] = recovered
            out["round_trip_dev"] = dev
            out["copula_text"] = serialize.dumps(serialize.encode_copula(recovered))
        # validate on the family of the joint's marginals
        out["consistency"] = cg.check_consistency(cg.family_from_joint(back), subsets)
        return out

    def digest(out):
        return (
            out["report"].max_deviation,
            out["report"].probes_checked,
            out["text"],
            out.get("round_trip_dev"),
            out.get("copula_text"),
            out["consistency"].max_deviation,
        )

    def check(out):
        fails = []
        joint, back, report = out["joint"], out["back"], out["report"]
        if not report.max_deviation <= 1e-12:
            fails.append(f"verify_sklar deviation {report.max_deviation!r}")
        nodes = math.prod(len(axis) for axis in joint.grid)
        if report.probes_checked != min(nodes, MAX_PROBES):
            fails.append(f"verify_sklar checked {report.probes_checked} of {nodes} nodes")
        exact = (
            back.labels == joint.labels
            and all(np.array_equal(x, y) for x, y in zip(back.grid, joint.grid))
            and np.array_equal(back.mass, joint.mass)
        )
        if not exact:
            fails.append("serialize round trip of the joint is not exact")
        if continuous:
            dev = float(np.max(np.abs(out["recovered"].mass - copula.mass)))
            if not dev <= 1e-9:
                fails.append(f"decompose misses the source copula by {dev!r}")
            if not out["round_trip_dev"] <= 1e-12:
                fails.append(f"decompose round-trip CDF deviation {out['round_trip_dev']!r}")
        if not out["consistency"].passed:
            fails.append("family_from_joint failed its consistency check")
        return fails

    kind = "continuous" if continuous else "atomic"
    return Case(f"roundtrip/d={copula.ndim},n={copula.order},{kind}", run, digest, check)


def _continuity_case(cg, copula, marginals, epsilons, depth, seed) -> Case:
    config = cg.FddMetricConfig(depth=depth)

    def run():
        return cg.continuity_probe(copula, marginals, epsilons, config, seed=seed)

    def check(report):
        fails = []
        if tuple(s.epsilon for s in report.steps) != tuple(epsilons):
            fails.append("continuity probe skipped an epsilon")
        for step in report.steps:
            if not (0.0 <= step.output_distance <= 1.0 and math.isfinite(step.input_distance)):
                fails.append(f"continuity step out of range: {step!r}")
        return fails

    return Case(f"continuity_probe/n={copula.order}", run, lambda r: r.steps, check)


def build_sklar_roundtrip(cg, rng, s) -> list:
    roundtrips = []
    for variant in range(s["draws"] * len(s["knots"])):
        for d, n in s["copulas"]:
            labels = tuple(range(d))
            for continuous in (True, False):
                copula = cg.random_copula(labels, n, rng)
                sizes = s["knots"] if continuous else s["atoms"]
                make = _continuous_marginal if continuous else _atomic_marginal
                marginals = {
                    lab: make(cg, rng, sizes[(variant + lab) % len(sizes)]) for lab in labels
                }
                roundtrips.append(_roundtrip_case(cg, copula, marginals, continuous))
    probe = s["continuity"]
    cases = []
    for k, case in enumerate(roundtrips, start=1):
        cases.append(case)
        if k % (s["probe_every"] - 1) == 0:
            copula = cg.random_copula((0, 1), probe["order"], rng)
            marginals = {lab: _atomic_marginal(cg, rng, probe["atoms"]) for lab in (0, 1)}
            seed = int(rng.integers(0, 2**31))
            cases.append(
                _continuity_case(cg, copula, marginals, probe["epsilons"], probe["depth"], seed)
            )
    return cases


# ---------------------------------------------------------------------------
# extremal-search: `extremal`, Birkhoff decomposition and `compact-demo`
# ---------------------------------------------------------------------------


class LinearFunctional:
    """``c -> sum(cost * c.mass)``, counting its evaluations."""

    def __init__(self, cost):
        self.cost = cost
        self.evals = 0

    def __call__(self, c) -> float:
        self.evals += 1
        return float(np.sum(self.cost * c.mass))


def _convex_case(cg, order, cost, samples, seed) -> Case:
    functional = LinearFunctional(cost)

    def run():
        functional.evals = 0
        result = cg.maximize_convex(functional, order, interior_samples=samples, seed=seed)
        return result, functional.evals

    def check(out):
        import oracles

        result, _ = out
        fails = []
        expected = oracles.assignment_optimum(cost)
        if result.extremal_value != expected:
            fails.append(f"maximum {result.extremal_value!r} vs assignment {expected!r}")
        if not result.interior_within_bound or result.midpoint_violations:
            fails.append("interior sample above the extremal maximum of a linear functional")
        return fails

    return Case(
        f"maximize_convex/n={order}",
        run,
        lambda out: (out[0].extremal_value, out[0].extremal_permutation, out[0].interior_value, out[1]),
        check,
        lambda out: {("extremal.maximize_convex", "functional_evals"): out[1]},
    )


def _birkhoff_case(cg, copula) -> Case:
    n = copula.order

    def run():
        return cg.birkhoff_decompose(copula)

    def check(terms):
        import oracles

        fails = []
        if any(sorted(p) != list(range(n)) for _, p in terms):
            fails.append("a Birkhoff term is not a permutation")
        if any(w < 0 for w, _ in terms) or len(terms) > n * n - 2 * n + 2:
            fails.append(f"{len(terms)} terms, or a negative weight")
        weight_dev, mass_dev = oracles.birkhoff_residuals(terms, copula.mass)
        if not (weight_dev <= 1e-12 and mass_dev <= 1e-12):
            fails.append(f"weights off by {weight_dev!r}, rebuilt mass off by {mass_dev!r}")
        return fails

    return Case(f"birkhoff_decompose/n={n}", run, lambda terms: terms, check)


def _compactness_case(cg, seq, eps) -> Case:
    def run():
        result = cg.compactness_probe(seq, eps)
        return result, cg.validate_copula(result.representative).passed

    def check(out):
        result, valid = out
        fails = []
        idx = result.indices
        if not idx or any(b <= a for a, b in zip(idx, idx[1:])):
            fails.append(f"indices not strictly increasing: {idx!r}")
        elif idx[0] != result.representative_index:
            fails.append("representative is not the first index")
        else:
            anchor = seq[result.representative_index].mass
            worst = max(float(np.max(np.abs(seq[k].mass - anchor))) for k in idx)
            if worst > eps:
                fails.append(f"cluster member {worst!r} away from its anchor")
        if len(idx) < math.ceil(len(seq) / result.num_clusters):
            fails.append("subsequence shorter than the pigeonhole bound")
        if not valid:
            fails.append("representative is not a copula")
        return fails

    return Case(
        f"compactness_probe/n={seq[0].order}",
        run,
        lambda out: (out[0].indices, out[0].num_clusters, out[1]),
        check,
    )


def _compact_sequence(cg, rng, count, order, eps):
    """The `compact-demo` sequence: draws blended towards one of three anchors."""
    labels = (0, 1)
    anchors = [cg.random_copula(labels, order, rng) for _ in range(3)]
    blend = min(0.45, 0.45 * order * eps)
    seq = []
    for _ in range(count):
        anchor = anchors[int(rng.integers(0, 3))]
        noise = cg.random_copula(labels, order, rng)
        seq.append(cg.CheckerboardCopula(labels, order, (1.0 - blend) * anchor.mass + blend * noise.mass))
    return seq


def build_extremal_search(cg, rng, s) -> list:
    cases = []
    for _ in range(s["draws"]):
        for n in s["convex_orders"]:
            cost = rng.uniform(-1.0, 1.0, size=(n, n))
            seed = int(rng.integers(0, 2**31))
            cases.append(_convex_case(cg, n, cost, s["interior_samples"], seed))
        for n in s["birkhoff_orders"]:
            cases.append(_birkhoff_case(cg, cg.random_copula((0, 1), n, rng)))
        c = s["compact"]
        seq = _compact_sequence(cg, rng, c["count"], c["order"], c["eps"])
        cases.append(_compactness_case(cg, seq, c["eps"]))
    return cases


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            name="fdd-transport",
            build=build_fdd_transport,
            schedule={
                # order -> draws per cycle
                "transport_orders": {10: 16, 12: 12, 14: 15, 16: 5},
                "fdd_orders": {4: 15, 5: 6, 6: 5},
                "fdd_labels": 3,
                "depth": 7,
            },
            smoke={
                "transport_orders": {3: 1, 4: 1},
                "fdd_orders": {2: 1},
                "fdd_labels": 3,
                "depth": 7,
            },
            min_cycles=1,
            dominant=("topology.transport_plan",),
        ),
        Workload(
            name="sklar-roundtrip",
            build=build_sklar_roundtrip,
            schedule={
                "copulas": ((2, 8), (2, 16), (3, 6), (3, 8)),
                "knots": (32, 48, 64),
                "atoms": (4, 8, 16),
                "draws": 7,
                "probe_every": 4,
                "continuity": {
                    "order": 4,
                    "atoms": 6,
                    "epsilons": (0.25, 0.125, 0.0625),
                    "depth": 3,
                },
            },
            smoke={
                "copulas": ((2, 3), (3, 2)),
                "knots": (4,),
                "atoms": (3,),
                "draws": 1,
                "probe_every": 4,
                "continuity": {"order": 2, "atoms": 3, "epsilons": (0.25,), "depth": 2},
            },
            min_cycles=2,
            dominant=("measures", "copulas", "projective", "sklar"),
        ),
        Workload(
            name="extremal-search",
            build=build_extremal_search,
            schedule={
                "convex_orders": (6, 7, 8),
                "interior_samples": 200,
                "birkhoff_orders": (12, 20, 30),
                "compact": {"count": 60, "order": 6, "eps": 0.01},
                "draws": 6,
            },
            smoke={
                "convex_orders": (3, 4),
                "interior_samples": 10,
                "birkhoff_orders": (3, 5),
                "compact": {"count": 8, "order": 3, "eps": 0.02},
                "draws": 1,
            },
            min_cycles=1,
            dominant=("copulas", "extremal"),
        ),
    )
}
