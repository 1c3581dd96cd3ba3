"""Family evaluation under re-entry and concurrency: no hang, one rule call per subset."""

import sys
import threading
import time

import pytest

from copulagrid import (
    EvaluationError,
    IndexUniverse,
    ProjectiveFamily,
    check_consistency,
    family_member,
    make_independence,
    marginalize_copula,
)


def run_bounded(fn, seconds=10.0):
    """Run ``fn`` in a thread; fail instead of hanging when it does not return."""
    out = {}

    def target():
        try:
            out["value"] = fn()
        except Exception as exc:  # handed to the test below
            out["error"] = exc

    worker = threading.Thread(target=target, daemon=True)
    worker.start()
    worker.join(seconds)
    assert not worker.is_alive(), "family evaluation hung"
    if "error" in out:
        raise out["error"]
    return out["value"]


def test_rule_evaluating_its_own_family_returns():
    def rule(subset):
        if subset == (0, 1):
            return marginalize_copula(family_member(fam, (0, 1, 2)), subset)
        return make_independence(subset, 3)

    fam = ProjectiveFamily(IndexUniverse.finite([0, 1, 2]), "copula", rule)
    member = run_bounded(lambda: family_member(fam, (0, 1)))
    assert member == make_independence((0, 1), 3)
    assert family_member(fam, (0, 1)) is member
    assert family_member(fam, (0, 1, 2)) == make_independence((0, 1, 2), 3)


def test_self_cycle_raises_and_names_the_cycle():
    calls = []

    def rule(subset):
        calls.append(subset)
        if subset == (0, 1):
            return family_member(fam, (0, 1, 2))
        if subset == (0, 1, 2):
            return family_member(fam, (1, 0))
        return make_independence(subset, 2)

    fam = ProjectiveFamily(IndexUniverse.countable(), "copula", rule)
    with pytest.raises(EvaluationError, match=r"cycle: \(0, 1\) -> \(0, 1, 2\) -> \(0, 1\)"):
        run_bounded(lambda: family_member(fam, (0, 1)))
    # nothing was cached and no evaluation is left running
    assert family_member(fam, (0,)) == make_independence((0,), 2)
    with pytest.raises(EvaluationError, match="cycle"):
        run_bounded(lambda: family_member(fam, (0, 1, 2)))
    assert calls.count((0, 1)) == 2


def test_concurrent_callers_share_one_rule_call():
    calls = []
    gate = threading.Barrier(8)

    def rule(subset):
        calls.append(subset)
        time.sleep(0.05)
        return make_independence(subset, 4)

    fam = ProjectiveFamily(IndexUniverse.finite([0, 1]), "copula", rule)
    results = [None] * 8

    def caller(k):
        gate.wait(timeout=10)
        results[k] = family_member(fam, (0, 1))

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=caller, args=(k,), daemon=True) for k in range(8)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(10)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    assert calls == [(0, 1)]
    assert all(r is results[0] for r in results) and results[0] is not None


def test_failed_rule_is_retried_by_the_next_caller():
    attempts = []

    def rule(subset):
        attempts.append(subset)
        if len(attempts) == 1:
            raise RuntimeError("transient")
        return make_independence(subset, 2)

    fam = ProjectiveFamily(IndexUniverse.finite([0, 1]), "copula", rule)
    with pytest.raises(RuntimeError, match="transient"):
        family_member(fam, (0, 1))
    assert run_bounded(lambda: family_member(fam, (0, 1))) == make_independence((0, 1), 2)
    assert attempts == [(0, 1), (0, 1)]


def test_cycle_across_threads_raises_in_both():
    started = threading.Barrier(2)

    def rule(subset):
        time.sleep(0.02)
        return family_member(fam, (1,) if subset == (0,) else (0,))

    fam = ProjectiveFamily(IndexUniverse.finite([0, 1]), "copula", rule)
    errors = [None, None]

    def caller(k):
        started.wait(timeout=10)
        try:
            family_member(fam, (k,))
        except EvaluationError as exc:
            errors[k] = exc

    threads = [threading.Thread(target=caller, args=(k,), daemon=True) for k in range(2)]
    for t in threads:
        t.start()
    for t in threads:
        t.join(10)
    assert not any(t.is_alive() for t in threads), "family evaluation hung"
    assert "cycle: (0,) -> (1,) -> (0,)" in str(errors[0])
    assert "cycle: (1,) -> (0,) -> (1,)" in str(errors[1])


def test_consistency_rerun_holds_the_family_lock():
    # check_consistency re-runs each rule once; that run must exclude every
    # other rule of the family, as family_member's runs do
    running, peak, calls = [0], [0], []
    count = threading.Lock()
    rerun_started, other_ran = threading.Event(), threading.Event()

    def rule(subset):
        with count:
            running[0] += 1
            peak[0] = max(peak[0], running[0])
        calls.append(subset)
        try:
            if subset == (1,):
                other_ran.set()
            elif calls.count((0,)) == 2:
                rerun_started.set()
                # wait for the other caller's rule, which must not start meanwhile
                other_ran.wait(0.5)
            return make_independence(subset, 2)
        finally:
            with count:
                running[0] -= 1

    fam = ProjectiveFamily(IndexUniverse.finite([0, 1]), "copula", rule)
    reports = []
    checker = threading.Thread(
        target=lambda: reports.append(check_consistency(fam, [(0,)])), daemon=True
    )
    checker.start()
    assert rerun_started.wait(10), "the consistency re-run never started"
    member = run_bounded(lambda: family_member(fam, (1,)))
    checker.join(10)
    assert not checker.is_alive(), "check_consistency hung"
    assert member == make_independence((1,), 2)
    assert reports and reports[0].passed
    assert peak[0] == 1
