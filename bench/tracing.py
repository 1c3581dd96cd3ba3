"""Span tracing of copulagrid's public functions, applied from outside the package.

The tracer replaces each listed function at every module binding through which
it can be reached (``cdf_eval`` is bound in ``measures``, ``sklar`` and the
package itself, for example), so nested calls such as
``verify_sklar -> joint_cdf -> cdf_eval_copula`` are attributed to the right
parent.  Nothing under ``src/`` is edited; :meth:`Tracer.uninstall` puts every
original binding back.

A span records its name, start, end, parent span and operation id.  Spans are
kept in memory in flat arrays while the traced loop runs and are written out
once, when the run ends.  Self time is a span's duration minus the time its
direct child spans cover.
"""

from __future__ import annotations

import functools
import importlib
import sys
import time
from array import array

import numpy as np

#: ``module.function`` for every function whose spans are recorded; a class
#: name (``copulas.CheckerboardCopula``) traces its constructor
TARGETS = (
    "measures.cdf_eval",
    "measures.quantile",
    "measures.cdf_eval_tensor",
    "measures.marginalize_tensor",
    "copulas.CheckerboardCopula",
    "copulas.cdf_eval_copula",
    "copulas.fit_uniform_margins",
    "copulas.marginalize_copula",
    "copulas.validate_copula",
    "projective.family_member",
    "projective.check_consistency",
    "sklar.joint_cdf",
    "sklar.discretize_joint",
    "sklar.verify_sklar",
    "sklar.decompose",
    "topology.transport_plan",
    "topology.fdd_distance",
    "topology.w1_one_dim",
    "topology.compactness_probe",
    "topology.continuity_probe",
    "extremal.permutation_copula",
    "extremal.birkhoff_decompose",
    "extremal.maximize_convex",
    "serialize.dumps",
    "serialize.loads",
)

#: span name of a family's rule; a rule span under ``family_member`` is a miss
RULE = "projective.rule"


def _transport_counters(result):
    return {"pivots": result.pivots, "support_cells": result.cost.size}


#: counters read from a traced function's return value
RESULT_COUNTERS = {
    "topology.transport_plan": _transport_counters,
    "extremal.birkhoff_decompose": lambda terms: {"terms": len(terms)},
    "serialize.dumps": lambda text: {"bytes": len(text.encode("utf-8"))},
}


class Tracer:
    """Records spans of the traced functions while an operation id is set."""

    def __init__(self, package):
        self.package = package
        self.names: list[str] = []
        self._index: dict[str, int] = {}
        self.name = array("i")
        self.parent = array("l")
        self.op = array("l")
        self.start = array("d")
        self.end = array("d")
        self.counters: dict[tuple[str, str], int] = {}
        self.op_id = -1  # negative: wrappers pass straight through
        self._stack: list[int] = []
        self._patches: list[tuple[object, str, object]] = []

    # -- installation ---------------------------------------------------

    def install(self):
        prefix = self.package.__name__
        for target in TARGETS:
            importlib.import_module(f"{prefix}.{target.split('.')[0]}")
        modules = [
            mod
            for key, mod in sorted(sys.modules.items())
            if mod is not None
            and (key == prefix or key.startswith(prefix + "."))
        ]
        for target in TARGETS:
            module_name, attr = target.split(".")
            original = getattr(sys.modules[f"{prefix}.{module_name}"], attr)
            if isinstance(original, type):
                self._patch(original, "__init__", self._wrap(target, original.__init__))
                continue
            wrapper = self._wrap(target, original)
            bound = 0
            for mod in modules:
                for key, value in list(vars(mod).items()):
                    if value is original:
                        self._patch(mod, key, wrapper)
                        bound += 1
            if not bound:
                raise RuntimeError(f"{target} is bound nowhere in {prefix}")
        family_cls = self.package.ProjectiveFamily
        original_init = family_cls.__init__
        wrap_rule = functools.partial(self._wrap, RULE)

        @functools.wraps(original_init)
        def init_with_traced_rule(family, universe, kind, rule):
            original_init(family, universe, kind, wrap_rule(rule))

        self._patch(family_cls, "__init__", init_with_traced_rule)

    def uninstall(self):
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    def _patch(self, owner, attr, replacement):
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, replacement)

    def _intern(self, name: str) -> int:
        if name not in self._index:
            self._index[name] = len(self.names)
            self.names.append(name)
        return self._index[name]

    def _wrap(self, name: str, fn):
        code = self._intern(name)
        counters = RESULT_COUNTERS.get(name)
        stack = self._stack
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if self.op_id < 0:
                return fn(*args, **kwargs)
            idx = len(self.name)
            self.name.append(code)
            self.parent.append(stack[-1] if stack else -1)
            self.op.append(self.op_id)
            self.start.append(0.0)
            self.end.append(0.0)
            stack.append(idx)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = clock()
                stack.pop()
                self.start[idx] = t0
                self.end[idx] = t1
            if counters is not None:
                for key, value in counters(result).items():
                    self.add(name, key, value)
            return result

        return traced

    def add(self, name: str, counter: str, value: int):
        key = (name, counter)
        self.counters[key] = self.counters.get(key, 0) + int(value)

    # -- results --------------------------------------------------------

    def arrays(self) -> dict:
        """The spans as numpy arrays, plus each span's self time."""
        parent = np.frombuffer(self.parent, dtype=np.int_)
        start = np.frombuffer(self.start, dtype=float)
        dur = np.frombuffer(self.end, dtype=float) - start
        nested = parent >= 0
        child = np.bincount(parent[nested], weights=dur[nested], minlength=len(dur))
        return {
            "name": np.frombuffer(self.name, dtype=np.intc),
            "parent": parent,
            "op": np.frombuffer(self.op, dtype=np.int_),
            "start": start,
            "end": np.frombuffer(self.end, dtype=float),
            "self": dur - child,
        }

    def layer_stats(self) -> dict:
        """Per traced name: call count, total self time, and the counters."""
        spans = self.arrays()
        k = len(self.names)
        calls = np.bincount(spans["name"], minlength=k)
        self_s = np.bincount(spans["name"], weights=spans["self"], minlength=k)
        stats = {
            name: {"calls": int(calls[i]), "self_s": float(self_s[i])}
            for i, name in enumerate(self.names)
        }
        for (name, counter), value in self.counters.items():
            stats[name][counter] = value
        return stats

    def child_counts(self) -> dict:
        """Number of ``child`` spans directly under ``parent`` spans, by name pair."""
        spans = self.arrays()
        k = len(self.names)
        nested = spans["parent"] >= 0
        pairs = spans["name"][spans["parent"][nested]].astype(np.int_) * k + spans["name"][nested]
        codes, counts = np.unique(pairs, return_counts=True)
        return {
            (self.names[code // k], self.names[code % k]): int(count)
            for code, count in zip(codes.tolist(), counts.tolist())
        }

    def write(self, path):
        spans = self.arrays()
        np.savez_compressed(
            path,
            names=np.array(self.names),
            name=spans["name"],
            parent=spans["parent"],
            op=spans["op"],
            start=spans["start"],
            end=spans["end"],
        )
