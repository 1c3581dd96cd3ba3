"""JSON serialization with bit-exact numeric round-trips.

Every number is encoded as a decimal string produced by ``repr``, which
Python guarantees to parse back to the identical float; the infinities are
spelled ``"+inf"`` and ``"-inf"``.  Documents carry a top-level ``kind`` in
``{"marginal", "tensor_measure", "checkerboard_copula", "family_spec"}``.
"""

from __future__ import annotations

import json
import math
from typing import Mapping

import numpy as np

from .copulas import CheckerboardCopula, _checked_order
from .errors import ParseError
from .measures import ATOMIC, CONTINUOUS, Marginal, TensorMeasure
from .projective import (
    IndexUniverse,
    ProjectiveFamily,
    comonotone_family,
    family_from_joint,
    independence_family,
)

KINDS = ("marginal", "tensor_measure", "checkerboard_copula", "family_spec")


def encode_float(x: float) -> str:
    x = float(x)
    if x == math.inf:
        return "+inf"
    if x == -math.inf:
        return "-inf"
    if math.isnan(x):
        raise ParseError("NaN is not serializable")
    return repr(x)


def decode_float(s) -> float:
    if not isinstance(s, str):
        raise ParseError(f"expected a decimal string, got {s!r}")
    if s == "+inf":
        return math.inf
    if s == "-inf":
        return -math.inf
    try:
        value = float(s)
    except ValueError:
        raise ParseError(f"not a decimal number: {s!r}") from None
    if not math.isfinite(value):
        raise ParseError(f"infinities must be spelled '+inf'/'-inf', got {s!r}")
    return value


def _encode_nested(arr: np.ndarray):
    if arr.ndim == 1:
        return [encode_float(x) for x in arr]
    return [_encode_nested(sub) for sub in arr]


def _decode_nested(data):
    if isinstance(data, list):
        return [_decode_nested(item) for item in data]
    return decode_float(data)


def _decode_label(raw):
    if isinstance(raw, bool) or not isinstance(raw, (int, str)):
        raise ParseError(f"labels must be integers or strings, got {raw!r}")
    return raw


def _lookup(table: dict, key, what: str):
    """``table[key]`` for a string ``key``; JSON lists and objects are unhashable."""
    if isinstance(key, str) and key in table:
        return table[key]
    raise ParseError(f"unknown {what} {key!r}; expected one of {tuple(table)}")


#: marginal type -> (document key, the array paired with ``xs``, constructor)
_MARGINAL_TYPES = {
    ATOMIC: ("atoms", "ws", Marginal.atomic),
    CONTINUOUS: ("knots", "fs", Marginal.continuous),
}


def encode_marginals(marginals: Mapping) -> dict:
    entries = []
    for label in sorted(marginals, key=lambda lab: (str(type(lab)), lab)):
        m = marginals[label]
        key, paired, _ = _MARGINAL_TYPES[m.kind]
        pairs = [[encode_float(x), encode_float(y)] for x, y in zip(m.xs, getattr(m, paired))]
        entries.append({"label": label, "type": m.kind, key: pairs})
    return {"kind": "marginal", "marginals": entries}


def decode_marginals(doc: dict) -> dict:
    entries = doc.get("marginals")
    if not isinstance(entries, list) or not entries:
        raise ParseError("marginal document needs a nonempty 'marginals' list")
    out = {}
    for entry in entries:
        if not isinstance(entry, dict) or "label" not in entry:
            raise ParseError("each marginal entry needs a 'label'")
        label = _decode_label(entry["label"])
        if label in out:
            raise ParseError(f"duplicate marginal label {label!r}")
        mtype = entry.get("type")
        key, _, build = _lookup(_MARGINAL_TYPES, mtype, "marginal type")
        pairs = entry.get(key)
        if not isinstance(pairs, list):
            raise ParseError(f"{mtype} marginal needs a list of {key!r}")
        if not all(isinstance(pair, list) and len(pair) == 2 for pair in pairs):
            raise ParseError(f"every entry of {key!r} must be an [x, y] pair")
        out[label] = build([(decode_float(x), decode_float(y)) for x, y in pairs])
    return out


def encode_tensor(t: TensorMeasure) -> dict:
    return {
        "kind": "tensor_measure",
        "labels": list(t.labels),
        "grid": [[encode_float(x) for x in axis] for axis in t.grid],
        "mass": _encode_nested(t.mass),
    }


def decode_tensor(doc: dict) -> TensorMeasure:
    try:
        labels = [_decode_label(lab) for lab in doc["labels"]]
        grid = [[decode_float(x) for x in axis] for axis in doc["grid"]]
        mass = _decode_nested(doc["mass"])
    except (KeyError, TypeError) as exc:
        raise ParseError(f"malformed tensor_measure document: {exc}") from None
    return TensorMeasure(labels, grid, mass)


def encode_copula(c: CheckerboardCopula) -> dict:
    return {
        "kind": "checkerboard_copula",
        "labels": list(c.labels),
        "order": c.order,
        "mass": _encode_nested(c.mass),
    }


def decode_copula(doc: dict) -> CheckerboardCopula:
    try:
        labels = [_decode_label(lab) for lab in doc["labels"]]
        order = doc["order"]
        mass = _decode_nested(doc["mass"])
    except (KeyError, TypeError) as exc:
        raise ParseError(f"malformed checkerboard_copula document: {exc}") from None
    return CheckerboardCopula(labels, order, mass)


def decode_universe(doc) -> IndexUniverse:
    if not isinstance(doc, dict) or "type" not in doc:
        raise ParseError("family universe needs a 'type'")
    if doc["type"] == "countable":
        return IndexUniverse.countable()
    if doc["type"] == "finite":
        labels = doc.get("labels")
        if not isinstance(labels, list) or not labels:
            raise ParseError("finite universe needs a nonempty 'labels' list")
        return IndexUniverse.finite([_decode_label(lab) for lab in labels])
    raise ParseError(f"unknown universe type {doc['type']!r}")


_FAMILY_RULES = {"independence": independence_family, "comonotone": comonotone_family}


def decode_family(doc: dict) -> ProjectiveFamily:
    rule = doc.get("rule")
    if rule == "from_joint":
        joint = doc.get("joint")
        if not isinstance(joint, dict):
            raise ParseError("from_joint family needs a 'joint' tensor document")
        return family_from_joint(decode_tensor(joint))
    universe = decode_universe(doc.get("universe"))
    if "order" not in doc:
        raise ParseError("rule-based family needs an 'order'")
    return _lookup(_FAMILY_RULES, rule, "family rule")(universe, _checked_order(doc["order"]))


_DECODERS = dict(zip(KINDS, (decode_marginals, decode_tensor, decode_copula, decode_family)))


def loads(text: str):
    """Parse a document of any supported kind."""
    try:
        doc = json.loads(text)
        if not isinstance(doc, dict):
            raise ParseError("top-level JSON value must be an object")
        return _lookup(_DECODERS, doc.get("kind"), "document kind")(doc)
    except json.JSONDecodeError as exc:
        raise ParseError(f"line {exc.lineno}, column {exc.colno}: {exc.msg}") from None
    except RecursionError:
        raise ParseError("document is nested too deeply") from None


def dumps(doc: dict) -> str:
    """Canonical rendering: sorted keys, two-space indent, trailing newline."""
    return json.dumps(doc, indent=2, sort_keys=True) + "\n"
