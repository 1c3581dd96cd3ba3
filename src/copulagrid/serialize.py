"""JSON serialization with bit-exact numeric round-trips.

Every number is encoded as a decimal string produced by ``repr``, which
Python guarantees to parse back to the identical float; the infinities are
spelled ``"+inf"`` and ``"-inf"``.  Documents carry a top-level ``kind`` in
``{"marginal", "tensor_measure", "checkerboard_copula", "family_spec"}``.
Decoders read each field through ``_field``, so a string or object where a
list belongs, or a ``from_joint`` joint of another kind, is a parse error;
values are the constructors' to check (``Marginal`` owns the pair rule).
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
    if s in ("+inf", "-inf"):
        return float(s)
    try:
        value = float(s)
    except ValueError:
        raise ParseError(f"not a decimal number: {s!r}") from None
    if math.isnan(value):
        raise ParseError(f"NaN is not a valid number, got {s!r}")
    if math.isinf(value):
        raise ParseError(f"infinities must be spelled '+inf'/'-inf', got {s!r}")
    return value


def _encode_nested(arr: np.ndarray, encode=None):
    """:func:`encode_float` of each entry, nested as ``arr``: in a finite array, its ``repr``."""
    if encode is None:
        encode = repr if np.isfinite(arr).all() else encode_float
    if arr.ndim == 1:
        return list(map(encode, arr.tolist()))
    return [_encode_nested(sub, encode) for sub in arr]


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


def _field(doc, key: str, kind=object):
    """``doc[key]``, refused unless ``doc`` is a JSON object holding a ``kind`` there."""
    if isinstance(doc, dict) and key in doc and isinstance(doc[key], kind):
        return doc[key]
    raise ParseError(f"expected an object with {key!r} of type {kind.__name__}")


def _labels(doc) -> list:
    return [_decode_label(lab) for lab in _field(doc, "labels", list)]


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
    entries = _field(doc, "marginals", list)
    if not entries:
        raise ParseError("marginal document needs a nonempty 'marginals' list")
    out = {}
    for entry in entries:
        label = _decode_label(_field(entry, "label"))
        if label in out:
            raise ParseError(f"duplicate marginal label {label!r}")
        key, _, build = _lookup(_MARGINAL_TYPES, entry.get("type"), "marginal type")
        out[label] = build(_decode_nested(_field(entry, key, list)))
    return out


def encode_tensor(t: TensorMeasure) -> dict:
    return {
        "kind": "tensor_measure",
        "labels": list(t.labels),
        "grid": [[encode_float(x) for x in axis.tolist()] for axis in t.grid],
        "mass": _encode_nested(t.mass),
    }


def decode_tensor(doc: dict) -> TensorMeasure:
    return TensorMeasure(
        _labels(doc),
        [_decode_nested(axis) for axis in _field(doc, "grid", list)],
        _decode_nested(_field(doc, "mass")),
    )


def encode_copula(c: CheckerboardCopula) -> dict:
    return {
        "kind": "checkerboard_copula",
        "labels": list(c.labels),
        "order": c.order,
        "mass": _encode_nested(c.mass),
    }


def decode_copula(doc: dict) -> CheckerboardCopula:
    labels, order = _labels(doc), _field(doc, "order")
    return CheckerboardCopula(labels, order, _decode_nested(_field(doc, "mass")))


def _finite_universe(doc) -> IndexUniverse:
    labels = _labels(doc)
    if not labels:
        raise ParseError("finite universe needs a nonempty 'labels' list")
    return IndexUniverse.finite(labels)


_UNIVERSES = {"countable": lambda doc: IndexUniverse.countable(), "finite": _finite_universe}


def decode_universe(doc) -> IndexUniverse:
    return _lookup(_UNIVERSES, _field(doc, "type"), "universe type")(doc)


_FAMILY_RULES = {"independence": independence_family, "comonotone": comonotone_family}
_JOINTS = {"tensor_measure": decode_tensor}


def decode_family(doc: dict) -> ProjectiveFamily:
    rule = doc.get("rule")
    if rule == "from_joint":
        joint = _field(doc, "joint", dict)
        return family_from_joint(_lookup(_JOINTS, _field(joint, "kind"), "joint kind")(joint))
    build = _lookup(_FAMILY_RULES, rule, "family rule")
    return build(decode_universe(_field(doc, "universe")), _checked_order(_field(doc, "order")))


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
