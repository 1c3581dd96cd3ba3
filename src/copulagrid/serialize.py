"""JSON serialization with bit-exact numeric round-trips.

Every number is encoded as a decimal string produced by ``repr``, which
Python guarantees to parse back to the identical float; the infinities are
spelled ``"+inf"`` and ``"-inf"``.  Documents carry a top-level ``kind`` in
``{"marginal", "tensor_measure", "checkerboard_copula", "family_spec"}``.
Decoders read each field through ``_field``, so a string or object where a
list belongs, or a ``from_joint`` joint of another kind, is a parse error;
values are the constructors' to check (``Marginal`` owns the pair rule).

:func:`dumps` writes the bytes of ``json.dumps(doc, indent=2,
sort_keys=True)`` and a newline, but renders strings, integers, lists and
objects itself, escaping strings with the standard library's C escaper,
because with ``indent`` set the standard encoder runs in pure Python.  An
array is encoded in one pass over its flat entries and nested by slicing.
:func:`loads` parses with ``json.loads``; a list of decimal strings is read
with one ``map(float, ...)``, and only a list that this pass cannot take
whole is read entry by entry through :func:`decode_float`, which words the
error at the first bad entry.
"""

from __future__ import annotations

import json
import math
from json.encoder import encode_basestring_ascii as _escape
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


def _encode_nested(arr: np.ndarray):
    """:func:`encode_float` of each entry, nested as ``arr``: in a finite array, its ``repr``.

    The flat array is encoded in one pass, then nested by slicing.
    """
    encode = repr if np.isfinite(arr).all() else encode_float
    out = list(map(encode, arr.ravel().tolist()))
    for size in reversed(arr.shape[1:]):
        out = [out[k : k + size] for k in range(0, len(out), size)]
    return out


def _decode_nested(data):
    """:func:`decode_float` of each string in the nested lists ``data``.

    A list of strings is parsed with one ``map(float, ...)``; only a list
    that holds another value, or a string that fails or reads as NaN or an
    infinity, is read again entry by entry, for :func:`decode_float`'s
    values and its error at the first bad entry.
    """
    if not isinstance(data, list):
        return decode_float(data)
    if set(map(type, data)) <= {str}:
        try:
            values = list(map(float, data))
            if all(map(math.isfinite, values)):
                return values
        except ValueError:
            pass
    return [_decode_nested(item) for item in data]


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
        "grid": [_encode_nested(axis) for axis in t.grid],
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


def _render(value, pad: str) -> str:
    """``json.dumps(value, indent=2, sort_keys=True)``, lines after the first indented by ``pad``.

    Strings, integers, nonempty lists and nonempty objects with string keys
    are rendered here, with the C string escaper; any other value goes to
    ``json.dumps``, whose output holds no raw newline inside a string, so
    indenting its lines is exact.
    """
    kind = type(value)
    if kind is str:
        return _escape(value)
    if kind is int:
        return int.__repr__(value)
    inner = pad + "  "
    if kind is list and value:
        if set(map(type, value)) <= {str}:
            items = map(_escape, value)
        else:
            items = [_render(item, inner) for item in value]
        return f"[\n{inner}" + f",\n{inner}".join(items) + f"\n{pad}]"
    if kind is dict and value and set(map(type, value)) <= {str}:
        items = [f"{_escape(key)}: {_render(value[key], inner)}" for key in sorted(value)]
        return f"{{\n{inner}" + f",\n{inner}".join(items) + f"\n{pad}}}"
    return json.dumps(value, indent=2, sort_keys=True).replace("\n", "\n" + pad)


def dumps(doc: dict) -> str:
    """Canonical rendering: sorted keys, two-space indent, trailing newline.

    The bytes of ``json.dumps(doc, indent=2, sort_keys=True) + "\\n"``,
    rendered without the standard library's pure-Python indenting encoder.
    """
    return _render(doc, "") + "\n"
