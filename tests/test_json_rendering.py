"""``serialize``'s renderer and nested reader against the standard library, bit for bit.

``dumps`` renders documents without the standard library's pure-Python
indenting encoder; its bytes must be those of ``json.dumps(doc, indent=2,
sort_keys=True)`` plus a newline, on every encoder's documents and on any
JSON value.  ``_decode_nested`` parses a list of decimal strings with one
``map(float, ...)``; it must give the floats of ``decode_float`` entry by
entry, and raise its ``ParseError`` message on the first bad entry.
"""

import json
import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from copulagrid import Marginal, ParseError, TensorMeasure, random_copula, serialize
from copulagrid.serialize import _decode_nested, decode_float

SETTINGS = settings(max_examples=200, deadline=None, derandomize=True, database=None)

LABELS = st.one_of(st.integers(-5, 50), st.text(max_size=4))
FLOATS = st.floats(allow_nan=False)
JSON = st.recursive(
    st.none() | st.booleans() | st.integers() | st.text(),
    lambda inner: st.lists(inner, max_size=4) | st.dictionaries(st.text(max_size=4), inner, max_size=4),
    max_leaves=20,
)


def standard(doc) -> str:
    return json.dumps(doc, indent=2, sort_keys=True) + "\n"


def per_entry(data):
    """The nested reader, one ``decode_float`` per entry."""
    if isinstance(data, list):
        return [per_entry(item) for item in data]
    return decode_float(data)


def bits(data):
    return [bits(item) for item in data] if isinstance(data, list) else data.hex()


def outcome(read, data):
    """The bits of every float ``read(data)`` gives, or its refusal's message."""
    try:
        return bits(read(data))
    except ParseError as exc:
        return str(exc)


@st.composite
def marginal_documents(draw):
    labels = draw(st.lists(LABELS, min_size=1, max_size=3, unique_by=repr))
    marginals = {}
    for lab in labels:
        xs = sorted(set(draw(st.lists(FLOATS, min_size=2, max_size=5))))
        if draw(st.booleans()) and len(xs) >= 2 and math.isfinite(xs[-1] - xs[0]):
            fs = [k / (len(xs) - 1) for k in range(len(xs))]
            marginals[lab] = Marginal.continuous(list(zip(xs, fs)))
        else:
            marginals[lab] = Marginal.atomic([(x, 1.0 / len(xs)) for x in xs])
    return serialize.encode_marginals(marginals)


@st.composite
def grid_documents(draw):
    d = draw(st.integers(1, 3))
    seed = draw(st.integers(0, 2**32 - 1))
    rng = np.random.default_rng(seed)
    labels = sorted(draw(st.lists(st.text(max_size=3), min_size=d, max_size=d, unique=True)))
    if draw(st.booleans()):
        return serialize.encode_copula(random_copula(labels, draw(st.integers(1, 4)), rng))
    grid = [sorted(set(draw(st.lists(FLOATS, min_size=1, max_size=4)))) for _ in labels]
    mass = rng.dirichlet(np.ones(int(np.prod([len(axis) for axis in grid]))))
    zero = rng.random(mass.size) < 0.2
    zero[0] = False
    mass[zero] = -0.0
    mass /= mass.sum()
    return serialize.encode_tensor(TensorMeasure(labels, grid, mass.reshape([len(a) for a in grid])))


FAMILY_SPECS = [
    {"kind": "family_spec", "rule": "independence", "order": 3, "universe": {"type": "countable"}},
    {
        "kind": "family_spec",
        "rule": "comonotone",
        "order": 2,
        "universe": {"type": "finite", "labels": ["α", "β"]},
    },
]


@SETTINGS
@given(st.one_of(marginal_documents(), grid_documents(), st.sampled_from(FAMILY_SPECS)))
@example({"kind": "marginal", "marginals": [{"label": "é\n", "type": "atomic", "atoms": [["-inf", "-0.0"]]}]})
def test_documents_render_as_the_standard_encoder_renders_them(doc):
    assert serialize.dumps(doc) == standard(doc)


@SETTINGS
@given(JSON)
@example({"b": [], "a": {}, "c": [[], {}, [None, True, False, 0, -1, " ", "\x7f"]]})
def test_json_values_render_as_the_standard_encoder_renders_them(value):
    assert serialize.dumps(value) == standard(value)


@pytest.mark.parametrize(
    "value", [1.5, [0.25, {"x": math.inf}], {2: "int key"}, (1, [2, (3,)]), {"k": (1.0,)}]
)
def test_values_the_renderer_hands_to_the_standard_encoder_keep_its_bytes(value):
    assert serialize.dumps(value) == standard(value)


BAD = ["nan", "inf", "Infinity", "1e999", "x", 3, 2.5, True, None]


@SETTINGS
@given(
    st.lists(FLOATS, max_size=6),
    st.lists(st.tuples(st.integers(0, 6), st.sampled_from(BAD + ["+inf", "-inf"])), max_size=2),
    st.integers(0, 2),
)
@example([0.5, -0.0], [(1, "nan"), (0, 3)], 0)
@example([1.0], [(0, "+inf"), (1, "-inf")], 1)
def test_the_decoder_reads_what_decode_float_reads_entry_by_entry(floats, inserts, depth):
    data = [serialize.encode_float(x) for x in floats]
    for at, entry in inserts:
        data.insert(min(at, len(data)), entry)
    for _ in range(depth):
        data = [data, list(data)]
    assert outcome(_decode_nested, data) == outcome(per_entry, data)


@pytest.mark.parametrize("tail", [[], ["nan"]])
@pytest.mark.parametrize("bad", BAD)
def test_a_bad_entry_is_refused_with_the_per_entry_message(bad, tail):
    data = ["0.5", bad, *tail]
    with pytest.raises(ParseError) as got:
        _decode_nested(data)
    with pytest.raises(ParseError) as want:
        decode_float(bad)
    assert str(got.value) == str(want.value)
