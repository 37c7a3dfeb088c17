"""canonical_json renders indent-2 JSON itself; json.dumps is its oracle."""

import json
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from quantcat import INF
from quantcat.descriptors import canonical_json

GOLDEN = Path(__file__).resolve().parent / "golden"


def oracle(obj):
    return json.dumps(obj, indent=2, ensure_ascii=True, default=str) + "\n"


TRICKY_STRINGS = ['"', "\\", '\\"', "\x00", "\x1f\x7f", "\n\t\r\b\f", "é", " ",
                  "日本", "😀", "\ud800", "", " "]

strings = st.text() | st.sampled_from(TRICKY_STRINGS)
ints = st.integers() | st.sampled_from([2 ** 64, -(2 ** 70), 10 ** 40, -1, 0])
floats = st.floats() | st.sampled_from([-0.0, 0.0, float("nan"), float("inf"),
                                        float("-inf"), 1e300, 5e-324, 0.1])
# values json cannot encode itself, which go through default=str
others = (st.fractions() | st.just(INF)
          | st.frozensets(st.integers(0, 3) | st.sampled_from(["a", "b"]), max_size=3))
leaves = strings | ints | floats | st.booleans() | st.none() | others
keys = strings | ints | floats | st.booleans() | st.none()
documents = st.recursive(
    leaves,
    lambda inner: (st.lists(inner, max_size=4)
                   | st.lists(inner, max_size=4).map(tuple)
                   | st.dictionaries(keys, inner, max_size=4)),
    max_leaves=30,
)


@settings(max_examples=300, derandomize=True, deadline=None)
@given(documents)
def test_rendering_matches_json_dumps(obj):
    assert canonical_json(obj) == oracle(obj)


@pytest.mark.parametrize("obj", [
    [], {}, (), [[]], {"a": {}}, [{}, [], ()], {"": ""},
    {1: "a", True: "b", None: "c", 2.5: "d", -0.0: "e", float("nan"): "f"},
    [True, False, None, 0, -0.0, float("inf")],
    {"q": Fraction(1, 3), "inf": INF, "s": frozenset({"x"})},
])
def test_rendering_matches_json_dumps_on_edge_cases(obj):
    assert canonical_json(obj) == oracle(obj)


def test_keys_that_json_rejects_are_rejected():
    for key in [(1, 2), Fraction(1, 2), frozenset()]:
        with pytest.raises(TypeError):
            oracle({key: 0})
        with pytest.raises(TypeError):
            canonical_json({key: 0})


@pytest.mark.parametrize("path", sorted(GOLDEN.glob("*.json")), ids=lambda p: p.name)
def test_golden_reports_render_back_to_their_bytes(path):
    text = path.read_text()
    assert canonical_json(json.loads(text)) == text
