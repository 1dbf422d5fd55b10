"""The CLI's JSON writer: ``_dumps(x)`` is ``json.dumps(x, indent=2)``, byte
for byte, on arbitrary JSON values and on real reports."""

import enum
import json
import math
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from infogames import cli
from infogames.cli import _dumps

GAMES_DIR = Path(__file__).resolve().parent.parent / "games"

# Characters that the encoder escapes or that look like JSON structure.
TRICKY = '[]{}",:\\/ \x00\x01\x08\t\n\x1f\x7f\x80\xe9\u2028\ud7ff\ud800\uffff\U0001f600'
texts = st.text(alphabet=st.sampled_from(TRICKY) | st.characters(), max_size=8)
scalars = st.one_of(
    st.none(),
    st.booleans(),
    st.sampled_from([0, 1, -1, 0.0, -0.0, 1.0, math.inf, -math.inf, math.nan]),
    st.integers(),
    st.integers(min_value=2**64, max_value=2**200) | st.integers(max_value=-(2**64), min_value=-(2**200)),
    st.floats(allow_nan=True, allow_infinity=True),
    texts,
)
keys = st.one_of(texts, st.integers(), st.floats(), st.booleans(), st.none())
values = st.recursive(
    scalars,
    lambda inner: st.one_of(
        st.lists(inner, max_size=5),
        st.lists(inner, max_size=5).map(tuple),
        st.dictionaries(keys, inner, max_size=5),
    ),
    max_leaves=40,
)

SHARED = [1, "x"]


class Color(enum.IntEnum):
    RED = 1


class Text(str):
    pass


class Real(float):
    pass


@settings(max_examples=400, deadline=None)
@given(values)
@example(None)
@example([])
@example({})
@example([[], {}, [[]], {"a": {}}, {"b": [[], [{}]]}])
@example((1, (2,), (), [()]))
@example([True, False, 0, 1, {"t": True, "f": False, "0": 0, "1": 1}])
@example([2**64, -(2**64) - 1, 10**40, {"big": 2**100}])
@example([-0.0, math.inf, -math.inf, math.nan, {"n": math.nan, "i": -math.inf}])
@example({1: "int", 2.5: "float", True: "bool", None: "none", math.nan: "nan", -0.0: "zero"})
@example(['[', '{', '"', '\\', '\x00\x1f\n', 'é😀 ', '{"a": [1]}'])
@example({"shared": SHARED, "deeper": [SHARED, {"again": SHARED}], "flat": SHARED})
@example([Color.RED, Text("t"), Real(0.5), {Text("k"): Color.RED, "v": [Real(-0.0)]}])
def test_dumps_matches_json_dumps(value):
    assert _dumps(value) == json.dumps(value, indent=2)


def test_unserializable_values_and_keys_raise_like_json_dumps():
    for bad in ({1, 2}, [1, object()], {"a": {"b": b"x"}}, {(1, 2): 3}, {"a": [1], (1,): 2}):
        with pytest.raises(TypeError) as ours:
            _dumps(bad)
        with pytest.raises(TypeError) as theirs:
            json.dumps(bad, indent=2)
        assert str(ours.value) == str(theirs.value)


CLI_RUNS = [
    ("validate", "tou_pricing.json", None),
    ("strategies", "thai_dr_single.json", None),
    ("playability", "cyclic_three_agents.json", "all"),
    ("normal-form", "prisoners_dilemma.json", None),
    ("nash", "prisoners_dilemma.json", None),
    ("stackelberg", "tou_pricing.json", "theta=0.5"),
    ("nash-stackelberg", "tou_pricing.json", "pessimistic"),
    ("export", "thai_dr_single.json", None),
]


@pytest.mark.parametrize("command,game,mode", CLI_RUNS, ids=[r[0] for r in CLI_RUNS])
def test_cli_reports_are_json_dumps_indent_2(tmp_path, capsys, command, game, mode):
    path = str(GAMES_DIR / game)
    out = tmp_path / "report.json"
    extra = ["--mode", mode] if mode else []
    assert cli.main([command, "--game", path, *extra, "--out", str(out)]) in (0, 2)
    assert capsys.readouterr().out == ""
    text = out.read_text(encoding="utf-8")
    assert text == json.dumps(json.loads(text), indent=2) + "\n"
    # The in-memory report, tuples and shared sub-documents included, encodes
    # the same way.
    options, parsed = {}, None
    if command == "playability":
        options, parsed = {"mode": mode}, cli._parse_playability_mode(mode)
    elif mode:
        parsed = cli._parse_stackelberg_mode(mode)
    report, _ = cli.run(command, path, options, cli.DEFAULT_CAP, parsed)
    assert _dumps(report) == json.dumps(report, indent=2)
