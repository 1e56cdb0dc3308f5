"""Config schema: strict parsing, located errors, canonical round-trips."""

import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from modchar.characters import character_from_label
from modchar.config import (MAX_X, RunConfig, _locate, parse_config,
                            parse_config_text)
from modchar.errors import ConfigError, DomainError
from modchar.modified import build_modified
from modchar.presets import (EXPECTED_N, NOTES, PRESET_NAMES, preset_config,
                             run_preset)
from modchar.roots import UnitValue
from modchar.sieve import (checkpoints_from_rule, parse_checkpoint_rule,
                           partial_sums, riesz_means)

FULL_DOC = {
    "character": {"label": "5.2"},
    "modifications": [{"p": 2, "angle": [1, 2]},
                      {"p": 7, "angle": [1, 3]}],
    "x_max": 50000,
    "checkpoints": "geometric:1.5",
    "orders": [0, 2, 7],
    "gamma": 0.5,
    "normalized": True,
    "allow_imprimitive": False,
    "out": "run.csv",
}


def parse(doc) -> RunConfig:
    return parse_config_text(json.dumps(doc, indent=1))


def test_round_trip_is_lossless():
    cfg = parse(FULL_DOC)
    again = parse_config_text(cfg.to_json())
    assert again == cfg
    assert again.to_json() == cfg.to_json()
    assert cfg.character.label == "5.2"
    assert cfg.x_max == 50000
    assert cfg.checkpoints == "geometric:1.5"
    assert cfg.orders == (0, 2, 7)
    assert cfg.out == "run.csv"


def test_defaults():
    cfg = parse({"character": {"label": "3.2"}})
    assert cfg.modifications == ()
    assert cfg.x_max == 10**6
    assert cfg.checkpoints == "dyadic"
    assert cfg.orders == "auto"
    assert cfg.gamma == 1.0
    assert cfg.normalized is False and cfg.allow_imprimitive is False
    assert cfg.out is None


def test_angles_parse_exactly():
    cfg = parse({"character": {"label": "3.2"},
                 "modifications": [{"p": 7, "angle": [1, 2]},
                                   {"p": 5, "angle": [2, 4]},
                                   {"p": 2, "angle": [-1, 3]}]})
    by_p = dict(cfg.modifications)
    assert by_p[7] == UnitValue.minus_one()
    assert by_p[5] == UnitValue.minus_one()        # 2/4 reduces to 1/2
    assert (by_p[2].numerator, by_p[2].denominator) == (2, 3)


def test_character_spec_forms():
    by_label = parse({"character": {"label": "5.2"}}).character
    by_parts = parse({"character": {"modulus": 5,
                                    "exponents": [1]}}).character
    assert by_label == by_parts
    both = parse({"character": {"label": "5.2", "modulus": 5,
                                "exponents": [1]}}).character
    assert both == by_label
    with pytest.raises(ConfigError, match="disagrees with label"):
        parse({"character": {"label": "5.2", "modulus": 7}})
    with pytest.raises(ConfigError, match="exponents name"):
        parse({"character": {"label": "5.2", "modulus": 5,
                             "exponents": [2]}})
    with pytest.raises(ConfigError, match="label or modulus plus exponents"):
        parse({"character": {"modulus": 5}})
    with pytest.raises(ConfigError, match="needs 2 exponents"):
        parse({"character": {"modulus": 8, "exponents": [1]}})
    with pytest.raises(ConfigError, match="must be <= 3"):
        parse({"character": {"modulus": 5, "exponents": [4]}})
    with pytest.raises(ConfigError):
        parse({"character": {"label": "6.2"}})     # no unit labeled 2 mod 6


def test_nonprime_key_is_located():
    text = ('{\n'
            ' "character": {"label": "3.2"},\n'
            ' "modifications": [{"p": 10, "angle": [1, 2]}]\n'
            '}\n')
    with pytest.raises(ConfigError, match=r"p = 10 is not prime") as ei:
        parse_config_text(text)
    line3 = text.splitlines()[2]
    assert ei.value.line == 3
    assert ei.value.column == line3.index("10") + 1


def test_unknown_fields_are_located():
    text = ('{\n'
            ' "character": {"label": "3.2"},\n'
            ' "colour": "blue"\n'
            '}\n')
    with pytest.raises(ConfigError, match="unknown field 'colour'") as ei:
        parse_config_text(text)
    assert ei.value.line == 3
    assert ei.value.column == text.splitlines()[2].index('"blue"') + 1
    with pytest.raises(ConfigError, match=r"character.conductor: unknown"):
        parse({"character": {"label": "3.2", "conductor": 3}})
    with pytest.raises(ConfigError, match=r"modifications.0.sign: unknown"):
        parse({"character": {"label": "3.2"},
               "modifications": [{"p": 3, "angle": [0, 1], "sign": 1}]})


def test_malformed_json_is_located():
    text = '{"character": {label: "3.2"}}'
    with pytest.raises(ConfigError, match="invalid JSON") as ei:
        parse_config_text(text)
    assert ei.value.line == 1
    assert ei.value.column == text.index("label") + 1


_WS = st.text(" \t\n\r", max_size=2)
# keys and strings that need escapes or hold the characters a tokenizer
# stops at
_KEYS = st.text(["k", " ", '"', "\\", ",", "}", "é"], max_size=3)
_JSON = st.recursive(
    st.none() | st.booleans() | st.integers()
    | st.floats(allow_nan=False, allow_infinity=False)
    | st.text(["a", "\\", '"', ",", "]", "}", ":", "\n", "\x00", "é", "😀"],
              max_size=4),
    lambda kids: (st.lists(kids, max_size=4)
                  | st.dictionaries(_KEYS, kids, max_size=4)),
    max_leaves=12)


def _paths(v, path=()):
    """(path, value) for every value in v, outermost first."""
    yield path, v
    items = v.items() if isinstance(v, dict) else (
        enumerate(v) if isinstance(v, list) else ())
    for k, x in items:
        yield from _paths(x, path + (k,))


@settings(max_examples=300, deadline=None, derandomize=True)
@given(doc=_JSON, indent=st.sampled_from([None, 0, 2, "\t", " \r"]),
       ws=st.lists(_WS, min_size=6, max_size=6), ensure_ascii=st.booleans())
def test_locate_points_at_every_value(doc, indent, ws, ensure_ascii):
    text = ws[0] + json.dumps(
        doc, indent=indent, ensure_ascii=ensure_ascii,
        separators=(ws[1] + "," + ws[2], ws[3] + ":" + ws[4])) + ws[5]
    starts = np.cumsum([0] + [len(ln) + 1 for ln in text.split("\n")])
    decode = json.JSONDecoder().raw_decode
    for path, value in _paths(doc):
        line, col = _locate(text, path)
        assert decode(text, starts[line - 1] + col - 1)[0] == value, path
        if isinstance(value, dict):           # a missing key, a list step
            assert _locate(text, path + ("k" * 4,)) == (None, None)
            assert _locate(text, path + (0,)) == (None, None)
        elif isinstance(value, list):         # a missing index, a key step
            if value:                         # [] at 0 points at its "]"
                assert _locate(text, path + (len(value),)) == (None, None)
            assert _locate(text, path + ("0",)) == (None, None)
        else:                                 # no container at all
            assert _locate(text, path + (0,)) == (None, None)


def test_top_level_shape():
    with pytest.raises(ConfigError, match="top level must be"):
        parse_config_text("[1, 2]")
    with pytest.raises(ConfigError, match="missing required field"):
        parse({"x_max": 100})


def test_checkpoint_rules():
    ok = {"character": {"label": "3.2"}}
    assert parse({**ok, "checkpoints": "every:100"}).checkpoints == "every:100"
    assert parse({**ok, "checkpoints": "geometric:1.01"}
                 ).checkpoints == "geometric:1.01"
    assert parse({**ok, "checkpoints": [1, 10, 100]}
                 ).checkpoints == (1, 10, 100)
    for bad, pat in [("dyadic:2", "takes no argument"),
                     ("every:0", "must be >= 1"),
                     ("every:x", "not a number"),
                     ("geometric:1.0", "must exceed 1"),
                     ("geometric:abc", "not a number"),
                     ("fibonacci", "unknown checkpoint rule"),
                     (42, "rule string or a list"),
                     ([], "must not be empty"),
                     ([10, 5], "strictly increasing"),
                     ([5, 5], "strictly increasing"),
                     ([0, 10], "must be >= 1")]:
        with pytest.raises(ConfigError, match=pat):
            parse({**ok, "checkpoints": bad})
    with pytest.raises(ConfigError, match="exceeds x_max"):
        parse({**ok, "x_max": 100, "checkpoints": [10, 200]})


# rules one grammar rejects, through the library and the config alike
BAD_RULES = ("every:", "geometric:", "dyadic:7", "every:x", "every:2.5",
             "every:true", "geometric:nan", "geometric:inf", "geometric:1",
             "geometric:" + "9" * 400, "every", "fibonacci")


def test_one_rule_grammar_for_library_and_config():
    ok = {"character": {"label": "3.2"}}
    bcc = build_modified(character_from_label("3.2"), {3: UnitValue.one()})
    for bad in BAD_RULES:
        with pytest.raises(DomainError):
            checkpoints_from_rule(bad, 1000)
        with pytest.raises(DomainError):
            riesz_means(bcc, [1], 1000, bad)
        with pytest.raises(ConfigError, match="checkpoints"):
            parse({**ok, "checkpoints": bad})
    # JSON numbers: the config keeps the normal form, the library reads
    # the same points off the raw rule
    for rule, normal in (("every:1e3", "every:1000"), ("every:2.0", "every:2"),
                         ("every: 7", "every:7"), ("dyadic:", "dyadic"),
                         ("geometric:2", "geometric:2")):
        assert parse({**ok, "checkpoints": rule}).checkpoints == normal
        assert parse_checkpoint_rule(rule)[0] == normal
        got = partial_sums(bcc, 5000, rule)
        want = partial_sums(bcc, 5000, normal)
        assert got.checkpoints.tolist() == want.checkpoints.tolist()
        assert got.sums.tobytes() == want.sums.tobytes()


def test_one_integer_rule_for_library_and_config_lists():
    # an explicit list is judged entry by entry as a config file's list is:
    # whole numbers pass (1e2 is 100), anything else is a DomainError, never
    # truncated through int()
    ok = {"character": {"label": "3.2"}}
    bcc = build_modified(character_from_label("3.2"), {3: UnitValue.one()})
    for bad in ([2.5, 10.9], [10, 2.0**53], [True, 10], ["10"], [None],
                [float("nan")]):
        with pytest.raises(DomainError, match="whole numbers"):
            partial_sums(bcc, 100, bad)
        with pytest.raises(DomainError, match="whole numbers"):
            riesz_means(bcc, [0, 1], 100, bad)
        with pytest.raises(ConfigError, match="expected an integer"):
            parse({**ok, "x_max": 100, "checkpoints": bad})
    for good in ([1e1, 100.0], [np.int64(10), 100], (10, 100), range(10, 11)):
        assert partial_sums(bcc, 100, good).checkpoints.tolist() == [10, 100]
    assert parse({**ok, "x_max": 100,
                  "checkpoints": [1e1, 100.0]}).checkpoints == (10, 100)


def test_order_forms():
    ok = {"character": {"label": "3.2"}}
    assert parse({**ok, "orders": "auto"}).orders == "auto"
    assert parse({**ok, "orders": 5}).orders == (5,)
    assert parse({**ok, "orders": [3, 1, 3]}).orders == (1, 3)
    for bad in ([], [-1], "all", True):
        with pytest.raises(ConfigError):
            parse({**ok, "orders": bad})


def test_scalar_validation():
    ok = {"character": {"label": "3.2"}}
    assert parse({**ok, "x_max": 1000000.0}).x_max == 10**6
    for field, bad, pat in [
            ("gamma", 0, "must be positive"),
            ("gamma", "big", "expected a number"),
            ("x_max", 0, "must be >= 1"),
            ("x_max", 2 * MAX_X, f"must be <= {MAX_X}"),
            ("x_max", 3.5, "expected an integer"),
            ("normalized", "yes", "expected true or false"),
            ("out", 42, "must be a path string"),
            ("eps", 1e-12, "unknown field 'eps'"),
            ("format", "csv", "unknown field 'format'")]:
        with pytest.raises(ConfigError, match=pat):
            parse({**ok, field: bad})


def test_resolved_orders():
    explicit = parse({"character": {"label": "3.2"}, "orders": [2, 7]})
    assert explicit.resolved_orders() == (2, 7)
    auto = preset_config("bcc").resolved_orders()
    assert auto == (13,)
    assert preset_config("fig1").resolved_orders() == (39,)


def test_with_overrides():
    cfg = parse({"character": {"label": "3.2"}})
    assert cfg.with_overrides(x_max=None) is cfg
    bumped = cfg.with_overrides(x_max=500, gamma=0.5)
    assert bumped.x_max == 500 and bumped.gamma == 0.5
    assert cfg.x_max == 10**6                     # original untouched


def test_parse_config_file(tmp_path):
    path = tmp_path / "run.json"
    path.write_text(json.dumps(FULL_DOC), encoding="utf-8")
    assert parse_config(str(path)) == parse(FULL_DOC)
    with pytest.raises(ConfigError, match="cannot read"):
        parse_config(str(tmp_path / "absent.json"))


def test_presets_resolve_to_expected_pole_orders():
    for name in PRESET_NAMES:
        cfg = preset_config(name, x_max=1000)
        mc = cfg.modified()
        assert mc.pole_order == EXPECTED_N[name]
        assert NOTES[name]
    assert preset_config("fig2", x_max=1000).modifications[3][1] \
        == UnitValue.minus_one()
    with pytest.raises(DomainError, match="unknown preset"):
        preset_config("fig9")


def test_run_preset_small():
    bundle = run_preset("bcc", x_max=5000)
    assert bundle.n == 1 and bundle.n_expected == 1
    assert bundle.ratio_exponent == 1
    assert bundle.ratio_sup > 0
    rep = bundle.report()
    assert rep["S"] == [3] and rep["T"] == 1
    assert rep["exact_accumulator"] is True
    json.dumps(rep)                               # report is serializable
    fig3 = run_preset("fig3", x_max=5000)
    assert fig3.n == 0
    assert fig3.ratio_exponent == 4               # falls back to |S|
