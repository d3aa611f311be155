"""Report serialization: the exact() walk and the raw bytes of each rendering."""

import json
from enum import IntEnum
from fractions import Fraction

import pytest

from scrollgeom.binary_curves import GonalityWitness
from scrollgeom.cli import main
from scrollgeom.fields import QQ, FpElement, PrimeField
from scrollgeom.forms import BinaryForm
from scrollgeom.reports import (build_report, csv_projection, exact, render_json,
                                render_report, render_text)
from scrollgeom.scroll_curves import DimensionReport
from scrollgeom.scrolls import EMPTY

F101 = PrimeField(101)


def _oracle(value) -> str:
    return json.dumps(value, indent=2) + "\n"


# ------------------------------------------------------------- exact()


@pytest.mark.parametrize(
    "value",
    [1.5, [1, 2.0], {"a": {"b": (3, -0.0)}}, ({"rows": [{"x": float("nan")}]},)],
)
def test_exact_rejects_a_float_anywhere(value):
    with pytest.raises(TypeError):
        exact(value)


def test_exact_keeps_bools_and_lists_tuples():
    out = exact({"flags": (True, False), "nested": ((1, 2), [3, (4,)])})
    assert out == {"flags": [True, False], "nested": [[1, 2], [3, [4]]]}
    assert [type(v) for v in out["flags"]] == [bool, bool]
    assert type(out["nested"]) is list and type(out["nested"][0]) is list
    assert type(out["nested"][1][1]) is list


def test_exact_stringifies_keys_and_empty():
    out = exact({1: EMPTY, (1, 2): [EMPTY], None: False, "k": "v"})
    assert out == {"1": "EMPTY", "(1, 2)": ["EMPTY"], "None": False, "k": "v"}
    assert all(type(k) is str for k in out)


class _Tag(IntEnum):
    SEVEN = 7


class _Big(int):
    pass


def test_exact_scalars_serialize_as_before():
    value = {
        "tag": _Tag.SEVEN,
        "big": _Big(-(2**70)),
        "q": Fraction(-3, 4),
        "whole": Fraction(6, 3),
        "fp": FpElement(-1, 101),
        "form_q": BinaryForm(2, (1, Fraction(1, 2), -3), QQ),
        "form_fp": BinaryForm(1, (5, -1), F101),
    }
    out = exact(value)
    assert out == {
        "tag": 7,
        "big": -(2**70),
        "q": "-3/4",
        "whole": "2",
        "fp": "100",
        "form_q": {"degree": 2, "coeffs": ["1", "1/2", "-3"]},
        "form_fp": {"degree": 1, "coeffs": ["5", "100"]},
    }
    # int subclasses pass through unchanged and render as json renders them
    assert out["tag"] is _Tag.SEVEN and type(out["big"]) is _Big
    report = build_report("x", {}, value)
    assert render_json(report) == _oracle(report)


_RECORDS = [
    GonalityWitness(BinaryForm(1, (1, 0), QQ), BinaryForm(1, (0, 1), QQ), 2),
    DimensionReport("scrolls", {"n": 4}, 3, [3], {}, 0, "q", [0]),
]


@pytest.mark.parametrize("record", _RECORDS, ids=lambda r: type(r).__name__)
def test_build_report_rejects_a_result_record(record):
    # a namedtuple record is a tuple, but it must not render as a JSON list
    with pytest.raises(TypeError, match=type(record).__name__):
        build_report("x", {}, record)
    with pytest.raises(TypeError, match=type(record).__name__):
        build_report("x", {}, {"record": record})


# ------------------------------------------------------------- render_json


@pytest.mark.parametrize(
    "value",
    [1.5, (1, 2), {1: "a"}, {"a": Fraction(1, 2)}, [EMPTY], {"a": [{"b": object()}]}],
)
def test_render_json_rejects_what_exact_never_emits(value):
    with pytest.raises(TypeError):
        render_json(value)


def test_render_json_edge_values():
    value = {
        "": [],
        "e": {},
        "s": 'q"b\\s/é☃\U0001f600\x00\x1f\n\t',
        "n": [-(2**200), 0, True, False, None, [[]], [{}]],
        "ü": {"x": [{"y": []}]},
    }
    assert render_json(value) == _oracle(value)


def _subcommand_argvs():
    """Every subcommand at a small config, over q and fp:10007."""
    yield ["dims", "--n", "4"]
    yield ["dims", "--n", "6", "--d", "3", "--k", "3"]
    for field in ("q", "fp:10007"):
        common = ["--field", field, "--seed", "1"]
        for argv in (["rnc", "--n", "4"], ["unisecant", "--a", "1,2"],
                     ["incidence", "--a", "1,2", "--k", "1"], ["gonality", "--n", "4"],
                     ["hyperelliptic", "--n", "4"], ["hyperelliptic", "--n", "4", "--control"],
                     ["quadrics", "--n", "4"], ["containment", "--n", "4"],
                     ["containment", "--control"]):
            yield argv + common + ["--trials", "2"]
        yield ["degenerate", "--a", "1,2"] + common
        yield ["project", "--n", "4", "--node", "0"] + common


@pytest.mark.parametrize("argv", list(_subcommand_argvs()), ids="-".join)
def test_raw_json_bytes_equal_json_dumps(capsys, argv):
    assert main(argv + ["--format", "json"]) == 0
    out = capsys.readouterr().out
    assert out == _oracle(json.loads(out))


def test_render_json_matches_json_dumps_property():
    hypothesis = pytest.importorskip("hypothesis")
    st = pytest.importorskip("hypothesis.strategies")

    text = st.text(st.characters(), max_size=12) | st.sampled_from(
        ['"', "\\", "\x00\x1f\x7f", " ", "\U0001f600", "\ud800"]
    )
    scalars = (
        st.none() | st.booleans() | text
        | st.integers() | st.integers(min_value=-(2**200), max_value=-(2**63))
    )
    values = st.recursive(
        scalars,
        lambda inner: st.lists(inner, max_size=4) | st.dictionaries(text, inner, max_size=4),
        max_leaves=30,
    )

    @hypothesis.settings(max_examples=300, deadline=None)
    @hypothesis.given(values)
    def check(value):
        assert render_json(value) == _oracle(value)

    check()


# ------------------------------------------------------- error branches


def test_render_report_rejects_an_unknown_format():
    with pytest.raises(ValueError, match="unknown report format 'yaml'"):
        render_report({"result": {}}, "yaml")


@pytest.mark.parametrize(
    "report",
    [{}, {"result": {}}, {"result": {"table": {"a": 1}, "values": [1, 2]}}, {"result": [1, 2]}],
)
def test_csv_projection_without_rows_or_scalars_notes_an_empty_result(report):
    assert csv_projection(report) == (["note"], [{"note": "empty result"}])
    assert render_report(report, "csv") == "note\nempty result\n"


def test_render_text_of_an_empty_dict():
    assert render_text({"key": {}}) == "key: {}\n"
    assert render_text({"outer": {"inner": {}}}) == "outer:\n  inner: {}\n"
