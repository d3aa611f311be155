"""End-to-end CLI runs: envelopes, determinism, exit codes, renderings."""

import json
import os
from collections import Counter
import subprocess
import sys
from pathlib import Path

import pytest

import scrollgeom
from scrollgeom.cli import build_parser, main
from scrollgeom.reports import normalize_for_comparison
from scrollgeom.scrolls import (
    EMPTY,
    ScrollType,
    aut_dimension,
    dim_all_scrolls,
    dim_curves_in_scroll,
    dim_scrolls_with_curve,
    dim_stratum,
)


def _run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, out


def _run_json(capsys, *argv):
    code, out = _run(capsys, *argv)
    assert code == 0
    return json.loads(out)


# ---------------------------------------------------------------- envelope


def test_envelope_layout(capsys):
    doc = _run_json(capsys, "dims", "--n", "4", "--d", "2")
    assert list(doc) == ["command", "config", "versions", "wall_clock_ms", "result"]
    assert doc["command"] == "dims"
    assert doc["versions"] == {"scrollgeom": "0.1.0", "report_format": 1}
    assert isinstance(doc["wall_clock_ms"], int)
    assert doc["config"] == {"n": 4, "d": 2, "k": None, "format": "json"}


def test_config_echo_order(capsys):
    doc = _run_json(capsys, "gonality", "--n", "4", "--seed", "7", "--trials", "2")
    assert list(doc["config"].items()) == [
        ("n", 4),
        ("field", "q"),
        ("seed", 7),
        ("trials", 2),
        ("format", "json"),
    ]


# -------------------------------------------------------------------- dims


def test_dims_matches_library(capsys):
    doc = _run_json(capsys, "dims", "--n", "4", "--d", "2")
    rows = doc["result"]["rows"]
    assert len(rows) == 4
    assert {row["a"] for row in rows} == {"0,3", "1,2"}
    for row in rows:
        scroll = ScrollType(tuple(int(x) for x in row["a"].split(",")))
        assert row["dim_all"] == dim_all_scrolls(4, 2)
        assert row["dim_stratum"] == dim_stratum(scroll)
        assert row["aut_dim"] == aut_dimension(scroll)
        expected = dim_curves_in_scroll(scroll, row["k"])
        assert row["dim_curves"] == ("EMPTY" if expected is EMPTY else expected)
        swc = dim_scrolls_with_curve(scroll, row["k"])
        assert row["dim_scrolls_with_curve"] == ("EMPTY" if swc is EMPTY else swc)


def test_dims_spot_values(capsys):
    doc = _run_json(capsys, "dims", "--n", "4", "--d", "2")
    by_key = {(row["a"], row["k"]): row for row in doc["result"]["rows"]}
    balanced = by_key[("1,2", 1)]
    assert balanced["dim_all"] == 18
    assert balanced["dim_stratum"] == 18
    assert balanced["dim_curves"] == 6
    assert balanced["dim_scrolls_with_curve"] == 6
    cone = by_key[("0,3", 2)]
    assert cone["dim_stratum"] == 16
    assert cone["dim_curves"] == "EMPTY"


def test_dims_all_d_sweep(capsys):
    doc = _run_json(capsys, "dims", "--n", "4")
    ds = {row["d"] for row in doc["result"]["rows"]}
    assert ds == {1, 2, 3}


# ------------------------------------------------------------- determinism


@pytest.mark.parametrize("fmt", ["json", "csv", "text"])
def test_repeat_runs_are_byte_identical(capsys, fmt):
    argv = ("rnc", "--n", "3", "--trials", "2", "--seed", "5", "--format", fmt)
    _, first = _run(capsys, *argv)
    _, second = _run(capsys, *argv)
    assert normalize_for_comparison(first, fmt) == normalize_for_comparison(second, fmt)


# ------------------------------------------------------------- subcommands


def test_rnc_report(capsys):
    doc = _run_json(capsys, "rnc", "--n", "3", "--trials", "2", "--seed", "5")
    result = doc["result"]
    assert result["exact_divisions"] == 2
    assert result["isolated_count"] == 2
    for row in result["rows"]:
        assert row["residual_degree"] == 1
        assert row["curve_on_quadric"] is False
        assert row["isolated"] is True


def test_unisecant_report(capsys):
    doc = _run_json(capsys, "unisecant", "--a", "1,2", "--trials", "3", "--seed", "1")
    result = doc["result"]
    assert result["counts"] == {"UNIQUE": 3, "NONE": 0, "POSITIVE_FAMILY": 0, "ANOMALY": 0}
    assert all(row["kernel_dim"] == 1 for row in result["rows"])
    assert doc["config"]["a"] == [1, 2]


def test_incidence_report(capsys):
    doc = _run_json(
        capsys,
        "incidence", "--a", "1,2", "--k", "1",
        "--trials", "2", "--seed", "1", "--field", "fp:10007",
    )
    result = doc["result"]
    assert result["predicted"] == 6
    assert result["measured_ranks"] == [6, 6]
    assert result["match_count"] == 2
    assert result["field"] == "fp:10007"


def test_gonality_report(capsys):
    doc = _run_json(capsys, "gonality", "--n", "4", "--seed", "7", "--trials", "2")
    result = doc["result"]
    assert result["kernel_dims"] == {"2": 2}
    assert result["all_within_bound"] is True
    for row in result["rows"]:
        assert row["map_degree"] == 3
        assert row["total_degree"] == 4
        assert row["bound"] == 4


@pytest.mark.parametrize("p", [13, 17, 19])
def test_gonality_field_too_small_names_the_bound(capsys, p):
    # a component at n=4 draws 3 node values besides 0 and 1: p >= 4*5
    doc = _run_json(capsys, "gonality", "--n", "4", "--field", f"fp:{p}", "--trials", "2")
    assert doc["result"]["kernel_dims"] == {"anomaly": 2}
    for row in doc["result"]["rows"]:
        assert row["note"] == (
            "FieldTooSmallError: rejection sampling of 3 distinct scalars "
            f"avoiding 2 fixed values needs p >= 20, got {p}"
        )


def test_rational_sampler_bound_gives_an_anomaly_not_a_traceback(capsys):
    # the rational draws span the 1999 integers in [-999, 999]: rnc at
    # n = 499 draws n - 1 node values besides 0 and 1, and 4 * 500 > 1999
    for n in ("499", "2100"):
        doc = _run_json(capsys, "rnc", "--n", n, "--trials", "1", "--field", "q")
        assert doc["result"]["anomaly_code"] == "FieldTooSmallError"
        assert doc["result"]["anomaly_message"].endswith("got 1999 in [-999, 999]")
    doc = _run_json(capsys, "gonality", "--n", "2100", "--field", "q", "--trials", "1")
    (row,) = doc["result"]["rows"]
    assert row["note"].startswith("FieldTooSmallError: rejection sampling of 2099 ")


@pytest.mark.parametrize("p", [13, 29])
def test_gonality_anomaly_rows_use_the_curve_genus(capsys, p):
    # at n=5 the genus is 6: every row, solved or anomalous, has bound 4
    doc = _run_json(capsys, "gonality", "--n", "5", "--field", f"fp:{p}", "--trials", "4",
                    "--seed", "0")
    rows = doc["result"]["rows"]
    assert any(row["kernel_dim"] is None for row in rows)
    assert [row["bound"] for row in rows] == [4] * 4


def test_hyperelliptic_report(capsys):
    doc = _run_json(capsys, "hyperelliptic", "--n", "4", "--trials", "3", "--seed", "2")
    assert doc["result"]["false_count"] == 3
    doc = _run_json(
        capsys, "hyperelliptic", "--n", "4", "--trials", "3", "--seed", "2", "--control"
    )
    assert doc["result"]["true_count"] == 3
    assert doc["config"]["control"] is True


def test_quadrics_report(capsys):
    doc = _run_json(capsys, "quadrics", "--n", "5", "--trials", "2", "--seed", "4")
    assert doc["result"]["expected"] == 6
    assert doc["result"]["match_count"] == 2


def test_containment_control_report(capsys):
    doc = _run_json(capsys, "containment", "--control", "--trials", "6", "--seed", "2")
    result = doc["result"]
    assert result["verdict"] == "WITNESS"
    assert result["method"] == "exact-slicing"
    assert result["anomalies"] == []
    assert len(result["records"]) == 6
    assert doc["config"]["n"] is None


def test_degenerate_report(capsys):
    doc = _run_json(capsys, "degenerate", "--a", "1,2", "--seed", "0")
    result = doc["result"]
    assert result["degrees"] == [1, 2]
    assert result["aux_degrees"] == [0, 2, 1]
    assert result["degenerate_degrees"] == [0, 3]
    assert result["embeddings_verified"] is True
    assert result["member_lam1"]["degrees"] == [0, 2, 1]
    assert result["member_lam1"]["comps"][2] == {"degree": 1, "coeffs": ["1", "0"]}
    assert all(row["equivalent_to_lam1"] for row in result["rows"])


def test_project_report(capsys):
    doc = _run_json(capsys, "project", "--n", "5", "--node", "6", "--seed", "3")
    assert doc["result"]["rows"] == [
        {
            "node": 6,
            "n_before": 5,
            "n_after": 4,
            "genus_before": 6,
            "genus_after": 5,
        }
    ]
    assert doc["result"]["before"]["n"] == 5
    assert doc["result"]["after"]["n"] == 4


# ------------------------------------------------- anomalies and exit codes


def test_empty_stratum_is_an_embedded_anomaly(capsys):
    code, out = _run(capsys, "incidence", "--a", "2,3", "--k", "3", "--seed", "1")
    assert code == 0
    doc = json.loads(out)
    assert doc["result"]["anomaly_code"] == "ValueError"
    assert doc["result"]["rows"] == []


def test_anomaly_renders_as_one_csv_row(capsys):
    # an anomaly result has no table rows, so csv falls back to its scalars
    code, out = _run(capsys, "quadrics", "--n", "3", "--field", "fp:3", "--format", "csv")
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "anomaly_code,anomaly_message"
    assert len(lines) == 2 and lines[1].startswith("FieldTooSmallError,")


@pytest.mark.parametrize(
    "argv",
    [
        ("dims",),
        ("dims", "--n", "1"),
        ("gonality", "--n", "4", "--field", "fp:10"),
        ("gonality", "--n", "4", "--trials", "0"),
        ("unisecant", "--a", "1,2", "--n", "5"),
        ("unisecant", "--a", "boom"),
        ("containment", "--n", "4", "--h", "1"),
        ("containment",),
        ("project", "--n", "5", "--node", "7"),
        ("dims", "--n", "3", "--format", "xml"),
        ("no-such-command",),
        # filters outside the stratified sweep h, k in 1..floor(n/2)
        ("containment", "--n", "6", "--h", "7"),
        ("containment", "--n", "3", "--k", "2"),
        ("dims", "--n", "4", "--d", "4"),
        ("dims", "--n", "4", "--k", "0"),
        ("rnc", "--n", "2"),
        ("gonality", "--n", "2"),
        ("hyperelliptic", "--n", "2"),
        ("quadrics", "--n", "2"),
        ("incidence", "--a", "1,2", "--k", "1", "--n", "5"),
        ("unisecant", "--a", "1"),
        ("containment", "--n", "2"),
        ("containment", "--control", "--n", "5"),
    ],
)
def test_usage_errors_exit_2(capsys, argv):
    with pytest.raises(SystemExit) as excinfo:
        main(list(argv))
    assert excinfo.value.code == 2
    capsys.readouterr()


_SWEEP_FIELDS = ("q", "fp:3", "fp:5", "fp:7", "fp:13", "fp:101")


def _sweep_argvs():
    """Every subcommand at n = 3..7 over each sweep field, one trial at seed 0."""
    for n in range(3, 8):
        yield ["dims", "--n", str(n)]
        a = f"{(n - 1) // 2},{n // 2}"  # a surface scroll in P^n
        for field in _SWEEP_FIELDS:
            common = ["--field", field, "--seed", "0"]
            for argv in (["rnc", "--n", str(n)], ["unisecant", "--a", a],
                         ["incidence", "--a", a, "--k", "1"], ["gonality", "--n", str(n)],
                         ["hyperelliptic", "--n", str(n)],
                         ["hyperelliptic", "--n", str(n), "--control"],
                         ["quadrics", "--n", str(n)], ["containment", "--n", str(n)]):
                yield argv + common + ["--trials", "1"]
            yield ["degenerate", "--a", a] + common
            yield ["project", "--n", str(n), "--node", "0"] + common
    for field in _SWEEP_FIELDS:
        yield ["containment", "--control", "--field", field, "--seed", "0", "--trials", "1"]


def test_every_accepted_input_gives_a_report_or_a_named_anomaly(capsys):
    # any other exception fails the test with its traceback
    outcomes = Counter()
    usage = []
    for argv in _sweep_argvs():
        try:
            code = main(argv)
        except SystemExit as exc:
            assert exc.code == 2, argv
            usage.append(argv[:3])
            capsys.readouterr()
            continue
        assert code == 0, argv
        result = json.loads(capsys.readouterr().out)["result"]
        outcomes[result.get("anomaly_code", "report")] += 1
    assert usage == [["project", "--n", "3"]] * len(_SWEEP_FIELDS)
    assert set(outcomes) == {"report", "FieldTooSmallError"}


def test_shared_parser_survives_errors_and_anomalies(capsys):
    argv = ("gonality", "--n", "4", "--seed", "7", "--trials", "2")
    src = str(Path(scrollgeom.__file__).parent.parent)
    fresh = subprocess.run(
        [sys.executable, "-m", "scrollgeom.cli", *argv],
        capture_output=True,
        text=True,
        check=True,
        env={**os.environ, "PYTHONPATH": src},
    ).stdout
    for bad in (("gonality", "--n", "4", "--trials", "0"), ("containment", "--n", "6", "--h", "7")):
        with pytest.raises(SystemExit) as excinfo:
            main(list(bad))
        assert excinfo.value.code == 2
    code, out = _run(capsys, "incidence", "--a", "2,3", "--k", "3", "--seed", "1")
    assert code == 0 and json.loads(out)["result"]["anomaly_code"] == "ValueError"
    _, out = _run(capsys, *argv)
    assert normalize_for_comparison(out, "json") == normalize_for_comparison(fresh, "json")
    assert build_parser() is build_parser()


_FOOTPRINT_CHILD = """
import sys
before = set(sys.modules)
import scrollgeom.cli
scrollgeom.cli.build_parser()
print("\\n".join(sorted(set(sys.modules) - before)))
"""


def test_cli_start_up_loads_neither_dataclasses_nor_inspect():
    # every launch pays for what importing the CLI loads; dataclasses,
    # which loads inspect, took about 6 ms of each launch (README, Start-up)
    src = str(Path(scrollgeom.__file__).parent.parent)
    loaded = subprocess.run(
        [sys.executable, "-c", _FOOTPRINT_CHILD],
        capture_output=True,
        text=True,
        check=True,
        env={**os.environ, "PYTHONPATH": src},
    ).stdout.split()
    assert "scrollgeom.cli" in loaded and "argparse" in loaded
    assert "dataclasses" not in loaded
    assert "inspect" not in loaded


# --------------------------------------------------------------- renderings


def test_csv_rendering(capsys):
    code, out = _run(
        capsys, "gonality", "--n", "4", "--seed", "7", "--trials", "2", "--format", "csv"
    )
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "trial,kernel_dim,map_degree,total_degree,bound,q1,q2,note"
    assert len(lines) == 3
    assert lines[1].startswith("0,2,3,4,4,")


def test_csv_dims_columns(capsys):
    _, out = _run(capsys, "dims", "--n", "4", "--d", "2", "--format", "csv")
    header = out.splitlines()[0]
    assert header == (
        "n,d,a,dim_all,dim_stratum,aut_dim,balanced,k,dim_curves,dim_scrolls_with_curve"
    )


def test_text_rendering(capsys):
    _, out = _run(capsys, "dims", "--n", "3", "--format", "text")
    lines = out.splitlines()
    assert lines[0] == "command: dims"
    assert any(line.startswith("wall_clock_ms:") for line in lines)
    normalized = normalize_for_comparison(out, "text")
    assert "wall_clock_ms" not in normalized


def test_out_file(capsys, tmp_path):
    target = tmp_path / "report.json"
    code, out = _run(capsys, "dims", "--n", "3", "--out", str(target))
    assert code == 0
    assert out == ""
    doc = json.loads(target.read_text())
    assert doc["command"] == "dims"


@pytest.mark.parametrize("a", ["1,-1", "2,-3,4"])
def test_degenerate_negative_degree_is_a_usage_error(capsys, a):
    # the degrees are named in the order given: no scroll type sorts them
    with pytest.raises(SystemExit) as excinfo:
        main(["degenerate", "--a", a, "--field", "fp:101"])
    assert excinfo.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    degrees = tuple(int(x) for x in a.split(","))
    assert captured.err.endswith(f"error: bad --a: negative degree in fiber degrees {degrees}\n")


@pytest.mark.parametrize("where", ["missing-dir", "directory", "empty"])
def test_unwritable_out_is_a_usage_error(capsys, tmp_path, where):
    target = {"missing-dir": tmp_path / "missing" / "r.json", "directory": tmp_path,
              "empty": ""}[where]
    reason = "Is a directory" if where == "directory" else "No such file or directory"
    with pytest.raises(SystemExit) as excinfo:
        main(["dims", "--n", "4", "--out", str(target)])
    assert excinfo.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"scrollgeom: error: cannot write --out {target}: {reason}\n"
