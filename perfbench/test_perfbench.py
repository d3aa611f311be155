"""Tests of the benchmark itself.  Run from the checkout root:

    python3 -m pytest -q perfbench
"""

from __future__ import annotations

import contextlib
import io
import shutil
import subprocess
import sys

import pytest

import instrument
import jobs as joblib
import run

CLI, REPORTS = run.import_program()

# the cheapest jobs of each workload keep these tests short
_SMALL = {"rnc": [3], "elim-fp": [2, 3], "exact-q": [3, 5, 6, 7, 9, 10]}


def _runner(workload, seed=1):
    runner = run.Runner(CLI, REPORTS, workload, seed, goldens=None)
    runner.jobs = [runner.jobs[i] for i in _SMALL[workload]]
    return runner


def _counted_round(workload):
    runner = _runner(workload)
    counters = instrument.Counters()
    counters.install()
    try:
        digests = []
        for job in runner.jobs:
            _, normalized = runner.run_job(job, 0)
            assert runner.check(job, normalized) is None
            digests.append(joblib.digest(normalized))
    finally:
        counters.uninstall()
    return counters.as_dict(), digests


@pytest.mark.parametrize("workload", sorted(joblib.WORKLOADS))
def test_counts_and_digests_repeat(workload):
    first = _counted_round(workload)
    second = _counted_round(workload)
    assert first == second
    counts = first[0]
    assert counts["rngstream.next_u64.calls"] > 0
    assert counts["fields.q_ops"] + counts["fields.fp_ops"] > 0


def test_counters_are_uninstalled():
    from fractions import Fraction

    import scrollgeom.linalg as linalg
    import scrollgeom.rnc as rnc

    add, rank_kernel = Fraction.__dict__["__add__"], linalg.rank_kernel
    counters = instrument.Counters()
    counters.install()
    assert rnc.rank_kernel is not rank_kernel
    counters.uninstall()
    assert Fraction.__dict__["__add__"] is add
    assert rnc.rank_kernel is linalg.rank_kernel is rank_kernel


def _render(argv):
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        assert CLI.main(list(argv)) == 0
    return buf.getvalue()


def _profiled_calls(runner, tracer, targets):
    """Calls of each target code object made inside jobs, seen by the interpreter."""
    counts = {code: 0 for code in targets}

    def profile(frame, event, arg):
        if event == "call" and frame.f_code in counts:
            counts[frame.f_code] += 1

    tracer.install()
    try:
        for job in runner.jobs:
            buf = io.StringIO()
            with contextlib.redirect_stdout(buf):
                sys.setprofile(profile)
                try:
                    CLI.main(list(job.argv))
                finally:
                    sys.setprofile(None)
    finally:
        tracer.uninstall()
    return counts


@pytest.mark.parametrize("workload", sorted(joblib.WORKLOADS))
def test_spans_miss_no_caller(workload):
    """Every call of a wrapped function passes through its wrapper."""
    targets = {}  # code object -> span names it is recorded under
    for name, fn in instrument.public_functions():
        names = ("linalg.rank_kernel.q", "linalg.rank_kernel.fp") if name == "linalg.rank_kernel" else (name,)
        targets[fn.__code__] = names
    for name, cls, attr in instrument.traced_methods():
        targets[cls.__dict__[attr].__code__] = (name,)
    tracer = instrument.SpanTracer()
    counts = _profiled_calls(_runner(workload), tracer, targets)
    spans_per_name = {}
    for span in tracer.spans:
        spans_per_name[span[0]] = spans_per_name.get(span[0], 0) + 1
    by_names = {}
    for code, names in targets.items():
        by_names[names] = by_names.get(names, 0) + counts[code]
    for names, calls in by_names.items():
        assert sum(spans_per_name.get(n, 0) for n in names) == calls, names
    assert spans_per_name["cli.main"] == len(_SMALL[workload])


def test_self_times_add_up_to_job_wall():
    runner = _runner("exact-q")
    tracer = instrument.SpanTracer()
    tracer.install()
    runner.tracer = tracer
    try:
        runner.run_round(0)
    finally:
        tracer.uninstall()
        runner.tracer = None
    summary = instrument.summarize(tracer.spans)
    layer_self = sum(summary["self_ns"].get(layer, 0) for layer in instrument.LAYERS)
    assert layer_self == summary["root_ns"]
    roots = [s for s in tracer.spans if s[4] == -1]
    assert [s[0] for s in roots] == ["cli.main"] * len(runner.jobs)
    for key, busy in summary["busy_ns"].items():
        assert 0 <= summary["self_ns"][key] <= busy <= summary["root_ns"], key


def test_summarize_union_and_self():
    # outer forms span [0, 100] holds a forms child [10, 30] and a linalg
    # child [40, 90], which holds a forms grandchild [50, 60]
    spans = [
        ("forms.a", "0:0", 0, 100, -1),
        ("forms.mul", "0:0", 10, 30, 0),
        ("linalg.rank_kernel.q", "0:0", 40, 90, 0),
        ("forms.mul", "0:0", 50, 60, 2),
    ]
    summary = instrument.summarize(spans)
    assert summary["busy_ns"]["forms"] == 100
    assert summary["self_ns"]["forms"] == 30 + 20 + 10
    assert summary["self_ns"]["linalg"] == 40
    assert summary["busy_ns"]["forms.mul"] == 30
    assert summary["calls"]["forms.mul"] == 2
    assert summary["root_ns"] == 100


def test_typical_round_takes_per_job_medians_in_reference_units():
    runner = _runner("elim-fp")
    rounds = [
        {"times": [2_000_000, None], "refs": [4_000_000, 4_000_000], "bytes": 0},
        {"times": [6_000_000, 3_000_000], "refs": [4_000_000, 2_000_000], "bytes": 0},
    ]
    trials, seconds = runner.typical_round(rounds, scaled=True)
    assert trials == sum(job.trials for job in runner.jobs)
    assert seconds == pytest.approx(run.REFERENCE_S * (1.0 + 1.5))
    assert runner.typical_round(rounds)[1] == pytest.approx(0.004 + 0.003)


@pytest.mark.parametrize("fmt", ["csv", "text"])
def test_report_parsers_agree_with_json(fmt):
    for workload in joblib.WORKLOADS:
        for job in _runner(workload).jobs:
            summary, rows = joblib.parse_report(_render(job.argv[:-1] + ["json"]), "json")
            other_summary, other_rows = joblib.parse_report(_render(job.argv[:-1] + [fmt]), fmt)
            assert other_rows == rows, job.argv
            if fmt == "text":
                # the text summary also holds lists, which the json flattening skips
                assert summary.keys() <= other_summary.keys(), job.argv
                assert all(other_summary[k] == v for k, v in summary.items()), job.argv


def test_goldens_cover_primary_and_held_out_seed():
    table = run.load_goldens_table()
    for workload in joblib.WORKLOADS:
        for seed in (table["primary_seed"], table["held_out_seed"]):
            assert len(table["digests"][workload][str(seed)]) == len(joblib.WORKLOADS[workload])


def test_refuses_to_run_without_sources(tmp_path):
    shutil.copy(run.ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(run.BENCH_DIR, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "rnc", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert done.returncode != 0
    assert '"correct"' not in done.stdout
