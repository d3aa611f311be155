"""scrollgeom benchmark: closed-loop CLI jobs, timed end to end and per layer.

Usage, from the root of a source checkout:

    python3 perfbench/run.py --workload rnc --seed 1 --seconds 10 --trace 0

One client in one process runs the workload's job list (jobs.py) again and
again, each job an in-process call of scrollgeom.cli.main(argv) with stdout
captured; the next job starts only after the previous report is written.
A pass over the list is a round.  Every report is checked against the
invariants of the paper's claims and, for seeds with stored goldens,
against the digest of its normalized bytes.

--trace 0 prints the end-to-end metrics: trials_per_s (per-job medians
over rounds), setup_s (median over fresh interpreters launched at even
intervals through the run) and peak_rss_mb.  Both times are counted in
units of a fixed reference kernel timed next to each job and launch (see
REFERENCE_S), so that the host's drifting speed cancels; the unscaled
wall-clock figures are printed beside them.
--trace 1 alternates untraced and traced rounds, then runs one counting
round, and prints the per-layer metrics of one round; the spans of the
last traced round go to perfbench/out/.  The last line of stdout is one
JSON object: {"correct", "attempted", "failed", "metrics"}.
"""

from __future__ import annotations

import argparse
import contextlib
import inspect
import io
import json
import resource
import statistics
import subprocess
import sys
import time
from fractions import Fraction
from pathlib import Path

import instrument
import jobs as joblib

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
GOLDENS = BENCH_DIR / "goldens.json"
OUT_DIR = BENCH_DIR / "out"

SETUP_LAUNCHES = 40
WARM_UP_KERNELS = 25
MIN_ROUNDS = 3

# The host's speed drifts by up to 1.7x over minutes, so end-to-end times
# are measured in units of a fixed reference kernel timed right before each
# job and each launch, then scaled by this nominal kernel time: a reference
# second (ref_s) is as long as 250 kernel runs.  setup_s is in ref_s too,
# labelled "s" as the benchmark's set-up metric must be.
REFERENCE_S = 0.004
_P = 10007


class BenchError(Exception):
    pass


def reference_kernel():
    """Fixed pure-Python work like the program's: mod-p row reduction, Fraction sums."""
    rows = [[(i * 7919 + j * 104729) % _P for j in range(48)] for i in range(24)]
    for c in range(24):
        inv = pow(rows[c][c] or 1, -1, _P)
        lead = [x * inv % _P for x in rows[c]]
        rows = [row if i == c else [(a - row[c] * b) % _P for a, b in zip(row, lead)]
                for i, row in enumerate(rows)]
    acc = Fraction(0)
    for i in range(1, 120):
        acc = acc * Fraction(i, i + 2) + Fraction(1, i)
    return rows, acc


def warm_up():
    """Keep the CPU busy for a while after it idled waiting on a child, so the
    next reference kernel is not timed on a CPU still coming back up."""
    for _ in range(WARM_UP_KERNELS):
        reference_kernel()


def reference_ns() -> int:
    start = time.perf_counter_ns()
    reference_kernel()
    return time.perf_counter_ns() - start


# A set-up launch signals "ready" once a job could start, then times the
# reference kernel in the same process, on the same CPU, for scaling.
_SETUP_CHILD = f"""
import sys, time
sys.path.insert(0, sys.argv[1])
import scrollgeom.cli
scrollgeom.cli.build_parser()
sys.stdout.write("ready\\n")
sys.stdout.flush()
from fractions import Fraction
_P = {_P}
{inspect.getsource(reference_kernel)}
{inspect.getsource(reference_ns)}
print(sorted(reference_ns() for _ in range(3))[1])
"""


def import_program():
    """Import scrollgeom.cli from this checkout's src, never from elsewhere."""
    if not (SRC / "scrollgeom" / "cli.py").is_file():
        raise BenchError(f"no scrollgeom sources under {SRC}")
    sys.path.insert(0, str(SRC))
    import scrollgeom.cli as cli
    import scrollgeom.reports as reports

    if Path(cli.__file__).resolve().parent != (SRC / "scrollgeom").resolve():
        raise BenchError(f"imported scrollgeom from {cli.__file__}, not from {SRC}")
    return cli, reports


def launch_setup():
    """(ref_s, wall s) from launching an interpreter until a job could start."""
    start = time.perf_counter_ns()
    with subprocess.Popen(
        [sys.executable, "-c", _SETUP_CHILD, str(SRC)],
        stdin=subprocess.DEVNULL, stdout=subprocess.PIPE, text=True,
    ) as child:
        line = child.stdout.readline()
        ready = time.perf_counter_ns()
        ref = child.stdout.read()
        code = child.wait()
    if line != "ready\n" or code != 0:
        raise BenchError(f"set-up child failed with exit code {code}")
    return (ready - start) / int(ref) * REFERENCE_S, (ready - start) / 1e9


class Runner:
    """Runs rounds of one workload's jobs and checks every report."""

    def __init__(self, cli, reports, workload, seed, goldens):
        self.cli = cli
        self.normalize = reports.normalize_for_comparison
        self.jobs = joblib.build_jobs(workload, seed)
        self.goldens = goldens
        self.attempted = 0
        self.failed = 0
        self.tracer = None

    def run_job(self, job, round_index):
        """(elapsed ns, normalized report or None)."""
        buf = io.StringIO()
        if self.tracer is not None:
            self.tracer.job = f"{round_index}:{job.index}"
        start = time.perf_counter_ns()
        try:
            with contextlib.redirect_stdout(buf):
                code = self.cli.main(list(job.argv))
        except SystemExit as exc:
            code = exc.code
        except Exception as exc:  # a crash is a failed job, the run goes on
            print(f"job {job.index} {' '.join(job.argv)} raised {exc!r}", file=sys.stderr)
            code = None
        elapsed = time.perf_counter_ns() - start
        if code != 0:
            return elapsed, None
        return elapsed, self.normalize(buf.getvalue(), job.fmt)

    def check(self, job, normalized):
        if normalized is None:
            return "job did not exit 0"
        try:
            reason = joblib.check_report(job, normalized)
        except (KeyError, ValueError) as exc:
            reason = f"report could not be parsed: {exc!r}"
        if reason is None and self.goldens is not None:
            if joblib.digest(normalized) != self.goldens[job.index]:
                reason = "report differs from its golden"
        return reason

    def run_round(self, round_index, reference=False):
        """One round: per-job wall ns (None where the job failed), the
        reference kernel's ns timed right before each job, report bytes."""
        times, refs, nbytes = [], [], 0
        for job in self.jobs:
            refs.append(reference_ns() if reference else None)
            elapsed, normalized = self.run_job(job, round_index)
            self.attempted += 1
            reason = self.check(job, normalized)
            if reason is not None:
                self.failed += 1
                print(f"FAILED job {job.index} {' '.join(job.argv)}: {reason}", file=sys.stderr)
                times.append(None)
                continue
            times.append(elapsed)
            nbytes += len(normalized.encode("utf-8"))
        return {"times": times, "refs": refs, "bytes": nbytes}

    def typical_round(self, rounds, scaled=False):
        """(trials, seconds) of a round made of each job's median time.

        With scaled, each job's time is first divided by the reference
        kernel's time next to it and counted in units of REFERENCE_S.
        Per-job medians keep a stall in one job of one round out of the
        figure; jobs that never succeeded are left out of both totals.
        """
        trials = seconds = 0
        for i, job in enumerate(self.jobs):
            ok = [(r["times"][i], r["refs"][i]) for r in rounds if r["times"][i] is not None]
            if ok:
                trials += job.trials
                seconds += statistics.median(
                    t / ref * REFERENCE_S if scaled else t / 1e9 for t, ref in ok
                )
        return trials, seconds


def _metric(value, unit):
    return {"value": value, "unit": unit}


def end_to_end(runner, seconds):
    launch_setup()  # the first launch also writes bytecode caches
    warm_up()
    rounds, launches = [], []
    measured = 0.0  # seconds spent in rounds; launches come on top
    while len(rounds) < MIN_ROUNDS or measured < seconds:
        start = time.perf_counter()
        rounds.append(runner.run_round(len(rounds), reference=True))
        measured += time.perf_counter() - start
        # launches due by now run between rounds, so they are spread over
        # the run and never fall between a job and its reference kernel
        due = min(SETUP_LAUNCHES, int(measured / seconds * SETUP_LAUNCHES))
        if len(launches) < due:
            while len(launches) < due:
                launches.append(launch_setup())
            warm_up()
    while len(launches) < SETUP_LAUNCHES:
        launches.append(launch_setup())
    setup_s = statistics.median(scaled for scaled, _ in launches)
    setup_wall_s = statistics.median(wall for _, wall in launches)
    trials, scaled_s = runner.typical_round(rounds, scaled=True)
    wall_s = runner.typical_round(rounds)[1]
    ref_ms = statistics.median(x for r in rounds for x in r["refs"]) / 1e6
    peak_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    print(f"{len(rounds)} rounds of {trials} trials; reference kernel median {ref_ms:.3f} ms "
          f"(nominal {REFERENCE_S * 1e3:g} ms)")
    print(f"unscaled wall clock: {trials / wall_s if wall_s else 0.0:.4f} trials/s, "
          f"setup {setup_wall_s:.4f} s ({len(launches)} launches)")
    return {
        "trials_per_s": _metric(trials / scaled_s if scaled_s else 0.0, "1/ref_s"),
        "setup_s": _metric(setup_s, "s"),
        "peak_rss_mb": _metric(peak_kb / 1024, "MB"),
    }


# per-layer metrics read from the span summary: (metric, key, field)
_SPAN_METRICS = (
    [(f"{layer}.{part}", layer, part) for layer in instrument.LAYERS
     for part in ("busy_s", "self_s")]
    + [(f"{key}.{part}", key, part)
       for key in ("forms.mul", "forms.form_gcd", "forms.divide_exact", "forms.compose_form",
                   "linalg.rank_kernel.fp", "linalg.rank_kernel.q",
                   "rnc.rnc_finiteness_rank", "rnc.residual_polynomial")
       for part in ("calls", "busy_s")]
    + [(f"{key}.self_s", key, "self_s")
       for key in ("rnc.rnc_finiteness_rank", "rnc.residual_polynomial")]
    + [("rnc.sample.busy_s", "rnc.sample", "busy_s")]
    + [(f"{key}.{part}", key, part)
       for key in ("scroll_curves.interpolate_unisecant",
                   "scroll_curves.incidence_dimension_estimate",
                   "binary_curves.random_binary_curve", "binary_curves.gonality_map",
                   "binary_curves.hyperelliptic", "binary_curves.quadrics_through",
                   "binary_curves.scroll_containment_witness")
       for part in ("busy_s", "self_s")]
    + [("reports.build_report.busy_s", "reports.build_report", "busy_s"),
       ("reports.render_report.busy_s", "reports.render_report", "busy_s")]
)
_SUMMARY_FIELD = {"busy_s": "busy_ns", "self_s": "self_ns"}


def _span_values(summary):
    values = {}
    for metric, key, part in _SPAN_METRICS:
        if part == "calls":
            values[metric] = summary["calls"].get(key, 0)
        else:
            values[metric] = summary[_SUMMARY_FIELD[part]].get(key, 0) / 1e9
    values["trace.wall_s"] = summary["root_ns"] / 1e9
    return values


def write_spans(spans, workload, seed):
    OUT_DIR.mkdir(exist_ok=True)
    path = OUT_DIR / f"spans-{workload}-seed{seed}.jsonl"
    with open(path, "w", encoding="utf-8") as handle:
        for i, (name, job, start, end, parent) in enumerate(spans):
            handle.write(json.dumps({"id": i, "name": name, "job": job, "start_ns": start,
                                     "end_ns": end, "parent": parent}) + "\n")
    return path


def per_layer(runner, seconds, workload, seed):
    tracer = instrument.SpanTracer()
    untraced, traced, span_rounds = [], [], []
    deadline = time.perf_counter() + seconds
    index = 0
    while len(traced) < 2 or time.perf_counter() < deadline:
        untraced.append(runner.run_round(index))
        tracer.clear()
        tracer.install()
        runner.tracer = tracer
        try:
            traced.append(runner.run_round(index + 1))
        finally:
            tracer.uninstall()
            runner.tracer = None
        span_rounds.append(_span_values(instrument.summarize(tracer.spans)))
        index += 2
    spans_path = write_spans(tracer.spans, workload, seed)

    counters = instrument.Counters()
    counters.install()
    try:
        counted = runner.run_round(index)
    finally:
        counters.uninstall()

    consistent = all(
        s[m] == span_rounds[0][m] for s in span_rounds for m in span_rounds[0] if m.endswith(".calls")
    ) and all(r["bytes"] == untraced[0]["bytes"] for r in untraced + traced + [counted])

    metrics = {}
    for name, first in span_rounds[0].items():
        if name.endswith(".calls"):
            metrics[name] = _metric(first, "count")
        else:
            metrics[name] = _metric(statistics.median(s[name] for s in span_rounds), "s")
    for name, value in counters.as_dict().items():
        metrics[name] = _metric(value, "count")
    metrics["reports.bytes"] = _metric(untraced[0]["bytes"], "B")
    trials, untraced_s = runner.typical_round(untraced)
    traced_s = runner.typical_round(traced)[1]
    metrics["trace.overhead"] = _metric(traced_s / untraced_s if untraced_s else 0.0, "ratio")
    metrics["wall.trials_per_s"] = _metric(trials / untraced_s if untraced_s else 0.0, "1/s")
    print(f"{len(traced)} traced rounds; spans of the last one in {spans_path}")
    return metrics, consistent


def load_goldens_table():
    with open(GOLDENS, encoding="utf-8") as handle:
        return json.load(handle)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(joblib.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    try:
        cli, reports = import_program()
        goldens = load_goldens_table()["digests"][args.workload].get(str(args.seed))
        runner = Runner(cli, reports, args.workload, args.seed, goldens)
        if args.trace:
            metrics, consistent = per_layer(runner, args.seconds, args.workload, args.seed)
        else:
            metrics, consistent = end_to_end(runner, args.seconds), True
    except BenchError as exc:
        print(f"benchmark error: {exc}", file=sys.stderr)
        return 2
    if not consistent:
        print("counts or report bytes differ between rounds", file=sys.stderr)
    golden_note = "goldens checked" if goldens is not None else "no goldens for this seed"
    print(f"workload {args.workload} seed {args.seed}: {runner.attempted} jobs, "
          f"{runner.failed} failed, failed_frac {runner.failed / runner.attempted:.4f} "
          f"({golden_note})")
    for name, m in metrics.items():
        print(f"  {name} = {m['value']} {m['unit']}")
    print(json.dumps({
        "correct": runner.failed == 0 and consistent,
        "attempted": runner.attempted,
        "failed": runner.failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
