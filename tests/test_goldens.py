"""Report bytes against the checked-in golden digests.

Every job of every benchmark workload runs at the primary and the
held-out seed, through the benchmark's own runner, and the digest of its
normalized report must equal the one in perfbench/goldens.json.  A change
that alters any report byte (other than wall_clock_ms) fails here.
"""

import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "perfbench"))

import jobs as joblib
import run

CLI, REPORTS = run.import_program()
TABLE = run.load_goldens_table()


@pytest.mark.parametrize("seed", [TABLE["primary_seed"], TABLE["held_out_seed"]])
@pytest.mark.parametrize("workload", sorted(joblib.WORKLOADS))
def test_reports_match_goldens(workload, seed):
    runner = run.Runner(CLI, REPORTS, workload, seed, goldens=None)
    expected = TABLE["digests"][workload][str(seed)]
    assert len(expected) == len(runner.jobs)
    for job, want in zip(runner.jobs, expected):
        _, normalized = runner.run_job(job, 0)
        assert normalized is not None, job.argv
        assert joblib.digest(normalized) == want, job.argv
