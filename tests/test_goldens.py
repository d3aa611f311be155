"""Report bytes against checked-in golden digests.

Every job of every benchmark workload runs at the primary and the
held-out seed, through the benchmark's own runner, and the digest of its
normalized report must equal the one in perfbench/goldens.json.  The
stratified containment search, which no benchmark job renders in json,
is pinned by its own table below.  A change that alters any report byte
(other than wall_clock_ms) fails here.
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


# digest of the normalized json report of
# `containment --n N --trials 4 --seed S --field F`, per (N, F) and seed 0, 1, 2;
# over fp:101 seeds 0 and 1 end in a sampled-evidence WITNESS, so the
# witness forms are pinned too
STRATIFIED_DIGESTS = {
    (6, "fp:101"): ["581f76d11ebb6837", "488366ee16becb63", "625b6d557f0a03b0"],
    (6, "q"): ["7a7ee2ba2fc80565", "6435dea396b457a6", "9a51d35f1fd22f28"],
    (6, "fp:10007"): ["e9e67954b70c1a2b", "58c67ac505a241d5", "663f6b91ff6ee9c7"],
    (7, "q"): ["b51d03bd1de95654", "da4353149c83e0fe", "a1ac551c4d678658"],
    (7, "fp:10007"): ["169f9472b86654a7", "15cc6a22bdd342f4", "479f499cd03b629b"],
}


@pytest.mark.parametrize("n, field", sorted(STRATIFIED_DIGESTS))
def test_stratified_containment_matches_goldens(capsys, n, field):
    for seed, want in enumerate(STRATIFIED_DIGESTS[n, field]):
        argv = ["containment", "--n", str(n), "--trials", "4", "--seed", str(seed),
                "--field", field, "--format", "json"]
        assert CLI.main(argv) == 0
        normalized = REPORTS.normalize_for_comparison(capsys.readouterr().out, "json")
        assert joblib.digest(normalized) == want, argv
