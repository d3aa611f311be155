"""Report bytes against checked-in golden digests.

Every job of every benchmark workload runs at the primary and the
held-out seed, through the benchmark's own runner, and the digest of its
normalized report must equal the one in perfbench/goldens.json.  The
stratified containment search, which no benchmark job renders in json,
the node projection and the positive control over prime fields, which
no benchmark job runs, the incidence ranks over fields no benchmark
job uses, and the drawn node values over fp:101 and 2**61 - 1 and the
distinct sampler's FieldTooSmallError are pinned by their own tables
below.  A change that alters any
report byte (other than wall_clock_ms) fails here.
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


def _json_digest(capsys, argv):
    assert CLI.main(argv) == 0
    normalized = REPORTS.normalize_for_comparison(capsys.readouterr().out, "json")
    return joblib.digest(normalized)


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
        assert _json_digest(capsys, argv) == want, argv


# digest of the normalized json report of
# `project --n N --node J --seed S --field F`, per (N, J, F) and seed 0, 1, 2;
# node n + 1 is the node at infinity, whose projection renormalizes the
# remaining parameters by a Mobius map
PROJECTION_DIGESTS = {
    (5, 0, "q"): ["d0de4fc41bd672c4", "3ebe1e00d0141581", "592b4715a6e027ea"],
    (5, 0, "fp:10007"): ["19ed6d9a3692479e", "89bbf044668d62c4", "254456b39548eab7"],
    (5, 6, "q"): ["b610404297f131a5", "0822090f1f18c051", "3f2568d4ef073efd"],
    (5, 6, "fp:10007"): ["ef2a99e8a9ecaa4b", "752bec7dedcf8483", "777e1593bb0b9b9c"],
    (6, 3, "q"): ["64c6cf5a1fd9e348", "c1e9672b81438e3f", "c25e9caeb87a0ee0"],
    (6, 3, "fp:10007"): ["2828556f81e91380", "7d586d69ffb6ad44", "706555e33229510a"],
    (6, 7, "q"): ["a006305845524e96", "87126d2f7301ace8", "3800df7994e0808e"],
    (6, 7, "fp:10007"): ["a95b48033940c329", "e176ce84e4e8e03c", "4c3634e50906a0c0"],
}


@pytest.mark.parametrize("n, node, field", sorted(PROJECTION_DIGESTS))
def test_projection_matches_goldens(capsys, n, node, field):
    for seed, want in enumerate(PROJECTION_DIGESTS[n, node, field]):
        argv = ["project", "--n", str(n), "--node", str(node), "--seed", str(seed),
                "--field", field, "--format", "json"]
        assert _json_digest(capsys, argv) == want, argv


# digest of the normalized json report of
# `containment --control --trials 4 --seed S --field F`, per F and seed 0, 1, 2
CONTROL_DIGESTS = {
    "fp:101": ["8f6151743c5dfc29", "812f224a0d2db660", "c8cc1913b3229ca1"],
    "fp:10007": ["e5593cd7eb032e20", "c98e9f019ba9acdc", "e124ca82bafa71c6"],
}


@pytest.mark.parametrize("field", sorted(CONTROL_DIGESTS))
def test_positive_control_matches_goldens(capsys, field):
    for seed, want in enumerate(CONTROL_DIGESTS[field]):
        argv = ["containment", "--control", "--trials", "4", "--seed", str(seed),
                "--field", field, "--format", "json"]
        assert _json_digest(capsys, argv) == want, argv


# digest of the normalized json report of
# `incidence --a A --k K --trials 8 --seed S --field F`, per (A, K, F) and
# seed 0, 1; the benchmark runs incidence over fp:10007 only
INCIDENCE_DIGESTS = {
    ("1,1,2", 2, "fp:101"): ["7538e9046b1b412d", "9ef6f4054bae3bb2"],
    ("1,1,2", 2, "fp:2305843009213693951"): ["24eea22e28a829c9", "ef7309d081244fa5"],
    ("1,1,2", 2, "q"): ["4d66f6a68f3d33db", "acbe619a1bf797d7"],
    ("2,3", 1, "fp:101"): ["2cd5aa6a16ca75a7", "50e63654c342c3da"],
    ("2,3", 1, "fp:2305843009213693951"): ["97a6162da6dcab08", "efdb85fae89482dd"],
    ("2,3", 1, "q"): ["0e6c3a801c110b34", "566c3c8dab84511c"],
    # a degree-0 fiber holds the chart row at nearly every point, so the
    # Jacobian keeps every slot there
    ("0,1,2", 1, "fp:101"): ["0df5198292ba7867", "c1a3894c3bfe26cc"],
    ("0,1,2", 1, "q"): ["731e251934c2f743", "69df72b5f6680255"],
    ("0,4", 1, "fp:101"): ["22ac3a0b4580d4c2", "e9706abe433aaa71"],
    ("0,4", 1, "q"): ["7019c1e0690d15ab", "c349f4710e04d11a"],
    ("0,0,3", 1, "fp:101"): ["2ff021c0667b4c05", "5744e93a4044b0cc"],
    ("0,0,3", 1, "q"): ["6fba6db44c7a2807", "25db4f9b146c1e58"],
    ("1,1,1,1", 3, "fp:101"): ["19621780fb5d23ae", "d481f5d9227faa8a"],
    ("1,1,1,1", 3, "q"): ["099a36237f5c7ad8", "79cb32de37117df0"],
    # d = 1: two held rows per point, one left after the chart
    ("5", 1, "fp:101"): ["f33df47a0ad40866", "ce27b04112774a38"],
    ("5", 1, "q"): ["2c8afc0be2a1d5b9", "ddb61783c02a60de"],
}


@pytest.mark.parametrize("a, k, field", sorted(INCIDENCE_DIGESTS))
def test_incidence_matches_goldens(capsys, a, k, field):
    for seed, want in enumerate(INCIDENCE_DIGESTS[a, k, field]):
        argv = ["incidence", "--a", a, "--k", str(k), "--trials", "8", "--seed", str(seed),
                "--field", field, "--format", "json"]
        assert _json_digest(capsys, argv) == want, argv


# digest of the normalized json report of `COMMAND --trials 4 --seed S --field F
# --format json`, per (command, F) and seed 0, 1: the node values these
# commands draw over a small prime and over 2**61 - 1, on fields no benchmark
# job uses
DRAW_COMMANDS = {
    "gonality": ["gonality", "--n", "8"],
    "hyperelliptic": ["hyperelliptic", "--n", "7"],
    "hyperelliptic-control": ["hyperelliptic", "--n", "7", "--control"],
    "rnc": ["rnc", "--n", "6"],
    "unisecant": ["unisecant", "--a", "1,2,2"],
}
_P61 = "fp:2305843009213693951"
DRAW_DIGESTS = {
    ("gonality", "fp:101"): ["b49368d67e7b8ad2", "d4dbc2ccb47c3162"],
    ("gonality", _P61): ["568a718038187c8e", "7731a614a569d463"],
    ("hyperelliptic", "fp:101"): ["6979822eff4f6a18", "3bdb5a13ca8b2672"],
    ("hyperelliptic", _P61): ["a7cc27efa9f003f1", "c8b5c018f29e4835"],
    ("hyperelliptic-control", "fp:101"): ["badcda0b61b8751a", "b967a8411e9b4797"],
    ("hyperelliptic-control", _P61): ["86f3d18a03a2bec6", "3fe9bf3d688fc4cb"],
    ("rnc", "fp:101"): ["f5a202a3f8eeb116", "0f69f5a7b6bc81d7"],
    ("rnc", _P61): ["ea7d27ed710845fa", "303bbd66de7bd75f"],
    ("unisecant", "fp:101"): ["70a796a5a5b42be8", "b3ef9d0ac206d6de"],
    ("unisecant", _P61): ["dfc66e0647f30b11", "dddf9ccee4051a42"],
}


@pytest.mark.parametrize("command, field", sorted(DRAW_DIGESTS))
def test_draws_match_goldens(capsys, command, field):
    for seed, want in enumerate(DRAW_DIGESTS[command, field]):
        argv = DRAW_COMMANDS[command] + ["--trials", "4", "--seed", str(seed),
                                         "--field", field, "--format", "json"]
        assert _json_digest(capsys, argv) == want, argv


def test_field_too_small_anomaly_matches_golden(capsys):
    # every row notes the distinct sampler's FieldTooSmallError and its bound
    argv = ["gonality", "--n", "6", "--trials", "2", "--field", "fp:7", "--seed", "0",
            "--format", "json"]
    assert _json_digest(capsys, argv) == "2428201ca8d9d287"
