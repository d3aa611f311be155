"""Write perfbench/goldens.json: the report digest of every job, per seed.

Usage, from the root of a source checkout:

    python3 perfbench/make_goldens.py

Each job of every workload runs once for each seed in GOLDEN_SEEDS; its
report must satisfy the invariants in jobs.py (the paper's claims) before
its digest is stored.  The digests pin the
normalized report bytes of the commit that wrote them: they are a
regression pin, not a proof that the reports are right.
"""

from __future__ import annotations

import json
import sys

import jobs as joblib
import run

PRIMARY_SEED = 1
HELD_OUT_SEED = 2
GOLDEN_SEEDS = range(64)


def main() -> int:
    cli, reports = run.import_program()
    digests = {}
    for workload in joblib.WORKLOADS:
        digests[workload] = {}
        for seed in GOLDEN_SEEDS:
            runner = run.Runner(cli, reports, workload, seed, goldens=None)
            row = []
            for job in runner.jobs:
                _, normalized = runner.run_job(job, 0)
                reason = runner.check(job, normalized)
                if reason is not None:
                    print(f"{workload} seed {seed}: {' '.join(job.argv)}: {reason}",
                          file=sys.stderr)
                    return 1
                row.append(joblib.digest(normalized))
            digests[workload][str(seed)] = row
        print(f"{workload}: {len(digests[workload])} seeds", file=sys.stderr)
    table = {
        "primary_seed": PRIMARY_SEED,
        "held_out_seed": HELD_OUT_SEED,
        "digests": digests,
    }
    with open(run.GOLDENS, "w", encoding="utf-8") as handle:
        json.dump(table, handle, indent=1, sort_keys=True)
        handle.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
