"""Workload job lists, per-job seeds, report parsing and invariant checks.

A workload is a fixed list of CLI jobs.  One pass over the list is a
round; the benchmark repeats rounds, so every round does the same work
and per-round figures can be compared by their median.  Each job's seed
is derived from the workload seed and the job's position, so the same
workload seed always gives the same inputs.
"""

from __future__ import annotations

import csv
import hashlib
import io
import json
import re

# Each entry is (argv without --seed/--format, report format).  Trial
# counts are sized so one round takes two to four seconds on a 2-core
# machine and averages over several random instances per job.
WORKLOADS = {
    # Form multiplication inside the residual and finiteness stages does
    # nearly all the work and linalg does none; n=14 shows the n^4-n^5 growth.
    "rnc": [
        ("rnc --n 10 --trials 6 --field q", "json"),
        ("rnc --n 10 --trials 12 --field fp:10007", "csv"),
        ("rnc --n 14 --trials 2 --field q", "text"),
        ("rnc --n 14 --trials 3 --field fp:10007", "json"),
    ],
    # Prime-field elimination (_forward_fp) dominates and Fraction is absent:
    # the no-change workload for every rational-only change.
    "elim-fp": [
        ("incidence --a 1,1,2 --k 2 --trials 60 --field fp:10007", "json"),
        ("incidence --a 1,2,2 --k 2 --trials 45 --field fp:10007", "text"),
        ("gonality --n 16 --trials 60 --field fp:10007", "csv"),
        ("hyperelliptic --n 10 --trials 150 --field fp:10007", "json"),
    ],
    # Bareiss plus Fraction back-substitution, and gcds of forms: rational
    # linear algebra and the form kernels other than multiplication.
    "exact-q": [
        ("unisecant --a 2,3,3 --trials 15 --field q", "json"),
        ("gonality --n 12 --trials 9 --field q", "csv"),
        ("quadrics --n 10 --trials 3 --field q", "text"),
        ("containment --n 4 --trials 20 --field q", "json"),
        ("containment --n 4 --trials 20 --field q", "csv"),
        ("containment --control --trials 20 --field q", "text"),
        ("containment --n 6 --trials 8 --field q", "csv"),
        ("hyperelliptic --n 8 --control --trials 30 --field q", "json"),
        ("dims --n 12", "json"),
        ("dims --n 12", "text"),
        ("degenerate --a 2,3,4 --field q", "text"),
        ("degenerate --a 2,3,4 --field q", "json"),
    ],
}

# commands without a --seed flag
_UNSEEDED = {"dims"}


class Job:
    __slots__ = ("index", "argv", "command", "fmt", "trials", "control")

    def __init__(self, index: int, argv: list, fmt: str):
        self.index = index
        self.argv = argv
        self.command = argv[0]
        self.fmt = fmt
        self.trials = int(argv[argv.index("--trials") + 1]) if "--trials" in argv else 1
        self.control = "--control" in argv


def job_seed(workload: str, seed: int, index: int) -> int:
    digest = hashlib.sha256(f"{workload}:{seed}:{index}".encode("ascii")).digest()
    return int.from_bytes(digest[:4], "big")


def build_jobs(workload: str, seed: int) -> list:
    jobs = []
    for index, (base, fmt) in enumerate(WORKLOADS[workload]):
        argv = base.split()
        if argv[0] not in _UNSEEDED:
            argv += ["--seed", str(job_seed(workload, seed, index))]
        argv += ["--format", fmt]
        jobs.append(Job(index, argv, fmt))
    return jobs


def digest(normalized: str) -> str:
    return hashlib.sha256(normalized.encode("utf-8")).hexdigest()[:16]


# ---------------------------------------------------------------------------
# parsing a rendered report into (summary, rows)
#
# summary maps dotted paths under "result" to cell strings, as the csv and
# text renderers print scalars; csv reports carry no summary (None).  rows
# is the result's row table as a list of dicts of cell strings.


def _cell(value) -> str:
    if value is None:
        return ""
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, (int, str)):
        return str(value)
    return json.dumps(value, separators=(",", ":"))


def _flatten(prefix: str, value, out: dict):
    if isinstance(value, dict):
        for k, v in value.items():
            _flatten(f"{prefix}{k}.", v, out)
    elif not isinstance(value, list):
        out[prefix[:-1]] = _cell(value)


def _parse_json(text: str):
    result = json.loads(text)["result"]
    summary = {}
    _flatten("", result, summary)
    rows = [{k: _cell(v) for k, v in row.items()} for row in result.get("rows") or []]
    return summary, rows


def _parse_csv(text: str):
    return None, list(csv.DictReader(io.StringIO(text)))


_KEY_VALUE = re.compile(r"^( *)([^ :][^:]*):(?: (.*))?$")


def _parse_text(text: str):
    lines = text.splitlines()
    try:
        start = lines.index("result:") + 1
    except ValueError:
        return {}, []
    summary, rows = {}, []
    path = []  # (indent, label) of the open dict labels
    i = start
    while i < len(lines):
        line = lines[i]
        m = _KEY_VALUE.match(line)
        if m is None:
            i += 1
            continue
        indent, label, value = len(m.group(1)), m.group(2), m.group(3)
        while path and path[-1][0] >= indent:
            path.pop()
        key = ".".join([p[1] for p in path] + [label])
        nxt = lines[i + 1] if i + 1 < len(lines) else ""
        if value is None and nxt.startswith(" " * (indent + 2)) and ":" not in nxt:
            # a table: header line, then one line per row, at indent + 2
            i += 1
            header = lines[i]
            starts = [h.start() for h in re.finditer(r"\S+", header)]
            names = header.split()
            bounds = list(zip(starts, starts[1:] + [None]))
            i += 1
            table = []
            while i < len(lines) and lines[i].startswith(" " * (indent + 2)):
                row = lines[i]
                table.append({n: row[a:b].strip() for n, (a, b) in zip(names, bounds)})
                i += 1
            if key == "rows":
                rows = table
            continue
        if value is None:
            path.append((indent, label))
        else:
            summary[key] = value
        i += 1
    return summary, rows


_PARSERS = {"json": _parse_json, "csv": _parse_csv, "text": _parse_text}


def parse_report(text: str, fmt: str):
    return _PARSERS[fmt](text)


# ---------------------------------------------------------------------------
# invariants the paper's claims give for every seed


def _all(rows, column, expected):
    return all(row.get(column) == expected for row in rows)


def check_report(job: Job, text: str):
    """None when the report is sound, else a one-line reason."""
    summary, rows = parse_report(text, job.fmt)
    if not rows:
        return "report has no rows"
    if "anomaly_code" in rows[0] or (summary and "anomaly_code" in summary):
        return "report is an anomaly"
    cmd, t = job.command, str(job.trials)
    trial_rows = cmd in ("rnc", "incidence", "quadrics", "unisecant", "gonality", "hyperelliptic")
    if trial_rows and len(rows) != job.trials:
        return f"{len(rows)} rows for {job.trials} trials"
    if cmd == "rnc":
        ok = _all(rows, "isolated", "true") and (summary is None or summary.get("isolated_count") == t)
    elif cmd in ("incidence", "quadrics"):
        ok = _all(rows, "matches", "true") and (summary is None or summary.get("match_count") == t)
    elif cmd == "unisecant":
        ok = _all(rows, "status", "UNIQUE") and (summary is None or summary.get("counts.UNIQUE") == t)
    elif cmd == "gonality":
        ok = _all(rows, "kernel_dim", "2") and all(
            int(row["total_degree"]) <= int(row["bound"]) for row in rows
        )
        if summary is not None:
            hist = {k: v for k, v in summary.items() if k.startswith("kernel_dims.")}
            ok = ok and hist == {"kernel_dims.2": t} and summary.get("all_within_bound") == "true"
    elif cmd == "hyperelliptic" and job.control:
        ok = _all(rows, "hyperelliptic", "true") and (summary is None or summary.get("true_count") == t)
    elif cmd == "containment" and job.control:
        if summary is None:
            return "containment --control needs a json or text report"
        ok = summary.get("verdict") == "WITNESS"
    elif cmd == "degenerate":
        ok = summary is None or summary.get("embeddings_verified") == "true"
    else:
        ok = True
    return None if ok else f"{cmd} invariant violated"
