"""Command-line driver for the scroll and binary-curve experiments.

Every subcommand reads an explicit seed, threads one counter-based
stream through all randomness, and emits a report whose bytes depend
only on the config (the wall-clock field aside).  Exit status reflects
usage and internal errors only; mathematical outcomes such as EMPTY
strata or NONE_FOUND verdicts are embedded in the report and exit 0.
"""

from __future__ import annotations

import argparse
import functools
import sys
import time

from .binary_curves import (
    containment_strata,
    gonality_map,
    hyperelliptic_from_nodes,
    hyperelliptic_test,
    project_from_node,
    quadric_space_dimension,
    random_binary_curve,
    random_mobius_node_pairs,
    scroll_containment_witness,
    scroll_positive_control,
)
from .errors import InternalCheckError, ScrollGeomError
from .fields import parse_field, random_nonzero, scalar_to_str
from .reports import build_report, render_report
from .rnc import (
    random_quadric_through_frame,
    random_standard_rnc,
    rnc_residual_and_rank,
)
from .rngstream import as_stream
from .scroll_curves import (
    degeneration_embeddings,
    degeneration_equivalence_check,
    degeneration_member,
    incidence_dimension_estimate,
    interpolate_unisecant,
    random_lifted_frame,
    verify_degeneration_embeddings,
)
from .scrolls import ScrollType, gonality_bound, stratification_table


class _UsageError(Exception):
    pass


# ---------------------------------------------------------------------------
# argument plumbing


def _multi_index(text: str):
    try:
        return tuple(int(part) for part in text.split(","))
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"bad multi-index {text!r}; expected comma-separated integers"
        ) from None


def _field_arg(text: str):
    try:
        return parse_field(text)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from None


def _positive_int(text: str) -> int:
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError("must be a positive integer")
    return value


def _add_output_flags(p):
    p.add_argument(
        "--format", choices=("json", "csv", "text"), default="json",
        help="report rendering (default json)",
    )
    p.add_argument("--out", metavar="FILE", help="write the report to FILE instead of stdout")


def _add_experiment_flags(p, trials=True):
    p.add_argument(
        "--field", type=_field_arg, default=parse_field("q"), metavar="{q|fp:PRIME}",
        help="coefficient field (default exact rationals)",
    )
    p.add_argument("--seed", type=int, default=0, help="64-bit experiment seed (default 0)")
    if trials:
        p.add_argument("--trials", type=_positive_int, default=10, help="trial count (default 10)")
    _add_output_flags(p)


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The process's one parser; parse_args leaves it unchanged, so jobs share it."""
    parser = argparse.ArgumentParser(
        prog="scrollgeom",
        description="Exact experiments on rational normal scrolls and binary curves.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("dims", help="stratification table of scroll and curve dimensions")
    p.add_argument("--n", type=int, required=True, help="ambient projective dimension")
    p.add_argument("--d", type=int, help="scroll dimension (default: all 1..n-1)")
    p.add_argument("--k", type=int, help="largest induced degree column (default d)")
    _add_output_flags(p)

    p = sub.add_parser("rnc", help="residual factorization and finiteness on random RNCs")
    p.add_argument("--n", type=int, required=True)
    _add_experiment_flags(p)

    p = sub.add_parser("unisecant", help="interpolation of k=1 curves through lifted frames")
    p.add_argument("--a", type=_multi_index, required=True, help="scroll type, e.g. 1,2")
    p.add_argument("--n", type=int, help="ambient dimension consistency check")
    _add_experiment_flags(p)

    p = sub.add_parser("incidence", help="sampled family dimensions of curves in scrolls")
    p.add_argument("--a", type=_multi_index, required=True)
    p.add_argument("--k", type=_positive_int, required=True, help="induced degree")
    p.add_argument("--n", type=int, help="ambient dimension consistency check")
    _add_experiment_flags(p)

    p = sub.add_parser("degenerate", help="scroll degeneration family checks")
    p.add_argument("--a", type=_multi_index, required=True, help="fiber degrees, order kept")
    _add_experiment_flags(p, trials=False)

    p = sub.add_parser("gonality", help="gonality pencils of random binary curves")
    p.add_argument("--n", type=int, required=True)
    _add_experiment_flags(p)

    p = sub.add_parser("hyperelliptic", help="hyperelliptic test on random binary curves")
    p.add_argument("--n", type=int, required=True)
    p.add_argument(
        "--control", action="store_true",
        help="use Mobius-constructed node data that must test hyperelliptic",
    )
    _add_experiment_flags(p)

    p = sub.add_parser("quadrics", help="dimension of the quadric space through a binary curve")
    p.add_argument("--n", type=int, required=True)
    _add_experiment_flags(p)

    p = sub.add_parser("containment", help="search for a scroll surface through a binary curve")
    p.add_argument("--n", type=int, help="ambient dimension (forced to 4 by --control)")
    p.add_argument(
        "--control", action="store_true",
        help="use the constructed on-scroll curve; the verdict must be WITNESS",
    )
    p.add_argument("--h", type=_positive_int, help="restrict the stratified sweep to this h")
    p.add_argument("--k", type=_positive_int, help="restrict the stratified sweep to this k")
    _add_experiment_flags(p)

    p = sub.add_parser("project", help="project a binary curve from one of its nodes")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--node", type=int, required=True, help="node index 0..n+1 (n+1 = infinity node)")
    _add_experiment_flags(p, trials=False)

    return parser


_CONFIG_KEYS = ("n", "d", "a", "k", "h", "node", "control", "field", "seed", "trials", "format")


def _config_echo(args) -> dict:
    out = {}
    for key in _CONFIG_KEYS:
        if hasattr(args, key):
            value = getattr(args, key)
            if key == "field":
                value = value.name
            elif key == "a" and value is not None:
                value = list(value)
            out[key] = value
    return out


def _join(values) -> str:
    return ";".join(scalar_to_str(v) for v in values)


def _scroll_from_a(a) -> ScrollType:
    try:
        return ScrollType(a)
    except ValueError as exc:
        raise _UsageError(f"bad --a: {exc}") from None


# ---------------------------------------------------------------------------
# subcommand handlers; each returns the result dict of the report


def _handle_dims(args) -> dict:
    n = args.n
    if n < 2:
        raise _UsageError("dims needs --n at least 2")
    if args.d is not None and not 1 <= args.d <= n - 1:
        raise _UsageError(f"--d must lie between 1 and n-1 = {n - 1}")
    if args.k is not None and args.k < 1:
        raise _UsageError("--k must be positive")
    ds = [args.d] if args.d is not None else list(range(1, n))
    strata = []
    for d in ds:
        strata.extend(stratification_table(n, d, args.k if args.k is not None else d))
    rows = []
    for stratum in strata:
        a = ",".join(map(str, stratum["a"]))
        for cell in stratum["per_k"]:
            rows.append(
                {
                    "n": stratum["n"],
                    "d": stratum["d"],
                    "a": a,
                    "dim_all": stratum["dim_all"],
                    "dim_stratum": stratum["dim_stratum"],
                    "aut_dim": stratum["aut_dim"],
                    "balanced": stratum["balanced"],
                    "k": cell["k"],
                    "dim_curves": cell["dim_curves"],
                    "dim_scrolls_with_curve": cell["dim_scrolls_with_curve"],
                }
            )
    return {"strata": strata, "rows": rows}


def _handle_rnc(args) -> dict:
    n = args.n
    if n < 3:
        raise _UsageError("rnc needs --n at least 3")
    field = args.field
    stream = as_stream(args.seed)
    rows = []
    isolated = 0
    for t in range(args.trials):
        rng = stream.child(f"trial{t}")
        curve = random_standard_rnc(n, field, rng)
        quad = random_quadric_through_frame(n, field, rng)
        residual, fin_rank = rnc_residual_and_rank(quad, curve)
        if fin_rank == n - 1:
            isolated += 1
        rows.append(
            {
                "trial": t,
                "params": _join(curve.values[2:]),
                "quadric_rank": quad.rank(),
                "residual_degree": residual.degree,
                "residual": _join(residual.values),
                "curve_on_quadric": residual.is_zero(),
                "finiteness_rank": fin_rank,
                "isolated": fin_rank == n - 1,
            }
        )
    return {
        "n": n,
        "trials": args.trials,
        "exact_divisions": args.trials,
        "isolated_count": isolated,
        "rows": rows,
    }


def _handle_unisecant(args) -> dict:
    scroll = _scroll_from_a(args.a)
    if args.n is not None and args.n != scroll.n:
        raise _UsageError(f"--n {args.n} is inconsistent with --a (ambient dimension {scroll.n})")
    field = args.field
    stream = as_stream(args.seed)
    # POSITIVE_FAMILY never occurs (see interpolate_unisecant); the key
    # keeps the report's shape
    counts = {"UNIQUE": 0, "NONE": 0, "POSITIVE_FAMILY": 0, "ANOMALY": 0}
    rows = []
    for t in range(args.trials):
        rng = stream.child(f"trial{t}")
        try:
            frame = random_lifted_frame(scroll, field, rng)
            outcome = interpolate_unisecant(scroll, frame, field)
            status, kernel_dim, note = outcome.status, outcome.kernel_dim, ""
        except InternalCheckError:
            raise
        except (ScrollGeomError, ValueError) as exc:
            status, kernel_dim, note = "ANOMALY", None, f"{type(exc).__name__}: {exc}"
        counts[status] += 1
        rows.append({"trial": t, "status": status, "kernel_dim": kernel_dim, "note": note})
    return {
        "scroll": repr(scroll),
        "n": scroll.n,
        "trials": args.trials,
        "counts": counts,
        "rows": rows,
    }


def _handle_incidence(args) -> dict:
    scroll = _scroll_from_a(args.a)
    if args.n is not None and args.n != scroll.n:
        raise _UsageError(f"--n {args.n} is inconsistent with --a (ambient dimension {scroll.n})")
    report = incidence_dimension_estimate(scroll, args.k, args.trials, args.seed, args.field)
    rows = [
        {"trial": i, "measured": m, "fiber_dim": fd, "matches": m == report.predicted}
        for i, (m, fd) in enumerate(zip(report.measured_ranks, report.fiber_dims))
    ]
    result = report._asdict()
    result["match_count"] = sum(1 for row in rows if row["matches"])
    result["rows"] = rows
    return result


def _section_dict(section) -> dict:
    return {"degrees": list(section.degrees), "m": section.m, "comps": list(section.comps)}


def _handle_degenerate(args) -> dict:
    degrees = args.a
    if any(a < 0 for a in degrees):
        raise _UsageError(f"bad --a: negative degree in fiber degrees {degrees}")
    field = args.field
    stream = as_stream(args.seed)
    member1 = degeneration_member(degrees, field.one, field=field)
    member0 = degeneration_member(degrees, field.zero, field=field)
    phi1, phi2 = degeneration_embeddings(degrees, field=field)
    verified = verify_degeneration_embeddings(degrees, field=field)
    lams = []
    for cand in (field.one, -field.one, field(2), random_nonzero(field, stream.child("lam"))):
        if cand and all(cand != seen for seen in lams):
            lams.append(cand)
    rows = [
        {
            "lam": scalar_to_str(lam),
            "equivalent_to_lam1": degeneration_equivalence_check(degrees, lam, field=field),
        }
        for lam in lams
    ]
    return {
        "degrees": list(degrees),
        "aux_degrees": list(phi1.aux_degrees),
        "degenerate_degrees": list(phi2.source_degrees),
        "member_lam1": _section_dict(member1),
        "member_lam0": _section_dict(member0),
        "embeddings_verified": verified,
        "rows": rows,
    }


def _handle_gonality(args) -> dict:
    n = args.n
    if n < 3:
        raise _UsageError("gonality needs --n at least 3")
    field = args.field
    stream = as_stream(args.seed)
    rows = []
    for t in range(args.trials):
        try:
            curve = random_binary_curve(n, field, stream.child(f"trial{t}"))
            witness, kernel_dim = gonality_map(curve)
            rows.append(
                {
                    "trial": t,
                    "kernel_dim": kernel_dim,
                    "map_degree": witness.q1.degree,
                    "total_degree": witness.total_degree,
                    "bound": gonality_bound(curve.arithmetic_genus),
                    "q1": _join(witness.q1.values),
                    "q2": _join(witness.q2.values),
                    "note": "",
                }
            )
        except InternalCheckError:
            raise
        except (ScrollGeomError, ValueError) as exc:
            rows.append(
                {
                    "trial": t,
                    "kernel_dim": None,
                    "map_degree": None,
                    "total_degree": None,
                    "bound": gonality_bound(n + 1),
                    "q1": "",
                    "q2": "",
                    "note": f"{type(exc).__name__}: {exc}",
                }
            )
    kernel_hist = {}
    for row in rows:
        key = "anomaly" if row["kernel_dim"] is None else str(row["kernel_dim"])
        kernel_hist[key] = kernel_hist.get(key, 0) + 1
    within = all(
        row["total_degree"] is None or row["total_degree"] <= row["bound"] for row in rows
    )
    return {
        "n": n,
        "trials": args.trials,
        "kernel_dims": dict(sorted(kernel_hist.items())),
        "all_within_bound": within,
        "rows": rows,
    }


def _handle_hyperelliptic(args) -> dict:
    n = args.n
    if n < 3:
        raise _UsageError("hyperelliptic needs --n at least 3")
    field = args.field
    stream = as_stream(args.seed)
    rows = []
    true_count = 0
    for t in range(args.trials):
        child = stream.child(f"trial{t}")
        if args.control:
            pairs = random_mobius_node_pairs(n, field, child)
            value = hyperelliptic_from_nodes(pairs, field)
        else:
            value = hyperelliptic_test(random_binary_curve(n, field, child))
        if value:
            true_count += 1
        rows.append({"trial": t, "hyperelliptic": value})
    return {
        "n": n,
        "trials": args.trials,
        "control": bool(args.control),
        "true_count": true_count,
        "false_count": args.trials - true_count,
        "rows": rows,
    }


def _handle_quadrics(args) -> dict:
    n = args.n
    if n < 3:
        raise _UsageError("quadrics needs --n at least 3")
    field = args.field
    stream = as_stream(args.seed)
    expected = (n - 1) * (n - 2) // 2
    rows = []
    for t in range(args.trials):
        curve = random_binary_curve(n, field, stream.child(f"trial{t}"))
        dim = quadric_space_dimension(curve)
        rows.append({"trial": t, "dim": dim, "expected": expected, "matches": dim == expected})
    return {
        "n": n,
        "trials": args.trials,
        "expected": expected,
        "match_count": sum(1 for row in rows if row["matches"]),
        "rows": rows,
    }


_STRATUM_COLUMNS = (
    "h",
    "k",
    "method",
    "solvable",
    "kernel_dim",
    "samples",
    "unsat_samples",
    "count_allows_solutions",
)


def _containment_rows(verdict):
    if verdict.method == "exact-slicing":
        return [dict(rec) for rec in verdict.records]
    return [{col: rec.get(col) for col in _STRATUM_COLUMNS} for rec in verdict.records]


def _handle_containment(args) -> dict:
    if args.control:
        if args.n not in (None, 4):
            raise _UsageError("--control builds an n=4 curve; drop --n or pass --n 4")
        n = 4
    else:
        if args.n is None:
            raise _UsageError("containment needs --n unless --control is given")
        n = args.n
    if n < 3:
        raise _UsageError("containment needs n at least 3")
    try:
        containment_strata(n, args.h, args.k)
    except ValueError as exc:
        raise _UsageError(f"bad --h/--k: {exc}") from None
    field = args.field
    stream = as_stream(args.seed)
    if args.control:
        curve = scroll_positive_control(stream.child("control"), field)
    else:
        curve = random_binary_curve(n, field, stream.child("curve"))
    verdict = scroll_containment_witness(
        curve, args.trials, stream.child("search"), args.h, args.k
    )
    return {
        "curve": curve.to_dict(),
        "verdict": verdict.verdict,
        "method": verdict.method,
        "trials": verdict.trials,
        "description": verdict.description,
        "anomalies": verdict.anomalies,
        "records": verdict.records,
        "rows": _containment_rows(verdict),
    }


def _handle_project(args) -> dict:
    n = args.n
    if n < 4:
        raise _UsageError("project needs --n at least 4 so the image stays a binary curve")
    if not 0 <= args.node <= n + 1:
        raise _UsageError(f"--node must lie in 0..{n + 1}")
    field = args.field
    stream = as_stream(args.seed)
    curve = random_binary_curve(n, field, stream.child("curve"))
    projected = project_from_node(curve, args.node)
    rows = [
        {
            "node": args.node,
            "n_before": curve.n,
            "n_after": projected.n,
            "genus_before": curve.arithmetic_genus,
            "genus_after": projected.arithmetic_genus,
        }
    ]
    return {"node": args.node, "before": curve.to_dict(), "after": projected.to_dict(), "rows": rows}


_HANDLERS = {
    "dims": _handle_dims,
    "rnc": _handle_rnc,
    "unisecant": _handle_unisecant,
    "incidence": _handle_incidence,
    "degenerate": _handle_degenerate,
    "gonality": _handle_gonality,
    "hyperelliptic": _handle_hyperelliptic,
    "quadrics": _handle_quadrics,
    "containment": _handle_containment,
    "project": _handle_project,
}


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    start = time.perf_counter_ns()
    try:
        result = _HANDLERS[args.command](args)
    except _UsageError as exc:
        parser.error(str(exc))
    except InternalCheckError:
        raise
    except (ScrollGeomError, ValueError) as exc:
        # mathematical outcome, not a failure: embed and exit 0
        result = {
            "anomaly_code": type(exc).__name__,
            "anomaly_message": str(exc),
            "rows": [],
        }
    report = build_report(args.command, _config_echo(args), result)
    report["wall_clock_ms"] = (time.perf_counter_ns() - start) // 1_000_000
    text = render_report(report, args.format)
    if args.out is not None:
        try:
            with open(args.out, "w", encoding="utf-8") as handle:
                handle.write(text)
        except OSError as exc:
            parser.exit(2, f"{parser.prog}: error: cannot write --out {args.out}: {exc.strerror}\n")
    else:
        sys.stdout.write(text)
    return 0


if __name__ == "__main__":
    sys.exit(main())
