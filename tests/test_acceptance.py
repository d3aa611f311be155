"""Acceptance gate: ten criteria, one printed pass/fail line each.

Run with `pytest tests/test_acceptance.py -v -s` to see the lines as they
are produced.  Every check is exact (tolerance zero); the randomized
criteria state their own success thresholds and time budgets inline.
"""

import functools
import time

from scrollgeom.binary_curves import (
    gonality_map,
    gonality_map_from_nodes,
    hyperelliptic_from_nodes,
    hyperelliptic_test,
    quadrics_through,
    random_binary_curve,
    random_mobius_node_pairs,
    scroll_containment_witness,
    scroll_positive_control,
)
from scrollgeom.cli import main
from scrollgeom.fields import QQ, PrimeField
from scrollgeom.forms import BinaryForm
from scrollgeom.reports import normalize_for_comparison
from scrollgeom.rnc import (
    Quadric,
    StandardRNC,
    composite_on_curve,
    random_quadric_through_frame,
    random_standard_rnc,
    residual_polynomial,
)
from scrollgeom.rngstream import as_stream
from scrollgeom.scroll_curves import (
    compose_section_with_embedding,
    degeneration_embeddings,
    degeneration_equivalence_check,
    degeneration_member,
    incidence_dimension_estimate,
    interpolate_unisecant,
    random_lifted_frame,
    section_on_curve,
    sections_through_points,
    verify_degeneration_embeddings,
)
from scrollgeom.scrolls import (
    EMPTY,
    ScrollType,
    aut_dimension,
    dim_curves_in_scroll,
    dim_scrolls_through_frame,
    dim_scrolls_with_curve,
    gonality_bound,
    partitions_into,
)

FP = PrimeField(10007)


def criterion(num, name):
    """Print the verdict line for one acceptance criterion, then assert."""

    def wrap(fn):
        @functools.wraps(fn)
        def run(*args, **kwargs):
            try:
                ok, detail = fn(*args, **kwargs)
            except BaseException as exc:
                print(f"criterion-{num:02d} {name}: FAIL ({type(exc).__name__}: {exc})")
                raise
            line = f"criterion-{num:02d} {name}: " + ("PASS" if ok else "FAIL")
            if detail:
                line += f" ({detail})"
            print(line)
            assert ok, line

        return run

    return wrap


def _pencil_carries_nodes(witness, pairs):
    for (r, s) in pairs:
        v1 = witness.q1.evaluate(r[0], r[1])
        v2 = witness.q2.evaluate(r[0], r[1])
        if not (v1 or v2):
            return False
        if v1 * s[1] != v2 * s[0]:
            return False
    return True


@criterion(1, "dimension-identities")
def test_criterion_01_dimension_identities():
    start = time.perf_counter()
    checked = 0
    for n in range(3, 13):
        for d in range(1, n):
            for part in partitions_into(n - d + 1, d):
                scroll = ScrollType(part)
                aut = aut_dimension(scroll)
                if aut < d * d:
                    return False, f"aut below d^2 on {scroll}"
                if (aut == d * d) != scroll.is_balanced:
                    return False, f"balance test wrong on {scroll}"
                for k in range(1, d + 1):
                    dim = dim_curves_in_scroll(scroll, k)
                    if dim is EMPTY:
                        continue
                    count = sum(n - k * ai + 1 for ai in part) + 2 * (k + 1) - 5
                    if count != dim:
                        return False, f"coefficient count off on {scroll}, k={k}"
                    checked += 1
        if n % 2 == 0:
            d = n // 2
            for part in partitions_into(n - d + 1, d):
                scroll = ScrollType(part)
                if dim_scrolls_with_curve(scroll, 1) != dim_scrolls_through_frame(scroll):
                    return False, f"frame identity off on {scroll}"
    elapsed = time.perf_counter() - start
    if elapsed >= 1.0:
        return False, f"took {elapsed:.2f}s, budget 1s"
    return True, f"{checked} non-empty strata, {elapsed:.3f}s"


@criterion(2, "sampled-incidence-dimensions")
def test_criterion_02_incidence_dimensions():
    cases = (
        ((1, 2), 1),
        ((1, 2), 2),
        ((1, 1, 2), 1),
        ((1, 1, 2), 2),
        ((1, 1, 2), 3),
    )
    start = time.perf_counter()
    worst = 100
    for i, (a, k) in enumerate(cases):
        report = incidence_dimension_estimate(ScrollType(a), k, 100, 20000 + i, FP)
        matches = sum(1 for m in report.measured_ranks if m == report.predicted)
        worst = min(worst, matches)
        if matches < 95:
            return False, f"a={a}, k={k}: {matches}/100 matches"
    elapsed = time.perf_counter() - start
    if elapsed >= 60.0:
        return False, f"took {elapsed:.1f}s, budget 60s"
    return True, f"worst case {worst}/100, {elapsed:.1f}s"


@criterion(3, "unisecant-interpolation")
def test_criterion_03_unisecant_interpolation():
    unique = sections_ok = none = 0
    for scroll in (ScrollType((1, 2)), ScrollType((1, 1, 2))):
        stream = as_stream(3000 + scroll.n)
        for t in range(100):
            points = random_lifted_frame(scroll, QQ, stream.child(f"frame{t}"))
            result = interpolate_unisecant(scroll, points, QQ)
            if result.status == "UNIQUE" and result.kernel_dim == 1:
                unique += 1
            sections = sections_through_points(scroll, 1, points, QQ)
            if sections and all(
                section_on_curve(s, result.curve).is_zero() for s in sections
            ):
                sections_ok += 1
        for t in range(50):
            rng = stream.child(f"rep{t}")
            points = random_lifted_frame(scroll, QQ, rng)
            y0, base0 = points[0]
            # same base value, non-proportional fiber: no unisecant exists
            while True:
                y1 = tuple(QQ.random_scalar(rng) for _ in range(scroll.d))
                proportional = all(
                    y1[i] * y0[j] == y1[j] * y0[i]
                    for i in range(scroll.d)
                    for j in range(scroll.d)
                )
                if any(y1) and not proportional:
                    break
            points[1] = (y1, base0)
            result = interpolate_unisecant(scroll, points, QQ)
            if result.status == "NONE" and result.kernel_dim == 0:
                none += 1
    ok = unique == 200 and sections_ok == 200 and none == 100
    return ok, f"unique {unique}/200, sections {sections_ok}/200, none {none}/100"


@criterion(4, "gonality-pencils")
def test_criterion_04_gonality_pencils():
    good = 0
    for n in (4, 6, 8, 10):
        stream = as_stream(4000 + n)
        for t in range(100):
            curve = random_binary_curve(n, QQ, stream.child(f"trial{t}"))
            witness, kernel_dim = gonality_map(curve)
            if (
                kernel_dim == 2
                and witness.q1.degree == n // 2 + 1
                and witness.total_degree == gonality_bound(curve.arithmetic_genus)
                and _pencil_carries_nodes(witness, curve.node_pairs)
            ):
                good += 1
        values = [QQ(v) for v in range(n + 1)]
        pairs = [((v, QQ(1)), (v, QQ(1))) for v in values]
        pairs.append(((QQ(1), QQ(0)), (QQ(1), QQ(0))))
        _, kernel_dim = gonality_map_from_nodes(pairs, n, QQ)
        if kernel_dim != n // 2 + 1:
            return False, f"equal components at n={n}: kernel {kernel_dim}"
    return good == 400, f"{good}/400 witnesses exact"


@criterion(5, "residual-factorization")
def test_criterion_05_residual_factorization():
    good = 0
    s1 = BinaryForm.monomial(1, 1, FP.one, FP)
    for n in range(3, 9):
        stream = as_stream(5000 + n)
        for t in range(100):
            rng = stream.child(f"trial{t}")
            curve = random_standard_rnc(n, FP, rng.child("curve"))
            quad = random_quadric_through_frame(n, FP, rng.child("quadric"))
            residual = residual_polynomial(quad, curve)
            node_product = BinaryForm(0, (FP.one,), FP)
            for v in curve.node_values:
                node_product = node_product * BinaryForm(1, (1, -v), FP)
            if residual.degree == n - 2 and composite_on_curve(quad, curve) == (
                residual * s1 * node_product
            ):
                good += 1
    # n=3 closed form: every composite term holds each node factor at most
    # once, so the residual is affine-linear in each parameter and a 2x2
    # grid of exact agreements proves the identity symbolically
    quad = Quadric.from_monomials(3, {(0, 3): QQ(1), (1, 2): QQ(-1)}, QQ)
    closed = True
    for a2 in (QQ(2), QQ(5)):
        for a3 in (QQ(3), QQ(7)):
            residual = residual_polynomial(quad, StandardRNC(3, (a2, a3), QQ))
            if residual != BinaryForm(1, (a3 - QQ(1) - a2, a2), QQ):
                closed = False
    ok = good == 600 and closed
    return ok, f"{good}/600 exact divisions, closed form {'ok' if closed else 'off'}"


@criterion(6, "scroll-degeneration")
def test_criterion_06_scroll_degeneration():
    for degrees in ((1, 2), (2, 2), (1, 1, 2)):
        if not verify_degeneration_embeddings(degrees, field=QQ):
            return False, f"embedding identities fail for {degrees}"
        member0 = degeneration_member(degrees, QQ(0), field=QQ)
        _, phi2 = degeneration_embeddings(degrees, field=QQ)
        pulled = compose_section_with_embedding(member0, phi2)
        if not all(f.is_zero() for f in pulled):
            return False, f"degenerate member misses its image for {degrees}"
        for lam in (QQ(2), QQ(-1), QQ(7), QQ(3) / QQ(5)):
            if not degeneration_equivalence_check(degrees, lam, field=QQ):
                return False, f"lam={lam} not equivalent for {degrees}"
    return True, "all members and embeddings exact"


@criterion(7, "quadric-space-dimension")
def test_criterion_07_quadric_space_dimension():
    worst = 50
    for n in (3, 4, 5, 6):
        stream = as_stream(7000 + n)
        expected = (n - 1) * (n - 2) // 2
        matches = sum(
            1
            for t in range(50)
            if len(quadrics_through(random_binary_curve(n, FP, stream.child(f"trial{t}"))))
            == expected
        )
        worst = min(worst, matches)
        if matches < 48:  # ceil(0.95 * 50)
            return False, f"n={n}: {matches}/50"
    return True, f"worst case {worst}/50"


@criterion(8, "containment-search")
def test_criterion_08_containment_search():
    start = time.perf_counter()
    none_found = 0
    for i in range(50):
        curve = random_binary_curve(4, QQ, 9000 + i)
        verdict = scroll_containment_witness(curve, 20, 500 + i)
        if verdict.verdict == "NONE_FOUND" and not verdict.anomalies:
            none_found += 1
    control = scroll_containment_witness(scroll_positive_control(3, QQ), 20, 77)
    elapsed = time.perf_counter() - start
    if elapsed >= 300.0:
        return False, f"took {elapsed:.0f}s, budget 300s"
    ok = none_found == 50 and control.verdict == "WITNESS"
    return ok, f"{none_found}/50 none-found, control {control.verdict}, {elapsed:.1f}s"


@criterion(9, "hyperelliptic-criterion")
def test_criterion_09_hyperelliptic_criterion():
    stream = as_stream(9000)
    false_count = sum(
        1
        for t in range(200)
        if not hyperelliptic_test(random_binary_curve(3 + t % 6, FP, stream.child(f"trial{t}")))
    )
    true_count = sum(
        1
        for t in range(50)
        if hyperelliptic_from_nodes(random_mobius_node_pairs(3 + t % 6, FP, stream.child(f"mob{t}")), FP)
    )
    ok = false_count >= 198 and true_count == 50  # ceil(0.99 * 200) = 198
    return ok, f"{false_count}/200 false, {true_count}/50 true"


_CLI_BATTERY = (
    ("dims", "--n", "4"),
    ("rnc", "--n", "3", "--trials", "2", "--seed", "5"),
    ("unisecant", "--a", "1,2", "--trials", "2", "--seed", "1"),
    ("incidence", "--a", "1,2", "--k", "1", "--trials", "2", "--seed", "1", "--field", "fp:10007"),
    ("degenerate", "--a", "1,1,2", "--seed", "0"),
    ("gonality", "--n", "4", "--trials", "2", "--seed", "7"),
    ("hyperelliptic", "--n", "4", "--trials", "2", "--seed", "2"),
    ("quadrics", "--n", "4", "--trials", "2", "--seed", "4"),
    ("containment", "--n", "5", "--trials", "2", "--seed", "13", "--field", "fp:10007"),
    ("project", "--n", "5", "--node", "6", "--seed", "3"),
)


@criterion(10, "cli-determinism")
def test_criterion_10_cli_determinism(capsys):
    compared = 0
    for argv in _CLI_BATTERY:
        for fmt in ("json", "csv", "text"):
            full = list(argv) + ["--format", fmt]
            assert main(full) == 0
            first = capsys.readouterr().out
            assert main(full) == 0
            second = capsys.readouterr().out
            if normalize_for_comparison(first, fmt) != normalize_for_comparison(second, fmt):
                return False, f"{' '.join(full)} not reproducible"
            compared += 1
    return True, f"{compared} command/format pairs byte-identical"
