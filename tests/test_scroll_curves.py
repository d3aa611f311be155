"""Curves in scrolls: pushforwards, interpolation, incidence, degeneration."""

import json
from collections import Counter
from operator import mul

import pytest

from scrollgeom import scroll_curves
from scrollgeom.cli import main
from scrollgeom.errors import DependentConditionsError, FieldMismatchError, InternalCheckError
from scrollgeom.fields import QQ, PrimeField, random_distinct, random_nonzero
from scrollgeom.forms import BinaryForm, random_form
from scrollgeom.linalg import rank_kernel, rank_of
from scrollgeom.rngstream import RngStream
from scrollgeom.scroll_curves import (
    CurveInScroll,
    ScrollSection,
    _gauge_cleared_ranks,
    _jacobian_blocks,
    compose_section_with_embedding,
    degeneration_embeddings,
    degeneration_equivalence_check,
    degeneration_member,
    incidence_dimension_estimate,
    interpolate_unisecant,
    monomial_slots,
    push_forward,
    random_curve_in_scroll,
    random_lifted_frame,
    section_on_curve,
    sections_through_points,
    verify_degeneration_embeddings,
)
from scrollgeom.scrolls import ScrollType

from helpers import (
    count_fp_arithmetic,
    oracle_coefficient_jacobian,
    oracle_form_value,
    oracle_hyperplane_rows,
    oracle_incidence_ranks,
    oracle_point_at,
    oracle_rank,
    oracle_unisecant,
)

S0 = BinaryForm(1, (QQ(1), QQ(0)), QQ)
S1 = BinaryForm(1, (QQ(0), QQ(1)), QQ)


def qform(*coeffs):
    return BinaryForm(len(coeffs) - 1, tuple(QQ(c) for c in coeffs), QQ)


def _proportional(p, q):
    n = len(p)
    assert len(q) == n
    for i in range(n):
        for j in range(i + 1, n):
            if p[i] * q[j] != p[j] * q[i]:
                return False
    return any(p) and any(q)


def _fiber_coeffs(curve):
    out = []
    for y in curve.ys:
        out.extend(y.coeffs)
    return tuple(out)


# ----------------------------------------------------------- coordinates


def test_monomial_slots_frozen():
    assert monomial_slots(ScrollType((1, 2))) == (
        (0, 1, 0),
        (0, 0, 1),
        (1, 2, 0),
        (1, 1, 1),
        (1, 0, 2),
    )
    assert monomial_slots(ScrollType((0, 3))) == (
        (0, 0, 0),
        (1, 3, 0),
        (1, 2, 1),
        (1, 1, 2),
        (1, 0, 3),
    )


# ------------------------------------------------------- curve validation


def test_curve_constructor_accepts_twisted_cubic_data():
    curve = CurveInScroll(ScrollType((1, 1)), 1, S0, S1, (qform(1, 0, 0), qform(0, 0, 1)))
    assert curve.k == 1
    assert curve.field is QQ
    y, t = oracle_point_at(curve, QQ(2), QQ(1))
    assert t == (QQ(2), QQ(1))
    assert y == (QQ(4), QQ(1))


def test_curve_constructor_rejections():
    sc = ScrollType((1, 1))
    good = (qform(1, 0, 0), qform(0, 0, 1))
    with pytest.raises(ValueError):
        CurveInScroll(sc, 0, S0, S1, good)
    with pytest.raises(ValueError):
        CurveInScroll(sc, 3, S0, S1, good)
    with pytest.raises(ValueError):
        CurveInScroll(sc, 1, qform(1, 0, 0), S1, good)
    with pytest.raises(ValueError):
        CurveInScroll(sc, 1, BinaryForm.zero(1, QQ), BinaryForm.zero(1, QQ), good)
    with pytest.raises(ValueError):
        CurveInScroll(sc, 1, S0, S1, (qform(1, 0, 0),))
    with pytest.raises(ValueError):
        CurveInScroll(sc, 1, S0, S1, (qform(1, 0), qform(0, 0, 1)))
    with pytest.raises(ValueError):
        CurveInScroll(sc, 1, S0, S1, (BinaryForm.zero(2, QQ), BinaryForm.zero(2, QQ)))
    # base forms sharing a factor misrepresent the fiber degree
    with pytest.raises(ValueError):
        CurveInScroll(sc, 2, qform(1, 0, 0), qform(0, 1, 0), (qform(1, 0), qform(0, 1)))
    # fiber forms sharing a zero miss the fiber point there
    with pytest.raises(ValueError):
        CurveInScroll(sc, 1, S0, S1, (qform(1, 0, 0), qform(0, 1, 0)))
    # a negative prescribed degree means the class has no curves at all
    with pytest.raises(ValueError):
        CurveInScroll(
            ScrollType((1, 3)), 2, qform(1, 0, 0), qform(0, 0, 1),
            (qform(1, 0, 0, 0), BinaryForm.zero(0, QQ)),
        )


@pytest.mark.parametrize("field", [QQ, PrimeField(101)], ids=["q", "fp:101"])
def test_linear_base_forms_are_coprime_by_their_determinant(field):
    sc = ScrollType((1, 1))
    ys = (BinaryForm(2, (1, 0, 0), field), BinaryForm(2, (0, 0, 1), field))

    def lin(a, b):
        return BinaryForm(1, (a, b), field)

    CurveInScroll(sc, 1, lin(3, 5), lin(1, 2), ys)
    # 3*69 - 5 = 202 is 0 mod 101: proportional over fp:101 only
    if field == QQ:
        CurveInScroll(sc, 1, lin(3, 5), lin(1, 69), ys)
    else:
        with pytest.raises(ValueError, match="coprime"):
            CurveInScroll(sc, 1, lin(3, 5), lin(1, 69), ys)
    for t0, t1 in ((lin(3, 5), lin(6, 10)), (lin(0, 0), lin(1, 2)), (lin(0, 7), lin(0, 0))):
        with pytest.raises(ValueError, match="coprime"):
            CurveInScroll(sc, 1, t0, t1, ys)


def test_linear_base_forms_of_two_fields_do_not_mix():
    sc = ScrollType((1, 1))
    ys = (qform(1, 0, 0), qform(0, 0, 1))
    with pytest.raises(FieldMismatchError):
        CurveInScroll(sc, 1, S0, BinaryForm(1, (0, 1), PrimeField(101)), ys)


def test_curve_immutable():
    curve = CurveInScroll(ScrollType((1, 1)), 1, S0, S1, (qform(1, 0, 0), qform(0, 0, 1)))
    with pytest.raises(AttributeError):
        curve.k = 2


# ------------------------------------------------------------ pushforward


def test_push_forward_twisted_cubic_frozen():
    curve = CurveInScroll(ScrollType((1, 1)), 1, S0, S1, (qform(1, 0, 0), qform(0, 0, 1)))
    pushed = push_forward(curve)
    coeffs = [f.coeffs for f in pushed.forms]
    assert coeffs == [
        (QQ(1), QQ(0), QQ(0), QQ(0)),
        (QQ(0), QQ(1), QQ(0), QQ(0)),
        (QQ(0), QQ(0), QQ(1), QQ(0)),
        (QQ(0), QQ(0), QQ(0), QQ(1)),
    ]
    assert pushed.rank == 4
    assert not pushed.degenerate
    assert pushed.slots == monomial_slots(curve.scroll)


def test_push_forward_detects_hyperplane_degeneration():
    # fibers built to satisfy s0*y0 + s1*y1 + (s0+s1)*y2 = 0
    scroll = ScrollType((1, 1, 1))
    y2 = qform(1, 0, 0, 0, 1)
    r = qform(1, 0, 0, 0)
    y0 = (-y2) + S1 * r
    y1 = (-y2) - S0 * r
    curve = CurveInScroll(scroll, 1, S0, S1, (y0, y1, y2))
    relation = S0 * y0 + S1 * y1 + (S0 + S1) * y2
    assert relation.is_zero()
    pushed = push_forward(curve)
    assert pushed.degenerate
    assert pushed.rank == 5


def test_push_forward_random_curves_nondegenerate():
    field = PrimeField(10007)
    for degrees, k in (((1, 2), 1), ((1, 2), 2), ((1, 1, 2), 1), ((2, 2), 2)):
        scroll = ScrollType(degrees)
        curve = random_curve_in_scroll(scroll, k, field, RngStream.from_seed(60 + k))
        pushed = push_forward(curve)
        assert all(f.degree == scroll.n for f in pushed.forms)
        assert pushed.rank == scroll.n + 1
        assert not pushed.degenerate


def test_random_curve_in_scroll_determinism_and_validation():
    scroll = ScrollType((1, 2))
    one = random_curve_in_scroll(scroll, 1, QQ, RngStream.from_seed(3))
    two = random_curve_in_scroll(scroll, 1, QQ, RngStream.from_seed(3))
    assert _fiber_coeffs(one) == _fiber_coeffs(two)
    with pytest.raises(ValueError):
        random_curve_in_scroll(ScrollType((1, 3)), 2, QQ, RngStream.from_seed(1))


# --------------------------------------------------------------- sections


def test_scroll_section_validation():
    with pytest.raises(ValueError):
        ScrollSection((1, 2), 0, (qform(1, 0),))
    with pytest.raises(ValueError):
        ScrollSection((1, 2), 0, (qform(1, 0), qform(1, 0)))
    with pytest.raises(ValueError):
        ScrollSection((1, -2), 0, (qform(1, 0), qform(1, 0, 0)))
    # raw unsorted degree tuples are allowed (degeneration scrolls need them)
    sec = ScrollSection((0, 2, 1), 0, (qform(1), qform(0, 0, 1), qform(1, 0)))
    assert sec.degrees == (0, 2, 1)
    assert not sec.is_zero()


def test_scroll_section_equality():
    a = ScrollSection((1, 2), 0, (qform(1, 0), qform(0, 0, 1)))
    b = ScrollSection((1, 2), 0, (qform(1, 0), qform(0, 0, 1)))
    c = ScrollSection((1, 2), 0, (qform(1, 0), qform(0, 1, 0)))
    assert a == b and hash(a) == hash(b)
    assert a != c


def test_section_on_curve_degree_and_mismatch():
    scroll = ScrollType((1, 2))
    curve = random_curve_in_scroll(scroll, 1, QQ, RngStream.from_seed(8))
    sec = ScrollSection((1, 2), 1, (qform(1, 0, 0), qform(0, 0, 0, 1)))
    pulled = section_on_curve(sec, curve)
    assert pulled.degree == curve.k * 1 + scroll.n
    other = ScrollSection((1, 1), 0, (qform(1, 0), qform(0, 1)))
    with pytest.raises(ValueError):
        section_on_curve(other, curve)


def test_sections_through_no_points_give_full_system():
    # h^0(L + M) on F(1,2) is (1+2) + (2+2) = 7
    secs = sections_through_points(ScrollType((1, 2)), 1, [], QQ)
    assert len(secs) == 7
    assert all(s.m == 1 for s in secs)


def test_sections_vanish_at_their_points():
    scroll = ScrollType((1, 1, 2))
    for field in (QQ, PrimeField(10007)):
        frame = random_lifted_frame(scroll, field, RngStream.from_seed(13))
        secs = sections_through_points(scroll, 1, frame, field)
        assert len(secs) >= 1
        for sec in secs:
            assert sec.field == field
            for y, t in frame:
                # the section's value sum_i comp_i(t) * y_i at the point (y, t)
                assert sum(comp.evaluate(*t) * y_i for comp, y_i in zip(sec.comps, y)) == 0


@pytest.mark.parametrize("field", [QQ, PrimeField(10007)], ids=["q", "fp10007"])
def test_hyperplane_conditions_are_the_slot_rows(field, monkeypatch):
    # a hyperplane is a section of L, so the solve builds section rows at
    # m = 0 and ranks their transpose, one column per marked point
    systems = []

    def capture(*args):
        systems.append(args)
        return rank_kernel(*args)

    monkeypatch.setattr(scroll_curves, "rank_kernel", capture)
    for degrees, seed in (((1, 2), 21), ((1, 1, 2), 22), ((0, 3), 23), ((2, 3, 3), 24)):
        scroll = ScrollType(degrees)
        frame = random_lifted_frame(scroll, field, RngStream.from_seed(seed))
        systems.clear()
        interpolate_unisecant(scroll, frame, field)
        ((rows, ncols, _),) = systems
        assert ncols == scroll.n + 2
        oracle = oracle_hyperplane_rows(scroll, frame, field)
        assert [list(row) for row in rows] == [list(col) for col in zip(*oracle)]
        if field != QQ:
            assert all(type(x) is int and 0 <= x < field.p for row in rows for x in row)


# ------------------------------------------------------------ lifted frames


def test_random_lifted_frame_shape():
    scroll = ScrollType((1, 2))
    frame = random_lifted_frame(scroll, QQ, RngStream.from_seed(2))
    assert len(frame) == scroll.n + 2
    ts = [t[0] / t[1] for (_, t) in frame]
    assert len(set(ts)) == len(ts)
    assert all(any(y) for (y, _) in frame)


# ------------------------------------------------------------ interpolation


def test_interpolation_recovers_a_known_curve():
    # identity base map, matching the normalization the solver applies
    scroll = ScrollType((1, 2))
    curve = CurveInScroll(scroll, 1, S0, S1, (qform(1, 2, 0, 3), qform(1, 0, 1)))
    taus = [QQ(x) for x in (2, 3, 5, 7, 11, 13)]
    points = [oracle_point_at(curve, t, QQ(1)) for t in taus]
    result = interpolate_unisecant(scroll, points, QQ)
    assert result.status == "UNIQUE"
    assert result.kernel_dim == 1
    assert _proportional(_fiber_coeffs(result.curve), _fiber_coeffs(curve))


def test_interpolation_unique_on_random_frames():
    for degrees, seed in (((1, 2), 21), ((1, 1, 2), 22), ((2, 2), 23)):
        scroll = ScrollType(degrees)
        frame = random_lifted_frame(scroll, QQ, RngStream.from_seed(seed))
        result = interpolate_unisecant(scroll, frame, QQ)
        assert result.status == "UNIQUE"
        assert result.kernel_dim == 1
        for (y, t) in frame:
            fiber, _ = oracle_point_at(result.curve, t[0], t[1])
            assert _proportional(fiber, y)


def test_interpolation_over_prime_field():
    field = PrimeField(10007)
    scroll = ScrollType((1, 1, 2))
    frame = random_lifted_frame(scroll, field, RngStream.from_seed(25))
    result = interpolate_unisecant(scroll, frame, field)
    assert result.status == "UNIQUE"


def test_prime_field_interpolation_does_no_fp_element_arithmetic(monkeypatch):
    field = PrimeField(10007)
    scroll = ScrollType((2, 3, 3))
    frame = random_lifted_frame(scroll, field, RngStream.from_seed(26))
    calls = count_fp_arithmetic(monkeypatch)
    result = interpolate_unisecant(scroll, frame, field)
    assert not calls
    # the counters do see FpElement arithmetic
    _ = field.one + field.one
    assert calls["__add__"] == 1
    monkeypatch.undo()
    assert result.status == "UNIQUE"
    for (y, t) in frame:
        fiber, _ = oracle_point_at(result.curve, t[0], t[1])
        assert _proportional(fiber, y)


def test_hyperplane_sections_through_frame_vanish_on_interpolant():
    for degrees, seed, expect in (((1, 2), 21, 1), ((1, 1, 2), 22, 2)):
        scroll = ScrollType(degrees)
        frame = random_lifted_frame(scroll, QQ, RngStream.from_seed(seed))
        curve = interpolate_unisecant(scroll, frame, QQ).curve
        secs = sections_through_points(scroll, 1, frame, QQ)
        assert len(secs) == expect
        for sec in secs:
            assert section_on_curve(sec, curve).is_zero()


def test_interpolation_single_block_scroll():
    # d = 1: no cross-multiplication rows, the curve is forced
    scroll = ScrollType((2,))
    points = [((QQ(c),), (QQ(t), QQ(1))) for c, t in ((1, 0), (2, 1), (3, 2), (5, 3))]
    result = interpolate_unisecant(scroll, points, QQ)
    assert result.status == "UNIQUE"
    assert result.kernel_dim == 1
    assert result.curve.ys[0].degree == 0


def test_interpolation_point_validation():
    scroll = ScrollType((1, 2))
    frame = random_lifted_frame(scroll, QQ, RngStream.from_seed(21))
    with pytest.raises(ValueError):
        interpolate_unisecant(scroll, frame[:-1], QQ)
    bad_base = list(frame)
    bad_base[0] = (bad_base[0][0], (QQ(0), QQ(0)))
    with pytest.raises(ValueError):
        interpolate_unisecant(scroll, bad_base, QQ)
    bad_fiber = list(frame)
    bad_fiber[0] = ((QQ(0), QQ(0)), bad_fiber[0][1])
    with pytest.raises(ValueError):
        interpolate_unisecant(scroll, bad_fiber, QQ)


def test_interpolation_dependent_conditions():
    # constant fiber direction spans only the first block's coordinates
    points = [((QQ(1), QQ(0)), (QQ(t), QQ(1))) for t in (0, 1, 2, 3, 4, 5)]
    with pytest.raises(DependentConditionsError):
        interpolate_unisecant(ScrollType((1, 2)), points, QQ)


def test_interpolation_repeated_base_value_gives_none():
    scroll = ScrollType((1, 2))
    curve = random_curve_in_scroll(scroll, 1, QQ, RngStream.from_seed(5))
    ts = [QQ(x) for x in (2, 2, 3, 4, 5, 6)]
    points = [oracle_point_at(curve, t, QQ(1)) for t in ts]
    y0, t0 = points[1]
    # move the duplicated-parameter point off the curve
    points[1] = ((y0[0] + QQ(1), y0[1] + QQ(7)), t0)
    result = interpolate_unisecant(scroll, points, QQ)
    assert result.status == "NONE"
    assert result.curve is None
    assert result.kernel_dim == 0


def test_two_interpolants_force_dependent_conditions():
    """Two unisecants through n+2 points make dim ker H^T >= 2, so rank H < n+1."""
    scroll = ScrollType((1, 1, 2))
    taus = [QQ(x) for x in (2, 3, 4, 5, 6, 7, 8, 9)]
    direction = (qform(1, 0, 0, 1), qform(0, 1, 0, 2), qform(1, 1, 1))
    y_degs = [5, 5, 4]
    offsets = [0, 6, 12]
    rows = []
    for tau in taus[2:]:
        uv = [f.evaluate(tau, QQ(1)) for f in direction]
        mono = [[tau ** (deg - r) for r in range(deg + 1)] for deg in y_degs]
        for (i, l) in ((0, 1), (0, 2)):
            row = [QQ(0)] * 17
            for r, v in enumerate(mono[i]):
                row[offsets[i] + r] = v * uv[l]
            for r, v in enumerate(mono[l]):
                row[offsets[l] + r] = row[offsets[l] + r] - v * uv[i]
            rows.append(row)
    _, kernel = rank_kernel(rows, 17, QQ)
    assert len(kernel) >= 2
    vec = [QQ(0)] * 17
    for kv in kernel:
        for idx in range(17):
            vec[idx] = vec[idx] + kv[idx]
    ys = [
        BinaryForm(deg, vec[offsets[i] : offsets[i] + deg + 1], QQ)
        for i, deg in enumerate(y_degs)
    ]
    curve = CurveInScroll(scroll, 1, S0, S1, ys)
    points = [oracle_point_at(curve, tau, QQ(1)) for tau in taus]
    assert all(any(y) for (y, _) in points)
    with pytest.raises(DependentConditionsError):
        interpolate_unisecant(scroll, points, QQ)


# scroll types of n = 3..10 for the comparison with the cross-multiplication solve
SWEEP_SCROLLS = ((3,), (1, 2), (0, 3), (0, 0, 2), (2, 2), (1, 3), (1, 1, 1), (0, 1, 2),
                 (1, 1, 2), (1, 1, 1, 1), (2, 3, 3))
SWEEP_FIELDS = [QQ, PrimeField(10007), PrimeField(101), PrimeField(13), PrimeField(7),
                PrimeField(5)]
SWEEP_IDS = ["q", "fp10007", "fp101", "fp13", "fp7", "fp5"]


def _random_frame(scroll, field, rng):
    """n+2 random scroll points; base values may repeat or lie at (1 : 0)."""
    points = []
    while len(points) < scroll.n + 2:
        t = (field.random_scalar(rng), field.random_scalar(rng))
        y = tuple(field.random_scalar(rng) for _ in range(scroll.d))
        if any(t) and any(y):
            points.append((y, t))
    return points


def _assert_matches_cross_multiplication(scroll, points, field):
    """(status, curve) after checking both against the cross-multiplication solve."""
    status, kernel_dim, ys = oracle_unisecant(scroll, points, field)
    try:
        result = interpolate_unisecant(scroll, points, field)
    except DependentConditionsError:
        assert status == "DEPENDENT"
        return status, None
    assert (result.status, result.kernel_dim) == (status, kernel_dim)
    if status == "UNIQUE":
        assert _proportional(_fiber_coeffs(result.curve), [c for f in ys for c in f.coeffs])
    return status, result.curve


@pytest.mark.parametrize("field", SWEEP_FIELDS, ids=SWEEP_IDS)
def test_unisecant_matches_cross_multiplication(field):
    seen = Counter()
    for degrees in SWEEP_SCROLLS:
        scroll = ScrollType(degrees)
        for seed in range(60):
            rng = RngStream.from_seed(seed).child(f"unisecant{degrees}")
            status, _ = _assert_matches_cross_multiplication(
                scroll, _random_frame(scroll, field, rng), field)
            seen[status] += 1
    assert seen["UNIQUE"] > 0
    if field.name in ("fp:13", "fp:7", "fp:5"):
        assert seen["NONE"] > 0 and seen["DEPENDENT"] > 0


def _special_frames(curve, field, rng):
    """Frames on the curve with special base points, and two with a repeated one."""
    n = curve.scroll.n
    taus = [field(x) for x in range(1, n + 3)]
    frames = {
        "infinity": [(1, 0)] + [(tau, 1) for tau in taus[:n + 1]],
        "zero and infinity": [(0, 1), (1, 0)] + [(tau, 1) for tau in taus[:n]],
        "scaled representatives": [(s * tau, s) for tau, s in
                                   zip(taus, (random_nonzero(field, rng) for _ in taus))],
        "repeated": [(taus[0], 1)] + [(tau, 1) for tau in taus[:n + 1]],
    }
    if field == QQ:
        frames["fractions"] = [(QQ(j, j + 2), QQ(3, j + 1)) for j in range(n + 2)]
    out = {name: [oracle_point_at(curve, field(t0), field(t1)) for (t0, t1) in bases]
           for name, bases in frames.items()}
    # the repeated base value with a fiber off the curve, where one exists
    moved = list(out["repeated"])
    y, t = moved[1]
    for _ in range(100):
        other = tuple(field.random_scalar(rng) for _ in y)
        if any(other) and not _proportional(other, y):
            moved[1] = (other, t)
            out["repeated off the curve"] = moved
            break
    return out


@pytest.mark.parametrize("field", SWEEP_FIELDS, ids=SWEEP_IDS)
def test_unisecant_matches_cross_multiplication_on_special_frames(field):
    seen = Counter()
    for degrees in SWEEP_SCROLLS:
        scroll = ScrollType(degrees)
        for seed in range(3):
            rng = RngStream.from_seed(seed).child(f"special{degrees}")
            while True:
                ys = [random_form(scroll.n - a_i, field, rng) for a_i in degrees]
                try:
                    curve = CurveInScroll(scroll, 1, BinaryForm(1, (1, 0), field),
                                          BinaryForm(1, (0, 1), field), ys)
                    break
                except ValueError:
                    continue
            for name, points in _special_frames(curve, field, rng).items():
                status, found = _assert_matches_cross_multiplication(scroll, points, field)
                seen[name, status] += 1
                if status == "UNIQUE":
                    assert _proportional(_fiber_coeffs(found), _fiber_coeffs(curve))
    if field in (QQ, PrimeField(10007)):
        assert seen["infinity", "UNIQUE"] == seen["zero and infinity", "UNIQUE"] == 33
        assert seen["scaled representatives", "UNIQUE"] == 33
        assert seen["repeated", "UNIQUE"] == 0
    if field == QQ:
        assert seen["fractions", "UNIQUE"] == 33


@pytest.mark.parametrize("field", [QQ, PrimeField(10007), PrimeField(101)],
                         ids=["q", "fp10007", "fp101"])
def test_unisecant_relation_is_the_signed_maximal_minors(field, monkeypatch):
    # Cramer's rule: the kernel of the (n+1) x (n+2) matrix H^T of rank n+1
    # is spanned by nu_j = (-1)^j * det(H without row j)
    sympy = pytest.importorskip("sympy")
    kernels = []

    def capture(*args):
        out = rank_kernel(*args)
        kernels.append(out[1])
        return out

    monkeypatch.setattr(scroll_curves, "rank_kernel", capture)
    for degrees in SWEEP_SCROLLS:
        scroll = ScrollType(degrees)
        if scroll.n > 8:
            continue
        for seed in range(4):
            frame = random_lifted_frame(scroll, field, RngStream.from_seed(seed))
            kernels.clear()
            interpolate_unisecant(scroll, frame, field)
            ((nu,),) = kernels
            rows = [[getattr(x, "val", x) for x in row]
                    for row in oracle_hyperplane_rows(scroll, frame, field)]
            minors = [(-1) ** j * int(sympy.Matrix(rows[:j] + rows[j + 1:]).det())
                      for j in range(scroll.n + 2)]
            assert _proportional(nu, [field(m) for m in minors])


@pytest.mark.parametrize("field", [QQ, PrimeField(10007)], ids=["q", "fp10007"])
def test_unisecant_checks_every_marked_point(field, monkeypatch):
    # a relation that is off by one in one entry interpolates fiber values
    # that miss the marked points beyond the interpolation nodes
    def wrong_relation(rows, ncols, field):
        rank, ((first, *rest),) = rank_kernel(rows, ncols, field)
        return rank, [(first + 1, *rest)]

    monkeypatch.setattr(scroll_curves, "rank_kernel", wrong_relation)
    scroll = ScrollType((1, 1, 2))
    frame = random_lifted_frame(scroll, field, RngStream.from_seed(22))
    with pytest.raises(InternalCheckError):
        interpolate_unisecant(scroll, frame, field)


def test_unisecant_cli_ranks_one_transposed_system_per_trial(monkeypatch, capsys):
    shapes, rank_calls = [], []

    def counted_kernel(rows, ncols, field):
        shapes.append((len(rows), ncols))
        return rank_kernel(rows, ncols, field)

    def counted_rank(*args):
        rank_calls.append(args)
        return rank_of(*args)

    monkeypatch.setattr(scroll_curves, "rank_kernel", counted_kernel)
    monkeypatch.setattr(scroll_curves, "rank_of", counted_rank)
    for seed in range(5):
        shapes.clear()
        argv = ["unisecant", "--a", "2,3,3", "--field", "q", "--trials", "4",
                "--seed", str(seed), "--format", "json"]
        assert main(argv) == 0
        counts = json.loads(capsys.readouterr().out)["result"]["counts"]
        assert counts == {"UNIQUE": 4, "NONE": 0, "POSITIVE_FAMILY": 0, "ANOMALY": 0}
        assert shapes == [(11, 12)] * 4
    assert not rank_calls


# ---------------------------------------------------- incidence dimensions


def test_incidence_estimate_matches_formula():
    for k, predicted in ((1, 6), (2, 5)):
        report = incidence_dimension_estimate(ScrollType((1, 2)), k, 2, 1, PrimeField(10007))
        assert report.predicted == predicted
        assert report.measured_ranks == [predicted, predicted]
        assert report.fiber_dims == [5, 5]
        assert report.group_correction == {"reparametrization": 3, "torus": 2}


def test_incidence_estimate_three_blocks():
    report = incidence_dimension_estimate(ScrollType((1, 1, 2)), 3, 1, 4, PrimeField(10007))
    assert report.predicted == 12
    assert report.measured_ranks == [12]
    assert report.fiber_dims == [5]


def test_incidence_estimate_validation():
    with pytest.raises(ValueError):
        incidence_dimension_estimate(ScrollType((2, 3)), 3, 5, 1, PrimeField(10007))
    with pytest.raises(ValueError):
        incidence_dimension_estimate(ScrollType((1, 2)), 1, 0, 1, PrimeField(10007))


def test_incidence_report_dict_layout():
    report = incidence_dimension_estimate(ScrollType((1, 2)), 1, 1, 9, PrimeField(10007))
    data = report._asdict()
    assert list(data) == [
        "family",
        "params",
        "predicted",
        "measured_ranks",
        "group_correction",
        "seed",
        "field",
        "fiber_dims",
    ]
    assert data["params"] == {"n": 4, "d": 2, "a": [1, 2], "k": 1, "trials": 1}
    assert data["field"] == "fp:10007"


FIELDS = [PrimeField(101), PrimeField(10007), PrimeField(2**61 - 1), QQ]
FIELD_IDS = ["fp101", "fp10007", "fp2^61-1", "q"]
# fiber degree k per scroll type of the incidence tests
INCIDENCE_K = {(1, 1, 2): 2, (1, 2, 2): 2, (2, 3): 1}
# and of the held-row tests: a degree-0 first fiber holds the chart row at
# nearly every point, where the block keeps every slot; (5,) has d = 1
HELD_K = {**INCIDENCE_K, (0, 1, 2): 1, (0, 4): 1, (0, 0, 3): 1, (1, 1, 1, 1): 3, (5,): 1}


def _dense_blocks(blocks, n_coeffs, field):
    """Per block, the rows [J_c | J_s | gauge] that _jacobian_blocks holds."""
    n_pts = len(blocks)
    out = []
    for j, (vectors, rows, gauge) in enumerate(blocks):
        dense_rows = []
        for row, x in zip(rows, gauge):
            dense = [0] * (n_coeffs + 2 * n_pts)
            for a, (off, vals) in zip(row, vectors):
                for col, v in enumerate(vals, off):
                    dense[col] += a * v
            dense[n_coeffs + n_pts + j] = x
            dense_rows.append(field.reduce(dense))
        out.append(dense_rows)
    return out


def _curve_vanishing_at_zero(scroll, k, field, rng, n_forms):
    """A random curve whose first n_forms of (t0, y_1) vanish at (0 : 1)."""
    while True:
        curve = random_curve_in_scroll(scroll, k, field, rng)
        forms = [curve.t0, curve.t1, *curve.ys]
        for idx in (0, 2)[:n_forms]:
            f = forms[idx]
            forms[idx] = BinaryForm(f.degree, f.values[:-1] + (0,), field)
        try:
            return CurveInScroll(scroll, k, forms[0], forms[1], forms[2:])
        except ValueError:
            continue


def _incidence_samples(degrees, k, field, seed):
    """(curve, sigma) per trial; in trials 1 and 2 of every three a marked
    point sits at a zero of t0 (and, in trial 2, of y_1 when d > 1)."""
    scroll = ScrollType(degrees)
    n_pts = scroll.n + 2
    rng = RngStream.from_seed(seed)
    for trial in range(3 if field is QQ else 6):
        child = rng.child(f"trial{trial}")
        n_forms = min(trial % 3, scroll.d)
        if n_forms:
            curve = _curve_vanishing_at_zero(scroll, k, field, child, n_forms)
            others = random_distinct(field, child, n_pts - 1, exclude=(0,))
            sigma = [others[0], field(0), *others[1:]]
        else:
            curve = random_curve_in_scroll(scroll, k, field, child)
            sigma = random_distinct(field, child, n_pts)
        yield curve, sigma


def _held_slots(scroll, t0_value, y_values):
    """Slot indices of the rows _jacobian_blocks holds at a point, chart row first."""
    slots = monomial_slots(scroll)
    l0 = next(l for l, y in enumerate(y_values) if y)
    a0 = scroll.degrees[l0]
    if not a0:
        return list(range(len(slots)))
    # the slot t_e^a_l y_l of each fiber, e = 0 unless t0 vanishes
    power = [(l, a, 0) if t0_value else (l, 0, a) for l, a in enumerate(scroll.degrees)]
    held = [power[l0], (l0, a0 - 1, 1) if t0_value else (l0, 1, a0 - 1)]
    held += [slot for l, slot in enumerate(power) if l != l0]
    return [slots.index(slot) for slot in held]


def _charted(rows, col):
    """x0*row - x*row_i0 for every row but i0, the first with x0 = row_i0[col] != 0."""
    i0 = next(i for i, row in enumerate(rows) if row[col])
    lead, x0 = rows[i0], rows[i0][col]
    return [[x0 * u - row[col] * v for u, v in zip(row, lead)]
            for i, row in enumerate(rows) if i != i0]


@pytest.mark.parametrize("field", FIELDS, ids=FIELD_IDS)
@pytest.mark.parametrize("degrees", list(INCIDENCE_K))
def test_single_elimination_incidence_ranks(field, degrees):
    # the ranks from the affine charts against two naive RREFs of the full
    # field-element Jacobian [J_c | J_s | gauge]; a marked point at a zero
    # of t0 (and of y_1) moves the chart's row i0 past the first slot
    scroll = ScrollType(degrees)
    n_pts = scroll.n + 2
    slots = monomial_slots(scroll)
    first_rows, same_block, other_block = set(), 0, 0
    k = INCIDENCE_K[degrees]
    for curve, sigma in _incidence_samples(degrees, k, field, 700 + sum(degrees)):
        rows, n_coeffs = oracle_coefficient_jacobian(curve, sigma, field)
        blocks, _ = _jacobian_blocks(curve, field.unwrap(sigma), field)
        got = _gauge_cleared_ranks(blocks, n_coeffs, n_coeffs + n_pts, field)
        assert got == oracle_incidence_ranks(rows, n_coeffs, n_pts, field)
        for j in range(n_pts):
            gauge = [row[n_coeffs + n_pts + j] for row in rows[j * len(slots):(j + 1) * len(slots)]]
            i0 = next(i for i, x in enumerate(gauge) if x)
            first_rows.add(i0)
            same_block += sum(1 for i, slot in enumerate(slots) if i != i0 and slot[0] == slots[i0][0])
            other_block += sum(1 for slot in slots if slot[0] != slots[i0][0])
    assert max(first_rows) > 0 and same_block and other_block


@pytest.mark.parametrize("field", FIELDS, ids=FIELD_IDS)
@pytest.mark.parametrize("degrees, k", list(HELD_K.items()))
def test_coefficient_jacobian_matches_field_element_oracle(field, degrees, k):
    # each held row, entry for entry, against the oracle row of its slot
    scroll = ScrollType(degrees)
    n_slots = scroll.n + 1
    for curve, sigma in _incidence_samples(degrees, k, field, 900 + sum(degrees)):
        blocks, n_coeffs = _jacobian_blocks(curve, field.unwrap(sigma), field)
        want_rows, want_coeffs = oracle_coefficient_jacobian(curve, sigma, field)
        assert n_coeffs == want_coeffs
        for j, (s, held) in enumerate(zip(sigma, _dense_blocks(blocks, n_coeffs, field))):
            t0_value = oracle_form_value(curve.t0, s, field.one)
            y_values = [oracle_form_value(y, s, field.one) for y in curve.ys]
            want = [want_rows[j * n_slots + i] for i in _held_slots(scroll, t0_value, y_values)]
            assert held == want
        for vectors, _, gauge in blocks:
            columns = [col for off, vals in vectors for col in range(off, off + len(vals))]
            assert len(columns) == len(set(columns))  # disjoint supports
            if field is not QQ:
                values = gauge + [v for _, vals in vectors for v in vals]
                assert all(type(x) is int and 0 <= x < field.p for x in values)


@pytest.mark.parametrize("field", FIELDS, ids=FIELD_IDS)
@pytest.mark.parametrize("degrees, k", list(HELD_K.items()))
def test_held_rows_span_each_charted_block(field, degrees, k):
    # at every point the held rows, charted, have the rank of the point's
    # full charted block of oracle rows, and span it; that rank is d
    # whenever the block holds d + 1 rows, including at a zero of t0; and
    # the two incidence ranks are those of the full oracle Jacobian
    scroll = ScrollType(degrees)
    n_pts, n_slots, d = scroll.n + 2, scroll.n + 1, scroll.d
    kinds = Counter()
    for curve, sigma in _incidence_samples(degrees, k, field, 500 + sum(degrees)):
        blocks, n_coeffs = _jacobian_blocks(curve, field.unwrap(sigma), field)
        want_rows, _ = oracle_coefficient_jacobian(curve, sigma, field)
        got = _gauge_cleared_ranks(blocks, n_coeffs, n_coeffs + n_pts, field)
        assert got == oracle_incidence_ranks(want_rows, n_coeffs, n_pts, field)
        width = n_coeffs + 2 * n_pts
        for j, (s, rows) in enumerate(zip(sigma, _dense_blocks(blocks, n_coeffs, field))):
            col = n_coeffs + n_pts + j
            held = _charted(rows, col)
            full = _charted(want_rows[j * n_slots:(j + 1) * n_slots], col)
            rank = oracle_rank(held, width, field)
            assert rank == oracle_rank(full, width, field) == oracle_rank(held + full, width, field)
            if len(held) == d:
                assert rank == d
                kinds["picked", bool(oracle_form_value(curve.t0, s, field.one))] += 1
            else:
                assert len(held) == scroll.n
                kinds["all slots"] += 1
    if degrees[0]:
        assert kinds["picked", True] and kinds["picked", False] and not kinds["all slots"]
    else:
        # only the point where y_1 vanishes too moves the chart row on
        assert kinds["all slots"] and bool(kinds["picked", False]) == bool(degrees[1])


@pytest.mark.parametrize("field", FIELDS, ids=FIELD_IDS)
@pytest.mark.parametrize("degrees, k", list(HELD_K.items()))
def test_torus_directions_lie_in_every_charted_block_kernel(field, degrees, k):
    # lam (t, y_i) -> (lam*t, lam^-a_i*y_i) and mu y -> mu*y fix every
    # image point, so their tangent vectors on the curve coefficients
    # (t coefficients, -a_i*y_i coefficients) and (0, y coefficients) are
    # killed by every charted row, held by the package or built by the oracle
    scroll = ScrollType(degrees)
    n_pts, n_slots = scroll.n + 2, scroll.n + 1
    for curve, sigma in _incidence_samples(degrees, k, field, 300 + sum(degrees)):
        blocks, n_coeffs = _jacobian_blocks(curve, field.unwrap(sigma), field)
        want_rows, _ = oracle_coefficient_jacobian(curve, sigma, field)
        t_coeffs = [*curve.t0.values, *curve.t1.values]
        lam = t_coeffs + [-a * x for a, y in zip(scroll.degrees, curve.ys) for x in y.values]
        mu = [0] * len(t_coeffs) + [x for y in curve.ys for x in y.values]
        assert len(lam) == len(mu) == n_coeffs
        for j, held in enumerate(_dense_blocks(blocks, n_coeffs, field)):
            col = n_coeffs + n_pts + j
            full = want_rows[j * n_slots:(j + 1) * n_slots]
            charted = _charted(held, col) + [field.unwrap(r) for r in _charted(full, col)]
            for row in charted:
                assert field.reduce([sum(map(mul, row, lam)), sum(map(mul, row, mu))]) == [0, 0]


def test_single_elimination_ranks_on_random_blocks():
    # random block-local gauge columns, as in the incidence Jacobian: some
    # zero, some zero on their first rows, some in the span of their
    # block's columns; low-rank blocks make the prefix rank fall short
    rng = RngStream.from_seed(77)

    def draw(count):
        return field.unwrap([field.random_scalar(rng) for _ in range(count)])

    for trial in range(80):
        field = PrimeField(101) if trial % 2 else QQ
        p = getattr(field, "p", 0)
        ncols, n_blocks = rng.randint(1, 7), rng.randint(1, 4)
        n_prefix = rng.randint(0, ncols)
        units = [(c, [1]) for c in range(ncols)]
        blocks, dense = [], []
        for j in range(n_blocks):
            nrows, inner = rng.randint(1, 5), rng.randint(1, ncols)
            left, right = [draw(inner) for _ in range(nrows)], [draw(ncols) for _ in range(inner)]
            rows = [[sum(a * right[t][c] for t, a in enumerate(row)) for c in range(ncols)]
                    for row in left]
            kind = rng.randint(0, 3)
            if kind == 0:
                gauge = [0] * nrows
            elif kind == 1:
                gauge = [0] * (nrows - 1) + [1]
            elif kind == 2:
                mix = draw(ncols)
                gauge = [sum(map(mul, row, mix)) for row in rows]
            else:
                gauge = draw(nrows)
            gauge = field.reduce(gauge)
            # row scalars may come unreduced, the gauge may not
            blocks.append((units, [[x + p * rng.randint(0, 3) for x in row] for row in rows], gauge))
            for row, x in zip(rows, gauge):
                dense.append((row, [x if t == j else 0 for t in range(n_blocks)]))
        prefix = [row[:n_prefix] + g for row, g in dense]
        full = [row + g for row, g in dense]
        want = (oracle_rank(prefix, n_prefix + n_blocks, field),
                oracle_rank(full, ncols + n_blocks, field))
        assert _gauge_cleared_ranks(blocks, n_prefix, ncols, field) == want


# ------------------------------------------------------------ degeneration


def test_degeneration_member_frozen():
    member = degeneration_member((1, 2), QQ(1), field=QQ)
    assert member.degrees == (0, 2, 1)
    assert member.m == 0
    assert [c.coeffs for c in member.comps] == [
        (QQ(-1),),
        (QQ(0), QQ(0), QQ(-1)),
        (QQ(1), QQ(0)),
    ]


def test_degeneration_member_at_zero():
    member = degeneration_member((1, 2), QQ(0), field=QQ)
    assert [c.coeffs for c in member.comps] == [
        (QQ(0),),
        (QQ(0), QQ(0), QQ(-1)),
        (QQ(1), QQ(0)),
    ]


def test_degeneration_index_validation():
    with pytest.raises(ValueError):
        degeneration_member((2,), QQ(1), field=QQ)
    with pytest.raises(ValueError):
        degeneration_member((0, 0), QQ(1), field=QQ)
    # the donor skips leading zero blocks
    member = degeneration_member((0, 2), QQ(1), field=QQ)
    assert member.degrees == (0, 1, 1)


def test_degeneration_embeddings_structure():
    phi1, phi2 = degeneration_embeddings((1, 2), field=QQ)
    assert phi1.source_degrees == (1, 2)
    assert phi2.source_degrees == (0, 3)
    assert phi1.aux_degrees == phi2.aux_degrees == (0, 2, 1)
    with pytest.raises(TypeError):
        degeneration_embeddings((1, 2))


def test_degeneration_embeddings_verify():
    for degrees in ((1, 2), (2, 2), (1, 1, 2)):
        assert verify_degeneration_embeddings(degrees, field=QQ)
        assert verify_degeneration_embeddings(degrees, field=PrimeField(10007))


def test_compose_section_embedding_mismatch():
    phi1, _ = degeneration_embeddings((1, 2), field=QQ)
    sec = ScrollSection((1, 2), 0, (qform(1, 0), qform(0, 0, 1)))
    with pytest.raises(ValueError):
        compose_section_with_embedding(sec, phi1)


def test_degeneration_equivalence():
    assert degeneration_equivalence_check((1, 2), QQ(5), field=QQ)
    assert degeneration_equivalence_check((2, 2), QQ(-1), field=QQ)
    assert degeneration_equivalence_check((1, 1, 2), QQ(7), field=QQ)
    with pytest.raises(ValueError):
        degeneration_equivalence_check((1, 2), QQ(0), field=QQ)
