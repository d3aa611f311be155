"""Tests for frames, normalized rational curves, and quadric residuals."""

from fractions import Fraction

import pytest

from scrollgeom.errors import (
    CenterNotOnCurveError,
    DegenerateFrameError,
    InternalCheckError,
    NotThroughFrameError,
    ZeroQuadricError,
)
from scrollgeom.fields import QQ, PrimeField
from scrollgeom.forms import BinaryForm, linear_form, vanishing_at
from scrollgeom.rnc import (
    Frame,
    Quadric,
    StandardRNC,
    apply_transform,
    coefficient_rank,
    composite_on_curve,
    frame_transform,
    project_from_frame_point,
    random_frame,
    random_quadric_through_frame,
    random_rank4_quadric_through_frame,
    random_standard_rnc,
    residual_polynomial,
    rnc_finiteness_rank,
    rnc_residual_and_rank,
    standard_frame,
    _residual_pass,
)
from scrollgeom.rngstream import RngStream

from helpers import (
    oracle_jacobian_columns,
    oracle_residual,
    oracle_rref_mod,
    oracle_rref_q,
)


def _proportional(p, q):
    n = len(p)
    assert len(q) == n
    for i in range(n):
        for j in range(i + 1, n):
            if p[i] * q[j] != p[j] * q[i]:
                return False
    return any(p) and any(q)


# ---------------------------------------------------------------- frames


def test_standard_frame_shape():
    fr = standard_frame(3, QQ)
    assert fr.n == 3
    assert len(fr.points) == 5
    assert fr[0] == (QQ(1), QQ(0), QQ(0), QQ(0))
    assert fr[4] == (QQ(1), QQ(1), QQ(1), QQ(1))
    assert list(iter(fr)) == list(fr.points)


def test_frame_rejects_dependent_subset():
    # fourth point lies in the span of the first two
    pts = [(1, 0, 0), (0, 1, 0), (0, 0, 1), (1, 1, 0)]
    pts = [tuple(QQ(c) for c in p) for p in pts]
    with pytest.raises(DegenerateFrameError) as exc:
        Frame(pts, QQ)
    assert set(exc.value.subset) == {0, 1, 3}


def test_frame_rejects_low_span():
    pts = [(1, 0, 0), (0, 1, 0), (1, 1, 0), (1, -1, 0)]
    pts = [tuple(QQ(c) for c in p) for p in pts]
    with pytest.raises(DegenerateFrameError):
        Frame(pts, QQ)


def test_frame_rejects_bad_shapes():
    with pytest.raises(ValueError):
        Frame([(QQ(1), QQ(0)), (QQ(0), QQ(1))], QQ)
    with pytest.raises(ValueError):
        Frame([(QQ(1),), (QQ(1), QQ(0)), (QQ(0), QQ(1))], QQ)


def test_frame_immutable():
    fr = standard_frame(2, QQ)
    with pytest.raises(AttributeError):
        fr.n = 5


def test_frame_transform_fixes_standard_frame():
    fr = standard_frame(3, QQ)
    mat = frame_transform(fr, QQ)
    for i in range(4):
        for j in range(4):
            expected = QQ(1) if i == j else QQ(0)
            assert mat[i][j] == expected


def test_frame_transform_random_frames():
    field = PrimeField(10007)
    target = standard_frame(4, field)
    for t in range(5):
        rng = RngStream.from_seed(300 + t)
        fr = random_frame(4, field, rng)
        mat = frame_transform(fr, field)
        for j in range(6):
            image = apply_transform(mat, fr[j])
            assert _proportional(image, target[j])


def test_frame_transform_rational():
    rng = RngStream.from_seed(17)
    fr = random_frame(3, QQ, rng)
    mat = frame_transform(fr, QQ)
    target = standard_frame(3, QQ)
    for j in range(5):
        assert _proportional(apply_transform(mat, fr[j]), target[j])


# ---------------------------------------------------- normalized curves


def test_standard_rnc_node_values():
    curve = StandardRNC(3, (2, 3))
    assert curve.node_values == (QQ(0), QQ(1), QQ(2), QQ(3))
    assert curve.params == (QQ(2), QQ(3))
    assert curve.field is QQ


def test_standard_rnc_hits_frame_points():
    curve = StandardRNC(3, (2, 3))
    # parameter (1:0) lands on the all-ones point
    assert curve.evaluate(QQ(1), QQ(0)) == (QQ(1), QQ(1), QQ(1), QQ(1))
    # parameter (value_j:1) lands on coordinate point j
    for j, v in enumerate(curve.node_values):
        pt = curve.evaluate(v, QQ(1))
        unit = tuple(QQ(1) if i == j else QQ(0) for i in range(4))
        assert _proportional(pt, unit)


def test_standard_rnc_frozen_sample():
    curve = StandardRNC(3, (2, 3))
    assert curve.evaluate(QQ(1), QQ(1)) == (QQ(0), QQ(2), QQ(0), QQ(0))


def test_coordinate_forms_match_evaluate():
    curve = StandardRNC(4, (2, 3, 5))
    forms = curve.coordinate_forms()
    assert all(f.degree == 4 for f in forms)
    for s0, s1 in ((QQ(7), QQ(1)), (QQ(1), QQ(0)), (QQ(-2), QQ(3))):
        direct = curve.evaluate(s0, s1)
        via_forms = tuple(f.evaluate(s0, s1) for f in forms)
        assert direct == via_forms


def test_coordinate_forms_full_rank():
    for n, params in ((2, (5,)), (3, (2, 3)), (5, (2, 3, 4, 5))):
        curve = StandardRNC(n, params)
        assert coefficient_rank(curve.coordinate_forms()) == n + 1


def test_standard_rnc_rejections():
    with pytest.raises(ValueError):
        StandardRNC(1, ())
    with pytest.raises(ValueError):
        StandardRNC(3, (2,))
    # params may not repeat or collide with the fixed values 0 and 1
    with pytest.raises(ValueError):
        StandardRNC(3, (2, 2))
    with pytest.raises(ValueError):
        StandardRNC(3, (0, 2))
    with pytest.raises(ValueError):
        StandardRNC(3, (1, 2))


def test_standard_rnc_equality_and_immutability():
    a = StandardRNC(3, (2, 3))
    b = StandardRNC(3, (Fraction(2), Fraction(3)))
    assert a == b and hash(a) == hash(b)
    assert a != StandardRNC(3, (2, 5))
    with pytest.raises(AttributeError):
        a.n = 4


def test_random_standard_rnc_determinism():
    field = PrimeField(10007)
    one = random_standard_rnc(5, field, RngStream.from_seed(9))
    two = random_standard_rnc(5, field, RngStream.from_seed(9))
    assert one == two
    assert len(set(one.node_values)) == 6


# --------------------------------------------------------------- quadrics


def _hyperbolic_quadric():
    # x0*x3 - x1*x2, the rank-4 quadric through the standard frame in P^3
    return Quadric.from_monomials(3, {(0, 3): 1, (1, 2): -1}, QQ)


def test_quadric_from_monomials_gram():
    q = _hyperbolic_quadric()
    half = QQ(1, 2)
    assert q.gram[0][3] == half and q.gram[3][0] == half
    assert q.gram[1][2] == -half and q.gram[2][1] == -half
    assert q.gram[0][0] == QQ(0)
    assert q.n == 3


def test_quadric_evaluate():
    q = _hyperbolic_quadric()
    assert q.evaluate((QQ(1), QQ(2), QQ(3), QQ(6))) == QQ(0)
    assert q.evaluate((QQ(1), QQ(1), QQ(2), QQ(3))) == QQ(1)


def test_quadric_rank_and_frame_membership():
    q = _hyperbolic_quadric()
    assert q.rank() == 4
    assert q.is_through_standard_frame()
    assert not q.is_zero()
    assert q.frame_points_in_singular_locus() == []


def test_quadric_singular_locus_indices():
    # rank-4 quadric in P^4 leaves e_3 in its vertex
    q = Quadric.from_monomials(4, {(0, 4): 1, (1, 2): -1}, QQ)
    assert q.rank() == 4
    assert q.is_through_standard_frame()
    assert q.frame_points_in_singular_locus() == [3]
    kernel = q.singular_kernel()
    assert len(kernel) == 1
    assert _proportional(kernel[0], (QQ(0), QQ(0), QQ(0), QQ(1), QQ(0)))


def test_quadric_validation():
    with pytest.raises(ValueError):
        Quadric([[QQ(0), QQ(1)], [QQ(2), QQ(0)]])
    with pytest.raises(ValueError):
        Quadric([[QQ(0), QQ(1)]])


def test_quadric_not_through_frame_detection():
    diag = Quadric.from_monomials(2, {(0, 0): 1}, QQ)
    assert not diag.is_through_standard_frame()
    offsum = Quadric.from_monomials(2, {(0, 1): 1}, QQ)
    assert not offsum.is_through_standard_frame()


def test_random_quadric_through_frame_vanishes_on_frame():
    field = PrimeField(10007)
    fr = standard_frame(4, field)
    for t in range(5):
        q = random_quadric_through_frame(4, field, RngStream.from_seed(40 + t))
        assert q.is_through_standard_frame()
        for pt in fr:
            assert q.evaluate(pt) == field.zero


def test_random_rank4_quadric_properties():
    for n in (3, 4, 5):
        for field in (QQ, PrimeField(10007)):
            q = random_rank4_quadric_through_frame(
                n, field, RngStream.from_seed(11 * n)
            )
            assert q.rank() == 4
            assert q.is_through_standard_frame()
    with pytest.raises(ValueError):
        random_rank4_quadric_through_frame(2, QQ, RngStream.from_seed(1))


# -------------------------------------------------------------- residuals


def test_residual_frozen_case():
    q = _hyperbolic_quadric()
    curve = StandardRNC(3, (2, 3))
    res = residual_polynomial(q, curve)
    assert res.degree == 1
    assert res.coeffs == (QQ(0), QQ(2))


def test_residual_closed_form_on_hyperbolic_quadric():
    """Symbolic identity for the n=3 residual of x0*x3 - x1*x2.

    Every term of the composite contains each node-value linear factor at
    most once, so each residual coefficient is affine-linear in a2 and in
    a3 separately.  Agreement with the affine-linear candidate
    (a3 - 1 - a2) * s0 + a2 * s1 on a 2x2 grid of (a2, a3) values
    therefore proves the identity for all admissible parameters.
    """
    q = _hyperbolic_quadric()
    for a2 in (QQ(2), QQ(5)):
        for a3 in (QQ(3), QQ(7)):
            res = residual_polynomial(q, StandardRNC(3, (a2, a3)))
            expected = linear_form(a3 - QQ(1) - a2, a2)
            assert res == expected


def test_residual_divides_composite():
    # composite == residual * s1 * prod_j (s0 - v_j s1), both routes exact
    for n in (3, 4, 5, 6):
        for field in (QQ, PrimeField(10007)):
            rng = RngStream.from_seed(1000 + n)
            curve = random_standard_rnc(n, field, rng.child("curve"))
            q = random_quadric_through_frame(n, field, rng.child("quadric"))
            res = residual_polynomial(q, curve)
            assert res.degree == n - 2
            node_product = BinaryForm(0, (field.one,))
            for v in curve.node_values:
                node_product = node_product * vanishing_at(v)
            s1 = BinaryForm.monomial(1, 1, field.one)
            assert composite_on_curve(q, curve) == res * s1 * node_product


def test_residual_zero_iff_curve_on_quadric():
    q = _hyperbolic_quadric()
    curve = StandardRNC(3, (2, 3))
    assert not composite_on_curve(q, curve).is_zero()
    # the residual detects containment through the same product identity
    assert not residual_polynomial(q, curve).is_zero()


def test_residual_validation():
    curve = StandardRNC(3, (2, 3))
    zero = Quadric([[QQ(0)] * 4 for _ in range(4)])
    with pytest.raises(ZeroQuadricError):
        residual_polynomial(zero, curve)
    off_frame = Quadric.from_monomials(3, {(0, 0): 1}, QQ)
    with pytest.raises(NotThroughFrameError):
        residual_polynomial(off_frame, curve)
    small = Quadric.from_monomials(2, {(0, 1): 1, (0, 2): -1}, QQ)
    with pytest.raises(ValueError):
        residual_polynomial(small, StandardRNC(3, (2, 3)))


def test_finiteness_rank_frozen():
    q = _hyperbolic_quadric()
    assert rnc_finiteness_rank(q, StandardRNC(3, (2, 3))) == 2


def test_finiteness_rank_random_cases():
    field = PrimeField(10007)
    for n in (3, 4, 5):
        rng = RngStream.from_seed(500 + n)
        curve = random_standard_rnc(n, field, rng.child("curve"))
        q = random_rank4_quadric_through_frame(n, field, rng.child("quadric"))
        rank = rnc_finiteness_rank(q, curve)
        assert rank == n - 1


@pytest.mark.parametrize("field", [QQ, PrimeField(10007), PrimeField(101)], ids=str)
def test_residual_pass_matches_oracles(field):
    for n in range(3, 13):
        rng = RngStream.from_seed(700 + n)
        curve = random_standard_rnc(n, field, rng.child("curve"))
        q = random_quadric_through_frame(n, field, rng.child("quadric"))
        residual, partials = _residual_pass(q.gram, curve.node_values, field)
        assert residual == oracle_residual(q.gram, curve.node_values, field)
        columns = oracle_jacobian_columns(q.gram, curve.node_values, field)
        assert partials == columns
        rows = [list(row) for row in zip(*columns)]
        if field is QQ:
            rank = oracle_rref_q(rows, n - 1)[0]
        else:
            rank = oracle_rref_mod(rows, n - 1, field.p)[0]
        assert rnc_residual_and_rank(q, curve) == (residual, rank)
        assert residual_polynomial(q, curve) == residual
        assert rnc_finiteness_rank(q, curve) == rank


def _through_frame_gram(size, entries, field):
    # zero diagonal, and slot (0, 1) cancels the sum of the other entries
    gram = [[field.zero] * size for _ in range(size)]
    pairs = [(i, j) for i in range(size) for j in range(i + 1, size) if (i, j) != (0, 1)]
    for (i, j), x in zip(pairs, entries):
        gram[i][j] = gram[j][i] = field(x)
    fix = -sum((gram[i][j] for i, j in pairs), field.zero)
    gram[0][1] = gram[1][0] = fix
    return gram


def test_residual_pass_property():
    hypothesis = pytest.importorskip("hypothesis")
    st = hypothesis.strategies

    @hypothesis.settings(max_examples=60, deadline=None)
    @hypothesis.given(
        field=st.sampled_from([QQ, PrimeField(101)]),
        values=st.lists(st.integers(-50, 50), min_size=3, max_size=9, unique=True),
        entries=st.lists(st.integers(-9, 9), min_size=36, max_size=36),
    )
    def check(field, values, entries):
        values = [field(v) for v in values]
        gram = _through_frame_gram(len(values), entries, field)
        residual, partials = _residual_pass(gram, values, field)
        assert residual == oracle_residual(gram, values, field)
        assert partials == oracle_jacobian_columns(gram, values, field)

    check()


def test_residual_times_node_product_is_composite_sympy():
    sympy = pytest.importorskip("sympy")
    s0, s1 = sympy.symbols("s0 s1")
    for n in (3, 4, 5, 6):
        rng = RngStream.from_seed(900 + n)
        curve = random_standard_rnc(n, QQ, rng.child("curve"))
        q = random_quadric_through_frame(n, QQ, rng.child("quadric"))
        values = [sympy.Rational(v.numerator, v.denominator) for v in curve.node_values]
        linears = [s0 - v * s1 for v in values]
        coords = [sympy.Mul(*(l for k, l in enumerate(linears) if k != i)) for i in range(n + 1)]
        composite = sympy.expand(sum(
            sympy.Rational(g.numerator, g.denominator) * coords[i] * coords[j]
            for i, row in enumerate(q.gram) for j, g in enumerate(row)
        ))

        def as_sympy(form):
            return sum(
                sympy.Rational(c.numerator, c.denominator) * s0 ** (form.degree - k) * s1 ** k
                for k, c in enumerate(form.coeffs)
            )

        residual = residual_polynomial(q, curve)
        assert sympy.expand(as_sympy(residual) * s1 * sympy.Mul(*linears) - composite) == 0
        assert sympy.expand(as_sympy(composite_on_curve(q, curve)) - composite) == 0


def test_residual_pass_checks_s1_divisibility():
    # x0*x2 misses the all-ones point, so B keeps an s0^(n-1) term
    gram = Quadric.from_monomials(3, {(0, 2): 1}, QQ).gram
    with pytest.raises(InternalCheckError):
        _residual_pass(gram, StandardRNC(3, (2, 3)).node_values, QQ)


# ------------------------------------------------------------- projection


def test_project_twisted_cubic_from_coordinate_point():
    curve = StandardRNC(3, (2, 3))
    conic = project_from_frame_point(curve, 0)
    assert len(conic) == 3
    assert all(f.degree == 2 for f in conic)
    assert coefficient_rank(conic) == 3


def test_project_twisted_cubic_from_all_ones_point():
    curve = StandardRNC(3, (2, 3))
    conic = project_from_frame_point(curve, 4)
    assert len(conic) == 3
    assert all(f.degree == 2 for f in conic)
    assert coefficient_rank(conic) == 3


def test_projection_commutes_with_the_linear_map():
    curve = StandardRNC(4, (2, 3, 7))
    j = 2
    image = project_from_frame_point(curve, j)
    for s0, s1 in ((QQ(5), QQ(1)), (QQ(-1), QQ(2)), (QQ(1), QQ(0))):
        source = curve.evaluate(s0, s1)
        dropped = tuple(c for i, c in enumerate(source) if i != j)
        target = tuple(f.evaluate(s0, s1) for f in image)
        if any(dropped):
            assert _proportional(dropped, target)


def test_projection_center_must_lie_on_curve():
    conic = (
        BinaryForm(2, (QQ(1), QQ(0), QQ(0))),
        BinaryForm(2, (QQ(0), QQ(1), QQ(0))),
        BinaryForm(2, (QQ(0), QQ(0), QQ(1))),
    )
    # e_1 is off the conic: s0^2 and s1^2 cannot vanish together
    with pytest.raises(CenterNotOnCurveError):
        project_from_frame_point(conic, 1)
    with pytest.raises(ValueError):
        project_from_frame_point(conic, 7)


def test_projection_over_prime_field():
    field = PrimeField(10007)
    curve = random_standard_rnc(5, field, RngStream.from_seed(77))
    image = project_from_frame_point(curve, 3)
    assert len(image) == 5
    assert all(f.degree == 4 for f in image)
    assert coefficient_rank(image) == 5


def test_coefficient_rank_frozen():
    basis = (
        BinaryForm(2, (QQ(1), QQ(0), QQ(0))),
        BinaryForm(2, (QQ(0), QQ(1), QQ(0))),
        BinaryForm(2, (QQ(0), QQ(0), QQ(1))),
    )
    assert coefficient_rank(basis) == 3
    repeated = (basis[0], basis[0])
    assert coefficient_rank(repeated) == 1
