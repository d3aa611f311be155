"""Tests for frames, normalized rational curves, and quadric residuals."""

from fractions import Fraction

import pytest

from scrollgeom.errors import (
    DegenerateFrameError,
    FieldMismatchError,
    FieldTooSmallError,
    InternalCheckError,
    NotThroughFrameError,
    ZeroQuadricError,
)
from scrollgeom.fields import QQ, FpElement, PrimeField
from scrollgeom.forms import BinaryForm
from scrollgeom.linalg import rank_kernel, rank_of
from scrollgeom import rnc
from scrollgeom.rnc import (
    Frame,
    Quadric,
    StandardRNC,
    composite_on_curve,
    random_quadric_through_frame,
    random_standard_rnc,
    residual_polynomial,
    rnc_residual_and_rank,
    _drop_linear,
    _residual_pass,
)
from scrollgeom.rngstream import RngStream

from helpers import (
    count_fp_arithmetic,
    oracle_jacobian_columns,
    oracle_quadric_value,
    oracle_residual,
    oracle_rnc_point,
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


def _standard_frame_points(n, field):
    # the n+1 coordinate points, then the all-ones point
    units = [tuple(field.one if i == j else field.zero for i in range(n + 1)) for j in range(n + 1)]
    return units + [tuple(field.one for _ in range(n + 1))]


# ---------------------------------------------------------------- frames


def test_standard_frame_shape():
    fr = Frame(_standard_frame_points(3, QQ), QQ)
    assert fr.n == 3
    assert len(fr.points) == 5
    assert fr.points[0] == (QQ(1), QQ(0), QQ(0), QQ(0))
    assert fr.points[4] == (QQ(1), QQ(1), QQ(1), QQ(1))


def test_frame_rejects_dependent_subset():
    # fourth point lies in the span of the first two
    pts = [(1, 0, 0), (0, 1, 0), (0, 0, 1), (1, 1, 0)]
    pts = [tuple(QQ(c) for c in p) for p in pts]
    with pytest.raises(DegenerateFrameError) as exc:
        Frame(pts, QQ)
    assert str(exc.value) == "points (0, 1, 3) are linearly dependent"


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
    fr = Frame(_standard_frame_points(2, QQ), QQ)
    with pytest.raises(AttributeError):
        fr.n = 5


# ---------------------------------------------------- normalized curves


def test_standard_rnc_node_values():
    curve = StandardRNC(3, (2, 3), QQ)
    assert curve.node_values == (QQ(0), QQ(1), QQ(2), QQ(3))
    assert curve.params == (QQ(2), QQ(3))
    assert curve.field is QQ


def test_standard_rnc_hits_frame_points():
    curve = StandardRNC(3, (2, 3), QQ)
    # parameter (1:0) lands on the all-ones point
    assert oracle_rnc_point(curve, QQ(1), QQ(0)) == (QQ(1), QQ(1), QQ(1), QQ(1))
    # parameter (value_j:1) lands on coordinate point j
    for j, v in enumerate(curve.node_values):
        pt = oracle_rnc_point(curve, v, QQ(1))
        unit = tuple(QQ(1) if i == j else QQ(0) for i in range(4))
        assert _proportional(pt, unit)


def test_standard_rnc_equality_includes_the_field():
    params = (2, 3, 5)
    over_q = StandardRNC(4, params, QQ)
    over_7 = StandardRNC(4, params, PrimeField(7))
    over_11 = StandardRNC(4, params, PrimeField(11))
    assert over_7 == StandardRNC(4, params, PrimeField(7))
    assert hash(over_7) == hash(StandardRNC(4, params, PrimeField(7)))
    assert over_q != over_7 and over_q != over_11 and over_7 != over_11
    assert len({over_q, over_7, over_11}) == 3


def test_standard_rnc_frozen_sample():
    curve = StandardRNC(3, (2, 3), QQ)
    assert oracle_rnc_point(curve, QQ(1), QQ(1)) == (QQ(0), QQ(2), QQ(0), QQ(0))


def test_coordinate_forms_match_evaluate():
    curve = StandardRNC(4, (2, 3, 5), QQ)
    forms = curve.coordinate_forms()
    assert all(f.degree == 4 for f in forms)
    for s0, s1 in ((QQ(7), QQ(1)), (QQ(1), QQ(0)), (QQ(-2), QQ(3))):
        direct = oracle_rnc_point(curve, s0, s1)
        via_forms = tuple(f.evaluate(s0, s1) for f in forms)
        assert direct == via_forms


def test_coordinate_forms_full_rank():
    for n, params in ((2, (5,)), (3, (2, 3)), (5, (2, 3, 4, 5))):
        curve = StandardRNC(n, params, QQ)
        rows = [list(f.coeffs) for f in curve.coordinate_forms()]
        assert rank_of(rows, n + 1, QQ) == n + 1


def test_coefficient_rank_frozen():
    basis = (
        BinaryForm(2, (QQ(1), QQ(0), QQ(0)), QQ),
        BinaryForm(2, (QQ(0), QQ(1), QQ(0)), QQ),
        BinaryForm(2, (QQ(0), QQ(0), QQ(1)), QQ),
    )
    assert rank_of([list(f.coeffs) for f in basis], 3, QQ) == 3
    repeated = (basis[0], basis[0])
    assert rank_of([list(f.coeffs) for f in repeated], 3, QQ) == 1


def test_standard_rnc_rejections():
    with pytest.raises(ValueError):
        StandardRNC(1, (), QQ)
    with pytest.raises(ValueError):
        StandardRNC(3, (2,), QQ)
    # params may not repeat or collide with the fixed values 0 and 1
    with pytest.raises(ValueError):
        StandardRNC(3, (2, 2), QQ)
    with pytest.raises(ValueError):
        StandardRNC(3, (0, 2), QQ)
    with pytest.raises(ValueError):
        StandardRNC(3, (1, 2), QQ)


def test_standard_rnc_names_the_first_coinciding_slots():
    # values (0, 1, 5, 5, 1): the pair through the lowest slot comes first
    with pytest.raises(ValueError, match="slots 1 and 4 coincide"):
        StandardRNC(4, (5, 5, 1), QQ)
    with pytest.raises(ValueError, match="slots 2 and 3 coincide"):
        StandardRNC(4, (5, 5, 7), PrimeField(10007))


def test_standard_rnc_rejects_non_field_params():
    # a Fraction or a float is no element of F_7; truncating 1/2 to 0 would
    # pass it off as a clash with the fixed node value 0
    with pytest.raises(FieldMismatchError):
        StandardRNC(3, (Fraction(1, 2), 3), PrimeField(7))
    with pytest.raises(FieldMismatchError):
        StandardRNC(3, (2.9, 3), PrimeField(7))


def test_standard_rnc_equality_and_immutability():
    a = StandardRNC(3, (2, 3), QQ)
    b = StandardRNC(3, (Fraction(2), Fraction(3)), QQ)
    assert a == b and hash(a) == hash(b)
    assert a != StandardRNC(3, (2, 5), QQ)
    with pytest.raises(AttributeError):
        a.n = 4


@pytest.mark.parametrize(
    "field",
    [QQ, PrimeField(3), PrimeField(101), PrimeField(10007), PrimeField(2**61 - 1)],
    ids=["q", "fp3", "fp101", "fp10007", "fp2^61-1"],
)
def test_standard_rnc_stores_working_values(field):
    # over F_3 only the node value 2 is free, so n = 2
    params = (2,) if field == PrimeField(3) else (2, 5, 9, 14)
    n = len(params) + 1
    from_ints = StandardRNC(n, params, field)
    from_elements = StandardRNC(n, [field(x) for x in params], field)
    assert from_ints == from_elements and hash(from_ints) == hash(from_elements)
    assert from_ints.values == from_elements.values == (0, 1, *params)
    if field is QQ:
        # over the rationals the working values are the given scalars
        for curve in (from_ints, from_elements):
            assert curve.params == params and curve.node_values == (0, 1, *params)
        return
    assert all(type(x) is int for x in from_elements.values)
    # unreduced ints are the same node values
    shifted = StandardRNC(n, [x - field.p for x in params], field)
    assert shifted == from_ints and hash(shifted) == hash(from_ints)
    for curve in (from_ints, from_elements):
        assert curve.params == tuple(field(x) for x in params)
        assert curve.node_values == (field.zero, field.one) + curve.params
        assert all(type(x) is FpElement for x in curve.params + curve.node_values)
    if field.p < 4 * (n + 1):
        with pytest.raises(FieldTooSmallError):
            random_standard_rnc(n, field, RngStream.from_seed(3))
        return
    drawn = random_standard_rnc(n, field, RngStream.from_seed(3))
    assert all(type(x) is int and 0 <= x < field.p for x in drawn.values)
    assert all(type(x) is FpElement for x in drawn.params)


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
    assert oracle_quadric_value(q, (QQ(1), QQ(2), QQ(3), QQ(6))) == QQ(0)
    assert oracle_quadric_value(q, (QQ(1), QQ(1), QQ(2), QQ(3))) == QQ(1)


def test_quadric_rank_and_frame_membership():
    q = _hyperbolic_quadric()
    assert q.rank() == 4
    assert q.is_through_standard_frame()
    assert not q.is_zero()


def test_quadric_singular_locus_indices():
    # rank-4 quadric in P^4 leaves e_3 in its vertex
    q = Quadric.from_monomials(4, {(0, 4): 1, (1, 2): -1}, QQ)
    assert q.rank() == 4
    assert q.is_through_standard_frame()
    kernel = rank_kernel([list(r) for r in q.gram], 5, QQ)[1]
    assert len(kernel) == 1
    assert _proportional(kernel[0], (QQ(0), QQ(0), QQ(0), QQ(1), QQ(0)))


def test_quadric_validation():
    with pytest.raises(ValueError):
        Quadric([[QQ(0), QQ(1)], [QQ(2), QQ(0)]], QQ)
    with pytest.raises(ValueError):
        Quadric([[QQ(0), QQ(1)]], QQ)


def test_quadrics_carry_their_field():
    field = PrimeField(10007)
    assert Quadric.from_monomials(3, {(0, 1): 1, (2, 3): -1}, field).field is field
    assert Quadric.from_monomials(3, {(0, 1): 1}, QQ).field is QQ


def test_quadric_symmetry_is_checked_in_its_field():
    fp = PrimeField(10007)
    # 10010 is 3 mod 10007
    q = Quadric([[fp.zero, fp(3)], [10010, fp.zero]], fp)
    assert q.field == fp and q.gram == ((fp.zero, fp(3)), (fp(3), fp.zero))


def test_quadric_of_int_multiples_of_p_is_the_zero_quadric():
    fp = PrimeField(10007)
    m = 10007 * 5
    zero = Quadric([[fp.zero, m, 0], [m, fp.zero, 0], [0, 0, fp.zero]], fp)
    assert zero.rank() == 0 and zero.is_zero()
    with pytest.raises(ZeroQuadricError):
        residual_polynomial(zero, StandardRNC(2, (5,), fp))


def test_quadric_not_through_frame_detection():
    diag = Quadric.from_monomials(2, {(0, 0): 1}, QQ)
    assert not diag.is_through_standard_frame()
    offsum = Quadric.from_monomials(2, {(0, 1): 1}, QQ)
    assert not offsum.is_through_standard_frame()


def test_random_quadric_through_frame_vanishes_on_frame():
    field = PrimeField(10007)
    fr = _standard_frame_points(4, field)
    for t in range(5):
        q = random_quadric_through_frame(4, field, RngStream.from_seed(40 + t))
        assert q.is_through_standard_frame()
        for pt in fr:
            assert oracle_quadric_value(q, pt) == field.zero


# -------------------------------------------------------------- residuals


def test_residual_frozen_case():
    q = _hyperbolic_quadric()
    curve = StandardRNC(3, (2, 3), QQ)
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
            res = residual_polynomial(q, StandardRNC(3, (a2, a3), QQ))
            expected = BinaryForm(1, (a3 - QQ(1) - a2, a2), QQ)
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
            node_product = BinaryForm(0, (field.one,), field)
            for v in curve.node_values:
                node_product = node_product * BinaryForm(1, (1, -v), field)
            s1 = BinaryForm.monomial(1, 1, field.one, field)
            assert composite_on_curve(q, curve) == res * s1 * node_product


def test_residual_zero_iff_curve_on_quadric():
    q = _hyperbolic_quadric()
    curve = StandardRNC(3, (2, 3), QQ)
    assert not composite_on_curve(q, curve).is_zero()
    # the residual detects containment through the same product identity
    assert not residual_polynomial(q, curve).is_zero()


def test_residual_validation():
    curve = StandardRNC(3, (2, 3), QQ)
    zero = Quadric([[QQ(0)] * 4 for _ in range(4)], QQ)
    with pytest.raises(ZeroQuadricError):
        residual_polynomial(zero, curve)
    off_frame = Quadric.from_monomials(3, {(0, 0): 1}, QQ)
    with pytest.raises(NotThroughFrameError):
        residual_polynomial(off_frame, curve)
    small = Quadric.from_monomials(2, {(0, 1): 1, (0, 2): -1}, QQ)
    with pytest.raises(ValueError):
        residual_polynomial(small, StandardRNC(3, (2, 3), QQ))
    # a quadric and a curve of two fields do not mix
    f101 = PrimeField(101)
    with pytest.raises(FieldMismatchError):
        residual_polynomial(_hyperbolic_quadric(), StandardRNC(3, (2, 3), f101))
    with pytest.raises(FieldMismatchError):
        rnc_residual_and_rank(Quadric.from_monomials(3, {(0, 3): 1, (1, 2): -1}, f101), curve)


def test_finiteness_rank_frozen():
    q = _hyperbolic_quadric()
    assert rnc_residual_and_rank(q, StandardRNC(3, (2, 3), QQ))[1] == 2


def test_finiteness_rank_random_cases():
    # x0*x1 - x2*x3 has rank 4 and passes through the standard frame
    field = PrimeField(10007)
    for n in (3, 4, 5):
        rng = RngStream.from_seed(500 + n)
        curve = random_standard_rnc(n, field, rng.child("curve"))
        q = Quadric.from_monomials(n, {(0, 1): 1, (2, 3): -1}, field)
        assert q.rank() == 4 and q.is_through_standard_frame()
        assert rnc_residual_and_rank(q, curve)[1] == n - 1


@pytest.mark.parametrize("field", [QQ, PrimeField(10007), PrimeField(101)], ids=str)
def test_residual_pass_matches_oracles(field):
    for n in range(3, 17):
        rng = RngStream.from_seed(700 + n)
        curve = random_standard_rnc(n, field, rng.child("curve"))
        q = random_quadric_through_frame(n, field, rng.child("quadric"))
        residual, partials = _residual_pass(q.values, curve.values, field)
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


def _pass(gram, node_values, field):
    """_residual_pass on the working values of given Gram rows and node values."""
    return _residual_pass([field.unwrap(row) for row in gram], field.unwrap(node_values), field)


def _through_frame_gram(size, entries, field, wrap=None):
    # zero diagonal, and slot (0, 1) cancels the sum of the other entries;
    # an entry whose wrap flag is False stays a plain int
    gram = [[field.zero] * size for _ in range(size)]
    pairs = [(i, j) for i in range(size) for j in range(i + 1, size) if (i, j) != (0, 1)]
    wrap = wrap or [True] * len(pairs)
    for (i, j), x, w in zip(pairs, entries, wrap):
        gram[i][j] = gram[j][i] = field(x) if w else x
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
        wrap=st.lists(st.booleans(), min_size=36, max_size=36),
    )
    def check(field, values, entries, wrap):
        values = [field(v) for v in values]
        gram = _through_frame_gram(len(values), entries, field, wrap)
        residual, partials = _pass(gram, values, field)
        assert residual == oracle_residual(gram, values, field)
        assert partials == oracle_jacobian_columns(gram, values, field)

    check()


@pytest.mark.parametrize("field", [QQ, PrimeField(10007)], ids=str)
def test_residual_pass_divides_once_per_node(field, monkeypatch):
    # n+1 singles P / l_k, n+1 quotients S_m and n-1 partials
    calls = []
    drop_linear = rnc._drop_linear

    def counted(coeffs, value, field):
        calls.append(value)
        return drop_linear(coeffs, value, field)

    monkeypatch.setattr(rnc, "_drop_linear", counted)
    for n in (5, 10, 14):
        rng = RngStream.from_seed(720 + n)
        curve = random_standard_rnc(n, field, rng.child("curve"))
        q = random_quadric_through_frame(n, field, rng.child("quadric"))
        calls.clear()
        _residual_pass(q.values, curve.values, field)
        assert len(calls) == 3 * (n + 1) - 2


@pytest.mark.parametrize("field", [QQ, PrimeField(101)], ids=str)
def test_residual_pass_ignores_the_gram_diagonal(field):
    # S_m = (sum_(j != m) G_mj P_j) / l_m: l_m does not divide P_m, so
    # the pass must leave G_mm out, whatever it holds
    values = [field(v) for v in (0, 1, 5, 9, 14, 30, 41)]
    entries = [(7 * k) % 19 - 9 for k in range(20)]
    gram = _through_frame_gram(len(values), entries, field)
    expected = _pass(gram, values, field)
    for m, row in enumerate(gram):
        row[m] = field(3 + 2 * m)
    assert _pass(gram, values, field) == expected


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
        _residual_pass(gram, StandardRNC(3, (2, 3), QQ).values, QQ)


def test_drop_linear_checks_the_reduced_remainder():
    f101 = PrimeField(101)
    # (s0 - 2*s1) * (s0 - 3*s1) + s1^2 leaves the remainder 1 mod 101
    with pytest.raises(InternalCheckError):
        _drop_linear([1, -5, 7], 2, f101)
    # s0^2 + 97*s1^2 = (s0 - 2*s1) * (s0 + 2*s1) mod 101: the unreduced
    # int remainder is 97 + 2*2 = 101, a nonzero multiple of p
    assert _drop_linear([1, 0, 97], 2, f101) == [1, 2]
    with pytest.raises(InternalCheckError):
        _drop_linear([1, 0, 97], 2, QQ)
    assert _drop_linear([1, -5, 6], 2, QQ) == [1, -3]


def test_prime_field_residual_pass_does_no_fp_element_arithmetic(monkeypatch):
    field = PrimeField(10007)
    rng = RngStream.from_seed(710)
    curve = random_standard_rnc(10, field, rng.child("curve"))
    q = random_quadric_through_frame(10, field, rng.child("quadric"))
    calls = count_fp_arithmetic(monkeypatch)
    residual, partials = _residual_pass(q.values, curve.values, field)
    coordinates = curve.coordinate_forms()
    assert not calls
    # the counters do see FpElement arithmetic
    _ = field.one * field.one
    assert calls["__mul__"] == 1
    monkeypatch.undo()
    assert residual == oracle_residual(q.gram, curve.node_values, field)
    assert partials == oracle_jacobian_columns(q.gram, curve.node_values, field)
    for s0, s1 in ((field(7), field.one), (field.one, field.zero)):
        assert tuple(f.evaluate(s0, s1) for f in coordinates) == oracle_rnc_point(curve, s0, s1)


def test_prime_field_frame_check_does_no_fp_element_arithmetic(monkeypatch):
    field = PrimeField(10007)
    rng = RngStream.from_seed(712)
    curve = random_standard_rnc(10, field, rng.child("curve"))
    q = random_quadric_through_frame(10, field, rng.child("quadric"))
    off_sum = Quadric.from_monomials(3, {(0, 1): 1, (2, 3): 10006 * 3}, field)
    # int entries in a prime-field Gram matrix count mod p
    mixed = Quadric([[field.zero, 10007 * 5], [10007 * 5, field.zero]], field)
    calls = count_fp_arithmetic(monkeypatch)
    assert q.is_through_standard_frame()
    assert not off_sum.is_through_standard_frame()
    assert mixed.is_through_standard_frame()
    _, rank = rnc_residual_and_rank(q, curve)
    assert not calls
    # the counters do see FpElement arithmetic
    _ = field.one + field.one
    assert calls["__add__"] == 1
    monkeypatch.undo()
    assert rank == 9
    assert oracle_quadric_value(off_sum, (field.one,) * 4) != field.zero


def test_residual_and_coordinate_form_types_at_the_boundary():
    for field in (PrimeField(10007), QQ):
        curve = StandardRNC(5, (5, 9, 11, 13), field)
        q = random_quadric_through_frame(5, field, RngStream.from_seed(77))
        residual = rnc_residual_and_rank(q, curve)[0]
        coeffs = residual.coeffs + tuple(c for f in curve.coordinate_forms() for c in f.coeffs)
        kind = FpElement if field is not QQ else int
        assert all(type(c) is kind for c in coeffs)
