"""Binary curves: gonality pencils, quadric nets, containment experiments."""

from collections import Counter
from fractions import Fraction

import pytest

from scrollgeom import binary_curves
from scrollgeom.binary_curves import (
    BinaryCurve,
    _candidate_vectors,
    _checked_nodes,
    _conic_parts,
    _integral_gram,
    _node_map,
    _pair_resultant,
    _pair_satisfies_nodes,
    _plane_trial,
    _restrict_to_plane,
    containment_strata,
    gonality_map,
    gonality_map_from_nodes,
    hyperelliptic_from_nodes,
    hyperelliptic_test,
    project_from_node,
    quadric_space_dimension,
    quadrics_through,
    random_binary_curve,
    random_mobius_node_pairs,
    scroll_containment_witness,
    scroll_positive_control,
)
from scrollgeom.errors import FieldTooSmallError
from scrollgeom.fields import QQ, PrimeField
from scrollgeom.forms import BinaryForm, _split_forms, form_gcd
from scrollgeom.linalg import rank_kernel, rank_of
from scrollgeom.rnc import Quadric, StandardRNC, composite_on_curve
from scrollgeom.rngstream import as_stream
from scrollgeom.scrolls import gonality_bound

from helpers import (
    count_fp_arithmetic,
    count_fraction_arithmetic,
    cross_ratio,
    oracle_node_system_rows,
    oracle_quadric_coefficient_rows,
    oracle_rref_mod,
)


def _curve(n, params1, params2, field=QQ):
    return BinaryCurve(
        n,
        StandardRNC(n, tuple(field(p) for p in params1), field),
        StandardRNC(n, tuple(field(p) for p in params2), field),
    )


def _pencil_carries_nodes(witness, pairs):
    """Independent check that (q1:q2) maps each node parameter across."""
    for (r, s) in pairs:
        v1 = witness.q1.evaluate(r[0], r[1])
        v2 = witness.q2.evaluate(r[0], r[1])
        if not (v1 or v2):
            return False
        if v1 * s[1] != v2 * s[0]:
            return False
    return True


def _value(coeffs, point):
    """Value of sum_i c_i * x0^(d-i) * x1^i at point = (x0, x1)."""
    d = len(coeffs) - 1
    return sum(c * point[0] ** (d - i) * point[1] ** i for i, c in enumerate(coeffs))


def _coprime_mod(f, g, p):
    """Binary forms with no common zero: their Sylvester matrix is nonsingular."""
    d, e = len(f) - 1, len(g) - 1
    rows = [[0] * i + list(f) + [0] * (e - 1 - i) for i in range(e)]
    rows += [[0] * i + list(g) + [0] * (d - 1 - i) for i in range(d)]
    return oracle_rref_mod(rows, d + e, p)[0] == d + e


# node values of the second component are the squares of the first's
_SQUARES = ((2, 3, 4, 5, 6), (4, 9, 16, 25, 36))


# ------------------------------------------------------------ construction


def test_binary_curve_basics():
    curve = _curve(3, (2, 3), (4, 5))
    assert curve.n == 3
    assert curve.arithmetic_genus == 4
    assert curve.field is QQ
    pairs = curve.node_pairs
    assert len(pairs) == 5
    assert pairs[0] == ((QQ(0), QQ(1)), (QQ(0), QQ(1)))
    assert pairs[2] == ((QQ(2), QQ(1)), (QQ(4), QQ(1)))
    assert pairs[4] == ((QQ(1), QQ(0)), (QQ(1), QQ(0)))


def test_binary_curve_to_dict():
    curve = _curve(3, (2, 3), (4, 5))
    assert curve.to_dict() == {
        "n": 3,
        "comp1": {"params": ["2", "3"]},
        "comp2": {"params": ["4", "5"]},
        "field": "q",
    }


def test_binary_curve_rejections():
    a = StandardRNC(3, (QQ(2), QQ(3)), QQ)
    b = StandardRNC(3, (QQ(4), QQ(5)), QQ)
    with pytest.raises(ValueError):
        BinaryCurve(2, a, b)
    with pytest.raises(ValueError):
        BinaryCurve(4, a, b)
    # the same parameters in another order describe the same component
    with pytest.raises(ValueError):
        _curve(3, (2, 3), (3, 2))
    fp = PrimeField(10007)
    c = StandardRNC(3, (fp(2), fp(3)), fp)
    with pytest.raises(ValueError):
        BinaryCurve(3, a, c)
    curve = _curve(3, (2, 3), (4, 5))
    with pytest.raises(AttributeError):
        curve.n = 4


def test_random_binary_curve_determinism():
    one = random_binary_curve(4, QQ, 7)
    two = random_binary_curve(4, QQ, 7)
    assert one.to_dict() == two.to_dict()
    other = random_binary_curve(4, QQ, 8)
    assert other.to_dict() != one.to_dict()


def test_random_binary_curve_validation():
    with pytest.raises(ValueError):
        random_binary_curve(2, QQ, 1)
    with pytest.raises(FieldTooSmallError):
        random_binary_curve(3, PrimeField(11), 1)


# ---------------------------------------------------------------- gonality


def test_gonality_even_cases():
    for n in (4, 6):
        for field in (QQ, PrimeField(10007)):
            curve = random_binary_curve(n, field, 40 + n)
            witness, kernel_dim = gonality_map(curve)
            assert kernel_dim == 2
            assert witness.q1.degree == n // 2 + 1
            assert witness.total_degree == n // 2 + 2
            assert witness.total_degree == gonality_bound(curve.arithmetic_genus)
            assert _pencil_carries_nodes(witness, curve.node_pairs)


def test_gonality_odd_case():
    curve = random_binary_curve(5, QQ, 45)
    witness, kernel_dim = gonality_map(curve)
    assert kernel_dim >= 1
    assert witness.total_degree <= gonality_bound(curve.arithmetic_genus)
    assert _pencil_carries_nodes(witness, curve.node_pairs)


def test_gonality_identical_node_data_reduces_to_identity():
    # both components with the same parameters: the degree-3 system is
    # degenerate and the reduced witness is the identity Mobius map
    values = [QQ(v) for v in (0, 1, 2, 3, 4)]
    pairs = [((v, QQ(1)), (v, QQ(1))) for v in values]
    pairs.append(((QQ(1), QQ(0)), (QQ(1), QQ(0))))
    witness, kernel_dim = gonality_map_from_nodes(pairs, 4, QQ)
    assert kernel_dim == 3
    assert witness.total_degree == 2
    assert _pencil_carries_nodes(witness, pairs)


@pytest.mark.parametrize("field", [QQ, PrimeField(10007)], ids=["q", "fp10007"])
def test_gonality_reduces_squared_node_values(field):
    # every degree-4 kernel element shares a factor; dividing it out
    # leaves (s0^2 : s1^2), which carries R_j to S_j = R_j^2
    curve = _curve(6, *_SQUARES, field)
    witness, kernel_dim = gonality_map(curve)
    assert kernel_dim == 3
    assert witness.total_degree == 3
    assert list(witness.q1.coeffs) == [1, 0, 0]
    assert list(witness.q2.coeffs) == [0, 0, 1]
    assert _pencil_carries_nodes(witness, curve.node_pairs)


def test_node_maps_reject_a_zero_parameter():
    zero, one = QQ(0), QQ(1)
    pairs = [((QQ(v), one), (QQ(v + 1), one)) for v in range(5)]
    for bad in (((zero, zero), (one, one)), ((one, one), (zero, zero))):
        with pytest.raises(ValueError):
            gonality_map_from_nodes(pairs + [bad], 4, QQ)
        with pytest.raises(ValueError):
            hyperelliptic_from_nodes(pairs + [bad], QQ)


# ----------------------------------------------------------- hyperelliptic


def test_random_curves_are_not_hyperelliptic():
    # nodes 0, 1 and infinity sit at the same parameters on both components,
    # so a degree-1 node map fixes three points of P^1 and is the identity:
    # it carries the nodes across exactly when S_j = R_j for every j, which
    # needs comp2 = comp1, and BinaryCurve rejects equal parameter multisets
    for n, seed in ((4, 1), (5, 2), (6, 3)):
        curve = random_binary_curve(n, QQ, seed)
        assert hyperelliptic_test(curve) is False
    for field in (QQ, PrimeField(101), PrimeField(10007)):
        for n in range(3, 11):
            curve = random_binary_curve(n, field, 500 + n)
            assert hyperelliptic_test(curve) is False
            assert hyperelliptic_from_nodes(curve.node_pairs, field) is False
            same = [(r, r) for (r, _) in curve.node_pairs]
            assert hyperelliptic_from_nodes(same, field) is True
            with pytest.raises(ValueError, match="components coincide"):
                BinaryCurve(n, curve.comp1, curve.comp1)


def test_mobius_node_pairs_are_hyperelliptic():
    for field in (QQ, PrimeField(10007)):
        for n, seed in ((4, 5), (6, 6)):
            pairs = random_mobius_node_pairs(n, field, seed)
            assert len(pairs) == n + 2
            firsts = [r[0] / r[1] for (r, _) in pairs]
            assert len(set(firsts)) == n + 2
            assert hyperelliptic_from_nodes(pairs, field) is True


@pytest.mark.parametrize(
    "field",
    [PrimeField(101), PrimeField(10007), PrimeField(2**61 - 1), QQ],
    ids=["fp101", "fp10007", "fp2^61-1", "q"],
)
def test_node_system_rows_match_field_element_oracle(field, monkeypatch):
    # the rows the node solver builds through forms._coefficient_rows
    systems = []

    def capture(*args):
        systems.append(args[0])
        return rank_kernel(*args)

    monkeypatch.setattr(binary_curves, "rank_kernel", capture)
    cases = [random_binary_curve(n, field, seed).node_pairs for n, seed in ((5, 1), (8, 2))]
    cases.append(random_mobius_node_pairs(6, field, 3))
    # points at infinity and raw int parameters on either side
    cases.append((((1, 0), (field(3), 1)), ((field(2), field(5)), (0, -1))))
    for pairs in cases:
        for degree in range(1, 7):
            systems.clear()
            _node_map(_checked_nodes(pairs, field), degree, field)
            (rows,) = systems
            assert rows == oracle_node_system_rows(pairs, degree, field)
            if field is not QQ:
                assert all(type(x) is int and 0 <= x < field.p for row in rows for x in row)


@pytest.mark.parametrize("field", [PrimeField(10007), QQ], ids=["fp10007", "q"])
def test_node_map_pretest_keeps_the_unfiltered_pencil(field, monkeypatch):
    # the scan without the pretest, a gcd for every nonzero candidate, ends
    # at the pencil _node_map returns; with it, the only gcd is the one
    # that certifies the pencil (the frame's node at 0 gives the first
    # basis vector the common factor s0)
    degrees = []

    def recorded_gcd(f, g):
        out = form_gcd(f, g)
        degrees.append(out.degree)
        return out

    monkeypatch.setattr(binary_curves, "form_gcd", recorded_gcd)
    for n in (12, 16):
        degree = n // 2 + 1
        for seed in range(8):
            nodes = random_binary_curve(n, field, seed).nodes
            degrees.clear()
            pencil, kernel = _node_map(nodes, degree, field)
            assert degrees == [0]
            for vec in _candidate_vectors(kernel):
                q1, q2 = _split_forms(vec, (degree, degree), field)
                if not (q1.is_zero() and q2.is_zero()) and form_gcd(q1, q2).degree == 0:
                    break
            assert pencil == (q1, q2)


def test_prime_field_node_check_does_no_fp_element_arithmetic(monkeypatch):
    fp = PrimeField(10007)
    curve = random_binary_curve(8, fp, 41)
    witness, _ = gonality_map(curve)
    nodes = curve.nodes
    wrong = [nodes[0][:2] + nodes[1][2:]] + nodes[1:]
    calls = count_fp_arithmetic(monkeypatch)
    assert _pair_satisfies_nodes(witness.q1, witness.q2, nodes, fp)
    assert not _pair_satisfies_nodes(witness.q1, witness.q2, wrong, fp)
    assert not calls
    # the counters do see FpElement arithmetic
    _ = fp.one + fp.one
    assert calls["__add__"] == 1


def _rational_witness():
    curve = random_binary_curve(8, QQ, 41)
    witness, _ = gonality_map(curve)
    nodes = curve.nodes
    wrong = [nodes[0][:2] + nodes[1][2:]] + nodes[1:]
    return witness.q1, witness.q2, nodes, wrong


def test_rational_node_check_does_no_fraction_arithmetic(monkeypatch):
    q1, q2, nodes, wrong = _rational_witness()
    # the kernel vectors carry Fractions, so the check has some to clear
    assert any(type(x) is Fraction for x in q1.values + q2.values)
    calls = count_fraction_arithmetic(monkeypatch)
    assert _pair_satisfies_nodes(q1, q2, nodes, QQ)
    assert not _pair_satisfies_nodes(q1, q2, wrong, QQ)
    assert not calls
    # the counters do see Fraction arithmetic
    _ = Fraction(1, 2) + 1
    assert calls["__add__"] == 1


def test_node_check_is_unchanged_by_a_common_scale():
    hypothesis = pytest.importorskip("hypothesis")
    st = hypothesis.strategies
    q1, q2, nodes, wrong = _rational_witness()
    # (q1 : q1) is constant where defined, so it misses the node S = (1 : 0)
    cases = [(q1, q2, nodes, True), (q1, q2, wrong, False), (q1, q1, nodes, False)]
    scalars = st.one_of(
        st.integers(-10**6, 10**6), st.fractions(max_denominator=10**6)
    ).filter(bool)

    @hypothesis.settings(max_examples=100, deadline=None)
    @hypothesis.given(scalars)
    def check(c):
        for f, g, nodes, want in cases:
            assert _pair_satisfies_nodes(f.scale(c), g.scale(c), nodes, QQ) is want

    check()


# --------------------------------------------------------------- quadrics


def test_quadric_space_dimensions():
    for n, expected in ((3, 1), (4, 3), (5, 6), (6, 10)):
        curve = random_binary_curve(n, PrimeField(10007), 70 + n)
        quadrics = quadrics_through(curve)
        assert len(quadrics) == expected == quadric_space_dimension(curve)
        assert expected == (n - 1) * (n - 2) // 2
    assert quadric_space_dimension(random_binary_curve(5, QQ, 72)) == 6


def test_quadrics_vanish_on_both_components():
    curve = random_binary_curve(4, QQ, 71)
    for q in quadrics_through(curve):
        assert composite_on_curve(q, curve.comp1).is_zero()
        assert composite_on_curve(q, curve.comp2).is_zero()


def _assert_quadrics_match_coefficient_rows(curve):
    # the same basis and count as the kernel of the 2(2n+1) coefficient rows
    field = curve.field
    pairs, rows = oracle_quadric_coefficient_rows(curve)
    rank, kernel = rank_kernel(rows, len(pairs), field)
    expected = [
        Quadric.from_monomials(curve.n, {pairs[k]: v for k, v in enumerate(vec) if v}, field)
        for vec in kernel
    ]
    assert [q.values for q in quadrics_through(curve)] == [q.values for q in expected]
    assert quadric_space_dimension(curve) == len(kernel) == len(pairs) - rank
    assert rank == rank_of(rows, len(pairs), field)
    return len(kernel)


@pytest.mark.parametrize("field", [QQ, PrimeField(10007), PrimeField(101)], ids=str)
@pytest.mark.parametrize("n", range(3, 9))
def test_quadrics_match_coefficient_rows(n, field):
    curve = random_binary_curve(n, field, 180 + n)
    assert _assert_quadrics_match_coefficient_rows(curve) == (n - 1) * (n - 2) // 2


def test_quadrics_match_coefficient_rows_on_special_curves():
    # the positive control lies on a cubic scroll: three quadrics
    assert _assert_quadrics_match_coefficient_rows(scroll_positive_control(3, QQ)) == 3
    params = (Fraction(1, 2), Fraction(-3, 7), Fraction(5, 3), Fraction(7, 11))
    _assert_quadrics_match_coefficient_rows(
        _curve(5, params, (Fraction(2, 9), *params[1:]))
    )
    # P^1 over F_7 has 8 points, fewer than the 2n+1 = 11 values that fix
    # a degree-2n form; the node-quotient rows need only the n+2 nodes
    _assert_quadrics_match_coefficient_rows(_curve(5, (2, 3, 4, 5), (3, 4, 5, 6), PrimeField(7)))


def test_quadrics_job_runs_no_exact_pass_and_no_form_product(monkeypatch, capsys):
    # the 3n rows of a general curve have full row rank, so rank_of's
    # mod-p certificate settles it, and no composite is multiplied out
    from scrollgeom import linalg
    from scrollgeom.cli import main

    calls = Counter()
    forward_q, form_mul = linalg._forward_q, BinaryForm.__mul__

    def counted_forward_q(mat, ncols):
        calls["_forward_q"] += 1
        return forward_q(mat, ncols)

    def counted_mul(f, g):
        calls["mul"] += 1
        return form_mul(f, g)

    monkeypatch.setattr(linalg, "_forward_q", counted_forward_q)
    monkeypatch.setattr(BinaryForm, "__mul__", counted_mul)
    for seed in range(5):
        argv = ["quadrics", "--n", "10", "--trials", "3", "--field", "q", "--seed", str(seed)]
        assert main(argv) == 0
    capsys.readouterr()
    assert calls == Counter()
    # the counters do see both: a kernel over q and a composite on a component
    curve = random_binary_curve(4, QQ, 5)
    composite_on_curve(quadrics_through(curve)[0], curve.comp1)
    assert calls["_forward_q"] and calls["mul"]


# -------------------------------------------------------------- containment


def test_containment_slicing_none_found():
    curve = random_binary_curve(4, QQ, 3)
    verdict = scroll_containment_witness(curve, 6, 3)
    assert verdict.verdict == "NONE_FOUND"
    assert verdict.method == "exact-slicing"
    assert verdict.trials == 6
    assert len(verdict.records) == 6
    for rec in verdict.records:
        assert set(rec) == {"trial", "hit", "note"}
    assert verdict.anomalies == []
    data = verdict._asdict()
    assert list(data) == [
        "verdict",
        "method",
        "trials",
        "records",
        "anomalies",
        "description",
    ]


def _random_conic_gram(rng, fractions):
    """Symmetric 3x3 matrix of ints, or of Fractions, with a nonzero x2^2 entry.

    The plane trials resolve in x2 only after making that entry nonzero.
    """
    gram = [[0] * 3 for _ in range(3)]
    for i in range(3):
        for j in range(i, 3):
            x = rng.randint(-9, 9)
            if (i, j) == (2, 2) and not x:
                x = 1
            if fractions:
                x = Fraction(x, rng.randint(1, 6))
            gram[i][j] = gram[j][i] = x
    return gram


def test_pair_resultant_agrees_with_sympy():
    sympy = pytest.importorskip("sympy")
    x0, x1, x2 = sympy.symbols("x0 x1 x2")
    u = (x0, x1, x2)

    def rational(c):
        return sympy.Rational(c.numerator, c.denominator)

    rng = as_stream(81)
    for trial in range(16):
        g1, g2 = (_random_conic_gram(rng, fractions=trial % 2 == 1) for _ in range(2))
        conics = [
            sum(rational(g[i][j]) * u[i] * u[j] for i in range(3) for j in range(3))
            for g in (g1, g2)
        ]
        res = _pair_resultant(_conic_parts(g1, QQ), _conic_parts(g2, QQ))
        got = sum(
            rational(c) * x0 ** (res.degree - k) * x1 ** k for k, c in enumerate(res.coeffs)
        )
        assert sympy.expand(got - sympy.resultant(*conics, x2)) == 0


def test_cleared_plane_section_is_a_multiple_of_the_rational_one():
    hypothesis = pytest.importorskip("hypothesis")
    st = hypothesis.strategies
    entry = st.one_of(
        st.integers(-9, 9), st.builds(Fraction, st.integers(-9, 9), st.integers(1, 6))
    )
    coordinates = st.lists(st.integers(-99, 99), min_size=3, max_size=3)

    @hypothesis.settings(max_examples=150, deadline=None)
    @hypothesis.given(
        upper=st.lists(entry, min_size=15, max_size=15),
        plane=st.lists(coordinates, min_size=5, max_size=5),
    )
    def check(upper, plane):
        gram = [[0] * 5 for _ in range(5)]
        slots = [(i, j) for i in range(5) for j in range(i, 5)]
        for (i, j), x in zip(slots, upper):
            gram[i][j] = gram[j][i] = x
        cleared = _integral_gram(gram)
        assert all(type(x) is int for row in cleared for x in row)
        exact = [x for row in _restrict_to_plane(gram, plane, QQ) for x in row]
        scaled = [x for row in _restrict_to_plane(cleared, plane, QQ) for x in row]
        assert all(type(x) is int for x in scaled)
        ratio = next((Fraction(s) / e for s, e in zip(scaled, exact) if e), None)
        assert ratio != 0
        assert scaled == ([ratio * e for e in exact] if ratio is not None else exact)

    check()


def test_plane_trials_on_cleared_grams_match_the_rational_ones():
    for seed in range(6):
        curve = random_binary_curve(4, QQ, 40 + seed)
        grams = [q.gram for q in quadrics_through(curve)]
        cleared = [_integral_gram(g) for g in grams]
        stream = as_stream(seed)
        for t in range(4):
            want = _plane_trial(grams, 4, QQ, stream.child(f"trial{t}"))
            assert _plane_trial(cleared, 4, QQ, stream.child(f"trial{t}")) == want


def test_prime_field_plane_trials_do_no_fp_element_arithmetic(monkeypatch):
    fp = PrimeField(10007)
    curve = random_binary_curve(4, fp, 3)
    grams = [_integral_gram(q.values) for q in quadrics_through(curve)]
    stream = as_stream(1)
    calls = count_fp_arithmetic(monkeypatch)
    notes = {_plane_trial(grams, 4, fp, stream.child(f"trial{t}"))[1] for t in range(20)}
    assert not calls
    # the counters do see FpElement arithmetic
    _ = fp.one + fp.one
    assert calls["__add__"] == 1
    monkeypatch.undo()
    assert "no common zero on this plane (certified by resultants)" in notes
    # the restriction of residues is the one computed on field elements
    rng = as_stream(2)
    plane = [[fp.random_scalar(rng) for _ in range(3)] for _ in range(5)]
    for gram in grams:
        got = _restrict_to_plane(gram, [fp.unwrap(row) for row in plane], fp)
        want = [[sum(plane[r][i] * gram[r][c] * plane[c][j] for r in range(5) for c in range(5))
                 for j in range(3)] for i in range(3)]
        assert got == want
        assert all(type(x) is int and 0 <= x < fp.p for row in got for x in row)


def _gram(n, entries):
    """(n+1)x(n+1) symmetric int Gram matrix, up to scale, from {(i, j): x}."""
    gram = [[0] * (n + 1) for _ in range(n + 1)]
    for (i, j), x in entries.items():
        gram[i][j] = gram[j][i] = x
    return gram


PLANE_FIELDS = [QQ, PrimeField(10007)]


@pytest.mark.parametrize("field", PLANE_FIELDS, ids=["q", "fp10007"])
def test_plane_trial_notes_that_need_no_resultant(field):
    x0x1, x0x2 = _gram(4, {(0, 1): 1}), _gram(4, {(0, 2): 1})
    x3x4 = _gram(4, {(3, 4): 1})
    rng = as_stream(5)
    assert _plane_trial([x0x1, _gram(4, {}), x3x4], 4, field, rng.child("zero")) == (
        True, "plane lies inside a quadric of the net")
    assert _plane_trial([x0x1, x3x4], 4, field, rng.child("two")) == (
        True, "fewer than three conics; plane sections always meet")
    # x0 restricts to a line that both of the first two conics contain
    assert _plane_trial([x0x1, x0x2, x3x4], 4, field, rng.child("line")) == (
        True, "a pair of restricted conics shares a component")


# the plane spanned by e0, e1, e2 in P^4: a Gram matrix restricts to its
# upper-left 3x3 block
COORDINATE_PLANE = [[int(r == c) for c in range(3)] for r in range(5)]
# conics through (0:0:1), so none has an x2^2 term on the coordinate plane
CONICS_THROUGH_E2 = [
    _gram(4, {(0, 2): 1, (1, 1): 1}),
    _gram(4, {(1, 2): 1, (0, 0): 1}),
    _gram(4, {(0, 2): 1, (1, 2): 2, (0, 1): 3, (3, 3): 1}),
]


@pytest.mark.parametrize("field", PLANE_FIELDS, ids=["q", "fp10007"])
def test_plane_trial_changes_coordinates_until_every_x2_squared_term_is_nonzero(
        field, monkeypatch):
    monkeypatch.setattr(binary_curves, "_random_plane", lambda n, f, rng: COORDINATE_PLANE)
    restricted = [_restrict_to_plane(g, COORDINATE_PLANE, field) for g in CONICS_THROUGH_E2]
    assert not any(g[2][2] for g in restricted)
    changes = []

    def spy(grams, plane, f, _real=_restrict_to_plane):
        changes.append(plane)
        return _real(grams, plane, f)

    monkeypatch.setattr(binary_curves, "_restrict_to_plane", spy)
    # the conics share the point (0:0:1) in every coordinate system
    assert _plane_trial(CONICS_THROUGH_E2, 4, field, as_stream(6)) == (
        True, "pairwise resultants share a root")
    assert changes[:3] == [COORDINATE_PLANE] * 3 and len(changes) >= 6
    assert all(len(c) == 3 for c in changes[3:])
    # when no drawn change of coordinates is invertible, the trial says so
    monkeypatch.setattr(binary_curves, "rank_of", lambda rows, ncols, f: ncols - 1)
    assert _plane_trial(CONICS_THROUGH_E2, 4, field, as_stream(6)) == (
        True, "no leading-coefficient normalization found (inconclusive)")


def test_containment_validation():
    curve = random_binary_curve(4, QQ, 3)
    with pytest.raises(ValueError):
        scroll_containment_witness(curve, 0, 1)
    with pytest.raises(ValueError):
        scroll_containment_witness(curve, 2, 1, h_only=1)


def test_positive_control_is_detected():
    control = scroll_positive_control(11, QQ)
    assert control.n == 4
    assert control.field is QQ
    assert len(quadrics_through(control)) == 3
    verdict = scroll_containment_witness(control, 8, 2)
    assert verdict.verdict == "WITNESS"
    assert verdict.anomalies == []
    hits = sum(1 for rec in verdict.records if rec["hit"])
    assert 2 * hits > 8


def test_positive_control_determinism():
    one = scroll_positive_control(11, QQ)
    two = scroll_positive_control(11, QQ)
    assert one.to_dict() == two.to_dict()


def test_containment_stratified_search():
    curve = random_binary_curve(6, PrimeField(10007), 12)
    verdict = scroll_containment_witness(curve, 4, 9)
    assert verdict.verdict == "NONE_FOUND"
    assert verdict.method == "stratified-heuristic"
    strata = {(rec["h"], rec["k"]) for rec in verdict.records}
    assert strata == {(h, k) for h in (1, 2, 3) for k in (1, 2, 3)}
    for rec in verdict.records:
        if min(rec["h"], rec["k"]) == 1:
            assert rec["method"] == "exact-linear"
            assert rec["solvable"] is False
        else:
            assert rec["method"] == "sampled-evidence"
            assert rec["solvable"] is False
            audit = rec["dimension_audit"]
            assert audit["all_within_bound"] is True
            assert audit["bound"] == 9
            assert audit["binary_family_dim"] == 10


def test_containment_stratified_filters():
    curve = random_binary_curve(6, PrimeField(10007), 12)
    verdict = scroll_containment_witness(curve, 2, 9, h_only=2)
    assert {rec["h"] for rec in verdict.records} == {2}
    verdict = scroll_containment_witness(curve, 2, 9, h_only=2, k_only=3)
    assert [(rec["h"], rec["k"]) for rec in verdict.records] == [(2, 3)]
    # a filter outside 1..floor(n/2) would select no stratum at all
    for h_only, k_only in ((7, None), (4, None), (None, 4), (0, None)):
        with pytest.raises(ValueError):
            scroll_containment_witness(curve, 2, 9, h_only=h_only, k_only=k_only)
    with pytest.raises(ValueError):
        scroll_containment_witness(random_binary_curve(3, PrimeField(10007), 12), 2, 9, k_only=2)


def test_containment_strata():
    # h outer, both in 1..floor(n/2); a filter keeps the strata of that degree
    assert containment_strata(7, k_only=2) == [(1, 2), (2, 2), (3, 2)]
    assert containment_strata(3) == [(1, 1)]
    # the n=4 plane-slicing method has no strata to filter
    assert containment_strata(4) == []
    with pytest.raises(ValueError):
        containment_strata(4, None, 2)


@pytest.mark.parametrize("field", [QQ, PrimeField(10007)], ids=["q", "fp10007"])
@pytest.mark.parametrize("swap", [False, True], ids=["direct", "swapped"])
def test_containment_exact_stratum_of_squared_node_values(field, swap):
    # (s0^2 : s1^2) maps the first component's nodes onto the second's, so
    # stratum (2, 1) is solvable; swapping the components moves it to
    # (1, 2), which solves the node system with the pairs flipped
    params = _SQUARES[::-1] if swap else _SQUARES
    curve = _curve(6, *params, field)
    verdict = scroll_containment_witness(curve, 4, 0)
    assert verdict.verdict == "WITNESS"
    by_stratum = {(rec["h"], rec["k"]): rec for rec in verdict.records}
    solvable = [hk for hk, rec in by_stratum.items() if rec["solvable"]]
    assert solvable == ([(1, 2)] if swap else [(2, 1)])
    rec = by_stratum[solvable[0]]
    assert rec["method"] == "exact-linear"
    assert rec["witness"] == {"q1": ["1", "0", "0"], "q2": ["0", "0", "1"]}
    # the degree-3 kernel holds only multiples of that map, and the exact
    # strata report no gcd-reduced map as their witness
    high = by_stratum[(1, 3) if swap else (3, 1)]
    assert high["kernel_dim"] == 2
    assert high["solvable"] is False


def test_containment_sampled_stratum_witness():
    field = PrimeField(101)
    curve = random_binary_curve(6, field, 0)
    verdict = scroll_containment_witness(curve, 4, 0)
    assert verdict.verdict == "WITNESS"
    found = [rec for rec in verdict.records if rec["solvable"]]
    assert [(rec["h"], rec["k"], rec["method"]) for rec in found] == [
        (2, 3, "sampled-evidence")
    ]
    witness = found[0]["witness"]
    psi = [[field(int(c)) for c in coeffs] for coeffs in witness["psi"]]
    chi = [[field(int(c)) for c in coeffs] for coeffs in witness["chi"]]
    assert [len(f) for f in psi] == [3, 3] and [len(f) for f in chi] == [4, 4]
    assert _coprime_mod(*psi, 101) and _coprime_mod(*chi, 101)
    for (r, s) in curve.node_pairs:
        a = [_value(f, r) for f in psi]
        b = [_value(f, s) for f in chi]
        assert any(a) and any(b)
        assert b[0] * a[1] == b[1] * a[0]


def test_containment_stratified_odd_n():
    curve = random_binary_curve(5, PrimeField(10007), 13)
    verdict = scroll_containment_witness(curve, 2, 14)
    assert verdict.verdict == "NONE_FOUND"
    for rec in verdict.records:
        # no half-dimension audit exists for odd n
        assert "dimension_audit" not in rec


# ---------------------------------------------------------- node projection


def test_projection_drops_genus():
    curve = random_binary_curve(5, QQ, 80)
    image = project_from_node(curve, 0)
    assert image.n == 4
    assert image.arithmetic_genus == curve.arithmetic_genus - 1


def test_projection_preserves_cross_ratios_finite_center():
    curve = random_binary_curve(5, QQ, 81)
    j = 2
    image = project_from_node(curve, j)
    for comp, new_comp in ((curve.comp1, image.comp1), (curve.comp2, image.comp2)):
        old = [v for i, v in enumerate(comp.node_values) if i != j]
        new = list(new_comp.node_values)
        assert cross_ratio(old[0], old[1], old[2], old[3]) == cross_ratio(
            new[0], new[1], new[2], new[3]
        )
        assert cross_ratio(old[1], old[2], old[3], old[4]) == cross_ratio(
            new[1], new[2], new[3], new[4]
        )


def test_projection_preserves_cross_ratios_infinity_center():
    for n, field in ((5, QQ), (5, PrimeField(10007)), (6, QQ), (6, PrimeField(10007))):
        curve = random_binary_curve(n, field, 82)
        image = project_from_node(curve, curve.n + 1)
        for comp, new_comp in ((curve.comp1, image.comp1), (curve.comp2, image.comp2)):
            old = list(comp.node_values)
            new = list(new_comp.node_values)
            # the finite nodes but the last keep their order; the last moves to infinity
            assert len(new) == len(old) - 1
            for i in range(len(new) - 3):
                assert cross_ratio(*old[i:i + 4]) == cross_ratio(*new[i:i + 4])


def test_projection_validation():
    small = _curve(3, (2, 3), (4, 5))
    with pytest.raises(ValueError):
        project_from_node(small, 0)
    curve = random_binary_curve(4, QQ, 83)
    with pytest.raises(ValueError):
        project_from_node(curve, 6)
    with pytest.raises(ValueError):
        project_from_node(curve, -1)


def test_projection_chain_reaches_minimum():
    curve = random_binary_curve(6, QQ, 84)
    image = project_from_node(project_from_node(curve, 1), 3)
    assert image.n == 4
    assert image.arithmetic_genus == 5
