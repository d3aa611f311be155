"""Dense binary forms: arithmetic, exact division, gcd, composition."""

from collections import Counter
from fractions import Fraction

import pytest

from scrollgeom.errors import BothZeroError, FieldMismatchError, InexactDivisionError
from scrollgeom.fields import QQ, FpElement, PrimeField, is_prime_u64
from scrollgeom.forms import (
    GCD_PRIME,
    BinaryForm,
    _coprime_mod_p,
    _as_t_poly,
    _coefficient_rows,
    _poly_divmod,
    _pseudo_divmod,
    _split_forms,
    compose_form,
    divide_exact,
    form_gcd,
    gcd_many,
    random_form,
)
from scrollgeom.rnc import _node_singles
from scrollgeom.rngstream import as_stream

from helpers import (
    count_fp_arithmetic,
    count_fraction_arithmetic,
    oracle_divide_exact,
    oracle_form_gcd,
    oracle_form_mul,
    oracle_form_value,
    oracle_node_product,
    oracle_poly_divmod,
)

ONE = QQ.one
ZERO = QQ.zero


def lp(*coeffs):
    return BinaryForm(len(coeffs) - 1, tuple(Fraction(c) for c in coeffs), QQ)


def test_coefficient_layout():
    # coeffs[j] multiplies s0^(deg-j) * s1^j
    m = BinaryForm.monomial(3, 1, ONE, QQ)
    assert m.coeffs == (0, 1, 0, 0)
    assert m.evaluate(QQ(2), QQ(3)) == 2 * 2 * 3


def test_addition_and_multiplication():
    s0_plus_s1 = lp(1, 1)
    sq = s0_plus_s1 * s0_plus_s1
    assert sq.coeffs == (1, 2, 1)
    assert sq.degree == 2
    assert sq.evaluate(QQ(2), QQ(3)) == 25
    assert (sq - sq).is_zero()
    assert (-sq).coeffs == (-1, -2, -1)
    assert sq.scale(QQ(3)).coeffs == (3, 6, 3)


def test_degree_mismatch_rejected():
    with pytest.raises(ValueError):
        lp(1, 1) + lp(1, 1, 1)


def test_vanishing_at_and_product():
    v = BinaryForm(1, (1, -QQ(5)), QQ)
    assert v.evaluate(QQ(5), ONE) == 0
    assert v.evaluate(ONE, ZERO) == 1
    prod = oracle_node_product([QQ(1), QQ(2), QQ(3)], QQ)
    assert prod.degree == 3
    for r in (1, 2, 3):
        assert prod.evaluate(QQ(r), ONE) == 0
    assert prod.evaluate(QQ(4), ONE) == (4 - 1) * (4 - 2) * (4 - 3)
    # the node product the rnc pass builds on value lists, seen through its singles
    values = [QQ(1), QQ(2), QQ(3)]
    for v, single in zip(values, _node_singles(values, QQ)):
        assert BinaryForm(2, single, QQ) * BinaryForm(1, (1, -v), QQ) == prod
    assert BinaryForm(1, (QQ(2), QQ(-3)), QQ).evaluate(QQ(3), QQ(2)) == 0


def test_divide_exact_frozen():
    # (s0 - 2 s1)(s0 - 3 s1) = s0^2 - 5 s0 s1 + 6 s1^2
    num = lp(1, -5, 6)
    q = divide_exact(num, lp(1, -2))
    assert q.coeffs == (1, -3)
    with pytest.raises(InexactDivisionError):
        divide_exact(lp(1, 0, 1), lp(1, -1))


def test_divide_exact_with_s1_powers():
    # pure s1 factors have no s0-leading coefficient; cover that branch
    num = lp(0, 0, 1, -1)  # s0 s1^2 - s1^3 = s1^2 (s0 - s1)
    q = divide_exact(num, lp(0, 1))
    assert q.coeffs == (0, 1, -1)
    q2 = divide_exact(num, lp(0, 0, 1))
    assert q2.coeffs == (1, -1)


def test_form_gcd_frozen():
    g = form_gcd(lp(0, 1, 0), lp(0, 0, 1))  # gcd(s0 s1, s1^2) = s1
    assert g.coeffs == (0, 1)
    g2 = form_gcd(lp(1, -5, 6), lp(1, -2))
    assert g2.coeffs == (1, -2)
    g3 = form_gcd(lp(1, 0), lp(0, 1))
    assert g3.degree == 0 and not g3.is_zero()
    with pytest.raises(BothZeroError):
        form_gcd(BinaryForm.zero(2, QQ), BinaryForm.zero(1, QQ))


def test_gcd_is_monic_and_divides():
    rng = as_stream(3)
    for _ in range(10):
        g = random_form(2, QQ, rng, nonzero=True)
        a = g * random_form(2, QQ, rng, nonzero=True)
        b = g * random_form(3, QQ, rng, nonzero=True)
        got = form_gcd(a, b)
        # gcd contains g; both divisions must be exact
        divide_exact(a, got)
        divide_exact(b, got)
        assert divide_exact(got, form_gcd(got, g)).degree == got.degree - form_gcd(got, g).degree


def test_gcd_many():
    forms = [lp(0, 1, -1), lp(0, 1, 0), lp(0, 2, 2)]  # all divisible by s1 only
    assert gcd_many(forms).coeffs == (0, 1)


def test_compose_form():
    outer = lp(1, 0, 0)  # s0^2
    comp = compose_form(outer, lp(1, 1), lp(1, -1))
    assert comp.coeffs == (1, 2, 1)
    outer2 = lp(1, -1)  # s0 - s1
    comp2 = compose_form(outer2, lp(1, 1), lp(1, -1))
    assert comp2.coeffs == (0, 2)


def test_valuations():
    f = lp(0, 0, 1, -1)  # s1^2 (s0 - s1)
    assert f.s1_valuation() == 2
    g = lp(0, 1, 0, 0)
    assert g.s1_valuation() == 1


def test_random_form_determinism_and_flags():
    a = random_form(4, QQ, as_stream(8).child("f"))
    b = random_form(4, QQ, as_stream(8).child("f"))
    assert a == b and a.degree == 4
    fp = PrimeField(10007)
    nz = random_form(2, fp, as_stream(8).child("g"), nonzero=True)
    assert not nz.is_zero()


def test_fp_forms_roundtrip():
    fp = PrimeField(7)
    f = BinaryForm(2, (fp(1), fp(5), fp(6)), fp)
    g = BinaryForm(1, (fp(1), fp(2)), fp)  # root at t = -2 = 5
    assert (f * g).degree == 3
    assert g.evaluate(fp(5), fp(1)) == fp(0)
    assert divide_exact(f * g, g) == f


def test_mixed_int_fp_sums_and_scales_reduce():
    f11 = PrimeField(11)
    f = BinaryForm(1, (5, f11(1)), f11)
    total = f + BinaryForm(1, (7, f11(1)), f11)
    assert total == BinaryForm(1, (f11(1), f11(2)), f11)
    assert (f - BinaryForm(1, (7, f11(1)), f11)) == BinaryForm(1, (f11(9), f11(0)), f11)
    assert -f == BinaryForm(1, (f11(6), f11(10)), f11)
    assert f.scale(3) == BinaryForm(1, (f11(4), f11(3)), f11)
    for form in (total, f.scale(3), -f):
        assert all(type(x) is FpElement and x.p == 11 for x in form.coeffs)
    with pytest.raises(FieldMismatchError):
        BinaryForm(1, (Fraction(1, 2), 1), QQ) + BinaryForm(1, (0, f11(1)), f11)


def test_fp_evaluate_edge_cases():
    fp = PrimeField(101)
    # int coefficients mixed with field elements
    mixed = BinaryForm(2, (3, fp(5), -7), fp).evaluate(fp(2), fp(3))
    assert type(mixed) is FpElement and mixed == (3 * 4 + 5 * 6 - 7 * 9) % 101
    assert BinaryForm(1, (fp(2), 1), fp).evaluate(4, 205) == (2 * 4 + 205) % 101
    # the zero form, degree 0 and s1 = 0
    assert BinaryForm.zero(3, fp).evaluate(fp(7), fp(9)) == fp.zero
    constant = BinaryForm(0, (1,), fp).evaluate(fp(3), fp(4))
    assert type(constant) is FpElement and constant == 1
    assert BinaryForm(0, (fp(42),), fp).evaluate(fp(3), fp(0)) == 42
    assert BinaryForm(3, (fp(2), 9, 9, 9), fp).evaluate(fp(5), fp(0)) == 2 * 125 % 101
    assert BinaryForm(3, (fp(2), 9, 9, 9), fp).evaluate(fp(0), fp(1)) == 9
    # a modulus or a rational that does not belong
    with pytest.raises(FieldMismatchError):
        BinaryForm(1, (fp(1), fp(2)), fp).evaluate(PrimeField(103)(1), 1)
    with pytest.raises(FieldMismatchError):
        BinaryForm(1, (PrimeField(103)(1), fp(2)), fp).evaluate(fp(1), fp(1))
    with pytest.raises(FieldMismatchError):
        BinaryForm(1, (fp(1), Fraction(1, 2)), fp).evaluate(fp(1), fp(1))


def test_fp_evaluate_matches_naive_sum():
    hypothesis = pytest.importorskip("hypothesis")
    st = hypothesis.strategies

    @st.composite
    def cases(draw):
        p = draw(st.sampled_from([101, 10007, 2**61 - 1]))
        raw = st.one_of(st.integers(-2 * p, 2 * p), st.sampled_from([0, 1, p - 1]))
        # (value, wrap as FpElement?) per coefficient and per point coordinate
        scalar = st.tuples(raw, st.booleans())
        degree = draw(st.integers(0, 12))
        coeffs = draw(st.lists(scalar, min_size=degree + 1, max_size=degree + 1))
        point = draw(st.lists(scalar, min_size=2, max_size=2))
        return p, coeffs, point

    @hypothesis.settings(max_examples=200, deadline=None)
    @hypothesis.given(cases())
    def check(case):
        p, coeffs, point = case
        form = BinaryForm(len(coeffs) - 1, [FpElement(v, p) if w else v for v, w in coeffs],
                          PrimeField(p))
        s0, s1 = (FpElement(v, p) if w else v for v, w in point)
        d = form.degree
        want = sum(c * point[0][0] ** (d - j) * point[1][0] ** j
                   for j, (c, _) in enumerate(coeffs)) % p
        got = form.evaluate(s0, s1)
        assert type(got) is FpElement and got.p == p and got.val == want

    check()


def test_divide_exact_inverts_multiplication():
    hypothesis = pytest.importorskip("hypothesis")
    st = hypothesis.strategies
    fp = PrimeField(10007)
    fp_scalar = st.one_of(st.integers(0, fp.p - 1), st.sampled_from([0, 1, fp.p - 1])).map(fp)
    q_scalar = st.one_of(
        st.builds(Fraction, st.integers(-30, 30), st.integers(1, 9)), st.just(Fraction(0))
    )

    def forms(scalar, field):
        return st.integers(0, 4).flatmap(
            lambda d: st.lists(scalar, min_size=d + 1, max_size=d + 1).map(
                lambda cs: BinaryForm(len(cs) - 1, cs, field)
            )
        )

    @hypothesis.settings(max_examples=200, deadline=None)
    @hypothesis.given(st.one_of(
        st.tuples(forms(q_scalar, QQ), forms(q_scalar, QQ)),
        st.tuples(forms(fp_scalar, fp), forms(fp_scalar, fp)),
    ))
    def check(pair):
        f, g = pair
        hypothesis.assume(not g.is_zero())
        assert divide_exact(f * g, g) == f

    check()


# ------------------------------------------------- rational fast paths


def _no_floats(form):
    return not any(isinstance(c, float) for c in form.coeffs)


def _as_fractions(form):
    return BinaryForm(form.degree, [Fraction(c) for c in form.coeffs], QQ)


def test_int_coefficient_division_stays_exact():
    cases = [
        (BinaryForm(1, (1, 2), QQ), BinaryForm(1, (1, 3), QQ)),
        (BinaryForm(2, (2, 3, 1), QQ), BinaryForm(1, (2, 1), QQ)),
        (BinaryForm(2, (0, 3, 6), QQ), BinaryForm(2, (0, 0, 4), QQ)),
        (BinaryForm.zero(1, QQ), BinaryForm(1, (3, 2), QQ)),
    ]
    for f, g in cases:
        got = form_gcd(f, g)
        assert _no_floats(got)
        assert got == form_gcd(_as_fractions(f), _as_fractions(g)) == oracle_form_gcd(f, g)
        many = gcd_many([f, g, g])
        assert _no_floats(many)
        assert many == gcd_many([_as_fractions(f), _as_fractions(g), _as_fractions(g)])
    single = gcd_many([BinaryForm(1, (2, 3), QQ)])
    assert _no_floats(single) and single.coeffs == (1, Fraction(3, 2))
    q = divide_exact(BinaryForm(2, (2, 3, 1), QQ), BinaryForm(1, (2, 1), QQ))
    assert _no_floats(q) and q.coeffs == (1, 1)
    assert q == divide_exact(lp(2, 3, 1), lp(2, 1))
    q2 = divide_exact(BinaryForm(2, (3, 0, -3), QQ), BinaryForm(1, (2, 2), QQ))
    assert _no_floats(q2) and q2.coeffs == (Fraction(3, 2), Fraction(-3, 2))


def test_gcd_prime_is_a_61_bit_prime():
    assert is_prime_u64(GCD_PRIME) and GCD_PRIME.bit_length() == 61


def test_coprime_rational_forms_skip_the_rational_euclid(monkeypatch):
    import scrollgeom.forms as forms

    def refuse(num, den):
        # the rational Euclid runs on the integer remainders of this core
        raise AssertionError("integer Euclid ran on certified-coprime forms")

    monkeypatch.setattr(forms, "_pseudo_divmod", refuse)
    got = form_gcd(lp(0, 1, Fraction(1, 3), 5), lp(0, 0, Fraction(-7, 2), 1))
    assert got.coeffs == (0, 1) and type(got.coeffs[1]) is Fraction
    assert form_gcd(lp(1, 2), lp(3)).coeffs == (1,)
    # the refusal is live: a common factor does reach the core
    with pytest.raises(AssertionError, match="integer Euclid"):
        form_gcd(lp(1, -2) * lp(1, 1), lp(1, -2) * lp(1, 3))


def test_gcd_certificate_refuses_lost_degree_and_falls_back():
    p = GCD_PRIME
    t = lp(1, 0)
    h = lp(p, 1)  # p divides the leading coefficient of the common factor
    f, g = h * t, h * lp(1, 1)  # mod p: t and t + 1, coprime; over Q: gcd h
    assert not _coprime_mod_p(_as_t_poly(f)[1], _as_t_poly(g)[1])
    assert form_gcd(f, g) == oracle_form_gcd(f, g) == BinaryForm(1, (1, Fraction(1, p)), QQ)
    h2 = lp(1, Fraction(1, p))  # p divides a denominator, and so the cleared leads
    f2, g2 = h2 * t, h2 * lp(1, 1)
    assert not _coprime_mod_p(_as_t_poly(f2)[1], _as_t_poly(g2)[1])
    assert form_gcd(f2, g2) == oracle_form_gcd(f2, g2) == h2
    # a denominator p beside a lead of 1 clears to p + t: certified coprime
    assert _coprime_mod_p(_as_t_poly(lp(Fraction(1, p), 1))[1], _as_t_poly(lp(1, 1))[1])
    # coprime over Q, but both reduce to t mod p: not certified, yet coprime
    f3, g3 = t, lp(1, -p)
    assert not _coprime_mod_p(_as_t_poly(f3)[1], _as_t_poly(g3)[1])
    assert form_gcd(f3, g3) == oracle_form_gcd(f3, g3) == lp(1)


def _rational_form_strategy(st, max_degree):
    scalar = st.one_of(
        st.builds(Fraction, st.integers(-30, 30), st.integers(1, 9)),
        st.integers(-5, 5),
        st.just(Fraction(0)),
    )
    return st.integers(0, max_degree).flatmap(
        lambda d: st.lists(scalar, min_size=d + 1, max_size=d + 1).map(
            lambda cs: BinaryForm(len(cs) - 1, cs, QQ)
        )
    ).filter(lambda f: not f.is_zero())


def test_form_gcd_matches_oracle_on_planted_factors():
    hypothesis = pytest.importorskip("hypothesis")
    st = hypothesis.strategies
    forms_st = _rational_form_strategy(st, 3)

    @hypothesis.settings(max_examples=200, deadline=None)
    @hypothesis.given(forms_st, forms_st, forms_st, forms_st)
    def check(h, a, b, c):
        f, g, k = h * a, h * b, h * c
        want = oracle_form_gcd(f, g)
        got = form_gcd(f, g)
        assert got == want and got.degree == want.degree
        assert all(type(x) is Fraction for x in got.coeffs)
        assert got.degree >= h.degree
        assert gcd_many([f, g, k]) == oracle_form_gcd(want, k)

    check()


def test_form_gcd_agrees_with_sympy():
    sympy = pytest.importorskip("sympy")
    s0, s1 = sympy.symbols("s0 s1")

    def expr(form):
        return sum(
            sympy.Rational(c.numerator, c.denominator) * s0 ** (form.degree - j) * s1 ** j
            for j, c in enumerate(form.coeffs)
        )

    rng = as_stream(71)
    for trial in range(12):
        common = random_form(trial % 3, QQ, rng, nonzero=True)
        if trial % 4 == 0:
            common = common * lp(0, 1)  # a shared s1 factor
        f = common * random_form(2 + trial % 2, QQ, rng, nonzero=True)
        g = common * random_form(3, QQ, rng, nonzero=True)
        got = expr(form_gcd(f, g))
        want = sympy.gcd(expr(f), expr(g))
        quotient, remainder = sympy.div(want, got, s0, s1)
        assert remainder == 0 and not quotient.free_symbols and quotient != 0


def test_rational_product_matches_schoolbook_loop():
    rng = as_stream(72)
    fp = PrimeField(10007)
    cases = [
        (lp(Fraction(1, 2), Fraction(-2, 3), 5), lp(Fraction(7, 4), 0, Fraction(1, 6))),
        (BinaryForm(1, (1, 2), QQ), lp(Fraction(1, 3), Fraction(3, 5))),
        (BinaryForm(0, (1,), QQ), lp(Fraction(9, 10), 0, Fraction(-1, 10))),
        (lp(0, 0), lp(Fraction(1, 2))),
        (BinaryForm(2, (1, -2, 3), QQ), BinaryForm(1, (4, 5), QQ)),
        (BinaryForm(1, (fp(3), fp(4)), fp), BinaryForm(1, (fp(5), fp(10006)), fp)),
    ]
    for _ in range(10):
        f, g = (BinaryForm(d, [Fraction(rng.randint(-99, 99), rng.randint(1, 30))
                               for _ in range(d + 1)], QQ) for d in (4, 3))
        cases.append((f, g))
    for f, g in cases:
        got, want = f * g, oracle_form_mul(f, g)
        assert got == want
        assert [type(x) for x in got.coeffs] == [type(x) for x in want.coeffs]
    # int * int = 35 over F_11 is reduced by both the product and the oracle
    f11 = PrimeField(11)
    f, g = BinaryForm(1, (5, f11(1)), f11), BinaryForm(1, (7, f11(1)), f11)
    got = f * g
    assert got == BinaryForm(2, (f11(2), f11(1), f11(1)), f11) == oracle_form_mul(f, g)
    assert all(type(x) is FpElement and x.p == 11 for x in got.coeffs)
    with pytest.raises(FieldMismatchError):
        BinaryForm(1, (0.5, 1), QQ) * BinaryForm(0, (Fraction(1, 3),), QQ)


# ------------------------------------------------- rational kernels on ints


def test_rational_evaluation_builds_one_fraction_and_no_arithmetic(monkeypatch):
    f = lp(Fraction(1, 2), Fraction(-2, 3), 5, Fraction(7, 4))
    ints = BinaryForm(3, (4, -1, 0, 9), QQ)
    point = (Fraction(3, 5), Fraction(-2, 7))
    want = [oracle_form_value(f, *point), oracle_form_value(ints, 2, -3),
            oracle_form_value(ints, *point)]
    calls = count_fraction_arithmetic(monkeypatch)
    got = f.evaluate(*point)
    assert calls == Counter({"__new__": 1})
    calls.clear()
    got_ints = ints.evaluate(2, -3)
    assert not calls and type(got_ints) is int
    got_point = ints.evaluate(*point)
    assert calls == Counter({"__new__": 1})
    # the counters do see Fraction arithmetic
    calls.clear()
    _ = Fraction(1, 2) + 1
    assert calls["__add__"] == 1
    monkeypatch.undo()
    assert [got, got_ints, got_point] == want


def test_rational_evaluate_matches_the_oracle_value_and_type():
    hypothesis = pytest.importorskip("hypothesis")
    st = hypothesis.strategies
    scalar = st.one_of(
        st.integers(-40, 40),
        st.builds(Fraction, st.integers(-40, 40), st.integers(1, 12)),
    )
    point = st.one_of(
        st.tuples(scalar, scalar).filter(any),
        st.sampled_from([(1, 0), (0, 1), (Fraction(1), 0), (0, Fraction(1))]),
    )
    forms_st = st.integers(0, 9).flatmap(
        lambda d: st.lists(scalar, min_size=d + 1, max_size=d + 1).map(
            lambda cs: BinaryForm(len(cs) - 1, cs, QQ)
        )
    )

    @hypothesis.settings(max_examples=300, deadline=None)
    @hypothesis.given(forms_st, point)
    @hypothesis.example(BinaryForm(0, (3,), QQ), (0, Fraction(1)))
    @hypothesis.example(BinaryForm(2, (1, -2, 1), QQ), (Fraction(1, 2), 0))
    def check(form, at):
        got, want = form.evaluate(*at), oracle_form_value(form, *at)
        assert got == want and type(got) is type(want)
        inputs = form.values + tuple(at)
        assert type(got) is (int if all(type(x) is int for x in inputs) else Fraction)

    check()


def test_pseudo_division_is_the_rational_division_scaled():
    hypothesis = pytest.importorskip("hypothesis")
    st = hypothesis.strategies
    ints = st.lists(st.integers(-50, 50), min_size=1, max_size=9)

    @hypothesis.settings(max_examples=300, deadline=None)
    @hypothesis.given(ints, ints)
    def check(num, den):
        hypothesis.assume(den[-1])
        quot, rem, scale = _pseudo_divmod(num, den)
        assert scale and len(rem) <= max(len(den) - 1, 1)
        # scale * num == quot * den + rem, entry by entry
        product = [0] * (len(quot) + len(den) - 1)
        for i, q in enumerate(quot):
            for j, d in enumerate(den):
                product[i + j] += q * d
        padded = rem + [0] * (len(product) - len(rem))
        lhs = [scale * x for x in num] + [0] * (len(product) - len(num))
        assert lhs == [p + r for p, r in zip(product, padded)]
        # the rational remainder, scaled: the same degree in a Euclid step
        want_quot, want_rem = oracle_poly_divmod(num, den, QQ)
        assert _poly_divmod(num, den) == (want_quot, want_rem)
        assert [Fraction(r, scale) for r in rem][:len(want_rem)] == want_rem

    check()


def test_rational_gcd_builds_only_the_monic_gcd(monkeypatch):
    h = lp(2, Fraction(-1, 3), Fraction(5, 2))
    f = h * lp(Fraction(1, 2), 3)
    g = h * lp(Fraction(-3, 4), 1, Fraction(2, 5))
    assert not _coprime_mod_p(_as_t_poly(f)[1], _as_t_poly(g)[1])
    want = oracle_form_gcd(f, g)
    calls = count_fraction_arithmetic(monkeypatch)
    got = form_gcd(f, g)
    # the Euclid runs on ints; only the monic gcd's 3 entries are built
    assert calls == Counter({"__new__": 3})
    monkeypatch.undo()
    assert got == want and got.degree == 2
    assert all(type(x) is Fraction for x in got.coeffs)


def test_form_gcd_of_planted_pairs_up_to_degree_8_agrees_with_sympy():
    sympy = pytest.importorskip("sympy")
    s0, s1 = sympy.symbols("s0 s1")

    def expr(form):
        return sum(
            sympy.Rational(c.numerator, c.denominator) * s0 ** (form.degree - j) * s1 ** j
            for j, c in enumerate(form.coeffs)
        )

    def rational_form(degree):
        return BinaryForm(degree, [
            Fraction(rng.randint(-99, 99), rng.randint(1, 30)) for _ in range(degree + 1)
        ], QQ)

    rng = as_stream(74)
    seen = set()
    for trial in range(24):
        common = rational_form(1 + trial % 4)
        if trial % 5 == 0:
            common = common * lp(0, 1)  # a shared s1 factor
        f = common * rational_form(8 - common.degree - trial % 2)
        g = common * rational_form(7 - common.degree)
        got = form_gcd(f, g)
        want = sympy.gcd(expr(f), expr(g))
        quotient, remainder = sympy.div(want, expr(got), s0, s1)
        assert remainder == 0 and not quotient.free_symbols and quotient != 0
        assert got == oracle_form_gcd(f, g) and got.degree >= common.degree
        seen.add((f.degree, g.degree))
    assert (8, 7) in seen and (7, 7) in seen


# ------------------------------------------------- prime-field division


def _all_fp(form, p):
    return all(type(c) is FpElement and c.p == p for c in form.coeffs)


def test_prime_field_gcd_does_no_fp_element_arithmetic(monkeypatch):
    fp = PrimeField(10007)
    rng = as_stream(73)
    common = random_form(3, fp, rng, nonzero=True)
    f = common * random_form(5, fp, rng, nonzero=True)
    g = common * random_form(5, fp, rng, nonzero=True)
    assert f.degree == g.degree == 8
    want = oracle_form_gcd(f, g, fp)
    calls = count_fp_arithmetic(monkeypatch)
    got = form_gcd(f, g)
    assert not calls
    # the counters do see FpElement arithmetic
    _ = fp.one + fp.one
    assert calls["__add__"] == 1
    monkeypatch.undo()
    assert got == want and got.degree >= 3 and _all_fp(got, fp.p)


def test_int_multiples_of_p_make_a_prime_field_form_zero():
    f11 = PrimeField(11)
    z = BinaryForm(1, (11, f11(0)), f11)
    assert z.is_zero() and BinaryForm(2, (f11(0), -22, 0), f11).is_zero()
    assert not BinaryForm(1, (12, f11(0)), f11).is_zero()
    with pytest.raises(BothZeroError):
        form_gcd(z, z)
    with pytest.raises(ZeroDivisionError):
        divide_exact(BinaryForm(1, (f11(1), 2), f11), z)


def test_prime_field_division_outputs_are_field_elements():
    f11 = PrimeField(11)
    h = BinaryForm(2, (f11(3), 5, 0), f11)  # an int beside FpElements
    g = BinaryForm(1, (1, f11(4)), f11)
    q = divide_exact(h * g, g)
    assert q == h and _all_fp(q, 11)
    k = BinaryForm(1, (2, 8), f11)
    got = form_gcd(h * g, k * g)
    assert got == oracle_form_gcd(h * g, k * g, f11) and _all_fp(got, 11)
    # 22*s0 + 3*s1 is 3*s1 mod 11: an int that is zero mod p is no lead
    got = form_gcd(BinaryForm(1, (22, f11(3)), f11), BinaryForm(1, (f11(0), 5), f11))
    assert got == BinaryForm(1, (0, 1), f11) and _all_fp(got, 11)
    single = gcd_many([BinaryForm(1, (f11(2), 3), f11)])
    assert single.coeffs == (f11(1), f11(7)) and _all_fp(single, 11)


def test_prime_field_division_matches_fp_element_long_division():
    hypothesis = pytest.importorskip("hypothesis")
    st = hypothesis.strategies
    fp = PrimeField(101)
    residues = st.lists(st.integers(0, 100), min_size=1, max_size=8)

    @hypothesis.settings(max_examples=200, deadline=None)
    @hypothesis.given(residues, residues)
    def check(num, den):
        hypothesis.assume(den[-1])
        quot, rem = _poly_divmod(num, den, fp.p)
        want_quot, want_rem = oracle_poly_divmod(num, den, fp)
        assert quot == want_quot and rem == want_rem
        assert all(type(x) is int and 0 <= x < fp.p for x in quot + rem)

    check()


def _mixed_fp_forms(st, field, max_degree):
    # each coefficient an unreduced int or an FpElement
    coeff = st.tuples(st.integers(-300, 300), st.booleans()).map(
        lambda pair: field(pair[0]) if pair[1] else pair[0]
    )
    return st.integers(0, max_degree).flatmap(
        lambda d: st.lists(coeff, min_size=d + 1, max_size=d + 1).map(
            lambda cs: BinaryForm(len(cs) - 1, cs, field)
        )
    )


def test_prime_field_gcd_and_division_match_fp_element_oracles():
    hypothesis = pytest.importorskip("hypothesis")
    st = hypothesis.strategies
    fp = PrimeField(101)
    forms_st = _mixed_fp_forms(st, fp, 4)

    def nonzero(form):
        return any(fp(c) for c in form.coeffs)

    @hypothesis.settings(max_examples=200, deadline=None)
    @hypothesis.given(forms_st, forms_st, forms_st)
    def check(h, a, b):
        hypothesis.assume(nonzero(h) and nonzero(a) and nonzero(b))
        f, g = h * a, h * b
        got = form_gcd(f, g)
        assert got == oracle_form_gcd(f, g, fp) and _all_fp(got, fp.p)
        assert got.degree >= h.degree
        for num, den in ((f, h), (a, b), (b, a)):
            want = oracle_divide_exact(num, den, fp)
            if want is None:
                with pytest.raises(InexactDivisionError):
                    divide_exact(num, den)
            else:
                q = divide_exact(num, den)
                assert q == want and _all_fp(q, fp.p)

    check()


# ------------------------------------------------- forms carry their field


def test_forms_carry_their_field():
    f11 = PrimeField(11)
    assert BinaryForm.zero(3, PrimeField(11)).field == PrimeField(11)
    f = BinaryForm(2, [1, 13, -1], f11)  # plain ints, reduced into F_11
    g = BinaryForm(1, [1, 4], f11)
    assert f.field is f11 and f.values == (1, 2, 10) and _all_fp(f, 11)
    h = BinaryForm(1, [2, 5], f11)
    results = {
        "+": f + f,
        "*": f * g,
        "scale": f.scale(3),
        "divide_exact": divide_exact(f * g, g),
        "form_gcd": form_gcd(f * g, g * h),
        "compose_form": compose_form(f, g, h),
    }
    for name, form in results.items():
        assert form.field == f11 and _all_fp(form, 11), name
    assert results["divide_exact"] == f and results["form_gcd"] == g


_BINARY_OPS = {
    "+": lambda f, g: f + g,
    "-": lambda f, g: f - g,
    "*": lambda f, g: f * g,
    "divide_exact": divide_exact,
    "form_gcd": form_gcd,
    "compose_form": lambda f, g: compose_form(f, g, g),
}


@pytest.mark.parametrize("op", sorted(_BINARY_OPS))
def test_forms_of_two_fields_do_not_mix(op):
    f11, f13 = PrimeField(11), PrimeField(13)
    over_11 = BinaryForm(1, (f11(1), f11(2)), f11)
    over_13 = BinaryForm(1, (f13(1), f13(2)), f13)
    rational = BinaryForm(1, (Fraction(1, 2), 1), QQ)
    # all its coefficients are ints, which embed in F_11, yet the form is rational
    int_rational = BinaryForm(1, (1, 2), QQ)
    pairs = [(over_11, over_13), (over_13, over_11), (rational, over_11), (over_11, rational),
             (int_rational, over_11), (over_11, int_rational)]
    for f, g in pairs:
        with pytest.raises(FieldMismatchError):
            _BINARY_OPS[op](f, g)


def test_scalars_of_another_field_do_not_mix():
    f11, f13 = PrimeField(11), PrimeField(13)
    cases = [
        (BinaryForm(1, (1, 2), f11), f13(3)),
        (BinaryForm(1, (1, 2), QQ), f11(3)),
        (BinaryForm(1, (1, 2), f11), Fraction(1, 2)),
    ]
    for form, foreign in cases:
        for use in (form.scale, lambda x: form.evaluate(x, 1), lambda x: form.evaluate(1, x)):
            with pytest.raises(FieldMismatchError):
                use(foreign)


# ------------------------------------------------- linear systems on forms


def _form_systems(st, field):
    """(degrees, forms, conditions): one to four forms of degree 0..6 over field.

    Over the rationals the scalars are ints and Fractions; over F_p they
    are unreduced ints, as the callers' negated residues are.
    """
    if field == QQ:
        scalar = st.one_of(
            st.integers(-40, 40), st.builds(Fraction, st.integers(-40, 40), st.integers(1, 12))
        )
    else:
        scalar = st.integers(-300, 300)

    def system(degrees):
        forms = st.tuples(*[
            st.lists(scalar, min_size=d + 1, max_size=d + 1).map(
                lambda cs, d=d: BinaryForm(d, cs, field)
            )
            for d in degrees
        ])
        weights = st.lists(scalar, min_size=len(degrees), max_size=len(degrees))
        conditions = st.lists(st.tuples(scalar, scalar, weights), max_size=5)
        return st.tuples(st.just(tuple(degrees)), forms, conditions)

    return st.lists(st.integers(0, 6), min_size=1, max_size=4).flatmap(system)


@pytest.mark.parametrize("field", [QQ, PrimeField(101)], ids=["q", "fp101"])
def test_coefficient_rows_evaluate_the_weighted_forms(field):
    hypothesis = pytest.importorskip("hypothesis")

    @hypothesis.settings(max_examples=200, deadline=None)
    @hypothesis.given(_form_systems(hypothesis.strategies, field))
    def check(system):
        degrees, forms, conditions = system
        rows = _coefficient_rows(conditions, degrees, field)
        values = [x for f in forms for x in f.values]
        assert len(rows) == len(conditions)
        for row, (s0, s1, weights) in zip(rows, conditions):
            assert len(row) == len(values)
            if field != QQ:
                assert all(type(x) is int and 0 <= x < field.p for x in row)
            got = field.reduce([sum(x * v for x, v in zip(row, values))])
            want = sum(w * oracle_form_value(f, s0, s1) for w, f in zip(weights, forms))
            assert got == field.unwrap([want])

    check()


@pytest.mark.parametrize("field", [QQ, PrimeField(101)], ids=["q", "fp101"])
def test_split_forms_inverts_the_concatenation(field):
    hypothesis = pytest.importorskip("hypothesis")

    @hypothesis.settings(max_examples=200, deadline=None)
    @hypothesis.given(_form_systems(hypothesis.strategies, field))
    def check(system):
        degrees, forms, _ = system
        coeffs = tuple(c for f in forms for c in f.coeffs)
        assert _split_forms(coeffs, degrees, field) == list(forms)

    check()
