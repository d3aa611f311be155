"""Field layer: exact scalars, parsing, seeded sampling."""

from collections import Counter
from fractions import Fraction

import pytest

from scrollgeom.errors import FieldMismatchError, FieldTooSmallError
from scrollgeom.fields import (
    QQ,
    RATIONAL_SPAN,
    FpElement,
    PrimeField,
    distinct_values,
    is_prime_u64,
    parse_field,
    random_distinct,
    random_nonzero,
    scalar_to_str,
)
from scrollgeom.rngstream import RngStream, as_stream


def test_rational_field_basics():
    assert QQ(3) == Fraction(3)
    assert QQ(1, 3) == Fraction(1, 3)
    assert QQ.zero == 0 and QQ.one == 1
    assert type(QQ.zero) is type(QQ.one) is int
    ratio = QQ(3) / QQ(5)
    assert type(ratio) is Fraction and ratio == Fraction(3, 5)
    assert QQ.name == "q"


def test_fp_arithmetic_small_prime():
    f7 = PrimeField(7)
    a, b = f7(3), f7(5)
    assert a + b == f7(1)
    assert a * b == f7(1)
    assert -a == f7(4)
    assert a - b == f7(5)
    assert f7(1) / a == f7(5)
    assert bool(f7(0)) is False and bool(a) is True


def test_fp_element_passthrough_and_modulus_check():
    f7 = PrimeField(7)
    x = f7(3)
    assert f7(x) is x or f7(x) == x
    with pytest.raises(FieldMismatchError):
        PrimeField(11)(x)
    # only ints and elements of the same field convert, never by truncation
    with pytest.raises(FieldMismatchError):
        f7(Fraction(1, 2))
    with pytest.raises(FieldMismatchError):
        f7(2.9)
    assert f7(-1) == f7(6) and f7(-1).val == 6
    with pytest.raises(FieldMismatchError):
        _ = x + PrimeField(11)(3)


def test_fp_element_equals_only_its_residue_among_ints():
    x = FpElement(3, 7)
    assert x == 3 and 3 == x
    assert x != 10 and x != -4 and 10 != x
    assert x != FpElement(3, 11)
    assert x != Fraction(3)


def test_fp_element_hash_agrees_with_equality():
    x = FpElement(3, 7)
    assert hash(x) == hash(3) == hash(FpElement(10, 7))
    assert 3 in {x} and x in {3}
    assert 10 not in {x}
    assert {x: "a"}[3] == "a" and {3: "b"}[x] == "b"
    assert Counter([x, 3, FpElement(10, 7)])[3] == 3
    assert len({FpElement(v, 7) for v in range(21)}) == 7


def test_prime_field_rejects_composites():
    for bad in (1, 4, 6, 9, 10):
        with pytest.raises(ValueError):
            PrimeField(bad)


def test_is_prime_u64_miller_rabin_branch():
    assert not is_prime_u64(0) and not is_prime_u64(1)
    # composites with no factor up to 37 reach the Miller-Rabin rounds
    assert 41 * 43 == 1763 and 151 * 751 * 28351 == 3215031751
    assert not is_prime_u64(1763)
    assert not is_prime_u64(3215031751)
    assert is_prime_u64(2**31 - 1) and is_prime_u64(2**61 - 1)
    with pytest.raises(ValueError):
        parse_field("fp:1763")


def test_parse_field():
    assert parse_field("q") is QQ
    fp = parse_field("fp:10007")
    assert isinstance(fp, PrimeField) and fp.p == 10007
    with pytest.raises(ValueError):
        parse_field("gf256")
    with pytest.raises(ValueError):
        parse_field("fp:15")


def test_scalar_to_str_exact():
    assert scalar_to_str(Fraction(3, 2)) == "3/2"
    assert scalar_to_str(Fraction(-3, 2)) == "-3/2"
    assert scalar_to_str(Fraction(4, 2)) == "2"
    assert scalar_to_str(7) == "7"
    assert scalar_to_str(PrimeField(10007)(123)) == "123"
    for bad in (0.1, 2.0, "7", None):
        with pytest.raises(TypeError):
            scalar_to_str(bad)


def test_random_scalar_deterministic_and_bounded():
    draws1 = [QQ.random_scalar(as_stream(99).child("x")) for _ in range(1)]
    draws2 = [QQ.random_scalar(as_stream(99).child("x")) for _ in range(1)]
    assert draws1 == draws2
    rng = as_stream(5)
    for _ in range(50):
        v = QQ.random_scalar(rng)
        assert isinstance(v, (int, Fraction)) and -999 <= v <= 999
    fp = PrimeField(10007)
    for _ in range(50):
        v = fp.random_scalar(rng)
        assert isinstance(v, FpElement) and 0 <= v.val < 10007


def test_random_nonzero_and_distinct():
    rng = as_stream(17)
    assert random_nonzero(QQ, rng) != 0
    vals = random_distinct(QQ, rng, 6, exclude=(QQ.zero, QQ.one))
    assert len(set(vals)) == 6
    assert all(v not in (0, 1) for v in vals)
    with pytest.raises(FieldTooSmallError):
        random_distinct(PrimeField(5), rng, 4)
    f101 = PrimeField(101)
    vals = random_distinct(f101, rng, 20, exclude=(f101.zero, f101.one))
    assert len(set(vals)) == 20 and not {0, 1} & set(vals)


DRAW_FIELDS = [QQ, PrimeField(3), PrimeField(101), PrimeField(10007), PrimeField(2**61 - 1)]
DRAW_IDS = ["q", "fp3", "fp101", "fp10007", "fp2^61-1"]


def _twins(label):
    return as_stream(7).child(label), as_stream(7).child(label)


def _working(field, values):
    """True when values are working values: ints, residues in [0, p) over F_p."""
    return all(type(x) is int and (field is QQ or 0 <= x < field.p) for x in values)


@pytest.mark.parametrize("field", DRAW_FIELDS, ids=DRAW_IDS)
def test_random_value_is_random_scalar_unwrapped(field):
    # the working-value draw and its field-element view take the same
    # draws from twin streams
    rng, twin = _twins("scalar")
    drawn = [field.random_value(rng) for _ in range(60)]
    handed = [field.random_scalar(twin) for _ in range(60)]
    assert _working(field, drawn)
    assert drawn == field.unwrap(handed)
    assert all(type(x) is (int if field is QQ else FpElement) for x in handed)
    assert rng.counter == twin.counter > 0


@pytest.mark.parametrize("field", DRAW_FIELDS, ids=DRAW_IDS)
def test_distinct_values_are_random_distinct_unwrapped(field):
    for count, exclude in ((5, ()), (5, (0, 1)), (20, (0, 1))):
        rng, twin = _twins(f"distinct{count}-{len(exclude)}")
        bound = 4 * (count + len(exclude))
        if field is not QQ and field.p < bound:
            # the sampler's bound refuses both before any draw
            for sample, stream, fixed in ((distinct_values, rng, exclude),
                                          (random_distinct, twin, [field(x) for x in exclude])):
                with pytest.raises(FieldTooSmallError, match=f"needs p >= {bound}"):
                    sample(field, stream, count, fixed)
            assert rng.counter == twin.counter == 0
            continue
        drawn = distinct_values(field, rng, count, exclude)
        handed = random_distinct(field, twin, count, exclude=[field(x) for x in exclude])
        assert _working(field, drawn)
        assert len(set(drawn)) == count and not set(drawn) & set(exclude)
        assert drawn == field.unwrap(handed)
        assert rng.counter == twin.counter >= count


def test_rational_distinct_values_need_four_times_as_many_integers():
    # the rational draws come from the 2 * RATIONAL_SPAN + 1 integers in
    # [-RATIONAL_SPAN, RATIONAL_SPAN]: the sampler's bound applies to them
    span = 2 * RATIONAL_SPAN + 1
    assert span == 1999
    for count, exclude in ((498, (0, 1)), (500, ()), (2099, (0, 1))):
        rng, twin = _twins(f"rational{count}")
        for sample, stream in ((distinct_values, rng), (random_distinct, twin)):
            with pytest.raises(FieldTooSmallError, match=(
                    f"^rejection sampling of {count} distinct scalars avoiding {len(exclude)} "
                    rf"fixed values needs {4 * (count + len(exclude))} integers to draw from, "
                    rf"got {span} in \[-{RATIONAL_SPAN}, {RATIONAL_SPAN}\]$")):
                sample(QQ, stream, count, exclude)
        assert rng.counter == twin.counter == 0
    # the largest request the span admits, 4 * 499 <= 1999, draws
    drawn = distinct_values(QQ, as_stream(3), 497, (0, 1))
    assert len(set(drawn)) == 497 and not {0, 1} & set(drawn)
    assert all(-RATIONAL_SPAN <= x <= RATIONAL_SPAN for x in drawn)


def test_field_names_round_trip():
    for name in ("q", "fp:10007", "fp:7"):
        assert parse_field(name).name == name


def test_draw_bounds_above_64_bits_raise_before_drawing():
    # one 64-bit draw per attempt: a larger bound would reject every draw
    p = 2**61 - 1
    for draw in (lambda rng: rng.below(2**64 + 1), lambda rng: rng.randint(-p**3, p**3)):
        rng = as_stream(1)
        with pytest.raises(ValueError):
            draw(rng)
        assert rng.counter == 0
    # 2**64 itself accepts every draw, unchanged
    assert as_stream(1).below(2**64) == RngStream.from_seed(1).next_u64()


def test_randint_rejects_an_empty_range_before_drawing():
    rng = as_stream(1)
    with pytest.raises(ValueError, match="empty range"):
        rng.randint(3, 2)
    assert rng.counter == 0
    assert as_stream(1).randint(2, 2) == 2
