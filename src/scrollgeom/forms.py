"""Homogeneous binary forms with exact coefficients over a field.

A form of degree d in the variables s0, s1 is a dense tuple of d+1
coefficients, entry j holding the coefficient of s0^(d-j) * s1^j.
Forms are immutable; the formal degree is part of the value, so the zero
form of degree 2 and the zero form of degree 3 are distinct objects.

A form is built over a field its caller names and stores that field's
working values (``values``): int residues in [0, p) over F_p, ints or
Fractions over the rationals.  ``coeffs`` hands them out as field
elements, FpElements over F_p.  Every operation runs one code path for
both fields on the stored values and ends in ``field.reduce``.  Forms
over one field stay in it: forms of two fields, or a scalar from
another field, raise FieldMismatchError (ints embed in every field).

Over the rationals the kernels run on ints cleared of denominators, and
a Fraction is built only for an output, through ``_div``, the one true
division in the package, which divides two ints as rationals, never as
floats.  A product is one integer convolution, with one Fraction per
output coefficient when a denominator is left.  Evaluation is one
homogeneous Horner pass; over the rationals it runs on the cleared
coefficients and point and divides once.  Division and the Euclid work
on t-polynomials: over F_p with one modular inverse of the divisor's
lead per division, over the rationals by one fraction-free
pseudo-division on ints (``_pseudo_divmod``), with one ``_div`` per
output entry.  A gcd of rational forms first reduces both modulo a fixed
61-bit prime, where a Euclid that ends in a constant certifies that the
forms are coprime over the rationals.  Otherwise its Euclid is the
primitive remainder sequence on ints, and only the monic gcd at the end
builds Fractions.

Every linear system on the coefficients of a few forms, conditions
sum_i w_i * f_i(s0 : s1) = 0, has one layout, which lives in two
helpers: ``_coefficient_rows`` states each condition as one
combination, the weights times one monomial vector per form, placed at
the form's coefficients (the forms in order, each in the order above),
and ``_split_forms`` cuts a kernel vector back into forms.  The
combinations go to linalg's combination entry points, which pack them
over F_p without writing the rows out.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm

from .errors import BothZeroError, FieldMismatchError, InexactDivisionError

# modulus of the coprimality certificate in form_gcd (the prime 2**61 - 1)
GCD_PRIME = 2**61 - 1


class BinaryForm:
    __slots__ = ("degree", "values", "field")

    def __init__(self, degree: int, coeffs, field):
        """The form over field with these coefficients: field elements or ints."""
        self._store(degree, field.unwrap(tuple(coeffs)), field)

    def _store(self, degree, values, field):
        values = tuple(values)
        if degree < 0 or len(values) != degree + 1:
            raise ValueError(
                f"degree-{degree} form needs {degree + 1} coefficients, got {len(values)}"
            )
        object.__setattr__(self, "degree", degree)
        object.__setattr__(self, "values", values)
        object.__setattr__(self, "field", field)

    def __setattr__(self, name, value):
        raise AttributeError("BinaryForm is immutable")

    @property
    def coeffs(self) -> tuple:
        """The coefficients as field elements: FpElements over F_p."""
        return tuple(self.field.wrap(self.values))

    @classmethod
    def zero(cls, degree: int, field) -> "BinaryForm":
        return _form(degree, [0] * (degree + 1), field)

    @classmethod
    def monomial(cls, degree: int, s1_power: int, scalar, field) -> "BinaryForm":
        """scalar * s0^(degree - s1_power) * s1^s1_power over field."""
        if not 0 <= s1_power <= degree:
            raise ValueError(f"s1 power {s1_power} out of range for degree {degree}")
        coeffs = [0] * (degree + 1)
        coeffs[s1_power] = scalar
        return cls(degree, coeffs, field)

    def is_zero(self) -> bool:
        """True when every coefficient is zero in the field."""
        return not any(self.values)

    def __eq__(self, other):
        if not isinstance(other, BinaryForm):
            return NotImplemented
        return (self.field, self.degree, self.values) == (other.field, other.degree, other.values)

    def __hash__(self):
        return hash((self.degree, self.values))

    def __add__(self, other):
        if not isinstance(other, BinaryForm):
            return NotImplemented
        if self.degree != other.degree:
            raise ValueError(f"degree mismatch: {self.degree} vs {other.degree}")
        field = _common(self, other)
        return _form(self.degree, [a + b for a, b in zip(self.values, other.values)], field)

    def __sub__(self, other):
        if not isinstance(other, BinaryForm):
            return NotImplemented
        if self.degree != other.degree:
            raise ValueError(f"degree mismatch: {self.degree} vs {other.degree}")
        field = _common(self, other)
        return _form(self.degree, [a - b for a, b in zip(self.values, other.values)], field)

    def __neg__(self):
        return _form(self.degree, [-a for a in self.values], self.field)

    def scale(self, scalar) -> "BinaryForm":
        (c,) = self.field.unwrap((scalar,))
        return _form(self.degree, [c * a for a in self.values], self.field)

    def __mul__(self, other):
        if not isinstance(other, BinaryForm):
            return NotImplemented
        field = _common(self, other)
        return _form(self.degree + other.degree, _convolve(self.values, other.values), field)

    def evaluate(self, s0, s1):
        """Value at the pair (s0, s1), exact in the coefficient field.

        One homogeneous Horner pass on ints (_value), reduced and handed
        out as a field element once.
        """
        field = self.field
        point = field.unwrap((s0, s1))
        return field.wrap(field.reduce([_value(self.values, *point)]))[0]

    def s1_valuation(self) -> int:
        """Multiplicity of the s1 factor (degree+1 for the zero form)."""
        for j, c in enumerate(self.values):
            if c:
                return j
        return self.degree + 1

    def __repr__(self):
        terms = []
        for j, c in enumerate(self.coeffs):
            if not c:
                continue
            a, b = self.degree - j, j
            mono = "".join(
                [f"s0^{a}" if a > 1 else "s0" if a == 1 else "",
                 f"s1^{b}" if b > 1 else "s1" if b == 1 else ""]
            ) or "1"
            terms.append(f"{c}*{mono}")
        return f"BinaryForm(deg={self.degree}: {' + '.join(terms) if terms else '0'})"


def _form(degree: int, values, field) -> BinaryForm:
    """The form over field with these computed working values, reduced once."""
    form = object.__new__(BinaryForm)
    form._store(degree, field.reduce(values), field)
    return form


def _common(f: BinaryForm, g: BinaryForm):
    """The field of f and g; forms of two fields raise FieldMismatchError."""
    if f.field != g.field:
        raise FieldMismatchError(f"forms over {f.field!r} and {g.field!r} do not mix")
    return f.field


def _horner(coeffs, s0, s1):
    """sum_j coeffs[j] * s0^(d-j) * s1^j by a homogeneous Horner pass.

    Plain arithmetic on whatever scalars it is given, with no reduction:
    on int residues the caller reduces the result once.
    """
    acc, s1_pow = 0, 1
    for c in coeffs:
        acc = acc * s0 + c * s1_pow
        s1_pow *= s1
    return acc


def _value(values, s0, s1):
    """sum_j values[j] * s0^(d-j) * s1^j by one Horner pass on ints.

    Ints, int residues among them, go straight to _horner, and the caller
    reduces.  Rational values and point are cleared of denominators, den
    and e, and the int value is divided once, by den * e^d: one Fraction,
    built by _div.
    """
    if set(map(type, values)) | {type(s0), type(s1)} <= {int}:
        return _horner(values, s0, s1)
    (nums, den), ((e0, e1), e) = _cleared(values), _cleared((s0, s1))
    return _div(_horner(nums, e0, e1), den * e ** (len(nums) - 1))


def _cleared(coeffs):
    """(integer numerators, common denominator) of rational coefficients."""
    if set(map(type, coeffs)) <= {int}:
        return list(coeffs), 1
    den = lcm(*[c.denominator for c in coeffs])
    return [c.numerator * (den // c.denominator) for c in coeffs], den


def _convolve(a, b):
    """Coefficients of the product of two value lists, by one int convolution.

    The values are cleared of denominators (int residues have none), and
    one Fraction is built per output coefficient when a denominator is
    left; the caller reduces the result.
    """
    (na, da), (nb, db) = _cleared(a), _cleared(b)
    out = [0] * (len(na) + len(nb) - 1)
    width = len(nb)
    for i, x in enumerate(na):
        if x:
            out[i:i + width] = [o + x * y for o, y in zip(out[i:i + width], nb)]
    den = da * db
    return out if den == 1 else [Fraction(c, den) for c in out]


def _coefficient_rows(conditions, degrees, field):
    """The conditions sum_i w_i * f_i(s0, s1) = 0 on forms f_i, as combinations.

    The unknowns are the coefficients of forms of the given degrees,
    concatenated in order.  Each condition (s0, s1, weights) holds working
    values and gives one row for linalg's *_of_combinations entry points,
    the combination (vectors, weights): its vectors are the monomials
    s0^(d - r) * s1^r of each form's degree d, reduced once and placed at
    the form's first coefficient, one list shared by every form of that
    degree, and its weights are the condition's, left as they are.
    """
    distinct = sorted(set(degrees))
    layout, start = [], 0  # (first coefficient, index into distinct) per form
    for d in degrees:
        layout.append((start, distinct.index(d)))
        start += d + 1
    reduce = field.reduce
    combos = []
    for s0, s1, weights in conditions:
        monos = [reduce([s0 ** (d - r) * s1 ** r for r in range(d + 1)]) for d in distinct]
        combos.append(([(off, monos[i]) for off, i in layout], weights))
    return combos


def _split_forms(vec, degrees, field):
    """The forms of the given degrees whose concatenated coefficients are vec."""
    forms, start = [], 0
    for d in degrees:
        forms.append(BinaryForm(d, vec[start:start + d + 1], field))
        start += d + 1
    return forms


def _as_t_poly(f: BinaryForm):
    """Strip the s1 factor; return (s1 valuation, values by t-power).

    Writing f = s1^v * F with s1 not dividing F, F corresponds to a
    polynomial in t = s0/s1 whose leading coefficient is nonzero.  The
    returned list is indexed by t-power, length = degree(F) + 1.
    """
    values = f.values
    for v, c in enumerate(values):
        if c:
            return v, list(reversed(values[v:]))
    raise ValueError("zero form has no t-polynomial")


def _from_t_poly(s1_power: int, phi, field) -> BinaryForm:
    """Inverse of _as_t_poly; phi must have a nonzero leading coefficient.

    The zeros of the s1 factor take phi's scalar type.
    """
    zeros = [0 * phi[0]] * s1_power if s1_power else []
    values = zeros + phi[::-1]
    return _form(len(values) - 1, values, field)


def _poly_trim(p):
    while len(p) > 1 and not p[-1]:
        p = p[:-1]
    return p


def _div(a, b):
    """a / b in the coefficient field; two ints divide as rationals."""
    if isinstance(a, int) and isinstance(b, int):
        return Fraction(a, b)
    return a / b


def _pseudo_divmod(num, den):
    """(quot, rem, scale) of int t-polynomials: scale * num = quot * den + rem.

    Fraction-free long division by den, whose leading entry lead is
    nonzero.  Before each step the live part of the remainder and the
    quotient are multiplied by m = lead / g, g = gcd(lead, top entry), so
    that the top entry cancels against (top / g) * den.  scale is the
    product of the factors m.  rem is untrimmed, at most len(den) - 1 long
    ([0] when den is a constant).
    """
    num = list(num)
    width = len(den) - 1
    lead = den[-1]
    quot = [0] * max(len(num) - width, 1)
    scale = 1
    for k in range(len(num) - 1 - width, -1, -1):
        top = num[k + width]
        if not top:
            continue
        g = gcd(top, lead)
        m = lead // g
        if m != 1:
            scale *= m
            num = [x * m for x in num[:k + width]]
            quot = [x * m for x in quot]
        c = top // g
        quot[k] = c
        for i in range(width):
            num[k + i] -= c * den[i]
    return quot, num[:width] or [0], scale


def _primitive(nums):
    """An int t-polynomial divided by its content, trimmed."""
    content = gcd(*nums)
    if content > 1:
        nums = [x // content for x in nums]
    return _poly_trim(nums)


def _poly_divmod(num, den, p=None):
    """(quotient, remainder) of t-polynomials, lists by power, both trimmed.

    den's leading entry must be nonzero.  With a prime p the entries are
    int residues: each quotient entry is one product with the inverse of
    den's lead reduced mod p, the subtractions run on unreduced ints, and
    the remainder is reduced once at the end.  Without one the entries are
    rationals: both lists are cleared of denominators, _pseudo_divmod
    divides the ints, and each quotient entry and nonzero remainder entry
    is one _div; a zero remainder entry stays the int 0.
    """
    if not p:
        (nn, dn), (nd, dd) = _cleared(num), _cleared(den)
        quot, rem, scale = _pseudo_divmod(nn, nd)
        return (_poly_trim([_div(q * dd, scale * dn) for q in quot]),
                _poly_trim([_div(r, scale * dn) if r else 0 for r in rem]))
    num = list(num)
    width = len(den) - 1
    inv = pow(den[-1], -1, p)
    quot = [0] * max(len(num) - width, 1)
    for k in range(len(num) - 1 - width, -1, -1):
        c = num[k + width] * inv % p
        quot[k] = c
        if c:
            for i in range(width):
                num[k + i] -= c * den[i]
    rem = [x % p for x in num[:width]] or [0]
    return _poly_trim(quot), _poly_trim(rem)


def _monic(phi, p=None):
    """phi divided by its leading coefficient: its quotient by that constant."""
    return _poly_divmod(phi, phi[-1:], p)[0]


def _monic_form(f: BinaryForm) -> BinaryForm:
    """f divided by the leading coefficient of its t-polynomial."""
    v, phi = _as_t_poly(f)
    return _from_t_poly(v, _monic(phi, getattr(f.field, "p", None)), f.field)


def divide_exact(f: BinaryForm, g: BinaryForm) -> BinaryForm:
    """Quotient f/g when g divides f exactly, else InexactDivisionError."""
    field = _common(f, g)
    if g.is_zero():
        raise ZeroDivisionError("division of a form by the zero form")
    if f.is_zero():
        deg_q = max(f.degree - g.degree, 0)
        return _form(deg_q, [0 * g.values[g.s1_valuation()]] * (deg_q + 1), field)
    if f.degree < g.degree:
        raise InexactDivisionError(
            f"degree {f.degree} form not divisible by degree {g.degree} form"
        )
    vf, pf = _as_t_poly(f)
    vg, pg = _as_t_poly(g)
    if vf < vg or len(pf) < len(pg):
        raise InexactDivisionError("divisor has a factor the dividend lacks")
    q_poly, r_poly = _poly_divmod(pf, pg, getattr(field, "p", None))
    # q picks up the leftover s1 power; its t-lead is nonzero, so its
    # degree is f.degree - g.degree
    q = _from_t_poly(vf - vg, q_poly, field)
    if any(r_poly):
        raise InexactDivisionError("nonzero remainder")
    if not (f - g * q).is_zero():
        raise InexactDivisionError("division self-check failed")
    return q


def _coprime_mod_p(pf, pg):
    """True only if the rational t-polynomials pf and pg are coprime.

    Both are cleared of denominators, which keeps their gcd over the
    rationals, and reduced mod p = GCD_PRIME, which must divide neither
    cleared leading coefficient.  Then the primitive integer gcd g of the
    cleared polynomials divides both in Z[t] (Gauss's lemma), and its
    leading coefficient divides theirs, so g mod p keeps its degree and
    divides both reductions: deg gcd over the rationals <= deg gcd mod p.
    A mod-p Euclid that ends in a nonzero constant therefore certifies
    coprimality.  False means "not certified", never "not coprime".
    """
    p = GCD_PRIME
    a, b = ([x % p for x in _cleared(phi)[0]] for phi in (pf, pg))
    if not (a[-1] and b[-1]):
        return False
    while len(b) > 1:
        a, b = b, _poly_divmod(a, b, p)[1]
    return b[0] != 0


def form_gcd(f: BinaryForm, g: BinaryForm) -> BinaryForm:
    """Monic gcd of two forms (leading s0-coefficient 1).

    The zero form is absorbing: gcd(0, g) is g made monic.  Raises
    BothZeroError when both arguments vanish identically.  Rational forms
    whose t-polynomials are certified coprime mod GCD_PRIME skip the
    Euclid.  Otherwise the rational Euclid is the primitive remainder
    sequence on ints: each pseudo-remainder divided by its content, with
    the same degrees as the remainders over the rationals, whose last
    nonzero entry _monic turns into the monic gcd.
    """
    field = _common(f, g)
    if f.is_zero() and g.is_zero():
        raise BothZeroError("gcd of two zero forms is undefined")
    if f.is_zero():
        return _monic_form(g)
    if g.is_zero():
        return _monic_form(f)
    p = getattr(field, "p", None)  # over the rationals _poly_divmod takes None
    vf, a = _as_t_poly(f)
    vg, b = _as_t_poly(g)
    if not p:
        if _coprime_mod_p(a, b):
            return _from_t_poly(min(vf, vg), [Fraction(1)], field)
        a, b = _primitive(_cleared(a)[0]), _primitive(_cleared(b)[0])
    while len(b) > 1 or b[0]:
        a, b = b, _poly_divmod(a, b, p)[1] if p else _primitive(_pseudo_divmod(a, b)[1])
    return _from_t_poly(min(vf, vg), _monic(a, p), field)


def gcd_many(forms) -> BinaryForm:
    forms = list(forms)
    if not forms:
        raise ValueError("gcd of an empty list")
    acc = forms[0]
    for nxt in forms[1:]:
        if acc.is_zero() and nxt.is_zero():
            continue
        acc = form_gcd(acc, nxt)
        if acc.degree == 0:
            return acc
    if acc.is_zero():
        raise BothZeroError("gcd of all-zero forms is undefined")
    if acc.degree > 0 or acc.values[0] != 1:
        acc = _monic_form(acc)
    return acc


def compose_form(outer: BinaryForm, f0: BinaryForm, f1: BinaryForm) -> BinaryForm:
    """Substitute s0 -> f0 and s1 -> f1 into outer; f0, f1 of equal degree."""
    if f0.degree != f1.degree:
        raise ValueError("substituted forms must share a degree")
    _common(f0, f1)
    field = _common(outer, f0)
    d = outer.degree
    # powers of f0 ascending, powers of f1 descending, paired by index
    pow0 = [_form(0, [1], field)]
    pow1 = [_form(0, [1], field)]
    for _ in range(d):
        pow0.append(pow0[-1] * f0)
        pow1.append(pow1[-1] * f1)
    acc = BinaryForm.zero(d * f0.degree, field)
    for j, c in enumerate(outer.values):
        if not c:
            continue
        acc = acc + pow0[d - j] * pow1[j] * _form(0, [c], field)
    return acc


def random_form(degree: int, field, rng, nonzero: bool = False) -> BinaryForm:
    """A form with degree+1 coefficients drawn by field.random_value."""
    while True:
        f = _form(degree, [field.random_value(rng) for _ in range(degree + 1)], field)
        if not nonzero or not f.is_zero():
            return f
