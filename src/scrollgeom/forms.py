"""Homogeneous binary forms with exact coefficients.

A form of degree d in the variables s0, s1 is stored as a dense tuple of
d+1 coefficients, entry j holding the coefficient of s0^(d-j) * s1^j.
Forms are immutable; the formal degree is part of the value, so the zero
form of degree 2 and the zero form of degree 3 are distinct objects.
Coefficients may be ints, Fractions, or FpElements and are never mixed
across fields (the scalar layer enforces this).

A product of forms is one integer convolution for both fields: over
F_p it convolves int residues and wraps each output coefficient once as
an FpElement; over the rationals it clears denominators, convolves the
integer numerators and builds one Fraction per output coefficient (ints
stay ints).  Any other coefficient type raises FieldMismatchError.
Evaluation is one homogeneous Horner pass; over F_p it runs on int
residues and wraps the one reduced value back into an FpElement.  A gcd
of rational forms first reduces both modulo a fixed 61-bit prime, where
a Euclid that ends in a constant certifies that the forms are coprime
over the rationals.  Over F_p, division and the Euclid run on int
residues with one modular inverse of the divisor's lead per division,
and only their results are wrapped as FpElements.  Division divides two
int coefficients as rationals, never as floats; ``_div`` is the one true
division in the package.  A sum, difference, negation or scaling over
F_p reduces and wraps every output coefficient, so an int beside
FpElements never stays unreduced.
"""

from __future__ import annotations

from fractions import Fraction
from math import lcm

from .errors import BothZeroError, FieldMismatchError, InexactDivisionError
from .fields import FpElement, _residues, field_of

# modulus of the coprimality certificate in form_gcd (the prime 2**61 - 1)
GCD_PRIME = 2**61 - 1


class BinaryForm:
    __slots__ = ("degree", "coeffs")

    def __init__(self, degree: int, coeffs):
        coeffs = tuple(coeffs)
        if degree < 0 or len(coeffs) != degree + 1:
            raise ValueError(
                f"degree-{degree} form needs {degree + 1} coefficients, got {len(coeffs)}"
            )
        object.__setattr__(self, "degree", degree)
        object.__setattr__(self, "coeffs", coeffs)

    def __setattr__(self, name, value):
        raise AttributeError("BinaryForm is immutable")

    @classmethod
    def zero(cls, degree: int, field) -> "BinaryForm":
        return cls(degree, [field.zero] * (degree + 1))

    @classmethod
    def monomial(cls, degree: int, s1_power: int, scalar) -> "BinaryForm":
        """scalar * s0^(degree - s1_power) * s1^s1_power."""
        if not 0 <= s1_power <= degree:
            raise ValueError(f"s1 power {s1_power} out of range for degree {degree}")
        coeffs = [0 * scalar] * (degree + 1)
        coeffs[s1_power] = scalar
        return cls(degree, coeffs)

    def is_zero(self) -> bool:
        """True when every coefficient is zero in the field.

        Over F_p the coefficients are reduced first, so an int beside
        FpElements that is a multiple of p counts as zero.
        """
        p = _prime_of(self.coeffs)
        return not any(_residues(self.coeffs, p) if p else self.coeffs)

    def __eq__(self, other):
        if not isinstance(other, BinaryForm):
            return NotImplemented
        if self.degree != other.degree:
            return False
        return all(a == b for a, b in zip(self.coeffs, other.coeffs))

    def __hash__(self):
        return hash((self.degree, self.coeffs))

    def __add__(self, other):
        if not isinstance(other, BinaryForm):
            return NotImplemented
        if self.degree != other.degree:
            raise ValueError(f"degree mismatch: {self.degree} vs {other.degree}")
        coeffs = [a + b for a, b in zip(self.coeffs, other.coeffs)]
        return BinaryForm(self.degree, _in_field(coeffs))

    def __sub__(self, other):
        if not isinstance(other, BinaryForm):
            return NotImplemented
        if self.degree != other.degree:
            raise ValueError(f"degree mismatch: {self.degree} vs {other.degree}")
        coeffs = [a - b for a, b in zip(self.coeffs, other.coeffs)]
        return BinaryForm(self.degree, _in_field(coeffs))

    def __neg__(self):
        return BinaryForm(self.degree, _in_field([-a for a in self.coeffs]))

    def scale(self, scalar) -> "BinaryForm":
        return BinaryForm(self.degree, _in_field([scalar * a for a in self.coeffs]))

    def __mul__(self, other):
        if not isinstance(other, BinaryForm):
            return NotImplemented
        return BinaryForm(self.degree + other.degree, _convolve(self.coeffs, other.coeffs))

    def evaluate(self, s0, s1):
        """Value at the pair (s0, s1), exact in the coefficient field.

        Over F_p (a point coordinate or the leading coefficient is an
        FpElement) a homogeneous Horner pass runs on int residues and the
        value is reduced and wrapped once at the end; otherwise it runs on
        the values as they are.
        """
        for x in (s0, s1, self.coeffs[0]):
            if isinstance(x, FpElement):
                p = x.p
                value = _horner(_residues(self.coeffs, p), *_residues((s0, s1), p))
                return FpElement(value % p, p)
        return _horner(self.coeffs, s0, s1)

    def s1_valuation(self) -> int:
        """Multiplicity of the s1 factor (degree+1 for the zero form)."""
        for j, c in enumerate(self.coeffs):
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


def _prime_of(coeffs):
    """p when a coefficient is an FpElement of F_p, else None (the rationals)."""
    return next((x.p for x in coeffs if isinstance(x, FpElement)), None)


def _in_field(coeffs):
    """Coefficients as they are, or over F_p each reduced and wrapped once.

    An int beside an FpElement is a residue that plain int arithmetic left
    unreduced; beside one, a coefficient of no prime field raises
    FieldMismatchError.
    """
    kinds = set(map(type, coeffs))
    if FpElement not in kinds or kinds == {FpElement}:
        return coeffs
    p = _prime_of(coeffs)
    return [FpElement(v, p) for v in _residues(coeffs, p)]


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


def _cleared(coeffs):
    """(integer numerators, common denominator) of rational coefficients."""
    den = lcm(*[c.denominator for c in coeffs])
    return [c.numerator * (den // c.denominator) for c in coeffs], den


def _convolve(a, b):
    """Coefficients of the product of two coefficient lists, by one int convolution.

    Over F_p (an entry is an FpElement) the convolution runs on int
    residues and each output is reduced and wrapped once.  Over the
    rationals it runs on the cleared integer numerators, with one Fraction
    per output when an input held one; all-int inputs give ints.  Any
    other scalar type raises FieldMismatchError.
    """
    kinds = set(map(type, a)) | set(map(type, b))
    if FpElement in kinds:
        p = _prime_of(a + b)
        na, nb = _residues(a, p), _residues(b, p)
    elif kinds <= {int, Fraction}:
        (na, da), (nb, db) = _cleared(a), _cleared(b)
    else:
        raise FieldMismatchError(f"coefficient types {kinds} belong to no field")
    out = [0] * (len(na) + len(nb) - 1)
    width = len(nb)
    for i, x in enumerate(na):
        if x:
            out[i:i + width] = [o + x * y for o, y in zip(out[i:i + width], nb)]
    if FpElement in kinds:
        return [FpElement(c, p) for c in out]
    if Fraction not in kinds:
        return out
    den = da * db
    if den == 1:
        return [Fraction(c) for c in out]
    return [Fraction(c, den) for c in out]


def linear_form(c0, c1) -> BinaryForm:
    """c0*s0 + c1*s1."""
    return BinaryForm(1, (c0, c1))


def vanishing_at(value) -> BinaryForm:
    """The linear form s0 - value*s1, zero at the point (value : 1)."""
    return BinaryForm(1, (1 + 0 * value, -value))


def product_of_linears(values, field) -> BinaryForm:
    """prod_i (s0 - value_i * s1); the empty product is the constant 1."""
    result = BinaryForm(0, (field.one,))
    for v in values:
        result = result * vanishing_at(v)
    return result


def _as_t_poly(f: BinaryForm, p=None):
    """Strip the s1 factor; return (s1 valuation, coefficients by t-power).

    Writing f = s1^v * F with s1 not dividing F, F corresponds to a
    polynomial in t = s0/s1 whose leading coefficient is nonzero.  The
    returned list is indexed by t-power, length = degree(F) + 1.  With a
    prime p it holds int residues mod p, else the coefficients as they are.
    """
    coeffs = _residues(f.coeffs, p) if p else f.coeffs
    for v, c in enumerate(coeffs):
        if c:
            return v, list(reversed(coeffs[v:]))
    raise ValueError("zero form has no t-polynomial")


def _from_t_poly(s1_power: int, phi, p=None) -> BinaryForm:
    """Inverse of _as_t_poly; phi must have a nonzero leading coefficient.

    With a prime p, phi holds int residues and the form FpElements.
    """
    coeffs = [0 * phi[0]] * s1_power + phi[::-1]
    if p:
        coeffs = [FpElement(c, p) for c in coeffs]
    return BinaryForm(len(coeffs) - 1, coeffs)


def _poly_trim(p):
    while len(p) > 1 and not p[-1]:
        p = p[:-1]
    return p


def _div(a, b):
    """a / b in the coefficient field; two ints divide as rationals."""
    if isinstance(a, int) and isinstance(b, int):
        return Fraction(a, b)
    return a / b


def _poly_divmod(num, den, p=None):
    """(quotient, remainder) of t-polynomials, lists by power, both trimmed.

    den's leading entry must be nonzero.  With a prime p the entries are
    int residues: each quotient entry is one product with the inverse of
    den's lead reduced mod p, the subtractions run on unreduced ints, and
    the remainder is reduced once at the end.  Without one the entries are
    rationals and each quotient entry is one _div.
    """
    num = list(num)
    width = len(den) - 1
    lead = den[-1]
    inv = pow(lead, -1, p) if p else None
    quot = [0 * lead] * max(len(num) - width, 1)
    for k in range(len(num) - 1 - width, -1, -1):
        c = num[k + width] * inv % p if p else _div(num[k + width], lead)
        quot[k] = c
        if c:
            for i in range(width):
                num[k + i] -= c * den[i]
    rem = num[:width] or [0 * lead]
    if p:
        rem = [x % p for x in rem]
    return _poly_trim(quot), _poly_trim(rem)


def _monic(phi, p=None):
    """phi divided by its leading coefficient: its quotient by that constant."""
    return _poly_divmod(phi, phi[-1:], p)[0]


def _monic_form(f: BinaryForm) -> BinaryForm:
    """f divided by the leading coefficient of its t-polynomial."""
    p = _prime_of(f.coeffs)
    v, phi = _as_t_poly(f, p)
    return _from_t_poly(v, _monic(phi, p), p)


def divide_exact(f: BinaryForm, g: BinaryForm) -> BinaryForm:
    """Quotient f/g when g divides f exactly, else InexactDivisionError.

    Over F_p the division runs on int residues and the quotient comes back
    as FpElements.
    """
    if g.is_zero():
        raise ZeroDivisionError("division of a form by the zero form")
    if f.is_zero():
        deg_q = max(f.degree - g.degree, 0)
        zero = 0 * g.coeffs[g.s1_valuation()]
        return BinaryForm(deg_q, [zero] * (deg_q + 1))
    if f.degree < g.degree:
        raise InexactDivisionError(
            f"degree {f.degree} form not divisible by degree {g.degree} form",
            remainder=f,
        )
    p = _prime_of(f.coeffs + g.coeffs)
    vf, pf = _as_t_poly(f, p)
    vg, pg = _as_t_poly(g, p)
    if vf < vg or len(pf) < len(pg):
        raise InexactDivisionError("divisor has a factor the dividend lacks", remainder=f)
    q_poly, r_poly = _poly_divmod(pf, pg, p)
    # q picks up the leftover s1 power; its t-lead is nonzero, so its
    # degree is f.degree - g.degree
    q = _from_t_poly(vf - vg, q_poly, p)
    if any(r_poly):
        raise InexactDivisionError("nonzero remainder", remainder=f - g * q)
    check = f - g * q
    if not check.is_zero():
        raise InexactDivisionError("division self-check failed", remainder=check)
    return q


def _reduce_mod(phi, p):
    """Rational t-polynomial mod p, or None where the reduction may lose degree.

    None when a coefficient is not rational, p divides a denominator, or p
    divides the leading coefficient.
    """
    out = []
    for c in phi:
        if not isinstance(c, (int, Fraction)) or c.denominator % p == 0:
            return None
        out.append(c.numerator * pow(c.denominator, -1, p) % p)
    return out if out[-1] else None


def _coprime_mod_p(pf, pg):
    """True only if the rational t-polynomials pf and pg are coprime.

    Both are reduced mod p = GCD_PRIME, which must divide no denominator
    and neither leading coefficient.  Then the primitive integer gcd g of
    pf and pg divides both in Z_(p)[t] (Gauss's lemma), and its leading
    coefficient divides theirs, so g mod p keeps its degree and divides
    both reductions: deg gcd over the rationals <= deg gcd mod p.  A mod-p
    Euclid that ends in a nonzero constant therefore certifies
    coprimality.  False means "not certified", never "not coprime".
    """
    p = GCD_PRIME
    a, b = _reduce_mod(pf, p), _reduce_mod(pg, p)
    if a is None or b is None:
        return False
    while len(b) > 1:
        a, b = b, _poly_divmod(a, b, p)[1]
    return b[0] != 0


def form_gcd(f: BinaryForm, g: BinaryForm) -> BinaryForm:
    """Monic gcd of two forms (leading s0-coefficient 1).

    The zero form is absorbing: gcd(0, g) is g made monic.  Raises
    BothZeroError when both arguments vanish identically.  Rational forms
    whose t-polynomials are certified coprime mod GCD_PRIME skip the
    Euclid over the rationals, which would end in the same constant 1.
    Over F_p the Euclid runs on int residues and only the gcd is wrapped
    as FpElements.
    """
    if f.is_zero() and g.is_zero():
        raise BothZeroError("gcd of two zero forms is undefined")
    if f.is_zero():
        return _monic_form(g)
    if g.is_zero():
        return _monic_form(f)
    p = _prime_of(f.coeffs + g.coeffs)
    vf, a = _as_t_poly(f, p)
    vg, b = _as_t_poly(g, p)
    if not p and _coprime_mod_p(a, b):
        return _from_t_poly(min(vf, vg), [Fraction(1)])
    while len(b) > 1 or b[0]:
        a, b = b, _poly_divmod(a, b, p)[1]
    return _from_t_poly(min(vf, vg), _monic(a, p), p)


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
    if acc.degree > 0 or acc.coeffs[0] != 1:
        acc = _monic_form(acc)
    return acc


def compose_form(outer: BinaryForm, f0: BinaryForm, f1: BinaryForm) -> BinaryForm:
    """Substitute s0 -> f0 and s1 -> f1 into outer; f0, f1 of equal degree."""
    if f0.degree != f1.degree:
        raise ValueError("substituted forms must share a degree")
    d = outer.degree
    # powers of f0 ascending, powers of f1 descending, paired by index
    pow0 = [BinaryForm(0, (1,))]
    pow1 = [BinaryForm(0, (1,))]
    for _ in range(d):
        pow0.append(pow0[-1] * f0)
        pow1.append(pow1[-1] * f1)
    acc = BinaryForm.zero(d * f0.degree, _field_like(outer))
    for j, c in enumerate(outer.coeffs):
        if not c:
            continue
        acc = acc + (pow0[d - j] * pow1[j]).scale(c)
    return acc


def _field_like(f: BinaryForm):
    for c in f.coeffs:
        if not isinstance(c, int):
            return field_of(c)
    return field_of(f.coeffs[0])


def random_form(degree: int, field, rng, nonzero: bool = False) -> BinaryForm:
    while True:
        f = BinaryForm(degree, [field.random_scalar(rng) for _ in range(degree + 1)])
        if not nonzero or not f.is_zero():
            return f
