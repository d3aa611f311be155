"""Exact scalars: arbitrary-precision rationals and odd prime fields.

Rational scalars are plain ints when they are whole and
``fractions.Fraction`` values otherwise: sampling and the field's zero and
one give ints, ``QQ(num, den)`` builds a Fraction, and a Fraction appears
only where a true division makes one (``forms._div`` divides two ints as
rationals, never as floats).  A Fraction keeps lowest terms and a
positive denominator by construction.  Prime-field scalars handed out
are ``FpElement`` values holding the canonical representative in [0, p).
An ``FpElement`` equals exactly one int, its residue, and hashes like it,
so equal values hash equally in sets, dicts and Counters.

Forms, quadrics, curves and matrices are built over a field their caller
names and compute on its working values, int residues in [0, p) over
F_p; nothing reads a field off given scalars.  A field's ``unwrap`` turns
given scalars into working values (ints embed in every field, any other
value raises FieldMismatchError), ``reduce`` brings computed ints into
[0, p) and ``wrap`` builds the FpElements handed out; over the rationals
all three return their argument.

Draws hand out working values: ``random_value`` draws one (``rng.below(p)``
over F_p, an int in [-RATIONAL_SPAN, RATIONAL_SPAN] over the rationals)
and ``distinct_values`` draws distinct ones.  ``random_scalar`` and
``random_distinct`` are their boundary views, the same draws from the same
stream handed out as field elements, for callers that compute on field
elements; a draw that would be unwrapped at once (a lifted frame, Mobius
node pairs, a plane trial) takes the working values directly.
"""

from __future__ import annotations

from fractions import Fraction

from .errors import FieldMismatchError, FieldTooSmallError

RATIONAL_SPAN = 999  # random rational scalars are integers in [-span, span]

_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)
_INT = {int}
_RATIONAL = {int, Fraction}


def is_prime_u64(n: int) -> bool:
    """Deterministic Miller-Rabin test, exact for every n < 2**64."""
    if n < 2:
        return False
    for q in _MR_BASES:
        if n % q == 0:
            return n == q
    d, r = n - 1, 0
    while d % 2 == 0:
        d //= 2
        r += 1
    for a in _MR_BASES:
        x = pow(a, d, n)
        if x == 1 or x == n - 1:
            continue
        for _ in range(r - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


class FpElement:
    """Canonical residue in the field with p elements."""

    __slots__ = ("val", "p")

    def __init__(self, val: int, p: int):
        self.val = val % p
        self.p = p

    def _lift(self, other):
        """Return other's residue, None if the operation is not ours."""
        if isinstance(other, FpElement):
            if other.p != self.p:
                raise FieldMismatchError(f"mixed moduli {self.p} and {other.p}")
            return other.val
        if isinstance(other, int):
            return other % self.p
        if isinstance(other, Fraction):
            raise FieldMismatchError("cannot mix rational and prime-field scalars")
        return None

    def __add__(self, other):
        v = self._lift(other)
        if v is None:
            return NotImplemented
        return FpElement(self.val + v, self.p)

    __radd__ = __add__

    def __sub__(self, other):
        v = self._lift(other)
        if v is None:
            return NotImplemented
        return FpElement(self.val - v, self.p)

    def __rsub__(self, other):
        v = self._lift(other)
        if v is None:
            return NotImplemented
        return FpElement(v - self.val, self.p)

    def __mul__(self, other):
        v = self._lift(other)
        if v is None:
            return NotImplemented
        return FpElement(self.val * v, self.p)

    __rmul__ = __mul__

    def __truediv__(self, other):
        v = self._lift(other)
        if v is None:
            return NotImplemented
        if v % self.p == 0:
            raise ZeroDivisionError(f"division by zero in F_{self.p}")
        return FpElement(self.val * pow(v, -1, self.p), self.p)

    def __rtruediv__(self, other):
        v = self._lift(other)
        if v is None:
            return NotImplemented
        if self.val == 0:
            raise ZeroDivisionError(f"division by zero in F_{self.p}")
        return FpElement(v * pow(self.val, -1, self.p), self.p)

    def __pow__(self, exponent: int):
        if exponent < 0 and self.val == 0:
            raise ZeroDivisionError(f"inverse of zero in F_{self.p}")
        return FpElement(pow(self.val, exponent, self.p), self.p)

    def __neg__(self):
        return FpElement(-self.val, self.p)

    def __eq__(self, other):
        if isinstance(other, FpElement):
            return self.p == other.p and self.val == other.val
        if isinstance(other, int):
            return other == self.val
        return NotImplemented

    def __hash__(self):
        return hash(self.val)

    def __bool__(self):
        return self.val != 0

    def __repr__(self):
        return f"Fp{self.p}({self.val})"


def _residues(values, p: int) -> list:
    """Int residues in [0, p) of a sequence of ints and F_p elements.

    An element of another prime field, a rational or any other value
    raises FieldMismatchError.  A sequence of plain ints is reduced
    without a per-entry type check.
    """
    if set(map(type, values)) <= _INT:
        return [x % p for x in values]
    out = []
    for x in values:
        if isinstance(x, FpElement):
            if x.p != p:
                raise FieldMismatchError(f"mixed moduli {p} and {x.p}")
            out.append(x.val)
        elif isinstance(x, int):
            out.append(x % p)
        else:
            raise FieldMismatchError(f"non prime-field entry {x!r}")
    return out


class RationalField:
    """The field of rationals; elements are ints when whole, else Fractions.

    zero, one and random_scalar give ints; calling the field, QQ(num, den),
    builds a Fraction, so QQ(3) / QQ(5) is the rational 3/5.
    """

    name = "q"

    def __call__(self, num, den=1) -> Fraction:
        return Fraction(num, den)

    @property
    def zero(self) -> int:
        return 0

    @property
    def one(self) -> int:
        return 1

    def random_value(self, rng) -> int:
        """A random working value: an int in [-RATIONAL_SPAN, RATIONAL_SPAN]."""
        return rng.randint(-RATIONAL_SPAN, RATIONAL_SPAN)

    def random_scalar(self, rng) -> int:
        """random_value as a field element, which over the rationals it is."""
        return self.random_value(rng)

    def unwrap(self, values):
        """values itself; an entry other than an int or a Fraction raises FieldMismatchError."""
        if not set(map(type, values)) <= _RATIONAL:
            raise FieldMismatchError(f"non-rational entry among {values!r}")
        return values

    def reduce(self, values):
        """Exact rational values need no reduction or wrapping: values itself."""
        return values

    wrap = reduce

    def __eq__(self, other):
        return isinstance(other, RationalField)

    def __hash__(self):
        return hash("rational-field")

    def __repr__(self):
        return "QQ"


QQ = RationalField()


class PrimeField:
    """The field with p elements, p an odd prime below 2**63."""

    __slots__ = ("p",)

    def __init__(self, p: int):
        if not isinstance(p, int) or p < 3 or p >= 2**63 or p % 2 == 0:
            raise ValueError(f"modulus must be an odd prime below 2**63, got {p}")
        if not is_prime_u64(p):
            raise ValueError(f"modulus {p} is not prime")
        self.p = p

    @property
    def name(self) -> str:
        return f"fp:{self.p}"

    def __call__(self, val) -> FpElement:
        """val in this field: an int reduced mod p, or an FpElement of this p.

        Anything else, a Fraction or a float included, raises
        FieldMismatchError, as mixing the fields in arithmetic does.
        """
        if isinstance(val, FpElement):
            if val.p != self.p:
                raise FieldMismatchError(f"mixed moduli {self.p} and {val.p}")
            return val
        if not isinstance(val, int):
            raise FieldMismatchError(f"{val!r} is not an element of F_{self.p}")
        return FpElement(val, self.p)

    @property
    def zero(self) -> FpElement:
        return FpElement(0, self.p)

    @property
    def one(self) -> FpElement:
        return FpElement(1, self.p)

    def random_value(self, rng) -> int:
        """A random working value: a uniform residue in [0, p)."""
        return rng.below(self.p)

    def random_scalar(self, rng) -> FpElement:
        """random_value as a field element."""
        return FpElement(self.random_value(rng), self.p)

    def unwrap(self, values) -> list:
        """Int residues of a sequence of field elements, for arithmetic on ints."""
        return _residues(values, self.p)

    def reduce(self, values) -> list:
        """Ints computed from residues, each reduced into [0, p)."""
        p = self.p
        return [v % p for v in values]

    def wrap(self, values) -> list:
        """Residues in [0, p) as the FpElements handed out at the boundary."""
        p = self.p
        return [FpElement(v, p) for v in values]

    def __eq__(self, other):
        return isinstance(other, PrimeField) and other.p == self.p

    def __hash__(self):
        return hash(("prime-field", self.p))

    def __repr__(self):
        return f"GF({self.p})"


def parse_field(text: str):
    """Parse a field selector: "q" or "fp:PRIME"."""
    if text == "q":
        return QQ
    if text.startswith("fp:"):
        return PrimeField(int(text[3:]))
    raise ValueError(f"unknown field selector {text!r} (use 'q' or 'fp:PRIME')")


def scalar_to_str(x) -> str:
    """Exact decimal serialization: residue, integer, or num/den.

    Anything but an FpElement, int or Fraction, a float included, raises
    TypeError.
    """
    if isinstance(x, FpElement):
        return str(x.val)
    if not isinstance(x, (int, Fraction)):
        raise TypeError(f"not a scalar: {x!r}")
    if x.denominator == 1:
        return str(x.numerator)
    return f"{x.numerator}/{x.denominator}"


def random_nonzero(field, rng):
    while True:
        x = field.random_scalar(rng)
        if x:
            return x


def distinct_values(field, rng, count: int, exclude=()) -> list:
    """count distinct working values drawn by field.random_value, none in exclude.

    exclude holds working values.  Rejection sampling asks for at least
    4 * (count + len(exclude)) values to draw from: a p below that, or
    over the rationals a bound above the 2 * RATIONAL_SPAN + 1 integers in
    [-RATIONAL_SPAN, RATIONAL_SPAN], raises FieldTooSmallError before any
    draw.
    """
    bound = 4 * (count + len(exclude))
    wanted = f"rejection sampling of {count} distinct scalars avoiding {len(exclude)} fixed values"
    if isinstance(field, PrimeField):
        if field.p < bound:
            raise FieldTooSmallError(f"{wanted} needs p >= {bound}, got {field.p}")
    elif 2 * RATIONAL_SPAN + 1 < bound:
        raise FieldTooSmallError(
            f"{wanted} needs {bound} integers to draw from, "
            f"got {2 * RATIONAL_SPAN + 1} in [-{RATIONAL_SPAN}, {RATIONAL_SPAN}]"
        )
    out = []
    seen = set(exclude)
    guard = 0
    while len(out) < count:
        guard += 1
        if guard > 10000:
            raise RuntimeError("distinct-sampling did not terminate")
        x = field.random_value(rng)
        if x in seen:
            continue
        seen.add(x)
        out.append(x)
    return out


def random_distinct(field, rng, count: int, exclude=()):
    """distinct_values as field elements; exclude holds field elements or ints."""
    return field.wrap(distinct_values(field, rng, count, field.unwrap(exclude)))
