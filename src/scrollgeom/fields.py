"""Exact scalars: arbitrary-precision rationals and odd prime fields.

Rational scalars are plain ``fractions.Fraction`` values, so lowest terms
and a positive denominator hold by construction.  Prime-field scalars are
``FpElement`` values holding the canonical representative in [0, p).
Python ints mix freely with either kind (they embed in every field);
mixing the two fields themselves raises FieldMismatchError.
"""

from __future__ import annotations

from fractions import Fraction

from .errors import FieldMismatchError

DEFAULT_PRIME = 10007
RATIONAL_SPAN = 999  # random rational scalars are integers in [-span, span]

_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)


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
            return (other - self.val) % self.p == 0
        return NotImplemented

    def __hash__(self):
        return hash((self.val, self.p))

    def __bool__(self):
        return self.val != 0

    def __repr__(self):
        return f"Fp{self.p}({self.val})"


class RationalField:
    """The field of rationals; elements are fractions.Fraction values."""

    name = "q"

    def __call__(self, num, den=1) -> Fraction:
        return Fraction(num, den)

    @property
    def zero(self) -> Fraction:
        return Fraction(0)

    @property
    def one(self) -> Fraction:
        return Fraction(1)

    def random_scalar(self, rng) -> Fraction:
        return Fraction(rng.randint(-RATIONAL_SPAN, RATIONAL_SPAN))

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
        if isinstance(val, FpElement):
            if val.p != self.p:
                raise FieldMismatchError(f"mixed moduli {self.p} and {val.p}")
            return val
        return FpElement(int(val), self.p)

    @property
    def zero(self) -> FpElement:
        return FpElement(0, self.p)

    @property
    def one(self) -> FpElement:
        return FpElement(1, self.p)

    def random_scalar(self, rng) -> FpElement:
        return FpElement(rng.below(self.p), self.p)

    def __eq__(self, other):
        return isinstance(other, PrimeField) and other.p == self.p

    def __hash__(self):
        return hash(("prime-field", self.p))

    def __repr__(self):
        return f"GF({self.p})"


def field_of(x):
    """The field a scalar belongs to."""
    if isinstance(x, FpElement):
        return PrimeField(x.p)
    if isinstance(x, (Fraction, int)):
        return QQ
    raise TypeError(f"not a scalar: {x!r}")


def parse_field(text: str):
    """Parse a field selector: "q" or "fp:PRIME"."""
    if text == "q":
        return QQ
    if text.startswith("fp:"):
        return PrimeField(int(text[3:]))
    raise ValueError(f"unknown field selector {text!r} (use 'q' or 'fp:PRIME')")


def scalar_to_str(x) -> str:
    """Exact decimal serialization: residue, integer, or num/den."""
    if isinstance(x, FpElement):
        return str(x.val)
    f = Fraction(x)
    if f.denominator == 1:
        return str(f.numerator)
    return f"{f.numerator}/{f.denominator}"


def random_nonzero(field, rng):
    while True:
        x = field.random_scalar(rng)
        if x:
            return x


def random_distinct(field, rng, count: int, exclude=()):
    """count distinct scalars, none equal to any excluded value."""
    bound = 4 * (count + len(exclude))
    if isinstance(field, PrimeField) and field.p < bound:
        from .errors import FieldTooSmallError

        raise FieldTooSmallError(
            f"rejection sampling of {count} distinct scalars avoiding "
            f"{len(exclude)} fixed values needs p >= {bound}, got {field.p}"
        )
    out = []
    guard = 0
    while len(out) < count:
        guard += 1
        if guard > 10000:
            raise RuntimeError("distinct-sampling did not terminate")
        x = field.random_scalar(rng)
        if any(x == y for y in out) or any(x == y for y in exclude):
            continue
        out.append(x)
    return out
