"""Rational normal curves through a frame of n+2 points.

The frame is normalized to the n+1 coordinate points plus the all-ones
point.  Curves through it are parametrized by n-1 scalars: the curve with
node values (0, 1, a_2, ..., a_n) hits coordinate point j at parameter
(value_j : 1) and the all-ones point at (1 : 0).  The parametrization is
kept in cleared-denominator form, coordinate j being the product of the
linear factors of all the other node values, so only polynomial
arithmetic is ever needed.

A StandardRNC and a Quadric, like a BinaryForm, are built over a field
their caller names and store its working values (int residues over
F_p): a StandardRNC its n+1 node values, a Quadric its Gram matrix.  The
residual pass, the coordinate forms, the quadric rows of a binary curve
and the frame check read those for both fields; ``params``,
``node_values`` and ``gram`` hand out field elements.  A random curve's
node values are drawn as working values and never wrapped on the way.
A quadric and a curve over two fields do not mix (FieldMismatchError).
"""

from __future__ import annotations

from operator import mul

from .errors import (
    DegenerateFrameError,
    FieldMismatchError,
    InternalCheckError,
    NotThroughFrameError,
    ZeroQuadricError,
)
from .fields import PrimeField, distinct_values
from .forms import BinaryForm, _div
from .linalg import rank_kernel, rank_of


class Frame:
    """n+2 points of P^n in linear general position."""

    __slots__ = ("n", "points")

    def __init__(self, points, field):
        points = [tuple(p) for p in points]
        n = len(points) - 2
        if n < 1:
            raise ValueError("a frame needs at least 3 points")
        if any(len(p) != n + 1 for p in points):
            raise ValueError(f"frame points in P^{n} need {n + 1} coordinates")
        _validate_general_position(points, n, field)
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "points", tuple(points))

    def __setattr__(self, name, value):
        raise AttributeError("Frame is immutable")


def _validate_general_position(points, n, field):
    # a single spanning relation sum(lambda_j P_j) = 0 exists; general
    # position holds exactly when every lambda_j is nonzero
    cols = [list(col) for col in zip(*points)]
    rank, kernel = rank_kernel(cols, n + 2, field)
    if rank < n + 1:
        raise DegenerateFrameError(f"frame spans only a P^{rank - 1}")
    relation = kernel[0]
    zero_slots = [j for j, lam in enumerate(relation) if not lam]
    if zero_slots:
        involved = tuple(j for j, lam in enumerate(relation) if lam)
        raise DegenerateFrameError(f"points {involved} are linearly dependent")


class StandardRNC:
    """Rational normal curve through the standard frame.

    params are the free node values (a_2, ..., a_n); values 0 and 1 are
    fixed by normalization.  Coordinate j of the parametrization is
    prod_{i != j} (s0 - value_i * s1), a binary form of degree n.  The
    curve stores all n+1 node values as working values, ``values``.
    """

    __slots__ = ("n", "values", "field")

    def __init__(self, n: int, params, field):
        """The curve over field with these params: field elements or ints."""
        params = tuple(params)
        if n < 2:
            raise ValueError(f"need ambient dimension >= 2, got {n}")
        if len(params) != n - 1:
            raise ValueError(f"need {n - 1} parameters for P^{n}, got {len(params)}")
        values = (0, 1) + tuple(field.unwrap(params))
        slots = {}
        for i, v in enumerate(values):
            slots.setdefault(v, []).append(i)
        clashes = [group for group in slots.values() if len(group) > 1]
        if clashes:
            i, j = min(clashes)[:2]
            raise ValueError(
                f"node values must be pairwise distinct, slots {i} and {j} coincide"
            )
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "values", values)
        object.__setattr__(self, "field", field)

    def __setattr__(self, name, value):
        raise AttributeError("StandardRNC is immutable")

    @property
    def params(self):
        """The free node values (a_2, ..., a_n) as field elements."""
        return tuple(self.field.wrap(self.values[2:]))

    @property
    def node_values(self):
        """All n+1 finite node values (0, 1, a_2, ..., a_n) as field elements."""
        return tuple(self.field.wrap(self.values))

    def coordinate_forms(self):
        field = self.field
        return [BinaryForm(self.n, c, field) for c in _node_singles(self.values, field)]

    def __eq__(self, other):
        if not isinstance(other, StandardRNC):
            return NotImplemented
        return (self.field, self.n, self.values) == (other.field, other.n, other.values)

    def __hash__(self):
        return hash((self.field, self.n, self.values))

    def __repr__(self):
        return f"StandardRNC(n={self.n}, params={self.params})"


def random_standard_rnc(n: int, field, rng) -> StandardRNC:
    return StandardRNC(n, distinct_values(field, rng, n - 1, exclude=(0, 1)), field)


class Quadric:
    """Quadric hypersurface held as an exact symmetric Gram matrix over its field."""

    __slots__ = ("n", "values", "field")

    def __init__(self, gram, field):
        """The quadric over field with this Gram matrix of ints or field elements."""
        values = tuple(tuple(field.unwrap(tuple(row))) for row in gram)
        size = len(values)
        if any(len(row) != size for row in values):
            raise ValueError("Gram matrix must be square")
        for i in range(size):
            for j in range(i + 1, size):
                if not values[i][j] == values[j][i]:
                    raise ValueError(f"Gram matrix not symmetric at ({i},{j})")
        object.__setattr__(self, "n", size - 1)
        object.__setattr__(self, "values", values)
        object.__setattr__(self, "field", field)

    def __setattr__(self, name, value):
        raise AttributeError("Quadric is immutable")

    @property
    def gram(self) -> tuple:
        """The Gram matrix as field elements: FpElements over F_p."""
        return tuple(tuple(self.field.wrap(row)) for row in self.values)

    @classmethod
    def from_monomials(cls, n: int, coeffs: dict, field):
        """Build from {(i, j): c} meaning sum of c * x_i * x_j terms."""
        gram = [[field.zero for _ in range(n + 1)] for _ in range(n + 1)]
        for (i, j), c in coeffs.items():
            c = field(c)
            if i == j:
                gram[i][i] = gram[i][i] + c
            else:
                half = _div(c, 2)
                gram[i][j] = gram[i][j] + half
                gram[j][i] = gram[j][i] + half
        return cls(gram, field)

    def is_zero(self) -> bool:
        return not any(any(row) for row in self.values)

    def rank(self) -> int:
        return rank_of(self.values, self.n + 1, self.field)

    def is_through_standard_frame(self) -> bool:
        """Zero diagonal (coordinate points) and zero entry sum (all-ones point)."""
        if any(self.values[i][i] for i in range(self.n + 1)):
            return False
        return not self.field.reduce([sum(map(sum, self.values))])[0]

    def __repr__(self):
        return f"Quadric(n={self.n})"


def random_quadric_through_frame(n: int, field, rng) -> Quadric:
    """Random quadric vanishing on all n+2 standard frame points.

    Diagonal entries are zero (coordinate points) and the slot (0,1) is
    solved so the total entry sum vanishes (all-ones point).
    """
    while True:
        gram = [[0] * (n + 1) for _ in range(n + 1)]
        rest = field.zero
        for i in range(n + 1):
            for j in range(i + 1, n + 1):
                if (i, j) == (0, 1):
                    continue
                x = field.random_scalar(rng)
                gram[i][j] = x
                gram[j][i] = x
                rest = rest + x
        fix = -rest
        gram[0][1] = fix
        gram[1][0] = fix
        q = Quadric(gram, field)
        if not q.is_zero():
            return q


def _drop_linear(coeffs, value, field):
    """Coefficients of f / (s0 - value*s1) for a form f that it divides.

    Runs on working values: ints of any size over F_p, reduced to residues
    at each step, and rationals as they are.  Coefficient k of
    (s0 - value*s1) * g is g_k - value*g_(k-1), so the quotient follows by
    Horner's rule and what is left of the last coefficient is the
    remainder, which must vanish.
    """
    # two loops, not one: a single unreduced Horner pass and one field.reduce
    # grows acc by a residue's width per step, and it ran `rnc` about 3% slower
    # (perfbench trials_per_s at seed 1, 869.7 -> 840.5, 3 alternating 8 s
    # pairs on a 2-core x86_64 host, Python 3.11.7)
    if isinstance(field, PrimeField):
        p = field.p
        acc = coeffs[0] % p
        out = [acc]
        for c in coeffs[1:]:
            acc = (c + value * acc) % p
            out.append(acc)
    else:
        acc = coeffs[0]
        out = [acc]
        for c in coeffs[1:]:
            acc = c + value * acc
            out.append(acc)
    if out.pop():
        raise InternalCheckError(f"s0 - {value}*s1 does not divide the form")
    return out


def _node_singles(values, field):
    """Coefficient lists of P_k = P / l_k for every node value v_k.

    P = prod_k l_k, l_k = s0 - v_k*s1, takes a shift and subtract per factor
    and one field.reduce; each P_k is one exact division.  The node values
    and the lists hold working values: int residues over F_p, rationals as
    they are.
    """
    full = [1]
    for v in values:
        full = [a - v * b for a, b in zip(full + [0], [0] + full)]
    full = field.reduce(full)
    return [_drop_linear(full, v, field) for v in values]


def _residual_pass(gram, values, field):
    """Residual form and its partials in the free node values, in one pass.

    With l_k = s0 - v_k*s1, P = prod_k l_k and P_j = P / l_j, the composite
    q(phi(s)) is P * B with B = sum_m S_m, S_m = sum_(j != m) G_mj P / (l_m*l_j).
    As l_m divides every P_j with j != m, S_m = (sum_(j != m) G_mj P_j) / l_m;
    G_mm is never read.  The through-frame condition makes B divisible by
    s1, and R = B / s1.  Returns R and the coefficient lists of dR/dv_m for
    m = 2..n (see rnc_residual_and_rank).  The n+1 singles, n+1 S_m and n-1
    partials are 3(n+1) - 2 divisions, each checked to be exact.

    The pass runs on the field's working values, int residues over F_p, as
    the Gram rows and node values come: the numerators of the S_m stay
    unreduced ints, B is reduced once before its checks and each division
    reduces at every Horner step.  The partials are value lists.
    """
    count = len(values)
    singles = _node_singles(values, field)
    columns = list(zip(*singles))
    sums = []
    for m, v in enumerate(values):
        row = list(gram[m])
        row[m] = 0
        sums.append(_drop_linear([sum(map(mul, row, col)) for col in columns], v, field))
    b = field.reduce([sum(col) for col in zip(*sums)])
    if b[0]:
        raise InternalCheckError("B is not divisible by s1 despite validated preconditions")
    residual = BinaryForm(len(b) - 2, b[1:], field)
    if residual.degree != count - 3:
        raise InternalCheckError(f"residual degree {residual.degree} != {count - 3}")
    partials = []
    for m in range(2, count):
        diff = [s + s - x for x, s in zip(b, sums[m])]
        partials.append(_drop_linear(diff, values[m], field))
    return residual, partials


def _check_pair(q: Quadric, curve: StandardRNC):
    """Check that q shares the curve's field and has a residual."""
    if q.field != curve.field:
        raise FieldMismatchError(f"quadric over {q.field!r} vs curve over {curve.field!r}")
    if q.is_zero():
        raise ZeroQuadricError("residual of the zero quadric is undefined")
    if q.n != curve.n:
        raise ValueError(f"quadric in P^{q.n} vs curve in P^{curve.n}")
    if not q.is_through_standard_frame():
        raise NotThroughFrameError(
            "quadric does not vanish on the standard frame "
            "(needs zero diagonal and zero total Gram sum)"
        )


def residual_polynomial(q: Quadric, curve: StandardRNC) -> BinaryForm:
    """Degree n-2 form whose vanishing puts the curve inside the quadric.

    The composite q(phi(s)) has degree 2n and is divisible by the full
    node-factor product s1 * prod_j (s0 - value_j s1) of degree n+2; the
    quotient is returned.  The curve lies on the quadric exactly when the
    returned form is identically zero.
    """
    _check_pair(q, curve)
    return _residual_pass(q.values, curve.values, curve.field)[0]


def composite_on_curve(q: Quadric, curve: StandardRNC) -> BinaryForm:
    """q evaluated on the parametrization, a binary form of degree 2n."""
    phis = curve.coordinate_forms()
    field = curve.field
    acc = BinaryForm.zero(2 * curve.n, field)
    gram = q.gram
    for i in range(curve.n + 1):
        row = gram[i]
        if row[i]:
            acc = acc + (phis[i] * phis[i]).scale(row[i])
        for j in range(i + 1, curve.n + 1):
            if row[j]:
                acc = acc + (phis[i] * phis[j]).scale(row[j] + row[j])
    return acc


def rnc_residual_and_rank(q: Quadric, curve: StandardRNC):
    """Residual form and finiteness rank of the pair, from one pass.

    The rank is that of the Jacobian of the residual coefficients in the
    params.  In B = s1 * R = sum_m S_m, S_m = (sum_(j != m) G_mj P_j) / l_m
    (see _residual_pass), each term G_ij P / (l_i*l_j) contains l_m once
    if m is not in {i, j}, else not at all; the latter add up to 2*S_m.
    As dl_m/dv_m = -s1, dR/dv_m = -(B - 2*S_m) / l_m exactly, a form of
    degree n-2, for each free node value v_m (m = 2..n): n-1 of the pass's
    3(n+1) - 2 divisions.  Full rank n-1 certifies that the curve is
    locally the only one on the quadric near this parameter sample.
    """
    _check_pair(q, curve)
    residual, partials = _residual_pass(q.values, curve.values, curve.field)
    # the partials as rows: the transpose of the Jacobian, of the same rank
    return residual, rank_of(partials, curve.n - 1, curve.field)
