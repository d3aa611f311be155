"""Rational normal curves through a frame of n+2 points.

The frame is normalized to the n+1 coordinate points plus the all-ones
point.  Curves through it are parametrized by n-1 scalars: the curve with
node values (0, 1, a_2, ..., a_n) hits coordinate point j at parameter
(value_j : 1) and the all-ones point at (1 : 0).  The parametrization is
kept in cleared-denominator form, coordinate j being the product of the
linear factors of all the other node values, so only polynomial
arithmetic is ever needed.
"""

from __future__ import annotations

from .errors import (
    CenterNotOnCurveError,
    DegenerateFrameError,
    InternalCheckError,
    NotThroughFrameError,
    SingularMatrixError,
    ZeroQuadricError,
)
from .fields import field_of, random_distinct
from .forms import BinaryForm, divide_exact, gcd_many, product_of_linears
from .linalg import rank_kernel, rank_of


class Frame:
    """n+2 points of P^n in linear general position."""

    __slots__ = ("n", "points")

    def __init__(self, points, field=None):
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

    def __iter__(self):
        return iter(self.points)

    def __getitem__(self, j):
        return self.points[j]


def _validate_general_position(points, n, field):
    # a single spanning relation sum(lambda_j P_j) = 0 exists; general
    # position holds exactly when every lambda_j is nonzero
    cols = [list(col) for col in zip(*points)]
    rank, kernel = rank_kernel(cols, n + 2, field)
    if rank < n + 1:
        raise DegenerateFrameError(
            f"frame spans only a P^{rank - 1}", subset=tuple(range(n + 2))
        )
    relation = kernel[0]
    zero_slots = [j for j, lam in enumerate(relation) if not lam]
    if zero_slots:
        involved = tuple(j for j, lam in enumerate(relation) if lam)
        raise DegenerateFrameError(
            f"points {involved} are linearly dependent", subset=involved
        )


def standard_frame(n: int, field):
    pts = []
    for j in range(n + 1):
        pts.append(tuple(field.one if i == j else field.zero for i in range(n + 1)))
    pts.append(tuple(field.one for _ in range(n + 1)))
    return Frame(pts, field)


def random_frame(n: int, field, rng) -> Frame:
    while True:
        pts = [
            tuple(field.random_scalar(rng) for _ in range(n + 1))
            for _ in range(n + 2)
        ]
        try:
            return Frame(pts, field)
        except DegenerateFrameError:
            continue


def frame_transform(frame: Frame, field):
    """Matrix sending the frame to (e_0, ..., e_n, all-ones), up to scale.

    With A the matrix of the first n+1 points as columns and lam the
    solution of A*lam = P_{n+1}, the frame map is the inverse of
    A*diag(lam), that is diag(1/lam) * A^-1.  A^-1 comes from the kernel
    of [A | -I]: its basis vector with the 1 in column n+1+k is
    (A^-1 e_k, e_k) exactly when A is invertible.
    """
    n = frame.n
    m = n + 1
    rows = [
        [frame.points[j][i] for j in range(m)] + [-1 if k == i else 0 for k in range(m)]
        for i in range(m)
    ]
    _, basis = rank_kernel(rows, 2 * m, field)
    # the right blocks form I only if A*X = I for the left blocks X
    if [[1 if x == k else 0 for x in range(m)] for k in range(m)] != [
        list(v[m:]) for v in basis
    ]:
        raise DegenerateFrameError(
            "first n+1 frame points do not span", subset=tuple(range(m))
        ) from SingularMatrixError("frame matrix is singular")
    # column k of A^-1 is basis[k][:m]
    lam = [sum(basis[k][i] * frame.points[n + 1][k] for k in range(m)) for i in range(m)]
    bad = [j for j, l in enumerate(lam) if not l]
    if bad:
        involved = tuple(j for j, l in enumerate(lam) if l) + (n + 1,)
        raise DegenerateFrameError(
            f"last point lies in the span of points {involved[:-1]}", subset=involved
        )
    return [[basis[k][i] / lam[i] for k in range(m)] for i in range(m)]


def apply_transform(matrix, point):
    return tuple(sum(a * b for a, b in zip(row, point)) for row in matrix)


class StandardRNC:
    """Rational normal curve through the standard frame.

    params are the free node values (a_2, ..., a_n); values 0 and 1 are
    fixed by normalization.  Coordinate j of the parametrization is
    prod_{i != j} (s0 - value_i * s1), a binary form of degree n.
    """

    __slots__ = ("n", "params", "field")

    def __init__(self, n: int, params, field=None):
        params = tuple(params)
        if n < 2:
            raise ValueError(f"need ambient dimension >= 2, got {n}")
        if len(params) != n - 1:
            raise ValueError(f"need {n - 1} parameters for P^{n}, got {len(params)}")
        if field is None:
            field = field_of(params[0])
        values = (field.zero, field.one) + tuple(field(p) for p in params)
        for i in range(len(values)):
            for j in range(i + 1, len(values)):
                if values[i] == values[j]:
                    raise ValueError(
                        f"node values must be pairwise distinct, "
                        f"slots {i} and {j} coincide"
                    )
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "params", values[2:])
        object.__setattr__(self, "field", field)

    def __setattr__(self, name, value):
        raise AttributeError("StandardRNC is immutable")

    @property
    def node_values(self):
        """All n+1 finite node values (0, 1, a_2, ..., a_n)."""
        return (self.field.zero, self.field.one) + self.params

    def coordinate_forms(self):
        values = self.node_values
        full = product_of_linears(values, self.field).coeffs
        return [BinaryForm(self.n, _drop_linear(full, v)) for v in values]

    def evaluate(self, s0, s1):
        """Point of P^n at parameter (s0 : s1)."""
        values = self.node_values
        factors = [s0 - v * s1 for v in values]
        out = []
        for j in range(len(values)):
            acc = self.field.one
            for i, f in enumerate(factors):
                if i != j:
                    acc = acc * f
            out.append(acc)
        return tuple(out)

    def __eq__(self, other):
        if not isinstance(other, StandardRNC):
            return NotImplemented
        return self.n == other.n and self.params == other.params

    def __hash__(self):
        return hash((self.n, self.params))

    def __repr__(self):
        return f"StandardRNC(n={self.n}, params={self.params})"


def random_standard_rnc(n: int, field, rng) -> StandardRNC:
    params = random_distinct(field, rng, n - 1, exclude=(field.zero, field.one))
    return StandardRNC(n, params, field)


class Quadric:
    """Quadric hypersurface held as an exact symmetric Gram matrix."""

    __slots__ = ("n", "gram")

    def __init__(self, gram):
        gram = tuple(tuple(row) for row in gram)
        size = len(gram)
        if any(len(row) != size for row in gram):
            raise ValueError("Gram matrix must be square")
        for i in range(size):
            for j in range(i + 1, size):
                if not gram[i][j] == gram[j][i]:
                    raise ValueError(f"Gram matrix not symmetric at ({i},{j})")
        object.__setattr__(self, "n", size - 1)
        object.__setattr__(self, "gram", gram)

    def __setattr__(self, name, value):
        raise AttributeError("Quadric is immutable")

    @classmethod
    def from_monomials(cls, n: int, coeffs: dict, field):
        """Build from {(i, j): c} meaning sum of c * x_i * x_j terms."""
        two_inv = field.one / field(2)
        gram = [[field.zero for _ in range(n + 1)] for _ in range(n + 1)]
        for (i, j), c in coeffs.items():
            c = field(c)
            if i == j:
                gram[i][i] = gram[i][i] + c
            else:
                half = c * two_inv
                gram[i][j] = gram[i][j] + half
                gram[j][i] = gram[j][i] + half
        return cls(gram)

    def is_zero(self) -> bool:
        return not any(any(row) for row in self.gram)

    def evaluate(self, point):
        return sum(
            g * point[i] * point[j]
            for i, row in enumerate(self.gram)
            for j, g in enumerate(row)
        )

    def rank(self) -> int:
        return rank_of([list(r) for r in self.gram], self.n + 1)

    def singular_kernel(self):
        return rank_kernel([list(r) for r in self.gram], self.n + 1)[1]

    def is_through_standard_frame(self) -> bool:
        if any(self.gram[i][i] for i in range(self.n + 1)):
            return False
        return not sum(g for row in self.gram for g in row)

    def frame_points_in_singular_locus(self):
        """Indices of standard frame points killed by the Gram matrix."""
        hits = []
        for j in range(self.n + 1):
            if not any(row[j] for row in self.gram):
                hits.append(j)
        if all(not sum(row) for row in self.gram):
            hits.append(self.n + 1)
        return hits

    def __repr__(self):
        return f"Quadric(n={self.n})"


def random_quadric_through_frame(n: int, field, rng) -> Quadric:
    """Random quadric vanishing on all n+2 standard frame points.

    Diagonal entries are zero (coordinate points) and the slot (0,1) is
    solved so the total entry sum vanishes (all-ones point).
    """
    while True:
        gram = [[field.zero for _ in range(n + 1)] for _ in range(n + 1)]
        for i in range(n + 1):
            for j in range(i + 1, n + 1):
                if (i, j) == (0, 1):
                    continue
                x = field.random_scalar(rng)
                gram[i][j] = x
                gram[j][i] = x
        rest = field.zero
        for i in range(n + 1):
            for j in range(i + 1, n + 1):
                if (i, j) != (0, 1):
                    rest = rest + gram[i][j]
        fix = -rest
        gram[0][1] = fix
        gram[1][0] = fix
        q = Quadric(gram)
        if not q.is_zero():
            return q


def random_rank4_quadric_through_frame(n: int, field, rng) -> Quadric:
    """Random quadric of rank exactly 4 vanishing on the standard frame.

    Shape u*v - w*z with v solved from the coordinate-point conditions
    and one entry of z tuned so the all-ones point lies on the quadric.
    """
    if n < 3:
        raise ValueError("rank-4 quadrics need n >= 3")
    while True:
        u = [field.random_scalar(rng) for _ in range(n + 1)]
        if not all(u):
            continue
        w = [field.random_scalar(rng) for _ in range(n + 1)]
        z = [field.random_scalar(rng) for _ in range(n + 1)]
        # v_j kills the value at coordinate point j; then slide z_0 to kill
        # the value at the all-ones point, which is linear in the slide
        v = [w[j] * z[j] / u[j] for j in range(n + 1)]
        su, sw = sum(u), sum(w)
        base = su * sum(v) - sw * sum(z)
        slope = su * (w[0] / u[0]) - sw
        if not slope:
            continue
        t = -base / slope
        z[0] = z[0] + t
        v[0] = w[0] * z[0] / u[0]
        gram = [
            [
                (u[i] * v[j] + v[i] * u[j] - w[i] * z[j] - z[i] * w[j])
                / field(2)
                for j in range(n + 1)
            ]
            for i in range(n + 1)
        ]
        q = Quadric(gram)
        if q.is_zero() or q.rank() != 4:
            continue
        if not q.is_through_standard_frame():
            raise InternalCheckError("rank-4 construction missed the frame")
        return q


def _drop_linear(coeffs, value):
    """Coefficients of f / (s0 - value*s1) for a form f that it divides.

    Coefficient k of (s0 - value*s1) * g is g_k - value*g_(k-1), so the
    quotient follows by Horner's rule and what is left of the last
    coefficient is the remainder, which must vanish.
    """
    quotient = [coeffs[0]]
    for c in coeffs[1:-1]:
        quotient.append(c + value * quotient[-1])
    if coeffs[-1] + value * quotient[-1]:
        raise InternalCheckError(f"s0 - {value}*s1 does not divide the form")
    return quotient


def _residual_pass(gram, node_values, field):
    """Residual form and its partials in the free node values, in one pass.

    With l_k = s0 - v_k*s1, P = prod_k l_k and P_ij = P / (l_i*l_j), the
    composite q(phi(s)) is P * B with B = sum_m S_m and
    S_m = sum_(j != m) G_mj P_mj.  The through-frame condition makes B
    divisible by s1, and the residual is R = B / s1.  Returns R and the
    coefficient lists of dR/dv_m for m = 2..n (see rnc_finiteness_rank).
    Every division is checked to be exact.
    """
    count = len(node_values)
    full = product_of_linears(node_values, field).coeffs
    singles = [_drop_linear(full, v) for v in node_values]
    sums = [[field.zero] * (count - 1) for _ in range(count)]
    for i in range(count):
        row = gram[i]
        for j in range(i + 1, count):
            g = row[j]
            if not g:
                continue
            terms = [g * c for c in _drop_linear(singles[i], node_values[j])]
            sums[i] = [a + t for a, t in zip(sums[i], terms)]
            sums[j] = [a + t for a, t in zip(sums[j], terms)]
    b = [sum(col, field.zero) for col in zip(*sums)]
    if b[0]:
        raise InternalCheckError("B is not divisible by s1 despite validated preconditions")
    residual = BinaryForm(len(b) - 2, b[1:])
    if residual.degree != count - 3:
        raise InternalCheckError(f"residual degree {residual.degree} != {count - 3}")
    partials = []
    for m in range(2, count):
        diff = [s + s - x for x, s in zip(b, sums[m])]
        partials.append(_drop_linear(diff, node_values[m]))
    return residual, partials


def _check_pair(q: Quadric, curve: StandardRNC):
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
    return _residual_pass(q.gram, curve.node_values, curve.field)[0]


def composite_on_curve(q: Quadric, curve: StandardRNC) -> BinaryForm:
    """q evaluated on the parametrization, a binary form of degree 2n."""
    phis = curve.coordinate_forms()
    field = curve.field
    acc = BinaryForm.zero(2 * curve.n, field)
    for i in range(curve.n + 1):
        row = q.gram[i]
        if row[i]:
            acc = acc + (phis[i] * phis[i]).scale(row[i])
        for j in range(i + 1, curve.n + 1):
            if row[j]:
                acc = acc + (phis[i] * phis[j]).scale(row[j] + row[j])
    return acc


def rnc_residual_and_rank(q: Quadric, curve: StandardRNC):
    """(residual_polynomial, rnc_finiteness_rank) of the pair, from one pass."""
    _check_pair(q, curve)
    residual, partials = _residual_pass(q.gram, curve.node_values, curve.field)
    rows = [list(row) for row in zip(*partials)]
    return residual, rank_of(rows, curve.n - 1, curve.field)


def rnc_finiteness_rank(q: Quadric, curve: StandardRNC) -> int:
    """Rank of the Jacobian of the residual coefficients in the params.

    Writing B = s1 * R = sum_m S_m as in _residual_pass, the term G_ij P_ij
    of B contains l_m = s0 - v_m*s1 exactly once when m is not in {i, j}
    and not at all otherwise; the latter terms add up to 2*S_m.  Since
    dl_m/dv_m = -s1, this gives the exact partial derivative
    dR/dv_m = -(B - 2*S_m) / l_m, a form of degree n-2, for each free
    node value v_m (m = 2..n).  Full rank n-1 certifies that the curve is
    locally the only one on the quadric near this parameter sample.
    """
    return rnc_residual_and_rank(q, curve)[1]


def project_from_frame_point(curve, j: int):
    """Parametrized image of the curve under projection from frame point j.

    Accepts a StandardRNC or a sequence of coordinate forms of equal
    degree.  For j <= n the center is a coordinate point and its
    coordinate is dropped; for j = n+1 the all-ones point is moved to a
    coordinate point first (coordinates become differences).  The common
    linear factor picked up by the remaining forms, the parameter of the
    center, is divided out exactly.
    """
    if isinstance(curve, StandardRNC):
        forms = curve.coordinate_forms()
    else:
        forms = list(curve)
    n = len(forms) - 1
    if not 0 <= j <= n + 1:
        raise ValueError(f"frame index {j} out of range for P^{n}")
    if j <= n:
        remaining = [f for i, f in enumerate(forms) if i != j]
    else:
        remaining = [forms[i] - forms[n] for i in range(n)]
    common = gcd_many(remaining)
    if common.degree < 1:
        raise CenterNotOnCurveError(
            f"projection center (frame point {j}) is not on the curve"
        )
    return tuple(divide_exact(f, common) for f in remaining)


def coefficient_rank(forms) -> int:
    """Rank of the coefficient matrix of a list of equal-degree forms."""
    degree = forms[0].degree
    rows = [list(f.coeffs) for f in forms]
    return rank_of(rows, degree + 1)
