"""Curves inside rational normal scrolls and their pushforwards.

A scroll point is a pair ((y_1, ..., y_d), (t_0, t_1)) of fiber and base
coordinates, subject to (y, t) ~ (lam^{-a_i} mu y_i, lam t).  A curve of
fiber-class degree k is given by base forms t_0, t_1 of degree k and
fiber forms y_i of degree n - k*a_i; composing with the monomial system
t_0^b t_1^c y_i (b + c = a_i) lands the curve in P^n with coordinates of
degree n.  The module also carries section interpolation through point
frames, sampled incidence-dimension measurements, and the one-parameter
scroll degeneration family.

The incidence measurements rank the Jacobian of the curve coefficients
to the marked image points, each point with a rescaling (gauge) column.
Each point's rows are put in an affine chart of its image point, one
nonzero coordinate divided out, which drops the gauge column and one
row per point from the elimination without changing either rank.  Over
the point's vectors (T0, T1, Y_1, ..., Y_d, Sigma) every row obeys the
chain rule (Sigma = t0'*T0 + t1'*T1 + sum y_l'*Y_l), Euler's identity
(t0*T0 + t1*T1 = sum a_l*y_l*Y_l) and the gauge identity (sum y_l*Y_l
is the gauge entry, 0 in the chart), so a point's charted rows span at
most d dimensions, the scroll's tangent space.  Where the chart row lies
in a fiber of positive degree, d rows that are triangular on the other
columns certify that span, and only those are held; see _jacobian_blocks.
"""

from __future__ import annotations

from collections import namedtuple
from math import prod

from .errors import DependentConditionsError, InternalCheckError
from .fields import distinct_values, random_distinct
from .forms import (BinaryForm, _cleared, _coefficient_rows, _horner, _split_forms, compose_form,
                    form_gcd, gcd_many, random_form)
from .linalg import pivot_columns_of_combinations, rank_kernel, rank_of
from .rngstream import as_stream
from .scrolls import EMPTY, ScrollType, dim_curves_in_scroll


class CurveInScroll:
    """Curve of class kL-degree k inside the scroll of the given type."""

    __slots__ = ("scroll", "k", "t0", "t1", "ys", "field")

    def __init__(self, scroll: ScrollType, k: int, t0: BinaryForm, t1: BinaryForm, ys):
        ys = tuple(ys)
        n, d = scroll.n, scroll.d
        if k < 1:
            raise ValueError(f"fiber degree k must be positive, got {k}")
        if k > d:
            raise ValueError(f"k={k} exceeds the scroll dimension d={d}")
        if t0.degree != k or t1.degree != k:
            raise ValueError(f"base forms must have degree {k}")
        if t0.is_zero() and t1.is_zero():
            raise ValueError("base forms must not both vanish")
        if len(ys) != d:
            raise ValueError(f"need {d} fiber forms, got {len(ys)}")
        for i, (a_i, y) in enumerate(zip(scroll.degrees, ys)):
            want = n - k * a_i
            if want < 0:
                raise ValueError(
                    f"no curve with k={k} exists: n - k*a_{i + 1} = {want} < 0"
                )
            if y.degree != want:
                raise ValueError(f"fiber form {i + 1} must have degree {want}")
        if all(y.is_zero() for y in ys):
            raise ValueError("fiber forms must not all vanish")
        if form_gcd(t0, t1).degree != 0:
            raise ValueError("base forms must be coprime (k is the true degree)")
        fiber_gcd = gcd_many([y for y in ys if not y.is_zero()])
        if fiber_gcd.degree != 0:
            raise ValueError(
                "fiber forms share a zero; the curve misses a fiber point there"
            )
        object.__setattr__(self, "scroll", scroll)
        object.__setattr__(self, "k", k)
        object.__setattr__(self, "t0", t0)
        object.__setattr__(self, "t1", t1)
        object.__setattr__(self, "ys", ys)
        object.__setattr__(self, "field", t0.field)

    def __setattr__(self, name, value):
        raise AttributeError("CurveInScroll is immutable")

    def __repr__(self):
        return f"CurveInScroll({self.scroll!r}, k={self.k})"


class PushedCurve(namedtuple("PushedCurve", "forms slots rank degenerate")):
    """Pushforward of a scroll curve to P^n.

    slots holds (fiber index i, b, c) per coordinate, b + c = a_i.
    """

    __slots__ = ()


def monomial_slots(scroll: ScrollType):
    """Coordinate layout of the scroll's hyperplane system.

    Slot order: fiber blocks in order, each block listing exponent b of
    t_0 from a_i down to 0.
    """
    out = []
    for i, a_i in enumerate(scroll.degrees):
        for b in range(a_i, -1, -1):
            out.append((i, b, a_i - b))
    return tuple(out)


def push_forward(curve: CurveInScroll) -> PushedCurve:
    scroll = curve.scroll
    n = scroll.n
    slots = monomial_slots(scroll)
    one = BinaryForm(0, (1,), curve.field)
    t0_pows, t1_pows = [one], [one]
    for _ in range(max(scroll.degrees) if scroll.degrees else 0):
        t0_pows.append(t0_pows[-1] * curve.t0)
        t1_pows.append(t1_pows[-1] * curve.t1)
    forms = []
    for (i, b, c) in slots:
        forms.append(t0_pows[b] * t1_pows[c] * curve.ys[i])
    rank = rank_of([list(f.values) for f in forms], n + 1, curve.field)
    return PushedCurve(tuple(forms), slots, rank, rank < n + 1)


class ScrollSection:
    """Divisor-class section mL + M on a scroll, held componentwise.

    The degree sequence is a tuple of nonnegative ints kept in the order
    given: the degeneration family needs unsorted auxiliary scrolls.
    """

    __slots__ = ("degrees", "m", "comps", "field")

    def __init__(self, degrees: tuple, m: int, comps):
        comps = tuple(comps)
        if any(a < 0 for a in degrees):
            raise ValueError("scroll degrees must be nonnegative")
        if len(comps) != len(degrees):
            raise ValueError(f"need {len(degrees)} components, got {len(comps)}")
        for i, (a_i, comp) in enumerate(zip(degrees, comps)):
            if a_i + m < 0:
                raise ValueError(f"class degree a_{i + 1} + m = {a_i + m} < 0")
            if comp.degree != a_i + m:
                raise ValueError(f"component {i + 1} must have degree {a_i + m}")
        object.__setattr__(self, "degrees", degrees)
        object.__setattr__(self, "m", m)
        object.__setattr__(self, "comps", comps)
        object.__setattr__(self, "field", comps[0].field)

    def __setattr__(self, name, value):
        raise AttributeError("ScrollSection is immutable")

    def is_zero(self) -> bool:
        return all(c.is_zero() for c in self.comps)

    def __eq__(self, other):
        if not isinstance(other, ScrollSection):
            return NotImplemented
        return (
            self.degrees == other.degrees
            and self.m == other.m
            and self.comps == other.comps
        )

    def __hash__(self):
        return hash((self.degrees, self.m, self.comps))

    def __repr__(self):
        return f"ScrollSection(degrees={self.degrees}, m={self.m})"


def section_on_curve(section: ScrollSection, curve: CurveInScroll) -> BinaryForm:
    """Pullback of the section along the curve, degree k*m + n."""
    if section.degrees != curve.scroll.degrees:
        raise ValueError("section and curve live on different scrolls")
    n, k = curve.scroll.n, curve.k
    total = BinaryForm.zero(k * section.m + n, curve.field)
    for comp, y in zip(section.comps, curve.ys):
        if comp.is_zero() or y.is_zero():
            continue
        total = total + compose_form(comp, curve.t0, curve.t1) * y
    return total


def random_curve_in_scroll(scroll: ScrollType, k: int, field, rng) -> CurveInScroll:
    if dim_curves_in_scroll(scroll, k) is EMPTY:
        raise ValueError(f"no curves with k={k} in {scroll!r}")
    n = scroll.n
    while True:
        t0 = random_form(k, field, rng)
        t1 = random_form(k, field, rng)
        ys = [random_form(n - k * a_i, field, rng) for a_i in scroll.degrees]
        try:
            return CurveInScroll(scroll, k, t0, t1, ys)
        except ValueError:
            continue


def random_lifted_frame(scroll: ScrollType, field, rng):
    """n+2 scroll points with pairwise distinct base values."""
    n, d = scroll.n, scroll.d
    ts = random_distinct(field, rng, n + 2)
    points = []
    for t_val in ts:
        while True:
            y = tuple(field.random_scalar(rng) for _ in range(d))
            if any(y):
                break
        points.append((y, (t_val, field.one)))
    return points


# status is UNIQUE or NONE; curve is the CurveInScroll for UNIQUE
UnisecantResult = namedtuple("UnisecantResult", "status curve kernel_dim")


def interpolate_unisecant(scroll: ScrollType, lifted_frame, field) -> UnisecantResult:
    """Solve for the k=1 curve through n+2 marked scroll points.

    The base map of a k=1 curve is an isomorphism, normalized here to the
    identity, so only the fiber forms y_i (degree D_i = n - a_i) are
    unknown.  Row j of H, the (n+2) x (n+1) matrix of hyperplane
    conditions, is the image of point (Y_j, t_j) in P^n, and rank H < n+1
    raises DependentConditionsError.  Write [u, v] = u0*v1 - u1*v0 and
    w_j = prod_{k != j} [t_j, t_k], nonzero once the base values are
    distinct.  Every form G of degree n has sum_j G(t_j) / w_j = 0 (the
    divided-difference identity), so the values at the t_j of the forms
    of degree D_i are the vectors annihilated by (t_j0^(a_i-r) *
    t_j1^r / w_j)_j, r = 0..a_i, the columns of H's block i over w_j.
    Hence y passes through every point, y(t_j) a multiple of Y_j, exactly
    when y_i(t_j) = nu_j * w_j * Y_ji with H^T nu = 0: the curves through
    the points are the kernel of H^T, of dimension n+2 - rank H, which
    the guard leaves at 1.  So the curve is unique up to scale and no
    positive-dimensional family can occur.  y vanishes at t_j exactly
    when nu_j = 0, and then no curve passes through point j.
    """
    n = scroll.n
    points = [(tuple(y), tuple(t)) for (y, t) in lifted_frame]
    if len(points) != n + 2:
        raise ValueError(f"need n+2 = {n + 2} points, got {len(points)}")
    # working values, unwrapped once: int residues over F_p
    points = [(tuple(field.unwrap(y)), tuple(field.unwrap(t))) for (y, t) in points]
    for (y, t) in points:
        if not (t[0] or t[1]):
            raise ValueError("invalid scroll point: base coordinates both zero")
        if not any(y):
            raise ValueError("invalid scroll point: fiber coordinates all zero")
    # a hyperplane is a section of L: the section conditions at m = 0
    hyperplanes = _coefficient_rows([(*t, y) for (y, t) in points], scroll.degrees, field)
    rank, kernel = rank_kernel(list(zip(*hyperplanes)), n + 2, field)
    if rank < n + 1:
        raise DependentConditionsError(
            "the marked points impose dependent conditions on the hyperplane system"
        )
    # brackets[j][k] = [t_j, t_k], nonzero for all j != k when the base values are distinct
    ts = [t for (_, t) in points]
    brackets = [field.reduce([u[0] * v[1] - u[1] * v[0] for v in ts]) for u in ts]
    if not all(x for j, row in enumerate(brackets) for x in row[:j]):
        return UnisecantResult("NONE", None, 0)
    nu = _cleared(field.unwrap(kernel[0]))[0]  # on ints: residues, or cleared rationals
    if not all(nu):
        return UnisecantResult("NONE", None, 1)
    ys = _fiber_forms(scroll, nu, points, brackets, field)
    try:
        curve = CurveInScroll(scroll, 1, BinaryForm(1, (1, 0), field),
                              BinaryForm(1, (0, 1), field), ys)
    except ValueError:  # the fiber forms share a zero off the marked points
        return UnisecantResult("NONE", None, 1)
    return UnisecantResult("UNIQUE", curve, 1)


def _fiber_forms(scroll, nu, points, brackets, field):
    """The fiber forms y_i with y_i(t_j) = nu_j * w_j * Y_ji at every point.

    Lagrange interpolation at the first D_i + 1 base points gives
    y_i = sum_{j <= D_i} c_ij * prod_{k <= D_i, k != j} l_k with
    l_k = t_k1*s0 - t_k0*s1 and c_ij = nu_j * Y_ji * h_ij, where
    h_ij = prod_{k > D_i} [t_j, t_k] is the part of w_j that the
    interpolation does not divide out; brackets[j][k] holds [t_j, t_k].  The sum is one recurrence,
    F_m = F_(m-1) * l_m + c_im * L_m with L_m = prod_{k < m} l_k shared by
    the components, so y_i takes O(D_i^2) steps, each reduced over F_p.
    Every marked point is then checked to lie on the curve, or
    InternalCheckError is raised.
    """
    n, reduce = scroll.n, field.reduce
    ts = [t for (_, t) in points]
    top = max(n - a_i for a_i in scroll.degrees)
    prefix = [[1]]  # prefix[m] = L_m
    for (u0, u1) in ts[:top]:
        f = prefix[-1] + [0]
        prefix.append(reduce([u1 * a - u0 * b for a, b in zip(f, [0] + f)]))
    ys = []
    for i, a_i in enumerate(scroll.degrees):
        deg = n - a_i
        c = reduce([nu[j] * y[i] * prod(brackets[j][deg + 1:])
                    for j, (y, _) in enumerate(points[:deg + 1])])
        acc = [c[0]]
        for m in range(1, deg + 1):
            u0, u1 = ts[m]
            f = acc + [0]
            acc = reduce([u1 * a - u0 * b + c[m] * x
                          for a, b, x in zip(f, [0] + f, prefix[m])])
        ys.append(BinaryForm(deg, acc, field))
    for (y, t) in points:
        values = reduce([_horner(f.values, *t) for f in ys])
        p = next(i for i, x in enumerate(y) if x)
        if not values[p] or any(reduce([v * y[p] - values[p] * x for v, x in zip(values, y)])):
            raise InternalCheckError("the interpolated unisecant misses a marked point")
    return ys


def sections_through_points(scroll: ScrollType, m: int, points, field):
    """Basis of sections of mL + M vanishing at all the given points."""
    degrees = scroll.degrees
    comp_degs = [a_i + m for a_i in degrees]
    conditions = [(*field.unwrap(t), field.unwrap(y)) for (y, t) in points]
    rows = _coefficient_rows(conditions, comp_degs, field)
    _, kernel = rank_kernel(rows, sum(deg + 1 for deg in comp_degs), field)
    return [ScrollSection(degrees, m, _split_forms(vec, comp_degs, field)) for vec in kernel]


# ---------------------------------------------------------------------------
# incidence-dimension sampling


# predicted is an int, or the EMPTY sentinel
DimensionReport = namedtuple(
    "DimensionReport",
    "family params predicted measured_ranks group_correction seed field fiber_dims",
)


def _jacobian_blocks(curve, sigma, field):
    """The Jacobian of the incidence map, a block of spanning rows per marked point.

    Returns (blocks, n_coeffs).  Point j's block is (vectors, rows, gauge).
    The vectors are its power vectors (s^e, ..., s, 1), each as (first
    column, values), at the t0, t1 and y_1, ..., y_d coefficient blocks of
    J_c, then the unit vector of its column in J_s.  Each image coordinate
    t0^b t1^c y_i gives a row, held as the scalars (T0, T1, Y_1, ..., Y_d,
    Sigma) that multiply those vectors, and a gauge entry, its value: the
    gauge column rescales image point j.  The vectors and the gauge are
    working values reduced once (int residues over a prime field); the row
    scalars are products of such values, left unreduced.

    Every slot's scalars obey three identities at the point:
    - chain rule: Sigma = t0'*T0 + t1'*T1 + sum_l y_l'*Y_l;
    - Euler: t0*T0 + t1*T1 = sum_l a_l*y_l*Y_l, since b + c = a_i;
    - gauge: sum_l y_l*Y_l is the gauge entry, 0 once the point is put in
      its affine chart.
    The chart row i0 (the first slot with a nonzero gauge entry, as
    _gauge_cleared_ranks takes it) lies in the first fiber l0 with
    y_l0(s) != 0, and t_e(s) != 0 for e = 0, or e = 1 at a zero of t0,
    since the base forms are coprime.  So Sigma, T_e and Y_l0 follow from
    the other d scalars, and the charted rows span at most d dimensions.
    When a_l0 > 0 the block holds row i0 first (the slot t_e^a_l0 y_l0),
    then its neighbour in fiber l0 and the slot t_e^a_l y_l of every other
    fiber l.  Charted, these d rows are triangular with a nonzero diagonal
    on the columns (the other t, Y_l for l != l0), so they span the
    point's charted rows and every column prefix keeps its rank.  When
    a_l0 = 0 the block holds every slot.
    """
    scroll = curve.scroll
    n, k, d, degrees = scroll.n, curve.k, scroll.d, scroll.degrees
    y_degs = [n - k * a_i for a_i in degrees]
    y_offs = [2 * (k + 1)]
    for deg in y_degs:
        y_offs.append(y_offs[-1] + deg + 1)
    n_coeffs = y_offs[-1]
    slots = monomial_slots(scroll)
    # per fiber l, the slot t0^a_l y_l and the slot t1^a_l y_l
    firsts = [r for r, (_, _, c) in enumerate(slots) if not c]
    lasts = [r for r, (_, b, _) in enumerate(slots) if not b]
    coeffs = [f.values for f in (curve.t0, curve.t1, *curve.ys)]
    # then the formal s0-partials of the same forms
    coeffs += [[(len(c) - 1 - r) * x for r, x in enumerate(c[:-1])] for c in coeffs]
    top, a_top = max(k, *y_degs), max(degrees)
    zeros = [0] * d
    reduce = field.reduce
    blocks = []
    for j, s in enumerate(sigma):
        values = reduce([_horner(c, s, 1) for c in coeffs])
        t0v, t1v, t0d, t1d = values[0], values[1], values[d + 2], values[d + 3]
        yv, yd = values[2:d + 2], values[d + 4:]
        pows = reduce([s ** e for e in range(top, -1, -1)])
        vectors = [(0, pows[top - k:]), (k + 1, pows[top - k:])]
        vectors += [(off, pows[top - deg:]) for off, deg in zip(y_offs, y_degs)]
        vectors.append((n_coeffs + j, [1]))
        t0p, t1p = [1], [1]
        for _ in range(a_top):
            t0p.append(t0p[-1] * t0v)
            t1p.append(t1p[-1] * t1v)
        # the fiber forms share no zero, so some y_l(s) != 0
        l0 = next(l for l, y in enumerate(yv) if y)
        if not degrees[l0]:
            held = slots
        else:
            at, step = (firsts, 1) if t0v else (lasts, -1)
            held = [slots[at[l0]], slots[at[l0] + step]]
            held += [slots[at[l]] for l in range(d) if l != l0]
        rows, gauge = [], []
        for (i, b, c) in held:
            y = yv[i]
            y_part = t0p[b] * t1p[c]
            t0_part = b * t0p[b - 1] * t1p[c] * y if b else 0
            t1_part = c * t0p[b] * t1p[c - 1] * y if c else 0
            row = [t0_part, t1_part, *zeros, y_part * yd[i] + t0_part * t0d + t1_part * t1d]
            row[2 + i] = y_part
            rows.append(row)
            gauge.append(y_part * y)
        blocks.append((vectors, rows, reduce(gauge)))
    return blocks, n_coeffs


def _gauge_cleared_ranks(blocks, n_prefix: int, ncols: int, field):
    """(rank of [M_prefix | gauge], rank of [M | gauge]) from one forward pass.

    M has ncols columns and M_prefix is its first n_prefix.  Each block is
    (vectors, rows, gauge) as _jacobian_blocks gives it: a row of M is the
    sum of its scalars times the block's vectors, whose supports are
    disjoint, and gauge column j holds block j's gauge entries and is zero
    on every other block.  A block is put in an affine chart: with x0 its
    first nonzero gauge entry, in row i0, every other row becomes
    x0*row - x*row_i0 and row i0 is dropped.  Row i0 was the only pivot of
    its gauge column, so the block adds 1 to both ranks and the gauge
    columns never reach the elimination; a block whose gauge column is
    zero keeps its rows and adds 0.  The rows go to one forward pass as
    combinations of the blocks' vectors, so over F_p each is packed as
    one int and its scalars are reduced once there.
    """
    charts, cleared = [], 0
    for vectors, rows, gauge in blocks:
        i0 = next((i for i, x in enumerate(gauge) if x), None)
        if i0 is not None:
            x0, lead = gauge[i0], rows[i0]
            rows = [[x0 * u - x * v for u, v in zip(row, lead)]
                    for i, (row, x) in enumerate(zip(rows, gauge)) if i != i0]
            cleared += 1
        charts.append((vectors, rows))
    pivots = pivot_columns_of_combinations(charts, ncols, field)
    return cleared + sum(1 for c in pivots if c < n_prefix), cleared + len(pivots)


def incidence_dimension_estimate(
    scroll: ScrollType, k: int, trials: int, seed: int, field
) -> DimensionReport:
    """Sampled dimension of the family of k-curves in scrolls of this type.

    Each trial draws a random curve and n+2 marked parameters, then takes
    the rank of the differential of (coefficients) -> (marked image
    points in P^n).  Modding out per-point rescalings leaves the
    curves-as-maps dimension up to the 2-dimensional torus; subtracting
    the 3 reparametrizations gives the family dimension to compare with
    the closed formula.  Appending the parameter motions measures the
    incidence variety and hence the 5-dimensional fibers.
    """
    predicted = dim_curves_in_scroll(scroll, k)
    if predicted is EMPTY:
        raise ValueError(f"the family of k={k} curves in {scroll!r} is empty")
    if trials < 1:
        raise ValueError("trials must be positive")
    n = scroll.n
    stream = as_stream(seed)
    measured = []
    fiber_dims = []
    for t_idx in range(trials):
        rng = stream.child(f"trial{t_idx}")
        # coprime base forms and zero-free fiber gcd rule out an
        # indeterminate image, so one draw per trial suffices
        curve = random_curve_in_scroll(scroll, k, field, rng)
        sigma = distinct_values(field, rng, n + 2)
        blocks, n_coeffs = _jacobian_blocks(curve, sigma, field)
        n_pts = n + 2
        rank_config, rank_aug = _gauge_cleared_ranks(blocks, n_coeffs, n_coeffs + n_pts, field)
        measured.append(rank_config - n_pts - 3)
        incidence_rank = rank_aug - n_pts
        fiber_dims.append(n_coeffs + n_pts - incidence_rank)
    return DimensionReport(
        family=repr(scroll),
        params={"n": n, "d": scroll.d, "a": list(scroll.degrees), "k": k, "trials": trials},
        predicted=predicted,
        measured_ranks=measured,
        group_correction={"reparametrization": 3, "torus": 2},
        seed=seed,
        field=field.name,
        fiber_dims=fiber_dims,
    )


# ---------------------------------------------------------------------------
# the degeneration family


class ScrollEmbedding(namedtuple("ScrollEmbedding", "source_degrees aux_degrees slots")):
    """Coordinate embedding of a d-dimensional scroll into a (d+1)-dim one.

    slots[j] = (source fiber index, base-form factor): auxiliary fiber
    coordinate j pulls back to factor(t) * x_{source index}.
    """

    __slots__ = ()


def _degeneration_blocks(degrees):
    """(donor, recipient, auxiliary degrees) of the family on these blocks.

    The donor is the first block of positive degree and the recipient the
    last other block.  The auxiliary scroll keeps the block order, lowers
    the donor degree by one and appends a new degree-1 block.
    """
    d = len(degrees)
    if d < 2:
        raise ValueError("the degeneration needs at least two fiber blocks")
    donor = next((i for i, a in enumerate(degrees) if a >= 1), None)
    if donor is None:
        raise ValueError("no block of positive degree to degenerate")
    recipient = d - 1 if donor < d - 1 else d - 2
    aux = list(degrees)
    aux[donor] -= 1
    aux.append(1)
    return donor, recipient, tuple(aux)


def degeneration_member(degrees, lam, *, field) -> ScrollSection:
    """Hyperplane-class section cutting the lam-member of the family.

    The member is t0*y_new - lam*t1^(a_donor - 1)*y_donor -
    t1^(a_recipient)*y_recipient on the auxiliary scroll.  At lam=0 this
    cuts the degenerate scroll, at lam != 0 a scroll of the original type.
    """
    donor, recipient, aux = _degeneration_blocks(degrees)
    lam = field(lam)
    comps = [BinaryForm.zero(a, field) for a in aux]
    comps[donor] = BinaryForm.monomial(degrees[donor] - 1, degrees[donor] - 1, -lam, field)
    comps[recipient] = BinaryForm.monomial(
        degrees[recipient], degrees[recipient], -field.one, field
    )
    comps[-1] = BinaryForm.monomial(1, 0, field.one, field)
    return ScrollSection(aux, 0, comps)


def degeneration_embeddings(degrees, *, field):
    """The two scroll embeddings bracketing the degeneration family.

    The first embeds the original scroll as the lam-free locus
    t0*y_new = t1^(a_donor-1)*y_donor; the second embeds the degenerate
    scroll (donor degree down one, recipient degree up one) as the lam=0
    member.
    """
    donor, recipient, aux = _degeneration_blocks(degrees)
    one = field.one
    d = len(degrees)

    unit = BinaryForm(0, (1,), field)
    t0 = BinaryForm.monomial(1, 0, one, field)

    slots1 = []
    for i in range(d):
        slots1.append((i, t0 if i == donor else unit))
    slots1.append((donor, BinaryForm.monomial(degrees[donor] - 1, degrees[donor] - 1, one, field)))
    phi1 = ScrollEmbedding(degrees, aux, tuple(slots1))

    degenerate = list(degrees)
    degenerate[donor] -= 1
    degenerate[recipient] += 1
    slots2 = []
    for i in range(d):
        slots2.append((i, t0 if i == recipient else unit))
    slots2.append(
        (recipient, BinaryForm.monomial(degrees[recipient], degrees[recipient], one, field))
    )
    phi2 = ScrollEmbedding(tuple(degenerate), aux, tuple(slots2))
    return phi1, phi2


def compose_section_with_embedding(section: ScrollSection, emb: ScrollEmbedding):
    """Pull a section on the auxiliary scroll back along the embedding.

    The result is linear in the source fiber coordinates, returned as one
    base form per source block (the coefficient of x_i).
    """
    if section.degrees != emb.aux_degrees:
        raise ValueError("section does not live on the embedding target")
    d = len(emb.source_degrees)
    out = [
        BinaryForm.zero(emb.source_degrees[i] + section.m, section.field)
        for i in range(d)
    ]
    for comp, (src, factor) in zip(section.comps, emb.slots):
        if comp.is_zero():
            continue
        out[src] = out[src] + comp * factor
    return out


def verify_degeneration_embeddings(degrees, *, field) -> bool:
    """Check both scroll embeddings land inside their family members.

    The original scroll must satisfy the lam-free relation of its image
    and the degenerate scroll must satisfy the lam=0 member identically.
    """
    donor, _, aux = _degeneration_blocks(degrees)
    phi1, phi2 = degeneration_embeddings(degrees, field=field)

    one = field.one
    # lam-free relation t0*y_new - t1^(a_donor-1)*y_donor for the first image
    comps1 = [BinaryForm.zero(a, field) for a in aux]
    comps1[donor] = BinaryForm.monomial(degrees[donor] - 1, degrees[donor] - 1, -one, field)
    comps1[-1] = BinaryForm.monomial(1, 0, one, field)
    relation1 = ScrollSection(aux, 0, comps1)
    pulled1 = compose_section_with_embedding(relation1, phi1)
    if not all(f.is_zero() for f in pulled1):
        return False

    member0 = degeneration_member(degrees, field.zero, field=field)
    pulled2 = compose_section_with_embedding(member0, phi2)
    return all(f.is_zero() for f in pulled2)


def degeneration_equivalence_check(degrees, lam, *, field) -> bool:
    """Exact equivalence of the lam-member with the lam=1 member.

    Rescaling the donor fiber coordinate by lam carries the lam=1 section
    to the lam-section; checked as equality of component forms.
    """
    lam = field(lam)
    if not lam:
        raise ValueError("lam must be nonzero; the lam=0 member is the degenerate scroll")
    donor, _, _ = _degeneration_blocks(degrees)
    member_one = degeneration_member(degrees, field.one, field=field)
    member_lam = degeneration_member(degrees, lam, field=field)
    rescaled = list(member_one.comps)
    rescaled[donor] = rescaled[donor].scale(lam)
    substituted = ScrollSection(member_one.degrees, 0, rescaled)
    return substituted == member_lam
