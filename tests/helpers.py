"""Shared oracles for the test suite.

The row-reduction oracles here are deliberately naive, textbook
implementations, independent of the package's fraction-free and
prime-field eliminations, so that agreement between the two routes is
evidence and not circularity.  The residual oracles rebuild every
product of node linears by plain form multiplication and take the
finiteness Jacobian by finite differences, independent of the package's
one exact division per node.  The quadric oracle builds the coefficient
rows of both composites from schoolbook products of coordinate forms,
where the package takes node values and Horner quotients.  The
incidence-rank oracle takes the configuration and augmented ranks from
two separate naive RREFs.  The form oracles multiply by the schoolbook
double loop, and divide and take gcds by plain long division on the
field's own scalars (Fraction or FpElement), with no integer or residue
shortcut.  The incidence Jacobian and node-system oracles build every
entry with the field's own scalar arithmetic (FpElement or Fraction),
evaluating forms as a plain sum of monomials, where the package works on
unwrapped residues with one reduction per entry.  The unisecant oracle
solves the cross-multiplication system on the fiber coefficients, where
the package takes the one linear relation among the image points, and
the scroll points of a curve come from those same monomial sums.
"""

from collections import Counter
from fractions import Fraction

from scrollgeom.fields import QQ, FpElement
from scrollgeom.forms import BinaryForm, divide_exact
from scrollgeom.linalg import rank_kernel
from scrollgeom.scroll_curves import CurveInScroll, monomial_slots


def _as_plain(x):
    """Field element to plain int or Fraction for oracle arithmetic."""
    val = getattr(x, "val", None)
    if val is not None:
        return int(val)
    if isinstance(x, Fraction):
        return x
    return int(x)


def oracle_rref_q(rows, ncols):
    """Plain fraction RREF; returns (rank, pivot columns, reduced matrix)."""
    mat = [[Fraction(_as_plain(x)) for x in row[:ncols]] for row in rows]
    pivots = []
    r = 0
    for c in range(ncols):
        if r == len(mat):
            break
        pivot_row = next((i for i in range(r, len(mat)) if mat[i][c] != 0), None)
        if pivot_row is None:
            continue
        mat[r], mat[pivot_row] = mat[pivot_row], mat[r]
        inv = mat[r][c]
        mat[r] = [x / inv for x in mat[r]]
        for i in range(len(mat)):
            if i != r and mat[i][c] != 0:
                f = mat[i][c]
                mat[i] = [a - f * b for a, b in zip(mat[i], mat[r])]
        pivots.append(c)
        r += 1
    return r, pivots, mat


def oracle_kernel_q(rows, ncols):
    """(rank, kernel basis) over the rationals by back substitution."""
    rank, pivots, mat = oracle_rref_q(rows, ncols)
    free = [c for c in range(ncols) if c not in pivots]
    basis = []
    for fc in free:
        vec = [Fraction(0)] * ncols
        vec[fc] = Fraction(1)
        for r_i, pc in enumerate(pivots):
            vec[pc] = -mat[r_i][fc]
        basis.append(vec)
    return rank, basis


def oracle_rref_mod(rows, ncols, p):
    """Plain RREF with integer arithmetic mod p."""
    mat = [[_as_plain(x) % p for x in row[:ncols]] for row in rows]
    pivots = []
    r = 0
    for c in range(ncols):
        if r == len(mat):
            break
        pivot_row = next((i for i in range(r, len(mat)) if mat[i][c]), None)
        if pivot_row is None:
            continue
        mat[r], mat[pivot_row] = mat[pivot_row], mat[r]
        inv = pow(mat[r][c], -1, p)
        mat[r] = [(x * inv) % p for x in mat[r]]
        for i in range(len(mat)):
            if i != r and mat[i][c]:
                f = mat[i][c]
                mat[i] = [(a - f * b) % p for a, b in zip(mat[i], mat[r])]
        pivots.append(c)
        r += 1
    return r, pivots, mat


def oracle_kernel_mod(rows, ncols, p):
    rank, pivots, mat = oracle_rref_mod(rows, ncols, p)
    free = [c for c in range(ncols) if c not in pivots]
    basis = []
    for fc in free:
        vec = [0] * ncols
        vec[fc] = 1
        for r_i, pc in enumerate(pivots):
            vec[pc] = (-mat[r_i][fc]) % p
        basis.append(vec)
    return rank, basis


def oracle_rank(rows, ncols, field):
    """Rank by the naive RREF of the field: mod p, or over the rationals."""
    p = getattr(field, "p", None)
    return (oracle_rref_mod(rows, ncols, p) if p else oracle_rref_q(rows, ncols))[0]


def same_span_q(basis_a, basis_b, ncols):
    """Exact span equality of two rational bases, checked by the oracle."""
    a = [[Fraction(_as_plain(x)) for x in v] for v in basis_a]
    b = [[Fraction(_as_plain(x)) for x in v] for v in basis_b]
    if len(a) != len(b):
        return False
    rank_a, _, _ = oracle_rref_q(a, ncols)
    rank_b, _, _ = oracle_rref_q(b, ncols)
    if rank_a != len(a) or rank_b != len(b):
        return False
    rank_both, _, _ = oracle_rref_q(a + b, ncols)
    return rank_both == len(a)


def same_span_mod(basis_a, basis_b, ncols, p):
    a = [[_as_plain(x) % p for x in v] for v in basis_a]
    b = [[_as_plain(x) % p for x in v] for v in basis_b]
    if len(a) != len(b):
        return False
    rank_a, _, _ = oracle_rref_mod(a, ncols, p)
    rank_b, _, _ = oracle_rref_mod(b, ncols, p)
    if rank_a != len(a) or rank_b != len(b):
        return False
    rank_both, _, _ = oracle_rref_mod(a + b, ncols, p)
    return rank_both == len(a)


def cross_ratio(a, b, c, d):
    """(a-c)(b-d) / (a-d)(b-c) of four distinct scalars; ints divide as rationals."""
    num, den = (a - c) * (b - d), (a - d) * (b - c)
    if isinstance(num, int) and isinstance(den, int):
        num = Fraction(num)
    return num / den


def oracle_residual(gram, node_values, field):
    """Residual B / s1 with B = sum_(i<j) 2 G_ij prod_(m not in {i,j}) l_m.

    Each middle product l_(i+1)..l_(j-1) is rebuilt for every Gram pair,
    between prefix and suffix products of the node linears l_m.
    """
    node_count = len(node_values)
    linears = [BinaryForm(1, (1, -v), field) for v in node_values]
    one = BinaryForm(0, (field.one,), field)
    prefix = [one]
    for lin in linears:
        prefix.append(prefix[-1] * lin)
    suffix = [one]
    for lin in reversed(linears):
        suffix.append(suffix[-1] * lin)
    suffix.reverse()
    b_form = BinaryForm.zero(node_count - 2, field)
    for i in range(node_count):
        for j in range(i + 1, node_count):
            g = gram[i][j]
            if not g:
                continue
            middle = one
            for m in range(i + 1, j):
                middle = middle * linears[m]
            partial = prefix[i] * middle * suffix[j + 1]
            b_form = b_form + partial.scale(g + g)
    s1 = BinaryForm.monomial(1, 1, field.one, field)
    return divide_exact(b_form, s1)


def oracle_node_product(node_values, field):
    """prod_k (s0 - v_k*s1) by schoolbook products of the node linears."""
    out = BinaryForm(0, (field.one,), field)
    for v in node_values:
        out = oracle_form_mul(out, BinaryForm(1, (field.one, -v), field))
    return out


def oracle_quadric_coefficient_rows(curve):
    """(monomial pairs (i, j), i <= j, and the 2(2n+1) coefficient rows).

    Column (i, j) holds the coefficients of the composites phi_i*phi_j on
    both components, each coordinate form phi_i rebuilt as the schoolbook
    product of the other node linears and multiplied by oracle_form_mul.
    Row r says coefficient r of one composite of the quadric vanishes.
    """
    n, field = curve.n, curve.field
    pairs = [(i, j) for i in range(n + 1) for j in range(i, n + 1)]
    cols = [[] for _ in pairs]
    for comp in (curve.comp1, curve.comp2):
        values = comp.node_values
        phis = [oracle_node_product(values[:i] + values[i + 1:], field) for i in range(n + 1)]
        for col, (i, j) in zip(cols, pairs):
            col += oracle_form_mul(phis[i], phis[j]).coeffs
    return pairs, [list(row) for row in zip(*cols)]


def oracle_jacobian_columns(gram, node_values, field):
    """Finite-difference columns (R(v + step*e_m) - R(v)) / step, m = 2..n.

    The residual is affine in each single node value, so any step that
    keeps the node values distinct gives the exact partial derivative.
    """
    base = oracle_residual(gram, node_values, field)
    values = list(node_values)
    columns = []
    for m in range(2, len(values)):
        step = field.one
        while any(values[m] + step == v for i, v in enumerate(values) if i != m):
            step = step + field.one
        shifted = list(values)
        shifted[m] = values[m] + step
        moved = oracle_residual(gram, shifted, field)
        columns.append([(a - b) / step for a, b in zip(moved.coeffs, base.coeffs)])
    return columns


def oracle_incidence_ranks(rows, n_coeffs, n_pts, field):
    """(rank of [J_c | gauge], rank of [J_c | J_s | gauge]) by two naive RREFs.

    The rows come as [J_c | J_s | gauge] with n_coeffs, n_pts and n_pts
    columns.
    """
    config_rows = [row[:n_coeffs] + row[n_coeffs + n_pts :] for row in rows]
    rank_config = oracle_rank(config_rows, n_coeffs + n_pts, field)
    rank_aug = oracle_rank(rows, n_coeffs + 2 * n_pts, field)
    return rank_config, rank_aug


def oracle_form_mul(f, g):
    """Product of two forms of one field by the schoolbook double loop on their scalars."""
    out = [0 * f.coeffs[0] * g.coeffs[0]] * (f.degree + g.degree + 1)
    for i, a in enumerate(f.coeffs):
        for j, b in enumerate(g.coeffs):
            out[i + j] = out[i + j] + a * b
    return BinaryForm(f.degree + g.degree, out, f.field)


def _dehomogenize(form, field):
    """(s1 valuation, coefficients of F(t, 1) by t-power) in the field; None if zero."""
    coeffs = [field(x) for x in form.coeffs]
    nonzero = [j for j, x in enumerate(coeffs) if x]
    if not nonzero:
        return None
    v = nonzero[0]
    return v, [coeffs[form.degree - m] for m in range(form.degree - v + 1)]


def _rehomogenize(v, phi, field):
    """The form s1^v * F for the t-polynomial phi of F."""
    degree = v + len(phi) - 1
    coeffs = [field(0)] * (degree + 1)
    for m, c in enumerate(phi):
        coeffs[degree - m] = c
    return BinaryForm(degree, coeffs, field)


def oracle_form_gcd(f, g, field=QQ):
    """Monic gcd of two forms by a plain Euclid on the field's own scalars.

    A nonzero form is s1^v * F with s1 not dividing F; the gcd is s1 to
    the smaller v times the monic gcd of the polynomials F(t, 1).  The
    zero form is absorbing.  Coefficients are taken into the field first.
    """
    parts = [p for p in (_dehomogenize(f, field), _dehomogenize(g, field)) if p is not None]
    v = min(p[0] for p in parts)
    a = parts[0][1]
    b = parts[1][1] if len(parts) > 1 else []
    while b:
        r = list(a)
        while len(r) >= len(b):
            c = r[-1] / b[-1]
            shift = len(r) - len(b)
            r = [x - c * b[i - shift] if i >= shift else x for i, x in enumerate(r)]
            while r and r[-1] == 0:
                r.pop()
        a, b = b, r
    return _rehomogenize(v, [x / a[-1] for x in a], field)


def oracle_poly_divmod(num, den, field):
    """(quotient, remainder) of t-polynomials by schoolbook long division.

    Runs on the field's own scalars (FpElement arithmetic over F_p); both
    lists are trimmed of zero leading entries down to length one.
    """
    r = [field(x) for x in num]
    d = [field(x) for x in den]
    quot = [field(0)] * max(len(r) - len(d) + 1, 1)
    while len(r) >= len(d):
        shift = len(r) - len(d)
        c = r[-1] / d[-1]
        quot[shift] = c
        # the leading entry cancels and is dropped
        r = [x - c * d[i - shift] if i >= shift else x for i, x in enumerate(r)][:-1]
    r = r or [field(0)]
    while len(quot) > 1 and not quot[-1]:
        quot.pop()
    while len(r) > 1 and not r[-1]:
        r.pop()
    return quot, r


def oracle_divide_exact(f, g, field):
    """f / g by long division of the t-polynomials; None when g does not divide f."""
    (vf, pf), (vg, pg) = _dehomogenize(f, field), _dehomogenize(g, field)
    if f.degree < g.degree or vf < vg or len(pf) < len(pg):
        return None
    quot, rem = oracle_poly_divmod(pf, pg, field)
    if any(rem):
        return None
    return _rehomogenize(vf - vg, quot, field)


_ARITHMETIC = (
    "__add__", "__radd__", "__sub__", "__rsub__", "__mul__", "__rmul__",
    "__truediv__", "__rtruediv__", "__neg__", "__pow__",
)


def _count_arithmetic(cls, monkeypatch):
    calls = Counter()
    for name in _ARITHMETIC:
        def counted(*args, _real=getattr(cls, name), _name=name):
            calls[_name] += 1
            return _real(*args)

        monkeypatch.setattr(cls, name, counted)
    return calls


def count_fp_arithmetic(monkeypatch):
    """Count every FpElement arithmetic call from here on; returns the Counter."""
    return _count_arithmetic(FpElement, monkeypatch)


def count_fraction_arithmetic(monkeypatch):
    """Count every Fraction arithmetic call, and every Fraction built, from here on.

    Returns the Counter; "__new__" counts the Fractions built, an
    arithmetic call's result among them.
    """
    calls = _count_arithmetic(Fraction, monkeypatch)

    def built(cls, *args, _real=Fraction.__new__, **kwargs):
        calls["__new__"] += 1
        return _real(cls, *args, **kwargs)

    monkeypatch.setattr(Fraction, "__new__", built)
    return calls


def oracle_form_value(form, s0, s1):
    """sum_j c_j * s0^(d-j) * s1^j in the scalars' own arithmetic."""
    d = form.degree
    return sum((c * s0 ** (d - j) * s1 ** j for j, c in enumerate(form.coeffs)), 0 * s0)


def oracle_point_at(curve, s0, s1):
    """Scroll point ((y_1, ..., y_d), (t0, t1)) of a CurveInScroll at (s0 : s1).

    Each form is evaluated as a plain sum of monomials in the scalars'
    own arithmetic.
    """
    y = tuple(oracle_form_value(f, s0, s1) for f in curve.ys)
    return y, (oracle_form_value(curve.t0, s0, s1), oracle_form_value(curve.t1, s0, s1))


def _oracle_ds0_value(form, s0, s1):
    """Value of the formal s0-partial of the form at (s0, s1)."""
    d = form.degree
    acc = form.coeffs[0] * 0
    for j, c in enumerate(form.coeffs):
        e = d - j
        if e:
            acc = acc + c * e * s0 ** (e - 1) * s1 ** j
    return acc


def oracle_coefficient_jacobian(curve, sigma, field):
    """[J_c | J_s | gauge] of the incidence map, built on field elements."""
    scroll = curve.scroll
    n, k = scroll.n, curve.k
    slots = monomial_slots(scroll)
    y_degs = [n - k * a_i for a_i in scroll.degrees]
    n_coeffs = 2 * (k + 1) + sum(deg + 1 for deg in y_degs)
    n_pts = len(sigma)
    width = n_coeffs + n_pts + n_pts
    rows = [[field.zero] * width for _ in range(n_pts * (n + 1))]
    one = field.one
    for j, s in enumerate(sigma):
        t0v = oracle_form_value(curve.t0, s, one)
        t1v = oracle_form_value(curve.t1, s, one)
        t0d = _oracle_ds0_value(curve.t0, s, one)
        t1d = _oracle_ds0_value(curve.t1, s, one)
        yv = [oracle_form_value(f, s, one) for f in curve.ys]
        yd = [_oracle_ds0_value(f, s, one) for f in curve.ys]
        t_mono = [s ** (k - r) for r in range(k + 1)]
        y_mono = [[s ** (deg - r) for r in range(deg + 1)] for deg in y_degs]
        for c_idx, (i, b, c) in enumerate(slots):
            row = rows[j * (n + 1) + c_idx]
            tb = t0v ** b
            tc = t1v ** c
            tb1 = t0v ** (b - 1) if b >= 1 else field.zero
            tc1 = t1v ** (c - 1) if c >= 1 else field.zero
            if b >= 1:
                base = tb1 * tc * yv[i] * b
                for r in range(k + 1):
                    row[r] = field(base * t_mono[r])
            if c >= 1:
                base = tb * tc1 * yv[i] * c
                for r in range(k + 1):
                    row[k + 1 + r] = field(base * t_mono[r])
            off = 2 * (k + 1) + sum(deg + 1 for deg in y_degs[:i])
            for r in range(y_degs[i] + 1):
                row[off + r] = field(tb * tc * y_mono[i][r])
            ds = tb * tc * yd[i]
            if b >= 1:
                ds = ds + tb1 * tc * yv[i] * b * t0d
            if c >= 1:
                ds = ds + tb * tc1 * yv[i] * c * t1d
            row[n_coeffs + j] = field(ds)
            row[n_coeffs + n_pts + j] = field(tb * tc * yv[i])
    return rows, n_coeffs


def oracle_node_system_rows(pairs, degree, field):
    """Rows of q1(R_j)*S_{j,1} - q2(R_j)*S_{j,0} = 0, built on field elements."""
    rows = []
    for (r, s) in pairs:
        mono = [r[0] ** (degree - i) * r[1] ** i for i in range(degree + 1)]
        rows.append([field(m * s[1]) for m in mono] + [field(-(m * s[0])) for m in mono])
    return rows


def oracle_hyperplane_rows(scroll, points, field):
    """The conditions points (y, t) impose on hyperplanes, as slot rows.

    One entry t0^b * t1^c * y_i per slot (i, b, c) of monomial_slots,
    built on field elements.
    """
    slots = monomial_slots(scroll)
    return [[field(t[0] ** b * t[1] ** c * y[i]) for (i, b, c) in slots] for (y, t) in points]


def oracle_unisecant(scroll, points, field):
    """(status, kernel_dim, fiber forms) of the cross-multiplication solve.

    The reference for interpolate_unisecant's one-relation system: the
    rank guard on oracle_hyperplane_rows, then the fiber forms y_i of
    degree n - a_i with y_i(t_j) * Y_jp - y_p(t_j) * Y_ji = 0 for every
    point j, its first nonzero fiber coordinate p and every i != p,
    built on the field's own scalars (24 x 25 at a = (2, 3, 3)).  The
    guard is a naive RREF; the larger system's kernel comes from the
    package's rank_kernel, which the naive oracles check elsewhere.
    Status "DEPENDENT" (the guard fires), "NONE", "UNIQUE" or
    "POSITIVE_FAMILY"; the forms are those of the first kernel vector,
    or None.
    """
    n = scroll.n
    if oracle_rank(oracle_hyperplane_rows(scroll, points, field), n + 1, field) < n + 1:
        return "DEPENDENT", None, None
    # the field's own scalars: FpElements over F_p, ints and Fractions over q
    ts = [tuple(field.wrap(field.unwrap(list(t)))) for (_, t) in points]
    if any(u[0] * v[1] == u[1] * v[0] for i, u in enumerate(ts) for v in ts[i + 1:]):
        return "NONE", 0, None
    y_degs = [n - a_i for a_i in scroll.degrees]
    offsets = [sum(deg + 1 for deg in y_degs[:i]) for i in range(len(y_degs))]
    total = sum(deg + 1 for deg in y_degs)
    rows = []
    for (y, _), (t0, t1) in zip(points, ts):
        y = field.wrap(field.unwrap(list(y)))
        pivot = next(i for i, x in enumerate(y) if x)
        for i in range(len(y)):
            if i == pivot:
                continue
            row = [field.zero] * total
            for block, weight in ((i, y[pivot]), (pivot, -y[i])):
                deg = y_degs[block]
                for r in range(deg + 1):
                    row[offsets[block] + r] += weight * t0 ** (deg - r) * t1 ** r
            rows.append(row)
    rank, kernel = rank_kernel(rows, total, field)
    kernel_dim = total - rank
    if kernel_dim == 0:
        return "NONE", 0, None
    ys = [BinaryForm(deg, kernel[0][off:off + deg + 1], field)
          for off, deg in zip(offsets, y_degs)]
    status = "UNIQUE" if kernel_dim == 1 else "POSITIVE_FAMILY"
    if any(not any(f.evaluate(*t) for f in ys) for t in ts):
        return ("NONE" if kernel_dim == 1 else status), kernel_dim, None
    try:
        CurveInScroll(scroll, 1, BinaryForm(1, (1, 0), field), BinaryForm(1, (0, 1), field), ys)
    except ValueError:
        return ("NONE" if kernel_dim == 1 else status), kernel_dim, None
    return status, kernel_dim, ys
