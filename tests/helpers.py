"""Shared oracles for the test suite.

The row-reduction oracles here are deliberately naive, textbook
implementations, independent of the package's fraction-free and
prime-field eliminations, so that agreement between the two routes is
evidence and not circularity.  The residual oracles rebuild every
product of node linears by plain form multiplication and take the
finiteness Jacobian by finite differences, independent of the one-pass
synthetic division in the package.
"""

from fractions import Fraction

from scrollgeom.forms import BinaryForm, divide_exact, vanishing_at


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
    """(a-c)(b-d) / (a-d)(b-c) of four distinct scalars."""
    return ((a - c) * (b - d)) / ((a - d) * (b - c))


def oracle_residual(gram, node_values, field):
    """Residual B / s1 with B = sum_(i<j) 2 G_ij prod_(m not in {i,j}) l_m.

    Each middle product l_(i+1)..l_(j-1) is rebuilt for every Gram pair,
    between prefix and suffix products of the node linears l_m.
    """
    node_count = len(node_values)
    linears = [vanishing_at(v) for v in node_values]
    one = BinaryForm(0, (field.one,))
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
    s1 = BinaryForm.monomial(1, 1, field.one)
    return divide_exact(b_form, s1)


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
