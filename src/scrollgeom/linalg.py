"""Exact rank and kernel computations over the rationals or a prime field.

The rational path clears denominators row by row and runs fraction-free
(Bareiss) forward elimination on integers, so no intermediate Fraction
normalization cost is paid; kernels are then recovered by rational back
substitution.  The prime-field path works on raw int residues and only
wraps results back into field elements at the end.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd

from .errors import FieldMismatchError, SingularMatrixError
from .fields import FpElement, PrimeField, QQ


def _detect_field(rows, field):
    if field is not None:
        return field
    for row in rows:
        for x in row:
            if isinstance(x, FpElement):
                return PrimeField(x.p)
            if isinstance(x, Fraction):
                return QQ
    return QQ


def _int_rows_fp(rows, ncols, p):
    out = []
    for row in rows:
        if len(row) != ncols:
            raise ValueError(f"row of length {len(row)}, expected {ncols}")
        ints = []
        for x in row:
            if isinstance(x, FpElement):
                if x.p != p:
                    raise FieldMismatchError(f"mixed moduli {p} and {x.p}")
                ints.append(x.val)
            elif isinstance(x, int):
                ints.append(x % p)
            else:
                raise FieldMismatchError(f"non prime-field entry {x!r}")
        out.append(ints)
    return out


def _int_rows_q(rows, ncols):
    """Clear denominators and divide out the content of each row."""
    out = []
    for row in rows:
        if len(row) != ncols:
            raise ValueError(f"row of length {len(row)}, expected {ncols}")
        fracs = []
        for x in row:
            if isinstance(x, FpElement):
                raise FieldMismatchError(f"prime-field entry {x!r} in rational matrix")
            fracs.append(Fraction(x))
        lcm = 1
        for f in fracs:
            lcm = lcm * f.denominator // gcd(lcm, f.denominator)
        ints = [int(f * lcm) for f in fracs]
        content = 0
        for v in ints:
            content = gcd(content, v)
        if content > 1:
            ints = [v // content for v in ints]
        out.append(ints)
    return out


def _forward_fp(mat, ncols, p):
    """In-place RREF mod p; returns pivot column list."""
    pivots = []
    r = 0
    for c in range(ncols):
        if r == len(mat):
            break
        piv = None
        for i in range(r, len(mat)):
            if mat[i][c]:
                piv = i
                break
        if piv is None:
            continue
        mat[r], mat[piv] = mat[piv], mat[r]
        inv = pow(mat[r][c], -1, p)
        mat[r] = [x * inv % p for x in mat[r]]
        lead = mat[r]
        for i in range(len(mat)):
            if i != r and mat[i][c]:
                f = mat[i][c]
                mat[i] = [(a - f * b) % p for a, b in zip(mat[i], lead)]
        pivots.append(c)
        r += 1
    return pivots


def _forward_bareiss(mat, ncols):
    """In-place fraction-free echelon reduction; returns pivot column list.

    Every elimination step updates all lower rows and divides by the
    previous pivot, which is exact by the Sylvester identity.  Row swaps
    and skipped columns do not disturb the exactness.
    """
    pivots = []
    r = 0
    prev = 1
    for c in range(ncols):
        if r == len(mat):
            break
        piv = None
        for i in range(r, len(mat)):
            if mat[i][c]:
                piv = i
                break
        if piv is None:
            continue
        mat[r], mat[piv] = mat[piv], mat[r]
        lead = mat[r]
        a = lead[c]
        for i in range(r + 1, len(mat)):
            row = mat[i]
            b = row[c]
            mat[i] = [(a * row[j] - b * lead[j]) // prev for j in range(ncols)]
        prev = a
        pivots.append(c)
        r += 1
    return pivots


def rank_kernel(rows, ncols: int, field=None):
    """Rank and a right-kernel basis of the matrix with the given rows.

    Returns (rank, basis) where basis is a list of length-ncols tuples of
    field scalars, one per free column, spanning {v : M v = 0}.
    """
    rows = [list(r) for r in rows]
    fld = _detect_field(rows, field)
    if isinstance(fld, PrimeField):
        p = fld.p
        mat = _int_rows_fp(rows, ncols, p)
        pivots = _forward_fp(mat, ncols, p)
        rank = len(pivots)
        pivot_set = set(pivots)
        basis = []
        for fc in range(ncols):
            if fc in pivot_set:
                continue
            vec = [0] * ncols
            vec[fc] = 1
            for i, pc in enumerate(pivots):
                vec[pc] = (-mat[i][fc]) % p
            basis.append(tuple(FpElement(v, p) for v in vec))
        return rank, basis

    mat = _int_rows_q(rows, ncols)
    pivots = _forward_bareiss(mat, ncols)
    rank = len(pivots)
    pivot_set = set(pivots)
    basis = []
    for fc in range(ncols):
        if fc in pivot_set:
            continue
        vec = [Fraction(0)] * ncols
        vec[fc] = Fraction(1)
        for i in range(rank - 1, -1, -1):
            pc = pivots[i]
            acc = Fraction(0)
            for j in range(pc + 1, ncols):
                if vec[j]:
                    acc += Fraction(mat[i][j]) * vec[j]
            vec[pc] = -acc / mat[i][pc]
        basis.append(tuple(vec))
    return rank, basis


def rank_of(rows, ncols: int, field=None) -> int:
    return rank_kernel(rows, ncols, field)[0]


def mat_vec(mat, vec):
    out = []
    for row in mat:
        acc = None
        for a, b in zip(row, vec):
            term = a * b
            acc = term if acc is None else acc + term
        out.append(acc)
    return out


def gauss_solve(mat, rhs, field):
    """Solve M x = rhs for square M by Gaussian elimination over the field."""
    n = len(mat)
    aug = [[field(x) for x in row] + [field(rhs[i])] for i, row in enumerate(mat)]
    for c in range(n):
        piv = None
        for i in range(c, n):
            if aug[i][c]:
                piv = i
                break
        if piv is None:
            raise SingularMatrixError(f"singular system at column {c}")
        aug[c], aug[piv] = aug[piv], aug[c]
        lead = aug[c][c]
        aug[c] = [x / lead for x in aug[c]]
        for i in range(n):
            if i != c and aug[i][c]:
                f = aug[i][c]
                aug[i] = [a - f * b for a, b in zip(aug[i], aug[c])]
    return [aug[i][n] for i in range(n)]


def invert(mat, field):
    """Inverse of a square matrix over the field; SingularMatrixError if none."""
    n = len(mat)
    aug = [
        [field(x) for x in row]
        + [field.one if i == j else field.zero for j in range(n)]
        for i, row in enumerate(mat)
    ]
    for c in range(n):
        piv = None
        for i in range(c, n):
            if aug[i][c]:
                piv = i
                break
        if piv is None:
            raise SingularMatrixError(f"matrix not invertible (column {c})")
        aug[c], aug[piv] = aug[piv], aug[c]
        lead = aug[c][c]
        aug[c] = [x / lead for x in aug[c]]
        for i in range(n):
            if i != c and aug[i][c]:
                f = aug[i][c]
                aug[i] = [a - f * b for a, b in zip(aug[i], aug[c])]
    return [row[n:] for row in aug]
