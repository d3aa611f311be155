"""Exact rank and kernel computations over the rationals or a prime field.

The rational path clears denominators row by row and runs fraction-free
(Bareiss) forward elimination on integers, so no intermediate Fraction
normalization cost is paid; kernels are then recovered by rational back
substitution.  The prime-field path packs each row of int residues into
one Python int, a fixed-width slot per entry, so a row update is a single
big-int multiply-add; rows are unpacked once at the end and wrapped back
into field elements.  Rational entries must be ints or Fractions, and
prime-field entries ints or residues mod p; anything else, such as a
float, raises FieldMismatchError.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd
from operator import lshift

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
            if not isinstance(x, (int, Fraction)):
                raise FieldMismatchError(f"non-rational entry {x!r}")
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
    """In-place RREF mod p on packed rows; returns pivot column list.

    Each row is held as one int with entry j in a slot of
    w = 2*bitlen(p-1) + bitlen(nrows) + 1 bits at bit w*j, so clearing a
    column from a row is one big-int multiply-add, row += f * neg_lead,
    where f < p is the row's entry and neg_lead packs (p - lead_j) mod p
    (Kronecker substitution).  Only the pivot row is unpacked, reduced mod
    p and repacked, once per pivot.  A slot starts below p, gains less
    than p**2 per update and takes at most nrows updates (one per pivot),
    so it stays below p + nrows*(p-1)**2 < 2**w: no slot carries into the
    next, and every slot stays congruent to its entry mod p.  The reduced
    rows are unpacked once at the end; the rows below the rank are zero.
    """
    nrows = len(mat)
    w = 2 * (p - 1).bit_length() + nrows.bit_length() + 1
    mask = (1 << w) - 1
    shifts = [w * j for j in range(ncols)]
    rows = [sum(map(lshift, row, shifts)) for row in mat]
    pivots = []
    r = 0
    for c in range(ncols):
        if r == nrows:
            break
        sc = shifts[c]
        col = [(v >> sc & mask) % p for v in rows]
        piv = next((i for i in range(r, nrows) if col[i]), None)
        if piv is None:
            continue
        rows[r], rows[piv] = rows[piv], rows[r]
        col[r], col[piv] = col[piv], col[r]
        inv = pow(col[r], -1, p)
        col[r] = 0
        v = rows[r]
        lead = [(v >> s & mask) * inv % p for s in shifts]
        rows[r] = sum(map(lshift, lead, shifts))
        neg_lead = sum(map(lshift, [-x % p for x in lead], shifts))
        for i, f in enumerate(col):
            if f:
                rows[i] += f * neg_lead
        pivots.append(c)
        r += 1
    mat[:r] = [[(v >> s & mask) % p for s in shifts] for v in rows[:r]]
    mat[r:] = [[0] * ncols for _ in range(nrows - r)]
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
