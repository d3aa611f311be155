"""Exact rank and kernel computations over the rationals or a prime field.

The rational path works on Python ints throughout.  Each row is scaled by
the lcm of its entries' denominators and divided by its content; a
fraction-free (Bareiss) forward pass then gives the rank, and a
fraction-free back reduction of the echelon form gives every kernel
entry as one quotient of ints, so a Fraction is built only for the
nonzero kernel entries handed back.  The prime-field path packs each row
of int residues into one Python int, a fixed-width slot per entry, so a
row update is a single big-int multiply-add; rows are unpacked once at
the end, and the reduced echelon form already holds the kernel.  One
loop builds the basis for both fields.  rank_of runs the forward pass
alone.  Rational entries must be ints or Fractions, and prime-field
entries ints or residues mod p; anything else, such as a float, raises
FieldMismatchError.  Callers on the prime-field hot paths (the incidence
Jacobian, the node-system rows) hand over rows of plain int residues,
which are reduced without a per-entry type check; kernels come back as
FpElement tuples, the type every caller sees at the API boundary.
"""

from __future__ import annotations

from fractions import Fraction
from functools import partial
from math import gcd, lcm
from operator import lshift

from .errors import FieldMismatchError
from .fields import FpElement, PrimeField, QQ, _residues


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
        out.append(_residues(row, p))
    return out


def _int_rows_q(rows, ncols):
    """Clear denominators and divide out the content of each row, on ints."""
    out = []
    for row in rows:
        if len(row) != ncols:
            raise ValueError(f"row of length {len(row)}, expected {ncols}")
        for x in row:
            if not isinstance(x, (int, Fraction)):
                if isinstance(x, FpElement):
                    raise FieldMismatchError(f"prime-field entry {x!r} in rational matrix")
                raise FieldMismatchError(f"non-rational entry {x!r}")
        den = lcm(*[x.denominator for x in row])
        ints = [x.numerator * (den // x.denominator) for x in row]
        content = gcd(*ints)
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
    and skipped columns do not disturb the exactness.  Left of the current
    column the lower rows are zero, so only the columns from it on change.
    """
    pivots = []
    nrows = len(mat)
    r = 0
    prev = 1
    for c in range(ncols):
        if r == nrows:
            break
        piv = next((i for i in range(r, nrows) if mat[i][c]), None)
        if piv is None:
            continue
        mat[r], mat[piv] = mat[piv], mat[r]
        lead = mat[r][c:]
        a = lead[0]
        for i in range(r + 1, nrows):
            row = mat[i]
            b = row[c]
            row[c:] = [(a * x - b * y) // prev for x, y in zip(row[c:], lead)]
        prev = a
        pivots.append(c)
        r += 1
    return pivots


def _back_reduce_bareiss(mat, pivots, free):
    """Fraction-free back reduction of a Bareiss echelon form.

    Returns (d, red) with red[i][t] = d * rref[i][free[t]],
    where d is the last pivot and rref the reduced row echelon form.  d is
    the determinant of the pivot block of the rows that gave the pivots,
    so d * rref = adj(block) * rows is an integer matrix.  Echelon row i
    is d_i * rref[i] plus its entries at the later pivot columns times
    those rows of rref, so red[i] = (d * row_i - sum_k row_i[p_k] * red[k])
    / d_i, an exact division, taken from the last row up.
    """
    rank = len(pivots)
    if not rank:
        return 1, []
    d = mat[rank - 1][pivots[-1]]
    red = [None] * rank
    for i in range(rank - 1, -1, -1):
        row = mat[i]
        acc = [d * row[fc] for fc in free]
        for k in range(i + 1, rank):
            f = row[pivots[k]]
            if f:
                acc = [x - f * y for x, y in zip(acc, red[k])]
        di = row[pivots[i]]
        red[i] = [x // di for x in acc]
    return d, red


def _eliminate(rows, ncols, field):
    """Forward pass: (field, integer matrix, pivot columns).

    Over a prime field the matrix comes back reduced (RREF mod p); over
    the rationals it is the Bareiss echelon form.
    """
    rows = [list(r) for r in rows]
    fld = _detect_field(rows, field)
    if isinstance(fld, PrimeField):
        mat = _int_rows_fp(rows, ncols, fld.p)
        return fld, mat, _forward_fp(mat, ncols, fld.p)
    mat = _int_rows_q(rows, ncols)
    return fld, mat, _forward_bareiss(mat, ncols)


def rank_kernel(rows, ncols: int, field=None):
    """Rank and a right-kernel basis of the matrix with the given rows.

    Returns (rank, basis) where basis is a list of length-ncols tuples of
    field scalars, one per free column, spanning {v : M v = 0}; the vector
    of free column fc has a 1 there and 0 in every other free column.
    """
    fld, mat, pivots = _eliminate(rows, ncols, field)
    rank = len(pivots)
    pivot_set = set(pivots)
    free = [c for c in range(ncols) if c not in pivot_set]
    if isinstance(fld, PrimeField):
        # the forward pass left the RREF mod p: red is its free columns, d = 1
        red = [[row[fc] for fc in free] for row in mat[:rank]]
        scalar = partial(FpElement, p=fld.p)
    else:
        d, red = _back_reduce_bareiss(mat, pivots, free)
        scalar = partial(Fraction, denominator=d)
    zero, one = fld.zero, fld.one
    basis = []
    for t, fc in enumerate(free):
        vec = [zero] * ncols
        vec[fc] = one
        for i, pc in enumerate(pivots):
            if red[i][t]:
                vec[pc] = scalar(-red[i][t])
        basis.append(tuple(vec))
    return rank, basis


def rank_of(rows, ncols: int, field=None) -> int:
    """Rank of the matrix with the given rows, from the forward pass alone."""
    return len(_eliminate(rows, ncols, field)[2])
