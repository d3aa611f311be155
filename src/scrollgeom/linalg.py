"""Exact rank and kernel computations over the rationals or a prime field.

Both fields eliminate in two steps.  A forward pass gives a row echelon
form, whose pivot columns give the rank: pivot_columns and rank_of stop
there.  Only rank_kernel runs the back reduction that follows.  The
rational path works on Python ints throughout.  Each row is scaled by
the lcm of its entries' denominators and divided by its content; the
forward pass is fraction-free (Bareiss), and the fraction-free back
reduction gives every kernel entry as one quotient of ints, so a
Fraction is built only for the nonzero kernel entries handed back.  The
prime-field path packs each row of int residues into one Python int, a
fixed-width slot per entry, so a row update is a single big-int
multiply-add.  Its forward pass updates only the rows below each pivot;
its back reduction unpacks each pivot row once, from the last up, and
clears that pivot's column from the rows above.  One loop builds the
basis for both fields.  Rational entries must be ints or Fractions, and
prime-field entries ints or residues mod p; anything else, such as a
float, raises FieldMismatchError.  Callers on the prime-field hot paths
(the incidence Jacobian, the node-system rows) hand over rows of plain
int residues, which are reduced without a per-entry type check; kernels
come back as FpElement tuples, the type every caller sees at the API
boundary.
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


def _slots(p, nrows, ncols):
    """(bit offset of each column, slot mask) of nrows packed rows mod p.

    Entry j of a row sits in a slot of w = 2*bitlen(p-1) + bitlen(nrows) + 1
    bits at bit w*j; _forward_fp gives the bound that sets w.
    """
    w = 2 * (p - 1).bit_length() + nrows.bit_length() + 1
    return [w * j for j in range(ncols)], (1 << w) - 1


def _packed_rows_fp(rows, ncols, p):
    """Each row's int residues mod p packed into one int, laid out by _slots."""
    shifts, _ = _slots(p, len(rows), ncols)
    out = []
    for row in rows:
        if len(row) != ncols:
            raise ValueError(f"row of length {len(row)}, expected {ncols}")
        out.append(sum(map(lshift, _residues(row, p), shifts)))
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


def _forward_fp(rows, ncols, p):
    """In-place row echelon form mod p of packed rows; returns pivot column list.

    Clearing a column from a row is one big-int multiply-add,
    row += f * neg_lead, where f < p is the row's entry and neg_lead packs
    p - lead_j, which is congruent to -lead_j (Kronecker substitution).
    Each step reads the column only from the rows not yet pivots, unpacks
    the pivot row once, scales it to lead 1, repacks it with zeros left of
    the pivot, and updates only the rows below it.  A slot starts below p
    and gains at most (p-1)*p per update.  Between two reductions a row
    takes at most one update per pivot, here or in _back_reduce_fp, so it
    stays below p + nrows*(p-1)*p < 2**w (as p <= 2**bitlen(p-1)): no slot
    carries into the next, and every slot stays congruent to its entry
    mod p.
    """
    nrows = len(rows)
    shifts, mask = _slots(p, nrows, ncols)
    all_p = sum(p << s for s in shifts)
    pivots = []
    r = 0
    for c in range(ncols):
        if r == nrows:
            break
        sc = shifts[c]
        col = [(v >> sc & mask) % p for v in rows[r:]]
        k = next((i for i, f in enumerate(col) if f), None)
        if k is None:
            continue
        rows[r], rows[r + k] = rows[r + k], rows[r]
        inv = pow(col[k], -1, p)
        col[k] = col[0]
        tail = shifts[c:]
        v = rows[r]
        lead = [(v >> s & mask) * inv % p for s in tail]
        rows[r] = sum(map(lshift, lead, tail))
        neg_lead = (all_p >> sc << sc) - rows[r]
        for i, f in enumerate(col[1:], r + 1):
            if f:
                rows[i] += f * neg_lead
        pivots.append(c)
        r += 1
    return pivots


def _back_reduce_fp(rows, pivots, ncols, p):
    """Reduced row echelon form mod p of the packed echelon form of _forward_fp.

    Goes from the last pivot up: each pivot row, whose later pivot columns
    are already cleared, is unpacked and reduced mod p once, then its
    pivot column is cleared from the pivot rows above it, one multiply-add
    each.  Returns the rank nonzero rows of the RREF as int residue lists.
    """
    shifts, mask = _slots(p, len(rows), ncols)
    out = [None] * len(pivots)
    for k in range(len(pivots) - 1, -1, -1):
        c = pivots[k]
        tail = shifts[c:]
        v = rows[k]
        red = [(v >> s & mask) % p for s in tail]
        out[k] = [0] * c + red
        neg_lead = sum(map(lshift, [-x % p for x in red], tail))
        sc = shifts[c]
        for i in range(k):
            f = (rows[i] >> sc & mask) % p
            if f:
                rows[i] += f * neg_lead
    return out


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
    """Forward pass: (field, echelon rows, pivot columns).

    Over a prime field the echelon rows are packed ints (_forward_fp);
    over the rationals they are the Bareiss echelon form.
    """
    rows = [list(r) for r in rows]
    fld = _detect_field(rows, field)
    if isinstance(fld, PrimeField):
        mat = _packed_rows_fp(rows, ncols, fld.p)
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
    if not free:  # full column rank: the kernel is zero, no back reduction
        return rank, []
    if isinstance(fld, PrimeField):
        # red is the free columns of the RREF mod p, d = 1
        rref = _back_reduce_fp(mat, pivots, ncols, fld.p)
        red = [[row[fc] for fc in free] for row in rref]
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


def pivot_columns(rows, ncols: int, field=None) -> list:
    """Pivot columns of a row echelon form, from the forward pass alone.

    A column is a pivot exactly when it is not in the span of the columns
    before it, whatever rows the elimination picked, so the rank of the
    first m columns is the number of pivots below m.
    """
    return _eliminate(rows, ncols, field)[2]


def rank_of(rows, ncols: int, field=None) -> int:
    """Rank of the matrix with the given rows."""
    return len(pivot_columns(rows, ncols, field))
