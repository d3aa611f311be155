"""Exact rank and kernel computations over the rationals or a prime field.

Every entry point takes the field as its third positional argument, a
required one: no entry point reads a field off its entries.  Entries may
be elements of that field or ints, and the field's ``unwrap`` checks
each row (a float or an element of another field raises
FieldMismatchError); rows of plain int residues from the prime-field hot
paths pass without a per-entry type check.

Both fields eliminate in two steps.  A forward pass gives a row echelon
form, whose pivot columns give the rank: pivot_columns and rank_of stop
there.  Only rank_kernel runs the back step that follows, one
fraction-free back substitution for both fields, and its kernel vectors
come back as field elements built by one ``field.wrap`` each.
The rational path works on Python ints throughout.  Each row is scaled by
the lcm of its entries' denominators and divided by its content.  Its
forward pass is fraction-free and keeps every row primitive: a row update
is the smallest integer combination that clears the pivot column,
divided by its content, so a row is never larger than its Bareiss
counterpart and sheds the common factors that Bareiss rows carry.  The
back step solves for each free column's kernel vector over one common
denominator, so a Fraction is built only for the nonzero kernel entries
handed back.  rank_of over the rationals first runs the prime-field
forward pass mod CERTIFICATE_PRIME, which settles any rank of
min(nrows, ncols); only a smaller rank runs the rational pass.  The
prime-field path packs each row of int residues into one Python int, a
fixed-width slot per entry, so a row update is a single big-int
multiply-add.  A slot is wide enough for a start anywhere below p*p plus
one update per row, so pivot_columns_of_combinations packs the products
of two residues that make up its rows without reducing them.  The
forward pass updates only the rows below each pivot and leaves each
pivot row reduced with lead 1, so the back step unpacks the pivot rows
once and runs the rational back substitution on them: every pivot is 1,
the common denominator stays 1, and each entry is reduced mod p.  One
loop builds the basis for both fields.
"""

from __future__ import annotations

from fractions import Fraction
from functools import reduce
from math import gcd, lcm
from operator import lshift

from .fields import PrimeField, QQ, _residues

# The modulus of rank_of's certificate over the rationals (a Mersenne prime).
CERTIFICATE_PRIME = 2**31 - 1


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
        row = QQ.unwrap(row)
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
    the pivot, and updates only the rows below it; a pivot row is never
    updated again, so it is left reduced and leading with 1.  A slot
    starts below p*p, so it may hold an unreduced product of two residues,
    and gains at most (p-1)*p per update.  Until it becomes a pivot row a
    row takes at most one update per pivot, so it stays below
    p*p + nrows*(p-1)*p < (nrows+1)*p*p <= 2**(w-1), as p <= 2**bitlen(p-1)
    and nrows < 2**bitlen(nrows): no slot carries into the next, and every
    slot stays congruent to its entry mod p.
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


def _forward_q(mat, ncols):
    """In-place fraction-free echelon form of primitive int rows; returns pivots.

    Each step clears the pivot column from the rows below by
    row = (a/g)*row - (b/g)*lead, with a the pivot, b the row's entry and
    g = gcd(a, b), and divides the result by its content; a row with
    b = 0 is left alone.  Every row stays primitive and proportional to
    its Bareiss row, so the pivot search finds the same pivots and row
    swaps as Bareiss would, and no entry outgrows its Bareiss size.  Left
    of the current column the lower rows are zero, so only the columns
    from it on change.
    """
    pivots = []
    nrows = len(mat)
    r = 0
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
            if not b:
                continue
            g = gcd(a, b)
            ag, bg = a // g, b // g
            new = [ag * x - bg * y for x, y in zip(row[c:], lead)]
            # pairwise: under CPython 3.11, gcd(*new) left the resident set
            # about 0.3 MB larger after repeated 24x25 rational kernels, the
            # unisecant system of the time (now 11x12)
            content = reduce(gcd, new)
            if content > 1:
                new = [v // content for v in new]
            row[c:] = new
        pivots.append(c)
        r += 1
    return pivots


def _solve_free(mat, pivots, fc, field):
    """(d, nums): the kernel vector of free column fc has nums[i] / d at pivots[i].

    Back substitution over an echelon form of int rows, from the last
    pivot up, with every entry found so far held as an int over one common
    denominator d.  Row i gives a_i*x_i = -s with s = row_i[fc]*d +
    sum_k row_i[p_k]*x_k over the later pivots p_k and a_i the pivot.  With
    g = gcd(s, a_i), x_i = -s/g over the denominator d*m, m = a_i/g, so d
    and the entries so far are scaled by m.  As gcd(m, s/g) = 1, d and the
    entries stay coprime: |d| is the lcm of the entries' denominators.
    Each x_i passes through field.reduce: over the rationals that changes
    nothing, and over F_p, whose unpacked rows from _forward_fp lead with
    1, every m is 1, so d stays 1 and the entries stay residues.
    """
    rank = len(pivots)
    nums = [0] * rank
    d = 1
    for i in range(rank - 1, -1, -1):
        row = mat[i]
        s = row[fc] * d
        for k in range(i + 1, rank):
            x = nums[k]
            if x:
                s += row[pivots[k]] * x
        if not s:
            continue
        a = row[pivots[i]]
        g = gcd(s, a)
        m = a // g
        if m != 1:
            d *= m
            nums = [v * m for v in nums]
        nums[i], = field.reduce([-s // g])
    return d, nums


def _eliminate(rows, ncols, field):
    """Forward pass: (echelon rows, pivot columns).

    Over a prime field the echelon rows are packed ints (_forward_fp);
    over the rationals they are primitive int rows (_forward_q).  Both
    build their rows anew, so the caller's rows are never changed.
    """
    if isinstance(field, PrimeField):
        mat = _packed_rows_fp(rows, ncols, field.p)
        return mat, _forward_fp(mat, ncols, field.p)
    mat = _int_rows_q(rows, ncols)
    return mat, _forward_q(mat, ncols)


def rank_kernel(rows, ncols: int, field):
    """Rank and a right-kernel basis of the matrix with the given rows.

    Returns (rank, basis) where basis is a list of length-ncols tuples of
    field scalars, one per free column, spanning {v : M v = 0}; the vector
    of free column fc has a 1 there and 0 in every other free column.
    """
    mat, pivots = _eliminate(rows, ncols, field)
    rank = len(pivots)
    pivot_set = set(pivots)
    free = [c for c in range(ncols) if c not in pivot_set]
    if not free:  # full column rank: the kernel is zero, no back substitution
        return rank, []
    fp = isinstance(field, PrimeField)
    if fp:  # the pivot rows, reduced with lead 1, unpacked once
        shifts, mask = _slots(field.p, len(mat), ncols)
        mat = [[v >> s & mask for s in shifts] for v in mat[:rank]]
    basis = []
    for fc in free:
        d, nums = _solve_free(mat, pivots, fc, field)
        if not fp:
            nums = [Fraction(x, d) if x else 0 for x in nums]
        vec = [0] * ncols
        vec[fc] = 1
        for pc, x in zip(pivots, nums):
            vec[pc] = x
        basis.append(tuple(field.wrap(vec)))
    return rank, basis


def pivot_columns(rows, ncols: int, field) -> list:
    """Pivot columns of a row echelon form, from the forward pass alone.

    A column is a pivot exactly when it is not in the span of the columns
    before it, whatever rows the elimination picked, so the rank of the
    first m columns is the number of pivots below m.
    """
    return _eliminate(rows, ncols, field)[1]


def pivot_columns_of_combinations(blocks, ncols: int, field) -> list:
    """pivot_columns of rows that are combinations of a few sparse vectors.

    Each block is (vectors, rows).  A vector is (first column, values),
    with values that are working values (residues in [0, p) over F_p), and
    the vectors of one block have disjoint supports.  A row is one scalar
    per vector of its block and stands for the sum of the scalars times
    the vectors.  Over F_p each scalar, any int, is reduced once and the
    row is packed as one int whose slots are products of two residues,
    below p*p, as _forward_fp allows; the packed vectors are built once
    per block.  Over the rationals the rows are expanded into lists.
    """
    if isinstance(field, PrimeField):
        p = field.p
        shifts, _ = _slots(p, sum(len(rows) for _, rows in blocks), ncols)
        mat = []
        for vectors, rows in blocks:
            packed = [sum(map(lshift, vals, shifts[off:])) for off, vals in vectors]
            mat += [sum([x % p * v for x, v in zip(row, packed)]) for row in rows]
        return _forward_fp(mat, ncols, p)
    mat = []
    for vectors, rows in blocks:
        for row in rows:
            out = [0] * ncols
            for x, (off, vals) in zip(row, vectors):
                if x:
                    for col, v in enumerate(vals, off):
                        out[col] += x * v
            mat.append(out)
    return _eliminate(mat, ncols, field)[1]


def rank_of(rows, ncols: int, field) -> int:
    """Rank of the matrix with the given rows.

    Over the rationals the forward pass first runs mod CERTIFICATE_PRIME
    on the cleared int rows.  A rank there of min(nrows, ncols) is the
    rank over the rationals: a minor that is nonzero mod p is nonzero over
    the integers, and no rank exceeds that bound.  Any smaller rank may
    come from a prime that divides a minor, so the exact forward pass
    decides.
    """
    if isinstance(field, PrimeField):
        return len(pivot_columns(rows, ncols, field))
    mat = _int_rows_q(rows, ncols)
    bound = min(len(mat), ncols)
    packed = _packed_rows_fp(mat, ncols, CERTIFICATE_PRIME)
    if len(_forward_fp(packed, ncols, CERTIFICATE_PRIME)) == bound:
        return bound
    return len(_forward_q(mat, ncols))
