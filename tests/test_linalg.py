"""Exact linear algebra against a naive textbook oracle."""

import sys
from collections import Counter
from fractions import Fraction
from math import gcd

import pytest

from scrollgeom.errors import FieldMismatchError
from scrollgeom.fields import QQ, FpElement, PrimeField
import scrollgeom.linalg as linalg
from scrollgeom.linalg import (
    CERTIFICATE_PRIME,
    _as_combinations,
    _forward_fp,
    _forward_q,
    _int_rows_of_combinations,
    _packed_combinations,
    _slots,
    pivot_columns_of_combinations,
    rank_kernel,
    rank_kernel_of_combinations,
    rank_of,
)
from scrollgeom.rngstream import as_stream
from scrollgeom.scrolls import ScrollType

from helpers import (
    oracle_expanded_rows,
    oracle_kernel_mod,
    oracle_kernel_q,
    oracle_quadric_coefficient_rows,
    oracle_rref_mod,
    oracle_rref_q,
    same_span_mod,
    same_span_q,
)

MERSENNE_61 = 2**61 - 1


def test_frozen_small_cases():
    rank, kernel = rank_kernel([[1, 2], [2, 4]], 2, QQ)
    assert rank == 1 and len(kernel) == 1
    x, y = kernel[0]
    assert x + 2 * y == 0 and (x or y)

    rank, kernel = rank_kernel([[1, 0, 0], [0, 1, 0], [0, 0, 1]], 3, QQ)
    assert rank == 3 and kernel == []

    rank, kernel = rank_kernel([[0, 0, 0, 0], [0, 0, 0, 0]], 4, QQ)
    assert rank == 0 and len(kernel) == 4


def test_kernel_vectors_annihilate_rows():
    rng = as_stream(21)
    for field in (QQ, PrimeField(10007)):
        for _ in range(10):
            nrows = rng.randint(1, 8)
            ncols = rng.randint(1, 8)
            rows = [
                [field.random_scalar(rng) for _ in range(ncols)] for _ in range(nrows)
            ]
            rank, kernel = rank_kernel(rows, ncols, field)
            assert rank + len(kernel) == ncols
            for vec in kernel:
                out = [sum(a * b for a, b in zip(row, vec)) for row in rows]
                assert all(not v for v in out)


def test_oracle_agreement_rational():
    rng = as_stream(34)
    for _ in range(15):
        nrows = rng.randint(1, 12)
        ncols = rng.randint(1, 12)
        rows = [
            [Fraction(rng.randint(-9, 9), rng.randint(1, 5)) for _ in range(ncols)]
            for _ in range(nrows)
        ]
        rank, kernel = rank_kernel(rows, ncols, QQ)
        want_rank, want_kernel = oracle_kernel_q(rows, ncols)
        assert rank == want_rank
        assert same_span_q(kernel, want_kernel, ncols)


def test_oracle_agreement_prime_field():
    p = 10007
    field = PrimeField(p)
    rng = as_stream(35)
    for _ in range(15):
        nrows = rng.randint(1, 12)
        ncols = rng.randint(1, 12)
        rows = [[field.random_scalar(rng) for _ in range(ncols)] for _ in range(nrows)]
        rank, kernel = rank_kernel(rows, ncols, field)
        want_rank, want_kernel = oracle_kernel_mod(rows, ncols, p)
        assert rank == want_rank
        assert same_span_mod(kernel, want_kernel, ncols, p)
        assert all(type(x) is FpElement and x.p == p for v in kernel for x in v)


def test_mixed_int_rows_accepted():
    # plain ints in rows must coerce into either field
    rank, kernel = rank_kernel([[1, 2, 3], [2, 4, 6]], 3, QQ)
    assert rank == 1 and len(kernel) == 2
    fp = PrimeField(7)
    rank, kernel = rank_kernel([[1, 2, 3], [fp(2), 4, fp(6)]], 3, fp)
    assert rank == 1 and len(kernel) == 2
    assert all(type(x) is FpElement and x.p == 7 for v in kernel for x in v)


def test_rank_of_matches_rank_kernel():
    rng = as_stream(36)
    for field in (QQ, PrimeField(10007)):
        for _ in range(5):
            rows = [
                [field.random_scalar(rng) for _ in range(6)]
                for _ in range(rng.randint(1, 6))
            ]
            assert rank_of(rows, 6, field) == rank_kernel(rows, 6, field)[0]


ROW_ENTRY_POINTS = [rank_kernel, rank_of]


def _row_pivots(rows, ncols, field):
    """Pivot columns of plain rows, through the adapter that rank_kernel and rank_of use."""
    return pivot_columns_of_combinations(_as_combinations(rows, ncols, field), ncols, field)


def test_float_entries_rejected_on_both_paths():
    # every plain-row entry point goes through the one adapter, which
    # checks the entries and leaves the caller's rows as they were
    for entry in ROW_ENTRY_POINTS:
        for field in (QQ, PrimeField(7)):
            for rows in ([[0.5, 1]], [[1, 2], [3, 1.0]], [[Fraction(1, 2), 1.0]]):
                before = [list(row) for row in rows]
                with pytest.raises(FieldMismatchError):
                    entry(rows, 2, field)
                assert rows == before, (entry, field)


@pytest.mark.parametrize("entry", ROW_ENTRY_POINTS, ids=lambda f: f.__name__)
@pytest.mark.parametrize("field", [QQ, PrimeField(7)], ids=["q", "fp7"])
def test_rows_of_another_length_rejected(entry, field):
    for rows in ([[1, 2, 3], [4, 5]], [[1, 2, 3, 4]], [[]]):
        before = [list(row) for row in rows]
        with pytest.raises(ValueError, match="expected 3"):
            entry(rows, 3, field)
        assert rows == before


@pytest.mark.parametrize("entry", ROW_ENTRY_POINTS, ids=lambda f: f.__name__)
@pytest.mark.parametrize("field", [QQ, PrimeField(7)], ids=["q", "fp7"])
def test_entry_points_leave_the_rows_unchanged(entry, field):
    rows = [[Fraction(1, 3) if field is QQ else 9, 2, -4], [2, 4, 6], [0, 0, 14], [5, 1, 8]]
    before = [list(row) for row in rows]
    entry(rows, 3, field)
    assert rows == before


# ------------------------------------------- packed prime-field elimination


def _random_rows(rng, nrows, ncols, p):
    return [[rng.below(p) for _ in range(ncols)] for _ in range(nrows)]


def _low_rank_rows(rng, nrows, ncols, rank, p):
    left = _random_rows(rng, nrows, rank, p)
    right = _random_rows(rng, rank, ncols, p)
    return [
        [sum(a * right[k][j] for k, a in enumerate(row)) % p for j in range(ncols)]
        for row in left
    ]


def _packed_shapes(p):
    rng = as_stream(p % 1000 + 50)
    dup = _random_rows(rng, 5, 9, p)
    return {
        "tall": _random_rows(rng, 72, 38, p),
        "wide": _random_rows(rng, 6, 25, p),
        "all_zero": [[0] * 7 for _ in range(5)],
        "rank_deficient": _low_rank_rows(rng, 30, 20, 7, p),
        "duplicate_rows": dup + dup[::-1] + dup[:2],
        "all_p_minus_1": [[p - 1] * 12 for _ in range(15)],
        "slot_filling": _slot_filling_rows(12, 3, p),
        "no_rows": [],
    }


def _slot_filling_rows(rank, extra, p):
    """Unit upper triangle of ones, then rows of -1 - j in column j.

    Each extra row meets every pivot with entry p - 1 and gains (p - 1)**2
    in every later slot, so its last slot takes rank such steps: at
    p = 2**61 - 1 that needs all but the spare bit of the slot width.  The
    extra rows lie in the span of the triangle; a trailing zero column
    turns any carry out of a slot into a wrong rank.
    """
    upper = [[0] * i + [1] * (rank - i) + [0] for i in range(rank)]
    return upper + [[(-1 - j) % p for j in range(rank)] + [0] for _ in range(extra)]


@pytest.mark.parametrize("p", [3, 10007, MERSENNE_61])
@pytest.mark.parametrize(
    "shape",
    [
        "tall",
        "wide",
        "all_zero",
        "rank_deficient",
        "duplicate_rows",
        "all_p_minus_1",
        "slot_filling",
        "no_rows",
    ],
)
def test_packed_elimination_matches_oracle(p, shape):
    rows = _packed_shapes(p)[shape]
    ncols = len(rows[0]) if rows else 4
    packed = _packed_combinations(_as_combinations(rows, ncols, PrimeField(p)), ncols, p)
    pivots = _forward_fp(packed, ncols, p)
    want_rank, want_pivots, _ = oracle_rref_mod(rows, ncols, p)
    assert pivots == want_pivots and len(pivots) == want_rank
    # the forward pass leaves the rows below the rank zero mod p
    shifts, mask = _slots(p, len(rows), ncols)
    assert not any((v >> s & mask) % p for v in packed[want_rank:] for s in shifts)
    # each pivot row is left reduced, zero left of its pivot and leading with 1,
    # which is what rank_kernel's back substitution reads off the packed rows
    for v, c in zip(packed, pivots):
        row = [v >> s & mask for s in shifts]
        assert sum(x << s for x, s in zip(row, shifts)) == v
        assert all(x < p for x in row) and row[:c + 1] == [0] * c + [1]
    rank, kernel = rank_kernel(rows, ncols, PrimeField(p))
    oracle_rank, oracle_basis = oracle_kernel_mod(rows, ncols, p)
    assert rank == oracle_rank
    assert [[x.val for x in vec] for vec in kernel] == oracle_basis
    assert all(type(x) is FpElement and x.p == p for v in kernel for x in v)


@pytest.mark.parametrize("p", [3, MERSENNE_61], ids=["3", "2^61-1"])
def test_high_rank_kernel_is_residues_over_one_denominator(p, monkeypatch):
    # rank 40 or more with several free columns and dependent rows below:
    # over F_p every pivot of the unpacked rows is 1, so the back
    # substitution keeps d = 1 and hands out residues in [0, p)
    rng = as_stream(p % 1000 + 44)
    rows = _random_rows(rng, 42, 46, p)
    rows += [[(a + 2 * b) % p for a, b in zip(r, t)] for r, t in zip(rows, rows[1:7])]
    solved = []

    def spy(*args, _real=linalg._solve_free):
        out = _real(*args)
        solved.append(out)
        return out

    monkeypatch.setattr(linalg, "_solve_free", spy)
    rank, kernel = rank_kernel(rows, 46, PrimeField(p))
    oracle_rank, oracle_basis = oracle_kernel_mod(rows, 46, p)
    assert rank == oracle_rank and rank >= 40 and len(kernel) >= 2
    assert [[x.val for x in vec] for vec in kernel] == oracle_basis
    assert len(solved) == len(kernel)
    assert all(d == 1 and all(0 <= x < p for x in nums) for d, nums in solved)


def _max_rep(r, p):
    """The largest integer congruent to r mod p that is at most (p - 1)**2."""
    return r + ((p - 1) ** 2 - r) // p * p


@pytest.mark.parametrize("p", [101, 10007, MERSENNE_61])
def test_forward_pass_accepts_unreduced_slots_below_p_squared(p):
    # 63 rows, the most whose slot width is that of 32 rows, and every slot
    # holding the largest representative up to (p-1)**2 of its entry, as
    # an unreduced product of two residues may.  In the triangle, row i has
    # -1 left of the diagonal and 1 on it; the three rows of -1 below lie in
    # its span.  Each pivot meets every lower row with entry p - 1 and adds
    # (p-1)*p to each later slot, so a lower row's last slots take 60 such
    # updates on top of their start.  A carry out of a slot would leave the
    # trailing zero column nonzero in a lower row: a wrong rank.
    nrows, size = 63, 60
    triangle = [[(-1 if c < i else int(c == i)) % p for c in range(size)] + [0]
                for i in range(size)]
    below = [[p - 1] * size + [0] for _ in range(nrows - size)]
    random_rows = _random_rows(as_stream(p % 1000 + 63), 40, 20, p)
    shapes = [
        triangle + below,
        random_rows + random_rows[:nrows - 40],  # rank 20, duplicates below
        [[p - 1] * 30 for _ in range(nrows)],
    ]
    for rows in shapes:
        ncols = len(rows[0])
        shifts, mask = _slots(p, nrows, ncols)
        unreduced = [[_max_rep(x, p) for x in row] for row in rows]
        assert max(map(max, unreduced)) <= (p - 1) ** 2
        packed = [sum(x << sh for x, sh in zip(row, shifts)) for row in unreduced]
        pivots = _forward_fp(packed, ncols, p)
        want_rank, want_pivots, _ = oracle_rref_mod(rows, ncols, p)
        assert pivots == want_pivots and len(pivots) == want_rank
        assert not any((v >> s & mask) % p for v in packed[want_rank:] for s in shifts)


@pytest.mark.parametrize("p", [101, 10007, MERSENNE_61, None], ids=["101", "10007", "2^61-1", "q"])
def test_pivot_columns_of_combinations_match_the_expanded_rows(p):
    # rows given as weights times vectors that cut the columns into runs;
    # the weights are any ints, negative and far beyond p included
    field = PrimeField(p) if p else QQ
    rng = as_stream(p % 1000 + 7 if p else 7)
    top = p or 50
    for _ in range(12):
        ncols = rng.randint(1, 24)
        combos, expanded = [], []
        for _ in range(rng.randint(1, 4)):
            cuts = sorted({0, ncols, *(rng.randint(1, ncols) for _ in range(3))})
            vectors = [(a, [rng.below(top) for _ in range(a, b)]) for a, b in zip(cuts, cuts[1:])]
            rank = rng.randint(1, len(vectors))
            rows = [[rng.randint(-top, top) * rng.randint(1, top) if t < rank else 0
                     for t in range(len(vectors))] for _ in range(rng.randint(1, 6))]
            rows += [[2 * x for x in row] for row in rows[:2]]  # dependent rows
            combos += [(vectors, row) for row in rows]
            for row in rows:
                dense = [0] * ncols
                for x, (off, vals) in zip(row, vectors):
                    for col, v in enumerate(vals, off):
                        dense[col] = x * v
                expanded.append(dense)
        want = oracle_rref_mod(expanded, ncols, p) if p else oracle_rref_q(expanded, ncols)
        assert linalg.pivot_columns_of_combinations(combos, ncols, field) == want[1]
    # an empty vector may sit at column ncols, past the last column
    assert linalg.pivot_columns_of_combinations([([(0, [])], [1])], 0, field) == []
    assert linalg.pivot_columns_of_combinations(
        [([(0, [1, 2]), (2, [])], [1, 5])], 2, field) == [0]


@pytest.mark.parametrize("p", [3, 101, 10007, MERSENNE_61, None],
                         ids=["3", "101", "10007", "2^61-1", "q"])
def test_combination_entry_points_match_the_explicit_rows(p):
    # random combinations whose vectors share value lists, within a row and
    # across rows, with weights that are zero, negative and at least p:
    # the pivots and the kernel basis of the combination entry points
    # against the plain-row pivots and rank_kernel on the rows written out
    field = PrimeField(p) if p else QQ
    rng = as_stream(p % 1000 + 31 if p else 31)
    top = p or 40
    seen = Counter()

    def values(count):
        if p:
            return [rng.below(p) for _ in range(count)]
        return [Fraction(rng.randint(-top, top), rng.randint(1, 4)) for _ in range(count)]

    def scalar():
        kind = rng.randint(0, 3)
        seen[kind] += 1
        if kind == 0:
            return 0
        if kind == 1:
            return -(rng.below(top) * rng.below(top) + 1)
        if kind == 2:
            return top * rng.randint(1, 5) + rng.below(top)
        return rng.randint(1, top - 1) if p else Fraction(rng.randint(-top, top), rng.randint(1, 5))

    for _ in range(40):
        ncols = rng.randint(1, 16)
        pool = {}  # value lists by length, handed to later vectors of that length
        combos = []
        for _ in range(rng.randint(1, 5)):
            cuts = sorted({0, ncols, *(rng.randint(1, ncols) for _ in range(3))})
            vectors = []
            for a, b in zip(cuts, cuts[1:]):
                if b - a in pool and rng.randint(0, 1):
                    seen["shared"] += 1
                else:
                    pool[b - a] = values(b - a)
                if rng.randint(0, 3):  # some runs of columns stay empty
                    vectors.append((a, pool[b - a]))
            rows = [[scalar() for _ in vectors] for _ in range(rng.randint(1, 4))]
            rows += [[3 * x for x in row] for row in rows[:rng.randint(0, 1)]]  # dependent
            combos += [(vectors, row) for row in rows]
        explicit = oracle_expanded_rows(combos, ncols, field)
        assert pivot_columns_of_combinations(combos, ncols, field) == _row_pivots(
            explicit, ncols, field)
        assert rank_kernel_of_combinations(combos, ncols, field) == rank_kernel(
            explicit, ncols, field)
    assert all(seen[key] for key in (0, 1, 2, 3, "shared"))


def test_packed_elimination_shape_ranks():
    # the shapes that pin the kernel: full rank, rank 1, rank 0
    shapes = _packed_shapes(10007)
    assert rank_of(shapes["tall"], 38, PrimeField(10007)) == 38
    assert rank_of(shapes["all_p_minus_1"], 12, PrimeField(10007)) == 1
    assert rank_of(shapes["all_zero"], 7, PrimeField(10007)) == 0
    assert rank_of(shapes["rank_deficient"], 20, PrimeField(10007)) == 7


def test_packed_elimination_property():
    hypothesis = pytest.importorskip("hypothesis")
    st = hypothesis.strategies

    @st.composite
    def matrices(draw):
        p = draw(st.sampled_from([3, 5, 10007, MERSENNE_61]))
        nrows = draw(st.integers(0, 9))
        ncols = draw(st.integers(0, 9))
        entry = st.one_of(st.integers(-p, 2 * p), st.sampled_from([0, 1, p - 1]))
        rows = draw(st.lists(st.lists(entry, min_size=ncols, max_size=ncols),
                             min_size=nrows, max_size=nrows))
        return p, ncols, rows

    @hypothesis.settings(max_examples=200, deadline=None)
    @hypothesis.given(matrices())
    def check(case):
        p, ncols, rows = case
        rank, kernel = rank_kernel(rows, ncols, PrimeField(p))
        oracle_rank, oracle_basis = oracle_kernel_mod(rows, ncols, p)
        assert rank == oracle_rank
        assert [[x.val for x in vec] for vec in kernel] == oracle_basis
        assert all(type(x) is FpElement and x.p == p for v in kernel for x in v)

    check()


def test_pivot_columns_property():
    # the pivot columns are the forward pass alone; every column prefix's rank
    # is the number of pivots inside it
    hypothesis = pytest.importorskip("hypothesis")
    st = hypothesis.strategies

    @st.composite
    def matrices(draw):
        p = draw(st.sampled_from([3, 5, 10007, MERSENNE_61, None]))  # None: the rationals
        nrows = draw(st.integers(0, 8))
        ncols = draw(st.integers(0, 8))
        if p is None:
            entry = st.one_of(
                st.builds(Fraction, st.integers(-20, 20), st.integers(1, 12)),
                st.integers(-3, 3),
            )
        else:
            entry = st.one_of(st.integers(-p, 2 * p), st.sampled_from([0, 1, p - 1]))
        rows = draw(st.lists(st.lists(entry, min_size=ncols, max_size=ncols),
                             min_size=nrows, max_size=nrows))
        if len(rows) >= 2 and draw(st.booleans()):  # a dependent row
            rows.append([a + 2 * b for a, b in zip(rows[0], rows[-1])])
        return p, ncols, rows

    @hypothesis.settings(max_examples=200, deadline=None)
    @hypothesis.given(matrices())
    def check(case):
        p, ncols, rows = case
        field = PrimeField(p) if p else QQ

        def oracle(mat, width):
            return oracle_rref_mod(mat, width, p) if p else oracle_rref_q(mat, width)

        pivots = _row_pivots(rows, ncols, field)
        assert pivots == oracle(rows, ncols)[1]
        for m in range(ncols + 1):
            prefix = [row[:m] for row in rows]
            want = sum(1 for c in pivots if c < m)
            assert rank_of(prefix, m, field) == want == oracle(prefix, m)[0]

    check()


# ------------------------------------------------ fraction-free rational path


def _fraction_rows(rng, nrows, ncols, span=9, max_den=7):
    return [
        [Fraction(rng.randint(-span, span), rng.randint(1, max_den)) for _ in range(ncols)]
        for _ in range(nrows)
    ]


def _rational_shapes():
    rng = as_stream(61)
    mixed = _fraction_rows(rng, 9, 11)
    for row in mixed:
        row[3] = Fraction(0)  # a zero column
    mixed[4] = [Fraction(0)] * 11  # a zero row
    mixed[6] = [Fraction(0)] * 11
    left = _fraction_rows(rng, 14, 4)
    right = _fraction_rows(rng, 4, 10)
    dup = _fraction_rows(rng, 5, 8)
    return {
        "mixed_denominators_zero_rows_cols": mixed,
        "rank_deficient": [
            [sum(a * right[k][j] for k, a in enumerate(row)) for j in range(10)]
            for row in left
        ],
        "duplicate_rows": dup + dup[::-1] + [[3 * x for x in dup[0]]],
        "wide": _fraction_rows(rng, 5, 17),
        "tall": _fraction_rows(rng, 23, 9),
        "ints_and_fractions": [[1, Fraction(1, 2), 0, -3], [2, 1, Fraction(5, 3), 0]],
        "all_zero": [[0] * 5 for _ in range(3)],
        "no_rows": [],
    }


def _assert_primitive_echelon(rows, ncols):
    """The rational forward pass leaves an echelon form of primitive rows."""
    mat = _int_rows_of_combinations(_as_combinations(rows, ncols, QQ), ncols)
    pivots = _forward_q(mat, ncols)
    assert pivots == oracle_rref_q(rows, ncols)[1]
    for i, row in enumerate(mat):
        if i < len(pivots):
            assert not any(row[:pivots[i]]) and row[pivots[i]]
            assert gcd(*row) == 1
        else:
            assert not any(row)


def _assert_exact_rational_kernel(rows, ncols):
    rank, kernel = rank_kernel(rows, ncols, QQ)
    want_rank, want_basis = oracle_kernel_q(rows, ncols)
    assert rank == want_rank == rank_of(rows, ncols, QQ)
    assert [list(v) for v in kernel] == want_basis
    assert all(type(x) in (int, Fraction) for v in kernel for x in v)
    _assert_primitive_echelon(rows, ncols)


@pytest.mark.parametrize(
    "shape",
    [
        "mixed_denominators_zero_rows_cols",
        "rank_deficient",
        "duplicate_rows",
        "wide",
        "tall",
        "ints_and_fractions",
        "all_zero",
        "no_rows",
    ],
)
def test_rational_kernel_matches_oracle(shape):
    rows = _rational_shapes()[shape]
    ncols = len(rows[0]) if rows else 4
    _assert_exact_rational_kernel(rows, ncols)


def test_rational_kernel_shape_ranks():
    shapes = _rational_shapes()
    assert rank_of(shapes["rank_deficient"], 10, QQ) == 4
    assert rank_of(shapes["duplicate_rows"], 8, QQ) == 5
    assert rank_of(shapes["all_zero"], 5, QQ) == 0
    assert rank_of([], 3, QQ) == 0 and rank_kernel([], 0, QQ) == (0, [])


def test_rational_kernel_quadrics_shape(monkeypatch):
    # the matrix of `quadrics --n 10 --field q`: 3n = 30 node-quotient rows
    # on 66 monomials, and the 42 coefficient rows of the same conditions,
    # a rank-deficient rational instance of rank 30
    import scrollgeom.binary_curves as bc

    seen = []

    def recording_rank_kernel(rows, ncols, field=None):
        seen.append(([list(r) for r in rows], ncols))
        return rank_kernel(rows, ncols, field)

    monkeypatch.setattr(bc, "rank_kernel", recording_rank_kernel)
    curve = bc.random_binary_curve(10, QQ, 5)
    bc.quadrics_through(curve)
    (rows, ncols), = seen
    assert (len(rows), ncols) == (30, 66)
    _assert_exact_rational_kernel(rows, ncols)
    _, coefficient_rows = oracle_quadric_coefficient_rows(curve)
    assert (len(coefficient_rows), rank_of(coefficient_rows, ncols, QQ)) == (42, 30)
    _assert_exact_rational_kernel(coefficient_rows, ncols)


def test_rank_only_callers_build_no_kernel(monkeypatch, capsys):
    # incidence and quadrics need ranks only: the forward pass, no kernel basis
    from scrollgeom.binary_curves import quadrics_through, random_binary_curve
    from scrollgeom.cli import main
    from scrollgeom.scroll_curves import incidence_dimension_estimate

    calls = []

    def counted(kernel):
        def counted_kernel(rows, ncols, field=None):
            calls.append((len(rows), ncols))
            return kernel(rows, ncols, field)
        return counted_kernel

    # both kernel entry points, on rows and on combinations
    for name, mod in list(sys.modules.items()):
        for kernel in (rank_kernel, rank_kernel_of_combinations):
            if name.startswith("scrollgeom") and getattr(mod, kernel.__name__, None) is kernel:
                monkeypatch.setattr(mod, kernel.__name__, counted(kernel))
    incidence_dimension_estimate(ScrollType((1, 1, 2)), 2, 3, 0, PrimeField(10007))
    for field in ("q", "fp:10007"):
        assert main(["quadrics", "--n", "6", "--trials", "2", "--field", field]) == 0
    capsys.readouterr()
    assert calls == []
    # the counter does see a kernel caller
    quadrics_through(random_binary_curve(4, QQ, 5))
    assert calls == [(12, 15)]


def test_rational_kernel_property():
    # every rational entry point against the naive RREF, also on rows with
    # large common factors, planted dependent rows and multiples of the
    # certificate prime
    hypothesis = pytest.importorskip("hypothesis")
    st = hypothesis.strategies
    big = CERTIFICATE_PRIME

    @st.composite
    def matrices(draw):
        nrows = draw(st.integers(0, 8))
        ncols = draw(st.integers(0, 8))
        entry = st.one_of(
            st.builds(Fraction, st.integers(-20, 20), st.integers(1, 12)),
            st.integers(-3, 3),
            st.sampled_from([Fraction(0), Fraction(1, 2**61 - 1)]),
            st.builds(lambda k: k * big, st.integers(-3, 3)),
            st.sampled_from([big + 1, big * big, Fraction(1, big)]),
        )
        rows = draw(st.lists(st.lists(entry, min_size=ncols, max_size=ncols),
                             min_size=nrows, max_size=nrows))
        factors = draw(st.lists(st.sampled_from([1, 1, 2**64 + 13, big, 6**30]),
                                min_size=nrows, max_size=nrows))
        rows = [[f * x for x in row] for f, row in zip(factors, rows)]
        for _ in range(draw(st.integers(0, 2)) if rows else 0):  # planted dependent rows
            a, b = draw(st.integers(-3, 3)), draw(st.sampled_from([1, -2, big]))
            i, j = draw(st.integers(0, len(rows) - 1)), draw(st.integers(0, len(rows) - 1))
            rows.insert(draw(st.integers(0, len(rows))),
                        [a * x + b * y for x, y in zip(rows[i], rows[j])])
        return ncols, rows

    @hypothesis.settings(max_examples=300, deadline=None)
    @hypothesis.given(matrices())
    def check(case):
        ncols, rows = case
        assert _row_pivots(rows, ncols, QQ) == oracle_rref_q(rows, ncols)[1]
        _assert_exact_rational_kernel(rows, ncols)

    check()


def test_rational_kernel_agrees_with_sympy_nullspace():
    sympy = pytest.importorskip("sympy")
    rng = as_stream(64)
    cases = list(_rational_shapes().values())[:-1]  # sympy needs a row
    for trial in range(12):
        nrows, ncols = 1 + trial % 6, 2 + (5 * trial) % 7
        rows = _fraction_rows(rng, nrows, ncols)
        if trial % 2:  # int entries, some of them repeated rows
            rows = [[x.numerator for x in row] for row in rows]
            rows.append([2 * x for x in rows[0]])
        cases.append(rows)
    for rows in cases:
        ncols = len(rows[0])
        rank, kernel = rank_kernel(rows, ncols, QQ)
        matrix = sympy.Matrix(
            [[sympy.Rational(x.numerator, x.denominator) for x in row] for row in rows]
        )
        # sympy's basis has the same normal form: 1 at its free column, 0 at the others
        want = [[Fraction(int(x.p), int(x.q)) for x in vec] for vec in matrix.nullspace()]
        assert rank == matrix.rank()
        assert [list(v) for v in kernel] == want


def test_rational_rank_survives_a_bad_certificate_prime():
    # mod CERTIFICATE_PRIME each matrix loses rank; rank_of must not trust that
    big = CERTIFICATE_PRIME
    cases = [
        ([[big, 1], [0, big]], 2, 2),
        ([[1, big + 2], [1, 2]], 2, 2),
        ([[1, 1 + big, 0], [1, 1, big], [2, 2 + big, big]], 3, 2),
        ([[Fraction(1, 3), Fraction(big + 2, 3)], [1, 2]], 2, 2),
        ([[big + 1, 1], [1, 1 - big], [2, 2]], 2, 2),
    ]
    for rows, ncols, want in cases:
        # the certificate sees the rows cleared of denominators and content
        cleared = _int_rows_of_combinations(_as_combinations(rows, ncols, QQ), ncols)
        assert rank_of(cleared, ncols, PrimeField(big)) < want
        assert rank_of(rows, ncols, QQ) == want == oracle_rref_q(rows, ncols)[0]
        assert len(_row_pivots(rows, ncols, QQ)) == want


def test_full_rank_rnc_ranks_take_the_certificate(monkeypatch):
    # the rnc finiteness ranks over q are full: certified mod p, with no
    # rational forward pass
    from scrollgeom.rnc import (
        random_quadric_through_frame,
        random_standard_rnc,
        rnc_residual_and_rank,
    )
    from scrollgeom.rngstream import RngStream

    calls = []

    def counted_forward_q(mat, ncols):
        calls.append((len(mat), ncols))
        return _forward_q(mat, ncols)

    monkeypatch.setattr(linalg, "_forward_q", counted_forward_q)
    for n, seed in ((10, 3), (12, 4), (14, 5)):
        rng = RngStream.from_seed(seed)
        curve = random_standard_rnc(n, QQ, rng.child("curve"))
        quad = random_quadric_through_frame(n, QQ, rng.child("quadric"))
        assert rnc_residual_and_rank(quad, curve)[1] == n - 1
    assert calls == []
    # the counter does see the exact pass: a rank-deficient matrix, and
    # the pivot columns, which never take the certificate
    assert rank_of([[1, 2], [2, 4]], 2, QQ) == 1
    assert _row_pivots([[1, 0], [0, 1]], 2, QQ) == [0, 1]
    assert calls == [(2, 2), (2, 2)]


def test_rank_mod_p_at_most_rank_over_q():
    hypothesis = pytest.importorskip("hypothesis")
    st = hypothesis.strategies

    @st.composite
    def matrices(draw):
        p = draw(st.sampled_from([3, 5, 7, 10007]))
        nrows = draw(st.integers(0, 7))
        ncols = draw(st.integers(0, 7))
        entry = st.one_of(st.integers(-12, 12), st.sampled_from([0, p, 2 * p, -p]))
        rows = draw(st.lists(st.lists(entry, min_size=ncols, max_size=ncols),
                             min_size=nrows, max_size=nrows))
        return p, ncols, rows

    @hypothesis.settings(max_examples=200, deadline=None)
    @hypothesis.given(matrices())
    def check(case):
        p, ncols, rows = case
        # a minor that vanishes over Z vanishes mod p, never the other way round
        assert rank_of(rows, ncols, PrimeField(p)) <= rank_of(rows, ncols, QQ)

    check()


def test_prime_field_rows_reject_foreign_entries():
    fp = PrimeField(7)
    assert rank_of([[7, 14, -7], [1, 2, 3]], 3, fp) == 1
    for bad in (PrimeField(11)(3), Fraction(1, 2), 0.5, "3"):
        with pytest.raises(FieldMismatchError):
            rank_kernel([[1, 2, 3], [4, bad, 6]], 3, fp)
    with pytest.raises(ValueError):
        rank_kernel([[1, 2, 3], [4, 5]], 3, fp)
