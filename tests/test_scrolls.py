"""Closed dimension formulas and the stratification table."""

from collections import Counter

import pytest

from scrollgeom.scrolls import (
    EMPTY,
    ScrollType,
    aut_dimension,
    dim_all_scrolls,
    dim_binary_family,
    dim_curves_in_scroll,
    dim_scrolls_through_frame,
    dim_scrolls_with_curve,
    dim_stratum,
    gonality_bound,
    intersection_bound,
    partitions_into,
    stratification_table,
)


def test_scroll_type_normalization():
    st = ScrollType((2, 1))
    assert st.degrees == (1, 2)
    assert st.d == 2 and st.n == 4
    assert st.is_balanced
    assert repr(st) == "F(1,2)"
    assert not ScrollType((0, 3)).is_balanced
    assert ScrollType((1, 2)) == ScrollType((2, 1))
    # a ScrollType equals only ScrollTypes, so equality agrees with hashing
    assert ScrollType((1, 2)) != (1, 2)
    assert ScrollType((2, 1)) in {ScrollType((1, 2))}
    assert (1, 2) not in {ScrollType((1, 2))}


def test_scroll_type_rejects_bad_input():
    with pytest.raises(ValueError):
        ScrollType(())
    with pytest.raises(ValueError):
        ScrollType((-1, 3))
    with pytest.raises(ValueError):
        ScrollType((1,))  # total degree 1: a line, not a scroll
    with pytest.raises(ValueError):
        ScrollType((0, 1))


def test_scroll_type_immutable():
    st = ScrollType((1, 2))
    with pytest.raises(AttributeError):
        st.degrees = (2, 2)


def test_aut_dimension_frozen():
    assert aut_dimension(ScrollType((1, 1))) == 4
    assert aut_dimension(ScrollType((1, 2))) == 4
    assert aut_dimension(ScrollType((0, 3))) == 6
    assert aut_dimension(ScrollType((1, 1, 2))) == 9
    assert aut_dimension(ScrollType((0, 2, 2))) == 11


def test_aut_dimension_balanced_equality():
    for n in range(3, 13):
        for d in range(1, n):
            for part in partitions_into(n - d + 1, d):
                st = ScrollType(part)
                excess = aut_dimension(st) - d * d
                assert excess >= 0
                assert (excess == 0) == st.is_balanced


def test_dim_all_scrolls_frozen():
    assert dim_all_scrolls(4, 2) == 18
    assert dim_all_scrolls(3, 1) == 12
    assert dim_all_scrolls(6, 3) == 37
    with pytest.raises(ValueError):
        dim_all_scrolls(3, 3)
    with pytest.raises(ValueError):
        dim_all_scrolls(4, 0)


def test_dim_stratum_frozen():
    assert dim_stratum(ScrollType((1, 2))) == 18
    assert dim_stratum(ScrollType((0, 3))) == 16
    # (1,1,1) in P^5: the (n^2 + 2n - 2 - d^2) formula gives 24 here
    assert dim_stratum(ScrollType((1, 1, 1))) == 24
    assert dim_stratum(ScrollType((1, 1, 2))) == 37


def test_rnc_dimensions_frozen():
    # rational normal curves in P^n are the d=1 scrolls, of type (n,): a
    # family of dimension n^2 + 2n - 3, of which n - 1 pass through n+2
    # general points
    assert dim_all_scrolls(3, 1) == 12
    assert dim_all_scrolls(4, 1) == 21
    assert dim_scrolls_through_frame(ScrollType((3,))) == 2
    assert dim_scrolls_through_frame(ScrollType((4,))) == 3


def test_dim_scrolls_through_frame_frozen():
    assert dim_scrolls_through_frame(ScrollType((1, 2))) == 6
    assert dim_scrolls_through_frame(ScrollType((0, 3))) == 4
    assert dim_scrolls_through_frame(ScrollType((1, 1))) == 4


def test_dim_curves_in_scroll_frozen():
    assert dim_curves_in_scroll(ScrollType((1, 2)), 1) == 6
    assert dim_curves_in_scroll(ScrollType((1, 2)), 2) == 5
    assert dim_curves_in_scroll(ScrollType((0, 3)), 2) is EMPTY
    assert dim_curves_in_scroll(ScrollType((1, 1, 2)), 1) == 16
    assert dim_curves_in_scroll(ScrollType((1, 1, 2)), 2) == 14
    assert dim_curves_in_scroll(ScrollType((1, 1, 2)), 3) == 12
    assert dim_curves_in_scroll(ScrollType((2, 3)), 3) is EMPTY
    with pytest.raises(ValueError):
        dim_curves_in_scroll(ScrollType((1, 2)), 0)


def test_dim_scrolls_with_curve_frozen():
    assert dim_scrolls_with_curve(ScrollType((1, 2)), 1) == 6
    assert dim_scrolls_with_curve(ScrollType((1, 2)), 2) == 5
    assert dim_scrolls_with_curve(ScrollType((0, 3)), 2) is EMPTY
    with pytest.raises(ValueError):
        dim_scrolls_with_curve(ScrollType((1, 2, 2)), 1)  # n odd


def test_bounds_frozen():
    assert intersection_bound(4) == 5
    assert dim_binary_family(4) == 6
    assert gonality_bound(5) == 4
    assert gonality_bound(2) == 2
    with pytest.raises(ValueError):
        intersection_bound(2)
    with pytest.raises(ValueError):
        dim_binary_family(2)
    with pytest.raises(ValueError):
        gonality_bound(1)


def test_intersection_below_binary_family():
    for n in range(3, 13):
        assert intersection_bound(n) == dim_binary_family(n) - 1


def test_coefficient_count_identity_exhaustive():
    # parameter bookkeeping of curves in a scroll: free coefficients of
    # the base pair and fiber forms, minus scalings and torus, equals the
    # closed formula on every non-empty stratum with n <= 12
    for n in range(3, 13):
        for d in range(1, n):
            for part in partitions_into(n - d + 1, d):
                st = ScrollType(part)
                for k in range(1, d + 1):
                    predicted = dim_curves_in_scroll(st, k)
                    if predicted is EMPTY:
                        continue
                    coeffs = 2 * (k + 1) + sum(n - k * ai + 1 for ai in st.degrees)
                    assert coeffs - 5 == predicted, (st, k)


def test_scrolls_with_curve_matches_through_frame_at_k1():
    for n in range(4, 13, 2):
        d = n // 2
        for part in partitions_into(n - d + 1, d):
            st = ScrollType(part)
            value = dim_scrolls_with_curve(st, 1)
            if value is EMPTY:
                continue
            assert value == dim_scrolls_through_frame(st)


def test_partitions_into():
    assert list(partitions_into(3, 2)) == [(0, 3), (1, 2)]
    assert list(partitions_into(3, 1)) == [(3,)]
    assert list(partitions_into(4, 3)) == [(0, 0, 4), (0, 1, 3), (0, 2, 2), (1, 1, 2)]
    for total, parts in ((5, 2), (6, 3), (7, 4)):
        seen = list(partitions_into(total, parts))
        assert len(set(seen)) == len(seen)
        for tup in seen:
            assert sum(tup) == total and len(tup) == parts
            assert all(a <= b for a, b in zip(tup, tup[1:]))


def test_stratification_table_frozen():
    rows = stratification_table(4, 2, 4)
    assert [r["a"] for r in rows] == [[0, 3], [1, 2]]
    balanced = rows[1]
    assert balanced["dim_all"] == 18
    assert balanced["dim_stratum"] == 18
    assert balanced["aut_dim"] == 4
    assert balanced["balanced"] is True
    per_k = {c["k"]: c for c in balanced["per_k"]}
    assert per_k[1]["dim_curves"] == 6
    assert per_k[1]["dim_scrolls_with_curve"] == 6
    assert per_k[2]["dim_curves"] == 5
    cone = rows[0]
    assert cone["dim_stratum"] == 16
    assert {c["k"]: c["dim_curves"] for c in cone["per_k"]}[2] is EMPTY

    assert [r["a"] for r in stratification_table(4, 1, 4)] == [[4]]
    assert len(stratification_table(6, 3, 6)) == 4


def _written_out(a, k):
    """The table's counts from each formula written out term by term."""
    n, d = sum(a) + len(a) - 1, len(a)
    excess = sum(max(0, ai - aj + 1) for ai in a for aj in a) - d * d
    stratum = n * n + 2 * n - 2 - d * d - excess
    if k > d or any(n - k * ai < 0 for ai in a):
        curves = EMPTY
    else:
        curves = (d - 1) * (n + 3 - k) + (k - 1) * (2 * d - n)
    with_curve = None
    if n % 2 == 0 and d == n // 2:
        h = n // 2
        with_curve = (
            EMPTY if any(n - k * ai < 0 for ai in a)
            else h * h + n - 2 - (k - 1) * (h - 1) - excess
        )
    return stratum, curves, with_curve


def test_stratification_cells_match_the_formula_functions():
    # every table for 2 <= n <= 13, every d and every k <= n, against the
    # public functions and the formulas written out; the curve counts
    # reach EMPTY both past the scroll dimension and through a ruling
    # degree too large for k, and the half case reaches EMPTY too
    empty = Counter()
    for n in range(2, 14):
        for d in range(1, n):
            half_case = n % 2 == 0 and d == n // 2
            for row in stratification_table(n, d, n):
                st = ScrollType(row["a"])
                assert row["dim_all"] == dim_all_scrolls(n, d)
                assert row["dim_stratum"] == dim_stratum(st)
                assert row["aut_dim"] == aut_dimension(st)
                assert row["balanced"] == st.is_balanced
                assert [cell["k"] for cell in row["per_k"]] == list(range(1, n + 1))
                for cell in row["per_k"]:
                    k = cell["k"]
                    assert (row["dim_stratum"], cell["dim_curves"],
                            cell["dim_scrolls_with_curve"]) == _written_out(row["a"], k)
                    curves = dim_curves_in_scroll(st, k)
                    assert cell["dim_curves"] == curves
                    if curves is EMPTY:
                        empty["past d" if k > d else "ruling degree"] += 1
                    if half_case:
                        with_curve = dim_scrolls_with_curve(st, k)
                        assert cell["dim_scrolls_with_curve"] == with_curve
                        empty["with curve"] += with_curve is EMPTY
                    else:
                        assert cell["dim_scrolls_with_curve"] is None
    assert min(empty[kind] for kind in ("past d", "ruling degree", "with curve")) > 0
