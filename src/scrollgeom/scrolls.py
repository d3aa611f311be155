"""Dimension bookkeeping for scroll families and their curve strata.

All counts here are closed-form integers.  A family that is empty for the
given data is reported as the EMPTY sentinel rather than a number, so a
caller can never mistake emptiness for dimension zero.
"""

from __future__ import annotations


class _EmptyFamily:
    """Singleton marker for an empty family (no members at all)."""

    _instance = None

    def __new__(cls):
        if cls._instance is None:
            cls._instance = super().__new__(cls)
        return cls._instance

    def __repr__(self):
        return "EMPTY"

    def __bool__(self):
        return False


EMPTY = _EmptyFamily()


class ScrollType:
    """Degree type of a rational normal scroll, stored sorted ascending.

    A type (a_1, ..., a_d) with nonnegative entries and positive sum
    describes a d-dimensional scroll spanning projective space of
    dimension n = sum(a) + d - 1.  Entries equal to zero are allowed and
    correspond to cone directions.
    """

    __slots__ = ("degrees",)

    def __init__(self, degrees):
        degrees = tuple(sorted(int(a) for a in degrees))
        if not degrees:
            raise ValueError("a scroll type needs at least one degree")
        if degrees[0] < 0:
            raise ValueError(f"negative degree in scroll type {degrees}")
        # sum = n - d + 1 and d <= n - 1 together force total degree >= 2
        if sum(degrees) < 2:
            raise ValueError(
                f"scroll type {degrees} has total degree {sum(degrees)} < 2"
            )
        object.__setattr__(self, "degrees", degrees)

    def __setattr__(self, name, value):
        raise AttributeError("ScrollType is immutable")

    @property
    def d(self) -> int:
        return len(self.degrees)

    @property
    def n(self) -> int:
        return sum(self.degrees) + len(self.degrees) - 1

    @property
    def is_balanced(self) -> bool:
        return self.degrees[-1] - self.degrees[0] <= 1

    def __eq__(self, other):
        if not isinstance(other, ScrollType):
            return NotImplemented
        return self.degrees == other.degrees

    def __hash__(self):
        return hash(self.degrees)

    def __repr__(self):
        return f"F({','.join(str(a) for a in self.degrees)})"


def aut_dimension(st: ScrollType) -> int:
    """Dimension of the automorphism-relevant endomorphism space.

    Always at least d*d, with equality exactly for balanced types; the
    excess measures how special an unbalanced type is inside its family.
    """
    a = st.degrees
    return sum(max(0, ai - aj + 1) for ai in a for aj in a)


def dim_all_scrolls(n: int, d: int) -> int:
    """Dimension of the family of all d-dimensional scrolls spanning P^n."""
    _check_ambient(n, d)
    return n * n + 2 * n - 2 - d * d


def dim_stratum(st: ScrollType) -> int:
    """Dimension of the locus of scrolls with the given degree type."""
    return _stratum_dim(dim_all_scrolls(st.n, st.d), st.d, aut_dimension(st))


def _stratum_dim(dim_all: int, d: int, aut: int) -> int:
    # a type's locus has codimension aut - d*d in the family of all scrolls
    return dim_all - (aut - d * d)


def dim_scrolls_through_frame(st: ScrollType) -> int:
    """Dimension of the scrolls of this type through n+2 general points."""
    return _through_frame_dim(st.n, st.d, dim_stratum(st))


def _through_frame_dim(n: int, d: int, stratum_dim: int) -> int:
    # each general point imposes the codimension n - d of a d-fold in P^n
    return stratum_dim - (n + 2) * (n - d)


def dim_curves_in_scroll(st: ScrollType, k: int):
    """Dimension of degree-n curves of fiber degree k in a fixed scroll.

    Returns EMPTY when the scroll carries no such curve: either the fiber
    degree exceeds the scroll dimension, or some ruling degree a_i is too
    large for a section coordinate of degree n - k*a_i to exist.
    """
    if k < 1:
        raise ValueError(f"fiber degree must be positive, got {k}")
    return _curves_dim(st.n, st.d, st.degrees[-1], k)


def _curves_dim(n: int, d: int, top: int, k: int):
    # top is the largest ruling degree, so n - k*a_i >= 0 for all i iff for top
    if k > d or n - k * top < 0:
        return EMPTY
    return (d - 1) * (n + 3 - k) + (k - 1) * (2 * d - n)


def dim_scrolls_with_curve(st: ScrollType, k: int):
    """Dimension of half-dimensional scrolls through a fixed generic curve.

    Only defined for even n and d = n/2 (the range where a degree-n curve
    of fiber degree k can single out scrolls of its own ambient span).
    Returns EMPTY when no scroll of this type contains such a curve.
    """
    n, d = st.n, st.d
    if n % 2 != 0 or d != n // 2:
        raise ValueError(
            f"scroll-through-curve counts need even n and d = n/2, got n={n}, d={d}"
        )
    if k < 1:
        raise ValueError(f"fiber degree must be positive, got {k}")
    return _with_curve_dim(n, st.degrees[-1], dim_stratum(st), k)


def _with_curve_dim(n: int, top: int, stratum_dim: int, k: int):
    # d = n/2; through a frame at k = 1, and each further fiber degree
    # costs h - 1 more conditions
    if n - k * top < 0:
        return EMPTY
    h = n // 2
    return _through_frame_dim(n, h, stratum_dim) - (k - 1) * (h - 1)


def intersection_bound(n: int) -> int:
    """Largest dimension two scroll-curve loci can share, 2n - 3."""
    if n < 3:
        raise ValueError(f"intersection bound needs n >= 3, got {n}")
    return 2 * n - 3


def dim_binary_family(n: int) -> int:
    """Dimension of the family of two-component nodal curves in P^n."""
    if n < 3:
        raise ValueError(f"binary curves need ambient dimension >= 3, got {n}")
    return 2 * n - 2


def gonality_bound(arithmetic_genus: int) -> int:
    """Generic-curve gonality ceiling: floor((p_a + 3) / 2)."""
    if arithmetic_genus < 2:
        raise ValueError(f"gonality bound needs genus >= 2, got {arithmetic_genus}")
    return (arithmetic_genus + 3) // 2


def partitions_into(total: int, parts: int):
    """Ascending tuples of `parts` nonnegative ints summing to `total`."""
    if parts == 1:
        yield (total,)
        return
    # first entry at most total // parts keeps the tuple ascending
    for first in range(total // parts + 1):
        for rest in _partitions_at_least(total - first, parts - 1, first):
            yield (first,) + rest


def _partitions_at_least(total: int, parts: int, floor: int):
    if parts == 1:
        if total >= floor:
            yield (total,)
        return
    for first in range(floor, total // parts + 1):
        for rest in _partitions_at_least(total - first, parts - 1, first):
            yield (first,) + rest


def stratification_table(n: int, d: int, k_max: int):
    """One row per degree type of d-scrolls in P^n, with curve counts for k <= k_max.

    Every row is a plain dict shaped for direct JSON serialization; EMPTY
    cells pass through as the sentinel and are rendered by the report
    layer.  The dim_scrolls_with_curve cell is None whenever that count
    is not defined for (n, d).
    """
    _check_ambient(n, d)
    half_case = n % 2 == 0 and d == n // 2
    dim_all = dim_all_scrolls(n, d)
    rows = []
    for part in partitions_into(n - d + 1, d):
        st = ScrollType(part)
        aut = aut_dimension(st)
        top = part[-1]
        stratum_dim = _stratum_dim(dim_all, d, aut)
        per_k = [
            {
                "k": k,
                "dim_curves": _curves_dim(n, d, top, k),
                "dim_scrolls_with_curve": _with_curve_dim(n, top, stratum_dim, k)
                if half_case
                else None,
            }
            for k in range(1, k_max + 1)
        ]
        rows.append(
            {
                "n": n,
                "d": d,
                "a": list(part),
                "dim_all": dim_all,
                "dim_stratum": stratum_dim,
                "aut_dim": aut,
                "balanced": st.is_balanced,
                "per_k": per_k,
            }
        )
    return rows


def _check_ambient(n: int, d: int):
    if d < 1:
        raise ValueError(f"scroll dimension must be positive, got {d}")
    if n < d + 1:
        raise ValueError(
            f"d-dimensional scrolls need ambient dimension at least d+1, got n={n}, d={d}"
        )
