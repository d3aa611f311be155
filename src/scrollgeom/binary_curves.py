"""Binary curves: unions of two rational normal curves through a frame.

Both components are StandardRNC models over the same field, glued along
the n+2 frame points; node j sits at parameter (value_j : 1) on each
component and the unit point at (1 : 0).  The arithmetic genus is n+1.
The module builds gonality pencils from the node data, decides the
hyperelliptic degree-1 case, computes the quadrics through the curve,
and runs the scroll-containment experiments.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass

from .errors import (
    DegenerateFrameError,
    InternalCheckError,
    NoCoprimeWitnessError,
)
from .fields import QQ, scalar_to_str
from .forms import BinaryForm, divide_exact, form_gcd, gcd_many, random_form
from .linalg import rank_kernel, rank_of
from .rnc import Frame, Quadric, StandardRNC, random_standard_rnc
from .rngstream import as_stream
from .scroll_curves import CurveInScroll, push_forward
from .scrolls import (
    EMPTY,
    ScrollType,
    dim_binary_family,
    dim_scrolls_through_frame,
    dim_scrolls_with_curve,
    gonality_bound,
    intersection_bound,
    partitions_into,
)


class BinaryCurve:
    """Union of two distinct rational normal curves through the frame."""

    __slots__ = ("n", "comp1", "comp2", "field")

    def __init__(self, n: int, comp1: StandardRNC, comp2: StandardRNC):
        if n < 3:
            raise ValueError(f"binary curves need ambient dimension >= 3, got {n}")
        if comp1.n != n or comp2.n != n:
            raise ValueError("both components must live in the same P^n")
        if comp1.field != comp2.field:
            raise ValueError("components over different fields")
        if Counter(comp1.params) == Counter(comp2.params):
            raise ValueError("components coincide (equal parameter multisets)")
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "comp1", comp1)
        object.__setattr__(self, "comp2", comp2)
        object.__setattr__(self, "field", comp1.field)

    def __setattr__(self, name, value):
        raise AttributeError("BinaryCurve is immutable")

    @property
    def arithmetic_genus(self) -> int:
        return self.n + 1

    @property
    def node_pairs(self):
        """Per node j, the parameter of the node on each component."""
        one, zero = self.field.one, self.field.zero
        pairs = []
        for v, w in zip(self.comp1.node_values, self.comp2.node_values):
            pairs.append(((v, one), (w, one)))
        pairs.append(((one, zero), (one, zero)))
        return tuple(pairs)

    def to_dict(self):
        return {
            "n": self.n,
            "comp1": {"params": [scalar_to_str(p) for p in self.comp1.params]},
            "comp2": {"params": [scalar_to_str(p) for p in self.comp2.params]},
            "field": self.field.name,
        }

    def __repr__(self):
        return f"BinaryCurve(n={self.n})"


def random_binary_curve(n: int, field, seed) -> BinaryCurve:
    """Two independent random components; deterministic per seed."""
    if n < 3:
        raise ValueError(f"need n >= 3, got {n}")
    rng = as_stream(seed)
    comp1 = random_standard_rnc(n, field, rng.child("comp1"))
    comp2_rng = rng.child("comp2")
    while True:
        comp2 = random_standard_rnc(n, field, comp2_rng)
        if Counter(comp1.params) != Counter(comp2.params):
            return BinaryCurve(n, comp1, comp2)


# ---------------------------------------------------------------------------
# gonality


@dataclass(frozen=True)
class GonalityWitness:
    q1: BinaryForm
    q2: BinaryForm
    total_degree: int


def _node_system_rows(pairs, degree: int, field):
    """Rows of q1(R_j)*S_{j,1} - q2(R_j)*S_{j,0} = 0 over all node pairs."""
    rows = []
    for (r, s) in pairs:
        r0, r1 = r
        s0, s1 = s
        mono = [_pw(r0, degree - i) * _pw(r1, i) for i in range(degree + 1)]
        row = [field(m * s1) for m in mono] + [field(-(m * s0)) for m in mono]
        rows.append(row)
    return rows


def _pw(x, e: int):
    if e == 0:
        return 1
    acc = x
    for _ in range(e - 1):
        acc = acc * x
    return acc


def _vector_to_pair(vec, degree: int):
    half = degree + 1
    q1 = BinaryForm(degree, vec[:half])
    q2 = BinaryForm(degree, vec[half:])
    return q1, q2


def _candidate_vectors(kernel):
    """Kernel basis first, then small integer pair combinations."""
    for vec in kernel:
        yield vec
    for i in range(len(kernel)):
        for j in range(i + 1, len(kernel)):
            for c1 in range(-3, 4):
                for c2 in range(-3, 4):
                    if c1 == 0 or c2 == 0:
                        continue
                    yield tuple(
                        a * c1 + b * c2 for a, b in zip(kernel[i], kernel[j])
                    )


def _pair_satisfies_nodes(q1, q2, pairs):
    for (r, s) in pairs:
        v1 = q1.evaluate(r[0], r[1])
        v2 = q2.evaluate(r[0], r[1])
        if not (v1 or v2):
            return False
        if v1 * s[1] - v2 * s[0]:
            return False
    return True


def gonality_map_from_nodes(pairs, n: int, field):
    """Gonality pencil from raw node-parameter pairs.

    Solves for (q1, q2) of degree floor(n/2)+1 with (q1:q2) carrying each
    node parameter on the first line to the matching parameter on the
    second.  Returns (witness, kernel dimension).  When no kernel element
    of full degree is coprime, candidates are reduced by their gcd and
    re-verified, which recovers the identity for coincident node data.
    """
    pairs = [((r[0], r[1]), (s[0], s[1])) for (r, s) in pairs]
    degree = n // 2 + 1
    rows = _node_system_rows(pairs, degree, field)
    rank, kernel = rank_kernel(rows, 2 * (degree + 1), field)
    kernel_dim = len(kernel)
    if kernel_dim == 0:
        raise NoCoprimeWitnessError("empty kernel", kernel_basis=[])

    for vec in _candidate_vectors(kernel):
        q1, q2 = _vector_to_pair(vec, degree)
        if q1.is_zero() and q2.is_zero():
            continue
        if form_gcd(q1, q2).degree == 0:
            if not _pair_satisfies_nodes(q1, q2, pairs):
                raise InternalCheckError("coprime kernel element failed a node")
            return GonalityWitness(q1, q2, degree + 1), kernel_dim

    # every full-degree element shares a factor; divide it out and check
    # the reduced pair against the nodes directly
    for vec in _candidate_vectors(kernel):
        q1, q2 = _vector_to_pair(vec, degree)
        if q1.is_zero() or q2.is_zero():
            continue
        g = form_gcd(q1, q2)
        if g.degree == 0:
            continue
        r1 = divide_exact(q1, g)
        r2 = divide_exact(q2, g)
        if _pair_satisfies_nodes(r1, r2, pairs):
            return GonalityWitness(r1, r2, r1.degree + 1), kernel_dim
    raise NoCoprimeWitnessError(
        "no coprime gonality witness in the scanned kernel combinations",
        kernel_basis=kernel,
    )


def gonality_map(curve: BinaryCurve):
    """Gonality witness and kernel dimension for a binary curve."""
    witness, kernel_dim = gonality_map_from_nodes(
        curve.node_pairs, curve.n, curve.field
    )
    if witness.total_degree > gonality_bound(curve.arithmetic_genus):
        raise InternalCheckError("witness degree exceeds the gonality bound")
    return witness, kernel_dim


def hyperelliptic_from_nodes(pairs, field) -> bool:
    """Degree-1 node system: is there a Mobius map carrying all pairs?"""
    pairs = [((r[0], r[1]), (s[0], s[1])) for (r, s) in pairs]
    rows = _node_system_rows(pairs, 1, field)
    _, kernel = rank_kernel(rows, 4, field)
    if not kernel:
        return False
    for vec in _candidate_vectors(kernel):
        q1, q2 = _vector_to_pair(vec, 1)
        if q1.is_zero() and q2.is_zero():
            continue
        if form_gcd(q1, q2).degree == 0 and _pair_satisfies_nodes(q1, q2, pairs):
            return True
    return False


def hyperelliptic_test(curve: BinaryCurve) -> bool:
    return hyperelliptic_from_nodes(curve.node_pairs, curve.field)


def random_mobius_node_pairs(n: int, field, seed):
    """Node data of two components related by a random Mobius map.

    Draws n+2 distinct parameters R_j and an invertible 2x2 matrix, and
    sets S_j to the image of R_j; hyperelliptic_from_nodes accepts these
    by construction.
    """
    from .fields import random_distinct

    rng = as_stream(seed)
    values = random_distinct(field, rng, n + 2)
    while True:
        a, b, c, d = (field.random_scalar(rng) for _ in range(4))
        if a * d - b * c:
            break
    pairs = []
    for v in values:
        pairs.append(((v, field.one), (a * v + b, c * v + d)))
    return tuple(pairs)


# ---------------------------------------------------------------------------
# quadrics through the curve


def quadrics_through(curve: BinaryCurve):
    """Basis of the quadrics vanishing on both parametrized components.

    Unknowns are the monomial coefficients c_{ij} (i <= j); the equations
    say the composite degree-2n forms on each component vanish.  Node
    conditions are implied, so no separate point equations appear.
    """
    n = curve.n
    field = curve.field
    phi1 = curve.comp1.coordinate_forms()
    phi2 = curve.comp2.coordinate_forms()
    pair_index = [(i, j) for i in range(n + 1) for j in range(i, n + 1)]
    cols = []
    for (i, j) in pair_index:
        f1 = phi1[i] * phi1[j]
        f2 = phi2[i] * phi2[j]
        cols.append(list(f1.coeffs) + list(f2.coeffs))
    rows = [[col[r] for col in cols] for r in range(2 * (2 * n + 1))]
    _, kernel = rank_kernel(rows, len(pair_index), field)
    out = []
    for vec in kernel:
        coeffs = {pair_index[idx]: v for idx, v in enumerate(vec) if v}
        out.append(Quadric.from_monomials(n, coeffs, field))
    return out


# ---------------------------------------------------------------------------
# scroll containment experiments


@dataclass(frozen=True)
class ContainmentVerdict:
    verdict: str  # NONE_FOUND or WITNESS
    method: str
    trials: int
    records: list
    anomalies: list
    description: str

    def to_dict(self):
        return {
            "verdict": self.verdict,
            "method": self.method,
            "trials": self.trials,
            "records": self.records,
            "anomalies": self.anomalies,
            "description": self.description,
        }


def _random_plane(n, field, rng):
    """(n+1) x 3 matrix of rank 3 whose column span is a plane."""
    while True:
        mat = [[field.random_scalar(rng) for _ in range(3)] for _ in range(n + 1)]
        if rank_of(mat, 3, field) == 3:
            return mat


def _restrict_to_plane(gram, plane, field):
    """3x3 Gram of the quadric pulled back to plane coordinates."""
    npts = len(plane)
    gp = [
        [sum_scalars(gram[r][c] * plane[c][j] for c in range(npts)) for j in range(3)]
        for r in range(npts)
    ]
    return [
        [sum_scalars(plane[r][i] * gp[r][j] for r in range(npts)) for j in range(3)]
        for i in range(3)
    ]


def sum_scalars(terms):
    acc = None
    for t in terms:
        acc = t if acc is None else acc + t
    return acc


def _conic_parts(gram, field):
    """Split uT*H*u as A(x0,x1) + B(x0,x1)*x2 + C*x2^2."""
    a = BinaryForm(2, (gram[0][0], gram[0][1] + gram[1][0], gram[1][1]))
    b = BinaryForm(1, (gram[0][2] + gram[2][0], gram[1][2] + gram[2][1]))
    c = gram[2][2]
    return a, b, c


def _pair_resultant(p1, p2):
    """Resultant in x2 of two conics split into (A, B, C) parts."""
    a1, b1, c1 = p1
    a2, b2, c2 = p2
    lead = a2.scale(c1) - a1.scale(c2)
    mixed = b2.scale(c1) - b1.scale(c2)
    tail = b1 * a2 - b2 * a1
    return lead * lead - mixed * tail


def _plane_trial(quadrics, n, field, rng):
    """One plane-section trial: can the restricted conics share a zero?

    Returns (hit, note).  A miss is certified exactly: with all leading
    x2^2 coefficients nonzero, a common conic zero forces every pairwise
    resultant to vanish somewhere, so a constant gcd rules it out.
    """
    plane = _random_plane(n, field, rng)
    grams = [_restrict_to_plane(q.gram, plane, field) for q in quadrics]
    nonzero = [g for g in grams if any(any(row) for row in g)]
    if len(nonzero) < len(grams):
        return True, "plane lies inside a quadric of the net"
    if len(nonzero) <= 2:
        return True, "fewer than three conics; plane sections always meet"
    for _ in range(24):
        if all(g[2][2] for g in nonzero):
            break
        change = [[field.random_scalar(rng) for _ in range(3)] for _ in range(3)]
        if rank_of(change, 3, field) != 3:
            continue
        nonzero = [_restrict_to_plane(g, change, field) for g in nonzero]
    else:
        return True, "no leading-coefficient normalization found (inconclusive)"
    parts = [_conic_parts(g, field) for g in nonzero]
    resultants = []
    for i in range(len(parts)):
        for j in range(i + 1, len(parts)):
            res = _pair_resultant(parts[i], parts[j])
            if res.is_zero():
                return True, "a pair of restricted conics shares a component"
            resultants.append(res)
    if gcd_many(resultants).degree >= 1:
        return True, "pairwise resultants share a root"
    return False, "no common zero on this plane (certified by resultants)"


def _slicing_search(curve, quadrics, trials, stream, anomalies):
    field = curve.field
    records = []
    hits = 0
    for t in range(trials):
        rng = stream.child(f"trial{t}")
        hit, note = _plane_trial(quadrics, curve.n, field, rng)
        hits += 1 if hit else 0
        records.append({"trial": t, "hit": hit, "note": note})
    if 2 * hits > trials:
        verdict = "WITNESS"
        description = (
            f"{hits}/{trials} random planes meet the base locus of the quadric "
            "net; a surface scroll through the curve would be hit by every plane"
        )
    else:
        verdict = "NONE_FOUND"
        description = (
            f"{hits}/{trials} random planes meet the base locus; the net of "
            "quadrics cuts out no surface through the curve"
        )
    return ContainmentVerdict(
        verdict, "exact-slicing", trials, records, anomalies, description
    )


def _form_coeffs(form):
    return [scalar_to_str(c) for c in form.coeffs]


def _exact_stratum(pairs, degree, field, flip):
    """Linear stratum where one side is a Mobius map, normalized away.

    With the degree-1 side gauged to the identity, the other side must be
    a degree-`degree` map carrying node parameters across; that is the
    node system again, solvable exactly.
    """
    if flip:
        pairs = [(s, r) for (r, s) in pairs]
    rows = _node_system_rows(pairs, degree, field)
    rank, kernel = rank_kernel(rows, 2 * (degree + 1), field)
    for vec in _candidate_vectors(kernel):
        q1, q2 = _vector_to_pair(vec, degree)
        if q1.is_zero() and q2.is_zero():
            continue
        if form_gcd(q1, q2).degree == 0 and _pair_satisfies_nodes(q1, q2, pairs):
            return True, {"q1": _form_coeffs(q1), "q2": _form_coeffs(q2)}, len(kernel)
    return False, None, len(kernel)


def _sampled_stratum(pairs, h, k, field, rng, samples):
    """Evidence for strata with both map degrees >= 2.

    The compatibility system is bilinear, so one side is sampled: random
    coprime psi of degree h on the first component, then the chi side is
    a linear system.  A trivial kernel for every sample is reported as
    evidence of unsolvability, not proof.
    """
    unsat = 0
    witness = None
    for _ in range(samples):
        while True:
            p1 = random_form(h, field, rng)
            p2 = random_form(h, field, rng)
            if not (p1.is_zero() and p2.is_zero()) and form_gcd(p1, p2).degree == 0:
                break
        # chi(S_j) must match psi(R_j): cross-multiplied, linear in chi
        target_pairs = []
        for (r, s) in pairs:
            value = (p1.evaluate(r[0], r[1]), p2.evaluate(r[0], r[1]))
            target_pairs.append((s, value))
        rows = _node_system_rows(target_pairs, k, field)
        _, kernel = rank_kernel(rows, 2 * (k + 1), field)
        if not kernel:
            unsat += 1
            continue
        for vec in _candidate_vectors(kernel):
            q1, q2 = _vector_to_pair(vec, k)
            if q1.is_zero() and q2.is_zero():
                continue
            if form_gcd(q1, q2).degree == 0 and _pair_satisfies_nodes(
                q1, q2, target_pairs
            ):
                witness = {
                    "psi": [_form_coeffs(p1), _form_coeffs(p2)],
                    "chi": [_form_coeffs(q1), _form_coeffs(q2)],
                }
                break
        if witness:
            break
    return unsat, witness


def _dimension_audit(n, h, k):
    """Family-dimension comparison for strata beyond the linear range.

    For every scroll type of the maximal dimension d = n/2, scrolls
    carrying curves of both degrees through a frame form a family of
    dimension at most 2n-3, below the 2n-2 of binary curves.
    """
    if n % 2 != 0:
        return None
    d = n // 2
    rows = []
    for degs in partitions_into(n - d + 1, d):
        st = ScrollType(degs)
        dim_h = dim_scrolls_with_curve(st, h)
        dim_k = dim_scrolls_with_curve(st, k)
        if dim_h is EMPTY or dim_k is EMPTY:
            rows.append({"a": list(degs), "empty": True, "within_bound": True})
            continue
        total = dim_h + dim_k - dim_scrolls_through_frame(st)
        rows.append(
            {
                "a": list(degs),
                "empty": False,
                "dim_pairs_through_frame": total,
                "within_bound": total <= intersection_bound(n),
            }
        )
    return {
        "bound": intersection_bound(n),
        "binary_family_dim": dim_binary_family(n),
        "types": rows,
        "all_within_bound": all(r["within_bound"] for r in rows),
    }


def _stratified_search(curve, quadrics, trials, stream, anomalies, h_only=None, k_only=None):
    """Heuristic stratum-by-stratum search for a containing scroll.

    A scroll through the curve restricts to maps of degrees (h, k) on the
    two components, compatible at the nodes.  Strata with a degree-1 side
    reduce exactly to a linear node system; strata with both degrees >= 2
    get sampled evidence; high strata get the family-dimension audit.
    Passing h_only or k_only restricts the sweep to matching strata.
    """
    n = curve.n
    field = curve.field
    pairs = curve.node_pairs
    bound = n // 2
    records = []
    witness_record = None
    for h in range(1, bound + 1):
        if h_only is not None and h != h_only:
            continue
        for k in range(1, bound + 1):
            if k_only is not None and k != k_only:
                continue
            record = {"h": h, "k": k}
            if min(h, k) == 1:
                degree = max(h, k)
                flip = h == 1 and k > 1
                sat, forms, kdim = _exact_stratum(pairs, degree, field, flip)
                record.update(
                    {"method": "exact-linear", "solvable": sat, "kernel_dim": kdim}
                )
                if sat:
                    record["witness"] = forms
                    witness_record = witness_record or record
            else:
                rng = stream.child(f"stratum{h}-{k}")
                samples = min(trials, 8)
                unsat, forms = _sampled_stratum(pairs, h, k, field, rng, samples)
                record.update(
                    {
                        "method": "sampled-evidence",
                        "samples": samples,
                        "unsat_samples": unsat,
                        "solvable": forms is not None,
                        "count_allows_solutions": 2 * (h + k) >= n + 3,
                    }
                )
                if forms is not None:
                    record["witness"] = forms
                    witness_record = witness_record or record
                audit = _dimension_audit(n, h, k)
                if audit is not None:
                    record["dimension_audit"] = audit
            records.append(record)
    if witness_record is not None:
        verdict = "WITNESS"
        description = (
            f"stratum (h={witness_record['h']}, k={witness_record['k']}) admits "
            "compatible maps to a common line (heuristic stratified search)"
        )
    else:
        verdict = "NONE_FOUND"
        description = (
            "no stratum admits compatible node maps "
            "(heuristic stratified search, not a proof)"
        )
    return ContainmentVerdict(
        verdict, "stratified-heuristic", trials, records, anomalies, description
    )


def scroll_containment_witness(
    curve: BinaryCurve, trials: int, seed, h_only=None, k_only=None
) -> ContainmentVerdict:
    """Search for a low-dimensional minimal-degree scroll containing the curve.

    For n=4 the quadric net is probed by exact plane sections and
    resultants; for other n a stratified parametric search over induced
    map degrees runs, labeled heuristic in the verdict.  The optional
    h_only and k_only arguments restrict the stratified sweep and are
    rejected for the n=4 slicing method, which has no strata.
    """
    if trials < 1:
        raise ValueError("INVALID_TRIALS: need at least one trial")
    stream = as_stream(seed)
    quadrics = quadrics_through(curve)
    n = curve.n
    expected = (n - 1) * (n - 2) // 2
    anomalies = []
    if len(quadrics) != expected:
        anomalies.append(
            {
                "code": "QUADRIC_SPACE_UNEXPECTED_DIM",
                "expected": expected,
                "actual": len(quadrics),
            }
        )
    if n == 4:
        if h_only is not None or k_only is not None:
            raise ValueError("stratum filters only apply to the stratified method (n != 4)")
        return _slicing_search(curve, quadrics, trials, stream, anomalies)
    return _stratified_search(curve, quadrics, trials, stream, anomalies, h_only, k_only)


# ---------------------------------------------------------------------------
# positive control: a binary curve genuinely on a surface scroll


def scroll_positive_control(seed, field=None) -> BinaryCurve:
    """Binary curve lying on a cubic surface scroll in P^4.

    Two unisecant curves on the cone over the twisted cubic meet in five
    scroll points and both pass through the vertex, giving six nodes.
    The node parameters are read off and normalized per component, so the
    returned model is projectively equivalent to the construction and the
    containment experiment must report a witness.
    """
    if field is None:
        field = QQ
    from .fields import random_distinct

    scroll = ScrollType((0, 3))
    stream = as_stream(seed)
    one = field.one
    s0 = BinaryForm(1, (one, field.zero))
    s1 = BinaryForm(1, (field.zero, one))
    for attempt in range(64):
        rng = stream.child(f"attempt{attempt}")
        try:
            curve_a = CurveInScroll(
                scroll,
                1,
                s0,
                s1,
                (random_form(4, field, rng), random_form(1, field, rng, nonzero=True)),
            )
        except ValueError:
            continue
        taus = random_distinct(field, rng, 5)
        fibers = [tuple(y.evaluate(t, one) for y in curve_a.ys) for t in taus]
        if not all(f[0] or f[1] for f in fibers):
            continue
        # second unisecant through the same five scroll points
        rows = []
        for t, (u1, u2) in zip(taus, fibers):
            m1 = [_pw(t, 4 - r) for r in range(5)]
            m2 = [_pw(t, 1 - r) for r in range(2)]
            rows.append(
                [field(m * u2) for m in m1] + [field(-(m * u1)) for m in m2]
            )
        _, kernel = rank_kernel(rows, 7, field)
        if len(kernel) < 2:
            continue
        vec_a = tuple(curve_a.ys[0].coeffs) + tuple(curve_a.ys[1].coeffs)
        curve_b = None
        for cand in _candidate_vectors(kernel):
            if not any(cand):
                continue
            if _proportional(cand, vec_a):
                continue
            try:
                built = CurveInScroll(
                    scroll,
                    1,
                    s0,
                    s1,
                    (BinaryForm(4, cand[:5]), BinaryForm(1, cand[5:])),
                )
            except ValueError:
                continue
            if all(
                any(y.evaluate(t, one) for y in built.ys) for t in taus
            ):
                curve_b = built
                break
        if curve_b is None:
            continue
        # vertex parameters: the unique root of each degree-1 fiber form
        try:
            gamma_a = _linear_root(curve_a.ys[1])
            gamma_b = _linear_root(curve_b.ys[1])
        except ZeroDivisionError:
            continue
        values_a = [gamma_a] + list(taus)
        values_b = [gamma_b] + list(taus)
        if len(set(values_a)) < 6 or len(set(values_b)) < 6:
            continue
        # frame: vertex plus the five common points, must be in l.g.p.
        pushed = push_forward(curve_a)
        points = [tuple(f.evaluate(t, one) for f in pushed.forms) for t in taus]
        vertex = tuple(one if i == 0 else field.zero for i in range(5))
        try:
            Frame([vertex] + points, field)
        except DegenerateFrameError:
            continue
        params_a = _normalize_node_values(values_a, field)
        params_b = _normalize_node_values(values_b, field)
        if params_a is None or params_b is None:
            continue
        try:
            return BinaryCurve(
                4, StandardRNC(4, params_a, field), StandardRNC(4, params_b, field)
            )
        except ValueError:
            continue
    raise InternalCheckError("positive-control construction kept degenerating")


def _proportional(u, v):
    for a, b in zip(u, v):
        if a or b:
            return all(a * y == b * x for x, y in zip(u, v))
    return True


def _linear_root(form):
    # root of c0*s0 + c1*s1 as a finite value, requires c0 != 0
    c0, c1 = form.coeffs
    if not c0:
        raise ZeroDivisionError("root at infinity")
    return -c1 / c0


def _normalize_node_values(values, field):
    """Mobius-normalize six node parameters to (0, 1, *, *, *, infinity).

    values[0] goes to 0, values[1] to 1 and values[5] to infinity; the
    middle three become the StandardRNC parameters.
    """
    v0, v1, v5 = values[0], values[1], values[5]
    denom_ref = v1 - v5
    if not denom_ref:
        return None
    out = []
    for x in values[2:5]:
        den = (x - v5) * (v1 - v0)
        if not den:
            return None
        out.append((x - v0) * denom_ref / den)
    if len(set(out) | {field.zero, field.one}) < 5:
        return None
    return tuple(out)


# ---------------------------------------------------------------------------
# node projection


def project_from_node(curve: BinaryCurve, j: int) -> BinaryCurve:
    """Binary curve in P^(n-1) obtained by projecting from node j.

    Projection does not move component parameters, so the image model is
    the Mobius renormalization of the remaining node values; the genus
    drops by one.
    """
    n = curve.n
    if n < 4:
        raise ValueError("projection needs n >= 4 so the image stays a binary curve")
    if not 0 <= j <= n + 1:
        raise ValueError(f"node index {j} out of range")
    params1 = _projected_params(curve.comp1.node_values, j, curve.field)
    params2 = _projected_params(curve.comp2.node_values, j, curve.field)
    comp1 = StandardRNC(n - 1, params1, curve.field)
    comp2 = StandardRNC(n - 1, params2, curve.field)
    return BinaryCurve(n - 1, comp1, comp2)


def _projected_params(values, j: int, field):
    n = len(values) - 1
    if j <= n:
        rem = [v for i, v in enumerate(values) if i != j]
        w0, w1 = rem[0], rem[1]
        span = w1 - w0
        return tuple((x - w0) / span for x in rem[2:])
    # dropping the infinity node: old node n becomes the new infinity
    v0, v1, vn = values[0], values[1], values[n]
    ref = v1 - vn
    out = []
    for x in values[2:n]:
        out.append((x - v0) * ref / ((x - vn) * (v1 - v0)))
    return tuple(out)
