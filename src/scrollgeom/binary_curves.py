"""Binary curves: unions of two rational normal curves through a frame.

Both components are StandardRNC models over the same field, glued along
the n+2 frame points; node j sits at parameter (value_j : 1) on each
component and the unit point at (1 : 0).  The arithmetic genus is n+1.
The module builds gonality pencils from the node data, decides the
hyperelliptic degree-1 case, computes the quadrics through the curve,
and runs the scroll-containment experiments.

The node solver works on node tuples (r0, r1, s0, s1) of working values,
node R = (r0 : r1) on the first line and S = (s0 : s1) on the second: a
BinaryCurve builds them from its components' stored values, and the
public functions that take raw node pairs check and unwrap them once.
"""

from __future__ import annotations

from collections import Counter, namedtuple

from .errors import (
    DegenerateFrameError,
    InternalCheckError,
    NoCoprimeWitnessError,
)
from .fields import distinct_values, scalar_to_str
from .forms import (BinaryForm, _cleared, _coefficient_rows, _div, _horner, _split_forms,
                    _value, divide_exact, form_gcd, gcd_many, random_form)
from .linalg import rank_kernel, rank_kernel_of_combinations, rank_of
from .rnc import Frame, Quadric, StandardRNC, _drop_linear, _node_singles, random_standard_rnc
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
        if Counter(comp1.values) == Counter(comp2.values):
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
    def nodes(self):
        """Per node j, the working-value tuple (r0, r1, s0, s1) of its parameters.

        (r0 : r1) is the node on comp1 and (s0 : s1) on comp2: (v, 1, w, 1)
        for the finite node values v and w, then (1, 0, 1, 0).
        """
        # a list: tuple() of an iterator grows its result by reallocation,
        # which bypasses the interpreter's tuple free list while each freed
        # result still joins it; as a tuple, `elim-fp` read ~0.7 MB more RSS
        ones = (1,) * (self.n + 1)
        return [*zip(self.comp1.values, ones, self.comp2.values, ones), (1, 0, 1, 0)]

    @property
    def node_pairs(self):
        """Per node j, the parameter of the node on each component, as field elements."""
        wrap = self.field.wrap
        return tuple([(tuple(wrap(node[:2])), tuple(wrap(node[2:]))) for node in self.nodes])

    def to_dict(self):
        return {
            "n": self.n,
            "comp1": {"params": [scalar_to_str(p) for p in self.comp1.values[2:]]},
            "comp2": {"params": [scalar_to_str(p) for p in self.comp2.values[2:]]},
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
        if Counter(comp1.values) != Counter(comp2.values):
            return BinaryCurve(n, comp1, comp2)


# ---------------------------------------------------------------------------
# gonality


GonalityWitness = namedtuple("GonalityWitness", "q1 q2 total_degree")


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


def _pair_satisfies_nodes(q1, q2, nodes, field):
    """True when (q1 : q2) is defined at every R_j and carries it to S_j.

    nodes are working-value tuples (r0, r1, s0, s1).  Neither test changes
    when (q1, q2) or the node parameters are scaled by a nonzero constant,
    so both are cleared of denominators first and the evaluations and
    cross-products run on ints: int residues over F_p, with one reduction
    per value.
    """
    forms, _ = _cleared(q1.values + q2.values)
    c1, c2 = forms[:len(q1.values)], forms[len(q1.values):]
    flat, _ = _cleared([x for node in nodes for x in node])
    for j in range(0, len(flat), 4):
        r0, r1, s0, s1 = flat[j:j + 4]
        v1, v2 = field.reduce([_horner(c1, r0, r1), _horner(c2, r0, r1)])
        if not (v1 or v2):
            return False
        if field.reduce([v1 * s1 - v2 * s0])[0]:
            return False
    return True


def _node_map(nodes, degree: int, field):
    """Coprime (q1, q2) of the given degree with (q1:q2)(R_j) = S_j.

    nodes are working-value tuples (r0, r1, s0, s1).  Solves the node
    system q1(R_j)*S_{j,1} - q2(R_j)*S_{j,0} = 0 for the kernel, then scans
    the basis and small pair combinations for a coprime element.  A pair
    that vanishes together at (0 : 1) or at (1 : 0) shares the factor s0
    or s1, so it is passed over before any gcd; the frame's node at
    parameter 0 makes the first basis vector such a pair.  Returns
    ((q1, q2) or None, kernel).  A coprime element carries every node,
    since a node it missed would be a common zero of q1 and q2; the check
    stays anyway.
    """
    conditions = [(r0, r1, (s1, -s0)) for r0, r1, s0, s1 in nodes]
    combos = _coefficient_rows(conditions, (degree, degree), field)
    _, kernel = rank_kernel_of_combinations(combos, 2 * (degree + 1), field)
    for vec in _candidate_vectors(kernel):
        q1, q2 = _split_forms(vec, (degree, degree), field)
        # a common zero at (0 : 1) or (1 : 0); a zero pair has both
        if not (q1.values[-1] or q2.values[-1]) or not (q1.values[0] or q2.values[0]):
            continue
        if form_gcd(q1, q2).degree == 0:
            if not _pair_satisfies_nodes(q1, q2, nodes, field):
                raise InternalCheckError("coprime kernel element failed a node")
            return (q1, q2), kernel
    return None, kernel


def _checked_nodes(pairs, field):
    """Raw node pairs ((r0, r1), (s0, s1)) as working-value node tuples.

    The entries are unwrapped once; a parameter (0, 0) is no point of
    P^1 and raises ValueError.
    """
    flat = iter(field.unwrap([x for (r, s) in pairs for x in (r[0], r[1], s[0], s[1])]))
    nodes = list(zip(flat, flat, flat, flat))
    if any(not (r0 or r1) or not (s0 or s1) for r0, r1, s0, s1 in nodes):
        raise ValueError("node parameter (0, 0) is not a point of P^1")
    return nodes


def gonality_map_from_nodes(pairs, n: int, field):
    """Gonality pencil from raw node-parameter pairs.

    Solves for (q1, q2) of degree floor(n/2)+1 with (q1:q2) carrying each
    node parameter on the first line to the matching parameter on the
    second.  Returns (witness, kernel dimension).  When no kernel element
    of full degree is coprime, candidates are reduced by their gcd and
    re-verified, which recovers the identity for coincident node data.
    A (0, 0) parameter raises ValueError.
    """
    return _gonality(_checked_nodes(pairs, field), n, field)


def _gonality(nodes, n: int, field):
    """gonality_map_from_nodes on working-value node tuples."""
    degree = n // 2 + 1
    pair, kernel = _node_map(nodes, degree, field)
    if not kernel:
        raise NoCoprimeWitnessError("empty kernel")
    if pair is not None:
        return GonalityWitness(*pair, degree + 1), len(kernel)

    # every full-degree element shares a factor; divide it out and check
    # the reduced pair against the nodes directly
    for vec in _candidate_vectors(kernel):
        q1, q2 = _split_forms(vec, (degree, degree), field)
        if q1.is_zero() or q2.is_zero():
            continue
        g = form_gcd(q1, q2)
        if g.degree == 0:
            continue
        r1 = divide_exact(q1, g)
        r2 = divide_exact(q2, g)
        if _pair_satisfies_nodes(r1, r2, nodes, field):
            return GonalityWitness(r1, r2, r1.degree + 1), len(kernel)
    raise NoCoprimeWitnessError("no coprime gonality witness in the scanned kernel combinations")


def gonality_map(curve: BinaryCurve):
    """Gonality witness and kernel dimension for a binary curve."""
    witness, kernel_dim = _gonality(curve.nodes, curve.n, curve.field)
    if witness.total_degree > gonality_bound(curve.arithmetic_genus):
        raise InternalCheckError("witness degree exceeds the gonality bound")
    return witness, kernel_dim


def hyperelliptic_from_nodes(pairs, field) -> bool:
    """Degree-1 node system: is there a Mobius map carrying all pairs?

    A (0, 0) parameter raises ValueError.
    """
    return _node_map(_checked_nodes(pairs, field), 1, field)[0] is not None


def hyperelliptic_test(curve: BinaryCurve) -> bool:
    """Degree-1 node system of the curve; always False, and solved anyway.

    Nodes 0, 1 and infinity sit at the same parameters on both components,
    so a Mobius map carrying the nodes is the identity and needs comp2 =
    comp1, which BinaryCurve rejects.  Random runs check the solver.
    """
    return _node_map(curve.nodes, 1, curve.field)[0] is not None


def random_mobius_node_pairs(n: int, field, seed):
    """Node data of two components related by a random Mobius map.

    Draws n+2 distinct parameters R_j and an invertible 2x2 matrix, and
    sets S_j to the image of R_j; hyperelliptic_from_nodes accepts these
    by construction.  The pairs hold working values (residues over F_p).
    """
    rng = as_stream(seed)
    values = distinct_values(field, rng, n + 2)
    while True:
        a, b, c, d = (field.random_value(rng) for _ in range(4))
        if field.reduce([a * d - b * c])[0]:
            break
    return tuple(((v, 1), tuple(field.reduce([a * v + b, c * v + d]))) for v in values)


# ---------------------------------------------------------------------------
# quadrics through the curve


def _quadric_rows(curve: BinaryCurve):
    """(monomial pairs (i, j), i <= j, and 3n rows of the conditions on them).

    Unknowns are the monomial coefficients c_ij.  A quadric contains a
    component when its composite, the degree-2n form sum c_ij phi_i phi_j,
    vanishes.  With P = prod_k l_k the monic product of the n+1 finite node
    linears, a degree-2n form F is P*G + R with deg G = n-1 and R fixed by
    F's values at those nodes; F's value at (1 : 0) is G's leading
    coefficient.  So F -> (node values, lower n-1 coefficients of G) is an
    isomorphism over every field, and F = 0 exactly when all of them vanish.

    Both components pass through the frame, so the n+2 node rows serve
    both: phi_i phi_j at node k is a nonzero multiple of [i = j = k] (the
    unit row of x_k^2) and at (1 : 0) it is 1 (the all-ones row).  Each
    component adds the n-1 lower coefficients of G = P / (l_i*l_j) for
    i != j, as phi_i = P / l_i: one Horner pass on a single of
    rnc._node_singles.  Column (k, k) gets 0 in these rows, since the unit
    row of x_k^2 clears it whatever G of phi_k^2 puts there.  So the 3n
    rows span the row space of the 2(2n+1) coefficients of the two
    composites, and give the same rank and kernel basis.
    """
    n = curve.n
    field = curve.field
    pair_index = [(i, j) for i in range(n + 1) for j in range(i, n + 1)]
    rows = [[int(pair == (k, k)) for pair in pair_index] for k in range(n + 1)]
    rows.append([1] * len(pair_index))
    zeros = [0] * (n - 1)
    for comp in (curve.comp1, curve.comp2):
        values = comp.values
        singles = _node_singles(values, field)
        cols = [_drop_linear(singles[i], values[j], field)[1:] if i != j else zeros
                for (i, j) in pair_index]
        rows += zip(*cols)
    return pair_index, rows


def quadrics_through(curve: BinaryCurve):
    """Basis of the quadrics vanishing on both parametrized components."""
    pair_index, rows = _quadric_rows(curve)
    _, kernel = rank_kernel(rows, len(pair_index), curve.field)
    out = []
    for vec in kernel:
        coeffs = {pair_index[idx]: v for idx, v in enumerate(vec) if v}
        out.append(Quadric.from_monomials(curve.n, coeffs, curve.field))
    return out


def quadric_space_dimension(curve: BinaryCurve) -> int:
    """Dimension of the space of quadrics through the curve, from one rank."""
    pair_index, rows = _quadric_rows(curve)
    return len(pair_index) - rank_of(rows, len(pair_index), curve.field)


# ---------------------------------------------------------------------------
# scroll containment experiments


# verdict is NONE_FOUND or WITNESS
ContainmentVerdict = namedtuple(
    "ContainmentVerdict", "verdict method trials records anomalies description"
)


def _random_plane(n, field, rng):
    """(n+1) x 3 matrix of rank 3 whose column span is a plane.

    Its rows hold working values drawn by field.random_value.
    """
    while True:
        mat = [[field.random_value(rng) for _ in range(3)] for _ in range(n + 1)]
        if rank_of(mat, 3, field) == 3:
            return mat


def _integral_gram(gram):
    """A nonzero multiple of a Gram matrix of working values with int entries.

    Every test of a plane trial is blind to a nonzero scalar factor on a
    conic, so the trials may run on the cleared matrix; the int residues
    of a prime-field Gram matrix are kept as they are.
    """
    size = len(gram)
    ints, _ = _cleared([x for row in gram for x in row])
    return [ints[i:i + size] for i in range(0, size * size, size)]


def _restrict_to_plane(gram, plane, field):
    """3x3 Gram of the quadric pulled back to plane coordinates.

    gram and plane hold working values; each entry of the result is
    reduced once.
    """
    npts = len(plane)
    gp = [
        [sum(gram[r][c] * plane[c][j] for c in range(npts)) for j in range(3)]
        for r in range(npts)
    ]
    return [
        field.reduce([sum(plane[r][i] * gp[r][j] for r in range(npts)) for j in range(3)])
        for i in range(3)
    ]


def _conic_parts(gram, field):
    """Split uT*H*u as A(x0,x1) + B(x0,x1)*x2 + C*x2^2."""
    a = BinaryForm(2, (gram[0][0], gram[0][1] + gram[1][0], gram[1][1]), field)
    b = BinaryForm(1, (gram[0][2] + gram[2][0], gram[1][2] + gram[2][1]), field)
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


def _plane_trial(grams, n, field, rng):
    """One plane-section trial: can the restricted conics share a zero?

    grams are the Gram matrices of the quadric net in working values, each
    up to a nonzero scalar.  Returns (hit, note).  A miss is certified
    exactly: with all leading x2^2 coefficients nonzero, a common conic
    zero forces every pairwise resultant to vanish somewhere, so a
    constant gcd rules it out.
    """
    plane = _random_plane(n, field, rng)
    grams = [_restrict_to_plane(g, plane, field) for g in grams]
    nonzero = [g for g in grams if any(any(row) for row in g)]
    if len(nonzero) < len(grams):
        return True, "plane lies inside a quadric of the net"
    if len(nonzero) <= 2:
        return True, "fewer than three conics; plane sections always meet"
    for _ in range(24):
        if all(g[2][2] for g in nonzero):
            break
        change = [[field.random_value(rng) for _ in range(3)] for _ in range(3)]
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
    grams = [_integral_gram(q.values) for q in quadrics]
    records = []
    hits = 0
    for t in range(trials):
        rng = stream.child(f"trial{t}")
        hit, note = _plane_trial(grams, curve.n, field, rng)
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
    return [scalar_to_str(c) for c in form.values]


def _sampled_stratum(nodes, h, k, field, rng, samples):
    """Evidence for strata with both map degrees >= 2.

    The compatibility system is bilinear, so one side is sampled: random
    coprime psi of degree h on the first component, then the chi side is
    a linear system.  A trivial kernel for every sample is reported as
    evidence of unsolvability, not proof.
    """
    unsat = 0
    for _ in range(samples):
        while True:
            p1 = random_form(h, field, rng)
            p2 = random_form(h, field, rng)
            if not (p1.is_zero() and p2.is_zero()) and form_gcd(p1, p2).degree == 0:
                break
        # chi(S_j) must match psi(R_j): cross-multiplied, linear in chi
        targets = [
            (s0, s1, *field.reduce([_value(p1.values, r0, r1), _value(p2.values, r0, r1)]))
            for r0, r1, s0, s1 in nodes
        ]
        chi, kernel = _node_map(targets, k, field)
        if not kernel:
            unsat += 1
        elif chi is not None:
            return unsat, {
                "psi": [_form_coeffs(p1), _form_coeffs(p2)],
                "chi": [_form_coeffs(f) for f in chi],
            }
    return unsat, None


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


def containment_strata(n: int, h_only=None, k_only=None):
    """The strata (h, k) the containment search visits for a curve in P^n.

    h and k are the degrees of the maps the two components take to P^1;
    the stratified sweep takes both in 1..floor(n/2), h outer, and h_only
    or k_only keeps the strata of that degree.  At n=4 the search slices
    planes and visits no strata.  A filter outside 1..floor(n/2), or any
    filter at n=4, raises ValueError.
    """
    bound = n // 2
    if any(f is not None and not 1 <= f <= bound for f in (h_only, k_only)):
        raise ValueError(
            f"stratum filters must lie in 1..{bound} = floor(n/2), got h={h_only}, k={k_only}"
        )
    if n == 4:
        if h_only is not None or k_only is not None:
            raise ValueError("stratum filters only apply to the stratified method (n != 4)")
        return []
    return [(h, k) for h in range(1, bound + 1) for k in range(1, bound + 1)
            if h_only in (None, h) and k_only in (None, k)]


def _stratified_search(curve, strata, trials, stream, anomalies):
    """Heuristic stratum-by-stratum search for a containing scroll.

    A scroll through the curve restricts to maps of degrees (h, k) on the
    two components, compatible at the nodes.  Strata with a degree-1 side
    reduce exactly to a linear node system; strata with both degrees >= 2
    get sampled evidence; high strata get the family-dimension audit.
    """
    n = curve.n
    field = curve.field
    nodes = curve.nodes
    flipped = [(s0, s1, r0, r1) for r0, r1, s0, s1 in nodes]
    records = []
    witness_record = None
    for h, k in strata:
        record = {"h": h, "k": k}
        if min(h, k) == 1:
            # gauge the degree-1 side to the identity: the other side
            # is a degree-max(h, k) map carrying the nodes across
            pair, kernel = _node_map(flipped if h < k else nodes, max(h, k), field)
            record.update(
                method="exact-linear", solvable=pair is not None, kernel_dim=len(kernel)
            )
            if pair is not None:
                q1, q2 = pair
                record["witness"] = {"q1": _form_coeffs(q1), "q2": _form_coeffs(q2)}
                witness_record = witness_record or record
        else:
            rng = stream.child(f"stratum{h}-{k}")
            samples = min(trials, 8)
            unsat, forms = _sampled_stratum(nodes, h, k, field, rng, samples)
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
    h_only and k_only arguments restrict the stratified sweep as
    containment_strata says, which raises ValueError for a bad filter.
    """
    if trials < 1:
        raise ValueError("INVALID_TRIALS: need at least one trial")
    n = curve.n
    strata = containment_strata(n, h_only, k_only)
    stream = as_stream(seed)
    if n == 4:
        quadrics = quadrics_through(curve)
        actual = len(quadrics)
    else:  # the sweep reads no quadric, only the dimension of their space
        actual = quadric_space_dimension(curve)
    expected = (n - 1) * (n - 2) // 2
    anomalies = []
    if actual != expected:
        anomalies.append(
            {
                "code": "QUADRIC_SPACE_UNEXPECTED_DIM",
                "expected": expected,
                "actual": actual,
            }
        )
    if n == 4:
        return _slicing_search(curve, quadrics, trials, stream, anomalies)
    return _stratified_search(curve, strata, trials, stream, anomalies)


# ---------------------------------------------------------------------------
# positive control: a binary curve genuinely on a surface scroll


def scroll_positive_control(seed, field) -> BinaryCurve:
    """Binary curve lying on a cubic surface scroll in P^4.

    Two unisecant curves on the cone over the twisted cubic meet in five
    scroll points and both pass through the vertex, giving six nodes.
    The node parameters are read off and normalized per component, so the
    returned model is projectively equivalent to the construction and the
    containment experiment must report a witness.
    """
    from .fields import random_distinct

    scroll = ScrollType((0, 3))
    stream = as_stream(seed)
    one = field.one
    s0 = BinaryForm(1, (1, 0), field)
    s1 = BinaryForm(1, (0, 1), field)
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
        # CurveInScroll made curve_a's fiber forms coprime, so no fiber
        # point below is (0, 0); and random_distinct(5) needs p >= 20, so
        # the +-1..+-3 combinations of two kernel basis vectors are nonzero
        taus = random_distinct(field, rng, 5)
        fibers = [tuple(y.evaluate(t, one) for y in curve_a.ys) for t in taus]
        # second unisecant (y1, y2) through the same five scroll points:
        # y1(t) * u2 - y2(t) * u1 = 0 at each fiber point (u1, u2); the
        # 5 rows on 7 unknowns leave a kernel of dimension >= 2
        conditions = [(t, 1, (u2, -u1))
                      for t, (u1, u2) in zip(field.unwrap(taus), map(field.unwrap, fibers))]
        combos = _coefficient_rows(conditions, (4, 1), field)
        _, kernel = rank_kernel_of_combinations(combos, 7, field)
        vec_a = tuple(curve_a.ys[0].coeffs) + tuple(curve_a.ys[1].coeffs)
        curve_b = None
        for cand in _candidate_vectors(kernel):
            if _proportional(cand, vec_a):
                continue
            try:  # coprime fiber forms: no fiber point of curve_b is (0, 0)
                curve_b = CurveInScroll(scroll, 1, s0, s1, _split_forms(cand, (4, 1), field))
            except ValueError:
                continue
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
        params_a = _normalize_node_values(values_a)
        params_b = _normalize_node_values(values_b)
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
    return _div(-c1, c0)


def _normalize_node_values(values):
    """Mobius-normalize distinct node parameters to (0, 1, *, ..., *, infinity).

    values[0] goes to 0, values[1] to 1 and values[-1] to infinity; the
    values between become the StandardRNC parameters, again distinct and
    neither 0 nor 1, since a Mobius map is injective.
    """
    v0, v1, vinf = values[0], values[1], values[-1]
    denom_ref = v1 - vinf
    return tuple(_div((x - v0) * denom_ref, (x - vinf) * (v1 - v0)) for x in values[2:-1])


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
    params1 = _projected_params(curve.comp1.node_values, j)
    params2 = _projected_params(curve.comp2.node_values, j)
    comp1 = StandardRNC(n - 1, params1, curve.field)
    comp2 = StandardRNC(n - 1, params2, curve.field)
    return BinaryCurve(n - 1, comp1, comp2)


def _projected_params(values, j: int):
    n = len(values) - 1
    if j <= n:
        rem = [v for i, v in enumerate(values) if i != j]
        w0, w1 = rem[0], rem[1]
        span = w1 - w0
        return tuple(_div(x - w0, span) for x in rem[2:])
    # dropping the infinity node: old node n becomes the new infinity
    return _normalize_node_values(values)
