"""Ground truth in the building itself.

Vertices are classes of invertible Laurent-polynomial matrices modulo
scalars and the maximal compact (entries of valuation >= 0, unit
determinant); dim 3 gives the two-dimensional building, dim 2 the
(q+1)-regular tree.  This module provides exact class tests, neighbor
enumeration, geodesic continuation, the Birkhoff invariant computed by
section dimensions, and a path oracle over every word that the quotient
dynamic programming must reproduce.

The oracle walks type-1 edges, the states of the geodesic flow: an
edge is a pair (M K, M a K) with a = diag(t, 1, ..., 1), and its
admissible continuations are exactly (M u K, M u a K) for the q^2
moves u listed in ``continuation_moves``, so a word in the moves names
an edge.  Invariants along a walk are read off row-reduced forms; the
reduced row degrees are the Birkhoff exponents.  ``birkhoff_invariant``
recomputes the same exponents by the independent section-dimension
route and the test suite holds the two against each other.  Both do
their F_q linear algebra in ``algebra``: the section route counts kernel
dimensions, and a reduction step's null vector is the first
``kernel_basis`` vector of the transposed leading-coefficient matrix
(``_reduction_plan``).

An edge of the walk is its reduced target R = reduce(P a), P the source
a word reaches, with R's row degrees (see ``_Walker``), so its quotient
edge is read off two degree lists, and each of its q^2 continuations
costs one fused move and one reduction, of its own target.  Each row is
one polynomial whose coefficients are vectors of F_q^dim packed into
ints (``_Vectors``), so a reduction step is one table lookup per degree
and term.  Reduction acts on the left by Gamma = GL_dim(F_q[t]) and the
moves on the right, so everything below an edge depends only on the
edge's Gamma-orbit, which its key (``_Walker.key``: the target's sorted
row degrees and one plane of its leading coefficients) names.  The
counts and the terminal profile walk level by level and expand one edge
per key, carrying how many words reach it (``_Walker.merged``).  The
counts (``oracle_returns``) read every length up to n off one walk that
skips the states too far from the origin to return by length n: at (q,
n) = (2, 9) that is 169 reductions against 321 without the skip and
87,381 over every word, at (3, 6) 127 against 217 and 66,430, and at
(5, 6) 351 against 601 and 10.2 million.  On one pinned core of a
2-vCPU Xeon under Python 3.11 ``oracle_g_f`` takes ≈2.7 ms of CPU at (2,
9), 3.6 ms at (3, 6) and 12 ms at (5, 6), against 4.3, 4.6 and 14 ms
without the skip.  ``_count_run`` keeps the walk over every word as the
reference the tests hold the merged counts against.  The census (breadth
first by ``_Walker.successors``) and the prefix sweep (depth first by
``_Walker.walk``) expand every edge they visit, reducing 1 + q^2 E times
for a census of E quotient edges and sum_{k<=max_len+1} q^(2k) times for
the prefix sweep.
"""

from __future__ import annotations

import functools
from collections import Counter
from dataclasses import dataclass
from types import SimpleNamespace

from .algebra import (
    FiniteField,
    LaurentMatrix,
    laurent_deg,
    kernel_basis,
    kernel_dim,
)
from .errors import BudgetExceededError, InternalConsistencyError
from . import shift as shift_mod

DEFAULT_MAX_LEAVES = 10_000_000


# ---------------------------------------------------------------------------
# Vertex classes and edges
# ---------------------------------------------------------------------------


class VertexClass:
    """A vertex: an invertible matrix taken up to scalars and the
    maximal compact acting on the right.  Equality of vertices is
    ``class_equal``, never equality of representatives."""

    __slots__ = ("rep",)

    def __init__(self, rep: LaurentMatrix):
        self.rep = rep

    @property
    def field(self) -> FiniteField:
        return self.rep.field

    @property
    def dim(self) -> int:
        return self.rep.dim

    @property
    def q(self) -> int:
        return self.rep.field.q


def origin(field: FiniteField, dim: int = 3) -> VertexClass:
    return VertexClass(LaurentMatrix.identity(field, dim))


def diag_vertex(field: FiniteField, exps) -> VertexClass:
    return VertexClass(LaurentMatrix.diag_powers(field, exps))


def std_step(field: FiniteField, dim: int = 3) -> LaurentMatrix:
    """The straight step a = diag(t, 1, ..., 1)."""
    return LaurentMatrix.diag_powers(field, [1] + [0] * (dim - 1))


def vertex_type(v: VertexClass) -> int:
    """deg_t(det rep) mod dim; class-invariant."""
    det, _ = v.rep.det_adj()
    if not det:
        raise ValueError("singular representative")
    return int(laurent_deg(det)) % v.dim


def class_equal(u: VertexClass, w: VertexClass) -> bool:
    """Whether u and w are the same vertex.

    Tests h = adj(u.rep) @ w.rep for membership in t^j * (matrices with
    valuation >= 0 entries and unit determinant): deg det h must be
    dim * j and every entry of h must have degree <= j.
    """
    if u.field != w.field or u.dim != w.dim:
        raise ValueError("vertices live over different fields or dims")
    _, adj_u = u.rep.det_adj()
    h = adj_u @ w.rep
    det_h, _ = h.det_adj()
    if not det_h:
        raise ValueError("singular representative")
    ddeg = int(laurent_deg(det_h))
    if ddeg % u.dim:
        return False
    j = ddeg // u.dim
    return all(laurent_deg(e) <= j for row in h.rows for e in row)


def divisor_profile(u: VertexClass, w: VertexClass) -> tuple[int, ...]:
    """Normalized valuations of the elementary divisors of u^{-1} w.

    Computed without division on h = adj(u.rep) @ w.rep via minimal
    valuations of k x k minors; the profile is reported ascending with
    smallest entry 0, and is invariant under unit multiplication on
    either side and under scalars.
    """
    _, adj_u = u.rep.det_adj()
    h = adj_u @ w.rep
    dim = u.dim
    # v_k = min valuation over k x k minors = -(max degree over k x k minors)
    deg1 = max(laurent_deg(e) for row in h.rows for e in row)
    det_h, adj_h = h.det_adj()
    if dim == 2:
        v1 = -int(deg1)
        v2 = -int(laurent_deg(det_h))
        exps = sorted((v1, v2 - v1))
    else:
        # entries of the adjugate are (up to sign) exactly the 2x2 minors
        deg2 = max(laurent_deg(e) for row in adj_h.rows for e in row)
        v1 = -int(deg1)
        v2 = -int(deg2)
        v3 = -int(laurent_deg(det_h))
        exps = sorted((v1, v2 - v1, v3 - v2))
    base = exps[0]
    return tuple(e - base for e in exps)


def are_adjacent(u: VertexClass, w: VertexClass) -> bool:
    """Whether distinct vertices u, w span an edge of the complex."""
    prof = divisor_profile(u, w)
    if u.dim == 2:
        return prof == (0, 1)
    return prof in ((0, 0, 1), (0, 1, 1))


_UP_PROFILE = {3: (0, 1, 1), 2: (0, 1)}


def up_neighbors(v: VertexClass) -> list[VertexClass]:
    """The neighbors of v whose type is type(v) + 1.

    There are q^2 + q + 1 of them (dim 3) in three coset families, or
    q + 1 (dim 2).
    """
    f = v.field
    out = []
    if v.dim == 3:
        out.append(VertexClass(v.rep @ LaurentMatrix.diag_powers(f, [1, 0, 0])))
        for b in f.elements():
            m = LaurentMatrix(f, [[{0: 1}, {1: b} if b else {}, {}], [{}, {1: 1}, {}], [{}, {}, {0: 1}]])
            out.append(VertexClass(v.rep @ m))
        for c in f.elements():
            for d in f.elements():
                m = LaurentMatrix(
                    f,
                    [
                        [{-1: 1}, {}, {0: c} if c else {}],
                        [{}, {-1: 1}, {0: d} if d else {}],
                        [{}, {}, {0: 1}],
                    ],
                )
                out.append(VertexClass(v.rep @ m))
    else:
        out.append(VertexClass(v.rep @ LaurentMatrix.diag_powers(f, [1, 0])))
        for b in f.elements():
            m = LaurentMatrix(f, [[{0: 1}, {1: b} if b else {}], [{}, {1: 1}]])
            out.append(VertexClass(v.rep @ m))
    return out


@dataclass
class BDirectedEdge:
    """A type-1 directed edge: an ordered pair of adjacent vertices with
    vertex type stepping up by one."""

    source: VertexClass
    target: VertexClass

    def __post_init__(self):
        if divisor_profile(self.source, self.target) != _UP_PROFILE[self.source.dim]:
            raise ValueError("target is not an up-neighbor of source")


def base_edge(field: FiniteField, dim: int = 3) -> BDirectedEdge:
    v0 = origin(field, dim)
    return BDirectedEdge(v0, VertexClass(v0.rep @ std_step(field, dim)))


def geodesic_continuations(e: BDirectedEdge) -> list[BDirectedEdge]:
    """The q^2 (dim 3) or q (dim 2) edges extending e geodesically.

    dim 3: up-neighbors of the target not adjacent to the source (no
    chamber closes up); dim 2: plain non-backtracking.
    """
    if e.source.dim == 3:
        out = [
            BDirectedEdge(e.target, w)
            for w in up_neighbors(e.target)
            if not are_adjacent(e.source, w)
        ]
        want = e.source.q ** 2
    else:
        out = [
            BDirectedEdge(e.target, w)
            for w in up_neighbors(e.target)
            if not class_equal(w, e.source)
        ]
        want = e.source.q
    if len(out) != want:
        raise InternalConsistencyError(
            f"{len(out)} continuations found, expected {want}"
        )
    return out


# ---------------------------------------------------------------------------
# Birkhoff invariant by section dimensions
# ---------------------------------------------------------------------------


def _section_dim(
    rep: LaurentMatrix, k: int, maxadj: int, detdeg: int, maxrep: int, margin: int
) -> int:
    """dim over F_q of the polynomial row vectors x with deg x_i <= D(k)
    such that every entry of x . rep has degree <= k, where
    D(k) = k + maxadj - detdeg (+ margin).  D(k) bounds the degree of
    every solution, so this equals the unconstrained section dimension.
    """
    dim = rep.dim
    D = k + maxadj - detdeg + margin
    if D < 0:
        return 0
    ncols = dim * (D + 1)
    s_hi = D + maxrep
    if s_hi <= k:
        return ncols
    rows = []
    for j in range(dim):
        for s in range(k + 1, s_hi + 1):
            row = [0] * ncols
            for i in range(dim):
                ent = rep.rows[i][j]
                for e in range(D + 1):
                    row[i * (D + 1) + e] = ent.get(s - e, 0)
            rows.append(row)
    return kernel_dim(rep.field, rows, ncols)


def birkhoff_invariant(v: VertexClass, degree_margin: int = 0):
    """The sector position of v: the unique pair (m, n), m >= n >= 0,
    such that v lies over the sector vertex (m, n); a single integer m
    for dim 2.

    Section-dimension algorithm: scan integers k and measure
    d(k) = dim { polynomial rows x : deg(x . rep) <= k }.  The counts
    obey d(k) = sum_i max(0, k - a_i + 1) for the exponent multiset
    {a_1 >= ... >= a_dim}; slope breakpoints recover the a_i, and the
    result is (a_1 - a_dim, ..., normalized).  Every scanned d(k) is
    re-checked against the recovered multiset and the multiset must sum
    to deg det; any failure raises instead of repairing.

    ``degree_margin`` enlarges the internal degree bound (used by the
    robustness checks); the answer must not depend on it.
    """
    rep = v.rep
    dim = rep.dim
    det, adj = rep.det_adj()
    if not det:
        raise ValueError("singular representative")
    detdeg = int(laurent_deg(det))
    maxadj = int(adj.max_entry_deg())
    maxrep = int(rep.max_entry_deg())
    # any nonzero x has deg(x . rep) >= detdeg - maxadj, so no breakpoint
    # lies below k_lo; the largest exponent is bounded via the known sum.
    k_lo = detdeg - maxadj
    k_cap = detdeg - (dim - 1) * k_lo + 2

    breakpoints: list[int] = []
    scanned: list[tuple[int, int]] = []
    d_prev = 0
    slope_prev = 0
    k = k_lo
    while True:
        d_k = _section_dim(rep, k, maxadj, detdeg, maxrep, degree_margin)
        slope = d_k - d_prev
        mult = slope - slope_prev
        if mult < 0 or slope > dim:
            raise InternalConsistencyError(
                f"section dimensions not concave at k={k}: d={d_k}, prev={d_prev}"
            )
        breakpoints.extend([k] * mult)
        scanned.append((k, d_k))
        if slope == dim:
            break
        if k > k_cap:
            raise InternalConsistencyError(
                f"no full-slope plateau found by k={k}; exponents so far {breakpoints}"
            )
        d_prev, slope_prev = d_k, slope
        k += 1

    if len(breakpoints) != dim or sum(breakpoints) != detdeg:
        raise InternalConsistencyError(
            f"breakpoints {breakpoints} inconsistent with deg det = {detdeg}"
        )
    for kk, dd in scanned:
        if dd != sum(max(0, kk - a + 1) for a in breakpoints):
            raise InternalConsistencyError(
                f"d({kk}) = {dd} does not match exponents {breakpoints}"
            )
    return _pair_from_degs(breakpoints, dim)


def quotient_edge_of(e: BDirectedEdge) -> shift_mod.QuotientEdge:
    """The sector edge under a type-1 building edge (dim 3).

    The endpoint invariants determine it; a non-sector-adjacent pair is
    an internal error, not a repairable condition.
    """
    if e.source.dim != 3:
        raise ValueError("quotient edges are defined for dim 3")
    return _sector_edge(birkhoff_invariant(e.source), birkhoff_invariant(e.target))


def _sector_edge(src, tgt) -> shift_mod.QuotientEdge:
    qe = shift_mod.QuotientEdge(shift_mod.QVertex(*src), shift_mod.QVertex(*tgt))
    if not qe.is_valid():
        raise InternalConsistencyError(f"invariants {src} -> {tgt} are not sector-adjacent")
    return qe


# ---------------------------------------------------------------------------
# Continuation moves
# ---------------------------------------------------------------------------


def continuation_moves(field: FiniteField, dim: int = 3) -> list[LaurentMatrix]:
    """Matrices u_1 .. u_{q^2} (dim 3; q of them for dim 2) such that the
    continuations of any edge (M K, M a K) are exactly the edges
    (M u K, M u a K).

    Listed deterministically: the straight move a first, then the
    one-parameter family, then the two-parameter family.
    """
    f = field
    moves = []
    if dim == 3:
        moves.append(LaurentMatrix.diag_powers(f, [1, 0, 0]))
        for b in f.units():
            moves.append(
                LaurentMatrix(f, [[{1: b}, {1: 1}, {}], [{0: 1}, {}, {}], [{}, {}, {0: 1}]])
            )
        for c in f.units():
            for d in f.elements():
                moves.append(
                    LaurentMatrix(
                        f,
                        [
                            [{1: c}, {1: 1}, {}],
                            [{0: d} if d else {}, {}, {0: 1}],
                            [{0: 1}, {}, {}],
                        ],
                    )
                )
    else:
        moves.append(LaurentMatrix.diag_powers(f, [1, 0]))
        for b in f.units():
            moves.append(LaurentMatrix(f, [[{1: b}, {1: 1}], [{0: 1}, {}]]))
    return moves


# ---------------------------------------------------------------------------
# Packed rows: polynomials with vector coefficients, reduced in place
# ---------------------------------------------------------------------------


class _Table(dict):
    """A table filled on first use: a missing key k maps to fill(k)."""

    __slots__ = ("fill",)

    def __init__(self, fill):
        super().__init__()
        self.fill = fill

    def __missing__(self, k):
        v = self[k] = self.fill(k)
        return v


class _Vectors:
    """Rows of polynomial matrices over F_q, each one polynomial whose
    coefficients are vectors of F_q^dim: a row is a list, lowest degree
    first, of vectors packed into ints < size = q^dim (coordinate j is the
    base-q digit j), with its top vector nonzero, so its degree is its
    length - 1 and the zero row is [].  The tables are filled on first
    use from the field's element operations, never in full: ``digits[v]``
    holds v's coordinates, ``pivot[v]`` (j, v_j) for v's last nonzero
    coordinate j, and ``axpy[c][a * size + b]`` a + c b.  ``ops`` holds the
    field's element operations with each result kept, as a field of q =
    p^e, e > 1, computes one by digit arithmetic."""

    def __init__(self, field: FiniteField, dim: int):
        q = field.q
        self.field, self.dim, self.size = field, dim, q**dim
        ops = ("add", "sub", "neg", "mul", "inv")
        self.ops = SimpleNamespace(**{op: functools.cache(getattr(field, op)) for op in ops})
        self.powers = [q**j for j in range(dim)]
        self.digits = _Table(lambda v: tuple(v // p % q for p in self.powers))
        self.pivot = _Table(lambda v: max((j, c) for j, c in enumerate(self.digits[v]) if c))
        self.axpy = _Table(lambda c: _Table(functools.partial(self._axpy, c)))

    def _axpy(self, c, k):
        """a + c b, for the key k = a * size + b."""
        a, b = self.digits[k // self.size], self.digits[k % self.size]
        return self.pack(self.ops.add(x, self.ops.mul(c, y)) for x, y in zip(a, b))

    def pack(self, coords) -> int:
        return sum(c * p for c, p in zip(coords, self.powers))

    def rows_of(self, mat: LaurentMatrix):
        """The packed rows of a matrix with polynomial entries."""
        return [
            [self.pack(ent.get(e, 0) for ent in row) for e in range(max(max(ent, default=-1) for ent in row) + 1)]
            for row in mat.rows
        ]

    def to_matrix(self, rows) -> LaurentMatrix:
        """The matrix held in packed rows."""
        digits = self.digits
        return LaurentMatrix(
            self.field,
            [[{e: digits[v][j] for e, v in enumerate(row) if digits[v][j]} for j in range(self.dim)] for row in rows],
        )


def _add_multiple(dst, src, c, s, vec: _Vectors):
    """dst += c t^s src in place, one ``axpy`` lookup per degree."""
    ax, size = vec.axpy[c], vec.size
    if len(dst) < s + len(src):
        dst.extend([0] * (s + len(src) - len(dst)))
    for e, v in enumerate(src, s):
        dst[e] = ax[dst[e] * size + v]
    while dst and not dst[-1]:
        dst.pop()


def _reduction_plan(key, vec: _Vectors):
    """None when the leading-coefficient matrix whose rows are the packed
    vectors ``key`` is invertible, else the support of a nonzero c with
    c . key = 0, as (index, entry) pairs: the first ``kernel_basis``
    vector of its transpose."""
    basis = kernel_basis(vec.ops, list(zip(*(vec.digits[v] for v in key))), vec.dim)
    if not basis:
        return None
    return tuple((i, c) for i, c in enumerate(basis[0]) if c)


def _reduce_rows(rows, detdeg, vec: _Vectors, plans=None):
    """Row-reduce packed rows in place over the polynomial ring; returns
    row degrees.

    ``detdeg`` is the t-degree of det(rows).  Each step lowers the
    degree sum by at least one, the sum never drops below deg det, and
    it equals deg det once the leading-coefficient matrix is invertible
    (then the sorted row degrees are the Birkhoff exponents); so at most
    sum(degs) - detdeg + 1 rounds are needed.

    ``plans`` maps the rows' top vectors to their ``_reduction_plan``, as
    a ``_Table`` filled on first sight; without it every round solves
    afresh.  Either way the steps, and so the rows, are the same.
    """
    degs = [len(row) - 1 for row in rows]
    if -1 in degs:
        raise InternalConsistencyError("zero row in a vertex representative")
    for _ in range(sum(degs) - detdeg + 1):
        key = tuple([row[-1] for row in rows])
        plan = _reduction_plan(key, vec) if plans is None else plans[key]
        if plan is None:
            if sum(degs) != detdeg:
                raise InternalConsistencyError(
                    f"reduced row degrees {degs} do not sum to deg det = {detdeg}"
                )
            return degs
        i_star = plan[0][0]
        for i, _ in plan:
            if degs[i] > degs[i_star]:
                i_star = i
        new_row: list[int] = []
        for i, c in plan:
            _add_multiple(new_row, rows[i], c, degs[i_star] - degs[i], vec)
        if not new_row:
            raise InternalConsistencyError("row reduction produced a zero row")
        rows[i_star] = new_row
        degs[i_star] = len(new_row) - 1
    raise InternalConsistencyError(
        f"row reduction did not finish within its bound (deg det = {detdeg})"
    )


def _pair_from_degs(degs, dim):
    s = sorted(degs, reverse=True)
    if dim == 3:
        return (s[0] - s[2], s[1] - s[2])
    return s[0] - s[1]


def _at_origin(degs) -> bool:
    """Whether a target of row degrees degs is the origin vertex."""
    return max(degs) == min(degs)


def _m_of(degs) -> int:
    """The m of a target of row degrees degs: the first entry of its
    ``_pair_from_degs`` pair (dim 3), or the pair itself (dim 2); 0
    exactly at the origin."""
    return max(degs) - min(degs)


def _fused(row, lo, hi):
    """The packed row r X a, for the tables (lo, hi) of the fused move
    X a: (r X a)[e] = lo[r[e]] + hi[r[e - 1]]."""
    new = [*map(lo.__getitem__, row), 0]
    for e, v in enumerate(row, 1):
        new[e] += hi[v]
    if not new[-1]:
        new.pop()
    return new


class _Walker(_Vectors):
    """Shared state for walking type-1 edges by continuation words.

    An edge is (R, degs): R = reduce(P a) a row-reduced representative of
    the target of the edge out of a source P that a word reaches, and
    degs R's row degrees, in packed rows (``_Vectors``).  A word of length
    k gives det P t-degree k, since every move's det has degree 1, so the
    edge's depth k is sum(degs) - 1.

    ``start`` gives the base edge (the empty word) and ``successors`` the
    q^2 continuations of an edge in ``continuation_moves`` order; ``walk``
    drives both depth first over every word, ``merged`` level by level
    over one edge per orbit key (``key``).  Each move is u_j = a X_j, a
    the straight move, and the walker raises ``InternalConsistencyError``
    unless each X_j = a^-1 u_j is constant and invertible over F_q.  Then LC(M X_j) =
    LC(M) X_j keeps the row space of LC's transpose, so its RREF, the null
    vector ``_reduction_plan`` takes from it and every round's step: so
    reduce(P u_j) = R X_j, with R's row degrees.  Continuation j is the
    edge out of R X_j, and its target R X_j a costs one fused move and one
    reduction.  As a only shifts column 0, the fused move is two lookups
    per degree in the move's tables, vX_j without its coordinate 0 and
    that coordinate alone (``_fused``), and a plain int add, since the
    two lie in disjoint digits.  The walk never forms a source; the
    census forms R X_j (``source``) only for a lift it keeps.  The
    quotient edge of a continuation is ``quotient(degs, its degs)``, with
    no reduction.

    ``plans`` memoises the reduction plan by the rows' top vectors, filled
    as the walk first meets each one.  It holds at most min(q^(dim^2),
    reduction rounds walked) entries; the rounds are bounded by what
    bounds the walk (``max_leaves`` for the counting walks, ``m_max`` or
    ``max_len`` for the census and prefix sweeps), and the memo and the
    vector tables, each entry of which a lookup of the walk made, go with
    the walker.  ``normals`` memoises the plane of ``key`` the same way,
    by the sorted top vectors of the targets the merged walk keys.
    """

    def __init__(self, field: FiniteField, dim: int):
        super().__init__(field, dim)
        self.plans = _Table(lambda key: _reduction_plan(key, self))
        self.edges = _Table(lambda pairs: _sector_edge(*pairs))
        self.normals = _Table(self._normal)
        self.moves = []
        for u in continuation_moves(field, dim):
            x = [[{e - 1: c for e, c in ent.items()} for ent in u.rows[0]], *u.rows[1:]]  # a^-1 u
            mix = tuple(self.pack(e.get(0, 0) for e in row) for row in x)
            if any(set(e) - {0} for r in x for e in r) or _reduction_plan(mix, self):
                raise InternalConsistencyError("a move is not a times a constant invertible matrix")
            self.moves.append(self._fused_tables(mix))

    def _fused_tables(self, mix):
        """The tables (lo, hi) of the fused move X a, X the constant matrix
        of packed rows ``mix``: lo[v] is vX without its coordinate 0, and
        hi[v] that coordinate alone."""
        q, size, axpy, digits = self.field.q, self.size, self.axpy, self.digits

        def times_x(v):
            acc = 0
            for c, x in zip(digits[v], mix):
                if c:
                    acc = axpy[c][acc * size + x]
            return acc

        return _Table(lambda v: times_x(v) // q * q), _Table(lambda v: times_x(v) % q)

    def start(self):
        """The base edge: reduce(a), a the straight step."""
        rows = [[0, 1], *([p] for p in self.powers[1:])]
        return rows, _reduce_rows(rows, 1, self, self.plans)

    def successors(self, edge):
        """The q^2 continuations of edge, in ``continuation_moves`` order:
        the edges out of R X_j, R the edge's target."""
        rows, degs = edge
        depth = sum(degs) + 1
        out = []
        for lo, hi in self.moves:
            target = [_fused(row, lo, hi) for row in rows]
            out.append((target, _reduce_rows(target, depth, self, self.plans)))
        return out

    def source(self, rows, j):
        """R X_j, the source of continuation j of an edge of target R."""
        lo, hi = self.moves[j]
        return [[lo[v] + hi[v] for v in row] for row in rows]

    def walk(self, root, limit):
        """Depth first from ``root``, in ``continuation_moves`` order:
        yields (depth, edge, its successors) for every edge of depth
        < limit, so an edge at depth ``limit`` is seen only as a successor."""
        stack = [root] if sum(root[1]) <= limit else []
        while stack:
            edge = stack.pop()
            succs = self.successors(edge)
            depth = sum(edge[1]) - 1
            yield depth, edge, succs
            if depth + 1 < limit:
                stack += reversed(succs)

    def merged(self, root, limit, horizon=None):
        """Level by level from ``root``, one edge per orbit key: yields
        (depth, edge, words, free, its successors) for every state of
        depth < limit that ``horizon`` keeps.  A state stands for the
        ``words`` edges of its depth that have its ``key``, ``free`` of
        them with no earlier edge's target at the origin.  Everything
        below an edge depends only on its Gamma-orbit, since the moves act
        on the right and reduction on the left, and equal keys mean one
        orbit.
        The successors of depth < limit are merged into the next level:
        each adds words, and free unless the state's own target is the
        origin.  So each state is expanded once, and the last successors
        are left unmerged.

        With ``horizon`` h, a state of depth d whose target has m > h - d
        (``_m_of``) is not expanded, and a successor that would be so at
        its own depth is not merged.  Below such a state no edge of depth
        <= h has its target at the origin: the targets of an edge and of
        each of its continuations are adjacent vertices (the continuation
        starts at the edge's target), the Birkhoff exponents of adjacent
        vertices differ by 0 or 1 each, up to a common shift, and so m
        falls by at most 1 per step, from m > h - d to m > h - d - j >= 0
        at depth d + j <= h.  The walk checks that fact on every successor
        it reduces and raises ``InternalConsistencyError`` where m falls
        by more."""
        bound = float("inf") if horizon is None else horizon
        level = [(root, 1, 1)] if _m_of(root[1]) <= bound else []
        for depth in range(limit):
            nxt: dict = {}
            for edge, words, free in level:
                m = _m_of(edge[1])
                succs = self.successors(edge)
                ms = [_m_of(d) for _, d in succs]
                if min(ms) < m - 1:
                    raise InternalConsistencyError(
                        f"m fell from {m} to {min(ms)} in one step at depth {depth}"
                    )
                yield depth, edge, words, free, succs
                if depth + 1 == limit:
                    continue
                if not m:
                    free = 0
                for succ, m_succ in zip(succs, ms):
                    if m_succ < bound - depth:
                        state = nxt.setdefault(self.key(*succ), [succ, 0, 0])
                        state[1] += words
                        state[2] += free
            level = nxt.values()

    def key(self, rows, degs):
        """The merge key of an edge of target R, in ``rows`` of row degrees
        ``degs``: with R's rows sorted stably by degree, their degrees λ
        less the least one, and ``normals`` of their top vectors.  Equal
        keys at one depth mean one Gamma-orbit of edges, so one future:
        1. R is row-reduced, so t^-λ R lies in K with constant term c =
           LC(R), invertible (``_reduce_rows``): R = t^λ c k, k = 1 mod
           t^-1.  The edge, Gamma-equivalent to (R a^-1 K, R K), is then
           E(λ, c) = (t^λ c a^-1 K, t^λ K), as a k a^-1 lies in K.  And
           c' a^-1 K = c a^-1 K exactly when c^-1 c' lies in P' = {p :
           p_0j = 0 for j > 0}, that is, when the columns 1 .. dim - 1 of
           c and of c' span one plane.
        2. Sorting the rows is the left action of a permutation matrix,
           which lies in Gamma and permutes c's rows with λ; and t^k is
           central and a vertex is a class up to scalars, so λ less its
           least entry names the same edge at a known depth.
        The key is not canonical: the constants p with t^λ p t^-λ in
        Gamma act on c from the left too, and rows of equal degree keep
        their order, so one orbit may still give several keys."""
        order = sorted(range(self.dim), key=degs.__getitem__)
        low = degs[order[0]]
        return tuple([degs[i] - low for i in order]), self.normals[tuple([rows[i][-1] for i in order])]

    def _normal(self, tops):
        """The packed normal vector, last nonzero coordinate 1, of the plane
        spanned by columns 1 .. dim - 1 of the invertible matrix whose rows
        are the packed vectors ``tops``: the one ``kernel_basis`` vector of
        those columns."""
        cols = list(zip(*map(self.digits.__getitem__, tops)))
        return self.pack(kernel_basis(self.ops, cols[1:], self.dim)[0])

    def quotient(self, src_degs, degs) -> shift_mod.QuotientEdge:
        """Quotient edge of an edge whose source and target have the row
        degrees src_degs and degs (dim 3), from ``edges``, keyed by the
        two invariants; a pair that is not sector-adjacent raises on
        every call, as a failed fill stores nothing."""
        return self.edges[_pair_from_degs(src_degs, self.dim), _pair_from_degs(degs, self.dim)]


def _count_run(field: FiniteField, dim: int, n: int) -> tuple[int, int]:
    """(closed, first-return) counts over the continuation words of
    length n, by the exhaustive walk: closed counts the words that end
    at the origin, first-return also forbids interior visits.  A word
    ends at the target of the edge of its first n - 1 moves, so each
    edge at depth n - 1 whose target is the origin counts q^2 words, and
    the walk reduces only the edges of depth < n.  The reference, with
    no merge and no prune, that ``oracle_returns`` is held against."""
    wk = _Walker(field, dim)
    width, last = len(wk.moves), n - 1
    root = wk.start()
    if n == 1:  # the words end at the base edge's target
        return (width, width) if _at_origin(root[1]) else (0, 0)
    seen = [False] * (n + 1)  # seen[k]: the word's vertex at some depth 1 .. k is the origin
    g_total = f_total = 0
    for depth, (_, degs), succs in wk.walk(root, last):
        seen[depth + 1] = interior = seen[depth] or _at_origin(degs)
        if depth + 1 == last:
            for _, d in succs:
                if _at_origin(d):
                    g_total += width
                    if not interior:
                        f_total += width
    return g_total, f_total


def oracle_leaves(q: int, n: int, dim: int = 3) -> int:
    """Leaves of the depth-n walk: q^(2n) words in dim 3, q^n in dim 2."""
    return q ** ((dim - 1) * n)


def _field_for(q: int, field: FiniteField | None) -> FiniteField:
    """``field``, or F_q when it is None; a field of another size raises."""
    if field is None:
        return FiniteField(q)
    if field.q != q:
        raise ValueError(f"{field!r} does not have q={q} elements")
    return field


def oracle_returns(
    q: int,
    n: int,
    dim: int = 3,
    max_leaves: int = DEFAULT_MAX_LEAVES,
    field: FiniteField | None = None,
) -> list[tuple[int, int]]:
    """(closed, first-return) cycle counts over the origin for every
    length 0 .. n, entry L for length L, over every word, in one merged
    walk (``_Walker.merged``) that drops the states which cannot return
    by length n.  Refuses runs whose leaf count q^(2n) (dim 3) or q^n
    (dim 2) exceeds ``max_leaves``.  A word of length L ends at the
    target of the edge of its first L - 1 moves, so g and f at L are q^2
    (q in dim 2) times the words and the free words of the depth-(L - 1)
    edges whose target is the origin; the empty word counts once, as in
    ``shift.dp_sweep``."""
    if n < 1:
        raise ValueError("n must be >= 1")
    field = _field_for(q, field)
    leaves = oracle_leaves(q, n, dim)
    if leaves > max_leaves:
        raise BudgetExceededError(leaves, max_leaves)
    wk = _Walker(field, dim)
    width = len(wk.moves)
    root = wk.start()
    g, f = [1] + [0] * n, [1] + [0] * n
    g[1] = f[1] = width if _at_origin(root[1]) else 0  # the base edge's target
    for depth, (_, degs), words, free, succs in wk.merged(root, n - 1, horizon=n - 1):
        ends = width * sum(_at_origin(d) for _, d in succs)
        g[depth + 2] += ends * words
        f[depth + 2] += 0 if _at_origin(degs) else ends * free
    return list(zip(g, f))


def oracle_g_f(
    q: int,
    n: int,
    dim: int = 3,
    max_leaves: int = DEFAULT_MAX_LEAVES,
    field: FiniteField | None = None,
) -> tuple[int, int]:
    """(closed, first-return) cycle counts over the origin of length n
    (see ``oracle_returns``)."""
    return oracle_returns(q, n, dim, max_leaves, field)[n]


def oracle_counts(
    q: int,
    n: int,
    dim: int = 3,
    first_return: bool = False,
    max_leaves: int = DEFAULT_MAX_LEAVES,
    field: FiniteField | None = None,
) -> int:
    """Count of length-n cycles over the origin (closed, or first-return
    when requested), over every admissible path in the building."""
    g, f = oracle_g_f(q, n, dim, max_leaves, field)
    return f if first_return else g


def oracle_terminal_profile(
    q: int, n: int, max_leaves: int = DEFAULT_MAX_LEAVES, field: FiniteField | None = None
) -> dict[shift_mod.QuotientEdge, int]:
    """Distribution of terminal quotient edges over all length-n words
    (dim 3), in one merged walk; the building-side mirror of one DP
    endpoint profile."""
    if n < 0:
        raise ValueError("n must be >= 0")
    field = _field_for(q, field)
    leaves = oracle_leaves(q, n)
    if leaves > max_leaves:
        raise BudgetExceededError(leaves, max_leaves)
    wk = _Walker(field, 3)
    root = wk.start()
    if n == 0:
        return {wk.quotient([0] * 3, root[1]): 1}
    out: Counter = Counter()
    for depth, (_, degs), words, _, succs in wk.merged(root, n):
        if depth == n - 1:
            for _, d in succs:
                out[wk.quotient(degs, d)] += words
    return dict(out)


def oracle_transition_census(
    q: int, m_max: int, field: FiniteField | None = None, with_lifts: bool = False
):
    """Measured transition table of the quotient shift.

    Breadth-first search from the base edge finds one lift per reachable
    quotient edge whose endpoint m-coordinates stay <= m_max, enumerates
    the lift's q^2 continuations, and records the multiset of successor
    quotient edges.  ``with_lifts`` also returns the lift matrices.
    """
    if m_max < 2:
        raise ValueError("m_max must be >= 2")
    field = _field_for(q, field)
    wk = _Walker(field, 3)
    base = wk.start()
    start = wk.quotient([0] * 3, base[1])
    lifts = {start: base}
    sources = {start: [[p] for p in wk.powers]}  # the identity
    census: dict[shift_mod.QuotientEdge, dict[shift_mod.QuotientEdge, int]] = {}
    frontier = [start]
    while frontier:
        nxt = []
        for qe in frontier:
            if max(qe.source.m, qe.target.m) > m_max:
                continue
            edge = lifts[qe]
            succs: Counter = Counter()
            for j, succ in enumerate(wk.successors(edge)):
                succ_qe = wk.quotient(edge[1], succ[1])
                succs[succ_qe] += 1
                if succ_qe not in lifts:
                    lifts[succ_qe] = succ
                    if with_lifts:
                        sources[succ_qe] = wk.source(edge[0], j)
                    nxt.append(succ_qe)
            census[qe] = dict(succs)
        frontier = nxt
    if with_lifts:
        return census, {qe: wk.to_matrix(rows) for qe, rows in sources.items()}
    return census


def find_lift(
    q: int, k2: int, l2: int, m_max: int, field: FiniteField | None = None
) -> BDirectedEdge | None:
    """One concrete building edge over the quotient edge named (k2/2,
    l2/2), or None when the breadth-first search does not reach it."""
    field = _field_for(q, field)
    target = shift_mod.QuotientEdge.from_doubled(k2, l2)
    _, lifts = oracle_transition_census(q, m_max, field, with_lifts=True)
    mat = lifts.get(target)
    if mat is None:
        return None
    return BDirectedEdge(VertexClass(mat), VertexClass(mat @ std_step(field, 3)))


def oracle_prefix_mismatches(
    q: int, max_len: int, field: FiniteField | None = None
) -> list[str]:
    """Check the Markov property of the measured transitions.

    Enumerates every continuation word up to ``max_len`` and compares
    the successor multiset observed at its edge against the first
    observation for the same quotient edge; returns human-readable
    mismatch descriptions (empty means the property holds).
    """
    if max_len < 0:
        raise ValueError("max_len must be >= 0")
    field = _field_for(q, field)
    wk = _Walker(field, 3)
    reference: dict = {}
    mismatches: list[str] = []
    # the depth-k edge on the path to the edge walked last (the walk is
    # depth first) has the source degrees src[k] and the last move move[k]
    src, move = [[0] * 3] * (max_len + 2), [-1] * (max_len + 2)
    for depth, (_, degs), succs in wk.walk(wk.start(), max_len + 1):
        move[depth] += 1
        move[depth + 1] = -1
        qe = wk.quotient(src[depth], degs)
        src[depth + 1] = degs
        seen = Counter(wk.quotient(degs, d) for _, d in succs)
        if qe in reference:
            if reference[qe] != seen:
                mismatches.append(
                    f"word {tuple(move[1 : depth + 1])}: edge {qe.pretty()} saw {dict(seen)}"
                    f" vs {dict(reference[qe])}"
                )
        else:
            reference[qe] = seen
    return mismatches


def oracle_path_vertices(
    q: int, n: int, stride: int = 1, field: FiniteField | None = None
) -> list[LaurentMatrix]:
    """Raw vertex representatives visited by the depth-n enumeration
    (every stride-th node in depth-first order), as plain matrices.
    Used to sample genuine vertices for invariant robustness checks."""
    field = _field_for(q, field)
    moves = continuation_moves(field, 3)
    out: list[LaurentMatrix] = []
    counter = 0

    def rec(mat: LaurentMatrix, depth: int):
        nonlocal counter
        if counter % stride == 0:
            out.append(mat)
        counter += 1
        if depth == n:
            return
        for mv in moves:
            rec(mat @ mv, depth + 1)

    rec(LaurentMatrix.identity(field, 3), 0)
    return out


def fast_invariant(mat: LaurentMatrix):
    """Invariant of a polynomial-entry vertex via row reduction; the
    cross-check partner of ``birkhoff_invariant`` on enumeration paths."""
    if mat.min_entry_exponent() < 0:
        raise ValueError("row-reduction path expects polynomial entries")
    det, _ = mat.det_adj()
    if not det:
        raise ValueError("singular representative")
    vec = _Vectors(mat.field, mat.dim)
    return _pair_from_degs(_reduce_rows(vec.rows_of(mat), int(laurent_deg(det)), vec), mat.dim)
