"""Ground truth in the building itself.

Vertices are classes of invertible Laurent-polynomial matrices modulo
scalars and the maximal compact (entries of valuation >= 0, unit
determinant); dim 3 gives the two-dimensional building, dim 2 the
(q+1)-regular tree.  This module provides exact class tests, neighbor
enumeration, geodesic continuation, the Birkhoff invariant computed by
section dimensions, and an exhaustive path oracle that the quotient
dynamic programming must reproduce.

The oracle walks words in a fixed set of q^2 continuation moves: a
type-1 edge is a pair (M K, M a K) with a = diag(t, 1, ..., 1), and its
admissible continuations are exactly (M u K, M u a K) for the moves u
listed in ``continuation_moves``.  Invariants along a walk are read off
a row-reduced form of M maintained incrementally; the reduced row
degrees are the Birkhoff exponents.  ``birkhoff_invariant`` recomputes
the same exponents by the independent section-dimension route and the
test suite holds the two against each other.
"""

from __future__ import annotations

import os
from collections import Counter
from dataclasses import dataclass

from .algebra import (
    FiniteField,
    LaurentMatrix,
    laurent_deg,
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

    def __repr__(self) -> str:
        return f"VertexClass({self.rep!r})"


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
    f = u.field
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
    a = sorted(breakpoints, reverse=True)
    if dim == 3:
        return (a[0] - a[2], a[1] - a[2])
    return a[0] - a[1]


def quotient_edge_of(e: BDirectedEdge) -> shift_mod.QuotientEdge:
    """The sector edge under a type-1 building edge (dim 3).

    The endpoint invariants determine it; a non-sector-adjacent pair is
    an internal error, not a repairable condition.
    """
    if e.source.dim != 3:
        raise ValueError("quotient edges are defined for dim 3")
    sm, sn = birkhoff_invariant(e.source)
    tm, tn = birkhoff_invariant(e.target)
    qe = shift_mod.QuotientEdge(shift_mod.QVertex(sm, sn), shift_mod.QVertex(tm, tn))
    if not qe.is_valid():
        raise InternalConsistencyError(
            f"endpoint invariants ({sm},{sn}) -> ({tm},{tn}) are not sector-adjacent"
        )
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


def _move_col_recipes(field: FiniteField, dim: int):
    """Dense column recipes for the moves, in ``continuation_moves`` order.

    A recipe lists, per output column j, the (input column k, coefficient
    c, t-shift s) terms, one per nonzero c t^s in entry (k, j) of the
    move; right multiplication acts row by row.
    """
    return [
        tuple(
            tuple((k, c, s) for k in range(dim) for s, c in sorted(u.rows[k][j].items()))
            for j in range(dim)
        )
        for u in continuation_moves(field, dim)
    ]


_STRAIGHT = 0  # index of the move a itself within the recipe list


# ---------------------------------------------------------------------------
# Dense fast path: polynomials as coefficient lists, rows reduced in place
# ---------------------------------------------------------------------------


def _dense_identity(dim: int) -> list[list[list[int]]]:
    return [[[1] if i == j else [] for j in range(dim)] for i in range(dim)]


def _apply_move(rows, recipe, addt, mult):
    out = []
    for row in rows:
        new_row = []
        for terms in recipe:
            if len(terms) == 1:
                k, c, s = terms[0]
                ent = row[k]
                if not ent:
                    new_row.append([])
                elif c == 1:
                    new_row.append([0] * s + ent if s else list(ent))
                else:
                    mrow = mult[c]
                    new_row.append([0] * s + [mrow[x] for x in ent])
            else:
                acc: list[int] = []
                for k, c, s in terms:
                    ent = row[k]
                    if not ent:
                        continue
                    need = s + len(ent)
                    if len(acc) < need:
                        acc.extend([0] * (need - len(acc)))
                    mrow = mult[c]
                    for i, x in enumerate(ent):
                        if x:
                            j = s + i
                            acc[j] = addt[acc[j]][mrow[x]]
                while acc and not acc[-1]:
                    acc.pop()
                new_row.append(acc)
        out.append(new_row)
    return out


def _left_null_vector(lc, dim, mult, addt, negt, invt):
    """A nonzero c with c . lc = 0, or None when lc is invertible."""
    work = [[lc[i][j] for i in range(dim)] for j in range(dim)]  # transpose
    pivots: list[int] = []
    rank = 0
    for col in range(dim):
        piv = -1
        for r in range(rank, dim):
            if work[r][col]:
                piv = r
                break
        if piv < 0:
            continue
        work[rank], work[piv] = work[piv], work[rank]
        pr = work[rank]
        pinv = invt[pr[col]]
        if pinv != 1:
            mrow = mult[pinv]
            pr = [mrow[x] for x in pr]
            work[rank] = pr
        for r in range(dim):
            if r != rank and work[r][col]:
                mrow = mult[work[r][col]]
                wr = work[r]
                work[r] = [addt[a][negt[mrow[b]]] for a, b in zip(wr, pr)]
        pivots.append(col)
        rank += 1
    if rank == dim:
        return None
    free = next(c for c in range(dim) if c not in pivots)
    vec = [0] * dim
    vec[free] = 1
    for r, pc in enumerate(pivots):
        vec[pc] = negt[work[r][free]]
    return vec


def _reduce_rows(rows, dim, mult, addt, negt, invt):
    """Row-reduce in place over the polynomial ring; returns row degrees.

    Terminates because the degree sum strictly drops and is bounded
    below by deg det; on exit the leading-coefficient matrix is
    invertible, so the sorted row degrees are the Birkhoff exponents.
    """
    degs = [max(len(e) - 1 for e in row) for row in rows]
    if min(degs) < 0:
        raise InternalConsistencyError("zero row in a vertex representative")
    for _ in range(64 * (sum(degs) + 2)):
        lc = []
        for i in range(dim):
            d = degs[i]
            row = rows[i]
            lc.append([e[d] if len(e) - 1 == d else 0 for e in row])
        c = _left_null_vector(lc, dim, mult, addt, negt, invt)
        if c is None:
            return degs
        i_star = -1
        for i in range(dim):
            if c[i] and (i_star < 0 or degs[i] > degs[i_star]):
                i_star = i
        d_star = degs[i_star]
        new_row = []
        for j in range(dim):
            acc: list[int] = []
            for i in range(dim):
                ci = c[i]
                if not ci:
                    continue
                ent = rows[i][j]
                if not ent:
                    continue
                s = d_star - degs[i]
                need = s + len(ent)
                if len(acc) < need:
                    acc.extend([0] * (need - len(acc)))
                mrow = mult[ci]
                for idx, x in enumerate(ent):
                    if x:
                        p = s + idx
                        acc[p] = addt[acc[p]][mrow[x]]
            while acc and not acc[-1]:
                acc.pop()
            new_row.append(acc)
        if not any(new_row):
            raise InternalConsistencyError("row reduction produced a zero row")
        rows[i_star] = new_row
        degs[i_star] = max(len(e) - 1 for e in new_row)
    raise InternalConsistencyError("row reduction failed to terminate")


def _pair_from_degs(degs, dim):
    s = sorted(degs, reverse=True)
    if dim == 3:
        return (s[0] - s[2], s[1] - s[2])
    return s[0] - s[1]


def _rows_to_matrix(rows, field) -> LaurentMatrix:
    return LaurentMatrix(
        field,
        [[{e: c for e, c in enumerate(ent) if c} for ent in row] for row in rows],
    )


class _Walker:
    """Shared state for enumerating continuation words."""

    def __init__(self, field: FiniteField, dim: int):
        self.field = field
        self.dim = dim
        self.addt = field.add_table
        self.mult = field.mul_table
        self.negt = [field.neg(a) for a in range(field.q)]
        self.invt = field.inv_table
        self.recipes = _move_col_recipes(field, dim)

    def start(self):
        rows = _dense_identity(self.dim)
        return rows, [0] * self.dim

    def child(self, rows, recipe):
        nr = _apply_move(rows, recipe, self.addt, self.mult)
        nd = _reduce_rows(nr, self.dim, self.mult, self.addt, self.negt, self.invt)
        return nr, nd

    def walk_word(self, word):
        rows, degs = self.start()
        for j in word:
            rows, degs = self.child(rows, self.recipes[j])
        return rows, degs

    def classify(self, rows, degs) -> shift_mod.QuotientEdge:
        """Quotient edge of the building edge carried by rows (dim 3)."""
        src = _pair_from_degs(degs, self.dim)
        tr, td = self.child(rows, self.recipes[_STRAIGHT])
        tgt = _pair_from_degs(td, self.dim)
        qe = shift_mod.QuotientEdge(shift_mod.QVertex(*src), shift_mod.QVertex(*tgt))
        if not qe.is_valid():
            raise InternalConsistencyError(
                f"walk invariants {src} -> {tgt} are not sector-adjacent"
            )
        return qe


def _count_run(field: FiniteField, dim: int, n: int, prefix=()) -> tuple[int, int]:
    """(closed, first-return) counts over all continuation words of
    length n extending ``prefix``: closed counts words whose terminal
    source invariant is the origin, first-return additionally forbids
    interior visits."""
    wk = _Walker(field, dim)
    recipes = wk.recipes
    rows, degs = wk.start()
    interior = False
    depth = 0
    for j in prefix:
        rows, degs = wk.child(rows, recipes[j])
        depth += 1
        if sum(degs) != depth:
            raise InternalConsistencyError("degree sum drifted from word length")
        if depth < n and max(degs) == min(degs):
            interior = True

    g_total = 0
    f_total = 0

    def rec(rows, degs, depth, interior):
        nonlocal g_total, f_total
        at_origin = max(degs) == min(degs)
        if depth == n:
            if at_origin:
                g_total += 1
                if not interior:
                    f_total += 1
            return
        if depth > 0 and at_origin:
            interior = True
        child = wk.child
        for recipe in recipes:
            nr, nd = child(rows, recipe)
            rec(nr, nd, depth + 1, interior)

    if depth == n:
        at_origin = max(degs) == min(degs)
        return (1 if at_origin else 0, 1 if at_origin and not interior else 0)
    rec(rows, degs, depth, interior)
    return g_total, f_total


def _count_worker(args):
    q, irreducible, dim, n, prefix = args
    field = FiniteField(q, irreducible)
    return _count_run(field, dim, n, prefix)


def oracle_g_f(
    q: int,
    n: int,
    dim: int = 3,
    max_leaves: int = DEFAULT_MAX_LEAVES,
    threads: int = 1,
    field: FiniteField | None = None,
) -> tuple[int, int]:
    """Exhaustive (closed, first-return) cycle counts over the origin in
    one sweep.  Refuses runs whose leaf count q^(2n) (dim 3) or q^n
    (dim 2) exceeds ``max_leaves``."""
    if n < 1:
        raise ValueError("n must be >= 1")
    if field is None:
        field = FiniteField(q)
    leaves = (q * q) ** n if dim == 3 else q**n
    if leaves > max_leaves:
        raise BudgetExceededError(leaves, max_leaves)
    n_moves = q * q if dim == 3 else q
    if threads > 1 and n >= 2:
        from concurrent.futures import ProcessPoolExecutor

        tasks = [(q, field.irreducible, dim, n, (j,)) for j in range(n_moves)]
        g_total = f_total = 0
        workers = min(threads, len(tasks), os.cpu_count() or 1)
        with ProcessPoolExecutor(max_workers=workers) as pool:
            for g, f in pool.map(_count_worker, tasks):
                g_total += g
                f_total += f
        return g_total, f_total
    return _count_run(field, dim, n)


def oracle_counts(
    q: int,
    n: int,
    dim: int = 3,
    first_return: bool = False,
    max_leaves: int = DEFAULT_MAX_LEAVES,
    threads: int = 1,
    field: FiniteField | None = None,
) -> int:
    """Brute-force count of length-n cycles over the origin (closed, or
    first-return when requested), by exhaustive admissible-path
    enumeration in the building."""
    g, f = oracle_g_f(q, n, dim, max_leaves, threads, field)
    return f if first_return else g


def oracle_terminal_profile(
    q: int, n: int, max_leaves: int = DEFAULT_MAX_LEAVES, field: FiniteField | None = None
) -> dict[shift_mod.QuotientEdge, int]:
    """Distribution of terminal quotient edges over all length-n words
    (dim 3); the building-side mirror of one DP endpoint profile."""
    if field is None:
        field = FiniteField(q)
    leaves = (q * q) ** n
    if leaves > max_leaves:
        raise BudgetExceededError(leaves, max_leaves)
    wk = _Walker(field, 3)
    out: Counter = Counter()

    def rec(rows, degs, depth):
        if depth == n:
            out[wk.classify(rows, degs)] += 1
            return
        for recipe in wk.recipes:
            nr, nd = wk.child(rows, recipe)
            rec(nr, nd, depth + 1)

    rows, degs = wk.start()
    rec(rows, degs, 0)
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
    if field is None:
        field = FiniteField(q)
    wk = _Walker(field, 3)
    rows, degs = wk.start()
    start = wk.classify(rows, degs)
    lifts = {start: rows}
    census: dict[shift_mod.QuotientEdge, dict[shift_mod.QuotientEdge, int]] = {}
    frontier = [start]
    while frontier:
        nxt = []
        for qe in frontier:
            if max(qe.source.m, qe.target.m) > m_max:
                continue
            rows = lifts[qe]
            succs: Counter = Counter()
            for recipe in wk.recipes:
                nr, nd = wk.child(rows, recipe)
                child_qe = wk.classify(nr, nd)
                succs[child_qe] += 1
                if child_qe not in lifts:
                    lifts[child_qe] = nr
                    nxt.append(child_qe)
            census[qe] = dict(succs)
        frontier = nxt
    if with_lifts:
        return census, {qe: _rows_to_matrix(r, field) for qe, r in lifts.items()}
    return census


def find_lift(
    q: int, k2: int, l2: int, m_max: int, field: FiniteField | None = None
) -> BDirectedEdge | None:
    """One concrete building edge over the quotient edge named (k2/2,
    l2/2), or None when the breadth-first search does not reach it."""
    if field is None:
        field = FiniteField(q)
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
    the successor multiset observed at that node against the first
    observation for the same quotient edge; returns human-readable
    mismatch descriptions (empty means the property holds).
    """
    if field is None:
        field = FiniteField(q)
    wk = _Walker(field, 3)
    reference: dict = {}
    mismatches: list[str] = []

    def rec(rows, degs, word):
        qe = wk.classify(rows, degs)
        children = []
        succs: Counter = Counter()
        for recipe in wk.recipes:
            nr, nd = wk.child(rows, recipe)
            children.append((nr, nd))
            succs[wk.classify(nr, nd)] += 1
        if qe in reference:
            if reference[qe] != succs:
                mismatches.append(
                    f"word {word}: edge {qe.pretty()} saw {dict(succs)} vs {dict(reference[qe])}"
                )
        else:
            reference[qe] = succs
        if len(word) < max_len:
            for j, (nr, nd) in enumerate(children):
                rec(nr, nd, word + (j,))

    rows, degs = wk.start()
    rec(rows, degs, ())
    return mismatches


def oracle_path_vertices(
    q: int, n: int, stride: int = 1, field: FiniteField | None = None
) -> list[LaurentMatrix]:
    """Raw vertex representatives visited by the depth-n enumeration
    (every stride-th node in depth-first order), as plain matrices.
    Used to sample genuine vertices for invariant robustness checks."""
    if field is None:
        field = FiniteField(q)
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
    field = mat.field
    dim = mat.dim
    if mat.min_entry_exponent() < 0:
        raise ValueError("row-reduction path expects polynomial entries")
    rows = [
        [
            [ent.get(e, 0) for e in range(int(laurent_deg(ent)) + 1)] if ent else []
            for ent in row
        ]
        for row in mat.rows
    ]
    negt = [field.neg(a) for a in range(field.q)]
    degs = _reduce_rows(rows, dim, field.mul_table, field.add_table, negt, field.inv_table)
    return _pair_from_degs(degs, dim)
