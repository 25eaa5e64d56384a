"""Ground truth in the building itself.

Vertices are classes of invertible Laurent-polynomial matrices modulo
scalars and the maximal compact (entries of valuation >= 0, unit
determinant); dim 3 gives the two-dimensional building, dim 2 the
(q+1)-regular tree.  This module provides exact class tests, neighbor
enumeration, geodesic continuation, the Birkhoff invariant computed by
section dimensions, and an exhaustive path oracle that the quotient
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

An edge of the walk is its source P and its reduced target R =
reduce(P a) with R's row degrees (formats in ``_Walker``), so its
quotient edge is read off two degree lists, and each of its q^2
continuations costs one reduction, of its own target.  ``_Walker.walk``
drives the count, the terminal profile and the prefix sweep depth
first, and the census expands breadth first by ``_Walker.successors``;
each reduces once per edge it visits: sum_{k<n} q^(2k) times for a
depth-n count, sum_{k<=n} for the depth-n terminal profile,
sum_{k<=max_len+1} for the prefix sweep and 1 + q^2 E for a census of
E quotient edges.  The packed (q = 2), sliced (q = 3) and table paths,
memoised or not, give the same representatives (see ``_reduce_rows``).
"""

from __future__ import annotations

import contextlib
import os
from collections import Counter
from dataclasses import dataclass

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


def _col_recipes(mats):
    """Dense column recipes for polynomial matrices: per output column j,
    the (input column k, coefficient c, t-shift s) terms, one per nonzero
    c t^s in entry (k, j); right multiplication acts row by row."""
    return [
        tuple(
            tuple((k, c, s) for k in range(u.dim) for s, c in sorted(u.rows[k][j].items()))
            for j in range(u.dim)
        )
        for u in mats
    ]


# ---------------------------------------------------------------------------
# Dense fast path: polynomials as coefficient lists, rows reduced in place
# ---------------------------------------------------------------------------


def _apply_move(rows, recipe, field: FiniteField):
    addt, mult = field.add_table, field.mul_table
    out = []
    for row in rows:
        new_row = []
        for terms in recipe:
            if len(terms) == 1 and terms[0][1] == 1:
                k, _, s = terms[0]
                ent = row[k]
                new_row.append([0] * s + ent if s and ent else list(ent))
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


def _finish_reduction(degs, detdeg):
    """Return degs once the leading-coefficient matrix is invertible,
    after checking that the reduced degree sum equals deg det."""
    if sum(degs) != detdeg:
        raise InternalConsistencyError(
            f"reduced row degrees {degs} do not sum to deg det = {detdeg}"
        )
    return degs


def _reduction_plan(key, dim, field: FiniteField):
    """None when the flattened leading-coefficient matrix ``key`` is
    invertible, else the support of a nonzero c with c . key = 0, as
    (index, entry) pairs: the first ``kernel_basis`` vector of key's
    transpose."""
    basis = kernel_basis(field, [key[j::dim] for j in range(dim)], dim)
    if not basis:
        return None
    return tuple((i, c) for i, c in enumerate(basis[0]) if c)


def _reduce_rows(rows, detdeg, field: FiniteField, plans=None):
    """Row-reduce in place over the polynomial ring; returns row degrees.

    ``detdeg`` is the t-degree of det(rows).  Each step lowers the
    degree sum by at least one, the sum never drops below deg det, and
    it equals deg det once the leading-coefficient matrix is invertible
    (then the sorted row degrees are the Birkhoff exponents); so at most
    sum(degs) - detdeg + 1 rounds are needed.

    ``plans`` maps a flattened leading-coefficient matrix to its
    ``_reduction_plan`` and is filled on first sight; without it every
    round solves afresh.  Either way the steps, and so the rows, are
    the same.
    """
    dim = len(rows)
    addt, mult = field.add_table, field.mul_table
    degs = [max(map(len, row)) - 1 for row in rows]
    if min(degs) < 0:
        raise InternalConsistencyError("zero row in a vertex representative")
    for _ in range(sum(degs) - detdeg + 1):
        key = tuple([e[d] if len(e) > d else 0 for row, d in zip(rows, degs) for e in row])
        if plans is None:
            plan = _reduction_plan(key, dim, field)
        else:
            try:
                plan = plans[key]
            except KeyError:
                plan = plans[key] = _reduction_plan(key, dim, field)
        if plan is None:
            return _finish_reduction(degs, detdeg)
        i_star = plan[0][0]
        for i, _ in plan:
            if degs[i] > degs[i_star]:
                i_star = i
        d_star = degs[i_star]
        terms = [(rows[i], d_star - degs[i], mult[c]) for i, c in plan]
        new_row = []
        for j in range(dim):
            acc: list[int] = []
            for row, s, mrow in terms:
                ent = row[j]
                if not ent:
                    continue
                need = s + len(ent)
                if len(acc) < need:
                    acc.extend([0] * (need - len(acc)))
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
        degs[i_star] = max(map(len, new_row)) - 1
    raise InternalConsistencyError(
        f"row reduction did not finish within its bound (deg det = {detdeg})"
    )


# ---------------------------------------------------------------------------
# Slot-packed formats: a q = 2 matrix in one int, a q = 3 matrix in two
# (Boothby & Bradshaw, arXiv:0901.1413)
# ---------------------------------------------------------------------------


class _SlotFormat:
    """Slot geometry of the packed formats: entry j of a row holds bits
    [j * width, (j + 1) * width) of the row, and row i of a matrix plane,
    or of a leading-coefficient key, sits at bit i * row_bits."""

    def __init__(self, field: FiniteField, dim: int, width: int):
        self.dim = dim
        self.width = width
        self.slot = (1 << width) - 1
        self.folds = tuple(range(width, dim * width, width))  # slots 1 .. dim - 1
        self.sel = sum(1 << (j * width) for j in range(dim))  # bit 0 of every slot
        self.row_bits = rb = dim * width
        self.offs = tuple(range(0, dim * rb, rb))
        self.row_masks = [((1 << rb) - 1) << off for off in self.offs]
        self.col0 = sum(self.slot << off for off in self.offs)  # slot 0 of every row
        self.field = field

    def plan(self, key: int):
        """``_reduction_plan`` of a packed leading-coefficient pattern: the
        null vector's support as (row, swap) pairs, swap when the entry
        is 2, or None when the pattern is invertible."""
        dim, w = self.dim, self.width
        lc = [key >> (i * self.row_bits + j * w) & 3 for i in range(dim) for j in range(dim)]
        plan = _reduction_plan(lc, dim, self.field)
        if plan is None:
            return None
        return tuple((i, c == 2) for i, c in plan)


def _slot_moves(recipes, fmt: _SlotFormat, planes: int):
    """Column recipes compiled for a packed matrix of ``planes`` planes.

    Term (k, c, s) of output column j moves slot k of every row by
    (j - k) * width + s bits, and multiplying by c = 2 swaps the planes.
    The r-th terms of the columns form layer r; their target slots are
    disjoint, so a layer is an OR of masked shifts, one per distinct shift
    and swap, and the move is the sum of its layers.  Returns the distinct
    (mask, shift) pieces of all the moves, and per move: at one plane the
    indices of its pieces, to be XORed; at two, its layers, each a tuple
    of (index, index) into the pieces cut as [p0, m0, p1, m1, ...], the
    plane pair that lands on (p, m), to be ORed and then added in GF(3).
    """
    pieces: dict = {}
    moves = []
    for recipe in recipes:
        layers: list[dict] = []
        for j, terms in enumerate(recipe):
            for r, (k, c, s) in enumerate(terms):
                if r == len(layers):
                    layers.append({})
                key = ((j - k) * fmt.width + s, c == 2)
                layers[r][key] = layers[r].get(key, 0) | fmt.col0 << (k * fmt.width)
        layers = [
            [(pieces.setdefault((mask, sh), len(pieces)), swap) for (sh, swap), mask in ly.items()]
            for ly in layers
        ]
        if planes == 1:
            moves.append(tuple(i for ly in layers for i, _ in ly))
        else:
            moves.append(
                tuple(tuple((2 * i + swap, 2 * i + 1 - swap) for i, swap in ly) for ly in layers)
            )
    return tuple(pieces), moves


def _reduce_gf2(mat, detdeg, fmt: _SlotFormat, plans: dict):
    """``_reduce_rows`` over GF(2)[t] on a packed matrix, step for step;
    returns the reduced matrix and its row degrees.

    Row i of degree d contributes mat >> (i * row_bits + d) & sel at bit
    i * row_bits of the key: one bit per entry, its coefficient of t^d.
    ``plans`` maps a key to ``fmt.plan`` of it.  A step XORs the plan's
    other rows, shifted, into the pivot row, and only that row's key
    bits change.
    """
    folds, slot, sel, offs, row_masks = fmt.folds, fmt.slot, fmt.sel, fmt.offs, fmt.row_masks
    f = mat
    for s in folds:
        f |= mat >> s
    degs = []
    key = 0
    for off in offs:
        d = (f >> off & slot).bit_length() - 1
        if d < 0:
            raise InternalConsistencyError("zero row in a vertex representative")
        degs.append(d)
        key |= (mat >> (off + d) & sel) << off
    for _ in range(sum(degs) - detdeg + 1):
        try:
            plan = plans[key]
        except KeyError:
            plan = plans[key] = fmt.plan(key)
        if plan is None:
            return mat, _finish_reduction(degs, detdeg)
        i_star = plan[0][0]
        for i, _ in plan:
            if degs[i] > degs[i_star]:
                i_star = i
        d_star = degs[i_star]
        at = offs[i_star]
        for i, _ in plan:
            if i != i_star:
                sh = at - offs[i] + d_star - degs[i]
                x = mat & row_masks[i]
                mat ^= x << sh if sh >= 0 else x >> -sh
        row = mat >> at & row_masks[0]
        f = row
        for s in folds:
            f |= row >> s
        d = (f & slot).bit_length() - 1
        if d < 0:
            raise InternalConsistencyError("row reduction produced a zero row")
        degs[i_star] = d
        key = key & ~row_masks[i_star] | (row >> d & sel) << at
    raise InternalConsistencyError(
        f"row reduction did not finish within its bound (deg det = {detdeg})"
    )


def _reduce_gf3(mat, detdeg, fmt: _SlotFormat, plans: dict):
    """``_reduce_rows`` over GF(3)[t] on a sliced matrix (p, m), step for
    step; returns the reduced matrix and its row degrees.

    Row i of degree d contributes (p >> d & sel) | (m >> d & sel) << 1,
    read from the row, at bit i * row_bits of the key: two bits per
    entry, its coefficient of t^d.  ``plans`` maps a key to ``fmt.plan``
    of it.  A step sums the plan's rows, shifted and doubled as it says,
    into the pivot row, and only that row's key bits change.
    """
    folds, slot, sel, offs, row_masks = fmt.folds, fmt.slot, fmt.sel, fmt.offs, fmt.row_masks
    rm = row_masks[0]
    p, m = mat
    f = x = p | m
    for s in folds:
        f |= x >> s
    degs = []
    key = 0
    for off in offs:
        d = (f >> off & slot).bit_length() - 1
        if d < 0:
            raise InternalConsistencyError("zero row in a vertex representative")
        degs.append(d)
        key |= ((p >> (off + d) & sel) | (m >> (off + d) & sel) << 1) << off
    for _ in range(sum(degs) - detdeg + 1):
        try:
            plan = plans[key]
        except KeyError:
            plan = plans[key] = fmt.plan(key)
        if plan is None:
            return (p, m), _finish_reduction(degs, detdeg)
        i_star = plan[0][0]
        for i, _ in plan:
            if degs[i] > degs[i_star]:
                i_star = i
        d_star = degs[i_star]
        zp = None
        for i, swap in plan:
            x = p >> offs[i] & rm
            y = m >> offs[i] & rm
            if swap:
                x, y = y, x
            s = d_star - degs[i]
            if s:
                x <<= s
                y <<= s
            if zp is None:
                zp, zm = x, y
            else:
                t = (zp | y) ^ (zm | x)
                zp, zm = (zm | y) ^ t, (zp | x) ^ t
        f = x = zp | zm
        for s in folds:
            f |= x >> s
        d = (f & slot).bit_length() - 1
        if d < 0:
            raise InternalConsistencyError("row reduction produced a zero row")
        degs[i_star] = d
        at = offs[i_star]
        keep = ~row_masks[i_star]
        p = p & keep | zp << at
        m = m & keep | zm << at
        key = key & keep | ((zp >> d & sel) | (zm >> d & sel) << 1) << at
    raise InternalConsistencyError(
        f"row reduction did not finish within its bound (deg det = {detdeg})"
    )


def _pair_from_degs(degs, dim):
    s = sorted(degs, reverse=True)
    if dim == 3:
        return (s[0] - s[2], s[1] - s[2])
    return s[0] - s[1]


class _Walker:
    """Shared state for walking type-1 edges by continuation words.

    An edge is (P, R, degs): P a row-reduced representative of the
    source vertex a word reaches, R = reduce(P a) one of the target, and
    degs R's row degrees.  A word of length k gives det P t-degree k,
    since every move's det has degree 1, so the edge's depth k is
    sum(degs) - 1.  Only the walker reads P and R:

    - q = 2: the whole matrix is one int, bit i * row_bits + j * width + e
      set when entry (i, j) has coefficient 1 at t^e, row_bits being
      dim * width;
    - q = 3: the whole matrix is a pair of ints (p, m) in the same
      layout, the bit set in p (in m) when the coefficient is 1 (2);
    - else: each entry is a list of field elements, lowest degree first.

    ``start`` gives the base edge (the empty word) and ``successors`` the
    q^2 continuations of an edge in ``continuation_moves`` order; ``walk``
    drives both depth first.  Each move is u_j = a X_j, a the straight
    move, and the walker raises ``InternalConsistencyError`` unless each
    X_j = a^-1 u_j is constant and invertible over F_q.  Then LC(M X_j) =
    LC(M) X_j keeps the row space of LC's transpose, so its RREF, the null
    vector ``_reduction_plan`` takes from it and every round's step: so
    reduce(P u_j) = R X_j, with R's row degrees.  Continuation j is the
    edge out of R X_j, and its target costs one reduction; at q = 2 and
    3 each R X_j sums pieces cut from R once.  The quotient edge of a
    continuation is ``quotient(degs, its degs)``, with no reduction.

    ``bound`` is the depth of the deepest target the walk reduces.  Every
    entry of a vertex at depth D has degree <= D: the reduced row degrees
    are >= 0 and sum to D, a move raises an entry's degree by at most
    one, and a reduction step never past the largest row degree.  So at
    q = 2 and 3 slots of width = bound + 1 bits hold every entry the walk
    makes, and a target past ``bound`` is refused with
    ``InternalConsistencyError`` rather than spilled into the next slot.

    ``plans`` memoises the reduction plan by leading-coefficient matrix
    (flattened, or packed at q = 2 and 3), filled as the walk first meets
    each one.  It holds at most min(q^(dim^2), reduction rounds walked)
    entries; the rounds are bounded by what bounds the walk
    (``max_leaves`` for the counting walks, ``m_max`` or ``max_len`` for
    the census and prefix sweeps), and the memo goes with the walker.
    """

    def __init__(self, field: FiniteField, dim: int, bound: int):
        self.field = field
        self.dim = dim
        self.bound = bound
        self.packed = field.q == 2
        self.sliced = field.q == 3
        self.plans: dict = {}
        a_inv = LaurentMatrix.diag_powers(field, [-1] + [0] * (dim - 1))
        mixes = [a_inv @ u for u in continuation_moves(field, dim)]
        for x in mixes:
            if any(set(e) - {0} for r in x.rows for e in r) or not x.det_adj()[0]:
                raise InternalConsistencyError("a move is not a times a constant invertible matrix")
        mixes = _col_recipes(mixes)
        if self.packed or self.sliced:
            self.fmt = fmt = _SlotFormat(field, dim, bound + 1)
            self.pieces, self.moves = _slot_moves(mixes, fmt, 1 if self.packed else 2)
        else:
            [self.step] = _col_recipes([std_step(field, dim)])
            self.moves = mixes

    def start(self):
        """The base edge: the identity and reduce(a)."""
        if self.packed or self.sliced:
            ones = sum(1 << (off + j * self.fmt.width) for j, off in enumerate(self.fmt.offs))
            rows = ones if self.packed else (ones, 0)
        else:
            rows = [[[1] if i == j else [] for j in range(self.dim)] for i in range(self.dim)]
        return self._edges([rows], 1)[0]

    def _edges(self, sources, depth):
        """The edges (P, reduce(P a), its row degrees) out of the reduced
        sources P, whose targets lie at ``depth``."""
        out = []
        if not (self.packed or self.sliced):
            for rows in sources:
                mat = _apply_move(rows, self.step, self.field)
                out.append((rows, mat, _reduce_rows(mat, depth, self.field, self.plans)))
            return out
        fmt, plans = self.fmt, self.plans
        if depth > self.bound:
            raise InternalConsistencyError(
                f"depth {depth} overflows the {fmt.width}-bit slots sized for depth {self.bound}"
            )
        # P a is P with column 0 times t: slot 0 of every row moves up one
        # bit, and stays in its slot, as every entry of P has degree < bound
        c0 = fmt.col0
        if self.packed:
            for z in sources:
                mat, degs = _reduce_gf2(z + (z & c0), depth, fmt, plans)
                out.append((z, mat, degs))
        else:
            for src in sources:
                p, m = src
                mat, degs = _reduce_gf3((p + (p & c0), m + (m & c0)), depth, fmt, plans)
                out.append((src, mat, degs))
        return out

    def successors(self, edge, only=None):
        """The q^2 continuations of edge, in ``continuation_moves`` order:
        the edges out of R X_j, R the edge's target; with ``only`` = j,
        continuation j alone."""
        _, rows, degs = edge
        moves = self.moves if only is None else self.moves[only : only + 1]
        if self.packed:
            cut = [
                (rows & mask) << sh if sh >= 0 else (rows & mask) >> -sh
                for mask, sh in self.pieces
            ]
            sources = []
            for move in moves:
                z = 0
                for i in move:
                    z ^= cut[i]
                sources.append(z)
        elif self.sliced:
            p, m = rows
            cut = []
            for mask, sh in self.pieces:
                x, y = p & mask, m & mask
                cut += (x << sh, y << sh) if sh >= 0 else (x >> -sh, y >> -sh)
            sources = []
            for move in moves:
                zp = None
                for layer in move:
                    a = b = 0
                    for i, j in layer:
                        a |= cut[i]
                        b |= cut[j]
                    if zp is None:
                        zp, zm = a, b
                    else:  # (zp, zm) + (a, b) in GF(3), bit for bit
                        t = (zp | b) ^ (zm | a)
                        zp, zm = (zm | b) ^ t, (zp | a) ^ t
                sources.append((zp, zm))
        else:
            sources = [_apply_move(rows, recipe, self.field) for recipe in moves]
        return self._edges(sources, sum(degs) + 1)

    def walk(self, root, limit, only=None):
        """Depth first from ``root``, in ``continuation_moves`` order:
        yields (depth, edge, its successors) for every edge of depth
        < limit, so an edge at depth ``limit`` is seen only as a successor.
        With ``only`` = j the walk goes below root's continuation j alone,
        the one it builds and reduces."""
        stack = [root] if sum(root[2]) <= limit else []
        while stack:
            edge = stack.pop()
            succs = self.successors(edge, only)
            only = None
            depth = sum(edge[2]) - 1
            yield depth, edge, succs
            if depth + 1 < limit:
                stack += reversed(succs)

    def to_matrix(self, rows) -> LaurentMatrix:
        """The representative held in rows (an edge's P or R)."""
        if self.packed or self.sliced:
            p, m = (rows, 0) if self.packed else rows
            w = self.fmt.width
            rows = [
                [
                    [(p >> b & 1) | (m >> b & 1) << 1 for b in range(s, s + w)]
                    for s in range(off, off + self.dim * w, w)
                ]
                for off in self.fmt.offs
            ]
        return LaurentMatrix(
            self.field,
            [[{e: c for e, c in enumerate(ent) if c} for ent in row] for row in rows],
        )

    def quotient(self, src_degs, degs) -> shift_mod.QuotientEdge:
        """Quotient edge of an edge whose source and target have the row
        degrees src_degs and degs (dim 3)."""
        return _sector_edge(_pair_from_degs(src_degs, self.dim), _pair_from_degs(degs, self.dim))


def _count_run(field: FiniteField, dim: int, n: int, first=None) -> tuple[int, int]:
    """(closed, first-return) counts over the continuation words of
    length n, or, for n >= 2, over those whose first move is ``first``:
    closed counts the words that end at the origin, first-return also
    forbids interior visits.  A word ends at the target of the edge of
    its first n - 1 moves, so each edge at depth n - 1 whose target is
    the origin counts q^2 words, and the walk reduces only the edges of
    depth < n (of depth 1, only continuation ``first`` when it is set)."""
    wk = _Walker(field, dim, n)
    width, last = len(wk.moves), n - 1
    root = wk.start()
    if n == 1:  # the words end at the base edge's target
        return (width, width) if max(root[2]) == min(root[2]) else (0, 0)
    seen = [False] * (n + 1)  # seen[k]: the word's vertex at some depth 1 .. k is the origin
    g_total = f_total = 0
    for depth, (_, _, degs), succs in wk.walk(root, last, first):
        seen[depth + 1] = interior = seen[depth] or max(degs) == min(degs)
        if depth + 1 == last:
            for _, _, d in succs:
                if max(d) == min(d):
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


def _count_worker(args):
    q, irreducible, dim, n, first = args
    field = FiniteField(q, irreducible)
    return _count_run(field, dim, n, first)


class OraclePool:
    """A process pool that oracle walks share.

    It starts at the first ``map``, that is at the first walk that
    splits, with min(threads, tasks, cpu count) workers; ``tasks`` is
    the most subtrees a walk splits into (q^2 in dim 3, q in dim 2).
    Leaving the ``with`` block shuts it down.
    """

    def __init__(self, threads: int, tasks: int):
        self.workers = min(threads, tasks, os.cpu_count() or 1)
        self._stack = contextlib.ExitStack()
        self._pool = None

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self._stack.close()
        return False

    def map(self, fn, tasks):
        if self._pool is None:
            from concurrent.futures import ProcessPoolExecutor

            self._pool = self._stack.enter_context(ProcessPoolExecutor(max_workers=self.workers))
        return self._pool.map(fn, tasks)


def oracle_g_f(
    q: int,
    n: int,
    dim: int = 3,
    max_leaves: int = DEFAULT_MAX_LEAVES,
    threads: int = 1,
    field: FiniteField | None = None,
    *,
    pool: OraclePool | None = None,
) -> tuple[int, int]:
    """Exhaustive (closed, first-return) cycle counts over the origin in
    one sweep.  Refuses runs whose leaf count q^(2n) (dim 3) or q^n
    (dim 2) exceeds ``max_leaves``.  With threads > 1 the subtrees below
    the first move go to ``pool``, or to a pool of this walk's own."""
    if n < 1:
        raise ValueError("n must be >= 1")
    field = _field_for(q, field)
    leaves = oracle_leaves(q, n, dim)
    if leaves > max_leaves:
        raise BudgetExceededError(leaves, max_leaves)
    if threads > 1 and n >= 2:
        tasks = [(q, field.irreducible, dim, n, j) for j in range(oracle_leaves(q, 1, dim))]
        with contextlib.nullcontext(pool) if pool else OraclePool(threads, len(tasks)) as p:
            counts = list(p.map(_count_worker, tasks))
        return sum(g for g, _ in counts), sum(f for _, f in counts)
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
    if n < 0:
        raise ValueError("n must be >= 0")
    field = _field_for(q, field)
    leaves = oracle_leaves(q, n)
    if leaves > max_leaves:
        raise BudgetExceededError(leaves, max_leaves)
    wk = _Walker(field, 3, n + 1)  # a word's edge points one step past it
    root = wk.start()
    if n == 0:
        return {wk.quotient([0] * 3, root[2]): 1}
    out: Counter = Counter()
    for depth, (_, _, degs), succs in wk.walk(root, n):
        if depth == n - 1:
            for _, _, d in succs:
                out[wk.quotient(degs, d)] += 1
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
    # Each breadth-first level expands at least one new edge with m <= m_max,
    # so an expanded lift lies at depth < E, the number of such edges; its
    # successors lie at depth <= E, and their targets one step further.
    wk = _Walker(field, 3, len(shift_mod.all_valid_edges(m_max)) + 1)
    base = wk.start()
    start = wk.quotient([0] * 3, base[2])
    lifts = {start: base}
    census: dict[shift_mod.QuotientEdge, dict[shift_mod.QuotientEdge, int]] = {}
    frontier = [start]
    while frontier:
        nxt = []
        for qe in frontier:
            if max(qe.source.m, qe.target.m) > m_max:
                continue
            edge = lifts[qe]
            succs: Counter = Counter()
            for succ in wk.successors(edge):
                succ_qe = wk.quotient(edge[2], succ[2])
                succs[succ_qe] += 1
                if succ_qe not in lifts:
                    lifts[succ_qe] = succ
                    nxt.append(succ_qe)
            census[qe] = dict(succs)
        frontier = nxt
    if with_lifts:
        return census, {qe: wk.to_matrix(edge[0]) for qe, edge in lifts.items()}
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
    wk = _Walker(field, 3, max_len + 2)  # words of max_len, their successors' targets
    reference: dict = {}
    mismatches: list[str] = []
    # the depth-k edge on the path to the edge walked last (the walk is
    # depth first) has the source degrees src[k] and the last move move[k]
    src, move = [[0] * 3] * (max_len + 2), [-1] * (max_len + 2)
    for depth, (_, _, degs), succs in wk.walk(wk.start(), max_len + 1):
        move[depth] += 1
        move[depth + 1] = -1
        qe = wk.quotient(src[depth], degs)
        src[depth + 1] = degs
        seen = Counter(wk.quotient(degs, d) for _, _, d in succs)
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
    rows = [
        [
            [ent.get(e, 0) for e in range(int(laurent_deg(ent)) + 1)] if ent else []
            for ent in row
        ]
        for row in mat.rows
    ]
    det, _ = mat.det_adj()
    if not det:
        raise ValueError("singular representative")
    return _pair_from_degs(_reduce_rows(rows, int(laurent_deg(det)), mat.field), mat.dim)
