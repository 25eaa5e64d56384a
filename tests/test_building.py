"""Building-side ground truth: classes, neighbors, invariants, oracle."""

import random
from collections import Counter

import pytest

from buildingflow import building, shift
from buildingflow.algebra import FiniteField, LaurentMatrix, laurent_mul
from buildingflow.building import (
    BDirectedEdge,
    VertexClass,
    are_adjacent,
    base_edge,
    birkhoff_invariant,
    class_equal,
    continuation_moves,
    diag_vertex,
    divisor_profile,
    fast_invariant,
    geodesic_continuations,
    origin,
    quotient_edge_of,
    up_neighbors,
    vertex_type,
)
from buildingflow.errors import BudgetExceededError

F2 = FiniteField(2)
F3 = FiniteField(3)


def test_vertex_type_examples():
    assert vertex_type(origin(F2)) == 0
    assert vertex_type(diag_vertex(F2, [1, 0, 0])) == 1
    assert vertex_type(diag_vertex(F2, [1, 1, 0])) == 2


def test_class_equal_examples():
    g = diag_vertex(F3, [2, 1, 0])
    kappa = LaurentMatrix(F3, [[{0: 1}, {}, {}], [{0: 2}, {0: 1}, {}], [{0: 1}, {0: 2}, {0: 1}]])
    assert class_equal(g, VertexClass(g.rep @ kappa))
    assert class_equal(origin(F2), VertexClass(LaurentMatrix.diag_powers(F2, [1, 1, 1])))
    assert not class_equal(origin(F2), diag_vertex(F2, [1, 0, 0]))
    # compact-side unit with t^{-1} tails is absorbed too
    u = LaurentMatrix(F3, [[{0: 1}, {-1: 2}, {-2: 1}], [{}, {0: 2}, {-1: 1}], [{}, {}, {0: 1}]])
    assert class_equal(g, VertexClass(g.rep @ u))


def test_class_equal_reflexive_symmetric():
    rng = random.Random(5)
    verts = building.oracle_path_vertices(2, 2)
    sample = [VertexClass(m) for m in verts]
    for v in sample:
        assert class_equal(v, v)
    for _ in range(30):
        u, w = rng.choice(sample), rng.choice(sample)
        assert class_equal(u, w) == class_equal(w, u)


def test_divisor_profile_examples():
    o = origin(F2)
    assert divisor_profile(o, diag_vertex(F2, [1, 0, 0])) == (0, 1, 1)
    assert divisor_profile(o, diag_vertex(F2, [1, 1, 0])) == (0, 0, 1)
    assert divisor_profile(o, diag_vertex(F2, [2, 0, 0])) == (0, 2, 2)


def test_are_adjacent_examples():
    o = origin(F2)
    assert are_adjacent(o, diag_vertex(F2, [1, 0, 0]))
    assert are_adjacent(o, diag_vertex(F2, [1, 1, 0]))
    assert not are_adjacent(o, diag_vertex(F2, [2, 0, 0]))
    # symmetry on a handful of pairs
    verts = [VertexClass(m) for m in building.oracle_path_vertices(2, 2)]
    for u in verts[:6]:
        for w in verts[:6]:
            if not class_equal(u, w):
                assert are_adjacent(u, w) == are_adjacent(w, u)


@pytest.mark.parametrize("q,dim,count", [(2, 3, 7), (3, 3, 13), (3, 2, 4), (2, 2, 3)])
def test_up_neighbors_counts(q, dim, count):
    f = FiniteField(q)
    v = origin(f, dim)
    nbrs = up_neighbors(v)
    assert len(nbrs) == count
    for w in nbrs:
        assert vertex_type(w) == 1
        assert are_adjacent(v, w)
    for i in range(len(nbrs)):
        for j in range(i + 1, len(nbrs)):
            assert not class_equal(nbrs[i], nbrs[j])


def test_up_neighbors_contains_straight_step():
    nbrs = up_neighbors(origin(F2))
    straight = diag_vertex(F2, [1, 0, 0])
    assert any(class_equal(w, straight) for w in nbrs)


def test_geodesic_continuations_counts():
    e0 = base_edge(F2)
    conts = geodesic_continuations(e0)
    assert len(conts) == 4
    straight = diag_vertex(F2, [2, 0, 0])
    assert sum(class_equal(c.target, straight) for c in conts) == 1
    e0_tree = base_edge(F3, dim=2)
    assert len(geodesic_continuations(e0_tree)) == 3


def test_moves_match_continuations_two_levels():
    """The move matrices generate exactly the geodesic continuations."""
    for q in (2, 3):
        f = FiniteField(q)
        moves = continuation_moves(f)
        e0 = base_edge(f)
        conts = geodesic_continuations(e0)
        assert len(moves) == len(conts) == q * q
        a = building.std_step(f)
        for mv in moves:
            src, tgt = VertexClass(mv), VertexClass(mv @ a)
            assert class_equal(src, e0.target)
            hits = [c for c in conts if class_equal(c.target, tgt)]
            assert len(hits) == 1
        if q == 2:
            # one level deeper on a single branch
            mv0 = moves[1]
            e1 = BDirectedEdge(VertexClass(mv0), VertexClass(mv0 @ a))
            conts2 = geodesic_continuations(e1)
            for mv in moves:
                m2 = mv0 @ mv
                tgt = VertexClass(m2 @ a)
                assert sum(class_equal(c.target, tgt) for c in conts2) == 1


# ---------------------------------------------------------------------------
# Birkhoff invariant
# ---------------------------------------------------------------------------


def _independent_rank_mod_p(rows, ncols, p):
    """Plain fraction-free elimination, sharing no code with the package."""
    work = [list(r) for r in rows]
    rank = 0
    for col in range(ncols):
        piv = None
        for i in range(rank, len(work)):
            if work[i][col] % p:
                piv = i
                break
        if piv is None:
            continue
        work[rank], work[piv] = work[piv], work[rank]
        inv = pow(work[rank][col], p - 2, p)
        work[rank] = [v * inv % p for v in work[rank]]
        for i in range(len(work)):
            if i != rank and work[i][col] % p:
                c = work[i][col]
                work[i] = [(a - c * b) % p for a, b in zip(work[i], work[rank])]
        rank += 1
    return rank


def _independent_section_dim(mat, k, extra, p):
    """dim of {polynomial rows x, deg <= D : deg(x . mat) <= k} by building
    the coefficient system from scratch with its own degree slack."""
    dim = mat.dim
    det, adj = mat.det_adj()
    detdeg = max(det)
    maxadj = max(max(e) for row in adj.rows for e in row if e)
    maxrep = max(max(e) for row in mat.rows for e in row if e)
    D = k + maxadj - detdeg + extra
    if D < 0:
        return 0
    ncols = dim * (D + 1)
    rows = []
    for j in range(dim):
        for s in range(k + 1, D + maxrep + 1):
            row = [0] * ncols
            for i in range(dim):
                for e in range(D + 1):
                    row[i * (D + 1) + e] = mat.rows[i][j].get(s - e, 0)
            rows.append(row)
    return ncols - _independent_rank_mod_p(rows, ncols, p)


def test_birkhoff_examples():
    assert birkhoff_invariant(diag_vertex(F2, [5, 2, 0])) == (5, 2)
    for c in range(2):
        for d in range(2):
            m = LaurentMatrix(
                F2,
                [
                    [{-1: 1}, {}, {0: c} if c else {}],
                    [{}, {-1: 1}, {0: d} if d else {}],
                    [{}, {}, {0: 1}],
                ],
            )
            assert birkhoff_invariant(VertexClass(m)) == (1, 0)


def test_birkhoff_derived_f3_example():
    """diag(t,1,1) . [[1,2t,0],[0,t,0],[0,0,1]] over F_3, cross-checked
    against an independent section-dimension evaluation."""
    m = LaurentMatrix.diag_powers(F3, [1, 0, 0]) @ LaurentMatrix(
        F3, [[{0: 1}, {1: 2}, {}], [{}, {1: 1}, {}], [{}, {}, {0: 1}]]
    )
    v = VertexClass(m)
    got = birkhoff_invariant(v)
    assert got in ((2, 0), (1, 1))
    assert got == (1, 1)
    assert birkhoff_invariant(v, degree_margin=3) == got
    assert vertex_type(v) == (got[0] + got[1]) % 3
    # the target vertex is sector-adjacent to the straight-step vertex (1,0)
    assert shift.QVertex(*got) in shift.sector_neighbors(shift.QVertex(1, 0))
    # independent evaluation of the section dimensions, with extra slack;
    # raw exponents = normalized pair plus the common shift fixed by deg det
    det, _ = m.det_adj()
    shift_j = (max(det) - got[0] - got[1]) // 3
    a = [got[0] + shift_j, got[1] + shift_j, shift_j]
    for k in range(-1, 4):
        want = sum(max(0, k - ai + 1) for ai in a)
        assert _independent_section_dim(m, k, 3, 3) == want


def test_birkhoff_fast_path_agreement():
    """Section dimensions and row reduction agree on every short walk."""
    for q, depth in ((2, 3), (3, 2)):
        f = FiniteField(q)
        for m in building.oracle_path_vertices(q, depth):
            assert birkhoff_invariant(VertexClass(m)) == fast_invariant(m)


def _random_unimodular_poly(f, rng, dim=3):
    """Product of elementary row operations over F_q[t]: unit determinant."""
    m = LaurentMatrix.identity(f, dim)
    for _ in range(6):
        i, j = rng.sample(range(dim), 2)
        coeff = rng.randrange(1, f.q)
        deg = rng.randint(0, 2)
        rows = [[dict(e) for e in row] for row in LaurentMatrix.identity(f, dim).rows]
        rows[i][j] = {deg: coeff}
        m = m @ LaurentMatrix(f, rows)
    return m


def _random_compact_unit(f, rng, dim=3):
    """Invertible constant part plus t^{-1} tails: a unit of the compact."""
    while True:
        const = [[rng.randrange(f.q) for _ in range(dim)] for _ in range(dim)]
        cm = LaurentMatrix(f, [[{0: c} if c else {} for c in row] for row in const])
        det, _ = cm.det_adj()
        if det:
            break
    rows = [
        [
            dict(cm.rows[i][j])
            for j in range(dim)
        ]
        for i in range(dim)
    ]
    for i in range(dim):
        for j in range(dim):
            for e in (-1, -2):
                c = rng.randrange(f.q)
                if c and rng.random() < 0.4:
                    rows[i][j][e] = c
    return LaurentMatrix(f, rows)


def test_birkhoff_invariance_quick():
    rng = random.Random(42)
    mats = building.oracle_path_vertices(2, 3, stride=17)
    for m in mats[:5]:
        v = VertexClass(m)
        want = birkhoff_invariant(v)
        for _ in range(3):
            gamma = _random_unimodular_poly(F2, rng)
            assert birkhoff_invariant(VertexClass(gamma @ m)) == want
            kappa = _random_compact_unit(F2, rng)
            assert birkhoff_invariant(VertexClass(m @ kappa)) == want
        assert birkhoff_invariant(VertexClass(m.scale_monomial(2))) == want


def test_quotient_edge_of_examples():
    e0 = base_edge(F2)
    assert quotient_edge_of(e0) == shift.base_edge()
    a2 = BDirectedEdge(diag_vertex(F2, [1, 0, 0]), diag_vertex(F2, [2, 0, 0]))
    assert (quotient_edge_of(a2).k2, quotient_edge_of(a2).l2) == (3, 0)
    census = Counter(
        (quotient_edge_of(c).k2, quotient_edge_of(c).l2)
        for c in geodesic_continuations(e0)
    )
    assert census == Counter({(3, 0): 1, (2, 1): 3})


# ---------------------------------------------------------------------------
# Oracle
# ---------------------------------------------------------------------------


def test_oracle_counts_examples():
    assert building.oracle_counts(2, 3) == 24
    assert building.oracle_counts(2, 6, first_return=True) == 960
    assert building.oracle_counts(2, 4) == 0
    assert building.oracle_counts(2, 5) == 0


def test_oracle_matches_dp_small():
    for q in (2, 3):
        g, f = building.oracle_g_f(q, 3)
        assert g == shift.dp_g(q, 3)
        assert f == shift.dp_f(q, 3)


def test_oracle_budget_refusal():
    with pytest.raises(BudgetExceededError) as err:
        building.oracle_counts(2, 9, max_leaves=1000)
    assert err.value.leaves == 4**9


def test_oracle_threads_merge():
    assert building.oracle_g_f(2, 4, threads=2) == building.oracle_g_f(2, 4)


def test_oracle_pool_clamped_to_cpu_count(monkeypatch):
    import concurrent.futures

    sizes = []

    class InProcessPool:
        def __init__(self, max_workers):
            sizes.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, tasks):
            return map(fn, tasks)

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", InProcessPool)
    monkeypatch.setattr(building.os, "cpu_count", lambda: 1)
    assert building.oracle_g_f(2, 3, threads=8) == (24, 24)
    assert sizes == [1]


def test_oracle_terminal_profile_matches_dp():
    prof = building.oracle_terminal_profile(2, 3)
    assert prof == shift.dp_profiles(2, 3)[3]


def test_census_examples():
    census = building.oracle_transition_census(2, 3)
    base = shift.base_edge()
    assert {(e.k2, e.l2): w for e, w in census[base].items()} == {(3, 0): 1, (2, 1): 3}
    dd = shift.QuotientEdge.from_doubled(1, 1)
    assert {(e.k2, e.l2): w for e, w in census[dd].items()} == {(1, 0): 4}
    for e, succs in census.items():
        assert sum(succs.values()) == 4


def test_census_equals_fold_rule_small():
    for q in (2, 3):
        assert building.oracle_transition_census(q, 4) == shift.build_graph(q, 4)


def test_find_lift():
    lift = building.find_lift(2, 4, 3, m_max=3)  # e(2, 3/2)
    assert lift is not None
    assert birkhoff_invariant(lift.source) == (2, 1)
    assert birkhoff_invariant(lift.target) == (2, 2)
    assert building.find_lift(2, 1, 0, m_max=3) is not None


def test_prefix_independence_short():
    assert building.oracle_prefix_mismatches(2, 4) == []


def test_path_invariants_along_walks():
    """Along every depth-3 walk: types step by one, the invariant matches
    the type, and successive invariants are sector-adjacent."""
    f = FiniteField(2)
    moves = continuation_moves(f)
    a = building.std_step(f)

    def walk(mat, depth, prev_pair):
        v = VertexClass(mat)
        pair = birkhoff_invariant(v)
        assert vertex_type(v) == (pair[0] + pair[1]) % 3 == depth % 3
        if prev_pair is not None:
            assert shift.QVertex(*pair) in shift.sector_neighbors(shift.QVertex(*prev_pair))
        if depth == 3:
            return
        for mv in moves:
            walk(mat @ mv, depth + 1, pair)

    walk(LaurentMatrix.identity(f, 3), 0, None)
    # the vertex one step past a walk is its target: also sector-adjacent
    m = moves[1] @ moves[2]
    assert shift.QVertex(*birkhoff_invariant(VertexClass(m @ a))) in shift.sector_neighbors(
        shift.QVertex(*birkhoff_invariant(VertexClass(m)))
    )


# ---------------------------------------------------------------------------
# dim 2 (tree)
# ---------------------------------------------------------------------------


def test_tree_oracle_matches_closed():
    from buildingflow.analysis import pgl2_closed

    for q in (2, 3):
        for n in (2, 4, 6):
            g, f = building.oracle_g_f(q, n, dim=2)
            assert g == pgl2_closed(q, n, "g")
            assert f == pgl2_closed(q, n, "f")
        assert building.oracle_counts(q, 3, dim=2) == 0


def test_tree_invariant_is_distance():
    f = FiniteField(3)
    assert birkhoff_invariant(diag_vertex(f, [4, 1])) == 3
    assert birkhoff_invariant(origin(f, 2)) == 0
    m = LaurentMatrix(f, [[{1: 1}, {2: 1}], [{}, {1: 1}]])
    assert birkhoff_invariant(VertexClass(m)) == fast_invariant(m) == 0
