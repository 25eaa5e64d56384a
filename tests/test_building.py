"""Building-side ground truth: classes, neighbors, invariants, oracle."""

import functools
import random
from collections import Counter

import pytest

from buildingflow import analysis, building, shift
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
from buildingflow.errors import BudgetExceededError, InternalConsistencyError
from reference import popov, popov_key, popov_walk  # noqa: F401 (popov_walk is a fixture)

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
        for n in (1, 2, 3):
            g, f = building.oracle_g_f(q, n)
            assert g == shift.dp_g(q, n)
            assert f == shift.dp_f(q, n)


def test_oracle_budget_refusal():
    with pytest.raises(BudgetExceededError) as err:
        building.oracle_counts(2, 9, max_leaves=1000)
    assert err.value.leaves == 4**9


def test_oracle_leaves():
    assert building.oracle_leaves(2, 9) == 4**9
    assert building.oracle_leaves(3, 4, dim=2) == 3**4


@pytest.mark.parametrize(
    "call",
    [
        lambda f: building.oracle_g_f(3, 3, field=f),
        lambda f: building.oracle_counts(3, 3, dim=2, field=f),
        lambda f: building.oracle_terminal_profile(3, 3, field=f),
        lambda f: building.oracle_transition_census(3, 2, field=f),
        lambda f: building.find_lift(3, 1, 0, 2, field=f),
        lambda f: building.oracle_prefix_mismatches(3, 1, field=f),
        lambda f: building.oracle_path_vertices(3, 1, field=f),
    ],
    ids=["g_f", "counts-dim2", "terminal", "census", "lift", "prefix", "path"],
)
def test_oracle_refuses_a_field_of_another_size(call):
    # a q = 2 field walked under q = 3 once gave the q = 2 counts
    with pytest.raises(ValueError, match="q=3"):
        call(FiniteField(2))


@pytest.mark.parametrize(
    "call,match",
    [
        (lambda: building.oracle_g_f(2, 0), "n must be >= 1"),
        (lambda: building.oracle_terminal_profile(2, -1), "n must be >= 0"),
        (lambda: building.oracle_prefix_mismatches(2, -1), "max_len must be >= 0"),
        (lambda: building.oracle_transition_census(2, 1), "m_max must be >= 2"),
    ],
    ids=["g_f", "terminal", "prefix", "census"],
)
def test_oracle_refuses_a_length_below_its_walk(call, match):
    # a walk that expands nothing must not read as an empty profile or a pass
    with pytest.raises(ValueError, match=match):
        call()


def test_oracle_accepts_its_own_field():
    assert building.oracle_g_f(2, 3, field=FiniteField(2)) == (24, 24)


def _counting_reducer(monkeypatch):
    """Wrap ``_reduce_rows`` so that each call appends to the list
    returned."""
    calls = []
    reduce = building._reduce_rows

    def counting(*args):
        calls.append(None)
        return reduce(*args)

    monkeypatch.setattr(building, "_reduce_rows", counting)
    return calls


def _exhaustive_profile(q, n):
    """The depth-n terminal profile tallied over every word by
    ``_Walker.walk``, with no merging."""
    wk = building._Walker(FiniteField(q), 3)
    root = wk.start()
    if n == 0:
        return {wk.quotient([0] * 3, root[1]): 1}
    out = Counter()
    for depth, (_, degs), succs in wk.walk(root, n):
        if depth == n - 1:
            out.update(wk.quotient(degs, d) for _, d in succs)
    return dict(out)


@pytest.mark.parametrize(
    "q,n,m_max",
    [
        pytest.param(2, 6, 5, id="2-6-_reduce_rows"),
        pytest.param(3, 4, 5, id="3-4-_reduce_rows"),
        pytest.param(4, 3, 3, id="4-3-_reduce_rows"),
    ],
)
def test_oracle_reduces_each_node_once(q, n, m_max, monkeypatch):
    """Every exhaustive consumer reduces once per edge it visits, the
    target of each.  The depth-n count visits the sum_{k<n} q^(2k) edges
    of depth < n; the depth-n terminal profile those of depth <= n; the
    prefix sweep to max_len those of depth <= max_len + 1; the census the
    base edge and the q^2 continuations of each edge it tabulates."""
    calls = _counting_reducer(monkeypatch)

    def edges(depth):
        return sum(q ** (2 * k) for k in range(depth + 1))

    building._count_run(FiniteField(q), 3, n)
    assert len(calls) == edges(n - 1)
    calls.clear()
    _exhaustive_profile(q, n)
    assert len(calls) == edges(n)
    calls.clear()
    assert building.oracle_prefix_mismatches(q, n - 2) == []
    assert len(calls) == edges(n - 1)
    calls.clear()
    census = building.oracle_transition_census(q, m_max)
    assert len(calls) == 1 + q * q * len(census) == {2: 181, 3: 406, 4: 289}[q]


def test_prefix_sweep_reduction_count(monkeypatch):
    """The prefix sweep at (3, 2) visits the 820 edges of depth <= 3:
    it expands the 91 of depth <= 2 and reads each one's quotient edge
    and those of its 9 continuations off their targets' degrees, one
    reduction per edge."""
    calls = _counting_reducer(monkeypatch)
    assert building.oracle_prefix_mismatches(3, 2) == []
    assert len(calls) == 820 == sum(9**k for k in range(4))


def _reductions_per_state(q, n, reductions, monkeypatch):
    calls = _counting_reducer(monkeypatch)
    leaves = building.oracle_leaves(q, n)
    assert building.oracle_g_f(q, n, max_leaves=leaves) == (shift.dp_g(q, n), shift.dp_f(q, n))
    assert len(calls) == reductions
    calls.clear()
    wk = building._Walker(FiniteField(q), 3)
    states = sum(1 for _ in wk.merged(wk.start(), n - 1, horizon=n - 1))
    assert len(calls) == 1 + q * q * states == reductions


@pytest.mark.parametrize("q,n,reductions", [(2, 9, 169), (3, 6, 127), (2, 30, 4065), (3, 15, 1432)])
def test_merged_walk_reduces_once_per_state(q, n, reductions, monkeypatch):
    """The merged count reduces the base edge and the q^2 continuations
    of each state it expands, one per orbit key of the edges of depth <
    n - 1 that can still return by length n: 169 reductions at (2, 9)
    where the unpruned walk makes 321, the Popov-keyed walk 725 and the
    exhaustive walk 87,381, and 127 at (3, 6) against 217, 217 and
    66,430."""
    _reductions_per_state(q, n, reductions, monkeypatch)


@pytest.mark.parametrize("q,n,reductions", [(2, 9, 725), (3, 6, 217)])
def test_popov_walk_reduces_once_per_state(q, n, reductions, popov_walk, monkeypatch):
    """The same count with its states keyed by their targets' Popov
    forms, each the orbit of one target matrix, of which one orbit of
    edges holds many: more states, more reductions, the same g and f."""
    _reductions_per_state(q, n, reductions, monkeypatch)


def _work_per_depth(q, n, states, reductions, monkeypatch):
    depths = []
    reduce = building._reduce_rows

    def counting(rows, detdeg, *rest):
        depths.append(detdeg - 1)  # an edge of depth d has deg det d + 1
        return reduce(rows, detdeg, *rest)

    monkeypatch.setattr(building, "_reduce_rows", counting)
    wk = building._Walker(FiniteField(q), 3)
    expanded = Counter(d for d, *_ in wk.merged(wk.start(), n - 1, horizon=n - 1))
    assert [expanded[d] for d in range(n - 1)] == states
    assert [Counter(depths)[d] for d in range(n)] == reductions
    assert reductions == [1] + [q * q * s for s in states]


_ORBIT_STATES = [
    (2, 9, [1, 2, 4, 7, 9, 10, 6, 3]),
    (3, 6, [1, 2, 4, 4, 3]),
    (2, 30, [1, 2, 4, 7, 10, 15, 18, 23, 29, 34, 40, 48, 54, 62, 71, 76, 79, 80, 73, 65, 57, 45, 36, 30, 21, 15, 12, 6, 3]),
    (3, 15, [1, 2, 4, 7, 10, 15, 18, 22, 24, 20, 15, 12, 6, 3]),
]


@pytest.mark.parametrize(
    "q,n,states,reductions", [(q, n, s, [1] + [q * q * x for x in s]) for q, n, s in _ORBIT_STATES]
)
def test_merged_walk_work_per_depth(q, n, states, reductions, monkeypatch):
    """The pruned merged count expands states[d] states at depth d and
    reduces reductions[d] edges of depth d: the base edge, then the q^2
    continuations of each state of the depth above.  The states rise and
    fall again, as the prune keeps only the edges near enough to the
    origin to return by length n."""
    _work_per_depth(q, n, states, reductions, monkeypatch)


@pytest.mark.parametrize(
    "q,n,states,reductions",
    [
        (2, 9, [1, 2, 4, 8, 16, 29, 44, 77], [1, 4, 8, 16, 32, 64, 116, 176, 308]),
        (3, 6, [1, 2, 4, 6, 11], [1, 9, 18, 36, 54, 99]),
    ],
)
def test_popov_walk_work_per_depth(q, n, states, reductions, popov_walk, monkeypatch):
    """The Popov-keyed count's states and reductions per depth."""
    _work_per_depth(q, n, states, reductions, monkeypatch)


_MERGED_CASES = [
    (q, n, dim)
    for q in (2, 3, 4, 5, 7, 8, 9)
    for dim in (3, 2)
    for n in range(1, 10)
    if q ** (2 * n) <= 2 * 10**5
]


@functools.cache
def _exhaustive_g_f(q, dim, n):
    return building._count_run(FiniteField(q), dim, n)


@pytest.mark.parametrize("q,n,dim", _MERGED_CASES)
def test_merged_walk_matches_exhaustive(q, n, dim):
    """The merged walk's g and f equal those of the exhaustive walk over
    every word at every length up to n, wherever that walk has at most
    2 10^5 words in dim 3."""
    field = FiniteField(q)
    walked = building.oracle_returns(q, n, dim, field=field)
    assert walked[1:] == [_exhaustive_g_f(q, dim, k) for k in range(1, n + 1)]
    assert walked[0] == (1, 1)
    assert building.oracle_g_f(q, n, dim, field=field) == walked[n]


@pytest.mark.parametrize(
    "q,n,dim", [(2, 12, 3), (3, 8, 3), (4, 6, 3), (5, 6, 3), (2, 14, 2), (3, 10, 2)]
)
def test_pruned_walk_matches_unpruned(q, n, dim, monkeypatch):
    """Dropping the states that cannot return by length n changes no
    count at any length, at sizes beyond the exhaustive walk's reach."""
    pruned = building.oracle_returns(q, n, dim, max_leaves=q ** (2 * n))
    real = building._Walker.merged
    monkeypatch.setattr(
        building._Walker, "merged", lambda self, root, limit, horizon=None: real(self, root, limit)
    )
    assert pruned == building.oracle_returns(q, n, dim, max_leaves=q ** (2 * n))


@pytest.mark.parametrize("q,n", [(2, 12), (3, 9), (5, 6)])
def test_orbit_walk_matches_popov_walk(q, n, monkeypatch):
    """Keyed by the edge's orbit or by the target's Popov form, the walk
    gives the same g and f at every length."""
    leaves = building.oracle_leaves(q, n)
    walked = building.oracle_returns(q, n, max_leaves=leaves)
    monkeypatch.setattr(building._Walker, "key", popov_key)
    assert walked == building.oracle_returns(q, n, max_leaves=leaves)


@pytest.mark.parametrize("q,n,dim", [(2, 30, 3), (5, 15, 3), (2, 40, 2), (5, 20, 2)])
def test_orbit_walk_matches_closed_forms(q, n, dim):
    """The walk's g and f equal the closed forms at every length up to
    n: ``closed_g``/``closed_f`` in dim 3, ``pgl2_closed`` on the tree."""
    walked = building.oracle_returns(q, n, dim, max_leaves=building.oracle_leaves(q, n, dim))
    if dim == 3:
        want = [(analysis.closed_g(q, k), analysis.closed_f(q, k)) for k in range(1, n + 1)]
    else:
        want = [(analysis.pgl2_closed(q, k, "g"), analysis.pgl2_closed(q, k, "f")) for k in range(1, n + 1)]
    assert walked[1:] == want


@pytest.mark.parametrize("q,n,merges", [(2, 8, 212), (3, 5, 178), (5, 4, 327)])
def test_every_merge_keeps_the_successor_quotient_edges(q, n, merges):
    """The Markov premise on every merge of the unpruned walk down to
    depth n: a successor that merges into a state is a second
    representative of its edge orbit, so its continuations have the
    quotient edges of the first representative's, as a multiset.  The
    quotient edge is an orbit invariant, so the check needs no canonical
    key."""
    wk = building._Walker(FiniteField(q), 3)
    key, first, mismatches = wk.key, {}, []

    def tally(edge):
        return Counter(wk.quotient(edge[1], d) for _, d in wk.successors(edge))

    def checked(rows, degs):
        k = key(rows, degs)
        seen = tally((rows, degs))
        want = first.setdefault((sum(degs), k), seen)
        if want is not seen:
            checked.merges += 1
            if want != seen:
                mismatches.append((k, dict(seen), dict(want)))
        return k

    checked.merges = 0
    wk.key = checked
    for _ in wk.merged(wk.start(), n + 1):
        pass
    assert mismatches == []
    assert checked.merges == merges


def test_merged_walk_refuses_m_falling_by_two():
    """The prune assumes m falls by at most 1 per step; a successor whose
    m is 2 below its state's stops the walk."""
    wk = building._Walker(F2, 3)
    real = wk.successors

    def successors(edge):
        succs = real(edge)
        if building._m_of(edge[1]) == 2:
            rows, degs = succs[-1]
            succs[-1] = rows, [max(degs)] * 3
        return succs

    wk.successors = successors
    with pytest.raises(InternalConsistencyError, match="m fell from 2 to 0"):
        list(wk.merged(wk.start(), 4))


def test_oracle_count_table_walks_once(monkeypatch, capsys):
    """count --method oracle builds one walker for its whole table."""
    from buildingflow import cli

    built = []

    class Counted(building._Walker):
        def __init__(self, *args):
            built.append(args)
            super().__init__(*args)

    monkeypatch.setattr(building, "_Walker", Counted)
    assert cli.main(["count", "--method", "oracle", "--q", "2", "--steps", "9"]) == 0
    assert capsys.readouterr().out.split()[-2:] == ["9", "98304"]
    assert len(built) == 1


def test_vector_tables_fill_on_use_without_the_field_tables(monkeypatch):
    """The walker's vector tables hold only the entries its walk looked
    up: after ``oracle_g_f(9, 3)`` far fewer than the q^(2 dim) = 531,441
    pairs of a full vector add table.  No walk reads the field's add or
    mul tables, at q = 9 nor in a census over F_4."""

    def refuse(self):
        raise AssertionError("a walk read the field tables")

    monkeypatch.setattr(FiniteField, "add_table", property(refuse))
    monkeypatch.setattr(FiniteField, "mul_table", property(refuse))
    walkers = []

    class Kept(building._Walker):
        def __init__(self, *args):
            super().__init__(*args)
            walkers.append(self)

    monkeypatch.setattr(building, "_Walker", Kept)
    assert building.oracle_g_f(9, 3) == (shift.dp_g(9, 3), shift.dp_f(9, 3))
    [wk] = walkers

    def entries(table):
        return sum(entries(v) if isinstance(v, building._Table) else 1 for v in table.values())

    filled = sum(map(entries, [wk.digits, wk.pivot, wk.axpy, wk.plans, *(t for m in wk.moves for t in m)]))
    assert 0 < filled < 9**6 // 100  # 1,161 entries
    assert building.oracle_transition_census(4, 3) == shift.build_graph(4, 3)


@pytest.mark.parametrize("q,n", [(2, 0), (2, 1), (2, 6), (3, 4), (4, 3), (5, 2), (9, 2)])
def test_merged_terminal_profile_matches_exhaustive_tally(q, n):
    assert building.oracle_terminal_profile(q, n) == _exhaustive_profile(q, n)


def _popov_of(mat):
    """Reduce a polynomial matrix in packed rows, then finish it to Popov
    form; returns (key, row degrees)."""
    vec = building._Vectors(mat.field, mat.dim)
    rows = vec.rows_of(mat)
    degs = building._reduce_rows(rows, max(mat.det_adj()[0]), vec)
    return popov(rows, degs, vec), degs


@pytest.mark.parametrize("q", [2, 3, 4, 5, 9])
def test_popov_form_is_a_gamma_orbit_invariant(q):
    """For seeded unimodular gamma over F_q[t] and walk targets R,
    reduce-then-Popov gives one form for gamma R and R, with the reduced
    row degrees unchanged as a multiset, and the form is its own Popov
    form: monic pivots on the diagonal, each the rightmost entry of its
    row's degree, and no other entry in a pivot's column of its degree
    or more."""
    field = FiniteField(q)
    rng = random.Random(q)
    wk = building._Walker(field, 3)
    targets = [wk.to_matrix(r) for _, (r, _), _ in wk.walk(wk.start(), 3 if q < 4 else 2)]
    for mat in rng.sample(targets, 12):
        want, degs = _popov_of(mat)
        assert popov([list(row) for row in want], list(degs), wk) == want
        form = wk.to_matrix(want).rows
        for j, row in enumerate(form):
            assert max(row[j], default=-1) == degs[j] and row[j][degs[j]] == 1
            assert all(max(ent, default=-1) < degs[j] for ent in row[j + 1 :])
            assert all(max(r[j], default=-1) < degs[j] for i, r in enumerate(form) if i != j)
        for _ in range(4):
            got, got_degs = _popov_of(_random_unimodular_poly(field, rng) @ mat)
            assert got == want
            assert sorted(got_degs) == sorted(degs)


@pytest.mark.parametrize("q", [2, 3, 4, 5])
@pytest.mark.parametrize("dim", [2, 3])
def test_walker_mixes_are_constant_and_invertible(q, dim, monkeypatch):
    """Each move is a X_j with X_j = a^-1 u_j constant and invertible
    over F_q; a move with t outside row 0, or with a singular X_j, makes
    the walker refuse to start."""
    field = FiniteField(q)
    moves = continuation_moves(field, dim)
    a_inv = LaurentMatrix.diag_powers(field, [-1] + [0] * (dim - 1))
    for u in moves:
        x = a_inv @ u
        assert all(set(e) <= {0} for row in x.rows for e in row)
        det, _ = x.det_adj()
        assert set(det) == {0} and det[0]
    rows = moves[-1].rows
    t_below = [list(row) for row in rows]
    t_below[1][0] = {1: 1}  # t in row 1: X_j is not constant
    # row 0 = t row 1: X_j is constant, with two equal rows
    singular = [[{s + 1: c for s, c in e.items()} for e in rows[1]], *rows[1:]]
    for bad in (t_below, singular):
        bad_moves = moves[:-1] + [LaurentMatrix(field, bad)]
        monkeypatch.setattr(building, "continuation_moves", lambda f, d, m=bad_moves: m)
        with pytest.raises(InternalConsistencyError, match="constant invertible"):
            building._Walker(field, dim)


@pytest.mark.parametrize(
    "n,q", [(n, q) for q in (2, 3, 4) for n in range(4)] + [(24, 2), (15, 3), (12, 4), (9, 5)]
)
def test_oracle_terminal_profile_matches_dp(n, q):
    prof = building.oracle_terminal_profile(q, n, max_leaves=building.oracle_leaves(q, n))
    assert prof == shift.dp_profiles(q, n)[n]


def test_census_examples():
    census = building.oracle_transition_census(2, 3)
    base = shift.base_edge()
    assert {(e.k2, e.l2): w for e, w in census[base].items()} == {(3, 0): 1, (2, 1): 3}
    dd = shift.QuotientEdge.from_doubled(1, 1)
    assert {(e.k2, e.l2): w for e, w in census[dd].items()} == {(1, 0): 4}
    for e, succs in census.items():
        assert sum(succs.values()) == 4


def test_census_equals_fold_rule_small():
    for q, m_max in ((2, 4), (3, 4), (5, 5)):
        assert building.oracle_transition_census(q, m_max) == shift.build_graph(q, m_max)


def test_walker_quotient_refuses_a_non_adjacent_pair_on_every_call():
    """The walker's edge table stores no failed lookup, so a pair of
    invariants that is not sector-adjacent raises each time."""
    wk = building._Walker(F2, 3)
    for _ in range(2):
        with pytest.raises(InternalConsistencyError, match="not sector-adjacent"):
            wk.quotient([0, 0, 0], [3, 0, 0])  # (0, 0) -> (3, 0)
    assert wk.quotient([0, 0, 0], [1, 0, 0]) is wk.quotient([0, 0, 0], [1, 0, 0]) == shift.base_edge()
    assert list(wk.edges) == [((0, 0), (1, 0))]


def test_find_lift():
    lift = building.find_lift(2, 4, 3, m_max=3)  # e(2, 3/2)
    assert lift is not None
    assert birkhoff_invariant(lift.source) == (2, 1)
    assert birkhoff_invariant(lift.target) == (2, 2)
    assert building.find_lift(2, 1, 0, m_max=3) is not None


def test_census_lifts_decode_to_their_edges():
    """Every lift the census hands out, decoded to a matrix, lies over
    its key by the independent section-dimension route."""
    for field in (F2, F3):
        census, lifts = building.oracle_transition_census(field.q, 4, with_lifts=True)
        assert set(census) <= set(lifts)
        a = building.std_step(field)
        for qe, mat in lifts.items():
            assert quotient_edge_of(BDirectedEdge(VertexClass(mat), VertexClass(mat @ a))) == qe


def _walk_against_unfused(wk, max_depth):
    """Hold every edge wk walks to targets at depth max_depth against
    matrix products and the unmemoised reducer, in ``continuation_moves``
    order: its target and the target's row degrees against the reduction
    of source * a; each fused move R X_j a against the product R X_j,
    then the step a; and R X_j against the reduction of P u_j, whose row
    degrees are the target's, P the source."""
    field, dim = wk.field, wk.dim
    a = building.std_step(field, dim)
    a_inv = LaurentMatrix.diag_powers(field, [-1] + [0] * (dim - 1))
    moves = continuation_moves(field, dim)
    fused = [a_inv @ u @ a for u in moves]

    def rec(edge, src, depth):
        rows, degs = edge
        p = wk.to_matrix(src)
        target = wk.rows_of(p @ a)
        assert degs == building._reduce_rows(target, depth + 1, wk)
        assert rows == target
        if depth + 2 > max_depth:
            return
        r = wk.to_matrix(rows)
        for j, (succ, u, xa, (lo, hi)) in enumerate(zip(wk.successors(edge), moves, fused, wk.moves, strict=True)):
            assert [building._fused(row, lo, hi) for row in rows] == wk.rows_of(r @ xa)
            nr = wk.rows_of(p @ u)
            assert degs == building._reduce_rows(nr, depth + 1, wk)
            assert wk.source(rows, j) == nr
            rec(succ, nr, depth + 1)

    rec(wk.start(), [[p] for p in wk.powers], 0)


@pytest.mark.parametrize(
    "q,dim,max_depth",
    [
        (2, 3, 5), (2, 2, 8), (3, 3, 4), (3, 2, 6),
        (5, 3, 3), (4, 2, 6), (4, 3, 3), (5, 3, 2), (8, 3, 2), (9, 3, 2),
    ],
)
def test_memo_walk_matches_unmemoised_reducer(q, dim, max_depth):
    """The walker, which reuses one reduction plan per top-vector key and
    fuses each move with the step, has at every edge of every word the
    rows and degrees the reducer gives when it solves every round afresh
    on the products formed one matrix at a time."""
    wk = building._Walker(FiniteField(q), dim)
    _walk_against_unfused(wk, max_depth)
    assert any(plan is not None for plan in wk.plans.values())


# [[t, t^2, 0], [0, 1, 0], [0, 0, 1]] in packed rows over F_q: row 0 is
# e_0 t + e_1 t^2, so row degrees 2, 0, 0, deg det 1, and top vectors
# e_1, e_1, e_2; the seeded plan for those keeps row 0 as it is.
def _stuck(q):
    return [[0, 1, q], [q], [q * q]], (q, q, q * q)


def test_memo_hits_keep_the_round_cap():
    """A memoised plan that never lowers the degree sum is read exactly
    sum(degs) - deg det + 1 times, then the reduction raises; a deg det
    the reduced degrees do not add up to raises on a memo hit too."""
    f5 = FiniteField(5)
    wk = building._Walker(f5, 3)
    reads = []

    class CountingPlans(dict):
        def __getitem__(self, key):
            reads.append(key)
            return super().__getitem__(key)

    rows, stuck = _stuck(5)
    assert wk.rows_of(LaurentMatrix(f5, [[{1: 1}, {2: 1}, {}], [{}, {0: 1}, {}], [{}, {}, {0: 1}]])) == rows
    identity = (1, 5, 25)
    wk.plans = CountingPlans({stuck: ((0, 1),), identity: None})
    with pytest.raises(InternalConsistencyError, match="did not finish"):
        building._reduce_rows(rows, 1, wk, wk.plans)
    assert reads == [stuck, stuck]
    reads.clear()
    with pytest.raises(InternalConsistencyError, match="do not sum"):
        building._reduce_rows([[v] for v in identity], -1, wk, wk.plans)
    assert reads == [identity]


def test_sliced_reducer_keeps_the_round_cap():
    """At q = 3 a seeded plan that never lowers the degree sum is read
    sum(degs) - deg det + 1 times, then the reduction raises; a deg det
    the reduced degrees do not add up to raises, and so do a zero row
    and a step that cancels its row."""
    reads = []

    class CountingPlans(dict):
        def __getitem__(self, key):
            reads.append(key)
            return super().__getitem__(key)

    vec = building._Vectors(F3, 3)
    rows, stuck = _stuck(3)
    identity = (1, 3, 9)
    plans = CountingPlans({stuck: ((0, 1),), identity: None})
    with pytest.raises(InternalConsistencyError, match="did not finish"):
        building._reduce_rows(rows, 1, vec, plans)
    assert reads == [stuck, stuck]
    reads.clear()
    with pytest.raises(InternalConsistencyError, match="do not sum"):
        building._reduce_rows([[v] for v in identity], -1, vec, plans)
    assert reads == [identity]
    zero = [[1], [], [9]]
    with pytest.raises(InternalConsistencyError, match="zero row in a vertex"):
        building._reduce_rows(zero, 0, vec, plans)
    # [[1, 0, 0], [2, 0, 0], [0, 0, 1]] and the plan row 0 + row 1
    twice = [[1], [2], [9]]
    with pytest.raises(InternalConsistencyError, match="produced a zero row"):
        building._reduce_rows(twice, 0, vec, {(1, 2, 9): ((0, 1), (1, 1))})


def test_reduction_stops_at_its_bound(monkeypatch):
    """A null vector that never lowers the degree sum is tried exactly
    sum(degs) - deg det + 1 times, then the reduction raises; a deg det
    the reduced degrees do not add up to raises, and so do a zero row
    and a step that cancels its row."""
    # [[t, t^2, 0], [0, 1, 0], [0, 0, 1]]: row degrees 2, 0, 0, deg det 1
    m = LaurentMatrix(F3, [[{1: 1}, {2: 1}, {}], [{}, {0: 1}, {}], [{}, {}, {0: 1}]])
    assert fast_invariant(m) == birkhoff_invariant(VertexClass(m)) == (1, 0)
    tries = []

    def stuck(key, vec):
        tries.append(key)
        return ((0, 1),)  # keeps row 0 as it is

    monkeypatch.setattr(building, "_reduction_plan", stuck)
    with pytest.raises(InternalConsistencyError, match="did not finish"):
        fast_invariant(m)
    assert tries == [_stuck(3)[1]] * 2

    # at q = 2, with seeded plans: a deg det the reduced degrees do not add
    # up to, a zero row, and [[1, 0, 0], [1, 0, 0], [0, 0, 1]] with the
    # plan row 0 + row 1
    vec = building._Vectors(F2, 3)
    with pytest.raises(InternalConsistencyError, match="do not sum"):
        building._reduce_rows([[1], [2], [4]], -1, vec, {(1, 2, 4): None})
    with pytest.raises(InternalConsistencyError, match="zero row in a vertex"):
        building._reduce_rows([[1], [], [4]], 0, vec)
    with pytest.raises(InternalConsistencyError, match="produced a zero row"):
        building._reduce_rows([[1], [1], [4]], 0, vec, {(1, 1, 4): ((0, 1), (1, 1))})


def test_prefix_independence_short():
    assert building.oracle_prefix_mismatches(2, 4) == []
    assert building.oracle_prefix_mismatches(3, 2) == []


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
