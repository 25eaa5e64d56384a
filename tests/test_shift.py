"""Quotient shift: fold rule, transitions, weight table, and the DP."""

import copy
import json

import pytest

from buildingflow import cli, shift
from buildingflow.errors import InternalConsistencyError
from buildingflow.shift import QVertex, QuotientEdge


def E(sm, sn, tm, tn):
    return QuotientEdge.from_vertices(sm, sn, tm, tn)


def by_target(trans):
    return {e.target: w for e, w in trans.items()}


def test_sector_neighbors_cases():
    assert set(shift.sector_neighbors(QVertex(0, 0))) == {QVertex(1, 0), QVertex(1, 1)}
    assert set(shift.sector_neighbors(QVertex(3, 1))) == {
        QVertex(2, 1), QVertex(4, 1), QVertex(3, 0),
        QVertex(3, 2), QVertex(2, 0), QVertex(4, 2),
    }
    assert set(shift.sector_neighbors(QVertex(2, 2))) == {
        QVertex(3, 2), QVertex(2, 1), QVertex(3, 3), QVertex(1, 1),
    }
    assert set(shift.sector_neighbors(QVertex(4, 0))) == {
        QVertex(5, 0), QVertex(3, 0), QVertex(4, 1), QVertex(5, 1),
    }


def _neighbour_list_is_valid(e):
    """The edge predicate with the ``sector_neighbors`` conjunct that
    ``QuotientEdge.is_valid`` leaves out as implied by the other three."""
    return (
        e.source.is_valid()
        and e.target.is_valid()
        and e.displacement in shift.DISPLACEMENTS
        and e.target in shift.sector_neighbors(e.source)
    )


def test_edge_validity_needs_no_neighbour_list():
    points = [QVertex(m, n) for m in range(-2, 13) for n in range(-2, 13)]
    edges = [QuotientEdge(s, t) for s in points for t in points]
    assert [e for e in edges if e.is_valid() != _neighbour_list_is_valid(e)] == []
    assert sum(map(QuotientEdge.is_valid, edges)) == 3 * 78  # 78 each of R, U and D in the box


def test_all_valid_edges_is_the_sorted_filtered_enumeration():
    for m_max in range(21):
        raw = (
            QuotientEdge(QVertex(m, n), QVertex(m + dm, n + dn))
            for m in range(m_max + 1)
            for n in range(m + 1)
            for dm, dn in shift.DISPLACEMENTS
            if m + dm <= m_max
        )
        want = sorted(filter(_neighbour_list_is_valid, raw), key=lambda e: (e.k2, e.l2))
        assert shift.all_valid_edges(m_max) == want


def test_fold_examples():
    for m in range(1, 5):
        assert shift.fold(m - 1, -1) == QVertex(m, 1)
    assert shift.fold(1, 2) == QVertex(2, 1)
    assert shift.fold(-1, -1) == QVertex(1, 0)
    assert shift.fold(2, 1) == QVertex(2, 1)  # already inside


def test_edge_names_roundtrip():
    for e in shift.all_valid_edges(5):
        assert QuotientEdge.from_doubled(e.k2, e.l2) == e
        assert e.displacement in shift.DISPLACEMENTS
    with pytest.raises(ValueError):
        QuotientEdge.from_doubled(2, 2)  # both even: no edge
    with pytest.raises(ValueError):
        QuotientEdge.from_doubled(0, 1)  # source would leave the sector


def test_base_edge_name():
    b = shift.base_edge()
    assert (b.k2, b.l2) == (1, 0)
    assert b.pretty() == "e(1/2,0)"


@pytest.mark.parametrize("q", [2, 3, 5])
def test_transition_rule_interior(q):
    # straight edge arriving at (4, 1), deep inside the sector
    trans = by_target(shift.edge_transitions(E(3, 1, 4, 1), q))
    assert trans == {
        QVertex(5, 1): 1,
        QVertex(4, 2): q - 1,
        QVertex(3, 0): q * q - q,
    }


@pytest.mark.parametrize("q", [2, 3, 5])
def test_transition_rule_axis(q):
    for m in (2, 3, 5):
        trans = by_target(shift.edge_transitions(E(m - 1, 0, m, 0), q))
        assert trans == {QVertex(m + 1, 0): 1, QVertex(m, 1): q * q - 1}


@pytest.mark.parametrize("q", [2, 3, 5])
def test_transition_rule_origin(q):
    trans = by_target(shift.edge_transitions(E(1, 1, 0, 0), q))
    assert trans == {QVertex(1, 0): q * q}


@pytest.mark.parametrize("q", [2, 3, 5, 7])
def test_out_weights_sum_and_alphabet(q):
    allowed = shift.weight_alphabet(q)
    for e in shift.all_valid_edges(6):
        trans = shift.edge_transitions(e, q)
        assert sum(trans.values()) == q * q
        assert set(trans.values()) <= allowed
        for succ in trans:
            assert succ.is_valid()


def test_profiles_q2_hand_values():
    profs = shift.dp_profiles(2, 3)

    def named(p):
        return {(e.k2, e.l2): c for e, c in p.items()}

    assert named(profs[0]) == {(1, 0): 1}
    assert named(profs[1]) == {(3, 0): 1, (2, 1): 3}
    assert named(profs[2]) == {(5, 0): 1, (4, 1): 3, (3, 2): 6, (1, 1): 6}
    assert named(profs[3]) == {
        (1, 0): 24, (3, 1): 18, (4, 3): 12, (5, 2): 6, (6, 1): 3, (7, 0): 1,
    }
    assert sum(profs[3].values()) == 64


@pytest.mark.parametrize("q", [2, 3])
def test_mass_conservation_and_grading(q):
    profs = shift.dp_profiles(q, 8)
    for s, p in enumerate(profs):
        assert shift.profile_mass(p) == (q * q) ** s
        for e in p:
            assert (e.k2 + e.l2) % 3 == (1 + 2 * s) % 3


def test_dp_examples():
    assert shift.dp_g(2, 6) == 1536
    assert shift.dp_f(2, 9) == 38400
    assert shift.dp_g(3, 5) == 0
    assert shift.dp_f(2, 4) == 0


def test_dp_ratio_rigidity():
    for q in (2, 3):
        gs = [shift.dp_g(q, 3 * n) for n in range(1, 5)]
        fs = [shift.dp_f(q, 3 * n) for n in range(1, 5)]
        for a, b in zip(gs, gs[1:]):
            assert b == a * q**6
        for a, b in zip(fs, fs[1:]):
            assert b == a * q**3 * (q * q + q - 1)


def test_three_step_coefficients():
    assert shift.three_step_coefficients(2) == (24, 32, 32, 64)
    assert shift.three_step_coefficients(3) == (432, 486, 486, 729)
    # combined with the step-3 profile this reproduces g_6
    prof = shift.dp_profiles(2, 3)[3]
    coeffs = shift.three_step_coefficients(2)
    feeders = [
        QuotientEdge.from_doubled(1, 0),
        QuotientEdge.from_doubled(3, 1),
        QuotientEdge.from_doubled(4, 3),
        QuotientEdge.from_doubled(5, 5),
    ]
    total = sum(c * prof.get(e, 0) for c, e in zip(coeffs, feeders))
    assert total == 1536 == shift.dp_g(2, 6)


def test_graph_bounds_and_reachability():
    for q in (2, 3):
        table = shift.build_graph(q, 4)
        assert set(table) == set(shift.all_valid_edges(4))
        for e, succs in table.items():
            assert max(e.source.m, e.target.m) <= 4
            assert sum(succs.values()) == q * q


def test_graph_three_cycle_q2():
    table = shift.build_graph(2, 3)
    base = shift.base_edge()
    e_up = QuotientEdge.from_doubled(2, 1)
    e_down = QuotientEdge.from_doubled(1, 1)
    assert table[base][e_up] == 3
    assert table[e_up][e_down] == 2
    assert table[e_down][base] == 4
    # the only length-3 cycle through the base edge
    cycles = [
        (a, b)
        for a in table[base]
        if a in table
        for b in table[a]
        if b in table and base in table[b]
    ]
    assert cycles == [(e_up, e_down)]
    w = table[base][e_up] * table[e_up][e_down] * table[e_down][base]
    assert w == 24 == shift.dp_g(2, 3)


def _graph_stdout(capsys, fmt):
    assert cli.main(["graph", "--q", "2", "--m-max", "3", "--format", fmt]) == 0
    return capsys.readouterr().out


def test_dot_export_deterministic(capsys):
    dot1 = _graph_stdout(capsys, "dot")
    dot2 = _graph_stdout(capsys, "dot")
    assert dot1 == dot2
    assert '"e(1/2,1/2)" -> "e(1/2,0)" [label="4"];' in dot1


def test_graph_records_wire_format(capsys):
    recs = json.loads(_graph_stdout(capsys, "json"))["edges"]
    assert recs == sorted(
        recs, key=lambda r: (r["from"]["k2"], r["from"]["l2"], r["to"]["k2"], r["to"]["l2"])
    )
    first = recs[0]
    assert first["from"] == {"k2": 1, "l2": 0}
    assert isinstance(first["weight"], str)


# ---------------------------------------------------------------------------
# The DP on (k2, l2) keys: one stencil per (incoming displacement, local case)
# ---------------------------------------------------------------------------


def _stencil_of(k2, l2):
    """(incoming displacement, local case) of the edge named (k2, l2),
    worked out from the edge itself."""
    e = QuotientEdge.from_doubled(k2, l2)
    m, n = e.target
    case = "origin" if m == 0 else "axis" if n == 0 else "diagonal" if m == n else "interior"
    return e.displacement, case


@pytest.mark.parametrize("q", [2, 3, 4, 9973])
def test_stencil_successors_equal_edge_transitions(q):
    for e in shift.all_valid_edges(40):
        want = sorted((s.k2, s.l2, w) for s, w in shift.edge_transitions(e, q).items())
        got = sorted((k2, l2, w) for (k2, l2), w in shift.dp_step({(e.k2, e.l2): 1}, q).items())
        assert got == want, e


def test_successors_refuse_what_names_no_edge():
    for k2 in range(-3, 12):
        for l2 in range(-3, 12):
            try:
                QuotientEdge.from_doubled(k2, l2)
            except ValueError:
                with pytest.raises(ValueError, match="names no edge"):
                    shift.dp_step({(k2, l2): 1}, 2)


def test_sweep_to_six_hits_every_stencil():
    stepped = {_stencil_of(*key) for p in list(shift.dp_sweep(2, 6))[:-1] for key in p}
    assert len(shift.stencils(2)) == 8
    assert stepped == set(shift.stencils(2))


@pytest.mark.parametrize("q", [2, 3, 9973])
def test_vertices_write_disjoint_edges(q):
    """Every edge has one source vertex, so the step stores each new
    count once: no two vertices list the same outgoing edge, and each
    listed edge leaves its vertex for the listed target and slot."""
    seen = {}
    for m in range(41):
        for n in range(m + 1):
            for key, t, slot, *_ in shift._vertex_rows(q)[m, n]:
                assert seen.setdefault(key, (m, n)) == (m, n), key
                e = QuotientEdge.from_doubled(*key)
                assert (e.source, e.target) == ((m, n), t)
                assert e.displacement == shift.DISPLACEMENTS[slot]


@pytest.mark.parametrize("q", [2, 3])
def test_taboo_sweep_never_changes_a_yielded_dict(q):
    yielded, during = [], []
    for p in shift.dp_sweep(q, 30, taboo=True):
        yielded.append(p)
        during.append(copy.deepcopy(p))
    assert yielded == during
    assert [n for n, p in enumerate(yielded) if shift.BASE_KEY in p] == list(range(0, 31, 3))


@pytest.fixture
def fresh_rule_caches():
    """Empty the caches that hold weights derived from the rule, before
    and after, so that a patched rule is read and then forgotten."""

    def clear():
        shift.edge_transitions.cache_clear()
        shift.stencils.cache_clear()
        shift._vertex_rows.cache_clear()

    clear()
    yield
    clear()


def test_stencils_are_derived_from_the_rule(monkeypatch, fresh_rule_caches):
    q, R, U, D = 3, shift.R, shift.U, shift.D
    rule = shift._INTERIOR_RULE

    def interior(din):
        return {(dk, dl): w for dk, dl, w in shift.stencils(q)[din, "interior"]}

    # in the interior nothing folds: each outgoing displacement is one offset
    for din in shift.DISPLACEMENTS:
        want = {dout: shift._weight(rule[din, dout], q) for dout in shift.DISPLACEMENTS}
        assert interior(din) == {d: w for d, w in want.items() if w}
    before = interior(R)
    assert shift.dp_step({(3, 2): 1}, q) == {(5, 2): 1, (4, 3): q - 1, (3, 1): q * q - q}

    # one entry changed: the derived weights no longer sum to q^2
    monkeypatch.setitem(rule, (R, U), (0, 1, 0))
    shift.edge_transitions.cache_clear()
    shift.stencils.cache_clear()
    with pytest.raises(InternalConsistencyError, match="sum to"):
        shift.stencils(q)

    # two entries exchanged: the sum holds and the stencil and step follow
    monkeypatch.setitem(rule, (R, U), (1, -1, 0))
    monkeypatch.setitem(rule, (R, D), (0, 1, -1))
    shift.edge_transitions.cache_clear()
    shift.stencils.cache_clear()
    shift._vertex_rows.cache_clear()
    assert interior(R) == {**before, U: q * q - q, D: q - 1} != before
    assert shift.dp_step({(3, 2): 1}, q) == {(5, 2): 1, (4, 3): q * q - q, (3, 1): q - 1}


def _reference_sweep(q, steps, taboo):
    """N_0 .. N_steps by ``edge_transitions`` on QuotientEdge keys."""
    base = shift.base_edge()
    prof = {base: 1}
    out = [prof]
    for _ in range(steps):
        nxt = {}
        for e, c in prof.items():
            for s, w in shift.edge_transitions(e, q).items():
                nxt[s] = nxt.get(s, 0) + c * w
        out.append(nxt)
        prof = {e: c for e, c in nxt.items() if not (taboo and e == base)}
    return out


@pytest.mark.parametrize("taboo", [False, True])
@pytest.mark.parametrize("q", [2, 3, 4, 8, 9, 9973])
def test_sweep_equals_reference_sweep(q, taboo):
    ref = [{(e.k2, e.l2): c for e, c in p.items()} for p in _reference_sweep(q, 30, taboo)]
    assert list(shift.dp_sweep(q, 30, taboo)) == ref
