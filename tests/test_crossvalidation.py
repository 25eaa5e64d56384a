"""Broader cross-route checks and edge cases beyond the acceptance grid."""

from collections import Counter

import pytest

from buildingflow import analysis, building, crosscheck, shift
from buildingflow.algebra import FiniteField, LaurentMatrix
from buildingflow.building import VertexClass, birkhoff_invariant, class_equal, divisor_profile
from buildingflow.errors import InternalConsistencyError


@pytest.mark.parametrize("q", [2, 3, 4, 5])
def test_oracle_matches_closed_across_fields(q):
    g, f = building.oracle_g_f(q, 3)
    assert g == analysis.closed_g(q, 3)
    assert f == analysis.closed_f(q, 3)


def test_census_prime_power_field():
    census = building.oracle_transition_census(4, 3)
    table = shift.build_graph(4, 3)
    assert census == table


def test_find_lift_unreachable_returns_none():
    # e(13/2, 0) starts at m = 6, far outside an m <= 3 search
    assert building.find_lift(2, 13, 0, m_max=3) is None


def test_tree_class_and_profile():
    f = FiniteField(3)
    o = building.origin(f, 2)
    w = building.diag_vertex(f, [1, 0])
    assert divisor_profile(o, w) == (0, 1)
    assert building.are_adjacent(o, w)
    assert not building.are_adjacent(o, building.diag_vertex(f, [2, 0]))
    assert class_equal(o, VertexClass(LaurentMatrix.diag_powers(f, [1, 1])))
    assert building.vertex_type(w) == 1


def test_tree_birkhoff_with_laurent_entries():
    f = FiniteField(2)
    m = LaurentMatrix(f, [[{-1: 1}, {0: 1}], [{}, {0: 1}]])
    assert birkhoff_invariant(VertexClass(m)) == 1
    assert birkhoff_invariant(VertexClass(m), degree_margin=3) == 1


def test_edge_transitions_rejects_invalid_edge():
    bad = shift.QuotientEdge(shift.QVertex(0, 0), shift.QVertex(2, 0))
    with pytest.raises(ValueError):
        shift.edge_transitions(bad, 2)
    with pytest.raises(ValueError):
        shift.fold(-4, -2)  # more than two reflections away


def test_quotient_edge_consistency_error_surfaces():
    e = building.base_edge(FiniteField(2))
    qe = building.quotient_edge_of(e)
    assert (qe.k2, qe.l2) == (1, 0)
    mismatch = shift.QuotientEdge(shift.QVertex(0, 0), shift.QVertex(3, 0))
    assert not mismatch.is_valid()


def test_validation_matrix_q5_quick():
    # tight leaf budget: the n >= 4 period probes at q=5 are oversized
    cfg = crosscheck.ValidationConfig(
        q=5, steps=3, m_max=3, closed_horizon=3, max_leaves=20_000
    )
    results = crosscheck.run_validation(cfg)
    failed = [r.name for r in results if not r.passed]
    assert failed == []
    skipped = {r.name for r in results if r.skipped}
    assert skipped == {"prefix_independence"}  # exhaustive sweep runs at q=2
    by_name = {r.name: r for r in results}
    assert not by_name["oracle_vs_dp_g"].skipped  # n=3 fits the budget


def test_validation_skips_when_budget_refuses():
    cfg = crosscheck.ValidationConfig(q=3, steps=6, m_max=3, max_leaves=100)
    results = crosscheck.run_validation(cfg)
    by_name = {r.name: r for r in results}
    assert by_name["oracle_vs_dp_g"].skipped
    assert "leaves" in by_name["oracle_vs_dp_g"].detail
    assert crosscheck.all_passed(results)  # skipped is not failed


def test_closed_N_never_leaves_a_gap():
    """Every valid edge on the step-3n grading matches exactly one value."""
    for q in (2, 3):
        for n in (1, 2, 3, 4):
            for e in shift.all_valid_edges(3 * n + 4):
                if (e.k2 + e.l2) % 3 != 1:
                    continue
                v = analysis.closed_N(q, n, e.k2, e.l2)  # must not raise
                assert v >= 0


def test_dp_profile_vs_oracle_profile_full_distribution():
    assert building.oracle_terminal_profile(2, 6) == shift.dp_profiles(2, 6)[6]


def test_renewal_consistency_direct_convolution():
    """Independent check of the taboo DP: counting with an explicit
    convolution over first-return times instead of the taboo trick."""
    q = 2
    gs = {n: shift.dp_g(q, n) for n in (3, 6, 9, 12)}
    fs = {n: shift.dp_f(q, n) for n in (3, 6, 9, 12)}
    for n in (3, 6, 9, 12):
        total = fs[n]
        for k in range(3, n, 3):
            total += fs[k] * gs[n - k]
        assert total == gs[n]


def test_internal_error_type_exposed():
    assert issubclass(InternalConsistencyError, RuntimeError)


def test_period_zero_checks_run_the_dp(monkeypatch):
    """Mass leaked onto the base edge off the period-3 grid must show."""
    real_advance = shift._advance

    def leaky_advance(groups, q):
        out, nxt = real_advance(groups, q)
        out[shift.BASE_KEY] = out.get(shift.BASE_KEY, 0) + 1
        return out, nxt

    monkeypatch.setattr(shift, "_advance", leaky_advance)
    assert shift.dp_g(2, 4) != 0
    cfg = crosscheck.ValidationConfig(q=2, steps=3, m_max=2, max_leaves=1, prefix_len=1)
    by_name = {r.name: r for r in crosscheck.run_validation(cfg)}
    assert not by_name["period_zeros_dp"].passed
    assert not by_name["period_zeros_dp"].skipped


def test_validation_walks_each_length_once(monkeypatch):
    """The g and f checks, the period probes and the tree check share
    one oracle walk per dim, to the longest n any of them runs, so each
    length is walked once."""
    real = building.oracle_returns
    calls = Counter()

    def counted(q, n, dim=3, *args, **kwargs):
        calls[(n, dim)] += 1
        return real(q, n, dim, *args, **kwargs)

    monkeypatch.setattr(building, "oracle_returns", counted)
    cfg = crosscheck.ValidationConfig(q=2, steps=6, m_max=3, prefix_len=2)
    results = crosscheck.run_validation(cfg)
    assert [r.name for r in results if not r.passed] == []
    by_name = {r.name: r for r in results}
    assert by_name["oracle_vs_dp_g"].detail == by_name["oracle_vs_dp_f"].detail == "n=[3, 6]"
    assert set(calls) == {(6, 3), (6, 2)}
    assert max(calls.values()) == 1


def test_oracle_fault_fails_every_reader(monkeypatch):
    def broken(*args, **kwargs):
        raise InternalConsistencyError("walk broke")

    monkeypatch.setattr(building, "oracle_returns", broken)
    cfg = crosscheck.ValidationConfig(q=2, steps=3, m_max=2, prefix_len=1)
    by_name = {r.name: r for r in crosscheck.run_validation(cfg)}
    for name in ("oracle_vs_dp_g", "oracle_vs_dp_f"):
        assert not by_name[name].passed
        assert not by_name[name].skipped
        assert by_name[name].detail == "InternalConsistencyError: walk broke"
