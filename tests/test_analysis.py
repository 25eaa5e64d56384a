"""Closed forms, renewal recursion, growth rates, tree analogue."""

import math

import pytest

from buildingflow import analysis, building, shift
from buildingflow.analysis import (
    closed_N,
    closed_f,
    closed_g,
    empirical_growth,
    pgl2_closed,
    renewal_f,
    spr_report,
)


def test_closed_g_examples():
    assert closed_g(2, 3) == 24
    assert closed_g(3, 6) == 314928
    assert closed_g(2, 7) == 0
    assert closed_g(2, 12) == 6291456


def test_closed_f_examples():
    assert closed_f(2, 6) == 960
    assert closed_f(3, 6) == 128304
    assert closed_f(2, 3) == 24 == closed_g(2, 3)


def test_closed_N_examples():
    assert closed_N(2, 1, 7, 0) == 1
    assert closed_N(2, 1, 3, 1) == 18
    assert closed_N(2, 2, 5, 5) == 96


def test_closed_N_domain_errors():
    with pytest.raises(ValueError):
        closed_N(2, 1, 2, 2)  # names no edge
    with pytest.raises(ValueError):
        closed_N(2, 1, 3, 0)  # not an edge either (even + odd mismatch)
    with pytest.raises(ValueError):
        closed_N(2, 1, 1, 1)  # a real edge, but off the step-3n grading


@pytest.mark.parametrize("q", [2, 3])
@pytest.mark.parametrize("n", [1, 2, 3])
def test_closed_N_equals_dp(q, n):
    prof = shift.dp_profiles(q, 3 * n)[3 * n]
    support = set(prof)
    for e in shift.all_valid_edges(3 * n + 3):
        if (e.k2 + e.l2) % 3 != 1:
            continue
        want = closed_N(q, n, e.k2, e.l2)
        assert want == prof.get(e, 0)
        assert (want > 0) == (e in support)


def test_renewal_examples():
    assert renewal_f([24, 1536, 98304]) == [24, 960, 38400]
    assert renewal_f([432, 314928]) == [432, 128304]
    assert renewal_f([7]) == [7]


@pytest.mark.parametrize("q", [2, 3, 5])
def test_renewal_matches_closed(q):
    gs = [closed_g(q, 3 * n) for n in range(1, 6)]
    assert renewal_f(gs) == [closed_f(q, 3 * n) for n in range(1, 6)]


def test_empirical_growth():
    assert math.isclose(empirical_growth([24, 1536, 98304], 3), 2 * math.log(2), rel_tol=1e-12)
    assert math.isclose(
        empirical_growth([24, 960, 38400], 3), math.log(2) + math.log(5) / 3, rel_tol=1e-12
    )
    assert empirical_growth([5, 5], 1) == 0.0
    with pytest.raises(ValueError):
        empirical_growth([0, 7, 0], 3)


def test_spr_report_q2():
    rep = spr_report(2)
    assert math.isclose(rep.h_nats, 1.386294, abs_tol=1e-6)
    assert math.isclose(rep.growth_f_nats, 1.229626, abs_tol=1e-6)
    assert math.isclose(rep.margin_nats, 0.156668, abs_tol=1e-6)
    assert math.isclose(rep.paper_claimed_growth_nats, 1.155245, abs_tol=1e-6)
    assert rep.spr
    assert rep.exact_h == (6, 0)
    assert rep.exact_growth_f == (3, 1)
    assert "5/3" in rep.note or "(5/3)" in rep.note


def test_spr_report_q3():
    rep = spr_report(3)
    assert math.isclose(rep.h_nats, 2 * math.log(3), rel_tol=1e-12)
    assert math.isclose(rep.growth_f_nats, math.log(3) + math.log(11) / 3, rel_tol=1e-12)
    assert rep.spr


@pytest.mark.parametrize("q", list(range(2, 10)))
def test_spr_margin_positive_and_exact(q):
    rep = spr_report(q)
    assert rep.spr and rep.margin_nats > 0
    assert math.isclose(
        rep.margin_nats, math.log(q**3 / (q * q + q - 1)) / 3, rel_tol=1e-12
    )
    # the exact symbolic pairs evaluate to the reported floats
    a, b = rep.exact_h
    assert math.isclose(rep.h_nats, math.log(q**a * (q * q + q - 1) ** b) / 3, rel_tol=1e-12)
    c, d = rep.exact_growth_f
    assert math.isclose(
        rep.growth_f_nats, math.log(q**c * (q * q + q - 1) ** d) / 3, rel_tol=1e-12
    )


def test_pgl2_closed_examples():
    assert pgl2_closed(2, 2, "g") == 2
    assert pgl2_closed(2, 4, "f") == 4
    assert pgl2_closed(3, 4, "g") == 54
    assert pgl2_closed(2, 3, "g") == 0


@pytest.mark.parametrize("q", [2, 3, 5])
def test_pgl2_renewal_identity(q):
    gs = [pgl2_closed(q, 2 * n, "g") for n in range(1, 6)]
    fs = [pgl2_closed(q, 2 * n, "f") for n in range(1, 6)]
    assert renewal_f(gs) == fs


def test_empirical_growth_from_dp():
    gs = [shift.dp_g(2, 3 * n) for n in range(1, 4)]
    assert math.isclose(empirical_growth(gs, 3), 2 * math.log(2), rel_tol=1e-12)
    fs = [shift.dp_f(2, 3 * n) for n in range(1, 4)]
    assert math.isclose(empirical_growth(fs, 3), math.log(40) / 3, rel_tol=1e-12)


def test_tree_oracle_against_remark_values():
    assert building.oracle_counts(2, 2, dim=2) == 2
    assert building.oracle_counts(2, 4, dim=2, first_return=True) == 4
    assert building.oracle_counts(3, 4, dim=2) == 54
