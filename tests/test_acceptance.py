"""Acceptance suite: every criterion at its stated range and tolerance.

All comparisons are exact (these are integer counting identities); the
only floats are growth rates, pinned by their exact symbolic forms.
Each test prints one pass/fail line.
"""

import math
import random
import time
from contextlib import contextmanager

from conftest import record_criterion

from buildingflow import analysis, building, shift
from buildingflow.algebra import FiniteField, LaurentMatrix
from buildingflow.building import VertexClass, birkhoff_invariant, fast_invariant


@contextmanager
def criterion(num, desc):
    t0 = time.time()
    try:
        yield
    except BaseException:
        line = f"criterion {num:>2} FAIL {desc} ({time.time() - t0:.1f}s)"
        print(line)
        record_criterion(line)
        raise
    line = f"criterion {num:>2} PASS {desc} ({time.time() - t0:.1f}s)"
    print(line)
    record_criterion(line)


def test_criterion_01_closed_vs_dp_g():
    with criterion(1, "closed form vs DP, closed cycles, q in {2,3,5}, n <= 15"):
        for q in (2, 3, 5):
            for n in range(1, 6):
                assert shift.dp_g(q, 3 * n) == analysis.closed_g(q, 3 * n)
        assert [shift.dp_g(2, 3 * n) for n in range(1, 5)] == [24, 1536, 98304, 6291456]
        assert shift.dp_g(3, 3) == 432
        assert shift.dp_g(3, 6) == 314928


def test_criterion_02_closed_vs_dp_f():
    with criterion(2, "closed form vs DP, first returns, q in {2,3,5}, n <= 15"):
        for q in (2, 3, 5):
            for n in range(1, 6):
                assert shift.dp_f(q, 3 * n) == analysis.closed_f(q, 3 * n)
        assert [shift.dp_f(2, 3 * n) for n in range(1, 4)] == [24, 960, 38400]
        assert shift.dp_f(3, 3) == 432
        assert shift.dp_f(3, 6) == 128304


def test_criterion_03_renewal_identity():
    with criterion(3, "renewal identity, exact, q in {2,3,5}, n <= 15"):
        for q in (2, 3, 5):
            gs = [shift.dp_g(q, 3 * n) for n in range(1, 6)]
            fs = [shift.dp_f(q, 3 * n) for n in range(1, 6)]
            assert analysis.renewal_f(gs) == fs


def test_criterion_04_oracle_vs_dp():
    with criterion(4, "building oracle vs DP, q in {2,3}, n in {3,6}"):
        for q in (2, 3):
            for n in (3, 6):
                g, f = building.oracle_g_f(q, n)
                assert g == shift.dp_g(q, n), (q, n)
                assert f == shift.dp_f(q, n), (q, n)


def test_criterion_04b_oracle_q2_n9_optional():
    with criterion(4, "optional long run: oracle vs DP at q=2, n=9"):
        g, f = building.oracle_g_f(2, 9)
        assert g == shift.dp_g(2, 9) == 98304
        assert f == shift.dp_f(2, 9) == 38400


def test_criterion_05_n_table():
    with criterion(5, "endpoint table: frozen step-3 profile and closed N vs DP"):
        prof = shift.dp_profiles(2, 3)[3]
        assert {(e.k2, e.l2): c for e, c in prof.items()} == {
            (1, 0): 24, (3, 1): 18, (4, 3): 12, (5, 2): 6, (6, 1): 3, (7, 0): 1,
        }
        assert sum(prof.values()) == 64
        for q in (2, 3):
            for n in (1, 2, 3):
                dp = shift.dp_profiles(q, 3 * n)[3 * n]
                for e in shift.all_valid_edges(3 * n + 3):
                    if (e.k2 + e.l2) % 3 != 1:
                        continue
                    assert analysis.closed_N(q, n, e.k2, e.l2) == dp.get(e, 0), (q, n, e)


def test_criterion_06_three_step_recursion():
    with criterion(6, "three-step recursion coefficients and reproduction"):
        feeders = [
            shift.QuotientEdge.from_doubled(1, 0),
            shift.QuotientEdge.from_doubled(3, 1),
            shift.QuotientEdge.from_doubled(4, 3),
            shift.QuotientEdge.from_doubled(5, 5),
        ]
        for q in (2, 3):
            coeffs = shift.three_step_coefficients(q)
            assert coeffs == (
                q * q * (q * q - 1) * (q * q - q),
                q**4 * (q * q - q),
                q**4 * (q * q - q),
                q**6,
            )
            profs = shift.dp_profiles(q, 12)
            for n in (1, 2, 3):
                prev, nxt = profs[3 * n], profs[3 * n + 3]
                predicted = sum(c * prev.get(e, 0) for c, e in zip(coeffs, feeders))
                assert predicted == nxt.get(shift.base_edge(), 0)


def test_criterion_07_weight_census():
    with criterion(7, "fold-rule weights = oracle census (m <= 5) + prefix independence"):
        for q in (2, 3):
            fold_table = shift.build_graph(q, 5)
            census = building.oracle_transition_census(q, 5)
            assert fold_table == census
            allowed = shift.weight_alphabet(q)
            for e, succs in fold_table.items():
                assert set(succs.values()) <= allowed
                assert sum(succs.values()) == q * q
        assert building.oracle_prefix_mismatches(2, 6) == []


def test_criterion_08_period_zeros():
    with criterion(8, "everything vanishes off the period-3 grid, q=2"):
        for n in (1, 2, 4, 5, 7, 8):
            assert shift.dp_g(2, n) == 0
            assert shift.dp_f(2, n) == 0
            g, f = building.oracle_g_f(2, n)
            assert g == 0 and f == 0


def test_criterion_09_entropy_spr():
    with criterion(9, "entropy 2 log q, growth, positive margin for q in 2..9"):
        for q in (2, 3):
            gs = [shift.dp_g(q, 3 * n) for n in range(1, 5)]
            assert all(b == a * q**6 for a, b in zip(gs, gs[1:]))  # ratio test
        for q in range(2, 10):
            rep = analysis.spr_report(q)
            assert rep.exact_h == (6, 0)
            assert rep.exact_growth_f == (3, 1)
            assert rep.spr and rep.margin_nats > 0
            assert math.isclose(
                rep.margin_nats, math.log(q**3 / (q * q + q - 1)) / 3, rel_tol=1e-12
            )
            assert math.isclose(
                rep.paper_claimed_growth_nats, 5 * math.log(q) / 3, rel_tol=1e-12
            )
            assert rep.note  # the documented growth-rate discrepancy


def test_criterion_10_tree_analogue():
    with criterion(10, "tree analogue: closed forms vs dim-2 oracle and renewal"):
        for q in (2, 3):
            for n in (2, 4, 6):
                g, f = building.oracle_g_f(q, n, dim=2)
                assert g == analysis.pgl2_closed(q, n, "g"), (q, n)
                assert f == analysis.pgl2_closed(q, n, "f"), (q, n)
            gs = [analysis.pgl2_closed(q, 2 * n, "g") for n in range(1, 6)]
            fs = [analysis.pgl2_closed(q, 2 * n, "f") for n in range(1, 6)]
            assert analysis.renewal_f(gs) == fs


def _random_unimodular_poly(f, rng):
    m = LaurentMatrix.identity(f, 3)
    for _ in range(6):
        i, j = rng.sample(range(3), 2)
        rows = [[dict(e) for e in row] for row in LaurentMatrix.identity(f, 3).rows]
        rows[i][j] = {rng.randint(0, 2): rng.randrange(1, f.q)}
        m = m @ LaurentMatrix(f, rows)
    return m


def _random_compact_unit(f, rng):
    while True:
        rows = [[{0: c} if (c := rng.randrange(f.q)) else {} for _ in range(3)] for _ in range(3)]
        cm = LaurentMatrix(f, rows)
        det, _ = cm.det_adj()
        if det:
            break
    rows = [[dict(e) for e in row] for row in cm.rows]
    for i in range(3):
        for j in range(3):
            for e in (-1, -2):
                c = rng.randrange(f.q)
                if c and rng.random() < 0.4:
                    rows[i][j][e] = c
    return LaurentMatrix(f, rows)


def test_criterion_11_invariant_robustness():
    with criterion(11, "invariant stable under 20 unit multiplications + degree slack"):
        f = FiniteField(2)
        rng = random.Random(20240817)
        mats = building.oracle_path_vertices(2, 6, stride=211)  # the n=6 run
        assert len(mats) >= 20
        for m in mats:
            v = VertexClass(m)
            want = birkhoff_invariant(v)
            assert birkhoff_invariant(v, degree_margin=3) == want
            assert fast_invariant(m) == want
            for _ in range(10):
                gamma = _random_unimodular_poly(f, rng)
                assert birkhoff_invariant(VertexClass(gamma @ m)) == want
            for _ in range(10):
                kappa = _random_compact_unit(f, rng)
                assert birkhoff_invariant(VertexClass(m @ kappa)) == want
            assert birkhoff_invariant(VertexClass(m.scale_monomial(rng.randint(1, 3)))) == want
