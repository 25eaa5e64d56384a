"""The cross-validation matrix behind the ``validate`` command.

Every check compares two independently computed answers (oracle vs DP,
DP vs closed form, fold rule vs measured census, ...) and reports a
machine-readable pass/fail with the expected and actual values.  The
check list is fixed; oracle runs that would blow the leaf budget are
reported as skipped, never silently dropped.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field

from . import analysis, building, shift
from .errors import UnsupportedFieldError


@dataclass
class CheckResult:
    name: str
    passed: bool
    skipped: bool = False
    expected: str = ""
    actual: str = ""
    detail: str = ""

    @property
    def cut_short(self) -> bool:
        """Passed on the lengths the leaf budget let run, not on all."""
        return self.passed and not self.skipped and "budget" in self.detail


@dataclass
class ValidationConfig:
    q: int = 2
    steps: int = 6
    m_max: int = 5
    max_leaves: int = building.DEFAULT_MAX_LEAVES
    prefix_len: int = 6
    closed_horizon: int = 5  # closed-form checks run for n = 1 .. this
    # fault-injection hook for tests: {((k2,l2),(k2,l2)): weight}
    weight_override: dict = field(default_factory=dict)


def _apply_override(table, override):
    if not override:
        return table
    out = {e: dict(s) for e, s in table.items()}
    for (from_d, to_d), w in override.items():
        fe = shift.QuotientEdge.from_doubled(*from_d)
        te = shift.QuotientEdge.from_doubled(*to_d)
        out.setdefault(fe, {})[te] = w
    return out


def _check(name: str, fn) -> CheckResult:
    try:
        return fn()
    except UnsupportedFieldError as exc:  # a capacity limit, not a disagreement
        return CheckResult(name, True, skipped=True, detail=f"capacity limit: {exc}")
    except Exception as exc:  # surfaced, never repaired
        return CheckResult(name, False, detail=f"{type(exc).__name__}: {exc}")


def _agree(name, ns, got, want, detail="", expected=None, where=False) -> CheckResult:
    """The check that ``got`` equals ``want`` entry by entry over ``ns``.
    It reports both lists, or ``expected`` and "agree" or the (n, got,
    want) mismatches; with ``where`` a mismatch replaces ``detail``."""
    bad = [(n, a, b) for n, a, b in zip(ns, got, want) if a != b]
    if expected is None:
        expected, actual = str(want), str(got)
    else:
        actual = str(bad) if bad else "agree"
    detail = f"mismatch at n={bad}" if where and bad else detail
    return CheckResult(name, not bad, expected=expected, actual=actual, detail=detail)


def run_validation(cfg: ValidationConfig) -> list[CheckResult]:
    """Every check of the matrix, in report order."""
    q = cfg.q
    results: list[CheckResult] = []
    ns = list(range(1, cfg.closed_horizon + 1))
    grid = [3 * n for n in ns]
    oracle_ns = [n for n in range(3, cfg.steps + 1, 3)]
    base = shift.BASE_KEY
    # The lengths each oracle check runs, each check under its own leaf
    # budget: the g and f checks and the tree check under max_leaves, the
    # period probes under a tighter sub-budget.
    leaves = building.oracle_leaves
    probe_budget = min(cfg.max_leaves, 1_000_000)
    oracle_ran = [n for n in oracle_ns if leaves(q, n) <= cfg.max_leaves]
    probe_ran = [n for n in (1, 2, 4, 5) if leaves(q, n) <= probe_budget]
    tree_ran = [n for n in (2, 4, 6) if leaves(q, n, 2) <= cfg.max_leaves]
    reach = {3: max(oracle_ran + probe_ran, default=1), 2: max(tree_ran, default=1)}
    # One DP sweep per kind (closed, first-return) to the longest n any
    # check reads (N_12 for three_step_recursion), one oracle walk per
    # dim to the longest n any check runs, and the three-step
    # coefficients once, each made inside the first check that needs
    # it.  A fault is that check's FAIL, and every later reader's too:
    # functools.cache keeps no exceptions.
    horizon = max([12, *grid, *oracle_ran])
    sweep = functools.cache(lambda taboo: list(shift.dp_sweep(q, horizon, taboo)))
    walk = functools.cache(lambda dim: building.oracle_returns(q, reach[dim], dim, cfg.max_leaves))
    coefficients = functools.cache(lambda: shift.three_step_coefficients(q))

    def counts(steps: list[int], taboo: bool = False) -> list[int]:
        return [sweep(taboo)[n].get(base, 0) for n in steps]

    for name, taboo, closed in (
        ("closed_vs_dp_g", False, analysis.closed_g),
        ("closed_vs_dp_f", True, analysis.closed_f),
    ):

        def closed_vs_dp(name=name, taboo=taboo, closed=closed):
            got, want = counts(grid, taboo), [closed(q, n) for n in grid]
            return _agree(name, ns, got, want, f"n=1..{ns[-1]}", where=True)

        results.append(_check(name, closed_vs_dp))

    def renewal():
        gs, fs = counts(grid), counts(grid, True)
        want = analysis.renewal_f(gs)
        return CheckResult(
            "renewal_identity", fs == want, expected=str(want), actual=str(fs)
        )

    results.append(_check("renewal_identity", renewal))

    def ratios():
        gs, fs = counts(grid), counts(grid, True)
        ok_g = all(b == a * q**6 for a, b in zip(gs, gs[1:]))
        ok_f = all(b == a * q**3 * (q * q + q - 1) for a, b in zip(fs, fs[1:]))
        return CheckResult(
            "ratio_rigidity",
            ok_g and ok_f,
            expected=f"g ratio q^6={q**6}, f ratio q^3(q^2+q-1)={q**3 * (q*q+q-1)}",
            actual=f"g={[b // a for a, b in zip(gs, gs[1:])]}, f={[b // a for a, b in zip(fs, fs[1:])]}",
        )

    results.append(_check("ratio_rigidity", ratios))

    def period_dp():
        off = [1, 2, 4, 5, 7, 8]
        offs = [n for n, g, f in zip(off, counts(off), counts(off, True)) if g or f]
        return CheckResult(
            "period_zeros_dp",
            not offs,
            expected="0 off the period-3 grid",
            actual=f"nonzero at {offs}" if offs else "all zero",
        )

    results.append(_check("period_zeros_dp", period_dp))

    def n_table():
        bad = []
        for n in (1, 2, 3):
            prof = sweep(False)[3 * n]
            for (k2, l2), c in prof.items():
                want = analysis.closed_N(q, n, k2, l2)
                if want != c:
                    bad.append((n, shift.QuotientEdge.from_doubled(k2, l2).pretty(), c, want))
            # closed form must vanish exactly off the support
            for e in shift.all_valid_edges(3 * n + 3):
                if (e.k2 + e.l2) % 3 != 1:
                    continue
                want = analysis.closed_N(q, n, e.k2, e.l2)
                have = prof.get((e.k2, e.l2), 0)
                if want != have:
                    bad.append((n, e.pretty(), have, want))
        return CheckResult(
            "n_table_closed_vs_dp",
            not bad,
            expected="closed N-table = DP profile on every valid edge, n=1..3",
            actual="agree" if not bad else f"mismatches {bad[:5]}",
        )

    results.append(_check("n_table_closed_vs_dp", n_table))

    results.append(
        CheckResult(
            "n_table_vacuous_diagonal_row",
            True,
            detail=(
                "the diagonal formula row at indices ((3n-1)/2, (3n-1)/2) names no "
                "edge when n is odd (both doubled indices would be even); it is "
                "vacuous there, consistent with exact mass conservation"
            ),
        )
    )

    def three_step():
        # raises unless the coefficients equal the expected polynomials
        got = str(coefficients())
        return CheckResult("three_step_coefficients", True, expected=got, actual=got)

    results.append(_check("three_step_coefficients", three_step))

    def three_step_recursion():
        coeffs = coefficients()
        profs = sweep(False)
        bad = []
        for n in (1, 2, 3):
            prev, nxt = profs[3 * n], profs[3 * n + 3]
            predicted = sum(
                c * prev.get((e.k2, e.l2), 0) for c, e in zip(coeffs, shift.THREE_STEP_FEEDERS)
            )
            got = nxt.get(base, 0)
            if predicted != got:
                bad.append((n, predicted, got))
        return CheckResult(
            "three_step_recursion",
            not bad,
            expected="N_{3n+3}(base) from the four 3-step coefficients, n=1..3",
            actual="agree" if not bad else str(bad),
        )

    results.append(_check("three_step_recursion", three_step_recursion))

    def mass():
        masses = map(shift.profile_mass, sweep(False)[:10])
        bad = [(s, m, (q * q) ** s) for s, m in enumerate(masses) if m != (q * q) ** s]
        return CheckResult(
            "mass_conservation",
            not bad,
            expected="total mass q^(2s) for s <= 9",
            actual="conserved" if not bad else str(bad),
        )

    results.append(_check("mass_conservation", mass))

    def grading():
        profs = sweep(False)[:10]
        bad = []
        for s, p in enumerate(profs):
            for k2, l2 in p:
                if (k2 + l2) % 3 != (1 + 2 * s) % 3:
                    bad.append((s, shift.QuotientEdge.from_doubled(k2, l2).pretty()))
        return CheckResult(
            "support_grading",
            not bad,
            expected="k2+l2 = 1+2s (mod 3) on every supported edge",
            actual="holds" if not bad else str(bad[:5]),
        )

    results.append(_check("support_grading", grading))

    table = _apply_override(shift.build_graph(q, cfg.m_max), cfg.weight_override)

    def alphabet():
        allowed = shift.weight_alphabet(q)
        bad = [
            (e.pretty(), s.pretty(), w)
            for e, s, w in shift.sorted_table_items(table)
            if w not in allowed
        ]
        return CheckResult(
            "weight_alphabet",
            not bad,
            expected=f"weights within {sorted(allowed)}",
            actual="all within" if not bad else f"violations {bad}",
        )

    results.append(_check("weight_alphabet", alphabet))

    def out_sums():
        bad = [
            (e.pretty(), sum(succs.values()))
            for e, succs in table.items()
            if sum(succs.values()) != q * q
        ]
        return CheckResult(
            "out_weight_sums",
            not bad,
            expected=f"out-weights sum to q^2 = {q * q}",
            actual="all correct" if not bad else f"violations {bad}",
        )

    results.append(_check("out_weight_sums", out_sums))

    def census():
        measured = building.oracle_transition_census(q, cfg.m_max)
        mism = []
        for e in sorted(set(table) | set(measured), key=lambda x: (x.k2, x.l2)):
            a = table.get(e)
            b = measured.get(e)
            if a != b:
                mism.append(f"{e.pretty()}: fold-rule {_fmt_succs(a)} vs census {_fmt_succs(b)}")
        return CheckResult(
            "census_vs_fold",
            not mism,
            expected="fold-rule table = measured census on every reachable edge",
            actual="identical" if not mism else "; ".join(mism[:4]),
            detail=f"{len(table)} edges within m <= {cfg.m_max}",
        )

    results.append(_check("census_vs_fold", census))

    if q == 2:

        def prefixes():
            mism = building.oracle_prefix_mismatches(q, cfg.prefix_len)
            return CheckResult(
                "prefix_independence",
                not mism,
                expected=f"identical successor multisets for all prefixes up to length {cfg.prefix_len}",
                actual="independent" if not mism else mism[0],
            )

        results.append(_check("prefix_independence", prefixes))
    else:
        results.append(
            CheckResult(
                "prefix_independence",
                True,
                skipped=True,
                detail="exhaustive prefix sweep is run at q=2",
            )
        )

    for name, first_return in (("oracle_vs_dp_g", False), ("oracle_vs_dp_f", True)):

        def oracle_check(name=name, first_return=first_return):
            detail = ", ".join(
                f"n={n} needs {leaves(q, n)} leaves" for n in oracle_ns if n not in oracle_ran
            )
            detail = detail and "skipped (budget): " + detail
            if not oracle_ran:
                return CheckResult(name, True, skipped=True, detail=detail or "no n within budget")
            # the walk gives (closed, first-return): index 0 or 1
            got = [walk(3)[n][first_return] for n in oracle_ran]
            want = counts(oracle_ran, first_return)
            return _agree(name, oracle_ran, got, want, detail or f"n={oracle_ran}")

        results.append(_check(name, oracle_check))

    def oracle_period():
        bad = []
        skipped_n = []
        for n in (1, 2, 4, 5):
            if n not in probe_ran:
                skipped_n.append(n)
                continue
            got = walk(3)[n][0]
            if got:
                bad.append((n, got))
        if skipped_n and not bad:
            return CheckResult(
                "oracle_period_zeros",
                True,
                skipped=len(skipped_n) == 4,
                detail=f"budget-skipped n={skipped_n}" if skipped_n else "",
            )
        return CheckResult(
            "oracle_period_zeros",
            not bad,
            expected="0 off the period-3 grid",
            actual="all zero" if not bad else str(bad),
        )

    results.append(_check("oracle_period_zeros", oracle_period))

    def spr():
        rep = analysis.spr_report(q)
        ident = math.isclose(
            rep.margin_nats, math.log(q**3 / (q * q + q - 1)) / 3.0, rel_tol=1e-12
        )
        ok = (
            rep.spr
            and rep.margin_nats > 0
            and ident
            and rep.exact_h == (6, 0)
            and rep.exact_growth_f == (3, 1)
            and rep.paper_claimed_growth_nats > 0
        )
        return CheckResult(
            "spr_margin",
            ok,
            expected="positive margin (1/3) log(q^3/(q^2+q-1)), exact pairs (6,0)/(3,1)",
            actual=f"margin={rep.margin_nats:.6f}, spr={rep.spr}",
            detail=rep.note,
        )

    results.append(_check("spr_margin", spr))

    def pgl2():
        skipped_n = [n for n in (2, 4, 6) if n not in tree_ran]
        detail = f"budget-skipped n={skipped_n}" if skipped_n else ""
        if not tree_ran:
            return CheckResult("pgl2_closed_vs_oracle", True, skipped=True, detail=detail)
        got = [walk(2)[n] for n in tree_ran]
        want = [(analysis.pgl2_closed(q, n, "g"), analysis.pgl2_closed(q, n, "f")) for n in tree_ran]
        expected = f"tree oracle = closed tree counts, n={tree_ran}"
        return _agree("pgl2_closed_vs_oracle", tree_ran, got, want, detail, expected)

    results.append(_check("pgl2_closed_vs_oracle", pgl2))

    def pgl2_renewal():
        gs = [analysis.pgl2_closed(q, 2 * n, "g") for n in range(1, 6)]
        fs = [analysis.pgl2_closed(q, 2 * n, "f") for n in range(1, 6)]
        want = analysis.renewal_f(gs)
        return CheckResult(
            "pgl2_renewal", fs == want, expected=str(want), actual=str(fs)
        )

    results.append(_check("pgl2_renewal", pgl2_renewal))

    return results


def _fmt_succs(succs) -> str:
    if succs is None:
        return "(absent)"
    return (
        "{"
        + ", ".join(
            f"{e.pretty()}: {w}" for e, w in sorted(succs.items(), key=lambda x: (x[0].k2, x[0].l2))
        )
        + "}"
    )


def all_passed(results: list[CheckResult]) -> bool:
    return all(r.passed for r in results)
