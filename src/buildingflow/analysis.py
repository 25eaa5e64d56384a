"""Closed-form cycle counts, growth rates, and the recurrence verdict.

All counting formulas are exact integer expressions; growth rates are
reported both as floats (natural log) and as exact symbolic pairs
(a, b) standing for (1/3) * log(q^a * (q^2 + q - 1)^b), which keeps the
acceptance checks free of float comparisons.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

from . import shift
from .errors import InternalConsistencyError

#: Fixed wording for the documented growth-rate discrepancy carried by
#: every report (see SprReport.note).
GROWTH_NOTE = (
    "The first-return growth rate computed from the exact closed form is "
    "log q + (1/3) log(q^2+q-1); the announced value (5/3) log q is strictly "
    "smaller for every finite q and matches only in the q -> infinity limit. "
    "Both are reported; the recurrence inequality holds under either reading."
)


def closed_g(q: int, n: int) -> int:
    """Closed form for length-n cycles over the origin:
    q^(6m-4) (q^2-1)(q^2-q) at n = 3m, zero off the period."""
    if n < 1:
        raise ValueError("n must be >= 1")
    if n % 3:
        return 0
    m = n // 3
    return q ** (6 * m - 4) * (q * q - 1) * (q * q - q)


def closed_f(q: int, n: int) -> int:
    """Closed form for first-return cycles:
    q^(3m-1) (q^2-1)(q^2-q)(q^2+q-1)^(m-1) at n = 3m, zero off the period."""
    if n < 1:
        raise ValueError("n must be >= 1")
    if n % 3:
        return 0
    m = n // 3
    return q ** (3 * m - 1) * (q * q - 1) * (q * q - q) * (q * q + q - 1) ** (m - 1)


def closed_N(q: int, n: int, k2: int, l2: int) -> int:
    """Closed form for the endpoint distribution after 3n steps on the
    edge named (k, l) = (k2/2, l2/2).

    The name must decode to an actual edge of the shift whose index sum
    k + l lies in the residue class reached at step 3n (k2 + l2 = 1 mod 3);
    anything else is a domain error.  The formula rows overlap in one
    place, the diagonal point k = l = (3n-1)/2, where the band row and
    the corner row agree identically; any edge matched by rows that
    disagree in value is an internal error.
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    edge = shift.QuotientEdge.from_doubled(k2, l2)  # raises if not an edge
    if (k2 + l2) % 3 != 1:
        raise ValueError(
            f"edge {edge.pretty()} has index sum {(k2 + l2)}/2, unreachable at a multiple of 3"
        )
    q2 = q * q
    # the support cutoff comes first: the diagonal band row below would
    # otherwise spill past the reachable cone (its bound is on k alone)
    if k2 + l2 > 6 * n + 1:
        return 0
    matches = []
    if l2 == 0 and 1 <= k2 <= 6 * n - 5:
        matches.append(q ** (6 * n - 3 - k2) * (q2 - 1) * (q2 - q))
    if l2 == k2 and 5 <= k2 <= 6 * n - 5:
        matches.append(q ** (6 * n - 3 - k2) * (q2 - 1) * (q2 - q))
    if k2 + l2 < 6 * n - 2 and 0 < l2 < k2:
        matches.append(q ** (6 * n - 2 - k2) * (q2 - 1) ** 2)
    if k2 + l2 == 6 * n - 2 and l2 % 2 == 1 and l2 < k2:
        matches.append(q**l2 * (q2 - 1) ** 2)
    if k2 == l2 == 3 * n - 1:
        matches.append(q ** (l2 - 1) * (q2 - 1) * (q2 - q))
    if k2 + l2 == 6 * n + 1 and l2 != 0:
        matches.append(q ** (l2 - 1) * (q2 - 1))
    if (k2, l2) == (6 * n + 1, 0):
        matches.append(1)
    values = set(matches)
    if len(values) != 1:
        raise InternalConsistencyError(
            f"formula rows give {sorted(values)} on edge {edge.pretty()} at n={n}"
        )
    return values.pop()


def renewal_f(g_sequence: list[int]) -> list[int]:
    """Turn (g_3, g_6, ...) into (f_3, f_6, ...) by the renewal recursion
    f_m = g_m - sum_{k<m} f_k g_{m-k} over the period grid."""
    fs: list[int] = []
    for i, g in enumerate(g_sequence):
        s = g
        for k in range(i):
            s -= fs[k] * g_sequence[i - 1 - k]
        fs.append(s)
    return fs


def empirical_growth(counts: list[int], step: int) -> float:
    """Finite-horizon growth estimate: (1/step) log of the ratio of the
    last two nonzero terms."""
    nz = [c for c in counts if c != 0]
    if len(nz) < 2:
        raise ValueError("need at least two nonzero terms")
    return math.log(nz[-1] / nz[-2]) / step


@dataclass
class SprReport:
    """Entropy versus first-return growth for one field size.

    ``exact_h`` and ``exact_growth_f`` are pairs (a, b) encoding
    (1/3) log(q^a (q^2+q-1)^b).
    """

    q: int
    h_nats: float
    growth_f_nats: float
    margin_nats: float
    paper_claimed_growth_nats: float
    spr: bool
    exact_h: tuple[int, int] = (6, 0)
    exact_growth_f: tuple[int, int] = (3, 1)
    note: str = field(default=GROWTH_NOTE)


def spr_report(q: int) -> SprReport:
    """Entropy, first-return growth, and the recurrence margin for q.

    The entropy 2 log q is certified by the exact DP ratio test
    g_{3(n+1)} / g_{3n} = q^6; the first-return growth comes from the
    closed form.  The margin is (1/3) log(q^3 / (q^2+q-1)), positive for
    every q >= 2.
    """
    if q < 2:
        raise ValueError("q must be >= 2")
    profs = enumerate(shift.dp_sweep(q, 9))
    gs = [p.get(shift.BASE_KEY, 0) for s, p in profs if s in (3, 6, 9)]
    for a, b in zip(gs, gs[1:]):
        if b != a * q**6:
            raise InternalConsistencyError(f"DP ratio test failed at q={q}: {b} != {a} * q^6")
    h = 2.0 * math.log(q)
    growth = math.log(q) + math.log(q * q + q - 1) / 3.0
    margin = math.log(q**3 / (q * q + q - 1)) / 3.0
    return SprReport(
        q=q,
        h_nats=h,
        growth_f_nats=growth,
        margin_nats=margin,
        paper_claimed_growth_nats=5.0 * math.log(q) / 3.0,
        spr=q**3 > q * q + q - 1,
    )


def pgl2_closed(q: int, n: int, kind: str) -> int:
    """Closed counts for the rank-1 tree analogue: at even n = 2m,
    g = q^(n-1)(q-1) and f = q^m(q-1); zero at odd n."""
    if n < 1:
        raise ValueError("n must be >= 1")
    if kind not in ("g", "f"):
        raise ValueError("kind must be 'g' or 'f'")
    if n % 2:
        return 0
    if kind == "g":
        return q ** (n - 1) * (q - 1)
    return q ** (n // 2) * (q - 1)
