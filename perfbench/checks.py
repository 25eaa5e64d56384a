"""Output checks and work counts for the buildingflow benchmark.

Expected outputs and work counts follow from the workload inputs (and,
for DP edge-steps, the fold-rule table the ``weights`` command prints),
never from the package's internals, so a wrong answer or a changed work
definition cannot hide behind the code it is meant to check.
"""

from __future__ import annotations

import hashlib

#: Doubled indices (k2, l2) of the base edge e(1/2, 0) of the quotient shift.
BASE_EDGE = (1, 0)


def expected_g(q: int, n: int) -> int:
    """Closed cycles of length n = 3m: q^(6m-4) (q^2-1)(q^2-q)."""
    m = n // 3
    return q ** (6 * m - 4) * (q * q - 1) * (q * q - q)


def expected_f(q: int, n: int) -> int:
    """First returns of length n = 3m: q^(3m-1) (q^2-1)(q^2-q)(q^2+q-1)^(m-1)."""
    m = n // 3
    return q ** (3 * m - 1) * (q * q - 1) * (q * q - q) * (q * q + q - 1) ** (m - 1)


def count_table_ok(stdout: bytes, q: int, steps: int, kind: str) -> bool:
    """True when ``stdout`` is the human ``count`` table of the pgl3 g or f
    sequence at n = 3, 6, ..., steps, with every count exactly right."""
    expected = expected_g if kind == "g" else expected_f
    want = [[str(n), str(expected(q, n))] for n in range(3, steps + 1, 3)]
    try:
        lines = stdout.decode("ascii").splitlines()
    except UnicodeDecodeError:
        return False
    return bool(lines) and lines[0].split() == ["n", "count"] and [
        line.split() for line in lines[1:]
    ] == want


def digest_ok(stdout: bytes, sha256: str) -> bool:
    return hashlib.sha256(stdout).hexdigest() == sha256


def oracle_nodes(q: int, n: int, dim: int = 3) -> int:
    """Nodes one exhaustive oracle walk of length n visits: the words of
    length d <= n over q^2 moves (q moves for the PGL2 tree)."""
    moves = q * q if dim == 3 else q
    return sum(moves**d for d in range(n + 1))


def parse_weights_csv(text: str) -> dict[tuple[int, int], set[tuple[int, int]]]:
    """Successor sets of the ``weights --format csv`` table, keeping only
    transitions of positive weight."""
    succ: dict[tuple[int, int], set[tuple[int, int]]] = {}
    lines = text.splitlines()
    if not lines or lines[0] != "from_k2,from_l2,to_k2,to_l2,weight":
        raise ValueError("not a weights csv table")
    for line in lines[1:]:
        fk, fl, tk, tl, w = (int(x) for x in line.split(","))
        if w > 0:
            succ.setdefault((fk, fl), set()).add((tk, tl))
    return succ


def support_sizes(succ, steps: int, taboo: bool) -> list[int]:
    """|support| of the DP profile after s = 0 .. steps-1 steps from the
    base edge; with ``taboo`` the base edge is dropped at every step after
    the first, as the first-return DP does before its final step."""
    sizes = []
    support = {BASE_EDGE}
    for s in range(steps):
        if s:
            support = {t for e in support for t in succ[e]}
            if taboo:
                support.discard(BASE_EDGE)
        sizes.append(len(support))
    return sizes


class EdgeSteps:
    """Edge-steps of the public DP calls: the number of (profile edge,
    step) pairs a sweep expands, from one reference support sweep per
    (q, taboo)."""

    def __init__(self, succ_by_q, max_steps: int):
        self._prefix = {}
        for q, succ in succ_by_q.items():
            for taboo in (False, True):
                sums = [0]
                for size in support_sizes(succ, max_steps, taboo):
                    sums.append(sums[-1] + size)
                self._prefix[q, taboo] = sums

    def sweep(self, q: int, steps: int, taboo: bool = False) -> int:
        return self._prefix[q, taboo][steps]

    def call(self, fn: str, q: int, n: int) -> int:
        """Edge-steps of one ``dp_g``/``dp_f``/``dp_profiles`` call; dp_g and
        dp_f return at once off the period-3 grid."""
        if fn == "dp_profiles":
            return self.sweep(q, n)
        if n % 3:
            return 0
        return self.sweep(q, n, taboo=(fn == "dp_f"))
