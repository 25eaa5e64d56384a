"""The folded quotient of the building and its countable Markov shift.

Vertices of the quotient live in the sector {(m, n) : m >= n >= 0}; the
type-1 directed edges between them are the states of a countable Markov
shift whose transition weights count lifts back to the building.  A step
moves the target by one of three displacements

    R = (1, 0)    U = (0, 1)    D = (-1, -1)

and steps leaving the sector are reflected back in.  Everything here is
exact integer arithmetic; counts are arbitrary-precision ints.
"""

from __future__ import annotations

from collections import deque
from functools import lru_cache
from typing import Iterator, NamedTuple

from .errors import InternalConsistencyError

R = (1, 0)
U = (0, 1)
D = (-1, -1)
DISPLACEMENTS = (R, U, D)

#: Lift multiplicities for one interior step, keyed on (incoming, outgoing)
#: displacement.  Weights are polynomials in q given as (coefficient of q^2,
#: coefficient of q, constant); boundary weights are never entered by hand --
#: they arise from folding and summing these.
_INTERIOR_RULE = {
    (R, R): (0, 0, 1),  # 1
    (R, U): (0, 1, -1),  # q - 1
    (R, D): (1, -1, 0),  # q^2 - q
    (U, R): (0, 0, 0),
    (U, U): (0, 1, 0),  # q
    (U, D): (1, -1, 0),  # q^2 - q
    (D, R): (0, 0, 0),
    (D, U): (0, 0, 0),
    (D, D): (1, 0, 0),  # q^2
}


def _weight(rule: tuple[int, int, int], q: int) -> int:
    a, b, c = rule
    return a * q * q + b * q + c


def weight_alphabet(q: int) -> set[int]:
    """The six multiplicities that may label an edge of the shift graph."""
    return {1, q - 1, q, q * q - q, q * q - 1, q * q}


class QVertex(NamedTuple):
    """A sector vertex (m, n) with m >= n >= 0; its type is (m+n) mod 3."""

    m: int
    n: int

    @property
    def vtype(self) -> int:
        return (self.m + self.n) % 3

    def is_valid(self) -> bool:
        return self.m >= self.n >= 0


def sector_neighbors(v: QVertex) -> list[QVertex]:
    """All sector vertices joined to v by an edge of the quotient complex."""
    m, n = v
    if not v.is_valid():
        raise ValueError(f"not a sector vertex: {v}")
    if m > n > 0:
        raw = [(m + 1, n), (m - 1, n), (m, n + 1), (m, n - 1), (m + 1, n + 1), (m - 1, n - 1)]
    elif m > n == 0:
        raw = [(m + 1, 0), (m - 1, 0), (m, 1), (m + 1, 1)]
    elif m == n > 0:
        raw = [(m + 1, n), (m, n - 1), (m + 1, n + 1), (m - 1, n - 1)]
    else:
        raw = [(1, 0), (1, 1)]
    return [QVertex(*p) for p in raw]


def fold(m: int, n: int) -> QVertex:
    """Reflect an integer pair back into the sector {m >= n >= 0}.

    Applies (m, n) -> (m - n, -n) while n < 0 and (m, n) -> (n, m) while
    n > m; at most two reflections are ever needed for a sector vertex
    displaced by one step.
    """
    for _ in range(3):
        if n < 0:
            m, n = m - n, -n
        elif n > m:
            m, n = n, m
        else:
            return QVertex(m, n)
    raise ValueError(f"({m}, {n}) does not fold into the sector in two steps")


class QuotientEdge(NamedTuple):
    """A type-1 directed edge of the quotient, the state of the shift.

    The half-integer name indices k = (m+m')/2 and l = (n+n')/2 are kept
    doubled (k2, l2) so that everything stays an exact integer.
    """

    source: QVertex
    target: QVertex

    @property
    def k2(self) -> int:
        return self.source.m + self.target.m

    @property
    def l2(self) -> int:
        return self.source.n + self.target.n

    @property
    def displacement(self) -> tuple[int, int]:
        return (self.target.m - self.source.m, self.target.n - self.source.n)

    def is_valid(self) -> bool:
        return (
            self.source.is_valid()
            and self.target.is_valid()
            and self.displacement in DISPLACEMENTS
            and self.target in sector_neighbors(self.source)
        )

    @classmethod
    def from_vertices(cls, sm: int, sn: int, tm: int, tn: int) -> "QuotientEdge":
        e = cls(QVertex(sm, sn), QVertex(tm, tn))
        if not e.is_valid():
            raise ValueError(f"not a type-1 quotient edge: {e}")
        return e

    @classmethod
    def from_doubled(cls, k2: int, l2: int) -> "QuotientEdge":
        """Reconstruct the edge from its doubled name indices.

        Exactly one of k2, l2 odd fixes the displacement (R when l2 is
        even, U when k2 is even, D when both are odd).
        """
        ko, lo = k2 % 2, l2 % 2
        if ko and not lo:
            src = QVertex((k2 - 1) // 2, l2 // 2)
            dst = QVertex(src.m + 1, src.n)
        elif lo and not ko:
            src = QVertex(k2 // 2, (l2 - 1) // 2)
            dst = QVertex(src.m, src.n + 1)
        elif ko and lo:
            src = QVertex((k2 + 1) // 2, (l2 + 1) // 2)
            dst = QVertex(src.m - 1, src.n - 1)
        else:
            raise ValueError(f"(k2, l2) = ({k2}, {l2}) names no edge")
        e = cls(src, dst)
        if not e.is_valid():
            raise ValueError(f"(k2, l2) = ({k2}, {l2}) names no edge")
        return e

    def pretty(self) -> str:
        def half(x2: int) -> str:
            return str(x2 // 2) if x2 % 2 == 0 else f"{x2}/2"

        return f"e({half(self.k2)},{half(self.l2)})"


def base_edge() -> QuotientEdge:
    """The edge out of the origin: (0,0) -> (1,0), name indices (1/2, 0)."""
    return QuotientEdge(QVertex(0, 0), QVertex(1, 0))


@lru_cache(maxsize=None)
def edge_transitions(edge: QuotientEdge, q: int) -> dict[QuotientEdge, int]:
    """Successor edges of one shift state with their lift multiplicities.

    The interior rule is applied at the target vertex and each raw
    successor is folded back into the sector; weights of raw successors
    folding onto the same sector edge add up.  The outgoing weights
    always sum to q^2.
    """
    if not edge.is_valid():
        raise ValueError(f"invalid edge {edge}")
    din = edge.displacement
    v = edge.target
    out: dict[QuotientEdge, int] = {}
    for dout in DISPLACEMENTS:
        w = _weight(_INTERIOR_RULE[(din, dout)], q)
        if w <= 0:
            if w < 0:
                raise InternalConsistencyError(f"negative weight at q={q}")
            continue
        folded = fold(v.m + dout[0], v.n + dout[1])
        succ = QuotientEdge(v, folded)
        if not succ.is_valid():
            raise InternalConsistencyError(f"folding produced invalid edge {succ}")
        out[succ] = out.get(succ, 0) + w
    if sum(out.values()) != q * q:
        raise InternalConsistencyError(
            f"outgoing weights from {edge} sum to {sum(out.values())}, want {q * q}"
        )
    return out


def all_valid_edges(m_max: int) -> list[QuotientEdge]:
    """Every type-1 quotient edge with both endpoint m-coordinates <= m_max."""
    out = []
    for m in range(m_max + 1):
        for n in range(m + 1):
            src = QVertex(m, n)
            for d in DISPLACEMENTS:
                tgt = QVertex(m + d[0], n + d[1])
                if tgt.is_valid() and tgt.m <= m_max:
                    e = QuotientEdge(src, tgt)
                    if e.is_valid():
                        out.append(e)
    out.sort(key=lambda e: (e.k2, e.l2))
    return out


# WeightTable: {edge: {successor_edge: multiplicity}} restricted to edges
# reachable from the base edge within an m bound.
WeightTable = dict[QuotientEdge, dict[QuotientEdge, int]]


def build_graph(q: int, m_max: int) -> WeightTable:
    """The shift graph restricted to edges reachable from the base edge
    whose endpoint m-coordinates stay <= m_max.

    Successor entries may name edges just beyond the bound; only edges
    within the bound get a row of their own.
    """
    if m_max < 2:
        raise ValueError("m_max must be >= 2")
    table: WeightTable = {}
    frontier = [base_edge()]
    seen = {base_edge()}
    while frontier:
        nxt = []
        for e in frontier:
            if max(e.source.m, e.target.m) > m_max:
                continue
            succs = edge_transitions(e, q)
            table[e] = dict(succs)
            for s in succs:
                if s not in seen:
                    seen.add(s)
                    nxt.append(s)
        frontier = nxt
    return table


def sorted_table_items(table: WeightTable) -> Iterator[tuple[QuotientEdge, QuotientEdge, int]]:
    """Flatten a weight table in the canonical export order."""
    for e in sorted(table, key=lambda x: (x.k2, x.l2)):
        succs = table[e]
        for s in sorted(succs, key=lambda x: (x.k2, x.l2)):
            yield e, s, succs[s]


# ---------------------------------------------------------------------------
# Exact dynamic programming
# ---------------------------------------------------------------------------

CountProfile = dict[QuotientEdge, int]


def dp_step(profile: CountProfile, q: int) -> CountProfile:
    out: CountProfile = {}
    for e, c in profile.items():
        for s, w in edge_transitions(e, q).items():
            out[s] = out.get(s, 0) + c * w
    return out


def dp_sweep(q: int, steps: int, taboo: bool = False) -> Iterator[CountProfile]:
    """Endpoint distributions N_0 .. N_steps of lifted paths started on
    the base edge, one DP step apart.  No truncation: without ``taboo``
    the total mass after s steps is exactly q^(2s).

    With ``taboo`` (first returns) the base-edge mass is dropped from
    the profile after it has been yielded, from step 1 on; the yielded
    dicts themselves are never changed afterwards.
    """
    base = base_edge()
    prof: CountProfile = {base: 1}
    yield prof
    for _ in range(steps):
        prof = dp_step(prof, q)
        yield prof
        if taboo and base in prof:
            prof = dict(prof)
            del prof[base]


def dp_profiles(q: int, steps: int) -> list[CountProfile]:
    """Endpoint distributions N_0 .. N_steps (see ``dp_sweep``)."""
    return list(dp_sweep(q, steps))


def profile_mass(profile: CountProfile) -> int:
    return sum(profile.values())


def dp_g(q: int, n: int) -> int:
    """Closed cycles of length n over the origin, by quotient DP.

    The sweep itself gives zero unless n is a multiple of 3 (the flow
    has period 3).
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    return deque(dp_sweep(q, n), maxlen=1).pop().get(base_edge(), 0)


def dp_f(q: int, n: int) -> int:
    """First-return cycles of length n over the origin, by taboo DP:
    mass sitting on the base edge is removed at every intermediate step."""
    if n < 1:
        raise ValueError("n must be >= 1")
    return deque(dp_sweep(q, n, taboo=True), maxlen=1).pop().get(base_edge(), 0)


def three_step_coefficients(q: int) -> tuple[int, int, int, int]:
    """Total 3-step weights into the base edge from the four edges that
    can feed it, in the order e(1/2,0), e(3/2,1/2), e(2,3/2), e(5/2,5/2).

    Verifies against the expected polynomials
    (q^2(q^2-1)(q^2-q), q^4(q^2-q), q^4(q^2-q), q^6) and that no other
    edge reaches the base edge in three steps.
    """
    target = base_edge()
    feeders: dict[QuotientEdge, int] = {}
    # m drops by at most one per step, so 3-step feeders have m <= 4.
    for e in all_valid_edges(5):
        prof: CountProfile = {e: 1}
        for _ in range(3):
            prof = dp_step(prof, q)
        w = prof.get(target, 0)
        if w:
            feeders[e] = w
    order = [
        QuotientEdge.from_doubled(1, 0),
        QuotientEdge.from_doubled(3, 1),
        QuotientEdge.from_doubled(4, 3),
        QuotientEdge.from_doubled(5, 5),
    ]
    expected = (
        q * q * (q * q - 1) * (q * q - q),
        q**4 * (q * q - q),
        q**4 * (q * q - q),
        q**6,
    )
    if set(feeders) != set(order):
        raise InternalConsistencyError(
            f"3-step feeders of the base edge are {sorted(e.pretty() for e in feeders)}"
        )
    got = tuple(feeders[e] for e in order)
    if got != expected:
        raise InternalConsistencyError(
            f"3-step coefficients {got} differ from expected {expected}"
        )
    return got


# ---------------------------------------------------------------------------
# Export formats
# ---------------------------------------------------------------------------


def graph_to_dot(table: WeightTable) -> str:
    """Deterministic DOT rendering; edge labels are lift multiplicities."""
    nodes: set[QuotientEdge] = set(table)
    for succs in table.values():
        nodes.update(succs)
    lines = ["digraph shift {"]
    for e in sorted(nodes, key=lambda x: (x.k2, x.l2)):
        lines.append(f'  "{e.pretty()}" [k2={e.k2}, l2={e.l2}];')
    for e, s, w in sorted_table_items(table):
        lines.append(f'  "{e.pretty()}" -> "{s.pretty()}" [label="{w}"];')
    lines.append("}")
    return "\n".join(lines) + "\n"


def graph_records(table: WeightTable) -> list[dict]:
    """JSON-ready records; indices doubled, weights as decimal text."""
    return [
        {
            "from": {"k2": e.k2, "l2": e.l2},
            "to": {"k2": s.k2, "l2": s.l2},
            "weight": str(w),
        }
        for e, s, w in sorted_table_items(table)
    ]
