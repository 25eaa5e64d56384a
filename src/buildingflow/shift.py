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
        """Both endpoints lie in the sector and the step is R, U or D.

        That makes the target one of ``sector_neighbors(source)``: from an
        interior source R, U and D all stay in the sector; from the axis
        R and U do, and D leaves it (n < 0); from the diagonal R and D
        do, and U leaves it (n > m); from the origin only R does.  Each
        step that stays is listed among the neighbours of its case.
        """
        (sm, sn), (tm, tn) = self
        return sm >= sn >= 0 and tm >= tn >= 0 and (tm - sm, tn - sn) in DISPLACEMENTS

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
        return f"e({half(self.k2)},{half(self.l2)})"


def half(x2: int) -> str:
    """A doubled name index as text: 4 -> "2", 3 -> "3/2"."""
    return str(x2 // 2) if x2 % 2 == 0 else f"{x2}/2"


def base_edge() -> QuotientEdge:
    """The edge out of the origin: (0,0) -> (1,0), name indices (1/2, 0)."""
    return QuotientEdge(QVertex(0, 0), QVertex(1, 0))


#: The four edges that feed the base edge in three steps, in the order
#: e(1/2,0), e(3/2,1/2), e(2,3/2), e(5/2,5/2) of ``three_step_coefficients``.
THREE_STEP_FEEDERS = tuple(
    QuotientEdge.from_doubled(k2, l2) for k2, l2 in ((1, 0), (3, 1), (4, 3), (5, 5))
)


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
    """Every type-1 quotient edge with both endpoint m-coordinates <= m_max,
    in (k2, l2) order.  An even k2 = 2m names the U edges out of (m, n),
    n < m; an odd k2 = 2m + 1 names the D edge into (m, n - 1) at l2 =
    2n - 1 and the R edge out of (m, n) at l2 = 2n."""
    V, E = QVertex, QuotientEdge
    out = []
    for k2 in range(1, 2 * m_max + 1):
        m = k2 // 2
        if k2 % 2 == 0:
            out += [E(V(m, n), V(m, n + 1)) for n in range(m)]
        else:
            for n in range(m + 2):
                if n:
                    out.append(E(V(m + 1, n), V(m, n - 1)))
                if n <= m:
                    out.append(E(V(m, n), V(m + 1, n)))
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
    """Flatten a weight table in the canonical order: by (k2, l2) of the
    source edge, then of the target edge."""
    for e in sorted(table, key=lambda x: (x.k2, x.l2)):
        succs = table[e]
        for s in sorted(succs, key=lambda x: (x.k2, x.l2)):
            yield e, s, succs[s]


# ---------------------------------------------------------------------------
# Exact dynamic programming
# ---------------------------------------------------------------------------

#: A DP profile: doubled edge name (k2, l2) -> number of lifted paths
#: ending on that edge.  ``dp_profiles`` turns the keys into edges.
CountProfile = dict[tuple[int, int], int]

#: The base edge e(1/2, 0) as a profile key.
BASE_KEY = (1, 0)

#: The four local cases of a sector vertex, each with the vertex whose
#: incoming edges represent it.
_CASE_REPRESENTATIVES = {"origin": (0, 0), "axis": (1, 0), "diagonal": (1, 1), "interior": (2, 1)}


@lru_cache(maxsize=None)
def stencils(q: int) -> dict[tuple[tuple[int, int], str], tuple[tuple[int, int, int], ...]]:
    """The DP's successor rule at q, one stencil per (incoming
    displacement, local case of the target vertex).

    The local cases of a target (m, n) are the origin, the axis n = 0,
    the diagonal m = n and the interior m > n > 0.  A stencil lists
    (k2' - 2m, l2' - 2n, weight) for every successor e(k2'/2, l2'/2) of
    an edge into (m, n).  Only 8 pairs occur: R cannot enter the origin
    or the diagonal, and U cannot enter the origin or the axis.

    Each stencil is ``edge_transitions`` on one representative edge, so
    ``_INTERIOR_RULE``, ``fold`` and the sum-to-q^2 check stay the only
    source of weights.  One representative per case is enough: a raw
    successor target is (m, n) moved by R, U or D, and the case alone
    decides whether it leaves the sector and through which wall (n < 0
    only from the axis or the origin, n > m only from the diagonal or
    the origin, never from the interior).  So within a case ``fold``
    applies the same reflection, the same raw successors merge, and the
    successors sit at the same offsets from (2m, 2n).  Which incoming
    displacements name an edge is fixed by the case too.
    """
    out = {}
    for case, (m, n) in _CASE_REPRESENTATIVES.items():
        for din in DISPLACEMENTS:
            e = QuotientEdge(QVertex(m - din[0], n - din[1]), QVertex(m, n))
            if e.is_valid():
                out[din, case] = tuple(
                    (s.k2 - 2 * m, s.l2 - 2 * n, w) for s, w in edge_transitions(e, q).items()
                )
    return out


class _VertexRows(dict):
    """(m, n) -> the outgoing edges of a sector vertex at one q, each as
    (key, target vertex, slot of its displacement, w_R, w_U, w_D), worked
    out on first sight.  The edge's count is w_R*c_R + w_U*c_U + w_D*c_D
    over the counts of the edges into (m, n): the weights are the
    stencils of the vertex's local case, one per incoming displacement,
    read column-wise.  A successor at offset (dk, dl) from (2m, 2n) has
    displacement (dk, dl) and target (m + dk, n + dl)."""

    def __init__(self, q: int):
        super().__init__()
        self.cases: dict[str, dict[tuple[int, int], list[int]]] = {}
        for (din, case), stencil in stencils(q).items():
            for dk, dl, w in stencil:
                by_offset = self.cases.setdefault(case, {})
                by_offset.setdefault((dk, dl), [0, 0, 0])[DISPLACEMENTS.index(din)] = w

    def __missing__(self, v: tuple[int, int]):
        m, n = v
        case = ("axis" if m else "origin") if n == 0 else "diagonal" if m == n else "interior"
        rows = self[v] = tuple(
            ((2 * m + dk, 2 * n + dl), (m + dk, n + dl), DISPLACEMENTS.index((dk, dl)), *w)
            for (dk, dl), w in self.cases[case].items()
        )
        return rows


_vertex_rows = lru_cache(maxsize=None)(_VertexRows)


@lru_cache(maxsize=None)
def _target_slot(k2: int, l2: int) -> tuple[QVertex, int]:
    e = QuotientEdge.from_doubled(k2, l2)
    return e.target, DISPLACEMENTS.index(e.displacement)


def _group(profile: CountProfile) -> dict[tuple[int, int], list[int]]:
    """The DP state between steps: a profile's counts grouped by target
    vertex, (m, n) -> [c_R, c_U, c_D], one per incoming displacement."""
    groups: dict[tuple[int, int], list[int]] = {}
    for key, c in profile.items():
        t, slot = _target_slot(*key)
        groups.setdefault(t, [0, 0, 0])[slot] = c
    return groups


def _advance(groups: dict, q: int) -> tuple[CountProfile, dict]:
    """One DP step, for ``dp_sweep`` and ``dp_step`` alike: every
    outgoing edge of a live vertex gets its weighted sum of the vertex's
    incoming counts.  An edge has one source vertex, so each new count
    is stored once, into the profile and into its target's group.  Zero
    sums are left out, as no lifted path ends on such an edge."""
    rows = _vertex_rows(q)
    prof: CountProfile = {}
    nxt: dict[tuple[int, int], list[int]] = {}
    get = nxt.get
    for v, (c_r, c_u, c_d) in groups.items():
        for key, t, slot, w_r, w_u, w_d in rows[v]:
            c = w_r * c_r + w_u * c_u + w_d * c_d
            if c:
                prof[key] = c
                g = get(t)
                if g is None:
                    g = nxt[t] = [0, 0, 0]
                g[slot] = c
    return prof, nxt


def dp_step(profile: CountProfile, q: int) -> CountProfile:
    """One DP step from any profile; keys that name no edge are refused."""
    return _advance(_group(profile), q)[0]


def dp_sweep(q: int, steps: int, taboo: bool = False) -> Iterator[CountProfile]:
    """Endpoint distributions N_0 .. N_steps of lifted paths started on
    the base edge, one DP step apart.  No truncation: without ``taboo``
    the total mass after s steps is exactly q^(2s).

    With ``taboo`` (first returns) the base-edge mass is dropped from
    the next step's input after its profile has been yielded, from step
    1 on; the yielded dicts themselves are never changed afterwards.
    """
    prof: CountProfile = {BASE_KEY: 1}
    groups = _group(prof)
    yield prof
    for _ in range(steps):
        prof, groups = _advance(groups, q)
        yield prof
        if taboo and BASE_KEY in prof:
            groups[1, 0][0] = 0  # the base edge enters (1, 0) by R


def dp_profiles(q: int, steps: int) -> list[dict[QuotientEdge, int]]:
    """Endpoint distributions N_0 .. N_steps (see ``dp_sweep``), keyed
    by edge."""
    return [{QuotientEdge.from_doubled(*k): c for k, c in p.items()} for p in dp_sweep(q, steps)]


def profile_mass(profile: CountProfile) -> int:
    return sum(profile.values())


def dp_g(q: int, n: int) -> int:
    """Closed cycles of length n over the origin, by quotient DP.

    The sweep itself gives zero unless n is a multiple of 3 (the flow
    has period 3).
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    return deque(dp_sweep(q, n), maxlen=1).pop().get(BASE_KEY, 0)


def dp_f(q: int, n: int) -> int:
    """First-return cycles of length n over the origin, by taboo DP:
    mass sitting on the base edge is removed at every intermediate step."""
    if n < 1:
        raise ValueError("n must be >= 1")
    return deque(dp_sweep(q, n, taboo=True), maxlen=1).pop().get(BASE_KEY, 0)


def three_step_coefficients(q: int) -> tuple[int, int, int, int]:
    """Total 3-step weights into the base edge from the four edges that
    can feed it, in ``THREE_STEP_FEEDERS`` order.

    Verifies against the expected polynomials
    (q^2(q^2-1)(q^2-q), q^4(q^2-q), q^4(q^2-q), q^6) and that no other
    edge reaches the base edge in three steps.
    """
    feeders: dict[QuotientEdge, int] = {}
    # m drops by at most one per step, so 3-step feeders have m <= 4.
    for e in all_valid_edges(5):
        prof: CountProfile = {(e.k2, e.l2): 1}
        for _ in range(3):
            prof = dp_step(prof, q)
        w = prof.get(BASE_KEY, 0)
        if w:
            feeders[e] = w
    expected = (
        q * q * (q * q - 1) * (q * q - q),
        q**4 * (q * q - q),
        q**4 * (q * q - q),
        q**6,
    )
    if set(feeders) != set(THREE_STEP_FEEDERS):
        raise InternalConsistencyError(
            f"3-step feeders of the base edge are {sorted(e.pretty() for e in feeders)}"
        )
    got = tuple(feeders[e] for e in THREE_STEP_FEEDERS)
    if got != expected:
        raise InternalConsistencyError(
            f"3-step coefficients {got} differ from expected {expected}"
        )
    return got

