"""Exact arithmetic substrate: finite fields, Laurent polynomials in t,
small square matrices over them, and F_q linear algebra.

Field elements are encoded as integers in [0, q).  For prime q the code
is the residue itself; for q = p^e the element sum(c_i x^i) is encoded
in base p as sum(c_i p^i) and arithmetic is done modulo a fixed
irreducible polynomial of degree e.

Laurent polynomials are dicts {exponent: coefficient} with no zero
coefficient stored; {} is the zero polynomial.  The valuation is
normalized so that val(t) = -1, hence val(f) = -deg_t(f) and the ring
of integers {val >= 0} consists of the power series in t^{-1}.

Counts everywhere in this package are plain Python ints (exact,
arbitrary precision).
"""

from __future__ import annotations

import math
from typing import Iterable

from .errors import UnsupportedFieldError

# Largest prime accepted without an explicit irreducible polynomial.
PRIME_BOUND = 10_000

# Bundled irreducible polynomials for the prime-power sizes the rest of
# the package exercises, as coefficient tuples (low degree first, monic).
#   q=4: x^2 + x + 1 over F_2;  q=8: x^3 + x + 1 over F_2;  q=9: x^2 + 1 over F_3
_BUNDLED_IRREDUCIBLE = {
    4: (1, 1, 1),
    8: (1, 1, 0, 1),
    9: (1, 0, 1),
}

# Field sizes with multiplication tables small enough to precompute.
_TABLE_LIMIT = 64


def _factor_prime_power(q: int) -> tuple[int, int]:
    """Split q into (p, e) with p prime, or raise."""
    if q < 2:
        raise UnsupportedFieldError(f"field size must be >= 2, got {q}")
    p = 2
    while p * p <= q:
        if q % p == 0:
            break
        p += 1
    else:
        return q, 1
    e = 0
    m = q
    while m % p == 0:
        m //= p
        e += 1
    if m != 1:
        raise UnsupportedFieldError(f"{q} is not a prime power")
    return p, e


def _poly_mod_reduce(coeffs: list[int], mod_poly: tuple[int, ...], p: int) -> list[int]:
    """Reduce a coefficient list modulo a monic polynomial over F_p."""
    e = len(mod_poly) - 1
    c = list(coeffs)
    for i in range(len(c) - 1, e - 1, -1):
        top = c[i] % p
        if top:
            for j in range(e + 1):
                c[i - e + j] = (c[i - e + j] - top * mod_poly[j]) % p
    del c[e:]
    while len(c) < e:
        c.append(0)
    return [x % p for x in c]


def _is_irreducible(coeffs: tuple[int, ...], p: int) -> bool:
    """Trial division by every monic polynomial of degree <= e // 2."""
    e = len(coeffs) - 1
    for d in range(1, e // 2 + 1):
        for code in range(p**d):
            div = []
            m = code
            for _ in range(d):
                div.append(m % p)
                m //= p
            div.append(1)
            # long division remainder of coeffs by div
            rem = list(coeffs)
            for i in range(len(rem) - 1, d - 1, -1):
                top = rem[i] % p
                if top:
                    for j in range(d + 1):
                        rem[i - d + j] = (rem[i - d + j] - top * div[j]) % p
            if all(x % p == 0 for x in rem[:d]):
                return False
    return True


class FiniteField:
    """The field F_q, q = p^e, with integer-coded elements.

    Parameters
    ----------
    q : int
        Field size.  Any prime up to ``PRIME_BOUND`` works directly;
        q in {4, 8, 9} use bundled irreducible polynomials; other prime
        powers require ``irreducible`` (coefficients low-to-high, monic,
        degree e over F_p).
    """

    def __init__(self, q: int, irreducible: Iterable[int] | None = None):
        p, e = _factor_prime_power(q)
        self.q = q
        self.p = p
        self.e = e
        if e == 1:
            if p > PRIME_BOUND:
                raise UnsupportedFieldError(
                    f"prime {p} exceeds the configured bound {PRIME_BOUND}"
                )
            self.irreducible: tuple[int, ...] | None = None
        else:
            if irreducible is None:
                if q not in _BUNDLED_IRREDUCIBLE:
                    raise UnsupportedFieldError(
                        f"no bundled irreducible polynomial for q={q}; pass one"
                    )
                irreducible = _BUNDLED_IRREDUCIBLE[q]
            coeffs = tuple(x % p for x in irreducible)
            if len(coeffs) != e + 1 or coeffs[-1] != 1:
                raise UnsupportedFieldError(
                    f"irreducible polynomial must be monic of degree {e} over F_{p}"
                )
            if not _is_irreducible(coeffs, p):
                raise UnsupportedFieldError(f"{coeffs} is reducible over F_{p}")
            self.irreducible = coeffs
        self._mul_table: list[list[int]] | None = None
        self._add_table: list[list[int]] | None = None
        self._inv_table: list[int] | None = None

    # -- element codecs -------------------------------------------------

    def _decode(self, a: int) -> list[int]:
        digits = []
        for _ in range(self.e):
            digits.append(a % self.p)
            a //= self.p
        return digits

    def _encode(self, digits: list[int]) -> int:
        a = 0
        for d in reversed(digits):
            a = a * self.p + (d % self.p)
        return a

    # -- arithmetic ------------------------------------------------------

    def add(self, a: int, b: int) -> int:
        if self.e == 1:
            return (a + b) % self.p
        da, db = self._decode(a), self._decode(b)
        return self._encode([(x + y) % self.p for x, y in zip(da, db)])

    def sub(self, a: int, b: int) -> int:
        if self.e == 1:
            return (a - b) % self.p
        da, db = self._decode(a), self._decode(b)
        return self._encode([(x - y) % self.p for x, y in zip(da, db)])

    def neg(self, a: int) -> int:
        if self.e == 1:
            return (-a) % self.p
        return self._encode([(-x) % self.p for x in self._decode(a)])

    def mul(self, a: int, b: int) -> int:
        if self.e == 1:
            return (a * b) % self.p
        if a == 0 or b == 0:
            return 0
        da, db = self._decode(a), self._decode(b)
        prod = [0] * (2 * self.e - 1)
        for i, x in enumerate(da):
            if x:
                for j, y in enumerate(db):
                    prod[i + j] = (prod[i + j] + x * y) % self.p
        return self._encode(_poly_mod_reduce(prod, self.irreducible, self.p))

    def inv(self, a: int) -> int:
        if a == 0:
            raise ValueError("zero has no multiplicative inverse")
        if self.e == 1:
            return pow(a, self.p - 2, self.p)
        # a^(q-2) via square-and-multiply
        return self.pow(a, self.q - 2)

    def pow(self, a: int, k: int) -> int:
        if k < 0:
            return self.pow(self.inv(a), -k)
        result = 1
        base = a
        while k:
            if k & 1:
                result = self.mul(result, base)
            base = self.mul(base, base)
            k >>= 1
        return result

    def elements(self) -> range:
        return range(self.q)

    def units(self) -> range:
        return range(1, self.q)

    # -- lookup tables (hot loops index these directly) -------------------

    @property
    def add_table(self) -> list[list[int]]:
        if self._add_table is None:
            if self.q > _TABLE_LIMIT:
                raise UnsupportedFieldError(f"tables unavailable for q={self.q}")
            self._add_table = [
                [self.add(a, b) for b in range(self.q)] for a in range(self.q)
            ]
        return self._add_table

    @property
    def mul_table(self) -> list[list[int]]:
        if self._mul_table is None:
            if self.q > _TABLE_LIMIT:
                raise UnsupportedFieldError(f"tables unavailable for q={self.q}")
            self._mul_table = [
                [self.mul(a, b) for b in range(self.q)] for a in range(self.q)
            ]
        return self._mul_table

    @property
    def inv_table(self) -> list[int]:
        if self._inv_table is None:
            self._inv_table = [0] + [self.inv(a) for a in range(1, self.q)]
        return self._inv_table

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, FiniteField)
            and other.q == self.q
            and other.irreducible == self.irreducible
        )

    def __hash__(self) -> int:
        return hash((self.q, self.irreducible))

    def __repr__(self) -> str:
        return f"FiniteField({self.q})"


def is_supported_q(q: int) -> bool:
    """Whether FiniteField(q) can be built without a user polynomial."""
    try:
        p, e = _factor_prime_power(q)
    except UnsupportedFieldError:
        return False
    if e == 1:
        return p <= PRIME_BOUND
    return q in _BUNDLED_IRREDUCIBLE


# ---------------------------------------------------------------------------
# Laurent polynomials as {exponent: coefficient} dicts
# ---------------------------------------------------------------------------


def laurent_add(field: FiniteField, f: dict, g: dict) -> dict:
    out = dict(f)
    add = field.add
    for e, c in g.items():
        s = add(out.get(e, 0), c)
        if s:
            out[e] = s
        else:
            out.pop(e, None)
    return out


def laurent_neg(field: FiniteField, f: dict) -> dict:
    neg = field.neg
    return {e: neg(c) for e, c in f.items()}


def laurent_scale(field: FiniteField, f: dict, c: int) -> dict:
    if c == 0:
        return {}
    mul = field.mul
    return {e: mul(v, c) for e, v in f.items()}


def laurent_shift(f: dict, j: int) -> dict:
    """Multiply by the monomial t^j."""
    return {e + j: c for e, c in f.items()}


def laurent_mul(field: FiniteField, f: dict, g: dict) -> dict:
    out: dict = {}
    add = field.add
    mul = field.mul
    for ef, cf in f.items():
        for eg, cg in g.items():
            e = ef + eg
            s = add(out.get(e, 0), mul(cf, cg))
            if s:
                out[e] = s
            else:
                out.pop(e, None)
    return out


def laurent_deg(f: dict) -> float:
    return -math.inf if not f else max(f)


def poly(field: FiniteField, *terms: tuple[int, int]) -> dict:
    """Build a Laurent polynomial from (exponent, coefficient) pairs."""
    out: dict = {}
    for e, c in terms:
        s = field.add(out.get(e, 0), c)
        if s:
            out[e] = s
        else:
            out.pop(e, None)
    return out


# ---------------------------------------------------------------------------
# Matrices of Laurent polynomials
# ---------------------------------------------------------------------------


class LaurentMatrix:
    """A dim x dim matrix of Laurent polynomials over a fixed field."""

    __slots__ = ("field", "dim", "rows")

    def __init__(self, field: FiniteField, rows):
        self.field = field
        self.rows = tuple(tuple(dict(e) for e in row) for row in rows)
        self.dim = len(self.rows)
        if any(len(r) != self.dim for r in self.rows):
            raise ValueError("matrix must be square")

    @classmethod
    def identity(cls, field: FiniteField, dim: int) -> "LaurentMatrix":
        return cls(
            field,
            [[{0: 1} if i == j else {} for j in range(dim)] for i in range(dim)],
        )

    @classmethod
    def diag_powers(cls, field: FiniteField, exps: Iterable[int]) -> "LaurentMatrix":
        """diag(t^e1, ..., t^ed)."""
        exps = list(exps)
        d = len(exps)
        return cls(
            field,
            [[{exps[i]: 1} if i == j else {} for j in range(d)] for i in range(d)],
        )

    def __matmul__(self, other: "LaurentMatrix") -> "LaurentMatrix":
        if other.field != self.field or other.dim != self.dim:
            raise ValueError("matrix shape/field mismatch")
        f = self.field
        d = self.dim
        rows = []
        for i in range(d):
            row = []
            for j in range(d):
                acc: dict = {}
                for k in range(d):
                    acc = laurent_add(f, acc, laurent_mul(f, self.rows[i][k], other.rows[k][j]))
                row.append(acc)
            rows.append(row)
        return LaurentMatrix(f, rows)

    def scale_monomial(self, j: int) -> "LaurentMatrix":
        """Multiply every entry by t^j (a central scalar)."""
        return LaurentMatrix(
            self.field, [[laurent_shift(e, j) for e in row] for row in self.rows]
        )

    def max_entry_deg(self) -> float:
        return max(laurent_deg(e) for row in self.rows for e in row)

    def min_entry_exponent(self) -> float:
        exps = [min(e) for row in self.rows for e in row if e]
        return min(exps) if exps else math.inf

    def det_adj(self) -> tuple[dict, "LaurentMatrix"]:
        """Exact (det, adjugate) with adj @ M = M @ adj = det * I."""
        f = self.field
        r = self.rows
        if self.dim == 2:
            det = laurent_add(
                f,
                laurent_mul(f, r[0][0], r[1][1]),
                laurent_neg(f, laurent_mul(f, r[0][1], r[1][0])),
            )
            adj = LaurentMatrix(
                f,
                [
                    [r[1][1], laurent_neg(f, r[0][1])],
                    [laurent_neg(f, r[1][0]), r[0][0]],
                ],
            )
            return det, adj
        if self.dim != 3:
            raise ValueError("only 2x2 and 3x3 supported")

        def minor(i, j):
            rs = [k for k in range(3) if k != i]
            cs = [k for k in range(3) if k != j]
            a = laurent_mul(f, r[rs[0]][cs[0]], r[rs[1]][cs[1]])
            b = laurent_mul(f, r[rs[0]][cs[1]], r[rs[1]][cs[0]])
            return laurent_add(f, a, laurent_neg(f, b))

        cof = [
            [
                minor(i, j) if (i + j) % 2 == 0 else laurent_neg(f, minor(i, j))
                for j in range(3)
            ]
            for i in range(3)
        ]
        det: dict = {}
        for j in range(3):
            det = laurent_add(f, det, laurent_mul(f, r[0][j], cof[0][j]))
        adj = LaurentMatrix(f, [[cof[j][i] for j in range(3)] for i in range(3)])
        return det, adj

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, LaurentMatrix)
            and other.field == self.field
            and other.rows == self.rows
        )

    def __hash__(self):
        return hash(
            (self.field, tuple(tuple(frozenset(e.items()) for e in row) for row in self.rows))
        )

    def __repr__(self) -> str:
        def fmt(e):
            if not e:
                return "0"
            parts = []
            for k in sorted(e, reverse=True):
                c = e[k]
                if k == 0:
                    parts.append(f"{c}")
                elif k == 1:
                    parts.append(f"{c}t" if c != 1 else "t")
                else:
                    parts.append(f"{c}t^{k}" if c != 1 else f"t^{k}")
            return "+".join(parts)

        body = "; ".join(
            "[" + ", ".join(fmt(e) for e in row) + "]" for row in self.rows
        )
        return f"LaurentMatrix(q={self.field.q}, {body})"


# ---------------------------------------------------------------------------
# Linear algebra over F_q
# ---------------------------------------------------------------------------


def kernel_dim(field: FiniteField, rows: list[list[int]], ncols: int | None = None) -> int:
    """Dimension of the right null space of a matrix over F_q.

    ``rows`` is a list of coefficient rows (integers coding field
    elements).  Satisfies rank + kernel_dim == ncols.
    """
    if ncols is None:
        ncols = len(rows[0]) if rows else 0
    return ncols - matrix_rank(field, rows, ncols)


def matrix_rank(field: FiniteField, rows: list[list[int]], ncols: int | None = None) -> int:
    """Rank over F_q by Gaussian elimination (exact)."""
    if ncols is None:
        ncols = len(rows[0]) if rows else 0
    if not rows or ncols == 0:
        return 0
    if field.q == 2:
        packed = []
        for r in rows:
            acc = 0
            for j, v in enumerate(r):
                if v & 1:
                    acc |= 1 << j
            packed.append(acc)
        return _rank_gf2(packed)
    return len(_echelon(field, rows, ncols)[1])


def _rank_gf2(packed_rows: list[int]) -> int:
    """Rank of bit-packed GF(2) rows."""
    basis: list[int] = []
    for row in packed_rows:
        for b in basis:
            low = b & -b
            if row & low:
                row ^= b
        if row:
            basis.append(row)
    return len(basis)


def _echelon(field: FiniteField, rows: list[list[int]], ncols: int) -> tuple[list, list[int]]:
    """Gauss-Jordan elimination over F_q on the first ``ncols`` columns.

    Returns the reduced rows (padded to ``ncols``; row r has a 1 in
    column pivots[r] and zeros above and below it) and the pivot columns.
    """
    work = [list(r) + [0] * (ncols - len(r)) for r in rows]
    m = len(work)
    mul, sub, inv = field.mul, field.sub, field.inv
    pivots: list[int] = []
    for col in range(ncols):
        rank = len(pivots)
        if rank == m:
            break
        piv = next((i for i in range(rank, m) if work[i][col]), -1)
        if piv < 0:
            continue
        work[rank], work[piv] = work[piv], work[rank]
        pr = work[rank]
        pinv = inv(pr[col])
        if pinv != 1:
            work[rank] = pr = [mul(pinv, v) for v in pr]
        for i in range(m):
            if i != rank and work[i][col]:
                c = work[i][col]
                work[i] = [sub(a, mul(c, b)) for a, b in zip(work[i], pr)]
        pivots.append(col)
    return work, pivots


def kernel_basis(field: FiniteField, rows: list[list[int]], ncols: int) -> list[list[int]]:
    """A basis of the right null space, for verification in tests."""
    work, pivots = _echelon(field, rows, ncols)
    basis = []
    for fc in (c for c in range(ncols) if c not in pivots):
        vec = [0] * ncols
        vec[fc] = 1
        for r, pc in enumerate(pivots):
            vec[pc] = field.neg(work[r][fc])
        basis.append(vec)
    return basis
