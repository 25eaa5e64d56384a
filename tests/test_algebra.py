"""Field, Laurent-polynomial, and linear-algebra substrate checks."""

import math
import random

import pytest

from buildingflow.algebra import (
    FiniteField,
    LaurentMatrix,
    is_supported_q,
    kernel_basis,
    kernel_dim,
    laurent_add,
    laurent_deg,
    laurent_mul,
    matrix_rank,
)
from buildingflow.errors import UnsupportedFieldError

ALL_Q = [2, 3, 4, 5, 7, 8, 9]


def _val_deg(f):
    """(val, deg) with val(t) = -1, so val = -deg; (+inf, -inf) for zero."""
    return -laurent_deg(f), laurent_deg(f)


def test_field_arith_examples():
    assert FiniteField(2).add(1, 1) == 0
    assert FiniteField(3).mul(2, 2) == 1
    # F4 = F2[x]/(x^2+x+1): x is code 2, x*x = x+1 is code 3
    assert FiniteField(4).mul(2, 2) == 3


def test_inverse_of_zero_rejected():
    with pytest.raises(ValueError):
        FiniteField(5).inv(0)


@pytest.mark.parametrize("q", ALL_Q)
def test_multiplicative_group_order(q):
    f = FiniteField(q)
    for a in f.units():
        assert f.pow(a, q - 1) == 1
        assert f.mul(a, f.inv(a)) == 1


@pytest.mark.parametrize("q", ALL_Q)
def test_field_axioms_random(q):
    f = FiniteField(q)
    rng = random.Random(q * 17)
    for _ in range(200):
        a, b, c = (rng.randrange(q) for _ in range(3))
        assert f.add(a, b) == f.add(b, a)
        assert f.mul(a, b) == f.mul(b, a)
        assert f.mul(a, f.add(b, c)) == f.add(f.mul(a, b), f.mul(a, c))
        assert f.add(a, f.neg(a)) == 0
        assert f.sub(a, b) == f.add(a, f.neg(b))


@pytest.mark.parametrize(
    "q,irreducible", [(4, None), (8, None), (9, None), (16, (1, 1, 0, 0, 1))]
)
def test_prime_power_ops_same_before_and_after_tables(q, irreducible):
    """A prime-power field's element ops read its tables once they are
    built; on every pair they give what the digit arithmetic gave."""

    def ops(f):
        els = f.elements()
        return (
            [[(f.add(a, b), f.sub(a, b), f.mul(a, b)) for b in els] for a in els],
            [f.neg(a) for a in els],
            [f.inv(a) for a in f.units()],
        )

    f = FiniteField(q, irreducible)
    before = ops(f)
    assert f.mul_table and f.add_table
    assert ops(f) == before


def test_unsupported_sizes():
    assert not is_supported_q(6)
    assert not is_supported_q(1)
    assert is_supported_q(9973)
    with pytest.raises(UnsupportedFieldError):
        FiniteField(12)
    with pytest.raises(UnsupportedFieldError):
        FiniteField(16)  # needs a user-supplied polynomial
    # bring-your-own irreducible: x^4 + x + 1 over F_2
    f16 = FiniteField(16, irreducible=(1, 1, 0, 0, 1))
    assert all(f16.pow(a, 15) == 1 for a in f16.units())
    with pytest.raises(UnsupportedFieldError):
        FiniteField(16, irreducible=(1, 0, 0, 0, 1))  # x^4 + 1 is reducible


def test_laurent_val_deg_examples():
    f2 = FiniteField(2)
    assert _val_deg({2: 1, -1: 1}) == (-2, 2)
    assert _val_deg({}) == (math.inf, -math.inf)
    assert _val_deg({-3: 1}) == (3, -3)
    assert laurent_add(f2, {2: 1}, {2: 1}) == {}


@pytest.mark.parametrize("q", [2, 3, 5, 9])
def test_val_deg_multiplicative(q):
    f = FiniteField(q)
    rng = random.Random(q)

    def rand_poly():
        return {
            e: c
            for e in range(rng.randint(-3, 0), rng.randint(1, 4))
            if (c := rng.randrange(q))
        }

    for _ in range(100):
        a, b = rand_poly(), rand_poly()
        if not a or not b:
            continue
        va, da = _val_deg(a)
        vb, db = _val_deg(b)
        vp, dp_ = _val_deg(laurent_mul(f, a, b))
        assert vp == va + vb
        assert dp_ == da + db


def test_det_adj_examples():
    f3 = FiniteField(3)
    ident = LaurentMatrix.identity(f3, 3)
    det, adj = ident.det_adj()
    assert det == {0: 1} and adj == ident

    d = LaurentMatrix.diag_powers(f3, [1, 0, 0])
    det, adj = d.det_adj()
    assert det == {1: 1}
    assert adj == LaurentMatrix.diag_powers(f3, [0, 1, 1])

    m = LaurentMatrix(f3, [[{1: 1}, {0: 1}], [{}, {0: 1}]])
    det, adj = m.det_adj()
    assert det == {1: 1}
    # adj = [[1, -1], [0, t]] and -1 = 2 over F_3
    assert adj == LaurentMatrix(f3, [[{0: 1}, {0: 2}], [{}, {1: 1}]])


@pytest.mark.parametrize("q", [2, 3, 4, 5])
def test_adjugate_identity_random(q):
    f = FiniteField(q)
    rng = random.Random(q * 31)
    for _ in range(20):
        rows = [
            [
                {e: c for e in range(-2, 3) if (c := rng.randrange(q)) and rng.random() < 0.5}
                for _ in range(3)
            ]
            for _ in range(3)
        ]
        m = LaurentMatrix(f, rows)
        det, adj = m.det_adj()
        prod = adj @ m
        for i in range(3):
            for j in range(3):
                assert prod.rows[i][j] == (det if i == j else {})


def test_kernel_dim_examples():
    f2 = FiniteField(2)
    f3 = FiniteField(3)
    assert kernel_dim(f2, [[0, 0, 0], [0, 0, 0]], 3) == 3
    assert kernel_dim(f3, [[1, 0, 0], [0, 1, 0], [0, 0, 1]], 3) == 0
    assert kernel_dim(f2, [[1, 1], [1, 1]], 2) == 1


@pytest.mark.parametrize("q", [2, 3, 5, 8])
def test_kernel_vectors_annihilate(q):
    f = FiniteField(q)
    rng = random.Random(q * 7)
    for _ in range(20):
        nrows, ncols = rng.randint(1, 6), rng.randint(1, 6)
        rows = [[rng.randrange(q) for _ in range(ncols)] for _ in range(nrows)]
        basis = kernel_basis(f, rows, ncols)
        assert len(basis) == kernel_dim(f, rows, ncols)
        assert matrix_rank(f, rows, ncols) + len(basis) == ncols
        for vec in basis:
            for row in rows:
                acc = 0
                for a, b in zip(row, vec):
                    acc = f.add(acc, f.mul(a, b))
                assert acc == 0
