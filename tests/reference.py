"""Reference definitions that only the tests use.

``popov`` is the Popov form of a walk target, the exact invariant of the
target matrix's Gamma-orbit, and the merge key the oracle walk used
before it keyed its states by the edge's orbit (``_Walker.key``).  One
orbit of edges holds many orbits of target matrices, so a walk keyed by
the Popov form makes the same counts from more states: 725 reductions
against 169 at (q, n) = (2, 9).  The ``popov_walk`` fixture runs every
walk of a test on it.
"""

import pytest

from buildingflow import building
from buildingflow.building import _add_multiple
from buildingflow.errors import InternalConsistencyError


def popov(rows, degs, vec):
    """Finish the row-reduced packed ``rows``, of row degrees ``degs``, to
    the Popov form of their orbit under Gamma = GL_dim(F_q[t]) on the
    left, in place; returns the form as a key, equal for two matrices
    exactly when they lie in one orbit.

    A row's pivot is its rightmost entry of full degree, the last nonzero
    coordinate of its top vector.
    1. Weak Popov form by the simple transformations of Mulders &
       Storjohann (J. Symbolic Comput. 35, 2003): while two rows share a
       pivot column, take c t^s times the one of lower degree from the
       other so that its pivot term cancels.  That row keeps its degree,
       as the rows are row-reduced, and its pivot moves left.
    2. The rows go in the order of their pivot columns.
    3. Each pivot is made monic.
    4. Each term c t^e in column j of a row other than j, with e >=
       degs[j], is cancelled by c t^(e - degs[j]) times row j, the largest
       term first (by degree, then column).  Row j's terms are smaller in
       that order, so no pivot moves, the terms only fall, and one pass
       down the degrees and columns meets them in that order.
    No pivot then divides an off-pivot term: the rows are the reduced
    Groebner basis of their row module for the term-over-position order,
    so the form is unique (Beckermann, Labahn & Villard, J. Symbolic
    Comput. 41, 2006).  ``degs`` is permuted with the rows.
    """
    dim = len(rows)
    pivot, digits = vec.pivot, vec.digits
    neg, inv, mul = vec.ops.neg, vec.ops.inv, vec.ops.mul
    piv = [pivot[row[-1]] for row in rows]
    while len({j for j, _ in piv}) < dim:
        i, k = next((i, k) for i in range(dim) for k in range(i) if piv[i][0] == piv[k][0])
        if degs[i] < degs[k]:
            i, k = k, i
        _add_multiple(rows[i], rows[k], neg(mul(piv[i][1], inv(piv[k][1]))), degs[i] - degs[k], vec)
        if len(rows[i]) - 1 != degs[i]:
            raise InternalConsistencyError("a Popov step changed a row degree")
        piv[i] = pivot[rows[i][-1]]
    order = sorted(range(dim), key=piv.__getitem__)
    rows[:] = [rows[i] for i in order]
    degs[:] = [degs[i] for i in order]
    for row, i in zip(rows, order):
        if piv[i][1] != 1:
            ax = vec.axpy[inv(piv[i][1])]
            row[:] = [ax[v] for v in row]  # the key 0 * size + v gives c v
    low = min(degs)
    for i, row in enumerate(rows):
        others = [(j, degs[j]) for j in range(dim - 1, -1, -1) if j != i]
        for e in range(len(row) - 1, low - 1, -1):
            for j, d in others:
                if d <= e and digits[row[e]][j]:
                    _add_multiple(row, rows[j], neg(digits[row[e]][j]), e - d, vec)
    return tuple(map(tuple, rows))


def popov_key(wk, rows, degs):
    """``_Walker.key`` by the Popov form of the target.  It finishes the
    successor's rows in place, which leaves the state's representative in
    the same orbit."""
    return popov(rows, degs, wk)


@pytest.fixture
def popov_walk(monkeypatch):
    """Key every merged walk of the test by the Popov form."""
    monkeypatch.setattr(building._Walker, "key", popov_key)
