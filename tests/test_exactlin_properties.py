"""Randomized identities of the exactlin products and echelon forms, over QQ and GF(p)."""

from __future__ import annotations

import pytest

pytest.importorskip("hypothesis")

from hypothesis import given, settings
from hypothesis import strategies as st

from cobarlab.exactlin import GF, QQ, Matrix, kron_identity_matmul

FIELDS = (QQ, GF(2), GF(7), GF(2**31 - 1))

# The same examples on every run, and no example database.
PROPERTY = settings(max_examples=60, deadline=None, derandomize=True, database=None)


def scalars(field):
    if field == QQ:
        fractions = st.fractions(min_value=-9, max_value=9, max_denominator=2**31 - 1)
        return st.one_of(st.integers(-9, 9), fractions).map(QQ.coerce)
    return st.integers(0, field.p - 1)


def matrices(data, field, nrows, ncols, max_size=None):
    """A sparse nrows x ncols matrix: a random set of at most max_size cells with random values."""
    cells = st.tuples(st.integers(0, max(nrows - 1, 0)), st.integers(0, max(ncols - 1, 0)))
    items = data.draw(st.dictionaries(cells, scalars(field), max_size=nrows * ncols if max_size is None else max_size))
    return Matrix.from_entries(field, nrows, ncols, [(i, j, v) for (i, j), v in items.items()])


dims = st.integers(0, 5)


@PROPERTY
@given(st.sampled_from(FIELDS), dims, dims, dims, dims, st.data())
def test_matmul_is_associative(field, r, s, t, u, data):
    a = matrices(data, field, r, s)
    b = matrices(data, field, s, t)
    c = matrices(data, field, t, u)
    assert (a @ b) @ c == a @ (b @ c)


@PROPERTY
@given(st.sampled_from(FIELDS), dims, dims, st.integers(0, 3), dims, st.data())
def test_kron_identity_matmul_equals_the_built_product(field, r, c, n, k, data):
    x = matrices(data, field, r, c)
    y = matrices(data, field, n * c, k)
    eye = Matrix.identity(field, n)
    assert kron_identity_matmul(n, x, y) == Matrix.kron(eye, x) @ y
    assert kron_identity_matmul(x, n, y) == Matrix.kron(x, eye) @ y


@PROPERTY
@given(st.sampled_from(FIELDS), st.integers(0, 8), st.integers(0, 8), st.data())
def test_rank_is_the_number_of_rref_pivots(field, r, c, data):
    a = matrices(data, field, r, c)
    assert a.rank() == len(a.rref()[0])


@PROPERTY
@given(st.sampled_from(FIELDS), st.integers(0, 12), st.integers(0, 12), st.data())
def test_rank_is_transpose_invariant_on_sparse_matrices(field, r, c, data):
    # about one or two entries per row or column, so the peel meets private
    # columns and cascades, and both orientations of the rows run
    a = matrices(data, field, r, c, max_size=min(r * c, r + c))
    assert a.rank() == a.transpose().rank()
