"""Randomized identities of the exactlin products and echelon forms, over QQ and GF(p)."""

from __future__ import annotations

import pytest

pytest.importorskip("hypothesis")

from hypothesis import given, settings
from hypothesis import strategies as st

from test_exactlin import dense_rank_oracle

from cobarlab.exactlin import _peel, _rank_two_line, GF, QQ, ColumnMatrix, Matrix, kron_identity_matmul

FIELDS = (QQ, GF(2), GF(7), GF(2**31 - 1))
# QQ draws ints and Fractions (see ``scalars``)
FIELDS_CLEARED = (QQ, GF(7), GF(2**31 - 1))

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


@PROPERTY
@given(st.sampled_from(FIELDS), st.integers(0, 8), st.integers(0, 8), st.data())
def test_rref_rows_are_reduced_and_span_the_row_space(field, r, c, data):
    a = matrices(data, field, r, c)
    pivots, rows = a.rref()
    assert pivots == sorted(set(pivots)) and len(rows) == len(pivots)
    for p, row in zip(pivots, rows):
        assert min(row) == p and row[p] == 1
        assert not any(q in row for q in pivots if q != p)
    reduced = Matrix.from_entries(field, len(rows), c, [(k, j, v) for k, row in enumerate(rows) for j, v in row.items()])
    stacked = [(i, j, v) for (i, j), v in a.entries.items()] + [(i + r, j, v) for (i, j), v in reduced.entries.items()]
    both = Matrix.from_entries(field, r + len(rows), c, stacked)
    # equal ranks of the rows, the input and both together: the row spaces agree
    assert reduced.rank() == len(rows) == a.rank() == both.rank()


def left_kernel_pair(data, field, n):
    """Matrices a (n x k) and b (m x n) with b @ a zero: b's rows combine a basis of the left kernel of a."""
    k = data.draw(st.integers(0, 6))
    a = matrices(data, field, n, k, max_size=min(2 * n, n * k))
    left = a.transpose().kernel_basis()
    b = matrices(data, field, data.draw(st.integers(0, 9)), left.ncols) @ left.transpose()
    assert (b @ a).is_zero()
    return a, b


def assert_pivots_carry_the_rank(m, cleared=frozenset()):
    """The reported pivot rows and columns of m, its columns in ``cleared`` deleted, index a minor of full rank.

    The same holds for m stored as its columns (``ColumnMatrix``), whose
    entries the ranks leave unchanged.
    """
    dense = m.to_rows()
    kept = [j for j in range(m.ncols) if j not in cleared]
    expected = dense_rank_oracle(m.field, [[row[j] for j in kept] for row in dense])
    for ranked in (m, ColumnMatrix(m.field, m.nrows, m.column_dicts())):
        r, rows, cols = ranked.rank(cleared, pivots=True)
        assert len(rows) == len(cols) == r == ranked.rank(cleared) == expected
        assert cols <= set(kept)
        assert dense_rank_oracle(m.field, [dense[i] for i in sorted(rows)]) == r
        assert dense_rank_oracle(m.field, [[dense[i][j] for j in sorted(cols)] for i in sorted(rows)]) == r
        assert ranked.entries == m.entries


def lines_matrix(field, lines, width, tall):
    """The matrix that rank eliminates as ``lines``: its rows if wide, its columns if tall.

    The other side is padded with empty lines to make the orientation.
    """
    width = max(width, len(lines) + 1 if tall else len(lines))
    items = [(j, i, v) if tall else (i, j, v) for i, line in enumerate(lines) for j, v in line.items()]
    nrows, ncols = (width, len(lines)) if tall else (len(lines), width)
    m = Matrix.from_entries(field, nrows, ncols, items)
    assert (m.nrows > m.ncols) == tall
    return m


@PROPERTY
@given(st.sampled_from(FIELDS_CLEARED), st.integers(0, 9), st.data())
def test_rank_cleared_by_the_pivot_rows_of_a_right_factor_is_the_rank(field, n, data):
    a, b = left_kernel_pair(data, field, n)
    _, rows, _ = a.rank(pivots=True)
    assert b.rank(rows) == b.rank()
    assert_pivots_carry_the_rank(a)
    assert_pivots_carry_the_rank(b, rows)


@PROPERTY
@given(st.sampled_from(FIELDS_CLEARED), st.integers(0, 12), st.integers(0, 12), st.data())
def test_pivot_rows_of_sparse_matrices_carry_the_rank(field, r, c, data):
    a = matrices(data, field, r, c, max_size=min(r * c, r + c))
    cleared = data.draw(st.sets(st.integers(0, c - 1)) if c else st.just(set()))
    for m in (a, a.transpose()):
        assert_pivots_carry_the_rank(m)
    assert_pivots_carry_the_rank(a, cleared)


@PROPERTY
@given(st.sampled_from(FIELDS_CLEARED), st.integers(1, 7), st.booleans(), st.data())
def test_pivot_rows_of_a_staircase_come_from_the_peel(field, k, tall, data):
    # line i holds column order[i] and columns of later lines only, so the
    # peel takes every line: the first line's column is private, and so on
    order = data.draw(st.permutations(range(k)))
    lines = []
    for i in range(k):
        later = data.draw(st.sets(st.sampled_from(order[i:]), max_size=3)) - {order[i]}
        lines.append({order[i]: data.draw(scalars(field).filter(bool))} | {c: data.draw(scalars(field)) for c in later})
    lines = [{c: v for c, v in line.items() if v} for line in lines]
    assert _peel(lines)[1] == []
    assert_pivots_carry_the_rank(lines_matrix(field, lines, k, tall))


@PROPERTY
@given(st.sampled_from(FIELDS_CLEARED), st.integers(1, 6), st.integers(1, 6), st.booleans(), st.data())
def test_pivot_rows_of_doubled_lines_carry_the_rank(field, k, width, tall, data):
    # every line appears twice, the copy scaled, so no column is private
    # and the peel takes nothing; at k = 1 each column sits in two lines,
    # so the two-line stage ranks them, and Markowitz ranks the rest
    base = [{c: v for c, v in enumerate(row) if v} for row in matrices(data, field, k, width).to_rows()]
    lines = base + [{c: field.mul(field.from_int(2), v) for c, v in line.items()} for line in base]
    assert _peel(lines)[0] == 0
    assert_pivots_carry_the_rank(lines_matrix(field, lines, width, tall))


def two_line_lines(data, field):
    """Lines in which each index sits in exactly two, and their width: a gain graph on the lines.

    Index c joins lines u and v with values a and b.  Mostly b follows
    random potentials l, b = -l_u a / l_v, so that a component whose edges
    all follow them is balanced and its lines are dependent; else b is
    drawn free.  Lines with no index stay in, empty.
    """
    nonzero = scalars(field).filter(bool)
    n = data.draw(st.integers(2, 8))
    potentials = [data.draw(nonzero) for _ in range(n)]
    pair = st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)).filter(lambda e: e[0] != e[1])
    ends = data.draw(st.lists(pair, min_size=1, max_size=12))
    lines = [{} for _ in range(n)]
    for c, (u, v) in enumerate(ends):
        a = data.draw(nonzero)
        follows = data.draw(st.integers(0, 3))
        b = field.neg(field.div(field.mul(potentials[u], a), potentials[v])) if follows else data.draw(nonzero)
        lines[u][c], lines[v][c] = a, b
    return lines, len(ends)


@PROPERTY
@given(st.sampled_from(FIELDS), st.data())
def test_pivot_rows_of_two_line_graphs_carry_the_rank(field, data):
    # no index is private, so the peel takes nothing, and the balance of
    # each component of the gain graph gives the rank and its pivots
    lines, width = two_line_lines(data, field)
    assert _peel(lines)[0] == 0
    assert _rank_two_line([line for line in lines if line], field.p) is not None
    for tall in (False, True):
        assert_pivots_carry_the_rank(lines_matrix(field, lines, width, tall))


@PROPERTY
@given(st.sampled_from(FIELDS_CLEARED), st.integers(0, 9), st.integers(0, 9), st.booleans(), st.data())
def test_pivot_rows_and_columns_index_a_nonsingular_minor(field, r, c, clear, data):
    # dense enough that Markowitz elimination runs after the peel, so the
    # column-backed copy must keep the columns that elimination changes
    a = matrices(data, field, r, c)
    for m in (a, a.transpose()):  # tall and wide
        cleared = data.draw(st.sets(st.integers(0, m.ncols - 1))) if clear and m.ncols else frozenset()
        assert_pivots_carry_the_rank(m, cleared)
