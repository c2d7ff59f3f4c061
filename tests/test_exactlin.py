from __future__ import annotations

import random
from fractions import Fraction

import pytest

from cobarlab.exactlin import (
    GF,
    QQ,
    Matrix,
    SubspaceBasis,
    extend_to_basis,
    kernel_basis,
    kron_identity_matmul,
    kronecker,
    quotient_maps,
    rank,
    solve,
)


def dense_rank_oracle(field, rows):
    """Plain dense Gaussian elimination, no pivot cleverness; the oracle."""
    rows = [[field.coerce(v) for v in row] for row in rows]
    nrows = len(rows)
    ncols = len(rows[0]) if rows else 0
    r = 0
    for col in range(ncols):
        piv = None
        for i in range(r, nrows):
            if rows[i][col] != field.zero:
                piv = i
                break
        if piv is None:
            continue
        rows[r], rows[piv] = rows[piv], rows[r]
        inv = field.inv(rows[r][col])
        rows[r] = [field.mul(inv, v) for v in rows[r]]
        for i in range(nrows):
            if i != r and rows[i][col] != field.zero:
                a = rows[i][col]
                rows[i] = [field.sub(x, field.mul(a, y)) for x, y in zip(rows[i], rows[r])]
        r += 1
    return r


def random_matrix(rng, field, nrows, ncols, density=0.5):
    rows = []
    for _ in range(nrows):
        row = []
        for _ in range(ncols):
            if rng.random() < density:
                if field.kind == "rationals":
                    num = rng.randint(-5, 5)
                    den = rng.choice([1, 1, 1, 2, 3])
                    row.append(Fraction(num, den))
                else:
                    row.append(rng.randrange(field.p))
            else:
                row.append(field.zero)
        rows.append(row)
    return Matrix.from_rows(field, rows, ncols)


def test_field_scalars():
    f5 = GF(5)
    assert f5.add(3, 4) == 2
    assert f5.inv(2) == 3
    assert f5.coerce("2/3") == f5.div(2, 3)
    assert QQ.coerce("-7/2") == Fraction(-7, 2)
    assert QQ.format(Fraction(4, 2)) == 2
    assert QQ.format(Fraction(1, 3)) == "1/3"
    with pytest.raises(ValueError):
        GF(6)
    with pytest.raises(ValueError):
        GF(2**31 + 11)


def test_rank_gf5_example():
    m = Matrix.from_rows(GF(5), [[1, 2], [3, 1]])
    assert rank(m) == 1


def test_rank_rationals_small():
    m = Matrix.from_rows(QQ, [[1, 2], [3, 1]])
    assert rank(m) == 2
    assert rank(Matrix.zeros(QQ, 4, 3)) == 0
    assert rank(Matrix.identity(QQ, 7)) == 7


def test_solve_gf5_example():
    m = Matrix.from_rows(GF(5), [[2]])
    assert solve(m, (3,)) == (4,)


def test_solve_inconsistent_and_underdetermined():
    m = Matrix.from_rows(QQ, [[1, 1], [1, 1]])
    assert solve(m, (1, 2)) is None
    x = solve(m, (3, 3))
    assert x is not None and m.apply(x) == (Fraction(3), Fraction(3))


def test_kernel_example():
    m = Matrix.from_rows(QQ, [[1, 1, 0], [0, 0, 1]])
    ker = kernel_basis(m)
    assert ker.dim == 1
    expected = SubspaceBasis(QQ, 3, ((Fraction(1), Fraction(-1), Fraction(0)),))
    assert ker == expected


def test_kronecker_example():
    a = Matrix.from_rows(QQ, [[1, 1]])
    b = Matrix.from_rows(QQ, [[1], [1]])
    k = kronecker(a, b)
    assert k.to_rows() == [[Fraction(1), Fraction(1)], [Fraction(1), Fraction(1)]]


def test_matmul_and_apply():
    a = Matrix.from_rows(QQ, [[1, 2], [0, 1]])
    b = Matrix.from_rows(QQ, [[1, 0], [3, 1]])
    assert (a @ b).to_rows() == [[Fraction(7), Fraction(2)], [Fraction(3), Fraction(1)]]
    assert a.apply((1, 1)) == (Fraction(3), Fraction(1))


def test_rank_nullity_randomized():
    rng = random.Random(20260816)
    for trial in range(120):
        field = QQ if trial % 2 == 0 else GF(5)
        nrows = rng.randint(1, 7)
        ncols = rng.randint(1, 7)
        m = random_matrix(rng, field, nrows, ncols)
        r = rank(m)
        ker = kernel_basis(m)
        assert r == dense_rank_oracle(field, m.to_rows())
        assert r + ker.dim == ncols
        for v in ker.vectors:
            assert all(x == field.zero for x in m.apply(v))


def test_rank_permutation_invariance():
    rng = random.Random(7)
    for _ in range(40):
        field = rng.choice([QQ, GF(7)])
        m = random_matrix(rng, field, 5, 6)
        rows = m.to_rows()
        rng.shuffle(rows)
        cols = list(range(6))
        rng.shuffle(cols)
        shuffled = [[row[c] for c in cols] for row in rows]
        assert rank(Matrix.from_rows(field, shuffled)) == rank(m)


def test_kronecker_rank_multiplicative():
    rng = random.Random(99)
    for _ in range(40):
        field = rng.choice([QQ, GF(5)])
        a = random_matrix(rng, field, rng.randint(1, 4), rng.randint(1, 4))
        b = random_matrix(rng, field, rng.randint(1, 4), rng.randint(1, 4))
        assert rank(kronecker(a, b)) == rank(a) * rank(b)


def test_solve_randomized_exactness():
    rng = random.Random(314)
    for _ in range(60):
        field = rng.choice([QQ, GF(11)])
        m = random_matrix(rng, field, rng.randint(1, 6), rng.randint(1, 6))
        x0 = tuple(field.coerce(rng.randint(-4, 4)) for _ in range(m.ncols))
        b = m.apply(x0)
        x = solve(m, b)
        assert x is not None
        assert m.apply(x) == b


def test_subspace_contains_and_eq():
    s = SubspaceBasis(QQ, 3, ((Fraction(1), Fraction(1), Fraction(0)), (Fraction(0), Fraction(0), Fraction(2))))
    assert s.dim == 2
    assert s.contains((Fraction(2), Fraction(2), Fraction(5)))
    assert not s.contains((Fraction(1), Fraction(0), Fraction(0)))
    t = SubspaceBasis(QQ, 3, ((Fraction(1), Fraction(1), Fraction(1)), (Fraction(0), Fraction(0), Fraction(1))))
    assert s == t


def test_quotient_maps():
    s = SubspaceBasis(QQ, 3, ((Fraction(1), Fraction(1), Fraction(0)),))
    proj, section = quotient_maps(s)
    assert proj.nrows == 2 and proj.ncols == 3
    assert (proj @ section) == Matrix.identity(QQ, 2)
    for v in s.vectors:
        assert all(x == Fraction(0) for x in proj.apply(v))
    rng = random.Random(5)
    for _ in range(20):
        v = tuple(Fraction(rng.randint(-3, 3)) for _ in range(3))
        if all(x == Fraction(0) for x in proj.apply(v)):
            assert s.contains(v)


def test_extend_to_basis():
    base = [(Fraction(1), Fraction(0), Fraction(0))]
    cands = [
        (Fraction(2), Fraction(0), Fraction(0)),
        (Fraction(1), Fraction(1), Fraction(0)),
        (Fraction(0), Fraction(1), Fraction(0)),
        (Fraction(0), Fraction(0), Fraction(3)),
    ]
    chosen = extend_to_basis(QQ, 3, base, cands)
    assert chosen == [1, 3]


def test_kron_index_convention():
    # kron(A, B)[(ia*rb+ib), (ja*cb+jb)] == A[ia,ja] * B[ib,jb]
    a = Matrix.from_rows(QQ, [[1, 2], [3, 4]])
    b = Matrix.from_rows(QQ, [[0, 5], [6, 0]])
    k = kronecker(a, b)
    ar = a.to_rows()
    br = b.to_rows()
    kr = k.to_rows()
    for ia in range(2):
        for ja in range(2):
            for ib in range(2):
                for jb in range(2):
                    assert kr[ia * 2 + ib][ja * 2 + jb] == ar[ia][ja] * br[ib][jb]


def _planted_rank_rows(rng, nrows, ncols, inner, draw):
    """Dense rows of B @ C with B nrows x inner, C inner x ncols: rank <= inner.

    Both factors are sparse except B's first column and C's first row, whose
    outer product fills every entry, so elimination meets fill-in.
    """
    b = [[draw() if k == 0 or rng.random() < 0.3 else 0 for k in range(inner)] for _ in range(nrows)]
    c = [[draw() if k == 0 or rng.random() < 0.3 else 0 for _ in range(ncols)] for k in range(inner)]
    return [[sum(b[i][k] * c[k][j] for k in range(inner)) for j in range(ncols)] for i in range(nrows)]


@pytest.mark.parametrize("kind", ["qq_int", "qq_fraction", "gf7", "gf_large"])
def test_rank_matches_sympy_oracle(kind):
    sympy = pytest.importorskip("sympy")
    from sympy.polys.matrices import DomainMatrix

    rng = random.Random("rank-oracle-" + kind)
    if kind == "qq_int":
        field, domain, draw = QQ, sympy.QQ, lambda: rng.randint(-3, 3)
    elif kind == "qq_fraction":
        field, domain, draw = QQ, sympy.QQ, lambda: Fraction(rng.randint(-5, 5), rng.randint(1, 6))
    else:
        p = 7 if kind == "gf7" else 2**31 - 1
        field, domain, draw = GF(p), sympy.GF(p), lambda: rng.randrange(p)
    for _ in range(40):
        nrows, ncols = rng.randint(1, 24), rng.randint(1, 24)
        rows = _planted_rank_rows(rng, nrows, ncols, rng.randint(1, min(nrows, ncols)), draw)
        if field == QQ:
            # int entries are kept as ints, the way the cobar sweep builds them
            entries = {(i, j): v for i, row in enumerate(rows) for j, v in enumerate(row) if v}
            oracle = [[domain(v.numerator, v.denominator) for v in row] for row in rows]
        else:
            entries = {(i, j): v % field.p for i, row in enumerate(rows) for j, v in enumerate(row) if v % field.p}
            oracle = [[domain(v) for v in row] for row in rows]
        expected = DomainMatrix(oracle, (nrows, ncols), domain).rank()
        assert Matrix(field, nrows, ncols, entries).rank() == expected


@pytest.mark.parametrize("kind", ["qq_int", "qq_fraction", "gf7", "gf_large"])
def test_kernel_and_solve_match_sympy_oracle(kind):
    sympy = pytest.importorskip("sympy")
    from sympy.polys.matrices import DomainMatrix

    rng = random.Random("kernel-oracle-" + kind)
    if kind == "qq_int":
        field, domain, draw = QQ, sympy.QQ, lambda: rng.randint(-3, 3)
    elif kind == "qq_fraction":
        field, domain, draw = QQ, sympy.QQ, lambda: Fraction(rng.randint(-5, 5), rng.randint(1, 6))
    else:
        p = 7 if kind == "gf7" else 2**31 - 1
        field, domain, draw = GF(p), sympy.GF(p), lambda: rng.randrange(p)

    def oracle(rows, nrows, ncols):
        if field == QQ:
            return DomainMatrix([[domain(v.numerator, v.denominator) for v in r] for r in rows], (nrows, ncols), domain)
        return DomainMatrix([[domain(v) for v in row] for row in rows], (nrows, ncols), domain)

    for _ in range(30):
        nrows, ncols = rng.randint(1, 20), rng.randint(1, 20)
        rows = _planted_rank_rows(rng, nrows, ncols, rng.randint(1, min(nrows, ncols)), draw)
        if field != QQ:
            rows = [[v % field.p for v in row] for row in rows]
        m = Matrix(field, nrows, ncols, {(i, j): v for i, row in enumerate(rows) for j, v in enumerate(row) if v})
        expected = oracle(rows, nrows, ncols)
        nullity = ncols - expected.rank()
        # kernel: the dimension, vectors killed by the matrix, and the span of sympy's nullspace
        ours = m.kernel_basis().vectors
        assert len(ours) == nullity == expected.nullspace().shape[0]
        if ours:
            ours_m = oracle(ours, len(ours), ncols)
            assert (expected * ours_m.transpose()).is_zero_matrix
            assert ours_m.rank() == nullity
            assert ours_m.vstack(expected.nullspace()).rank() == nullity
        # solve: a consistent right-hand side, then a random one decided by the oracle's ranks
        x0 = [draw() if rng.random() < 0.5 else 0 for _ in range(ncols)]
        consistent = [sum(a * x for a, x in zip(row, x0)) for row in rows]
        for rhs in (consistent, [draw() for _ in range(nrows)]):
            if field != QQ:
                rhs = [v % field.p for v in rhs]
            b = oracle([[v] for v in rhs], nrows, 1)
            x = m.solve(tuple(rhs))
            if expected.hstack(b).rank() > expected.rank():
                assert x is None
            else:
                assert x is not None
                assert expected * oracle([[v] for v in x], ncols, 1) == b


def test_qq_scalars_keep_the_int_normal_form():
    assert type(QQ.div(4, 2)) is int and QQ.div(4, 2) == 2
    assert QQ.div(1, 2) == Fraction(1, 2)
    assert type(QQ.coerce("6/3")) is int and QQ.coerce("6/3") == 2
    assert type(QQ.coerce(Fraction(6, 3))) is int
    assert type(QQ.inv(Fraction(1, 5))) is int and QQ.inv(2) == Fraction(1, 2)
    assert type(QQ.from_int(7)) is int and QQ.zero == 0 and QQ.one == 1
    assert QQ.div(Fraction(3, 4), Fraction(3, 2)) == Fraction(1, 2)
    for v in (QQ.div(1, 3), QQ.inv(3), QQ.div(6, 4)):
        assert type(v) is Fraction
    assert GF(7).div(1, 2) == 4 and GF(7).coerce("3/2") == 5 and GF(7).coerce(Fraction(-1, 2)) == 3


def test_constructors_store_elements_and_coerce_the_rest():
    m = Matrix.from_rows(QQ, [[2, Fraction(1, 2), "3/3"], [0, "0", Fraction(0)]])
    assert m.entries == {(0, 0): 2, (0, 1): Fraction(1, 2), (0, 2): 1}
    assert type(m.entries[(0, 2)]) is int
    f5 = GF(5)
    assert Matrix.from_columns(f5, [[7, -1], [5, "2/3"]]).entries == {(0, 0): 2, (1, 0): 4, (1, 1): 4}
    assert Matrix.from_entries(f5, 1, 1, [(0, 0, 3), (0, 0, 2)]).is_zero()
    summed = Matrix.from_entries(QQ, 1, 2, [(0, 0, "1/2"), (0, 0, Fraction(1, 2)), (0, 1, 6)])
    assert summed.entries == {(0, 0): 1, (0, 1): 6}
    for build in (
        lambda: Matrix.from_rows(QQ, [[True]]),
        lambda: Matrix.from_columns(GF(5), [[False]]),
        lambda: Matrix.from_entries(QQ, 1, 1, [(0, 0, False)]),
        lambda: Matrix.from_rows(QQ, [[1.5]]),
    ):
        with pytest.raises(ValueError):
            build()


@pytest.mark.parametrize("field", [QQ, GF(5)], ids=["QQ", "GF5"])
def test_kron_identity_matmul_matches_kron(field):
    rng = random.Random("kron-identity-%r" % field)

    def sparse(nrows, ncols):
        items = []
        for i in range(nrows):
            for j in range(ncols):
                if rng.random() < 0.35:
                    v = Fraction(rng.randint(-4, 4), rng.randint(1, 3)) if field == QQ else rng.randrange(5)
                    items.append((i, j, v))
        return Matrix.from_entries(field, nrows, ncols, items)

    for _ in range(60):
        r, c, n, k = rng.randint(0, 5), rng.randint(0, 5), rng.randint(0, 4), rng.randint(0, 5)
        x = sparse(r, c)
        y = sparse(n * c, k)
        eye = Matrix.identity(field, n)
        assert kron_identity_matmul(n, x, y) == Matrix.kron(eye, x) @ y
        assert kron_identity_matmul(x, n, y) == Matrix.kron(x, eye) @ y
    with pytest.raises(ValueError):
        kron_identity_matmul(2, sparse(2, 3), sparse(5, 1))


@pytest.mark.parametrize("kind", ["qq_int", "qq_fraction", "gf7", "gf_large"])
def test_rref_matches_sympy_oracle(kind):
    sympy = pytest.importorskip("sympy")
    from sympy.polys.matrices import DomainMatrix

    rng = random.Random("rref-oracle-" + kind)
    if kind == "qq_int":
        field, draw = QQ, lambda: rng.randint(-3, 3)
    elif kind == "qq_fraction":
        field, draw = QQ, lambda: Fraction(rng.randint(-5, 5), rng.randint(1, 6))
    else:
        p = 7 if kind == "gf7" else 2**31 - 1
        field, draw = GF(p), lambda: rng.randrange(p)

    def oracle(rows, nrows, ncols):
        """Pivot columns and the nonzero rows of sympy's RREF, as sparse dicts."""
        if field == QQ:
            reduced, pivots = sympy.Matrix(rows).rref()
            dense = [[Fraction(int(v.p), int(v.q)) for v in reduced.row(i)] for i in range(nrows)]
        else:
            domain = sympy.GF(field.p)
            reduced, pivots = DomainMatrix([[domain(v) for v in row] for row in rows], (nrows, ncols), domain).rref()
            dense = [[int(v) % field.p for v in row] for row in reduced.to_list()]
        return list(pivots), [{j: v for j, v in enumerate(row) if v} for row in dense[: len(pivots)]]

    for _ in range(30):
        nrows, ncols = rng.randint(1, 20), rng.randint(1, 20)
        rows = _planted_rank_rows(rng, nrows, ncols, rng.randint(1, min(nrows, ncols)), draw)
        if field != QQ:
            rows = [[v % field.p for v in row] for row in rows]
        expected = oracle(rows, nrows, ncols)
        m = Matrix(field, nrows, ncols, {(i, j): v for i, row in enumerate(rows) for j, v in enumerate(row) if v})
        assert m.rref() == expected
        order = list(range(nrows))
        rng.shuffle(order)
        permuted = Matrix(field, nrows, ncols, {(order[i], j): v for (i, j), v in m.entries.items()})
        assert permuted.rref() == expected


def _dense_product(field, a, b, ncols):
    """Row-by-column sums of two dense row lists, one field operation at a time."""
    inner = len(b)
    out = []
    for row in a:
        line = []
        for j in range(ncols):
            s = field.zero
            for k in range(inner):
                s = field.add(s, field.mul(row[k], b[k][j]))
            line.append(s)
        out.append(line)
    return out


def _dense_kron(field, a, b):
    return [[field.mul(x, y) for x in ra for y in rb] for ra in a for rb in b]


def _product_draw(kind, rng):
    primes = [3, 7, 101, 10007, 65537, 2**31 - 1]
    if kind == "gf_large":
        p = 2**31 - 1
        # every entry is near p, so each product is near 2**62 and a sum of three passes 2**63
        return GF(p), lambda: p - 1 - rng.randrange(4)
    if kind == "all_int":
        return QQ, lambda: rng.randint(-9, 9)
    if kind == "cancelling":
        return QQ, lambda: rng.choice([1, -1]) * Fraction(rng.choice(primes), rng.choice(primes))
    return QQ, lambda: Fraction(rng.randint(-9, 9), rng.choice([1, 2, 6] + primes))


@pytest.mark.parametrize("kind", ["mixed_denominators", "cancelling", "all_int", "empty", "gf_large"])
def test_products_match_per_entry_reference(kind):
    rng = random.Random("products-" + kind)
    field, draw = _product_draw(kind, rng)
    density = 1.0 if kind == "gf_large" else 0.5

    def dense(nrows, ncols):
        return [[draw() if rng.random() < density else 0 for _ in range(ncols)] for _ in range(nrows)]

    def rhs(nrows, ncols):
        # when cancelling, [z ; -z] meets [x | x] and every sum is zero
        if kind != "cancelling":
            return dense(nrows, ncols)
        z = dense(nrows, ncols)
        return z + [[-v for v in row] for row in z]

    for _ in range(40):
        r, c, k, n = rng.randint(1, 5), rng.randint(3, 6), rng.randint(1, 4), rng.randint(1, 3)
        if kind == "empty":
            r, c, k, n = (rng.choice([0, d]) for d in (r, c, k, n))
        x = dense(r, c)
        if kind == "cancelling":
            x = [row + row for row in x]
        width = 2 * c if kind == "cancelling" else c
        xm = Matrix.from_rows(field, x, width)
        ym = Matrix.from_rows(field, rhs(c, k), k)
        left_w = Matrix.from_rows(field, [row for _ in range(n) for row in rhs(c, k)], k)
        right_w = Matrix.from_rows(field, rhs(n * c, k), k)
        eye, xr = Matrix.identity(field, n).to_rows(), xm.to_rows()
        cases = [
            (xm @ ym, _dense_product(field, xr, ym.to_rows(), k)),
            (kron_identity_matmul(n, xm, left_w), _dense_product(field, _dense_kron(field, eye, xr), left_w.to_rows(), k)),
            (kron_identity_matmul(xm, n, right_w), _dense_product(field, _dense_kron(field, xr, eye), right_w.to_rows(), k)),
        ]
        for got, expected in cases:
            assert (got.nrows, got.ncols) == (len(expected), k)
            assert got.to_rows() == expected
            assert all(got.entries.values())
            if field == QQ:
                assert all(type(v) is int for v in got.entries.values() if v.denominator == 1)
            if kind == "cancelling":
                assert got.is_zero()
