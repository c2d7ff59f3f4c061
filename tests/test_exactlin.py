from __future__ import annotations

import math
import random
from fractions import Fraction

import pytest

from helpers_coalgebras import dense_quotient_maps, field_rref

from cobarlab.exactlin import (
    _is_prime,
    _peel,
    _rref,
    GF,
    QQ,
    Matrix,
    cohomology_dims,
    extend_to_basis,
    kron_identity_matmul,
    quotient_maps,
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


def _trial_division_is_prime(n):
    return n >= 2 and all(n % d for d in range(2, math.isqrt(n) + 1))


def test_primality_matches_trial_division():
    assert [n for n in range(20000) if _is_prime(n)] == [n for n in range(20000) if _trial_division_is_prime(n)]
    # the strong pseudoprimes to base 2 below 10**4, one to bases 2, 3 and 5, and 46337**2
    for n in (2047, 3277, 4033, 4681, 8321, 25326001, 46337**2):
        assert not _is_prime(n)
        with pytest.raises(ValueError, match="^%d is not prime$" % n):
            GF(n)
    assert _is_prime(2**31 - 1) and GF(2**31 - 1).p == 2**31 - 1
    with pytest.raises(ValueError, match="must be an int in"):
        GF(2**31)


def test_rank_gf5_example():
    m = Matrix.from_rows(GF(5), [[1, 2], [3, 1]])
    assert m.rank() == 1


def test_rank_rationals_small():
    m = Matrix.from_rows(QQ, [[1, 2], [3, 1]])
    assert m.rank() == 2
    assert Matrix.zeros(QQ, 4, 3).rank() == 0
    assert Matrix.identity(QQ, 7).rank() == 7


def test_solve_gf5_example():
    m = Matrix.from_rows(GF(5), [[2]])
    assert m.solve((3,)) == (4,)


def test_solve_inconsistent_and_underdetermined():
    m = Matrix.from_rows(QQ, [[1, 1], [1, 1]])
    assert m.solve((1, 2)) is None
    x = m.solve((3, 3))
    assert x is not None and m.apply(x) == (Fraction(3), Fraction(3))


def test_kernel_example():
    m = Matrix.from_rows(QQ, [[1, 1, 0], [0, 0, 1]])
    ker = m.kernel_basis()
    assert ker.rank() == 1
    expected = Matrix.from_columns(QQ, [(Fraction(1), Fraction(-1), Fraction(0))])
    # the same column space: stacking adds nothing to either rank
    assert Matrix.hstack([ker, expected]).rank() == ker.rank() == expected.rank()


def test_kronecker_example():
    a = Matrix.from_rows(QQ, [[1, 1]])
    b = Matrix.from_rows(QQ, [[1], [1]])
    k = a.kron(b)
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
        r = m.rank()
        ker = m.kernel_basis()
        assert r == dense_rank_oracle(field, m.to_rows())
        assert r + ker.rank() == ncols
        for v in ker.columns():
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
        assert Matrix.from_rows(field, shuffled).rank() == m.rank()


def test_kronecker_rank_multiplicative():
    rng = random.Random(99)
    for _ in range(40):
        field = rng.choice([QQ, GF(5)])
        a = random_matrix(rng, field, rng.randint(1, 4), rng.randint(1, 4))
        b = random_matrix(rng, field, rng.randint(1, 4), rng.randint(1, 4))
        assert a.kron(b).rank() == a.rank() * b.rank()


def test_solve_randomized_exactness():
    rng = random.Random(314)
    for _ in range(60):
        field = rng.choice([QQ, GF(11)])
        m = random_matrix(rng, field, rng.randint(1, 6), rng.randint(1, 6))
        x0 = tuple(field.coerce(rng.randint(-4, 4)) for _ in range(m.ncols))
        b = m.apply(x0)
        x = m.solve(b)
        assert x is not None
        assert m.apply(x) == b


def test_quotient_maps():
    s = Matrix.from_rows(QQ, [[Fraction(1), Fraction(1), Fraction(0)]])
    proj, section = quotient_maps(s)
    assert proj.nrows == 2 and proj.ncols == 3
    assert (proj @ section) == Matrix.identity(QQ, 2)
    for v in s.to_rows():
        assert all(x == Fraction(0) for x in proj.apply(v))
    rng = random.Random(5)
    for _ in range(20):
        v = tuple(Fraction(rng.randint(-3, 3)) for _ in range(3))
        if all(x == Fraction(0) for x in proj.apply(v)):
            # v lies in the row space of s
            assert s.transpose().solve(v) is not None


@pytest.mark.parametrize("kind", ["qq_int", "qq_fraction", "gf7", "gf_large"])
def test_quotient_maps_match_dense_reference(kind):
    rng = random.Random("quotient-maps-" + kind)
    field, draw = _field_and_draw(rng, kind)
    spans = [Matrix.zeros(field, 0, 4), Matrix.zeros(field, 3, 5)]
    for _ in range(40):
        ambient = rng.randint(1, 12)
        count = rng.randint(1, 15)
        rows = _planted_rank_rows(rng, count, ambient, rng.randint(1, ambient), draw)
        spans.append(Matrix.from_rows(field, rows, ambient))
    for span in spans:
        proj, section = quotient_maps(span)
        ref_proj, ref_section = dense_quotient_maps(field, span.ncols, span.to_rows())
        # entry-identical, values and types alike
        assert proj.entries == ref_proj.entries and (proj.nrows, proj.ncols) == (ref_proj.nrows, ref_proj.ncols)
        assert all(type(v) is type(ref_proj.entries[k]) for k, v in proj.entries.items())
        assert section == ref_section
        assert proj @ section == Matrix.identity(field, proj.nrows)
        assert proj.nrows == span.ncols - span.rank()
    # the zero-row and all-zero spans give the identity pair
    for span in spans[:2]:
        assert quotient_maps(span) == (Matrix.identity(field, span.ncols),) * 2


def test_extend_to_basis():
    base = Matrix.from_columns(QQ, [[1, 0, 0]])
    cands = Matrix.from_columns(QQ, [[2, 0, 0], [1, 1, 0], [0, 1, 0], [0, 0, 3]])
    assert extend_to_basis(base, cands) == [1, 3]
    assert extend_to_basis(Matrix.zeros(QQ, 3, 0), cands) == [0, 1, 3]
    assert extend_to_basis(base, Matrix.zeros(QQ, 3, 0)) == []


def _axpy(field, row, prow, col):
    """row -= row[col] * prow, where prow has pivot value 1 at col."""
    a = row.get(col)
    if a is None:
        return
    for c, v in prow.items():
        w = field.sub(row.get(c, field.zero), field.mul(a, v))
        if w:
            row[c] = w
        else:
            row.pop(c, None)


def full_scan_extend_to_basis(field, ambient, base_vectors, candidates):
    """Reference: reduce each candidate by every pivot row in turn, and every row by a new pivot."""
    pivots, red = _rref([{j: x for j, x in enumerate(v) if x} for v in base_vectors], field.p)
    chosen = []
    for idx, cand in enumerate(candidates):
        row = {j: x for j, x in enumerate(cand) if x}
        for p, r in zip(pivots, red):
            _axpy(field, row, r, p)
        if not row:
            continue
        col = min(row)
        inv = field.inv(row[col])
        if inv != field.one:
            row = {c: field.mul(inv, v) for c, v in row.items()}
        for r in red:
            _axpy(field, r, row, col)
        at = 0
        while at < len(pivots) and pivots[at] < col:
            at += 1
        pivots.insert(at, col)
        red.insert(at, row)
        chosen.append(idx)
    return chosen


@pytest.mark.parametrize("kind", ["qq_int", "qq_fraction", "gf7", "gf_large"])
def test_extend_to_basis_matches_full_scan(kind):
    rng = random.Random("extend-to-basis-" + kind)
    field, draw = _field_and_draw(rng, kind)
    picked = skipped = 0
    for _ in range(40):
        ambient = rng.randint(1, 20)
        # planted rank below the ambient dimension, so candidates often depend on earlier ones
        inner = rng.randint(1, ambient)
        count = rng.randint(0, 30)
        vecs = [[field.coerce(v) for v in row] for row in _planted_rank_rows(rng, count, ambient, inner, draw)]
        split = rng.randint(0, count)
        base = vecs[:split]
        cands = vecs[split:]
        expected = full_scan_extend_to_basis(field, ambient, base, cands)
        as_columns = [Matrix.from_columns(field, vs, ambient) for vs in (base, cands)]
        assert extend_to_basis(*as_columns) == expected
        picked += len(expected)
        skipped += len(cands) - len(expected)
    # both outcomes occur often
    assert picked > 20 and skipped > 100


def test_kron_index_convention():
    # kron(A, B)[(ia*rb+ib), (ja*cb+jb)] == A[ia,ja] * B[ib,jb]
    a = Matrix.from_rows(QQ, [[1, 2], [3, 4]])
    b = Matrix.from_rows(QQ, [[0, 5], [6, 0]])
    k = a.kron(b)
    ar = a.to_rows()
    br = b.to_rows()
    kr = k.to_rows()
    for ia in range(2):
        for ja in range(2):
            for ib in range(2):
                for jb in range(2):
                    assert kr[ia * 2 + ib][ja * 2 + jb] == ar[ia][ja] * br[ib][jb]


def _field_and_draw(rng, kind):
    """The field of a test kind and a function drawing one random scalar."""
    if kind == "qq_int":
        return QQ, lambda: rng.randint(-3, 3)
    if kind == "qq_fraction":
        return QQ, lambda: Fraction(rng.randint(-5, 5), rng.randint(1, 6))
    p = 7 if kind == "gf7" else 2**31 - 1
    return GF(p), lambda: rng.randrange(p)


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
        ours = m.kernel_basis().columns()
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
    field, draw = _field_and_draw(rng, kind)

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


@pytest.mark.parametrize("kind", ["qq_wide", "qq_int", "qq_fraction", "gf7", "gf_large"])
def test_rref_matches_field_arithmetic_reference(kind):
    rng = random.Random("rref-reference-" + kind)
    if kind == "qq_wide":
        # numerators of 60 to 64 bits over denominators up to 2**31 - 1
        field = QQ

        def draw():
            num = rng.choice((-1, 1)) * rng.randrange(2**60, 2**64)
            return Fraction(num, rng.choice((1, rng.randint(2, 2**31 - 2), 2**31 - 1)))

    else:
        field, draw = _field_and_draw(rng, kind)
    cases = []
    for _ in range(40):
        nrows, ncols = rng.randint(1, 14), rng.randint(1, 14)
        cases.append(_planted_rank_rows(rng, nrows, ncols, rng.randint(1, min(nrows, ncols)), draw))
    twice = _planted_rank_rows(rng, 4, 6, 3, draw)
    cases += [[], [[], [], []], [[0] * 5] * 3, twice + twice[::-1], [[draw() for _ in range(9)] for _ in range(7)]]
    for rows in cases:
        width = len(rows[0]) if rows else 0
        dicts = [{j: field.coerce(v) for j, v in enumerate(row) if field.coerce(v)} for row in rows]
        pivots, reduced = _rref([dict(row) for row in dicts], field.p)
        assert (pivots, reduced) == field_rref(field, [dict(row) for row in dicts], width)
        for row in reduced:
            for v in row.values():
                # the int normal form wherever an entry is integral
                assert type(v) is int if field != QQ or v.denominator == 1 else type(v) is Fraction


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


def test_peel_cascades_and_stops_at_a_cycle():
    # a chain: column 0 is private to row 0, whose removal makes column 1
    # private to row 1, and so on; the reversed order needs a pass per row
    chain = [{k: 1, k + 1: 1} for k in range(6)]
    assert _peel(chain[::-1]) == (6, [])
    # a cycle holds every column twice, so nothing is peeled
    cycle = [{k: 1, (k + 1) % 5: 1} for k in range(5)]
    assert _peel([{}] + cycle + [{}]) == (0, cycle)


def _rank_draw(kind, rng):
    if kind == "qq_mixed":
        # ints, integral Fractions and true fractions side by side in one row
        return QQ, lambda: rng.choice(
            (
                rng.choice((-3, -2, -1, 1, 2, 3)),
                Fraction(rng.choice((-4, 2, 6)), 1),
                Fraction(rng.choice((-5, 1, 3)), rng.randint(2, 6)),
            )
        )
    p = 7 if kind == "gf7" else 2**31 - 1
    return GF(p), lambda: rng.randrange(1, p)


def _two_line_core(rng, field, draw, cols):
    """Rows in which each column of ``cols`` sits in exactly two rows.

    The rows fall into components, each a cycle over two to five rows (two
    rows make a parallel pair) with perhaps one more edge across it.  A
    column holding a in row u and b in row v is an edge.  About half the
    components are balanced: b = -l_u a / l_v for random potentials l, so
    their rows are dependent.  In the rest one edge's b is doubled, which
    leaves every cycle through it unbalanced.
    """
    rows, cols = [], list(cols)
    while len(cols) >= 2:
        k = rng.randint(2, min(5, len(cols)))
        edges = [(i, (i + 1) % k) for i in range(k)]
        if len(cols) > k and rng.random() < 0.4:
            edges.append((0, k // 2))
        base, potentials = len(rows), [draw() for _ in range(k)]
        rows += [{} for _ in range(k)]
        balanced = rng.random() < 0.5
        for e, (u, v) in enumerate(edges):
            c, a = cols.pop(), draw()
            b = field.neg(field.div(field.mul(potentials[u], a), potentials[v]))
            rows[base + u][c] = a
            rows[base + v][c] = b if balanced or e else field.mul(field.from_int(2), b)
    return rows


def _cascading_rows(rng, field, draw, ncols):
    """Sparse dense-form rows that exercise the peel and the two stages after it.

    A chain over shuffled columns cascades through the peel.  Then either a
    few random core rows, some duplicated and some scaled copies, need
    elimination, or a core from ``_two_line_core`` takes the columns past
    the chain, and each chain row may also hold one of them, so that a
    column sits in three rows until the peel drops the chain.  Empty rows
    stay in, and columns past every row's support stay empty.
    """
    cols = list(range(ncols))
    rng.shuffle(cols)
    used = cols[: max(2, ncols - rng.randint(0, 3))]
    if rng.random() < 0.5:
        split = rng.randint(0, len(used) - 2)
        chain, graph = used[:split], used[split:]
        rows = [
            {chain[k]: draw(), chain[k + 1]: draw()} | ({rng.choice(graph): draw()} if rng.random() < 0.5 else {})
            for k in range(rng.randint(0, max(0, split - 1)))
        ]
        rows += _two_line_core(rng, field, draw, graph)
    else:
        rows = []
        for k in range(rng.randint(0, len(used) - 1)):
            rows.append({used[k]: draw(), used[k + 1]: draw()})
        core = [{c: draw() for c in rng.sample(used, rng.randint(1, min(4, len(used))))} for _ in range(rng.randint(1, 8))]
        rows += core + [dict(r) for r in rng.sample(core, rng.randint(0, len(core)))]
        rows += [{c: v * 2 for c, v in r.items()} for r in core[:1]]
    rows += [{}] * rng.randint(0, 2)
    rng.shuffle(rows)
    return [[row.get(j, 0) for j in range(ncols)] for row in rows]


@pytest.mark.parametrize("kind", ["qq_mixed", "gf7", "gf_large"])
def test_rank_on_cascading_sparse_matrices_matches_oracles(kind):
    try:
        import sympy
        from sympy.polys.matrices import DomainMatrix
    except ImportError:
        sympy = None
    rng = random.Random("rank-cascade-" + kind)
    field, draw = _rank_draw(kind, rng)
    for _ in range(60):
        rows = _cascading_rows(rng, field, draw, rng.randint(2, 14))
        ncols = len(rows[0])
        if field.p is not None:
            rows = [[v % field.p for v in row] for row in rows]
        m = Matrix(field, len(rows), ncols, {(i, j): v for i, row in enumerate(rows) for j, v in enumerate(row) if v})
        expected = dense_rank_oracle(field, rows)
        if sympy is not None:
            domain = sympy.QQ if field == QQ else sympy.GF(field.p)
            dense = [[domain(v.numerator, v.denominator) if field == QQ else domain(v) for v in row] for row in rows]
            assert DomainMatrix(dense, (len(rows), ncols), domain).rank() == expected
        # the matrix and its transpose run the two orientations
        assert m.rank() == m.transpose().rank() == expected


@pytest.mark.parametrize("field", [QQ, GF(7), GF(2**31 - 1)], ids=["QQ", "GF7", "GF_large"])
def test_rank_edge_shapes(field):
    two = Fraction(2, 1) if field == QQ else 2
    cases = [
        (Matrix.zeros(field, 0, 0), 0),
        (Matrix.zeros(field, 3, 5), 0),
        (Matrix(field, 1, 4, {(0, 2): 3}), 1),
        (Matrix(field, 4, 1, {(2, 0): 3}), 1),
        # duplicate rows, an empty row and an empty column
        (Matrix(field, 4, 3, {(0, 0): 1, (0, 1): two, (1, 0): 1, (1, 1): two, (3, 1): 5}), 2),
        # wide and tall: a 2 x 9 and a 9 x 2 of rank 2
        (Matrix(field, 2, 9, {(0, j): j % 5 + 1 for j in range(9)} | {(1, 4): 1}), 2),
        (Matrix(field, 9, 2, {(i, 0): i % 5 + 1 for i in range(9)} | {(4, 1): two}), 2),
    ]
    for m, expected in cases:
        assert m.rank() == expected == dense_rank_oracle(field, m.to_rows())


def test_rank_leaves_entries_unchanged():
    rng = random.Random("rank-keeps-entries")
    for field in (QQ, GF(7)):
        _, draw = _rank_draw("qq_mixed" if field == QQ else "gf7", rng)
        for _ in range(20):
            rows = _cascading_rows(rng, field, draw, rng.randint(2, 10))
            m = Matrix.from_rows(field, rows, len(rows[0]))
            for a in (m, m.transpose()):
                before = [(k, type(v), v) for k, v in a.entries.items()]
                a.rank()
                assert [(k, type(v), v) for k, v in a.entries.items()] == before


def _random_complex(field, rng):
    """Maps d_0, d_1, ... with d_(i+1) d_i = 0: each d_(i+1) is a sparse random map after the projection that kills im d_i."""
    dims = [rng.randint(0, 6) for _ in range(rng.randint(2, 6))]
    maps, last = [], Matrix.zeros(field, dims[0], 0)
    for n, m in zip(dims, dims[1:]):
        proj, _ = quotient_maps(last.transpose())
        items = [(r, c, field.from_int(rng.randint(-3, 3))) for r in range(m) for c in range(proj.nrows) if rng.random() < 0.5]
        last = Matrix.from_entries(field, m, proj.nrows, items) @ proj
        maps.append(last)
    return maps


@pytest.mark.parametrize("field", [QQ, GF(7)], ids=["QQ", "GF7"])
def test_cohomology_dims_counts_the_kernel_columns_that_extend_the_image(field):
    rng = random.Random(20261021)
    nonzero = 0
    for _ in range(60):
        maps = _random_complex(field, rng)
        want = []
        for i, d in enumerate(maps):
            image = maps[i - 1] if i else Matrix.zeros(field, d.ncols, 0)
            assert (d @ image).is_zero()
            want.append(len(extend_to_basis(image, d.kernel_basis())))
        assert cohomology_dims(maps) == want
        assert cohomology_dims(iter(maps)) == want
        nonzero += any(want)
    assert nonzero
