"""Exact sparse linear algebra over the rationals and over prime fields.

Everything downstream (coalgebra validation, cobar ranks, coresolutions,
module Ext) reduces to rank / kernel / solve on sparse matrices whose entries
are exact field elements: over the rationals an ``int`` when integral and a
``fractions.Fraction`` otherwise, over GF(p) a Python int in ``[0, p)``.
Division goes through ``Fraction``, so no float appears anywhere.  Zero is
tested by truthiness, and the constructors coerce only values that are not
of a native element type (``Field.native``).

Rank builds its row dicts once, straight from the entries, along the
shorter side (rank is transpose-invariant).  It then peels, as structured
Gaussian elimination does first (LaMacchia-Odlyzko, CRYPTO 1990): a row
holding a column that no other row holds is independent, so it is counted
and dropped, found by column counts alone, until a pass drops nothing.  The
rows left go through destructive elimination, fraction-free over the
rationals (integer rows with gcd reduction; a row of ints is used as it is)
and modular over GF(p), with a Markowitz-style pivot rule: the pivot column
is the minimum of a heap of column counts, updated lazily (a popped entry
whose count went stale is pushed back with the current count), then the
sparsest row in that column, ties broken by row index.  The index column ->
rows changes only on fill-in and cancellation.  Kernel bases, solving and
reduced echelon forms share one reduced row echelon form in field
arithmetic, which keeps the same index so a pivot touches only the rows
holding its column.

The sparse products (``Matrix.__matmul__``, ``kron_identity_matmul``)
accumulate in plain ints: over the rationals each row of the left factor and
each column of the right factor is scaled to integers by the lcm of its
denominators, and each output entry is divided once; over GF(p) each sum is
reduced mod p once.  An all-int operand is used as it is, without a copy.
"""

from __future__ import annotations

import heapq
from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from itertools import chain
from math import gcd, lcm


class Field:
    """A coefficient field: the rationals or GF(p) for a prime p < 2**31.

    ``native`` holds the types whose every value already is an element, so
    constructors pass them through without ``coerce``: ``int`` and
    ``Fraction`` over the rationals, none over GF(p) (an int may need
    reducing mod p).
    """

    __slots__ = ("kind", "p", "native")

    zero = 0
    one = 1

    def __init__(self, kind, p=None):
        self.kind = kind
        self.p = p
        self.native = frozenset((int, Fraction)) if kind == "rationals" else frozenset()

    @staticmethod
    def rationals():
        return _QQ

    @staticmethod
    def prime(p):
        if not isinstance(p, int) or p < 2 or p >= 2**31:
            raise ValueError("prime field characteristic must be an int in [2, 2**31)")
        d = 2
        while d * d <= p:
            if p % d == 0:
                raise ValueError("%d is not prime" % p)
            d += 1
        return Field("prime", p)

    # -- scalar arithmetic ------------------------------------------------
    def add(self, a, b):
        return a + b if self.kind == "rationals" else (a + b) % self.p

    def sub(self, a, b):
        return a - b if self.kind == "rationals" else (a - b) % self.p

    def mul(self, a, b):
        return a * b if self.kind == "rationals" else (a * b) % self.p

    def neg(self, a):
        return -a if self.kind == "rationals" else (-a) % self.p

    def inv(self, a):
        if self.kind == "rationals":
            return _normal(Fraction(1, a))
        return pow(a, -1, self.p)

    def div(self, a, b):
        if self.kind == "rationals":
            return _normal(Fraction(a, b))
        return (a * pow(b, -1, self.p)) % self.p

    def from_int(self, n):
        return n if self.kind == "rationals" else n % self.p

    def coerce(self, v):
        """Coerce an int, Fraction or string into a field element."""
        if isinstance(v, bool):
            raise ValueError("booleans are not scalars")
        if isinstance(v, Fraction):
            if self.kind == "rationals":
                return _normal(v)
            return self.div(self.from_int(v.numerator), self.from_int(v.denominator))
        if isinstance(v, int):
            return self.from_int(int(v))
        if isinstance(v, str):
            if self.kind == "rationals":
                return _normal(Fraction(v))
            if "/" in v:
                num, den = v.split("/", 1)
                return self.div(self.from_int(int(num)), self.from_int(int(den)))
            return self.from_int(int(v))
        raise ValueError("cannot coerce scalar %r" % (v,))

    def format(self, x):
        """JSON-friendly form: int when possible, else "a/b"."""
        if self.kind == "rationals":
            return int(x) if x.denominator == 1 else str(x)
        return int(x)

    def characteristic(self):
        return 0 if self.kind == "rationals" else self.p

    def label(self):
        if self.kind == "rationals":
            return {"kind": "rationals"}
        return {"kind": "prime", "p": self.p}

    def __eq__(self, other):
        return isinstance(other, Field) and self.kind == other.kind and self.p == other.p

    def __hash__(self):
        return hash((self.kind, self.p))

    def __repr__(self):
        return "QQ" if self.kind == "rationals" else "GF(%d)" % self.p


def _normal(x):
    """A rational in normal form: its int when integral, else the Fraction."""
    return x.numerator if x.denominator == 1 else x


_QQ = Field("rationals")
QQ = _QQ


def GF(p):
    return Field.prime(p)


def field_from_label(label):
    kind = label.get("kind")
    if kind == "rationals":
        return QQ
    if kind == "prime":
        return GF(label["p"])
    raise ValueError("unknown field label %r" % (label,))


class Matrix:
    """Immutable sparse matrix: nonzero entries in a dict keyed by (row, col).

    Over QQ an entry is an ``int`` when integral and otherwise a
    ``Fraction``.  Products always store that form; the echelon form, sums,
    scaling and ``kron`` may leave an integral ``Fraction``, which is equal
    and hashes alike.  The constructors below store values that already
    are field elements as given and coerce only the others (strings, ints
    out of range over GF(p)); a bool is rejected.
    """

    __slots__ = ("field", "nrows", "ncols", "entries")

    def __init__(self, field, nrows, ncols, entries):
        self.field = field
        self.nrows = nrows
        self.ncols = ncols
        self.entries = entries  # owned; callers must not mutate

    # -- constructors ------------------------------------------------------
    @staticmethod
    def zeros(field, nrows, ncols):
        return Matrix(field, nrows, ncols, {})

    @staticmethod
    def identity(field, n):
        one = field.one
        return Matrix(field, n, n, {(i, i): one for i in range(n)})

    @staticmethod
    def from_entries(field, nrows, ncols, items):
        """items: iterable of (row, col, value); repeated keys accumulate."""
        native = field.native
        entries = {}
        for r, c, v in items:
            if not (0 <= r < nrows and 0 <= c < ncols):
                raise ValueError("entry (%d,%d) outside %dx%d" % (r, c, nrows, ncols))
            if type(v) not in native:
                v = field.coerce(v)
            key = (r, c)
            if key in entries:
                v = field.add(entries[key], v)
            if v:
                entries[key] = v
            else:
                entries.pop(key, None)
        return Matrix(field, nrows, ncols, entries)

    @staticmethod
    def from_rows(field, rows, ncols=None):
        nrows = len(rows)
        if ncols is None:
            ncols = len(rows[0]) if rows else 0
        native = field.native
        entries = {}
        for i, row in enumerate(rows):
            if len(row) != ncols:
                raise ValueError("ragged rows")
            for j, v in enumerate(row):
                if type(v) not in native:
                    v = field.coerce(v)
                if v:
                    entries[(i, j)] = v
        return Matrix(field, nrows, ncols, entries)

    @staticmethod
    def from_columns(field, cols, nrows=None):
        if nrows is None:
            nrows = len(cols[0]) if cols else 0
        native = field.native
        entries = {}
        for j, col in enumerate(cols):
            if len(col) != nrows:
                raise ValueError("ragged columns")
            for i, v in enumerate(col):
                if type(v) not in native:
                    v = field.coerce(v)
                if v:
                    entries[(i, j)] = v
        return Matrix(field, nrows, len(cols), entries)

    # -- basics --------------------------------------------------------------
    def nnz(self):
        return len(self.entries)

    def is_zero(self):
        return not self.entries

    def __eq__(self, other):
        return (
            isinstance(other, Matrix)
            and self.field == other.field
            and self.nrows == other.nrows
            and self.ncols == other.ncols
            and self.entries == other.entries
        )

    def __repr__(self):
        return "Matrix(%r, %dx%d, nnz=%d)" % (self.field, self.nrows, self.ncols, len(self.entries))

    def to_rows(self):
        zero = self.field.zero
        rows = [[zero] * self.ncols for _ in range(self.nrows)]
        for (i, j), v in self.entries.items():
            rows[i][j] = v
        return rows

    def transpose(self):
        return Matrix(self.field, self.ncols, self.nrows, {(j, i): v for (i, j), v in self.entries.items()})

    def __add__(self, other):
        self._check_shape(other)
        f = self.field
        entries = dict(self.entries)
        for key, v in other.entries.items():
            w = f.add(entries[key], v) if key in entries else v
            if w:
                entries[key] = w
            else:
                del entries[key]
        return Matrix(f, self.nrows, self.ncols, entries)

    def __neg__(self):
        f = self.field
        return Matrix(f, self.nrows, self.ncols, {k: f.neg(v) for k, v in self.entries.items()})

    def __sub__(self, other):
        return self + (-other)

    def scale(self, a):
        f = self.field
        a = f.coerce(a)
        if not a:
            return Matrix.zeros(f, self.nrows, self.ncols)
        return Matrix(f, self.nrows, self.ncols, {k: f.mul(a, v) for k, v in self.entries.items()})

    def _check_shape(self, other):
        if self.field != other.field or self.nrows != other.nrows or self.ncols != other.ncols:
            raise ValueError("shape or field mismatch")

    def __matmul__(self, other):
        if self.field != other.field or self.ncols != other.nrows:
            raise ValueError("cannot multiply %dx%d by %dx%d" % (self.nrows, self.ncols, other.nrows, other.ncols))
        f = self.field
        a, row_dens = _cleared(self.entries, 0)
        b, col_dens = _cleared(other.entries, 1)
        rows_b = {}
        for (i, j), v in b.items():
            rows_b.setdefault(i, []).append((j, v))
        acc = {}
        for (i, k), v in a.items():
            rb = rows_b.get(k)
            if rb is None:
                continue
            for j, w in rb:
                key = (i, j)
                if key in acc:
                    acc[key] += v * w
                else:
                    acc[key] = v * w
        return Matrix(f, self.nrows, other.ncols, _settled(f, acc, row_dens, col_dens))

    def apply(self, vec):
        """Matrix times a column vector (tuple/list of scalars)."""
        if len(vec) != self.ncols:
            raise ValueError("vector length mismatch")
        f = self.field
        out = [f.zero] * self.nrows
        for (i, j), v in self.entries.items():
            x = vec[j]
            if x:
                out[i] = f.add(out[i], f.mul(v, x))
        return tuple(out)

    def column(self, j):
        f = self.field
        out = [f.zero] * self.nrows
        for (i, jj), v in self.entries.items():
            if jj == j:
                out[i] = v
        return tuple(out)

    def column_dicts(self):
        """The columns as sparse dicts {row: value}."""
        cols = [{} for _ in range(self.ncols)]
        for (i, j), v in self.entries.items():
            cols[j][i] = v
        return cols

    def columns(self):
        f = self.field
        cols = [[f.zero] * self.nrows for _ in range(self.ncols)]
        for (i, j), v in self.entries.items():
            cols[j][i] = v
        return [tuple(c) for c in cols]

    @staticmethod
    def hstack(blocks):
        field = blocks[0].field
        nrows = blocks[0].nrows
        entries = {}
        off = 0
        for b in blocks:
            if b.field != field or b.nrows != nrows:
                raise ValueError("hstack mismatch")
            for (i, j), v in b.entries.items():
                entries[(i, j + off)] = v
            off += b.ncols
        return Matrix(field, nrows, off, entries)

    # -- kron, rank, kernel, solve --------------------------------------------
    def kron(self, other):
        if self.field != other.field:
            raise ValueError("field mismatch")
        f = self.field
        rb, cb = other.nrows, other.ncols
        entries = {}
        for (ia, ja), va in self.entries.items():
            base_r = ia * rb
            base_c = ja * cb
            for (ib, jb), vb in other.entries.items():
                entries[(base_r + ib, base_c + jb)] = f.mul(va, vb)
        return Matrix(f, self.nrows * rb, self.ncols * cb, entries)

    def rank(self):
        # Elimination keeps one work row per pivot; fewer rows is cheaper,
        # and rank is transpose-invariant.
        peeled, rows = _peel(_row_dicts(self) if self.nrows <= self.ncols else self.column_dicts())
        p = self.field.p
        if p is None:
            rows = [row if Fraction not in map(type, row.values()) else _coprime(row) for row in rows]
        return peeled + _rank_elim(rows, p)

    def rref(self):
        """Reduced row echelon form.

        Returns (pivot_cols, rows) where rows is a list of sparse dicts
        {col: value}, one per pivot, fully reduced, pivot value 1, ordered by
        pivot column.  Left-to-right column sweep; deterministic.
        """
        return _rref(self.field, _row_dicts(self), self.ncols)

    def kernel_matrix(self):
        """The kernel basis vectors (see kernel_basis) as the columns of a matrix.

        Free column j of the RREF gives the column with 1 at j and minus the
        j-th entry of each pivot row at that row's pivot.
        """
        f = self.field
        pivots, rows = self.rref()
        pivot_set = set(pivots)
        free = {j: k for k, j in enumerate(j for j in range(self.ncols) if j not in pivot_set)}
        entries = {(j, k): f.one for j, k in free.items()}
        for p, row in zip(pivots, rows):
            for j, v in row.items():
                if j != p:
                    entries[(p, free[j])] = f.neg(v)
        return Matrix(f, self.ncols, len(free), entries)

    def kernel_basis(self):
        """Basis of the right null space, canonical w.r.t. the RREF free columns."""
        return SubspaceBasis(self.field, self.ncols, tuple(self.kernel_matrix().columns()))

    def solve(self, b):
        """One solution x of self @ x = b, or None if inconsistent."""
        if len(b) != self.nrows:
            raise ValueError("rhs length mismatch")
        x = self.solve_columns(Matrix.from_columns(self.field, [b], self.nrows))
        return None if x is None else x.columns()[0]

    def solve_columns(self, rhs):
        """One solution x of self @ x = rhs for a matrix rhs, or None if a column is inconsistent.

        One reduced row echelon form of [self | rhs] carries every right-hand
        side at once.  Free variables are zero, and since that form is
        unique, each column of x is the one solving for that column alone
        would give.
        """
        n = self.ncols
        pivots, rows = Matrix.hstack([self, rhs]).rref()
        if pivots and pivots[-1] >= n:
            return None
        entries = {(p, c - n): v for p, row in zip(pivots, rows) for c, v in row.items() if c >= n}
        return Matrix(self.field, n, rhs.ncols, entries)


def rank(m):
    return m.rank()


def kernel_basis(m):
    return m.kernel_basis()


def solve(m, b):
    return m.solve(b)


def kronecker(a, b):
    return a.kron(b)


def kron_identity_matmul(a, b, y):
    """(a (x) b) @ y by index arithmetic, without building the Kronecker product.

    Exactly one of a, b is an int n standing for the n x n identity, the
    other a Matrix x; indices follow ``Matrix.kron``.  For I_n (x) x, row
    ``row`` of y meets column ``row % x.ncols`` of x in block ``row // x.ncols``;
    for x (x) I_n, it meets column ``row // n`` of x at offset ``row % n``.
    """
    if isinstance(a, int):
        x, n, step = b, a, 1
        bases = [k * x.nrows for k in range(n)]
        place = [(row % x.ncols, row // x.ncols * x.nrows) for row in range(y.nrows)]
    else:
        x, n, step = a, b, b
        bases = range(n)
        place = [(row // n, row % n) for row in range(y.nrows)]
    if x.field != y.field or n * x.ncols != y.nrows:
        raise ValueError("shape or field mismatch")
    xe, x_dens = _cleared(x.entries, 0)
    ye, col_dens = _cleared(y.entries, 1)
    # row r of x is row base + r * step of the product, for every base
    row_dens = {base + r * step: d for r, d in x_dens.items() for base in bases}
    cols = {}
    for (r, c), v in xe.items():
        cols.setdefault(c, []).append((r * step, v))
    acc = {}
    for (row, j), w in ye.items():
        c, base = place[row]
        for rs, v in cols.get(c, ()):
            key = (base + rs, j)
            if key in acc:
                acc[key] += v * w
            else:
                acc[key] = v * w
    return Matrix(x.field, n * x.nrows, y.ncols, _settled(x.field, acc, row_dens, col_dens))


def _cleared(entries, axis):
    """Integer entries: each row (axis 0) or column (axis 1) times the lcm of its denominators.

    Returns the entries and a dict {index: multiplier} naming every line
    that was scaled.  Entries that are all ints (always so over GF(p)) come
    back as the same dict, not a copy.
    """
    dens = {}
    for key, v in entries.items():
        if type(v) is not int:
            i = key[axis]
            d = dens.get(i, 1)
            dens[i] = d * v.denominator // gcd(d, v.denominator)
    if not dens:
        return entries, dens
    out = {}
    for key, v in entries.items():
        d = dens.get(key[axis])
        if d is None:
            out[key] = v
        elif type(v) is int:
            out[key] = v * d
        else:
            out[key] = v.numerator * (d // v.denominator)
    return out, dens


def _settled(field, acc, row_dens, col_dens):
    """The nonzero entries of a product accumulated in ints from ``_cleared`` operands.

    Over GF(p) each sum is reduced mod p once; over QQ it is divided once by
    its row and column multipliers, leaving an int when integral.
    """
    p = field.p
    out = {}
    if p is not None:
        for key, s in acc.items():
            s %= p
            if s:
                out[key] = s
    else:
        row_den, col_den = row_dens.get, col_dens.get
        for key, s in acc.items():
            if s:
                d = row_den(key[0], 1) * col_den(key[1], 1)
                if d == 1:
                    out[key] = s
                elif s % d:
                    out[key] = Fraction(s, d)
                else:
                    out[key] = s // d
    return out


def _row_dicts(m):
    rows = [dict() for _ in range(m.nrows)]
    for (i, j), v in m.entries.items():
        rows[i][j] = v
    return rows


def _rref(field, rows, width):
    """In-place reduced echelon on a list of sparse row dicts.

    Pivot columns are chosen left to right; within a column the row with the
    fewest nonzeros wins, ties by row index.  An index column -> rows holding
    it, kept current through fill-in and cancellation, limits each pivot to
    the rows it changes, pivot rows included.
    """
    f = field
    col_rows = {}
    for i, row in enumerate(rows):
        for c in row:
            col_rows.setdefault(c, set()).add(i)
    pivots = []
    pivot_idx = []
    done = set()
    for col in range(width):
        holders = col_rows.get(col)
        if not holders:
            continue
        best = min((i for i in holders if i not in done), key=lambda i: (len(rows[i]), i), default=None)
        if best is None:
            continue
        done.add(best)
        prow = rows[best]
        inv = f.inv(prow[col])
        if inv != f.one:
            prow = rows[best] = {c: f.mul(inv, v) for c, v in prow.items()}
        for idx in [i for i in holders if i != best]:
            _row_axpy(f, rows[idx], prow, col, col_rows, idx)
        pivots.append(col)
        pivot_idx.append(best)
    return pivots, [rows[i] for i in pivot_idx]


def _row_axpy(f, row, prow, col, col_rows=None, idx=None):
    """row -= row[col] * prow, where prow has pivot value 1 at col.

    Given ``col_rows``, the index column -> rows is updated for row ``idx``.
    """
    a = row.get(col)
    if a is None:
        return
    p = f.p
    for c, v in prow.items():
        old = row.get(c)
        w = -a * v if old is None else old - a * v
        if p is not None:
            w %= p
        if w:
            row[c] = w
            if old is None and col_rows is not None:
                col_rows.setdefault(c, set()).add(idx)
        else:
            del row[c]
            if col_rows is not None:
                col_rows[c].discard(idx)


def _peel(rows):
    """Count and drop the rows that hold a column no other row holds.

    Such rows are independent: each holds its own private column, which
    every other row lacks, so each adds 1 to the rank.  Column counts alone
    find them.  Dropping rows can leave a column private to another row, so
    passes repeat until one drops nothing.  Returns the count and the rows
    left, empty rows dropped.
    """
    rows = [row for row in rows if row]
    peeled = 0
    while True:
        counts = Counter(chain.from_iterable(rows)).__getitem__
        left = [row for row in rows if 1 not in map(counts, row)]
        if len(left) == len(rows):
            return peeled, rows
        peeled += len(rows) - len(left)
        rows = left


def _coprime(row):
    """A row of rationals scaled to coprime integers, which keeps its span."""
    den = lcm(*(v.denominator for v in row.values()))
    row = {c: v.numerator * (den // v.denominator) for c, v in row.items()}
    g = gcd(*row.values())
    return {c: v // g for c, v in row.items()} if g > 1 else row


def _rank_elim(rows, p):
    """Rank of integer rows (dicts col -> value) by Markowitz-style elimination.

    Over GF(p) the arithmetic is mod p.  Over QQ (``p`` None) it is fraction
    free: a row is cross-multiplied by the pivot and then divided by the gcd
    of its entries.  An index column -> rows is kept current through fill-in
    and cancellation.  The pivot column is the minimum of a heap of column
    counts; every live column keeps exactly one heap entry, re-pushed with
    its current count when popped stale, so no column is dropped unpivoted.
    The pivot row is the sparsest holding that column, ties by index, and a
    column held by one row retires that row without a search.
    """
    col_rows = {}
    for i, row in enumerate(rows):
        for c in row:
            if c in col_rows:
                col_rows[c].add(i)
            else:
                col_rows[c] = {i}
    heap = [(len(s), c) for c, s in col_rows.items()]
    heapq.heapify(heap)
    rank_ = 0
    while heap:
        cnt, col = heapq.heappop(heap)
        s = col_rows[col]
        if len(s) != cnt:
            if s:
                heapq.heappush(heap, (len(s), col))
            continue
        rank_ += 1
        piv = next(iter(s)) if cnt == 1 else min(s, key=lambda i: (len(rows[i]), i))
        prow = rows[piv]
        rows[piv] = None
        for c in prow:
            col_rows[c].discard(piv)
        if not s:
            continue
        pv = prow.pop(col)
        if p is not None:
            inv = pow(pv, -1, p)
            prow, pv = {c: v * inv % p for c, v in prow.items()}, 1
        for i in s:
            row = rows[i]
            a = row.pop(col)
            if pv != 1:
                g = gcd(a, pv)
                a //= g
                if pv != g:
                    for c in row:
                        row[c] *= pv // g
            for c, v in prow.items():
                w = row.get(c)
                if w is None:
                    w = -a * v
                    col_rows[c].add(i)
                else:
                    w -= a * v
                if p is not None:
                    w %= p
                if w:
                    row[c] = w
                else:
                    del row[c]
                    col_rows[c].discard(i)
            if p is None and row:
                g = gcd(*row.values())
                if g > 1:
                    for c in row:
                        row[c] //= g
        s.clear()
    return rank_


@dataclass(frozen=True)
class SubspaceBasis:
    """Spanning vectors of a subspace of field^ambient_dim.

    Vectors are stored as given; ``canonical()`` re-expresses the subspace by
    its reduced echelon basis, so subspace equality is data equality of the
    canonical forms (and ``__eq__`` compares exactly that).
    """

    field: Field
    ambient_dim: int
    vectors: tuple

    def __post_init__(self):
        for v in self.vectors:
            if len(v) != self.ambient_dim:
                raise ValueError("vector length != ambient_dim")

    @property
    def dim(self):
        if not self.vectors:
            return 0
        return Matrix.from_rows(self.field, [list(v) for v in self.vectors], self.ambient_dim).rank()

    def matrix_with_vector_columns(self):
        return Matrix.from_columns(self.field, [list(v) for v in self.vectors], self.ambient_dim)

    def canonical(self):
        if not self.vectors:
            return SubspaceBasis(self.field, self.ambient_dim, ())
        m = Matrix.from_rows(self.field, [list(v) for v in self.vectors], self.ambient_dim)
        pivots, rows = m.rref()
        zero = self.field.zero
        vecs = []
        for row in rows:
            v = [zero] * self.ambient_dim
            for c, x in row.items():
                v[c] = x
            vecs.append(tuple(v))
        return SubspaceBasis(self.field, self.ambient_dim, tuple(vecs))

    def contains(self, vec):
        if len(vec) != self.ambient_dim:
            raise ValueError("vector length != ambient_dim")
        if not self.vectors:
            return all(x == self.field.zero for x in vec)
        return self.matrix_with_vector_columns().solve(tuple(vec)) is not None

    def __eq__(self, other):
        if not isinstance(other, SubspaceBasis):
            return NotImplemented
        if self.field != other.field or self.ambient_dim != other.ambient_dim:
            return False
        return self.canonical().vectors == other.canonical().vectors


def quotient_maps(sub):
    """Projection/section pair for ambient / span(sub).

    Returns (proj, section): proj is a (q x n) matrix whose kernel is exactly
    the subspace; section is an (n x q) right inverse of proj picking the free
    coordinates of the subspace's RREF as quotient representatives.
    """
    f = sub.field
    n = sub.ambient_dim
    if not sub.vectors:
        eye = Matrix.identity(f, n)
        return eye, eye
    m = Matrix.from_rows(f, [list(v) for v in sub.vectors], n)
    pivots, rows = m.rref()
    pivot_set = set(pivots)
    free = [j for j in range(n) if j not in pivot_set]
    proj_entries = {}
    for qi, fc in enumerate(free):
        proj_entries[(qi, fc)] = f.one
        for p, row in zip(pivots, rows):
            v = row.get(fc)
            if v is not None:
                proj_entries[(qi, p)] = f.neg(v)
    proj = Matrix(f, len(free), n, proj_entries)
    section = Matrix(f, n, len(free), {(fc, qi): f.one for qi, fc in enumerate(free)})
    return proj, section


def extend_to_basis(field, ambient, base_vectors, candidates):
    """Greedily pick candidates extending span(base_vectors) within ambient.

    A vector is a dense sequence or a sparse dict {index: value}, as given
    by ``Matrix.column_dicts``.  Returns indices (in order) of the
    candidates that enlarge the span.  Deterministic.  The span is an RREF
    keyed by pivot, with an index column -> pivots of the rows holding it;
    since RREF rows vanish at every other pivot, a candidate is reduced only
    by the pivots it holds, and a new pivot clears only the rows holding it.
    """
    red = dict(zip(*_rref(field, [_sparse(v) for v in base_vectors], ambient)))
    col_rows = {}
    for p, r in red.items():
        for c in r:
            col_rows.setdefault(c, set()).add(p)
    chosen = []
    for idx, cand in enumerate(candidates):
        row = _sparse(cand)
        for p in [c for c in row if c in red]:
            _row_axpy(field, row, red[p], p)
        if not row:
            continue
        col = min(row)
        inv = field.inv(row[col])
        if inv != field.one:
            row = {c: field.mul(inv, v) for c, v in row.items()}
        for p in list(col_rows.get(col, ())):
            _row_axpy(field, red[p], row, col, col_rows, p)
        red[col] = row
        for c in row:
            col_rows.setdefault(c, set()).add(col)
        chosen.append(idx)
    return chosen


def _sparse(vec):
    """A fresh sparse dict {index: value} of a dense sequence or a sparse dict."""
    if isinstance(vec, dict):
        return dict(vec)
    return {j: x for j, x in enumerate(vec) if x}
