"""Exact sparse linear algebra over the rationals and over prime fields.

Everything downstream (coalgebra validation, cobar ranks, coresolutions,
module Ext) reduces to rank / kernel / solve on sparse matrices whose entries
are exact field elements: over the rationals an ``int`` when integral and a
``fractions.Fraction`` otherwise, over GF(p) a Python int in ``[0, p)``.
Division goes through ``Fraction``, so no float appears anywhere.  Zero is
tested by truthiness, and the constructors coerce only values that are not
of a native element type (``Field.native``).

Rank builds its row dicts once, straight from the entries, along the
shorter side (rank is transpose-invariant), and then runs three stages.
First it peels, as structured Gaussian elimination does first
(LaMacchia-Odlyzko, CRYPTO 1990): a row holding a column that no other row
holds is independent, so it is counted and dropped, found by column counts
alone, until a pass drops nothing.  Second, when every column left sits in
exactly two rows, the rows are the vertices of a gain graph whose edges are
the columns, and its rank is the number of rows minus the number of
balanced components (Zaslavsky, "Biased graphs I", J. Combin. Theory B
1989), found by one walk that reads the rows and changes none.  Otherwise
the rows left go through destructive elimination, fraction-free over the
rationals (integer rows with gcd reduction; a row of ints is used as it is)
and modular over GF(p), with a Markowitz-style pivot rule: the pivot column
is the minimum of a heap of column counts, updated lazily (a popped entry
whose count went stale is pushed back with the current count), then the
sparsest row in that column, ties broken by row index.  The index column ->
rows changes only on fill-in and cancellation.  The same elimination can
delete given columns first and report the pivot rows and columns of a
nonsingular maximal minor, which is how a chain complex's ranks are cleared
and its d^2 = 0 checked (see ``Matrix.rank`` and ``Matrix.annihilates``).  A
``ColumnMatrix`` is stored as its columns: rank eliminates a tall one's
columns without rebuilding them, and ``entries`` is built only when read.
Kernel bases, solving, quotient maps and basis extension share one reduced
row echelon form with the same integer arithmetic (after Bareiss, Math.
Comp. 1968) and index; it divides each row by its pivot only when the rows
are returned.

Every span is a sparse matrix, its row space or its column space:
``kernel_basis`` hands a kernel back as the columns of a matrix,
``quotient_maps`` takes a subspace as the row space of a matrix, and
``extend_to_basis`` takes vectors as the columns of matrices.  Two spans are
compared by rank: A and B span the same row space when both have the rank
of A stacked on B.

The sparse products (``Matrix.__matmul__``, ``kron_identity_matmul``)
accumulate in plain ints: over the rationals each row of the left factor and
each column of the right factor is scaled to integers by the lcm of its
denominators, and each output entry is divided once; over GF(p) each sum is
reduced mod p once.  An all-int operand is used as it is, without a copy.
"""

from __future__ import annotations

import heapq
from collections import Counter
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


def _is_prime(n):
    """Deterministic Miller-Rabin: the bases 2, 7 and 61 decide every n < 4,759,123,141."""
    if n < 2:
        return False
    for a in (2, 7, 61):
        if n % a == 0:
            return n == a
    d, s = n - 1, 0
    while not d & 1:
        d >>= 1
        s += 1
    for a in (2, 7, 61):
        x = pow(a, d, n)
        if x == 1 or x == n - 1:
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def _normal(x):
    """A rational in normal form: its int when integral, else the Fraction."""
    return x.numerator if x.denominator == 1 else x


QQ = Field("rationals")


def GF(p):
    if not isinstance(p, int) or p < 2 or p >= 2**31:
        raise ValueError("prime field characteristic must be an int in [2, 2**31)")
    if not _is_prime(p):
        raise ValueError("%d is not prime" % p)
    return Field("prime", p)


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
    ``Fraction``.  Products and the echelon form always store that form;
    sums and ``kron`` may leave an integral ``Fraction``, which is
    equal and hashes alike.  The constructors below store values that already
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
        """items: iterable of (row, col, value); repeated keys accumulate.

        The one coercing constructor: ``from_rows`` and ``from_columns`` go through it.
        """
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
        if ncols is None:
            ncols = len(rows[0]) if rows else 0
        if any(len(row) != ncols for row in rows):
            raise ValueError("ragged rows")
        items = ((i, j, v) for i, row in enumerate(rows) for j, v in enumerate(row))
        return Matrix.from_entries(field, len(rows), ncols, items)

    @staticmethod
    def from_columns(field, cols, nrows=None):
        if nrows is None:
            nrows = len(cols[0]) if cols else 0
        if any(len(col) != nrows for col in cols):
            raise ValueError("ragged columns")
        items = ((i, j, v) for j, col in enumerate(cols) for i, v in enumerate(col))
        return Matrix.from_entries(field, nrows, len(cols), items)

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

    def rank(self, cleared=(), pivots=False):
        """Rank of the matrix with the columns in ``cleared`` deleted.

        Three stages, each on the lines (rows, or the columns of a tall
        matrix) the one before leaves: the peel counts the lines that hold
        an index no other line holds (LaMacchia-Odlyzko, CRYPTO 1990); when
        every index left sits in exactly two lines, ``_rank_two_line``
        counts the rest by the balance of a gain graph (Zaslavsky, "Biased
        graphs I", J. Combin. Theory B 1989); otherwise Markowitz
        elimination does.

        With ``pivots`` the result is the triple (rank, rows, cols): the row
        and column indices of a nonsingular square submatrix of that size,
        so the columns ``cols`` are independent and span the column space.
        Each stage pairs pivot lines with pivot indices (a peeled line with
        one of its private indices, a graph's line with an edge it holds,
        an elimination's pivot), and those pairs index a block triangular
        form of that submatrix whose diagonal blocks are nonsingular.

        Clearing (Chen-Kerber, "Persistent homology computation with a
        twist", EuroCG 2011): if ``self @ a`` is zero and ``cleared`` holds
        the pivot rows of ``a``, the coordinates outside ``cleared`` span a
        complement of the image of ``a``, so the cleared rank is the rank.
        """
        # Elimination keeps one work line per pivot; fewer lines is cheaper,
        # and rank is transpose-invariant.  A tall matrix eliminates its
        # columns, so its pivot rows are the elimination's pivot indices.
        tall = self.nrows > self.ncols - len(cleared)
        lines, shared = self._lines(tall)
        if cleared and tall:
            lines = [{} if j in cleared else col for j, col in enumerate(lines)]
        elif cleared:
            lines = [{c: v for c, v in row.items() if c not in cleared} for row in lines]
        found = [] if pivots else None
        peeled, left = _peel(lines, found)
        elim = [] if pivots else None
        rest = _rank_two_line(left, self.field.p, elim) if left else 0
        if rest is None:
            # the elimination changes its lines and their list in place; a shared line is copied first
            rest = _rank_elim([dict(line) for line in left] if shared else list(left), self.field.p, elim)
        rank_ = peeled + rest
        if not pivots:
            return rank_
        # a pivot names its line by id; every line is alive here
        at = {id(line): k for k, line in enumerate(lines)}
        found += [(id(left[k]), c) for k, c in elim]
        by_line = {at[line] for line, _ in found}
        by_index = {c for _, c in found}
        return (rank_, by_index, by_line) if tall else (rank_, by_line, by_index)

    def _lines(self, tall):
        """The columns if ``tall``, else the rows, as dicts, and whether they are shared with the matrix.

        Here they are fresh, so rank may change them.
        """
        return (self.column_dicts() if tall else _row_dicts(self)), False

    def annihilates(self, vectors):
        """Whether ``self @ v`` is zero for every v in ``vectors``, each a sparse column {index: value}.

        Over QQ the sums are exact; over GF(p) each is reduced mod p once.
        """
        cols = self._lines(True)[0]  # only read
        p = self.field.p
        for vec in vectors:
            acc = {}
            for k, x in vec.items():
                for r, y in cols[k].items():
                    if r in acc:
                        acc[r] += x * y
                    else:
                        acc[r] = x * y
            if any(s % p for s in acc.values()) if p else any(acc.values()):
                return False
        return True

    def rref(self):
        """Reduced row echelon form.

        Returns (pivot_cols, rows) where rows is a list of sparse dicts
        {col: value}, one per pivot, fully reduced, pivot value 1, ordered by
        pivot column; over QQ an entry is an ``int`` when integral.
        Left-to-right column sweep; deterministic.
        """
        return _rref(_row_dicts(self), self.field.p)

    def _free_and_kernel(self):
        """The free columns of the RREF, in order, and the kernel matrix.

        Free column j of the RREF gives the kernel column with 1 at j and
        minus the j-th entry of each pivot row at that row's pivot.
        """
        f = self.field
        pivots, rows = self.rref()
        pivot_set = set(pivots)
        free = [j for j in range(self.ncols) if j not in pivot_set]
        where = {j: k for k, j in enumerate(free)}
        entries = {(j, k): f.one for j, k in where.items()}
        for p, row in zip(pivots, rows):
            for j, v in row.items():
                if j != p:
                    entries[(p, where[j])] = f.neg(v)
        return free, Matrix(f, self.ncols, len(free), entries)

    def kernel_basis(self):
        """Basis of the right null space as the columns of a matrix, canonical w.r.t. the RREF free columns."""
        return self._free_and_kernel()[1]

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


class ColumnMatrix(Matrix):
    """A matrix stored as its columns, dicts {row: value} of nonzero field elements.

    ``entries`` is built from the columns on first read and kept, so a
    consumer that never reads it (rank, ``annihilates``, ``nnz``) never
    pays for it.  Rank eliminates a tall one's columns directly and copies
    only those left after the peel, which elimination changes; the columns
    are owned, and callers must not mutate them.
    """

    __slots__ = ("cols", "_entries")

    def __init__(self, field, nrows, cols):
        self.field = field
        self.nrows = nrows
        self.ncols = len(cols)
        self.cols = cols
        self._entries = None

    @property
    def entries(self):
        if self._entries is None:
            self._entries = {(i, j): v for j, col in enumerate(self.cols) for i, v in col.items()}
        return self._entries

    def nnz(self):
        return sum(map(len, self.cols))

    def _lines(self, tall):
        if tall:
            return self.cols, True
        rows = [{} for _ in range(self.nrows)]
        for j, col in enumerate(self.cols):
            for i, v in col.items():
                rows[i][j] = v
        return rows, False


def kron_identity_matmul(a, b, y):
    """(a (x) b) @ y by index arithmetic, without building the Kronecker product.

    Exactly one of a, b is an int n standing for the n x n identity, the
    other a Matrix x; indices follow ``Matrix.kron``.  For I_n (x) x, row
    ``row`` of y meets column ``row % x.ncols`` of x in block ``row // x.ncols``;
    for x (x) I_n, it meets column ``row // n`` of x at offset ``row % n``.
    The place is computed per entry of y, so a tall sparse y costs its
    entries, not its rows.
    """
    left = isinstance(a, int)
    if left:
        x, n, step = b, a, 1
        bases = [k * x.nrows for k in range(n)]
    else:
        x, n, step = a, b, b
        bases = range(n)
    if x.field != y.field or n * x.ncols != y.nrows:
        raise ValueError("shape or field mismatch")
    xe, x_dens = _cleared(x.entries, 0)
    ye, col_dens = _cleared(y.entries, 1)
    # row r of x is row base + r * step of the product, for every base
    row_dens = {base + r * step: d for r, d in x_dens.items() for base in bases}
    cols = {}
    for (r, c), v in xe.items():
        cols.setdefault(c, []).append((r * step, v))
    xr, xc = x.nrows, x.ncols
    acc = {}
    for (row, j), w in ye.items():
        if left:
            base, c = divmod(row, xc)
            base *= xr
        else:
            c, base = divmod(row, n)
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


def _rref(rows, p):
    """Reduced row echelon form of rows (dicts col -> value) over QQ (``p`` None) or GF(p).

    Returns (pivot_cols, rows), one row per pivot, ordered by pivot column,
    with pivot value 1: each row of ``_echelon`` divided by its pivot once.
    Over QQ an entry is an ``int`` where that division is exact.
    """
    pivots, rows = _echelon(rows, p)
    for k, (col, row) in enumerate(zip(pivots, rows)):
        pv = row[col]
        if p is not None:
            inv = pow(pv, -1, p)
            rows[k] = {c: v * inv % p for c, v in row.items()}
        elif pv != 1:
            rows[k] = {c: v // pv if v % pv == 0 else Fraction(v, pv) for c, v in row.items()}
    return pivots, rows


def _echelon(rows, p):
    """Pivot columns and rows of the reduced echelon form, each row a multiple of the reduced one.

    Pivot columns are chosen left to right; within a column the row with the
    fewest nonzeros wins, ties by row index, so scaling rows changes no
    choice.  The index column -> rows limits each pivot to the rows it
    changes, pivot rows included.  The dicts of ``rows`` may be changed in
    place.
    """
    rows, col_rows = _indexed(rows, p)
    pivots, order, done = [], [], set()
    # fill-in only brings in columns of a pivot row, so no column appears later
    for col in sorted(col_rows):
        holders = col_rows[col]
        piv = min((i for i in holders if i not in done), key=lambda i: (len(rows[i]), i), default=None)
        if piv is None:
            continue
        done.add(piv)
        rest = [(c, v) for c, v in rows[piv].items() if c != col]
        _eliminate(rows, (i for i in holders if i != piv), col, rows[piv][col], rest, p, col_rows)
        pivots.append(col)
        order.append(piv)
    return pivots, [rows[i] for i in order]


def _peel(rows, pivots=None):
    """Count and drop the rows that hold a column no other row holds.

    Such rows are independent: each holds its own private column, which
    every other row lacks, so each adds 1 to the rank.  Column counts alone
    find them.  Dropping rows can leave a column private to another row, so
    passes repeat until one drops nothing.  Returns the count and the rows
    left, empty rows dropped.  With a list ``pivots``, each dropped row
    appends the pair (id of the row, one of its private columns).
    """
    rows = [row for row in rows if row]
    peeled = 0
    while rows:
        counts = Counter(chain.from_iterable(rows)).__getitem__
        left = [row for row in rows if 1 not in map(counts, row)]
        if len(left) == len(rows):
            break
        peeled += len(rows) - len(left)
        if pivots is not None:
            pivots += [(id(row), min(row, key=counts)) for row in rows if 1 in map(counts, row)]
        rows = left
    return peeled, rows


def _rank_two_line(rows, p, pivots=None):
    """Rank of the rows ``_peel`` leaves when each of their columns sits in exactly two of them, else None.

    The rows are then the vertices of a gain graph, and a column holding a
    in row u and b in row v is an edge.  A left kernel vector is a set of
    potentials with l_u a + l_v b = 0 on every edge, so each connected
    component adds one kernel dimension when it is balanced, that is when
    such potentials exist, and none otherwise (Zaslavsky, "Biased graphs
    I", J. Combin. Theory B 1989).  A walk from each component's root sets
    the potentials along a spanning tree as pairs (num, den), reduced mod p
    over GF(p), which needs no inverse, and by their gcd over QQ, where a
    row holding a ``Fraction`` is first scaled to integers, which changes
    neither rank nor balance.  Every other edge is checked once, against a
    row whose edges are all read.  The rows are only read.

    With a list ``pivots``, each row but a root appends (its index, the edge
    that reached it), and the root of an unbalanced component appends
    (its index, the first edge that failed): the pairs are triangular on
    the tree, and the failed edge closes a cycle whose gains do not
    cancel, so they index a nonsingular minor.
    """
    last = {}  # column -> the last row holding it
    for u, row in enumerate(rows):
        last.update(dict.fromkeys(row, u))
    # no column is private after the peel, so each sits in two rows iff there are twice as many entries
    if sum(map(len, rows)) != 2 * len(last):
        return None
    first = {}
    for u in range(len(rows) - 1, -1, -1):
        first.update(dict.fromkeys(rows[u], u))
    if p is None:
        rows = _integral(rows)
    potential = [None] * len(rows)  # (num, den, the edge from the parent)
    done = bytearray(len(rows))  # whose edges are all read
    rank_ = len(rows)
    for root, seen in enumerate(potential):
        if seen is not None:
            continue
        potential[root] = (1, 1, None)
        stack, failed = [root], None
        while stack:
            u = stack.pop()
            done[u] = 1
            n, d, via = potential[u]
            for c, a in rows[u].items():
                v = last[c]
                if v == u:
                    v = first[c]
                pv = potential[v]
                if pv is None:
                    b = rows[v][c]
                    if p:
                        potential[v] = (-n * a % p, d * b % p, c)
                    else:
                        g = gcd(n * a, d * b)
                        potential[v] = (-n * a // g, d * b // g, c)
                    stack.append(v)
                    if pivots is not None:
                        pivots.append((v, c))
                elif failed is None and done[v] and c != via:
                    s = n * a * pv[1] + pv[0] * rows[v][c] * d
                    if s % p if p else s:
                        failed = c
        if failed is None:
            rank_ -= 1
        elif pivots is not None:
            pivots.append((root, failed))
    return rank_


def _coprime(row):
    """A row of rationals scaled to coprime integers, which keeps its span."""
    den = lcm(*(v.denominator for v in row.values()))
    row = {c: v.numerator * (den // v.denominator) for c, v in row.items()}
    g = gcd(*row.values())
    return {c: v // g for c, v in row.items()} if g > 1 else row


def _integral(rows):
    """Rows of rationals, each holding a ``Fraction`` scaled to coprime integers by ``_coprime``."""
    return [row if Fraction not in map(type, row.values()) else _coprime(row) for row in rows]


def _rank_elim(rows, p, pivots=None):
    """Rank of rows (dicts col -> value) by Markowitz-style elimination (see ``_eliminate``).

    The pivot column is the minimum of a heap of column counts; every live
    column keeps exactly one heap entry, re-pushed with its current count
    when popped stale, so no column is dropped unpivoted.  The pivot row is
    the sparsest holding that column, ties by index, and a column held by
    one row retires that row without a search.  With a list ``pivots``,
    each pivot appends the pair (index of the row in ``rows``, column).
    The list ``rows`` and its dicts may be changed in place.
    """
    rows, col_rows = _indexed(rows, p)
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
        if pivots is not None:
            pivots.append((piv, col))
        prow = rows[piv]
        rows[piv] = None
        for c in prow:
            col_rows[c].discard(piv)
        if s:
            _eliminate(rows, s, col, prow.pop(col), prow.items(), p, col_rows)
            s.clear()
    return rank_


def _indexed(rows, p):
    """The rows made integral over QQ (``p`` None) by ``_integral``, and the index column -> rows."""
    if p is None:
        rows = _integral(rows)
    col_rows = {}
    for i, row in enumerate(rows):
        for c in row:
            if c in col_rows:
                col_rows[c].add(i)
            else:
                col_rows[c] = {i}
    return rows, col_rows


def _eliminate(rows, targets, col, pv, rest, p, col_rows):
    """Clear column ``col`` from the integer rows ``rows[i]``, i in ``targets``.

    The pivot row holds ``pv`` at ``col`` and the pairs (c, v) of ``rest``.
    Over GF(p) it is scaled by the inverse of pv once and updates are reduced
    mod p.  Over QQ (``p`` None) a row is cross-multiplied with pv, then
    divided by the gcd of its entries.  ``col_rows`` follows the fill-in and
    cancellation outside ``col``.
    """
    if p is not None and pv != 1:
        inv = pow(pv, -1, p)
        rest, pv = [(c, v * inv % p) for c, v in rest], 1
    for i in targets:
        row = rows[i]
        a = row.pop(col)
        if pv != 1:
            g = gcd(a, pv)
            a //= g
            if pv != g:
                for c in row:
                    row[c] *= pv // g
        for c, v in rest:
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


def quotient_maps(span):
    """Projection/section pair for field^n / (row space of ``span``), n = span.ncols.

    Returns (proj, section): proj is a (q x n) matrix whose kernel is exactly
    the row space, namely the transposed kernel matrix of ``span`` (the
    orthogonal complement of a null space is the row space); section is an
    (n x q) right inverse of proj picking the free columns of the RREF of
    ``span`` as quotient representatives.  A span without nonzero rows gives
    the identity pair.
    """
    f = span.field
    free, kernel = span._free_and_kernel()
    return kernel.transpose(), Matrix(f, span.ncols, len(free), {(j, k): f.one for k, j in enumerate(free)})


def cohomology_dims(maps):
    """dim H^i of the complex whose map out of term i is ``maps[i]``, term i of dimension ``maps[i].ncols``.

    H^i is the kernel of maps[i] modulo the image of maps[i - 1], so its
    dimension is maps[i].ncols less both ranks.  ``maps`` may be any
    iterable; each map is ranked once, in order.
    """
    dims, before = [], 0
    for m in maps:
        r = m.rank()
        dims.append(m.ncols - r - before)
        before = r
    return dims


def extend_to_basis(base, candidates):
    """Greedily pick the columns of ``candidates`` that enlarge the column span of ``base``.

    Returns the indices, in order, of the candidate columns outside the span
    of ``base`` and of the candidates before them.  These are the pivot
    columns past the base in one RREF of [base | candidates], since a column
    is a pivot exactly when it is outside the span of the columns before it.
    Deterministic.
    """
    k = base.ncols
    stacked = Matrix.hstack([base, candidates])
    pivots, _ = _echelon(_row_dicts(stacked), base.field.p)
    return [p - k for p in pivots if p >= k]
