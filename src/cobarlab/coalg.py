"""Conilpotent coaugmented coalgebras and their comodules, finite or graded.

A finite coalgebra is presented by structure constants on a chosen basis: the
comultiplication sends basis vector e_t to a list of triples (i, j, v) meaning
v * e_i (x) e_j, the counit is a plain vector, and one basis index is the
grouplike image of the coaugmentation.  Graded coalgebras are presented by
per-bidegree comultiplication components Delta_{p,q}: C_j -> C_p (x) C_q for
p + q = j, with C_0 one-dimensional spanned by the grouplike.

Tensor index convention everywhere: the basis vector e_i (x) e_j of C (x) C'
has flat index i * dim(C') + j, matching Matrix.kron.
"""

from __future__ import annotations

from cobarlab.exactlin import Matrix, kron_identity_matmul, quotient_maps


class UnsupportedCharacteristic(ValueError):
    pass


def swap_matrix(field, a, b):
    """The factor swap X (x) Y -> Y (x) X for dim X = a, dim Y = b."""
    one = field.one
    return Matrix(field, a * b, a * b, {(y * a + x, x * b + y): one for x in range(a) for y in range(b)})


class ValidationReport:
    __slots__ = ("flags", "notes")

    REQUIRED = ("coassociative", "counital", "coaugmented", "conilpotent")

    def __init__(self, flags, notes=None):
        self.flags = flags
        self.notes = {} if notes is None else notes

    @property
    def ok(self):
        return not self.failed

    @property
    def failed(self):
        """The required flags that do not hold, in ``REQUIRED`` order."""
        return [name for name in self.REQUIRED if not self.flags.get(name, False)]

    @property
    def reasons(self):
        """The failed flags, each followed by its note in parentheses when it has one, joined by "; "."""
        return "; ".join("%s (%s)" % (name, self.notes[name]) if name in self.notes else name for name in self.failed)

    def to_json(self):
        return {"flags": dict(sorted(self.flags.items())), "notes": dict(sorted(self.notes.items())), "ok": self.ok}


def _normal_triples(field, rows, idim, jdim, what):
    """Structure constants as one sorted tuple of triples (i, j, v) per basis index.

    Values are coerced into ``field``; repeated (i, j) accumulate and zero
    sums drop.  An index outside [0, idim) x [0, jdim) raises a ValueError
    naming ``what`` and the basis index.
    """
    out = []
    for t, triples in enumerate(rows):
        seen = {}
        for i, j, v in triples:
            if not (0 <= i < idim and 0 <= j < jdim):
                raise ValueError("%s index out of range at basis %d" % (what, t))
            v = field.coerce(v)
            key = (i, j)
            if key in seen:
                v = field.add(seen[key], v)
            if v:
                seen[key] = v
            else:
                seen.pop(key, None)
        out.append(tuple((i, j, v) for (i, j), v in sorted(seen.items())))
    return tuple(out)


class Coalgebra:
    """Finite-dimensional coalgebra with a distinguished grouplike basis index.

    ``degrees`` is optional metadata (one nonnegative int per basis index) kept
    by ``flatten``; when present and respected by the structure constants it
    lets downstream complexes split by internal degree.
    """

    __slots__ = ("field", "dim", "grouplike_index", "counit", "comul", "degrees")

    def __init__(self, field, dim, grouplike_index, counit, comul, degrees=None):
        if dim < 1:
            raise ValueError("coalgebra dimension must be >= 1")
        if not (0 <= grouplike_index < dim):
            raise ValueError("grouplike index out of range")
        if len(counit) != dim:
            raise ValueError("counit length != dim")
        if len(comul) != dim:
            raise ValueError("comultiplication must list one entry per basis index")
        self.field = field
        self.dim = dim
        self.grouplike_index = grouplike_index
        self.counit = tuple(field.coerce(v) for v in counit)
        self.comul = _normal_triples(field, comul, dim, dim, "comultiplication")
        if degrees is not None:
            degrees = tuple(int(d) for d in degrees)
            if len(degrees) != dim:
                raise ValueError("degrees length != dim")
        self.degrees = degrees

    def comul_matrix(self):
        n = self.dim
        items = []
        for t, triples in enumerate(self.comul):
            for i, j, v in triples:
                items.append((i * n + j, t, v))
        return Matrix.from_entries(self.field, n * n, n, items)

    def counit_matrix(self):
        return Matrix.from_entries(self.field, 1, self.dim, [(0, t, v) for t, v in enumerate(self.counit)])

    def positive_indices(self):
        return [i for i in range(self.dim) if i != self.grouplike_index]

    def reduced_comul(self):
        """Structure constants of C_+ = C / span(grouplike), as triples per index."""
        g = self.grouplike_index
        keep = self.positive_indices()
        pos = {i: k for k, i in enumerate(keep)}
        out = []
        for t in keep:
            out.append(tuple((pos[i], pos[j], v) for i, j, v in self.comul[t] if i != g and j != g))
        return out

    def reduced_comul_matrix(self):
        d = self.dim - 1
        items = []
        for t, triples in enumerate(self.reduced_comul()):
            for i, j, v in triples:
                items.append((i * d + j, t, v))
        return Matrix.from_entries(self.field, d * d, d, items)

    def projection_matrix(self):
        """C -> C_+ dropping the grouplike coordinate."""
        keep = self.positive_indices()
        one = self.field.one
        return Matrix(self.field, self.dim - 1, self.dim, {(k, i): one for k, i in enumerate(keep)})

    def degrees_respected(self):
        """True when degree metadata exists and the structure constants are homogeneous."""
        if self.degrees is None:
            return False
        if self.degrees[self.grouplike_index] != 0:
            return False
        for t, triples in enumerate(self.comul):
            for i, j, _ in triples:
                if self.degrees[i] + self.degrees[j] != self.degrees[t]:
                    return False
        return True

    def digest_data(self):
        fmt = self.field.format
        return (
            "finite",
            tuple(sorted(self.field.label().items())),
            self.dim,
            self.grouplike_index,
            tuple(fmt(v) for v in self.counit),
            tuple(tuple((i, j, fmt(v)) for i, j, v in row) for row in self.comul),
        )

    def __eq__(self, other):
        return isinstance(other, Coalgebra) and self.digest_data() == other.digest_data()

    def __repr__(self):
        return "Coalgebra(%r, dim=%d)" % (self.field, self.dim)


class GradedCoalgebra:
    """Nonnegatively graded coalgebra, C_0 = k, truncated above degree D.

    ``components[(j, p, q)]`` is the matrix of Delta_{p,q}: C_j -> C_p (x) C_q
    (shape dims[p]*dims[q] x dims[j]), present for every p, q >= 0 with
    p + q = j <= D.
    """

    __slots__ = ("field", "dims", "components")

    def __init__(self, field, dims, components):
        dims = tuple(int(d) for d in dims)
        if not dims or dims[0] != 1:
            raise ValueError("graded coalgebra needs dims[0] == 1")
        if any(d < 0 for d in dims):
            raise ValueError("negative component dimension")
        self.field = field
        self.dims = dims
        comps = {}
        for j in range(len(dims)):
            for p in range(j + 1):
                q = j - p
                m = components.get((j, p, q))
                if m is None:
                    raise ValueError("missing component (%d,%d,%d)" % (j, p, q))
                if m.nrows != dims[p] * dims[q] or m.ncols != dims[j]:
                    raise ValueError("component (%d,%d,%d) has wrong shape" % (j, p, q))
                comps[(j, p, q)] = m
        self.components = comps

    @property
    def top_degree(self):
        return len(self.dims) - 1

    def component(self, j, p, q):
        return self.components[(j, p, q)]

    def digest_data(self):
        fmt = self.field.format
        comp = tuple(
            (key, tuple(sorted(((r, c), fmt(v)) for (r, c), v in m.entries.items())))
            for key, m in sorted(self.components.items())
        )
        return ("graded", tuple(sorted(self.field.label().items())), self.dims, comp)

    def __eq__(self, other):
        return isinstance(other, GradedCoalgebra) and self.digest_data() == other.digest_data()

    def __repr__(self):
        return "GradedCoalgebra(%r, dims=%s)" % (self.field, list(self.dims))


class Comodule:
    """Finite-dimensional left comodule: coaction m_t -> sum v * e_i (x) m_j.

    The coaction matrix is built once and kept.
    """

    __slots__ = ("base", "dim", "coaction", "_matrix")

    def __init__(self, base, dim, coaction):
        if dim < 0:
            raise ValueError("negative comodule dimension")
        if len(coaction) != dim:
            raise ValueError("coaction must list one entry per basis index")
        self.base = base
        self.dim = dim
        self.coaction = _normal_triples(base.field, coaction, base.dim, dim, "coaction")
        self._matrix = None

    @classmethod
    def from_coaction_matrix(cls, base, dim, nu):
        """The comodule whose coaction matrix is ``nu``, a (base.dim * dim) x dim Matrix.

        Row i * dim + j of column t holds the coefficient of e_i (x) m_j in
        the coaction of m_t.  The entries of a Matrix are field elements in
        range, so they are taken as they are.
        """
        if nu.field != base.field or nu.nrows != base.dim * dim or nu.ncols != dim:
            raise ValueError("coaction matrix does not match the base and dimension")
        triples = [[] for _ in range(dim)]
        for (r, t), v in nu.entries.items():
            triples[t].append((*divmod(r, dim), v))
        return cls._normalized(base, dim, tuple(tuple(sorted(row)) for row in triples), nu)

    @classmethod
    def _normalized(cls, base, dim, coaction, matrix=None):
        """The comodule of ``coaction``, already in the form ``_normal_triples`` returns, taken as it is."""
        m = cls.__new__(cls)
        m.base = base
        m.dim = dim
        m.coaction = coaction
        m._matrix = matrix
        return m

    def coaction_matrix(self):
        if self._matrix is None:
            items = []
            for t, triples in enumerate(self.coaction):
                for i, j, v in triples:
                    items.append((i * self.dim + j, t, v))
            self._matrix = Matrix.from_entries(self.base.field, self.base.dim * self.dim, self.dim, items)
        return self._matrix

    def __repr__(self):
        return "Comodule(dim=%d over %r)" % (self.dim, self.base)


def trivial_comodule(c):
    """k with coaction 1 -> grouplike (x) 1."""
    return Comodule(c, 1, [[(c.grouplike_index, 0, 1)]])


def regular_comodule(c):
    """C coacting on itself by comultiplication."""
    return Comodule(c, c.dim, [list(triples) for triples in c.comul])


def cofree_comodule(c, k):
    """C (x) k^k with coaction comul (x) id, whose matrix is comul_matrix() (x) I_k.

    The triples of ``c.comul`` are normal already, and j -> j * k + s keeps
    their order, so they are used without a second pass.
    """
    coaction = tuple(tuple((i, j * k + s, v) for i, j, v in c.comul[t]) for t in range(c.dim) for s in range(k))
    return Comodule._normalized(c, c.dim * k, coaction)


def extension_comodule(c, primitive, scale=1):
    """Two-dimensional comodule: m_1 trivial, nu(m_2) = g (x) m_2 + w (x) m_1.

    ``primitive`` is a vector in C that must satisfy mu(w) = g (x) w + w (x) g;
    this is exactly what makes the coaction coassociative.
    """
    f = c.field
    g = c.grouplike_index
    rows = [[(g, 0, 1)]]
    second = [(g, 1, 1)]
    for i, v in enumerate(primitive):
        v = f.mul(f.coerce(v), f.coerce(scale))
        if v != f.zero:
            second.append((i, 0, v))
    rows.append(second)
    return Comodule(c, 2, rows)


# ---------------------------------------------------------------------------
# validation


def validate(c):
    """Axiom check for a finite Coalgebra; returns a ValidationReport."""
    f = c.field
    n = c.dim
    mu = c.comul_matrix()
    eye = Matrix.identity(f, n)
    flags = {}
    notes = {}

    left = kron_identity_matmul(mu, n, mu)
    right = kron_identity_matmul(n, mu, mu)
    flags["coassociative"] = left == right
    if not flags["coassociative"]:
        diff = left - right
        t = min(c for (_, c) in diff.entries)
        notes["coassociative"] = "fails first at basis index %d" % t

    eps = c.counit_matrix()
    lcu = kron_identity_matmul(eps, n, mu)
    rcu = kron_identity_matmul(n, eps, mu)
    flags["counital"] = lcu == eye and rcu == eye
    if not flags["counital"]:
        bad = (lcu - eye) if lcu != eye else (rcu - eye)
        t = min(col for (_, col) in bad.entries)
        notes["counital"] = "fails first at basis index %d" % t

    g = c.grouplike_index
    coaug = dict(((i, j), v) for i, j, v in c.comul[g]) == {(g, g): f.one} and c.counit[g] == f.one
    flags["coaugmented"] = bool(coaug)
    if not coaug:
        notes["coaugmented"] = "grouplike index %d is not grouplike" % g

    flags["cocommutative"] = swap_matrix(f, n, n) @ mu == mu

    if flags["coassociative"] and flags["counital"] and flags["coaugmented"]:
        chain = coaugmentation_filtration(c)
        flags["conilpotent"] = chain.exhaustive
        if not chain.exhaustive:
            notes["conilpotent"] = "filtration stabilizes at step %d with dim %d < %d" % (
                chain.stabilized_at,
                chain.steps[-1].nrows,
                n,
            )
    else:
        flags["conilpotent"] = False
        notes.setdefault("conilpotent", "skipped: prior axiom failed")

    if c.degrees is not None:
        flags["graded_metadata"] = c.degrees_respected()

    return ValidationReport(flags, notes)


def validate_graded(g):
    """Axiom check for a GradedCoalgebra: ``validate`` of its flattening, less the flag that ``flatten`` makes true."""
    report = validate(flatten(g))
    del report.flags["graded_metadata"]
    return report


# ---------------------------------------------------------------------------
# filtration and socle


class FiltrationChain:
    __slots__ = ("steps", "exhaustive", "stabilized_at")

    def __init__(self, steps, exhaustive, stabilized_at):
        self.steps = steps  # F_0, F_1, ... up to stabilization, each a basis as the rows of a matrix
        self.exhaustive = exhaustive
        self.stabilized_at = stabilized_at


def coaugmentation_filtration(c):
    """The coaugmentation filtration F_0 = span(g) <= F_1 <= ... of a finite C.

    Computed through the reduced coalgebra D = C_+: with G_1 = ker(reduced
    comul) and G_m the preimage of D (x) G_{m-1}, the chain F_m is the pullback
    of G_m along C -> D plus the grouplike line.  Each G_m is kept as the
    kernel columns that give its basis, and F_m as rows: the grouplike, then
    each column of G_m at the positive indices.  Stabilizes within dim C
    steps; exhaustive iff the stable term is all of C.
    """
    f = c.field
    n = c.dim
    d = n - 1
    keep = c.positive_indices()

    def lift(g_m):
        entries = {(1 + r, keep[k]): x for (k, r), x in g_m.entries.items()}
        entries[(0, c.grouplike_index)] = f.one
        return Matrix(f, 1 + g_m.ncols, n, entries)

    steps = [lift(Matrix.zeros(f, d, 0))]
    if d == 0:
        return FiltrationChain(tuple(steps), True, 0)

    mu_d = c.reduced_comul_matrix()
    current = mu_d.kernel_basis()  # G_1
    if current.ncols > 0:
        steps.append(lift(current))
    m = 1
    while 0 < current.ncols < d:
        # G_{m+1} = preimage of D (x) G_m under the reduced comultiplication;
        # D (x) G_m is spanned by the rows e_i (x) v, v a column of G_m
        k = current.ncols
        span = {(i * k + r, i * d + j): x for i in range(d) for (j, r), x in current.entries.items()}
        proj, _ = quotient_maps(Matrix(f, d * k, d * d, span))
        nxt = (proj @ mu_d).kernel_basis()
        if nxt.ncols == k:
            break
        current = nxt
        steps.append(lift(current))
        m += 1
        if m > d:
            break
    return FiltrationChain(tuple(steps), current.ncols == d, len(steps) - 1)


def socle(m):
    """Largest trivial subcomodule, ker(M -> C (x) M -> C_+ (x) M), a basis of it as the rows of a matrix."""
    return reduced_coaction_matrix(m).kernel_basis().transpose()


def reduced_coaction_matrix(m):
    c = m.base
    return kron_identity_matmul(c.projection_matrix(), m.dim, m.coaction_matrix())


def validate_comodule(m):
    c = m.base
    f = c.field
    nu = m.coaction_matrix()
    mu = c.comul_matrix()
    coassoc = kron_identity_matmul(mu, m.dim, nu) == kron_identity_matmul(c.dim, nu, nu)
    counit = kron_identity_matmul(c.counit_matrix(), m.dim, nu) == Matrix.identity(f, m.dim)
    return ValidationReport({"coassociative": coassoc, "counital": counit, "coaugmented": True, "conilpotent": True})


# ---------------------------------------------------------------------------
# constructors


def tensor_coalgebra(m, top, field):
    """Truncated tensor (cofree) coalgebra on m primitives, degrees 0..top.

    Degree-j basis: length-j words over {0..m-1}, index = base-m digits; the
    comultiplication components are deconcatenation, which in this indexing is
    the identity matrix.
    """
    if m < 0 or top < 0:
        raise ValueError("need m >= 0 and top >= 0")
    dims = [m**j if (m > 0 or j == 0) else 0 for j in range(top + 1)]
    comps = {}
    for j in range(top + 1):
        for p in range(j + 1):
            q = j - p
            comps[(j, p, q)] = Matrix.identity(field, dims[j])
    return GradedCoalgebra(field, dims, comps)


def _monomials(m, j):
    """Exponent vectors alpha in N^m with |alpha| = j, lexicographic order."""
    if m == 0:
        return [()] if j == 0 else []
    out = []

    def rec(prefix, remaining, slots):
        if slots == 1:
            out.append(prefix + (remaining,))
            return
        for a in range(remaining, -1, -1):
            rec(prefix + (a,), remaining - a, slots - 1)

    rec((), j, m)
    return sorted(out, reverse=True)


def _sub_exponents(alpha, p):
    """All beta <= alpha componentwise with |beta| = p."""
    out = []

    def rec(prefix, remaining, pos):
        if pos == len(alpha):
            if remaining == 0:
                out.append(tuple(prefix))
            return
        for a in range(min(alpha[pos], remaining), -1, -1):
            rec(prefix + [a], remaining - a, pos + 1)

    rec([], p, 0)
    return out


def symmetric_coalgebra(m, top, field):
    """Truncated symmetric coalgebra on m primitives in the orbit-sum basis.

    Degree-j basis: exponent vectors alpha with |alpha| = j (dim binom(m+j-1,j));
    Delta_{p,q}(s_alpha) = sum over beta+gamma = alpha of s_beta (x) s_gamma,
    all structure constants 1.  Requires characteristic 0 or p > top so that
    the graded dual is literally the truncated polynomial ring.
    """
    if m < 0 or top < 0:
        raise ValueError("need m >= 0 and top >= 0")
    ch = field.characteristic()
    if ch != 0 and ch <= top:
        raise UnsupportedCharacteristic(
            "symmetric coalgebra over GF(%d) needs p > truncation degree %d" % (ch, top)
        )
    bases = [_monomials(m, j) for j in range(top + 1)]
    index = [{alpha: k for k, alpha in enumerate(b)} for b in bases]
    dims = [len(b) for b in bases]
    one = field.one
    comps = {}
    for j in range(top + 1):
        for p in range(j + 1):
            q = j - p
            items = []
            for col, alpha in enumerate(bases[j]):
                for beta in _sub_exponents(alpha, p):
                    gamma = tuple(a - b for a, b in zip(alpha, beta))
                    items.append((index[p][beta] * dims[q] + index[q][gamma], col, one))
            comps[(j, p, q)] = Matrix.from_entries(field, dims[p] * dims[q], dims[j], items)
    return GradedCoalgebra(field, dims, comps)


def opposite(c):
    """The co-opposite: tensor factors of every comultiplication output swap."""
    if isinstance(c, Coalgebra):
        comul = [[(j, i, v) for i, j, v in triples] for triples in c.comul]
        return Coalgebra(c.field, c.dim, c.grouplike_index, c.counit, comul, degrees=c.degrees)
    if isinstance(c, GradedCoalgebra):
        comps = {}
        for j in range(c.top_degree + 1):
            for p in range(j + 1):
                q = j - p
                comps[(j, p, q)] = swap_matrix(c.field, c.dims[q], c.dims[p]) @ c.component(j, q, p)
        return GradedCoalgebra(c.field, c.dims, comps)
    raise TypeError("opposite expects a Coalgebra or GradedCoalgebra")


def flatten(g):
    """Forget the grading of a GradedCoalgebra; keep it as degree metadata."""
    if not isinstance(g, GradedCoalgebra):
        raise TypeError("flatten expects a GradedCoalgebra")
    f = g.field
    offsets = []
    total = 0
    for d in g.dims:
        offsets.append(total)
        total += d
    comul = [[] for _ in range(total)]
    degrees = []
    for j, dj in enumerate(g.dims):
        degrees.extend([j] * dj)
        for p in range(j + 1):
            q = j - p
            comp = g.component(j, p, q)
            dq = g.dims[q]
            for (row, col), v in sorted(comp.entries.items()):
                a, b = divmod(row, dq) if dq else (0, 0)
                comul[offsets[j] + col].append((offsets[p] + a, offsets[q] + b, v))
    counit = [f.zero] * total
    counit[0] = f.one
    return Coalgebra(f, total, 0, counit, comul, degrees=tuple(degrees))
