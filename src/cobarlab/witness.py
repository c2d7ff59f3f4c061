"""Finite models of two phenomena that need an infinite-dimensional coalgebra.

The base object is the coalgebra k*g (+) V with every element of V primitive
and V of countable dimension, spanned by e_0, e_1, ...  Its dual algebra
contains the subring of pairs (alpha, chi) where alpha is the value at the
grouplike and chi is an eventually constant coordinate functional on V, and
that subring is all this module ever evaluates against.

Two constructions live here, both in exact arithmetic:

* a two dimensional module over the subring whose extension data is a linear
  function f on the space of eventually constant functionals.  The module
  structure comes from a coaction exactly when f is evaluation against a
  finitely supported vector; the eventual-value function (read the tail of
  chi) is the standard witness that it need not be.

* a contraaction on Q = k (+) T, with T another countable space, whose mixing
  component applies a function phi to the V -> T part of the input.  phi kills
  every finite rank map and reads the tail off a diagonal one, so the vector
  space splitting Q -> k commutes with the induced module action but not with
  the contraaction.

Functionals are stored as a constant tail plus finitely many exceptional
values; linear maps V -> T as a scalar multiple of the identity plus a finite
block.  Both families are closed under the operations used on them, and
their data changes at finitely many indices only.  So every axiom and verdict
is checked exactly, on a finite family of spanning elements with one index
standing for all those past the support; nothing is sampled.
"""

from __future__ import annotations

from dataclasses import dataclass

from .exactlin import QQ, Field, Matrix


def _pairs(field, items, drop=None):
    """Sorted pairs of a mapping or pair iterable, leaving out values equal to ``drop`` (zero by default)."""
    if hasattr(items, "items"):
        items = items.items()
    seen = {}
    for key, value in items:
        if key in seen:
            raise ValueError("duplicate index %r" % (key,))
        seen[key] = field.coerce(value)
    drop = field.zero if drop is None else drop
    return tuple((k, v) for k, v in sorted(seen.items()) if v != drop)


def _set(obj, **fields):
    """Assign normalized fields of a frozen dataclass."""
    for name, value in fields.items():
        object.__setattr__(obj, name, value)


def _bound(indices):
    """First index past every one of ``indices``: 0 for none."""
    return 1 + max(indices, default=-1)


@dataclass(frozen=True)
class EventuallyConstant:
    """Coordinate functional on e_0, e_1, ... equal to ``tail`` almost everywhere.

    ``corrections`` lists the exceptional values; an entry replaces the tail at
    its index.  Entries equal to the tail are dropped so that equal functionals
    compare equal as data.
    """

    field: Field
    tail: object
    corrections: tuple = ()

    def __post_init__(self):
        tail = self.field.coerce(self.tail)
        _set(self, tail=tail, corrections=_pairs(self.field, self.corrections, tail))

    def value(self, i):
        return dict(self.corrections).get(i, self.tail)

    def support_bound(self):
        """First index after which every value equals the tail."""
        return _bound(i for i, _ in self.corrections)

    def add(self, other):
        f = self.field
        bound = max(self.support_bound(), other.support_bound())
        items = [(i, f.add(self.value(i), other.value(i))) for i in range(bound)]
        return EventuallyConstant(f, f.add(self.tail, other.tail), items)

    def scale(self, c):
        f = self.field
        c = f.coerce(c)
        items = [(i, f.mul(c, v)) for i, v in self.corrections]
        return EventuallyConstant(f, f.mul(c, self.tail), items)

    def is_zero(self):
        return self.tail == self.field.zero and not self.corrections


def zero_functional(field=QQ):
    return EventuallyConstant(field, field.zero)


def coordinate_functional(i, field=QQ):
    """The functional reading off the coefficient of e_i."""
    return EventuallyConstant(field, field.zero, ((i, field.one),))


def constant_functional(field=QQ):
    return EventuallyConstant(field, field.one)


@dataclass(frozen=True)
class TaggedCofunctional:
    """Linear function on the space of eventually constant functionals.

    variant "vector": chi |-> sum coords[i] * chi(e_i), evaluation against the
    finitely supported vector with those coordinates.  variant "eventual":
    chi |-> tail * (eventual value of chi) + sum corrections[i] * chi(e_i).
    The eventual-value summand is not evaluation against any vector: it kills
    every coordinate functional yet is nonzero on the constant one.
    """

    field: Field
    variant: str
    coords: tuple = ()
    tail: object = None
    corrections: tuple = ()

    def __post_init__(self):
        if self.variant not in ("vector", "eventual"):
            raise ValueError("unknown cofunctional variant %r" % (self.variant,))
        f = self.field
        if self.variant == "vector":
            _set(self, coords=tuple(f.coerce(c) for c in self.coords), tail=None, corrections=())
        else:
            tail = f.zero if self.tail is None else f.coerce(self.tail)
            _set(self, tail=tail, coords=(), corrections=_pairs(f, self.corrections))

    def __call__(self, chi):
        if chi.field != self.field:
            raise ValueError("field mismatch")
        f = self.field
        if self.variant == "vector":
            total, items = f.zero, enumerate(self.coords)
        else:
            total, items = f.mul(self.tail, chi.tail), self.corrections
        for i, c in items:
            total = f.add(total, f.mul(c, chi.value(i)))
        return total

    def support_bound(self):
        """First index from which f kills every coordinate functional."""
        if self.variant == "vector":
            return len(self.coords)
        return _bound(i for i, _ in self.corrections)

    def describe(self):
        f = self.field
        if self.variant == "vector":
            return {"variant": "vector", "coords": [f.format(c) for c in self.coords]}
        return {
            "variant": "eventual",
            "tail": f.format(self.tail),
            "corrections": {str(i): f.format(v) for i, v in self.corrections},
        }


def from_vector(coords, field=QQ):
    return TaggedCofunctional(field, "vector", coords=tuple(coords))


def eventual_value(tail, corrections=(), field=QQ):
    return TaggedCofunctional(field, "eventual", tail=tail, corrections=corrections)


def is_rational(f: TaggedCofunctional) -> bool:
    """Whether f is evaluation against a finitely supported vector."""
    return f.variant == "vector" or f.tail == f.field.zero


def rationality_obstruction(f: TaggedCofunctional):
    """Defect of the coordinatewise vector read off f.

    Candidate coordinates v_i = f(coordinate functional i) vanish from f's
    support bound on, so their sum against the constant functional is exact.
    Any vector variant gives zero; an eventual variant leaves exactly its tail.
    """
    fld = f.field
    total = fld.zero
    for i in range(f.support_bound()):
        total = fld.add(total, f(coordinate_functional(i, fld)))
    return fld.sub(f(constant_functional(fld)), total)


@dataclass(frozen=True)
class SubringElement:
    """Dual algebra element (value at the grouplike, functional on V)."""

    alpha: object
    chi: EventuallyConstant

    def __post_init__(self):
        _set(self, alpha=self.chi.field.coerce(self.alpha))

    @property
    def field(self):
        return self.chi.field

    def __mul__(self, other):
        if not isinstance(other, SubringElement):
            return NotImplemented
        f = self.field
        if other.field != f:
            raise ValueError("field mismatch")
        # every element of V is primitive, so products of functionals killing
        # the grouplike vanish on V and the functional part is bilinear
        chi = other.chi.scale(self.alpha).add(self.chi.scale(other.alpha))
        return SubringElement(f.mul(self.alpha, other.alpha), chi)


def subring_unit(field=QQ):
    return SubringElement(field.one, zero_functional(field))


@dataclass(frozen=True)
class TwoDimModule:
    """Rank two module over the subring with extension data f.

    The action is a e_1 = alpha e_1 and a e_2 = alpha e_2 + f(chi_a) e_1.
    ``corrupt`` is a mutation hook for the axiom checker: it adds a spurious
    f(chi_a) e_2 term that breaks associativity of the action.
    """

    f: TaggedCofunctional
    corrupt: bool = False

    @property
    def field(self):
        return self.f.field

    def extension_value(self, a: SubringElement):
        return self.f(a.chi)

    def act(self, a, vec):
        fld = self.field
        if a.field != fld:
            raise ValueError("field mismatch")
        x1, x2 = (fld.coerce(vec[0]), fld.coerce(vec[1]))
        fa = self.extension_value(a)
        top = fld.add(fld.mul(a.alpha, x1), fld.mul(fa, x2))
        bottom = fld.mul(a.alpha, x2)
        if self.corrupt:
            bottom = fld.add(bottom, fld.mul(fa, x2))
        return (top, bottom)


def build_nonrational_module(f: TaggedCofunctional) -> TwoDimModule:
    return TwoDimModule(f)


def default_nonrational_cofunctional(field=QQ):
    return eventual_value(field.one, field=field)


def verify_module_axioms(m: TwoDimModule) -> bool:
    """Unit and associativity of the action, checked exhaustively.

    The subring is spanned by the unit, the constant functional and the
    coordinate functionals delta_i.  Associativity is bilinear in the pair
    of elements and linear in the vector, so every pair of spanning elements
    on e_1 and e_2 checks it everywhere.  An element acts only through its
    value at the grouplike and f of its functional; f kills every delta_i
    from its support bound on, and a product of two functionals is zero, so
    one delta past the bound stands for all of them.
    """
    fld = m.field
    basis = ((fld.one, fld.zero), (fld.zero, fld.one))
    unit = subring_unit(fld)
    chis = [constant_functional(fld)] + [coordinate_functional(i, fld) for i in range(m.f.support_bound() + 1)]
    probes = [unit] + [SubringElement(fld.zero, chi) for chi in chis]
    if any(m.act(unit, e) != e for e in basis):
        return False
    return all(m.act(a * b, e) == m.act(a, m.act(b, e)) for a in probes for b in probes for e in basis)


def max_rational_submodule(m: TwoDimModule) -> Matrix:
    """Largest submodule whose action comes from a coaction, a basis of it as the rows of a matrix.

    The whole space when the extension data is evaluation against a vector,
    otherwise only the line spanned by e_1.  The rows are in reduced echelon
    form.
    """
    fld = m.field
    if is_rational(m.f):
        return Matrix.identity(fld, 2)
    return Matrix.from_rows(fld, [[fld.one, fld.zero]])


def nonrational_report(field=QQ):
    """Build the eventual-value module and summarize every check on it."""
    f = default_nonrational_cofunctional(field)
    m = build_nonrational_module(f)
    sub = max_rational_submodule(m)
    return {
        "model": "two_dim_module",
        "cofunctional": f.describe(),
        "module_axioms_verified": verify_module_axioms(m),
        "is_rational": is_rational(f),
        "rationality_obstruction": field.format(rationality_obstruction(f)),
        "max_rational_submodule": [[field.format(x) for x in row] for row in sub.to_rows()],
    }


@dataclass(frozen=True)
class TaggedLinearMap:
    """Linear map V -> T stored as tail * identity plus a finite block.

    ``block`` holds entries ((row, col), value) against the bases t_i of T and
    e_j of V.  A zero tail is exactly a finite rank map, so the tail scalar
    alone carries the tag; a diagonal tail map with any corrections stays
    infinite rank as long as the tail is nonzero.
    """

    field: Field
    tail: object
    block: tuple = ()

    def __post_init__(self):
        _set(self, tail=self.field.coerce(self.tail), block=_pairs(self.field, self.block))

    @property
    def is_finite_rank(self):
        return self.tail == self.field.zero

    def entry(self, i, j):
        f = self.field
        v = self.tail if i == j else f.zero
        for (r, c), x in self.block:
            if r == i and c == j:
                v = f.add(v, x)
        return v

    def add(self, other):
        f = self.field
        if other.field != f:
            raise ValueError("field mismatch")
        items = {}
        for (r, c), x in self.block + other.block:
            items[(r, c)] = f.add(items.get((r, c), f.zero), x)
        return TaggedLinearMap(f, f.add(self.tail, other.tail), tuple(items.items()))

    def scale(self, c):
        f = self.field
        c = f.coerce(c)
        items = tuple((k, f.mul(c, x)) for k, x in self.block)
        return TaggedLinearMap(f, f.mul(c, self.tail), items)


def finite_rank_map(entries, field=QQ):
    return TaggedLinearMap(field, field.zero, entries)


def diagonal_tail_map(tail, corrections=(), field=QQ):
    block = tuple(((i, i), v) for i, v in _pairs(field, corrections))
    return TaggedLinearMap(field, tail, block)


def phi(m: TaggedLinearMap):
    """The mixing function: zero on finite rank maps, the tail otherwise."""
    return m.tail


@dataclass(frozen=True)
class HomToQ:
    """A linear map from the base coalgebra into Q = k (+) T.

    Only the data the contraaction reads is stored: the values of both
    components at the grouplike and the V -> T block.  The V -> k block is
    dropped because no component of the contraaction looks at it.
    """

    field: Field
    k_at_group: object
    t_at_group: tuple = ()
    v_to_t: TaggedLinearMap = None

    def __post_init__(self):
        f = self.field
        _set(self, k_at_group=f.coerce(self.k_at_group), t_at_group=_pairs(f, self.t_at_group))
        if self.v_to_t is None:
            _set(self, v_to_t=finite_rank_map((), f))
        elif self.v_to_t.field != f:
            raise ValueError("field mismatch")


@dataclass(frozen=True)
class QElement:
    """Element of Q = k (+) T: a scalar plus a finitely supported T-vector."""

    field: Field
    k_part: object
    t_part: tuple = ()

    def __post_init__(self):
        _set(self, k_part=self.field.coerce(self.k_part), t_part=_pairs(self.field, self.t_part))


def contraaction(h: HomToQ) -> QElement:
    """Contraaction on Q = k (+) T with mixing component phi on V -> T.

    Diagonal components evaluate the input at the grouplike; the k -> T
    component is zero; the T -> k component restricts the input to V and
    applies phi.
    """
    f = h.field
    k_part = f.add(h.k_at_group, phi(h.v_to_t))
    return QElement(f, k_part, h.t_at_group)


@dataclass(frozen=True)
class ContraWitness:
    """The contraaction bundled with its designated infinite rank witness."""

    field: Field
    witness: TaggedLinearMap

    def contraaction(self, h: HomToQ) -> QElement:
        if h.field != self.field:
            raise ValueError("field mismatch")
        return contraaction(h)

    def splitting(self, q: QElement):
        """The vector space projection Q -> k."""
        return q.k_part

    def contraaction_on_k(self, h: HomToQ):
        """The trivial contraaction on the quotient k: evaluate at the grouplike."""
        return h.k_at_group


def build_contra_witness(field=QQ) -> ContraWitness:
    return ContraWitness(field, diagonal_tail_map(field.one, field=field))


def _block_entries(w: ContraWitness):
    """Every block entry E_ij on a window of indices.

    The window holds the witness's own support and four indices past it,
    enough for every pattern of equalities among the indices of two entries.
    """
    f = w.field
    bound = 4 + _bound(x for (r, c), _ in w.witness.block for x in (r, c))
    return [finite_rank_map({(i, j): f.one}, f) for i in range(bound) for j in range(bound)]


def verify_contra_witness(w: ContraWitness):
    """Check the contramodule axioms and the three verdicts the witness exists to exhibit.

    Contraassociativity for F: C -> Hom(C, Q) compares pi of c |-> pi(F(c))
    with pi of c |-> F(c_(1))(c_(2)).  As g is grouplike and V primitive,
    both sides differ only in k-parts phi(a) + phi(b) and phi(a + b), with
    a = F(g)|V->T and b = (v |-> F(v)(g)_T).  So the axiom is additivity of
    phi, checked through the contraaction on every pair of probes, which
    span the tagged maps; over a prime field additive means linear.  The
    contraunit axiom, pi(g |-> p, V |-> 0) = p, is phi(0) = 0.

    module_trivial: phi kills every E_ij, hence by linearity every finite
    rank map, so the splitting commutes with the induced module action.
    contra_nontrivial: the designated diagonal map is mixed into the k
    summand.  splitting_not_contra_linear: projecting after the
    contraaction differs from the quotient contraaction after projecting,
    on the designated map.
    """
    f = w.field
    entries = _block_entries(w)
    probes = [diagonal_tail_map(f.one, field=f)] + entries

    def contraassociative(a, b):
        inner = w.contraaction(HomToQ(f, f.zero, (), a))
        left = w.contraaction(HomToQ(f, inner.k_part, inner.t_part, b))
        return left == w.contraaction(HomToQ(f, f.zero, (), a.add(b)))

    zero = QElement(f, f.zero)
    units = (QElement(f, f.one), QElement(f, f.zero, ((0, f.one),)))
    contra_nontrivial = phi(w.witness) != f.zero and not w.witness.is_finite_rank
    probe = HomToQ(f, f.zero, (), w.witness)
    left = w.splitting(w.contraaction(probe))
    right = w.contraaction_on_k(probe)
    return {
        "model": "contraaction_on_k_plus_T",
        "witness_value": f.format(phi(w.witness)),
        "contraassociative": all(contraassociative(a, b) for a in probes for b in probes),
        "contraunital": all(w.contraaction(HomToQ(f, p.k_part, p.t_part)) == p for p in units),
        "module_trivial": all(w.contraaction(HomToQ(f, f.zero, (), m)) == zero for m in entries),
        "contra_nontrivial": contra_nontrivial,
        "splitting_not_contra_linear": left != right,
    }


def contra_report(field=QQ):
    return verify_contra_witness(build_contra_witness(field))
