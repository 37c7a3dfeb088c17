"""Finite V-categories, V-functors, V-relations and their constructions.

A V-category is a finite carrier with a quantale-valued structure matrix
subject to reflexivity (unit below the diagonal) and the tensor triangle
inequality.  Everything here is immutable and safe to share.
"""

from itertools import product as iproduct

from .errors import CapExceeded, ConsistencyError
from .quantale import AssumptionReport, LawEntry

VFUNCTOR_MAP_CAP = 20000


class VCategory:
    """Carrier states plus a structure matrix into a fixed quantale.

    ``states`` may be any hashable ids; ``matrix[i][j]`` is the structure
    value from ``states[i]`` to ``states[j]``.  Instances compare and hash
    structurally, which makes memoization by object identity sound; the
    hash is computed on the first ``__hash__`` call, since most instances
    are never hashed.
    """

    __slots__ = ("quantale", "states", "matrix", "_index", "_hash", "_unit_rows")

    def __init__(self, quantale, states, matrix):
        self.quantale = quantale
        self.states = tuple(states)
        self.matrix = tuple(map(tuple, matrix))
        n = len(self.states)
        if len(self.matrix) != n or not set(map(len, self.matrix)) <= {n}:
            raise ConsistencyError("matrix shape does not match carrier")
        self._index = dict(zip(self.states, range(n)))
        if len(self._index) != n:
            raise ConsistencyError("duplicate state ids")
        self._hash = None
        self._unit_rows = None

    def __eq__(self, other):
        return (
            isinstance(other, VCategory)
            and self.quantale == other.quantale
            and self.states == other.states
            and self.matrix == other.matrix
        )

    def __hash__(self):
        if self._hash is None:
            self._hash = hash((self.quantale, self.states, self.matrix))
        return self._hash

    def __repr__(self):
        return f"VCategory({len(self.states)} states)"

    def __len__(self):
        return len(self.states)

    def __contains__(self, x):
        return x in self._index

    def index(self, x):
        return self._index[x]

    def a(self, x, y):
        return self.matrix[self._index[x]][self._index[y]]

    def unit_rows(self):
        """Row i is the bitmask of the j with unit <= a(i, j): the states
        above ``states[i]`` in the underlying order.  Computed on the first
        call and kept, which is sound since the matrix never changes."""
        if self._unit_rows is None:
            q = self.quantale
            k = q.unit
            self._unit_rows = tuple(
                sum(1 << j for j, v in enumerate(row) if q.leq(k, v))
                for row in self.matrix
            )
        return self._unit_rows


class VFunctor:
    """A carrier map between V-categories over one quantale.

    The structure-preservation law is not enforced at construction; use
    :func:`check_vfunctor`.  Like a ``VCategory``, it is hashed on the
    first ``__hash__`` call.
    """

    __slots__ = ("source", "target", "mapping", "_hash")

    def __init__(self, source, target, mapping):
        if source.quantale != target.quantale:
            raise ConsistencyError("source and target over different quantales")
        self.source = source
        self.target = target
        self.mapping = tuple(mapping)
        if len(self.mapping) != len(source.states):
            raise ConsistencyError("mapping length does not match source carrier")
        for y in self.mapping:
            if y not in target._index:
                raise ConsistencyError(f"mapping hits unknown target state {y!r}")
        self._hash = None

    @classmethod
    def from_dict(cls, source, target, d):
        return cls(source, target, [d[s] for s in source.states])

    def __call__(self, x):
        return self.mapping[self.source.index(x)]

    def __eq__(self, other):
        return (
            isinstance(other, VFunctor)
            and self.source == other.source
            and self.target == other.target
            and self.mapping == other.mapping
        )

    def __hash__(self):
        if self._hash is None:
            self._hash = hash((self.source, self.target, self.mapping))
        return self._hash

    def __repr__(self):
        return f"VFunctor({len(self.source.states)} -> {len(self.target.states)})"


class VRelation:
    """A quantale-valued matrix between two carriers; no laws imposed."""

    __slots__ = ("quantale", "source_states", "target_states", "matrix")

    def __init__(self, quantale, source_states, target_states, matrix):
        self.quantale = quantale
        self.source_states = tuple(source_states)
        self.target_states = tuple(target_states)
        self.matrix = tuple(tuple(row) for row in matrix)

    def r(self, x, y):
        return self.matrix[self.source_states.index(x)][self.target_states.index(y)]


# -- constructors ------------------------------------------------------


def discrete(quantale, states):
    """Unit on the diagonal, bottom elsewhere."""
    k, bot = quantale.unit, quantale.bottom
    n = len(states)
    return VCategory(quantale, states, [[k if i == j else bot for j in range(n)] for i in range(n)])


def indiscrete(quantale, states):
    """Top everywhere: the initial structure of the empty cone."""
    return initial_structure(quantale, states, [])


def terminal(quantale):
    """The one-point V-category with top structure."""
    return indiscrete(quantale, ["*"])


def from_order(quantale, states, pairs):
    """Order embedding: unit on related pairs (and the diagonal), bottom off."""
    k, bot = quantale.unit, quantale.bottom
    rel = set(pairs) | {(s, s) for s in states}
    return VCategory(
        quantale, states,
        [[k if (x, y) in rel else bot for y in states] for x in states],
    )


def metric_line(points):
    """Symmetric Lawvere category on rational points with |x - y| distances."""
    from .quantale import Quantale
    from fractions import Fraction

    q = Quantale.lawvere()
    pts = [Fraction(p) for p in points]
    ids = [str(p) for p in pts]
    return VCategory(q, ids, [[abs(x - y) for y in pts] for x in pts])


def as_vcategory(quantale):
    """The quantale itself as a V-category with internal-hom structure."""
    els = quantale.elements
    return VCategory(quantale, els, [[quantale.hom(u, v) for v in els] for u in els])


def restrict(x, keep):
    """Full subcategory on the given states, preserving carrier order: the
    initial structure of the inclusion."""
    keep = set(keep)
    kept = [s for s in x.states if s in keep]
    return initial_structure(x.quantale, kept, [(kept, x)])


def identity_functor(x):
    return VFunctor(x, x, x.states)


def compose(g, f):
    """g after f."""
    if f.target != g.source:
        raise ConsistencyError("composition mismatch")
    return VFunctor(f.source, g.target, [g(f(s)) for s in f.source.states])


# -- law checks --------------------------------------------------------


def check_vcategory(x):
    """Report on the two enrichment laws; witnesses are state tuples."""
    q = x.quantale
    leq, tensor, k = q.leq, q.tensor, q.unit
    states, m = x.states, x.matrix
    n = len(states)
    w = next(((states[i],) for i in range(n) if not leq(k, m[i][i])), None)
    refl = LawEntry("reflexive", w is None, w)
    w = None
    for i in range(n):
        row_i = m[i]
        for j in range(n):
            a, row_j = row_i[j], m[j]
            for l in range(n):
                if not leq(tensor(a, row_j[l]), row_i[l]):
                    w = (states[i], states[j], states[l])
                    break
            if w:
                break
        if w:
            break
    trans = LawEntry("transitive", w is None, w)
    return AssumptionReport((refl, trans))


def is_vcategory(x):
    return check_vcategory(x).ok


def check_vfunctor(f):
    """Report whether a(x, y) <= b(f x, f y) holds, with a witness pair."""
    a, b, leq = f.source, f.target, f.source.quantale.leq
    am, bm = a.matrix, b.matrix
    idx = [b.index(y) for y in f.mapping]
    n = len(idx)
    w = next(
        ((a.states[i], a.states[j]) for i in range(n) for j in range(n)
         if not leq(am[i][j], bm[idx[i]][idx[j]])),
        None,
    )
    return AssumptionReport((LawEntry("structure-preserving", w is None, w),))


def is_vfunctor(f):
    return check_vfunctor(f).ok


# -- dualities and orders ----------------------------------------------


def dual(x):
    n = len(x.states)
    return VCategory(x.quantale, x.states,
                     [[x.matrix[j][i] for j in range(n)] for i in range(n)])


def symmetrize(x):
    """meet(a(s, t), a(t, s)): the initial structure of the identities
    into x and into its dual."""
    return initial_structure(x.quantale, x.states, [(x.states, x), (x.states, dual(x))])


def underlying_order(x):
    """Pairs (s, t) with unit below a(s, t); a preorder for valid inputs."""
    rows = x.unit_rows()
    return {
        (s, t)
        for i, s in enumerate(x.states)
        for j, t in enumerate(x.states)
        if rows[i] >> j & 1
    }


def is_separated(x):
    order = underlying_order(x)
    return not any((t, s) in order for (s, t) in order if s != t)


def separated_reflection(x):
    """Quotient by mutual order-equivalence; returns (quotient, projection).

    Representatives are least-index states; the quotient structure is read
    off representatives and verified to be well defined.
    """
    order = underlying_order(x)
    rep = {}
    for i, s in enumerate(x.states):
        for t in x.states[: i + 1]:
            if (s, t) in order and (t, s) in order:
                rep[s] = rep.get(t, t)
                break
        rep.setdefault(s, s)
    classes = []
    for s in x.states:
        if rep[s] == s:
            classes.append(s)
    members = {c: [s for s in x.states if rep[s] == c] for c in classes}
    for c in classes:
        for d in classes:
            v = x.a(c, d)
            for s in members[c]:
                for t in members[d]:
                    if x.a(s, t) != v:
                        raise ConsistencyError(
                            f"quotient structure not well defined at ({s!r}, {t!r})"
                        )
    quotient = VCategory(
        x.quantale, classes,
        [[x.a(c, d) for d in classes] for c in classes],
    )
    proj = VFunctor(x, quotient, [rep[s] for s in x.states])
    return quotient, proj


# -- monoidal structure -------------------------------------------------


def tensor(x, y):
    """Tensor product: pairs with tensored structure."""
    if x.quantale != y.quantale:
        raise ConsistencyError("tensor over different quantales")
    q = x.quantale
    states = [(s, t) for s in x.states for t in y.states]
    mat = [
        [q.tensor(x.a(s, t), y.a(u, v)) for (t, v) in states]
        for (s, u) in states
    ]
    return VCategory(q, states, mat)


def internal_hom(x, y):
    """All V-functors x -> y with structure [f, g] = meet of pointwise
    distances: the initial structure of the evaluations at each point of x."""
    states = [f.mapping for f in vfunctors_between(x, y)]
    return initial_structure(
        x.quantale, states, [([fm[i] for fm in states], y) for i in range(len(x.states))]
    )


# -- initial lifts and fibres -------------------------------------------


def initial_structure(quantale, states, legs):
    """Pointwise-meet structure along a cone of (mapping, target) legs.

    ``mapping`` assigns a target state to each carrier state, in carrier
    order.  The empty cone yields the indiscrete top structure.  V-Cat is
    topological over Set, so this one routine builds every limit structure:
    products, internal homs, symmetrizations, full subcategories and
    initial lifts.
    """
    pulled = []
    for mapping, target in legs:
        if target.quantale != quantale:
            raise ConsistencyError("cone leg over a different quantale")
        idx = [target.index(y) for y in mapping]
        pulled.append(([target.matrix[i] for i in idx], idx))
    if not pulled:
        return VCategory(quantale, states, [(quantale.top,) * len(states)] * len(states))
    # One row at a time, so no pulled-back matrix is kept whole; tuple rows
    # pass into the VCategory uncopied.
    mat = []
    for i in range(len(states)):
        row = None
        for rows, idx in pulled:
            r = rows[i]
            p = [r[j] for j in idx]
            row = p if row is None else list(map(quantale.meet, row, p))
        mat.append(tuple(row))
    return VCategory(quantale, states, mat)


def fibre_join(structures):
    """Least V-category structure pointwise-above all the given ones.

    One Floyd-Warshall pass over the pointwise join (Lehmann, TCS 4, 1977):
    for each k, m[i][j] v= m[i][k] (x) m[k][k]* (x) m[k][j]; then the unit
    joins the diagonal.  Exact under the quantale laws; since the tensor
    preserves joins, bottom (x) v is bottom and rows with m[i][k] bottom skip.
    """
    if not structures:
        raise ConsistencyError("fibre_join needs at least one structure")
    first = structures[0]
    q, states = first.quantale, first.states
    for s in structures[1:]:
        if s.quantale != q or s.states != states:
            raise ConsistencyError("fibre_join inputs on different carriers")
    join, join_all, tensor, unit, bot = q.join, q.join_all, q.tensor, q.unit, q.bottom
    if len(structures) == 1:  # the common case, and its join is itself
        mat = list(map(list, first.matrix))
    else:
        mat = [list(map(join_all, zip(*rows)))
               for rows in zip(*(s.matrix for s in structures))]
    for k, row_k in enumerate(mat):
        # the star of m[k][k]: least s = unit v s (x) m[k][k]; unit if unit is top
        star = unit
        while (nxt := join(unit, tensor(star, row_k[k]))) != star:
            star = nxt
        via = [tensor(star, v) for v in row_k]
        for row in mat:
            u = row[k]
            if u != bot:
                row[:] = [join(a, tensor(u, b)) for a, b in zip(row, via)]
    for i, row in enumerate(mat):
        row[i] = join(row[i], unit)
    return VCategory(q, states, mat)


# -- enumeration --------------------------------------------------------


def vfunctors_between(x, y):
    """Every structure-preserving map x -> y, in lexicographic mapping order.
    More than VFUNCTOR_MAP_CAP candidate maps raise CapExceeded before any
    is built."""
    size = len(y.states) ** len(x.states) if x.states else 1
    if size > VFUNCTOR_MAP_CAP:
        raise CapExceeded("vfunctors_between candidate maps", size, VFUNCTOR_MAP_CAP)
    out = []
    for mapping in iproduct(y.states, repeat=len(x.states)):
        f = VFunctor(x, y, mapping)
        if is_vfunctor(f):
            out.append(f)
    return out
