"""Up-closures, increasing subsets, the Hausdorff functor and monad, the
lax powerset extension, and the no-embedding obstruction.

Subsets of a carrier are handled as bitmasks internally and exposed as
frozensets of state ids; the element order of every lifted object is the
ascending bitmask order, which keeps structural equality deterministic.
"""

from .errors import CapExceeded, ConsistencyError, DescriptorError, IterationGuard
from .quantale import AssumptionReport, LawEntry, Record
from .vcat import VCategory, VFunctor, VRelation

DEFAULT_CARRIER_CAP = 12
DEFAULT_COUNT_CAP = 4096


def _mask(x, subset):
    m = 0
    for s in subset:
        m |= 1 << x.index(s)
    return m


def _ids(x, mask):
    states = x.states
    out = []
    while mask:
        low = mask & -mask
        out.append(states[low.bit_length() - 1])
        mask ^= low
    return frozenset(out)


def _up_mask(x, mask):
    q = x.quantale
    out = 0
    if q.unit_join_prime:
        # k <= join of a(i, j) over A exactly when k <= a(i, j) for some i
        # in A, so the up-closure is the union of A's unit rows.
        rows = x.unit_rows()
        while mask:
            low = mask & -mask
            out |= rows[low.bit_length() - 1]
            mask ^= low
        return out
    for j in range(len(x.states)):
        v = q.join_all(x.matrix[i][j] for i in range(len(x.states)) if mask >> i & 1)
        if q.leq(q.unit, v):
            out |= 1 << j
    return out


def up_closure(x, subset):
    """Points whose distance-join from the subset lies above the unit."""
    return _ids(x, _up_mask(x, _mask(x, subset)))


def _guard_carrier(x, cap):
    if len(x.states) > cap:
        raise CapExceeded("subset enumeration carrier", len(x.states), cap)


def enumerate_increasing(x, cap=DEFAULT_CARRIER_CAP, count_cap=DEFAULT_COUNT_CAP):
    """All fixed points of the up-closure, in ascending bitmask order.

    Every fixed point is an up-set of the underlying order, so the order
    up-sets are enumerated and the fixed points among them kept.  The
    count cap bounds the order up-sets examined: more than ``count_cap``
    of them raises CapExceeded.  Over a totally ordered quantale with
    more than one element every order up-set is a fixed point, so this is
    also the number of fixed points; over other quantales it can be larger.
    """
    _guard_carrier(x, cap)
    masks = sorted(_order_upset_masks(x, count_cap))
    return [_ids(x, m) for m in masks if _up_mask(x, m) == m]


def _order_upset_masks(x, count_cap):
    """Bitmasks of all order up-sets, capped in number; a stack walk, so no recursion limit."""
    n = len(x.states)
    up = x.unit_rows()
    down = [0] * n
    for i in range(n):
        for j in range(n):
            if up[i] >> j & 1:
                down[j] |= 1 << i
    out = []
    full = (1 << n) - 1
    stack = [(0, 0)]
    while stack:
        in_mask, out_mask = stack.pop()
        undecided = full & ~in_mask & ~out_mask
        if not undecided:
            out.append(in_mask)
            if len(out) > count_cap:
                raise CapExceeded("increasing-subset count", len(out), count_cap)
            continue
        i = (undecided & -undecided).bit_length() - 1
        if not (down[i] & in_mask):
            stack.append((in_mask, out_mask | down[i]))
        if not (up[i] & out_mask):
            stack.append((in_mask | up[i], out_mask))
    return out


def hausdorff_distance(x, a_set, b_set):
    """The lifted structure value between two arbitrary subsets."""
    q = x.quantale
    join_all, index = q.join_all, x.index
    rows = [x.matrix[index(s)] for s in a_set]
    return q.meet_all(
        join_all([row[j] for row in rows]) for j in map(index, b_set)
    )


class HObject(Record):
    """The lifted category on increasing subsets, together with its base."""

    __slots__ = ("base", "elements", "category")

    def __init__(self, base, elements, category):
        self.base = base
        self.elements = elements
        self.category = category

    def __len__(self):
        return len(self.elements)

    def index(self, subset):
        return self.category.index(frozenset(subset))


def hausdorff_object(x, cap=DEFAULT_CARRIER_CAP, count_cap=DEFAULT_COUNT_CAP):
    """Increasing subsets of x with the lifted structure matrix."""
    q = x.quantale
    join_all, meet_all = q.join_all, q.meet_all
    elements = enumerate_increasing(x, cap=cap, count_cap=count_cap)
    index_sets = [list(map(x.index, a)) for a in elements]
    empty_join = [q.bottom] * len(x.states)
    mat = []
    for ai in index_sets:
        # join row first: one pass per source subset keeps the matrix cheap
        rows = [x.matrix[i] for i in ai]
        row_join = list(map(join_all, zip(*rows))) if rows else empty_join
        mat.append([meet_all(map(row_join.__getitem__, bi)) for bi in index_sets])
    return HObject(x, tuple(elements), VCategory(q, elements, mat))


def hausdorff_map(f, hx=None, hy=None):
    """The lifted map: an increasing subset goes to the up-closed image."""
    hx = hx or hausdorff_object(f.source)
    hy = hy or hausdorff_object(f.target)
    mapping = [up_closure(f.target, {f(s) for s in a}) for a in hx.elements]
    return VFunctor(hx.category, hy.category, mapping)


def monad_unit(x, hx=None):
    """x -> Hx sending a point to its up-closure."""
    hx = hx or hausdorff_object(x)
    return VFunctor(x, hx.category, [up_closure(x, {s}) for s in x.states])


def monad_mult(x, hx=None, hhx=None):
    """HHx -> Hx by union; the union of an increasing family is increasing."""
    hx = hx or hausdorff_object(x)
    hhx = hhx or hausdorff_object(hx.category)
    mapping = []
    for fam in hhx.elements:
        u = frozenset().union(*fam) if fam else frozenset()
        if u not in hx.category._index:
            raise ConsistencyError("union of an increasing family was not increasing")
        mapping.append(u)
    return VFunctor(hhx.category, hx.category, mapping)


# -- lax extension of the powerset functor ------------------------------


def lax_powerset_extension(r):
    """Extend a V-relation to all subsets by the meet-of-joins formula."""
    q = r.quantale
    src = _subsets(r.source_states)
    tgt = _subsets(r.target_states)
    ridx = {
        (s, t): r.matrix[i][j]
        for i, s in enumerate(r.source_states)
        for j, t in enumerate(r.target_states)
    }
    mat = [
        [q.meet_all(q.join_all(ridx[s, t] for s in a) for t in b) for b in tgt]
        for a in src
    ]
    return VRelation(q, src, tgt, mat)


def _subsets(states):
    """Every subset of ``states`` as a frozenset, listed by mask m from 0 to
    2^n - 1, where bit i of m picks the i-th state: the subsets with state i
    are those without it, in order, each joined by state i."""
    out = [frozenset()]
    for s in states:
        out += [a | {s} for a in out]
    return out


def lax_extension_monotone(r, r2):
    """r <= r2 pointwise implies the extensions compare pointwise."""
    q = r.quantale
    er, er2 = lax_powerset_extension(r), lax_powerset_extension(r2)
    w = next(
        ((a, b) for i, a in enumerate(er.source_states)
         for j, b in enumerate(er.target_states)
         if not q.leq(er.matrix[i][j], er2.matrix[i][j])),
        None,
    )
    return LawEntry("lax-monotone", w is None, w)


def lax_extension_composition(r, s):
    """Extension of the composite bounds the composite of extensions."""
    q = r.quantale
    if r.target_states != s.source_states:
        raise ConsistencyError("relations do not compose")
    comp = VRelation(
        q, r.source_states, s.target_states,
        [
            [
                q.join_all(
                    q.tensor(r.matrix[i][l], s.matrix[l][j])
                    for l in range(len(r.target_states))
                )
                for j in range(len(s.target_states))
            ]
            for i in range(len(r.source_states))
        ],
    )
    er, es, ec = (lax_powerset_extension(t) for t in (r, s, comp))
    mids = es.source_states
    w = None
    for i, a in enumerate(er.source_states):
        for j, c in enumerate(es.target_states):
            via = q.join_all(
                q.tensor(er.matrix[i][l], es.matrix[l][j]) for l in range(len(mids))
            )
            if not q.leq(via, ec.matrix[i][j]):
                w = (a, c)
                break
        if w:
            break
    return LawEntry("lax-composition", w is None, w)


def lax_extension_graph(q, mapping, source_states, target_states):
    """The extension dominates the direct-image graph and its converse."""
    k, bot = q.unit, q.bottom
    graph = VRelation(
        q, source_states, target_states,
        [[k if mapping[s] == t else bot for t in target_states] for s in source_states],
    )
    op = VRelation(
        q, target_states, source_states,
        [[k if mapping[s] == t else bot for s in source_states] for t in target_states],
    )
    eg, eop = lax_powerset_extension(graph), lax_powerset_extension(op)
    w = None
    for a in eg.source_states:
        image = frozenset(mapping[s] for s in a)
        if not q.leq(k, eg.matrix[eg.source_states.index(a)][eg.target_states.index(image)]):
            w = ("graph", tuple(sorted(map(str, a))))
            break
        if not q.leq(k, eop.matrix[eop.source_states.index(image)][eop.target_states.index(a)]):
            w = ("converse", tuple(sorted(map(str, a))))
            break
    return LawEntry("lax-graph", w is None, w)


def check_lax_extension_laws(r, r2, s, q, mapping, source_states, target_states):
    """Bundle the three lax-extension axioms into one report."""
    return AssumptionReport((
        lax_extension_monotone(r, r2),
        lax_extension_composition(r, s),
        lax_extension_graph(q, mapping, source_states, target_states),
    ))


# -- strict order and the no-embedding argument --------------------------


def strict_less(x, s, t):
    """s strictly below t: unit below a(s, t) while a(t, s) is bottom."""
    q = x.quantale
    return q.leq(q.unit, x.a(s, t)) and x.a(t, s) == q.bottom


def strict_up(x, s):
    """The strictly-above set of a point; always increasing."""
    return frozenset(t for t in x.states if strict_less(x, s, t))


class EmbeddingVerdict(Record):
    """Why a candidate map from the lifted object back to the base fails
    to be an embedding.

    ``contradiction-witness`` carries a point whose up-set equals its
    strictly-above set, which cannot happen over a non-trivial quantale;
    seeing it means the input data was inconsistent.
    """

    __slots__ = ("kind", "subsets", "point", "values")

    def __init__(self, kind, subsets=None, point=None, values=None):
        self.kind = kind
        self.subsets = subsets
        self.point = point
        self.values = values


def cantor_check(x, phi, hx=None):
    """Produce a witness that phi: Hx -> x is not an embedding.

    ``phi`` maps increasing subsets (frozensets) to states, given as a dict
    or as a sequence aligned with the lifted element order.  Embedding is
    taken as injective plus initial (exact matrix equality).
    """
    if x.quantale.trivial:
        raise DescriptorError("no-embedding witnesses need a non-trivial quantale")
    hx = hx or hausdorff_object(x)
    if isinstance(phi, dict):
        images = [phi[a] for a in hx.elements]
    else:
        images = list(phi)
    if len(images) != len(hx.elements):
        raise ConsistencyError("phi does not cover the lifted carrier")
    for v in images:
        if v not in x._index:
            raise ConsistencyError(f"phi hits unknown state {v!r}")

    seen = {}
    for a, v in zip(hx.elements, images):
        if v in seen:
            return EmbeddingVerdict("not-injective", subsets=(seen[v], a), point=v)
        seen[v] = a

    n = len(hx.elements)
    for i in range(n):
        for j in range(n):
            lifted = hx.category.matrix[i][j]
            base = x.a(images[i], images[j])
            if lifted != base:
                return EmbeddingVerdict(
                    "not-initial",
                    subsets=(hx.elements[i], hx.elements[j]),
                    values=(lifted, base),
                )

    # Injective and initial: compute the greatest fixed point of
    # I |-> up-closure of phi(I) by descending iteration from the full
    # carrier, then report the impossible witness point.
    image_of = dict(zip(hx.elements, images))
    current = frozenset(x.states)
    for _ in range(n + 2):
        nxt = up_closure(x, {image_of[current]})
        if nxt == current:
            pt = image_of[current]
            return EmbeddingVerdict(
                "contradiction-witness", subsets=(current,), point=pt,
                values=(up_closure(x, {pt}), strict_up(x, pt)),
            )
        current = nxt
    raise IterationGuard("greatest-fixed-point iteration did not stabilize")
