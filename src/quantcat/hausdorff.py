"""Up-closures, increasing subsets, H on V-relations, the Hausdorff functor
and monad, and the no-embedding obstruction.  H's lax extension to
V-relations is the ``HComp`` node's ``matrix`` in ``coalg``, whose laws
``coalg.check_lax_extension_laws`` checks for every functor node.

Subsets of a carrier are handled as bitmasks internally and exposed as
frozensets of state ids; the element order of every lifted object is the
ascending bitmask order, which keeps structural equality deterministic.
"""

from .errors import CapExceeded, ConsistencyError, DescriptorError, IterationGuard
from .quantale import Record
from .vcat import VCategory, VFunctor

DEFAULT_COUNT_CAP = 4096


def _bits(mask):
    """The positions of the set bits of ``mask``, lowest first."""
    out = []
    while mask:
        low = mask & -mask
        out.append(low.bit_length() - 1)
        mask ^= low
    return out


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
    return _ids(x, _up_mask(x, sum({1 << x.index(s) for s in subset})))


class UpSets(list):
    """The increasing subsets of the V-category ``base`` as frozensets, in
    ascending bitmask order, with their bitmasks ``masks``."""

    __slots__ = ("base", "masks")

    def __init__(self, base, masks):
        super().__init__(_ids(base, m) for m in masks)
        self.base, self.masks = base, masks


def enumerate_increasing(x, count_cap=DEFAULT_COUNT_CAP):
    """All fixed points of the up-closure as ``UpSets``.  Each is an up-set
    of the underlying order, so the order up-sets are enumerated and the
    fixed points kept; more than ``count_cap`` order up-sets raise
    CapExceeded, whatever the carrier's size.  Over a totally ordered
    quantale with more than one element every order up-set is a fixed
    point; over other quantales there can be more up-sets than fixed points."""
    masks = sorted(_order_upset_masks(x, count_cap))
    return UpSets(x, [m for m in masks if _up_mask(x, m) == m])


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


def hausdorff_lift(q, d):
    """H on a V-relation d given as a function: (A, B) goes to the meet
    over b in B of the join over a in A of d(a, b).  The one place this
    formula is written; ``hausdorff_distance`` and the ``matrix`` of the
    ``HComp`` node of ``coalg``, H's lax extension, read it, and
    ``lifted_matrix`` is checked against it."""
    meet_all, join_all = q.meet_all, q.join_all
    return lambda a_set, b_set: meet_all(join_all(d(a, b) for a in a_set) for b in b_set)


def hausdorff_distance(x, a_set, b_set):
    """The lifted structure value between two arbitrary subsets."""
    return hausdorff_lift(x.quantale, x.a)(a_set, b_set)


class HObject(Record):
    """The lifted category on increasing subsets, with those subsets."""

    __slots__ = ("elements", "category")

    def __init__(self, elements, category):
        self.elements = elements
        self.category = category

    def __len__(self):
        return len(self.elements)


def hausdorff_object(x, count_cap=DEFAULT_COUNT_CAP, elements=None):
    """Increasing subsets of x with the lifted structure matrix; the
    enumeration's ``count_cap`` is the one bound on its size.  ``elements``,
    when given, are the increasing subsets as ``enumerate_increasing``
    returned them for x, and are not enumerated again."""
    if elements is None:
        elements = enumerate_increasing(x, count_cap=count_cap)
    return HObject(tuple(elements), VCategory(x.quantale, elements, lifted_matrix(elements)))


def lifted_matrix(upsets):
    """The meet-of-joins matrix on the ``UpSets`` of a V-category, each
    entry grown from a smaller up-set's entry.  A non-empty up-set A is A'
    with a minimal class c of equivalent states added, and A' is again an
    up-set.  In a V-category equivalent states have equal rows and columns,
    since a(i, b) <= a(i, b) (x) a(b, b') <= a(i, b').  So the row join of
    A, the join over a in A of row a, is that of A' joined with the row of
    any state s of c; and for an up-set B = B' with c added, the meet of a
    row join over B is its meet over B' met with its entry at s.  The s
    taken is the first state of A whose up-set is largest, and the parents
    of the given up-sets are filled first, so N up-sets over n states cost
    O(N n + N^2) lattice operations, not O(N^2 n).  Every parent is an
    order up-set, so there are at most as many as the enumeration walked."""
    x, masks = upsets.base, upsets.masks
    q = x.quantale
    up = x.unit_rows()
    size = [row.bit_count() for row in up]
    classes = {}
    for i, row in enumerate(up):
        classes[row] = classes.get(row, 0) | 1 << i
    # each up-set to fill: its parent and the state whose class it adds
    grown = {}
    todo = list(masks)
    while todo:
        m = todo.pop()
        if m and m not in grown:
            s = max(_bits(m), key=size.__getitem__)
            grown[m] = (m & ~classes[up[s]], s)
            todo.append(grown[m][0])
    # a parent is a subset, so a smaller number: ascending order fills it first
    order = sorted(grown)
    joins = {0: (q.bottom,) * len(up)}
    for m in order:
        parent, s = grown[m]
        joins[m] = list(map(q.join, joins[parent], x.matrix[s]))
    # one column of the lifted matrix per up-set, all rows at once
    at_state = list(zip(*map(joins.__getitem__, masks)))
    columns = {0: (q.top,) * len(masks)}
    for m in order:
        parent, s = grown[m]
        columns[m] = list(map(q.meet, columns[parent], at_state[s]))
    return list(zip(*map(columns.__getitem__, masks)))


def hausdorff_map(f, hx=None, hy=None):
    """The lifted map: an increasing subset goes to the up-closed image."""
    hx = hx or hausdorff_object(f.source)
    hy = hy or hausdorff_object(f.target)
    return VFunctor(hx.category, hy.category,
                    [hausdorff_image(f.target, f, a) for a in hx.elements])


def hausdorff_image(y, f, subset):
    """H on maps at one subset: the up-closure in y of its image under the
    callable f.  ``hausdorff_map`` and the ``HComp`` node of ``coalg`` both
    map through it, so H acts on maps by this one definition."""
    return up_closure(y, map(f, subset))


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
