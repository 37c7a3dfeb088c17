"""Independent routes that the tests compare with the library, and the
only module of the tests that looks at the type of a functor node.

Each route computes a construction the library also computes, by a
different and more direct method: the lifted structure on the full
powerset, read off the Hausdorff formula and as the initial lift of the
cone of all V-functors into the quantale; the lax powerset extension of a
V-relation on every subset, with its three laws read off whole relations,
against the ``HComp`` node's ``matrix`` and
``coalg.check_lax_extension_laws``; down-closures in the dual; the
symmetric Hausdorff value; initiality of a cone read off the pointwise-meet
formula, computed here cell by cell rather than by
``vcat.initial_structure``, which is the library route it checks; the
least V-category structure above a matrix by repeated squaring, against
``vcat.fibre_join``'s single pass; every V-category structure on a small
carrier, by trying every matrix; the totally-below relation by a search
over all subsets, against ``quantale.totally_below``'s closed form; the
cone of all V-functors into ``V^op``, against ``vcat.is_separated``; the
Lawvere order and lattice operations in ``Fraction``'s own operators,
against ``quantale.LawvereQuantale``'s cross-multiplied comparisons; F on a
V-functor by a walk of each term as a tree, whose value at the identity is
the normal form, against ``coalg.eval_mor`` and ``coalg.normalize_term``,
which read them through the node tables; the lax extension of a functor
one entry at a time, by a walk of the two terms, with the initial-lift
descent that steps one pair at a time through it, against the whole
matrices of ``coalg.lift_descent``; and the largest sub-coalgebra on which
two maps agree, by a search over all subsets, against ``coalg.equalizer``.
The set-level term walks at the end (every term, a drawn term, F on a
map of sets) feed the tests their instances.
"""

from itertools import product as iproduct

from quantcat.coalg import (Const, Id, Prod, Sum, _fixed, _misshapen, _normal_form,
                            _term_text, eval_obj)
from quantcat.errors import CapExceeded, ConsistencyError
from quantcat.hausdorff import _ids, hausdorff_distance, hausdorff_lift, up_closure
from quantcat.quantale import INF, LawvereQuantale
from quantcat.vcat import (VCategory, VFunctor, VRelation, as_vcategory, dual, is_vcategory,
                           restrict, vfunctors_between)


def down_closure(x, subset):
    """Up-closure taken in the dual category."""
    return up_closure(dual(x), subset)


def symmetric_hausdorff(x, a_set, b_set):
    """Meet of the two one-sided values; the symmetric distance over Lawvere."""
    return x.quantale.meet(
        hausdorff_distance(x, a_set, b_set), hausdorff_distance(x, b_set, a_set)
    )


# The full powerset has 2^n members and its lifted matrix 4^n cells, so the
# oracles refuse carriers past this size.
POWERSET_CARRIER_CAP = 12


def _guard_powerset(x):
    if len(x.states) > POWERSET_CARRIER_CAP:
        raise CapExceeded("powerset oracle carrier", len(x.states), POWERSET_CARRIER_CAP)


def powerset_lift(x):
    """The lifted structure on the full powerset, in ascending mask order."""
    _guard_powerset(x)
    subsets = [_ids(x, m) for m in range(1 << len(x.states))]
    mat = [[hausdorff_distance(x, a, b) for b in subsets] for a in subsets]
    return VCategory(x.quantale, subsets, mat)


def _all_subsets(states):
    """Every subset of ``states``, listed by mask m from 0 to 2^n - 1, where
    bit i of m picks the i-th state."""
    return [frozenset(s for i, s in enumerate(states) if m >> i & 1)
            for m in range(1 << len(states))]


def powerset_extension(r):
    """The lax powerset extension of a V-relation on every subset of its
    source and target, in ascending mask order, one entry at a time by the
    meet-of-joins formula."""
    src, tgt = _all_subsets(r.source_states), _all_subsets(r.target_states)
    lift = hausdorff_lift(r.quantale, r.r)
    return VRelation(r.quantale, src, tgt, [[lift(a, b) for b in tgt] for a in src])


def _converse(r):
    return VRelation(r.quantale, r.target_states, r.source_states,
                     [[row[j] for row in r.matrix] for j in range(len(r.target_states))])


def _composite(r, s):
    """r;s: (x, z) goes to the join over y of r(x, y) (x) s(y, z)."""
    q = r.quantale
    columns = _converse(s).matrix
    return VRelation(q, r.source_states, s.target_states, [
        [q.join_all(map(q.tensor, row, col)) for col in columns] for row in r.matrix])


def powerset_extension_laws(r, r2, s, mapping):
    """The verdicts of the three lax-extension laws (monotone, composition,
    graph) for ``powerset_extension``, each read off whole relations on
    every subset; the graph law reads the direct image of each subset."""
    q = r.quantale

    def below(m, n):
        return all(q.leq(u, v) for row, bound in zip(m.matrix, n.matrix)
                   for u, v in zip(row, bound))

    er = powerset_extension(r)
    monotone = below(er, powerset_extension(r2))
    composition = below(_composite(er, powerset_extension(s)),
                        powerset_extension(_composite(r, s)))
    graph = VRelation(q, r.source_states, r.target_states,
                      [[q.unit if mapping[x] == y else q.bottom for y in r.target_states]
                       for x in r.source_states])
    eg, eop = powerset_extension(graph), powerset_extension(_converse(graph))
    images = [(a, frozenset(map(mapping.__getitem__, a))) for a in eg.source_states]
    graph_ok = all(q.leq(q.unit, eg.r(a, b)) and q.leq(q.unit, eop.r(b, a)) for a, b in images)
    return monotone, composition, graph_ok


def generic_powerset_lift(x):
    """Powerset structure computed as the initial lift of the meet-composite
    cone over all V-functors into the quantale: the oracle route.

    Pa(A, B) = meet over psi of hom(meet psi(A), meet psi(B)).
    """
    q = x.quantale
    _guard_powerset(x)
    psis = vfunctors_between(x, as_vcategory(q))
    subsets = [_ids(x, m) for m in range(1 << len(x.states))]
    meets = [
        [q.meet_all(psi(s) for s in a) for a in subsets]
        for psi in psis
    ]
    mat = [
        [
            q.meet_all(q.hom(meets[p][ia], meets[p][ib]) for p in range(len(psis)))
            for ib in range(len(subsets))
        ]
        for ia in range(len(subsets))
    ]
    return VCategory(q, subsets, mat)


def is_initial_cone(legs, source=None):
    """True iff the common source structure equals the pointwise meet formula:
    a(s, t) is the meet over the legs f of b(f s, f t), and top for no legs."""
    if legs:
        source = legs[0].source
        if any(f.source != source for f in legs):
            raise ConsistencyError("cone legs have different sources")
    elif source is None:
        raise ConsistencyError("empty cone needs an explicit source")
    q = source.quantale
    return all(
        source.a(s, t) == q.meet_all(f.target.a(f(s), f(t)) for f in legs)
        for s in source.states for t in source.states
    )


def squaring_closure(structures):
    """Least V-category structure above the pointwise join of the inputs:
    iterate a <- a v (a . a) v diag(k) until nothing changes.  The iterates
    ascend and stay below the closure, so the loop ends on every finite
    lattice; over Lawvere, whose unit is top, after about log2 n rounds."""
    first = structures[0]
    q, states = first.quantale, first.states
    n = len(states)
    mat = [
        [q.join_all(s.matrix[i][j] for s in structures) for j in range(n)]
        for i in range(n)
    ]
    while True:
        nxt = [
            [
                q.join(
                    q.join(
                        mat[i][j],
                        q.join_all(q.tensor(mat[i][l], mat[l][j]) for l in range(n)),
                    ),
                    q.unit if i == j else q.bottom,
                )
                for j in range(n)
            ]
            for i in range(n)
        ]
        if nxt == mat:
            return VCategory(q, states, mat)
        mat = nxt


def totally_below_by_subsets(q):
    """Pairs (u, v) of a finite table such that every subset S with
    v <= join(S) holds some s with u <= s, found by joining all 2^n
    subsets."""
    els = q.elements
    n = len(els)
    joins = [q.bottom] * (1 << n)
    for m in range(1, 1 << n):
        low = (m & -m).bit_length() - 1
        joins[m] = q.join(joins[m & (m - 1)], els[low])
    above = {u: sum(1 << i for i, s in enumerate(els) if q.leq(u, s)) for u in els}
    rel = set()
    for v in els:
        masks = [m for m in range(1 << n) if q.leq(v, joins[m])]
        rel.update((u, v) for u in els if all(m & above[u] for m in masks))
    return rel


def priestley_cone(x):
    """Does the cone of all V-functors from x into the dual of its
    (finite-table) quantale separate points, and is it initial?  Returns
    (separating and initial, {"maps", "separating", "initial"}), with
    initiality read cell by cell off the pointwise-meet formula."""
    q = x.quantale
    vop = dual(as_vcategory(q))
    cone = vfunctors_between(x, vop)
    separating = all(any(psi(s) != psi(t) for psi in cone)
                     for s in x.states for t in x.states if s != t)
    initial = all(x.a(s, t) == q.meet_all(vop.a(psi(s), psi(t)) for psi in cone)
                  for s in x.states for t in x.states)
    return separating and initial, {"maps": len(cone), "separating": separating,
                                    "initial": initial}


class FractionLawvere:
    """The Lawvere quantale's order, lattice operations and tensor through
    ``Fraction``'s operators: ``>=``, ``min``, ``max``, ``<``, ``>`` and ``+``.
    Ties keep the first operand, as ``min`` and ``max`` do, and the folds
    stop at top (join) and bottom (meet)."""

    @staticmethod
    def leq(u, v):
        if u is INF:
            return True
        if v is INF:
            return False
        return u >= v

    @staticmethod
    def join(u, v):
        if u is INF:
            return v
        if v is INF:
            return u
        return min(u, v)

    @staticmethod
    def meet(u, v):
        if u is INF or v is INF:
            return INF
        return max(u, v)

    @staticmethod
    def join_all(items):
        out = INF
        for x in items:
            if x is not INF and (out is INF or x < out):
                out = x
                if out == 0:
                    break
        return out

    @staticmethod
    def meet_all(items):
        out = LawvereQuantale.top
        for x in items:
            if x is INF:
                return INF
            if x > out:
                out = x
        return out

    @staticmethod
    def tensor(u, v):
        if u is INF or v is INF:
            return INF
        return u + v


def tree_image(expr, f, term):
    """F(f) at one set-level term, for f a V-functor, by a walk of the term
    as a tree; at the identity it is the normal form.  Each node checks the
    shape of its term and maps the parts where they occur, so a subterm
    that several sets share is walked once for each; an H node up-closes
    the set of its mapped members in the inner object at f's target.  A
    leaf that is not a state of its category, an unhashable one included,
    or a term not shaped like the functor, raises ConsistencyError with the
    library's text."""
    if isinstance(expr, (Id, Const)):
        home = f.source if isinstance(expr, Id) else expr.category
        try:
            known = term in home
        except TypeError:
            known = False
        if not known:
            raise ConsistencyError(f"term leaf {_term_text(term)} is not a state of its category")
        return f(term) if isinstance(expr, Id) else term
    if isinstance(expr, Prod):
        if not (isinstance(term, tuple) and len(term) == len(expr.parts)):
            raise _misshapen(expr, term)
        return tuple(tree_image(p, f, u) for p, u in zip(expr.parts, term))
    if isinstance(expr, Sum):
        if not (isinstance(term, tuple) and len(term) == 2 and type(term[0]) is int
                and term[0] in range(len(expr.parts))):
            raise _misshapen(expr, term)
        return (term[0], tree_image(expr.parts[term[0]], f, term[1]))
    if not isinstance(term, frozenset):
        raise _misshapen(expr, term)
    return up_closure(eval_obj(expr.inner, f.target),
                      {tree_image(expr.inner, f, t) for t in term})


def tree_eval_mor(expr, f):
    """F(f) as a V-functor, each element of F at f's source mapped by ``tree_image``."""
    src, tgt = eval_obj(expr, f.source), eval_obj(expr, f.target)
    return VFunctor(src, tgt, [tree_image(expr, f, t) for t in src.states])


def in_functor(expr, cat, term):
    """Does F(id_cat) fix the term, that is, is it an element of F(cat)?"""
    return _fixed(_normal_form(expr, cat), term)


def entry_lift(expr, q, r):
    """The lax extension of the functor applied to r, a V-relation given as
    a function on base terms, as a function on pairs of set-level terms:
    r itself at Id, the constant's structure at Const, the meet over the
    components at Prod, the branch's value or bottom at Sum, and at H the
    meet over the second set of the joins over the first."""
    if isinstance(expr, Id):
        return r
    if isinstance(expr, Const):
        return expr.category.a
    parts = [entry_lift(p, q, r) for p in expr.parts]
    if isinstance(expr, Prod):
        return lambda s, t: q.meet_all(d(u, v) for d, u, v in zip(parts, s, t))
    if isinstance(expr, Sum):
        return lambda s, t: parts[s[0]](s[1], t[1]) if s[0] == t[0] else q.bottom
    return lambda s, t: q.meet_all(q.join_all(parts[0](a, b) for a in s) for b in t)


def pairwise_descent(expr, quantale, states, structure):
    """The initial-lift descent from the top structure, one pair at a time:
    each step takes d(s, t) to meet(d(s, t), F_d(c s, c t)) with F_d the
    ``entry_lift`` of d.  Yields every iterate, ending with the first one
    that a step leaves as it is.  The lift is monotone, so the iterates
    descend and the meet with d(s, t) changes none of them."""
    n = len(states)
    current = VCategory(quantale, states, [[quantale.top] * n] * n)
    while True:
        yield current
        d = entry_lift(expr, quantale, current.a)
        step = VCategory(quantale, states, [
            [quantale.meet(current.a(s, t), d(structure[s], structure[t])) for t in states]
            for s in states])
        if step == current:
            return
        current = step


def all_structures(q, states):
    """Every V-category structure on the carrier ``states``, by trying
    every matrix of quantale elements."""
    n = len(states)
    out = []
    for cells in iproduct(q.elements, repeat=n * n):
        cand = VCategory(q, states, [cells[i * n:(i + 1) * n] for i in range(n)])
        if is_vcategory(cand):
            out.append(cand)
    return out


def largest_agreeing_subcoalgebra(cx, f, g):
    """The carrier of the largest sub-coalgebra on which f and g agree, by a
    search over every subset of states for those on which they agree and
    whose structure terms lie in F of the full subcategory: the first
    largest in mask order, or None when another such subset is not inside
    it."""
    states = cx.carrier.states
    admissible = []
    for mask in range(1 << len(states)):
        keep = [s for i, s in enumerate(states) if mask >> i & 1]
        if all(f(s) == g(s) for s in keep):
            fsub = eval_obj(cx.functor, restrict(cx.carrier, keep))
            if all(cx.structure[s] in fsub for s in keep):
                admissible.append(keep)
    best = max(admissible, key=len)
    return tuple(best) if all(set(other) <= set(best) for other in admissible) else None


def set_terms(expr, xs):
    """F(xs) on sets, every set-level term over ``xs``: an H node takes every
    set of its inner terms, not only the up-sets."""
    if isinstance(expr, Id):
        return list(xs)
    if isinstance(expr, Const):
        return list(expr.category.states)
    if isinstance(expr, Prod):
        return list(iproduct(*(set_terms(p, xs) for p in expr.parts)))
    if isinstance(expr, Sum):
        return [(b, t) for b, p in enumerate(expr.parts) for t in set_terms(p, xs)]
    inner = set_terms(expr.inner, xs)
    return [frozenset(t for i, t in enumerate(inner) if m >> i & 1)
            for m in range(1 << len(inner))]


def draw_set_term(rng, expr, states):
    """A set-level term of ``expr`` over ``states``: an H node takes up to
    three drawn inner terms, which need not form an up-set."""
    if isinstance(expr, Id):
        return rng.choice(states)
    if isinstance(expr, Const):
        return rng.choice(expr.category.states)
    if isinstance(expr, Prod):
        return tuple(draw_set_term(rng, p, states) for p in expr.parts)
    if isinstance(expr, Sum):
        b = rng.randrange(len(expr.parts))
        return (b, draw_set_term(rng, expr.parts[b], states))
    return frozenset(draw_set_term(rng, expr.inner, states) for _ in range(rng.randint(0, 3)))


def set_map(expr, f):
    """F(f) on sets for a dict f: direct images, with no up-closure, so it
    is not ``tree_image``, F on V-functors."""
    if isinstance(expr, Id):
        return f.__getitem__
    if isinstance(expr, Const):
        return lambda t: t
    parts = [set_map(p, f) for p in expr.parts]
    if isinstance(expr, Prod):
        return lambda t: tuple(m(u) for m, u in zip(parts, t))
    if isinstance(expr, Sum):
        return lambda t: (t[0], parts[t[0]](t[1]))
    return lambda t: frozenset(map(parts[0], t))
