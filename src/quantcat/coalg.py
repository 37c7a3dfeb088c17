"""Hausdorff polynomial functors, their coalgebras, final chains,
behavioural distances, equalizers, and initial lifts of coalgebra cones.

Functor expressions are ASTs over Id, Const, Prod, Sum and HComp (compose
with the Hausdorff lifting).  Elements of F(X) are plain structural terms:
carrier states, constant points, tuples, tagged pairs (branch, term) and
frozensets of inner terms.  Each node class says what F does there:
``elements`` lists F's elements on a V-category, ``matrix`` is its lax
extension of a V-relation as a whole matrix on two lists of terms,
``image`` maps a term along a map, ``shaped`` tells whether a term has its
shape, and ``load`` and ``dump`` read and write a term's JSON form.
F(X) is its elements under the matrix of X's structure, kept on X by node,
and ``check_lax_extension_laws`` checks that every node's matrix is a lax
extension.
F(f) keeps one table per node for a call, so a shared term is mapped once;
an H node up-closes by ``hausdorff.hausdorff_image``.  A normal form is
F(id), and F(X) holds the terms it fixes.  One initial-lift step,
meet(d(s, t), F_d(c s, c t)), reads the matrix of d on the distinct
structure terms: ``lift_descent`` iterates it, ``distance_table`` and
``behavioral_distance`` read its iterates from the empty cone, and
``check_coalgebra`` asks whether it fixes the carrier, so none of them
builds F(X) or a chain level.  A cap bounds only what a call builds.
"""

import functools
import json
import math
from itertools import islice, product as iproduct

from .errors import (CapExceeded, ConsistencyError, DescriptorError, LawFailure,
                     require_fields)
from .quantale import AssumptionReport, LawEntry, Record
from .vcat import (
    VCategory,
    VFunctor,
    VRelation,
    check_vcategory,
    discrete,
    initial_structure,
    is_vfunctor,
    restrict,
    terminal,
)
from . import hausdorff as hd


# -- functor expressions -------------------------------------------------


def _term_text(term):
    """The repr of a term with the elements of each set payload sorted, so
    that the text does not depend on the hash seed."""
    if isinstance(term, frozenset):
        if not term:
            return "frozenset()"
        return "frozenset({" + ", ".join(sorted(map(_term_text, term))) + "})"
    if isinstance(term, tuple):
        inner = ", ".join(map(_term_text, term))
        return f"({inner},)" if len(term) == 1 else f"({inner})"
    return repr(term)


def _leaf(home, term):
    if term not in home:
        raise ConsistencyError(
            f"term leaf {_term_text(term)} is not a state of its category")
    return term


def _known(home, spec, what):
    """A JSON leaf in ``home``; arrays and objects are refused before a dict lookup."""
    if isinstance(spec, (list, dict)) or spec not in home:
        raise DescriptorError(f"unknown {what} {spec!r}")
    return spec


_JSON_TEXT = functools.partial(json.dumps, sort_keys=True, default=str)


def _misshapen(expr, term):
    return ConsistencyError(f"term {_term_text(term)} does not have the shape of {expr!r}")


class _Node:
    """A functor AST node is a value: equal to a node of exactly its own
    type with equal parts, so Prod(p) != Sum(p).  Each node computes its
    hash once, since nodes key the functor values kept on a V-category.
    A node's matrix builds each part's matrix once, on the part terms, and
    combines them by the node's own formula."""

    __slots__ = ("parts", "_hash")

    def __init__(self, parts):
        self.parts = tuple(parts)
        self._hash = hash((self.parts,))

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return self.parts == other.parts
        return NotImplemented

    def __hash__(self):
        return self._hash


class Id(_Node):
    __slots__ = ()

    def __init__(self):
        super().__init__(())

    def __repr__(self):
        return "Id"

    def elements(self, x, cap):
        return x.states

    def matrix(self, q, a, rows, cols):
        return [[a(s, t) for t in cols] for s in rows]

    def image(self, fn, target, tables):
        return fn

    def load(self, spec, home):
        return _known(home, spec, "state")

    def dump(self, term):
        return term


class Const(_Node):
    __slots__ = ("category",)

    def __init__(self, category):
        self.parts, self.category, self._hash = (), category, hash((category,))

    def __eq__(self, other):
        if other.__class__ is Const:
            return self.category is other.category or self.category == other.category
        return NotImplemented

    __hash__ = _Node.__hash__

    def __repr__(self):
        return f"Const({len(self.category.states)})"

    def elements(self, x, cap):
        if self.category.quantale != x.quantale:
            raise ConsistencyError("constant category over a different quantale")
        return self.category.states

    def matrix(self, q, a, rows, cols):
        return Id().matrix(q, self.category.a, rows, cols)

    def image(self, fn, target, tables):
        return functools.partial(_leaf, self.category)

    def load(self, spec, home):
        return _known(self.category, spec, "constant point")

    def dump(self, term):
        return term


class _Elements(list):
    """F's elements on the V-category ``carrier`` at a node with parts, with
    the lists they are built from: each part's elements, or H's up-sets.
    A node's matrix on its own elements reads each part's matrix on the
    part's own, so an H node below fills its matrix incrementally."""

    __slots__ = ("carrier", "parts")

    def __init__(self, carrier, terms, parts):
        super().__init__(terms)
        self.carrier, self.parts = carrier, parts


def _component(terms, k):
    """The distinct k-th components of the terms, first seen first, or the
    k-th part's own elements when the terms are their product's; and the
    position of each term's component among them."""
    own = terms.parts[k] if isinstance(terms, _Elements) else [*dict.fromkeys(t[k] for t in terms)]
    index = {u: i for i, u in enumerate(own)}
    return [index[t[k]] for t in terms], own


class Prod(_Node):
    __slots__ = ()

    def __repr__(self):
        return f"Prod{self.parts}"

    def elements(self, x, cap):
        parts = [p.elements(x, cap) for p in self.parts]
        size = math.prod(map(len, parts))
        if size > cap:
            raise CapExceeded("product carrier", size, cap)
        return _Elements(x, iproduct(*parts), parts)

    def matrix(self, q, a, rows, cols):
        """The meet of the parts' matrices, each read at the components."""
        out = [[q.top] * len(cols) for _ in rows] if not self.parts else None
        for k, p in enumerate(self.parts):
            ri, rs = _component(rows, k)
            ci, cs = (ri, rs) if cols is rows else _component(cols, k)
            m = p.matrix(q, a, rs, cs)
            block = ([row[j] for j in ci] for row in map(m.__getitem__, ri))
            out = (list(block) if out is None
                   else [list(map(q.meet, u, v)) for u, v in zip(out, block)])
        return out

    def shaped(self, term):
        return isinstance(term, tuple) and len(term) == len(self.parts)

    def image(self, fn, target, tables):
        parts = [_table(p, fn, target, tables) for p in self.parts]
        return lambda term: tuple([t(u) for t, u in zip(parts, term)])

    def load(self, spec, home):
        if not isinstance(spec, list) or len(spec) != len(self.parts):
            raise DescriptorError("product term arity mismatch")
        return tuple(p.load(u, home) for p, u in zip(self.parts, spec))

    def dump(self, term):
        return [p.dump(u) for p, u in zip(self.parts, term)]


class Sum(_Node):
    __slots__ = ()

    def __repr__(self):
        return f"Sum{self.parts}"

    def elements(self, x, cap):
        parts = [p.elements(x, cap) for p in self.parts]
        size = sum(map(len, parts))
        if size > cap:
            raise CapExceeded("sum carrier", size, cap)
        return _Elements(x, ((b, s) for b, p in enumerate(parts) for s in p), parts)

    def matrix(self, q, a, rows, cols):
        """Each branch's matrix on its block, bottom between branches."""
        out = [[q.bottom] * len(cols) for _ in rows]
        for b, p in enumerate(self.parts):
            (ri, rs), (ci, cs) = _branch(rows, b), _branch(cols, b)
            for i, row in zip(ri, p.matrix(q, a, rs, cs)):
                for j, v in zip(ci, row):
                    out[i][j] = v
        return out

    def shaped(self, term):
        # a bool or a float equals an int branch, so only an int is one
        return (isinstance(term, tuple) and len(term) == 2 and type(term[0]) is int
                and 0 <= term[0] < len(self.parts))

    def image(self, fn, target, tables):
        parts = [_table(p, fn, target, tables) for p in self.parts]
        return lambda term: (term[0], parts[term[0]](term[1]))

    def load(self, spec, home):
        require_fields(spec, ("branch", "term"), what="sum term")
        b = spec["branch"]
        # JSON true is a bool, which is an int
        if type(b) is not int or not 0 <= b < len(self.parts):
            raise DescriptorError(f"bad sum branch {b!r}")
        return (b, self.parts[b].load(spec["term"], home))

    def dump(self, term):
        return {"branch": term[0], "term": self.parts[term[0]].dump(term[1])}


def _branch(terms, b):
    """The positions of the terms on branch b, and their branch terms: the
    branch's own elements when the terms are their sum's."""
    at = [i for i, t in enumerate(terms) if t[0] == b]
    return at, terms.parts[b] if isinstance(terms, _Elements) else [terms[i][1] for i in at]


class HComp(_Node):
    __slots__ = ()

    def __init__(self, inner):
        super().__init__((inner,))

    @property
    def inner(self):
        return self.parts[0]

    def __repr__(self):
        return f"H({self.inner!r})"

    def elements(self, x, cap):
        upsets = hd.enumerate_increasing(eval_obj(self.inner, x, cap), count_cap=cap)
        return _Elements(x, upsets, (upsets,))

    def matrix(self, q, a, rows, cols):
        """The meet-of-joins over the inner matrix on any sets of inner
        terms, which up-closure does not change.  On its own elements under
        their carrier's structure it is filled incrementally from the masks."""
        if rows is cols and isinstance(rows, _Elements) and rows.carrier.a == a:
            return hd.lifted_matrix(rows.parts[0])
        ri, ci = ({u: i for i, u in enumerate(dict.fromkeys(v for t in ts for v in t))}
                  for ts in (rows, cols))
        m = self.inner.matrix(q, a, list(ri), list(ci))
        lift = hd.hausdorff_lift(q, lambda u, v: m[ri[u]][ci[v]])
        return [[lift(s, t) for t in cols] for s in rows]

    def shaped(self, term):
        return isinstance(term, frozenset)

    def image(self, fn, target, tables):
        """The up-closed image under the inner node's map; the inner
        value at the target is read when a set is first mapped."""
        inner = _table(self.inner, fn, target, tables)
        return lambda term: hd.hausdorff_image(eval_obj(self.inner, target), inner, term)

    def load(self, spec, home):
        if not isinstance(spec, list):
            raise DescriptorError("set term must be a JSON array")
        return frozenset(self.inner.load(t, home) for t in spec)

    def dump(self, term):
        return sorted((self.inner.dump(t) for t in term), key=_JSON_TEXT)


def _nodes(expr):
    """The nodes of a functor, each before its parts, left to right."""
    yield expr
    for p in expr.parts:
        yield from _nodes(p)


# -- evaluation on objects and morphisms ---------------------------------


def eval_obj(expr, x, cap=hd.DEFAULT_COUNT_CAP):
    """The value of a polynomial functor on a V-category: F's elements on x
    with the lax extension of x's structure, F_V(X, a) = (FX, F a).  It is
    kept on x under its node, whatever cap built it, and freed with x."""
    values = x._functor_values
    if values is None:
        values = x._functor_values = {}
    fx = values.get(expr)
    if fx is None:
        q = x.quantale
        els = expr.elements(x, cap)
        fx = values[expr] = VCategory(q, els, expr.matrix(q, x.a, els, els))
    return fx


class _Table(dict):
    """F(f) at one functor node, filled on demand: a term asked for keys its
    image, so a term that many sets share is checked and mapped once."""

    __slots__ = ("node", "image")

    def __init__(self, node, image):
        super().__init__()
        self.node = node
        self.image = image

    def __missing__(self, term):
        if not self.node.shaped(term):
            raise _misshapen(self.node, term)
        out = self[term] = self.image(term)
        return out


def _table(expr, fn, target, tables):
    """F(f) at the node ``expr`` as a function on terms, for f the map
    ``fn`` into ``target``.  A node with parts looks its images up in its
    table, one per node for the call, kept in ``tables``; a leaf's image
    costs no more than a lookup."""
    if not expr.parts:
        return expr.image(fn, target, tables)
    table = tables.get(expr)
    if table is None:
        table = tables[expr] = _Table(expr, expr.image(fn, target, tables)).__getitem__
    return table


def _fmap(expr, fn, target, terms):
    """F(f) at the given terms, for f the map ``fn`` into ``target``: the
    only definition of F on maps.  Each node maps a term through its parts'
    maps, so no term is walked as a tree, and no value of F is built
    but the inner ones at ``target`` that up-closing an image reads."""
    return list(map(_table(expr, fn, target, {}), terms))


def eval_mor(expr, f):
    """The value of a polynomial functor on a V-functor."""
    src = eval_obj(expr, f.source)
    tgt = eval_obj(expr, f.target)
    return VFunctor(src, tgt, _fmap(expr, f, f.target, src.states))


def _int_branches(expr, term):
    """Raise, as a Sum table does, at a branch that is not an int: a table
    finds a term by equality, so (True, t) can hit the entry of (1, t)."""
    if isinstance(expr, Sum):
        if type(term[0]) is not int:
            raise _misshapen(expr, term)
        _int_branches(expr.parts[term[0]], term[1])
    elif expr.parts:
        pairs = zip(expr.parts, term) if isinstance(expr, Prod) else ((expr.inner, u) for u in term)
        for p, u in pairs:
            _int_branches(p, u)


def _normal_form(expr, cat):
    """F(id_cat) on set-level terms, one table per node for a batch: the normal
    form in F(cat).  A leaf outside its category or a term not shaped like
    the functor, an unhashable one or one with a branch that is not an int
    included, raises ConsistencyError."""
    table = _table(expr, functools.partial(_leaf, cat), cat, {})
    sums = any(isinstance(node, Sum) for node in _nodes(expr))

    def normal(term):
        try:
            hash(term)
        except TypeError:
            raise _misshapen(expr, term) from None
        out = table(term)
        if sums:
            _int_branches(expr, term)
        return out
    return normal


def _fixed(normal, term):
    try:
        return normal(term) == term
    except ConsistencyError:
        return False


def normalize_term(expr, cat, term):
    """The normal form of a set-level term in F(cat), its image under F(id_cat)."""
    return _normal_form(expr, cat)(term)


# -- the lax-extension laws ------------------------------------------------


def _first_above(q, rows, cols, m, bound):
    """The first (row, col) pair in row-major order where m is not below bound."""
    return next(((s, t) for s, u, v in zip(rows, m, bound)
                 for t, a, b in zip(cols, u, v) if not q.leq(a, b)), None)


def _then(q, m, n):
    """The composite of two matrices: a join of tensors over the middle."""
    columns = list(zip(*n))
    return [[q.join_all(map(q.tensor, row, col)) for col in columns] for row in m]


def check_lax_extension_laws(expr, r, r2, s, mapping):
    """The three axioms of a lax extension (Marti & Venema, JCSS 81(5),
    2015) for the node's ``matrix``, on V-relations r, r2 >= r and s and
    the map ``mapping`` from r's source states to its target states.
    F on sets is F's elements on discrete carriers: there every subset is
    an up-set and up-closure is the direct image, so H(Id) reads every
    subset and F(f) is F on sets.  Each witness is the first failing pair
    or term in element order."""
    q = r.quantale
    if r.target_states != s.source_states:
        raise ConsistencyError("relations do not compose")
    xs, ys, zs = (discrete(q, states)
                  for states in (r.source_states, r.target_states, s.target_states))
    fx, fy, fz = (expr.elements(c, hd.DEFAULT_COUNT_CAP) for c in (xs, ys, zs))
    fr = expr.matrix(q, r.r, fx, fy)
    monotone = _first_above(q, fx, fy, fr, expr.matrix(q, r2.r, fx, fy))
    rs = VRelation(q, r.source_states, s.target_states, _then(q, r.matrix, s.matrix))
    via = _then(q, fr, expr.matrix(q, s.r, fy, fz))
    composition = _first_above(q, fx, fz, via, expr.matrix(q, rs.r, fx, fz))

    def graph(u, v):
        return q.unit if mapping[u] == v else q.bottom

    images = _fmap(expr, mapping.__getitem__, ys, fx)
    ahead = expr.matrix(q, graph, fx, images)
    back = expr.matrix(q, lambda v, u: graph(u, v), images, fx)
    witness = next(((way, t) for i, t in enumerate(fx)
                    for way, m in (("graph", ahead), ("converse", back))
                    if not q.leq(q.unit, m[i][i])), None)
    return AssumptionReport((
        LawEntry("lax-monotone", monotone is None, monotone),
        LawEntry("lax-composition", composition is None, composition),
        LawEntry("lax-graph", witness is None, witness),
    ))


# -- coalgebras -----------------------------------------------------------


class Coalgebra:
    """A carrier V-category with a structure map into the functor value.

    The hash is computed at construction and ``distance_table`` keeps its
    last result on the coalgebra, so ``structure`` must not be mutated."""

    __slots__ = ("functor", "carrier", "structure", "_hash", "_tables")

    def __init__(self, functor, carrier, structure):
        self.functor = functor
        self.carrier = carrier
        self.structure = dict(structure)
        if set(self.structure) != set(carrier.states):
            raise ConsistencyError("structure map does not cover the carrier")
        self._hash = hash(
            (functor, carrier, tuple(self.structure[s] for s in carrier.states))
        )
        # (depth, distinct tables) of the last distance_table; not compared
        self._tables = None

    def __eq__(self, other):
        return (
            isinstance(other, Coalgebra)
            and self.functor == other.functor
            and self.carrier == other.carrier
            and self.structure == other.structure
        )

    def __hash__(self):
        return self._hash

    def __repr__(self):
        return f"Coalgebra({self.functor!r}, {len(self.carrier.states)} states)"


def _structure_fault(c):
    """Why the structure map does not land in F(X), or None.  It runs on
    every check, not once in ``Coalgebra.__init__``: a coalgebra built in
    code may hold terms outside F(X), which ``check_coalgebra`` reports as
    a failed law.  One table of normal forms serves all structure terms."""
    x = c.carrier
    if any(isinstance(n, Const) and n.category.quantale != x.quantale
           for n in _nodes(c.functor)):
        return "constant category over a different quantale"
    normal = _normal_form(c.functor, x)
    for t in map(c.structure.__getitem__, x.states):
        if not _fixed(normal, t):
            return f"mapping hits unknown target state {_term_text(t)}"


def _structure_terms(c, depth):
    """The structure terms in carrier order, for a walk to ``depth``; a
    negative depth or a structure outside F(X) raises ConsistencyError."""
    if depth < 0:
        raise ConsistencyError(f"depth {depth} is negative")
    fault = _structure_fault(c)
    if fault is not None:
        raise ConsistencyError(fault)
    return [c.structure[s] for s in c.carrier.states]


def check_coalgebra(c):
    """Report whether the structure map lands in F(X) and preserves structure.

    The structure map is a V-functor exactly when one initial-lift step
    from the carrier returns the carrier; the witness is the first pair,
    in row-major order, that the step lowers.  The step reads the lax
    extension ``matrix`` of the carrier on the structure terms, which
    up-closure does not change, so F(X) is never built."""
    fault = _structure_fault(c)
    if fault is not None:
        return AssumptionReport((LawEntry("structure-in-functor", False, (fault,)),))
    x = c.carrier
    step = _lift_step(c.functor, x, c.structure)
    w = next(
        ((s, t) for s, row, old in zip(x.states, step, x.matrix)
         for t, v, u in zip(x.states, row, old) if v != u),
        None,
    )
    return AssumptionReport((
        LawEntry("structure-in-functor", True),
        LawEntry("structure-morphism", w is None, w),
    ))


def _require(obj, report, what):
    bad = report.failures()
    if bad:
        raise LawFailure(f"{what} ({bad[0].law}, witness {bad[0].witness})", report)
    return obj


def require_carrier(x, where):
    """Return x if it is a V-category; else raise LawFailure, named by
    ``where``, with the first failing law and its witness."""
    return _require(x, check_vcategory(x), f"{where}: not a V-category")


def require_coalgebra(c, where):
    """Return c if its coalgebra laws hold, else raise LawFailure.  The
    carrier is taken to be a V-category, as ``load_coalgebra`` checks
    before it reads the terms."""
    return _require(c, check_coalgebra(c), f"{where}: not a coalgebra")


def is_coalg_hom(h, cx, cy):
    """h is a V-functor commuting with both structure maps."""
    if cx.functor != cy.functor:
        raise ConsistencyError("coalgebras over different functor expressions")
    if h.source != cx.carrier or h.target != cy.carrier:
        raise ConsistencyError("homomorphism endpoints do not match")
    if not is_vfunctor(h):
        return False
    states = cx.carrier.states
    images = _fmap(cx.functor, h, h.target, [cx.structure[s] for s in states])
    return all(image == cy.structure[t] for image, t in zip(images, h.mapping))


# -- the final chain ------------------------------------------------------


class ChainLevel(Record):
    """Level n of the final chain: the object F^n(1) and the connecting
    map p_n: F^n(1) -> F^(n-1)(1) from this level down to the one below;
    level 0 has ``connecting`` None."""

    __slots__ = ("index", "obj", "connecting")

    def __init__(self, index, obj, connecting):
        self.index = index
        self.obj = obj
        self.connecting = connecting


def final_chain(expr, depth, quantale=None, cap=hd.DEFAULT_COUNT_CAP):
    """Levels 0..depth of the chain 1 <- F(1) <- F(F(1)) <- ...

    Level n holds F^n(1) and p_n: F^n(1) -> F^(n-1)(1), with p_1 the map to
    the point and p_(n+1) = F(p_n).  Nothing above F^depth(1) is built, so
    ``cap`` bounds exactly the returned levels, which F(p_n) only reads.
    A negative depth raises ConsistencyError."""
    if depth < 0:
        raise ConsistencyError(f"depth {depth} is negative")
    q = next((n.category.quantale for n in _nodes(expr) if isinstance(n, Const)), quantale)
    if q is None:
        raise ConsistencyError("functor fixes no quantale; pass one explicitly")
    one = terminal(q)
    levels = [ChainLevel(0, one, None)]
    for n in range(1, depth + 1):
        below = levels[-1]
        obj = eval_obj(expr, below.obj, cap)
        if below.connecting is None:
            p = VFunctor(obj, one, ["*"] * len(obj.states))
        else:
            p = eval_mor(expr, below.connecting)
        levels.append(ChainLevel(n, obj, p))
    return levels


def behavior_map(c, depth):
    """Depth-indexed behaviour approximants beh_0 .. beh_depth, the cone
    from the coalgebra into its final chain: beh_0 is the map to the point
    and beh_{n+1} = F(beh_n) after the structure map, applied to the
    structure terms only, so F(X) is never built.  No distance is read off
    this cone; the tests compare it with ``distance_table``."""
    terms = _structure_terms(c, depth)
    x, expr = c.carrier, c.functor
    behs = [VFunctor(x, terminal(x.quantale), ["*"] * len(x.states))]
    for _ in range(depth):
        beh = behs[-1]
        level = eval_obj(expr, beh.target)
        behs.append(VFunctor(x, level, _fmap(expr, beh, beh.target, terms)))
    return behs


def behavioral_distance(c, x, y, depth, symmetric=False):
    """The entries at (x, y) of ``distance_table(c, depth)``: the distances
    between the behaviours of two states, one value per depth 0..depth,
    antitone along the chain.  With ``symmetric`` each value is met with
    the entry at (y, x) after the descent: the mutual-similarity distance,
    not the bisimulation distance, so two states that simulate each other
    read the unit though they need not be bisimilar."""
    meet = c.carrier.quantale.meet
    return [meet(d.a(x, y), d.a(y, x)) if symmetric else d.a(x, y)
            for d in distance_table(c, depth)]


def distance_table(c, depth):
    """The chain-level distances pulled back to the carrier: d_0 .. d_depth
    with d_k(s, t) = level_k(beh_k(s), beh_k(t)) for the cone of
    ``behavior_map``.  These are the first iterates of ``lift_descent`` from
    the empty cone, d_0 top, so no chain level is built.  The descent stops
    at the initial lift of the empty cone, the greatest structure the
    structure map preserves (coalgebras over V-Cat are topological over
    coalgebras over Set), and the remaining tables repeat it.  The
    coalgebra keeps the distinct tables of its last call, keyed by depth;
    a repeat returns a new list of them, and a call that raises leaves them."""
    kept = c._tables
    if kept is None or kept[0] != depth:
        _structure_terms(c, depth)
        x = c.carrier
        descent = lift_descent(c.functor, x.quantale, x.states, c.structure)
        kept = c._tables = (depth, tuple(islice(descent, depth + 1)))
    tables = list(kept[1])
    return tables + tables[-1:] * (depth + 1 - len(tables))


# -- equalizers ------------------------------------------------------------


def equalizer(cx, f, g):
    """The largest sub-coalgebra on which two homomorphisms agree, and its
    inclusion.  From the agreement set, states whose term is not in F of
    the full subcategory on the states kept are stripped until none is."""
    x = cx.carrier
    current = [s for s in x.states if f(s) == g(s)]
    while True:
        sub = restrict(x, current)
        normal = _normal_form(cx.functor, sub)
        nxt = [s for s in current if _fixed(normal, cx.structure[s])]
        if nxt == current:
            break
        current = nxt
    ec = Coalgebra(cx.functor, sub, {s: cx.structure[s] for s in current})
    return ec, VFunctor(sub, x, current)


# -- initial lifts of coalgebra cones ---------------------------------------


def initial_lift_coalgebra(expr, quantale, states, structure, cone=()):
    """Greatest carrier structure making a set-level coalgebra a real one
    under a cone of coalgebra morphisms.

    ``structure`` maps each state to a set-level term of F(states); each
    cone entry is (mapping, target Coalgebra) with ``mapping`` listing
    target states in carrier order.  Each leg must be over ``expr``, pass
    ``require_carrier`` and ``require_coalgebra``, and be a set-level
    coalgebra morphism.  The structure starts at the pointwise meet of the
    legs and descends by cutting with the functor image until it is stable.
    """
    states = tuple(states)
    for k, (mapping, leg) in enumerate(cone):
        if leg.functor != expr:
            raise ConsistencyError(
                f"cone leg {k} is a coalgebra over {leg.functor!r}, not {expr!r}")
        require_carrier(leg.carrier, f"cone leg {k} carrier")
        require_coalgebra(leg, f"cone leg {k}")
        image = {s: _leaf(leg.carrier, t) for s, t in zip(states, mapping)}
        expect = _fmap(expr, image.__getitem__, leg.carrier, [structure[s] for s in states])
        for s, term in zip(states, expect):
            if term != leg.structure[image[s]]:
                raise ConsistencyError(f"cone leg is not a set-level coalgebra morphism at {s!r}")
    for carrier in lift_descent(expr, quantale, states, structure, cone):
        pass
    normal = _normal_form(expr, carrier)
    return Coalgebra(expr, carrier, {s: normal(structure[s]) for s in states})


def _lift_step(expr, current, structure):
    """One step of the initial-lift descent, as a matrix in carrier order:
    meet(current(s, t), F_current(c s, c t)), where F_current is the lax
    extension of F applied to ``current`` and c the structure map.  Its
    matrix is built once on the distinct structure terms."""
    q = current.quantale
    index = {}
    at = [index.setdefault(structure[s], len(index)) for s in current.states]
    terms = list(index)
    lifted = expr.matrix(q, current.a, terms, terms)
    return tuple(
        tuple(map(q.meet, old, map(row.__getitem__, at)))
        for old, row in zip(current.matrix, map(lifted.__getitem__, at))
    )


def lift_descent(expr, quantale, states, structure, cone=()):
    """The descending structure iterates of the initial lift, ending with
    the fixpoint; every iterate is itself a valid structure.

    It ends without a guard: ``_lift_step`` only meets and joins the current
    entries, the constant leaves' entries, top and bottom, so all values lie
    in one finite set (over Lawvere, a chain, those entries themselves).
    Each step lowers some cell or ends the descent."""
    states = tuple(states)
    current = initial_structure(
        quantale, states, [(m, leg.carrier) for m, leg in cone]
    )
    yield current
    while True:
        step = _lift_step(expr, current, structure)
        if step == current.matrix:
            return
        current = VCategory(quantale, states, step)
        yield current
