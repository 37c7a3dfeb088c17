"""The extended naturals as the explicit terminal coalgebra of the
Hausdorff lifting at the ordered-discrete level, with finality checked
against finite truncations, and the change of base from the Boolean
quantale.

The finite Priestley question needs no procedure of its own.  Every
V-functor psi: X -> V^op has a(s, t) <= hom(psi t, psi s).  For each y the
map a(-, y) is such a V-functor, by transitivity, and the meet over y of
hom(a(t, y), a(s, y)) is at most hom(a(t, t), a(s, t)) <= a(s, t).  So the
cone of all V-functors into V^op is always initial (the Yoneda argument,
Lawvere 1973), and it separates s and t unless they are equivalent: it
separates points exactly when ``vcat.is_separated`` holds.
"""

from functools import total_ordering

from .coalg import HComp, Id, final_chain
from .errors import ConsistencyError, DescriptorError
from .quantale import AssumptionReport, LawEntry, Quantale, Record


@total_ordering
class ExtNat:
    """A natural number or infinity; totally ordered, with successor."""

    __slots__ = ("n",)

    def __init__(self, n=None):
        if n is not None and (not isinstance(n, int) or n < 0):
            raise DescriptorError(f"bad extended natural {n!r}")
        self.n = n

    @property
    def is_infinite(self):
        return self.n is None

    def successor(self):
        return ExtNat(None if self.n is None else self.n + 1)

    def truncate(self, k):
        """min(self, k) as a plain integer."""
        return k if self.n is None else min(self.n, k)

    def __eq__(self, other):
        return isinstance(other, ExtNat) and self.n == other.n

    def __lt__(self, other):
        if self.n is None:
            return False
        if other.n is None:
            return True
        return self.n < other.n

    def __hash__(self):
        return hash(("ExtNat", self.n))

    def __repr__(self):
        return "inf" if self.n is None else str(self.n)

    @classmethod
    def parse(cls, text):
        return INFINITY if text == "inf" else cls(int(text))


INFINITY = ExtNat(None)


# -- the symbolic closed-increasing family --------------------------------

EMPTY = "empty"
SEGMENT = "segment"
ALL = "all"


class SymbolicUpset(Record):
    """A member of the closed-increasing family over the extended naturals
    under >=: nothing, an initial segment {0..n-1}, or everything."""

    __slots__ = ("kind", "size")

    def __init__(self, kind, size=0):
        self.kind = kind
        self.size = size

    def __repr__(self):
        if self.kind == EMPTY:
            return "{}"
        if self.kind == ALL:
            return "N+inf"
        return f"{{0..{self.size - 1}}}"


def code(upset):
    """The canonical bijection from the symbolic family to extended naturals."""
    if upset.kind == EMPTY:
        return ExtNat(0)
    if upset.kind == ALL:
        return INFINITY
    return ExtNat(upset.size)


def omega_structure_set(x):
    """The terminal-coalgebra structure map, valued in the symbolic family:
    0 goes to the empty set, infinity to everything, and n to the up-set
    of n - 1 (an initial segment, since the order is >=)."""
    if x == ExtNat(0):
        return SymbolicUpset(EMPTY)
    if x.is_infinite:
        return SymbolicUpset(ALL)
    return SymbolicUpset(SEGMENT, x.n)


def omega_structure(x):
    """The structure map followed by the canonical coding; the identity on
    extended naturals, witnessing that the structure map is an isomorphism."""
    return code(omega_structure_set(x))


# -- truncations against the final chain ----------------------------------


def truncation(k):
    """The limit-cone leg onto the (k+1)-chain: x goes to min(x, k)."""

    def leg(x):
        return x.truncate(k)

    return leg


def canonical_chain_coding(obj):
    """Code a finite chain V-category by height: the greatest element gets
    0, the next 1, and so on.  Raises when the object is not a chain.
    Reads the order off ``unit_rows``: row i holds the states above i."""
    states = obj.states
    up = obj.unit_rows()
    for i, s in enumerate(states):
        for j, t in enumerate(states):
            below, above = up[i] >> j & 1, up[j] >> i & 1
            if not below and not above:
                raise ConsistencyError(f"not a chain: {s!r} and {t!r} incomparable")
            if i != j and below and above:
                raise ConsistencyError(f"not separated: {s!r} and {t!r} equivalent")
    return {s: bin(up[i] & ~(1 << i)).count("1") for i, s in enumerate(states)}


def verify_chain_commutation(depth):
    """Check that the truncation legs form a commuting cone matching the
    final chain of the Hausdorff lifting over the Boolean quantale, whose
    level n has n + 1 states.  A negative depth raises ConsistencyError."""
    if depth < 0:
        raise ConsistencyError(f"depth {depth} is negative")
    entries = []
    sample = [ExtNat(i) for i in range(depth + 3)] + [INFINITY]

    w = None
    for k in range(depth + 1):
        for x in sample:
            if min(x.truncate(k + 1), k) != x.truncate(k):
                w = (k, repr(x))
                break
        if w:
            break
    entries.append(LawEntry("truncation-squares-commute", w is None, w))

    w = None
    # the pairs x >= y of the sample, compared once for every leg
    ordered = [(i, j) for i, x in enumerate(sample) for j, y in enumerate(sample) if x >= y]
    for k in range(depth + 1):
        values = list(map(truncation(k), sample))
        if set(values) != set(range(k + 1)):
            w = (k, "not-surjective")
            break
        bad = next(((repr(sample[i]), repr(sample[j])) for i, j in ordered
                    if not values[i] >= values[j]), None)
        if bad:
            w = (k,) + bad
            break
    entries.append(LawEntry("truncation-legs-monotone-surjective", w is None, w))

    q2 = Quantale.boolean()
    chain = final_chain(HComp(Id()), depth, quantale=q2)
    w = None
    below = None  # the coding of the level under this one
    for level in chain:
        n, obj = level.index, level.obj
        coding = canonical_chain_coding(obj)
        codes = [coding[s] for s in obj.states]
        if below is not None:
            w = next(((n - 1, "connecting", c) for c, p in zip(codes, level.connecting.mapping)
                      if below[p] != min(c, n - 1)), None)
        if w is None and len(obj.states) != n + 1:
            w = (n, "size", len(obj.states))
        if w is None:
            w = next(((n, "structure", cs, ct)
                      for cs, row in zip(codes, obj.matrix) for ct, v in zip(codes, row)
                      if v != ("1" if cs >= ct else "0")), None)
        if w:
            break
        below = coding
    entries.append(LawEntry("legs-match-chain-levels", w is None, w))

    return AssumptionReport(tuple(entries))


# -- finality over the Boolean quantale ------------------------------------

_PLAIN_LIFTING = HComp(Id())


def _require_boolean_h_coalgebra(c):
    if c.functor != _PLAIN_LIFTING:
        raise ConsistencyError("anamorphism needs a coalgebra of the plain lifting")
    if c.carrier.quantale != Quantale.boolean():
        raise ConsistencyError("anamorphism is defined over the Boolean quantale")


def anamorphism(c):
    """The unique map into the terminal coalgebra on extended naturals.

    Computes the coded behaviour thread by iterating the successor-of-max
    recurrence; threads either stabilize at a finite rank below the carrier
    size or grow without bound, so 2|X| + 2 rounds decide every state.
    """
    _require_boolean_h_coalgebra(c)
    states = c.carrier.states
    n = len(states)
    t = {s: 0 for s in states}
    for _ in range(2 * n + 2):
        t = {
            s: 0 if not c.structure[s] else 1 + max(t[y] for y in c.structure[s])
            for s in states
        }
    return {s: ExtNat(v) if v <= max(n - 1, 0) else INFINITY for s, v in t.items()}


def is_omega_hom(c, assignment):
    """Is the assignment a coalgebra homomorphism into the terminal
    coalgebra?  Checks monotonicity and the coded structure square."""
    _require_boolean_h_coalgebra(c)
    x = c.carrier
    for s in x.states:
        for u in x.states:
            if x.a(s, u) == "1" and not assignment[s] >= assignment[u]:
                return False
    for s in x.states:
        payload = c.structure[s]
        if not payload:
            expect = ExtNat(0)
        else:
            expect = max(assignment[y] for y in payload).successor()
        if omega_structure(assignment[s]) != expect:
            return False
    return True


# -- change of base ---------------------------------------------------------


def embed_I(x, quantale):
    """Transport a Boolean-quantale category along the lattice map sending
    0 to bottom and 1 to top; carrier and states are kept."""
    from .vcat import VCategory

    if x.quantale != Quantale.boolean():
        raise ConsistencyError("embed_I expects a category over the Boolean quantale")
    bot, top = quantale.bottom, quantale.top
    i = {"0": bot, "1": top}
    return VCategory(
        quantale, x.states, [[i[v] for v in row] for row in x.matrix]
    )
