"""Quantales: complete lattices carrying a commutative unital tensor.

Two flavors are supported, each by its own subclass of ``Quantale``.
``finite-table`` quantales (``TableQuantale``) are given by explicit tables
over symbolic element ids and every law can be checked exhaustively.  The
``lawvere-extended-rational`` flavor (``LawvereQuantale``) is the quantale
of extended non-negative rationals ordered by >=, with truncated addition
as tensor; its laws hold analytically and only finitary joins/meets are
ever requested.

Every finite table derives its lattice by one rule, whatever the shape of
its order.  The order is read once into per-element up-set and down-set
bitmasks; join(u, v) is the one common upper bound of u and v that lies
below all the others, meet is the dual, and bottom and top are the one
element below and the one above all others.  Every finite table folds
through its join and meet tables; the Lawvere folds are min and max.  The
derivation does not assume the quantale laws: ``check_quantale_laws``
still checks them on the tables.
The internal hom table is derived on the first ``hom`` call, since most
quantales built are never asked for it.

A ``Quantale`` is immutable once built, so the built-ins (``boolean``,
``godel(n)``, ``lukasiewicz(n)``, ``lawvere`` and ``by_name``) are shared:
each is built once and kept in an LRU of BUILTIN_MEMO_SIZE entries.
Quantales given by caller tables (``finite``, ``chain``) are built afresh.
"""

from fractions import Fraction
from functools import cached_property, lru_cache

from .errors import DescriptorError

FINITE_TABLE = "finite-table"
LAWVERE = "lawvere-extended-rational"
BUILTIN_MEMO_SIZE = 32
# The longest chain ``Quantale.chain`` builds (so also godel:n and
# lukasiewicz:n), and the most elements of an inline ``quantale/1`` table.
# Deriving a lattice is cubic in its size: 128 elements take about 0.13 s
# and 12 MiB of tables, 256 take 0.9 s and 60 MiB, and ``check`` 4.5 s at 128.
CHAIN_LENGTH_BOUND = 128


class _Infinity:
    """Distinguished infinity for the Lawvere quantale (its bottom)."""

    __slots__ = ()

    def __repr__(self):
        return "inf"


INF = _Infinity()
_ZERO = Fraction(0)  # the Lawvere unit and top, shared since Fraction is immutable


class Record:
    """A plain value class: equal to an instance of exactly its own type
    whose ``__slots__`` hold equal values, hashed and shown by those
    values.  Subclasses list their fields in ``__slots__`` and set them
    in ``__init__``."""

    __slots__ = ()

    def _fields(self):
        return tuple(getattr(self, name) for name in self.__slots__)

    def __eq__(self, other):
        if type(other) is not type(self):
            return NotImplemented
        return self._fields() == other._fields()

    def __hash__(self):
        return hash(self._fields())

    def __repr__(self):
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self.__slots__)
        return f"{type(self).__name__}({fields})"


class LawEntry(Record):
    """One checked law: name, verdict, and a violating witness when false."""

    __slots__ = ("law", "passed", "witness", "analytic")

    def __init__(self, law, passed, witness=None, analytic=False):
        self.law = law
        self.passed = passed
        self.witness = witness
        self.analytic = analytic


class AssumptionReport(Record):
    __slots__ = ("entries",)

    def __init__(self, entries=()):
        self.entries = entries

    @property
    def ok(self):
        return all(e.passed for e in self.entries)

    def failures(self):
        return tuple(e for e in self.entries if not e.passed)

    def entry(self, law):
        for e in self.entries:
            if e.law == law:
                return e
        raise KeyError(law)


class Quantale:
    """A quantale with computed internal hom.

    ``Quantale(flavor, ...)`` builds an instance of the flavor's subclass,
    ``TableQuantale`` or ``LawvereQuantale``, and each subclass defines the
    element operations of its flavor, so no operation tests the flavor.
    Finite-table instances are built through :meth:`finite`; the Lawvere
    quantale through :meth:`lawvere`.  All public operations take and return
    element values: ids (strings) for finite tables, ``Fraction`` or ``INF``
    for the Lawvere flavor.  Attributes cannot be set or deleted once
    ``_key``, the last one ``__init__`` sets, exists; the lazily derived
    ``_hom`` and ``unit_join_prime`` are filled by ``cached_property``,
    which writes to the instance ``__dict__`` directly.
    """

    def __new__(cls, flavor, *tables):
        return super().__new__(LawvereQuantale if flavor == LAWVERE else TableQuantale)

    def __init__(self, flavor, *tables):
        self.flavor = flavor
        self._key = self._derive(*tables)

    # -- construction -------------------------------------------------

    @classmethod
    def finite(cls, elements, leq_pairs, tensor_table, unit):
        return cls(FINITE_TABLE, elements, leq_pairs, tensor_table, unit)

    @classmethod
    def boolean(cls):
        """The two-element Boolean quantale 2, which is ``godel(2)``: both
        are the chain 0 < 1 with tensor min and unit 1."""
        return cls.godel(2)

    @classmethod
    def chain(cls, n, tensor):
        """A quantale on the chain 0 < 1/(n-1) < ... < 1 whose ids are those
        fractions.  ``tensor`` acts on indices: ``tensor(i, j)`` is the
        index of the product of the i-th and the j-th element.  A chain
        longer than CHAIN_LENGTH_BOUND is refused before any table is built."""
        if n < 1:
            raise DescriptorError("chain needs at least one element")
        if n > CHAIN_LENGTH_BOUND:
            raise DescriptorError(
                f"chain of {n} elements is over the bound of {CHAIN_LENGTH_BOUND}")
        ids = ["0"] if n == 1 else [str(Fraction(i, n - 1)) for i in range(n)]
        leq = [(ids[i], ids[j]) for i in range(n) for j in range(i, n)]
        table = {(ids[i], ids[j]): ids[tensor(i, j)] for i in range(n) for j in range(n)}
        return cls.finite(ids, leq, table, ids[-1])

    @classmethod
    def godel(cls, n):
        """Gödel chain: tensor is min, unit is the top."""
        return _builtin("godel", n)

    @classmethod
    def lukasiewicz(cls, n):
        """Łukasiewicz chain: tensor is max(0, u + v - 1), unit is the top;
        on indices that is max(0, i + j - (n - 1))."""
        return _builtin("lukasiewicz", n)

    @classmethod
    def lawvere(cls):
        """Extended non-negative rationals ([0, inf], >=, +, 0)."""
        return _builtin("lawvere")

    @classmethod
    def by_name(cls, name):
        """Resolve a built-in quantale name: bool, godel:n, lukasiewicz:n, lawvere."""
        if name == "bool":
            return cls.boolean()
        if name == "lawvere":
            return cls.lawvere()
        for prefix, ctor in (("godel:", cls.godel), ("lukasiewicz:", cls.lukasiewicz)):
            if name.startswith(prefix):
                try:
                    n = int(name[len(prefix):])
                except ValueError:
                    raise DescriptorError(f"bad chain length in {name!r}")
                return ctor(n)
        raise DescriptorError(f"unknown quantale name {name!r}")

    # -- equality / hashing -------------------------------------------

    def __eq__(self, other):
        return self is other or isinstance(other, Quantale) and self._key == other._key

    def __hash__(self):
        return hash(self._key)

    def __setattr__(self, name, value):
        if "_key" in self.__dict__:
            raise AttributeError(f"Quantale is immutable: cannot set {name!r}")
        object.__setattr__(self, name, value)

    def __delattr__(self, name):
        raise AttributeError(f"Quantale is immutable: cannot delete {name!r}")

    # -- the element operations, defined by each flavor ----------------
    # The folds stop as soon as they reach top (join) or bottom (meet):
    # callers pass generators whose remaining items need not be computed.

    def leq(self, u, v):
        """u is below v in the lattice order."""
        raise NotImplementedError

    def join(self, u, v):
        """The least upper bound of u and v."""
        raise NotImplementedError

    def meet(self, u, v):
        """The greatest lower bound of u and v."""
        raise NotImplementedError

    def join_all(self, items):
        """The join of finitely many items; bottom when there are none."""
        raise NotImplementedError

    def meet_all(self, items):
        """The meet of finitely many items; top when there are none."""
        raise NotImplementedError

    def tensor(self, u, v):
        """The monoid product u (x) v."""
        raise NotImplementedError

    def hom(self, u, v):
        """Internal hom: the largest w with u (x) w <= v."""
        raise NotImplementedError


class TableQuantale(Quantale):
    """A quantale given by finite tables over symbolic element ids."""

    def _derive(self, elements, leq_pairs, tensor_table, unit):
        self.elements = tuple(elements)
        self._ids = frozenset(self.elements)
        if len(self._ids) != len(self.elements):
            raise DescriptorError("duplicate element ids")
        self._leq = frozenset(leq_pairs)
        self._tensor = dict(tensor_table)
        self.unit = unit
        if not self._known(unit):
            raise DescriptorError(f"unit {unit!r} not among elements")
        self._derive_lattice()
        # ids need not be mutually comparable, so the key is unordered
        return (FINITE_TABLE, self.elements, self._leq, frozenset(self._tensor.items()), unit)

    def _derive_lattice(self):
        els = self.elements
        leq = self._leq
        for u in els:
            if (u, u) not in leq:
                raise DescriptorError(f"leq not reflexive at {u!r}")
        n = len(els)
        # bit j of up[i] is set when element i <= element j, of down[i] when j <= i
        up = [sum(1 << j for j, v in enumerate(els) if (u, v) in leq) for u in els]
        down = [sum(1 << j for j, v in enumerate(els) if (v, u) in leq) for u in els]

        def single(bounds, cover):
            # the one index i in bounds with bounds inside cover[i], or None
            # (an index, since None is a valid element id)
            found = [i for i in range(n) if bounds >> i & 1 and bounds & cover[i] == bounds]
            return found[0] if len(found) == 1 else None

        self._join = {}
        self._meet = {}
        # (u, v) and (v, u) have the same bounds, so the first failing pair
        # in element order has u at or before v
        for i, u in enumerate(els):
            for j in range(i, n):
                v = els[j]
                join = single(up[i] & up[j], up)
                meet = single(down[i] & down[j], down)
                if join is None or meet is None:
                    raise DescriptorError(f"leq is not a lattice order at ({u!r}, {v!r})")
                self._join[u, v] = self._join[v, u] = els[join]
                self._meet[u, v] = self._meet[v, u] = els[meet]
        everything = (1 << n) - 1
        bot, top = single(everything, up), single(everything, down)
        if bot is None or top is None:
            raise DescriptorError("lattice lacks a unique bottom or top")
        self.bottom, self.top = els[bot], els[top]
        missing = [p for p in ((u, v) for u in els for v in els) if p not in self._tensor]
        if missing:
            raise DescriptorError(f"tensor table missing entries: {missing[:3]}")

    @cached_property
    def _hom(self):
        # hom(u, v) = join of { w | u (x) w <= v }; the adjunction itself is
        # exercised by check_quantale_laws and the test suite.
        els, tensor, leq = self.elements, self._tensor, self._leq
        return {(u, v): self.join_all(w for w in els if (tensor[u, w], v) in leq)
                for u in els for v in els}

    def __repr__(self):
        return f"Quantale({len(self.elements)} elements, unit={self.unit!r})"

    # -- element parsing / formatting ----------------------------------

    def _known(self, el):
        try:
            return el in self._ids
        except TypeError:  # an unhashable value is no element id
            return False

    def _check(self, el):
        if not self._known(el):
            raise DescriptorError(f"unknown element id {el!r}")

    def parse(self, text):
        self._check(text)
        return text

    def format(self, el):
        self._check(el)
        return el

    # -- order and lattice operations ----------------------------------

    def leq(self, u, v):
        return (u, v) in self._leq

    def join(self, u, v):
        return self._join[u, v]

    def meet(self, u, v):
        return self._meet[u, v]

    def join_all(self, items):
        join, top = self._join, self.top
        out = self.bottom
        for x in items:
            out = join[out, x]
            if out == top:
                break
        return out

    def meet_all(self, items):
        meet, bot = self._meet, self.bottom
        out = self.top
        for x in items:
            out = meet[out, x]
            if out == bot:
                break
        return out

    def tensor(self, u, v):
        return self._tensor[u, v]

    def hom(self, u, v):
        self._check(u)
        self._check(v)
        return self._hom[u, v]

    @property
    def trivial(self):
        """True when unit = bottom, i.e. the one-element quantale."""
        return self.unit == self.bottom

    @cached_property
    def unit_join_prime(self):
        """True when k <= join(S) holds exactly when k <= s for some s in S:
        k is totally below itself, the relation of ``totally_below`` at
        (k, k).  On a finite table every S is finite, so this is k not
        below bottom and k <= join(u, v) implying k <= u or k <= v.  It
        holds on every chain of two or more elements."""
        return not self.leq(self.unit, _join_not_above(self, self.unit))


class LawvereQuantale(Quantale):
    """Extended non-negative rationals ordered by >=, with truncated
    addition as tensor.  The order is reversed numeric order: ``INF`` is
    the bottom and 0 the top and the unit.

    The order and lattice operations compare two values by cross-multiplying
    their public ``numerator`` and ``denominator``, about half the cost of
    ``Fraction``'s generic rich comparison; they return the same values as
    the ``Fraction`` operators (``>=``, ``min``, ``max``), ties included.
    ``tensor`` returns the other factor when one factor is 0, the unit.
    """

    unit = top = _ZERO
    bottom = INF
    trivial = False
    # k = 0 <= min(u, v) means u = 0 or v = 0
    unit_join_prime = True

    def _derive(self):
        return (LAWVERE,)

    def __repr__(self):
        return "Quantale(lawvere)"

    def _check(self, el):
        if el is not INF and not isinstance(el, Fraction):
            raise DescriptorError(f"bad Lawvere element {el!r}")

    def parse(self, text):
        """A value given as ``"inf"``, a JSON integer, or a string that
        ``Fraction`` reads (``"1/3"``, ``"0.1"``).  JSON booleans are refused,
        and so are JSON floats: the decoder has already rounded 0.1 to
        3602879701896397/36028797018963968."""
        if text == "inf":
            return INF
        if isinstance(text, bool):
            raise DescriptorError(f"bad rational {text!r}")
        if isinstance(text, float):
            raise DescriptorError(f"bad rational {text!r}: a JSON float is inexact, "
                                  f"so give the rational as a string such as \"1/10\"")
        try:
            v = Fraction(text)
        except (TypeError, ValueError, ArithmeticError):  # ArithmeticError: 1/0, Infinity
            raise DescriptorError(f"bad rational {text!r}")
        if v < 0:
            raise DescriptorError(f"negative value {text!r} not in [0, inf]")
        return v

    def format(self, el):
        self._check(el)
        return "inf" if el is INF else str(el)

    def leq(self, u, v):
        if u is INF:
            return True
        if v is INF:
            return False
        return u.numerator * v.denominator >= v.numerator * u.denominator

    def join(self, u, v):
        """The smaller number; u when they are equal."""
        if u is INF:
            return v
        if v is INF:
            return u
        return v if v.numerator * u.denominator < u.numerator * v.denominator else u

    def meet(self, u, v):
        """The larger number; u when they are equal."""
        if u is INF or v is INF:
            return INF
        return v if v.numerator * u.denominator > u.numerator * v.denominator else u

    def join_all(self, items):
        out = INF
        for x in items:
            if x is not INF:
                n, d = x.numerator, x.denominator
                if out is INF or n * low_d < low_n * d:
                    out, low_n, low_d = x, n, d
                    if not n:  # 0 is the top
                        break
        return out

    def meet_all(self, items):
        out, high_n, high_d = _ZERO, 0, 1
        for x in items:
            if x is INF:
                return INF
            n, d = x.numerator, x.denominator
            if n * high_d > high_n * d:
                out, high_n, high_d = x, n, d
        return out

    def tensor(self, u, v):
        if u is INF or v is INF:
            return INF
        if not u.numerator:
            return v
        if not v.numerator:
            return u
        return u + v

    def hom(self, u, v):
        if u is INF:
            return _ZERO
        if v is INF:
            return INF
        return max(v - u, _ZERO)


@lru_cache(maxsize=BUILTIN_MEMO_SIZE)
def _builtin(kind, n=None):
    """The built-in quantale ``kind`` (on ``n`` elements for the chains),
    built on the first request and shared while it stays in the LRU."""
    if kind == "lawvere":
        return Quantale(LAWVERE)
    if kind == "godel":
        return Quantale.chain(n, min)
    return Quantale.chain(n, lambda i, j: max(0, i + j - (n - 1)))


# -- the totally-below relation ---------------------------------------


def _join_not_above(q, u):
    """The join of every element s of a finite table with u not <= s."""
    return q.join_all(s for s in q.elements if not q.leq(u, s))


def totally_below(q):
    """The full totally-below relation of a finite-table quantale.

    u is totally below v when every subset S with v <= join(S) contains
    some s with u <= s.  That holds exactly when v is not below the join
    of S0 = {s | u not <= s}: S0 holds no element above u, so v <= join(S0)
    rules it out; and a set S with v <= join(S) and no element above u lies
    inside S0, so v <= join(S0).  One join per u, so O(n^2) in all.
    """
    if q.flavor != FINITE_TABLE:
        raise DescriptorError("totally_below requires a finite-table quantale")
    rel = set()
    for u in q.elements:
        low = _join_not_above(q, u)
        rel.update((u, v) for v in q.elements if not q.leq(v, low))
    return rel


# -- law and assumption reports ---------------------------------------


def check_quantale_laws(q):
    """Exhaustively verify the lattice and tensor laws of a finite quantale.

    Distributivity of the (finite) lattice is included since on finite
    lattices it suffices for complete distributivity.  The Lawvere flavor
    returns an analytically asserted report.
    """
    if q.flavor == LAWVERE:
        laws = ("leq-partial-order", "join-meet-lattice", "tensor-monoid",
                "tensor-join-distributive", "lattice-distributive")
        return AssumptionReport(tuple(LawEntry(l, True, analytic=True) for l in laws))

    els = q.elements
    entries = []

    def add(law, witness):
        entries.append(LawEntry(law, witness is None, witness))

    w = None
    for u in els:
        if not q.leq(u, u):
            w = (u,)
            break
    add("leq-reflexive", w)

    w = next(((u, v) for u in els for v in els
              if u != v and q.leq(u, v) and q.leq(v, u)), None)
    add("leq-antisymmetric", w)

    w = next(((u, v, z) for u in els for v in els for z in els
              if q.leq(u, v) and q.leq(v, z) and not q.leq(u, z)), None)
    add("leq-transitive", w)

    def lub_bad(u, v):
        j = q.join(u, v)
        if not (q.leq(u, j) and q.leq(v, j)):
            return (u, v)
        for z in els:
            if q.leq(u, z) and q.leq(v, z) and not q.leq(j, z):
                return (u, v, z)
        return None

    def glb_bad(u, v):
        m = q.meet(u, v)
        if not (q.leq(m, u) and q.leq(m, v)):
            return (u, v)
        for z in els:
            if q.leq(z, u) and q.leq(z, v) and not q.leq(z, m):
                return (u, v, z)
        return None

    add("join-is-lub", next((w for u in els for v in els if (w := lub_bad(u, v))), None))
    add("meet-is-glb", next((w for u in els for v in els if (w := glb_bad(u, v))), None))
    add("bottom-least", next(((u,) for u in els if not q.leq(q.bottom, u)), None))
    add("top-greatest", next(((u,) for u in els if not q.leq(u, q.top)), None))

    add("tensor-commutative",
        next(((u, v) for u in els for v in els
              if q.tensor(u, v) != q.tensor(v, u)), None))
    add("tensor-associative",
        next(((u, v, z) for u in els for v in els for z in els
              if q.tensor(q.tensor(u, v), z) != q.tensor(u, q.tensor(v, z))), None))
    add("tensor-unit",
        next(((u,) for u in els if q.tensor(q.unit, u) != u), None))
    add("tensor-monotone",
        next(((u, v, z) for u in els for v in els for z in els
              if q.leq(u, v) and not q.leq(q.tensor(u, z), q.tensor(v, z))), None))
    add("tensor-join-distributive",
        next(((u, v, z) for u in els for v in els for z in els
              if q.tensor(u, q.join(v, z)) != q.join(q.tensor(u, v), q.tensor(u, z))), None))
    add("tensor-bottom",
        next(((u,) for u in els if q.tensor(u, q.bottom) != q.bottom), None))
    add("lattice-distributive",
        next(((u, v, z) for u in els for v in els for z in els
              if q.meet(u, q.join(v, z)) != q.join(q.meet(u, v), q.meet(u, z))), None))

    return AssumptionReport(tuple(entries))


def check_assumptions(q):
    """Check the standing assumptions: directedness of the totally-below
    cone under the unit, non-triviality, and unit integrality."""
    if q.flavor == LAWVERE:
        laws = ("totally-below-unit-directed", "non-trivial", "unit-tensor-integral")
        return AssumptionReport(tuple(LawEntry(l, True, analytic=True) for l in laws))

    entries = []
    rel = totally_below(q)
    down_k = [u for u in q.elements if (u, q.unit) in rel]
    if not down_k:
        entries.append(LawEntry("totally-below-unit-directed", False, ("empty",)))
    else:
        w = None
        for u in down_k:
            for v in down_k:
                if not any(q.leq(u, z) and q.leq(v, z) for z in down_k):
                    w = (u, v)
                    break
            if w:
                break
        entries.append(LawEntry("totally-below-unit-directed", w is None, w))

    entries.append(LawEntry("non-trivial", not q.trivial,
                            None if not q.trivial else (q.unit,)))

    w = next(((u, v) for u in q.elements for v in q.elements
              if q.leq(q.unit, q.tensor(u, v))
              and not (q.leq(q.unit, u) and q.leq(q.unit, v))), None)
    entries.append(LawEntry("unit-tensor-integral", w is None, w))

    return AssumptionReport(tuple(entries))
