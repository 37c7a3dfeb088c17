"""Independent checks for the benchmark's outputs.

Nothing here imports quantcat.  Every built-in quantale (``bool``,
``godel:n``, ``lukasiewicz:n``, ``lawvere``) is a chain, so the oracles do
their own exact arithmetic on it: finite-table elements are the fractions
their ids spell, and Lawvere values are distances with ``None`` for
infinity.  Functors and terms are read straight from their JSON
descriptor form.
"""

from fractions import Fraction
from itertools import product as iproduct

LAWVERE_POOL = ("0", "1/4", "1/2", "1", "2", "inf")


class Chain:
    """Exact lattice and tensor arithmetic on one built-in quantale."""

    def __init__(self, name):
        self.name = name
        self.lawvere = name == "lawvere"
        if self.lawvere:
            self.elements = tuple(self.parse(v) for v in LAWVERE_POOL)
            self.top = self.unit = Fraction(0)
            self.bottom = None
            return
        if name == "bool":
            n, kind = 2, "godel"
        else:
            kind, _, size = name.partition(":")
            n = int(size)
            if kind not in ("godel", "lukasiewicz") or n < 2:
                raise ValueError(f"not a built-in chain quantale: {name!r}")
        self.kind = kind
        self.elements = tuple(Fraction(i, n - 1) for i in range(n))
        self.top = self.unit = Fraction(1)
        self.bottom = Fraction(0)

    def parse(self, text):
        if self.lawvere:
            return None if text == "inf" else Fraction(text)
        return Fraction(text)

    def format(self, v):
        return "inf" if v is None else str(v)

    def leq(self, u, v):
        if self.lawvere:
            return u is None or (v is not None and u >= v)
        return u <= v

    def join(self, u, v):
        if self.lawvere:
            if u is None:
                return v
            if v is None:
                return u
            return min(u, v)
        return max(u, v)

    def meet(self, u, v):
        if self.lawvere:
            if u is None or v is None:
                return None
            return max(u, v)
        return min(u, v)

    def tensor(self, u, v):
        if self.lawvere:
            if u is None or v is None:
                return None
            return u + v
        if self.kind == "godel":
            return min(u, v)
        return max(Fraction(0), u + v - 1)

    def join_all(self, items):
        out = self.bottom
        for x in items:
            out = self.join(out, x)
        return out

    def meet_all(self, items):
        out = self.top
        for x in items:
            out = self.meet(out, x)
        return out


# -- categories ---------------------------------------------------------------


class Cat:
    """A carrier and its structure matrix, read from a vcategory/1 dict."""

    def __init__(self, spec):
        self.q = Chain(spec["quantale"])
        self.states = list(spec["states"])
        self.index = {s: i for i, s in enumerate(self.states)}
        self.m = [[self.q.parse(v) for v in row] for row in spec["matrix"]]

    def a(self, s, t):
        return self.m[self.index[s]][self.index[t]]


def is_vcategory(q, m):
    n = len(m)
    if any(not q.leq(q.unit, m[i][i]) for i in range(n)):
        return False
    return all(
        q.leq(q.tensor(m[i][j], m[j][l]), m[i][l])
        for i in range(n) for j in range(n) for l in range(n)
    )


def closure(q, matrices):
    """Least V-category structure above the given matrices, by
    Floyd-Warshall over the (join, tensor) semiring."""
    n = len(matrices[0])
    m = [[q.join_all(mat[i][j] for mat in matrices) for j in range(n)] for i in range(n)]
    for i in range(n):
        m[i][i] = q.join(m[i][i], q.unit)
    for k in range(n):
        for i in range(n):
            for j in range(n):
                m[i][j] = q.join(m[i][j], q.tensor(m[i][k], m[k][j]))
    return m


def up_mask(q, m, mask):
    """Bitmask of the points whose distance-join from ``mask`` reaches the unit."""
    n = len(m)
    out = 0
    for j in range(n):
        v = q.join_all(m[i][j] for i in range(n) if mask >> i & 1)
        if q.leq(q.unit, v):
            out |= 1 << j
    return out


def up_closure(cat, subset):
    mask = 0
    for s in subset:
        mask |= 1 << cat.index[s]
    up = up_mask(cat.q, cat.m, mask)
    return [s for i, s in enumerate(cat.states) if up >> i & 1]


def increasing_subsets(cat):
    """Every up-closed subset, in ascending bitmask order."""
    n = len(cat.states)
    return [
        [s for i, s in enumerate(cat.states) if mask >> i & 1]
        for mask in range(1 << n)
        if up_mask(cat.q, cat.m, mask) == mask
    ]


def hausdorff(cat, a_set, b_set):
    q = cat.q
    return q.meet_all(q.join_all(cat.a(a, b) for a in a_set) for b in b_set)


# -- functor terms -------------------------------------------------------------


def _node(functor):
    (key, body), = functor.items()
    return key, body


def fdist(functor, q, d, s, t):
    """Distance between two terms of F, with ``d`` giving the Id distances."""
    key, body = _node(functor)
    if key == "id":
        return d(s, t)
    if key == "const":
        return Cat(body).a(s, t)
    if key == "prod":
        return q.meet_all(fdist(p, q, d, s[i], t[i]) for i, p in enumerate(body))
    if key == "sum":
        if s["branch"] != t["branch"]:
            return q.bottom
        return fdist(body[s["branch"]], q, d, s["term"], t["term"])
    return q.meet_all(q.join_all(fdist(body, q, d, a, b) for a in s) for b in t)


def map_term(functor, fn, term):
    """Apply a state map to the Id positions of a term (plain images)."""
    key, body = _node(functor)
    if key == "id":
        return fn(term)
    if key == "const":
        return term
    if key == "prod":
        return [map_term(p, fn, term[i]) for i, p in enumerate(body)]
    if key == "sum":
        return {"branch": term["branch"],
                "term": map_term(body[term["branch"]], fn, term["term"])}
    return [map_term(body, fn, t) for t in term]


def terms(functor, cat):
    """Every element of F(cat) for functors whose H nodes wrap Id."""
    key, body = _node(functor)
    if key == "id":
        return list(cat.states)
    if key == "const":
        return list(body["states"])
    if key == "prod":
        return [list(t) for t in iproduct(*(terms(p, cat) for p in body))]
    if key == "sum":
        return [{"branch": b, "term": t} for b, p in enumerate(body) for t in terms(p, cat)]
    if _node(body)[0] != "id":
        raise ValueError("terms() only enumerates H over Id")
    return increasing_subsets(cat)


def normalize(functor, cat, term):
    """Up-close the set payloads of a term whose H nodes wrap Id."""
    key, body = _node(functor)
    if key in ("id", "const"):
        return term
    if key == "prod":
        return [normalize(p, cat, term[i]) for i, p in enumerate(body)]
    if key == "sum":
        return {"branch": term["branch"],
                "term": normalize(body[term["branch"]], cat, term["term"])}
    return up_closure(cat, term)


def is_structure_monotone(functor, cat, structure):
    q = cat.q
    return all(
        q.leq(cat.a(s, t), fdist(functor, q, cat.a, structure[s], structure[t]))
        for s in cat.states for t in cat.states
    )


# -- behaviour ----------------------------------------------------------------


def distance_tables(functor, cat, structure, depth):
    """Depth-indexed distances by the chain-free recursion
    d_0 = top, d_{k+1}(s, t) = F-distance of the structure terms under d_k."""
    q = cat.q
    d = {(s, t): q.top for s in cat.states for t in cat.states}
    out = [d]
    for _ in range(depth):
        prev = out[-1]
        d = {
            (s, t): fdist(functor, q, lambda a, b: prev[a, b], structure[s], structure[t])
            for s in cat.states for t in cat.states
        }
        out.append(d)
    return out


def check_distance_rows(q, rows, tables, symmetric=False):
    """Compare rows of {from, to, distances} with the recursion; each
    sequence must also be antitone.  Returns a list of problems."""
    problems = []
    depth = len(tables) - 1
    if len(rows) != len(tables[0]):
        problems.append(f"table has {len(rows)} rows, expected {len(tables[0])}")
    for row in rows:
        s, t = row["from"], row["to"]
        got = [q.parse(v) for v in row["distances"]]
        want = [tables[k][s, t] for k in range(depth + 1)]
        if symmetric:
            want = [q.meet(w, tables[k][t, s]) for k, w in enumerate(want)]
        if got != want:
            problems.append(f"{s}->{t}: {row['distances']} != {[q.format(w) for w in want]}")
        if any(not q.leq(got[k + 1], got[k]) for k in range(len(got) - 1)):
            problems.append(f"{s}->{t}: sequence not antitone")
    return problems


def ana_values(structure):
    """Longest path to a leaf through the successor sets, or "inf" when a
    cycle is reachable."""
    memo = {}

    def value(s, stack):
        if s in memo:
            return memo[s]
        if s in stack:
            return None
        stack.add(s)
        vals = [value(t, stack) for t in structure[s]]
        stack.discard(s)
        v = None if any(x is None for x in vals) else 1 + max(vals, default=-1)
        memo[s] = v
        return v

    out = {}
    for s in structure:
        v = value(s, set())
        out[s] = "inf" if v is None else str(v)
    return out


# -- equalizers, lifts and the no-embedding witnesses ---------------------------


def _term_in_restriction(functor, cat, keep, term):
    key, body = _node(functor)
    if key == "id":
        return term in keep
    if key == "const":
        return True
    if key == "prod":
        return all(_term_in_restriction(p, cat, keep, term[i]) for i, p in enumerate(body))
    if key == "sum":
        return _term_in_restriction(body[term["branch"]], cat, keep, term["term"])
    if not all(_term_in_restriction(body, cat, keep, t) for t in term):
        return False
    sub = Cat({"quantale": cat.q.name, "states": [s for s in cat.states if s in keep],
               "matrix": [[cat.q.format(cat.a(s, t)) for t in cat.states if t in keep]
                          for s in cat.states if s in keep]})
    return set(up_closure(sub, term)) == set(term)


def largest_equalizing_subset(functor, cat, structure, f, g):
    """Largest set of states where f and g agree and whose structure terms
    stay inside F of the restriction, by search over every subset."""
    states = [s for s in cat.states if f[s] == g[s]]
    best = None
    admissible = []
    for mask in range(1 << len(states)):
        keep = {s for i, s in enumerate(states) if mask >> i & 1}
        if all(_term_in_restriction(functor, cat, keep, structure[s]) for s in keep):
            admissible.append(keep)
            if best is None or len(keep) > len(best):
                best = keep
    if any(not k <= best for k in admissible):
        return None
    return [s for s in cat.states if s in best]


def greatest_lift(q, functor, states, structure, leg=None):
    """Greatest V-category structure on the states that the set-level
    coalgebra preserves (H read on plain subsets) and that lies below an
    optional cone leg, by search over every matrix."""
    n = len(states)
    idx = {s: i for i, s in enumerate(states)}
    admissible = []
    for cells in iproduct(q.elements, repeat=n * n):
        m = [list(cells[i * n:(i + 1) * n]) for i in range(n)]
        if not is_vcategory(q, m):
            continue
        def d(a, b, m=m):
            return m[idx[a]][idx[b]]

        if not all(q.leq(m[i][j], fdist(functor, q, d, structure[s], structure[t]))
                   for i, s in enumerate(states) for j, t in enumerate(states)):
            continue
        if leg is not None and not all(
            q.leq(m[i][j], leg.a(s, t)) for i, s in enumerate(states) for j, t in enumerate(states)
        ):
            continue
        admissible.append(m)
    for m in admissible:
        if all(q.leq(o[i][j], m[i][j]) for o in admissible for i in range(n) for j in range(n)):
            return m
    return None


def check_cantor(cat, elements, verdicts):
    """Check every verdict of an exhaustive sweep of maps from the lifted
    object back to the carrier, in itertools.product order."""
    problems = []
    want = increasing_subsets(cat)
    if [sorted(e) for e in elements] != [sorted(e) for e in want]:
        return ["lifted carrier differs from the increasing subsets"]
    expected_maps = len(cat.states) ** len(want)
    if len(verdicts) != expected_maps:
        problems.append(f"{len(verdicts)} verdicts for {expected_maps} maps")
    key = [frozenset(e) for e in want]
    for images, v in zip(iproduct(cat.states, repeat=len(want)), verdicts):
        image_of = dict(zip(key, images))
        kind = v["kind"]
        if kind == "not-injective":
            a, b = (frozenset(s) for s in v["subsets"])
            if a == b or image_of[a] != image_of[b] or image_of[a] != v["point"]:
                problems.append(f"bad injectivity witness {v} for {images}")
        elif kind == "not-initial":
            a, b = (frozenset(s) for s in v["subsets"])
            lifted = hausdorff(cat, a, b)
            base = cat.a(image_of[a], image_of[b])
            if lifted == base or [cat.q.format(lifted), cat.q.format(base)] != v["values"]:
                problems.append(f"bad initiality witness {v} for {images}")
            elif len(set(images)) != len(images):
                problems.append(f"non-injective map {images} reported as injective")
        else:
            problems.append(f"unexpected verdict {kind} for {images}")
        if len(problems) > 5:
            break
    return problems
