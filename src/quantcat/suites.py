"""Seeded randomized law sweeps.

Each suite draws its cases from one ``random.Random`` stream, so a fixed
seed reproduces the exact same instances and the exact same report bytes.
The sweeps back both the acceptance gate and the ``selfcheck`` command.
"""

import random
from fractions import Fraction

from . import hausdorff as hd
from .coalg import Const, Id, Prod, Sum, eval_mor, eval_obj
from .errors import ConsistencyError
from .quantale import FINITE_TABLE, INF, Quantale
from .vcat import (
    VCategory,
    VFunctor,
    VRelation,
    compose,
    dual,
    fibre_join,
    identity_functor,
    initial_structure,
    internal_hom,
    is_separated,
    is_vcategory,
    is_vfunctor,
    symmetrize,
    tensor,
    underlying_order,
)

_LAWVERE_POOL = [Fraction(0), Fraction(1, 4), Fraction(1, 2), Fraction(1),
                 Fraction(2), INF]


QUANTALE_NAMES = ("bool", "godel:3", "godel:4", "lukasiewicz:3", "lawvere")


def draw_quantale(rng):
    """A case's quantale: the name is drawn first, and only the drawn
    built-in is resolved (and built, on its first use)."""
    name = rng.choice(QUANTALE_NAMES)
    return name, Quantale.by_name(name)


def _elements(q):
    return list(q.elements) if q.flavor == FINITE_TABLE else _LAWVERE_POOL


def rand_category(rng, q, max_size=3, min_size=0, states=None):
    """A random valid structure: a random matrix closed from above into
    the least V-category structure over it."""
    if states is None:
        n = rng.randint(min_size, max_size)
        states = [f"s{i}" for i in range(n)]
    pool = _elements(q)
    n = len(states)
    raw = VCategory(
        q, states,
        [[rng.choice(pool) for _ in range(n)] for _ in range(n)],
    )
    return fibre_join([raw])


def rand_vfunctor(rng, q, max_source=3, max_target=3):
    """A random valid V-functor: its source carries the initial structure
    of a random map into the target and of the identity into random noise."""
    y = rand_category(rng, q, max_size=max_target, min_size=1)
    n = rng.randint(0, max_source)
    states = [f"t{i}" for i in range(n)]
    mapping = [rng.choice(y.states) for _ in range(n)]
    noise = rand_category(rng, q, states=states)
    source = initial_structure(q, states, [(mapping, y), (states, noise)])
    return VFunctor(source, y, mapping)


def rand_initial_vfunctor(rng, q, max_source=3, max_target=3):
    y = rand_category(rng, q, max_size=max_target, min_size=1)
    n = rng.randint(0, max_source)
    states = [f"t{i}" for i in range(n)]
    mapping = [rng.choice(y.states) for _ in range(n)]
    return VFunctor(initial_structure(q, states, [(mapping, y)]), y, mapping)


def rand_relation(rng, q, src, tgt):
    pool = _elements(q)
    return VRelation(
        q, src, tgt,
        [[rng.choice(pool) for _ in tgt] for _ in src],
    )


# -- individual suites ---------------------------------------------------


def suite_constructions(rng):
    """Every construction yields a lawful V-category or V-functor."""
    name, q = draw_quantale(rng)
    x = rand_category(rng, q, max_size=3)
    y = rand_category(rng, q, max_size=2, min_size=1)
    checks = []
    checks.append(("dual-valid", is_vcategory(dual(x))))
    checks.append(("dual-involution", dual(dual(x)) == x))
    checks.append(("symmetrize-valid", is_vcategory(symmetrize(x))))
    checks.append(("symmetrize-dual-invariant",
                   symmetrize(x) == symmetrize(dual(x))))
    checks.append(("tensor-valid", is_vcategory(tensor(x, y))))
    checks.append(("internal-hom-valid", is_vcategory(internal_hom(x, y))))
    hx = hd.hausdorff_object(x)
    checks.append(("hausdorff-valid", is_vcategory(hx.category)))
    checks.append(("hausdorff-separated", is_separated(hx.category)))
    checks.append((
        "hausdorff-order-is-containment",
        all(set(b) <= set(a) for (a, b) in underlying_order(hx.category)),
    ))
    prod = eval_obj(Prod([Const(y), Id()]), x)
    checks.append(("product-valid", is_vcategory(prod)))
    total = eval_obj(Sum([Const(y), Id()]), x)
    checks.append(("sum-valid", is_vcategory(total)))
    f = rand_vfunctor(rng, q)
    checks.append(("vfunctor-valid", is_vfunctor(f)))
    checks.append(("hausdorff-map-valid", is_vfunctor(hd.hausdorff_map(f))))
    checks.append((
        "eval-mor-valid",
        is_vfunctor(eval_mor(Prod([Const(y), Id()]), f))
        and is_vfunctor(eval_mor(Sum([Const(y), Id()]), f)),
    ))
    g = VFunctor(f.target, f.target, [rng.choice(f.target.states)] * len(f.target.states))
    if is_vfunctor(g):
        checks.append(("compose-valid", is_vfunctor(compose(g, f))))
    return name, checks


def suite_monad(rng):
    """Unit/multiplication laws and the adjunction biconditional."""
    name, q = draw_quantale(rng)
    x = rand_category(rng, q, max_size=2)
    hx = hd.hausdorff_object(x)
    hhx = hd.hausdorff_object(hx.category)
    hhhx = hd.hausdorff_object(hhx.category)
    eta = hd.monad_unit(x, hx)
    mu = hd.monad_mult(x, hx, hhx)
    eta_h = hd.monad_unit(hx.category, hhx)
    h_eta = hd.hausdorff_map(eta, hx, hhx)
    h_mu = hd.hausdorff_map(mu, hhhx, hhx)
    mu_h = hd.monad_mult(hx.category, hhx, hhhx)
    ident = identity_functor(hx.category)
    checks = [
        ("unit-valid", is_vfunctor(eta)),
        ("mult-valid", is_vfunctor(mu)),
        ("mu-after-eta", compose(mu, eta_h) == ident),
        ("mu-after-H-eta", compose(mu, h_eta) == ident),
        ("mu-associative", compose(mu, h_mu) == compose(mu, mu_h)),
    ]
    k = q.unit
    adj = True
    for fam in hhx.elements:
        mu_fam = mu(fam)
        for b in hx.elements:
            lhs = q.leq(k, hx.category.a(mu_fam, b))
            rhs = q.leq(k, hhx.category.a(fam, h_eta(b)))
            if lhs != rhs:
                adj = False
                break
        if not adj:
            break
    checks.append(("mult-adjoint-to-lifted-unit", adj))
    return name, checks


def suite_hausdorff_identities(rng):
    """Unit-level membership and up-closure invariance of the lifting."""
    name, q = draw_quantale(rng)
    x = rand_category(rng, q, max_size=3)
    k = q.unit
    member_ok = True
    closure_ok = True
    for a in hd._subsets(x.states):
        ua = hd.up_closure(x, a)
        for b in hd._subsets(x.states):
            v = hd.hausdorff_distance(x, a, b)
            if q.leq(k, v) != (b <= ua):
                member_ok = False
            ub = hd.up_closure(x, b)
            if hd.hausdorff_distance(x, a, ub) != v:
                closure_ok = False
            if hd.hausdorff_distance(x, ua, b) != v:
                closure_ok = False
    return name, [
        ("unit-below-iff-contained-in-up-closure", member_ok),
        ("up-closure-invariance", closure_ok),
    ]


def suite_closures(rng):
    """Closure laws of up-sets and their interaction with V-functors."""
    name, q = draw_quantale(rng)
    f = rand_vfunctor(rng, q)
    x, y = f.source, f.target
    checks = []
    ok = all(
        a <= hd.up_closure(x, a)
        and hd.up_closure(x, hd.up_closure(x, a)) == hd.up_closure(x, a)
        for a in hd._subsets(x.states)
    )
    checks.append(("up-closure-is-closure", ok))
    incr = [a for a in hd._subsets(x.states) if hd.up_closure(x, a) == a]
    checks.append((
        "intersections-stay-increasing",
        all(hd.up_closure(x, a & b) == a & b for a in incr for b in incr),
    ))
    checks.append((
        "image-of-closure-inside-closure-of-image",
        all(
            frozenset(f(s) for s in hd.up_closure(x, a))
            <= hd.up_closure(y, frozenset(f(s) for s in a))
            for a in hd._subsets(x.states)
        ),
    ))
    incr_y = [b for b in hd._subsets(y.states) if hd.up_closure(y, b) == b]
    pre_ok = True
    for b in incr_y:
        pre = frozenset(s for s in x.states if f(s) in b)
        if hd.up_closure(x, pre) != pre:
            pre_ok = False
            break
    checks.append(("preimages-of-increasing-are-increasing", pre_ok))
    return name, checks


def suite_initiality(rng):
    """The lifting preserves initial morphisms (matrix-equality form)."""
    name, q = draw_quantale(rng)
    f = rand_initial_vfunctor(rng, q)
    x, y = f.source, f.target
    hx = hd.hausdorff_object(x)
    hy = hd.hausdorff_object(y)
    hf = hd.hausdorff_map(f, hx, hy)
    ok = all(
        hx.category.a(a, b) == hy.category.a(hf(a), hf(b))
        for a in hx.elements
        for b in hx.elements
    )
    return name, [("lifting-preserves-initial", ok)]


def suite_lax_extension(rng):
    """The three lax-extension axioms for the powerset extension."""
    name, q = draw_quantale(rng)
    xs = [f"x{i}" for i in range(rng.randint(1, 2))]
    ys = [f"y{i}" for i in range(rng.randint(1, 2))]
    zs = [f"z{i}" for i in range(rng.randint(1, 2))]
    r = rand_relation(rng, q, xs, ys)
    bump = rand_relation(rng, q, xs, ys)
    r2 = VRelation(
        q, xs, ys,
        [
            [q.join(r.matrix[i][j], bump.matrix[i][j]) for j in range(len(ys))]
            for i in range(len(xs))
        ],
    )
    s = rand_relation(rng, q, ys, zs)
    mapping = {sx: rng.choice(ys) for sx in xs}
    rep = hd.check_lax_extension_laws(r, r2, s, q, mapping, xs, ys)
    return name, [(e.law, e.passed) for e in rep.entries]


SUITES = (
    ("construction-laws", suite_constructions),
    ("monad-laws", suite_monad),
    ("hausdorff-identities", suite_hausdorff_identities),
    ("closure-laws", suite_closures),
    ("initiality-preservation", suite_initiality),
    ("lax-extension-axioms", suite_lax_extension),
)


def run_suite(name, fn, seed, cases):
    rng = random.Random(f"{name}:{seed}")
    failures = []
    for i in range(cases):
        qname, checks = fn(rng)
        for law, ok in checks:
            if not ok:
                failures.append({"case": i, "quantale": qname, "law": law})
    return {
        "suite": name,
        "cases": cases,
        "failures": failures,
        "passed": not failures,
    }


def run_law_suites(seed, cases=1000):
    """All suites in a fixed order; the returned structure is reproducible
    byte for byte under a fixed seed.  A negative case count raises
    ConsistencyError."""
    if cases < 0:
        raise ConsistencyError(f"case count {cases} is negative")
    results = [run_suite(name, fn, seed, cases) for name, fn in SUITES]
    return {
        "seed": seed,
        "cases": cases,
        "suites": results,
        "ok": all(r["passed"] for r in results),
    }
