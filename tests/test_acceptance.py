"""Acceptance gate: one test per criterion, each printing a pass/fail line.

Expected values come from independent oracles, computed in place (brute-force
fibres, exhaustive candidate searches) or read from ``oracle_routes`` (every
structure on a small carrier, the subset search for equalizers, the
chain-free pairwise descent), or from hand-derived tables frozen in the
assertions.
"""

import random
import time
from fractions import Fraction
from itertools import product as iproduct

from quantcat import (
    INF,
    INFINITY,
    Coalgebra,
    Const,
    ExtNat,
    HComp,
    Id,
    Prod,
    Quantale,
    Sum,
    VCategory,
    VFunctor,
    anamorphism,
    behavior_map,
    behavioral_distance,
    cantor_check,
    check_coalgebra,
    equalizer,
    eval_mor,
    eval_obj,
    final_chain,
    from_order,
    hausdorff_object,
    initial_lift_coalgebra,
    is_coalg_hom,
    is_omega_hom,
    is_vcategory,
    metric_line,
    omega_structure,
    restrict,
    verify_chain_commutation,
)
from quantcat.descriptors import canonical_json
from quantcat.omega import canonical_chain_coding
from quantcat.suites import run_law_suites
from oracle_routes import (all_structures, generic_powerset_lift, largest_agreeing_subcoalgebra,
                           pairwise_descent, powerset_lift)

SEED = 20250808
_Q2 = Quantale.boolean()
_G3 = Quantale.godel(3)
_STRUCTURES = {}
_SUITE_REPORT = {}


def _finish(n, desc, failures, elapsed, limit=None):
    ok = not failures
    budget = f", {elapsed:.1f}s" + (f" < {limit}s" if limit else "")
    print(f"[criterion {n}] {'PASS' if ok else 'FAIL'} {desc}{budget}")
    assert ok, f"criterion {n}: {failures[:5]}"
    if limit is not None:
        assert elapsed < limit, f"criterion {n} exceeded {limit}s ({elapsed:.1f}s)"


def _structures(q):
    """Every valid structure on s0 .. s(n-1) for n up to 3, found once per quantale."""
    if q not in _STRUCTURES:
        _STRUCTURES[q] = [x for n in range(4)
                          for x in all_structures(q, [f"s{i}" for i in range(n)])]
    return _STRUCTURES[q]


def test_criterion_1_powerset_lift_oracle():
    t0 = time.monotonic()
    failures = []
    family = _structures(_Q2) + _structures(_G3)
    assert len(family) >= 200, len(family)
    for x in family:
        direct = powerset_lift(x)
        hx = hausdorff_object(x)
        if generic_powerset_lift(x) != direct or restrict(direct, hx.elements) != hx.category:
            failures.append(x.matrix)
    _finish(1, f"generic lift equals direct lift, and both restrict to the lifted object, "
               f"on {len(family)} structures",
            failures, time.monotonic() - t0, 60)


def test_criterion_2_chain_sizes():
    t0 = time.monotonic()
    failures = []
    chain = final_chain(HComp(Id()), 12, quantale=_Q2)
    sizes = [len(l.obj.states) for l in chain]
    if sizes != list(range(1, 14)):
        failures.append(("sizes", sizes))
    for level in chain:
        coding = canonical_chain_coding(level.obj)
        for s in level.obj.states:
            for t in level.obj.states:
                want = "1" if coding[s] >= coding[t] else "0"
                if level.obj.a(s, t) != want:
                    failures.append((level.index, coding[s], coding[t]))
    _finish(2, "final chain levels are the expected chains to depth 12",
            failures, time.monotonic() - t0, 5)


def _random_h_coalgebra(rng, max_size):
    n = rng.randint(1, max_size)
    states = [f"s{i}" for i in range(n)]
    raw = VCategory(_Q2, states,
                    [[rng.choice(_Q2.elements) for _ in range(n)] for _ in range(n)])
    from quantcat import fibre_join

    carrier = fibre_join([raw])
    hx = hausdorff_object(carrier)
    structure = {}
    for s in states:
        structure[s] = rng.choice(hx.elements)
    c = Coalgebra(HComp(Id()), carrier, structure)
    if check_coalgebra(c).ok:
        return c
    from quantcat import monad_unit

    eta = monad_unit(carrier, hx)
    return Coalgebra(HComp(Id()), carrier, {s: eta(s) for s in states})


def _valid_h_coalgebras(x):
    hx = hausdorff_object(x)
    out = []
    for images in iproduct(hx.elements, repeat=len(x.states)):
        ok = True
        for i, s in enumerate(x.states):
            for j, t in enumerate(x.states):
                if not _Q2.leq(x.a(s, t), hx.category.a(images[i], images[j])):
                    ok = False
                    break
            if not ok:
                break
        if ok:
            out.append(Coalgebra(HComp(Id()), x, dict(zip(x.states, images))))
    return out


def test_criterion_3_terminal_coalgebra():
    t0 = time.monotonic()
    failures = []

    sample = [ExtNat(i) for i in range(64)] + [INFINITY]
    if [omega_structure(v) for v in sample] != sample:
        failures.append("structure map is not the coded identity")

    rep = verify_chain_commutation(32)
    if not rep.ok:
        failures.append(("commutation", [e.law for e in rep.failures()]))

    rng = random.Random(SEED)
    for _ in range(50):
        c = _random_h_coalgebra(rng, 6)
        if not is_omega_hom(c, anamorphism(c)):
            failures.append(("not a hom", c.carrier.states))

    candidates = [ExtNat(i) for i in range(4)] + [INFINITY]
    for x in _structures(_Q2):
        if not x.states:
            continue
        for c in _valid_h_coalgebras(x):
            expected = anamorphism(c)
            found = []
            for values in iproduct(candidates, repeat=len(x.states)):
                assignment = dict(zip(x.states, values))
                if is_omega_hom(c, assignment):
                    found.append(assignment)
            if found != [expected]:
                failures.append(("uniqueness", x.matrix, c.structure, found))
    _finish(3, "extended naturals carry the terminal coalgebra",
            failures, time.monotonic() - t0, 30)


def test_criterion_4_cantor_obstruction():
    t0 = time.monotonic()
    failures = []
    for x in _structures(_Q2) + _structures(_G3):
        if not x.states:
            continue
        q = x.quantale
        hx = hausdorff_object(x)
        for images in iproduct(x.states, repeat=len(hx.elements)):
            v = cantor_check(x, list(images), hx=hx)
            if v.kind == "not-injective":
                a, b = v.subsets
                ia, ib = hx.category.index(a), hx.category.index(b)
                if a == b or images[ia] != images[ib]:
                    failures.append(("bad injectivity witness", x.matrix, images))
            elif v.kind == "not-initial":
                a, b = v.subsets
                ia, ib = hx.category.index(a), hx.category.index(b)
                if hx.category.a(a, b) == x.a(images[ia], images[ib]):
                    failures.append(("bad initiality witness", x.matrix, images))
            else:
                failures.append(("contradiction branch reached", x.matrix, images))
            if failures:
                break
        if failures:
            break
    _finish(4, "every candidate map fails to embed, with a checkable witness",
            failures, time.monotonic() - t0, 120)


def test_criterion_5_law_suites():
    t0 = time.monotonic()
    report = run_law_suites(SEED, cases=1000)
    _SUITE_REPORT["first"] = report
    failures = [
        (s["suite"], s["failures"][:3]) for s in report["suites"] if not s["passed"]
    ]
    _finish(5, "six law suites at 1000 seeded cases each",
            failures, time.monotonic() - t0)


def _setlevel_endomaps(states):
    return list(iproduct(states, repeat=len(states)))


def test_criterion_6_initial_lift_fibres():
    t0 = time.monotonic()
    failures = []
    states = ("s0", "s1")
    for q in (_Q2, _G3):
        two_state = [x for x in _structures(q) if len(x.states) == 2]
        cones = [None]
        for target in two_state:
            for d_map in _setlevel_endomaps(states):
                td = dict(zip(states, d_map))
                if not all(q.leq(target.a(s, t), target.a(td[s], td[t]))
                           for s in states for t in states):
                    continue
                leg_coalg = Coalgebra(Id(), target, td)
                cones.append(leg_coalg)
        for c_map in _setlevel_endomaps(states):
            structure = dict(zip(states, c_map))
            for leg in cones:
                if leg is None:
                    cone = []
                else:
                    # identity carrier map; keep only set-level morphisms
                    if any(leg.structure[s] != structure[s] for s in states):
                        continue
                    cone = [(list(states), leg)]
                got = initial_lift_coalgebra(Id(), q, states, structure, cone=cone)
                admissible = []
                for cells in iproduct(q.elements, repeat=4):
                    mat = [list(cells[:2]), list(cells[2:])]
                    cand = VCategory(q, states, mat)
                    if not is_vcategory(cand):
                        continue
                    if not all(q.leq(cand.a(s, t), cand.a(structure[s], structure[t]))
                               for s in states for t in states):
                        continue
                    if cone and not all(
                        q.leq(cand.a(s, t), leg.carrier.a(s, t))
                        for s in states for t in states
                    ):
                        continue
                    admissible.append(cand)
                best = max(
                    admissible,
                    key=lambda cand: sum(
                        q.leq(other.matrix[i][j], cand.matrix[i][j])
                        for other in admissible for i in range(2) for j in range(2)
                    ),
                )
                if any(not q.leq(other.matrix[i][j], best.matrix[i][j])
                       for other in admissible for i in range(2) for j in range(2)):
                    failures.append(("fibre has no greatest element?", q, structure))
                elif got.carrier != best:
                    failures.append((structure, got.carrier.matrix, best.matrix))
    _finish(6, "descent equals the brute-force greatest admissible structure",
            failures, time.monotonic() - t0, 60)


# -- shared instance generation for criteria 7 and 8 -----------------------


_LABELS = from_order(_Q2, ["l0", "l1"], [("l0", "l1")])
_FUNCTORS = [HComp(Id()), Id(), Prod([Const(_LABELS), Id()]),
             Sum([Const(_LABELS), Id()])]


def _rand_base_coalgebra(rng, q, expr, max_size=2):
    from quantcat import fibre_join

    n = rng.randint(1, max_size)
    states = [f"b{i}" for i in range(n)]
    raw = VCategory(q, states,
                    [[rng.choice(q.elements) for _ in range(n)] for _ in range(n)])
    carrier = fibre_join([raw])
    fx = eval_obj(expr, carrier)
    valid = []
    for images in iproduct(fx.states, repeat=n):
        ok = all(
            q.leq(carrier.a(s, t), fx.a(images[i], images[j]))
            for i, s in enumerate(states) for j, t in enumerate(states)
        )
        if ok:
            valid.append(images)
    images = rng.choice(valid)
    return Coalgebra(expr, carrier, dict(zip(states, images)))


def _double_coalgebra(base):
    """The coproduct of a coalgebra with itself, plus fold and injections."""
    b = base.carrier
    q = b.quantale
    states = [(i, s) for i in (0, 1) for s in b.states]
    bot = q.bottom
    mat = [[b.a(s, t) if i == j else bot for (j, t) in states] for (i, s) in states]
    x = VCategory(q, states, mat)
    inls = [VFunctor(b, x, [(i, s) for s in b.states]) for i in (0, 1)]
    structure = {}
    for i in (0, 1):
        fi = eval_mor(base.functor, inls[i])
        for s in b.states:
            structure[(i, s)] = fi(base.structure[s])
    cx = Coalgebra(base.functor, x, structure)
    fold = VFunctor(x, b, [s for (_, s) in states])
    return cx, fold


def _endo_homs(base):
    out = []
    for mapping in iproduct(base.carrier.states, repeat=len(base.carrier.states)):
        h = VFunctor(base.carrier, base.carrier, mapping)
        if is_coalg_hom(h, base, base):
            out.append(h)
    return out


def _hom_pair_instance(rng, q):
    expr = rng.choice(_FUNCTORS)
    base = _rand_base_coalgebra(rng, q, expr)
    cx, fold = _double_coalgebra(base)
    e = rng.choice(_endo_homs(base))
    g = VFunctor(cx.carrier, base.carrier,
                 [s if i == 0 else e(s) for (i, s) in cx.carrier.states])
    return cx, base, fold, g


def test_criterion_7_equalizers():
    t0 = time.monotonic()
    failures = []
    rng = random.Random(SEED + 7)
    for i in range(200):
        cx, base, f, g = _hom_pair_instance(rng, _Q2)
        assert is_coalg_hom(f, cx, base) and is_coalg_hom(g, cx, base)
        sub, incl = equalizer(cx, f, g)
        expected = largest_agreeing_subcoalgebra(cx, f, g)
        if expected is None:
            failures.append((i, "no unique largest sub-coalgebra"))
        elif sub.carrier.states != expected:
            failures.append((i, sub.carrier.states, expected))
        elif sub.carrier != restrict(cx.carrier, expected):
            failures.append((i, "structure not the restriction"))
        elif not is_coalg_hom(incl, sub, cx):
            failures.append((i, "inclusion not a homomorphism"))
    _finish(7, "equalizer equals the brute-force largest agreeing sub-coalgebra "
               "on 200 seeded instances", failures, time.monotonic() - t0, 60)


def _descent(c, depth):
    """The pairwise descent's iterates 0 .. depth, its stable last one repeated."""
    x = c.carrier
    out = list(pairwise_descent(c.functor, x.quantale, x.states, c.structure))
    return out + out[-1:] * (depth + 1 - len(out))


def test_criterion_8_behavioural_distances():
    t0 = time.monotonic()
    failures = []
    rng = random.Random(SEED + 8)

    for i in range(200):
        cx, base, fold, g = _hom_pair_instance(rng, _Q2)
        q = cx.carrier.quantale
        behs_x = behavior_map(cx, 3)
        behs_b = behavior_map(base, 3)
        for k in range(4):
            for s in cx.carrier.states:
                if behs_b[k](fold(s)) != behs_x[k](s):
                    failures.append((i, k, "fold not behaviour-invariant"))
        seqs = {
            (s, t): behavioral_distance(cx, s, t, 3)
            for s in cx.carrier.states for t in cx.carrier.states
        }
        for (s, t), seq in seqs.items():
            for k in range(3):
                if not q.leq(seq[k + 1], seq[k]):
                    failures.append((i, s, t, "not antitone"))
        oracle = _descent(cx, 3)
        for (s, t), seq in seqs.items():
            if [oracle[k].a(s, t) for k in range(4)] != seq:
                failures.append((i, s, t, "chain route disagrees with oracle"))
        if failures:
            break

    # the worked Lawvere example from the README, hand-derived
    lw = Quantale.lawvere()
    labels = metric_line([0, Fraction(1, 4), 1])
    expr = Prod([Const(labels), HComp(Id())])
    carrier = VCategory(
        lw, ["x", "u", "y", "v"],
        [[Fraction(0) if i == j else INF for j in range(4)] for i in range(4)],
    )
    c = Coalgebra(expr, carrier, {
        "x": ("0", frozenset({"y"})),
        "u": ("1/4", frozenset({"v"})),
        "y": ("1", frozenset({"y"})),
        "v": ("0", frozenset({"v"})),
    })
    table_xu = behavioral_distance(c, "x", "u", 2, symmetric=True)
    table_yv = behavioral_distance(c, "y", "v", 2, symmetric=True)
    if table_xu != [Fraction(0), Fraction(1, 4), Fraction(1)]:
        failures.append(("lawvere x-u", table_xu))
    if table_yv != [Fraction(0), Fraction(1), Fraction(1)]:
        failures.append(("lawvere y-v", table_yv))
    oracle = _descent(c, 2)
    if [oracle[k].a("x", "u") for k in range(3)] != table_xu:
        failures.append(("lawvere oracle disagrees", table_xu))
    _finish(8, "behavioural distances: antitone, hom-invariant, and the "
               "worked example reproduces its table", failures,
            time.monotonic() - t0)


def test_criterion_9_determinism():
    t0 = time.monotonic()
    first = _SUITE_REPORT.get("first") or run_law_suites(SEED, cases=1000)
    second = run_law_suites(SEED, cases=1000)
    failures = []
    if canonical_json(first) != canonical_json(second):
        failures.append("reports differ between runs")
    _finish(9, "law-suite reports are byte-identical under a fixed seed",
            failures, time.monotonic() - t0)
