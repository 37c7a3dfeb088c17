import random
from fractions import Fraction
from itertools import product as iproduct

import pytest

from quantcat import (
    CapExceeded,
    ConsistencyError,
    Const,
    Id,
    Prod,
    Quantale,
    VCategory,
    VFunctor,
    as_vcategory,
    check_vcategory,
    check_quantale_laws,
    check_vfunctor,
    compose,
    discrete,
    dual,
    eval_obj,
    fibre_join,
    from_order,
    identity_functor,
    indiscrete,
    initial_structure,
    internal_hom,
    is_separated,
    is_vcategory,
    is_vfunctor,
    metric_line,
    restrict,
    separated_reflection,
    symmetrize,
    tensor,
    terminal,
    underlying_order,
    vfunctors_between,
)
from quantcat import vcat
from quantcat.suites import QUANTALE_NAMES, _elements, rand_category
from oracle_routes import all_structures, is_initial_cone, priestley_cone, squaring_closure


def test_check_vcategory(q2, line013):
    assert check_vcategory(discrete(q2, ["a", "b"])).ok
    assert check_vcategory(line013).ok
    broken = VCategory(q2, ["a", "b"], [["0", "1"], ["0", "1"]])
    rep = check_vcategory(broken)
    assert not rep.ok
    assert rep.entry("reflexive").witness == ("a",)


def test_empty_carrier_is_legal(q2):
    empty = VCategory(q2, [], [])
    assert check_vcategory(empty).ok
    assert is_separated(empty)
    assert underlying_order(empty) == set()


def test_dual_and_symmetrize(q2, c2, lawvere):
    sym = discrete(q2, ["a", "b"])
    assert dual(sym) == sym
    assert symmetrize(c2) == discrete(q2, ["u", "v"])
    # one-way Lawvere distances a(x, y) = max(y - x, 0) on {0, 2}
    pts = [Fraction(0), Fraction(2)]
    x = VCategory(lawvere, ["0", "2"],
                  [[max(t - s, Fraction(0)) for t in pts] for s in pts])
    assert symmetrize(x).a("0", "2") == Fraction(2)  # meet = numeric max
    assert dual(dual(x)) == x
    assert symmetrize(x) == symmetrize(dual(x))


def test_underlying_order_and_separation(q2, c2, line013):
    ind = indiscrete(q2, ["x", "y"])
    assert not is_separated(ind)
    assert is_separated(c2)
    assert underlying_order(c2) == {("u", "u"), ("v", "v"), ("u", "v")}
    # the Lawvere line induces the discrete order: only zero distances count
    assert underlying_order(line013) == {(s, s) for s in line013.states}


def test_separated_reflection(q2):
    c2 = from_order(q2, ["u", "v"], [("u", "v")])
    quot, proj = separated_reflection(c2)
    assert quot == c2
    assert proj.mapping == ("u", "v")

    ind = indiscrete(q2, ["x", "y"])
    quot, proj = separated_reflection(ind)
    assert len(quot.states) == 1
    assert is_separated(quot)

    # u ~ v, w apart; representatives are least carrier indices
    x = VCategory(q2, ["u", "v", "w"],
                  [["1", "1", "1"], ["1", "1", "1"], ["0", "0", "1"]])
    assert check_vcategory(x).ok
    quot, proj = separated_reflection(x)
    assert quot.states == ("u", "w")
    assert quot.a("u", "w") == "1" and quot.a("w", "u") == "0"
    assert proj("v") == "u"
    assert is_separated(quot)
    # the projection is surjective and initial
    assert set(proj.mapping) == set(quot.states)
    assert is_initial_cone([proj])


def test_reflection_rejects_malformed_input(q2):
    bad = VCategory(q2, ["u", "v", "w"],
                    [["1", "1", "1"], ["1", "1", "0"], ["0", "0", "1"]])
    assert not check_vcategory(bad).ok
    with pytest.raises(ConsistencyError):
        separated_reflection(bad)


def test_tensor_unit_and_validity(q2, c2, godel3):
    point = terminal(q2)
    t = tensor(c2, point)
    assert [s for (s, _) in t.states] == list(c2.states)
    assert t.matrix == c2.matrix
    rng = random.Random(7)
    for q in (q2, godel3):
        for _ in range(10):
            a = _rand_cat(rng, q, 3)
            b = _rand_cat(rng, q, 2)
            assert is_vcategory(tensor(a, b))


def _rand_cat(rng, q, max_n):
    n = rng.randint(0, max_n)
    raw = VCategory(q, [f"s{i}" for i in range(n)],
                    [[rng.choice(q.elements) for _ in range(n)] for _ in range(n)])
    return fibre_join([raw])


def test_internal_hom(q2, c2, lawvere):
    h = internal_hom(c2, c2)
    assert len(h.states) == 3  # the three monotone self-maps
    assert is_vcategory(h)
    # pointwise order: constant-u <= identity <= constant-v
    order = underlying_order(h)
    cu, ident, cv = ("u", "u"), ("u", "v"), ("v", "v")
    assert (cu, ident) in order and (ident, cv) in order

    line = metric_line([0, 3])
    maps = internal_hom(line, line)
    const0, const3 = ("0", "0"), ("3", "3")
    # sup of pointwise distances: meet in the Lawvere order is numeric max
    assert maps.a(const0, const3) == Fraction(3)


def test_initial_structure_and_cones(q2, c2):
    lifted = initial_structure(q2, ["a", "b"], [(("u", "v"), c2)])
    assert lifted.matrix == c2.matrix
    empty = initial_structure(q2, ["a", "b"], [])
    assert empty == indiscrete(q2, ["a", "b"])
    two = initial_structure(q2, ["a", "b"],
                            [(("u", "v"), c2), (("v", "v"), c2)])
    # pointwise meet of the two pullbacks, evaluated by hand
    assert two.a("a", "b") == "1" and two.a("b", "a") == "0"
    assert two.a("a", "a") == "1" and two.a("b", "b") == "1"

    assert is_initial_cone([identity_functor(c2)])
    point = terminal(q2)
    to_point = VFunctor(c2, point, ["*", "*"])
    assert not is_initial_cone([to_point])
    assert is_initial_cone([], source=indiscrete(q2, ["x"]))


def test_tensor_projection_cone_against_meet_formula(q2, line013):
    # over the Boolean quantale tensor and meet coincide, so projections
    # out of a tensor form an initial cone; over Lawvere they do not
    a = from_order(q2, ["u", "v"], [("u", "v")])
    t = tensor(a, a)
    p1 = VFunctor(t, a, [s for (s, _) in t.states])
    p2 = VFunctor(t, a, [s for (_, s) in t.states])
    assert is_initial_cone([p1, p2])

    t2 = tensor(line013, line013)
    q1 = VFunctor(t2, line013, [s for (s, _) in t2.states])
    q2_ = VFunctor(t2, line013, [s for (_, s) in t2.states])
    assert not is_initial_cone([q1, q2_])


def test_fibre_join(q2, godel3):
    d = discrete(q2, ["a", "b"])
    assert fibre_join([d]) == d
    assert fibre_join([d, d]) == d
    up = from_order(q2, ["a", "b"], [("a", "b")])
    down = from_order(q2, ["a", "b"], [("b", "a")])
    assert fibre_join([up, down]) == indiscrete(q2, ["a", "b"])


@pytest.mark.parametrize("qname", ["bool", "godel:3"])
def test_fibre_join_is_least_upper_structure(qname):
    q = Quantale.by_name(qname)
    structures = all_structures(q, ["a", "b"])
    rng = random.Random(3)
    for _ in range(25):
        xs = rng.sample(structures, 2)
        j = fibre_join(xs)
        assert is_vcategory(j)
        for x in xs:
            assert all(q.leq(x.matrix[i][l], j.matrix[i][l])
                       for i in range(2) for l in range(2))
        for cand in structures:
            if all(q.leq(x.matrix[i][l], cand.matrix[i][l])
                   for x in xs for i in range(2) for l in range(2)):
                assert all(q.leq(j.matrix[i][l], cand.matrix[i][l])
                           for i in range(2) for l in range(2))


def _unit_below_top():
    """The 3-chain b < k < t with unit k: b absorbs and t (x) t = t, so the
    star of a diagonal t is t, not the unit."""
    els = ["b", "k", "t"]
    table = {(u, v): "b" if "b" in (u, v) else max(u, v, key=els.index)
             for u in els for v in els}
    q = Quantale.finite(els, [(u, v) for i, u in enumerate(els) for v in els[i:]],
                        table, "k")
    assert check_quantale_laws(q).ok
    return q


def test_fibre_join_matches_the_squaring_closure():
    rng = random.Random(16)
    for q in [Quantale.by_name(name) for name in QUANTALE_NAMES] + [_unit_below_top()]:
        pool = _elements(q)
        for n in range(9):
            states = [f"s{i}" for i in range(n)]
            for _ in range(5):
                xs = [
                    VCategory(q, states, [
                        [rng.choice(pool) if rng.random() < 0.5 else q.bottom
                         for _ in range(n)]
                        for _ in range(n)
                    ])
                    for _ in range(rng.randint(1, 3))
                ]
                assert fibre_join(xs) == squaring_closure(xs), (q, xs)


def test_fibre_join_closes_a_long_path(lawvere):
    # squaring needs about log2(32) rounds here.  Over the 3-chain, state 16
    # carries a loop t above the unit, and every path through it reads t.
    n = 32
    states = [f"s{i}" for i in range(n)]
    for q, edge, loop, closed in (
        (lawvere, Fraction(1), Fraction(0), lambda i, j: Fraction(j - i)),
        (_unit_below_top(), "k", "t", lambda i, j: "t" if i <= 16 <= j else "k"),
    ):
        raw = VCategory(q, states, [
            [edge if j == i + 1 else loop if i == j == 16 else q.bottom for j in range(n)]
            for i in range(n)
        ])
        out = fibre_join([raw])
        assert out == squaring_closure([raw])
        assert out.matrix == tuple(
            tuple(closed(i, j) if j >= i else q.bottom for j in range(n))
            for i in range(n)
        )


def test_check_vfunctor(q2, c2):
    assert check_vfunctor(identity_functor(c2)).ok
    point = terminal(q2)
    assert check_vfunctor(VFunctor(c2, point, ["*", "*"])).ok
    swap = VFunctor(c2, c2, ["v", "u"])
    rep = check_vfunctor(swap)
    assert not rep.ok
    assert rep.entry("structure-preserving").witness == ("u", "v")


def test_compose_preserves_law(q2, c2):
    down = VFunctor(c2, c2, ["u", "u"])
    up = VFunctor(c2, c2, ["v", "v"])
    assert is_vfunctor(down) and is_vfunctor(up)
    assert is_vfunctor(compose(up, down))
    with pytest.raises(ConsistencyError):
        compose(down, VFunctor(c2, terminal(q2), ["*", "*"]))


def test_vfunctors_between(q2, c2, monkeypatch):
    point = terminal(q2)
    assert len(vfunctors_between(point, c2)) == 2
    assert len(vfunctors_between(c2, c2)) == 3
    assert len(vfunctors_between(c2, discrete(q2, ["a", "b"]))) == 2
    # 2^15 candidate maps exceed the bound, which is checked before any is tried
    monkeypatch.setattr(vcat, "is_vfunctor", None)
    with pytest.raises(CapExceeded) as err:
        vfunctors_between(discrete(q2, [f"s{i}" for i in range(15)]), c2)
    assert (err.value.size, err.value.cap) == (2 ** 15, vcat.VFUNCTOR_MAP_CAP)


def test_join_meet_are_vfunctors_out_of_powers(q2, godel3):
    """Pointwise join and meet out of finite powers of the quantale."""
    for q in (q2, godel3):
        v = as_vcategory(q)
        for size in (1, 2, 3):
            states = list(iproduct(q.elements, repeat=size))
            power = initial_structure(
                q, states,
                [([s[i] for s in states], v) for i in range(size)],
            )
            jmap = VFunctor(power, v, [q.join_all(s) for s in states])
            mmap = VFunctor(power, v, [q.meet_all(s) for s in states])
            assert is_vfunctor(jmap)
            assert is_vfunctor(mmap)


def test_structure_map_is_vfunctor_on_dual_tensor(q2, godel3, c2):
    """The structure matrix as a map out of dual(X) (x) X."""
    fixtures = [c2, discrete(q2, ["a", "b", "c"]), from_order(
        godel3, ["x", "y"], [("x", "y")])]
    for x in fixtures:
        q = x.quantale
        dom = tensor(dual(x), x)
        amap = VFunctor(dom, as_vcategory(q),
                        [x.a(s, t) for (s, t) in dom.states])
        assert is_vfunctor(amap)


def test_reflection_preserves_initial_cones(q2, godel3):
    """Quotienting every leg of an initial cone stays initial."""
    rng = random.Random(11)
    for q in (q2, godel3):
        for _ in range(20):
            y1 = _rand_cat(rng, q, 2)
            y2 = _rand_cat(rng, q, 2)
            if not y1.states or not y2.states:
                continue
            n = rng.randint(1, 3)
            states = [f"s{i}" for i in range(n)]
            m1 = [rng.choice(y1.states) for _ in range(n)]
            m2 = [rng.choice(y2.states) for _ in range(n)]
            src = initial_structure(q, states, [(m1, y1), (m2, y2)])
            cone = [VFunctor(src, y1, m1), VFunctor(src, y2, m2)]
            assert is_initial_cone(cone)
            sq, sproj = separated_reflection(src)
            legs = []
            for f in cone:
                tq, tproj = separated_reflection(f.target)
                legs.append(VFunctor.from_dict(
                    sq, tq, {sproj(s): tproj(f(s)) for s in src.states}
                ))
            assert is_initial_cone(legs)


@pytest.mark.parametrize("name", QUANTALE_NAMES)
def test_limit_structures_match_their_formulas(name):
    """indiscrete, symmetrize, internal_hom and the functor product are all
    initial structures; each matches its direct formula cell by cell."""
    q = Quantale.by_name(name)
    rng = random.Random(15)
    for _ in range(40):
        x = rand_category(rng, q, max_size=3)
        y = rand_category(rng, q, max_size=2, min_size=1)
        top, sym = indiscrete(q, x.states), symmetrize(x)
        for s in x.states:
            for t in x.states:
                assert top.a(s, t) == q.top
                assert sym.a(s, t) == q.meet(x.a(s, t), x.a(t, s))
        hom = internal_hom(x, y)
        assert hom.states == tuple(f.mapping for f in vfunctors_between(x, y))
        for f in hom.states:
            for g in hom.states:
                want = q.top
                for u, v in zip(f, g):
                    want = q.meet(want, y.a(u, v))
                assert hom.a(f, g) == want
        prod = eval_obj(Prod([Const(y), Id(), Const(x)]), x)
        assert prod.states == tuple(iproduct(y.states, x.states, x.states))
        for s in prod.states:
            for t in prod.states:
                want = q.meet(q.meet(y.a(s[0], t[0]), x.a(s[1], t[1])), x.a(s[2], t[2]))
                assert prod.a(s, t) == want


def test_restrict(c2):
    sub = restrict(c2, ["v"])
    assert sub.states == ("v",)
    assert sub.matrix == (("1",),)


def test_is_separated_matches_the_priestley_cone():
    """The cone of all V-functors into V^op is always initial, and it
    separates points exactly on the separated V-categories."""
    rng = random.Random(17)
    seen = set()
    for q in [Quantale.by_name(name) for name in QUANTALE_NAMES if name != "lawvere"] + [
            _unit_below_top()]:
        for _ in range(120):
            x = rand_category(rng, q, max_size=4)
            ok, cert = priestley_cone(x)
            assert cert["initial"], x.matrix
            assert ok == cert["separating"] == is_separated(x), x.matrix
            seen.add(ok)
    assert seen == {True, False}
