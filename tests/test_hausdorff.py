import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from quantcat import (
    CapExceeded,
    Const,
    DescriptorError,
    HComp,
    Id,
    Prod,
    Quantale,
    VCategory,
    VFunctor,
    VRelation,
    cantor_check,
    check_lax_extension_laws,
    check_vcategory,
    compose,
    discrete,
    enumerate_increasing,
    eval_obj,
    fibre_join,
    final_chain,
    from_order,
    hausdorff_distance,
    hausdorff_map,
    hausdorff_object,
    identity_functor,
    indiscrete,
    initial_structure,
    is_separated,
    is_vfunctor,
    metric_line,
    monad_mult,
    monad_unit,
    strict_less,
    strict_up,
    terminal,
    underlying_order,
    up_closure,
)
from quantcat import hausdorff
from quantcat.hausdorff import _ids, _up_mask
from quantcat.suites import QUANTALE_NAMES, draw_quantale, rand_category, rand_relation
from conftest import diamond_fork, diamond_quantale
from oracle_routes import (down_closure, generic_powerset_lift, powerset_extension,
                           powerset_extension_laws, powerset_lift, symmetric_hausdorff)


def test_up_closure_examples(q2, c2, line013):
    assert up_closure(c2, set()) == frozenset()
    assert up_closure(c2, {"u"}) == frozenset({"u", "v"})
    assert up_closure(line013, {"0"}) == frozenset({"0"})
    assert down_closure(c2, {"v"}) == frozenset({"u", "v"})


def test_enumerate_increasing(q2, c2):
    d = discrete(q2, ["a", "b"])
    assert len(enumerate_increasing(d)) == 4
    assert [set(s) for s in enumerate_increasing(c2)] == [set(), {"v"}, {"u", "v"}]
    ind = indiscrete(q2, ["a", "b"])
    assert [set(s) for s in enumerate_increasing(ind)] == [set(), {"a", "b"}]


def _swept_fixed_points(x):
    """The oracle: every subset, in ascending mask order, that is its own
    up-closure."""
    return [_ids(x, m) for m in range(1 << len(x.states)) if _up_mask(x, m) == m]


def test_order_upset_enumeration_matches_sweep(q2, godel3, c2, line013):
    """The order up-sets, filtered by the closure, are the swept fixed
    points in the swept order."""
    fixtures = [
        c2,
        line013,
        from_order(q2, list("abcd"), [("a", "b"), ("b", "c"), ("a", "d")]),
        discrete(godel3, list("abc")),
        from_order(godel3, list("abc"), [("a", "b")]),
        indiscrete(q2, list("abc")),
        discrete(Quantale.godel(1), list("ab")),
        diamond_fork(),
    ]
    rng = random.Random(5)
    for _ in range(40):
        for name in QUANTALE_NAMES:
            fixtures.append(rand_category(rng, Quantale.by_name(name), max_size=5))
    for x in fixtures:
        assert enumerate_increasing(x) == _swept_fixed_points(x)


def test_closure_filter_rejects_an_order_upset():
    """Over a non-chain quantale an order up-set need not be closed."""
    x = diamond_fork()
    upsets = [_ids(x, m) for m in sorted(hausdorff._order_upset_masks(x, 4096))]
    assert len(upsets) == 8
    assert frozenset({"x", "y"}) in upsets
    assert up_closure(x, {"x", "y"}) == frozenset({"x", "y", "z"})
    found = enumerate_increasing(x)
    assert frozenset({"x", "y"}) not in found
    assert len(found) == 7
    # the count cap bounds the order up-sets examined, not the fixed points
    with pytest.raises(CapExceeded) as err:
        enumerate_increasing(x, count_cap=7)
    assert (err.value.what, err.value.size, err.value.cap) == ("increasing-subset count", 8, 7)


def test_enumeration_respects_the_count_cap(q2):
    """A carrier with more increasing subsets than the count cap stops at
    the first one too many."""
    x = discrete(q2, [f"s{i}" for i in range(12)])
    with pytest.raises(CapExceeded) as err:
        eval_obj(HComp(Id()), x, cap=64)
    # all 4096 subsets are increasing
    assert (err.value.what, err.value.size, err.value.cap) == ("increasing-subset count", 65, 64)
    # the walk is not recursive, so a carrier far above the recursion limit
    # meets the count cap too
    with pytest.raises(CapExceeded) as err:
        enumerate_increasing(discrete(q2, [f"s{i}" for i in range(1100)]), count_cap=64)
    assert (err.value.what, err.value.size, err.value.cap) == ("increasing-subset count", 65, 64)
    with pytest.raises(CapExceeded):
        enumerate_increasing(discrete(q2, ["a", "b", "c"]), count_cap=7)
    assert len(enumerate_increasing(discrete(q2, ["a", "b", "c"]), count_cap=8)) == 8


def _chain(q, n):
    states = [f"c{i:02d}" for i in range(n)]
    return from_order(q, states, [(s, t) for i, s in enumerate(states) for t in states[i + 1:]])


def test_chain_enumeration_closes_one_subset_per_upset(q2, monkeypatch):
    """A 14-state chain has 15 up-sets, and each is closed once."""
    calls = []
    real = hausdorff._up_mask

    def counting(x, mask):
        calls.append(mask)
        return real(x, mask)

    monkeypatch.setattr(hausdorff, "_up_mask", counting)
    assert len(enumerate_increasing(_chain(q2, 14))) == 15
    assert len(calls) <= 15


def _v_shape(q, n):
    """A point below two chains that share nothing else: n states."""
    arms = [[f"{side}{i:02d}" for i in range(k)]
            for side, k in (("l", (n - 1) // 2), ("r", n - 1 - (n - 1) // 2))]
    pairs = [("v", s) for arm in arms for s in arm]
    pairs += [(s, t) for arm in arms for i, s in enumerate(arm) for t in arm[i + 1:]]
    return from_order(q, ["v"] + arms[0] + arms[1], pairs)


@pytest.mark.parametrize("n", [13, 14, 17, 20])
@pytest.mark.parametrize("shape, size", [
    (_chain, lambda n: n + 1),
    # the up-sets without v pair an up-set of each arm; with v, all states
    (_v_shape, lambda n: ((n - 1) // 2 + 1) * (n - (n - 1) // 2) + 1),
], ids=["chain", "v-shape"])
def test_hausdorff_object_is_the_value_of_h(q2, godel3, shape, size, n):
    """One bound decides whether Hx is built, so the lifted object and the
    value of H(Id) agree on carriers of any number of states."""
    for q in (q2, godel3):
        x = shape(q, n)
        hx = hausdorff_object(x)
        assert len(hx) == size(n)
        assert hx.category == eval_obj(HComp(Id()), x)


# -- the incremental fill against the meet of joins ---------------------------


def _with_equivalent_states(q):
    """a and b above each other and below c; d and e above each other and
    apart from the rest: a preorder with two classes of two states."""
    x = fibre_join([from_order(q, list("abcde"),
                               [("a", "b"), ("b", "a"), ("b", "c"), ("d", "e"), ("e", "d")])])
    assert check_vcategory(x).ok and not is_separated(x)
    return x


def _assert_meet_of_joins(x, lifted):
    """``lifted`` is on the increasing subsets of x, and each of its entries
    is ``hausdorff_distance`` of its pair."""
    assert list(lifted.states) == enumerate_increasing(x)
    for a, row in zip(lifted.states, lifted.matrix):
        for b, v in zip(lifted.states, row):
            assert v == hausdorff_distance(x, a, b), (x.quantale, x.matrix, a, b)


def test_lifted_matrix_is_the_meet_of_joins_on_seeded_carriers():
    """Each entry grown from a smaller up-set's entry equals the direct
    meet of joins: over the five built-ins, godel:1, the diamond lattice,
    preorders with equivalent states and the empty carrier."""
    rng = random.Random(26)
    diamond = diamond_quantale()
    quantales = [Quantale.by_name(name) for name in QUANTALE_NAMES] + [Quantale.godel(1), diamond]
    carriers = [diamond_fork()]
    for q in quantales:
        carriers += [discrete(q, []), _with_equivalent_states(q)]
        carriers += [rand_category(rng, q, min_size=1, max_size=6) for _ in range(15)]
    for x in carriers:
        _assert_meet_of_joins(x, hausdorff_object(x).category)


def test_final_chain_levels_are_the_meet_of_joins_to_depth_24(q2, lawvere):
    chains = [final_chain(HComp(Id()), 24, quantale=q2),
              final_chain(Prod([Const(metric_line([0, 1])), HComp(Id())]), 2, quantale=lawvere)]
    assert [len(level.obj) for level in chains[0]] == list(range(1, 26))
    for chain in chains:
        for level in chain[:-1]:
            # kept on the level when the level above was built
            _assert_meet_of_joins(level.obj, eval_obj(HComp(Id()), level.obj))
    assert all(above.obj is eval_obj(HComp(Id()), level.obj)
               for level, above in zip(chains[0], chains[0][1:]))


def test_hausdorff_object_reads_the_elements_it_is_given(q2, c2, line013, monkeypatch):
    """Given the enumeration, the same lifted object is built without
    walking the up-sets again."""
    carriers = [c2, line013, diamond_fork(), _with_equivalent_states(q2)]
    enumerated = [(x, enumerate_increasing(x), hausdorff_object(x)) for x in carriers]

    def refuse(*args):
        raise AssertionError("the up-sets were walked again")

    monkeypatch.setattr(hausdorff, "_order_upset_masks", refuse)
    for x, elements, want in enumerated:
        assert hausdorff_object(x, elements=elements) == want


def test_hausdorff_object_boundary_values(q2, c2, line013):
    h = hausdorff_object(c2)
    empty = frozenset()
    full = frozenset({"u", "v"})
    assert h.category.a(full, empty) == "1"
    assert h.category.a(empty, frozenset({"v"})) == "0"
    hl = hausdorff_object(line013)
    assert hl.category.a(frozenset({"0"}), frozenset()) == Fraction(0)


def test_hausdorff_distance_lawvere_line(line013):
    assert hausdorff_distance(line013, {"0", "1"}, {"3"}) == Fraction(2)
    assert hausdorff_distance(line013, {"3"}, {"0", "1"}) == Fraction(3)
    assert hausdorff_distance(line013, {"0"}, {"1", "3"}) == Fraction(3)


def test_unit_membership_iff_contained(q2, c2):
    """Unit below the lifted distance exactly when contained in the closure."""
    subsets = [frozenset(), frozenset({"u"}), frozenset({"v"}), frozenset({"u", "v"})]
    for a in subsets:
        for b in subsets:
            lhs = q2.leq(q2.unit, hausdorff_distance(c2, a, b))
            assert lhs == (b <= up_closure(c2, a))


def test_hausdorff_object_separated_with_containment_order(q2, godel3, line013):
    for x in (from_order(q2, list("ab"), [("a", "b")]),
              discrete(godel3, list("abc")), line013):
        h = hausdorff_object(x)
        assert check_vcategory(h.category).ok
        assert is_separated(h.category)
        order = underlying_order(h.category)
        for a, b in order:
            assert set(b) <= set(a)
        # and conversely containment implies the order
        for a in h.elements:
            for b in h.elements:
                if set(b) <= set(a):
                    assert (a, b) in order


def test_hausdorff_map(q2, c2):
    hc2 = hausdorff_object(c2)
    ident = hausdorff_map(identity_functor(c2), hc2, hc2)
    assert ident == identity_functor(hc2.category)

    point = terminal(q2)
    hpoint = hausdorff_object(point)
    bang = hausdorff_map(VFunctor(c2, point, ["*", "*"]), hc2, hpoint)
    assert bang(frozenset()) == frozenset()
    assert bang(frozenset({"v"})) == frozenset({"*"})
    assert bang(frozenset({"u", "v"})) == frozenset({"*"})

    sub = from_order(q2, ["v"], [])
    incl = hausdorff_map(VFunctor(sub, c2, ["v"]))
    assert incl(frozenset()) == frozenset()
    assert incl(frozenset({"v"})) == frozenset({"v"})


def test_hausdorff_map_functorial(q2, c2):
    f = VFunctor(c2, c2, ["u", "u"])
    g = VFunctor(c2, c2, ["v", "v"])
    hc2 = hausdorff_object(c2)
    hf = hausdorff_map(f, hc2, hc2)
    hg = hausdorff_map(g, hc2, hc2)
    hgf = hausdorff_map(compose(g, f), hc2, hc2)
    assert hgf == compose(hg, hf)


def test_monad_components(q2, c2):
    point = terminal(q2)
    hpoint = hausdorff_object(point)
    eta = monad_unit(point, hpoint)
    assert eta("*") == frozenset({"*"})
    assert len(hpoint) == 2

    hh = hausdorff_object(hpoint.category)
    mu = monad_mult(point, hpoint, hh)
    assert mu(frozenset({frozenset()})) == frozenset()
    assert mu(frozenset({frozenset(), frozenset({"*"})})) == frozenset({"*"})

    eta_c2 = monad_unit(c2)
    assert eta_c2("u") == frozenset({"u", "v"})
    assert is_vfunctor(eta_c2)


def test_monad_laws_on_fixture(q2, c2):
    hx = hausdorff_object(c2)
    hhx = hausdorff_object(hx.category)
    hhhx = hausdorff_object(hhx.category)
    eta = monad_unit(c2, hx)
    mu = monad_mult(c2, hx, hhx)
    assert compose(mu, monad_unit(hx.category, hhx)) == identity_functor(hx.category)
    assert compose(mu, hausdorff_map(eta, hx, hhx)) == identity_functor(hx.category)
    assert compose(mu, hausdorff_map(mu, hhhx, hhx)) == \
        compose(mu, monad_mult(hx.category, hhx, hhhx))
    # the multiplication is left adjoint to the lifted unit
    h_eta = hausdorff_map(eta, hx, hhx)
    for fam in hhx.elements:
        for b in hx.elements:
            lhs = q2.leq(q2.unit, hx.category.a(mu(fam), b))
            rhs = q2.leq(q2.unit, hhx.category.a(fam, h_eta(b)))
            assert lhs == rhs


def test_powerset_lift(q2, c2, line013):
    p = powerset_lift(c2)
    assert len(p.states) == 4
    assert check_vcategory(p).ok
    h = hausdorff_object(c2)
    for a in h.elements:
        for b in h.elements:
            assert p.a(a, b) == h.category.a(a, b)
    # closure invariance on the full powerset
    for a in p.states:
        for b in p.states:
            v = p.a(a, b)
            assert p.a(up_closure(c2, a), b) == v
            assert p.a(a, up_closure(c2, b)) == v
    assert len(powerset_lift(terminal(q2)).states) == 2
    pl = powerset_lift(line013)
    assert pl.a(frozenset({"0"}), frozenset({"1", "3"})) == Fraction(3)


def test_generic_lift_equals_direct_lift(q2, godel3, c2):
    assert generic_powerset_lift(c2) == powerset_lift(c2)
    x = from_order(godel3, ["x", "y"], [("x", "y")])
    assert generic_powerset_lift(x) == powerset_lift(x)


def test_generic_lift_one_point(q2):
    point = terminal(q2)
    g = generic_powerset_lift(point)
    empty, full = frozenset(), frozenset({"*"})
    assert g.a(empty, empty) == "1"
    assert g.a(empty, full) == "0"
    assert g.a(full, empty) == "1"
    assert g.a(full, full) == "1"


def test_lax_extension_laws_on_instance(q2):
    xs, ys, zs = ["x0", "x1"], ["y0", "y1"], ["z0"]
    r = VRelation(q2, xs, ys, [["1", "0"], ["0", "1"]])
    r2 = VRelation(q2, xs, ys, [["1", "1"], ["0", "1"]])
    s = VRelation(q2, ys, zs, [["1"], ["0"]])
    rep = check_lax_extension_laws(HComp(Id()), r, r2, s, {"x0": "y0", "x1": "y1"})
    assert rep.ok


def test_lax_extension_formula(q2):
    xs, ys = ["x0", "x1"], ["y0"]
    r = VRelation(q2, xs, ys, [["1"], ["0"]])

    def ext(a, b):
        return HComp(Id()).matrix(q2, r.r, [a], [b])[0][0]

    a, b = frozenset(xs), frozenset(ys)
    assert ext(a, b) == "1"          # some x relates to y0
    assert ext(frozenset({"x1"}), b) == "0"
    assert ext(a, frozenset()) == "1"  # empty meet
    assert ext(frozenset(), b) == "0"  # empty join


def test_the_h_node_is_the_powerset_extension():
    """On discrete carriers H(Id)'s elements are every subset in ascending
    mask order, its ``matrix`` is the relation-level powerset extension
    entry for entry, and ``check_lax_extension_laws`` gives the verdicts
    that the extension's own law checks give, also for an r2 that is not
    above r."""
    rng = random.Random(33)
    h = HComp(Id())
    unmonotone = 0
    for _ in range(300):
        _, q = draw_quantale(rng)
        xs, ys, zs = ([f"{c}{i}" for i in range(rng.randint(0, 3))] for c in "xyz")
        r, r2, s = (rand_relation(rng, q, a, b) for a, b in ((xs, ys), (xs, ys), (ys, zs)))
        if rng.random() < 0.5:
            r2 = VRelation(q, xs, ys, [list(map(q.join, u, v)) for u, v in zip(r.matrix, r2.matrix)])
        if xs and not ys:
            continue  # no map into the empty set
        mapping = {x: rng.choice(ys) for x in xs}
        ext = powerset_extension(r)
        fx, fy = (h.elements(discrete(q, states), 4096) for states in (xs, ys))
        assert (list(fx), list(fy)) == (list(ext.source_states), list(ext.target_states))
        assert h.matrix(q, r.r, fx, fy) == [list(row) for row in ext.matrix], (q, r.matrix)
        verdicts = tuple(e.passed for e in check_lax_extension_laws(h, r, r2, s, mapping).entries)
        assert verdicts == powerset_extension_laws(r, r2, s, mapping), (q, r.matrix, r2.matrix)
        unmonotone += not verdicts[0]
    assert unmonotone > 20, unmonotone


def test_strict_order(q2, c2, line013):
    assert strict_less(c2, "u", "v")
    assert not strict_less(c2, "v", "u")
    assert strict_up(c2, "u") == frozenset({"v"})
    sym = discrete(q2, ["a", "b"])
    assert all(not strict_less(sym, s, t) for s in sym.states for t in sym.states)
    assert all(strict_up(line013, s) == frozenset() for s in line013.states)
    # the strictly-above set is increasing
    for x in (c2, sym, line013):
        for s in x.states:
            su = strict_up(x, s)
            assert up_closure(x, su) == su


def test_strict_dominance_in_lifted_object(q2, c2):
    """The up-set of a point sits strictly below its strictly-above set."""
    up_u = up_closure(c2, {"u"})
    eup_u = strict_up(c2, "u")
    h = hausdorff_object(c2)
    assert q2.leq(q2.unit, h.category.a(up_u, eup_u))
    assert h.category.a(eup_u, up_u) == q2.bottom


def test_initial_vfunctors_preserve_strict_order(q2, c2):
    y = c2
    src_states = ["a", "b"]
    mapping = ["u", "v"]
    x = initial_structure(q2, src_states, [(mapping, y)])
    f = VFunctor(x, y, mapping)
    for s in src_states:
        for t in src_states:
            if strict_less(x, s, t):
                assert strict_less(y, f(s), f(t))


def test_cantor_pigeonhole(q2, c2):
    hc2 = hausdorff_object(c2)
    v = cantor_check(c2, {a: "u" for a in hc2.elements}, hx=hc2)
    assert v.kind == "not-injective"
    point = terminal(q2)
    hp = hausdorff_object(point)
    v2 = cantor_check(point, ["*", "*"], hx=hp)
    assert v2.kind == "not-injective"


def test_cantor_injective_but_not_initial(q2):
    # two equivalent bottom points below a 2-chain: exactly 4 increasing
    # subsets on 4 states, so injective maps exist
    x = VCategory(q2, ["a", "b", "c", "d"], [
        ["1", "1", "1", "1"],
        ["1", "1", "1", "1"],
        ["0", "0", "1", "1"],
        ["0", "0", "0", "1"],
    ])
    assert check_vcategory(x).ok
    hx = hausdorff_object(x)
    assert len(hx) == 4
    for images in [["a", "b", "c", "d"], ["d", "c", "b", "a"]]:
        v = cantor_check(x, images, hx=hx)
        assert v.kind == "not-initial"
        assert v.subsets is not None and v.values is not None
        a, b = v.subsets
        assert hx.category.a(a, b) != x.a(
            images[hx.category.index(a)], images[hx.category.index(b)]
        )


def test_cantor_rejects_trivial_quantale():
    one = Quantale.godel(1)
    x = discrete(one, ["s"])
    with pytest.raises(DescriptorError):
        cantor_check(x, ["s", "s"])


def test_symmetric_hausdorff(line013, lawvere):
    assert symmetric_hausdorff(line013, {"0", "1"}, {"3"}) == Fraction(3)
    v = symmetric_hausdorff(line013, {"0", "1"}, {"0", "1"})
    assert lawvere.leq(lawvere.unit, v)
    # the one-sided distance out of the empty set is infinity
    assert hausdorff_distance(line013, set(), {"0"}) is lawvere.bottom
    assert symmetric_hausdorff(line013, set(), {"0"}) is lawvere.bottom


@settings(max_examples=80, derandomize=True)
@given(st.sets(st.sampled_from(["a", "b", "c"])),
       st.sets(st.sampled_from(["a", "b", "c"])))
def test_closure_laws_property(a, b):
    q = Quantale.godel(3)
    x = from_order(q, ["a", "b", "c"], [("a", "b"), ("b", "c"), ("a", "c")])
    ua = up_closure(x, a)
    assert a <= ua
    assert up_closure(x, ua) == ua
    # intersections of increasing subsets stay increasing
    ub = up_closure(x, b)
    assert up_closure(x, ua & ub) == ua & ub


# -- up-closure read off unit rows -----------------------------------------


def _folded_up_mask(x, mask):
    """The oracle: state j is in the up-closure when the unit lies below
    the join of the column j over the subset."""
    q = x.quantale
    n = len(x.states)
    return sum(1 << j for j in range(n)
               if q.leq(q.unit, q.join_all(x.matrix[i][j] for i in range(n) if mask >> i & 1)))


def test_unit_rows_equal_the_fold_on_random_carriers():
    rng = random.Random(300)
    quantales = [Quantale.by_name(name) for name in ("bool", "godel:3", "lukasiewicz:3", "lawvere")]
    for case in range(300):
        q = quantales[case % len(quantales)]
        assert q.unit_join_prime
        x = rand_category(rng, q, max_size=5)
        for m in range(1 << len(x.states)):
            assert _up_mask(x, m) == _folded_up_mask(x, m), (x.matrix, m)


def test_up_closure_folds_when_the_unit_is_not_join_prime():
    """Rows would be wrong in both cases, so the fold must be taken."""
    # godel:1: the unit is the bottom, the empty join, so every state is
    # above the empty set
    one = Quantale.godel(1)
    assert not one.unit_join_prime
    x = discrete(one, ["a", "b"])
    assert up_closure(x, set()) == frozenset({"a", "b"})
    assert _up_mask(x, 0) == _folded_up_mask(x, 0) == 0b11
    # the diamond: 1 <= a v b, but 1 is neither below a nor below b
    fork = diamond_fork()
    assert not fork.quantale.unit_join_prime
    assert fork.unit_rows() == (0b001, 0b010, 0b100)
    assert up_closure(fork, {"x", "y"}) == frozenset({"x", "y", "z"})
    for m in range(8):
        assert _up_mask(fork, m) == _folded_up_mask(fork, m)


def test_unit_rows_are_the_underlying_order(q2, c2, line013):
    for x in (c2, line013, diamond_fork(), discrete(Quantale.godel(1), ["a", "b"])):
        rows = x.unit_rows()
        assert rows is x.unit_rows()
        q = x.quantale
        order = {(s, t) for s in x.states for t in x.states if q.leq(q.unit, x.a(s, t))}
        assert {(s, t) for i, s in enumerate(x.states) for j, t in enumerate(x.states)
                if rows[i] >> j & 1} == order == underlying_order(x)
    assert c2.unit_rows() == (0b11, 0b10)
