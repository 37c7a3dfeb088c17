import gc
import json
import random
import tracemalloc
from fractions import Fraction
from itertools import product as iproduct

import pytest

from quantcat import (
    INF,
    AssumptionReport,
    CapExceeded,
    Coalgebra,
    ConsistencyError,
    Const,
    HComp,
    Id,
    LawEntry,
    Prod,
    Quantale,
    Sum,
    VCategory,
    VFunctor,
    VRelation,
    behavior_map,
    behavioral_distance,
    check_coalgebra,
    compose,
    discrete,
    distance_table,
    equalizer,
    eval_mor,
    eval_obj,
    fibre_join,
    final_chain,
    from_order,
    identity_functor,
    indiscrete,
    initial_lift_coalgebra,
    is_coalg_hom,
    is_separated,
    is_vcategory,
    is_vfunctor,
    metric_line,
    restrict,
    symmetrize,
    terminal,
    vfunctors_between,
)
from quantcat import coalg, hausdorff
from quantcat.coalg import _normal_form, _term_text, normalize_term
from quantcat.descriptors import dump_term, load_term
from quantcat.suites import QUANTALE_NAMES, draw_functor, rand_category, rand_relation
from conftest import diamond_fork, diamond_quantale
from oracle_routes import (draw_set_term, entry_lift, in_functor, largest_agreeing_subcoalgebra,
                           pairwise_descent, set_map, set_terms, tree_eval_mor, tree_image)


@pytest.fixture()
def hid():
    return HComp(Id())


def test_eval_obj_id_and_const(q2, c2):
    assert eval_obj(Id(), c2) == c2
    assert eval_obj(Const(c2), discrete(q2, ["a"])) == c2


def test_eval_obj_h_on_point(q2, hid):
    two = eval_obj(hid, terminal(q2))
    assert len(two.states) == 2
    # a two-element chain: the full subset sits below the empty one
    empty, full = frozenset(), frozenset({"*"})
    assert two.a(full, empty) == "1"
    assert two.a(empty, full) == "0"


def test_eval_obj_product_with_point(q2, c2):
    p = eval_obj(Prod([Const(c2), Id()]), terminal(q2))
    assert [s for (s, _) in p.states] == list(c2.states)
    assert p.matrix == c2.matrix


def test_eval_obj_sum(q2, c2):
    s = eval_obj(Sum([Const(c2), Id()]), terminal(q2))
    assert len(s.states) == 3
    assert s.a((0, "u"), (1, "*")) == "0"
    assert s.a((0, "u"), (0, "v")) == "1"
    assert is_vcategory(s)


def test_eval_mor_functor_laws(q2, c2, hid):
    exprs = [hid, Prod([Const(c2), Id()]), Sum([Id(), Id()]), HComp(Prod([Id(), Id()]))]
    f = VFunctor(c2, c2, ["u", "u"])
    g = VFunctor(c2, c2, ["v", "v"])
    for expr in exprs:
        ident = eval_mor(expr, VFunctor(c2, c2, c2.states))
        assert ident.mapping == tuple(eval_obj(expr, c2).states)
        assert eval_mor(expr, compose(g, f)) == compose(eval_mor(expr, g), eval_mor(expr, f))
        assert is_vfunctor(eval_mor(expr, f))


def test_check_coalgebra(q2, hid):
    x = discrete(q2, ["x", "y"])
    good = Coalgebra(hid, x, {"x": frozenset({"x"}), "y": frozenset()})
    assert check_coalgebra(good).ok
    # a non-increasing payload is not an element of the lifted object
    c2 = from_order(q2, ["u", "v"], [("u", "v")])
    bad = Coalgebra(hid, c2, {"u": frozenset({"u"}), "v": frozenset()})
    rep = check_coalgebra(bad)
    assert not rep.ok


def test_is_coalg_hom(q2, hid, c2):
    x = discrete(q2, ["x", "y"])
    c = Coalgebra(hid, x, {"x": frozenset({"x"}), "y": frozenset()})
    assert is_coalg_hom(VFunctor(x, x, x.states), c, c)
    swap = VFunctor(x, x, ["y", "x"])
    assert not is_coalg_hom(swap, c, c)

    one = terminal(q2)
    point = Coalgebra(Const(one), one, {"*": "*"})
    src = Coalgebra(Const(one), c2, {"u": "*", "v": "*"})
    assert is_coalg_hom(VFunctor(c2, one, ["*", "*"]), src, point)

    other = Coalgebra(hid, x, {"x": frozenset(), "y": frozenset()})
    with pytest.raises(ConsistencyError):
        is_coalg_hom(VFunctor(x, one, ["*", "*"]), c, point)
    assert not is_coalg_hom(VFunctor(x, x, x.states), c, other)


def test_final_chain_constant_stabilizes(q2, c2):
    chain = final_chain(Const(c2), 4, quantale=q2)
    assert len(chain[0].obj.states) == 1
    for level in chain[1:]:
        assert level.obj == c2
    assert chain[1].connecting == VFunctor(c2, chain[0].obj, ["*"] * len(c2.states))
    for level in chain[2:]:
        assert level.connecting == VFunctor(c2, c2, c2.states)


def test_final_chain_sizes_over_boolean(q2, hid):
    chain = final_chain(hid, 7, quantale=q2)
    assert [len(l.obj.states) for l in chain] == [1, 2, 3, 4, 5, 6, 7, 8]
    assert chain[0].connecting is None
    for below, level in zip(chain, chain[1:]):
        assert is_vfunctor(level.connecting)
        assert (level.connecting.source, level.connecting.target) == (level.obj, below.obj)


@pytest.mark.parametrize("depth", [0, 1, 2, 5])
def test_final_chain_builds_only_the_levels_it_returns(q2, hid, monkeypatch, depth):
    """F is applied to the levels below the top only, on objects and on
    maps, so nothing above F^depth(1) is built."""
    seen = {"obj": [], "mor": []}

    def recorded(kind, fn):
        def wrapper(expr, arg, *rest):
            seen[kind].append(arg)
            return fn(expr, arg, *rest)
        return wrapper

    monkeypatch.setattr(coalg, "eval_obj", recorded("obj", coalg.eval_obj))
    monkeypatch.setattr(coalg, "eval_mor", recorded("mor", coalg.eval_mor))
    chain = final_chain(hid, depth, quantale=q2)
    assert [level.index for level in chain] == list(range(depth + 1))
    assert set(seen["obj"]) == {level.obj for level in chain[:-1]}
    assert seen["mor"] == [level.connecting for level in chain[1:-1]]


def test_final_chain_needs_a_quantale_when_the_functor_fixes_none(hid):
    with pytest.raises(ConsistencyError, match="^functor fixes no quantale; pass one explicitly$"):
        final_chain(hid, 1)


def test_a_structure_map_must_cover_the_carrier(q2, hid):
    with pytest.raises(ConsistencyError, match="^structure map does not cover the carrier$"):
        Coalgebra(hid, discrete(q2, ["a", "b"]), {"a": frozenset()})


def test_a_homomorphism_must_run_between_the_two_carriers(q2, hid):
    x, y = discrete(q2, ["a"]), discrete(q2, ["b"])
    cx = Coalgebra(hid, x, {"a": frozenset()})
    cy = Coalgebra(hid, y, {"b": frozenset()})
    with pytest.raises(ConsistencyError, match="^homomorphism endpoints do not match$"):
        is_coalg_hom(VFunctor(y, x, ["a"]), cx, cy)


def test_the_lax_extension_laws_need_relations_that_compose(q2):
    r = VRelation(q2, ["x"], ["y"], [["1"]])
    s = VRelation(q2, ["z"], ["w"], [["1"]])
    with pytest.raises(ConsistencyError, match="^relations do not compose$"):
        coalg.check_lax_extension_laws(Id(), r, r, s, {"x": "y"})


def test_final_chain_rejects_a_negative_depth(q2, hid):
    with pytest.raises(ConsistencyError, match="depth -1 is negative"):
        final_chain(hid, -1, quantale=q2)


def test_deep_final_chain_over_boolean(q2):
    """Level k is a (k+1)-chain with k+2 increasing subsets, so depth 24
    stays far below the count cap."""
    chain = final_chain(HComp(Id()), 24, quantale=q2, cap=8192)
    assert [len(l.obj.states) for l in chain] == list(range(1, 26))


@pytest.mark.parametrize("expr", [HComp(Id()), HComp(HComp(Id()))], ids=["H", "HH"])
def test_a_larger_cap_lifts_each_chain_level_once(q2, monkeypatch, expr):
    """``eval_mor`` reads the levels that ``final_chain`` kept, whatever cap
    built them, so a cap above the default lifts as often as the default:
    once per H node and level."""
    lifted = []
    real = hausdorff.lifted_matrix

    def counted(upsets):
        lifted.append(len(upsets.base.states))
        return real(upsets)

    monkeypatch.setattr(hausdorff, "lifted_matrix", counted)
    final_chain(expr, 12, quantale=q2)
    at_default = list(lifted)
    lifted.clear()
    final_chain(expr, 12, quantale=q2, cap=8192)
    assert lifted == at_default
    assert len(at_default) == 12 * repr(expr).count("H")


def test_nested_lifting_maps_each_element_once_per_node(q2, monkeypatch):
    """F on maps keeps one table per node, so with H nested 10 deep the
    connecting map up-closes at most one image per H node and element of
    a level, not one per occurrence of a nested term."""
    calls = []
    real = hausdorff.up_closure

    def counted(x, subset):
        calls.append(len(x))
        return real(x, subset)

    monkeypatch.setattr(hausdorff, "up_closure", counted)
    expr = Id()
    for _ in range(10):
        expr = HComp(expr)
    chain = final_chain(expr, 2, quantale=q2)
    assert [len(level.obj) for level in chain] == [1, 11, 21]
    assert 0 < len(calls) <= 10 * len(chain[-1].obj)


def test_final_chain_lawvere_level_two(lawvere, hid):
    """Level sizes 1, 2, 3 with the hand-computed level-two structure."""
    chain = final_chain(hid, 2, quantale=lawvere)
    assert [len(l.obj.states) for l in chain] == [1, 2, 3]
    lvl2 = chain[2].obj
    e0 = frozenset()
    e1 = frozenset({frozenset()})
    e2 = frozenset({frozenset(), frozenset({"*"})})
    assert lvl2.states == (e0, e1, e2)
    zero, inf = Fraction(0), INF
    expected = [
        [zero, inf, inf],
        [zero, zero, inf],
        [zero, zero, zero],
    ]
    assert [list(r) for r in lvl2.matrix] == expected


def test_behavior_map_naturality(q2, hid):
    x = discrete(q2, ["x", "y"])
    c = Coalgebra(hid, x, {"x": frozenset({"x", "y"}), "y": frozenset()})
    chain = final_chain(hid, 3, quantale=q2)
    behs = behavior_map(c, 3)
    for k in range(3):
        assert compose(chain[k + 1].connecting, behs[k + 1]) == behs[k]
    for beh in behs:
        assert is_vfunctor(beh)


def test_behavioral_distance_two_state_example(q2, hid):
    x = discrete(q2, ["x", "y"])
    c = Coalgebra(hid, x, {"x": frozenset({"x"}), "y": frozenset()})
    assert behavioral_distance(c, "x", "y", 1) == ["1", "1"]
    assert behavioral_distance(c, "y", "x", 1) == ["1", "0"]
    assert behavioral_distance(c, "y", "x", 1, symmetric=True) == ["1", "0"]
    # reflexivity keeps the unit below every entry
    for v in behavioral_distance(c, "x", "x", 3):
        assert q2.leq(q2.unit, v)


def test_behavioral_distance_antitone(q2, godel3, hid):
    for q in (q2, godel3):
        x = discrete(q, ["x", "y"])
        c = Coalgebra(hid, x, {"x": frozenset({"x"}), "y": frozenset({"x", "y"})})
        for s in x.states:
            for t in x.states:
                seq = behavioral_distance(c, s, t, 4)
                for k in range(4):
                    assert q.leq(seq[k + 1], seq[k])


def _agreement_equalizer_instance(q2):
    """f, g agree on {x, y} but the equalizer shrinks to {x}."""
    hid = HComp(Id())
    x = discrete(q2, ["x", "y", "z"])
    cx = Coalgebra(hid, x, {
        "x": frozenset({"x"}),
        "y": frozenset({"z"}),
        "z": frozenset({"z"}),
    })
    y = indiscrete(q2, ["p", "q"])
    cy = Coalgebra(hid, y, {"p": frozenset({"p", "q"}), "q": frozenset({"p", "q"})})
    f = VFunctor(x, y, ["p", "p", "p"])
    g = VFunctor(x, y, ["p", "p", "q"])
    return cx, cy, f, g


def test_equalizer_shrinks_agreement_set(q2, monkeypatch):
    cx, cy, f, g = _agreement_equalizer_instance(q2)
    assert is_coalg_hom(f, cx, cy)
    assert is_coalg_hom(g, cx, cy)
    built = []

    def counted(x, keep):
        built.append(restrict(x, keep))
        return built[-1]

    monkeypatch.setattr(coalg, "restrict", counted)
    sub, incl = equalizer(cx, f, g)
    # one subcategory a round: {x, y} drops y, {x} is the fixpoint and the carrier
    assert [r.states for r in built] == [("x", "y"), ("x",)]
    assert sub.carrier is built[-1]
    assert sub.carrier.states == ("x",)
    assert sub.structure == {"x": frozenset({"x"})}
    assert incl.mapping == ("x",)
    assert is_coalg_hom(incl, sub, cx)


def test_equalizer_trivial_cases(q2, hid):
    x = discrete(q2, ["x", "y"])
    c = Coalgebra(hid, x, {"x": frozenset({"y"}), "y": frozenset()})
    ident = VFunctor(x, x, x.states)
    whole, _ = equalizer(c, ident, ident)
    assert whole.carrier == x and whole.structure == c.structure

    # two disjoint copies of the source shape admit homs differing everywhere
    y = discrete(q2, ["p1", "p0", "q1", "q0"])
    cy = Coalgebra(hid, y, {
        "p1": frozenset({"p0"}), "p0": frozenset(),
        "q1": frozenset({"q0"}), "q0": frozenset(),
    })
    f = VFunctor(x, y, ["p1", "p0"])
    g = VFunctor(x, y, ["q1", "q0"])
    assert is_coalg_hom(f, c, cy) and is_coalg_hom(g, c, cy)
    none, _ = equalizer(c, f, g)
    assert none.carrier.states == ()


def test_equalizer_matches_brute_force(q2):
    cx, cy, f, g = _agreement_equalizer_instance(q2)
    sub, _ = equalizer(cx, f, g)
    assert sub.carrier.states == largest_agreeing_subcoalgebra(cx, f, g)


def test_initial_lift_empty_cone(q2):
    out = initial_lift_coalgebra(Id(), q2, ["a", "b"], {"a": "a", "b": "b"})
    assert out.carrier == indiscrete(q2, ["a", "b"])
    swap = initial_lift_coalgebra(Id(), q2, ["a", "b"], {"a": "b", "b": "a"})
    assert all(v == "1" for row in swap.carrier.matrix for v in row)
    assert check_coalgebra(swap).ok


def test_initial_lift_identity_cone(q2, c2):
    target = Coalgebra(Id(), c2, {"u": "u", "v": "v"})
    out = initial_lift_coalgebra(Id(), q2, ["u", "v"], {"u": "u", "v": "v"},
                                 cone=[(["u", "v"], target)])
    assert out.carrier == c2


def test_initial_lift_matches_brute_force_spot(godel3):
    states = ("a", "b")
    for c_map in iproduct(states, repeat=2):
        structure = dict(zip(states, c_map))
        out = initial_lift_coalgebra(Id(), godel3, states, structure)
        best = None
        for cells in iproduct(godel3.elements, repeat=4):
            mat = [list(cells[:2]), list(cells[2:])]
            cand = VCategory(godel3, states, mat)
            if not is_vcategory(cand):
                continue
            ok = all(
                godel3.leq(cand.a(s, t), cand.a(structure[s], structure[t]))
                for s in states for t in states
            )
            if ok and (best is None or all(
                godel3.leq(best.matrix[i][j], mat[i][j])
                for i in range(2) for j in range(2)
            )):
                best = cand
        assert out.carrier == best


def test_initial_lift_rejects_bad_cone(q2, c2):
    target = Coalgebra(Id(), c2, {"u": "u", "v": "v"})
    with pytest.raises(ConsistencyError):
        initial_lift_coalgebra(Id(), q2, ["u", "v"], {"u": "v", "v": "u"},
                               cone=[(["u", "v"], target)])


def test_initial_lift_checks_cone_legs(q2, c2):
    # p -> q -> r with no p -> r: the pulled-back carrier would not be a
    # V-category, so the leg is refused before the descent
    chain = from_order(q2, ["p", "q", "r"], [("p", "q"), ("q", "r")])
    leg = Coalgebra(Id(), chain, {"p": "p", "q": "q", "r": "r"})
    with pytest.raises(ConsistencyError, match=r"^cone leg 0 carrier: not a V-category "
                       r"\(transitive, witness \('p', 'q', 'r'\)\)$"):
        initial_lift_coalgebra(Id(), q2, ["a", "b", "c"], {"a": "a", "b": "b", "c": "c"},
                               cone=[(["p", "q", "r"], leg)])
    swap = Coalgebra(Id(), c2, {"u": "v", "v": "u"})
    with pytest.raises(ConsistencyError, match=r"^cone leg 0: not a coalgebra "
                       r"\(structure-morphism, witness \('u', 'v'\)\)$"):
        initial_lift_coalgebra(Id(), q2, ["a", "b"], {"a": "b", "b": "a"},
                               cone=[(["u", "v"], swap)])
    # every term is the empty set on both sides, so only the functors differ
    deeper = Coalgebra(HComp(HComp(Id())), discrete(q2, ["u"]), {"u": frozenset()})
    with pytest.raises(ConsistencyError, match=r"^cone leg 0 is a coalgebra over "
                       r"H\(H\(Id\)\), not H\(Id\)$"):
        initial_lift_coalgebra(HComp(Id()), q2, ["p", "q"],
                               {"p": frozenset(), "q": frozenset()}, cone=[(["u", "u"], deeper)])


def test_lift_of_equalizer_cone_reproduces_equalizer(q2):
    """Lifting the set-level equalizer along its inclusion returns the
    restricted structure."""
    cx, cy, f, g = _agreement_equalizer_instance(q2)
    sub, incl = equalizer(cx, f, g)
    lifted = initial_lift_coalgebra(
        cx.functor, q2, sub.carrier.states,
        {s: sub.structure[s] for s in sub.carrier.states},
        cone=[(list(incl.mapping), cx)],
    )
    assert lifted.carrier == sub.carrier
    assert lifted.structure == sub.structure


def test_initial_lift_setlevel_h_payload(q2):
    """Set payloads are read through the full powerset and up-closed in
    the final structure."""
    hid = HComp(Id())
    out = initial_lift_coalgebra(hid, q2, ["a", "b"],
                                 {"a": frozenset({"b"}), "b": frozenset({"b"})})
    assert check_coalgebra(out).ok
    # the greatest such structure is indiscrete, so payloads close up
    assert out.carrier == indiscrete(q2, ["a", "b"])
    assert out.structure["a"] == frozenset({"a", "b"})


def test_lift_descent_iterates_are_valid_and_antitone(q2, godel3):
    from quantcat.coalg import lift_descent

    # a cone into an asymmetric target forces a genuine multi-step descent
    for q in (q2, godel3):
        target_cat = from_order(q, ["a", "b"], [("a", "b")])
        target = Coalgebra(Id(), target_cat, {"a": "b", "b": "b"})
        steps = list(lift_descent(Id(), q, ("a", "b"), {"a": "b", "b": "b"},
                                  cone=[(["a", "b"], target)]))
        assert len(steps) >= 1
        for cat in steps:
            assert is_vcategory(cat)
        for prev, nxt in zip(steps, steps[1:]):
            assert all(
                q.leq(nxt.matrix[i][j], prev.matrix[i][j])
                for i in range(2) for j in range(2)
            )


@pytest.mark.parametrize("n", [20, 40])
def test_lift_descent_on_a_path_ends_after_n_iterates(q2, hid, n):
    # s_i -> {s_(i+1)}: each step tells apart one more state back from the
    # end of the path, so the descent yields one iterate per state
    from quantcat.coalg import lift_descent

    states = [f"s{i}" for i in range(n)]
    structure = {s: frozenset(states[i + 1:i + 2]) for i, s in enumerate(states)}
    assert sum(1 for _ in lift_descent(hid, q2, states, structure)) == n


def test_lawvere_lift_takes_values_from_the_constant_leaves(lawvere, hid):
    # the descent starts at top (all 0) and ends on values that only the
    # constant leaves' distances bring in: 1/3, 5/3, 2 and inf
    expr = Prod([Const(metric_line([0, Fraction(1, 3), 2])), hid])
    states = ["x", "y", "z", "w"]
    structure = {
        "x": ("0", frozenset({"y"})),
        "y": ("1/3", frozenset({"z"})),
        "z": ("2", frozenset()),
        "w": ("0", frozenset({"w", "z"})),
    }
    out = initial_lift_coalgebra(expr, lawvere, states, structure)
    f = Fraction
    assert out.carrier.matrix == (
        (f(0), f(5, 3), f(2), INF),
        (INF, f(0), f(5, 3), INF),
        (INF, INF, f(0), INF),
        (f(1, 3), f(1, 3), f(2), f(0)),
    )
    tables = distance_table(Coalgebra(expr, discrete(lawvere, states), structure), 6)
    assert tables[-1] == out.carrier


def test_lift_of_random_equalizer_cones(q2, hid):
    """Sub-coalgebras cut out by equalizers lift back to their own
    restricted structure."""
    import random

    rng = random.Random(5)
    x = discrete(q2, ["s0", "s1", "s2"])
    hx_elements = eval_obj(hid, x).states
    for _ in range(25):
        structure = {s: rng.choice(hx_elements) for s in x.states}
        c = Coalgebra(hid, x, structure)
        endos = [
            VFunctor(x, x, m)
            for m in iproduct(x.states, repeat=3)
            if is_coalg_hom(VFunctor(x, x, m), c, c)
        ]
        e = rng.choice(endos)
        sub, incl = equalizer(c, VFunctor(x, x, x.states), e)
        if not sub.carrier.states:
            continue
        lifted = initial_lift_coalgebra(
            hid, q2, sub.carrier.states,
            {s: sub.structure[s] for s in sub.carrier.states},
            cone=[(list(incl.mapping), c)],
        )
        assert lifted.carrier == sub.carrier
        assert lifted.structure == sub.structure


def test_size_caps(q2, hid):
    big = discrete(q2, [f"s{i}" for i in range(5)])
    with pytest.raises(CapExceeded):
        eval_obj(Prod([Id(), Id(), Id()]), big, cap=100)
    with pytest.raises(CapExceeded):
        final_chain(hid, 3, quantale=q2, cap=3)
    # H over a constant with more up-sets than the cap: the count cap refuses it
    with pytest.raises(CapExceeded) as err:
        eval_obj(HComp(Const(discrete(q2, ["p", "q", "r"]))), big, cap=2)
    assert (err.value.what, err.value.size, err.value.cap) == ("increasing-subset count", 3, 2)


def test_labeled_lawvere_functor_chain(lawvere):
    labels = metric_line([0, 1])
    expr = Prod([Const(labels), HComp(Id())])
    chain = final_chain(expr, 3, quantale=lawvere)
    assert [len(l.obj.states) for l in chain] == [1, 4, 18, 800]
    for level in chain[1:]:
        assert is_vfunctor(level.connecting)


# -- F on maps against a node-by-node oracle --------------------------------


def _seven_functors(labels):
    return [
        Id(), Const(labels), Prod([Const(labels), Id()]), Sum([Id(), Const(labels)]),
        HComp(Id()), HComp(HComp(Id())),
        Sum([Const(labels), HComp(Prod([Id(), Id()]))]),
    ]


def test_eval_mor_matches_node_by_node_oracle(q2, c2):
    x = from_order(q2, ["a", "b", "c"], [("a", "b")])
    exprs = _seven_functors(from_order(q2, ["l0", "l1"], [("l0", "l1")]))
    # every map from three states to two identifies some of them
    maps = vfunctors_between(x, c2) + [VFunctor(x, x, ["b", "b", "c"])]
    assert len(maps) > 4
    for expr in exprs:
        for f in maps:
            assert eval_mor(expr, f) == tree_eval_mor(expr, f), (expr, f.mapping)


def _three_state_carriers(q2, godel3):
    half = "1/2"
    return [
        from_order(q2, ["a", "b", "c"], [("a", "b"), ("b", "c"), ("a", "c")]),
        from_order(q2, ["a", "b", "c"], [("a", "b")]),
        VCategory(godel3, ["a", "b", "c"],
                  [["1", half, half], ["0", "1", half], ["0", "0", "1"]]),
    ]


def test_normal_form_on_a_restriction_is_membership_in_its_functor_value(q2, godel3):
    """The equalizer's test: a term of F(x) is its own normal form in the
    full subcategory on ``allowed`` exactly when it lies in F of it."""
    for x in _three_state_carriers(q2, godel3):
        assert is_vcategory(x)
        labels = from_order(x.quantale, ["l0", "l1"], [("l0", "l1")])
        exprs = [Id(), HComp(Id()), Prod([Const(labels), Id()]),
                 Sum([Const(labels), HComp(Id())]), HComp(Prod([Id(), Id()]))]
        subsets = [[s for i, s in enumerate(x.states) if mask >> i & 1]
                   for mask in range(1 << len(x.states))]
        for expr in exprs:
            for allowed in subsets:
                members = set(eval_obj(expr, restrict(x, allowed)).states)
                sub = restrict(x, allowed)
                for t in eval_obj(expr, x).states:
                    assert in_functor(expr, sub, t) == (t in members), \
                        (expr, allowed, t)


def test_normal_form_on_a_restriction_says_no_to_unknown_leaves_and_misshapen_terms(q2):
    x = from_order(q2, ["a", "b"], [("a", "b")])
    expr = Prod([Id(), HComp(Id())])
    assert in_functor(expr, restrict(x, {"a", "b"}), ("a", frozenset({"b"})))
    assert not in_functor(expr, restrict(x, {"a"}), ("a", frozenset({"b"})))
    for term in [("z", frozenset()), ("a", frozenset({"z"})), ("a",), "a",
                 ("a", ["b"]), ("a", frozenset({"a"}))]:
        assert not in_functor(expr, restrict(x, {"a", "b"}), term), term


@pytest.mark.parametrize("branch", [1.0, True], ids=["float", "bool"])
def test_a_sum_branch_that_is_not_an_int_is_misshapen(q2, branch):
    """A float or a bool equals an int branch, but only an int is one: the
    term is refused, and it is no element of the functor value."""
    x = discrete(q2, ["a"])
    expr = Sum([Id(), Id()])
    with pytest.raises(ConsistencyError, match="does not have the shape"):
        normalize_term(expr, x, (branch, "a"))
    assert not in_functor(expr, x, (branch, "a"))
    assert tree_image(expr, identity_functor(x), (1, "a")) == normalize_term(expr, x, (1, "a"))
    with pytest.raises(ConsistencyError, match="does not have the shape"):
        tree_image(expr, identity_functor(x), (branch, "a"))


@pytest.mark.parametrize("branch", [1.0, True], ids=["float", "bool"])
@pytest.mark.parametrize("first", [0, 1], ids=["odd-first", "odd-second"])
def test_a_non_int_branch_is_refused_whatever_comes_before_it(q2, branch, first):
    """The tables find a term by equality, and (True, "a") == (1, "a"): a
    term with a float or bool branch stays outside F(X), for the check and
    for the equalizer, whether or not its int twin was looked up first."""
    x = discrete(q2, ["a", "b"])
    odd, plain = (branch, "a"), (1, "a")
    structure = dict(zip(x.states, [odd, plain] if first == 0 else [plain, odd]))
    odd_state = x.states[first]
    for expr, wrap in ((Sum([Id(), Id()]), lambda t: t),
                       (Prod([Id(), Sum([Id(), Id()])]), lambda t: ("b", t)),
                       (HComp(Sum([Id(), Id()])), lambda t: frozenset({t}))):
        c = Coalgebra(expr, x, {s: wrap(t) for s, t in structure.items()})
        report = check_coalgebra(c)
        assert not report.ok, expr
        fault = report.entry("structure-in-functor").witness[0]
        assert fault == f"mapping hits unknown target state {_term_text(c.structure[odd_state])}"
        ident = VFunctor(x, x, x.states)
        sub, _ = equalizer(c, ident, ident)
        assert odd_state not in sub.carrier.states, expr
        normal = _normal_form(expr, x)
        normal(c.structure[x.states[1 - first]])
        with pytest.raises(ConsistencyError, match="does not have the shape"):
            normal(c.structure[odd_state])


# unknown leaves, misshapen terms and unhashable ones, offered to every functor
_ODD_TERMS = ["z", "a", ("z",), ("a",), (0,), (0, "z"), (1, "z"), (2, "a"), ("a", "z"),
              ("l0", "a", "b"), ("l0", "z"), ("z", frozenset()), ("a", frozenset({"z"})),
              ("a", frozenset({"a"})), ("l0", frozenset({"a"})), frozenset({"z"}),
              frozenset({("a", "z")}), frozenset({frozenset({"z"})}),
              (1, frozenset({("a", "z")})), ["a"], {"a"}, ("a", ["b"]), (0, ["a"])]


def _outcome(normal, term):
    """("normal", the normal form) or ("refused", the error's text).  The
    text for an unhashable term names the whole term on one route and the
    first bad subterm on the other, so there only the refusal is kept."""
    try:
        return "normal", normal(term)
    except ConsistencyError as e:
        try:
            hash(term)
        except TypeError:
            return "refused", None
        return "refused", str(e)


def test_normal_forms_agree_with_the_tree_walk(q2, godel3):
    """``normalize_term``, one table of normal forms for a batch of terms,
    and ``in_functor`` all agree with the oracle's tree walk: the seven
    functors and those of the two restriction tests above on every full
    subcategory of three carriers, for every set-level term over the
    carrier and for unknown-leaf, misshapen and unhashable terms."""
    for x in _three_state_carriers(q2, godel3):
        labels = from_order(x.quantale, ["l0", "l1"], [("l0", "l1")])
        for expr in _seven_functors(labels) + [Sum([Const(labels), HComp(Id())]),
                                               Prod([Id(), HComp(Id())])]:
            terms = set_terms(expr, x.states) + _ODD_TERMS
            for mask in range(1 << len(x.states)):
                sub = restrict(x, [s for i, s in enumerate(x.states) if mask >> i & 1])
                want = [_outcome(lambda u: tree_image(expr, identity_functor(sub), u), t)
                        for t in terms]
                batch = _normal_form(expr, sub)
                assert [_outcome(batch, t) for t in terms] == want, (expr, sub.states)
                for t, w in zip(terms, want):
                    assert _outcome(lambda u: normalize_term(expr, sub, u), t) == w, (expr, t)
                    assert in_functor(expr, sub, t) == (w == ("normal", t)), (expr, t)


def test_check_coalgebra_normalizes_a_shared_subterm_once(q2, monkeypatch):
    """Under H(H(Id)), six chain states all go to one term, the set of all
    seven up-sets of the chain.  One table of normal forms up-closes each
    of these eight sets once, where a walk per structure term would make
    6 * 8 = 48 calls; the structure-morphism step reads no up-closure."""
    states = [f"s{i}" for i in range(6)]
    x = from_order(q2, states, [(s, t) for i, s in enumerate(states) for t in states[i + 1:]])
    whole = frozenset(eval_obj(HComp(Id()), x).states)
    c = Coalgebra(HComp(HComp(Id())), x, dict.fromkeys(states, whole))
    calls = []
    closure = hausdorff.up_closure
    monkeypatch.setattr(hausdorff, "up_closure", lambda *args: calls.append(0) or closure(*args))
    assert not check_coalgebra(c).failures()
    assert len(calls) == 8


def test_term_text_is_the_repr_with_sorted_set_payloads():
    for term in ["a", 3, ("a",), (), frozenset(), frozenset({"a"}),
                 ((0, "b"), frozenset({("c",)}))]:
        assert _term_text(term) == repr(term)
    assert _term_text(frozenset({"q", ("r",), "p"})) == "frozenset({'p', 'q', ('r',)})"
    assert _term_text((1, frozenset({"y", "x"}))) == "(1, frozenset({'x', 'y'}))"


def _structure_functor(c):
    """The structure map as a V-functor into the built F(X)."""
    fx = eval_obj(c.functor, c.carrier)
    return VFunctor(c.carrier, fx, [c.structure[s] for s in c.carrier.states])


def _random_coalgebras(q2, godel3):
    rng = random.Random(11)
    out = []
    for x in _three_state_carriers(q2, godel3) + [discrete(godel3, ["a", "b", "c"])]:
        labels = from_order(x.quantale, ["l0", "l1"], [("l0", "l1")])
        for expr in (HComp(Id()), Prod([Const(labels), HComp(Id())])):
            fx = eval_obj(expr, x)
            for _ in range(6):
                c = Coalgebra(expr, x, {s: rng.choice(fx.states) for s in x.states})
                if check_coalgebra(c).ok:
                    out.append(c)
    return out


def test_behavior_map_is_f_of_the_previous_approximant(q2, godel3):
    coalgebras = _random_coalgebras(q2, godel3)
    assert len(coalgebras) >= 8
    for c in coalgebras:
        behs = behavior_map(c, 3)
        for n in range(3):
            assert behs[n + 1] == compose(eval_mor(c.functor, behs[n]),
                                          _structure_functor(c))


def _bad_structures(q2, c2):
    x = discrete(q2, ["x", "y"])
    labels = from_order(q2, ["l0", "l1"], [("l0", "l1")])
    return {
        "unknown state": Coalgebra(HComp(Id()), x,
                                   {"x": frozenset({"zz"}), "y": frozenset()}),
        "not up-closed": Coalgebra(HComp(Id()), c2,
                                   {"u": frozenset({"u"}), "v": frozenset({"v"})}),
        "constant outside": Coalgebra(Prod([Const(labels), Id()]), x,
                                      {"x": ("l2", "y"), "y": ("l0", "x")}),
    }


@pytest.mark.parametrize("case", ["unknown state", "not up-closed", "constant outside"])
@pytest.mark.parametrize("depth", [0, 2])
def test_behavior_map_rejects_structure_outside_the_functor(q2, c2, case, depth):
    with pytest.raises(ConsistencyError):
        behavior_map(_bad_structures(q2, c2)[case], depth)


def test_negative_depth_is_rejected(q2, hid):
    c = Coalgebra(hid, discrete(q2, ["a"]), {"a": frozenset({"a"})})
    for walk in (behavior_map, distance_table):
        with pytest.raises(ConsistencyError, match="negative"):
            walk(c, -1)


@pytest.mark.parametrize("size", [13, 15])
def test_behavior_map_never_builds_the_functor_value(q2, hid, size):
    states = [f"s{i}" for i in range(size)]
    rng = random.Random(3)
    c = Coalgebra(hid, discrete(q2, states),
                  {s: frozenset(t for t in states if rng.random() < 0.35) for s in states})
    # F(X) has 2^size elements, above the default cap of 4096, so
    # building it raises; the chain levels stay below it
    with pytest.raises(CapExceeded):
        eval_obj(hid, c.carrier)
    behs = behavior_map(c, 6)
    chain = final_chain(hid, 6, quantale=q2)
    assert [b.target for b in behs] == [level.obj for level in chain]
    for k in range(6):
        assert compose(chain[k + 1].connecting, behs[k + 1]) == behs[k]


def test_functor_values_are_freed_with_their_carrier(q2, hid):
    """F(x) is kept on x, not in a process-wide memo: twelve lifts of fresh
    7-state carriers, 128 subsets each, leave nothing behind once the
    carriers are dropped."""
    tracemalloc.start()
    try:
        gc.collect()
        base = tracemalloc.get_traced_memory()[0]
        for i in range(12):
            x = discrete(q2, [f"s{i}.{k}" for k in range(7)])
            assert eval_obj(hid, x) is eval_obj(hid, x)
            assert len(eval_obj(hid, x).states) == 128
        del x
        gc.collect()
        left = tracemalloc.get_traced_memory()[0] - base
    finally:
        tracemalloc.stop()
    # a memo that outlives its carriers keeps about 190 kB a lift
    assert left < 64 * 1024, left


# -- the distance-table memo ----------------------------------------------------


def _three_state_hid(q2):
    x = discrete(q2, ["a", "b", "c"])
    return Coalgebra(HComp(Id()), x,
                     {"a": frozenset({"b"}), "b": frozenset({"a", "c"}), "c": frozenset()})


def test_behavioral_distance_builds_no_chain_level(q2, monkeypatch):
    c = _three_state_hid(q2)
    behs = behavior_map(c, 4)
    want = {(s, t): [beh.target.a(beh(s), beh(t)) for beh in behs]
            for s, t in iproduct(c.carrier.states, repeat=2)}

    def refuse(*args, **kwargs):
        raise AssertionError("a chain level was built")

    monkeypatch.setattr(hausdorff, "lifted_matrix", refuse)
    with pytest.raises(AssertionError, match="chain level"):
        behavior_map(Coalgebra(c.functor, c.carrier, c.structure), 1)
    fresh = Coalgebra(c.functor, c.carrier, c.structure)
    for (s, t), values in want.items():
        assert behavioral_distance(fresh, s, t, 4) == values, (s, t)


def test_per_pair_distances_walk_the_cone_once(q2, monkeypatch):
    """Per-pair calls run the descent from the empty cone once for each
    coalgebra and depth."""
    c = _three_state_hid(q2)
    calls = []
    real = coalg.lift_descent

    def counted(*args):
        calls.append(args)
        return real(*args)

    monkeypatch.setattr(coalg, "lift_descent", counted)
    pairs = list(iproduct(c.carrier.states, repeat=2))
    table = [behavioral_distance(c, s, t, 3) for s, t in pairs]
    assert len(calls) == 1
    for (s, t), values in zip(pairs, table):
        converse = behavioral_distance(c, t, s, 3)
        assert behavioral_distance(c, s, t, 3, symmetric=True) == list(map(q2.meet, values,
                                                                          converse))
    assert len(calls) == 1
    assert [behavioral_distance(c, s, t, 2) for s, t in pairs] == [v[:3] for v in table]
    assert len(calls) == 2
    fresh = Coalgebra(c.functor, c.carrier, c.structure)
    assert table == [behavioral_distance(fresh, s, t, 3) for s, t in pairs]
    assert len(calls) == 3


def test_behaviour_memo_hands_out_copies(q2):
    c = _three_state_hid(q2)
    tables = distance_table(c, 3)
    want = list(tables)
    tables.clear()
    assert distance_table(c, 3) == want
    distance_table(c, 3).append(None)
    assert distance_table(c, 3) == want
    assert want == distance_table(Coalgebra(c.functor, c.carrier, c.structure), 3)


def test_behaviour_memo_keeps_the_depth(q2):
    c = _three_state_hid(q2)
    four = distance_table(c, 4)
    two = distance_table(c, 2)
    assert len(two) == 3
    assert two == four[:3]
    assert distance_table(c, 4) == four
    kept = c._tables
    with pytest.raises(ConsistencyError, match="negative"):
        distance_table(c, -1)
    assert c._tables is kept
    assert distance_table(c, 4) == four


@pytest.mark.parametrize("case", ["unknown state", "not up-closed", "constant outside"])
def test_behaviour_memo_never_keeps_a_failure(q2, c2, case):
    c = _bad_structures(q2, c2)[case]
    for _ in range(2):
        with pytest.raises(ConsistencyError):
            distance_table(c, 2)
        with pytest.raises(ConsistencyError):
            behavioral_distance(c, *c.carrier.states[:2], 2)
    assert c._tables is None


def test_behaviour_memo_is_freed_with_its_coalgebra(q2, hid):
    states = [f"s{i}" for i in range(40)]
    x = discrete(q2, states)

    def coalgebra():
        # a path: s_k can make 39 - k steps, so the descent takes 40 steps
        return Coalgebra(hid, x, {s: frozenset(states[k + 1:k + 2])
                                  for k, s in enumerate(states)})

    distance_table(coalgebra(), 6)
    tracemalloc.start()
    try:
        gc.collect()
        base = tracemalloc.get_traced_memory()[0]
        c = coalgebra()
        built = tracemalloc.get_traced_memory()[0]
        distance_table(c, 6)
        memo = tracemalloc.get_traced_memory()[0] - built
        del c
        gc.collect()
        left = tracemalloc.get_traced_memory()[0] - base
    finally:
        tracemalloc.stop()
    # the memo holds seven distinct 40-state tables
    assert memo > 32 * 1024, memo
    assert left < 4 * 1024, left


@pytest.mark.parametrize("symmetric", [False, True])
def test_per_pair_distance_is_the_distance_table_entry(symmetric):
    for c in _seeded_coalgebras(200, 21):
        depth = 2 if c.carrier.quantale == Quantale.lawvere() else 3
        tables = distance_table(c, depth)
        if symmetric:
            tables = [symmetrize(d) for d in tables]
        for s, t in iproduct(c.carrier.states, repeat=2):
            want = [d.a(s, t) for d in tables]
            assert behavioral_distance(c, s, t, depth, symmetric=symmetric) == want, c
            fresh = Coalgebra(c.functor, c.carrier, c.structure)
            assert behavioral_distance(fresh, s, t, depth, symmetric=symmetric) == want, c


# -- distances read off the structure terms ----------------------------------


def _labels(q):
    """l0 < l1 as a chain, or the line {0, 1} over Lawvere."""
    if q == Quantale.lawvere():
        return metric_line([0, 1])
    return from_order(q, ["l0", "l1"], [("l0", "l1")])


def _ordered_carrier(q):
    """Three states with a below b; over Lawvere, a and b also reach c at
    distance 1."""
    if q == Quantale.lawvere():
        one, zero = Fraction(1), Fraction(0)
        return VCategory(q, ["a", "b", "c"],
                         [[zero, zero, one], [INF, zero, one], [INF, INF, zero]])
    return from_order(q, ["a", "b", "c"], [("a", "b")])


def _equivalent_pair(q):
    """a and b above each other and both below c: a preorder whose two
    equivalent states have equal rows and columns."""
    x = fibre_join([from_order(q, ["a", "b", "c"], [("a", "b"), ("b", "a"), ("b", "c")])])
    assert not is_separated(x)
    return x


def test_setlevel_distance_is_the_functor_value_structure(q2, godel3, lawvere):
    """The per-entry lift of the carrier's structure is the structure of
    the functor value, over three chains, godel:1 and the diamond lattice,
    on an ordered carrier and on a preorder with two equivalent states."""
    diamond = diamond_quantale()
    for q in (q2, godel3, lawvere, Quantale.godel(1), diamond):
        carriers = [_ordered_carrier(q), _equivalent_pair(q)]
        if q is diamond:
            carriers.append(diamond_fork())
        for x in carriers:
            assert is_vcategory(x)
            for expr in _seven_functors(_labels(q)):
                fx = eval_obj(expr, x)
                d = entry_lift(expr, q, x.a)
                for s in fx.states:
                    for t in fx.states:
                        assert d(s, t) == fx.a(s, t), (q, x.matrix, expr, s, t)


def test_a_matrix_on_the_elements_of_one_carrier_reads_the_relation_it_is_given(q2, godel3):
    """The incremental fill on a node's own elements holds only for their
    carrier's structure: under another structure on the same states, the
    matrix on those elements is still that structure's per-entry lift."""
    for q in (q2, godel3):
        x = _ordered_carrier(q)
        other = from_order(q, x.states, [("c", "a")])
        for expr in _seven_functors(_labels(q)):
            els = expr.elements(x, 4096)
            for y in (x, other):
                d = entry_lift(expr, q, y.a)
                lifted = list(map(list, expr.matrix(q, y.a, els, els)))
                assert lifted == [[d(s, t) for t in els] for s in els], (q, expr, y.matrix)


def test_every_descent_iterate_is_the_pairwise_iterate():
    """``lift_descent``, whose step reads one whole matrix on the distinct
    structure terms, yields the iterates of the step that lifts one pair at
    a time through the per-entry lift: random carriers of one to six states
    over every built-in and the diamond lattice, under the seven functors,
    with set-level structures, normal forms among them."""
    from quantcat.coalg import lift_descent

    rng = random.Random(31)
    quantales = [Quantale.by_name(name) for name in QUANTALE_NAMES] + [diamond_quantale()]
    steps = 0
    for _ in range(1000):
        q = rng.choice(quantales)
        x = rand_category(rng, q, min_size=1, max_size=6)
        expr = rng.choice(_seven_functors(_labels(q)))
        structure = {s: draw_set_term(rng, expr, x.states) for s in x.states}
        if rng.random() < 0.5:
            normal = _normal_form(expr, x)
            structure = {s: normal(t) for s, t in structure.items()}
        want = list(pairwise_descent(expr, q, x.states, structure))
        assert list(lift_descent(expr, q, x.states, structure)) == want, (q, expr, structure)
        steps += len(want)
    assert steps > 1500, steps


# -- the lax-extension laws for drawn functors ----------------------------------


def _lifted(expr, q, r, src, tgt):
    """The matrix of F r on the given F-terms, r a VRelation."""
    return expr.matrix(q, r.r, src, tgt)


def _then(q, m, n):
    """The composite of two matrices: a join of tensors over the middle."""
    return [[q.join_all(q.tensor(row[k], n[k][j]) for k in range(len(n)))
             for j in range(len(n[0]))] for row in m]


def test_every_drawn_functor_lifts_laxly():
    """Through ``matrix``, each drawn functor of depth at most two is a lax
    extension on relations between sets of one or two elements: monotone,
    F r;F s <= F(r;s), and the graph of F(f) and its converse lie below F
    of the graph of f and its converse.  Draws with more than 40,000 term
    triples are skipped."""
    rng = random.Random(27)
    checked = 0
    for _ in range(300):
        name = rng.choice(QUANTALE_NAMES)
        q = Quantale.by_name(name)
        expr = draw_functor(rng, q, 2, leaf=False)
        xs, ys, zs = ([f"{c}{i}" for i in range(rng.randint(1, 2))] for c in "xyz")
        fx, fy, fz = (set_terms(expr, s) for s in (xs, ys, zs))
        if len(fx) * len(fy) * len(fz) > 40_000:
            continue
        checked += 1
        where = (name, expr, xs, ys, zs)
        r, bump, s = (rand_relation(rng, q, a, b) for a, b in ((xs, ys), (xs, ys), (ys, zs)))
        r2 = VRelation(q, xs, ys, [list(map(q.join, u, v)) for u, v in zip(r.matrix, bump.matrix)])
        fr, fs = _lifted(expr, q, r, fx, fy), _lifted(expr, q, s, fy, fz)
        for u, v in zip(fr, _lifted(expr, q, r2, fx, fy)):
            assert all(map(q.leq, u, v)), where
        rs = VRelation(q, xs, zs, _then(q, r.matrix, s.matrix))
        for u, v in zip(_then(q, fr, fs), _lifted(expr, q, rs, fx, fz)):
            assert all(map(q.leq, u, v)), where
        f = {x: rng.choice(ys) for x in xs}
        ff = set_map(expr, f)
        graph = [[q.unit if f[x] == y else q.bottom for y in ys] for x in xs]
        images = list(map(ff, fx))
        d = _lifted(expr, q, VRelation(q, xs, ys, graph), fx, images)
        back = _lifted(expr, q, VRelation(q, ys, xs, zip(*graph)), images, fx)
        for i, t in enumerate(fx):
            assert q.leq(q.unit, d[i][i]), (where, "graph", t)
            assert q.leq(q.unit, back[i][i]), (where, "converse", t)
    assert checked >= 250, checked


def test_json_terms_round_trip(q2, godel3, lawvere):
    for q in (q2, godel3, lawvere):
        x = _ordered_carrier(q)
        for expr in _seven_functors(_labels(q)):
            for t in eval_obj(expr, x).states:
                text = json.dumps(dump_term(expr, t, q))
                assert load_term(expr, json.loads(text), x) == t, (expr, t)


def _seeded_coalgebras(count, seed):
    """Coalgebras over bool, godel:3 and lawvere on one to four states,
    discrete or with a chain on a prefix; structures drawn from F(X)."""
    rng = random.Random(seed)
    quantales = [Quantale.boolean(), Quantale.godel(3), Quantale.lawvere()]
    out = []
    for _ in range(count):
        q = rng.choice(quantales)
        states = [f"s{i}" for i in range(rng.randint(1, 4))]
        k = rng.randint(0, len(states))
        x = from_order(q, states, [(a, b) for i, a in enumerate(states[:k])
                                   for b in states[i + 1:k]])
        labels = _labels(q)
        expr = rng.choice([HComp(Id()), Prod([Const(labels), HComp(Id())]),
                           Sum([Const(labels), HComp(Id())])])
        fx = eval_obj(expr, x).states
        out.append(Coalgebra(expr, x, {s: rng.choice(fx) for s in states}))
    return out


def _pulled_back(beh, symmetric):
    level, states = beh.target, beh.source.states
    q = level.quantale

    def a(s, t):
        d = level.a(beh(s), beh(t))
        return q.meet(d, level.a(beh(t), beh(s))) if symmetric else d

    return VCategory(q, states, [[a(s, t) for t in states] for s in states])


def test_distance_table_is_the_chain_level_distance():
    coalgebras = _seeded_coalgebras(200, 21)
    assert len({c.carrier.quantale for c in coalgebras}) == 3
    for c in coalgebras:
        # the Lawvere level above F^2(1) of the labelled functor has 800 states
        depth = 2 if c.carrier.quantale == Quantale.lawvere() else 3
        tables = distance_table(c, depth)
        behs = behavior_map(c, depth)
        assert len(tables) == len(behs) == depth + 1
        for d, beh in zip(tables, behs):
            assert d == _pulled_back(beh, False), c
            assert symmetrize(d) == _pulled_back(beh, True), c


def test_stable_distance_table_is_the_initial_lift_of_the_empty_cone():
    """Coalgebras over V-Cat are topological over coalgebras over Set: the
    table at which the descent stops is the greatest structure on the
    carrier that the set-level structure map preserves."""
    for c in _seeded_coalgebras(200, 21):
        x = c.carrier
        tables = distance_table(c, 64)
        assert tables[-2] == tables[-1], c
        lifted = initial_lift_coalgebra(c.functor, x.quantale, x.states, c.structure)
        assert tables[-1] == lifted.carrier, c


def test_distance_table_worked_lawvere_example(lawvere):
    labels = metric_line([0, Fraction(1, 4), 1])
    expr = Prod([Const(labels), HComp(Id())])
    carrier = VCategory(lawvere, ["x", "u", "y", "v"],
                        [[Fraction(0) if i == j else INF for j in range(4)] for i in range(4)])
    c = Coalgebra(expr, carrier, {
        "x": ("0", frozenset({"y"})),
        "u": ("1/4", frozenset({"v"})),
        "y": ("1", frozenset({"y"})),
        "v": ("0", frozenset({"v"})),
    })
    tables = [symmetrize(d) for d in distance_table(c, 2)]
    assert [d.a("x", "u") for d in tables] == [Fraction(0), Fraction(1, 4), Fraction(1)]
    assert [d.a("y", "v") for d in tables] == [Fraction(0), Fraction(1), Fraction(1)]
    for s in carrier.states:
        for t in carrier.states:
            assert [d.a(s, t) for d in tables] == behavioral_distance(c, s, t, 2, symmetric=True)


def test_distance_table_repeats_the_first_stable_table(q2, hid):
    x = discrete(q2, ["a", "b", "c"])
    c = Coalgebra(hid, x, {"a": frozenset({"b"}), "b": frozenset({"c"}), "c": frozenset()})
    tables = distance_table(c, 400)
    assert len(tables) == 401
    stable = next(k for k in range(400) if tables[k] == tables[k + 1])
    assert stable == 2
    assert all(d is tables[stable] for d in tables[stable:])
    assert tables[:6] == distance_table(c, 5)


def test_distance_table_rejects_structure_outside_the_functor(q2, c2):
    for c in _bad_structures(q2, c2).values():
        with pytest.raises(ConsistencyError):
            distance_table(c, 2)


def _check_coalgebra_via_fx(c):
    """Independent oracle: the structure map as a V-functor into the built
    F(X), and the structure law read off its matrix."""
    try:
        sf = _structure_functor(c)
    except ConsistencyError as e:
        return AssumptionReport((LawEntry("structure-in-functor", False, (str(e),)),))
    q = c.carrier.quantale
    w = next(
        ((x, y) for x in c.carrier.states for y in c.carrier.states
         if not q.leq(c.carrier.a(x, y), sf.target.a(sf(x), sf(y)))),
        None,
    )
    return AssumptionReport((LawEntry("structure-in-functor", True),
                             LawEntry("structure-morphism", w is None, w)))


def test_check_coalgebra_matches_the_functor_value_route(q2, c2, godel3):
    hid = HComp(Id())
    x = discrete(q2, ["x", "y", "z"])
    cases = _seeded_coalgebras(60, 5) + list(_bad_structures(q2, c2).values()) + [
        # the first failing state in carrier order is the witness
        Coalgebra(hid, c2, {"u": frozenset({"v"}), "v": frozenset({"u"})}),
        Coalgebra(hid, x, {"x": frozenset(), "y": frozenset({"w"}), "z": frozenset({"q"})}),
        # a leaf of the wrong shape: a state where a product sits
        Coalgebra(HComp(Prod([Id(), Id()])), x,
                  {"x": frozenset({("x", "y")}), "y": frozenset({"y"}), "z": frozenset()}),
        Coalgebra(Sum([Id(), Id()]), x, {"x": (0, "y"), "y": (2, "x"), "z": (1, "z")}),
        # a constant over another quantale
        Coalgebra(Prod([Const(_labels(godel3)), Id()]), x,
                  {s: ("l0", s) for s in x.states}),
        # good structures that break the structure law
        Coalgebra(hid, c2, {"u": frozenset(), "v": frozenset({"v"})}),
        Coalgebra(Id(), c2, {"u": "v", "v": "u"}),
    ]
    reports = [check_coalgebra(c) for c in cases]
    assert reports == [_check_coalgebra_via_fx(c) for c in cases]
    witnesses = {e.witness for r in reports for e in r.failures()}
    assert ("constant category over a different quantale",) in witnesses
    assert ("mapping hits unknown target state frozenset({'u'})",) in witnesses
    assert ("mapping hits unknown target state frozenset({'w'})",) in witnesses
    assert ("u", "v") in witnesses
    assert sum(r.ok for r in reports) >= 20


def test_functor_nodes_are_values(q2):
    labels = discrete(q2, ["l0", "l1"])

    def tree():
        return HComp(Prod([Const(discrete(q2, ["l0", "l1"])), Sum([Id(), HComp(Id())])]))

    a, b = tree(), tree()
    assert a is not b and a == b and hash(a) == hash(b) and {a: 1}[b] == 1
    parts = [Const(labels), Id()]
    assert Prod(parts) != Sum(parts) and Sum(parts) != Prod(parts)
    assert HComp(Id()) != Id() and Const(labels) != Const(discrete(q2, ["l0"]))
    assert Prod(parts) != tuple(parts) and Id() != "Id"
    assert repr(a) == "H(Prod(Const(2), Sum(Id, H(Id))))"


def test_records_compare_by_exact_type_and_fields(q2):
    entry = LawEntry("reflexive", False, ("a",))
    assert entry == LawEntry("reflexive", False, ("a",), analytic=False)
    assert hash(entry) == hash(LawEntry("reflexive", False, ("a",)))
    assert entry != LawEntry("reflexive", False, ("b",))
    assert AssumptionReport((entry,)) == AssumptionReport((entry,)) != AssumptionReport()
    assert repr(entry) == "LawEntry(law='reflexive', passed=False, witness=('a',), analytic=False)"
    levels = final_chain(HComp(Id()), 2, quantale=q2)
    assert levels == final_chain(HComp(Id()), 2, quantale=q2)
    assert [level.index for level in levels] == [0, 1, 2]
