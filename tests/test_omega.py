import random

import pytest

from quantcat import (
    INF,
    INFINITY,
    Coalgebra,
    ConsistencyError,
    DescriptorError,
    ExtNat,
    HComp,
    Id,
    Quantale,
    anamorphism,
    behavior_map,
    discrete,
    embed_I,
    final_chain,
    from_order,
    hausdorff_object,
    indiscrete,
    is_omega_hom,
    omega_structure,
    terminal,
    truncation,
    verify_chain_commutation,
)
from quantcat.omega import (
    ALL,
    EMPTY,
    SEGMENT,
    SymbolicUpset,
    canonical_chain_coding,
    omega_structure_set,
)
from oracle_routes import priestley_cone


def test_extnat_basics():
    assert ExtNat(3) < ExtNat(5) < INFINITY
    assert min(ExtNat(2), INFINITY) == ExtNat(2)
    assert INFINITY.successor() is not None and INFINITY.successor().is_infinite
    assert ExtNat(4).successor() == ExtNat(5)
    assert ExtNat.parse("7") == ExtNat(7)
    assert ExtNat.parse("inf") == INFINITY
    assert repr(ExtNat(2)) == "2" and repr(INFINITY) == "inf"
    with pytest.raises(DescriptorError):
        ExtNat(-1)


def test_structure_map_cases():
    assert omega_structure_set(ExtNat(0)) == SymbolicUpset(EMPTY)
    assert omega_structure_set(INFINITY) == SymbolicUpset(ALL)
    # the up-set of 4 under >= is the initial segment {0..4}, coded 5
    assert omega_structure_set(ExtNat(5)) == SymbolicUpset(SEGMENT, 5)
    assert omega_structure(ExtNat(0)) == ExtNat(0)
    assert omega_structure(INFINITY) == INFINITY
    assert omega_structure(ExtNat(5)) == ExtNat(5)


def test_structure_map_is_coded_identity_bijection():
    sample = [ExtNat(i) for i in range(40)] + [INFINITY]
    images = [omega_structure(x) for x in sample]
    assert images == sample


def test_symbolic_family_has_no_cofinite_member():
    """The closed-increasing family is empty sets, initial segments, and
    everything; in particular the set of all finite naturals (an up-set of
    the reversed order) is not representable."""
    def members(upset, probe):
        if upset.kind == EMPTY:
            return set()
        if upset.kind == ALL:
            return set(probe)
        return {x for x in probe if not x.is_infinite and x.n < upset.size}

    probe = [ExtNat(i) for i in range(15)] + [INFINITY]
    finite_naturals = {x for x in probe if not x.is_infinite}
    for e in [ExtNat(i) for i in range(12)] + [INFINITY]:
        upset = omega_structure_set(e)
        got = members(upset, probe)
        assert got != finite_naturals
        if upset.kind == ALL:
            assert INFINITY in got
        else:
            assert len(got) == (0 if upset.kind == EMPTY else upset.size)


def test_truncation():
    leg = truncation(3)
    assert leg(INFINITY) == 3
    assert leg(ExtNat(1)) == 1
    for x in [ExtNat(i) for i in range(5)] + [INFINITY]:
        assert min(truncation(3)(x), 2) == truncation(2)(x)


def test_chain_commutation_small():
    rep = verify_chain_commutation(8)
    assert rep.ok, rep.failures()


def test_canonical_chain_coding(q2, c2):
    coding = canonical_chain_coding(c2)
    assert coding == {"v": 0, "u": 1}
    with pytest.raises(ConsistencyError):
        canonical_chain_coding(discrete(q2, ["a", "b"]))
    with pytest.raises(ConsistencyError):
        canonical_chain_coding(indiscrete(q2, ["a", "b"]))


def _h_coalgebra(q2, structure):
    x = discrete(q2, sorted(structure))
    return Coalgebra(HComp(Id()), x,
                     {s: frozenset(v) for s, v in structure.items()})


def test_anamorphism_examples(q2):
    c = _h_coalgebra(q2, {"a": {"b"}, "b": set(), "c": {"c"}})
    beh = anamorphism(c)
    assert beh == {"a": ExtNat(1), "b": ExtNat(0), "c": INFINITY}
    assert is_omega_hom(c, beh)

    loop = _h_coalgebra(q2, {"s": {"s"}})
    assert anamorphism(loop) == {"s": INFINITY}
    dead = _h_coalgebra(q2, {"s": set()})
    assert anamorphism(dead) == {"s": ExtNat(0)}
    assert anamorphism(_h_coalgebra(q2, {})) == {}


def test_boolean_checks_compare_quantales_by_value(q2, godel3):
    """An inline copy of the shared Boolean quantale passes its checks."""
    inline = Quantale.finite(q2.elements, q2._leq, q2._tensor, q2.unit)
    assert inline is not q2
    assert anamorphism(_h_coalgebra(inline, {"a": {"b"}, "b": set()})) == {
        "a": ExtNat(1), "b": ExtNat(0)}
    assert embed_I(discrete(inline, ["a"]), godel3).a("a", "a") == godel3.top


def test_anamorphism_rejects_other_inputs(q2, godel3):
    x = discrete(godel3, ["s"])
    c = Coalgebra(HComp(Id()), x, {"s": frozenset()})
    with pytest.raises(ConsistencyError):
        anamorphism(c)
    one = terminal(q2)
    with pytest.raises(ConsistencyError):
        anamorphism(Coalgebra(Id(), one, {"*": "*"}))


def test_anamorphism_unique_hom_spot(q2):
    c = _h_coalgebra(q2, {"a": {"b"}, "b": set(), "c": {"c"}})
    expected = anamorphism(c)
    candidates = [ExtNat(i) for i in range(4)] + [INFINITY]
    homs = []
    states = list(c.carrier.states)
    for values in _assignments(candidates, len(states)):
        assignment = dict(zip(states, values))
        if is_omega_hom(c, assignment):
            homs.append(assignment)
    assert homs == [expected]


def _assignments(pool, n):
    if n == 0:
        yield ()
        return
    for rest in _assignments(pool, n - 1):
        for v in pool:
            yield rest + (v,)


def test_anamorphism_matches_chain_thread(q2):
    """Dual route: the coded behaviour thread through materialized chain
    levels reproduces the rank computation."""
    rng = random.Random(99)
    for _ in range(12):
        n = rng.randint(1, 4)
        states = [f"s{i}" for i in range(n)]
        structure = {
            s: frozenset(t for t in states if rng.random() < 0.4) for s in states
        }
        c = _h_coalgebra(q2, dict(structure))
        depth = 2 * n + 2
        behs = behavior_map(c, depth)
        codings = [canonical_chain_coding(b.target) for b in behs]
        thread_end = {s: codings[depth][behs[depth](s)] for s in states}
        expected = {
            s: ExtNat(v) if v <= n - 1 else INFINITY
            for s, v in thread_end.items()
        }
        assert anamorphism(c) == expected


def test_is_omega_hom_rejects_wrong_assignments(q2):
    c = _h_coalgebra(q2, {"a": {"b"}, "b": set()})
    good = anamorphism(c)
    assert is_omega_hom(c, good)
    assert not is_omega_hom(c, {"a": ExtNat(2), "b": ExtNat(0)})
    assert not is_omega_hom(c, {"a": INFINITY, "b": ExtNat(0)})
    # monotonicity can fail even when the squares hold on a chain carrier
    chain = from_order(q2, ["lo", "hi"], [("lo", "hi")])
    cc = Coalgebra(HComp(Id()), chain,
                   {"lo": frozenset({"lo", "hi"}), "hi": frozenset({"hi"})})
    beh = anamorphism(cc)
    assert is_omega_hom(cc, beh)


def test_embed_I(q2, c2, lawvere, godel3):
    from fractions import Fraction

    i_c2 = embed_I(c2, lawvere)
    assert i_c2.a("u", "v") == Fraction(0)
    assert i_c2.a("v", "u") is INF
    d = embed_I(discrete(q2, ["a", "b"]), godel3)
    assert d.a("a", "a") == godel3.top and d.a("a", "b") == godel3.bottom
    with pytest.raises(ConsistencyError):
        embed_I(discrete(godel3, ["a"]), lawvere)


def test_embed_I_commutes_with_hausdorff(q2, c2, lawvere, godel3):
    fixtures = [c2, discrete(q2, ["a", "b"]), indiscrete(q2, ["a", "b"]),
                from_order(q2, ["a", "b", "c"], [("a", "b"), ("a", "c")])]
    for target in (lawvere, godel3):
        for x in fixtures:
            lhs = hausdorff_object(embed_I(x, target)).category
            rhs = embed_I(hausdorff_object(x).category, target)
            assert lhs == rhs


def test_embed_preserves_chain(q2, lawvere):
    levels_bool = final_chain(HComp(Id()), 4, quantale=q2)
    levels_lw = final_chain(HComp(Id()), 4, quantale=lawvere)
    for lb, ll in zip(levels_bool, levels_lw):
        assert embed_I(lb.obj, lawvere) == ll.obj


def test_priestley_finite(q2, c2, godel3):
    point = terminal(q2)
    ok, cert = priestley_cone(point)
    assert ok and cert["separating"] and cert["initial"]
    ok, cert = priestley_cone(c2)
    assert ok
    assert cert["maps"] == 3
    ok, cert = priestley_cone(indiscrete(q2, ["a", "b"]))
    assert not ok and cert["separating"] is False and cert["initial"]
    ok, _ = priestley_cone(from_order(godel3, ["x", "y"], [("x", "y")]))
    assert ok
