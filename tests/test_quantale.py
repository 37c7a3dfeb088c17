import json
import random
import re
from fractions import Fraction
from functools import cached_property, lru_cache, reduce

import pytest
from hypothesis import example, given, settings, strategies as st

from quantcat import (
    INF,
    DescriptorError,
    Quantale,
    check_assumptions,
    check_quantale_laws,
    totally_below,
    up_closure,
)
from quantcat import quantale
from quantcat.cli import main
from quantcat.descriptors import load_quantale
from quantcat.quantale import TableQuantale
from quantcat.suites import QUANTALE_NAMES, SUITES, rand_category, run_suite
from quantcat.vcat import as_vcategory
from oracle_routes import totally_below_by_subsets

FINITE_FIXTURES = [
    Quantale.boolean(),
    Quantale.godel(3),
    Quantale.godel(4),
    Quantale.lukasiewicz(3),
    Quantale.lukasiewicz(5),
]


def brute_hom(q, u, v):
    """Independent oracle: the join of every w with u (x) w <= v."""
    return q.join_all(w for w in q.elements if q.leq(q.tensor(u, w), v))


def test_boolean_hom_implication(q2):
    assert q2.hom("1", "0") == "0"
    assert q2.hom("0", "0") == "1"
    assert q2.hom("0", "1") == "1"
    assert q2.hom("1", "1") == "1"


def test_godel_hom_matches_brute_force(godel3):
    assert brute_hom(godel3, "1", "1/2") == "1/2"
    assert godel3.hom("1", "1/2") == "1/2"
    for u in godel3.elements:
        for v in godel3.elements:
            assert godel3.hom(u, v) == brute_hom(godel3, u, v)


def test_lawvere_hom_is_truncated_minus(lawvere):
    # adjunction brute-forced on a quarter-step rational grid
    grid = [Fraction(n, 4) for n in range(0, 33)] + [INF]
    u, v = Fraction(2), Fraction(5)
    best = lawvere.join_all(w for w in grid if lawvere.leq(lawvere.tensor(u, w), v))
    assert best == Fraction(3)
    assert lawvere.hom(u, v) == Fraction(3)
    assert lawvere.hom(Fraction(5), Fraction(2)) == Fraction(0)
    assert lawvere.hom(INF, Fraction(7)) == Fraction(0)
    assert lawvere.hom(Fraction(7), INF) is INF
    assert lawvere.hom(INF, INF) == Fraction(0)


@pytest.mark.parametrize("q", FINITE_FIXTURES, ids=lambda q: repr(q))
def test_adjunction_exhaustive(q):
    for u in q.elements:
        for v in q.elements:
            h = q.hom(u, v)
            for w in q.elements:
                assert q.leq(q.tensor(u, w), v) == q.leq(w, h)


@pytest.mark.parametrize("q", FINITE_FIXTURES, ids=lambda q: repr(q))
def test_hom_unit_top_and_monotonicity(q):
    for v in q.elements:
        assert q.hom(q.unit, v) == v
        assert q.hom(v, q.top) == q.top
    for u in q.elements:
        for u2 in q.elements:
            if not q.leq(u, u2):
                continue
            for v in q.elements:
                assert q.leq(q.hom(u2, v), q.hom(u, v))
                assert q.leq(q.hom(v, u), q.hom(v, u2))


rationals = st.fractions(min_value=0, max_value=50)


@settings(max_examples=200, derandomize=True)
@given(rationals, rationals, rationals)
def test_lawvere_adjunction_property(u, v, w):
    q = Quantale.lawvere()
    assert q.leq(q.tensor(u, w), v) == q.leq(w, q.hom(u, v))


@pytest.mark.parametrize("q", FINITE_FIXTURES, ids=lambda q: repr(q))
def test_builtin_laws_pass(q):
    assert check_quantale_laws(q).ok


def test_broken_tensor_reports_witness():
    # tamper the Godel tensor so (0 (x) 1) (x) 1/2 != 0 (x) (1 (x) 1/2)
    q = Quantale.godel(3)
    table = dict(q._tensor)
    table[("0", "1")] = "1"
    table[("1", "0")] = "1"
    broken = Quantale.finite(q.elements, [(u, v) for u in q.elements for v in q.elements
                                          if q.leq(u, v)], table, "1")
    rep = check_quantale_laws(broken)
    assert not rep.ok
    assoc = rep.entry("tensor-associative")
    assert not assoc.passed
    assert assoc.witness is not None and len(assoc.witness) == 3


def test_pentagon_lattice_fails_distributivity():
    # N5: bottom < a < c < top, bottom < b < top, b incomparable to a and c
    els = ["bot", "a", "b", "c", "top"]
    order = {("bot", e) for e in els} | {(e, "top") for e in els}
    order |= {(e, e) for e in els} | {("a", "c")}
    q = Quantale.finite(
        els, order,
        {(u, v): _n5_meet(u, v, order) for u in els for v in els},
        "top",
    )
    rep = check_quantale_laws(q)
    assert not rep.ok
    failed = {e.law for e in rep.failures()}
    assert "lattice-distributive" in failed
    assert rep.entry("lattice-distributive").witness is not None


def _n5_meet(u, v, order):
    lower = [w for w in ["bot", "a", "b", "c", "top"]
             if (w, u) in order and (w, v) in order]
    return max(lower, key=lambda w: sum((z, w) in order for z in lower))


def test_lawvere_report_is_analytic(lawvere):
    rep = check_quantale_laws(lawvere)
    assert rep.ok and all(e.analytic for e in rep.entries)
    rep2 = check_assumptions(lawvere)
    assert rep2.ok and all(e.analytic for e in rep2.entries)


def test_totally_below_boolean(q2):
    # hand-derived: the empty subset rules out anything below bottom
    assert totally_below(q2) == {("0", "1"), ("1", "1")}


def test_totally_below_bottom_never_holds():
    for q in FINITE_FIXTURES:
        rel = totally_below(q)
        assert all((u, q.bottom) not in rel for u in q.elements)


def test_totally_below_godel_chain(godel3):
    rel = totally_below(godel3)
    assert ("1/2", "1") in rel
    assert ("0", "1") in rel


@pytest.mark.parametrize("q", FINITE_FIXTURES, ids=lambda q: repr(q))
def test_assumptions_pass_on_builtins(q):
    assert check_assumptions(q).ok


def test_trivial_quantale_flagged():
    one = Quantale.godel(1)
    assert one.trivial
    rep = check_assumptions(one)
    assert not rep.entry("non-trivial").passed


def test_by_name_and_parse():
    assert Quantale.by_name("bool") == Quantale.boolean()
    assert Quantale.by_name("godel:3") == Quantale.godel(3)
    assert Quantale.by_name("lukasiewicz:5") == Quantale.lukasiewicz(5)
    assert Quantale.by_name("lawvere") == Quantale.lawvere()
    with pytest.raises(DescriptorError):
        Quantale.by_name("heyting:3")
    lw = Quantale.lawvere()
    assert lw.parse("1/2") == Fraction(1, 2)
    assert lw.parse("inf") is INF
    assert lw.format(Fraction(3, 4)) == "3/4"
    assert lw.format(INF) == "inf"
    with pytest.raises(DescriptorError):
        lw.parse("-1")
    with pytest.raises(DescriptorError):
        Quantale.godel(3).parse("2/3")


def test_join_meet_tables_match_chain_arithmetic(godel3):
    assert godel3.join("0", "1/2") == "1/2"
    assert godel3.meet("1/2", "1") == "1/2"
    assert godel3.join_all([]) == "0"
    assert godel3.meet_all([]) == "1"


def test_lawvere_lattice_reversed(lawvere):
    assert lawvere.leq(INF, Fraction(1))
    assert not lawvere.leq(Fraction(1), INF)
    assert lawvere.join(Fraction(1), Fraction(2)) == Fraction(1)
    assert lawvere.meet(Fraction(1), Fraction(2)) == Fraction(2)
    assert lawvere.join_all([]) is INF
    assert lawvere.meet_all([]) == Fraction(0)
    assert lawvere.tensor(INF, Fraction(0)) is INF


# -- brute-force oracles read off the leq pairs and the tensor ------------------


def _lubs(els, leq, items):
    """Every upper bound of ``items`` in ``els`` below all the others."""
    ub = [w for w in els if all((x, w) in leq for x in items)]
    return [w for w in ub if all((w, z) in leq for z in ub)]


def _glbs(els, leq, items):
    lb = [w for w in els if all((w, x) in leq for x in items)]
    return [w for w in lb if all((z, w) in leq for z in lb)]


def _lub(els, leq, items):
    """The least upper bound of ``items``, found by search over ``els``."""
    least = _lubs(els, leq, items)
    assert len(least) == 1
    return least[0]


def _glb(els, leq, items):
    greatest = _glbs(els, leq, items)
    assert len(greatest) == 1
    return greatest[0]


def _search_lattice(els, leq, tensor):
    """The checks of ``Quantale.finite`` on the order and the tensor table,
    by search: (bottom, top, join, meet), or the text of the
    ``DescriptorError`` that the first failing check raises."""
    for u in els:
        if (u, u) not in leq:
            return f"leq not reflexive at {u!r}"
    join, meet = {}, {}
    for u in els:
        for v in els:
            lub, glb = _lubs(els, leq, [u, v]), _glbs(els, leq, [u, v])
            if len(lub) != 1 or len(glb) != 1:
                return f"leq is not a lattice order at ({u!r}, {v!r})"
            join[u, v], meet[u, v] = lub[0], glb[0]
    bots, tops = _lubs(els, leq, []), _glbs(els, leq, [])
    if len(bots) != 1 or len(tops) != 1:
        return "lattice lacks a unique bottom or top"
    missing = [(u, v) for u in els for v in els if (u, v) not in tensor]
    if missing:
        return f"tensor table missing entries: {missing[:3]}"
    return bots[0], tops[0], join, meet


def _assert_matches_brute_force(q, els, leq, tensor):
    assert q.bottom == _lub(els, leq, [])
    assert q.top == _glb(els, leq, [])
    for u in els:
        for v in els:
            assert q.leq(u, v) == ((u, v) in leq)
            assert q.join(u, v) == _lub(els, leq, [u, v])
            assert q.meet(u, v) == _glb(els, leq, [u, v])
            assert q.tensor(u, v) == tensor[u, v]
            # the largest w with u (x) w <= v, or bottom when there is none
            assert q.hom(u, v) == _lub(els, leq, [w for w in els if (tensor[u, w], v) in leq])


def _chain_values(n):
    return [Fraction(0)] if n == 1 else [Fraction(i, n - 1) for i in range(n)]


# the tensors of the built-in chains, on the fractions themselves
CHAIN_TENSORS = {
    "godel": min,
    "lukasiewicz": lambda a, b: max(Fraction(0), a + b - 1),
}


@pytest.mark.parametrize("n", range(1, 7))
@pytest.mark.parametrize("kind", sorted(CHAIN_TENSORS))
def test_builtin_chain_matches_the_fraction_formulas(kind, n):
    vals = _chain_values(n)
    els = [str(a) for a in vals]
    leq = {(str(a), str(b)) for a in vals for b in vals if a <= b}
    tensor = {(str(a), str(b)): str(CHAIN_TENSORS[kind](a, b)) for a in vals for b in vals}
    q = Quantale.by_name(f"{kind}:{n}")
    assert q.elements == tuple(els)
    assert q.unit == els[-1]
    _assert_matches_brute_force(q, els, leq, tensor)


@st.composite
def shuffled_chains(draw):
    """A linear order on ids listed in a random order, with any tensor table."""
    n = draw(st.integers(1, 6))
    chain = [f"e{i}" for i in range(n)]
    els = draw(st.permutations(chain))
    leq = {(chain[i], chain[j]) for i in range(n) for j in range(i, n)}
    tensor = {(u, v): draw(st.sampled_from(chain)) for u in els for v in els}
    unit = draw(st.sampled_from(chain))
    return els, leq, tensor, unit


@settings(max_examples=150, derandomize=True, deadline=None)
@given(shuffled_chains())
def test_shuffled_linear_order_matches_brute_force(spec):
    els, leq, tensor, unit = spec
    q = Quantale.finite(els, leq, tensor, unit)
    _assert_matches_brute_force(q, els, leq, tensor)


def _transitive_closure(pairs):
    closed = set(pairs)
    while extra := {(a, d) for a, b in closed for c, d in closed if b == c} - closed:
        closed |= extra
    return closed


@st.composite
def reflexive_relations(draw):
    """A reflexive relation on at most 6 ids listed in a random order: any
    relation, a poset (random pairs along a hidden chain, transitively
    closed, and with that chain's ends as bottom and top when bounded), or
    the hidden chain itself; sometimes with one pair or one tensor entry
    dropped."""
    n = draw(st.integers(1, 6))
    chain = [f"e{i}" for i in range(n)]
    els = draw(st.permutations(chain))
    shape = draw(st.sampled_from(["any", "poset", "bounded poset", "chain"]))
    leq = {(u, u) for u in chain}
    if shape == "any":
        leq |= {(u, v) for u in chain for v in chain if u != v and draw(st.booleans())}
    elif shape == "chain":
        leq |= {(chain[i], chain[j]) for i in range(n) for j in range(i, n)}
    else:
        leq |= {(chain[i], chain[j]) for i in range(n) for j in range(i + 1, n)
                if draw(st.booleans())}
        if shape == "bounded poset":
            leq |= {(chain[0], u) for u in chain} | {(u, chain[-1]) for u in chain}
        leq = _transitive_closure(leq)
    tensor = {(u, v): draw(st.sampled_from(chain)) for u in els for v in els}
    drop = draw(st.sampled_from(["nothing", "pair", "tensor entry"]))
    if drop == "pair":
        leq.discard(draw(st.sampled_from(sorted(leq))))
    elif drop == "tensor entry":
        del tensor[draw(st.sampled_from(sorted(tensor)))]
    return els, leq, tensor, draw(st.sampled_from(chain))


@settings(max_examples=400, derandomize=True, deadline=None)
@given(reflexive_relations())
# a < b < c < a: every pair has one join and one meet, yet no element is
# below all others; random relations rarely draw such a cycle
@example((["a", "b", "c"], {(u, u) for u in "abc"} | {("a", "b"), ("b", "c"), ("c", "a")},
          {(u, v): "a" for u in "abc" for v in "abc"}, "a"))
def test_lattice_matches_the_search_oracle(spec):
    els, leq, tensor, unit = spec
    want = _search_lattice(els, leq, tensor)
    if isinstance(want, str):
        with pytest.raises(DescriptorError, match=re.escape(want) + "$"):
            Quantale.finite(els, leq, tensor, unit)
        return
    q = Quantale.finite(els, leq, tensor, unit)
    bottom, top, join, meet = want
    assert (q.bottom, q.top) == (bottom, top)
    assert {p: q.join(*p) for p in join} == join
    assert {p: q.meet(*p) for p in meet} == meet


# -- the folds ------------------------------------------------------------------

# {0, a, b, 1} with a and b incomparable: a lattice that is not a chain
DIAMOND_ELS = ["0", "a", "b", "1"]
DIAMOND_LEQ = ({(e, e) for e in DIAMOND_ELS} | {("0", e) for e in DIAMOND_ELS}
               | {(e, "1") for e in DIAMOND_ELS})


def _diamond():
    meet = {(u, v): _glb(DIAMOND_ELS, DIAMOND_LEQ, [u, v]) for u in DIAMOND_ELS
            for v in DIAMOND_ELS}
    return Quantale.finite(DIAMOND_ELS, DIAMOND_LEQ, meet, "1")


FOLD_QUANTALES = [Quantale.by_name(name) for name in (
    "bool", "godel:1", "godel:2", "godel:3", "godel:4", "godel:6",
    "lukasiewicz:2", "lukasiewicz:3", "lukasiewicz:5", "lawvere")] + [_diamond()]
LAWVERE_VALUES = [INF, INF, Fraction(0), Fraction(1, 2), Fraction(1), Fraction(3), Fraction(7, 3)]


def _values(q):
    return LAWVERE_VALUES if q.flavor == "lawvere-extended-rational" else list(q.elements)


@pytest.mark.parametrize("q", FOLD_QUANTALES, ids=repr)
def test_folds_equal_the_pairwise_fold(q):
    rng = random.Random(f"folds:{q!r}")
    values = _values(q)
    for size in list(range(6)) * 40:
        items = [rng.choice(values) for _ in range(size)]
        assert q.join_all(items) == reduce(q.join, items, q.bottom), items
        assert q.meet_all(items) == reduce(q.meet, items, q.top), items


def _guarded(items, done):
    """Yield ``items``; raise if advanced again once ``done(prefix)`` holds."""
    seen = []
    for x in items:
        yield x
        seen.append(x)
        if done(seen):
            raise AssertionError(f"advanced past {seen}")


@pytest.mark.parametrize("q", [Quantale.godel(4), Quantale.lawvere(), _diamond()], ids=repr)
def test_folds_stop_at_top_and_at_bottom(q):
    rng = random.Random(f"short-circuit:{q!r}")
    values = _values(q)
    reached_top = reached_bottom = 0
    for _ in range(300):
        items = [rng.choice(values) for _ in range(rng.randint(0, 8))]
        join = reduce(q.join, items, q.bottom)
        meet = reduce(q.meet, items, q.top)
        reached_top += join == q.top
        reached_bottom += meet == q.bottom
        assert q.join_all(_guarded(items, lambda s: reduce(q.join, s, q.bottom) == q.top)) == join
        assert q.meet_all(_guarded(items, lambda s: reduce(q.meet, s, q.top) == q.bottom)) == meet
    assert reached_top and reached_bottom


def test_diamond_join_reaches_top_without_top_itself():
    q = _diamond()
    assert q.join_all(_guarded(["a", "b", "0"], lambda s: s == ["a", "b"])) == "1"
    assert q.meet_all(_guarded(["b", "a", "1"], lambda s: s == ["b", "a"])) == "0"


# -- malformed tables -------------------------------------------------------------


def _ordered(pairs, els):
    return {(e, e) for e in els} | set(pairs)


BAD_TABLES = {
    # u <= v and v <= u: a preorder, not a partial order
    "preorder": (["u", "v"], _ordered([("u", "v"), ("v", "u")], "uv"),
                 {(x, y): "u" for x in "uv" for y in "uv"}, "v",
                 "leq is not a lattice order at ('u', 'u')"),
    # a < b < c < a: every pair is comparable, but the relation is not transitive
    "tournament": (["a", "b", "c"], _ordered([("a", "b"), ("b", "c"), ("c", "a")], "abc"),
                   {(x, y): "a" for x in "abc" for y in "abc"}, "a",
                   "lattice lacks a unique bottom or top"),
    "missing-tensor-entry": (["0", "h", "1"],
                             _ordered([("0", "h"), ("0", "1"), ("h", "1")], ["0", "h", "1"]),
                             {(x, y): "0" for x in ["0", "h", "1"] for y in ["0", "h", "1"]
                              if (x, y) != ("h", "1")}, "1",
                             "tensor table missing entries: [('h', '1')]"),
}


@pytest.mark.parametrize("name", sorted(BAD_TABLES))
def test_malformed_tables_raise_the_same_errors(name, tmp_path, runner):
    els, leq, tensor, unit, message = BAD_TABLES[name]
    with pytest.raises(DescriptorError, match=re.escape(message) + "$"):
        Quantale.finite(els, leq, tensor, unit)
    path = tmp_path / f"{name}.json"
    path.write_text(json.dumps({
        "schema": "quantale/1",
        "elements": els,
        "leq": [[int((u, v) in leq) for v in els] for u in els],
        # the missing entry ends its row, so that row is short
        "tensor": [[tensor[u, v] for v in els if (u, v) in tensor] for u in els],
        "unit": unit,
    }))
    result = runner.invoke(main, ["check", str(path)])
    assert result.exit_code == 2
    assert result.stdout == ""
    assert json.loads(result.stderr) == {"schema": "report/1", "error": message}


def _bool_descriptor(**changes):
    spec = {"schema": "quantale/1", "elements": ["0", "1"], "leq": [[1, 1], [0, 1]],
            "tensor": [["0", "0"], ["0", "1"]], "unit": "1"}
    spec.update(changes)
    return spec


BAD_DESCRIPTORS = {
    "array-id": (_bool_descriptor(elements=["0", ["1"]], unit=["1"]),
                 'element id ["1"] is not a string, number or null'),
    "object-id": (_bool_descriptor(elements=[{"a": 0}, "1"]),
                  'element id {"a": 0} is not a string, number or null'),
    "array-tensor-value": (_bool_descriptor(tensor=[["0", ["0"]], ["0", "1"]]),
                           'tensor value ["0"] is not an element id'),
    "stray-tensor-value": (_bool_descriptor(tensor=[["0", "zz"], ["0", "1"]]),
                           'tensor value "zz" is not an element id'),
    "long-leq-row": (_bool_descriptor(leq=[[1, 1, 1], [0, 1]]),
                     "leq/tensor rows must be arrays no longer than the element list"),
    "long-tensor-row": (_bool_descriptor(tensor=[["0", "0", "1"], ["0", "1"]]),
                        "leq/tensor rows must be arrays no longer than the element list"),
    "scalar-row": (_bool_descriptor(leq=[1, [0, 1]]),
                   "leq/tensor rows must be arrays no longer than the element list"),
    "scalar-elements": (_bool_descriptor(elements="01"),
                        "elements, leq and tensor must be JSON arrays"),
    # short rows leave pairs out, and the table checks report them as before
    "short-leq-row": (_bool_descriptor(leq=[[1], [0, 1]]),
                      "leq is not a lattice order at ('0', '1')"),
    "short-tensor-row": (_bool_descriptor(tensor=[["0", "0"], ["0"]]),
                         "tensor table missing entries: [('1', '1')]"),
}


@pytest.mark.parametrize("name", sorted(BAD_DESCRIPTORS))
def test_malformed_descriptors_are_bad_input(name, tmp_path, runner):
    spec, message = BAD_DESCRIPTORS[name]
    with pytest.raises(DescriptorError, match=re.escape(message) + "$"):
        load_quantale(spec)
    path = tmp_path / f"{name}.json"
    path.write_text(json.dumps(spec))
    result = runner.invoke(main, ["check", str(path)])
    assert result.exit_code == 2
    assert result.stdout == ""
    assert json.loads(result.stderr) == {"schema": "report/1", "error": message}


def test_unhashable_element_is_an_unknown_id(godel3):
    with pytest.raises(DescriptorError, match="unknown element id"):
        godel3.parse(["1"])
    with pytest.raises(DescriptorError, match="unknown element id"):
        godel3.hom(["1"], "1")


# -- the hom table, derived on the first hom call -----------------------


def _pentagon():
    els = ["bot", "a", "b", "c", "top"]
    order = {("bot", e) for e in els} | {(e, "top") for e in els}
    order |= {(e, e) for e in els} | {("a", "c")}
    return Quantale.finite(els, order, {(u, v): _n5_meet(u, v, order)
                                        for u in els for v in els}, "top")


def _broken_godel():
    q = Quantale.godel(3)
    table = dict(q._tensor)
    table[("0", "1")] = table[("1", "0")] = "1"
    return Quantale.finite(q.elements, q._leq, table, "1")


def _mixed_ids():
    """The Boolean quantale on the ids 0 (a number) and "1" (a string)."""
    return load_quantale({"schema": "quantale/1", "elements": [0, "1"],
                          "leq": [[1, 1], [0, 1]], "tensor": [[0, 0], [0, "1"]],
                          "unit": "1"})


def _with_tables(q):
    """``q`` with the element list, order pairs and tensor table it was built from."""
    return q, list(q.elements), set(q._leq), dict(q._tensor)


BRUTE_FORCE_LATTICES = {
    "bool": (Quantale.boolean(), ["0", "1"], {("0", "0"), ("0", "1"), ("1", "1")},
             {(u, v): "1" if u == v == "1" else "0" for u in "01" for v in "01"}),
    "diamond": _with_tables(_diamond()),
    "pentagon": _with_tables(_pentagon()),
    "mixed-ids": _with_tables(_mixed_ids()),
}


@pytest.mark.parametrize("name", sorted(BRUTE_FORCE_LATTICES))
def test_small_lattices_match_brute_force(name):
    _assert_matches_brute_force(*BRUTE_FORCE_LATTICES[name])


HOM_QUANTALES = [Quantale.by_name(name) for name in (
    "bool", "godel:1", "godel:2", "godel:3", "godel:4", "godel:6",
    "lukasiewicz:2", "lukasiewicz:3", "lukasiewicz:5")] + [
    _diamond(), _pentagon(), _broken_godel(), _mixed_ids()]


@pytest.mark.parametrize("q", HOM_QUANTALES, ids=repr)
def test_hom_is_the_join_of_the_adjoint_set(q):
    for u in q.elements:
        for v in q.elements:
            assert q.hom(u, v) == brute_hom(q, u, v), (u, v)


def _fresh(q):
    return Quantale.finite(q.elements, q._leq, q._tensor, q.unit)


def _unshared(name):
    """The built-in ``name`` built anew, not the shared instance."""
    q = Quantale.by_name(name)
    return Quantale(quantale.LAWVERE) if q.flavor == quantale.LAWVERE else _fresh(q)


@pytest.mark.parametrize("q", HOM_QUANTALES, ids=repr)
def test_derived_homs_leave_the_reports_as_they_were(q):
    """as_vcategory is the brute-force hom matrix, and the law report reads
    the same before and after the hom table exists."""
    fresh = _fresh(q)
    before = check_quantale_laws(fresh)
    cat = as_vcategory(fresh)
    assert cat.matrix == tuple(tuple(brute_hom(q, u, v) for v in q.elements)
                               for u in q.elements)
    assert check_quantale_laws(fresh) == before == check_quantale_laws(q)
    assert fresh == q and hash(fresh) == hash(q)


def test_hom_table_is_derived_only_when_asked(monkeypatch):
    derived = []
    real = TableQuantale.__dict__["_hom"].func

    def counting(self):
        derived.append(self)
        return real(self)

    prop = cached_property(counting)
    prop.__set_name__(TableQuantale, "_hom")
    monkeypatch.setattr(TableQuantale, "_hom", prop)
    # fresh copies: the shared built-ins may have derived their homs in an earlier test
    pool = [_unshared(name) for name in ("bool", "godel:3", "godel:4",
                                          "lukasiewicz:3", "lawvere")]
    for q in pool:
        check_quantale_laws(q)
        check_assumptions(q)
        values = _values(q)
        q.join_all(values)
        q.meet_all(values)
        q.tensor(values[-1], values[-1])
        assert q.unit_join_prime
    for name in ("bool", "godel:3", "lukasiewicz:3"):
        up_closure(rand_category(random.Random(name), _unshared(name), 4, 4), {"s0"})
    assert derived == []
    q = pool[1]
    assert q.hom("1", "1/2") == "1/2"
    assert q.hom("1/2", "0") == "0"
    assert derived == [q]
    pool[-1].hom(Fraction(1), Fraction(3))
    assert derived == [q]


def test_tensor_order_does_not_change_equality():
    q = Quantale.godel(4)
    items = list(q._tensor.items())
    a = Quantale.finite(q.elements, q._leq, dict(items), q.unit)
    b = Quantale.finite(q.elements, q._leq, dict(reversed(items)), q.unit)
    assert list(a._tensor) != list(b._tensor)
    assert a == b == q and hash(a) == hash(b) == hash(q)
    assert len({a, b, q}) == 1
    assert a != Quantale.lukasiewicz(4)


def test_builtins_are_shared():
    assert Quantale.by_name("godel:3") is Quantale.godel(3)
    assert Quantale.by_name("lukasiewicz:3") is Quantale.lukasiewicz(3)
    assert Quantale.by_name("bool") is Quantale.boolean()
    assert Quantale.by_name("lawvere") is Quantale.lawvere()
    assert Quantale.godel(3) is not Quantale.godel(4)


@pytest.mark.parametrize("name", ["bool", "godel:3", "lukasiewicz:3", "lawvere"])
def test_builtins_are_immutable(name):
    q = Quantale.by_name(name)
    for attr in ("flavor", "_key", "_hom", "fresh"):
        with pytest.raises(AttributeError, match="immutable"):
            setattr(q, attr, None)
    for attr in ("flavor", "_key"):
        with pytest.raises(AttributeError, match="immutable"):
            delattr(q, attr)
    assert q == Quantale.by_name(name)


def test_inline_copy_of_a_builtin_is_equal_but_not_shared():
    q = Quantale.godel(3)
    els = list(q.elements)
    spec = {"schema": "quantale/1", "elements": els,
            "leq": [[int(q.leq(u, v)) for v in els] for u in els],
            "tensor": [[q.tensor(u, v) for v in els] for u in els],
            "unit": q.unit}
    inline = load_quantale(spec)
    assert inline == q and hash(inline) == hash(q)
    assert inline is not q
    assert load_quantale(spec) is not inline


def test_law_sweeps_build_each_builtin_once(monkeypatch):
    """A sweep resolves one built-in per case, and an empty intern builds
    each drawn built-in once.  The suites run in turn in this process, since
    ``run_law_suites`` runs most of them in forked workers, whose counts
    would never reach this one."""
    built, looked_up = [], []
    real_init = Quantale.__init__
    intern = lru_cache(maxsize=quantale.BUILTIN_MEMO_SIZE)(quantale._builtin.__wrapped__)

    def counting_init(self, *args, **kwargs):
        built.append(args[0])
        real_init(self, *args, **kwargs)

    def lookup(*key):
        looked_up.append(key)
        return intern(*key)

    monkeypatch.setattr(Quantale, "__init__", counting_init)
    monkeypatch.setattr(quantale, "_builtin", lookup)
    for name, fn in SUITES:
        run_suite(name, fn, 3, 50)
    assert len(looked_up) == len(SUITES) * 50
    assert len(built) == len(set(looked_up)) <= len(QUANTALE_NAMES)


def test_mixed_id_types_build_a_quantale():
    q = _mixed_ids()
    assert q == _mixed_ids() and hash(q) == hash(_mixed_ids())
    assert (q.bottom, q.top, q.unit) == (0, "1", "1")
    assert check_quantale_laws(q).ok and check_assumptions(q).ok


@pytest.mark.parametrize("q", FOLD_QUANTALES + [_pentagon(), _mixed_ids()], ids=repr)
def test_unit_join_prime_matches_its_definition(q):
    values = _values(q)
    k = q.unit
    want = not q.leq(k, q.bottom) and all(
        q.leq(k, u) or q.leq(k, v) for u in values for v in values if q.leq(k, q.join(u, v)))
    assert q.unit_join_prime == want
    # here the unit is the top, which is join-prime exactly on the chains
    chain = all(q.leq(u, v) or q.leq(v, u) for u in values for v in values)
    assert q.unit_join_prime == (chain and len(set(values)) > 1)


# -- the totally-below relation against the subset search -----------------------


def _boolean_algebra(k):
    """The Boolean algebra 2^k on bit strings, tensor meet, unit top."""
    els = [format(m, f"0{k}b") for m in range(1 << k)]
    return Quantale.finite(
        els, [(u, v) for u in els for v in els if int(u, 2) & ~int(v, 2) == 0],
        {(u, v): format(int(u, 2) & int(v, 2), f"0{k}b") for u in els for v in els},
        els[-1])


TOTALLY_BELOW_QUANTALES = [
    Quantale.by_name(name) for name in QUANTALE_NAMES if name != "lawvere"] + [
    Quantale.godel(1), _pentagon(), _diamond(), _boolean_algebra(2), _boolean_algebra(3)]


def test_totally_below_matches_the_subset_search():
    primes = set()
    for q in TOTALLY_BELOW_QUANTALES:
        want = totally_below_by_subsets(q)
        assert totally_below(q) == want, q
        assert q.unit_join_prime == ((q.unit, q.unit) in want), q
        primes.add(q.unit_join_prime)
    assert primes == {True, False}

