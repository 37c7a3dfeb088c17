"""Tests of the benchmark itself: the oracles, the tracing, and a traced
run of every workload.

    python3 -m pytest bench

The traced runs take about a minute.
"""

import json
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

import oracles as orc
import tracing
import workloads

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
LIBRARY = ("quantale", "vcat", "hausdorff", "coalg", "omega")
SESSION_OPS = sum(count for _, count in workloads.Session.ROUND) + 5  # five malformed calls


def _python(code):
    env = {"PYTHONPATH": f"{ROOT / 'src'}:{BENCH}", "PATH": "/usr/bin:/bin"}
    return subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          env=env, cwd=ROOT, timeout=120)


# -- oracles ------------------------------------------------------------------------


def test_distance_recursion_reproduces_the_worked_lawvere_example():
    line = workloads.vcategory("lawvere", ["0", "1/4", "1"],
                               [["0", "1/4", "1"], ["1/4", "0", "3/4"], ["1", "3/4", "0"]])
    functor = {"prod": [{"const": line}, workloads.H]}
    cat = orc.Cat(workloads.discrete("lawvere", ["x", "u", "y", "v"]))
    structure = {"x": ["0", ["y"]], "u": ["1/4", ["v"]], "y": ["1", ["y"]], "v": ["0", ["v"]]}
    tables = orc.distance_tables(functor, cat, structure, 2)
    sym = [cat.q.meet(t["x", "u"], t["u", "x"]) for t in tables]
    assert sym == [Fraction(0), Fraction(1, 4), Fraction(1)]
    assert [cat.q.meet(t["y", "v"], t["v", "y"]) for t in tables] == [0, 1, 1]


def test_ana_oracle_is_longest_path_or_inf():
    structure = {"a": ["b"], "b": [], "c": ["c"], "d": ["a", "c"], "e": ["a", "b"]}
    assert orc.ana_values(structure) == {"a": "1", "b": "0", "c": "inf", "d": "inf", "e": "2"}


def test_closure_is_shortest_paths_over_lawvere():
    q = orc.Chain("lawvere")
    raw = [[q.parse(v) for v in row] for row in
           [["inf", "1", "inf"], ["inf", "inf", "2"], ["1/4", "inf", "inf"]]]
    got = [[q.format(v) for v in row] for row in orc.closure(q, [raw])]
    assert got == [["0", "1", "3"], ["9/4", "0", "2"], ["1/4", "5/4", "0"]]


def test_lift_oracle():
    q = orc.Chain("bool")
    states = ["s0", "s1"]
    indiscrete = orc.Cat(workloads.vcategory("bool", states, [["1", "1"], ["1", "1"]]))
    # with an indiscrete leg, swapping the two states keeps everything related
    swap = {"s0": "s1", "s1": "s0"}
    assert orc.greatest_lift(q, workloads.ID, states, swap, indiscrete) == [[1, 1], [1, 1]]
    # without a cone, labels l0 < l1 order s0 below s1 and not back
    functor = {"prod": [{"const": workloads.labels("bool")}, workloads.ID]}
    structure = {"s0": ["l0", "s1"], "s1": ["l1", "s1"]}
    assert orc.greatest_lift(q, functor, states, structure) == [[1, 1], [0, 1]]


def test_judge_malformed():
    ok = json.dumps({"schema": "report/1", "error": "bad input"})
    assert workloads.judge_malformed(2, ok)
    assert not workloads.judge_malformed(1, ok)
    assert not workloads.judge_malformed(2, "Traceback (most recent call last):\n" + ok)
    assert not workloads.judge_malformed(2, "not json")


def test_same_seed_same_inputs(tmp_path):
    for name, cls in workloads.WORKLOADS.items():
        a, b = tmp_path / f"{name}-a", tmp_path / f"{name}-b"
        a.mkdir()
        b.mkdir()
        wa, wb = cls(5, a), cls(5, b)
        if name == "session":
            assert [op for op, _ in wa.round()] == [op for op, _ in wb.round()]
        else:
            def args(wl, work):
                return [[arg.replace(str(work), "") for arg in op.args] for op in wl.round()]
            assert args(wa, a) == args(wb, b)
        assert sorted(p.read_text() for p in a.iterdir()) == sorted(p.read_text() for p in b.iterdir())


# -- tracing ------------------------------------------------------------------------


def test_self_time_subtracts_child_spans():
    totals = tracing.Totals()
    # root [0, 10] with children [1, 4] and [5, 6]; the first has a child [2, 3]
    totals.add_spans(["root", "child", "leaf"], [0, 1, 2, 1], [-1, 0, 1, 0], [1, 1, 1, 1],
                     [0.0, 1.0, 2.0, 5.0], [10.0, 4.0, 3.0, 6.0])
    assert totals.self_s == {"root": 6.0, "child": 3.0, "leaf": 1.0}
    assert totals.span_s == {"root": 10.0, "child": 4.0, "leaf": 1.0}
    assert totals.calls == {"root": 1, "child": 2, "leaf": 1}


def test_install_patches_every_namespace_that_binds_a_function():
    out = _python("""
import inspect, sys, tracing
rec = tracing.import_traced()
import quantcat, quantcat.cli, quantcat.coalg, quantcat.hausdorff, quantcat.suites
bindings = [(quantcat, "up_closure"), (quantcat.cli, "up_closure"), (quantcat.hausdorff, "up_closure"),
            (quantcat.suites, "eval_obj"), (quantcat.coalg, "eval_obj"), (quantcat.cli, "equalizer"),
            (quantcat.descriptors, "normalize_term")]
print(all(hasattr(getattr(m, n), "__wrapped__") for m, n in bindings))
missed = [(name, attr) for name, mod in sys.modules.items() if name.startswith("quantcat")
          for attr, obj in vars(mod).items()
          if inspect.isfunction(obj) and not attr.startswith("_") and not hasattr(obj, "__wrapped__")
          and obj.__module__.split(".")[-1] in tracing.LIBRARY_LAYERS]
print(missed)
from quantcat import HComp, Id, Quantale, final_chain
final_chain(HComp(Id()), 3, quantale=Quantale.boolean())
names = {rec.names[i] for i in rec.name}
print(sorted(n for n in names if n.startswith(("coalg.", "hausdorff.", "quantale."))))
print(rec.counters["quantale.lattice_calls"] > 0)
""")
    assert out.returncode == 0, out.stderr
    lines = out.stdout.splitlines()
    assert lines[0] == "True"
    assert lines[1] == "[]"
    spans = eval(lines[2])
    for name in ("coalg.final_chain", "coalg.eval_obj", "coalg.eval_mor",
                 "hausdorff.hausdorff_object", "hausdorff.enumerate_increasing",
                 "hausdorff.up_closure", "quantale.Quantale"):
        assert name in spans
    assert lines[3] == "True"


# -- traced and untraced runs of every workload ---------------------------------------


def _run(workload, trace):
    proc = subprocess.run([sys.executable, str(BENCH / "run.py"), "--workload", workload,
                           "--seed", "3", "--seconds", "1", "--trace", str(trace)],
                          capture_output=True, text=True, cwd=ROOT, timeout=600)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.splitlines()[-1])


@pytest.fixture(scope="module")
def traced():
    return {name: _run(name, 1) for name in workloads.WORKLOADS}


def _values(result):
    return {k: v["value"] for k, v in result["metrics"].items()}


def test_traced_runs_pass_the_same_checks(traced):
    for name, result in traced.items():
        assert result["correct"], name
        expected = 5 * result["attempted"] // SESSION_OPS if name == "session" else 0
        assert result["failed"] == expected, name
        assert set(result["metrics"]) == {m["name"] for m in SPEC["per_layer"]}


def test_every_per_layer_metric_is_nonzero_somewhere(traced):
    zero = [m["name"] for m in SPEC["per_layer"]
            if not any(_values(r)[m["name"]] for r in traced.values())]
    assert zero == []


def test_profiles_match_the_workload_intents(traced):
    omega = _values(traced["omega"])
    self_times = {k: v for k, v in omega.items()
                  if k.endswith("_s") and k.split(".")[0] in LIBRARY and not k.endswith("self_s")}
    assert max(self_times, key=self_times.get) == "hausdorff.enumerate_s"

    behave = _values(traced["behave"])
    library = sum(behave[f"{layer}.self_s"] for layer in LIBRARY)
    assert behave["hausdorff.enumerate_s"] < 0.05 * library
    coalg_side = behave["coalg.self_s"] + behave["hausdorff.up_closure_s"] + behave["hausdorff.object_s"]
    assert coalg_side > 0.5 * library

    selfcheck = _values(traced["selfcheck"])
    cases = workloads.Selfcheck.CASES * 4 * len(tracing.SUITE_NAMES)
    assert selfcheck["quantale.constructions"] >= 4 * cases


def test_untraced_session_fails_exactly_the_malformed_invocations():
    result = _run("session", 0)
    assert result["correct"]
    rounds = result["attempted"] // SESSION_OPS
    assert result["attempted"] == SESSION_OPS * rounds and result["failed"] == 5 * rounds
    assert set(result["metrics"]) == {m["name"] for m in SPEC["end_to_end"]}
