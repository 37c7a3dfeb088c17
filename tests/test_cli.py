import itertools
import json
import os
import random
import subprocess
import sys
import time
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

import quantcat
from conftest import CliRunner
from quantcat.cli import main
from test_golden import CASES as GOLDEN_CASES, INPUTS as GOLDEN_INPUTS


def _write(tmp_path, name, payload):
    """Write ``payload`` as JSON, or as it is when it is bytes."""
    p = tmp_path / name
    if isinstance(payload, bytes):
        p.write_bytes(payload)
    else:
        p.write_text(json.dumps(payload))
    return str(p)


@pytest.fixture()
def c2_file(tmp_path):
    return _write(tmp_path, "c2.json", {
        "schema": "vcategory/1",
        "quantale": "bool",
        "states": ["u", "v"],
        "matrix": [["1", "1"], ["0", "1"]],
    })


@pytest.fixture()
def line_file(tmp_path):
    return _write(tmp_path, "line.json", {
        "schema": "vcategory/1",
        "quantale": "lawvere",
        "states": ["0", "1", "3"],
        "matrix": [["0", "1", "3"], ["1", "0", "2"], ["3", "2", "0"]],
    })


@pytest.fixture()
def hcoalg_file(tmp_path):
    return _write(tmp_path, "hcoalg.json", {
        "schema": "coalgebra/1",
        "functor": {"H": {"id": {}}},
        "category": {
            "schema": "vcategory/1",
            "quantale": "bool",
            "states": ["a", "b", "c"],
            "matrix": [["1", "0", "0"], ["0", "1", "0"], ["0", "0", "1"]],
        },
        "structure": {"a": ["b"], "b": [], "c": ["c"]},
    })


def test_check_valid_category(runner, c2_file):
    result = runner.invoke(main, ["check", c2_file])
    assert result.exit_code == 0
    rep = json.loads(result.output)
    assert rep["ok"] is True
    assert rep["files"][0]["kind"] == "vcategory"


def test_check_reports_law_failure(runner, tmp_path):
    path = _write(tmp_path, "broken.json", {
        "schema": "vcategory/1",
        "quantale": "bool",
        "states": ["a", "b"],
        "matrix": [["0", "0"], ["0", "1"]],
    })
    result = runner.invoke(main, ["check", path])
    assert result.exit_code == 1
    rep = json.loads(result.output)
    laws = {e["law"]: e for e in rep["files"][0]["laws"]}
    assert laws["reflexive"]["passed"] is False
    assert laws["reflexive"]["witness"] == ["a"]


def test_check_witness_bytes_do_not_depend_on_the_hash_seed(tmp_path):
    """The constant category p -> q -> r is not transitive, so the file is
    refused with the witness of that law, which prints the same under every
    hash seed.  (A lawful constant up-closes each loaded term, so no loaded
    structure falls outside the functor.)"""
    path = _write(tmp_path, "hconst.json", {
        "schema": "coalgebra/1",
        "functor": {"H": {"const": {"schema": "vcategory/1", "quantale": "bool",
                                    "states": ["p", "q", "r"],
                                    "matrix": [["1", "1", "0"], ["0", "1", "1"],
                                               ["0", "0", "1"]]}}},
        "category": {"schema": "vcategory/1", "quantale": "bool", "states": ["s"],
                     "matrix": [["1"]]},
        "structure": {"s": ["p"]},
    })
    outputs = set()
    for seed in range(1, 5):
        env = dict(os.environ, PYTHONHASHSEED=str(seed),
                   PYTHONPATH=str(Path(quantcat.__file__).resolve().parents[1]))
        proc = subprocess.run([sys.executable, "-m", "quantcat", "check", path],
                              capture_output=True, env=env, check=False)
        assert proc.returncode == 2, proc.stderr
        assert proc.stdout == b""
        outputs.add(proc.stderr)
    assert len(outputs) == 1
    assert json.loads(outputs.pop())["error"] == (
        "functor.H.const: not a V-category (transitive, witness ('p', 'q', 'r'))")


def test_check_quantale_with_mixed_id_types(tmp_path):
    """Element ids need not be mutually comparable: the Boolean quantale on
    the ids 0 and "1" checks like any other."""
    path = _write(tmp_path, "mixed.json", {
        "schema": "quantale/1", "elements": [0, "1"], "leq": [[1, 1], [0, 1]],
        "tensor": [[0, 0], [0, "1"]], "unit": "1"})
    env = dict(os.environ, PYTHONPATH=str(Path(quantcat.__file__).resolve().parents[1]))
    proc = subprocess.run([sys.executable, "-m", "quantcat", "check", path],
                          capture_output=True, env=env, check=False, text=True)
    assert proc.returncode == 0, proc.stderr
    assert proc.stderr == ""
    rep = json.loads(proc.stdout)
    assert rep["schema"] == "report/1" and rep["ok"] is True
    assert rep["files"][0]["kind"] == "quantale"


def test_check_pentagon_quantale_distributivity(runner, tmp_path):
    els = ["bot", "a", "b", "c", "top"]
    order = {(u, u) for u in els} | {("bot", e) for e in els}
    order |= {(e, "top") for e in els} | {("a", "c")}
    leq = [[1 if (u, v) in order else 0 for v in els] for u in els]

    def meet(u, v):
        lower = [w for w in els if (w, u) in order and (w, v) in order]
        return max(lower, key=lambda w: sum((z, w) in order for z in lower))

    path = _write(tmp_path, "n5.json", {
        "schema": "quantale/1",
        "elements": els,
        "leq": leq,
        "tensor": [[meet(u, v) for v in els] for u in els],
        "unit": "top",
    })
    result = runner.invoke(main, ["check", path])
    assert result.exit_code == 1
    rep = json.loads(result.output)
    laws = {e["law"]: e for e in rep["files"][0]["laws"]}
    assert laws["lattice-distributive"]["passed"] is False
    assert len(laws["lattice-distributive"]["witness"]) == 3


def test_check_input_errors(runner, tmp_path):
    missing = str(tmp_path / "nope.json")
    assert runner.invoke(main, ["check", missing]).exit_code == 2
    garbled = tmp_path / "bad.json"
    garbled.write_text("{not json")
    assert runner.invoke(main, ["check", str(garbled)]).exit_code == 2
    unknown = _write(tmp_path, "unknown.json", {"schema": "mystery/9"})
    assert runner.invoke(main, ["check", unknown]).exit_code == 2


def test_check_coalgebra_without_category_is_bad_input(tmp_path):
    path = _write(tmp_path, "nocat.json", {
        "schema": "coalgebra/1", "functor": {"H": {"id": {}}}, "structure": {"a": []}})
    env = dict(os.environ, PYTHONPATH=str(Path(quantcat.__file__).resolve().parents[1]))
    proc = subprocess.run([sys.executable, "-m", "quantcat", "check", path],
                          capture_output=True, env=env, check=False, text=True)
    assert proc.returncode == 2, proc.stderr
    assert "Traceback" not in proc.stderr
    assert proc.stdout == ""
    assert json.loads(proc.stderr) == {
        "schema": "report/1", "error": "coalgebra missing fields ['category']"}


def test_check_coalgebra_reports_an_unlawful_carrier(runner, tmp_path):
    # a -> b -> c without a -> c: the carrier is not transitive, so its laws
    # are reported; the terms are not loaded, since up-closing {a} gives
    # {a, b}, which is not up-closed and so no element of H(X)
    path = _write(tmp_path, "coalg.json", {
        "schema": "coalgebra/1", "functor": {"H": {"H": {"id": {}}}},
        "category": _bool_category(["a", "b", "c"], [["1", "1", "0"], ["0", "1", "1"],
                                                     ["0", "0", "1"]]),
        "structure": {"a": [["a"]], "b": [], "c": [["c"], ["b"]]}})
    result = runner.invoke(main, ["check", path])
    assert result.exit_code == 1, result.exception
    laws = json.loads(result.output)["files"][0]["laws"]
    assert [(e["law"], e["passed"], e["witness"]) for e in laws] == [
        ("reflexive", True, None), ("transitive", False, ["a", "b", "c"])]


def test_check_a_long_chain_quantale(runner, tmp_path):
    result = runner.invoke(main, ["check", _write(tmp_path, "q.json", "godel:24")])
    assert result.exit_code == 0, result.output
    rep = json.loads(result.output)
    assert rep["ok"] is True
    assumptions = {e["law"]: e["passed"] for e in rep["files"][0]["assumptions"]}
    assert assumptions["totally-below-unit-directed"] is True


@pytest.mark.parametrize("command", ["check", "selfcheck"])
def test_timings_add_only_their_seconds(runner, c2_file, command):
    args = {"check": ["check", c2_file], "selfcheck": ["selfcheck", "--cases", "2"]}[command]
    plain = runner.invoke(main, args)
    timed = runner.invoke(main, args + ["--timings"])
    assert plain.exit_code == timed.exit_code == 0
    rep, timed_rep = json.loads(plain.output), json.loads(timed.output)
    assert "timings" not in rep
    timings = timed_rep.pop("timings")
    assert list(timings) == ["seconds"]
    assert isinstance(timings["seconds"], (int, float)) and timings["seconds"] >= 0
    assert timed_rep == rep


def test_chain_sizes(runner):
    result = runner.invoke(main, ["chain", "--functor", "H", "--quantale", "bool",
                                  "--depth", "6"])
    assert result.exit_code == 0
    assert json.loads(result.output)["sizes"] == [1, 2, 3, 4, 5, 6, 7]


def test_chain_cap_exit_code(runner):
    result = runner.invoke(main, ["chain", "--functor", "H", "--quantale", "bool",
                                  "--depth", "10", "--cap", "4"])
    assert result.exit_code == 3


def test_a_sum_carrier_past_the_cap_exits_3(runner):
    result = runner.invoke(main, ["chain", "--functor", '{"sum":[{"id":{}},{"id":{}}]}',
                                  "--depth", "2", "--cap", "2"])
    assert result.exit_code == 3, result.exception
    assert "Traceback" not in result.stderr
    assert result.stdout == ""
    assert json.loads(result.stderr) == {"schema": "report/1",
                                         "error": "sum carrier: size 4 exceeds cap 2"}


_TWO_LABELS_H = json.dumps({"prod": [
    {"const": {"schema": "vcategory/1", "quantale": "bool", "states": ["a", "b"],
               "matrix": [["1", "0"], ["0", "1"]]}},
    {"H": {"id": {}}}]})


@pytest.mark.parametrize("functor, depth, cap, sizes", [
    ("H", 3, 4, [1, 2, 3, 4]),
    (_TWO_LABELS_H, 2, 18, [1, 4, 18]),
], ids=["H", "two-labels"])
def test_chain_cap_bounds_the_reported_levels(runner, functor, depth, cap, sizes):
    result = runner.invoke(main, ["chain", "--functor", functor, "--depth", str(depth),
                                  "--cap", str(cap)])
    assert result.exit_code == 0, result.stderr
    assert json.loads(result.output)["sizes"] == sizes


def test_hausdorff_command(runner, line_file):
    result = runner.invoke(main, ["hausdorff", "--category", line_file,
                                  "--left", "0,1", "--right", "3"])
    assert result.exit_code == 0
    rep = json.loads(result.output)
    assert rep["distance"] == "2"
    assert rep["reverse"] == "3"
    assert rep["symmetric"] == "3"
    assert rep["up_left"] == ["0", "1"]


def test_hausdorff_names_numeric_state_ids_by_their_printed_text(runner, tmp_path):
    path = _write(tmp_path, "numeric.json", _bool_category([0, 1], [["1", "1"], ["0", "1"]]))
    result = runner.invoke(main, ["hausdorff", "--category", path, "-a", "0", "-b", "1"])
    assert result.exit_code == 0, result.stderr
    rep = json.loads(result.stdout)
    assert (rep["left"], rep["right"], rep["up_left"]) == (["0"], ["1"], ["0", "1"])
    assert (rep["distance"], rep["reverse"]) == ("1", "0")


def test_hausdorff_refuses_an_entry_that_names_two_states(runner, tmp_path):
    path = _write(tmp_path, "twins.json", _bool_category([0, "0"], [["1", "0"], ["0", "1"]]))
    result = runner.invoke(main, ["hausdorff", "--category", path, "-a", "0"])
    assert result.exit_code == 2, result.exception
    assert result.stdout == ""
    assert json.loads(result.stderr) == {"schema": "report/1",
                                         "error": "state '0' names both 0 and '0'"}


def test_hausdorff_unknown_state(runner, line_file):
    result = runner.invoke(main, ["hausdorff", "--category", line_file,
                                  "--left", "9"])
    assert result.exit_code == 2


def test_behave_table(runner, hcoalg_file):
    result = runner.invoke(main, ["behave", "--coalgebra", hcoalg_file,
                                  "--depth", "2"])
    assert result.exit_code == 0
    rep = json.loads(result.output)
    table = {(r["from"], r["to"]): r["distances"] for r in rep["table"]}
    assert table[("a", "a")] == ["1", "1", "1"]
    assert table[("b", "a")] == ["1", "0", "0"]

    csv = runner.invoke(main, ["behave", "--coalgebra", hcoalg_file,
                               "--depth", "1", "--format", "csv"])
    lines = csv.output.strip().splitlines()
    assert lines[0] == "from,to,d0,d1"
    assert len(lines) == 10


@pytest.mark.parametrize("fmt", ["json", "csv"])
def test_behave_rejects_a_negative_depth(runner, hcoalg_file, fmt):
    result = runner.invoke(main, ["behave", "--coalgebra", hcoalg_file,
                                  "--depth", "-1", "--format", fmt])
    assert result.exit_code == 2
    assert result.stdout == ""
    err = json.loads(result.stderr)
    assert err["schema"] == "report/1" and "negative" in err["error"]


def _discrete_h_coalgebra(tmp_path, size, seed):
    rng = random.Random(seed)
    states = [f"s{i}" for i in range(size)]
    return _write(tmp_path, f"h{size}.json", {
        "schema": "coalgebra/1",
        "functor": {"H": {"id": {}}},
        "category": {
            "schema": "vcategory/1",
            "quantale": "bool",
            "states": states,
            "matrix": [["1" if i == j else "0" for j in range(size)] for i in range(size)],
        },
        "structure": {s: [t for t in states if rng.random() < 0.35] for s in states},
    })


def test_behave_and_check_never_build_the_lifted_carrier(runner, tmp_path, monkeypatch):
    from quantcat import hausdorff

    def refuse(*args, **kwargs):
        raise AssertionError("the lifted carrier was built")

    for name in ("enumerate_increasing", "lifted_matrix"):
        monkeypatch.setattr(hausdorff, name, refuse)
    path = _discrete_h_coalgebra(tmp_path, 12, 3)
    for args in (["behave", "--coalgebra", path, "--depth", "6"], ["check", path]):
        result = runner.invoke(main, args)
        assert result.exit_code == 0, result.exception
        assert json.loads(result.output)["ok"] is True


def test_behave_deep_depth_repeats_the_stable_table(runner, tmp_path):
    path = _discrete_h_coalgebra(tmp_path, 9, 21)
    t0 = time.monotonic()
    deep = runner.invoke(main, ["behave", "--coalgebra", path, "--depth", "400"])
    elapsed = time.monotonic() - t0
    shallow = runner.invoke(main, ["behave", "--coalgebra", path, "--depth", "6"])
    assert deep.exit_code == shallow.exit_code == 0
    deep_rows = json.loads(deep.output)["table"]
    shallow_rows = json.loads(shallow.output)["table"]
    assert all(len(r["distances"]) == 401 for r in deep_rows)
    assert [r["distances"][:7] for r in deep_rows] == [r["distances"] for r in shallow_rows]
    # the chain route builds 400 chain levels and takes minutes
    assert elapsed < 30, elapsed


def test_equalize_command(runner, tmp_path):
    src = _write(tmp_path, "src.json", {
        "schema": "coalgebra/1",
        "functor": {"H": {"id": {}}},
        "category": {
            "schema": "vcategory/1",
            "quantale": "bool",
            "states": ["x", "y", "z"],
            "matrix": [["1", "0", "0"], ["0", "1", "0"], ["0", "0", "1"]],
        },
        "structure": {"x": ["x"], "y": ["z"], "z": ["z"]},
    })
    tgt = _write(tmp_path, "tgt.json", {
        "schema": "coalgebra/1",
        "functor": {"H": {"id": {}}},
        "category": {
            "schema": "vcategory/1",
            "quantale": "bool",
            "states": ["p", "q"],
            "matrix": [["1", "1"], ["1", "1"]],
        },
        "structure": {"p": ["p", "q"], "q": ["p", "q"]},
    })
    result = runner.invoke(main, ["equalize", "--coalgebra", src, "--target", tgt,
                                  "--left", "x=p,y=p,z=p", "--right", "x=p,y=p,z=q"])
    assert result.exit_code == 0
    rep = json.loads(result.output)
    assert rep["carrier"] == ["x"]
    assert rep["structure"] == {"x": ["x"]}

    bad = runner.invoke(main, ["equalize", "--coalgebra", src, "--target", src,
                               "--left", "x=x,y=y,z=z", "--right", "x=y,y=x,z=z"])
    assert bad.exit_code == 2  # right map is not a homomorphism


def test_lift_command(runner, tmp_path):
    path = _write(tmp_path, "swap.json", {
        "schema": "setcoalgebra/1",
        "functor": {"id": {}},
        "quantale": "bool",
        "states": ["a", "b"],
        "structure": {"a": "b", "b": "a"},
    })
    result = runner.invoke(main, ["lift", "--file", path])
    assert result.exit_code == 0
    rep = json.loads(result.output)
    assert rep["matrix"] == [["1", "1"], ["1", "1"]]


def test_cantor_sweep(runner, c2_file):
    result = runner.invoke(main, ["cantor", "--category", c2_file])
    assert result.exit_code == 0
    rep = json.loads(result.output)
    assert rep["maps"] == 8
    assert rep["tallies"] == {"not-injective": 8}
    assert rep["ok"] is True


@pytest.mark.parametrize("quantale, entry, values", [
    ("bool", "1", ["0", "1"]),
    ("lawvere", "0", ["inf", "0"]),
])
def test_cantor_sweep_prints_witness_values_in_the_quantale_format(runner, tmp_path, quantale,
                                                                    entry, values):
    """On the indiscrete two-state carrier two of the four maps are
    injective, so the sweep reaches a not-initial witness and prints its
    values as every report prints quantale values."""
    path = _write(tmp_path, "indiscrete.json", {
        "schema": "vcategory/1", "quantale": quantale, "states": ["u", "v"],
        "matrix": [[entry, entry], [entry, entry]]})
    result = runner.invoke(main, ["cantor", "--category", path])
    assert result.exit_code == 0, result.stderr
    rep = json.loads(result.output)
    assert rep["maps"] == 4
    assert rep["tallies"] == {"not-initial": 2, "not-injective": 2}
    assert rep["witnesses"]["not-initial"] == {"kind": "not-initial",
                                               "subsets": [[], ["u", "v"]], "values": values}


def test_cantor_explicit_phi(runner, c2_file):
    phi = json.dumps({"": "u", "v": "v", "u,v": "u"})
    result = runner.invoke(main, ["cantor", "--category", c2_file, "--phi", phi])
    assert result.exit_code == 0
    rep = json.loads(result.output)
    assert rep["verdicts"][0]["kind"] == "not-injective"


def test_cantor_rejects_a_phi_that_is_not_an_object(runner, c2_file):
    result = runner.invoke(main, ["cantor", "--category", c2_file, "--phi", "5"])
    assert result.exit_code == 2, result.exception
    assert result.stdout == ""
    assert json.loads(result.stderr) == {"schema": "report/1",
                                         "error": "phi must be a JSON object"}


@pytest.mark.parametrize("value, text", [(["u"], '["u"]'), ({"a": 1}, '{"a": 1}')],
                         ids=["array", "object"])
def test_cantor_rejects_a_phi_value_that_is_not_a_state_id(runner, c2_file, value, text):
    phi = json.dumps({"": value, "v": "v", "u,v": "u"})
    result = runner.invoke(main, ["cantor", "--category", c2_file, "--phi", phi])
    assert result.exit_code == 2, result.exception
    assert result.stdout == ""
    assert json.loads(result.stderr) == {"schema": "report/1",
                                         "error": f"phi value {text} is not a state id"}


def test_cantor_phi_on_a_thirteen_state_chain(runner, tmp_path):
    """13 states in a chain have 14 increasing subsets, the tails; the
    lifted object is built and phi, which cannot be injective, checked."""
    states = [f"c{i:02d}" for i in range(13)]
    path = _write(tmp_path, "c13.json", _bool_category(
        states, [["1" if i <= j else "0" for j in range(13)] for i in range(13)]))
    phi = {",".join(states[i:]): states[min(i, 12)] for i in range(14)}
    result = runner.invoke(main, ["cantor", "--category", path, "--phi", json.dumps(phi)])
    assert result.exit_code == 0, result.stderr
    verdict = json.loads(result.stdout)["verdicts"][0]
    assert verdict["kind"] == "not-injective"
    assert verdict["subsets"] == [[], ["c12"]]


def test_cantor_cap(runner, c2_file):
    result = runner.invoke(main, ["cantor", "--category", c2_file, "--cap", "2"])
    assert result.exit_code == 3


@pytest.mark.parametrize("phi", [[], ["--phi", json.dumps({"": "u", "v": "v", "u,v": "u"})]],
                         ids=["sweep", "phi"])
def test_cantor_walks_the_up_sets_once(runner, c2_file, monkeypatch, phi):
    """The lifted object is built from the subsets that were checked
    against phi and the cap, not from a second enumeration."""
    from quantcat import hausdorff

    walks = []
    real = hausdorff._order_upset_masks

    def counted(x, count_cap):
        walks.append(len(x))
        return real(x, count_cap)

    monkeypatch.setattr(hausdorff, "_order_upset_masks", counted)
    result = runner.invoke(main, ["cantor", "--category", c2_file] + phi)
    assert result.exit_code == 0, result.exception
    assert walks == [2]


def test_cantor_refuses_the_sweep_before_building_the_lifted_object(runner, tmp_path,
                                                                    monkeypatch):
    """12 discrete states have 4096 increasing subsets, so 12^4096 maps;
    that count is refused before the lifted object is built, and named
    without expanding it."""
    from quantcat import cli

    def refuse(*args, **kwargs):
        raise AssertionError("the lifted object was built")

    monkeypatch.setattr(cli, "hausdorff_object", refuse)
    states = [f"s{i}" for i in range(12)]
    path = _write(tmp_path, "d12.json", {
        "schema": "vcategory/1", "quantale": "bool", "states": states,
        "matrix": [["1" if s == t else "0" for t in states] for s in states],
    })
    result = runner.invoke(main, ["cantor", "--category", path])
    assert result.exit_code == 3, result.exception
    assert result.stdout == ""
    assert json.loads(result.stderr) == {
        "schema": "report/1",
        "error": "candidate maps from the lifted object: size 12^4096 exceeds cap 20000"}


def _phi_on_all_subsets(states, value):
    return {",".join(sorted(a)): value
            for k in range(len(states) + 1) for a in itertools.combinations(states, k)}


@pytest.mark.parametrize("phi, message", [
    ({}, "phi keys do not match the lifted carrier"),
    (_phi_on_all_subsets([f"s{i}" for i in range(12)], "nope"),
     'phi value "nope" is not a state id'),
], ids=["no keys", "unknown value"])
def test_cantor_checks_phi_before_building_the_lifted_object(runner, tmp_path, monkeypatch,
                                                             phi, message):
    """Every subset of 12 discrete states is increasing, so the lifted
    object would hold 4096 x 4096 cells; phi is refused against the subset
    enumeration alone."""
    from quantcat import cli

    def refuse(*args, **kwargs):
        raise AssertionError("the lifted object was built")

    monkeypatch.setattr(cli, "hausdorff_object", refuse)
    states = [f"s{i}" for i in range(12)]
    path = _write(tmp_path, "d12.json", {
        "schema": "vcategory/1", "quantale": "bool", "states": states,
        "matrix": [["1" if s == t else "0" for t in states] for s in states],
    })
    result = runner.invoke(main, ["cantor", "--category", path, "--phi", json.dumps(phi)])
    assert result.exit_code == 2, result.exception
    assert result.stdout == ""
    assert json.loads(result.stderr) == {"schema": "report/1", "error": message}


def test_omega_verify(runner):
    result = runner.invoke(main, ["omega-verify", "--depth", "6"])
    assert result.exit_code == 0
    rep = json.loads(result.output)
    assert rep["ok"] is True
    assert all(e["passed"] for e in rep["laws"])


def test_ana_command(runner, hcoalg_file):
    result = runner.invoke(main, ["ana", "--coalgebra", hcoalg_file])
    assert result.exit_code == 0
    rep = json.loads(result.output)
    assert rep["behavior"] == {"a": "1", "b": "0", "c": "inf"}


def test_selfcheck_deterministic(runner):
    args = ["selfcheck", "--seed", "42", "--cases", "8"]
    first = runner.invoke(main, args)
    second = runner.invoke(main, args)
    assert first.exit_code == 0
    assert first.output == second.output
    rep = json.loads(first.output)
    assert rep["ok"] is True
    assert [s["suite"] for s in rep["suites"]] == [
        "construction-laws", "monad-laws", "hausdorff-identities",
        "closure-laws", "initiality-preservation", "lax-extension-axioms",
    ]


def test_report_shape_and_version(runner, c2_file):
    rep = json.loads(runner.invoke(main, ["check", c2_file]).output)
    assert list(rep)[:4] == ["schema", "tool", "version", "command"]
    assert rep["schema"] == "report/1"


def _swap_with_cone(**changes):
    leg = {"coalgebra": {"schema": "coalgebra/1", "functor": {"id": {}},
                         "category": {"schema": "vcategory/1", "quantale": "bool",
                                      "states": ["p"], "matrix": [["1"]]},
                         "structure": {"p": "p"}},
           "mapping": {"a": "p", "b": "p"}}
    leg.update(changes)
    return {"schema": "setcoalgebra/1", "functor": {"id": {}}, "quantale": "bool",
            "states": ["a", "b"], "structure": {"a": "b", "b": "a"}, "cone": [leg]}


def test_lift_with_a_cone(runner, tmp_path):
    path = _write(tmp_path, "cone.json", _swap_with_cone())
    result = runner.invoke(main, ["lift", "--file", path])
    assert result.exit_code == 0, result.output
    assert json.loads(result.output)["matrix"] == [["1", "1"], ["1", "1"]]


def _pqr_coalgebra(matrix, structure):
    return {"schema": "coalgebra/1", "functor": {"id": {}},
            "category": {"schema": "vcategory/1", "quantale": "bool",
                         "states": ["p", "q", "r"], "matrix": matrix},
            "structure": structure}


MALFORMED_LIFTS = {
    "top-level array": ([], "set coalgebra must be a JSON object"),
    "scalar cone": ({**_swap_with_cone(), "cone": 5}, "cone must be a JSON array"),
    "array mapping": (_swap_with_cone(mapping=["p", "p"]),
                      "cone leg mapping must be a JSON object"),
    "mapping misses a state": (_swap_with_cone(mapping={"a": "p"}),
                               "cone leg mapping misses states ['b']"),
    "mapping to an unknown state": (_swap_with_cone(mapping={"a": "p", "b": "q"}),
                                    "cone leg maps to states its coalgebra lacks: ['q']"),
    # p -> q -> r without p -> r: the pulled-back matrix would not be transitive
    "carrier not transitive": (
        _swap_with_cone(coalgebra=_pqr_coalgebra(
            [["1", "1", "0"], ["0", "1", "1"], ["0", "0", "1"]], {"p": "p", "q": "q", "r": "r"})),
        "cone leg 0 carrier: not a V-category (transitive, witness ('p', 'q', 'r'))"),
    # p <= q, but the structure map sends p to r and q to q
    "structure not a V-functor": (
        _swap_with_cone(coalgebra=_pqr_coalgebra(
            [["1", "1", "0"], ["0", "1", "0"], ["0", "0", "1"]], {"p": "r", "q": "q", "r": "r"})),
        "cone leg 0: not a coalgebra (structure-morphism, witness ('p', 'q'))"),
    # under H(H(Id)) the leg's terms cannot be up-closed in a carrier that
    # is not transitive, so the carrier is checked first
    "carrier not transitive under nested H": (
        {"schema": "setcoalgebra/1", "functor": {"H": {"H": {"id": {}}}}, "quantale": "bool",
         "states": ["p"], "structure": {"p": []},
         "cone": [{"mapping": {"p": "q"}, "coalgebra": {
             **_pqr_coalgebra([["1", "1", "0"], ["0", "1", "1"], ["0", "0", "1"]],
                              {"p": [["p"]], "q": [], "r": []}),
             "functor": {"H": {"H": {"id": {}}}}}}]},
        "cone leg 0 carrier: not a V-category (transitive, witness ('p', 'q', 'r'))"),
    # both sides map every state to the empty set, so only the functors differ
    "leg over another functor": (
        {"schema": "setcoalgebra/1", "functor": {"H": {"id": {}}}, "quantale": "bool",
         "states": ["p", "q"], "structure": {"p": [], "q": []},
         "cone": [{"mapping": {"p": "u", "q": "u"}, "coalgebra": {
             "schema": "coalgebra/1", "functor": {"H": {"H": {"id": {}}}},
             "category": {"schema": "vcategory/1", "quantale": "bool", "states": ["u"],
                          "matrix": [["1"]]},
             "structure": {"u": []}}}]},
        "cone leg 0 is a coalgebra over H(H(Id)), not H(Id)"),
}


@pytest.mark.parametrize("name", sorted(MALFORMED_LIFTS))
def test_lift_rejects_a_malformed_cone(runner, tmp_path, name):
    spec, message = MALFORMED_LIFTS[name]
    result = runner.invoke(main, ["lift", "--file", _write(tmp_path, "lift.json", spec)])
    assert result.exit_code == 2, result.exception
    assert result.stdout == ""
    assert json.loads(result.stderr) == {"schema": "report/1", "error": message}


_POINT = {"schema": "vcategory/1", "quantale": "bool", "states": ["p"], "matrix": [["1"]]}
_TWO_IDS = [{"id": {}}, {"id": {}}]

# functor, the one state's structure term, the loader's error
BAD_TERMS = {
    "unknown state": ({"id": {}}, "z", "unknown state 'z'"),
    "array state": ({"id": {}}, ["a"], "unknown state ['a']"),
    "unknown constant point": ({"const": _POINT}, "z", "unknown constant point 'z'"),
    "product arity": ({"prod": _TWO_IDS}, ["a"], "product term arity mismatch"),
    "scalar sum term": ({"sum": _TWO_IDS}, "a", "sum term must be a JSON object"),
    "sum term without term": ({"sum": _TWO_IDS}, {"branch": 0},
                              "sum term missing fields ['term']"),
    "sum term with extra field": ({"sum": _TWO_IDS}, {"branch": 0, "term": "a", "x": 1},
                                  "sum term has unknown fields ['x']"),
    "sum branch out of range": ({"sum": _TWO_IDS}, {"branch": 2, "term": "a"},
                                "bad sum branch 2"),
    "boolean sum branch": ({"sum": _TWO_IDS}, {"branch": True, "term": "a"},
                           "bad sum branch True"),
    "scalar set term": ({"H": {"id": {}}}, "a", "set term must be a JSON array"),
}


@pytest.mark.parametrize("name", sorted(BAD_TERMS))
@pytest.mark.parametrize("command", ["check", "lift"])
def test_a_bad_term_is_bad_input(runner, tmp_path, command, name):
    functor, term, message = BAD_TERMS[name]
    if command == "check":
        spec = {"schema": "coalgebra/1", "functor": functor,
                "category": _bool_category(["a"], [["1"]]), "structure": {"a": term}}
        args = ["check"]
    else:
        spec = {"schema": "setcoalgebra/1", "functor": functor, "quantale": "bool",
                "states": ["a"], "structure": {"a": term}}
        args = ["lift", "--file"]
    result = runner.invoke(main, args + [_write(tmp_path, "term.json", spec)])
    assert result.exit_code == 2, result.exception
    assert result.stdout == ""
    assert json.loads(result.stderr) == {"schema": "report/1", "error": message}


def _set_coalgebra(states, structure=None):
    return {"schema": "setcoalgebra/1", "functor": {"id": {}}, "quantale": "bool",
            "states": states, "structure": {"b": "b"} if structure is None else structure}


MALFORMED_SET_COALGEBRAS = {
    "scalar states": (_set_coalgebra(5), "states must be a JSON array"),
    "array state": (_set_coalgebra([["a"], "b"]),
                    'state ["a"] is not a string, number or null'),
    "object state": (_set_coalgebra([{"a": 1}, "b"]),
                     'state {"a": 1} is not a string, number or null'),
    "array structure": (_set_coalgebra(["b"], [["b"]]), "structure must be a JSON object"),
    # the states are checked before the terms are looked up in them
    "duplicate state": (_set_coalgebra(["b", "b"], {"b": "z"}), "duplicate state ids"),
}


@pytest.mark.parametrize("name", sorted(MALFORMED_SET_COALGEBRAS))
def test_lift_rejects_malformed_states(runner, tmp_path, name):
    spec, message = MALFORMED_SET_COALGEBRAS[name]
    result = runner.invoke(main, ["lift", "--file", _write(tmp_path, "lift.json", spec)])
    assert result.exit_code == 2, result.exception
    assert result.stdout == ""
    assert json.loads(result.stderr) == {"schema": "report/1", "error": message}


def _bool_category(states, matrix):
    return {"schema": "vcategory/1", "quantale": "bool", "states": states, "matrix": matrix}


MALFORMED_CATEGORIES = {
    "scalar states": _bool_category(5, [["1"]]),
    "string states": _bool_category("ab", [["1", "0"], ["0", "1"]]),
    "scalar matrix": _bool_category(["a"], 5),
    "scalar row": _bool_category(["a", "b"], [["1", "0"], 5]),
}


@pytest.mark.parametrize("name", sorted(MALFORMED_CATEGORIES))
def test_check_rejects_a_malformed_category(runner, tmp_path, name):
    path = _write(tmp_path, "cat.json", MALFORMED_CATEGORIES[name])
    result = runner.invoke(main, ["check", path])
    assert result.exit_code == 2, result.exception
    assert result.stdout == ""
    assert json.loads(result.stderr) == {
        "schema": "report/1",
        "error": "states and matrix must be JSON arrays, and each matrix row an array"}


@pytest.mark.parametrize("structure", [5, ["a"]], ids=["scalar", "array"])
@pytest.mark.parametrize("command", [["check"], ["behave", "--depth", "1", "--coalgebra"]],
                         ids=["check", "behave"])
def test_coalgebra_structure_must_be_an_object(runner, tmp_path, command, structure):
    spec = {"schema": "coalgebra/1", "functor": {"H": {"id": {}}},
            "category": _bool_category(["a"], [["1"]]), "structure": structure}
    result = runner.invoke(main, command + [_write(tmp_path, "coalg.json", spec)])
    assert result.exit_code == 2, result.exception
    assert result.stdout == ""
    assert json.loads(result.stderr) == {"schema": "report/1",
                                         "error": "structure must be a JSON object"}


@pytest.mark.parametrize("args, message", [
    (["selfcheck", "--cases", "-1"], "case count -1 is negative"),
    (["omega-verify", "--depth", "-1"], "depth -1 is negative"),
])
def test_negative_counts_are_bad_input(runner, args, message):
    result = runner.invoke(main, args)
    assert result.exit_code == 2, result.exception
    assert result.stdout == ""
    assert json.loads(result.stderr) == {"schema": "report/1", "error": message}


@pytest.mark.parametrize("command", ["chain", "cantor"])
def test_a_negative_cap_is_bad_input(runner, c2_file, command):
    args = {"chain": ["--depth", "0"],
            "cantor": ["--category", c2_file]}[command]
    result = runner.invoke(main, [command, *args, "--cap", "-1"])
    assert result.exit_code == 2, result.exception
    assert result.stdout == ""
    assert json.loads(result.stderr) == {"schema": "report/1", "error": "--cap -1 is negative"}


COMMANDS = ["check", "hausdorff", "chain", "behave", "equalize", "lift", "cantor",
            "omega-verify", "ana", "selfcheck"]


@pytest.mark.parametrize("args", [["--help"], ["--version"]]
                         + [[command, "--help"] for command in COMMANDS])
def test_help_and_version_exit_0(runner, args):
    result = runner.invoke(main, args)
    assert result.exit_code == 0
    assert result.stderr == ""
    assert result.stdout


def test_version_names_the_package_version(runner):
    assert runner.invoke(main, ["--version"]).stdout == f"quantcat, version {quantcat.__version__}\n"


@pytest.mark.parametrize("args", [
    [],
    ["nope"],
    ["-h"],
    ["chain"],
    ["behave", "--coalgebra", "c.json"],
    ["chain", "--depth", "x"],
    ["chain", "--dep", "3"],
    ["omega-verify", "--format", "xml"],
    ["chain", "--depth", "2", "--format", "xml"],
])
def test_usage_errors_exit_2(runner, args):
    result = runner.invoke(main, args)
    assert result.exit_code == 2
    assert isinstance(result.exception, SystemExit)
    assert result.stdout == ""
    assert result.stderr.startswith("usage: quantcat")


def test_console_entry_reads_sys_argv(monkeypatch, capsys):
    monkeypatch.setattr(sys, "argv", ["quantcat", "chain", "--depth", "2"])
    with pytest.raises(SystemExit) as exit_info:
        main()
    assert exit_info.value.code == 0
    assert json.loads(capsys.readouterr().out)["sizes"] == [1, 2, 3]


def test_import_loads_no_click_dataclasses_or_suites():
    """Start-up pays only for what every command uses: the CLI is stdlib
    argparse, the value classes are plain, the law suites are imported by
    ``selfcheck`` alone, and nothing loads a process-pool module."""
    proc = _fresh_python("import sys, quantcat.cli; print([m for m in "
                         "('click', 'dataclasses', 'quantcat.suites', 'multiprocessing', "
                         "'concurrent.futures') if m in sys.modules])")
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "[]\n"


def test_import_builds_no_quantale():
    """The built-ins are built on their first use, not at import."""
    proc = _fresh_python("import quantcat.cli, quantcat.quantale as q; "
                         "print(q._builtin.cache_info().currsize)")
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "0\n"


def _fresh_python(code):
    env = {**os.environ, "PYTHONDONTWRITEBYTECODE": "1",
           "PYTHONPATH": str(Path(quantcat.__file__).resolve().parents[1])}
    return subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          env=env, timeout=60)


# -- the exit-code contract: 0 ok, 1 a law failed, 2 bad input, 3 a cap hit;
# no input prints a traceback

def _coalgebra_with_functor(functor):
    return {"schema": "coalgebra/1", "functor": functor,
            "category": _bool_category(["a"], [["1"]]), "structure": {"a": []}}


def _lawvere_point(value):
    return {"schema": "vcategory/1", "quantale": "lawvere", "states": ["a"],
            "matrix": [[value]]}


_CHAIN2 = _bool_category(["u", "v"], [["1", "1"], ["0", "1"]])


def _nested_h(depth):
    functor = {"id": {}}
    for _ in range(depth):
        functor = {"H": functor}
    return functor


# p -> q -> r with no p -> r: not transitive
_NOT_TRANSITIVE = _bool_category(["p", "q", "r"], [["1", "1", "0"], ["0", "1", "1"],
                                                  ["0", "0", "1"]])


def _chain_table(n):
    """An inline quantale/1 chain of n elements with min as its tensor."""
    els = [str(i) for i in range(n)]
    return {"schema": "quantale/1", "elements": els,
            "leq": [[int(i <= j) for j in range(n)] for i in range(n)],
            "tensor": [[els[min(i, j)] for j in range(n)] for i in range(n)],
            "unit": els[-1]}


# name -> (CLI arguments, "@name" being the file that holds FILES[name]; error)
FILES = {
    "chain2": _CHAIN2,
    "list_state": _bool_category([["a"], "b"], [["1", "0"], ["0", "1"]]),
    "no_category": {"schema": "coalgebra/1", "functor": {"H": {"id": {}}},
                    "structure": {"a": []}},
    "prod_int": _coalgebra_with_functor({"prod": 5}),
    "prod_null": _coalgebra_with_functor({"prod": None}),
    "null_tensor": {"schema": "quantale/1", "elements": ["0", "1"], "leq": [[1, 1], [0, 1]],
                    "tensor": [["0", None], ["0", "1"]], "unit": "1"},
    "lawvere_null": _lawvere_point(None),
    "lawvere_array": _lawvere_point(["0"]),
    "lawvere_object": _lawvere_point({"a": "0"}),
    "lawvere_true": _lawvere_point(True),
    "lawvere_float": _lawvere_point(0.1),
    "deep_arrays": b"[" * 100_000 + b"]" * 100_000,
    "deep_h": _coalgebra_with_functor(_nested_h(600)),
    "bad_const": {"schema": "coalgebra/1",
                  "functor": {"prod": [{"const": _NOT_TRANSITIVE}, {"id": {}}]},
                  "category": _bool_category(["a"], [["1"]]), "structure": {"a": ["p", "a"]}},
    "long_table": _chain_table(140),
    "comma_ids": _bool_category(["a", "b", "a,b"], [["1", "0", "0"], ["0", "1", "0"],
                                                    ["0", "0", "1"]]),
    "numeric_ids": {"schema": "coalgebra/1", "functor": {"H": {"id": {}}},
                    "category": _bool_category([0, 1], [["1", "0"], ["0", "1"]]),
                    "structure": {"0": [], "1": ["0"]}},
    "two_states": {"schema": "coalgebra/1", "functor": {"H": {"id": {}}},
                   "category": _bool_category(["a", "b"], [["1", "0"], ["0", "1"]]),
                   "structure": {"a": [], "b": []}},
    "quantale_v2": {**_bool_category(["a"], [["1"]]),
                    "quantale": {**_chain_table(2), "schema": "quantale/2"}},
    "duplicate_elements": {**_bool_category(["a"], [["1"]]), "quantale": {
        "schema": "quantale/1", "elements": ["0", "0"], "leq": [[1, 1], [0, 1]],
        "tensor": [["0", "0"], ["0", "0"]], "unit": "0"}},
    "set_coalgebra_v2": {**_set_coalgebra(["b"]), "schema": "setcoalgebra/2"},
}
BAD_INPUTS = {
    # the five malformed calls of the session benchmark
    "functor not JSON": (["chain", "--functor", "{bad", "--depth", "2"],
                         "--functor:1:2: Expecting property name enclosed in double quotes"),
    "phi not JSON": (["cantor", "--category", "@chain2", "--phi", "nope"],
                     "--phi:1:1: Expecting value"),
    "negative chain depth": (["chain", "--depth", "-1"], "depth -1 is negative"),
    "list-valued state": (["check", "@list_state"],
                          'state ["a"] is not a string, number or null'),
    "coalgebra without category": (["behave", "--coalgebra", "@no_category", "--depth", "1"],
                                   "coalgebra missing fields ['category']"),
    # bodies of prod and sum nodes are arrays
    "prod body an int": (["check", "@prod_int"], "prod node body must be a JSON array"),
    "prod body null": (["check", "@prod_null"], "prod node body must be a JSON array"),
    "inline sum body an int": (["chain", "--functor", '{"sum": 3}', "--depth", "1"],
                               "sum node body must be a JSON array"),
    # a JSON null is no element id, state id or rational
    "null tensor value": (["check", "@null_tensor"], "tensor value null is not an element id"),
    "null phi value": (["cantor", "--category", "@chain2",
                        "--phi", '{"": null, "v": "v", "u,v": "u"}'],
                       "phi value null is not a state id"),
    # a phi key joins a subset's states with commas, so {a, b} and {"a,b"}
    # both give "a,b": the seven distinct keys cannot name eight subsets
    "ambiguous phi key": (["cantor", "--category", "@comma_ids", "--phi", json.dumps(
        dict.fromkeys(["", "a", "b", "a,b", "a,a,b", "a,b,b", "a,a,b,b"], "a"))],
                          "phi keys are ambiguous: two subsets join to one key"),
    "null Lawvere value": (["check", "@lawvere_null"], "bad rational None"),
    "array Lawvere value": (["check", "@lawvere_array"], "bad rational ['0']"),
    "object Lawvere value": (["check", "@lawvere_object"], "bad rational {'a': '0'}"),
    # a JSON boolean is no number, and a JSON float is inexact
    "boolean Lawvere value": (["check", "@lawvere_true"], "bad rational True"),
    "float Lawvere value": (["check", "@lawvere_float"],
                            'bad rational 0.1: a JSON float is inexact, so give the '
                            'rational as a string such as "1/10"'),
    # a built-in chain past the length bound is refused before it is built
    "chain past the length bound": (["chain", "--quantale", "godel:50000", "--depth", "1"],
                                    "chain of 50000 elements is over the bound of 128"),
    # so is an inline table past that bound
    "inline table past the length bound": (["check", "@long_table"],
                                           "quantale of 140 elements is over the bound of 128"),
    # an "@name" in the error stands for the path of that file
    "deeply nested arrays": (["check", "@deep_arrays"],
                             "@deep_arrays: JSON nests too deeply to decode"),
    "deeply nested functor": (["chain", "--functor", "[" * 100_000 + "]" * 100_000,
                                "--depth", "1"],
                              "--functor: JSON nests too deeply to decode"),
    # a functor nested past the depth bound is refused before it is read
    "functor nested past the bound": (["chain", "--functor", json.dumps(_nested_h(600)),
                                       "--depth", "1"],
                                      "functor nests 601 nodes deep, over the bound of 64"),
    "coalgebra functor nested past the bound": (
        ["check", "@deep_h"], "functor nests 601 nodes deep, over the bound of 64"),
    # a constant leaf must be a V-category
    "constant not transitive": (["check", "@bad_const"],
                                "functor.prod[0].const: not a V-category "
                                "(transitive, witness ('p', 'q', 'r'))"),
    # structure keys are JSON strings
    "numeric coalgebra state ids": (["behave", "--coalgebra", "@numeric_ids", "--depth", "1"],
                                    "structure keys are JSON strings, so coalgebra/1 needs "
                                    "string state ids, not 0"),
    # a map entry names its source and its target, and the map covers the source
    "map entry without target": (["equalize", "--coalgebra", "@two_states", "--target",
                                  "@two_states", "--left", "a", "--right", "a=a,b=b"],
                                 "bad map entry 'a', expected src=tgt"),
    "map that misses a state": (["equalize", "--coalgebra", "@two_states", "--target",
                                 "@two_states", "--left", "a=a", "--right", "a=a,b=b"],
                                "map does not cover the source carrier"),
    "chain of no elements": (["chain", "--quantale", "godel:0", "--depth", "1"],
                             "chain needs at least one element"),
    "chain length not a number": (["chain", "--quantale", "godel:x", "--depth", "1"],
                                  "bad chain length in 'godel:x'"),
    "inline quantale of another schema": (["check", "@quantale_v2"],
                                          "unsupported quantale schema 'quantale/2'"),
    "inline quantale with a repeated element": (["check", "@duplicate_elements"],
                                                "duplicate element ids"),
    "id node with a body": (["chain", "--functor", '{"id": {"x": 1}}', "--depth", "1"],
                            "id node takes no body"),
    "set coalgebra of another schema": (["lift", "--file", "@set_coalgebra_v2"],
                                        "unsupported schema 'setcoalgebra/2'"),
}


@pytest.mark.parametrize("name", sorted(BAD_INPUTS))
def test_bad_input_exits_2_with_a_report_error(runner, tmp_path, name):
    args, message = BAD_INPUTS[name]
    paths = {a: _write(tmp_path, f"{a[1:]}.json", FILES[a[1:]]) for a in args if a.startswith("@")}
    for ref, path in paths.items():
        message = message.replace(ref, path)
    result = runner.invoke(main, [paths.get(a, a) for a in args])
    assert result.exit_code == 2, result.exception
    assert isinstance(result.exception, SystemExit)
    assert "Traceback" not in result.stderr
    assert result.stdout == ""
    assert json.loads(result.stderr) == {"schema": "report/1", "error": message}


@pytest.mark.parametrize("command", ["behave", "equalize", "ana"])
def test_each_coalgebra_file_is_parsed_and_checked_once(runner, tmp_path, monkeypatch,
                                                        command):
    """The carrier is loaded once, and its V-category laws checked once,
    before the terms are up-closed in it."""
    from quantcat import coalg, descriptors, vcat

    calls = {"load": 0, "check": 0}

    def counted(kind, fn):
        def wrapper(*args):
            calls[kind] += 1
            return fn(*args)
        return wrapper

    monkeypatch.setattr(descriptors, "load_vcategory",
                        counted("load", descriptors.load_vcategory))
    check = counted("check", vcat.check_vcategory)
    monkeypatch.setattr(vcat, "check_vcategory", check)
    monkeypatch.setattr(coalg, "check_vcategory", check)
    src = _write(tmp_path, "src.json", {
        "schema": "coalgebra/1", "functor": {"H": {"id": {}}},
        "category": _bool_category(["x", "y"], [["1", "0"], ["0", "1"]]),
        "structure": {"x": ["x"], "y": ["x"]}})
    args = {"behave": ["behave", "--coalgebra", src, "--depth", "2"],
            "equalize": ["equalize", "--coalgebra", src, "--target", src,
                         "--left", "x=x,y=y", "--right", "x=x,y=x"],
            "ana": ["ana", "--coalgebra", src]}[command]
    result = runner.invoke(main, args)
    assert result.exit_code == 0, result.exception
    files = 2 if command == "equalize" else 1
    assert calls == {"load": files, "check": files}


_SCALARS = (st.none() | st.booleans() | st.integers(-2, 2) | st.floats()
            | st.sampled_from(["", "a", "u", "0", "1", "inf", "H", "bool", "lawvere",
                               "vcategory/1", "coalgebra/1", "quantale/1"]))
_KEYS = st.sampled_from(["schema", "id", "H", "prod", "sum", "const", "states", "matrix",
                         "quantale", "category", "functor", "structure", "branch", "term",
                         "cone", "mapping", "coalgebra", "a"])
_JSON = st.recursive(_SCALARS, lambda inner: (st.lists(inner, max_size=3)
                                              | st.dictionaries(_KEYS, inner, max_size=3)),
                     max_leaves=6)
# argparse reads a value such as -Infinity as an option, a usage error
_TEXT = (st.sampled_from(["H", "{bad", "nope", "", "[]", '{"id": {}}', '{"prod": 5}',
                          '{"H": {"H": {"id": {}}}}', '{"": "c0"}'])
         | _JSON.map(json.dumps).filter(lambda text: not text.startswith("-")))
_OPTIONS = {"--depth": st.integers(-2, 3).map(str), "--cap": st.integers(-1, 30).map(str),
            "--functor": _TEXT, "--phi": _TEXT}
# (functor, depth): H nested around id on both sides of the functor depth
# bound at depth 0 or 1, and up to 20 deep at depth 2, where a level holds
# up to 41 states
_DEEP_H = (st.tuples(st.sampled_from([63, 64, 65, 600]), st.sampled_from(["0", "1"]))
           | st.tuples(st.integers(2, 20), st.just("2"))).map(
    lambda pair: (json.dumps(_nested_h(pair[0])), pair[1]))
_BAD_CONST = json.dumps({"prod": [{"const": _NOT_TRANSITIVE}, {"H": {"id": {}}}]})
# the JSON reports of the golden cases, less the seeded sweep
_FUZZ_CASES = sorted(name for name, args in GOLDEN_CASES.items()
                     if name.endswith(".json") and args[0] != "selfcheck")


_DELETE = object()


def _numeric_ids(doc):
    """A coalgebra/1 document with each state id replaced by its position."""
    states = doc["category"]["states"]
    return dict(doc, category=dict(doc["category"], states=list(range(len(states)))),
                structure={str(states.index(s)): t for s, t in doc["structure"].items()})


def _with_bad_const(doc):
    """A coalgebra/1 document whose functor pairs a non-transitive constant
    with its own."""
    return dict(doc, functor={"prod": [{"const": _NOT_TRANSITIVE}, doc["functor"]]})


def _paths(doc, prefix=()):
    yield prefix
    if isinstance(doc, (dict, list)):
        for key, value in doc.items() if isinstance(doc, dict) else enumerate(doc):
            yield from _paths(value, prefix + (key,))


def _mutated(doc, path, value):
    """``doc`` with the node at ``path`` replaced by ``value``, or deleted
    when ``value`` is _DELETE."""
    if not path:
        return value
    doc = json.loads(json.dumps(doc))
    parent = doc
    for key in path[:-1]:
        parent = parent[key]
    if value is _DELETE:
        del parent[path[-1]]
    else:
        parent[path[-1]] = value
    return doc


@settings(max_examples=400, derandomize=True, deadline=None, database=None,
          suppress_health_check=list(HealthCheck))
@given(st.data())
def test_every_input_keeps_the_exit_code_contract(tmp_path_factory, data):
    """Mutate a golden input and the option values of its case: the exit
    code is 0 to 3, a refusal comes with a report/1 error, a failed law
    with "ok": false, and nothing raises."""
    args = list(GOLDEN_CASES[data.draw(st.sampled_from(_FUZZ_CASES))])
    if args[0] == "cantor" and data.draw(st.booleans()):
        args += ["--phi", "{}"]
    work = tmp_path_factory.mktemp("fuzz")
    for i, arg in enumerate(args):
        if arg in _OPTIONS and data.draw(st.booleans()):
            args[i + 1] = data.draw(_OPTIONS[arg])
        elif arg.startswith("@"):
            doc = GOLDEN_INPUTS[arg[1:]]
            if isinstance(doc, dict) and doc.get("schema") == "coalgebra/1" \
                    and data.draw(st.booleans()):
                doc = data.draw(st.sampled_from([_numeric_ids, _with_bad_const]))(doc)
            if data.draw(st.booleans()):
                path = data.draw(st.sampled_from(list(_paths(doc))))
                doc = _mutated(doc, path, data.draw(_JSON | st.just(_DELETE)) if path
                               else data.draw(_JSON))
            args[i] = _write(work, f"{arg[1:]}.json", doc)
    if "--functor" in args and data.draw(st.booleans()):
        functor, depth = data.draw(
            _DEEP_H | st.tuples(st.just(_BAD_CONST), st.sampled_from(["0", "1", "2"])))
        args[args.index("--functor") + 1] = functor
        args[args.index("--depth") + 1] = depth
    result = CliRunner().invoke(main, args)
    assert isinstance(result.exception, (SystemExit, type(None))), result.exception
    assert result.exit_code in (0, 1, 2, 3)
    if result.exit_code in (2, 3):
        assert result.stdout == ""
        err = json.loads(result.stderr)
        assert err["schema"] == "report/1" and err["error"]
    else:
        assert json.loads(result.stdout)["ok"] is (result.exit_code == 0)
