"""Byte-for-byte golden reports of the commands that check quantales and
coalgebras, read distance tables, lifted distances, chain levels (among
them a two-point labelled chain), equalizers, initial lifts (one of them
along a one-leg cone), Cantor sweeps and anamorphisms, verify the
truncation cone, and run the seeded law sweeps.

The inputs are defined here; each report is compared with its file under
``tests/golden/``.  Rewrite those files only when a report is meant to
change:

    PYTHONPATH=src python3 tests/test_golden.py
"""

import json
import os
import sys
import tempfile
from pathlib import Path

import pytest

from conftest import CliRunner
from quantcat.cli import main

GOLDEN = Path(__file__).resolve().parent / "golden"


def _discrete(quantale, unit, bottom, states):
    return {"schema": "vcategory/1", "quantale": quantale, "states": states,
            "matrix": [[unit if i == j else bottom for j in range(len(states))]
                       for i in range(len(states))]}


INPUTS = {
    "hcoalg": {
        "schema": "coalgebra/1",
        "functor": {"H": {"id": {}}},
        "category": _discrete("bool", "1", "0", ["a", "b", "c"]),
        "structure": {"a": ["b"], "b": [], "c": ["c"]},
    },
    "lawvere": {
        "schema": "coalgebra/1",
        "functor": {"prod": [{"const": {"schema": "vcategory/1", "quantale": "lawvere",
                                        "states": ["0", "1"],
                                        "matrix": [["0", "1"], ["1", "0"]]}},
                             {"H": {"id": {}}}]},
        "category": _discrete("lawvere", "0", "inf", ["x0", "x1", "x2", "x3"]),
        "structure": {"x0": ["0", ["x1"]], "x1": ["1", ["x2", "x3"]],
                      "x2": ["0", []], "x3": ["1", ["x3"]]},
    },
    "eqsrc": {
        "schema": "coalgebra/1",
        "functor": {"H": {"id": {}}},
        "category": _discrete("bool", "1", "0", ["x", "y", "z"]),
        "structure": {"x": ["x"], "y": ["z"], "z": ["z"]},
    },
    "eqtgt": {
        "schema": "coalgebra/1",
        "functor": {"H": {"id": {}}},
        "category": {"schema": "vcategory/1", "quantale": "bool", "states": ["p", "q"],
                     "matrix": [["1", "1"], ["1", "1"]]},
        "structure": {"p": ["p", "q"], "q": ["p", "q"]},
    },
    "swap": {
        "schema": "setcoalgebra/1",
        "functor": {"id": {}},
        "quantale": "bool",
        "states": ["a", "b"],
        "structure": {"a": "b", "b": "a"},
    },
    "labels": {
        "schema": "setcoalgebra/1",
        "functor": {"prod": [{"const": {"schema": "vcategory/1", "quantale": "bool",
                                        "states": ["l0", "l1"],
                                        "matrix": [["1", "1"], ["0", "1"]]}},
                             {"id": {}}]},
        "quantale": "bool",
        "states": ["s0", "s1"],
        "structure": {"s0": ["l0", "s1"], "s1": ["l1", "s1"]},
    },
    # a lawful leg into z <= y with x -> {y, z}: c and d both map to z, so
    # the lift relates them both ways, and a stays unrelated to b
    "conelift": {
        "schema": "setcoalgebra/1",
        "functor": {"H": {"id": {}}},
        "quantale": "bool",
        "states": ["a", "b", "c", "d"],
        "structure": {"a": ["b", "c"], "b": [], "c": ["c"], "d": ["b", "d"]},
        "cone": [{
            "mapping": {"a": "x", "b": "y", "c": "z", "d": "z"},
            "coalgebra": {
                "schema": "coalgebra/1",
                "functor": {"H": {"id": {}}},
                "category": {"schema": "vcategory/1", "quantale": "bool",
                             "states": ["x", "y", "z"],
                             "matrix": [["1", "0", "0"], ["0", "1", "0"], ["0", "1", "1"]]},
                "structure": {"x": ["y", "z"], "y": [], "z": ["y", "z"]},
            },
        }],
    },
    # the term [0] is not up-closed in the constant chain 0 <= 1 <= 2; it is
    # loaded as its up-closure {0, 1, 2}, which lies in the functor.  (With
    # 0 -> 1 -> 2 and no 0 -> 2, the constant is not a V-category, and the
    # file is refused as bad input.)
    "notclosed": {
        "schema": "coalgebra/1",
        "functor": {"prod": [{"H": {"const": {"schema": "vcategory/1", "quantale": "bool",
                                              "states": [0, 1, 2],
                                              "matrix": [["1", "1", "1"], ["0", "1", "1"],
                                                         ["0", "0", "1"]]}}},
                             {"id": {}}]},
        "category": _discrete("bool", "1", "0", ["a", "b"]),
        "structure": {"a": [[], "b"], "b": [[0], "a"]},
    },
    # the chain c0 <= c1 <= c2: four increasing subsets, 81 candidate maps
    "boolchain": {
        "schema": "vcategory/1", "quantale": "bool", "states": ["c0", "c1", "c2"],
        "matrix": [["1", "1", "1"], ["0", "1", "1"], ["0", "0", "1"]],
    },
    # m below both l and r, over godel:3: five increasing subsets, 243 maps
    "vshape": {
        "schema": "vcategory/1", "quantale": "godel:3", "states": ["l", "m", "r"],
        "matrix": [["1", "0", "0"], ["1", "1", "1"], ["0", "0", "1"]],
    },
    # the Lawvere line on the points 0, 1 and 3, with |x - y| distances
    "line013": {
        "schema": "vcategory/1", "quantale": "lawvere", "states": ["0", "1", "3"],
        "matrix": [["0", "1", "3"], ["1", "0", "2"], ["3", "2", "0"]],
    },
    # a(x, y) is top, but x has no successor while y has one
    "notmorphism": {
        "schema": "coalgebra/1",
        "functor": {"H": {"id": {}}},
        "category": {"schema": "vcategory/1", "quantale": "bool", "states": ["x", "y"],
                     "matrix": [["1", "1"], ["0", "1"]]},
        "structure": {"x": [], "y": ["y"]},
    },
}


def _quantale(elements, below, tensor, unit):
    """An inline quantale descriptor: ``below(u, v)`` is the order and
    ``tensor(u, v)`` the product, both read on the listed ids."""
    return {"schema": "quantale/1", "elements": elements,
            "leq": [[1 if below(u, v) else 0 for v in elements] for u in elements],
            "tensor": [[tensor(u, v) for v in elements] for u in elements],
            "unit": unit}


# the chain b < x < y < t, listed out of order; x (x) y = y (x) y = x and
# x (x) x = b, so (x (x) y) (x) y = x but x (x) (y (x) y) = b
_RANK = {"b": 0, "x": 1, "y": 2, "t": 3}
_PRODUCT = {("x", "x"): "b", ("x", "y"): "x", ("y", "y"): "x"}
INPUTS["shuffledchain"] = _quantale(
    ["y", "t", "b", "x"],
    lambda u, v: _RANK[u] <= _RANK[v],
    lambda u, v: (u if v == "t" else v if u == "t" else "b" if "b" in (u, v)
                  else _PRODUCT[min(u, v), max(u, v)]),
    "t")
# N5: bot < a < c < top and bot < b < top; the tensor is the meet
_N5 = {("bot", "a"), ("bot", "b"), ("bot", "c"), ("bot", "top"), ("a", "c"),
       ("a", "top"), ("b", "top"), ("c", "top")}
INPUTS["pentagon"] = _quantale(
    ["bot", "a", "b", "c", "top"],
    lambda u, v: u == v or (u, v) in _N5,
    lambda u, v: u if u == v or (u, v) in _N5 else v if (v, u) in _N5 else "bot",
    "top")
INPUTS["lukasiewicz4"] = "lukasiewicz:4"
INPUTS["godel5"] = "godel:5"

_POINT = {"const": _discrete("bool", "1", "0", ["l0"])}
_PROD_H = json.dumps({"prod": [_POINT, {"H": {"id": {}}}]})
_SUM_H = json.dumps({"sum": [_POINT, {"H": {"id": {}}}]})
# two discrete labels: levels of 1, 4 and 18 states
_PROD2_H = json.dumps({"prod": [{"const": _discrete("bool", "1", "0", ["a", "b"])},
                                {"H": {"id": {}}}]})

# golden file name -> CLI arguments; "@name" is the file holding INPUTS[name]
CASES = {
    "check_ok.json": ["check", "@hcoalg", "@lawvere"],
    "check_not_in_functor.json": ["check", "@notclosed"],
    "check_not_morphism.json": ["check", "@notmorphism"],
    "chain_prod_h_depth3.json": ["chain", "--functor", _PROD_H, "--depth", "3"],
    "chain_sum_h_depth3.json": ["chain", "--functor", _SUM_H, "--depth", "3"],
    "chain_prod2_h_depth2.json": ["chain", "--functor", _PROD2_H, "--depth", "2"],
    "behave_h.json": ["behave", "--coalgebra", "@hcoalg", "--depth", "3"],
    "behave_h.csv": ["behave", "--coalgebra", "@hcoalg", "--depth", "3", "--format", "csv"],
    "behave_h_symmetric.json": ["behave", "--coalgebra", "@hcoalg", "--depth", "3",
                                "--symmetric"],
    "behave_lawvere.json": ["behave", "--coalgebra", "@lawvere", "--depth", "2"],
    "behave_lawvere.csv": ["behave", "--coalgebra", "@lawvere", "--depth", "2",
                           "--format", "csv"],
    "behave_lawvere_symmetric.json": ["behave", "--coalgebra", "@lawvere", "--depth", "2",
                                      "--symmetric"],
    "chain_h_depth4.json": ["chain", "--functor", "H", "--quantale", "bool", "--depth", "4"],
    "chain_h_depth12.json": ["chain", "--functor", "H", "--quantale", "bool", "--depth", "12"],
    # the first witness of each kind depends on the order of the lifted elements
    "cantor_bool_chain.json": ["cantor", "--category", "@boolchain"],
    "cantor_godel_vshape.json": ["cantor", "--category", "@vshape"],
    "equalize.json": ["equalize", "--coalgebra", "@eqsrc", "--target", "@eqtgt",
                      "--left", "x=p,y=p,z=p", "--right", "x=p,y=p,z=q"],
    "lift_swap.json": ["lift", "--file", "@swap"],
    "lift_labels.json": ["lift", "--file", "@labels"],
    "lift_cone.json": ["lift", "--file", "@conelift"],
    "check_quantale_builtins.json": ["check", "@lukasiewicz4", "@godel5"],
    # the witnesses of a failed law depend on the order and tensor tables
    "check_quantale_shuffled_chain.json": ["check", "@shuffledchain"],
    "check_quantale_pentagon.json": ["check", "@pentagon"],
    "selfcheck_seed7.json": ["selfcheck", "--seed", "7", "--cases", "50"],
    "hausdorff_bool_chain.json": ["hausdorff", "--category", "@boolchain",
                                  "--left", "c1", "--right", "c0,c2"],
    "hausdorff_line013.json": ["hausdorff", "--category", "@line013",
                               "--left", "0,1", "--right", "3"],
    "ana_h.json": ["ana", "--coalgebra", "@hcoalg"],
    "omega_verify_depth13.json": ["omega-verify", "--depth", "13"],
    "omega_verify_depth13.txt": ["omega-verify", "--depth", "13", "--format", "text"],
}

# the cases whose report says a law failed
FAILING = {"check_not_morphism.json",
           "check_quantale_shuffled_chain.json", "check_quantale_pentagon.json"}


def _render(name, workdir):
    """The report of one case, run where its input files are written under
    relative names, so that a report naming its paths stays stable."""
    cwd = os.getcwd()
    os.chdir(tempfile.mkdtemp(dir=workdir))
    try:
        args = []
        for arg in CASES[name]:
            if arg.startswith("@"):
                key, arg = arg[1:], f"{arg[1:]}.json"
                Path(arg).write_text(json.dumps(INPUTS[key]))
            args.append(arg)
        result = CliRunner().invoke(main, args)
    finally:
        os.chdir(cwd)
    assert result.exit_code == (1 if name in FAILING else 0), result.output
    return result.output.encode()


@pytest.mark.parametrize("name", sorted(CASES))
def test_report_bytes_match_golden(name, tmp_path):
    assert _render(name, tmp_path) == (GOLDEN / name).read_bytes()


if __name__ == "__main__":
    GOLDEN.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory() as work:
        for name in sorted(CASES):
            (GOLDEN / name).write_bytes(_render(name, work))
            print(name, file=sys.stderr)
