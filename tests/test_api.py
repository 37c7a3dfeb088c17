"""The library's shape.  Its settable knobs: every public module-level
function of the library modules (all but the command line) and the
parameters of its signature whose names contain ``cap``.  A new cap is a
new knob, so it is added here on purpose or not at all.  And its functor
dispatch: only the node classes in ``coalg`` look at a node's type."""

import ast
import importlib
import inspect
import pkgutil
from pathlib import Path

import quantcat

SETTABLE_CAPS = {
    "hausdorff.enumerate_increasing.cap",
    "hausdorff.enumerate_increasing.count_cap",
    "hausdorff.hausdorff_object.cap",
    "hausdorff.hausdorff_object.count_cap",
    "coalg.normalize_term.cap",
    "coalg.eval_obj.cap",
    "coalg.eval_mor.cap",
    "coalg.final_chain.cap",
}


def _library_modules():
    for info in pkgutil.iter_modules(quantcat.__path__):
        if info.name not in ("cli", "__main__"):
            yield info.name, importlib.import_module(f"quantcat.{info.name}")


def test_the_settable_caps_are_exactly_these():
    found = {
        f"{name}.{fn_name}.{param}"
        for name, module in _library_modules()
        for fn_name, fn in vars(module).items()
        if inspect.isfunction(fn) and fn.__module__ == module.__name__
        and not fn_name.startswith("_")
        for param in inspect.signature(fn).parameters
        if "cap" in param
    }
    assert found == SETTABLE_CAPS


FUNCTOR_NODES = {"Id", "Const", "Prod", "Sum", "HComp"}


def _isinstance_on_a_node(call):
    if not (isinstance(call, ast.Call) and isinstance(call.func, ast.Name)
            and call.func.id == "isinstance" and len(call.args) == 2):
        return False
    named = {n.id if isinstance(n, ast.Name) else n.attr
             for n in ast.walk(call.args[1]) if isinstance(n, (ast.Name, ast.Attribute))}
    return bool(named & FUNCTOR_NODES)


def test_only_coalg_tests_the_type_of_a_functor_node():
    """Each node class evaluates, reads and writes itself, so the functor
    AST is walked by its own methods and no other module dispatches on it."""
    found = {
        path.name
        for path in Path(quantcat.__file__).parent.glob("*.py")
        for node in ast.walk(ast.parse(path.read_text()))
        if _isinstance_on_a_node(node)
    }
    assert found <= {"coalg.py"}
