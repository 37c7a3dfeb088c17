"""The library's shape.  Its settable knobs: every public module-level
function of the library modules (all but the command line) and the
parameters of its signature whose names contain ``cap``.  A new cap is a
new knob, so it is added here on purpose or not at all.  And its functor
dispatch: only the node classes in ``coalg`` look at a node's type, and in
the tests only the oracle routes do.  And its arithmetic: no module reads
the private fields of a ``Fraction``."""

import ast
import importlib
import inspect
import pkgutil
from pathlib import Path

import quantcat
from quantcat import coalg

SETTABLE_CAPS = {
    "hausdorff.enumerate_increasing.count_cap",
    "hausdorff.hausdorff_object.count_cap",
    "coalg.eval_obj.cap",
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


def test_only_the_oracle_routes_test_the_type_of_a_functor_node():
    """Each walk of the functor AST in the tests is an independent route,
    defined once in ``oracle_routes``, which the test modules import."""
    found = {
        path.name
        for path in Path(__file__).parent.glob("*.py")
        for node in ast.walk(ast.parse(path.read_text()))
        if _isinstance_on_a_node(node)
    }
    assert found == {"oracle_routes.py"}


# the fields of every descriptor schema
DESCRIPTOR_FIELDS = {"schema", "elements", "leq", "tensor", "unit", "quantale", "states",
                     "matrix", "functor", "category", "structure", "cone", "mapping",
                     "coalgebra", "branch", "term", "id", "const", "prod", "sum", "H"}


def _reads_a_descriptor_field(node):
    """``spec["field"]`` or ``spec.get("field", ...)`` for a descriptor field."""
    if isinstance(node, ast.Subscript):
        key = node.slice
    elif (isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
          and node.func.attr == "get" and node.args):
        key = node.args[0]
    else:
        return False
    return isinstance(key, ast.Constant) and key.value in DESCRIPTOR_FIELDS


def test_the_command_line_handles_only_loaded_objects():
    """``descriptors`` decodes every file and inline option and checks its
    fields, so the command line imports no json, reads no descriptor field
    and compares no schema."""
    tree = ast.parse((Path(quantcat.__file__).parent / "cli.py").read_text())
    imported = {node.module for node in ast.walk(tree) if isinstance(node, ast.ImportFrom)}
    imported |= {alias.name for node in ast.walk(tree) if isinstance(node, ast.Import)
                 for alias in node.names}
    assert "json" not in imported
    fields_read = [node.lineno for node in ast.walk(tree) if _reads_a_descriptor_field(node)]
    assert fields_read == []
    compared = {name.id if isinstance(name, ast.Name) else name.attr
                for node in ast.walk(tree) if isinstance(node, ast.Compare)
                for name in ast.walk(node) if isinstance(name, (ast.Name, ast.Attribute))}
    assert not [name for name in compared if name.endswith("_SCHEMA")]


MEMO_DECORATORS = {"lru_cache", "cache"}


def _named(node):
    return node.id if isinstance(node, ast.Name) else getattr(node, "attr", None)


def test_the_only_module_level_memo_interns_the_builtin_quantales():
    """Derived values are kept on the object they derive from and freed with
    it, so the one process-wide memo is the bounded interning of built-in
    quantales."""
    decorated, mentions = set(), 0
    for path in Path(quantcat.__file__).parent.glob("*.py"):
        tree = ast.parse(path.read_text())
        mentions += sum(_named(node) in MEMO_DECORATORS for node in ast.walk(tree))
        decorated |= {
            f"{path.stem}.{node.name}"
            for node in ast.walk(tree)
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
            for dec in node.decorator_list
            if _named(dec.func if isinstance(dec, ast.Call) else dec) in MEMO_DECORATORS
        }
    assert decorated == {"quantale._builtin"}
    # and no memo is made by calling the decorator on a function
    assert mentions == 1


def test_no_module_reads_the_private_fields_of_a_fraction():
    """The Lawvere kernel compares through ``numerator`` and ``denominator``,
    the public API of every Python version the package supports; the
    private ``_numerator`` and ``_denominator`` slots are not part of it."""
    found = {
        f"{path.name}:{node.lineno}"
        for path in Path(quantcat.__file__).parent.glob("*.py")
        for node in ast.walk(ast.parse(path.read_text()))
        if (node.attr if isinstance(node, ast.Attribute) else getattr(node, "value", None))
        in ("_numerator", "_denominator")
    }
    assert found == set()


def _meet_of_joins_sites(node, where, found):
    """Add to ``found`` the qualified name of each function or method that
    calls ``join_all`` inside the arguments of a ``meet_all`` call."""
    if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
        where = f"{where}.{node.name}"
    if (isinstance(node, ast.Call) and _named(node.func) == "meet_all"
            and any(isinstance(inner, ast.Call) and _named(inner.func) == "join_all"
                    for arg in node.args for inner in ast.walk(arg))):
        found.add(where)
    for child in ast.iter_child_nodes(node):
        _meet_of_joins_sites(child, where, found)


def test_the_meet_of_joins_is_written_once():
    """H's formula on relations lives in ``hausdorff.hausdorff_lift``, which
    the distance and the ``HComp`` node's ``matrix``, H's one lax
    extension, read; a functor node's structure on terms is its lax
    extension ``matrix``."""
    found = set()
    for path in Path(quantcat.__file__).parent.glob("*.py"):
        _meet_of_joins_sites(ast.parse(path.read_text()), path.stem, found)
    assert found == {"hausdorff.hausdorff_lift"}
    nodes = [getattr(coalg, name) for name in FUNCTOR_NODES]
    assert not [node for node in nodes if hasattr(node, "dist")]
    assert all(callable(node.matrix) for node in nodes)


def _calls(tree):
    return {_named(node.func) for node in ast.walk(tree) if isinstance(node, ast.Call)}


def test_a_functor_value_is_its_elements_under_one_matrix():
    """F(x) is F's elements under the lax extension of x's structure.  So no
    node class builds its value by an ``obj`` of its own or reads its
    parts' lifts one entry at a time by ``over``, ``Prod`` builds no initial
    structure, and ``eval_obj`` and the descent step ``_lift_step`` reach a
    node only through its ``elements`` and its whole ``matrix``."""
    tree = ast.parse(Path(coalg.__file__).read_text())
    classes = {node.name: node for node in tree.body if isinstance(node, ast.ClassDef)}
    for name in FUNCTOR_NODES | {"_Node"}:
        defined = {node.name for node in classes[name].body if isinstance(node, ast.FunctionDef)}
        assert not defined & {"obj", "over", "lift"}, name
    assert "initial_structure" not in _calls(classes["Prod"])
    functions = {node.name: node for node in tree.body if isinstance(node, ast.FunctionDef)}
    for name, reads in (("eval_obj", {"elements", "matrix"}), ("_lift_step", {"matrix"})):
        on_node = {node.func.attr for node in ast.walk(functions[name])
                   if isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
                   and isinstance(node.func.value, ast.Name) and node.func.value.id == "expr"}
        assert on_node == reads, name
        assert not _calls(functions[name]) & {"initial_structure", "hausdorff_object",
                                              "lifted_matrix", "hausdorff_lift"}, name


def test_the_lax_extension_laws_are_checked_once_through_the_node_interface():
    """One ``check_lax_extension_laws``, in ``coalg``, for every functor
    node: ``hausdorff`` defines no ``lax_*`` function, and the check reaches
    a node only through its ``elements``, its ``matrix`` and ``_fmap``."""
    defined = [
        (path.stem, node.name)
        for path in Path(quantcat.__file__).parent.glob("*.py")
        for node in ast.walk(ast.parse(path.read_text()))
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
    ]
    assert not [name for stem, name in defined if stem == "hausdorff" and name.startswith("lax_")]
    assert [stem for stem, name in defined if name == "check_lax_extension_laws"] == ["coalg"]
    tree = ast.parse(Path(coalg.__file__).read_text())
    check = next(node for node in tree.body if isinstance(node, ast.FunctionDef)
                 and node.name == "check_lax_extension_laws")
    reads = []
    for node in ast.walk(check):
        if isinstance(node, ast.Attribute) and _named(node.value) == "expr":
            reads.append(node.attr)
        elif isinstance(node, ast.Call):
            reads += [_named(node.func) for arg in node.args if _named(arg) == "expr"]
    uses = sum(isinstance(node, ast.Name) and node.id == "expr" for node in ast.walk(check))
    assert len(reads) == uses and set(reads) == {"elements", "matrix", "_fmap"}, reads


def test_normal_forms_are_the_identity_map():
    """A normal form is F(id), computed through the node tables, so no
    functor node has a ``normalize`` walk of its own, and no module of the
    package defines or reads one."""
    nodes = [getattr(coalg, name) for name in FUNCTOR_NODES]
    assert not [node for node in nodes if hasattr(node, "normalize")]
    found = {
        f"{path.name}:{node.lineno}"
        for path in Path(quantcat.__file__).parent.glob("*.py")
        for node in ast.walk(ast.parse(path.read_text()))
        if (node.name if isinstance(node, ast.FunctionDef)
            else node.attr if isinstance(node, ast.Attribute) else None) == "normalize"
    }
    assert found == set()

