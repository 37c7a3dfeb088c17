"""The library's settable knobs: every public module-level function of the
library modules (all but the command line) and the parameters of its
signature whose names contain ``cap``.  A new cap is a new knob, so it is
added here on purpose or not at all."""

import importlib
import inspect
import pkgutil

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
    "coalg.distance_table.cap",
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

