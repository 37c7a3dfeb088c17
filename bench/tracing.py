"""Span recording around quantcat's layers, installed from outside.

``install`` wraps every public function of each library module, the
constructors of the core classes, and counts the ``Quantale`` element
operations (a per-call timer would cost more than those calls).  Each
wrapper records a span: its name, start, end, parent span and the id of
the operation it belongs to.  Spans stay in compact in-memory arrays and
are written to one file per process at exit; ``Totals`` reads those files
back and ``per_layer`` turns them into the benchmark's per-layer metrics.

A layer is a module: quantale, vcat, hausdorff, coalg, omega, suites,
descriptors and cli.  A span's self time is its duration minus the time
its child spans cover.
"""

import functools
import importlib
import inspect
import json
import sys
import time
from array import array

LIBRARY_LAYERS = ("quantale", "vcat", "hausdorff", "coalg", "omega", "suites", "descriptors")
LAYERS = LIBRARY_LAYERS + ("cli",)

LATTICE_OPS = ("leq", "join", "meet", "join_all", "meet_all")
TENSOR_OPS = ("tensor", "hom")

# Counters that keep a maximum; every other counter is a sum.
MAX_COUNTERS = ("hausdorff.enumerate_max_states", "coalg.top_level_states")


class Recorder:
    """In-memory span store for one process."""

    def __init__(self):
        self.names = []
        self._ids = {}
        self.name = array("i")
        self.parent = array("q")
        self.op = array("i")
        self.start = array("d")
        self.end = array("d")
        self.counters = {}
        self.op_id = 0
        self._stack = [-1]

    def name_id(self, name):
        nid = self._ids.get(name)
        if nid is None:
            nid = self._ids[name] = len(self.names)
            self.names.append(name)
        return nid

    def open(self, nid):
        i = len(self.start)
        self.name.append(nid)
        self.parent.append(self._stack[-1])
        self.op.append(self.op_id)
        self.start.append(time.perf_counter())
        self.end.append(0.0)
        self._stack.append(i)
        return i

    def close(self, i):
        self.end[i] = time.perf_counter()
        self._stack.pop()

    def add(self, name, start, end):
        """Record a span measured by the caller."""
        i = self.open(self.name_id(name))
        self.start[i] = start
        self.end[i] = end
        self._stack.pop()

    def bump(self, key, amount=1):
        self.counters[key] = self.counters.get(key, 0) + amount

    def peak(self, key, value):
        self.counters[key] = max(self.counters.get(key, 0), value)

    def write(self, path):
        header = {"names": self.names, "counters": self.counters, "spans": len(self.start)}
        with open(path, "wb") as fh:
            fh.write(json.dumps(header).encode() + b"\n")
            for arr in (self.name, self.parent, self.op, self.start, self.end):
                arr.tofile(fh)


class span:
    """Context manager for a span opened by benchmark code; a no-op
    without a recorder."""

    def __init__(self, rec, name):
        self.rec = rec
        self.name = name

    def __enter__(self):
        if self.rec is not None:
            self.i = self.rec.open(self.rec.name_id(self.name))

    def __exit__(self, *exc):
        if self.rec is not None:
            self.rec.close(self.i)


# -- wrappers ------------------------------------------------------------------


def _wrap(rec, name, fn, observe=None):
    nid = rec.name_id(name)

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        i = rec.open(nid)
        try:
            result = fn(*args, **kwargs)
        finally:
            rec.close(i)
        if observe is not None:
            observe(rec, args, result)
        return result

    return wrapper


def _wrap_generator(rec, name, fn, steps_key):
    """One span per iterate, so the time is charged where it is spent."""
    nid = rec.name_id(name)

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        it = fn(*args, **kwargs)
        while True:
            i = rec.open(nid)
            try:
                value = next(it)
            except StopIteration:
                return
            finally:
                rec.close(i)
            rec.bump(steps_key)
            yield value

    return wrapper


def _wrap_suite_runner(rec, fn):
    """run_suite(name, ...) gets one span name per suite."""

    @functools.wraps(fn)
    def wrapper(name, *args, **kwargs):
        i = rec.open(rec.name_id(f"suites.{name}"))
        try:
            return fn(name, *args, **kwargs)
        finally:
            rec.close(i)

    return wrapper


def _count(rec, key, fn):
    counters = rec.counters
    counters.setdefault(key, 0)

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        counters[key] += 1
        return fn(*args, **kwargs)

    return wrapper


_OBSERVERS = {
    "vcat.VCategory": lambda rec, args, _: rec.bump("vcat.matrix_cells", len(args[0].states) ** 2),
    "hausdorff.enumerate_increasing": lambda rec, args, out: (
        rec.peak("hausdorff.enumerate_max_states", len(args[0].states)),
        rec.bump("hausdorff.increasing_subsets", len(out)),
    ),
    "hausdorff.hausdorff_object": lambda rec, _, out: rec.bump(
        "hausdorff.lifted_cells", len(out.elements) ** 2),
    "coalg.final_chain": lambda rec, _, out: rec.peak(
        "coalg.top_level_states", max(len(level.obj.states) for level in out)),
    "coalg.behavior_map": lambda rec, _, out: rec.peak(
        "coalg.top_level_states", max(len(beh.target.states) for beh in out)),
    "descriptors.canonical_json": lambda rec, _, out: rec.bump("descriptors.report_bytes", len(out)),
}


def install(rec):
    """Wrap quantcat's layers so that every call records into ``rec``.

    A function is replaced in every quantcat module namespace that binds
    it, since several modules import names with ``from .x import y``.
    """
    for layer in LAYERS:
        importlib.import_module(f"quantcat.{layer}")
    from quantcat.coalg import Coalgebra
    from quantcat.quantale import Quantale
    from quantcat.vcat import VCategory, VFunctor

    replacement = {}
    for layer in LIBRARY_LAYERS:
        mod = sys.modules[f"quantcat.{layer}"]
        for attr, obj in vars(mod).items():
            if attr.startswith("_") or not inspect.isfunction(obj) or obj.__module__ != mod.__name__:
                continue
            name = f"{layer}.{attr}"
            if name == "suites.run_suite":
                replacement[obj] = _wrap_suite_runner(rec, obj)
            elif inspect.isgeneratorfunction(obj):
                replacement[obj] = _wrap_generator(rec, name, obj, f"{name}_steps")
            else:
                replacement[obj] = _wrap(rec, name, obj, _OBSERVERS.get(name))
    for modname, mod in list(sys.modules.items()):
        if modname != "quantcat" and not modname.startswith("quantcat."):
            continue
        for attr, obj in list(vars(mod).items()):
            if inspect.isfunction(obj) and obj in replacement:
                setattr(mod, attr, replacement[obj])

    for layer, cls in (("quantale", Quantale), ("vcat", VCategory),
                       ("vcat", VFunctor), ("coalg", Coalgebra)):
        name = f"{layer}.{cls.__name__}"
        cls.__init__ = _wrap(rec, name, cls.__init__, _OBSERVERS.get(name))
    for op in LATTICE_OPS:
        setattr(Quantale, op, _count(rec, "quantale.lattice_calls", getattr(Quantale, op)))
    for op in TENSOR_OPS:
        setattr(Quantale, op, _count(rec, "quantale.tensor_hom_calls", getattr(Quantale, op)))


def import_traced():
    """Import quantcat.cli as a user's shell would, recording the import as
    the ``cli.import`` span, then install the wrappers."""
    rec = Recorder()
    t0 = time.perf_counter()
    importlib.import_module("quantcat.cli")
    rec.add("cli.import", t0, time.perf_counter())
    install(rec)
    return rec


# -- reading spans back ------------------------------------------------------------


class Totals:
    """Per-name call counts, self and inclusive times, and counters,
    summed over any number of span files."""

    def __init__(self):
        self.calls = {}
        self.self_s = {}
        self.span_s = {}
        self.counters = {}

    def add_file(self, path):
        with open(path, "rb") as fh:
            header = json.loads(fh.readline())
            n = header["spans"]
            arrays = []
            for code in ("i", "q", "i", "d", "d"):
                arr = array(code)
                arr.fromfile(fh, n)
                arrays.append(arr)
        self.add_spans(header["names"], *arrays)
        for key, value in header["counters"].items():
            if key in MAX_COUNTERS:
                self.counters[key] = max(self.counters.get(key, 0), value)
            else:
                self.counters[key] = self.counters.get(key, 0) + value

    def add_spans(self, names, name, parent, _op, start, end):
        dur = [e - s for s, e in zip(start, end)]
        own = list(dur)
        for i, p in enumerate(parent):
            if p >= 0:
                own[p] -= dur[i]
        for i, nid in enumerate(name):
            key = names[nid]
            self.calls[key] = self.calls.get(key, 0) + 1
            self.self_s[key] = self.self_s.get(key, 0.0) + own[i]
            self.span_s[key] = self.span_s.get(key, 0.0) + dur[i]


def _sum(table, keys):
    return sum(table.get(k, 0) for k in keys)


SUITE_NAMES = ("construction-laws", "monad-laws", "hausdorff-identities",
               "closure-laws", "initiality-preservation", "lax-extension-axioms")

VCAT_CONSTRUCTIONS = ("discrete", "indiscrete", "terminal", "from_order", "metric_line",
                      "as_vcategory", "restrict", "identity_functor", "compose", "dual",
                      "symmetrize", "underlying_order", "separated_reflection", "tensor",
                      "internal_hom", "initial_structure")
HAUSDORFF_MONAD = ("monad_unit", "monad_mult", "hausdorff_map")
HAUSDORFF_LAX = ("lax_powerset_extension", "lax_extension_monotone",
                 "lax_extension_composition", "lax_extension_graph",
                 "check_lax_extension_laws")
DESCRIPTOR_LOADS = ("load_quantale", "load_vcategory", "load_functor", "load_term",
                    "load_coalgebra", "load_set_coalgebra")
DESCRIPTOR_RENDERS = ("dump_term", "subset_to_json", "canonical_json")


def _metric_table():
    """name -> (unit, kind, keys).  Kinds: calls and self sum over span
    names, span sums inclusive span time, counter reads a counter, layer
    sums the self time of every span in a layer."""
    def fn(layer, *attrs):
        return tuple(f"{layer}.{a}" for a in attrs)

    t = {}
    t["quantale.constructions"] = ("count", "calls", fn("quantale", "Quantale"))
    t["quantale.construct_s"] = ("s", "self", fn("quantale", "Quantale"))
    t["quantale.lattice_calls"] = ("count", "counter", ("quantale.lattice_calls",))
    t["quantale.tensor_hom_calls"] = ("count", "counter", ("quantale.tensor_hom_calls",))
    t["vcat.categories_built"] = ("count", "calls", fn("vcat", "VCategory"))
    t["vcat.matrix_cells"] = ("count", "counter", ("vcat.matrix_cells",))
    t["vcat.check_s"] = ("s", "self", fn("vcat", "check_vcategory", "check_vfunctor"))
    t["vcat.fibre_join_calls"] = ("count", "calls", fn("vcat", "fibre_join"))
    t["vcat.fibre_join_s"] = ("s", "self", fn("vcat", "fibre_join"))
    t["vcat.vfunctors_between_s"] = ("s", "self", fn("vcat", "vfunctors_between"))
    t["vcat.constructions_s"] = ("s", "self", fn("vcat", *VCAT_CONSTRUCTIONS))
    t["hausdorff.enumerate_calls"] = ("count", "calls", fn("hausdorff", "enumerate_increasing"))
    t["hausdorff.enumerate_s"] = ("s", "self", fn("hausdorff", "enumerate_increasing"))
    t["hausdorff.enumerate_max_states"] = ("states", "counter", ("hausdorff.enumerate_max_states",))
    t["hausdorff.increasing_subsets"] = ("count", "counter", ("hausdorff.increasing_subsets",))
    t["hausdorff.object_s"] = ("s", "self", fn("hausdorff", "hausdorff_object"))
    t["hausdorff.lifted_cells"] = ("count", "counter", ("hausdorff.lifted_cells",))
    t["hausdorff.up_closure_calls"] = ("count", "calls", fn("hausdorff", "up_closure"))
    t["hausdorff.up_closure_s"] = ("s", "self", fn("hausdorff", "up_closure"))
    t["hausdorff.monad_s"] = ("s", "self", fn("hausdorff", *HAUSDORFF_MONAD))
    t["hausdorff.lax_s"] = ("s", "self", fn("hausdorff", *HAUSDORFF_LAX))
    t["hausdorff.cantor_calls"] = ("count", "calls", fn("hausdorff", "cantor_check"))
    t["hausdorff.cantor_s"] = ("s", "self", fn("hausdorff", "cantor_check"))
    t["coalg.eval_obj_calls"] = ("count", "calls", fn("coalg", "eval_obj"))
    t["coalg.eval_obj_s"] = ("s", "self", fn("coalg", "eval_obj"))
    t["coalg.eval_mor_calls"] = ("count", "calls", fn("coalg", "eval_mor"))
    t["coalg.eval_mor_s"] = ("s", "self", fn("coalg", "eval_mor"))
    t["coalg.top_level_states"] = ("states", "counter", ("coalg.top_level_states",))
    t["coalg.behavior_map_calls"] = ("count", "calls", fn("coalg", "behavior_map"))
    t["coalg.behavior_map_s"] = ("s", "self", fn("coalg", "behavior_map"))
    t["coalg.behavioral_distance_calls"] = ("count", "calls", fn("coalg", "behavioral_distance"))
    t["coalg.final_chain_s"] = ("s", "self", fn("coalg", "final_chain"))
    t["coalg.check_s"] = ("s", "self", fn("coalg", "check_coalgebra", "is_coalg_hom"))
    t["coalg.equalizer_s"] = ("s", "self", fn("coalg", "equalizer"))
    t["coalg.term_in_restriction_calls"] = ("count", "calls", fn("coalg", "term_in_restriction"))
    t["coalg.lift_s"] = ("s", "self", fn("coalg", "initial_lift_coalgebra", "lift_descent"))
    t["coalg.lift_descent_steps"] = ("count", "counter", ("coalg.lift_descent_steps",))
    t["coalg.normalize_term_calls"] = ("count", "calls", fn("coalg", "normalize_term"))
    t["omega.verify_s"] = ("s", "self", fn("omega", "verify_chain_commutation"))
    t["omega.chain_coding_s"] = ("s", "self", fn("omega", "canonical_chain_coding"))
    t["omega.anamorphism_s"] = ("s", "self", fn("omega", "anamorphism"))
    t["omega.hom_check_s"] = ("s", "self", fn("omega", "is_omega_hom"))
    t["omega.hom_check_calls"] = ("count", "calls", fn("omega", "is_omega_hom"))
    for suite in SUITE_NAMES:
        t[f"suites.{suite}_s"] = ("s", "span", (f"suites.{suite}",))
    t["descriptors.load_s"] = ("s", "self", fn("descriptors", *DESCRIPTOR_LOADS))
    t["descriptors.render_s"] = ("s", "self", fn("descriptors", *DESCRIPTOR_RENDERS))
    t["descriptors.report_bytes"] = ("bytes", "counter", ("descriptors.report_bytes",))
    t["cli.import_s"] = ("s", "span", ("cli.import",))
    t["cli.self_s"] = ("s", "self", ("cli.main",))
    for layer in LIBRARY_LAYERS:
        t[f"{layer}.self_s"] = ("s", "layer", (layer,))
    return t


METRICS = _metric_table()


def per_layer(totals, rounds):
    """Per-layer metrics, per round; counters that keep a maximum are
    reported as that maximum."""
    out = {}
    for name, (unit, kind, keys) in METRICS.items():
        if kind == "calls":
            value = _sum(totals.calls, keys)
        elif kind == "self":
            value = _sum(totals.self_s, keys)
        elif kind == "span":
            value = _sum(totals.span_s, keys)
        elif kind == "layer":
            value = sum(v for k, v in totals.self_s.items() if k.split(".", 1)[0] in keys)
        else:
            value = _sum(totals.counters, keys)
        if not (kind == "counter" and keys[0] in MAX_COUNTERS):
            value = value / rounds
        out[name] = {"value": value, "unit": unit}
    return out
