"""Command-line interface: JSON in, deterministic reports out.

Exit codes: 0 all checks passed, 1 a law or property failed, 2 bad input,
3 an enumeration cap was exceeded.
"""

import argparse
import functools
import sys
import time

from . import __version__
from . import descriptors as ds
from .coalg import (
    check_coalgebra,
    distance_table,
    equalizer,
    final_chain,
    initial_lift_coalgebra,
    is_coalg_hom,
    require_carrier,
    require_coalgebra,
)
from .errors import CapExceeded, DescriptorError, LawFailure, QuantcatError
from .hausdorff import (DEFAULT_COUNT_CAP, cantor_check, enumerate_increasing,
                        hausdorff_distance, hausdorff_object, up_closure)
from .omega import anamorphism, is_omega_hom, verify_chain_commutation
from .quantale import Quantale, check_assumptions, check_quantale_laws
from .vcat import VCategory, VFunctor, check_vcategory, symmetrize

EXIT_OK = 0
EXIT_FAILED = 1
EXIT_INPUT = 2
EXIT_CAP = 3


def _report(command, body, ok, fmt, timings=None):
    rep = {"schema": ds.REPORT_SCHEMA, "tool": "quantcat", "version": __version__,
           "command": command}
    rep.update(body)
    rep["ok"] = ok
    if timings is not None:
        rep["timings"] = timings
    if fmt == "json":
        sys.stdout.write(ds.canonical_json(rep))
    else:
        sep = "," if fmt == "csv" else ": "
        sys.stdout.write("".join(sep.join(str(v) for v in row) + "\n" for row in _flatten(rep)))
    return EXIT_OK if ok else EXIT_FAILED


def _flatten(obj, prefix=""):
    if isinstance(obj, dict):
        for k, v in obj.items():
            yield from _flatten(v, f"{prefix}{k}." if prefix else f"{k}.")
    elif isinstance(obj, list):
        for i, v in enumerate(obj):
            yield from _flatten(v, f"{prefix}{i}.")
    else:
        yield (prefix.rstrip("."), obj)


def _law_entries(rep):
    return [
        {"law": e.law, "passed": e.passed,
         "witness": None if e.witness is None else [str(w) for w in e.witness],
         "analytic": e.analytic}
        for e in rep.entries
    ]


def _check_cap(cap):
    if cap < 0:
        raise DescriptorError(f"--cap {cap} is negative")


def _fail_input(message):
    sys.stderr.write(ds.canonical_json({"schema": ds.REPORT_SCHEMA, "error": message}))


def _run(fn):
    """Wrap a command body with the error-to-exit-code mapping."""

    @functools.wraps(fn)
    def wrapper(*a, **kw):
        try:
            code = fn(*a, **kw)
        except CapExceeded as e:
            _fail_input(str(e))
            sys.exit(EXIT_CAP)
        except QuantcatError as e:
            _fail_input(str(e))
            sys.exit(EXIT_INPUT)
        sys.exit(code)

    return wrapper


# name -> (body wrapped by _run, argparse options); filled by @_command
_COMMANDS = {}


def _option(*flags, **kwargs):
    return flags, kwargs


_FMT = _option("--format", dest="fmt", choices=("json", "csv", "text"), default="json",
               help="Report format (default: %(default)s).")
_TIMINGS = _option("--timings", action="store_true",
                   help="Include wall-clock timings (breaks byte determinism).")


def _command(*options, name=None):
    """Register a command body, named after the function unless ``name``
    is given, with the argparse options that fill its keyword arguments."""

    def register(fn):
        _COMMANDS[name or fn.__name__] = (_run(fn), options)
        return fn

    return register


def _parser():
    parser = argparse.ArgumentParser(
        prog="quantcat", add_help=False, allow_abbrev=False,
        description="Quantale-enriched categories, Hausdorff liftings, and coalgebras.")
    parser.add_argument("--version", action="version", version=f"%(prog)s, version {__version__}")
    parser.add_argument("--help", action="help", help="Show this message and exit.")
    commands = parser.add_subparsers(dest="command", metavar="COMMAND", required=True)
    for name, (body, options) in _COMMANDS.items():
        doc = " ".join(body.__doc__.split())
        sub = commands.add_parser(name, help=doc, description=doc,
                                  add_help=False, allow_abbrev=False)
        for flags, kwargs in options:
            sub.add_argument(*flags, **kwargs)
        sub.add_argument("--help", action="help", help="Show this message and exit.")
    return parser


def main(argv=None):
    """Run one command; ``argv`` defaults to ``sys.argv[1:]``.  Exits with
    the command's code, or 2 on a usage error."""
    args = vars(_parser().parse_args(argv))
    body, _ = _COMMANDS[args.pop("command")]
    body(**args)


@_command(_option("paths", nargs="+"), _FMT, _TIMINGS)
def check(paths, fmt, timings):
    """Run the law suites on every object in the given files."""
    t0 = time.monotonic()
    files = []
    for path in paths:
        try:
            obj = ds.load_file(path)
        except LawFailure as e:  # a coalgebra whose carrier is not a V-category
            kind, reports = "coalgebra", {"laws": e.report}
        else:
            if isinstance(obj, Quantale):
                kind, reports = "quantale", {"laws": check_quantale_laws(obj),
                                             "assumptions": check_assumptions(obj)}
            elif isinstance(obj, VCategory):
                kind, reports = "vcategory", {"laws": check_vcategory(obj)}
            else:
                kind, reports = "coalgebra", {"laws": check_coalgebra(obj)}
        entry = {"path": path, "kind": kind}
        entry.update((name, _law_entries(r)) for name, r in reports.items())
        entry["ok"] = all(r.ok for r in reports.values())
        files.append(entry)
    ok = all(f["ok"] for f in files)
    tm = {"seconds": round(time.monotonic() - t0, 3)} if timings else None
    return _report("check", {"files": files}, ok, fmt, tm)


@_command(_option("--category", dest="category_path", required=True),
          _option("--left", "-a", default="", help="Comma-separated state ids, as printed."),
          _option("--right", "-b", default="", help="Comma-separated state ids, as printed."),
          _FMT)
def hausdorff(category_path, left, right, fmt):
    """Lifted distances and up-closures for two subsets."""
    cat = require_carrier(ds.load_file(category_path, ds.VCATEGORY_SCHEMA), category_path)
    q = cat.quantale

    def parse_subset(text):
        ids = []
        for entry in filter(None, text.split(",")):
            named = [s for s in cat.states if str(s) == entry]
            if len(named) != 1:
                raise DescriptorError(f"state {entry!r} names both {named[0]!r} and {named[1]!r}"
                                      if named else f"unknown state {entry!r}")
            ids += named
        return frozenset(ids)

    a, b = parse_subset(left), parse_subset(right)
    fwd = hausdorff_distance(cat, a, b)
    bwd = hausdorff_distance(cat, b, a)
    body = {
        "left": ds.subset_to_json(a),
        "right": ds.subset_to_json(b),
        "distance": q.format(fwd),
        "reverse": q.format(bwd),
        "symmetric": q.format(q.meet(fwd, bwd)),
        "up_left": ds.subset_to_json(up_closure(cat, a)),
        "up_right": ds.subset_to_json(up_closure(cat, b)),
    }
    return _report("hausdorff", body, True, fmt)


@_command(_option("--functor", dest="functor_text", default="H",
                  help='"H" or an inline functor AST as JSON (default: %(default)s).'),
          _option("--quantale", dest="quantale_name", default="bool",
                  help="Built-in quantale name (default: %(default)s)."),
          _option("--depth", type=int, required=True),
          _option("--cap", type=int, default=DEFAULT_COUNT_CAP, help="(default: %(default)s)"),
          _FMT)
def chain(functor_text, quantale_name, depth, cap, fmt):
    """Level sizes of the final chain of a polynomial functor."""
    _check_cap(cap)
    q = ds.load_quantale(quantale_name)
    expr = ds.parse_functor(functor_text, q)
    levels = final_chain(expr, depth, quantale=q, cap=cap)
    body = {"functor": functor_text, "quantale": quantale_name, "depth": depth,
            "sizes": [len(l.obj.states) for l in levels]}
    return _report("chain", body, True, fmt)


@_command(_option("--coalgebra", dest="coalgebra_path", required=True),
          _option("--depth", type=int, required=True),
          _option("--symmetric", action="store_true"),
          _FMT)
def behave(coalgebra_path, depth, symmetric, fmt):
    """Depth-indexed behavioural distance table over all state pairs."""
    c = require_coalgebra(ds.load_file(coalgebra_path, ds.COALGEBRA_SCHEMA), coalgebra_path)
    q = c.carrier.quantale
    tables = distance_table(c, depth)
    if symmetric:
        tables = [symmetrize(d) for d in tables]
    rows = []
    for x in c.carrier.states:
        for y in c.carrier.states:
            rows.append({"from": x, "to": y,
                         "distances": [q.format(d.a(x, y)) for d in tables]})
    body = {"depth": depth, "symmetric": symmetric, "table": rows}
    if fmt == "csv":
        lines = ["from,to," + ",".join(f"d{k}" for k in range(depth + 1))]
        lines += [",".join([r["from"], r["to"]] + r["distances"]) for r in rows]
        sys.stdout.write("".join(line + "\n" for line in lines))
        return EXIT_OK
    return _report("behave", body, True, fmt)


def _parse_state_map(text, source, target):
    mapping = {}
    for part in (p for p in text.split(",") if p):
        if "=" not in part:
            raise DescriptorError(f"bad map entry {part!r}, expected src=tgt")
        s, t = part.split("=", 1)
        mapping[s] = t
    if set(mapping) != set(source.states):
        raise DescriptorError("map does not cover the source carrier")
    return VFunctor.from_dict(source, target, mapping)


@_command(_option("--coalgebra", dest="coalgebra_path", required=True),
          _option("--target", dest="target_path", required=True),
          _option("--left", required=True, help="Comma-separated src=tgt pairs."),
          _option("--right", required=True, help="Comma-separated src=tgt pairs."),
          _FMT)
def equalize(coalgebra_path, target_path, left, right, fmt):
    """Largest sub-coalgebra on which two homomorphisms agree."""
    cx = require_coalgebra(ds.load_file(coalgebra_path, ds.COALGEBRA_SCHEMA), coalgebra_path)
    cy = require_coalgebra(ds.load_file(target_path, ds.COALGEBRA_SCHEMA), target_path)
    f = _parse_state_map(left, cx.carrier, cy.carrier)
    g = _parse_state_map(right, cx.carrier, cy.carrier)
    for name, h in (("left", f), ("right", g)):
        if not is_coalg_hom(h, cx, cy):
            raise DescriptorError(f"{name} map is not a coalgebra homomorphism")
    sub, incl = equalizer(cx, f, g)
    body = {
        "carrier": list(sub.carrier.states),
        "structure": {s: ds.dump_term(sub.functor, sub.structure[s], sub.carrier.quantale)
                      for s in sub.carrier.states},
        "inclusion": list(incl.mapping),
    }
    return _report("equalize", body, True, fmt)


@_command(_option("--file", dest="path", required=True,
                  help="Set-level coalgebra descriptor, optionally with a cone."),
          _FMT)
def lift(path, fmt):
    """Greatest structure making a set-level coalgebra a real one."""
    expr, q, states, structure, cone = ds.load_file(path, ds.SET_COALGEBRA_SCHEMA)
    out = initial_lift_coalgebra(expr, q, states, structure, cone=cone)
    body = {
        "states": list(states),
        "matrix": [[q.format(v) for v in row] for row in out.carrier.matrix],
    }
    return _report("lift", body, True, fmt)


@_command(_option("--category", dest="category_path", required=True),
          _option("--phi", dest="phi_text",
                  help="JSON map from comma-joined sorted subsets to states."),
          _option("--cap", type=int, default=20000, help="(default: %(default)s)"),
          _FMT)
def cantor(category_path, phi_text, cap, fmt):
    """Witness that maps from the lifted object back are never embeddings."""
    _check_cap(cap)
    cat = require_carrier(ds.load_file(category_path, ds.VCATEGORY_SCHEMA), category_path)

    def verdict_json(v):
        out = {"kind": v.kind}
        if v.subsets is not None:
            out["subsets"] = [ds.subset_to_json(s) for s in v.subsets]
        if v.point is not None:
            out["point"] = v.point
        if v.values is not None:
            out["values"] = [cat.quantale.format(x) for x in v.values]
        return out

    # phi is checked against the increasing subsets before the lifted
    # object, quadratic in their number, is built from them
    subsets = enumerate_increasing(cat)
    if phi_text is not None:
        phi = ds.parse_phi(phi_text, cat, subsets)
        v = cantor_check(cat, phi, hx=hausdorff_object(cat, elements=subsets))
        return _report("cantor", {"verdicts": [verdict_json(v)]},
                       v.kind != "contradiction-witness", fmt)

    n, k = len(cat.states), len(subsets)
    if n ** k > cap:
        raise CapExceeded("candidate maps from the lifted object", f"{n}^{k}", cap)
    hx = hausdorff_object(cat, elements=subsets)
    from itertools import product as iproduct

    tallies = {}
    first = {}
    for images in iproduct(cat.states, repeat=len(hx.elements)):
        v = cantor_check(cat, list(images), hx=hx)
        tallies[v.kind] = tallies.get(v.kind, 0) + 1
        first.setdefault(v.kind, verdict_json(v))
    body = {"maps": n ** k,
            "tallies": {k: tallies[k] for k in sorted(tallies)},
            "witnesses": {k: first[k] for k in sorted(first)}}
    return _report("cantor", body, "contradiction-witness" not in tallies, fmt)


@_command(_option("--depth", type=int, default=32, help="(default: %(default)s)"), _FMT,
          name="omega-verify")
def omega_verify(depth, fmt):
    """Check the truncation cone against the final chain."""
    rep = verify_chain_commutation(depth)
    return _report("omega-verify", {"depth": depth, "laws": _law_entries(rep)},
                   rep.ok, fmt)


@_command(_option("--coalgebra", dest="coalgebra_path", required=True), _FMT)
def ana(coalgebra_path, fmt):
    """Behaviour of a Boolean-quantale lifting coalgebra in the extended
    naturals; emits "inf" for infinity."""
    c = require_coalgebra(ds.load_file(coalgebra_path, ds.COALGEBRA_SCHEMA), coalgebra_path)
    beh = anamorphism(c)
    ok = is_omega_hom(c, beh)
    body = {"behavior": {s: repr(beh[s]) for s in c.carrier.states}}
    return _report("ana", body, ok, fmt)


@_command(_option("--seed", type=int, default=0, help="(default: %(default)s)"),
          _option("--cases", type=int, default=50, help="(default: %(default)s)"),
          _FMT, _TIMINGS)
def selfcheck(seed, cases, fmt, timings):
    """Run the seeded law sweeps and report per-suite results."""
    from .suites import run_law_suites  # only this command needs the suites

    t0 = time.monotonic()
    rep = run_law_suites(seed, cases)
    tm = {"seconds": round(time.monotonic() - t0, 3)} if timings else None
    return _report("selfcheck", rep, rep["ok"], fmt, tm)


if __name__ == "__main__":
    main()
