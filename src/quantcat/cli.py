"""Command-line interface: JSON in, deterministic reports out.

Exit codes: 0 all checks passed, 1 a law or property failed, 2 bad input,
3 an enumeration cap was exceeded.
"""

import argparse
import functools
import json
import sys
import time

from . import __version__
from . import descriptors as ds
from .coalg import (
    DEFAULT_SIZE_CAP,
    HComp,
    Id,
    check_coalgebra,
    distance_table,
    equalizer,
    final_chain,
    initial_lift_coalgebra,
    is_coalg_hom,
    require_carrier,
    require_coalgebra,
)
from .errors import CapExceeded, DescriptorError, QuantcatError
from .hausdorff import (cantor_check, enumerate_increasing, hausdorff_distance,
                        hausdorff_object, up_closure)
from .omega import anamorphism, is_omega_hom, verify_chain_commutation
from .quantale import check_assumptions, check_quantale_laws
from .vcat import VFunctor, check_vcategory, symmetrize

EXIT_OK = 0
EXIT_FAILED = 1
EXIT_INPUT = 2
EXIT_CAP = 3


def _read_json(path):
    try:
        with open(path) as fh:
            return json.load(fh)
    except OSError as e:
        raise DescriptorError(f"{path}: {e}")
    except json.JSONDecodeError as e:
        raise DescriptorError(f"{path}:{e.lineno}:{e.colno}: {e.msg}")


def _load_checked_category(path):
    cat = ds.load_vcategory(_read_json(path))
    rep = check_vcategory(cat)
    if not rep.ok:
        bad = rep.failures()[0]
        raise DescriptorError(f"{path}: not a V-category ({bad.law}, witness {bad.witness})")
    return cat


def _load_checked_coalgebra(path):
    spec = _read_json(path)
    if not isinstance(spec, dict) or spec.get("schema") != ds.COALGEBRA_SCHEMA:
        raise DescriptorError(f"{path}: expected a coalgebra descriptor")
    # the carrier is checked before load_coalgebra up-closes terms in it
    require_carrier(ds.load_vcategory(spec["category"]), path)
    return require_coalgebra(ds.load_coalgebra(spec), path)


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
    ok = True
    for path in paths:
        spec = _read_json(path)
        schema = spec.get("schema") if isinstance(spec, dict) else None
        if schema == ds.QUANTALE_SCHEMA or isinstance(spec, str):
            q = ds.load_quantale(spec)
            laws = check_quantale_laws(q)
            assumptions = check_assumptions(q)
            entry_ok = laws.ok and assumptions.ok
            files.append({"path": path, "kind": "quantale",
                          "laws": _law_entries(laws),
                          "assumptions": _law_entries(assumptions),
                          "ok": entry_ok})
        elif schema == ds.VCATEGORY_SCHEMA:
            cat = ds.load_vcategory(spec)
            rep = check_vcategory(cat)
            files.append({"path": path, "kind": "vcategory",
                          "laws": _law_entries(rep), "ok": rep.ok})
            entry_ok = rep.ok
        elif schema == ds.COALGEBRA_SCHEMA:
            rep = check_vcategory(ds.coalgebra_carrier(spec))
            if rep.ok:  # the terms are up-closed in the carrier
                rep = check_coalgebra(ds.load_coalgebra(spec))
            files.append({"path": path, "kind": "coalgebra",
                          "laws": _law_entries(rep), "ok": rep.ok})
            entry_ok = rep.ok
        else:
            raise DescriptorError(f"{path}: unrecognized schema {schema!r}")
        ok = ok and entry_ok
    tm = {"seconds": round(time.monotonic() - t0, 3)} if timings else None
    return _report("check", {"files": files}, ok, fmt, tm)


@_command(_option("--category", dest="category_path", required=True),
          _option("--left", "-a", default="", help="Comma-separated state ids."),
          _option("--right", "-b", default="", help="Comma-separated state ids."),
          _FMT)
def hausdorff(category_path, left, right, fmt):
    """Lifted distances and up-closures for two subsets."""
    cat = _load_checked_category(category_path)
    q = cat.quantale

    def parse_subset(text):
        ids = [s for s in text.split(",") if s]
        for s in ids:
            if s not in cat.states:
                raise DescriptorError(f"unknown state {s!r}")
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


def _parse_functor(text, quantale):
    if text == "H":
        return HComp(Id())
    return ds.load_functor(json.loads(text), quantale)


@_command(_option("--functor", dest="functor_text", default="H",
                  help='"H" or an inline functor AST as JSON (default: %(default)s).'),
          _option("--quantale", dest="quantale_name", default="bool",
                  help="Built-in quantale name (default: %(default)s)."),
          _option("--depth", type=int, required=True),
          _option("--cap", type=int, default=DEFAULT_SIZE_CAP, help="(default: %(default)s)"),
          _FMT)
def chain(functor_text, quantale_name, depth, cap, fmt):
    """Level sizes of the final chain of a polynomial functor."""
    _check_cap(cap)
    q = ds.load_quantale(quantale_name)
    expr = _parse_functor(functor_text, q)
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
    c = _load_checked_coalgebra(coalgebra_path)
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
    cx = _load_checked_coalgebra(coalgebra_path)
    cy = _load_checked_coalgebra(target_path)
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
    expr, q, states, structure, cone = ds.load_lift(_read_json(path))
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
    cat = _load_checked_category(category_path)

    def verdict_json(v):
        out = {"kind": v.kind}
        if v.subsets is not None:
            out["subsets"] = [ds.subset_to_json(s) for s in v.subsets]
        if v.point is not None:
            out["point"] = v.point
        if v.values is not None:
            out["values"] = [str(x) for x in v.values]
        return out

    # phi is checked against the increasing subsets before the lifted
    # object, quadratic in their number, is built
    subsets = enumerate_increasing(cat)
    if phi_text is not None:
        raw = json.loads(phi_text)
        if not isinstance(raw, dict):
            raise DescriptorError("phi must be a JSON object")
        key = {",".join(sorted(a)): a for a in subsets}
        if set(raw) != set(key):
            raise DescriptorError("phi keys do not match the lifted carrier")
        bad = next((v for v in raw.values() if isinstance(v, (list, dict)) or v not in cat),
                   None)
        if bad is not None:
            raise DescriptorError(f"phi value {json.dumps(bad)} is not a state id")
        phi = {key[k]: v for k, v in raw.items()}
        v = cantor_check(cat, phi, hx=hausdorff_object(cat))
        return _report("cantor", {"verdicts": [verdict_json(v)]},
                       v.kind != "contradiction-witness", fmt)

    n, k = len(cat.states), len(subsets)
    if n ** k > cap:
        raise CapExceeded("candidate maps from the lifted object", f"{n}^{k}", cap)
    hx = hausdorff_object(cat)
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
    c = _load_checked_coalgebra(coalgebra_path)
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
