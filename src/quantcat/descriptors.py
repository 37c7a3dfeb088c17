"""JSON descriptors for quantales, V-categories, coalgebras and functor
expressions, plus canonical report rendering.

Every descriptor carries a ``schema`` version field and unknown fields are
rejected, so golden files stay stable.  This module is the one reader of
the format: it decodes files and inline options, checks shapes, field
types and ids, and returns loaded objects.
"""

import json
import math
from json.encoder import encode_basestring_ascii as _quote

from .coalg import Coalgebra, Const, HComp, Id, Prod, Sum, _normal_form, require_carrier
from .errors import DescriptorError, LawFailure, require_fields
from .quantale import CHAIN_LENGTH_BOUND, Quantale
from .vcat import VCategory

QUANTALE_SCHEMA = "quantale/1"
VCATEGORY_SCHEMA = "vcategory/1"
COALGEBRA_SCHEMA = "coalgebra/1"
SET_COALGEBRA_SCHEMA = "setcoalgebra/1"
REPORT_SCHEMA = "report/1"
# Loaded functors are walked by recursion, a few frames per node.
FUNCTOR_DEPTH_BOUND = 64


def _decode(text, where):
    try:
        return json.loads(text)
    except json.JSONDecodeError as e:
        raise DescriptorError(f"{where}:{e.lineno}:{e.colno}: {e.msg}")
    except RecursionError:
        raise DescriptorError(f"{where}: JSON nests too deeply to decode")


def load_file(path, schema=None):
    """The object in the descriptor file at ``path``, read as ``schema``.
    With no ``schema`` the file's own schema field picks a quantale (a JSON
    string names a built-in), a V-category or a coalgebra.  A coalgebra's
    carrier that is not a V-category is named by ``path``."""
    try:
        with open(path) as fh:
            spec = _decode(fh.read(), path)
    except (OSError, UnicodeDecodeError) as e:
        raise DescriptorError(f"{path}: {e}")
    loaders = {QUANTALE_SCHEMA: load_quantale, VCATEGORY_SCHEMA: load_vcategory,
               COALGEBRA_SCHEMA: lambda spec: _coalgebra(spec, path),
               SET_COALGEBRA_SCHEMA: load_lift}
    if schema is None:
        schema = (QUANTALE_SCHEMA if isinstance(spec, str)
                  else spec.get("schema") if isinstance(spec, dict) else None)
        if schema not in (QUANTALE_SCHEMA, VCATEGORY_SCHEMA, COALGEBRA_SCHEMA):
            raise DescriptorError(f"{path}: unrecognized schema {schema!r}")
    return loaders[schema](spec)


def parse_functor(text, quantale):
    """The functor of a ``--functor`` option: "H" or an inline functor AST."""
    if text == "H":
        return HComp(Id())
    return load_functor(_decode(text, "--functor"), quantale)


def parse_phi(text, category, subsets):
    """The map of a ``--phi`` option, a JSON object from every increasing
    subset, as its sorted states joined by commas, to a state of ``category``."""
    raw = _decode(text, "--phi")
    if not isinstance(raw, dict):
        raise DescriptorError("phi must be a JSON object")
    key = {",".join(subset_to_json(a)): a for a in subsets}
    if len(key) < len(subsets):  # {"a", "b"} and {"a,b"} both join to "a,b"
        raise DescriptorError("phi keys are ambiguous: two subsets join to one key")
    if set(raw) != set(key):
        raise DescriptorError("phi keys do not match the lifted carrier")
    for v in raw.values():
        if isinstance(v, (list, dict)) or v not in category:
            raise DescriptorError(f"phi value {json.dumps(v)} is not a state id")
    return {key[k]: v for k, v in raw.items()}


def _require_ids(values, what):
    """Ids are dictionary keys, so arrays and objects cannot be ids."""
    bad = next((v for v in values if isinstance(v, (list, dict))), None)
    if bad is not None:
        raise DescriptorError(f"{what} {json.dumps(bad)} is not a string, number or null")


def _structure(spec, states, what):
    """The ``structure`` object of a coalgebra descriptor, keyed by ``states``."""
    raw = spec["structure"]
    if not isinstance(raw, dict):
        raise DescriptorError("structure must be a JSON object")
    odd = [s for s in states if not isinstance(s, str)]
    if odd:
        raise DescriptorError(f"structure keys are JSON strings, so {spec['schema']} needs "
                              f"string state ids, not {json.dumps(odd[0])}")
    if set(raw) != set(states):
        raise DescriptorError(f"structure keys do not match the {what}")
    return raw


def load_quantale(spec):
    """A built-in name or an inline quantale descriptor."""
    if isinstance(spec, str):
        return Quantale.by_name(spec)
    require_fields(spec, ("schema", "elements", "leq", "tensor", "unit"),
                   what="quantale")
    if spec["schema"] != QUANTALE_SCHEMA:
        raise DescriptorError(f"unsupported quantale schema {spec['schema']!r}")
    els = spec["elements"]
    leq_rows = spec["leq"]
    tensor_rows = spec["tensor"]
    if not all(isinstance(v, list) for v in (els, leq_rows, tensor_rows)):
        raise DescriptorError("elements, leq and tensor must be JSON arrays")
    if len(els) > CHAIN_LENGTH_BOUND:
        raise DescriptorError(
            f"quantale of {len(els)} elements is over the bound of {CHAIN_LENGTH_BOUND}")
    if len(leq_rows) != len(els) or len(tensor_rows) != len(els):
        raise DescriptorError("leq/tensor tables do not match the element list")
    if any(not isinstance(row, list) or len(row) > len(els)
           for row in leq_rows + tensor_rows):
        raise DescriptorError("leq/tensor rows must be arrays no longer than the element list")
    _require_ids(els, "element id")
    ids = set(els)
    for cell in (cell for row in tensor_rows for cell in row):
        if isinstance(cell, (list, dict)) or cell not in ids:
            raise DescriptorError(f"tensor value {json.dumps(cell)} is not an element id")
    pairs = [
        (els[i], els[j])
        for i, row in enumerate(leq_rows)
        for j, flag in enumerate(row)
        if flag
    ]
    # a short row leaves its last entries out, for Quantale to report missing
    table = {
        (u, w): cell
        for u, row in zip(els, tensor_rows)
        for w, cell in zip(els, row)
    }
    return Quantale.finite(els, pairs, table, spec["unit"])


def load_vcategory(spec):
    require_fields(spec, ("schema", "quantale", "states", "matrix"),
                   what="vcategory")
    if spec["schema"] != VCATEGORY_SCHEMA:
        raise DescriptorError(f"unsupported vcategory schema {spec['schema']!r}")
    q = load_quantale(spec["quantale"])
    states = spec["states"]
    rows = spec["matrix"]
    if not (isinstance(states, list) and isinstance(rows, list)
            and all(isinstance(r, list) for r in rows)):
        raise DescriptorError("states and matrix must be JSON arrays, and each matrix row an array")
    if len(rows) != len(states) or any(len(r) != len(states) for r in rows):
        raise DescriptorError("matrix shape does not match the state list")
    _require_ids(states, "state")
    return VCategory(q, states, [[q.parse(v) for v in row] for row in rows])


def load_functor(spec, quantale):
    """Functor AST from nested objects: id, const, prod, sum, H.  A functor
    that nests deeper than FUNCTOR_DEPTH_BOUND nodes is refused before it
    is read, so no walk over a loaded functor nears the recursion limit."""
    depth = _functor_depth(spec)
    if depth > FUNCTOR_DEPTH_BOUND:
        raise DescriptorError(
            f"functor nests {depth} nodes deep, over the bound of {FUNCTOR_DEPTH_BOUND}")
    return _functor(spec, quantale, "functor")


def _functor_depth(spec):
    """The number of nodes on the longest path of a functor AST in JSON,
    counted without recursion; a malformed node counts as a leaf."""
    deepest, todo = 0, [(spec, 1)]
    while todo:
        node, depth = todo.pop()
        deepest = max(deepest, depth)
        if isinstance(node, dict) and len(node) == 1:
            (key, body), = node.items()
            if key == "H":
                todo.append((body, depth + 1))
            elif key in ("prod", "sum") and isinstance(body, list):
                todo.extend((part, depth + 1) for part in body)
    return deepest


def _functor(spec, quantale, where):
    """The functor node at ``where``, a path such as ``functor.prod[0].H``."""
    require_fields(spec, (), ("id", "const", "prod", "sum", "H"), what="functor")
    if len(spec) != 1:
        raise DescriptorError("functor node must have exactly one key")
    key, body = next(iter(spec.items()))
    if key == "id":
        if body != {}:
            raise DescriptorError("id node takes no body")
        return Id()
    if key == "const":
        cat = load_vcategory(body)
        if cat.quantale != quantale:
            raise DescriptorError("constant category over a different quantale")
        try:
            require_carrier(cat, f"{where}.const")
        except LawFailure as e:  # bad input, not a law of the object under check
            raise DescriptorError(str(e)) from None
        return Const(cat)
    if key == "H":
        return HComp(_functor(body, quantale, f"{where}.H"))
    if not isinstance(body, list):
        raise DescriptorError(f"{key} node body must be a JSON array")
    return (Prod if key == "prod" else Sum)(
        [_functor(p, quantale, f"{where}.{key}[{i}]") for i, p in enumerate(body)])


def load_term(expr, spec, carrier):
    """A term of F(carrier) from JSON; ``carrier`` is a V-category or a state list."""
    return expr.load(spec, carrier)


def dump_term(expr, term, quantale):
    return expr.dump(term)


def load_coalgebra(spec):
    """Coalgebra descriptor.  Set payloads are canonicalized by up-closing in
    the carrier, so the carrier is refused first unless it is a V-category."""
    return _coalgebra(spec, "coalgebra")


def _coalgebra(spec, where):
    require_fields(spec, ("schema", "functor", "category", "structure"),
                   what="coalgebra")
    if spec["schema"] != COALGEBRA_SCHEMA:
        raise DescriptorError(f"unsupported coalgebra schema {spec['schema']!r}")
    carrier = require_carrier(load_vcategory(spec["category"]), f"{where} carrier")
    expr = load_functor(spec["functor"], carrier.quantale)
    raw = _structure(spec, carrier.states, "carrier states")
    normal = _normal_form(expr, carrier)
    structure = {s: normal(load_term(expr, t, carrier)) for s, t in raw.items()}
    return Coalgebra(expr, carrier, structure)


def load_set_coalgebra(spec):
    """Set-level coalgebra: a functor, a quantale, bare states, and terms."""
    require_fields(spec, ("schema", "functor", "quantale", "states", "structure"),
                   what="set coalgebra")
    if spec["schema"] != SET_COALGEBRA_SCHEMA:
        raise DescriptorError(f"unsupported schema {spec['schema']!r}")
    q = load_quantale(spec["quantale"])
    expr = load_functor(spec["functor"], q)
    states = spec["states"]
    if not isinstance(states, list):
        raise DescriptorError("states must be a JSON array")
    _require_ids(states, "state")
    if len(set(states)) != len(states):
        raise DescriptorError("duplicate state ids")
    raw = _structure(spec, states, "state list")
    structure = {s: load_term(expr, raw[s], states) for s in states}
    return expr, q, tuple(states), structure


def load_lift(spec):
    """A set-level coalgebra descriptor with an optional ``cone``: a list
    of legs, each a coalgebra descriptor and a ``mapping`` object from
    every state to a state of that coalgebra.  Returns the tuple of
    load_set_coalgebra and the cone as (mapping list, Coalgebra) pairs."""
    legs = []
    if isinstance(spec, dict) and "cone" in spec:
        spec = dict(spec)
        legs = spec.pop("cone")
    expr, q, states, structure = load_set_coalgebra(spec)
    if not isinstance(legs, list):
        raise DescriptorError("cone must be a JSON array")
    cone = []
    for k, leg in enumerate(legs):
        require_fields(leg, ("mapping", "coalgebra"), what="cone leg")
        target = _coalgebra(leg["coalgebra"], f"cone leg {k}")
        raw = leg["mapping"]
        if not isinstance(raw, dict):
            raise DescriptorError("cone leg mapping must be a JSON object")
        missing = [s for s in states if s not in raw]
        if missing:
            raise DescriptorError(f"cone leg mapping misses states {missing}")
        mapping = [raw[s] for s in states]
        stray = [t for t in mapping if t not in target.carrier.states]
        if stray:
            raise DescriptorError(f"cone leg maps to states its coalgebra lacks: {stray}")
        cone.append((mapping, target))
    return expr, q, states, structure, cone


def subset_to_json(subset):
    return sorted(str(s) for s in subset)


def canonical_json(obj):
    """Deterministic rendering: insertion order preserved, newline-terminated.

    The bytes are those of ``json.dumps(obj, indent=2, ensure_ascii=True,
    default=str) + "\\n"``, which the tests keep as the oracle.  json only
    uses its C encoder without ``indent``, so the indented layout is
    rendered here, with json's own string escaping.
    """
    out = []
    _render(obj, "\n", out.append)
    out.append("\n")
    return "".join(out)


def _render(o, nl, emit):
    """Append the indent-2 JSON of ``o`` at the line prefix ``nl``.  String
    items, the most common leaves, are emitted together with their
    separator."""
    if isinstance(o, (list, tuple)):
        if not o:
            emit("[]")
            return
        inner = nl + "  "
        sep = "[" + inner
        for v in o:
            if type(v) is str:
                emit(sep + _quote(v))
            else:
                emit(sep)
                _render(v, inner, emit)
            sep = "," + inner
        emit(nl + "]")
    elif isinstance(o, dict):
        if not o:
            emit("{}")
            return
        inner = nl + "  "
        sep = "{" + inner
        for k, v in o.items():
            head = sep + _quote(k if type(k) is str else _key(k)) + ": "
            if type(v) is str:
                emit(head + _quote(v))
            else:
                emit(head)
                _render(v, inner, emit)
            sep = "," + inner
        emit(nl + "}")
    else:
        emit(_scalar(o))


def _scalar(o):
    if isinstance(o, str):
        return _quote(o)
    if o is None:
        return "null"
    if o is True:
        return "true"
    if o is False:
        return "false"
    if isinstance(o, int):
        return int.__repr__(o)
    if isinstance(o, float):
        if o != o:
            return "NaN"
        if o == math.inf:
            return "Infinity"
        if o == -math.inf:
            return "-Infinity"
        return float.__repr__(o)
    return _quote(str(o))  # default=str


def _key(k):
    """json's spelling of a key: a string as it is, any other scalar as its
    JSON text; json rejects every other key."""
    if isinstance(k, str):
        return k
    if k is None or isinstance(k, (int, float)):
        return _scalar(k)
    raise TypeError(f"keys must be str, int, float, bool or None, not {type(k).__name__}")
