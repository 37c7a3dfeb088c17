"""JSON descriptors for quantales, V-categories, coalgebras and functor
expressions, plus canonical report rendering.

Every descriptor carries a ``schema`` version field and unknown fields are
rejected, so golden files stay stable.
"""

import json
import math
from json.encoder import encode_basestring_ascii as _quote

from .coalg import Coalgebra, Const, HComp, Id, Prod, Sum, normalize_term, require_carrier
from .errors import DescriptorError, require_fields
from .quantale import Quantale
from .vcat import VCategory

QUANTALE_SCHEMA = "quantale/1"
VCATEGORY_SCHEMA = "vcategory/1"
COALGEBRA_SCHEMA = "coalgebra/1"
SET_COALGEBRA_SCHEMA = "setcoalgebra/1"
REPORT_SCHEMA = "report/1"


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
    if len(leq_rows) != len(els) or len(tensor_rows) != len(els):
        raise DescriptorError("leq/tensor tables do not match the element list")
    if any(not isinstance(row, list) or len(row) > len(els)
           for row in leq_rows + tensor_rows):
        raise DescriptorError("leq/tensor rows must be arrays no longer than the element list")
    _require_ids(els, "element id")
    ids = set(els)
    stray = next((cell for row in tensor_rows for cell in row
                  if isinstance(cell, (list, dict)) or cell not in ids), None)
    if stray is not None:
        raise DescriptorError(f"tensor value {json.dumps(stray)} is not an element id")
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
    return VCategory(q, states, [[q.parse(v) for v in row] for row in rows])


def load_functor(spec, quantale):
    """Functor AST from nested objects: id, const, prod, sum, H."""
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
        return Const(cat)
    if key == "prod":
        return Prod([load_functor(p, quantale) for p in body])
    if key == "sum":
        return Sum([load_functor(p, quantale) for p in body])
    return HComp(load_functor(body, quantale))


def load_term(expr, spec, carrier):
    """A term of F(carrier) from JSON; ``carrier`` is a V-category or a state list."""
    return expr.load(spec, carrier)


def dump_term(expr, term, quantale):
    return expr.dump(term)


def coalgebra_carrier(spec):
    """The carrier of a coalgebra descriptor, after its fields are checked.
    It is loaded without the terms, which up-closing can read only in a
    lawful carrier."""
    require_fields(spec, ("schema", "functor", "category", "structure"),
                   what="coalgebra")
    if spec["schema"] != COALGEBRA_SCHEMA:
        raise DescriptorError(f"unsupported coalgebra schema {spec['schema']!r}")
    return load_vcategory(spec["category"])


def load_coalgebra(spec):
    """Coalgebra descriptor; set payloads are canonicalized by up-closing."""
    carrier = coalgebra_carrier(spec)
    expr = load_functor(spec["functor"], carrier.quantale)
    raw = _structure(spec, carrier.states, "carrier states")
    structure = {s: normalize_term(expr, carrier, load_term(expr, t, carrier))
                 for s, t in raw.items()}
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
        # checked before load_coalgebra up-closes the leg's terms in it
        require_carrier(coalgebra_carrier(leg["coalgebra"]), f"cone leg {k}")
        target = load_coalgebra(leg["coalgebra"])
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
