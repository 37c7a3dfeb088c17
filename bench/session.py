"""The long-lived process of the ``session`` workload.

    python3 bench/session.py POOL_FILE TRACE_FILE|-

Loads the pool of carrier descriptors through quantcat.descriptors, prints
"ready", then reads one JSON operation per line from stdin and answers
each with one JSON line: the seconds the operation took and the report it
rendered with ``canonical_json`` (or the error it raised).  With a trace
file, spans are recorded and written there when stdin closes.

The child needs the checkout's ``src`` directory on PYTHONPATH.
"""

import json
import sys
import time
from itertools import product as iproduct

import tracing


class Session:
    """Runs the operations.  Library calls go through module attributes,
    so that wrappers installed before construction see them."""

    def __init__(self, pool_specs):
        from quantcat import coalg, descriptors, hausdorff, vcat

        self.ds, self.coalg, self.hd, self.vcat = descriptors, coalg, hausdorff, vcat
        self.pool = [descriptors.load_vcategory(spec) for spec in pool_specs]

    def coalgebra(self, carrier, functor, structure):
        """Like descriptors.load_coalgebra, on an already loaded carrier."""
        expr = self.ds.load_functor(functor, carrier.quantale)
        terms = {s: self.coalg.normalize_term(expr, carrier, self.ds.load_term(expr, t, carrier))
                 for s, t in structure.items()}
        return self.coalg.Coalgebra(expr, carrier, terms)

    def equalizer(self, op):
        base = self.coalgebra(self.pool[op["carrier"]], op["functor"], op["base"])
        cx = self.ds.load_coalgebra(op["double"])
        f = self.vcat.VFunctor.from_dict(cx.carrier, base.carrier, op["left"])
        g = self.vcat.VFunctor.from_dict(cx.carrier, base.carrier, op["right"])
        homs = [self.coalg.is_coalg_hom(f, cx, base), self.coalg.is_coalg_hom(g, cx, base)]
        sub, _ = self.coalg.equalizer(cx, f, g)
        q = sub.carrier.quantale
        return {"homs": homs, "carrier": list(sub.carrier.states),
                "structure": {s: self.ds.dump_term(sub.functor, sub.structure[s], q)
                              for s in sub.carrier.states}}

    def lift(self, op):
        expr, q, states, structure = self.ds.load_set_coalgebra(op["set"])
        cone = []
        if "leg" in op:
            leg = self.coalgebra(self.pool[op["carrier"]], op["set"]["functor"], op["leg"])
            cone.append((list(states), leg))
        out = self.coalg.initial_lift_coalgebra(expr, q, states, structure, cone=cone)
        return {"matrix": [[q.format(v) for v in row] for row in out.carrier.matrix]}

    def cantor(self, op):
        x = self.pool[op["carrier"]]
        q = x.quantale
        hx = self.hd.hausdorff_object(x)
        verdicts = []
        for images in iproduct(x.states, repeat=len(hx.elements)):
            v = self.hd.cantor_check(x, list(images), hx=hx)
            out = {"kind": v.kind, "subsets": [self.ds.subset_to_json(s) for s in v.subsets]}
            if v.point is not None:
                out["point"] = v.point
            if v.values is not None:
                out["values"] = [q.format(val) for val in v.values]
            verdicts.append(out)
        return {"elements": [self.ds.subset_to_json(a) for a in hx.elements],
                "verdicts": verdicts}

    def distance(self, op):
        c = self.coalgebra(self.pool[op["carrier"]], op["functor"], op["structure"])
        q = c.carrier.quantale
        rows = [{"from": x, "to": y,
                 "distances": [q.format(v) for v in
                               self.coalg.behavioral_distance(c, x, y, op["depth"])]}
                for x in c.carrier.states for y in c.carrier.states]
        return {"table": rows}

    def fibre_join(self, op):
        raw = self.ds.load_vcategory(op["raw"])
        out = self.vcat.fibre_join([self.pool[op["carrier"]], raw])
        q = out.quantale
        return {"matrix": [[q.format(v) for v in row] for row in out.matrix]}

    def run(self, op):
        body = getattr(self, op["kind"])(op)
        return self.ds.canonical_json(body)


def main(argv):
    pool_path, trace_path = argv
    rec = None
    if trace_path != "-":
        rec = tracing.import_traced()
    else:
        import quantcat.cli  # noqa: F401
    with open(pool_path) as fh:
        pool_specs = json.load(fh)
    with tracing.span(rec, "session.setup"):
        session = Session(pool_specs)
    print("ready", flush=True)
    try:
        for line in sys.stdin:
            op = json.loads(line)
            if rec is not None:
                rec.op_id += 1
            t0 = time.perf_counter()
            try:
                with tracing.span(rec, f"session.{op['kind']}"):
                    reply = {"report": session.run(op)}
            except Exception as e:  # reported back and counted as a failed operation
                reply = {"error": f"{type(e).__name__}: {e}"}
            reply["seconds"] = time.perf_counter() - t0
            sys.stdout.write(json.dumps(reply) + "\n")
            sys.stdout.flush()
    finally:
        if rec is not None:
            rec.write(trace_path)


if __name__ == "__main__":
    main(sys.argv[1:])
