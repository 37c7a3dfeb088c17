"""Seeded inputs and output checks for the four workloads.

Every input comes from ``random.Random(f"{workload}:{seed}")``, so one
seed gives the same inputs; the program sees only the generated files and
operations.  Each check compares an output with a computation from
``oracles``, never with a saved copy of an earlier output.
"""

import json
import random
from itertools import product as iproduct

import oracles as orc

H = {"H": {"id": {}}}
ID = {"id": {}}
BUILTINS = ("bool", "godel:3", "lukasiewicz:3", "lawvere")


class CliOp:
    """One quantcat command line and the check of what it printed."""

    def __init__(self, label, args, check):
        self.label = label
        self.args = args
        self.check = check  # (stdout text) -> list of problems


def _write(work, name, obj):
    path = work / name
    path.write_text(json.dumps(obj))
    return str(path)


def _report(out, command):
    rep = json.loads(out)
    problems = []
    if rep.get("schema") != "report/1" or rep.get("command") != command:
        problems.append(f"not a {command} report")
    if rep.get("ok") is not True:
        problems.append(f"{command} report says ok={rep.get('ok')!r}")
    return rep, problems


def vcategory(quantale, states, matrix):
    return {"schema": "vcategory/1", "quantale": quantale, "states": list(states),
            "matrix": matrix}


def coalgebra(functor, category, structure):
    return {"schema": "coalgebra/1", "functor": functor, "category": category,
            "structure": structure}


def random_subset(rng, states, p):
    return [s for s in states if rng.random() < p]


# -- selfcheck ------------------------------------------------------------------


class Selfcheck:
    """``quantcat selfcheck`` on three seeds drawn from the benchmark seed,
    then the first seed again, whose report must repeat byte for byte."""

    CASES = 200

    def __init__(self, seed, work):
        rng = random.Random(f"selfcheck:{seed}")
        self.seeds = [rng.randrange(1 << 31) for _ in range(3)]

    def round(self):
        first = {}

        def check(s):
            def run(out):
                rep, problems = _report(out, "selfcheck")
                if rep.get("seed") != s or rep.get("cases") != self.CASES:
                    problems.append("report for the wrong seed or case count")
                if len(rep.get("suites", ())) != 6:
                    problems.append("expected six suites")
                problems += [f"suite {r['suite']} failed" for r in rep.get("suites", ())
                             if not r["passed"] or r["failures"]]
                if first.setdefault(s, out) != out:
                    problems.append(f"two reports for seed {s} differ")
                return problems
            return run

        return [CliOp(f"selfcheck {s}", ["selfcheck", "--seed", str(s), "--cases", str(self.CASES)],
                      check(s))
                for s in self.seeds + self.seeds[:1]]


# -- omega ----------------------------------------------------------------------


def _check_chain_levels(depth):
    def run(out):
        rep, problems = _report(out, "chain")
        if rep.get("sizes") != list(range(1, depth + 2)):
            problems.append(f"chain sizes {rep.get('sizes')} are not 1..{depth + 1}")
        return problems
    return run


def _check_omega_verify(depth):
    def run(out):
        rep, problems = _report(out, "omega-verify")
        laws = rep.get("laws", [])
        if rep.get("depth") != depth or len(laws) != 3 or not all(e["passed"] for e in laws):
            problems.append(f"omega-verify laws {laws}")
        return problems
    return run


def ordered_h_coalgebra(rng, n):
    """A Boolean H(Id) coalgebra on a random order.  Successor sets are
    unions of up-sets taken over everything above a state, so the
    structure map is monotone; some draws reach back to make cycles."""
    states = [f"s{i}" for i in range(n)]
    above = [{i} | {j for j in range(i + 1, n) if rng.random() < 0.25} for i in range(n)]
    for i in reversed(range(n)):
        for j in list(above[i]):
            above[i] |= above[j]
    spec = vcategory("bool", states, [["1" if j in above[i] else "0" for j in range(n)]
                                      for i in range(n)])
    cat = orc.Cat(spec)
    ups = [set(orc.up_closure(cat, [s for j, s in enumerate(states)
                                    if rng.random() < (0.3 if j > i else 0.06)]))
           for i in range(n)]
    structure = {s: [t for t in states if any(t in ups[j] for j in above[i])]
                 for i, s in enumerate(states)}
    if not orc.is_structure_monotone(H, cat, structure):
        raise AssertionError("generated H-coalgebra is not monotone")
    return coalgebra(H, spec, structure)


class Omega:
    """omega-verify on both sides of the 14-state sweep limit, the final
    chain of H over bool, and ana on seeded ordered H-coalgebras."""

    VERIFY_DEPTHS = (13, 24)
    CHAIN_DEPTH = 12
    ANA = 2
    ANA_STATES = 8

    def __init__(self, seed, work):
        rng = random.Random(f"omega:{seed}")
        self.ana = []
        for k in range(self.ANA):
            spec = ordered_h_coalgebra(rng, self.ANA_STATES)
            self.ana.append((_write(work, f"ana{k}.json", spec), orc.ana_values(spec["structure"])))

    def round(self):
        ops = [CliOp(f"omega-verify {d}", ["omega-verify", "--depth", str(d)], _check_omega_verify(d))
               for d in self.VERIFY_DEPTHS]
        ops.append(CliOp("chain", ["chain", "--functor", "H", "--quantale", "bool",
                                   "--depth", str(self.CHAIN_DEPTH)],
                         _check_chain_levels(self.CHAIN_DEPTH)))
        for path, want in self.ana:
            def check(out, want=want):
                rep, problems = _report(out, "ana")
                if rep.get("behavior") != want:
                    problems.append(f"ana {rep.get('behavior')} != longest paths {want}")
                return problems
            ops.append(CliOp("ana", ["ana", "--coalgebra", path], check))
        return ops


# -- behave ---------------------------------------------------------------------


def discrete(quantale, states):
    q = orc.Chain(quantale)
    return vcategory(quantale, states, [[q.format(q.unit if i == j else q.bottom)
                                         for j in range(len(states))]
                                        for i in range(len(states))])


def labels(quantale):
    """A two-point constant category over the quantale: the chain l0 < l1,
    or the line {0, 1} over Lawvere."""
    if quantale == "lawvere":
        return vcategory("lawvere", ["0", "1"], [["0", "1"], ["1", "0"]])
    return vcategory(quantale, ["l0", "l1"], [["1", "1"], ["0", "1"]])


def _check_behave(spec, depth):
    cat = orc.Cat(spec["category"])
    tables = orc.distance_tables(spec["functor"], cat, spec["structure"], depth)

    def run(out):
        rep, problems = _report(out, "behave")
        if rep.get("depth") != depth:
            problems.append("wrong depth")
        return problems + orc.check_distance_rows(cat.q, rep.get("table", []), tables)
    return run


class Behave:
    """All-pairs distance tables: two discrete Boolean H(Id) coalgebras at
    depth 6 and one Prod([Const(line {0,1}), H(Id)]) coalgebra over
    Lawvere at depth 3."""

    H_STATES = 9
    H_DEPTH = 6
    LAWVERE_STATES = 4
    LAWVERE_DEPTH = 3

    def __init__(self, seed, work):
        rng = random.Random(f"behave:{seed}")
        self.cases = []
        for k in range(2):
            states = [f"s{i}" for i in range(self.H_STATES)]
            spec = coalgebra(H, discrete("bool", states),
                             {s: random_subset(rng, states, 0.35) for s in states})
            self.cases.append((f"h{k}", spec, self.H_DEPTH))
        states = [f"x{i}" for i in range(self.LAWVERE_STATES)]
        functor = {"prod": [{"const": labels("lawvere")}, H]}
        spec = coalgebra(functor, discrete("lawvere", states),
                         {s: [rng.choice(["0", "1"]), random_subset(rng, states, 0.4)]
                          for s in states})
        self.cases.append(("lawvere", spec, self.LAWVERE_DEPTH))
        self.ops = [CliOp(f"behave {name}",
                          ["behave", "--coalgebra", _write(work, f"{name}.json", spec),
                           "--depth", str(depth)],
                          _check_behave(spec, depth))
                    for name, spec, depth in self.cases]

    def round(self):
        return self.ops


# -- session --------------------------------------------------------------------

# Five invocations that must exit 2 with a report/1 error on stderr.  Their
# inputs do not depend on the seed.
def malformed_invocations(work):
    chain2 = _write(work, "chain2.json", vcategory("bool", ["u", "v"], [["1", "1"], ["0", "1"]]))
    list_state = _write(work, "list_state.json",
                        vcategory("bool", [["a"], "b"], [["1", "0"], ["0", "1"]]))
    no_category = _write(work, "no_category.json",
                         {"schema": "coalgebra/1", "functor": H, "structure": {"a": []}})
    return [
        ("chain --functor '{bad'", ["chain", "--functor", "{bad", "--depth", "2"]),
        ("cantor --phi nope", ["cantor", "--category", chain2, "--phi", "nope"]),
        ("chain --depth -1", ["chain", "--depth", "-1"]),
        ("list-valued state", ["check", list_state]),
        ("coalgebra without category", ["behave", "--coalgebra", no_category, "--depth", "1"]),
    ]


def judge_malformed(rc, stderr):
    """Pass: exit 2, a report/1 error JSON on stderr, no traceback."""
    if rc != 2 or "Traceback" in stderr:
        return False
    try:
        err = json.loads(stderr)
    except ValueError:
        return False
    return isinstance(err, dict) and err.get("schema") == "report/1" and "error" in err


def random_carrier(rng, quantale, n):
    q = orc.Chain(quantale)
    raw = [[q.unit if i == j else (q.bottom if rng.random() < 0.5 else rng.choice(q.elements))
            for j in range(n)] for i in range(n)]
    m = orc.closure(q, [raw])
    return vcategory(quantale, [f"s{i}" for i in range(n)],
                     [[q.format(v) for v in row] for row in m])


def random_structure(rng, functor, cat):
    """A random monotone structure map; constant maps are always monotone
    since every built-in unit is the top."""
    ts = orc.terms(functor, cat)
    for _ in range(20):
        structure = {s: rng.choice(ts) for s in cat.states}
        if orc.is_structure_monotone(functor, cat, structure):
            return structure
    t = rng.choice(ts)
    return {s: t for s in cat.states}


class Session:
    """A seeded stream of small library operations on a shared pool of
    carriers, run in one long-lived process, plus the malformed
    invocations through the CLI."""

    ROUND = (("equalizer", 60), ("lift", 60), ("cantor", 30), ("distance", 150), ("fibre_join", 150))
    CANTOR_MAP_CAP = 256

    def __init__(self, seed, work):
        self.rng = rng = random.Random(f"session:{seed}")
        self.pool = [random_carrier(rng, q, n) for q in BUILTINS for n in (2, 3, 3, 4, 4, 5)]
        self.pool_path = _write(work, "pool.json", self.pool)
        self.cats = [orc.Cat(spec) for spec in self.pool]
        finite = [i for i, c in enumerate(self.cats) if c.q.name in ("bool", "godel:3")]
        self.eligible = {
            "equalizer": [i for i in finite if len(self.cats[i].states) <= 3],
            "lift": [i for i in finite if len(self.cats[i].states) == 2],
            "cantor": [i for i in finite if len(self.cats[i].states) ** len(
                orc.increasing_subsets(self.cats[i])) <= self.CANTOR_MAP_CAP],
            "distance": list(range(len(self.pool))),
            "fibre_join": list(range(len(self.pool))),
        }
        self.malformed = malformed_invocations(work)
        self.used = set()
        self.reused = 0
        self.with_carrier = 0

    def round(self):
        """The next operations of the stream: (op, check) pairs, where
        check takes the parsed report and returns a list of problems."""
        kinds = [k for k, count in self.ROUND for _ in range(count)]
        self.rng.shuffle(kinds)
        ops = []
        for kind in kinds:
            op, check = getattr(self, f"_{kind}")(self.rng.choice(self.eligible[kind]))
            if op["carrier"] is not None:
                self.with_carrier += 1
                self.reused += op["carrier"] in self.used
                self.used.add(op["carrier"])
            ops.append((op, check))
        return ops

    def _equalizer(self, idx):
        rng, spec, cat = self.rng, self.pool[idx], self.cats[idx]
        functor = rng.choice([H, ID, {"prod": [{"const": labels(cat.q.name)}, ID]},
                              {"sum": [{"const": labels(cat.q.name)}, ID]}])
        base = random_structure(rng, functor, cat)
        homs = []
        for images in iproduct(cat.states, repeat=len(cat.states)):
            e = dict(zip(cat.states, images))
            if all(cat.q.leq(cat.a(s, t), cat.a(e[s], e[t])) for s in cat.states for t in cat.states) \
                    and all(orc.normalize(functor, cat, orc.map_term(functor, e.get, base[s]))
                            == base[e[s]] for s in cat.states):
                homs.append(e)
        e = rng.choice(homs)
        states = [f"{s}_{i}" for i in (0, 1) for s in cat.states]
        n = len(cat.states)
        bottom = cat.q.format(cat.q.bottom)
        double = vcategory(cat.q.name, states,
                           [[spec["matrix"][i % n][j % n] if i // n == j // n else bottom
                             for j in range(2 * n)] for i in range(2 * n)])
        dcat = orc.Cat(double)
        structure = {f"{s}_{i}": orc.normalize(functor, dcat, orc.map_term(
                         functor, lambda t, i=i: f"{t}_{i}", base[s]))
                     for i in (0, 1) for s in cat.states}
        left = {f"{s}_{i}": s for i in (0, 1) for s in cat.states}
        right = {f"{s}_0": s for s in cat.states} | {f"{s}_1": e[s] for s in cat.states}
        want = orc.largest_equalizing_subset(functor, dcat, structure, left, right)

        def check(rep):
            problems = []
            if rep["homs"] != [True, True]:
                problems.append(f"homomorphisms rejected: {rep['homs']}")
            if want is None or rep["carrier"] != want:
                problems.append(f"equalizer {rep['carrier']} != largest agreeing {want}")
            return problems

        op = {"kind": "equalizer", "carrier": idx, "functor": functor, "base": base,
              "double": coalgebra(functor, double, structure), "left": left, "right": right}
        return op, check

    def _lift(self, idx):
        """A set-level coalgebra on two states.  With a cone leg on the pool
        carrier the leg's own carrier is the answer; without one the descent
        starts from the top and has work to do."""
        rng, cat = self.rng, self.cats[idx]
        states = cat.states
        lab = {"const": labels(cat.q.name)}
        functor = rng.choice([ID, {"prod": [lab, ID]}, H])
        op = {"kind": "lift", "carrier": None}
        leg = None
        if rng.random() < 0.5:
            structure = random_structure(rng, functor, cat)
            op["carrier"], op["leg"], leg = idx, structure, cat
        else:
            structure = {s: self._set_term(functor, states, lab) for s in states}
        want = orc.greatest_lift(cat.q, functor, states, structure, leg)
        op["set"] = {"schema": "setcoalgebra/1", "functor": functor, "quantale": cat.q.name,
                     "states": states, "structure": structure}

        def check(rep):
            got = [[cat.q.parse(v) for v in row] for row in rep["matrix"]]
            return [] if got == want else [f"lift {rep['matrix']} != greatest admissible {want}"]

        return op, check

    def _set_term(self, functor, states, lab):
        if functor is ID:
            return self.rng.choice(states)
        if functor is H:
            return random_subset(self.rng, states, 0.5)
        return [self.rng.choice(lab["const"]["states"]), self.rng.choice(states)]

    def _cantor(self, idx):
        cat = self.cats[idx]
        return ({"kind": "cantor", "carrier": idx},
                lambda rep: orc.check_cantor(cat, rep["elements"], rep["verdicts"]))

    def _distance(self, idx):
        cat = self.cats[idx]
        lab = {"const": labels(cat.q.name)}
        functor, depth = self.rng.choice([(H, 3), ({"prod": [lab, H]}, 2), ({"sum": [lab, H]}, 2),
                                          ({"prod": [lab, ID]}, 4), ({"sum": [lab, ID]}, 4)])
        structure = random_structure(self.rng, functor, cat)
        tables = orc.distance_tables(functor, cat, structure, depth)
        op = {"kind": "distance", "carrier": idx, "functor": functor,
              "structure": structure, "depth": depth}
        return op, lambda rep: orc.check_distance_rows(cat.q, rep["table"], tables)

    def _fibre_join(self, idx):
        cat = self.cats[idx]
        q = cat.q
        raw = [[self.rng.choice(q.elements) for _ in cat.states] for _ in cat.states]
        want = orc.closure(q, [cat.m, raw])

        def check(rep):
            got = [[q.parse(v) for v in row] for row in rep["matrix"]]
            return [] if got == want else [f"fibre join {rep['matrix']} != closure"]

        raw_spec = vcategory(q.name, cat.states, [[q.format(v) for v in row] for row in raw])
        return {"kind": "fibre_join", "carrier": idx, "raw": raw_spec}, check


WORKLOADS = {"selfcheck": Selfcheck, "omega": Omega, "behave": Behave, "session": Session}
