"""Compare benchmark results, workload by workload.

    python3 bench/compare.py BASE.jsonl [CHANGE.jsonl]

Each file holds one result per line: the last line that bench/run.py
printed (for ``--workload all``, one object keyed by workload).  Lines of
the two files pair up in order, so run the two commits alternately and
append each result to its own file.  With one file, print each metric's
median, quartiles and spread (quartile distance over median).  With two,
also count the pairs the change wins and apply the rule in
bench/README.md; for traced results, rank the layers by how far their
self time moved.
"""

import json
import statistics
import sys
from pathlib import Path

SPEC = json.loads((Path(__file__).resolve().parent.parent / "BENCHMARK.json").read_text())
BETTER = {m["name"]: m["better"] for m in SPEC["end_to_end"] + SPEC["per_layer"]}
BOUND = {m["name"]: m["bound"] for m in SPEC["end_to_end"]}


def load(path):
    """{workload: [result, ...]} in file order."""
    runs = {}
    for line in Path(path).read_text().splitlines():
        if not line.strip():
            continue
        obj = json.loads(line)
        for name, result in (obj.items() if "metrics" not in obj else [("-", obj)]):
            runs.setdefault(name, []).append(result)
    return runs


def summary(values):
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, med, q3 = statistics.quantiles(values, n=4)
    return q1, statistics.median(values), q3


def worse(metric, change, base):
    """How much worse change is than base, as a share of base."""
    if base == 0:
        return 0.0
    delta = (change - base) / base
    return delta if BETTER.get(metric, "lower") == "lower" else -delta


def compare_workload(name, base, change):
    print(f"== {name}: {len(base)} base runs" + (f", {len(change)} change runs" if change else ""))
    for result in (base, change or []):
        failed = {(r["failed"], r["attempted"]) for r in result}
        if not all(r["correct"] for r in result):
            print("   some runs report correct=false")
        if len({f / a for f, a in failed}) > 1:
            print(f"   failed share differs between runs: {sorted(failed)}")
    moved = []
    for metric in base[0]["metrics"]:
        unit = base[0]["metrics"][metric]["unit"]
        b = [r["metrics"][metric]["value"] for r in base]
        bq1, bmed, bq3 = summary(b)
        spread = (bq3 - bq1) / bmed if bmed else 0.0
        line = f"   {metric:34s} {bmed:11.5g} {unit:6s} [{bq1:.5g}, {bq3:.5g}] spread {spread:.3f}"
        if not change:
            print(line)
            continue
        c = [r["metrics"][metric]["value"] for r in change]
        cq1, cmed, cq3 = summary(c)
        pairs = list(zip(b, c))
        wins = sum(worse(metric, cv, bv) < 0 for bv, cv in pairs)
        verdict = ""
        if metric in BOUND:
            if wins >= 0.9 * len(pairs) and abs(cmed - bmed) > bq3 - bq1:
                verdict = "GAIN"
            elif worse(metric, cmed, bmed) > BOUND[metric]:
                verdict = "REGRESSION"
            elif spread > BOUND[metric] and not all(worse(metric, cv, bv) < 0 for bv, cv in pairs):
                verdict = "unresolved"
            else:
                verdict = "within bound"
        print(f"{line} -> {cmed:.5g} [{cq1:.5g}, {cq3:.5g}] wins {wins}/{len(pairs)} {verdict}")
        if metric.endswith(".self_s"):
            moved.append((abs(cmed - bmed), metric, cmed - bmed))
    for _, metric, delta in sorted(moved, reverse=True)[:3]:
        print(f"   self time moved: {metric} {delta:+.4g} s per round")


def main(argv):
    if len(argv) not in (1, 2):
        sys.exit(__doc__)
    base = load(argv[0])
    change = load(argv[1]) if len(argv) == 2 else {}
    for name, runs in base.items():
        compare_workload(name, runs, change.get(name))


if __name__ == "__main__":
    main(sys.argv[1:])
