"""The quantcat benchmark.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 bench/run.py --workload all ...      every workload in turn

Run from the root of a checkout.  The benchmark measures the program in
``src/`` as it is: each CLI operation runs in a fresh interpreter, one at
a time (a closed loop with one client), and the ``session`` workload
drives one long-lived library process.  A run repeats whole rounds of the
workload's fixed operations until the next round would pass S seconds,
checks every output against an independent computation, and prints as
its last line one JSON object with ``correct``, ``attempted``, ``failed``
and ``metrics``: the end-to-end metrics with --trace 0, the per-layer
metrics from a traced run with --trace 1.  See bench/README.md.
"""

import argparse
import json
import os
import select
import selectors
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import tracing
import workloads

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SETUP_SAMPLES = 11
RUN_LIMIT_S = 170


class BenchError(Exception):
    """The harness could not complete a run."""


class Child:
    """A finished child process: exit code, output and wall seconds."""

    def __init__(self, rc, out, err, seconds):
        self.rc, self.out, self.err, self.seconds = rc, out, err, seconds


def _env():
    env = dict(os.environ)
    src = str(ROOT / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


def _reap(proc):
    """Wait for the child and return its peak resident set in MiB."""
    _, status, usage = os.wait4(proc.pid, 0)
    proc.returncode = os.waitstatus_to_exitcode(status)
    return usage.ru_maxrss / 1024


class Harness:
    """Runs child processes, keeps the run's deadline and peak memory,
    and collects span files in traced runs."""

    def __init__(self, work, trace):
        self.work = work
        self.trace = trace
        self.deadline = time.monotonic() + RUN_LIMIT_S
        self.peak_rss = 0.0
        self.totals = tracing.Totals()
        self._traces = 0
        self._pending = []

    def trace_path(self):
        """A fresh span file name; ``expect`` it once the child will write it."""
        self._traces += 1
        return self.work / f"trace-{self._traces}.bin"

    def expect(self, path):
        self._pending.append(path)

    def collect(self):
        """Add every written span file to the totals (outside timed regions)."""
        for path in self._pending:
            self.totals.add_file(path)
            path.unlink()
        self._pending = []

    def run(self, argv):
        """Run a child to completion, reading both pipes."""
        t0 = time.perf_counter()
        proc = subprocess.Popen(argv, stdin=subprocess.DEVNULL, stdout=subprocess.PIPE,
                                stderr=subprocess.PIPE, env=_env(), cwd=ROOT)
        bufs = {proc.stdout: bytearray(), proc.stderr: bytearray()}
        with selectors.DefaultSelector() as sel:
            for pipe in bufs:
                sel.register(pipe, selectors.EVENT_READ)
            while sel.get_map():
                remaining = self.deadline - time.monotonic()
                if remaining <= 0:
                    proc.kill()
                    _reap(proc)
                    raise BenchError(f"run limit reached during {argv[-4:]}")
                for key, _ in sel.select(remaining):
                    data = os.read(key.fd, 1 << 16)
                    if data:
                        bufs[key.fileobj].extend(data)
                    else:
                        sel.unregister(key.fileobj)
                        key.fileobj.close()
        self.peak_rss = max(self.peak_rss, _reap(proc))
        seconds = time.perf_counter() - t0
        return Child(proc.returncode, bufs[proc.stdout].decode(), bufs[proc.stderr].decode(),
                     seconds)

    def quantcat(self, args):
        """One CLI operation in a fresh interpreter."""
        if not self.trace:
            return self.run([sys.executable, "-m", "quantcat", *args])
        path = self.trace_path()
        self.expect(path)
        return self.run([sys.executable, str(BENCH / "launch.py"), "cli", str(path), *args])

    def start(self, argv, stderr_path):
        """Start a child that prints "ready" once set up; return it with
        the seconds that took."""
        t0 = time.perf_counter()
        with open(stderr_path, "wb") as err:
            proc = subprocess.Popen(argv, stdin=subprocess.PIPE, stdout=subprocess.PIPE,
                                    stderr=err, env=_env(), cwd=ROOT)
        line = proc.stdout.readline()
        seconds = time.perf_counter() - t0
        if line != b"ready\n":
            self.stop(proc)
            raise BenchError(f"{argv[1]} did not get ready: {Path(stderr_path).read_text()[-2000:]}")
        return proc, seconds

    def stop(self, proc):
        proc.stdin.close()
        proc.stdout.read()
        proc.stdout.close()
        self.peak_rss = max(self.peak_rss, _reap(proc))

    def setup_sample(self, argv):
        proc, seconds = self.start(argv, self.work / "setup.err")
        self.stop(proc)
        return seconds


class Round:
    def __init__(self):
        self.wall = 0.0
        self.op_seconds = []
        self.attempted = 0
        self.failed = 0
        self.errors = []    # operations that failed
        self.problems = []  # outputs of the other operations that failed their check


def cli_round(harness, ops):
    """Run each operation once, in order, then check the outputs."""
    rnd = Round()
    t0 = time.perf_counter()
    children = [harness.quantcat(op.args) for op in ops]
    rnd.wall = time.perf_counter() - t0
    harness.collect()
    for op, child in zip(ops, children):
        rnd.attempted += 1
        rnd.op_seconds.append(child.seconds)
        if child.rc != 0:
            rnd.failed += 1
            rnd.errors.append(f"{op.label}: exit {child.rc}: {child.err[-500:]}")
        else:
            rnd.problems += [f"{op.label}: {p}" for p in op.check(child.out)]
    return rnd


class SessionWorker:
    """The long-lived library process of the session workload."""

    def __init__(self, harness, pool_path):
        self.harness = harness
        self.trace_path = harness.trace_path() if harness.trace else "-"
        self.argv = [sys.executable, str(BENCH / "session.py"), pool_path, str(self.trace_path)]
        self.proc, self.setup_seconds = harness.start(self.argv, harness.work / "session.err")

    def call(self, op):
        self.proc.stdin.write((json.dumps(op) + "\n").encode())
        self.proc.stdin.flush()
        remaining = max(0.0, self.harness.deadline - time.monotonic())
        if not select.select([self.proc.stdout], [], [], remaining)[0]:
            self.proc.kill()
            raise BenchError("run limit reached in the session worker")
        line = self.proc.stdout.readline()
        if not line:
            raise BenchError("session worker exited: "
                             + (self.harness.work / "session.err").read_text()[-2000:])
        return json.loads(line)

    def close(self):
        self.harness.stop(self.proc)
        if self.harness.trace:
            self.harness.expect(self.trace_path)


def session_round(harness, worker, stream):
    rnd = Round()
    pairs = stream.round()
    t0 = time.perf_counter()
    replies = [worker.call(op) for op, _ in pairs]
    malformed = [(label, harness.quantcat(args)) for label, args in stream.malformed]
    rnd.wall = time.perf_counter() - t0
    harness.collect()
    for (op, check), reply in zip(pairs, replies):
        rnd.attempted += 1
        rnd.op_seconds.append(reply["seconds"])
        if "error" in reply:
            rnd.failed += 1
            rnd.errors.append(f"{op['kind']}: {reply['error']}")
        else:
            rnd.problems += [f"{op['kind']}: {p}" for p in check(json.loads(reply["report"]))]
    for label, child in malformed:
        rnd.attempted += 1
        rnd.op_seconds.append(child.seconds)
        if not workloads.judge_malformed(child.rc, child.err):
            rnd.failed += 1
    return rnd


def measure(name, seed, seconds, trace, work):
    """One run of one workload; returns the result object and notes."""
    harness = Harness(work, trace)
    wl = workloads.WORKLOADS[name](seed, work)
    rounds = []
    worker = None
    try:
        if name == "session":
            probe = [sys.executable, str(BENCH / "session.py"), wl.pool_path, "-"]
            setup = [harness.setup_sample(probe) for _ in range(SETUP_SAMPLES - 1)]
            worker = SessionWorker(harness, wl.pool_path)
            setup.append(worker.setup_seconds)
        else:
            probe = [sys.executable, str(BENCH / "launch.py"), "setup"]
            setup = [harness.setup_sample(probe) for _ in range(SETUP_SAMPLES)]
        t0 = time.perf_counter()
        while True:
            if worker is not None:
                rounds.append(session_round(harness, worker, wl))
            else:
                rounds.append(cli_round(harness, wl.round()))
            elapsed = time.perf_counter() - t0
            if elapsed * (len(rounds) + 1) / len(rounds) > seconds:
                break
    finally:
        if worker is not None:
            worker.close()
    harness.collect()

    problems = [p for r in rounds for p in r.problems]
    result = {
        "correct": not problems,
        "attempted": sum(r.attempted for r in rounds),
        "failed": sum(r.failed for r in rounds),
    }
    if trace:
        result["metrics"] = tracing.per_layer(harness.totals, len(rounds))
    else:
        result["metrics"] = {
            "setup_s": {"value": statistics.median(setup), "unit": "s"},
            "wall_s": {"value": statistics.median(r.wall for r in rounds), "unit": "s"},
            "op_p50_s": {"value": statistics.median(t for r in rounds for t in r.op_seconds),
                         "unit": "s"},
            "peak_rss_mib": {"value": harness.peak_rss, "unit": "MiB"},
        }
    notes = [f"{name}: seed {seed}, {len(rounds)} rounds "
             f"(median {statistics.median(r.wall for r in rounds):.4f} s, traced={trace}), "
             f"{result['attempted']} operations attempted, {result['failed']} failed"]
    if name == "session":
        notes.append(f"session: {wl.reused} of {wl.with_carrier} library operations "
                     "reused a carrier from earlier in the run")
    notes += [f"failed: {e}" for r in rounds for e in r.errors][:10]
    notes += [f"wrong: {p}" for p in problems][:20]
    return result, notes


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=[*workloads.WORKLOADS, "all"])
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=10)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not (ROOT / "src" / "quantcat" / "cli.py").is_file():
        print(f"no quantcat sources under {ROOT / 'src'}; run from a checkout", file=sys.stderr)
        return 2
    names = list(workloads.WORKLOADS) if args.workload == "all" else [args.workload]
    results = {}
    for name in names:
        with tempfile.TemporaryDirectory(dir=BENCH, prefix=".work-") as work:
            result, notes = measure(name, args.seed, args.seconds, args.trace, Path(work))
        results[name] = result
        for line in notes:
            print(line)
        for metric, m in result["metrics"].items():
            print(f"  {name} {metric} = {m['value']:.6g} {m['unit']}")
    print(json.dumps(results if args.workload == "all" else results[names[0]]))
    return 0


if __name__ == "__main__":
    sys.exit(main())
