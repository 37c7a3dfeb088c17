"""The law-suite runner: the calling process and its forked workers give
the in-process report byte for byte on any CPU count, carry their errors
back as a serial run raises them, and every worker is reaped."""

import json
import os
import random
import select

import pytest

from quantcat import Id, Prod, Quantale, VRelation, coalg, hausdorff, suites
from quantcat.cli import main
from quantcat.descriptors import canonical_json
from quantcat.errors import CapExceeded, LawFailure
from quantcat.suites import SUITES, rand_relation, run_law_suites, run_suite


def _no_child_left():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def _in_process(seed, cases):
    results = [run_suite(name, fn, seed, cases) for name, fn in SUITES]
    return {"seed": seed, "cases": cases, "suites": results,
            "ok": all(r["passed"] for r in results)}


def _cpus(monkeypatch, count):
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(count)),
                        raising=False)


def _counted_forks(monkeypatch):
    """The pids of the workers forked from here on."""
    pids = []
    fork = os.fork

    def counted():
        pid = fork()
        if pid:
            pids.append(pid)
        return pid

    monkeypatch.setattr(os, "fork", counted)
    return pids


def _wait(fd):
    """Read the signal byte of pipe end ``fd``; after a minute, fail the
    test's checks instead of hanging."""
    if select.select([fd], [], [], 60)[0]:
        os.read(fd, 1)


def _written(fd):
    """The bytes written so far to pipe end ``fd``, read without waiting."""
    out = b""
    while select.select([fd], [], [], 0)[0] and (chunk := os.read(fd, 64)):
        out += chunk
    return out


@pytest.fixture()
def pipes():
    """Pipes by which one process tells another that it got somewhere;
    closed after the test."""
    made = []

    def make():
        made.extend(os.pipe())
        return made[-2:]

    yield make
    for fd in made:
        os.close(fd)


@pytest.mark.parametrize("cases", [0, 1, 50])
@pytest.mark.parametrize("seed", [0, 7, 42])
def test_forked_suites_match_the_in_process_run(seed, cases):
    assert canonical_json(run_law_suites(seed, cases)) == canonical_json(_in_process(seed, cases))
    _no_child_left()


@pytest.mark.parametrize("cpus", [1, 2, 8])
@pytest.mark.parametrize("cases", [0, 1, 50])
@pytest.mark.parametrize("seed", [0, 7, 42])
def test_every_cpu_count_gives_the_in_process_report(monkeypatch, seed, cases, cpus):
    """One worker per CPU beyond the caller's, one per other suite at most."""
    _cpus(monkeypatch, cpus)
    forks = _counted_forks(monkeypatch)
    assert canonical_json(run_law_suites(seed, cases)) == canonical_json(_in_process(seed, cases))
    assert len(forks) == min(5, cpus - 1)
    _no_child_left()


def test_the_cpu_count_stands_in_for_a_missing_affinity_call(monkeypatch):
    monkeypatch.delattr(os, "sched_getaffinity", raising=False)
    monkeypatch.setattr(os, "cpu_count", lambda: 3)
    forks = _counted_forks(monkeypatch)
    assert canonical_json(run_law_suites(7, 1)) == canonical_json(_in_process(7, 1))
    assert len(forks) == 2
    _no_child_left()


def _raising(exc):
    def suite(rng):
        raise exc
    return suite


def _with_suite(monkeypatch, index, fn):
    table = list(suites.SUITES)
    table[index] = (table[index][0], fn)
    monkeypatch.setattr(suites, "SUITES", tuple(table))


def _in_a_worker(monkeypatch, pipes, index, fn):
    """Make ``fn`` suite ``index`` of a two-CPU run and have its one worker
    run it: the calling process waits in its first case until the worker
    has started that suite."""
    _cpus(monkeypatch, 2)
    started_r, started_w = pipes()
    first = SUITES[0][1]
    waiting = [True]

    def held(rng):
        if waiting:
            _wait(started_r)
            waiting.clear()
        return first(rng)

    def marked(rng):
        os.write(started_w, b"s")
        return fn(rng)

    _with_suite(monkeypatch, 0, held)
    _with_suite(monkeypatch, index, marked)


def test_a_cap_hit_in_a_worker_exits_3_as_in_process(runner, monkeypatch, pipes):
    _in_a_worker(monkeypatch, pipes, 3,
                 _raising(CapExceeded("increasing-subset count", 4097, 4096)))
    result = runner.invoke(main, ["selfcheck", "--cases", "2"])
    assert result.exit_code == 3, result.exception
    assert "Traceback" not in result.output
    assert result.stdout == ""
    assert json.loads(result.stderr) == {
        "schema": "report/1", "error": "increasing-subset count: size 4097 exceeds cap 4096"}
    _no_child_left()
    monkeypatch.delattr(os, "fork")  # the suites then run in turn in this process
    assert runner.invoke(main, ["selfcheck", "--cases", "2"]).output == result.output


def test_a_worker_error_keeps_its_class_and_message(monkeypatch, pipes):
    _in_a_worker(monkeypatch, pipes, 5, _raising(LawFailure("a law failed", report=None)))
    with pytest.raises(LawFailure, match="^a law failed$") as info:
        run_law_suites(0, 1)
    assert type(info.value) is LawFailure
    _no_child_left()


def test_other_worker_errors_carry_the_traceback(monkeypatch, pipes):
    _in_a_worker(monkeypatch, pipes, 1, _raising(ZeroDivisionError("boom")))
    with pytest.raises(RuntimeError, match="'monad-laws' failed in its worker") as info:
        run_law_suites(0, 1)
    assert "Traceback" in str(info.value) and "ZeroDivisionError: boom" in str(info.value)
    _no_child_left()


def test_a_worker_that_sends_nothing_is_named(monkeypatch, pipes):
    _in_a_worker(monkeypatch, pipes, 4, lambda rng: os._exit(5))
    with pytest.raises(RuntimeError, match="'initiality-preservation': worker exited with code 5"):
        run_law_suites(0, 1)
    _no_child_left()


def test_workers_are_reaped_when_the_first_suite_raises(monkeypatch):
    _cpus(monkeypatch, 8)
    _with_suite(monkeypatch, 0, _raising(ValueError("first")))
    with pytest.raises(ValueError, match="first"):
        run_law_suites(0, 20)
    _no_child_left()


def test_the_first_failing_suite_wins_across_processes(monkeypatch, pipes):
    """The caller runs suite 5, which fails, while the worker still runs
    suite 1, which then fails too: suite 1's error is raised, as in a
    serial run."""
    reached_r, reached_w = pipes()

    def fifth(rng):
        os.write(reached_w, b"5")
        raise LawFailure("suite 5 failed", report=None)

    def second(rng):
        _wait(reached_r)  # the caller has reached suite 5
        raise LawFailure("suite 1 failed", report=None)

    _in_a_worker(monkeypatch, pipes, 1, second)
    _with_suite(monkeypatch, 5, fifth)
    with pytest.raises(LawFailure, match="^suite 1 failed$"):
        run_law_suites(0, 1)
    _no_child_left()


def test_the_queue_holds_every_suite_but_the_first_once():
    assert sorted(suites._queue()) == list(range(1, len(SUITES)))


def _marked(monkeypatch, fd, before):
    """Make every suite call ``before`` with its index, write the index to
    pipe end ``fd`` and then run as it did."""
    for index, (_, fn) in enumerate(SUITES):
        def marked(rng, index=index, fn=fn):
            before(index)
            os.write(fd, bytes([index]))
            return fn(rng)
        _with_suite(monkeypatch, index, marked)


def test_one_worker_takes_the_suites_longest_first(monkeypatch, pipes):
    """The caller waits in its first suite until the one worker has started
    the last queued suite, so the worker runs every queued suite in turn."""
    _cpus(monkeypatch, 2)
    started_r, started_w = pipes()
    last_r, last_w = pipes()
    queue = suites._queue()

    def before(index):
        if index == 0:
            _wait(last_r)
        elif index == queue[-1]:
            os.write(last_w, b"l")

    _marked(monkeypatch, started_w, before)
    run_law_suites(0, 1)
    assert [index for index in _written(started_r) if index] == queue
    _no_child_left()


def test_every_suite_runs_after_a_failure(monkeypatch, pipes):
    """Suite 0 and the first queued suite fail at once; the job pipe is
    not emptied, so every other suite still runs, and suite 0's error is
    raised, as in a serial run."""
    _cpus(monkeypatch, 2)
    started_r, started_w = pipes()
    failing = (0, suites._queue()[0])

    def before(index):
        if index in failing:
            raise LawFailure(f"suite {index} failed", report=None)

    _marked(monkeypatch, started_w, before)
    with pytest.raises(LawFailure, match="^suite 0 failed$"):
        run_law_suites(0, 1)
    assert sorted(_written(started_r)) == [i for i in range(len(SUITES)) if i not in failing]
    _no_child_left()


# -- the lax-extension suite catches a broken node ---------------------------------


def _prod_joining(self, q, a, rows, cols):
    """``Prod.matrix`` with the parts' matrices joined instead of met."""
    parts = [p.matrix(q, a, [t[k] for t in rows], [u[k] for u in cols])
             for k, p in enumerate(self.parts)]
    return [[q.join_all(m[i][j] for m in parts) for j in range(len(cols))]
            for i in range(len(rows))]


_SUM_MATRIX = coalg.Sum.matrix


def _sum_topped(self, q, a, rows, cols):
    """``Sum.matrix`` with top, not bottom, between branches."""
    m = _SUM_MATRIX(self, q, a, rows, cols)
    return [[v if s[0] == t[0] else q.top for t, v in zip(cols, row)]
            for s, row in zip(rows, m)]


def _join_of_meets(q, d):
    """``hausdorff_lift`` with its meet and join swapped."""
    return lambda a_set, b_set: q.join_all(q.meet_all(d(a, b) for a in a_set) for b in b_set)


def _lax_failures():
    return run_suite("lax-extension-axioms", suites.suite_lax_extension, 7, 200)["failures"]


@pytest.mark.parametrize("owner, name, mutant", [
    (coalg.Prod, "matrix", _prod_joining),
    (coalg.Sum, "matrix", _sum_topped),
    (hausdorff, "hausdorff_lift", _join_of_meets),
], ids=["prod-joins", "sum-tops", "h-join-of-meets"])
def test_the_lax_extension_suite_catches_a_broken_node(monkeypatch, owner, name, mutant):
    """A node whose ``matrix`` breaks the lax-extension laws makes the
    suite report failures at the selfcheck seed and 200 cases."""
    monkeypatch.setattr(owner, name, mutant)
    assert _lax_failures()


@pytest.mark.parametrize("qname", ["bool", "godel:3"])
def test_a_joining_product_breaks_the_composition_law(monkeypatch, qname):
    """At the selfcheck seed few drawn cases catch a ``Prod`` that joins its
    parts, so this pins one: ``Prod([Id(), Id()])`` on seeded relations of
    three states per side keeps the laws, and with the parts joined the
    composite of the lifts is no longer below the lift of the composite."""
    rng = random.Random(0)
    q = Quantale.by_name(qname)
    xs, ys, zs = ([f"{c}{i}" for i in range(3)] for c in "xyz")
    r, bump, s = (rand_relation(rng, q, a, b) for a, b in ((xs, ys), (xs, ys), (ys, zs)))
    r2 = VRelation(q, xs, ys, [list(map(q.join, u, v)) for u, v in zip(r.matrix, bump.matrix)])
    args = (Prod([Id(), Id()]), r, r2, s, {x: rng.choice(ys) for x in xs})
    assert coalg.check_lax_extension_laws(*args).ok
    monkeypatch.setattr(coalg.Prod, "matrix", _prod_joining)
    assert [e.law for e in coalg.check_lax_extension_laws(*args).failures()] == ["lax-composition"]
