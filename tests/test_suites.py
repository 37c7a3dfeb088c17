"""The law-suite runner: forked workers give the in-process report byte for
byte, carry their errors back, and are all reaped."""

import json
import os

import pytest

from quantcat import suites
from quantcat.cli import main
from quantcat.descriptors import canonical_json
from quantcat.errors import CapExceeded, LawFailure
from quantcat.suites import SUITES, run_law_suites, run_suite


def _no_child_left():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def _in_process(seed, cases):
    results = [run_suite(name, fn, seed, cases) for name, fn in SUITES]
    return {"seed": seed, "cases": cases, "suites": results,
            "ok": all(r["passed"] for r in results)}


@pytest.mark.parametrize("cases", [0, 1, 50])
@pytest.mark.parametrize("seed", [0, 7, 42])
def test_forked_suites_match_the_in_process_run(seed, cases):
    assert canonical_json(run_law_suites(seed, cases)) == canonical_json(_in_process(seed, cases))
    _no_child_left()


def _raising(exc):
    def suite(rng):
        raise exc
    return suite


def _with_suite(monkeypatch, index, fn):
    table = list(SUITES)
    table[index] = (table[index][0], fn)
    monkeypatch.setattr(suites, "SUITES", tuple(table))


def test_a_cap_hit_in_a_worker_exits_3_as_in_process(runner, monkeypatch):
    _with_suite(monkeypatch, 3, _raising(CapExceeded("subset enumeration carrier", 13, 12)))
    result = runner.invoke(main, ["selfcheck", "--cases", "2"])
    assert result.exit_code == 3, result.exception
    assert "Traceback" not in result.output
    assert result.stdout == ""
    assert json.loads(result.stderr) == {
        "schema": "report/1", "error": "subset enumeration carrier: size 13 exceeds cap 12"}
    _no_child_left()
    monkeypatch.delattr(os, "fork")  # the suites then run in turn in this process
    assert runner.invoke(main, ["selfcheck", "--cases", "2"]).output == result.output


def test_a_worker_error_keeps_its_class_and_message(monkeypatch):
    _with_suite(monkeypatch, 5, _raising(LawFailure("a law failed", report=None)))
    with pytest.raises(LawFailure, match="^a law failed$") as info:
        run_law_suites(0, 1)
    assert type(info.value) is LawFailure
    _no_child_left()


def test_other_worker_errors_carry_the_traceback(monkeypatch):
    _with_suite(monkeypatch, 1, _raising(ZeroDivisionError("boom")))
    with pytest.raises(RuntimeError, match="'monad-laws' failed in its worker") as info:
        run_law_suites(0, 1)
    assert "Traceback" in str(info.value) and "ZeroDivisionError: boom" in str(info.value)
    _no_child_left()


def test_a_worker_that_sends_nothing_is_named(monkeypatch):
    _with_suite(monkeypatch, 4, lambda rng: os._exit(5))
    with pytest.raises(RuntimeError, match="'initiality-preservation': worker exited with code 5"):
        run_law_suites(0, 1)
    _no_child_left()


def test_workers_are_reaped_when_the_first_suite_raises(monkeypatch):
    _with_suite(monkeypatch, 0, _raising(ValueError("first")))
    with pytest.raises(ValueError, match="first"):
        run_law_suites(0, 20)
    _no_child_left()
