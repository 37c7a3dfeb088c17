import io
import sys

import pytest

from quantcat import Quantale, VCategory, check_vcategory, from_order, metric_line


class _Tee(io.StringIO):
    """A captured stream that also copies what it is sent into ``both``."""

    def __init__(self, both):
        super().__init__()
        self.both = both

    def write(self, text):
        self.both.write(text)
        return super().write(text)


class Result:
    def __init__(self, exit_code, stdout, stderr, output, exception):
        self.exit_code = exit_code
        self.stdout = stdout
        self.stderr = stderr
        self.output = output  # stdout and stderr interleaved as written
        self.exception = exception


class CliRunner:
    """Runs a CLI entry point in this process with captured output.

    ``invoke(main, args)`` calls ``main(args)`` with ``sys.stdout`` and
    ``sys.stderr`` replaced, and reads the exit code off ``SystemExit``.
    ``exception`` is None on exit 0, the ``SystemExit`` on any other exit,
    and the exception itself when the command raised one, which exits 1.
    """

    def invoke(self, main, args):
        both = io.StringIO()
        out, err = _Tee(both), _Tee(both)
        saved = sys.stdout, sys.stderr
        sys.stdout, sys.stderr = out, err
        exception = None
        try:
            main(list(args))
            code = 0
        except SystemExit as e:
            code = e.code or 0
            if code:
                exception = e
        except Exception as e:
            code, exception = 1, e
        finally:
            sys.stdout, sys.stderr = saved
        return Result(code, out.getvalue(), err.getvalue(), both.getvalue(), exception)


@pytest.fixture()
def runner():
    return CliRunner()


@pytest.fixture(scope="session")
def q2():
    return Quantale.boolean()


@pytest.fixture(scope="session")
def godel3():
    return Quantale.godel(3)


@pytest.fixture(scope="session")
def lawvere():
    return Quantale.lawvere()


@pytest.fixture(scope="session")
def c2(q2):
    """The two-element chain u < v as a Boolean-quantale category."""
    return from_order(q2, ["u", "v"], [("u", "v")])


@pytest.fixture(scope="session")
def line013():
    """Symmetric Lawvere line on the points 0, 1, 3."""
    return metric_line([0, 1, 3])


def diamond_quantale():
    """The four-element lattice 0 < a, b < 1 with tensor meet and unit top."""
    els = ["0", "a", "b", "1"]
    leq = [("0", e) for e in els] + [(e, e) for e in els[1:]] + [("a", "1"), ("b", "1")]
    meet = {}
    for u in els:
        for v in els:
            meet[u, v] = u if (u, v) in leq else v if (v, u) in leq else "0"
    return Quantale.finite(els, leq, meet, "1")


def diamond_fork():
    """x and y sit below z at the incomparable values a and b, so the
    underlying order is discrete while {x, y} closes up to everything."""
    q = diamond_quantale()
    x = VCategory(q, ["x", "y", "z"], [
        ["1", "0", "a"],
        ["0", "1", "b"],
        ["0", "0", "1"],
    ])
    assert check_vcategory(x).ok
    return x
