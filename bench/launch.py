"""Launch quantcat the way a shell user does, optionally traced.

    python3 bench/launch.py setup
        import quantcat and quantcat.cli, print "ready" and exit; the
        benchmark times this as set-up.
    python3 bench/launch.py cli TRACE_FILE ARG...
        install the span wrappers, run ``quantcat ARG...`` through
        quantcat.cli.main, and write the spans to TRACE_FILE at exit.

The child needs the checkout's ``src`` directory on PYTHONPATH.
"""

import sys

import tracing


def main(argv):
    if argv[:1] == ["setup"]:
        import quantcat  # noqa: F401
        import quantcat.cli  # noqa: F401

        print("ready", flush=True)
        return
    if len(argv) < 2 or argv[0] != "cli":
        sys.exit("usage: launch.py setup | launch.py cli TRACE_FILE ARG...")
    trace_path, args = argv[1], argv[2:]
    rec = tracing.import_traced()
    from quantcat.cli import main as cli_main

    sys.argv = ["quantcat", *args]
    try:
        with tracing.span(rec, "cli.main"):
            cli_main()
    finally:
        rec.write(trace_path)


if __name__ == "__main__":
    main(sys.argv[1:])
