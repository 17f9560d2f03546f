"""`python -m mtspec ARGS` with the tracer installed, for traced CLI runs.

Spans go to the file named by PERFBENCH_SPANS when the call ends; stdout,
stderr and the exit code are those of the plain CLI.
"""

import os
import sys

import tracer

import mtspec.cli  # noqa: E402  (after the tracer, as `python -m mtspec` imports it)


def main():
    trace = tracer.Tracer()
    trace.install()
    trace.op = 0
    try:
        code = mtspec.cli.main(sys.argv[1:])
    finally:
        trace.uninstall()
        sys.stdout.flush()
        trace.dump(os.environ["PERFBENCH_SPANS"])
    return code


if __name__ == "__main__":
    sys.exit(main())
