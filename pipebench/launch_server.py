"""Run ``repro serve`` with the benchmark's span wrappers installed.

Usage: ``python launch_server.py SUMMARY_PATH serve <serve args...>``
with the program's ``src`` directory on ``PYTHONPATH``.  The wrappers go
in before the server is built; when the server shuts down (SIGTERM, as
``repro serve`` handles it) this process's span summary is written to
``SUMMARY_PATH`` for the benchmark to read.
"""

import os
import sys

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import layers  # noqa: E402
from tracer import Tracer  # noqa: E402
from repro import cli  # noqa: E402


def main() -> int:
    summary_path, argv = sys.argv[1], sys.argv[2:]
    tracer = Tracer()
    engines = layers.install(tracer)
    try:
        return cli.main(argv)
    finally:
        summary = tracer.take(keep_top=True, durations=layers.KEEP_DURATIONS)
        layers.add_engine_counts(summary, engines)
        layers.write_summary(summary, summary_path)


if __name__ == "__main__":
    sys.exit(main())
