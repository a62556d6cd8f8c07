"""Run one ``netident`` command like ``python -m netident``, with the layer tracer installed.

Usage: python cli_traced.py SPANS_JSON ARGV...

Writes the spans, the absent targets and the import time of
``netident.cli`` to SPANS_JSON; stdout and the exit code are the
command's own.
"""

import sys
import time

started = time.perf_counter()
import netident.cli  # noqa: E402

import_ms = (time.perf_counter() - started) * 1e3

from tracer import Tracer  # noqa: E402


def main() -> int:
    out_path, argv = sys.argv[1], sys.argv[2:]
    tracer = Tracer()
    tracer.install(op=None)
    try:
        return netident.cli.main(argv)
    finally:
        tracer.uninstall()
        tracer.dump(out_path, import_ms=import_ms)


if __name__ == "__main__":
    raise SystemExit(main())
