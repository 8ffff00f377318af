"""Run one mixsweep command with the benchmark's wrappers installed.

    python3 perfbench/shim.py SPANS.json <mixsweep arguments...>

Installs the wrappers of ``tracing.py`` (before mixsweep is imported, so
scipy's ``minimize`` is counted however mixsweep imports it), calls
``mixsweep.cli.main``, writes this process's spans and counts to
SPANS.json and exits with the command's exit code.
"""

from __future__ import annotations

import json
import sys

from tracing import Instrumentation, Tracer


def main() -> int:
    spans_path, argv = sys.argv[1], sys.argv[2:]
    tracer = Tracer()
    with Instrumentation(tracer):
        from mixsweep import cli

        try:
            code = cli.main(argv)
        finally:
            spans, counts = tracer.take()
            with open(spans_path, "w", encoding="utf-8") as fh:
                json.dump({"spans": spans, "counts": counts}, fh)
    return code


if __name__ == "__main__":
    sys.exit(main())
