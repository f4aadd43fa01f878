"""Run one smforge command line under the benchmark's tracer.

    python bench/cli_child.py SPANS.json SUBCOMMAND [ARGS...]

Times a fresh ``import smforge.cli``, runs ``smforge.cli.main`` with the
tracer installed, writes the span aggregates and the import time to
SPANS.json, and exits with the command's exit code.  Standard output is
the command's own.  ``src`` must be on PYTHONPATH.
"""
import sys
import time


def main() -> int:
    spans, argv = sys.argv[1], sys.argv[2:]
    t0 = time.perf_counter()
    import smforge.cli
    import_s = time.perf_counter() - t0

    import json

    from tracing import Tracer

    tracer = Tracer()
    tracer.install()
    try:
        return tracer.call("cli.main." + argv[0], smforge.cli.main, argv)
    finally:
        tracer.uninstall()
        doc = tracer.snapshot()
        doc["import_s"] = import_s
        with open(spans, "w", encoding="utf-8") as f:
            json.dump(doc, f)


if __name__ == "__main__":
    sys.exit(main())
