"""Traced stand-in for ``python -m repro``, used only by traced runs of
the ``cli`` workload.

Usage: ``python perfbench/cli_child.py TRACE.json ARGS...`` runs
``repro.cli.main(ARGS)`` exactly as ``python -m repro ARGS`` would,
with the layer timers of :mod:`perfbench.tracer` installed after
``import repro.cli``, and writes the per-layer self-times, counts and
the monotonic start time of the interpreter to ``TRACE.json``.
"""

import time

STARTED = time.monotonic()

import json  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(ROOT))

from perfbench.inproc import report_counts  # noqa: E402
from perfbench.tracer import Tracer  # noqa: E402


def main() -> int:
    trace_path, argv = sys.argv[1], sys.argv[2:]
    before_import = time.monotonic()
    import repro.cli

    import_seconds = time.monotonic() - before_import
    reports = []
    tracer = Tracer(
        clock=time.monotonic,
        probes={
            "repro.verify.receptiveness.check_receptiveness": (
                lambda report: reports.append(report_counts(report))
            )
        },
    )
    tracer.install()
    try:
        status = repro.cli.main(argv)
    except SystemExit as stop:
        status = stop.code if isinstance(stop.code, int) else 2
    tracer.uninstall()
    sys.stdout.flush()
    record = tracer.snapshot()
    record.update(
        started=STARTED,
        import_seconds=import_seconds,
        status=status,
        states=sum(entry["states"] for entry in reports),
        obligations=sum(entry["obligations"] for entry in reports),
        decided=sum(entry["decided"] for entry in reports),
    )
    Path(trace_path).write_text(json.dumps(record))
    return status


if __name__ == "__main__":
    sys.exit(main())
