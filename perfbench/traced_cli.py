"""Run one lexcite CLI command with the benchmark's spans around each layer.

    python perfbench/traced_cli.py OUT.json <lexcite command and flags>

Calls `lexcite.cli.main` in this process under a root span `cli.<command>`
and writes the per-span totals, the counters, the wrapped entry points and
the BLAS thread count seen after the command to OUT.json.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

import envinfo  # noqa: E402
import spans  # noqa: E402


def main() -> int:
    out_path, argv = Path(sys.argv[1]), sys.argv[2:]
    tracer = spans.Tracer()
    spans.install(tracer)
    from lexcite import cli

    status = tracer.call(f"cli.{argv[0]}", cli.main, argv)
    out_path.write_text(json.dumps({
        "status": status,
        "spans": tracer.summary(),
        "counts": dict(tracer.counts),
        "installed": sorted(tracer.installed),
        "blas_threads": envinfo.blas_threads(),
    }), encoding="utf-8")
    return status


if __name__ == "__main__":
    sys.exit(main())
