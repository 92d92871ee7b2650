"""``python -m repro`` with the benchmark's spans installed around it.

Usage: ``traced_serve.py SPANS.json <repro arguments...>``.  Used only by
the traced pass of ``http_mixed``: the server under test is a subprocess,
so its layer boundaries have to be wrapped inside that process.  SIGTERM
stops the server the way Ctrl-C would, and the spans are written out
once it has stopped.
"""

from __future__ import annotations

import json
import runpy
import signal
import sys
from pathlib import Path


def _interrupt(_signum, _frame) -> None:
    raise KeyboardInterrupt


def main() -> int:
    sys.path.insert(0, str(Path(__file__).resolve().parents[2]))
    from benchmarks.ledger.layers import TARGETS
    from benchmarks.ledger.spans import Tracer

    spans_path = Path(sys.argv[1])
    sys.argv = ["repro", *sys.argv[2:]]
    tracer = Tracer()
    tracer.install(TARGETS)
    signal.signal(signal.SIGTERM, _interrupt)
    try:
        runpy.run_module("repro", run_name="__main__")
    except SystemExit as stop:
        code = stop.code
    else:
        code = 0
    finally:
        spans_path.write_text(json.dumps(tracer.to_json()))
    # 130 is the server's own "stopped by interrupt" farewell
    return 0 if code in (0, 130, None) else int(code)


if __name__ == "__main__":
    sys.exit(main())
