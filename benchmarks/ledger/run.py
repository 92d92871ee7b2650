"""Entry point: ``python3 benchmarks/ledger/run.py`` (what ``BENCHMARK.json``
names) and, through ``__main__``, ``python -m benchmarks.ledger``."""

import sys
import time

_STARTED = time.perf_counter()  # before any import of the program under test


def entry() -> int:
    from pathlib import Path

    root = Path(__file__).resolve().parents[2]
    if not (root / "src" / "repro").is_dir():
        print(f"{root}: no src/repro here; the ledger runs from a checkout "
              "of the repository it measures", file=sys.stderr)
        return 2
    sys.path[:0] = [str(root), str(root / "src")]
    from benchmarks.ledger.cli import main

    return main(sys.argv[1:], started=_STARTED)


if __name__ == "__main__":
    sys.exit(entry())
