"""``python -m benchmarks.ledger``."""

import sys

from benchmarks.ledger.run import entry

sys.exit(entry())
