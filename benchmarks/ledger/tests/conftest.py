"""Path set-up for the ledger's own tests (``pytest benchmarks/ledger/tests``).

Not part of the tier-1 suite: ``pyproject.toml`` keeps ``benchmarks/``
out of default collection.
"""

import sys
from pathlib import Path

LEDGER_DIR = Path(__file__).resolve().parents[1]
REPO_ROOT = LEDGER_DIR.parents[1]

for path in (REPO_ROOT / "src", LEDGER_DIR):
    if str(path) not in sys.path:
        sys.path.insert(0, str(path))
