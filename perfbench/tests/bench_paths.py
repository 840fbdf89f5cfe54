"""Put the benchmark's modules and the unipres sources on sys.path.

Imported first by every test module here.  It is not a conftest.py because
the repository's own tests import helpers from their conftest by name.
"""

import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parents[1]
for path in (BENCH.parent / "src", BENCH):
    if str(path) not in sys.path:
        sys.path.insert(0, str(path))
