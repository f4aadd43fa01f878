import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent.parent
for p in (BENCH.parent / "src", BENCH):
    if str(p) not in sys.path:
        sys.path.insert(0, str(p))
