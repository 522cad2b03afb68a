"""Let the benchmark's tests import ``repro`` from this checkout's ``src``."""

import sys
from pathlib import Path

SOURCE = Path(__file__).resolve().parent.parent / "src"
if str(SOURCE) not in sys.path:
    sys.path.insert(0, str(SOURCE))
