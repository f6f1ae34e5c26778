import sys
from pathlib import Path

_ROOT = Path(__file__).resolve().parent.parent
for path in (_ROOT / "src", _ROOT / "bench"):
    if str(path) not in sys.path:
        sys.path.insert(0, str(path))
