import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent.parent
for p in (HERE.parent, ROOT / "src"):
    if str(p) not in sys.path:
        sys.path.insert(0, str(p))
