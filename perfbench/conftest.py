"""Pytest set-up for the benchmark's self-test: import choilike from ``src/``."""

import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))
