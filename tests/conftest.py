"""Puts the benchmark's modules on the import path, so that tests can
reuse its proof families, its runner and its known scripts."""

import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "perfbench"))
