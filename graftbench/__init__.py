"""graftbench — the repository's benchmark.

Five workloads drive the system the way its users do
(``SearchEngine.search``, ``SearchEngine.open/add_many/checkpoint`` and
``/search`` on a ``python -m repro serve`` subprocess), check every answer
against the canonical-plan reference, and print each metric by name with
its unit.  ``BENCHMARK.json`` at the repository root declares the command,
the workloads, the metric names, units and regression bounds; README.md in
this directory says why each workload and metric was chosen.

The package touches nothing under ``src/``.  It makes ``repro`` importable
from a plain checkout by putting ``<root>/src`` on ``sys.path``.
"""

from __future__ import annotations

import pathlib
import sys

#: SIGMOD'11 opened June 12, 2011 — the seed the golden inputs are pinned to.
DEFAULT_SEED = 20110612

PACKAGE_DIR = pathlib.Path(__file__).resolve().parent
ROOT = PACKAGE_DIR.parent
SRC = ROOT / "src"
#: Everything a run leaves behind (traces, scratch stores) lands here.
OUT_DIR = PACKAGE_DIR / "out"

if str(SRC) not in sys.path:
    sys.path.insert(0, str(SRC))
