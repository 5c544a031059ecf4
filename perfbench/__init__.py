"""End-to-end sweep benchmark for the ``repro`` simulator.

Run ``python3 perfbench/run.py --workload <name> --seed <n> --seconds <s>
--trace <0|1>`` from the repository root; README.md in this directory
describes the workloads, the metrics and the traced run.

The package is importable from the repository root (tests run
``python3 -m pytest perfbench/tests``).  It makes the repository's ``src/``
importable and pins every artifact the benchmark writes - the compiled
kernel cache, result stores, span files - under ``.bench_build/`` in the
checkout, so a run reads and writes nothing outside it.
"""

from __future__ import annotations

import os
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
#: Everything a run leaves behind lives here (git-ignored).
WORK_DIR = ROOT / ".bench_build" / "perfbench"

if str(SRC) not in sys.path:
    sys.path.insert(0, str(SRC))


def clean_environment(environ=os.environ) -> None:
    """Pin the environment the benchmark measures under.

    The kernel build cache and temporary files move inside the checkout,
    and the switches that would change what is measured (telemetry sinks,
    fault schedules) are cleared.  The kernel fallback switches stay: the
    provenance gate must see them and refuse.
    """
    environ["REPRO_ACCEL_CACHE"] = str(WORK_DIR / "accel")
    (WORK_DIR / "tmp").mkdir(parents=True, exist_ok=True)
    environ["TMPDIR"] = str(WORK_DIR / "tmp")  # the compiler's scratch files too
    environ.pop("REPRO_TELEMETRY", None)
    environ.pop("REPRO_FAULTS", None)
    existing = environ.get("PYTHONPATH")
    environ["PYTHONPATH"] = str(SRC) + (os.pathsep + existing if existing else "")
