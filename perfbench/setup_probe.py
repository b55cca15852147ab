"""Set-up probe: in a fresh interpreter, import uplinksim and build and
validate one workload's scenarios. ``run.py`` times this whole process as
``setup_s``.

    python3 perfbench/setup_probe.py <workload> <seed>
"""

import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT)]

from perfbench.workloads import WORKLOADS  # noqa: E402

WORKLOADS[sys.argv[1]](int(sys.argv[2]), None)
