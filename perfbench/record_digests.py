"""Record each workload's reference event digest for a range of seeds.

    python3 perfbench/record_digests.py --commit <label> --seeds FIRST LAST

Runs one fully checked repetition per (workload, seed) and rewrites
``perfbench/digests.json``, which ``run.py`` compares against. Refresh it
only when a change alters simulated behaviour on purpose, and say why in
CHANGES.md.
"""

import argparse
import json
import shutil
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent / "src"), str(HERE.parent)]

from perfbench import workloads  # noqa: E402
from perfbench.run import SCRATCH, Harness  # noqa: E402


def main() -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--commit", required=True,
                   help="label of the commit the digests come from")
    p.add_argument("--seeds", type=int, nargs=2, required=True,
                   metavar=("FIRST", "LAST"))
    args = p.parse_args()
    digests = {}
    SCRATCH.mkdir(exist_ok=True)
    for name, cls in workloads.WORKLOADS.items():
        for seed in range(args.seeds[0], args.seeds[1] + 1):
            workdir = tempfile.mkdtemp(dir=SCRATCH)
            try:
                h = Harness(cls(seed, workdir))
                h.repetition(full=True)
            finally:
                shutil.rmtree(workdir, ignore_errors=True)
            if h.failed:
                print(f"{name} seed {seed}: {h.failed} failed runs",
                      file=sys.stderr)
                return 1
            digests.setdefault(name, {})[str(seed)] = h.digest.hexdigest()
            print(f"{name} seed {seed} {digests[name][str(seed)]}",
                  flush=True)
    text = json.dumps({"commit": args.commit, "digests": digests}, indent=1)
    (HERE / "digests.json").write_text(text + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
