"""Record the reference answers the benchmark checks against.

Writes ``perfbench/reference.json``: the adaptive campaign's
final-decomposition SHA-256 (with its round count, cells simulated,
stop reason and accuracy) for every seed the benchmark maps onto, at
both sizes.  Run it only at a commit whose answers are known
good, from the repository root::

    python3 perfbench/record.py

Everything here runs single-threaded BLAS, like the benchmark, because
the campaign hash is byte-level.
"""

from __future__ import annotations

import json
import shutil
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))
import run  # noqa: E402,F401 — sets the thread limits, then the path
import workloads  # noqa: E402


def main() -> int:
    reference = {"campaign": {}}
    for size in ("small", "full"):
        reference["campaign"][size] = {}
        study = workloads.epidemic_study(size)
        for seed in range(workloads.REFERENCE_SEEDS):
            spec = workloads.campaign_spec(size, seed)
            workdir = run.ROOT / ".perfbench_work" / "record"
            shutil.rmtree(workdir, ignore_errors=True)
            workdir.mkdir(parents=True)
            outcome = workloads.run_campaign(spec, study, workdir)
            shutil.rmtree(run.ROOT / ".perfbench_work")
            reference["campaign"][size][str(seed)] = (
                workloads.campaign_summary(outcome, study.truth)
            )
            print(size, seed, reference["campaign"][size][str(seed)],
                  flush=True)
    reference["environment"] = run.environment()
    with open(workloads.REFERENCE_PATH, "w") as handle:
        json.dump(reference, handle, indent=1)
        handle.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
