"""Set-up step of one workload, run by run.py in a fresh interpreter.

Its wall time is the workload's set-up time: starting Python and importing
the package, plus synthesizing the criterion stack (--stack) and the
priming explore run (--prime) where the workload needs them. Running it in
its own process keeps its memory out of the workload's peak RSS.
"""

from __future__ import annotations

import argparse
import os
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

from owa_explorer import pipeline  # noqa: E402

import workloads  # noqa: E402


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--stack", type=Path)
    parser.add_argument("--prime", type=Path)
    parser.add_argument("--design-seed", type=int)
    args = parser.parse_args()
    if args.stack:
        side = workloads.GRID
        manifest = pipeline.synth_generate(side, side, workloads.N_CRITERIA, args.seed, args.stack)
        if args.prime:
            workers = min(workloads.WORKERS, len(os.sched_getaffinity(0)))
            pipeline.run_pipeline(
                workloads.explore_config(pipeline, manifest, args.design_seed, args.prime, workers)
            )


if __name__ == "__main__":
    main()
