"""The three workloads: inputs from the seed, one operation, its checks.

Each workload is a closed loop with one client: the harness starts the next
operation when the previous one has returned and been checked. Set-up runs
in child interpreters (see prepare.py) before any operation.

- solve: order weights for 1000 points drawn under the parabola, one point
  per operation, cycling through them. Isolates `strategy`, and is the
  only workload that feeds the program points beyond the reachable
  frontier; refusing those is the correct outcome, not a failure.
- explore: the full `run_pipeline` user path on a synthetic stack, with a
  design that lies inside the reachable frontier. Exercises every layer.
- reanalyze: `analyze` over an explore run made during set-up. Bypasses
  `strategy` and `owa`; runs `cluster` on one thread.
"""

from __future__ import annotations

import json
import shutil
from pathlib import Path

import numpy as np

import checks
import frontier

SOLVE_POINTS = 1000
N_CRITERIA = 10
# The user path is sized to fit ten or more operations into one run of 30 s
# on two cores: m = 1000 maps would take about a minute. (m = 32 gave more
# operations per run but no steadier a median over runs.)
GRID = 128  # 128 x 128 cells, about 16 k valid
EXPLORE_M = 64
EXPLORE_K = 5
K_MAX = 15
WORKERS = 2
BUDGET_MIB = 512
REANALYZE_K = 8
SAMPLED_ROWS = 8
STAGES = ("load", "sample", "aggregate", "distances", "cluster", "summaries")


def explore_config(pipeline, manifest: Path, design_seed: int, out: Path, workers: int):
    return pipeline.PipelineConfig(
        stack_manifest=manifest.resolve(), m=EXPLORE_M, seed=design_seed, k=EXPLORE_K,
        k_max=K_MAX, out=out.resolve(), memory_budget_mib=BUDGET_MIB, workers=workers,
    )


class Workload:
    """Base: no stage timings, one item per operation."""

    items_per_op = 1

    def __init__(self, pkg, seed: int, work: Path, nproc: int):
        self.pkg, self.seed, self.work = pkg, seed, work
        self.workers = min(WORKERS, nproc)
        self.stage_s: dict[int, dict[str, float]] = {}
        self.info: dict = {}

    def setup_args(self, rep_dir: Path) -> list[str]:
        """Arguments for prepare.py; with none it only imports the package."""
        return []

    def after_setup(self, rep_dir: Path) -> None:
        pass

    def operation(self, i: int):
        raise NotImplementedError

    def check(self, i: int, result, error) -> list[str]:
        raise NotImplementedError


class Solve(Workload):
    def __init__(self, pkg, seed, work, nproc):
        super().__init__(pkg, seed, work, nproc)
        rng = np.random.default_rng(seed)
        points = np.empty((0, 2))
        while len(points) < SOLVE_POINTS:  # uniform under t <= 4r(1-r), unfiltered
            r, t = rng.random((2, SOLVE_POINTS))
            points = np.concatenate([points, np.column_stack([r, t])[t <= 4.0 * r * (1.0 - r)]])
        self.points = points[:SOLVE_POINTS]
        self.expect = frontier.classify(self.points[:, 0], self.points[:, 1])
        self.rejected: list[int] = []
        self.info = {
            "points": SOLVE_POINTS,
            "beyond_frontier": int((self.expect == -1).sum()),
            "in_margin_band": int((self.expect == 0).sum()),
        }

    def operation(self, i):
        strategy = self.pkg.strategy
        p = strategy.DecisionPoint(*map(float, self.points[i % SOLVE_POINTS]))
        return lambda: strategy.generate_weights(p, N_CRITERIA)

    def check(self, i, result, error):
        j = i % SOLVE_POINTS
        r, t = map(float, self.points[j])
        where = f"point {j} (r={r!r}, t={t!r})"
        # A point beyond the frontier has no generating distribution: the
        # program must refuse it with a numerical error, never clamp it.
        if error is None:
            problems = checks.weight_vector(result.w, N_CRITERIA)
            if self.expect[j] == -1:
                problems.append("solved although beyond the reachable frontier")
            return [f"{where}: {p}" for p in problems]
        if isinstance(error, self.pkg.NumericalError) and self.expect[j] != 1:
            self.rejected.append(j)
            return []
        return [f"{where}: {type(error).__name__}: {error}"]


class Explore(Workload):
    def __init__(self, pkg, seed, work, nproc):
        super().__init__(pkg, seed, work, nproc)
        self.items_per_op = EXPLORE_M
        self.design_seed, skipped = frontier.reachable_design_seed(
            pkg.strategy.sample_design, EXPLORE_M, seed
        )
        self.info = {"design_seed": self.design_seed, "design_seeds_skipped": skipped}

    def setup_args(self, rep_dir):
        return ["--seed", str(self.seed), "--stack", str(rep_dir / "stack")]

    def after_setup(self, rep_dir):
        self.manifest = rep_dir / "stack" / "stack_manifest.csv"
        self.stack = checks.Stack(self.manifest)

    def operation(self, i):
        pipeline = self.pkg.pipeline
        config = explore_config(pipeline, self.manifest, self.design_seed, self.work / f"op{i}", self.workers)
        return lambda: pipeline.run_pipeline(config)

    def check(self, i, result, error):
        out = self.work / f"op{i}"
        try:
            if error is not None:
                return [f"run {i}: {type(error).__name__}: {error}"]
            manifest = json.loads((out / "run_manifest.json").read_text())
            self.stage_s[i] = manifest["durations"]
            maps = checks.read_store(out / "maps.bin")
            rows = np.random.default_rng([self.seed, i]).choice(len(maps), SAMPLED_ROWS, replace=False)
            return (
                checks.maps_match_weights(out, self.stack, maps, rows)
                + checks.curve_matches_tree(out, maps)
                + checks.cluster_means_match(out, maps, self.stack.mask)
            )
        finally:
            shutil.rmtree(out, ignore_errors=True)


class Reanalyze(Explore):
    def __init__(self, pkg, seed, work, nproc):
        super().__init__(pkg, seed, work, nproc)
        self.workers = 1

    def setup_args(self, rep_dir):
        return super().setup_args(rep_dir) + [
            "--prime", str(rep_dir / "prime"), "--design-seed", str(self.design_seed)
        ]

    def after_setup(self, rep_dir):
        super().after_setup(rep_dir)
        self.prime = rep_dir / "prime"
        self.maps = checks.read_store(self.prime / "maps.bin")

    def operation(self, i):
        pipeline = self.pkg.pipeline
        out = self.work / f"op{i}"
        return lambda: pipeline.analyze(self.prime, REANALYZE_K, out_dir=out, workers=self.workers)

    def check(self, i, result, error):
        out = self.work / f"op{i}"
        try:
            if error is not None:
                return [f"analyze {i}: {type(error).__name__}: {error}"]
            return (
                checks.same_bytes(self.prime / "merge_tree.csv", out / "merge_tree.csv")
                + checks.same_bytes(self.prime / "variance_curve.csv", out / "variance_curve.csv")
                + checks.cluster_means_match(out, self.maps, self.stack.mask)
            )
        finally:
            shutil.rmtree(out, ignore_errors=True)


WORKLOADS = {"solve": Solve, "explore": Explore, "reanalyze": Reanalyze}
