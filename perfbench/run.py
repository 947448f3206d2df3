"""Benchmark of owa-explorer: end-to-end metrics, or per-layer metrics from
a traced run, for one workload.

    python3 perfbench/run.py --workload solve|explore|reanalyze|all \
        --seed N --seconds S --trace 0|1

Run it from the root of a checkout; the program is imported from `src`.
Set-up runs first, in child interpreters, several times; then operations
run one after another until S seconds have passed, and each output is
checked. The last line of standard output is one JSON object:
{"correct", "attempted", "failed", "metrics"}. With --trace 0 the metrics
are the `end_to_end` ones of BENCHMARK.json, with --trace 1 the
`per_layer` ones: operations then alternate untraced and traced, and
`trace.overhead_frac` compares the two. The exit code is 0 only when every
operation passed its checks. `--workload all` runs each of the three
workloads in its own process and prints their summaries.

Times (wall_s, items_per_s, setup_s) are scaled to a reference host speed
measured by a probe kernel between operations; calibrate.py says why and
how. Per-layer span times are not scaled.

Work files go to `.perfbench/work` and a result file per run (with the
environment, the design seed scan, every sample and, when traced, the
spans) to `.perfbench/results`, both under the checkout root.
`perfbench/moves.json` names, for each per-layer metric, the end-to-end
metric and workload it should move.
"""

from __future__ import annotations

import os

# The program's own thread pools supply the parallelism; BLAS or OpenMP
# threads on top would oversubscribe the cores.
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
             "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

import numpy as np  # noqa: E402

import calibrate  # noqa: E402
from tracer import Tracer, layer_metrics  # noqa: E402
from workloads import STAGES, WORKLOADS  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SETUP_REPS = 3


def environment(nproc: int) -> dict:
    caches = {}
    if shutil.which("lscpu"):
        listing = subprocess.run(["lscpu"], capture_output=True, text=True, timeout=10).stdout
        for line in listing.splitlines():
            key, _, value = line.partition(":")
            if "cache" in key.lower():
                caches[key.strip()] = value.strip()
    return {
        "nproc": nproc,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "caches": caches,
        "threads_env": {k: os.environ[k] for k in sorted(os.environ) if k.endswith("_THREADS")},
    }


def set_up(workload, work: Path) -> tuple[list[float], list[float]]:
    """Time SETUP_REPS fresh set-ups; the workload keeps the first one.
    Returns the raw times and the times scaled to the reference speed."""
    raw = []
    speed = calibrate.HostSpeed()
    for rep in range(SETUP_REPS):
        rep_dir = work / f"setup{rep}"
        cmd = [sys.executable, str(HERE / "prepare.py"), *workload.setup_args(rep_dir)]
        speed.probe(rep)
        t0 = time.perf_counter()
        # no timeout: waiting with one polls in steps of up to 50 ms, which
        # would show in the timing
        subprocess.run(cmd, check=True, stdout=subprocess.DEVNULL)
        raw.append(time.perf_counter() - t0)
        if rep:
            shutil.rmtree(rep_dir, ignore_errors=True)
    speed.probe(SETUP_REPS)
    scaled = [t * speed.scale(rep) for rep, t in enumerate(raw)]
    workload.after_setup(work / "setup0")
    return raw, scaled


def measure(workload, seconds: float, tracer) -> dict:
    """Closed loop: one operation at a time until `seconds` have passed.
    With a tracer, odd-numbered operations run traced. The host-speed
    probe runs between operations, never inside one."""
    walls = []
    problems: list[str] = []
    failed = 0
    traced_ops = []
    speed = calibrate.HostSpeed()
    start = time.perf_counter()
    i = 0
    while i < (3 if tracer else 1) or time.perf_counter() - start < seconds:
        speed.probe_if_due(i)
        traced = tracer is not None and i % 2 == 1
        fn = workload.operation(i)
        if traced:
            tracer.install()
        result, error = None, None
        t0 = time.perf_counter()
        try:
            result = tracer.op(fn) if traced else fn()
        except Exception as exc:  # judged by the workload's check
            error = exc
        walls.append(time.perf_counter() - t0)
        if traced:
            tracer.uninstall()
            traced_ops.append(i)
        found = workload.check(i, result, error)
        if found:
            failed += 1
            problems.extend(found)
        i += 1
    speed.probe(i)
    scaled = [wall * speed.scale(op) for op, wall in enumerate(walls)]
    untraced = sorted(set(range(i)) - set(traced_ops))
    return {"walls": [scaled[op] for op in untraced], "traced_walls": [scaled[op] for op in traced_ops],
            "raw_walls": walls, "probes": speed.log, "attempted": i,
            "failed": failed, "problems": problems, "traced_ops": traced_ops}


def tail(samples: list[float]) -> tuple[int, float] | None:
    """Highest of p99/p95/p90/p75 with at least ten samples beyond it."""
    for p in (99, 95, 90, 75):
        if len(samples) * (100 - p) / 100 >= 10:
            return p, float(np.percentile(samples, p))
    return None


def end_to_end(workload, run: dict, setup: list[float]) -> dict[str, float]:
    wall = float(np.median(run["walls"]))
    return {
        "wall_s": wall,
        "items_per_s": workload.items_per_op / wall,
        "peak_rss_mib": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "setup_s": float(np.median(setup)),
    }


def per_layer(workload, run: dict, tracer) -> dict[str, float]:
    out = layer_metrics(tracer.spans)
    traced = run["traced_ops"]
    for stage in STAGES:
        values = [workload.stage_s[i].get(stage, 0.0) for i in traced if i in workload.stage_s]
        out[f"pipeline.stage.{stage}_s"] = float(np.mean(values)) if values else 0.0
    # operation 0 (untraced) also warms caches, so it is left out here
    untraced = run["walls"][1:]
    out["trace.overhead_frac"] = float(np.median(run["traced_walls"]) / np.median(untraced) - 1.0)
    return out


def run_all(args) -> int:
    status = 0
    for name in ("solve", "explore", "reanalyze"):
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace)]
        proc = subprocess.run(cmd, capture_output=True, text=True, timeout=900)
        print("\n".join(proc.stdout.splitlines()[:-1]), flush=True)
        sys.stderr.write(proc.stderr)
        status = status or proc.returncode
    return status


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True, choices=("solve", "explore", "reanalyze", "all"))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    if not (ROOT / "src" / "owa_explorer" / "__init__.py").is_file():
        print(f"perfbench: no program source at {ROOT / 'src' / 'owa_explorer'}", file=sys.stderr)
        return 2
    if args.workload == "all":
        return run_all(args)

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]

    sys.path.insert(0, str(ROOT / "src"))
    import owa_explorer
    import owa_explorer.pipeline  # noqa: F401  (not imported by the package itself)

    nproc = len(os.sched_getaffinity(0))
    base = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    work = ROOT / ".perfbench" / "work" / f"{base}-{os.getpid()}"
    results = ROOT / ".perfbench" / "results"
    results.mkdir(parents=True, exist_ok=True)
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    try:
        workload = WORKLOADS[args.workload](owa_explorer, args.seed, work, nproc)
        setup_raw, setup = set_up(workload, work)
        tracer = Tracer(owa_explorer) if args.trace else None
        run = measure(workload, args.seconds, tracer)
        values = per_layer(workload, run, tracer) if tracer else end_to_end(workload, run, setup)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in wanted}
    record = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds, "trace": args.trace,
        "environment": environment(nproc), "workload_info": workload.info,
        "setup_samples_s": setup, "setup_raw_samples_s": setup_raw,
        "wall_samples_s": run["walls"], "traced_wall_samples_s": run["traced_walls"],
        "raw_wall_samples_s": run["raw_walls"], "probes": run["probes"], "wall_tail": tail(run["walls"]),
        "attempted": run["attempted"], "failed": run["failed"], "problems": run["problems"],
        "all_values": values,
    }
    if args.workload == "solve":
        record["rejected_points"] = sorted(set(workload.rejected))
    if tracer:
        record["spans"] = [
            [s.id, s.parent, s.name, s.thread, s.start, s.end, s.failed] for s in tracer.spans
        ]
    (results / f"{base}.json").write_text(json.dumps(record) + "\n")

    env = record["environment"]
    print(f"{args.workload} environment: nproc {env['nproc']}, Python {env['python']}, "
          f"numpy {env['numpy']}, {', '.join(f'{k} {v}' for k, v in env['caches'].items())}")
    if workload.info:
        print(f"{args.workload} inputs: {json.dumps(workload.info)}")
    for name, metric in metrics.items():
        print(f"{args.workload} {name} = {metric['value']:.6g} {metric['unit']}")
    if not args.trace:
        sample = f"median of {len(run['walls'])} operations"
        if record["wall_tail"]:
            p, value = record["wall_tail"]
            sample += f", p{p} {value:.6g} s"
        print(f"{args.workload} wall_s: {sample}; at reference speed (probe {calibrate.REFERENCE_S} s), "
              f"raw median {np.median(run['raw_walls']):.6g} s, probe median {np.median([s for _, s in run['probes']]):.6g} s")
    print(f"{args.workload} failed_frac = {run['failed'] / run['attempted']:.6g} "
          f"({run['failed']}/{run['attempted']} operations)")
    if args.workload == "solve":
        print(f"solve rejected as unreachable: {len(record['rejected_points'])} of the points attempted; "
              f"{workload.info['beyond_frontier']} of {workload.info['points']} lie beyond the frontier")
    for problem in run["problems"][:20]:
        print(f"{args.workload} FAILED: {problem}", file=sys.stderr)
    print(json.dumps({
        "correct": run["failed"] == 0,
        "attempted": run["attempted"],
        "failed": run["failed"],
        "metrics": metrics,
    }))
    return 0 if run["failed"] == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
