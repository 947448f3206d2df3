"""Command-line interface.

Exit codes: 0 success, 2 configuration error, 3 data error, 4 numerical
failure (no generating distribution / no convergence).
"""

from __future__ import annotations

import argparse
import sys
import warnings
from pathlib import Path

from .errors import ConfigError, DataError, NumericalError, OwaExplorerError
from .grid import parse_ascii_grid
from .pipeline import (
    analyze,
    format_design_csv,
    format_weights_csv,
    load_config,
    render_pgm,
    run_pipeline,
    synth_generate,
)
from .prep import run_prep
from .strategy import DecisionPoint, generate_weights, sample_design


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="owa-explorer",
        description="Explore the risk/trade-off decision-strategy space of an "
        "OWA multi-criteria suitability analysis and cluster the resulting maps.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="full pipeline: sample, aggregate, cluster")
    p_run.add_argument("--config", required=True, type=Path)
    p_run.add_argument("--seed", type=int)
    p_run.add_argument("--m", type=int)
    p_run.add_argument("--k", type=int)
    p_run.add_argument("--workers", type=int, help="deprecated: has no effect and warns")
    p_run.add_argument("--out", type=Path)

    p_synth = sub.add_parser("synth", help="generate a synthetic criterion stack")
    p_synth.add_argument("--width", type=int, default=64)
    p_synth.add_argument("--height", type=int, default=64)
    p_synth.add_argument("--n", type=int, default=10)
    p_synth.add_argument("--seed", type=int, default=0)
    p_synth.add_argument("--out", type=Path, required=True)

    p_sample = sub.add_parser("sample", help="sample a design and print it as CSV")
    p_sample.add_argument("--m", type=int, default=1000)
    p_sample.add_argument("--seed", type=int, default=0)

    p_weights = sub.add_parser("weights", help="order weights for one (r, t) point")
    p_weights.add_argument("--r", type=float, required=True)
    p_weights.add_argument("--t", type=float, required=True)
    p_weights.add_argument("--n", type=int, default=10)

    p_prep = sub.add_parser("prep", help="build criterion layers from raw inputs")
    p_prep.add_argument("--config", required=True, type=Path)
    p_prep.add_argument("--out", type=Path)

    p_analyze = sub.add_parser("analyze", help="re-cluster an existing run with a new k")
    p_analyze.add_argument("--run-dir", required=True, type=Path)
    p_analyze.add_argument("--k", type=int, required=True)
    p_analyze.add_argument("--out", type=Path)
    p_analyze.add_argument(
        "--workers", type=int, default=1,
        help="deprecated: has no effect, analyze computes no distances",
    )

    p_render = sub.add_parser("render", help="render a grid to a 16-bit PGM image")
    p_render.add_argument("grid", type=Path)
    p_render.add_argument("out", type=Path)

    return parser


def main(argv: list[str] | None = None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        if args.command == "run":
            overrides = {
                "seed": args.seed,
                "m": args.m,
                "k": args.k,
                "workers": args.workers,
                "out": args.out,
            }
            with warnings.catch_warnings():
                warnings.simplefilter("always", DeprecationWarning)  # show it on stderr
                config = load_config(args.config, overrides)
            manifest = run_pipeline(config)
            total = sum(manifest.durations.values())
            print(f"run complete in {total:.1f}s; outputs in {config.out}")
        elif args.command == "synth":
            manifest = synth_generate(args.width, args.height, args.n, args.seed, args.out)
            print(f"wrote synthetic stack manifest {manifest}")
        elif args.command == "sample":
            if args.m < 1:
                raise ConfigError(f"--m must be >= 1, got {args.m}")
            if args.seed < 0:
                raise ConfigError(f"--seed must be >= 0, got {args.seed}")
            print(format_design_csv(sample_design(args.m, args.seed)), end="")
        elif args.command == "weights":
            if args.n < 2:
                raise ConfigError(f"--n must be >= 2, got {args.n}")
            w = generate_weights(DecisionPoint(args.r, args.t), args.n)
            print(format_weights_csv(w.w[None, :]), end="")
        elif args.command == "prep":
            manifest_path = run_prep(args.config, args.out)
            print(f"wrote criterion stack manifest {manifest_path}")
        elif args.command == "analyze":
            with warnings.catch_warnings():
                warnings.simplefilter("always", DeprecationWarning)  # show it on stderr
                analyze(args.run_dir, args.k, args.out, workers=args.workers)
            print(f"re-clustered {args.run_dir} with k={args.k}")
        elif args.command == "render":
            raster = parse_ascii_grid(args.grid.read_text())
            render_pgm(raster, args.out)
            print(f"wrote {args.out}")
    except ConfigError as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return 2
    except NumericalError as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 4
    except (DataError, OwaExplorerError, OSError) as exc:
        print(f"data error: {exc}", file=sys.stderr)
        return 3
    return 0


if __name__ == "__main__":
    sys.exit(main())
