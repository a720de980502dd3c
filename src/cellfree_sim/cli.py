"""Command-line experiment runner.

    simulate --config CONFIG.json [--seed N] [--out DIR] [--experiment NAME]
             [--threads N]

Exit codes: 0 on success, 2 on configuration errors, 3 on numerical failures.
"""

from __future__ import annotations

import argparse
import logging
import sys
from pathlib import Path

from .errors import ConfigError, NumericalError
from .experiments import EXPERIMENTS, parse_config, run_experiment

log = logging.getLogger(__name__)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="simulate",
        description="Cell-free massive MIMO uplink Monte Carlo experiments",
    )
    parser.add_argument("--config", required=True, help="path to the JSON experiment config")
    parser.add_argument("--seed", type=int, default=None, help="override the config seed")
    parser.add_argument("--out", type=Path, default=None, help="override the output directory")
    parser.add_argument("--experiment", choices=EXPERIMENTS, default=None,
                        help="override the configured experiment")
    parser.add_argument("--threads", type=int, default=1,
                        help="parallel setup workers")
    return parser


def main(argv=None) -> int:
    logging.basicConfig(level=logging.INFO, format="%(levelname)s %(name)s: %(message)s")
    args = build_parser().parse_args(argv)

    if args.threads < 1:
        print("error: thread count must be >= 1", file=sys.stderr)
        return 2

    overrides = {key: value for key, value in (("experiment", args.experiment),
                                               ("seed", args.seed), ("out_dir", args.out))
                 if value is not None}
    try:
        cfg = parse_config(args.config, overrides)
        rows, path = run_experiment(cfg, threads=args.threads)
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except NumericalError as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 3
    log.info("wrote %d rows to %s", len(rows), path)
    return 0


if __name__ == "__main__":
    sys.exit(main())
