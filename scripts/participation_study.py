#!/usr/bin/env python3
"""Participation study: rounds needed to push the gradient norm under a target.

Sweeps the number of participating clients S on a noisy quadratic and reports
the median number of rounds (over seeds) until ||grad f(x_t)||^2 drops below
the threshold, the empirical speedup trend.  Settings come from -c
(configs/participation_study.ini by default) and -o overrides; each seed is
one ``s_participate`` sweep, so its problem is built once.  Exits 1 on a
usage, config or I/O error, else as ``fedsim sweep`` does after the table
(``fedsim.cli.exit_code``: 2 on a divergence or a non-finite final loss, 3
on a failed verify run).

Example:
    python scripts/participation_study.py --participate 2,5,10,20 --seeds 0,1,2,3,4
"""

import math
import sys
from pathlib import Path

import numpy as np

from fedsim.cli import USER_ERRORS, UsageParser, exit_code, parse_config
from fedsim.simulator import ConfigError, run_sweep, sweep_configs, with_settings

CONFIG = Path(__file__).resolve().parents[1] / "configs" / "participation_study.ini"


def int_list(raw: str) -> list:
    return [int(v) for v in raw.split(",")]


def parse_args():
    p = UsageParser(description=__doc__)
    p.add_argument("-c", "--config", default=str(CONFIG), help="INI config file")
    p.add_argument("-o", "--override", action="append", default=[], metavar="KEY=VALUE",
                   help="override any config key (repeatable)")
    p.add_argument("--seeds", type=int_list, default="0,1,2,3,4", help="master seeds (replace run.seed)")
    p.add_argument("--participate", type=int_list, default="2,5,10,20", help="S values to sweep")
    p.add_argument("--threshold", type=float, default=1e-4,
                   help="target for ||grad f||^2, finite and > 0")
    return p.parse_args()


def rounds_to_threshold(record, threshold: float) -> int:
    censored = record.config.rounds + 1
    return next((row.round for row in record.rows if row.grad_norm_sq <= threshold), censored)


def main():
    args = parse_args()
    try:
        if not (math.isfinite(args.threshold) and args.threshold > 0):
            raise ConfigError(f"threshold must be finite and > 0, got {args.threshold}")
        config = parse_config(args.config, args.override)
        sweeps = [run_sweep(sweep_configs(with_settings(config, {"seed": seed}), "s_participate",
                                          args.participate))
                  for seed in args.seeds]
    except USER_ERRORS as exc:
        sys.exit(f"error: {exc}")

    print(f"{'S':>4}  {'median rounds':>13}  per-seed")
    runs, labels = [], []
    for s, records in zip(args.participate, zip(*sweeps)):
        per_seed = [rounds_to_threshold(record, args.threshold) for record in records]
        print(f"{s:>4}  {np.median(per_seed):>13.0f}  {per_seed}")
        runs.extend(records)
        labels.extend(f"S {s} seed {seed}" for seed in args.seeds)
    if code := exit_code(runs, labels):
        sys.exit(code)


if __name__ == "__main__":
    main()
