#!/usr/bin/env python3
"""Run every algorithm on one shared problem and tabulate the outcomes.

Settings come from -c (configs/compare_algorithms.ini by default) and -o
overrides.  Each seed is one ``algorithm`` sweep, so its problem is built
once; every run's rows go to run.out_dir/compare.csv, grouped by algorithm.
The median consistency is over the runs that recorded a metric row (nan when
none did).  Exits 1 on a usage, config or I/O error, else as ``fedsim
sweep`` does (``fedsim.cli.exit_code``: 2 on a divergence, 3 on a failed
verify run).

Example:
    python scripts/compare_algorithms.py --seeds 0,1,2 -o kind=logreg -o concentration=0.1
"""

import math
import sys
from pathlib import Path

import numpy as np

from fedsim.cli import METRIC_COLUMNS, UsageParser, exit_code, metric_row_fields, parse_config
from fedsim.simulator import ConfigError, run_sweep, sweep_configs, with_settings

ALGORITHMS = ("fedavg", "fedcm", "scaffold", "fedadam", "fedmim")
CONFIG = Path(__file__).resolve().parents[1] / "configs" / "compare_algorithms.ini"


def parse_args():
    p = UsageParser(description=__doc__)
    p.add_argument("-c", "--config", default=str(CONFIG), help="INI config file")
    p.add_argument("-o", "--override", action="append", default=[], metavar="KEY=VALUE",
                   help="override any config key (repeatable)")
    p.add_argument("--seeds", type=lambda s: [int(v) for v in s.split(",")], default="0",
                   help="comma-separated master seeds (replace run.seed)")
    return p.parse_args()


def main():
    args = parse_args()
    try:
        config = parse_config(args.config, args.override)
        out = Path(config.out_dir)
        out.mkdir(parents=True, exist_ok=True)  # before any training, so a bad directory fails first
        sweeps = [run_sweep(sweep_configs(with_settings(config, {"seed": seed}), "algorithm", ALGORITHMS))
                  for seed in args.seeds]
    except (ConfigError, OSError) as exc:
        sys.exit(f"error: {exc}")

    lines = [",".join(("algorithm", "seed") + METRIC_COLUMNS)]
    print(f"{'algorithm':>10}  {'median final loss':>18}  {'median consistency':>19}")
    runs, labels = [], []
    for algorithm, records in zip(ALGORITHMS, zip(*sweeps)):  # seed-major sweeps, algorithm-major rows
        for seed, record in zip(args.seeds, records):
            lines.extend(",".join([algorithm, str(seed)] + metric_row_fields(row)) for row in record.rows)
            runs.append(record)
            labels.append(f"{algorithm} seed {seed}")
        loss = np.median([r.final_loss for r in records])
        finals = [r.rows[-1].consistency for r in records if r.rows]  # a run can diverge before its first row
        cons = np.median(finals) if finals else math.nan
        print(f"{algorithm:>10}  {loss:18.6g}  {cons:19.6g}")
    (out / "compare.csv").write_text("\n".join(lines) + "\n", encoding="utf-8")
    print(f"\nper-round table -> {out / 'compare.csv'}")
    if code := exit_code(runs, labels):
        sys.exit(code)


if __name__ == "__main__":
    main()
