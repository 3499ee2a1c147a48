"""Command-line front end: parse a config, run/sweep/verify/gradcheck.

Config files are INI-style with three sections ([problem], [algorithm],
[run]); any key can be overridden on the command line with repeated
``-o key=value`` flags; ``verify`` is ``run`` with ``run.verify=true``
added last.  Exit codes are scriptable: 0 success, 1 usage, config or I/O
error, 2 divergence, 3 verification failure (see ``exit_code``).
"""

from __future__ import annotations

import argparse
import configparser
import dataclasses
import hashlib
import json
import math
import platform
import sys
from pathlib import Path
from typing import Optional, Sequence

import numpy as np

from .analysis import MetricRow, finite_difference_check
from .objectives import ClientObjective
from .simulator import (
    ConfigError,
    ProblemConfig,
    RunConfig,
    RunRecord,
    SETTINGS,
    build_problem,
    run_sweep,
    run_training,
    sweep_configs,
    with_settings,
)
from .vectors import PURPOSE_DATA, derive_rng

METRIC_COLUMNS = tuple(f.name for f in dataclasses.fields(MetricRow))

VERIFY_TOLERANCE = 1e-9

_SECTIONS = {setting.section for setting in SETTINGS.values()}


def _locate(key: str) -> str:
    """The SETTINGS key an override names, as ``key`` or as ``section.key``."""
    bare = key.split(".", 1)[-1]
    if bare in SETTINGS and key in (bare, f"{SETTINGS[bare].section}.{bare}"):
        return bare
    raise ConfigError(f"unknown override key '{key}'")


def parse_config(path: str, overrides: Sequence[str] = ()) -> RunConfig:
    """Load and override a run configuration; the config dataclasses check the result."""
    parser = configparser.ConfigParser(interpolation=None, inline_comment_prefixes=("#", ";"))
    try:
        found = parser.read(path, encoding="utf-8")
    except (configparser.Error, UnicodeDecodeError) as exc:  # no section header, a repeat, a non-UTF-8 byte
        raise ConfigError(f"cannot parse config file {path}: {exc}") from None
    if not found:
        raise ConfigError(f"config file not found: {path}")

    raw: dict = {}
    for section in parser.sections():
        if section not in _SECTIONS:
            raise ConfigError(f"unknown config section [{section}]")
        for key, value in parser.items(section):
            if key not in SETTINGS or SETTINGS[key].section != section:
                raise ConfigError(f"unknown config key '{key}' in section [{section}]")
            raw[key] = value

    for item in overrides:
        if "=" not in item:
            raise ConfigError(f"override '{item}' is not key=value")
        key, value = item.split("=", 1)
        raw[_locate(key.strip())] = value.strip()

    for key in ("kind", "name", "rounds"):
        if key not in raw:
            raise ConfigError(f"missing required key '{key}' in section [{SETTINGS[key].section}]")
    raw.setdefault("s_participate", raw.get("n_clients", ProblemConfig.n_clients))
    return with_settings(RunConfig(), raw)


def _fmt(value) -> str:
    if value is None:
        return ""
    if isinstance(value, int):
        return str(value)
    return f"{value:.17g}"


def metric_row_fields(row: MetricRow) -> list:
    return [_fmt(getattr(row, col)) for col in METRIC_COLUMNS]


def metrics_csv_bytes(rows: Sequence[MetricRow]) -> bytes:
    lines = [",".join(METRIC_COLUMNS)]
    lines.extend(",".join(metric_row_fields(row)) for row in rows)
    return ("\n".join(lines) + "\n").encode("utf-8")


def write_metrics_csv(rows: Sequence[MetricRow], path: Path) -> None:
    path.write_bytes(metrics_csv_bytes(rows))


def _json_float(value):
    """``value``, or None (JSON null) for None, NaN and +-inf, which strict JSON cannot hold."""
    if value is None or not math.isfinite(value):
        return None
    return value


def write_run_json(record: RunRecord, path: Path) -> None:
    """The run's summary; its ``manifest`` holds the library versions and the
    sha256 of the bytes ``write_metrics_csv`` writes for the same record."""
    bound = record.eta_bound
    payload = {
        "config": dataclasses.asdict(record.config),
        "status": "diverged" if record.diverged_round is not None else "completed",
        "eta_l_bound": None if bound is None else {"value": _json_float(bound),
                                                   "satisfied": record.config.hyper.eta_l <= bound},
        "final_loss": _json_float(record.final_loss),
        "wall_ms_total": _json_float(record.wall_ms_total),
        "manifest": {
            "python": platform.python_version(),
            "numpy": np.__version__,
            "metrics_csv_sha256": hashlib.sha256(metrics_csv_bytes(record.rows)).hexdigest(),
        },
    }
    if record.diverged_round is not None:
        payload["diverged_round"] = record.diverged_round
        payload["diverged_client"] = record.diverged_client
        payload["diverged_step"] = record.diverged_step
    if record.max_residual_delta is not None:
        payload["verification"] = {
            "max_residual_delta": _json_float(record.max_residual_delta),
            "max_residual_u": _json_float(record.max_residual_u),
        }
    path.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n", encoding="utf-8")


def exit_code(records: Sequence[RunRecord], labels: Sequence[str] = ()) -> int:
    """2 if any run diverged, else 3 if a run with ``verify`` on has a residual above
    ``VERIFY_TOLERANCE``, else 0.  Prints each diverged run's status to stderr and each
    verify run's two residual maxima, after its label when ``labels`` has one per record."""
    prefixes = [f"{label}: " for label in labels] or [""] * len(records)
    diverged = failed = False
    for prefix, record in zip(prefixes, records):
        if record.diverged_round is not None:
            print(prefix + record.status, file=sys.stderr)
            diverged = True
        elif record.config.verify:
            print(f"{prefix}max residual_delta {record.max_residual_delta:.3e}, "
                  f"max residual_u {record.max_residual_u:.3e}")
            failed |= not (record.max_residual_delta <= VERIFY_TOLERANCE
                           and record.max_residual_u <= VERIFY_TOLERANCE)  # a NaN maximum fails
    if failed:
        print(f"verification residual exceeded tolerance {VERIFY_TOLERANCE:g}", file=sys.stderr)
    return 2 if diverged else 3 if failed else 0


def cmd_run(config: RunConfig) -> int:
    """Build the problem, make ``out_dir``, then train: a bad config or directory fails before training.
    If training raises (out of memory, say), an ``out_dir`` made here is removed while it is still empty."""
    problem = build_problem(config.problem, config.master_seed)
    out = Path(config.out_dir)
    made = not out.exists()
    out.mkdir(parents=True, exist_ok=True)
    try:
        record = run_training(config, problem)
    except BaseException:
        if made and not any(out.iterdir()):
            out.rmdir()
        raise
    write_metrics_csv(record.rows, out / "metrics.csv")
    write_run_json(record, out / "run.json")
    print(f"{record.status}: {len(record.rows)} metric rows -> {out / 'metrics.csv'}")
    if record.final_loss is not None:
        print(f"final loss {record.final_loss:.6g}")
    return exit_code([record])


def cmd_sweep(config: RunConfig, axis: str, raw_values: Sequence[str]) -> int:
    values = [v.strip() for occurrence in raw_values  # an empty item is one that its setting's parser rejects
              for v in ([occurrence] if axis == "alpha_beta" else occurrence.split(","))]
    configs = sweep_configs(config, axis, values)
    out = Path(config.out_dir)
    out.mkdir(parents=True, exist_ok=True)
    records = run_sweep(configs)
    lines = [",".join(("axis", "value") + METRIC_COLUMNS)]
    for value, record in zip(values, records):
        for row in record.rows:
            lines.append(",".join([axis, str(value).replace(",", ";")] + metric_row_fields(row)))
    (out / "sweep.csv").write_text("\n".join(lines) + "\n", encoding="utf-8")
    summary = {
        "axis": axis,
        "values": [str(v) for v in values],
        "status": [r.status for r in records],
        "final_loss": [_json_float(r.final_loss) for r in records],
    }
    (out / "sweep.json").write_text(json.dumps(summary, indent=2, sort_keys=True) + "\n", encoding="utf-8")
    print(f"{len(records)} runs -> {out / 'sweep.csv'}")
    return exit_code(records, [f"{axis}={value}" for value in values])


def cmd_gradcheck(config: RunConfig) -> int:
    problem = build_problem(config.problem, config.master_seed)
    h, tolerance = problem.fd_step, problem.fd_tolerance
    gen = derive_rng(config.master_seed, 1, 0, PURPOSE_DATA).generator
    errors = []
    for cid in range(problem.num_clients):
        x = 0.1 * gen.standard_normal(problem.dim)
        errors.append(finite_difference_check(ClientObjective(problem, cid), x, h))
        print(f"client {cid}: max relative gradient error {errors[-1]:.3e}")
    worst = float(np.max(errors))  # a NaN error makes it NaN, which fails the tolerance
    print(f"worst {worst:.3e} (tolerance {tolerance:g}, h {h:g})")
    if worst <= tolerance:
        return 0
    print("gradient check failed", file=sys.stderr)
    return 3


class UsageParser(argparse.ArgumentParser):
    """argparse's parser, except that a usage error exits 1, as a config error does.

    argparse exits 2, which this command line reserves for divergence.  The
    subcommand parsers are built from the same class.
    """

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(1, f"{self.prog}: error: {message}\n")


def build_arg_parser() -> UsageParser:
    parser = UsageParser(prog="fedsim", description=__doc__)
    sub = parser.add_subparsers(dest="subcommand", required=True)
    for name, helptext in (
        ("run", "train once and write metrics.csv + run.json"),
        ("sweep", "run one axis sweep and write a combined sweep.csv"),
        ("verify", "run with run.verify=true: exit 3 if an identity residual exceeds the tolerance"),
        ("gradcheck", "finite-difference check of every client's training gradient"),
    ):
        p = sub.add_parser(name, help=helptext)
        p.add_argument("-c", "--config", required=True, help="INI config file")
        p.add_argument("-o", "--override", action="append", default=[],
                       metavar="KEY=VALUE", help="override any config key (repeatable)")
        p.add_argument("--out", help="output directory (overrides run.out_dir)")
        p.add_argument("--seed", type=int, help="master seed (overrides run.seed)")
        if name == "sweep":
            p.add_argument("--axis", required=True, help="sweep axis name")
            p.add_argument("--values", action="append", required=True,
                           help="sweep values, comma separated (repeatable)")
    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    args = build_arg_parser().parse_args(argv)
    overrides = list(args.override)
    if args.seed is not None:
        overrides.append(f"run.seed={args.seed}")
    if args.out is not None:
        overrides.append(f"run.out_dir={args.out}")
    if args.subcommand == "verify":
        overrides.append("run.verify=true")
    try:
        config = parse_config(args.config, overrides)
        if args.subcommand in ("run", "verify"):
            return cmd_run(config)
        if args.subcommand == "sweep":
            return cmd_sweep(config, args.axis, args.values)
        if args.subcommand == "gradcheck":
            return cmd_gradcheck(config)
        raise ConfigError(f"unknown subcommand {args.subcommand}")
    except (ConfigError, OSError, MemoryError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


def entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entry()
