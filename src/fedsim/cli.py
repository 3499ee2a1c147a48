"""Command-line front end: parse a config, run/sweep/verify/gradcheck.

Config files are INI-style with three sections ([problem], [algorithm],
[run]); any key can be overridden on the command line with repeated
``-o key=value`` flags.  Exit codes are scriptable: 0 success, 1 config or
I/O error, 2 divergence, 3 verification failure.
"""

from __future__ import annotations

import argparse
import configparser
import dataclasses
import json
import math
import sys
from pathlib import Path
from typing import Optional, Sequence

from .algorithms import AlgoParams, MimHyper, ROUND_FUNCTIONS
from .analysis import MetricRow, finite_difference_check
from .simulator import (
    ConfigError,
    ProblemConfig,
    RunConfig,
    RunRecord,
    build_problem,
    run_sweep,
    run_training,
)
from .vectors import derive_rng

METRIC_COLUMNS = ("round", "loss", "grad_norm_sq", "grad_norm_sq_at_u", "consistency",
                  "delta_norm_sq", "residual_delta", "residual_u", "eta_l")

VERIFY_TOLERANCE = 1e-9
GRADCHECK_SETTINGS = {  # kind -> (fd step, max relative error)
    "quadratic": (1e-6, 1e-6),
    "logreg": (1e-6, 1e-5),
    "csv": (1e-6, 1e-5),
    "mlp": (1e-5, 1e-4),
}

_PROBLEM_KEYS = {
    "kind": str, "n_clients": int, "dim": int, "heterogeneity": float,
    "concentration": "concentration", "sigma_l": float, "batch_size": int,
    "samples_per_client": int, "weight_decay": float, "mlp_hidden": int,
    "csv_path": str, "label_column": str,
}
_ALGO_KEYS = {
    "name": str, "alpha": "weights", "beta": "weights", "eta_l": float,
    "k_local": int, "s_participate": int, "lr_decay": float, "fedcm_alpha": float,
    "adam_beta1": float, "adam_beta2": float, "adam_eps": float, "global_lr": float,
}
_RUN_KEYS = {
    "rounds": int, "seed": int, "metric_every": int, "verify": "bool",
    "out_dir": str, "corrupt_delta": float,
}
_SECTIONS = {"problem": _PROBLEM_KEYS, "algorithm": _ALGO_KEYS, "run": _RUN_KEYS}


def _convert(section: str, key: str, raw: str):
    kind = _SECTIONS[section][key]
    try:
        if kind is str:
            return raw
        if kind is int:
            return int(raw)
        if kind is float:
            return float(raw)
        if kind == "bool":
            low = raw.strip().lower()
            if low in ("1", "true", "yes", "on"):
                return True
            if low in ("0", "false", "no", "off"):
                return False
            raise ValueError(raw)
        if kind == "concentration":
            return None if raw.strip().lower() == "iid" else float(raw)
        if kind == "weights":
            return tuple(float(v) for v in raw.split(",") if v.strip())
    except ValueError:
        raise ConfigError(f"invalid value '{raw}' for {section}.{key}") from None
    raise ConfigError(f"unhandled key {section}.{key}")


def _locate(key: str) -> tuple:
    dotted = key.split(".", 1)
    if len(dotted) == 2 and dotted[0] in _SECTIONS and dotted[1] in _SECTIONS[dotted[0]]:
        return dotted[0], dotted[1]
    hits = [s for s, keys in _SECTIONS.items() if key in keys]
    if len(hits) == 1:
        return hits[0], key
    raise ConfigError(f"unknown override key '{key}'")


def parse_config(path: str, overrides: Sequence[str] = ()) -> RunConfig:
    """Load, override and validate a run configuration."""
    parser = configparser.ConfigParser(interpolation=None, inline_comment_prefixes=("#", ";"))
    read = parser.read(path)
    if not read:
        raise ConfigError(f"config file not found: {path}")

    values: dict = {s: {} for s in _SECTIONS}
    for section in parser.sections():
        if section not in _SECTIONS:
            raise ConfigError(f"unknown config section [{section}]")
        for key, raw in parser.items(section):
            if key not in _SECTIONS[section]:
                raise ConfigError(f"unknown config key '{key}' in section [{section}]")
            values[section][key] = _convert(section, key, raw)

    for item in overrides:
        if "=" not in item:
            raise ConfigError(f"override '{item}' is not key=value")
        key, raw = item.split("=", 1)
        section, key = _locate(key.strip())
        values[section][key] = _convert(section, key, raw.strip())

    for section, key in (("problem", "kind"), ("algorithm", "name"), ("run", "rounds")):
        if key not in values[section]:
            raise ConfigError(f"missing required key '{key}' in section [{section}]")

    prob = values["problem"]
    algo = values["algorithm"]
    run = values["run"]

    problem = ProblemConfig(
        kind=prob["kind"],
        n_clients=prob.get("n_clients", 10),
        dim=prob.get("dim", 10),
        heterogeneity=prob.get("heterogeneity", 1.0),
        concentration=prob.get("concentration", None),
        sigma_l=prob.get("sigma_l", 0.1),
        batch_size=prob.get("batch_size", 20),
        samples_per_client=prob.get("samples_per_client", 50),
        weight_decay=prob.get("weight_decay", 1e-3),
        mlp_hidden=prob.get("mlp_hidden", 8),
        csv_path=prob.get("csv_path"),
        label_column=prob.get("label_column"),
    )
    name = algo["name"]
    if name not in ROUND_FUNCTIONS:
        raise ConfigError(f"unknown algorithm '{name}' (choose from {sorted(ROUND_FUNCTIONS)})")
    try:
        hyper = MimHyper(
            alpha=algo.get("alpha", (0.6, 0.3)),
            beta=algo.get("beta", (0.9, 0.1)),
            eta_l=algo.get("eta_l", 0.1),
            k_local=algo.get("k_local", 10),
            s_participate=algo.get("s_participate", problem.n_clients),
            lr_decay=algo.get("lr_decay", 0.998),
        )
        params = AlgoParams(
            fedcm_alpha=algo.get("fedcm_alpha", 0.1),
            adam_beta1=algo.get("adam_beta1", 0.9),
            adam_beta2=algo.get("adam_beta2", 0.99),
            adam_eps=algo.get("adam_eps", 1e-3),
            global_lr=algo.get("global_lr", 0.1 if name == "fedadam" else 1.0),
        )
    except ValueError as exc:
        raise ConfigError(str(exc)) from None
    config = RunConfig(
        problem=problem,
        algorithm=name,
        hyper=hyper,
        params=params,
        rounds=run["rounds"],
        master_seed=run.get("seed", 0),
        metric_every=run.get("metric_every", 1),
        verify=run.get("verify", False),
        out_dir=run.get("out_dir", "runs"),
        corrupt_delta=run.get("corrupt_delta", 0.0),
    )
    return config.validated()


def _fmt(value) -> str:
    if value is None:
        return ""
    if isinstance(value, int):
        return str(value)
    return f"{value:.17g}"


def metric_row_fields(row: MetricRow) -> list:
    return [_fmt(getattr(row, col)) for col in METRIC_COLUMNS]


def write_metrics_csv(rows: Sequence[MetricRow], path: Path) -> None:
    lines = [",".join(METRIC_COLUMNS)]
    lines.extend(",".join(metric_row_fields(row)) for row in rows)
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")


def read_metrics_csv(path: Path) -> list:
    """Parse an emitted metrics file back into MetricRow values (lossless)."""
    lines = path.read_text(encoding="utf-8").strip().split("\n")
    if lines[0] != ",".join(METRIC_COLUMNS):
        raise ConfigError(f"unexpected metrics header in {path}")
    rows = []
    for line in lines[1:]:
        cells = line.split(",")
        kwargs = {}
        for col, cell in zip(METRIC_COLUMNS, cells):
            if cell == "":
                kwargs[col] = None
            elif col == "round":
                kwargs[col] = int(cell)
            else:
                kwargs[col] = float(cell)
        rows.append(MetricRow(**kwargs))
    return rows


def _json_float(value):
    if value is None or not math.isfinite(value):
        return None
    return value


def write_run_json(record: RunRecord, path: Path) -> None:
    bound = record.eta_bound
    payload = {
        "config": dataclasses.asdict(record.config),
        "status": "diverged" if record.diverged_round is not None else "completed",
        "eta_l_bound": None if bound is None else {"value": bound.bound, "satisfied": bound.satisfied},
        "final_loss": _json_float(record.final_loss),
        "wall_ms_total": record.wall_ms_total,
    }
    if record.diverged_round is not None:
        payload["diverged_round"] = record.diverged_round
        payload["diverged_client"] = record.diverged_client
        payload["diverged_step"] = record.diverged_step
    if record.max_residual_delta is not None:
        payload["verification"] = {
            "max_residual_delta": record.max_residual_delta,
            "max_residual_u": record.max_residual_u,
        }
    path.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n", encoding="utf-8")


def _emit_run(record: RunRecord, out_dir: str) -> Path:
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    write_metrics_csv(record.rows, out / "metrics.csv")
    write_run_json(record, out / "run.json")
    return out


def cmd_run(config: RunConfig) -> int:
    record = run_training(config)
    out = _emit_run(record, config.out_dir)
    print(f"{record.status}: {len(record.rows)} metric rows -> {out / 'metrics.csv'}")
    if record.final_loss is not None:
        print(f"final loss {record.final_loss:.6g}")
    return 2 if record.diverged_round is not None else 0


def cmd_verify(config: RunConfig) -> int:
    if config.algorithm != "fedmim":
        raise ConfigError("verify requires algorithm=fedmim")
    record = run_training(dataclasses.replace(config, verify=True))
    out = _emit_run(record, config.out_dir)
    if record.diverged_round is not None:
        print(record.status, file=sys.stderr)
        return 2
    print(f"max residual_delta {record.max_residual_delta:.3e}")
    print(f"max residual_u     {record.max_residual_u:.3e}")
    print(f"wrote {out / 'metrics.csv'}")
    if record.max_residual_delta <= VERIFY_TOLERANCE and record.max_residual_u <= VERIFY_TOLERANCE:
        print(f"verification passed (tolerance {VERIFY_TOLERANCE:g})")
        return 0
    print(f"verification residual exceeded tolerance {VERIFY_TOLERANCE:g}", file=sys.stderr)
    return 3


def cmd_sweep(config: RunConfig, axis: str, raw_values: Sequence[str]) -> int:
    values: list = []
    for occurrence in raw_values:
        if axis == "alpha_beta" or "|" in occurrence:
            values.append(occurrence)
        else:
            values.extend(v.strip() for v in occurrence.split(",") if v.strip())
    records = run_sweep(config, axis, values)
    out = Path(config.out_dir)
    out.mkdir(parents=True, exist_ok=True)
    lines = [",".join(("axis", "value") + METRIC_COLUMNS)]
    for value, record in zip(values, records):
        for row in record.rows:
            lines.append(",".join([axis, str(value).replace(",", ";")] + metric_row_fields(row)))
    (out / "sweep.csv").write_text("\n".join(lines) + "\n", encoding="utf-8")
    summary = {
        "axis": axis,
        "values": [str(v) for v in values],
        "status": [r.status for r in records],
        "final_loss": [r.final_loss for r in records],
    }
    (out / "sweep.json").write_text(json.dumps(summary, indent=2, sort_keys=True) + "\n", encoding="utf-8")
    print(f"{len(records)} runs -> {out / 'sweep.csv'}")
    return 2 if any(r.diverged_round is not None for r in records) else 0


def cmd_gradcheck(config: RunConfig) -> int:
    problem = build_problem(config.problem, config.master_seed)
    h, tolerance = GRADCHECK_SETTINGS[config.problem.kind]
    gen = derive_rng(config.master_seed, 1, 0, 2).generator
    worst = 0.0
    for cid, client in enumerate(problem.clients):
        x = 0.1 * gen.standard_normal(problem.dim)
        err = finite_difference_check(client, x, h)
        worst = max(worst, err)
        print(f"client {cid}: max relative gradient error {err:.3e}")
    print(f"worst {worst:.3e} (tolerance {tolerance:g}, h {h:g})")
    if worst <= tolerance:
        return 0
    print("gradient check failed", file=sys.stderr)
    return 3


def build_arg_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="fedsim", description=__doc__)
    sub = parser.add_subparsers(dest="subcommand", required=True)
    for name, helptext in (
        ("run", "train once and write metrics.csv + run.json"),
        ("sweep", "run one axis sweep and write a combined sweep.csv"),
        ("verify", "run with identity checks on and gate on the residuals"),
        ("gradcheck", "finite-difference check of every client gradient oracle"),
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
    try:
        config = parse_config(args.config, overrides)
        if args.subcommand == "run":
            return cmd_run(config)
        if args.subcommand == "verify":
            return cmd_verify(config)
        if args.subcommand == "sweep":
            return cmd_sweep(config, args.axis, args.values)
        if args.subcommand == "gradcheck":
            return cmd_gradcheck(config)
        raise ConfigError(f"unknown subcommand {args.subcommand}")
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


def entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entry()
