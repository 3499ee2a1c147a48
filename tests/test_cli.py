import configparser
import csv
import dataclasses
import hashlib
import json
import math
import platform
import re
import warnings
from collections import Counter
from pathlib import Path
from unittest import mock

import numpy as np
import pytest

from fedsim import cli, objectives, simulator
from fedsim.algorithms import MimHyper
from fedsim.cli import (
    METRIC_COLUMNS,
    main,
    parse_config,
)
from fedsim.simulator import SETTINGS, SWEEP_AXES, ConfigError, ProblemConfig, RunConfig, apply_axis

CONFIG_DIR = Path(__file__).resolve().parents[1] / "configs"
WORKLOAD_DIR = Path(__file__).resolve().parents[1] / "perfbench" / "workloads"
SHIPPED_CONFIGS = sorted(CONFIG_DIR.glob("*.ini"))

MINIMAL = """\
[problem]
kind = quadratic

[algorithm]
name = fedmim

[run]
rounds = 10
"""

QUAD_VERIFY = """\
[problem]
kind = quadratic
n_clients = 8
dim = 5
heterogeneity = 1.0
sigma_l = 0.1

[algorithm]
name = fedmim
eta_l = 0.02
k_local = 10
s_participate = 8

[run]
rounds = 60
seed = 42
verify = true
"""

MALFORMED_INI = {  # files configparser or the UTF-8 codec rejects before any key is read
    "no-section-header": b"kind = quadratic\n",
    "repeated-key": b"[problem]\nkind = quadratic\nkind = mlp\n[algorithm]\nname = fedmim\n[run]\nrounds = 1\n",
    "repeated-section": b"[problem]\nkind = quadratic\n[algorithm]\nname = fedmim\n[problem]\ndim = 3\n"
                        b"[run]\nrounds = 1\n",
    "non-utf8-byte": b"[problem]\nkind = quadratic\n# caf\xe9\n[algorithm]\nname = fedmim\n[run]\nrounds = 1\n",
}


# (section, key) -> (raw INI value, the value it sets); every value differs from the
# default, and the field it lands in is found by comparing whole configs
SETTING_SAMPLES = {
    ("problem", "kind"): ("logreg", "logreg"),
    ("problem", "n_clients"): ("12", 12),
    ("problem", "dim"): ("3", 3),
    ("problem", "heterogeneity"): ("2.5", 2.5),
    ("problem", "concentration"): ("0.7", 0.7),
    ("problem", "sigma_l"): ("0.25", 0.25),
    ("problem", "batch_size"): ("0", 0),
    ("problem", "samples_per_client"): ("7", 7),
    ("problem", "weight_decay"): ("0", 0.0),
    ("problem", "mlp_hidden"): ("3", 3),
    ("problem", "csv_path"): ("data.csv", "data.csv"),
    ("problem", "label_column"): ("y", "y"),
    ("algorithm", "name"): ("fedadam", "fedadam"),
    ("algorithm", "alpha"): ("0.5,0.2", (0.5, 0.2)),
    ("algorithm", "beta"): ("0.3,0.2", (0.3, 0.2)),
    ("algorithm", "eta_l"): ("0.05", 0.05),
    ("algorithm", "k_local"): ("3", 3),
    ("algorithm", "s_participate"): ("4", 4),
    ("algorithm", "lr_decay"): ("1", 1.0),
    ("algorithm", "fedcm_alpha"): ("0.2", 0.2),
    ("algorithm", "adam_beta1"): ("0.5", 0.5),
    ("algorithm", "adam_beta2"): ("0.6", 0.6),
    ("algorithm", "adam_eps"): ("1e-4", 1e-4),
    ("algorithm", "global_lr"): ("0.5", 0.5),
    ("run", "rounds"): ("3", 3),
    ("run", "seed"): ("7", 7),
    ("run", "metric_every"): ("2", 2),
    ("run", "verify"): ("yes", True),
    ("run", "out_dir"): ("elsewhere", "elsewhere"),
    ("run", "corrupt_delta"): ("1e-6", 1e-6),
}
FIELD_OF_KEY = {"name": "algorithm", "seed": "master_seed"}  # every other key sets the field of its name
# [problem] entries of a base whose kind reads the key; every other key is set on the quadratic MINIMAL
LOGREG_BASE = {"kind": "logreg"}
CSV_BASE = {"kind": "csv", "csv_path": "base.csv", "label_column": "label"}
BASE_OF_KEY = {
    "concentration": LOGREG_BASE,
    "batch_size": LOGREG_BASE,
    "samples_per_client": LOGREG_BASE,
    "weight_decay": LOGREG_BASE,
    "mlp_hidden": {"kind": "mlp"},
    "csv_path": CSV_BASE,
    "label_column": CSV_BASE,
}

# (sweep axis, value, the -o overrides that must give the same config)
AXIS_CASES = [
    ("s_participate", "4", ["s_participate=4"]),
    ("k_local", "3", ["k_local=3"]),
    ("eta_l", "0.05", ["eta_l=0.05"]),
    ("concentration", "iid", ["concentration=iid"]),
    ("concentration", "0.3", ["concentration=0.3"]),
    ("alpha_beta", "0.5|0.3", ["alpha=0.5", "beta=0.3"]),
    ("alpha_beta", "0.5,0.2,0.1|0.3", ["alpha=0.5,0.2,0.1", "beta=0.3"]),
    ("algorithm", "fedadam", ["name=fedadam"]),
]


def write_ini(path, *entries: dict) -> str:
    """MINIMAL plus ``s_participate = 5`` (so it no longer follows n_clients) plus each of ``entries`` in turn."""
    ini = configparser.ConfigParser()
    ini.read_string(MINIMAL)
    ini.read_dict({"algorithm": {"s_participate": "5"}})
    for more in entries:
        ini.read_dict(more)
    with open(path, "w") as handle:
        ini.write(handle)
    return str(path)


def construct(overrides) -> RunConfig:
    """The config that ``overrides`` (``key=value`` items) set, built directly from the dataclasses."""
    fields: dict = {part: {} for part in ("problem", "hyper", None)}
    for item in overrides:
        key, raw = item.split("=", 1)
        fields[SETTINGS[key].part][SETTINGS[key].field] = SETTINGS[key].parse(raw)
    return RunConfig(problem=ProblemConfig(**fields["problem"]), hyper=MimHyper(**fields["hyper"]), **fields[None])


def assert_rejected(minimal_config, tmp_path, capsys, overrides, message) -> None:
    """``fedsim run`` exits 1 with ``message`` and writes nothing; building the config directly raises it.

    ProblemConfig and RunConfig raise a ConfigError themselves; MimHyper
    raises a ValueError that the settings table turns into one.
    """
    out = tmp_path / "out"
    args = ["run", "-c", minimal_config, "--out", str(out)]
    for item in overrides:
        args += ["-o", item]
    assert main(args) == 1
    assert message in capsys.readouterr().err
    assert not out.exists()
    parts = {SETTINGS[item.split("=", 1)[0]].part for item in overrides}
    with pytest.raises(ValueError if "hyper" in parts else ConfigError, match=re.escape(message)):
        construct(overrides)


def leaves(cfg: RunConfig) -> dict:
    """Every field of a config and of its nested dataclasses, by field name."""
    flat = {}
    for name, value in dataclasses.asdict(cfg).items():
        flat.update(value if isinstance(value, dict) else {name: value})
    return flat


def strict_json(path):
    """The JSON document at ``path``, failing on NaN and Infinity, which strict JSON has no literal for."""
    def reject(constant):
        raise ValueError(f"{path.name} holds {constant}")
    return json.loads(path.read_text(), parse_constant=reject)


@pytest.fixture
def minimal_config(tmp_path):
    path = tmp_path / "minimal.ini"
    path.write_text(MINIMAL)
    return str(path)


@pytest.fixture
def verify_config(tmp_path):
    path = tmp_path / "verify.ini"
    path.write_text(QUAD_VERIFY)
    return str(path)


class TestParseConfig:
    def test_minimal_defaults(self, minimal_config):
        cfg = parse_config(minimal_config)
        assert cfg.hyper.alpha == (0.6, 0.3)
        assert cfg.hyper.beta == (0.9, 0.1)
        assert cfg.hyper.eta_l == 0.1
        assert cfg.hyper.lr_decay == 0.998
        assert cfg.hyper.s_participate == cfg.problem.n_clients == 10
        assert cfg.problem.weight_decay == 1e-3
        assert cfg.rounds == 10 and cfg.metric_every == 1 and not cfg.verify

    @pytest.mark.parametrize("override", ["alpha=", "alpha=0.5,,0.2", "alpha=0.5,0.2,", "beta=,0.1", "beta= , "])
    def test_empty_weight_item_rejected(self, minimal_config, tmp_path, override):
        # 'alpha=' ran with alpha (0.0, 0.0) and 'alpha=0.5,,0.2' as (0.5, 0.2)
        key, raw = override.split("=")
        with pytest.raises(ConfigError, match=f"invalid value '{raw.strip()}' for algorithm.{key}"):
            parse_config(minimal_config, [override])
        with pytest.raises(ConfigError, match=f"invalid value '{raw.strip()}' for algorithm.{key}"):
            parse_config(write_ini(tmp_path / "empty.ini", {"algorithm": {key: raw}}))

    def test_alpha_sum_rejected(self, minimal_config):
        with pytest.raises(ConfigError, match="alpha weights must sum below 1"):
            parse_config(minimal_config, ["alpha=0.7,0.4"])

    def test_override_precedence(self, minimal_config):
        cfg = parse_config(minimal_config, ["eta_l=0.05", "run.seed=9"])
        assert cfg.hyper.eta_l == 0.05 and cfg.master_seed == 9

    def test_unknown_override_key(self, minimal_config):
        with pytest.raises(ConfigError, match="unknown override key 'learning_rate'"):
            parse_config(minimal_config, ["learning_rate=0.1"])

    def test_bad_value(self, minimal_config):
        with pytest.raises(ConfigError, match="invalid value"):
            parse_config(minimal_config, ["rounds=ten"])

    def test_byte_order_mark_is_dropped(self, tmp_path):
        # a BOM-prefixed file failed with "File contains no section headers"
        plain = CONFIG_DIR / "quadratic_verify.ini"
        marked = tmp_path / "bom.ini"
        marked.write_bytes(b"\xef\xbb\xbf" + plain.read_bytes())
        assert parse_config(str(marked)) == parse_config(str(plain))

    def test_missing_file(self, tmp_path):
        with pytest.raises(ConfigError, match="not found"):
            parse_config(str(tmp_path / "nope.ini"))

    def test_unknown_section_and_key(self, tmp_path):
        bad = tmp_path / "bad.ini"
        bad.write_text("[training]\nrounds = 1\n")
        with pytest.raises(ConfigError, match="unknown config section"):
            parse_config(str(bad))
        bad.write_text("[problem]\nkind = quadratic\nsize = 3\n"
                       "[algorithm]\nname = fedmim\n[run]\nrounds = 1\n")
        with pytest.raises(ConfigError, match="unknown config key 'size'"):
            parse_config(str(bad))

    def test_missing_required(self, tmp_path):
        bad = tmp_path / "norounds.ini"
        bad.write_text("[problem]\nkind = quadratic\n[algorithm]\nname = fedmim\n")
        with pytest.raises(ConfigError, match="missing required key 'rounds'"):
            parse_config(str(bad))

    def test_concentration_iid_token(self, minimal_config):
        assert parse_config(minimal_config, ["kind=logreg", "concentration=iid"]).problem.concentration is None
        assert parse_config(minimal_config, ["kind=logreg", "concentration=0.3"]).problem.concentration == 0.3

    def test_fedadam_global_lr_default(self, minimal_config):
        assert parse_config(minimal_config, ["name=fedadam"]).hyper.global_lr == 0.1
        assert parse_config(minimal_config).hyper.global_lr == 0.1  # one default; only fedadam reads it

    def test_minimal_config_is_the_dataclass_defaults(self, minimal_config):
        expected = RunConfig(rounds=10, hyper=MimHyper(s_participate=ProblemConfig().n_clients))
        assert parse_config(minimal_config) == expected

    def test_samples_cover_every_key(self):
        assert {(setting.section, key) for key, setting in SETTINGS.items()} == set(SETTING_SAMPLES)

    def test_every_field_is_set_by_exactly_one_key(self):
        # a field without a key could not be set from a file, an override or a sweep
        dataclass_of_part = {"problem": ProblemConfig, "hyper": MimHyper, None: RunConfig}
        expected = Counter((part, f.name) for part, cls in dataclass_of_part.items()
                           for f in dataclasses.fields(cls) if f.name not in dataclass_of_part)
        assert Counter((setting.part, setting.field) for setting in SETTINGS.values()) == expected
        assert set(expected.values()) == {1}

    @pytest.mark.parametrize("section, key", sorted(SETTING_SAMPLES))
    def test_key_sets_its_field_from_ini_and_overrides(self, tmp_path, section, key):
        raw, expected = SETTING_SAMPLES[(section, key)]
        base_entries = {"problem": BASE_OF_KEY.get(key, {})}
        base = write_ini(tmp_path / "base.ini", base_entries)
        before = leaves(parse_config(base))
        for cfg in (parse_config(write_ini(tmp_path / "set.ini", base_entries, {section: {key: raw}})),
                    parse_config(base, [f"{key}={raw}"]),
                    parse_config(base, [f"{section}.{key}={raw}"])):
            changed = {name: value for name, value in leaves(cfg).items() if value != before[name]}
            assert changed == {FIELD_OF_KEY.get(key, key): expected}

    @pytest.mark.parametrize("section, key", sorted(SETTING_SAMPLES))
    def test_key_in_wrong_section_rejected(self, tmp_path, section, key):
        raw, _ = SETTING_SAMPLES[(section, key)]
        other = "run" if section != "run" else "problem"
        with pytest.raises(ConfigError, match=rf"unknown config key '{key}' in section \[{other}\]"):
            parse_config(write_ini(tmp_path / "bad.ini", {other: {key: raw}}))
        with pytest.raises(ConfigError, match=f"unknown override key '{other}.{key}'"):
            parse_config(write_ini(tmp_path / "base.ini", {}), [f"{other}.{key}={raw}"])

    def test_axis_cases_cover_every_axis(self):
        assert {axis for axis, _, _ in AXIS_CASES} == set(SWEEP_AXES)

    @pytest.mark.parametrize("axis, value, overrides", AXIS_CASES)
    def test_sweep_axis_matches_override(self, minimal_config, axis, value, overrides):
        swept = apply_axis(parse_config(minimal_config, ["kind=logreg"]), axis, value)  # logreg reads every axis
        assert swept == parse_config(minimal_config, ["kind=logreg"] + overrides)


class TestCmdRun:
    def test_run_writes_metrics_and_json(self, minimal_config, tmp_path):
        out = tmp_path / "out"
        code = main(["run", "-c", minimal_config, "--out", str(out),
                     "-o", "rounds=5"])
        assert code == 0
        lines = (out / "metrics.csv").read_text().strip().split("\n")
        assert lines[0] == ("round,loss,grad_norm_sq,grad_norm_sq_at_u,consistency,"
                            "delta_norm_sq,residual_delta,residual_u,eta_l")
        assert len(lines) == 6  # header + 5 data rows
        payload = json.loads((out / "run.json").read_text())
        assert payload["status"] == "completed"
        assert set(payload) >= {"config", "status", "eta_l_bound", "final_loss", "wall_ms_total"}

    def test_too_many_rounds_fails_before_training(self, tmp_path, capsys):
        """A round index must fit one 32-bit word: rounds up to 2**32 parse, more is a config error."""
        config = str(CONFIG_DIR / "quadratic_verify.ini")
        assert parse_config(config, ["rounds=4294967296"]).rounds == 2**32
        out = tmp_path / "out"
        with mock.patch.object(cli, "run_training") as train:
            assert main(["run", "-c", config, "-o", "rounds=4294967297", "--out", str(out)]) == 1
        train.assert_not_called()
        assert not out.exists()
        assert "error: rounds must be <= 2**32" in capsys.readouterr().err

    def test_out_dir_that_cannot_be_made_fails_before_training(self, minimal_config, tmp_path, capsys):
        blocker = tmp_path / "file"
        blocker.write_text("")
        with mock.patch.object(cli, "run_training") as train:
            assert main(["run", "-c", minimal_config, "--out", str(blocker / "out")]) == 1
        train.assert_not_called()
        assert "error:" in capsys.readouterr().err

    # the minimal config's eta_l of 0.1 is above its bound; 1e-4 is below it
    @pytest.mark.parametrize("overrides, satisfied", [((), False), (("eta_l=1e-4",), True)],
                             ids=["default", "eta_l=1e-4"])
    def test_bound_report_value(self, minimal_config, tmp_path, overrides, satisfied):
        out = tmp_path / "out"
        flags = [arg for item in overrides for arg in ("-o", item)]
        assert main(["run", "-c", minimal_config, "--out", str(out), *flags]) == 0
        payload = json.loads((out / "run.json").read_text())
        bound = payload["eta_l_bound"]
        cfg = parse_config(minimal_config, overrides)
        from fedsim.simulator import build_problem
        smooth = build_problem(cfg.problem, cfg.master_seed).smoothness_L
        expected = min(1 / (4 * smooth * cfg.hyper.k_local * math.sqrt(cfg.hyper.A)),
                       3 / (16 * cfg.hyper.k_local * smooth))
        assert bound["value"] == pytest.approx(expected, rel=1e-12)
        assert bound["satisfied"] is satisfied
        assert bound["satisfied"] == (cfg.hyper.eta_l <= expected)

    def test_run_json_manifest(self, minimal_config, tmp_path):
        digests = []
        for name in ("a", "b"):
            out = tmp_path / name
            assert main(["run", "-c", minimal_config, "--out", str(out)]) == 0
            manifest = json.loads((out / "run.json").read_text())["manifest"]
            assert manifest["python"] == platform.python_version()
            assert manifest["numpy"] == np.__version__
            assert manifest["metrics_csv_sha256"] == hashlib.sha256((out / "metrics.csv").read_bytes()).hexdigest()
            digests.append(manifest["metrics_csv_sha256"])
        assert digests[0] == digests[1]

    def test_identical_invocations_byte_identical(self, minimal_config, tmp_path):
        out_a, out_b = tmp_path / "a", tmp_path / "b"
        assert main(["run", "-c", minimal_config, "--out", str(out_a)]) == 0
        assert main(["run", "-c", minimal_config, "--out", str(out_b)]) == 0
        assert (out_a / "metrics.csv").read_bytes() == (out_b / "metrics.csv").read_bytes()

    def test_csv_round_trip_lossless(self, minimal_config, tmp_path):
        out = tmp_path / "out"
        main(["run", "-c", minimal_config, "--out", str(out), "-o", "verify=true"])
        record = simulator.run_training(parse_config(minimal_config, ["verify=true"]))
        with open(out / "metrics.csv", newline="", encoding="utf-8") as fh:
            header, *cells = csv.reader(fh)
        assert tuple(header) == METRIC_COLUMNS
        assert len(cells) == len(record.rows)
        for line, row in zip(cells, record.rows):
            for col, cell in zip(METRIC_COLUMNS, line, strict=True):
                value = getattr(row, col)
                assert (cell == "") if value is None else (float(cell) == value), (row.round, col)

    def test_divergence_exit_code(self, tmp_path):
        cfg = tmp_path / "mlp.ini"
        cfg.write_text("[problem]\nkind = mlp\nn_clients = 4\ndim = 4\nmlp_hidden = 6\n"
                       "samples_per_client = 20\nbatch_size = 10\n"
                       "[algorithm]\nname = fedmim\neta_l = 100.0\nk_local = 10\n"
                       "s_participate = 4\n[run]\nrounds = 100\nseed = 3\n")
        out = tmp_path / "out"
        assert main(["run", "-c", str(cfg), "--out", str(out)]) == 2
        payload = json.loads((out / "run.json").read_text())
        assert payload["status"] == "diverged"
        assert payload["diverged_round"] >= 1
        assert payload["diverged_client"] in range(4)
        assert payload["diverged_step"] in range(10)

    @pytest.mark.parametrize("rounds", [33, 40])
    def test_server_step_divergence_exit_code(self, tmp_path, capsys, rounds):
        # round 33's aggregate overflows, also when round 33 is the last
        out = tmp_path / "out"
        assert main(["run", "-c", str(CONFIG_DIR / "participation_study.ini"), "--out", str(out),
                     "-o", f"rounds={rounds}", "-o", "s_participate=2", "-o", "eta_l=50", "-o", "seed=2",
                     "-o", "name=fedavg"]) == 2
        assert "diverged at round 33 (server step)" in capsys.readouterr().err
        payload = json.loads((out / "run.json").read_text())
        fields = ("status", "diverged_round", "diverged_client", "diverged_step")
        assert {key: payload[key] for key in fields} == dict(zip(fields, ("diverged", 33, None, None)))

    def test_config_error_exit_code(self, minimal_config, capsys):
        assert main(["run", "-c", minimal_config, "-o", "alpha=0.9,0.2"]) == 1
        assert "alpha weights must sum below 1" in capsys.readouterr().err

    def test_out_of_memory_exits_1(self, minimal_config, tmp_path, capsys, monkeypatch):
        # a round's draws are allocated up front: k_local=100000000 on quadratic_verify.ini asked numpy
        # for 35.8 GiB and ended in a traceback
        def out_of_memory(*args):
            raise MemoryError("Unable to allocate 35.8 GiB")

        monkeypatch.setattr(cli, "run_training", out_of_memory)
        assert main(["run", "-c", minimal_config, "--out", str(tmp_path / "out")]) == 1
        assert capsys.readouterr().err == "error: Unable to allocate 35.8 GiB\n"
        assert not (tmp_path / "out").exists()  # the run made it, and it stayed empty
        assert main(["run", "-c", minimal_config, "--out", str(tmp_path / "a" / "b" / "out")]) == 1
        assert not (tmp_path / "a").exists()  # so are the parents it made
        existing = tmp_path / "existing"
        existing.mkdir()
        assert main(["run", "-c", minimal_config, "--out", str(existing / "out")]) == 1
        assert main(["run", "-c", minimal_config, "--out", str(existing)]) == 1
        assert sorted(tmp_path.iterdir()) == [existing, tmp_path / "minimal.ini"]  # one that was there before stays
        assert not any(existing.iterdir())

    def test_empty_out_dir_is_config_error(self, minimal_config, tmp_path, capsys, monkeypatch):
        # metrics.csv and run.json went into the working directory, and the run exited 0
        monkeypatch.chdir(tmp_path)
        for flags in (["-o", "out_dir="], ["--out", ""]):
            assert main(["run", "-c", minimal_config, "-o", "rounds=2", *flags]) == 1
            assert capsys.readouterr().err == "error: out_dir must not be empty\n"
        assert sorted(tmp_path.iterdir()) == [tmp_path / "minimal.ini"]

    @pytest.mark.parametrize("override, message", [  # space-separated items are separate -o flags
        ("eta_l=nan", "eta_l must be positive and finite"),  # ran and exited 2 as a divergence
        ("dim=0", "dim must be >= 1"),  # escaped the builder as a ValueError traceback
        ("sigma_l=-1", "sigma_l must be finite and >= 0"),  # ran with no noise and exited 0
        ("corrupt_delta=nan", "corrupt_delta must be finite"),  # exited 2 as a divergence at round 2
        ("corrupt_delta=-inf", "corrupt_delta must be finite"),
        ("metric_every=11", "metric_every must be in [1, rounds]"),  # exited 0 with an empty metrics.csv
        ("metric_every=0", "metric_every must be in [1, rounds]"),
        ("rounds=0", "rounds must be >= 1"),
        ("seed=-1", "seed must be >= 0"),
        ("name=fedprox", "unknown algorithm 'fedprox'"),
        ("s_participate=11", "s_participate must be in [1, n_clients]"),
        ("kind=cnn", "unknown problem kind 'cnn'"),
        ("kind=csv", "csv problems need csv_path"),
        ("kind=csv csv_path=data.csv", "csv problems need label_column"),
        ("n_clients=0", "n_clients must be >= 1"),
        ("samples_per_client=0", "samples_per_client must be >= 1"),
        ("mlp_hidden=0", "mlp_hidden must be >= 1"),
        ("batch_size=-3", "batch_size must be >= 0 (0 = full batch)"),  # trained full-batch and exited 0
        ("heterogeneity=inf", "heterogeneity must be finite and >= 0"),
        ("weight_decay=nan", "weight_decay must be finite and >= 0"),
        ("concentration=0", "concentration must be 'iid' or finite and > 0"),
        ("concentration=nan", "concentration must be 'iid' or finite and > 0"),
        ("name=fedavg verify=true", "verify requires algorithm=fedmim"),  # exited 0 with no verification block
    ])
    def test_invalid_value_is_config_error(self, minimal_config, tmp_path, capsys, override, message):
        assert_rejected(minimal_config, tmp_path, capsys, override.split(), message)

    @pytest.mark.parametrize("overrides, message", [
        (["name=fedcm", "fedcm_alpha=2"], "fedcm_alpha must be in [0, 1)"),  # was a ValueError traceback
        (["name=fedcm", "fedcm_alpha=-0.1"], "fedcm_alpha must be in [0, 1)"),
        (["name=fedadam", "adam_eps=nan"], "adam_eps must be positive and finite"),  # exited 2 as a divergence
        (["name=fedadam", "adam_eps=0"], "adam_eps must be positive and finite"),
        (["name=fedadam", "adam_beta1=1"], "adam_beta1 must be in [0, 1)"),
        (["name=fedadam", "adam_beta2=nan"], "adam_beta2 must be in [0, 1)"),
        (["name=fedadam", "global_lr=inf"], "global_lr must be positive and finite"),
        (["name=fedavg", "global_lr=-1"], "global_lr must be positive and finite"),
    ])
    def test_invalid_algorithm_param_is_config_error(self, minimal_config, tmp_path, capsys,
                                                      overrides, message):
        assert_rejected(minimal_config, tmp_path, capsys, overrides, message)

    @pytest.mark.parametrize("config, override, message", [  # both exited 0 with unchanged bytes
        ("mlp_small.ini", "sigma_l=3", "'sigma_l' is not used by kind 'mlp'"),
        ("quadratic_verify.ini", "batch_size=3", "'batch_size' is not used by kind 'quadratic'"),
    ])
    def test_key_the_kind_never_reads_is_config_error(self, tmp_path, capsys, config, override, message):
        out = tmp_path / "out"
        assert main(["run", "-c", str(CONFIG_DIR / config), "--out", str(out), "-o", override]) == 1
        assert message in capsys.readouterr().err
        assert not out.exists()

    def test_unread_key_at_its_default_runs(self, tmp_path):
        # compare_algorithms.ini keeps keys at their defaults that a kind never reads: concentration = iid
        # for its quadratic, and heterogeneity and sigma_l for logreg
        out = tmp_path / "out"
        assert main(["run", "-c", str(CONFIG_DIR / "compare_algorithms.ini"), "--out", str(out),
                     "-o", "kind=logreg", "-o", "rounds=3"]) == 0
        assert json.loads((out / "run.json").read_text())["status"] == "completed"

    def test_partition_failure_is_config_error(self, tmp_path, capsys):
        # a PartitionError from the problem builder used to escape as a traceback
        cfg = tmp_path / "skew.ini"
        cfg.write_text("[problem]\nkind = logreg\nn_clients = 5\ndim = 5\nconcentration = 0.01\n"
                       "samples_per_client = 50\n[algorithm]\nname = fedmim\ns_participate = 3\n"
                       "[run]\nrounds = 2\n")
        out = tmp_path / "out"
        assert main(["run", "-c", str(cfg), "--out", str(out)]) == 1
        assert "cannot build the logreg problem: a client received no samples" in capsys.readouterr().err
        assert not out.exists()

    def test_overflowing_quadratic_data_is_config_error(self, tmp_path, capsys):
        # heterogeneity * standard_normal overflowed to inf: the run exited 2 as a divergence at round 1,
        # and once that was an error, numpy's overflow warning still printed before it
        out = tmp_path / "out"
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            assert main(["run", "-c", str(CONFIG_DIR / "quadratic_verify.ini"), "--out", str(out),
                         "-o", "heterogeneity=1e308", "-o", "rounds=3"]) == 1
        assert not [w for w in caught if issubclass(w.category, RuntimeWarning)]
        assert "cannot build the quadratic problem: the Hessian or centre of client" in capsys.readouterr().err
        assert not out.exists()

    def test_negative_seed_is_config_error(self, minimal_config, tmp_path, capsys):
        # failed inside the problem builder with "expected non-negative integer"
        out = tmp_path / "out"
        assert main(["run", "-c", minimal_config, "--out", str(out), "--seed", "-1"]) == 1
        assert "seed must be >= 0" in capsys.readouterr().err
        assert not out.exists()

    def test_workers_key_is_gone(self, minimal_config, capsys):
        assert main(["run", "-c", minimal_config, "-o", "workers=2"]) == 1
        assert "unknown override key 'workers'" in capsys.readouterr().err

    @pytest.mark.parametrize("content", MALFORMED_INI.values(), ids=list(MALFORMED_INI))
    def test_malformed_file_is_config_error(self, tmp_path, capsys, content):
        # each of these escaped parse_config as a configparser or codec traceback
        path = tmp_path / "bad.ini"
        path.write_bytes(content)
        out = tmp_path / "out"
        assert main(["run", "-c", str(path), "--out", str(out)]) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error: cannot parse config file {path}: ")
        assert "Traceback" not in err
        assert not out.exists()


class TestUsageErrors:
    """argparse exits 2 on a usage error, the code the command line gives a divergence; these exit 1."""

    @pytest.mark.parametrize("argv", [
        [],
        ["run"],
        ["run", "-c", "any.ini", "--seed", "abc"],
        ["sweep", "-c", "any.ini", "--axis", "k_local"],
    ])
    def test_usage_error_exits_1(self, capsys, argv):
        with pytest.raises(SystemExit) as exit_info:
            main(argv)
        assert exit_info.value.code == 1
        err = capsys.readouterr().err
        assert err.startswith("usage: fedsim") and "error: " in err

    @pytest.mark.parametrize("argv", [["-h"], ["run", "-h"]])
    def test_help_exits_0(self, capsys, argv):
        with pytest.raises(SystemExit) as exit_info:
            main(argv)
        assert exit_info.value.code == 0
        assert capsys.readouterr().out.startswith("usage: fedsim")


class TestCmdVerify:
    def test_quadratic_verify_passes(self, verify_config, tmp_path):
        out = tmp_path / "out"
        assert main(["verify", "-c", verify_config, "--out", str(out)]) == 0
        payload = json.loads((out / "run.json").read_text())
        assert payload["verification"]["max_residual_delta"] <= 1e-9
        assert payload["verification"]["max_residual_u"] <= 1e-9

    def test_zero_momentum_verify(self, verify_config, tmp_path):
        out = tmp_path / "out"
        assert main(["verify", "-c", verify_config, "--out", str(out),
                     "-o", "alpha=0,0", "-o", "beta=0,0"]) == 0
        payload = json.loads((out / "run.json").read_text())
        assert payload["verification"]["max_residual_delta"] <= 1e-12
        assert payload["verification"]["max_residual_u"] <= 1e-12

    def test_fault_injection_detected(self, verify_config, tmp_path, capsys):
        out = tmp_path / "out"
        assert main(["verify", "-c", verify_config, "--out", str(out),
                     "-o", "corrupt_delta=1e-6"]) == 3
        assert "residual exceeded" in capsys.readouterr().err

    def test_nan_residuals_fail(self, tmp_path, capsys):
        # a noise so large that every residual is NaN: max() dropped each NaN, and the run passed with 0.0
        out = tmp_path / "out"
        assert main(["verify", "-c", str(CONFIG_DIR / "quadratic_verify.ini"), "--out", str(out),
                     "-o", "sigma_l=1e308", "-o", "rounds=5"]) == 3
        assert "max residual_delta nan, max residual_u nan" in capsys.readouterr().out
        with open(out / "metrics.csv", newline="") as fh:
            assert all(row["residual_delta"] == row["residual_u"] == "nan" for row in csv.DictReader(fh))
        payload = strict_json(out / "run.json")
        assert payload["verification"] == {"max_residual_delta": None, "max_residual_u": None}

    def test_requires_momentum_algorithm(self, verify_config, tmp_path):
        assert main(["verify", "-c", verify_config, "--out", str(tmp_path / "o"),
                     "-o", "name=fedavg"]) == 1


class TestExitPath:
    """``run``, ``sweep`` and ``verify`` share one run path and one exit rule, ``cli.exit_code``."""

    @pytest.mark.parametrize("command", [["run"], ["sweep", "--axis", "eta_l", "--values", "0.01,0.02"]],
                             ids=["run", "sweep"])
    def test_residual_failure_exits_3(self, verify_config, tmp_path, capsys, command):
        # both exited 0, with the residuals of the corrupted increments only in run.json
        assert main([*command, "-c", verify_config, "--out", str(tmp_path / "o"),
                     "-o", "corrupt_delta=1e-6"]) == 3
        captured = capsys.readouterr()
        assert "max residual_delta 1.000e-06" in captured.out
        assert "residual exceeded" in captured.err

    def test_divergence_outranks_residual_failure(self, verify_config, tmp_path, capsys):
        assert main(["sweep", "-c", verify_config, "--out", str(tmp_path / "o"), "-o", "corrupt_delta=1e-6",
                     "--axis", "eta_l", "--values", "0.02,100"]) == 2
        err = capsys.readouterr().err
        assert "eta_l=100: diverged at round" in err
        assert "residual exceeded" in err

    @pytest.mark.parametrize("config", ["minimal_config", "verify_config"])
    def test_verify_is_run_with_the_check_on(self, request, tmp_path, config):
        path, out = request.getfixturevalue(config), tmp_path / "out"  # one out_dir, which run.json echoes
        outputs = []
        for argv in (["verify"], ["run", "-o", "verify=true"]):
            assert main([*argv, "-c", path, "--out", str(out)]) == 0
            payload = json.loads((out / "run.json").read_text())
            assert payload.pop("wall_ms_total") >= 0
            outputs.append(((out / "metrics.csv").read_bytes(), payload))
        assert outputs[0] == outputs[1]
        assert "verification" in outputs[0][1]

    def test_verify_overrides_a_config_that_turns_the_check_off(self, verify_config, tmp_path, capsys):
        assert main(["verify", "-c", verify_config, "--out", str(tmp_path / "o"),
                     "-o", "verify=false", "-o", "corrupt_delta=1e-6"]) == 3
        assert "residual exceeded" in capsys.readouterr().err


class TestCmdSweep:
    def test_sweep_outputs(self, minimal_config, tmp_path):
        out = tmp_path / "out"
        code = main(["sweep", "-c", minimal_config, "--out", str(out),
                     "--axis", "algorithm", "--values", "fedavg,fedmim",
                     "-o", "rounds=4"])
        assert code == 0
        lines = (out / "sweep.csv").read_text().strip().split("\n")
        assert lines[0].startswith("axis,value,round,loss")
        assert len(lines) == 1 + 2 * 4
        assert {line.split(",")[1] for line in lines[1:]} == {"fedavg", "fedmim"}
        summary = json.loads((out / "sweep.json").read_text())
        assert summary["values"] == ["fedavg", "fedmim"]

    def test_fedadam_sweep_rows_match_run(self, minimal_config, tmp_path):
        # the sweep ran fedadam at global_lr 1.0 while `run -o name=fedadam` used 0.1
        assert main(["sweep", "-c", minimal_config, "--out", str(tmp_path / "s"),
                     "--axis", "algorithm", "--values", "fedadam"]) == 0
        assert main(["run", "-c", minimal_config, "--out", str(tmp_path / "r"), "-o", "name=fedadam"]) == 0
        swept = [line.split(",", 2)[2] for line in (tmp_path / "s" / "sweep.csv").read_text().splitlines()]
        assert swept == (tmp_path / "r" / "metrics.csv").read_text().splitlines()

    @pytest.mark.parametrize("axis, values, builds", [("eta_l", "0.02,0.05,0.1", 1),
                                                      ("concentration", "0.5,iid", 2)])
    def test_sweep_builds_each_problem_once(self, tmp_path, axis, values, builds):
        config = write_ini(tmp_path / "logreg.ini", {"problem": {"kind": "logreg", "n_clients": "6", "dim": "3",
                                                                 "samples_per_client": "20"}})
        with mock.patch.object(simulator, "build_problem", wraps=simulator.build_problem) as build:
            assert main(["sweep", "-c", config, "--out", str(tmp_path / "s"),
                         "--axis", axis, "--values", values]) == 0
        assert build.call_count == builds
        # the bytes of one run per value, each on a problem built for it alone
        expected = [",".join(("axis", "value") + METRIC_COLUMNS)]
        for value in values.split(","):
            out = tmp_path / value
            assert main(["run", "-c", config, "--out", str(out), "-o", f"{axis}={value}"]) == 0
            expected += [f"{axis},{value},{line}" for line in (out / "metrics.csv").read_text().splitlines()[1:]]
        assert (tmp_path / "s" / "sweep.csv").read_bytes() == ("\n".join(expected) + "\n").encode()

    def test_algorithm_sweep_on_verify_config_names_the_fix(self, tmp_path, capsys):
        # the error gave no hint that verify=false runs the other rules
        out = tmp_path / "out"
        assert main(["sweep", "-c", str(CONFIG_DIR / "quadratic_verify.ini"), "--out", str(out),
                     "--axis", "algorithm", "--values", "fedmim,fedavg"]) == 1
        err = capsys.readouterr().err
        assert "invalid algorithm value 'fedavg': verify requires algorithm=fedmim" in err
        assert "add -o verify=false" in err
        assert not out.exists()

    def test_unknown_axis_is_config_error(self, minimal_config, tmp_path):
        assert main(["sweep", "-c", minimal_config, "--out", str(tmp_path / "o"),
                     "--axis", "momentum", "--values", "1"]) == 1

    def test_invalid_axis_value_fails_before_any_run(self, minimal_config, tmp_path, capsys):
        out = tmp_path / "o"
        assert main(["sweep", "-c", minimal_config, "--out", str(out),
                     "--axis", "eta_l", "--values", "0.05,nan"]) == 1
        assert "invalid eta_l value 'nan'" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("values", [["0.01,,0.02,"], [","], ["0.01,0.02,"], ["0.01", ""]])
    def test_empty_value_item_is_config_error(self, minimal_config, tmp_path, capsys, values):
        # '0.01,,0.02,' ran two legs and exited 0
        out = tmp_path / "o"
        assert main(["sweep", "-c", minimal_config, "--out", str(out), "-o", "rounds=2", "--axis", "eta_l",
                     *(arg for value in values for arg in ("--values", value))]) == 1
        assert "invalid eta_l value ''" in capsys.readouterr().err
        assert not out.exists()

    def test_json_outputs_are_strict(self, tmp_path):
        # the last aggregate overflows: sweep.json wrote the leg's final loss as Infinity, run.json as null
        leg = ["-c", str(CONFIG_DIR / "participation_study.ini"), "-o", "rounds=40", "-o", "s_participate=2",
               "-o", "seed=2", "-o", "name=fedavg"]
        assert main(["sweep", *leg, "--out", str(tmp_path / "s"), "--axis", "eta_l", "--values", "50"]) == 2
        assert main(["run", *leg, "--out", str(tmp_path / "r"), "-o", "eta_l=50"]) == 2
        assert strict_json(tmp_path / "s" / "sweep.json")["final_loss"] == [None]
        assert strict_json(tmp_path / "r" / "run.json")["final_loss"] is None

    def test_out_dir_that_cannot_be_made_fails_before_training(self, minimal_config, tmp_path, capsys):
        # the sweep trained every value, then failed to make the directory
        blocker = tmp_path / "file"
        blocker.write_text("")
        with mock.patch.object(simulator, "run_training") as train:
            assert main(["sweep", "-c", minimal_config, "--out", str(blocker / "out"),
                         "--axis", "eta_l", "--values", "0.01,0.02"]) == 1
        train.assert_not_called()
        assert "error:" in capsys.readouterr().err

    def test_out_of_memory_exits_1(self, minimal_config, tmp_path, capsys):
        # the sweep left behind the empty out_dir it made
        sweep = ["sweep", "-c", minimal_config, "--axis", "eta_l", "--values", "0.01,0.02"]
        existing = tmp_path / "existing"
        existing.mkdir()
        with mock.patch.object(simulator, "run_training", side_effect=MemoryError("Unable to allocate 35.8 GiB")):
            assert main([*sweep, "--out", str(tmp_path / "a" / "out")]) == 1
            assert capsys.readouterr().err == "error: Unable to allocate 35.8 GiB\n"
            assert main([*sweep, "--out", str(existing)]) == 1
        assert sorted(tmp_path.iterdir()) == [existing, tmp_path / "minimal.ini"]  # one that was there before stays
        assert not any(existing.iterdir())


class TestCmdGradcheck:
    def test_logreg_gradcheck(self, tmp_path):
        cfg = tmp_path / "lr.ini"
        cfg.write_text("[problem]\nkind = logreg\nn_clients = 4\ndim = 4\n"
                       "samples_per_client = 20\n[algorithm]\nname = fedmim\n"
                       "[run]\nrounds = 1\n")
        assert main(["gradcheck", "-c", str(cfg)]) == 0

    def test_mlp_gradcheck(self, tmp_path):
        cfg = tmp_path / "mlp.ini"
        cfg.write_text("[problem]\nkind = mlp\nn_clients = 3\ndim = 4\nmlp_hidden = 5\n"
                       "samples_per_client = 15\n[algorithm]\nname = fedmim\n"
                       "[run]\nrounds = 1\n")
        assert main(["gradcheck", "-c", str(cfg)]) == 0

    @pytest.mark.parametrize("path", SHIPPED_CONFIGS, ids=lambda path: path.name)
    def test_shipped_config(self, path):
        config = parse_config(str(path))
        problem = simulator.build_problem(config.problem, config.master_seed)
        assert problem.num_clients == config.problem.n_clients
        p = config.problem
        # an mlp has W1 (h, d), b1 (h), W2 (1, h) and b2 (1)
        assert problem.dim == (p.mlp_hidden * (p.dim + 2) + 1 if p.kind == "mlp" else p.dim)
        assert main(["gradcheck", "-c", str(path)]) == 0

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_quadratic_at_dimension_100(self, tmp_path, seed):
        # the perfbench quad-baselines problem; its correct gradient failed at an fd step of 1e-6,
        # where the difference's round-off, eps * |f| / h, swamped near-zero coordinates
        cfg = write_ini(tmp_path / "quad.ini", {"problem": {"n_clients": "50", "dim": "100",
                                                            "heterogeneity": "1.0", "sigma_l": "0.1"}})
        assert main(["gradcheck", "-c", cfg, "--seed", str(seed)]) == 0

    @pytest.mark.parametrize("seed", [3, 11])
    def test_logreg_train_workload(self, seed):
        # the correct gradient failed a second-order difference at step 1e-6 (3.6e-5 at seed 3 and
        # 3.8e-4 at seed 11, tolerance 1e-5): its error, relative to near-zero coordinates
        assert main(["gradcheck", "-c", str(WORKLOAD_DIR / "logreg-train.ini"), "--seed", str(seed)]) == 0

    @pytest.mark.parametrize("name, owner, attr", [
        pytest.param("quadratic_verify.ini", objectives, "_hessian_products", id="quadratic_verify.ini"),
        pytest.param("logreg_dirichlet.ini", objectives.LogisticPopulation, "_rows_gradient",
                     id="logreg_dirichlet.ini"),
        pytest.param("mlp_small.ini", objectives.MlpPopulation, "_rows_gradient", id="mlp_small.ini"),
    ])
    def test_wrong_gradient_fails(self, monkeypatch, name, owner, attr):
        # scale the gradient that training uses; gradcheck must see it
        path = str(CONFIG_DIR / name)
        assert main(["gradcheck", "-c", path]) == 0
        exact = getattr(owner, attr)
        monkeypatch.setattr(owner, attr, lambda *args: 1.001 * exact(*args))
        assert main(["gradcheck", "-c", path]) == 3

        def nan_in_coordinate_0(*args):
            # max() dropped the NaN error, and the check passed on the other coordinates
            g = exact(*args)
            g[..., 0] = np.nan
            return g
        monkeypatch.setattr(owner, attr, nan_in_coordinate_0)
        assert main(["gradcheck", "-c", path]) == 3

    @pytest.mark.parametrize("name", ["logreg_dirichlet.ini", "mlp_small.ini"])
    def test_loss_probe_computes_no_gradient(self, monkeypatch, name):
        # each of gradcheck's 4 loss probes per coordinate also computed the client's full gradient
        config = parse_config(str(CONFIG_DIR / name))
        problem = simulator.build_problem(config.problem, config.master_seed)
        client = objectives.ClientObjective(problem, 0)
        x = np.full(problem.dim, 0.1)
        loss = client.loss(x)

        def no_gradient(*args):
            raise AssertionError("a loss probe computed a gradient")

        monkeypatch.setattr(type(problem), "_rows_gradient", no_gradient)
        assert client.loss(x) == loss


class TestCsvProblemEndToEnd:
    def test_training_on_ingested_csv(self, tmp_path):
        gen = np.random.default_rng(0)
        feats = gen.standard_normal((60, 3))
        labels = (feats[:, 0] > 0).astype(int)
        data = tmp_path / "data.csv"
        rows = ["x0,x1,x2,y"] + [
            ",".join([f"{v:.8f}" for v in row] + [str(lab)])
            for row, lab in zip(feats, labels)
        ]
        data.write_text("\n".join(rows) + "\n")
        cfg = tmp_path / "csv.ini"
        cfg.write_text(f"[problem]\nkind = csv\ncsv_path = {data}\nlabel_column = y\n"
                       "n_clients = 3\nbatch_size = 10\n"
                       "[algorithm]\nname = fedmim\ns_participate = 3\n"
                       "[run]\nrounds = 20\n")
        out = tmp_path / "out"
        assert main(["run", "-c", str(cfg), "--out", str(out)]) == 0
        with open(out / "metrics.csv", newline="", encoding="utf-8") as fh:
            losses = [float(row["loss"]) for row in csv.DictReader(fh)]
        assert losses[-1] < losses[0]

    @pytest.mark.parametrize("subcommand", ["run", "gradcheck"])
    def test_label_only_csv_is_a_config_error(self, tmp_path, capsys, subcommand):
        # used to die with an IndexError in the smoothness bound
        data = tmp_path / "labels.csv"
        data.write_text("y\n0\n1\n0\n1\n", encoding="utf-8")
        cfg = tmp_path / "csv.ini"
        cfg.write_text(f"[problem]\nkind = csv\ncsv_path = {data}\nlabel_column = y\nn_clients = 2\n"
                       "[algorithm]\nname = fedmim\n[run]\nrounds = 2\n")
        assert main([subcommand, "-c", str(cfg), "--out", str(tmp_path / "out")]) == 1
        assert "no feature columns" in capsys.readouterr().err
