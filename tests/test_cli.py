import configparser
import contextlib
import csv
import dataclasses
import hashlib
import io
import json
import math
import platform
from collections import Counter
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

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


def leaves(cfg: RunConfig) -> dict:
    """Every field of a config and of its nested dataclasses, by field name."""
    flat = {}
    for name, value in dataclasses.asdict(cfg).items():
        flat.update(value if isinstance(value, dict) else {name: value})
    return flat


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

    def test_override_precedence(self, minimal_config):
        cfg = parse_config(minimal_config, ["eta_l=0.05", "run.seed=9"])
        assert cfg.hyper.eta_l == 0.05 and cfg.master_seed == 9

    def test_byte_order_mark_is_dropped(self, tmp_path):
        # a BOM-prefixed file failed with "File contains no section headers"
        plain = CONFIG_DIR / "quadratic_verify.ini"
        marked = tmp_path / "bom.ini"
        marked.write_bytes(b"\xef\xbb\xbf" + plain.read_bytes())
        assert parse_config(str(marked)) == parse_config(str(plain))

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


class Reached(Exception):
    """Raised in place of building the problem: the input passed every check before the build."""


# raw values at the edges of the parsers and the checks ('\uff11' is a fullwidth 1), beside random text,
# float reprs and ints
EDGE_VALUES = ["", " ", "nan", "-nan", "inf", "-inf", "-1", "0", "-0", "1", "2.5", "1e400", "-1e400", "1e-320",
               "abc", "\uff11", "4294967296", "4294967297", "0,0", ",", "0.5,", "1|2", "iid", "true", "yes", "None",
               "csv", "fedavg", "0x10", "1_000"]
BASES = [[], ["kind=logreg"], ["kind=mlp"], ["kind=csv", "csv_path=data.csv", "label_column=y"]]


@pytest.fixture(scope="module")
def minimal_dir(tmp_path_factory):
    directory = tmp_path_factory.mktemp("any-value")
    (directory / "minimal.ini").write_text(MINIMAL)
    return directory


@settings(max_examples=300, deadline=None)
@given(base=st.sampled_from(BASES), key=st.sampled_from(sorted(SETTINGS)),
       raw=st.one_of(st.sampled_from(EDGE_VALUES), st.text(), st.floats().map(repr), st.integers().map(str)))
def test_any_value_of_any_key_fails_early_or_reaches_the_build(minimal_dir, base, key, raw):
    """``fedsim run`` either gets to building the problem or exits 1 with an error line and no out dir.

    The build never runs: samples_per_client=4294967296 alone would ask for hundreds of GB.
    """
    out = minimal_dir / "out"
    argv = ["run", "-c", str(minimal_dir / "minimal.ini"), "-o", f"out_dir={out}",
            *(arg for item in base for arg in ("-o", item)), "-o", f"{key}={raw}"]
    with mock.patch.object(cli, "build_problem", side_effect=Reached), \
            contextlib.redirect_stderr(io.StringIO()) as err:
        try:
            code = main(argv)
        except Reached:
            return
    assert code == 1 and err.getvalue().startswith("error: "), (code, err.getvalue())
    assert not out.exists()


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

    def test_unread_key_at_its_default_runs(self, tmp_path):
        # compare_algorithms.ini keeps keys at their defaults that a kind never reads: concentration = iid
        # for its quadratic, and heterogeneity and sigma_l for logreg
        out = tmp_path / "out"
        assert main(["run", "-c", str(CONFIG_DIR / "compare_algorithms.ini"), "--out", str(out),
                     "-o", "kind=logreg", "-o", "rounds=3"]) == 0
        assert json.loads((out / "run.json").read_text())["status"] == "completed"


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


# (config, overrides, seed) of each passing gradcheck: None is MINIMAL, and a None seed is the config's own
GRADCHECK_RUNS = [
    pytest.param(None, ["kind=logreg", "n_clients=4", "dim=4", "samples_per_client=20"], None, id="logreg"),
    pytest.param(None, ["kind=mlp", "n_clients=3", "dim=4", "mlp_hidden=5", "samples_per_client=15"], None, id="mlp"),
    *[pytest.param(path, [], None, id=path.name) for path in SHIPPED_CONFIGS],
    # a quadratic at d = 100: its correct gradient failed at an fd step of 1e-6, where the
    # difference's round-off, eps * |f| / h, swamped near-zero coordinates
    *[pytest.param(WORKLOAD_DIR / "quad-baselines.ini", [], seed, id=f"quad-baselines-{seed}") for seed in (0, 1, 2)],
    # the correct gradient failed a second-order difference at step 1e-6 (3.6e-5 at seed 3 and
    # 3.8e-4 at seed 11, tolerance 1e-5): its error, relative to near-zero coordinates
    *[pytest.param(WORKLOAD_DIR / "logreg-train.ini", [], seed, id=f"logreg-train-{seed}") for seed in (3, 11)],
    # the batched mlp gradient at the benchmark's shape, where some clients hold fewer samples than a batch
    pytest.param(WORKLOAD_DIR / "mlp-measure.ini", [], 3, id="mlp-measure-3"),
]


class TestCmdGradcheck:
    @pytest.mark.parametrize("config, overrides, seed", GRADCHECK_RUNS)
    def test_passes(self, minimal_config, capsys, config, overrides, seed):
        config = str(config or minimal_config)
        flags = [flag for item in overrides for flag in ("-o", item)] + ([] if seed is None else ["--seed", str(seed)])
        assert main(["gradcheck", "-c", config, *flags]) == 0
        lines = capsys.readouterr().out.splitlines()
        n_clients = parse_config(config, overrides).problem.n_clients
        assert [line.split(":")[0] for line in lines[:-1]] == [f"client {cid}" for cid in range(n_clients)]
        assert lines[-1].startswith("worst ")

    def test_quad_baselines_is_the_quadratic_at_dimension_100(self, tmp_path):
        cfg = write_ini(tmp_path / "quad.ini", {"problem": {"n_clients": "50", "dim": "100",
                                                            "heterogeneity": "1.0", "sigma_l": "0.1"}})
        assert parse_config(cfg).problem == parse_config(str(WORKLOAD_DIR / "quad-baselines.ini")).problem

    @pytest.mark.parametrize("path", SHIPPED_CONFIGS, ids=lambda path: path.name)
    def test_shipped_config(self, path):
        config = parse_config(str(path))
        problem = simulator.build_problem(config.problem, config.master_seed)
        p = config.problem
        # an mlp has W1 (h, d), b1 (h), W2 (1, h) and b2 (1)
        assert problem.dim == (p.mlp_hidden * (p.dim + 2) + 1 if p.kind == "mlp" else p.dim)

    @pytest.mark.parametrize("name, owner", [
        pytest.param("quadratic_verify.ini", objectives.QuadraticPopulation, id="quadratic_verify.ini"),
        pytest.param("logreg_dirichlet.ini", objectives.LogisticPopulation, id="logreg_dirichlet.ini"),
        pytest.param("mlp_small.ini", objectives.MlpPopulation, id="mlp_small.ini"),
    ])
    def test_wrong_gradient_fails(self, monkeypatch, name, owner):
        # scale the gradient that training uses; gradcheck must see it
        path = str(CONFIG_DIR / name)
        assert main(["gradcheck", "-c", path]) == 0
        exact = owner.client_gradients
        monkeypatch.setattr(owner, "client_gradients", lambda *args: 1.001 * exact(*args))
        assert main(["gradcheck", "-c", path]) == 3

        def nan_in_coordinate_0(*args):
            # max() dropped the NaN error, and the check passed on the other coordinates
            g = exact(*args)
            g[..., 0] = np.nan
            return g
        monkeypatch.setattr(owner, "client_gradients", nan_in_coordinate_0)
        assert main(["gradcheck", "-c", path]) == 3

    @pytest.mark.parametrize("name", ["logreg_dirichlet.ini", "mlp_small.ini"])
    def test_loss_probe_computes_no_gradient(self, monkeypatch, name):
        # each of gradcheck's 4 loss probes per coordinate also computed the client's full gradient
        config = parse_config(str(CONFIG_DIR / name))
        problem = simulator.build_problem(config.problem, config.master_seed)
        client = objectives.ClientObjective(problem, 0)
        x = np.full(problem.dim, 0.1)
        loss = client.loss(x[None])[0]

        def no_gradient(*args):
            raise AssertionError("a loss probe computed a gradient")

        monkeypatch.setattr(type(problem), "client_gradients", no_gradient)
        assert client.loss(x[None])[0] == loss


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
