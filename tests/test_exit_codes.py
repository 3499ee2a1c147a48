"""Every exit code a run can end with, one table per code: a new outcome gets its row here.

The front ends are ``fedsim run|verify|sweep|gradcheck`` (through ``cli.main``) and both study scripts
(through ``runpy``), run in-process in a working directory that holds ``FILES``.  An exception that
escapes one prints its traceback and exits 1, as the interpreter does; a RuntimeWarning is an error here.

Exit 1: an input fails early when the front end exits 1 with ``error: <message>`` on stderr, prints no
traceback, never trains, and leaves the working directory as it was: no out dir made, nothing written.
A message that ends in ``$`` is the whole error, any other one its start.

Exits 2 (a divergence or a non-finite final loss) and 3 (a residual above the tolerance): each front end
of an ``OUTCOMES`` row ends with its code and prints its stderr lines, each but the tolerance line after
the label of its leg that equals ``fedsim run`` (then, on exit 3, the tolerance line).  It prints no
traceback and writes exactly its ``OUTPUTS``, every JSON file strict, and run.json agrees with the first
line; the row's ``check`` asserts the rest.
A row's args are -o flags, or a sweep's own ``--axis`` and ``--values``, whose lines carry their labels.
"""

import contextlib
import csv
import json
import re
import runpy
import sys
import traceback
from functools import partial
from pathlib import Path
from unittest import mock

import pytest

from fedsim import cli, simulator
from fedsim.algorithms import MimHyper
from fedsim.cli import METRIC_COLUMNS, main, parse_config
from fedsim.simulator import SETTINGS, ConfigError, ProblemConfig, RunConfig

pytestmark = pytest.mark.filterwarnings("error::RuntimeWarning")

ROOT = Path(__file__).resolve().parents[1]
FEDSIM = ("run", "verify", "sweep", "gradcheck")
ALL = FEDSIM + ("compare_algorithms.py", "participation_study.py")

MINIMAL = "[problem]\nkind = quadratic\n[algorithm]\nname = fedmim\n[run]\nrounds = 10\n"
# 'alpha=' ran with alpha (0.0, 0.0) and 'alpha=0.5,,0.2' as (0.5, 0.2); each also as an INI entry
EMPTY_ITEMS = ["alpha=", "alpha=0.5,,0.2", "alpha=0.5,0.2,", "beta=,0.1", "beta= , "]
MALFORMED = {  # configparser or the UTF-8 codec rejects these before any key is read
    "no-section-header.ini": b"kind = quadratic\n",
    "repeated-key.ini": b"[problem]\nkind = quadratic\nkind = mlp\n[algorithm]\nname = fedmim\n[run]\nrounds = 1\n",
    "repeated-section.ini": b"[problem]\nkind = quadratic\n[algorithm]\nname = fedmim\n[problem]\ndim = 3\n"
                            b"[run]\nrounds = 1\n",
    "non-utf8-byte.ini": b"[problem]\nkind = quadratic\n# caf\xe9\n[algorithm]\nname = fedmim\n[run]\nrounds = 1\n",
}

# the working directory of every pair: the shipped configs and the files the rows name
FILES = {path.name: path.read_bytes() for path in (ROOT / "configs").glob("*.ini")} | MALFORMED | {
    name: text.encode() for name, text in {
        "minimal.ini": MINIMAL,
        **{f"empty{i}.ini": MINIMAL.replace("fedmim\n", "fedmim\n{} = {}\n".format(*item.split("=")))
           for i, item in enumerate(EMPTY_ITEMS)},
        "unknown-section.ini": "[training]\nrounds = 1\n",
        "unknown-key.ini": MINIMAL.replace("quadratic\n", "quadratic\nsize = 3\n"),
        "no-rounds.ini": MINIMAL.replace("[run]\nrounds = 10\n", ""),
        "skew.ini": "[problem]\nkind = logreg\nn_clients = 5\ndim = 5\nconcentration = 0.01\nsamples_per_client = 50\n"
                    "[algorithm]\nname = fedmim\ns_participate = 3\n[run]\nrounds = 2\n",
        "labels.csv": "y\n0\n1\n0\n1\n",
        "labels.ini": MINIMAL.replace("quadratic\n", "csv\ncsv_path = labels.csv\nlabel_column = y\nn_clients = 2\n"),
        "missing-csv.ini": MINIMAL.replace("quadratic\n", "csv\ncsv_path = missing.csv\nlabel_column = y\n"),
        "repeated.csv": "a,y,y\n1,0,1\n2,1,0\n3,0,1\n4,1,0\n",
        "repeated.ini": MINIMAL.replace("quadratic\n", "csv\ncsv_path = repeated.csv\nlabel_column = y\n"),
        "constant.csv": "a,b,y\n1,5,0\n1,5,1\n1,5,0\n1,5,1\n",
        "constant.ini": MINIMAL.replace("quadratic\n", "csv\ncsv_path = constant.csv\nlabel_column = y\nn_clients = 2\n"
                                                      "batch_size = 0\nweight_decay = 0\n"),
        "mlp-diverge.ini": "[problem]\nkind = mlp\nn_clients = 4\ndim = 4\nmlp_hidden = 6\nsamples_per_client = 20\n"
                           "batch_size = 10\n[algorithm]\nname = fedmim\neta_l = 100.0\nk_local = 10\n"
                           "s_participate = 4\n[run]\nrounds = 100\nseed = 3\n",
        "file": "",
    }.items()}


# (space-separated -o items on minimal.ini, message): a config dataclass rejects the value
FIELD = [
    ("eta_l=nan", "eta_l must be positive and finite"),  # ran and exited 2 as a divergence
    ("dim=0", "dim must be >= 1"),  # escaped the builder as a ValueError traceback
    ("sigma_l=-1", "sigma_l must be finite and >= 0"),  # ran with no noise and exited 0
    ("corrupt_delta=nan", "corrupt_delta must be finite"),  # exited 2 as a divergence at round 2
    ("corrupt_delta=-inf", "corrupt_delta must be finite"),
    ("metric_every=11", "metric_every must be in [1, rounds]"),  # exited 0 with an empty metrics.csv
    ("metric_every=0", "metric_every must be in [1, rounds]"),
    ("rounds=0", "rounds must be >= 1$"),
    ("rounds=4294967297", "rounds must be <= 2**32"),  # a round index is one 32-bit word
    ("lr_decay=0.5 rounds=1073", "eta_l * lr_decay**(rounds - 1) underflows to 0$"),  # 0.1 * 0.5**1072 == 0
    ("seed=-1", "seed must be >= 0"),
    ("name=fedprox", "unknown algorithm 'fedprox'"),
    ("s_participate=11", "s_participate must be in [1, n_clients]"),  # a hyper key that RunConfig checks
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
    ("out_dir=", "out_dir must not be empty$"),  # metrics.csv and run.json went into the working directory
    ("out_dir=a\0b", "out_dir must not hold a NUL byte$"),  # a ValueError traceback from making the directory
    ("alpha=0.7,0.4", "alpha weights must sum below 1"),
    ("alpha=0.9,0.2", "alpha weights must sum below 1"),
    ("beta=-0.1", "momentum weights must be finite and nonnegative"),
    ("name=fedcm fedcm_alpha=2", "fedcm_alpha must be in [0, 1)"),  # was a ValueError traceback
    ("name=fedcm fedcm_alpha=-0.1", "fedcm_alpha must be in [0, 1)"),
    ("name=fedadam adam_eps=nan", "adam_eps must be positive and finite"),  # exited 2 as a divergence
    ("name=fedadam adam_eps=0", "adam_eps must be positive and finite"),
    ("name=fedadam adam_beta1=1", "adam_beta1 must be in [0, 1)"),
    ("name=fedadam adam_beta2=nan", "adam_beta2 must be in [0, 1)"),
    ("name=fedadam global_lr=inf", "global_lr must be positive and finite"),
    ("name=fedavg global_lr=-1", "global_lr must be positive and finite"),
]

# (config, args, message): parse_config rejects the input; every args item is an -o flag or its value
PARSE = [("minimal.ini", [arg for item in items.split() for arg in ("-o", item)], message)
         for items, message in FIELD] + [
    *((config, args, f"invalid value '{raw.strip()}' for algorithm.{key}$") for i, item in enumerate(EMPTY_ITEMS)
      for key, raw in [item.split("=")] for config, args in (("minimal.ini", ["-o", item]), (f"empty{i}.ini", []))),
    ("minimal.ini", ["-o", "learning_rate=0.1"], "unknown override key 'learning_rate'$"),
    ("minimal.ini", ["-o", "workers=2"], "unknown override key 'workers'$"),  # the thread pool is gone
    ("minimal.ini", ["-o", "rounds=ten"], "invalid value 'ten' for run.rounds$"),
    ("mlp_small.ini", ["-o", "sigma_l=3"], "'sigma_l' is not used by kind 'mlp'$"),  # exited 0, unchanged bytes
    ("quadratic_verify.ini", ["-o", "batch_size=3"], "'batch_size' is not used by kind 'quadratic'$"),  # too
    # scaffold's control refresh divided by K eta_l = 0: exited 2, diverged at round 1074 (client 4, local step 0)
    ("compare_algorithms.ini", ["-o", "name=scaffold", "-o", "lr_decay=0.5", "-o", "rounds=1100", "-o",
                                "metric_every=100"], "eta_l * lr_decay**(rounds - 1) underflows to 0$"),
    ("nope.ini", [], "config file not found: nope.ini$"),
    ("unknown-section.ini", [], "unknown config section [training]$"),
    ("unknown-key.ini", [], "unknown config key 'size' in section [problem]$"),
    ("no-rounds.ini", [], "missing required key 'rounds' in section [run]$"),
    # each escaped parse_config as a configparser or codec traceback
    *((name, [], f"cannot parse config file {name}: ") for name in MALFORMED),
]

# (config, args, message): parse_config accepts the input, and building the problem rejects it
BUILD = [
    # a PartitionError from the problem builder escaped as a traceback
    ("skew.ini", [], "cannot build the logreg problem: a client received no samples after 10 redraws$"),
    ("labels.ini", [], "cannot build the csv problem: no feature columns$"),  # an IndexError in the smoothness bound
    ("missing-csv.ini", [], "[Errno 2] No such file or directory: 'missing.csv'$"),  # a FileNotFoundError traceback
    # smoothness_L was 0: a ZeroDivisionError in eta_l_bound
    ("constant.ini", [], "cannot build the csv problem: every feature column is constant$"),
    # the second 'y' was read as a feature
    ("repeated.ini", [], "cannot build the csv problem: column 'y' appears more than once in header ['a', 'y', 'y']$"),
    # heterogeneity * standard_normal overflowed to inf: the run exited 2 as a divergence at round 1, and once
    # that was an error, numpy's overflow warning still printed before it.  verify=false lets the algorithm
    # sweep of compare_algorithms.py reach the build.
    ("quadratic_verify.ini", ["-o", "heterogeneity=1e308", "-o", "rounds=3", "-o", "verify=false"],
     "cannot build the quadratic problem: the Hessian or centre of client "),
]

# (front ends, config, args, message): inputs that only some front ends take
OTHER = [
    (FEDSIM, "minimal.ini", ["--out", ""], "out_dir must not be empty$"),
    (FEDSIM, "minimal.ini", ["--seed", "-1"], "seed must be >= 0$"),  # failed in the builder, "expected non-negative"
    # the sweep trained every value, then failed to make the directory; so did compare_algorithms.py
    (("run", "verify", "sweep", "compare_algorithms.py"), "minimal.ini", ["-o", "out_dir=file/out"],
     "[Errno 20] Not a directory: 'file/out'$"),
    # the error gave no hint that verify=false runs the other rules
    (("sweep",), "quadratic_verify.ini", ["--axis", "algorithm", "--values", "fedmim,fedavg"],
     "invalid algorithm value 'fedavg': verify requires algorithm=fedmim; add -o verify=false to run the other"
     " rules unverified$"),
    (("sweep",), "minimal.ini", ["--axis", "momentum", "--values", "1"], "unknown sweep axis 'momentum' (choose"),
    (("sweep",), "minimal.ini", ["--axis", "eta_l", "--values", "0.05,nan"],
     "invalid eta_l value 'nan': eta_l must be positive and finite$"),
    # '0.01,,0.02,' ran two legs and exited 0
    *((("sweep",), "minimal.ini", ["-o", "rounds=2", "--axis", "eta_l", *(a for v in values for a in ("--values", v))],
       "invalid eta_l value '': invalid value '' for algorithm.eta_l$")
      for values in (["0.01,,0.02,"], [","], ["0.01,0.02,"], ["0.01", ""])),
    # nan, -1 and 0 censored every seed, inf reported round 1, all with exit 0
    *((("participation_study.py",), "participation_study.ini", ["--threshold", value],
       f"threshold must be finite and > 0, got {float(value)}$") for value in ("nan", "-1", "0", "inf")),
]

PAIRS = [(front_end, *row) for row in PARSE + BUILD for front_end in ALL] + [
    (front_end, *row) for front_ends, *row in OTHER for front_end in front_ends]


def pattern(message: str) -> str:
    """The regex of a message: a prefix, or the whole text when it ends in '$'."""
    return "^" + re.escape(message.removesuffix("$")) + "$" * message.endswith("$")


# the arguments that give a multi-run front end its one leg on an exit-1 row
EXIT_1_LEGS = {"sweep": ["--axis", "eta_l", "--values", "0.05"], "participation_study.py": ["--participate", "2"]}


def run_front_end(front_end: str, config: str, args: list, leg: list) -> int:
    """Run ``front_end`` on ``config`` with ``-o out_dir=out``, ``args`` and ``leg``; return its exit code."""
    argv = ["-c", config, "-o", "out_dir=out", *args, *leg]
    try:
        if front_end in FEDSIM:
            return main([front_end, *argv])
        with mock.patch.object(sys, "argv", [front_end, *argv]):
            runpy.run_path(str(ROOT / "scripts" / front_end), run_name="__main__")
    except SystemExit as exc:
        if isinstance(exc.code, str):  # the interpreter prints sys.exit's message and exits 1
            print(exc.code, file=sys.stderr)
            return 1
        return exc.code or 0
    except Exception:
        traceback.print_exc()
        return 1
    return 0


@pytest.fixture
def workdir(tmp_path, monkeypatch):
    for name, content in FILES.items():
        (tmp_path / name).write_bytes(content)
    monkeypatch.chdir(tmp_path)
    return tmp_path


@pytest.mark.parametrize("front_end, config, args, message", PAIRS,
                         ids=[f"{pair[0]} {pair[1]} {' '.join(pair[2])}" for pair in PAIRS])
def test_fails_early(workdir, capsys, front_end, config, args, message):
    trained = AssertionError("training started")
    with mock.patch.object(cli, "run_training", side_effect=trained) as cli_train, \
            mock.patch.object(simulator, "run_training", side_effect=trained) as train:
        code = run_front_end(front_end, config, args, [] if "--axis" in args else EXIT_1_LEGS.get(front_end, []))
    err = capsys.readouterr().err
    assert code == 1
    assert re.match(pattern("error: " + message), err), err
    assert "Traceback" not in err
    assert not cli_train.called and not train.called
    assert sorted(path.name for path in workdir.iterdir()) == sorted(FILES)


@pytest.mark.parametrize("config, args, message", PARSE + [row[:2] + (None,) for row in BUILD])
def test_parse_config(workdir, config, args, message):
    """parse_config rejects a PARSE row with its message and accepts a BUILD row."""
    with pytest.raises(ConfigError, match=pattern(message)) if message else contextlib.nullcontext():
        parse_config(config, args[1::2])


def test_rounds_up_to_2_32_parse(workdir):
    assert parse_config("quadratic_verify.ini", ["rounds=4294967296", "lr_decay=1"]).rounds == 2**32


def test_last_round_with_a_nonzero_eta_parses(workdir):
    assert parse_config("minimal.ini", ["lr_decay=0.5", "rounds=1072"]).rounds == 1072  # 0.1 * 0.5**1071 > 0


@pytest.mark.parametrize("items, message", FIELD)
def test_dataclasses_reject_the_value(items, message):
    """Built directly, the dataclasses raise the message: MimHyper a ValueError, the others a ConfigError."""
    fields: dict = {part: {} for part in ("problem", "hyper", None)}
    for item in items.split():
        setting = SETTINGS[item.split("=")[0]]
        fields[setting.part][setting.field] = setting.parse(item.split("=")[1])
    with pytest.raises(ValueError if fields["hyper"] else ConfigError, match=pattern(message)):
        RunConfig(problem=ProblemConfig(**fields["problem"]), hyper=MimHyper(**fields["hyper"]), **fields[None])


# exits 2 and 3
TRAINING = ("run", "verify", "sweep", "compare_algorithms.py", "participation_study.py")
BASELINE = tuple(front_end for front_end in TRAINING if front_end != "verify")  # verify takes only fedmim
VERIFIED = tuple(front_end for front_end in TRAINING if front_end != "compare_algorithms.py")  # it sweeps every rule
OUTPUTS = {"run": ["metrics.csv", "run.json"], "verify": ["metrics.csv", "run.json"],
           "sweep": ["sweep.csv", "sweep.json"], "compare_algorithms.py": ["compare.csv"], "participation_study.py": []}
TOLERANCE = "verification residual exceeded tolerance 1e-09"
INF_LOSS = "final loss inf is not finite"


def strict_json(path):
    """The JSON document at ``path``, failing on NaN and Infinity, which strict JSON has no literal for."""
    return json.loads(path.read_text(), parse_constant=lambda constant: pytest.fail(f"{path.name} holds {constant}"))


def reports(delta: str, u: str, front_end, out, printed, label):
    """A row check, given ``delta`` and ``u``: the leg prints its residual maxima so, and run.json holds them."""
    assert f"{label}max residual_delta {delta}, max residual_u {u}" in printed.out.splitlines()
    if "run.json" in OUTPUTS[front_end]:
        maxima = strict_json(out / "run.json")["verification"]
        assert ["nan" if value is None else f"{value:.3e}" for value in maxima.values()] == [delta, u]


def null_final_loss(front_end, out, printed, label):  # sweep.json wrote the leg's final loss as Infinity
    for name, value in (("run.json", None), ("sweep.json", [None])):
        assert name not in OUTPUTS[front_end] or strict_json(out / name)["final_loss"] == value


def nan_residuals(front_end, out, printed, label):
    reports("nan", "nan", front_end, out, printed, label)
    for name in {"metrics.csv", "sweep.csv"} & set(OUTPUTS[front_end]):
        rows = csv.DictReader((out / name).read_text().splitlines())
        assert all(row["residual_delta"] == row["residual_u"] == "nan" for row in rows)


def no_metric_row(front_end, out, printed, label):
    if front_end == "compare_algorithms.py":
        assert [(row.split()[0], row.split()[2]) for row in printed.out.splitlines()[1:6]] == [
            (rule, "nan") for rule in ("fedavg", "fedcm", "scaffold", "fedadam", "fedmim")]
        assert (out / "compare.csv").read_text().splitlines() == [",".join(("algorithm", "seed") + METRIC_COLUMNS)]
        assert printed.err.count("diverged at round 1") == 5


CORRUPT = ["-o", "corrupt_delta=1e-6", "-o", "rounds=60"]
OUTCOMES = [
    (TRAINING, "mlp-diverge.ini", [], 2, ["diverged at round 33 (client 0, local step 7)"], None),
    # round 33's aggregate overflows, also when round 33 is the last
    *((BASELINE, "participation_study.ini", ["-o", f"rounds={rounds}", "-o", "s_participate=2", "-o", "eta_l=50",
                                             "-o", "seed=2", "-o", "name=fedavg"], 2,
       ["diverged at round 33 (server step)"], null_final_loss) for rounds in (33, 40)),
    # participation_study.py exited 0 and counted both diverged runs as censored (101)
    *((TRAINING, "participation_study.ini", ["-o", "eta_l=50", "-o", "rounds=100", "-o", f"s_participate={s}"], 2,
       [f"diverged at round {line}"], None) for s, line in ((2, "76 (client 1, local step 4)"),
                                                            (5, "77 (client 1, local step 2)"))),
    # compare_algorithms.py died with IndexError at rows[-1] before writing compare.csv
    (TRAINING, "compare_algorithms.ini", ["-o", "eta_l=1e300", "-o", "k_local=50", "-o", "rounds=3"], 2,
     ["diverged at round 1 (client 1, local step 1)"], no_metric_row),
    # run and sweep exited 0, with the residuals of the corrupted increments only in run.json; verify turns the check on
    *((front_ends, "quadratic_verify.ini", [*more, *CORRUPT], 3, [], partial(reports, "1.000e-06", "9.000e-05"))
      for front_ends, more in ((VERIFIED, []), (("verify",), ["-o", "verify=false"]))),
    # a noise so large that every metric is inf: the run exited 0 with status completed
    (BASELINE, "quadratic_verify.ini", ["-o", "sigma_l=1e308", "-o", "rounds=5", "-o", "verify=false"], 2,
     [INF_LOSS], null_final_loss),
    # and every residual NaN: max() dropped each NaN, and the run passed with 0.0; then it exited 3
    (VERIFIED, "quadratic_verify.ini", ["-o", "sigma_l=1e308", "-o", "rounds=5"], 2, [INF_LOSS, TOLERANCE],
     nan_residuals),
    # a divergence outranks a failed check, which is still reported
    (("sweep",), "quadratic_verify.ini", [*CORRUPT, "--axis", "eta_l", "--values", "0.02,100"], 2,
     ["eta_l=100: diverged at round 26 (client 0, local step 6)", TOLERANCE], None),
]
OUTCOME_PAIRS = [(front_end, *row[1:]) for row in OUTCOMES for front_end in row[0]]


def leg(front_end: str, cfg: RunConfig) -> tuple:
    """The arguments that make ``front_end``'s one leg the run of ``cfg``, and the label it prints that leg with."""
    eta, seed, s = repr(cfg.hyper.eta_l).removesuffix(".0"), cfg.master_seed, cfg.hyper.s_participate
    return {"sweep": (["--axis", "eta_l", "--values", eta], f"eta_l={eta}: "),
            "compare_algorithms.py": (["--seeds", f"{seed}"], f"{cfg.algorithm} seed {seed}: "),
            "participation_study.py": (["--participate", f"{s}", "--seeds", f"{seed}"], f"S {s} seed {seed}: "),
            }.get(front_end, ([], ""))


@pytest.mark.parametrize("front_end, config, args, code, lines, check", OUTCOME_PAIRS,
                         ids=[f"{pair[0]} {pair[1]} {' '.join(pair[2])}" for pair in OUTCOME_PAIRS])
def test_outcome(workdir, capsys, front_end, config, args, code, lines, check):
    legs, label = ([], "") if "--axis" in args else leg(front_end, parse_config(config, args[1::2]))
    got = run_front_end(front_end, config, args, legs)
    printed, out, made = capsys.readouterr(), workdir / "out", OUTPUTS[front_end]
    assert "Traceback" not in printed.err, printed.err
    assert got == code
    expected = [line if line == TOLERANCE else label + line for line in lines] + [TOLERANCE] * (code == 3)
    assert [line for line in printed.err.splitlines()  # compare_algorithms.py also reports its other rules
            if line in expected or front_end != "compare_algorithms.py"] == expected
    assert sorted(str(path.relative_to(workdir)) for path in workdir.rglob("*")) == sorted(
        [*FILES, *(["out"] if made else []), *(f"out/{name}" for name in made)])
    documents = {name: strict_json(out / name) for name in made if name.endswith(".json")}
    if "run.json" in documents and code == 2:  # the first stderr line is the one run's status or its final loss
        run = documents["run.json"]
        if lines[0] == INF_LOSS:
            assert [run["status"], run["final_loss"]] == ["completed", None]
        else:
            client, step = run["diverged_client"], run["diverged_step"]
            where = "server step" if client is None else f"client {client}, local step {step}"
            assert [run["status"], f"diverged at round {run['diverged_round']} ({where})"] == ["diverged", lines[0]]
    if front_end == "participation_study.py":  # its table, one row for the leg's S, comes before the exit
        assert printed.out.splitlines()[1].split()[0] == legs[1]
    if check:
        check(front_end, out, printed, label)
