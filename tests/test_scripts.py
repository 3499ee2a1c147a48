"""Smoke runs of the study scripts in scripts/, with tiny settings."""

import csv
import runpy
import sys
from pathlib import Path
from unittest import mock

import pytest

from fedsim import simulator
from fedsim.cli import main

ROOT = Path(__file__).resolve().parents[1]
SMALL = ["-o", "n_clients=4", "-o", "dim=3", "-o", "k_local=2"]


def run_script(monkeypatch, name: str, *args: str) -> int:
    """Run a script as ``__main__``; returns how many problems it built."""
    monkeypatch.setattr(sys, "argv", [name, *args])
    with mock.patch.object(simulator, "build_problem", wraps=simulator.build_problem) as build:
        runpy.run_path(str(ROOT / "scripts" / name), run_name="__main__")
    return build.call_count


def test_compare_algorithms_rows_match_cli_runs(tmp_path, monkeypatch, capsys):
    out = tmp_path / "compare"
    overrides = SMALL + ["-o", "s_participate=2", "-o", "rounds=3"]
    builds = run_script(monkeypatch, "compare_algorithms.py", *overrides, "--seeds", "0,1",
                        "-o", f"out_dir={out}")
    assert builds == 2  # one problem per seed, shared by all five rules
    assert "fedadam" in capsys.readouterr().out
    lines = (out / "compare.csv").read_text().splitlines()
    assert len(lines) == 1 + 5 * 2 * 3  # header + algorithms x seeds x rounds
    assert [line.split(",")[0] for line in lines[1::6]] == ["fedavg", "fedcm", "scaffold", "fedadam", "fedmim"]
    # the script reads the same settings table as `fedsim run`
    ini = str(ROOT / "configs" / "compare_algorithms.ini")
    for algorithm in ("fedavg", "fedcm", "scaffold", "fedadam", "fedmim"):
        run_dir = tmp_path / algorithm
        assert main(["run", "-c", ini, *overrides, "--out", str(run_dir), "--seed", "1",
                     "-o", f"name={algorithm}"]) == 0
        rows = [line.split(",", 2)[2] for line in lines if line.startswith(f"{algorithm},1,")]
        assert rows == (run_dir / "metrics.csv").read_text().splitlines()[1:]


def test_participation_study_table(monkeypatch, capsys):
    builds = run_script(monkeypatch, "participation_study.py", *SMALL, "-o", "rounds=30",
                        "--participate", "2,4", "--seeds", "0,1")
    assert builds == 2  # one problem per seed, shared by every S
    header, *rows = capsys.readouterr().out.strip().splitlines()
    assert header.split()[:3] == ["S", "median", "rounds"]
    assert [row.split()[0] for row in rows] == ["2", "4"]
    for row in rows:
        assert 1 <= float(row.split()[1]) <= 31  # a censored seed counts as rounds + 1


def test_participation_study_row_matches_cli_run(tmp_path, monkeypatch, capsys):
    overrides = SMALL + ["-o", "rounds=30"]
    run_dir = tmp_path / "run"
    assert main(["run", "-c", str(ROOT / "configs" / "participation_study.ini"), *overrides,
                 "-o", "s_participate=2", "--seed", "1", "--out", str(run_dir)]) == 0
    with open(run_dir / "metrics.csv", newline="", encoding="utf-8") as fh:
        rows = [(int(row["round"]), float(row["grad_norm_sq"])) for row in csv.DictReader(fh)]
    threshold = rows[len(rows) // 2][1]
    expected = next(t for t, grad_norm_sq in rows if grad_norm_sq <= threshold)
    capsys.readouterr()
    run_script(monkeypatch, "participation_study.py", *overrides, "--participate", "2", "--seeds", "1",
               "--threshold", repr(threshold))
    table = capsys.readouterr().out.strip().splitlines()
    assert table[1].split() == ["2", str(expected), f"[{expected}]"]


def test_participation_study_reaches_the_threshold(monkeypatch, capsys):
    # the S = 20 row reaches the threshold at criterion 06's seed-0 round, 12, where a search that never fires
    # prints the censored 41 (d = 8: no BLAS thread dependence)
    run_script(monkeypatch, "participation_study.py", "--participate", "2,20", "--seeds", "0", "-o", "rounds=40")
    assert "  20             12  [12]" in capsys.readouterr().out.splitlines()


@pytest.mark.parametrize("name, args", [("compare_algorithms.py", ("-o", "s_participate=2")),
                                        ("participation_study.py", ("--participate", "2"))])
def test_script_out_of_memory_exits_1(tmp_path, monkeypatch, name, args):
    # a MemoryError from numpy escaped as a traceback; compare_algorithms.py then left its out_dir behind, empty
    existing = tmp_path / "existing"
    existing.mkdir()
    for out in (tmp_path / "a" / "out", existing):
        with mock.patch.object(simulator, "run_training", side_effect=MemoryError("Unable to allocate 35.8 GiB")), \
                pytest.raises(SystemExit, match="^error: Unable to allocate 35.8 GiB$"):
            run_script(monkeypatch, name, *SMALL, *args, "-o", f"out_dir={out}")
    assert sorted(tmp_path.iterdir()) == [existing]  # one that was there before stays
    assert not any(existing.iterdir())


@pytest.mark.parametrize("name", ["compare_algorithms.py", "participation_study.py"])
def test_script_usage_error_exits_1(monkeypatch, capsys, name):
    # argparse exited 2, which compare_algorithms.py also gives a divergence
    with pytest.raises(SystemExit) as exit_info:
        run_script(monkeypatch, name, "--seeds", "a")
    assert exit_info.value.code == 1
    assert f"{name}: error: argument --seeds" in capsys.readouterr().err
