"""Smoke runs of the study scripts in scripts/, with tiny arguments."""

import runpy
import sys
from pathlib import Path

from fedsim.cli import main

SCRIPTS = Path(__file__).resolve().parents[1] / "scripts"


def run_script(monkeypatch, name: str, *args: str) -> None:
    monkeypatch.setattr(sys, "argv", [name, *args])
    runpy.run_path(str(SCRIPTS / name), run_name="__main__")


def test_compare_algorithms_rows_match_cli_runs(tmp_path, monkeypatch, capsys):
    out = tmp_path / "compare"
    run_script(monkeypatch, "compare_algorithms.py", "--clients", "4", "--dim", "3", "--participate", "2",
               "--k-local", "2", "--rounds", "3", "--seeds", "0,1", "--out", str(out))
    assert "fedadam" in capsys.readouterr().out
    lines = (out / "compare.csv").read_text().splitlines()
    assert len(lines) == 1 + 5 * 2 * 3  # header + algorithms x seeds x rounds
    # the script's other settings are the config defaults, so `fedsim run` needs only these
    ini = tmp_path / "same.ini"
    ini.write_text("[problem]\nkind = quadratic\nn_clients = 4\ndim = 3\n"
                   "[algorithm]\nname = fedmim\nk_local = 2\ns_participate = 2\n[run]\nrounds = 3\n")
    for algorithm in ("fedavg", "fedcm", "scaffold", "fedadam", "fedmim"):
        run_dir = tmp_path / algorithm
        assert main(["run", "-c", str(ini), "--out", str(run_dir), "--seed", "1", "-o", f"name={algorithm}"]) == 0
        rows = [line.split(",", 2)[2] for line in lines if line.startswith(f"{algorithm},1,")]
        assert rows == (run_dir / "metrics.csv").read_text().splitlines()[1:]


def test_participation_study_table(monkeypatch, capsys):
    run_script(monkeypatch, "participation_study.py", "--clients", "4", "--dim", "3", "--participate", "2,4",
               "--k-local", "2", "--rounds", "30", "--seeds", "0,1")
    header, *rows = capsys.readouterr().out.strip().splitlines()
    assert header.split()[:3] == ["S", "median", "rounds"]
    assert [row.split()[0] for row in rows] == ["2", "4"]
    for row in rows:
        assert 1 <= float(row.split()[1]) <= 31  # a censored seed counts as rounds + 1
