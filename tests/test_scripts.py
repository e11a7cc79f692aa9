"""Smoke runs of the reproduction scripts at small sizes, so that a change
to the library API cannot break them unnoticed."""

import importlib.util
import math
from pathlib import Path

import pytest

SCRIPTS = Path(__file__).resolve().parent.parent / "scripts"


def load_script(name: str):
    spec = importlib.util.spec_from_file_location(name, SCRIPTS / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_landscape_scan(tmp_path, capsys):
    out = tmp_path / "scan.csv"
    load_script("landscape_scan").main(["--resolution", "5", "--out", str(out)])
    lines = out.read_text().splitlines()
    assert lines[0] == "c0,c1,payoff" and len(lines) == 1 + 5 * 5
    values = [float(line.split(",")[2]) for line in lines[1:]]
    assert max(values) <= (13 + 2 * math.sqrt(13)) / 24 + 1e-12
    assert "grid max" in capsys.readouterr().err


def test_reproduce_results(capsys):
    load_script("reproduce_results").main(["--samples", "10"])
    out = capsys.readouterr().out
    assert "total: 9 equilibria, 3 fair" in out
    assert f"common payoff: {(13 + 2 * math.sqrt(13)) / 24:.9f}" in out
    assert "certified equilibrium (threshold 1e-06): True" in out


def test_reproduce_results_without_samples(capsys):
    load_script("reproduce_results").main(["--samples", "0"])
    assert "max total over 0 random mixtures: none (within bound: True)" in (
        capsys.readouterr().out
    )


@pytest.mark.parametrize(
    ("name", "argv"),
    [
        ("reproduce_results", ["--seed", "-1"]),
        ("reproduce_results", ["--samples", "-1"]),
        ("reproduce_results", ["--samples", "1000001"]),
        ("landscape_scan", ["--resolution", "0"]),
        ("landscape_scan", ["--resolution", "-3"]),
    ],
)
def test_bad_arguments_exit_2(capsys, name, argv):
    with pytest.raises(SystemExit) as exit_info:
        load_script(name).main(argv)
    assert exit_info.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "error: --" in captured.err
