"""Self-tests of the benchmark: inputs, reference answers and tracer.

Run from the repository root with ``python3 -m pytest bench``.
"""

from __future__ import annotations

import json
import math
import shutil
import signal
import subprocess
import sys
from fractions import Fraction
from itertools import product
from pathlib import Path

import jsonschema
import pytest

import inputs
import run
import worker
from speed import PERIOD_S, SpeedSampler
from tracer import Tracer, layer_metrics

#: Not a seed the benchmark was tuned on.
HELD_OUT_SEED = 424242
F = Fraction


def exact_profile_payoffs(doc: dict) -> dict:
    """Payoffs of all 64 deterministic profiles of a game document, exactly."""
    prior = {tuple(int(b) for b in k.split()): F(v) for k, v in doc["prior"].items()}
    util = {p: [[F(v) for v in row] for row in doc["utilities"][p]] for p in "ABC"}
    out = {}
    for prof in product(product((0, 1), repeat=2), repeat=3):
        pay = [F(0)] * 3
        for x, w in prior.items():
            y = tuple(prof[i][x[i]] for i in range(3))
            xi, yi = 4 * x[0] + 2 * x[1] + x[2], 4 * y[0] + 2 * y[1] + y[2]
            for i, p in enumerate("ABC"):
                pay[i] += w * util[p][xi][yi]
        out[prof] = tuple(pay)
    return out


def nash_profiles(payoffs: dict) -> set:
    eq = set()
    for prof, own in payoffs.items():
        if all(
            payoffs[tuple(dev if j == i else prof[j] for j in range(3))][i] <= own[i]
            for i in range(3)
            for dev in product((0, 1), repeat=2)
        ):
            eq.add(prof)
    return eq


@pytest.fixture(scope="module")
def schemas():
    return {
        "game": json.loads(inputs.GAME_SCHEMA_PATH.read_text()),
        "setting": json.loads(inputs.SETTING_SCHEMA_PATH.read_text()),
    }


@pytest.mark.parametrize("workload", inputs.WORKLOADS)
def test_inputs_are_seeded_and_schema_valid(workload, tmp_path, schemas):
    (tmp_path / "a").mkdir()
    (tmp_path / "b").mkdir()
    first = inputs.build_workload(workload, HELD_OUT_SEED, tmp_path / "a")
    again = inputs.build_workload(workload, HELD_OUT_SEED, tmp_path / "b")
    assert [[op.argv for op in plan] for plan in first] == [
        [tuple(a.replace(str(tmp_path / "b"), str(tmp_path / "a")) for a in op.argv) for op in plan]
        for plan in again
    ]
    table1 = json.loads(inputs.TABLE1_PATH.read_text())
    for path in sorted((tmp_path / "a").glob("*.json")):
        doc = json.loads(path.read_text())
        assert doc == json.loads((tmp_path / "b" / path.name).read_text())
        kind = "game" if path.name.startswith("game") else "setting"
        jsonschema.validate(doc, schemas[kind])
        if kind == "game":
            assert doc != table1


def test_relabelled_references_hold_exactly():
    table1 = exact_profile_payoffs(json.loads(inputs.TABLE1_PATH.read_text()))
    assert nash_profiles(table1) == set(inputs.TABLE1_EQUILIBRIA)
    for flips in product((0, 1), repeat=2):
        relabel = inputs.Relabel(*flips, F(3, 2), F(-1, 3))
        payoffs = exact_profile_payoffs(inputs.relabelled_game(relabel))
        assert max(sum(p) for p in payoffs.values()) == relabel.bound
        expected = relabel.equilibria()
        assert nash_profiles(payoffs) == set(expected)
        assert all(payoffs[prof] == pay for prof, pay in expected.items())
        assert all(sum(pay) == relabel.bound for pay in expected.values())
        assert max(min(p) for p in payoffs.values()) == relabel.bound / 3


def test_bell_references():
    # Mermin-type expressions: every deterministic profile reaches at most 2
    assert inputs.BELL_EXTREMES == {"V011": (-2, 2), "V100": (-2, 2)}
    assert inputs.OPTIMUM_BELL["V011"] == pytest.approx(12 / math.sqrt(13), abs=1e-12)
    assert inputs.OPTIMUM_BELL["V100"] == pytest.approx(-8 / math.sqrt(13), abs=1e-12)


def test_gauge_shifted_settings_keep_payoffs_and_bell_values(tmp_path):
    from bellgame.builtin import builtin_game
    from bellgame.classical import BellVariant
    from bellgame.quantum import ghz_advisor, load_setting, quantum_bell, quantum_payoffs

    game, ghz = builtin_game(), ghz_advisor()
    plans = inputs.build_workload("certify", HELD_OUT_SEED, tmp_path)
    for path in sorted(tmp_path.glob("setting*.json")):
        doc = json.loads(path.read_text())
        phis = [doc[f"phi_{slot}"] for slot in inputs.ANGLE_SLOTS]
        assert inputs.ghz_planar_bell(phis) == pytest.approx(inputs.OPTIMUM_BELL, abs=1e-12)
        setting = load_setting(path)
        payoffs = quantum_payoffs(game.utilities, game.prior, ghz, setting)
        assert payoffs == pytest.approx([inputs.OPTIMUM] * 3, abs=1e-12)
        for variant in BellVariant:
            assert quantum_bell(ghz, setting, variant) == pytest.approx(
                inputs.OPTIMUM_BELL[variant.name], abs=inputs.BELL_TOL
            )
    assert len(plans) == inputs.ROTATION == len(list(tmp_path.glob("setting*.json")))
    assert all([op.layer for op in plan] == ["check_planar", "check_full", "bell"] for plan in plans)


def test_held_out_seed_operations_pass_their_checks(tmp_path):
    for workload in ("classical", "table1-optimize"):
        directory = tmp_path / workload
        directory.mkdir()
        (ops,) = inputs.build_workload(workload, HELD_OUT_SEED, directory)
        for op in ops:
            _, fails, _ = worker.run_op(op)
            assert fails == [], op.argv


def test_checks_reject_a_wrong_report(tmp_path):
    op = inputs.build_workload("table1-optimize", HELD_OUT_SEED, tmp_path)[0][0]
    _, fails, results = worker.run_op(op)
    assert fails == []
    wrong = json.loads(results)
    wrong["optimum"]["value"] += 1e-3
    assert op.check(0, wrong)
    assert op.check(3, json.loads(results))


def test_tracer_keeps_results_restores_names_and_repeats_counts(tmp_path):
    import bellgame.optimize as optimize_module

    ops = inputs.build_workload("table1-optimize", HELD_OUT_SEED, tmp_path)[0][:3]
    originals = dict(vars(optimize_module))
    with SpeedSampler() as sampler:
        plain = worker.Pass(ops, sampler=sampler)
    assert signal.getsignal(signal.SIGALRM) == signal.SIG_DFL
    assert sampler.samples and 0 < plain.raw_s < sum(plain.seconds) and plain.scaled_s > 0
    runs = []
    for _ in range(2):
        tracer = Tracer()
        with tracer.installed():
            runs.append(worker.Pass(ops, tracer))
        runs[-1].metrics = layer_metrics(tracer.spans)
        assert tracer.missing == []
    assert vars(optimize_module) == originals
    assert plain.failed == 0 and all(r.failed == 0 for r in runs)
    assert all(r.results == plain.results for r in runs)
    counts = [
        {k: v for k, v in r.metrics.items() if not k.endswith(("_s", "per_call", "per_s"))}
        for r in runs
    ]
    assert counts[0] == counts[1]
    assert counts[0]["optimize.nm.runs"] > 0
    assert counts[0]["optimize.objective_evals"] >= counts[0]["optimize.nm.nfev"]


def test_traced_runs_in_two_processes_repeat_counts(tmp_path):
    counts = []
    for k in range(2):
        inputs_dir = tmp_path / f"run{k}"
        inputs_dir.mkdir()
        done = subprocess.run(
            [sys.executable, str(inputs.ROOT / "bench" / "worker.py"), "table1-optimize",
             str(HELD_OUT_SEED), "0", "1", str(inputs_dir), str(tmp_path / f"spans{k}.json")],
            capture_output=True, text=True, timeout=120, check=True,
        )
        out = json.loads(done.stdout.splitlines()[-1])
        assert out["failed"] == 0
        counts.append({k: v for k, v in out["layers"].items() if isinstance(v, int)})
    assert counts[0] == counts[1] and counts[0]["optimize.objective_evals"] > 0


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copytree(inputs.ROOT / "bench", tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(inputs.ROOT / "BENCHMARK.json", tmp_path)
    done = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "classical", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert done.returncode != 0
    assert done.stdout == ""


def test_a_pass_shorter_than_the_sampling_period_is_scaled(tmp_path):
    (ops,) = inputs.build_workload("classical", HELD_OUT_SEED, tmp_path)
    bell = [op for op in ops if op.layer == "bell"]
    with SpeedSampler() as sampler:
        short = worker.Pass(bell[:1], sampler=sampler)
    assert short.raw_s < PERIOD_S
    assert short.failed == 0 and short.speed > 0 and short.scaled_s > 0


def test_import_stages_follow_the_import_tree():
    def line(depth, name, self_us):
        return f"import time: {self_us:9d} | {self_us:10d} | {'  ' * depth}{name}"

    stderr = "\n".join([
        "import time: self [us] | cumulative | imported package",
        line(0, "site", 1000),
        run.SETUP_START,
        line(1, "json", 3),
        line(3, "pickle", 10),
        line(2, "numpy.core", 20),
        line(1, "numpy", 40),
        line(2, "numpy.linalg", 5),
        line(2, "inspect", 7),
        line(1, "scipy", 50),
        line(0, "bellgame", 100),
        line(0, "bellgame.cli", 200),
        run.SETUP_END,
        line(0, "json.decoder", 1000),
        "",
    ])
    stages = run.import_stages(stderr)
    assert stages == pytest.approx(
        {"numpy_s": 75e-6, "scipy_optimize_s": 57e-6, "bellgame_s": 303e-6}, abs=1e-12
    )
    only_bellgame = "\n".join([run.SETUP_START, line(0, "bellgame", 100), run.SETUP_END, ""])
    assert run.import_stages(only_bellgame) == {
        "numpy_s": 0.0, "scipy_optimize_s": 0.0, "bellgame_s": 100e-6
    }


def test_setup_probe_imports_only_what_the_program_imports():
    done = subprocess.run(
        [sys.executable, "-X", "importtime", "-c", run.SETUP_PROBE,
         str(inputs.ROOT / "src"), str(inputs.ROOT / "bench")],
        capture_output=True, text=True, timeout=60, check=True,
    )
    probe = json.loads(done.stdout)
    stages = run.import_stages(done.stderr)
    assert probe["raw_s"] > 0 and probe["speed"] > 0
    assert all(v > 0 for v in stages.values())
    assert sum(stages.values()) < probe["raw_s"] * 1.5
