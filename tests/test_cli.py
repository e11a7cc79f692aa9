import hashlib
import json
import math
import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

from bellgame import __version__, cli, optimize
from bellgame.builtin import builtin_game
from bellgame.classical import BellVariant, profile_table
from bellgame.cli import EXIT_NO_CONVERGENCE, fmt_real, main
from bellgame.game import (
    GameDefinition,
    Player,
    expected_payoffs,
    game_from_json_dict,
    game_to_json_dict,
    load_game,
    parse_rational,
)
from bellgame.quantum import (
    ANGLE_LIMIT,
    MAGNITUDE_LIMIT,
    PLANAR_KEYS,
    MeasurementSetting,
    ghz_advisor,
    ghz_weights,
    load_setting,
    quantum_bell,
    setting_to_json_dict,
)
from oracles import (
    HiddenVariableModel,
    affine_transform,
    constant_table,
    hv_model_to_distribution,
    make_uniform_prior,
    scaled_to_magnitude,
)

F = Fraction

#: Table1's fair quantum value, (13 + 2 sqrt(13)) / 24.
ANALYTIC_OPTIMUM = (13 + 2 * math.sqrt(13)) / 24


#: sha256 of each pinned case's results as json.dumps(results) + "\n", with
#: keys in report order: this pins every key, value and the order of the
#: keys.  The audit-bound, equilibria and bell cases were recorded before the
#: profile scans moved to integers; the optimize, bell --setting and check
#: cases before their payoffs and Bell values moved from the trace rule to
#: the GHZ engine, and all of them before the commands' shared timing, digest
#: and writing code moved into main.  The two check-optimum cases were
#: re-recorded when the best-response search gave way to the closed form:
#: their improvements moved in the last digits (at most 1.1e-16).  All four
#: check cases were re-recorded when check's distribution moved from the
#: trace rule to the GHZ closed form: row_sum_max_error and
#: no_signalling_max_residual moved by at most 3.3e-16.  The audit-bound
#: nonuniform_game case was re-recorded when the audit began to sample
#: mixtures of the 64 deterministic profiles: its max_min_payoff went from
#: 7/12 to 44483/75384.  The three optimize cases were re-recorded when the
#: polish began to keep tied vertices in order, the same on every CPU: their
#: angles moved by at most 3.2e-8 and their Bell values by at most 7.5e-8,
#: and their values and payoffs kept every printed digit.  The table1 and
#: affine_game optimize cases were re-recorded when the random starts came
#: to be drawn with random.Random in place of numpy's default_rng: their
#: angles moved by at most 2.8e-8 and their Bell values by at most 6.8e-8,
#: and their values and payoffs kept every printed digit.  The three
#: optimize cases were re-recorded when a Newton finish began to find each
#: maximum after a looser polish: the angles and Bell values became the
#: optimum's own (on table1, a1 = b1 = -pi/2 to 12 digits), the values and
#: payoffs kept every printed digit, the optimum gained
#: certified_equilibrium per best-response mode, and config.tol became the
#: loose polish's 1e-4.
PINNED_KEY_ORDER = {
    ("audit-bound", "table1"): "1933bf6cc134ae9b44cc9a2c3ed2aa8bdcf3c28125e2c984e90a9e5fed0a3b48",
    ("audit-bound", "nonuniform_game"): "f1cb177ccdd649c04a9f01c4363a9d3d29630c57db919093acb6e1c0d06e1718",
    ("audit-bound", "affine_game"): "b85ac5ebc1b25bee0f0dddb0f97fd195736a8ed402a7f8b543bd65e05136b335",
    ("equilibria", "table1"): "e680ce42ef39aca4d74e6b975ab34b25daa69ab70c75519ae03ae8c5f81a6b63",
    ("equilibria", "nonuniform_game"): "177a65fd12c5f0162a2b7d7b6ddc930d38aadb1cc35258d0ba3e006665c22d8b",
    ("equilibria", "affine_game"): "266d6d798a2202a58e79556a116fff8f47e77de1d21406771cfc8bdda579bb26",
    ("bell", "table1"): "7286f5425d75a018c0cf4a469eb55b9bad68c7a07e6901994fe545da92c8a496",
    ("optimize", "table1"): "29443325c0a26852cf2a6ce0cd58ed5e8c2e23b4dbba694b1b8f044945e122e0",
    ("optimize", "nonuniform_game"): "22d648f35f37a6e10a3012ebe1a22e2c9677db317491b43655e7c4e3520036a6",
    ("optimize", "affine_game"): "cb1a65f20f4d09642d93f3277929fe28e48593bbe2f5c2ea29e0721d9cbd9a58",
    ("bell-optimum", "table1"): "6e824f35970bd331b532458a30214c9bbe28d725d1ec30b781433c43c943b8e6",
    ("check-optimum-planar", "table1"): "f26f03863c69540477048788880bfacdeeb8143d2177672c670f6df06e003e36",
    ("check-optimum-full", "table1"): "c1eeb436bbdbf17ade2e61bbc815f8d2adc630d66cd8512d39817069e766d04e",
    ("check-tilted-planar", "table1"): "e579ecc67b55199274b8cce6d744ea282c44d14a4bca98ab900712f28ddce035",
    ("check-tilted-full", "table1"): "1857679b2a2cf994591b691455a01755c809a6905a0bb83cc77cb5169bb6e966",
}

#: Command line of each pinned case apart from --game; {optimum} and
#: {tilted} stand for the setting files of the fixtures of those names.
PINNED_ARGS = {
    "audit-bound": ["audit-bound", "--seed", "0"],
    "equilibria": ["equilibria"],
    "bell": ["bell"],
    "optimize": ["optimize", "--seed", "1"],
    "bell-optimum": ["bell", "--setting", "{optimum}"],
    **{
        f"check-{name}-{mode}": [
            "check", "--setting", f"{{{name}}}", "--mode", mode, "--restarts", "1",
        ]
        for name in ("optimum", "tilted")
        for mode in ("planar", "full")
    },
}


#: Command lines on which a file copy of table1 must report what the builtin
#: does; {setting} stands for the optimum's setting file.
ROUND_TRIP_ARGS = [
    ["equilibria"],
    ["audit-bound", "--samples", "50", "--seed", "3"],
    ["bell"],
    ["bell", "--setting", "{setting}"],
    ["optimize", "--restarts", "2"],
    ["check", "--setting", "{setting}"],
    ["check", "--setting", "{setting}", "--mode", "full"],
]


def _doubled(value: str) -> str:
    """A rational string with numerator and denominator doubled: "2/1" ->
    "4/2"."""
    num, _, den = value.partition("/")
    return f"{2 * int(num)}/{2 * int(den or 1)}"


#: Texts of a game document that state the same game: compact, re-indented,
#: and with every utility unreduced.
ROUND_TRIP_COPIES = {
    "compact": json.dumps,
    "indent3": lambda doc: json.dumps(doc, indent=3),
    "unreduced": lambda doc: json.dumps({
        **doc,
        "utilities": {
            name: [[_doubled(v) for v in row] for row in rows]
            for name, rows in doc["utilities"].items()
        },
    }),
}


def run_cli(capsys, *argv) -> tuple[int, dict]:
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, (json.loads(out) if out else {})


@pytest.fixture()
def optimum_setting_file(tmp_path, reference_angles):
    path = tmp_path / "optimum.json"
    path.write_text(json.dumps(dict(zip(PLANAR_KEYS, reference_angles.ravel().tolist()))))
    return str(path)


@pytest.fixture()
def tilted_setting_file(tmp_path):
    doc = {}
    for i, name in enumerate("ABC"):
        for t in (0, 1):
            doc[f"theta_{name}{t}"] = 0.4 + 0.3 * i + 0.2 * t
            doc[f"phi_{name}{t}"] = 0.1 * (i + t)
    path = tmp_path / "tilted.json"
    path.write_text(json.dumps(doc))
    return str(path)


class TestEquilibriaCommand:
    def test_builtin_reproduces_known_equilibria(self, capsys):
        code, report = run_cli(capsys, "equilibria")
        assert code == 0
        results = report["results"]
        assert results["count"] == 9
        assert results["total_payoff_bound"] == "9/4"
        payoff_sets = {
            tuple(sorted(e["payoffs"].values())) for e in results["equilibria"]
        }
        assert payoff_sets == {
            tuple(sorted(("5/8", "13/16", "13/16"))),
            tuple(sorted(("11/8", "7/16", "7/16"))),
            ("3/4", "3/4", "3/4"),
        }
        assert sum(e["fair"] for e in results["equilibria"]) == 3
        assert all(e["saturates_bound"] for e in results["equilibria"])

    def test_constant_utility_file_yields_64(self, capsys, tmp_path):
        game = GameDefinition(constant_table(F(1, 2)), make_uniform_prior())
        path = tmp_path / "constant.json"
        path.write_text(json.dumps(game_to_json_dict(game)))
        code, report = run_cli(capsys, "equilibria", "--game", str(path))
        assert code == 0
        assert report["results"]["count"] == 64

    def test_unnormalized_prior_exits_2_naming_field(self, capsys, tmp_path):
        doc = game_to_json_dict(builtin_game())
        for key in doc["prior"]:
            doc["prior"][key] = "1/10"
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(doc))
        code = main(["equilibria", "--game", str(path)])
        captured = capsys.readouterr()
        assert code == 2
        assert "prior" in captured.err

    @pytest.mark.parametrize("value", [1.5, True, "0.5", "1e400"])
    def test_non_schema_utility_exits_2_naming_field(self, capsys, tmp_path, value):
        doc = game_to_json_dict(builtin_game())
        doc["utilities"]["A"][0][0] = value
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(doc))
        code = main(["equilibria", "--game", str(path)])
        captured = capsys.readouterr()
        assert code == 2
        assert captured.out == ""
        assert "utilities['A'][0][0]" in captured.err

    def test_rationals_beyond_the_int_string_limit(self, capsys, tmp_path, table1):
        """Two utility denominators of 2501 digits give a bound whose
        denominator has about 5000, past Python's 4300-digit limit on int
        <-> str conversion; the reports still carry it exactly."""
        doc = game_to_json_dict(table1)
        for name, den in (("A", 10**2500 + 1), ("B", 10**2500 + 3)):
            # raise every entry of the row x = (0, 0, 0) by 1/den
            doc["utilities"][name][0] = [
                f"{u.numerator * den + u.denominator}/{u.denominator * den}"
                for u in table1.utilities.values[Player[name]][0]
            ]
        path = tmp_path / "big.json"
        path.write_text(json.dumps(doc))
        game = load_game(path)
        bound = profile_table(game.utilities, game.prior).max_total()
        assert bound == F(9, 4) + F(1, 8) * (F(1, 10**2500 + 1) + F(1, 10**2500 + 3))
        assert bound.denominator > 10**5000

        code, report = run_cli(capsys, "equilibria", "--game", str(path))
        assert code == 0
        assert parse_rational(report["results"]["total_payoff_bound"], "bound") == bound
        code, report = run_cli(capsys, "audit-bound", "--samples", "5", "--game", str(path))
        assert code == 0
        deterministic = report["results"]["deterministic"]
        assert parse_rational(deterministic["max_total"], "max_total") == bound

    def test_missing_file_exits_4(self, capsys):
        code = main(["equilibria", "--game", "/nonexistent/game.json"])
        assert code == 4

    def test_asymmetric_game_warns_but_runs(self, capsys, tmp_path):
        doc = game_to_json_dict(builtin_game())
        doc["utilities"]["A"][0][0] = "3/1"
        path = tmp_path / "warped.json"
        path.write_text(json.dumps(doc))
        code = main(["equilibria", "--game", str(path)])
        captured = capsys.readouterr()
        assert code == 0
        assert captured.err == (
            f"warning: {path}: utilities are not player-symmetric (2 relations "
            "fail; first: swap AB at x=(0, 0, 0) y=(0, 0, 0))\n"
        )

    @pytest.mark.parametrize(
        "game_name, warning",
        [
            (
                "nonuniform_game",
                "prior is not player-symmetric (12 relations fail; first: swap AB "
                "at x=(0, 1, 0))",
            ),
            ("affine_game", None),
            ("table1", None),
        ],
    )
    def test_symmetry_warning_covers_the_prior(self, request, capsys, tmp_path, game_name, warning):
        """Condition (i) asks the prior to be symmetric too: table1's
        utilities under the prior P(x) = (index(x) + 1) / 36 warn, and
        neither the relabelled affine copy nor a re-indented copy of table1
        does."""
        game = request.getfixturevalue(game_name)
        path = tmp_path / f"{game_name}.json"
        path.write_text(json.dumps(game_to_json_dict(game), indent=3))
        code = main(["equilibria", "--game", str(path)])
        captured = capsys.readouterr()
        assert code == 0
        assert json.loads(captured.out)["inputs"]["game_digest"] == game.digest
        assert captured.err == ("" if warning is None else f"warning: {path}: {warning}\n")

    def test_out_file(self, capsys, tmp_path):
        out = tmp_path / "report.json"
        code = main(["equilibria", "--out", str(out)])
        assert code == 0
        report = json.loads(out.read_text())
        assert report["command"] == "equilibria"
        assert report["engine_version"] == __version__
        assert report["inputs"]["game_digest"].startswith("sha256:")

    @pytest.mark.parametrize("argv", ROUND_TRIP_ARGS, ids=" ".join)
    @pytest.mark.parametrize("copy", list(ROUND_TRIP_COPIES))
    def test_round_tripped_game_gives_identical_digest(
        self, capsys, tmp_path, optimum_setting_file, copy, argv
    ):
        """A file copy of table1 that differs from the bundled file byte for
        byte, but not as a game, reports the builtin's exit code, game
        digest and results on every command, and prints nothing to stderr."""
        path = tmp_path / "copy.json"
        path.write_text(ROUND_TRIP_COPIES[copy](game_to_json_dict(builtin_game())))
        argv = [arg.format(setting=optimum_setting_file) for arg in argv]
        reports = []
        for game in ("builtin:table1", str(path)):
            code = main([*argv, "--game", game])
            captured = capsys.readouterr()
            assert captured.err == ""
            report = json.loads(captured.out)
            reports.append((code, report["inputs"]["game_digest"], report["results"]))
        assert reports[1] == reports[0]


class TestAuditCommand:
    def test_bound_and_bell_extremes(self, capsys):
        code, report = run_cli(capsys, "audit-bound", "--samples", "200")
        assert code == 0
        results = report["results"]
        assert results["deterministic"]["max_total"] == "9/4"
        assert results["deterministic"]["attainer_count"] == 16
        assert results["samples"]["within_bound"] is True
        assert results["fair_cap"] == "3/4"
        for variant in ("V011", "V100"):
            assert results["bell_extremes"][variant] == {
                "min": "-2/1",
                "max": "2/1",
            }

    def test_zero_samples_still_audits_deterministically(self, capsys):
        code, report = run_cli(capsys, "audit-bound", "--samples", "0")
        assert code == 0
        assert report["results"]["samples"]["max_total"] is None
        assert report["results"]["deterministic"]["max_total"] == "9/4"

    def test_same_seed_gives_identical_results_payload(self, capsys):
        _, first = run_cli(capsys, "audit-bound", "--samples", "150", "--seed", "3")
        _, second = run_cli(capsys, "audit-bound", "--samples", "150", "--seed", "3")
        assert json.dumps(first["results"]) == json.dumps(second["results"])


class TestRepeatedCalls:
    """main builds its parser once per process; no call sees another's
    arguments, errors or exits."""

    def test_a_flag_does_not_outlive_its_call(self, capsys):
        _, first = run_cli(capsys, "audit-bound", "--samples", "5")
        _, second = run_cli(capsys, "audit-bound")
        assert first["results"]["samples"]["count"] == 5
        assert second["results"]["samples"]["count"] == 1000

    def test_a_usage_error_then_a_good_call(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["check", "--mode", "full"])  # --setting is required
        assert exc.value.code == 2
        assert "--setting" in capsys.readouterr().err
        code, report = run_cli(capsys, "bell")
        assert code == 0 and report["command"] == "bell"

    def test_version_exits_cleanly_between_calls(self, capsys):
        for _ in range(2):
            with pytest.raises(SystemExit) as exc:
                main(["--version"])
            assert exc.value.code == 0
            assert capsys.readouterr().out == __version__ + "\n"
            code, report = run_cli(capsys, "equilibria")
            assert code == 0 and report["results"]["count"] > 0


    def test_a_builtin_game_derives_its_digest_and_weights_once(
        self, capsys, monkeypatch, optimum_setting_file
    ):
        """builtin_game keeps one object per process, and that object keeps
        its digest and GHZ weights: two checks serialise and weigh table1
        once."""
        built = {"weights": 0, "documents": 0}

        def counted(name, build):
            def spy(*args):
                built[name] += 1
                return build(*args)

            return spy

        monkeypatch.setattr("bellgame.quantum.ghz_weights", counted("weights", ghz_weights))
        monkeypatch.setattr(
            "bellgame.game.game_to_json_dict", counted("documents", game_to_json_dict)
        )
        builtin_game.cache_clear()  # a table1 object that no test has used
        reports = []
        for mode in ("planar", "full"):
            code, report = run_cli(capsys, "check", "--setting", optimum_setting_file, "--mode", mode)
            assert code == 0
            reports.append(report)
        assert built == {"weights": 1, "documents": 1}
        assert reports[0]["inputs"] == reports[1]["inputs"]

    def test_a_builtin_game_builds_its_profile_table_once(self, capsys, monkeypatch):
        """The bundled game's object keeps its profile table: the classical
        commands and optimize's bound read one table."""
        built = []

        def spy(table, prior):
            built.append(table)
            return profile_table(table, prior)

        monkeypatch.setattr("bellgame.classical.profile_table", spy)
        builtin_game.cache_clear()  # a table1 object that no test has used
        for argv in (
            ["equilibria"], ["audit-bound", "--samples", "10"], ["equilibria"],
            ["optimize", "--restarts", "1"],
        ):
            code, _ = run_cli(capsys, *argv)
            assert code == 0
        assert len(built) == 1

    def test_a_weight_overflow_exits_2_on_every_call(
        self, capsys, monkeypatch, table1, optimum_setting_file
    ):
        """A failed derivation is not kept: the same game object fails
        again on the next call."""
        doc = game_to_json_dict(table1)
        doc["utilities"]["A"][0][0] = "9" * 401
        huge = game_from_json_dict(doc)
        monkeypatch.setattr(cli, "load_game", lambda path: huge)
        for _ in range(2):
            code = main(["check", "--game", "huge.json", "--setting", optimum_setting_file])
            captured = capsys.readouterr()
            assert code == 2
            assert captured.out == ""
            assert captured.err.endswith(too_large("A"))

    def test_results_do_not_depend_on_the_process(
        self, capsys, tmp_path, affine_game, optimum_setting_file
    ):
        """What outlives a call, and the SIMD code numpy dispatches to,
        change no result: two fresh processes under different hash seeds,
        running the same command lines in opposite orders, report what this
        process does, and the second runs with every dispatch target of
        numpy's build disabled.  optimize runs at four seeds on the bundled
        game, whose object keeps its grid runs, and on a relabelled file,
        read into a new object on each call.  The interpreters start with
        -S, with src and numpy's directory first on sys.path, as in
        TestEntryPoint."""
        import numpy
        from numpy._core import _multiarray_umath

        path = tmp_path / "relabelled.json"
        path.write_text(json.dumps(game_to_json_dict(affine_game), indent=2))
        setting = ["--setting", optimum_setting_file]
        argvs = [
            ["optimize", "--seed", str(seed), *game]
            for game in ([], ["--game", str(path)])
            for seed in range(4)
        ] + [
            ["equilibria"], ["audit-bound"], ["bell"], ["bell", *setting],
            ["check", *setting], ["check", *setting, "--mode", "full"],
        ]
        script = (
            "import sys\n"
            "sys.path[:0] = sys.argv[1:3]\n"
            "import io, json\n"
            "from contextlib import redirect_stdout\n"
            "from bellgame.cli import main\n"
            "runs = []\n"
            "for argv in json.loads(sys.argv[3]):\n"
            "    out = io.StringIO()\n"
            "    with redirect_stdout(out):\n"
            "        code = main(argv)\n"
            "    runs.append([code, json.dumps(json.loads(out.getvalue())['results'])])\n"
            "print(json.dumps(runs))\n"
        )
        src = str(Path(cli.__file__).resolve().parents[1])
        site_dir = str(Path(numpy.__file__).resolve().parents[1])

        def runs_in_a_process(lines, **env):
            proc = subprocess.run(
                [sys.executable, "-S", "-c", script, src, site_dir, json.dumps(lines)],
                capture_output=True, text=True, check=True, env={**os.environ, **env},
            )
            return [tuple(run) for run in json.loads(proc.stdout)]

        here = []
        for argv in argvs:
            code, report = run_cli(capsys, *argv)
            here.append((code, json.dumps(report["results"])))
        assert runs_in_a_process(argvs, PYTHONHASHSEED="0") == here
        no_simd = " ".join(_multiarray_umath.__cpu_dispatch__)
        assert runs_in_a_process(
            argvs[::-1], PYTHONHASHSEED="1", NPY_DISABLE_CPU_FEATURES=no_simd
        )[::-1] == here


class TestPinnedResults:
    @pytest.mark.parametrize(("case", "game"), sorted(PINNED_KEY_ORDER))
    def test_results_match_pinned_hash(
        self, capsys, tmp_path, request, optimum_setting_file, tilted_setting_file,
        case, game,
    ):
        if game == "table1":
            selector = "builtin:table1"
        else:
            path = tmp_path / f"{game}.json"
            path.write_text(json.dumps(game_to_json_dict(request.getfixturevalue(game))))
            selector = str(path)
        files = {"optimum": optimum_setting_file, "tilted": tilted_setting_file}
        argv = [arg.format(**files) for arg in PINNED_ARGS[case]]
        code, report = run_cli(capsys, *argv, "--game", selector)
        assert code == 0
        line = json.dumps(report["results"]) + "\n"
        assert hashlib.sha256(line.encode()).hexdigest() == PINNED_KEY_ORDER[case, game]
        # the envelope: every subcommand, with and without a setting file
        assert list(report) == [
            "command", "inputs", "engine_version", "wall_time_s", "results",
        ]
        assert report["command"] == argv[0]
        digests = ["game_digest"] + (["setting_digest"] if "--setting" in argv else [])
        assert list(report["inputs"]) == digests


class TestBellCommand:
    def test_deterministic_extremes_without_setting(self, capsys):
        code, report = run_cli(capsys, "bell")
        assert code == 0
        results = report["results"]
        assert results["source"] == "deterministic-profiles"
        assert results["classical_bound"] == 2
        assert results["extremes"]["V011"]["max"] == "2/1"

    def test_setting_values_match_engine(self, capsys, optimum_setting_file, reference_angles):
        code, report = run_cli(capsys, "bell", "--setting", optimum_setting_file)
        assert code == 0
        values = report["results"]["values"]
        setting = MeasurementSetting.planar(reference_angles)
        advisor = ghz_advisor()
        assert values["V011"] == pytest.approx(
            quantum_bell(advisor, setting, BellVariant.V011), abs=1e-9
        )
        assert values["V100"] == pytest.approx(
            quantum_bell(advisor, setting, BellVariant.V100), abs=1e-9
        )
        assert report["results"]["difference"] > 4
        blob = json.dumps(setting_to_json_dict(load_setting(optimum_setting_file)), sort_keys=True)
        assert report["inputs"]["setting_digest"] == (
            "sha256:" + hashlib.sha256(blob.encode()).hexdigest()
        )


class TestOptimizeCommand:
    def test_default_run(self, capsys):
        code, report = run_cli(capsys, "optimize")
        assert code == 0
        results = report["results"]
        assert results["optimum"]["value"] == pytest.approx(0.842, abs=1e-3)
        assert results["optimum"]["converged"] is True
        assert results["optimum"]["certified_equilibrium"] == {
            "planar": True, "full_sphere": True,
        }
        assert results["advantage"]["classical_fair_cap"] == "3/4"
        assert results["advantage"]["beats_classical"] is True
        assert results["advantage"]["quantum_total"] > 2.25
        angles = results["optimum"]["angles"]
        assert set(angles) == {
            "phi_A0", "phi_A1", "phi_B0", "phi_B1", "phi_C0", "phi_C1",
        }

    def test_seed_stability(self, capsys):
        _, first = run_cli(capsys, "optimize", "--seed", "1", "--restarts", "4")
        _, second = run_cli(capsys, "optimize", "--seed", "2", "--restarts", "4")
        assert first["results"]["optimum"]["value"] == pytest.approx(
            second["results"]["optimum"]["value"], abs=1e-6
        )

    def test_degraded_config_still_reports(self, capsys):
        code, report = run_cli(capsys, "optimize", "--restarts", "1")
        assert code in (0, 3)
        assert "value" in report["results"]["optimum"]
        assert isinstance(report["results"]["optimum"]["converged"], bool)

    def test_invalid_grid_exits_2(self, capsys):
        """The grid is fixed: --grid is an unknown argument."""
        with pytest.raises(SystemExit) as exit_info:
            main(["optimize", "--grid", "2"])
        assert exit_info.value.code == 2
        assert "unrecognized arguments: --grid 2" in capsys.readouterr().err

    def test_polish_cut_short_exits_3(self, capsys, monkeypatch, tmp_path, table1):
        """Polishes cut short at 5 iterations still reach the optimum by the
        Newton finish, and exit 0.  With the finish failed as well, the
        tight polish that replaces it is cut short too, and the command
        exits 3.  On a game file, which is read into a new object: the
        shared table1 object may hold grid runs made under the real
        NM_MAX_ITER, and must not keep runs made under the patched one."""
        path = tmp_path / "table1.json"
        path.write_text(json.dumps(game_to_json_dict(table1)))
        monkeypatch.setattr(optimize, "NM_MAX_ITER", 5)
        code, report = run_cli(capsys, "optimize", "--restarts", "1", "--game", str(path))
        assert code == 0 and report["results"]["optimum"]["converged"] is True
        assert report["results"]["optimum"]["value"] == fmt_real(ANALYTIC_OPTIMUM)
        monkeypatch.setattr(optimize, "_newton", lambda rows, x0: None)
        code, report = run_cli(capsys, "optimize", "--restarts", "1", "--game", str(path))
        assert code == EXIT_NO_CONVERGENCE == 3
        assert report["results"]["optimum"]["converged"] is False

    @pytest.mark.parametrize("game", ["table1", "affine_game"])
    def test_every_seed_reports_one_optimum(self, capsys, tmp_path, request, game):
        """Seeds 0-7 print the same results.optimum, byte for byte: the
        Newton finish leaves no trace of the seed's path."""
        path = tmp_path / "game.json"
        path.write_text(json.dumps(game_to_json_dict(request.getfixturevalue(game))))
        printed = set()
        for seed in range(8):
            code, report = run_cli(capsys, "optimize", "--game", str(path), "--seed", str(seed))
            assert code == 0
            printed.add(json.dumps(report["results"]["optimum"]))
        assert len(printed) == 1

    @pytest.mark.parametrize("exponent", [-6, 0, 6, 12, 20])
    def test_the_exit_code_has_no_unit(self, capsys, tmp_path, table1, exponent):
        """table1 with every utility times 10**e: at seeds 0-3 optimize
        exits 0, and value / 10**e is table1's within 1e-15 relative."""
        unit = Fraction(10) ** exponent
        game = GameDefinition(affine_transform(table1.utilities, unit, 0), table1.prior)
        path = tmp_path / "game.json"
        path.write_text(json.dumps(game_to_json_dict(game)))
        reference = optimize.maximize_planar(table1).value
        for seed in range(4):
            code, _ = run_cli(capsys, "optimize", "--game", str(path), "--seed", str(seed))
            assert code == 0
            value = optimize.maximize_planar(
                game, optimize.OptimizationConfig(seed=seed)
            ).value
            assert abs(value / float(unit) - reference) <= 1e-15 * reference


class TestCheckCommand:
    def test_reference_optimum_certified(self, capsys, optimum_setting_file):
        code, report = run_cli(
            capsys,
            "check", "--setting", optimum_setting_file, "--restarts", "2",
        )
        assert code == 0
        results = report["results"]
        assert results["planar"] is True
        for v in results["payoffs"].values():
            assert v == pytest.approx(0.842, abs=1e-3)
        assert results["row_sum_max_error"] < 1e-12
        assert results["no_signalling_max_residual"] < 1e-12
        assert results["best_response"]["certified_equilibrium"] is True
        assert results["best_response"]["mode"] == "planar"

    def test_all_z_setting_equals_two_point_mixture(self, capsys, tmp_path, table1):
        doc = {}
        for name in "ABC":
            for t in (0, 1):
                doc[f"theta_{name}{t}"] = 0.0
                doc[f"phi_{name}{t}"] = 0.0
        path = tmp_path / "allz.json"
        path.write_text(json.dumps(doc))
        code, report = run_cli(
            capsys,
            "check", "--setting", str(path), "--restarts", "2",
        )
        assert code == 0
        results = report["results"]
        assert results["planar"] is False
        mixture = hv_model_to_distribution(
            HiddenVariableModel.from_profiles(
                [
                    (F(1, 2), ((0, 0), (0, 0), (0, 0))),
                    (F(1, 2), ((1, 1), (1, 1), (1, 1))),
                ]
            )
        )
        classical = expected_payoffs(table1.utilities, table1.prior, mixture)
        for key, value in zip("ABC", classical):
            assert results["payoffs"][key] == pytest.approx(float(value), abs=1e-9)

    def test_tilted_setting_reports_three_payoffs(self, capsys, tilted_setting_file):
        code, report = run_cli(
            capsys,
            "check", "--setting", tilted_setting_file, "--restarts", "2",
        )
        assert code == 0
        results = report["results"]
        assert results["planar"] is False
        assert set(results["payoffs"]) == {"A", "B", "C"}
        for v in results["payoffs"].values():
            assert isinstance(v, float)

    @pytest.mark.parametrize("mode", ["planar", "full"])
    def test_optimizer_flags_leave_results_unchanged(self, capsys, tilted_setting_file, mode):
        argv = ["check", "--setting", tilted_setting_file, "--mode", mode]
        _, plain = run_cli(capsys, *argv)
        _, flagged = run_cli(capsys, *argv, "--restarts", "1", "--seed", "5")
        assert json.dumps(flagged["results"]) == json.dumps(plain["results"])

    def test_malformed_setting_exits_2(self, capsys, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({"phi_A0": 0.0}))
        code = main(["check", "--setting", str(path)])
        assert code == 2


def too_large(name: str) -> str:
    """The one error line of a game outside the GHZ engine's magnitude rule,
    naming player ``name``."""
    return (
        "error: utilities too large for the GHZ engine: the sum of "
        f"P(x)|u_{name}(x, y)| over x and y is not below 2**500\n"
    )


#: The commands that run the GHZ engine, as argv heads.
GHZ_COMMANDS = [("optimize",), ("check",), ("check", "--mode", "full"), ("bell",)]

#: Games around the magnitude rule, by id, with the first player outside it
#: (None: inside).  "d-digits" is table1 with u_A at x = y = (0, 0, 0) a
#: string of d nines (S_A of about 1.25e150 at 151 digits, 1.25e151 at 152;
#: the limit is 2**500, about 3.27e150).  "nan-row" gives B utilities of
#: 8e308 in contexts x = 0, 1 and -8e308 in x = 2, 3 (finite GHZ weights
#: whose planar constant sums to inf - inf), "nan-every-row" gives them to
#: every player.  "inside-P"/"at-P" is table1 with the players P scaled to
#: S = 2**500 - 1 and S = 2**500 exactly.
MAGNITUDE_GAMES = {
    "151-digits": None, "152-digits": "A", "160-digits": "A", "310-digits": "A",
    "401-digits": "A", "nan-row": "B", "nan-every-row": "A",
    "inside-A": None, "inside-ABC": None, "at-A": "A", "at-B": "B", "at-ABC": "A",
}


def magnitude_game(table1: GameDefinition, game_id: str) -> GameDefinition:
    """The game of MAGNITUDE_GAMES named ``game_id``."""
    kind, _, arg = game_id.partition("-")
    if kind in ("inside", "at"):
        limit = MAGNITUDE_LIMIT - (kind == "inside")
        return scaled_to_magnitude(table1, [Player[p] for p in arg], limit)
    doc = game_to_json_dict(table1)
    if kind == "nan":
        big = "8" + "0" * 308
        for name in "B" if arg == "row" else "ABC":
            for xi, value in enumerate([big, big, "-" + big, "-" + big] + ["0"] * 4):
                doc["utilities"][name][xi] = [value] * 8
    else:
        doc["utilities"]["A"][0][0] = "9" * int(kind)
    return game_from_json_dict(doc)


class TestBadNumbers:
    @pytest.mark.parametrize(
        "argv",
        [
            ["audit-bound", "--samples", "-5"],
            ["optimize", "--restarts", "0"],
            # check runs no search, but rejects what optimize rejects
            ["check", "--setting", "{setting}", "--restarts", "0"],
            ["check", "--setting", "{setting}", "--seed", "-1"],
            ["optimize", "--seed", "-1"],
            ["check", "--setting", "{nan_angle}"],
            ["bell", "--setting", "{string_angles}"],
            # the limit that keeps the random starts small
            ["check", "--setting", "{setting}", "--restarts", "10001"],
            ["optimize", "--restarts", "10001"],
            ["check", "--setting", "{string_angles}"],
            # random.Random(-1) would draw the samples of seed 1
            ["audit-bound", "--seed", "-1"],
            # the limit that keeps an audit near 3 s
            ["audit-bound", "--samples", "1000001"],
        ],
    )
    def test_exits_2(self, capsys, tmp_path, optimum_setting_file, argv):
        doc = json.loads(Path(optimum_setting_file).read_text())
        string_angles = tmp_path / "strings.json"
        string_angles.write_text(json.dumps({**doc, "phi_A0": "1e0", "phi_A1": True}))
        nan_angle = tmp_path / "nan.json"
        nan_angle.write_text(json.dumps({**doc, "phi_A0": float("nan")}))  # as NaN
        files = {
            "setting": optimum_setting_file,
            "string_angles": str(string_angles),
            "nan_angle": str(nan_angle),
        }
        code = main([arg.format(**files) for arg in argv])
        assert code == 2
        assert capsys.readouterr().out == ""

    @pytest.mark.parametrize(
        ("argv", "flag"),
        [
            (["optimize", "--grid", "16"], "--grid 16"),
            (["optimize", "--tol", "1e-10"], "--tol 1e-10"),
            (["check", "--setting", "{setting}", "--grid", "8"], "--grid 8"),
        ],
    )
    def test_removed_search_flags_exit_2(self, capsys, optimum_setting_file, argv, flag):
        """The grid and the value tolerance of the search are fixed: --grid
        and --tol are unknown arguments, a usage error."""
        with pytest.raises(SystemExit) as exit_info:
            main([arg.format(setting=optimum_setting_file) for arg in argv])
        captured = capsys.readouterr()
        assert exit_info.value.code == 2
        assert captured.out == ""
        assert f"unrecognized arguments: {flag}" in captured.err

    @pytest.mark.parametrize("digits", [401, 5001])
    def test_long_integer_angle_exits_2(self, capsys, tmp_path, optimum_setting_file, digits):
        """401 digits overflow a float; 5001 pass Python's int-string limit."""
        doc = json.loads(Path(optimum_setting_file).read_text())
        doc["phi_A0"] = "BIG"
        path = tmp_path / "big.json"
        path.write_text(json.dumps(doc).replace('"BIG"', "9" * digits))
        code = main(["bell", "--setting", str(path)])
        captured = capsys.readouterr()
        assert code == 2
        assert captured.out == ""
        assert str(path) in captured.err
        if digits == 401:
            assert "phi_A0" in captured.err

    @pytest.mark.parametrize("command", ["bell", "check"])
    def test_angles_beyond_the_format_range_exit_2(
        self, capsys, tmp_path, optimum_setting_file, command
    ):
        """Two azimuths of 1e308 sum to inf in the triple correlator, whose
        sine is NaN.  The loader refuses the angle and names it; the
        utilities, which bell does not read, are not blamed."""
        doc = {**json.loads(Path(optimum_setting_file).read_text()), **LARGE_ANGLES}
        path = tmp_path / "large.json"
        path.write_text(json.dumps(doc))
        code = main([command, "--setting", str(path)])
        captured = capsys.readouterr()
        assert (code, captured.out) == (2, "")
        assert "phi_A0: angle must lie strictly within +-2**1022" in captured.err
        assert "utilities" not in captured.err

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    @pytest.mark.parametrize(
        "edge", [math.nextafter(2.0**1022, 0), 2**1022 - 1], ids=["float", "int"]
    )
    def test_three_azimuths_at_the_edge_of_the_range_give_a_report(
        self, capsys, tmp_path, edge
    ):
        """The largest angles the format admits, one per player in every
        context (an integer one rounds up to 2.0**1022), sum to a finite
        float: bell reports finite values."""
        doc = {key: (edge if key.endswith("0") else -edge) for key in PLANAR_KEYS}
        path = tmp_path / "edge.json"
        path.write_text(json.dumps(doc))
        code, report = run_cli(capsys, "bell", "--setting", str(path))
        assert code == 0
        assert all(math.isfinite(v) for v in report["results"]["values"].values())

    def test_long_integer_in_game_exits_2(self, capsys, tmp_path, table1):
        doc = game_to_json_dict(table1)
        doc["utilities"]["A"][0][0] = "BIG"
        path = tmp_path / "big.json"
        path.write_text(json.dumps(doc).replace('"BIG"', "9" * 5001))
        code = main(["equilibria", "--game", str(path)])
        captured = capsys.readouterr()
        assert code == 2
        assert captured.out == ""
        assert str(path) in captured.err

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    @pytest.mark.parametrize("command", GHZ_COMMANDS, ids=" ".join)
    @pytest.mark.parametrize(
        ("game_id", "outside"), MAGNITUDE_GAMES.items(), ids=list(MAGNITUDE_GAMES)
    )
    def test_one_magnitude_rule_for_every_ghz_command(
        self, capsys, tmp_path, table1, optimum_setting_file, command, game_id, outside
    ):
        """A game inside the GHZ engine's magnitude rule gives a finite
        report from every command that runs the engine; one outside it
        exits 2 from each of them with the one message, naming the first
        player outside, and no report.  Neither prints a traceback, a numpy
        warning or a report holding Infinity or NaN.  bell --setting reads
        no utilities and reports on every game.  optimize may fail to
        converge on large utilities (exit 3), but never exits 2 inside the
        rule."""
        path = tmp_path / "game.json"
        path.write_text(json.dumps(game_to_json_dict(magnitude_game(table1, game_id))))
        argv = [command[0], "--game", str(path), *command[1:]]
        if command[0] == "optimize":
            argv += ["--restarts", "1"]
        else:
            argv += ["--setting", optimum_setting_file]
        code = main(argv)
        captured = capsys.readouterr()
        if outside is None or command[0] == "bell":
            assert code in ((0, 3) if command[0] == "optimize" else (0,))
            json.loads(captured.out, parse_constant=pytest.fail)
        else:
            assert (code, captured.out) == (2, "")
            assert captured.err.endswith(too_large(outside))

    @pytest.mark.parametrize("option", ["--game", "--setting"])
    def test_non_utf8_file_exits_2(self, capsys, tmp_path, option):
        path = tmp_path / "latin1.json"
        path.write_bytes(b'{"phi_A0": "\xe9"}')
        code = main(["bell", option, str(path)])
        assert code == 2
        assert capsys.readouterr().out == ""

    @pytest.mark.parametrize(
        "argv", [["equilibria", "--game"], ["bell", "--setting"]], ids=" ".join
    )
    def test_deeply_nested_file_exits_2(self, capsys, tmp_path, argv):
        """JSON nested deeper than the recursion limit is an unreadable file
        that the error names, not a RecursionError."""
        path = tmp_path / "deep.json"
        path.write_text("[" * 100000 + "]" * 100000)
        code = main([*argv, str(path)])
        captured = capsys.readouterr()
        assert (code, captured.out) == (2, "")
        assert str(path) in captured.err
        assert "Traceback" not in captured.err


class TestEntryPoint:
    def test_module_invocation(self):
        proc = subprocess.run(
            [sys.executable, "-m", "bellgame.cli", "--version"],
            capture_output=True,
            text=True,
        )
        assert proc.returncode == 0
        assert __version__ in proc.stdout

    def test_starts_without_scipy(self):
        code = (
            "import sys, bellgame, bellgame.cli\n"
            "bellgame.cli._resolve_game('builtin:table1')\n"
            "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))\n"
        )
        proc = subprocess.run(
            [sys.executable, "-c", code], capture_output=True, text=True, check=True
        )
        assert proc.stdout == "[]\n"

    def test_classical_commands_run_without_numpy(self):
        code = (
            "import io, sys\n"
            "from contextlib import redirect_stdout\n"
            "from bellgame.cli import main\n"
            "with redirect_stdout(io.StringIO()):\n"
            "    codes = [main([c]) for c in ('equilibria', 'audit-bound', 'bell')]\n"
            "print(codes, 'numpy' in sys.modules)\n"
        )
        proc = subprocess.run(
            [sys.executable, "-c", code], capture_output=True, text=True, check=True
        )
        assert proc.stdout == "[0, 0, 0] False\n"

    def test_only_the_seeded_commands_load_random(self):
        """Of the classical commands only audit-bound loads random, and
        optimize loads it for its random starts.  The interpreter starts
        with -S, since ``site`` may import random itself (through a .pth
        file); the code puts src first on sys.path, and numpy's directory
        after it."""
        import numpy

        code = (
            "import sys\n"
            "sys.path[:0] = sys.argv[1:3]\n"
            "import io\n"
            "from contextlib import redirect_stdout\n"
            "from bellgame.cli import main\n"
            "loaded = []\n"
            "with redirect_stdout(io.StringIO()):\n"
            "    for c in ('equilibria', 'bell', 'audit-bound', 'optimize'):\n"
            "        main([c])\n"
            "        loaded.append('random' in sys.modules)\n"
            "print(loaded)\n"
        )
        src = str(Path(cli.__file__).resolve().parents[1])
        site_dir = str(Path(numpy.__file__).resolve().parents[1])
        proc = subprocess.run(
            [sys.executable, "-S", "-c", code, src, site_dir],
            capture_output=True, text=True, check=True,
        )
        assert proc.stdout == "[False, False, True, True]\n"

    def test_digests_fall_back_to_hashlib(self, reference_angles):
        """With neither built-in sha256 module importable, game.sha256 is
        hashlib's, and the game and setting digests are the same."""
        code = (
            "import json, sys\n"
            "if sys.argv[1] == 'fallback':\n"
            "    sys.modules['_sha2'] = sys.modules['_sha256'] = None\n"
            "from bellgame import cli, game\n"
            "from bellgame.builtin import builtin_game\n"
            "from bellgame.quantum import MeasurementSetting\n"
            "setting = MeasurementSetting.planar(json.loads(sys.argv[2]))\n"
            "print(json.dumps([game.sha256.__module__, builtin_game().digest,\n"
            "                  cli._setting_digest(setting)]))\n"
        )
        angles = json.dumps(reference_angles.tolist())
        (lean_module, *lean), (fallback_module, *fallback) = (
            json.loads(subprocess.run(
                [sys.executable, "-c", code, path, angles],
                capture_output=True, text=True, check=True,
            ).stdout)
            for path in ("lean", "fallback")
        )
        assert lean_module in ("_sha2", "_sha256")
        assert fallback_module not in ("_sha2", "_sha256")
        setting = MeasurementSetting.planar(reference_angles)
        assert fallback == lean == [builtin_game().digest, cli._setting_digest(setting)]

    @pytest.mark.parametrize(
        "commands, unused",
        [
            pytest.param(
                [["equilibria"], ["bell"]],
                [
                    "dataclasses", "hashlib", "importlib.resources", "inspect",
                    "pathlib", "random",
                ],
                id="classical",
            ),
            pytest.param(
                [["audit-bound"]],
                ["dataclasses", "hashlib", "importlib.resources", "inspect", "pathlib"],
                id="audit",
            ),
            # numpy imports inspect itself, and optimize random for its starts
            pytest.param(
                [["optimize", "--restarts", "1"], ["check", "--setting", "SETTING"]],
                ["dataclasses", "hashlib", "numpy.random", "secrets"],
                id="ghz",
            ),
            pytest.param(
                [["check", "--setting", "SETTING"], ["bell", "--setting", "SETTING"]],
                ["dataclasses", "hashlib", "random"],
                id="setting",
            ),
        ],
    )
    def test_commands_import_no_module_they_do_not_use(
        self, optimum_setting_file, commands, unused
    ):
        """None of the modules in ``unused`` is imported by the commands.
        The interpreter starts with -S: ``site`` may import pathlib and
        importlib.resources itself (through a .pth file), which would hide
        the program's imports.  The code puts src first on sys.path, and
        numpy's directory after it, without running its .pth files."""
        import numpy

        code = (
            "import sys\n"
            "before = set(sys.modules)\n"
            "import io, json\n"
            "from contextlib import redirect_stdout\n"
            "sys.path[:0] = sys.argv[1:3]\n"
            "from bellgame.cli import main\n"
            "with redirect_stdout(io.StringIO()):\n"
            "    codes = [main(argv) for argv in json.loads(sys.argv[3])]\n"
            "print(json.dumps([codes, sorted(set(sys.modules) - before)]))\n"
        )
        argvs = [[optimum_setting_file if a == "SETTING" else a for a in c] for c in commands]
        src = str(Path(cli.__file__).resolve().parents[1])
        site_dir = str(Path(numpy.__file__).resolve().parents[1])
        proc = subprocess.run(
            [sys.executable, "-S", "-c", code, src, site_dir, json.dumps(argvs)],
            capture_output=True, text=True, check=True,
        )
        codes, imported = json.loads(proc.stdout)
        assert codes == [0] * len(commands)
        assert [name for name in unused if name in imported] == []


DOCS = Path(__file__).resolve().parent.parent / "docs"

#: Two azimuths whose sum overflows to inf, so that the sine of the triple
#: correlator would be NaN: outside the setting format's angle range.
LARGE_ANGLES = {"phi_A0": 1e308, "phi_B0": 1e308}

#: Inputs that exit 2: (id, the schema of the document, an edit that makes
#: the document from table1's, a fragment of the error).  Each edit's
#: document breaks its schema; ``builtin:nope`` names no document.
REJECTED = [
    ("not-an-object", "game", lambda d: [d], "must be a JSON object"),
    ("extra-key", "game", lambda d: {**d, "comment": "x"}, "unexpected keys ['comment']"),
    (
        "extra-table",
        "game",
        lambda d: {**d, "utilities": {**d["utilities"], "D": d["utilities"]["A"]}},
        "utilities: unexpected keys ['D']",
    ),
    ("players", "game", lambda d: {**d, "players": ["A", "B"]}, "players"),
    (
        "prior-not-an-object",
        "game",
        lambda d: {**d, "prior": list(d["prior"].values())},
        "prior: missing or not an object",
    ),
    (
        "prior-key",
        "game",
        lambda d: {**d, "prior": {**d["prior"], "0 0 2": "0"}},
        "prior: unexpected keys ['0 0 2']",
    ),
    (
        "utilities-not-an-object",
        "game",
        lambda d: {**d, "utilities": list(d["utilities"].values())},
        "utilities: missing or not an object",
    ),
    (
        "row-count",
        "game",
        lambda d: {**d, "utilities": {**d["utilities"], "B": d["utilities"]["B"][:7]}},
        "utilities['B']: expected 8 rows",
    ),
    (
        "entry-count",
        "game",
        lambda d: {
            **d, "utilities": {**d["utilities"], "C": [r + ["0"] for r in d["utilities"]["C"]]}
        },
        "utilities['C'][0]: expected 8 entries",
    ),
    ("setting-array", "setting", lambda d: [0.0] * 6, "setting document must be a JSON object"),
    (
        "setting-angle-range",
        "setting",
        lambda d: {**LARGE_ANGLES, "phi_A1": 0.0, "phi_B1": 0.0, "phi_C0": 0.0, "phi_C1": 0.0},
        "phi_A0: angle must lie strictly within +-2**1022",
    ),
    ("unknown-builtin", None, None, "unknown builtin game 'nope'"),
]


class TestSchemas:
    def test_bundled_game_matches_schema(self):
        jsonschema = pytest.importorskip("jsonschema")
        from importlib import resources

        schema = json.loads((DOCS / "game.schema.json").read_text())
        doc = json.loads(
            resources.files("bellgame").joinpath("data/table1.json").read_text()
        )
        jsonschema.validate(doc, schema)

    def test_setting_documents_match_schema(self, reference_angles):
        jsonschema = pytest.importorskip("jsonschema")

        schema = json.loads((DOCS / "setting.schema.json").read_text())
        full = setting_to_json_dict(
            MeasurementSetting(
                [[0.1, 0.3], [0.5, 0.7], [0.9, 1.1]], [[0.2, 0.4], [0.6, 0.8], [1.0, 1.2]]
            )
        )
        jsonschema.validate(full, schema)
        planar = {
            f"phi_{name}{t}": 0.5 for name in "ABC" for t in (0, 1)
        }
        jsonschema.validate(planar, schema)
        with pytest.raises(jsonschema.ValidationError):
            jsonschema.validate({"phi_A0": 0.5}, schema)

    def test_the_setting_schema_states_the_loaders_angle_range(self):
        """One range for every angle: the schema's $defs entry, which every
        angle key refers to, bounds it by the loader's ANGLE_LIMIT."""
        schema = json.loads((DOCS / "setting.schema.json").read_text())
        angle = schema["$defs"]["angle"]
        assert (angle["exclusiveMinimum"], angle["exclusiveMaximum"]) == (
            -ANGLE_LIMIT, ANGLE_LIMIT,
        )
        for branch in schema["oneOf"]:
            assert all(
                v == {"$ref": "#/$defs/angle"} for v in branch["properties"].values()
            )

    @pytest.mark.parametrize(
        "schema_name, edit, named", [pytest.param(*case[1:], id=case[0]) for case in REJECTED]
    )
    def test_the_loaders_reject_what_the_schemas_reject(
        self, capsys, tmp_path, schema_name, edit, named
    ):
        """Each input exits 2 with nothing on stdout and an error that names
        what is wrong, and jsonschema rejects the same document."""
        doc = None if edit is None else edit(game_to_json_dict(builtin_game()))
        path = tmp_path / "doc.json"
        path.write_text(json.dumps(doc))
        argv = {
            "game": ["equilibria", "--game", str(path)],
            "setting": ["bell", "--setting", str(path)],
            None: ["equilibria", "--game", "builtin:nope"],
        }[schema_name]
        code = main(argv)
        captured = capsys.readouterr()
        assert (code, captured.out) == (2, "")
        assert named in captured.err
        if schema_name is not None:
            jsonschema = pytest.importorskip("jsonschema")
            schema = json.loads((DOCS / f"{schema_name}.schema.json").read_text())
            assert not jsonschema.Draft202012Validator(schema).is_valid(doc)
