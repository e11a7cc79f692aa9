"""Command-line entry point emitting reproducible JSON reports.

Subcommands: equilibria, audit-bound, bell, optimize, check.  Games are
addressed as ``builtin:table1`` or a path to a game-definition file.  Each
``cmd_*`` maps the parsed arguments and the game to (exit code, ``results``,
the setting it read or None); ``main`` alone resolves the game, times the
run, builds ``inputs`` (``game_digest``, plus ``setting_digest`` when a
setting was read) and writes the report: command, inputs, engine version,
wall time and ``results``, which are deterministic for fixed inputs and seed.
Three things outlive a call, and no result depends on any of them: the
argument parser, built once per process; each bundled game, loaded once per
process by builtin_game together with what the game object derives on
first use (see game.GameDefinition): its digest, profile table and GHZ
weights, and the runs of ``optimize``'s grid starts (see
optimize.PlanarSearch); and the Bell extremes of the 64 deterministic
profiles, scanned once per process by classical._bell_extremes, the cache
behind deterministic_bell_extremes.  A game file is read into a new object
on each call.  Callers that run many commands in one process (the tests, a
benchmark) may call ``main`` again and again.  In tests/test_cli.py,
``TestRepeatedCalls.test_results_do_not_depend_on_the_process`` checks that
every command reports the same in one process as in fresh ones, under other
hash seeds.

Start-up imports the exact engine (game, classical, builtin) and the
standard modules every command uses: argparse, json and fractions.  It
imports none of dataclasses, inspect, pathlib and importlib.resources: the
value types are NamedTuples and game.Frozen classes, and files are opened
with open().  Nor does it import hashlib, whose OpenSSL binding costs more
to load than the digests it would serve: game.sha256 is CPython's built-in
sha256, with hashlib's only as a fallback.  Each other engine loads with the
first command that runs it: the GHZ engine and numpy with ``bell
--setting``, ``optimize`` and ``check``, and the random module with
``audit-bound`` and ``optimize``, the two commands that draw seeded points.
No command loads numpy.random.  ``equilibria`` and ``bell`` without a
setting run on the exact engine alone.

Exit codes: 0 success, 2 validation failure (also when ``optimize`` or
``check`` reads a game outside the GHZ engine's magnitude rule,
quantum.MAGNITUDE_LIMIT), 3 non-convergence (``optimize``'s optimum failed
the KKT test, and the tight polish that replaced it ran out of
iterations; see optimize.PlanarSearch.refine), 4 I/O.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from fractions import Fraction
from functools import cache, reduce
from operator import add
from typing import TYPE_CHECKING

from . import __version__
from .builtin import builtin_game
from .classical import (
    BellVariant,
    classical_bound_audit,
    deterministic_bell_extremes,
    enumerate_deterministic_equilibria,
)
from .game import (
    ConditionalDistribution,
    GameDefinition,
    PayoffTriple,
    ValidationError,
    check_player_symmetry,
    check_prior_symmetry,
    format_rational,
    load_game,
    no_signalling_residual,
    sha256,
)

if TYPE_CHECKING:
    from .optimize import OptimizationConfig
    from .quantum import MeasurementSetting

EXIT_OK = 0
EXIT_VALIDATION = 2
EXIT_NO_CONVERGENCE = 3
EXIT_IO = 4


def fmt_real(x: float) -> float:
    """Round a float through 12 significant digits for stable reports."""
    return float(f"{float(x):.12g}")


def fmt_payoffs(payoffs: PayoffTriple) -> dict:
    out = {}
    for name, v in zip("ABC", payoffs):
        out[name] = format_rational(v) if isinstance(v, Fraction) else fmt_real(v)
    return out


def fmt_profile(profile) -> dict:
    return {name: list(strategy) for name, strategy in zip("ABC", profile)}


def fmt_setting(setting: MeasurementSetting) -> dict:
    from .quantum import setting_to_json_dict

    return {k: fmt_real(v) for k, v in setting_to_json_dict(setting).items()}


def fmt_bell_extremes(extremes: dict[BellVariant, tuple[Fraction, Fraction]]) -> dict:
    return {
        variant.name: {"min": format_rational(lo), "max": format_rational(hi)}
        for variant, (lo, hi) in extremes.items()
    }


def fmt_ghz_bell(setting: MeasurementSetting) -> dict:
    from .quantum import ghz_bell

    return {
        variant.name: fmt_real(value)
        for variant, value in ghz_bell(setting.ghz_features).items()
    }


def _resolve_game(selector: str) -> GameDefinition:
    if selector.startswith("builtin:"):
        return builtin_game(selector.split(":", 1)[1])
    game = load_game(selector)
    violations = check_player_symmetry(game.utilities)
    if violations:
        v = violations[0]
        print(
            f"warning: {selector}: utilities are not player-symmetric "
            f"({len(violations)} relations fail; first: swap "
            f"{v.swap[0].name}{v.swap[1].name} at x={v.x} y={v.y})",
            file=sys.stderr,
        )
    prior_violations = check_prior_symmetry(game.prior)
    if prior_violations:
        (i, j), x = prior_violations[0]
        print(
            f"warning: {selector}: prior is not player-symmetric "
            f"({len(prior_violations)} relations fail; first: swap "
            f"{i.name}{j.name} at x={x})",
            file=sys.stderr,
        )
    return game


def _setting_digest(setting: MeasurementSetting) -> str:
    from .quantum import setting_to_json_dict

    blob = json.dumps(setting_to_json_dict(setting), sort_keys=True)
    return "sha256:" + sha256(blob.encode()).hexdigest()


def _config_from_args(args) -> OptimizationConfig:
    from .optimize import OptimizationConfig

    return OptimizationConfig(restarts=args.restarts, seed=args.seed)


#: (exit code, results, the setting read or None); see the module docstring.
Outcome = tuple[int, dict, "MeasurementSetting | None"]


def cmd_equilibria(args, game: GameDefinition) -> Outcome:
    profiles = game.profile_table
    reports = enumerate_deterministic_equilibria(profiles)
    results = {
        "total_payoff_bound": format_rational(profiles.max_total()),
        "count": len(reports),
        "equilibria": [
            {
                "profile": fmt_profile(r.profile),
                "payoffs": fmt_payoffs(r.payoffs),
                "fair": r.fair,
                "saturates_bound": r.saturates_bound,
            }
            for r in reports
        ],
    }
    return EXIT_OK, results, None


def cmd_audit_bound(args, game: GameDefinition) -> Outcome:
    audit = classical_bound_audit(game.profile_table, args.samples, args.seed)
    results = {
        "deterministic": {
            "max_total": format_rational(audit.deterministic_max),
            "attainer_count": len(audit.attaining_profiles),
            "attainers": [fmt_profile(p) for p in audit.attaining_profiles],
        },
        "samples": {
            "count": audit.samples,
            "seed": audit.seed,
            "max_total": (
                format_rational(audit.sample_max)
                if audit.sample_max is not None
                else None
            ),
            "within_bound": audit.samples_within_bound,
        },
        "fair_cap": format_rational(audit.fair_cap),
        "max_min_payoff": format_rational(audit.max_min_payoff),
        "bell_extremes": fmt_bell_extremes(deterministic_bell_extremes()),
    }
    return EXIT_OK, results, None


def cmd_bell(args, game: GameDefinition) -> Outcome:
    if args.setting is None:
        results = {
            "source": "deterministic-profiles",
            "classical_bound": 2,
            "extremes": fmt_bell_extremes(deterministic_bell_extremes()),
        }
        return EXIT_OK, results, None
    from .quantum import load_setting

    setting = load_setting(args.setting)
    values = fmt_ghz_bell(setting)
    results = {
        "source": "ghz-advisor",
        "setting": fmt_setting(setting),
        "values": values,
        "difference": fmt_real(values["V011"] - values["V100"]),
    }
    return EXIT_OK, results, setting


def cmd_optimize(args, game: GameDefinition) -> Outcome:
    from .optimize import GRID, NM_FATOL, best_response_check, quantum_advantage_report
    from .quantum import PLANAR_KEYS

    config = _config_from_args(args)
    report = quantum_advantage_report(game, config)
    optimum = report.optimum
    certified = {
        mode: best_response_check(game, optimum.setting, mode).is_equilibrium
        for mode in ("planar", "full_sphere")
    }
    results = {
        "optimum": {
            "angles": {
                k: fmt_real(v) for k, v in zip(PLANAR_KEYS, optimum.setting.phi.flat)
            },
            "value": fmt_real(optimum.value),
            "payoffs": fmt_payoffs(optimum.payoffs),
            "bell_values": fmt_ghz_bell(optimum.setting),
            "converged": optimum.converged,
            "certified_equilibrium": certified,
        },
        "advantage": {
            "classical_total_bound": format_rational(report.classical_total_bound),
            "classical_fair_cap": format_rational(report.classical_fair_cap),
            "quantum_value": fmt_real(optimum.value),
            "quantum_total": fmt_real(report.quantum_total),
            "advantage": fmt_real(report.advantage),
            "beats_classical": report.beats_classical,
        },
        "config": {
            "restarts": config.restarts,
            "grid": GRID,
            "tol": NM_FATOL,
            "seed": config.seed,
        },
    }
    code = EXIT_OK if optimum.converged else EXIT_NO_CONVERGENCE
    return code, results, None


def cmd_check(args, game: GameDefinition) -> Outcome:
    from .optimize import best_response_check
    from .quantum import ghz_distribution, load_setting

    setting = load_setting(args.setting)
    # The diagnostics read p(y|x) off the GHZ closed form, the engine that
    # also gives the payoffs and Bell values: all three read the setting's
    # one feature array.
    p = ghz_distribution(setting.ghz_features)
    dist = ConditionalDistribution(tuple(map(tuple, p.tolist())))
    dist.validate()
    # added left to right: sum() of floats is compensated from Python 3.12 on
    row_err = max(abs(reduce(add, row) - 1) for row in dist.rows)
    min_prob = min(v for row in dist.rows for v in row)
    residual = no_signalling_residual(dist)
    mode = "planar" if args.mode == "planar" else "full_sphere"
    # check runs no search and ignores the optimizer flags, but still
    # rejects the values optimize rejects.
    _config_from_args(args)
    verdict = best_response_check(game, setting, mode)
    results = {
        "setting": fmt_setting(setting),
        "planar": setting.is_planar(),
        "payoffs": fmt_payoffs(verdict.baseline),
        "row_sum_max_error": fmt_real(row_err),
        "min_probability": fmt_real(min_prob),
        "no_signalling_max_residual": fmt_real(residual),
        "bell_values": fmt_ghz_bell(setting),
        "best_response": {
            "mode": verdict.mode,
            "baseline": fmt_payoffs(verdict.baseline),
            "improvements": {
                r.player.name: fmt_real(r.improvement) for r in verdict.responses
            },
            "max_improvement": fmt_real(verdict.max_improvement),
            "threshold": verdict.threshold,
            "certified_equilibrium": verdict.is_equilibrium,
        },
    }
    return EXIT_OK, results, setting


@cache
def build_parser() -> argparse.ArgumentParser:
    """The argument parser, built once per process.

    Parsing leaves it unchanged: each ``parse_args`` call returns a fresh
    namespace, so ``main`` stays re-entrant.
    """
    parser = argparse.ArgumentParser(
        prog="bellgame",
        description=(
            "Three-player Bayesian game engine: classical equilibrium "
            "enumeration, Bell-bound audits and GHZ-advisor optimization."
        ),
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p):
        p.add_argument(
            "--game",
            default="builtin:table1",
            help="game file path or builtin:<name> (default builtin:table1)",
        )
        p.add_argument("--out", default="-", help="output path (default stdout)")

    def add_config(p):
        p.add_argument(
            "--restarts", type=int, default=12,
            help="grid starts and random starts to polish, each (1 to 10000; default 12)",
        )
        p.add_argument(
            "--seed", type=int, default=0,
            help="seed of random.Random, which draws the random starts (0 or more; default 0)",
        )

    p = sub.add_parser("equilibria", help="enumerate deterministic Nash equilibria")
    add_common(p)
    p.set_defaults(func=cmd_equilibria)

    p = sub.add_parser(
        "audit-bound", help="verify the classical total-payoff bound"
    )
    add_common(p)
    p.add_argument(
        "--samples", type=int, default=1000,
        help="random mixtures to audit (0 to 1000000; default 1000)",
    )
    p.add_argument(
        "--seed", type=int, default=0,
        help="seed of random.Random, which draws the mixtures (0 or more; default 0)",
    )
    p.set_defaults(func=cmd_audit_bound)

    p = sub.add_parser("bell", help="evaluate the two Bell expressions")
    add_common(p)
    p.add_argument(
        "--setting", default=None, help="measurement-setting JSON (GHZ advisor)"
    )
    p.set_defaults(func=cmd_bell)

    p = sub.add_parser(
        "optimize",
        help="planar GHZ optimum + advantage summary",
        description=(
            "Maximize the least player payoff over planar GHZ settings: a grid "
            "scan and Nelder-Mead polishes find each maximum's basin, and "
            "Newton's method on the KKT system finds the maximum. Exit 3 "
            "(not converged) means the reported optimum failed the KKT test "
            "and the tight polish that replaced it ran out of iterations."
        ),
    )
    add_common(p)
    add_config(p)
    p.set_defaults(func=cmd_optimize)

    p = sub.add_parser("check", help="analyze a measurement setting")
    add_common(p)
    p.add_argument("--setting", required=True, help="measurement-setting JSON")
    p.add_argument("--mode", choices=["planar", "full"], default="planar")
    add_config(
        p.add_argument_group(
            "optimizer flags",
            "optimize's --restarts and --seed, validated as there but unused: "
            "the best responses are exact and involve no search",
        )
    )
    p.set_defaults(func=cmd_check)

    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    started = time.perf_counter()
    try:
        game = _resolve_game(args.game)
        code, results, setting = args.func(args, game)
        inputs = {"game_digest": game.digest}
        if setting is not None:
            inputs["setting_digest"] = _setting_digest(setting)
        report = {
            "command": args.command,
            "inputs": inputs,
            "engine_version": __version__,
            "wall_time_s": round(time.perf_counter() - started, 6),
            "results": results,
        }
        text = json.dumps(report, indent=2, allow_nan=False) + "\n"
        if args.out == "-":
            sys.stdout.write(text)
        else:
            with open(args.out, "w") as f:
                f.write(text)
        return code
    except ValidationError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_VALIDATION
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_IO


if __name__ == "__main__":
    raise SystemExit(main())
