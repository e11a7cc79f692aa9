#!/usr/bin/env python3
"""End-to-end reproduction run: classical equilibria, the total-payoff
bound, the quantum optimum and the advantage summary, printed as text.

Usage: python scripts/reproduce_results.py [--samples N] [--seed N]
"""

import argparse
import math

from bellgame.builtin import builtin_game
from bellgame.classical import (
    AUDIT_MAX_SAMPLES,
    BellVariant,
    classical_bound_audit,
    deterministic_bell_extremes,
    enumerate_deterministic_equilibria,
)
from bellgame.game import format_rational
from bellgame.optimize import (
    OptimizationConfig,
    best_response_check,
    quantum_advantage_report,
)
from bellgame.quantum import ghz_bell


def main(argv: list[str] | None = None) -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--samples", type=int, default=1000)
    parser.add_argument("--seed", type=int, default=0)
    args = parser.parse_args(argv)
    if not 0 <= args.samples <= AUDIT_MAX_SAMPLES:
        parser.error(f"--samples must be between 0 and {AUDIT_MAX_SAMPLES}")
    if args.seed < 0:
        parser.error("--seed must be non-negative")

    game = builtin_game()
    profiles = game.profile_table

    print("== deterministic Nash equilibria ==")
    reports = enumerate_deterministic_equilibria(profiles)
    for r in reports:
        tag = "fair" if r.fair else "unfair"
        sat = "saturates 9/4" if r.saturates_bound else ""
        payoffs = ", ".join(format_rational(v) for v in r.payoffs)
        print(f"  A={r.profile[0]} B={r.profile[1]} C={r.profile[2]}  "
              f"({payoffs})  {tag} {sat}")
    print(f"  total: {len(reports)} equilibria, "
          f"{sum(r.fair for r in reports)} fair")

    print("\n== classical bound audit ==")
    audit = classical_bound_audit(profiles, samples=args.samples, seed=args.seed)
    print(f"  max total over 64 deterministic profiles: "
          f"{format_rational(audit.deterministic_max)} "
          f"({len(audit.attaining_profiles)} profiles attain it)")
    sample_max = "none" if audit.sample_max is None else format_rational(audit.sample_max)
    print(f"  max total over {audit.samples} random mixtures: "
          f"{sample_max} (within bound: {audit.samples_within_bound})")
    print(f"  fair cap: {format_rational(audit.fair_cap)}; "
          f"max min-payoff audited: {format_rational(audit.max_min_payoff)}")
    extremes = deterministic_bell_extremes()
    for variant in BellVariant:
        lo, hi = extremes[variant]
        print(f"  Bell {variant.name} over deterministic profiles: "
              f"[{format_rational(lo)}, {format_rational(hi)}]")

    print("\n== quantum optimum (GHZ advisor, planar measurements) ==")
    config = OptimizationConfig(seed=args.seed)
    summary = quantum_advantage_report(game, config)
    opt = summary.optimum
    angles = ", ".join(f"{v:+.6f}" for v in opt.setting.phi.flat)
    print(f"  canonical angles: ({angles})")
    print(f"  common payoff: {opt.value:.9f}  "
          f"(analytic (13+2*sqrt(13))/24 = {(13 + 2 * math.sqrt(13)) / 24:.9f})")
    print("  Bell values: " + ", ".join(
        f"{v.name} = {value:+.6f}"
        for v, value in ghz_bell(opt.setting.ghz_features).items()
    ))
    print(f"  classical fair cap: {format_rational(summary.classical_fair_cap)}; "
          f"advantage: {summary.advantage:.6f}")
    print(f"  quantum total {summary.quantum_total:.6f} "
          f"vs classical bound {format_rational(summary.classical_total_bound)}")

    print("\n== equilibrium certification at the optimum ==")
    verdict = best_response_check(game, opt.setting, "planar")
    for r in verdict.responses:
        print(f"  player {r.player.name}: best unilateral improvement "
              f"{r.improvement:+.3e}")
    print(f"  certified equilibrium (threshold {verdict.threshold}): "
          f"{verdict.is_equilibrium}")


if __name__ == "__main__":
    main()
