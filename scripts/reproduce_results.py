#!/usr/bin/env python3
"""End-to-end reproduction run: classical equilibria, the total-payoff
bound, the quantum optimum and the advantage summary, printed as text.

Usage: python scripts/reproduce_results.py [--samples N] [--seed N]
"""

import argparse
import math
from fractions import Fraction

from bellgame.builtin import builtin_game
from bellgame.classical import (
    BellVariant,
    classical_bound_audit,
    deterministic_bell_extremes,
    enumerate_deterministic_equilibria,
)
from bellgame.optimize import (
    OptimizationConfig,
    best_response_check,
    quantum_advantage_report,
)
from bellgame.quantum import MeasurementSetting


def frac(v: Fraction) -> str:
    return f"{v.numerator}/{v.denominator}"


def main(argv: list[str] | None = None) -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--samples", type=int, default=1000)
    parser.add_argument("--seed", type=int, default=0)
    args = parser.parse_args(argv)

    game = builtin_game()

    print("== deterministic Nash equilibria ==")
    reports = enumerate_deterministic_equilibria(game.utilities, game.prior)
    for r in reports:
        tag = "fair" if r.fair else "unfair"
        sat = "saturates 9/4" if r.saturates_bound else ""
        payoffs = ", ".join(frac(v) for v in r.payoffs)
        print(f"  A={r.profile[0]} B={r.profile[1]} C={r.profile[2]}  "
              f"({payoffs})  {tag} {sat}")
    print(f"  total: {len(reports)} equilibria, "
          f"{sum(r.fair for r in reports)} fair")

    print("\n== classical bound audit ==")
    audit = classical_bound_audit(
        game.utilities, game.prior, samples=args.samples, seed=args.seed
    )
    print(f"  max total over 64 deterministic profiles: "
          f"{frac(audit.deterministic_max)} "
          f"({len(audit.attaining_profiles)} profiles attain it)")
    print(f"  max total over {audit.samples} random mixtures: "
          f"{frac(audit.sample_max)} (within bound: {audit.samples_within_bound})")
    print(f"  fair cap: {frac(audit.fair_cap)}; "
          f"max min-payoff audited: {frac(audit.max_min_payoff)}")
    extremes = deterministic_bell_extremes()
    for variant in BellVariant:
        lo, hi = extremes[variant]
        print(f"  Bell {variant.name} over deterministic profiles: "
              f"[{frac(lo)}, {frac(hi)}]")

    print("\n== quantum optimum (GHZ advisor, planar measurements) ==")
    config = OptimizationConfig(seed=args.seed)
    summary = quantum_advantage_report(game, config)
    opt = summary.optimum
    angles = ", ".join(f"{v:+.6f}" for v in opt.angles)
    print(f"  canonical angles: ({angles})")
    print(f"  common payoff: {opt.value:.9f}  "
          f"(analytic (13+2*sqrt(13))/24 = {(13 + 2 * math.sqrt(13)) / 24:.9f})")
    print(f"  Bell values: V011 = {opt.bell_values[0]:+.6f}, "
          f"V100 = {opt.bell_values[1]:+.6f}")
    print(f"  classical fair cap: {frac(summary.classical_fair_cap)}; "
          f"advantage: {summary.advantage:.6f}")
    print(f"  quantum total {summary.quantum_total:.6f} "
          f"vs classical bound {frac(summary.classical_total_bound)}")

    print("\n== equilibrium certification at the optimum ==")
    verdict = best_response_check(MeasurementSetting.planar(opt.angles), mode="planar")
    for r in verdict.responses:
        print(f"  player {r.player.name}: best unilateral improvement "
              f"{r.improvement:+.3e}")
    print(f"  certified equilibrium (threshold {verdict.threshold}): "
          f"{verdict.is_equilibrium}")


if __name__ == "__main__":
    main()
