"""Acceptance suite: one test per release criterion, each printing a
PASS/FAIL line (run with ``pytest tests/test_acceptance.py -s``).

Tolerances are pinned here and nowhere else: exact rational comparison on
the classical path, 1e-12 for algebraic identities, 1e-10 for the GHZ
payoff engine versus the trace rule, 1e-12 for the optimizer's value against
the analytic optimum, 1e-6 for best-response improvements, 1e-3 against the
reference four-digit values.
"""

import math
import random
import time
from fractions import Fraction

import numpy as np
import pytest

from bellgame.classical import (
    ALL_PROFILES,
    BellVariant,
    bell_expression,
    classical_bound_audit,
    enumerate_deterministic_equilibria,
    profile_table,
)
from bellgame.game import Player, format_rational, no_signalling_residual
from bellgame.optimize import (
    EQUILIBRIUM_IMPROVEMENT_TOL,
    best_response_check,
    maximize_planar,
)
from bellgame.quantum import (
    PAULI_X,
    PAULI_Y,
    PAULI_Z,
    MeasurementSetting,
    ghz_payoffs,
    ghz_weights,
    quantum_distribution,
    quantum_payoffs,
)
from oracles import (
    affine_transform,
    bell_decomposition,
    deterministic_payoffs,
    gauge_equivalent,
    ghz_single_party_marginal,
    relabelled_copy,
    seeded_relabelling,
    strategy_to_distribution,
)

F = Fraction

KNOWN_EQUILIBRIA = {
    ((0, 1), (0, 0), (0, 0)): (F(5, 8), F(13, 16), F(13, 16)),
    ((0, 0), (0, 1), (0, 0)): (F(13, 16), F(5, 8), F(13, 16)),
    ((0, 0), (0, 0), (0, 1)): (F(13, 16), F(13, 16), F(5, 8)),
    ((1, 0), (0, 1), (0, 1)): (F(11, 8), F(7, 16), F(7, 16)),
    ((0, 1), (1, 0), (0, 1)): (F(7, 16), F(11, 8), F(7, 16)),
    ((0, 1), (0, 1), (1, 0)): (F(7, 16), F(7, 16), F(11, 8)),
    ((0, 1), (1, 1), (1, 1)): (F(3, 4), F(3, 4), F(3, 4)),
    ((1, 1), (0, 1), (1, 1)): (F(3, 4), F(3, 4), F(3, 4)),
    ((1, 1), (1, 1), (0, 1)): (F(3, 4), F(3, 4), F(3, 4)),
}

BOUND = F(9, 4)
ANALYTIC_OPTIMUM = (13 + 2 * math.sqrt(13)) / 24
REFERENCE_ANGLES = np.array([[0.0, -math.pi / 2], [0.0, -math.pi / 2], [2.1588, 0.5880]])
SEED = 0


def report(name: str, ok: bool, detail: str = "") -> None:
    line = f"{'PASS' if ok else 'FAIL'} {name}"
    if detail:
        line += f"  [{detail}]"
    print(line)
    assert ok, line


@pytest.fixture(scope="module")
def optimum(table1):
    return maximize_planar(table1)


def test_criterion_01_known_equilibria_reproduced_exactly(table1):
    started = time.perf_counter()
    profiles = profile_table(table1.utilities, table1.prior)
    reports = enumerate_deterministic_equilibria(profiles)
    elapsed = time.perf_counter() - started
    found = {r.profile: tuple(r.payoffs) for r in reports}
    ok = (
        len(reports) == 9
        and found == KNOWN_EQUILIBRIA
        and sum(r.fair for r in reports) == 3
        and all(r.saturates_bound for r in reports)
        and elapsed < 1.0
    )
    report(
        "criterion 1: nine equilibria with exact payoffs",
        ok,
        f"{len(reports)} equilibria in {elapsed:.3f}s",
    )


def test_criterion_02_classical_total_payoff_bound(table1):
    started = time.perf_counter()
    totals = {
        prof: deterministic_payoffs(table1.utilities, table1.prior, prof).total()
        for prof in ALL_PROFILES
    }
    profiles = profile_table(table1.utilities, table1.prior)
    audit = classical_bound_audit(profiles, samples=1000, seed=SEED)
    elapsed = time.perf_counter() - started
    ok = (
        all(total <= BOUND for total in totals.values())
        and max(totals.values()) == BOUND
        and all(totals[prof] == BOUND for prof in KNOWN_EQUILIBRIA)
        and audit.samples == 1000
        and audit.samples_within_bound
        and audit.sample_max is not None
        and audit.sample_max <= BOUND
        and elapsed < 5.0
    )
    report(
        "criterion 2: total payoff <= 9/4, equality on all nine equilibria",
        ok,
        f"deterministic max {max(totals.values())}, "
        f"sampled max {audit.sample_max} over 1000 mixtures, {elapsed:.2f}s",
    )


def test_criterion_03_bell_bound_classical():
    started = time.perf_counter()
    values = {
        variant: [
            bell_expression(strategy_to_distribution(prof), variant)
            for prof in ALL_PROFILES
        ]
        for variant in BellVariant
    }
    elapsed = time.perf_counter() - started
    ok = all(
        all(abs(v) <= 2 for v in vals) and max(vals) == 2 and min(vals) == -2
        for vals in values.values()
    ) and elapsed < 1.0
    extremes = ", ".join(
        f"{variant.name} [{format_rational(min(v))}, {format_rational(max(v))}]"
        for variant, v in values.items()
    )
    report(
        "criterion 3: |Bell| <= 2 on all 64 profiles, value 2 attained",
        ok,
        f"extremes {extremes}, {elapsed:.3f}s",
    )


def test_criterion_04_quantum_optimum(optimum, table1):
    started = time.perf_counter()
    rerun = maximize_planar(table1)
    elapsed = time.perf_counter() - started
    ok = (
        abs(optimum.value - 0.842) < 1e-3
        and abs(optimum.value - ANALYTIC_OPTIMUM) < 1e-12
        and gauge_equivalent(optimum.setting.phi, REFERENCE_ANGLES, tol=1e-3)
        and optimum.converged
        and rerun == optimum
        and elapsed < 30.0
    )
    report(
        "criterion 4: planar optimum hits the reference value and angles",
        ok,
        f"value {optimum.value:.9f} vs analytic {ANALYTIC_OPTIMUM:.9f}, "
        f"{elapsed:.2f}s",
    )


def test_criterion_05_quantum_beats_classical(optimum):
    ok = optimum.value > 3 / 4 + 0.09 and 3 * optimum.value > 9 / 4
    report(
        "criterion 5: quantum value beats every classical fair equilibrium",
        ok,
        f"value {optimum.value:.6f} > 0.84, total {3 * optimum.value:.6f} > 2.25",
    )


def test_criterion_06_closed_form_equivalence(table1, ghz):
    started = time.perf_counter()
    rng = np.random.default_rng(SEED)
    weights = ghz_weights(table1.utilities, table1.prior)
    worst = 0.0
    for _ in range(1000):
        setting = MeasurementSetting.planar(rng.uniform(-math.pi, math.pi, 6))
        engine = ghz_payoffs(weights, setting.ghz_features)
        payoffs = quantum_payoffs(table1.utilities, table1.prior, ghz, setting)
        worst = max(worst, float(np.abs(engine - payoffs).max()))
    elapsed = time.perf_counter() - started
    ok = worst < 1e-10 and elapsed < 30.0
    report(
        "criterion 6: GHZ payoff engine equals trace payoffs for all players",
        ok,
        f"max deviation {worst:.2e} over 1000 settings, {elapsed:.2f}s",
    )


def test_criterion_07_no_signalling(ghz):
    rng = np.random.default_rng(SEED)
    worst = 0.0
    for i in range(1000):
        if i % 2 == 0:
            setting = MeasurementSetting.planar(rng.uniform(-math.pi, math.pi, 6))
        else:
            # (theta, phi) of each observable in turn, in (3, 2) order
            angles = rng.uniform((0, -math.pi), (math.pi, math.pi), (3, 2, 2))
            setting = MeasurementSetting(angles[..., 0], angles[..., 1])
        dist = quantum_distribution(ghz, setting)
        worst = max(worst, no_signalling_residual(dist))
    ok = worst <= 1e-12
    report(
        "criterion 7: no-signalling within 1e-12 for 1000 settings",
        ok,
        f"max residual {worst:.2e} (planar and tilted settings)",
    )


def test_criterion_08_unfair_equilibria_not_quantum_realizable():
    rng = np.random.default_rng(SEED)
    worst = 0.0
    for _ in range(1000):
        z = rng.uniform(-1, 1)
        phi = rng.uniform(-math.pi, math.pi)
        s = math.sqrt(1 - z * z)
        projector = (
            np.eye(2)
            + s * math.cos(phi) * PAULI_X
            + s * math.sin(phi) * PAULI_Y
            + z * PAULI_Z
        ) / 2
        for party in Player:
            worst = max(
                worst, abs(ghz_single_party_marginal(projector, party) - 0.5)
            )
    ok = worst <= 1e-12
    report(
        "criterion 8: every single-party marginal is 1/2 (no deterministic "
        "marginal is reachable)",
        ok,
        f"max |marginal - 1/2| = {worst:.2e} over 1000 projectors x 3 parties",
    )


def test_criterion_09_optimum_is_certified_equilibrium(optimum, table1):
    verdict = best_response_check(
        table1, optimum.setting, mode="planar"
    )
    ok = verdict.is_equilibrium and all(
        r.improvement < EQUILIBRIUM_IMPROVEMENT_TOL for r in verdict.responses
    )
    report(
        "criterion 9: no player improves by more than 1e-6 at the optimum",
        ok,
        "improvements "
        + ", ".join(f"{r.player.name}: {r.improvement:.2e}" for r in verdict.responses),
    )


def test_criterion_10_equilibrium_set_invariant_under_affine_maps(table1):
    profiles = profile_table(table1.utilities, table1.prior)
    base = {r.profile for r in enumerate_deterministic_equilibria(profiles)}
    rng = random.Random(SEED)
    checked = 0
    for _ in range(100):
        alpha = F(rng.randint(1, 60), rng.randint(1, 60))
        beta = F(rng.randint(-60, 60), rng.randint(1, 60))
        moved = {
            r.profile
            for r in enumerate_deterministic_equilibria(
                profile_table(
                    affine_transform(table1.utilities, alpha, beta), table1.prior
                )
            )
        }
        if moved != base:
            report(
                "criterion 10: equilibrium set invariant under affine maps",
                False,
                f"changed under alpha={alpha}, beta={beta}",
            )
        checked += 1
    report(
        "criterion 10: equilibrium set invariant under affine maps",
        checked == 100,
        f"{checked} random (alpha, beta) pairs, exact profile-set equality",
    )


def test_criterion_11_optimum_is_global_over_quantum_advisors(table1, affine_game):
    """The planar optimum is the best fair value of any quantum advisor.

    Proof.  oracles.bell_decomposition writes the total payoff of any advice
    as c + sum_x w_x E_x, E_x the correlator of the three outcome signs in
    context x, and finds a type flip f and (alpha, beta) with w[x XOR f] =
    alpha V011_x + beta V100_x.  A quantum advisor is a state rho and a
    +-1 observable per player and type (any dimension; a two-outcome POVM
    is one after a Naimark dilation), and renaming each player's types by
    f maps observables to observables.  So the total is c + Tr rho (alpha
    V011 + beta V100) for some observables.  With r = sqrt(alpha^2 +
    beta^2), alpha = r cos chi and beta = r sin chi, that Bell operator is
    r (P (x) D + Q (x) D'), whose norm is at most 4r by operator
    Cauchy-Schwarz (test_quantum.TestBellOperatorBound checks the identity
    and the bound).  So every advisor's total is at most c + 4r, and its
    least payoff, at most the mean, is at most (c + 4r)/3.  The search's
    value reaches that bound, so no advisor gives every player more; by
    criterion 9 the optimum is an equilibrium as well.
    """
    games = {"table1": table1, "affine_game": affine_game}
    games.update(
        (f"relabelled-{k}", relabelled_copy(table1, *seeded_relabelling(k))) for k in range(10)
    )
    worst = 0.0
    for name, game in games.items():
        c, _, form = bell_decomposition(game)
        _, (alpha, beta) = form
        value = maximize_planar(game).value
        gap = abs(3 * value - (float(c) + 4 * math.hypot(alpha, beta)))
        if gap > 1e-12 * max(1.0, abs(value)):
            report("criterion 11: optimum equals the Bell bound", False, f"{name}: gap {gap:.2e}")
        worst = max(worst, gap / max(1.0, abs(value)))
    report(
        "criterion 11: 3 x optimum equals c + 4 sqrt(alpha^2 + beta^2), the bound "
        "of every quantum advisor",
        True,
        f"{len(games)} games, worst relative gap {worst:.1e}",
    )


#: Rounds of best-response dynamics within which each start of criterion 12
#: must settle; the slowest start took 45 rounds, the last of them moving
#: no one.
BEST_RESPONSE_ROUNDS = 100

#: Starts of criterion 12 that settle in each payoff class, all-z class
#: first, per game.
SETTLED_CLASSES = {"table1": (11, 9), "affine_game": (7, 13), "relabelled-0": (7, 13)}


def test_criterion_12_best_response_dynamics_settle_on_fair_equilibria(table1, affine_game):
    """Only fair equilibria: from 20 seeded full-sphere settings per game,
    players move in turn to their exact best response while one gains more
    than 1e-13.  Every start settles within BEST_RESPONSE_ROUNDS on a
    setting certified in both modes, whose payoffs are equal, and equal to
    c/3 or (c + 4 sqrt(alpha^2 + beta^2))/3 of table1's Bell decomposition
    (the bound of criterion 11), mapped affinely on the copies.  In the
    first class every observable lies along z; it is fair but below the
    classical fair cap (13/24 < 3/4 on table1).  The second is the planar
    optimum's value."""
    c, _, form = bell_decomposition(table1)
    _, (alpha, beta) = form
    classes = (float(c) / 3, (float(c) + 4 * math.hypot(alpha, beta)) / 3)
    assert classes[0] == 13 / 24
    assert classes[1] == pytest.approx(ANALYTIC_OPTIMUM, abs=1e-15)
    relabelling = seeded_relabelling(0)
    games = {
        "table1": (table1, 1, 0),
        "affine_game": (affine_game, F(7, 3), F(-5, 2)),
        "relabelled-0": (relabelled_copy(table1, *relabelling), *relabelling[2:]),
    }
    settled = {}
    for name, (game, scale_by, shift_by) in games.items():
        values = [float(scale_by) * v + float(shift_by) for v in classes]
        rng = random.Random(SEED)
        counts = [0, 0]
        for start in range(20):
            angles = [
                (math.acos(rng.uniform(-1, 1)), rng.uniform(-math.pi, math.pi))
                for _ in range(6)
            ]
            theta, phi = np.reshape(angles, (3, 2, 2)).transpose(2, 0, 1)
            setting = MeasurementSetting(theta, phi)
            for _ in range(BEST_RESPONSE_ROUNDS):
                moved = False
                for p in Player:
                    response = best_response_check(game, setting, "full_sphere").responses[p]
                    if response.improvement > 1e-13:
                        setting, moved = response.deviation, True
                if not moved:
                    break
            else:
                report("criterion 12: dynamics settle", False, f"{name}: start {start}")
            verdicts = [
                best_response_check(game, setting, mode) for mode in ("planar", "full_sphere")
            ]
            payoffs = verdicts[0].baseline
            scale = max(1.0, *map(abs, payoffs))
            gaps = [abs(v - payoffs.total() / 3) for v in values]
            kind = gaps.index(min(gaps))
            ok = (
                all(v.is_equilibrium for v in verdicts)
                and max(payoffs) - min(payoffs) <= 1e-9 * scale
                and gaps[kind] <= 1e-9 * scale
                and (kind == 1 or np.abs(np.cos(setting.theta)).min() >= 1 - 1e-9)
            )
            if not ok:
                report("criterion 12: fair equilibrium", False, f"{name}: start {start}")
            counts[kind] += 1
        settled[name] = tuple(counts)
    report(
        "criterion 12: best-response dynamics settle only on fair equilibria",
        settled == SETTLED_CLASSES,
        ", ".join(
            f"{name}: {lo} at c/3, {hi} at (c + 4r)/3" for name, (lo, hi) in settled.items()
        ),
    )
