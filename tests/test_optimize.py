import math
import random
import sys
import tracemalloc
from fractions import Fraction
from itertools import product
from unittest import mock

import numpy as np
import pytest

from bellgame import optimize
from bellgame.game import (
    PLAYERS,
    PROFILES,
    Player,
    ValidationError,
    check_player_symmetry,
)
from bellgame.builtin import builtin_game
from bellgame.game import GameDefinition
from bellgame.optimize import (
    EQUILIBRIUM_IMPROVEMENT_TOL,
    TIE_WINDOW,
    OptimizationConfig,
    best_response_check,
    maximize_planar,
    quantum_advantage_report,
)
from bellgame.quantum import (
    MeasurementSetting,
    ghz_advisor,
    ghz_bell,
    ghz_features,
    ghz_payoffs,
    ghz_weights,
    quantum_payoffs,
    wrap_angle,
)
from oracles import (
    affine_transform,
    bell_decomposition,
    constant_table,
    gauge_equivalent,
    magnitude,
    make_uniform_prior,
    planar_row_phasors,
    player_symmetric_game,
    reduced_planar_maximum,
    relabelled_copy,
    seeded_relabelling,
    table_entry,
    table_from_function,
)

#: Exact maximum of the reduced planar objective, derived by maximizing
#: (26 + 6 sin c0 - 4 cos c0 + 4 sin c1 + 6 cos c1) / 48 after substituting
#: a1 = b1 = -pi/2: each bracket peaks at sqrt(52), so the value is
#: (26 + 2*sqrt(52)) / 48 = (13 + 2*sqrt(13)) / 24.
ANALYTIC_OPTIMUM = (13 + 2 * math.sqrt(13)) / 24


@pytest.fixture(scope="module")
def default_report(table1):
    return maximize_planar(table1)


@pytest.fixture(scope="module")
def warped_game(table1):
    """table1 with player A's utility at x = y = (0, 0, 0) raised to 3: A's
    planar payoff has coefficients of its own, B and C share theirs."""
    def utility(i, x, y):
        if (i, x, y) == (Player.A, (0, 0, 0), (0, 0, 0)):
            return Fraction(3)
        return table_entry(table1.utilities, i, x, y)

    return GameDefinition(table_from_function(utility), table1.prior)


@pytest.fixture(scope="module")
def split_game(table1):
    """table1 under u -> 2/3 u - 1/3: still player-symmetric, but the
    players' planar constants round to two floats."""
    return GameDefinition(
        affine_transform(table1.utilities, Fraction(2, 3), Fraction(-1, 3)), table1.prior
    )


@pytest.fixture(scope="module")
def split_warped_game(warped_game):
    """warped_game under u -> 2/3 u - 1/3: A keeps coefficients of its own,
    and B's and C's rows differ only in the rounding of their constants."""
    return GameDefinition(
        affine_transform(warped_game.utilities, Fraction(2, 3), Fraction(-1, 3)),
        warped_game.prior,
    )


#: Names of the seeded random player-symmetric games, and their seeds.
PLAYER_SYMMETRIC = {f"player_symmetric_{seed}": seed for seed in range(10)}

#: The rows _planar_rows keeps: one per group of players whose coefficients
#: agree.  Player symmetry alone does not make them agree.
KEPT_ROWS = {"warped_game": 2, "split_warped_game": 2, **dict.fromkeys(PLAYER_SYMMETRIC, 3)}


def _fresh(game: GameDefinition) -> GameDefinition:
    """A new object of the same game, which has derived nothing yet."""
    return GameDefinition(game.utilities, game.prior)


class TestMaximizePlanar:
    def test_reaches_reference_value(self, default_report):
        assert default_report.value == pytest.approx(0.842, abs=1e-3)

    def test_reaches_analytic_optimum(self, default_report):
        assert default_report.value == pytest.approx(ANALYTIC_OPTIMUM, abs=1e-9)

    def test_reduced_objective_brackets_peak_at_sqrt52(self):
        # sanity for the derivation feeding ANALYTIC_OPTIMUM
        best_c0 = max(
            6 * math.sin(t) - 4 * math.cos(t)
            for t in (i * 2 * math.pi / 100000 for i in range(100000))
        )
        assert best_c0 == pytest.approx(math.sqrt(52), abs=1e-6)

    def test_angles_on_reference_orbit(self, default_report, reference_angles):
        assert default_report.setting.is_planar()
        assert default_report.setting.phi[0, 0] == 0.0
        assert default_report.setting.phi[1, 0] == 0.0
        assert gauge_equivalent(default_report.setting.phi, reference_angles, tol=1e-3)

    def test_value_consistent_with_closed_form(self, default_report, table1):
        weights = ghz_weights(table1.utilities, table1.prior)
        setting = default_report.setting
        engine = ghz_payoffs(weights, setting.ghz_features)
        assert abs(default_report.value - min(engine)) < 1e-10
        assert abs(default_report.value - max(engine)) < 1e-10

    def test_affine_copy_reaches_mapped_optimum_on_same_orbit(
        self, table1, reference_angles
    ):
        alpha, beta = Fraction(7, 3), Fraction(-5, 2)
        game = GameDefinition(affine_transform(table1.utilities, alpha, beta), table1.prior)
        report = maximize_planar(game, OptimizationConfig(restarts=4, seed=3))
        assert report.value == pytest.approx(
            float(alpha) * ANALYTIC_OPTIMUM + float(beta), abs=1e-9
        )
        assert gauge_equivalent(report.setting.phi, reference_angles, tol=1e-3)
        assert report.converged

    def test_payoffs_and_bells_at_optimum(self, default_report):
        for v in default_report.payoffs:
            assert v == pytest.approx(default_report.value, abs=1e-10)
        setting = default_report.setting
        v011, v100 = ghz_bell(setting.ghz_features).values()
        assert v011 == pytest.approx(12 / math.sqrt(13), abs=1e-6)
        assert v100 == pytest.approx(-8 / math.sqrt(13), abs=1e-6)
        assert default_report.converged

    def test_coarse_config_is_close(self, table1):
        report = maximize_planar(table1, OptimizationConfig(restarts=1))
        assert report.value > ANALYTIC_OPTIMUM - 0.05

    def test_deterministic_for_fixed_seed(self, table1):
        config = OptimizationConfig(restarts=3, seed=5)
        assert maximize_planar(table1, config) == maximize_planar(table1, config)

    def test_value_monotone_in_restarts(self, table1):
        values = [
            maximize_planar(table1, OptimizationConfig(restarts=r, seed=0)).value
            for r in (1, 2, 4, 8)
        ]
        for earlier, later in zip(values, values[1:]):
            assert later >= earlier - TIE_WINDOW

    def test_seeds_agree_on_value_and_orbit(self, table1):
        reports = [
            maximize_planar(table1, OptimizationConfig(restarts=6, seed=s))
            for s in range(4)
        ]
        for r in reports[1:]:
            same_orbit = gauge_equivalent(r.setting.phi, reports[0].setting.phi, tol=1e-4)
            same_value = abs(r.value - reports[0].value) < 1e-6
            assert same_value
            assert same_orbit or same_value

    def test_invalid_configs_rejected(self):
        with pytest.raises(ValidationError, match="seed"):
            OptimizationConfig(seed=-1)
        with pytest.raises(ValidationError, match="restarts"):
            OptimizationConfig(restarts=0)
        with pytest.raises(ValidationError, match="restarts must be at most 10000"):
            OptimizationConfig(restarts=10_001)

    def test_largest_config_accepted(self):
        # constructed only: running it would make 20000 polishes
        config = OptimizationConfig(restarts=10_000)
        assert config.restarts == 10_000


TILTED = MeasurementSetting(
    [[0.3, 1.2], [2.5, 0.9], [1.7, 0.2]], [[0.1, -2.0], [0.7, 1.4], [-0.4, 3.0]]
)


def _random_angles(rng, count: int, mode: str) -> tuple[np.ndarray, np.ndarray]:
    """(theta, phi) of ``count`` random candidates, shape (count, 3, 2).  In
    planar mode every other candidate is planar and the rest are not."""
    theta = rng.uniform(0, math.pi, size=(count, 3, 2))
    phi = rng.uniform(-math.pi, math.pi, size=(count, 3, 2))
    if mode == "planar":
        theta[::2] = math.pi / 2
    return theta, phi


def _deviate(theta0, phi0, player, x: np.ndarray, mode: str):
    """Angles of the candidates (theta0, phi0), of shape (..., 3, 2), with
    the player's observables replaced by the deviations x, of shape
    (..., 2) in planar mode (two azimuths) and (..., 4) on the full sphere
    (theta_0, phi_0, theta_1, phi_1)."""
    shape = np.broadcast_shapes(theta0.shape[:-2], x.shape[:-1]) + (3, 2)
    theta = np.broadcast_to(theta0, shape).copy()
    phi = np.broadcast_to(phi0, shape).copy()
    if mode == "planar":
        theta[..., player, :] = math.pi / 2
        phi[..., player, :] = x
    else:
        theta[..., player, :] = x[..., 0::2]
        phi[..., player, :] = x[..., 1::2]
    return theta, phi


def _deviation_grid(mode: str, res: int) -> np.ndarray:
    """Every deviation of one player on a grid of ``res`` points per angle,
    shape (res**dim, dim), in _deviate's layout."""
    azimuths = np.linspace(-math.pi, math.pi, res, endpoint=False)
    axes = [azimuths] * (2 if mode == "planar" else 4)
    if mode == "full_sphere":
        axes[0] = axes[2] = np.linspace(0, math.pi, res)
    return np.stack([m.ravel() for m in np.meshgrid(*axes, indexing="ij")], axis=1)


#: The polish's two tolerance pairs (xatol, fatol): the loose one of every
#: start, and the tight one of a polish that replaces a failed Newton finish
#: (the one every start used before the finish).
TOLERANCES = {
    "loose": (optimize.NM_XATOL, optimize.NM_FATOL),
    "tight": (optimize.FALLBACK_XATOL, optimize.FALLBACK_FATOL),
}


def _initial_simplex(x0) -> list[list[float]]:
    """The polish's first simplex from ``x0``, in any dimension: x0, then x0
    with NM_STEP added to one coordinate, for each coordinate in turn."""
    start = [float(v) for v in x0]
    simplex = [start]
    for k in range(len(start)):
        vertex = list(start)
        vertex[k] += optimize.NM_STEP
        simplex.append(vertex)
    return simplex


def _scipy_nelder_mead(objective, x0, xatol, fatol, maxfev=None, default_simplex=False):
    """scipy.optimize.minimize's Nelder-Mead on -objective with the options
    of the in-house polish at the given tolerances, its initial simplex
    among them (see _initial_simplex), no iteration cap and the evaluation
    budget ``maxfev`` (NM_MAX_FEV by default), and with np.argsort made
    stable for this call only, so that tied vertices keep their order on
    every CPU: that polish's oracle, with ``maxfev`` the larger of
    NM_MAX_FEV and the evaluations the polish made (the polish finishes the
    step in which its budget runs out).  With ``default_simplex`` SciPy
    builds its own first simplex, 5% of each nonzero coordinate: the search
    of the best-response oracle, and the tight polish of
    _tight_polish_values.  Skips the test without SciPy."""
    minimize = pytest.importorskip("scipy.optimize").minimize
    argsort = np.argsort

    def stable_argsort(a):
        return argsort(a, kind="stable")

    options = {
        "xatol": xatol,
        "fatol": fatol,
        "maxiter": math.inf,
        "maxfev": optimize.NM_MAX_FEV if maxfev is None else maxfev,
    }
    if not default_simplex:
        options["initial_simplex"] = _initial_simplex(x0)
    with mock.patch.object(np, "argsort", stable_argsort):
        return minimize(
            lambda x: -objective(x.tolist()),
            np.asarray(x0, dtype=float),
            method="Nelder-Mead",
            options=options,
        )


def _ghz_coefficients(game: GameDefinition, player: int) -> list[tuple]:
    """Per type profile x, the float coefficients of the player's GHZ payoff
    on the features 1, cos t_A cos t_B, cos t_A cos t_C, cos t_B cos t_C and
    the triple correlator: P(x) sum_y f(y) u(x, y) / 8 from the game's
    Fraction utilities, with f(y) the product of the signs 2 y_i - 1 of the
    feature's players."""
    signs = [[2 * y_i - 1 for y_i in y] for y in PROFILES]
    features = [[1, sa * sb, sa * sc, sb * sc, sa * sb * sc] for sa, sb, sc in signs]
    return [
        (x, tuple(
            float(p_x * sum(f[k] * u for f, u in zip(features, utilities)) / 8)
            for k in range(5)
        ))
        for x, p_x, utilities in zip(
            PROFILES, game.prior.weights, game.utilities.values[player]
        )
    ]


def _best_response_searches(
    candidate: MeasurementSetting, mode: str, config: OptimizationConfig, grid: int
) -> list[tuple]:
    """Per player on table1, (objective, reference, starts) of the search
    that best_response_check's closed form replaced: the player's own payoff
    as a function of their deviation (two azimuths in planar mode, four
    angles on the full sphere), started from the candidate's own
    observables, the three best points of the deviation grid
    (``grid`` points per angle, at most 6 on the full sphere) and
    min(restarts, 8) seeded random points.

    The objective is the GHZ closed form of that payoff on Python floats,
    one point at a time; the reference is ghz_payoffs on a batch of
    deviations, which also ranks the grid."""
    game = builtin_game()
    weights = ghz_weights(game.utilities, game.prior)
    theta0, phi0 = candidate.theta, candidate.phi
    rng = np.random.default_rng(config.seed)
    dim = 2 if mode == "planar" else 4
    searches = []
    for player in PLAYERS:
        def reference(x: np.ndarray, player=player) -> np.ndarray:
            theta, phi = _deviate(theta0, phi0, player, x, mode)
            return ghz_payoffs(weights, ghz_features(theta, phi))[..., player]

        def objective(x, player=player, coefficients=_ghz_coefficients(game, player)):
            theta, phi = theta0.tolist(), phi0.tolist()
            if mode == "planar":
                theta[player], phi[player] = [math.pi / 2] * 2, list(x)
            else:
                theta[player], phi[player] = [x[0], x[2]], [x[1], x[3]]
            cos = [[math.cos(t) for t in row] for row in theta]
            sin = [[math.sin(t) for t in row] for row in theta]
            total = 0.0
            for (a, b, c), (w1, wab, wac, wbc, wabc) in coefficients:
                ca, cb, cc = cos[0][a], cos[1][b], cos[2][c]
                triple = -(
                    sin[0][a] * sin[1][b] * sin[2][c]
                    * math.sin(phi[0][a] + phi[1][b] + phi[2][c])
                )
                total += w1 + wab * ca * cb + wac * ca * cc + wbc * cb * cc + wabc * triple
            return total

        if mode == "planar":
            own_x = phi0[player].tolist()
            mesh = _deviation_grid(mode, grid)
        else:
            own_x = [theta0[player, 0], phi0[player, 0], theta0[player, 1], phi0[player, 1]]
            mesh = _deviation_grid(mode, min(grid, 6))
        top = np.argsort(reference(mesh), kind="stable")[::-1][:3]
        starts = [own_x] + [mesh[i] for i in top] + list(
            rng.uniform(-math.pi, math.pi, size=(min(config.restarts, 8), dim))
        )
        searches.append((objective, reference, starts))
    return searches


def _searched_best_responses(
    candidate: MeasurementSetting, mode: str, config: OptimizationConfig, grid: int
) -> list[float]:
    """The oracle of best_response_check: each player's best own payoff
    found by SciPy's Nelder-Mead from every start of _best_response_searches,
    the plain maximum over the starts.  It shares no code with the engine.
    The scalar objective agrees with ghz_payoffs at every start and every
    point SciPy ends at."""
    best = []
    for objective, reference, starts in _best_response_searches(
        candidate, mode, config, grid
    ):
        results = [
            _scipy_nelder_mead(objective, x0, *TOLERANCES["tight"], default_simplex=True)
            for x0 in starts
        ]
        points = np.array([*starts, *(res.x for res in results)], dtype=float)
        values = [objective(x) for x in points.tolist()]
        assert np.abs(np.array(values) - reference(points)).max() <= 1e-12
        best.append(max(-float(res.fun) for res in results))
    return best


#: Bloch angles (theta, phi) of the probe observables along x, y, +z and -z.
PROBE_THETA = np.array([math.pi / 2, math.pi / 2, 0.0, math.pi])
PROBE_PHI = np.array([0.0, math.pi / 2, 0.0, 0.0])


def _probed_gradients(game: GameDefinition, theta0, phi0) -> np.ndarray:
    """The gradients g_t of best_response_check at the candidates (theta0,
    phi0), of shape (N, 3, 2), rebuilt from the engine's payoffs at probe
    observables: shape (N, 3, 2, 3), by candidate, player, type bit and
    component.  Each player's payoffs with one observable swapped for x, y,
    +z and -z give g_z = (u_+z - u_-z)/2 and, with c' = (u_+z + u_-z)/2,
    g_x = u_x - c' and g_y = u_y - c'.  All 24 probes of every candidate go
    through one ghz_payoffs call.  This is the reconstruction that reading
    g off the GHZ weights replaced."""
    shape = (len(theta0), 3, 2, 4, 3, 2)
    theta = np.broadcast_to(theta0[:, None, None, None], shape).copy()
    phi = np.broadcast_to(phi0[:, None, None, None], shape).copy()
    player, bit = np.arange(3)[:, None], np.arange(2)[None, :]
    theta[:, player, bit, :, player, bit] = PROBE_THETA
    phi[:, player, bit, :, player, bit] = PROBE_PHI
    payoffs = ghz_payoffs(ghz_weights(game.utilities, game.prior), ghz_features(theta, phi))
    # the advanced indices come first: (player, bit, candidate, probe)
    own = np.moveaxis(payoffs[:, player, bit, :, player], 2, 0)
    u_x, u_y, u_up, u_down = np.moveaxis(own, -1, 0)
    rest = (u_up + u_down) / 2
    return np.stack([u_x - rest, u_y - rest, (u_up - u_down) / 2], axis=-1)


def _bloch(theta, phi) -> np.ndarray:
    """Unit vectors (sin t cos p, sin t sin p, cos t), shape (..., 3)."""
    theta, phi = np.asarray(theta), np.asarray(phi)
    return np.stack(
        [np.sin(theta) * np.cos(phi), np.sin(theta) * np.sin(phi), np.cos(theta)], axis=-1
    )


class TestBestResponse:
    def test_optimum_is_certified_planar_equilibrium(self, default_report, table1):
        verdict = best_response_check(table1, default_report.setting, "planar")
        assert verdict.mode == "planar"
        for response in verdict.responses:
            assert response.improvement < EQUILIBRIUM_IMPROVEMENT_TOL
            assert type(response.improvement) is float
        assert verdict.is_equilibrium
        assert type(verdict.is_equilibrium) is bool

    def test_zero_angles_are_not_optimal(self, table1):
        verdict = best_response_check(
            table1, MeasurementSetting.planar(np.zeros(6)), "planar"
        )
        assert verdict.max_improvement > 0.01
        assert not verdict.is_equilibrium

    def test_full_sphere_probe_at_optimum(self, default_report, table1):
        # polar deviations are allowed; none of the players gains anything
        # measurable
        verdict = best_response_check(table1, default_report.setting, "full_sphere")
        assert verdict.mode == "full_sphere"
        for response in verdict.responses:
            assert math.isfinite(response.improvement)
            assert response.improvement < 1e-5
        assert {r.player.name for r in verdict.responses} == {"A", "B", "C"}

    def test_baseline_matches_trace_rule_at_tilted_candidate(self, table1):
        oracle = quantum_payoffs(table1.utilities, table1.prior, ghz_advisor(), TILTED)
        for mode in ("planar", "full_sphere"):
            verdict = best_response_check(table1, TILTED, mode)
            assert verdict.baseline == pytest.approx(oracle, abs=1e-10)
            assert verdict.max_improvement > 0.01
            for response in verdict.responses:
                deviated = response.deviation
                if mode == "planar":
                    assert (deviated.theta[response.player] == math.pi / 2).all()
                others = np.arange(3) != response.player
                assert np.array_equal(deviated.theta[others], TILTED.theta[others])
                assert np.array_equal(deviated.phi[others], TILTED.phi[others])
                payoff = quantum_payoffs(
                    table1.utilities, table1.prior, ghz_advisor(), deviated
                )[response.player]
                assert response.payoff == pytest.approx(payoff, abs=1e-10)

    @pytest.mark.parametrize("mode", ["planar", "full_sphere"])
    @pytest.mark.parametrize(
        ("seed", "game_name"), enumerate(["table1", "affine_game", "nonuniform_game"])
    )
    def test_at_least_the_best_grid_deviation(self, request, seed, game_name, mode):
        """On 34 random candidates per game and mode (204 in all), each
        player's exact best response pays at least the best deviation on a
        grid, and exactly what its reported deviation pays."""
        game = request.getfixturevalue(game_name)
        weights = ghz_weights(game.utilities, game.prior)
        rng = np.random.default_rng([seed, mode == "planar"])
        theta0, phi0 = _random_angles(rng, 34, mode)
        grid = _deviation_grid(mode, 12 if mode == "planar" else 5)
        # one call for every (player, candidate, grid point)
        angles = [
            _deviate(theta0[:, None], phi0[:, None], player, grid, mode)
            for player in PLAYERS
        ]
        scores = ghz_payoffs(
            weights,
            ghz_features(np.stack([t for t, _ in angles]), np.stack([p for _, p in angles])),
        )
        best_grid = np.stack([scores[p, :, :, p].max(axis=1) for p in PLAYERS], axis=1)

        verdicts = [
            best_response_check(game, MeasurementSetting(t, p), mode)
            for t, p in zip(theta0, phi0)
        ]
        deviated = [r.deviation for v in verdicts for r in v.responses]
        reached = ghz_payoffs(
            weights,
            ghz_features(np.stack([d.theta for d in deviated]), np.stack([d.phi for d in deviated])),
        ).reshape(34, 3, 3)
        for k, verdict in enumerate(verdicts):
            for r in verdict.responses:
                assert r.payoff >= best_grid[k, r.player] - 1e-12
                if mode == "full_sphere" or k % 2 == 0:  # candidate in the mode's reach
                    assert r.improvement >= -1e-12
                assert abs(r.payoff - reached[k, r.player, r.player]) <= 1e-12
                if mode == "planar":
                    assert (r.deviation.theta[r.player] == math.pi / 2).all()

    @pytest.mark.parametrize("mode", ["planar", "full_sphere"])
    def test_at_least_the_searched_best_response(self, mode, reference_angles, table1):
        """The reference optimum and 11 random candidates (5 of them
        non-planar in planar mode): the closed form pays at least what the
        grid-and-Nelder-Mead search finds."""
        theta0, phi0 = _random_angles(np.random.default_rng(17), 11, mode)
        candidates = [MeasurementSetting.planar(reference_angles)] + [
            MeasurementSetting(t, p) for t, p in zip(theta0, phi0)
        ]
        config = OptimizationConfig(restarts=1, seed=0)
        for candidate in candidates:
            verdict = best_response_check(table1, candidate, mode)
            searched = _searched_best_responses(candidate, mode, config, grid=8)
            for response, value in zip(verdict.responses, searched):
                assert response.payoff >= value - 1e-12

    @pytest.mark.parametrize("mode", ["planar", "full_sphere"])
    def test_matches_the_probe_reconstruction(self, request, mode):
        """On 50 planar and 50 full-sphere seeded candidates of each of 13
        games: the gradients read off the GHZ weights give the payoffs and
        improvements that the probe payoffs give (_probed_gradients) within
        1e-14 of the game's scale, and each deviation the same Bloch vectors
        within 1e-12 wherever the part of g_t a deviation can align with
        exceeds 1e-9."""
        names = ["table1", "nonuniform_game", "warped_game", *PLAYER_SYMMETRIC]
        for seed, name in enumerate(names):
            if name in PLAYER_SYMMETRIC:
                game = player_symmetric_game(PLAYER_SYMMETRIC[name])
            else:
                game = request.getfixturevalue(name)
            tol = 1e-14 * max(1.0, float(max(magnitude(game, p) for p in PLAYERS)))
            theta0, phi0 = _random_angles(np.random.default_rng([seed, 8]), 100, "planar")
            g = _probed_gradients(game, theta0, phi0)
            reach = g.copy()
            if mode == "planar":
                reach[..., 2] = 0.0
            norm = np.sqrt((reach * reach).sum(axis=-1))
            gains = (norm - (g * _bloch(theta0, phi0)).sum(axis=-1)).sum(axis=-1)
            aligned = norm > 1e-9
            for k, (theta, phi) in enumerate(zip(theta0, phi0)):
                verdict = best_response_check(game, MeasurementSetting(theta, phi), mode)
                for r in verdict.responses:
                    p = r.player
                    assert abs(r.improvement - gains[k, p]) <= tol
                    assert abs(r.payoff - (verdict.baseline[p] + gains[k, p])) <= tol
                    got = _bloch(r.deviation.theta[p], r.deviation.phi[p])
                    want = reach[k, p] / norm[k, p, :, None]
                    gap = np.abs(got - want).max(axis=-1)
                    assert (gap[aligned[k, p]] <= 1e-12).all()

    @pytest.mark.parametrize(
        ("mode", "candidate"),
        [("planar", "optimum"), ("planar", "tilted"), ("full_sphere", "tilted")],
    )
    def test_constant_game_keeps_the_candidate(self, reference_angles, mode, candidate):
        """No deviation changes a constant payoff: the improvement is exactly
        0 and each player keeps their own observables (their azimuths on the
        equator, when planar mode meets a tilted candidate)."""
        game = GameDefinition(constant_table(Fraction(7, 3)), make_uniform_prior())
        setting = (
            MeasurementSetting.planar(reference_angles) if candidate == "optimum" else TILTED
        )
        verdict = best_response_check(game, setting, mode)
        for response in verdict.responses:
            theta = setting.theta.copy()
            if mode == "planar":
                theta[response.player] = math.pi / 2
            assert response.improvement == 0.0
            assert response.payoff == verdict.baseline[response.player]
            assert np.array_equal(response.deviation.theta, theta)
            assert np.array_equal(response.deviation.phi, setting.phi)

    @pytest.mark.parametrize("mode", ["planar", "full_sphere"])
    def test_the_verdict_has_no_unit_on_a_pair_only_game(self, mode):
        """Every player's utility is +-1 by whether y_A = y_B, times 2 when
        x_C = 1, under the uniform prior: the planar rows vanish, so the
        search's unit is 1 at any size, and the certificate reads only pair
        weights.  The threshold's unit covers them, so at 2**-40, 1 and
        2**40 times these utilities the threshold and max_improvement are
        exactly the unit times the unscaled game's, and the verdict at this
        tilted candidate is the same: on the full sphere a player gains
        0.926 of the unit, and it is no equilibrium."""
        candidate = MeasurementSetting([[0.3, 1.0], [0.7, 2.0], [0.4, 0.1]], np.zeros((3, 2)))

        def pair_only(unit):
            return GameDefinition(
                table_from_function(
                    lambda i, x, y: unit * (1 if y[0] == y[1] else -1) * (2 if x[2] else 1)
                ),
                make_uniform_prior(),
            )

        want = best_response_check(pair_only(1), candidate, mode)
        assert want.threshold == EQUILIBRIUM_IMPROVEMENT_TOL / 2  # pair weights 1/8, 1/4
        assert want.is_equilibrium is (mode == "planar")
        if mode == "full_sphere":
            assert want.max_improvement == pytest.approx(0.926158235921537, abs=1e-12)
        for k in (-40, 40):
            game = pair_only(Fraction(2) ** k)
            assert game.planar_search.scale == 1.0
            got = best_response_check(game, candidate, mode)
            assert got.threshold == math.ldexp(want.threshold, k)
            assert got.max_improvement == math.ldexp(want.max_improvement, k)
            assert got.is_equilibrium is want.is_equilibrium

    def test_unknown_mode_rejected(self, reference_angles, table1):
        with pytest.raises(ValidationError, match="mode"):
            best_response_check(
                table1, MeasurementSetting.planar(reference_angles), "spherical"
            )


class TestGridStarts:
    def test_tied_grid_values_give_pinned_starts(self, table1):
        """On table1's grid of 16 the third-best value is shared by twelve
        points, more than are left to pick; the stable sort takes the last
        two of them in grid order, on any CPU."""
        weights = ghz_weights(table1.utilities, table1.prior)
        starts = optimize._grid_starts(optimize._planar_rows(weights), 4)
        step = math.pi / 8
        indices = [tuple(round((v + math.pi) / step) for v in x) for x in starts]
        assert indices == [(12, 12, 11, 15), (4, 4, 13, 9), (13, 12, 10, 14), (12, 13, 10, 14)]

        def value(a1, b1, c0, c1):
            setting = MeasurementSetting.planar(
                np.array([0, a1, 0, b1, c0, c1]) * step
            )
            return min(ghz_payoffs(weights, setting.ghz_features))

        # the two picked and the ten passed over: a tie, up to rounding
        passed_over = [
            (12, 12, 11, 14), (12, 12, 10, 15), (12, 11, 11, 15), (11, 12, 11, 15),
            (5, 4, 13, 9), (4, 5, 13, 9), (4, 4, 14, 9), (4, 4, 13, 10),
            (4, 3, 14, 10), (3, 4, 14, 10),
        ]
        tied = [value(*(i - 8 for i in x)) for x in indices[2:] + passed_over]
        assert max(tied) - min(tied) < 1e-12
        assert value(*(i - 8 for i in indices[1])) > max(tied) + 5e-5


    @pytest.mark.parametrize("restarts", [4, 12])
    @pytest.mark.parametrize("grid", [optimize.GRID])  # the engine's one grid
    @pytest.mark.parametrize(
        "game_name",
        [
            "table1", "affine_game", "split_game", "nonuniform_game", "warped_game",
            "split_warped_game", *PLAYER_SYMMETRIC,
        ],
    )
    def test_distinct_rows_give_the_three_row_starts(
        self, request, game_name, grid, restarts
    ):
        """Players whose rows differ only in their constants, by rounding
        (split_game, and B and C in split_warped_game) or by the prior
        (nonuniform_game), keep one row, the least constant's, as table1's
        players do.  Rows collapse only where the players' coefficient
        vectors agree: the seeded random player-symmetric games keep three."""
        if game_name in PLAYER_SYMMETRIC:
            game = player_symmetric_game(PLAYER_SYMMETRIC[game_name])
            assert check_player_symmetry(game.utilities) == []
        else:
            game = request.getfixturevalue(game_name)
        weights = ghz_weights(game.utilities, game.prior)
        rows = optimize._planar_rows(weights)
        assert len(rows) == KEPT_ROWS.get(game_name, 1)
        got = optimize._grid_starts(rows, restarts)
        assert got == _three_row_grid_starts(
            weights[:, :, 0].sum(axis=1), -weights[:, :, 4], grid, restarts
        )
        assert len(got) == restarts

    @pytest.mark.parametrize("game_name", ["table1", "nonuniform_game", "constant"])
    def test_fewer_starts_are_a_prefix_of_more(self, request, game_name):
        """The starts of k restarts are the first k of any larger number, on
        table1's tied grid, on the three-row game and on a constant game,
        whose grid ties everywhere: what lets a game keep its grid runs."""
        if game_name == "constant":
            game = GameDefinition(constant_table(Fraction(7, 3)), make_uniform_prior())
        else:
            game = request.getfixturevalue(game_name)
        rows = optimize._planar_rows(ghz_weights(game.utilities, game.prior))
        most = optimize._grid_starts(rows, 200)
        assert len(most) == 200
        for k in range(1, 200):
            assert optimize._grid_starts(rows, k) == most[:k]

    def test_peak_memory_stays_near_the_payoff_array(self, table1):
        """At grid 16 the scan allocates at most 1.4 times one row's 16**4
        payoff array: table1's players share one row, and neither the
        minimum over the players nor the k-th best value copies the array."""
        weights = ghz_weights(table1.utilities, table1.prior)
        rows = optimize._planar_rows(weights)
        tracemalloc.start()
        try:
            optimize._grid_starts(rows, OptimizationConfig().restarts)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak <= 1.4 * 16**4 * 8


def _three_row_grid_starts(
    const: np.ndarray, coef: np.ndarray, g: int, restarts: int
) -> list[tuple[float, float, float, float]]:
    """The reference scan: one (3, g**4) payoff array, a row per player
    whether or not rows repeat, and the k-th best value from a copy of it."""
    axis = np.linspace(-math.pi, math.pi, g, endpoint=False)
    a = (0.0, axis.reshape(g, 1, 1, 1))
    b = (0.0, axis.reshape(1, g, 1, 1))
    c = (axis.reshape(1, 1, g, 1), axis.reshape(1, 1, 1, g))
    values = np.empty((3, g, g, g, g))
    values[:] = const.reshape(3, 1, 1, 1, 1)
    for xi, (xa, xb, xc) in enumerate(PROFILES):
        values += coef[:, xi].reshape(3, 1, 1, 1, 1) * np.sin(a[xa] + b[xb] + c[xc])
    np.minimum(values[0], values[1], out=values[0])
    np.minimum(values[0], values[2], out=values[0])
    flat = values[0].ravel()
    k = min(restarts, flat.size)
    best = np.flatnonzero(flat >= np.partition(flat, flat.size - k)[flat.size - k])
    top = best[np.argsort(flat[best], kind="stable")[::-1][:k]]
    return list(zip(*(axis[i] for i in np.unravel_index(top, (g,) * 4))))


def _min_over_players(const, coef, x) -> float:
    """The reference objective: each player's planar payoff, terms added
    left to right, and the first least of the three by min()."""
    a1, b1, c0, c1 = x
    ab = a1 + b1
    sines = [
        math.sin(c0), math.sin(c1), math.sin(b1 + c0), math.sin(b1 + c1),
        math.sin(a1 + c0), math.sin(a1 + c1), math.sin(ab + c0), math.sin(ab + c1),
    ]
    values = []
    for k, r in zip(const, coef):
        total = r[0] * sines[0]
        for ri, si in zip(r[1:], sines[1:]):
            total = total + ri * si
        values.append(k + total)
    return min(values)


class TestPlanarObjective:
    @pytest.mark.parametrize(
        "game_name",
        ["table1", "split_game", "nonuniform_game", "warped_game", "split_warped_game"],
    )
    def test_equals_the_minimum_over_the_players_to_the_bit(self, request, game_name):
        """On one kept row (players whose coefficients agree) and on two,
        at points spread over several turns and at the grid's best points."""
        game = request.getfixturevalue(game_name)
        weights = ghz_weights(game.utilities, game.prior)
        const, coef = weights[:, :, 0].sum(axis=1).tolist(), (-weights[:, :, 4]).tolist()
        distinct_constants = {
            "table1": 1, "split_game": 2, "nonuniform_game": 3, "warped_game": 2,
            "split_warped_game": 3,
        }
        assert len(set(const)) == distinct_constants[game_name]
        rows = optimize._planar_rows(weights)
        assert len(rows) == KEPT_ROWS.get(game_name, 1)
        objective = optimize._planar_objective(rows)
        points = np.random.default_rng(3).uniform(-20, 20, size=(2000, 4)).tolist()
        points += [list(x) for x in optimize._grid_starts(rows, 200)]
        for x in points:
            assert repr(objective(tuple(x))) == repr(_min_over_players(const, coef, x))


class TestReducedPlanarFunction:
    """At fixed (a1, b1), a planar payoff row is k + Im(e^{i c0} Z_0) +
    Im(e^{i c1} Z_1), so its maximum over (c0, c1) is the reduced function
    k + |Z_0| + |Z_1| (oracles.reduced_planar_maximum)."""

    @pytest.mark.parametrize("game_name", ["table1", "warped_game"])
    def test_the_row_maximum_over_c_is_the_reduced_function(self, request, game_name):
        """Each kept row's one-row objective reaches the oracle at
        c_j = pi/2 - arg Z_j, and no point of a 64 x 64 (c0, c1) grid
        exceeds it, at 20 seeded (a1, b1)."""
        game = request.getfixturevalue(game_name)
        rows = optimize._planar_rows(ghz_weights(game.utilities, game.prior))
        assert len(rows) == KEPT_ROWS.get(game_name, 1)
        grid = np.linspace(-math.pi, math.pi, 64, endpoint=False).tolist()
        rng = np.random.default_rng(5)
        for row in rows:
            objective = optimize._planar_objective([row])
            for a1, b1 in rng.uniform(-math.pi, math.pi, (20, 2)).tolist():
                peak = reduced_planar_maximum(row, a1, b1)
                z0, z1 = planar_row_phasors(row, a1, b1)
                c0, c1 = (math.pi / 2 - math.atan2(z.imag, z.real) for z in (z0, z1))
                assert objective((a1, b1, c0, c1)) == pytest.approx(peak, abs=1e-12)
                grid_max = max(objective((a1, b1, u, v)) for u in grid for v in grid)
                assert grid_max <= peak + 1e-12


class TestValueIsTheLeastPayoff:
    """optimize's value is the least of the payoffs it reports, up to the
    rounding of two engines: the objective's scalar sum and ghz_payoffs'
    matrix product."""

    @pytest.mark.parametrize("seed", [0, 3])
    @pytest.mark.parametrize(
        "game_name",
        ["table1", "affine_game", "nonuniform_game", "split_game", "warped_game", "constant"]
        + [f"relabelled-{k}" for k in range(10)],
    )
    def test_on_every_game(self, request, table1, game_name, seed):
        if game_name == "constant":
            game = GameDefinition(constant_table(Fraction(7, 3)), make_uniform_prior())
        elif game_name.startswith("relabelled-"):
            game = relabelled_copy(table1, *seeded_relabelling(int(game_name.split("-")[1])))
        else:
            game = request.getfixturevalue(game_name)
        report = maximize_planar(_fresh(game), OptimizationConfig(restarts=4, seed=seed))
        assert math.isfinite(report.value)
        gap = abs(report.value - min(report.payoffs))
        assert gap <= 1e-12 * max(1.0, abs(report.value))


class TestAdvantageReport:
    def test_bundled_game_summary(self, table1):
        report = quantum_advantage_report(table1)
        assert report.classical_total_bound == Fraction(9, 4)
        assert report.classical_fair_cap == Fraction(3, 4)
        assert report.optimum.value == pytest.approx(0.842, abs=1e-3)
        assert report.advantage == pytest.approx(0.0921, abs=1e-3)
        assert report.quantum_total == pytest.approx(3 * ANALYTIC_OPTIMUM, abs=1e-6)
        assert report.quantum_total > 9 / 4
        assert report.beats_classical

    def test_constant_game_has_no_advantage(self):
        c = Fraction(7, 3)
        game = GameDefinition(constant_table(c), make_uniform_prior())
        report = quantum_advantage_report(game, OptimizationConfig(restarts=2))
        assert report.classical_total_bound == 3 * c
        assert report.classical_fair_cap == c
        assert report.optimum.value == pytest.approx(float(c), abs=1e-9)
        assert report.advantage == pytest.approx(0.0, abs=1e-9)

    def test_report_optimum_matches_direct_call(self, table1):
        config = OptimizationConfig(restarts=2, seed=0)
        report = quantum_advantage_report(table1, config)
        assert report.optimum == maximize_planar(table1, config)


def _as_reported(report) -> str:
    """Everything ``optimize`` reports of a search, by repr: the value, the
    angles, the payoffs and the convergence flag."""
    setting = report.setting
    return repr((
        report.value, setting.theta.tolist(), setting.phi.tolist(),
        tuple(report.payoffs), report.converged,
    ))


class TestGridRunsKeptPerGame:
    """A game object keeps the runs of its grid starts (PlanarSearch), and a
    search on it reports what the same search on a fresh object does."""

    @pytest.mark.parametrize(
        "game_name", ["table1", "affine_game", "nonuniform_game", "relabelled"]
    )
    def test_a_warm_object_reports_as_a_fresh_one(self, request, table1, game_name):
        if game_name == "relabelled":
            # every type bit flipped and u -> 3/2 u + 1/4
            game = relabelled_copy(table1, (1, 1, 1), (0, 0, 0), Fraction(3, 2), Fraction(1, 4))
        else:
            game = request.getfixturevalue(game_name)
        warm = _fresh(game)
        for seed in range(10):
            for restarts in (30, 1, 12, 4):
                config = OptimizationConfig(restarts=restarts, seed=seed)
                assert _as_reported(maximize_planar(warm, config)) == _as_reported(
                    maximize_planar(_fresh(game), config)
                )

    def test_a_call_polishes_its_random_starts_and_the_grid_points_it_adds(
        self, table1, monkeypatch
    ):
        game = _fresh(table1)
        rows = optimize._planar_rows(game.ghz_weights)
        polished, scans = [], []
        real_nelder_mead, real_grid_starts = optimize._nelder_mead, optimize._grid_starts

        def nelder_mead(objective, x0, *tolerances):
            polished.append(tuple(float(v) for v in x0))
            return real_nelder_mead(objective, x0, *tolerances)

        def grid_starts(rows, restarts):
            scans.append(restarts)
            return real_grid_starts(rows, restarts)

        reports = []
        with monkeypatch.context() as m:
            m.setattr(optimize, "_nelder_mead", nelder_mead)
            m.setattr(optimize, "_grid_starts", grid_starts)
            for seed, restarts, polishes, scan in [
                (0, 12, 12 + 12, [12]),
                (1, 12, 12, []),  # the same restarts: no scan, no grid polish
                (2, 4, 4, []),
                (3, 30, 18 + 30, [30]),  # the 18 grid points that 30 adds
                (4, 30, 30, []),
            ]:
                polished.clear()
                scans.clear()
                config = OptimizationConfig(restarts=restarts, seed=seed)
                reports.append((config, maximize_planar(game, config)))
                assert (len(polished), scans) == (polishes, scan)
                if restarts == 30 and scan:
                    assert polished[:18] == real_grid_starts(rows, 30)[12:]
        for config, report in reports:
            assert _as_reported(report) == _as_reported(maximize_planar(_fresh(table1), config))

    @pytest.mark.parametrize(("seed", "restarts"), [(0, 1), (1, 12), (7, 5), (2**40 + 3, 3)])
    def test_random_starts_are_drawn_with_random_random(
        self, table1, monkeypatch, seed, restarts
    ):
        """On a fresh object the grid starts come first; the random starts
        after them are four uniform(-pi, pi) draws each, in order."""
        polished = []
        real_nelder_mead = optimize._nelder_mead

        def nelder_mead(objective, x0, *tolerances):
            polished.append(tuple(x0))
            return real_nelder_mead(objective, x0, *tolerances)

        monkeypatch.setattr(optimize, "_nelder_mead", nelder_mead)
        maximize_planar(_fresh(table1), OptimizationConfig(restarts=restarts, seed=seed))
        uniform = random.Random(seed).uniform
        draws = [uniform(-math.pi, math.pi) for _ in range(4 * restarts)]
        assert polished[restarts:] == [tuple(draws[k:k + 4]) for k in range(0, 4 * restarts, 4)]


def _tight_polish_values(game: GameDefinition, restarts: int, seeds) -> list[float]:
    """The value maximize_planar reported at each seed before the Newton
    finish, the reference of the finish: every grid and random start
    polished at the tight pair on the undivided rows, its value tolerance
    absolute, and the best run valued at its wrapped angles.  The polish is
    SciPy's with its default initial simplex, the path the in-house polish
    took then, float for float.  The best run has the highest value, and of
    the runs within TIE_WINDOW of it (an absolute window too) the first in
    angle order.  The grid runs are polished once for all the seeds, as a
    game object kept them."""
    rows = optimize._planar_rows(game.ghz_weights)
    objective = optimize._planar_objective(rows)
    xatol, fatol = TOLERANCES["tight"]

    def polish(starts):
        runs = []
        for x0 in starts:
            res = _scipy_nelder_mead(objective, x0, xatol, fatol, default_simplex=True)
            angles = tuple(wrap_angle(v) for v in res.x.tolist())
            runs.append((-float(res.final_simplex[1][0]), angles))
        return runs

    grid = polish(optimize._grid_starts(rows, restarts))
    values = []
    for seed in seeds:
        uniform = random.Random(seed).uniform
        starts = [[uniform(-math.pi, math.pi) for _ in range(4)] for _ in range(restarts)]
        runs = grid + polish(starts)
        vmax = max(run[0] for run in runs)
        best = min((run for run in runs if run[0] >= vmax - TIE_WINDOW), key=lambda run: run[1])
        values.append(objective(best[1]))
    return values


#: _tight_polish_values(player_symmetric_game(g), 30, range(3)) of each
#: game g: the reference of TestNewtonFinish.test_never_below_the_tight_polish,
#: kept here because the tight polish of 30 games takes about 10 s.  The
#: values come from the in-house polish when it started from SciPy's default
#: simplex, as _tight_polish_values still does.  The test recomputes game
#: 25's.
TIGHT_POLISH = {
    0: (1.7682630878461132, 1.7682630878461132, 1.7682630878461132),
    1: (2.6445253312500308, 2.6445253312500308, 2.6445253313171815),
    2: (2.3318654173417874, 2.331865417340728, 2.331865417341787),
    3: (1.6643898675562785, 1.6643898674359106, 1.6643898675861553),
    4: (1.4999999999999982, 1.5, 1.5),
    5: (0.09374999984176569, 0.09374999984176569, 0.09374999984176569),
    6: (1.1382675488084906, 1.1382675487854517, 1.1382675488086116),
    7: (2.78125, 2.78125, 2.78125),
    8: (1.875, 1.875, 1.875),
    9: (1.0, 1.0, 0.9999999999999996),
    10: (1.15625, 1.15625, 1.15625),
    11: (1.5624999999932216, 1.5624999999932216, 1.5624999999932216),
    12: (2.46875, 2.46875, 2.46875),
    13: (1.125, 1.1249999999999993, 1.1249999999999998),
    14: (0.4687499994427681, 0.46874999989794996, 0.46874999989794996),
    15: (0.5617880929600315, 0.5617880929600315, 0.5617880929600315),
    16: (1.0300131045489045, 1.0300131045489045, 1.0300131045489045),
    17: (1.28125, 1.28125, 1.28125),
    18: (2.031249999999061, 2.031249999997137, 2.031249999999061),
    19: (1.634407128324154, 1.6344071286742703, 1.6344071286671744),
    20: (1.3457110305583357, 1.3457110303201416, 1.3457110305159345),
    21: (1.0020770595692954, 1.0020770595692954, 1.0020770595692954),
    22: (2.0729968678807076, 2.0729968678882784, 2.0729968678702226),
    23: (1.1875, 1.1875, 1.1875),
    24: (-0.12263687505731147, -0.12263687505731147, -0.12263687505731147),
    25: (1.3427446869278328, 1.3427446869278328, 1.3427446869278328),
    26: (-0.46875, -0.46875, -0.46875),
    27: (0.31249999994842015, 0.31249999994842015, 0.3124999997651978),
    28: (0.625, 0.625, 0.625),
    29: (2.0624999999999996, 2.062499999999999, 2.062499999995813),
}


def _free_angles(report) -> tuple[float, float, float, float]:
    """The reported (a1, b1, c0, c1)."""
    return tuple(report.setting.phi.flat[[1, 3, 4, 5]].tolist())


def _bell_bound(game: GameDefinition) -> float:
    """c + 4 sqrt(alpha^2 + beta^2), three times the fair value of table1
    and its relabelled copies (see test_acceptance, criterion 11)."""
    c, _, (_, (alpha, beta)) = bell_decomposition(game)
    return float(c) + 4 * math.hypot(alpha, beta)


class TestNewtonFinish:
    """maximize_planar finishes each distinct maximum among the best loose
    runs with Newton's method on the KKT system of the least payoff."""

    @pytest.mark.parametrize("game_name", ["table1", "warped_game", "player_symmetric_25"])
    def test_derivatives_match_finite_differences(self, request, game_name):
        """Each row's value is the one-row objective's float, and its
        gradient and Hessian match central differences of the value and of
        the gradient, at 20 seeded points."""
        if game_name == "player_symmetric_25":
            game = player_symmetric_game(25)
        else:
            game = request.getfixturevalue(game_name)
        rows = optimize._planar_rows(game.ghz_weights)
        h = 1e-5
        for x in np.random.default_rng(9).uniform(-math.pi, math.pi, (20, 4)).tolist():
            for row, (value, grad, hess) in zip(rows, optimize._derivatives(rows, tuple(x))):
                f = optimize._planar_objective([row])
                assert value == f(tuple(x))
                for i in range(4):
                    up = tuple(v + h * (i == j) for j, v in enumerate(x))
                    down = tuple(v - h * (i == j) for j, v in enumerate(x))
                    assert grad[i] == pytest.approx((f(up) - f(down)) / (2 * h), abs=1e-9)
                    (_, g_up, _), = optimize._derivatives([row], up)
                    (_, g_down, _), = optimize._derivatives([row], down)
                    for j in range(4):
                        assert hess[i][j] == hess[j][i]
                        assert hess[j][i] == pytest.approx(
                            (g_up[j] - g_down[j]) / (2 * h), abs=1e-9
                        )

    def test_solve_matches_numpy(self):
        """The pure-Python elimination solves seeded systems of 4 to 6
        unknowns as numpy.linalg.solve does, and reports a zero pivot."""
        rng = np.random.default_rng(4)
        for n in (4, 5, 6) * 10:
            a, b = rng.normal(size=(n, n)), rng.normal(size=n)
            got = optimize._solve(a.tolist(), b.tolist())
            assert np.allclose(got, np.linalg.solve(a, b), rtol=1e-9, atol=1e-12)
        assert optimize._solve([[1.0, 2.0], [2.0, 4.0]], [1.0, 1.0]) is None

    def test_a_row_with_a_negative_multiplier_leaves_the_active_set(self, table1):
        """Table1's row, and a copy raised by 1e-4 + 1e-3 sin c0: near
        table1's optimum the copy lies within the active window, above the
        row, but it is not active at the maximum.  Newton's first step on
        both rows gives it a negative multiplier; it leaves, and the finish
        returns the one-row maximum."""
        (row,) = table1.planar_search.rows
        raised = (row[0] + 1e-4, row[1] + 1e-3, *row[2:])
        optimum = (-math.pi / 2, -math.pi / 2, 2.15879893034, 0.588002603548)
        x0 = tuple(v + 0.01 for v in optimum)
        gap = optimize._planar_objective([raised])(x0) - optimize._planar_objective([row])(x0)
        assert 0 < gap < optimize.ACTIVE_WINDOW
        x = optimize._newton([row, raised], x0)
        assert x is not None and x == optimize._newton([row], x0)

    def test_table1_optimum_is_exact(self, table1):
        """Table1's angles to 12 digits, whatever the seed's path, and three
        times the value is the Bell bound c + 4 sqrt(alpha^2 + beta^2)."""
        report = maximize_planar(_fresh(table1))
        assert [f"{v:.12g}" for v in _free_angles(report)] == [
            f"{-math.pi / 2:.12g}", f"{-math.pi / 2:.12g}", "2.15879893034", "0.588002603548",
        ]
        assert abs(3 * report.value - _bell_bound(table1)) <= 4e-16
        assert report.converged

    @pytest.mark.parametrize("copy", [None, 0, 1, 2, 3])
    def test_every_seed_reaches_the_bell_bound(self, table1, copy):
        """Seeds 0-59 on table1 and on four seeded relabelled copies all
        converge, to the Bell bound within 1e-12 of the value's size."""
        game = table1 if copy is None else relabelled_copy(table1, *seeded_relabelling(copy))
        value = _bell_bound(game) / 3
        for seed in range(60):
            report = maximize_planar(game, OptimizationConfig(seed=seed))
            assert report.converged
            assert abs(report.value - value) <= 1e-12 * max(1.0, abs(value))

    def test_never_below_the_tight_polish(self, monkeypatch):
        """On 30 seeded player-symmetric games (three rows each), at 30
        restarts and seeds 0-2, every search converges, and its value is
        never below the tight polish's (TIGHT_POLISH, and game 25's from
        _tight_polish_values) by more than 1e-15 of the game's scale.  Game
        25 gains 9.2e-10 at every seed: the tight polish stops short of its
        maximum.  At most NEWTON_FALLBACKS of the Newton finishes fail and
        fall back to a tight polish.  Every polish, loose or tight,
        converges within POLISH_EVALUATIONS evaluations, far inside the
        budget NM_MAX_FEV: no run here reaches it."""
        assert _tight_polish_values(player_symmetric_game(25), 30, range(3)) == list(
            TIGHT_POLISH[25]
        )
        failed = []
        real_newton = optimize._newton

        def newton(rows, x0):
            x = real_newton(rows, x0)
            failed.append(x is None)
            return x

        polishes = []  # (evaluations, converged) of each polish
        real_nelder_mead = optimize._nelder_mead

        def nelder_mead(objective, x0, xatol, fatol):
            calls = 0

            def counted(x):
                nonlocal calls
                calls += 1
                return objective(x)

            result = real_nelder_mead(counted, x0, xatol, fatol)
            polishes.append((calls, result[2]))
            return result

        monkeypatch.setattr(optimize, "_newton", newton)
        monkeypatch.setattr(optimize, "_nelder_mead", nelder_mead)
        gains = {}
        for game_seed in range(30):
            game = player_symmetric_game(game_seed)
            scale = game.planar_search.scale
            for seed, reference in enumerate(TIGHT_POLISH[game_seed]):
                report = maximize_planar(game, OptimizationConfig(restarts=30, seed=seed))
                assert report.converged
                assert report.value >= reference - 1e-15 * scale
                gains[game_seed, seed] = report.value - reference
        for seed in range(3):
            assert gains[25, seed] == pytest.approx(GAME_25_GAIN, abs=1e-14)
        assert sum(failed) <= NEWTON_FALLBACKS
        assert polishes and all(converged for _, converged in polishes)
        assert max(calls for calls, _ in polishes) <= POLISH_EVALUATIONS

    def test_a_failed_finish_falls_back_to_a_tight_polish(self, table1, monkeypatch):
        """With every Newton finish failed, each point is polished again from
        its loose vertex at the tight pair, and the report is one of those
        polishes, its flag too: never a loose vertex."""
        game = _fresh(table1)
        search = game.planar_search
        uniform = random.Random(2).uniform
        starts = [[uniform(-math.pi, math.pi) for _ in range(4)] for _ in range(4)]
        loose = search.grid_runs(4) + search.polish(starts)
        monkeypatch.setattr(optimize, "_newton", lambda rows, x0: None)
        report = maximize_planar(game, OptimizationConfig(restarts=4, seed=2))
        xatol, fatol = TOLERANCES["tight"]
        tight = optimize._polish(search.objective, [run[1] for run in loose], xatol, fatol)
        angles = _free_angles(report)
        (match,) = {run for run in tight if run[1] == angles}
        assert report.converged is match[2]
        assert angles not in {run[1] for run in loose}
        assert search.objective(angles) >= max(run[0] for run in loose)
        assert report.value == search.objective(angles) * search.scale


#: What the Newton finish gains over the tight polish on player-symmetric
#: game 25 (see TestNewtonFinish.test_never_below_the_tight_polish).
GAME_25_GAIN = 9.20873e-10
#: Newton finishes that fail on the 30 player-symmetric games of
#: test_never_below_the_tight_polish: 41 of 686.
NEWTON_FALLBACKS = 41
#: The most evaluations any polish of that test may make (886 measured).
POLISH_EVALUATIONS = 1000


class TestPolishEvaluations:
    def test_loose_polishes_average_at_most_110_evaluations(self, table1, monkeypatch):
        """The loose polishes of seeds 0-4 on fresh objects of table1 and
        four seeded relabelled copies, 600 polishes, evaluate the objective
        at most 110 times each on average (107.6)."""
        evaluations = []
        real_nelder_mead = optimize._nelder_mead

        def nelder_mead(objective, x0, xatol, fatol):
            calls = 0

            def counted(x):
                nonlocal calls
                calls += 1
                return objective(x)

            result = real_nelder_mead(counted, x0, xatol, fatol)
            if (xatol, fatol) == TOLERANCES["loose"]:
                evaluations.append(calls)
            return result

        monkeypatch.setattr(optimize, "_nelder_mead", nelder_mead)
        games = [table1] + [
            relabelled_copy(table1, *seeded_relabelling(copy)) for copy in range(4)
        ]
        for game in games:
            for seed in range(5):
                maximize_planar(_fresh(game), OptimizationConfig(seed=seed))
        assert len(evaluations) == 5 * 5 * 24
        assert sum(evaluations) / len(evaluations) <= 110


class TestBoundHierarchyLP:
    """Linear programs over the 64 entries p(y|x), built from the utilities
    and the prior alone: the best total payoff over the local polytope is
    9/4, over the no-signalling polytope 23/8, and the GHZ optimum lies
    strictly between them."""

    @pytest.fixture(scope="class")
    def linprog(self):
        return pytest.importorskip("scipy.optimize").linprog

    @staticmethod
    def max_total(
        linprog, game: GameDefinition, a_eq: np.ndarray, b_eq: np.ndarray
    ) -> float:
        """Maximum of sum_x prior(x) sum_y p(y|x) sum_i u_i(x, y) over the
        variables [p(y|x) for x, y in profile order] + extra, in [0, 1],
        subject to a_eq @ variables == b_eq."""
        total = [
            float(w * sum(table_entry(game.utilities, p, x, y) for p in PLAYERS))
            for x, w in zip(PROFILES, game.prior.weights)
            for y in PROFILES
        ]
        c = -np.array(total + [0.0] * (a_eq.shape[1] - 64))
        res = linprog(c, A_eq=a_eq, b_eq=b_eq, bounds=(0, 1), method="highs")
        assert res.status == 0, res.message
        return -res.fun

    def test_local_polytope_gives_the_classical_bound(self, linprog, table1):
        """p(y|x) = sum_s w_s [s(x) = y] over the 64 deterministic local
        strategies s, each player's action a function of their own type."""
        own = list(product((0, 1), repeat=2))  # (action at type 0, at type 1)
        strategies = list(product(own, repeat=3))
        a_eq = np.zeros((64 + 1, 64 + len(strategies)))
        for xi, x in enumerate(PROFILES):
            for yi, y in enumerate(PROFILES):
                a_eq[8 * xi + yi, 8 * xi + yi] = 1.0
                for si, s in enumerate(strategies):
                    if all(s[j][x[j]] == y[j] for j in range(3)):
                        a_eq[8 * xi + yi, 64 + si] = -1.0
        a_eq[64, 64:] = 1.0
        b_eq = np.zeros(64 + 1)
        b_eq[64] = 1.0
        assert self.max_total(linprog, table1, a_eq, b_eq) == pytest.approx(9 / 4, abs=1e-9)

    def test_no_signalling_polytope_gives_23_8(self, linprog, table1):
        """8 normalisation rows, and 48 rows that keep the marginal of any
        two players' actions independent of the third player's type."""
        index = {
            (x, y): 8 * xi + yi
            for xi, x in enumerate(PROFILES)
            for yi, y in enumerate(PROFILES)
        }
        rows = []
        for x in PROFILES:
            row = np.zeros(64)
            row[[index[x, y] for y in PROFILES]] = 1.0
            rows.append(row)
        for j in range(3):
            for x in PROFILES:
                if x[j]:
                    continue
                flipped = tuple(1 - v if i == j else v for i, v in enumerate(x))
                for rest in product((0, 1), repeat=2):
                    row = np.zeros(64)
                    for y_j in (0, 1):
                        y = rest[:j] + (y_j,) + rest[j:]
                        row[index[x, y]] += 1.0
                        row[index[flipped, y]] -= 1.0
                    rows.append(row)
        a_eq = np.array(rows)
        assert a_eq.shape == (8 + 48, 64)
        b_eq = np.array([1.0] * 8 + [0.0] * 48)
        assert self.max_total(linprog, table1, a_eq, b_eq) == pytest.approx(23 / 8, abs=1e-9)

    def test_quantum_optimum_lies_strictly_between(self):
        assert 9 / 4 < 3 * ANALYTIC_OPTIMUM < 23 / 8


def _polishes(run) -> list:
    """(objective, start) of every Nelder-Mead polish that run() makes."""
    polishes = []
    real = optimize._nelder_mead

    def record(objective, x0, *tolerances):
        polishes.append((objective, list(x0)))
        return real(objective, x0, *tolerances)

    with pytest.MonkeyPatch.context() as m:
        m.setattr(optimize, "_nelder_mead", record)
        run()
    return polishes


def _rounded_bowl(x: list[float]) -> float:
    """A quadratic rounded to 1e-2: whole simplexes tie near its top."""
    return -round(sum((v - 0.3) ** 2 for v in x), 2)


def _stepped_cone(x: list[float]) -> float:
    """A cone rounded to 5e-11, half the value tolerance: converged
    simplexes hold values that tie and values a step or two apart."""
    return -round(sum(abs(v - 0.3) for v in x) / 5e-11) * 5e-11


def _hash_noise(x: list[float]) -> float:
    """A pseudo-random value of the point: Nelder-Mead shrinks and shrinks
    on it and may spend its whole evaluation budget."""
    s = sum(math.sin(12.9898 * (k + 1) * v) for k, v in enumerate(x))
    return (s * 43758.5453) % 1.0


def _inf_edge(x: list[float]) -> float:
    """-inf below x[-1] = -0.5, and a bowl that peaks at -0.4 above it."""
    return -math.inf if x[-1] < -0.5 else -sum((v + 0.4) ** 2 for v in x)


class TestPolishMatchesScipy:
    """The in-house Nelder-Mead against scipy.optimize.minimize with the same
    options and a stable argsort, the oracle: the same point, value (the
    first of the final simplex) and success flag, by == and by repr, and as
    many evaluations, fewer than NM_MAX_FEV + 6.  SciPy runs with no
    iteration cap and maxfev the larger of NM_MAX_FEV and the polish's
    evaluations, so the two agree on runs the budget cuts short too.  The
    objectives never return NaN, as the planar objective never does.  Each
    case runs at both tolerance pairs of TOLERANCES."""

    @staticmethod
    def oracle_at(pair: str):
        """SciPy's Nelder-Mead at the tolerance pair of that name, which it
        keeps as its ``tolerances``, with an evaluation budget."""
        tolerances = TOLERANCES[pair]

        def oracle(objective, x0, maxfev):
            return _scipy_nelder_mead(objective, x0, *tolerances, maxfev)

        oracle.tolerances = tolerances
        return oracle

    @pytest.fixture(scope="class", params=sorted(TOLERANCES))
    def oracle(self, request):
        return self.oracle_at(request.param)

    @staticmethod
    def assert_same_path(oracle, objective, x0, scipy_objective=None):
        """The polish of ``objective`` from ``x0`` against SciPy's run on
        ``scipy_objective`` (a fresh copy of a stateful objective; by
        default the same one); returns SciPy's result."""
        calls = 0

        def counted(x):
            nonlocal calls
            calls += 1
            return objective(x)

        got = optimize._nelder_mead(counted, x0, *oracle.tolerances)
        res = oracle(scipy_objective or objective, x0, max(optimize.NM_MAX_FEV, calls))
        expected = (res.x.tolist(), -float(res.final_simplex[1][0]), bool(res.success))
        assert repr(got) == repr(expected)  # the signs of zeros
        assert got == expected
        assert res.nfev == calls < optimize.NM_MAX_FEV + 6
        return res

    @classmethod
    def assert_same_paths(cls, oracle, polishes) -> list:
        return [cls.assert_same_path(oracle, objective, x0) for objective, x0 in polishes]

    # Each search runs on a fresh copy of its game, which keeps no grid
    # runs yet, so that every grid and random polish is compared.

    def test_planar_objective_on_table1(self, oracle, table1):
        polishes = _polishes(
            lambda: [
                maximize_planar(_fresh(table1), OptimizationConfig(seed=s))
                for s in range(4)
            ]
        )
        assert len(polishes) == 4 * 24
        self.assert_same_paths(oracle, polishes)

    def test_planar_objective_on_affine_game(self, oracle, affine_game, nonuniform_game):
        """The affine copy has one payoff row, as table1 has; the non-uniform
        prior gives the players three distinct rows."""
        polishes = _polishes(
            lambda: [
                maximize_planar(_fresh(game), OptimizationConfig(seed=s))
                for game in (affine_game, nonuniform_game)
                for s in range(2)
            ]
        )
        assert len(polishes) == 2 * 2 * 24
        self.assert_same_paths(oracle, polishes)

    @staticmethod
    def best_response_polishes(candidate, config, grid=optimize.GRID) -> list:
        """(objective, start) of every polish of the full-sphere
        best-response search at ``candidate``."""
        searches = _best_response_searches(candidate, "full_sphere", config, grid)
        return [(objective, list(x0)) for objective, _, starts in searches for x0 in starts]

    def test_best_response_objective_at_the_optimum(self, oracle, reference_angles):
        polishes = self.best_response_polishes(
            MeasurementSetting.planar(reference_angles), OptimizationConfig(seed=1)
        )
        assert len(polishes) == 3 * 12
        self.assert_same_paths(oracle, polishes)

    def test_best_response_objective_in_4d(self, oracle):
        polishes = self.best_response_polishes(
            TILTED, OptimizationConfig(restarts=2, seed=2), grid=8
        )
        assert len(polishes) == 3 * 6 and len(polishes[0][1]) == 4
        self.assert_same_paths(oracle, polishes)

    def test_run_to_the_evaluation_limit(self, oracle, monkeypatch):
        """Runs that stop at the budget, not converged.  At the tight pair
        some runs from these starts spend the whole evaluation budget.  At
        the loose pair every run converges within 252 to 275 evaluations, so
        there the budget is cut to 260: some runs stop at it, and others
        converge first."""
        if oracle.tolerances == TOLERANCES["loose"]:
            monkeypatch.setattr(optimize, "NM_MAX_FEV", 260)
        rng = np.random.default_rng(7)
        polishes = [
            (_hash_noise, list(x0))
            for x0 in rng.uniform(-3, 3, size=(8, 4))
        ]
        results = self.assert_same_paths(oracle, polishes)
        limited = [r for r in results if r.nfev >= optimize.NM_MAX_FEV]
        assert limited and not any(r.success for r in limited)
        assert len(limited) < len(results)

    def test_the_budget_runs_out_inside_every_kind_of_step(self, oracle, monkeypatch):
        """With a budget of 24 evaluations, scripted objectives spend it
        inside each kind of step that evaluates after the reflection: the
        expansion, the outside and the inside contraction, and a shrink (with
        a budget of 20).  Each step runs to its end, and the run equals
        SciPy's with maxfev set to its own evaluation count, which is below
        NM_MAX_FEV + 6.  A fifth script spends the budget at the end of a
        step, and no further step starts.  Each script gives the values to be
        minimized (the negated objective) call by call, then 100, no better
        than any vertex.  A step whose reflection and inside contraction do
        no better than the worst vertex shrinks the simplex: six
        evaluations."""
        start, shrink = [1, 2, 3, 4, 5], [100, 100, 2, 3, 4, 5]
        scripts = {
            # one step keeps its reflection, three shrink at 100: 6 + 18
            "end of a step": (24, start + [1.5], 24),
            # three steps shrink at 100, then the reflection beats the best
            "expansion": (24, start + [100] * 18 + [0], 25),
            # three finite shrinks, then a reflection between the two worst;
            # its contraction does worse, and the simplex shrinks
            "outside contraction": (24, start + shrink * 3 + [4.5], 29),
            # the same, then a reflection no better than the worst
            "inside contraction": (24, start + shrink * 3 + [100], 29),
            # 100 everywhere: the third step starts at 17 evaluations, and
            # its shrink's second vertex is the 21st
            "shrink": (20, [], 23),
        }
        for step, (budget, script, evaluations) in scripts.items():
            monkeypatch.setattr(optimize, "NM_MAX_FEV", budget)

            def scripted(script=script):
                values = iter(script)
                return lambda x: -next(values, 100)

            res = self.assert_same_path(
                oracle, scripted(), [0.3, -1.2, 2.0, 0.7], scripted()
            )
            assert res.nfev == evaluations and not res.success, step

    def test_tied_values_keep_their_order(self, oracle, monkeypatch):
        """Tied vertices keep the order they stand in, as
        np.argsort(kind="stable") orders them: numpy's default argsort puts
        the three tied ones of (2, 1, 1, 1, 0) in the order 1, 3, 2 on some
        CPUs and 1, 2, 3 on others.  The rounded bowl ties often, and every
        sort of its runs keeps that order."""
        sort = optimize._sort_simplex
        assert sort([2.0, 1.0, 1.0, 1.0, 0.0], list("abcde")) == (
            [0.0, 1.0, 1.0, 1.0, 2.0], list("ebcda")
        )
        assert repr(sort([1.0, 0.0, 1.0, -0.0, -1.0], list("abcde"))) == repr(
            ([-1.0, 0.0, -0.0, 1.0, 1.0], list("ebdac"))
        )
        real_sort = optimize._sort_simplex
        tie_sorts = []

        def spy(fsim, sim):
            ordered = real_sort(fsim, sim)
            order = np.argsort(fsim, kind="stable").tolist()
            assert ordered == ([fsim[i] for i in order], [sim[i] for i in order])
            tie_sorts.append(len(set(fsim)) < len(fsim))
            return ordered

        monkeypatch.setattr(optimize, "_sort_simplex", spy)
        rng = np.random.default_rng(11)
        polishes = [
            (_rounded_bowl, list(x0))
            for x0 in rng.uniform(-3, 3, size=(20, 4))
        ]
        self.assert_same_paths(oracle, polishes)
        assert any(tie_sorts)

    @pytest.mark.parametrize("objective", [_inf_edge])
    # scipy's own convergence test subtracts inf from inf
    @pytest.mark.filterwarnings("ignore:invalid value:RuntimeWarning")
    def test_non_finite_values(self, oracle, objective):
        """An objective that is -inf in part of the space, from 20 starts.
        Starts outside the -inf part converge; starts inside it never leave
        it and run to the evaluation limit."""
        values = []

        def recorded(x: list[float]) -> float:
            values.append(objective(x))
            return values[-1]

        rng = np.random.default_rng(13)
        polishes = [
            (recorded, list(x0))
            for x0 in rng.uniform(-2, 2, size=(20, 4))
        ]
        results = self.assert_same_paths(oracle, polishes)
        assert not all(map(math.isfinite, values))
        assert any(r.success for r in results)
        assert any(r.nfev >= optimize.NM_MAX_FEV and not r.success for r in results)

    def test_converge_with_a_tie_at_the_minimum_only(self):
        """Runs that stop with some, not all, vertex values tied: scipy
        leaves the loop before its end-of-iteration sort, and so does the
        port.  The cone's step is half the value tolerance of the tight
        pair, the one this case runs at."""
        oracle = self.oracle_at("tight")
        rng = np.random.default_rng(5)
        polishes = [
            (_stepped_cone, list(x0))
            for x0 in rng.uniform(-3, 3, size=(20, 4))
        ]
        results = self.assert_same_paths(oracle, polishes)
        partial = [
            r for r in results
            if r.success and r.final_simplex[1][0] == r.final_simplex[1][1]
            and r.final_simplex[1][0] != r.final_simplex[1][-1]
        ]
        assert partial

    def test_value_of_tied_signed_zeros_is_the_first_vertexs(self, oracle):
        """With tied vertex values the reported value is that of the first
        vertex, the one returned, with its sign: np.min, which scipy
        reports as fun, may pick either zero, and which one depends on the
        CPU."""
        def signed_zero(x: list[float]) -> float:
            return 0.0 if x[0] > 0.3 else -0.0

        x0 = [0.3, 0.0, 0.0, 0.0]
        (res,) = self.assert_same_paths(oracle, [(signed_zero, x0)])
        # the objective's values at the final vertices: the first is x0
        values = [-v for v in res.final_simplex[1].tolist()]
        assert res.x.tolist() == x0 and repr(values) == repr([-0.0, 0.0, -0.0, -0.0, -0.0])
