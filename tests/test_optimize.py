import math
from fractions import Fraction

import numpy as np
import pytest

from bellgame import optimize
from bellgame.game import Prior, UtilityTable, ValidationError, affine_transform
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
    BlochObservable,
    MeasurementSetting,
    PlanarAngles,
    gauge_equivalent,
    ghz_advisor,
    ghz_payoffs,
    ghz_weights,
    quantum_payoffs,
)

#: Exact maximum of the reduced planar objective, derived by maximizing
#: (26 + 6 sin c0 - 4 cos c0 + 4 sin c1 + 6 cos c1) / 48 after substituting
#: a1 = b1 = -pi/2: each bracket peaks at sqrt(52), so the value is
#: (26 + 2*sqrt(52)) / 48 = (13 + 2*sqrt(13)) / 24.
ANALYTIC_OPTIMUM = (13 + 2 * math.sqrt(13)) / 24

FAST = OptimizationConfig(restarts=4, grid=8, seed=0)


@pytest.fixture(scope="module")
def default_report():
    return maximize_planar()


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
        assert default_report.angles.a0 == 0.0
        assert default_report.angles.b0 == 0.0
        assert gauge_equivalent(default_report.angles, reference_angles, tol=1e-3)

    def test_value_consistent_with_closed_form(self, default_report, table1):
        weights = ghz_weights(table1.utilities, table1.prior)
        theta, phi = MeasurementSetting.planar(default_report.angles).bloch_angles()
        engine = ghz_payoffs(weights, theta, phi)
        assert abs(default_report.value - min(engine)) < 1e-10
        assert abs(default_report.value - max(engine)) < 1e-10

    def test_affine_copy_reaches_mapped_optimum_on_same_orbit(
        self, table1, reference_angles
    ):
        alpha, beta = Fraction(7, 3), Fraction(-5, 2)
        game = GameDefinition(affine_transform(table1.utilities, alpha, beta), table1.prior)
        report = maximize_planar(OptimizationConfig(restarts=4, grid=8, seed=3), game)
        assert report.value == pytest.approx(
            float(alpha) * ANALYTIC_OPTIMUM + float(beta), abs=1e-9
        )
        assert gauge_equivalent(report.angles, reference_angles, tol=1e-3)
        assert report.converged

    def test_payoffs_and_bells_at_optimum(self, default_report):
        for v in default_report.payoffs:
            assert v == pytest.approx(default_report.value, abs=1e-10)
        v011, v100 = default_report.bell_values
        assert v011 == pytest.approx(12 / math.sqrt(13), abs=1e-6)
        assert v100 == pytest.approx(-8 / math.sqrt(13), abs=1e-6)
        assert default_report.converged

    def test_coarse_config_is_close(self):
        report = maximize_planar(OptimizationConfig(restarts=1, grid=8))
        assert report.value > ANALYTIC_OPTIMUM - 0.05

    def test_deterministic_for_fixed_seed(self):
        config = OptimizationConfig(restarts=3, grid=8, seed=5)
        assert maximize_planar(config) == maximize_planar(config)

    def test_value_monotone_in_restarts(self):
        values = [
            maximize_planar(OptimizationConfig(restarts=r, grid=8, seed=0)).value
            for r in (1, 2, 4, 8)
        ]
        for earlier, later in zip(values, values[1:]):
            assert later >= earlier - TIE_WINDOW

    def test_seeds_agree_on_value_and_orbit(self):
        reports = [
            maximize_planar(OptimizationConfig(restarts=6, grid=8, seed=s))
            for s in range(4)
        ]
        for r in reports[1:]:
            same_orbit = gauge_equivalent(r.angles, reports[0].angles, tol=1e-4)
            same_value = abs(r.value - reports[0].value) < 1e-6
            assert same_value
            assert same_orbit or same_value

    def test_invalid_configs_rejected(self):
        with pytest.raises(ValidationError, match="grid"):
            OptimizationConfig(grid=4)
        for tol in (0, -1e-10, float("nan"), float("inf")):
            with pytest.raises(ValidationError, match="tolerance"):
                OptimizationConfig(tol=tol)
        with pytest.raises(ValidationError, match="seed"):
            OptimizationConfig(seed=-1)
        with pytest.raises(ValidationError, match="restarts"):
            OptimizationConfig(restarts=0)


class TestBestResponse:
    def test_optimum_is_certified_planar_equilibrium(self, default_report):
        verdict = best_response_check(
            MeasurementSetting.planar(default_report.angles), "planar", FAST
        )
        assert verdict.mode == "planar"
        for response in verdict.responses:
            assert response.improvement < EQUILIBRIUM_IMPROVEMENT_TOL
        assert verdict.is_equilibrium

    def test_zero_angles_are_not_optimal(self):
        verdict = best_response_check(
            MeasurementSetting.planar(PlanarAngles(0, 0, 0, 0, 0, 0)),
            "planar",
            FAST,
        )
        assert verdict.max_improvement > 0.01
        assert not verdict.is_equilibrium

    def test_full_sphere_probe_at_optimum(self, default_report):
        # exploratory: polar deviations are allowed; regression anchor is
        # that none of the players gains anything measurable
        verdict = best_response_check(
            MeasurementSetting.planar(default_report.angles),
            "full_sphere",
            OptimizationConfig(restarts=2, grid=8, seed=0),
        )
        assert verdict.mode == "full_sphere"
        for response in verdict.responses:
            assert math.isfinite(response.improvement)
            assert response.improvement < 1e-5
        assert {r.player.name for r in verdict.responses} == {"A", "B", "C"}

    def test_baseline_matches_trace_rule_at_tilted_candidate(self, table1):
        candidate = MeasurementSetting(
            (BlochObservable(0.3, 0.1), BlochObservable(1.2, -2.0)),
            (BlochObservable(2.5, 0.7), BlochObservable(0.9, 1.4)),
            (BlochObservable(1.7, -0.4), BlochObservable(0.2, 3.0)),
        )
        verdict = best_response_check(candidate, "full_sphere", FAST)
        oracle = quantum_payoffs(table1.utilities, table1.prior, ghz_advisor(), candidate)
        assert verdict.baseline == pytest.approx(oracle, abs=1e-10)
        assert verdict.max_improvement > 0.01
        for response in verdict.responses:
            deviated = candidate.replace_player(response.player, response.observables)
            payoff = quantum_payoffs(
                table1.utilities, table1.prior, ghz_advisor(), deviated
            )[response.player]
            assert response.payoff == pytest.approx(payoff, abs=1e-10)

    def test_unknown_mode_rejected(self, reference_angles):
        with pytest.raises(ValidationError, match="mode"):
            best_response_check(
                MeasurementSetting.planar(reference_angles), "spherical", FAST
            )


class TestAdvantageReport:
    def test_bundled_game_summary(self):
        report = quantum_advantage_report()
        assert report.classical_total_bound == Fraction(9, 4)
        assert report.classical_fair_cap == Fraction(3, 4)
        assert report.optimum.value == pytest.approx(0.842, abs=1e-3)
        assert report.advantage == pytest.approx(0.0921, abs=1e-3)
        assert report.quantum_total == pytest.approx(3 * ANALYTIC_OPTIMUM, abs=1e-6)
        assert report.quantum_total > 9 / 4
        assert report.beats_classical

    def test_constant_game_has_no_advantage(self):
        c = Fraction(7, 3)
        game = GameDefinition(UtilityTable.constant(c), Prior.uniform())
        report = quantum_advantage_report(game, OptimizationConfig(restarts=2, grid=8))
        assert report.classical_total_bound == 3 * c
        assert report.classical_fair_cap == c
        assert report.optimum.value == pytest.approx(float(c), abs=1e-9)
        assert report.advantage == pytest.approx(0.0, abs=1e-9)

    def test_report_optimum_matches_direct_call(self):
        config = OptimizationConfig(restarts=2, grid=8, seed=0)
        report = quantum_advantage_report(builtin_game(), config)
        assert report.optimum == maximize_planar(config)


def _polishes(run) -> list:
    """(objective, start, config) of every Nelder-Mead polish that run() makes."""
    polishes = []
    real = optimize._nelder_mead

    def record(objective, x0, config):
        polishes.append((objective, list(x0), config))
        return real(objective, x0, config)

    with pytest.MonkeyPatch.context() as m:
        m.setattr(optimize, "_nelder_mead", record)
        run()
    return polishes


def _rounded_bowl(x: list[float]) -> float:
    """A quadratic rounded to 1e-2: whole simplexes tie near its top."""
    return -round(sum((v - 0.3) ** 2 for v in x), 2)


def _stepped_cone(x: list[float]) -> float:
    """A cone rounded to 1e-10, the value tolerance: converged simplexes
    hold values that tie and values a step apart."""
    return -round(sum(abs(v - 0.3) for v in x) / 1e-10) * 1e-10


def _hash_noise(x: list[float]) -> float:
    """A pseudo-random value of the point: Nelder-Mead shrinks and shrinks
    on it and may spend its whole evaluation budget."""
    s = sum(math.sin(12.9898 * (k + 1) * v) for k, v in enumerate(x))
    return (s * 43758.5453) % 1.0


class TestPolishMatchesScipy:
    """The in-house Nelder-Mead against scipy.optimize.minimize with the same
    options, the oracle: the same point, value and success flag, by ==."""

    @pytest.fixture(scope="class")
    def oracle(self):
        minimize = pytest.importorskip("scipy.optimize").minimize

        def oracle(objective, x0, config):
            return minimize(
                lambda x: -objective(x.tolist()),
                np.asarray(x0, dtype=float),
                method="Nelder-Mead",
                options={
                    "xatol": optimize.NM_XATOL,
                    "fatol": config.tol,
                    "maxiter": optimize.NM_MAX_ITER,
                    "maxfev": 4 * optimize.NM_MAX_ITER,
                },
            )

        return oracle

    @staticmethod
    def assert_same_paths(oracle, polishes) -> list:
        results = []
        for objective, x0, config in polishes:
            res = oracle(objective, x0, config)
            got = optimize._nelder_mead(objective, x0, config)
            expected = (res.x.tolist(), -float(res.fun), bool(res.success))
            assert got == expected
            assert repr(got) == repr(expected)  # the signs of zeros too
            results.append(res)
        return results

    def test_planar_objective_on_table1(self, oracle):
        polishes = _polishes(
            lambda: [maximize_planar(OptimizationConfig(seed=s)) for s in range(4)]
        )
        assert len(polishes) == 4 * 24
        self.assert_same_paths(oracle, polishes)

    def test_planar_objective_on_affine_game(self, oracle, affine_game):
        polishes = _polishes(
            lambda: [
                maximize_planar(OptimizationConfig(seed=s), affine_game) for s in range(2)
            ]
        )
        assert len(polishes) == 2 * 24
        self.assert_same_paths(oracle, polishes)

    def test_best_response_objective_in_2d(self, oracle, reference_angles):
        polishes = _polishes(
            lambda: best_response_check(
                MeasurementSetting.planar(reference_angles), "planar",
                OptimizationConfig(seed=1),
            )
        )
        assert len(polishes) == 3 * 12 and len(polishes[0][1]) == 2
        self.assert_same_paths(oracle, polishes)

    def test_best_response_objective_in_4d(self, oracle):
        candidate = MeasurementSetting(
            (BlochObservable(0.3, 0.1), BlochObservable(1.2, -2.0)),
            (BlochObservable(2.5, 0.7), BlochObservable(0.9, 1.4)),
            (BlochObservable(1.7, -0.4), BlochObservable(0.2, 3.0)),
        )
        polishes = _polishes(
            lambda: best_response_check(
                candidate, "full_sphere", OptimizationConfig(restarts=2, grid=8, seed=2)
            )
        )
        assert len(polishes) == 3 * 6 and len(polishes[0][1]) == 4
        self.assert_same_paths(oracle, polishes)

    def test_run_to_the_evaluation_limit(self, oracle):
        rng = np.random.default_rng(7)
        polishes = [
            (_hash_noise, list(x0), OptimizationConfig())
            for x0 in rng.uniform(-3, 3, size=(8, 4))
        ]
        results = self.assert_same_paths(oracle, polishes)
        limited = [r for r in results if r.nfev == 4 * optimize.NM_MAX_ITER]
        assert limited and not any(r.success for r in limited)

    def test_tied_values_follow_numpy_argsort(self, oracle, monkeypatch):
        """Tied vertices are ordered as np.argsort orders them, which need
        not be the order of a stable sort."""
        real_sort = optimize._sort_simplex
        tie_sorts = []

        def spy(sim, fsim):
            tie_sorts.append(len(set(fsim)) < len(fsim))
            return real_sort(sim, fsim)

        monkeypatch.setattr(optimize, "_sort_simplex", spy)
        rng = np.random.default_rng(11)
        polishes = [
            (_rounded_bowl, list(x0), OptimizationConfig())
            for dim in (2, 4)
            for x0 in rng.uniform(-3, 3, size=(10, dim))
        ]
        self.assert_same_paths(oracle, polishes)
        assert any(tie_sorts)

    def test_converge_with_a_tie_at_the_minimum_only(self, oracle):
        """Runs that stop with some, not all, vertex values tied: scipy
        leaves the loop before its end-of-iteration sort, and so does the
        port."""
        rng = np.random.default_rng(5)
        polishes = [
            (_stepped_cone, list(x0), OptimizationConfig())
            for dim in (2, 3)
            for x0 in rng.uniform(-3, 3, size=(10, dim))
        ]
        results = self.assert_same_paths(oracle, polishes)
        partial = [
            r for r in results
            if r.success and r.final_simplex[1][0] == r.final_simplex[1][1]
            and r.final_simplex[1][0] != r.final_simplex[1][-1]
        ]
        assert partial

    def test_value_of_tied_signed_zeros_is_numpy_min(self, oracle):
        """With tied vertex values the reported value is np.min's pick, as
        in scipy: here the sort keeps 0.0 first and np.min returns -0.0."""
        def signed_zero(x: list[float]) -> float:
            return 0.0 if x[0] > 0.3 else -0.0

        self.assert_same_paths(oracle, [(signed_zero, [0.3], OptimizationConfig())])
