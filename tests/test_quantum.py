import json
import math
from fractions import Fraction
from functools import reduce
from operator import add
from pathlib import Path

import numpy as np
import pytest
from hypothesis import Phase, given, settings
from hypothesis import strategies as st

from bellgame.builtin import builtin_game
from bellgame.classical import BellVariant, bell_expression, correlator
from bellgame.game import (
    PROFILES,
    Player,
    Prior,
    UtilityTable,
    ValidationError,
    expected_payoffs,
    no_signalling_residual,
)
from bellgame.quantum import (
    GHZ_FEATURES,
    MAGNITUDE_LIMIT,
    PAULI_X,
    PAULI_Y,
    PAULI_Z,
    PLANAR_KEYS,
    MeasurementSetting,
    QuantumAdvisor,
    ghz_bell,
    ghz_distribution,
    ghz_features,
    ghz_payoffs,
    ghz_state,
    ghz_weights,
    load_setting,
    observable_matrix,
    projectors,
    quantum_bell,
    quantum_distribution,
    quantum_payoffs,
    setting_from_json_dict,
    setting_to_json_dict,
    wrap_angle,
)
from oracles import (
    constant_table,
    gauge_canonicalize,
    gauge_equivalent,
    gauge_transform,
    ghz_single_party_marginal,
    make_uniform_distribution,
    make_uniform_prior,
    relabelled_copy,
    scaled_to_magnitude,
    table_entry,
    table_from_function,
)

ANGLES = st.floats(-math.pi, math.pi, allow_nan=False)

SETTING_SCHEMA = json.loads(
    (Path(__file__).resolve().parent.parent / "docs" / "setting.schema.json").read_text()
)
TABLE1_WEIGHTS = ghz_weights(builtin_game().utilities, builtin_game().prior)
MAXIMALLY_MIXED = QuantumAdvisor(np.eye(8, dtype=complex) / 8)


def planar_payoffs(phi) -> np.ndarray:
    """GHZ payoffs of the three table1 players at the planar setting of the
    azimuths ``phi``."""
    setting = MeasurementSetting.planar(phi)
    return ghz_payoffs(TABLE1_WEIGHTS, setting.ghz_features)


def fraction_ghz_weights(table: UtilityTable, prior: Prior) -> np.ndarray:
    """ghz_weights by Fraction arithmetic: every weight is an exact Fraction
    sum, rounded once by float().  The oracle that the integer route must
    match bit for bit."""
    weights = np.empty((3, 8, 5))
    for player in range(3):
        for xi, urow in enumerate(table.values[player]):
            for k in range(5):
                exact = sum(f[k] * u for f, u in zip(GHZ_FEATURES, urow))
                weights[player, xi, k] = float(prior.weights[xi] * exact / 8)
    return weights


def assert_same_floats(actual: np.ndarray, expected: np.ndarray) -> None:
    """Equal values and equal signs, so -0.0 and 0.0 differ."""
    assert actual.shape == expected.shape == (3, 8, 5)
    assert np.array_equal(actual, expected)
    assert np.array_equal(np.signbit(actual), np.signbit(expected))


def random_setting(rng, planar: bool) -> MeasurementSetting:
    if planar:
        return MeasurementSetting.planar(rng.uniform(-math.pi, math.pi, 6))
    # (theta, phi) of each observable in turn, in (3, 2) order
    angles = rng.uniform((0, -math.pi), (math.pi, math.pi), (3, 2, 2))
    return MeasurementSetting(angles[..., 0], angles[..., 1])


def random_rank1_projector(rng) -> np.ndarray:
    z = rng.uniform(-1, 1)
    phi = rng.uniform(-math.pi, math.pi)
    s = math.sqrt(1 - z * z)
    n = (s * math.cos(phi), s * math.sin(phi), z)
    return (np.eye(2) + n[0] * PAULI_X + n[1] * PAULI_Y + n[2] * PAULI_Z) / 2


class TestObservables:
    def test_north_pole_is_pauli_z(self):
        assert np.allclose(observable_matrix(0, 0), PAULI_Z)

    def test_equator_phi_zero_is_pauli_x(self):
        m = observable_matrix(math.pi / 2, 0)
        assert np.allclose(m, PAULI_X, atol=1e-12)

    def test_equator_phi_half_pi_is_pauli_y(self):
        m = observable_matrix(math.pi / 2, math.pi / 2)
        assert np.allclose(m, PAULI_Y, atol=1e-12)

    @settings(max_examples=100)
    @given(theta=st.floats(0, math.pi), phi=ANGLES)
    def test_observable_algebra(self, theta, phi):
        m = observable_matrix(theta, phi)
        assert np.allclose(m, m.conj().T, atol=1e-12)
        assert abs(np.trace(m)) < 1e-12
        assert np.allclose(m @ m, np.eye(2), atol=1e-12)


class TestProjectors:
    def test_pauli_z_projectors(self):
        p0, p1 = projectors(0, 0)
        assert np.allclose(p1, np.diag([1, 0]))
        assert np.allclose(p0, np.diag([0, 1]))

    def test_pauli_x_plus_projector_is_all_halves(self):
        _, p1 = projectors(math.pi / 2, 0)
        assert np.allclose(p1, np.full((2, 2), 0.5), atol=1e-12)

    @settings(max_examples=100)
    @given(theta=st.floats(0, math.pi), phi=ANGLES)
    def test_projector_algebra(self, theta, phi):
        p0, p1 = projectors(theta, phi)
        assert np.allclose(p0 + p1, np.eye(2), atol=1e-12)
        assert np.allclose(p0 @ p0, p0, atol=1e-12)
        assert np.allclose(p1 @ p1, p1, atol=1e-12)
        assert np.abs(p0 @ p1).max() < 1e-12
        assert abs(np.trace(p0) - 1) < 1e-12
        assert abs(np.trace(p1) - 1) < 1e-12


class TestAdvisors:
    def test_ghz_state_components(self):
        vec = ghz_state()
        assert vec[0b111] == pytest.approx(1 / math.sqrt(2))
        assert vec[0b000] == pytest.approx(1j / math.sqrt(2))
        assert np.abs(vec[1:7]).max() == 0

    def test_ghz_advisor_is_valid(self, ghz):
        ghz.validate()

    def test_wrong_trace_rejected(self):
        with pytest.raises(ValidationError, match="trace"):
            QuantumAdvisor(np.eye(8, dtype=complex)).validate()

    def test_negative_eigenvalue_rejected(self):
        rho = np.diag([1.1, -0.1] + [0.0] * 6).astype(complex)
        with pytest.raises(ValidationError, match="eigenvalue"):
            QuantumAdvisor(rho).validate()

    def test_non_hermitian_rejected(self):
        rho = np.eye(8, dtype=complex) / 8
        rho[0, 1] = 0.25
        with pytest.raises(ValidationError, match="Hermitian"):
            QuantumAdvisor(rho).validate()

    def test_distribution_rejects_bad_advisor(self, reference_angles):
        bad = QuantumAdvisor(np.eye(8, dtype=complex))
        with pytest.raises(ValidationError):
            quantum_distribution(bad, MeasurementSetting.planar(reference_angles))


class TestQuantumDistribution:
    def test_ghz_all_z_concentrates_on_aligned_outcomes(self, ghz):
        setting = MeasurementSetting(np.zeros((3, 2)), np.zeros((3, 2)))
        dist = quantum_distribution(ghz, setting)
        for row in dist.rows:
            assert row[0b000] == pytest.approx(0.5, abs=1e-12)
            assert row[0b111] == pytest.approx(0.5, abs=1e-12)

    def test_maximally_mixed_gives_uniform(self, reference_angles):
        dist = quantum_distribution(
            MAXIMALLY_MIXED, MeasurementSetting.planar(reference_angles)
        )
        for row in dist.rows:
            assert row == pytest.approx((0.125,) * 8, abs=1e-12)

    def test_ghz_all_y_has_unit_correlators(self, ghz):
        setting = MeasurementSetting.planar(np.full(6, math.pi / 2))
        dist = quantum_distribution(ghz, setting)
        for x in PROFILES:
            assert correlator(dist, x) == pytest.approx(1.0, abs=1e-12)

    def test_rows_normalized_and_nonnegative(self, ghz):
        rng = np.random.default_rng(3)
        for planar in (True, False):
            dist = quantum_distribution(ghz, random_setting(rng, planar))
            for row in dist.rows:
                assert sum(row) == pytest.approx(1.0, abs=1e-12)
                assert min(row) > -1e-12

    def test_no_signalling_for_random_settings(self, ghz):
        rng = np.random.default_rng(4)
        for i in range(40):
            dist = quantum_distribution(ghz, random_setting(rng, i % 2 == 0))
            assert no_signalling_residual(dist) <= 1e-12


class TestQuantumPayoffs:
    def test_zero_angles_give_constant_term(self, table1, ghz):
        f = quantum_payoffs(
            table1.utilities,
            table1.prior,
            ghz,
            MeasurementSetting.planar(np.zeros(6)),
        )
        for v in f:
            assert v == pytest.approx(26 / 48, abs=1e-12)

    def test_maximally_mixed_reduces_to_uniform_distribution(self, table1):
        rng = np.random.default_rng(8)
        setting = random_setting(rng, planar=False)
        f = quantum_payoffs(
            table1.utilities, table1.prior, MAXIMALLY_MIXED, setting
        )
        g = expected_payoffs(
            table1.utilities, table1.prior, make_uniform_distribution()
        )
        for quantum, classical in zip(f, g):
            assert quantum == pytest.approx(float(classical), abs=1e-12)

    def test_reference_optimum_payoffs(self, table1, ghz, reference_angles):
        f = quantum_payoffs(
            table1.utilities,
            table1.prior,
            ghz,
            MeasurementSetting.planar(reference_angles),
        )
        for v in f:
            assert v == pytest.approx(0.842, abs=1e-3)

    def test_total_payoff_bell_identity_quantum(self, table1, ghz):
        rng = np.random.default_rng(12)
        for i in range(20):
            setting = random_setting(rng, i % 2 == 0)
            dist = quantum_distribution(ghz, setting)
            total = sum(expected_payoffs(table1.utilities, table1.prior, dist))
            b1 = bell_expression(dist, BellVariant.V011)
            b2 = bell_expression(dist, BellVariant.V100)
            assert total == pytest.approx((26 + 3 * b1 - 2 * b2) / 16, abs=1e-10)


class TestPlanarPayoff:
    def test_all_zero_angles(self):
        assert planar_payoffs(np.zeros(6)) == pytest.approx(
            [26 / 48] * 3
        )

    def test_all_right_angles(self):
        a = math.pi / 2
        assert planar_payoffs(np.full(6, a)) == pytest.approx(
            [28 / 48] * 3
        )

    def test_reference_optimum_value(self, reference_angles):
        assert planar_payoffs(reference_angles) == pytest.approx([0.842] * 3, abs=1e-3)

    def test_derived_table1_coefficients(self):
        # the equatorial payoff of table1 is (26 + sum_x c_x sin(...)) / 48
        coefficients = [float(Fraction(c, 48)) for c in (3, 2, 2, -3, 2, -3, -3, -2)]
        for player in Player:
            assert sum(TABLE1_WEIGHTS[player, :, 0]) == pytest.approx(26 / 48, abs=1e-15)
            assert (-TABLE1_WEIGHTS[player, :, 4]).tolist() == coefficients

    def test_matches_trace_payoffs_on_random_planar_settings(self, table1, ghz):
        rng = np.random.default_rng(0)
        for _ in range(100):
            angles = rng.uniform(-math.pi, math.pi, 6)
            engine = planar_payoffs(angles)
            f = quantum_payoffs(
                table1.utilities,
                table1.prior,
                ghz,
                MeasurementSetting.planar(angles),
            )
            assert np.abs(engine - f).max() < 1e-10


class TestGhzPayoffs:
    @pytest.mark.parametrize("relabel", [False, True], ids=["table1", "relabelled-affine"])
    def test_matches_trace_payoffs_on_full_sphere(self, relabel, ghz):
        """Payoffs, both Bell values and p(y|x) of the GHZ engine against the
        trace rule, on a batch of 200 full-sphere settings."""
        game = builtin_game()
        if relabel:
            prior = Prior(tuple(Fraction(k, 36) for k in range(1, 9)))
            game = relabelled_copy(game, (1, 1, 1), (1, 1, 1), Fraction(7, 3), Fraction(-5, 2), prior)
        weights = ghz_weights(game.utilities, game.prior)
        rng = np.random.default_rng(21)
        settings_ = [random_setting(rng, planar=False) for _ in range(200)]
        theta = np.array([s.theta for s in settings_])
        phi = np.array([s.phi for s in settings_])
        features = ghz_features(theta, phi)
        assert features.shape == (200, 8, 5)
        batch = ghz_payoffs(weights, features)
        assert batch.shape == (200, 3)
        bells = ghz_bell(features)
        assert list(bells) == list(BellVariant)
        assert all(values.shape == (200,) for values in bells.values())
        dists = ghz_distribution(features)
        assert dists.shape == (200, 8, 8)
        for i, (setting, engine) in enumerate(zip(settings_, batch)):
            oracle = quantum_payoffs(game.utilities, game.prior, ghz, setting)
            assert np.abs(engine - oracle).max() < 1e-10
            for variant, values in bells.items():
                assert abs(values[i] - quantum_bell(ghz, setting, variant)) < 1e-12
            trace_rule = np.array(quantum_distribution(ghz, setting).rows)
            assert np.abs(dists[i] - trace_rule).max() < 1e-12

    def test_batch_matches_single_settings(self):
        rng = np.random.default_rng(2)
        theta = rng.uniform(0, math.pi, (4, 5, 3, 2))
        phi = rng.uniform(-math.pi, math.pi, (4, 5, 3, 2))
        features = ghz_features(theta, phi)
        single = ghz_features(theta[2, 3], phi[2, 3])
        batch = ghz_payoffs(TABLE1_WEIGHTS, features)
        assert batch.shape == (4, 5, 3)
        assert batch[2, 3] == pytest.approx(ghz_payoffs(TABLE1_WEIGHTS, single), abs=1e-15)
        dists = ghz_distribution(features)
        assert dists.shape == (4, 5, 8, 8)
        assert dists[2, 3] == pytest.approx(ghz_distribution(single), abs=1e-15)

    def test_constant_game_is_constant(self):
        c = Fraction(7, 3)
        weights = ghz_weights(constant_table(c), make_uniform_prior())
        rng = np.random.default_rng(6)
        values = ghz_payoffs(
            weights,
            ghz_features(rng.uniform(0, math.pi, (50, 3, 2)), rng.uniform(-3, 3, (50, 3, 2))),
        )
        assert np.abs(values - float(c)).max() < 1e-14


class TestGhzWeights:
    """ghz_weights sums over the game's integer form; each weight is the
    float the Fraction oracle rounds to, bit for bit."""

    @pytest.mark.parametrize("name", ["table1", "affine_game", "nonuniform_game"])
    def test_match_the_fraction_oracle(self, name, request):
        game = request.getfixturevalue(name)
        assert_same_floats(
            ghz_weights(game.utilities, game.prior),
            fraction_ghz_weights(game.utilities, game.prior),
        )

    # No shrink phase: each example runs the slow Fraction oracle, and
    # shrinking one failing example took over 100 s on 2 vCPUs.
    @settings(
        max_examples=50,
        deadline=None,
        phases=[p for p in Phase if p is not Phase.shrink],
    )
    @given(
        st.lists(
            st.fractions(-(10**6), 10**6, max_denominator=10**6),
            min_size=16,
            max_size=16,
        ),
        st.lists(
            st.one_of(st.just(0), st.integers(1, 10**6)), min_size=8, max_size=8
        ).filter(any),
        st.randoms(use_true_random=False),
    )
    def test_match_the_fraction_oracle_on_random_games(self, pool, raw_prior, rng):
        """Negative utilities, denominators up to 10**6 and priors with zero
        entries."""
        table = table_from_function(lambda i, x, y: rng.choice(pool))
        prior = Prior(tuple(Fraction(w, sum(raw_prior)) for w in raw_prior))
        assert_same_floats(ghz_weights(table, prior), fraction_ghz_weights(table, prior))

    def test_match_the_fraction_oracle_with_a_5001_digit_denominator(
        self, nonuniform_game
    ):
        """Type profile (0, 0, 0) has one utility of 5001-digit denominator and
        zeros elsewhere, so its weights underflow to zeros of both signs; the
        other profiles add that utility to table1's."""
        tiny = Fraction(-3, 10**5000 + 7)

        def utility(i, x, y):
            if x == (0, 0, 0):
                return tiny if y == (1, 0, 1) else 0
            return table_entry(nonuniform_game.utilities, i, x, y) + tiny

        table = table_from_function(utility)
        weights = ghz_weights(table, nonuniform_game.prior)
        assert_same_floats(weights, fraction_ghz_weights(table, nonuniform_game.prior))
        assert (weights[:, 0] == 0).all()
        assert np.signbit(weights[:, 0]).any() and not np.signbit(weights[:, 0]).all()


class TestMagnitudeRule:
    """ghz_weights accepts a game only if each player's S_i = sum_x sum_y
    P(x)|u_i(x, y)| is below MAGNITUDE_LIMIT, checked exactly."""

    def test_the_rule_is_exact_at_the_limit(self):
        """A constant table under the uniform prior has S_i = 8|u|: just
        inside, the weights are the Fraction oracle's; at the limit, of
        either sign, and at 401 digits, the game is refused."""
        prior = make_uniform_prior()
        inside = constant_table(Fraction(MAGNITUDE_LIMIT - 1, 8))
        assert_same_floats(ghz_weights(inside, prior), fraction_ghz_weights(inside, prior))
        for value in (Fraction(MAGNITUDE_LIMIT, 8), -Fraction(MAGNITUDE_LIMIT, 8), 10**400):
            with pytest.raises(ValidationError, match=r"\|u_A\(x, y\)\| .* below 2\*\*500$"):
                ghz_weights(constant_table(value), prior)

    @pytest.mark.parametrize("players", ["A", "B", "ABC"])
    def test_the_first_player_outside_is_named(self, table1, players):
        game = scaled_to_magnitude(table1, [Player[p] for p in players], MAGNITUDE_LIMIT)
        with pytest.raises(
            ValidationError,
            match=rf"^utilities too large for the GHZ engine: the sum of P\(x\)\|u_{players[0]}",
        ):
            ghz_weights(game.utilities, game.prior)

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    @pytest.mark.parametrize("players", ["A", "ABC"])
    def test_payoffs_just_inside_are_finite_in_every_order(self, table1, players):
        """table1 with the players ``players`` scaled to S_i = limit - 1
        (utilities of both signs).  At random settings, and at the feature
        signs that make each payoff's terms all agree, the 40 products of
        each payoff sum to a finite float left to right, reversed and by
        math.fsum, within 5/8 S_i in magnitude; so does ghz_payoffs."""
        game = scaled_to_magnitude(table1, [Player[p] for p in players], MAGNITUDE_LIMIT - 1)
        weights = ghz_weights(game.utilities, game.prior)
        rng = np.random.default_rng(11)
        features = [random_setting(rng, i % 2 == 0).ghz_features for i in range(100)]
        features += [np.sign(w) for w in weights]
        bound = 5 / 8 * float(MAGNITUDE_LIMIT)
        for feature in features:
            assert np.isfinite(ghz_payoffs(weights, feature)).all()
            for w in weights:
                products = (feature * w).ravel().tolist()
                for value in (
                    reduce(add, products), reduce(add, reversed(products)),
                    math.fsum(products),
                ):
                    assert math.isfinite(value) and abs(value) <= bound


def random_observable(rng, dim: int) -> np.ndarray:
    """A +-1 observable U diag(+-1) U^dagger of dimension ``dim``, U a random
    unitary (QR of a complex Gaussian matrix)."""
    u, _ = np.linalg.qr(rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim)))
    return u @ np.diag(rng.choice([-1.0, 1.0], dim)) @ u.conj().T


def bell_operator(variant: BellVariant, a, b, c) -> np.ndarray:
    """The operator of a Bell variant on A (x) B (x) C for the observable
    pairs ``a``, ``b``, ``c`` (indexed by type bit): the products of the
    positive contexts minus that of the negative context."""
    def term(x):
        return np.kron(np.kron(a[x[0]], b[x[1]]), c[x[2]])

    return sum(term(x) for x in variant.positive_contexts) - term(variant.negative_context)


class TestBellOperatorBound:
    """cos chi V011 + sin chi V100 is bounded by 4 for every pair of +-1
    observables per party, in any dimension: it is P (x) D + Q (x) D' with
    P = A0 B1 + A1 B0, Q = A1 B1 - A0 B0 (on A (x) B), D = cos chi C1 +
    sin chi C0 and D' = cos chi C0 - sin chi C1.  Then D^2 + D'^2 = 2I and
    ||P^2 + Q^2|| <= 8, and operator Cauchy-Schwarz gives sqrt(8) sqrt(2)
    = 4.  This is the quantum half of the bound that criterion 11 of the
    acceptance suite relies on."""

    @pytest.mark.parametrize("dims", [(2, 2, 2), (3, 3, 3), (2, 3, 2), (3, 2, 3)])
    def test_the_identity_and_the_bound_on_random_observables(self, dims):
        rng = np.random.default_rng(sum(d * 10**k for k, d in enumerate(dims)))
        eye_c = np.eye(dims[2])
        for _ in range(5):
            a, b, c = ([random_observable(rng, d) for _ in range(2)] for d in dims)
            chi = rng.uniform(-math.pi, math.pi)
            p = np.kron(a[0], b[1]) + np.kron(a[1], b[0])
            q = np.kron(a[1], b[1]) - np.kron(a[0], b[0])
            d = math.cos(chi) * c[1] + math.sin(chi) * c[0]
            d_prime = math.cos(chi) * c[0] - math.sin(chi) * c[1]
            operator = (
                math.cos(chi) * bell_operator(BellVariant.V011, a, b, c)
                + math.sin(chi) * bell_operator(BellVariant.V100, a, b, c)
            )
            assert np.abs(np.kron(p, d) + np.kron(q, d_prime) - operator).max() <= 1e-12
            assert np.abs(d @ d + d_prime @ d_prime - 2 * eye_c).max() <= 1e-12
            assert np.linalg.norm(p @ p + q @ q, 2) <= 8 + 1e-12
            assert np.abs(np.linalg.eigvalsh(operator)).max() <= 4 + 1e-12


class TestGaugeSymmetry:
    def test_zero_shift_is_identity(self, reference_angles):
        assert np.array_equal(gauge_transform(reference_angles, 0, 0, 0), reference_angles)

    def test_half_turn_shift_invariance(self, reference_angles):
        shifted = gauge_transform(reference_angles, math.pi, math.pi, 0)
        assert planar_payoffs(shifted) == pytest.approx([0.842] * 3, abs=1e-3)
        assert planar_payoffs(shifted) == pytest.approx(
            planar_payoffs(reference_angles), abs=1e-12
        )

    def test_third_roots_shift(self, reference_angles):
        shifted = gauge_transform(
            reference_angles, math.pi / 3, math.pi / 3, -2 * math.pi / 3
        )
        assert np.abs(planar_payoffs(shifted) - planar_payoffs(reference_angles)).max() < 1e-12

    @settings(max_examples=60)
    @given(chi1=ANGLES, chi2=ANGLES, a=ANGLES, b=ANGLES, c=ANGLES)
    def test_random_valid_shifts_preserve_payoff(self, chi1, chi2, a, b, c):
        angles = np.array([[a, -b], [b, c], [-a, a + b]])
        shifted = gauge_transform(angles, chi1, chi2, -chi1 - chi2)
        assert np.abs(planar_payoffs(shifted) - planar_payoffs(angles)).max() < 1e-12

    def test_invalid_shift_rejected(self, reference_angles):
        with pytest.raises(ValidationError, match="2\\*pi"):
            gauge_transform(reference_angles, 0.1, 0.2, 0.3)

    def test_canonicalize_fixes_reference_point(self, reference_angles):
        assert np.array_equal(gauge_canonicalize(reference_angles), reference_angles)

    def test_canonicalize_inverts_gauge_shift(self, reference_angles):
        shifted = gauge_transform(
            reference_angles, math.pi / 4, math.pi / 4, -math.pi / 2
        )
        back = gauge_canonicalize(shifted)
        assert back.shape == (3, 2)
        for u, v in zip(back.flat, reference_angles.flat):
            assert abs(wrap_angle(u - v)) < 1e-12

    def test_all_zero_is_fixed_point(self):
        zero = np.zeros((3, 2))
        assert np.array_equal(gauge_canonicalize(zero), zero)

    def test_gauge_equivalence_predicate(self, reference_angles):
        shifted = gauge_transform(reference_angles, 1.0, -2.5, 1.5)
        assert gauge_equivalent(reference_angles, shifted, tol=1e-9)
        other = np.array([[0.0, 1.0], [0.0, 0.5], [-0.5, 0.25]])
        assert not gauge_equivalent(reference_angles, other, tol=1e-3)

    def test_wrap_angle_range(self):
        for x in (-7.0, -math.pi, 0.0, math.pi, 9.42, 100.0):
            w = wrap_angle(x)
            assert -math.pi < w <= math.pi
            assert math.sin(w) == pytest.approx(math.sin(x), abs=1e-12)


class TestSinglePartyMarginal:
    def test_computational_basis_projectors(self):
        ket0 = np.diag([1.0, 0.0]).astype(complex)
        ket1 = np.diag([0.0, 1.0]).astype(complex)
        assert ghz_single_party_marginal(ket0, Player.C) == pytest.approx(0.5, abs=1e-12)
        assert ghz_single_party_marginal(ket1, Player.A) == pytest.approx(0.5, abs=1e-12)

    def test_x_basis_projector(self):
        plus = (np.eye(2) + PAULI_X) / 2
        assert ghz_single_party_marginal(plus, Player.B) == pytest.approx(0.5, abs=1e-12)

    def test_random_projectors_all_give_half(self):
        rng = np.random.default_rng(5)
        for _ in range(60):
            p = random_rank1_projector(rng)
            for party in Player:
                assert ghz_single_party_marginal(p, party) == pytest.approx(
                    0.5, abs=1e-12
                )

    def test_rejects_non_projectors(self):
        with pytest.raises(ValidationError, match="idempotent"):
            ghz_single_party_marginal(PAULI_X, Player.A)
        with pytest.raises(ValidationError, match="rank"):
            ghz_single_party_marginal(np.eye(2, dtype=complex), Player.A)
        with pytest.raises(ValidationError, match="Hermitian"):
            ghz_single_party_marginal(
                np.array([[1, 1], [0, 0]], dtype=complex), Player.A
            )


class TestQuantumBell:
    def test_maximally_mixed_vanishes(self, reference_angles):
        setting = MeasurementSetting.planar(reference_angles)
        for variant in BellVariant:
            assert quantum_bell(
                MAXIMALLY_MIXED, setting, variant
            ) == pytest.approx(0.0, abs=1e-12)

    def test_ghz_all_x_vanishes(self, ghz):
        setting = MeasurementSetting.planar(np.zeros(6))
        assert quantum_bell(ghz, setting, BellVariant.V011) == pytest.approx(
            0.0, abs=1e-12
        )

    def test_optimum_anchors(self, ghz, reference_angles):
        setting = MeasurementSetting.planar(reference_angles)
        v011 = quantum_bell(ghz, setting, BellVariant.V011)
        v100 = quantum_bell(ghz, setting, BellVariant.V100)
        assert v011 == pytest.approx(12 / math.sqrt(13), abs=1e-4)
        assert v100 == pytest.approx(-8 / math.sqrt(13), abs=1e-4)
        triple = sum(planar_payoffs(reference_angles))
        assert triple == pytest.approx((26 + 3 * v011 - 2 * v100) / 16, abs=1e-10)


class TestSettingSerialization:
    def test_full_round_trip(self, tmp_path):
        rng = np.random.default_rng(1)
        setting = random_setting(rng, planar=False)
        path = tmp_path / "setting.json"
        path.write_text(json.dumps(setting_to_json_dict(setting)))
        assert load_setting(path) == setting

    def test_planar_shorthand(self, reference_angles):
        doc = dict(zip(PLANAR_KEYS, reference_angles.ravel().tolist()))
        setting = setting_from_json_dict(doc)
        assert setting == MeasurementSetting.planar(reference_angles)
        assert setting.is_planar()
        assert np.array_equal(setting.phi, reference_angles)

    def test_missing_key_rejected(self, reference_angles):
        doc = setting_to_json_dict(MeasurementSetting.planar(reference_angles))
        del doc["theta_B1"]
        with pytest.raises(ValidationError, match="theta_B1"):
            setting_from_json_dict(doc)

    @pytest.mark.parametrize(
        "planar, key, value",
        [
            (True, "phi_A0", "1e0"),
            (True, "phi_A1", True),
            (False, "theta_B1", "0.5"),
            (False, "phi_C0", False),
            (False, "theta_A0", None),
        ],
    )
    def test_non_numeric_angle_rejected(self, planar, key, value, reference_angles):
        jsonschema = pytest.importorskip("jsonschema")
        doc = setting_to_json_dict(MeasurementSetting.planar(reference_angles))
        if planar:
            doc = {k: v for k, v in doc.items() if k.startswith("phi_")}
        doc[key] = value
        with pytest.raises(jsonschema.ValidationError):
            jsonschema.validate(doc, SETTING_SCHEMA)
        with pytest.raises(ValidationError, match=key):
            setting_from_json_dict(doc)

    def test_tilted_setting_is_not_planar(self):
        theta = np.full((3, 2), math.pi / 2)
        theta[0, 0] = 0
        setting = MeasurementSetting(theta, np.zeros((3, 2)))
        assert not setting.is_planar()

    def test_setting_arrays_are_checked_copied_and_read_only(self):
        with pytest.raises(ValidationError, match="theta must have shape"):
            MeasurementSetting(np.zeros((2, 3)), np.zeros((3, 2)))
        with pytest.raises(ValidationError, match="phi must have shape"):
            MeasurementSetting(np.zeros((3, 2)), np.zeros(6))
        for bad in (math.nan, math.inf):
            with pytest.raises(ValidationError, match="Bloch angles must be finite"):
                MeasurementSetting(np.full((3, 2), bad), np.zeros((3, 2)))
            # the loader refuses the first angle out of range and names it
            with pytest.raises(ValidationError, match=r"^phi_A0: angle must lie"):
                setting_from_json_dict(dict.fromkeys(PLANAR_KEYS, bad))
        phi = np.zeros((3, 2))
        setting = MeasurementSetting.planar(phi)
        phi[0, 0] = 1.0
        assert setting.phi[0, 0] == 0.0
        with pytest.raises(ValueError, match="read-only"):
            setting.theta[0, 0] = 0.0
        assert setting == MeasurementSetting.planar(np.zeros(6))
        assert setting != MeasurementSetting.planar(phi)
        assert setting != MeasurementSetting(np.zeros((3, 2)), np.zeros((3, 2)))
        with pytest.raises(TypeError, match="unhashable"):
            hash(setting)

    def test_invalid_json_file(self, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text("{nope")
        with pytest.raises(ValidationError, match="invalid JSON"):
            load_setting(path)
