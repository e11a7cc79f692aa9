import math
import random
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from bellgame import classical
from bellgame.classical import (
    ALL_PROFILES,
    MIXTURE_MAX_ATOMS,
    STRATEGIES,
    BellVariant,
    _deterministic_correlator,
    _sampled_payoffs,
    bell_expression,
    classical_bound_audit,
    correlator,
    deterministic_bell_extremes,
    enumerate_deterministic_equilibria,
    profile_table,
)
from bellgame.game import (
    PLAYERS,
    PROFILES,
    GameDefinition,
    PayoffTriple,
    Prior,
    ValidationError,
    expected_payoffs,
    no_signalling_residual,
)
from oracles import (
    HiddenVariableModel,
    affine_transform,
    bell_decomposition,
    constant_table,
    deterministic_payoffs,
    flip_types,
    hv_model_to_distribution,
    make_uniform_distribution,
    make_uniform_prior,
    random_hidden_variable_model,
    random_profile_mixture,
    relabelled_copy,
    seeded_relabelling,
    strategy_to_distribution,
    table_from_function,
)

F = Fraction

# the nine known equilibria: strategy rows (y(0), y(1)) and exact payoffs
KNOWN_EQUILIBRIA = [
    (((0, 1), (0, 0), (0, 0)), (F(5, 8), F(13, 16), F(13, 16))),
    (((0, 0), (0, 1), (0, 0)), (F(13, 16), F(5, 8), F(13, 16))),
    (((0, 0), (0, 0), (0, 1)), (F(13, 16), F(13, 16), F(5, 8))),
    (((1, 0), (0, 1), (0, 1)), (F(11, 8), F(7, 16), F(7, 16))),
    (((0, 1), (1, 0), (0, 1)), (F(7, 16), F(11, 8), F(7, 16))),
    (((0, 1), (0, 1), (1, 0)), (F(7, 16), F(7, 16), F(11, 8))),
    (((0, 1), (1, 1), (1, 1)), (F(3, 4), F(3, 4), F(3, 4))),
    (((1, 1), (0, 1), (1, 1)), (F(3, 4), F(3, 4), F(3, 4))),
    (((1, 1), (1, 1), (0, 1)), (F(3, 4), F(3, 4), F(3, 4))),
]

BOUND = F(9, 4)


@pytest.fixture(scope="module")
def constant_game():
    return GameDefinition(constant_table(F(5, 7)), make_uniform_prior())


@pytest.fixture(scope="module")
def mixed_sign_game():
    """Seeded integer utilities of 21 to 25 digits, of either sign, under a
    uniform prior: payoff numerators far wider than 64 bits."""
    rng = random.Random(27)
    return GameDefinition(
        table_from_function(
            lambda i, x, y: rng.choice((-1, 1)) * rng.randrange(10**20, 10**25)
        ),
        make_uniform_prior(),
    )

GAMES = ["table1", "affine_game", "nonuniform_game"]

#: Rationals with large denominators, for utility tables and priors.
BIG_RATIONALS = st.fractions(
    min_value=-(10**6), max_value=10**6, max_denominator=10**9
)
#: Integer utilities beyond 10**30 in absolute value, of either sign.
HUGE_INTEGERS = st.integers(10**30, 10**40) | st.integers(-(10**40), -(10**30))

#: random_hidden_variable_model(random.Random(seed)) for three seeds: per atom
#: the weight and, per player, the numerators of p(y=0|x=0) and p(y=0|x=1)
#: over 16.
PINNED_MODELS = {
    0: [
        (F(98, 373), ((9, 15), (16, 0), (9, 4))),
        (F(54, 373), ((8, 4), (16, 16), (10, 15))),
        (F(6, 373), ((11, 13), (16, 0), (15, 14))),
        (F(34, 373), ((8, 1), (0, 2), (12, 0))),
        (F(66, 373), ((10, 7), (2, 6), (7, 7))),
        (F(63, 373), ((4, 14), (0, 16), (15, 3))),
        (F(52, 373), ((0, 16), (10, 6), (9, 14))),
    ],
    1: [
        (F(73, 180), ((0, 0), (15, 12), (3, 15))),
        (F(49, 90), ((0, 0), (16, 16), (8, 7))),
        (F(1, 20), ((3, 10), (16, 16), (0, 12))),
    ],
    2: [(F(1, 1), ((16, 0), (9, 8), (1, 5)))],
}


class TestStrategyDistribution:
    def test_type_following_first_player(self):
        dist = strategy_to_distribution(((0, 1), (0, 0), (0, 0)))
        for x in PROFILES:
            row = dist.rows[4 * x[0] + 2 * x[1] + x[2]]
            assert row[4 * x[0]] == 1
            assert sum(row) == 1

    def test_constant_zero_profile(self):
        dist = strategy_to_distribution(((0, 0), (0, 0), (0, 0)))
        for row in dist.rows:
            assert row[0b000] == 1

    def test_identity_responses_have_one_unit_per_row(self):
        dist = strategy_to_distribution(((0, 1), (0, 1), (0, 1)))
        for xi, row in enumerate(dist.rows):
            assert row[xi] == 1
            assert sum(v != 0 for v in row) == 1

    @pytest.mark.parametrize("profile", [p for i, p in enumerate(ALL_PROFILES) if i % 7 == 0])
    def test_exact_no_signalling(self, profile):
        assert no_signalling_residual(strategy_to_distribution(profile)) == 0


class TestHiddenVariableModels:
    def test_point_mass_equals_strategy_distribution(self):
        profile = ((1, 0), (0, 1), (1, 1))
        model = HiddenVariableModel.from_profiles([(1, profile)])
        assert hv_model_to_distribution(model) == strategy_to_distribution(profile)

    def test_two_point_mixture(self):
        model = HiddenVariableModel.from_profiles(
            [
                (F(1, 2), ((0, 0), (0, 0), (0, 0))),
                (F(1, 2), ((1, 1), (1, 1), (1, 1))),
            ]
        )
        dist = hv_model_to_distribution(model)
        for row in dist.rows:
            assert row[0b000] == F(1, 2)
            assert row[0b111] == F(1, 2)

    def test_random_models_match_profile_mixture_oracle(
        self, utilities, uniform_prior
    ):
        # independent oracle: expand every stochastic response row into its
        # two deterministic components and mix the 64 profile payoffs
        rng = random.Random(42)
        for _ in range(25):
            model = random_hidden_variable_model(rng)
            dist = hv_model_to_distribution(model)
            via_dist = expected_payoffs(utilities, uniform_prior, dist)
            expected = [F(0)] * 3
            for weight, responses in model.atoms:
                for profile in ALL_PROFILES:
                    w = weight
                    for i in PLAYERS:
                        w *= (
                            responses[i][0][profile[i][0]]
                            * responses[i][1][profile[i][1]]
                        )
                    if w:
                        f = deterministic_payoffs(
                            utilities, uniform_prior, profile
                        )
                        for i in PLAYERS:
                            expected[i] += w * f[i]
            assert via_dist == tuple(expected)

    @pytest.mark.parametrize("seed", sorted(PINNED_MODELS))
    def test_random_model_draws_are_pinned(self, seed):
        expected = HiddenVariableModel(
            tuple(
                (
                    weight,
                    tuple(
                        tuple((F(k, 16), 1 - F(k, 16)) for k in p0)
                        for p0 in responses
                    ),
                )
                for weight, responses in PINNED_MODELS[seed]
            )
        )
        assert random_hidden_variable_model(random.Random(seed)) == expected

    def test_random_models_are_no_signalling(self):
        rng = random.Random(5)
        for _ in range(10):
            dist = hv_model_to_distribution(random_hidden_variable_model(rng))
            assert no_signalling_residual(dist) == 0

    def test_bad_weights_rejected(self):
        with pytest.raises(ValidationError, match="sum"):
            HiddenVariableModel.from_profiles(
                [(F(1, 3), ((0, 0), (0, 0), (0, 0)))]
            )


class TestBellExpression:
    def test_constant_zero_profile_saturates_negative_bound(self):
        dist = strategy_to_distribution(((0, 0), (0, 0), (0, 0)))
        value = bell_expression(dist, BellVariant.V011)
        assert value == -2

    def test_uniform_distribution_vanishes(self):
        dist = make_uniform_distribution()
        assert bell_expression(dist, BellVariant.V011) == 0
        assert bell_expression(dist, BellVariant.V100) == 0

    def test_deterministic_profiles_within_bound_and_extremes_attained(self):
        extremes = deterministic_bell_extremes()
        for variant in BellVariant:
            lo, hi = extremes[variant]
            assert lo == -2 and hi == 2

    def test_deterministic_correlators_match_distribution_route(self):
        extremes = deterministic_bell_extremes()
        for variant in BellVariant:
            values = []
            for profile in ALL_PROFILES:
                dist = strategy_to_distribution(profile)
                for x in PROFILES:
                    assert _deterministic_correlator(profile, x) == correlator(dist, x)
                values.append(bell_expression(dist, variant))
            assert extremes[variant] == (min(values), max(values))

    def test_deterministic_extremes_are_scanned_once_per_process(self, monkeypatch):
        """The extremes depend on no input: the profiles are scanned on the
        first call alone, and each call returns a dict of its own."""
        scanned = []

        def spy(profile, x):
            scanned.append(profile)
            return _deterministic_correlator(profile, x)

        monkeypatch.setattr(classical, "_deterministic_correlator", spy)
        classical._bell_extremes.cache_clear()
        first = deterministic_bell_extremes()
        scans = len(scanned)
        assert scans == len(BellVariant) * len(ALL_PROFILES) * 4
        second = deterministic_bell_extremes()
        assert len(scanned) == scans
        assert second == first and second is not first
        first.clear()
        assert deterministic_bell_extremes() == second
        assert list(second) == list(BellVariant)

    def test_mixtures_within_bound(self):
        rng = random.Random(1)
        for _ in range(50):
            dist = hv_model_to_distribution(random_hidden_variable_model(rng))
            for variant in BellVariant:
                assert abs(bell_expression(dist, variant)) <= 2

    def test_thousand_seeded_mixtures_within_bound(self):
        rng = random.Random(0)
        for _ in range(1000):
            dist = hv_model_to_distribution(random_hidden_variable_model(rng))
            for variant in BellVariant:
                assert abs(bell_expression(dist, variant)) <= 2

    def test_three_bit_lambda_family_within_bound(self):
        # hidden variable (l_A, l_B, l_C); responses depend on the own bit
        rng = random.Random(9)
        for _ in range(20):
            responders = [
                [rng.choice(STRATEGIES) for _ in range(2)] for _ in range(3)
            ]
            atoms = []
            for bits in PROFILES:
                profile = tuple(responders[i][bits[i]] for i in range(3))
                atoms.append((F(1, 8), profile))
            dist = hv_model_to_distribution(
                HiddenVariableModel.from_profiles(atoms)
            )
            for variant in BellVariant:
                assert abs(bell_expression(dist, variant)) <= 2

    def test_flip_relabelling_maps_between_variants(self):
        for profile in ALL_PROFILES[::11]:
            dist = strategy_to_distribution(profile)
            assert bell_expression(dist, BellVariant.V100) == bell_expression(
                flip_types(dist, (1, 1, 1)), BellVariant.V011
            )

    def test_all_eight_relabelled_inequalities_hold_classically(self):
        for profile in ALL_PROFILES[::9]:
            dist = strategy_to_distribution(profile)
            for flips in PROFILES:
                assert abs(bell_expression(flip_types(dist, flips), BellVariant.V011)) <= 2

    def test_ghz_optimum_violates_and_difference_exceeds_four(
        self, ghz, reference_angles
    ):
        from bellgame.quantum import MeasurementSetting, quantum_distribution

        dist = quantum_distribution(ghz, MeasurementSetting.planar(reference_angles))
        v011 = bell_expression(dist, BellVariant.V011)
        v100 = bell_expression(dist, BellVariant.V100)
        # regression anchors: 12/sqrt(13) and -8/sqrt(13) at the true optimum
        assert v011 == pytest.approx(12 / math.sqrt(13), abs=1e-4)
        assert v100 == pytest.approx(-8 / math.sqrt(13), abs=1e-4)
        assert v011 - v100 > 4

    def test_total_payoff_bell_identity(self, utilities, uniform_prior):
        # total payoff = (26 + 3*V011 - 2*V100) / 16 for any distribution
        # over this game; exact on the classical path
        rng = random.Random(17)
        dists = [strategy_to_distribution(p) for p in ALL_PROFILES[::13]]
        dists += [
            hv_model_to_distribution(random_hidden_variable_model(rng))
            for _ in range(10)
        ]
        for dist in dists:
            total = expected_payoffs(utilities, uniform_prior, dist).total()
            b1 = bell_expression(dist, BellVariant.V011)
            b2 = bell_expression(dist, BellVariant.V100)
            assert total == (26 + 3 * b1 - 2 * b2) / F(16)


def _bell_value(w, profile) -> F:
    """sum_x w_x E_x for a deterministic profile, E_x its correlator in
    context x (action 1 is +1)."""
    return sum(wx * _deterministic_correlator(profile, x) for wx, x in zip(w, PROFILES))


class TestBellDecomposition:
    """The total payoff as c + sum_x w_x E_x (oracles.bell_decomposition)."""

    @pytest.mark.parametrize(
        "name", ["table1", "affine_game", "nonuniform_game", "constant_game"]
    )
    def test_reproduces_every_profile_total_and_the_bound(self, name, request):
        game = request.getfixturevalue(name)
        c, w, _ = bell_decomposition(game)
        profiles = profile_table(game.utilities, game.prior)
        assert [F(sum(n), profiles.denominator) for n in profiles.numerators] == [
            c + _bell_value(w, p) for p in ALL_PROFILES
        ]
        assert c + max(_bell_value(w, p) for p in ALL_PROFILES) == profiles.max_total()

    def test_table1_is_13_8_plus_3_16_v011_minus_1_8_v100(self, table1):
        c, w, form = bell_decomposition(table1)
        assert c == F(13, 8)
        assert form == ((0, 0, 0), (F(3, 16), F(-1, 8)))
        assert dict(zip(PROFILES, w)) == {
            (0, 0, 0): F(-3, 16),
            (0, 1, 1): F(3, 16),
            (1, 0, 1): F(3, 16),
            (1, 1, 0): F(3, 16),
            (0, 0, 1): F(-1, 8),
            (0, 1, 0): F(-1, 8),
            (1, 0, 0): F(-1, 8),
            (1, 1, 1): F(1, 8),
        }  # 3/16 V011 - 1/8 V100, as test_total_payoff_bell_identity reads it

    @pytest.mark.parametrize("seed", range(10))
    def test_a_seeded_relabelled_copy_scales_the_pair(self, table1, seed):
        """For u' = a u(x XOR t, y XOR g) + b under table1's uniform prior,
        table1's pair is scaled by a and signed by g's parity; an odd t maps
        V011 to V100, so the flip is t XOR 111 and the pair swaps."""
        t, g, a, b = seeded_relabelling(seed)
        scale = a * (-1) ** sum(g)
        pair = (scale * F(3, 16), scale * F(-1, 8))
        expected = (t, pair) if sum(t) % 2 == 0 else (tuple(1 - f for f in t), pair[::-1])
        *_, form = bell_decomposition(relabelled_copy(table1, t, g, a, b))
        assert form == expected

    def test_affine_game_is_7_24_v011_minus_7_16_v100(self, affine_game):
        """Flipping every action bit negates table1's pair, scaled by 7/3;
        flipping every type bit swaps V011 and V100."""
        *_, form = bell_decomposition(affine_game)
        assert form == ((0, 0, 0), (F(7, 24), F(-7, 16)))

    def test_a_non_uniform_prior_breaks_the_bell_form(self, nonuniform_game):
        assert bell_decomposition(nonuniform_game)[2] is None

    def test_a_constant_game_is_zero_times_both(self, constant_game):
        *_, form = bell_decomposition(constant_game)
        assert form == ((0, 0, 0), (0, 0))

    def test_a_total_that_depends_on_more_than_parity_has_none(self):
        rng = random.Random(28)
        game = GameDefinition(
            table_from_function(lambda i, x, y: F(rng.randint(-9, 9), rng.randint(1, 4))),
            make_uniform_prior(),
        )
        assert bell_decomposition(game) is None


class TestEquilibria:
    def test_known_equilibria_reproduced_exactly(self, utilities, uniform_prior):
        reports = enumerate_deterministic_equilibria(profile_table(utilities, uniform_prior))
        assert len(reports) == 9
        found = {r.profile: r for r in reports}
        assert set(found) == {profile for profile, _ in KNOWN_EQUILIBRIA}
        for profile, payoffs in KNOWN_EQUILIBRIA:
            report = found[profile]
            assert report.payoffs == payoffs
            assert report.saturates_bound
            assert report.fair == (len(set(payoffs)) == 1)
        assert sum(r.fair for r in reports) == 3

    def test_reports_in_canonical_order(self, utilities, uniform_prior):
        reports = enumerate_deterministic_equilibria(profile_table(utilities, uniform_prior))
        profiles = [r.profile for r in reports]
        assert profiles == sorted(profiles)

    def test_constant_game_everything_is_a_fair_equilibrium(self, uniform_prior):
        reports = enumerate_deterministic_equilibria(
            profile_table(constant_table(F(1, 3)), uniform_prior)
        )
        assert len(reports) == 64
        assert all(r.fair for r in reports)

    def test_equilibrium_set_invariant_under_affine_map(
        self, utilities, uniform_prior
    ):
        base = {
            r.profile
            for r in enumerate_deterministic_equilibria(profile_table(utilities, uniform_prior))
        }
        for alpha, beta in [(2, 0), (2, 1), (F(1, 3), F(-7, 2))]:
            moved = {
                r.profile
                for r in enumerate_deterministic_equilibria(
                    profile_table(affine_transform(utilities, alpha, beta), uniform_prior)
                )
            }
            assert moved == base

    def test_equilibrium_set_closed_under_player_permutation(
        self, utilities, uniform_prior
    ):
        eq = {
            r.profile
            for r in enumerate_deterministic_equilibria(profile_table(utilities, uniform_prior))
        }
        for i, j in [(0, 1), (0, 2), (1, 2)]:
            for profile in eq:
                swapped = list(profile)
                swapped[i], swapped[j] = swapped[j], swapped[i]
                assert tuple(swapped) in eq

    def test_all_constant_zero_profile_is_not_nash(self, utilities, uniform_prior):
        profile = ((0, 0), (0, 0), (0, 0))
        reports = enumerate_deterministic_equilibria(profile_table(utilities, uniform_prior))
        assert profile not in {r.profile for r in reports}
        # oracle: scan player A's four deviations directly
        best_gain = F(0)
        best_strategy = None
        base = deterministic_payoffs(utilities, uniform_prior, profile)
        for s in STRATEGIES:
            gain = (
                deterministic_payoffs(
                    utilities, uniform_prior, (s, (0, 0), (0, 0))
                ).a
                - base.a
            )
            if gain > best_gain:
                best_gain, best_strategy = gain, s
        assert best_strategy == (0, 1)  # follow the type, toward 5/8
        assert best_gain > 0

    def test_constant_game_everything_is_nash(self, uniform_prior):
        table = constant_table(2)
        reports = enumerate_deterministic_equilibria(profile_table(table, uniform_prior))
        assert [r.profile for r in reports] == list(ALL_PROFILES)

    @pytest.mark.parametrize("game", [*GAMES, "constant_game"])
    def test_scan_matches_deviation_oracle(self, game, request):
        """The scan returns exactly the profiles where no player has a
        strictly better unilateral deterministic deviation, each with its
        Fraction-oracle payoffs; 64 profiles x 3 players x 3 deviations."""
        game = request.getfixturevalue(game)
        payoffs = {
            p: deterministic_payoffs(game.utilities, game.prior, p)
            for p in ALL_PROFILES
        }

        def deviate(profile, player, strategy):
            return tuple(strategy if i == player else s for i, s in enumerate(profile))

        expected = [
            profile
            for profile in ALL_PROFILES
            if not any(
                payoffs[deviate(profile, i, s)][i] > payoffs[profile][i]
                for i in PLAYERS
                for s in STRATEGIES
                if s != profile[i]
            )
        ]
        reports = enumerate_deterministic_equilibria(profile_table(game.utilities, game.prior))
        assert [r.profile for r in reports] == expected
        for r in reports:
            assert r.payoffs == payoffs[r.profile]

    def test_deterministic_payoffs_match_distribution_route(
        self, utilities, uniform_prior
    ):
        for profile in ALL_PROFILES:
            assert deterministic_payoffs(
                utilities, uniform_prior, profile
            ) == expected_payoffs(
                utilities, uniform_prior, strategy_to_distribution(profile)
            )


class TestBoundAudit:
    def test_deterministic_bound_and_attainers(self, utilities, uniform_prior):
        audit = classical_bound_audit(profile_table(utilities, uniform_prior), samples=0)
        assert audit.deterministic_max == BOUND
        assert len(audit.attaining_profiles) == 16
        for profile, _ in KNOWN_EQUILIBRIA:
            assert profile in audit.attaining_profiles

    def test_unfair_equilibrium_saturates_bound(self, utilities, uniform_prior):
        f = deterministic_payoffs(
            utilities, uniform_prior, ((1, 0), (0, 1), (0, 1))
        )
        assert f == (F(11, 8), F(7, 16), F(7, 16))
        assert f.total() == BOUND

    def test_sampled_mixtures_stay_within_bound(self, utilities, uniform_prior):
        audit = classical_bound_audit(
            profile_table(utilities, uniform_prior), samples=300, seed=0
        )
        assert audit.samples_within_bound
        assert audit.sample_max is not None and audit.sample_max <= BOUND

    def test_fair_cap(self, utilities, uniform_prior):
        audit = classical_bound_audit(
            profile_table(utilities, uniform_prior), samples=300, seed=1
        )
        assert audit.fair_cap == F(3, 4)
        # nothing audited pays every player more than the cap
        assert audit.max_min_payoff <= F(3, 4)

    def test_audit_is_reproducible(self, utilities, uniform_prior):
        a = classical_bound_audit(profile_table(utilities, uniform_prior), samples=50, seed=7)
        b = classical_bound_audit(profile_table(utilities, uniform_prior), samples=50, seed=7)
        assert a == b


class TestProfileTable:
    @pytest.mark.parametrize("game", GAMES)
    def test_entries_match_deterministic_payoffs(self, game, request):
        game = request.getfixturevalue(game)
        profiles = profile_table(game.utilities, game.prior)
        assert len(profiles.numerators) == 64
        for k, profile in enumerate(ALL_PROFILES):
            assert profiles.payoffs(k) == deterministic_payoffs(
                game.utilities, game.prior, profile
            )
        assert profiles.max_total() == max(
            deterministic_payoffs(game.utilities, game.prior, p).total()
            for p in ALL_PROFILES
        )

    @settings(max_examples=25, deadline=None)
    @given(
        st.lists(BIG_RATIONALS, min_size=16, max_size=16),
        st.lists(st.integers(0, 10**9), min_size=8, max_size=8).filter(any),
        st.randoms(use_true_random=False),
    )
    def test_entries_match_on_large_denominators(self, pool, raw_prior, rng):
        table = table_from_function(lambda i, x, y: rng.choice(pool))
        prior = Prior(tuple(F(w, sum(raw_prior)) for w in raw_prior))
        profiles = profile_table(table, prior)
        for k, profile in enumerate(ALL_PROFILES):
            assert profiles.payoffs(k) == deterministic_payoffs(table, prior, profile)


class TestSampledPayoffs:
    """The audit's sampled mixtures against the Fraction oracle: both routes
    draw from their own copy of one seeded rng, so they stay in step only if
    every mixture makes the same rng calls."""

    @staticmethod
    def assert_samples_match_oracle(table, prior, seed, samples):
        profiles = profile_table(table, prior)
        model_rng, audit_rng = random.Random(seed), random.Random(seed)
        drawn = 0
        for numerators, den in _sampled_payoffs(profiles, audit_rng, samples):
            model = random_profile_mixture(model_rng)
            # a draw that one route makes and the other skips shows here
            assert audit_rng.getstate() == model_rng.getstate()
            assert PayoffTriple(*(F(n, den) for n in numerators)) == expected_payoffs(
                table, prior, hv_model_to_distribution(model)
            )
            drawn += 1
        assert drawn == samples

    @pytest.mark.parametrize("game", [*GAMES, "mixed_sign_game"])
    def test_samples_match_fraction_oracle(self, game, request):
        game = request.getfixturevalue(game)
        for seed in (11, 12):
            self.assert_samples_match_oracle(game.utilities, game.prior, seed, 100)

    @pytest.mark.parametrize("game", [*GAMES, "mixed_sign_game"])
    def test_samples_lie_between_the_profile_payoffs(self, game, request):
        """Without the oracle: a sample is a mixture of the 64 profiles with
        raw weights summing to W, 1 <= W <= 100 * MIXTURE_MAX_ATOMS, so its
        denominator is W times the profile table's, and each player's
        numerator, and their total, lies between W times the least and the
        greatest of the profiles' own."""
        game = request.getfixturevalue(game)
        profiles = profile_table(game.utilities, game.prior)
        columns = [*zip(*profiles.numerators), [sum(n) for n in profiles.numerators]]
        lows, highs = [min(c) for c in columns], [max(c) for c in columns]
        for numerators, den in _sampled_payoffs(profiles, random.Random(5), 500):
            weight, rest = divmod(den, profiles.denominator)
            assert rest == 0 and 1 <= weight <= 100 * MIXTURE_MAX_ATOMS
            for n, lo, hi in zip([*numerators, sum(numerators)], lows, highs):
                assert lo * weight <= n <= hi * weight

    @settings(max_examples=20, deadline=None)
    @given(
        st.lists(st.one_of(BIG_RATIONALS, HUGE_INTEGERS), min_size=1, max_size=16),
        st.none() | st.lists(st.integers(0, 10**9), min_size=8, max_size=8).filter(any),
        st.randoms(use_true_random=False),
        st.integers(0, 2**32),
    )
    @example([F(-5, 7)], None, random.Random(0), 0)  # a constant table
    @example([-(10**31), F(-3, 10**9), 7], [0, 0, 5, 0, 1, 0, 0, 9], random.Random(1), 2)
    def test_samples_match_fraction_oracle_on_large_tables(self, pool, raw_prior, pick, seed):
        """Large, negative and constant tables, under uniform and
        non-uniform priors."""
        table = table_from_function(lambda i, x, y: pick.choice(pool))
        if raw_prior is None:
            prior = make_uniform_prior()
        else:
            prior = Prior(tuple(F(w, sum(raw_prior)) for w in raw_prior))
        self.assert_samples_match_oracle(table, prior, seed, 4)


@pytest.mark.parametrize("name", [*GAMES, "constant_game"])
def test_audit_bookkeeping_matches_a_fraction_loop(name, request):
    """The audit's integer comparisons give the maximum total, the bound
    check and the max-min payoff of a plain Fraction loop; every sample of
    the constant game ties with the bound."""
    game = request.getfixturevalue(name)
    profiles = profile_table(game.utilities, game.prior)
    bound = profiles.max_total()
    max_min = max(min(profiles.payoffs(k)) for k in range(64))
    totals = []
    for numerators, den in _sampled_payoffs(profiles, random.Random(3), 300):
        triple = PayoffTriple(*(F(n, den) for n in numerators))
        totals.append(triple.total())
        max_min = max(max_min, min(triple))
    audit = classical_bound_audit(profiles, samples=300, seed=3)
    assert audit.sample_max == max(totals)
    assert audit.samples_within_bound == all(t <= bound for t in totals)
    assert audit.max_min_payoff == max_min
    if name == "constant_game":
        assert set(totals) == {bound}
