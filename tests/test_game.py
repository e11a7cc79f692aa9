import json
import math
import random
import re
from decimal import Decimal
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from bellgame.classical import ALL_PROFILES, strategy_to_distribution
from bellgame.game import (
    PLAYERS,
    PROFILES,
    ConditionalDistribution,
    Player,
    Prior,
    UtilityTable,
    ValidationError,
    affine_transform,
    check_player_symmetry,
    expected_payoffs,
    game_digest,
    game_from_json_dict,
    game_to_json_dict,
    load_game,
    no_signalling_residual,
)

RATIONALS = st.fractions(min_value=-10, max_value=10, max_denominator=12)

GAME_SCHEMA = json.loads(
    (Path(__file__).resolve().parent.parent / "docs" / "game.schema.json").read_text()
)
RATIONAL_DEF = GAME_SCHEMA["$defs"]["rational"]
RATIONAL_PATTERN = RATIONAL_DEF["pattern"]

#: Values for one rational field: schema rationals, zero denominators,
#: near misses (decimals, exponents, spaces, underscores, newlines) and
#: JSON values of other types.
RATIONAL_FIELD_VALUES = st.one_of(
    st.from_regex(RATIONAL_PATTERN, fullmatch=True),
    st.from_regex(r"-?[0-9]+/0+", fullmatch=True),
    st.text(alphabet="-+/0123456789.eE _\n", max_size=8),
    st.text(max_size=4),
    st.integers(),
    st.floats(),
    st.booleans(),
    st.none(),
    st.lists(st.integers(), max_size=2),
)


def random_exact_distribution(seed: int) -> ConditionalDistribution:
    """Row-stochastic table with rational entries, denominator 96."""
    rng = random.Random(seed)
    rows = []
    for _ in range(8):
        raw = [rng.randint(0, 12) for _ in range(8)]
        if sum(raw) == 0:
            raw[0] = 1
        total = sum(raw)
        rows.append(tuple(Fraction(v, total) for v in raw))
    return ConditionalDistribution(tuple(rows))


class TestExpectedPayoffs:
    def test_known_equilibrium_payoffs(self, utilities, uniform_prior):
        dist = strategy_to_distribution(((0, 1), (0, 0), (0, 0)))
        f = expected_payoffs(utilities, uniform_prior, dist)
        assert f == (Fraction(5, 8), Fraction(13, 16), Fraction(13, 16))

    def test_constant_utilities_give_constant_payoffs(self, uniform_prior):
        c = Fraction(7, 3)
        table = UtilityTable.constant(c)
        dist = strategy_to_distribution(((1, 1), (0, 0), (1, 1)))  # always (1, 0, 1)
        assert expected_payoffs(table, uniform_prior, dist) == (c, c, c)

    def test_uniform_distribution_equals_direct_sum(self, utilities, uniform_prior):
        # independent oracle: plain double loop over all 64 table entries
        f = expected_payoffs(
            utilities, uniform_prior, ConditionalDistribution.uniform()
        )
        for player in PLAYERS:
            direct = (
                sum(
                    utilities.utility(player, x, y)
                    for x in PROFILES
                    for y in PROFILES
                )
                / 64
            )
            assert f[player] == direct
        # the bundled game sums to 104/3 per player
        assert f == (Fraction(13, 24),) * 3

    @pytest.mark.parametrize("seed", range(5))
    def test_exactness_against_integer_scaled_summation(
        self, utilities, uniform_prior, seed
    ):
        # scale every rational to an integer and redo the sum in pure ints
        dist = random_exact_distribution(seed)
        f = expected_payoffs(utilities, uniform_prior, dist)
        scale = math.lcm(
            *(v.denominator for rows in utilities.values for r in rows for v in r),
            *(v.denominator for r in dist.rows for v in r),
            *(w.denominator for w in uniform_prior.weights),
        )
        for player in PLAYERS:
            acc = 0
            for xi in range(8):
                for yi in range(8):
                    acc += (
                        int(uniform_prior.weights[xi] * scale)
                        * int(dist.rows[xi][yi] * scale)
                        * int(utilities.values[player][xi][yi] * scale)
                    )
            assert f[player] == Fraction(acc, scale**3)

    def test_malformed_distribution_names_offending_row(self, utilities, uniform_prior):
        rows = [[Fraction(1, 8)] * 8 for _ in range(8)]
        rows[5][0] = Fraction(1, 4)  # row sums to 9/8
        bad = ConditionalDistribution(tuple(map(tuple, rows)))
        with pytest.raises(ValidationError, match=r"\(1, 0, 1\)"):
            expected_payoffs(utilities, uniform_prior, bad)

    def test_negative_entry_rejected(self, utilities, uniform_prior):
        rows = [[Fraction(1, 8)] * 8 for _ in range(8)]
        rows[2][0] = Fraction(-1, 8)
        rows[2][1] = Fraction(3, 8)
        bad = ConditionalDistribution(tuple(map(tuple, rows)))
        with pytest.raises(ValidationError, match="negative"):
            expected_payoffs(utilities, uniform_prior, bad)


class TestAffineTransform:
    def test_identity(self, utilities):
        assert affine_transform(utilities, 1, 0) == utilities

    def test_scale_six_shift_twenty_clears_negatives(self, utilities):
        scaled = affine_transform(utilities, 6, 20)
        assert min(v for rows in scaled.values for row in rows for v in row) >= 0
        # the most negative entry -19/6 lands at 1
        assert scaled.utility(Player.A, (0, 1, 0), (1, 1, 1)) == 1
        assert utilities.utility(Player.A, (0, 1, 0), (1, 1, 1)) == Fraction(-19, 6)

    @pytest.mark.parametrize("alpha", [0, -1, Fraction(-3, 7)])
    def test_nonpositive_scale_rejected(self, utilities, alpha):
        with pytest.raises(ValidationError, match="positive"):
            affine_transform(utilities, alpha, 1)

    @settings(max_examples=40, deadline=None)
    @given(
        alpha=RATIONALS.filter(lambda a: a > 0),
        beta=RATIONALS,
        seed=st.integers(0, 100),
    )
    def test_payoff_equivariance(self, utilities, uniform_prior, alpha, beta, seed):
        dist = random_exact_distribution(seed)
        base = expected_payoffs(utilities, uniform_prior, dist)
        moved = expected_payoffs(
            affine_transform(utilities, alpha, beta), uniform_prior, dist
        )
        assert moved == tuple(alpha * v + beta for v in base)


class TestPlayerSymmetry:
    def test_bundled_game_is_symmetric(self, utilities):
        assert check_player_symmetry(utilities) == []

    def test_constant_game_is_symmetric(self):
        assert check_player_symmetry(UtilityTable.constant(3)) == []

    def test_single_perturbed_entry_is_caught(self, utilities):
        def perturbed(player, x, y):
            if player == Player.A and x == (0, 0, 0) and y == (0, 0, 0):
                return Fraction(3)
            return utilities.utility(player, x, y)

        violations = check_player_symmetry(UtilityTable.from_function(perturbed))
        assert violations
        assert any(
            v.swap == (Player.A, Player.B)
            and v.x == (0, 0, 0)
            and v.y == (0, 0, 0)
            for v in violations
        )

    def test_permutation_covariance(self, utilities, uniform_prior):
        # for a symmetric game, swapping two players' slots in the
        # distribution permutes the payoff triple the same way
        dist = random_exact_distribution(11)
        swapped_rows = []
        for x in PROFILES:
            sx = (x[1], x[0], x[2])
            row = [None] * 8
            for y in PROFILES:
                sy = (y[1], y[0], y[2])
                row[4 * y[0] + 2 * y[1] + y[2]] = dist.prob(sy, sx)
            swapped_rows.append(tuple(row))
        swapped = ConditionalDistribution(tuple(swapped_rows))
        f = expected_payoffs(utilities, uniform_prior, dist)
        g = expected_payoffs(utilities, uniform_prior, swapped)
        assert g == (f.b, f.a, f.c)


class TestNoSignalling:
    def test_product_distribution_passes(self):
        rng = random.Random(3)
        locals_ = []
        for _ in range(3):
            rows = []
            for _ in range(2):
                p0 = Fraction(rng.randint(0, 16), 16)
                rows.append((p0, 1 - p0))
            locals_.append(rows)
        rows = []
        for x in PROFILES:
            row = [None] * 8
            for y in PROFILES:
                p = Fraction(1)
                for i in PLAYERS:
                    p *= locals_[i][x[i]][y[i]]
                row[4 * y[0] + 2 * y[1] + y[2]] = p
            rows.append(tuple(row))
        dist = ConditionalDistribution(tuple(rows))
        assert no_signalling_residual(dist) == 0

    def test_action_copying_remote_type_is_flagged(self):
        # y_A = x_C, y_B = y_C = 0: player C's type steers A's marginal
        rows = []
        for x in PROFILES:
            row = [Fraction(0)] * 8
            row[4 * x[2]] = Fraction(1)
            rows.append(tuple(row))
        dist = ConditionalDistribution(tuple(rows))
        # C's type moves the marginal of (y_A, y_B) = (0, 0) from 1 to 0
        assert no_signalling_residual(dist) == 1

    @pytest.mark.parametrize("seed", range(5))
    def test_residual_is_largest_marginal_difference(self, seed):
        dist = random_exact_distribution(seed)
        largest = Fraction(0)
        for s in PLAYERS:
            for x in PROFILES:
                if x[s]:
                    continue
                x1 = tuple(1 if i == s else b for i, b in enumerate(x))
                for y in PROFILES:
                    if y[s]:
                        continue
                    y1 = tuple(1 if i == s else b for i, b in enumerate(y))
                    m0 = dist.prob(y, x) + dist.prob(y1, x)
                    m1 = dist.prob(y, x1) + dist.prob(y1, x1)
                    largest = max(largest, abs(m0 - m1))
        assert largest > 0
        assert no_signalling_residual(dist) == largest

    def test_residual_is_zero_on_deterministic_profiles(self):
        for profile in ALL_PROFILES:
            assert no_signalling_residual(strategy_to_distribution(profile)) == 0

    def test_ghz_distribution_passes_at_1e12(self, ghz):
        from bellgame.quantum import MeasurementSetting, quantum_distribution

        setting = MeasurementSetting.planar([0.3, -1.1, 2.2, 0.7, -2.5, 1.9])
        dist = quantum_distribution(ghz, setting)
        assert no_signalling_residual(dist) <= 1e-12


class TestPriorValidation:
    def test_uniform_prior(self):
        prior = Prior.uniform()
        assert sum(prior.weights) == 1

    def test_unnormalized_prior_rejected(self):
        with pytest.raises(ValidationError, match="sum to 4/5"):
            Prior((Fraction(1, 10),) * 8)

    def test_negative_prior_rejected(self):
        weights = [Fraction(1, 4)] * 8
        weights[0] = Fraction(-3, 4)
        with pytest.raises(ValidationError, match="negative"):
            Prior(tuple(weights))


class TestSerialization:
    def test_round_trip(self, table1, tmp_path):
        path = tmp_path / "game.json"
        path.write_text(json.dumps(game_to_json_dict(table1)))
        assert load_game(path) == table1

    def test_digest_is_stable_across_round_trip(self, table1, tmp_path):
        path = tmp_path / "game.json"
        path.write_text(json.dumps(game_to_json_dict(table1)))
        assert game_digest(load_game(path)) == game_digest(table1)

    def test_bad_rational_named(self, table1):
        doc = game_to_json_dict(table1)
        doc["utilities"]["B"][3][4] = "not-a-number"
        with pytest.raises(ValidationError, match=r"utilities\['B'\]\[3\]\[4\]"):
            game_from_json_dict(doc)

    def test_missing_prior_entry_named(self, table1):
        doc = game_to_json_dict(table1)
        del doc["prior"]["0 1 1"]
        with pytest.raises(ValidationError, match="0 1 1"):
            game_from_json_dict(doc)

    def test_unnormalized_prior_in_file_named(self, table1, tmp_path):
        doc = game_to_json_dict(table1)
        for key in doc["prior"]:
            doc["prior"][key] = "1/10"
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(doc))
        with pytest.raises(ValidationError, match="prior"):
            load_game(path)

    def test_unnormalized_prior_beyond_the_int_string_limit_named(self, table1):
        doc = game_to_json_dict(table1)
        for key in doc["prior"]:
            doc["prior"][key] = "1/8" + "0" * 4400
        with pytest.raises(ValidationError, match="prior entries sum to 1/10+, "):
            game_from_json_dict(doc)

    def test_invalid_json_reports_line(self, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text('{"players": ["A", "B", "C"],\n  oops\n}')
        with pytest.raises(ValidationError, match="line 2"):
            load_game(path)

    @settings(max_examples=300, deadline=None)
    @given(RATIONAL_FIELD_VALUES)
    @example("1" * 5000)
    @example("-" + "9" * 5000 + "/7")
    @example("1/" + "0" * 5000)
    def test_loader_accepts_exactly_the_schema_rationals(self, table1, value):
        """A utility entry loads if and only if it matches the schema's
        ``rational`` and its denominator is nonzero, whatever its length.

        JSON Schema patterns are ECMA-262 regexes, whose "$" matches only at
        the end of the string; jsonschema applies them with Python's
        re.search, whose "$" also matches before a final newline, so the
        pattern is checked again with re.fullmatch.  The expected value is
        read through Decimal, which has no limit on the digits of an int
        conversion.
        """
        jsonschema = pytest.importorskip("jsonschema")
        doc = game_to_json_dict(table1)
        doc["utilities"]["B"][3][4] = value
        expected = (
            jsonschema.Draft202012Validator(RATIONAL_DEF).is_valid(value)
            and re.fullmatch(RATIONAL_PATTERN, value) is not None
            and (value.partition("/")[2] or "1").strip("0") != ""
        )
        try:
            game = game_from_json_dict(doc)
        except ValidationError as exc:
            assert "utilities['B'][3][4]" in str(exc)
            assert not expected
        else:
            assert expected
            num, _, den = value.partition("/")
            assert game.utilities.values[Player.B][3][4] == Fraction(
                Decimal(num)
            ) / Fraction(Decimal(den or "1"))

    def test_integer_rationals_accepted_on_input(self, table1):
        doc = game_to_json_dict(table1)
        doc["utilities"]["A"][0][0] = "2"  # instead of "2/1"
        game = game_from_json_dict(doc)
        assert game.utilities.utility(Player.A, (0, 0, 0), (0, 0, 0)) == 2
