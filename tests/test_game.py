import hashlib
import importlib
import itertools
import json
import math
import random
import re
from decimal import Decimal
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from bellgame.builtin import DATA_DIR
from bellgame.classical import ALL_PROFILES, enumerate_deterministic_equilibria, profile_table
from bellgame.game import (
    PLAYERS,
    PROFILES,
    ConditionalDistribution,
    GameDefinition,
    Player,
    Prior,
    UtilityTable,
    ValidationError,
    check_player_symmetry,
    check_prior_symmetry,
    expected_payoffs,
    game_from_json_dict,
    game_to_json_dict,
    integer_form,
    load_game,
    no_signalling_residual,
    profile_index,
)
from bellgame.optimize import OptimizationConfig
from bellgame.quantum import MeasurementSetting, QuantumAdvisor, ghz_advisor, ghz_weights
from oracles import (
    HiddenVariableModel,
    affine_transform,
    constant_table,
    make_uniform_distribution,
    make_uniform_prior,
    strategy_to_distribution,
    table_entry,
    table_from_function,
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


def prob(dist: ConditionalDistribution, y, x):
    """p(y|x) of a distribution, looked up by profile."""
    return dist.rows[profile_index(x)][profile_index(y)]


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
        table = constant_table(c)
        dist = strategy_to_distribution(((1, 1), (0, 0), (1, 1)))  # always (1, 0, 1)
        assert expected_payoffs(table, uniform_prior, dist) == (c, c, c)

    def test_uniform_distribution_equals_direct_sum(self, utilities, uniform_prior):
        # independent oracle: plain double loop over all 64 table entries
        f = expected_payoffs(
            utilities, uniform_prior, make_uniform_distribution()
        )
        for player in PLAYERS:
            direct = (
                sum(
                    table_entry(utilities, player, x, y)
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


@pytest.mark.parametrize("name", ["table1", "affine_game", "nonuniform_game"])
def test_integer_form_gives_every_weighted_utility_exactly(name, request):
    """prior_nums[x] * utils[i][x][y] over the denominator is P(x) u_i(x, y)
    as a Fraction, for every player and profile pair."""
    game = request.getfixturevalue(name)
    prior_nums, utils, denominator = integer_form(game.utilities, game.prior)
    for i in PLAYERS:
        for xi, weight in enumerate(game.prior.weights):
            for yi, u in enumerate(game.utilities.values[i][xi]):
                n = prior_nums[xi] * utils[i][xi][yi]
                assert type(n) is int
                assert Fraction(n, denominator) == weight * u


class TestAffineTransform:
    def test_identity(self, utilities):
        assert affine_transform(utilities, 1, 0) == utilities

    def test_scale_six_shift_twenty_clears_negatives(self, utilities):
        scaled = affine_transform(utilities, 6, 20)
        assert min(v for rows in scaled.values for row in rows for v in row) >= 0
        # the most negative entry -19/6 lands at 1
        assert table_entry(scaled, Player.A, (0, 1, 0), (1, 1, 1)) == 1
        assert table_entry(utilities, Player.A, (0, 1, 0), (1, 1, 1)) == Fraction(-19, 6)

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


def walked_symmetry_violations(table: UtilityTable) -> list[tuple]:
    """The oracle of check_player_symmetry: each transposition (i, j) with
    bystander k, then each x and y, swapping the slots of the profiles and
    reading the entries u_i(x, y) against u_j(sx, sy) and u_k(x, y) against
    u_k(sx, sy)."""
    def u(player, x, y):
        return table.values[player][profile_index(x)][profile_index(y)]

    def swap(p, i, j):
        out = list(p)
        out[i], out[j] = out[j], out[i]
        return tuple(out)

    found = []
    for i, j, k in ((Player.A, Player.B, Player.C), (Player.A, Player.C, Player.B),
                    (Player.B, Player.C, Player.A)):
        for x in PROFILES:
            for y in PROFILES:
                sx, sy = swap(x, i, j), swap(y, i, j)
                if u(i, x, y) != u(j, sx, sy):
                    found.append(((i, j), i, x, y))
                if u(k, x, y) != u(k, sx, sy):
                    found.append(((i, j), k, x, y))
    return found


def planted_symmetric_table(rng: random.Random) -> UtilityTable:
    """A seeded player-symmetric table with a few planted asymmetries.

    u_i(x, y) depends on the player's own (x_i, y_i) and the multiset of the
    others' pairs, with values of up to 30 digits, of either sign, some of
    them integers.  Then one to four entries change either their numerator
    alone or their denominator alone (times the prime 2**127 - 1, which
    divides no numerator here), and a few others are rewritten as the same
    value: built from a numerator and denominator both tripled, or as an int
    where the value is an integer.
    """
    drawn: dict[tuple, Fraction] = {}

    def value(i, x, y):
        key = (x[i], y[i], tuple(sorted((x[j], y[j]) for j in PLAYERS if j != i)))
        if key not in drawn:
            drawn[key] = Fraction(
                rng.randint(-(10**30), 10**30), rng.choice((1, 1, 7, 10**12))
            )
        return drawn[key]

    values = [[list(row) for row in rows] for rows in table_from_function(value).values]
    for _ in range(rng.randint(1, 4)):
        row = values[rng.randrange(3)][rng.randrange(8)]
        yi = rng.randrange(8)
        n, d = row[yi].numerator or 1, row[yi].denominator
        row[yi] = Fraction(n + d, d) if rng.random() < 0.5 else Fraction(n, d * (2**127 - 1))
    for _ in range(rng.randint(0, 6)):
        row = values[rng.randrange(3)][rng.randrange(8)]
        yi = rng.randrange(8)
        v = row[yi]
        row[yi] = int(v) if v.denominator == 1 else Fraction(3 * v.numerator, 3 * v.denominator)
    return UtilityTable(tuple(tuple(map(tuple, rows)) for rows in values))


class TestPlayerSymmetry:
    def test_bundled_game_is_symmetric(self, utilities):
        assert check_player_symmetry(utilities) == []

    def test_constant_game_is_symmetric(self):
        assert check_player_symmetry(constant_table(3)) == []

    def test_single_perturbed_entry_is_caught(self, utilities):
        def perturbed(player, x, y):
            if player == Player.A and x == (0, 0, 0) and y == (0, 0, 0):
                return Fraction(3)
            return table_entry(utilities, player, x, y)

        violations = check_player_symmetry(table_from_function(perturbed))
        assert violations
        assert any(
            v.swap == (Player.A, Player.B)
            and v.x == (0, 0, 0)
            and v.y == (0, 0, 0)
            for v in violations
        )

    def test_audit_matches_the_entry_walk(self, utilities):
        """The same (swap, player, x, y) relations in the same order as a
        walk that swaps the profiles' slots and compares every entry as a
        Fraction, on table1, a constant game, 300 seeded perturbations of
        table1 and 100 seeded player-symmetric tables of large entries with
        planted asymmetries."""
        tables = [utilities, constant_table(Fraction(-2, 3))]
        rng = random.Random(24)
        for _ in range(300):
            values = [[list(row) for row in rows] for rows in utilities.values]
            for _ in range(rng.randint(1, 8)):
                values[rng.randrange(3)][rng.randrange(8)][rng.randrange(8)] = Fraction(
                    rng.randint(-6, 6), rng.randint(1, 4)
                )
            tables.append(UtilityTable(tuple(tuple(map(tuple, rows)) for rows in values)))
        planted = [planted_symmetric_table(random.Random(seed)) for seed in range(100)]
        found = [[tuple(v) for v in check_player_symmetry(t)] for t in tables + planted]
        assert found == [walked_symmetry_violations(t) for t in tables + planted]
        assert found[:2] == [[], []]
        assert sum(map(bool, found[2:302])) > 250  # a few draws keep an entry as it was
        # a planted entry breaks its relation under each of the two
        # transpositions that move its player, and up to two more as the
        # bystander of the third
        assert all(2 <= len(v) <= 16 for v in found[302:])

    def test_prior_audit(self, nonuniform_game):
        assert check_prior_symmetry(make_uniform_prior()) == []
        # P(x) = (index(x) + 1) / 36 differs between x and sx whenever the
        # swapped bits differ
        assert check_prior_symmetry(nonuniform_game.prior) == [
            ((i, j), x)
            for i, j in ((Player.A, Player.B), (Player.A, Player.C), (Player.B, Player.C))
            for x in PROFILES
            if x[i] != x[j]
        ]

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
                row[4 * y[0] + 2 * y[1] + y[2]] = prob(dist, sy, sx)
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
                    m0 = prob(dist, y, x) + prob(dist, y1, x)
                    m1 = prob(dist, y, x1) + prob(dist, y1, x1)
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


    def test_index_table_matches_the_marginal_walk_on_floats(self):
        """The residual is the same float, by repr, as the walk over every
        marginal pair that builds profiles and calls dist.prob (a copy of
        the earlier code), on 3000 seeded float tables near and far from
        no-signalling, with signed zeros and entries of 1e-17 size."""

        def walked_residual(dist):
            def marginal_pairs():
                for s in PLAYERS:
                    others = [p for p in PLAYERS if p != s]
                    for ot in itertools.product((0, 1), repeat=2):
                        for oa in itertools.product((0, 1), repeat=2):
                            marg = []
                            for xs in (0, 1):
                                x = [0, 0, 0]
                                x[s] = xs
                                x[others[0]], x[others[1]] = ot
                                total = 0
                                for ys in (0, 1):
                                    y = [0, 0, 0]
                                    y[s] = ys
                                    y[others[0]], y[others[1]] = oa
                                    total += prob(
                                        dist, (y[0], y[1], y[2]), (x[0], x[1], x[2])
                                    )
                                marg.append(total)
                            yield marg[0], marg[1]

            return max(abs(lhs - rhs) for lhs, rhs in marginal_pairs())

        rng = random.Random(17)
        tiny = (0.0, -0.0, 1e-17, -1e-17, 3e-17, 5e-324)
        for _ in range(3000):
            kind = rng.randrange(3)
            rows = []
            for _ in range(8):
                if kind == 0:  # independent entries, many of them tiny
                    row = [
                        rng.choice(tiny) if rng.random() < 0.5 else rng.random()
                        for _ in range(8)
                    ]
                elif kind == 1:  # uniform rows, perturbed at the last digits
                    row = [0.125 + rng.choice(tiny) * rng.randrange(4) for _ in range(8)]
                else:  # zeros of either sign, with a few 1e-17 entries
                    row = [rng.choice(tiny) for _ in range(8)]
                rows.append(tuple(row))
            dist = ConditionalDistribution(tuple(rows))
            assert repr(no_signalling_residual(dist)) == repr(walked_residual(dist))


class TestDerivedValues:
    """A game's digest, profile table and GHZ weights: derived once per
    object, equal to a fresh computation."""

    @pytest.fixture(params=["table1", "affine_game", "nonuniform_game", "file"])
    def game(self, request, table1, tmp_path):
        if request.param == "file":
            path = tmp_path / "table1.json"
            path.write_text(json.dumps(game_to_json_dict(table1)))
            return load_game(path)
        return request.getfixturevalue(request.param)

    def test_equal_to_a_fresh_computation(self, game):
        blob = json.dumps(game_to_json_dict(game), sort_keys=True, separators=(",", ":"))
        assert game.digest == "sha256:" + hashlib.sha256(blob.encode()).hexdigest()
        fresh = ghz_weights(game.utilities, game.prior)
        weights = game.ghz_weights
        assert (weights.shape, weights.dtype) == (fresh.shape, fresh.dtype)
        assert weights.tobytes() == fresh.tobytes()
        assert game.digest is game.digest
        assert game.ghz_weights is weights
        profiles = game.profile_table
        assert profiles == profile_table(game.utilities, game.prior)
        assert game.profile_table is profiles
        assert game.planar_search is game.planar_search

    def test_weights_are_read_only(self, table1):
        with pytest.raises(ValueError, match="read-only"):
            table1.ghz_weights[0, 0, 0] = 1.0

    @staticmethod
    def _count_derivations(monkeypatch) -> dict[str, int]:
        """Count the calls that derive each of a game's four values."""
        calls = dict.fromkeys(["digest", "profile_table", "ghz_weights", "planar_search"], 0)
        for name, target in [
            ("digest", "bellgame.game.game_to_json_dict"),
            ("profile_table", "bellgame.classical.profile_table"),
            ("ghz_weights", "bellgame.quantum.ghz_weights"),
            ("planar_search", "bellgame.optimize.PlanarSearch"),
        ]:
            module, _, attr = target.rpartition(".")
            derive = getattr(importlib.import_module(module), attr)

            def spy(*args, name=name, derive=derive):
                calls[name] += 1
                return derive(*args)

            monkeypatch.setattr(target, spy)
        return calls

    def test_each_value_is_derived_once_and_kept(self, game, monkeypatch):
        calls = self._count_derivations(monkeypatch)
        fresh = GameDefinition(game.utilities, game.prior)
        for _ in range(2):
            kept = [getattr(fresh, name) for name in calls]
        assert calls == dict.fromkeys(calls, 1)
        for name, value in zip(calls, kept):
            assert getattr(fresh, name) is value
            with pytest.raises(AttributeError):
                setattr(fresh, name, value)
            with pytest.raises(AttributeError):
                delattr(fresh, name)
            assert getattr(fresh, name) is value

    def test_an_overflow_is_raised_on_every_use(self, table1, monkeypatch):
        """A derivation that raises keeps nothing: the weights, and the
        planar search that reads them, are tried again and raise again,
        while the digest and the profile table are derived once."""
        doc = game_to_json_dict(table1)
        doc["utilities"]["A"][0][0] = "9" * 401
        game = game_from_json_dict(doc)
        calls = self._count_derivations(monkeypatch)
        message = "^utilities too large for the GHZ engine: the sum of P"
        for _ in range(2):
            with pytest.raises(ValidationError, match=message):
                game.ghz_weights
            with pytest.raises(ValidationError, match=message):
                game.planar_search
            game.digest, game.profile_table
        assert calls == {"digest": 1, "profile_table": 1, "ghz_weights": 4, "planar_search": 0}


#: The value classes by name: their fields, a function that builds one
#: object afresh, and one that builds an object with other field values.
VALUE_CLASSES = {
    "UtilityTable": (
        ("values",), lambda: constant_table(1), lambda: constant_table(2)
    ),
    "Prior": (
        ("weights",),
        make_uniform_prior,
        lambda: Prior((Fraction(1, 2),) * 2 + (Fraction(0),) * 6),
    ),
    "ConditionalDistribution": (
        ("rows",),
        make_uniform_distribution,
        lambda: strategy_to_distribution(ALL_PROFILES[0]),
    ),
    "GameDefinition": (
        ("utilities", "prior"),
        lambda: GameDefinition(constant_table(1), make_uniform_prior()),
        lambda: GameDefinition(constant_table(2), make_uniform_prior()),
    ),
    "HiddenVariableModel": (
        ("atoms",),
        lambda: HiddenVariableModel.from_profiles([(1, ALL_PROFILES[0])]),
        lambda: HiddenVariableModel.from_profiles([(1, ALL_PROFILES[1])]),
    ),
    "OptimizationConfig": (
        ("restarts", "seed"), OptimizationConfig, lambda: OptimizationConfig(seed=1)
    ),
    "MeasurementSetting": (
        ("theta", "phi"),
        lambda: MeasurementSetting.planar(np.zeros(6)),
        lambda: MeasurementSetting.planar(np.ones(6)),
    ),
    "QuantumAdvisor": (
        ("rho",), ghz_advisor, lambda: QuantumAdvisor(np.eye(8, dtype=complex) / 8)
    ),
}

_F = Fraction
_CERTAIN = ((_F(1), _F(0)), (_F(1), _F(0)))  # a response table: y = 0 for both types

#: (id, a construction the class refuses, the whole message of its error)
REFUSED = [
    ("utility-shape", lambda: UtilityTable(((),)), "utility table must be 3 x 8 x 8"),
    ("prior-length", lambda: Prior((_F(1, 8),) * 7), "prior must have 8 entries"),
    (
        "prior-negative",
        lambda: Prior((_F(-1, 8),) + (_F(9, 56),) * 7),
        "prior entry for type profile (0, 0, 0) is negative: -1/8",
    ),
    (
        "prior-sum",
        lambda: Prior((_F(1, 10),) * 8),
        "prior entries sum to 4/5, expected exactly 1",
    ),
    (
        "mixture-weight",
        lambda: HiddenVariableModel(((_F(-1), ()),)),
        "negative mixture weight -1",
    ),
    (
        "mixture-tables",
        lambda: HiddenVariableModel(((_F(1), ()),)),
        "each atom needs 3 response tables",
    ),
    (
        "mixture-row",
        lambda: HiddenVariableModel(
            ((_F(1), (((_F(1, 2), _F(1, 3)), (_F(1), _F(0))),) * 3),)
        ),
        "response row (Fraction(1, 2), Fraction(1, 3)) is not a distribution",
    ),
    (
        "mixture-sum",
        lambda: HiddenVariableModel(((_F(1, 2), (_CERTAIN,) * 3),)),
        "mixture weights sum to 1/2, not 1",
    ),
    ("restarts-low", lambda: OptimizationConfig(restarts=0), "restarts must be positive"),
    (
        "restarts-high",
        lambda: OptimizationConfig(restarts=10_001),
        "restarts must be at most 10000",
    ),
    ("seed", lambda: OptimizationConfig(seed=-1), "seed must be non-negative"),
    (
        "theta-shape",
        lambda: MeasurementSetting(np.zeros((2, 3)), np.zeros((3, 2))),
        "theta must have shape (3, 2), got (2, 3)",
    ),
    (
        "phi-shape",
        lambda: MeasurementSetting(np.zeros((3, 2)), np.zeros(6)),
        "phi must have shape (3, 2), got (6,)",
    ),
    (
        "angle-finite",
        lambda: MeasurementSetting(np.zeros((3, 2)), np.full((3, 2), math.nan)),
        "Bloch angles must be finite",
    ),
    (
        "advisor-shape",
        lambda: QuantumAdvisor(np.eye(4)),
        "advisor state must be 8x8, got (4, 4)",
    ),
]


class TestValueTypes:
    """The value classes of the game, classical, optimize and quantum
    modules: fields set once by the constructor, which validates them;
    equality and hash by value, except a setting's (by its angles, and
    unhashable) and an advisor's (by identity); the repr Cls(field=...)."""

    @pytest.mark.parametrize("name", VALUE_CLASSES)
    def test_fields_cannot_be_assigned_or_deleted(self, name):
        fields, make, _ = VALUE_CLASSES[name]
        obj = make()
        for field in fields:
            value = getattr(obj, field)
            with pytest.raises(AttributeError):
                setattr(obj, field, value)
            with pytest.raises(AttributeError):
                delattr(obj, field)
            assert getattr(obj, field) is value
        with pytest.raises(AttributeError):
            obj.extra = 1
        assert not hasattr(obj, "extra")

    @pytest.mark.parametrize(
        "name", [n for n in VALUE_CLASSES if n not in ("MeasurementSetting", "QuantumAdvisor")]
    )
    def test_equality_and_hash_go_by_value(self, name):
        fields, make, make_other = VALUE_CLASSES[name]
        a, b, other = make(), make(), make_other()
        assert a is not b
        assert a == b and hash(a) == hash(b)
        assert a != other
        # by class as well: the same field values in a tuple are not equal
        assert a != tuple(getattr(a, field) for field in fields)

    def test_a_quantum_advisor_compares_by_identity(self):
        advisor = ghz_advisor()
        assert advisor == advisor
        assert advisor != ghz_advisor()
        assert len({advisor, advisor, ghz_advisor()}) == 2

    @pytest.mark.parametrize("name", VALUE_CLASSES)
    def test_the_repr_names_each_field(self, name):
        fields, make, _ = VALUE_CLASSES[name]
        obj = make()
        shown = ", ".join(f"{field}={getattr(obj, field)!r}" for field in fields)
        assert repr(obj) == f"{name}({shown})"

    @pytest.mark.parametrize(
        "build, message", [pytest.param(*case[1:], id=case[0]) for case in REFUSED]
    )
    def test_validation_messages(self, build, message):
        with pytest.raises(ValidationError, match=f"^{re.escape(message)}$"):
            build()


class TestPriorValidation:
    def test_uniform_prior(self):
        prior = make_uniform_prior()
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
        assert load_game(path).digest == table1.digest

    def test_bad_rational_named(self, table1):
        doc = game_to_json_dict(table1)
        doc["utilities"]["B"][3][4] = "not-a-number"
        with pytest.raises(ValidationError, match=r"utilities\['B'\]\[3\]\[4\]"):
            game_from_json_dict(doc)

    @pytest.mark.parametrize(
        "edit, message",
        [
            pytest.param(
                lambda d: d["prior"].update({"0 1 0": "1/8.0"}),
                """prior['0 1 0']: invalid rational '1/8.0'; expected a "num/den" or integer string""",
                id="prior-entry",
            ),
            pytest.param(
                lambda d: d["prior"].update({"0 1 0": "1/0"}),
                "prior['0 1 0']: zero denominator in rational",
                id="prior-zero-denominator",
            ),
            pytest.param(
                lambda d: d["utilities"]["B"][3].pop(),
                "utilities['B'][3]: expected 8 entries",
                id="short-row",
            ),
            pytest.param(
                lambda d: d["utilities"]["B"][3].__setitem__(5, 1.5),
                """utilities['B'][3][5]: invalid rational 1.5; expected a "num/den" or integer string""",
                id="utility-entry",
            ),
            pytest.param(
                lambda d: d["utilities"]["B"][3].__setitem__(5, "-3/00"),
                "utilities['B'][3][5]: zero denominator in rational",
                id="utility-zero-denominator",
            ),
        ],
    )
    def test_loader_messages(self, table1, edit, message):
        """The whole message of each kind of bad entry; a zero denominator
        keeps the ZeroDivisionError as its cause."""
        doc = game_to_json_dict(table1)
        edit(doc)
        with pytest.raises(ValidationError, match=f"^{re.escape(message)}$") as caught:
            game_from_json_dict(doc)
        assert isinstance(caught.value.__cause__, ZeroDivisionError) == ("zero" in message)

    def test_repeated_strings_load_as_distinct_ones(self, table1):
        """table1's file repeats 12 strings over 192 utilities and one over
        the prior.  A copy that writes each value unreduced, with a factor
        of its own at every place, repeats none, and loads to the same game,
        digest and equilibria."""
        doc = json.loads((Path(DATA_DIR) / "table1.json").read_text())
        factors = itertools.count(2)

        def unreduced(s):
            v, k = Fraction(s), next(factors)
            return f"{v.numerator * k}/{v.denominator * k}"

        distinct = {
            "players": doc["players"],
            "prior": {key: unreduced(s) for key, s in doc["prior"].items()},
            "utilities": {
                p: [[unreduced(s) for s in row] for row in rows]
                for p, rows in doc["utilities"].items()
            },
        }
        strings = [*distinct["prior"].values()]
        strings += [s for rows in distinct["utilities"].values() for row in rows for s in row]
        assert len(set(strings)) == len(strings) == 8 + 192
        repeated, copy = game_from_json_dict(doc), game_from_json_dict(distinct)
        # each entry read apart from the loader, by Fraction's own parser
        values = [Fraction(s) for rows in doc["utilities"].values() for row in rows for s in row]
        assert [v for rows in copy.utilities.values for row in rows for v in row] == values
        assert repeated == copy == table1
        assert repeated.digest == copy.digest == table1.digest
        assert enumerate_deterministic_equilibria(
            repeated.profile_table
        ) == enumerate_deterministic_equilibria(copy.profile_table)

    @pytest.mark.parametrize(
        "bad, message",
        [
            ("1/0", "zero denominator in rational"),
            ("1/2.0", """invalid rational '1/2.0'; expected a "num/den" or integer string"""),
            (True, """invalid rational True; expected a "num/den" or integer string"""),
            ([1], """invalid rational [1]; expected a "num/den" or integer string"""),
        ],
    )
    def test_a_bad_entry_after_repeats_is_named_at_its_place(self, bad, message):
        """Every entry is the string "1" up to utilities['B'][3][4], and
        that entry, and every later one, is bad: the error names the first.
        A bad prior entry after seven "1/8" is named the same way."""
        ones = [["1"] * 8 for _ in range(8)]
        rows = [[*row] for row in ones]
        rows[3][4:] = [bad] * 4
        rows[4:] = [[bad] * 8 for _ in range(4)]
        doc = {
            "players": ["A", "B", "C"],
            "prior": {" ".join(map(str, x)): "1/8" for x in PROFILES},
            "utilities": {"A": ones, "B": rows, "C": [[bad] * 8 for _ in range(8)]},
        }
        with pytest.raises(ValidationError) as caught:
            game_from_json_dict(doc)
        assert str(caught.value) == f"utilities['B'][3][4]: {message}"
        doc["prior"]["1 1 1"] = bad
        with pytest.raises(ValidationError) as caught:
            game_from_json_dict(doc)
        assert str(caught.value) == f"prior['1 1 1']: {message}"

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
        assert table_entry(game.utilities, Player.A, (0, 0, 0), (0, 0, 0)) == 2
