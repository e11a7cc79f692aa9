"""Classical advisors: local hidden-variable models, deterministic Nash
equilibria, Bell expressions and the total-payoff bound.

A classical advisor distributes advice independent of the players' types;
the reachable conditional distributions are exactly the finite mixtures of
products of per-player response rows.  The extreme points of that polytope
are the 64 deterministic strategy profiles, so equilibrium checks and the
total-payoff bound reduce to exact scans over them.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from enum import Enum
from fractions import Fraction
from itertools import product
from typing import NamedTuple, Sequence

from .game import (
    PLAYERS,
    PROFILES,
    Bit,
    ConditionalDistribution,
    Numeric,
    PayoffTriple,
    Player,
    Prior,
    Profile,
    UtilityTable,
    ValidationError,
    profile_index,
)

#: A deterministic strategy (y(0), y(1)): the action played for each own type.
Strategy = tuple[Bit, Bit]
StrategyProfile = tuple[Strategy, Strategy, Strategy]

STRATEGIES: tuple[Strategy, ...] = ((0, 0), (0, 1), (1, 0), (1, 1))
#: All 64 profiles in lexicographic order; the canonical scan order.
ALL_PROFILES: tuple[StrategyProfile, ...] = tuple(
    product(STRATEGIES, repeat=3)
)


def strategy_to_distribution(
    profile: StrategyProfile,
) -> ConditionalDistribution:
    """The delta distribution of a deterministic profile.

    p(y|x) = 1 exactly when each player's action equals their strategy's
    response to their own type; product form, so no-signalling holds exactly.
    """
    rows = []
    for x in PROFILES:
        target = tuple(profile[p][x[p]] for p in PLAYERS)
        ti = profile_index(target)
        rows.append(
            tuple(
                Fraction(1) if yi == ti else Fraction(0) for yi in range(8)
            )
        )
    return ConditionalDistribution(tuple(rows))


#: Per-player response rows: resp[x] = (p(y=0|x), p(y=1|x)).
ResponseTable = tuple[tuple[Fraction, Fraction], tuple[Fraction, Fraction]]


def deterministic_response(strategy: Strategy) -> ResponseTable:
    return tuple(
        (Fraction(1 - strategy[x]), Fraction(strategy[x])) for x in (0, 1)
    )


@dataclass(frozen=True)
class HiddenVariableModel:
    """Finite mixture of product response tables.

    Each atom carries a weight and one response table per player; the
    induced conditional distribution is the weighted sum of the products.
    Three-bit hidden variables suffice for binary actions, but any finite
    support is accepted.
    """

    atoms: tuple[tuple[Fraction, tuple[ResponseTable, ...]], ...]

    def __post_init__(self) -> None:
        total = Fraction(0)
        for weight, responses in self.atoms:
            if weight < 0:
                raise ValidationError(f"negative mixture weight {weight}")
            total += weight
            if len(responses) != 3:
                raise ValidationError("each atom needs 3 response tables")
            for resp in responses:
                for x in (0, 1):
                    p0, p1 = resp[x]
                    if p0 < 0 or p1 < 0 or p0 + p1 != 1:
                        raise ValidationError(
                            f"response row {resp[x]} is not a distribution"
                        )
        if total != 1:
            raise ValidationError(f"mixture weights sum to {total}, not 1")

    @classmethod
    def from_profiles(
        cls, weighted: Sequence[tuple[Numeric, StrategyProfile]]
    ) -> "HiddenVariableModel":
        return cls(
            tuple(
                (
                    Fraction(w),
                    tuple(deterministic_response(s) for s in prof),
                )
                for w, prof in weighted
            )
        )

    @classmethod
    def point_mass(cls, profile: StrategyProfile) -> "HiddenVariableModel":
        return cls.from_profiles([(Fraction(1), profile)])


def hv_model_to_distribution(
    model: HiddenVariableModel,
) -> ConditionalDistribution:
    """p(y|x) = sum over atoms of weight * prod_i p_i(y_i | x_i)."""
    rows = []
    for x in PROFILES:
        row = [Fraction(0)] * 8
        for weight, responses in model.atoms:
            if weight == 0:
                continue
            for y in PROFILES:
                p = weight
                for i in PLAYERS:
                    p *= responses[i][x[i]][y[i]]
                row[profile_index(y)] += p
        rows.append(tuple(row))
    return ConditionalDistribution(tuple(rows))


class BellVariant(Enum):
    """The two tripartite Bell expressions used by the payoff bound.

    Each lists four measurement contexts (type profiles); the expression is
    the sum of the triple correlators of the first three minus the fourth,
    bounded by 2 in absolute value for every local hidden-variable source.
    The remaining six inequalities of the family follow by flipping type
    bits; see :func:`flip_types`.
    """

    V011 = (((0, 1, 1), (1, 0, 1), (1, 1, 0)), (0, 0, 0))
    V100 = (((1, 0, 0), (0, 1, 0), (0, 0, 1)), (1, 1, 1))

    @property
    def positive_contexts(self) -> tuple[Profile, ...]:
        return self.value[0]

    @property
    def negative_context(self) -> Profile:
        return self.value[1]


def correlator(dist: ConditionalDistribution, x: Profile) -> Numeric:
    """Expectation of the +/-1 outcome product in context x.

    Outcome convention: action 1 maps to eigenvalue +1, action 0 to -1,
    so the product sign is (-1) to the number of zero actions.
    """
    total: Numeric = 0
    for y in PROFILES:
        sign = -1 if (3 - sum(y)) % 2 else 1
        total += sign * dist.prob(y, x)
    return total


def bell_expression(
    dist: ConditionalDistribution, variant: BellVariant
) -> Numeric:
    """Signed correlator combination of the variant's four contexts."""
    value: Numeric = 0
    for x in variant.positive_contexts:
        value += correlator(dist, x)
    value -= correlator(dist, variant.negative_context)
    return value


def flip_types(
    dist: ConditionalDistribution, flips: Profile
) -> ConditionalDistribution:
    """Relabel type bits: p'(y|x) = p(y | x XOR flips).

    Evaluating V011/V100 on relabelled distributions yields the other six
    Bell inequalities of the family.
    """
    rows = []
    for x in PROFILES:
        fx = (x[0] ^ flips[0], x[1] ^ flips[1], x[2] ^ flips[2])
        rows.append(dist.rows[profile_index(fx)])
    return ConditionalDistribution(tuple(rows))


def deterministic_payoffs(
    table: UtilityTable, prior: Prior, profile: StrategyProfile
) -> PayoffTriple:
    """Exact payoffs of a deterministic profile by direct summation.

    Equals expected_payoffs over strategy_to_distribution(profile); the
    delta form collapses the action sum to the single played profile.
    """
    sums = [Fraction(0)] * 3
    for x in PROFILES:
        w = prior.weight(x)
        if w == 0:
            continue
        y = (profile[0][x[0]], profile[1][x[1]], profile[2][x[2]])
        yi = profile_index(y)
        xi = profile_index(x)
        for p in PLAYERS:
            sums[p] += w * table.values[p][xi][yi]
    return PayoffTriple(*sums)


def _all_profile_payoffs(
    table: UtilityTable, prior: Prior
) -> dict[StrategyProfile, PayoffTriple]:
    return {
        prof: deterministic_payoffs(table, prior, prof)
        for prof in ALL_PROFILES
    }


@dataclass(frozen=True)
class EquilibriumReport:
    profile: StrategyProfile
    payoffs: PayoffTriple
    fair: bool
    saturates_bound: bool


def enumerate_deterministic_equilibria(
    table: UtilityTable,
    prior: Prior,
    bound: Fraction | None = None,
) -> list[EquilibriumReport]:
    """Scan all 64 deterministic profiles for Nash equilibria, exactly.

    A profile is an equilibrium when no player has a unilateral deterministic
    deviation with strictly greater own payoff.  Restricting deviations to
    deterministic strategies loses nothing: a player's payoff is affine in
    their own response rows, so the maximum over the mixed set is attained
    at an extreme point.

    ``bound`` is the total-payoff cap used for the saturation flag; by
    default the exact maximum total over the 64 profiles (9/4 for the
    bundled game).
    """
    payoffs = _all_profile_payoffs(table, prior)
    if bound is None:
        bound = max(p.total() for p in payoffs.values())
    reports = []
    for prof in ALL_PROFILES:
        own = payoffs[prof]
        if _best_deviation(payoffs, prof, own) is None:
            reports.append(
                EquilibriumReport(
                    profile=prof,
                    payoffs=own,
                    fair=own.is_fair(),
                    saturates_bound=own.total() == bound,
                )
            )
    return reports


def _best_deviation(
    payoffs: dict[StrategyProfile, PayoffTriple],
    prof: StrategyProfile,
    own: PayoffTriple,
) -> tuple[Player, Strategy, Fraction] | None:
    """Strictly improving deviation with the largest gain, if any exists."""
    best = None
    for player in PLAYERS:
        for dev in STRATEGIES:
            if dev == prof[player]:
                continue
            alt = list(prof)
            alt[player] = dev
            gain = payoffs[(alt[0], alt[1], alt[2])][player] - own[player]
            if gain > 0 and (best is None or gain > best[2]):
                best = (player, dev, gain)
    return best


class NashVerdict(NamedTuple):
    """Equilibrium check result with the best deviation when one exists."""

    is_equilibrium: bool
    player: Player | None
    strategy: Strategy | None
    gain: Fraction | None


def is_nash(
    table: UtilityTable, prior: Prior, profile: StrategyProfile
) -> NashVerdict:
    """Exact Nash check of one profile against deterministic deviations."""
    payoffs = _all_profile_payoffs(table, prior)
    best = _best_deviation(payoffs, profile, payoffs[profile])
    if best is None:
        return NashVerdict(True, None, None, None)
    return NashVerdict(False, best[0], best[1], best[2])


@dataclass(frozen=True)
class BoundAuditReport:
    """Exact deterministic scan plus seeded random-mixture audit."""

    deterministic_max: Fraction
    attaining_profiles: tuple[StrategyProfile, ...]
    samples: int
    seed: int
    sample_max: Fraction | None
    samples_within_bound: bool
    max_min_payoff: Fraction  # max over everything audited of min_i F_i

    @property
    def fair_cap(self) -> Fraction:
        """No fair outcome can pay anyone more than a third of the bound."""
        return self.deterministic_max / 3


def random_hidden_variable_model(
    rng: random.Random, max_atoms: int = 8, denominator: int = 16
) -> HiddenVariableModel:
    """Seeded random mixture with exact rational weights and responses."""
    n = rng.randint(1, max_atoms)
    raw = [rng.randint(1, 100) for _ in range(n)]
    total = sum(raw)
    atoms = []
    for w in raw:
        responses = []
        for _ in PLAYERS:
            if rng.random() < 0.5:
                responses.append(
                    deterministic_response(rng.choice(STRATEGIES))
                )
            else:
                rows = []
                for _ in (0, 1):
                    p0 = Fraction(rng.randint(0, denominator), denominator)
                    rows.append((p0, 1 - p0))
                responses.append((rows[0], rows[1]))
        atoms.append((Fraction(w, total), tuple(responses)))
    return HiddenVariableModel(tuple(atoms))


def classical_bound_audit(
    table: UtilityTable,
    prior: Prior,
    samples: int = 1000,
    seed: int = 0,
) -> BoundAuditReport:
    """Verify the total-payoff cap on all 64 deterministic profiles and on
    seeded random hidden-variable mixtures.

    The deterministic maximum IS the classical bound (total payoff is affine
    in the mixture weights), so the sampled part is a consistency audit.
    """
    if samples < 0:
        raise ValidationError(f"sample count must be non-negative, got {samples}")
    payoffs = _all_profile_payoffs(table, prior)
    det_max = max(p.total() for p in payoffs.values())
    attaining = tuple(
        prof for prof in ALL_PROFILES if payoffs[prof].total() == det_max
    )
    max_min = max(min(p) for p in payoffs.values())

    rng = random.Random(seed)
    sample_max: Fraction | None = None
    within = True
    for _ in range(samples):
        model = random_hidden_variable_model(rng)
        triple = _mixture_payoffs(payoffs, model)
        total = triple.total()
        if sample_max is None or total > sample_max:
            sample_max = total
        if total > det_max:
            within = False
        m = min(triple)
        if m > max_min:
            max_min = m
    return BoundAuditReport(
        deterministic_max=det_max,
        attaining_profiles=attaining,
        samples=samples,
        seed=seed,
        sample_max=sample_max,
        samples_within_bound=within,
        max_min_payoff=max_min,
    )


def _mixture_payoffs(
    payoffs: dict[StrategyProfile, PayoffTriple], model: HiddenVariableModel
) -> PayoffTriple:
    """Payoffs of a hidden-variable model via its decomposition into
    deterministic profiles.

    Each stochastic response row is itself a mixture of the two deterministic
    responses, so the model is a convex combination of the 64 profiles and
    its payoffs follow from the precomputed profile payoffs.  Agrees exactly
    with expected_payoffs over hv_model_to_distribution (tested).
    """
    sums = [Fraction(0)] * 3
    for weight, responses in model.atoms:
        if weight == 0:
            continue
        supports = []
        for resp in responses:
            support = [
                (s, q)
                for s in STRATEGIES
                if (q := resp[0][s[0]] * resp[1][s[1]]) != 0
            ]
            supports.append(support)
        for sa, qa in supports[0]:
            for sb, qb in supports[1]:
                wab = qa * qb
                for sc, qc in supports[2]:
                    w = weight * wab * qc
                    triple = payoffs[(sa, sb, sc)]
                    for i in PLAYERS:
                        sums[i] += w * triple[i]
    return PayoffTriple(*sums)


def deterministic_bell_extremes() -> dict[BellVariant, tuple[Fraction, Fraction]]:
    """Min and max of each Bell variant over the 64 deterministic profiles."""
    out = {}
    for variant in BellVariant:
        values = [
            bell_expression(strategy_to_distribution(prof), variant)
            for prof in ALL_PROFILES
        ]
        out[variant] = (min(values), max(values))
    return out
