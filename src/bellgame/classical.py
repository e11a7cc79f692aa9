"""Classical advisors: local hidden-variable models, deterministic Nash
equilibria, Bell expressions and the total-payoff bound.

A classical advisor distributes advice independent of the players' types;
the reachable conditional distributions are exactly the finite mixtures of
products of per-player response rows.  The extreme points of that polytope
are the 64 deterministic strategy profiles, so equilibrium checks and the
total-payoff bound reduce to exact scans over them.

Those scans run on integers: :func:`profile_table` computes the payoffs of
the 64 profiles once per game as integer numerators over one common
denominator, and the equilibrium scan, the bound audit and its sampled
mixtures all read that table.  Reported values stay exact ``Fraction`` s.
The ``Fraction`` routes beside them (deterministic_payoffs, the
hidden-variable models and the distribution-level Bell expressions) are the
oracles the tests hold the scans to.
"""

from __future__ import annotations

import random
from collections.abc import Iterator
from dataclasses import dataclass
from enum import Enum
from fractions import Fraction
from itertools import product
from math import lcm
from typing import NamedTuple, Sequence

from .game import (
    PLAYERS,
    PROFILES,
    Bit,
    ConditionalDistribution,
    Numeric,
    PayoffTriple,
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
                    tuple(
                        tuple((Fraction(1 - s[x]), Fraction(s[x])) for x in (0, 1))
                        for s in prof
                    ),
                )
                for w, prof in weighted
            )
        )


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


class ProfileTable(NamedTuple):
    """Exact payoffs of the 64 deterministic profiles of one game, as
    integers over one common denominator.

    ``numerators[k][i] / denominator`` is player i's payoff at
    ``ALL_PROFILES[k]``.  Profile k plays strategies
    ``STRATEGIES[k // 16]``, ``STRATEGIES[k // 4 % 4]`` and
    ``STRATEGIES[k % 4]``.
    """

    numerators: tuple[tuple[int, int, int], ...]
    denominator: int

    def payoffs(self, k: int) -> PayoffTriple:
        return PayoffTriple(
            *(Fraction(n, self.denominator) for n in self.numerators[k])
        )

    def max_total(self) -> Fraction:
        """The largest total payoff of a deterministic profile: the
        classical bound."""
        return Fraction(max(map(sum, self.numerators)), self.denominator)


def profile_table(table: UtilityTable, prior: Prior) -> ProfileTable:
    """Integer payoff table of the 64 deterministic profiles.

    The denominator is the LCM of the prior denominators times the LCM of
    the utility denominators, so each numerator is an integer sum of
    prior-numerator times utility-numerator products; Python integers keep
    it exact for any size of input.
    """
    prior_den = lcm(*(w.denominator for w in prior.weights))
    util_den = lcm(
        *(v.denominator for rows in table.values for row in rows for v in row)
    )
    weights = [w.numerator * (prior_den // w.denominator) for w in prior.weights]
    utils = [
        [[v.numerator * (util_den // v.denominator) for v in row] for row in rows]
        for rows in table.values
    ]
    numerators = []
    for sa, sb, sc in ALL_PROFILES:
        played = [profile_index((sa[x[0]], sb[x[1]], sc[x[2]])) for x in PROFILES]
        numerators.append(
            tuple(
                sum(w * row[yi] for w, row, yi in zip(weights, u, played))
                for u in utils
            )
        )
    return ProfileTable(tuple(numerators), prior_den * util_den)


@dataclass(frozen=True)
class EquilibriumReport:
    profile: StrategyProfile
    payoffs: PayoffTriple
    fair: bool
    saturates_bound: bool


def enumerate_deterministic_equilibria(
    profiles: ProfileTable,
) -> list[EquilibriumReport]:
    """Scan a game's 64 deterministic profiles (its :func:`profile_table`)
    for Nash equilibria, exactly.

    A profile is an equilibrium when no player has a unilateral deterministic
    deviation with strictly greater own payoff.  Restricting deviations to
    deterministic strategies loses nothing: a player's payoff is affine in
    their own response rows, so the maximum over the mixed set is attained
    at an extreme point.

    A profile saturates the bound when its total payoff is the exact maximum
    total over the 64 profiles (9/4 for the bundled game).
    """
    bound = profiles.max_total()
    reports = []
    for k, prof in enumerate(ALL_PROFILES):
        if not _can_improve(profiles, k):
            own = profiles.payoffs(k)
            reports.append(
                EquilibriumReport(
                    profile=prof,
                    payoffs=own,
                    fair=own.is_fair(),
                    saturates_bound=own.total() == bound,
                )
            )
    return reports


def _can_improve(profiles: ProfileTable, k: int) -> bool:
    """Whether some player has a unilateral deterministic deviation from
    profile k with strictly greater own payoff."""
    nums = profiles.numerators
    for player in PLAYERS:
        place = 4 ** (2 - player)
        own = k // place % 4
        for d in range(4):
            if nums[k + (d - own) * place][player] > nums[k][player]:
                return True
    return False


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


#: Atom count limit and response denominator of the seeded random mixtures.
MIXTURE_MAX_ATOMS = 8
MIXTURE_DENOMINATOR = 16
#: Most mixtures one audit draws: each costs about 0.07 ms, so the cap keeps
#: an audit near a minute.
AUDIT_MAX_SAMPLES = 1_000_000


def _draw_mixture(
    rng: random.Random, max_atoms: int, denominator: int
) -> tuple[list[int], list[tuple[tuple[int, int], ...]]]:
    """Draw a random mixture as integers: the raw atom weights (an atom's
    weight is its raw weight over their sum) and, per atom and player, the
    numerators of p(y=0|x=0) and p(y=0|x=1) over ``denominator``.  Half of
    the responses are deterministic strategies."""
    n = rng.randint(1, max_atoms)
    raw = [rng.randint(1, 100) for _ in range(n)]
    atoms = []
    for _ in raw:
        responses = []
        for _ in PLAYERS:
            if rng.random() < 0.5:
                s = rng.choice(STRATEGIES)
                responses.append(
                    (denominator * (1 - s[0]), denominator * (1 - s[1]))
                )
            else:
                responses.append(
                    (rng.randint(0, denominator), rng.randint(0, denominator))
                )
        atoms.append(tuple(responses))
    return raw, atoms


def random_hidden_variable_model(
    rng: random.Random,
    max_atoms: int = MIXTURE_MAX_ATOMS,
    denominator: int = MIXTURE_DENOMINATOR,
) -> HiddenVariableModel:
    """Seeded random mixture with exact rational weights and responses."""
    raw, atoms = _draw_mixture(rng, max_atoms, denominator)
    total = sum(raw)
    return HiddenVariableModel(
        tuple(
            (
                Fraction(w, total),
                tuple(
                    tuple(
                        (Fraction(k, denominator), 1 - Fraction(k, denominator))
                        for k in p0
                    )
                    for p0 in responses
                ),
            )
            for w, responses in zip(raw, atoms)
        )
    )


def _strategy_weights(p0: tuple[int, int], d: int) -> list[tuple[int, int]]:
    """(index into STRATEGIES, numerator over d**2) of every strategy that a
    response row pair plays with nonzero probability."""
    r0, r1 = (p0[0], d - p0[0]), (p0[1], d - p0[1])
    return [
        (2 * s0 + s1, r0[s0] * r1[s1])
        for s0 in (0, 1)
        for s1 in (0, 1)
        if r0[s0] and r1[s1]
    ]


def _sampled_payoffs(
    profiles: ProfileTable, rng: random.Random, samples: int
) -> Iterator[PayoffTriple]:
    """Exact payoffs of ``samples`` random mixtures, drawn as by
    :func:`random_hidden_variable_model` from the same ``rng``.

    Each response row pair is a mixture of the four deterministic
    strategies, so a mixture is a convex combination of the 64 profiles;
    its payoffs contract the integer strategy weights against the profile
    table, with one division per player at the end.  Equals
    expected_payoffs over hv_model_to_distribution (tested).
    """
    d = MIXTURE_DENOMINATOR
    nums = profiles.numerators
    scale = d**6 * profiles.denominator
    for _ in range(samples):
        raw, atoms = _draw_mixture(rng, MIXTURE_MAX_ATOMS, d)
        fa = fb = fc = 0
        for w, (ra, rb, rc) in zip(raw, atoms):
            bs, cs = _strategy_weights(rb, d), _strategy_weights(rc, d)
            for ia, qa in _strategy_weights(ra, d):
                for ib, qb in bs:
                    wab = w * qa * qb
                    base = 16 * ia + 4 * ib
                    for ic, qc in cs:
                        q = wab * qc
                        na, nb, nc = nums[base + ic]
                        fa += q * na
                        fb += q * nb
                        fc += q * nc
        den = sum(raw) * scale
        yield PayoffTriple(Fraction(fa, den), Fraction(fb, den), Fraction(fc, den))


def classical_bound_audit(
    profiles: ProfileTable, samples: int = 1000, seed: int = 0
) -> BoundAuditReport:
    """Verify the total-payoff cap on a game's 64 deterministic profiles
    (its :func:`profile_table`) and on seeded random hidden-variable
    mixtures.

    The deterministic maximum IS the classical bound (total payoff is affine
    in the mixture weights), so the sampled part is a consistency audit.
    """
    if samples < 0:
        raise ValidationError(f"sample count must be non-negative, got {samples}")
    if samples > AUDIT_MAX_SAMPLES:
        raise ValidationError(f"sample count must be at most {AUDIT_MAX_SAMPLES}")
    if seed < 0:  # random.Random(-n) would draw the samples of seed n
        raise ValidationError("seed must be non-negative")
    totals = [sum(n) for n in profiles.numerators]
    top = max(totals)
    det_max = Fraction(top, profiles.denominator)
    attaining = tuple(
        prof for prof, total in zip(ALL_PROFILES, totals) if total == top
    )
    max_min = Fraction(
        max(min(n) for n in profiles.numerators), profiles.denominator
    )

    sample_max: Fraction | None = None
    within = True
    for triple in _sampled_payoffs(profiles, random.Random(seed), samples):
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


def _deterministic_correlator(profile: StrategyProfile, x: Profile) -> int:
    """The correlator of a deterministic profile in context x: the +/-1
    product of (2 s_i(x_i) - 1) over the players."""
    return (
        (2 * profile[0][x[0]] - 1)
        * (2 * profile[1][x[1]] - 1)
        * (2 * profile[2][x[2]] - 1)
    )


def deterministic_bell_extremes() -> dict[BellVariant, tuple[Fraction, Fraction]]:
    """Min and max of each Bell variant over the 64 deterministic profiles."""
    out = {}
    for variant in BellVariant:
        values = [
            sum(_deterministic_correlator(prof, x) for x in variant.positive_contexts)
            - _deterministic_correlator(prof, variant.negative_context)
            for prof in ALL_PROFILES
        ]
        out[variant] = (Fraction(min(values)), Fraction(max(values)))
    return out
