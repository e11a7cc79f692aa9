"""Classical advisors: deterministic Nash equilibria, Bell expressions and
the total-payoff bound, audited on seeded local hidden-variable mixtures.

A classical advisor distributes advice independent of the players' types;
the reachable conditional distributions are exactly the finite mixtures of
products of per-player response rows.  The extreme points of that polytope
are the 64 deterministic strategy profiles, so equilibrium checks and the
total-payoff bound reduce to exact scans over them.

Those scans compare integers: :func:`profile_table` builds the 64 profiles'
payoffs from game.integer_form, which the GHZ engine reads too, and the
equilibrium scan, the bound audit and its sampled mixtures all read that
table.  By Fine's theorem every local hidden-variable model is a mixture
of those 64 profiles, so the audit samples such mixtures directly; the
``random`` module loads with the first audit, so that of the classical
commands only ``audit-bound`` imports it.  Reported values stay exact
``Fraction`` s.
The ``Fraction`` routes that the tests hold the scans to (deterministic
payoffs by direct summation, the hidden-variable models, and the
type-relabelled distributions) live in tests/oracles.py.  The
distribution-level correlator and bell_expression stay here only while
bench/test_bench.py reaches them through quantum.quantum_bell.
"""

from __future__ import annotations

from enum import Enum
from fractions import Fraction
from functools import lru_cache
from itertools import product
from typing import TYPE_CHECKING, NamedTuple

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
    integer_form,
    profile_index,
)

if TYPE_CHECKING:
    import random
    from collections.abc import Iterator

#: A deterministic strategy (y(0), y(1)): the action played for each own type.
Strategy = tuple[Bit, Bit]
StrategyProfile = tuple[Strategy, Strategy, Strategy]

STRATEGIES: tuple[Strategy, ...] = ((0, 0), (0, 1), (1, 0), (1, 1))
#: All 64 profiles in lexicographic order; the canonical scan order.
ALL_PROFILES: tuple[StrategyProfile, ...] = tuple(
    product(STRATEGIES, repeat=3)
)


class BellVariant(Enum):
    """The two tripartite Bell expressions used by the payoff bound.

    Each lists four measurement contexts (type profiles); the expression is
    the sum of the triple correlators of the first three minus the fourth,
    bounded by 2 in absolute value for every local hidden-variable source.
    The remaining six inequalities of the family follow by flipping type
    bits; see ``flip_types`` in tests/oracles.py.
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
    row = dist.rows[profile_index(x)]
    total: Numeric = 0
    for y in PROFILES:
        sign = -1 if (3 - sum(y)) % 2 else 1
        total += sign * row[profile_index(y)]
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

    def attainers(self) -> tuple[int, ...]:
        """Indices of the profiles of largest total payoff, in scan order."""
        totals = [sum(n) for n in self.numerators]
        top = max(totals)
        return tuple(k for k, total in enumerate(totals) if total == top)

    def max_total(self) -> Fraction:
        """The largest total payoff of a deterministic profile: the
        classical bound."""
        return Fraction(sum(self.numerators[self.attainers()[0]]), self.denominator)


#: Per profile of ALL_PROFILES, the index of the action profile it plays
#: in each type profile of PROFILES.
_PLAYED = tuple(
    tuple(4 * sa[xa] + 2 * sb[xb] + sc[xc] for xa, xb, xc in PROFILES)
    for sa, sb, sc in ALL_PROFILES
)


def profile_table(table: UtilityTable, prior: Prior) -> ProfileTable:
    """Integer payoff table of the 64 deterministic profiles.

    Each numerator is an integer sum of prior-numerator times
    utility-numerator products from game.integer_form, which
    quantum.ghz_weights reads too; it is exact for any size of input.  The
    action profile that each profile plays in each type profile is read off
    one 64 x 8 index table, built at import.
    """
    weights, utils, denominator = integer_form(table, prior)
    numerators = tuple(
        tuple(sum(w * row[yi] for w, row, yi in zip(weights, u, played)) for u in utils)
        for played in _PLAYED
    )
    return ProfileTable(numerators, denominator)


class EquilibriumReport(NamedTuple):
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
    total over the 64 profiles (9/4 for the bundled game); both fairness
    and the bound are decided on the table's integers.
    """
    attainers = profiles.attainers()
    return [
        EquilibriumReport(prof, profiles.payoffs(k), na == nb == nc, k in attainers)
        for k, (prof, (na, nb, nc)) in enumerate(zip(ALL_PROFILES, profiles.numerators))
        if not _can_improve(profiles, k)
    ]


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


class BoundAuditReport(NamedTuple):
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


#: Most mixtures one audit draws: each costs about 0.0022 ms (100000
#: samples of table1 on a 2-vCPU Xeon, Python 3.11), so the cap keeps an
#: audit near 3 s (2.5-2.9 s for the whole command).
AUDIT_MAX_SAMPLES = 1_000_000
#: Most deterministic profiles that one sampled mixture puts weight on.
MIXTURE_MAX_ATOMS = 8


def _sampled_payoffs(
    profiles: ProfileTable, rng: random.Random, samples: int
) -> Iterator[tuple[tuple[int, int, int], int]]:
    """Exact payoffs of ``samples`` random mixtures of the 64 profiles: per
    mixture the three players' integer numerators and their common
    denominator.  A mixture has ``randint(1, MIXTURE_MAX_ATOMS)`` atoms, each
    a profile ``randrange(64)`` of raw weight ``randint(1, 100)``.

    The draws call ``rng.getrandbits`` directly, exactly as ``randint`` and
    ``randrange`` make them: a value below n is ``getrandbits(n.bit_length())``,
    drawn again while it is n or more.  So the samples, and the rng's state
    after each one, are those of the public calls, without their overhead."""
    nums, den = profiles.numerators, profiles.denominator
    getrandbits = rng.getrandbits
    atom_bits = MIXTURE_MAX_ATOMS.bit_length()
    profile_bits, weight_bits = (64).bit_length(), (100).bit_length()
    for _ in range(samples):
        atoms = getrandbits(atom_bits)
        while atoms >= MIXTURE_MAX_ATOMS:
            atoms = getrandbits(atom_bits)
        na = nb = nc = weight = 0
        for _ in range(atoms + 1):
            k = getrandbits(profile_bits)
            while k >= 64:
                k = getrandbits(profile_bits)
            a, b, c = nums[k]
            w = getrandbits(weight_bits)
            while w >= 100:
                w = getrandbits(weight_bits)
            w += 1
            na, nb, nc, weight = na + w * a, nb + w * b, nc + w * c, weight + w
        yield (na, nb, nc), weight * den


def classical_bound_audit(
    profiles: ProfileTable, samples: int = 1000, seed: int = 0
) -> BoundAuditReport:
    """Verify the total-payoff cap on a game's 64 deterministic profiles
    (its :func:`profile_table`) and on seeded random mixtures of them.

    The deterministic maximum IS the classical bound (total payoff is affine
    in the mixture weights), so the sampled part is a consistency audit.
    Sampled payoffs are compared as integers, by cross-multiplying their
    positive denominators.
    """
    if samples < 0:
        raise ValidationError(f"sample count must be non-negative, got {samples}")
    if samples > AUDIT_MAX_SAMPLES:
        raise ValidationError(f"sample count must be at most {AUDIT_MAX_SAMPLES}")
    if seed < 0:  # random.Random(-n) would draw the samples of seed n
        raise ValidationError("seed must be non-negative")
    import random  # loads with the first audit

    det_max = profiles.max_total()
    attaining = tuple(ALL_PROFILES[k] for k in profiles.attainers())

    # (numerator, denominator) of the largest sampled total and of the
    # largest min_i F_i audited so far
    best: tuple[int, int] | None = None
    max_min = max(min(n) for n in profiles.numerators), profiles.denominator
    for numerators, den in _sampled_payoffs(profiles, random.Random(seed), samples):
        total = sum(numerators)
        if best is None or total * best[1] > best[0] * den:
            best = total, den
        m = min(numerators)
        if m * max_min[1] > max_min[0] * den:
            max_min = m, den
    sample_max = None if best is None else Fraction(*best)
    return BoundAuditReport(
        deterministic_max=det_max,
        attaining_profiles=attaining,
        samples=samples,
        seed=seed,
        sample_max=sample_max,
        samples_within_bound=sample_max is None or sample_max <= det_max,
        max_min_payoff=Fraction(*max_min),
    )


def _deterministic_correlator(profile: StrategyProfile, x: Profile) -> int:
    """The correlator of a deterministic profile in context x: the +/-1
    product of (2 s_i(x_i) - 1) over the players."""
    return (
        (2 * profile[0][x[0]] - 1)
        * (2 * profile[1][x[1]] - 1)
        * (2 * profile[2][x[2]] - 1)
    )


@lru_cache(maxsize=None)  # one scan per process, on first use
def _bell_extremes() -> dict[BellVariant, tuple[Fraction, Fraction]]:
    out = {}
    for variant in BellVariant:
        values = [
            sum(_deterministic_correlator(prof, x) for x in variant.positive_contexts)
            - _deterministic_correlator(prof, variant.negative_context)
            for prof in ALL_PROFILES
        ]
        out[variant] = (Fraction(min(values)), Fraction(max(values)))
    return out


def deterministic_bell_extremes() -> dict[BellVariant, tuple[Fraction, Fraction]]:
    """Min and max of each Bell variant over the 64 deterministic profiles.
    They depend on no game, so the profiles are scanned once per process;
    each call returns a new dict."""
    return dict(_bell_extremes())
