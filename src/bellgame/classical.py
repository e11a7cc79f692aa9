"""Classical advisors: local hidden-variable models, deterministic Nash
equilibria, Bell expressions and the total-payoff bound.

A classical advisor distributes advice independent of the players' types;
the reachable conditional distributions are exactly the finite mixtures of
products of per-player response rows.  The extreme points of that polytope
are the 64 deterministic strategy profiles, so equilibrium checks and the
total-payoff bound reduce to exact scans over them.

Those scans compare integers: :func:`profile_table` builds the 64 profiles'
payoffs from game.integer_form, which the GHZ engine reads too, and the
equilibrium scan, the bound audit and its sampled mixtures all read that
table.  The audit draws each response as one integer code and contracts
each atom as it is drawn, against packed integers that hold three payoff
numerators each, with the sum over player C's strategies staged once per
response code of C; the fields are wide enough that the contraction stays
exact for any size of input.  Reported values stay exact ``Fraction`` s.
The ``Fraction`` routes beside them (deterministic_payoffs, the
hidden-variable models and the distribution-level Bell expressions) are the
oracles the tests hold the scans to.
"""

from __future__ import annotations

import random
from collections.abc import Iterator
from enum import Enum
from fractions import Fraction
from functools import lru_cache
from itertools import product
from typing import NamedTuple, Sequence

from .game import (
    PLAYERS,
    PROFILES,
    Bit,
    ConditionalDistribution,
    Frozen,
    Numeric,
    PayoffTriple,
    Prior,
    Profile,
    UtilityTable,
    ValidationError,
    integer_form,
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


class HiddenVariableModel(Frozen):
    """Finite mixture of product response tables.

    Each atom carries a weight and one response table per player; the
    induced conditional distribution is the weighted sum of the products.
    Three-bit hidden variables suffice for binary actions, but any finite
    support is accepted.
    """

    _fields = ("atoms",)
    atoms: tuple[tuple[Fraction, tuple[ResponseTable, ...]], ...]

    def __init__(self, atoms: tuple[tuple[Fraction, tuple[ResponseTable, ...]], ...]) -> None:
        total = Fraction(0)
        for weight, responses in atoms:
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
        super().__init__(atoms)

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
    """p(y|x) = sum over atoms of weight * prod_i p_i(y_i | x_i).

    The product weight * p_A * p_B is formed once per (x, y_A, y_B), and a
    zero factor ends its branch: deterministic responses are mostly zeros.
    """
    rows = []
    for xa, xb, xc in PROFILES:
        row = [Fraction(0)] * 8
        for weight, (resp_a, resp_b, resp_c) in model.atoms:
            if weight == 0:
                continue
            for ya, pa in enumerate(resp_a[xa]):
                if pa == 0:
                    continue
                wa = weight * pa
                for yb, pb in enumerate(resp_b[xb]):
                    if pb == 0:
                        continue
                    wab = wa * pb
                    for yc, pc in enumerate(resp_c[xc]):
                        if pc != 0:
                            row[4 * ya + 2 * yb + yc] += wab * pc
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
    for xi, (x, w) in enumerate(zip(PROFILES, prior.weights)):
        if w == 0:
            continue
        y = (profile[0][x[0]], profile[1][x[1]], profile[2][x[2]])
        yi = profile_index(y)
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

    def attainers(self) -> tuple[int, ...]:
        """Indices of the profiles of largest total payoff, in scan order."""
        totals = [sum(n) for n in self.numerators]
        top = max(totals)
        return tuple(k for k, total in enumerate(totals) if total == top)

    def max_total(self) -> Fraction:
        """The largest total payoff of a deterministic profile: the
        classical bound."""
        return Fraction(sum(self.numerators[self.attainers()[0]]), self.denominator)


def profile_table(table: UtilityTable, prior: Prior) -> ProfileTable:
    """Integer payoff table of the 64 deterministic profiles.

    Each numerator is an integer sum of prior-numerator times
    utility-numerator products from game.integer_form, which
    quantum.ghz_weights reads too; it is exact for any size of input.
    """
    weights, utils, denominator = integer_form(table, prior)
    numerators = []
    for sa, sb, sc in ALL_PROFILES:
        played = [profile_index((sa[x[0]], sb[x[1]], sc[x[2]])) for x in PROFILES]
        numerators.append(tuple(
            sum(w * row[yi] for w, row, yi in zip(weights, u, played)) for u in utils
        ))
    return ProfileTable(tuple(numerators), denominator)


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


#: Atom count limit and response denominator of the seeded random mixtures.
MIXTURE_MAX_ATOMS = 8
MIXTURE_DENOMINATOR = 16
#: Cap on a mixture's total integer weight, sum(raw) * MIXTURE_DENOMINATOR**6:
#: at most MIXTURE_MAX_ATOMS raw weights of at most 100 each.
MIXTURE_WEIGHT_CAP = 100 * MIXTURE_MAX_ATOMS * MIXTURE_DENOMINATOR**6
#: Most mixtures one audit draws: each costs about 0.012 ms (100000 samples
#: of table1 on a 2-vCPU Xeon, Python 3.11), so the cap keeps an audit near
#: 12 s.
AUDIT_MAX_SAMPLES = 1_000_000
#: The audit codes a response of the seeded mixtures as _ROWS * p + q, where
#: p and q are the numerators of p(y=0|x=0) and p(y=0|x=1) over
#: MIXTURE_DENOMINATOR: one of _CODES integers.
_ROWS = MIXTURE_DENOMINATOR + 1
_CODES = _ROWS * _ROWS
#: The codes of the response rows of STRATEGIES: the four corner codes.
_DETERMINISTIC_CODES = tuple(
    _ROWS * MIXTURE_DENOMINATOR * (1 - s0) + MIXTURE_DENOMINATOR * (1 - s1)
    for s0, s1 in STRATEGIES
)


@lru_cache(maxsize=None)  # one tuple per process, built on first use
def _response_rows() -> tuple[tuple[Fraction, Fraction], ...]:
    """The response rows (k/d, 1 - k/d) of the seeded random mixtures, k = 0
    to d = MIXTURE_DENOMINATOR."""
    d = MIXTURE_DENOMINATOR
    return tuple((Fraction(k, d), 1 - Fraction(k, d)) for k in range(d + 1))


def random_hidden_variable_model(rng: random.Random) -> HiddenVariableModel:
    """Seeded random mixture with exact rational weights and responses.

    It has one to MIXTURE_MAX_ATOMS atoms, each of raw weight 1 to 100 (an
    atom's weight is its raw weight over their sum).  Each player's
    response in an atom is, with equal chance, a deterministic strategy or
    a pair of response rows whose p(y=0|x) are multiples of
    1/MIXTURE_DENOMINATOR.  The draws are made with the public ``randint``,
    ``choice`` and ``random``: the reference that the audit's own draws in
    :func:`_sampled_payoffs` are tested against.
    """
    d = MIXTURE_DENOMINATOR
    rows = _response_rows()
    raw = [rng.randint(1, 100) for _ in range(rng.randint(1, MIXTURE_MAX_ATOMS))]
    atoms = []
    for w in raw:
        responses = []
        for _ in PLAYERS:
            if rng.random() < 0.5:
                s0, s1 = rng.choice(STRATEGIES)
                k0, k1 = d * (1 - s0), d * (1 - s1)
            else:
                k0, k1 = rng.randint(0, d), rng.randint(0, d)
            responses.append((rows[k0], rows[k1]))
        atoms.append((Fraction(w, sum(raw)), tuple(responses)))
    return HiddenVariableModel(tuple(atoms))


#: (strategy slot, integer weight) of each strategy a response plays.
_StrategyWeights = tuple[tuple[int, int], ...]


@lru_cache(maxsize=None)  # one table per process, built on first use
def _code_weights() -> tuple[tuple[_StrategyWeights, ...], ...]:
    """Per response code, the strategies that its response rows play with
    nonzero probability, as (index into STRATEGIES, numerator over
    MIXTURE_DENOMINATOR**2) pairs: for player A with the index times 4, for
    player B as it is."""
    d = MIXTURE_DENOMINATOR
    weights = []
    for code in range(_CODES):
        p, q = divmod(code, _ROWS)
        r0, r1 = (p, d - p), (q, d - q)
        weights.append(tuple(
            (2 * s0 + s1, r0[s0] * r1[s1])
            for s0 in (0, 1)
            for s1 in (0, 1)
            if r0[s0] and r1[s1]
        ))
    a_weights = tuple(tuple((4 * s, w) for s, w in pairs) for pairs in weights)
    return a_weights, tuple(weights)


def _sampled_payoffs(
    profiles: ProfileTable, rng: random.Random, samples: int
) -> Iterator[tuple[tuple[int, int, int], int]]:
    """Exact payoffs of ``samples`` random mixtures, drawn as by
    :func:`random_hidden_variable_model` from the same ``rng``: per mixture
    the three players' integer numerators and their common denominator.

    The draws are those of ``randint(a, b)`` and ``choice(seq)``, which are
    ``a + _randbelow(b - a + 1)`` and ``seq[_randbelow(len(seq))]``, with
    each ``_randbelow(n)`` spelled out as the rejection loop over
    ``getrandbits`` that CPython runs for n > 0.  The draw-identity test
    holds them to the oracle's on CPython 3.10 to 3.14, the versions of the
    CI matrix.  A mixture draws its atom count and raw weights first; each
    atom then draws its three responses as codes 17 p + q and is
    contracted at once.

    Each response row pair is a mixture of the four deterministic
    strategies (the code table gives their integer weights), so a mixture
    is a convex combination of the 64 profiles; its payoffs contract the
    integer strategy weights against the profile table.  Equals
    expected_payoffs over hv_model_to_distribution (tested).

    The contraction runs on one packed integer per profile: player i's
    numerator less the least of them, lo_i, in the i-th field of ``width``
    bits.  A mixture's weights sum to ``sum(raw) * d**6 <= MIXTURE_WEIGHT_CAP``,
    so no field sum reaches the width and no carry crosses into the next
    field, for any size of numerator.  The sum over player C's four
    strategies is staged once per response code of C, bilinearly in p and
    q, so an atom costs one multiply-add per strategy pair of A and B.
    """
    nums = profiles.numerators
    lows = [min(column) for column in zip(*nums)]
    span = max(n - lo for row in nums for n, lo in zip(row, lows))
    width = MIXTURE_WEIGHT_CAP.bit_length() + span.bit_length()
    mask = (1 << width) - 1
    packed = [
        (na - lows[0]) | (nb - lows[1]) << width | (nc - lows[2]) << 2 * width
        for na, nb, nc in nums
    ]
    # packed[16 a + 4 b + c] by C's strategy c: four slices indexed 4 a + b
    by_c = list(zip(*(packed[c::4] for c in range(4))))
    d = MIXTURE_DENOMINATOR
    a_weights, b_weights = _code_weights()
    staged: list[list[int] | None] = [None] * _CODES  # C's code -> 16 sums
    bits, uniform = rng.getrandbits, rng.random
    corners = _DETERMINISTIC_CODES
    # _randbelow(n) redraws getrandbits(n.bit_length()) until it is below n
    k_atoms, k_raw, k_strategy, k_row = (
        size.bit_length()
        for size in (MIXTURE_MAX_ATOMS, 100, len(STRATEGIES), _ROWS)
    )
    for _ in range(samples):
        n = bits(k_atoms)
        while n >= MIXTURE_MAX_ATOMS:
            n = bits(k_atoms)
        raw = []
        for _ in range(n + 1):
            r = bits(k_raw)
            while r >= 100:
                r = bits(k_raw)
            raw.append(r + 1)
        acc = 0
        for w in raw:
            codes = []
            for _ in PLAYERS:
                if uniform() < 0.5:
                    r = bits(k_strategy)
                    while r >= len(corners):
                        r = bits(k_strategy)
                    codes.append(corners[r])
                else:
                    p = bits(k_row)
                    while p > d:
                        p = bits(k_row)
                    q = bits(k_row)
                    while q > d:
                        q = bits(k_row)
                    codes.append(_ROWS * p + q)
            ca, cb, cc = codes
            over_c = staged[cc]
            if over_c is None:
                p, q = divmod(cc, _ROWS)
                p00, p01, p10, p11 = p * q, p * (d - q), (d - p) * q, (d - p) * (d - q)
                over_c = staged[cc] = [
                    p00 * s00 + p01 * s01 + p10 * s10 + p11 * s11
                    for s00, s01, s10, s11 in by_c
                ]
            bs = b_weights[cb]
            for row, qa in a_weights[ca]:
                wa = w * qa
                for ib, qb in bs:
                    acc += wa * qb * over_c[row + ib]
        weight = sum(raw) * d**6
        yield (
            (acc & mask) + lows[0] * weight,
            (acc >> width & mask) + lows[1] * weight,
            (acc >> 2 * width) + lows[2] * weight,
        ), weight * profiles.denominator


def classical_bound_audit(
    profiles: ProfileTable, samples: int = 1000, seed: int = 0
) -> BoundAuditReport:
    """Verify the total-payoff cap on a game's 64 deterministic profiles
    (its :func:`profile_table`) and on seeded random hidden-variable
    mixtures.

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
