"""Test-only oracles: the ``Fraction`` routes, the paper's symmetry tools and
the constructors of test inputs that the program's engines are held to.

None of this is program code.  The classical oracles spell a classical
advisor out as a conditional distribution p(y | x): deterministic profiles
as delta distributions, hidden-variable models as mixtures of product
response tables, the distribution-level type relabelling that generates
the Bell family, and the direct payoff sum of a deterministic profile.
:func:`bell_decomposition` reads the paper's Bell form off a game's total
payoff.  The quantum ones are the gauge symmetry of planar settings, the
maximum of a planar payoff row over the third player's azimuths
(:func:`reduced_planar_maximum`) and the single-party marginal of GHZ
advice.  Among the test inputs,
:func:`relabelled_copy` builds every relabelled, rescaled copy of a game
that the tests use, and :func:`scaled_to_magnitude` the games at the edge of
the GHZ engine's magnitude rule.

The module imports from ``bellgame`` only value types, constants and small
helpers, never an engine that it checks (``profile_table``,
``integer_form``, ``classical._sampled_payoffs``, the ``ghz_*`` functions,
``maximize_planar`` or ``best_response_check``);
``tests/test_dead_code.py`` holds it to that.  The trace rule
(``quantum.quantum_distribution`` and what it calls) and
``game.expected_payoffs``, ``classical.correlator`` and
``classical.bell_expression`` stay in the package while
``bench/test_bench.py`` imports them.
"""

from __future__ import annotations

import math
import random
from fractions import Fraction
from functools import lru_cache
from typing import Callable, Sequence

import numpy as np

from bellgame.classical import MIXTURE_MAX_ATOMS, STRATEGIES, StrategyProfile
from bellgame.game import (
    PLAYERS,
    PROFILES,
    ConditionalDistribution,
    Frozen,
    GameDefinition,
    Numeric,
    PayoffTriple,
    Player,
    Prior,
    Profile,
    UtilityTable,
    ValidationError,
    profile_index,
)
from bellgame.quantum import ALGEBRA_TOL, IDENTITY2, TAU, wrap_angle

# ---------------------------------------------------------------------------
# Test inputs
# ---------------------------------------------------------------------------


def table_from_function(fn: Callable[[Player, Profile, Profile], Numeric]) -> UtilityTable:
    """The utility table of u_i(x, y) = fn(i, x, y), each value as a Fraction."""
    return UtilityTable(
        tuple(
            tuple(tuple(Fraction(fn(p, x, y)) for y in PROFILES) for x in PROFILES)
            for p in PLAYERS
        )
    )


def constant_table(value: Numeric) -> UtilityTable:
    v = Fraction(value)
    return table_from_function(lambda p, x, y: v)


def table_entry(table: UtilityTable, player: Player, x: Profile, y: Profile) -> Fraction:
    """u_player(x, y), read by bit profiles."""
    return table.values[player][profile_index(x)][profile_index(y)]


def make_uniform_prior() -> Prior:
    return Prior((Fraction(1, 8),) * 8)


def make_uniform_distribution() -> ConditionalDistribution:
    return ConditionalDistribution(((Fraction(1, 8),) * 8,) * 8)


def affine_transform(table: UtilityTable, alpha: Numeric, beta: Numeric) -> UtilityTable:
    """Rescale utilities u -> alpha*u + beta; preserves best responses.

    alpha must be positive, otherwise preferences would flip.
    """
    alpha = Fraction(alpha)
    beta = Fraction(beta)
    if alpha <= 0:
        raise ValidationError(f"affine scale must be positive, got {alpha}")
    return UtilityTable(
        tuple(
            tuple(tuple(alpha * v + beta for v in row) for row in rows)
            for rows in table.values
        )
    )


def _flip(x: Profile, f: Profile) -> Profile:
    """x XOR f, bit by bit."""
    return (x[0] ^ f[0], x[1] ^ f[1], x[2] ^ f[2])


def relabelled_copy(
    game: GameDefinition,
    type_flip: Profile,
    action_flip: Profile,
    alpha: Numeric,
    beta: Numeric,
    prior: Prior | None = None,
) -> GameDefinition:
    """``game`` with type and action bits flipped and its utilities mapped
    affinely: u'_i(x, y) = alpha u_i(x XOR type_flip, y XOR action_flip) +
    beta, under ``prior`` (by default the game's prior, not relabelled).
    alpha must be positive."""

    def utility(i, x, y):
        return table_entry(game.utilities, i, _flip(x, type_flip), _flip(y, action_flip))

    return GameDefinition(
        affine_transform(table_from_function(utility), alpha, beta),
        game.prior if prior is None else prior,
    )


def seeded_relabelling(seed: int) -> tuple[Profile, Profile, Fraction, Fraction]:
    """The type flip, action flip, alpha and beta of a seeded
    :func:`relabelled_copy`: alpha in [1/19, 19], beta in [-20, 20]."""
    rng = np.random.default_rng(seed)
    type_flip, action_flip = (tuple(rng.integers(0, 2, 3).tolist()) for _ in range(2))
    alpha = Fraction(int(rng.integers(1, 20)), int(rng.integers(1, 20)))
    beta = Fraction(int(rng.integers(-20, 21)), int(rng.integers(1, 20)))
    return type_flip, action_flip, alpha, beta


def magnitude(game: GameDefinition, player: Player) -> Fraction:
    """S_i = sum_x sum_y P(x)|u_i(x, y)|, the quantity that the GHZ engine's
    magnitude rule (quantum.MAGNITUDE_LIMIT) bounds."""
    return sum(
        w * sum(map(abs, row))
        for w, row in zip(game.prior.weights, game.utilities.values[player])
    )


def scaled_to_magnitude(
    game: GameDefinition, players: Sequence[Player], target: Numeric
) -> GameDefinition:
    """``game`` with the utilities of each of ``players`` scaled by one
    positive factor, so that its :func:`magnitude` is exactly ``target``;
    the other players' utilities and the prior are kept."""
    factors = {p: Fraction(target) / magnitude(game, p) for p in players}
    return GameDefinition(
        table_from_function(
            lambda i, x, y: table_entry(game.utilities, i, x, y) * factors.get(i, 1)
        ),
        game.prior,
    )


# ---------------------------------------------------------------------------
# Classical advisors as distributions
# ---------------------------------------------------------------------------


def strategy_to_distribution(profile: StrategyProfile) -> ConditionalDistribution:
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


def hv_model_to_distribution(model: HiddenVariableModel) -> ConditionalDistribution:
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


#: Response denominator of random_hidden_variable_model.
MIXTURE_DENOMINATOR = 16


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
    ``choice`` and ``random``.
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


def random_profile_mixture(rng: random.Random) -> HiddenVariableModel:
    """Seeded random mixture of deterministic profiles, drawn with public
    ``randint`` and ``randrange`` calls: the audit's
    ``classical._sampled_payoffs`` makes the same ``getrandbits`` draws
    directly, so the two stay in step.  It has one to
    MIXTURE_MAX_ATOMS atoms, each a profile index ``randrange(64)`` and then
    a raw weight ``randint(1, 100)``; an atom's weight is its raw weight
    over their sum.  Profile k plays ``STRATEGIES[k // 16]``,
    ``STRATEGIES[k // 4 % 4]`` and ``STRATEGIES[k % 4]``.
    """
    raw = []
    for _ in range(rng.randint(1, MIXTURE_MAX_ATOMS)):
        k = rng.randrange(64)
        profile = (STRATEGIES[k // 16], STRATEGIES[k // 4 % 4], STRATEGIES[k % 4])
        raw.append((rng.randint(1, 100), profile))
    total = sum(w for w, _ in raw)
    return HiddenVariableModel.from_profiles([(Fraction(w, total), p) for w, p in raw])


def flip_types(dist: ConditionalDistribution, flips: Profile) -> ConditionalDistribution:
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


#: The coefficient of each context's correlator E_x in the Bell expression
#: V011, by x in profile index order; V100's coefficient of E_x is V011's of
#: x XOR (1, 1, 1).
_V011 = tuple({0: -1, 2: 1}.get(sum(x), 0) for x in PROFILES)


#: A type flip f and a pair (alpha, beta): the Bell form of bell_decomposition.
BellForm = tuple[Profile, tuple[Fraction, Fraction]]


def bell_decomposition(
    game: GameDefinition,
) -> tuple[Fraction, tuple[Fraction, ...], BellForm | None] | None:
    """The game's total payoff as a Bell expression, exactly, or None.

    In each context x the total u_A + u_B + u_C must be m_x + d_x s_A s_B s_C
    over the action profiles y, with s = 2y - 1: one value on each parity
    class of y.  Returns (c, w, form) with c = sum_x P(x) m_x and
    w[x] = P(x) d_x, in profile index order of x, so that the total payoff
    of any advice is c + sum_x w[x] E_x, E_x its triple correlator in
    context x.  Returns None when some context's total is not parity-only.

    ``form`` is (f, (alpha, beta)) when w, read through the type flip f, is
    alpha V011 + beta V100: w[x XOR f] = alpha V011_x + beta V100_x, with
    V011_x and V100_x the coefficients of E_x in the two expressions.  The
    flips f and f XOR (1, 1, 1) give the same form with alpha and beta
    swapped, so f is the first flip of even weight that fits, in profile
    index order: the identity when w is zero.  ``form`` is None when no
    flip fits.
    """
    c = Fraction(0)
    w = []
    for xi, weight in enumerate(game.prior.weights):
        by_parity: dict[int, set[Fraction]] = {1: set(), -1: set()}
        for yi, y in enumerate(PROFILES):
            sign = (2 * y[0] - 1) * (2 * y[1] - 1) * (2 * y[2] - 1)
            by_parity[sign].add(sum(game.utilities.values[p][xi][yi] for p in PLAYERS))
        if len(by_parity[1]) != 1 or len(by_parity[-1]) != 1:
            return None
        (even,), (odd,) = by_parity[1], by_parity[-1]
        c += weight * (even + odd) / 2
        w.append(weight * (even - odd) / 2)
    for f in PROFILES:
        if sum(f) % 2:
            continue
        # V011 is -1 at context 000 and V100 at 111, and each is 0 at the
        # other; x XOR (1, 1, 1) has index 7 - index(x)
        alpha, beta = -w[profile_index(f)], -w[7 - profile_index(f)]
        if all(
            w[profile_index(_flip(x, f))] == alpha * _V011[xi] + beta * _V011[7 - xi]
            for xi, x in enumerate(PROFILES)
        ):
            return c, tuple(w), (f, (alpha, beta))
    return c, tuple(w), None


# ---------------------------------------------------------------------------
# Quantum oracles
# ---------------------------------------------------------------------------


def planar_row_phasors(row: Sequence[float], a1: float, b1: float) -> tuple[complex, complex]:
    """Z_0 and Z_1 of a planar payoff row (k, r_0, ..., r_7), coefficients
    in profile index order, at the azimuths (a1, b1) in the gauge
    a0 = b0 = 0: Z_c = sum over x with x_C = c of r_x e^{i(a(x_A) + b(x_B))}.
    The row's payoff k + sum_x r_x sin(a(x_A) + b(x_B) + c(x_C)) is then
    k + Im(e^{i c0} Z_0) + Im(e^{i c1} Z_1)."""
    a, b = (0.0, a1), (0.0, b1)
    z = [0j, 0j]
    for r, (xa, xb, xc) in zip(row[1:], PROFILES):
        z[xc] += r * complex(math.cos(a[xa] + b[xb]), math.sin(a[xa] + b[xb]))
    return z[0], z[1]


def reduced_planar_maximum(row: Sequence[float], a1: float, b1: float) -> float:
    """k + |Z_0(a1, b1)| + |Z_1(a1, b1)|: the maximum of a planar payoff row
    over (c0, c1) at fixed (a1, b1), reached at c_j = pi/2 - arg Z_j, since
    Im(e^{i c} Z) <= |Z| with equality there (see planar_row_phasors)."""
    z0, z1 = planar_row_phasors(row, a1, b1)
    return row[0] + abs(z0) + abs(z1)


def gauge_transform(phi, chi1: float, chi2: float, chi3: float) -> np.ndarray:
    """Shift each player's pair of azimuths by a common phase: ``phi`` and
    the result, wrapped to (-pi, pi], have shape (3, 2), indexed by player
    and type bit.

    Valid only when chi1 + chi2 + chi3 is a multiple of 2*pi: the shift then
    acts on the GHZ state as a global sign, so the payoff is unchanged.
    """
    residue = math.remainder(chi1 + chi2 + chi3, TAU)
    if abs(residue) > ALGEBRA_TOL:
        raise ValidationError(
            f"gauge shifts must sum to a multiple of 2*pi "
            f"(residue {residue:.3e})"
        )
    shifted = np.asarray(phi, dtype=float) + np.array([[chi1], [chi2], [chi3]])
    # wrap_angle rounds to the nearest turn (math.remainder); np.remainder
    # floors, and would give other canonical angles
    return np.reshape([wrap_angle(v) for v in shifted.flat], (3, 2))


def gauge_canonicalize(phi) -> np.ndarray:
    """The unique gauge-equivalent (3, 2) azimuth array with a0 = b0 = 0.

    Two planar settings are gauge-equivalent iff their canonical forms agree
    componentwise modulo 2*pi.
    """
    a0, b0 = phi[0][0], phi[1][0]
    canonical = gauge_transform(phi, -a0, -b0, a0 + b0)
    # force the fixed components to exact zeros (they are zero up to -0.0)
    canonical[:2, 0] = 0.0
    return canonical


def gauge_equivalent(first, second, tol: float = 1e-4) -> bool:
    ca, cb = gauge_canonicalize(first), gauge_canonicalize(second)
    return all(abs(wrap_angle(u - v)) <= tol for u, v in zip(ca.flat, cb.flat))


#: The GHZ state (|111> + i|000>)/sqrt(2), in the basis order of
#: bellgame.quantum.
_GHZ = np.zeros(8, dtype=complex)
_GHZ[0b111], _GHZ[0b000] = 1 / math.sqrt(2), 1j / math.sqrt(2)


def ghz_single_party_marginal(projector: np.ndarray, party: Player) -> float:
    """Probability of one party's rank-1 measurement outcome on GHZ advice.

    The GHZ reduced state of any single party is maximally mixed, so this is
    1/2 for every rank-1 projector: no measurement setting can reproduce a
    deterministic single-party marginal, hence none of the unfair classical
    equilibrium distributions is quantum-realizable with this advisor.
    """
    p = np.asarray(projector, dtype=complex)
    if p.shape != (2, 2):
        raise ValidationError(f"projector must be 2x2, got {p.shape}")
    if np.abs(p - p.conj().T).max() > ALGEBRA_TOL:
        raise ValidationError("projector must be Hermitian")
    if np.abs(p @ p - p).max() > 1e-10:
        raise ValidationError("projector must be idempotent")
    if abs(np.trace(p).real - 1) > 1e-10:
        raise ValidationError("projector must have rank 1 (trace 1)")
    ops = [IDENTITY2, IDENTITY2, IDENTITY2]
    ops[party] = p
    lifted = np.kron(np.kron(ops[0], ops[1]), ops[2])
    return float(np.real(_GHZ.conj() @ lifted @ _GHZ))
