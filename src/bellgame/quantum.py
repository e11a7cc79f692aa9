"""Quantum advisor: GHZ state, Bloch-parameterized projective measurements,
trace-rule conditional distributions and the GHZ engine derived from a
game's utility table.

Two routes give the same quantum numbers.  The GHZ engine (ghz_weights,
kept per game as GameDefinition.ghz_weights; ghz_features, kept per setting
as MeasurementSetting.ghz_features; and ghz_payoffs, ghz_bell and
ghz_distribution, which read the features) evaluates batches of settings in
closed form; it is the only source of the payoffs, Bell values and
distribution diagnostics that searches and reports use.  Like the classical
engine, it reads game.integer_form and does no ``Fraction`` arithmetic.  The
trace rule (quantum_distribution, and quantum_payoffs and quantum_bell on
top of it) builds the full 8 x 8 distribution for any advisor state; it is a
test-only oracle that the engine is held to, kept here while
bench/test_bench.py imports it.  The gauge symmetry of planar settings and
the single-party marginal of GHZ advice are test oracles in
tests/oracles.py.

Conventions (load-bearing, fixed once here):

* Shared state |Psi> = (|111> + i|000>)/sqrt(2); basis order |abc> with
  a = party A, tensor order A (x) B (x) C, |0> = (1, 0).  The relative
  phase i is what turns the planar triple correlator into a sine.
* Outcome y = 1 corresponds to eigenvalue +1 (projector (I + M)/2),
  y = 0 to eigenvalue -1.  This also fixes the sign of Bell correlators.
* A measurement setting is one MeasurementSetting: the Bloch angles theta
  and phi of the six observables as two arrays of shape (3, 2), indexed by
  player and type bit.  The engine, the trace rule, the best responses and
  the setting file format all read this one layout.
* Planar restriction: all polar angles theta = pi/2, leaving one azimuth
  per observable; in C order the six azimuths are (a0, a1, b0, b1, c0, c1),
  where the digit is the player's type bit.
"""

from __future__ import annotations

import math
from functools import cached_property
from operator import mul
from typing import TYPE_CHECKING

import numpy as np

from .classical import BellVariant, bell_expression
from .game import (
    PLAYERS,
    PROFILES,
    ConditionalDistribution,
    Frozen,
    PayoffTriple,
    Prior,
    UtilityTable,
    ValidationError,
    expected_payoffs,
    integer_form,
    profile_index,
    read_json,
)

if TYPE_CHECKING:
    from pathlib import Path

TAU = 2 * math.pi
ALGEBRA_TOL = 1e-12

IDENTITY2 = np.eye(2, dtype=complex)
PAULI_X = np.array([[0, 1], [1, 0]], dtype=complex)
PAULI_Y = np.array([[0, -1j], [1j, 0]], dtype=complex)
PAULI_Z = np.array([[1, 0], [0, -1]], dtype=complex)


def wrap_angle(x: float) -> float:
    """Reduce an angle to the interval (-pi, pi]."""
    r = math.remainder(x, TAU)
    if r <= -math.pi:
        r += TAU
    return r


def ghz_state() -> np.ndarray:
    vec = np.zeros(8, dtype=complex)
    vec[0b111] = 1 / math.sqrt(2)
    vec[0b000] = 1j / math.sqrt(2)
    return vec


def observable_matrix(theta: float, phi: float) -> np.ndarray:
    """n.sigma for the unit vector n(theta, phi); Hermitian with n^2 = 1."""
    st, ct = math.sin(theta), math.cos(theta)
    sp, cp = math.sin(phi), math.cos(phi)
    return st * cp * PAULI_X + st * sp * PAULI_Y + ct * PAULI_Z


def projectors(theta: float, phi: float) -> tuple[np.ndarray, np.ndarray]:
    """Spectral projectors (P0, P1) of the observable at Bloch angles (theta,
    phi): P1 = (I+M)/2 (outcome 1, eigenvalue +1), P0 = (I-M)/2 (outcome 0,
    eigenvalue -1)."""
    m = observable_matrix(theta, phi)
    return (IDENTITY2 - m) / 2, (IDENTITY2 + m) / 2


class MeasurementSetting(Frozen):
    """Two +/-1 observables n.sigma per player, one per type bit, given by
    their Bloch angles: ``theta`` and ``phi`` are read-only float arrays of
    shape (3, 2), indexed by player and type bit, as ghz_features takes them.
    Two settings are equal when their angles are; a setting is unhashable.
    """

    _fields = ("theta", "phi")
    theta: np.ndarray
    phi: np.ndarray

    def __init__(self, theta, phi) -> None:
        arrays = []
        for name, value in (("theta", theta), ("phi", phi)):
            angles = np.array(value, dtype=float)
            if angles.shape != (3, 2):
                raise ValidationError(
                    f"{name} must have shape (3, 2), got {angles.shape}"
                )
            if not np.isfinite(angles).all():
                raise ValidationError("Bloch angles must be finite")
            angles.setflags(write=False)
            arrays.append(angles)
        super().__init__(*arrays)

    @classmethod
    def planar(cls, phi) -> "MeasurementSetting":
        """The equatorial setting of six azimuths in the order a0, a1, b0,
        b1, c0, c1 (or already of shape (3, 2)); every theta is pi/2."""
        return cls(np.full((3, 2), math.pi / 2), np.reshape(phi, (3, 2)))

    @cached_property
    def ghz_features(self) -> np.ndarray:
        """ghz_features of this setting, shape (8, 5), read-only.  It is
        derived on first use and kept, so that the payoffs, Bell values and
        distribution of one setting read one evaluation."""
        features = ghz_features(self.theta, self.phi)
        features.setflags(write=False)
        return features

    def is_planar(self) -> bool:
        return bool((np.abs(self.theta - math.pi / 2) <= ALGEBRA_TOL).all())

    def __eq__(self, other) -> bool:
        if not isinstance(other, MeasurementSetting):
            return NotImplemented
        return np.array_equal(self.theta, other.theta) and np.array_equal(
            self.phi, other.phi
        )

    __hash__ = None


class QuantumAdvisor(Frozen):
    """Tripartite density operator on the 8-dimensional joint space.  Two
    advisors are equal only when they are the same object."""

    _fields = ("rho",)
    rho: np.ndarray

    def __init__(self, rho) -> None:
        rho = np.array(rho, dtype=complex)
        if rho.shape != (8, 8):
            raise ValidationError(f"advisor state must be 8x8, got {rho.shape}")
        rho.setflags(write=False)
        super().__init__(rho)

    __eq__ = object.__eq__
    __hash__ = object.__hash__

    def validate(self, tol: float = ALGEBRA_TOL) -> None:
        dev = np.abs(self.rho - self.rho.conj().T).max()
        if dev > tol:
            raise ValidationError(f"advisor state not Hermitian (deviation {dev:.3e})")
        trace = complex(np.trace(self.rho))
        if abs(trace - 1) > tol:
            raise ValidationError(f"advisor state trace is {trace:.12g}, expected 1")
        lo = float(np.linalg.eigvalsh(self.rho).min())
        if lo < -tol:
            raise ValidationError(
                f"advisor state not positive semidefinite (min eigenvalue {lo:.3e})"
            )


def ghz_advisor() -> QuantumAdvisor:
    vec = ghz_state()
    return QuantumAdvisor(np.outer(vec, vec.conj()))


def quantum_distribution(
    advisor: QuantumAdvisor, setting: MeasurementSetting
) -> ConditionalDistribution:
    """p(y|x) = Tr(rho  P_A^{y_A} (x) P_B^{y_B} (x) P_C^{y_C}).

    Rows sum to 1 and satisfy no-signalling up to numerical error (1e-12
    scale); entries may undershoot zero by the same amount.
    """
    advisor.validate()
    rho6 = np.asarray(advisor.rho).reshape(2, 2, 2, 2, 2, 2)
    stacks = [
        [np.stack(projectors(t, p)) for t, p in zip(thetas, phis)]
        for thetas, phis in zip(setting.theta.tolist(), setting.phi.tolist())
    ]
    rows = []
    for x in PROFILES:
        pa, pb, pc = (stacks[i][x[i]] for i in PLAYERS)
        # p[yA,yB,yC] = sum rho[abc,def] PA[yA][d,a] PB[yB][e,b] PC[yC][f,c]
        p = np.einsum("abcdef,uda,veb,wfc->uvw", rho6, pa, pb, pc)
        rows.append(tuple(float(v) for v in p.real.reshape(8)))
    return ConditionalDistribution(tuple(rows))


def quantum_payoffs(
    table: UtilityTable,
    prior: Prior,
    advisor: QuantumAdvisor,
    setting: MeasurementSetting,
) -> PayoffTriple:
    """Expected payoffs with quantum advice: the exact bilinear form
    (game.expected_payoffs) applied to the trace-rule distribution.

    This is the oracle that tests hold ghz_payoffs to; reports take their
    payoffs from ghz_payoffs.
    """
    dist = quantum_distribution(advisor, setting)
    return expected_payoffs(table, prior, dist)


#: Outcome-sign features of the GHZ distribution, one row per action
#: profile y: (1, s_A s_B, s_A s_C, s_B s_C, s_A s_B s_C) with s = 2y - 1.
GHZ_FEATURES = tuple(
    (1, sa * sb, sa * sc, sb * sc, sa * sb * sc)
    for sa, sb, sc in ((2 * a - 1, 2 * b - 1, 2 * c - 1) for a, b, c in PROFILES)
)

#: f_k(y) of GHZ_FEATURES, one tuple of eight integer signs per feature k.
_FEATURE_COLUMNS = tuple(zip(*GHZ_FEATURES))

_TYPE_BITS = tuple(np.array(bits) for bits in zip(*PROFILES))


#: The GHZ engine's magnitude rule: ghz_weights accepts a game only if each
#: player's S_i = sum_x sum_y P(x)|u_i(x, y)| lies below this limit.  Every
#: outcome-sign feature has |f| <= 1, so a player's 40 weights sum in
#: magnitude to at most 5/8 S_i, and the 32 of its correlator features to at
#: most S_i / 2.  That bounds, in any summation order, every GHZ payoff and
#: every planar constant and grid value of optimize by about S_i, the fair
#: cap by sum_i S_i / 3, and each gradient of best_response_check by about
#: S_i / 2 in norm, so its squared norms by about S_i**2 / 4, which is below
#: 2**1024: no float of the engine can overflow.
MAGNITUDE_LIMIT = 2**500


def ghz_weights(table: UtilityTable, prior: Prior) -> np.ndarray:
    """Payoff weights of a game under GHZ advice, shape (3, 8, 5).

    W[i, x, k] = P(x) * sum_y f_k(y) u_i(x, y) / 8 with f the outcome-sign
    features of GHZ_FEATURES.  The sums run over game.integer_form, as
    profile_table's do; each entry is one int / int division, rounded once
    as float(Fraction) is.  A game outside MAGNITUDE_LIMIT, checked exactly
    on the same integers, is a ValidationError that names the first player
    outside it.  The GHZ payoff of any game is linear in these weights and
    the five correlation features of each type profile (see ghz_payoffs).
    """
    prior_nums, utils, denominator = integer_form(table, prior)
    limit = MAGNITUDE_LIMIT * denominator
    for player, rows in zip(PLAYERS, utils):
        if sum(w * sum(map(abs, u)) for w, u in zip(prior_nums, rows)) >= limit:
            raise ValidationError(
                "utilities too large for the GHZ engine: the sum of "
                f"P(x)|u_{player.name}(x, y)| over x and y is not below 2**500"
            )
    scale = 8 * denominator
    return np.array([
        [[w * sum(map(mul, f, u)) / scale for f in _FEATURE_COLUMNS]
         for w, u in zip(prior_nums, rows)]
        for rows in utils
    ])


def ghz_features(theta, phi) -> np.ndarray:
    """Outcome-sign correlations of the GHZ distribution, shape (..., 8, 5).

    ``theta`` and ``phi`` have shape (..., 3, 2), indexed by player and type
    bit.  Row x holds E[f_k(y) | x] for the features of GHZ_FEATURES: for the
    GHZ state the trace rule reduces to p(y|x) = (1 + sum_{i<j} cos t_i
    cos t_j s_i s_j - sin t_A sin t_B sin t_C sin(p_A + p_B + p_C)
    s_A s_B s_C) / 8, so the expectations are 1, the three pair products of
    cosines and the triple correlator.  ghz_payoffs, ghz_bell and
    ghz_distribution read this array; one setting keeps its own
    (MeasurementSetting.ghz_features).
    """
    theta = np.asarray(theta, dtype=float)
    phi = np.asarray(phi, dtype=float)
    xa, xb, xc = _TYPE_BITS
    cos, sin = np.cos(theta), np.sin(theta)
    ca, cb, cc = cos[..., 0, xa], cos[..., 1, xb], cos[..., 2, xc]
    triple = -(
        sin[..., 0, xa] * sin[..., 1, xb] * sin[..., 2, xc]
        * np.sin(phi[..., 0, xa] + phi[..., 1, xb] + phi[..., 2, xc])
    )
    return np.stack([np.ones_like(ca), ca * cb, ca * cc, cb * cc, triple], axis=-1)


def ghz_distribution(features: np.ndarray) -> np.ndarray:
    """p(y|x) of the GHZ advisor, shape (..., 8, 8) for a feature array of
    shape (..., 8, 5) (from ghz_features): entry [x, y] is
    sum_k E[f_k | x] f_k(y) / 8, added left to right over k."""
    features = features[..., None]
    return sum(features[..., k, :] * _FEATURE_COLUMNS[k] for k in range(5)) / 8


def ghz_payoffs(weights: np.ndarray, features: np.ndarray) -> np.ndarray:
    """Expected payoffs under GHZ advice for a batch of measurement settings.

    ``features`` has shape (..., 8, 5) (from ghz_features); the result has
    shape (..., 3): the features of each type profile dotted with
    ``weights`` (from ghz_weights).
    """
    return features.reshape(*features.shape[:-2], 40) @ weights.reshape(3, 40).T


def ghz_bell(features: np.ndarray) -> dict[BellVariant, np.ndarray]:
    """Value of each Bell variant under GHZ advice, in BellVariant order,
    shape (...) for a feature array of shape (..., 8, 5) (from
    ghz_features): the triple correlators of the positive contexts minus
    that of the negative context; may exceed 2."""
    triple = features[..., 4]
    values = {}
    for variant in BellVariant:
        value = sum(triple[..., profile_index(x)] for x in variant.positive_contexts)
        values[variant] = value - triple[..., profile_index(variant.negative_context)]
    return values


def quantum_bell(
    advisor: QuantumAdvisor, setting: MeasurementSetting, variant: BellVariant
) -> float:
    """Bell-variant value of the trace-rule distribution; may exceed 2.

    This is the oracle that tests hold ghz_bell to; reports take their Bell
    values from ghz_bell.
    """
    return float(bell_expression(quantum_distribution(advisor, setting), variant))


# ---------------------------------------------------------------------------
# Setting file format: twelve angles in radians with keys theta_A0 .. phi_C1,
# or the planar shorthand of exactly the six phi keys (thetas default pi/2).
# Schema ships in docs/setting.schema.json.
# ---------------------------------------------------------------------------

_SLOTS = [f"{p}{t}" for p in "ABC" for t in (0, 1)]
FULL_KEYS = [f"theta_{s}" for s in _SLOTS] + [f"phi_{s}" for s in _SLOTS]
PLANAR_KEYS = [f"phi_{s}" for s in _SLOTS]


def setting_to_json_dict(setting: MeasurementSetting) -> dict:
    doc = {}
    for slot, theta, phi in zip(_SLOTS, setting.theta.flat, setting.phi.flat):
        doc[f"theta_{slot}"] = float(theta)
        doc[f"phi_{slot}"] = float(phi)
    return doc


#: Every angle of a setting file lies strictly within +-ANGLE_LIMIT, as
#: docs/setting.schema.json states: three such azimuths sum to a finite
#: float, whose sine ghz_features can take.
ANGLE_LIMIT = 2**1022


def _angle(doc: dict, key: str) -> float:
    """An angle value as the schema types it: a JSON number, not a string or
    a boolean (``bool`` is an ``int`` subclass in Python), of magnitude
    below ANGLE_LIMIT.  The JSON value itself is compared, an integer
    exactly, before it is converted to float; NaN and infinities fail."""
    value = doc[key]
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ValidationError(f"{key}: angle must be a number, got {value!r}")
    if not abs(value) < ANGLE_LIMIT:
        raise ValidationError(f"{key}: angle must lie strictly within +-2**1022")
    return float(value)


def setting_from_json_dict(doc: dict) -> MeasurementSetting:
    if not isinstance(doc, dict):
        raise ValidationError("setting document must be a JSON object")
    keys = set(doc)
    if keys == set(PLANAR_KEYS):
        return MeasurementSetting.planar([_angle(doc, k) for k in PLANAR_KEYS])
    missing = set(FULL_KEYS) - keys
    extra = keys - set(FULL_KEYS)
    if missing or extra:
        raise ValidationError(
            "setting must carry the twelve angle keys or the six-phi planar "
            f"shorthand; missing {sorted(missing)}, unexpected {sorted(extra)}"
        )
    angles = [(_angle(doc, f"theta_{s}"), _angle(doc, f"phi_{s}")) for s in _SLOTS]
    theta, phi = zip(*angles)
    return MeasurementSetting(np.reshape(theta, (3, 2)), np.reshape(phi, (3, 2)))


def load_setting(path: str | Path) -> MeasurementSetting:
    doc = read_json(path)
    try:
        return setting_from_json_dict(doc)
    except ValidationError as exc:
        raise ValidationError(f"{path}: {exc}") from exc
