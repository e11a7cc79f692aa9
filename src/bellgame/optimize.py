"""Maximization of the quantum payoff over measurement angles, exact
best-response certification, and the classical-vs-quantum advantage
summary.

The objective landscape is smooth and low-dimensional (four free azimuths
once the gauge a0 = b0 = 0 is fixed), so a seeded coarse grid scan followed
by Nelder-Mead polish from the best starts finds the optimum reliably.  The
polish is in-house: it follows SciPy's Nelder-Mead path exactly, float for
float, without SciPy's per-iteration numpy overhead or its import.  The
contract is the value reached, not the search path.

Certification needs no search.  With the other two players' observables
fixed, a player's GHZ payoff is affine in the Bloch vectors of their own two
observables, so the best deviation is the unit vector along each gradient
and the improvement it buys is exact (see best_response_check).

Every game takes the same path, and every engine takes its game
explicitly: the search, the best responses and the reported payoffs all
come from the GHZ engine (quantum.ghz_weights and ghz_payoffs).  The trace
rule is not used here; tests hold the engine to it.

Settings come in and go out as quantum.MeasurementSetting, whose (3, 2)
angle arrays the engine reads as they are: the optimum is a planar setting
in the canonical gauge, and each best response is the candidate with one
player's two observables replaced.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import reduce
from math import sin
from operator import add, mul
from typing import Callable, Sequence

import numpy as np

from .classical import profile_table
from .game import (
    PLAYERS,
    PROFILES,
    GameDefinition,
    PayoffTriple,
    Player,
    ValidationError,
)
from .quantum import MeasurementSetting, ghz_payoffs, ghz_weights, wrap_angle

#: A candidate counts as a numerical equilibrium when no player can gain
#: more than this by a unilateral change of their own observables.
EQUILIBRIUM_IMPROVEMENT_TOL = 1e-6


@dataclass(frozen=True)
class OptimizationConfig:
    restarts: int = 12
    grid: int = 16  # scan resolution per angle
    tol: float = 1e-10  # simplex convergence tolerance on the value
    seed: int = 0

    def __post_init__(self) -> None:
        if self.grid < 8:
            raise ValidationError("grid resolution must be at least 8")
        # The grid scan holds 3 * grid**4 floats, 0.4 GB at 64.
        if self.grid > 64:
            raise ValidationError("grid resolution must be at most 64")
        if not (math.isfinite(self.tol) and self.tol > 0):
            raise ValidationError("convergence tolerance must be finite and positive")
        if self.restarts < 1:
            raise ValidationError("restarts must be positive")
        if self.restarts > 10_000:
            raise ValidationError("restarts must be at most 10000")
        if self.seed < 0:
            raise ValidationError("seed must be non-negative")


@dataclass(frozen=True)
class OptimumReport:
    setting: MeasurementSetting  # planar, in the canonical gauge a0 = b0 = 0
    value: float
    payoffs: PayoffTriple
    converged: bool


#: Iteration cap of one Nelder-Mead polish; it may evaluate the objective
#: four times as often.
NM_MAX_ITER = 2000
#: Simplex convergence tolerance on the vertices.
NM_XATOL = 1e-9


class _Exhausted(Exception):
    """The evaluation budget of a polish ran out."""


def _sort_simplex(
    sim: list[list[float]], fsim: list[float]
) -> tuple[list[list[float]], list[float]]:
    """Vertices and values in the order of ``np.argsort(fsim)``.

    Distinct values have one ascending order, which Python's sort finds.
    Tied (or NaN) values go through ``np.argsort`` itself: it is not a
    stable sort on every CPU, and the order of tied vertices steers the
    rest of the path.
    """
    order = sorted(range(len(fsim)), key=fsim.__getitem__)
    if not all(fsim[i] < fsim[j] for i, j in zip(order, order[1:])):
        order = np.argsort(fsim).tolist()
    return [sim[i] for i in order], [fsim[i] for i in order]


def _nelder_mead(
    objective: Callable[[list[float]], float],
    x0: Sequence[float],
    config: OptimizationConfig,
) -> tuple[list[float], float, bool]:
    """Maximize ``objective`` from ``x0``; returns (x, value, converged).

    This is SciPy 1.17's ``minimize(lambda x: -objective(x), x0,
    method="Nelder-Mead")`` with xatol NM_XATOL, fatol ``config.tol``,
    maxiter NM_MAX_ITER and maxfev 4 * NM_MAX_ITER, on Python float lists:
    the same initial simplex, the same steps with the coefficients rho = 1,
    chi = 2, psi = sigma = 1/2 substituted into SciPy's expressions, the
    centroid summed row by row and the same vertex order, so every point
    and value is the same float as SciPy's.  ``objective`` gets each point
    as a list and must not change it.
    """
    max_fev = 4 * NM_MAX_ITER
    n = len(x0)
    nfev = 0

    def f(x: list[float]) -> float:
        nonlocal nfev
        if nfev >= max_fev:
            raise _Exhausted
        nfev += 1
        return -objective(x)

    start = [float(v) for v in x0]
    sim = [start]
    for k in range(n):
        y = list(start)
        y[k] = (1 + 0.05) * y[k] if y[k] != 0 else 0.00025
        sim.append(y)
    fsim = [f(v) for v in sim]  # n + 1 <= 5 evaluations, within budget
    # SciPy sorts twice here; a second sort can only move tied vertices.
    sim, fsim = _sort_simplex(*_sort_simplex(sim, fsim))

    nit = 1
    while nfev < max_fev and nit < NM_MAX_ITER:
        best = sim[0]
        # fsim is ascending with any NaN last, so fsim[-1] - fsim[0] is
        # SciPy's max |fsim[0] - fsim[1:]|, NaN included.  SciPy's break
        # here skips its end-of-iteration sort; so does this one.
        if fsim[-1] - fsim[0] <= config.tol and all(
            abs(v - b) <= NM_XATOL for row in sim[1:] for v, b in zip(row, best)
        ):
            break
        shrink = False
        try:
            worst = sim[-1]
            xbar = [reduce(add, col) / n for col in zip(*sim[:-1])]
            xr = [2 * c - w for c, w in zip(xbar, worst)]
            fxr = f(xr)
            if fxr < fsim[0]:
                xe = [3 * c - 2 * w for c, w in zip(xbar, worst)]
                fxe = f(xe)
                if fxe < fxr:
                    sim[-1], fsim[-1] = xe, fxe
                else:
                    sim[-1], fsim[-1] = xr, fxr
            elif fxr < fsim[-2]:
                sim[-1], fsim[-1] = xr, fxr
            elif fxr < fsim[-1]:
                xc = [1.5 * c - 0.5 * w for c, w in zip(xbar, worst)]
                fxc = f(xc)
                if fxc <= fxr:
                    sim[-1], fsim[-1] = xc, fxc
                else:
                    shrink = True
            else:
                xcc = [0.5 * c + 0.5 * w for c, w in zip(xbar, worst)]
                fxcc = f(xcc)
                if fxcc < fsim[-1]:
                    sim[-1], fsim[-1] = xcc, fxcc
                else:
                    shrink = True
            if shrink:
                for j in range(1, n + 1):
                    sim[j] = [b + 0.5 * (v - b) for v, b in zip(sim[j], best)]
                    fsim[j] = f(sim[j])
            nit += 1
        except _Exhausted:
            pass
        sim, fsim = _sort_simplex(sim, fsim)

    # np.min(fsim), as SciPy reports: with tied values (zeros of either
    # sign) or a NaN it need not be fsim[0].
    return sim[0], -float(np.min(fsim)), nfev < max_fev and nit < NM_MAX_ITER


#: Runs whose values lie within this window of the best are treated as ties
#: and resolved by angle order.  The objective has reflection-symmetric
#: maxima of equal value; without the window the winning orbit would depend
#: on float noise between runs.
TIE_WINDOW = 1e-9


def _multistart_max(
    objective: Callable[[list[float]], float],
    starts: Sequence[Sequence[float]],
    config: OptimizationConfig,
) -> tuple[list[float], float, bool]:
    """Best local maximum over the given starts.

    Order-independent merge: highest value wins; runs within TIE_WINDOW of
    the best count as ties, broken by lexicographic order of the wrapped
    angle vector.
    """
    results = []
    for x0 in starts:
        x, value, ok = _nelder_mead(objective, x0, config)
        results.append((value, tuple(wrap_angle(v) for v in x), x, ok))
    vmax = max(r[0] for r in results)
    tied = [r for r in results if r[0] >= vmax - TIE_WINDOW]
    winner = min(tied, key=lambda r: r[1])
    return winner[2], winner[0], winner[3]


def _grid_starts(
    const: np.ndarray, coef: np.ndarray, config: OptimizationConfig
) -> list[tuple[float, float, float, float]]:
    """The ``restarts`` best points of the planar objective on the grid.

    The grid has ``config.grid`` points per free angle (a1, b1, c0, c1).
    Each type profile's sine depends on at most three of the angles, so it
    is evaluated on a broadcast axis and added into the (3, grid**4) payoff
    array in place; no full mesh of the four angles is built.
    """
    g = config.grid
    axis = np.linspace(-math.pi, math.pi, g, endpoint=False)
    a = (0.0, axis.reshape(g, 1, 1, 1))
    b = (0.0, axis.reshape(1, g, 1, 1))
    c = (axis.reshape(1, 1, g, 1), axis.reshape(1, 1, 1, g))
    values = np.empty((3, g, g, g, g))
    values[:] = const.reshape(3, 1, 1, 1, 1)
    for xi, (xa, xb, xc) in enumerate(PROFILES):
        values += coef[:, xi].reshape(3, 1, 1, 1, 1) * np.sin(a[xa] + b[xb] + c[xc])
    # The minimum over the players goes into values[0] in place, where
    # values.min(axis=0) would allocate another third of values.
    np.minimum(values[0], values[1], out=values[0])
    np.minimum(values[0], values[2], out=values[0])
    # The objective's symmetric maxima tie on the grid.  Which tied points
    # become starts must not depend on the CPU, so the few points at or
    # above the k-th best value are put in order by a stable sort: best
    # first, and of tied points the last in grid order first.
    flat = values[0].ravel()
    k = min(config.restarts, flat.size)
    best = np.flatnonzero(flat >= np.partition(flat, flat.size - k)[flat.size - k])
    top = best[np.argsort(flat[best], kind="stable")[::-1][:k]]
    return list(zip(*(axis[i] for i in np.unravel_index(top, (g,) * 4))))


def maximize_planar(
    game: GameDefinition, config: OptimizationConfig | None = None
) -> OptimumReport:
    """Maximize the minimum player payoff (the guaranteed value of a fair
    outcome) over planar GHZ settings in the canonical gauge.

    On the equator only the triple correlator survives, so each payoff is
    const_i + sum_x coef_i[x] sin(a(x_A) + b(x_B) + c(x_C)) with constants
    and coefficients read off the game's GHZ weights.  The top points of a
    grid scan and seeded random points start Nelder-Mead polishes; more
    restarts can only improve the reported value (up to the tie window).
    """
    config = config or OptimizationConfig()
    weights = ghz_weights(game.utilities, game.prior)
    const = weights[:, :, 0].sum(axis=1)
    coef = -weights[:, :, 4]
    # Players with identical rows (all three in a symmetric game) share one
    # evaluation; the minimum is unchanged.
    rows = list(dict.fromkeys(zip(const.tolist(), map(tuple, coef.tolist()))))

    def objective(x: list[float]) -> float:
        # math.sin on Python floats: Nelder-Mead makes thousands of scalar
        # calls, and numpy's per-call overhead would dominate them.
        a1, b1, c0, c1 = x
        sines = (
            sin(c0), sin(c1), sin(b1 + c0), sin(b1 + c1),
            sin(a1 + c0), sin(a1 + c1), sin(a1 + b1 + c0), sin(a1 + b1 + c1),
        )
        return min([k + sum(map(mul, row, sines)) for k, row in rows])

    rng = np.random.default_rng(config.seed)
    random_starts = rng.uniform(-math.pi, math.pi, size=(config.restarts, 4))
    starts = _grid_starts(const, coef, config) + list(random_starts)

    x, _, ok = _multistart_max(objective, starts, config)
    a1, b1, c0, c1 = (wrap_angle(v) for v in x)
    setting = MeasurementSetting.planar([0.0, a1, 0.0, b1, c0, c1])
    payoffs = ghz_payoffs(weights, setting.theta, setting.phi)
    return OptimumReport(
        setting=setting,
        value=objective([a1, b1, c0, c1]),
        payoffs=PayoffTriple(*payoffs.tolist()),
        converged=ok,
    )


@dataclass(frozen=True)
class PlayerBestResponse:
    player: Player
    improvement: float  # payoff - baseline, exact (see best_response_check)
    payoff: float  # own payoff at the best deviation
    deviation: MeasurementSetting  # the candidate with this player's best observables


@dataclass(frozen=True)
class BestResponseVerdict:
    mode: str  # "planar" | "full_sphere"
    baseline: PayoffTriple
    responses: tuple[PlayerBestResponse, PlayerBestResponse, PlayerBestResponse]
    threshold: float = EQUILIBRIUM_IMPROVEMENT_TOL

    @property
    def max_improvement(self) -> float:
        return max(r.improvement for r in self.responses)

    @property
    def is_equilibrium(self) -> bool:
        return self.max_improvement < self.threshold


#: Bloch angles (theta, phi) of the probe observables along x, y, +z and
#: -z: a player's payoffs at these four read off the affine map of one of
#: their observables.
_PROBE_THETA = np.array([math.pi / 2, math.pi / 2, 0.0, math.pi])
_PROBE_PHI = np.array([0.0, math.pi / 2, 0.0, 0.0])


def best_response_check(
    game: GameDefinition, candidate: MeasurementSetting, mode: str = "planar"
) -> BestResponseVerdict:
    """Each player's exact best unilateral deviation under GHZ advice.

    With the other two players' observables fixed, a player's GHZ payoff is
    affine in the Bloch vectors n_0, n_1 of their own two observables,
    u = c + g_0.n_0 + g_1.n_1, because the GHZ features are linear in each
    observable's (sin t cos p, sin t sin p, cos t).  Over unit vectors the
    maximum is c + |g_0| + |g_1|, at n_t = g_t/|g_t|.  Planar mode keeps the
    deviations on the equator, where the xy-part of g_t takes the place of
    g_t; full-sphere mode frees the polar angles as well.  The improvement
    over the candidate's own payoff is therefore the certificate
    sum_t (|g_t| - g_t.n_t) with the candidate's own n_t and the full g_t.
    It is never negative beyond rounding, except in planar mode at a
    non-planar candidate, whose own observables may pay more than any
    planar deviation.  An observable whose g_t has no part to align with
    stays the candidate's own (its azimuth on the equator, in planar mode).

    Each g_t comes from the player's payoffs with that observable swapped
    for the probes x, y, +z and -z: g_z = (u_+z - u_-z)/2 and, with
    c' = (u_+z + u_-z)/2, g_x = u_x - c' and g_y = u_y - c'.  All 24 probe
    settings go through one ghz_payoffs call.
    """
    if mode not in ("planar", "full_sphere"):
        raise ValidationError(f"unknown best-response mode {mode!r}")
    weights = ghz_weights(game.utilities, game.prior)
    theta0, phi0 = candidate.theta, candidate.phi
    baseline = ghz_payoffs(weights, theta0, phi0)

    # Axes: deviating player, their type bit, probe, then the setting's own
    # (player, type bit) axes.
    shape = (3, 2, 4, 3, 2)
    theta = np.broadcast_to(theta0, shape).copy()
    phi = np.broadcast_to(phi0, shape).copy()
    player, bit = np.arange(3)[:, None], np.arange(2)[None, :]
    theta[player, bit, :, player, bit] = _PROBE_THETA
    phi[player, bit, :, player, bit] = _PROBE_PHI
    own = ghz_payoffs(weights, theta, phi)[player, bit, :, player]
    u_x, u_y, u_up, u_down = np.moveaxis(own, -1, 0)
    rest = (u_up + u_down) / 2
    g = np.stack([u_x - rest, u_y - rest, (u_up - u_down) / 2], axis=-1)
    sin0 = np.sin(theta0)
    n = np.stack([sin0 * np.cos(phi0), sin0 * np.sin(phi0), np.cos(theta0)], axis=-1)
    reach = g.copy()  # the part of g that a deviation can align with
    if mode == "planar":
        reach[..., 2] = 0.0
    norm = np.sqrt((reach * reach).sum(axis=-1))
    payoffs = baseline + (norm - (g * n).sum(axis=-1)).sum(axis=-1)

    aligned = norm > 0
    best_theta = np.where(
        aligned,
        np.arctan2(np.hypot(reach[..., 0], reach[..., 1]), reach[..., 2]),
        theta0 if mode == "full_sphere" else math.pi / 2,
    )
    best_phi = np.where(aligned, np.arctan2(reach[..., 1], reach[..., 0]), phi0)
    # improvement is payoff - baseline exactly, as floats, so that the
    # reported payoff and improvement agree.
    responses = tuple(
        PlayerBestResponse(
            player=p,
            improvement=payoff - base,
            payoff=payoff,
            deviation=MeasurementSetting(
                np.where(player == p, best_theta, theta0),
                np.where(player == p, best_phi, phi0),
            ),
        )
        for p, base, payoff in zip(PLAYERS, baseline.tolist(), payoffs.tolist())
    )
    return BestResponseVerdict(
        mode=mode, baseline=PayoffTriple(*baseline.tolist()), responses=responses
    )


@dataclass(frozen=True)
class QuantumAdvantageReport:
    classical_total_bound: Fraction  # exact max total over deterministic profiles
    classical_fair_cap: Fraction  # bound / 3: best fair classical payoff
    optimum: OptimumReport
    advantage: float  # quantum fair value minus the classical fair cap
    quantum_total: float
    beats_classical: bool


def quantum_advantage_report(
    game: GameDefinition, config: OptimizationConfig | None = None
) -> QuantumAdvantageReport:
    """Side-by-side of the classical fair cap and the quantum optimum."""
    bound = profile_table(game.utilities, game.prior).max_total()
    cap = bound / 3
    try:
        cap_float = float(cap)
    except OverflowError:
        raise ValidationError("utilities too large: the fair cap overflows") from None
    optimum = maximize_planar(game, config)
    quantum_total = float(sum(optimum.payoffs))
    return QuantumAdvantageReport(
        classical_total_bound=bound,
        classical_fair_cap=cap,
        optimum=optimum,
        advantage=optimum.value - cap_float,
        quantum_total=quantum_total,
        beats_classical=optimum.value > cap_float,
    )
