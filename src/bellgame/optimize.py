"""Derivative-free maximization of the quantum payoff over measurement
angles, with gauge fixing, best-response certification and the
classical-vs-quantum advantage summary.

The objective landscape is smooth and low-dimensional (four free azimuths
once the gauge a0 = b0 = 0 is fixed), so a seeded coarse grid scan followed
by Nelder-Mead polish from the best starts finds the optimum reliably.  The
polish is in-house: it follows SciPy's Nelder-Mead path exactly, float for
float, without SciPy's per-iteration numpy overhead or its import.  The
contract is the value reached, not the search path.  Every game takes the
same path: the search, the best-response check and the reported payoffs
and Bell values all come from the GHZ engine (quantum.ghz_weights,
ghz_payoffs and ghz_bell).  The trace rule is not used here; tests hold the
engine to it.
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

from .builtin import builtin_game
from .classical import BellVariant, profile_table
from .game import (
    PLAYERS,
    PROFILES,
    GameDefinition,
    PayoffTriple,
    Player,
    ValidationError,
)
from .quantum import (
    BlochObservable,
    MeasurementSetting,
    PlanarAngles,
    ghz_bell,
    ghz_payoffs,
    ghz_weights,
    wrap_angle,
)

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
        if not (math.isfinite(self.tol) and self.tol > 0):
            raise ValidationError("convergence tolerance must be finite and positive")
        if self.restarts < 1:
            raise ValidationError("restarts must be positive")
        if self.seed < 0:
            raise ValidationError("seed must be non-negative")


@dataclass(frozen=True)
class OptimumReport:
    angles: PlanarAngles  # canonical gauge: a0 = b0 = 0
    value: float
    payoffs: PayoffTriple
    bell_values: tuple[float, float]  # (V011, V100) at the optimum
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
    top = np.argsort(values.min(axis=0).ravel())[::-1][: config.restarts]
    return list(zip(*(axis[i] for i in np.unravel_index(top, (g,) * 4))))


def maximize_planar(
    config: OptimizationConfig | None = None,
    game: GameDefinition | None = None,
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
    game = game or builtin_game()
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
    canonical = PlanarAngles(
        0.0, wrap_angle(x[0]), 0.0, wrap_angle(x[1]),
        wrap_angle(x[2]), wrap_angle(x[3]),
    )
    value = objective([canonical.a1, canonical.b1, canonical.c0, canonical.c1])
    theta, phi = MeasurementSetting.planar(canonical).bloch_angles()
    return OptimumReport(
        angles=canonical,
        value=value,
        payoffs=PayoffTriple(*ghz_payoffs(weights, theta, phi).tolist()),
        bell_values=(
            float(ghz_bell(theta, phi, BellVariant.V011)),
            float(ghz_bell(theta, phi, BellVariant.V100)),
        ),
        converged=ok,
    )


@dataclass(frozen=True)
class PlayerBestResponse:
    player: Player
    improvement: float  # best own-payoff gain found (may be <= 0)
    payoff: float  # own payoff at the best deviation found
    observables: tuple[BlochObservable, BlochObservable]


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


def _deviation_observables(mode: str, x: Sequence[float]) -> tuple[BlochObservable, BlochObservable]:
    if mode == "planar":
        half = math.pi / 2
        return (BlochObservable(half, x[0]), BlochObservable(half, x[1]))
    return (BlochObservable(x[0], x[1]), BlochObservable(x[2], x[3]))


def best_response_check(
    candidate: MeasurementSetting,
    mode: str = "planar",
    config: OptimizationConfig | None = None,
    game: GameDefinition | None = None,
) -> BestResponseVerdict:
    """Search each player's unilateral deviations for a payoff improvement
    under GHZ advice.

    Planar mode deviates within the equatorial family (two azimuths per
    player); full-sphere mode frees the polar angles as well, probing
    whether the equatorial restriction hides profitable deviations.  The
    improvement is relative to the candidate's own payoff; the candidate's
    own observables seed the search, so the reported maximum is never
    materially negative.  The whole deviation grid is scored in one
    ghz_payoffs call, and the same engine gives the baseline and the polish.
    """
    if mode not in ("planar", "full_sphere"):
        raise ValidationError(f"unknown best-response mode {mode!r}")
    config = config or OptimizationConfig()
    game = game or builtin_game()
    weights = ghz_weights(game.utilities, game.prior)
    theta0, phi0 = candidate.bloch_angles()
    baseline = PayoffTriple(*ghz_payoffs(weights, theta0, phi0).tolist())

    rng = np.random.default_rng(config.seed)
    dim = 2 if mode == "planar" else 4
    responses = []
    for player in PLAYERS:
        def payoff(x: np.ndarray, player: Player = player) -> np.ndarray:
            """Own payoff after deviating to x, for x of shape (..., dim)."""
            shape = x.shape[:-1] + (3, 2)
            theta = np.broadcast_to(theta0, shape).copy()
            phi = np.broadcast_to(phi0, shape).copy()
            if mode == "planar":
                theta[..., player, :] = math.pi / 2
                phi[..., player, :] = x
            else:
                theta[..., player, :] = x[..., 0::2]
                phi[..., player, :] = x[..., 1::2]
            return ghz_payoffs(weights, theta, phi)[..., player]

        if mode == "planar":
            own_x = phi0[player].tolist()
            res = config.grid
        else:
            own_x = [theta0[player, 0], phi0[player, 0], theta0[player, 1], phi0[player, 1]]
            res = min(config.grid, 6)  # keep the 4-D scan affordable
        axes = [np.linspace(-math.pi, math.pi, res, endpoint=False)] * dim
        if mode == "full_sphere":
            axes[0] = axes[2] = np.linspace(0, math.pi, res)
        mesh = np.stack([m.ravel() for m in np.meshgrid(*axes, indexing="ij")], axis=1)
        scores = payoff(mesh)
        top = np.argsort(scores)[::-1][:3]
        starts = [own_x] + [mesh[i] for i in top] + list(
            rng.uniform(-math.pi, math.pi, size=(min(config.restarts, 8), dim))
        )
        x, value, _ = _multistart_max(
            lambda x: float(payoff(np.array(x))), starts, config
        )
        responses.append(
            PlayerBestResponse(
                player=player,
                improvement=value - baseline[player],
                payoff=value,
                observables=_deviation_observables(mode, x),
            )
        )
    return BestResponseVerdict(mode=mode, baseline=baseline, responses=tuple(responses))


@dataclass(frozen=True)
class QuantumAdvantageReport:
    classical_total_bound: Fraction  # exact max total over deterministic profiles
    classical_fair_cap: Fraction  # bound / 3: best fair classical payoff
    optimum: OptimumReport
    advantage: float  # quantum fair value minus the classical fair cap
    quantum_total: float
    beats_classical: bool


def quantum_advantage_report(
    game: GameDefinition | None = None,
    config: OptimizationConfig | None = None,
) -> QuantumAdvantageReport:
    """Side-by-side of the classical fair cap and the quantum optimum."""
    game = game or builtin_game()
    bound = profile_table(game.utilities, game.prior).max_total()
    cap = bound / 3
    optimum = maximize_planar(config, game)
    quantum_total = float(sum(optimum.payoffs))
    return QuantumAdvantageReport(
        classical_total_bound=bound,
        classical_fair_cap=cap,
        optimum=optimum,
        advantage=optimum.value - float(cap),
        quantum_total=quantum_total,
        beats_classical=optimum.value > float(cap),
    )
