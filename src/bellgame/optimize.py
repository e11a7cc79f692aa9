"""Maximization of the quantum payoff over measurement angles, exact
best-response certification, and the classical-vs-quantum advantage
summary.

The objective landscape is smooth and low-dimensional (four free azimuths
once the gauge a0 = b0 = 0 is fixed), so a seeded coarse grid scan followed
by Nelder-Mead polish from the best starts finds the optimum reliably.  The
polish is in-house and works in those four dimensions only, on 4-tuples
and scalar locals: it follows the path of SciPy's Nelder-Mead with a stable
argsort exactly, float for float, without SciPy's per-iteration numpy
overhead or its import.  Tied vertices keep their order, as tied grid
points do (see _grid_starts), so the path is the same on every CPU.  A step
that replaces only the worst vertex puts the new one in place by bisection;
the whole simplex is sorted only after a shrink, when the evaluation budget
runs out, or while a value is NaN.  The contract is the value reached, not
the search path.

The seed only chooses the random starts, drawn with random.Random(seed):
four azimuths per start, each uniform in [-pi, pi], from the Mersenne
Twister, so a seed gives the same starts on every platform and on Python
3.10 and later.  random loads with the first search, so that ``check``, which
imports this module, does not load it.  Each game object keeps the runs
of its grid starts (see PlanarSearch).

Certification needs no search.  With the other two players' observables
fixed, a player's GHZ payoff is affine in the Bloch vectors of their own two
observables, so the best deviation is the unit vector along each gradient
and the improvement it buys is exact (see best_response_check).  The tests
hold it to the search it replaced, run with SciPy's Nelder-Mead.

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
from bisect import bisect_right
from fractions import Fraction
from math import sin
from typing import Callable, NamedTuple, Sequence

import numpy as np

from .game import (
    PLAYERS,
    PROFILES,
    Frozen,
    GameDefinition,
    PayoffTriple,
    Player,
    ValidationError,
)
from .quantum import MeasurementSetting, ghz_features, ghz_payoffs, wrap_angle

#: A candidate counts as a numerical equilibrium when no player can gain
#: more than this by a unilateral change of their own observables.
EQUILIBRIUM_IMPROVEMENT_TOL = 1e-6


class OptimizationConfig(Frozen):
    _fields = ("restarts", "seed")
    restarts: int
    seed: int

    def __init__(self, restarts: int = 12, seed: int = 0) -> None:
        if restarts < 1:
            raise ValidationError("restarts must be positive")
        if restarts > 10_000:
            raise ValidationError("restarts must be at most 10000")
        if seed < 0:
            raise ValidationError("seed must be non-negative")
        super().__init__(restarts, seed)


class OptimumReport(NamedTuple):
    setting: MeasurementSetting  # planar, in the canonical gauge a0 = b0 = 0
    value: float
    payoffs: PayoffTriple
    converged: bool


#: Points per free angle of the grid scan: it holds GRID**4 floats per
#: distinct player payoff.
GRID = 16
#: Iteration cap of one Nelder-Mead polish; it may evaluate the objective
#: four times as often.
NM_MAX_ITER = 2000
#: Simplex convergence tolerances on the vertices and on the values.
NM_XATOL = 1e-9
NM_FATOL = 1e-10


#: The four free azimuths (a1, b1, c0, c1) of a planar setting in the
#: canonical gauge: the point type of the polish.
Azimuths = tuple[float, float, float, float]


class _Exhausted(Exception):
    """The evaluation budget of a polish ran out."""


def _sort_simplex(
    fsim: list[float], sim: list[Azimuths]
) -> tuple[list[float], list[Azimuths]]:
    """The values and their vertices in ascending order of the values, NaN
    last, with tied values (zeros of either sign among them) and NaN values
    in the order they stand: the order of ``np.argsort(kind="stable")``.

    The order of tied vertices steers the rest of the path.  numpy's default
    argsort, which SciPy calls, is not stable and orders ties by CPU; this
    rule is one sorted() in pure Python, the same on every CPU.
    """
    order = sorted(range(len(fsim)), key=lambda i: (fsim[i] != fsim[i], fsim[i]))
    return [fsim[i] for i in order], [sim[i] for i in order]


def _nelder_mead(
    objective: Callable[[Azimuths], float],
    x0: Sequence[float],
) -> tuple[list[float], float, bool]:
    """Maximize ``objective`` over the four free azimuths from ``x0``;
    returns (x, value, converged).

    This is SciPy 1.17's ``minimize(lambda x: -objective(x), x0,
    method="Nelder-Mead")`` with xatol NM_XATOL, fatol NM_FATOL,
    maxiter NM_MAX_ITER and maxfev 4 * NM_MAX_ITER, run with
    ``np.argsort(kind="stable")`` in place of ``np.argsort``, in four
    dimensions on Python floats: the same initial simplex, the same steps
    with the coefficients rho = 1, chi = 2, psi = sigma = 1/2 substituted
    into SciPy's expressions, and the same vertex order, so every point and
    value is the same float as SciPy's on every CPU.  The value is that of
    the returned vertex, the first of the final simplex.  The simplex is
    two parallel lists, the values ``fsim`` and the vertices ``sim`` as
    4-tuples, kept in the order of _sort_simplex after every step.  Each
    step unpacks the vertices into scalar locals; the centroid is
    (b + p + q + s) / 4 per coordinate, summed left to right as SciPy's
    column sum does for these four rows.  A step that replaces only the
    worst vertex puts the new one in place by bisection, after the
    survivors it ties, while no survivor is NaN.  After a shrink, after
    the budget runs out, and while a survivor is NaN, _sort_simplex sorts
    the whole simplex.  ``objective`` gets each point as a 4-tuple.
    """
    max_fev = 4 * NM_MAX_ITER
    fatol, xatol = NM_FATOL, NM_XATOL

    start = [float(v) for v in x0]
    vertices = [tuple(start)]
    for k in range(4):
        y = list(start)
        y[k] = (1 + 0.05) * y[k] if y[k] != 0 else 0.00025
        vertices.append(tuple(y))
    # 5 evaluations, within budget
    fsim = [-objective(v) for v in vertices]
    nfev = 5
    # SciPy sorts twice here; a stable sort leaves a sorted simplex as it is.
    fsim, sim = _sort_simplex(fsim, vertices)

    nit = 1
    while nfev < max_fev and nit < NM_MAX_ITER:
        best, p, q, s, worst = sim
        b0, b1, b2, b3 = best
        w0, w1, w2, w3 = worst
        fbest, fworst = fsim[0], fsim[4]
        # The values are ascending with any NaN last, so fworst - fbest is
        # SciPy's max |fsim[0] - fsim[1:]|, NaN included.  The vertices are
        # tested worst first, the one most likely to be far from the best.
        # SciPy's break here skips its end-of-iteration sort; so does this
        # one.
        if fworst - fbest <= fatol:
            for v0, v1, v2, v3 in (worst, s, q, p):
                if not (
                    abs(v0 - b0) <= xatol and abs(v1 - b1) <= xatol
                    and abs(v2 - b2) <= xatol and abs(v3 - b3) <= xatol
                ):
                    break
            else:
                break
        p0, p1, p2, p3 = p
        q0, q1, q2, q3 = q
        s0, s1, s2, s3 = s
        c0 = (b0 + p0 + q0 + s0) / 4
        c1 = (b1 + p1 + q1 + s1) / 4
        c2 = (b2 + p2 + q2 + s2) / 4
        c3 = (b3 + p3 + q3 + s3) / 4
        shrink = False
        try:
            xr = (2 * c0 - w0, 2 * c1 - w1, 2 * c2 - w2, 2 * c3 - w3)
            # The loop runs while the budget lasts, so the reflection is
            # evaluated.  As SciPy's wrapper does, a later evaluation past
            # the budget raises instead, and the step ends there.
            nfev += 1
            fxr = -objective(xr)
            if fxr < fbest:
                xe = (
                    3 * c0 - 2 * w0, 3 * c1 - 2 * w1,
                    3 * c2 - 2 * w2, 3 * c3 - 2 * w3,
                )
                if nfev == max_fev:
                    raise _Exhausted
                nfev += 1
                fxe = -objective(xe)
                fsim[4], sim[4] = (fxe, xe) if fxe < fxr else (fxr, xr)
            elif fxr < fsim[3]:
                fsim[4], sim[4] = fxr, xr
            elif fxr < fworst:
                xc = (
                    1.5 * c0 - 0.5 * w0, 1.5 * c1 - 0.5 * w1,
                    1.5 * c2 - 0.5 * w2, 1.5 * c3 - 0.5 * w3,
                )
                if nfev == max_fev:
                    raise _Exhausted
                nfev += 1
                fxc = -objective(xc)
                if fxc <= fxr:
                    fsim[4], sim[4] = fxc, xc
                else:
                    shrink = True
            else:
                xcc = (
                    0.5 * c0 + 0.5 * w0, 0.5 * c1 + 0.5 * w1,
                    0.5 * c2 + 0.5 * w2, 0.5 * c3 + 0.5 * w3,
                )
                if nfev == max_fev:
                    raise _Exhausted
                nfev += 1
                fxcc = -objective(xcc)
                if fxcc < fworst:
                    fsim[4], sim[4] = fxcc, xcc
                else:
                    shrink = True
            if shrink:
                for j, (v0, v1, v2, v3) in enumerate((p, q, s, worst), 1):
                    # As in SciPy, a vertex whose evaluation exhausts the
                    # budget moves but keeps its old value.
                    sim[j] = x = (
                        b0 + 0.5 * (v0 - b0), b1 + 0.5 * (v1 - b1),
                        b2 + 0.5 * (v2 - b2), b3 + 0.5 * (v3 - b3),
                    )
                    if nfev == max_fev:
                        raise _Exhausted
                    nfev += 1
                    fsim[j] = -objective(x)
            nit += 1
        except _Exhausted:
            shrink = True  # a step cut short is sorted in full, as a shrink is
        if not shrink and fsim[3] == fsim[3]:
            # Only the worst vertex changed, and the survivors fsim[:4] are
            # in order; NaN sorts last, so none of them is NaN.  Nor is the
            # new value, since a NaN fails every comparison that accepts a
            # vertex.  A stable sort puts it after the survivors it ties.
            i = bisect_right(fsim, fsim[4], 0, 4)
            fsim.insert(i, fsim.pop())
            sim.insert(i, sim.pop())
        else:
            fsim, sim = _sort_simplex(fsim, sim)

    return list(sim[0]), -float(fsim[0]), nfev < max_fev and nit < NM_MAX_ITER


#: Runs whose values lie within this window of the best are treated as ties
#: and resolved by angle order.  The objective has reflection-symmetric
#: maxima of equal value; without the window the winning orbit would depend
#: on float noise between runs.
TIE_WINDOW = 1e-9


#: One polished start: (value, the wrapped angles, converged).
Run = tuple[float, Azimuths, bool]


def _polish(
    objective: Callable[[Azimuths], float], starts: Sequence[Sequence[float]]
) -> list[Run]:
    """The Nelder-Mead run from each start (four azimuths), in start order."""
    runs = []
    for x0 in starts:
        x, value, ok = _nelder_mead(objective, x0)
        runs.append((value, tuple(wrap_angle(v) for v in x), ok))
    return runs


def _best_run(runs: Sequence[Run]) -> Run:
    """The run of the best local maximum among the runs.

    Order-independent merge: highest value wins; runs within TIE_WINDOW of
    the best count as ties, broken by lexicographic order of the wrapped
    angle vector.
    """
    vmax = max(r[0] for r in runs)
    tied = [r for r in runs if r[0] >= vmax - TIE_WINDOW]
    return min(tied, key=lambda r: r[1])


def _planar_rows(weights: np.ndarray) -> list[tuple[float, ...]]:
    """The rows (const_i, *coef_i) of the players' planar payoffs (see
    maximize_planar) that their minimum needs.  The magnitude rule of
    quantum.ghz_weights keeps every constant, coefficient and planar payoff
    finite.

    Players whose coefficients agree by repr (so that the sign of a zero
    counts) form a group, as all three players of table1 and its relabelled
    copies do.  Player symmetry alone does not group them: a swap of two
    players carries one's coefficient vector to the other's with their
    type bits swapped, so the vectors agree only if that swap leaves them
    unchanged too, and a generic player-symmetric game keeps three rows.  A
    group keeps the row of its least constant, in the place of its first
    row.  The grid scan and the objective add the terms to the constant in
    a fixed order, and float addition is monotone, so the kept row is the
    least of its group at every point: the minimum is the same float, up to
    the sign of a zero (which ranks grid points alike).
    """
    const = weights[:, :, 0].sum(axis=1).tolist()
    coef = -weights[:, :, 4]
    groups: dict[str, list[tuple[float, ...]]] = {}
    for row in zip(const, *coef.T.tolist()):
        groups.setdefault(repr(row[1:]), []).append(row)
    return [min(group, key=lambda row: row[0]) for group in groups.values()]


def _grid_starts(
    rows: list[tuple[float, ...]], restarts: int
) -> list[tuple[float, float, float, float]]:
    """The ``restarts`` best points on the grid of the minimum over ``rows``
    (see _planar_rows) of the planar payoff.

    The grid has GRID points per free angle (a1, b1, c0, c1).  Each type
    profile's sine depends on at most three of the angles, so it is
    evaluated on a broadcast axis and added into the (len(rows), GRID**4)
    payoff array in place; no full mesh of the four angles is built.  A
    game whose players' coefficient vectors agree, such as table1, scans
    one row.
    """
    table = np.array(rows)
    const, coef = table[:, 0], table[:, 1:]
    m, g = len(table), GRID
    axis = np.linspace(-math.pi, math.pi, g, endpoint=False)
    a = (0.0, axis.reshape(g, 1, 1, 1))
    b = (0.0, axis.reshape(1, g, 1, 1))
    c = (axis.reshape(1, 1, g, 1), axis.reshape(1, 1, 1, g))
    values = np.empty((m, g, g, g, g))
    values[:] = const.reshape(m, 1, 1, 1, 1)
    for xi, (xa, xb, xc) in enumerate(PROFILES):
        values += coef[:, xi].reshape(m, 1, 1, 1, 1) * np.sin(a[xa] + b[xb] + c[xc])
    # The minimum over the rows goes into values[0] in place, where
    # values.min(axis=0) would allocate another array of one row's size.
    for row in values[1:]:
        np.minimum(values[0], row, out=values[0])
    # The objective's symmetric maxima tie on the grid.  Which tied points
    # become starts must not depend on the CPU, so the few points at or
    # above the k-th best value are put in order by a stable sort: best
    # first, and of tied points the last in grid order first.
    flat = values[0].ravel()
    k = min(restarts, flat.size)
    # The k-th best value is among the k best of each slice along a1, where
    # np.partition(flat) would copy the whole array.  Each slice's best are
    # copied out so that its partitioned copy is freed.
    size = flat.size // g
    j = min(k, size)
    tops = np.concatenate(
        [np.partition(part, size - j)[size - j:].copy() for part in flat.reshape(g, size)]
    )
    kth = np.partition(tops, tops.size - k)[tops.size - k]
    best = np.flatnonzero(flat >= kth)
    top = best[np.argsort(flat[best], kind="stable")[::-1][:k]]
    return list(zip(*(axis[i] for i in np.unravel_index(top, (g,) * 4))))


def _planar_objective(rows: list[tuple[float, ...]]) -> Callable[[Azimuths], float]:
    """The minimum over ``rows`` (see _planar_rows) of the planar payoff at
    four free azimuths (a1, b1, c0, c1).

    It uses math.sin on Python floats: Nelder-Mead makes thousands of scalar
    calls, and numpy's per-call overhead would dominate them.  The terms
    are added left to right, as sum() no longer does for floats from Python
    3.12 on, so the polish takes one path on every version.  A single row
    (players whose coefficient vectors agree, as in table1) is evaluated
    without a loop over rows.
    """
    if len(rows) == 1:
        ((k, r0, r1, r2, r3, r4, r5, r6, r7),) = rows

        def objective(x: Azimuths) -> float:
            a1, b1, c0, c1 = x
            ab = a1 + b1
            return k + (
                r0 * sin(c0) + r1 * sin(c1) + r2 * sin(b1 + c0) + r3 * sin(b1 + c1)
                + r4 * sin(a1 + c0) + r5 * sin(a1 + c1) + r6 * sin(ab + c0)
                + r7 * sin(ab + c1)
            )

        return objective

    def objective(x: Azimuths) -> float:
        a1, b1, c0, c1 = x
        ab = a1 + b1
        s0, s1, s2, s3 = sin(c0), sin(c1), sin(b1 + c0), sin(b1 + c1)
        s4, s5, s6, s7 = sin(a1 + c0), sin(a1 + c1), sin(ab + c0), sin(ab + c1)
        # The loop keeps the first least value, as min() does.
        value = None
        for k, r0, r1, r2, r3, r4, r5, r6, r7 in rows:
            v = k + (
                r0 * s0 + r1 * s1 + r2 * s2 + r3 * s3
                + r4 * s4 + r5 * s5 + r6 * s6 + r7 * s7
            )
            if value is None or v < value:
                value = v
        return value

    return objective


class PlanarSearch:
    """The part of maximize_planar on one game that the seed does not
    choose: the planar objective and the runs of the grid starts.

    The seed only chooses the random starts; the grid scan and the polishes
    of its best points depend on the game alone.  So each game object keeps
    one PlanarSearch (GameDefinition.planar_search), made on first use, and
    every later maximize_planar on that object reuses its runs, whatever
    the seed.  The grid starts of ``restarts`` are the first ``restarts``
    points of one order of the grid, by value and then by grid index (see
    _grid_starts).  So the runs kept for the largest ``restarts`` asked for
    so far serve every smaller number, and a larger one polishes only the
    points it adds; they are at most 10000, the largest ``restarts``
    allowed.  A seed sweep on one game object therefore polishes the grid
    once, and each call reports the same floats as on a fresh object.  The
    kept runs assume the module's search constants (GRID and the NM_*
    values) as they were when the runs were made.
    """

    def __init__(self, weights: np.ndarray) -> None:
        self.rows = _planar_rows(weights)
        self.objective = _planar_objective(self.rows)
        self._runs: list[Run] = []

    def grid_runs(self, restarts: int) -> list[Run]:
        """The runs of the ``restarts`` best grid points, best point first."""
        runs = self._runs
        if restarts > len(runs):
            starts = _grid_starts(self.rows, restarts)
            self._runs = runs = runs + _polish(self.objective, starts[len(runs):])
        return runs[:restarts]


def maximize_planar(
    game: GameDefinition, config: OptimizationConfig | None = None
) -> OptimumReport:
    """Maximize the minimum player payoff (the guaranteed value of a fair
    outcome) over planar GHZ settings in the canonical gauge.

    On the equator only the triple correlator survives, so each payoff is
    const_i + sum_x coef_i[x] sin(a(x_A) + b(x_B) + c(x_C)) with constants
    and coefficients read off the game's GHZ weights.  The top points of a
    grid scan and as many seeded random points start Nelder-Mead polishes;
    the random points take four draws each of
    random.Random(config.seed).uniform(-pi, pi), in order.  More restarts
    can only improve the reported value (up to the tie window).
    The runs of the grid starts are kept on the game object (see
    PlanarSearch).
    """
    import random  # loads with the first search

    config = config or OptimizationConfig()
    search = game.planar_search
    uniform = random.Random(config.seed).uniform
    random_starts = [
        [uniform(-math.pi, math.pi) for _ in range(4)] for _ in range(config.restarts)
    ]
    runs = search.grid_runs(config.restarts) + _polish(search.objective, random_starts)
    _, angles, ok = _best_run(runs)
    a1, b1, c0, c1 = angles
    setting = MeasurementSetting.planar([0.0, a1, 0.0, b1, c0, c1])
    payoffs = ghz_payoffs(game.ghz_weights, setting.ghz_features)
    return OptimumReport(
        setting=setting,
        value=search.objective(angles),
        payoffs=PayoffTriple(*payoffs.tolist()),
        converged=ok,
    )


class PlayerBestResponse(NamedTuple):
    player: Player
    improvement: float  # payoff - baseline, exact (see best_response_check)
    payoff: float  # own payoff at the best deviation
    deviation: MeasurementSetting  # the candidate with this player's best observables


class BestResponseVerdict(NamedTuple):
    mode: str  # "planar" | "full_sphere"
    baseline: PayoffTriple
    responses: tuple[PlayerBestResponse, PlayerBestResponse, PlayerBestResponse]

    @property
    def max_improvement(self) -> float:
        return max(r.improvement for r in self.responses)

    @property
    def is_equilibrium(self) -> bool:
        return self.max_improvement < EQUILIBRIUM_IMPROVEMENT_TOL


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
    weights = game.ghz_weights
    theta0, phi0 = candidate.theta, candidate.phi
    baseline = ghz_payoffs(weights, candidate.ghz_features)

    # Axes: deviating player, their type bit, probe, then the setting's own
    # (player, type bit) axes.
    shape = (3, 2, 4, 3, 2)
    theta = np.broadcast_to(theta0, shape).copy()
    phi = np.broadcast_to(phi0, shape).copy()
    player, bit = np.arange(3)[:, None], np.arange(2)[None, :]
    theta[player, bit, :, player, bit] = _PROBE_THETA
    phi[player, bit, :, player, bit] = _PROBE_PHI
    own = ghz_payoffs(weights, ghz_features(theta, phi))[player, bit, :, player]
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


class QuantumAdvantageReport(NamedTuple):
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
    bound = game.profile_table.max_total()
    cap = bound / 3
    # The search derives the GHZ weights, whose magnitude rule also keeps
    # the fair cap within the float range.
    optimum = maximize_planar(game, config)
    cap_float = float(cap)
    return QuantumAdvantageReport(
        classical_total_bound=bound,
        classical_fair_cap=cap,
        optimum=optimum,
        advantage=optimum.value - cap_float,
        quantum_total=optimum.payoffs.total(),
        beats_classical=optimum.value > cap_float,
    )
