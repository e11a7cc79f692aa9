"""Maximization of the quantum payoff over measurement angles, exact
best-response certification, and the classical-vs-quantum advantage
summary.

The objective landscape is smooth and low-dimensional (four free azimuths
once the gauge a0 = b0 = 0 is fixed), so a seeded coarse grid scan followed
by Nelder-Mead polish from the best starts finds the basin of the optimum
reliably.  The polish is loose (NM_XATOL, NM_FATOL): it only chooses the
basin.  Newton's method on the KKT system of the least payoff then finds
each distinct maximum among the best runs (see _newton and
PlanarSearch.best), from closed-form gradients and Hessians, and the
reported angles are the maximum's own: the same on every seed that finds
its basin.  A maximum that fails the KKT test is polished again at the
tight tolerances instead.

The search runs in one unit per game, its scale (see _scale): a power of
two that each planar row is divided by once, exactly, as it comes in (see
PlanarSearch).  The grid, the polishes, the Newton finish and the tie-break
all compare values of the divided rows with plain constants, so no stop
rule and no choice among runs depends on the utility unit.  The scale is
applied again only on the way out, to the reported value, and the product
is exact.  The equilibrium threshold of best_response_check takes its own
power-of-two unit in the same way, over every weight the certificate
reads.  So a game whose utilities are 2**k times another's gets the same
angles, exactly 2**k times its value and threshold, and the same verdicts.

The polish is in-house and works in four dimensions only, on 4-tuples and
scalar locals: it follows the path of SciPy's Nelder-Mead with a stable
argsort exactly, float for float, at either tolerance pair, without SciPy's
per-iteration numpy overhead or its import.  Its first simplex has an edge
of NM_STEP radians along each azimuth, SciPy's ``initial_simplex`` in the
contract.  That contract covers the polish only, not the Newton finish.
It holds on objectives that never return NaN, and the planar objective
never does (see _planar_rows).  Tied vertices keep their order, as tied
grid points do (see _grid_starts), so the path is the same on every CPU;
the Newton finish runs in pure Python in a fixed order, and is too.  A step
that replaces only the worst vertex puts the new one in place by
bisection; the whole simplex is sorted only after a shrink.  A polish has
one budget, NM_MAX_FEV evaluations, read at the top of each step, and
every step runs to its end.

The seed only chooses the random starts, drawn with random.Random(seed):
four azimuths per start, each uniform in [-pi, pi], from the Mersenne
Twister, so a seed gives the same starts on every platform and on Python
3.10 and later.  random loads with the first search, so that ``check``, which
imports this module, does not load it.  Each game object keeps the runs
of its grid starts (see PlanarSearch).

Certification needs no search.  With the other two players' observables
fixed, a player's GHZ payoff is affine in the Bloch vectors of their own two
observables, with gradients read off the game's GHZ weights in closed form,
so the best deviation is the unit vector along each gradient and the
improvement it buys is exact (see best_response_check).  The tests hold it
to the search it replaced, run with SciPy's Nelder-Mead.

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
from math import cos, sin
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
from .quantum import MeasurementSetting, ghz_payoffs, wrap_angle

#: A candidate counts as a numerical equilibrium when no player can gain
#: this many units (see best_response_check) by a unilateral change of
#: their own observables.
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
#: The evaluation budget of one Nelder-Mead polish: no step starts once it
#: is spent (see _nelder_mead).
NM_MAX_FEV = 8000
#: The edge of the polish's first simplex, in radians: the start and the
#: start with NM_STEP added to one azimuth, for each azimuth in turn.  The
#: objective is 2 pi-periodic in every angle, so one fixed step suits every
#: start.  SciPy's default, 5% of each azimuth and 0.00025 at zero, gives a
#: grid start on zero a simplex hundreds of times narrower along that angle,
#: and the polish spends its first steps widening it.
NM_STEP = 0.3
#: Simplex convergence tolerances of the polish of every start, on the
#: vertices (in radians) and on the values (in units of the game's scale,
#: as every value tolerance here is, see _scale).  The polish only has to
#: reach the basin of a maximum; the Newton finish (see _newton) finds the
#: maximum itself.
NM_XATOL = 3e-3
NM_FATOL = 1e-4
#: The tolerances of the polish that replaces a failed Newton finish (see
#: PlanarSearch.refine), in the same units.
FALLBACK_XATOL = 1e-9
FALLBACK_FATOL = 1e-10
#: Rows within this of the least row are active in the Newton finish, and
#: runs within it of the best run are refined.
ACTIVE_WINDOW = 1e-3
#: Runs whose wrapped angles all lie within this of a run already refined
#: are taken to reach the same maximum, and are not refined again.
SAME_POINT = 1e-2
#: The largest KKT residual of a converged Newton finish.
KKT_TOL = 1e-12
#: Iteration cap of one Newton finish.
NEWTON_MAX_ITER = 30


#: The four free azimuths (a1, b1, c0, c1) of a planar setting in the
#: canonical gauge: the point type of the polish.
Azimuths = tuple[float, float, float, float]


def _sort_simplex(
    fsim: list[float], sim: list[Azimuths]
) -> tuple[list[float], list[Azimuths]]:
    """The values and their vertices in ascending order of the values, with
    tied values (zeros of either sign among them) in the order they stand:
    the order of ``np.argsort(kind="stable")`` on values that are not NaN.

    The order of tied vertices steers the rest of the path.  numpy's default
    argsort, which SciPy calls, is not stable and orders ties by CPU; this
    rule is one sorted() in pure Python, the same on every CPU.
    """
    order = sorted(range(len(fsim)), key=fsim.__getitem__)
    return [fsim[i] for i in order], [sim[i] for i in order]


def _nelder_mead(
    objective: Callable[[Azimuths], float],
    x0: Sequence[float],
    xatol: float,
    fatol: float,
) -> tuple[list[float], float, bool]:
    """Maximize ``objective`` over the four free azimuths from ``x0``;
    returns (x, value, converged), converged if the tolerance test stopped
    the run.

    The budget is read once per step: a step starts while fewer than
    NM_MAX_FEV evaluations have been made, and runs to its end, so a run
    makes fewer than NM_MAX_FEV + 6 of them (a shrink step makes six).
    That is SciPy 1.17's ``minimize(lambda x: -objective(x), x0,
    method="Nelder-Mead")`` with the given xatol and fatol, maxiter inf,
    maxfev the larger of NM_MAX_FEV and the evaluations the run made, and
    an ``initial_simplex`` of x0 and, for k = 0..3, x0 with NM_STEP added
    to coordinate k, run with ``np.argsort(kind="stable")`` in place of
    ``np.argsort``, in four dimensions on Python floats: that initial
    simplex, the same steps with the coefficients rho = 1, chi = 2, psi =
    sigma = 1/2 substituted into SciPy's expressions, and the same vertex
    order, so every point and value is the same float as SciPy's on every
    CPU, on objectives that never return NaN.  The value is that of the
    returned vertex, the first of the final simplex.  The simplex is two
    parallel lists, the values ``fsim`` and the vertices ``sim`` as
    4-tuples, kept in the order of _sort_simplex after every step.  Each
    step unpacks the vertices into scalar locals; the centroid is (b + p +
    q + s) / 4 per coordinate, summed left to right as SciPy's column sum
    does for these four rows.  A step that replaces only the worst vertex
    puts the new one in place by bisection, after the survivors it ties;
    after a shrink, _sort_simplex sorts the whole simplex.  ``objective``
    gets each point as a 4-tuple.
    """
    start = [float(v) for v in x0]
    vertices = [tuple(start)]
    for k in range(4):
        y = list(start)
        y[k] += NM_STEP
        vertices.append(tuple(y))
    fsim = [-objective(v) for v in vertices]
    nfev = 5
    # SciPy sorts twice here; a stable sort leaves a sorted simplex as it is.
    fsim, sim = _sort_simplex(fsim, vertices)

    while nfev < NM_MAX_FEV:
        best, p, q, s, worst = sim
        b0, b1, b2, b3 = best
        w0, w1, w2, w3 = worst
        fbest, fworst = fsim[0], fsim[4]
        # The values are ascending, so fworst - fbest is SciPy's
        # max |fsim[0] - fsim[1:]|.  The vertices are tested worst first,
        # the one most likely to be far from the best.
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
        xr = (2 * c0 - w0, 2 * c1 - w1, 2 * c2 - w2, 2 * c3 - w3)
        fxr = -objective(xr)
        nfev += 1
        if fxr < fbest:
            xe = (
                3 * c0 - 2 * w0, 3 * c1 - 2 * w1,
                3 * c2 - 2 * w2, 3 * c3 - 2 * w3,
            )
            fxe = -objective(xe)
            nfev += 1
            fsim[4], sim[4] = (fxe, xe) if fxe < fxr else (fxr, xr)
        elif fxr < fsim[3]:
            fsim[4], sim[4] = fxr, xr
        elif fxr < fworst:
            xc = (
                1.5 * c0 - 0.5 * w0, 1.5 * c1 - 0.5 * w1,
                1.5 * c2 - 0.5 * w2, 1.5 * c3 - 0.5 * w3,
            )
            fxc = -objective(xc)
            nfev += 1
            if fxc <= fxr:
                fsim[4], sim[4] = fxc, xc
            else:
                shrink = True
        else:
            xcc = (
                0.5 * c0 + 0.5 * w0, 0.5 * c1 + 0.5 * w1,
                0.5 * c2 + 0.5 * w2, 0.5 * c3 + 0.5 * w3,
            )
            fxcc = -objective(xcc)
            nfev += 1
            if fxcc < fworst:
                fsim[4], sim[4] = fxcc, xcc
            else:
                shrink = True
        if shrink:
            for j, (v0, v1, v2, v3) in enumerate((p, q, s, worst), 1):
                sim[j] = x = (
                    b0 + 0.5 * (v0 - b0), b1 + 0.5 * (v1 - b1),
                    b2 + 0.5 * (v2 - b2), b3 + 0.5 * (v3 - b3),
                )
                fsim[j] = -objective(x)
            nfev += 4
            fsim, sim = _sort_simplex(fsim, sim)
        else:
            # Only the worst vertex changed, and the survivors fsim[:4] are
            # in order.  A stable sort puts it after the survivors it ties.
            i = bisect_right(fsim, fsim[4], 0, 4)
            fsim.insert(i, fsim.pop())
            sim.insert(i, sim.pop())

    return list(sim[0]), -float(fsim[0]), nfev < NM_MAX_FEV


#: Refined runs whose values lie within this window of the best are treated
#: as ties and resolved by angle order (see PlanarSearch.best).  The
#: objective has reflection-symmetric maxima of equal value; without the
#: window the winning orbit would depend on float noise between runs.
TIE_WINDOW = 1e-9


#: One polished start: (value, the wrapped angles, converged).
Run = tuple[float, Azimuths, bool]


def _polish(
    objective: Callable[[Azimuths], float],
    starts: Sequence[Sequence[float]],
    xatol: float,
    fatol: float,
) -> list[Run]:
    """The Nelder-Mead run from each start (four azimuths), in start order."""
    runs = []
    for x0 in starts:
        x, value, ok = _nelder_mead(objective, x0, xatol, fatol)
        runs.append((value, tuple(wrap_angle(v) for v in x), ok))
    return runs


def _scale(rows: list[tuple[float, ...]]) -> float:
    """The unit of a game's planar values: 2**k, with k the binary exponent
    (as math.frexp gives it) of the largest magnitude among the constants
    and coefficients of ``rows``, so that each of them is below it; 1.0 if
    all of them are zero.  Being a power of two, it divides every row
    exactly (down to entries 2**1021 times smaller than the largest), and
    the divided rows, every sum of their terms and every difference of
    those sums are the undivided ones divided by it: the search on the
    divided rows takes the same path in every unit."""
    largest = max(abs(v) for row in rows for v in row)
    return math.ldexp(1.0, math.frexp(largest)[1]) if largest else 1.0


#: A row's value, gradient over (a1, b1, c0, c1) and Hessian at one point.
Derivatives = tuple[float, list[float], list[list[float]]]


def _derivatives(rows: list[tuple[float, ...]], x: Azimuths) -> list[Derivatives]:
    """Each row's value, gradient and Hessian at ``x``, in closed form.

    A row is k + sum_j r_j sin(m_j . x), where m_j holds the type bits
    (x_A, x_B, 1 - x_C, x_C) of profile j, as in _planar_objective, whose
    summation order the value keeps.  So the gradient is sum_j r_j
    cos(m_j . x) m_j and the Hessian -sum_j r_j sin(m_j . x) m_j m_j^T: each
    entry adds the terms of the profiles that hold both angles, in profile
    order.  c0 and c1 never meet in a profile, and their entry is 0.
    """
    a1, b1, c0, c1 = x
    ab = a1 + b1
    phases = (c0, c1, b1 + c0, b1 + c1, a1 + c0, a1 + c1, ab + c0, ab + c1)
    s0, s1, s2, s3, s4, s5, s6, s7 = map(sin, phases)
    cosines = [cos(v) for v in phases]
    out = []
    for k, *r in rows:
        r0, r1, r2, r3, r4, r5, r6, r7 = r
        value = k + (
            r0 * s0 + r1 * s1 + r2 * s2 + r3 * s3
            + r4 * s4 + r5 * s5 + r6 * s6 + r7 * s7
        )
        w0, w1, w2, w3, w4, w5, w6, w7 = (ri * ci for ri, ci in zip(r, cosines))
        h0, h1, h2, h3, h4, h5, h6, h7 = (
            -r0 * s0, -r1 * s1, -r2 * s2, -r3 * s3,
            -r4 * s4, -r5 * s5, -r6 * s6, -r7 * s7,
        )
        h_ab, h_ac0, h_ac1 = h6 + h7, h4 + h6, h5 + h7
        h_bc0, h_bc1 = h2 + h6, h3 + h7
        out.append((
            value,
            [w4 + w5 + w6 + w7, w2 + w3 + w6 + w7, w0 + w2 + w4 + w6, w1 + w3 + w5 + w7],
            [
                [h4 + h5 + h6 + h7, h_ab, h_ac0, h_ac1],
                [h_ab, h2 + h3 + h6 + h7, h_bc0, h_bc1],
                [h_ac0, h_bc0, h0 + h2 + h4 + h6, 0.0],
                [h_ac1, h_bc1, 0.0, h1 + h3 + h5 + h7],
            ],
        ))
    return out


def _dot(u: Sequence[float], v: Sequence[float]) -> float:
    """u . v, added left to right (sum() is compensated from Python 3.12 on)."""
    total = 0.0
    for a, b in zip(u, v):
        total += a * b
    return total


def _solve(matrix: list[list[float]], rhs: list[float]) -> list[float] | None:
    """The solution of matrix @ x = rhs by Gaussian elimination with partial
    pivoting (the first row of largest magnitude), in a fixed order on
    Python floats, so that it is the same on every CPU; None if a pivot is
    zero."""
    n = len(rhs)
    a = [list(row) + [b] for row, b in zip(matrix, rhs)]
    for k in range(n):
        p = max(range(k, n), key=lambda i: abs(a[i][k]))
        if a[p][k] == 0:
            return None
        a[k], a[p] = a[p], a[k]
        pivot = a[k]
        for row in a[k + 1:]:
            f = row[k] / pivot[k]
            for j in range(k, n + 1):
                row[j] -= f * pivot[j]
    x = [0.0] * n
    for i in reversed(range(n)):
        x[i] = (a[i][n] - _dot(a[i][i + 1:n], x[i + 1:])) / a[i][i]
    return x


def _negative_definite_on(hessian: list[list[float]], normals: list[list[float]]) -> bool:
    """Whether ``hessian`` is negative definite on the vectors orthogonal to
    every normal, by a margin of KKT_TOL.

    Modified Gram-Schmidt runs over the normals, then over the unit vectors,
    taking at each step the one with the largest part left; the unit
    vectors taken span the tangent space, Z.  Gaussian elimination without
    pivoting of Z^T hessian Z must meet only pivots below -KKT_TOL.  False
    if the normals are linearly dependent.
    """
    basis: list[list[float]] = []

    def remainder(v: Sequence[float]) -> list[float]:
        v = list(v)
        for q in basis:
            d = _dot(v, q)
            v = [a - d * b for a, b in zip(v, q)]
        return v

    def take(v: list[float]) -> list[float]:
        norm = math.sqrt(_dot(v, v))
        basis.append([a / norm for a in v])
        return basis[-1]

    for normal in normals:
        v = remainder(normal)
        if not _dot(v, v) > 0:
            return False
        take(v)
    units = [[float(i == j) for j in range(4)] for i in range(4)]
    tangent = []
    while len(basis) < 4:
        tangent.append(take(max(map(remainder, units), key=lambda v: _dot(v, v))))
    reduced = [
        [_dot(z, [_dot(row, w) for row in hessian]) for w in tangent] for z in tangent
    ]
    for k, pivot in enumerate(reduced):
        if not pivot[k] < -KKT_TOL:
            return False
        for row in reduced[k + 1:]:
            f = row[k] / pivot[k]
            for j in range(k, len(row)):
                row[j] -= f * pivot[j]
    return True


def _newton(rows: list[tuple[float, ...]], x0: Azimuths) -> Azimuths | None:
    """The local maximum near ``x0`` of the least of ``rows`` (a game's
    rows in its unit, see PlanarSearch), by Newton's method on the KKT
    system of max t s.t. f_i(x) >= t; None if it finds none.

    The rows within ACTIVE_WINDOW of the least at ``x0`` are active.  With
    multipliers l = (1 - sum_j mu_j, mu_1, ...) over the active rows, the
    system is sum_i l_i grad f_i = 0 and f_j - f_0 = 0 (j >= 1): 4 to 6
    unknowns (x, mu), and plain Newton on grad f = 0 for one row.  Each step
    solves [H N^T; N 0] (dx, mu) = -(grad f_0, f_j - f_0), with H = sum_i l_i
    Hess f_i and the rows of N the grad f_j - grad f_0 (see _derivatives and
    _solve).  Steps run from l_i = 1/m while the residual, the largest
    |component| of the system, falls, at most NEWTON_MAX_ITER of them.  A
    step that gives a row a negative multiplier ends the run: the row of
    the least multiplier leaves the active set, and the system is solved
    again from ``x0``.  Of the points whose residual is at most KKT_TOL,
    which differ only by rounding, the one of the greatest t (the least
    active row; the first of ties) is kept; its multipliers are at least 0.

    The kept point passes the KKT test when no inactive row lies more than
    KKT_TOL below t, and H is negative definite on the tangent space of the
    active rows, the vectors orthogonal to every row of N (see
    _negative_definite_on).
    """
    values = [v for v, _, _ in _derivatives(rows, x0)]
    active = [row for row, v in zip(rows, values) if v <= min(values) + ACTIVE_WINDOW]
    while True:
        m = len(active)
        x, weights = x0, [1 / m] * m
        points = []  # (t, residual, x, H, N) of each point
        for _ in range(NEWTON_MAX_ITER):
            derived = _derivatives(active, x)
            (v0, g0, _), others = derived[0], derived[1:]
            grad, hessian = [0.0] * 4, [[0.0] * 4 for _ in range(4)]
            for w, (_, g, h) in zip(weights, derived):
                for i in range(4):
                    grad[i] += w * g[i]
                    hessian_i, h_i = hessian[i], h[i]
                    for j in range(4):
                        hessian_i[j] += w * h_i[j]
            gaps = [v - v0 for v, _, _ in others]
            residual = max(abs(e) for e in grad + gaps)
            normals = [[a - b for a, b in zip(g, g0)] for _, g, _ in others]
            t = min(v for v, _, _ in derived)
            points.append((t, residual, x, hessian, normals))
            if len(points) > 1 and not residual < points[-2][1]:
                break
            step = _solve(
                [hessian[i] + [n[i] for n in normals] for i in range(4)]
                + [n + [0.0] * (m - 1) for n in normals],
                [-v for v in g0] + [-e for e in gaps],
            )
            if step is None:
                break
            x = (x[0] + step[0], x[1] + step[1], x[2] + step[2], x[3] + step[3])
            first = 1.0
            for mu in step[4:]:
                first -= mu
            weights = [first, *step[4:]]
            if min(weights) < 0:
                break
        if min(weights) >= 0:
            break
        del active[weights.index(min(weights))]
    converged = [point for point in points if point[1] <= KKT_TOL]
    if not converged:
        return None
    t, _, x, hessian, normals = max(converged, key=lambda point: point[0])
    if m < len(rows) and min(v for v, _, _ in _derivatives(rows, x)) < t - KKT_TOL:
        return None
    return x if _negative_definite_on(hessian, normals) else None


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


def _same_point(x: Azimuths, y: Azimuths) -> bool:
    """Whether each angle of x lies within SAME_POINT of y's, modulo 2 pi."""
    return max(abs(wrap_angle(u - v)) for u, v in zip(x, y)) <= SAME_POINT


class PlanarSearch:
    """The part of maximize_planar on one game that the seed does not
    choose: the game's unit, the planar rows and objective in it, the
    equilibrium threshold of best_response_check, and the runs of the grid
    starts.

    The unit is the scale of the planar rows (see _scale), and ``rows`` are
    _planar_rows divided by it, exactly, once.  The grid scan, the objective,
    both polishes, the Newton finish and the tie-break (see best) all run on
    them with the module's constants as they stand, so every value in a run
    is in the game's unit; maximize_planar multiplies the reported value by
    ``scale``.  ``threshold`` is best_response_check's, in the unit of the
    planar rows and the pair weights, which the certificate reads as well:
    a game whose planar rows vanish has the scale 1 at any size of its pair
    weights.

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
    kept runs are those of the polish, before the Newton finish, and assume
    the module's search constants (GRID, the budget NM_MAX_FEV and the NM_*
    tolerances) as they were when the runs were made.
    """

    def __init__(self, weights: np.ndarray) -> None:
        rows = _planar_rows(weights)
        self.scale = _scale(rows)
        # exact: the scale is a power of two
        self.rows = [tuple(v / self.scale for v in row) for row in rows]
        self.objective = _planar_objective(self.rows)
        pairs = weights[:, :, 1:4].ravel().tolist()
        self.threshold = EQUILIBRIUM_IMPROVEMENT_TOL * _scale([*rows, pairs])
        self._runs: list[Run] = []

    def polish(self, starts: Sequence[Sequence[float]]) -> list[Run]:
        """The loose polish of each start: NM_XATOL and NM_FATOL."""
        return _polish(self.objective, starts, NM_XATOL, NM_FATOL)

    def grid_runs(self, restarts: int) -> list[Run]:
        """The runs of the ``restarts`` best grid points, best point first."""
        runs = self._runs
        if restarts > len(runs):
            starts = _grid_starts(self.rows, restarts)
            self._runs = runs = runs + self.polish(starts[len(runs):])
        return runs[:restarts]

    def refine(self, run: Run) -> Run:
        """The run's maximum by the Newton finish (see _newton), converged.
        If that fails the KKT test, or lowers the value, the run's vertex is
        polished again at FALLBACK_XATOL and FALLBACK_FATOL, and that polish
        gives the run."""
        value, angles, _ = run
        x = _newton(self.rows, angles)
        if x is not None:
            wrapped = tuple(wrap_angle(v) for v in x)
            refined = self.objective(wrapped)
            if refined >= value:
                return refined, wrapped, True
        return _polish(self.objective, [angles], FALLBACK_XATOL, FALLBACK_FATOL)[0]

    def best(self, runs: Sequence[Run]) -> Run:
        """The refined run of the best maximum among the runs.

        Each distinct maximum among the runs within ACTIVE_WINDOW of the
        best is refined once.  The runs are taken best value first, ties in
        the order of their wrapped angles; a run whose angles all lie
        within SAME_POINT of a run already refined is skipped.  Of the
        refined runs the highest value wins, and those within TIE_WINDOW of
        it count as ties, broken by lexicographic order of the wrapped
        angles: the choice does not depend on the order of the runs."""
        floor = max(r[0] for r in runs) - ACTIVE_WINDOW
        refined: list[Run] = []
        points: list[Azimuths] = []
        for run in sorted((r for r in runs if r[0] >= floor), key=lambda r: (-r[0], r[1])):
            if not any(_same_point(run[1], point) for point in points):
                points.append(run[1])
                refined.append(self.refine(run))
        # Points whose refinements meet, as fallback polishes may, count once,
        # at their best value.
        kept = [
            run for run in refined
            if not any(
                other[0] > run[0] and _same_point(run[1], other[1]) for other in refined
            )
        ]
        vmax = max(r[0] for r in kept)
        return min((r for r in kept if r[0] >= vmax - TIE_WINDOW), key=lambda r: r[1])


def maximize_planar(
    game: GameDefinition, config: OptimizationConfig | None = None
) -> OptimumReport:
    """Maximize the minimum player payoff (the guaranteed value of a fair
    outcome) over planar GHZ settings in the canonical gauge.

    On the equator only the triple correlator survives, so each payoff is
    const_i + sum_x coef_i[x] sin(a(x_A) + b(x_B) + c(x_C)) with constants
    and coefficients read off the game's GHZ weights.  The top points of a
    grid scan and as many seeded random points start Nelder-Mead polishes,
    each from a simplex of edge NM_STEP, at the loose tolerances NM_XATOL
    and NM_FATOL, which only choose each start's basin; the random points
    take four draws each of random.Random(config.seed).uniform(-pi, pi), in
    order.  Each distinct maximum among the best runs is then found by
    Newton's method on the KKT system of the least payoff (see
    PlanarSearch.best and _newton), and the reported angles are its.
    ``converged`` is that point's KKT test, or, where that fails, whether
    the tight polish that replaces it stopped by its tolerance test before
    its budget of NM_MAX_FEV evaluations ran out.  So the float-for-float
    SciPy contract of _nelder_mead covers the polish only, and the
    reported optimum does not depend on the seed once its basin is found.  More restarts can only improve the reported value (up
    to the tie window).  The search runs in the game's unit, and the value
    is the objective there times the scale, exactly (see PlanarSearch).
    The runs of the grid starts are kept on the game object.
    """
    import random  # loads with the first search

    config = config or OptimizationConfig()
    search = game.planar_search
    uniform = random.Random(config.seed).uniform
    random_starts = [
        [uniform(-math.pi, math.pi) for _ in range(4)] for _ in range(config.restarts)
    ]
    runs = search.grid_runs(config.restarts) + search.polish(random_starts)
    _, angles, ok = search.best(runs)
    a1, b1, c0, c1 = angles
    setting = MeasurementSetting.planar([0.0, a1, 0.0, b1, c0, c1])
    payoffs = ghz_payoffs(game.ghz_weights, setting.ghz_features)
    return OptimumReport(
        setting=setting,
        value=search.objective(angles) * search.scale,
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
    threshold: float  # EQUILIBRIUM_IMPROVEMENT_TOL in the certificate's unit

    @property
    def max_improvement(self) -> float:
        return max(r.improvement for r in self.responses)

    @property
    def is_equilibrium(self) -> bool:
        return self.max_improvement < self.threshold


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

    Each g_t is read off player p's GHZ weights W[p, x, k] (see
    quantum.ghz_weights) as a sum over the type profiles x with x_p = t,
    where q and r are the other two players, each with the Bloch vector of
    their own type in x.  The pair features z_p z_q and z_p z_r give the
    z-part W[p, x, f_pq] z_q + W[p, x, f_pr] z_r.  The triple correlator is
    -Im of the product of the three n_x + i n_y, so it gives the xy-part
    -W[p, x, 4] (Im P, Re P) with P = (q_x + i q_y)(r_x + i r_y).

    The candidate is an equilibrium when no improvement reaches the
    threshold (see PlanarSearch): EQUILIBRIUM_IMPROVEMENT_TOL times the unit
    (see _scale) of every weight the certificate reads, the planar rows and
    the pair weights W[:, :, 1:4].  It is a unit-free test, which gives a
    game whose utilities are 2**k times another's the same verdict.
    """
    if mode not in ("planar", "full_sphere"):
        raise ValidationError(f"unknown best-response mode {mode!r}")
    full_sphere = mode == "full_sphere"
    theta0, phi0 = candidate.theta.tolist(), candidate.phi.tolist()
    baseline = ghz_payoffs(game.ghz_weights, candidate.ghz_features).tolist()
    # The Bloch vector (x, y, z) of each observable, by player and type bit.
    bloch = [
        [(sin(t) * cos(f), sin(t) * sin(f), cos(t)) for t, f in zip(thetas, phis)]
        for thetas, phis in zip(theta0, phi0)
    ]
    responses = []
    for p, rows, base in zip(PLAYERS, game.ghz_weights.tolist(), baseline):
        q, r = (i for i in PLAYERS if i != p)
        g = [[0.0, 0.0, 0.0], [0.0, 0.0, 0.0]]
        for x, w in zip(PROFILES, rows):
            (qx, qy, qz), (rx, ry, rz) = bloch[q][x[q]], bloch[r][x[r]]
            g_t = g[x[p]]
            g_t[0] -= w[4] * (qx * ry + qy * rx)
            g_t[1] -= w[4] * (qx * rx - qy * ry)
            # The pair feature of players i < j is column i + j: AB 1, AC 2, BC 3.
            g_t[2] += w[p + q] * qz + w[p + r] * rz
        theta, phi = [list(row) for row in theta0], [list(row) for row in phi0]
        gains = []
        for t, ((gx, gy, gz), (nx, ny, nz)) in enumerate(zip(g, bloch[p])):
            reach_z = gz if full_sphere else 0.0  # the part a deviation can align with
            norm = math.sqrt(gx * gx + gy * gy + reach_z * reach_z)
            gains.append(norm - (gx * nx + gy * ny + gz * nz))
            if norm > 0:
                theta[p][t] = math.atan2(math.hypot(gx, gy), reach_z)
                phi[p][t] = math.atan2(gy, gx)
            elif not full_sphere:
                theta[p][t] = math.pi / 2
        payoff = base + (gains[0] + gains[1])
        # improvement is payoff - base exactly, as floats, so that the
        # reported payoff and improvement agree.
        responses.append(PlayerBestResponse(
            player=p,
            improvement=payoff - base,
            payoff=payoff,
            deviation=MeasurementSetting(theta, phi),
        ))
    return BestResponseVerdict(
        mode=mode,
        baseline=PayoffTriple(*baseline),
        responses=tuple(responses),
        threshold=game.planar_search.threshold,
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
