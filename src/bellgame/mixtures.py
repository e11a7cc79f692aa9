"""The seeded random mixtures of the classical bound audit: exact payoffs of
local hidden-variable mixtures, drawn from a ``random.Random``.

classical.classical_bound_audit imports this module on its first call, so
that only the ``audit-bound`` command loads it.  The audit draws each
response as one integer code and contracts each atom as it is drawn,
against packed integers that hold three payoff numerators each, with the
sum over player C's strategies staged for all 17 codes that share C's
p(y=0|x=0) at once, stepped along the other numerator; the fields are wide
enough that the contraction stays exact for any size of input.  The
``Fraction`` route that the tests hold the sampler to (the hidden-variable
models and their distributions) lives in tests/oracles.py.
"""

from __future__ import annotations

from collections.abc import Iterator
from functools import lru_cache
from typing import TYPE_CHECKING

from .classical import STRATEGIES
from .game import PLAYERS

if TYPE_CHECKING:
    import random

    from .classical import ProfileTable

#: Atom count limit and response denominator of the seeded random mixtures.
MIXTURE_MAX_ATOMS = 8
MIXTURE_DENOMINATOR = 16
#: Cap on a mixture's total integer weight, sum(raw) * MIXTURE_DENOMINATOR**6:
#: at most MIXTURE_MAX_ATOMS raw weights of at most 100 each.
MIXTURE_WEIGHT_CAP = 100 * MIXTURE_MAX_ATOMS * MIXTURE_DENOMINATOR**6
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
    ``random_hidden_variable_model`` (tests/oracles.py) from the same
    ``rng``: per mixture the three players' integer numerators and their
    common denominator.

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
    expected_payoffs over the oracle ``hv_model_to_distribution``
    (tests/oracles.py; tested).

    The contraction runs on one packed integer per profile: player i's
    numerator less the least of them, lo_i, in the i-th field of ``width``
    bits.  A mixture's weights sum to ``sum(raw) * d**6 <= MIXTURE_WEIGHT_CAP``,
    so no field sum reaches the width and no carry crosses into the next
    field, for any size of numerator.  For C's code 17 p + q, the sum over
    C's four strategies, with packed sums s_c by C's strategy c, is
    ``d (p s_1 + (d - p) s_3) + q (p (s_0 - s_1) + (d - p) (s_2 - s_3))``:
    a base plus q times a step, both fixed by p.  So the first code drawn
    with a given p stages all 17 codes of that p, one addition per sum from
    each q to the next.  A step may be negative, but every staged sum is the
    same nonnegative integer as the bilinear sum.  An atom then costs one
    multiply-add per strategy pair of A and B.
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
                # the sums of C's codes 17 p + q, q = 0 to d: base + q * step
                p = cc // _ROWS
                sums = [d * (p * s01 + (d - p) * s11) for _, s01, _, s11 in by_c]
                step = [p * (s00 - s01) + (d - p) * (s10 - s11) for s00, s01, s10, s11 in by_c]
                p_row = [sums]
                for _ in range(d):
                    sums = [s + t for s, t in zip(sums, step)]
                    p_row.append(sums)
                staged[_ROWS * p : _ROWS * (p + 1)] = p_row
                over_c = staged[cc]
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
