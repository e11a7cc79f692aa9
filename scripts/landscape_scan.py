#!/usr/bin/env python3
"""Scan the planar GHZ payoff of table1 over the two free angles of the third
player, holding the first two players at their optimal azimuths, and emit a
CSV (c0, c1, payoff) suitable for plotting.  The payoff is the minimum over
the three players, the value the optimizer maximizes; on table1 all three
are equal.

Usage: python scripts/landscape_scan.py [--resolution N] [--out PATH]
"""

import argparse
import math
import sys

import numpy as np

from bellgame.builtin import builtin_game
from bellgame.quantum import ghz_payoffs, ghz_weights


def main(argv: list[str] | None = None) -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--resolution", type=int, default=90)
    parser.add_argument("--out", default="-")
    args = parser.parse_args(argv)
    if args.resolution < 1:
        parser.error("--resolution must be at least 1")

    game = builtin_game()
    axis = np.linspace(-math.pi, math.pi, args.resolution)
    c0, c1 = np.meshgrid(axis, axis, indexing="ij")
    phi = np.zeros(c0.shape + (3, 2))
    phi[..., 0, 1] = phi[..., 1, 1] = -math.pi / 2
    phi[..., 2, 0], phi[..., 2, 1] = c0, c1
    theta = np.full_like(phi, math.pi / 2)
    values = ghz_payoffs(ghz_weights(game.utilities, game.prior), theta, phi).min(axis=-1)

    out = sys.stdout if args.out == "-" else open(args.out, "w")
    try:
        out.write("c0,c1,payoff\n")
        for i in range(args.resolution):
            for j in range(args.resolution):
                out.write(f"{c0[i, j]:.6f},{c1[i, j]:.6f},{values[i, j]:.9f}\n")
    finally:
        if out is not sys.stdout:
            out.close()

    best = np.unravel_index(np.argmax(values), values.shape)
    print(
        f"# grid max {values[best]:.9f} at c0={c0[best]:.4f}, c1={c1[best]:.4f}; "
        f"exact max (13+2*sqrt(13))/24 = {(13 + 2 * math.sqrt(13)) / 24:.9f}",
        file=sys.stderr,
    )


if __name__ == "__main__":
    main()
