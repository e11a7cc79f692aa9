"""Three-player Bayesian games with Bell-bounded classical advisors and a
GHZ quantum advisor.

The package splits into: exact game core (:mod:`bellgame.game`), classical
equilibrium enumeration and bound (:mod:`bellgame.classical`), the bound
audit's seeded hidden-variable mixtures (:mod:`bellgame.mixtures`), GHZ
measurement engine (:mod:`bellgame.quantum`), payoff optimizer
(:mod:`bellgame.optimize`), the bundled games (:mod:`bellgame.builtin`) and
the ``bellgame`` CLI (:mod:`bellgame.cli`).
Import from those modules; the package itself exports only ``__version__``.
"""

__version__ = "0.1.0"
