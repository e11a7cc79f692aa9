import math
from fractions import Fraction

import numpy as np
import pytest

from bellgame.builtin import builtin_game
from bellgame.game import GameDefinition, Prior, UtilityTable, affine_transform
from bellgame.quantum import ghz_advisor


@pytest.fixture(scope="session")
def table1():
    return builtin_game()


@pytest.fixture(scope="session")
def utilities(table1):
    return table1.utilities


@pytest.fixture(scope="session")
def uniform_prior():
    return Prior.uniform()


@pytest.fixture(scope="session")
def nonuniform_game(table1):
    """table1's utilities under the prior P(x) = (index(x) + 1) / 36."""
    return GameDefinition(
        table1.utilities, Prior(tuple(Fraction(k, 36) for k in range(1, 9)))
    )


@pytest.fixture(scope="session")
def affine_game(table1):
    """table1 with every type and action bit flipped and u -> 7/3 u - 5/2."""
    def flip(bits):
        return tuple(1 - b for b in bits)

    flipped = UtilityTable.from_function(
        lambda i, x, y: table1.utilities.utility(i, flip(x), flip(y))
    )
    return GameDefinition(
        affine_transform(flipped, Fraction(7, 3), Fraction(-5, 2)), Prior.uniform()
    )


@pytest.fixture(scope="session")
def reference_angles():
    # the known four-decimal optimum in the canonical gauge: the azimuths of
    # (a0, a1), (b0, b1), (c0, c1)
    return np.array([[0.0, -math.pi / 2], [0.0, -math.pi / 2], [2.1588, 0.5880]])


@pytest.fixture(scope="session")
def ghz():
    return ghz_advisor()
