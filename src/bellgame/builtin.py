"""Bundled game definitions, read from the ``data`` directory beside this
module."""

from __future__ import annotations

import json
import os
from functools import lru_cache

from .game import GameDefinition, ValidationError, game_from_json_dict

#: Registry of bundled games addressable as ``builtin:<name>`` on the CLI.
#: "table1" is the symmetric conflicting-interest game whose classical total
#: payoff is capped at 9/4 by the two tripartite Bell inequalities.
BUILTIN_NAMES = ("table1",)

#: The directory of the bundled game files, data/<name>.json.
DATA_DIR = os.path.join(os.path.dirname(__file__), "data")


@lru_cache(maxsize=None)
def builtin_game(name: str = "table1") -> GameDefinition:
    """Load a bundled game by registry name."""
    if name not in BUILTIN_NAMES:
        raise ValidationError(
            f"unknown builtin game {name!r}; available: {BUILTIN_NAMES}"
        )
    with open(os.path.join(DATA_DIR, f"{name}.json"), encoding="utf-8") as f:
        return game_from_json_dict(json.load(f))
