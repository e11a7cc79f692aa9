"""Exact-arithmetic core for three-player Bayesian games with binary types.

Players A, B, C each receive a private type bit and answer with an action
bit.  A game is a utility table u_i(x, y) over type profiles x and action
profiles y together with a prior over type profiles.  Every advisor kind
(classical or quantum) enters payoff computations only through the
conditional distribution p(y | x); expected_payoffs is that bilinear form,
the exact oracle that the integer classical scans and the GHZ float engine
are tested against.  It stays here only while bench/test_bench.py reaches it
through quantum.quantum_payoffs; the tests' other oracles and input builders
(affine utility maps, tables from a function, uniform priors) live in
tests/oracles.py.

Both engines read one exact integer form of a game (integer_form): the
64-profile scans of :mod:`bellgame.classical` compare its integers and report
exact ``fractions.Fraction`` s, and quantum.ghz_weights rounds each GHZ weight
once from their exact sums; quantum-path distributions carry floats checked
against explicit tolerances.  The audits of the paper's player symmetry
(check_player_symmetry, check_prior_symmetry) live here, and
no_signalling_residual on a distribution.

Profile indexing convention: a profile (a, b, c) of bits for players
(A, B, C) maps to index 4*a + 2*b + c, i.e. player A owns the most
significant bit.  Serialized tables use the same index order.
"""

from __future__ import annotations

import json
import re
import sys
from enum import IntEnum
from fractions import Fraction
from functools import cached_property
from itertools import product
from math import lcm
from typing import TYPE_CHECKING, NamedTuple, Union

# CPython's built-in sha256, taken as random.py takes its sha512: hashlib
# would load OpenSSL for one digest per game.  The version picks the one
# module to try, since a failed import searches the whole of sys.path.
try:
    if sys.version_info >= (3, 12):
        from _sha2 import sha256
    else:
        from _sha256 import sha256
except ImportError:
    from hashlib import sha256

if TYPE_CHECKING:
    from pathlib import Path

    import numpy as np

    from . import classical, optimize

Bit = int
Profile = tuple[Bit, Bit, Bit]
Numeric = Union[Fraction, float]

#: All 8 bit triples in index order (A bit most significant).
PROFILES: tuple[Profile, ...] = tuple(product((0, 1), repeat=3))

DEFAULT_TOL = 1e-9


class Player(IntEnum):
    """The three players, ordered A < B < C for canonical serialization."""

    A = 0
    B = 1
    C = 2


PLAYERS = (Player.A, Player.B, Player.C)


class ValidationError(ValueError):
    """Raised when a game object or input file violates an invariant."""


def profile_index(p: Profile) -> int:
    return 4 * p[0] + 2 * p[1] + p[2]


class Frozen:
    """Base of the value classes that validate their fields or derive
    values from them; plain records are NamedTuples instead.

    A subclass lists its fields in ``_fields`` and its ``__init__``, after
    validating them, sets them once through ``Frozen.__init__``.  After that
    no attribute can be assigned or deleted (functools.cached_property
    writes to the instance's ``__dict__`` directly, so a derived value is
    still kept).  Equality and hash go by class and field values, and the
    repr is ``Cls(field=...)``.
    """

    _fields: tuple[str, ...] = ()

    def __init__(self, *values) -> None:
        for name, value in zip(self._fields, values, strict=True):
            object.__setattr__(self, name, value)

    def __setattr__(self, name: str, value) -> None:
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"cannot delete field {name!r}")

    def _values(self) -> tuple:
        return tuple(getattr(self, name) for name in self._fields)

    def __eq__(self, other) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._values() == other._values()

    def __hash__(self) -> int:
        return hash(self._values())

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self._fields)
        return f"{type(self).__qualname__}({fields})"


class PayoffTriple(NamedTuple):
    """Expected payoff per player; Fractions on the exact path, else floats."""

    a: Numeric
    b: Numeric
    c: Numeric

    def total(self) -> Numeric:
        return self.a + self.b + self.c


class UtilityTable(Frozen):
    """Dense 3 x 8 x 8 table of exact player utilities.

    ``values[player][x_index][y_index]`` is the gain of ``player`` when the
    type profile is x and the action profile is y.
    """

    _fields = ("values",)
    values: tuple[tuple[tuple[Fraction, ...], ...], ...]

    def __init__(self, values: tuple[tuple[tuple[Fraction, ...], ...], ...]) -> None:
        if len(values) != 3 or any(
            len(rows) != 8 or any(len(row) != 8 for row in rows) for rows in values
        ):
            raise ValidationError("utility table must be 3 x 8 x 8")
        super().__init__(values)


class Prior(Frozen):
    """Distribution over type profiles, exact and normalized."""

    _fields = ("weights",)
    weights: tuple[Fraction, ...]

    def __init__(self, weights: tuple[Fraction, ...]) -> None:
        if len(weights) != 8:
            raise ValidationError("prior must have 8 entries")
        for i, w in enumerate(weights):
            if w < 0:
                raise ValidationError(
                    f"prior entry for type profile {PROFILES[i]} is negative: "
                    f"{format_rational(w)}"
                )
        total = sum(weights)
        if total != 1:
            raise ValidationError(
                f"prior entries sum to {format_rational(total)}, expected exactly 1"
            )
        super().__init__(weights)


class ConditionalDistribution(Frozen):
    """Row-stochastic table p(y | x): rows indexed by type profile x.

    Entries are Fractions for classical sources or floats for quantum
    sources; validate() holds either kind to DEFAULT_TOL.
    """

    _fields = ("rows",)
    rows: tuple[tuple[Numeric, ...], ...]

    def __init__(self, rows: tuple[tuple[Numeric, ...], ...]) -> None:
        super().__init__(rows)

    def validate(self) -> None:
        """Check nonnegativity and row normalization within DEFAULT_TOL,
        naming the bad row."""
        if len(self.rows) != 8 or any(len(row) != 8 for row in self.rows):
            raise ValidationError("conditional distribution must be 8 x 8")
        for xi, row in enumerate(self.rows):
            for v in row:
                if v < -DEFAULT_TOL:
                    raise ValidationError(
                        f"negative probability {v} in row for type profile "
                        f"{PROFILES[xi]}"
                    )
            s = sum(row)
            if abs(s - 1) > DEFAULT_TOL:
                raise ValidationError(
                    f"row for type profile {PROFILES[xi]} sums to {s}, "
                    f"expected 1"
                )


def expected_payoffs(
    table: UtilityTable, prior: Prior, dist: ConditionalDistribution
) -> PayoffTriple:
    """Average payoff of each player under the advice distribution, after
    validating it.

    F_i = sum over (x, y) of P(x) p(y|x) u_i(x, y).  Exact (Fraction)
    whenever the prior, utilities and distribution are all exact.  This is
    the oracle: reports take classical payoffs from classical.profile_table
    and quantum payoffs from quantum.ghz_payoffs, and tests hold both to
    this form (quantum.quantum_payoffs applies it to a trace-rule
    distribution).
    """
    dist.validate()
    out = []
    for player in PLAYERS:
        u = table.values[player]
        total: Numeric = 0
        for xi in range(8):
            row = dist.rows[xi]
            urow = u[xi]
            acc: Numeric = 0
            for yi in range(8):
                acc += row[yi] * urow[yi]
            total += prior.weights[xi] * acc
        out.append(total)
    return PayoffTriple(*out)


def integer_form(table: UtilityTable, prior: Prior) -> tuple[list, list, int]:
    """A game's rationals as exact integers: the prior numerators over their
    LCM, the utility numerators ([player][x][y]) over their LCM, and the
    product of the two LCMs.  Both engines read it (profile_table, ghz_weights)."""
    prior_den = lcm(*(w.denominator for w in prior.weights))
    util_den = lcm(*(v.denominator for rows in table.values for row in rows for v in row))
    prior_nums = [w.numerator * (prior_den // w.denominator) for w in prior.weights]
    utils = [
        [[v.numerator * (util_den // v.denominator) for v in row] for row in rows]
        for rows in table.values
    ]
    return prior_nums, utils, prior_den * util_den


#: For each transposition (i, j) of two players, with bystander k:
#: (i, j, k, the index of each profile with the bits of i and j exchanged).
_SWAPS = tuple(
    (i, j, k, tuple(n ^ bits if n & bits not in (0, bits) else n for n in range(8)))
    for i, j, k in ((Player.A, Player.B, Player.C), (Player.A, Player.C, Player.B),
                    (Player.B, Player.C, Player.A))
    for bits in [4 >> i | 4 >> j]
)


class SymmetryViolation(NamedTuple):
    """One failed permutation relation of the utility table."""

    swap: tuple[Player, Player]
    player: Player
    x: Profile
    y: Profile


def check_player_symmetry(table: UtilityTable) -> list[SymmetryViolation]:
    """Audit the utilities' invariance under all three player transpositions.

    For each transposition (i, j) with bystander k the table must satisfy
    u_i(x, y) = u_j(sx, sy) and u_k(x, y) = u_k(sx, sy), where s swaps the
    i and j bits of both profiles (read off _SWAPS).  Returns every failing
    relation: by transposition, x and y, the relation of i before k's.

    Entries are compared as (numerator, denominator) pairs of ints, read
    once per entry: a Fraction is always in lowest terms with a positive
    denominator, so two are equal exactly when their pairs are.
    """
    pairs = [
        [[(v.numerator, v.denominator) for v in row] for row in rows]
        for rows in table.values
    ]
    violations = []
    for i, j, k, swapped in _SWAPS:
        ui, uj, uk = pairs[i], pairs[j], pairs[k]
        for xi, sxi in enumerate(swapped):
            for yi, syi in enumerate(swapped):
                if ui[xi][yi] != uj[sxi][syi]:
                    violations.append(SymmetryViolation((i, j), i, PROFILES[xi], PROFILES[yi]))
                if uk[xi][yi] != uk[sxi][syi]:
                    violations.append(SymmetryViolation((i, j), k, PROFILES[xi], PROFILES[yi]))
    return violations


def check_prior_symmetry(prior: Prior) -> list[tuple[tuple[Player, Player], Profile]]:
    """The swap and x of every failing relation P(x) = P(sx), with s as in
    check_player_symmetry and in its order."""
    w = prior.weights
    return [((i, j), PROFILES[n]) for i, j, _, s in _SWAPS for n in range(8) if w[n] != w[s[n]]]


#: Every no-signalling comparison as the indices (x0, x1, y0, y1): one
#: player's type bit is 0 in row x0 and 1 in row x1, its action bit 0 in
#: column y0 and 1 in y1, and the other two players' bits are the same in
#: all four.  Ordered by player, then the others' types, then their actions.
_NO_SIGNALLING_GROUPS = tuple(
    (x, x | bit, y, y | bit)
    for bit in (4, 2, 1)  # the bit of player A, B, C in a profile index
    for x in range(8)
    if not x & bit
    for y in range(8)
    if not y & bit
)


def no_signalling_residual(dist: ConditionalDistribution) -> Numeric:
    """Largest |difference| between the two marginals of any no-signalling
    comparison: no two-player marginal, p(y|x) summed over the third
    player's action, may depend on the third player's type.  Exactly 0 for
    an exact no-signalling distribution."""
    rows = dist.rows
    return max(
        abs(rows[x0][y0] + rows[x0][y1] - (rows[x1][y0] + rows[x1][y1]))
        for x0, x1, y0, y1 in _NO_SIGNALLING_GROUPS
    )


# ---------------------------------------------------------------------------
# Game-definition file format
#
# {"players": ["A", "B", "C"],
#  "prior": {"0 0 0": "1/8", ...},                    # keyed "x_A x_B x_C"
#  "utilities": {"A": [[...8 rationals...] x 8], ...}} # [x_index][y_index]
#
# Rationals are "num/den" strings; bare integer strings are accepted on input.
# The JSON schema ships in docs/game.schema.json.
# ---------------------------------------------------------------------------


class GameDefinition(Frozen):
    """A utility table with its prior, as read from a game file.

    The digest, the profile table, the GHZ weights and the planar search are
    derived from the two fields on first use and kept on the object, which
    cannot change.  A call that raises keeps nothing, so the next one raises
    again.  The planar search keeps the runs of optimize's grid starts (see
    optimize.PlanarSearch).
    """

    _fields = ("utilities", "prior")
    utilities: UtilityTable
    prior: Prior

    def __init__(self, utilities: UtilityTable, prior: Prior) -> None:
        super().__init__(utilities, prior)

    @cached_property
    def digest(self) -> str:
        """Stable sha256 of the canonical serialized game."""
        blob = json.dumps(
            game_to_json_dict(self), sort_keys=True, separators=(",", ":")
        )
        return "sha256:" + sha256(blob.encode()).hexdigest()

    @cached_property
    def profile_table(self) -> classical.ProfileTable:
        """The game's classical.profile_table: the exact payoffs of the 64
        deterministic profiles, which give the classical bound."""
        from .classical import profile_table

        return profile_table(self.utilities, self.prior)

    @cached_property
    def ghz_weights(self) -> np.ndarray:
        """The game's quantum.ghz_weights, read-only.  The GHZ engine, and
        with it numpy, is imported on first use, so that the classical
        commands run without numpy."""
        from . import quantum

        weights = quantum.ghz_weights(self.utilities, self.prior)
        weights.setflags(write=False)
        return weights

    @cached_property
    def planar_search(self) -> optimize.PlanarSearch:
        """The seed-independent part of optimize.maximize_planar on this
        game: its objective and the runs of its grid starts."""
        from . import optimize

        return optimize.PlanarSearch(self.ghz_weights)


#: Longest decimal digit string converted to or from an int in one step.
#: Python refuses such conversions above 4300 digits by default
#: (sys.get_int_max_str_digits), but the schema bounds no rational's length,
#: so longer numbers are converted in halves.
_CHUNK_DIGITS = 4000
_CHUNK_LIMIT = 10**_CHUNK_DIGITS


def _int_from_digits(digits: str) -> int:
    """The nonnegative integer written by a decimal digit string of any
    length."""
    if len(digits) <= _CHUNK_DIGITS:
        return int(digits)
    high, low = digits[: len(digits) // 2], digits[len(digits) // 2 :]
    return _int_from_digits(high) * 10 ** len(low) + _int_from_digits(low)


def _digits_of_int(n: int) -> str:
    """Decimal digits of a nonnegative integer of any size."""
    if n < _CHUNK_LIMIT:
        return str(n)
    # about half of n's digits (n.bit_length() * log10(2) of them) go low
    low_digits = int(n.bit_length() * 0.30103) // 2
    high, low = divmod(n, 10**low_digits)
    return _digits_of_int(high) + _digits_of_int(low).zfill(low_digits)


def format_rational(v: Fraction) -> str:
    sign = "-" if v.numerator < 0 else ""
    return f"{sign}{_digits_of_int(abs(v.numerator))}/{_digits_of_int(v.denominator)}"


#: The ``rational`` pattern of docs/game.schema.json, matched against the
#: whole string.
RATIONAL_PATTERN = r"-?[0-9]+(/[0-9]+)?"
_RATIONAL = re.compile(RATIONAL_PATTERN)


def _rational(s: str) -> Fraction:
    """parse_rational without the field label in its error messages."""
    if not isinstance(s, str) or _RATIONAL.fullmatch(s) is None:
        raise ValidationError(
            f'invalid rational {s!r}; expected a "num/den" or integer string'
        )
    num, _, den = s.partition("/")
    numerator = _int_from_digits(num.lstrip("-"))
    try:
        return Fraction(
            -numerator if num.startswith("-") else numerator,
            _int_from_digits(den or "1"),
        )
    except ZeroDivisionError as exc:
        raise ValidationError("zero denominator in rational") from exc


def parse_rational(s: str, field: str) -> Fraction:
    """Read a "num/den" or bare-integer string, exactly as the schema's
    ``rational`` accepts it; numbers, booleans, decimals and exponents are
    rejected, and so is a zero denominator."""
    try:
        return _rational(s)
    except ValidationError as exc:
        raise ValidationError(f"{field}: {exc}") from exc.__cause__


#: The prior's keys, "x_A x_B x_C", in index order.
_PRIOR_KEYS = tuple(" ".join(map(str, x)) for x in PROFILES)


def game_to_json_dict(game: GameDefinition) -> dict:
    prior = dict(zip(_PRIOR_KEYS, map(format_rational, game.prior.weights)))
    utilities = {
        p.name: [
            [format_rational(v) for v in row]
            for row in game.utilities.values[p]
        ]
        for p in PLAYERS
    }
    return {"players": ["A", "B", "C"], "prior": prior, "utilities": utilities}


def _json_object(doc: object, keys, field: str) -> dict:
    """doc, if it is a JSON object with no keys but ``keys``; otherwise a
    ValidationError that names the field and any unexpected key."""
    if not isinstance(doc, dict):
        raise ValidationError(f"{field}: missing or not an object")
    extra = set(doc).difference(keys)
    if extra:
        raise ValidationError(f"{field}: unexpected keys {sorted(extra)}")
    return doc


def game_from_json_dict(doc: dict) -> GameDefinition:
    """The game of a document that docs/game.schema.json accepts; any other
    document is a ValidationError that names the field at fault."""
    if not isinstance(doc, dict):
        raise ValidationError("game document must be a JSON object")
    _json_object(doc, ("players", "prior", "utilities"), "game document")
    if doc.get("players") != ["A", "B", "C"]:
        raise ValidationError('players: must be exactly ["A", "B", "C"]')

    # Each distinct string is read once.  Only strings are looked up, and a
    # bad entry raises before it is stored, so the first one is named.
    parsed: dict[str, Fraction] = {}
    prior_doc = _json_object(doc.get("prior"), _PRIOR_KEYS, "prior")
    weights = []
    for key in _PRIOR_KEYS:
        if key not in prior_doc:
            raise ValidationError(f"prior: missing entry for type {key!r}")
        v = prior_doc[key]
        w = parsed.get(v) if isinstance(v, str) else None
        if w is None:
            w = parsed[v] = parse_rational(v, f"prior[{key!r}]")
        weights.append(w)
    prior = Prior(tuple(weights))

    util_doc = _json_object(doc.get("utilities"), ("A", "B", "C"), "utilities")
    tables = []
    for p in PLAYERS:
        rows_doc = util_doc.get(p.name)
        if not isinstance(rows_doc, list) or len(rows_doc) != 8:
            raise ValidationError(f"utilities[{p.name!r}]: expected 8 rows (one per type index)")
        rows = []
        for xi, row_doc in enumerate(rows_doc):
            if not isinstance(row_doc, list) or len(row_doc) != 8:
                raise ValidationError(f"utilities[{p.name!r}][{xi}]: expected 8 entries")
            row = []
            try:
                for v in row_doc:
                    r = parsed.get(v) if isinstance(v, str) else None
                    if r is None:
                        r = parsed[v] = _rational(v)
                    row.append(r)
            except ValidationError as exc:  # the entry at fault is the next one
                field = f"utilities[{p.name!r}][{xi}][{len(row)}]"
                raise ValidationError(f"{field}: {exc}") from exc.__cause__
            rows.append(tuple(row))
        tables.append(tuple(rows))
    return GameDefinition(UtilityTable(tuple(tables)), prior)


def read_json(path: str | Path) -> object:
    """The JSON document in a file; a file that is not UTF-8 JSON, holds a
    number too long for Python to read or nests deeper than the recursion
    limit, is a ValidationError."""
    try:
        with open(path, encoding="utf-8") as f:
            return json.load(f)
    except json.JSONDecodeError as exc:
        raise ValidationError(
            f"{path}: invalid JSON at line {exc.lineno}, column {exc.colno}: "
            f"{exc.msg}"
        ) from exc
    except (ValueError, RecursionError) as exc:  # int-string limit, not UTF-8, or too deep
        raise ValidationError(f"{path}: unreadable JSON: {exc}") from exc


def load_game(path: str | Path) -> GameDefinition:
    doc = read_json(path)
    try:
        return game_from_json_dict(doc)
    except ValidationError as exc:
        raise ValidationError(f"{path}: {exc}") from exc

