"""Exception types shared across the package."""

from __future__ import annotations

import math


def render_count(n: int) -> int | str:
    """How reports and messages show a count: exact up to 10**100, else the
    string ``~10^N`` with N = floor(log10 n), since ``str`` refuses integers
    of more than 4300 digits.  ``math.log10`` rounds, so N is settled by
    exact comparisons with powers of ten."""
    if n > 10**100:
        exponent = int(math.log10(n))
        while 10**exponent > n:
            exponent -= 1
        while 10 ** (exponent + 1) <= n:
            exponent += 1
        return f"~10^{exponent}"
    return n


class GameError(Exception):
    """Base class for all domain errors raised by this package."""


class CapacityExceeded(GameError):
    """An enumeration would exceed the configured cap."""

    def __init__(self, needed: int, cap: int, what: str = "enumeration"):
        self.needed = needed
        self.cap = cap
        self.what = what
        super().__init__(
            f"{what} needs {render_count(needed)} items, cap is {render_count(cap)}"
        )


class SelfInformationViolation(GameError):
    """An agent's information field depends on his own action.

    ``witness`` is a pair of configuration points that differ only in the
    agent's own action coordinate yet fall in different information atoms.
    """

    def __init__(self, agent, witness):
        self.agent = agent
        self.witness = witness
        super().__init__(
            f"agent {agent} observes his own action: configurations "
            f"{witness[0]} and {witness[1]} differ only in his coordinate "
            f"but carry different information atoms"
        )


class NotPlayable(GameError):
    """The closed-loop equation has zero or several solutions somewhere."""

    def __init__(self, nature_point, count: int):
        self.nature_point = nature_point
        self.count = count
        super().__init__(
            f"closed-loop equation has {count} solutions at nature state "
            f"{nature_point} (expected exactly 1)"
        )


class IndeterminateValue(GameError):
    """Both +inf and -inf carry positive mass, so the value is undefined."""


class EmptyFollowerResponse(GameError):
    """The followers have no joint best response to a leaders' profile."""

    def __init__(self, leaders_profile):
        self.leaders_profile = leaders_profile
        super().__init__(
            "followers have no joint best response to the given leaders' profile"
        )


class NotTwoPlayers(GameError):
    """Matrix export requires exactly two players."""

    def __init__(self, count: int):
        self.count = count
        super().__init__(f"matrix export requires exactly 2 players, got {count}")


class ParseError(GameError):
    """A game definition file could not be parsed."""

    def __init__(self, message: str, line: int | None = None, column: int | None = None):
        self.line = line
        self.column = column
        where = f" at line {line}, column {column}" if line is not None else ""
        super().__init__(f"{message}{where}")


class SchemaError(GameError):
    """A game definition document violates the schema.

    ``path`` locates the offending field inside the document,
    e.g. ``custom.players[0].objective.values[3]``.
    """

    def __init__(self, path: str, message: str):
        self.path = path
        super().__init__(f"{path}: {message}")
