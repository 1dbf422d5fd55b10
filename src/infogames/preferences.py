"""Players, objectives, beliefs, and risk measures.

Objectives are extended-real tables over the configuration space; the adverse
infinity (+inf for a cost, -inf for a payoff) encodes impossible
configurations, and the favorable infinity is rejected at construction.

Beliefs are probability masses over Nature, either joint or as a product of
per-factor vectors (a Dirac factor encodes a known component).  Risk measures
map Nature-indexed value tables to a number: expectation, worst case over the
belief support, or CVaR at level alpha (adverse-tail mean with fractional
boundary atom, the standard discrete form).
"""

from __future__ import annotations

import enum
import math
import operator
from dataclasses import dataclass, field
from typing import Mapping, Sequence

from .errors import IndeterminateValue
from .model import AgentId, WModel
from .spaces import FiniteFactor, Point, ProductSpace

MASS_TOL = 1e-12


class Sense(enum.Enum):
    COST = "cost"
    PAYOFF = "payoff"

    @property
    def adverse(self) -> float:
        return math.inf if self is Sense.COST else -math.inf

    def better(self, a: float, b: float) -> bool:
        """True iff value ``a`` is strictly preferred to ``b``."""
        return a < b if self is Sense.COST else a > b

    def best(self, values):
        return min(values) if self is Sense.COST else max(values)

    def ties(self, values):
        """The tie rule of every best-response set: ``(best, flags)``, where
        ``best`` is the best of the values that are not ``None`` (``None``
        when all are) and ``flags`` holds, per value, ``None`` for ``None``,
        else whether it equals ``best``.  Values tie by float equality, so
        ``0.0`` and ``-0.0`` tie, and ``best`` keeps the sign of the first
        one met."""
        judged = [v for v in values if v is not None]
        best = self.best(judged) if judged else None
        return best, [None if v is None else v == best for v in values]

    def worst(self, values):
        return max(values) if self is Sense.COST else min(values)


@dataclass(frozen=True)
class Objective:
    """A player's preference table over configurations."""

    player: str
    sense: Sense
    values: tuple[float, ...]

    def __post_init__(self):
        # Whole-table scans, the favorable infinity first.  A NaN makes the
        # sum NaN, but so can an overflow meeting the adverse infinity, hence
        # the second scan.
        favorable = -self.sense.adverse
        if favorable in self.values:
            raise ValueError(
                f"a {self.sense.value} table must not contain {favorable} "
                "(the favorable infinity); only the adverse infinity marks "
                "impossible configurations"
            )
        if math.isnan(sum(self.values)) and any(map(math.isnan, self.values)):
            raise ValueError("objective values must not be NaN")

    @staticmethod
    def from_function(space: ProductSpace, player: str, sense: Sense, fn) -> "Objective":
        return Objective(player, sense, tuple(float(fn(pt)) for pt in space.points()))

    @staticmethod
    def from_terms(space: ProductSpace, player: str, sense: Sense, terms) -> "Objective":
        """Tabulate ``0.0 + term_1 + term_2 + ...`` at every point, in term
        order.  A term is ``(axes, table)`` with ``table`` indexed row-major
        by the point's coordinates on ``axes``.

        The leading terms that share one axis index are summed on their own
        table, whose broadcast is fused into the first configuration-size
        add, so every point gets the same float operations in the same
        order."""
        checked = []
        for axes, table in terms:
            axes = tuple(axes)
            # Before the length check, which would read factors[axis]:
            # axis_index rejects axes outside the space.
            index = space.axis_index(axes)
            if len(table) != math.prod(space.factors[a].size for a in axes):
                raise ValueError("term table length does not match its axes")
            checked.append((index, table))
        if not checked:
            return Objective(player, sense, (0.0,) * space.size)
        (index, table), *rest = checked
        small = [0.0 + v for v in table]
        while rest and rest[0][0] is index:
            small = list(map(operator.add, small, rest.pop(0)[1]))
        broadcast = map(small.__getitem__, index)
        if rest:
            index, table = rest.pop(0)
            broadcast = map(operator.add, broadcast, map(table.__getitem__, index))
        values = list(broadcast)
        for index, table in rest:
            values = list(map(operator.add, values, map(table.__getitem__, index)))
        return Objective(player, sense, tuple(values))


def _check_mass_vector(vec: Sequence[float], what: str):
    for m in vec:
        if not math.isfinite(m):
            raise ValueError(f"{what} has a non-finite mass {m}")
        if m < 0:
            raise ValueError(f"{what} has a negative mass {m}")
    if abs(math.fsum(vec) - 1.0) > MASS_TOL:
        raise ValueError(f"{what} sums to {math.fsum(vec)}, expected 1")


@dataclass(frozen=True)
class Belief:
    """Probability mass over Nature, joint or product-of-factors.

    ``masses`` is the per-state mass vector in Nature enumeration order: the
    joint vector, or each state's per-factor product taken in factor order.
    """

    space: ProductSpace
    joint: tuple[float, ...] | None = None
    factors: tuple[tuple[float, ...], ...] | None = None
    masses: tuple[float, ...] = field(init=False, compare=False, repr=False)

    def __post_init__(self):
        if (self.joint is None) == (self.factors is None):
            raise ValueError("a belief is either joint or product, not both")
        if self.joint is not None:
            if len(self.joint) != self.space.size:
                raise ValueError("joint belief length does not match Nature size")
            _check_mass_vector(self.joint, "joint belief")
        else:
            assert self.factors is not None
            if len(self.factors) != len(self.space.factors):
                raise ValueError("product belief needs one vector per Nature factor")
            for vec, f in zip(self.factors, self.space.factors):
                if len(vec) != f.size:
                    raise ValueError(f"belief vector for factor {f.id!r} has wrong length")
                _check_mass_vector(vec, f"belief vector for factor {f.id!r}")
        masses = self.joint
        if masses is None:
            masses = tuple(
                math.prod((vec[c] for c, vec in zip(omega, self.factors)), start=1.0)
                for omega in self.space.points()
            )
        object.__setattr__(self, "masses", masses)

    @staticmethod
    def product(space: ProductSpace, vectors: Sequence[Sequence[float]]) -> "Belief":
        return Belief(space, factors=tuple(tuple(float(m) for m in v) for v in vectors))

    @staticmethod
    def joint_over(space: ProductSpace, vector: Sequence[float]) -> "Belief":
        return Belief(space, joint=tuple(float(m) for m in vector))

    @staticmethod
    def uniform(space: ProductSpace) -> "Belief":
        n = space.size
        return Belief(space, joint=(1.0 / n,) * n)

    def mass(self, omega: Point) -> float:
        return self.masses[self.space.point_index(omega)]


def make_dirac(factor: FiniteFactor, element: int | str) -> tuple[float, ...]:
    """Per-factor distribution with unit mass at one element."""
    if isinstance(element, str):
        element = factor.element_index(element)
    if not 0 <= element < factor.size:
        raise ValueError(f"element {element} out of range for factor {factor.id!r}")
    return tuple(1.0 if i == element else 0.0 for i in range(factor.size))


class RiskKind(enum.Enum):
    EXPECTATION = "expectation"
    WORST_CASE = "worst-case"
    CVAR = "cvar"


@dataclass(frozen=True)
class RiskMeasure:
    """One of expectation, worst case, or CVaR(alpha) over a belief.

    Worst case may omit the belief, in which case every Nature state counts;
    with a belief it ranges over the positive-mass states only.

    ``support`` is computed once, at construction: the positive-mass states
    in Nature order, their masses, and, under expectation, the ``fsum`` of
    those masses (``None`` otherwise).  It is ``None`` without a belief.
    """

    kind: RiskKind
    belief: Belief | None = None
    alpha: float | None = None
    support: tuple[tuple[int, ...], tuple[float, ...], float | None] | None = field(
        init=False, compare=False, repr=False
    )

    def __post_init__(self):
        if self.kind in (RiskKind.EXPECTATION, RiskKind.CVAR) and self.belief is None:
            raise ValueError(f"{self.kind.value} needs a belief")
        if self.kind is RiskKind.CVAR:
            if self.alpha is None or not 0 < self.alpha <= 1:
                raise ValueError("CVaR level must lie in (0, 1]")
        elif self.alpha is not None:
            raise ValueError("alpha only applies to CVaR")
        support = None
        if self.belief is not None:
            masses = self.belief.masses
            states = tuple(w for w, m in enumerate(masses) if m > 0)
            weights = tuple(masses[w] for w in states)
            total = math.fsum(weights) if self.kind is RiskKind.EXPECTATION else None
            support = (states, weights, total)
        object.__setattr__(self, "support", support)

    @staticmethod
    def expectation(belief: Belief) -> "RiskMeasure":
        return RiskMeasure(RiskKind.EXPECTATION, belief)

    @staticmethod
    def worst_case(belief: Belief | None = None) -> "RiskMeasure":
        return RiskMeasure(RiskKind.WORST_CASE, belief)

    @staticmethod
    def cvar(alpha: float, belief: Belief) -> "RiskMeasure":
        return RiskMeasure(RiskKind.CVAR, belief, alpha)


def _expectation(
    values: Sequence[float],
    masses: Sequence[float],
    where: str = "carry positive mass",
    total: float | None = None,
) -> float:
    """Mean of ``values`` weighted by ``masses`` with the infinity
    conventions.  ``total`` is the ``fsum`` of the masses when the caller
    has it; ``where`` ends the message raised when both infinities occur."""
    if math.inf in values:
        if -math.inf in values:
            raise IndeterminateValue(f"both +inf and -inf {where}")
        return math.inf
    if -math.inf in values:
        return -math.inf
    if total is None:
        total = math.fsum(masses)
    return math.fsum(map(operator.mul, values, masses)) / total


def _adverse_tail_mean(
    pairs: list[tuple[float, float]], alpha: float, sense: Sense
) -> float:
    """Mean of the adverse tail of total mass ``alpha``, boundary atom split
    fractionally (discrete CVaR)."""
    ordered = sorted(pairs, key=lambda vm: vm[0], reverse=(sense is Sense.COST))
    values: list[float] = []
    taken: list[float] = []
    remaining = alpha
    for v, m in ordered:
        if remaining <= 0:
            break
        take = min(m, remaining)
        values.append(v)
        taken.append(take)
        remaining -= take
    return _expectation(values, taken, "lie in the adverse tail")


def apply_risk(risk: RiskMeasure, values: Sequence[float], sense: Sense) -> float:
    """Map a Nature-indexed value table to a number.

    Zero-mass states are dropped before any weighting, so the 0 * inf form
    never arises: only the states of ``risk.support`` are read, with the
    masses and, under expectation, the mass total computed there once.
    Under expectation, a positive-mass state at the adverse infinity drives
    the result to that infinity; if both infinities carry positive mass the
    value is undefined and :class:`IndeterminateValue` is raised.
    """
    if risk.belief is None:
        return sense.worst(map(float, values))
    if len(values) != risk.belief.space.size:
        raise ValueError("value table length does not match Nature size")
    states, masses, total = risk.support
    kept = [float(values[w]) for w in states]
    if risk.kind is RiskKind.WORST_CASE:
        return sense.worst(kept)
    if risk.kind is RiskKind.EXPECTATION:
        return _expectation(kept, masses, total=total)
    assert risk.alpha is not None
    return _adverse_tail_mean(list(zip(kept, masses)), risk.alpha, sense)


@dataclass(frozen=True)
class PlayerData:
    """A player's purely personal data: objective plus risk measure."""

    objective: Objective
    risk: RiskMeasure


@dataclass(frozen=True)
class PlayerPartition:
    """Grouping of agents into players."""

    players: tuple[str, ...]
    assignment: Mapping[AgentId, str]

    def agents_of(self, player: str, model: WModel) -> tuple[AgentId, ...]:
        return tuple(a for a in model.agents if self.assignment[a] == player)


@dataclass(frozen=True)
class WGame:
    """A validated game: model, player partition, per-player data, roles."""

    model: WModel
    players: PlayerPartition
    data: Mapping[str, PlayerData]
    leaders: tuple[str, ...] = ()

    @property
    def followers(self) -> tuple[str, ...]:
        return tuple(p for p in self.players.players if p not in self.leaders)

    def agents_of(self, player: str) -> tuple[AgentId, ...]:
        return self.players.agents_of(player, self.model)


def make_wgame(
    model: WModel,
    players: PlayerPartition,
    data: Mapping[str, PlayerData],
    leaders: Sequence[str] = (),
) -> WGame:
    """Validate the partition, the data tables, and the belief spaces."""
    if len(set(players.players)) != len(players.players):
        raise ValueError("duplicate player id")
    assigned = set(players.assignment)
    if assigned != set(model.agents):
        missing = set(model.agents) - assigned
        extra = assigned - set(model.agents)
        raise ValueError(
            f"player partition does not cover the agents exactly "
            f"(missing {sorted(map(str, missing))}, extra {sorted(map(str, extra))})"
        )
    for a, p in players.assignment.items():
        if p not in players.players:
            raise ValueError(f"agent {a} assigned to undeclared player {p!r}")
    for p in players.players:
        if not any(v == p for v in players.assignment.values()):
            raise ValueError(f"player {p!r} has no agents")
        if p not in data:
            raise ValueError(f"missing data for player {p!r}")
    for p, d in data.items():
        if p not in players.players:
            raise ValueError(f"data given for undeclared player {p!r}")
        if d.objective.player != p:
            raise ValueError(
                f"objective for player {p!r} is labelled {d.objective.player!r}"
            )
        if len(d.objective.values) != model.configuration.size:
            raise ValueError(
                f"objective table for player {p!r} has {len(d.objective.values)} "
                f"entries, configuration space has {model.configuration.size}"
            )
        if d.risk.belief is not None and d.risk.belief.space != model.nature_space:
            raise ValueError(f"belief for player {p!r} is over a different Nature")
    for ld in leaders:
        if ld not in players.players:
            raise ValueError(f"leader {ld!r} is not a player")
    return WGame(model, players, dict(data), tuple(leaders))
