"""Normal-form evaluation: a player's risk measure applied to her objective
composed with the solution map, as a function of the strategy profile.

An :class:`Evaluator` scores a full profile through the solution map
(:func:`~infogames.model.outcome_indices`), memoized per (player, profile).
Equilibrium search instead scores unilateral deviations, each from a
:class:`Context`: the deviating agent against fixed strategies of every other
agent, built once per (deviating agent, those strategies), in any model.

In a sequential model, fixing every agent but the deviator fixes, at each
Nature state, his information atom and the outcome each of his actions leads
to.  The context holds that table, built by |Nature| x |actions| forward
substitutions.  A deviation's value is then the same ``apply_risk`` call on
the same composed list as the profile path, so both paths agree bit for bit.
It is memoized per player under the deviator's actions at the atoms of the
player's positive-mass states (every state when her risk has no belief): the
other states are dropped by ``apply_risk``, so deviations that agree there
share the value.  In any other model the context has no table, and a
deviation is spliced into its profile and scored on the profile path, so the
choice between the two paths is made here alone.  Evaluation is pure, so
every memo is a last-write-wins cache.  ``Evaluator.evaluations`` counts the
risk evaluations actually computed, on either path.
"""

from __future__ import annotations

import csv
import io
import math
from dataclasses import dataclass, field
from operator import itemgetter
from typing import Callable, Mapping, Sequence

from .errors import NotTwoPlayers
from .model import (
    DEFAULT_CAP,
    AgentId,
    Strategy,
    StrategyProfile,
    check_sequential,
    count_profiles,
    deviation_table,
    joint_strategies,
    outcome_indices,
    solution_map,  # noqa: F401  (bench/ and its self-tests look it up here)
)
from .preferences import RiskMeasure, WGame, apply_risk

# A player's strategy is a tuple of per-agent strategies, in model agent order.
PlayerStrategy = tuple[Strategy, ...]


def fmt_value(v: float) -> str:
    """Canonical rendering: 'inf'/'-inf' literals, else up to 12 significant
    digits."""
    if v == math.inf:
        return "inf"
    if v == -math.inf:
        return "-inf"
    return format(float(v), ".12g")


def strategy_labeller(game: WGame) -> Callable[[PlayerStrategy], str]:
    """The labeller of the game's player strategies: a label joins, by
    spaces, each agent's ``name:actions``, where ``name`` is the player's
    when she has a single agent and the agent's (player.stage) otherwise,
    and ``actions`` joins by ``|`` the action elements the agent's table
    plays at his atoms.  Each agent's name and action elements are read
    once, and each distinct :class:`Strategy` is labelled once."""
    assignment = game.players.assignment
    agents = {}
    for a in game.model.agents:
        player = assignment[a]
        name = player if len(game.agents_of(player)) == 1 else str(a)
        agents[a] = (name + ":", game.model.action_factors[a].elements)
    labels: dict[Strategy, str] = {}

    def strategy_label(s: Strategy) -> str:
        text = labels.get(s)
        if text is None:
            prefix, elements = agents[s.agent]
            text = labels[s] = prefix + "|".join([elements[i] for i in s.table])
        return text

    def label(ps: PlayerStrategy) -> str:
        return " ".join(map(strategy_label, ps))

    return label


def player_strategy_label(game: WGame, ps: PlayerStrategy) -> str:
    """The label of one player strategy (see :func:`strategy_labeller`)."""
    return strategy_labeller(game)(ps)


def count_player_strategies(game: WGame, player: str, cap: float = math.inf) -> int:
    """The player's strategy count, checked against ``cap`` as
    :func:`player_strategies` checks it."""
    return count_profiles(game.model, game.agents_of(player), cap, f"strategies of player {player!r}")


def player_strategies(
    game: WGame, player: str, cap: int = DEFAULT_CAP
) -> list[PlayerStrategy]:
    """All strategies of a player (product over her agents), lexicographic in
    agent declaration order."""
    agents = game.agents_of(player)
    return list(joint_strategies(game.model, agents, cap, f"strategies of player {player!r}"))


def assemble_profile(
    game: WGame, by_player: Mapping[str, PlayerStrategy]
) -> StrategyProfile:
    """Build a full profile from per-player strategy tuples."""
    queues = {p: list(ps) for p, ps in by_player.items()}
    strategies = []
    for a in game.model.agents:
        p = game.players.assignment[a]
        if p not in queues or not queues[p]:
            raise ValueError(f"missing strategy for agent {a} of player {p!r}")
        s = queues[p].pop(0)
        if s.agent != a:
            raise ValueError(f"strategy for agent {s.agent} given where {a} expected")
        strategies.append(s)
    return StrategyProfile(tuple(strategies))


@dataclass(eq=False, slots=True)
class Context:
    """The deviating ``agent`` against fixed strategies of every other agent.

    ``profile`` holds those strategies (its entry for ``agent`` is whichever
    built the context); ``head`` and ``tail`` are its entries before and
    after that one, so :meth:`splice` builds a deviation's profile.  In a
    sequential model, ``atoms[w]`` is the agent's information atom at Nature
    state ``w`` and ``outcomes[w][a]`` the flat outcome index when he plays
    action ``a`` there; in any other model both are ``None``.  ``memo`` maps
    a player to her memo key (a getter over strategy tables) and the values
    memoized under it.
    """

    agent: AgentId
    profile: StrategyProfile
    head: tuple[Strategy, ...]
    tail: tuple[Strategy, ...]
    atoms: list[int] | None
    outcomes: list[Sequence[int]] | None
    memo: dict[str, tuple[Callable, dict]] = field(default_factory=dict)

    def splice(self, deviation: Strategy) -> StrategyProfile:
        """The full profile where the agent plays ``deviation``."""
        return StrategyProfile(self.head + (deviation,) + self.tail)

    def key_atoms(self, risk: RiskMeasure) -> tuple[int, ...]:
        """The atoms of the positive-mass states of ``risk`` (its support;
        every state without a belief), ascending."""
        if risk.support is None:
            return tuple(sorted(set(self.atoms)))
        atoms = self.atoms
        return tuple(sorted({atoms[w] for w in risk.support[0]}))

    def memo_key(self, risk: RiskMeasure) -> Callable:
        """Getter of a strategy table's actions at :meth:`key_atoms`."""
        return itemgetter(*self.key_atoms(risk))


class Evaluator:
    """Memoizing normal-form evaluator bound to one game.

    :meth:`value` scores a full :class:`StrategyProfile` through
    :meth:`outcome_indices`, memoized per (player, profile), or a deviation
    from a :class:`Context`.  In a sequential model that value is memoized in
    the context per player under the deviator's actions at the atoms of her
    positive-mass states (all states when her risk has no belief); in any
    other model it is the value of the spliced profile.  :meth:`context`
    builds each context once per (deviating agent, strategies of every other
    agent) and is the only cache of contexts: solvers look every context up
    there.  ``evaluations`` counts the ``apply_risk`` calls actually made,
    not memo hits.
    """

    def __init__(self, game: WGame):
        self.game = game
        self.sequential_order = check_sequential(game.model)
        self._slots = {a: i for i, a in enumerate(game.model.agents)}
        self._outcomes: dict[StrategyProfile, list[int]] = {}
        self._values: dict[tuple[str, StrategyProfile], float] = {}
        self._contexts: dict[tuple, Context] = {}
        self.evaluations = 0

    def outcome_indices(self, profile: StrategyProfile) -> list[int]:
        """Configuration point index reached from each nature state, in
        nature enumeration order."""
        cached = self._outcomes.get(profile)
        if cached is not None:
            return cached
        indices = outcome_indices(self.game.model, profile, self.sequential_order)
        self._outcomes[profile] = indices
        return indices

    def context(self, agent: AgentId, profile: StrategyProfile) -> Context:
        """The context of ``agent`` against the other strategies of
        ``profile`` (his own entry is ignored), with a deviation table when
        the model is sequential."""
        strategies = profile.strategies
        at = self._slots[agent]
        head, tail = strategies[:at], strategies[at + 1:]
        key = (agent, head, tail)
        ctx = self._contexts.get(key)
        if ctx is None:
            order = self.sequential_order
            atoms = outcomes = None
            if order is not None:
                atoms, outcomes = deviation_table(self.game.model, agent, profile, order)
            ctx = self._contexts[key] = Context(agent, profile, head, tail, atoms, outcomes)
        return ctx

    def value(
        self,
        player: str,
        profile: StrategyProfile | Context,
        deviation: Strategy | None = None,
    ) -> float:
        """The player's normal-form value at a full ``profile``, or, given a
        ``deviation``, at the profile where the :class:`Context`'s deviating
        agent plays it."""
        data = self.game.data[player]
        if deviation is None:
            key = (player, profile)
            memo = self._values
            cached = memo.get(key)
            if cached is not None:
                return cached
            values = data.objective.values
            composed = [values[i] for i in self.outcome_indices(profile)]
        else:
            entry = profile.memo.get(player)
            if entry is None:
                if profile.outcomes is None:
                    # No table (non-sequential model): score the full profile.
                    return self.value(player, profile.splice(deviation))
                entry = profile.memo[player] = (profile.memo_key(data.risk), {})
            getter, memo = entry
            key = getter(deviation.table)
            cached = memo.get(key)
            if cached is not None:
                return cached
            table, values = deviation.table, data.objective.values
            composed = [values[row[table[a]]] for row, a in zip(profile.outcomes, profile.atoms)]
        v = apply_risk(data.risk, composed, data.objective.sense)
        memo[key] = v
        self.evaluations += 1
        return v


@dataclass(frozen=True)
class NormalFormMatrix:
    row_player: str
    col_player: str
    row_strategies: tuple[PlayerStrategy, ...]
    col_strategies: tuple[PlayerStrategy, ...]
    row_labels: tuple[str, ...]
    col_labels: tuple[str, ...]
    values: tuple[tuple[tuple[float, float], ...], ...]


def normal_form_matrix(
    game: WGame,
    cap: int = DEFAULT_CAP,
    evaluator: Evaluator | None = None,
) -> NormalFormMatrix:
    """Full two-player value matrix in deterministic enumeration order."""
    if len(game.players.players) != 2:
        raise NotTwoPlayers(len(game.players.players))
    row_player, col_player = game.players.players
    rows = player_strategies(game, row_player, cap)
    cols = player_strategies(game, col_player, cap)
    count_profiles(game.model, game.model.agents, cap, "matrix cells")
    if evaluator is None:
        evaluator = Evaluator(game)
    values = []
    for r in rows:
        row_vals = []
        for c in cols:
            profile = assemble_profile(game, {row_player: r, col_player: c})
            row_vals.append(
                (evaluator.value(row_player, profile), evaluator.value(col_player, profile))
            )
        values.append(tuple(row_vals))
    label = strategy_labeller(game)
    return NormalFormMatrix(
        row_player,
        col_player,
        tuple(rows),
        tuple(cols),
        tuple(map(label, rows)),
        tuple(map(label, cols)),
        tuple(values),
    )


def matrix_to_csv(matrix: NormalFormMatrix) -> str:
    """Header row = column strategy labels; each cell is "v1;v2" with
    inf/-inf literals."""
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow([""] + list(matrix.col_labels))
    for label, row in zip(matrix.row_labels, matrix.values):
        writer.writerow([label] + [f"{fmt_value(a)};{fmt_value(b)}" for a, b in row])
    return buf.getvalue()
