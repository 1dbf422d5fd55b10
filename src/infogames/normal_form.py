"""Normal-form evaluation: a player's risk measure applied to her objective
composed with the solution map, as a function of the strategy profile.

An :class:`Evaluator` scores a full profile through the solution map
(:func:`~infogames.model.outcome_indices`), memoized per (player, profile).
Equilibrium search instead scores unilateral deviations, each from an
internal :class:`Context`: the deviating agent against fixed strategies of
every other agent, built once per (deviating agent, those strategies), in any
model.  Contexts take strategies the solvers have already checked, so they
check nothing themselves.

In a sequential model, fixing every agent but the deviator fixes, at each
Nature state, his information atom and the outcome each of his actions leads
to.  The context holds that table (:func:`~infogames.model.deviation_table`),
built by |Nature| x |actions| forward substitutions along a plan: what the
table needs of the model alone (each other agent's profile slot, atom table
and stride, the one-atom agents folded into one offset, the Nature blocks),
which the model builds once per deviating agent and keeps.  So every
evaluator of a model, each with its own memos, reads the same plans.  A
deviation's value is then the same ``apply_risk`` call on the same composed
list as the profile path, so both paths agree bit for bit.  It is memoized
per player under the deviator's actions at the atoms of the player's
positive-mass states (every state when her risk has no belief): the other
states are dropped by ``apply_risk``, so deviations that agree there share
the value.  In any other model the context has no table, and a deviation is
spliced into its profile and scored on the profile path.  Evaluation is
pure, so every memo is a last-write-wins cache.  ``Evaluator.evaluations``
counts the risk evaluations actually computed, on either path.
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
    _require_profile,
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
    once; each call builds its label, so a caller that meets a strategy
    many times keeps the label it got."""
    assignment = game.players.assignment
    agents = {}
    for a in game.model.agents:
        player = assignment[a]
        name = player if len(game.agents_of(player)) == 1 else str(a)
        agents[a] = (name + ":", game.model.action_factors[a].elements)

    def strategy_label(s: Strategy) -> str:
        prefix, elements = agents[s.agent]
        return prefix + "|".join([elements[i] for i in s.table])

    def label(ps: PlayerStrategy) -> str:
        return " ".join(map(strategy_label, ps))

    return label


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

    ``head`` and ``tail`` are those strategies, the profile's entries before
    and after the agent's slot, so :meth:`splice` builds a deviation's
    profile.  ``atom_count`` is the agent's number of information atoms.  In
    a sequential model, ``atoms[w]`` is the agent's information atom at
    Nature state ``w`` and ``outcomes[w][a]`` the flat outcome index when he
    plays action ``a`` there; in any other model both are ``None``.
    ``memo`` maps a player to her memo key (a getter over strategy tables)
    and the values memoized under it.
    """

    agent: AgentId
    head: tuple[Strategy, ...]
    tail: tuple[Strategy, ...]
    atom_count: int
    atoms: list[int] | None
    outcomes: list[Sequence[int]] | None
    memo: dict[str, tuple[Callable, dict]] = field(default_factory=dict)

    def splice(self, deviation: Strategy) -> StrategyProfile:
        """The full profile where the agent plays ``deviation``."""
        return StrategyProfile(self.head + (deviation,) + self.tail)

    def key_atoms(self, risk: RiskMeasure) -> tuple[int, ...]:
        """The atoms a deviation's value reads, ascending: those of the
        positive-mass states of ``risk`` (its support; every state without a
        belief), or every atom of the agent when the context has no table."""
        atoms = self.atoms
        if atoms is None:
            return tuple(range(self.atom_count))
        if risk.support is None:
            return tuple(sorted(set(atoms)))
        return tuple(sorted({atoms[w] for w in risk.support[0]}))


class Evaluator:
    """Memoizing normal-form evaluator bound to one game.

    :meth:`value` scores a full :class:`StrategyProfile` through
    :meth:`outcome_indices`, memoized per (player, profile), or a deviation
    from a :class:`Context`.  In a sequential model that value is memoized in
    the context per player under the deviator's actions at the atoms of her
    positive-mass states (all states when her risk has no belief); in any
    other model it is the value of the spliced profile.  :meth:`_context`
    builds each context once per (deviating agent, strategies of every other
    agent) and is the only cache of contexts: solvers look every context up
    there.  ``evaluations`` counts the ``apply_risk`` calls actually made,
    not memo hits.  A context is read from strategies placed by agent slot,
    and a deviation is given as its agent's strategy table.
    """

    def __init__(self, game: WGame):
        self.game = game
        self._slots = {a: i for i, a in enumerate(game.model.agents)}
        self._outcomes: dict[StrategyProfile, list[int]] = {}
        self._values: dict[tuple[str, StrategyProfile], float] = {}
        self._contexts: dict[tuple, Context] = {}
        self.evaluations = 0

    def outcome_indices(self, profile: StrategyProfile) -> list[int]:
        """Configuration point index reached from each nature state, in
        nature enumeration order.  The profile must hold one valid strategy
        per agent in model order (``ValueError`` otherwise), which is checked
        once per profile, as :func:`~infogames.model.solution_map` checks
        it."""
        cached = self._outcomes.get(profile)
        if cached is not None:
            return cached
        _require_profile(self.game.model, profile)
        indices = self._outcomes[profile] = outcome_indices(self.game.model, profile)
        return indices

    def _context(self, agent: AgentId, strategies: Sequence[Strategy | None]) -> Context:
        """The context of ``agent`` against ``strategies``, one per agent in
        model agent order (his own entry is ignored and may be ``None``), with
        a deviation table when the model is sequential.  The entries before
        and after his are kept as tuple copies, so a caller may reuse its
        list.  The strategies are not checked: the solvers check them at
        entry or enumerate them."""
        at = self._slots[agent]
        head, tail = tuple(strategies[:at]), tuple(strategies[at + 1:])
        key = (agent, head, tail)
        ctx = self._contexts.get(key)
        if ctx is None:
            model = self.game.model
            atoms, outcomes = deviation_table(model, agent, strategies)
            size = model.info[agent].atom_count
            ctx = self._contexts[key] = Context(agent, head, tail, size, atoms, outcomes)
        return ctx

    def value(
        self,
        player: str,
        profile: StrategyProfile | Context,
        deviation: Sequence[int] | None = None,
    ) -> float:
        """The player's normal-form value at a full ``profile``, or, given a
        ``deviation`` table, at the profile where the :class:`Context`'s
        deviating agent plays it."""
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
                    # No table (non-sequential model): score the full profile,
                    # unchecked: its strategies were checked at entry.
                    full = profile.splice(Strategy(profile.agent, deviation))
                    if full not in self._outcomes:
                        self._outcomes[full] = outcome_indices(self.game.model, full)
                    return self.value(player, full)
                entry = profile.memo[player] = (itemgetter(*profile.key_atoms(data.risk)), {})
            getter, memo = entry
            key = getter(deviation)
            cached = memo.get(key)
            if cached is not None:
                return cached
            values = data.objective.values
            composed = [values[row[deviation[a]]] for row, a in zip(profile.outcomes, profile.atoms)]
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
