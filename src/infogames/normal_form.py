"""Normal-form evaluation: a player's risk measure applied to her objective
composed with the solution map, as a function of the strategy profile.

An :class:`Evaluator` scores a full profile through the solution map
(:func:`~infogames.model.outcome_indices`), memoized per (player, profile).
Equilibrium search instead scores unilateral deviations, each from an
internal :class:`Context`: the deviating player against fixed strategies of
every other player, built once per (player, those strategies), in any
model.  Contexts take strategies the solvers have already checked, so they
check nothing themselves.  A deviation is given as her digits: her agents'
tables, concatenated in model order.

In a sequential model, fixing every other player fixes, at each Nature
state, what each of her agents reads on each branch of her earlier actions
and the outcome of each of her joint actions.  The context holds that table
(:func:`~infogames.model.deviation_table`), built along a plan the model
builds once per group of deviating agents and keeps, so every evaluator of
a model, each with its own memos, reads the same plans.  A deviation's value
is then the same ``apply_risk`` call on the same composed list as the
profile path, so both paths agree bit for bit.  It is memoized per player
under what the deviation plays at her positive-mass states (every state
when her risk has no belief): one agent's actions at the atoms read there,
or the branch several agents end on there.  The other states are dropped by
``apply_risk``, so deviations that agree there share the value.  In any
other model the context has no table, and a deviation is spliced into its
profile and scored on the profile path.  Evaluation is pure, so every memo
is a last-write-wins cache.  ``Evaluator.evaluations`` counts the risk
evaluations actually computed, on either path.
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
    """The deviating ``player`` against fixed strategies of every other
    player's agents.

    A deviation is given as her *digits*: her agents' strategy tables,
    concatenated in model order, so digit ``d`` is one (agent, atom) pair
    and ``radix[d]`` that agent's action count.  ``parts`` gives each of her
    agents and the slice of the digits holding his table, and ``slots`` his
    profile slot.  ``head`` and ``tail`` are the profile's strategies before
    and after her first slot, ``None`` at her other slots, so :meth:`splice`
    builds a deviation's profile.

    In a sequential model, ``outcomes[w]`` is the flat outcome index of
    each branch of her actions at Nature state ``w`` (see
    :func:`~infogames.model.deviation_table`) and ``atoms[w]`` her atom
    there: a one-agent player's information atom, and for several agents
    the index in ``reads`` of what they read there: per agent in the
    sequential order, his action count and the digit he reads on each
    branch so far.  ``reads`` is ``None`` for one agent; in any other model
    all three are.  States of one atom end on the same branch, so a
    deviation's value reads the branch it ends on at each atom.  ``memo``
    maps a player to her memo entry (:meth:`entry`).
    """

    player: str
    head: tuple[Strategy | None, ...]
    tail: tuple[Strategy | None, ...]
    slots: tuple[int, ...]
    parts: tuple[tuple[AgentId, slice], ...]
    radix: tuple[int, ...]
    atoms: list[int] | None
    outcomes: list[Sequence[int]] | None
    reads: list | None
    memo: dict[str, tuple[tuple[int, ...], Callable, dict]] = field(default_factory=dict)

    def strategies(self, tables: Sequence[Sequence[int]]) -> list[PlayerStrategy]:
        """Her strategy playing each of ``tables``, her digits."""
        parts = self.parts
        if len(parts) == 1:
            agent = parts[0][0]
            return [(Strategy(agent, tuple(t)),) for t in tables]
        return [tuple([Strategy(agent, tuple(t[part])) for agent, part in parts]) for t in tables]

    def splice(self, strategy: PlayerStrategy) -> StrategyProfile:
        """The full profile where she plays ``strategy``."""
        if len(strategy) == 1:
            return StrategyProfile(self.head + strategy + self.tail)
        placed = [*self.head, None, *self.tail]
        for slot, s in zip(self.slots, strategy):
            placed[slot] = s
        return StrategyProfile(tuple(placed))

    def entry(self, player: str, risk: RiskMeasure) -> tuple[tuple[int, ...], Callable, dict]:
        """The memo entry of ``player``, whose risk is ``risk``, built on
        first use: her key digits, the getter of a deviation's memo key and
        the values memoized under it.

        The key atoms are the atoms of the positive-mass states of ``risk``
        (its support; every state without a belief).  The key digits are
        the digits read there on any branch, ascending, or every digit when
        the context has no table.  A deviation's memo key is the branch it
        ends on at each key atom (:func:`_branches`): for one agent, his
        action there."""
        entry = self.memo.get(player)
        if entry is None:
            atoms, reads = self.atoms, self.reads
            if atoms is None:
                digits: tuple[int, ...] = tuple(range(len(self.radix)))
                getter = None
            else:
                support = range(len(atoms)) if risk.support is None else risk.support[0]
                key = tuple(sorted({atoms[w] for w in support}))
                getter = itemgetter(*key)
                digits = key if reads is None else tuple(sorted({d for a in key for _, read in reads[a] for d in read}))
            entry = self.memo[player] = (digits, getter, {})
        return entry


def _branches(reads: Sequence, deviation: Sequence[int]) -> list[int]:
    """The branch a deviation's digits end on at each of several agents'
    atoms, given each atom's ``reads`` (see :class:`Context`)."""
    out = []
    for at in reads:
        branch = 0
        for count, read in at:
            branch = branch * count + deviation[read[branch]]
        out.append(branch)
    return out


class Evaluator:
    """Memoizing normal-form evaluator bound to one game.

    :meth:`value` scores a full :class:`StrategyProfile` through
    :meth:`outcome_indices`, memoized per (player, profile), or a deviation
    from a :class:`Context`.  In a sequential model that value is memoized in
    the context per player under its memo key (:meth:`Context.entry`); in any
    other model it is the value of the spliced profile.  :meth:`_context`
    builds each context once per (deviating player, strategies of every
    other player) and is the only cache of contexts: solvers look every
    context up there.  ``evaluations`` counts the ``apply_risk`` calls
    actually made, not memo hits.  A context is read from strategies placed
    by agent slot, and a deviation is given as its digits.
    """

    def __init__(self, game: WGame):
        self.game = game
        agents = game.model.agents
        self._slots = {p: tuple(map(agents.index, game.agents_of(p))) for p in game.players.players}
        self._layouts: dict[str, tuple] = {}
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

    def _layout(self, player: str) -> tuple:
        """The player's agents, the ``parts`` and ``radix`` of her contexts
        (see :class:`Context`) and, for several agents in a sequential model,
        their action counts in the sequential order; built on first use."""
        layout = self._layouts.get(player)
        if layout is None:
            model = self.game.model
            agents = self.game.agents_of(player)
            parts, radix = [], []
            for a in agents:
                size = model.info[a].atom_count
                parts.append((a, slice(len(radix), len(radix) + size)))
                radix += [model.action_factors[a].size] * size
            order = model.sequential_order
            counts = None
            if order is not None and len(agents) > 1:
                counts = tuple(model.action_factors[a].size for a in order if a in agents)
            layout = self._layouts[player] = (agents, tuple(parts), tuple(radix), counts)
        return layout

    def _context(self, player: str, strategies: Sequence[Strategy | None]) -> Context:
        """The context of ``player`` against ``strategies``, one per agent in
        model agent order (her own entries are ignored and may be ``None``),
        with her deviation table when the model is sequential.  The other
        entries are kept as a tuple copy, so a caller may reuse its list.
        The strategies are not checked: the solvers check them at entry or
        enumerate them."""
        slots = self._slots[player]
        others = list(strategies)
        for slot in slots:
            others[slot] = None
        key = (player, tuple(others))
        ctx = self._contexts.get(key)
        if ctx is None:
            agents, parts, radix, counts = self._layout(player)
            others, at = key[1], slots[0]
            atoms, outcomes = deviation_table(self.game.model, agents, others)
            reads = None
            if counts is not None:
                ids: dict = {}
                atoms = [ids.setdefault(read, len(ids)) for read in atoms]
                reads = [tuple(zip(counts, read)) for read in ids]
            ctx = Context(player, others[:at], others[at + 1:], slots, parts, radix, atoms, outcomes, reads)
            self._contexts[key] = ctx
        return ctx

    def value(
        self,
        player: str,
        profile: StrategyProfile | Context,
        deviation: Sequence[int] | None = None,
    ) -> float:
        """The player's normal-form value at a full ``profile``, or, given a
        ``deviation``'s digits, at the profile where the :class:`Context`'s
        deviating player plays it."""
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
            if profile.outcomes is None:
                # No table (non-sequential model): score the full profile,
                # unchecked: its strategies were checked at entry.
                full = profile.splice(profile.strategies([deviation])[0])
                if full not in self._outcomes:
                    self._outcomes[full] = outcome_indices(self.game.model, full)
                return self.value(player, full)
            _, getter, memo = profile.memo.get(player) or profile.entry(player, data.risk)
            reads = profile.reads
            ends = deviation if reads is None else _branches(reads, deviation)
            key = getter(ends)
            cached = memo.get(key)
            if cached is not None:
                return cached
            values = data.objective.values
            composed = [values[row[ends[a]]] for row, a in zip(profile.outcomes, profile.atoms)]
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
