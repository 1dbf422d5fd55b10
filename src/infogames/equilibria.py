"""Best responses, Nash equilibria, and leader-follower (Stackelberg) search.

Everything here is exact with hard caps and deterministic ordering: ties are
all included, in enumeration-index order, and every reported Nash profile is
re-verified, on an evaluator that shares no memo with the search, against
every unilateral deviation before emission.  Extended-real values participate
in the argmin/argmax directly; a best-response set whose every member sits at
the adverse infinity is returned in full with a diagnostic flag.

The search enumerates strategies, except for a one-agent player judged by her
normal-form value in a sequential model: her value in a context reads her
actions only at her memo-key atoms, so her best-response set is built by
scoring each key once (see :class:`_Session`), with the same values, members,
order, evaluations and caps as enumeration.  Every normal-form value is read
from an evaluator context, in sequential and non-sequential models alike, and
every reported profile's values from the contexts of the last follower (see
:meth:`_Session.records`).  The joint profiles of several players are walked
by strategy index, each member's statuses read once per context of hers (see
:meth:`_Session.nash`), so no profile is built to be checked.  Player
strategies given to a public solver are checked once, at entry.

Optimistic, pessimistic and theta leader anticipation are interpreted with
respect to the leader's objective sense: optimistic picks the follower best
response most favorable to the leader (sup of a payoff, inf of a cost),
pessimistic the least favorable, and theta the convex combination of the two.
"""

from __future__ import annotations

import itertools
import math
import operator
from dataclasses import dataclass
from operator import itemgetter
from typing import Mapping, Sequence

from .errors import EmptyFollowerResponse, IndeterminateValue
from .model import DEFAULT_CAP, Strategy, StrategyProfile, count_profiles, validate_strategy
from .normal_form import (
    Context,
    Evaluator,
    PlayerStrategy,
    assemble_profile,  # noqa: F401  (bench/ and the tests wrap it here to count calls)
    count_player_strategies,
    player_strategies,
)
from .preferences import Sense, WGame, _adverse_tail_mean, _expectation

# A joint assignment for a group of players, in declaration order.
GroupProfile = tuple[tuple[str, PlayerStrategy], ...]


@dataclass(frozen=True)
class StackelbergMode:
    """Leader anticipation rule over the followers' best-response set.

    ``theta`` blends pessimistic and optimistic and collapses to those modes
    at 0 and 1, so equivalent modes compare (and render) equal.  ``risk``
    applies a functional to the best-response-indexed value table: one of
    "expectation-uniform", "worst-case", or ("cvar", alpha), uniform mass on
    the set.
    """

    kind: str
    theta: float | None = None
    risk: object = None

    def __post_init__(self):
        if self.kind not in ("optimistic", "pessimistic", "theta", "leader-risk"):
            raise ValueError(f"unknown Stackelberg mode {self.kind!r}")
        if self.kind == "theta":
            if self.theta is None or not 0 <= self.theta <= 1:
                raise ValueError("theta must lie in [0, 1]")
            if self.theta == 1:
                object.__setattr__(self, "kind", "optimistic")
                object.__setattr__(self, "theta", None)
            elif self.theta == 0:
                object.__setattr__(self, "kind", "pessimistic")
                object.__setattr__(self, "theta", None)
        if self.kind == "leader-risk":
            ok = self.risk in ("expectation-uniform", "worst-case") or (
                isinstance(self.risk, tuple)
                and len(self.risk) == 2
                and self.risk[0] == "cvar"
                and 0 < self.risk[1] <= 1
            )
            if not ok:
                raise ValueError(f"unknown leader-risk functional {self.risk!r}")

    def describe(self) -> str:
        if self.kind == "theta":
            return f"theta={format(self.theta, '.12g')}"
        if self.kind == "leader-risk":
            if isinstance(self.risk, tuple):
                return f"leader-risk=cvar:{format(self.risk[1], '.12g')}"
            return f"leader-risk={self.risk}"
        return self.kind


OPTIMISTIC = StackelbergMode("optimistic")
PESSIMISTIC = StackelbergMode("pessimistic")


def theta_mode(theta: float) -> StackelbergMode:
    return StackelbergMode("theta", theta=theta)


def leader_risk_mode(risk) -> StackelbergMode:
    return StackelbergMode("leader-risk", risk=risk)


@dataclass(frozen=True)
class BestResponseSet:
    player: str
    context: GroupProfile
    strategies: tuple[PlayerStrategy, ...]
    value: float
    all_adverse: bool = False


@dataclass(frozen=True)
class Diagnostics:
    profiles_enumerated: int = 0
    ties: int = 0
    infeasible_leader_profiles: int = 0
    all_adverse: bool = False


@dataclass(frozen=True)
class ProfileRecord:
    by_player: GroupProfile
    profile: StrategyProfile
    values: tuple[tuple[str, float], ...]


@dataclass(frozen=True)
class EquilibriumReport:
    kind: str
    profiles: tuple[ProfileRecord, ...]
    diagnostics: Diagnostics
    mode: StackelbergMode | None = None


def _context_key(game: WGame, player: str, assignment: Mapping[str, PlayerStrategy]):
    # Leader-level assignments carry no follower entries.
    return tuple(
        (q, assignment[q]) for q in game.players.players if q != player and q in assignment
    )


def best_responses(
    game: WGame,
    player: str,
    others: Mapping[str, PlayerStrategy],
    evaluator: Evaluator | None = None,
    cap: int = DEFAULT_CAP,
) -> BestResponseSet:
    """Exhaustive argmin (cost) / argmax (payoff) of the player's normal-form
    value against a fixed context, ties included in enumeration order."""
    expected = set(game.players.players) - {player}
    if set(others) != expected:
        raise ValueError(
            f"context must fix exactly the other players {sorted(expected)}"
        )
    _require_strategies(game, others)
    count_player_strategies(game, player, cap)
    rs = _Session(game, evaluator, cap).responses(player, others)
    return BestResponseSet(
        player,
        _context_key(game, player, others),
        rs.strategies(),
        rs.value,
        all_adverse=(rs.value == game.data[player].objective.sense.adverse),
    )


def _spread(size: int, positions: Sequence[int], actions: Sequence[int]) -> tuple[int, ...]:
    """The table of ``size`` atoms playing ``actions`` at ``positions`` and
    action 0 elsewhere."""
    table = [0] * size
    for pos, a in zip(positions, actions):
        table[pos] = a
    return tuple(table)


@dataclass(eq=False, slots=True)
class _Responses:
    """A player's best-response set in one context: her strategies whose
    judged value is the best, ``value`` (``None`` when none has one), in
    enumeration order.  ``infeasible`` counts her strategies without a judged
    value.

    A keyed player's set is built from her memo key
    (:meth:`~infogames.normal_form.Context.key_atoms`) in her context ``ctx``.
    Her value reads her actions only at the key ``atoms``, so each key is
    scored once, on the lexicographically smallest table carrying it (zeros
    elsewhere), which is the table enumeration meets first.  ``keys`` are the
    keys scoring ``value``, in lexicographic order.  A table of ``size``
    atoms and ``count`` actions is a member iff its actions at ``atoms`` form
    one of ``keys``; every action is allowed at the other atoms.  Any other
    player's set lists its ``members`` and keeps the judged ``values`` of all
    her strategies.
    """

    value: float | None
    infeasible: int = 0
    members: tuple[PlayerStrategy, ...] | None = None
    values: Sequence[float | None] = ()
    ctx: Context | None = None
    size: int = 0
    count: int = 0
    atoms: tuple[int, ...] = ()
    keys: Sequence[tuple[int, ...]] = ()

    def tables(self, positions: Sequence[int]) -> list[tuple[int, ...]]:
        """The members' actions at ``positions`` (ascending, containing the
        key atoms), each once, in lexicographic order."""
        trie: dict = {}
        for key in self.keys:
            node = trie
            for a in key:
                node = node.setdefault(a, {})
        # Keys are inserted in lexicographic order, so every node lists its
        # children in ascending order.
        in_key = set(self.atoms)
        actions = range(self.count)
        level: list = [((), trie)]
        for pos in positions:
            if pos in in_key:
                level = [(t + (a,), sub) for t, node in level for a, sub in node.items()]
            else:
                level = [(t + (a,), node) for t, node in level for a in actions]
        return [t for t, _ in level]

    def statuses(self, space: Sequence[PlayerStrategy]) -> list[bool | None]:
        """Whether each strategy of ``space`` (all of the player's, in
        enumeration order) is a member, or ``None`` when it has no judged
        value."""
        if self.members is not None:
            best = self.value
            return [None if v is None else v == best for v in self.values]
        keys = set(self.keys)
        atoms = self.atoms
        return [tuple([s.table[a] for a in atoms]) in keys for (s,) in space]

    def strategies(self) -> tuple[PlayerStrategy, ...]:
        """Every member, in enumeration order."""
        if self.members is not None:
            return self.members
        agent = self.ctx.agent
        return tuple((Strategy(agent, t),) for t in self.tables(range(self.size)))

    def leader_values(self, evaluator: Evaluator, leader: str, multiset: bool) -> list[float]:
        """The leader's values at the members, scored from the context once
        per distinct leader memo key in member order: every member's value
        in member order with ``multiset``, else each distinct key's once.

        The first member carrying a leader key has zeros off the key atoms of
        both players, so walking the members' actions at those atoms meets
        the keys in member order, each at the table enumeration scores."""
        ctx = self.ctx
        lead = ctx.key_atoms(evaluator.game.data[leader].risk)
        positions = range(self.size) if multiset else sorted({*self.atoms, *lead})
        key_of = itemgetter(*(positions.index(a) for a in lead))
        scored: dict = {}
        out = []
        for t in self.tables(positions):
            key = key_of(t)
            if key not in scored:
                table = _spread(self.size, positions, t)
                scored[key] = evaluator.value(leader, ctx, Strategy(ctx.agent, table))
            out.append(scored[key])
        return out if multiset else list(scored.values())


class _Session:
    """Shared caches for one equilibrium computation.

    Every solver is :meth:`nash` on some group of players.  With a Stackelberg
    ``mode``, a leader is judged by her anticipated value over the followers'
    joint best responses to the leaders' profile; followers, and every player
    of a session without a mode, by the normal-form value.

    Normal-form values are scored from the evaluator's contexts, in every
    model (see :class:`~infogames.normal_form.Evaluator`).  A player deviates
    through her last agent; the session places the other players' strategies
    and her other agents' by agent slot and looks the context up in the
    evaluator, its only cache, once per run of candidates sharing those, so
    no profile is assembled per candidate (:meth:`_walk`, which
    :meth:`scores` and :meth:`records` share).

    :meth:`responses` returns a player's best-response set in a context.  A
    one-agent player judged by the normal-form value in a sequential model is
    *keyed*: her set scores each of her memo keys once instead of each of her
    strategies, and lists members only when a caller needs them.  A leader's
    anticipation over a single keyed follower's set scores that context once
    per distinct leader memo key.  Everything else (leaders judged by
    anticipation, multi-agent players, non-sequential models, and the joint
    profiles of several players) enumerates strategies.  :meth:`nash` walks
    the joint profiles by strategy index and reads each member's status in
    her context from her response set, built on the first visit.

    :meth:`records` reads every player's value from the contexts of one
    ``deviator``, the last follower (the last player when there are none),
    whose contexts the search has built, one run (:meth:`runs`) at a time.
    """

    def __init__(
        self,
        game: WGame,
        evaluator: Evaluator | None,
        cap: int,
        mode: StackelbergMode | None = None,
    ):
        self.game = game
        self.evaluator = evaluator if evaluator is not None else Evaluator(game)
        self.cap = cap
        self.mode = mode
        self._keyed = frozenset(
            p
            for p in game.players.players
            if self.evaluator.sequential_order is not None
            and len(game.agents_of(p)) == 1
            and (mode is None or p not in game.leaders)
        )
        followers = game.followers
        # A single keyed follower: leader anticipation reads her response sets.
        self._keyed_follower = (
            followers[0] if len(followers) == 1 and followers[0] in self._keyed else None
        )
        self.deviator = (followers or game.players.players)[-1]
        agents = game.model.agents
        # Each player's agents' positions in a profile.
        self._slots = {p: tuple(map(agents.index, game.agents_of(p))) for p in game.players.players}
        self._spaces: dict[str, list[PlayerStrategy]] = {}
        self._responses: dict = {}
        self._anticipated: dict = {}
        self._followers_nash: dict = {}

    def space(self, player: str) -> list[PlayerStrategy]:
        if player not in self._spaces:
            self._spaces[player] = player_strategies(self.game, player, self.cap)
        return self._spaces[player]

    def count(self, players: Sequence[str]) -> int:
        """The group's joint profile count, checked against the cap."""
        return count_profiles(
            self.game.model,
            [a for p in players for a in self.game.agents_of(p)],
            self.cap,
            f"profiles of players {list(players)}",
        )

    def _place(self, fixed: Mapping[str, PlayerStrategy], deviator: str) -> list:
        """A profile's strategies, placed by agent slot: those of every player
        of ``fixed`` but ``deviator``, and ``None`` at her slots."""
        placed: list = [None] * len(self.game.model.agents)
        for q, ps in fixed.items():
            if q != deviator:
                for slot, s in zip(self._slots[q], ps):
                    placed[slot] = s
        return placed

    def _profile(self, placed: list, player: str, ps: PlayerStrategy) -> StrategyProfile:
        """The ``placed`` profile where ``player`` plays ``ps``, which this
        writes into ``placed`` at her slots."""
        for slot, s in zip(self._slots[player], ps):
            placed[slot] = s
        return StrategyProfile(tuple(placed))

    def _context(self, placed: list, deviator: str, candidate: PlayerStrategy) -> Context:
        """The evaluator's context of ``deviator``'s last agent when her
        agents play ``candidate``'s strategies in the ``placed`` profile."""
        return self.evaluator.context(candidate[-1].agent, self._profile(placed, deviator, candidate))

    def _walk(
        self, deviator: str, fixed: Mapping[str, PlayerStrategy], candidates
    ) -> list[tuple[Context, Sequence[PlayerStrategy]]]:
        """Where ``deviator``'s ``candidates`` are scored against the other
        players' strategies in ``fixed``, as runs ``(ctx, run)`` in candidate
        order.  A run is the consecutive candidates sharing her other agents'
        strategies and ``ctx`` her last agent's context, looked up once per
        run."""
        placed = self._place(fixed, deviator)
        out = []
        for _, group in itertools.groupby(candidates, key=itemgetter(slice(-1))):
            run = list(group)
            out.append((self._context(placed, deviator, run[0]), run))
        return out

    def scores(
        self,
        player: str,
        deviator: str,
        fixed: Mapping[str, PlayerStrategy],
        candidates: Sequence[PlayerStrategy],
    ) -> list[float]:
        """Normal-form values of ``player`` when ``deviator`` plays each of
        ``candidates`` against the other players' strategies in ``fixed``."""
        value = self.evaluator.value
        walk = self._walk(deviator, fixed, candidates)
        return [value(player, ctx, c[-1]) for ctx, run in walk for c in run]

    def records(
        self,
        deviator: str,
        fixed: Mapping[str, PlayerStrategy],
        candidates: Sequence[PlayerStrategy],
    ) -> list[ProfileRecord]:
        """The full profiles where ``deviator`` plays each of ``candidates``
        against the other players' strategies in ``fixed``, with every
        player's normal-form value.

        Each candidate's last-agent strategy is spliced into its run's
        context (:meth:`~infogames.normal_form.Context.splice`), and each
        player's value is read from the context: in a sequential model, the
        context's memo entry for it, the member's own entry, not a set's
        best, since tied keys compare equal but may differ in the sign of
        zero."""
        value = self.evaluator.value
        players = self.game.players.players
        slot = players.index(deviator)
        before = tuple((p, fixed[p]) for p in players[:slot])
        after = tuple((p, fixed[p]) for p in players[slot + 1:])
        out = []
        for ctx, run in self._walk(deviator, fixed, candidates):
            for c in run:
                s = c[-1]
                out.append(
                    ProfileRecord(
                        before + ((deviator, c),) + after,
                        ctx.splice(s),
                        tuple([(p, value(p, ctx, s)) for p in players]),
                    )
                )
        return out

    def value(self, player: str, assignment: Mapping[str, PlayerStrategy]) -> float:
        """The player's normal-form value at the full ``assignment``."""
        c = assignment[player]
        ctx = self._context(self._place(assignment, player), player, c)
        return self.evaluator.value(player, ctx, c[-1])

    def runs(self, leaders: Mapping[str, PlayerStrategy]) -> list[tuple[dict, Sequence]]:
        """The full profiles over the followers' joint best responses to
        ``leaders``, in enumeration order, as runs sharing every strategy but
        the ``deviator``'s: each run is those strategies and her candidates.
        Responses vary the last follower fastest, so each run is scored from
        one context.  A single follower's joint best responses are her
        best-response set, one run."""
        followers = self.game.followers
        if not followers:
            return [(leaders, (leaders[self.deviator],))]
        if len(followers) == 1:
            self.count(followers)
            return [(leaders, self.responses(self.deviator, leaders).strategies())]
        return [
            ({**leaders, **dict(head)}, [fp[-1][1] for fp in group])
            for head, group in itertools.groupby(
                self.followers_nash(leaders), key=itemgetter(slice(-1))
            )
        ]

    def judged(self, player: str, assignment: Mapping[str, PlayerStrategy]) -> float | None:
        """The value the player is judged by; ``None`` for a leader whose
        followers have no joint best response."""
        if self.mode is None or player not in self.game.leaders:
            return self.value(player, assignment)
        leaders = {ld: assignment[ld] for ld in self.game.leaders}
        key = (player, tuple(leaders.values()))
        if key not in self._anticipated:
            if self._keyed_follower is not None:
                self.count(self.game.followers)
                rs = self.responses(self._keyed_follower, leaders)
                multiset = self.mode.kind == "leader-risk"
                values = rs.leader_values(self.evaluator, player, multiset)
            elif not self.game.followers:
                self.followers_nash(leaders)
                values = [self.value(player, leaders)]
            else:
                values = []
                for fixed, candidates in self.runs(leaders):
                    values += self.scores(player, self.deviator, fixed, candidates)
            sense = self.game.data[player].objective.sense
            self._anticipated[key] = _anticipate(values, sense, self.mode) if values else None
        return self._anticipated[key]

    def judged_all(
        self, player: str, fixed: Mapping[str, PlayerStrategy]
    ) -> list[float | None]:
        """Judged value of each of the player's strategies, in enumeration
        order, against the other players' strategies in ``fixed``."""
        space = self.space(player)
        if self.mode is None or player not in self.game.leaders:
            return self.scores(player, player, fixed, space)
        return [self.judged(player, {**fixed, player: cand}) for cand in space]

    def best_of(self, player: str, values: Sequence[float | None]) -> float | None:
        """The first best of the values that are not ``None``."""
        sense = self.game.data[player].objective.sense
        best: float | None = None
        for v in values:
            if v is not None and (best is None or sense.better(v, best)):
                best = v
        return best

    def responses(self, player: str, fixed: Mapping[str, PlayerStrategy]) -> _Responses:
        """The player's best-response set against the other players'
        strategies in ``fixed``, built once per context.  A keyed player's
        keys are scored in lexicographic order, which is the order
        enumeration meets them in."""
        others = _context_key(self.game, player, fixed)
        rs = self._responses.get((player, others))
        if rs is not None:
            return rs
        if player not in self._keyed:
            values = self.judged_all(player, fixed)
            best = self.best_of(player, values)
            # A strategy without a judged value (None) never equals a float.
            hits = map(operator.eq, values, itertools.repeat(best)) if best is not None else ()
            members = tuple(itertools.compress(self.space(player), hits))
            rs = _Responses(best, values.count(None), members, values)
        else:
            (agent,) = self.game.agents_of(player)
            size = self.game.model.info[agent].atom_count
            count = self.game.model.action_factors[agent].size
            zeros = Strategy(agent, (0,) * size)
            ctx = self._context(self._place(fixed, player), player, (zeros,))
            atoms = ctx.key_atoms(self.game.data[player].risk)
            keys = list(itertools.product(range(count), repeat=len(atoms)))
            values = []
            for key in keys:
                # keys[0] is all zeros, the table the context was built with.
                rep = Strategy(agent, _spread(size, atoms, key)) if any(key) else zeros
                values.append(self.evaluator.value(player, ctx, rep))
            best = self.best_of(player, values)
            keys = [k for k, v in zip(keys, values) if v == best]
            rs = _Responses(best, ctx=ctx, size=size, count=count, atoms=atoms, keys=keys)
        self._responses[(player, others)] = rs
        return rs

    def nash(
        self, players: Sequence[str], fixed: Mapping[str, PlayerStrategy]
    ) -> tuple[tuple[GroupProfile, ...], int, int, bool]:
        """Joint profiles of the group, in enumeration order, against the
        ``fixed`` others, where every member's judged value equals her best
        over unilateral deviations.

        Returns the profiles, the number enumerated, the number without a
        judged value, and whether some best value was the adverse infinity.
        Members are checked in order and the first failure ends a profile's
        check, which fixes both the set of evaluations and that flag.  A
        one-player group has a single context, so it is her best-response
        set (:meth:`responses`).

        Several players are walked by strategy index: profile ``flat`` in
        enumeration order gives member ``k`` the index
        ``flat // strides[k] % sizes[k]``, and removing her term from
        ``flat`` numbers the other members' indices.  Per member, that
        number keys the status of each of her strategies in that context
        (member, not a member, or ``None`` without a judged value).  The
        first visit to a context makes the calls a per-profile check makes,
        :meth:`judged` then :meth:`responses`, and fills the statuses from
        the response set; later visits read them, so no profile is built.
        A first visit without a judged value fills nothing, so the next one
        repeats those calls, as a per-profile check would.
        """
        total = self.count(players)
        if len(players) == 1:
            (p,) = players
            rs = self.responses(p, fixed)
            all_adverse = rs.value == self.game.data[p].objective.sense.adverse
            return tuple([((p, c),) for c in rs.strategies()]), total, rs.infeasible, all_adverse
        spaces = [self.space(p) for p in players]
        sizes = [len(space) for space in spaces]
        strides = [math.prod(sizes[k + 1:]) for k in range(len(players))]

        def combo(flat: int) -> list[PlayerStrategy]:
            return [space[flat // qs % qn] for space, qs, qn in zip(spaces, strides, sizes)]

        members = [
            (p, space, stride, size, {}, self.game.data[p].objective.sense.adverse)
            for p, space, stride, size in zip(players, spaces, strides, sizes)
        ]
        found: list[GroupProfile] = []
        infeasible = 0
        all_adverse = False
        for flat in range(total):
            for p, space, stride, size, seen, adverse in members:
                i = flat // stride % size
                others = flat - i * stride
                entry = seen.get(others)
                if entry is None:
                    assignment = dict(fixed)
                    assignment.update(zip(players, combo(flat)))
                    if self.judged(p, assignment) is None:
                        infeasible += 1
                        break
                    rs = self.responses(p, assignment)
                    entry = seen[others] = (rs.statuses(space), rs.value == adverse)
                statuses, best_adverse = entry
                status = statuses[i]
                if status is None:
                    infeasible += 1
                    break
                if best_adverse:
                    all_adverse = True
                if not status:
                    break
            else:
                found.append(tuple(zip(players, combo(flat))))
        return tuple(found), total, infeasible, all_adverse

    def followers_nash(self, leaders: Mapping[str, PlayerStrategy]) -> tuple[GroupProfile, ...]:
        key = tuple(leaders[ld] for ld in self.game.leaders)
        if key not in self._followers_nash:
            self._followers_nash[key] = self.nash(self.game.followers, leaders)[0]
        return self._followers_nash[key]


def _theta_combine(theta: float, optimistic: float, pessimistic: float) -> float:
    if math.isinf(optimistic) or math.isinf(pessimistic):
        if optimistic == pessimistic:
            return optimistic
        if math.isinf(optimistic) and math.isinf(pessimistic):
            raise IndeterminateValue(
                "theta combination of opposite infinities is undefined"
            )
        return optimistic if math.isinf(optimistic) else pessimistic
    return theta * optimistic + (1 - theta) * pessimistic


def _anticipate(values: list[float], sense: Sense, mode: StackelbergMode) -> float:
    if mode.kind == "optimistic":
        return sense.best(values)
    if mode.kind == "pessimistic":
        return sense.worst(values)
    if mode.kind == "theta":
        assert mode.theta is not None
        return _theta_combine(mode.theta, sense.best(values), sense.worst(values))
    # leader-risk: uniform mass over the best-response set
    masses = [1.0 / len(values)] * len(values)
    if mode.risk == "expectation-uniform":
        return _expectation(values, masses)
    if mode.risk == "worst-case":
        return sense.worst(values)
    assert isinstance(mode.risk, tuple)
    return _adverse_tail_mean(list(zip(values, masses)), mode.risk[1], sense)


def nash_equilibria(
    game: WGame,
    evaluator: Evaluator | None = None,
    cap: int = DEFAULT_CAP,
) -> EquilibriumReport:
    """All profiles where each player's strategy lies in her best-response
    set, in enumeration order."""
    session = _Session(game, evaluator, cap)
    found, total, _, all_adverse = session.nash(game.players.players, {})
    fresh = Evaluator(game)
    deviator = session.deviator
    records = []
    for group in found:
        assignment = dict(group)
        _verify_no_improving_deviation(session, fresh, assignment)
        records += session.records(deviator, assignment, [assignment[deviator]])
    diag = Diagnostics(
        profiles_enumerated=total,
        ties=max(0, len(records) - 1),
        all_adverse=all_adverse,
    )
    return EquilibriumReport("nash", tuple(records), diag)


def _verify_no_improving_deviation(
    session: _Session, evaluator: Evaluator, assignment: Mapping[str, PlayerStrategy]
) -> None:
    """Independent re-check on an evaluator that shares no memo with the
    search: no unilateral deviation strictly improves.  A failure is a fault
    of the solver, not a property of the game, so it raises."""
    game = session.game
    for p in game.players.players:
        sense = game.data[p].objective.sense
        placed = session._place(assignment, p)
        v = evaluator.value(p, session._profile(placed, p, assignment[p]))
        for cand in session.space(p):
            alt = evaluator.value(p, session._profile(placed, p, cand))
            if sense.better(alt, v):
                raise RuntimeError(
                    f"reported Nash profile fails re-verification: player {p!r} "
                    "has a strictly improving deviation"
                )


def followers_nash(
    game: WGame,
    leaders_profile: Mapping[str, PlayerStrategy],
    evaluator: Evaluator | None = None,
    cap: int = DEFAULT_CAP,
) -> tuple[GroupProfile, ...]:
    """All follower joint profiles where each follower best-responds to the
    other followers and the fixed leaders."""
    _require_leaders_profile(game, leaders_profile)
    session = _Session(game, evaluator, cap)
    return session.followers_nash(leaders_profile)


def leader_value(
    game: WGame,
    leader: str,
    leaders_profile: Mapping[str, PlayerStrategy],
    mode: StackelbergMode,
    evaluator: Evaluator | None = None,
    cap: int = DEFAULT_CAP,
) -> float:
    """The leader's anticipated value at a leaders' profile under the mode."""
    _require_leaders_profile(game, leaders_profile)
    if leader not in game.leaders:
        raise ValueError(f"{leader!r} is not a declared leader")
    v = _Session(game, evaluator, cap, mode).judged(leader, leaders_profile)
    if v is None:
        raise EmptyFollowerResponse(dict(leaders_profile))
    return v


def _require_leaders_profile(game: WGame, leaders_profile: Mapping[str, PlayerStrategy]):
    _require_roles(game)
    if set(leaders_profile) != set(game.leaders):
        raise ValueError("leaders_profile must fix exactly the declared leaders")
    _require_strategies(game, leaders_profile)


def _require_strategies(game: WGame, by_player: Mapping[str, PlayerStrategy]):
    """Each given player strategy holds one valid strategy per agent of the
    player, in model order.  The solvers place strategies by agent slot and
    index tables by atom and action without further checks."""
    for q, ps in by_player.items():
        agents = game.agents_of(q)
        if tuple(s.agent for s in ps) != agents:
            raise ValueError(
                f"the strategy of player {q!r} must hold one strategy per agent "
                f"({', '.join(map(str, agents))}), in model order"
            )
        for s in ps:
            validate_strategy(game.model, s)


def _require_roles(game: WGame):
    if not game.leaders:
        raise ValueError("game declares no leaders")


def _stackelberg_in_session(session: _Session) -> tuple[tuple[GroupProfile, ...], Diagnostics]:
    leader_set, enumerated, infeasible, _ = session.nash(session.game.leaders, {})
    if infeasible == enumerated:
        raise EmptyFollowerResponse({})
    diag = Diagnostics(
        profiles_enumerated=enumerated,
        ties=max(0, len(leader_set) - 1),
        infeasible_leader_profiles=infeasible,
    )
    return leader_set, diag


def stackelberg_strategies(
    game: WGame,
    mode: StackelbergMode,
    evaluator: Evaluator | None = None,
    cap: int = DEFAULT_CAP,
) -> tuple[tuple[GroupProfile, ...], Diagnostics]:
    """Leader profiles where each leader's strategy is optimal for her
    anticipated value (:func:`leader_value`) given the other leaders fixed:
    Nash among the leaders, which for a single leader is the arg-best.

    Leader profiles whose followers have no joint best response are excluded
    from the arg-best and counted in the diagnostics rather than silently
    skipped; if every profile is infeasible, :class:`EmptyFollowerResponse`
    is raised.
    """
    _require_roles(game)
    return _stackelberg_in_session(_Session(game, evaluator, cap, mode))


def nash_stackelberg(
    game: WGame,
    mode: StackelbergMode,
    evaluator: Evaluator | None = None,
    cap: int = DEFAULT_CAP,
) -> EquilibriumReport:
    """All pairs (Stackelberg leaders' profile, followers' joint best
    response), with per-player values."""
    _require_roles(game)
    session = _Session(game, evaluator, cap, mode)
    leader_set, diag = _stackelberg_in_session(session)
    records = [
        record
        for leaders in leader_set
        for fixed, candidates in session.runs(dict(leaders))
        for record in session.records(session.deviator, fixed, candidates)
    ]
    return EquilibriumReport("nash-stackelberg", tuple(records), diag, mode=mode)
