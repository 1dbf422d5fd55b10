"""Best responses, Nash equilibria, and leader-follower (Stackelberg) search.

Everything here is exact with hard caps and deterministic ordering: ties are
all included, in enumeration-index order, and every reported Nash profile is
re-verified, scoring full profiles directly with no memo, against every
unilateral deviation before emission.  Extended-real values participate
in the argmin/argmax directly; a best-response set whose every member sits at
the adverse infinity is returned in full with a diagnostic flag.

The search enumerates strategies only for leaders judged by anticipation.
A player judged by her normal-form value, with one agent or several, has a
value in a context that reads her actions only at her key digits (the
(agent, atom) pairs she reaches at her positive-mass states), so her
best-response set is built by scoring each key once (see :class:`_Session`),
with the same values, members, order and caps as enumeration, and the
evaluations of enumeration scored through her context.  Every normal-form
value is read from an evaluator context, one per (player, strategies of the
other players), in sequential and non-sequential models alike, and every
reported value where the search scored it (see :meth:`_Session.records`).
The joint profiles of several players are walked by strategy index, each
member's statuses read once per context of hers (see :meth:`_Session.nash`),
so no profile is built to be checked.  Player strategies given to a public
solver are checked once, at entry.

Optimistic, pessimistic and theta leader anticipation are interpreted with
respect to the leader's objective sense: optimistic picks the follower best
response most favorable to the leader (sup of a payoff, inf of a cost),
pessimistic the least favorable, and theta the convex combination of the two.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from operator import itemgetter
from typing import Mapping, Sequence

from .errors import EmptyFollowerResponse, IndeterminateValue
from .model import (
    DEFAULT_CAP,
    StrategyProfile,
    count_profiles,
    outcome_indices,
    validate_strategy,
)
from .normal_form import (
    Context,
    Evaluator,
    PlayerStrategy,
    count_player_strategies,
    player_strategies,
)
from .preferences import Sense, WGame, _adverse_tail_mean, _expectation, apply_risk

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
    context = _context_key(game, player, others)
    return BestResponseSet(player, context, rs.strategies(), rs.value, all_adverse=rs.adverse)


def _spread(size: int, positions: Sequence[int], actions: Sequence[int]) -> tuple[int, ...]:
    """The digits of ``size`` positions playing ``actions`` at ``positions``
    (ascending) and action 0 elsewhere."""
    if len(positions) == size:
        return tuple(actions)
    table = [0] * size
    for pos, a in zip(positions, actions):
        table[pos] = a
    return tuple(table)


def _digits(strategy: PlayerStrategy) -> tuple[int, ...]:
    """A player strategy's digits: its agents' tables, concatenated."""
    if len(strategy) == 1:
        return strategy[0].table
    return tuple(itertools.chain.from_iterable(s.table for s in strategy))


@dataclass(eq=False, slots=True)
class _Responses:
    """A player's best-response set in one context: her strategies whose
    judged value ties with the best, ``value`` (``None`` when none has one),
    by :meth:`~infogames.preferences.Sense.ties`, in enumeration order.
    ``adverse`` is whether ``value`` is her adverse infinity.  ``infeasible``
    counts her strategies without a judged value.

    A keyed player's set is built from her memo key
    (:meth:`~infogames.normal_form.Context.entry`) in her context
    ``ctx``.  Her value reads her actions only at the key ``digits`` (agent,
    atom pairs), so each key is scored once, on the lexicographically
    smallest digits carrying it (zeros elsewhere), which is the strategy
    enumeration meets first.  ``keys`` are the keys scoring ``value``, in
    lexicographic order.  A strategy is a member iff its actions at
    ``digits`` form one of ``keys``; every action is allowed at the other
    digits.  Without a sequential order a key is all her digits.  A leader
    judged by anticipation lists her ``members`` and keeps the tie ``flags``
    of all her strategies.
    """

    value: float | None
    adverse: bool
    infeasible: int = 0
    members: tuple[PlayerStrategy, ...] | None = None
    flags: Sequence[bool | None] = ()
    ctx: Context | None = None
    digits: tuple[int, ...] = ()
    keys: Sequence[tuple[int, ...]] = ()

    def tables(self, positions: Sequence[int]) -> list[tuple[int, ...]]:
        """The members' actions at ``positions`` (ascending digits,
        containing the key digits), each once, in lexicographic order."""
        trie: dict = {}
        for key in self.keys:
            node = trie
            for a in key:
                node = node.setdefault(a, {})
        # Keys are inserted in lexicographic order, so every node lists its
        # children in ascending order.
        in_key = set(self.digits)
        radix = self.ctx.radix
        level: list = [((), trie)]
        for pos in positions:
            if pos in in_key:
                level = [(t + (a,), sub) for t, node in level for a, sub in node.items()]
            else:
                actions = range(radix[pos])
                level = [(t + (a,), node) for t, node in level for a in actions]
        return [t for t, _ in level]

    def strategies(self) -> tuple[PlayerStrategy, ...]:
        """Every member, in enumeration order."""
        if self.members is not None:
            return self.members
        return tuple(self.ctx.strategies(self.tables(range(len(self.ctx.radix)))))

    def leader_values(self, evaluator: Evaluator, leader: str, multiset: bool) -> list[float]:
        """The leader's values at the members, scored from the context once
        per distinct leader memo key in member order: every member's value
        in member order with ``multiset``, else each distinct key's once.

        The first member carrying a leader key has zeros off the key digits
        of both players, so walking the members' actions at those digits
        meets the keys in member order, each scored at the digits
        enumeration scores."""
        ctx = self.ctx
        size = len(ctx.radix)
        lead = ctx.entry(leader, evaluator.game.data[leader].risk)[0]
        positions = range(size) if multiset else sorted({*self.digits, *lead})
        key_of = itemgetter(*(positions.index(d) for d in lead))
        scored: dict = {}
        out = []
        for t in self.tables(positions):
            key = key_of(t)
            if key not in scored:
                scored[key] = evaluator.value(leader, ctx, _spread(size, positions, t))
            out.append(scored[key])
        return out if multiset else list(scored.values())


class _Session:
    """Shared caches for one equilibrium computation.

    Every solver is :meth:`nash` on some group of players.  With a Stackelberg
    ``mode``, a leader is judged by her anticipated value over the followers'
    joint best responses to the leaders' profile; followers, and every player
    of a session without a mode, by the normal-form value.  No anticipation
    is kept: the search asks for one at most twice, and the second time its
    values are in the evaluator's memo.

    Normal-form values are scored from the evaluator's contexts, one per
    (player, strategies of the other players), in every model (see
    :class:`~infogames.normal_form.Evaluator`).  The session places the other
    players' strategies by agent slot and looks the context up in the
    evaluator, its only cache, so no profile is built to look a context up.
    A deviation is scored by its digits, so no strategy is built to score a
    key.

    :meth:`responses` returns a player's best-response set in a context.  A
    player judged by the normal-form value is *keyed*: her set scores each
    of her memo keys once instead of each of her strategies, and lists
    members only when a caller needs them.  A leader's anticipation over a
    single follower's set scores that context once per distinct leader memo
    key.  Only leaders judged by anticipation enumerate their strategies.
    :meth:`nash` walks the joint profiles of several players by strategy
    index and reads each member's status in her context from her response
    set, built on the first visit.

    :meth:`records` reads each value where the search scored it: a player
    judged by her normal-form value from her own context, and a leader who
    anticipates followers from the last follower's.
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
        followers = game.followers
        self.deviator = (followers or game.players.players)[-1]
        # The players whose record values are read from the deviator's
        # contexts: she and, with followers, the anticipating leaders.
        anticipating = game.leaders if mode is not None and followers else ()
        self._at_deviator = {self.deviator, *anticipating}
        # Whose first visit in :meth:`nash` asks for her judged value before
        # her set: a leader's may be missing; without a sequential order a
        # profile may be unplayable, and hers is the first one met.
        judged_first = game.players.players if game.model.sequential_order is None else ()
        self._judged_first = {*judged_first, *(game.leaders if mode is not None else ())}
        self._slots = self.evaluator._slots
        self._spaces: dict[str, list[PlayerStrategy]] = {}
        self._played: dict = {}
        self._responses: dict = {}
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

    def statuses(self, player: str, rs: _Responses) -> Sequence[bool | None]:
        """Whether each of the player's strategies, in enumeration order, is
        a member of her set ``rs``, or ``None`` when it has no judged value.
        Each strategy's actions at a set's key digits are read once per
        session."""
        if rs.members is not None:
            return rs.flags
        played = self._played.get((player, rs.digits))
        if played is None:
            spread = [_digits(c) for c in self.space(player)]
            played = [tuple([d[i] for i in rs.digits]) for d in spread]
            self._played[(player, rs.digits)] = played
        keys = set(rs.keys)
        return [key in keys for key in played]

    def _context(self, player: str, fixed: Mapping[str, PlayerStrategy]) -> Context:
        """The evaluator's context of ``player`` against the other players'
        strategies in ``fixed``."""
        return self.evaluator._context(player, self._place(fixed, player))

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
        ctx = self._context(deviator, fixed)
        return [value(player, ctx, _digits(c)) for c in candidates]

    def records(
        self, fixed: Mapping[str, PlayerStrategy], candidates: Sequence[PlayerStrategy]
    ) -> list[ProfileRecord]:
        """The full profiles where the ``deviator`` plays each of
        ``candidates`` against the other players' strategies in ``fixed``,
        with every player's normal-form value.

        Each candidate is spliced into the deviator's context
        (:meth:`~infogames.normal_form.Context.splice`), and each value is
        read where the search scored it: the deviator's and the anticipating
        leaders' from that context, every other player's from her own.  In a
        sequential model that is the context's memo entry for the member, not
        a set's best, since tied keys compare equal but may differ in the
        sign of zero."""
        deviator = self.deviator
        value = self.evaluator.value
        players = self.game.players.players
        slot = players.index(deviator)
        before = tuple((p, fixed[p]) for p in players[:slot])
        after = tuple((p, fixed[p]) for p in players[slot + 1:])
        at_deviator = self._at_deviator
        own = not at_deviator.issuperset(players)
        ctx = self._context(deviator, fixed)
        out = []
        for c in candidates:
            digits = _digits(c)
            if own:
                assignment = {**fixed, deviator: c}
                values = [
                    (p, value(p, ctx, digits) if p in at_deviator else self.value(p, assignment))
                    for p in players
                ]
            else:
                values = [(p, value(p, ctx, digits)) for p in players]
            out.append(ProfileRecord(before + ((deviator, c),) + after, ctx.splice(c), tuple(values)))
        return out

    def value(self, player: str, assignment: Mapping[str, PlayerStrategy]) -> float:
        """The player's normal-form value at the full ``assignment``."""
        ctx = self._context(player, assignment)
        return self.evaluator.value(player, ctx, _digits(assignment[player]))

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
        followers = self.game.followers
        # The followers' joint profiles are capped, as their search would be.
        self.count(followers)
        if len(followers) == 1:
            rs = self.responses(followers[0], leaders)
            multiset = self.mode.kind == "leader-risk"
            values = rs.leader_values(self.evaluator, player, multiset)
        elif not followers:
            values = [self.value(player, leaders)]
        else:
            values = []
            for fixed, candidates in self.runs(leaders):
                values += self.scores(player, self.deviator, fixed, candidates)
        sense = self.game.data[player].objective.sense
        return _anticipate(values, sense, self.mode) if values else None

    def responses(self, player: str, fixed: Mapping[str, PlayerStrategy]) -> _Responses:
        """The player's best-response set against the other players'
        strategies in ``fixed``, built once per context.  A keyed player's
        keys are scored in lexicographic order, which is the order
        enumeration meets them in."""
        others = _context_key(self.game, player, fixed)
        rs = self._responses.get((player, others))
        if rs is not None:
            return rs
        sense = self.game.data[player].objective.sense
        if self.mode is not None and player in self.game.leaders:
            space = self.space(player)
            values = [self.judged(player, {**fixed, player: c}) for c in space]
            best, flags = sense.ties(values)
            members = tuple(itertools.compress(space, flags))
            rs = _Responses(best, best == sense.adverse, values.count(None), members, flags)
        else:
            ctx = self._context(player, fixed)
            digits = ctx.entry(player, self.game.data[player].risk)[0]
            keys = list(itertools.product(*[range(ctx.radix[d]) for d in digits]))
            size, value = len(ctx.radix), self.evaluator.value
            values = [value(player, ctx, _spread(size, digits, key)) for key in keys]
            best, flags = sense.ties(values)
            keys = list(itertools.compress(keys, flags))
            rs = _Responses(best, best == sense.adverse, ctx=ctx, digits=digits, keys=keys)
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
        repeats those calls, as a per-profile check would.  In a sequential
        model a player judged by her normal-form value has one, which her
        set scores with every other key, so only her set is asked for.
        """
        total = self.count(players)
        if len(players) == 1:
            (p,) = players
            rs = self.responses(p, fixed)
            return tuple([((p, c),) for c in rs.strategies()]), total, rs.infeasible, rs.adverse
        spaces = [self.space(p) for p in players]
        sizes = [len(space) for space in spaces]
        strides = [math.prod(sizes[k + 1:]) for k in range(len(players))]

        def combo(flat: int) -> list[PlayerStrategy]:
            return [space[flat // qs % qn] for space, qs, qn in zip(spaces, strides, sizes)]

        members = [(*member, {}) for member in zip(players, spaces, strides, sizes)]
        found: list[GroupProfile] = []
        infeasible = 0
        all_adverse = False
        for flat in range(total):
            for p, space, stride, size, seen in members:
                i = flat // stride % size
                others = flat - i * stride
                entry = seen.get(others)
                if entry is None:
                    assignment = dict(fixed)
                    assignment.update(zip(players, combo(flat)))
                    if p in self._judged_first and self.judged(p, assignment) is None:
                        infeasible += 1
                        break
                    rs = self.responses(p, assignment)
                    entry = seen[others] = (self.statuses(p, rs), rs.adverse)
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
    _verify_no_improving_deviation(session, found)
    deviator = session.deviator
    records = []
    for group in found:
        assignment = dict(group)
        records += session.records(assignment, [assignment[deviator]])
    diag = Diagnostics(
        profiles_enumerated=total,
        ties=max(0, len(records) - 1),
        all_adverse=all_adverse,
    )
    return EquilibriumReport("nash", tuple(records), diag)


def _verify_no_improving_deviation(session: _Session, found: Sequence[GroupProfile]) -> None:
    """Independent re-check, sharing no memo with the search: no player of a
    ``found`` profile has a strictly improving unilateral deviation.  Her
    strategies are scored once per strategies of the other players, and her
    own once per profile, each full profile directly by
    :func:`~infogames.model.outcome_indices` and ``apply_risk``.  The
    strategies were checked at entry or enumerated, so none is checked
    again.  A failure is a fault of the solver, not a property of the game,
    so it raises."""
    game = session.game
    for p in game.players.players:
        data = game.data[p]
        values, sense = data.objective.values, data.objective.sense
        slots = session._slots[p]

        def score(placed: list, ps: PlayerStrategy) -> float:
            for slot, s in zip(slots, ps):
                placed[slot] = s
            indices = outcome_indices(game.model, StrategyProfile(tuple(placed)))
            return apply_risk(data.risk, [values[i] for i in indices], sense)

        bests: dict = {}
        for group in found:
            assignment = dict(group)
            placed = session._place(assignment, p)
            others = tuple(placed)
            if others not in bests:
                bests[others] = sense.best([score(placed, ps) for ps in session.space(p)])
            if sense.better(bests[others], score(placed, assignment[p])):
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
        for record in session.records(fixed, candidates)
    ]
    return EquilibriumReport("nash-stackelberg", tuple(records), diag, mode=mode)
