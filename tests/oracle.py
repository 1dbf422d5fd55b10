"""A brute-force reference solver, written from the definitions.

The tests check every solver of :mod:`infogames.equilibria` against it.  It
enumerates strategies and scores full profiles, with none of the library's
fast paths: no ``outcome_indices``, deviation table, context, memo key, keyed
response set or index walk.

- A player's normal-form value (:func:`value`) is her objective at the
  fixed-point outcomes of the closed-loop equation, under her risk measure
  applied by :func:`pairs_value`, the one value rule of the tests (bit for
  bit ``apply_risk`` today).
- A group's joint Nash profiles (:meth:`Oracle.nash`) are those where no
  member does strictly better alone.  A follower is judged by her normal-form
  value; under a Stackelberg mode, a leader by her value anticipated over the
  followers' joint best responses to the leaders' profile
  (:func:`anticipate`), or by nothing when they have none.
"""

from __future__ import annotations

import itertools
import math

from infogames import (
    OPTIMISTIC,
    PESSIMISTIC,
    BestResponseSet,
    EmptyFollowerResponse,
    EquilibriumReport,
    IndeterminateValue,
    Sense,
    leader_risk_mode,
    player_strategies,
    theta_mode,
)
from infogames.equilibria import Diagnostics, ProfileRecord
from infogames.model import fixed_point_outcomes
from infogames.normal_form import assemble_profile
from infogames.preferences import RiskKind

MODES = (
    OPTIMISTIC,
    PESSIMISTIC,
    theta_mode(0.25),
    leader_risk_mode("expectation-uniform"),
    leader_risk_mode("worst-case"),
    leader_risk_mode(("cvar", 0.5)),
)


def _pairs_expectation(pairs, where):
    infinite = {v for v, _ in pairs if math.isinf(v)}
    if len(infinite) > 1:
        raise IndeterminateValue(f"both +inf and -inf {where}")
    if infinite:
        return infinite.pop()
    return math.fsum(v * m for v, m in pairs) / math.fsum(m for _, m in pairs)


def pairs_value(kind, alpha, pairs, sense):
    """The value of the positive-mass ``(value, mass)`` pairs under the risk
    ``kind`` (CVaR at level ``alpha``): the worst value, the mean, or the
    mean of the adverse tail of mass ``alpha``, its boundary pair split."""
    if kind is RiskKind.WORST_CASE:
        return sense.worst(v for v, _ in pairs)
    if kind is RiskKind.EXPECTATION:
        return _pairs_expectation(pairs, "carry positive mass")
    ordered = sorted(pairs, key=lambda vm: vm[0], reverse=(sense is Sense.COST))
    taken = []
    remaining = alpha
    for v, m in ordered:
        if remaining <= 0:
            break
        take = min(m, remaining)
        taken.append((v, take))
        remaining -= take
    return _pairs_expectation(taken, "lie in the adverse tail")


def pairs_apply_risk(risk, values, sense):
    """``apply_risk`` as (value, mass) pairs filtered from the whole table:
    the positive-mass states, or every state at mass 1 without a belief."""
    if risk.belief is not None and len(values) != risk.belief.space.size:
        raise ValueError("value table length does not match Nature size")
    masses = risk.belief.masses if risk.belief is not None else [1.0] * len(values)
    pairs = [(float(v), m) for v, m in zip(values, masses) if m > 0]
    return pairs_value(risk.kind, risk.alpha, pairs, sense)


def value(game, player, profile):
    """The player's normal-form value at the full ``profile``."""
    data = game.data[player]
    composed = [data.objective.values[i] for i in fixed_point_outcomes(game.model, profile)]
    return pairs_apply_risk(data.risk, composed, data.objective.sense)


def anticipate(values, sense, mode):
    """A leader's value under ``mode`` over her ``values`` at the followers'
    joint best responses: the best, the worst, ``theta`` times the best plus
    ``1 - theta`` times the worst, or a leader risk with uniform mass."""
    best, worst = sense.best(values), sense.worst(values)
    if mode.kind == "optimistic":
        return best
    if mode.kind == "pessimistic":
        return worst
    if mode.kind == "theta":
        infinite = {v for v in (best, worst) if math.isinf(v)}
        if len(infinite) > 1:
            raise IndeterminateValue("theta combination of opposite infinities is undefined")
        return infinite.pop() if infinite else mode.theta * best + (1 - mode.theta) * worst
    pairs = [(v, 1.0 / len(values)) for v in values]
    if mode.risk == "expectation-uniform":
        return pairs_value(RiskKind.EXPECTATION, None, pairs, sense)
    if mode.risk == "worst-case":
        return pairs_value(RiskKind.WORST_CASE, None, pairs, sense)
    return pairs_value(RiskKind.CVAR, mode.risk[1], pairs, sense)


def leaders_profiles(game):
    """Every leaders' profile, as a dict, in enumeration order."""
    spaces = [player_strategies(game, ld) for ld in game.leaders]
    return [dict(zip(game.leaders, combo)) for combo in itertools.product(*spaces)]


class Oracle:
    """The reference solver of one game: its public queries are the
    library's solvers, results in enumeration order, and share one memo.

    ``score(player, assignment, deviator)``, when given, replaces
    :func:`value` of the full ``assignment`` (player to player strategy),
    scored as a deviation of ``deviator``: the last follower for a leader's
    values anticipated over followers and her records, the player herself
    for every other value.
    """

    def __init__(self, game, score=None):
        self.game = game
        self._score = score or (lambda p, a, _: value(game, p, assemble_profile(game, a)))
        self._memo = {}

    def _memoized(self, key, compute):
        if key not in self._memo:
            self._memo[key] = compute()
        return self._memo[key]

    def space(self, player):
        return self._memoized(("space", player), lambda: player_strategies(self.game, player))

    def score(self, player, assignment, deviator):
        tables = tuple([s.table for q in self.game.players.players for s in assignment[q]])
        key = ("score", player, deviator, tables)
        return self._memoized(key, lambda: self._score(player, assignment, deviator))

    def judged(self, player, assignment, mode):
        """The value the player is judged by at ``assignment``; ``None`` for
        a leader whose followers have no joint best response."""
        game = self.game
        if mode is None or player not in game.leaders:
            return self.score(player, assignment, player)
        leaders = {ld: assignment[ld] for ld in game.leaders}
        deviator = game.followers[-1] if game.followers else player

        def anticipated():
            values = [
                self.score(player, {**leaders, **dict(responses)}, deviator)
                for responses in self.followers_nash(leaders)
            ]
            sense = game.data[player].objective.sense
            return anticipate(values, sense, mode) if values else None

        return self._memoized(("anticipated", player, mode, *leaders.values()), anticipated)

    def values(self, player, assignment, mode):
        """The judged value of each of the player's strategies against the
        other strategies of ``assignment``, and the best of those that are
        not ``None`` (``None`` when all are)."""
        mode = mode if player in self.game.leaders else None

        def judged():
            values = [
                self.judged(player, {**assignment, player: c}, mode) for c in self.space(player)
            ]
            feasible = [v for v in values if v is not None]
            sense = self.game.data[player].objective.sense
            return values, sense.best(feasible) if feasible else None

        others = tuple(
            (q, s.table)
            for q in self.game.players.players
            if q != player and q in assignment
            for s in assignment[q]
        )
        return self._memoized(("values", player, mode, others), judged)

    def nash(self, players, fixed, mode=None):
        """The group's joint profiles, against the ``fixed`` others, where
        each member's judged value is her best.  Returns them, the number of
        profiles, the number without a judged value, and whether a best
        value was the adverse infinity.  Members are checked in order, and
        the first without a judged value or off her best ends a profile's
        check."""
        found, total, infeasible, all_adverse = [], 0, 0, False
        for combo in itertools.product(*map(self.space, players)):
            total += 1
            assignment = {**fixed, **dict(zip(players, combo))}
            for p in players:
                v = self.judged(p, assignment, mode)
                if v is None:
                    infeasible += 1
                    break
                best = self.values(p, assignment, mode)[1]
                if best == self.game.data[p].objective.sense.adverse:
                    all_adverse = True
                if v != best:
                    break
            else:
                found.append(tuple(zip(players, combo)))
        return tuple(found), total, infeasible, all_adverse

    def _record(self, assignment, mode=None):
        """The record of ``assignment``: each value scored where the search
        scored it, as a deviation of the last follower for a leader who
        anticipates followers under ``mode``, else of the player herself."""
        game = self.game
        anticipating = game.leaders if mode is not None and game.followers else ()
        return ProfileRecord(
            tuple((p, assignment[p]) for p in game.players.players),
            assemble_profile(game, assignment),
            tuple(
                (p, self.score(p, assignment, game.followers[-1] if p in anticipating else p))
                for p in game.players.players
            ),
        )

    def best_responses(self, player, others):
        values, best = self.values(player, others, None)
        context = tuple((q, others[q]) for q in self.game.players.players if q != player)
        members = tuple(c for c, v in zip(self.space(player), values) if v == best)
        adverse = self.game.data[player].objective.sense.adverse
        return BestResponseSet(player, context, members, best, all_adverse=(best == adverse))

    def nash_equilibria(self):
        found, total, _, all_adverse = self.nash(self.game.players.players, {})
        records = tuple(self._record(dict(group)) for group in found)
        diag = Diagnostics(total, max(0, len(records) - 1), all_adverse=all_adverse)
        return EquilibriumReport("nash", records, diag)

    def followers_nash(self, leaders):
        key = ("followers", *leaders.values())
        return self._memoized(key, lambda: self.nash(self.game.followers, leaders)[0])

    def leader_value(self, leader, leaders, mode):
        v = self.judged(leader, leaders, mode)
        if v is None:
            raise EmptyFollowerResponse(dict(leaders))
        return v

    def stackelberg_strategies(self, mode):
        leader_set, total, infeasible, _ = self.nash(self.game.leaders, {}, mode)
        if infeasible == total:
            raise EmptyFollowerResponse({})
        return leader_set, Diagnostics(total, max(0, len(leader_set) - 1), infeasible)

    def nash_stackelberg(self, mode):
        leader_set, diag = self.stackelberg_strategies(mode)
        records = tuple(
            self._record({**dict(leaders), **dict(responses)}, mode)
            for leaders in leader_set
            for responses in self.followers_nash(dict(leaders))
        )
        return EquilibriumReport("nash-stackelberg", records, diag, mode=mode)
