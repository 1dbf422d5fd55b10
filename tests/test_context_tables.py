"""Context-table scoring against the plain profile path.

``PlainEvaluator`` scores every value, deviations included, by the full
profile's outcome indices and one ``apply_risk`` call, with no memo.  The
library's evaluator must give the same floats (``==`` and ``repr``), and every
solver must return the same results with either evaluator.
"""

from __future__ import annotations

import math
import random

from hypothesis import given, settings
from hypothesis import strategies as st

from infogames import (
    OPTIMISTIC,
    PESSIMISTIC,
    Belief,
    Evaluator,
    GameError,
    Objective,
    PlayerData,
    PlayerPartition,
    RiskMeasure,
    Sense,
    StrategyProfile,
    build_wmodel,
    count_profiles,
    enumerate_strategies,
    followers_nash,
    leader_risk_mode,
    make_wgame,
    nash_equilibria,
    nash_stackelberg,
    stackelberg_strategies,
    theta_mode,
)
from infogames.model import joint_strategies, outcome_indices
from infogames.preferences import apply_risk
from conftest import (
    random_information_parts,
    random_lf_game,
    random_mass_vector,
    random_profile,
    random_sequential_model,
)

PROFILE_LIMIT = 2000
MODES = (
    OPTIMISTIC,
    PESSIMISTIC,
    theta_mode(0.25),
    leader_risk_mode("expectation-uniform"),
    leader_risk_mode("worst-case"),
    leader_risk_mode(("cvar", 0.5)),
)


def profile_for(ctx, deviation) -> StrategyProfile:
    """The full profile in which the context's deviating agent plays
    ``deviation``."""
    return StrategyProfile(
        tuple(deviation if s.agent == ctx.agent else s for s in ctx.profile.strategies)
    )


class PlainEvaluator(Evaluator):
    """Scores by ``outcome_indices`` and ``apply_risk`` on the full profile."""

    def value(self, player, profile, deviation=None):
        if deviation is not None:
            profile = profile_for(profile, deviation)
        self.evaluations += 1
        data = self.game.data[player]
        indices = outcome_indices(self.game.model, profile, self.sequential_order)
        composed = [data.objective.values[i] for i in indices]
        return apply_risk(data.risk, composed, data.objective.sense)


def _random_risk(rng: random.Random, nature_space) -> RiskMeasure:
    belief = Belief.joint_over(nature_space, random_mass_vector(rng, nature_space.size))
    kind = rng.randrange(4)
    if kind == 0:
        return RiskMeasure.expectation(belief)
    if kind == 1:
        return RiskMeasure.worst_case()
    if kind == 2:
        return RiskMeasure.worst_case(belief)
    return RiskMeasure.cvar(rng.choice((0.25, 0.5, 1.0)), belief)


def _random_model(rng: random.Random):
    if rng.random() < 0.5:
        return random_sequential_model(rng)
    nature, agents, actions, specs, _ = random_information_parts(rng, sequential=True)
    return build_wmodel(nature, agents, actions, specs)


def random_game(rng: random.Random):
    """A random sequential game of at most ``PROFILE_LIMIT`` profiles.

    Agents are dealt to 1-3 players, so players may own several agents, in
    any position of the sequential order.  Objectives are small integers,
    sometimes with the adverse infinity; risks are expectation, worst case
    with or without a belief, or CVaR, over beliefs that may be Dirac or
    leave states without mass.  Some players, or all, are leaders.
    """
    if rng.random() < 0.2:
        return random_lf_game(rng)
    while True:
        model = _random_model(rng)
        if count_profiles(model, model.agents) <= PROFILE_LIMIT:
            break
    agents = list(model.agents)
    rng.shuffle(agents)
    names = [f"P{i}" for i in range(rng.randint(1, len(agents)))]
    assignment = {a: names[i] if i < len(names) else rng.choice(names) for i, a in enumerate(agents)}
    rng.shuffle(names)
    adverse_share = rng.choice((0.0, 0.0, 0.15))
    data = {}
    for p in names:
        sense = rng.choice((Sense.COST, Sense.PAYOFF))
        values = tuple(
            sense.adverse if rng.random() < adverse_share else float(rng.randint(-4, 4))
            for _ in range(model.configuration.size)
        )
        data[p] = PlayerData(Objective(p, sense, values), _random_risk(rng, model.nature_space))
    leaders = tuple(p for p in names if rng.random() < 0.4)
    return make_wgame(model, PlayerPartition(tuple(names), assignment), data, leaders)


def _outcome(fn):
    try:
        result = fn()
    except GameError as exc:
        return ("raises", type(exc).__name__, str(exc))
    return ("returns", result)


def _assert_same(kernel, reference):
    assert kernel == reference
    assert repr(kernel) == repr(reference)


@settings(max_examples=80, deadline=None)
@given(st.integers(0, 2**32 - 1))
def test_deviation_values_match_the_profile_path(seed):
    rng = random.Random(seed)
    game = random_game(rng)
    ev = Evaluator(game)
    plain = PlainEvaluator(game)
    base = random_profile(game.model, rng)
    for agent in game.model.agents:
        ctx = ev.context(agent, base)
        deviations = list(enumerate_strategies(game.model, agent))
        rng.shuffle(deviations)
        for deviation in deviations:
            profile = profile_for(ctx, deviation)
            for p in game.players.players:
                kernel = _outcome(lambda: ev.value(p, ctx, deviation))
                _assert_same(kernel, _outcome(lambda: plain.value(p, profile)))
                _assert_same(kernel, _outcome(lambda: Evaluator(game).value(p, profile)))


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 2**32 - 1))
def test_solvers_match_the_profile_path(seed):
    rng = random.Random(seed)
    game = random_game(rng)

    def both(solve):
        kernel = _outcome(lambda: solve(Evaluator(game)))
        _assert_same(kernel, _outcome(lambda: solve(PlainEvaluator(game))))
        return kernel

    kernel = both(lambda ev: nash_equilibria(game, evaluator=ev))
    if kernel[0] == "returns":
        fresh = Evaluator(game)
        for rec in kernel[1].profiles:
            _assert_same(rec.values, tuple((p, fresh.value(p, rec.profile)) for p, _ in rec.values))
    if not game.leaders:
        return
    leader_agents = [a for ld in game.leaders for a in game.agents_of(ld)]
    for leaders in joint_strategies(game.model, leader_agents, math.inf, "leaders"):
        queue = list(leaders)
        profile = {ld: tuple(queue.pop(0) for _ in game.agents_of(ld)) for ld in game.leaders}
        both(lambda ev: followers_nash(game, profile, evaluator=ev))
    for mode in MODES:
        both(lambda ev: stackelberg_strategies(game, mode, evaluator=ev))
        both(lambda ev: nash_stackelberg(game, mode, evaluator=ev))


def test_generator_covers_the_cases():
    """The random games reach every case the kernel distinguishes."""
    seen = set()
    for seed in range(300):
        game = random_game(random.Random(seed))
        order = Evaluator(game).sequential_order
        for p in game.players.players:
            agents = game.agents_of(p)
            risk = game.data[p].risk
            if len(agents) > 1:
                seen.add("multi-agent player")
            if order.index(agents[-1]) < len(order) - 1:
                seen.add("deviator not last")
            if risk.belief is None:
                seen.add("worst case without belief")
            elif max(risk.belief.masses) == 1.0:
                seen.add("dirac belief")
            elif 0.0 in risk.belief.masses:
                seen.add("zero-mass state")
            if risk.alpha is not None:
                seen.add("cvar")
            if game.data[p].objective.sense.adverse in game.data[p].objective.values:
                seen.add("adverse infinity")
        if game.leaders:
            seen.add("leaders" if game.followers else "only leaders")
    assert seen == {
        "multi-agent player",
        "deviator not last",
        "worst case without belief",
        "dirac belief",
        "zero-mass state",
        "cvar",
        "adverse infinity",
        "leaders",
        "only leaders",
    }

