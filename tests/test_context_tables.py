"""The solvers against the reference solver of :mod:`oracle`, and
context-table scoring against the plain profile path.

``PlainEvaluator`` scores every value, deviations included, by the oracle's
:func:`oracle.value` on the full profile, with no memo.  The library's
evaluator must give the same floats (``==`` and ``repr``), and every solver
must return the same results with either evaluator and as the oracle.
"""

from __future__ import annotations

import hashlib
import itertools
import math
import random
import re
from collections import Counter

from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import infogames.model
import infogames.normal_form
from infogames import (
    OPTIMISTIC,
    AgentId,
    Belief,
    CapacityExceeded,
    Evaluator,
    GameError,
    Objective,
    Partition,
    PlayerData,
    PlayerPartition,
    RiskMeasure,
    Sense,
    Strategy,
    StrategyProfile,
    best_responses,
    build_wmodel,
    check_playability,
    count_profiles,
    followers_nash,
    leader_value,
    load_game,
    make_product_space,
    make_wgame,
    nash_equilibria,
    nash_stackelberg,
    player_strategies,
    solution_map,
    stackelberg_strategies,
)
from infogames import equilibria
from infogames.model import (
    check_sequential,
    dependents,
    deviation_table,
    fixed_point_outcomes,
    outcome_indices,
)
from infogames.normal_form import assemble_profile
from infogames.preferences import apply_risk
import oracle
from conftest import (
    random_information_parts,
    random_lf_game,
    random_mass_vector,
    random_profile,
    random_sequential_model,
    small_factor,
)

GAMES_DIR = Path(__file__).resolve().parent.parent / "games"
PROFILE_LIMIT = 2000
MODES = oracle.MODES


class PlainEvaluator(Evaluator):
    """Drives the library's search, scoring each value by
    :func:`oracle.value` on the full profile, with no memo."""

    def value(self, player, profile, deviation=None):
        if deviation is not None:
            profile = profile.splice(profile.strategies([deviation])[0])
        self.evaluations += 1
        return oracle.value(self.game, player, profile)


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


def random_causal_model(rng: random.Random):
    """A model where the Nature factor ``first`` picks a random order of
    2-3 agents or its reverse, and at its states each agent sees a random
    function of ``first``, of the other Nature factor (when drawn) and of the
    actions of agents before him in that order.  Every profile is playable,
    but the two orders usually leave the model without a sequential order."""
    agents = [AgentId("p", t) for t in range(1, rng.randint(2, 3) + 1)]
    nature = [small_factor("first", 2)]
    if rng.random() < 0.5:
        nature.append(small_factor("n0", 2, "nature-type"))
    actions = {a: small_factor(f"u{a.stage}", rng.randint(2, 3), "action") for a in agents}
    forward = rng.sample(agents, len(agents))
    orders = [forward, forward[::-1]]
    configuration = make_product_space(nature + [actions[a] for a in agents])
    specs = {}
    for a in agents:
        seen = []
        for order in orders:
            ids = [f.id for f in nature[1:] if rng.random() < 0.5]
            ids += [actions[b].id for b in order[: order.index(a)] if rng.random() < 0.7]
            seen.append([configuration.factor_index(i) for i in ids])
        keys = [(pt[0],) + tuple(pt[i] for i in seen[pt[0]]) for pt in configuration.points()]
        labels: dict = {}
        for key in keys:
            labels.setdefault(key, rng.randrange(3))
        specs[a] = Partition.from_labels(configuration, [labels[k] for k in keys])
    return build_wmodel(nature, agents, actions, specs)


def _random_model(rng: random.Random):
    kind = rng.random()
    if kind < 0.5:
        return random_sequential_model(rng)
    if kind < 0.7:
        nature, agents, actions, specs, _ = random_information_parts(rng, sequential=True)
    elif kind < 0.85:
        return random_causal_model(rng)
    else:
        nature, agents, actions, specs, _ = random_information_parts(rng, sequential=False)
    return build_wmodel(nature, agents, actions, specs)


def random_game(rng: random.Random):
    """A random game of at most ``PROFILE_LIMIT`` profiles.

    Most models are sequential.  The others usually have no sequential
    order: causal ones (:func:`random_causal_model`), where every profile is
    playable, and unrestricted ones, where agents may observe each other and
    some profiles may have no solution or several.  Agents are dealt to 1-3
    players, so players may own several agents, in any position of the
    order.  Objectives are small integers, sometimes with the adverse
    infinity; risks are expectation, worst case with or without a belief, or
    CVaR, over beliefs that may be Dirac or leave states without mass.  Some
    players, or all, are leaders.
    """
    if rng.random() < 0.2:
        while True:
            game = random_lf_game(rng)
            if count_profiles(game.model, game.model.agents) <= PROFILE_LIMIT:
                return game
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


def random_contexts(game, rng: random.Random):
    """Each player with the other players' strategies in a random profile."""
    by_agent = {s.agent: s for s in random_profile(game.model, rng).strategies}
    players = game.players.players
    strategies = {q: tuple(by_agent[a] for a in game.agents_of(q)) for q in players}
    return [(p, {q: strategies[q] for q in players if q != p}) for p in players]


def digits(strategy) -> tuple:
    """A player strategy's digits: its agents' tables, concatenated."""
    return tuple(j for s in strategy for j in s.table)


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
    for deviator in game.players.players:
        ctx = ev._context(deviator, base.strategies)
        deviations = player_strategies(game, deviator)
        rng.shuffle(deviations)
        for deviation in deviations:
            profile = ctx.splice(deviation)
            assert ctx.strategies([digits(deviation)]) == [deviation]
            for p in game.players.players:
                kernel = _outcome(lambda: ev.value(p, ctx, digits(deviation)))
                _assert_same(kernel, _outcome(lambda: plain.value(p, profile)))
                _assert_same(kernel, _outcome(lambda: Evaluator(game).value(p, profile)))


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 2**32 - 1))
def test_context_ignores_the_players_own_slots(seed):
    """``Evaluator._context`` reads every slot but the deviating player's:
    with ``None`` there or any of her strategies it returns the same
    context, and it keeps a copy of the other entries, so the caller may
    reuse its list."""
    rng = random.Random(seed)
    game = random_game(rng)
    ev = Evaluator(game)
    strategies = random_profile(game.model, rng).strategies
    for player in game.players.players:
        slots = [game.model.agents.index(a) for a in game.agents_of(player)]
        placed = list(strategies)
        for at in slots:
            placed[at] = None
        ctx = ev._context(player, placed)
        for ps in itertools.islice(player_strategies(game, player), 64):
            for at, s in zip(slots, ps):
                placed[at] = s
            assert ev._context(player, placed) is ctx
        assert ev._context(player, strategies) is ctx
        placed[:] = [None] * len(placed)
        others = tuple(None if i in slots else s for i, s in enumerate(strategies))
        assert (ctx.head, ctx.tail) == (others[: slots[0]], others[slots[0] + 1:])
        assert type(ctx.head) is type(ctx.tail) is tuple


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 2**32 - 1))
@example(35)  # causal, without a sequential order
@example(68)  # unrestricted, with unplayable profiles
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
    for leaders in oracle.leaders_profiles(game):
        both(lambda ev: followers_nash(game, leaders, evaluator=ev))
    for mode in MODES:
        both(lambda ev: stackelberg_strategies(game, mode, evaluator=ev))
        both(lambda ev: nash_stackelberg(game, mode, evaluator=ev))


@settings(max_examples=30, deadline=None)
@given(st.integers(0, 2**32 - 1))
@example(17)  # several leaders
@example(68)  # unrestricted, with unplayable profiles
@example(133)  # several followers, without a sequential order
@example(619)  # several followers, with infeasible leaders' profiles
@example(4521)  # several followers, with no feasible leaders' profile
def test_solvers_match_the_oracle(seed):
    """Every solver on a random game: best responses of each player to a
    random profile and Nash; with leaders, the followers' Nash and each
    leader's value at each leaders' profile, and the Stackelberg and
    Nash-Stackelberg sets, in every mode."""
    rng = random.Random(seed)
    game = random_game(rng)
    ref = oracle.Oracle(game)

    def check(solve, query):
        kernel, reference = _outcome(solve), _outcome(query)
        # Each side names the first unplayable profile it meets.
        if not kernel[:2] == reference[:2] == ("raises", "NotPlayable"):
            _assert_same(kernel, reference)

    for player, others in random_contexts(game, rng):
        check(
            lambda: best_responses(game, player, others),
            lambda: ref.best_responses(player, others),
        )
    check(lambda: nash_equilibria(game), ref.nash_equilibria)
    if not game.leaders:
        return
    for leaders in oracle.leaders_profiles(game):
        check(
            lambda: followers_nash(game, leaders),
            lambda: ref.followers_nash(leaders),
        )
        for mode in MODES:
            for leader in game.leaders:
                check(
                    lambda: leader_value(game, leader, leaders, mode),
                    lambda: ref.leader_value(leader, leaders, mode),
                )
    for mode in MODES:
        check(
            lambda: stackelberg_strategies(game, mode),
            lambda: ref.stackelberg_strategies(mode),
        )
        check(
            lambda: nash_stackelberg(game, mode),
            lambda: ref.nash_stackelberg(mode),
        )


def test_nash_recheck_scores_each_context_once(monkeypatch):
    """The re-check of reported Nash profiles scores a player's strategies
    once per strategies of the other players, plus her own once per
    profile.  Seed 7426 draws one player with 1,296 strategies and 216 tied
    equilibria, so at most 1,296 + 216 full profiles, where a re-check per
    profile scores 280,152."""
    game = random_game(random.Random(7426))
    scored = []
    real = equilibria.outcome_indices

    def counted(model, profile):
        scored.append(profile)
        return real(model, profile)

    monkeypatch.setattr(equilibria, "outcome_indices", counted)
    report = nash_equilibria(game)
    assert len(report.profiles) == 216
    assert len(scored) <= 1296 + 216


def _tables(group) -> tuple:
    return tuple((p, tuple(s.table for s in ps)) for p, ps in group)


def _solved_digest(result) -> str:
    """The first 16 hex digits of the sha256 of a Stackelberg solver's
    result, written as strategy tables, floats and diagnostics."""
    if isinstance(result, tuple):
        leader_set, diag = result
        summary = (tuple(map(_tables, leader_set)), diag)
    else:
        summary = (tuple((_tables(r.by_player), r.values) for r in result.profiles), result.diagnostics)
    return hashlib.sha256(repr(summary).encode()).hexdigest()[:16]


# Per seed and mode: evaluations and result digest of stackelberg_strategies,
# then of nash_stackelberg, each with a fresh evaluator.  Seed 17 draws two
# one-agent leaders and a one-agent follower; seed 39 two leaders, one with
# two agents, and no followers, whose records read each leader's value from
# her own context, where the search scored it, so nash_stackelberg scores
# nothing more.  Several leaders meet a leaders' profile more than once, and
# no memo beyond the evaluator's may change what is scored.
SEVERAL_LEADER_PINS = {
    17: {
        "optimistic": (132, "65204a823cfe31cb", 132, "31981deb40abed27"),
        "pessimistic": (132, "2f5224686845d228", 132, "9326ef633b810dda"),
        "theta=0.25": (120, "1da0950ee838c830", 120, "f945878ecde38c4d"),
        "leader-risk=expectation-uniform": (120, "e4651430f53e224f", 120, "84a7e66c1421dd53"),
        "leader-risk=worst-case": (132, "2f5224686845d228", 132, "9326ef633b810dda"),
        "leader-risk=cvar:0.5": (132, "2f5224686845d228", 132, "9326ef633b810dda"),
    },
    39: {mode.describe(): (198, "5f29eb384e787015", 198, "d305da5398da7e62") for mode in MODES},
}


@pytest.mark.parametrize("seed", sorted(SEVERAL_LEADER_PINS))
def test_several_leader_evaluations_are_pinned(seed):
    game = random_game(random.Random(seed))
    assert len(game.leaders) == 2
    for mode in MODES:
        row = []
        for solve in (stackelberg_strategies, nash_stackelberg):
            evaluator = Evaluator(game)
            digest = _solved_digest(solve(game, mode, evaluator=evaluator))
            row += [evaluator.evaluations, digest]
        assert tuple(row) == SEVERAL_LEADER_PINS[seed][mode.describe()], mode.describe()


def test_leader_value_caps_the_followers_profiles_without_followers():
    """A leader's value counts the followers' joint profiles against the
    cap, and with no followers there is one, the empty profile."""
    game = random_game(random.Random(39))
    leaders = {p: player_strategies(game, p)[0] for p in game.leaders}
    assert leader_value(game, game.leaders[0], leaders, OPTIMISTIC, cap=1) == -3.0
    with pytest.raises(CapacityExceeded, match=re.escape("profiles of players [] needs 1 items, cap is 0")):
        leader_value(game, game.leaders[0], leaders, OPTIMISTIC, cap=0)


def test_generator_covers_the_cases():
    """The random games reach every case the kernel distinguishes."""
    seen = set()
    for seed in range(300):
        game = random_game(random.Random(seed))
        assert count_profiles(game.model, game.model.agents) <= PROFILE_LIMIT
        order = game.model.sequential_order
        if order is None:
            playable = check_playability(game.model, "all").playable
            seen.add("no sequential order, " + ("playable" if playable else "not playable"))
        for p in game.players.players:
            agents = game.agents_of(p)
            risk = game.data[p].risk
            if len(agents) > 1:
                seen.add("multi-agent player")
            if order is not None and order.index(agents[-1]) < len(order) - 1:
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
            if len(game.leaders) > 1:
                seen.add("several leaders")
            if len(game.followers) > 1:
                seen.add("several followers")
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
        "several leaders",
        "several followers",
        "no sequential order, playable",
        "no sequential order, not playable",
    }



# --- Keyed best-response sets against brute force ----------------------------
#
# A player judged by her normal-form value has her best-response set built
# from her memo keys, and a leader's anticipation over a single follower
# scores each distinct leader key once.  The oracle enumerates every strategy
# instead: with its own scoring, results must be equal; scoring through
# :func:`context_scorer`, each strategy from the ``Evaluator`` context of
# its player, the evaluation count must be equal too.


def context_scorer(game):
    ev = Evaluator(game)

    def score(p, assignment, deviator):
        ctx = ev._context(deviator, assemble_profile(game, assignment).strategies)
        return ev.value(p, ctx, digits(assignment[deviator]))

    return ev, score


def random_leader_follower_game(rng: random.Random):
    """A random game of :func:`random_game` with two players, the first
    declared leader and the second follower (either may own several
    agents)."""
    while True:
        game = random_game(rng)
        if len(game.players.players) == 2:
            break
    leader = game.players.players[0]
    return make_wgame(game.model, game.players, game.data, leaders=(leader,))


def _key_digits(game, player, others):
    """The player's memo-key digits and digit count in the context of
    ``others``."""
    zeros = player_strategies(game, player)[0]
    ctx = Evaluator(game)._context(player, assemble_profile(game, {**others, player: zeros}).strategies)
    return ctx.entry(player, game.data[player].risk)[0], len(ctx.radix)


def _compare(ref, solve, query):
    """The library and ``query`` on the oracle ``ref`` agree on result and
    repr (or on the raised error), and on a fresh oracle scoring through
    :func:`context_scorer`, which also counts the evaluations enumeration
    makes: the library makes exactly those."""
    game = ref.game
    ev = Evaluator(game)
    kernel = _outcome(lambda: solve(ev))
    _assert_same(kernel, _outcome(lambda: query(ref)))
    enumerated, context_score = context_scorer(game)
    _assert_same(kernel, _outcome(lambda: query(oracle.Oracle(game, context_score))))
    assert ev.evaluations == enumerated.evaluations
    return kernel


@settings(max_examples=80, deadline=None)
@given(st.integers(0, 2**32 - 1))
def test_best_responses_match_brute_force(seed):
    rng = random.Random(seed)
    game = random_game(rng)
    ref = oracle.Oracle(game)
    for player, others in random_contexts(game, rng):
        _compare(
            ref,
            lambda ev: best_responses(game, player, others, evaluator=ev),
            lambda ref: ref.best_responses(player, others),
        )


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 2**32 - 1))
def test_leader_follower_solvers_match_brute_force(seed):
    rng = random.Random(seed)
    game = random_leader_follower_game(rng)
    (leader,) = game.leaders
    ref = oracle.Oracle(game)
    for leaders in oracle.leaders_profiles(game):
        _compare(
            ref,
            lambda ev: followers_nash(game, leaders, evaluator=ev),
            lambda ref: ref.followers_nash(leaders),
        )
        for mode in MODES:
            _compare(
                ref,
                lambda ev: leader_value(game, leader, leaders, mode, evaluator=ev),
                lambda ref: ref.leader_value(leader, leaders, mode),
            )
    for mode in MODES:
        _compare(
            ref,
            lambda ev: stackelberg_strategies(game, mode, evaluator=ev),
            lambda ref: ref.stackelberg_strategies(mode),
        )
        _compare(
            ref,
            lambda ev: nash_stackelberg(game, mode, evaluator=ev),
            lambda ref: ref.nash_stackelberg(mode),
        )


def test_leader_follower_generator_covers_the_cases():
    """The leader-follower games reach every case the keyed path
    distinguishes, and ties among the follower's responses."""
    seen = set()
    for seed in range(300):
        game = random_leader_follower_game(random.Random(seed))
        (leader,), (follower,) = game.leaders, game.followers
        if len(game.agents_of(follower)) > 1:
            seen.add("multi-agent follower")
        if game.model.sequential_order is None:
            seen.add("keyed follower without a sequential order")
        risk = game.data[follower].risk
        if risk.belief is None:
            seen.add("worst case without belief")
        elif 0.0 in risk.belief.masses:
            seen.add("zero-mass state")
        if risk.alpha is not None:
            seen.add("cvar")
        if game.data[follower].objective.sense.adverse in game.data[follower].objective.values:
            seen.add("adverse infinity")
        leaders = {leader: player_strategies(game, leader)[0]}
        key, size = _key_digits(game, follower, leaders)
        if len(key) < size:
            seen.add("digits outside the key")
        responses = _outcome(lambda: followers_nash(game, leaders))
        if responses[0] == "returns" and len(responses[1]) > 1:
            seen.add("tied responses")
    assert seen == {
        "multi-agent follower",
        "keyed follower without a sequential order",
        "worst case without belief",
        "zero-mass state",
        "cvar",
        "adverse infinity",
        "digits outside the key",
        "tied responses",
    }


@pytest.mark.parametrize("name", ["tou_pricing.json", "nature_orders.json"])
def test_stackelberg_builds_follower_strategies_only_to_score_keys(monkeypatch, name):
    """``stackelberg`` on a shipped game with a one-agent follower never
    enumerates the follower's strategies: every follower deviation it builds
    (:func:`~infogames.equilibria._spread`) is the one representative scored
    for a memo key, and it builds no follower :class:`Strategy` outside
    :meth:`Evaluator.value`; only ``nash-stackelberg`` lists members, one
    per reported response.  ``nature_orders.json`` has no sequential order,
    so each of its keys is a whole table, which :meth:`Evaluator.value`
    splices into a profile to score it: those strategies are not counted."""
    game = load_game(str(GAMES_DIR / name))
    (follower,) = game.followers
    (agent,) = game.agents_of(follower)
    built, spreads, enumerated, scoring = [], [], [], []

    def strategy(a, table):
        s = Strategy(a, table)
        if a == agent and not scoring:
            built.append(s)
        return s

    def value(ev, *args):
        scoring.append(True)
        try:
            return evaluator_value(ev, *args)
        finally:
            scoring.pop()

    def spread(size, positions, actions):
        table = equilibria_spread(size, positions, actions)
        spreads.append(table)
        return table

    def strategies(g, player, cap):
        enumerated.append(player)
        return player_strategies(g, player, cap)

    evaluator_value, equilibria_spread = Evaluator.value, equilibria._spread
    monkeypatch.setattr(infogames.normal_form, "Strategy", strategy)
    monkeypatch.setattr(Evaluator, "value", value)
    monkeypatch.setattr(equilibria, "_spread", spread)
    monkeypatch.setattr(equilibria, "player_strategies", strategies)
    for mode in MODES:
        built.clear()
        spreads.clear()
        ev = Evaluator(game)
        assert stackelberg_strategies(game, mode, evaluator=ev)[0]
        # Each follower deviation built is scored once, as an evaluation.
        assert (len(spreads), len(built)) == (ev.evaluations, 0)
        built.clear()
        spreads.clear()
        ev = Evaluator(game)
        report = nash_stackelberg(game, mode, evaluator=ev)
        # ... and nash-stackelberg builds each reported response once.
        assert (len(spreads), len(built)) == (ev.evaluations, len(report.profiles))
    assert follower not in enumerated


def test_keyed_paths_keep_the_cap_messages():
    """Capped before anything is scored, with the enumeration's messages."""
    game = load_game(str(GAMES_DIR / "tou_pricing.json"))
    (leader,), (follower,) = game.leaders, game.followers
    n = count_profiles(game.model, game.agents_of(follower))
    leaders = {leader: player_strategies(game, leader)[0]}
    cases = [
        (lambda: best_responses(game, follower, leaders, cap=n - 1), "strategies of player 'follower'"),
        (lambda: followers_nash(game, leaders, cap=n - 1), "profiles of players ['follower']"),
        (lambda: leader_value(game, leader, leaders, OPTIMISTIC, cap=n - 1), "profiles of players ['follower']"),
    ]
    for solve, what in cases:
        with pytest.raises(CapacityExceeded) as exc:
            solve()
        assert str(exc.value) == str(CapacityExceeded(n, n - 1, what))


# --- Nash-Stackelberg records of a single keyed follower ----------------------
#
# Records are read from the follower's response set against each Stackelberg
# leaders' profile: its context's profile with the member spliced in, and the
# context's memo entry per player, with no context built or value scored.


def test_keyed_records_assemble_no_profile_and_score_nothing(monkeypatch):
    game = load_game(str(GAMES_DIR / "tou_pricing.json"))
    searched = []
    search = equilibria._stackelberg_in_session

    def counting_search(session):
        result = search(session)
        searched.append((session.evaluator.evaluations, len(session.evaluator._contexts)))
        return result

    monkeypatch.setattr(equilibria, "_stackelberg_in_session", counting_search)
    for mode in MODES:
        ev = Evaluator(game)
        report = nash_stackelberg(game, mode, evaluator=ev)
        assert len(report.profiles) > report.diagnostics.profiles_enumerated
        # The records reuse the search's contexts and score nothing.
        assert searched.pop() == (ev.evaluations, len(ev._contexts))


class CountingEvaluator(Evaluator):
    """An :class:`Evaluator` that also counts its evaluations per player."""

    def __init__(self, game):
        super().__init__(game)
        self.by_player = Counter()

    def value(self, player, profile, deviation=None):
        before = self.evaluations
        v = super().value(player, profile, deviation)
        self.by_player[player] += self.evaluations - before
        return v


def _assert_records_are_their_profiles(game, report):
    """Each record's profile is its players' strategies, and its values are
    that profile's, scored afresh."""
    fresh = Evaluator(game)
    for rec in report.profiles:
        assert rec.profile == assemble_profile(game, dict(rec.by_player))
        rescored = tuple((p, fresh.value(p, rec.profile)) for p in game.players.players)
        _assert_same(rec.values, rescored)


@settings(max_examples=60, deadline=None)
@given(st.none() | st.integers(0, 2**32 - 1))
@example(None)  # the cyclic game
@example(3)  # three one-agent players
@example(9)  # a one-agent player and a two-agent player
@example(5)  # causal, without a sequential order: three one-agent players
@example(23)  # causal, without a sequential order: one- and two-agent players
@example(68)  # unrestricted, with unplayable profiles
def test_records_are_their_profiles(seed):
    """Records of ``nash_equilibria`` and ``nash_stackelberg`` hold their
    profile and its values, for every choice of leaders of a random game of
    several players (drawn from ``seed``) or, without a seed, of
    ``games/cyclic_three_agents.json``, which has no sequential order: one
    follower or several, followers with several agents, and leaders only.

    Records read each value where the search scored it, so they score
    nothing: an anticipating leader's from the contexts of the last
    follower, every other player's from her own."""
    if seed is None:
        base = load_game(str(GAMES_DIR / "cyclic_three_agents.json"))
    else:
        rng = random.Random(seed)
        base = random_game(rng)
        while len(base.players.players) < 2:
            base = random_game(rng)
    players = base.players.players
    search = equilibria._stackelberg_in_session
    searched = []

    def counting_search(session):
        result = search(session)
        searched.append(Counter(session.evaluator.by_player))
        return result

    for n in range(len(players) + 1):
        for leaders in itertools.combinations(players, n):
            game = make_wgame(base.model, base.players, base.data, leaders)
            report = _outcome(lambda: nash_equilibria(game))
            if report[0] == "returns":
                _assert_records_are_their_profiles(game, report[1])
            if not leaders:
                continue
            for mode in MODES:
                ev = CountingEvaluator(game)
                searched.clear()
                with pytest.MonkeyPatch.context() as mp:
                    mp.setattr(equilibria, "_stackelberg_in_session", counting_search)
                    report = _outcome(lambda: nash_stackelberg(game, mode, evaluator=ev))
                if report[0] == "raises":
                    continue
                _assert_records_are_their_profiles(game, report[1])
                assert not ev.by_player - searched.pop()


def test_records_add_no_evaluation(monkeypatch):
    """Over the random games of seeds 0-299, building the records of
    ``nash_equilibria`` and of ``nash_stackelberg`` in every mode adds no
    evaluation and no context: each value is read where the search scored
    it."""
    records = equilibria._Session.records
    added = []

    def counted(session, *args):
        ev = session.evaluator
        before = (ev.evaluations, len(ev._contexts))
        out = records(session, *args)
        added.append((ev.evaluations, len(ev._contexts)) != before)
        return out

    monkeypatch.setattr(equilibria._Session, "records", counted)
    for seed in range(300):
        game = random_game(random.Random(seed))
        _outcome(lambda: nash_equilibria(game))
        if game.leaders:
            for mode in MODES:
                _outcome(lambda: nash_stackelberg(game, mode))
    assert len(added) > 1000
    assert not any(added)


def signed_zero_game():
    """The leader picks one of two actions, which the follower observes; the
    follower's worst-case cost is 0.0 after her first action and -0.0 after
    her second, so her keys tie and every response is a best response."""
    leader, follower = AgentId("L"), AgentId("F")
    ul, uf = small_factor("ul", 2, "action"), small_factor("uf", 2, "action")
    model = build_wmodel(
        [small_factor("n0", 1)],
        [leader, follower],
        {leader: ul, follower: uf},
        {leader: (), follower: ("ul",)},
    )
    # Objective tables over the points (n0, ul, uf), in row-major order.
    worst = RiskMeasure.worst_case()
    data = {
        "L": PlayerData(Objective("L", Sense.PAYOFF, (1.0, 2.0, 3.0, 4.0)), worst),
        "F": PlayerData(Objective("F", Sense.COST, (0.0, -0.0, 0.0, -0.0)), worst),
    }
    players = PlayerPartition(("L", "F"), {leader: "L", follower: "F"})
    return make_wgame(model, players, data, leaders=("L",))


def test_keyed_records_keep_each_members_signed_zero():
    ref = oracle.Oracle(signed_zero_game())
    game = ref.game
    for mode in MODES:
        report = _compare(
            ref,
            lambda ev: nash_stackelberg(game, mode, evaluator=ev),
            lambda ref: ref.nash_stackelberg(mode),
        )[1]
        follower_values = [repr(dict(rec.values)["F"]) for rec in report.profiles]
        # The leader plays her second action, so the follower's key atom is
        # her second: either action at the first, then either at the key.
        assert follower_values == ["0.0", "-0.0", "0.0", "-0.0"]


# --- The multi-player index walk against the per-profile loop ----------------
#
# ``_Session.nash`` walks a group of several players by strategy index and
# reads each member's statuses per context.  ``PerProfileSession`` keeps the
# loop it replaced, which builds every profile's assignment and asks
# ``judged`` and ``responses`` for each member in turn: the two must find the
# same profiles with the same counts, evaluations and errors.


class PerProfileSession(equilibria._Session):
    """A session whose multi-player groups are checked profile by profile."""

    def nash(self, players, fixed):
        if len(players) == 1:
            return super().nash(players, fixed)
        total = self.count(players)
        found = []
        infeasible = 0
        all_adverse = False
        for combo in itertools.product(*(self.space(p) for p in players)):
            assignment = dict(fixed)
            assignment.update(zip(players, combo))
            for p in players:
                v = self.judged(p, assignment)
                if v is None:
                    infeasible += 1
                    break
                best = self.responses(p, assignment).value
                if best == self.game.data[p].objective.sense.adverse:
                    all_adverse = True
                if v != best:
                    break
            else:
                found.append(tuple(zip(players, combo)))
        return tuple(found), total, infeasible, all_adverse


def _group_outcome(session_type, game, players, fixed, mode):
    ev = Evaluator(game)
    session = session_type(game, ev, PROFILE_LIMIT, mode)
    try:
        return ("returns", session.nash(players, fixed), ev.evaluations)
    except GameError as exc:
        return ("raises", type(exc).__name__, str(exc), ev.evaluations)


@settings(max_examples=80, deadline=None)
@given(st.integers(0, 2**32 - 1))
@example(3)  # three one-agent players
@example(9)  # a one-agent and a two-agent player
@example(23)  # causal, without a sequential order
@example(68)  # unrestricted, with unplayable profiles
@example(133)  # a leaders' profile whose followers have no joint best response
def test_index_walk_matches_the_per_profile_loop(seed):
    """Groups of 2-3 players of a random game: all players without a mode;
    the leaders under each Stackelberg mode, whose judged values walk the
    followers against each leaders' profile; and the followers against each
    leaders' profile."""
    rng = random.Random(seed)
    game = random_game(rng)
    while len(game.players.players) < 2:
        game = random_game(rng)
    cases = [(game.players.players, {}, None)]
    if game.leaders:
        cases += [(game.leaders, {}, mode) for mode in MODES]
        if len(game.followers) > 1:
            cases += [(game.followers, fixed, None) for fixed in oracle.leaders_profiles(game)]
    for players, fixed, mode in cases:
        walked = _group_outcome(equilibria._Session, game, players, fixed, mode)
        assert walked == _group_outcome(PerProfileSession, game, players, fixed, mode)


def test_walk_generator_covers_the_cases():
    """The walk test meets several-player groups of each kind, with and
    without a sequential order, and the outcomes that the walk records.
    No game here raises ``IndeterminateValue``: a table holds only its
    adverse infinity."""
    seen = set()
    for seed in range(200):
        rng = random.Random(seed)
        game = random_game(rng)
        while len(game.players.players) < 2:
            game = random_game(rng)
        sequential = game.model.sequential_order is not None
        seen.add(f"{len(game.players.players)} players")
        seen.add("sequential" if sequential else "no sequential order")
        if len(game.followers) > 1:
            seen.add("several followers")
        if len(game.leaders) > 1:
            seen.add("several leaders")
        outcome = _group_outcome(equilibria._Session, game, game.players.players, {}, None)
        if outcome[0] == "raises":
            seen.add(outcome[1])
        else:
            found, _, _, all_adverse = outcome[1]
            seen.add("found" if found else "none found")
            if all_adverse:
                seen.add("all adverse")
        if game.leaders:
            outcome = _group_outcome(equilibria._Session, game, game.leaders, {}, OPTIMISTIC)
            if outcome[0] == "returns" and outcome[1][2]:
                seen.add("infeasible leader profiles")
    assert seen >= {
        "2 players",
        "3 players",
        "sequential",
        "no sequential order",
        "several followers",
        "several leaders",
        "found",
        "none found",
        "all adverse",
        "NotPlayable",
        "infeasible leader profiles",
    }


# --- Kernel identities --------------------------------------------------------


def plain_deviation_table(model, agent, profile, order):
    """Forward substitution along ``order`` through every agent, the
    deviator playing each of his actions in turn."""
    tables = {s.agent: s.table for s in profile.strategies}
    columns = model.columns
    size = model.configuration.size
    atoms, rows = [], []
    for base in range(0, size, size // model.nature_space.size):
        row = []
        for action in range(model.action_factors[agent].size):
            idx = base
            for b in order:
                atom_of, stride, _ = columns[b]
                if b == agent:
                    if action == 0:
                        atoms.append(atom_of[idx])
                    idx += action * stride
                else:
                    idx += tables[b][atom_of[idx]] * stride
            row.append(idx)
        rows.append(row)
    return atoms, rows


def random_model_with_one_atom_agents(rng: random.Random):
    """A sequential model (agents declared out of order, cylinder or
    explicit information) where some agents see nothing, so have one atom."""
    nature, agents, actions, specs, _ = random_information_parts(rng, sequential=True)
    for a in specs:
        if rng.random() < 0.4:
            specs[a] = ()
    return build_wmodel(nature, agents, actions, specs)


def _one_atom_sides(model, order):
    """For each deviator, whether a one-atom agent comes before him and
    whether one comes after him in ``order``."""
    single = [model.info[a].atom_count == 1 for a in order]
    return {a: (any(single[:k]), any(single[k + 1:])) for k, a in enumerate(order)}


@settings(max_examples=150, deadline=None)
@given(st.integers(0, 2**32 - 1))
def test_deviation_table_matches_plain_substitution(seed):
    rng = random.Random(seed)
    model = random_model_with_one_atom_agents(rng)
    order = check_sequential(model)
    profile = random_profile(model, rng)
    for agent in model.agents:
        atoms, rows = deviation_table(model, (agent,), profile.strategies)
        assert (atoms, [list(row) for row in rows]) == plain_deviation_table(
            model, agent, profile, order
        )
        at = model.agents.index(agent)
        for action in range(model.action_factors[agent].size):
            constant = Strategy(agent, (action,) * model.info[agent].atom_count)
            strategies = profile.strategies
            played = StrategyProfile(strategies[:at] + (constant,) + strategies[at + 1:])
            assert fixed_point_outcomes(model, played) == [row[action] for row in rows]


def _one_agent_players_game(model):
    """The model with one player per agent, named as the agent prints, so
    that an :class:`Evaluator` can be built on it."""
    names = tuple(map(str, model.agents))
    players = PlayerPartition(names, {a: str(a) for a in model.agents})
    zeros = (0.0,) * model.configuration.size
    data = {p: PlayerData(Objective(p, Sense.COST, zeros), RiskMeasure.worst_case()) for p in names}
    return make_wgame(model, players, data)


@settings(max_examples=100, deadline=None)
@given(st.integers(0, 2**32 - 1))
def test_deviation_plans_are_built_once_per_agent(seed):
    rng = random.Random(seed)
    model = random_model_with_one_atom_agents(rng)
    order = check_sequential(model)
    profiles = [random_profile(model, rng) for _ in range(4)]
    calls = [(agent, profile) for profile in profiles for agent in model.agents]
    rng.shuffle(calls)
    for agent, profile in calls:
        atoms, rows = deviation_table(model, (agent,), profile.strategies)
        assert (atoms, [list(row) for row in rows]) == plain_deviation_table(
            model, agent, profile, order
        )
        at = model.agents.index(agent)
        for action in range(model.action_factors[agent].size):
            constant = Strategy(agent, (action,) * model.info[agent].atom_count)
            strategies = profile.strategies
            played = StrategyProfile(strategies[:at] + (constant,) + strategies[at + 1:])
            expected = [row[action] for row in rows]
            assert fixed_point_outcomes(model, played) == expected
            assert outcome_indices(model, played) == expected
    assert set(model._plans) == {(a,) for a in model.agents}
    plans = dict(model._plans)
    # Evaluators share no memo, but read the plans the model already holds.
    game = _one_agent_players_game(model)
    for profile in profiles:
        evaluator = Evaluator(game)
        for agent in model.agents:
            ctx = evaluator._context(str(agent), profile.strategies)
            assert (ctx.atoms, [list(row) for row in ctx.outcomes]) == plain_deviation_table(
                model, agent, profile, order
            )
        assert evaluator.outcome_indices(profile) == fixed_point_outcomes(model, profile)
    assert model._plans.keys() == plans.keys()
    assert all(model._plans[key] is plan for key, plan in plans.items())


@pytest.mark.parametrize("name", ["tou_pricing", "nature_orders"])
def test_check_sequential_runs_once_per_model(monkeypatch, name):
    """Every caller reads the model's one order, with or without one."""
    models = []
    check = infogames.model.check_sequential
    monkeypatch.setattr(
        infogames.model, "check_sequential", lambda model: models.append(model) or check(model)
    )
    game = load_game(str(GAMES_DIR / f"{name}.json"))
    model = game.model
    profile = random_profile(model, random.Random(0))
    first, second = Evaluator(game), Evaluator(game)
    assert not hasattr(first, "sequential_order") and not hasattr(first, "context")
    check_playability(model, "all")
    _outcome(lambda: solution_map(model, profile))
    _outcome(lambda: outcome_indices(model, profile))
    for ev in (first, second):
        _outcome(lambda: ev.outcome_indices(profile))
        _outcome(lambda: nash_equilibria(game, evaluator=ev))
    assert models == [model]


def test_plan_generator_covers_the_range_rows():
    """The generator draws deviators with one atom and with several, each
    both with and without another agent of several atoms in the order (the
    deviation table then has ``range`` rows)."""
    seen = set()
    for seed in range(100):
        model = random_model_with_one_atom_agents(random.Random(seed))
        for a in model.agents:
            others = any(model.info[b].atom_count > 1 for b in model.agents if b != a)
            seen.add((model.info[a].atom_count == 1, others))
    assert len(seen) == 4


def test_one_atom_generator_covers_the_cases():
    seen = set()
    for seed in range(100):
        model = random_model_with_one_atom_agents(random.Random(seed))
        for before, after in _one_atom_sides(model, check_sequential(model)).values():
            seen.add(("one-atom agent before" if before else "none before",
                      "one-atom agent after" if after else "none after"))
    assert len(seen) == 4


def _risk_outcome(fn):
    try:
        result = fn()
    except (GameError, ValueError) as exc:
        return ("raises", type(exc).__name__, str(exc))
    return ("returns", result)


@settings(max_examples=300, deadline=None)
@given(st.integers(0, 2**32 - 1))
@example(0)
def test_apply_risk_matches_the_pairs_formula(seed):
    """Every risk kind, with and without a belief, on tables mixing both
    infinities, both zeros, ints and floats, over beliefs that may leave
    states without mass; a table of the wrong length must fail alike."""
    rng = random.Random(seed)
    space = make_product_space([small_factor("n0", rng.randint(1, 5))])
    masses = random_mass_vector(rng, space.size)
    if rng.random() < 0.3:
        raw = [rng.choice((0, 0, 1, 3)) for _ in range(space.size)]
        if not any(raw):
            raw[rng.randrange(space.size)] = 1
        masses = tuple(m / sum(raw) for m in raw)
    belief = Belief.joint_over(space, masses)
    risks = [
        RiskMeasure.expectation(belief),
        RiskMeasure.worst_case(),
        RiskMeasure.worst_case(belief),
        RiskMeasure.cvar(rng.choice((0.1, 0.25, 0.5, 1.0)), belief),
    ]
    pool = (math.inf, -math.inf, 0.0, -0.0, 0, 3, -2, 1.5, -0.25, 7.0)
    for _ in range(20):
        size = space.size if rng.random() < 0.9 else space.size + 1
        values = [rng.choice(pool) for _ in range(size)]
        for risk in risks:
            for sense in Sense:
                mine = _risk_outcome(lambda: apply_risk(risk, values, sense))
                pairs = _risk_outcome(lambda: oracle.pairs_apply_risk(risk, values, sense))
                _assert_same(mine, pairs)


# --- Player contexts: one table per (player, others) ---------------------------
#
# A player with several agents is scored from one context per strategies of
# the other players, keyed by her actions at every (agent, atom) pair she
# reaches at her positive-mass states on any branch.  The games below make
# her later agents read her earlier actions (directly or through another
# player's agent between hers), and sometimes leave the model without a
# sequential order.


def random_multi_agent_game(rng: random.Random):
    """A game of 2-3 players where ``P`` owns 2-3 agents; the other players
    own one or two.  Agents act in a hidden order, declared shuffled; another
    player's agent often sits between ``P``'s, and each agent sees Nature
    and earlier actions at random, ``P``'s later agents often her earlier
    ones.  One model in five adds an observation against the hidden order,
    which usually leaves it without a sequential order (and some profiles
    unplayable).  One game in eight is instead a causal model
    (:func:`random_causal_model`), every profile playable, whose first two
    agents ``P`` owns, and a third ``Q``.  Risks may leave states without mass; some players
    lead."""
    if rng.random() < 0.125:
        model = random_causal_model(rng)
        players = ["P", "Q"][: len(model.agents) - 1]
        assignment = {a: "P" if a.stage <= 2 else "Q" for a in model.agents}
        return _random_players_data(rng, model, players, assignment)
    nature = [small_factor("n0", rng.randint(1, 3))]
    if rng.random() < 0.4:
        nature.append(small_factor("n1", 2, "nature-type"))
    players = ["P", "Q"] + (["R"] if rng.random() < 0.3 else [])
    own = {"P": rng.randint(2, 3), "Q": rng.randint(1, 2), "R": 1}
    agents = [AgentId(p, t) for p in players for t in range(1, own[p] + 1)]
    # A random interleaving, each player's agents in stage order.
    staged = {p: iter([a for a in agents if a.player == p]) for p in players}
    order = [next(staged[a.player]) for a in rng.sample(agents, len(agents))]
    actions = {a: small_factor(f"u_{a.player}{a.stage}", 2 if rng.random() < 0.8 else 3, "action") for a in order}
    info = {}
    for i, a in enumerate(order):
        visible = [f.id for f in nature if rng.random() < 0.5]
        for b in order[:i]:
            p_own = a.player == "P" and b.player == "P"
            if rng.random() < (0.7 if p_own else 0.4):
                visible.append(actions[b].id)
        info[a] = visible
    if rng.random() < 0.2:
        early, late = sorted(rng.sample(range(len(order)), 2))
        info[order[early]] = info[order[early]] + [actions[order[late]].id]
    while True:
        model = build_wmodel(nature, rng.sample(order, len(order)), actions, info)
        if count_profiles(model, model.agents) <= PROFILE_LIMIT:
            break
        # Too many strategies: drop an observation and retry.
        a = rng.choice([a for a in order if info[a]])
        info[a] = info[a][:-1]
    return _random_players_data(rng, model, players, {a: a.player for a in model.agents})


def _random_players_data(rng: random.Random, model, players, assignment):
    """The game of ``players`` owning the model's agents by ``assignment``,
    each with a random objective (sometimes at the adverse infinity) and
    risk; some players lead."""
    data = {}
    for p in players:
        sense = rng.choice((Sense.COST, Sense.PAYOFF))
        values = tuple(
            sense.adverse if rng.random() < 0.1 else float(rng.randint(-4, 4))
            for _ in range(model.configuration.size)
        )
        data[p] = PlayerData(Objective(p, sense, values), _random_risk(rng, model.nature_space))
    leaders = tuple(p for p in players if rng.random() < 0.35)
    return make_wgame(model, PlayerPartition(tuple(players), assignment), data, leaders)



def plain_player_table(model, agents, profile):
    """Forward substitution along the sequential order through every agent,
    once per joint action of ``agents`` (the earliest in the order most
    significant), recording per state the digit each of them reads on each
    branch so far and the outcome of each joint action."""
    order = model.sequential_order
    mine = [a for a in order if a in agents]
    offsets = dict(zip(agents, itertools.accumulate((model.info[a].atom_count for a in agents), initial=0)))
    tables = {s.agent: s.table for s in profile.strategies}
    counts = [model.action_factors[a].size for a in mine]
    size = model.configuration.size
    reads, outcomes = [], []
    for base in range(0, size, size // model.nature_space.size):
        read = [{} for _ in mine]
        row = []
        for joint in itertools.product(*map(range, counts)):
            idx = base
            for b in order:
                atom_of, stride, _ = model.columns[b]
                if b in agents:
                    j = mine.index(b)
                    read[j].setdefault(joint[:j], offsets[b] + atom_of[idx])
                    idx += joint[j] * stride
                else:
                    idx += tables[b][atom_of[idx]] * stride
            row.append(idx)
        reads.append([list(r.values()) for r in read])
        outcomes.append(row)
    return reads, outcomes


def _per_state(agents, atoms, outcomes):
    """``deviation_table``'s reads and outcomes in the form of
    :func:`plain_player_table`."""
    reads = [[[a]] for a in atoms] if len(agents) == 1 else [[list(read) for read in at] for at in atoms]
    return reads, [list(row) for row in outcomes]


def _groups(model, rng: random.Random):
    """Every agent alone, and a few random groups of agents, in model order."""
    groups = [(a,) for a in model.agents]
    for _ in range(3):
        k = rng.randint(2, len(model.agents)) if len(model.agents) > 1 else 1
        chosen = rng.sample(model.agents, k)
        groups.append(tuple(a for a in model.agents if a in chosen))
    return groups


@settings(max_examples=150, deadline=None)
@given(st.integers(0, 2**32 - 1))
def test_player_tables_match_plain_substitution(seed):
    """The table of any group of agents, against random strategies of the
    others: the digits read on each branch and the outcome of each joint
    action, with and without agents of the group reading earlier ones."""
    rng = random.Random(seed)
    if rng.random() < 0.5:
        model = random_model_with_one_atom_agents(rng)
    else:
        model = random_multi_agent_game(rng).model
        if model.sequential_order is None:
            return
    profile = random_profile(model, rng)
    for agents in _groups(model, rng):
        atoms, outcomes = deviation_table(model, agents, profile.strategies)
        assert _per_state(agents, atoms, outcomes) == plain_player_table(model, agents, profile)


def test_player_table_generator_covers_the_cases():
    """The table test meets groups whose agents branch and groups whose do
    not, with other agents between theirs that read them or not."""
    seen = set()
    for seed in range(100):
        rng = random.Random(seed)
        if rng.random() < 0.5:
            model = random_model_with_one_atom_agents(rng)
        else:
            model = random_multi_agent_game(rng).model
            if model.sequential_order is None:
                continue
        random_profile(model, rng)
        for agents in _groups(model, rng):
            if len(agents) == 1:
                continue
            moved = dependents(model, agents)
            seen.add("branching" if not moved.isdisjoint(agents) else "not branching")
            if moved - set(agents):
                seen.add("another agent reads theirs")
    assert seen == {"branching", "not branching", "another agent reads theirs"}


def _compare_solvers(ref, game, rng):
    """Every solver on ``game`` against the oracle ``ref`` (:func:`_compare`):
    each player's best responses to a random profile, Nash, and with leaders
    the followers' Nash at each leaders' profile, each leader's value and the
    Stackelberg and Nash-Stackelberg sets, in every mode."""
    for player, others in random_contexts(game, rng):
        _compare(ref, lambda ev: best_responses(game, player, others, evaluator=ev),
                 lambda ref: ref.best_responses(player, others))
    _compare(ref, lambda ev: nash_equilibria(game, evaluator=ev), lambda ref: ref.nash_equilibria())
    if not game.leaders:
        return
    for leaders in oracle.leaders_profiles(game):
        _compare(ref, lambda ev: followers_nash(game, leaders, evaluator=ev),
                 lambda ref: ref.followers_nash(leaders))
        for mode in MODES:
            for leader in game.leaders:
                _compare(ref, lambda ev: leader_value(game, leader, leaders, mode, evaluator=ev),
                         lambda ref: ref.leader_value(leader, leaders, mode))
    for mode in MODES:
        _compare(ref, lambda ev: stackelberg_strategies(game, mode, evaluator=ev),
                 lambda ref: ref.stackelberg_strategies(mode))
        _compare(ref, lambda ev: nash_stackelberg(game, mode, evaluator=ev),
                 lambda ref: ref.nash_stackelberg(mode))


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 2**32 - 1))
def test_player_contexts_match_the_oracle(seed):
    """Values, members and their order, errors and evaluation counts of every
    solver on games with multi-agent players, against the oracle."""
    rng = random.Random(seed)
    game = random_multi_agent_game(rng)
    _compare_solvers(oracle.Oracle(game), game, rng)


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 2**32 - 1))
def test_player_contexts_match_the_profile_path(seed):
    """Every player's value at each strategy of each deviating player, scored
    from the deviator's context, and every solver, against the full-profile
    path, on games with multi-agent players."""
    rng = random.Random(seed)
    game = random_multi_agent_game(rng)
    ev = Evaluator(game)
    base = random_profile(game.model, rng)
    for deviator in game.players.players:
        ctx = ev._context(deviator, base.strategies)
        for deviation in player_strategies(game, deviator):
            profile = ctx.splice(deviation)
            for p in game.players.players:
                kernel = _outcome(lambda: ev.value(p, ctx, digits(deviation)))
                _assert_same(kernel, _outcome(lambda: PlainEvaluator(game).value(p, profile)))
                _assert_same(kernel, _outcome(lambda: Evaluator(game).value(p, profile)))

    def both(solve):
        _assert_same(_outcome(lambda: solve(Evaluator(game))), _outcome(lambda: solve(PlainEvaluator(game))))

    both(lambda ev: nash_equilibria(game, evaluator=ev))
    if game.leaders:
        for mode in MODES:
            both(lambda ev: stackelberg_strategies(game, mode, evaluator=ev))
            both(lambda ev: nash_stackelberg(game, mode, evaluator=ev))


def test_multi_agent_generator_covers_the_cases():
    seen = set()
    for seed in range(200):
        game = random_multi_agent_game(random.Random(seed))
        model = game.model
        order = model.sequential_order
        hers = game.agents_of("P")
        if order is None:
            playable = check_playability(model, "all").playable
            seen.add("no sequential order, " + ("playable" if playable else "not playable"))
        else:
            at = sorted(order.index(a) for a in hers)
            if any(order[i] not in hers for i in range(at[0], at[-1])):
                seen.add("another agent between hers")
            moved = dependents(model, hers)
            seen.add("her agents branch" if not moved.isdisjoint(hers) else "her agents do not branch")
            if moved - set(hers):
                seen.add("another agent reads hers")
        risk = game.data["P"].risk
        if risk.belief is not None and 0.0 in risk.belief.masses:
            seen.add("zero-mass state")
        seen.add(f"{len(game.players.players)} players")
        if game.leaders:
            seen.add("leaders")
    assert seen == {
        "no sequential order, playable",
        "no sequential order, not playable",
        "another agent between hers",
        "her agents branch",
        "her agents do not branch",
        "another agent reads hers",
        "zero-mass state",
        "1 players",
        "2 players",
        "3 players",
        "leaders",
    }


def test_current_stage_thai_follower_scores_four_keys():
    """In ``games/thai_two_consumers.json`` (current stage: a consumer sees
    her own type and each stage's target) each consumer's two agents have
    two atoms each, but the leader's strategy fixes the target of each
    stage, so a best-response set reads one atom per agent: 4 keys of her
    16 strategies, each scored once."""
    game = load_game(str(GAMES_DIR / "thai_two_consumers.json"))
    rng = random.Random(0)
    for player, others in random_contexts(game, rng):
        if player == "leader":
            continue
        assert count_profiles(game.model, game.agents_of(player)) == 16
        ev = Evaluator(game)
        best_responses(game, player, others, evaluator=ev)
        assert ev.evaluations == 4


def test_contexts_are_built_once_per_player_and_others(monkeypatch):
    """Solving ``games/thai_two_consumers.json``, where every player owns two
    agents, builds one deviation table per deviating player and strategies
    of the other players, each once."""
    game = load_game(str(GAMES_DIR / "thai_two_consumers.json"))
    slots = {p: {game.model.agents.index(a) for a in game.agents_of(p)} for p in game.players.players}
    built = []
    table = infogames.normal_form.deviation_table

    def counted(model, agents, strategies):
        player = game.players.assignment[agents[0]]
        assert set(agents) == set(game.agents_of(player))
        others = tuple(s for i, s in enumerate(strategies) if i not in slots[player])
        built.append((player, others))
        return table(model, agents, strategies)

    monkeypatch.setattr(infogames.normal_form, "deviation_table", counted)
    # Nash deviates every player; Nash-Stackelberg the followers, the leader
    # being judged by anticipation.
    cases = [
        (lambda ev: nash_equilibria(game, evaluator=ev), game.players.players),
        (lambda ev: nash_stackelberg(game, OPTIMISTIC, evaluator=ev), game.followers),
    ]
    for solve, deviating in cases:
        built.clear()
        ev = Evaluator(game)
        solve(ev)
        assert len(built) == len(set(built)) == len(ev._contexts)
        assert {p for p, _ in built} == set(deviating)
