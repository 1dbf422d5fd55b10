"""Context-table scoring against the plain profile path.

``PlainEvaluator`` scores every value, deviations included, by the full
profile's outcome indices and one ``apply_risk`` call, with no memo.  The
library's evaluator must give the same floats (``==`` and ``repr``), and every
solver must return the same results with either evaluator.  Best-response
sets built from memo keys must equal a brute-force enumeration of every
strategy through that path.
"""

from __future__ import annotations

import itertools
import math
import random
from collections import Counter

from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from infogames import (
    OPTIMISTIC,
    PESSIMISTIC,
    AgentId,
    Belief,
    BestResponseSet,
    CapacityExceeded,
    EquilibriumReport,
    Evaluator,
    GameError,
    IndeterminateValue,
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
    enumerate_strategies,
    followers_nash,
    leader_risk_mode,
    leader_value,
    load_game,
    make_product_space,
    make_wgame,
    nash_equilibria,
    nash_stackelberg,
    player_strategies,
    stackelberg_strategies,
    theta_mode,
)
from infogames import equilibria
from infogames.equilibria import Diagnostics, ProfileRecord, _anticipate
from infogames.model import check_sequential, deviation_table, joint_strategies, outcome_indices
from infogames.normal_form import assemble_profile
from infogames.preferences import RiskKind, apply_risk
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
        "no sequential order, playable",
        "no sequential order, not playable",
    }



# --- Keyed best-response sets against brute force ----------------------------
#
# A one-agent player judged by her normal-form value has her best-response
# set built from her memo keys, and a leader's anticipation over one such
# follower scores each distinct leader key once.  The oracle below enumerates
# every strategy instead, scoring each with a ``score(player, assignment,
# deviator)`` function: :func:`plain_scorer` scores full profiles through
# ``PlainEvaluator`` (results must be equal), :func:`context_scorer` scores
# from ``Evaluator`` context tables, as enumeration did (the evaluation count
# must be equal).


def plain_scorer(game):
    plain = PlainEvaluator(game)
    return lambda p, assignment, deviator: plain.value(p, assemble_profile(game, assignment))


def context_scorer(game):
    ev = Evaluator(game)

    def score(p, assignment, deviator):
        own = assignment[deviator][-1]
        ctx = ev.context(own.agent, assemble_profile(game, assignment))
        return ev.value(p, ctx, own)

    return ev, score


def _first_best(sense, values):
    best = None
    for v in values:
        if v is not None and (best is None or sense.better(v, best)):
            best = v
    return best


def oracle_best_responses(game, score, player, others):
    sense = game.data[player].objective.sense
    space = player_strategies(game, player)
    values = [score(player, {**others, player: c}, player) for c in space]
    best = _first_best(sense, values)
    context = tuple((q, others[q]) for q in game.players.players if q != player)
    members = tuple(c for c, v in zip(space, values) if v == best)
    return BestResponseSet(player, context, members, best, all_adverse=(best == sense.adverse))


def oracle_leader_value(game, score, leaders, mode):
    (leader,), (follower,) = game.leaders, game.followers
    members = oracle_best_responses(game, score, follower, leaders).strategies
    values = [score(leader, {**leaders, follower: c}, follower) for c in members]
    return _anticipate(values, game.data[leader].objective.sense, mode)


def oracle_stackelberg(game, score, mode):
    (leader,) = game.leaders
    space = player_strategies(game, leader)
    values = [oracle_leader_value(game, score, {leader: c}, mode) for c in space]
    best = _first_best(game.data[leader].objective.sense, values)
    leader_set = tuple(((leader, c),) for c, v in zip(space, values) if v == best)
    diag = Diagnostics(profiles_enumerated=len(space), ties=len(leader_set) - 1)
    return leader_set, diag


def oracle_nash_stackelberg(game, score, mode):
    leader_set, diag = oracle_stackelberg(game, score, mode)
    (follower,) = game.followers
    records = []
    for leaders in leader_set:
        for c in oracle_best_responses(game, score, follower, dict(leaders)).strategies:
            assignment = {**dict(leaders), follower: c}
            records.append(
                ProfileRecord(
                    tuple((p, assignment[p]) for p in game.players.players),
                    assemble_profile(game, assignment),
                    tuple((p, score(p, assignment, follower)) for p in game.players.players),
                )
            )
    return EquilibriumReport("nash-stackelberg", tuple(records), diag, mode=mode)


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


def _key_atoms(game, player, others):
    """The player's memo-key atoms and atom count in the context of ``others``."""
    (agent,) = game.agents_of(player)
    ev = Evaluator(game)
    zeros = (next(enumerate_strategies(game.model, agent)),)
    ctx = ev.context(agent, assemble_profile(game, {**others, player: zeros}))
    return ctx.key_atoms(game.data[player].risk), game.model.info[agent].atom_count


def _compare(game, solve, oracle):
    """Library and oracle agree on result and repr (or on the raised error),
    and the library makes exactly the evaluations enumeration makes."""
    ev = Evaluator(game)
    kernel = _outcome(lambda: solve(ev))
    _assert_same(kernel, _outcome(lambda: oracle(plain_scorer(game))))
    enumerated, context_score = context_scorer(game)
    _assert_same(kernel, _outcome(lambda: oracle(context_score)))
    assert ev.evaluations == enumerated.evaluations
    return kernel


@settings(max_examples=80, deadline=None)
@given(st.integers(0, 2**32 - 1))
def test_best_responses_match_brute_force(seed):
    rng = random.Random(seed)
    game = random_game(rng)
    by_agent = {s.agent: s for s in random_profile(game.model, rng).strategies}
    for player in game.players.players:
        others = {
            q: tuple(by_agent[a] for a in game.agents_of(q))
            for q in game.players.players
            if q != player
        }
        _compare(
            game,
            lambda ev: best_responses(game, player, others, evaluator=ev),
            lambda score: oracle_best_responses(game, score, player, others),
        )


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 2**32 - 1))
def test_leader_follower_solvers_match_brute_force(seed):
    rng = random.Random(seed)
    game = random_leader_follower_game(rng)
    (leader,), (follower,) = game.leaders, game.followers
    for c in player_strategies(game, leader):
        leaders = {leader: c}
        _compare(
            game,
            lambda ev: followers_nash(game, leaders, evaluator=ev),
            lambda score: tuple(
                ((follower, f),)
                for f in oracle_best_responses(game, score, follower, leaders).strategies
            ),
        )
        for mode in MODES:
            _compare(
                game,
                lambda ev: leader_value(game, leader, leaders, mode, evaluator=ev),
                lambda score: oracle_leader_value(game, score, leaders, mode),
            )
    for mode in MODES:
        _compare(
            game,
            lambda ev: stackelberg_strategies(game, mode, evaluator=ev),
            lambda score: oracle_stackelberg(game, score, mode),
        )
        _compare(
            game,
            lambda ev: nash_stackelberg(game, mode, evaluator=ev),
            lambda score: oracle_nash_stackelberg(game, score, mode),
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
            continue
        if Evaluator(game).sequential_order is None:
            continue  # no keyed path without a sequential order
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
        atoms, size = _key_atoms(game, follower, leaders)
        if len(atoms) < size:
            seen.add("atoms outside the key")
        if len(followers_nash(game, leaders)) > 1:
            seen.add("tied responses")
    assert seen == {
        "multi-agent follower",
        "worst case without belief",
        "zero-mass state",
        "cvar",
        "adverse infinity",
        "atoms outside the key",
        "tied responses",
    }


def test_stackelberg_builds_follower_strategies_only_to_score_keys(monkeypatch):
    """``stackelberg`` on the shipped pricing game never enumerates the
    follower's strategies: every follower strategy it builds is the one
    representative scored for a memo key, and none outside the response
    sets is listed."""
    game = load_game(str(GAMES_DIR / "tou_pricing.json"))
    (follower,) = game.followers
    (agent,) = game.agents_of(follower)
    built, enumerated = [], []

    def strategy(a, table):
        s = Strategy(a, table)
        if a == agent:
            built.append(s)
        return s

    def strategies(g, player, cap):
        enumerated.append(player)
        return player_strategies(g, player, cap)

    monkeypatch.setattr(equilibria, "Strategy", strategy)
    monkeypatch.setattr(equilibria, "player_strategies", strategies)
    for mode in MODES:
        built.clear()
        ev = Evaluator(game)
        assert stackelberg_strategies(game, mode, evaluator=ev)[0]
        # Each follower strategy built is scored once, as an evaluation.
        assert len(built) == ev.evaluations
        built.clear()
        ev = Evaluator(game)
        report = nash_stackelberg(game, mode, evaluator=ev)
        # ... and nash-stackelberg lists each reported response once more.
        assert len(built) == ev.evaluations + len(report.profiles)
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
# context's memo entry per player, with no profile assembled or value scored.


def test_keyed_records_assemble_no_profile_and_score_nothing(monkeypatch):
    game = load_game(str(GAMES_DIR / "tou_pricing.json"))
    assembled, searched = [], []
    search = equilibria._stackelberg_in_session

    def counting_assemble(g, by_player):
        assembled.append(by_player)
        return assemble_profile(g, by_player)

    def counting_search(session):
        result = search(session)
        searched.append(session.evaluator.evaluations)
        return result

    monkeypatch.setattr(equilibria, "assemble_profile", counting_assemble)
    monkeypatch.setattr(equilibria, "_stackelberg_in_session", counting_search)
    for mode in MODES:
        assembled.clear()
        ev = Evaluator(game)
        report = nash_stackelberg(game, mode, evaluator=ev)
        leader_profiles = report.diagnostics.profiles_enumerated
        assert len(report.profiles) > leader_profiles
        # One context per leader profile during the search, none per record.
        assert len(assembled) <= leader_profiles
        assert searched.pop() == ev.evaluations


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

    Records read the values from the contexts of the last follower (the
    last player when there are none).  The search has scored the deviator's
    values there, and, when there are followers, the leaders'; with a single
    follower that is every value, so the records score nothing."""
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
            deviator = (game.followers or players)[-1]
            scored = {deviator, *(leaders if game.followers else ())}
            for mode in MODES:
                ev = CountingEvaluator(game)
                searched.clear()
                with pytest.MonkeyPatch.context() as mp:
                    mp.setattr(equilibria, "_stackelberg_in_session", counting_search)
                    report = _outcome(lambda: nash_stackelberg(game, mode, evaluator=ev))
                if report[0] == "raises":
                    continue
                _assert_records_are_their_profiles(game, report[1])
                added = ev.by_player - searched.pop()
                assert not scored & set(added)
                if len(game.followers) == 1:
                    assert not added


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
    game = signed_zero_game()
    for mode in MODES:
        report = _compare(
            game,
            lambda ev: nash_stackelberg(game, mode, evaluator=ev),
            lambda score: oracle_nash_stackelberg(game, score, mode),
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
            leader_agents = [a for ld in game.leaders for a in game.agents_of(ld)]
            for leaders in joint_strategies(game.model, leader_agents, math.inf, "leaders"):
                queue = list(leaders)
                fixed = {ld: tuple(queue.pop(0) for _ in game.agents_of(ld)) for ld in game.leaders}
                cases.append((game.followers, fixed, None))
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
        sequential = Evaluator(game).sequential_order is not None
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
        atoms, rows = deviation_table(model, agent, profile, order)
        assert (atoms, [list(row) for row in rows]) == plain_deviation_table(
            model, agent, profile, order
        )
        at = model.agents.index(agent)
        for action in range(model.action_factors[agent].size):
            constant = Strategy(agent, (action,) * model.info[agent].atom_count)
            strategies = profile.strategies
            played = StrategyProfile(strategies[:at] + (constant,) + strategies[at + 1:])
            assert outcome_indices(model, played, None) == [row[action] for row in rows]


def test_one_atom_generator_covers_the_cases():
    seen = set()
    for seed in range(100):
        model = random_model_with_one_atom_agents(random.Random(seed))
        for before, after in _one_atom_sides(model, check_sequential(model)).values():
            seen.add(("one-atom agent before" if before else "none before",
                      "one-atom agent after" if after else "none after"))
    assert len(seen) == 4


def pairs_expectation(pairs, where="carry positive mass"):
    has_pos = any(v == math.inf for v, _ in pairs)
    has_neg = any(v == -math.inf for v, _ in pairs)
    if has_pos and has_neg:
        raise IndeterminateValue(f"both +inf and -inf {where}")
    if has_pos:
        return math.inf
    if has_neg:
        return -math.inf
    total = math.fsum(m for _, m in pairs)
    return math.fsum(v * m for v, m in pairs) / total


def pairs_apply_risk(risk, values, sense):
    """``apply_risk`` as it read before each risk measure kept its support:
    (value, mass) pairs filtered from the whole table on every call."""
    if risk.belief is not None and len(values) != risk.belief.space.size:
        raise ValueError("value table length does not match Nature size")
    if risk.belief is None:
        pairs = [(float(v), 1.0) for v in values]
    else:
        pairs = [(float(v), m) for v, m in zip(values, risk.belief.masses) if m > 0]
    if risk.kind is RiskKind.WORST_CASE:
        return sense.worst(v for v, _ in pairs)
    if risk.kind is RiskKind.EXPECTATION:
        return pairs_expectation(pairs)
    assert risk.alpha is not None
    ordered = sorted(pairs, key=lambda vm: vm[0], reverse=(sense is Sense.COST))
    taken = []
    remaining = risk.alpha
    for v, m in ordered:
        if remaining <= 0:
            break
        take = min(m, remaining)
        taken.append((v, take))
        remaining -= take
    return pairs_expectation(taken, "lie in the adverse tail")


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
                _assert_same(mine, _risk_outcome(lambda: pairs_apply_risk(risk, values, sense)))
