"""Best responses, Nash, Stackelberg modes, multi-leader-multi-follower."""

import itertools
import math
import random
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from infogames import (
    OPTIMISTIC,
    PESSIMISTIC,
    AgentId,
    Belief,
    EmptyFollowerResponse,
    Evaluator,
    Objective,
    PlayerData,
    PlayerPartition,
    RiskMeasure,
    Sense,
    StackelbergMode,
    Strategy,
    best_responses,
    build_prisoners_dilemma,
    build_wmodel,
    followers_nash,
    leader_risk_mode,
    leader_value,
    load_game,
    make_wgame,
    nash_equilibria,
    nash_stackelberg,
    player_strategies,
    stackelberg_strategies,
    theta_mode,
)
from infogames.normal_form import assemble_profile
from conftest import random_lf_game, rescale_player, small_factor

INF = math.inf
GAMES_DIR = Path(__file__).resolve().parent.parent / "games"


def one_shot_game(row_costs, col_costs, senses=(Sense.COST, Sense.COST), leaders=()):
    """Two players, one binary action each, singleton Nature, joint tables
    given as {(i, j): value}."""
    w = small_factor("w", 1)
    a, b = AgentId("P1"), AgentId("P2")
    ua, ub = small_factor("u1", 2, "action"), small_factor("u2", 2, "action")
    info_b = ("u1",) if leaders else ()
    model = build_wmodel([w], [a, b], {a: ua, b: ub}, {a: (), b: info_b})
    belief = Belief.uniform(model.nature_space)

    def table(costs):
        return tuple(
            float(costs[(pt[1], pt[2])]) for pt in model.configuration.points()
        )

    players = PlayerPartition(("P1", "P2"), {a: "P1", b: "P2"})
    data = {
        "P1": PlayerData(Objective("P1", senses[0], table(row_costs)), RiskMeasure.expectation(belief)),
        "P2": PlayerData(Objective("P2", senses[1], table(col_costs)), RiskMeasure.expectation(belief)),
    }
    return make_wgame(model, players, data, leaders=leaders)


class TestBestResponses:
    def test_prisoners_dilemma_row_vs_cooperate(self):
        game = build_prisoners_dilemma()
        cols = player_strategies(game, "col")
        br = best_responses(game, "row", {"col": cols[0]})
        assert br.value == 0.0
        assert len(br.strategies) == 1
        assert br.strategies[0][0].table == (1,)  # defect

    def test_prisoners_dilemma_row_vs_defect(self):
        game = build_prisoners_dilemma()
        cols = player_strategies(game, "col")
        br = best_responses(game, "row", {"col": cols[1]})
        assert br.value == 5.0
        assert [s[0].table for s in br.strategies] == [(1,)]

    def test_single_strategy_player(self):
        game = one_shot_game(
            {(0, 0): 1, (0, 1): 2, (1, 0): 3, (1, 1): 4},
            {(0, 0): 1, (0, 1): 2, (1, 0): 3, (1, 1): 4},
        )
        # Freeze P1; P2 has two strategies, so flip the question: give P2 a
        # single-strategy space by checking context requirements instead.
        with pytest.raises(ValueError, match="context"):
            best_responses(game, "P1", {})

    def test_ties_all_included_in_order(self):
        game = one_shot_game(
            {(0, 0): 1, (0, 1): 1, (1, 0): 1, (1, 1): 1},
            {(0, 0): 0, (0, 1): 0, (1, 0): 0, (1, 1): 0},
        )
        br = best_responses(game, "P1", {"P2": player_strategies(game, "P2")[0]})
        assert len(br.strategies) == 2
        assert [s[0].table for s in br.strategies] == [(0,), (1,)]

    def test_adverse_infinite_profiles_excluded(self):
        game = one_shot_game(
            {(0, 0): INF, (0, 1): INF, (1, 0): 2, (1, 1): 2},
            {(0, 0): 0, (0, 1): 0, (1, 0): 0, (1, 1): 0},
        )
        br = best_responses(game, "P1", {"P2": player_strategies(game, "P2")[0]})
        assert br.value == 2.0
        assert not br.all_adverse
        assert [s[0].table for s in br.strategies] == [(1,)]

    def test_all_adverse_flag_returns_full_set(self):
        game = one_shot_game(
            {(0, 0): INF, (0, 1): INF, (1, 0): INF, (1, 1): INF},
            {(0, 0): 0, (0, 1): 0, (1, 0): 0, (1, 1): 0},
        )
        br = best_responses(game, "P1", {"P2": player_strategies(game, "P2")[0]})
        assert br.all_adverse
        assert len(br.strategies) == 2


class TestNash:
    def test_prisoners_dilemma_unique_equilibrium(self):
        game = build_prisoners_dilemma()
        report = nash_equilibria(game)
        assert len(report.profiles) == 1
        rec = report.profiles[0]
        assert {p: ps[0].table for p, ps in rec.by_player} == {"row": (1,), "col": (1,)}
        assert dict(rec.values) == {"row": 5.0, "col": 5.0}

    def test_matching_pennies_costs_have_no_pure_equilibrium(self):
        # P1 wants to match, P2 wants to mismatch; brute-force all 4 profiles.
        match_cost = {(0, 0): 0, (0, 1): 1, (1, 0): 1, (1, 1): 0}
        mismatch_cost = {(0, 0): 1, (0, 1): 0, (1, 0): 0, (1, 1): 1}
        game = one_shot_game(match_cost, mismatch_cost)
        ev = Evaluator(game)
        p1 = player_strategies(game, "P1")
        p2 = player_strategies(game, "P2")
        oracle = []
        for s1, s2 in itertools.product(p1, p2):
            prof = assemble_profile(game, {"P1": s1, "P2": s2})
            v1 = ev.value("P1", prof)
            v2 = ev.value("P2", prof)
            dev1 = min(
                ev.value("P1", assemble_profile(game, {"P1": d, "P2": s2})) for d in p1
            )
            dev2 = min(
                ev.value("P2", assemble_profile(game, {"P1": s1, "P2": d})) for d in p2
            )
            if v1 == dev1 and v2 == dev2:
                oracle.append((s1, s2))
        assert oracle == []
        assert nash_equilibria(game).profiles == ()

    def test_one_player_game_reduces_to_argmin(self):
        w = small_factor("w", 2)
        a = AgentId("solo")
        ua = small_factor("ua", 3, "action")
        model = build_wmodel([w], [a], {a: ua}, {a: ()})
        belief = Belief.uniform(model.nature_space)
        values = {0: 5.0, 1: 2.0, 2: 9.0}
        obj = Objective.from_function(
            model.configuration, "solo", Sense.COST, lambda pt: values[pt[1]]
        )
        game = make_wgame(
            model,
            PlayerPartition(("solo",), {a: "solo"}),
            {"solo": PlayerData(obj, RiskMeasure.expectation(belief))},
        )
        report = nash_equilibria(game)
        assert len(report.profiles) == 1
        assert report.profiles[0].by_player[0][1][0].table == (1,)

    def test_all_adverse_diagnostic(self):
        doomed = one_shot_game(
            {(0, 0): INF, (0, 1): INF, (1, 0): INF, (1, 1): INF},
            {(0, 0): 0, (0, 1): 1, (1, 0): 0, (1, 1): 1},
        )
        assert nash_equilibria(doomed).diagnostics.all_adverse
        assert not nash_equilibria(build_prisoners_dilemma()).diagnostics.all_adverse

    def test_reverification_does_not_trust_the_search_memo(self):
        # A corrupted context memo makes (C, C) look like an equilibrium to
        # the search; the re-check on the plain profile path of a fresh
        # evaluator must catch it.
        game = build_prisoners_dilemma()
        (c_row, d_row), (c_col, d_col) = (player_strategies(game, p) for p in ("row", "col"))
        ev = Evaluator(game)

        def corrupt(player, assignment):
            (deviation,) = assignment[player]
            ctx = ev.context(deviation.agent, assemble_profile(game, assignment))
            ev.value(player, ctx, deviation)
            getter, memo = ctx.memo[player]
            memo[getter(deviation.table)] = 100.0

        corrupt("row", {"row": d_row, "col": c_col})
        corrupt("col", {"row": c_row, "col": d_col})
        with pytest.raises(RuntimeError, match="re-verification"):
            nash_equilibria(game, evaluator=ev)

    def test_unilateral_deviations_never_improve(self):
        for seed in range(15):
            game = random_lf_game(random.Random(1000 + seed))
            ev = Evaluator(game)
            report = nash_equilibria(game, evaluator=ev)
            for rec in report.profiles:
                assignment = dict(rec.by_player)
                for p in game.players.players:
                    sense = game.data[p].objective.sense
                    mine = ev.value(p, assemble_profile(game, assignment))
                    for dev in player_strategies(game, p):
                        alt = ev.value(
                            p, assemble_profile(game, {**assignment, p: dev})
                        )
                        assert not sense.better(alt, mine)


class TestGivenStrategiesChecked:
    """Public solvers check each given player strategy at entry: one valid
    strategy per agent of the player, in model order."""

    def cases(self, agent, atoms, other):
        zeros = (0,) * atoms
        return [
            ((Strategy(agent, (-1,) * atoms),), "action index -1 out of range"),
            ((Strategy(agent, zeros + (1,)),), f"has {atoms + 1} entries"),
            ((Strategy(agent, zeros), Strategy(agent, zeros)), "one strategy per agent"),
            ((Strategy(agent, (5,) * atoms),), "action index 5 out of range"),
            ((Strategy(other, (0,) * atoms),), "one strategy per agent"),
            ((), "one strategy per agent"),
        ]

    def test_best_responses(self):
        game = build_prisoners_dilemma()
        (row,), (col,) = game.agents_of("row"), game.agents_of("col")
        for ps, message in self.cases(col, 1, row):
            with pytest.raises(ValueError, match=message):
                best_responses(game, "row", {"col": ps})

    def test_followers_nash_and_leader_value(self):
        game = load_game(str(GAMES_DIR / "tou_pricing.json"))
        (leader,), (follower,) = game.leaders, game.followers
        (agent,), (other,) = game.agents_of(leader), game.agents_of(follower)
        atoms = game.model.info[agent].atom_count
        assert game.model.info[other].atom_count != atoms
        for ps, message in self.cases(agent, atoms, other)[:-2]:
            with pytest.raises(ValueError, match=message):
                followers_nash(game, {leader: ps})
            with pytest.raises(ValueError, match=message):
                leader_value(game, leader, {leader: ps}, OPTIMISTIC)
        for ps in ((Strategy(other, (0,) * game.model.info[other].atom_count),), ()):
            with pytest.raises(ValueError, match="one strategy per agent"):
                followers_nash(game, {leader: ps})


class TestFollowersNash:
    def test_single_follower_reduces_to_best_responses(self):
        for seed in range(10):
            game = random_lf_game(random.Random(2000 + seed))
            ev = Evaluator(game)
            for ls in player_strategies(game, "L"):
                fn = followers_nash(game, {"L": ls}, evaluator=ev)
                br = best_responses(game, "F", {"L": ls}, evaluator=ev)
                assert tuple(fp[0][1] for fp in fn) == br.strategies

    def _two_follower_game(self, coupled: bool):
        # One leader with a single action; two followers with binary actions.
        w = small_factor("w", 1)
        l, f1, f2 = AgentId("L"), AgentId("f1"), AgentId("f2")
        ul = small_factor("ul", 1, "action")
        u1 = small_factor("u1", 2, "action")
        u2 = small_factor("u2", 2, "action")
        model = build_wmodel(
            [w], [l, f1, f2], {l: ul, f1: u1, f2: u2}, {l: (), f1: (), f2: ()}
        )
        belief = Belief.uniform(model.nature_space)

        def cost_f1(pt):
            if coupled:
                # Congestion: playing the same action as the other is costly.
                return 1.0 if pt[2] == pt[3] else 0.0
            return float(pt[2])

        def cost_f2(pt):
            if coupled:
                return 1.0 if pt[2] == pt[3] else 0.0
            return float(1 - pt[3])

        players = PlayerPartition(("L", "f1", "f2"), {l: "L", f1: "f1", f2: "f2"})
        data = {
            "L": PlayerData(
                Objective.from_function(model.configuration, "L", Sense.COST, lambda pt: 0.0),
                RiskMeasure.expectation(belief),
            ),
            "f1": PlayerData(
                Objective.from_function(model.configuration, "f1", Sense.COST, cost_f1),
                RiskMeasure.expectation(belief),
            ),
            "f2": PlayerData(
                Objective.from_function(model.configuration, "f2", Sense.COST, cost_f2),
                RiskMeasure.expectation(belief),
            ),
        }
        return make_wgame(model, players, data, leaders=("L",))

    def _brute_force_follower_nash(self, game, leaders_profile):
        ev = Evaluator(game)
        followers = game.followers
        spaces = {f: player_strategies(game, f) for f in followers}
        result = []
        for combo in itertools.product(*(spaces[f] for f in followers)):
            assignment = dict(leaders_profile)
            assignment.update(zip(followers, combo))
            ok = True
            for f in followers:
                mine = ev.value(f, assemble_profile(game, assignment))
                best = min(
                    ev.value(f, assemble_profile(game, {**assignment, f: d}))
                    for d in spaces[f]
                )
                if mine != best:
                    ok = False
                    break
            if ok:
                result.append(tuple(zip(followers, combo)))
        return tuple(result)

    def test_decoupled_objectives_give_cartesian_product(self):
        game = self._two_follower_game(coupled=False)
        ls = player_strategies(game, "L")[0]
        fn = followers_nash(game, {"L": ls})
        assert fn == self._brute_force_follower_nash(game, {"L": ls})
        br1 = best_responses(
            game, "f1", {"L": ls, "f2": player_strategies(game, "f2")[0]}
        )
        br2 = best_responses(
            game, "f2", {"L": ls, "f1": player_strategies(game, "f1")[0]}
        )
        expected = {
            (("f1", s1), ("f2", s2))
            for s1 in br1.strategies
            for s2 in br2.strategies
        }
        assert set(fn) == expected

    def test_coupled_congestion_matches_brute_force(self):
        game = self._two_follower_game(coupled=True)
        ls = player_strategies(game, "L")[0]
        fn = followers_nash(game, {"L": ls})
        assert fn == self._brute_force_follower_nash(game, {"L": ls})
        # Anti-coordination: exactly the two mismatched profiles.
        actions = {tuple(fp[i][1][0].table[0] for i in range(2)) for fp in fn}
        assert actions == {(0, 1), (1, 0)}


def leader_follower_costs(leader_table, follower_table, follower_sees_leader=True):
    """Sequential two-player game; leader maximizes, follower minimizes."""
    w = small_factor("w", 1)
    l, f = AgentId("L"), AgentId("F")
    ul = small_factor("ul", len(leader_table), "action")
    uf = small_factor("uf", len(follower_table[0]), "action")
    model = build_wmodel(
        [w], [l, f], {l: ul, f: uf}, {l: (), f: ("ul",) if follower_sees_leader else ()}
    )
    belief = Belief.uniform(model.nature_space)
    obj_l = Objective.from_function(
        model.configuration, "L", Sense.PAYOFF, lambda pt: leader_table[pt[1]][pt[2]]
    )
    obj_f = Objective.from_function(
        model.configuration, "F", Sense.COST, lambda pt: follower_table[pt[1]][pt[2]]
    )
    players = PlayerPartition(("L", "F"), {l: "L", f: "F"})
    data = {
        "L": PlayerData(obj_l, RiskMeasure.expectation(belief)),
        "F": PlayerData(obj_f, RiskMeasure.expectation(belief)),
    }
    return make_wgame(model, players, data, leaders=("L",))


class TestLeaderValue:
    def test_singleton_br_all_modes_coincide(self):
        game = leader_follower_costs([[3.0, 7.0]], [[1.0, 0.0]])
        ls = player_strategies(game, "L")[0]
        values = {
            mode.kind: leader_value(game, "L", {"L": ls}, mode)
            for mode in (OPTIMISTIC, PESSIMISTIC, theta_mode(0.25))
        }
        assert values["optimistic"] == values["pessimistic"] == values["theta"] == 7.0

    def test_missing_leader_rejected(self):
        game = leader_follower_costs([[3.0, 7.0]], [[1.0, 0.0]])
        with pytest.raises(ValueError, match="fix exactly the declared leaders"):
            leader_value(game, "L", {}, OPTIMISTIC)

    def test_non_leader_entry_rejected(self):
        game = leader_follower_costs([[3.0, 7.0]], [[1.0, 0.0]])
        profile = {"L": player_strategies(game, "L")[0], "F": player_strategies(game, "F")[0]}
        with pytest.raises(ValueError, match="fix exactly the declared leaders"):
            leader_value(game, "L", profile, OPTIMISTIC)

    def test_theta_endpoints_are_definitional(self):
        assert theta_mode(1.0) == OPTIMISTIC
        assert theta_mode(0.0) == PESSIMISTIC

    def test_theta_interpolates(self):
        # Follower indifferent between both actions; leader payoff differs.
        game = leader_follower_costs([[10.0, 2.0]], [[1.0, 1.0]])
        ls = player_strategies(game, "L")[0]
        opt = leader_value(game, "L", {"L": ls}, OPTIMISTIC)
        pess = leader_value(game, "L", {"L": ls}, PESSIMISTIC)
        assert (opt, pess) == (10.0, 2.0)
        mid = leader_value(game, "L", {"L": ls}, theta_mode(0.25))
        assert mid == pytest.approx(0.25 * 10 + 0.75 * 2, abs=1e-12)

    def test_leader_risk_modes(self):
        game = leader_follower_costs([[10.0, 2.0]], [[1.0, 1.0]])
        ls = player_strategies(game, "L")[0]
        uniform = leader_value(game, "L", {"L": ls}, leader_risk_mode("expectation-uniform"))
        assert uniform == pytest.approx(6.0, abs=1e-12)
        worst = leader_value(game, "L", {"L": ls}, leader_risk_mode("worst-case"))
        assert worst == 2.0
        half = leader_value(game, "L", {"L": ls}, leader_risk_mode(("cvar", 0.5)))
        assert half == pytest.approx(2.0, abs=1e-12)

    def test_empty_follower_response_raised(self):
        # Two followers playing mismatch/match congestion have no pure Nash.
        w = small_factor("w", 1)
        l, f1, f2 = AgentId("L"), AgentId("f1"), AgentId("f2")
        ul = small_factor("ul", 1, "action")
        u1 = small_factor("u1", 2, "action")
        u2 = small_factor("u2", 2, "action")
        model = build_wmodel(
            [w], [l, f1, f2], {l: ul, f1: u1, f2: u2}, {l: (), f1: (), f2: ()}
        )
        belief = Belief.uniform(model.nature_space)
        match = lambda pt: 0.0 if pt[2] == pt[3] else 1.0
        mismatch = lambda pt: 1.0 if pt[2] == pt[3] else 0.0
        players = PlayerPartition(("L", "f1", "f2"), {l: "L", f1: "f1", f2: "f2"})
        data = {
            "L": PlayerData(
                Objective.from_function(model.configuration, "L", Sense.COST, lambda pt: 0.0),
                RiskMeasure.expectation(belief),
            ),
            "f1": PlayerData(
                Objective.from_function(model.configuration, "f1", Sense.COST, match),
                RiskMeasure.expectation(belief),
            ),
            "f2": PlayerData(
                Objective.from_function(model.configuration, "f2", Sense.COST, mismatch),
                RiskMeasure.expectation(belief),
            ),
        }
        game = make_wgame(model, players, data, leaders=("L",))
        ls = player_strategies(game, "L")[0]
        assert followers_nash(game, {"L": ls}) == ()
        with pytest.raises(EmptyFollowerResponse):
            leader_value(game, "L", {"L": ls}, OPTIMISTIC)
        with pytest.raises(EmptyFollowerResponse):
            stackelberg_strategies(game, OPTIMISTIC)


class TestStackelberg:
    def test_classic_bilevel_argmax(self):
        # Leader action 0: follower picks column 0 (leader gets 4).
        # Leader action 1: follower picks column 1 (leader gets 6).
        game = leader_follower_costs(
            [[4.0, 9.0], [1.0, 6.0]],
            [[0.0, 1.0], [1.0, 0.0]],
        )
        profiles, diag = stackelberg_strategies(game, OPTIMISTIC)
        assert len(profiles) == 1
        ((_, ls),) = profiles[0]
        assert ls[0].table == (1,)
        assert diag.infeasible_leader_profiles == 0

    def test_indifferent_leader_returns_full_set(self):
        game = leader_follower_costs(
            [[3.0, 3.0], [3.0, 3.0]],
            [[0.0, 1.0], [0.0, 1.0]],
        )
        profiles, diag = stackelberg_strategies(game, OPTIMISTIC)
        assert len(profiles) == 2
        assert diag.ties == 1

    def test_nested_loop_oracle_on_random_games(self):
        # Independent oracle: argmax over leader actions of the
        # mode-anticipated leader payoff over the follower's argmin columns.
        for seed in range(25):
            rng = random.Random(3000 + seed)
            nl, nf = rng.randint(2, 3), rng.randint(2, 3)
            leader_table = [[float(rng.randint(-5, 5)) for _ in range(nf)] for _ in range(nl)]
            follower_table = [[float(rng.randint(-5, 5)) for _ in range(nf)] for _ in range(nl)]
            game = leader_follower_costs(leader_table, follower_table)
            for mode, pick in ((OPTIMISTIC, max), (PESSIMISTIC, min)):
                anticipated = []
                for i in range(nl):
                    best_f = min(follower_table[i])
                    br_cols = [j for j, v in enumerate(follower_table[i]) if v == best_f]
                    anticipated.append(pick(leader_table[i][j] for j in br_cols))
                best_l = max(anticipated)
                oracle_actions = {i for i, v in enumerate(anticipated) if v == best_l}
                profiles, _ = stackelberg_strategies(game, mode)
                got_actions = {prof[0][1][0].table[0] for prof in profiles}
                assert got_actions == oracle_actions, (seed, mode.kind)

    def test_pessimistic_theta_optimistic_ordering(self):
        for seed in range(30):
            game = random_lf_game(random.Random(4000 + seed))
            ev = Evaluator(game)
            for ls in player_strategies(game, "L"):
                opt = leader_value(game, "L", {"L": ls}, OPTIMISTIC, evaluator=ev)
                pess = leader_value(game, "L", {"L": ls}, PESSIMISTIC, evaluator=ev)
                mid = leader_value(game, "L", {"L": ls}, theta_mode(0.5), evaluator=ev)
                assert pess <= mid + 1e-9
                assert mid <= opt + 1e-9
                # Affine and nondecreasing in theta.
                t1, t2 = 0.25, 0.75
                v1 = leader_value(game, "L", {"L": ls}, theta_mode(t1), evaluator=ev)
                v2 = leader_value(game, "L", {"L": ls}, theta_mode(t2), evaluator=ev)
                assert v1 <= v2 + 1e-9
                assert v1 == pytest.approx(t1 * opt + (1 - t1) * pess, abs=1e-9)

    def test_singleton_br_makes_modes_agree(self):
        for seed in range(30):
            game = random_lf_game(random.Random(5000 + seed))
            singleton = all(
                len(followers_nash(game, {"L": ls})) == 1
                for ls in player_strategies(game, "L")
            )
            if not singleton:
                continue
            opt, _ = stackelberg_strategies(game, OPTIMISTIC)
            pess, _ = stackelberg_strategies(game, PESSIMISTIC)
            assert opt == pess


class TestNashStackelberg:
    def test_singleton_strategy_spaces(self):
        game = leader_follower_costs([[3.0]], [[1.0]])
        report = nash_stackelberg(game, OPTIMISTIC)
        assert len(report.profiles) == 1
        assert dict(report.profiles[0].values) == {"L": 3.0, "F": 1.0}

    def test_pairs_are_stackelberg_times_best_response(self):
        for seed in range(10):
            game = random_lf_game(random.Random(6000 + seed))
            report = nash_stackelberg(game, OPTIMISTIC)
            stack, _ = stackelberg_strategies(game, OPTIMISTIC)
            leader_set = {prof[0][1] for prof in stack}
            for rec in report.profiles:
                assignment = dict(rec.by_player)
                assert assignment["L"] in leader_set
                fn = followers_nash(game, {"L": assignment["L"]})
                assert (("F", assignment["F"]),) in fn

    def test_mode_is_recorded(self):
        game = leader_follower_costs([[3.0]], [[1.0]])
        report = nash_stackelberg(game, theta_mode(0.5))
        assert report.mode.describe() == "theta=0.5"


class TestMultiLeader:
    def test_two_leaders_nash_among_leaders(self):
        # Two leaders with one agent each, binary actions; single follower
        # with one action, so the leaders play a plain Nash game between
        # themselves through the Stackelberg template.
        w = small_factor("w", 1)
        l1, l2, f = AgentId("L1"), AgentId("L2"), AgentId("F")
        u1 = small_factor("u1", 2, "action")
        u2 = small_factor("u2", 2, "action")
        uf = small_factor("uf", 1, "action")
        model = build_wmodel(
            [w], [l1, l2, f], {l1: u1, l2: u2, f: uf}, {l1: (), l2: (), f: ()}
        )
        belief = Belief.uniform(model.nature_space)
        # Coordination payoffs: both leaders want to match.
        pay = {(0, 0): 2.0, (1, 1): 3.0, (0, 1): 0.0, (1, 0): 0.0}
        players = PlayerPartition(("L1", "L2", "F"), {l1: "L1", l2: "L2", f: "F"})
        data = {
            "L1": PlayerData(
                Objective.from_function(
                    model.configuration, "L1", Sense.PAYOFF, lambda pt: pay[(pt[1], pt[2])]
                ),
                RiskMeasure.expectation(belief),
            ),
            "L2": PlayerData(
                Objective.from_function(
                    model.configuration, "L2", Sense.PAYOFF, lambda pt: pay[(pt[1], pt[2])]
                ),
                RiskMeasure.expectation(belief),
            ),
            "F": PlayerData(
                Objective.from_function(model.configuration, "F", Sense.COST, lambda pt: 0.0),
                RiskMeasure.expectation(belief),
            ),
        }
        game = make_wgame(model, players, data, leaders=("L1", "L2"))
        profiles, diag = stackelberg_strategies(game, OPTIMISTIC)
        actions = {
            (prof[0][1][0].table[0], prof[1][1][0].table[0]) for prof in profiles
        }
        # Both coordination outcomes are leader-Nash.
        assert actions == {(0, 0), (1, 1)}
        assert diag.profiles_enumerated == 4


def two_leader_two_follower_game(objectives):
    """Leaders L1, L2 post binary actions p1, p2; followers F1, F2 see both
    posts and pick binary actions x1, x2; Nature is a singleton.
    ``objectives`` maps each player to (sense, fn of the configuration point
    (w, p1, p2, x1, x2))."""
    w = small_factor("w", 1)
    l1, l2 = AgentId("L1"), AgentId("L2")
    f1, f2 = AgentId("F1"), AgentId("F2")
    acts = {
        l1: small_factor("p1", 2, "action"),
        l2: small_factor("p2", 2, "action"),
        f1: small_factor("x1", 2, "action"),
        f2: small_factor("x2", 2, "action"),
    }
    model = build_wmodel(
        [w],
        [l1, l2, f1, f2],
        acts,
        {l1: (), l2: (), f1: ("p1", "p2"), f2: ("p1", "p2")},
    )
    belief = Belief.uniform(model.nature_space)
    players = PlayerPartition(
        ("L1", "L2", "F1", "F2"), {l1: "L1", l2: "L2", f1: "F1", f2: "F2"}
    )
    data = {
        p: PlayerData(
            Objective.from_function(model.configuration, p, sense, fn),
            RiskMeasure.expectation(belief),
        )
        for p, (sense, fn) in objectives.items()
    }
    return make_wgame(model, players, data, leaders=("L1", "L2"))


class DirectOracle:
    """Stackelberg among several leaders over several followers, straight
    from the definitions, on indices into each player's strategy list.

    A group profile is kept when no member does strictly better alone.
    Followers compare normal-form values against the fixed leaders; leaders
    compare values anticipated over the followers' joint best responses and
    skip deviations that have none.  Values come from ``ev``; leaders must be
    declared first.
    """

    def __init__(self, game, ev):
        self.game = game
        self.players = game.players.players
        self.n_leaders = len(game.leaders)
        assert self.players[: self.n_leaders] == game.leaders
        self.spaces = [player_strategies(game, p) for p in self.players]
        self.table = {}
        for idx in itertools.product(*(range(len(s)) for s in self.spaces)):
            assignment = {p: s[i] for p, s, i in zip(self.players, self.spaces, idx)}
            profile = assemble_profile(game, assignment)
            self.table[idx] = [ev.value(p, profile) for p in self.players]
        leads = itertools.product(*(range(len(s)) for s in self.spaces[: self.n_leaders]))
        follows = list(
            itertools.product(*(range(len(s)) for s in self.spaces[self.n_leaders :]))
        )
        followers = range(self.n_leaders, len(self.players))
        self.responses = {
            lead: [
                fol
                for fol in follows
                if self._stable(followers, lead + fol, lambda k, idx: self.table[idx][k])
            ]
            for lead in leads
        }

    def _stable(self, group, idx, judge):
        for k in group:
            mine = judge(k, idx)
            for d in range(len(self.spaces[k])):
                alt = judge(k, idx[:k] + (d,) + idx[k + 1 :])
                if alt is not None and self._better(k, alt, mine):
                    return False
        return True

    def _better(self, k, a, b):
        cost = self.game.data[self.players[k]].objective.sense is Sense.COST
        return a < b if cost else a > b

    def group(self, idx, first=0):
        """Index tuple -> (player, strategy) pairs, starting at player ``first``."""
        return tuple(
            (self.players[first + k], self.spaces[first + k][i]) for k, i in enumerate(idx)
        )

    def stackelberg(self, mode):
        """(leader set, leader profiles enumerated, infeasible leader profiles)."""

        def anticipated(k, lead):
            values = [self.table[lead + fol][k] for fol in self.responses[lead]]
            if not values:
                return None
            cost = self.game.data[self.players[k]].objective.sense is Sense.COST
            opt, pess = (min(values), max(values)) if cost else (max(values), min(values))
            if mode.kind == "optimistic":
                return opt
            if mode.kind == "pessimistic":
                return pess
            return mode.theta * opt + (1 - mode.theta) * pess

        leaders = range(self.n_leaders)
        chosen = [
            self.group(lead)
            for lead, fols in self.responses.items()
            if fols and self._stable(leaders, lead, anticipated)
        ]
        infeasible = sum(1 for fols in self.responses.values() if not fols)
        return tuple(chosen), len(self.responses), infeasible


def _table_objective(values):
    """An objective reading ``values`` at 8 p1 + 4 p2 + 2 x1 + x2."""
    return lambda pt: float(values[8 * pt[1] + 4 * pt[2] + 2 * pt[3] + pt[4]])


_BINARY_TABLE = st.lists(st.integers(-3, 3), min_size=16, max_size=16)


class TestMultiLeaderMultiFollower:
    def _game(self):
        # Two leaders post binary "prices"; two followers react after seeing
        # both posts.  Followers pay their own price plus a congestion term
        # when they pick the same side; leaders earn their price when chosen.
        price = {0: 1.0, 1: 2.0}

        # Follower i picks a leader (0 or 1); pays that leader's posted
        # price, plus 0.5 if both followers picked the same leader.
        def follower_cost(me_axis, other_axis):
            def cost(pt):
                posted = (price[pt[1]], price[pt[2]])
                congestion = 0.5 if pt[me_axis] == pt[other_axis] else 0.0
                return posted[pt[me_axis]] + congestion

            return cost

        def leader_payoff(which):
            def pay(pt):
                posted = (price[pt[1]], price[pt[2]])
                served = (pt[3] == which) + (pt[4] == which)
                return posted[which] * served

            return pay

        return two_leader_two_follower_game(
            {
                "L1": (Sense.PAYOFF, leader_payoff(0)),
                "L2": (Sense.PAYOFF, leader_payoff(1)),
                "F1": (Sense.COST, follower_cost(3, 4)),
                "F2": (Sense.COST, follower_cost(4, 3)),
            }
        )

    def test_matches_direct_definition_oracle(self):
        game = self._game()
        ev = Evaluator(game)
        oracle = DirectOracle(game, ev)
        for lead, fols in oracle.responses.items():
            got = followers_nash(game, dict(oracle.group(lead)), evaluator=ev)
            assert got == tuple(oracle.group(fol, first=2) for fol in fols)

        got_set, _ = stackelberg_strategies(game, OPTIMISTIC, evaluator=ev)
        assert got_set == oracle.stackelberg(OPTIMISTIC)[0]
        assert got_set  # solvable instance

    @settings(max_examples=25, deadline=None)
    @given(
        tables=st.tuples(_BINARY_TABLE, _BINARY_TABLE, _BINARY_TABLE, _BINARY_TABLE),
        leader_senses=st.tuples(st.sampled_from(Sense), st.sampled_from(Sense)),
    )
    # Matching pennies between the followers: no leader profile is feasible.
    @example(
        tables=([0] * 16, [0] * 16, [0, 1, 1, 0] * 4, [1, 0, 0, 1] * 4),
        leader_senses=(Sense.PAYOFF, Sense.PAYOFF),
    )
    # The same only when L1 posts 0: half the leader profiles are infeasible.
    @example(
        tables=(
            list(range(16)),
            [0] * 16,
            [0, 1, 1, 0] * 2 + [0] * 8,
            [1, 0, 0, 1] * 2 + [0] * 8,
        ),
        leader_senses=(Sense.PAYOFF, Sense.COST),
    )
    def test_random_tables_match_direct_oracle(self, tables, leader_senses):
        senses = (*leader_senses, Sense.COST, Sense.COST)
        game = two_leader_two_follower_game(
            {
                p: (sense, _table_objective(values))
                for p, sense, values in zip(("L1", "L2", "F1", "F2"), senses, tables)
            }
        )
        ev = Evaluator(game)
        oracle = DirectOracle(game, ev)
        for mode in (OPTIMISTIC, PESSIMISTIC, theta_mode(0.5)):
            leader_set, enumerated, infeasible = oracle.stackelberg(mode)
            if infeasible == enumerated:
                with pytest.raises(EmptyFollowerResponse):
                    stackelberg_strategies(game, mode, evaluator=ev)
                continue
            got, diag = stackelberg_strategies(game, mode, evaluator=ev)
            assert got == leader_set, mode
            assert diag.profiles_enumerated == enumerated
            assert diag.ties == max(0, len(leader_set) - 1)
            assert diag.infeasible_leader_profiles == infeasible


class TestInvariance:
    def test_positive_affine_rescaling_preserves_argsets(self):
        for seed in range(20):
            rng = random.Random(7000 + seed)
            game = random_lf_game(rng)
            a = rng.choice([0.5, 2.0, 3.5])
            b = float(rng.randint(-4, 4))
            player = rng.choice(["L", "F"])
            scaled = rescale_player(game, player, a, b)

            nash_a = nash_equilibria(game)
            nash_b = nash_equilibria(scaled)
            assert [r.by_player for r in nash_a.profiles] == [
                r.by_player for r in nash_b.profiles
            ]

            stack_a, _ = stackelberg_strategies(game, OPTIMISTIC)
            stack_b, _ = stackelberg_strategies(scaled, OPTIMISTIC)
            assert stack_a == stack_b

            ls = player_strategies(game, "L")[0]
            br_a = best_responses(game, "F", {"L": ls})
            br_b = best_responses(scaled, "F", {"L": ls})
            assert br_a.strategies == br_b.strategies
