"""Builtin game builders: validity, closed forms, oracle equivalences."""

import math
import random

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from infogames import (
    OPTIMISTIC,
    CapacityExceeded,
    Evaluator,
    Objective,
    Sense,
    best_responses,
    build_prisoners_dilemma,
    build_thai_slmf_mt,
    build_thai_slsf_mt,
    build_thai_slsf_st,
    build_tou_game,
    check_playability,
    check_sequential,
    count_strategies,
    cylinder_partition,
    followers_nash,
    matrix_to_csv,
    nash_stackelberg,
    normal_form_matrix,
    player_strategies,
)
from infogames.errors import render_count
from infogames.model import DEFAULT_CAP, build_wmodel
from infogames.models import GridSpec, ThaiParams, TouParams
from infogames.normal_form import assemble_profile
import oracle


def tou_params(peak=(0.2, 0.3), offpeak=(0.1,), shifts=(0.0, 0.5, 1.0), w=0.15):
    return TouParams(
        demand=GridSpec((100.0,)),
        production_cost=GridSpec((0.05,)),
        unwillingness=GridSpec((w,)),
        peak_prices=peak,
        offpeak_prices=offpeak,
        shifts=shifts,
    )


def thai_params(**kw):
    defaults = dict(
        baselines=(10.0,),
        prices=(1.0,),
        reward=0.5,
        targets=(0.0, 2.0, 4.0),
        consumptions=(6.0, 8.0, 10.0),
        leader_coeffs=GridSpec(((0.3, 0.0),)),
        follower_coeffs=GridSpec(((2.0, 0.1),)),
    )
    defaults.update(kw)
    return ThaiParams(**defaults)


ALL_BUILDERS = [
    lambda: build_prisoners_dilemma(),
    lambda: build_tou_game(tou_params()),
    lambda: build_thai_slsf_st(thai_params()),
    lambda: build_thai_slsf_mt(
        thai_params(horizon=2, targets=(0.0, 4.0), consumptions=(6.0, 8.0))
    ),
    lambda: build_thai_slmf_mt(
        thai_params(followers=("f1", "f2"), targets=(0.0, 4.0), consumptions=(6.0, 8.0))
    ),
]


class TestAllBuilders:
    @pytest.mark.parametrize("builder", ALL_BUILDERS)
    def test_sequential_and_playable(self, builder):
        game = builder()
        assert check_sequential(game.model) is not None
        report = check_playability(game.model, "all")
        assert report.playable


class TestTou:
    def test_full_shift_removes_inconvenience(self):
        game = build_tou_game(tou_params())
        # alpha = 1 => follower cost = d * peak price, no unwillingness term.
        for idx, pt in enumerate(game.model.configuration.points()):
            if game.model.configuration.factors[4].elements[pt[4]] == "1":
                pair_label = game.model.configuration.factors[3].elements[pt[3]]
                pk = float(pair_label.strip("()").split(",")[0])
                assert game.data["follower"].objective.values[idx] == pytest.approx(
                    100.0 * pk
                )

    def test_price_pairs_filtered_at_build(self):
        game = build_tou_game(tou_params(peak=(0.2,), offpeak=(0.1, 0.3)))
        # (0.2, 0.3) violates peak >= off-peak and must be excluded.
        leader_factor = game.model.action_factors[game.agents_of("leader")[0]]
        assert leader_factor.elements == ("(0.2,0.1)",)

    def test_no_feasible_pair_rejected(self):
        with pytest.raises(ValueError, match="no feasible price pair"):
            build_tou_game(tou_params(peak=(0.1,), offpeak=(0.5,)))

    def test_follower_slope_closed_form_matches_enumeration(self):
        # Cost is affine in alpha with slope d*(peak - offpeak - w); best
        # response is full shift when negative, no shift when positive.
        for w, peak, offpeak in [
            (0.15, (0.2, 0.3), (0.1,)),
            (0.05, (0.2, 0.3), (0.1,)),
            (0.25, (0.3, 0.5), (0.05, 0.1)),
        ]:
            params = tou_params(peak=peak, offpeak=offpeak, w=w, shifts=(0.0, 0.5, 1.0))
            game = build_tou_game(params)
            ev = Evaluator(game)
            d = 100.0
            pairs = [
                (pk, op) for pk in peak for op in offpeak if pk >= op
            ]
            for i, ls in enumerate(player_strategies(game, "leader")):
                pk, op = pairs[i]
                slope = d * (pk - op - w)
                if slope == 0:
                    continue
                expected_alpha = 1.0 if slope < 0 else 0.0
                # Enumeration oracle over the shift grid.
                oracle_costs = {
                    a: d * a * pk + d * (1 - a) * op + d * (1 - a) * w
                    for a in params.shifts
                }
                best = min(oracle_costs.values())
                oracle_set = {a for a, c in oracle_costs.items() if c == best}
                assert oracle_set == {expected_alpha}
                # Solver best response: action taken at the reached atom.
                br = best_responses(game, "follower", {"leader": ls}, evaluator=ev)
                reached = set()
                for fs in br.strategies:
                    profile = assemble_profile(game, {"leader": ls, "follower": fs})
                    outcome = ev.outcome_indices(profile)[0]
                    pt = game.model.configuration.point_at(outcome)
                    reached.add(params.shifts[pt[4]])
                assert reached == {expected_alpha}

    def test_derived_instance_nash_stackelberg(self):
        game = build_tou_game(tou_params())
        report = nash_stackelberg(game, OPTIMISTIC)
        assert report.profiles
        for rec in report.profiles:
            values = dict(rec.values)
            assert values["leader"] == pytest.approx(15.0, abs=1e-9)
            assert values["follower"] == pytest.approx(20.0, abs=1e-9)
            assignment = dict(rec.by_player)
            leader_label = assignment["leader"][0]
            assert (
                game.model.action_factors[game.agents_of("leader")[0]].elements[
                    leader_label.table[0]
                ]
                == "(0.2,0.1)"
            )


def thai_oracle(params: ThaiParams):
    """Two nested exhaustive loops over (target grid, consumption grid)."""
    B, p, r = params.baselines[0], params.prices[0], params.reward
    a1, a2 = params.leader_coeffs.values[params.leader_coeffs.true_index]
    c1, c2 = params.follower_coeffs.values[params.follower_coeffs.true_index]

    def eff(u, x):
        e = min(u, B - x)
        return max(0.0, e) if params.clamp_reward else e

    def f_payoff(u, x):
        return r * eff(u, x) + (c1 * x - c2 * x * x) - p * x

    def l_cost(u, x):
        return p * x - r * eff(u, x) - (a1 * x - a2 * x * x)

    anticipated = {}
    br = {}
    for u in params.targets:
        payoffs = {x: f_payoff(u, x) for x in params.consumptions}
        best = max(payoffs.values())
        br[u] = {x for x, v in payoffs.items() if v == best}
        anticipated[u] = min(l_cost(u, x) for x in br[u])  # optimistic for a cost
    best_l = min(anticipated.values())
    leaders = {u for u, v in anticipated.items() if v == best_l}
    return br, leaders, best_l


class TestThaiSingleStage:
    def test_zero_target_pays_no_reward(self):
        game = build_thai_slsf_st(thai_params())
        cfg = game.model.configuration
        for idx, pt in enumerate(cfg.points()):
            u = (0.0, 2.0, 4.0)[pt[2]]
            x = (6.0, 8.0, 10.0)[pt[3]]
            if u == 0.0:
                # Reward term vanishes: payoff reduces to utility minus bill.
                expected = (2.0 * x - 0.1 * x * x) - 1.0 * x
                assert game.data["follower"].objective.values[idx] == pytest.approx(expected)

    def test_consumption_at_baseline_gives_zero_reduction(self):
        params = thai_params(consumptions=(10.0,), targets=(4.0,))
        game = build_thai_slsf_st(params)
        # x = B: effective reduction min(u, 0) clamps to 0.
        for idx in range(game.model.configuration.size):
            v = game.data["follower"].objective.values[idx]
            assert v == pytest.approx((2.0 * 10 - 0.1 * 100) - 10.0)

    def test_follower_br_at_target_four(self):
        game = build_thai_slsf_st(thai_params())
        br, leaders, best_l = thai_oracle(thai_params())
        assert br[4.0] == {6.0}
        ev = Evaluator(game)
        ls = player_strategies(game, "leader")[2]  # constant 4
        got = best_responses(game, "follower", {"leader": ls}, evaluator=ev)
        assert got.value == pytest.approx(4.4, abs=1e-9)

    def test_nash_stackelberg_matches_nested_oracle(self):
        params = thai_params()
        game = build_thai_slsf_st(params)
        br, leaders, best_l = thai_oracle(params)
        assert leaders == {4.0}
        report = nash_stackelberg(game, OPTIMISTIC)
        ev = Evaluator(game)
        assert report.profiles
        for rec in report.profiles:
            assignment = dict(rec.by_player)
            u = params.targets[assignment["leader"][0].table[0]]
            assert u in leaders
            profile = assemble_profile(game, assignment)
            outcome = game.model.configuration.point_at(ev.outcome_indices(profile)[0])
            x = params.consumptions[outcome[3]]
            assert x in br[u]
            assert dict(rec.values)["leader"] == pytest.approx(best_l, abs=1e-9)

    def test_unclamped_literal_allows_negative_reward(self):
        params = thai_params(clamp_reward=False, targets=(4.0,), consumptions=(12.0,), baselines=(10.0,))
        game = build_thai_slsf_st(params)
        # B - x = -2: the literal formula pays a negative reward.
        idx = 0
        v = game.data["follower"].objective.values[idx]
        assert v == pytest.approx(0.5 * (-2.0) + (2 * 12 - 0.1 * 144) - 12.0)

    def test_senses(self):
        game = build_thai_slsf_st(thai_params())
        assert game.data["leader"].objective.sense.value == "cost"
        assert game.data["follower"].objective.sense.value == "payoff"


class TestThaiMultiStage:
    def test_t1_matrix_matches_single_stage_bytes(self):
        params = thai_params()
        st_csv = matrix_to_csv(normal_form_matrix(build_thai_slsf_st(params)))
        mt_csv = matrix_to_csv(normal_form_matrix(build_thai_slsf_mt(params)))
        assert st_csv == mt_csv

    def test_open_loop_strategies_are_constant(self):
        game = build_thai_slsf_mt(
            thai_params(horizon=2, info_mode="open-loop", targets=(0.0, 4.0), consumptions=(6.0, 8.0))
        )
        for a in game.model.agents:
            assert game.model.info[a].atom_count == 1

    def test_full_history_strategy_count_formula(self):
        params = thai_params(
            horizon=2, info_mode="full-history", targets=(0.0, 4.0), consumptions=(6.0, 8.0)
        )
        game = build_thai_slsf_mt(params)
        leader_agents = game.agents_of("leader")
        total = 1
        for a in leader_agents:
            atoms = game.model.info[a].atom_count
            assert count_strategies(game.model, a) == 2 ** atoms
            total *= 2 ** atoms
        # Player-level count is the product over her agents.
        assert len(player_strategies(game, "leader", cap=10**6)) == total

    def test_full_history_interleaved_ordering(self):
        game = build_thai_slsf_mt(
            thai_params(horizon=2, info_mode="full-history", targets=(0.0, 4.0), consumptions=(6.0, 8.0))
        )
        order = [str(a) for a in check_sequential(game.model)]
        assert order == ["leader.1", "follower.1", "leader.2", "follower.2"]

    def test_reward_zero_decouples_follower_from_leader(self):
        # With r = 0 the follower's payoff has no target term, so her optimal
        # consumption (and her attained value) is the same whatever the
        # leader plays.  Strategy tables still differ at never-reached
        # information atoms, where every action ties, so the comparison is in
        # action space.
        params = thai_params(reward=0.0)
        game = build_thai_slsf_st(params)
        ev = Evaluator(game)
        action_sets = []
        values = []
        for ls in player_strategies(game, "leader"):
            br = best_responses(game, "follower", {"leader": ls}, evaluator=ev)
            reached = set()
            for fs in br.strategies:
                profile = assemble_profile(game, {"leader": ls, "follower": fs})
                pt = game.model.configuration.point_at(ev.outcome_indices(profile)[0])
                reached.add(params.consumptions[pt[3]])
            action_sets.append(reached)
            values.append(br.value)
        assert all(s == action_sets[0] for s in action_sets)
        assert all(v == values[0] for v in values)

    def test_follower_payoff_nonincreasing_in_price(self):
        lo = build_thai_slsf_st(thai_params(prices=(1.0,)))
        hi = build_thai_slsf_st(thai_params(prices=(1.5,)))
        for v_lo, v_hi in zip(
            lo.data["follower"].objective.values, hi.data["follower"].objective.values
        ):
            assert v_hi <= v_lo + 1e-12

    def test_exogenous_scale_enters_utilities(self):
        params = thai_params(
            horizon=1,
            exogenous=(GridSpec((1.0, 2.0)),),
        )
        game = build_thai_slsf_mt(params)
        cfg = game.model.configuration
        # Points with scale 2 double the phi terms relative to scale 1.
        for idx, pt in enumerate(cfg.points()):
            u = params.targets[pt[3]]
            x = params.consumptions[pt[4]]
            scale = (1.0, 2.0)[pt[0]]
            eff = max(0.0, min(u, 10.0 - x))
            expected = 0.5 * eff + scale * (2.0 * x - 0.1 * x * x) - 1.0 * x
            assert game.data["follower"].objective.values[idx] == pytest.approx(expected)

    def test_build_capacity_guard(self):
        with pytest.raises(CapacityExceeded):
            build_thai_slsf_mt(
                thai_params(horizon=3, info_mode="full-history"), cap=1000
            )

    @pytest.mark.parametrize(
        "builder, params",
        [
            (build_thai_slsf_st, thai_params()),
            (build_thai_slsf_mt, thai_params(horizon=3, info_mode="full-history")),
            (build_thai_slmf_mt, thai_params(horizon=2, followers=("f1", "f2"))),
        ],
    )
    def test_capacity_checked_before_tabulation(self, builder, params, monkeypatch):
        model = builder(params, cap=math.inf).model
        needed = math.prod(count_strategies(model, a) for a in model.agents)

        def no_tabulation(*args):
            raise AssertionError("an over-cap game tabulated an objective")

        monkeypatch.setattr(Objective, "from_terms", staticmethod(no_tabulation))
        with pytest.raises(CapacityExceeded) as info:
            builder(params, cap=needed - 1)
        assert info.value.needed == needed
        assert str(info.value) == str(
            CapacityExceeded(needed, needed - 1, "strategy profiles of the built game")
        )

    @pytest.mark.parametrize(
        "params, needed",
        [
            # 16 one-atom agents with 3 actions each: every configuration-
            # sized table of this game would hold 3**16 points at least.
            (thai_params(horizon=8, info_mode="open-loop"), 3**16),
            (thai_params(horizon=3, info_mode="full-history"), None),
        ],
        ids=["open-loop-8", "full-history-3"],
    )
    def test_capacity_checked_before_the_model_is_built(self, params, needed, monkeypatch):
        if needed is None:
            model = build_thai_slsf_mt(params, cap=math.inf).model
            needed = math.prod(count_strategies(model, a) for a in model.agents)

        def no_build(*args):
            raise AssertionError("an over-cap game built its model")

        monkeypatch.setattr("infogames.models.build_wmodel", no_build)
        with pytest.raises(CapacityExceeded) as info:
            build_thai_slsf_mt(params)
        assert str(info.value) == (
            f"strategy profiles of the built game needs {render_count(needed)} items, "
            f"cap is {DEFAULT_CAP}"
        )

    def test_counts_too_large_to_form_are_checked_after_the_build(self, monkeypatch):
        params = thai_params(horizon=3, info_mode="full-history")
        model = build_thai_slsf_mt(params, cap=math.inf).model
        needed = math.prod(count_strategies(model, a) for a in model.agents)
        built = []

        def build(*args):
            built.append(build_wmodel(*args))
            return built[-1]

        monkeypatch.setattr("infogames.models.build_wmodel", build)
        # Every count reads as more bits than are worth forming before the build.
        monkeypatch.setattr(math, "log2", lambda k: math.inf)
        with pytest.raises(CapacityExceeded) as info:
            build_thai_slsf_mt(params)
        assert len(built) == 1
        assert str(info.value) == str(
            CapacityExceeded(needed, DEFAULT_CAP, "strategy profiles of the built game")
        )

    def test_follower_named_leader_rejected(self):
        # Before the cap: the game below is also over it.
        with pytest.raises(ValueError, match="a follower cannot be named 'leader'"):
            build_thai_slsf_mt(thai_params(horizon=8, followers=("leader",)))


def documented_visible(game, params: ThaiParams, agent) -> set[str]:
    """The factors ``agent`` observes as the ThaiParams docstring states it:
    none under open-loop; otherwise his own type, for a follower also the
    current stage's target, and under full-history also the exogenous
    factors of earlier stages and the decision of every agent of an earlier
    stage."""
    if params.info_mode == "open-loop":
        return set()
    stage = agent.stage or 1
    full = params.info_mode == "full-history"
    seen = {f"{agent.player}_type"}
    for f in game.model.nature_factors:
        if full and f.kind == "nature-exogenous" and int(f.id.removeprefix("exo_")) < stage:
            seen.add(f.id)
    for other in game.model.agents:
        other_stage = other.stage or 1
        current_target = other.player == "leader" and other_stage == stage
        if (agent.player != "leader" and current_target) or (full and other_stage < stage):
            seen.add(game.model.action_factors[other].id)
    return seen


THAI_INFO_CASES = [(build_thai_slsf_st, "current-stage", 1, 1, "omitted")] + [
    (builder, info_mode, horizon, followers, exogenous)
    for builder, followers in ((build_thai_slsf_mt, 1), (build_thai_slmf_mt, 1), (build_thai_slmf_mt, 2))
    for info_mode in ("open-loop", "current-stage", "full-history")
    for horizon in (1, 2, 3)
    for exogenous in ("omitted", "length 1", "length horizon")
]


class TestThaiInformation:
    @pytest.mark.parametrize(
        "builder,info_mode,horizon,followers,exogenous",
        THAI_INFO_CASES,
        ids=[f"{c[0].__name__}-{c[1]}-T{c[2]}-F{c[3]}-exo {c[4]}" for c in THAI_INFO_CASES],
    )
    def test_partitions_are_the_documented_cylinders(
        self, builder, info_mode, horizon, followers, exogenous
    ):
        # Two-element grids everywhere, so that every factor an agent could
        # observe splits his information.
        exo = {
            "omitted": None,
            "length 1": (GridSpec((1.0, 1.5)),),
            "length horizon": tuple(GridSpec((1.0, 2.0 + t)) for t in range(horizon)),
        }[exogenous]
        params = thai_params(
            horizon=horizon,
            followers=tuple(f"f{i}" for i in range(1, followers + 1)),
            targets=(0.0, 4.0),
            consumptions=(6.0, 8.0),
            leader_coeffs=GridSpec(((0.3, 0.0), (0.5, 0.0))),
            follower_coeffs=GridSpec(((2.0, 0.1), (1.0, 0.2))),
            exogenous=exo,
            info_mode=info_mode,
        )
        game = builder(params, cap=math.inf)
        space = game.model.configuration
        for agent in game.model.agents:
            visible = documented_visible(game, params, agent)
            assert game.model.info[agent] == cylinder_partition(space, visible), agent


class TestThaiMultiFollower:
    def test_single_follower_collapses_to_slsf_mt_both_variants(self):
        for aggregation in ("aggregate", "literal"):
            params = thai_params(aggregation=aggregation)
            slmf = build_thai_slmf_mt(params)
            slsf = build_thai_slsf_mt(params)
            assert (
                slmf.data["leader"].objective.values
                == slsf.data["leader"].objective.values
            )
            assert (
                slmf.data["follower"].objective.values
                == slsf.data["follower"].objective.values
            )

    def test_saturated_target_pays_total_reduction(self):
        # Target larger than any possible total reduction: reward is
        # r * sum of per-follower reductions.
        params = thai_params(
            followers=("f1", "f2"),
            targets=(100.0,),
            consumptions=(6.0, 8.0),
        )
        game = build_thai_slmf_mt(params)
        cfg = game.model.configuration
        # Axes: exo, leader type, f1 type, f2 type, target, f1 x, f2 x.
        for idx, pt in enumerate(cfg.points()):
            x1 = params.consumptions[pt[5]]
            x2 = params.consumptions[pt[6]]
            red1, red2 = 10.0 - x1, 10.0 - x2
            expected_leader = (
                1.0 * (x1 + x2)
                - 0.5 * (red1 + red2)
                - (0.3 * x1 + 0.3 * x2)
            )
            assert game.data["leader"].objective.values[idx] == pytest.approx(expected_leader)
            # Each follower's share is her own reduction.
            expected_f1 = 0.5 * red1 + (2 * x1 - 0.1 * x1 * x1) - x1
            assert game.data["f1"].objective.values[idx] == pytest.approx(expected_f1)

    def test_aggregate_and_literal_differ_when_target_binds(self):
        # Total reduction exceeds the target, so aggregate caps at the target
        # while literal caps per follower.
        base = dict(
            followers=("f1", "f2"),
            targets=(4.0,),
            consumptions=(6.0,),
        )
        agg = build_thai_slmf_mt(thai_params(aggregation="aggregate", **base))
        lit = build_thai_slmf_mt(thai_params(aggregation="literal", **base))
        # Single configuration: both consume 6, reduction 4 each, total 8.
        assert agg.model.configuration.size == lit.model.configuration.size == 1
        # Aggregate: effective = min(4, 8) = 4, shares 2 each.
        # Literal: min(4, 4) = 4 per follower.
        agg_f1 = agg.data["f1"].objective.values[0]
        lit_f1 = lit.data["f1"].objective.values[0]
        assert agg_f1 == pytest.approx(0.5 * 2.0 + (12 - 3.6) - 6.0)
        assert lit_f1 == pytest.approx(0.5 * 4.0 + (12 - 3.6) - 6.0)

    def test_followers_nash_matches_brute_force(self):
        params = thai_params(
            followers=("f1", "f2"),
            targets=(0.0, 4.0),
            consumptions=(6.0, 8.0),
        )
        game = build_thai_slmf_mt(params)
        ev, ref = Evaluator(game), oracle.Oracle(game)
        for leaders in oracle.leaders_profiles(game):
            assert followers_nash(game, leaders, evaluator=ev) == ref.followers_nash(leaders)

    def test_follower_beliefs_cover_other_followers(self):
        params = thai_params(
            followers=("f1", "f2"),
            follower_coeffs=GridSpec(((2.0, 0.1), (1.0, 0.0)), masses=(0.25, 0.75), true_index=0),
            targets=(0.0, 4.0),
            consumptions=(6.0, 8.0),
        )
        game = build_thai_slmf_mt(params)
        b1 = game.data["f1"].risk.belief
        # Factors: exo, leader type, f1 type, f2 type.
        assert b1.factors[2] == (1.0, 0.0)  # own type is a Dirac at true_index
        assert b1.factors[3] == (0.25, 0.75)  # assessment of the other


def closure_objectives(params: ThaiParams, include_exo: bool, space) -> dict[str, tuple]:
    """The Thai objectives tabulated by one closure call per configuration
    point, kept as the oracle for the builders' per-stage term tables."""
    T = params.horizon
    followers = params.followers
    stages = list(range(1, T + 1))
    n_exo = T if include_exo else 0
    leader_type_axis = n_exo
    follower_type_axis = {f: n_exo + 1 + i for i, f in enumerate(followers)}
    n_nature = n_exo + 1 + len(followers)
    leader_action_axis = {t: n_nature + (t - 1) for t in stages}
    follower_action_axis = {
        (f, t): n_nature + T + i * T + (t - 1) for i, f in enumerate(followers) for t in stages
    }

    def effective(target, reduction):
        eff = min(target, reduction)
        return max(0.0, eff) if params.clamp_reward else eff

    def phi(coeffs, scale, x):
        a1, a2 = coeffs
        return scale * (a1 * x - a2 * x * x)

    def scale_at(pt, t):
        return params.exogenous_at(t).values[pt[t - 1]] if include_exo else 1.0

    def stage_quantities(pt, t):
        u = params.targets[pt[leader_action_axis[t]]]
        return u, [params.consumptions[pt[follower_action_axis[(f, t)]]] for f in followers]

    def reward_shares(pt, t):
        B = params.baseline_at(t)
        u, xs = stage_quantities(pt, t)
        if params.aggregation == "literal":
            return [effective(u, B - x) for x in xs]
        reds = [B - x for x in xs]
        if len(reds) == 1:
            return [effective(u, reds[0])]
        eff = effective(u, sum(reds))
        weights = [max(0.0, r) for r in reds] if params.clamp_reward else reds
        wsum = sum(weights)
        if wsum == 0:
            return [0.0 for _ in reds]
        return [eff * w / wsum for w in weights]

    def leader_cost(pt):
        coeffs = params.leader_coeffs.values[pt[leader_type_axis]]
        total = 0.0
        for t in stages:
            p, scale = params.price_at(t), scale_at(pt, t)
            _, xs = stage_quantities(pt, t)
            for x, share in zip(xs, reward_shares(pt, t)):
                total += p * x - params.reward * share - phi(coeffs, scale, x)
        return total

    def follower_payoff(i, f):
        def payoff(pt):
            coeffs = params.follower_coeffs.values[pt[follower_type_axis[f]]]
            total = 0.0
            for t in stages:
                p, scale = params.price_at(t), scale_at(pt, t)
                x = stage_quantities(pt, t)[1][i]
                share = reward_shares(pt, t)[i]
                total += params.reward * share + phi(coeffs, scale, x) - p * x
            return total

        return payoff

    out = {"leader": Objective.from_function(space, "leader", Sense.COST, leader_cost).values}
    for i, f in enumerate(followers):
        out[f] = Objective.from_function(space, f, Sense.PAYOFF, follower_payoff(i, f)).values
    return out


@st.composite
def thai_cases(draw):
    """A builder with random ThaiParams of at most 2000 configuration points.

    Grids hold Python ints or fractions of them; baselines and prices are per
    stage or shared; ``exogenous`` is omitted, shared or per stage."""
    kind = draw(st.sampled_from(["slsf_st", "slsf_mt", "slmf_mt"]))
    if kind == "slsf_st":
        horizon, n, info_mode, exo_len = 1, 1, "current-stage", None
    else:
        horizon = draw(st.integers(1, 3))
        n = 1 if kind == "slsf_mt" else draw(st.integers(1, 3))
        info_mode = draw(st.sampled_from(["open-loop", "current-stage", "full-history"]))
        exo_len = draw(st.sampled_from([None, 1, horizon]))
    divisor = draw(st.sampled_from([1, 4.0, 10.0, 3.0]))
    room = [2000]

    def size(repeats):
        k = draw(st.integers(1, max(s for s in (1, 2, 3) if s**repeats <= room[0])))
        room[0] //= k**repeats
        return k

    def numbers(k, hi=15):
        ints = draw(st.lists(st.integers(0, hi), min_size=k, max_size=k, unique=True))
        return tuple(v if divisor == 1 else v / divisor for v in ints)

    def pairs(k):
        raw = draw(st.lists(st.tuples(st.integers(0, 9), st.integers(0, 3)),
                            min_size=k, max_size=k, unique=True))
        return GridSpec(tuple((a if divisor == 1 else a / divisor, b / 20) for a, b in raw))

    def per_stage(hi):
        return numbers(draw(st.sampled_from(sorted({1, horizon}))), hi)

    consumptions = numbers(size(horizon * n))
    targets = numbers(size(horizon))
    follower_coeffs = pairs(size(n))
    leader_coeffs = pairs(size(1))
    if exo_len is None:
        exogenous = None
    elif exo_len == 1:
        exogenous = (GridSpec(numbers(size(horizon), 4)),)
    else:
        exogenous = tuple(GridSpec(numbers(size(1), 4)) for _ in range(horizon))
    params = ThaiParams(
        baselines=per_stage(15),
        prices=per_stage(6),
        reward=numbers(1, 5)[0],
        targets=targets,
        consumptions=consumptions,
        horizon=horizon,
        followers=tuple(f"c{i}" for i in range(n)),
        leader_coeffs=leader_coeffs,
        follower_coeffs=follower_coeffs,
        exogenous=exogenous,
        info_mode=info_mode,
        clamp_reward=draw(st.booleans()),
        aggregation=draw(st.sampled_from(["aggregate", "literal"])),
    )
    builder = {"slsf_st": build_thai_slsf_st, "slsf_mt": build_thai_slsf_mt, "slmf_mt": build_thai_slmf_mt}
    return builder[kind], params, kind != "slsf_st"


@given(thai_cases())
@example((
    build_thai_slmf_mt,
    thai_params(
        horizon=2, followers=("f1", "f2"), baselines=(10.0, 9.0), prices=(1.1, 0.7),
        targets=(0.0, 2.5), consumptions=(6.3, 8.1),
        follower_coeffs=GridSpec(((2.0, 0.1), (1.7, 0.3))),
        exogenous=(GridSpec((0.9, 1.2)), GridSpec((1.1, 1.3))),
        info_mode="full-history",
    ),
    True,
))
@example((
    build_thai_slmf_mt,
    thai_params(
        horizon=3, followers=("a", "b", "c"), baselines=(10, 9, 11), prices=(1, 2, 1), reward=2,
        targets=(3,), consumptions=(6, 12), exogenous=(GridSpec((1, 2)),),
        clamp_reward=False, aggregation="literal", info_mode="open-loop",
    ),
    True,
))
@settings(max_examples=100, deadline=None)
def test_term_tables_match_per_point_closures(case):
    builder, params, include_exo = case
    game = builder(params, cap=math.inf)
    oracle = closure_objectives(params, include_exo, game.model.configuration)
    assert set(oracle) == set(game.data)
    for player, values in oracle.items():
        got = game.data[player].objective.values
        assert [v.hex() for v in got] == [v.hex() for v in values], player
