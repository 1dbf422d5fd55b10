"""Model construction, strategies, sequential check, playability, solution map."""

import copy
import dataclasses
import itertools
import os
import pickle
import random
import re
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import infogames
from infogames import (
    AgentId,
    CapacityExceeded,
    NotPlayable,
    SelfInformationViolation,
    Strategy,
    StrategyProfile,
    build_wmodel,
    check_playability,
    check_sequential,
    count_profiles,
    count_strategies,
    cylinder_partition,
    enumerate_strategies,
    joint_strategies,
    make_product_space,
    refines,
    solution_map,
)
from infogames.errors import render_count
from infogames.gamefile import load_game
from infogames.model import _bits, fixed_point_outcomes
from infogames.spaces import Partition
from conftest import (
    copy_strategy,
    flip_strategy,
    mutual_observation_model,
    random_information_parts,
    random_partition,
    random_profile,
    random_sequential_model,
    small_factor,
)

GAMES_DIR = Path(__file__).resolve().parent.parent / "games"


def fixed_point_map(model, profile):
    """The point view of ``fixed_point_outcomes(model, profile)``: the
    fixed-point search, whatever the model's information structure."""
    point_at = model.configuration.point_at
    outcomes = fixed_point_outcomes(model, profile)
    return {omega: point_at(i) for omega, i in zip(model.nature_points(), outcomes)}


def oracle_solution_table(model, profile):
    """Independent fixed-point oracle: enumerate every action tuple per
    nature state and keep the ones solving u = strategy(nature, u)."""
    sizes = [model.action_factors[a].size for a in model.agents]
    by_agent = {s.agent: s for s in profile.strategies}
    table = {}
    for omega in model.nature_points():
        found = []
        for actions in itertools.product(*(range(s) for s in sizes)):
            config = omega + actions
            idx = model.configuration.point_index(config)
            if all(
                by_agent[a].table[model.info[a].atom_of[idx]] == actions[i]
                for i, a in enumerate(model.agents)
            ):
                found.append(config)
        table[omega] = found
    return table


class TestBuild:
    def test_two_agent_observation_chain_is_valid(self):
        w = small_factor("w", 2)
        a, b = AgentId("a"), AgentId("b")
        ua, ub = small_factor("ua", 2, "action"), small_factor("ub", 2, "action")
        model = build_wmodel(
            [w], [a, b], {a: ua, b: ub}, {a: (), b: ("ua",)}
        )
        assert model.configuration.size == 8
        assert model.info[a].atom_count == 1
        assert model.info[b].atom_count == 2

    @pytest.mark.parametrize("first, second", [(("p.1", None), ("p", 1)), (("p", 1), ("p.1", None))])
    def test_agents_printing_alike_rejected(self, first, second):
        """Reports key agents by name: player "p.1" and stage 1 of player
        "p" would share one key, and a failure would list one table."""
        w = small_factor("w", 1)
        a, b = AgentId(*first), AgentId(*second)
        ua, ub = small_factor("ua", 2, "action"), small_factor("ub", 2, "action")
        with pytest.raises(ValueError, match=re.escape(f"agents {a!r} and {b!r} both print as 'p.1'")):
            build_wmodel([w], [a, b], {a: ua, b: ub}, {a: ("ub",), b: ("ua",)})

    def test_observing_own_action_rejected(self):
        w = small_factor("w", 2)
        a = AgentId("a")
        ua = small_factor("ua", 2, "action")
        with pytest.raises(SelfInformationViolation) as exc:
            build_wmodel([w], [a], {a: ua}, {a: ("ua",)})
        pa, pb = exc.value.witness
        # The witness differs only in the agent's own coordinate.
        assert pa[0] == pb[0] and pa[1] != pb[1]

    def test_explicit_partition_with_self_information_rejected(self):
        w = small_factor("w", 1)
        a = AgentId("a")
        ua = small_factor("ua", 2, "action")
        bad = build_wmodel([w], [a], {a: ua}, {a: ()})  # to get the space
        part = Partition.from_labels(bad.configuration, [0, 1])
        with pytest.raises(SelfInformationViolation):
            build_wmodel([w], [a], {a: ua}, {a: part})

    def test_leader_follower_info_structure_valid(self):
        # Leader sees his type; follower sees his own type and the leader's
        # move.
        tl = small_factor("tl", 2, "nature-type")
        tf = small_factor("tf", 2, "nature-type")
        l, f = AgentId("l"), AgentId("f")
        ul, uf = small_factor("ul", 2, "action"), small_factor("uf", 2, "action")
        model = build_wmodel(
            [tl, tf], [l, f], {l: ul, f: uf}, {l: ("tl",), f: ("tf", "ul")}
        )
        assert check_sequential(model) == (l, f)

    def test_size_one_action_factor_never_violates_self_information(self):
        w = small_factor("w", 2)
        a = AgentId("a")
        ua = small_factor("ua", 1, "action")
        model = build_wmodel([w], [a], {a: ua}, {a: ("ua",)})
        assert model.info[a].atom_count == 1


class TestStrategies:
    def test_trivial_info_strategies_are_constant(self):
        w = small_factor("w", 2)
        a = AgentId("a")
        ua = small_factor("ua", 3, "action")
        model = build_wmodel([w], [a], {a: ua}, {a: ()})
        strategies = list(enumerate_strategies(model, a))
        assert count_strategies(model, a) == 3
        assert [s.table for s in strategies] == [(0,), (1,), (2,)]

    def test_two_atoms_two_actions_gives_four(self):
        w = small_factor("w", 2)
        a = AgentId("a")
        ua = small_factor("ua", 2, "action")
        model = build_wmodel([w], [a], {a: ua}, {a: ("w",)})
        strategies = list(enumerate_strategies(model, a))
        assert len(strategies) == 4
        assert [s.table for s in strategies] == [(0, 0), (0, 1), (1, 0), (1, 1)]

    def test_count_matches_formula_up_to_four(self):
        for k in range(1, 5):
            for m_size in range(1, 5):
                w = small_factor("w", m_size)
                a = AgentId("a")
                ua = small_factor("ua", k, "action")
                model = build_wmodel([w], [a], {a: ua}, {a: ("w",)})
                m = model.info[a].atom_count
                assert m == m_size
                assert count_strategies(model, a) == k ** m
                assert len(list(enumerate_strategies(model, a))) == k ** m

    def test_cap_guard(self):
        w = small_factor("w", 4)
        a = AgentId("a")
        ua = small_factor("ua", 4, "action")
        model = build_wmodel([w], [a], {a: ua}, {a: ("w",)})
        with pytest.raises(CapacityExceeded):
            list(enumerate_strategies(model, a, cap=100))

    def test_default_cap_is_one_million(self):
        w = small_factor("w", 20)
        a = AgentId("a")
        model = build_wmodel([w], [a], {a: small_factor("ua", 2, "action")}, {a: ("w",)})
        with pytest.raises(CapacityExceeded) as exc:
            next(enumerate_strategies(model, a))
        assert str(exc.value) == "strategies of agent a needs 1048576 items, cap is 1000000"

    def test_joint_strategies_are_the_capped_product(self):
        w = small_factor("w", 2)
        a, b, c = AgentId("a"), AgentId("b"), AgentId("c")
        model = build_wmodel(
            [w],
            [a, b, c],
            {a: small_factor("ua", 2, "action"), b: small_factor("ub", 3, "action"),
             c: small_factor("uc", 2, "action")},
            {a: ("w",), b: ("ua",), c: ()},
        )
        agents = (c, a, b)
        assert count_profiles(model, agents) == 2 * 4 * 9
        expected = list(itertools.product(*(enumerate_strategies(model, x) for x in agents)))
        assert list(joint_strategies(model, agents, 72, "joint")) == expected
        assert count_profiles(model, ()) == 1
        assert list(joint_strategies(model, (), 1, "joint")) == [()]
        with pytest.raises(CapacityExceeded) as exc:
            joint_strategies(model, agents, 71, "joint")
        assert (exc.value.needed, str(exc.value)) == (72, "joint needs 72 items, cap is 71")

    def test_astronomical_count_renders_as_power_of_ten(self):
        exc = CapacityExceeded(3**10000, 10**6, "strategy profiles")
        assert str(exc) == "strategy profiles needs ~10^4771 items, cap is 1000000"
        assert exc.needed == 3**10000
        exact = CapacityExceeded(10**100, 5)
        assert str(exact) == f"enumeration needs 1{'0' * 100} items, cap is 5"

    def test_power_of_ten_exponent_is_floored_exactly(self):
        # math.log10 rounds 10**101 - 1 up to 101.0.
        for n, shown in (
            (10**101 - 1, "~10^100"),
            (10**101, "~10^101"),
            (10**200 - 1, "~10^199"),
            (10**1000 - 1, "~10^999"),
            (10**1000, "~10^1000"),
        ):
            assert render_count(n) == shown
        assert str(CapacityExceeded(10**101 - 1, 5)) == "enumeration needs ~10^100 items, cap is 5"

    def test_strategies_are_measurable_by_construction(self, rng):
        model = random_sequential_model(random.Random(7))
        profile = random_profile(model, random.Random(8))
        for s in profile.strategies:
            part = model.info[s.agent]
            induced = [s.table[part.atom_of[i]] for i in range(part.space.size)]
            assert refines(part, Partition.from_labels(part.space, induced))

    def test_make_profile_validates(self):
        # What ``make_profile`` rejected, an explicit profile check rejects.
        model = mutual_observation_model()
        a, b = model.agents
        with pytest.raises(ValueError):
            check_playability(model, [StrategyProfile((Strategy(a, (0, 1)),))])
        with pytest.raises(ValueError):
            check_playability(model, [StrategyProfile((Strategy(a, (0,)), Strategy(b, (0, 1))))])


class TestSequential:
    def test_leader_follower_ordering(self):
        tl = small_factor("tl", 2, "nature-type")
        l, f = AgentId("l"), AgentId("f")
        ul, uf = small_factor("ul", 2, "action"), small_factor("uf", 2, "action")
        model = build_wmodel([tl], [l, f], {l: ul, f: uf}, {l: ("tl",), f: ("ul",)})
        assert check_sequential(model) == (l, f)

    def test_mutual_observation_has_no_ordering(self):
        model = mutual_observation_model()
        a, b = model.agents
        # Exhaustive check of both orderings.
        nature_ids = [f.id for f in model.nature_factors]
        for first, second in ((a, b), (b, a)):
            first_cyl = cylinder_partition(model.configuration, nature_ids)
            assert not refines(first_cyl, model.info[first])
        assert check_sequential(model) is None

    def test_interleaved_stage_ordering(self):
        # Leader then follower within each stage; stage 2 agents see stage 1
        # decisions.
        tl = small_factor("tl", 2, "nature-type")
        agents = [AgentId("l", 1), AgentId("f", 1), AgentId("l", 2), AgentId("f", 2)]
        acts = {a: small_factor(f"u{a.player}{a.stage}", 2, "action") for a in agents}
        info = {
            agents[0]: ("tl",),
            agents[1]: ("ul1",),
            agents[2]: ("tl", "ul1", "uf1"),
            agents[3]: ("ul1", "uf1", "ul2"),
        }
        model = build_wmodel([tl], agents, acts, info)
        order = check_sequential(model)
        assert order == (agents[0], agents[1], agents[2], agents[3])

    def test_greedy_tie_break_uses_declaration_order(self):
        w = small_factor("w", 2)
        a, b = AgentId("a"), AgentId("b")
        ua, ub = small_factor("ua", 2, "action"), small_factor("ub", 2, "action")
        model = build_wmodel([w], [a, b], {a: ua, b: ub}, {a: (), b: ()})
        assert check_sequential(model) == (a, b)


class TestPlayability:
    def test_sequential_models_short_circuit(self):
        model = random_sequential_model(random.Random(3))
        report = check_playability(model, "all")
        assert report.playable
        assert report.mode == "sequential"
        assert report.profiles_checked == 0
        assert report.sequential_order is not None

    def test_copy_copy_has_two_fixed_points(self):
        model = mutual_observation_model()
        a, b = model.agents
        profile = StrategyProfile((copy_strategy(model, a), copy_strategy(model, b)))
        report = check_playability(model, [profile])
        assert not report.playable
        (failure,) = report.failures
        assert failure.solution_count == 2
        assert {sol[1:] for sol in failure.solutions} == {(0, 0), (1, 1)}

    def test_copy_flip_has_no_fixed_point(self):
        model = mutual_observation_model()
        a, b = model.agents
        profile = StrategyProfile((copy_strategy(model, a), flip_strategy(model, b)))
        report = check_playability(model, [profile])
        assert not report.playable
        (failure,) = report.failures
        assert failure.solution_count == 0

    def test_all_mode_enumerates_when_not_sequential(self):
        model = mutual_observation_model()
        report = check_playability(model, "all")
        assert not report.playable
        assert report.mode == "all"
        assert report.profiles_checked == 16  # 4 strategies each

    def test_explicit_profiles_need_one_strategy_per_agent_in_model_order(self):
        model = mutual_observation_model()
        a, b = model.agents
        for strategies in (
            (copy_strategy(model, a),),
            (flip_strategy(model, b), copy_strategy(model, a)),
            (copy_strategy(model, a), copy_strategy(model, a)),
        ):
            with pytest.raises(ValueError, match="one strategy per agent, in model order"):
                check_playability(model, [StrategyProfile(strategies)])

    def test_sample_needs_at_least_one_profile(self):
        for n in (0, -5):
            with pytest.raises(ValueError, match="sample size must be at least 1"):
                check_playability(mutual_observation_model(), (n, 1))

    def test_sample_size_is_capped_before_drawing(self, monkeypatch):
        def draw(seed):
            raise AssertionError("a profile was drawn")

        monkeypatch.setattr(infogames.model.random, "Random", draw)
        model = mutual_observation_model()
        for n, cap in ((10**18, 10**6), (11, 10)):
            with pytest.raises(CapacityExceeded, match="sampled profiles needs") as info:
                check_playability(model, (n, 1), cap=cap)
            assert (info.value.needed, info.value.cap) == (n, cap)
        # The patch is where sampling draws: within the cap, it is reached.
        with pytest.raises(AssertionError, match="a profile was drawn"):
            check_playability(model, (10, 1), cap=10)

    def test_sample_seed_must_not_be_negative(self):
        # random.Random(-3) would draw the profiles of random.Random(3).
        with pytest.raises(ValueError, match="sample seed must be at least 0, got -3"):
            check_playability(mutual_observation_model(), (4, -3))

    def test_sample_size_and_seed_must_not_be_bools(self, monkeypatch):
        # True and False are ints: (True, 5) would report n=True.  A float
        # seed would be reported as given, and a string one fail late.
        def draw(seed):
            raise AssertionError("a profile was drawn")

        monkeypatch.setattr(infogames.model.random, "Random", draw)
        model = mutual_observation_model()
        for sample in ((True, 5), (False, 5), (3, True), (3, False), (3, 1.5), (3, 1.0), (3, "1")):
            with pytest.raises(ValueError, match="sample size and seed must be integers"):
                check_playability(model, sample)

    def test_sample_mode_is_deterministic(self):
        model = mutual_observation_model()
        r1 = check_playability(model, (5, 42))
        r2 = check_playability(model, (5, 42))
        assert r1 == r2
        assert r1.profiles_checked == 5

    def test_sequential_cross_validated_by_enumeration(self):
        # On brute-force-able scales, a sequential verdict never hides a
        # counterexample.
        for seed in range(10):
            model = random_sequential_model(random.Random(seed))
            order = check_sequential(model)
            assert order is not None
            total = 1
            for a in model.agents:
                total *= count_strategies(model, a)
            if total > 2000:
                continue
            for profile in map(
                StrategyProfile, joint_strategies(model, model.agents, 10**6, "strategy profiles")
            ):
                for omega, sols in oracle_solution_table(model, profile).items():
                    assert len(sols) == 1


class TestSolutionMap:
    def test_constant_single_agent(self):
        w = small_factor("w", 3)
        a = AgentId("a")
        ua = small_factor("ua", 2, "action")
        model = build_wmodel([w], [a], {a: ua}, {a: ()})
        profile = StrategyProfile((Strategy(a, (1,)),))
        table = solution_map(model, profile)
        assert table == {(i,): (i, 1) for i in range(3)}

    def test_forward_equals_bruteforce_on_random_models(self):
        for seed in range(40):
            model = random_sequential_model(random.Random(100 + seed))
            profile = random_profile(model, random.Random(200 + seed))
            fwd = solution_map(model, profile)
            bf = fixed_point_map(model, profile)
            assert fwd == bf
            oracle = oracle_solution_table(model, profile)
            for omega, config in fwd.items():
                assert oracle[omega] == [config]

    def test_fixed_point_identity_holds(self):
        for seed in range(20):
            model = random_sequential_model(random.Random(300 + seed))
            profile = random_profile(model, random.Random(400 + seed))
            by_agent = {s.agent: s for s in profile.strategies}
            for omega, config in solution_map(model, profile).items():
                idx = model.configuration.point_index(config)
                for a in model.agents:
                    chosen = config[model.agent_axis(a)]
                    assert by_agent[a].table[model.info[a].atom_of[idx]] == chosen

    def test_profiles_are_checked_like_explicit_playability_profiles(self):
        # Strategies in another order than the model's, and tables of the
        # wrong length or with out-of-range actions, used to give a silently
        # wrong map.
        nature_orders = load_game(str(GAMES_DIR / "nature_orders.json")).model
        a, b = nature_orders.agents
        sa, sb = Strategy(a, (0, 0, 0)), Strategy(b, (0, 0, 1))
        assert solution_map(nature_orders, StrategyProfile((sa, sb)))[(1,)] == (1, 0, 1)
        tou = load_game(str(GAMES_DIR / "tou_pricing.json")).model
        leader, follower = tou.agents
        for model, profile, message in (
            (nature_orders, StrategyProfile((sb, sa)), "in model order"),
            (tou, StrategyProfile((Strategy(leader, (0, 5)), Strategy(follower, (0, 0)))),
             "has 2 entries"),
            (tou, StrategyProfile((Strategy(leader, (5,)), Strategy(follower, (0, 0)))),
             "out of range"),
        ):
            with pytest.raises(ValueError, match=message):
                solution_map(model, profile)
            with pytest.raises(ValueError, match=message):
                check_playability(model, [profile])

    def test_not_playable_raised(self):
        model = mutual_observation_model()
        a, b = model.agents
        profile = StrategyProfile((copy_strategy(model, a), flip_strategy(model, b)))
        with pytest.raises(NotPlayable) as exc:
            solution_map(model, profile)
        assert exc.value.count == 0


class TestSelfInformationCoarsening:
    def test_coarsening_preserves_validity(self):
        # Merging atoms of a valid information field can only hide
        # information, never reveal the agent's own action.
        rng = random.Random(5)
        for seed in range(10):
            model = random_sequential_model(random.Random(500 + seed))
            for agent in model.agents:
                part = model.info[agent]
                if part.atom_count < 2:
                    continue
                # Random coarsening: merge atoms through a random surjection.
                target = rng.randint(1, part.atom_count - 1)
                merge = [rng.randrange(target) for _ in range(part.atom_count)]
                labels = [merge[part.atom_of[i]] for i in range(part.space.size)]
                coarser = Partition.from_labels(part.space, labels)
                assert refines(part, coarser)
                build_wmodel(
                    model.nature_factors,
                    model.agents,
                    model.action_factors,
                    {**model.info, agent: coarser},
                )


def brute_observed(partition):
    """Axes along which some two points differing only there lie in
    different atoms, by comparing every point with all its axis neighbours."""
    space = partition.space
    axes = set()
    for idx, pt in enumerate(space.points()):
        for axis, f in enumerate(space.factors):
            for c in range(f.size):
                other = space.point_index(pt[:axis] + (c,) + pt[axis + 1 :])
                if partition.atom_of[other] != partition.atom_of[idx]:
                    axes.add(axis)
    return tuple(sorted(axes))


def valid_orderings(model):
    """Every agent permutation in which each agent's information is
    measurable with respect to Nature and his predecessors' actions."""
    nature_ids = [f.id for f in model.nature_factors]
    valid = []
    for perm in itertools.permutations(model.agents):
        visible = list(nature_ids)
        for a in perm:
            if not refines(cylinder_partition(model.configuration, visible), model.info[a]):
                break
            visible.append(model.action_factors[a].id)
        else:
            valid.append(perm)
    return valid


random_models = st.builds(
    lambda rng, sequential: build_wmodel(*random_information_parts(rng, sequential)[:4]),
    st.randoms(use_true_random=False),
    st.booleans(),
)


class TestRandomInformationStructures:
    """Explicit and cylinder partitions, shuffled declaration order, and
    mutually observing agents, against brute-force definitions."""

    @given(random_models)
    @settings(max_examples=80, deadline=None)
    def test_observed_axes_match_brute_force(self, model):
        for a in model.agents:
            assert model.observed[a] == brute_observed(model.info[a])

    @given(random_models)
    @settings(max_examples=80, deadline=None)
    def test_check_sequential_is_first_valid_ordering(self, model):
        valid = valid_orderings(model)
        order = check_sequential(model)
        if not valid:
            assert order is None
        else:
            # Greedy in declaration order yields the lexicographically first.
            assert order == min(valid, key=lambda p: [model.agents.index(a) for a in p])

    @given(st.randoms(use_true_random=False), st.booleans())
    @settings(max_examples=60, deadline=None)
    def test_own_axis_dependence_raises_with_first_witness(self, rng, sequential):
        nature, agents, actions, specs, config = random_information_parts(rng, sequential)
        a = rng.choice(agents)
        assume(actions[a].size > 1)
        axis = len(nature) + agents.index(a)
        others = [i for i in range(len(config.factors)) if rng.random() < 0.5]
        seen = random_partition(rng, config, others)
        own = cylinder_partition(config, [actions[a].id])
        part = Partition.from_labels(config, list(zip(seen.atom_of, own.atom_of)))
        with pytest.raises(SelfInformationViolation) as exc:
            build_wmodel(nature, agents, actions, {**specs, a: part})
        assert exc.value.agent == a
        p, q = exc.value.witness
        assert [i for i in range(len(p)) if p[i] != q[i]] == [axis]
        assert part.atom_of[config.point_index(p)] != part.atom_of[config.point_index(q)]
        first = next(
            (pt[:axis] + (0,) + pt[axis + 1 :], pt)
            for pt in config.points()
            if pt[axis] != 0
            and part.atom_of[config.point_index(pt)]
            != part.atom_of[config.point_index(pt[:axis] + (0,) + pt[axis + 1 :])]
        )
        assert (p, q) == first

    @given(random_models, st.randoms(use_true_random=False))
    @settings(max_examples=80, deadline=None)
    def test_playability_and_solution_maps_match_oracle(self, model, rng):
        profiles = [random_profile(model, rng) for _ in range(3)]
        expected_failures = []
        for profile in profiles:
            oracle = oracle_solution_table(model, profile)
            bad = [(omega, sols) for omega, sols in oracle.items() if len(sols) != 1]
            expected_failures += [(omega, profile, len(s), tuple(s)) for omega, s in bad]
            for solve in (fixed_point_map, solution_map):
                if bad:
                    with pytest.raises(NotPlayable) as exc:
                        solve(model, profile)
                    assert (exc.value.nature_point, exc.value.count) == (bad[0][0], len(bad[0][1]))
                else:
                    table = solve(model, profile)
                    assert table == {omega: sols[0] for omega, sols in oracle.items()}
        report = check_playability(model, profiles)
        assert [
            (f.nature_point, f.profile, f.solution_count, f.solutions) for f in report.failures
        ] == expected_failures


def random_nonsequential_model(rng: random.Random, max_profiles: int = 512):
    """The first model from :func:`random_information_parts` without a
    sequential order and with at most ``max_profiles`` joint profiles."""
    while True:
        model = build_wmodel(*random_information_parts(rng, sequential=False)[:4])
        if check_sequential(model) is None and count_profiles(model, model.agents) <= max_profiles:
            return model


def assert_all_mode_matches_oracle(model):
    """``check_playability(model, "all")`` against the oracle over every
    profile in joint_strategies order, and against the explicit scan."""
    profiles = list(
        map(StrategyProfile, joint_strategies(model, model.agents, 10**6, "strategy profiles"))
    )
    expected = [
        (omega, profile, len(sols), tuple(sols))
        for profile in profiles
        for omega, sols in oracle_solution_table(model, profile).items()
        if len(sols) != 1
    ]
    report = check_playability(model, "all")
    got = [(f.nature_point, f.profile, f.solution_count, f.solutions) for f in report.failures]
    assert got == expected
    assert (report.mode, report.profiles_checked, report.playable) == (
        "all", len(profiles), not expected
    )
    explicit = check_playability(model, profiles)
    assert explicit.mode == "explicit"
    assert dataclasses.replace(explicit, mode="all") == report
    return report


class TestAllProfilesFastPath:
    """The digit-mask enumeration of ``check_playability(model, "all")``."""

    @given(st.randoms(use_true_random=False))
    @settings(max_examples=40, deadline=None)
    def test_matches_oracle_on_random_nonsequential_models(self, rng):
        assert_all_mode_matches_oracle(random_nonsequential_model(rng))

    def test_one_action_agents_and_one_nature_state(self):
        w = small_factor("w", 1)
        v = small_factor("v", 2)
        a, b, c, d = (AgentId(x) for x in "abcd")
        actions = {
            a: small_factor("ua", 2, "action"),
            b: small_factor("ub", 3, "action"),
            c: small_factor("uc", 1, "action"),
            d: small_factor("ud", 1, "action"),
        }
        # a and b observe each other; c and d have one action, and a also
        # looks at c's (constant) action.
        info = {a: ("ub", "uc"), b: ("ua",), c: ("ua",), d: ("ub",)}
        for nature in ([w], [v]):
            for agents in ((a, b, c, d), (c, a, d, b)):
                model = build_wmodel(nature, agents, actions, info)
                assert check_sequential(model) is None
                assert_all_mode_matches_oracle(model)

    def test_cap_is_checked_before_any_mask_is_built(self, monkeypatch):
        w = small_factor("w", 2)
        a, b = AgentId("a"), AgentId("b")
        model = build_wmodel(
            [w],
            [a, b],
            {a: small_factor("ua", 3, "action"), b: small_factor("ub", 3, "action")},
            {a: ("w", "ub"), b: ("w", "ua")},
        )
        with pytest.raises(CapacityExceeded) as expected:
            count_profiles(model, model.agents, 1000, "strategy profiles")

        def no_masks(*args):
            raise AssertionError("masks built before the cap check")

        monkeypatch.setattr("infogames.model._digit_masks", no_masks)
        with pytest.raises(CapacityExceeded) as exc:
            check_playability(model, "all", cap=1000)
        assert exc.value.needed == expected.value.needed == 3**12
        assert str(exc.value) == str(expected.value)
        assert str(exc.value) == "strategy profiles needs 531441 items, cap is 1000"

    @given(st.randoms(use_true_random=False))
    @settings(max_examples=40, deadline=None)
    def test_matches_oracle_on_models_with_one_action_agents(self, rng):
        model = random_model_with_one_action_agents(rng)
        while count_profiles(model, model.agents) > 1024:
            model = random_model_with_one_action_agents(rng)
        assert_all_mode_matches_oracle(model)


def random_model_with_one_action_agents(rng: random.Random):
    """A model with two or three Nature states, a cycle of two or three
    agents with two or three actions each (each sees the next one's action,
    so there is no sequential order), and one or two one-action agents, all
    declared in shuffled order and seeing random other axes (some through an
    explicit partition)."""
    nature = [small_factor("n0", rng.randint(2, 3))]
    cycle = [AgentId("c", t) for t in range(rng.randint(2, 3))]
    idle = [AgentId("i", t) for t in range(rng.randint(1, 2))]
    actions = {a: small_factor(f"u{a.player}{a.stage}", rng.randint(2, 3), "action") for a in cycle}
    actions.update({a: small_factor(f"u{a.player}{a.stage}", 1, "action") for a in idle})
    agents = rng.sample(cycle + idle, len(actions))
    configuration = make_product_space(nature + [actions[a] for a in agents])
    specs = {}
    for a in agents:
        ids = [f.id for f in nature] + [actions[b].id for b in agents if b != a]
        ids = [i for i in ids if rng.random() < 0.5]
        if a in cycle:
            specs[a] = (*ids, actions[cycle[(cycle.index(a) + 1) % len(cycle)]].id)
        elif rng.random() < 0.5:
            specs[a] = tuple(ids)
        else:
            specs[a] = random_partition(rng, configuration, map(configuration.factor_index, ids))
    return build_wmodel(nature, agents, actions, specs)


def random_model_with_one_to_five_actions(rng: random.Random, sequential: bool):
    """Two or three agents with one to five actions each, one or two Nature
    states, each agent seeing random other axes: with ``sequential``, only
    Nature and the actions of agents declared before him."""
    nature = [small_factor("n0", rng.randint(1, 2))]
    agents = [AgentId("p", t) for t in range(rng.randint(2, 3))]
    actions = {a: small_factor(f"u{a.stage}", rng.randint(1, 5), "action") for a in agents}
    specs = {}
    for i, a in enumerate(agents):
        others = agents[:i] if sequential else [b for b in agents if b != a]
        ids = [f.id for f in nature] + [actions[b].id for b in others]
        specs[a] = tuple(v for v in ids if rng.random() < 0.5)
    return build_wmodel(nature, agents, actions, specs)


def assert_sample_matches_oracle(model, n, seed):
    """``check_playability(model, (n, seed))`` against the oracle, and
    against the explicit check, on the profiles of the plain draw of
    :func:`conftest.random_profile`: one ``randrange`` per table entry,
    agents in model order and atoms in table order, one-action agents
    included."""
    draw = random.Random(seed)
    profiles = [random_profile(model, draw) for _ in range(n)]
    expected = [
        (omega, profile, len(sols), tuple(sols))
        for profile in profiles
        for omega, sols in oracle_solution_table(model, profile).items()
        if len(sols) != 1
    ]
    report = check_playability(model, (n, seed))
    got = [(f.nature_point, f.profile, f.solution_count, f.solutions) for f in report.failures]
    assert got == expected
    assert (report.mode, report.profiles_checked, report.playable) == (
        f"sample(n={n}, seed={seed})", n, not expected
    )
    explicit = check_playability(model, profiles)
    assert explicit.mode == "explicit"
    assert dataclasses.replace(explicit, mode=report.mode) == report
    return report


def assert_parts_shared(report):
    """Equal strategies, and equal solution tuples, of the report's failures
    are one object each."""
    first: dict = {}
    for f in report.failures:
        for part in (*f.profile.strategies, f.solutions):
            assert first.setdefault(part, part) is part


class TestSampledProfiles:
    """``check_playability(model, (n, seed))`` and the shared mask table."""

    @given(st.randoms(use_true_random=False), st.integers(1, 30), st.integers(0, 999))
    @settings(max_examples=60, deadline=None)
    def test_matches_oracle_on_models_with_one_action_agents(self, rng, n, seed):
        model = random_model_with_one_action_agents(rng)
        assert check_sequential(model) is None
        assert_sample_matches_oracle(model, n, seed)

    # randrange(k) draws k.bit_length() bits and rejects values >= k, so the
    # action counts 1-5 cover a power of two (4, drawn as 3 bits) and counts
    # that reject draws.
    @given(
        st.randoms(use_true_random=False), st.booleans(), st.integers(1, 20), st.integers(0, 999)
    )
    @settings(max_examples=60, deadline=None)
    def test_matches_oracle_with_one_to_five_actions(self, rng, sequential, n, seed):
        model = random_model_with_one_to_five_actions(rng, sequential)
        assert_sample_matches_oracle(model, n, seed)

    def test_failures_share_strategies_and_solutions(self):
        model = load_game(str(GAMES_DIR / "cyclic_three_agents.json")).model
        assert check_sequential(model) is None
        sampled = assert_sample_matches_oracle(model, 300, 7)
        for report in (sampled, assert_all_mode_matches_oracle(model)):
            assert len(report.failures) > len({f.profile for f in report.failures})
            assert_parts_shared(report)

    def test_every_search_reads_one_mask_table(self, monkeypatch):
        built = []
        digit_masks = infogames.model._digit_masks
        monkeypatch.setattr(
            infogames.model, "_digit_masks", lambda model: built.append(model) or digit_masks(model)
        )
        model = mutual_observation_model()
        a, b = model.agents
        profile = StrategyProfile((copy_strategy(model, a), flip_strategy(model, b)))
        check_playability(model, (5, 1))
        assert built == [model]
        check_playability(model, [profile])
        with pytest.raises(NotPlayable):
            fixed_point_outcomes(model, profile)
        check_playability(model, "all")
        assert built == [model]

    def test_one_digit_per_strategy_table_entry(self):
        for seed in range(20):
            model = random_model_with_one_action_agents(random.Random(seed))
            digits = model._masks[0]
            counts = [
                model.action_factors[a].size
                for a in model.agents
                for _ in range(model.info[a].atom_count)
            ]
            assert len(digits) == sum(model.info[a].atom_count for a in model.agents)
            assert [len(masks) for masks in digits] == counts
            assert 1 in counts
            full = (1 << model.configuration.size) - 1
            assert all(masks == [full] for masks in digits if len(masks) == 1)

    @given(st.randoms(use_true_random=False), st.sampled_from(["parts", "one-action", "one-to-five"]))
    @settings(max_examples=80, deadline=None)
    def test_masks_match_their_point_by_point_definition(self, rng, builder):
        sequential = rng.random() < 0.5
        if builder == "parts":
            model = build_wmodel(*random_information_parts(rng, sequential)[:4])
        elif builder == "one-action":
            model = random_model_with_one_action_agents(rng)
        else:
            model = random_model_with_one_to_five_actions(rng, sequential)
        points = [model.configuration.point_at(i) for i in range(model.configuration.size)]
        expected = []
        for a in model.agents:
            axis, atom_of = model.agent_axis(a), model.info[a].atom_of
            for atom in range(model.info[a].atom_count):
                expected.append([
                    _bits(t != atom or point[axis] == j for t, point in zip(atom_of, points))
                    for j in range(model.action_factors[a].size)
                ])
        assert model._masks[0] == expected


class TestHashing:
    """Agents and strategies hash once; equality, repr and copies stay
    field-based, and the cached hash never crosses a process."""

    def test_fields_decide_equality_repr_and_hash(self):
        s = Strategy(AgentId("p", 1), (0, 1))
        t = dataclasses.replace(s, table=(1, 0))
        assert t == Strategy(AgentId("p", 1), (1, 0)) != s
        assert hash(t) == hash(Strategy(AgentId("p", 1), (1, 0)))
        assert hash(s) == hash((AgentId("p", 1), (0, 1)))
        assert hash(AgentId("p", 1)) == hash(("p", 1))
        assert repr(s) == "Strategy(agent=AgentId(player='p', stage=1), table=(0, 1))"
        for c in (copy.copy(s), copy.deepcopy(s), pickle.loads(pickle.dumps(s))):
            assert c == s and hash(c) == hash(s)

    def test_strategy_pickled_under_another_hash_seed_is_a_dict_key(self):
        code = (
            "import pickle, sys\n"
            "from infogames import AgentId, Strategy\n"
            "s = Strategy(AgentId('player', 2), (0, 1, 1))\n"
            "print(hash('player'))\n"
            "print(pickle.dumps(s).hex())\n"
        )
        seed = "2" if os.environ.get("PYTHONHASHSEED") == "1" else "1"
        src = str(Path(infogames.__file__).resolve().parents[1])
        env = {**os.environ, "PYTHONHASHSEED": seed, "PYTHONPATH": src}
        out = subprocess.run(
            [sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True
        ).stdout.split()
        # The string hashes differ between the processes, so a hash cached in
        # the pickle would miss here.
        assert int(out[0]) != hash("player")
        theirs = pickle.loads(bytes.fromhex(out[1]))
        ours = Strategy(AgentId("player", 2), (0, 1, 1))
        assert {ours: "found"}[theirs] == "found"
        assert {ours.agent: "found"}[theirs.agent] == "found"
        assert hash(theirs) == hash(ours)
