"""Indicator-encoded constraints: infinite objective values composing with
best responses, equilibria, and game files."""

import json
import math

import pytest

from infogames import (
    OPTIMISTIC,
    PESSIMISTIC,
    AgentId,
    Belief,
    Evaluator,
    Objective,
    PlayerData,
    PlayerPartition,
    RiskMeasure,
    Sense,
    best_responses,
    build_wmodel,
    export_custom,
    load_game_document,
    make_wgame,
    nash_equilibria,
    nash_stackelberg,
    player_strategies,
    stackelberg_strategies,
)
from infogames.normal_form import assemble_profile
from conftest import small_factor

INF = math.inf


def constrained_lf_game(leader_payoff, follower_cost, nf=3):
    """Leader (payoff) posts one of two actions; follower (cost) picks one of
    nf responses after seeing it.  Tables may carry the adverse infinity."""
    w = small_factor("w", 1)
    l, f = AgentId("L"), AgentId("F")
    ul = small_factor("ul", len(leader_payoff), "action")
    uf = small_factor("uf", nf, "action")
    model = build_wmodel([w], [l, f], {l: ul, f: uf}, {l: (), f: ("ul",)})
    belief = Belief.uniform(model.nature_space)
    players = PlayerPartition(("L", "F"), {l: "L", f: "F"})
    data = {
        "L": PlayerData(
            Objective.from_function(
                model.configuration, "L", Sense.PAYOFF, lambda pt: leader_payoff[pt[1]][pt[2]]
            ),
            RiskMeasure.expectation(belief),
        ),
        "F": PlayerData(
            Objective.from_function(
                model.configuration, "F", Sense.COST, lambda pt: follower_cost[pt[1]][pt[2]]
            ),
            RiskMeasure.expectation(belief),
        ),
    }
    return make_wgame(model, players, data, leaders=("L",))


class TestForbiddenResponses:
    def test_infinite_cost_columns_never_chosen(self):
        # Response 0 is infeasible after either leader action.
        game = constrained_lf_game(
            [[5.0, 1.0, 2.0], [4.0, 3.0, 0.0]],
            [[INF, 1.0, 2.0], [INF, 5.0, 4.0]],
        )
        for i, ls in enumerate(player_strategies(game, "L")):
            br = best_responses(game, "F", {"L": ls})
            assert not br.all_adverse
            assert br.value < INF
            # The action at the reached atom is never the forbidden one.
            for fs in br.strategies:
                assert fs[0].table[i] != 0

    def test_all_forbidden_leader_row_avoided_by_stackelberg(self):
        # After leader action 1 every follower response is infeasible: her BR
        # set is the full strategy set (flagged), and evaluating the leader
        # there yields the follower's +inf... the leader still prefers row 0
        # whenever it strictly beats the anticipated value of row 1.
        game = constrained_lf_game(
            [[5.0, 1.0], [9.0, 9.0]],
            [[1.0, 2.0], [INF, INF]],
            nf=2,
        )
        ls0, ls1 = player_strategies(game, "L")
        br1 = best_responses(game, "F", {"L": ls1})
        assert br1.all_adverse
        assert len(br1.strategies) == len(player_strategies(game, "F"))
        # Against an all-infeasible row the leader's anticipated payoff is
        # still computed over the (full) BR set: optimistic picks 9.
        profiles, diag = stackelberg_strategies(game, OPTIMISTIC)
        actions = {prof[0][1][0].table[0] for prof in profiles}
        assert actions == {1}
        assert diag.infeasible_leader_profiles == 0

    def test_leader_adverse_infinity_excluded_from_argmax(self):
        # Leader payoff -inf marks her infeasible action; she never plays it.
        game = constrained_lf_game(
            [[-INF, -INF], [2.0, 1.0]],
            [[0.0, 1.0], [0.0, 1.0]],
            nf=2,
        )
        profiles, _ = stackelberg_strategies(game, PESSIMISTIC)
        actions = {prof[0][1][0].table[0] for prof in profiles}
        assert actions == {1}

    def test_nash_with_infinite_rows(self):
        # One player's infeasible profile cannot be part of an equilibrium
        # when a finite deviation exists.
        game = constrained_lf_game(
            [[1.0, 1.0], [0.0, 0.0]],
            [[INF, 0.0], [0.0, INF]],
            nf=2,
        )
        report = nash_equilibria(game)
        for rec in report.profiles:
            values = dict(rec.values)
            assert values["F"] < INF

    def test_normal_form_value_propagates_infinity(self):
        game = constrained_lf_game(
            [[1.0, 1.0], [0.0, 0.0]],
            [[INF, 0.0], [0.0, INF]],
            nf=2,
        )
        ls = player_strategies(game, "L")[0]
        fs = player_strategies(game, "F")[0]  # picks response 0 everywhere
        profile = assemble_profile(game, {"L": ls, "F": fs})
        assert Evaluator(game).value("F", profile) == INF


class TestGameFileRiskForms:
    def _doc(self, risk, belief):
        return {
            "version": 1,
            "custom": {
                "factors": [
                    {"id": "w", "kind": "nature-exogenous", "elements": ["a", "b", "c"]},
                    {"id": "u", "kind": "action", "elements": ["x", "y"]},
                ],
                "agents": [
                    {"player": "solo", "action": "u", "info": {"cylinder": []}}
                ],
                "players": [
                    {
                        "id": "solo",
                        "objective": {
                            "sense": "cost",
                            "values": [1.0, 4.0, 2.0, 3.0, 5.0, 0.0],
                        },
                        "belief": belief,
                        "risk": risk,
                    }
                ],
            },
        }

    def test_joint_belief_expectation(self):
        doc = self._doc({"kind": "expectation"}, {"joint": [0.5, 0.25, 0.25]})
        game = load_game_document(doc)
        ls = player_strategies(game, "solo")[0]  # constant x
        profile = assemble_profile(game, {"solo": ls})
        # Outcomes per nature state: values at (w, x) = 1, 2, 5.
        assert Evaluator(game).value("solo", profile) == pytest.approx(
            0.5 * 1 + 0.25 * 2 + 0.25 * 5
        )

    def test_cvar_risk_from_file(self):
        doc = self._doc(
            {"kind": "cvar", "alpha": 0.5}, {"joint": [0.25, 0.5, 0.25]}
        )
        game = load_game_document(doc)
        ls = player_strategies(game, "solo")[0]
        profile = assemble_profile(game, {"solo": ls})
        # Cost table along x: (1, 2, 5) with masses (0.25, 0.5, 0.25); the
        # worst half is 0.25 of 5 plus 0.25 of 2.
        assert Evaluator(game).value("solo", profile) == pytest.approx(
            (0.25 * 5 + 0.25 * 2) / 0.5
        )

    def test_worst_case_from_file_without_belief(self):
        doc = self._doc({"kind": "worst-case"}, None)
        del doc["custom"]["players"][0]["belief"]
        game = load_game_document(doc)
        ls = player_strategies(game, "solo")[1]  # constant y
        profile = assemble_profile(game, {"solo": ls})
        # Values along y: (4, 3, 0) -> worst case 4.
        assert Evaluator(game).value("solo", profile) == 4.0

    def test_round_trip_preserves_joint_and_cvar(self):
        doc = self._doc({"kind": "cvar", "alpha": 0.5}, {"joint": [0.25, 0.5, 0.25]})
        game = load_game_document(doc)
        out = export_custom(game)
        player = out["custom"]["players"][0]
        assert player["risk"] == {"kind": "cvar", "alpha": 0.5}
        assert player["belief"] == {"joint": [0.25, 0.5, 0.25]}
        reloaded = load_game_document(json.loads(json.dumps(out)))
        assert reloaded.data["solo"].risk.alpha == 0.5


class TestExplicitPartitionEndToEnd:
    def _xor_doc(self):
        # The agent observes only the parity of two binary nature bits: a
        # partition that is not a cylinder of any factor subset.
        atoms = []
        for b0 in range(2):
            for b1 in range(2):
                for _u in range(2):
                    atoms.append((b0 + b1) % 2)
        return {
            "version": 1,
            "custom": {
                "factors": [
                    {"id": "b0", "kind": "nature-exogenous", "elements": ["0", "1"]},
                    {"id": "b1", "kind": "nature-exogenous", "elements": ["0", "1"]},
                    {"id": "u", "kind": "action", "elements": ["stay", "switch"]},
                ],
                "agents": [
                    {"player": "solo", "action": "u", "info": {"atoms": atoms}}
                ],
                "players": [
                    {
                        "id": "solo",
                        # Cost 0 when the action matches the parity.
                        "objective": {
                            "sense": "cost",
                            "values": [0, 1, 1, 0, 1, 0, 0, 1],
                        },
                        "belief": {"product": [[0.5, 0.5], [0.5, 0.5]]},
                    }
                ],
            },
        }

    def test_parity_observer_plays_parity(self):
        game = load_game_document(self._xor_doc())
        agent = game.model.agents[0]
        assert game.model.info[agent].atom_count == 2
        report = nash_equilibria(game)
        assert len(report.profiles) == 1
        # Atom 0 is even parity (first point), atom 1 odd: play stay/switch.
        assert report.profiles[0].by_player[0][1][0].table == (0, 1)
        assert dict(report.profiles[0].values)["solo"] == 0.0

    def test_non_cylinder_partition_exports_as_atoms(self):
        game = load_game_document(self._xor_doc())
        out = export_custom(game)
        info = out["custom"]["agents"][0]["info"]
        assert "atoms" in info
        reloaded = load_game_document(json.loads(json.dumps(out)))
        assert reloaded.model.info[reloaded.model.agents[0]].atom_of == tuple(
            info["atoms"]
        )
