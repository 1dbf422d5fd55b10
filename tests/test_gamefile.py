"""Game definition files: schema validation, located errors, round-trips."""

import json
import math
import random
from pathlib import Path

import pytest

from infogames import (
    GameError,
    Objective,
    ParseError,
    PlayerData,
    PlayerPartition,
    RiskMeasure,
    SchemaError,
    Sense,
    SelfInformationViolation,
    build_prisoners_dilemma,
    build_thai_slsf_st,
    build_tou_game,
    export_custom,
    load_game,
    load_game_document,
    make_wgame,
    matrix_to_csv,
    nash_equilibria,
    normal_form_matrix,
)
from infogames.models import GridSpec, ThaiParams, TouParams
from infogames.normal_form import count_player_strategies
from conftest import mutual_observation_model
from test_context_tables import random_game


GAMES_DIR = Path(__file__).resolve().parent.parent / "games"


def pd_doc():
    return {"version": 1, "builtin": {"model": "prisoners_dilemma"}}


def custom_doc():
    return {
        "version": 1,
        "custom": {
            "factors": [
                {"id": "w", "label": "state", "kind": "nature-exogenous", "elements": ["only"]},
                {"id": "u", "label": "move", "kind": "action", "elements": ["a", "b"]},
            ],
            "agents": [
                {"player": "solo", "stage": None, "action": "u", "info": {"cylinder": []}}
            ],
            "players": [
                {
                    "id": "solo",
                    "objective": {"sense": "cost", "values": [1.0, 2.0]},
                    "belief": {"product": [[1.0]]},
                    "risk": {"kind": "expectation"},
                }
            ],
        },
    }


class TestLoad:
    def test_builtin_prisoners_dilemma(self, tmp_path):
        path = tmp_path / "pd.json"
        path.write_text(json.dumps(pd_doc()))
        game = load_game(str(path))
        assert game.players.players == ("row", "col")

    def test_missing_file(self):
        with pytest.raises(ParseError, match="no such file"):
            load_game("/nonexistent/game.json")

    def test_parse_error_carries_location(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("{ not json }")
        with pytest.raises(ParseError) as exc:
            load_game(str(path))
        assert exc.value.line is not None

    def test_minimal_custom_game(self):
        game = load_game_document(custom_doc())
        assert game.model.configuration.size == 2
        from infogames import count_strategies

        assert count_strategies(game.model, game.model.agents[0]) == 2

    def test_inf_literals_parse(self):
        doc = custom_doc()
        doc["custom"]["players"][0]["objective"]["values"] = ["inf", 2.0]
        game = load_game_document(doc)
        assert game.data["solo"].objective.values[0] == math.inf

    def test_self_information_violation_reported_with_agent(self):
        doc = custom_doc()
        doc["custom"]["agents"][0]["info"] = {"cylinder": ["u"]}
        with pytest.raises(SelfInformationViolation) as exc:
            load_game_document(doc)
        assert exc.value.agent.player == "solo"

    def test_schema_errors_carry_paths(self):
        doc = custom_doc()
        doc["custom"]["players"][0]["objective"]["values"] = [1.0]
        with pytest.raises(SchemaError) as exc:
            load_game_document(doc)
        assert "players[0].objective.values" in str(exc.value)

        doc = custom_doc()
        doc["custom"]["players"][0]["objective"]["values"] = [1.0, "huge"]
        with pytest.raises(SchemaError) as exc:
            load_game_document(doc)
        assert "values[1]" in str(exc.value)

        doc = custom_doc()
        del doc["custom"]["factors"]
        with pytest.raises(SchemaError) as exc:
            load_game_document(doc)
        assert "custom.factors" in str(exc.value)

        doc = custom_doc()
        doc["version"] = 99
        with pytest.raises(SchemaError, match="version"):
            load_game_document(doc)

    @pytest.mark.parametrize(
        "game,where,message",
        [
            ("thai_dr_single.json", ["horizn"], "$.builtin.params.horizn: unknown parameter"),
            ("tou_pricing.json", ["shift"], "$.builtin.params.shift: unknown parameter"),
            (
                "tou_pricing.json",
                ["demand", "mass"],
                "$.builtin.params.demand.mass: unknown grid key",
            ),
            (
                "thai_dr_single.json",
                ["leader_coeffs", "true-index"],
                "$.builtin.params.leader_coeffs.true-index: unknown grid key",
            ),
        ],
    )
    def test_unknown_builtin_keys_rejected(self, game, where, message):
        with open(GAMES_DIR / game, encoding="utf-8") as fh:
            doc = json.load(fh)
        load_game_document(doc)
        node = doc["builtin"]["params"]
        for key in where[:-1]:
            node = node[key]
        node[where[-1]] = 3
        with pytest.raises(SchemaError) as exc:
            load_game_document(doc)
        assert str(exc.value) == message

    @pytest.mark.parametrize(
        "pair,message",
        [
            ([0.3, None], "$.builtin.params.leader_coeffs.values[0][1]: expected a number"),
            (["a", 0], "$.builtin.params.leader_coeffs.values[0][0]: expected a number"),
            ([True, 0], "$.builtin.params.leader_coeffs.values[0][0]: expected a number"),
        ],
    )
    def test_grid_pair_coefficients_checked(self, pair, message):
        with open(GAMES_DIR / "thai_dr_single.json", encoding="utf-8") as fh:
            doc = json.load(fh)
        doc["builtin"]["params"]["leader_coeffs"]["values"] = [pair]
        with pytest.raises(SchemaError) as exc:
            load_game_document(doc)
        assert str(exc.value) == message

    @pytest.mark.parametrize(
        "where",
        [
            [],
            ["factors", 1],
            ["agents", 0],
            ["agents", 0, "info"],
            ["players", 0],
            ["players", 0, "objective"],
            ["players", 0, "belief"],
            ["players", 0, "risk"],
        ],
    )
    def test_unknown_custom_keys_rejected(self, where):
        doc = custom_doc()
        node = doc["custom"]
        for step in where:
            node = node[step]
        node["belif"] = 1
        path = "$.custom" + "".join(f"[{s}]" if isinstance(s, int) else f".{s}" for s in where)
        with pytest.raises(SchemaError) as exc:
            load_game_document(doc)
        assert str(exc.value) == f"{path}.belif: unknown key"

    @pytest.mark.parametrize(
        "game,where,valid,message",
        [
            (None, ["version"], 1, "$.version: expected int, got bool"),
            (
                None,
                ["custom", "agents", 0, "stage"],
                1,
                "$.custom.agents[0].stage: expected int, got bool",
            ),
            (
                None,
                ["custom", "players", 0, "risk", "alpha"],
                1,
                "$.custom.players[0].risk.alpha: expected int/float, got bool",
            ),
            (
                "tou_pricing.json",
                ["builtin", "params", "demand", "true_index"],
                0,
                "$.builtin.params.demand.true_index: expected int, got bool",
            ),
            (
                "thai_dr_single.json",
                ["builtin", "params", "horizon"],
                1,
                "$.builtin.params.horizon: expected int, got bool",
            ),
            (
                "thai_dr_single.json",
                ["builtin", "params", "reward"],
                1,
                "$.builtin.params.reward: expected int/float, got bool",
            ),
        ],
    )
    def test_booleans_are_not_numbers(self, game, where, valid, message):
        """JSON ``true`` and ``false`` are Python ints, but no integer or
        number field takes them."""
        if game is None:
            doc = custom_doc()
            doc["custom"]["players"][0]["risk"] = {"kind": "cvar", "alpha": 1}
        else:
            with open(GAMES_DIR / game, encoding="utf-8") as fh:
                doc = json.load(fh)
        node = doc
        for key in where[:-1]:
            node = node[key]
        node[where[-1]] = valid
        load_game_document(doc)
        node[where[-1]] = bool(valid)
        with pytest.raises(SchemaError) as exc:
            load_game_document(doc)
        assert str(exc.value) == message

    def test_shipped_and_exported_documents_have_known_keys(self):
        for path in sorted(GAMES_DIR.glob("*.json")):
            game = load_game(str(path))
            load_game_document(json.loads(json.dumps(export_custom(game))))

    def test_unknown_model_rejected(self):
        with pytest.raises(SchemaError, match="unknown builtin model"):
            load_game_document({"version": 1, "builtin": {"model": "chess"}})

    def test_explicit_atom_map_info(self):
        doc = custom_doc()
        # Trivial field written as an explicit atom table.
        doc["custom"]["agents"][0]["info"] = {"atoms": [0, 0]}
        game = load_game_document(doc)
        assert game.model.info[game.model.agents[0]].atom_count == 1

    def test_atom_map_length_checked(self):
        doc = custom_doc()
        doc["custom"]["agents"][0]["info"] = {"atoms": [0]}
        with pytest.raises(SchemaError, match="row-major"):
            load_game_document(doc)

    def test_roles_loaded(self):
        doc = custom_doc()
        doc["custom"]["players"][0]["role"] = "leader"
        game = load_game_document(doc)
        assert game.leaders == ("solo",)

    def test_worst_case_risk_without_belief(self):
        doc = custom_doc()
        del doc["custom"]["players"][0]["belief"]
        doc["custom"]["players"][0]["risk"] = {"kind": "worst-case"}
        game = load_game_document(doc)
        assert game.data["solo"].risk.belief is None


GAMES = [
    build_prisoners_dilemma,
    lambda: build_tou_game(
        TouParams(
            demand=GridSpec((100.0,)),
            production_cost=GridSpec((0.05, 0.1), masses=(0.5, 0.5)),
            unwillingness=GridSpec((0.15,)),
            peak_prices=(0.2, 0.3),
            offpeak_prices=(0.1,),
            shifts=(0.0, 1.0),
        )
    ),
    lambda: build_thai_slsf_st(
        ThaiParams(
            baselines=(10.0,),
            prices=(1.0,),
            reward=0.5,
            targets=(0.0, 4.0),
            consumptions=(6.0, 8.0),
            leader_coeffs=GridSpec(((0.3, 0.0),)),
            follower_coeffs=GridSpec(((2.0, 0.1),)),
        )
    ),
]


class TestRoundTrip:
    @pytest.mark.parametrize("builder", GAMES)
    def test_export_reload_preserves_matrices(self, builder):
        game = builder()
        doc = export_custom(game)
        # Through actual JSON text, as the CLI would write it.
        reloaded = load_game_document(json.loads(json.dumps(doc)))
        assert matrix_to_csv(normal_form_matrix(game)) == matrix_to_csv(
            normal_form_matrix(reloaded)
        )
        assert reloaded.leaders == game.leaders

    def test_cylinder_info_detected_in_export(self):
        game = build_prisoners_dilemma()
        doc = export_custom(game)
        assert doc["custom"]["agents"][0]["info"] == {"cylinder": []}

    def test_tou_cylinder_exported_minimal(self):
        # Size-one factors cannot influence a partition, so the detected
        # cylinder is the minimal one.
        game = GAMES[1]()
        doc = export_custom(game)
        follower = doc["custom"]["agents"][1]
        assert follower["info"] == {"cylinder": ["prices"]}

    def test_tou_cylinder_includes_seen_nonsingleton_factors(self):
        game = build_tou_game(
            TouParams(
                demand=GridSpec((80.0, 100.0), masses=(0.5, 0.5)),
                production_cost=GridSpec((0.05,)),
                unwillingness=GridSpec((0.1, 0.15), masses=(0.5, 0.5)),
                peak_prices=(0.2,),
                offpeak_prices=(0.1,),
                shifts=(0.0, 1.0),
            )
        )
        doc = export_custom(game)
        follower = doc["custom"]["agents"][1]
        # One price pair: the prices factor is a singleton and drops out.
        assert follower["info"] == {"cylinder": ["demand", "unwillingness"]}

    def test_random_games_survive_round_trip(self):
        """Each agent is written under the player the game assigns it to, so
        random games, whose agents are all named ``p``, reload with the same
        players, strategy counts and equilibrium values."""

        def equilibrium_values(game):
            try:
                report = nash_equilibria(game)
            except GameError as exc:
                return type(exc).__name__
            return repr([rec.values for rec in report.profiles])

        for seed in range(300):
            game = random_game(random.Random(seed))
            reloaded = load_game_document(json.loads(json.dumps(export_custom(game))))
            players = game.players.players
            assert reloaded.players.players == players
            assert reloaded.leaders == game.leaders
            assert [count_player_strategies(reloaded, p) for p in players] == [
                count_player_strategies(game, p) for p in players
            ]
            assert equilibrium_values(reloaded) == equilibrium_values(game)

    def test_agents_written_alike_rejected(self):
        """Two unstaged agents of one player would be written as the same
        (player, stage) pair, which the loader rejects."""
        model = mutual_observation_model()
        a, b = model.agents
        data = {"P": PlayerData(Objective("P", Sense.COST, (0.0,) * 4), RiskMeasure.worst_case())}
        game = make_wgame(model, PlayerPartition(("P",), {a: "P", b: "P"}), data)
        with pytest.raises(ValueError, match="agents a and b would both be written as player 'P'"):
            export_custom(game)

    def test_inf_values_survive_round_trip(self):
        doc = custom_doc()
        doc["custom"]["players"][0]["objective"]["values"] = ["inf", 2.0]
        game = load_game_document(doc)
        out = export_custom(game)
        assert out["custom"]["players"][0]["objective"]["values"] == ["inf", 2.0]
