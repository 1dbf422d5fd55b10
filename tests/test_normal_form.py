"""Normal-form evaluation, matrix export, CSV rendering."""

import math
import random
from pathlib import Path

import pytest

from infogames import (
    Belief,
    Evaluator,
    NotTwoPlayers,
    Objective,
    PlayerData,
    PlayerPartition,
    RiskMeasure,
    Sense,
    Strategy,
    StrategyProfile,
    build_prisoners_dilemma,
    load_game,
    make_wgame,
    matrix_to_csv,
    normal_form_matrix,
    player_strategies,
)
from infogames.normal_form import assemble_profile, fmt_value
from infogames.models import GridSpec, TouParams, build_tou_game
from conftest import random_lf_game

GAMES_DIR = Path(__file__).resolve().parent.parent / "games"


def tou_dirac_instance():
    return build_tou_game(
        TouParams(
            demand=GridSpec((100.0,)),
            production_cost=GridSpec((0.05,)),
            unwillingness=GridSpec((0.15,)),
            peak_prices=(0.2, 0.3),
            offpeak_prices=(0.1,),
            shifts=(0.0, 0.5, 1.0),
        )
    )


class TestValues:
    def test_prisoners_dilemma_dd_profile(self):
        game = build_prisoners_dilemma()
        rows = player_strategies(game, "row")
        cols = player_strategies(game, "col")
        profile = assemble_profile(game, {"row": rows[1], "col": cols[1]})
        assert Evaluator(game).value("row", profile) == 5.0
        assert Evaluator(game).value("col", profile) == 5.0

    def test_dirac_beliefs_give_plugin_values(self):
        # With every belief factor a Dirac, the normal-form value is the raw
        # objective at the single reached outcome.
        game = tou_dirac_instance()
        ev = Evaluator(game)
        rows = player_strategies(game, "leader")
        cols = player_strategies(game, "follower")
        # Leader posts (0.2, 0.1); follower plays full shift at every atom.
        profile = assemble_profile(game, {"leader": rows[0], "follower": cols[-1]})
        assert ev.value("leader", profile) == pytest.approx(15.0, abs=1e-9)
        assert ev.value("follower", profile) == pytest.approx(20.0, abs=1e-9)
        # Exactness of the plug-in: compare against the table entry itself.
        outcome_idx = ev.outcome_indices(profile)[0]
        assert ev.value("leader", profile) == game.data["leader"].objective.values[outcome_idx]

    def test_zero_mass_rows_never_matter(self):
        game = random_lf_game(random.Random(9))
        ev = Evaluator(game)
        profile = assemble_profile(
            game,
            {
                "L": player_strategies(game, "L")[0],
                "F": player_strategies(game, "F")[0],
            },
        )
        base_l = ev.value("L", profile)
        base_f = ev.value("F", profile)

        # Perturb the objective at every configuration whose nature point has
        # zero mass under the player's belief.
        def perturbed(player):
            data = game.data[player]
            belief = data.risk.belief
            values = list(data.objective.values)
            changed = 0
            for idx, pt in enumerate(game.model.configuration.points()):
                omega = pt[: len(game.model.nature_factors)]
                if belief.mass(omega) == 0.0:
                    values[idx] += 1000.0
                    changed += 1
            new_data = dict(game.data)
            new_data[player] = PlayerData(
                Objective(player, data.objective.sense, tuple(values)), data.risk
            )
            return changed, make_wgame(game.model, game.players, new_data, leaders=game.leaders)

        for player, base in (("L", base_l), ("F", base_f)):
            changed, g2 = perturbed(player)
            if changed == 0:
                continue
            assert Evaluator(g2).value(player, profile) == base

    def test_memo_counts_unique_evaluations(self):
        game = build_prisoners_dilemma()
        ev = Evaluator(game)
        rows = player_strategies(game, "row")
        cols = player_strategies(game, "col")
        profile = assemble_profile(game, {"row": rows[0], "col": cols[0]})
        ev.value("row", profile)
        ev.value("row", profile)
        ev.value("col", profile)
        assert ev.evaluations == 2

    @pytest.mark.parametrize("table", [(-1,), (2,), (0, 0)])
    def test_profiles_are_checked_before_they_are_scored(self, table):
        # An action index out of range would read another outcome (-1) or
        # raise IndexError (2); a table of the wrong size is not a strategy.
        game = build_prisoners_dilemma()
        (col,) = player_strategies(game, "col")[0]
        bad = StrategyProfile((Strategy(game.agents_of("row")[0], table), col))
        for score in (
            lambda ev: ev.value("row", bad),
            lambda ev: ev.value("col", bad),
            lambda ev: ev.outcome_indices(bad),
        ):
            ev = Evaluator(game)
            with pytest.raises(ValueError, match="action index|entries"):
                score(ev)
            assert ev.evaluations == 0

    def test_public_entry_points_reject_bad_tables(self):
        # Deviation contexts are internal and check nothing; the public entry
        # points check the full profile: a table longer than the agent's
        # atom count, on either side of the order, and an action out of range.
        game = load_game(str(GAMES_DIR / "tou_pricing.json"))
        leader, follower = game.model.agents
        lead, follow = Strategy(leader, (0,)), Strategy(follower, (0, 0))
        assert Evaluator(game).value("follower", StrategyProfile((lead, follow))) is not None
        for bad in (
            StrategyProfile((lead, Strategy(follower, (0,) * 5))),
            StrategyProfile((Strategy(leader, (0,) * 50), follow)),
            StrategyProfile((lead, Strategy(follower, (0, 3)))),
        ):
            for score in (
                lambda ev: ev.value("follower", bad),
                lambda ev: ev.value("leader", bad),
                lambda ev: ev.outcome_indices(bad),
            ):
                ev = Evaluator(game)
                with pytest.raises(ValueError, match="entries|action index"):
                    score(ev)
                assert ev.evaluations == 0

    def test_profiles_out_of_model_order_are_rejected(self):
        game = build_prisoners_dilemma()
        (row,), (col,) = player_strategies(game, "row")[0], player_strategies(game, "col")[0]
        ev = Evaluator(game)
        for profile in (StrategyProfile((col, row)), StrategyProfile((row,))):
            with pytest.raises(ValueError, match="one strategy per agent"):
                ev.value("row", profile)
        assert ev.evaluations == 0


class TestMatrix:
    def test_prisoners_dilemma_matrix_is_table_one(self):
        game = build_prisoners_dilemma()
        m = normal_form_matrix(game)
        assert m.values == (
            ((0.5, 0.5), (10.0, 0.0)),
            ((0.0, 10.0), (5.0, 5.0)),
        )
        assert m.row_labels == ("row:C", "row:D")
        assert m.col_labels == ("col:C", "col:D")

    def test_single_strategy_player_gives_single_row(self):
        game = build_tou_game(
            TouParams(
                demand=GridSpec((100.0,)),
                production_cost=GridSpec((0.05,)),
                unwillingness=GridSpec((0.15,)),
                peak_prices=(0.2,),
                offpeak_prices=(0.1,),
                shifts=(0.0, 1.0),
            )
        )
        m = normal_form_matrix(game)
        assert len(m.row_labels) == 1
        # One price pair -> one follower information atom -> 2**1 strategies.
        assert len(m.col_labels) == 2

    def test_tou_matrix_shape(self):
        game = tou_dirac_instance()
        m = normal_form_matrix(game)
        # 2 leader pairs; follower info atoms = 1 demand * 1 unwillingness *
        # 2 pairs = 2, so 3**2 = 9 columns.
        assert len(m.row_labels) == 2
        assert len(m.col_labels) == 9

    def test_cells_match_pointwise_calls(self):
        game = random_lf_game(random.Random(11))
        m = normal_form_matrix(game)
        rng = random.Random(12)
        ev = Evaluator(game)
        for _ in range(10):
            i = rng.randrange(len(m.row_strategies))
            j = rng.randrange(len(m.col_strategies))
            profile = assemble_profile(
                game, {m.row_player: m.row_strategies[i], m.col_player: m.col_strategies[j]}
            )
            assert m.values[i][j][0] == ev.value(m.row_player, profile)
            assert m.values[i][j][1] == ev.value(m.col_player, profile)

    def test_not_two_players_rejected(self):
        from infogames.models import ThaiParams, build_thai_slmf_mt

        game = build_thai_slmf_mt(
            ThaiParams(
                baselines=(10.0,),
                prices=(1.0,),
                reward=0.5,
                targets=(0.0, 2.0),
                consumptions=(8.0, 10.0),
                followers=("f1", "f2"),
                leader_coeffs=GridSpec(((0.3, 0.0),)),
                follower_coeffs=GridSpec(((2.0, 0.1),)),
            )
        )
        with pytest.raises(NotTwoPlayers):
            normal_form_matrix(game)


class TestCsv:
    def test_header_and_cells(self):
        game = build_prisoners_dilemma()
        csv_text = matrix_to_csv(normal_form_matrix(game))
        lines = csv_text.strip().split("\n")
        assert lines[0] == ",col:C,col:D"
        assert lines[1] == "row:C,0.5;0.5,10;0"
        assert lines[2] == "row:D,0;10,5;5"

    def test_inf_literals(self):
        assert fmt_value(math.inf) == "inf"
        assert fmt_value(-math.inf) == "-inf"
        assert fmt_value(1 / 3) == "0.333333333333"
        assert fmt_value(4.4000000000000004) == "4.4"
