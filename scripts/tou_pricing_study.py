#!/usr/bin/env python3
"""Time-of-use pricing study.

Sweeps the cooperation level theta between the pessimistic and optimistic
anticipation rules and compares posted price pairs, then varies the
consumer's unwillingness to shift and reports how the equilibrium moves.
Run: python3 scripts/tou_pricing_study.py
"""

from infogames import (
    Evaluator,
    leader_value,
    nash_stackelberg,
    player_strategies,
    theta_mode,
)
from infogames.models import GridSpec, TouParams, build_tou_game
from infogames.normal_form import fmt_value, strategy_labeller


def make_game(unwillingness: float):
    return build_tou_game(
        TouParams(
            demand=GridSpec((80.0, 120.0), masses=(0.5, 0.5)),
            production_cost=GridSpec((0.05,)),
            unwillingness=GridSpec((unwillingness,)),
            peak_prices=(0.15, 0.2, 0.3),
            offpeak_prices=(0.1,),
            shifts=(0.0, 0.5, 1.0),
        )
    )


def theta_sweep():
    game = make_game(0.15)
    ev = Evaluator(game)
    leaders = player_strategies(game, "leader")
    print("anticipated leader payoff per posted price pair")
    label = strategy_labeller(game)
    header = ["theta"] + [label(ls) for ls in leaders]
    print("  ".join(f"{h:>22}" for h in header))
    for theta in (0.0, 0.25, 0.5, 0.75, 1.0):
        row = [f"{theta:>22}"]
        for ls in leaders:
            v = leader_value(game, "leader", {"leader": ls}, theta_mode(theta), evaluator=ev)
            row.append(f"{fmt_value(v):>22}")
        print("  ".join(row))
    print()


def unwillingness_sweep():
    # Anticipated value = what the optimistic leader expects over the
    # follower's best-response set; individual reported profiles can realize
    # less when the follower is indifferent at states she rules out.
    print("equilibrium vs unwillingness to shift (optimistic)")
    for w in (0.05, 0.1, 0.15, 0.25):
        game = make_game(w)
        label = strategy_labeller(game)
        ev = Evaluator(game)
        report = nash_stackelberg(game, theta_mode(1.0), evaluator=ev)
        rec = report.profiles[0]
        assignment = dict(rec.by_player)
        anticipated = leader_value(
            game, "leader", {"leader": assignment["leader"]}, theta_mode(1.0), evaluator=ev
        )
        values = dict(rec.values)
        print(
            f"  w={w:<5} leader={label(assignment['leader'])} "
            f"anticipated={fmt_value(anticipated)} follower_cost={fmt_value(values['follower'])}"
        )
    print()


if __name__ == "__main__":
    theta_sweep()
    unwillingness_sweep()
