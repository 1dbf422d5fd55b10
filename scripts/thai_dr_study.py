#!/usr/bin/env python3
"""Demand-response incentive study.

Sweeps the unitary reward and reports how the assigned target and the
consumer's consumption move at the equilibrium; then contrasts the two
reward-aggregation readings with two consumers.
Run: python3 scripts/thai_dr_study.py
"""

from infogames import OPTIMISTIC, Evaluator, nash_stackelberg
from infogames.models import GridSpec, ThaiParams, build_thai_slmf_mt, build_thai_slsf_st
from infogames.normal_form import fmt_value, strategy_labeller


def reward_sweep():
    print("single consumer, single stage: equilibrium vs unitary reward")
    for r in (0.0, 0.25, 0.5, 1.0, 2.0):
        params = ThaiParams(
            baselines=(10.0,),
            prices=(1.0,),
            reward=r,
            targets=(0.0, 2.0, 4.0),
            consumptions=(4.0, 6.0, 8.0, 10.0),
            leader_coeffs=GridSpec(((0.3, 0.0),)),
            follower_coeffs=GridSpec(((2.0, 0.1),)),
        )
        game = build_thai_slsf_st(params)
        ev = Evaluator(game)
        report = nash_stackelberg(game, OPTIMISTIC, evaluator=ev)
        rec = report.profiles[0]
        outcome = game.model.configuration.point_at(ev.outcome_indices(rec.profile)[0])
        target = params.targets[outcome[2]]
        consumption = params.consumptions[outcome[3]]
        values = dict(rec.values)
        print(
            f"  r={r:<5} target={fmt_value(target):<4} consumption={fmt_value(consumption):<4} "
            f"utility_cost={fmt_value(values['leader'])} consumer_payoff={fmt_value(values['follower'])}"
        )
    print()


def aggregation_comparison():
    print("two consumers: aggregate vs literal reward accounting")
    for aggregation in ("aggregate", "literal"):
        params = ThaiParams(
            baselines=(10.0,),
            prices=(1.0,),
            reward=0.75,
            targets=(0.0, 3.0, 6.0),
            consumptions=(6.0, 8.0),
            followers=("c1", "c2"),
            leader_coeffs=GridSpec(((0.3, 0.0),)),
            follower_coeffs=GridSpec(((2.0, 0.1),)),
            aggregation=aggregation,
        )
        game = build_thai_slmf_mt(params)
        label = strategy_labeller(game)
        report = nash_stackelberg(game, OPTIMISTIC)
        rec = report.profiles[0]
        assignment = dict(rec.by_player)
        values = dict(rec.values)
        print(
            f"  {aggregation:<10} leader={label(assignment['leader'])} "
            f"cost={fmt_value(values['leader'])} "
            f"payoffs=({fmt_value(values['c1'])}, {fmt_value(values['c2'])})"
        )
    print()


if __name__ == "__main__":
    reward_sweep()
    aggregation_comparison()
