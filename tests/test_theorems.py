"""Theorems about changes to a game, checked on random games.

The reference solver of :mod:`oracle` checks the solvers against the
definitions, but it computes outcomes through the library's own fixed-point
search and scores with a float twin of ``apply_risk``, so a misreading both
share passes both.  A theorem relating two games needs no reference engine.

*Own information never hurts.*  Refining a player's information keeps every
strategy she had: a coarse strategy is the fine strategy playing, at each
fine atom, its action at the coarse atom holding it, and it reaches the same
outcome at every point.  So her best value can only improve.  The same floats
reach ``apply_risk`` in the same order, so each comparison is exact, with no
tolerance.
"""

from __future__ import annotations

import random

from hypothesis import given, settings
from hypothesis import strategies as st

import oracle
from conftest import random_lf_pair
from infogames import Evaluator, Strategy, best_responses, leader_value, player_strategies


def _embedded(coarse, fine, strategy):
    """The fine strategy playing ``strategy``, a player strategy of the
    coarse game, at every point."""
    out = []
    for s in strategy:
        table = {}
        for c, f in zip(coarse.model.info[s.agent].atom_of, fine.model.info[s.agent].atom_of):
            table[f] = s.table[c]
        out.append(Strategy(s.agent, tuple(table[f] for f in range(len(table)))))
    return tuple(out)


def _leader_values(game, strategies, mode, evaluator):
    return [leader_value(game, "L", {"L": ls}, mode, evaluator=evaluator) for ls in strategies]


@settings(max_examples=100, deadline=None)
@given(st.integers(0, 2**32 - 1))
def test_own_information_never_hurts_the_leader(seed):
    """The leader's best anticipated value, in every mode, with and without
    her seeing ``n0``: each of her coarse strategies anticipates the same
    value as its fine twin, so the fine best is at least as good."""
    coarse, fine = random_lf_pair(random.Random(seed), "L")
    sense = coarse.data["L"].objective.sense
    coarse_space = player_strategies(coarse, "L")
    twins = [_embedded(coarse, fine, ls) for ls in coarse_space]
    coarse_ev, fine_ev = Evaluator(coarse), Evaluator(fine)
    for mode in oracle.MODES:
        coarse_values = _leader_values(coarse, coarse_space, mode, coarse_ev)
        assert _leader_values(fine, twins, mode, fine_ev) == coarse_values
        fine_best = sense.best(_leader_values(fine, player_strategies(fine, "L"), mode, fine_ev))
        assert not sense.better(sense.best(coarse_values), fine_best)


@settings(max_examples=100, deadline=None)
@given(st.integers(0, 2**32 - 1))
def test_own_information_never_hurts_the_follower(seed):
    """The follower's best-response value against each leader strategy,
    with and without her seeing ``n0``."""
    coarse, fine = random_lf_pair(random.Random(seed), "F")
    sense = coarse.data["F"].objective.sense
    coarse_ev, fine_ev = Evaluator(coarse), Evaluator(fine)
    for ls in player_strategies(coarse, "L"):
        coarse_best = best_responses(coarse, "F", {"L": ls}, evaluator=coarse_ev).value
        fine_best = best_responses(fine, "F", {"L": ls}, evaluator=fine_ev).value
        assert not sense.better(coarse_best, fine_best)


def test_refined_pairs_cover_the_cases():
    """The pairs refine the player's information in some games and not in
    others, and refining it strictly improves her best value in some."""
    seen = set()
    for seed in range(60):
        for player in ("L", "F"):
            coarse, fine = random_lf_pair(random.Random(seed), player)
            agent = coarse.agents_of(player)[0]
            finer = fine.model.info[agent].atom_count > coarse.model.info[agent].atom_count
            seen.add(f"{player} {'refined' if finer else 'unchanged'}")
            sense = coarse.data[player].objective.sense
            if player == "L":
                best = [
                    sense.best(_leader_values(g, player_strategies(g, "L"), oracle.MODES[0], None))
                    for g in (coarse, fine)
                ]
            else:
                ls = player_strategies(coarse, "L")[0]
                best = [best_responses(g, "F", {"L": ls}).value for g in (coarse, fine)]
            if sense.better(best[1], best[0]):
                seen.add(f"{player} gains")
    assert seen == {"L refined", "L unchanged", "L gains", "F refined", "F unchanged", "F gains"}
