"""Shared builders for the test suite.

Random generators take an explicit ``random.Random`` so every test that uses
them is seeded and reproducible.
"""

from __future__ import annotations

import random

import pytest

from infogames import (
    AgentId,
    Belief,
    FiniteFactor,
    Objective,
    Partition,
    PlayerData,
    PlayerPartition,
    RiskMeasure,
    Sense,
    Strategy,
    StrategyProfile,
    WGame,
    WModel,
    build_wmodel,
    make_product_space,
    make_wgame,
)


def small_factor(fid: str, size: int, kind: str = "nature-exogenous") -> FiniteFactor:
    return FiniteFactor(fid, fid, tuple(f"{fid}{i}" for i in range(size)), kind)


def mutual_observation_model() -> WModel:
    """Two agents, binary actions, each observing only the other's action."""
    w = small_factor("w", 1)
    a, b = AgentId("a"), AgentId("b")
    ua = small_factor("ua", 2, "action")
    ub = small_factor("ub", 2, "action")
    return build_wmodel([w], [a, b], {a: ua, b: ub}, {a: ("ub",), b: ("ua",)})


def copy_strategy(model: WModel, agent: AgentId) -> Strategy:
    """Play whatever the observed binary coordinate is (2-atom info)."""
    return Strategy(agent, (0, 1))


def flip_strategy(model: WModel, agent: AgentId) -> Strategy:
    return Strategy(agent, (1, 0))


def random_sequential_model(rng: random.Random) -> WModel:
    """A model whose information structure is sequential by construction:
    agent i sees a subset of Nature plus a subset of earlier agents' actions.
    At most 3 agents, 3 actions each, 4 Nature points."""
    if rng.random() < 0.5:
        nature = [small_factor("n0", rng.randint(1, 4))]
    else:
        nature = [small_factor("n0", rng.randint(1, 2)), small_factor("n1", 2, "nature-type")]
    agents = [AgentId("p", t) for t in range(1, rng.randint(1, 3) + 1)]
    actions = {a: small_factor(f"u{a.stage}", rng.randint(2, 3), "action") for a in agents}
    info = {}
    for i, a in enumerate(agents):
        visible = [f.id for f in nature if rng.random() < 0.5]
        visible += [actions[b].id for b in agents[:i] if rng.random() < 0.5]
        info[a] = tuple(visible)
    return build_wmodel(nature, agents, actions, info)


def random_information_parts(rng: random.Random, sequential: bool):
    """Factors, agents and information specs for :func:`build_wmodel`.

    At most 3 agents with 1-3 actions and at most 4 Nature points.  Agents are
    declared in shuffled order.  Each spec is a cylinder over random factors
    other than the agent's own action, or an explicit partition labelling
    each point by a random function of a random subset of those axes (usually
    not a cylinder).  With ``sequential``, an agent only sees the actions of
    agents before him in a hidden order; otherwise agents may observe each
    other.  Returns ``(nature, agents, actions, specs, configuration)``.
    """
    if rng.random() < 0.5:
        nature = [small_factor("n0", rng.randint(1, 4))]
    else:
        nature = [small_factor("n0", rng.randint(1, 2)), small_factor("n1", 2, "nature-type")]
    hidden = [AgentId("p", t) for t in range(1, rng.randint(1, 3) + 1)]
    actions = {a: small_factor(f"u{a.stage}", rng.randint(1, 3), "action") for a in hidden}
    agents = rng.sample(hidden, len(hidden))
    configuration = make_product_space(nature + [actions[a] for a in agents])
    specs = {}
    for i, a in enumerate(hidden):
        others = hidden[:i] if sequential else [b for b in hidden if b != a]
        ids = [f.id for f in nature if rng.random() < 0.5]
        ids += [actions[b].id for b in others if rng.random() < (0.5 if sequential else 0.8)]
        if rng.random() < 0.5:
            specs[a] = tuple(ids)
        else:
            specs[a] = random_partition(rng, configuration, map(configuration.factor_index, ids))
    return nature, agents, actions, specs, configuration


def random_partition(rng: random.Random, space, axes) -> Partition:
    """Label each point by a random function of its coordinates on ``axes``."""
    axes = sorted(axes)
    labels: dict = {}
    keys = [tuple(pt[i] for i in axes) for pt in space.points()]
    for key in keys:
        labels.setdefault(key, rng.randrange(3))
    return Partition.from_labels(space, [labels[k] for k in keys])


def random_profile(model: WModel, rng: random.Random) -> StrategyProfile:
    strategies = []
    for a in model.agents:
        k = model.action_factors[a].size
        m = model.info[a].atom_count
        strategies.append(Strategy(a, tuple(rng.randrange(k) for _ in range(m))))
    return StrategyProfile(tuple(strategies))


def random_mass_vector(rng: random.Random, size: int) -> tuple[float, ...]:
    """Dyadic masses (multiples of 1/8) so expectations of integer tables are
    exact floats; exact values keep argmin ties stable under positive-affine
    rescaling."""
    if size == 1:
        return (1.0,)
    if rng.random() < 0.3:
        i = rng.randrange(size)
        return tuple(1.0 if j == i else 0.0 for j in range(size))
    counts = [0] * size
    for _ in range(8):
        counts[rng.randrange(size)] += 1
    return tuple(c / 8 for c in counts)


def random_lf_game(rng: random.Random) -> WGame:
    """A random sequential leader-follower game: leader maximizes a payoff,
    follower minimizes a cost, integer objective tables, product beliefs.
    Sizes are chosen so exhaustive solves stay fast."""
    return _lf_games(rng, None)[0]


def random_lf_pair(rng: random.Random, refined: str) -> tuple[WGame, WGame]:
    """A game like :func:`random_lf_game`, built twice with the same factors,
    tables and beliefs: player ``refined`` (``"L"`` or ``"F"``) does not see
    ``n0`` in the first game and sees it in the second, so her information
    there is finer.  The other player's information is drawn once, for
    both."""
    return tuple(_lf_games(rng, refined))


def _lf_games(rng: random.Random, refined: str | None) -> list[WGame]:
    """The games of :func:`random_lf_game` (``refined`` ``None``) and of
    :func:`random_lf_pair`, from one sequence of draws."""
    nature = [small_factor("n0", rng.randint(1, 3))]
    leader, follower = AgentId("L"), AgentId("F")
    ul = small_factor("ul", rng.randint(2, 3), "action")
    sees = {"L": [f.id for f in nature if rng.random() < 0.5]}
    # Sometimes the follower moves blind to the leader's action; with a
    # full-support belief every information atom is then reached, so
    # singleton best-response sets actually occur.
    sees["F"] = ["ul"] if rng.random() < 0.6 else []
    sees["F"] += [f.id for f in nature if rng.random() < 0.5]
    infos = [sees]
    if refined is not None:
        coarse = [v for v in sees[refined] if v != "n0"]
        infos = [{**sees, refined: coarse}, {**sees, refined: coarse + ["n0"]}]
    # The follower's action count is drawn for her finest information.
    follower_sees = infos[-1]["F"]
    follower_atoms = (ul.size if "ul" in follower_sees else 1) * (nature[0].size if "n0" in follower_sees else 1)
    uf = small_factor("uf", 2 if follower_atoms > 4 else rng.randint(2, 3), "action")
    models = [
        build_wmodel(nature, [leader, follower], {leader: ul, follower: uf}, {leader: info["L"], follower: info["F"]})
        for info in infos
    ]
    size = models[0].configuration.size

    def table():
        return tuple(float(rng.randint(-5, 5)) for _ in range(size))

    nature_space = models[0].nature_space
    belief_l = Belief.product(nature_space, [random_mass_vector(rng, nature[0].size)])
    belief_f = Belief.product(nature_space, [random_mass_vector(rng, nature[0].size)])
    players = PlayerPartition(("L", "F"), {leader: "L", follower: "F"})
    data = {
        "L": PlayerData(Objective("L", Sense.PAYOFF, table()), RiskMeasure.expectation(belief_l)),
        "F": PlayerData(Objective("F", Sense.COST, table()), RiskMeasure.expectation(belief_f)),
    }
    return [make_wgame(model, players, data, leaders=("L",)) for model in models]


def rescale_player(game: WGame, player: str, a: float, b: float) -> WGame:
    """Positive-affine rescaling of a player's finite objective values."""
    assert a > 0
    old = game.data[player].objective
    values = tuple(v if v in (float("inf"), float("-inf")) else a * v + b for v in old.values)
    new_data = dict(game.data)
    new_data[player] = PlayerData(
        Objective(player, old.sense, values), game.data[player].risk
    )
    return make_wgame(game.model, game.players, new_data, leaders=game.leaders)


@pytest.fixture
def rng():
    return random.Random(20240811)


def assert_same_text(actual: str, expected: str, what: str = "texts") -> None:
    """Fail unless ``actual == expected``, exactly, naming the first offset
    where they differ with about 200 characters of each on either side.
    A plain ``assert`` would have pytest diff the whole texts, which takes
    minutes on reports of a few hundred kilobytes."""
    if actual == expected:
        return
    at = next(
        (i for i, (a, e) in enumerate(zip(actual, expected)) if a != e),
        min(len(actual), len(expected)),
    )
    start, end = max(0, at - 200), at + 200
    pytest.fail(
        f"{what} differ at offset {at} (lengths {len(actual)} and {len(expected)}):\n"
        f"  actual:   {actual[start:end]!r}\n"
        f"  expected: {expected[start:end]!r}"
    )
