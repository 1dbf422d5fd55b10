"""Built-in game builders.

Ships the prisoner's dilemma, a discretized time-of-use pricing game between
an electricity producer (leader, payoff) and a consumer (follower, cost), and
three incentive-based demand-response formulations between a utility that
assigns reduction targets (leader, cost) and consumers paid per unit of
effective reduction (followers, payoff): single follower with one stage,
single follower over a horizon, and multiple followers over a horizon.

All continuous quantities are discretized onto user-supplied grids.  Effective
reduction is min(target, baseline - consumption), clamped at zero by default
so over-consumption earns no reward rather than a fine; the unclamped literal
formula stays available behind ``clamp_reward=False``.

The demand-response objectives are sums of per-stage, per-follower terms.
They are tabulated per stage: one small table over (exogenous factor, type,
stage actions) per term, summed onto the configuration space by stride
arithmetic (``Objective.from_terms``), after the build cap has been checked.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from typing import Sequence

from .errors import CapacityExceeded
from .model import DEFAULT_CAP, AgentId, build_wmodel
from .normal_form import fmt_value
from .preferences import (
    Belief,
    Objective,
    PlayerData,
    PlayerPartition,
    RiskMeasure,
    Sense,
    WGame,
    make_wgame,
)
from .spaces import FiniteFactor


@dataclass(frozen=True)
class GridSpec:
    """A finite scenario grid with belief masses and a designated true point.

    ``values`` holds floats (plain grids) or coefficient tuples (quadratic
    families).  ``masses`` is the assessing player's distribution over the
    grid (uniform when omitted); ``true_index`` anchors the Dirac of whoever
    knows this component.
    """

    values: tuple
    masses: tuple[float, ...] | None = None
    true_index: int = 0

    def __post_init__(self):
        if len(self.values) < 1:
            raise ValueError("grid must be non-empty")
        if self.masses is not None and len(self.masses) != len(self.values):
            raise ValueError("masses length does not match grid length")
        if not 0 <= self.true_index < len(self.values):
            raise ValueError("true_index out of range")

    @property
    def size(self) -> int:
        return len(self.values)

    def mass_vector(self) -> tuple[float, ...]:
        if self.masses is not None:
            return tuple(float(m) for m in self.masses)
        return (1.0 / self.size,) * self.size

    def dirac(self) -> tuple[float, ...]:
        return tuple(1.0 if i == self.true_index else 0.0 for i in range(self.size))


def _grid_factor(fid: str, label: str, kind: str, values: Sequence[float]) -> FiniteFactor:
    return FiniteFactor(fid, label, tuple(fmt_value(v) for v in values), kind)


def _pair_labels(values) -> tuple[str, ...]:
    return tuple(f"({fmt_value(a)},{fmt_value(b)})" for a, b in values)


def build_prisoners_dilemma() -> WGame:
    """Two players, one agent each, singleton Nature, trivial information.

    Jail years (costs): (C,C)=(0.5,0.5), (C,D)=(10,0), (D,C)=(0,10),
    (D,D)=(5,5).
    """
    state = FiniteFactor("state", "state", ("only",), "nature-exogenous")
    row_act = FiniteFactor("row_action", "row action", ("C", "D"), "action")
    col_act = FiniteFactor("col_action", "col action", ("C", "D"), "action")
    row, col = AgentId("row"), AgentId("col")
    model = build_wmodel(
        [state],
        [row, col],
        {row: row_act, col: col_act},
        {row: (), col: ()},
    )
    row_cost = {(0, 0): 0.5, (0, 1): 10.0, (1, 0): 0.0, (1, 1): 5.0}
    col_cost = {(0, 0): 0.5, (0, 1): 0.0, (1, 0): 10.0, (1, 1): 5.0}
    obj_row = Objective.from_function(
        model.configuration, "row", Sense.COST, lambda pt: row_cost[(pt[1], pt[2])]
    )
    obj_col = Objective.from_function(
        model.configuration, "col", Sense.COST, lambda pt: col_cost[(pt[1], pt[2])]
    )
    belief = Belief.product(model.nature_space, [(1.0,)])
    players = PlayerPartition(("row", "col"), {row: "row", col: "col"})
    data = {
        "row": PlayerData(obj_row, RiskMeasure.expectation(belief)),
        "col": PlayerData(obj_col, RiskMeasure.expectation(belief)),
    }
    return make_wgame(model, players, data)


@dataclass(frozen=True)
class TouParams:
    """Time-of-use pricing instance.

    ``demand`` (kWh) carries the producer's belief about demand and the
    consumer's Dirac anchor; ``production_cost`` (per kWh) is the producer's
    type (consumer's belief, producer's Dirac); ``unwillingness`` (per kWh)
    is the consumer's reluctance to shift off-peak (producer's belief,
    consumer's Dirac).  Price pairs violating peak >= off-peak are excluded
    from the producer's action set at build time.
    """

    demand: GridSpec
    production_cost: GridSpec
    unwillingness: GridSpec
    peak_prices: tuple[float, ...]
    offpeak_prices: tuple[float, ...]
    shifts: tuple[float, ...]

    def __post_init__(self):
        if not self.peak_prices or not self.offpeak_prices or not self.shifts:
            raise ValueError("price and shift grids must be non-empty")
        for a in self.shifts:
            if not 0 <= a <= 1:
                raise ValueError(f"shift fraction {a} outside [0, 1]")


def build_tou_game(params: TouParams) -> WGame:
    """Peak/off-peak pricing: the producer posts a price pair knowing her
    production cost, the consumer shifts a demand fraction to peak hours
    after seeing demand, his own reluctance, and the posted prices."""
    pairs = tuple(
        (pk, op)
        for pk in params.peak_prices
        for op in params.offpeak_prices
        if pk >= op
    )
    if not pairs:
        raise ValueError("no feasible price pair with peak >= off-peak")

    demand = _grid_factor("demand", "demand (kWh)", "nature-exogenous", params.demand.values)
    cost = _grid_factor(
        "production_cost", "unitary production cost", "nature-type", params.production_cost.values
    )
    unwill = _grid_factor(
        "unwillingness", "unwillingness to shift", "nature-type", params.unwillingness.values
    )
    prices = FiniteFactor("prices", "(peak, off-peak) prices", _pair_labels(pairs), "action")
    shift = _grid_factor("shift", "peak consumption fraction", "action", params.shifts)

    leader, follower = AgentId("leader"), AgentId("follower")
    model = build_wmodel(
        [demand, cost, unwill],
        [leader, follower],
        {leader: prices, follower: shift},
        {leader: ("production_cost",), follower: ("demand", "unwillingness", "prices")},
    )

    d_vals, c_vals, w_vals = params.demand.values, params.production_cost.values, params.unwillingness.values

    def leader_payoff(pt):
        d, c = d_vals[pt[0]], c_vals[pt[1]]
        pk, op = pairs[pt[3]]
        alpha = params.shifts[pt[4]]
        return d * alpha * pk + d * (1 - alpha) * op - d * c

    def follower_cost(pt):
        d, w = d_vals[pt[0]], w_vals[pt[2]]
        pk, op = pairs[pt[3]]
        alpha = params.shifts[pt[4]]
        return d * alpha * pk + d * (1 - alpha) * op + d * (1 - alpha) * w

    obj_l = Objective.from_function(model.configuration, "leader", Sense.PAYOFF, leader_payoff)
    obj_f = Objective.from_function(model.configuration, "follower", Sense.COST, follower_cost)

    belief_l = Belief.product(
        model.nature_space,
        [params.demand.mass_vector(), params.production_cost.dirac(), params.unwillingness.mass_vector()],
    )
    belief_f = Belief.product(
        model.nature_space,
        [params.demand.dirac(), params.production_cost.mass_vector(), params.unwillingness.dirac()],
    )
    players = PlayerPartition(("leader", "follower"), {leader: "leader", follower: "follower"})
    data = {
        "leader": PlayerData(obj_l, RiskMeasure.expectation(belief_l)),
        "follower": PlayerData(obj_f, RiskMeasure.expectation(belief_f)),
    }
    return make_wgame(model, players, data, leaders=("leader",))


@dataclass(frozen=True)
class ThaiParams:
    """Incentive-based demand-response instance.

    The utility assigns per-stage reduction targets; consumers choose
    consumption levels against a contracted baseline and earn ``reward`` per
    unit of effective reduction.  Net production cost is
    ``a1*x - a2*x**2`` with ``(a1, a2)`` drawn from ``leader_coeffs``; net
    consumer utility is ``c1*x - c2*x**2`` from ``follower_coeffs``; both are
    scaled by the stage's exogenous factor (seasonality), 1 when omitted.

    ``info_mode`` selects the information structure.  Under "open-loop"
    every field is trivial (constant strategies).  Under "current-stage" an
    agent sees his own ``{player}_type``, and a follower also the current
    stage's target; "full-history" adds the exogenous factors of earlier
    stages and every decision of an earlier stage.

    ``aggregation`` only matters with several followers: "aggregate" takes
    min(target, total reduction) per stage, each follower paid her
    proportional share; "literal" applies the min per follower and sums.
    """

    baselines: tuple[float, ...]
    prices: tuple[float, ...]
    reward: float
    targets: tuple[float, ...]
    consumptions: tuple[float, ...]
    horizon: int = 1
    followers: tuple[str, ...] = ("follower",)
    leader_coeffs: GridSpec = GridSpec(((0.0, 0.0),))
    follower_coeffs: GridSpec = GridSpec(((0.0, 0.0),))
    exogenous: tuple[GridSpec, ...] | None = None
    info_mode: str = "current-stage"
    clamp_reward: bool = True
    aggregation: str = "aggregate"

    def __post_init__(self):
        if self.horizon < 1:
            raise ValueError("horizon must be at least 1")
        if not self.targets or not self.consumptions:
            raise ValueError("target and consumption grids must be non-empty")
        if self.reward < 0:
            raise ValueError("reward must be nonnegative")
        for name, grid in (("baseline", self.baselines), ("price", self.prices)):
            if len(grid) not in (1, self.horizon):
                raise ValueError(f"{name} vector must have length 1 or horizon")
            for v in grid:
                if v < 0:
                    raise ValueError(f"{name} values must be nonnegative")
        for v in self.targets + self.consumptions:
            if v < 0:
                raise ValueError("targets and consumptions must be nonnegative")
        for _, c2 in self.follower_coeffs.values:
            if c2 < 0:
                raise ValueError("utility curvature c2 must be nonnegative")
        if not self.followers or len(set(self.followers)) != len(self.followers):
            raise ValueError("followers must be non-empty and unique")
        if "leader" in self.followers:
            raise ValueError("a follower cannot be named 'leader', the utility's player id")
        if self.exogenous is not None and len(self.exogenous) not in (1, self.horizon):
            raise ValueError("exogenous grids must have length 1 or horizon")
        if self.info_mode not in ("open-loop", "current-stage", "full-history"):
            raise ValueError(f"unknown info_mode {self.info_mode!r}")
        if self.aggregation not in ("aggregate", "literal"):
            raise ValueError(f"unknown aggregation {self.aggregation!r}")

    def baseline_at(self, t: int) -> float:
        return self.baselines[0] if len(self.baselines) == 1 else self.baselines[t - 1]

    def price_at(self, t: int) -> float:
        return self.prices[0] if len(self.prices) == 1 else self.prices[t - 1]

    def exogenous_at(self, t: int) -> GridSpec:
        if self.exogenous is None:
            return GridSpec((1.0,))
        return self.exogenous[0] if len(self.exogenous) == 1 else self.exogenous[t - 1]


def _effective(target: float, reduction: float, clamp: bool) -> float:
    eff = min(target, reduction)
    return max(0.0, eff) if clamp else eff


def _phi(coeffs: tuple[float, float], scale: float, x: float) -> float:
    a1, a2 = coeffs
    return scale * (a1 * x - a2 * x * x)


def _build_thai(params: ThaiParams, staged: bool, cap: int) -> WGame:
    """The demand-response game of ``params``.  ``staged`` gives every
    player one agent per stage and Nature one exogenous factor per stage;
    otherwise each player has one unstaged agent and Nature no exogenous
    factor."""
    T = params.horizon
    followers = params.followers
    stages = list(range(1, T + 1))

    nature = []
    if staged:
        for t in stages:
            nature.append(
                _grid_factor(f"exo_{t}", f"exogenous factor t{t}", "nature-exogenous",
                             params.exogenous_at(t).values)
            )
    nature.append(
        FiniteFactor("leader_type", "production cost coefficients",
                     _pair_labels(params.leader_coeffs.values), "nature-type")
    )
    for f in followers:
        nature.append(
            FiniteFactor(f"{f}_type", f"utility coefficients of {f}",
                         _pair_labels(params.follower_coeffs.values), "nature-type")
        )

    def stage_of(a: AgentId) -> int:
        return 1 if a.stage is None else a.stage

    leader_agents = [AgentId("leader", t if staged else None) for t in stages]
    follower_agents = {
        f: [AgentId(f, t if staged else None) for t in stages] for f in followers
    }
    agents = list(leader_agents)
    for f in followers:
        agents.extend(follower_agents[f])

    action_factors = {}
    for a in leader_agents:
        fid = f"target_{stage_of(a)}" if staged else "target"
        action_factors[a] = _grid_factor(fid, "reduction target", "action", params.targets)
    for f in followers:
        for a in follower_agents[f]:
            fid = f"{f}_x_{stage_of(a)}" if staged else "consumption"
            action_factors[a] = _grid_factor(fid, "consumption", "action", params.consumptions)

    exo_ids = [f"exo_{t}" for t in stages] if staged else []

    def visible(a: AgentId) -> list[str]:
        """The factors agent ``a`` observes under ``params.info_mode``."""
        if params.info_mode == "open-loop":
            return []
        t = stage_of(a)
        seen = [f"{a.player}_type"]
        if a.player != "leader":
            seen.append(action_factors[leader_agents[t - 1]].id)
        if params.info_mode == "full-history":
            seen += exo_ids[: t - 1]
            seen += [action_factors[b].id for b in agents if stage_of(b) < t]
        return seen

    info_specs = {a: visible(a) for a in agents}

    # The cap is checked before anything configuration-sized is built: an
    # agent's atoms are the joint values of the factors he sees.  A count of
    # over 2**23 bits takes seconds to form, longer than building a game that
    # large takes to run out of memory, so it is formed after the build.
    sizes = {f.id: f.size for f in (*nature, *action_factors.values())}
    counts = [(action_factors[a].size, math.prod(sizes[v] for v in {*info_specs[a]})) for a in agents]
    late = sum(m * math.log2(k) for k, m in counts) > 1 << 23
    if late:
        model = build_wmodel(nature, agents, action_factors, info_specs)
    needed = math.prod(k**m for k, m in counts)
    if needed > cap:
        raise CapacityExceeded(needed, cap, "strategy profiles of the built game")
    if not late:
        model = build_wmodel(nature, agents, action_factors, info_specs)

    def reward_shares(B: float, u: float, xs) -> list[float]:
        """Per-follower reward base at one stage (units of effective reduction)."""
        if params.aggregation == "literal":
            return [_effective(u, B - x, params.clamp_reward) for x in xs]
        reds = [B - x for x in xs]
        if len(reds) == 1:
            return [_effective(u, reds[0], params.clamp_reward)]
        total = sum(reds)
        eff = _effective(u, total, params.clamp_reward)
        weights = [max(0.0, r) for r in reds] if params.clamp_reward else reds
        wsum = sum(weights)
        if wsum == 0:
            return [0.0 for _ in reds]
        return [eff * w / wsum for w in weights]

    exo_mass = [params.exogenous_at(t).mass_vector() for t in stages] if staged else []
    beliefs = {
        "leader": Belief.product(
            model.nature_space,
            exo_mass
            + [params.leader_coeffs.dirac()]
            + [params.follower_coeffs.mass_vector() for _ in followers],
        )
    }
    for f in followers:
        vectors = exo_mass + [params.leader_coeffs.mass_vector()]
        vectors += [
            params.follower_coeffs.dirac() if g == f else params.follower_coeffs.mass_vector()
            for g in followers
        ]
        beliefs[f] = Belief.product(model.nature_space, vectors)

    player_ids = ("leader",) + followers
    assignment = {a: "leader" for a in leader_agents}
    for f in followers:
        for a in follower_agents[f]:
            assignment[a] = f
    players = PlayerPartition(player_ids, assignment)

    # Per-stage term tables over (exo_t, type, target_t, every x_t), built in
    # the order the objectives sum them: stage, then follower.
    cfg = model.configuration
    r = params.reward
    stage_combos = list(itertools.product(params.targets, *([params.consumptions] * len(followers))))
    terms: dict[str, list] = {pl: [] for pl in player_ids}
    for t in stages:
        p, B = params.price_at(t), params.baseline_at(t)
        exo_axes, scales = ((t - 1,), params.exogenous_at(t).values) if staged else ((), (1.0,))
        stage_axes = (model.agent_axis(leader_agents[t - 1]),) + tuple(
            model.agent_axis(follower_agents[f][t - 1]) for f in followers
        )
        shares = [reward_shares(B, c[0], c[1:]) for c in stage_combos]
        for i, f in enumerate(followers):
            terms["leader"].append((
                exo_axes + (cfg.factor_index("leader_type"),) + stage_axes,
                [p * c[1 + i] - r * sh[i] - _phi(coeffs, scale, c[1 + i])
                 for scale in scales for coeffs in params.leader_coeffs.values
                 for c, sh in zip(stage_combos, shares)],
            ))
            terms[f].append((
                exo_axes + (cfg.factor_index(f"{f}_type"),) + stage_axes,
                [r * sh[i] + _phi(coeffs, scale, c[1 + i]) - p * c[1 + i]
                 for scale in scales for coeffs in params.follower_coeffs.values
                 for c, sh in zip(stage_combos, shares)],
            ))

    data = {
        pl: PlayerData(
            Objective.from_terms(cfg, pl, Sense.COST if pl == "leader" else Sense.PAYOFF, terms[pl]),
            RiskMeasure.expectation(beliefs[pl]),
        )
        for pl in player_ids
    }
    return make_wgame(model, players, data, leaders=("leader",))


def build_thai_slsf_st(params: ThaiParams, cap: int = DEFAULT_CAP) -> WGame:
    """Single follower, single stage, no exogenous factor.

    The utility minimizes net sales minus paid reward minus production cost;
    the consumer maximizes reward plus utility minus energy bought.
    """
    if params.horizon != 1:
        raise ValueError("single-timestep builder requires horizon == 1")
    if len(params.followers) != 1:
        raise ValueError("single-follower builder requires exactly one follower")
    if params.exogenous is not None:
        raise ValueError("the single-timestep model has no exogenous factor")
    if params.info_mode != "current-stage":
        raise ValueError(
            "the single-timestep model fixes its information structure "
            "(own type; follower also sees the target); use the multi-stage "
            "builder for other info modes"
        )
    return _build_thai(params, staged=False, cap=cap)


def build_thai_slsf_mt(params: ThaiParams, cap: int = DEFAULT_CAP) -> WGame:
    """Single follower over a horizon; objectives additive in time."""
    if len(params.followers) != 1:
        raise ValueError("single-follower builder requires exactly one follower")
    return _build_thai(params, staged=True, cap=cap)


def build_thai_slmf_mt(params: ThaiParams, cap: int = DEFAULT_CAP) -> WGame:
    """Multiple followers over a horizon; the leader's per-stage target is
    met against the followers' total reduction ("aggregate") or per follower
    ("literal")."""
    return _build_thai(params, staged=True, cap=cap)

