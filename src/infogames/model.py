"""The intrinsic game model: agents, Nature, information fields, strategies.

A model couples a configuration space (Nature factors followed by one action
factor per agent) with one information partition per agent.  Configurations
are flat point indices throughout; because the action axes come last, each
Nature state owns one contiguous block of indices.  An agent's information is
summed up by the configuration axes it observes (``WModel.observed``), which
construction records once: no agent may observe his own action axis.

Strategies map information atoms to action indices, so measurability holds by
construction.  Playability (the closed-loop equation ``u = strategy(nature, u)``
having exactly one solution) is checked either by fixed-point enumeration or,
when an agent ordering compatible with the information structure exists, by
the sequential fast path.

Fixed-point enumeration of every joint profile treats a profile as one
strategy digit per (agent, information atom), agents in model order and atoms
in table order, so an odometer over the digits (last fastest) visits profiles
in :func:`joint_strategies` order.  Each digit's action has a bitmask over
flat configuration indices keeping the points consistent with it; a profile's
fixed points are the AND of its digits' masks, taken from a stack of prefix
ANDs.  One-action agents add no digit, so the masks number at most the capped
profile count.
"""

from __future__ import annotations

import functools
import itertools
import math
import random
from dataclasses import dataclass
from typing import Iterable, Iterator, Mapping, Sequence, Union

from .errors import CapacityExceeded, NotPlayable, SelfInformationViolation
from .spaces import (
    FiniteFactor,
    Partition,
    Point,
    ProductSpace,
    axis_witnesses,
    cylinder_partition,
    make_product_space,
)

# Enumeration cap of every solver, builder and CLI command.
DEFAULT_CAP = 10**6


@dataclass(frozen=True)
class AgentId:
    """A decision-maker taking exactly one decision.

    ``stage`` distinguishes the successive agents of a player acting over
    time; single-decision players leave it ``None``.
    """

    player: str
    stage: int | None = None

    # Agents and strategies key the solvers' caches, so each hashes its
    # fields once.  The cached hash is tied to this process's string hashing;
    # pickling rebuilds from the fields, so it never crosses a process.
    def __post_init__(self):
        object.__setattr__(self, "_hash", hash((self.player, self.stage)))

    def __hash__(self) -> int:
        return self._hash

    def __reduce__(self):
        return (AgentId, (self.player, self.stage))

    def __str__(self) -> str:
        if self.stage is None:
            return self.player
        return f"{self.player}.{self.stage}"


# An information spec is either a collection of visible factor ids (cylinder
# form) or an explicit partition over the configuration space.
InfoSpec = Union[Iterable[str], Partition]


@dataclass(frozen=True)
class WModel:
    nature_factors: tuple[FiniteFactor, ...]
    agents: tuple[AgentId, ...]
    action_factors: Mapping[AgentId, FiniteFactor]
    configuration: ProductSpace
    nature_space: ProductSpace
    info: Mapping[AgentId, Partition]
    # Configuration axes each agent's information depends on, ascending.
    observed: Mapping[AgentId, tuple[int, ...]]

    def agent_axis(self, agent: AgentId) -> int:
        """Index of the agent's action coordinate in the configuration space."""
        return len(self.nature_factors) + self.agents.index(agent)

    def nature_points(self) -> Iterator[Point]:
        return self.nature_space.points()

    @functools.cached_property
    def columns(self) -> dict[AgentId, tuple[Sequence[int], int, int]]:
        """Per agent in model order: atom table, action stride, action count.
        Computed on first use and kept, since the model is immutable."""
        strides = self.configuration._strides
        first = len(self.nature_factors)
        return {
            a: (self.info[a].atom_of, strides[first + i], self.action_factors[a].size)
            for i, a in enumerate(self.agents)
        }


def build_wmodel(
    nature_factors: Sequence[FiniteFactor],
    agents: Sequence[AgentId],
    action_factors: Mapping[AgentId, FiniteFactor],
    info_specs: Mapping[AgentId, InfoSpec],
) -> WModel:
    """Assemble and validate a model.

    ``info_specs`` maps each agent either to an iterable of visible factor
    ids (cylinder form) or to an explicit :class:`Partition` over the
    configuration space.  Raises :class:`SelfInformationViolation` with a
    witness pair when an agent's information depends on his own action.
    """
    nature_factors = tuple(nature_factors)
    agents = tuple(agents)
    if not agents:
        raise ValueError("a model needs at least one agent")
    if len(set(agents)) != len(agents):
        raise ValueError("duplicate (player, stage) agent id")
    for f in nature_factors:
        if f.kind == "action":
            raise ValueError(f"nature factor {f.id!r} has kind 'action'")
    for a in agents:
        if a not in action_factors:
            raise ValueError(f"missing action factor for agent {a}")
        if action_factors[a].kind != "action":
            raise ValueError(f"action factor for agent {a} must have kind 'action'")

    ordered_actions = tuple(action_factors[a] for a in agents)
    configuration = make_product_space(nature_factors + ordered_actions)
    nature_space = make_product_space(nature_factors) if nature_factors else None
    if nature_space is None:
        raise ValueError("a model needs at least one nature factor")

    info: dict[AgentId, Partition] = {}
    observed: dict[AgentId, tuple[int, ...]] = {}
    for a in agents:
        spec = info_specs.get(a)
        if spec is None:
            raise ValueError(f"missing information spec for agent {a}")
        if isinstance(spec, Partition):
            if spec.space != configuration:
                raise ValueError(
                    f"information partition for agent {a} is over a different space"
                )
            info[a] = spec
            observed[a] = tuple(axis for axis, _, _ in axis_witnesses(spec))
        else:
            visible = set(spec)
            info[a] = cylinder_partition(configuration, visible)
            axes = {configuration.factor_index(v) for v in visible}
            observed[a] = tuple(sorted(i for i in axes if configuration.factors[i].size > 1))

    for axis, a in enumerate(agents, len(nature_factors)):
        if axis in observed[a]:
            base, idx = next((b, i) for ax, b, i in axis_witnesses(info[a]) if ax == axis)
            witness = (configuration.point_at(base), configuration.point_at(idx))
            raise SelfInformationViolation(a, witness)
    return WModel(
        nature_factors=nature_factors,
        agents=agents,
        action_factors=dict(action_factors),
        configuration=configuration,
        nature_space=nature_space,
        info=info,
        observed=observed,
    )


@dataclass(frozen=True)
class Strategy:
    """Per-agent map from information atom id to action element index.

    Hashed once, like :class:`AgentId`."""

    agent: AgentId
    table: tuple[int, ...]

    def __post_init__(self):
        object.__setattr__(self, "_hash", hash((self.agent, self.table)))

    def __hash__(self) -> int:
        return self._hash

    def __reduce__(self):
        return (Strategy, (self.agent, self.table))


@dataclass(frozen=True)
class StrategyProfile:
    """One strategy per agent, in model agent order."""

    strategies: tuple[Strategy, ...]


def validate_strategy(model: WModel, strategy: Strategy):
    part = model.info[strategy.agent]
    size = model.action_factors[strategy.agent].size
    if len(strategy.table) != part.atom_count:
        raise ValueError(
            f"strategy table for {strategy.agent} has {len(strategy.table)} "
            f"entries, information field has {part.atom_count} atoms"
        )
    for v in strategy.table:
        if not 0 <= v < size:
            raise ValueError(f"action index {v} out of range for {strategy.agent}")


def make_profile(model: WModel, strategies: Iterable[Strategy]) -> StrategyProfile:
    by_agent: dict[AgentId, Strategy] = {}
    for s in strategies:
        if s.agent in by_agent:
            raise ValueError(f"duplicate strategy for agent {s.agent}")
        by_agent[s.agent] = s
    if set(by_agent) != set(model.agents):
        raise ValueError("profile must contain exactly one strategy per agent")
    for s in by_agent.values():
        validate_strategy(model, s)
    return StrategyProfile(tuple(by_agent[a] for a in model.agents))


def count_strategies(model: WModel, agent: AgentId) -> int:
    """Number of measurable strategies: |actions| ** (information atoms)."""
    return model.action_factors[agent].size ** model.info[agent].atom_count


def count_profiles(
    model: WModel, agents: Iterable[AgentId], cap: float = math.inf, what: str = ""
) -> int:
    """Number of joint strategies of the agents, the product of their
    :func:`count_strategies`; raises :class:`CapacityExceeded` (describing
    ``what``) when it exceeds ``cap``."""
    total = 1
    for a in agents:
        total *= count_strategies(model, a)
    if total > cap:
        raise CapacityExceeded(total, cap, what)
    return total


def joint_strategies(
    model: WModel, agents: Sequence[AgentId], cap: float, what: str
) -> Iterator[tuple[Strategy, ...]]:
    """Every joint strategy of the agents, one strategy per agent in the
    given order, lexicographic with the last agent fastest; capped by
    :func:`count_profiles` before any is built."""
    count_profiles(model, agents, cap, what)
    return itertools.product(*(enumerate_strategies(model, a, cap) for a in agents))


def enumerate_strategies(
    model: WModel, agent: AgentId, cap: int = DEFAULT_CAP
) -> Iterator[Strategy]:
    """All strategies of the agent in lexicographic table order."""
    count_profiles(model, (agent,), cap, f"strategies of agent {agent}")
    k = model.action_factors[agent].size
    m = model.info[agent].atom_count
    for table in itertools.product(range(k), repeat=m):
        yield Strategy(agent, table)


def check_sequential(model: WModel) -> tuple[AgentId, ...] | None:
    """Greedy search for an agent ordering where each agent's information is
    determined by Nature and by the actions of his predecessors, that is
    where every axis he observes is a Nature axis or a predecessor's.

    Eligibility is monotone in the placed set, so the greedy construction
    (earliest eligible agent in declaration order) finds an ordering whenever
    one exists.  Returns ``None`` otherwise.
    """
    known = set(range(len(model.nature_factors)))
    placed: list[AgentId] = []
    remaining = list(model.agents)
    while remaining:
        chosen = next((a for a in remaining if known.issuperset(model.observed[a])), None)
        if chosen is None:
            return None
        placed.append(chosen)
        remaining.remove(chosen)
        known.add(model.agent_axis(chosen))
    return tuple(placed)


def _fixed_points(model: WModel, profile: StrategyProfile) -> Iterator[list[int]]:
    """Flat indices solving the closed-loop equation, one list per nature
    state in nature order, each scanning that state's block in point order.
    The profile's strategies pair with :attr:`WModel.columns` by position."""
    checks = [
        (atom_of, s.table, stride, count)
        for (atom_of, stride, count), s in zip(model.columns.values(), profile.strategies)
    ]
    size = model.configuration.size
    block = size // model.nature_space.size
    for base in range(0, size, block):
        solutions = range(base, base + block)
        for atom_of, table, stride, count in checks:
            solutions = [i for i in solutions if table[atom_of[i]] == i // stride % count]
        yield solutions


def _bits(flags: Iterable[bool]) -> int:
    """The integer whose bit ``i`` is set iff the ``i``-th flag is true."""
    return int("".join("1" if f else "0" for f in flags)[::-1], 2)


def _digit_masks(model: WModel) -> list[list[int]]:
    """Consistency bitmasks over flat configuration indices, one list per
    strategy digit: agents in model order, atoms in table order within each,
    skipping agents with one action.  Entry ``j`` of digit ``(a, atom)`` has
    every bit set except those of the atom's points whose ``a``-coordinate is
    not ``j``."""
    size = model.configuration.size
    full = (1 << size) - 1
    digits = []
    for a, (atom_of, stride, count) in model.columns.items():
        if count == 1:
            continue
        coords = [i // stride % count for i in range(size)]
        on_action = [_bits(c == j for c in coords) for j in range(count)]
        for atom in range(model.info[a].atom_count):
            outside = full ^ _bits(t == atom for t in atom_of)
            digits.append([outside | on for on in on_action])
    return digits


@dataclass(frozen=True)
class PlayabilityFailure:
    nature_point: Point
    profile: StrategyProfile
    solution_count: int
    solutions: tuple[Point, ...]


@dataclass(frozen=True)
class PlayabilityReport:
    playable: bool
    mode: str
    profiles_checked: int
    failures: tuple[PlayabilityFailure, ...]
    sequential_order: tuple[AgentId, ...] | None = None


def _failure(
    omega: Point, profile: StrategyProfile, solutions: list[int], point_at
) -> PlayabilityFailure:
    """The failure of ``profile`` at nature state ``omega``, whose flat
    solutions are not exactly one."""
    return PlayabilityFailure(omega, profile, len(solutions), tuple(map(point_at, solutions)))


def _random_profile(model: WModel, rng: random.Random) -> StrategyProfile:
    strategies = []
    for a in model.agents:
        k = model.action_factors[a].size
        m = model.info[a].atom_count
        strategies.append(Strategy(a, tuple(rng.randrange(k) for _ in range(m))))
    return StrategyProfile(tuple(strategies))


def _scan_all_profiles(model: WModel, cap: int) -> tuple[int, list[PlayabilityFailure]]:
    """The joint profile count and the playability failures of every joint
    profile, in :func:`joint_strategies` order (see :func:`check_playability`).
    """
    checked = count_profiles(model, model.agents, cap, "strategy profiles")
    # Without a sequential order some agent observes another's action axis,
    # which has two actions or more, so there is at least one digit.
    digits = _digit_masks(model)
    size = model.configuration.size
    full = (1 << size) - 1
    # Each agent's strategy: a constant one for one-action agents, otherwise
    # the slice of the digit choices holding its table.
    parts: list[tuple[AgentId, Strategy | slice]] = []
    lo = 0
    for a, (_, _, count) in model.columns.items():
        m = model.info[a].atom_count
        if count == 1:
            parts.append((a, Strategy(a, (0,) * m)))
        else:
            parts.append((a, slice(lo, lo + m)))
            lo += m
    block = size // model.nature_space.size
    low = (1 << block) - 1
    blocks = [low << base for base in range(0, size, block)]
    states = list(zip(blocks, model.nature_points()))
    point_at = model.configuration.point_at
    failures: list[PlayabilityFailure] = []

    def record(choice: list[int], solved: int):
        profile = StrategyProfile(
            tuple(p if isinstance(p, Strategy) else Strategy(a, tuple(choice[p])) for a, p in parts)
        )
        for block_mask, omega in states:
            b = solved & block_mask
            if b and not b & (b - 1):
                continue
            solutions = []
            while b:
                bit = b & -b
                solutions.append(bit.bit_length() - 1)
                b ^= bit
            failures.append(_failure(omega, profile, solutions, point_at))

    # Odometer over the digits, last fastest; prefix[d] is the AND of the
    # masks chosen for the digits before d, so each profile costs one AND.
    n = len(digits)
    choice = [0] * n
    prefix = [full]
    for masks in digits[:-1]:
        prefix.append(prefix[-1] & masks[0])
    last = digits[-1]
    while True:
        head = prefix[-1]
        for j, mask in enumerate(last):
            solved = head & mask
            for block_mask in blocks:
                b = solved & block_mask
                if not b or b & (b - 1):
                    choice[-1] = j
                    record(choice, solved)
                    break
        d = n - 2
        while d >= 0 and choice[d] == len(digits[d]) - 1:
            choice[d] = 0
            d -= 1
        if d < 0:
            return checked, failures
        choice[d] += 1
        for e in range(d, n - 1):
            prefix[e + 1] = prefix[e] & digits[e][choice[e]]


def check_playability(
    model: WModel,
    profiles: str | tuple[int, int] | Sequence[StrategyProfile] = "all",
    cap: int = DEFAULT_CAP,
) -> PlayabilityReport:
    """Count fixed points of the closed-loop equation over selected profiles.

    ``profiles`` is ``"all"``, a ``(n, seed)`` pair for random sampling
    (``1 <= n <= cap``), or an explicit list of profiles, each holding one
    strategy per agent in model agent order.  In ``"all"`` mode a sequential
    information structure short-circuits to playable (sequential implies
    playable) with zero profiles checked and the ordering recorded as
    justification.

    Otherwise ``"all"`` checks the profile count against ``cap``, then walks
    every joint profile in :func:`joint_strategies` order as an odometer over
    strategy digits, one per (agent, atom) in model agent order and table
    order.  Digit ``(a, atom)`` playing action ``j`` has a bitmask over flat
    configuration indices that clears the atom's points whose
    ``a``-coordinate is not ``j``; a profile's fixed points are the AND of
    its digits' masks, kept as a stack of prefix ANDs.  A Nature state is
    playable iff its block of that AND has exactly one bit.  Agents with one
    action contribute no digit, so the masks number the sum of the action
    counts of the remaining digits, which is at most the capped profile
    count.  Sampled and explicit profiles are scanned one by one.
    """
    if profiles == "all":
        order = check_sequential(model)
        if order is not None:
            return PlayabilityReport(True, "sequential", 0, (), order)
        checked, failures = _scan_all_profiles(model, cap)
        return PlayabilityReport(not failures, "all", checked, tuple(failures))
    if isinstance(profiles, tuple) and len(profiles) == 2 and isinstance(profiles[0], int):
        n, seed = profiles
        if n < 1:
            raise ValueError(f"sample size must be at least 1, got {n}")
        if n > cap:
            raise CapacityExceeded(n, cap, "sampled profiles")
        rng = random.Random(seed)
        selected = [_random_profile(model, rng) for _ in range(n)]
        mode = f"sample(n={n}, seed={seed})"
    else:
        selected = list(profiles)  # type: ignore[arg-type]
        for p in selected:
            if not isinstance(p, StrategyProfile):
                raise ValueError("explicit profiles must be StrategyProfile values")
            if [s.agent for s in p.strategies] != list(model.agents):
                raise ValueError(
                    "profile must contain exactly one strategy per agent, in model order"
                )
            for s in p.strategies:
                validate_strategy(model, s)
        mode = "explicit"

    failures = []
    nature = list(model.nature_points())
    point_at = model.configuration.point_at
    for profile in selected:
        for omega, sols in zip(nature, _fixed_points(model, profile)):
            if len(sols) != 1:
                failures.append(_failure(omega, profile, sols, point_at))
    return PlayabilityReport(not failures, mode, len(selected), tuple(failures))


def outcome_indices(
    model: WModel, profile: StrategyProfile, order: tuple[AgentId, ...] | None
) -> list[int]:
    """Flat configuration index of the unique outcome at each nature state,
    in nature enumeration order.

    Along a sequential ``order`` (from :func:`check_sequential`), the last
    agent in the order moves after everyone else, so the outcome is the entry
    of his own action in his :func:`deviation_table` row.  With
    ``order=None`` each block is scanned for fixed points;
    :class:`NotPlayable` is raised at the first nature state with zero or
    several.
    """
    if order is None:
        outcomes = []
        for omega, sols in zip(model.nature_points(), _fixed_points(model, profile)):
            if len(sols) != 1:
                raise NotPlayable(omega, len(sols))
            outcomes.append(sols[0])
        return outcomes
    last = order[-1]
    table = profile.strategies[model.agents.index(last)].table
    atoms, rows = deviation_table(model, last, profile, order)
    return [row[table[atom]] for atom, row in zip(atoms, rows)]


def deviation_table(
    model: WModel, agent: AgentId, profile: StrategyProfile, order: tuple[AgentId, ...]
) -> tuple[list[int], list[Sequence[int]]]:
    """The outcomes of every action of ``agent`` while the other agents play
    ``profile`` (his own entry is ignored), along a sequential ``order``.

    Returns, per nature state in nature order, the agent's information atom
    and the sequence whose entry ``a`` is the flat outcome index when he plays
    action ``a`` there.  Forward substitution starts at the state's block
    base (every action 0) and adds ``action * stride`` per agent along the
    order: up to the agent, then once per action for the agents after him.

    Every other agent with a single information atom plays one action at
    every state, so all of them are folded into one constant offset added to
    each base.  That is sound wherever they stand in the order: an agent's
    atom reads only Nature and the axes of agents earlier in the order, so
    setting the axes of later agents early changes no atom read.
    """
    columns = model.columns
    tables = dict(zip(model.agents, (s.table for s in profile.strategies)))
    offset = 0
    before: list[tuple[Sequence[int], tuple[int, ...], int]] = []
    after: list[tuple[Sequence[int], tuple[int, ...], int]] = []
    steps = before
    for a in order:
        atom_of, stride, _ = columns[a]
        if a == agent:
            own_atom_of, own_stride = atom_of, stride
            steps = after
        elif model.info[a].atom_count == 1:
            offset += tables[a][0] * stride
        else:
            steps.append((atom_of, tables[a], stride))
    count = model.action_factors[agent].size
    size = model.configuration.size
    atoms: list[int] = []
    outcomes: list[Sequence[int]] = []
    for base in range(0, size, size // model.nature_space.size):
        idx = base + offset
        for atom_of, table, stride in before:
            idx += table[atom_of[idx]] * stride
        atoms.append(own_atom_of[idx])
        row: Sequence[int] = range(idx, idx + count * own_stride, own_stride)
        if after:
            substituted = []
            for i in row:
                for atom_of, table, stride in after:
                    i += table[atom_of[i]] * stride
                substituted.append(i)
            row = substituted
        outcomes.append(row)
    return atoms, outcomes


def solution_map(
    model: WModel, profile: StrategyProfile, brute_force: bool = False
) -> dict[Point, Point]:
    """Map each nature state to the unique outcome under the profile: the
    point view of :func:`outcome_indices`.

    Uses forward substitution along a sequential agent ordering when one
    exists; falls back to fixed-point enumeration (always, with
    ``brute_force``) and raises :class:`NotPlayable` if some nature state has
    zero or several solutions.
    """
    order = None if brute_force else check_sequential(model)
    point_at = model.configuration.point_at
    outcomes = outcome_indices(model, profile, order)
    return {omega: point_at(i) for omega, i in zip(model.nature_points(), outcomes)}
