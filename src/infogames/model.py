"""The intrinsic game model: agents, Nature, information fields, strategies.

A model couples a configuration space (Nature factors followed by one action
factor per agent) with one information partition per agent.  Configurations
are flat point indices throughout; because the action axes come last, each
Nature state owns one contiguous block of indices.  An agent's information is
summed up by the configuration axes it observes (``WModel.observed``), which
construction records once: no agent may observe his own action axis.

Strategies map information atoms to action indices, so measurability holds by
construction.  Playability (the closed-loop equation ``u = strategy(nature, u)``
having exactly one solution) is checked either by fixed-point search or,
when an agent ordering compatible with the information structure exists, by
the sequential fast path.  That ordering depends on the information fields
alone, so a model finds it once (``WModel.sequential_order``) and every
caller reads it there; no function takes an order.

Fixed-point search treats a profile as one digit per strategy-table entry:
agents in model order, atoms in table order, one-action agents included, so a
profile's digits are its tables, concatenated.  Each digit's action has a
bitmask over flat configuration indices keeping the points consistent with it
(a one-action digit's only mask has every bit set), and a profile's fixed
points are the AND of the masks its digits pick.  Every search reads the one
mask table a model builds on first use and keeps (digits x actions masks of
configuration-size bits).  Checking every joint profile runs an odometer over
the digits with two actions or more (last fastest), in
:func:`joint_strategies` order, taking each AND from a stack of prefix ANDs.
A sample of ``n`` profiles from seed ``s`` draws each digit with one
``random.Random(s).randrange(action count)`` call.  Sampled and explicit
profiles share one loop that ANDs the masks each digit choice picks; only a
failing choice becomes a profile.  The failures of one check share equal
strategies and equal solution tuples.
"""

from __future__ import annotations

import functools
import itertools
import math
import operator
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

    @functools.cached_property
    def _masks(self) -> tuple[list[list[int]], list[int], list[tuple[int, Point]]]:
        """The digit masks of :func:`_digit_masks`, the block mask of each
        Nature state in nature order, and those blocks paired with the
        states.  Computed on first use and kept, like :attr:`columns`."""
        size = self.configuration.size
        block = size // self.nature_space.size
        blocks = [((1 << block) - 1) << base for base in range(0, size, block)]
        return _digit_masks(self), blocks, list(zip(blocks, self.nature_points()))

    @functools.cached_property
    def sequential_order(self) -> tuple[AgentId, ...] | None:
        """:func:`check_sequential` of the model, computed on first use and
        kept like :attr:`columns`: every solver reads this one order."""
        return check_sequential(self)

    @functools.cached_property
    def _plans(self) -> dict[tuple[AgentId, ...], tuple] | None:
        """The deviation plans (:func:`_plan`) built so far, one per group of
        deviating agents, or ``None`` without a sequential order.  Kept, like
        :attr:`columns`, so every caller reads the same plans."""
        return None if self.sequential_order is None else {}


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
    witness pair when an agent's information depends on his own action, and
    ``ValueError`` when two agents print alike, such as player ``"p.1"`` and
    stage 1 of player ``"p"``.
    """
    nature_factors = tuple(nature_factors)
    agents = tuple(agents)
    if not agents:
        raise ValueError("a model needs at least one agent")
    if len(set(agents)) != len(agents):
        raise ValueError("duplicate (player, stage) agent id")
    # Reports key agents by name, so two that print alike would merge.
    printed: dict[str, AgentId] = {}
    for a in agents:
        if printed.setdefault(str(a), a) != a:
            raise ValueError(f"agents {printed[str(a)]!r} and {a!r} both print as {str(a)!r}")
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


def _require_profile(model: WModel, profile: StrategyProfile):
    """Raise ``ValueError`` unless ``profile`` holds one valid strategy per
    agent, in model agent order."""
    if not isinstance(profile, StrategyProfile):
        raise ValueError("profiles must be StrategyProfile values")
    if [s.agent for s in profile.strategies] != list(model.agents):
        raise ValueError("profile must contain exactly one strategy per agent, in model order")
    for s in profile.strategies:
        validate_strategy(model, s)


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


def _bits(flags: Iterable[bool]) -> int:
    """The integer whose bit ``i`` is set iff the ``i``-th flag is true."""
    return int("".join("1" if f else "0" for f in flags)[::-1], 2)


def _digit_masks(model: WModel) -> list[list[int]]:
    """Consistency bitmasks over flat configuration indices, one list per
    strategy-table entry: agents in model order, atoms in table order within
    each, one-action agents included.  Entry ``j`` of digit ``(a, atom)`` has
    every bit set except those of the atom's points whose ``a``-coordinate is
    not ``j``, so a one-action digit's only mask has every bit set."""
    size = model.configuration.size
    full = (1 << size) - 1
    digits = []
    for a, (atom_of, stride, count) in model.columns.items():
        # Action j's points are runs of ``stride`` indices at j * stride,
        # every ``stride * count``: one run times the repunit of that period.
        repunit = full // ((1 << stride * count) - 1)
        on_action = [(((1 << stride) - 1) << j * stride) * repunit for j in range(count)]
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


def _digits(profile: StrategyProfile) -> list[int]:
    """The digit choice of ``profile``: its strategy tables, concatenated."""
    return [j for s in profile.strategies for j in s.table]


def _solved(model: WModel, choice: Iterable[int]) -> int:
    """The bitmask of the flat indices solving the closed-loop equation when
    each digit takes its action in ``choice``: the AND of the masks picked.
    Every agent has at least one atom, so there is at least one digit."""
    return functools.reduce(operator.and_, map(operator.getitem, model._masks[0], choice))


def _failures(
    model: WModel, profile: StrategyProfile, solved: int, decoded: dict[int, tuple[Point, ...]]
) -> list[PlayabilityFailure]:
    """The failures of ``profile``, whose flat solutions are the bits of
    ``solved``, at the Nature states whose block has not exactly one bit.
    ``decoded`` maps each block of bits decoded so far to its solutions, so
    a check decodes each distinct one once."""
    point_at = model.configuration.point_at
    failures = []
    for block_mask, omega in model._masks[2]:
        b = solved & block_mask
        if b and not b & (b - 1):
            continue
        solutions = decoded.get(b)
        if solutions is None:
            points = []
            rest = b
            while rest:
                bit = rest & -rest
                points.append(point_at(bit.bit_length() - 1))
                rest ^= bit
            solutions = decoded[b] = tuple(points)
        failures.append(PlayabilityFailure(omega, profile, len(solutions), solutions))
    return failures


def _recorder(model: WModel):
    """A ``record(choice, solved)`` appending to the returned list the
    failures of the profile whose digit choice is ``choice`` and whose flat
    solutions are the bits of ``solved``; each agent's strategy is the slice
    of ``choice`` holding its table.  Equal strategies and solution tuples
    are built once per recorder, so the failures of one check share them."""
    failures: list[PlayabilityFailure] = []
    made: dict[tuple[AgentId, tuple[int, ...]], Strategy] = {}
    decoded: dict[int, tuple[Point, ...]] = {}
    parts = []
    stop = 0
    for a in model.agents:
        start, stop = stop, stop + model.info[a].atom_count
        parts.append((a, slice(start, stop)))

    def record(choice: list[int], solved: int):
        strategies = []
        for a, part in parts:
            key = (a, tuple(choice[part]))
            s = made.get(key)
            if s is None:
                s = made[key] = Strategy(*key)
            strategies.append(s)
        failures.extend(_failures(model, StrategyProfile(tuple(strategies)), solved, decoded))

    return record, failures


def _check_choices(model: WModel, choices: Iterable[list[int]]) -> list[PlayabilityFailure]:
    """The playability failures of the profiles with the given digit
    choices, in order: a choice is recorded when some Nature block of the
    AND of its masks has not exactly one bit."""
    blocks = model._masks[1]
    record, failures = _recorder(model)
    for choice in choices:
        solved = _solved(model, choice)
        for block_mask in blocks:
            b = solved & block_mask
            if not b or b & (b - 1):
                record(choice, solved)
                break
    return failures


def _scan_all_profiles(model: WModel, cap: int) -> tuple[int, list[PlayabilityFailure]]:
    """The joint profile count and the playability failures of every joint
    profile, in :func:`joint_strategies` order (see :func:`check_playability`).
    """
    checked = count_profiles(model, model.agents, cap, "strategy profiles")
    digits, blocks, _ = model._masks
    record, failures = _recorder(model)

    # Odometer over the digits with two actions or more, last fastest.  The
    # others stay at 0, whose mask has every bit set, so no AND reads them.
    # Without a sequential order some agent observes another's action axis,
    # which has two actions or more, so at least one digit moves.  prefix[k]
    # is the AND of the masks chosen for the first k moving digits, so each
    # profile costs one AND.
    *moving, last = [d for d, masks in enumerate(digits) if len(masks) > 1]
    choice = [0] * len(digits)
    prefix = [(1 << model.configuration.size) - 1]
    for d in moving:
        prefix.append(prefix[-1] & digits[d][0])
    while True:
        head = prefix[-1]
        for j, mask in enumerate(digits[last]):
            solved = head & mask
            for block_mask in blocks:
                b = solved & block_mask
                if not b or b & (b - 1):
                    choice[last] = j
                    record(choice, solved)
                    break
        k = len(moving) - 1
        while k >= 0 and choice[moving[k]] == len(digits[moving[k]]) - 1:
            choice[moving[k]] = 0
            k -= 1
        if k < 0:
            return checked, failures
        choice[moving[k]] += 1
        for e in range(k, len(moving)):
            d = moving[e]
            prefix[e + 1] = prefix[e] & digits[d][choice[d]]


def check_playability(
    model: WModel,
    profiles: str | tuple[int, int] | Sequence[StrategyProfile] = "all",
    cap: int = DEFAULT_CAP,
) -> PlayabilityReport:
    """Count fixed points of the closed-loop equation over selected profiles.

    ``profiles`` is ``"all"``, a ``(n, seed)`` pair for random sampling
    (``1 <= n <= cap``, ``seed >= 0``: ``random.Random`` seeds by absolute
    value; both are ``int``, neither a bool), or an explicit list of
    profiles, each holding one strategy per agent in model agent order.  In
    ``"all"`` mode a sequential information structure short-circuits to
    playable (sequential implies playable) with zero profiles checked and
    the model's ordering recorded as justification.

    Otherwise ``"all"`` checks the profile count against ``cap``, then walks
    every joint profile in :func:`joint_strategies` order as an odometer over
    the digits with two actions or more, keeping a stack of prefix ANDs of
    their masks.  Sampling draws each digit with one ``randrange``; sampled
    and explicit profiles share one loop that ANDs the masks their digits
    pick and builds a profile only for a failing choice.  Every mode reads
    the model's one mask table (see the module docstring): one digit per
    strategy-table entry, agents in model order and atoms in table order,
    one-action agents included, with a mask of configuration-size bits per
    digit and action, built on first use and kept while the model lives.  A
    Nature state is playable iff its block of the AND has exactly one bit.
    Within one report, equal strategies and equal solution tuples of the
    failures are one object each.
    """
    if profiles == "all":
        if model.sequential_order is not None:
            return PlayabilityReport(True, "sequential", 0, (), model.sequential_order)
        checked, failures = _scan_all_profiles(model, cap)
        return PlayabilityReport(not failures, "all", checked, tuple(failures))
    if isinstance(profiles, tuple) and len(profiles) == 2 and isinstance(profiles[0], int):
        n, seed = profiles
        if isinstance(n, bool) or isinstance(seed, bool) or not isinstance(seed, int):
            raise ValueError(f"sample size and seed must be integers, got {profiles}")
        if n < 1:
            raise ValueError(f"sample size must be at least 1, got {n}")
        if seed < 0:
            raise ValueError(f"sample seed must be at least 0, got {seed}")
        if n > cap:
            raise CapacityExceeded(n, cap, "sampled profiles")
        draw = random.Random(seed).randrange
        counts = [len(masks) for masks in model._masks[0]]
        failures = _check_choices(model, ([draw(k) for k in counts] for _ in range(n)))
        return PlayabilityReport(not failures, f"sample(n={n}, seed={seed})", n, tuple(failures))
    selected = list(profiles)  # type: ignore[arg-type]
    for p in selected:
        _require_profile(model, p)
    failures = _check_choices(model, map(_digits, selected))
    return PlayabilityReport(not failures, "explicit", len(selected), tuple(failures))


def outcome_indices(model: WModel, profile: StrategyProfile) -> list[int]:
    """Flat configuration index of the unique outcome at each nature state,
    in nature enumeration order.

    Along the model's sequential order (:attr:`WModel.sequential_order`),
    the last agent in the order moves after everyone else, so the outcome is
    the entry of his own action in his :func:`deviation_table` row.  Without
    one, the outcomes are :func:`fixed_point_outcomes`.
    """
    if model.sequential_order is None:
        return fixed_point_outcomes(model, profile)
    last = model.sequential_order[-1]
    table = profile.strategies[model.agents.index(last)].table
    atoms, rows = deviation_table(model, (last,), profile.strategies)
    return [row[table[atom]] for atom, row in zip(atoms, rows)]


def fixed_point_outcomes(model: WModel, profile: StrategyProfile) -> list[int]:
    """The outcomes of :func:`outcome_indices` by fixed-point search, on any
    model: the bits of :func:`_solved`, one per Nature block.  Raises
    :class:`NotPlayable` at the first nature state with zero or several."""
    solved = _solved(model, _digits(profile))
    failures = _failures(model, profile, solved, {})
    if failures:
        raise NotPlayable(failures[0].nature_point, failures[0].solution_count)
    return [(solved & block_mask).bit_length() - 1 for block_mask in model._masks[1]]


def dependents(model: WModel, agents: tuple[AgentId, ...]) -> set[AgentId]:
    """The agents whose atom may depend on the action of one of ``agents``:
    along the model's sequential order, those observing the axis of one of
    them or of an earlier such agent."""
    axes = {model.agent_axis(a) for a in agents}
    found = set()
    for a in model.sequential_order:
        if axes.intersection(model.observed[a]):
            found.add(a)
            axes.add(model.agent_axis(a))
    return found


def _plan(model: WModel, agents: tuple[AgentId, ...]) -> tuple:
    """What :func:`deviation_table` needs of the model alone when ``agents``
    deviate: the profile slot and stride of every other one-atom agent; the
    slot, atom table and stride of every other agent that is not one of
    their :func:`dependents`, in the sequential order; per deviating agent in
    the order, his atom table (``None`` when he has one atom), digit offset,
    stride and action span (count x stride), and the slot, atom table and stride of the dependents after him
    and before the next one; when there are no such dependents, the offset
    of each branch from its state's base before each deviating agent and at
    the end (a ``range`` when evenly spaced); the size of the configuration
    space and of each Nature state's block."""
    slots = {a: i for i, a in enumerate(model.agents)}
    offsets, offset = {}, 0
    for a in agents:
        offsets[a] = offset
        offset += model.info[a].atom_count
    dependent = dependents(model, agents)
    folded, first, levels = [], [], []
    for a in model.sequential_order:
        atom_of, stride, count = model.columns[a]
        if a in offsets:
            single = model.info[a].atom_count == 1
            levels.append((None if single else atom_of, offsets[a], stride, count * stride, []))
        elif model.info[a].atom_count == 1:
            folded.append((slots[a], stride))
        elif a in dependent:
            levels[-1][-1].append((slots[a], atom_of, stride))
        else:
            first.append((slots[a], atom_of, stride))
    prefixes: list | None = None
    if not any(level[-1] for level in levels):
        prefixes = [range(1)]
        for _, _, stride, span, _ in levels:
            ends = [p + k for p in prefixes[-1] for k in range(0, span, stride)]
            step = ends[1] if len(ends) > 1 else 1
            even = range(0, len(ends) * step, step)
            prefixes.append(even if ends == list(even) else tuple(ends))
    size = model.configuration.size
    levels = [(*level[:-1], tuple(level[-1])) for level in levels]
    return tuple(folded), tuple(first), tuple(levels), prefixes, size, size // model.nature_space.size


def _substitute(indices: Iterable[int], steps: Sequence[tuple]) -> list[int]:
    """Each of ``indices`` with the action of each of ``steps`` (atom table,
    strategy table, stride), in order, added at the atom it reads."""
    out = []
    for i in indices:
        for atom_of, table, stride in steps:
            i += table[atom_of[i]] * stride
        out.append(i)
    return out


def _shifted(bases: Iterable[int], offsets: Sequence[int]) -> list[Sequence[int]]:
    """Per base, the base plus each of ``offsets``."""
    if isinstance(offsets, range):
        return [range(b + offsets.start, b + offsets.stop, offsets.step) for b in bases]
    return [[b + o for o in offsets] for b in bases]


def deviation_table(
    model: WModel, agents: tuple[AgentId, ...], strategies: Sequence[Strategy | None]
) -> tuple[list, list[Sequence[int]]] | tuple[None, None]:
    """The outcomes of every joint action of ``agents`` (in model order)
    while the other agents play ``strategies``, one per agent in model agent
    order (the entries of ``agents`` are ignored and may be ``None``), along
    the model's sequential order; ``(None, None)`` when the model has none.

    Forward substitution starts at each Nature state's block base (every
    action 0) and adds ``action * stride`` per agent along the order,
    branching over each action of each of ``agents``.  A branch is numbered
    by their actions so far, the earliest in the order most significant.
    Returns, per Nature state in nature order, what they read and the flat
    outcome index of each branch.  A single agent reads his atom.  Several
    read *digits*: an agent's atom plus the offset of his table in the
    concatenation of their tables, in model order; at a state, per agent in
    the order, the tuple of the digits he reads on each branch so far.

    An agent's atom reads only Nature and the axes of agents earlier in the
    order, so setting the axes of later agents early changes no atom read.
    So every other agent that is not one of their :func:`dependents` plays
    one action at a state on every branch, and is substituted before the
    branching; those with a single information atom play one action at
    every state, and all of them are folded into one constant offset added
    to each base.  Without dependents, each branch then adds a constant
    offset to its state's base.

    What depends only on the model and ``agents`` is a plan (:func:`_plan`),
    built on the first call and kept in ``model._plans``, so each call reads
    only the given strategies.
    """
    plans = model._plans
    if plans is None:
        return None, None
    plan = plans.get(agents)
    if plan is None:
        plan = plans[agents] = _plan(model, agents)
    folded, first, levels, prefixes, size, block = plan
    offset = 0
    for slot, stride in folded:
        offset += strategies[slot].table[0] * stride
    pre = [(atom_of, strategies[slot].table, stride) for slot, atom_of, stride in first]
    # Each state's base: its block start, with every agent before the
    # branching substituted.
    bases: Sequence[int] = range(offset, offset + size, block)
    if pre:
        bases = _substitute(bases, pre)
    # Per agent, the branches of each state before him, ``n`` per state, and
    # then those at the end; not listed before an agent with one atom, who
    # reads it on every branch, nor before a single agent, read at the base.
    several = len(levels) > 1
    if prefixes is not None:
        wanted = [several and atom_of is not None for atom_of, *_ in levels]
        positions = [(len(p), _shifted(bases, p) if w else None) for p, w in zip(prefixes, [*wanted, True])]
    else:
        positions, flat, n = [], bases, 1
        for atom_of, _, stride, span, post in levels:
            at = [flat[k:k + n] for k in range(0, len(flat), n)] if several and atom_of is not None else None
            positions.append((n, at))
            flat = [i + k for i in flat for k in range(0, span, stride)]
            n *= span // stride
            if post:
                flat = _substitute(flat, [(a, strategies[slot].table, s) for slot, a, s in post])
        positions.append((n, [flat[k:k + n] for k in range(0, len(flat), n)]))
    rows = positions[-1][1]
    if not several:
        atom_of = levels[0][0]
        return [0] * len(rows) if atom_of is None else [atom_of[b] for b in bases], rows
    reads = [
        [(digit,) * n] * len(rows) if at is None else [tuple([digit + atom_of[i] for i in b]) for b in at]
        for (atom_of, digit, *_), (n, at) in zip(levels, positions)
    ]
    return list(zip(*reads)), rows


def solution_map(model: WModel, profile: StrategyProfile) -> dict[Point, Point]:
    """Map each nature state to the unique outcome under the profile: the
    point view of :func:`outcome_indices`.

    The profile must hold one valid strategy per agent in model order
    (``ValueError`` otherwise).  Uses forward substitution along the
    model's sequential order when it has one; falls back to fixed-point
    search and raises :class:`NotPlayable` if some nature state has zero or
    several solutions.
    """
    _require_profile(model, profile)
    point_at = model.configuration.point_at
    outcomes = outcome_indices(model, profile)
    return {omega: point_at(i) for omega, i in zip(model.nature_points(), outcomes)}
