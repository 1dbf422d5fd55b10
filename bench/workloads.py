"""Seeded game instances and CLI operations for the benchmark workloads.

Each workload has a fixed list of instance shapes (grid sizes, Nature size,
action counts), so every run sees the same mix of small and large games and
the per-op percentiles stay comparable between seeds.  Each shape has
``VARIANTS`` numeric variants, generated from the workload, shape and variant
number alone; together they form the workload's instance pool, for which
``refs/<workload>.json`` stores reference digests.  A run seed picks a fixed
number of variants per shape and the order of the ops, so any seed draws its
inputs from the recorded pool.

The per-run counts place the op-time median inside a group of similar
mid-sized ops and the 90th percentile inside the group of the largest ops,
not on the boundary between two groups, where a small change in either group
would move the percentile by a whole group.

This module only writes game documents; it never imports the program.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

VARIANTS = 8


@dataclass(frozen=True)
class Op:
    """One CLI call: ``infogames <args> --game <instance file> --out <path>``."""

    key: str  # "<instance id>/<label>", the reference key
    instance: str
    args: tuple[str, ...]


@dataclass(frozen=True)
class Instance:
    id: str
    doc: dict
    ops: tuple[Op, ...]


def _ops(instance_id: str, arg_lists) -> tuple[Op, ...]:
    return tuple(Op(f"{instance_id}/{' '.join(a)}", instance_id, tuple(a)) for a in arg_lists)


def _masses(rng: random.Random, n: int) -> list[float]:
    raw = [rng.randint(1, 9) for _ in range(n)]
    total = sum(raw)
    return [r / total for r in raw]


def _grid(rng: random.Random, lo: float, hi: float, n: int, digits: int = 2) -> list[float]:
    values: set[float] = set()
    while len(values) < n:
        values.add(round(rng.uniform(lo, hi), digits))
    return sorted(values)


def _stackelberg_mode(rng: random.Random) -> str:
    kind = rng.choice(("optimistic", "pessimistic", "theta"))
    if kind == "theta":
        return f"theta={rng.randint(1, 19) * 0.05:.2f}"
    return kind


# --- tou-sweep ---------------------------------------------------------------
# (demand, cost, unwillingness, price pairs, shifts).  The leader has
# pairs ** cost strategies, the follower shifts ** (demand * unwillingness *
# pairs); the first shape is the 9 x 729 re-anchor scale.
TOU_SHAPES = (
    (2, 2, 1, 3, 3),
    (2, 1, 1, 3, 3),
    (3, 1, 1, 2, 3),
    (1, 2, 1, 3, 3),
    (2, 2, 1, 2, 3),
    (2, 3, 1, 2, 2),
)
TOU_PER_RUN = (3, 2, 2, 1, 1, 1)


def _tou_instance(shape_no: int, variant: int) -> Instance:
    d, c, w, pairs, shifts = TOU_SHAPES[shape_no]
    rng = random.Random(f"tou-sweep/{shape_no}/{variant}")
    n_off = 1 if pairs == 3 else rng.choice((1, 2))
    n_peak = pairs // n_off

    def grid(values):
        return {
            "values": values,
            "masses": _masses(rng, len(values)),
            "true_index": rng.randrange(len(values)),
        }

    params = {
        "demand": grid(_grid(rng, 50, 150, d, 0)),
        "production_cost": grid(_grid(rng, 0.03, 0.09, c)),
        "unwillingness": grid(_grid(rng, 0.05, 0.3, w)),
        "peak_prices": _grid(rng, 0.12, 0.4, n_peak),
        "offpeak_prices": _grid(rng, 0.05, 0.11, n_off),
        "shifts": sorted(rng.sample([0, 0.25, 0.5, 0.75, 1], shifts)),
    }
    iid = f"s{shape_no}v{variant}"
    doc = {"version": 1, "builtin": {"model": "tou_pricing", "params": params}}
    arg_lists = [
        ["nash-stackelberg", "--mode", "optimistic"],
        ["nash-stackelberg", "--mode", "pessimistic"],
        ["nash-stackelberg", "--mode", f"theta={rng.randint(1, 19) * 0.05:.2f}"],
        ["stackelberg", "--mode", _stackelberg_mode(rng)],
    ]
    return Instance(iid, doc, _ops(iid, arg_lists))


# --- thai-consumers ----------------------------------------------------------
# (info mode, targets, consumptions, exogenous values, leader types,
# consumer types), always 2 consumers over 2 stages.  Current-stage info
# multiplies the follower strategy count by the target grid, so those shapes
# stay at 2 x 2 grids to keep under the profile cap of build_thai_slmf_mt.
THAI_SHAPES = (
    ("open-loop", 3, 3, 2, 2, 1),
    ("open-loop", 3, 3, 1, 2, 1),
    ("open-loop", 2, 2, 2, 2, 2),
    ("open-loop", 3, 2, 1, 2, 2),
    ("open-loop", 2, 3, 2, 1, 1),
    ("current-stage", 2, 2, 1, 1, 1),
    ("current-stage", 2, 2, 2, 1, 1),
)
THAI_PER_RUN = (3, 2, 2, 2, 2, 1, 1)


def _thai_instance(shape_no: int, variant: int) -> Instance:
    info, n_t, n_c, n_exo, n_lt, n_ft = THAI_SHAPES[shape_no]
    rng = random.Random(f"thai-consumers/{shape_no}/{variant}")
    baseline = rng.randint(9, 12)

    def coeffs(n, a1, a2):
        values = [[round(rng.uniform(*a1), 2), round(rng.uniform(*a2), 3)] for _ in range(n)]
        return {"values": values, "masses": _masses(rng, n), "true_index": rng.randrange(n)}

    params = {
        "baselines": [baseline],
        "prices": [round(rng.uniform(0.8, 1.5), 2)],
        "reward": round(rng.uniform(0.3, 0.9), 2),
        "targets": sorted(rng.sample(range(0, 6), n_t)),
        "consumptions": sorted(rng.sample(range(baseline - 5, baseline + 1), n_c)),
        "horizon": 2,
        "followers": ["c1", "c2"],
        "leader_coeffs": coeffs(n_lt, (0.2, 0.6), (0.0, 0.02)),
        "follower_coeffs": coeffs(n_ft, (1.2, 2.5), (0.02, 0.12)),
        "exogenous": [
            {"values": _grid(rng, 0.8, 1.3, n_exo), "masses": _masses(rng, n_exo)}
        ],
        "info_mode": info,
    }
    iid = f"s{shape_no}v{variant}"
    doc = {"version": 1, "builtin": {"model": "thai_slmf_mt", "params": params}}
    arg_lists = [
        ["validate"],
        ["nash"],
        ["nash-stackelberg", "--mode", _stackelberg_mode(rng)],
    ]
    return Instance(iid, doc, _ops(iid, arg_lists))


# --- nonseq-playability ------------------------------------------------------
# (action counts around the cycle, Nature size, which agents also see
# Nature).  Agent i observes agent i+1's action, so no agent can move first.
NONSEQ_SHAPES = (
    ((2, 2, 2), 2, (1, 1, 1)),
    ((2, 2, 2), 3, (1, 0, 0)),
    ((3, 3, 2), 1, (0, 0, 0)),
    ((2, 3, 2), 2, (0, 0, 1)),
    ((3, 2, 2), 1, (0, 0, 0)),
    ((2, 2, 2), 1, (0, 0, 0)),
)
NONSEQ_PER_RUN = (4, 4, 1, 4, 1, 1)
# Profiles drawn by the extra sample=N,seed=S op, per shape (0: no such op).
NONSEQ_SAMPLE = (600, 0, 300, 0, 0, 0)


def _nonseq_instance(shape_no: int, variant: int) -> Instance:
    sizes, n_nature, sees_nature = NONSEQ_SHAPES[shape_no]
    rng = random.Random(f"nonseq-playability/{shape_no}/{variant}")
    names = ["a", "b", "c"]
    # The structure is fixed per shape: reordering the agents changes how
    # early the fixed-point scan rejects an action tuple, so the op cost would
    # depend on the variant.  Variants differ in objective tables, beliefs,
    # risk kinds and the sampled profiles.
    order = range(3)
    factors = [
        {"id": "w", "label": "state", "kind": "nature-exogenous",
         "elements": [f"w{k}" for k in range(n_nature)]}
    ]
    agents = []
    for i in order:
        factors.append(
            {"id": f"u_{names[i]}", "kind": "action",
             "elements": [f"{names[i]}{k}" for k in range(sizes[i])]}
        )
        visible = [f"u_{names[(i + 1) % 3]}"] + (["w"] if sees_nature[i] else [])
        agents.append({"player": names[i], "action": f"u_{names[i]}", "info": {"cylinder": visible}})
    n_points = n_nature
    for k in sizes:
        n_points *= k
    players = []
    for i in order:
        risk = rng.choice(({"kind": "expectation"}, {"kind": "worst-case"}))
        players.append(
            {
                "id": names[i],
                "objective": {"sense": rng.choice(("cost", "payoff")),
                              "values": [rng.randint(0, 9) for _ in range(n_points)]},
                "belief": {"product": [_masses(rng, n_nature)]},
                "risk": risk,
            }
        )
    iid = f"s{shape_no}v{variant}"
    doc = {"version": 1, "custom": {"factors": factors, "agents": agents, "players": players}}
    arg_lists = [["playability", "--mode", "all"]]
    if NONSEQ_SAMPLE[shape_no]:
        n = NONSEQ_SAMPLE[shape_no]
        arg_lists.append(["playability", "--mode", f"sample={n},seed={rng.randint(0, 999)}"])
    return Instance(iid, doc, _ops(iid, arg_lists))


# Workload name -> (instances per run of each shape, instance maker).
WORKLOADS = {
    "tou-sweep": (TOU_PER_RUN, _tou_instance),
    "thai-consumers": (THAI_PER_RUN, _thai_instance),
    "nonseq-playability": (NONSEQ_PER_RUN, _nonseq_instance),
}


def pool(workload: str) -> list[Instance]:
    """Every instance the workload can draw, in a fixed order."""
    per_run, make = WORKLOADS[workload]
    return [make(s, v) for s, n in enumerate(per_run) if n for v in range(VARIANTS)]


def select(workload: str, seed: int) -> tuple[list[Instance], list[Op]]:
    """The run's instances and its op order."""
    per_run, make = WORKLOADS[workload]
    rng = random.Random(seed)
    instances = [
        make(s, v) for s, n in enumerate(per_run) for v in sorted(rng.sample(range(VARIANTS), n))
    ]
    ops = [op for inst in instances for op in inst.ops]
    rng.shuffle(ops)
    return instances, ops
