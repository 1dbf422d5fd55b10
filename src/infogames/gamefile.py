"""Loading and exporting game definition files.

A game file is JSON with a ``version`` tag and either a ``builtin`` section
(model name plus builder parameters) or a ``custom`` section (factors, agents
with information specs, players with objective tables, beliefs, and risk
specs).  Extended reals are written as the literals ``"inf"`` / ``"-inf"``.

Schema errors carry a path into the document (``custom.players[0].belief``).
"""

from __future__ import annotations

import dataclasses
import json
import math
import sys
from typing import Any

from .errors import ParseError, SchemaError
from .model import DEFAULT_CAP, AgentId, build_wmodel
from .models import (
    GridSpec,
    ThaiParams,
    TouParams,
    build_prisoners_dilemma,
    build_thai_slmf_mt,
    build_thai_slsf_mt,
    build_thai_slsf_st,
    build_tou_game,
)
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
from .spaces import FiniteFactor, Partition, cylinder_partition, make_product_space

SCHEMA_VERSION = 1


def _expect(cond: bool, path: str, message: str):
    if not cond:
        raise SchemaError(path, message)


def _get(doc: dict, key: str, path: str, kind=None, required: bool = True, default=None):
    if key not in doc:
        if required:
            raise SchemaError(f"{path}.{key}", "missing required field")
        return default
    value = doc[key]
    if value is None and not required:
        return default
    if kind is not None:
        kinds = kind if isinstance(kind, tuple) else (kind,)
        # JSON booleans are Python ints: accept one only where bool is expected.
        if not isinstance(value, kinds) or (isinstance(value, bool) and bool not in kinds):
            names = "/".join(k.__name__ for k in kinds)
            raise SchemaError(f"{path}.{key}", f"expected {names}, got {type(value).__name__}")
    return value


def parse_extended(v, path: str) -> float:
    """Numbers pass through; 'inf' and '-inf' literals become infinities."""
    if isinstance(v, bool):
        raise SchemaError(path, "expected a number or 'inf'/'-inf'")
    if isinstance(v, (int, float)):
        return _number(v, path)
    if v == "inf":
        return math.inf
    if v == "-inf":
        return -math.inf
    raise SchemaError(path, f"expected a number or 'inf'/'-inf', got {v!r}")


def render_extended(v: float):
    if v == math.inf:
        return "inf"
    if v == -math.inf:
        return "-inf"
    return v


def _number(v, path: str) -> float:
    """An int or float that is not a bool, as a float."""
    _expect(isinstance(v, (int, float)) and not isinstance(v, bool), path, "expected a number")
    try:
        return float(v)
    except OverflowError:
        raise SchemaError(path, "number too large for a float") from None


def _number_list(raw, path: str) -> tuple[float, ...]:
    _expect(isinstance(raw, list) and raw, path, "expected a non-empty list of numbers")
    return tuple(_number(v, f"{path}[{i}]") for i, v in enumerate(raw))


def _reject_unknown(raw: dict, known, path: str, what: str = "key"):
    """Reject a key of ``raw`` that is not in ``known``."""
    for key in raw:
        _expect(key in known, f"{path}.{key}", f"unknown {what}")


def _field_names(cls) -> set[str]:
    return {f.name for f in dataclasses.fields(cls)}


def _grid_spec(raw, path: str, pairs: bool = False) -> GridSpec:
    _expect(isinstance(raw, dict), path, "expected an object")
    _reject_unknown(raw, _field_names(GridSpec), path, "grid key")
    values_raw = _get(raw, "values", path, list)
    _expect(bool(values_raw), f"{path}.values", "grid must be non-empty")
    values: list = []
    for i, v in enumerate(values_raw):
        vp = f"{path}.values[{i}]"
        if pairs:
            _expect(
                isinstance(v, list) and len(v) == 2,
                vp,
                "expected a [linear, quadratic] coefficient pair",
            )
            values.append(tuple(_number(c, f"{vp}[{j}]") for j, c in enumerate(v)))
        else:
            values.append(_number(v, vp))
    masses = raw.get("masses")
    if masses is not None:
        masses = _number_list(masses, f"{path}.masses")
    true_index = _get(raw, "true_index", path, int, required=False, default=0)
    try:
        return GridSpec(tuple(values), masses, true_index)
    except ValueError as exc:
        raise SchemaError(path, str(exc)) from exc


def _load_builtin(section: dict, path: str, cap: int) -> WGame:
    name = _get(section, "model", path, str)
    params = _get(section, "params", path, dict, required=False, default={})
    p = f"{path}.params"
    try:
        if name == "prisoners_dilemma":
            _expect(not params, p, "prisoners_dilemma takes no parameters")
            return build_prisoners_dilemma()
        if name == "tou_pricing":
            _reject_unknown(params, _field_names(TouParams), p, "parameter")
            return build_tou_game(
                TouParams(
                    demand=_grid_spec(_get(params, "demand", p, dict), f"{p}.demand"),
                    production_cost=_grid_spec(
                        _get(params, "production_cost", p, dict), f"{p}.production_cost"
                    ),
                    unwillingness=_grid_spec(
                        _get(params, "unwillingness", p, dict), f"{p}.unwillingness"
                    ),
                    peak_prices=_number_list(_get(params, "peak_prices", p, list), f"{p}.peak_prices"),
                    offpeak_prices=_number_list(
                        _get(params, "offpeak_prices", p, list), f"{p}.offpeak_prices"
                    ),
                    shifts=_number_list(_get(params, "shifts", p, list), f"{p}.shifts"),
                )
            )
        if name in ("thai_slsf_st", "thai_slsf_mt", "thai_slmf_mt"):
            _reject_unknown(params, _field_names(ThaiParams), p, "parameter")
            followers = params.get("followers")
            _expect(
                "followers" not in params
                or isinstance(followers, list) and all(isinstance(f, str) for f in followers),
                f"{p}.followers",
                "expected a list of follower names",
            )
            exo_raw = params.get("exogenous")
            exogenous = None
            if exo_raw is not None:
                _expect(isinstance(exo_raw, list), f"{p}.exogenous", "expected a list")
                exogenous = tuple(
                    _grid_spec(g, f"{p}.exogenous[{i}]") for i, g in enumerate(exo_raw)
                )
            horizon = _get(params, "horizon", p, int, required=False)
            # A horizon counts stages, so it must fit a list length.
            _expect(horizon is None or horizon <= sys.maxsize, f"{p}.horizon", "horizon too large")
            fields = dict(
                baselines=_number_list(_get(params, "baselines", p, list), f"{p}.baselines"),
                prices=_number_list(_get(params, "prices", p, list), f"{p}.prices"),
                reward=_number(_get(params, "reward", p, (int, float)), f"{p}.reward"),
                targets=_number_list(_get(params, "targets", p, list), f"{p}.targets"),
                consumptions=_number_list(
                    _get(params, "consumptions", p, list), f"{p}.consumptions"
                ),
                horizon=horizon,
                followers=None if followers is None else tuple(followers),
                leader_coeffs=_grid_spec(
                    _get(params, "leader_coeffs", p, dict), f"{p}.leader_coeffs", pairs=True
                ),
                follower_coeffs=_grid_spec(
                    _get(params, "follower_coeffs", p, dict), f"{p}.follower_coeffs", pairs=True
                ),
                exogenous=exogenous,
                info_mode=_get(params, "info_mode", p, str, required=False),
                clamp_reward=_get(params, "clamp_reward", p, bool, required=False),
                aggregation=_get(params, "aggregation", p, str, required=False),
            )
            # An omitted (or null) optional key is not passed, so the
            # ThaiParams defaults are the only ones.
            thai = ThaiParams(**{k: v for k, v in fields.items() if v is not None})
            builder = {
                "thai_slsf_st": build_thai_slsf_st,
                "thai_slsf_mt": build_thai_slsf_mt,
                "thai_slmf_mt": build_thai_slmf_mt,
            }[name]
            return builder(thai, cap)
    except ValueError as exc:
        raise SchemaError(p, str(exc)) from exc
    raise SchemaError(f"{path}.model", f"unknown builtin model {name!r}")


def _load_custom(section: dict, path: str) -> WGame:
    _reject_unknown(section, ("factors", "agents", "players"), path)
    factors_raw = _get(section, "factors", path, list)
    factors: dict[str, FiniteFactor] = {}
    nature = []
    for i, raw in enumerate(factors_raw):
        fp = f"{path}.factors[{i}]"
        _expect(isinstance(raw, dict), fp, "expected an object")
        _reject_unknown(raw, ("id", "label", "kind", "elements"), fp)
        fid = _get(raw, "id", fp, str)
        label = _get(raw, "label", fp, str, required=False, default=fid)
        kind = _get(raw, "kind", fp, str)
        elements = _get(raw, "elements", fp, list)
        _expect(
            bool(elements) and all(isinstance(e, str) for e in elements),
            f"{fp}.elements",
            "expected a non-empty list of strings",
        )
        _expect(fid not in factors, f"{fp}.id", f"duplicate factor id {fid!r}")
        try:
            factor = FiniteFactor(fid, label, tuple(elements), kind)
        except ValueError as exc:
            raise SchemaError(fp, str(exc)) from exc
        factors[fid] = factor
        if kind != "action":
            nature.append(factor)
    _expect(bool(nature), f"{path}.factors", "at least one nature factor is required")

    agents_raw = _get(section, "agents", path, list)
    _expect(bool(agents_raw), f"{path}.agents", "at least one agent is required")
    agents = []
    action_factors = {}
    info_raw = {}
    assignment = {}
    for i, raw in enumerate(agents_raw):
        ap = f"{path}.agents[{i}]"
        _expect(isinstance(raw, dict), ap, "expected an object")
        _reject_unknown(raw, ("player", "stage", "action", "info"), ap)
        player = _get(raw, "player", ap, str)
        stage = _get(raw, "stage", ap, int, required=False, default=None)
        action_id = _get(raw, "action", ap, str)
        _expect(action_id in factors, f"{ap}.action", f"unknown factor {action_id!r}")
        agent = AgentId(player, stage)
        _expect(agent not in action_factors, ap, f"duplicate agent {agent}")
        agents.append(agent)
        action_factors[agent] = factors[action_id]
        assignment[agent] = player
        info_raw[agent] = (_get(raw, "info", ap, dict), ap)

    # The configuration space mirrors build_wmodel's layout: nature factors
    # in declaration order, then action factors in agent order.
    configuration = make_product_space(tuple(nature) + tuple(action_factors[a] for a in agents))

    info_specs = {}
    for agent, (raw, ap) in info_raw.items():
        ip = f"{ap}.info"
        _reject_unknown(raw, ("cylinder", "atoms"), ip)
        if "cylinder" in raw:
            visible = raw["cylinder"]
            _expect(
                isinstance(visible, list) and all(isinstance(v, str) for v in visible),
                f"{ip}.cylinder",
                "expected a list of factor ids",
            )
            for v in visible:
                _expect(v in factors, f"{ip}.cylinder", f"unknown factor {v!r}")
            info_specs[agent] = tuple(visible)
        elif "atoms" in raw:
            atoms = raw["atoms"]
            _expect(
                isinstance(atoms, list) and all(isinstance(a, int) and not isinstance(a, bool) for a in atoms),
                f"{ip}.atoms",
                "expected a list of atom ids (one per configuration point)",
            )
            _expect(
                len(atoms) == configuration.size,
                f"{ip}.atoms",
                f"expected {configuration.size} entries (row-major over the "
                f"configuration space), got {len(atoms)}",
            )
            info_specs[agent] = Partition.from_labels(configuration, atoms)
        else:
            raise SchemaError(ip, "information spec needs 'cylinder' or 'atoms'")

    model = build_wmodel(nature, agents, action_factors, info_specs)

    players_raw = _get(section, "players", path, list)
    _expect(bool(players_raw), f"{path}.players", "at least one player is required")
    player_ids = []
    data = {}
    leaders = []
    for i, raw in enumerate(players_raw):
        pp = f"{path}.players[{i}]"
        _expect(isinstance(raw, dict), pp, "expected an object")
        _reject_unknown(raw, ("id", "role", "objective", "belief", "risk"), pp)
        pid = _get(raw, "id", pp, str)
        _expect(pid not in player_ids, f"{pp}.id", f"duplicate player {pid!r}")
        player_ids.append(pid)
        role = _get(raw, "role", pp, str, required=False, default=None)
        if role == "leader":
            leaders.append(pid)
        elif role not in (None, "follower"):
            raise SchemaError(f"{pp}.role", f"role must be 'leader' or 'follower', got {role!r}")

        obj_raw = _get(raw, "objective", pp, dict)
        _reject_unknown(obj_raw, ("sense", "values"), f"{pp}.objective")
        sense_raw = _get(obj_raw, "sense", f"{pp}.objective", str)
        try:
            sense = Sense(sense_raw)
        except ValueError:
            raise SchemaError(f"{pp}.objective.sense", f"unknown sense {sense_raw!r}") from None
        values_raw = _get(obj_raw, "values", f"{pp}.objective", list)
        _expect(
            len(values_raw) == model.configuration.size,
            f"{pp}.objective.values",
            f"expected {model.configuration.size} entries (row-major over the "
            f"configuration space), got {len(values_raw)}",
        )
        values = tuple(
            parse_extended(v, f"{pp}.objective.values[{j}]") for j, v in enumerate(values_raw)
        )
        try:
            objective = Objective(pid, sense, values)
        except ValueError as exc:
            raise SchemaError(f"{pp}.objective", str(exc)) from exc

        belief = None
        belief_raw = _get(raw, "belief", pp, dict, required=False, default=None)
        if belief_raw is not None:
            bp = f"{pp}.belief"
            _reject_unknown(belief_raw, ("product", "joint"), bp)
            try:
                if "product" in belief_raw:
                    vectors = belief_raw["product"]
                    _expect(isinstance(vectors, list), f"{bp}.product", "expected a list of vectors")
                    belief = Belief.product(
                        model.nature_space,
                        [_number_list(v, f"{bp}.product[{j}]") for j, v in enumerate(vectors)],
                    )
                elif "joint" in belief_raw:
                    belief = Belief.joint_over(
                        model.nature_space, _number_list(belief_raw["joint"], f"{bp}.joint")
                    )
                else:
                    raise SchemaError(bp, "belief needs 'product' or 'joint'")
            except ValueError as exc:
                raise SchemaError(bp, str(exc)) from exc

        risk_raw = _get(raw, "risk", pp, dict, required=False, default={"kind": "expectation"})
        rp = f"{pp}.risk"
        _reject_unknown(risk_raw, ("kind", "alpha"), rp)
        kind = _get(risk_raw, "kind", rp, str)
        try:
            if kind == "expectation":
                _expect(belief is not None, rp, "expectation risk needs a belief")
                risk = RiskMeasure.expectation(belief)
            elif kind == "worst-case":
                risk = RiskMeasure.worst_case(belief)
            elif kind == "cvar":
                alpha = _number(_get(risk_raw, "alpha", rp, (int, float)), f"{rp}.alpha")
                _expect(belief is not None, rp, "cvar risk needs a belief")
                risk = RiskMeasure.cvar(alpha, belief)
            else:
                raise SchemaError(f"{rp}.kind", f"unknown risk kind {kind!r}")
        except ValueError as exc:
            raise SchemaError(rp, str(exc)) from exc
        data[pid] = PlayerData(objective, risk)

    partition = PlayerPartition(tuple(player_ids), assignment)
    try:
        return make_wgame(model, partition, data, leaders=tuple(leaders))
    except ValueError as exc:
        raise SchemaError(path, str(exc)) from exc


def load_game_document(doc: Any, path: str = "$", cap: int = DEFAULT_CAP) -> WGame:
    """Validate a parsed game document; ``cap`` bounds the strategy profiles
    of the ``thai_*`` builtin games, checked before their objectives are
    tabulated."""
    _expect(isinstance(doc, dict), path, "top level must be an object")
    version = _get(doc, "version", path, int)
    _expect(version == SCHEMA_VERSION, f"{path}.version", f"unsupported version {version}")
    has_builtin = "builtin" in doc
    has_custom = "custom" in doc
    _expect(
        has_builtin != has_custom,
        path,
        "exactly one of 'builtin' or 'custom' is required",
    )
    if has_builtin:
        return _load_builtin(_get(doc, "builtin", path, dict), f"{path}.builtin", cap)
    return _load_custom(_get(doc, "custom", path, dict), f"{path}.custom")


def load_game(path: str, cap: int = DEFAULT_CAP) -> WGame:
    """Parse and validate a game definition file (``cap`` as in
    :func:`load_game_document`)."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            doc = json.load(fh)
    except FileNotFoundError:
        raise ParseError(f"no such file: {path}") from None
    except json.JSONDecodeError as exc:
        raise ParseError(exc.msg, exc.lineno, exc.colno) from exc
    return load_game_document(doc, cap=cap)


def export_custom(game: WGame) -> dict:
    """Render a game in the custom schema (inverse of :func:`_load_custom`
    up to information-spec form).

    Each agent is written under the player the game assigns it to, with its
    own stage; two agents that would be written with the same player and
    stage raise ``ValueError``.  An agent's information is written as
    ``cylinder`` over the factors it observes, in configuration order, when
    it equals that cylinder, and as ``atoms`` otherwise."""
    model = game.model
    factors_doc = [
        {"id": f.id, "label": f.label, "kind": f.kind, "elements": list(f.elements)}
        for f in model.configuration.factors
    ]

    agents_doc = []
    written: dict = {}
    for a in model.agents:
        player = game.players.assignment[a]
        other = written.setdefault((player, a.stage), a)
        if other != a:
            raise ValueError(
                f"agents {other} and {a} would both be written as player {player!r}, "
                f"stage {a.stage}"
            )
        visible = [model.configuration.factors[i].id for i in model.observed[a]]
        cylinder = cylinder_partition(model.configuration, visible) == model.info[a]
        info = {"cylinder": visible} if cylinder else {"atoms": list(model.info[a].atom_of)}
        agents_doc.append(
            {
                "player": player,
                "stage": a.stage,
                "action": model.action_factors[a].id,
                "info": info,
            }
        )

    players_doc = []
    for p in game.players.players:
        d = game.data[p]
        role = None
        if game.leaders:
            role = "leader" if p in game.leaders else "follower"
        entry: dict = {"id": p, "role": role}
        entry["objective"] = {
            "sense": d.objective.sense.value,
            "values": [render_extended(v) for v in d.objective.values],
        }
        if d.risk.belief is not None:
            b = d.risk.belief
            if b.joint is not None:
                entry["belief"] = {"joint": list(b.joint)}
            else:
                entry["belief"] = {"product": [list(v) for v in b.factors]}
        risk_doc: dict = {"kind": d.risk.kind.value}
        if d.risk.alpha is not None:
            risk_doc["alpha"] = d.risk.alpha
        entry["risk"] = risk_doc
        players_doc.append(entry)

    return {
        "version": SCHEMA_VERSION,
        "custom": {"factors": factors_doc, "agents": agents_doc, "players": players_doc},
    }
