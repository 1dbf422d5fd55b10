"""Command-line front end.

Commands: validate, strategies, playability, normal-form, nash, stackelberg,
nash-stackelberg, export.  Every run emits a single structured report (JSON)
or its derived text rendering; the two agree on all numbers.  Reports are
byte-stable for identical inputs, flags, and seeds: extended-real values are
rendered through one canonical formatter and the timing section counts work
units rather than wall-clock time.

Exit codes: 0 success, 2 validation failure, 3 capacity exceeded, 4 a file
could not be read or written.

A JSON report (and the ``export`` document) is exactly ``json.dumps(report,
indent=2)`` plus a newline, written by :func:`_dumps`.  ``json.dumps`` runs
its pure-Python encoder whenever ``indent`` is set, and on large failure or
equilibrium lists that cost more than solving the game.  ``_dumps`` walks
dicts and lists in Python and hands each flat container, one whose items are
all str, int, float, bool or None (strategy tables, witness points, label
lists), to the C encoder in one call, with the item separator carrying the
line break and indentation of its depth.

Tied equilibria repeat most of what they show, so a report labels each
distinct strategy once (:func:`~infogames.normal_form.strategy_labeller`),
calls :func:`~infogames.normal_form.fmt_value` once per distinct value (zeros
excepted, since ``0.0 == -0.0`` but they render as "0" and "-0"), and
records whose values render alike share one ``values`` dict.  Walking
thousands of records or playability failures costs more than finding them,
so every :func:`run` composes each record's and each failure's text where
its dict is built, with the separators of :func:`_level` and the writer's
escaping, and the ``equilibria`` and ``failures`` lists
(:class:`_EncodedList`) carry the joined text, which :func:`_encode` writes
as is.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys
from collections.abc import Callable
from json.encoder import c_make_encoder, encode_basestring_ascii

from .equilibria import (
    OPTIMISTIC,
    PESSIMISTIC,
    StackelbergMode,
    leader_risk_mode,
    nash_equilibria,
    nash_stackelberg,
    stackelberg_strategies,
    theta_mode,
)
from .errors import CapacityExceeded, GameError, render_count
from .gamefile import export_custom, load_game
from .model import DEFAULT_CAP, check_playability, count_profiles, count_strategies
from .normal_form import (
    Evaluator,
    count_player_strategies,
    fmt_value,
    matrix_to_csv,
    normal_form_matrix,
    strategy_labeller,
)
from .preferences import WGame

EXIT_OK = 0
EXIT_VALIDATION = 2
EXIT_CAPACITY = 3
EXIT_IO = 4


def _parse_playability_mode(raw: str):
    if raw == "all":
        return "all"
    if raw.startswith("sample="):
        body = raw[len("sample="):]
        try:
            pairs = [p.split("=", 1) for p in ("n=" + body).split(",")]
            parts = dict(pairs)
            keys = [k for k, _ in pairs]
            unknown = [k for k in parts if k not in ("n", "seed")]
            repeated = [k for i, k in enumerate(keys) if k in keys[:i]]
            for problem, found in (("unknown", unknown), ("repeated", repeated)):
                if found:
                    raise argparse.ArgumentTypeError(
                        f"bad playability mode {raw!r}: {problem} key {found[0]!r}; "
                        "use all or sample=N,seed=S"
                    )
            n, seed = int(parts["n"]), int(parts.get("seed", "0"))
            if seed < 0:
                # random.Random(-s) draws what random.Random(s) draws.
                raise argparse.ArgumentTypeError(
                    f"bad playability mode {raw!r}: seed must be at least 0; "
                    "use all or sample=N,seed=S"
                )
            return n, seed
        except (KeyError, ValueError):
            raise argparse.ArgumentTypeError(
                f"bad playability mode {raw!r}; use all or sample=N,seed=S"
            ) from None
    raise argparse.ArgumentTypeError(f"bad playability mode {raw!r}; use all or sample=N,seed=S")


STACKELBERG_MODES = (
    "optimistic, pessimistic, theta=T, or "
    "leader-risk=expectation-uniform|worst-case|cvar:ALPHA"
)


def _parse_stackelberg_mode(raw: str) -> StackelbergMode:
    if raw == "optimistic":
        return OPTIMISTIC
    if raw == "pessimistic":
        return PESSIMISTIC
    if raw.startswith("theta="):
        try:
            theta = float(raw[len("theta="):])
        except ValueError:
            pass  # malformed: the usage message below
        else:
            try:
                return theta_mode(theta)
            except ValueError as exc:  # outside [0, 1], NaN included
                raise argparse.ArgumentTypeError(str(exc)) from None
    if raw.startswith("leader-risk="):
        risk = raw[len("leader-risk="):]
        try:
            if risk.startswith("cvar:"):
                risk = ("cvar", float(risk[len("cvar:"):]))
            # The mode rejects an unknown functional and alpha outside (0, 1].
            return leader_risk_mode(risk)
        except ValueError:
            pass  # malformed: the usage message below
    raise argparse.ArgumentTypeError(f"bad mode {raw!r}; use {STACKELBERG_MODES}")


def _count_section(game: WGame) -> dict:
    agents = []
    for a in game.model.agents:
        agents.append(
            {
                "agent": str(a),
                "player": game.players.assignment[a],
                "information_atoms": game.model.info[a].atom_count,
                "actions": game.model.action_factors[a].size,
                "strategies": render_count(count_strategies(game.model, a)),
            }
        )
    players = [
        {"player": p, "strategies": render_count(count_player_strategies(game, p))}
        for p in game.players.players
    ]
    profiles = render_count(count_profiles(game.model, game.model.agents))
    return {"agents": agents, "players": players, "profiles": profiles}


def _validation_section(order: tuple | None, playability: dict | None = None) -> dict:
    if playability is None:
        if order is not None:
            playability = {"playable": True, "mode": "sequential", "profiles_checked": 0}
        else:
            playability = {"playable": None, "mode": "unchecked", "profiles_checked": 0}
    return {
        "self_information": "ok",
        "sequential_order": [str(a) for a in order] if order is not None else None,
        "playability": playability,
    }


def _value_renderer() -> Callable[[float], str]:
    """:func:`fmt_value`, called once per distinct value.  Zeros bypass the
    cache: ``0.0 == -0.0`` as keys, but they render as "0" and "-0"."""
    texts: dict[float, str] = {}

    def render(v: float) -> str:
        text = texts.get(v)
        if text is None:
            text = fmt_value(v)
            if v:
                texts[v] = text
        return text

    return render


class _EncodedList(list):
    """A list carrying its JSON text at one report depth (see :func:`_encode`)."""
    __slots__ = ("depth", "text")


def _encoded_list(items: list, texts: list[str], depth: int) -> _EncodedList:
    """``items`` at ``depth``, carrying the text :func:`_joined` from
    ``texts``, the items' texts at ``depth + 1``."""
    out = _EncodedList(items)
    out.depth, out.text = depth, _joined(texts, depth)
    return out


def _equilibrium_results(label, render, report) -> dict:
    # Each distinct player strategy is labelled once and each distinct
    # "values" dict built once, each with its text, from which each record's
    # text is composed at its depth in the report (3); the list's is at 2.
    entries: dict[tuple, tuple[str, str]] = {}
    shared: dict[tuple, tuple[dict, str]] = {}
    # A record's profile lists every player, so is never empty: its text is
    # its parts joined at depth 4.
    separator = "," + _level(4)[2]
    template = _joined([_key("profile") + ": " + _joined(["%s"], 4, "{}"), _key("values") + ": %s"], 3, "{}")
    records, texts = [], []
    for rec in report.profiles:
        profile, parts = {}, []
        for key in rec.by_player:
            entry = entries.get(key)
            if entry is None:
                text = label(key[1])
                entry = entries[key] = text, _key(key[0]) + ": " + encode_basestring_ascii(text)
            profile[key[0]] = entry[0]
            parts.append(entry[1])
        rendered = tuple([(p, render(v)) for p, v in rec.values])
        values = shared.get(rendered)
        if values is None:
            doc = dict(rendered)
            values = shared[rendered] = doc, _encode(doc, 4)
        records.append({"profile": profile, "values": values[0]})
        texts.append(template % (separator.join(parts), values[1]))
    return {"count": len(records), "equilibria": _encoded_list(records, texts, 2)}


def _failure_list(model, failures) -> _EncodedList:
    # Failures repeat points, strategies, profiles and solution sets: each
    # distinct one is built once, with its text at its depth in the report,
    # and each failure's text is composed from those at 3; the list's is at 2.
    def flat(labels, depth: int) -> tuple[list, str]:
        doc = list(labels)
        return doc, _encode(doc, depth)

    nature = functools.cache(lambda w: flat(model.nature_space.point_labels(w), 4))
    point = functools.cache(lambda x: flat(model.configuration.point_labels(x), 5))

    @functools.cache
    def witnesses(solutions):
        points = [point(x) for x in solutions]
        return [doc for doc, _ in points], _joined([text for _, text in points], 4)

    # Strategies and profiles hash in Python, so they are looked up by id:
    # the failures hold them, and a report's equal strategies are one object.
    # A profile lists its strategies in model agent order, each as its
    # '"agent": [table]' part; no two agents of a model print alike.
    names = [str(a) for a in model.agents]
    keys = [_key(name) + ": " for name in names]
    strategies, profiles = {}, {}
    template = _joined([_key(k) + ": %s" for k in ("nature", "profile", "solutions", "witnesses")], 3, "{}")
    profile_template = _joined(["%s"] * len(names), 4, "{}")
    docs, texts = [], []
    for f in failures:
        p = profiles.get(id(f.profile))
        if p is None:
            doc, parts = {}, []
            for name, key, s in zip(names, keys, f.profile.strategies):
                part = strategies.get(id(s))
                if part is None:
                    table, text = flat(s.table, 5)
                    part = strategies[id(s)] = table, key + text
                doc[name] = part[0]
                parts.append(part[1])
            p = profiles[id(f.profile)] = doc, profile_template % tuple(parts)
        w, x = nature(f.nature_point), witnesses(f.solutions)
        docs.append({"nature": w[0], "profile": p[0], "solutions": f.solution_count, "witnesses": x[0]})
        texts.append(template % (w[1], p[1], f.solution_count, x[1]))
    return _encoded_list(docs, texts, 2)


def _diag_section(cap: int, diag=None) -> dict:
    # A report exists only when no cap was hit (exit 3 otherwise).
    doc = {"cap": cap, "capacity_exceeded": False}
    if diag is not None:
        doc["profiles_enumerated"] = diag.profiles_enumerated
        doc["ties"] = diag.ties
        doc["infeasible_leader_profiles"] = diag.infeasible_leader_profiles
        doc["all_adverse"] = diag.all_adverse
    return doc


def run(command: str, game_path: str, options: dict, cap: int, mode=None) -> tuple[dict, int]:
    """Execute one command and return (report, exit_code); ``mode`` is the
    parsed ``--mode`` of playability and the Stackelberg commands."""
    game = load_game(game_path, cap)
    evaluator = Evaluator(game)
    report: dict = {
        "command": command,
        "game": game_path,
        "options": options,
    }
    exit_code = EXIT_OK
    playability_doc = None
    label = strategy_labeller(game)
    render = _value_renderer()
    results: dict = {}
    diag = None

    if command == "validate":
        results = {"valid": True}
    elif command == "strategies":
        results = _count_section(game)
    elif command == "playability":
        pr = check_playability(game.model, mode, cap=cap)
        playability_doc = {
            "playable": pr.playable,
            "mode": pr.mode,
            "profiles_checked": pr.profiles_checked,
        }
        results = dict(playability_doc)
        results["failures"] = _failure_list(game.model, pr.failures)
        if not pr.playable:
            exit_code = EXIT_VALIDATION
    elif command == "normal-form":
        matrix = normal_form_matrix(game, cap=cap, evaluator=evaluator)
        cells = [
            [[render(a), render(b)] for a, b in row] for row in matrix.values
        ]
        results = {
            "row_player": matrix.row_player,
            "col_player": matrix.col_player,
            "rows": list(matrix.row_labels),
            "cols": list(matrix.col_labels),
            "cells": cells,
        }
        if options.get("csv"):
            csv = _writable(matrix_to_csv(matrix))
            with open(options["csv"], "w", encoding="utf-8", newline="") as fh:
                fh.write(csv)
    elif command == "nash":
        eq = nash_equilibria(game, evaluator=evaluator, cap=cap)
        results = _equilibrium_results(label, render, eq)
        diag = eq.diagnostics
    elif command == "stackelberg":
        leader_set, diag = stackelberg_strategies(game, mode, evaluator=evaluator, cap=cap)
        results = {
            "mode": mode.describe(),
            "count": len(leader_set),
            "leader_profiles": [{p: label(ps) for p, ps in lp} for lp in leader_set],
        }
    elif command == "nash-stackelberg":
        eq = nash_stackelberg(game, mode, evaluator=evaluator, cap=cap)
        results = _equilibrium_results(label, render, eq)
        results["mode"] = mode.describe()
        diag = eq.diagnostics
    elif command == "export":
        results = {"document": export_custom(game)}
    else:  # pragma: no cover - argparse restricts the choices
        raise ValueError(f"unknown command {command!r}")

    report["validation"] = _validation_section(game.model.sequential_order, playability_doc)
    report["counts"] = _count_section(game)
    report["results"] = results
    report["timing"] = {"normal_form_evaluations": evaluator.evaluations}
    report["diagnostics"] = _diag_section(cap, diag)
    return report, exit_code


def render_text(report: dict) -> str:
    """Human-readable rendering derived from the structured report."""
    lines = [f"command: {report['command']}", f"game: {report['game']}"]
    if report["options"]:
        lines.append("options: " + " ".join(f"{k}={v}" for k, v in report["options"].items()))
    val = report["validation"]
    seq = val["sequential_order"]
    lines.append("self-information: " + val["self_information"])
    lines.append(
        "sequential order: " + (" -> ".join(seq) if seq else "none")
    )
    pl = val["playability"]
    lines.append(
        f"playability: {pl['playable']} (mode={pl['mode']}, "
        f"profiles_checked={pl['profiles_checked']})"
    )
    counts = report["counts"]
    for a in counts["agents"]:
        lines.append(
            f"agent {a['agent']}: {a['information_atoms']} atoms x "
            f"{a['actions']} actions -> {a['strategies']} strategies"
        )
    lines.append(
        "profiles: "
        + " * ".join(str(p["strategies"]) for p in counts["players"])
        + f" = {counts['profiles']}"
    )
    results = report["results"]
    if "equilibria" in results:
        lines.append(f"equilibria found: {results['count']}")
        for rec in results["equilibria"]:
            prof = "; ".join(f"{p}: {s}" for p, s in rec["profile"].items())
            vals = ", ".join(f"{p}={v}" for p, v in rec["values"].items())
            lines.append(f"  [{prof}] values: {vals}")
    elif "leader_profiles" in results:
        lines.append(f"stackelberg leader profiles ({results['mode']}): {results['count']}")
        for prof in results["leader_profiles"]:
            lines.append("  " + "; ".join(f"{p}: {s}" for p, s in prof.items()))
    elif "cells" in results:
        lines.append(f"matrix {len(results['rows'])} x {len(results['cols'])}")
        header = [""] + results["cols"]
        lines.append(" | ".join(header))
        for label, row in zip(results["rows"], results["cells"]):
            lines.append(" | ".join([label] + [f"{a};{b}" for a, b in row]))
    elif "failures" in results:
        for f in results["failures"]:
            lines.append(
                f"  failure at nature={f['nature']}: {f['solutions']} solutions"
            )
    elif "valid" in results:
        lines.append("valid: true")
    timing = report["timing"]
    lines.append(f"normal-form evaluations: {timing['normal_form_evaluations']}")
    diag = report["diagnostics"]
    lines.append(
        "diagnostics: " + ", ".join(f"{k}={v}" for k, v in diag.items())
    )
    return "\n".join(lines) + "\n"


_CONTAINERS = (list, tuple, dict)
_SCALAR_TYPES = frozenset((str, int, float, bool, type(None)))


@functools.cache
def _level(depth: int):
    """The encoder of flat containers at ``depth``, and the line breaks
    before such a container's closing bracket and before each of its items.

    ``c_make_encoder`` ignores its indent argument, so the item separator
    carries the break and indentation of the depth."""
    close = "\n" + "  " * depth
    item = close + "  "
    flat = c_make_encoder(
        None, json.JSONEncoder().default, encode_basestring_ascii, None,
        ": ", "," + item, False, False, True,
    )
    return flat, close, item


def _scalar(value) -> str:
    if type(value) is str:
        return encode_basestring_ascii(value)
    if type(value) is int:
        return int.__repr__(value)
    return "".join(_level(0)[0](value, 0))


def _key(key) -> str:
    """A dict key, coerced to a string as ``json.dumps`` does."""
    if isinstance(key, str):
        return encode_basestring_ascii(key)
    if key is None or isinstance(key, (int, float)):
        return encode_basestring_ascii(_scalar(key))
    raise TypeError(f"keys must be str, int, float, bool or None, not {key.__class__.__name__}")


def _dumps(obj) -> str:
    """``json.dumps(obj, indent=2)``, byte for byte (see the module
    docstring)."""
    if isinstance(obj, _CONTAINERS):
        return _encode(obj, 0)
    return _scalar(obj)


def _encode(o, depth: int) -> str:
    """The container ``o`` at ``depth``."""
    is_dict = isinstance(o, dict)
    if not o:
        return "{}" if is_dict else "[]"
    flat, close, item = _level(depth)
    if _SCALAR_TYPES.issuperset(map(type, o.values() if is_dict else o)):
        # The C encoder writes "[a,<item>b]": open the first line and close
        # the last one.  Items of other types, scalar subclasses included,
        # take the walk below, which gives the same bytes.
        text = "".join(flat(o, 0))
        return text[0] + item + text[1:-1] + close + text[-1]
    sub = depth + 1
    if is_dict:
        parts = [
            _key(k) + ": " + (_encode(v, sub) if isinstance(v, _CONTAINERS) else _scalar(v))
            for k, v in o.items()
        ]
        return _joined(parts, depth, "{}")
    if type(o) is _EncodedList and o.depth == depth:
        return o.text
    return _joined([_encode(v, sub) if isinstance(v, _CONTAINERS) else _scalar(v) for v in o], depth)


def _joined(texts: list[str], depth: int, brackets: str = "[]") -> str:
    """The text of a list (or, with ``brackets`` ``"{}"``, a dict) at
    ``depth`` whose items (``"key": value`` pairs) have the texts ``texts``."""
    if not texts:
        return brackets
    _, close, item = _level(depth)
    return brackets[0] + item + ("," + item).join(texts) + close + brackets[1]


def _writable(text: str) -> str:
    """``text`` with what UTF-8 cannot encode, such as a lone surrogate in a
    name or in an undecodable path, escaped with backslashes."""
    return text.encode("utf-8", "backslashreplace").decode("utf-8")


def _emit(report: dict, fmt: str, out: str | None):
    if report["command"] == "export":
        # The useful artifact is the game document itself, directly loadable
        # with --game.
        text = _dumps(report["results"]["document"]) + "\n"
    elif fmt == "json":
        text = _dumps(report) + "\n"
    else:
        text = _writable(render_text(report))
    if out:
        with open(out, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _cap(raw: str) -> int:
    """``--cap``: a non-negative integer, else argparse's usage error."""
    try:
        cap = int(raw)
    except ValueError:
        cap = None
    if cap is None or cap < 0:
        raise argparse.ArgumentTypeError(f"cap must be a non-negative integer, got {raw!r}")
    return cap


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The command-line parser, built on first use and shared by every call."""
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--game", required=True, help="path to a game definition file")
    common.add_argument("--out", help="write the report to this path instead of stdout")
    common.add_argument("--cap", type=_cap, default=DEFAULT_CAP, help="enumeration cap (>= 0)")
    common.add_argument("--format", choices=("json", "text"), default="json")

    parser = argparse.ArgumentParser(
        prog="infogames",
        description="validate and solve finite games with explicit information structure",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    sub.add_parser("validate", parents=[common])
    sub.add_parser("strategies", parents=[common])
    p = sub.add_parser("playability", parents=[common])
    p.add_argument("--mode", default="all", help="all or sample=N,seed=S")
    p.set_defaults(parse_mode=_parse_playability_mode)
    p = sub.add_parser("normal-form", parents=[common])
    p.add_argument("--csv", help="also write the matrix as CSV to this path")
    sub.add_parser("nash", parents=[common])
    for name in ("stackelberg", "nash-stackelberg"):
        p = sub.add_parser(name, parents=[common])
        p.add_argument("--mode", default="optimistic", help=STACKELBERG_MODES)
        p.set_defaults(parse_mode=_parse_stackelberg_mode)
    sub.add_parser("export", parents=[common])
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    options: dict = {}
    mode = None
    if "parse_mode" in args:
        try:
            mode = args.parse_mode(args.mode)
        except argparse.ArgumentTypeError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return EXIT_VALIDATION
        options["mode"] = mode.describe() if isinstance(mode, StackelbergMode) else args.mode
    elif args.command == "normal-form" and args.csv:
        options["csv"] = args.csv

    try:
        report, code = run(args.command, args.game, options, args.cap, mode)
        _emit(report, args.format, args.out)
    except CapacityExceeded as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CAPACITY
    except (GameError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_VALIDATION
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_IO
    return code


if __name__ == "__main__":
    sys.exit(main())
