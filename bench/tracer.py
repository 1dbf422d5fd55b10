"""Per-layer spans recorded from outside the program.

The tracer replaces public functions of the program at the module attribute
where their callers look them up, so the program itself is unchanged.  Each
wrapped call is a span; the benchmark opens a root span ``cli.main`` around
every op.  A span's self time is its duration minus the time of the spans it
directly contains, so the self times of all spans of an op add up to the op's
duration.

Fine layers open about 10^5 spans per op, so spans are folded as they close
into one row per (op, span name, parent span name) holding the call count,
total time and self time.  Per-point helpers (``ProductSpace.point_index``,
``FiniteFactor.size``) are not wrapped; their cost stays in the caller's self
time.
"""

from __future__ import annotations

import importlib
import time
from contextlib import contextmanager

ROOT_SPAN = "cli.main"

# (module, class or None, attribute, span name).  A name missing from the
# program is skipped, and its time then counts in its caller's self time.  The
# CLI does not import stackelberg_strategies yet; listing it keeps the
# equilibria layer whole if the CLI starts calling it.
TARGETS = (
    ("infogames.cli", None, "run", "cli.run"),
    ("infogames.cli", None, "load_game", "gamefile.load_game"),
    ("infogames.cli", None, "check_sequential", "model.check_sequential"),
    ("infogames.cli", None, "check_playability", "model.check_playability"),
    ("infogames.cli", None, "nash_equilibria", "equilibria.nash_equilibria"),
    ("infogames.cli", None, "nash_stackelberg", "equilibria.nash_stackelberg"),
    ("infogames.cli", None, "stackelberg_strategies", "equilibria.stackelberg_strategies"),
    ("infogames.gamefile", None, "build_prisoners_dilemma", "models.build_prisoners_dilemma"),
    ("infogames.gamefile", None, "build_tou_game", "models.build_tou_game"),
    ("infogames.gamefile", None, "build_thai_slsf_st", "models.build_thai_slsf_st"),
    ("infogames.gamefile", None, "build_thai_slsf_mt", "models.build_thai_slsf_mt"),
    ("infogames.gamefile", None, "build_thai_slmf_mt", "models.build_thai_slmf_mt"),
    ("infogames.gamefile", None, "build_wmodel", "model.build_wmodel"),
    ("infogames.models", None, "build_wmodel", "model.build_wmodel"),
    ("infogames.preferences", "Objective", "from_function", "preferences.Objective.from_function"),
    ("infogames.model", None, "check_sequential", "model.check_sequential"),
    ("infogames.model", None, "cylinder_partition", "spaces.cylinder_partition"),
    ("infogames.model", None, "refines", "spaces.refines"),
    ("infogames.normal_form", None, "check_sequential", "model.check_sequential"),
    ("infogames.normal_form", None, "solution_map", "model.solution_map"),
    ("infogames.normal_form", None, "apply_risk", "preferences.apply_risk"),
    ("infogames.normal_form", "Evaluator", "value", "normal_form.Evaluator.value"),
    ("infogames.normal_form", "Evaluator", "outcome_indices", "normal_form.Evaluator.outcome_indices"),
    ("infogames.equilibria", None, "assemble_profile", "normal_form.assemble_profile"),
    ("infogames.equilibria", None, "player_strategies", "normal_form.player_strategies"),
)

# Layer time metric <- the spans whose self time it sums.  Every span name
# maps to exactly one layer, so the layer times add up to the op time.
LAYERS = {
    "cli.emit_s": (ROOT_SPAN,),
    "cli.run_self_s": ("cli.run",),
    "gamefile.load_self_s": ("gamefile.load_game",),
    "models.build_self_s": (
        "models.build_prisoners_dilemma",
        "models.build_tou_game",
        "models.build_thai_slsf_st",
        "models.build_thai_slsf_mt",
        "models.build_thai_slmf_mt",
    ),
    "preferences.objective_s": ("preferences.Objective.from_function",),
    "model.build_wmodel_self_s": ("model.build_wmodel",),
    "model.check_sequential_s": ("model.check_sequential",),
    "spaces.cylinder_partition_s": ("spaces.cylinder_partition",),
    "spaces.refines_s": ("spaces.refines",),
    "model.solution_map_s": ("model.solution_map",),
    "model.check_playability_s": ("model.check_playability",),
    "preferences.apply_risk_s": ("preferences.apply_risk",),
    "normal_form.value_self_s": ("normal_form.Evaluator.value", "normal_form.Evaluator.outcome_indices"),
    "normal_form.assemble_profile_s": ("normal_form.assemble_profile",),
    "normal_form.player_strategies_s": ("normal_form.player_strategies",),
    "equilibria.self_s": (
        "equilibria.nash_equilibria",
        "equilibria.nash_stackelberg",
        "equilibria.stackelberg_strategies",
    ),
}

# Call-count metric <- span name.
CALLS = {
    "model.check_sequential_calls": "model.check_sequential",
    "spaces.cylinder_partition_calls": "spaces.cylinder_partition",
    "model.solution_map_calls": "model.solution_map",
    "preferences.apply_risk_calls": "preferences.apply_risk",
    "normal_form.assemble_profile_calls": "normal_form.assemble_profile",
}

VALUE_SPAN = "normal_form.Evaluator.value"


class Tracer:
    """Installs span wrappers into the imported program and folds spans."""

    def __init__(self):
        self.rows: dict[tuple[int, str, str | None], list] = {}
        self.missing: list[str] = []
        self._stack: list[list] = []
        self._op = 0
        self._saved: list[tuple[object, str, object]] = []

    def install(self):
        self.missing = []
        for module_name, class_name, attr, span in TARGETS:
            owner = importlib.import_module(module_name)
            if class_name is not None:
                owner = getattr(owner, class_name, None)
            raw = getattr(owner, "__dict__", {}).get(attr)
            if raw is None:
                self.missing.append(f"{module_name}.{class_name + '.' if class_name else ''}{attr}")
                continue
            if isinstance(raw, staticmethod):
                wrapped = staticmethod(self._wrap(span, raw.__func__))
            else:
                wrapped = self._wrap(span, raw)
            self._saved.append((owner, attr, raw))
            setattr(owner, attr, wrapped)

    def uninstall(self):
        for owner, attr, raw in reversed(self._saved):
            setattr(owner, attr, raw)
        self._saved.clear()

    def _close(self, name: str, parent: list, frame: list, duration: float):
        parent[1] += duration
        key = (self._op, name, parent[0])
        row = self.rows.get(key)
        if row is None:
            self.rows[key] = [1, duration, duration - frame[1]]
        else:
            row[0] += 1
            row[1] += duration
            row[2] += duration - frame[1]

    def _wrap(self, name: str, fn):
        stack = self._stack
        clock = time.perf_counter
        close = self._close

        def traced(*args, **kwargs):
            if not stack:  # called outside an op, e.g. during set-up
                return fn(*args, **kwargs)
            frame = [name, 0.0]
            parent = stack[-1]
            stack.append(frame)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                duration = clock() - start
                stack.pop()
                close(name, parent, frame, duration)

        traced.__wrapped__ = fn
        return traced

    @contextmanager
    def op(self, op_id: int):
        """Root span around one op; yields a list that receives the duration."""
        self._op = op_id
        frame = [ROOT_SPAN, 0.0]
        outer = [None, 0.0]
        self._stack.append(frame)
        result = [0.0]
        start = time.perf_counter()
        try:
            yield result
        finally:
            duration = time.perf_counter() - start
            self._stack.pop()
            self._close(ROOT_SPAN, outer, frame, duration)
            result[0] = duration

    def span_rows(self) -> list[dict]:
        return [
            {"op": op, "name": name, "parent": parent, "calls": c, "total_s": t, "self_s": s}
            for (op, name, parent), (c, t, s) in sorted(
                self.rows.items(), key=lambda kv: (kv[0][0], kv[0][1], kv[0][2] or "")
            )
        ]

    def totals(self, scale: dict[int, float] | None = None) -> dict[str, list]:
        """Per span name: [calls, total_s, self_s] over every op, with each
        op's times multiplied by ``scale[op]`` when given."""
        out: dict[str, list] = {}
        for (op, name, _), (c, t, s) in self.rows.items():
            k = 1.0 if scale is None else scale[op]
            acc = out.setdefault(name, [0, 0.0, 0.0])
            acc[0] += c
            acc[1] += t * k
            acc[2] += s * k
        return out
