#!/usr/bin/env python3
"""Benchmark of the ``infogames`` command line on seeded game files.

Run from the repository root::

    python3 bench/run.py --workload tou-sweep --seed 1 --seconds 30 --trace 0

Workloads are defined in ``workloads.py``.  One run is one fresh
single-threaded process and a closed loop with one client: the benchmark
writes the seed's game files, measures set-up, then calls
``infogames.cli.main([..., "--game", file, "--out", report])`` in process,
one op after the other, in whole passes over the seed's op list until about
``--seconds`` have passed (and at least 100 ops).  After every op it checks
the exit code and a digest of the report against ``refs/<workload>.json``.

Times are scaled to a fixed machine speed.  On a shared machine the same op
runs up to 1.8 times slower for seconds at a time while other tenants load
the processor.  A fixed pure-Python loop (``reference_seconds``) is timed
right before and right after every op, and the op's wall time is multiplied
by ``REFERENCE_S`` divided by the mean of those two loop times: a time in
seconds on a machine where the loop takes ``REFERENCE_S``.  Set-up samples
are scaled the same way.  The unscaled wall-time percentiles are printed
too.

``--trace 0`` prints the end-to-end metrics.  ``--trace 1`` alternates
untraced and traced passes and prints the per-layer metrics of one traced
pass (see ``tracer.py``); the folded spans go to ``out/``.  Metric names and
units come from ``BENCHMARK.json``.  The last line of standard output is one
JSON object with ``correct``, ``attempted``, ``failed`` and ``metrics``.

``--record REV`` runs every op of the workload's instance pool once with the
``src`` tree of git revision ``REV`` and rewrites ``refs/<workload>.json``.
"""

from __future__ import annotations

import argparse
import hashlib
import inspect
import io
import json
import math
import os
import re
import resource
import shutil
import statistics
import subprocess
import sys
import tarfile
import tempfile
import time
import traceback
from dataclasses import dataclass
from pathlib import Path

import tracer as tracing
import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"
REFS = HERE / "refs"

MIN_OPS = 100  # so that at least 10 samples lie beyond p90
MAX_LOOP_S = 100.0  # no new pass starts after this, whatever --seconds says
SETUP_SAMPLES = 5
# Report sections left out of the digest: the game path differs per run, and
# timing/diagnostics are work counters that later changes may extend.
DIGEST_EXCLUDES = ("game", "timing", "diagnostics")
# Work counters read from each report: metric name -> path into the report.
REPORT_COUNTERS = {
    "normal_form.evaluations": ("timing", "normal_form_evaluations"),
    "model.profiles_checked": ("validation", "playability", "profiles_checked"),
    "equilibria.profiles_enumerated": ("diagnostics", "profiles_enumerated"),
}


# The loop's time on an unloaded core of the 2.1 GHz Xeon the baseline was
# measured on.
REFERENCE_S = 0.0015


def reference_seconds() -> float:
    """Wall time of a fixed pure-Python loop."""
    start = time.perf_counter()
    x = 0
    for i in range(30000):
        x += i * i
    return time.perf_counter() - start


# Run in a fresh interpreter per sample: import the CLI, then load every game
# file.  Each step prints its wall time and the reference-loop time around it.
SETUP_CODE = f"""\
import sys, time
{inspect.getsource(reference_seconds)}
def timed(step, *args):
    before = reference_seconds()
    start = time.perf_counter()
    step(*args)
    elapsed = time.perf_counter() - start
    print(repr(elapsed), repr((before + reference_seconds()) / 2))
def load_program():
    global load_game
    import infogames.cli
    from infogames.gamefile import load_game
timed(load_program)
for path in sys.argv[1:]:
    timed(load_game, path)
"""


@dataclass
class OpResult:
    key: str
    op_id: int
    seconds: float  # wall time of the op
    reference: float  # mean reference-loop time around the op
    ok: bool
    digest: str | None
    exit_code: int | None
    counters: dict[str, int]


def report_counter(report: dict, path: tuple[str, ...]) -> int:
    node = report
    for key in path:
        if not isinstance(node, dict):
            return 0
        node = node.get(key)
    return node if isinstance(node, int) else 0


def report_digest(report: dict) -> str:
    kept = {k: v for k, v in report.items() if k not in DIGEST_EXCLUDES}
    text = json.dumps(kept, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()


def write_games(instances, directory: Path) -> dict[str, str]:
    paths = {}
    for inst in instances:
        path = directory / f"{inst.id}.json"
        path.write_text(json.dumps(inst.doc, indent=1))
        paths[inst.id] = str(path)
    return paths


def import_program(src: Path):
    """Import ``infogames.cli`` from ``src`` and nowhere else."""
    sys.path.insert(0, str(src))
    import infogames.cli as cli

    if not Path(cli.__file__).resolve().is_relative_to(src.resolve()):
        raise SystemExit(f"error: infogames was imported from {cli.__file__}, not {src}")
    return cli


def measure_setup(src: Path, game_paths: list[str]) -> list[list[tuple[float, float]]]:
    """Per fresh interpreter, (seconds, reference seconds) of each set-up step."""
    env = dict(os.environ, PYTHONPATH=str(src))
    samples = []
    for _ in range(SETUP_SAMPLES):
        proc = subprocess.run(
            [sys.executable, "-c", SETUP_CODE, *game_paths],
            cwd=ROOT, env=env, capture_output=True, text=True, timeout=120, check=True,
        )
        samples.append([tuple(map(float, line.split())) for line in proc.stdout.splitlines()])
    return samples


class Runner:
    """Runs ops against the imported CLI and checks each report."""

    def __init__(self, cli, game_paths: dict[str, str], refs: dict, out_path: Path):
        self.cli = cli
        self.game_paths = game_paths
        self.refs = refs
        self.out_path = out_path
        self.op_count = 0
        self.reported_errors = 0

    def run_op(self, op, tracer: tracing.Tracer | None = None) -> OpResult:
        argv = [*op.args, "--game", self.game_paths[op.instance], "--out", str(self.out_path)]
        self.out_path.unlink(missing_ok=True)
        self.op_count += 1
        op_id = self.op_count
        before = reference_seconds()
        start = time.perf_counter()
        try:
            if tracer is None:
                exit_code = self.cli.main(argv)
            else:
                with tracer.op(op_id) as span:
                    exit_code = self.cli.main(argv)
        except (Exception, SystemExit):
            exit_code = None
            if self.reported_errors < 3:
                print(f"op {op.key} raised:\n{traceback.format_exc()}", file=sys.stderr)
            self.reported_errors += 1
        # A traced op lasts exactly its root span, so layer times add up to it.
        seconds = time.perf_counter() - start if tracer is None else span[0]
        reference = (before + reference_seconds()) / 2
        if exit_code is None:
            return OpResult(op.key, op_id, seconds, reference, False, None, None, {})
        digest = None
        counters = {}
        if self.out_path.exists():
            with open(self.out_path, encoding="utf-8") as fh:
                report = json.load(fh)
            digest = report_digest(report)
            counters = {k: report_counter(report, path) for k, path in REPORT_COUNTERS.items()}
        ref = self.refs.get(op.key)
        ok = ref is not None and ref["exit"] == exit_code and ref["sha256"] == digest
        if not ok and self.reported_errors < 3:
            print(f"op {op.key}: exit {exit_code} digest {digest}, expected {ref}", file=sys.stderr)
            self.reported_errors += 1
        return OpResult(op.key, op_id, seconds, reference, ok, digest, exit_code, counters)

    def run_pass(self, ops, tracer: tracing.Tracer | None = None) -> list[OpResult]:
        if tracer is not None:
            tracer.install()
        try:
            return [self.run_op(op, tracer) for op in ops]
        finally:
            if tracer is not None:
                tracer.uninstall()


def quantile(values: list[float], q: float) -> float:
    return statistics.quantiles(values, n=100, method="inclusive")[round(q * 100) - 1]


def scaled(seconds: float, reference: float) -> float:
    return seconds * REFERENCE_S / reference


def end_to_end_metrics(results: list[OpResult], setup: list[list[tuple[float, float]]]) -> dict[str, float]:
    times = [scaled(r.seconds, r.reference) for r in results if r.ok]
    if len(times) < 2:
        raise SystemExit("error: fewer than two correct ops; no timing to report")
    return {
        "setup_s": statistics.median(math.fsum(scaled(*step) for step in steps) for steps in setup),
        "op_s_p50": statistics.median(times),
        "op_s_p90": quantile(times, 0.9),
        "ops_per_s": len(times) / math.fsum(times),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }


def per_layer_metrics(
    tracer: tracing.Tracer,
    traced: list[list[OpResult]],
    untraced: list[list[OpResult]],
) -> dict[str, float]:
    """Layer times and counts per traced pass; every pass runs the same ops."""
    n_pass = len(traced)
    scale = {r.op_id: scaled(1.0, r.reference) for p in traced for r in p}
    totals = tracer.totals(scale)
    op_sum = math.fsum(r.seconds * scale[r.op_id] for p in traced for r in p) / n_pass
    metrics: dict[str, float] = {}
    for layer, spans in tracing.LAYERS.items():
        seconds = math.fsum(totals.get(s, [0, 0.0, 0.0])[2] for s in spans) / n_pass
        metrics[layer] = seconds
        metrics[layer[: -len("_s")] + "_share"] = seconds / op_sum
    for name, span in tracing.CALLS.items():
        metrics[name] = totals.get(span, [0])[0] // n_pass
    one_pass = traced[0]
    for name in REPORT_COUNTERS:
        metrics[name] = sum(r.counters.get(name, 0) for r in one_pass)
    value_calls = totals.get(tracing.VALUE_SPAN, [0])[0] // n_pass
    evaluations = metrics["normal_form.evaluations"]
    metrics["normal_form.memo_hit_ratio"] = 1 - evaluations / value_calls if value_calls else 0.0
    metrics["trace.op_s_sum"] = op_sum
    metrics["trace.ops"] = len(one_pass)
    traced_p50 = statistics.median(scaled(r.seconds, r.reference) for p in traced for r in p)
    untraced_p50 = statistics.median(scaled(r.seconds, r.reference) for p in untraced for r in p)
    metrics["trace.overhead_frac"] = traced_p50 / untraced_p50 - 1
    return metrics


def load_spec() -> dict:
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as fh:
        return json.load(fh)


def emit(metrics: dict[str, float], declared: list[dict], results: list[OpResult]):
    names = [m["name"] for m in declared]
    if set(names) != set(metrics):
        raise SystemExit(f"error: computed metrics {sorted(metrics)} differ from BENCHMARK.json {sorted(names)}")
    doc = {}
    for m in declared:
        value = metrics[m["name"]]
        print(f"{m['name']:40s} {value:.6g} {m['unit']}")
        doc[m["name"]] = {"value": value, "unit": m["unit"]}
    failed = sum(not r.ok for r in results)
    print(json.dumps({"correct": failed == 0, "attempted": len(results), "failed": failed, "metrics": doc}))


def load_refs(workload: str) -> dict:
    path = REFS / f"{workload}.json"
    if not path.exists():
        return {}
    with open(path, encoding="utf-8") as fh:
        return json.load(fh)


def export_src(rev: str) -> Path:
    """Extract the ``src`` tree of a git revision under ``out/``."""
    dest = OUT / ("src-" + re.sub(r"[^A-Za-z0-9_.-]", "_", rev))
    shutil.rmtree(dest, ignore_errors=True)
    dest.mkdir(parents=True)
    archive = subprocess.run(
        ["git", "-C", str(ROOT), "archive", "--format=tar", rev, "src"],
        capture_output=True, check=True,
    ).stdout
    with tarfile.open(fileobj=io.BytesIO(archive)) as tar:
        tar.extractall(dest, filter="data")
    return dest / "src"


def record(workload: str, rev: str, work: Path):
    cli = import_program(export_src(rev))
    instances = workloads.pool(workload)
    runner = Runner(cli, write_games(instances, work), {}, work / "report.json")
    refs = {}
    for inst in instances:
        for op in inst.ops:
            res = runner.run_op(op)
            if res.exit_code is None:
                raise SystemExit(f"error: {op.key} raised; nothing recorded")
            refs[op.key] = {"exit": res.exit_code, "sha256": res.digest}
            print(f"{op.key}: exit {res.exit_code} {res.seconds:.3f}s")
    REFS.mkdir(exist_ok=True)
    path = REFS / f"{workload}.json"
    path.write_text(json.dumps(refs, indent=1, sort_keys=True) + "\n")
    print(f"wrote {len(refs)} references to {path.relative_to(ROOT)} from {rev}")


def measure(args, work: Path, src: Path):
    spec = load_spec()
    instances, ops = workloads.select(args.workload, args.seed)
    game_paths = write_games(instances, work)
    setup = measure_setup(src, list(game_paths.values()))
    cli = import_program(src)
    runner = Runner(cli, game_paths, load_refs(args.workload), work / "report.json")

    results: list[OpResult] = []
    traced: list[list[OpResult]] = []
    untraced: list[list[OpResult]] = []
    tracer = tracing.Tracer() if args.trace else None
    min_ops = 1 if tracer else MIN_OPS
    rounds = 0
    start = time.perf_counter()
    while True:
        if tracer is None:
            results += runner.run_pass(ops)
        else:
            untraced.append(runner.run_pass(ops))
            traced.append(runner.run_pass(ops, tracer))
            results += untraced[-1] + traced[-1]
        rounds += 1
        elapsed = time.perf_counter() - start
        # Start another round only if it would end nearer to --seconds.
        if elapsed > MAX_LOOP_S or (
            len(results) >= min_ops and elapsed + elapsed / rounds / 2 >= args.seconds
        ):
            break

    references = [r.reference for r in results if r.ok] + [ref for steps in setup for _, ref in steps]
    wall = [r.seconds for r in results if r.ok]
    print(f"workload {args.workload} seed {args.seed}: {len(ops)} ops per pass, "
          f"{len(results)} ops in {elapsed:.1f}s, {SETUP_SAMPLES} set-up samples")
    print(f"reference loop: fastest {min(references):.6f}s, median {statistics.median(references):.6f}s")
    if len(wall) >= 2:
        print(f"unscaled op wall time: p50 {statistics.median(wall):.6f}s, "
              f"p90 {quantile(wall, 0.9):.6f}s over {len(wall)} correct ops")
    if tracer is None:
        emit(end_to_end_metrics(results, setup), spec["end_to_end"], results)
    else:
        if tracer.missing:
            print("not traced (absent from the program): " + ", ".join(tracer.missing))
        OUT.mkdir(exist_ok=True)
        spans = OUT / f"spans-{args.workload}-{args.seed}.json"
        spans.write_text(json.dumps(tracer.span_rows()))
        print(f"unscaled spans of {len(traced)} traced passes written to {spans.relative_to(ROOT)}")
        emit(per_layer_metrics(tracer, traced, untraced), spec["per_layer"], results)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=int, default=30)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--record", metavar="REV", help="rewrite the workload's references from git revision REV")
    args = parser.parse_args(argv)

    src = ROOT / "src"
    if not args.record and not (src / "infogames" / "__init__.py").is_file():
        print(f"error: no program source at {src}/infogames", file=sys.stderr)
        return 2
    OUT.mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix="run-", dir=OUT))
    try:
        if args.record:
            record(args.workload, args.record, work)
        else:
            measure(args, work, src)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
