"""Self-tests of the benchmark: ``python3 -m pytest bench/test_bench.py -q``."""

from __future__ import annotations

import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import run as bench  # noqa: E402
import tracer as tracing  # noqa: E402
import workloads  # noqa: E402

SEED = 11
SPEC = json.loads((bench.ROOT / "BENCHMARK.json").read_text())


@pytest.fixture(scope="module")
def cli():
    return bench.import_program(bench.ROOT / "src")


def make_runner(cli, workload, directory):
    instances, ops = workloads.select(workload, SEED)
    games = bench.write_games(instances, directory)
    return bench.Runner(cli, games, bench.load_refs(workload), directory / "report.json"), ops


def traced_pass(runner, ops):
    tracer = tracing.Tracer()
    return tracer, runner.run_pass(ops, tracer)


@pytest.mark.parametrize("workload", sorted(workloads.WORKLOADS))
def test_tracing_changes_no_output(cli, workload, tmp_path):
    runner, ops = make_runner(cli, workload, tmp_path)
    plain = runner.run_pass(ops)
    _, traced = traced_pass(runner, ops)
    assert all(r.ok for r in plain + traced)
    assert [(r.key, r.exit_code, r.digest) for r in plain] == [
        (r.key, r.exit_code, r.digest) for r in traced
    ]


@pytest.mark.parametrize("workload", sorted(workloads.WORKLOADS))
def test_traced_counters_repeat_and_self_times_add_up(cli, workload, tmp_path):
    runner, ops = make_runner(cli, workload, tmp_path)
    first, first_results = traced_pass(runner, ops)
    second, second_results = traced_pass(runner, ops)
    calls = [{k: v[0] for k, v in t.totals().items()} for t in (first, second)]
    assert calls[0] == calls[1]
    assert [r.counters for r in first_results] == [r.counters for r in second_results]
    assert calls[0][tracing.ROOT_SPAN] == len(ops)

    layer_of = {span: layer for layer, spans in tracing.LAYERS.items() for span in spans}
    assert set(first.totals()) <= set(layer_of)
    self_sum = math.fsum(row[2] for row in first.totals().values())
    op_sum = math.fsum(r.seconds for r in first_results)
    assert self_sum == pytest.approx(op_sum, rel=1e-9)


def test_tracer_restores_the_program(cli, tmp_path):
    import infogames.normal_form as nf

    before = (nf.solution_map, nf.Evaluator.__dict__["value"], cli.run)
    runner, ops = make_runner(cli, "nonseq-playability", tmp_path)
    traced_pass(runner, ops[:1])
    assert (nf.solution_map, nf.Evaluator.__dict__["value"], cli.run) == before


def run_cli(cwd, *args):
    return subprocess.run(
        [sys.executable, "bench/run.py", *args], cwd=cwd, capture_output=True, text=True, timeout=170
    )


@pytest.mark.parametrize("trace,section", [(0, "end_to_end"), (1, "per_layer")])
def test_result_line(trace, section):
    proc = run_cli(
        bench.ROOT, "--workload", "nonseq-playability", "--seed", str(SEED),
        "--seconds", "1", "--trace", str(trace),
    )
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0
    assert result["attempted"] >= (bench.MIN_OPS if trace == 0 else 1)
    declared = {m["name"]: m["unit"] for m in SPEC[section]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == declared


def test_fails_without_the_program(tmp_path):
    shutil.copy(bench.ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "bench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = run_cli(tmp_path, "--workload", "tou-sweep", "--seed", "1", "--seconds", "1", "--trace", "0")
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout


def test_every_pool_op_has_a_reference():
    for workload in workloads.WORKLOADS:
        refs = bench.load_refs(workload)
        keys = {op.key for inst in workloads.pool(workload) for op in inst.ops}
        assert keys == set(refs), workload
