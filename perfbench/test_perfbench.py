"""Tests of the benchmark's own code: generator, checks, tracing, metric names, smoke runs.

Run from the repository root: python3 -m pytest perfbench -q
"""

import json
import os
import shutil
import subprocess
import sys
import tempfile

import numpy as np
import pytest

import checks
import refspeed
import run
import tracing
import treegen

sys.path.insert(0, os.path.join(run.ROOT, "src"))
from pipescope import PointOnPipe, action_times, validate_network  # noqa: E402

with open(os.path.join(run.ROOT, "BENCHMARK.json")) as _fh:
    SPEC = json.load(_fh)
TREE_WORKLOADS = {"measured": "tree-measured", "exact": "tree-exact"}


def _flag(args, name):
    return float(args[args.index(name) + 1])


@pytest.mark.parametrize("kind", treegen.KINDS)
def test_generator_is_deterministic_and_valid(kind):
    recon_args = run.WORKLOADS[TREE_WORKLOADS[kind]].recon_args
    tau, dx = _flag(recon_args, "--tau"), _flag(recon_args, "--dx")
    texts = set()
    for seed in range(25):
        text = treegen.dumps(treegen.generate(seed, kind))
        assert text == treegen.dumps(treegen.generate(seed, kind))
        texts.add(text)
        net = validate_network(json.loads(text))
        assert (len(net.pipes), len(net.accessible)) == (11, treegen.LEAVES)
        probe = net.pipes[treegen.PROBE_ID]
        from_far = net.far_side_vertex(probe.id) == probe.from_vertex
        first = PointOnPipe(probe.id, dx if from_far else probe.length - dx)
        assert action_times(net, first, endpoint_ok=True).max_f <= tau
    assert len(texts) > 20


def test_every_seed_gives_the_oracle_the_same_work():
    from pipescope.irm import oracle_irm

    counts = set()
    for seed in range(3):
        net = validate_network(treegen.generate(seed, "exact"))
        counts.add(sum(len(train) for train in oracle_irm(net, 2.4).deltas.values()))
    assert len(counts) == 1


def test_scaling_by_reference_blocks():
    nominal = refspeed.NOMINAL_S
    assert refspeed.scaled_times([3.0], [nominal, nominal]) == [3.0]
    # a machine running at half speed doubles both the commands and the blocks
    assert refspeed.scaled_times([6.0, 2.0], [2 * nominal] * 3) == pytest.approx([3.0, 1.0])
    # one slow block among its neighbours does not move the reading
    blocks = [nominal] * 12
    blocks[6] = 5 * nominal
    assert refspeed.scaled_times([1.0] * 11, blocks) == pytest.approx([1.0] * 11)
    with pytest.raises(ValueError):
        refspeed.scaled_times([1.0, 1.0], [nominal, nominal])
    assert refspeed.block() > 0.0


def test_scaled_command_times_with_repeated_irm_runs():
    b = refspeed.NOMINAL_S
    first = run.Pipeline((1.0, 3.0), 10.0, True, 0.0, {}, "", (b, b, b, b))
    second = run.Pipeline((2.0, 2.0), 20.0, True, 0.0, {}, "", (b, b, b, b))
    irm, recon, totals = run.scaled_command_times([first, second])
    assert irm == pytest.approx([1.0, 3.0, 2.0, 2.0])
    assert recon == pytest.approx([10.0, 20.0])
    assert totals == pytest.approx([12.0, 22.0])


def test_generator_cli_prints_the_canonical_json():
    done = subprocess.run(
        [sys.executable, os.path.join(run.ROOT, "perfbench", "treegen.py"), "--seed", "4", "--kind", "measured"],
        capture_output=True, text=True, check=True,
    )
    assert done.stdout == treegen.dumps(treegen.generate(4, "measured"))


def test_check_profile_rules():
    x = np.arange(0.0, 280.0, 7.0)
    truth = np.where((x > 120.0) & (x < 160.0), 0.7, 1.0)
    blocks = [(120.0, 160.0, 0.3)]
    good = checks.check_profile(x, truth, 1.0, blocks, 7.0, exact=False)
    assert good.ok and good.area_err == checks.ERR_FLOOR

    moved = np.where((x > 141.0) & (x < 181.0), 0.7, 1.0)  # 21 m off, more than 2 dx
    off = checks.check_profile(x, moved, 1.0, blocks, 7.0, exact=False)
    assert not off.ok and "centred" in off.reason

    flat = np.ones_like(x)
    flat[-1] = 1.02  # an end point: masked for the error, but criterion 1 checks every point
    exact = checks.check_profile(x, flat, 1.0, [], 7.0, exact=True)
    assert not exact.ok and exact.area_err == checks.ERR_FLOOR

    flat[3] = np.nan
    assert not checks.check_profile(x, flat, 1.0, [], 7.0, exact=True).ok


def test_self_time_is_duration_minus_children():
    tracer = tracing.Tracer()
    tracer.spans = [
        tracing.Span("cli.run", 0.0, 10.0, None, 0),
        tracing.Span("irm.measure_irm", 1.0, 7.0, 0, 0),
        tracing.Span("simulate.simulate", 2.0, 5.0, 1, 0),
        tracing.Span("cli.run", 0.0, 4.0, None, 1),
    ]
    totals = tracer.totals()
    assert totals[0] == {
        "cli.run": [10.0, 4.0, 1],
        "irm.measure_irm": [6.0, 3.0, 1],
        "simulate.simulate": [3.0, 3.0, 1],
    }
    assert totals[1] == {"cli.run": [4.0, 4.0, 1]}


def test_wrappers_record_nesting_and_are_removed():
    tracer = tracing.Tracer()

    class Module:
        @staticmethod
        def inner(v):
            return v + 1

    def outer(v):
        return Module.inner(v) * 2

    with tracer.installed([(Module, "inner", "irm.inner", lambda t, r, a: t.record("seen", r))]):
        assert tracer.wrap(outer, "cli.run")(1) == 4
    assert Module.inner(1) == 2 and len(tracer.spans) == 2
    root, child = tracer.spans
    assert (root.parent, child.parent) == (None, 0)
    assert tracer.recorded(0, "seen") == [2]


def test_metric_and_workload_names_match_benchmark_json():
    assert {m["name"]: m["unit"] for m in SPEC["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in SPEC["per_layer"]} == run.PER_LAYER
    assert [w["name"] for w in SPEC["workloads"]] == list(run.WORKLOADS)


def _bench(workload, trace, cwd=run.ROOT):
    return subprocess.run(
        [sys.executable, os.path.join(cwd, "perfbench", "run.py"), "--workload", workload,
         "--seed", "3", "--seconds", "0", "--trace", str(trace)],
        capture_output=True, text=True, cwd=cwd, timeout=180,
    )


@pytest.mark.parametrize("workload", run.WORKLOADS)
def test_one_repeat_traced_smoke_run(workload):
    done = _bench(workload, 1)
    assert done.returncode == 0, done.stderr
    result = json.loads(done.stdout.splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0, done.stdout.splitlines()[-2]
    assert {k: v["unit"] for k, v in result["metrics"].items()} == run.PER_LAYER


def test_one_repeat_smoke_run_of_all_workloads():
    done = _bench("all", 0)
    assert done.returncode == 0, done.stderr
    result = json.loads(done.stdout.splitlines()[-1])
    assert result["correct"] and result["failed"] == 0
    expected = {f"{w}.{m}": unit for w in run.WORKLOADS for m, unit in run.END_TO_END.items()}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == expected


def test_fails_without_the_program_sources():
    os.makedirs(run.WORK_ROOT, exist_ok=True)
    bare = tempfile.mkdtemp(dir=run.WORK_ROOT)
    try:
        shutil.copy(os.path.join(run.ROOT, "BENCHMARK.json"), bare)
        shutil.copytree(os.path.join(run.ROOT, "perfbench"), os.path.join(bare, "perfbench"),
                        ignore=shutil.ignore_patterns("__pycache__"))
        done = _bench("exp1-exact", 0, cwd=bare)
        assert done.returncode != 0
        assert '"metrics"' not in done.stdout
    finally:
        shutil.rmtree(bare)
