"""pipescope benchmark: an IRM command, then ``reconstruct``, timed in one process.

Usage, from the repository root:

    python3 perfbench/run.py --workload exp2-measured --seed 1 --seconds 28 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 28 --trace 0

A pipeline runs the commands a user runs, through ``pipescope.cli.run``
with the CLI defaults (``--jobs 1``, ``PIPESCOPE_JOBS`` unset), writing
into a working directory under the checkout. Pipelines run back to back
in one process (a closed loop with one client). The first one warms up
and is not timed; then pipelines run until ``--seconds`` have passed,
each checked against the network's truth and byte-compared with the
first. After the loop, ``pipescope replay`` of both manifests must
reproduce the outputs byte for byte.

``--trace 0`` prints the end-to-end metrics. A block of fixed reference
work (refspeed.py) runs before the first command and after every
command, and each command's wall time is scaled by the blocks near it to
seconds at the reference machine's median speed; the time metrics are
medians of these scaled times over the run. A workload may run its IRM
command more than once a pipeline (``Workload.irm_runs``), to give a
short one as many samples as the other times. On a shared machine the CPU
speed drifts, and the scaling takes most of the drift out (README.md has
the figures); the wall times are in the detail line.
``--trace 1`` alternates an untraced and a traced pipeline and prints
the per-layer metrics of the fastest traced pipeline, plus the tracing
overhead: fastest traced minus fastest untraced pipeline time.

The last stdout line is the result JSON; the line before it records the
environment, the seed, the input digest and the raw samples. With
``--workload all`` each workload runs in a process of its own and the
last line combines their results. BLAS runs on one thread, set below
before numpy loads; README.md says why.
"""

from __future__ import annotations

import os

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"
os.environ.pop("PIPESCOPE_JOBS", None)

import argparse  # noqa: E402
import contextlib  # noqa: E402
import ctypes  # noqa: E402
import hashlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
import time  # noqa: E402
from dataclasses import dataclass  # noqa: E402

import refspeed  # noqa: E402  (loads numpy: after the BLAS settings above)

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
WORK_ROOT = os.path.join(ROOT, ".perfbench-work")
SETUP_REPEATS = 6

END_TO_END = {  # name -> unit
    "pipeline_s": "s",
    "irm_s": "s",
    "reconstruct_s": "s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "area_err": "ratio",
    "ok_frac": "ratio",
}
PER_LAYER = {
    "cli.self_s": "s",
    "graph.self_s": "s",
    "graph.validate_network.s": "s",
    "graph.action_times.s": "s",
    "graph.action_times.calls": "count",
    "simulate.self_s": "s",
    "simulate.simulate.s": "s",
    "simulate.simulate.calls": "count",
    "simulate.node_steps": "count",
    "simulate.node_steps_per_s": "1/s",
    "simulate.history_mb": "MB",
    "irm.self_s": "s",
    "irm.oracle_irm.s": "s",
    "irm.oracle_irm.deltas": "count",
    "irm.sample_irm.s": "s",
    "irm.measure_irm.self_s": "s",
    "irm.irm_row_from_step_response.s": "s",
    "irm.median_smooth.s": "s",
    "irm.resample.s": "s",
    "irm.save_irm.s": "s",
    "irm.load_irm.s": "s",
    "irm.file_mb": "MB",
    "inversion.self_s": "s",
    "inversion.volume_profile.s": "s",
    "inversion.points": "count",
    "inversion.points_per_s": "1/s",
    "inversion.assemble_system.s": "s",
    "inversion.assemble_system.calls": "count",
    "inversion.solve_boundary_flows.s": "s",
    "inversion.active_unknowns.p50": "count",
    "inversion.active_unknowns.max": "count",
    "trace.pipeline_s": "s",
    "trace.overhead_s": "s",
    "trace.accounted_frac": "ratio",
}
LAYERS = ("cli", "graph", "simulate", "irm", "inversion")


@dataclass(frozen=True)
class Workload:
    irm_command: str
    exact: bool
    preset: str | None = None  # stock network and settings, or
    tree: str | None = None  # a treegen kind, whose probe pipe is reconstructed
    irm_args: tuple[str, ...] = ()
    recon_args: tuple[str, ...] = ()
    irm_runs: int = 1  # IRM commands per timed pipeline, for more samples of a short one


# Why each workload exists, and what each should move, is in README.md.
WORKLOADS = {
    "exp1-exact": Workload("oracle-irm", exact=True, preset="exp1"),
    # its IRM command is an eighth of the pipeline and the noisiest time with one run
    "exp2-measured": Workload("simulate-irm", exact=False, preset="exp2", irm_runs=3),
    "tree-measured": Workload(
        "simulate-irm",
        exact=False,
        tree="measured",
        irm_args=("--dx", "5", "--courant", "0.95", "--duration", "2.6", "--resample-dt", "0.007"),
        recon_args=("--tau", "1.2", "--dx", "7", "--lambda", "1e-5"),
    ),
    "tree-exact": Workload(
        "oracle-irm",
        exact=True,
        tree="exact",
        irm_args=("--horizon", "2.4", "--dt", "0.01"),
        recon_args=("--tau", "1.195", "--dx", "10", "--lambda", "1e-5"),
    ),
}


@dataclass(frozen=True)
class Inputs:
    net: object  # pipescope.graph.Network
    digest: str  # sha256 of the network's canonical JSON
    irm_argv: list[str]
    recon_argv: list[str]
    irm_path: str
    recon_dir: str
    pipes: list[str]  # the reconstructed pipes, all checked
    dx: float


@dataclass(frozen=True)
class Pipeline:
    irm_walls: tuple[float, ...]  # one per IRM command run
    recon_s: float
    ok: bool
    area_err: float
    digests: dict
    reason: str = ""
    blocks: tuple[float, ...] | None = None  # reference blocks before, between and after the commands

    @property
    def irm_s(self) -> float:
        return statistics.fmean(self.irm_walls)

    @property
    def total_s(self) -> float:
        return self.irm_s + self.recon_s


def scaled_command_times(pipelines: list[Pipeline]) -> tuple[list[float], list[float], list[float]]:
    """Scaled times of pipelines run back to back with reference blocks between their commands.

    Returns the scaled times of every IRM run and every ``reconstruct``, and
    each pipeline's scaled total: the mean of its IRM runs plus its ``reconstruct``.
    """
    walls = [t for p in pipelines for t in (*p.irm_walls, p.recon_s)]
    blocks = [pipelines[0].blocks[0]] + [b for p in pipelines for b in p.blocks[1:]]
    scaled = iter(refspeed.scaled_times(walls, blocks))
    irm, recon, totals = [], [], []
    for p in pipelines:
        runs = [next(scaled) for _ in p.irm_walls]
        irm += runs
        recon.append(next(scaled))
        totals.append(statistics.fmean(runs) + recon[-1])
    return irm, recon, totals


def prepare(name: str, seed: int, work: str) -> Inputs:
    """Generate and validate a workload's inputs and build its two command lines."""
    from pipescope.graph import validate_network
    from pipescope.presets import preset

    import treegen

    wl = WORKLOADS[name]
    irm_path = os.path.join(work, "irm.csv")
    recon_dir = os.path.join(work, "recon")
    recon_args = list(wl.recon_args)
    if wl.preset:
        stock = preset(wl.preset)
        spec = stock["network"]
        net_args = ["--preset", wl.preset]
        pipes, dx = list(stock["reconstruct"]["pipes"]), float(stock["reconstruct"]["dx"])
    else:
        spec = treegen.generate(seed, wl.tree)
        net_path = os.path.join(work, "network.json")
        with open(net_path, "w") as fh:
            fh.write(treegen.dumps(spec))
        net_args = ["--network", net_path]
        pipes, dx = [treegen.PROBE_ID], float(recon_args[recon_args.index("--dx") + 1])
        recon_args += ["--pipes", treegen.PROBE_ID]
    net = validate_network(spec)
    return Inputs(
        net=net,
        digest=hashlib.sha256(treegen.dumps(spec).encode()).hexdigest(),
        irm_argv=[wl.irm_command, *net_args, *wl.irm_args, "--out", irm_path],
        recon_argv=["reconstruct", *net_args, "--irm", irm_path, *recon_args, "--out", recon_dir],
        irm_path=irm_path,
        recon_dir=recon_dir,
        pipes=pipes,
        dx=dx,
    )


def output_digests(inp: Inputs) -> dict:
    """sha256 of every output file but the manifests, which record wall time."""
    paths = [inp.irm_path] + sorted(
        os.path.join(inp.recon_dir, f) for f in os.listdir(inp.recon_dir) if f.endswith(".csv")
    )
    digests = {}
    for path in paths:
        with open(path, "rb") as fh:
            digests[os.path.basename(path)] = hashlib.sha256(fh.read()).hexdigest()
    return digests


def run_pipeline(cli_run, inp: Inputs, exact: bool, reference: dict | None,
                 block_before: float | None = None, irm_runs: int = 1) -> Pipeline:
    """Run and check one pipeline: ``irm_runs`` IRM commands, then ``reconstruct``.

    With ``block_before``, the time of a reference block just run,
    reference blocks also run after every command.
    """
    import checks

    irm_walls, blocks = [], [block_before]
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        for _ in range(irm_runs):
            t0 = time.perf_counter()
            rc_irm = cli_run(inp.irm_argv)
            irm_walls.append(time.perf_counter() - t0)
            if block_before is not None:
                blocks.append(refspeed.block())
            if rc_irm != 0:
                break
        t1 = time.perf_counter()
        rc_recon = cli_run(inp.recon_argv) if rc_irm == 0 else None
        recon_s = time.perf_counter() - t1
        if block_before is not None:
            blocks.append(refspeed.block())
    ref_blocks = tuple(blocks) if block_before is not None else None
    irm_walls = tuple(irm_walls)
    if rc_irm != 0 or rc_recon != 0:
        # nothing reconstructed counts as a 100% error
        return Pipeline(irm_walls, recon_s, False, 1.0, {}, f"exit codes {rc_irm}, {rc_recon}", ref_blocks)
    worst, reason = 0.0, ""
    for pid in inp.pipes:
        positions, areas = checks.read_profile(os.path.join(inp.recon_dir, f"{pid}_area.csv"))
        base, blocks = checks.truth_in_profile_coords(inp.net, pid)
        result = checks.check_profile(positions, areas, base, blocks, inp.dx, exact)
        worst = max(worst, result.area_err)
        if not result.ok:
            reason = reason or f"{pid}: {result.reason}"
    digests = output_digests(inp)
    if not reason and reference is not None and digests != reference:
        reason = "outputs differ from the first pipeline's"
    return Pipeline(irm_walls, recon_s, not reason, worst, digests, reason, ref_blocks)


def replay_matches(cli_run, inp: Inputs, reference: dict) -> bool:
    """``pipescope replay`` of both manifests rewrites the outputs byte for byte."""
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        for manifest in (f"{inp.irm_path}.manifest.json", os.path.join(inp.recon_dir, "manifest.json")):
            if cli_run(["replay", manifest]) != 0:
                return False
    return output_digests(inp) == reference


def trace_targets():
    """(module, attribute, span name, on_result) for every traced call site."""
    import pipescope.cli as cli
    import pipescope.inversion as inversion
    import pipescope.irm as irm

    def oracle_deltas(tracer, result, args):
        tracer.record("deltas", sum(len(train) for train in result.deltas.values()))

    def irm_file(tracer, result, args):
        tracer.record("file_mb", os.path.getsize(args[1]) / 1e6)

    def history(tracer, result, args):
        nodes = sum(len(grid.x) for grid in result.grids.values())
        tracer.record("node_steps", nodes * (len(result.t) - 1))
        arrays = [result.t, *result.H.values(), *result.Q.values(), *result.boundary.values()]
        tracer.record("history_mb", sum(a.nbytes for a in arrays) / 1e6)

    def points(tracer, result, args):
        tracer.record("points", len(result.volumes))

    def active(tracer, result, args):
        tracer.record("active_unknowns", int(result.active.sum()))

    return [
        (cli, "validate_network", "graph.validate_network", None),
        (cli, "oracle_irm", "irm.oracle_irm", oracle_deltas),
        (cli, "sample_irm", "irm.sample_irm", None),
        (cli, "measure_irm", "irm.measure_irm", None),
        (cli, "save_irm", "irm.save_irm", irm_file),
        (cli, "load_irm", "irm.load_irm", None),
        (cli, "volume_profile", "inversion.volume_profile", points),
        (cli, "area_profile", "inversion.area_profile", None),
        (irm, "simulate", "simulate.simulate", history),
        (irm, "step_inflow", "simulate.step_inflow", None),
        (irm, "irm_row_from_step_response", "irm.irm_row_from_step_response", None),
        (irm, "median_smooth", "irm.median_smooth", None),
        (irm, "resample", "irm.resample", None),
        (inversion, "action_times", "graph.action_times", None),
        (inversion, "assemble_system", "inversion.assemble_system", active),
        (inversion, "solve_boundary_flows", "inversion.solve_boundary_flows", None),
    ]


def layer_metrics(tracer, run: int, wall: float) -> dict[str, float]:
    """PER_LAYER values of traced pipeline ``run``, which took ``wall`` seconds."""
    spans = tracer.totals().get(run, {})

    def stat(name, i):  # i: 0 total seconds, 1 self seconds, 2 calls
        return spans.get(name, (0.0, 0.0, 0))[i]

    def recorded(key):
        return tracer.recorded(run, key)

    layer_self = {
        layer: sum(s for name, (_, s, _) in spans.items() if name.split(".")[0] == layer)
        for layer in LAYERS
    }
    active = recorded("active_unknowns")
    n_points = sum(recorded("points"))
    node_steps = sum(recorded("node_steps"))
    profile_s = stat("inversion.volume_profile", 0)
    sim_s = stat("simulate.simulate", 0)
    return {
        "cli.self_s": layer_self["cli"],
        "graph.self_s": layer_self["graph"],
        "graph.validate_network.s": stat("graph.validate_network", 0),
        "graph.action_times.s": stat("graph.action_times", 0),
        "graph.action_times.calls": stat("graph.action_times", 2),
        "simulate.self_s": layer_self["simulate"],
        "simulate.simulate.s": sim_s,
        "simulate.simulate.calls": stat("simulate.simulate", 2),
        "simulate.node_steps": node_steps,
        "simulate.node_steps_per_s": node_steps / sim_s if sim_s else 0.0,
        "simulate.history_mb": sum(recorded("history_mb")),
        "irm.self_s": layer_self["irm"],
        "irm.oracle_irm.s": stat("irm.oracle_irm", 0),
        "irm.oracle_irm.deltas": sum(recorded("deltas")),
        "irm.sample_irm.s": stat("irm.sample_irm", 0),
        "irm.measure_irm.self_s": stat("irm.measure_irm", 1),
        "irm.irm_row_from_step_response.s": stat("irm.irm_row_from_step_response", 0),
        "irm.median_smooth.s": stat("irm.median_smooth", 0),
        "irm.resample.s": stat("irm.resample", 0),
        "irm.save_irm.s": stat("irm.save_irm", 0),
        "irm.load_irm.s": stat("irm.load_irm", 0),
        "irm.file_mb": sum(recorded("file_mb")),
        "inversion.self_s": layer_self["inversion"],
        "inversion.volume_profile.s": profile_s,
        "inversion.points": n_points,
        "inversion.points_per_s": n_points / profile_s if profile_s else 0.0,
        "inversion.assemble_system.s": stat("inversion.assemble_system", 0),
        "inversion.assemble_system.calls": stat("inversion.assemble_system", 2),
        "inversion.solve_boundary_flows.s": stat("inversion.solve_boundary_flows", 0),
        "inversion.active_unknowns.p50": statistics.median(active) if active else 0,
        "inversion.active_unknowns.max": max(active, default=0),
        "trace.pipeline_s": wall,
        "trace.accounted_frac": sum(layer_self.values()) / wall,
    }


def time_setup(workload: str, seed: int) -> tuple[list[float], list[float]]:
    """Seconds from starting a fresh interpreter to its inputs being ready to run.

    Starts ``SETUP_REPEATS`` interpreters one after another with reference
    blocks between them; returns the scaled and the wall times.
    """
    argv = [sys.executable, os.path.abspath(__file__), "--workload", workload,
            "--seed", str(seed), "--setup-only"]
    walls, blocks = [], [refspeed.block()]
    for _ in range(SETUP_REPEATS):
        started = time.perf_counter()
        with subprocess.Popen(argv, stdout=subprocess.PIPE, text=True) as child:
            line = child.stdout.readline()
            walls.append(time.perf_counter() - started)
            child.stdout.read()
        if child.returncode != 0 or line.strip() != "ready":
            raise RuntimeError(f"set-up process for {workload} failed with exit code {child.returncode}")
        blocks.append(refspeed.block())
    return refspeed.scaled_times(walls, blocks), walls


def _blas_threads() -> int | None:
    """Threads of the OpenBLAS that numpy loaded, asked from the library itself."""
    try:
        with open("/proc/self/maps") as fh:
            libs = sorted({line.split()[-1] for line in fh if "openblas" in line.lower()})
    except OSError:
        return None
    for path in libs:
        if not os.path.isabs(path):
            continue
        lib = ctypes.CDLL(path)
        for symbol in ("scipy_openblas_get_num_threads64_", "scipy_openblas_get_num_threads",
                       "openblas_get_num_threads64_", "openblas_get_num_threads"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return fn()
    return None


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor()


def _git_commit() -> str | None:
    if not os.path.isdir(os.path.join(ROOT, ".git")):
        return None
    try:
        done = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"], capture_output=True, text=True)
    except OSError:
        return None
    return done.stdout.strip() or None


def environment(seed: int) -> dict:
    import numpy as np

    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas_name": blas.get("name"),
        "blas_version": blas.get("version"),
        "blas_threads": _blas_threads(),
        "blas_threads_env": os.environ["OPENBLAS_NUM_THREADS"],
        "nproc": os.cpu_count(),
        "cpu_model": _cpu_model(),
        "git_commit": _git_commit(),
        "seed": seed,
    }


def _metric(value: float, unit: str) -> dict:
    return {"value": value, "unit": unit}


def bench(workload: str, seed: int, seconds: float, trace: bool):
    """Run one workload; returns (result, detail) as printed on the last two lines."""
    setup, setup_walls = ([], []) if trace else time_setup(workload, seed)

    import pipescope.cli as cli

    from tracing import Tracer

    wl = WORKLOADS[workload]
    os.makedirs(WORK_ROOT, exist_ok=True)
    work = tempfile.mkdtemp(dir=WORK_ROOT)
    tracer = Tracer()
    traced_run = tracer.wrap(cli.run, "cli.run")
    try:
        inp = prepare(workload, seed, work)
        warmup = run_pipeline(cli.run, inp, wl.exact, None)
        reference = warmup.digests
        untraced, traced = [], []
        block = None if trace else refspeed.block()
        started = time.perf_counter()
        while not untraced or time.perf_counter() - started < seconds:
            untraced.append(run_pipeline(cli.run, inp, wl.exact, reference, block,
                                         1 if trace else wl.irm_runs))
            if trace:
                tracer.run = len(traced)
                with tracer.installed(trace_targets()):
                    traced.append(run_pipeline(traced_run, inp, wl.exact, reference))
            else:
                block = untraced[-1].blocks[-1]
        replay_ok = replay_matches(cli.run, inp, reference)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    pipelines = [warmup, *untraced, *traced]
    failed = sum(not p.ok for p in pipelines)
    fastest = min(p.total_s for p in untraced)
    if trace:
        best = min(range(len(traced)), key=lambda k: traced[k].total_s)
        values = layer_metrics(tracer, best, traced[best].total_s)
        values["trace.overhead_s"] = traced[best].total_s - fastest
        metrics = {name: _metric(values[name], unit) for name, unit in PER_LAYER.items()}
    else:
        irm_scaled, recon_scaled, pipeline_scaled = scaled_command_times(untraced)
        metrics = {
            "pipeline_s": _metric(statistics.median(pipeline_scaled), "s"),
            "irm_s": _metric(statistics.median(irm_scaled), "s"),
            "reconstruct_s": _metric(statistics.median(recon_scaled), "s"),
            "setup_s": _metric(statistics.median(setup), "s"),
            "peak_rss_mb": _metric(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
            "area_err": _metric(max(p.area_err for p in pipelines), "ratio"),
            "ok_frac": _metric((len(pipelines) - failed) / len(pipelines), "ratio"),
        }
    result = {
        "correct": failed == 0 and replay_ok,
        "attempted": len(pipelines),
        "failed": failed,
        "metrics": metrics,
    }
    detail = {
        "workload": workload,
        "network_sha256": inp.digest,
        "environment": environment(seed),
        "replay_ok": replay_ok,
        "failures": sorted({p.reason for p in pipelines if not p.ok}),
        "samples": {
            "irm_wall_s": [p.irm_walls for p in untraced],
            "reconstruct_wall_s": [p.recon_s for p in untraced],
            "reference_blocks_s": [p.blocks for p in untraced],
            "traced_pipeline_s": [p.total_s for p in traced],
            "setup_s": setup,
            "setup_wall_s": setup_walls,
        },
    }
    return result, detail


def run_all(seed: int, seconds: float, trace: bool) -> dict:
    """Every workload in a process of its own, one after another.

    Prints one line per metric and returns the combined result, with
    metric names prefixed by their workload.
    """
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in WORKLOADS:
        argv = [sys.executable, os.path.abspath(__file__), "--workload", name, "--seed", str(seed),
                "--seconds", str(seconds), "--trace", str(int(trace))]
        done = subprocess.run(argv, capture_output=True, text=True)
        if done.returncode != 0:
            raise RuntimeError(f"{name} exited with code {done.returncode}: {done.stderr.strip()}")
        result = json.loads(done.stdout.splitlines()[-1])
        for metric, value in result["metrics"].items():
            print(f"{name:14} {metric:34} {value['value']:<12.6g} {value['unit']}")
            combined["metrics"][f"{name}.{metric}"] = value
        combined["correct"] = combined["correct"] and result["correct"]
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
    return combined


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=[*WORKLOADS, "all"], required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    if not os.path.isdir(os.path.join(SRC, "pipescope")):
        print(f"perfbench: no pipescope sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)

    if args.setup_only:
        os.makedirs(WORK_ROOT, exist_ok=True)
        work = tempfile.mkdtemp(dir=WORK_ROOT)
        try:
            import pipescope.cli  # noqa: F401  (numpy and BLAS load with it, as for a user)

            prepare(args.workload, args.seed, work)
            print("ready", flush=True)
        finally:
            shutil.rmtree(work, ignore_errors=True)
        return 0

    if args.workload == "all":
        print(json.dumps(run_all(args.seed, args.seconds, bool(args.trace))))
        return 0
    result, detail = bench(args.workload, args.seed, args.seconds, bool(args.trace))
    print(json.dumps(detail))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
