"""Impulse-response matrix: oracle, binning, processing pipeline, persistence."""

import copy
import heapq
import importlib
import json
import math
import os
import re
import subprocess
import sys
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from pipescope import (
    AnalyticIRM,
    SampledIRM,
    SimConfig,
    load_irm,
    measure_irm,
    oracle_irm,
    sample_irm,
    save_irm,
    step_inflow,
    validate_network,
)
from pipescope.errors import ConfigError, NumericError
from pipescope.irm import _CHUNK, _saved_fields, grid_size
from pipescope.presets import EXP1_NETWORK, EXP2_NETWORK
from pipescope.simulate import _run_size, junction_scatter, simulate_runs

C = 1000.0 / 9.81  # a/(gA) for unit area
IRM_MODULE = importlib.import_module("pipescope.irm")


# -- analytic oracle ----------------------------------------------------------


def _assert_train(train, expected):
    assert [t for t, _ in train] == pytest.approx([t for t, _ in expected])
    assert [w / C for _, w in train] == pytest.approx([w for _, w in expected])


def test_oracle_exp1_delta_trains(exp1_net):
    an = oracle_irm(exp1_net, horizon=1.61)
    _assert_train(an.deltas[(0, 0)], [(0.8, -2 / 3), (1.4, 8 / 9), (1.6, 2 / 9)])
    _assert_train(an.deltas[(1, 1)], [(0.6, -2 / 3), (1.2, 2 / 9), (1.4, 8 / 9)])
    _assert_train(an.deltas[(0, 1)], [(0.7, 4 / 3), (1.3, -4 / 9), (1.5, -4 / 9)])


def test_oracle_reciprocity_exact(exp1_net):
    an = oracle_irm(exp1_net, horizon=3.0)
    assert an.deltas[(0, 1)] == an.deltas[(1, 0)]


def test_oracle_single_pipe_round_trips(single_pipe_net):
    # closed far end: measured echoes of the doubled wall reflection at 2kL/a
    an = oracle_irm(single_pipe_net, horizon=2.1)
    assert [(t, w / C) for t, w in an.deltas[(0, 0)]] == pytest.approx(
        [(1.0, 2.0), (2.0, 2.0)]
    )


def test_oracle_pruning_drops_weak_fronts(exp1_net):
    an = oracle_irm(exp1_net, horizon=1.61, prune_eps=0.5)
    # the -1/3 reflection back onto AD is pruned, the 2/3 transmissions survive
    times_aa = [t for t, _ in an.deltas[(0, 0)]]
    assert 0.8 not in times_aa
    assert [t for t, _ in an.deltas[(0, 1)]] == [0.7]


def test_oracle_event_guard(exp1_net):
    with pytest.raises(NumericError, match="more than 200 wavefront events before 50.0s"):
        oracle_irm(exp1_net, horizon=50.0, prune_eps=1e-12, max_events=200)


def test_oracle_refuses_a_huge_horizon_at_once():
    # the amplitude unit's exponent is capped by the event guard, so a horizon of 1e308 s trips the guard instead
    # of raising den to a power past 1e308; a child process, timed out and held to 2 GB, keeps a hang off the suite
    code = (
        "import resource; resource.setrlimit(resource.RLIMIT_AS, (2 << 30, 2 << 30))\n"
        "from pipescope import oracle_irm, validate_network\n"
        "from pipescope.errors import NumericError\n"
        "from pipescope.presets import EXP1_NETWORK\n"
        "try:\n"
        "    oracle_irm(validate_network(EXP1_NETWORK), 1e308, max_events=1000)\n"
        "except NumericError as exc:\n"
        "    print('refused' if 'more than 1000 wavefront events' in str(exc) else exc)\n"
    )
    source = os.path.dirname(os.path.dirname(importlib.import_module("pipescope").__file__))
    env = {**os.environ, "PYTHONPATH": source, "OPENBLAS_NUM_THREADS": "1"}
    done = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, timeout=60, env=env)
    assert done.stdout == "refused\n", done.stderr


def test_oracle_rejects_nonuniform(exp2_net):
    with pytest.raises(ConfigError, match="pipe '.*' has a nonconstant area profile"):
        oracle_irm(exp2_net, horizon=1.0)


def test_oracle_rejects_table_area(exp1_spec):
    exp1_spec["pipes"][0]["area"] = {"samples": {"x": [0.0, 100.0, 200.0, 400.0], "A": [1.0, 1.0, 0.7, 0.7]}}
    with pytest.raises(ConfigError, match="pipe 'AD' has a nonconstant area profile"):
        oracle_irm(validate_network(exp1_spec), horizon=1.0)


def _uniform_spec(spec):
    spec = copy.deepcopy(spec)
    for p in spec["pipes"]:
        p["area"] = {"base": 1.0, "blocks": []}
    return spec


def test_oracle_exp2_uniform_baseline():
    # all-unit-area version of the star network: 4-pipe junction T = 1/2
    net = validate_network(_uniform_spec(EXP2_NETWORK))
    an = oracle_irm(net, horizon=0.7)
    t0, w0 = an.deltas[(0, 0)][0]
    assert t0 == pytest.approx(0.6)
    assert w0 / C == pytest.approx(2 * (-1.0 / 2.0))


def _reference_oracle(net, horizon, prune_eps=1e-4):
    """The wavefront oracle with Fraction times and per-event scattering, as a reference.

    Returns the AnalyticIRM and the largest per-source event count.
    """
    a = Fraction(net.wave_speed)
    g = Fraction(net.gravity)
    admittance = {pid: g * Fraction(float(p.area(0.0))) / a for pid, p in net.pipes.items()}
    travel = {pid: Fraction(p.length) / a for pid, p in net.pipes.items()}
    horizon_fr = Fraction(horizon)
    n = len(net.accessible)
    leaf_index = {leaf: i for i, leaf in enumerate(net.accessible)}
    arrivals = {(i, j): {} for i in range(n) for j in range(n)}
    most_events = 0
    for i, source in enumerate(net.accessible):
        pipe = net.leaf_pipe(source)
        amp0 = a / (g * Fraction(float(net.leaf_area(source))))
        threshold = Fraction(prune_eps) * amp0
        other = pipe.to_vertex if pipe.from_vertex == source else pipe.from_vertex
        heap = []
        seq = 0
        if travel[pipe.id] <= horizon_fr:
            heap.append((travel[pipe.id], seq, other, pipe.id, amp0))
        events = 0
        while heap:
            t, _, vertex, via, amp = heapq.heappop(heap)
            events += 1

            def push(next_vertex, next_pipe, amplitude):
                nonlocal seq
                t_arr = t + travel[next_pipe]
                if abs(amplitude) > threshold and t_arr <= horizon_fr:
                    seq += 1
                    heapq.heappush(heap, (t_arr, seq, next_vertex, next_pipe, amplitude))

            def far(pid):
                p = net.pipes[pid]
                return p.to_vertex if p.from_vertex == vertex else p.from_vertex

            if net.degree(vertex) == 1:
                if vertex != net.x0:
                    bucket = arrivals[(i, leaf_index[vertex])]
                    bucket[t] = bucket.get(t, Fraction(0)) + 2 * amp
                push(far(via), via, amp)
            else:
                ids = [p.id for p in net.adjacent_pipes(vertex)]
                incident = ids.index(via)
                reflected, transmitted = junction_scatter(amp, incident, [admittance[pid] for pid in ids])
                for pid, t_amp in zip([pid for k, pid in enumerate(ids) if k != incident], transmitted):
                    push(far(pid), pid, t_amp)
                push(far(via), via, reflected)
        most_events = max(most_events, events)
    deltas = {
        key: tuple((float(t), float(c)) for t, c in sorted(bucket.items()) if c != 0)
        for key, bucket in arrivals.items()
    }
    return AnalyticIRM(net.accessible, deltas, horizon), most_events


# a uniform tree whose travel times are not decimal: 123.4 m is a binary fraction with a long denominator
ODD_TREE = {
    "wave_speed": 1000.0,
    "gravity": 9.81,
    "vertices": ["x0", "J1", "J2", "L1", "L2", "L3"],
    "pipes": [
        {"id": "P1", "from": "J1", "to": "x0", "length": 240.0, "area": {"base": 1.5, "blocks": []}},
        {"id": "P2", "from": "L1", "to": "J1", "length": 280.0, "area": {"base": 1.5, "blocks": []}},
        {"id": "P3", "from": "J1", "to": "J2", "length": 123.4, "area": {"base": 1.5, "blocks": []}},
        {"id": "P4", "from": "L2", "to": "J2", "length": 240.0, "area": {"base": 1.5, "blocks": []}},
        {"id": "P5", "from": "J2", "to": "L3", "length": 280.0, "area": {"base": 1.5, "blocks": []}},
    ],
    "x0": "x0",
    "accessible": ["L1", "L2", "L3"],
}


def _six_leaf_tree(areas):
    """A tree of the benchmark's shape: 6 leaves, 5 junctions, 240 m pipes and one 280 m pipe; areas cycle."""
    ends = [("J1", "x0"), ("J2", "J1"), ("J3", "J1"), ("J4", "J2"), ("L1", "J2"), ("L2", "J3"),
            ("J5", "J3"), ("L3", "J4"), ("L4", "J4"), ("L5", "J5"), ("L6", "J5")]
    pipes = [
        {"id": f"P{n:02d}", "from": a, "to": b, "length": 280.0 if a == "L6" else 240.0,
         "area": {"base": areas[n % len(areas)], "blocks": []}}
        for n, (a, b) in enumerate(ends)
    ]
    vertices = sorted({v for e in ends for v in e})
    return {"wave_speed": 1000.0, "gravity": 9.81, "vertices": vertices, "pipes": pipes, "x0": "x0",
            "accessible": [f"L{n}" for n in range(1, 7)]}


# uniform areas: many fronts meet at the same tick and rule with the same amplitude
SIX_LEAF_UNIFORM = _six_leaf_tree([1.0])
# areas that are not binary fractions: the scattering coefficients have long denominators
SIX_LEAF_MIXED = _six_leaf_tree([1.1, 0.7, 1.3])


@pytest.mark.parametrize(
    "spec, horizon, prune_eps",
    [
        (EXP1_NETWORK, 3.0, 1e-4),
        (EXP1_NETWORK, 1.6, 1e-4),  # arrivals exactly at the horizon (as a float, 1.6 is just above 8/5)
        (EXP1_NETWORK, 1.5999999999999999, 1e-4),  # just below 8/5: those arrivals drop out
        (_uniform_spec(EXP2_NETWORK), 1.5, 1e-4),
        (ODD_TREE, 2.0, 1e-4),
        (ODD_TREE, 2.0, 1e-6),
        (SIX_LEAF_UNIFORM, 2.4, 1e-4),
        (SIX_LEAF_MIXED, 2.4, 1e-6),
        (SIX_LEAF_MIXED, 1.2, 0.0),
    ],
    ids=["exp1", "exp1-at-horizon", "exp1-below-horizon", "exp2-uniform", "odd-tree-1e-4", "odd-tree-1e-6",
         "six-leaf-uniform", "six-leaf-mixed-1e-6", "six-leaf-mixed-unpruned"],
)
def test_oracle_matches_fraction_time_reference(spec, horizon, prune_eps):
    net = validate_network(spec)
    expected, _ = _reference_oracle(net, horizon, prune_eps)
    assert oracle_irm(net, horizon, prune_eps=prune_eps) == expected


def test_oracle_pruned_mixed_tree_matches_reference():
    # at 1e-4 pruning drops different fronts from different sources on this tree,
    # so (i, j) and (j, i) differ, and each source keeps its own trains
    net = validate_network(SIX_LEAF_MIXED)
    expected, _ = _reference_oracle(net, 2.4)
    got = oracle_irm(net, 2.4)
    assert any(expected.deltas[(i, j)] != expected.deltas[(j, i)] for i, j in expected.deltas)
    assert got == expected


def test_oracle_event_guard_boundary_matches_reference():
    net = validate_network(ODD_TREE)
    expected, events = _reference_oracle(net, 2.0)
    with pytest.raises(NumericError, match=f"more than {events - 1} wavefront events"):
        oracle_irm(net, 2.0, max_events=events - 1)
    assert oracle_irm(net, 2.0, max_events=events) == expected


def test_oracle_event_guard_counts_merged_fronts_one_by_one():
    # on the uniform tree many identical fronts merge; the guard still counts each of them
    net = validate_network(SIX_LEAF_UNIFORM)
    expected, events = _reference_oracle(net, 2.4)
    with pytest.raises(NumericError, match=f"more than {events - 1} wavefront events"):
        oracle_irm(net, 2.4, max_events=events - 1)
    assert oracle_irm(net, 2.4, max_events=events) == expected


@pytest.mark.parametrize(
    "horizon, prune_eps",
    [(math.nan, 1e-4), (math.inf, 1e-4), (-1.0, 1e-4), (1.0, math.nan), (1.0, math.inf), (1.0, -1.0)],
)
def test_oracle_rejects_bad_horizon_or_prune_eps(exp1_net, horizon, prune_eps):
    with pytest.raises(ConfigError, match=f"horizon {horizon} and prune_eps {prune_eps} must be finite and >= 0"):
        oracle_irm(exp1_net, horizon, prune_eps=prune_eps)


# -- binning ------------------------------------------------------------------


def test_sample_irm_exp1_bins(exp1_net):
    irm = sample_irm(oracle_irm(exp1_net, horizon=1.61), dt=0.01)
    assert irm.n_samples == 162
    assert list(np.nonzero(irm.k[0, 0])[0]) == [80, 140, 160]
    assert irm.k[0, 0, 80] == pytest.approx(-(2 / 3) * C / 0.01, rel=1e-12)
    assert list(np.nonzero(irm.k[0, 1])[0]) == [70, 130, 150]


def test_sample_irm_empty():
    an = AnalyticIRM(("A",), {(0, 0): ()}, horizon=1.0)
    irm = sample_irm(an, dt=0.1)
    assert irm.k.shape == (1, 1, 11)
    assert np.all(irm.k == 0.0)


def test_sample_irm_same_bin_sums():
    an = AnalyticIRM(("A",), {(0, 0): ((0.501, 2.0), (0.503, 3.0))}, horizon=1.0)
    irm = sample_irm(an, dt=0.01)
    assert irm.k[0, 0, 50] == pytest.approx(500.0)


@pytest.mark.parametrize("dt, message", [(1e-12, r"6440000000004 kernel samples, needs \d+ bytes"),
                                         (5e-324, "kernel samples 5e-324 s apart over 1.61 s does not fit")])
def test_sample_irm_grid_past_memory_refused_before_allocating(exp1_net, monkeypatch, dt, message):
    # a grid of about 1.6e12 samples per kernel, and a sample count that overflows: neither is allocated
    analytic = oracle_irm(exp1_net, horizon=1.61)
    monkeypatch.setattr(importlib.import_module("pipescope.errors"), "_physical_memory", lambda: 1 << 33)
    monkeypatch.setattr(np, "zeros", lambda *args: pytest.fail("allocated"))
    with pytest.raises(ConfigError, match=message):
        sample_irm(analytic, dt)


def test_sample_irm_half_open_bin_edge():
    # t0 exactly between grid points: the lower bin wins the half-open test
    an = AnalyticIRM(("A",), {(0, 0): ((0.055, 1.0),)}, horizon=0.1)
    irm = sample_irm(an, dt=0.01)
    assert irm.k[0, 0, 5] == pytest.approx(100.0)
    assert irm.k[0, 0, 6] == 0.0


# -- measured kernels -------------------------------------------------------


def test_resample_exp2_regrid_length():
    # 0..1.9 s at dt = 0.007 keeps 272 samples
    assert grid_size(1.9, 0.007) == 272


def test_measured_kernels_vanish_near_zero(exp1_net):
    cfg = SimConfig(dx=5.0, duration=1.0, courant=1.0)
    irm, _ = measure_irm(exp1_net, cfg)
    t = np.arange(irm.n_samples) * irm.dt
    # self kernel silent until the first junction echo at 0.8 s
    quiet = t < 0.8 - 0.05
    assert np.abs(irm.k[0, 0][quiet]).max() < 1e-9
    # cross kernel silent until the A-to-B arrival at 0.7 s
    quiet = t < 0.7 - 0.05
    assert np.abs(irm.k[0, 1][quiet]).max() < 1e-9


@pytest.mark.parametrize("resample_dt, fields", [(0.0, False), (0.007, True)])
def test_measurement_past_physical_memory_refused_before_any_run(exp2_net, monkeypatch, resample_dt, fields):
    # step series, inflow per vertex, a trace per leaf, H and Q per node with fields, the batch's per-node and
    # per-pipe-end working arrays, its grids and times, the kernel grid, and one source's kernels (per leaf, its g
    # and R series, R on the grid and its two differences), against a physical memory set a byte either side of
    # that sum: no step series or run is made when refused
    irm_module = importlib.import_module("pipescope.irm")
    errors_module = importlib.import_module("pipescope.errors")
    cfg = SimConfig(dx=10.0, duration=0.6, courant=0.95)
    cells, dt, n_steps = _run_size(exp2_net, cfg)
    n, n_nodes, n_vertices = len(exp2_net.accessible), sum(cells) + len(cells), len(exp2_net.vertices)
    dt_out = resample_dt or dt
    n_out = grid_size(n_steps * dt - dt_out, dt_out)
    need = 8 * n * ((n_steps + 1) * (1 + n_vertices + n + (2 * n_nodes if fields else 0)) + n * n_out
                    + 2 * (n_steps + 1) + 3 * n_out)
    need += 8 * ((n_steps + 1) + n * (20 * n_nodes + 2 * 12 * len(cells)) + 4 * n_nodes)
    calls = []
    monkeypatch.setattr(irm_module, "step_inflow", lambda *args: calls.append(args))
    monkeypatch.setattr(errors_module, "_physical_memory", lambda: need - 1)
    with pytest.raises(ConfigError, match=f"{n} runs of {sum(cells)} cells and {n_steps} time steps, and "
                                         f"{n * n * n_out} kernel samples, needs {need} bytes"):
        measure_irm(exp2_net, cfg, resample_dt=resample_dt, fields=fields)
    assert calls == []
    monkeypatch.undo()
    monkeypatch.setattr(errors_module, "_physical_memory", lambda: need)
    irm, runs = measure_irm(exp2_net, cfg, resample_dt=resample_dt, fields=fields)
    assert irm.k.shape == (n, n, n_out) and len(runs) == n


def _traced_peak_and_estimates(monkeypatch, net, dx, duration, resample_dt):
    """The traced peak of a warmed ``measure_irm`` and the byte counts its memory guards checked."""
    irm_module = importlib.import_module("pipescope.irm")
    allocating, estimates = irm_module._allocating, []

    def recorded(what, n_bytes=0):
        if n_bytes:  # the guard around the grid's sample count sizes no array
            estimates.append(n_bytes)
        return allocating(what, n_bytes)

    monkeypatch.setattr(irm_module, "_allocating", recorded)
    measure_irm(net, SimConfig(dx=dx, duration=0.1, courant=0.95), resample_dt=resample_dt)  # warm up
    estimates.clear()
    tracemalloc.start()
    try:
        measure_irm(net, SimConfig(dx=dx, duration=duration, courant=0.95), resample_dt=resample_dt)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    return peak, estimates


@pytest.mark.parametrize("dx", [0.5, 0.25])
@pytest.mark.parametrize("resample_dt", [0.0, 0.007])
def test_measurement_peak_within_memory_estimate(exp2_net, monkeypatch, dx, resample_dt):
    # fine grids, where the runs' traces and one source's g and R series weigh most; the estimate the memory
    # guard checks counts them, and the traced peak stays within it
    peak, estimates = _traced_peak_and_estimates(monkeypatch, exp2_net, dx, 1.9, resample_dt)
    assert len(estimates) == 1 and peak <= estimates[0]


def test_measurement_peak_within_memory_estimate_on_a_coarse_grid(exp1_net, monkeypatch):
    # a coarse grid, where the batch's per-node working arrays and grids weigh as much as its per-step ones
    peak, estimates = _traced_peak_and_estimates(monkeypatch, exp1_net, 5.0, 1.61, 0.0)
    assert len(estimates) == 1 and peak <= estimates[0]


def _hat_kernel(g, t, t_hat):
    """One kernel on the grid ``t_hat[1:-1]``, whose ends are the hat neighbours of its first and last sample.

    ``g`` is a trace less its t = 0 step, sampled at the run's times ``t``;
    R is its running trapezoid integral, read by ``np.interp`` (R = 0 for
    t <= 0), and the kernel the second difference of R over the grid
    divided by the grid's step squared.
    """
    R = (np.cumsum(g) - g / 2) * (t[1] - t[0])  # for g[0] = 0, the trapezoid rule's running sum
    return np.diff(np.interp(t_hat, t, R), 2) / (t_hat[1] - t_hat[0]) ** 2


def _hat_grid(t, resample_dt):
    """The output grid of runs sampled at ``t``, with one hat neighbour either side: it ends a step before the run."""
    dt_out = resample_dt or t[1] - t[0]
    return np.arange(-1, grid_size(t[-1] - dt_out, dt_out) + 1) * dt_out


def test_resampling_step_longer_than_the_run_refused_before_any_run(exp2_net, monkeypatch):
    # a step as long as the run leaves one sample, whose right hat neighbour is the run's end; a longer one would
    # read R held past the run, so it is refused
    cfg = SimConfig(5.0, 0.5, 0.95)
    _, dt, n_steps = _run_size(exp2_net, cfg)
    irm, _ = measure_irm(exp2_net, cfg, resample_dt=n_steps * dt)
    assert irm.n_samples == 1 and irm.horizon == 0.0
    calls = []
    monkeypatch.setattr("pipescope.irm.simulate_runs", lambda *args, **kwargs: calls.append(args))
    with pytest.raises(ConfigError, match=r"longer than the [\d.]+ s run"):
        measure_irm(exp2_net, cfg, resample_dt=1.001 * n_steps * dt)
    assert calls == []


def test_measured_kernels_match_per_trace_reference(exp2_net):
    # the one-trace-at-a-time hat average of the time derivative
    cfg = SimConfig(dx=10.0, duration=0.6, courant=0.95)
    irm, runs = measure_irm(exp2_net, cfg, resample_dt=0.007)
    for i, (source, hist) in enumerate(zip(exp2_net.accessible, runs)):
        assert hist.H == hist.Q == {}
        t_hat = _hat_grid(hist.t, 0.007)
        assert irm.n_samples == len(t_hat) - 2 and irm.horizon == t_hat[-2] <= hist.t[-1] - 0.007
        for j, leaf in enumerate(exp2_net.accessible):
            h = hist.boundary[leaf]
            assert irm.k[i, j].tobytes() == _hat_kernel(h - h[0], hist.t, t_hat).tobytes()


def test_native_grid_kernels_are_central_differences(exp1_net):
    # without resample_dt the hat's neighbours are the run's own samples, so inside the grid the kernel is
    # np.gradient's central difference of the trace, and the grid stops one step before the run
    irm, runs = measure_irm(exp1_net, SimConfig(dx=10.0, duration=1.0, courant=0.95))
    for i, hist in enumerate(runs):
        assert irm.dt == hist.dt and irm.n_samples == len(hist.t) - 1
        for j, leaf in enumerate(exp1_net.accessible):
            central = np.gradient(hist.boundary[leaf], hist.dt)[1:-1]
            assert np.abs(irm.k[i, j, 1:] - central).max() <= 1e-9 * np.abs(central).max()


def test_measured_kernels_match_direct_step_subtraction_to_round_off(exp2_net):
    # the direct a/(gA) step the source trace carries is its first sample, so
    # subtracting the analytic step instead moves the kernels only at round-off
    cfg = SimConfig(dx=5.0, duration=1.9, courant=0.95)
    irm, runs = measure_irm(exp2_net, cfg, resample_dt=0.007)
    reference = np.empty_like(irm.k)
    for i, (source, hist) in enumerate(zip(exp2_net.accessible, runs)):
        t_hat = _hat_grid(hist.t, 0.007)
        for j, leaf in enumerate(exp2_net.accessible):
            h = hist.boundary[leaf]
            if leaf == source:
                h = h - exp2_net.wave_speed / (exp2_net.gravity * exp2_net.leaf_area(leaf))
            reference[i, j] = _hat_kernel(h, hist.t, t_hat)
    assert np.abs(irm.k - reference).max() <= 1e-12 * np.abs(reference).max()


def _measure_irm_source_by_source(net, cfg, resample_dt, fields=False):
    """``measure_irm`` as one ``simulate_runs`` call per source leaf, in turn: kernels and runs.

    Each trace's kernel is its hat-averaged time derivative on the output grid.
    """
    runs = [simulate_runs(net, [step_inflow(net, cfg, source)], cfg, fields)[0] for source in net.accessible]
    t_hat = _hat_grid(runs[0].t, resample_dt)
    k = np.zeros((len(runs), len(runs), len(t_hat) - 2))
    for i, hist in enumerate(runs):
        for j, leaf in enumerate(net.accessible):
            h = hist.boundary[leaf]
            k[i, j] = _hat_kernel(h - h[0], hist.t, t_hat)
    return k, runs


@pytest.mark.parametrize(
    "network, dx, courant, duration, resample_dt, fields",
    [
        ("exp2", 5.0, 0.95, 1.9, 0.007, False),  # the preset's simulate-irm settings
        ("exp2", 5.0, 0.95, 1.9, 0.019000000095, False),  # the last of 100 samples has its right neighbour past the run
        ("exp2", 10.0, 0.95, 0.6, 0.0, True),
        ("tree", 5.0, 0.95, 2.6, 0.007, False),  # the benchmark's tree-measured settings
        ("tree", 6.0, 0.8, 0.4, 0.01, True),
    ],
)
def test_measured_irm_matches_source_by_source_runs_bit_for_bit(network, dx, courant, duration, resample_dt, fields):
    from test_simulate import _treegen

    net = validate_network(EXP2_NETWORK if network == "exp2" else _treegen().generate(1, "measured"))
    cfg = SimConfig(dx=dx, duration=duration, courant=courant)
    irm, runs = measure_irm(net, cfg, resample_dt=resample_dt, fields=fields)
    k, reference = _measure_irm_source_by_source(net, cfg, resample_dt, fields=fields)
    assert irm.k.tobytes() == k.tobytes()
    assert len(runs) == len(reference) == len(net.accessible)
    for hist, ref in zip(runs, reference):
        assert hist.t.tobytes() == ref.t.tobytes() and hist.dt == ref.dt
        assert list(hist.boundary) == list(ref.boundary)
        assert all(hist.boundary[leaf].tobytes() == ref.boundary[leaf].tobytes() for leaf in ref.boundary)
        assert list(hist.H) == list(ref.H) and list(hist.Q) == list(ref.Q) and bool(hist.H) == fields
        assert all(hist.H[pid].tobytes() == ref.H[pid].tobytes() for pid in ref.H)
        assert all(hist.Q[pid].tobytes() == ref.Q[pid].tobytes() for pid in ref.Q)


def test_measured_irm_matches_oracle_bins(exp1_net):
    cfg = SimConfig(dx=5.0, duration=1.0, courant=1.0)
    irm, _ = measure_irm(exp1_net, cfg)
    an = oracle_irm(exp1_net, horizon=1.0)
    dt = irm.dt
    for (i, j), train in an.deltas.items():
        for t0, coeff in train:
            b = round(t0 / dt)
            seg = irm.k[i, j][b - 8 : b + 9]
            peak = b - 8 + int(np.argmax(np.abs(seg)))
            assert abs(peak - b) <= 1
            assert seg.sum() * dt == pytest.approx(coeff, rel=0.05)


@pytest.mark.parametrize("resample_dt", [0.007, 0.0113])
def test_measured_kernel_mass_matches_oracle_coefficients(exp1_net, resample_dt):
    # at Courant 1 the simulator transports each front exactly, so a step in a trace is an oracle delta; on an
    # output grid off the simulator's, the hat average still keeps each delta's whole weight near its arrival
    irm, _ = measure_irm(exp1_net, SimConfig(dx=5.0, duration=1.61, courant=1.0), resample_dt=resample_dt)
    t = np.arange(irm.n_samples) * irm.dt
    deltas = oracle_irm(exp1_net, horizon=1.55).deltas
    assert sum(map(len, deltas.values())) == 11
    for (i, j), train in deltas.items():
        for t0, coeff in train:
            mass = irm.k[i, j][np.abs(t - t0) <= 0.045].sum() * irm.dt
            assert abs(mass - coeff) <= 1e-11 * abs(coeff)


# -- persistence --------------------------------------------------------------


def test_irm_round_trip_bit_exact(exp1_net, tmp_path):
    irm = sample_irm(oracle_irm(exp1_net, horizon=1.61), dt=0.01)
    p1 = tmp_path / "irm_a.csv"
    p2 = tmp_path / "irm_b.csv"
    save_irm(irm, p1)
    loaded = load_irm(p1)
    assert loaded.leaves == irm.leaves
    assert loaded.dt == irm.dt
    assert np.array_equal(loaded.k, irm.k)
    save_irm(loaded, p2)
    assert p1.read_bytes() == p2.read_bytes()


def _saved_exp1_irm(exp1_net, tmp_path):
    path = tmp_path / "irm.csv"
    save_irm(sample_irm(oracle_irm(exp1_net, horizon=1.61), dt=0.01), path)
    return path, path.read_text().splitlines()


def test_load_irm_skips_a_chunk_of_blank_lines(exp1_net, tmp_path):
    # more trailing newlines than one chunk holds: a chunk of them alone has no row
    path, lines = _saved_exp1_irm(exp1_net, tmp_path)
    k = load_irm(path).k
    path.write_text("\n".join(lines) + "\n" * 40_000)
    assert 40_000 > _CHUNK and load_irm(path).k.tobytes() == k.tobytes()


def test_load_irm_rejects_truncated_file(exp1_net, tmp_path):
    path, lines = _saved_exp1_irm(exp1_net, tmp_path)
    path.write_text("\n".join(lines[: len(lines) // 2]) + "\n")
    with pytest.raises(ConfigError, match="kernel rows"):
        load_irm(path)


@pytest.mark.parametrize("row", ["0,0,99.0,1.0", "0,2,0.0,1.0", "-1,0,0.0,1.0"])
def test_load_irm_rejects_row_outside_header_grid(exp1_net, tmp_path, row):
    path, lines = _saved_exp1_irm(exp1_net, tmp_path)
    path.write_text("\n".join(lines[:-1] + [row]) + "\n")
    with pytest.raises(ConfigError, match="outside"):
        load_irm(path)


@pytest.mark.parametrize("value", ["nan", "inf"])
def test_load_irm_rejects_nonfinite_sample(exp1_net, tmp_path, value):
    path, lines = _saved_exp1_irm(exp1_net, tmp_path)
    lines[5] = lines[5].rsplit(",", 1)[0] + "," + value
    path.write_text("\n".join(lines) + "\n")
    with pytest.raises(ConfigError, match="not finite"):
        load_irm(path)


def test_load_irm_rejects_duplicate_row(exp1_net, tmp_path):
    # the row count still matches the header, but one sample is never set
    path, lines = _saved_exp1_irm(exp1_net, tmp_path)
    path.write_text("\n".join(lines[:-1] + [lines[2]]) + "\n")
    with pytest.raises(ConfigError, match="duplicate"):
        load_irm(path)


@pytest.mark.parametrize("leaves", ["AB", ["A", 1], {"A": 0, "B": 1}])
def test_load_irm_rejects_leaves_not_list_of_strings(exp1_net, tmp_path, leaves):
    path, lines = _saved_exp1_irm(exp1_net, tmp_path)
    header = json.loads(lines[0])
    header["leaves"] = leaves
    path.write_text("\n".join([json.dumps(header), *lines[1:]]) + "\n")
    with pytest.raises(ConfigError, match="leaves"):
        load_irm(path)


def test_load_irm_rejects_infinite_header_count(exp1_net, tmp_path):
    path, lines = _saved_exp1_irm(exp1_net, tmp_path)
    header = json.loads(lines[0])
    header["n"] = math.inf
    path.write_text("\n".join([json.dumps(header), *lines[1:]]) + "\n")
    with pytest.raises(ConfigError, match="header"):
        load_irm(path)


@pytest.mark.parametrize(
    "key, value",
    [("n", 162.5), ("n", 162.0), ("n", "162"), ("n", True), ("horizon", math.nan), ("horizon", math.inf),
     ("horizon", -5.0)],
)
def test_load_irm_rejects_malformed_header_count_or_horizon(exp1_net, tmp_path, key, value):
    # n = 162.5 used to be cut to the file's 162 samples, and a NaN or negative horizon went through
    path, lines = _saved_exp1_irm(exp1_net, tmp_path)
    header = json.loads(lines[0])
    assert header["n"] == 162
    header[key] = value
    path.write_text("\n".join([json.dumps(header), *lines[1:]]) + "\n")
    with pytest.raises(ConfigError, match=f"header {key}|horizon"):
        load_irm(path)


def _small_irm_lines():
    """The lines of a small valid IRM file: exp1, 2 x 2 kernels of 6 samples."""
    irm = sample_irm(oracle_irm(validate_network(EXP1_NETWORK), horizon=0.75), dt=0.15)
    return irm, [
        json.dumps({"dt": irm.dt, "n": irm.n_samples, "leaves": list(irm.leaves), "horizon": irm.horizon}),
        "i,j,t,k",
        *(f"{i},{j},{s * irm.dt!r},{float(irm.k[i, j, s])!r}"
          for i in range(2) for j in range(2) for s in range(irm.n_samples)),
    ]


SMALL_IRM, SMALL_IRM_LINES = _small_irm_lines()
TEXT = st.text(st.characters(blacklist_categories=("Cs",)), max_size=30)
JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.floats() | st.integers() | st.just(10**400) | st.text(max_size=5),
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(max_size=5), inner, max_size=3),
    max_leaves=6,
)


@st.composite
def damaged_irm_lines(draw):
    """The small IRM file with one line replaced, dropped or duplicated, or one header field replaced.

    Or a header with no leaves and no rows, which leaves only ``n`` to set the kernel grid's shape.
    """
    lines = list(SMALL_IRM_LINES)
    k = draw(st.integers(0, len(lines) - 1))
    action = draw(st.sampled_from(["replace", "drop", "duplicate", "header", "no leaves"]))
    if action == "no leaves":
        n = draw(st.sampled_from([0, 6, 10**30]) | st.integers(0))
        lines = [json.dumps({"dt": 0.01, "n": n, "leaves": [], "horizon": 1.0}), "i,j,t,k"]
    elif action == "replace":
        lines[k] = draw(TEXT)
    elif action == "drop":
        del lines[k]
    elif action == "duplicate":
        lines.insert(k, lines[k])
    else:
        header = json.loads(lines[0])
        header[draw(st.sampled_from(sorted(header)))] = draw(JSON_VALUES)
        lines[0] = json.dumps(header)
    return lines


@given(damaged_irm_lines())
@settings(max_examples=300, deadline=None)
def test_fuzz_load_irm_raises_only_out_of_range(tmp_path_factory, lines):
    path = tmp_path_factory.mktemp("fuzz") / "irm.csv"
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    try:
        loaded = load_irm(path)
    except ConfigError as exc:
        assert str(exc).startswith(f"{path}: "), exc  # one of load_irm's own refusals
        return
    assert loaded.k.shape == SMALL_IRM.k.shape and np.isfinite(loaded.k).all()


def _reference_load_irm(path):
    """The row-by-row loader that ``load_irm`` replaced, as a reference for what it must accept."""
    with open(path) as fh:
        try:
            header = json.loads(fh.readline())
            leaves = header["leaves"]
            n_samples = header["n"]
            # the header rule of load_irm: dt and horizon JSON numbers, not strings or booleans
            if any(isinstance(v, (bool, str)) for v in (header["dt"], header["horizon"])):
                raise TypeError("dt or horizon is not a JSON number")
            dt = float(header["dt"])
            horizon = float(header["horizon"])
        except (ValueError, KeyError, TypeError, OverflowError) as exc:
            raise ConfigError(f"{path}: unreadable IRM header: {exc}") from exc
        if not (isinstance(leaves, list) and all(isinstance(leaf, str) for leaf in leaves)):
            raise ConfigError(f"{path}: header leaves {leaves!r} is not a list of strings")
        # the header rule of load_irm: n a JSON integer >= 0, horizon finite and >= 0
        if not (isinstance(n_samples, int) and not isinstance(n_samples, bool) and n_samples >= 0):
            raise ConfigError(f"{path}: header n = {n_samples!r} is not an integer, or is negative")
        if not leaves:  # the shape rule of load_irm: no row could bound n
            raise ConfigError(f"{path}: header lists no leaves")
        if not (dt > 0 and math.isfinite(horizon) and horizon >= 0):
            raise ConfigError(f"{path}: header dt = {dt} is not positive or horizon = {horizon} is not finite")
        if fh.readline().strip() != "i,j,t,k":
            raise ConfigError(f"{path}: missing i,j,t,k column header")
        rows = [line.strip() for line in fh if line.strip()]
    n = len(leaves)
    if len(rows) != n * n * n_samples:
        raise ConfigError(f"{path}: {len(rows)} kernel rows, the header's shape needs {n}*{n}*{n_samples}")
    k = np.full((n, n, n_samples), np.nan)
    for row in rows:
        try:
            i_s, j_s, t_s, k_s = row.split(",")
            i, j, idx, value = int(i_s), int(j_s), round(float(t_s) / dt), float(k_s)
        except (ValueError, OverflowError) as exc:
            raise ConfigError(f"{path}: unreadable kernel row {row!r}") from exc
        if not (0 <= i < n and 0 <= j < n and 0 <= idx < n_samples):
            raise ConfigError(f"{path}: row {row!r} lies outside the header's {n}x{n}x{n_samples} grid")
        k[i, j, idx] = value
    bad = np.count_nonzero(~np.isfinite(k))
    if bad:
        raise ConfigError(f"{path}: {bad} kernel sample(s) not finite, or unset because of duplicate rows")
    return SampledIRM(dt, tuple(leaves), k, horizon)


# field texts that int() or float() read in ways a column parser might not
ODD_FIELDS = st.sampled_from(
    [" 1", "1 ", "+1", "1.0", "1e0", "1_0", "\u0661", "-0", "0.30000000000000004", "0.075", "0.074999", "nan", "inf",
     "-inf", "1e400", "", "x", "0x1", "99999999999999999999", "1,0", " 0.15\t", "\u2003", "1\x00"]
)


@st.composite
def edited_irm_lines(draw):
    """The small IRM file with one or two kernel rows edited, and maybe spaces or an empty line added.

    An edit replaces a field by an odd text or another row's field, spells
    it another way, pads it with white space, moves a time by a fraction of
    dt (half of it is a rounding tie), moves a row's last field to the
    start of the next row, or appends a fifth field and a copy of a row.
    """
    lines = list(SMALL_IRM_LINES)
    for _ in range(draw(st.integers(1, 2))):
        k = draw(st.integers(2, len(lines) - 2))
        fields = lines[k].split(",")  # an earlier edit may have left more or fewer than four
        column = draw(st.integers(0, len(fields) - 1))
        action = draw(st.sampled_from(["replace", "respell", "pad", "nudge", "move", "append"]))
        if action == "respell":  # the same number, spelled so that only float() or int() and float() read it
            fields[column] = draw(st.sampled_from(["+{}", "0{}", "{}.0", "{}e0"])).format(fields[column])
        elif action == "replace":
            other = lines[draw(st.integers(2, len(lines) - 1))].split(",")
            fields[column] = draw(ODD_FIELDS | st.just(other[min(column, len(other) - 1)]))
        elif action == "pad":
            space = draw(st.sampled_from([" ", "\t", "\x0c", "\u2003"]))
            fields[column] = draw(st.sampled_from([space + fields[column], fields[column] + space]))
        elif action == "nudge" and len(fields) == 4:
            shift = draw(st.sampled_from([0.5, -0.5, 0.49, -0.51])) * SMALL_IRM.dt
            fields[2] = repr(float(SMALL_IRM_LINES[k].split(",")[2]) + shift)
        elif action == "append":  # a fifth field, then a whole row again: nine fields
            fields.append("0," + lines[draw(st.integers(2, len(lines) - 1))])
        elif len(fields) > 1:
            lines[k + 1] = fields.pop() + "," + lines[k + 1]
        lines[k] = ",".join(fields)
    if draw(st.booleans()):
        k = draw(st.integers(0, len(lines) - 1))
        before, after = draw(st.sampled_from([" ", "\t", "\x0c", "\x1c"])), draw(st.sampled_from(["", " ", "\r"]))
        lines[k] = before + lines[k] + after
    if draw(st.booleans()):
        lines.insert(draw(st.integers(2, len(lines))), draw(st.sampled_from(["", "  ", "\r"])))
    return lines


def _assert_loads_as_reference(path):
    """``load_irm`` refuses the file if the row-by-row loader does, and otherwise returns the same IRM."""
    try:
        expected = _reference_load_irm(path)
    except ConfigError:
        with pytest.raises(ConfigError, match=f"^{re.escape(str(path))}: "):
            load_irm(path)
        return
    loaded = load_irm(path)
    assert (loaded.dt, loaded.leaves, loaded.horizon) == (expected.dt, expected.leaves, expected.horizon)
    assert loaded.k.tobytes() == expected.k.tobytes()


@given(damaged_irm_lines() | edited_irm_lines(), st.sampled_from(["\n", "\r\n", "\r"]))
@settings(max_examples=400, deadline=None)
def test_load_irm_accepts_exactly_what_the_row_by_row_loader_accepts(tmp_path_factory, lines, newline):
    path = tmp_path_factory.mktemp("diff") / "irm.csv"
    path.write_bytes((newline.join(lines) + newline).encode("utf-8"))
    # the small file's ~900 characters in one chunk, then in chunks of one or two rows
    for chunk in (_CHUNK, 40):
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(IRM_MODULE, "_CHUNK", chunk)
            _assert_loads_as_reference(path)


def test_load_irm_refuses_bytes_that_are_not_text(exp1_net, tmp_path):
    # the byte lies past the first block a text reader decodes along with the header
    path, lines = _saved_exp1_irm(exp1_net, tmp_path)
    path.write_bytes(("\n".join(lines[:-1]) + "\n").encode() + b"1,1,\xff\xfe,1.0\n")
    assert path.stat().st_size > 9000
    with pytest.raises(ConfigError, match="not a text file"):
        load_irm(path)


def test_load_irm_rejects_negative_sample_count_without_rows(tmp_path):
    # no leaves and no rows match a shape of 0 * 0 * n for any n, so n itself needs the check
    path = tmp_path / "irm.csv"
    path.write_text(json.dumps({"dt": 0.01, "n": -1, "leaves": [], "horizon": 1.0}) + "\ni,j,t,k\n")
    with pytest.raises(ConfigError, match="negative"):
        load_irm(path)


@pytest.mark.parametrize("n", [0, 162, 10**30])
def test_load_irm_rejects_header_without_leaves(tmp_path, n):
    # no leaves, no rows: 0 * 0 * n rows match any n, so a huge n reached the allocation of the kernel grid
    path = tmp_path / "irm.csv"
    path.write_text(json.dumps({"dt": 0.01, "n": n, "leaves": [], "horizon": 1.0}) + "\ni,j,t,k\n")
    with pytest.raises(ConfigError, match="no leaves"):
        load_irm(path)
    with pytest.raises(ConfigError, match="no leaves"):
        _reference_load_irm(path)


def test_save_irm_writes_the_row_by_row_bytes(exp1_net, tmp_path):
    irm = sample_irm(oracle_irm(exp1_net, horizon=3.0), dt=0.007)
    path = tmp_path / "irm.csv"
    save_irm(irm, path)
    lines = [
        json.dumps({"dt": irm.dt, "n": irm.n_samples, "leaves": list(irm.leaves), "horizon": irm.horizon}),
        "i,j,t,k",
        *(f"{i},{j},{s * irm.dt!r},{float(irm.k[i, j, s])!r}"
          for i in range(2) for j in range(2) for s in range(irm.n_samples)),
    ]
    assert path.read_bytes() == ("\n".join(lines) + "\n").encode()


def _row_by_row_bytes(irm):
    """The IRM file as the one-f-string-per-row writer made it."""
    n = len(irm.leaves)
    lines = [
        json.dumps({"dt": irm.dt, "n": irm.n_samples, "leaves": list(irm.leaves), "horizon": irm.horizon}),
        "i,j,t,k",
        *(f"{i},{j},{s * irm.dt!r},{float(irm.k[i, j, s])!r}"
          for i in range(n) for j in range(n) for s in range(irm.n_samples)),
    ]
    return ("\n".join(lines) + "\n").encode()


# values whose repr is easy to get wrong: signed zero, subnormals, the float range's ends, 17 significant digits
ODD_FLOATS = [-0.0, 5e-324, 1e-310, 2.2250738585072014e-308, 1e308, -1e308, 1.7976931348623157e308,
              0.30000000000000004, 1 / 3, -2.0000000000000004, 1.2345678901234567e-05, 1e16, 123456789012345.67]


@st.composite
def any_sampled_irm(draw):
    """A SampledIRM with 1 to 3 leaves, 0 to 12 samples and arbitrary float64 kernels, one of four not finite."""
    n = draw(st.integers(1, 3))
    n_samples = draw(st.sampled_from([0, 1]) | st.integers(0, 12))
    k = draw(arrays(np.float64, (n, n, n_samples), elements=st.floats(allow_nan=False, allow_infinity=False)
                    | st.sampled_from(ODD_FLOATS)))
    if k.size and draw(st.integers(0, 3)) == 0:
        k.flat[draw(st.integers(0, k.size - 1))] = draw(st.sampled_from([math.nan, math.inf, -math.inf]))
    dt = draw(st.floats(1e-9, 1e3) | st.sampled_from([0.007, 0.01, 0.1]))
    leaves = tuple(draw(st.lists(st.text(max_size=3), min_size=n, max_size=n, unique=True)))
    return SampledIRM(dt, leaves, k, max(n_samples - 1, 0) * dt)


@given(any_sampled_irm())
@settings(max_examples=300, deadline=None)
def test_save_irm_writes_the_row_by_row_bytes_for_any_kernel(tmp_path_factory, irm):
    work = tmp_path_factory.mktemp("save")
    save_irm(irm, work / "a.csv")
    assert (work / "a.csv").read_bytes() == _row_by_row_bytes(irm)
    if not np.isfinite(irm.k).all():
        with pytest.raises(ConfigError, match="not finite"):
            load_irm(work / "a.csv")
        return
    loaded = load_irm(work / "a.csv")
    assert loaded.k.tobytes() == irm.k.tobytes()  # -0.0 stays -0.0
    save_irm(loaded, work / "b.csv")
    assert (work / "b.csv").read_bytes() == (work / "a.csv").read_bytes()


def test_save_irm_peak_below_the_kernel_grid(tmp_path):
    # an IRM of the benchmark's exact-tree shape, 36 kernels of 241 samples: as Python floats the whole grid would
    # take 4x its bytes, while one kernel at a time stays below them
    irm = sample_irm(oracle_irm(validate_network(SIX_LEAF_UNIFORM), 2.4), dt=0.01)
    save_irm(irm, tmp_path / "warm.csv")
    tracemalloc.start()
    try:
        save_irm(irm, tmp_path / "irm.csv")
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert (tmp_path / "irm.csv").read_bytes() == _row_by_row_bytes(irm)
    assert irm.k.shape == (6, 6, 241) and peak < irm.k.nbytes


def test_load_irm_peak_below_three_and_a_half_times_the_file(tmp_path):
    # an IRM of the benchmark's measured-tree shape, 36 kernels of 372 samples, each silent for its first third as
    # measured kernels are before the first arrival. The loader holds the file's text, the kernel grid and one chunk's
    # fields; a loader that also held every row as a stripped string peaked at 4.4 times the file.
    k = np.random.default_rng(5).standard_normal((6, 6, 372)) * 1e-3
    k[..., :124] = 0.0
    irm = SampledIRM(0.007, tuple("ABCDEF"), k, 371 * 0.007)
    path = tmp_path / "irm.csv"
    save_irm(irm, path)
    load_irm(path)
    tracemalloc.start()
    try:
        loaded = load_irm(path)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert loaded.k.tobytes() == k.tobytes()
    assert peak < 3.5 * path.stat().st_size


def test_load_irm_refuses_a_grid_larger_than_its_lines_before_allocating(exp1_net, tmp_path, monkeypatch):
    path, lines = _saved_exp1_irm(exp1_net, tmp_path)
    header = json.loads(lines[0])
    header["n"] = 10**30
    path.write_text("\n".join([json.dumps(header), *lines[1:]]) + "\n")
    monkeypatch.setattr(np, "full", lambda *args: pytest.fail("allocated"))
    with pytest.raises(ConfigError, match="kernel rows"):
        load_irm(path)


def _swap(lines, a, b):
    lines[a], lines[b] = lines[b], lines[a]


def _respell(lines, row, column, spelling):
    fields = lines[row].split(",")
    fields[column] = spelling.format(fields[column])
    lines[row] = ",".join(fields)


def _chunk_starts(rows):
    """The rows that begin ``load_irm``'s chunks of a text holding ``rows``, one to a line.

    A chunk starting at character c ends at the first newline at or past
    c + _CHUNK, and the next chunk starts just past that newline.
    """
    starts, chunk_start, char = [0], 0, 0
    for r, row in enumerate(rows[:-1]):
        char += len(row)  # row r's newline
        if char >= chunk_start + _CHUNK:
            starts.append(r + 1)
            chunk_start = char + 1
        char += 1
    return starts


# A block is one of load_irm's chunks, which begin at rows b = [0, b1, b2] of the file, row r being lines[2 + r].
# Row 300 is (i, j, s) = (0, 1, 50), in the first chunk; row 1500 is (2, 0, 0), in the second.
MULTI_BLOCK_EDITS = {
    "i respelled +2": lambda lines, b: _respell(lines, 2 + 1500, 0, "+{}"),
    "j respelled +0": lambda lines, b: _respell(lines, 2 + 1500, 1, "+{}"),
    "t respelled 0.0e0": lambda lines, b: _respell(lines, 2 + 1500, 2, "{}e0"),
    "i respelled 2.0e0": lambda lines, b: _respell(lines, 2 + 1500, 0, "{}.0e0"),
    "rows swapped across a block boundary": lambda lines, b: _swap(lines, 2 + b[1] - 1, 2 + b[1]),
    "rows swapped across two blocks": lambda lines, b: _swap(lines, 2 + 300, 2 + b[2] + 5),
    "row duplicated over another block's": lambda lines, b: lines.__setitem__(2 + 1500, lines[2 + 300]),
    "k respelled in a block in save order": lambda lines, b: _respell(lines, 2 + 1500, 3, "{}0"),
    "k respelled with 17 digits": lambda lines, b: _respell(
        lines, 2 + 300, 3, format(float(lines[2 + 300].split(",")[3]), ".16e")),
    "blank line at a block boundary": lambda lines, b: lines.insert(2 + b[1], ""),
    "white-space line at a block boundary": lambda lines, b: lines.insert(2 + b[2], " \t"),
    "row ending in \\r at a block boundary": lambda lines, b: _respell(lines, 2 + b[1] - 1, 3, "{}\r"),
    # float() refuses a trailing \x1c, which str.strip removes: the chunk is read again by the general path
    "k ending in \\x1c at a block boundary": lambda lines, b: _respell(lines, 2 + b[1], 3, "{}\x1c"),
    # row 1501 moved onto row 1500's line after a fifth field: its nine fields fill two rows' places in a chunk's split
    "two rows on one line joined by a fifth field": lambda lines, b: lines.__setitem__(
        2 + 1500, lines[2 + 1500] + ",0," + lines.pop(2 + 1501)),
    "no final newline": lambda lines, b: lines.pop(),
    "trailing blank lines": lambda lines, b: lines.extend(["", " ", "", ""]),
}


@pytest.mark.parametrize("edit", MULTI_BLOCK_EDITS.values(), ids=MULTI_BLOCK_EDITS)
def test_load_irm_matches_row_by_row_loader_over_several_blocks(tmp_path, edit):
    # 3 x 3 kernels of 250 samples: 2,250 rows in 78,684 characters, three chunks whose boundaries fall inside kernels
    k = np.random.default_rng(18).standard_normal((3, 3, 250)) * np.logspace(-300, 300, 250)
    irm = SampledIRM(0.007, ("A", "B", "C"), k, 249 * 0.007)
    path = tmp_path / "irm.csv"
    save_irm(irm, path)
    lines = path.read_text().split("\n")  # the last is the empty text after the final newline
    starts = _chunk_starts(lines[2:-1])
    assert len(starts) == 3 and 300 < starts[1] <= 1500 < starts[2] and lines[2 + 1500].startswith("2,0,0.0,")
    with pytest.MonkeyPatch.context() as mp:  # every chunk of the saved file takes the layout path, cut where computed
        seen = []
        mp.setattr(IRM_MODULE, "_saved_fields", lambda start, *args: seen.append(start) or _saved_fields(start, *args))
        mp.setattr(np, "rint", lambda *args: pytest.fail("a chunk of the saved file was scattered"))
        assert load_irm(path).k.tobytes() == k.tobytes()
    assert seen == starts
    edit(lines, starts)
    path.write_text("\n".join(lines))
    _assert_loads_as_reference(path)
