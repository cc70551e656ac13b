"""Impulse-response matrix: oracle, binning, processing pipeline, persistence."""

import copy
import heapq
import importlib
import json
import math
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
    differentiate,
    irm_row_from_step_response,
    load_irm,
    measure_irm,
    median_smooth,
    oracle_irm,
    resample,
    sample_irm,
    save_irm,
    simulate,
    step_inflow,
    validate_network,
)
from pipescope.errors import HorizonTooLarge, NonuniformPipeArea, OutOfRange, WindowTooLarge
from pipescope.irm import _ROW_BLOCK, _saved_fields, grid_size
from pipescope.presets import EXP1_NETWORK, EXP2_NETWORK
from pipescope.simulate import _run_size, junction_scatter

C = 1000.0 / 9.81  # a/(gA) for unit area


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
    with pytest.raises(HorizonTooLarge):
        oracle_irm(exp1_net, horizon=50.0, prune_eps=1e-12, max_events=200)


def test_oracle_rejects_nonuniform(exp2_net):
    with pytest.raises(NonuniformPipeArea):
        oracle_irm(exp2_net, horizon=1.0)


def test_oracle_rejects_table_area(exp1_spec):
    exp1_spec["pipes"][0]["area"] = {"samples": {"x": [0.0, 100.0, 200.0, 400.0], "A": [1.0, 1.0, 0.7, 0.7]}}
    with pytest.raises(NonuniformPipeArea, match="'AD'"):
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


def test_oracle_pruned_mixed_tree_matches_mirrored_reference():
    # at 1e-4 pruning drops different fronts from different sources on this tree,
    # so the oracle's trains for i > j are the reference's trains for (j, i)
    net = validate_network(SIX_LEAF_MIXED)
    expected, _ = _reference_oracle(net, 2.4)
    got = oracle_irm(net, 2.4)
    assert any(expected.deltas[(i, j)] != expected.deltas[(j, i)] for i, j in expected.deltas)
    assert got.deltas == {(i, j): expected.deltas[min(i, j), max(i, j)] for i, j in expected.deltas}


def test_oracle_event_guard_boundary_matches_reference():
    net = validate_network(ODD_TREE)
    expected, events = _reference_oracle(net, 2.0)
    with pytest.raises(HorizonTooLarge):
        oracle_irm(net, 2.0, max_events=events - 1)
    assert oracle_irm(net, 2.0, max_events=events) == expected


def test_oracle_event_guard_counts_merged_fronts_one_by_one():
    # on the uniform tree many identical fronts merge; the guard still counts each of them
    net = validate_network(SIX_LEAF_UNIFORM)
    expected, events = _reference_oracle(net, 2.4)
    with pytest.raises(HorizonTooLarge):
        oracle_irm(net, 2.4, max_events=events - 1)
    assert oracle_irm(net, 2.4, max_events=events) == expected


@pytest.mark.parametrize(
    "horizon, prune_eps",
    [(math.nan, 1e-4), (math.inf, 1e-4), (-1.0, 1e-4), (1.0, math.nan), (1.0, math.inf), (1.0, -1.0)],
)
def test_oracle_rejects_bad_horizon_or_prune_eps(exp1_net, horizon, prune_eps):
    with pytest.raises(OutOfRange):
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


def test_sample_irm_half_open_bin_edge():
    # t0 exactly between grid points: the lower bin wins the half-open test
    an = AnalyticIRM(("A",), {(0, 0): ((0.055, 1.0),)}, horizon=0.1)
    irm = sample_irm(an, dt=0.01)
    assert irm.k[0, 0, 5] == pytest.approx(100.0)
    assert irm.k[0, 0, 6] == 0.0


# -- processing steps ---------------------------------------------------------


def test_median_smooth_identity_and_constant():
    s = np.array([1.0, 5.0, -2.0, 4.0])
    assert median_smooth(s, 1) == pytest.approx(s)
    const = np.full(10, 3.3)
    assert median_smooth(const, 4) == pytest.approx(const)


def test_median_smooth_removes_spike():
    s = np.zeros(9)
    s[4] = 7.0
    assert median_smooth(s, 3) == pytest.approx(np.zeros(9))


def test_median_smooth_window_guard():
    with pytest.raises(WindowTooLarge):
        median_smooth(np.zeros(4), 5)
    with pytest.raises(WindowTooLarge):
        median_smooth(np.zeros(4), 0)


def _median_smooth_loop(series, window):
    """The per-sample running median that the vectorised one must reproduce bit for bit."""
    if window == 1:
        return series.copy()
    left, right = (window - 1) // 2, window // 2
    out = np.empty_like(series)
    for i in range(len(series)):
        out[i] = np.median(series[max(0, i - left) : min(len(series), i + right + 1)])
    return out


def test_median_smooth_matches_per_sample_loop():
    rng = np.random.default_rng(7)
    for _ in range(300):
        n = int(rng.integers(1, 40))
        series = rng.normal(size=n)
        series[rng.random(n) < 0.2] = 0.0  # repeated values and signed zeros tie in the partition
        series[rng.random(n) < 0.1] = -0.0
        for window in {min(w, n) for w in (1, 2, 3, int(rng.integers(1, n + 1)), n)}:
            got = median_smooth(series, window)
            assert got.tobytes() == _median_smooth_loop(series, window).tobytes()


def test_median_smooth_rows_match_one_dimensional_calls():
    rng = np.random.default_rng(11)
    block = rng.normal(size=(4, 57))
    for window in (2, 5, 8, 57):
        got = median_smooth(block, window)
        assert got.shape == block.shape
        for row, series in zip(got, block):
            assert row.tobytes() == median_smooth(series, window).tobytes()
            assert row.tobytes() == _median_smooth_loop(series, window).tobytes()
    with pytest.raises(WindowTooLarge):
        median_smooth(block, 58)


def test_differentiate():
    t = np.linspace(0.0, 1.0, 101)
    assert differentiate(3.0 * t + 1.0, t) == pytest.approx(np.full(101, 3.0))
    assert differentiate(np.full(101, 2.0), t) == pytest.approx(np.zeros(101))
    omega = 4.0
    d = differentiate(np.sin(omega * t), t)
    interior = slice(1, -1)
    assert np.abs(d[interior] - omega * np.cos(omega * t)[interior]).max() < omega * (t[1] - t[0]) ** 2 * omega**2


def test_resample():
    t_old = np.linspace(0.0, 1.0, 11)
    series = 2.0 * t_old
    assert resample(series, t_old, t_old) == pytest.approx(series)
    mid = np.array([0.35])
    assert resample(series, t_old, mid) == pytest.approx([0.7])
    with pytest.raises(OutOfRange):
        resample(series, t_old, np.array([1.2]))


def test_resample_exp2_regrid_length():
    # 0..1.9 s at dt = 0.007 keeps 272 samples
    assert grid_size(1.9, 0.007) == 272


def test_row_pipeline_direct_step_differentiates_away():
    t = np.arange(0.0, 0.5, 0.01)
    flat = np.full_like(t, C)
    # the direct a/(gA) step a source trace carries is constant on t >= 0,
    # so it differentiates to zero with no subtraction, as does a receiver's constant
    row = irm_row_from_step_response(t, {"A": flat.copy(), "B": flat.copy()}, smooth_window_s=0.0)
    assert row["A"] == pytest.approx(np.zeros_like(t))
    assert row["B"] == pytest.approx(np.zeros_like(t))
    row2 = irm_row_from_step_response(t, {"B": C * t}, smooth_window_s=0.0)
    assert row2["B"] == pytest.approx(np.full_like(t, C))


def test_row_pipeline_zero_input():
    t = np.arange(0.0, 0.5, 0.01)
    row = irm_row_from_step_response(t, {"B": np.zeros_like(t)})
    assert row["B"] == pytest.approx(np.zeros_like(t))


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


@pytest.mark.parametrize("resample_dt, fields", [(None, False), (0.007, True)])
def test_measurement_past_physical_memory_refused_before_any_run(exp2_net, monkeypatch, resample_dt, fields):
    # step series, inflow per vertex, a trace per leaf, H and Q per node with fields, the kernel grid, and one
    # source's smoothing (per leaf, its window copy and four series), against a physical memory set a byte either
    # side of that sum: no step series or run is made when refused
    irm_module = importlib.import_module("pipescope.irm")
    simulate_module = importlib.import_module("pipescope.simulate")
    cfg = SimConfig(dx=10.0, duration=0.6, courant=0.95)
    cells, dt, n_steps = _run_size(exp2_net, cfg)
    n, n_nodes, n_vertices = len(exp2_net.accessible), sum(cells) + len(cells), len(exp2_net.vertices)
    n_out = n_steps + 1 if resample_dt is None else grid_size(n_steps * dt, resample_dt)
    window = max(1, int(0.02 / dt))
    need = 8 * n * ((n_steps + 1) * (1 + n_vertices + n + (2 * n_nodes if fields else 0)) + n * n_out
                    + (n_steps + 2 - window) * window + 4 * (n_steps + 1))
    calls = []
    monkeypatch.setattr(irm_module, "step_inflow", lambda *args: calls.append(args))
    monkeypatch.setattr(simulate_module, "_physical_memory", lambda: need - 1)
    with pytest.raises(OutOfRange, match=f"{n} runs of {sum(cells)} cells and {n_steps} time steps, and "
                                         f"{n * n * n_out} kernel samples, needs {need} bytes"):
        measure_irm(exp2_net, cfg, resample_dt=resample_dt, fields=fields)
    assert calls == []
    monkeypatch.undo()
    monkeypatch.setattr(simulate_module, "_physical_memory", lambda: need)
    irm, runs = measure_irm(exp2_net, cfg, resample_dt=resample_dt, fields=fields)
    assert irm.k.shape == (n, n, n_out) and len(runs) == n


@pytest.mark.parametrize("dx", [0.5, 0.25])
@pytest.mark.parametrize("resample_dt", [None, 0.007])
def test_measurement_peak_within_memory_estimate(exp2_net, monkeypatch, dx, resample_dt):
    # the median copies a source's full windows, N x (n_steps + 2 - w) x w with w = 0.02 s / dt, so that copy
    # grows as 1/dx^2; the estimate the memory guard checks counts it, and the traced peak stays within it
    irm_module = importlib.import_module("pipescope.irm")
    require, estimates = irm_module._require_memory, []

    def recorded(what, n_bytes):
        estimates.append(n_bytes)
        require(what, n_bytes)

    monkeypatch.setattr(irm_module, "_require_memory", recorded)
    measure_irm(exp2_net, SimConfig(dx=dx, duration=0.1, courant=0.95), resample_dt=resample_dt)  # warm up
    estimates.clear()
    tracemalloc.start()
    try:
        measure_irm(exp2_net, SimConfig(dx=dx, duration=1.9, courant=0.95), resample_dt=resample_dt)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(estimates) == 1 and peak <= estimates[0]


def test_measured_kernels_match_per_trace_reference(exp2_net):
    # the one-trace-at-a-time pipeline: smooth, differentiate, resample
    cfg = SimConfig(dx=10.0, duration=0.6, courant=0.95)
    irm, runs = measure_irm(exp2_net, cfg, resample_dt=0.007)
    for i, (source, hist) in enumerate(zip(exp2_net.accessible, runs)):
        assert hist.H == hist.Q == {}
        window = max(1, int(0.02 / hist.dt))
        t_out = np.arange(irm.n_samples) * irm.dt
        for j, leaf in enumerate(exp2_net.accessible):
            h = np.asarray(hist.boundary[leaf], dtype=float)
            kernel = np.gradient(_median_smooth_loop(h, window), hist.t[1] - hist.t[0])
            assert irm.k[i, j].tobytes() == np.interp(t_out, hist.t, kernel).tobytes()


def test_measured_kernels_match_direct_step_subtraction_to_round_off(exp2_net):
    # the direct a/(gA) step the source trace carries is constant on t >= 0, so
    # subtracting it before differentiating, as an earlier pipeline did, moves
    # the kernels only at round-off
    cfg = SimConfig(dx=5.0, duration=1.9, courant=0.95)
    irm, runs = measure_irm(exp2_net, cfg, resample_dt=0.007)
    reference = np.empty_like(irm.k)
    t_out = np.arange(irm.n_samples) * irm.dt
    for i, (source, hist) in enumerate(zip(exp2_net.accessible, runs)):
        window = max(1, int(0.02 / hist.dt))
        for j, leaf in enumerate(exp2_net.accessible):
            h = np.asarray(hist.boundary[leaf], dtype=float)
            if leaf == source:
                h = h - (exp2_net.wave_speed / (exp2_net.gravity * exp2_net.leaf_area(leaf))) * (hist.t >= 0.0)
            kernel = np.gradient(_median_smooth_loop(h, window), hist.t[1] - hist.t[0])
            reference[i, j] = np.interp(t_out, hist.t, kernel)
    assert np.abs(irm.k - reference).max() <= 1e-12 * np.abs(reference).max()


def _measure_irm_source_by_source(net, cfg, resample_dt, smooth_window_s=0.02, fields=False):
    """``measure_irm`` as one ``simulate`` call per source leaf, in turn: kernels and runs."""
    runs = [simulate(net, step_inflow(net, cfg, source), cfg, fields=fields) for source in net.accessible]
    t = runs[0].t
    t_out = t if resample_dt is None else np.arange(grid_size(t[-1], resample_dt)) * resample_dt
    k = np.zeros((len(runs), len(runs), len(t_out)))
    for i, hist in enumerate(runs):
        row = irm_row_from_step_response(hist.t, hist.boundary, smooth_window_s)
        for j, receiver in enumerate(net.accessible):
            k[i, j] = row[receiver] if resample_dt is None else resample(row[receiver], hist.t, t_out)
    return k, runs


@pytest.mark.parametrize(
    "network, dx, courant, duration, resample_dt, fields",
    [
        ("exp2", 5.0, 0.95, 1.9, 0.007, False),  # the preset's simulate-irm settings
        ("exp2", 10.0, 0.95, 0.6, None, True),
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


def test_load_irm_rejects_truncated_file(exp1_net, tmp_path):
    path, lines = _saved_exp1_irm(exp1_net, tmp_path)
    path.write_text("\n".join(lines[: len(lines) // 2]) + "\n")
    with pytest.raises(OutOfRange, match="kernel rows"):
        load_irm(path)


@pytest.mark.parametrize("row", ["0,0,99.0,1.0", "0,2,0.0,1.0", "-1,0,0.0,1.0"])
def test_load_irm_rejects_row_outside_header_grid(exp1_net, tmp_path, row):
    path, lines = _saved_exp1_irm(exp1_net, tmp_path)
    path.write_text("\n".join(lines[:-1] + [row]) + "\n")
    with pytest.raises(OutOfRange, match="outside"):
        load_irm(path)


@pytest.mark.parametrize("value", ["nan", "inf"])
def test_load_irm_rejects_nonfinite_sample(exp1_net, tmp_path, value):
    path, lines = _saved_exp1_irm(exp1_net, tmp_path)
    lines[5] = lines[5].rsplit(",", 1)[0] + "," + value
    path.write_text("\n".join(lines) + "\n")
    with pytest.raises(OutOfRange, match="not finite"):
        load_irm(path)


def test_load_irm_rejects_duplicate_row(exp1_net, tmp_path):
    # the row count still matches the header, but one sample is never set
    path, lines = _saved_exp1_irm(exp1_net, tmp_path)
    path.write_text("\n".join(lines[:-1] + [lines[2]]) + "\n")
    with pytest.raises(OutOfRange, match="duplicate"):
        load_irm(path)


@pytest.mark.parametrize("leaves", ["AB", ["A", 1], {"A": 0, "B": 1}])
def test_load_irm_rejects_leaves_not_list_of_strings(exp1_net, tmp_path, leaves):
    path, lines = _saved_exp1_irm(exp1_net, tmp_path)
    header = json.loads(lines[0])
    header["leaves"] = leaves
    path.write_text("\n".join([json.dumps(header), *lines[1:]]) + "\n")
    with pytest.raises(OutOfRange, match="leaves"):
        load_irm(path)


def test_load_irm_rejects_infinite_header_count(exp1_net, tmp_path):
    path, lines = _saved_exp1_irm(exp1_net, tmp_path)
    header = json.loads(lines[0])
    header["n"] = math.inf
    path.write_text("\n".join([json.dumps(header), *lines[1:]]) + "\n")
    with pytest.raises(OutOfRange, match="header"):
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
    with pytest.raises(OutOfRange, match=f"header {key}|horizon"):
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
    except OutOfRange:
        return
    assert loaded.k.shape == SMALL_IRM.k.shape and np.isfinite(loaded.k).all()


def _reference_load_irm(path):
    """The row-by-row loader that ``load_irm`` replaced, as a reference for what it must accept."""
    with open(path) as fh:
        try:
            header = json.loads(fh.readline())
            leaves = header["leaves"]
            n_samples = header["n"]
            dt = float(header["dt"])
            horizon = float(header["horizon"])
        except (ValueError, KeyError, TypeError, OverflowError) as exc:
            raise OutOfRange(f"{path}: unreadable IRM header: {exc}") from exc
        if not (isinstance(leaves, list) and all(isinstance(leaf, str) for leaf in leaves)):
            raise OutOfRange(f"{path}: header leaves {leaves!r} is not a list of strings")
        # the header rule of load_irm: n a JSON integer >= 0, horizon finite and >= 0
        if not (isinstance(n_samples, int) and not isinstance(n_samples, bool) and n_samples >= 0):
            raise OutOfRange(f"{path}: header n = {n_samples!r} is not an integer, or is negative")
        if not leaves:  # the shape rule of load_irm: no row could bound n
            raise OutOfRange(f"{path}: header lists no leaves")
        if not (dt > 0 and math.isfinite(horizon) and horizon >= 0):
            raise OutOfRange(f"{path}: header dt = {dt} is not positive or horizon = {horizon} is not finite")
        if fh.readline().strip() != "i,j,t,k":
            raise OutOfRange(f"{path}: missing i,j,t,k column header")
        rows = [line.strip() for line in fh if line.strip()]
    n = len(leaves)
    if len(rows) != n * n * n_samples:
        raise OutOfRange(f"{path}: {len(rows)} kernel rows, the header's shape needs {n}*{n}*{n_samples}")
    k = np.full((n, n, n_samples), np.nan)
    for row in rows:
        try:
            i_s, j_s, t_s, k_s = row.split(",")
            i, j, idx, value = int(i_s), int(j_s), round(float(t_s) / dt), float(k_s)
        except (ValueError, OverflowError) as exc:
            raise OutOfRange(f"{path}: unreadable kernel row {row!r}") from exc
        if not (0 <= i < n and 0 <= j < n and 0 <= idx < n_samples):
            raise OutOfRange(f"{path}: row {row!r} lies outside the header's {n}x{n}x{n_samples} grid")
        k[i, j, idx] = value
    bad = np.count_nonzero(~np.isfinite(k))
    if bad:
        raise OutOfRange(f"{path}: {bad} kernel sample(s) not finite, or unset because of duplicate rows")
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


@given(damaged_irm_lines() | edited_irm_lines(), st.sampled_from(["\n", "\r\n", "\r"]))
@settings(max_examples=400, deadline=None)
def test_load_irm_accepts_exactly_what_the_row_by_row_loader_accepts(tmp_path_factory, lines, newline):
    path = tmp_path_factory.mktemp("diff") / "irm.csv"
    path.write_bytes((newline.join(lines) + newline).encode("utf-8"))
    try:
        expected = _reference_load_irm(path)
    except OutOfRange:
        with pytest.raises(OutOfRange):
            load_irm(path)
        return
    loaded = load_irm(path)
    assert (loaded.dt, loaded.leaves, loaded.horizon) == (expected.dt, expected.leaves, expected.horizon)
    assert loaded.k.tobytes() == expected.k.tobytes()


def test_load_irm_refuses_bytes_that_are_not_text(exp1_net, tmp_path):
    # the byte lies past the first block a text reader decodes along with the header
    path, lines = _saved_exp1_irm(exp1_net, tmp_path)
    path.write_bytes(("\n".join(lines[:-1]) + "\n").encode() + b"1,1,\xff\xfe,1.0\n")
    assert path.stat().st_size > 9000
    with pytest.raises(OutOfRange, match="not a text file"):
        load_irm(path)


def test_load_irm_rejects_negative_sample_count_without_rows(tmp_path):
    # no leaves and no rows match a shape of 0 * 0 * n for any n, so n itself needs the check
    path = tmp_path / "irm.csv"
    path.write_text(json.dumps({"dt": 0.01, "n": -1, "leaves": [], "horizon": 1.0}) + "\ni,j,t,k\n")
    with pytest.raises(OutOfRange, match="negative"):
        load_irm(path)


@pytest.mark.parametrize("n", [0, 162, 10**30])
def test_load_irm_rejects_header_without_leaves(tmp_path, n):
    # no leaves, no rows: 0 * 0 * n rows match any n, so a huge n reached the allocation of the kernel grid
    path = tmp_path / "irm.csv"
    path.write_text(json.dumps({"dt": 0.01, "n": n, "leaves": [], "horizon": 1.0}) + "\ni,j,t,k\n")
    with pytest.raises(OutOfRange, match="no leaves"):
        load_irm(path)
    with pytest.raises(OutOfRange, match="no leaves"):
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
        with pytest.raises(OutOfRange, match="not finite"):
            load_irm(work / "a.csv")
        return
    loaded = load_irm(work / "a.csv")
    assert loaded.k.tobytes() == irm.k.tobytes()  # -0.0 stays -0.0
    save_irm(loaded, work / "b.csv")
    assert (work / "b.csv").read_bytes() == (work / "a.csv").read_bytes()


def _swap(lines, a, b):
    lines[a], lines[b] = lines[b], lines[a]


def _respell(lines, row, column, spelling):
    fields = lines[row].split(",")
    fields[column] = spelling.format(fields[column])
    lines[row] = ",".join(fields)


# rows are lines[2:]: row 1500 is (i, j, s) = (2, 0, 0), in the second block; row 300 is (0, 1, 50), in the first
MULTI_BLOCK_EDITS = {
    "i respelled +2": lambda lines: _respell(lines, 2 + 1500, 0, "+{}"),
    "j respelled +0": lambda lines: _respell(lines, 2 + 1500, 1, "+{}"),
    "t respelled 0.0e0": lambda lines: _respell(lines, 2 + 1500, 2, "{}e0"),
    "i respelled 2.0e0": lambda lines: _respell(lines, 2 + 1500, 0, "{}.0e0"),
    "rows swapped across a block boundary": lambda lines: _swap(lines, 2 + _ROW_BLOCK - 1, 2 + _ROW_BLOCK),
    "rows swapped across two blocks": lambda lines: _swap(lines, 2 + 300, 2 + 2 * _ROW_BLOCK + 5),
    "row duplicated over another block's": lambda lines: lines.__setitem__(2 + 1500, lines[2 + 300]),
    "k respelled in a block in save order": lambda lines: _respell(lines, 2 + 1500, 3, "{}0"),
    "k respelled with 17 digits": lambda lines: _respell(
        lines, 2 + 300, 3, format(float(lines[2 + 300].split(",")[3]), ".16e")),
}


@pytest.mark.parametrize("edit", MULTI_BLOCK_EDITS.values(), ids=MULTI_BLOCK_EDITS)
def test_load_irm_matches_row_by_row_loader_over_several_blocks(tmp_path, edit):
    # 3 x 3 kernels of 250 samples: 2,250 rows in three blocks, whose boundaries fall inside kernels
    k = np.random.default_rng(18).standard_normal((3, 3, 250)) * np.logspace(-300, 300, 250)
    irm = SampledIRM(0.007, ("A", "B", "C"), k, 249 * 0.007)
    path = tmp_path / "irm.csv"
    save_irm(irm, path)
    assert load_irm(path).k.tobytes() == k.tobytes()
    lines = path.read_text().splitlines()
    assert len(lines) - 2 > 2 * _ROW_BLOCK and lines[2 + 1500].startswith("2,0,0.0,")
    labels, times = ["0", "1", "2"], [repr(s * 0.007) for s in range(250)]
    for start in range(0, len(lines) - 2, _ROW_BLOCK):  # every block of the saved file takes the layout path
        fields = [row.split(",") for row in lines[2 + start : 2 + start + _ROW_BLOCK]]
        assert tuple([f[c] for f in fields] for c in range(3)) == _saved_fields(start, len(fields), labels, times)
    edit(lines)
    path.write_text("\n".join(lines) + "\n")
    try:
        expected = _reference_load_irm(path)
    except OutOfRange:
        with pytest.raises(OutOfRange):
            load_irm(path)
        return
    assert load_irm(path).k.tobytes() == expected.k.tobytes()
