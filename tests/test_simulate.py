"""Transient solver: wave physics, junction algebra, conservation."""

import copy
import importlib
import importlib.util
import math
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pipescope import (
    PointOnPipe,
    SimConfig,
    conservation_residual,
    junction_scatter,
    step_inflow,
    validate_network,
)
from pipescope.errors import ConfigError, _allocating, _physical_memory
from pipescope.simulate import _run_size, simulate_runs
from test_graph import network_distance, tree_specs

SIMULATE = importlib.import_module("pipescope.simulate")  # the module, whose numpy the memory tests replace
ERRORS = importlib.import_module("pipescope.errors")  # where the memory guard reads physical memory

B_UNIT = 1000.0 / 9.81  # a/(gA) for a = 1000 m/s, g = 9.81, A = 1 m^2


# -- junction algebra ---------------------------------------------------------


def test_scatter_three_equal_pipes():
    reflected, transmitted = junction_scatter(1.0, 0, [1.0, 1.0, 1.0])
    assert reflected == pytest.approx(-1.0 / 3.0)
    assert transmitted == pytest.approx([2.0 / 3.0, 2.0 / 3.0])


def test_scatter_impedance_matched():
    # incident admittance equal to the sum of all the others: T = 1, R = 0
    reflected, transmitted = junction_scatter(2.5, 0, [3.0, 1.0, 2.0])
    assert reflected == pytest.approx(0.0)
    assert transmitted == pytest.approx([2.5, 2.5])


@pytest.mark.parametrize("n", [3, 4, 5, 8])
def test_scatter_n_equal_pipes(n):
    reflected, transmitted = junction_scatter(1.0, 0, [2.0] * n)
    assert transmitted == pytest.approx([2.0 / n] * (n - 1))
    assert reflected == pytest.approx(2.0 / n - 1.0)


@given(
    st.lists(st.floats(min_value=1e-3, max_value=10.0), min_size=3, max_size=8),
    st.data(),
)
@settings(max_examples=200, deadline=None)
def test_scatter_flow_balance(admittances, data):
    incident = data.draw(st.integers(min_value=0, max_value=len(admittances) - 1))
    h = 1.0
    reflected, transmitted = junction_scatter(h, incident, admittances)
    y_in = admittances[incident]
    others = [y for k, y in enumerate(admittances) if k != incident]
    inflow = y_in * (h - reflected)
    outflow = sum(y * t for y, t in zip(others, transmitted))
    assert abs(inflow - outflow) <= 1e-12 * max(abs(inflow), 1.0)


def test_scatter_exact_rational_balance():
    # the wavefront oracle runs the same algebra on Fractions: balance is exact
    from fractions import Fraction as F

    ys = [F(981, 100000), F(2 * 981, 100000), F(981, 200000)]
    h = F(3, 7)
    reflected, transmitted = junction_scatter(h, 1, ys)
    inflow = ys[1] * (h - reflected)
    outflow = ys[0] * transmitted[0] + ys[2] * transmitted[1]
    assert inflow == outflow


# -- configuration guards -----------------------------------------------------


def test_courant_above_one_rejected():
    with pytest.raises(ConfigError, match=r"courant = 1\.2 outside \(0, 1\]"):
        SimConfig(dx=5.0, duration=1.0, courant=1.2)


@pytest.mark.parametrize(
    "dx, duration, courant",
    [(math.nan, 1.0, 0.95), (math.inf, 1.0, 0.95), (0.0, 1.0, 0.95), (5.0, math.nan, 0.95), (5.0, math.inf, 0.95),
     (5.0, -1.0, 0.95), (5.0, 1.0, math.nan)],
)
def test_nonfinite_or_out_of_range_config_rejected(dx, duration, courant):
    match = "courant = nan outside" if math.isnan(courant) else "must be positive and duration .* >= 0, both finite"
    with pytest.raises(ConfigError, match=match):
        SimConfig(dx=dx, duration=duration, courant=courant)


def test_series_length_mismatch(single_pipe_net):
    cfg = SimConfig(dx=5.0, duration=0.5)
    with pytest.raises(ConfigError, match="series for 'L' has 7 samples, run needs"):
        simulate_runs(single_pipe_net, [{"L": np.ones(7)}], cfg)
    with pytest.raises(ConfigError, match="'R' is not an accessible leaf"):
        simulate_runs(single_pipe_net, [{"R": np.ones(101)}], cfg)


def test_no_runs_give_no_histories(exp2_net):
    assert simulate_runs(exp2_net, [], SimConfig(dx=5.0, duration=0.5)) == []


@pytest.mark.parametrize(
    "dx, courant, duration, message",
    # arrays larger than any address space, a shape numpy cannot hold, and counts that are not finite
    [(5.0, 1e-12, 1.0, "320 cells and 2"), (1e-12, 1.0, 1.0, "1600000000000000 cells and 9"),
     (5.0, 1.0, 1e300, "320 cells and 2"), (5e-324, 1.0, 1.0, "cell or step count"),
     (5.0, 5e-324, 1.0, "cell or step count")],
)
def test_run_too_large_for_memory_raises_out_of_range(exp2_net, dx, courant, duration, message):
    cfg = SimConfig(dx=dx, duration=duration, courant=courant)
    with pytest.raises(ConfigError, match=message):
        step_inflow(exp2_net, cfg, "A")
    with pytest.raises(ConfigError, match=message):
        simulate_runs(exp2_net, [{}], cfg)
    with pytest.raises(ConfigError, match=message):  # a batch: its inflow and fields carry a runs axis
        simulate_runs(exp2_net, [{}, {}, {}], cfg, fields=True)


def _batch_bytes_by_hand(net, cfg, n_runs, fields):
    """The bytes a batch takes: per step its time, and per run inflow per vertex, a trace per leaf, H and Q per node
    with fields; per node of every run 20 working values, per pipe end 12, and per node of one run 4 for the grids."""
    cells, _, n_steps = _run_size(net, cfg)
    n_nodes = sum(cells) + len(cells)
    per_step = 1 + n_runs * (len(net.vertices) + len(net.accessible) + (2 * n_nodes if fields else 0))
    return 8 * ((n_steps + 1) * per_step + n_runs * (20 * n_nodes + 2 * 12 * len(cells)) + 4 * n_nodes)


@pytest.mark.parametrize("fields", [True, False])
def test_batch_past_physical_memory_refused_before_allocating(exp2_net, monkeypatch, fields):
    # the guard reads physical memory, set here to a few bytes either side of the batch's own estimate
    cfg = SimConfig(dx=10.0, duration=0.3, courant=0.95)
    runs = [step_inflow(exp2_net, cfg, leaf) for leaf in exp2_net.accessible]
    need = _batch_bytes_by_hand(exp2_net, cfg, len(runs), fields)
    monkeypatch.setattr(ERRORS, "_physical_memory", lambda: need - 1)
    with pytest.raises(ConfigError, match=f"cells and {len(runs[0]['A']) - 1} time steps needs {need} bytes, more "
                                         f"than the {need - 1} bytes of physical memory"):
        simulate_runs(exp2_net, runs, cfg, fields=fields)
    monkeypatch.setattr(ERRORS, "_physical_memory", lambda: need)
    hists = simulate_runs(exp2_net, runs, cfg, fields=fields)
    assert len(hists) == len(runs)


def test_batch_peak_within_memory_estimate(exp2_net):
    # the per-node working arrays (state, weighted, foot, theta, B, ...) outweigh the per-step ones on a fine grid
    # and a short run, and the estimate the guard checks counts them: the traced peak stays within it
    cfg = SimConfig(dx=0.5, duration=1.9, courant=0.95)
    runs = [step_inflow(exp2_net, cfg, leaf) for leaf in exp2_net.accessible]
    simulate_runs(exp2_net, runs, cfg, fields=False)  # warm up
    tracemalloc.start()
    try:
        simulate_runs(exp2_net, runs, cfg, fields=False)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= _batch_bytes_by_hand(exp2_net, cfg, len(runs), fields=False)


def test_run_past_a_few_megabytes_of_memory_refused(exp2_net, monkeypatch):
    # a run of 5e6 steps would need 40 MB for its step series alone: refused before np.ones is called
    monkeypatch.setattr(ERRORS, "_physical_memory", lambda: 4 << 20)
    monkeypatch.setattr(SIMULATE.np, "ones", lambda *args: pytest.fail("allocated"))
    monkeypatch.setattr(SIMULATE.np, "zeros", lambda *args: pytest.fail("allocated"))
    cfg = SimConfig(dx=5.0, duration=25000.0, courant=1.0)
    with pytest.raises(ConfigError, match=r"needs \d+ bytes, more than the 4194304 bytes of physical memory"):
        step_inflow(exp2_net, cfg, "A")
    with pytest.raises(ConfigError, match="4194304 bytes of physical memory"):
        simulate_runs(exp2_net, [{}], cfg, fields=False)


def test_unrepresentable_run_without_a_memory_reading_is_out_of_range(exp2_net, monkeypatch):
    # no physical-memory reading, so no guard: numpy's refusal of a 1e300 s step series becomes a ConfigError
    monkeypatch.setattr(ERRORS, "_physical_memory", lambda: 0)
    with pytest.raises(ConfigError, match="does not fit in memory: Maximum allowed dimension exceeded"):
        step_inflow(exp2_net, SimConfig(dx=5.0, duration=1e300), "A")


def test_no_memory_guard_where_the_system_does_not_say(monkeypatch):
    def unsupported(name):
        raise ValueError(f"unrecognized configuration name {name!r}")

    assert _physical_memory() > 0
    with pytest.raises(ConfigError, match="physical memory"), _allocating("a batch", 1 << 80):
        pass
    monkeypatch.setattr(ERRORS.os, "sysconf", unsupported)
    assert _physical_memory() == 0
    with _allocating("a batch", 1 << 80):  # no reading, no guard: allocation failures remain the only check
        pass


def test_batch_refuses_a_bad_later_run_naming_its_leaf(exp2_net):
    cfg = SimConfig(dx=5.0, duration=0.5, courant=0.95)
    step = step_inflow(exp2_net, cfg, "A")
    with pytest.raises(ConfigError, match="'Z' is not an accessible leaf"):
        simulate_runs(exp2_net, [step, {"Z": step["A"]}], cfg)
    with pytest.raises(ConfigError, match="series for 'C' has 7 samples"):
        simulate_runs(exp2_net, [step, {}, {"B": step["A"], "C": np.ones(7)}], cfg, fields=False)


# -- wave propagation ---------------------------------------------------------


def test_right_moving_wave_uniform_pipe(single_pipe_net):
    # short rectangular inflow at x = 0; on the moving front H = (a/gA) Q
    cfg = SimConfig(dx=5.0, duration=0.4, courant=1.0)
    n_steps = int(cfg.duration / 0.005 + 1e-6)
    series = np.zeros(n_steps + 1)
    series[:5] = 1.0
    hist = simulate_runs(single_pipe_net, [{"L": series}], cfg)[0]

    k = np.searchsorted(hist.t, 0.3)
    h_row = hist.H["P"][k]
    q_row = hist.Q["P"][k]
    inside = slice(1, np.searchsorted(hist.grids["P"].x, 0.3 * 1000.0) - 1)
    assert h_row[inside] == pytest.approx(B_UNIT * q_row[inside])
    # front has not passed 300 m yet
    beyond = hist.grids["P"].x > 0.3 * 1000.0 + 5.0
    assert np.all(h_row[beyond] == 0.0)
    assert np.all(q_row[beyond] == 0.0)


def test_causality_finite_speed(exp2_net):
    # exact zeros beyond the front hold at Courant 1, where transport is exact
    cfg = SimConfig(dx=5.0, duration=0.25, courant=1.0)
    hist = simulate_runs(exp2_net, [step_inflow(exp2_net, cfg, "A")], cfg)[0]
    k = len(hist.t) - 1
    t = hist.t[k]
    for pid, g in hist.grids.items():
        pipe = exp2_net.pipes[pid]
        for node, x in enumerate(g.x):
            d = network_distance(exp2_net, "A", PointOnPipe(pid, float(x)))
            if d > 1000.0 * t + g.dx:
                assert hist.H[pid][k, node] == 0.0
                assert hist.Q[pid][k, node] == 0.0


def test_junction_transmission_exp1(exp1_net):
    # unit step from A: junction passes 2/3, receiver B doubles it at 0.7 s
    cfg = SimConfig(dx=5.0, duration=1.0, courant=1.0)
    hist = simulate_runs(exp1_net, [step_inflow(exp1_net, cfg, "A")], cfg)[0]
    h_b = hist.boundary["B"]
    before = h_b[np.searchsorted(hist.t, 0.65)]
    after = h_b[np.searchsorted(hist.t, 0.75)]
    assert before == pytest.approx(0.0, abs=1e-12)
    assert after == pytest.approx(2.0 * (2.0 / 3.0) * B_UNIT)


def test_closed_end_reflection_doubles(single_pipe_net):
    cfg = SimConfig(dx=5.0, duration=1.2, courant=1.0)
    hist = simulate_runs(single_pipe_net, [step_inflow(single_pipe_net, cfg, "L")], cfg)[0]
    h_far = hist.H["P"][np.searchsorted(hist.t, 0.7), -1]
    assert h_far == pytest.approx(2.0 * B_UNIT)
    # no sign change: after the round trip (1.0 s) the reflected step stacks
    # another 2x on top of the direct one at the source
    h_src = hist.boundary["L"][np.searchsorted(hist.t, 1.1)]
    assert h_src == pytest.approx(3.0 * B_UNIT)


def test_junction_head_continuity_and_kirchhoff(exp2_net):
    cfg = SimConfig(dx=5.0, duration=1.0, courant=0.95)
    hist = simulate_runs(exp2_net, [step_inflow(exp2_net, cfg, "B")], cfg)[0]
    # pipe-end nodes at E: AE end, BE end, CE end, ED start
    heads = np.stack(
        [hist.H["AE"][:, -1], hist.H["BE"][:, -1], hist.H["CE"][:, -1], hist.H["ED"][:, 0]]
    )
    assert np.all(heads == heads[0])  # exact by construction
    inflow = (
        -hist.Q["AE"][:, -1] - hist.Q["BE"][:, -1] - hist.Q["CE"][:, -1] + hist.Q["ED"][:, 0]
    )
    q_scale = max(np.abs(hist.Q[p]).max() for p in hist.Q)
    assert np.abs(inflow).max() <= 1e-9 * q_scale


def test_accessible_leaf_at_pipe_end(single_pipe_spec):
    # the same pipe with from/to swapped puts the driven leaf at x = length,
    # where nu = -1: the leaf trace must not depend on the orientation
    single_pipe_spec["pipes"][0]["area"]["blocks"] = [{"x0": 150.0, "x1": 210.0, "delta": -0.3}]
    swapped = copy.deepcopy(single_pipe_spec)
    swapped["pipes"][0].update({"from": "R", "to": "L"})
    swapped["pipes"][0]["area"]["blocks"] = [{"x0": 290.0, "x1": 350.0, "delta": -0.3}]
    cfg = SimConfig(dx=5.0, duration=1.2, courant=0.95)
    runs = []
    for spec in (single_pipe_spec, swapped):
        net = validate_network(spec)
        series = np.random.default_rng(5).normal(size=len(step_inflow(net, cfg, "L")["L"]))
        hist = simulate_runs(net, [{"L": series}], cfg)[0]
        node, nu = (0, 1.0) if net.leaf_nu("L") == 1 else (-1, -1.0)
        scale = np.abs(series).max()
        assert np.abs(nu * hist.Q["P"][:, node] - series).max() <= 1e-12 * scale
        runs.append(hist.boundary["L"])
    forward, backward = runs
    assert np.abs(backward - forward).max() <= 1e-12 * np.abs(forward).max()


def test_linearity(exp1_net):
    cfg = SimConfig(dx=10.0, duration=0.9, courant=0.95)
    n = int(cfg.duration / (0.95 * 10.0 / 1000.0) + 1e-6) + 1
    rng = np.random.default_rng(3)
    f1 = rng.normal(size=n)
    f2 = rng.normal(size=n)
    alpha, beta = 1.7, -0.4
    h_1 = simulate_runs(exp1_net, [{"A": f1}], cfg)[0]
    h_2 = simulate_runs(exp1_net, [{"B": f2}], cfg)[0]
    h_12 = simulate_runs(exp1_net, [{"A": alpha * f1, "B": beta * f2}], cfg)[0]
    for pid in exp1_net.pipes:
        combo = alpha * h_1.H[pid] + beta * h_2.H[pid]
        assert np.allclose(combo, h_12.H[pid], rtol=1e-12, atol=1e-9)


def test_table_area_profile_simulates():
    from pipescope import validate_network

    spec = {
        "wave_speed": 1000.0,
        "gravity": 9.81,
        "vertices": ["L", "R"],
        "pipes": [
            {
                "id": "P",
                "from": "L",
                "to": "R",
                "length": 500.0,
                "area": {"samples": {"x": [0.0, 100.0, 200.0, 300.0, 500.0], "A": [1.0, 1.0, 0.6, 1.0, 1.0]}},
            }
        ],
        "x0": "R",
        "accessible": ["L"],
    }
    net = validate_network(spec)
    cfg = SimConfig(dx=5.0, duration=0.6, courant=1.0)
    hist = simulate_runs(net, [step_inflow(net, cfg, "L")], cfg)[0]
    assert np.isfinite(hist.boundary["L"]).all()
    # the constriction reflects part of the step back before the far wall does
    echo_window = hist.boundary["L"][(hist.t > 0.25) & (hist.t < 0.9)]
    assert np.abs(echo_window - echo_window[0]).max() > 1.0
    assert conservation_residual(hist, net, 0.5) < 1e-6


# -- conservation identity ----------------------------------------------------


def test_conservation_zero_flow(exp2_net):
    cfg = SimConfig(dx=5.0, duration=0.3, courant=1.0)
    hist = simulate_runs(exp2_net, [{}], cfg)[0]
    assert conservation_residual(hist, exp2_net, 0.2) == 0.0


def test_conservation_courant_one(exp2_net):
    cfg = SimConfig(dx=5.0, duration=0.6, courant=1.0)
    hist = simulate_runs(exp2_net, [step_inflow(exp2_net, cfg, "A")], cfg)[0]
    assert conservation_residual(hist, exp2_net, 0.5) < 1e-6


def test_conservation_courant_095(exp2_net):
    cfg = SimConfig(dx=5.0, duration=0.6, courant=0.95)
    hist = simulate_runs(exp2_net, [step_inflow(exp2_net, cfg, "A")], cfg)[0]
    assert conservation_residual(hist, exp2_net, 0.5) < 1e-2


@pytest.mark.parametrize("preset_net", ["exp1_net", "exp2_net"])
def test_leaf_traces_without_fields_are_bit_identical(preset_net, request):
    net = request.getfixturevalue(preset_net)
    cfg = SimConfig(dx=10.0, duration=0.5, courant=0.95)
    flows = step_inflow(net, cfg, net.accessible[0])
    full = simulate_runs(net, [flows], cfg, fields=True)[0]
    lean = simulate_runs(net, [flows], cfg, fields=False)[0]
    assert lean.H == lean.Q == {}
    assert list(lean.boundary) == list(net.accessible)
    assert lean.t.tobytes() == full.t.tobytes()
    for leaf in net.accessible:
        pipe = net.leaf_pipe(leaf)
        node = 0 if pipe.end_coord(leaf) == 0.0 else -1
        assert lean.boundary[leaf].tobytes() == full.H[pipe.id][:, node].tobytes()
        assert full.boundary[leaf].tobytes() == full.H[pipe.id][:, node].tobytes()


def test_zero_step_run_keeps_its_time_step(exp1_net):
    cfg = SimConfig(dx=5.0, duration=0.0, courant=0.95)
    hist = simulate_runs(exp1_net, [step_inflow(exp1_net, cfg, "A")], cfg)[0]
    assert len(hist.t) == 1
    longer = simulate_runs(exp1_net, [{}], SimConfig(dx=5.0, duration=0.1, courant=0.95), fields=False)[0]
    assert hist.dt == longer.dt == longer.t[1] - longer.t[0]
    with pytest.raises(ValueError, match="outside the recorded time span"):
        conservation_residual(hist, exp1_net, hist.dt)


def test_conservation_residual_needs_fields(exp2_net):
    cfg = SimConfig(dx=10.0, duration=0.6, courant=1.0)
    hist = simulate_runs(exp2_net, [step_inflow(exp2_net, cfg, "A")], cfg, fields=False)[0]
    with pytest.raises(ValueError, match="fields=True"):
        conservation_residual(hist, exp2_net, 0.5)


# -- the step against the gather-based step it replaced -----------------------


def _reference_simulate(net, flows, cfg, fields=True):
    """The gather-based solver the slice step replaced: per-cell index arrays, fresh arrays every step.

    Returns the time grid, the leaf traces, and per pipe H and Q if ``fields``.
    """
    cells = {pid: max(1, round(p.length / cfg.dx)) for pid, p in net.pipes.items()}
    dt = cfg.courant * min(p.length / cells[pid] for pid, p in net.pipes.items()) / net.wave_speed
    n_steps = int(cfg.duration / dt + 1e-6)
    grids = {}
    for pid, pipe in net.pipes.items():
        x = np.linspace(0.0, pipe.length, cells[pid] + 1)
        areas = np.asarray(pipe.area((x[:-1] + x[1:]) / 2), dtype=float)
        grids[pid] = (pipe.length / cells[pid], net.wave_speed / (net.gravity * areas))
    vertex = {v: i for i, v in enumerate(net.vertices)}

    inflow = np.zeros((n_steps + 1, len(vertex)))
    for leaf, series in flows.items():
        inflow[:, vertex[leaf]] = series

    # cells of all pipes in one array: left node, impedance, Courant ratio
    sizes = np.array([len(impedance) for _, impedance in grids.values()])
    first_node = np.concatenate([[0], np.cumsum(sizes + 1)])
    lo = np.concatenate([s + np.arange(n) for s, n in zip(first_node, sizes)])
    hi = lo + 1
    B = np.concatenate([impedance for _, impedance in grids.values()])
    theta = np.repeat([net.wave_speed * dt / dx for dx, _ in grids.values()], sizes)
    rest = 1 - theta
    # interior nodes: the right node of every cell that has a right neighbour
    inner = np.flatnonzero(lo[1:] == hi[:-1])
    mid, B_inner, B_sum = hi[inner], B[inner], B[inner] + B[inner + 1]

    # pipe ends in pipe order, the x = 0 end first: node, vertex, end cell, nu
    first_cell = first_node[:-1] - np.arange(len(sizes))
    end_node = np.column_stack([first_node[:-1], first_node[1:] - 1]).ravel()
    end_cell = np.column_stack([first_cell, first_cell + sizes - 1]).ravel()
    end_vertex = np.array([vertex[v] for p in net.pipes.values() for v in (p.from_vertex, p.to_vertex)])
    nu = np.tile([1.0, -1.0], len(sizes))
    B_end = B[end_cell]
    inv_B_vertex = np.bincount(end_vertex, 1.0 / B_end, len(vertex))

    end_at = dict(zip(end_vertex.tolist(), end_node.tolist()))
    leaf_node = np.array([end_at[vertex[leaf]] for leaf in net.accessible])

    n_nodes = first_node[-1]
    if fields:
        H = np.zeros((n_steps + 1, n_nodes))
        Q = np.zeros_like(H)
    traces = np.empty((n_steps + 1, len(leaf_node)))
    h = q = np.zeros(n_nodes)
    for step in range(n_steps + 1):
        cp = theta * h[lo] + rest * h[hi] + B * (theta * q[lo] + rest * q[hi])
        cm = theta * h[hi] + rest * h[lo] - B * (theta * q[hi] + rest * q[lo])
        h, q = (H[step], Q[step]) if fields else (np.empty(n_nodes), np.empty(n_nodes))
        q_inner = (cp[inner] - cm[inner + 1]) / B_sum
        q[mid] = q_inner
        h[mid] = cp[inner] - B_inner * q_inner
        c_end = np.where(nu > 0, cm[end_cell], cp[end_cell])
        h_v = (np.bincount(end_vertex, c_end / B_end, len(vertex)) + inflow[step]) / inv_B_vertex
        h_end = h_v[end_vertex]
        h[end_node] = h_end
        q[end_node] = nu * (h_end - c_end) / B_end
        traces[step] = h[leaf_node]

    t = np.arange(n_steps + 1) * dt
    boundary = {leaf: traces[:, k] for k, leaf in enumerate(net.accessible)}
    if not fields:
        return t, boundary, {}, {}
    nodes = {pid: slice(s, s + n + 1) for pid, s, n in zip(grids, first_node, sizes)}
    return t, boundary, {p: H[:, s] for p, s in nodes.items()}, {p: Q[:, s] for p, s in nodes.items()}


def _treegen():
    path = Path(__file__).resolve().parents[1] / "perfbench" / "treegen.py"
    spec = importlib.util.spec_from_file_location("treegen", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.fixture(scope="module")
def tree_measured_net():
    return validate_network(_treegen().generate(1, "measured"))


@pytest.mark.parametrize("fields", [True, False])
@pytest.mark.parametrize(
    "preset_net, dx, courant, duration, driven",
    [
        ("exp1_net", 5.0, 1.0, 1.2, "step"),
        ("exp2_net", 5.0, 0.95, 1.0, "step"),
        ("exp1_net", 350.0, 1.0, 3.0, "step"),  # AD and BD one cell each, DC three
        ("exp1_net", 5000.0, 0.8, 8.0, "noise"),  # every pipe a single cell
        ("tree_measured_net", 5.0, 0.95, 0.8, "step"),
        ("tree_measured_net", 6.0, 0.6, 0.5, "noise"),  # several driven leaves, non-step series
        ("exp2_net", 7.0, 0.75, 0.6, "noise"),
    ],
)
def test_step_matches_gather_reference_bit_for_bit(preset_net, dx, courant, duration, driven, fields, request):
    net = request.getfixturevalue(preset_net)
    cfg = SimConfig(dx=dx, duration=duration, courant=courant)
    flows = step_inflow(net, cfg, net.accessible[-1])
    if driven == "noise":
        rng = np.random.default_rng(11)
        n = len(flows[net.accessible[-1]])
        driven_leaves = net.accessible[: max(2, len(net.accessible) - 1)]  # all but one leaf, or both of exp1's
        flows = {leaf: rng.normal(size=n) * 10.0 ** rng.integers(-3, 3) for leaf in driven_leaves}
    hist = simulate_runs(net, [flows], cfg, fields=fields)[0]
    t, boundary, H, Q = _reference_simulate(net, flows, cfg, fields=fields)
    assert hist.t.tobytes() == t.tobytes()
    assert list(hist.boundary) == list(boundary)
    for leaf in boundary:
        assert hist.boundary[leaf].tobytes() == boundary[leaf].tobytes()
    assert list(hist.H) == list(H) and list(hist.Q) == list(Q)
    for pid in H:
        assert hist.H[pid].tobytes() == H[pid].tobytes()
        assert hist.Q[pid].tobytes() == Q[pid].tobytes()
    if fields:
        assert [len(g.x) for g in hist.grids.values()] == [h.shape[1] for h in H.values()]


def _assert_matches_reference(hist, net, flows, cfg, fields):
    t, boundary, H, Q = _reference_simulate(net, flows, cfg, fields=fields)
    assert hist.t.tobytes() == t.tobytes() and hist.dt == t[1] - t[0]
    assert list(hist.boundary) == list(boundary)
    for leaf in boundary:
        assert hist.boundary[leaf].tobytes() == boundary[leaf].tobytes()
    assert list(hist.H) == list(H) and list(hist.Q) == list(Q)
    for pid in H:
        assert hist.H[pid].tobytes() == H[pid].tobytes()
        assert hist.Q[pid].tobytes() == Q[pid].tobytes()


@pytest.mark.parametrize("fields", [True, False])
@pytest.mark.parametrize("batch", ["one", "every source", "mixed"])
@pytest.mark.parametrize(
    "preset_net, dx, courant, duration",
    [
        ("exp1_net", 5.0, 1.0, 1.2),
        ("exp2_net", 7.0, 0.75, 0.6),
        ("exp1_net", 350.0, 1.0, 3.0),  # AD and BD one cell each, DC three
        ("exp1_net", 5000.0, 0.8, 8.0),  # every pipe a single cell
        ("tree_measured_net", 6.0, 0.6, 0.5),
    ],
)
def test_batch_runs_match_gather_reference_bit_for_bit(preset_net, dx, courant, duration, batch, fields, request):
    # every run of one batch is held to the gather-based solver run on its flows alone
    net = request.getfixturevalue(preset_net)
    cfg = SimConfig(dx=dx, duration=duration, courant=courant)
    steps = [step_inflow(net, cfg, leaf) for leaf in net.accessible]
    rng = np.random.default_rng(3)
    n = len(steps[0][net.accessible[0]])
    noise = {leaf: rng.normal(size=n) * 10.0 ** rng.integers(-3, 3) for leaf in net.accessible}
    runs = {
        "one": [steps[-1]],
        "every source": steps,
        "mixed": [noise, {}, steps[0], {net.accessible[-1]: noise[net.accessible[0]]}, steps[-1], {}],
    }[batch]
    hists = simulate_runs(net, runs, cfg, fields=fields)
    assert len(hists) == len(runs)
    for flows, hist in zip(runs, hists):
        _assert_matches_reference(hist, net, flows, cfg, fields)


def _area_edits(draw, length):
    """Nothing, a block or a sampled table for a pipe of ``length``: the area per cell then varies along the pipe."""
    kind = draw(st.sampled_from(["uniform", "block", "table"]))
    if kind == "block":
        lo = draw(st.floats(min_value=0.0, max_value=0.8)) * length
        delta = draw(st.sampled_from([-0.4, 0.6]))
        return {"base": 1.0, "blocks": [{"x0": lo, "x1": lo + 0.15 * length, "delta": delta}]}
    if kind == "table":
        areas = draw(st.lists(st.sampled_from([0.5, 0.8, 1.0, 1.7]), min_size=3, max_size=3))
        return {"samples": {"x": [0.0, 0.2 * length, 0.5 * length, 0.8 * length, length],
                            "A": [areas[0], areas[0], areas[1], areas[2], areas[2]]}}
    return None


@given(tree_specs(), st.data())
@settings(max_examples=100, deadline=None)
def test_random_tree_batches_match_gather_reference_bit_for_bit(spec, data):
    # every pipe a length of 50-500 m: at these dx its cells differ in size, so the Courant ratio differs per pipe
    for pipe in spec["pipes"]:
        pipe["area"] = _area_edits(data.draw, pipe["length"]) or pipe["area"]
    net = validate_network(spec)
    dx = data.draw(st.sampled_from([7.0, 13.0, 30.0, 45.0]))
    courant = data.draw(st.one_of(st.just(1.0), st.floats(min_value=0.05, max_value=1.0)))
    _, dt, _ = _run_size(net, SimConfig(dx=dx, duration=0.0, courant=courant))
    cfg = SimConfig(dx=dx, duration=data.draw(st.integers(min_value=1, max_value=150)) * dt, courant=courant)
    steps = [step_inflow(net, cfg, leaf) for leaf in net.accessible]
    rng = np.random.default_rng(data.draw(st.integers(min_value=0, max_value=2**32 - 1)))
    n = len(steps[0][net.accessible[0]])
    noise = {leaf: rng.normal(size=n) * 10.0 ** rng.integers(-3, 3) for leaf in net.accessible}
    runs = data.draw(st.sampled_from([
        steps,
        [noise, {}, steps[0], {net.accessible[-1]: noise[net.accessible[0]]}, steps[-1], {}],
    ]))
    fields = data.draw(st.booleans())
    hists = simulate_runs(net, runs, cfg, fields=fields)
    assert len(hists) == len(runs)
    for flows, hist in zip(runs, hists):
        _assert_matches_reference(hist, net, flows, cfg, fields)
