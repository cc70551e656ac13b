"""Boundary-control system assembly, solve, volumes, area profiles."""

import copy
import importlib
import math
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from pipescope import (
    PointOnPipe,
    ReconConfig,
    SampledIRM,
    SimConfig,
    action_times,
    area_profile,
    measure_irm,
    oracle_irm,
    sample_irm,
    validate_network,
    volume_profile,
)
from pipescope.errors import ActionTimeExceedsTau, ConfigError, NumericError
import pipescope.inversion as inversion
from pipescope.inversion import VolumeProfile, _active, _profile_points, _s_matrix, _samples, _solve_point
from pipescope.presets import PRESETS


@pytest.fixture(scope="module")
def exp1_irm(exp1_net):
    return sample_irm(oracle_irm(exp1_net, horizon=1.61), dt=0.01)


@pytest.fixture(scope="module")
def exp2_irm(exp2_net):
    irm, _ = measure_irm(exp2_net, SimConfig(dx=5.0, duration=1.9, courant=0.95), resample_dt=0.007)
    return irm


def masked_system(irm, f, cfg, net):
    """Reference: the full (N*M)^2 matrix built per point, inactive rows and columns zeroed."""
    m = int(cfg.tau / irm.dt + 1e-6)
    n = len(irm.leaves)
    lv = np.arange(1, m + 1)
    idx_diff = np.abs(lv[:, None] - lv[None, :])
    idx_rev = 2 * m + 1 - lv[:, None] - lv[None, :]
    nu = np.array([net.leaf_nu(leaf) for leaf in irm.leaves], dtype=float)
    active = lv[None, :] * irm.dt - (cfg.tau - f_vector(f, irm)[:, None]) > irm.dt / 4
    matrix = np.zeros((n * m, n * m))
    rhs = np.zeros(n * m)
    for j in range(n):
        rhs[j * m : (j + 1) * m] = np.where(active[j], 1.0, 0.0)
        for i in range(n):
            kernel = irm.k[i, j]
            block = 0.5 * irm.dt * nu[i] * (kernel[idx_diff] + kernel[idx_rev])
            block[:, ~active[i]] = 0.0
            block[~active[j], :] = 0.0
            if i == j:
                area = net.leaf_area(irm.leaves[j])
                block[np.diag_indices(m)] += nu[j] * net.wave_speed / (area * net.gravity)
            matrix[j * m : (j + 1) * m, i * m : (i + 1) * m] = block
    return matrix, rhs, active


def reference_volume(irm, point, cfg, net):
    """Reference: masked build, least squares on the stacked [H; sqrt(lambda) I], V = a^2/g sum_i nu_i integral Q_i dt."""
    f = action_times(net, point, endpoint_ok=True)
    matrix, rhs, active = masked_system(irm, f, cfg, net)
    mask = active.ravel()
    restricted = matrix[np.ix_(mask, mask)]
    n_active = restricted.shape[0]
    stacked = np.vstack([restricted, np.sqrt(cfg.lam) * np.eye(n_active)])
    target = np.concatenate([rhs[mask], np.zeros(n_active)])
    sol, *_ = np.linalg.lstsq(stacked, target, rcond=None)
    nu = np.repeat([net.leaf_nu(leaf) for leaf in irm.leaves], active.shape[1])
    return net.wave_speed**2 / net.gravity * irm.dt * float(nu[mask] @ sol)


def zero_irm(net, dt, horizon):
    n = len(net.accessible)
    samples = int(horizon / dt + 1e-6) + 1
    return SampledIRM(dt, net.accessible, np.zeros((n, n, samples)), horizon)


def profile_cut_points(net, pipe, cfg, dt):
    """The cut points of one pipe's profile on an IRM of step ``dt``."""
    _, offsets, _ = _profile_points(net, pipe, cfg, dt)
    return [PointOnPipe(pipe, offset) for offset in offsets.tolist()]


def f_vector(f, irm):
    """The action times ``f`` as a vector in the IRM's leaf order."""
    return np.array([f.f[leaf] for leaf in irm.leaves])


def active_mask(irm, f, cfg):
    """(N, M) mask of the samples the point with action times ``f`` uses."""
    return _active(f_vector(f, irm), cfg, irm.dt)


def volume_at(net, irm, pipe, offset, cfg):
    """V at the profile point ``offset`` from the pipe's far end (its position), from the whole profile."""
    vp = volume_profile(net, irm, pipe, cfg)
    return float(vp.volumes[np.flatnonzero(vp.positions == offset)[0]])


def gathered(monkeypatch):
    """The (idx, S) of every ``_s_matrix`` call ``volume_profile`` makes from now on, in call order."""
    calls = []
    s_matrix = inversion._s_matrix

    def recording(irm, m, net, idx):
        s = s_matrix(irm, m, net, idx)
        calls.append((idx, s))
        return s

    monkeypatch.setattr(inversion, "_s_matrix", recording)
    return calls


EXP1_CFG = dict(tau=0.8, dx=10.0)


# -- assembly -----------------------------------------------------------------


def test_single_active_leaf_zeroes_other_blocks(exp1_net, exp1_irm, monkeypatch):
    # p on AD: only f(A) > 0, all B-columns and B-rows drop out
    f = action_times(exp1_net, PointOnPipe("AD", 200.0))
    cfg = ReconConfig(**EXP1_CFG)
    active = active_mask(exp1_irm, f, cfg)
    assert not active[1].any()
    # no point of AD's profile gathers a B sample, on either solve path, so
    # no B-involved kernel entry and no right-hand side entry reaches a
    # solve, and the B flows are exactly zero
    calls = gathered(monkeypatch)
    for lam in (0.0, 1e-5):
        volume_profile(exp1_net, exp1_irm, "AD", replace(cfg, lam=lam))
        idx = calls.pop()[0]
        assert idx.size and np.all(idx < active.shape[1])

def test_exp1_system_dimensions(exp1_net, exp1_irm):
    f = action_times(exp1_net, PointOnPipe("DC", 100.0))
    cfg = ReconConfig(**EXP1_CFG)
    matrix, rhs, active = masked_system(exp1_irm, f, cfg, exp1_net)
    m = int(cfg.tau / exp1_irm.dt + 1e-6)
    assert m == 80
    assert matrix.shape == (160, 160) and rhs.shape == (160,)
    assert active.shape == (2, 80)
    idx = np.flatnonzero(active.ravel())
    s = _s_matrix(exp1_irm, m, exp1_net, idx)
    assert s.shape == (idx.size, idx.size)


@pytest.mark.parametrize(
    "case, pipe, offset, tau, dt",
    [
        ("exp1", "DC", 100.0, 0.8, 0.01),
        ("exp1", "AD", 200.0, 0.8, 0.01),
        ("exp1", "BD", 150.0, 0.8, 0.01),
        ("exp2", "ED", 250.0, 0.9, 0.007),
        ("exp2", "BE", 100.0, 0.9, 0.007),
        ("tree6", "J1X", 60.0, 0.5, 0.01),
        ("tree6", "J5J3", 30.0, 0.5, 0.01),
        ("reversed_exp1", "DA", 200.0, 0.8, 0.01),
        ("reversed_exp1", "CD", 900.0, 0.8, 0.01),
    ],
)
def test_restricted_matrix_matches_masked_build(request, case, pipe, offset, tau, dt):
    # S built on the point's samples, in the order its pipe's profile takes
    # them up, is the per-point masked build times diag(nu), entry for entry
    net, irm = _net_irm(request, case)
    assert irm.dt == dt
    cfg = ReconConfig(tau=tau, dx=10.0)
    m = int(cfg.tau / irm.dt + 1e-6)
    matrix, rhs, active = masked_system(irm, action_times(net, PointOnPipe(pipe, offset)), cfg, net)
    assert active.shape == (len(irm.leaves), m)
    times, _, _ = _profile_points(net, pipe, cfg, irm.dt)
    profile = _active(times, cfg, irm.dt).reshape(len(times), -1)
    order = np.argsort(np.where(profile.any(axis=0), profile.argmax(axis=0), len(times)), kind="stable")
    idx = order[active.ravel()[order]]
    assert 0 < idx.size == active.sum() < active.size
    assert not np.array_equal(idx, np.sort(idx))  # the profile takes samples up out of flat order
    s = _s_matrix(irm, m, net, idx)
    nu = np.repeat([net.leaf_nu(leaf) for leaf in irm.leaves], m)[idx]
    assert np.array_equal(rhs[idx], np.ones(idx.size))
    assert np.array_equal(s, matrix[np.ix_(idx, idx)] * nu[None, :])


def test_short_horizon(exp1_net):
    short = zero_irm(exp1_net, 0.01, 1.0)  # 101 samples < 2M = 160
    with pytest.raises(ConfigError, match="kernels have 101 samples, need 160 to span"):
        volume_profile(exp1_net, short, "DC", ReconConfig(**EXP1_CFG))
    # the points' action times are checked first: out of reach (0.41 s at the first DC point), it says so on any horizon
    with pytest.raises(ActionTimeExceedsTau):
        volume_profile(exp1_net, short, "DC", ReconConfig(tau=0.3, dx=10.0))


@pytest.mark.parametrize("leaves", [("A", "D"), ("B", "A"), ("A",)], ids=["non-leaf", "reversed", "missing"])
def test_irm_leaves_must_be_the_accessible_leaves(exp1_net, exp1_irm, leaves):
    # kernels are indexed in the network's accessible order; another list crashed or read the wrong kernels
    irm = SampledIRM(exp1_irm.dt, leaves, exp1_irm.k[: len(leaves), : len(leaves)], exp1_irm.horizon)
    cfg = ReconConfig(**EXP1_CFG, lam=1e-5)
    with pytest.raises(ConfigError, match="accessible leaves"):
        volume_profile(exp1_net, irm, "DC", cfg)


def test_profile_dx_too_small_for_memory(exp1_net, exp1_irm):
    # point counts numpy cannot represent, not merely large ones
    for dx in (1e-300, 5e-324):
        with pytest.raises(ConfigError, match="profile points"):
            volume_profile(exp1_net, exp1_irm, "DC", ReconConfig(tau=0.8, dx=dx, lam=1e-5))


def test_profile_points_past_physical_memory_refused_before_allocating(exp1_net, exp1_irm, monkeypatch):
    # DC at dx 1e-4: 8,025,001 candidate points, whose active masks over 2 leaves and 80 samples take 11.9 GB,
    # against 1 GiB of physical memory; no point is made
    monkeypatch.setattr(importlib.import_module("pipescope.errors"), "_physical_memory", lambda: 1 << 30)
    monkeypatch.setattr(np, "arange", lambda *args: pytest.fail("allocated"))
    with pytest.raises(ConfigError, match=f"8025001 profile points needs {8025001 * (32 + 2 * (8 + 9 * 80))} bytes"):
        volume_profile(exp1_net, exp1_irm, "DC", ReconConfig(tau=0.8, dx=1e-4, lam=1e-5))


def test_system_past_physical_memory_refused_before_allocating(exp2_net, monkeypatch):
    # a zero 3 x 3 x 190,001 IRM at dt 1e-5: ED's profile uses 259,100 samples, an S of 537 GB and a factored
    # buffer twice that, against 8 GiB of physical memory; the profile does not allocate its S
    irm = SampledIRM(1e-5, exp2_net.accessible, np.zeros((3, 3, 190_001)), 1.9)
    cfg = ReconConfig(tau=0.9, dx=7.0, lam=1.0)
    monkeypatch.setattr(importlib.import_module("pipescope.errors"), "_physical_memory", lambda: 8 << 30)
    monkeypatch.setattr(np, "empty", lambda *args: pytest.fail("allocated"))
    n = 259_100
    needs = 8 * n**2 + 16 * (n + 1) * (n + 288)
    with pytest.raises(ConfigError, match=f"a system of {n} unknowns needs {needs} bytes, more than"):
        volume_profile(exp2_net, irm, "ED", cfg)


def test_action_time_exceeds_tau(exp1_net, exp1_irm):
    # the refusal names the action time the first DC point needs
    with pytest.raises(ActionTimeExceedsTau, match=r"needs action time 0\.41s > tau = 0\.3s"):
        volume_profile(exp1_net, exp1_irm, "DC", ReconConfig(tau=0.3, dx=10.0))


def test_action_time_exceeds_tau_refused_before_assembly(exp1_net, exp1_irm, monkeypatch):
    calls = []
    monkeypatch.setattr(inversion, "_s_matrix", lambda *args: calls.append(args))
    with pytest.raises(ActionTimeExceedsTau):
        volume_profile(exp1_net, exp1_irm, "DC", ReconConfig(tau=0.3, dx=10.0))
    assert calls == []


def test_restricted_system_near_symmetry(exp1_net, exp1_irm):
    # discretization of the self-adjoint control operator: whatever the leaf
    # normals, the kernel part is symmetric under (j,l) <-> (i,k), so the restricted
    # matrix deviates from its transpose by at most two samples' worth of
    # kernel magnitude (soft check; in practice it is exact here)
    f = action_times(exp1_net, PointOnPipe("DC", 100.0))
    cfg = ReconConfig(**EXP1_CFG)
    m = int(cfg.tau / exp1_irm.dt + 1e-6)
    restricted = _s_matrix(exp1_irm, m, exp1_net, np.flatnonzero(active_mask(exp1_irm, f, cfg)))
    bound = 2 * exp1_irm.dt * np.abs(exp1_irm.k).max()
    assert np.abs(restricted - restricted.T).max() <= bound


# -- identity-limit and masking ----------------------------------------------


def test_identity_limit_flat_flow(single_pipe_net, monkeypatch):
    # k = 0: each point's leading block of the profile's S is its own active
    # samples, and their flow is flat, A*g/a
    irm = zero_irm(single_pipe_net, 0.01, 1.61)
    cfg = ReconConfig(tau=0.8, dx=10.0, lam=0.0)
    calls = gathered(monkeypatch)
    vp = volume_profile(single_pipe_net, irm, "P", cfg)
    (idx, s), = calls
    expected = single_pipe_net.leaf_area("L") * single_pipe_net.gravity / single_pipe_net.wave_speed
    points = profile_cut_points(single_pipe_net, "P", cfg, irm.dt)
    assert len(points) == len(vp.volumes) == 50
    for point in points:
        active = active_mask(irm, action_times(single_pipe_net, point, endpoint_ok=True), cfg)
        c = int(active.sum())
        assert sorted(idx[:c]) == np.flatnonzero(active).tolist()
        assert np.abs(_solve_point(s[:c, :c], np.ones(c), cfg.lam) - expected).max() < 1e-10


def test_identity_limit_uniform_area(single_pipe_net):
    # k = 0 end to end: the closed-form solve reproduces A = 1 exactly
    irm = zero_irm(single_pipe_net, 0.01, 1.61)
    cfg = ReconConfig(tau=0.8, dx=10.0, lam=0.0)
    vp = volume_profile(single_pipe_net, irm, "P", cfg)
    ap = area_profile(vp)
    assert np.abs(ap.areas - 1.0).max() < 1e-10
    assert np.abs(vp.volumes - vp.positions).max() < 1e-8


def test_inactive_samples_exactly_zero(exp1_net, exp1_irm, monkeypatch):
    # the point 150 m from D takes the first samples of the profile's S,
    # exactly its active ones: its flows there are nonzero, and the samples
    # it leaves out carry exactly zero flow
    cfg = ReconConfig(**EXP1_CFG, lam=1e-5)
    calls = gathered(monkeypatch)
    vp = volume_profile(exp1_net, exp1_irm, "DC", cfg)
    (idx, s), = calls
    k = [p.offset for p in profile_cut_points(exp1_net, "DC", cfg, exp1_irm.dt)].index(150.0)
    active = active_mask(exp1_irm, action_times(exp1_net, PointOnPipe("DC", 150.0)), cfg)
    c = int(active.sum())
    assert 0 < c < active.size and sorted(idx[:c]) == np.flatnonzero(active).tolist()
    q = _solve_point(s[:c, :c], np.ones(c), cfg.lam)
    flows = np.zeros(active.size)
    flows[idx[:c]] = q
    flows = flows.reshape(active.shape)
    for i in range(len(exp1_irm.leaves)):
        assert np.all(flows[i][~active[i]] == 0.0)
        assert np.all(flows[i][active[i]] != 0.0)
    volume = exp1_net.wave_speed**2 * exp1_irm.dt / exp1_net.gravity * float(np.ones(c) @ q)
    assert vp.volumes[k] == pytest.approx(volume, rel=1e-10)


def test_tikhonov_large_lambda_kills_flow(exp1_net, exp1_irm):
    small, huge = (volume_profile(exp1_net, exp1_irm, "DC", ReconConfig(**EXP1_CFG, lam=lam)) for lam in (1e-5, 1e12))
    assert np.all(np.abs(huge.volumes) < 1e-6 * np.abs(small.volumes))


def test_singular_system_raises():
    s = np.array([[1.0, 1.0], [1.0, 1.0]])
    with pytest.raises(NumericError, match="restricted matrix rank 1 < 2 with lambda = 0"):
        _solve_point(s, np.ones(2), 0.0)
    # with regularization the same system solves fine
    assert np.isfinite(_solve_point(s, np.ones(2), 1e-3)).all()


def test_regularised_solve_where_normal_equations_are_singular():
    # lambda = 1e-5 is lost against S^T S entries of 2e20, which leaves the
    # normal equations exactly singular; S - i sqrt(lambda) I is not, and its
    # solve is the Tikhonov solution: nu is S's eigenvector of eigenvalue
    # 2e10, so q = 2e10/(4e20 + lambda) nu, which a least-squares solve of
    # the stacked [S; sqrt(lambda) I] (condition 6e12) meets to its rounding
    s, lam = 1e10 * np.ones((2, 2)), 1e-5
    q = _solve_point(s, np.ones(2), lam)
    assert np.all(np.abs(q - 2e10 / (4e20 + lam)) <= 1e-15 * np.abs(q))
    stacked = np.vstack([s, math.sqrt(lam) * np.eye(2)])
    expected, *_ = np.linalg.lstsq(stacked, np.array([1.0, 1.0, 0.0, 0.0]), rcond=None)
    assert np.all(np.abs(q - expected) <= 1e-7 * np.abs(q))


# -- volumes ------------------------------------------------------------------


def test_exp1_volume_at_dc_point(exp1_net, exp1_irm):
    cfg = ReconConfig(**EXP1_CFG, lam=1e-5)
    assert volume_at(exp1_net, exp1_irm, "DC", 100.0, cfg) == pytest.approx(800.0, rel=1e-6)


def test_exp1_dc_volumes_keep_the_sample_at_tau(exp1_net, exp1_irm):
    # 0.57 / 0.01 falls just under 57 in float division: the sample at tau still counts, so each DC volume is
    # AD and BD whole plus DC up to the point, not 10 m^3 (one sample of the a*A*dt flow) less
    vp = volume_profile(exp1_net, exp1_irm, "DC", ReconConfig(tau=0.57, dx=10.0, lam=1e-5))
    assert vp.positions[0] == 10.0
    assert np.all(np.abs(vp.volumes - (700.0 + vp.positions)) <= 1e-6 * (700.0 + vp.positions))


@given(st.integers(1, 10**5), st.floats(1e-4, 1.0))
@example(57, 0.01)
@example(100, 0.007)
@settings(max_examples=300)
def test_samples_per_leaf_at_a_multiple_of_dt(k, dt):
    # tau = k*dt holds k samples dt, ..., k*dt, wherever float division lands k*dt / dt
    assert _samples(ReconConfig(tau=k * dt, dx=1.0), dt) == k


def test_exp1_volume_near_leaf(exp1_net, exp1_irm):
    cfg = ReconConfig(**EXP1_CFG, lam=1e-5)
    assert volume_at(exp1_net, exp1_irm, "AD", 10.0, cfg) == pytest.approx(10.0, rel=1e-6)


def test_exp1_profile_extents(exp1_net, exp1_irm):
    cfg = ReconConfig(**EXP1_CFG, lam=1e-5)
    dc = volume_profile(exp1_net, exp1_irm, "DC", cfg)
    assert dc.positions[-1] == pytest.approx(400.0)  # tau-limited, not 1000
    ad = volume_profile(exp1_net, exp1_irm, "AD", cfg)
    assert ad.positions[-1] == pytest.approx(400.0)  # full pipe, last point at D
    assert len(ad.volumes) == 40


def test_exp1_ad_profile_linear(exp1_net, exp1_irm):
    cfg = ReconConfig(**EXP1_CFG, lam=1e-5)
    vp = volume_profile(exp1_net, exp1_irm, "AD", cfg)
    assert np.abs(vp.volumes - vp.positions).max() < 1e-4


def test_exp1_volume_monotone(exp1_net, exp1_irm):
    cfg = ReconConfig(**EXP1_CFG, lam=1e-5)
    for pid in exp1_net.pipes:
        vp = volume_profile(exp1_net, exp1_irm, pid, cfg)
        assert np.all(np.diff(vp.volumes) > 0.0)


@pytest.mark.parametrize(
    "preset, pipe, lam",
    [
        ("exp1", "AD", 1e-5),
        ("exp1", "BD", 1e-5),
        ("exp1", "DC", 1e-5),
        ("exp2", "ED", 1.0),
        ("exp2", "BE", 1e-5),
    ],
)
def test_profile_matches_stacked_lstsq(request, monkeypatch, preset, pipe, lam):
    # the per-point path, the complex solve on each point's leading block
    # of the shared S, against the per-point masked build solved by least
    # squares on [H; sqrt(lambda) I]
    net = request.getfixturevalue(f"{preset}_net")
    irm = request.getfixturevalue(f"{preset}_irm")
    tau, dx = (0.8, 10.0) if preset == "exp1" else (0.9, 7.0)
    cfg = ReconConfig(tau=tau, dx=dx, lam=lam)
    monkeypatch.setattr(inversion, "STABILITY_TOL", -1.0)  # no factorisation passes, so every point is solved alone
    vp = volume_profile(net, irm, pipe, cfg)
    assert vp.solver == "per-point: stability check failed"
    _assert_matches_reference(net, irm, pipe, cfg, vp)


def test_profile_unreachable_first_point(exp1_net, exp1_irm):
    # the first DC point needs f(A) = 0.41 s, out of reach for tau = 0.35
    cfg = ReconConfig(tau=0.35, dx=10.0)
    with pytest.raises(ActionTimeExceedsTau):
        volume_profile(exp1_net, exp1_irm, "DC", cfg)


def test_marginal_point_singular_without_regularization(exp1_net, exp1_irm):
    # at tau = max f exactly, the profile's one point 10 m from D, waves
    # from the two leaves can cancel at the junction: the restricted
    # operator has a null direction, so the unregularized solve refuses
    # while any positive weight proceeds
    cfg = ReconConfig(tau=0.41, dx=10.0)
    with pytest.raises(NumericError, match=r"restricted matrix rank \d+ < \d+ with lambda = 0"):
        volume_profile(exp1_net, exp1_irm, "DC", cfg)
    vp = volume_profile(exp1_net, exp1_irm, "DC", replace(cfg, lam=1e-5))
    assert vp.positions.tolist() == [10.0]
    assert vp.volumes[0] == pytest.approx(710.0, rel=1e-3)


def test_area_profile_basics():
    vp = VolumeProfile("P", np.array([10.0, 20.0, 30.0]), np.array([10.0, 20.0, 30.0]), 10.0)
    ap = area_profile(vp)
    assert ap.positions == pytest.approx([10.0, 20.0])
    assert ap.areas == pytest.approx([1.0, 1.0])
    with pytest.raises(ConfigError, match="profile for pipe 'P' has 1 points, need at least 2"):
        area_profile(VolumeProfile("P", np.array([10.0]), np.array([5.0]), 10.0))


def test_exp1_full_reconstruction(exp1_net, exp1_irm):
    cfg = ReconConfig(**EXP1_CFG, lam=1e-5)
    for pid, extent in [("AD", 390.0), ("BD", 290.0), ("DC", 390.0)]:
        ap = area_profile(volume_profile(exp1_net, exp1_irm, pid, cfg))
        assert ap.positions[-1] == pytest.approx(extent)
        assert np.abs(ap.areas - 1.0).max() < 0.01


def test_identity_limit_random_trees():
    # with zero kernels every solve is closed form no matter the topology or
    # pipe orientation: flat flow A*g/a per active sample, zeros elsewhere,
    # so every point's volume collapses to a * sum_i A_i * (active_i * dt)
    from test_graph import tree_specs

    @given(tree_specs(), st.data())
    @settings(max_examples=25, deadline=None)
    def run(spec, data):
        net = validate_network(spec)
        pid = data.draw(st.sampled_from(sorted(net.pipes)))
        p = PointOnPipe(pid, data.draw(st.floats(min_value=0.05, max_value=0.95)) * net.pipes[pid].length)
        dt = 0.01
        tau = action_times(net, p).max_f + 0.1
        irm = zero_irm(net, dt, 2 * tau + 2 * dt)
        cfg = ReconConfig(tau=tau, dx=10.0, lam=0.0)
        vp = volume_profile(net, irm, pid, cfg)
        points = profile_cut_points(net, pid, cfg, dt)
        assert len(vp.volumes) == len(points) > 0
        areas = np.array([net.leaf_area(leaf) for leaf in irm.leaves])
        for point, v in zip(points, vp.volumes):
            active = active_mask(irm, action_times(net, point, endpoint_ok=True), cfg)
            assert v == pytest.approx(net.wave_speed * dt * float(areas @ active.sum(axis=1)), abs=1e-8)

    run()


# exp1 with two pipes flipped: accessible leaf A sits at x = length (nu = -1)
REVERSED_EXP1 = {
    "wave_speed": 1000.0,
    "gravity": 9.81,
    "vertices": ["A", "B", "C", "D"],
    "pipes": [
        {"id": "DA", "from": "D", "to": "A", "length": 400.0, "area": {"base": 1.0, "blocks": []}},
        {"id": "BD", "from": "B", "to": "D", "length": 300.0, "area": {"base": 1.0, "blocks": []}},
        {"id": "CD", "from": "C", "to": "D", "length": 1000.0, "area": {"base": 1.0, "blocks": []}},
    ],
    "x0": "C",
    "accessible": ["A", "B"],
}


@pytest.fixture(scope="module")
def reversed_exp1():
    net = validate_network(REVERSED_EXP1)
    return net, sample_irm(oracle_irm(net, horizon=1.61), dt=0.01)


def test_reversed_pipe_orientation(exp1_irm, reversed_exp1):
    # kernels, volumes, and areas must not change with the orientation
    net, irm = reversed_exp1
    assert net.leaf_nu("A") == -1
    assert np.array_equal(irm.k, exp1_irm.k)
    cfg = ReconConfig(**EXP1_CFG, lam=1e-5)
    for pid in ("DA", "BD", "CD"):
        ap = area_profile(volume_profile(net, irm, pid, cfg))
        assert np.abs(ap.areas - 1.0).max() < 1e-8


# -- layer stripping: one factorisation per profile ----------------------------

# six accessible leaves L1-L6, x0 behind J1; lengths are whole multiples of a*dt
TREE6 = {
    "wave_speed": 1000.0,
    "gravity": 9.81,
    "vertices": ["X", "J1", "J2", "J3", "J4", "J5", "L1", "L2", "L3", "L4", "L5", "L6"],
    "pipes": [
        {"id": pid, "from": a, "to": b, "length": length, "area": {"base": area, "blocks": []}}
        for pid, a, b, length, area in [
            ("J1X", "J1", "X", 120.0, 1.0),
            ("J2J1", "J2", "J1", 90.0, 1.5),
            ("J1J3", "J1", "J3", 110.0, 0.5),
            ("J4J2", "J4", "J2", 80.0, 2.0),
            ("L1J2", "L1", "J2", 130.0, 1.0),
            ("L2J3", "L2", "J3", 100.0, 1.5),
            ("J5J3", "J5", "J3", 70.0, 1.0),
            ("L3J4", "L3", "J4", 60.0, 0.5),
            ("J4L4", "J4", "L4", 90.0, 1.0),
            ("L5J5", "L5", "J5", 100.0, 2.0),
            ("L6J5", "L6", "J5", 80.0, 1.0),
        ]
    ],
    "x0": "X",
    "accessible": ["L1", "L2", "L3", "L4", "L5", "L6"],
}
TREE6_CFG = dict(tau=0.5, dx=10.0)


@pytest.fixture(scope="module")
def tree6():
    net = validate_network(TREE6)
    # unpruned: dropping small wavefronts breaks k_ij = k_ji on a tree of mixed areas
    return net, sample_irm(oracle_irm(net, horizon=1.01, prune_eps=0.0), dt=0.01)


def _net_irm(request, case):
    """Network and IRM of a test case: exp1, exp2, tree6 or reversed_exp1."""
    if case in ("tree6", "reversed_exp1"):
        return request.getfixturevalue(case)
    return request.getfixturevalue(f"{case}_net"), request.getfixturevalue(f"{case}_irm")


def _profile_case(request, case, lam):
    """Network, IRM and config of one of the three test networks."""
    net, irm = _net_irm(request, case)
    if case == "tree6":
        return net, irm, ReconConfig(**TREE6_CFG, lam=lam)
    tau, dx = (0.8, 10.0) if case == "exp1" else (0.9, 7.0)
    return net, irm, ReconConfig(tau=tau, dx=dx, lam=lam)


LAYER_CASES = [
    ("exp1", "AD", 1e-5), ("exp1", "BD", 1e-5), ("exp1", "DC", 1e-5),
    ("exp2", "AE", 1e-5), ("exp2", "BE", 1e-5), ("exp2", "CE", 1e-5), ("exp2", "ED", 1.0),
    *[("tree6", pid, 1e-5) for pid in sorted(p["id"] for p in TREE6["pipes"])],
]


@pytest.mark.parametrize("case, pipe, lam", LAYER_CASES)
def test_layer_stripping_matches_per_point(request, monkeypatch, case, pipe, lam):
    # the factored profile against each point's own masked build, solved by least squares on [H; sqrt(lambda) I];
    # S, from the kernels averaged over their leaf axes, is symmetric bit for bit
    net, irm, cfg = _profile_case(request, case, lam)
    calls = gathered(monkeypatch)
    vp = volume_profile(net, irm, pipe, cfg)
    (_, s), = calls
    expected = np.array([reference_volume(irm, p, cfg, net) for p in profile_cut_points(net, pipe, cfg, irm.dt)])
    assert vp.solver == "layer-stripping"
    assert np.array_equal(s, s.T)
    assert len(vp.volumes) == len(expected) > 5
    assert np.all(np.abs(vp.volumes - expected) <= 1e-10 * np.abs(expected))


@pytest.mark.parametrize("case, lam, n_pipes", [
    ("exp1", 1e-5, 2), ("exp1", 0.0, 2), ("exp2", 1e-5, 3), ("tree-exact-1", 1e-5, 10), ("tree-exact-7", 1e-5, 10),
])
def test_profile_reads_only_the_leaves_its_pipe_cuts_off(request, case, lam, n_pipes):
    # the method is local: with every kernel of a leaf the pipe does not cut
    # off from x0 made NaN, each profile is the same to the bit, on the same
    # path (at lambda = 0 the per-point fallback)
    if case.startswith("tree"):
        from test_simulate import _treegen

        net = validate_network(_treegen().generate(int(case[-1]), "exact"))
        irm, cfg = sample_irm(oracle_irm(net, horizon=2.4), dt=0.01), ReconConfig(tau=1.195, dx=10.0, lam=lam)
    else:
        net, irm, cfg = _profile_case(request, case, lam)
    local = 0
    for pid in sorted(net.pipes):
        f = action_times(net, PointOnPipe(pid, net.pipes[pid].length / 2)).f
        outside = np.array([f[leaf] == 0.0 for leaf in irm.leaves])
        if not outside.any():
            continue
        k = irm.k.copy()
        k[outside] = k[:, outside] = np.nan
        vp = volume_profile(net, irm, pid, cfg)
        blind = volume_profile(net, SampledIRM(irm.dt, irm.leaves, k, irm.horizon), pid, cfg)
        assert blind.volumes.tobytes() == vp.volumes.tobytes() and blind.solver == vp.solver, pid
        local += 1
    assert local == n_pipes


def test_tree6_profiles_reach_many_unknowns(tree6):
    # the in-test tree exercises several panels, column blocks and every leaf
    net, irm = tree6
    cfg = ReconConfig(**TREE6_CFG, lam=1e-5)
    times, _, _ = _profile_points(net, "J1X", cfg, irm.dt)
    active = _active(times[-1], cfg, irm.dt)
    assert active.any(axis=1).all() and active.sum() > 2 * inversion._BLOCK


def test_pruned_oracle_keeps_layer_stripping(tree6):
    # pruning drops different fronts from each source on this mixed-area
    # tree; with the kernels averaged, every pipe still takes the
    # factorisation, within 1e-5 of the unpruned IRM's volumes
    net, exact = tree6
    irm = sample_irm(oracle_irm(net, horizon=1.01), dt=0.01)
    cfg = ReconConfig(**TREE6_CFG, lam=1e-5)
    for pid in sorted(net.pipes):
        vp = volume_profile(net, irm, pid, cfg)
        assert vp.solver == "layer-stripping"
        expected = volume_profile(net, exact, pid, cfg).volumes
        assert np.all(np.abs(vp.volumes - expected) <= 1e-5 * np.abs(expected))


def test_profile_action_times_nest():
    # layer stripping needs each point's active samples to hold the previous
    # point's: no leaf's action time falls as the cut point moves towards x0
    from test_graph import tree_specs

    @given(tree_specs(), st.data())
    @settings(max_examples=25, deadline=None)
    def run(spec, data):
        net = validate_network(spec)
        pid = data.draw(st.sampled_from(sorted(net.pipes)))
        cfg = ReconConfig(tau=10.0, dx=data.draw(st.floats(min_value=5.0, max_value=50.0)), lam=1e-5)
        times, _, _ = _profile_points(net, pid, cfg, 0.01)
        assert len(times) >= 1 and (times[:-1] <= times[1:]).all()  # every pipe is at least dx long

    run()


def _assert_matches_reference(net, irm, pipe, cfg, vp, points=None):
    points = points if points is not None else profile_cut_points(net, pipe, cfg, irm.dt)
    expected = np.array([reference_volume(irm, p, cfg, net) for p in points])
    assert len(vp.volumes) == len(expected) > 10
    assert np.all(np.abs(vp.volumes - expected) <= 1e-10 * np.abs(expected))
    return expected


def _assert_within_bound(vp, expected):
    # the last point's distance to the stacked least-squares volume is
    # within the certified bound, up to that solve's own rounding
    v = vp.volumes[-1]
    assert abs(v - expected) <= vp.volume_bound * abs(v) + 1e-15 * abs(v)


def test_fallback_without_regularization(exp1_net, exp1_irm):
    cfg = ReconConfig(**EXP1_CFG, lam=0.0)
    vp = volume_profile(exp1_net, exp1_irm, "AD", cfg)
    assert vp.solver == "per-point: lambda 0"
    _assert_matches_reference(exp1_net, exp1_irm, "AD", cfg, vp)


def _skew_noise(irm, eps):
    """The IRM with seeded noise of eps max|k| added to each k_ij, i < j: k_ij no longer equals k_ji."""
    rng = np.random.default_rng(0)
    k = irm.k.copy()
    for i, j in zip(*np.triu_indices(len(irm.leaves), 1)):
        k[i, j] += eps * np.abs(irm.k).max() * rng.standard_normal(k.shape[2])
    return SampledIRM(irm.dt, irm.leaves, k, irm.horizon)


def _averaged(irm):
    """The IRM with its kernels averaged over the leaf axes, (k_ij + k_ji)/2: the system ``volume_profile`` solves."""
    return SampledIRM(irm.dt, irm.leaves, 0.5 * (irm.k + irm.k.transpose(1, 0, 2)), irm.horizon)


@pytest.mark.parametrize("case, pipe, lam, eps", [
    ("exp1", "DC", 1e-5, 1e-11), ("exp1", "DC", 1e-5, 1e-10), ("exp1", "DC", 1e-5, 1e-9),
    ("exp2", "ED", 1.0, 1e-10), ("exp2", "ED", 1.0, 1e-9), ("exp2", "ED", 1.0, 1e-8),
])
def test_layer_stripping_under_skew_noise(request, case, pipe, lam, eps):
    # the averaged kernels differ from the noisy ones by their skew part;
    # at these levels the factored profile still holds against each point's
    # masked build from the noisy IRM, and the certificate bounds the
    # averaged system it solves
    net, irm, cfg = _profile_case(request, case, lam)
    irm = _skew_noise(irm, eps)
    vp = volume_profile(net, irm, pipe, cfg)
    assert vp.solver == "layer-stripping"
    _assert_matches_reference(net, irm, pipe, cfg, vp)
    _assert_within_bound(vp, reference_volume(_averaged(irm), profile_cut_points(net, pipe, cfg, irm.dt)[-1], cfg, net))


def test_nonreciprocal_irm_factors(exp1_net, exp1_irm):
    # k_AB no longer equals k_BA, and DC uses both leaves: the averaged
    # kernels still give a symmetric S, which the factorisation solves and
    # the certificate checks, against each point's masked build from them
    k = exp1_irm.k.copy()
    k[0, 1] += 1e-6 * np.abs(k).max()
    irm = SampledIRM(exp1_irm.dt, exp1_irm.leaves, k, exp1_irm.horizon)
    cfg = ReconConfig(**EXP1_CFG, lam=1e-5)
    vp = volume_profile(exp1_net, irm, "DC", cfg)
    assert vp.solver == "layer-stripping"
    assert vp.residual <= inversion.STABILITY_TOL and vp.volume_bound <= inversion.STABILITY_TOL
    _assert_matches_reference(exp1_net, _averaged(irm), "DC", cfg, vp)


@pytest.mark.parametrize("eps", [1e-7, 1e-5, 1e-3])
def test_noisy_measured_irm_factors_and_meets_criterion_2(exp2_net, exp2_irm, eps):
    # seeded noise of eps max|k| on every kernel of the measured exp2 IRM:
    # every preset pipe factors, and its areas keep criterion 2's baseline
    # and dips
    from test_acceptance import DX2, check_exp2_areas

    rng = np.random.default_rng(0)
    k = exp2_irm.k + eps * np.abs(exp2_irm.k).max() * rng.standard_normal(exp2_irm.k.shape)
    irm = SampledIRM(exp2_irm.dt, exp2_irm.leaves, k, exp2_irm.horizon)
    lam = PRESETS["exp2"]["reconstruct"]["lam"]
    for pid in ("AE", "BE", "CE", "ED"):
        vp = volume_profile(exp2_net, irm, pid, ReconConfig(tau=0.9, dx=DX2, lam=lam))
        assert vp.solver == "layer-stripping", pid
        check_exp2_areas(pid, area_profile(vp))


@pytest.mark.parametrize("seed", range(5))
def test_trace_noise_keeps_criterion_2(exp2_net, monkeypatch, seed):
    # seeded noise of 3e-3 of each source's largest trace value on every leaf
    # trace the simulator hands the measurement: every preset pipe still
    # meets criterion 2
    from test_acceptance import DX2, check_exp2_areas

    irm_module = importlib.import_module("pipescope.irm")
    simulate_runs, rng = irm_module.simulate_runs, np.random.default_rng(seed)

    def noisy(*args, **kwargs):
        runs = simulate_runs(*args, **kwargs)
        for hist in runs:
            scale = 3e-3 * max(np.abs(trace).max() for trace in hist.boundary.values())
            for leaf, trace in hist.boundary.items():
                hist.boundary[leaf] = trace + scale * rng.standard_normal(trace.shape)
        return runs

    monkeypatch.setattr(irm_module, "simulate_runs", noisy)
    irm, _ = measure_irm(exp2_net, SimConfig(dx=5.0, duration=1.9, courant=0.95), resample_dt=0.007)
    cfg = ReconConfig(tau=0.9, dx=DX2, lam=PRESETS["exp2"]["reconstruct"]["lam"])
    for pid in ("AE", "BE", "CE", "ED"):
        check_exp2_areas(pid, area_profile(volume_profile(exp2_net, irm, pid, cfg)))


def test_forced_fallback_matches_layer_stripping_on_a_measured_tree(monkeypatch):
    # the tree-measured benchmark network of seed 2, whose pipe P07 has
    # systems of up to 757 unknowns: each point solved on its own leading
    # block agrees with the factored profile
    from test_simulate import _treegen

    net = validate_network(_treegen().generate(2, "measured"))
    irm, _ = measure_irm(net, SimConfig(dx=5.0, duration=2.6, courant=0.95), resample_dt=0.007)
    cfg = ReconConfig(tau=1.2, dx=7.0, lam=1e-5)
    factored = volume_profile(net, irm, "P07", cfg)
    monkeypatch.setattr(inversion, "STABILITY_TOL", -1.0)  # no factorisation passes, so every point is solved alone
    vp = volume_profile(net, irm, "P07", cfg)
    assert factored.solver == "layer-stripping" and vp.solver == "per-point: stability check failed"
    assert len(vp.volumes) == len(factored.volumes) > 10
    assert np.all(np.abs(vp.volumes - factored.volumes) <= 1e-12 * np.abs(factored.volumes))


@pytest.mark.parametrize("flip", [False, True], ids=["from-leaf", "to-leaf"])
def test_a_block_at_a_leaf_end_holds_the_leaf_area(exp2_spec, flip):
    # blocks are open intervals, so a block of AE starting at leaf A holds the pipe just inside A as one starting
    # 10 m past A does: both give the same IRM, so the direct term a/(gA) and the profile must agree too
    runs = []
    for past in (0.0, 10.0):
        spec = copy.deepcopy(exp2_spec)
        ae = spec["pipes"][0]
        block = {"x0": -past, "x1": 50.0, "delta": -0.5}
        if flip:  # A at x = length
            ae["from"], ae["to"] = "E", "A"
            block = {"x0": 250.0, "x1": 300.0 + past, "delta": -0.5}
        ae["area"] = {"base": 1.0, "blocks": [block]}
        net = validate_network(spec)
        assert net.leaf_area("A") == 0.5
        irm, _ = measure_irm(net, SimConfig(dx=5.0, duration=1.9, courant=0.95), resample_dt=0.007)
        runs.append((irm.k, volume_profile(net, irm, "AE", ReconConfig(tau=0.9, dx=7.0, lam=1.0)).volumes))
    (k_at, v_at), (k_past, v_past) = runs
    assert k_at.tobytes() == k_past.tobytes()
    assert v_at.size > 10 and v_at.tobytes() == v_past.tobytes()


def test_transposed_irm_gives_the_same_volumes(exp2_net, exp2_irm):
    # swapping the leaf axes of the kernels leaves their average unchanged,
    # so the factored volumes agree bit for bit
    cfg = ReconConfig(tau=0.9, dx=7.0, lam=1.0)
    swapped = SampledIRM(exp2_irm.dt, exp2_irm.leaves, exp2_irm.k.transpose(1, 0, 2), exp2_irm.horizon)
    vp, vp_t = (volume_profile(exp2_net, irm, "ED", cfg) for irm in (exp2_irm, swapped))
    assert vp.solver == vp_t.solver == "layer-stripping"
    assert vp_t.volumes.tobytes() == vp.volumes.tobytes()


def test_fallback_when_factorisation_is_inaccurate(exp1_net, exp1_irm, monkeypatch):
    # x off by 1e-8 relative, with the volumes left as factored, leaves a
    # residual of 1e-8 |nu|, far above STABILITY_TOL
    layer_stripped = inversion._layer_stripped

    def perturbed(*args):
        forms, x = layer_stripped(*args)
        return forms, x * (1 + 1e-8)

    monkeypatch.setattr(inversion, "_layer_stripped", perturbed)
    cfg = ReconConfig(**EXP1_CFG, lam=1e-5)
    vp = volume_profile(exp1_net, exp1_irm, "DC", cfg)
    assert vp.solver == "per-point: stability check failed"
    _assert_matches_reference(exp1_net, exp1_irm, "DC", cfg, vp)


def test_fallback_when_volume_disagrees_with_solve(exp1_net, exp1_irm, monkeypatch):
    # x and its residual stay exact, but the prefix-sum volume moves by 1e-8
    # relative: only the certificate's |V - scale Re nu^T x| term can see it
    layer_stripped = inversion._layer_stripped

    def shifted(*args):
        volumes, x = layer_stripped(*args)
        return volumes * (1 + 1e-8), x

    monkeypatch.setattr(inversion, "_layer_stripped", shifted)
    cfg = ReconConfig(**EXP1_CFG, lam=1e-5)
    vp = volume_profile(exp1_net, exp1_irm, "DC", cfg)
    assert vp.solver == "per-point: stability check failed"
    assert vp.residual is None and vp.volume_bound is None
    _assert_matches_reference(exp1_net, exp1_irm, "DC", cfg, vp)


@pytest.mark.parametrize("case, pipe, lam", LAYER_CASES)
def test_certificate_bounds_volume_error(request, case, pipe, lam):
    # the reported bound covers the last point's distance to a least-squares
    # solve of the stacked system, up to that solve's own rounding
    net, irm, cfg = _profile_case(request, case, lam)
    vp = volume_profile(net, irm, pipe, cfg)
    expected = reference_volume(irm, profile_cut_points(net, pipe, cfg, irm.dt)[-1], cfg, net)
    assert vp.solver == "layer-stripping"
    assert vp.residual <= inversion.STABILITY_TOL
    assert vp.volume_bound < inversion.STABILITY_TOL
    _assert_within_bound(vp, expected)


def test_certificate_bounds_random_systems():
    # random symmetric S, and x = A^-1 (nu + r) with r chosen so that x^T r
    # has no first-order part: the volume is then exact to first order, and
    # the bound covers its error while staying second order in r
    rng = np.random.default_rng(1)
    for _ in range(200):
        n = 6
        sym = rng.standard_normal((n, n))
        mu = rng.uniform(0.05, 1.0)
        s = sym + sym.T
        nu = rng.choice([-1.0, 1.0], n)
        a = s - 1j * mu * np.eye(n)
        exact = np.linalg.solve(a, nu)
        r = 1e-6 * (rng.standard_normal(n) + 1j * rng.standard_normal(n))
        r -= (exact @ r) / np.vdot(exact, exact) * exact.conj()
        x = exact + np.linalg.solve(a, r)
        v = (nu @ x).real
        residual, bound = inversion._certificate(s, nu, mu, x, v, 1.0)
        assert residual == pytest.approx(np.abs(r).max(), rel=1e-6)
        error = abs(v - (nu @ exact).real) / abs(v)
        assert error <= bound <= 2.01 * np.linalg.norm(r) ** 2 / (mu * abs(v))


def _assert_matches_leading_solves(s, nu, mu, counts):
    """The panel routine's forms and x against a complex solve of each leading block of A = S - i mu I."""
    forms, x = inversion._layer_stripped(s, nu, mu, counts)
    a = s - 1j * mu * np.eye(nu.size)
    expected = np.array([nu[:c] @ np.linalg.solve(a[:c, :c], nu[:c]) for c in counts])
    assert np.all(np.abs(forms - expected) <= 1e-10 * np.abs(expected))
    x_ref = np.linalg.solve(a, nu)
    assert np.abs(x - x_ref).max() <= 1e-10 * np.abs(x_ref).max()


@pytest.mark.parametrize("case, pipe, lam", LAYER_CASES)
def test_panels_match_leading_solves(request, monkeypatch, case, pipe, lam):
    # on each profile's own S and counts, every point's form nu_k^T A_k^-1 nu_k
    # and the largest point's x agree with LAPACK on the leading blocks
    net, irm, cfg = _profile_case(request, case, lam)
    captured = []
    layer_stripped = inversion._layer_stripped
    monkeypatch.setattr(inversion, "_layer_stripped", lambda *args: captured.append(args) or layer_stripped(*args))
    assert volume_profile(net, irm, pipe, cfg).solver == "layer-stripping"
    (s, nu, mu, counts), = captured
    _assert_matches_leading_solves(s, nu, mu, counts)


def test_panels_match_leading_solves_on_random_systems():
    # random symmetric S of norm 1, positive semi-definite or with a share
    # of its spectrum shifted below zero (the profiles' S have a few
    # eigenvalues at or just under zero), and counts from a first block of
    # 1-80 unknowns in steps of 0-5, with one step wider than _PANEL and up
    # to two _BLOCK panels: every form and x match LAPACK within 1e-10
    # relative
    @given(st.integers(1, 80), st.lists(st.integers(0, 5), max_size=30), st.data(),
           st.floats(min_value=1e-3, max_value=1.0), st.sampled_from([0.0, 0.1, 0.5]), st.integers(0, 2**32 - 1))
    @settings(max_examples=40, deadline=None)
    def run(first, steps, data, mu, shift, seed):
        wide = data.draw(st.integers(inversion._PANEL + 1, 2 * inversion._BLOCK + 1))
        steps.insert(data.draw(st.integers(0, len(steps))), wide)
        counts = np.cumsum([first, *steps])
        rng = np.random.default_rng(seed)
        m = rng.standard_normal((counts[-1], counts[-1]))
        s = m @ m.T
        s = s / np.linalg.eigvalsh(s).max() - shift * np.eye(counts[-1])
        _assert_matches_leading_solves(s, rng.choice([-1.0, 1.0], counts[-1]), mu, counts)

    run()


def test_panels_end_on_counts():
    # a stretch between two counts wider than _PANEL, such as the first
    # point's shared block, is cut into panels of _BLOCK, the last ending
    # on its count; narrower stretches join into panels of at most _PANEL
    # that end on counts
    assert (inversion._PANEL, inversion._BLOCK) == (16, 48)
    counts = np.array([100, 100, 101, 105, 118, 170, 171])
    assert inversion._panels(counts) == [(0, 48), (48, 96), (96, 100), (100, 105), (105, 118), (118, 166),
                                         (166, 170), (170, 171)]
    assert inversion._column_blocks(inversion._panels(counts)) == [(0, 48), (48, 96), (96, 118), (118, 166),
                                                                   (166, 171)]


@pytest.mark.parametrize("field, value", [("lam", math.nan), ("lam", -1.0), ("lam", math.inf),
                                          ("tau", math.nan), ("dx", -10.0), ("dx", math.inf)])
def test_recon_config_out_of_range(field, value):
    rule = "Tikhonov weight lambda must be finite and >= 0" if field == "lam" else f"{field} must be positive and finite"
    with pytest.raises(ConfigError, match=f"{rule}, not {value}"):
        ReconConfig(**{**EXP1_CFG, "lam": 1e-5, field: value})
    # frozen, a config changes only through replace, which checks again
    with pytest.raises(ConfigError, match=f"{rule}, not {value}"):
        replace(ReconConfig(**EXP1_CFG, lam=1e-5), **{field: value})


def test_recon_config_is_keyword_only_and_has_no_step():
    # the sample step is the IRM's: an old call naming dt, or passing it second, is refused
    with pytest.raises(TypeError):
        ReconConfig(tau=0.8, dt=0.01, dx=10.0)
    with pytest.raises(TypeError):
        ReconConfig(0.8, 0.01, 10.0)


def test_pipe_shorter_than_dx_gives_empty_profile(exp1_net, exp1_irm):
    cfg = ReconConfig(tau=0.8, dx=500.0, lam=1e-5)
    vp = volume_profile(exp1_net, exp1_irm, "BD", cfg)
    assert vp.positions.size == vp.volumes.size == 0
    # no point fits, but the horizon is still checked
    with pytest.raises(ConfigError, match="kernels have 101 samples, need 160 to span"):
        volume_profile(exp1_net, zero_irm(exp1_net, 0.01, 1.0), "BD", cfg)


@pytest.mark.parametrize("case, pipe, lam", [("exp2", "ED", 1.0), ("exp1", "DC", 1e-5)])
def test_factored_peak_within_its_guards(request, monkeypatch, case, pipe, lam):
    # the factored profile holds S and the complex buffer [A; nu^T], and at
    # its widest panel that panel's y and one product of _BLOCK columns with
    # the two buffers numpy takes to subtract it from a strided block;
    # LAPACK's copies of the pivot block and right-hand sides, which
    # tracemalloc does not see, are in the guard too. The traced peak stays
    # within the guard, and within S, the buffer, the widest y, three
    # products and 2 n^2 bytes for the profile's small arrays
    net, irm, cfg = _profile_case(request, case, lam)
    guards, counts = {}, []
    allocating, layer_stripped = inversion._allocating, inversion._layer_stripped

    def counted(what, n_bytes=0):
        guards[what] = max(n_bytes, guards.get(what, 0))
        return allocating(what, n_bytes)

    def recorded(*args):
        counts.append(args[3])
        return layer_stripped(*args)

    monkeypatch.setattr(inversion, "_allocating", counted)
    monkeypatch.setattr(inversion, "_layer_stripped", recorded)
    tracemalloc.start()
    try:
        vp = volume_profile(net, irm, pipe, cfg)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert vp.solver == "layer-stripping"
    n = int(counts[0][-1])
    widest = max((j1 - j0) * (n + 1 - j1) for j0, j1 in inversion._panels(counts[0]))
    assert n > 100 and widest > 10 * n
    assert peak <= max(guards.values()), (peak, guards)
    assert peak <= 8 * n**2 + 16 * (n + 1) * (n + 3 * inversion._BLOCK) + 16 * widest + 2 * n**2, peak


def test_fallback_peak_within_its_guards(exp2_net, exp2_irm, monkeypatch):
    # exp2 ED at lambda 1, solved point by point: besides S, the largest
    # point holds one complex copy of S - i sqrt(lambda) I and LAPACK's copy
    # of it, which tracemalloc does not see. The traced peak after the
    # factored attempt stays within what the guards count, and the volumes
    # match the solve on S - 1j sqrt(lambda) eye(n)
    cfg = ReconConfig(tau=0.9, dx=7.0, lam=1.0)
    monkeypatch.setattr(inversion, "STABILITY_TOL", -1.0)  # no factorisation passes, so every point is solved alone
    guards = {}
    allocating, certificate = inversion._allocating, inversion._certificate

    def counted(what, n_bytes=0):
        guards[what] = max(n_bytes, guards.get(what, 0))
        return allocating(what, n_bytes)

    def then_reset_peak(*args):
        checked = certificate(*args)
        tracemalloc.reset_peak()
        return checked

    monkeypatch.setattr(inversion, "_allocating", counted)
    monkeypatch.setattr(inversion, "_certificate", then_reset_peak)
    tracemalloc.start()
    try:
        vp = volume_profile(exp2_net, exp2_irm, "ED", cfg)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert vp.solver == "per-point: stability check failed"
    n = max(int(what.split()[3]) for what in guards if what.startswith("a system of"))  # largest point's unknowns
    assert n > 300
    assert peak <= max(guards.values()), (peak, guards)
    assert peak <= (8 + 16 + 2) * n**2, peak  # S and one complex copy, and 2 n^2 bytes for the profile's small arrays

    monkeypatch.setattr(inversion, "_solve_point",
                        lambda s, nu, lam: np.linalg.solve(s - 1j * math.sqrt(lam) * np.eye(nu.size), nu).real)
    reference = volume_profile(exp2_net, exp2_irm, "ED", cfg)
    assert np.all(np.abs(vp.volumes - reference.volumes) <= 1e-14 * np.abs(reference.volumes))
