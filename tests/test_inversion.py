"""Boundary-control system assembly, solve, volumes, area profiles."""

import math
from dataclasses import replace

import numpy as np
import pytest

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
    solve_boundary_flows,
    volume,
    volume_profile,
)
from pipescope.errors import (
    ActionTimeExceedsTau,
    ConfigError,
    HorizonTooShort,
    OutOfRange,
    SingularSystem,
    TooFewPoints,
)
import pipescope.inversion as inversion
from pipescope.inversion import VolumeProfile, _active, _profile_points, _s_matrix, _solve_point


@pytest.fixture(scope="module")
def exp1_irm(exp1_net):
    return sample_irm(oracle_irm(exp1_net, horizon=1.61), dt=0.01)


@pytest.fixture(scope="module")
def exp2_irm(exp2_net):
    irm, _ = measure_irm(
        exp2_net, SimConfig(dx=5.0, duration=1.9, courant=0.95), resample_dt=0.007, smooth_window_s=0.02
    )
    return irm


def masked_system(irm, f, cfg, net):
    """Reference: the full (N*M)^2 matrix built per point, inactive rows and columns zeroed."""
    m = math.floor(cfg.tau / irm.dt)
    n = len(irm.leaves)
    lv = np.arange(1, m + 1)
    idx_diff = np.abs(lv[:, None] - lv[None, :])
    idx_rev = 2 * m + 1 - lv[:, None] - lv[None, :]
    nu = np.array([net.leaf_nu(leaf) for leaf in irm.leaves], dtype=float)
    active = lv[None, :] * irm.dt - (cfg.tau - f.as_vector(irm.leaves)[:, None]) > irm.dt / 4
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
    """Reference: masked build, then least squares on the stacked [H; sqrt(lambda) I]."""
    f = action_times(net, point, endpoint_ok=True)
    matrix, rhs, active = masked_system(irm, f, cfg, net)
    mask = active.ravel()
    restricted = matrix[np.ix_(mask, mask)]
    n_active = restricted.shape[0]
    stacked = np.vstack([restricted, np.sqrt(cfg.lam) * np.eye(n_active)])
    target = np.concatenate([rhs[mask], np.zeros(n_active)])
    sol, *_ = np.linalg.lstsq(stacked, target, rcond=None)
    q = np.zeros(matrix.shape[0])
    q[mask] = sol
    m = math.floor(cfg.tau / irm.dt)
    return volume({leaf: q[i * m : (i + 1) * m] for i, leaf in enumerate(irm.leaves)}, irm, net)


def zero_irm(net, dt, horizon):
    n = len(net.accessible)
    samples = int(horizon / dt + 1e-6) + 1
    return SampledIRM(dt, net.accessible, np.zeros((n, n, samples)), horizon)


def profile_cut_points(net, pipe, cfg, dt):
    """The cut points of one pipe's profile on an IRM of step ``dt``."""
    _, offsets, _ = _profile_points(net, pipe, cfg, dt)
    return [PointOnPipe(pipe, offset) for offset in offsets.tolist()]


def per_point_volumes(net, irm, pipe, cfg):
    """Reference: one system built and solved per point, through the single-point API."""
    return np.array([point_volume(net, irm, p, cfg) for p in profile_cut_points(net, pipe, cfg, irm.dt)])


def point_volume(net, irm, point, cfg):
    """V(p) for one point, on a system built just for it."""
    return volume(solve_boundary_flows(irm, action_times(net, point, endpoint_ok=True), cfg, net), irm, net)


def active_mask(irm, f, cfg):
    """(N, M) mask of the samples the point with action times ``f`` uses."""
    return _active(f.as_vector(irm.leaves), cfg, irm.dt)


EXP1_CFG = dict(tau=0.8, dx=10.0)


# -- assembly -----------------------------------------------------------------


def test_single_active_leaf_zeroes_other_blocks(exp1_net, exp1_irm):
    # p on AD: only f(A) > 0, all B-columns and B-rows drop out
    f = action_times(exp1_net, PointOnPipe("AD", 200.0))
    cfg = ReconConfig(**EXP1_CFG)
    active = active_mask(exp1_irm, f, cfg)
    assert not active[1].any()
    # the system holds no B row or column, so no B-involved kernel entry
    # and no right-hand side entry reaches the solve, and the B flows come
    # back exactly zero
    for lam in (0.0, 1e-5):
        assert np.all(solve_boundary_flows(exp1_irm, f, replace(cfg, lam=lam), exp1_net)["B"] == 0.0)


def test_exp1_system_dimensions(exp1_net, exp1_irm):
    f = action_times(exp1_net, PointOnPipe("DC", 100.0))
    cfg = ReconConfig(**EXP1_CFG)
    matrix, rhs, active = masked_system(exp1_irm, f, cfg, exp1_net)
    m = math.floor(cfg.tau / exp1_irm.dt)
    assert m == 80
    assert matrix.shape == (160, 160) and rhs.shape == (160,)
    assert active.shape == (2, 80)
    idx = np.flatnonzero(active.ravel())
    s, nu = _s_matrix(exp1_irm, m, exp1_net, idx)
    assert s.shape == (idx.size, idx.size) and nu.shape == (idx.size,)


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
    # them up, is diag(nu) times the per-point masked build, entry for entry
    net, irm = _net_irm(request, case)
    assert irm.dt == dt
    cfg = ReconConfig(tau=tau, dx=10.0)
    m = math.floor(cfg.tau / irm.dt)
    matrix, rhs, active = masked_system(irm, action_times(net, PointOnPipe(pipe, offset)), cfg, net)
    assert active.shape == (len(irm.leaves), m)
    times, _, _ = _profile_points(net, pipe, cfg, irm.dt)
    profile = _active(times, cfg, irm.dt).reshape(len(times), -1)
    order = np.argsort(np.where(profile.any(axis=0), profile.argmax(axis=0), len(times)), kind="stable")
    idx = order[active.ravel()[order]]
    assert 0 < idx.size == active.sum() < active.size
    assert not np.array_equal(idx, np.sort(idx))  # the profile takes samples up out of flat order
    s, nu = _s_matrix(irm, m, net, idx)
    nu_all = np.repeat([net.leaf_nu(leaf) for leaf in irm.leaves], m)
    assert np.array_equal(nu, nu_all[idx]) and np.array_equal(rhs[idx], np.ones(idx.size))
    assert np.array_equal(s, nu[:, None] * matrix[np.ix_(idx, idx)])


def test_short_horizon(exp1_net):
    f = action_times(exp1_net, PointOnPipe("DC", 100.0))  # max f = 0.5
    short = zero_irm(exp1_net, 0.01, 1.0)  # 101 samples < 2M = 160
    with pytest.raises(HorizonTooShort):
        solve_boundary_flows(short, f, ReconConfig(**EXP1_CFG), exp1_net)
    # the point's action times are checked first: out of reach, it says so on any horizon
    with pytest.raises(ActionTimeExceedsTau):
        solve_boundary_flows(short, f, ReconConfig(tau=0.3, dx=10.0), exp1_net)


@pytest.mark.parametrize("leaves", [("A", "D"), ("B", "A"), ("A",)], ids=["non-leaf", "reversed", "missing"])
def test_irm_leaves_must_be_the_accessible_leaves(exp1_net, exp1_irm, leaves):
    # kernels are indexed in the network's accessible order; another list crashed or read the wrong kernels
    irm = SampledIRM(exp1_irm.dt, leaves, exp1_irm.k[: len(leaves), : len(leaves)], exp1_irm.horizon)
    cfg = ReconConfig(**EXP1_CFG, lam=1e-5)
    with pytest.raises(ConfigError, match="accessible leaves"):
        volume_profile(exp1_net, irm, "DC", cfg)
    with pytest.raises(ConfigError, match="accessible leaves"):
        solve_boundary_flows(irm, action_times(exp1_net, PointOnPipe("DC", 100.0)), cfg, exp1_net)


def test_profile_dx_too_small_for_memory(exp1_net, exp1_irm):
    # point counts numpy cannot represent, not merely large ones
    for dx in (1e-300, 5e-324):
        with pytest.raises(OutOfRange, match="profile points"):
            volume_profile(exp1_net, exp1_irm, "DC", ReconConfig(tau=0.8, dx=dx, lam=1e-5))


def test_action_time_exceeds_tau(exp1_net, exp1_irm):
    f = action_times(exp1_net, PointOnPipe("DC", 100.0))  # max f = 0.5
    with pytest.raises(ActionTimeExceedsTau):
        solve_boundary_flows(exp1_irm, f, ReconConfig(tau=0.3, dx=10.0), exp1_net)


def test_action_time_exceeds_tau_refused_before_assembly(exp1_net, exp1_irm, monkeypatch):
    calls = []
    monkeypatch.setattr(inversion, "_s_matrix", lambda *args: calls.append(args))
    f = action_times(exp1_net, PointOnPipe("DC", 100.0))
    with pytest.raises(ActionTimeExceedsTau):
        solve_boundary_flows(exp1_irm, f, ReconConfig(tau=0.3, dx=10.0), exp1_net)
    assert calls == []


def test_restricted_system_near_symmetry(exp1_net, exp1_irm):
    # discretization of the self-adjoint control operator: with nu = +1 the
    # kernel part is symmetric under (j,l) <-> (i,k), so the restricted
    # matrix deviates from its transpose by at most two samples' worth of
    # kernel magnitude (soft check; in practice it is exact here)
    f = action_times(exp1_net, PointOnPipe("DC", 100.0))
    cfg = ReconConfig(**EXP1_CFG)
    m = math.floor(cfg.tau / exp1_irm.dt)
    restricted, _ = _s_matrix(exp1_irm, m, exp1_net, np.flatnonzero(active_mask(exp1_irm, f, cfg)))
    bound = 2 * exp1_irm.dt * np.abs(exp1_irm.k).max()
    assert np.abs(restricted - restricted.T).max() <= bound


# -- identity-limit and masking ----------------------------------------------


def test_identity_limit_flat_flow(single_pipe_net):
    irm = zero_irm(single_pipe_net, 0.01, 1.61)
    cfg = ReconConfig(tau=0.8, dx=10.0, lam=0.0)
    f = action_times(single_pipe_net, PointOnPipe("P", 300.0))
    flows = solve_boundary_flows(irm, f, cfg, single_pipe_net)
    expected = 1.0 * single_pipe_net.gravity / single_pipe_net.wave_speed
    active = active_mask(irm, f, cfg)[0]
    assert np.abs(flows["L"][active] - expected).max() < 1e-10
    assert np.all(flows["L"][~active] == 0.0)


def test_identity_limit_uniform_area(single_pipe_net):
    # k = 0 end to end: the closed-form solve reproduces A = 1 exactly
    irm = zero_irm(single_pipe_net, 0.01, 1.61)
    cfg = ReconConfig(tau=0.8, dx=10.0, lam=0.0)
    vp = volume_profile(single_pipe_net, irm, "P", cfg)
    ap = area_profile(vp)
    assert np.abs(ap.areas - 1.0).max() < 1e-10
    assert np.abs(vp.volumes - vp.positions).max() < 1e-8


def test_inactive_samples_exactly_zero(exp1_net, exp1_irm):
    cfg = ReconConfig(**EXP1_CFG, lam=1e-5)
    f = action_times(exp1_net, PointOnPipe("DC", 150.0))
    flows = solve_boundary_flows(exp1_irm, f, cfg, exp1_net)
    active = active_mask(exp1_irm, f, cfg)
    for i, leaf in enumerate(exp1_irm.leaves):
        assert np.all(flows[leaf][~active[i]] == 0.0)
        assert np.all(flows[leaf][active[i]] != 0.0)


def test_tikhonov_large_lambda_kills_flow(exp1_net, exp1_irm):
    f = action_times(exp1_net, PointOnPipe("DC", 100.0))
    small = solve_boundary_flows(exp1_irm, f, ReconConfig(**EXP1_CFG, lam=1e-5), exp1_net)
    huge = solve_boundary_flows(exp1_irm, f, ReconConfig(**EXP1_CFG, lam=1e12), exp1_net)
    scale = max(np.abs(v).max() for v in small.values())
    assert max(np.abs(v).max() for v in huge.values()) < 1e-6 * scale


def test_singular_system_raises():
    s = np.array([[1.0, 1.0], [1.0, 1.0]])
    with pytest.raises(SingularSystem):
        _solve_point(s, np.ones(2), 0.0)
    # with regularization the same system solves fine
    assert np.isfinite(_solve_point(s, np.ones(2), 1e-3)).all()


def test_singular_normal_equations_raise():
    # lambda = 1e-5 is lost against S^T S entries of 2e20, which leaves the
    # normal equations exactly singular
    with pytest.raises(SingularSystem, match="normal equations"):
        _solve_point(1e10 * np.ones((2, 2)), np.ones(2), 1e-5)


# -- volumes ------------------------------------------------------------------


def test_exp1_volume_at_dc_point(exp1_net, exp1_irm):
    cfg = ReconConfig(**EXP1_CFG, lam=1e-5)
    v = point_volume(exp1_net, exp1_irm, PointOnPipe("DC", 100.0), cfg)
    assert v == pytest.approx(800.0, rel=1e-6)


def test_exp1_volume_near_leaf(exp1_net, exp1_irm):
    cfg = ReconConfig(**EXP1_CFG, lam=1e-5)
    v = point_volume(exp1_net, exp1_irm, PointOnPipe("AD", 10.0), cfg)
    assert v == pytest.approx(10.0, rel=1e-6)


def test_zero_flows_zero_volume(exp1_net):
    flows = {"A": np.zeros(80), "B": np.zeros(80)}
    assert volume(flows, zero_irm(exp1_net, 0.01, 1.61), exp1_net) == 0.0


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
def test_profile_matches_stacked_lstsq(request, preset, pipe, lam):
    # the normal-equation solve on the shared matrix against the per-point
    # masked build solved by least squares on [H; sqrt(lambda) I]
    net = request.getfixturevalue(f"{preset}_net")
    irm = request.getfixturevalue(f"{preset}_irm")
    tau, dx = (0.8, 10.0) if preset == "exp1" else (0.9, 7.0)
    cfg = ReconConfig(tau=tau, dx=dx, lam=lam)
    vp = volume_profile(net, irm, pipe, cfg)
    expected = np.array([reference_volume(irm, p, cfg, net) for p in profile_cut_points(net, pipe, cfg, irm.dt)])
    assert len(vp.volumes) == len(expected) > 10
    assert np.all(np.abs(vp.volumes - expected) <= 1e-10 * np.abs(expected))


def test_profile_unreachable_first_point(exp1_net, exp1_irm):
    # the first DC point needs f(A) = 0.41 s, out of reach for tau = 0.35
    cfg = ReconConfig(tau=0.35, dx=10.0)
    with pytest.raises(ActionTimeExceedsTau):
        volume_profile(exp1_net, exp1_irm, "DC", cfg)


def test_marginal_point_singular_without_regularization(exp1_net, exp1_irm):
    # at tau = max f exactly, waves from the two leaves can cancel at the
    # junction: the restricted operator has a null direction, so the
    # unregularized solve refuses while any positive weight proceeds
    cfg = ReconConfig(tau=0.41, dx=10.0)
    f = action_times(exp1_net, PointOnPipe("DC", 10.0))
    with pytest.raises(SingularSystem):
        solve_boundary_flows(exp1_irm, f, cfg, exp1_net)
    flows = solve_boundary_flows(exp1_irm, f, replace(cfg, lam=1e-5), exp1_net)
    v = volume(flows, exp1_irm, exp1_net)
    assert v == pytest.approx(710.0, rel=1e-3)


def test_area_profile_basics():
    vp = VolumeProfile("P", np.array([10.0, 20.0, 30.0]), np.array([10.0, 20.0, 30.0]), 10.0)
    ap = area_profile(vp)
    assert ap.positions == pytest.approx([10.0, 20.0])
    assert ap.areas == pytest.approx([1.0, 1.0])
    with pytest.raises(TooFewPoints):
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
    # and the volume collapses to a * sum_i A_i * (active_i * dt)
    from hypothesis import given, settings
    from hypothesis import strategies as st

    from pipescope import validate_network
    from test_graph import tree_specs

    @given(tree_specs(), st.data())
    @settings(max_examples=25, deadline=None)
    def run(spec, data):
        net = validate_network(spec)
        pid = data.draw(st.sampled_from(sorted(net.pipes)))
        pipe = net.pipes[pid]
        p = PointOnPipe(pid, data.draw(st.floats(min_value=0.05, max_value=0.95)) * pipe.length)
        f = action_times(net, p)
        dt = 0.01
        tau = f.max_f + 0.1
        irm = zero_irm(net, dt, 2 * tau + 2 * dt)
        cfg = ReconConfig(tau=tau, dx=10.0, lam=0.0)
        flows = solve_boundary_flows(irm, f, cfg, net)
        v = volume(flows, irm, net)
        expected_v = 0.0
        for i, leaf in enumerate(net.accessible):
            flat = net.leaf_nu(leaf) * net.leaf_area(leaf) * net.gravity / net.wave_speed
            active = active_mask(irm, f, cfg)[i]
            assert np.abs(flows[leaf][active] - flat).max(initial=0.0) < 1e-10
            assert np.all(flows[leaf][~active] == 0.0)
            expected_v += net.wave_speed * net.leaf_area(leaf) * active.sum() * dt
        assert v == pytest.approx(expected_v, abs=1e-8)

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
    from pipescope import validate_network

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
    from pipescope import validate_network

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
def test_layer_stripping_matches_per_point(request, case, pipe, lam):
    net, irm, cfg = _profile_case(request, case, lam)
    vp = volume_profile(net, irm, pipe, cfg)
    expected = per_point_volumes(net, irm, pipe, cfg)
    assert vp.solver == "layer-stripping"
    assert vp.reciprocity <= 1e-14
    assert len(vp.volumes) == len(expected) > 5
    assert np.all(np.abs(vp.volumes - expected) <= 1e-10 * np.abs(expected))


def test_tree6_profiles_reach_many_unknowns(tree6):
    # the in-test tree exercises several LDL^T blocks and every leaf
    net, irm = tree6
    cfg = ReconConfig(**TREE6_CFG, lam=1e-5)
    times, _, _ = _profile_points(net, "J1X", cfg, irm.dt)
    active = _active(times[-1], cfg, irm.dt)
    assert active.any(axis=1).all() and active.sum() > 2 * inversion._BLOCK


def test_pruned_oracle_keeps_layer_stripping(tree6):
    # pruning drops different fronts from each source on this mixed-area
    # tree; the oracle's mirrored trains keep S symmetric, so every pipe
    # takes the factorisation, within 1e-5 of the unpruned IRM's volumes
    net, exact = tree6
    analytic = oracle_irm(net, horizon=1.01)
    n = len(net.accessible)
    assert all(analytic.deltas[(i, j)] == analytic.deltas[(j, i)] for i in range(n) for j in range(i))
    irm = sample_irm(analytic, dt=0.01)
    cfg = ReconConfig(**TREE6_CFG, lam=1e-5)
    for pid in sorted(net.pipes):
        vp = volume_profile(net, irm, pid, cfg)
        assert vp.solver == "layer-stripping" and vp.reciprocity == 0.0
        expected = volume_profile(net, exact, pid, cfg).volumes
        assert np.all(np.abs(vp.volumes - expected) <= 1e-5 * np.abs(expected))


def test_profile_action_times_nest():
    # layer stripping needs each point's active samples to hold the previous
    # point's: no leaf's action time falls as the cut point moves towards x0
    from hypothesis import given, settings
    from hypothesis import strategies as st

    from pipescope import validate_network
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
    assert vp.solver == "per-point: sqrt(lambda) 0 <= skew bound 0"
    _assert_matches_reference(exp1_net, exp1_irm, "AD", cfg, vp)


def _skew_noise(irm, eps):
    """The IRM with seeded noise of eps max|k| added to each k_ij, i < j: S gets a skew part."""
    rng = np.random.default_rng(0)
    k = irm.k.copy()
    for i, j in zip(*np.triu_indices(len(irm.leaves), 1)):
        k[i, j] += eps * np.abs(irm.k).max() * rng.standard_normal(k.shape[2])
    return SampledIRM(irm.dt, irm.leaves, k, irm.horizon)


@pytest.mark.parametrize("case, pipe, lam, eps", [
    ("exp1", "DC", 1e-5, 1e-11), ("exp1", "DC", 1e-5, 1e-10), ("exp1", "DC", 1e-5, 1e-9),
    ("exp2", "ED", 1.0, 1e-10), ("exp2", "ED", 1.0, 1e-9), ("exp2", "ED", 1.0, 1e-8),
])
def test_layer_stripping_under_skew_noise(request, case, pipe, lam, eps):
    # reciprocity deviations of 3e-11 to 3e-9 (DC) and 9e-11 to 9e-9 (ED):
    # the factor of S's symmetric part is off only to second order in the
    # skew part, so the factored profile holds against the whole S
    net, irm, cfg = _profile_case(request, case, lam)
    irm = _skew_noise(irm, eps)
    vp = volume_profile(net, irm, pipe, cfg)
    assert eps / 2 < vp.reciprocity < 10 * eps
    assert vp.solver == "layer-stripping"
    expected = _assert_matches_reference(net, irm, pipe, cfg, vp)
    _assert_within_bound(vp, expected[-1])


def test_fallback_on_nonreciprocal_irm(exp1_net, exp1_irm):
    # k_AB no longer equals k_BA: S is not symmetric, and DC uses both leaves;
    # the skew bound exceeds sqrt(lambda), so no certificate exists
    k = exp1_irm.k.copy()
    k[0, 1] += 1e-6 * np.abs(k).max()
    irm = SampledIRM(exp1_irm.dt, exp1_irm.leaves, k, exp1_irm.horizon)
    cfg = ReconConfig(**EXP1_CFG, lam=1e-5)
    vp = volume_profile(exp1_net, irm, "DC", cfg)
    assert vp.solver.startswith(f"per-point: sqrt(lambda) {math.sqrt(cfg.lam):.3g} <= skew bound ")
    assert vp.residual is None and vp.volume_bound is None
    _assert_matches_reference(exp1_net, irm, "DC", cfg, vp)


def test_transposed_irm_gives_the_same_volumes(exp2_net, exp2_irm):
    # swapping the leaf axes of the kernels builds S^T exactly; S^T and S
    # have the same symmetric part, so the factored volumes agree bit for bit
    cfg = ReconConfig(tau=0.9, dx=7.0, lam=1.0)
    swapped = SampledIRM(exp2_irm.dt, exp2_irm.leaves, exp2_irm.k.transpose(1, 0, 2), exp2_irm.horizon)
    vp, vp_t = (volume_profile(exp2_net, irm, "ED", cfg) for irm in (exp2_irm, swapped))
    assert vp.solver == vp_t.solver == "layer-stripping" and vp.reciprocity > 0
    assert vp_t.volumes.tobytes() == vp.volumes.tobytes()


def test_fallback_when_factorisation_is_inaccurate(exp1_net, exp1_irm, monkeypatch):
    # pivots off by 1e-8 relative leave a residual far above STABILITY_TOL
    ldlt = inversion._ldlt

    def perturbed(a):
        invs = ldlt(a)
        a[np.diag_indices(a.shape[0])] *= 1 + 1e-8
        return invs

    monkeypatch.setattr(inversion, "_ldlt", perturbed)
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


def test_certificate_bounds_skew_systems():
    # S with a skew part K inside what the certificate allows (sigma > 0),
    # and x = A^-1 (nu + r) with r chosen so that x^T r has no first-order
    # part: the error is then the skew term 2 w^T K^T A^-1 r, which the bound
    # covers and the bound without it (skew taken as 0) does not. The
    # residual is x's against the symmetric part (S + S^T)/2, r - K x
    rng = np.random.default_rng(1)
    for _ in range(200):
        n = 6
        sym = rng.standard_normal((n, n))
        skew = rng.standard_normal((n, n))
        mu = rng.uniform(0.05, 1.0)
        s = sym + sym.T + (skew - skew.T) * rng.uniform(0.5, 1.0) * mu / (n * np.abs(skew - skew.T).max())
        nu = rng.choice([-1.0, 1.0], n)
        a = s - 1j * mu * np.eye(n)
        exact = np.linalg.solve(a, nu)
        r = 1e-6 * (rng.standard_normal(n) + 1j * rng.standard_normal(n))
        r -= (exact @ r) / np.vdot(exact, exact) * exact.conj()
        x = exact + np.linalg.solve(a, r)
        v = (nu @ x).real
        reciprocity, skew_norm = inversion._asymmetry(s)
        assert reciprocity > 0 and skew_norm < mu
        residual, bound = inversion._certificate(s, nu, mu, skew_norm, x, v, 1.0)
        assert residual == pytest.approx(np.abs(r - 0.5 * (s - s.T) @ x).max(), rel=1e-6)
        error = abs(v - (nu @ exact).real) / abs(v)
        assert error <= bound
        assert error > inversion._certificate(s, nu, mu, 0.0, x, v, 1.0)[1]
    # no bound where the skew part can cancel the regularisation
    assert inversion._certificate(s, nu, mu, mu, x, v, 1.0)[1] == math.inf
    assert inversion._certificate(s, nu, mu, 2 * mu, x, v, 1.0)[1] == math.inf


def _ldlt_outer(a):
    """Reference: the blocked LDL^T with one np.outer update of the whole [A11 | I] row per column."""
    n = a.shape[0]
    block = inversion._BLOCK
    for j0 in range(0, n, block):
        j1 = min(j0 + block, n)
        b = j1 - j0
        low = np.tril(a[j0:j1, j0:j1], -1)
        work = np.hstack([low + low.T + np.diag(a.diagonal()[j0:j1]), np.eye(b)])
        for k in range(b - 1):
            col = work[k + 1 :, k]
            col /= work[k, k]
            work[k + 1 :, k + 1 :] -= np.outer(col, work[k, k + 1 :])
        a[j0:j1, j0:j1] = work[:, :b]
        d = work.diagonal().copy()
        inv = work[:, b:]
        a[j0:j1, n] = inv @ a[j0:j1, n]
        if j1 == n:
            break
        l21 = a[j1:, j0:j1]
        l21[...] = l21 @ (inv.T / d)
        a[j1:, n] -= l21 @ a[j0:j1, n]
        for c0 in range(j1, n, block):
            c1 = min(c0 + block, n)
            a[c0:, c0:c1] -= l21[c0 - j1 :] @ (l21[c0 - j1 : c1 - j1] * d).T


def _back_substitute_by_column(a, y):
    """Reference: x = L^-T y, one Python step per column inside each block."""
    n = y.size
    x = y.copy()
    for j0 in reversed(range(0, n, inversion._BLOCK)):
        j1 = min(j0 + inversion._BLOCK, n)
        x[j0:j1] -= a[j1:n, j0:j1].T @ x[j1:]
        for k in range(j1 - 1, j0 - 1, -1):
            x[k] -= a[k + 1 : j1, k] @ x[k + 1 : j1]
    return x


@pytest.mark.parametrize("case, pipe, lam", LAYER_CASES)
def test_ldlt_kernel_matches_reference(request, case, pipe, lam):
    # the factor is the reference's bit for bit; the block-inverse back
    # substitution sums in another order, so x agrees to rounding
    net, irm, cfg = _profile_case(request, case, lam)
    times, _, _ = _profile_points(net, pipe, cfg, irm.dt)
    flat = _active(times, cfg, irm.dt).reshape(len(times), -1)
    idx = np.flatnonzero(flat.any(axis=0))
    s, nu = _s_matrix(irm, math.floor(cfg.tau / irm.dt), net, idx[np.argsort(flat.argmax(axis=0)[idx], kind="stable")])
    n = nu.size
    a = np.hstack([s - 1j * math.sqrt(lam) * np.eye(n), nu[:, None]])
    expected = a.copy()
    _ldlt_outer(expected)
    invs = inversion._ldlt(a)
    assert a.tobytes() == expected.tobytes()
    y = a[:, -1] / a.diagonal()
    x, x_ref = inversion._back_substitute(a, invs, y), _back_substitute_by_column(expected, y)
    assert np.all(np.abs(x - x_ref) <= 1e-13 * np.abs(x_ref))


@pytest.mark.parametrize("field, value", [("lam", math.nan), ("lam", -1.0), ("lam", math.inf),
                                          ("tau", math.nan), ("dx", -10.0), ("dx", math.inf)])
def test_recon_config_out_of_range(field, value):
    with pytest.raises(OutOfRange):
        ReconConfig(**{**EXP1_CFG, "lam": 1e-5, field: value})


def test_recon_config_is_keyword_only_and_has_no_step():
    # the sample step is the IRM's: an old call naming dt, or passing it second, is refused
    with pytest.raises(TypeError):
        ReconConfig(tau=0.8, dt=0.01, dx=10.0)
    with pytest.raises(TypeError):
        ReconConfig(0.8, 0.01, 10.0)


@pytest.mark.parametrize("lam", [math.nan, -1.0, math.inf])
def test_solve_refuses_bad_lambda(lam):
    with pytest.raises(OutOfRange):
        _solve_point(np.eye(2), np.ones(2), lam)


def test_pipe_shorter_than_dx_gives_empty_profile(exp1_net, exp1_irm):
    cfg = ReconConfig(tau=0.8, dx=500.0, lam=1e-5)
    vp = volume_profile(exp1_net, exp1_irm, "BD", cfg)
    assert vp.positions.size == vp.volumes.size == 0
    with pytest.raises(HorizonTooShort):  # no point fits, but the horizon is still checked
        volume_profile(exp1_net, zero_irm(exp1_net, 0.01, 1.0), "BD", cfg)
