"""Acceptance criteria, one test per criterion, each printing a PASS line.

Run with ``pytest -s tests/test_acceptance.py`` to see the per-criterion
lines. Criterion 2's baseline check excludes points within 28 m (four
reconstruction steps) of a blockage edge or a profile end, where the
kernels' hat average and the regularization smear the staircase; that
margin also frames the dip-locality windows.
"""

import time

import numpy as np
import pytest

from pipescope import (
    ReconConfig,
    SimConfig,
    area_profile,
    conservation_residual,
    junction_scatter,
    measure_irm,
    oracle_irm,
    sample_irm,
    step_inflow,
    volume_profile,
)
from pipescope.errors import NumericError
from pipescope.irm import SampledIRM
from pipescope.presets import PRESETS
from pipescope.simulate import simulate_runs
from test_inversion import profile_cut_points, reference_volume

DX2 = 7.0
MARGIN = 4 * DX2  # smear allowance at blockage edges and profile ends
EXP2_BLOCKS = {
    "AE": [],
    "BE": [(350.0, 375.0, 0.6)],
    "CE": [(210.0, 250.0, 0.2)],
    "ED": [(410.0, 450.0, 0.4), (150.0, 250.0, 0.2)],
}
EXP2_BASE = {"AE": 1.0, "BE": 2.0, "CE": 1.0, "ED": 1.0}


def exp2_truth(pid, s):
    a = np.full_like(s, EXP2_BASE[pid])
    for lo, hi, depth in EXP2_BLOCKS[pid]:
        a -= depth * ((s > lo) & (s < hi))
    return a


def active_samples(f, irm, cfg):
    """(..., leaf, sample) masks of the control samples t_l = l*dt (l = 1..M) with t_l > tau - f + dt/4.

    ``f`` holds action times (..., leaf), and dt is the IRM's own step.
    """
    t = np.arange(1, int(cfg.tau / irm.dt + 1e-6) + 1) * irm.dt
    return t - (cfg.tau - f[..., None]) > irm.dt / 4


def report(num, text):
    print(f"ACCEPTANCE {num}: PASS - {text}")


@pytest.fixture(scope="module")
def exp1_irm(exp1_net):
    return sample_irm(oracle_irm(exp1_net, horizon=1.61), dt=0.01)


@pytest.fixture(scope="module")
def exp2_irm(exp2_net):
    started = time.time()
    irm, _ = measure_irm(exp2_net, SimConfig(dx=5.0, duration=1.9, courant=0.95), resample_dt=0.007)
    return irm, time.time() - started


@pytest.fixture(scope="module")
def exp2_profiles(exp2_net, exp2_irm):
    irm, irm_seconds = exp2_irm
    started = time.time()
    cfg = ReconConfig(tau=0.9, dx=DX2, lam=PRESETS["exp2"]["reconstruct"]["lam"])
    profiles = {}
    for pid in ("AE", "BE", "CE", "ED"):
        profiles[pid] = area_profile(volume_profile(exp2_net, irm, pid, cfg))
    return profiles, irm_seconds + (time.time() - started)


def test_criterion_1_experiment1_quantitative(exp1_net, exp1_irm):
    started = time.time()
    worst = 0.0
    extents = {}
    for pid in ("AD", "BD", "DC"):
        cfg = ReconConfig(tau=0.8, dx=10.0, lam=1e-5)
        ap = area_profile(volume_profile(exp1_net, exp1_irm, pid, cfg))
        extents[pid] = ap.positions[-1] + cfg.dx
        worst = max(worst, float(np.abs(ap.areas - 1.0).max()))
    elapsed = time.time() - started
    assert extents == {"AD": 400.0, "BD": 300.0, "DC": 400.0}
    assert worst < 0.01
    assert elapsed < 60.0
    report(1, f"Experiment 1 areas flat at 1 m^2, max rel err {worst:.2e} in {elapsed:.1f}s")


def check_exp2_areas(pid, ap):
    """Criterion 2 on one exp2 area profile: baseline within 10% of the truth, each dip located and sized.

    Returns the baseline's largest relative error.
    """
    truth = exp2_truth(pid, ap.positions)
    keep = (ap.positions >= ap.positions[0] + MARGIN) & (
        ap.positions <= ap.positions[-1] - MARGIN
    )
    for lo, hi, _ in EXP2_BLOCKS[pid]:
        keep &= ~((ap.positions > lo - MARGIN) & (ap.positions < hi + MARGIN))
    rel = np.abs(ap.areas[keep] - truth[keep]) / truth[keep]
    assert rel.max() < 0.10, f"{pid} baseline off truth by {rel.max():.3f}"

    for lo, hi, depth in EXP2_BLOCKS[pid]:
        window = (ap.positions >= lo - MARGIN) & (ap.positions <= hi + MARGIN)
        deficit = np.clip(EXP2_BASE[pid] - ap.areas[window], 0.0, None)
        assert deficit.sum() > 0.0, f"{pid} block ({lo},{hi}): no dip found"
        centroid = float((ap.positions[window] * deficit).sum() / deficit.sum())
        assert abs(centroid - (lo + hi) / 2) <= 2 * DX2, (
            f"{pid} block ({lo},{hi}): dip centered at {centroid:.1f}"
        )
        peak = float(deficit.max())
        assert 0.5 * depth <= peak <= 1.5 * depth, (
            f"{pid} block ({lo},{hi}): depth {peak:.3f} vs truth {depth}"
        )
    return float(rel.max())


def test_criterion_2_experiment2_properties(exp2_profiles):
    profiles, elapsed = exp2_profiles
    worst_base = max(check_exp2_areas(pid, ap) for pid, ap in profiles.items())
    assert elapsed < 300.0
    report(
        2,
        f"Experiment 2 baselines within {worst_base:.1%}, all 4 dips located and sized, "
        f"in {elapsed:.1f}s",
    )


def test_criterion_3_oracle_simulator_equivalence(exp1_net):
    cfg = SimConfig(dx=5.0, duration=1.7, courant=1.0)
    irm, _ = measure_irm(exp1_net, cfg)
    analytic = oracle_irm(exp1_net, horizon=1.7)
    dt = irm.dt
    checked = 0
    for (i, j), train in analytic.deltas.items():
        for t0, coeff in train:
            if t0 > 1.6:
                continue
            b = round(t0 / dt)
            seg = irm.k[i, j][b - 8 : b + 9]
            peak = b - 8 + int(np.argmax(np.abs(seg)))
            assert abs(peak - b) <= 1, f"({i},{j}) at {t0}s: peak bin {peak} vs {b}"
            integral = float(seg.sum() * dt)
            assert integral == pytest.approx(coeff, rel=0.05), f"({i},{j}) at {t0}s"
            checked += 1
    assert checked >= 12
    report(3, f"{checked} delta arrivals matched in bin (+-1) and amplitude (+-5%)")


def test_criterion_4_conservation_identity(exp2_net):
    residuals = {}
    for courant, bound in ((1.0, 1e-6), (0.95, 1e-2)):
        cfg = SimConfig(dx=5.0, duration=0.6, courant=courant)
        hist = simulate_runs(exp2_net, [step_inflow(exp2_net, cfg, "A")], cfg)[0]
        residuals[courant] = conservation_residual(hist, exp2_net, 0.5)
        assert residuals[courant] < bound
    report(
        4,
        "conservation residual %.2e at courant 1, %.2e at 0.95" % (residuals[1.0], residuals[0.95]),
    )


def test_criterion_5_reciprocity(exp1_net, exp2_irm):
    analytic = oracle_irm(exp1_net, horizon=3.0)
    n = len(analytic.leaves)
    for i in range(n):
        for j in range(n):
            assert analytic.deltas[(i, j)] == analytic.deltas[(j, i)]

    irm, _ = exp2_irm
    peak = float(np.abs(irm.k).max())
    dev = max(
        float(np.abs(irm.k[i, j] - irm.k[j, i]).max())
        for i in range(len(irm.leaves))
        for j in range(len(irm.leaves))
    )
    assert dev <= 0.05 * peak
    report(5, f"analytic kernels symmetric exactly; processed within {dev / peak:.2%} of peak")


def test_criterion_6_junction_algebra():
    reflected, transmitted = junction_scatter(1.0, 0, [1.0, 1.0, 1.0])
    assert reflected == pytest.approx(-1.0 / 3.0, abs=1e-15)
    assert transmitted == pytest.approx([2.0 / 3.0, 2.0 / 3.0], abs=1e-15)

    rng = np.random.default_rng(20260810)
    worst = 0.0
    for _ in range(1000):
        n = int(rng.integers(3, 9))
        ys = rng.uniform(1e-3, 10.0, size=n)
        m = int(rng.integers(0, n))
        h = float(rng.uniform(-5.0, 5.0))
        r, t = junction_scatter(h, m, list(ys))
        others = [y for k, y in enumerate(ys) if k != m]
        balance = ys[m] * (h - r) - sum(y * tv for y, tv in zip(others, t))
        worst = max(worst, abs(balance) / max(abs(ys[m] * h), 1e-12))
        assert abs(balance) <= 1e-12 * max(abs(ys[m] * h), 1.0)
    report(6, f"(-1/3, 2/3, 2/3) reproduced; 1000 random junctions balance to {worst:.1e}")


def test_criterion_7_masking_and_identity_limits(single_pipe_net, exp1_net, exp1_irm):
    # zero IRM, lambda = 0: flat flow A*g/a on exactly the active samples, so each point's volume is a*A*dt per
    # active sample; one sample too many or too few moves it by 2%
    n_samples = int(1.61 / 0.01 + 1e-6) + 1
    irm0 = SampledIRM(0.01, ("L",), np.zeros((1, 1, n_samples)), 1.61)
    cfg = ReconConfig(tau=0.8, dx=10.0, lam=0.0)
    vp = volume_profile(single_pipe_net, irm0, "P", cfg)
    f = vp.positions[:, None] / single_pipe_net.wave_speed  # positions run from the leaf L, the far end
    counts = active_samples(f, irm0, cfg).sum(axis=(1, 2))
    expected = single_pipe_net.wave_speed * single_pipe_net.leaf_area("L") * irm0.dt * counts
    assert len(vp.volumes) == 50 and counts.min() > 0
    err = float(np.abs(vp.volumes / expected - 1).max())
    assert err < 1e-10

    # every profile volume is the masked build's, whose inactive rows and columns are zero
    ref_err = 0.0
    for pid in ("AD", "BD", "DC"):
        rcfg = ReconConfig(tau=0.8, dx=10.0, lam=1e-5)
        volumes = volume_profile(exp1_net, exp1_irm, pid, rcfg).volumes
        ref = np.array([reference_volume(exp1_irm, p, rcfg, exp1_net)
                        for p in profile_cut_points(exp1_net, pid, rcfg, exp1_irm.dt)])
        assert len(volumes) == len(ref) > 10
        ref_err = max(ref_err, float(np.abs(volumes / ref - 1).max()))
    assert ref_err < 1e-10
    report(7, f"closed-form flat flow reproduced to {err:.1e}; "
              f"masked build with inactive samples zeroed to {ref_err:.1e}")


def test_criterion_8_no_regularization_artifact(exp2_net, exp2_irm, exp2_profiles):
    irm, _ = exp2_irm
    profiles, _ = exp2_profiles
    regular = profiles["ED"]
    dev_reg = float(np.abs(regular.areas - exp2_truth("ED", regular.positions)).max())

    cfg = ReconConfig(tau=0.9, dx=DX2, lam=0.0)
    try:
        raw = area_profile(volume_profile(exp2_net, irm, "ED", cfg))
    except NumericError:  # pragma: no cover - would itself prove instability
        pytest.fail("lambda = 0 solve unexpectedly singular rather than wildly unstable")
    dev_raw = float(np.abs(raw.areas - exp2_truth("ED", raw.positions)).max())
    assert dev_raw > 5.0 * dev_reg
    report(
        8,
        f"ED without regularization deviates {dev_raw:.2f} m^2 vs {dev_reg:.2f} m^2 "
        f"({dev_raw / dev_reg:.0f}x) from truth",
    )
