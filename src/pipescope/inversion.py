"""Reconstruction core: boundary-control system assembly, solve, volumes, areas.

The discrete control equation for one reconstruction point p follows the
piecewise-constant scheme: with M = floor(tau/dt) samples per leaf at
times t_l = l*dt (l = 1..M), block (receiver j, source i) holds

    (dt/2) * nu_i * ( k_ij(|l - k|) + k_ij(2M + 1 - l - k) )

in 0-based kernel indexing; the second index realizes the time-reversed
kernel argument 2*tau - t - s evaluated midpoint-consistently (each
sample stands for the half-open cell ending at it, so both arguments
shift by dt/2 and the reflected term lands one sample up). Columns with
s_k <= tau - f(x_i) + tol and rows with t_l <= tau - f(x_j) + tol are
zeroed, the diagonal blocks add nu_j * a/(A(x_j) g) on the diagonal, and
the right-hand side is h0 on active rows. The solve restricts to active
indices, minimizes ||Hq - b||^2 + lambda*||q||^2 through the augmented
least-squares stack, and scatters exact zeros back onto the inactive
samples.

Volumes come from the flow integral scaled by a^2/(h0*g); areas are the
forward difference quotient of the volume profile.
"""

from __future__ import annotations

import math
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np

from .errors import (
    ActionTimeExceedsTau,
    GridMismatch,
    HorizonTooShort,
    SingularSystem,
    TooFewPoints,
)
from .graph import ActionTimes, Network, PointOnPipe, action_times
from .irm import SampledIRM

__all__ = [
    "ReconConfig",
    "BCSystem",
    "VolumeProfile",
    "AreaProfile",
    "assemble_system",
    "solve_boundary_flows",
    "volume",
    "volume_for_point",
    "volume_profile",
    "area_profile",
]


@dataclass(frozen=True)
class ReconConfig:
    """Inversion parameters for one pipe's reconstruction.

    tau: control horizon (needs 2*tau within the IRM horizon);
    dt: sample step, must match the IRM grid;
    dx: reconstruction step along the pipe;
    lam: Tikhonov weight; h0: target head (the discrete solve uses it as
    the right-hand side and the volume formula divides it out again).
    """

    tau: float
    dt: float
    dx: float
    lam: float = 0.0
    h0: float = 1.0

    @property
    def tol(self) -> float:
        return self.dt / 4.0

    @property
    def samples_per_leaf(self) -> int:
        return math.floor(self.tau / self.dt)


@dataclass
class BCSystem:
    """Dense discretized control system for one reconstruction point."""

    matrix: np.ndarray        # (N*M, N*M), row blocks by receiver, column blocks by source
    rhs: np.ndarray           # (N*M,)
    active: np.ndarray        # (N, M) bool, per (leaf, sample)
    nu: np.ndarray            # (N,)
    leaves: tuple[str, ...]
    samples_per_leaf: int
    dt: float


@dataclass(frozen=True)
class VolumeProfile:
    pipe: str
    positions: np.ndarray  # m from the reconstruction start
    volumes: np.ndarray    # m^3


@dataclass(frozen=True)
class AreaProfile:
    pipe: str
    positions: np.ndarray  # interval starts, m from the reconstruction start
    areas: np.ndarray      # m^2


def assemble_system(
    irm: SampledIRM, f: ActionTimes, cfg: ReconConfig, net: Network
) -> BCSystem:
    """Build the blocked control matrix, mask, and right-hand side."""
    if abs(irm.dt - cfg.dt) > cfg.tol:
        raise GridMismatch(f"IRM dt {irm.dt} does not match configured dt {cfg.dt}")
    m = cfg.samples_per_leaf
    if irm.n_samples < 2 * m:
        raise HorizonTooShort(
            f"kernels have {irm.n_samples} samples, need {2 * m} to span 2*tau"
        )
    f_vec = f.as_vector(irm.leaves)
    if float(f_vec.max(initial=0.0)) - cfg.tau > cfg.tol:
        raise ActionTimeExceedsTau(
            f"max action time {f_vec.max():.6g}s exceeds tau = {cfg.tau}s at {f.cut_point}"
        )

    n = len(irm.leaves)
    dt = cfg.dt
    lv = np.arange(1, m + 1)
    s_times = lv * dt
    idx_diff = np.abs(lv[:, None] - lv[None, :])
    idx_rev = 2 * m + 1 - lv[:, None] - lv[None, :]

    nu = np.array([net.leaf_nu(leaf) for leaf in irm.leaves], dtype=float)
    active = s_times[None, :] - (cfg.tau - f_vec[:, None]) > cfg.tol

    matrix = np.zeros((n * m, n * m))
    rhs = np.zeros(n * m)
    for j in range(n):
        rhs[j * m : (j + 1) * m] = np.where(active[j], cfg.h0, 0.0)
        for i in range(n):
            kernel = irm.k[i, j]
            block = 0.5 * dt * nu[i] * (kernel[idx_diff] + kernel[idx_rev])
            block[:, ~active[i]] = 0.0
            block[~active[j], :] = 0.0
            if i == j:
                area = net.leaf_area(irm.leaves[j])
                block[np.diag_indices(m)] += nu[j] * net.wave_speed / (area * net.gravity)
            matrix[j * m : (j + 1) * m, i * m : (i + 1) * m] = block
    return BCSystem(matrix, rhs, active, nu, irm.leaves, m, dt)


def solve_boundary_flows(sys: BCSystem, lam: float) -> dict[str, np.ndarray]:
    """Solve the restricted system; inactive samples come back exactly zero.

    Returns the boundary flow series Q_p(t, x_i) per leaf on the grid
    t = dt..M*dt.
    """
    mask = sys.active.ravel()
    restricted = sys.matrix[np.ix_(mask, mask)]
    b = sys.rhs[mask]
    n_active = restricted.shape[0]
    if n_active == 0:
        q = np.zeros(sys.matrix.shape[0])
    else:
        if lam > 0:
            stacked = np.vstack([restricted, math.sqrt(lam) * np.eye(n_active)])
            target = np.concatenate([b, np.zeros(n_active)])
            sol, *_ = np.linalg.lstsq(stacked, target, rcond=None)
        else:
            sol, _, rank, _ = np.linalg.lstsq(restricted, b, rcond=None)
            if rank < n_active:
                raise SingularSystem(
                    f"restricted matrix rank {rank} < {n_active} with lambda = 0"
                )
        q = np.zeros(sys.matrix.shape[0])
        q[mask] = sol
    m = sys.samples_per_leaf
    return {leaf: q[i * m : (i + 1) * m] for i, leaf in enumerate(sys.leaves)}


def volume(flows: dict[str, np.ndarray], cfg: ReconConfig, net: Network) -> float:
    """Internal volume cut off by the point the flows were solved for.

    V = a^2/(h0*g) * sum_i nu_i * integral Q_p(t, x_i) dt. The solver
    emits plain Q per leaf, so nu folds in exactly once here.
    """
    total = 0.0
    for leaf, series in flows.items():
        total += net.leaf_nu(leaf) * float(np.sum(series)) * cfg.dt
    return net.wave_speed**2 / (cfg.h0 * net.gravity) * total


def volume_for_point(
    net: Network, irm: SampledIRM, point: PointOnPipe, cfg: ReconConfig
) -> float:
    f = action_times(net, point, endpoint_ok=True)
    sys = assemble_system(irm, f, cfg, net)
    flows = solve_boundary_flows(sys, cfg.lam)
    return volume(flows, cfg, net)


def _profile_points(net: Network, pipe_id: str, start_offset: float, cfg: ReconConfig):
    """Cut points spaced dx apart, walking from the far end towards x0."""
    pipe = net.pipes[pipe_id]
    from_far = net.far_side_vertex(pipe_id) == pipe.from_vertex
    points = []
    positions = []
    k = 1
    while True:
        d = start_offset + k * cfg.dx
        if d > pipe.length + cfg.dx * 1e-9:
            break
        d = min(d, pipe.length)
        offset = d if from_far else pipe.length - d
        p = PointOnPipe(pipe_id, offset)
        f = action_times(net, p, endpoint_ok=True)
        if f.max_f - cfg.tau > cfg.tol:
            if k == 1:
                raise ActionTimeExceedsTau(
                    f"first point {p} needs action time {f.max_f:.6g}s > tau = {cfg.tau}s"
                )
            break
        points.append(p)
        positions.append(d - start_offset)
        k += 1
    return points, positions


def volume_profile(
    net: Network,
    irm: SampledIRM,
    pipe_id: str,
    cfg: ReconConfig,
    start_offset: float = 0.0,
    jobs: int = 1,
) -> VolumeProfile:
    """Volumes V(p) at dx-spaced points along one pipe, each solved independently.

    ``start_offset`` is measured in meters from the pipe end away from x0;
    points run from there towards x0, stopping at the pipe end or where the
    action times would exceed tau. Points are independent solves, so they
    can fan out across ``jobs`` worker threads with identical results.
    """
    points, positions = _profile_points(net, pipe_id, start_offset, cfg)
    if jobs > 1:
        with ThreadPoolExecutor(max_workers=jobs) as pool:
            volumes = list(pool.map(lambda p: volume_for_point(net, irm, p, cfg), points))
    else:
        volumes = [volume_for_point(net, irm, p, cfg) for p in points]
    return VolumeProfile(pipe_id, np.asarray(positions), np.asarray(volumes))


def area_profile(vp: VolumeProfile, dx: float) -> AreaProfile:
    """Forward difference quotient of volumes: one area per dx interval."""
    if len(vp.volumes) < 2:
        raise TooFewPoints(
            f"profile for pipe {vp.pipe!r} has {len(vp.volumes)} points, need at least 2"
        )
    areas = np.diff(vp.volumes) / dx
    return AreaProfile(vp.pipe, vp.positions[:-1].copy(), areas)
