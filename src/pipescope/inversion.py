"""Reconstruction core: boundary-control system assembly, solve, volumes, areas.

The discrete control equation for one reconstruction point p follows the
piecewise-constant scheme: with M = floor(tau/dt) samples per leaf at
times t_l = l*dt (l = 1..M), block (receiver j, source i) holds

    (dt/2) * nu_i * ( k_ij(|l - k|) + k_ij(2M + 1 - l - k) )

in 0-based kernel indexing; the second index realizes the time-reversed
kernel argument 2*tau - t - s evaluated midpoint-consistently (each
sample stands for the half-open cell ending at it, so both arguments
shift by dt/2 and the reflected term lands one sample up), and the
diagonal blocks add the direct impulse nu_j * a/(A(x_j) g), which the
IRM kernels leave out, on the diagonal. None of this depends on p:
``control_matrix`` builds it once per profile.

A point enters through its action times f alone: sample l of leaf i is
active when t_l > tau - f(x_i) + tol. The solve keeps the active rows
and columns, with the unit target head b = 1, and puts exact zeros on
the inactive samples. It minimizes ||Hq - b||^2 + lambda*||q||^2 through
the normal equations (H^T H + lambda I) q = H^T b, or, at lambda = 0, by
a rank-checked least-squares solve that refuses a rank-deficient system.

Volumes come from the flow integral for that unit target,
V = a^2/g * sum_i nu_i * integral Q_p(t, x_i) dt; areas are the forward
difference quotient of the volume profile.
"""

from __future__ import annotations

import math
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
    "control_matrix",
    "assemble_system",
    "solve_boundary_flows",
    "volume",
    "volume_profile",
    "area_profile",
]


@dataclass(frozen=True)
class ReconConfig:
    """Inversion parameters for one pipe's reconstruction.

    tau: control horizon (needs 2*tau within the IRM horizon);
    dt: sample step, must match the IRM grid;
    dx: reconstruction step along the pipe;
    lam: Tikhonov weight.
    """

    tau: float
    dt: float
    dx: float
    lam: float = 0.0

    @property
    def tol(self) -> float:
        return self.dt / 4.0

    @property
    def samples_per_leaf(self) -> int:
        return math.floor(self.tau / self.dt)


@dataclass
class BCSystem:
    """Control system for one reconstruction point: the shared matrix and this point's mask."""

    matrix: np.ndarray        # (N*M, N*M) unmasked, row blocks by receiver, column blocks by source
    active: np.ndarray        # (N, M) bool, per (leaf, sample)
    leaves: tuple[str, ...]


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


def control_matrix(irm: SampledIRM, cfg: ReconConfig, net: Network) -> np.ndarray:
    """The unmasked control matrix, the same for every point solved with ``cfg``."""
    if abs(irm.dt - cfg.dt) > cfg.tol:
        raise GridMismatch(f"IRM dt {irm.dt} does not match configured dt {cfg.dt}")
    m = cfg.samples_per_leaf
    if irm.n_samples < 2 * m:
        raise HorizonTooShort(
            f"kernels have {irm.n_samples} samples, need {2 * m} to span 2*tau"
        )
    n = len(irm.leaves)
    lv = np.arange(1, m + 1)
    idx_diff = np.abs(lv[:, None] - lv[None, :])
    idx_rev = 2 * m + 1 - lv[:, None] - lv[None, :]
    nu = np.array([net.leaf_nu(leaf) for leaf in irm.leaves], dtype=float)

    matrix = np.empty((n * m, n * m))
    for j in range(n):
        for i in range(n):
            kernel = irm.k[i, j]
            block = 0.5 * cfg.dt * nu[i] * (kernel[idx_diff] + kernel[idx_rev])
            matrix[j * m : (j + 1) * m, i * m : (i + 1) * m] = block
    areas = np.array([net.leaf_area(leaf) for leaf in irm.leaves])
    matrix[np.diag_indices(n * m)] += np.repeat(nu * net.wave_speed / (areas * net.gravity), m)
    return matrix


def assemble_system(
    irm: SampledIRM, f: ActionTimes, cfg: ReconConfig, net: Network, matrix: np.ndarray | None = None
) -> BCSystem:
    """The system for the point with action times ``f`` on ``matrix`` (built when not given)."""
    if matrix is None:
        matrix = control_matrix(irm, cfg, net)
    f_vec = f.as_vector(irm.leaves)
    if float(f_vec.max(initial=0.0)) - cfg.tau > cfg.tol:
        raise ActionTimeExceedsTau(
            f"max action time {f_vec.max():.6g}s exceeds tau = {cfg.tau}s at {f.cut_point}"
        )
    m = cfg.samples_per_leaf
    s_times = np.arange(1, m + 1) * cfg.dt
    active = s_times[None, :] - (cfg.tau - f_vec[:, None]) > cfg.tol
    return BCSystem(matrix, active, irm.leaves)


def solve_boundary_flows(sys: BCSystem, lam: float) -> dict[str, np.ndarray]:
    """Solve for a unit head on the active samples; inactive samples come back exactly zero.

    Returns the boundary flow series Q_p(t, x_i) per leaf on the grid
    t = dt..M*dt.
    """
    idx = np.flatnonzero(sys.active)
    q = np.zeros(sys.matrix.shape[0])
    if idx.size:
        restricted = sys.matrix[np.ix_(idx, idx)]
        b = np.ones(idx.size)
        if lam > 0:
            normal = restricted.T @ restricted
            normal[np.diag_indices(idx.size)] += lam
            try:
                q[idx] = np.linalg.solve(normal, restricted.T @ b)
            except np.linalg.LinAlgError as exc:
                raise SingularSystem(f"normal equations singular with lambda = {lam}: {exc}") from exc
        else:
            sol, _, rank, _ = np.linalg.lstsq(restricted, b, rcond=None)
            if rank < idx.size:
                raise SingularSystem(f"restricted matrix rank {rank} < {idx.size} with lambda = 0")
            q[idx] = sol
    return dict(zip(sys.leaves, q.reshape(sys.active.shape)))


def volume(flows: dict[str, np.ndarray], cfg: ReconConfig, net: Network) -> float:
    """Internal volume cut off by the point the flows were solved for.

    V = a^2/g * sum_i nu_i * integral Q_p(t, x_i) dt. The solver emits
    plain Q per leaf, so nu folds in exactly once here.
    """
    total = 0.0
    for leaf, series in flows.items():
        total += net.leaf_nu(leaf) * float(np.sum(series)) * cfg.dt
    return net.wave_speed**2 / net.gravity * total


def _profile_points(net: Network, pipe_id: str, cfg: ReconConfig):
    """Action times and positions of cut points spaced dx apart, from the far end towards x0."""
    pipe = net.pipes[pipe_id]
    from_far = net.far_side_vertex(pipe_id) == pipe.from_vertex
    fs = []
    positions = []
    k = 1
    while True:
        d = k * cfg.dx
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
        fs.append(f)
        positions.append(d)
        k += 1
    return fs, positions


def volume_profile(net: Network, irm: SampledIRM, pipe_id: str, cfg: ReconConfig) -> VolumeProfile:
    """Volumes V(p) at dx-spaced points along one pipe, on one shared control matrix.

    Points start dx from the pipe end away from x0 and run towards x0,
    stopping at the pipe end or where the action times would exceed tau.
    """
    fs, positions = _profile_points(net, pipe_id, cfg)
    matrix = control_matrix(irm, cfg, net)
    systems = (assemble_system(irm, f, cfg, net, matrix) for f in fs)
    volumes = [volume(solve_boundary_flows(sys, cfg.lam), cfg, net) for sys in systems]
    return VolumeProfile(pipe_id, np.asarray(positions), np.asarray(volumes))


def area_profile(vp: VolumeProfile, dx: float) -> AreaProfile:
    """Forward difference quotient of volumes: one area per dx interval."""
    if len(vp.volumes) < 2:
        raise TooFewPoints(
            f"profile for pipe {vp.pipe!r} has {len(vp.volumes)} points, need at least 2"
        )
    areas = np.diff(vp.volumes) / dx
    return AreaProfile(vp.pipe, vp.positions[:-1].copy(), areas)
