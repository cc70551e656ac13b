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

A profile needs one factorisation, not one solve per point (layer
stripping, after Sondhi and Gopinath). Points run from the far end towards
x0, so each point's active set holds the previous one's. Ordered by the
point at which they become active, the samples make every point's system
a leading block of one matrix. With |nu| = 1 and the control matrix H,
S = diag(nu) H is symmetric up to IRM reciprocity, and the Tikhonov
solution is q = Re[(S - i sqrt(lambda) I)^-1 nu]. One unpivoted
complex-symmetric LDL^T of the largest block, A = L diag(d) L^T, then
gives every point's volume as a prefix sum:
V_k = a^2 dt/g * Re sum_{j < n_k} u_j^2 / d_j with u = L^-1 nu. The pivots
exist (S_k - i sqrt(lambda) I is never singular), but no theorem makes the
unpivoted factorisation stable here (Higham 1998 needs definite real and
imaginary parts), so the largest point is checked at run time.
``volume_profile`` keeps the per-point solve where lambda = 0, where the
active sets do not nest, where the reciprocity deviation max|S - S^T| /
max|S| exceeds ``RECIPROCITY_TOL``, or where the largest point's relative
residual or its disagreement with a pivoted direct solve of the same
system exceeds ``STABILITY_TOL``. On the exp1 and exp2 pipes the two paths
agree within 4e-15 relative (the tests hold 1e-10). Where they differ
more, on systems of several hundred unknowns from simulated IRMs, the
per-point normal equations are the ones off: the factorisation stays
within 6e-14 of a QR least-squares solve of the stacked system.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import (
    ActionTimeExceedsTau,
    GridMismatch,
    HorizonTooShort,
    OutOfRange,
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

RECIPROCITY_TOL = 1e-9  # max|S - S^T| / max|S| above which a profile is solved point by point
STABILITY_TOL = 1e-10  # largest point: relative residual, and relative distance to a pivoted direct solve
_BLOCK = 48  # LDL^T block width: columns factored one by one inside it, matrix products across


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

    def __post_init__(self):
        for name in ("tau", "dt", "dx"):
            value = getattr(self, name)
            if not 0 < value < math.inf:
                raise OutOfRange(f"{name} must be positive and finite, not {value}")
        _check_lambda(self.lam)

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
    solver: str = "per-point"  # "layer-stripping", or "per-point: <why not>"
    reciprocity: float = 0.0   # max|S - S^T| / max|S| over the samples the points use


@dataclass(frozen=True)
class AreaProfile:
    pipe: str
    positions: np.ndarray  # interval starts, m from the reconstruction start
    areas: np.ndarray      # m^2


def _check_lambda(lam: float) -> None:
    if not 0 <= lam < math.inf:
        raise OutOfRange(f"Tikhonov weight lambda must be finite and >= 0, not {lam}")


def _active(f_vec: np.ndarray, cfg: ReconConfig) -> np.ndarray:
    """Masks (..., N, M) from action times (..., N): sample l of leaf i is active when t_l > tau - f_i + tol."""
    s_times = np.arange(1, cfg.samples_per_leaf + 1) * cfg.dt
    return s_times - (cfg.tau - f_vec[..., None]) > cfg.tol


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
    return BCSystem(matrix, _active(f_vec, cfg), irm.leaves)


def solve_boundary_flows(sys: BCSystem, lam: float) -> dict[str, np.ndarray]:
    """Solve for a unit head on the active samples; inactive samples come back exactly zero.

    Returns the boundary flow series Q_p(t, x_i) per leaf on the grid
    t = dt..M*dt.
    """
    _check_lambda(lam)
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


def _ldlt(a: np.ndarray) -> None:
    """Factor ``a`` = [A | v], (n, n + 1), in place: A = L diag(d) L^T without pivoting, v -> L^-1 v.

    Reads only A's lower triangle. The unit lower triangle L is left below
    the diagonal and d on it. Columns are eliminated one by one only inside
    each diagonal block; the panel below it, the vector and the trailing
    lower triangle take the block's step as matrix products.
    """
    n = a.shape[0]
    for j0 in range(0, n, _BLOCK):
        j1 = min(j0 + _BLOCK, n)
        b = j1 - j0
        # [A11 | I] with A11 made whole from its lower triangle: each row
        # operation is one update, and it turns I into L11^-1
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
        for c0 in range(j1, n, _BLOCK):
            c1 = min(c0 + _BLOCK, n)
            a[c0:, c0:c1] -= l21[c0 - j1 :] @ (l21[c0 - j1 : c1 - j1] * d).T


def _back_substitute(a: np.ndarray, y: np.ndarray) -> np.ndarray:
    """x = L^-T y for the unit lower triangle L that ``_ldlt`` left in ``a``."""
    n = y.size
    x = y.copy()
    for j0 in reversed(range(0, n, _BLOCK)):
        j1 = min(j0 + _BLOCK, n)
        x[j0:j1] -= a[j1:n, j0:j1].T @ x[j1:]
        for k in range(j1 - 1, j0 - 1, -1):
            x[k] -= a[k + 1 : j1, k] @ x[k + 1 : j1]
    return x


def _s_columns(matrix: np.ndarray, idx: np.ndarray, nu: np.ndarray):
    """S = diag(nu) H on the samples ``idx`` (``nu`` already on them), as (column slice, block) pairs.

    Blocks of ``_BLOCK`` columns keep the temporaries small next to the
    (n, n + 1) complex buffer.
    """
    for c0 in range(0, idx.size, _BLOCK):
        cols = idx[c0 : c0 + _BLOCK]
        yield slice(c0, c0 + cols.size), matrix[np.ix_(idx, cols)] * nu[:, None]


def _asymmetry(matrix: np.ndarray, idx: np.ndarray, nu: np.ndarray) -> float:
    """max|S - S^T| / max|S| for S = diag(nu) H on the samples ``idx``."""
    dev = scale = 0.0
    for cols, block in _s_columns(matrix, idx, nu):
        rows = matrix[np.ix_(idx[cols], idx)] * nu[cols, None]
        dev = max(dev, np.abs(block - rows.T).max())
        scale = max(scale, np.abs(block).max())
    return dev / scale if scale else 0.0


def _system(matrix: np.ndarray, idx: np.ndarray, nu: np.ndarray, mu: float) -> np.ndarray:
    """[S - i mu I | nu] for S = diag(nu) H on the samples ``idx``, as one complex (n, n + 1) buffer."""
    n = idx.size
    a = np.empty((n, n + 1), dtype=complex)
    for cols, block in _s_columns(matrix, idx, nu):
        a[:, cols] = block
    a[np.diag_indices(n)] -= 1j * mu
    a[:, n] = nu
    return a


def _layer_stripped(a: np.ndarray, counts: np.ndarray, scale: float):
    """Volumes of the points whose systems are the leading ``counts`` blocks of ``a`` = [A | nu].

    Factors ``a`` in place. Returns the volumes, scale * Re nu_k^T A_k^-1 nu_k
    for each leading block A_k, and the largest point's x = A^-1 nu.
    """
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        _ldlt(a)
        d = a.diagonal().copy()
        u = a[:, -1].copy()
        prefix = np.concatenate(([0.0], np.cumsum(u * u / d).real))
        return scale * prefix[counts], _back_substitute(a, u / d)


def _stable(a: np.ndarray, x: np.ndarray, v: float, scale: float) -> bool:
    """Whether ``x`` solves ``a`` = [A | nu] and ``v`` matches a pivoted direct solve, both to ``STABILITY_TOL``.

    |nu| = 1, so the largest residual entry is the relative residual.
    """
    system, nu = a[:, :-1], a[:, -1]
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        residual = np.abs(system @ x - nu).max(initial=0.0)
        try:
            direct = scale * float(np.real(nu @ np.linalg.solve(system, nu)))
        except np.linalg.LinAlgError:
            return False
        return bool(residual <= STABILITY_TOL and abs(v - direct) <= STABILITY_TOL * abs(direct))


def volume_profile(net: Network, irm: SampledIRM, pipe_id: str, cfg: ReconConfig) -> VolumeProfile:
    """Volumes V(p) at dx-spaced points along one pipe, from one factorisation where it is safe.

    Points start dx from the pipe end away from x0 and run towards x0,
    stopping at the pipe end or where the action times would exceed tau.
    Every point's volume is a prefix sum of one LDL^T of the largest
    point's system (see the module docstring). The per-point solve on the
    shared control matrix runs instead where lambda = 0 (its rank-checked
    least squares refuses a singular system), where the active sets do not
    nest, where the reciprocity deviation exceeds ``RECIPROCITY_TOL``
    (1e-9), or where, at the largest point, the relative residual of the
    factored solve or its relative distance to a pivoted direct solve of
    the same system exceeds ``STABILITY_TOL`` (1e-10). ``solver`` on the
    result names the path that ran, and ``reciprocity`` holds the
    deviation.
    """
    fs, positions = _profile_points(net, pipe_id, cfg)
    matrix = control_matrix(irm, cfg, net)
    if not fs:  # the pipe is shorter than dx
        return VolumeProfile(pipe_id, np.empty(0), np.empty(0))
    active = _active(np.array([f.as_vector(irm.leaves) for f in fs]), cfg)
    flat = active.reshape(len(fs), -1)
    # the samples any point uses, in the order the points take them up
    idx = np.flatnonzero(flat.any(axis=0))
    idx = idx[np.argsort(flat.argmax(axis=0)[idx], kind="stable")]
    nu = np.repeat([net.leaf_nu(leaf) for leaf in irm.leaves], cfg.samples_per_leaf)[idx]
    reciprocity = _asymmetry(matrix, idx, nu)

    volumes = None
    if cfg.lam == 0:
        solver = "per-point: lambda = 0"
    elif not (flat[:-1] <= flat[1:]).all():
        solver = "per-point: active sets do not nest"
    elif reciprocity > RECIPROCITY_TOL:
        solver = f"per-point: reciprocity deviation {reciprocity:.3g} > {RECIPROCITY_TOL:g}"
    else:
        mu, scale = math.sqrt(cfg.lam), net.wave_speed**2 * cfg.dt / net.gravity
        a = _system(matrix, idx, nu, mu)
        volumes, x = _layer_stripped(a, flat.sum(axis=1), scale)
        del a
        # the check rebuilds the system; the control matrix goes first to
        # leave room for the copy the pivoted solve makes
        a = _system(matrix, idx, nu, mu)
        del matrix
        if _stable(a, x, volumes[-1], scale):
            solver = "layer-stripping"
        else:
            volumes, solver = None, "per-point: stability check failed"
            matrix = control_matrix(irm, cfg, net)
        del a
    if volumes is None:
        systems = (assemble_system(irm, f, cfg, net, matrix) for f in fs)
        volumes = [volume(solve_boundary_flows(sys, cfg.lam), cfg, net) for sys in systems]
    return VolumeProfile(pipe_id, np.asarray(positions), np.asarray(volumes), solver, reciprocity)


def area_profile(vp: VolumeProfile, dx: float) -> AreaProfile:
    """Forward difference quotient of volumes: one area per dx interval."""
    if len(vp.volumes) < 2:
        raise TooFewPoints(
            f"profile for pipe {vp.pipe!r} has {len(vp.volumes)} points, need at least 2"
        )
    areas = np.diff(vp.volumes) / dx
    return AreaProfile(vp.pipe, vp.positions[:-1].copy(), areas)
