"""Reconstruction core: boundary-control systems, their solve, volumes, areas.

The discrete control equation for one reconstruction point p follows the
piecewise-constant scheme: with M = floor(tau/dt) samples per leaf at
times t_l = l*dt (l = 1..M), dt the IRM's own step, block (receiver j,
source i) of the control matrix H holds

    (dt/2) * nu_i * ( k_ij(|l - k|) + k_ij(2M + 1 - l - k) )

in 0-based kernel indexing; the second index realizes the time-reversed
kernel argument 2*tau - t - s evaluated midpoint-consistently (each
sample stands for the half-open cell ending at it, so both arguments
shift by dt/2 and the reflected term lands one sample up), and the
diagonal blocks add the direct impulse nu_j * a/(A(x_j) g), which the
IRM kernels leave out, on the diagonal.

A point enters through its action times f alone: sample l of leaf i is
active when t_l > tau - f(x_i) + dt/4. Only active samples enter its
system, with the unit target head b = 1; inactive samples get exact zero
flow. With |nu| = 1, S = diag(nu) H turns ||Hq - b|| into ||Sq - nu||,
and ``_s_matrix`` gathers S from the kernels on just the samples asked
for. The per-point solve minimizes ||Sq - nu||^2 + lambda*||q||^2 through
the normal equations (S^T S + lambda I) q = S^T nu, or, at lambda = 0, by
a rank-checked least-squares solve that refuses a rank-deficient system.

Volumes come from the flow integral for that unit target,
V = a^2/g * sum_i nu_i * integral Q_p(t, x_i) dt; areas are the forward
difference quotient of the volume profile over its own dx.

A profile needs one S and one factorisation, not one of each per point
(layer stripping, after Sondhi and Gopinath). Points run from the far end
towards x0, and no leaf's action time falls on the way, so each point's
active set holds the previous one's. Ordered by the point at which they
become active, the samples make every point's S a leading block of the
largest point's. For a symmetric S the Tikhonov solution is
q = Re[(S - i sqrt(lambda) I)^-1 nu]. S is symmetric up to IRM
reciprocity, and its skew part K = (S - S^T)/2 moves the volume only to
second order (w^T K w = 0), so one unpivoted complex-symmetric LDL^T of
the largest block of A_s = (S + S^T)/2 - i sqrt(lambda) I = L diag(d) L^T
gives every point's volume as a prefix sum:
V_k = a^2 dt/g * Re sum_{j < n_k} u_j^2 / d_j with u = L^-1 nu. The pivots
exist (no leading block of A_s is singular), but no theorem makes the
unpivoted factorisation stable here (Higham 1998 needs definite real and
imaginary parts), so the largest point is checked at run time, in O(n^2):
the residual of the back-substituted x against A_s checks the
factorisation, and r = A x - nu against the whole A = S - i sqrt(lambda) I
bounds the volume's error, through nu^T A^-1 nu = nu^T x - x^T r +
r^T A^-1 r for a symmetric A (Golub and Meurant 2010, ch. 7) and
||A^-1|| <= 1/sigma, sigma = sqrt(lambda) minus a bound kappa on ||K||_2
(``_certificate`` derives the bound, with the term K adds). Where
sigma <= 0, lambda = 0 included, no bound exists, and ``volume_profile``
solves each point on its leading block of S instead, as it does where the
residual or the bound exceeds ``STABILITY_TOL``. The bound reads at most
7e-15 on every exp1, exp2 and benchmark-tree (seeds 1-10) pipe, and on
the exp1 and exp2 pipes the two paths agree within 4e-15 relative (the
tests hold 1e-10). Where they differ more, on systems of several hundred
unknowns from simulated IRMs, the per-point normal equations are the ones
off: the factorisation stays within 6e-14 of a QR least-squares solve of
the stacked system.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import (
    ActionTimeExceedsTau,
    ConfigError,
    HorizonTooShort,
    OutOfRange,
    SingularSystem,
    TooFewPoints,
)
from .graph import ActionTimes, Network, PointOnPipe, action_times_along
from .irm import SampledIRM

__all__ = [
    "ReconConfig",
    "VolumeProfile",
    "AreaProfile",
    "solve_boundary_flows",
    "volume",
    "volume_profile",
    "area_profile",
]

STABILITY_TOL = 1e-10  # largest point: relative residual, and the certified bound on the volume's relative error
_BLOCK = 48  # LDL^T block width: columns factored one by one inside it, matrix products across


@dataclass(frozen=True, kw_only=True)
class ReconConfig:
    """Inversion parameters for one pipe's reconstruction, by keyword only; the sample step dt is the IRM's.

    tau: control horizon, M = floor(tau/dt) samples per leaf (needs 2*tau within the IRM horizon);
    dx: reconstruction step along the pipe;
    lam: Tikhonov weight.
    """

    tau: float
    dx: float
    lam: float = 0.0

    def __post_init__(self):
        for name in ("tau", "dx"):
            value = getattr(self, name)
            if not 0 < value < math.inf:
                raise OutOfRange(f"{name} must be positive and finite, not {value}")
        _check_lambda(self.lam)


@dataclass(frozen=True)
class VolumeProfile:
    pipe: str
    positions: np.ndarray  # m from the reconstruction start
    volumes: np.ndarray    # m^3
    dx: float              # m between points, the step of its areas' difference quotient
    solver: str = "per-point"  # "layer-stripping", or "per-point: <why not>"
    reciprocity: float = 0.0   # max|S - S^T| / max|S| over the samples the points use
    # largest point, on the layer-stripping path only (None on the per-point paths):
    residual: float | None = None      # max|A_s x - nu| for S's symmetric part, relative as |nu| = 1
    volume_bound: float | None = None  # bound on the volume's relative error


@dataclass(frozen=True)
class AreaProfile:
    pipe: str
    positions: np.ndarray  # interval starts, m from the reconstruction start
    areas: np.ndarray      # m^2


def _check_lambda(lam: float) -> None:
    if not 0 <= lam < math.inf:
        raise OutOfRange(f"Tikhonov weight lambda must be finite and >= 0, not {lam}")


def _check_leaves(irm: SampledIRM, net: Network) -> None:
    """Refuse an IRM whose leaves are not the network's accessible leaves, in the same order."""
    if tuple(irm.leaves) != net.accessible:
        raise ConfigError(
            f"IRM leaves {list(irm.leaves)} differ from the network's accessible leaves {list(net.accessible)}"
        )


def _samples_per_leaf(irm: SampledIRM, cfg: ReconConfig) -> int:
    """M = floor(tau/dt) on the IRM's grid; ``HorizonTooShort`` unless its kernels span 2*tau."""
    m = math.floor(cfg.tau / irm.dt)
    if irm.n_samples < 2 * m:
        raise HorizonTooShort(f"kernels have {irm.n_samples} samples, need {2 * m} to span 2*tau")
    return m


def _active(f_vec: np.ndarray, cfg: ReconConfig, dt: float) -> np.ndarray:
    """Masks (..., N, M) from action times (..., N): sample l of leaf i is active when t_l > tau - f_i + dt/4."""
    s_times = np.arange(1, math.floor(cfg.tau / dt) + 1) * dt
    return s_times - (cfg.tau - f_vec[..., None]) > dt / 4


def _s_matrix(irm: SampledIRM, m: int, net: Network, idx: np.ndarray):
    """S = diag(nu) H on the flat samples ``idx`` (leaf * m + l - 1), in that order, and nu on them.

    ``m`` is M, checked by ``_samples_per_leaf``. Entries are gathered
    straight from the kernels, ``_BLOCK`` columns at a time, so no
    temporary outgrows (n, ``_BLOCK``) and no sample outside ``idx`` is touched.
    """
    leaf, lv = np.divmod(idx, m)
    lv += 1
    nus = np.array([net.leaf_nu(x) for x in irm.leaves], dtype=float)
    areas = np.array([net.leaf_area(x) for x in irm.leaves])
    nu = nus[leaf]
    coef = 0.5 * irm.dt * nu
    direct = (nus * net.wave_speed / (areas * net.gravity))[leaf]
    row_leaf, row_l = leaf[:, None], lv[:, None]
    s = np.empty((idx.size, idx.size))
    for c0 in range(0, idx.size, _BLOCK):
        c = slice(c0, min(c0 + _BLOCK, idx.size))
        # column c is source leaf[c] at sample lv[c], row r receiver leaf[r] at sample lv[r]
        k_diff = irm.k[leaf[c], row_leaf, np.abs(row_l - lv[c])]
        k_rev = irm.k[leaf[c], row_leaf, 2 * m + 1 - row_l - lv[c]]
        block = coef[c] * (k_diff + k_rev)
        block[np.arange(c.start, c.stop), np.arange(c.stop - c.start)] += direct[c]
        s[:, c] = block * nu[:, None]
    return s, nu


def _solve_point(s: np.ndarray, nu: np.ndarray, lam: float) -> np.ndarray:
    """q minimising ||S q - nu||^2 + lam ||q||^2, by normal equations, or at lam = 0 by rank-checked least squares.

    With |nu| = 1 this is ||H q - 1||^2 for the point's control matrix H.
    """
    _check_lambda(lam)
    if lam > 0:
        normal = s.T @ s
        normal[np.diag_indices(nu.size)] += lam
        try:
            return np.linalg.solve(normal, s.T @ nu)
        except np.linalg.LinAlgError as exc:
            raise SingularSystem(f"normal equations singular with lambda = {lam}: {exc}") from exc
    sol, _, rank, _ = np.linalg.lstsq(s, nu, rcond=None)
    if rank < nu.size:
        raise SingularSystem(f"restricted matrix rank {rank} < {nu.size} with lambda = 0")
    return sol


def solve_boundary_flows(irm: SampledIRM, f: ActionTimes, cfg: ReconConfig, net: Network) -> dict[str, np.ndarray]:
    """Solve for a unit head at the point with action times ``f``; inactive samples come back exactly zero.

    Returns the boundary flow series Q_p(t, x_i) per leaf on the IRM's grid
    t = dt..M*dt.
    """
    _check_leaves(irm, net)
    f_vec = f.as_vector(irm.leaves)
    if float(f_vec.max(initial=0.0)) - cfg.tau > irm.dt / 4:
        raise ActionTimeExceedsTau(
            f"max action time {f_vec.max():.6g}s exceeds tau = {cfg.tau}s at {f.cut_point}"
        )
    m = _samples_per_leaf(irm, cfg)
    active = _active(f_vec, cfg, irm.dt)
    idx = np.flatnonzero(active)
    s, nu = _s_matrix(irm, m, net, idx)
    q = np.zeros(active.size)
    q[idx] = _solve_point(s, nu, cfg.lam)
    return dict(zip(irm.leaves, q.reshape(active.shape)))


def volume(flows: dict[str, np.ndarray], irm: SampledIRM, net: Network) -> float:
    """Internal volume cut off by the point the flows were solved for, on the grid of ``irm``.

    V = a^2/g * sum_i nu_i * integral Q_p(t, x_i) dt. The solver emits
    plain Q per leaf, so nu folds in exactly once here.
    """
    total = 0.0
    for leaf, series in flows.items():
        total += net.leaf_nu(leaf) * float(np.sum(series)) * irm.dt
    return net.wave_speed**2 / net.gravity * total


def _profile_points(net: Network, pipe_id: str, cfg: ReconConfig, dt: float):
    """Action times (points, leaves), offsets and positions of cut points dx apart, from the far end towards x0.

    The points stop at the pipe end, or before the first one whose action
    times exceed tau; ``ActionTimeExceedsTau`` if that is the first point.
    """
    pipe = net.pipes[pipe_id]
    # a kept point is within a*(tau + dt/4) of the far end, so no candidate lies over a dx past that
    reach = min(pipe.length, net.wave_speed * (cfg.tau + dt / 4))
    try:
        d = np.arange(1, int(reach / cfg.dx) + 2) * cfg.dx
    except (OverflowError, MemoryError, ValueError) as exc:  # a point count numpy cannot allocate or represent
        raise OutOfRange(f"dx {cfg.dx} gives more profile points than fit in memory: {exc}") from exc
    d = np.minimum(d[d <= pipe.length + cfg.dx * 1e-9], pipe.length)
    offsets = d if net.far_side_vertex(pipe_id) == pipe.from_vertex else pipe.length - d
    f = action_times_along(net, pipe_id, offsets)
    over = f.max(axis=1, initial=0.0) - cfg.tau > dt / 4
    if len(over) and over[0]:
        raise ActionTimeExceedsTau(
            f"first point {PointOnPipe(pipe_id, float(offsets[0]))} needs action time {f[0].max():.6g}s"
            f" > tau = {cfg.tau}s"
        )
    n = int(over.argmax()) if over.any() else len(d)
    return f[:n], offsets[:n], d[:n]


def _ldlt(a: np.ndarray) -> list[np.ndarray]:
    """Factor ``a`` = [A | v], (n, n + 1), in place: A = L diag(d) L^T without pivoting, v -> L^-1 v.

    Reads only A's lower triangle. The unit lower triangle L is left below
    the diagonal and d on it. Columns are eliminated one by one only inside
    each diagonal block; the panel below it, the vector and the trailing
    lower triangle take the block's step as matrix products. Returns the
    inverses of L's diagonal blocks, in block order.
    """
    n = a.shape[0]
    invs = []
    for j0 in range(0, n, _BLOCK):
        j1 = min(j0 + _BLOCK, n)
        b = j1 - j0
        # [A11 | I] with A11 made whole from its lower triangle: each row
        # operation is one update, and it turns I into L11^-1. Row k of that
        # right half is zero past column b + k, so the update stops there.
        low = np.tril(a[j0:j1, j0:j1], -1)
        work = np.hstack([low + low.T + np.diag(a.diagonal()[j0:j1]), np.eye(b)])
        for k in range(b - 1):
            col = work[k + 1 :, k]
            col /= work[k, k]
            work[k + 1 :, k + 1 : b + k + 1] -= col[:, None] * work[k, k + 1 : b + k + 1]
        a[j0:j1, j0:j1] = work[:, :b]
        d = work.diagonal().copy()
        inv = work[:, b:]
        invs.append(inv)
        a[j0:j1, n] = inv @ a[j0:j1, n]
        if j1 == n:
            break
        l21 = a[j1:, j0:j1]
        l21[...] = l21 @ (inv.T / d)
        a[j1:, n] -= l21 @ a[j0:j1, n]
        for c0 in range(j1, n, _BLOCK):
            c1 = min(c0 + _BLOCK, n)
            a[c0:, c0:c1] -= l21[c0 - j1 :] @ (l21[c0 - j1 : c1 - j1] * d).T
    return invs


def _back_substitute(a: np.ndarray, invs: list[np.ndarray], y: np.ndarray) -> np.ndarray:
    """x = L^-T y for the unit lower triangle L that ``_ldlt`` left in ``a``, one product per block.

    ``invs`` are the inverses of L's diagonal blocks that ``_ldlt`` returned.
    """
    n = y.size
    x = y.copy()
    for j0, inv in zip(reversed(range(0, n, _BLOCK)), reversed(invs)):
        j1 = j0 + len(inv)
        x[j0:j1] = inv.T @ (x[j0:j1] - a[j1:n, j0:j1].T @ x[j1:])
    return x


def _asymmetry(s: np.ndarray) -> tuple[float, float]:
    """max|S - S^T| / max|S|, and a bound on ||K||_2 for S's skew part K = (S - S^T)/2.

    The bound is n/2 max|S - S^T|, as ||K||_2 <= sqrt(||K||_1 ||K||_inf)
    <= n max|K_ij|. Both are taken ``_BLOCK`` columns at a time.
    """
    dev = scale = 0.0
    for c0 in range(0, len(s), _BLOCK):
        c = slice(c0, c0 + _BLOCK)
        dev = max(dev, np.abs(s[:, c] - s[c].T).max())
        scale = max(scale, np.abs(s[:, c]).max())
    return (dev / scale if scale else 0.0), 0.5 * len(s) * dev


def _layer_stripped(s: np.ndarray, nu: np.ndarray, mu: float, counts: np.ndarray, scale: float):
    """Volumes of the points whose systems are the leading ``counts`` blocks of S - i mu I.

    Factors one complex buffer [A_s | nu], A_s = (S + S^T)/2 - i mu I, filled
    ``_BLOCK`` columns at a time. Returns the volumes, scale * Re nu_k^T
    A_k^-1 nu_k for each leading block A_k of A_s, and x = A_s^-1 nu.
    """
    n = nu.size
    a = np.empty((n, n + 1), dtype=complex)
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        for c0 in range(0, n, _BLOCK):
            c = slice(c0, min(c0 + _BLOCK, n))
            a[:, c] = 0.5 * (s[:, c] + s[c].T)
        a[np.diag_indices(n)] -= 1j * mu
        a[:, n] = nu
        invs = _ldlt(a)
        d = a.diagonal().copy()
        u = a[:, -1].copy()
        prefix = np.concatenate(([0.0], np.cumsum(u * u / d).real))
        return scale * prefix[counts], _back_substitute(a, invs, u / d)


def _certificate(s: np.ndarray, nu: np.ndarray, mu: float, skew: float, x: np.ndarray, v: float, scale: float):
    """Relative residual of ``x`` on S's symmetric part, and a bound on the relative error of ``v``, in O(n^2).

    A = S - i mu I with S real, and ``skew`` bounds ||K||_2 for its skew
    part K = (S - S^T)/2. ``x`` approximates A_s^-1 nu for A_s = A - K,
    which ``_layer_stripped`` factors, and the residual A_s x - nu checks
    that. The bound on ``v``, the volume scale * Re nu^T A^-1 nu, checks the
    answer against the whole A: with r = A x - nu, A^-1 nu = x - A^-1 r =: w,
    and A^-T - A^-1 = A^-T (A - A^T) A^-1 = 2 A^-T K A^-1, so

        nu^T A^-1 r = (A^-T nu)^T r = (w + 2 A^-T K w)^T r
                    = x^T r - r^T A^-1 r + 2 w^T K^T A^-1 r,
        nu^T A^-1 nu = nu^T x - x^T r + r^T A^-1 r - 2 w^T K^T A^-1 r.

    For any complex z, z^H S z = z^H (S + S^T)/2 z + z^H K z with the first
    term real and the second imaginary, so |z^H A z| >= |Im z^H A z| >=
    (mu - ||K||_2) ||z||^2: ||A^-1||_2 <= 1/sigma with sigma = mu - ``skew``.
    Then ||w|| <= ||x|| + ||r||/sigma and

        |v - scale Re nu^T A^-1 nu| <= |v - scale Re nu^T x|
            + scale (|x^T r| + ||r||^2/sigma + 2 skew ||r|| (||x|| + ||r||/sigma)/sigma).

    The first term catches a volume that does not match ``x``, such as a
    corrupted prefix sum; for a reciprocal S the skew term is zero. The
    bound is divided by |v|, and is infinite where sigma <= 0. It holds up to
    the rounding of r itself, about n eps max|S| ||x||. |nu| = 1, so the
    largest residual entry is the relative residual.
    """
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        xs = np.stack([x.real, x.imag], axis=1)  # S x and S^T x without a complex copy of S
        sx = s @ xs
        r, r_sym = (p[:, 0] + 1j * (p[:, 1] - mu * x.real) + mu * x.imag - nu for p in (sx, 0.5 * (sx + s.T @ xs)))
        residual = float(np.abs(r_sym).max(initial=0.0))
        sigma = mu - skew
        if not sigma > 0:
            return residual, math.inf
        r_norm, x_norm = np.linalg.norm(r), np.linalg.norm(x)
        err = abs(v - scale * (nu @ x).real) + scale * (
            abs(x @ r) + r_norm**2 / sigma + 2 * skew * r_norm * (x_norm + r_norm / sigma) / sigma
        )
        return residual, float(err / abs(v)) if err else 0.0


def volume_profile(net: Network, irm: SampledIRM, pipe_id: str, cfg: ReconConfig) -> VolumeProfile:
    """Volumes V(p) at dx-spaced points along one pipe, from one factorisation where it is certified.

    Points start dx from the pipe end away from x0 and run towards x0,
    stopping at the pipe end or where the action times would exceed tau; the
    result records dx. Samples lie on the IRM's grid, whose kernels must
    span 2*tau even where no point fits. One matrix S serves the whole
    profile (see the module docstring): every point's volume is a prefix sum
    of one LDL^T of its symmetric part. Each point is solved on its leading
    block of S instead where sqrt(lambda) <= kappa, the bound ``_asymmetry``
    puts on the norm of S's skew part, as no certificate exists there (at
    lambda = 0 the rank-checked least squares refuses a singular system), or
    where the largest point's residual or certified bound (``_certificate``)
    exceeds ``STABILITY_TOL`` (1e-10). ``solver`` on the result names the
    path that ran, ``reciprocity`` holds the deviation, and on the factored
    path ``residual`` and ``volume_bound`` hold the two checked numbers.
    """
    _check_leaves(irm, net)
    f, _, positions = _profile_points(net, pipe_id, cfg, irm.dt)
    m = _samples_per_leaf(irm, cfg)
    if not positions.size:
        return VolumeProfile(pipe_id, np.empty(0), np.empty(0), cfg.dx)
    # the samples any point uses, in the order the points take them up: no
    # action time falls towards x0, so point k uses the first counts[k]
    flat = _active(f, cfg, irm.dt).reshape(len(f), -1)
    idx = np.flatnonzero(flat.any(axis=0))
    idx, counts = idx[np.argsort(flat.argmax(axis=0)[idx], kind="stable")], flat.sum(axis=1)
    s, nu = _s_matrix(irm, m, net, idx)
    reciprocity, skew = _asymmetry(s)
    scale = net.wave_speed**2 * irm.dt / net.gravity

    mu = math.sqrt(cfg.lam)
    solver = f"per-point: sqrt(lambda) {mu:.3g} <= skew bound {skew:.3g}"  # sigma <= 0: no certificate
    if mu > skew:
        volumes, x = _layer_stripped(s, nu, mu, counts, scale)
        residual, volume_bound = _certificate(s, nu, mu, skew, x, volumes[-1], scale)
        if residual <= STABILITY_TOL and volume_bound <= STABILITY_TOL:
            return VolumeProfile(pipe_id, positions, volumes, cfg.dx, "layer-stripping", reciprocity, residual,
                                 volume_bound)
        solver = "per-point: stability check failed"
    volumes = [scale * float(nu[:c] @ _solve_point(s[:c, :c], nu[:c], cfg.lam)) for c in counts]
    return VolumeProfile(pipe_id, positions, np.asarray(volumes), cfg.dx, solver, reciprocity)


def area_profile(vp: VolumeProfile) -> AreaProfile:
    """Forward difference quotient of volumes over the profile's own dx: one area per interval."""
    if len(vp.volumes) < 2:
        raise TooFewPoints(
            f"profile for pipe {vp.pipe!r} has {len(vp.volumes)} points, need at least 2"
        )
    areas = np.diff(vp.volumes) / vp.dx
    return AreaProfile(vp.pipe, vp.positions[:-1].copy(), areas)
