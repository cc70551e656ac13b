"""Reconstruction core: boundary-control systems, their solve, volumes, areas.

``volume_profile`` is the one entry point from an IRM to volumes: it
reconstructs a pipe's profile point by point from the far end towards x0,
and ``area_profile`` differences it.

The discrete control equation for one reconstruction point p follows the
piecewise-constant scheme: with M = floor(tau/dt + 1e-6) samples per leaf
(the 1e-6 keeps float division from losing the sample at a tau that is a
whole multiple of dt) at times t_l = l*dt (l = 1..M), dt the IRM's own
step, block (receiver j, source i) of the matrix S holds

    (dt/2) * ( k_ij(|l - k|) + k_ij(2M + 1 - l - k) )

in 0-based kernel indexing; the second index realizes the time-reversed
kernel argument 2*tau - t - s evaluated midpoint-consistently (each
sample stands for the half-open cell ending at it, so both arguments
shift by dt/2 and the reflected term lands one sample up), and the
diagonal blocks add the direct impulse a/(A(x_j) g), which the IRM
kernels leave out, on the diagonal.

A point enters through its action times f alone: sample l of leaf i is
active when t_l > tau - f(x_i) + dt/4. Only active samples enter its
system, with the unit target head 1; inactive samples get exact zero
flow. No leaf normal nu_i = +-1 enters: the control matrix of the pipe
flows Q is S diag(nu) and the volume sums nu_i Q_i, so both read only
the inflows q = diag(nu) Q, and a sign flip is exact. ``_s_matrix``
gathers S from the kernels on just the samples asked for, averaged
first over their leaf axes, (k_ij + k_ji)/2: the model's IRM is
reciprocal, so the skew part is measurement error or pruned fronts, and
S from the averaged kernels is symmetric bit for bit (on a reciprocal
IRM, the IRM itself). The per-point solve minimizes ||Sq - 1||^2 +
lambda*||q||^2, at lambda > 0 as q = Re[(S - i sqrt(lambda) I)^-1 1]
with a pivoted solve, or, at lambda = 0, by a rank-checked
least-squares solve that refuses a rank-deficient system.

Volumes come from the flow integral for that unit target, V = a^2/g *
sum_i nu_i * integral Q_p(t, x_i) dt = a^2 dt/g * 1^T q; areas are the
forward difference quotient of the volume profile over its own dx.

A profile needs one S and one factorisation, not one of each per point
(layer stripping, after Sondhi and Gopinath). Points run from the far end
towards x0, and no leaf's action time falls on the way, so each point's
active set holds the previous one's. Ordered by the point at which they
become active, the samples make every point's S a leading block of the
largest point's. One block LDL^T of A = S - i sqrt(lambda) I gives every
point's volume, V_k = a^2 dt/g * Re 1^T A_k^-1 1 on its leading
block A_k, as a running sum over panels whose pivot blocks LAPACK solves
(``_panels``, ``_layer_stripped``). No pivot block is singular
(|z^H A z| >= sqrt(lambda) ||z||^2 for every z), but nothing pivots
across panels, and no theorem makes that stable for every S, so the
largest point is checked at run time, in O(n^2): r = A x - 1 for the
back-substituted x checks the factorisation, and bounds the volume's
error through 1^T A^-1 1 = 1^T x - x^T r + r^T A^-1 r for a symmetric
A (Golub and Meurant 2010, ch. 7) and ||A^-1|| <= 1/sqrt(lambda)
(``_certificate``). At lambda = 0 no bound exists, and ``volume_profile``
solves each point on its leading block of S instead, as it does where
the residual or the bound exceeds ``STABILITY_TOL``. The bound reads at
most 1.3e-15, and the residual 2.1e-14, on every exp1, exp2 and
benchmark-tree (seeds 1-10) pipe, and on the exp1 and exp2 pipes the two
paths agree within 1e-15 relative (the tests hold 1e-10).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ActionTimeExceedsTau, ConfigError, NumericError, _allocating
from .graph import Network, action_times_along
from .irm import SampledIRM
from .simulate import grid_size

__all__ = [
    "ReconConfig",
    "VolumeProfile",
    "AreaProfile",
    "volume_profile",
    "area_profile",
]

STABILITY_TOL = 1e-10  # largest point: relative residual, and the certified bound on the volume's relative error
_BLOCK = 48  # widest panel, and columns a block of S as it is gathered and of a panel's trailing update
_PANEL = 16  # widest panel joined from stretches between counts; a wider stretch is cut at _BLOCK


@dataclass(frozen=True, kw_only=True)
class ReconConfig:
    """Inversion parameters for one pipe's reconstruction, by keyword only; the sample step dt is the IRM's.

    tau: control horizon, M = floor(tau/dt + 1e-6) samples per leaf (needs 2*tau within the IRM horizon);
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
                raise ConfigError(f"{name} must be positive and finite, not {value}")
        if not 0 <= self.lam < math.inf:
            raise ConfigError(f"Tikhonov weight lambda must be finite and >= 0, not {self.lam}")


@dataclass(frozen=True)
class VolumeProfile:
    pipe: str
    positions: np.ndarray  # m from the reconstruction start
    volumes: np.ndarray    # m^3
    dx: float              # m between points, the step of its areas' difference quotient
    solver: str = "per-point"  # "layer-stripping", or "per-point: <why not>"
    # largest point, on the layer-stripping path only (None on the per-point paths):
    residual: float | None = None      # max|A x - 1|, relative to the unit target
    volume_bound: float | None = None  # bound on the volume's relative error


@dataclass(frozen=True)
class AreaProfile:
    pipe: str
    positions: np.ndarray  # interval starts, m from the reconstruction start
    areas: np.ndarray      # m^2


def _samples(cfg: ReconConfig, dt: float) -> int:
    """M = floor(tau/dt + 1e-6), as ``grid_size`` counts a span; a ConfigError where the quotient overflows."""
    with _allocating(f"samples {dt} s apart over tau = {cfg.tau} s"):  # their count may overflow
        return grid_size(cfg.tau, dt) - 1


def _active(f_vec: np.ndarray, cfg: ReconConfig, dt: float) -> np.ndarray:
    """Masks (..., N, M) from action times (..., N): sample l of leaf i is active when t_l > tau - f_i + dt/4."""
    s_times = np.arange(1, _samples(cfg, dt) + 1) * dt
    return s_times - (cfg.tau - f_vec[..., None]) > dt / 4


def _s_matrix(irm: SampledIRM, m: int, net: Network, idx: np.ndarray) -> np.ndarray:
    """S = H diag(nu), free of the leaf normals, on the flat samples ``idx`` (leaf * m + l - 1), in that order.

    ``m`` is M, checked by ``volume_profile``. Entries are gathered
    straight from the kernels, ``_BLOCK`` columns at a time, so no
    temporary outgrows (n, ``_BLOCK``) and no sample outside ``idx`` is touched.
    """
    leaf, lv = np.divmod(idx, m)
    lv += 1
    areas = np.array([net.leaf_area(x) for x in irm.leaves])
    direct = (net.wave_speed / (areas * net.gravity))[leaf]
    row_leaf, row_l = leaf[:, None], lv[:, None]
    n = idx.size  # S, and the complex buffer it factors with at most six (n + 1, _BLOCK) blocks (_layer_stripped)
    with _allocating(f"a system of {n} unknowns", 8 * n**2 + 16 * (n + 1) * (n + 6 * _BLOCK)):
        s = np.empty((idx.size, idx.size))
    for c0 in range(0, idx.size, _BLOCK):
        c = slice(c0, min(c0 + _BLOCK, idx.size))
        # column c is source leaf[c] at sample lv[c], row r receiver leaf[r] at sample lv[r]
        k_diff = irm.k[leaf[c], row_leaf, np.abs(row_l - lv[c])]
        k_rev = irm.k[leaf[c], row_leaf, 2 * m + 1 - row_l - lv[c]]
        s[:, c] = 0.5 * irm.dt * (k_diff + k_rev)
        s[np.arange(c.start, c.stop), np.arange(c.start, c.stop)] += direct[c]
    return s


def _solve_point(s: np.ndarray, b: np.ndarray, lam: float) -> np.ndarray:
    """q minimising ||S q - b||^2 + lam ||q||^2 for a symmetric S, or at lam = 0 by rank-checked least squares.

    ``volume_profile`` passes b = 1, the point's unit target head, and
    ``lam`` is a ``ReconConfig``'s, so finite and >= 0. At lam > 0, q =
    Re (S - i sqrt(lam) I)^-1 b, whose matrix no real S makes singular.
    """
    if lam > 0:
        with _allocating(f"a system of {b.size} unknowns", 32 * b.size**2):  # S - i sqrt(lam) I, and LAPACK's copy
            a = s.astype(complex)
            a[np.diag_indices(b.size)] -= 1j * math.sqrt(lam)
            return np.linalg.solve(a, b).real
    sol, _, rank, _ = np.linalg.lstsq(s, b, rcond=None)
    if rank < b.size:
        raise NumericError(f"restricted matrix rank {rank} < {b.size} with lambda = 0")
    return sol


def _profile_points(net: Network, pipe_id: str, cfg: ReconConfig, dt: float):
    """Action times (points, leaves), offsets and positions of cut points dx apart, from the far end towards x0.

    The points stop at the pipe end, or before the first one whose action
    times exceed tau; ``ActionTimeExceedsTau`` if that is the first point.
    """
    pipe = net.pipes[pipe_id]
    # a kept point is within a*(tau + dt/4) of the far end, so no candidate lies over a dx past that
    reach = min(pipe.length, net.wave_speed * (cfg.tau + dt / 4))
    with _allocating(f"profile points {cfg.dx} m apart over {reach:g} m"):  # their count may overflow
        n = int(reach / cfg.dx) + 1
    # per point its distances, offsets and masks, and per leaf an action time and, at each of M samples,
    # volume_profile's active mask and the float comparison it is made from
    with _allocating(f"{n} profile points", n * (32 + len(net.accessible) * (8 + 9 * _samples(cfg, dt)))):
        d = np.arange(1, n + 1) * cfg.dx
    d = np.minimum(d[d <= pipe.length + cfg.dx * 1e-9], pipe.length)
    offsets = d if net.far_side_vertex(pipe_id) == pipe.from_vertex else pipe.length - d
    f = action_times_along(net, pipe_id, offsets)
    over = f.max(axis=1, initial=0.0) - cfg.tau > dt / 4
    if len(over) and over[0]:
        raise ActionTimeExceedsTau(
            f"first point of pipe {pipe_id!r}, {float(d[0])} m from its far end, needs action time"
            f" {f[0].max():.6g}s > tau = {cfg.tau}s"
        )
    n = int(over.argmax()) if over.any() else len(d)
    return f[:n], offsets[:n], d[:n]


def _panels(counts: np.ndarray) -> list[tuple[int, int]]:
    """Panels [j0, j1) over the unknowns 0..max(counts): each closes on a count whose successor lies over ``_PANEL``
    past its start, and one wider than ``_BLOCK`` (often the first point's shared block) is cut every ``_BLOCK``."""
    panels, j0, ends = [], 0, np.unique(counts[counts > 0]).tolist()
    for c, after in zip(ends, ends[1:] + [math.inf]):
        if after - j0 > _PANEL:
            panels += [(p0, min(p0 + _BLOCK, c)) for p0 in range(j0, c, _BLOCK)]
            j0 = c
    return panels


def _column_blocks(panels: list[tuple[int, int]]) -> list[tuple[int, int]]:
    """Consecutive panels joined into column blocks [c0, c1) of at most ``_BLOCK``, one trailing product each."""
    blocks = []
    for p0, p1 in panels:
        if blocks and p1 - blocks[-1][0] <= _BLOCK:
            blocks[-1] = (blocks[-1][0], p1)
        else:
            blocks.append((p0, p1))
    return blocks


def _layer_stripped(s: np.ndarray, b: np.ndarray, mu: float, counts: np.ndarray):
    """b_c^T A_c^-1 b_c at each count c, A_c the leading c x c block of A = S - i mu I (S symmetric); x = A^-1 b.

    ``counts`` is nondecreasing and ends at n. For each panel J (``_panels``),
    y = D^-1 [A[J, j1:] | u_J] from LAPACK, D the panel's block of the
    current Schur complement and u the reduced b, updates the lower
    trailing matrix and u, and stays in the buffer for x_J = y_u - y_A x[j1:].
    A form gains u_J^T y_u over a panel; a count inside it reads u[:c]^T
    D[:c, :c]^-1 u[:c], from one batched solve of D's leading blocks padded
    with identity. A panel holds y, LAPACK's copies of D and of the
    right-hand sides, and a product with the two buffers numpy subtracts it
    through: six (n + 1, _BLOCK) blocks at most besides the buffer.
    """
    n = b.size
    panels, ends = _panels(counts), np.unique(counts)
    blocks = _column_blocks(panels)
    a = np.empty((n + 1, n), dtype=complex)
    with np.errstate(invalid="ignore", over="ignore"):
        a[:n] = s
        a[np.diag_indices(n)] -= 1j * mu
        a[n] = b
        forms = np.zeros(n + 1, dtype=complex)
        for j0, j1 in panels:
            d, u, lower = a[j0:j1, j0:j1], a[n, j0:j1], a[j1:, j0:j1]
            y = np.linalg.solve(d, lower.T)
            forms[j1] = forms[j0] + u @ y[:, -1]
            inner = ends[(ends > j0) & (ends < j1)] - j0
            if inner.size:
                keep = np.arange(j1 - j0) < inner[:, None]
                leading = np.where(keep[:, :, None] & keep[:, None, :], d, np.eye(j1 - j0))
                u_c = np.where(keep, u, 0.0)
                forms[j0 + inner] = forms[j0] + (u_c * np.linalg.solve(leading, u_c[..., None])[..., 0]).sum(axis=1)
            for c0, c1 in blocks:
                if c1 > j1:  # from row c0 down, so each later panel's pivot block is updated whole
                    c0 = max(c0, j1)
                    a[c0:, c0:c1] -= lower[c0 - j1 :] @ y[:, c0 - j1 : c1 - j1]
            a[j0:j1, j1:], a[n, j0:j1] = y[:, :-1], y[:, -1]
        x = np.empty(n, dtype=complex)
        for j0, j1 in reversed(panels):
            x[j0:j1] = a[n, j0:j1] - a[j0:j1, j1:] @ x[j1:]
    return forms[counts], x


def _certificate(s: np.ndarray, b: np.ndarray, mu: float, x: np.ndarray, v: float, scale: float):
    """Relative residual of ``x``, and a bound on the relative error of ``v``, in O(n^2).

    A = S - i mu I with S real symmetric and mu > 0, and ``x`` approximates
    A^-1 b, which ``_layer_stripped`` factors. The bound on ``v``, the
    volume scale * Re b^T A^-1 b, follows from r = A x - b: A^-1 b =
    x - A^-1 r, and A^-T = A^-1, so

        b^T A^-1 b = b^T x - x^T r + r^T A^-1 r.

    For any complex z, z^H A z = z^H S z - i mu ||z||^2 with the first term
    real, so |z^H A z| >= mu ||z||^2 and ||A^-1||_2 <= 1/mu. Then

        |v - scale Re b^T A^-1 b| <= |v - scale Re b^T x| + scale (|x^T r| + ||r||^2/mu).

    The first term catches a volume that does not match ``x``, such as a
    corrupted running sum. The bound is divided by |v|. It holds up to the
    rounding of r itself, about n eps max|S| ||x||. |b| = 1, so the
    largest residual entry is the relative residual.
    """
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        p = s @ np.stack([x.real, x.imag], axis=1)  # S x without a complex copy of S
        r = p[:, 0] + 1j * (p[:, 1] - mu * x.real) + mu * x.imag - b
        err = abs(v - scale * (b @ x).real) + scale * (abs(x @ r) + np.linalg.norm(r) ** 2 / mu)
        return float(np.abs(r).max(initial=0.0)), float(err / abs(v)) if err else 0.0


def volume_profile(net: Network, irm: SampledIRM, pipe_id: str, cfg: ReconConfig) -> VolumeProfile:
    """Volumes V(p) at dx-spaced points along one pipe, from one factorisation where it is certified.

    Points start dx from the pipe end away from x0 and run towards x0,
    stopping at the pipe end or where the action times would exceed tau; the
    result records dx. Samples lie on the IRM's grid, whose kernels must
    span 2*tau even where no point fits. One matrix S, from the kernels
    averaged over their leaf axes, serves the whole profile (see the module
    docstring): every point's volume is a running sum over the panels of
    one block LDL^T. Each
    point is solved on its leading block of S instead at lambda = 0, as no
    certificate exists there (the rank-checked least squares refuses a
    singular system), or where the largest point's residual or certified
    bound (``_certificate``) exceeds ``STABILITY_TOL`` (1e-10). ``solver``
    on the result names the path that ran, and on the factored path
    ``residual`` and ``volume_bound`` hold the two checked numbers.
    """
    if tuple(irm.leaves) != net.accessible:
        raise ConfigError(f"IRM leaves {list(irm.leaves)} differ from the network's accessible leaves "
                          f"{list(net.accessible)}")
    f, _, positions = _profile_points(net, pipe_id, cfg, irm.dt)
    m = _samples(cfg, irm.dt)
    if irm.n_samples < 2 * m:
        raise ConfigError(f"kernels have {irm.n_samples} samples, need {2 * m} to span 2*tau")
    if not positions.size:
        return VolumeProfile(pipe_id, np.empty(0), np.empty(0), cfg.dx)
    # the samples any point uses, in the order the points take them up: no
    # action time falls towards x0, so point k uses the first counts[k]
    flat = _active(f, cfg, irm.dt).reshape(len(f), -1)
    idx = np.flatnonzero(flat.any(axis=0))
    idx, counts = idx[np.argsort(flat.argmax(axis=0)[idx], kind="stable")], flat.sum(axis=1)
    k = irm.k[:, :, : 2 * m]  # the samples S reads
    with _allocating(f"averaged kernels of {k.size} samples", k.nbytes):
        k = k + k.transpose(1, 0, 2)
    k *= 0.5
    s = _s_matrix(SampledIRM(irm.dt, irm.leaves, k, irm.horizon), m, net, idx)
    ones, scale = np.ones(idx.size), net.wave_speed**2 * irm.dt / net.gravity

    solver = "per-point: lambda 0"  # no certificate without regularisation
    if cfg.lam > 0:
        mu = math.sqrt(cfg.lam)
        forms, x = _layer_stripped(s, ones, mu, counts)
        volumes = scale * forms.real
        residual, volume_bound = _certificate(s, ones, mu, x, volumes[-1], scale)
        if residual <= STABILITY_TOL and volume_bound <= STABILITY_TOL:
            return VolumeProfile(pipe_id, positions, volumes, cfg.dx, "layer-stripping", residual, volume_bound)
        solver = "per-point: stability check failed"
    volumes = [scale * float(ones[:c] @ _solve_point(s[:c, :c], ones[:c], cfg.lam)) for c in counts]
    return VolumeProfile(pipe_id, positions, np.asarray(volumes), cfg.dx, solver)


def area_profile(vp: VolumeProfile) -> AreaProfile:
    """Forward difference quotient of volumes over the profile's own dx: one area per interval."""
    if len(vp.volumes) < 2:
        raise ConfigError(
            f"profile for pipe {vp.pipe!r} has {len(vp.volumes)} points, need at least 2"
        )
    areas = np.diff(vp.volumes) / vp.dx
    return AreaProfile(vp.pipe, vp.positions[:-1].copy(), areas)
