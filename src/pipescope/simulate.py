"""Direct problem: time-domain transient solver on the pipe network.

The scheme is the method of characteristics on one node array that
concatenates the nodes of every pipe. Each pipe is split into cells of
(near-)uniform size; the area profile is sampled at cell centers, giving
one characteristic impedance B = a/(gA) per cell. Per time step, every
cell carries Riemann-type compatibility values to its two nodes:

    C+ at its right node:  H + B * Q evaluated at the foot x - a*dt
    C- at its left node:   H - B * Q evaluated at the foot x + a*dt

At Courant number 1 the feet are the neighbouring nodes and the
transport is exact; below 1 the foot values are linearly interpolated
along the space line (the deliberate model-mismatch device used when
synthesizing measurement data). Interior nodes solve the two-equation
system C+ - B_left * Q = H = C- + B_right * Q.

Every vertex, be it an accessible leaf, x0 or a junction, obeys one rule:
head continuity, and Kirchhoff balance of the pipe flows nu_e * Q_e
against the flow s_v injected there. With c_e the C- value at an x = 0
end and the C+ value at an x = length end, each pipe end e at vertex v
has H_e = h_v and nu_e * Q_e = (h_v - c_e) / B_e, so

    h_v = (sum_e c_e / B_e + s_v) / sum_e 1 / B_e.

s_v is the prescribed inflow at driven accessible leaves and zero
elsewhere: x0 and undriven leaves are closed ends (Q = 0), the simplest
member of the class of inactive boundary conditions the model allows, and
flow balances at junctions to round-off by construction.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import MismatchedSeriesLength, UnstableConfig
from .graph import Network

__all__ = [
    "SimConfig",
    "Histories",
    "simulate",
    "step_inflow",
    "junction_scatter",
    "conservation_residual",
]


@dataclass(frozen=True)
class SimConfig:
    """Spatial cell size (m), Courant number in (0, 1], duration (s)."""

    dx: float
    duration: float
    courant: float = 1.0

    def __post_init__(self):
        if not 0.0 < self.courant <= 1.0:
            raise UnstableConfig(f"courant = {self.courant} outside (0, 1]")
        if not (0 < self.dx < math.inf and 0 <= self.duration < math.inf):
            raise UnstableConfig(f"dx {self.dx} must be positive and duration {self.duration} >= 0, both finite")


@dataclass
class _PipeGrid:
    x: np.ndarray           # node coordinates, len n+1
    dx: float
    areas: np.ndarray       # per cell, len n
    impedance: np.ndarray   # B = a/(gA) per cell, len n


@dataclass
class Histories:
    """Head traces at the accessible leaves, plus H(t, x), Q(t, x) per pipe if recorded.

    ``H`` and ``Q`` are empty dicts for a run made with ``fields=False``.
    """

    t: np.ndarray
    grids: dict[str, _PipeGrid]
    H: dict[str, np.ndarray]   # shape (n_times, n_nodes)
    Q: dict[str, np.ndarray]
    boundary: dict[str, np.ndarray]  # accessible leaf -> H(t, leaf)

    @property
    def dt(self) -> float:
        return float(self.t[1] - self.t[0])


def step_inflow(net: Network, cfg: SimConfig, leaf: str) -> dict[str, np.ndarray]:
    """Ideal unit step: value 1 from t = 0 on, at one leaf."""
    n_steps = _step_count(cfg.duration, _time_step(net, cfg))
    return {leaf: np.ones(n_steps + 1)}


def _pipe_grids(net: Network, cfg: SimConfig) -> dict[str, _PipeGrid]:
    grids = {}
    for pid, pipe in net.pipes.items():
        n = max(1, round(pipe.length / cfg.dx))
        dx = pipe.length / n
        x = np.linspace(0.0, pipe.length, n + 1)
        centers = (x[:-1] + x[1:]) / 2
        areas = np.asarray(pipe.area(centers), dtype=float)
        impedance = net.wave_speed / (net.gravity * areas)
        grids[pid] = _PipeGrid(x, dx, areas, impedance)
    return grids


def _time_step(net: Network, cfg: SimConfig) -> float:
    min_dx = min(p.length / max(1, round(p.length / cfg.dx)) for p in net.pipes.values())
    return cfg.courant * min_dx / net.wave_speed


def _step_count(duration: float, dt: float) -> int:
    return int(duration / dt + 1e-6)


def simulate(net: Network, flows: dict[str, np.ndarray], cfg: SimConfig, fields: bool = True) -> Histories:
    """Run the transient solver and record the head trace at every accessible leaf.

    ``flows`` maps accessible leaves to their prescribed inflow nu*Q, one
    sample per time step from t = 0; leaves without a series are closed.
    Every vertex then takes its head from the single vertex rule of the
    module docstring, already at t = 0 on the quiescent network. With
    ``fields`` the H and Q history of every node is kept as well; without
    it each step lives only as long as the next one needs it.
    """
    dt = _time_step(net, cfg)
    n_steps = _step_count(cfg.duration, dt)
    grids = _pipe_grids(net, cfg)
    vertex = {v: i for i, v in enumerate(net.vertices)}

    inflow = np.zeros((n_steps + 1, len(vertex)))
    for leaf, series in flows.items():
        if leaf not in net.accessible:
            raise MismatchedSeriesLength(f"{leaf!r} is not an accessible leaf")
        if len(series) != n_steps + 1:
            raise MismatchedSeriesLength(
                f"series for {leaf!r} has {len(series)} samples, run needs {n_steps + 1}"
            )
        inflow[:, vertex[leaf]] = series

    # cells of all pipes in one array: left node, impedance, Courant ratio
    sizes = np.array([len(g.impedance) for g in grids.values()])
    first_node = np.concatenate([[0], np.cumsum(sizes + 1)])
    lo = np.concatenate([s + np.arange(n) for s, n in zip(first_node, sizes)])
    hi = lo + 1
    B = np.concatenate([g.impedance for g in grids.values()])
    theta = np.repeat([net.wave_speed * dt / g.dx for g in grids.values()], sizes)
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
    inv_B_vertex = np.bincount(end_vertex, 1.0 / B_end, len(vertex))  # sum_e 1/B_e

    # a leaf is the vertex of exactly one pipe end
    end_at = dict(zip(end_vertex.tolist(), end_node.tolist()))
    leaf_node = np.array([end_at[vertex[leaf]] for leaf in net.accessible])

    n_nodes = first_node[-1]
    if fields:
        H = np.zeros((n_steps + 1, n_nodes))
        Q = np.zeros_like(H)
    traces = np.empty((n_steps + 1, len(leaf_node)))
    h = q = np.zeros(n_nodes)  # quiescent state before t = 0
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
        return Histories(t, grids, {}, {}, boundary)
    pipe_nodes = {pid: slice(s, s + n + 1) for pid, s, n in zip(grids, first_node, sizes)}
    H_pipe = {pid: H[:, nodes] for pid, nodes in pipe_nodes.items()}
    Q_pipe = {pid: Q[:, nodes] for pid, nodes in pipe_nodes.items()}
    return Histories(t, grids, H_pipe, Q_pipe, boundary)


def junction_scatter(incident_head, incident: int, admittances):
    """Scatter a head pulse at a junction of pipes with admittances Y = gA/a.

    Returns ``(reflected, transmitted)`` where ``transmitted`` lists the head
    amplitudes entering the other pipes in order (incident pipe skipped).
    The transmission coefficient is 2*Y_incident / sum(Y); reflection is
    that minus one; the implied flows balance exactly.

    Works on floats and exact ``fractions.Fraction`` values alike.
    """
    total = sum(admittances)
    transmission = 2 * admittances[incident] / total
    reflected = (transmission - 1) * incident_head
    transmitted = [
        transmission * incident_head for k in range(len(admittances)) if k != incident
    ]
    return reflected, transmitted


def conservation_residual(hist: Histories, net: Network, tau: float) -> float:
    """Mismatch of injected boundary volume vs stored compliance volume at tau.

    Left side: sum over leaves of the inflow nu*Q integrated over (0, tau)
    (piecewise-constant in time, matching the solver's step structure).
    Right side: integral of H(tau, x) * gA/a^2 over the network, evaluated
    with the per-cell characteristic reconstruction

        H_cell = (H_left + H_right + B*(Q_left - Q_right)) / 2

    taken one step before tau, which is the cell-interior value the exact
    solution holds on the open interval ending at tau. At Courant 1 the
    identity is exact to round-off; below 1 it measures interpolation
    diffusion. It needs the node fields of a run made with ``fields=True``.
    """
    if not hist.H:
        raise ValueError("conservation_residual needs node fields: simulate with fields=True")
    dt = hist.dt
    k_tau = int(round(tau / dt))
    if not 1 <= k_tau <= len(hist.t) - 1:
        raise ValueError(f"tau = {tau} outside the recorded time span")

    inflow = 0.0
    for leaf in net.leaves:
        pipe = net.leaf_pipe(leaf)
        node = 0 if pipe.end_coord(leaf) == 0.0 else -1
        nu = pipe.nu(leaf)
        q = hist.Q[pipe.id][:k_tau, node]
        inflow += nu * float(np.sum(q)) * dt

    stored = 0.0
    a2 = net.wave_speed**2
    for pid, g in hist.grids.items():
        h = hist.H[pid][k_tau - 1]
        q = hist.Q[pid][k_tau - 1]
        cell_h = 0.5 * (h[:-1] + h[1:] + g.impedance * (q[:-1] - q[1:]))
        stored += float(np.sum(net.gravity * g.areas / a2 * cell_h)) * g.dx

    scale = max(abs(inflow), abs(stored), 1e-30)
    return abs(inflow - stored) / scale
