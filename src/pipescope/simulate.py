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

The step needs no gather over cells. A batch's runs (one per source
leaf, say) lie end to end on one node axis, and every gap between
consecutive nodes is a cell: a pipe's own, or between two pipes or two
runs a dummy cell with B = 1. Each node carries its pipe's Courant ratio
theta. One product weighs every node's H and Q by theta and by 1 - theta,
and one sum of two shifted views of that gives each cell's foot values:
theta at its left node plus 1 - theta at its right for C+, the other way
round for C-. A real cell's nodes share a pipe, so these are the floats
of a run alone. The interior rule then updates every node but the first
and last by slices. A dummy cell's values reach only the pipe-end nodes
beside it, which the vertex rule overwrites in the same step by 1-D take,
bincount and put over all runs. That rule leaves the vertex heads in the
step's inflow row, where the leaf traces are read after the last step.
Buffers are made once per batch; only the per-vertex sums are new.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, _allocating
from .graph import Network

__all__ = [
    "SimConfig",
    "Histories",
    "simulate_runs",
    "step_inflow",
    "junction_scatter",
    "conservation_residual",
    "grid_size",
]


@dataclass(frozen=True)
class SimConfig:
    """Spatial cell size (m), Courant number in (0, 1], duration (s)."""

    dx: float
    duration: float
    courant: float = 1.0

    def __post_init__(self):
        if not 0.0 < self.courant <= 1.0:
            raise ConfigError(f"courant = {self.courant} outside (0, 1]")
        if not (0 < self.dx < math.inf and 0 <= self.duration < math.inf):
            raise ConfigError(f"dx {self.dx} must be positive and duration {self.duration} >= 0, both finite")


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
    dt: float  # the run's time step, kept also where t has a single sample
    grids: dict[str, _PipeGrid]
    H: dict[str, np.ndarray]   # shape (n_times, n_nodes)
    Q: dict[str, np.ndarray]
    boundary: dict[str, np.ndarray]  # accessible leaf -> H(t, leaf)


def step_inflow(net: Network, cfg: SimConfig, leaf: str) -> dict[str, np.ndarray]:
    """Ideal unit step: value 1 from t = 0 on, at one leaf."""
    cells, _, n_steps = _run_size(net, cfg)
    with _allocating(f"a run of {sum(cells)} cells and {n_steps} time steps", 8 * (n_steps + 1)):
        return {leaf: np.ones(n_steps + 1)}


def grid_size(span: float, dt: float) -> int:
    """Samples on the grid 0, dt, ..., covering ``span`` inclusively.

    The additive fudge keeps spans that are an exact multiple of dt from
    losing their last sample to float division.
    """
    return int(span / dt + 1e-6) + 1


def _run_size(net: Network, cfg: SimConfig) -> tuple[list[int], float, int]:
    """Cells per pipe (in pipe order), time step and step count of a run.

    The smallest cell sets the time step. A dx or Courant number so small
    that a count is not finite, or the time step is 0, raises ConfigError.
    """
    try:
        cells = [max(1, round(p.length / cfg.dx)) for p in net.pipes.values()]
        min_dx = min(p.length / n for p, n in zip(net.pipes.values(), cells))
        dt = cfg.courant * min_dx / net.wave_speed
        return cells, dt, grid_size(cfg.duration, dt) - 1
    except (OverflowError, ZeroDivisionError) as exc:
        raise ConfigError(f"dx {cfg.dx} and courant {cfg.courant} give no finite cell or step count: {exc}") from exc


def _batch_bytes(net: Network, cells: list[int], n_steps: int, n_runs: int, fields: bool) -> int:
    """Bytes of a batch: per step, its time and per run the vertex inflow, leaf traces and, with ``fields``, H and Q
    of every node; per node of every run, the state, weighted, foot, theta and weights, B and what is made from it,
    with temporaries (20 values); per pipe end, its indices and impedances (12 values); the pipe grids (4 per node)."""
    n_nodes = sum(cells) + len(cells)
    per_run = len(net.vertices) + len(net.accessible) + (2 * n_nodes if fields else 0)
    return 8 * ((n_steps + 1) * (n_runs * per_run + 1) + n_runs * (20 * n_nodes + 24 * len(cells)) + 4 * n_nodes)


def _pipe_grids(net: Network, cells: list[int]) -> dict[str, _PipeGrid]:
    grids = {}
    for (pid, pipe), n in zip(net.pipes.items(), cells):
        x = np.linspace(0.0, pipe.length, n + 1)
        centers = (x[:-1] + x[1:]) / 2
        areas = np.asarray(pipe.area(centers), dtype=float)
        impedance = net.wave_speed / (net.gravity * areas)
        grids[pid] = _PipeGrid(x, pipe.length / n, areas, impedance)
    return grids


def simulate_runs(net: Network, runs: list[dict[str, np.ndarray]], cfg: SimConfig,
                  fields: bool = True) -> list[Histories]:
    """Run the transient solver on every flow dict of ``runs`` at once, laid end to end; one Histories per run.

    A flow dict maps accessible leaves to their inflow nu*Q, one sample per time step from t = 0; leaves without one
    are closed. Each Histories holds every accessible leaf's head trace and, with ``fields``, every node's H and Q,
    bit for bit that run alone's. A batch past physical memory, or one it cannot allocate, raises ConfigError.
    """
    cells, dt, n_steps = _run_size(net, cfg)
    if not runs:
        return []
    vertex = {v: i for i, v in enumerate(net.vertices)}
    n_runs, n_vertices, n_nodes = len(runs), len(vertex), sum(cells) + len(cells)
    with _allocating(f"a run of {sum(cells)} cells and {n_steps} time steps",
                     _batch_bytes(net, cells, n_steps, n_runs, fields)):
        grids = _pipe_grids(net, cells)
        inflow = np.zeros((n_steps + 1, n_runs, n_vertices))  # per step, vertex inflow; the step leaves heads there
        if fields:  # per step, the state: H then Q, each per node of every run
            HQ = np.empty((n_steps + 1, 2, n_runs * n_nodes))

    for r, flows in enumerate(runs):
        for leaf, series in flows.items():
            if leaf not in net.accessible:
                raise ConfigError(f"{leaf!r} is not an accessible leaf")
            if len(series) != n_steps + 1:
                raise ConfigError(f"series for {leaf!r} has {len(series)} samples, run needs {n_steps + 1}")
            inflow[:, r, vertex[leaf]] = series

    # per node, its pipe's Courant ratio and 1 minus it; per cell, a pipe's own or a dummy (module docstring), B
    batch = list(grids.values()) * n_runs  # the pipes of every run, end to end
    theta = np.repeat([net.wave_speed * dt / g.dx for g in batch], [len(g.x) for g in batch])
    weights = np.stack([theta, 1 - theta])
    B = np.concatenate([np.append(g.impedance, 1.0) for g in batch])[:-1]
    B_signed = np.stack([B, -B])  # C+ adds B times the foot's Q, C- subtracts it
    B_left, B_sum = B[:-1], B[:-1] + B[1:]  # per node but the first and last: its left cell's B, and both cells' B

    # pipe ends in batch order, the x = 0 end first: node, index into [C+; C-], vertex in its run's block, nu * B
    n_cells = n_runs * n_nodes - 1
    first_node = np.cumsum([0, *(len(g.x) for g in batch)])
    end_node = np.column_stack([first_node[:-1], first_node[1:] - 1]).ravel()
    end_c = np.column_stack([n_cells + first_node[:-1], first_node[1:] - 2]).ravel()  # C- of first cell, C+ of last
    end_hq = np.concatenate([end_node, n_runs * n_nodes + end_node])  # the end nodes' H, then their Q
    end_vertex = np.array([r * n_vertices + vertex[v] for r in range(n_runs)
                           for p in net.pipes.values() for v in (p.from_vertex, p.to_vertex)])
    B_end = np.concatenate([g.impedance[[0, -1]] for g in batch])
    nu_B = np.tile([1.0, -1.0], len(batch)) * B_end  # exact: (h - c) / (nu * B) == nu * (h - c) / B for nu = +-1
    inv_B_vertex = np.bincount(end_vertex, 1.0 / B_end, n_runs * n_vertices)  # sum_e 1/B_e

    hq = np.zeros((2, n_runs * n_nodes))  # quiescent state before t = 0
    weighted = np.empty((2, 2, n_runs * n_nodes))  # per H/Q, theta times the state, then 1 - theta times it
    foot = np.empty((2, 2, n_cells))  # per H/Q, family (C+, C-) and cell, the value at the foot
    C, foot_q = foot  # after each carry, C holds [C+; C-]
    h_in, q_in = hq[:, 1:-1]
    cp_left, cm_right = C[0, :-1], C[1, 1:]  # per node but the first and last: C+ of its left cell, C- of its right
    c_end, hq_end = np.empty(len(end_node)), np.empty(2 * len(end_node))
    h_end, q_end = hq_end[:len(end_node)], hq_end[len(end_node):]
    # a cell's C+ foot weighs its left node theta and its right node 1 - theta, its C- foot the other way round
    state, left, right = hq[:, None], weighted[:, :, :-1], weighted[:, ::-1, 1:]

    C_flat, hq_flat = C.reshape(-1), hq.reshape(-1)
    for step, h_v in enumerate(inflow.reshape(n_steps + 1, -1)):
        # the foot H and Q of every cell and family, then C = foot H + [B; -B] * foot Q
        np.multiply(weights, state, out=weighted)
        np.add(left, right, out=foot)
        np.add(C, np.multiply(B_signed, foot_q, out=foot_q), out=C)
        np.divide(np.subtract(cp_left, cm_right, out=q_in), B_sum, out=q_in)
        np.subtract(cp_left, np.multiply(B_left, q_in, out=h_in), out=h_in)
        C_flat.take(end_c, out=c_end)
        np.add(np.bincount(end_vertex, np.divide(c_end, B_end, out=q_end), len(h_v)), h_v, out=h_v)
        h_v /= inv_B_vertex
        h_v.take(end_vertex, out=h_end)
        np.divide(np.subtract(h_end, c_end, out=q_end), nu_B, out=q_end)
        hq_flat.put(end_hq, hq_end)
        if fields:
            HQ[step] = hq

    t = np.arange(n_steps + 1) * dt
    traces = inflow.take([vertex[leaf] for leaf in net.accessible], axis=2)  # a leaf's head is its vertex's
    hists = []
    for r in range(n_runs):
        nodes = {pid: slice(r * n_nodes + s, r * n_nodes + s + n + 1) for pid, s, n in zip(grids, first_node, cells)}
        H, Q = ({pid: HQ[:, v, s] for pid, s in nodes.items()} if fields else {} for v in (0, 1))
        hists.append(Histories(t, dt, grids, H, Q, {leaf: traces[:, r, k] for k, leaf in enumerate(net.accessible)}))
    return hists


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
        raise ValueError("conservation_residual needs node fields: run with fields=True")
    dt = hist.dt
    k_tau = int(round(tau / dt))
    if not 1 <= k_tau <= len(hist.t) - 1:
        raise ValueError(f"tau = {tau} outside the recorded time span")

    inflow = 0.0
    for leaf in net.leaves:
        nu = net.leaf_nu(leaf)
        q = hist.Q[net.leaf_pipe(leaf).id][:k_tau, 0 if nu == 1 else -1]
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
