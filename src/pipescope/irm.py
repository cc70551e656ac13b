"""Impulse-response matrix construction and processing.

Two routes produce the same object. The analytic route tracks delta
wavefronts through a network of uniform pipes exactly, with times as
integer ticks of a common rational unit and amplitudes as integers of a
common rational unit, identical fronts merged and counted by
multiplicity: a unit-volume impulse launches a head pulse of amplitude
a/(gA) down the source pipe, junctions split it via the scattering
coefficients, closed leaves reflect it with no sign change, and each
arrival at an accessible leaf records twice the traveling amplitude.
The measured route runs the transient solver with a unit-step inflow
per source leaf and post-processes the head traces: median-smooth,
differentiate, resample.

Neither route keeps the direct impulse a/(A(x_i) g) at t = 0: the
inversion adds it to the control matrix's diagonal from the network, so
no kernel holds a delta to differentiate. On the measured route it is
the a/(gA) step of the source trace, constant on all of t >= 0, so
differentiation removes it with no subtraction.
"""

from __future__ import annotations

import heapq
import json
import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .errors import (
    HorizonTooLarge,
    NonuniformPipeArea,
    OutOfRange,
    WindowTooLarge,
)
from .graph import Network
from .simulate import (Histories, SimConfig, _batch_bytes, _require_memory, _run_size, junction_scatter, simulate_runs,
                       step_inflow)

__all__ = [
    "AnalyticIRM",
    "SampledIRM",
    "oracle_irm",
    "sample_irm",
    "measure_irm",
    "irm_row_from_step_response",
    "median_smooth",
    "differentiate",
    "resample",
    "save_irm",
    "load_irm",
    "grid_size",
]


def grid_size(span: float, dt: float) -> int:
    """Samples on the grid 0, dt, ..., covering ``span`` inclusively.

    The additive fudge keeps spans that are an exact multiple of dt from
    losing their last sample to float division.
    """
    return int(span / dt + 1e-6) + 1


@dataclass(frozen=True)
class AnalyticIRM:
    """Delta trains per (source, receiver) pair over the accessible leaves.

    ``deltas[i, j]`` is a tuple of (arrival time s, weight) with weights in
    head-per-volume units; the t = 0 direct impulse is excluded.
    """

    leaves: tuple[str, ...]
    deltas: dict[tuple[int, int], tuple[tuple[float, float], ...]]
    horizon: float


@dataclass(frozen=True)
class SampledIRM:
    """Uniformly sampled reflection kernels k[i, j]."""

    dt: float
    leaves: tuple[str, ...]
    k: np.ndarray  # shape (N, N, n_samples)
    horizon: float

    @property
    def n_samples(self) -> int:
        return self.k.shape[2]


def oracle_irm(
    net: Network,
    horizon: float,
    prune_eps: float = 1e-4,
    max_events: int = 1_000_000,
) -> AnalyticIRM:
    """Exact impulse-response deltas on a network of uniform pipes.

    Event-driven wavefront tracking in time order. Times are integer
    ticks of 1/D s, D the least common multiple of the exact travel
    times' denominators. Each (vertex, arriving pipe) has one scattering
    rule, built once: the receiver at an accessible leaf and the outgoing
    fronts (coefficient, ticks, next rule), from ``junction_scatter`` at
    a junction. Amplitudes, relative to the source's a/(gA), are integers
    in one common unit den**-depth, den the least common multiple of the
    coefficients' denominators and depth a bound on how often a front
    scatters before the horizon, so every scattering is an exact integer
    multiply and divide. Identical fronts (same tick, rule and amplitude)
    have identical descendants, so each (tick, rule) is queued once with
    its amplitudes and the number of fronts carrying each. Fronts whose
    amplitude falls to ``prune_eps`` times the initial amplitude are
    dropped; the geometric decay of the junction coefficients then bounds
    the event count, with ``max_events`` as a hard guard on the number of
    individual fronts a source processes, merged ones counted one by one.

    Unpruned, the reciprocity k_ij = k_ji holds exactly. Pruning drops
    different fronts from each source where pipe areas differ, so the
    train for source i > j is copied from source j's: reciprocity then
    holds bit-for-bit at any ``prune_eps``.
    """
    if not 0 <= horizon < math.inf or not 0 <= prune_eps < math.inf:
        raise OutOfRange(f"horizon {horizon} and prune_eps {prune_eps} must be finite and >= 0")
    for pipe in net.pipes.values():
        if not pipe.area.is_constant:
            raise NonuniformPipeArea(f"pipe {pipe.id!r} has a nonconstant area profile")

    a = Fraction(net.wave_speed)
    g = Fraction(net.gravity)
    admittance = {pid: g * Fraction(float(p.area(0.0))) / a for pid, p in net.pipes.items()}
    travel = {pid: Fraction(p.length) / a for pid, p in net.pipes.items()}
    scale = math.lcm(*(t.denominator for t in travel.values()))
    ticks = {pid: int(t * scale) for pid, t in travel.items()}
    horizon_ticks = math.floor(Fraction(horizon) * scale)

    n = len(net.accessible)
    leaf_index = {leaf: i for i, leaf in enumerate(net.accessible)}
    ends = {(p.from_vertex, p.id): p.to_vertex for p in net.pipes.values()}
    ends.update({(p.to_vertex, p.id): p.from_vertex for p in net.pipes.values()})
    rule_of = {end: r for r, end in enumerate(ends)}
    rules = []  # per rule: (receiver index or None, [(coefficient, ticks, next rule), ...])
    for vertex, via in ends:
        attached = [p.id for p in net.adjacent_pipes(vertex)]
        if len(attached) == 1:  # closed end: same-sign reflection back along the same pipe
            outs = [(Fraction(1), via)]
        else:
            ys = [admittance[pid] for pid in attached]
            reflected, transmitted = junction_scatter(Fraction(1), attached.index(via), ys)
            outs = [*zip(transmitted, (pid for pid in attached if pid != via)), (reflected, via)]
        fronts = [(coeff, ticks[pid], rule_of[(ends[(vertex, pid)], pid)]) for coeff, pid in outs]
        rules.append((leaf_index.get(vertex), fronts))

    # A front scatters fewer than depth = horizon_ticks // min(ticks) + 1 times before the horizon,
    # so an amplitude N in units of den**-depth stays divisible by den, and for integer N the test
    # |N| > floor(prune_eps * den**depth) is the test |amp| > prune_eps * amp0.
    den = math.lcm(*(coeff.denominator for _, fronts in rules for coeff, _, _ in fronts))
    full = den ** (horizon_ticks // min(ticks.values()) + 1)
    threshold = math.floor(Fraction(prune_eps) * full)
    rules = [(receiver, [(int(coeff * den), t, r) for coeff, t, r in fronts]) for receiver, fronts in rules]

    deltas = {}
    for i, source in enumerate(net.accessible):
        pipe = net.leaf_pipe(source)
        amp0 = a / (g * Fraction(float(net.leaf_area(source))))
        arrivals: list[dict[int, int]] = [{} for _ in range(n)]  # per receiver: tick -> summed N
        heap: list[tuple[int, int]] = []  # (tick, rule) keys, each queued once
        pending: dict[tuple[int, int], dict[int, int]] = {}  # (tick, rule) -> {N: multiplicity}
        if ticks[pipe.id] <= horizon_ticks:
            key = (ticks[pipe.id], rule_of[(ends[(source, pipe.id)], pipe.id)])
            heap.append(key)
            pending[key] = {full: 1}
        events = 0
        while heap:
            t, rule = key = heapq.heappop(heap)
            amps = pending.pop(key)
            events += sum(amps.values())  # the guard counts individual fronts
            if events > max_events:
                raise HorizonTooLarge(f"more than {max_events} wavefront events before {horizon}s")
            receiver, fronts = rules[rule]
            if receiver is not None:
                bucket = arrivals[receiver]
                bucket[t] = bucket.get(t, 0) + sum(amp * count for amp, count in amps.items())
            for coeff, pipe_ticks, next_rule in fronts:
                t_arr = t + pipe_ticks
                if t_arr > horizon_ticks:
                    continue
                next_key = (t_arr, next_rule)
                queued = pending.get(next_key)
                for amp, count in amps.items():
                    amplitude = coeff * amp // den
                    if abs(amplitude) > threshold:
                        if queued is None:
                            queued = pending[next_key] = {}
                            heapq.heappush(heap, next_key)
                        queued[amplitude] = queued.get(amplitude, 0) + count
        for j, bucket in enumerate(arrivals):
            deltas[(i, j)] = tuple(
                (float(Fraction(t, scale)), float(2 * amp0 * Fraction(c, full)))
                for t, c in sorted(bucket.items())
                if c != 0
            )
    for i, j in deltas:
        if i > j:
            deltas[(i, j)] = deltas[(j, i)]
    return AnalyticIRM(net.accessible, deltas, horizon)


def sample_irm(an: AnalyticIRM, dt: float) -> SampledIRM:
    """Bin delta trains onto a uniform grid.

    A delta at t0 becomes one sample of height coefficient/dt at the grid
    point inside [t0 - dt/2, t0 + dt/2); deltas sharing a bin add up.
    """
    if not 0 < dt < math.inf:
        raise OutOfRange(f"dt must be positive and finite, not {dt}")
    n = len(an.leaves)
    n_samples = grid_size(an.horizon, dt)
    k = np.zeros((n, n, n_samples))
    for (i, j), train in an.deltas.items():
        for t0, coeff in train:
            idx = math.ceil(t0 / dt - 0.5)
            if 0 <= idx < n_samples:
                k[i, j, idx] += coeff / dt
    return SampledIRM(dt, an.leaves, k, an.horizon)


def median_smooth(series, window: int):
    """Centered running median along the last axis; the window shrinks near the edges.

    Every full window is taken at once from a sliding-window view; only
    the ``window - 1`` edge samples are computed one by one.
    """
    if window < 1:
        raise WindowTooLarge("window must be at least 1 sample")
    series = np.asarray(series, dtype=float)
    n = series.shape[-1]
    if window > n:
        raise WindowTooLarge(f"window {window} exceeds series length {n}")
    if window == 1:
        return series.copy()
    left = (window - 1) // 2
    right = window // 2
    out = np.empty_like(series)
    out[..., left : n - right] = np.median(np.lib.stride_tricks.sliding_window_view(series, window, axis=-1), axis=-1)
    for i in (*range(left), *range(n - right, n)):
        out[..., i] = np.median(series[..., max(0, i - left) : i + right + 1], axis=-1)
    return out


def differentiate(series, t):
    """Central differences inside, one-sided at the ends, along the last axis."""
    series = np.asarray(series, dtype=float)
    t = np.asarray(t, dtype=float)
    return np.gradient(series, t[1] - t[0], axis=-1)


def resample(series, t_old, t_new):
    """Linear interpolation onto a new grid inside the old one's span."""
    t_old = np.asarray(t_old, dtype=float)
    t_new = np.asarray(t_new, dtype=float)
    tol = 1e-9 * max(1.0, abs(float(t_old[-1])))
    if t_new[0] < t_old[0] - tol or t_new[-1] > t_old[-1] + tol:
        raise OutOfRange(
            f"target grid [{t_new[0]}, {t_new[-1]}] outside source span [{t_old[0]}, {t_old[-1]}]"
        )
    return np.interp(t_new, t_old, np.asarray(series, dtype=float))


def _require_two_samples(n: int):
    if n < 2:
        raise OutOfRange(f"a step response needs two or more time samples, not {n}: the run is shorter than one time step")


def _window(smooth_window_s: float, dt: float) -> int:
    """Samples of a smoothing window of ``smooth_window_s`` seconds at step dt, floored, at least 1."""
    if not 0 <= smooth_window_s < math.inf:
        raise OutOfRange(f"smoothing window must be finite and >= 0, not {smooth_window_s}")
    return max(1, int(smooth_window_s / dt))


def irm_row_from_step_response(
    t, traces: dict[str, np.ndarray], smooth_window_s: float = 0.02
) -> dict[str, np.ndarray]:
    """Turn one source's unit-step head traces, keyed by leaf, into one row of reflection kernels.

    The traces are median-smoothed together (window given in seconds,
    floored to samples) and differentiated in time. Output stays on the
    simulation grid t.
    """
    _require_two_samples(len(t))
    window = _window(smooth_window_s, float(t[1] - t[0]))
    kernels = differentiate(median_smooth(np.array(list(traces.values()), dtype=float), window), t)
    return dict(zip(traces, kernels))


def measure_irm(
    net: Network,
    cfg: SimConfig,
    resample_dt: float | None = None,
    smooth_window_s: float = 0.02,
    fields: bool = False,
) -> tuple[SampledIRM, list[Histories]]:
    """Simulate step responses for every source leaf and assemble the IRM.

    One forward run per accessible leaf (unit step there, all other ends
    closed), all stepped together, the processing pipeline per source row,
    then an optional resampling to a coarser grid. Returns the IRM and the
    raw histories, which hold node fields only if ``fields`` asks for them.
    """
    if resample_dt is not None and not 0 < resample_dt < math.inf:
        raise OutOfRange(f"resampling dt must be positive and finite, not {resample_dt}")
    n = len(net.accessible)
    # every run samples t = 0, dt, ..., n_steps*dt: under one step, or too large a kernel grid, is refused before any run
    cells, dt, n_steps = _run_size(net, cfg)
    _require_two_samples(n_steps + 1)
    window = _window(smooth_window_s, dt)
    dt_out = dt if resample_dt is None else resample_dt
    try:
        n_out = n_steps + 1 if resample_dt is None else grid_size(n_steps * dt, dt_out)
        # refused past physical memory before any is made: the batch's arrays, and N times a step series, a kernel
        # row, and per leaf one source's smoothing: the median's window copy, (n_steps + 2 - w) x w, and 4 series
        samples = 5 * (n_steps + 1) + n * n_out + max(n_steps + 2 - window, 0) * window
        size = f"{n} runs of {sum(cells)} cells and {n_steps} time steps, and {n * n * n_out} kernel samples,"
        _require_memory(size, 8 * n * samples + _batch_bytes(net, cells, n_steps, n, fields))
        t_out = np.arange(n_out) * dt_out
        k = np.zeros((n, n, n_out))
    except (MemoryError, ValueError, OverflowError) as exc:  # a sample count numpy cannot allocate or represent
        raise OutOfRange(
            f"a kernel grid of step {dt_out} over {n_steps * dt:g} s gives more kernel samples than fit in memory: {exc}"
        ) from exc

    runs = simulate_runs(net, [step_inflow(net, cfg, source) for source in net.accessible], cfg, fields=fields)
    for i, hist in enumerate(runs):
        row = irm_row_from_step_response(hist.t, hist.boundary, smooth_window_s)
        for j, receiver in enumerate(net.accessible):
            k[i, j] = row[receiver] if resample_dt is None else resample(row[receiver], hist.t, t_out)
    return SampledIRM(dt_out, net.accessible, k, float(t_out[-1])), runs


# -- persistence --------------------------------------------------------------


_ROW_BLOCK = 1024  # IRM file rows parsed at once; bounds a block's field strings and its expected i, j, t fields


def save_irm(irm: SampledIRM, path) -> None:
    """Write the IRM file: one JSON header line, then CSV rows i,j,t,k.

    Rows go in i, then j, then sample order, each value as its float repr.
    A kernel is one join over a token list whose t and newline slots are
    filled once, its i,j slots once a kernel, and its value slots from the
    repr of the kernel's ``tolist()`` row, which formats each float as
    ``repr`` does: no Python code runs per row.
    """
    n, n_samples = len(irm.leaves), irm.n_samples
    tokens = [None, None, None, "\n"] * n_samples  # per row: "i,j,", "t,", value, newline
    tokens[1::4] = [f"{s * irm.dt!r}," for s in range(n_samples)]
    k = np.asarray(irm.k, dtype=float).tolist()
    with open(path, "w") as fh:
        fh.write(json.dumps({"dt": irm.dt, "n": n_samples, "leaves": list(irm.leaves), "horizon": irm.horizon}))
        fh.write("\ni,j,t,k\n")
        if not n_samples:  # the repr of an empty row would split into one empty value
            return
        for i in range(n):
            for j in range(n):
                tokens[0::4] = [f"{i},{j},"] * n_samples
                tokens[2::4] = repr(k[i][j])[1:-1].split(", ")
                fh.write("".join(tokens))


def _saved_fields(start, count, labels, times):
    """The i, j and t fields ``save_irm`` writes on rows start .. start + count - 1.

    ``labels`` holds ``str(i)`` for each leaf index and ``times`` the
    repr of each sample time. Row r is sample r % n_samples of kernel
    q = r // n_samples, which is (i, j) = (q // N, q % N).
    """
    n_samples, n = len(times), len(labels)
    i_fields, j_fields, t_fields = [], [], []
    for kernel in range(start // n_samples, (start + count - 1) // n_samples + 1):
        first = max(start - kernel * n_samples, 0)
        last = min(start + count - kernel * n_samples, n_samples)
        i_fields += [labels[kernel // n]] * (last - first)
        j_fields += [labels[kernel % n]] * (last - first)
        t_fields += times[first:last]
    return i_fields, j_fields, t_fields


def load_irm(path) -> SampledIRM:
    """Read an IRM file written by ``save_irm``.

    The header's ``leaves`` must be a non-empty list of strings, ``n`` a
    JSON integer >= 0 and ``horizon`` finite and >= 0, and every kernel
    sample of its N x N x n grid must appear in exactly one row with a
    finite value; anything else raises OutOfRange. Other header keys, such
    as the ``direct`` coefficients older files carry, are ignored.

    Rows are read a block at a time with one split. A block whose i, j and
    t fields are the strings ``save_irm`` writes on its rows parses only
    its k column and lands by slice; any other block, with rows in another
    order or spelled another way, parses all four columns and scatters
    its rows, under the same rules.
    """
    with open(path) as fh:
        try:
            header_line, columns = fh.readline(), fh.readline()
            rows = [row for row in map(str.strip, fh) if row]
        except UnicodeDecodeError as exc:
            raise OutOfRange(f"{path}: not a text file: {exc}") from exc
    try:
        header = json.loads(header_line)
        leaves, n_samples = header["leaves"], header["n"]
        dt = float(header["dt"])
        horizon = float(header["horizon"])
    except (ValueError, KeyError, TypeError, OverflowError, RecursionError) as exc:
        raise OutOfRange(f"{path}: unreadable IRM header: {exc}") from exc
    if not (isinstance(leaves, list) and all(isinstance(leaf, str) for leaf in leaves)):
        raise OutOfRange(f"{path}: header leaves {leaves!r} is not a list of strings")
    if type(n_samples) is not int or n_samples < 0:
        raise OutOfRange(f"{path}: header n = {n_samples!r} is not an integer, or is negative")
    if not leaves:  # with a leaf, the row count below bounds n before the N x N x n grid is allocated
        raise OutOfRange(f"{path}: header lists no leaves, so no kernel row bounds its n = {n_samples}")
    if not (0 < dt < math.inf and 0 <= horizon < math.inf):  # the reconstruction takes its step from dt
        raise OutOfRange(f"{path}: header dt = {dt} must be positive and horizon = {horizon} >= 0, both finite")
    if columns.strip() != "i,j,t,k":
        raise OutOfRange(f"{path}: missing i,j,t,k column header")
    n = len(leaves)
    if len(rows) != n * n * n_samples:  # checked before the header's shape is allocated
        raise OutOfRange(f"{path}: {len(rows)} kernel rows, the header's shape needs {n}*{n}*{n_samples}")
    k = np.full((n, n, n_samples), np.nan)  # NaN marks a sample no row has set
    flat = k.reshape(-1)  # a view: row r of a file in save_irm's order holds flat sample r
    labels, times = [str(i) for i in range(n)], [repr(s * dt) for s in range(n_samples)]
    for start in range(0, len(rows), _ROW_BLOCK):
        block = rows[start : start + _ROW_BLOCK]
        # a "\n" field between rows, which no stripped row holds, lands every fifth place only if each row has four
        fields = ",\n,".join(block).split(",")
        if fields[4::5].count("\n") != len(block) - 1 or len(fields) != 5 * len(block) - 1:
            row = next(row for row in block if row.count(",") != 3)
            raise OutOfRange(f"{path}: unreadable kernel row {row!r}: it needs four fields")
        ijt = fields[0::5], fields[1::5], fields[2::5]
        try:
            values = np.array(fields[3::5], dtype=float)
            if ijt == _saved_fields(start, len(block), labels, times):
                flat[start : start + len(block)] = values  # where the scatter below would put each row
                continue
            i, j = (np.array(column, dtype=np.int64) for column in ijt[:2])
            t = np.array(ijt[2], dtype=float)
        except (ValueError, OverflowError) as exc:
            raise OutOfRange(f"{path}: unreadable kernel row: {exc}") from exc
        with np.errstate(over="ignore"):
            idx = np.rint(t / dt)
        # written as "inside" so that a NaN or infinite time counts as outside too
        outside = np.flatnonzero(~((0 <= i) & (i < n) & (0 <= j) & (j < n) & (0 <= idx) & (idx < n_samples)))
        if outside.size:
            raise OutOfRange(f"{path}: row {block[outside[0]]!r} lies outside the header's {n}x{n}x{n_samples} grid")
        k[i, j, idx.astype(np.int64)] = values
    bad = np.count_nonzero(~np.isfinite(k))
    if bad:
        raise OutOfRange(f"{path}: {bad} kernel sample(s) not finite, or unset because of duplicate rows")
    return SampledIRM(dt, tuple(leaves), k, horizon)
