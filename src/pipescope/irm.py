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
per source leaf and takes each head trace's time derivative as one hat
average on the output grid: the second difference of the trace's running
integral (``measure_irm``), a linear step with no smoothing.

Neither route keeps the direct impulse a/(A(x_i) g) at t = 0: the
inversion adds it to the control matrix's diagonal from the network, so
no kernel holds a delta to differentiate. On the measured route it is
the a/(gA) step of the source trace at t = 0, which subtracting each
trace's first sample removes.
"""

from __future__ import annotations

import contextlib
import heapq
import json
import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .errors import ConfigError, NumericError, _allocating
from .graph import Network, _number
from .simulate import (Histories, SimConfig, _batch_bytes, _run_size, grid_size, junction_scatter, simulate_runs,
                       step_inflow)

__all__ = [
    "AnalyticIRM",
    "SampledIRM",
    "oracle_irm",
    "sample_irm",
    "measure_irm",
    "save_irm",
    "load_irm",
]


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
    """Exact impulse-response deltas on a network of uniform pipes, each one area on [0, length], else ConfigError.

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
    different fronts from each source where pipe areas differ, so there
    the trains of (i, j) and (j, i) may differ by pruned fronts; the
    inversion averages the two kernels.
    """
    if not 0 <= horizon < math.inf or not 0 <= prune_eps < math.inf:
        raise ConfigError(f"horizon {horizon} and prune_eps {prune_eps} must be finite and >= 0")
    a = Fraction(net.wave_speed)
    g = Fraction(net.gravity)
    admittance = {}
    for pid, p in net.pipes.items():
        least, greatest = p.area.extremes(p.length)
        if least != greatest:
            raise ConfigError(f"pipe {pid!r} has a nonconstant area profile")
        admittance[pid] = g * Fraction(least) / a
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

    # A front scatters fewer than depth = horizon_ticks // min(ticks) + 1 times before the horizon, and
    # fewer than max_events + 1 times before the guard trips, since each scattering of its line is an event
    # the guard counts. So an amplitude N in units of den**-depth stays divisible by den, and for integer N
    # the test |N| > floor(prune_eps * den**depth) is the test |amp| > prune_eps * amp0.
    den = math.lcm(*(coeff.denominator for _, fronts in rules for coeff, _, _ in fronts))
    full = den ** min(horizon_ticks // min(ticks.values()) + 1, max_events + 1)
    threshold = math.floor(Fraction(prune_eps) * full)
    rules = [(receiver, [(int(coeff * den), t, r) for coeff, t, r in fronts]) for receiver, fronts in rules]

    deltas = {}
    for i, source in enumerate(net.accessible):
        pipe = net.leaf_pipe(source)
        amp0 = a / (g * Fraction(float(net.leaf_area(source))))
        w_num, w_den = 2 * amp0.numerator, amp0.denominator * full  # weight 2 * amp0 * c / full = w_num * c / w_den
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
                raise NumericError(f"more than {max_events} wavefront events before {horizon}s")
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
            deltas[(i, j)] = tuple((t / scale, w_num * c / w_den) for t, c in sorted(bucket.items()) if c != 0)
    return AnalyticIRM(net.accessible, deltas, horizon)


def sample_irm(an: AnalyticIRM, dt: float) -> SampledIRM:
    """Bin delta trains onto a uniform grid.

    A delta at t0 becomes one sample of height coefficient/dt at the grid
    point inside [t0 - dt/2, t0 + dt/2); deltas sharing a bin add up.
    """
    if not 0 < dt < math.inf:
        raise ConfigError(f"dt must be positive and finite, not {dt}")
    n = len(an.leaves)
    with _allocating(f"a grid of kernel samples {dt} s apart over {an.horizon:g} s"):  # its count may overflow
        n_samples = grid_size(an.horizon, dt)
    with _allocating(f"{n * n * n_samples} kernel samples,", 8 * n * n * n_samples):
        k = np.zeros((n, n, n_samples))
    for (i, j), train in an.deltas.items():
        for t0, coeff in train:
            idx = math.ceil(t0 / dt - 0.5)
            if 0 <= idx < n_samples:
                k[i, j, idx] += coeff / dt
    return SampledIRM(dt, an.leaves, k, an.horizon)


def measure_irm(
    net: Network,
    cfg: SimConfig,
    resample_dt: float = 0.0,
    fields: bool = False,
) -> tuple[SampledIRM, list[Histories]]:
    """Simulate step responses for every source leaf and assemble the IRM.

    One forward run per accessible leaf (unit step there, all other ends
    closed), all stepped together. A source's kernel row is the hat average
    of its leaf traces' time derivative: with g = H - H(0) and R the running
    trapezoid integral of g, R = 0 for t <= 0,

        k(t_l) = [R(t_l + dt_out) - 2 R(t_l) + R(t_l - dt_out)] / dt_out**2,  t_l = l dt_out,

    R read with ``np.interp``; dt_out is ``resample_dt``, or the run's own
    dt where that is 0, and then this is ``np.gradient``'s central
    difference in the interior. The grid covers the run less one dt_out,
    since its last sample takes R one dt_out past it. Returns the IRM and
    the raw histories, with node fields only if ``fields`` asks.
    """
    if not 0 <= resample_dt < math.inf:
        raise ConfigError(f"resampling dt must be positive and finite, not {resample_dt}")
    n = len(net.accessible)
    # every run samples t = 0, dt, ..., n_steps*dt: under one step, a longer output step or too large a grid is refused
    cells, dt, n_steps = _run_size(net, cfg)
    if n_steps < 1:
        raise ConfigError(
            f"a step response needs two or more time samples, not {n_steps + 1}: the run is under one step")
    dt_out = resample_dt or dt
    with _allocating(f"a grid of kernel samples {dt_out} s apart over {n_steps * dt:g} s"):  # its count may overflow
        n_out = grid_size(n_steps * dt, dt_out) - 1  # so every sample's right hat neighbour lies in the run
    if n_out < 1:
        raise ConfigError(f"resampling dt {dt_out} s is longer than the {n_steps * dt:g} s run: no kernel sample fits")
    # refused past physical memory before any is made: the batch's arrays, and N times a step series, a kernel row,
    # and per leaf of one source its g and R series and three rows: R on the grid and its two differences
    samples = 3 * (n_steps + 1) + (n + 3) * n_out
    with _allocating(f"{n} runs of {sum(cells)} cells and {n_steps} time steps, and {n * n * n_out} kernel samples,",
                     8 * n * samples + _batch_bytes(net, cells, n_steps, n, fields)):
        t_hat = np.arange(-1, n_out + 1) * dt_out  # the grid with one hat neighbour either side
        k = np.zeros((n, n, n_out))

    runs = simulate_runs(net, [step_inflow(net, cfg, source) for source in net.accessible], cfg, fields=fields)
    for i, hist in enumerate(runs):
        g = np.array([hist.boundary[leaf] for leaf in net.accessible])
        g -= g[:, :1]
        r = np.cumsum(g, axis=-1)  # in place from here: R_m = dt (g_1 + ... + g_{m-1} + g_m / 2), as g_0 = 0
        g *= 0.5
        r -= g
        r *= dt
        for j, trace in enumerate(r):
            k[i, j] = np.diff(np.interp(t_hat, hist.t, trace), 2) / dt_out**2
    return SampledIRM(dt_out, net.accessible, k, float(t_hat[-2])), runs


# -- persistence --------------------------------------------------------------


_CHUNK = 1 << 15  # IRM file characters parsed at once, cut at a newline: bounds a chunk's field strings


def save_irm(irm: SampledIRM, path) -> None:
    """Write the IRM file: one JSON header line, then CSV rows i,j,t,k.

    Rows go in i, then j, then sample order, each value as its float repr.
    A kernel is one join over a token list whose t and newline slots are
    filled once, its i,j slots once a kernel, and its value slots from the
    repr of the kernel's ``tolist()`` row, which formats each float as
    ``repr`` does: no Python code runs per row. One kernel at a time is a
    list of Python floats, never the whole IRM.
    """
    n, n_samples = len(irm.leaves), irm.n_samples
    tokens = [None, None, None, "\n"] * n_samples  # per row: "i,j,", "t,", value, newline
    tokens[1::4] = [f"{s * irm.dt!r}," for s in range(n_samples)]
    k = np.asarray(irm.k, dtype=float)
    with open(path, "w") as fh:
        fh.write(json.dumps({"dt": irm.dt, "n": n_samples, "leaves": list(irm.leaves), "horizon": irm.horizon}))
        fh.write("\ni,j,t,k\n")
        if not n_samples:  # the repr of an empty row would split into one empty value
            return
        for i in range(n):
            for j in range(n):
                tokens[0::4] = [f"{i},{j},"] * n_samples
                tokens[2::4] = repr(k[i, j].tolist())[1:-1].split(", ")
                fh.write("".join(tokens))


def _saved_fields(start, count, labels, times):
    """The i, j and t fields ``save_irm`` writes on rows start .. start + count - 1.

    ``labels`` holds ``str(i)`` for each leaf index and ``times`` the repr of each
    sample time. Row r is sample r % n_samples of kernel (i, j) = divmod(r // n_samples, N).
    """
    n_samples, n = len(times), len(labels)
    i_fields, j_fields, t_fields = [], [], []
    for kernel in range(start // n_samples, (start + count - 1) // n_samples + 1):
        first, last = max(start - kernel * n_samples, 0), min(start + count - kernel * n_samples, n_samples)
        i_fields += [labels[kernel // n]] * (last - first)
        j_fields += [labels[kernel % n]] * (last - first)
        t_fields += times[first:last]
    return i_fields, j_fields, t_fields


def load_irm(path) -> SampledIRM:
    """Read an IRM file written by ``save_irm``.

    The header's ``leaves`` must be a non-empty list of strings, ``n`` a
    JSON integer >= 0, ``dt`` a positive and ``horizon`` a JSON number
    >= 0, both finite, and every kernel sample of its N x N x n grid must
    appear in exactly one row with a finite value; anything else raises
    ConfigError. Other header keys, such as the ``direct`` coefficients
    older files carry, are ignored.

    Rows are read as one text in chunks of about ``_CHUNK`` characters, each
    cut at a newline and split once. A chunk whose i, j and t fields read as
    ``save_irm`` writes them parses only its k column and lands by slice; any
    other chunk strips its rows, parses all four columns and scatters them.
    """
    try:
        with open(path) as fh:
            header_line, columns, body = fh.readline(), fh.readline(), fh.read()
        header = json.loads(header_line)
        leaves, n_samples = header["leaves"], header["n"]
        dt, horizon = _number(header["dt"]), _number(header["horizon"])
    except UnicodeDecodeError as exc:
        raise ConfigError(f"{path}: not a text file: {exc}") from exc
    except (ValueError, KeyError, TypeError, OverflowError, RecursionError) as exc:
        raise ConfigError(f"{path}: unreadable IRM header: {exc}") from exc
    if not (isinstance(leaves, list) and all(isinstance(leaf, str) for leaf in leaves)):
        raise ConfigError(f"{path}: header leaves {leaves!r} is not a list of strings")
    if type(n_samples) is not int or n_samples < 0:
        raise ConfigError(f"{path}: header n = {n_samples!r} is not an integer, or is negative")
    if not leaves:  # with a leaf, the line count below bounds n before the N x N x n grid is allocated
        raise ConfigError(f"{path}: header lists no leaves, so no kernel row bounds its n = {n_samples}")
    if not (0 < dt < math.inf and 0 <= horizon < math.inf):  # the reconstruction takes its step from dt
        raise ConfigError(f"{path}: header dt = {dt} must be positive and horizon = {horizon} >= 0, both finite")
    if columns.strip() != "i,j,t,k":
        raise ConfigError(f"{path}: missing i,j,t,k column header")
    n, lines = len(leaves), body.count("\n") + 1
    if n * n * n_samples > lines:  # checked before the header's shape is allocated, the exact row count at the end
        raise ConfigError(f"{path}: at most {lines} kernel rows, the header's shape needs {n}*{n}*{n_samples}")
    k = np.full((n, n, n_samples), np.nan)  # NaN marks a sample no row has set
    flat = k.reshape(-1)  # a view: row r of a file in save_irm's order holds flat sample r
    labels, times = [str(i) for i in range(n)], [repr(s * dt) for s in range(n_samples)]
    count = start = 0  # rows read so far, and where the next chunk starts
    while start < len(body):
        end = body.find("\n", start + _CHUNK) + 1 or len(body)  # just past a newline, or the end of the text
        chunk, start = body[start:end].rstrip("\n"), end  # blank lines at its end hold no row
        fields = chunk.replace("\n", ",\n,").split(",")  # a "\n" field every fifth place if each line has four
        m = len(fields) // 5 + 1
        if (len(fields) == 5 * m - 1 and fields[4::5].count("\n") == m - 1 and count + m <= flat.size
                and (fields[0::5], fields[1::5], fields[2::5]) == _saved_fields(count, m, labels, times)):
            with contextlib.suppress(ValueError):  # a k field may end in \x1c to \x1f: float() refuses, strip removes
                flat[count : count + m] = np.array(fields[3::5], dtype=float)  # where the scatter would put each row
                count += m
                continue
        rows = [row for row in map(str.strip, chunk.split("\n")) if row]
        count += len(rows)
        if not rows:
            continue
        fields = ",\n,".join(rows).split(",")
        if fields[4::5].count("\n") != len(rows) - 1 or len(fields) != 5 * len(rows) - 1:
            row = next(row for row in rows if row.count(",") != 3)
            raise ConfigError(f"{path}: unreadable kernel row {row!r}: it needs four fields")
        try:
            i, j, t, values = (np.array(fields[c::5], dtype=np.int64 if c < 2 else float) for c in range(4))
        except (ValueError, OverflowError) as exc:
            raise ConfigError(f"{path}: unreadable kernel row: {exc}") from exc
        with np.errstate(over="ignore"):
            idx = np.rint(t / dt)
        # written as "inside" so that a NaN or infinite time counts as outside too
        outside = np.flatnonzero(~((0 <= i) & (i < n) & (0 <= j) & (j < n) & (0 <= idx) & (idx < n_samples)))
        if outside.size:
            raise ConfigError(f"{path}: row {rows[outside[0]]!r} lies outside the header's {n}x{n}x{n_samples} grid")
        k[i, j, idx.astype(np.int64)] = values
    if count != flat.size:
        raise ConfigError(f"{path}: {count} kernel rows, the header's shape needs {n}*{n}*{n_samples}")
    bad = np.count_nonzero(~np.isfinite(k))
    if bad:
        raise ConfigError(f"{path}: {bad} kernel sample(s) not finite, or unset because of duplicate rows")
    return SampledIRM(dt, tuple(leaves), k, horizon)
