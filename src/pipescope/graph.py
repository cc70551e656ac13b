"""Tree-network data model: topology, validation, action times.

A network is a finite tree of pipes. Each pipe carries its own coordinate
``x`` running from ``from_vertex`` (x = 0) to ``to_vertex`` (x = length),
a positive cross-sectional area profile ``A(x)``, and the internal normal
``nu(0) = +1``, ``nu(length) = -1``. One leaf is the inaccessible end
``x0``; every other leaf is accessible and the order of the ``accessible``
list drives all response-matrix indexing downstream.

``validate_network`` parses the JSON description and checks each pipe;
``Network`` checks its ids are unique and its pipes form a tree with x0 a
leaf, so every ``Network`` is a valid tree. Geometry here is exact and
immutable: every derived quantity (the orientation towards x0, action
times) is a pure function of the network, and one walk from x0 gives the
orientation: each pipe's far end, away from x0. A cut point on a pipe
separates from x0 exactly the accessible leaves of the pipe's subtree,
beyond its far end; each one's action time is its distance to the far
vertex plus the point's, over the wave speed, and every other leaf's is 0.
Each query walks down the asked pipe's subtree only, never back over a
pipe it came by, summing each leaf's distance from the leaf up; nothing
is kept per pair of vertices or per leaf and pipe, so storage is linear.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass

import numpy as np

from .errors import ConfigError

__all__ = [
    "BlockAreaProfile",
    "TableAreaProfile",
    "Pipe",
    "Network",
    "PointOnPipe",
    "ActionTimes",
    "validate_network",
    "action_times",
    "action_times_along",
]


@dataclass(frozen=True)
class BlockAreaProfile:
    """Area = base constant plus rectangular perturbations on open intervals.

    ``blocks`` is a tuple of ``(x_lo, x_hi, delta)``; the delta applies for
    ``x_lo < x < x_hi``. Blockages are negative deltas.
    """

    base: float
    blocks: tuple[tuple[float, float, float], ...] = ()

    def __call__(self, x):
        x = np.asarray(x, dtype=float)
        a = np.full_like(x, self.base)
        for lo, hi, delta in self.blocks:
            a = a + delta * ((x > lo) & (x < hi))
        return a if a.ndim else float(a)

    def extremes(self, length: float) -> tuple[float, float]:
        """Least and greatest area on [0, length]: constant between block edges; an edge carries only the blocks
        strictly containing it."""
        return _extremes(self, length, [e for lo, hi, _ in self.blocks for e in (lo, hi)])


@dataclass(frozen=True)
class TableAreaProfile:
    """Sampled area table with linear interpolation between samples."""

    x: tuple[float, ...]
    values: tuple[float, ...]

    def __call__(self, x):
        out = np.interp(np.asarray(x, dtype=float), self.x, self.values)
        return out if out.ndim else float(out)

    def extremes(self, length: float) -> tuple[float, float]:
        """Least and greatest area on [0, length]: linear between table points, its extremes lie on them."""
        return _extremes(self, length, self.x)

    def rounding(self, length: float) -> float:
        """How far np.interp may read off the line between table points on [0, length]: 8 ulps of the largest |A|
        at the ends of the segments that meet it, and a subnormal ulp a metre of them for a slope that underflows
        (each end scaled alone, so that their span cannot overflow)."""
        lo, hi = np.searchsorted(self.x, [0.0, length])
        x, a = self.x[max(lo - 1, 0) : hi + 1], self.values[max(lo - 1, 0) : hi + 1]
        return 8 * float(np.spacing(max(map(abs, a)))) + (x[-1] * math.ulp(0.0) - x[0] * math.ulp(0.0))


def _extremes(area, length, points) -> tuple[float, float]:
    """Least and greatest of ``area`` read at both ends, every point inside (0, length) and each midpoint between.

    A block sum or table slope that overflows reads inf (at a midpoint for a slope), without a warning.
    """
    edges = sorted({0.0, length, *(p for p in points if 0.0 < p < length)})
    with np.errstate(over="ignore"):
        values = area(np.array(edges + [a + (b - a) / 2 for a, b in zip(edges, edges[1:])]))
    return float(values.min()), float(values.max())


@dataclass(frozen=True)
class Pipe:
    id: str
    from_vertex: str
    to_vertex: str
    length: float
    area: BlockAreaProfile | TableAreaProfile

    def end_coord(self, vertex: str) -> float:
        if vertex == self.from_vertex:
            return 0.0
        if vertex == self.to_vertex:
            return self.length
        raise ConfigError(f"vertex {vertex!r} is not an end of pipe {self.id!r}")


@dataclass(frozen=True)
class PointOnPipe:
    """A point strictly inside a pipe, by pipe id and coordinate offset.

    With ``endpoint_ok``, ``action_times`` also accepts the pipe's x0-side
    end, the one ``Network.far_side_vertex`` does not name (offset 0 or
    length), as the one-sided limit from inside the pipe; it is how a
    profile reconstructs all the way up to a junction.
    """

    pipe: str
    offset: float


@dataclass(frozen=True)
class ActionTimes:
    """Per-accessible-leaf activation durations for one cut point.

    ``f[leaf]`` is the travel time from the leaf to the cut point when the
    cut point separates the leaf from x0, and 0 otherwise.
    """

    f: dict[str, float]

    @property
    def max_f(self) -> float:
        return max(self.f.values()) if self.f else 0.0


class Network:
    """Immutable tree of ``pipes`` on ``vertices``, checked and oriented towards x0 by one walk from x0.

    Raises ``ConfigError``, in this order of checking: for a duplicate id,
    no vertex, or a pipe to a vertex not listed; for too few pipes, or a
    vertex the walk does not reach ("not connected"); for too many pipes (a
    cycle); for a vertex of degree two; for an x0 that is not a leaf; and
    unless ``accessible`` lists every leaf but x0 once.
    """

    def __init__(self, wave_speed, gravity, vertices, pipes, x0, accessible):
        self.wave_speed = float(wave_speed)
        self.gravity = float(gravity)
        self.vertices: tuple[str, ...] = tuple(vertices)
        if len(set(self.vertices)) != len(self.vertices):
            raise ConfigError("duplicate vertex ids")
        self.pipes: dict[str, Pipe] = {}
        for p in pipes:
            if p.id in self.pipes:
                raise ConfigError(f"duplicate pipe id {p.id!r}")
            self.pipes[p.id] = p
        self.x0 = x0
        self.accessible: tuple[str, ...] = tuple(accessible)
        n_pipes, n_vertices = len(self.pipes), len(self.vertices)
        if not n_vertices:
            raise ConfigError("vertices, x0 and accessible must be string vertex ids, at least one vertex")
        self._adjacency: dict[str, list[Pipe]] = {v: [] for v in self.vertices}
        for p in self.pipes.values():
            if p.from_vertex not in self._adjacency or p.to_vertex not in self._adjacency:
                raise ConfigError(f"pipe {p.id!r} references unknown vertices")
            self._adjacency[p.from_vertex].append(p)
            self._adjacency[p.to_vertex].append(p)
        if n_pipes < n_vertices - 1:
            raise ConfigError(f"{n_pipes} pipes cannot connect {n_vertices} vertices")

        # per pipe, the end the walk reached over it: on a tree, its end away from x0 (when x0 is a vertex)
        start = x0 if x0 in self._adjacency else self.vertices[0]
        self._far_side: dict[str, str] = {}
        stack = [start]
        while stack:
            v = stack.pop()
            for p in self._adjacency[v]:
                if p.id not in self._far_side:
                    self._far_side[p.id] = w = p.to_vertex if v == p.from_vertex else p.from_vertex
                    stack.append(w)
        if len({start, *self._far_side.values()}) != n_vertices:
            raise ConfigError("network is not connected")
        if n_pipes != n_vertices - 1:
            raise ConfigError(f"{n_pipes} pipes on {n_vertices} vertices form a cycle")
        for v in self.vertices:
            if self.degree(v) == 2:
                raise ConfigError(f"vertex {v!r} joins exactly two pipes")
        if x0 not in self._adjacency or self.degree(x0) != 1:
            raise ConfigError(f"x0 = {x0!r} is not a leaf")
        if sorted(self.accessible) != sorted(set(self.leaves) - {x0}):
            raise ConfigError("accessible list must be exactly all leaves except x0")

    # -- structure ---------------------------------------------------------

    def degree(self, vertex: str) -> int:
        return len(self._adjacency[vertex])

    @property
    def leaves(self) -> tuple[str, ...]:
        return tuple(v for v in self.vertices if self.degree(v) == 1)

    def adjacent_pipes(self, vertex: str) -> tuple[Pipe, ...]:
        return tuple(self._adjacency[vertex])

    def leaf_pipe(self, leaf: str) -> Pipe:
        (pipe,) = self._adjacency[leaf]
        return pipe

    def leaf_area(self, leaf: str) -> float:
        pipe = self.leaf_pipe(leaf)
        end = pipe.end_coord(leaf)  # read just inside the pipe, where a block from the end holds (blocks are open)
        return float(pipe.area(np.nextafter(end, pipe.length - end)))

    def leaf_nu(self, leaf: str) -> int:
        """Internal normal at a leaf end, +1 at x=0 and -1 at x=length, which ``conservation_residual`` signs by."""
        return 1 if self.leaf_pipe(leaf).end_coord(leaf) == 0.0 else -1

    def far_side_vertex(self, pipe_id: str) -> str:
        """The endpoint of a pipe away from x0."""
        return self._far_side[pipe_id]


def _number(value) -> float:
    """A JSON number as a float; a boolean, string or anything else raises TypeError."""
    if isinstance(value, bool) or not isinstance(value, numbers.Real):
        raise TypeError(f"{value!r} is not a number")
    return float(value)


def _list(value) -> list:
    """A JSON list; a string or object, which would iterate as characters or keys, raises TypeError."""
    if not isinstance(value, list):
        raise TypeError(f"{value!r} is not a list")
    return value


def _name(value) -> str:
    """A string id. Anything else raises TypeError; an empty id, or one holding /, a comma, CR, LF or NUL, raises
    ValueError, since it would leave its directory or split its CSV row."""
    if not isinstance(value, str):
        raise TypeError(f"{value!r} is not a string")
    if not value or any(c in value for c in "/,\r\n\0"):
        raise ValueError(f"id {value!r} is empty or holds a /, comma, CR, LF or NUL")
    return value


def _build_area_profile(spec) -> BlockAreaProfile | TableAreaProfile:
    if not isinstance(spec, dict):
        raise TypeError("area is not a JSON object")
    if "samples" in spec:
        xs = tuple(_number(v) for v in _list(spec["samples"]["x"]))
        vals = tuple(_number(v) for v in _list(spec["samples"]["A"]))
        if len(xs) != len(vals) or len(xs) < 2 or not all(map(math.isfinite, xs + vals)):
            raise ConfigError("area sample table needs matching finite x/A lists of length >= 2")
        if any(b <= a for a, b in zip(xs, xs[1:])):
            raise ConfigError("area sample x values must be strictly increasing")
        # the reconstruction theory needs A constant near leaf ends
        if vals[0] != vals[1] or vals[-1] != vals[-2]:
            raise ConfigError("area table must be constant on its first and last segment")
        return TableAreaProfile(xs, vals)
    blocks = tuple((_number(b["x0"]), _number(b["x1"]), _number(b["delta"])) for b in _list(spec.get("blocks", [])))
    for lo, hi, delta in blocks:
        if not (lo < hi and math.isfinite(lo + hi + delta)):
            raise ConfigError(f"area block ({lo}, {hi}, {delta}) is empty or not finite")
    return BlockAreaProfile(_number(spec["base"]), blocks)


def validate_network(spec: dict) -> Network:
    """Parse a raw network description (the JSON schema) into a Network.

    Vertex and pipe ids are ``_name``s, so each can name a file and a CSV
    field; ``vertices``, ``pipes``, ``accessible``, area ``blocks`` and
    sample tables are lists; lengths, areas, wave speed and gravity are
    numbers, never booleans or strings.

    Raises ConfigError for a malformed field, a self-loop, a nonpositive
    length, or an area that is not positive and finite at every point of
    [0, length], block edges included (an edge carries only the blocks that
    strictly contain it, and an overflowing sum reads inf) or, for a table,
    not above its ``rounding``; nothing beyond the pipe is read. The
    structure is then checked by ``Network``, which raises ConfigError too
    (for a duplicate id, a pipe to an unknown vertex, a disconnected
    network, a cycle, a vertex of degree two or an x0 that is not a leaf).
    """
    try:
        wave_speed = _number(spec["wave_speed"])
        gravity = _number(spec["gravity"])
        vertices, accessible = ([_name(v) for v in _list(spec[key])] for key in ("vertices", "accessible"))
        raw_pipes, x0 = _list(spec["pipes"]), _name(spec["x0"])
    except (KeyError, TypeError, ValueError, OverflowError) as exc:
        raise ConfigError(f"missing or malformed field: {exc}") from exc

    if not (0 < wave_speed < math.inf and 0 < gravity < math.inf):
        raise ConfigError("wave_speed and gravity must be positive and finite")

    pipes = []
    for rp in raw_pipes:
        try:
            pid, v_from, v_to = _name(rp["id"]), _name(rp["from"]), _name(rp["to"])
            length = _number(rp["length"])
            area = _build_area_profile(rp["area"])
        except (KeyError, TypeError, ValueError, OverflowError) as exc:
            raise ConfigError(f"pipe entry {rp!r}: missing or malformed field: {exc}") from exc
        if v_from == v_to:
            raise ConfigError(f"pipe {pid!r} is a self-loop")
        if not 0 < length < math.inf:
            raise ConfigError(f"pipe {pid!r} has length {length}, not a positive finite number")
        least, greatest = area.extremes(length)
        floor = area.rounding(length) if isinstance(area, TableAreaProfile) else 0.0  # a table may read 0 below it
        if not floor < least <= greatest < math.inf:
            raise ConfigError(f"pipe {pid!r} area profile is not positive and finite everywhere")
        pipes.append(Pipe(pid, v_from, v_to, length, area))

    return Network(wave_speed, gravity, vertices, pipes, x0, accessible)


# -- action times ------------------------------------------------------------


def _check_cut(net: Network, p: PointOnPipe, endpoint_ok: bool) -> None:
    """Refuse a cut point that is not on a pipe of ``net`` or not strictly inside it.

    Offsets at the pipe's x0-side end are accepted only with
    ``endpoint_ok`` and stand for the limit taken from inside the pipe.
    """
    pipe = net.pipes.get(p.pipe)
    if pipe is None:
        raise ConfigError(f"unknown pipe {p.pipe!r}")
    if not 0.0 <= p.offset <= pipe.length:
        raise ConfigError(f"offset {p.offset} outside pipe {p.pipe!r}")
    if p.offset in (0.0, pipe.length):
        at_vertex = pipe.from_vertex if p.offset == 0.0 else pipe.to_vertex
        if at_vertex == net.far_side_vertex(p.pipe) or not endpoint_ok:
            if net.degree(at_vertex) >= 3:
                raise ConfigError(f"point at {at_vertex!r} is a junction")
            raise ConfigError(f"cut point must be strictly inside pipe {p.pipe!r}")


def action_times_along(net: Network, pipe_id: str, offsets) -> np.ndarray:
    """Action times (points, accessible leaves) of cut points at ``offsets`` along one pipe.

    A leaf the pipe cuts off from x0 gets (dist(leaf, v) + dv) / a, with v
    the pipe's far vertex and dv the point's distance from it; every other
    leaf gets 0. Columns follow ``net.accessible``. The walk goes down the
    pipe's subtree from v and reads no pipe outside it. The offsets are not
    checked; ``action_times`` checks a single point.
    """
    pipe = net.pipes[pipe_id]
    far = net.far_side_vertex(pipe_id)
    offsets = np.asarray(offsets, dtype=float)
    dv = offsets if far == pipe.from_vertex else pipe.length - offsets
    f = np.zeros((offsets.size, len(net.accessible)))
    column = {leaf: i for i, leaf in enumerate(net.accessible)}
    stack = [(far, pipe, ())]  # a subtree vertex, the pipe above it, and the lengths up to far as (length, rest)
    while stack:
        v, above, up = stack.pop()
        below = [p for p in net.adjacent_pipes(v) if p is not above]
        stack += [(p.to_vertex if v == p.from_vertex else p.from_vertex, p, (p.length, up)) for p in below]
        if not below:  # a cut-off leaf: dist(leaf, far), summed from the leaf up
            d = 0.0
            while up:
                length, up = up
                d += length
            f[:, column[v]] = (d + dv) / net.wave_speed
    return f


def action_times(net: Network, p: PointOnPipe, *, endpoint_ok: bool = False) -> ActionTimes:
    """Activation durations f per accessible leaf for the cut point ``p``.

    f(leaf) is the travel time from the leaf to p for leaves separated
    from x0 by p, and 0 for every other accessible leaf. Raises
    ``ConfigError`` for a point off the pipe, or at a vertex (a junction says so).
    """
    _check_cut(net, p, endpoint_ok)
    row = action_times_along(net, p.pipe, [p.offset])[0]
    return ActionTimes(dict(zip(net.accessible, row.tolist())))
