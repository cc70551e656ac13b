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
immutable: every derived quantity (the orientation towards x0, each pipe's
cut-off leaves with their distances to it, action times) is a pure
function of the network, and one walk from x0 gives the orientation. A cut
point on a pipe separates from x0 exactly the accessible leaves whose path
to x0 runs through that pipe; each such leaf's action time is its distance
to the pipe's far vertex plus the point's, over the wave speed, and every
other leaf's is 0. One walk from each leaf up to x0 gives those distances,
held per pipe in two flat arrays; no table over pairs of vertices is kept.
"""

from __future__ import annotations

import math
import numbers
from array import array
from dataclasses import dataclass

import numpy as np

from .errors import (
    CycleDetected,
    DegreeTwoVertex,
    Disconnected,
    InvalidNetworkSpec,
    InvalidPoint,
    NonLeafX0,
    NonpositiveArea,
    NonpositiveLength,
    PointIsJunction,
)

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

    def min_area(self, length: float) -> float:
        # piecewise constant: probing midpoints of every breakpoint interval is exact
        edges = sorted({0.0, length, *(e for lo, hi, _ in self.blocks for e in (lo, hi) if 0.0 < e < length)})
        mids = [(a + b) / 2 for a, b in zip(edges, edges[1:])]
        return float(min(self(m) for m in mids)) if mids else self.base

    @property
    def is_constant(self) -> bool:
        return all(delta == 0.0 for _, _, delta in self.blocks)


@dataclass(frozen=True)
class TableAreaProfile:
    """Sampled area table with linear interpolation between samples."""

    x: tuple[float, ...]
    values: tuple[float, ...]

    def __call__(self, x):
        out = np.interp(np.asarray(x, dtype=float), self.x, self.values)
        return out if out.ndim else float(out)

    def min_area(self, length: float) -> float:
        return float(min(self.values))

    @property
    def is_constant(self) -> bool:
        return len(set(self.values)) == 1


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
        raise InvalidPoint(f"vertex {vertex!r} is not an end of pipe {self.id!r}")

    def nu(self, vertex: str) -> int:
        """Internal normal at a pipe end: +1 at x=0, -1 at x=length."""
        return 1 if self.end_coord(vertex) == 0.0 else -1


@dataclass(frozen=True)
class PointOnPipe:
    """A point strictly inside a pipe, by pipe id and coordinate offset.

    ``offset == length`` is additionally accepted by the geometric
    operations as the one-sided limit at the far (x0-side) end of the
    pipe; it is how a profile reconstructs all the way up to a junction.
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
    cut_point: PointOnPipe

    def as_vector(self, order: tuple[str, ...]) -> np.ndarray:
        return np.array([self.f.get(leaf, 0.0) for leaf in order], dtype=float)

    @property
    def max_f(self) -> float:
        return max(self.f.values()) if self.f else 0.0


class Network:
    """Immutable tree of ``pipes`` on ``vertices``, checked and oriented towards x0 by one walk from x0.

    Raises, in this order of checking: ``InvalidNetworkSpec`` (a duplicate
    id, no vertex, or a pipe to a vertex not listed), ``Disconnected`` (too
    few pipes, or a vertex the walk does not reach), ``CycleDetected`` (too
    many pipes), ``DegreeTwoVertex``, ``NonLeafX0``, and
    ``InvalidNetworkSpec`` unless ``accessible`` lists every leaf but x0 once.
    """

    def __init__(self, wave_speed, gravity, vertices, pipes, x0, accessible):
        self.wave_speed = float(wave_speed)
        self.gravity = float(gravity)
        self.vertices: tuple[str, ...] = tuple(vertices)
        if len(set(self.vertices)) != len(self.vertices):
            raise InvalidNetworkSpec("duplicate vertex ids")
        self.pipes: dict[str, Pipe] = {}
        for p in pipes:
            if p.id in self.pipes:
                raise InvalidNetworkSpec(f"duplicate pipe id {p.id!r}")
            self.pipes[p.id] = p
        self.x0 = x0
        self.accessible: tuple[str, ...] = tuple(accessible)
        n_pipes, n_vertices = len(self.pipes), len(self.vertices)
        if not n_vertices:
            raise InvalidNetworkSpec("vertices, x0 and accessible must be string vertex ids, at least one vertex")
        self._adjacency: dict[str, list[Pipe]] = {v: [] for v in self.vertices}
        for p in self.pipes.values():
            if p.from_vertex not in self._adjacency or p.to_vertex not in self._adjacency:
                raise InvalidNetworkSpec(f"pipe {p.id!r} references unknown vertices")
            self._adjacency[p.from_vertex].append(p)
            self._adjacency[p.to_vertex].append(p)
        if n_pipes < n_vertices - 1:
            raise Disconnected(f"{n_pipes} pipes cannot connect {n_vertices} vertices")

        # per vertex, the pipe the walk reached it by: on a tree, its pipe towards x0 (when x0 is a vertex)
        start = x0 if x0 in self._adjacency else self.vertices[0]
        parent: dict[str, str | None] = {start: None}
        stack = [start]
        while stack:
            v = stack.pop()
            for p in self._adjacency[v]:
                w = p.to_vertex if v == p.from_vertex else p.from_vertex
                if w not in parent:
                    parent[w] = p.id
                    stack.append(w)
        if len(parent) != n_vertices:
            raise Disconnected("network is not connected")
        if n_pipes != n_vertices - 1:
            raise CycleDetected(f"{n_pipes} pipes on {n_vertices} vertices form a cycle")
        for v in self.vertices:
            if self.degree(v) == 2:
                raise DegreeTwoVertex(f"vertex {v!r} joins exactly two pipes")
        if x0 not in self._adjacency or self.degree(x0) != 1:
            raise NonLeafX0(f"x0 = {x0!r} is not a leaf")
        if sorted(self.accessible) != sorted(set(self.leaves) - {x0}):
            raise InvalidNetworkSpec("accessible list must be exactly all leaves except x0")

        # the endpoint whose parent pipe is this pipe is the far one
        self._x0_side = {pid: p.to_vertex if parent[p.from_vertex] == pid else p.from_vertex
                         for pid, p in self.pipes.items()}
        # per pipe, the leaves it cuts off: index into accessible, distance to the far vertex summed from the leaf
        index = {pid: array("q") for pid in self.pipes}
        dist = {pid: array("d") for pid in self.pipes}
        for i, leaf in enumerate(self.accessible):
            v, d = leaf, 0.0
            while (pid := parent[v]) is not None:  # up the leaf's path to x0
                index[pid].append(i)
                dist[pid].append(d)
                d += self.pipes[pid].length
                v = self._x0_side[pid]
        self._cut_off = {pid: (np.frombuffer(index[pid], np.int64), np.frombuffer(dist[pid])) for pid in self.pipes}

    # -- structure ---------------------------------------------------------

    def degree(self, vertex: str) -> int:
        return len(self._adjacency[vertex])

    @property
    def leaves(self) -> tuple[str, ...]:
        return tuple(v for v in self.vertices if self.degree(v) == 1)

    @property
    def junctions(self) -> tuple[str, ...]:
        return tuple(v for v in self.vertices if self.degree(v) >= 3)

    def adjacent_pipes(self, vertex: str) -> tuple[Pipe, ...]:
        return tuple(self._adjacency[vertex])

    def leaf_pipe(self, leaf: str) -> Pipe:
        (pipe,) = self._adjacency[leaf]
        return pipe

    def leaf_area(self, leaf: str) -> float:
        pipe = self.leaf_pipe(leaf)
        return float(pipe.area(pipe.end_coord(leaf)))

    def leaf_nu(self, leaf: str) -> int:
        return self.leaf_pipe(leaf).nu(leaf)

    def x0_side_vertex(self, pipe_id: str) -> str:
        """The endpoint of a pipe through which x0 is reached."""
        return self._x0_side[pipe_id]

    def far_side_vertex(self, pipe_id: str) -> str:
        p = self.pipes[pipe_id]
        x0_end = self._x0_side[pipe_id]
        return p.to_vertex if x0_end == p.from_vertex else p.from_vertex


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


def _build_area_profile(spec) -> BlockAreaProfile | TableAreaProfile:
    if not isinstance(spec, dict):
        raise TypeError("area is not a JSON object")
    if "samples" in spec:
        xs = tuple(_number(v) for v in _list(spec["samples"]["x"]))
        vals = tuple(_number(v) for v in _list(spec["samples"]["A"]))
        if len(xs) != len(vals) or len(xs) < 2 or not all(map(math.isfinite, xs + vals)):
            raise InvalidNetworkSpec("area sample table needs matching finite x/A lists of length >= 2")
        if any(b <= a for a, b in zip(xs, xs[1:])):
            raise InvalidNetworkSpec("area sample x values must be strictly increasing")
        # the reconstruction theory needs A constant near leaf ends
        if vals[0] != vals[1] or vals[-1] != vals[-2]:
            raise InvalidNetworkSpec("area table must be constant on its first and last segment")
        return TableAreaProfile(xs, vals)
    blocks = tuple((_number(b["x0"]), _number(b["x1"]), _number(b["delta"])) for b in _list(spec.get("blocks", [])))
    for lo, hi, delta in blocks:
        if not (lo < hi and math.isfinite(lo + hi + delta)):
            raise InvalidNetworkSpec(f"area block ({lo}, {hi}, {delta}) is empty or not finite")
    return BlockAreaProfile(_number(spec["base"]), blocks)


def validate_network(spec: dict) -> Network:
    """Parse a raw network description (the JSON schema) into a Network.

    Vertex and pipe ids are strings; ``vertices``, ``pipes``,
    ``accessible``, area ``blocks`` and sample tables are lists; lengths,
    areas, wave speed and gravity are numbers, never booleans or strings.

    Raises InvalidNetworkSpec for a malformed field, CycleDetected for a
    self-loop, and NonpositiveLength or NonpositiveArea per pipe; the
    structure is then checked by ``Network``, which raises
    InvalidNetworkSpec (for a duplicate id or a pipe to an unknown vertex,
    say), Disconnected, CycleDetected, DegreeTwoVertex or NonLeafX0.
    """
    try:
        wave_speed = _number(spec["wave_speed"])
        gravity = _number(spec["gravity"])
        vertices, raw_pipes, accessible = (_list(spec[key]) for key in ("vertices", "pipes", "accessible"))
        x0 = spec["x0"]
    except (KeyError, TypeError, ValueError, OverflowError) as exc:
        raise InvalidNetworkSpec(f"missing or malformed field: {exc}") from exc
    if not vertices or not all(isinstance(v, str) for v in (*vertices, x0, *accessible)):
        raise InvalidNetworkSpec("vertices, x0 and accessible must be string vertex ids, at least one vertex")

    if not (0 < wave_speed < math.inf and 0 < gravity < math.inf):
        raise InvalidNetworkSpec("wave_speed and gravity must be positive and finite")

    pipes = []
    for rp in raw_pipes:
        try:
            pid, v_from, v_to = rp["id"], rp["from"], rp["to"]
            length = _number(rp["length"])
            area = _build_area_profile(rp["area"])
        except (KeyError, TypeError, ValueError, OverflowError) as exc:
            raise InvalidNetworkSpec(f"pipe entry {rp!r}: missing or malformed field: {exc}") from exc
        if not all(isinstance(v, str) for v in (pid, v_from, v_to)):
            raise InvalidNetworkSpec(f"pipe entry {rp!r}: id, from and to must be strings")
        if v_from == v_to:
            raise CycleDetected(f"pipe {pid!r} is a self-loop")
        if not 0 < length < math.inf:
            raise NonpositiveLength(f"pipe {pid!r} has length {length}, not a positive finite number")
        if not 0 < area.min_area(length) < math.inf:
            raise NonpositiveArea(f"pipe {pid!r} area profile is not positive and finite everywhere")
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
        raise InvalidPoint(f"unknown pipe {p.pipe!r}")
    if not 0.0 <= p.offset <= pipe.length:
        raise InvalidPoint(f"offset {p.offset} outside pipe {p.pipe!r}")
    if p.offset in (0.0, pipe.length):
        at_vertex = pipe.from_vertex if p.offset == 0.0 else pipe.to_vertex
        if at_vertex != net.x0_side_vertex(p.pipe) or not endpoint_ok:
            if net.degree(at_vertex) >= 3:
                raise PointIsJunction(f"point at {at_vertex!r} is a junction")
            raise InvalidPoint(f"cut point must be strictly inside pipe {p.pipe!r}")


def action_times_along(net: Network, pipe_id: str, offsets) -> np.ndarray:
    """Action times (points, accessible leaves) of cut points at ``offsets`` along one pipe.

    A leaf the pipe cuts off from x0 gets (dist(leaf, v) + dv) / a, with v
    the pipe's far vertex and dv the point's distance from it; every other
    leaf gets 0. Columns follow ``net.accessible``. The offsets are not
    checked; ``action_times`` checks a single point.
    """
    pipe = net.pipes[pipe_id]
    far = net.far_side_vertex(pipe_id)
    offsets = np.asarray(offsets, dtype=float)
    dv = offsets if far == pipe.from_vertex else pipe.length - offsets
    f = np.zeros((offsets.size, len(net.accessible)))
    index, dist = net._cut_off[pipe_id]
    f[:, index] = (dist + dv.reshape(-1, 1)) / net.wave_speed
    return f


def action_times(net: Network, p: PointOnPipe, *, endpoint_ok: bool = False) -> ActionTimes:
    """Activation durations f per accessible leaf for the cut point ``p``.

    f(leaf) is the travel time from the leaf to p for leaves separated
    from x0 by p, and 0 for every other accessible leaf. Raises
    ``InvalidPoint``, or ``PointIsJunction`` for a cut point at a junction.
    """
    _check_cut(net, p, endpoint_ok)
    row = action_times_along(net, p.pipe, [p.offset])[0]
    return ActionTimes(dict(zip(net.accessible, row.tolist())), p)
