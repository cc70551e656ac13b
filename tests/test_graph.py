"""Topology validation, action times, and the graph-search geometry they are checked against.

``network_distance``, ``travel_time`` and ``admissible_set`` find the
points and leaves a cut separates from x0 by searching the graph, with a
minimum over each point's two pipe ends. They are the reference that the
closed-form action times of ``pipescope.graph`` must match bit for bit.
``area_integral`` integrates an area profile exactly over an interval.
"""

import copy
import math
import tracemalloc
from dataclasses import dataclass

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pipescope import (
    PointOnPipe,
    ReconConfig,
    action_times,
    validate_network,
)
from pipescope.graph import BlockAreaProfile, Network, Pipe, TableAreaProfile, _check_cut, action_times_along
from pipescope.inversion import _profile_points
from pipescope.errors import ConfigError, PipescopeError
from pipescope.presets import EXP1_NETWORK, EXP2_NETWORK, PRESETS


@dataclass(frozen=True)
class AdmissibleSet:
    """The component of the network cut off by a point, away from x0."""

    covered: tuple[tuple[str, tuple[float, float]], ...]
    boundary_leaves: tuple[str, ...]
    cut_point: PointOnPipe


def _point_candidates(net, point):
    """Return (pipe id or None, [(endpoint vertex, distance to it), ...])."""
    if isinstance(point, PointOnPipe):
        pipe = net.pipes.get(point.pipe)
        if pipe is None:
            raise ConfigError(f"unknown pipe {point.pipe!r}")
        if not 0.0 <= point.offset <= pipe.length:
            raise ConfigError(f"offset {point.offset} outside pipe {point.pipe!r} of length {pipe.length}")
        return pipe.id, [(pipe.from_vertex, point.offset), (pipe.to_vertex, pipe.length - point.offset)]
    if point in net._adjacency:
        return None, [(point, 0.0)]
    raise ConfigError(f"unknown vertex {point!r}")


def vertex_distances(net, start):
    """Path length from vertex ``start`` to every vertex, by graph search, each summed from ``start`` outwards."""
    dist = {start: 0.0}
    stack = [start]
    while stack:
        v = stack.pop()
        for p in net._adjacency[v]:
            w = p.to_vertex if v == p.from_vertex else p.from_vertex
            if w not in dist:
                dist[w] = dist[v] + p.length
                stack.append(w)
    return dist


def network_distance(net, u, v):
    """Length in meters of the unique tree path between two points, vertex ids or ``PointOnPipe``s."""
    pu, cand_u = _point_candidates(net, u)
    pv, cand_v = _point_candidates(net, v)
    if pu is not None and pu == pv:
        return abs(cand_u[0][1] - cand_v[0][1])
    dist = {eu: vertex_distances(net, eu) for eu, _ in cand_u}
    return min(du + dist[eu][ev] + dv for eu, du in cand_u for ev, dv in cand_v)


def travel_time(net, u, v):
    """Wave travel time between two points: path length over wave speed."""
    return network_distance(net, u, v) / net.wave_speed


def _component_pipes(net, start_vertex, excluded_pipe):
    """Pipe ids of the component containing start_vertex in G minus one pipe."""
    seen_v = {start_vertex}
    out = []
    stack = [start_vertex]
    while stack:
        v = stack.pop()
        for p in net._adjacency[v]:
            if p.id == excluded_pipe:
                continue
            w = p.to_vertex if v == p.from_vertex else p.from_vertex
            if w not in seen_v:
                seen_v.add(w)
                out.append(p.id)
                stack.append(w)
    return out


def admissible_set(net, p, *, endpoint_ok=False):
    """The component of the network cut off by ``p``, away from x0.

    Raises ``ConfigError`` for cut points at a junction vertex ("... is a junction").
    """
    _check_cut(net, p, endpoint_ok)
    pipe, far_vertex = net.pipes[p.pipe], net.far_side_vertex(p.pipe)
    own_interval = (0.0, p.offset) if far_vertex == pipe.from_vertex else (p.offset, pipe.length)
    covered = [(pipe.id, own_interval)]
    sub_pipe_ids = _component_pipes(net, far_vertex, pipe.id)
    covered.extend((pid, (0.0, net.pipes[pid].length)) for pid in sub_pipe_ids)

    sub_vertices = {far_vertex}
    for pid in sub_pipe_ids:
        sub_vertices.add(net.pipes[pid].from_vertex)
        sub_vertices.add(net.pipes[pid].to_vertex)
    boundary = tuple(leaf for leaf in net.accessible if leaf in sub_vertices)
    return AdmissibleSet(tuple(covered), boundary, p)


def reference_action_times(net, p, *, endpoint_ok=False):
    """Action times over ``net.accessible`` by graph search: travel time to p on the cut-off side, 0 elsewhere."""
    region = admissible_set(net, p, endpoint_ok=endpoint_ok)
    return np.array([travel_time(net, leaf, p) if leaf in region.boundary_leaves else 0.0 for leaf in net.accessible])


def region_contains(net, region, point):
    for pid, (lo, hi) in region.covered:
        if pid == point.pipe and lo <= point.offset <= hi:
            return True
    return False


def area_integral(area, lo, hi):
    """Exact integral of an area profile over [lo, hi]: the blocks' overlaps, or trapezoids between table samples."""
    if isinstance(area, TableAreaProfile):
        xs = [lo] + [x for x in area.x if lo < x < hi] + [hi]
        return float(np.trapezoid(area(np.asarray(xs)), xs))
    total = area.base * (hi - lo)
    for b_lo, b_hi, delta in area.blocks:
        overlap = min(hi, b_hi) - max(lo, b_lo)
        if overlap > 0:
            total += delta * overlap
    return total


def region_area_integral(net, region):
    """Integral of the area profile over a covered region: its volume in m^3."""
    return sum(area_integral(net.pipes[pid].area, lo, hi) for pid, (lo, hi) in region.covered)


def test_exp1_network_validates(exp1_net):
    assert exp1_net.accessible == ("A", "B")
    assert exp1_net.x0 == "C"
    assert set(exp1_net.leaves) == {"A", "B", "C"}
    assert exp1_net.junctions == ("D",)
    assert len(exp1_net.pipes) == len(exp1_net.vertices) - 1


def test_single_pipe_validates(single_pipe_net):
    assert single_pipe_net.accessible == ("L",)
    assert single_pipe_net.x0 == "R"


def test_degree_two_vertex_rejected(exp1_spec):
    spec = exp1_spec
    # splice a pass-through vertex M into pipe DC
    spec["vertices"].append("M")
    spec["pipes"] = [p for p in spec["pipes"] if p["id"] != "DC"] + [
        {"id": "DM", "from": "D", "to": "M", "length": 500.0, "area": {"base": 1.0, "blocks": []}},
        {"id": "MC", "from": "M", "to": "C", "length": 500.0, "area": {"base": 1.0, "blocks": []}},
    ]
    with pytest.raises(ConfigError, match="vertex 'M' joins exactly two pipes"):
        validate_network(spec)


def test_cycle_rejected(exp1_spec):
    exp1_spec["pipes"].append(
        {"id": "AB", "from": "A", "to": "B", "length": 100.0, "area": {"base": 1.0, "blocks": []}}
    )
    with pytest.raises(ConfigError, match="4 pipes on 4 vertices form a cycle"):
        validate_network(exp1_spec)


def test_disconnected_rejected(exp1_spec):
    exp1_spec["vertices"] += ["X", "Y"]
    exp1_spec["pipes"].append(
        {"id": "XY", "from": "X", "to": "Y", "length": 100.0, "area": {"base": 1.0, "blocks": []}}
    )
    with pytest.raises(ConfigError, match="4 pipes cannot connect 6 vertices"):
        validate_network(exp1_spec)


def test_disconnected_with_tree_pipe_count_rejected():
    # a triangle and an isolated vertex: V - 1 pipes, but not a tree
    pipes = [{"id": a + b, "from": a, "to": b, "length": 100.0, "area": {"base": 1.0, "blocks": []}}
             for a, b in ("AB", "BC", "CA")]
    spec = {"wave_speed": 1000.0, "gravity": 9.81, "vertices": ["A", "B", "C", "D"], "pipes": pipes,
            "x0": "D", "accessible": []}
    with pytest.raises(ConfigError, match="network is not connected"):
        validate_network(spec)


@pytest.mark.parametrize(
    "pipe, match",
    [
        ({"id": "AD", "from": "A", "to": "B"}, "duplicate pipe id"),
        ({"id": "AZ", "from": "A", "to": "Z"}, "unknown vertices"),
        ({"id": "DD", "from": "D", "to": "D"}, "self-loop"),
    ],
    ids=["duplicate-id", "unknown-vertex", "self-loop"],
)
def test_bad_pipe_ends_rejected(exp1_spec, pipe, match):
    exp1_spec["pipes"].append({**pipe, "length": 100.0, "area": {"base": 1.0, "blocks": []}})
    with pytest.raises(ConfigError, match=match):
        validate_network(exp1_spec)


@pytest.mark.parametrize(
    "x, areas, match",
    [
        ([0, 100, 100, 400], [1, 1, 0.7, 0.7], "strictly increasing"),
        ([0, 200, 100, 400], [1, 1, 0.7, 0.7], "strictly increasing"),
        ([0, 100, 200, 400], [0.9, 1, 1, 1], "constant on its first and last segment"),
        ([0, 100, 200, 400], [1, 1, 1, 0.9], "constant on its first and last segment"),
    ],
    ids=["repeated-x", "decreasing-x", "first-segment", "last-segment"],
)
def test_bad_area_table_rejected(exp1_spec, x, areas, match):
    exp1_spec["pipes"][0]["area"] = {"samples": {"x": x, "A": areas}}
    with pytest.raises(ConfigError, match=match):
        validate_network(exp1_spec)


def test_nonleaf_x0_rejected(exp1_spec):
    exp1_spec["x0"] = "D"
    exp1_spec["accessible"] = ["A", "B", "C"]
    with pytest.raises(ConfigError, match="x0 = 'D' is not a leaf"):
        validate_network(exp1_spec)


def test_nonpositive_length_and_area(exp1_spec):
    bad = [dict(p) for p in exp1_spec["pipes"]]
    bad[0] = dict(bad[0], length=-5.0)
    with pytest.raises(ConfigError, match="pipe 'AD' has length -5.0, not a positive finite number"):
        validate_network(dict(exp1_spec, pipes=bad))
    bad = [dict(p) for p in exp1_spec["pipes"]]
    bad[0] = dict(bad[0], area={"base": 0.5, "blocks": [{"x0": 10, "x1": 20, "delta": -0.5}]})
    with pytest.raises(ConfigError, match="pipe 'AD' area profile is not positive and finite everywhere"):
        validate_network(dict(exp1_spec, pipes=bad))


@pytest.mark.parametrize(
    "edit, match",
    [
        (lambda spec: spec["pipes"][0].pop("id"), "missing or malformed field: 'id'"),
        (lambda spec: spec["pipes"][0]["area"].pop("base"), "missing or malformed field: 'base'"),
        (lambda spec: spec["pipes"][0].update(length=math.nan), "pipe 'AD' has length nan, not a positive finite"),
        (lambda spec: spec["pipes"][0].update(length=math.inf), "pipe 'AD' has length inf, not a positive finite"),
        (lambda spec: spec["pipes"][0]["area"].update(base=math.nan), "pipe 'AD' area profile is not positive"),
        (lambda spec: spec["pipes"][0]["area"].update(blocks=[{"x0": 10, "x1": 20, "delta": math.nan}]),
         r"area block \(10.0, 20.0, nan\) is empty or not finite"),
        (lambda spec: spec["pipes"][0].update(
            area={"samples": {"x": [0, 100, 200, 300, 400], "A": [1, 1, math.nan, 1, 1]}}),
         "area sample table needs matching finite x/A lists"),
        (lambda spec: spec.update(wave_speed=math.inf), "wave_speed and gravity must be positive and finite"),
        (lambda spec: spec.update(gravity=math.nan), "wave_speed and gravity must be positive and finite"),
        (lambda spec: spec["pipes"][0].update(length=10**400),
         "missing or malformed field: int too large to convert to float"),
        (lambda spec: spec["pipes"][0].update(area="wide"), "missing or malformed field: area is not a JSON object"),
        (lambda spec: spec.update(vertices=[], pipes=[]), "at least one vertex"),
        (lambda spec: spec.update(vertices="ABCD"), "missing or malformed field: 'ABCD' is not a list"),
    ],
    ids=["no-pipe-id", "no-area-base", "nan-length", "inf-length", "nan-base", "nan-delta", "nan-table",
         "inf-wave-speed", "nan-gravity", "length-overflows-float", "area-not-object", "no-vertices",
         "vertices-not-list"],
)
def test_malformed_or_nonfinite_spec_rejected(exp1_spec, edit, match):
    edit(exp1_spec)
    with pytest.raises(ConfigError, match=match):
        validate_network(exp1_spec)


def _rename_vertex(spec, old, new):
    """Rename vertex ``old`` to ``new`` everywhere in ``spec``, so that only the name is at fault."""
    rename = {old: new}.get
    spec["vertices"] = [rename(v, v) for v in spec["vertices"]]
    spec["accessible"] = [rename(v, v) for v in spec["accessible"]]
    spec["x0"] = rename(spec["x0"], spec["x0"])
    for pipe in spec["pipes"]:
        pipe.update({end: rename(pipe[end], pipe[end]) for end in ("from", "to")})


@pytest.mark.parametrize(
    "edit",
    [
        lambda spec: spec["pipes"][0].update(id=["AD"]),
        lambda spec: spec["vertices"].__setitem__(0, ["A"]),
        lambda spec: spec["pipes"][0].update({"from": {"A": 1}}),
        lambda spec: spec["pipes"][0].update(to=["D"]),
        lambda spec: spec["accessible"].__setitem__(0, ["A"]),
        lambda spec: spec.update(x0={"C": 1}),
        # ids that would leave the output directory, split a CSV row or end a path at a NUL byte
        lambda spec: spec["pipes"][0].update(id="../AD"),
        lambda spec: spec["pipes"][0].update(id="A,D"),
        lambda spec: spec["pipes"][0].update(id="A\0D"),
        lambda spec: spec["pipes"][0].update(id=""),
        lambda spec: _rename_vertex(spec, "A", "A\n"),
        lambda spec: _rename_vertex(spec, "D", "D\r"),
        lambda spec: _rename_vertex(spec, "B", "B/"),
        lambda spec: _rename_vertex(spec, "C", "C\0"),
        lambda spec: _rename_vertex(spec, "A", ""),
    ],
    ids=["pipe-id", "vertex", "from", "to", "accessible", "x0", "pipe-id-slash", "pipe-id-comma", "pipe-id-nul",
         "pipe-id-empty", "leaf-lf", "junction-cr", "leaf-slash", "x0-nul", "leaf-empty"],
)
def test_unhashable_id_rejected(exp1_spec, edit):
    edit(exp1_spec)
    with pytest.raises(ConfigError, match=r"missing or malformed field: .* (is not a string|is empty or holds a /)"):
        validate_network(exp1_spec)


@pytest.mark.parametrize(
    "edit",
    [
        lambda spec: spec["pipes"][0].update(length=True),
        lambda spec: spec["pipes"][0].update(length="400"),
        lambda spec: spec["pipes"][0]["area"].update(base=True),
        lambda spec: spec.update(wave_speed=True),
        lambda spec: spec.update(gravity="9.81"),
        lambda spec: spec["pipes"][0]["area"].update(blocks=[{"x0": True, "x1": 20, "delta": -0.1}]),
        lambda spec: spec["pipes"][0].update(area={"samples": {"x": "0124", "A": "3333"}}),
        lambda spec: spec["pipes"][0].update(area={"samples": {"x": [0, 100, 200, 400], "A": "3333"}}),
        lambda spec: spec["pipes"][0].update(area={"samples": {"x": [0, 100, 200, 400], "A": [1, 1, True, 1]}}),
        lambda spec: spec["pipes"][0]["area"].update(blocks={}),
        lambda spec: spec["pipes"][0]["area"].update(blocks=""),
    ],
    ids=["bool-length", "string-length", "bool-base", "bool-wave-speed", "string-gravity", "bool-block-edge",
         "string-samples", "string-sample-areas", "bool-sample-area", "object-blocks", "string-blocks"],
)
def test_boolean_string_or_object_for_number_or_list_rejected(exp1_spec, edit):
    edit(exp1_spec)
    with pytest.raises(ConfigError, match="missing or malformed field: .* is not a (number|list)"):
        validate_network(exp1_spec)


def _json_paths(value, path=()):
    """Every path from the root of a JSON document to one of its values."""
    yield path
    items = value.items() if isinstance(value, dict) else enumerate(value) if isinstance(value, list) else ()
    for key, child in items:
        yield from _json_paths(child, (*path, key))


JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.floats() | st.integers() | st.just(10**400) | st.text(max_size=5),
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(max_size=5), inner, max_size=3),
    max_leaves=6,
)
FUZZ_PATHS = [p for p in _json_paths(EXP1_NETWORK) if p] + [
    ("pipes", 1, "area", "blocks", 0, key) for key in ("x0", "x1", "delta")
]


@given(st.sampled_from(FUZZ_PATHS), JSON_VALUES)
@settings(max_examples=400, deadline=None)
def test_fuzz_one_field_raises_only_pipescope_errors(path, value):
    spec = copy.deepcopy(EXP1_NETWORK)
    spec["pipes"][1]["area"]["blocks"] = [{"x0": 100.0, "x1": 150.0, "delta": -0.3}]
    parent = spec
    for key in path[:-1]:
        parent = parent[key]
    parent[path[-1]] = value
    try:
        validate_network(spec)
    except PipescopeError:
        pass


def test_accessible_order_is_authoritative(exp1_spec):
    exp1_spec["accessible"] = ["B", "A"]
    net = validate_network(exp1_spec)
    assert net.accessible == ("B", "A")
    exp1_spec["accessible"] = ["A"]
    with pytest.raises(ConfigError, match="accessible list must be exactly all leaves except x0"):
        validate_network(exp1_spec)


def test_table_area_profile(exp1_spec):
    exp1_spec["pipes"][0]["area"] = {
        "samples": {"x": [0.0, 100.0, 200.0, 300.0, 400.0], "A": [1.0, 1.0, 0.7, 1.0, 1.0]}
    }
    net = validate_network(exp1_spec)
    area = net.pipes["AD"].area
    assert area(150.0) == pytest.approx(0.85)
    assert area_integral(area, 0.0, 400.0) == pytest.approx(400.0 - 0.3 * 100.0)


# -- travel times -------------------------------------------------------------


def test_travel_time_paper_values(exp1_net):
    assert travel_time(exp1_net, "A", "D") == pytest.approx(0.4)
    assert travel_time(exp1_net, "B", "D") == pytest.approx(0.3)
    # sum of 400 m + 300 m over the unique A-B path at 1000 m/s
    assert travel_time(exp1_net, "A", "B") == pytest.approx(0.7)


def test_travel_time_zero_and_symmetry(exp1_net):
    p = PointOnPipe("DC", 123.0)
    assert travel_time(exp1_net, p, p) == 0.0
    assert travel_time(exp1_net, "A", p) == travel_time(exp1_net, p, "A")


def test_travel_time_points_on_same_pipe(exp1_net):
    u = PointOnPipe("DC", 100.0)
    v = PointOnPipe("DC", 350.0)
    assert network_distance(exp1_net, u, v) == pytest.approx(250.0)


def test_travel_time_metric_additivity(exp1_net):
    # D lies on the path from any point of AD to B
    p = PointOnPipe("AD", 150.0)
    assert travel_time(exp1_net, p, "B") == pytest.approx(
        travel_time(exp1_net, p, "D") + travel_time(exp1_net, "D", "B")
    )


# -- action times -------------------------------------------------------------


def test_action_times_dc_paper_table(exp1_net):
    f = action_times(exp1_net, PointOnPipe("DC", 100.0))
    assert f.f["A"] == pytest.approx(0.5)
    assert f.f["B"] == pytest.approx(0.4)


def test_action_times_ad_paper_table(exp1_net):
    f = action_times(exp1_net, PointOnPipe("AD", 200.0))
    assert f.f["A"] == pytest.approx(0.2)
    assert f.f["B"] == 0.0


def test_action_times_exp2_derived(exp2_net):
    # p on ED, 50 m from E: path lengths (300, 400, 400) + 50 over 1000 m/s
    f = action_times(exp2_net, PointOnPipe("ED", 50.0))
    assert [f.f[leaf] for leaf in exp2_net.accessible] == pytest.approx([0.35, 0.45, 0.45])


def test_action_times_junction_rejected(exp1_net):
    with pytest.raises(ConfigError, match="point at 'D' is a junction"):
        action_times(exp1_net, PointOnPipe("AD", 400.0))
    # the same point is fine as a one-sided limit
    f = action_times(exp1_net, PointOnPipe("AD", 400.0), endpoint_ok=True)
    assert f.f["A"] == pytest.approx(0.4)
    assert f.f["B"] == 0.0


def test_end_coord_of_a_vertex_off_the_pipe_rejected(exp1_net):
    pipe = exp1_net.pipes["AD"]
    assert (pipe.end_coord("A"), pipe.end_coord("D")) == (0.0, 400.0)
    with pytest.raises(ConfigError, match="vertex 'B' is not an end of pipe 'AD'"):
        pipe.end_coord("B")


def test_point_at_far_leaf_rejected(exp1_net):
    with pytest.raises(ConfigError, match="cut point must be strictly inside pipe 'AD'"):
        action_times(exp1_net, PointOnPipe("AD", 0.0), endpoint_ok=True)


@pytest.mark.parametrize("point, match", [
    (PointOnPipe("ZZ", 10.0), "unknown pipe 'ZZ'"),
    (PointOnPipe("AD", 400.5), "offset 400.5 outside pipe 'AD'"),
    (PointOnPipe("AD", -1.0), "offset -1.0 outside pipe 'AD'"),
    (PointOnPipe("AD", math.nan), "offset nan outside pipe 'AD'"),
])
def test_point_off_the_network_rejected(exp1_net, point, match):
    with pytest.raises(ConfigError, match=match):
        action_times(exp1_net, point, endpoint_ok=True)


# -- admissible sets ----------------------------------------------------------


def test_admissible_set_exp1_dc(exp1_net):
    region = admissible_set(exp1_net, PointOnPipe("DC", 100.0))
    covered = dict(region.covered)
    assert covered["AD"] == (0.0, 400.0)
    assert covered["BD"] == (0.0, 300.0)
    assert covered["DC"] == (0.0, 100.0)
    assert region.boundary_leaves == ("A", "B")


def test_admissible_set_single_pipe(single_pipe_net):
    region = admissible_set(single_pipe_net, PointOnPipe("P", 210.0))
    assert dict(region.covered) == {"P": (0.0, 210.0)}
    assert region.boundary_leaves == ("L",)


def test_admissible_set_exp2_ae(exp2_net):
    region = admissible_set(exp2_net, PointOnPipe("AE", 150.0))
    assert dict(region.covered) == {"AE": (0.0, 150.0)}
    assert region.boundary_leaves == ("A",)


def test_f_positive_exactly_on_boundary_leaves(exp2_net):
    for pid, offset in [("AE", 10.0), ("ED", 499.0), ("CE", 123.0)]:
        p = PointOnPipe(pid, offset)
        region = admissible_set(exp2_net, p)
        f = action_times(exp2_net, p)
        for leaf in exp2_net.accessible:
            if leaf in region.boundary_leaves:
                assert f.f[leaf] == pytest.approx(travel_time(exp2_net, leaf, p))
                assert f.f[leaf] > 0
            else:
                assert f.f[leaf] == 0.0


def test_domain_of_influence_formula(exp2_net):
    # D_p = {x : TT(x_j, x) < f(x_j) for some accessible leaf}, probing
    # points off the region boundary
    rng = np.random.default_rng(7)
    for _ in range(40):
        pid = str(rng.choice(list(exp2_net.pipes)))
        cut = PointOnPipe(pid, float(rng.uniform(1.0, exp2_net.pipes[pid].length - 1.0)))
        f = action_times(exp2_net, cut)
        region = admissible_set(exp2_net, cut)
        for _ in range(10):
            qid = str(rng.choice(list(exp2_net.pipes)))
            q = PointOnPipe(qid, float(rng.uniform(0.0, exp2_net.pipes[qid].length)))
            influenced = any(
                travel_time(exp2_net, leaf, q) < f.f[leaf] - 1e-12
                for leaf in exp2_net.accessible
            )
            inside = region_contains(exp2_net, region, q)
            boundary_gap = abs(
                network_distance(exp2_net, cut, q)
            )
            if boundary_gap > 1e-6:  # undefined exactly at the cut
                assert influenced == inside


def test_admissible_volume_grows_towards_x0(exp2_net):
    # the cut-off volume integral strictly increases as the cut point
    # slides along ED towards the inaccessible end
    vols = [
        region_area_integral(exp2_net, admissible_set(exp2_net, PointOnPipe("ED", d)))
        for d in np.linspace(20.0, 480.0, 12)
    ]
    assert all(b > a for a, b in zip(vols, vols[1:]))


def test_region_area_integral_exp1(exp1_net):
    region = admissible_set(exp1_net, PointOnPipe("DC", 100.0))
    assert region_area_integral(exp1_net, region) == pytest.approx(800.0)


# -- randomized trees ---------------------------------------------------------


@st.composite
def tree_specs(draw):
    """Random valid tree networks: junctions of degree >= 3, random orientations."""
    rng_lengths = st.integers(min_value=50, max_value=500)
    pipes = []
    vertices = ["v0"]
    junction_queue = [("v0", draw(st.integers(min_value=3, max_value=4)))]
    depth = draw(st.integers(min_value=0, max_value=1))
    counter = [0]

    def new_vertex():
        counter[0] += 1
        return f"v{counter[0]}"

    level = 0
    while junction_queue:
        center, n_children = junction_queue.pop()
        for _ in range(n_children):
            child = new_vertex()
            vertices.append(child)
            length = float(draw(rng_lengths))
            area = {"base": float(draw(st.sampled_from([0.5, 1.0, 2.0]))), "blocks": []}
            if draw(st.booleans()):
                pipes.append({"id": f"{center}-{child}", "from": center, "to": child, "length": length, "area": area})
            else:
                pipes.append({"id": f"{child}-{center}", "from": child, "to": center, "length": length, "area": area})
            if level < depth and draw(st.booleans()):
                junction_queue.append((child, draw(st.integers(min_value=2, max_value=3))))
        level += 1

    leaves = [v for v in vertices if sum(v in (p["from"], p["to"]) for p in pipes) == 1]
    x0 = draw(st.sampled_from(leaves))
    return {
        "wave_speed": 1000.0,
        "gravity": 9.81,
        "vertices": vertices,
        "pipes": pipes,
        "x0": x0,
        "accessible": [v for v in leaves if v != x0],
    }


@given(tree_specs(), st.data())
@settings(max_examples=50, deadline=None)
def test_random_tree_invariants(spec, data):
    net = validate_network(spec)
    assert len(net.pipes) == len(net.vertices) - 1
    for v in net.vertices:
        assert net.degree(v) != 2

    pid = data.draw(st.sampled_from(sorted(net.pipes)))
    pipe = net.pipes[pid]
    offset = data.draw(st.floats(min_value=0.01, max_value=0.99)) * pipe.length
    p = PointOnPipe(pid, offset)

    # path additivity through the pipe's own ends
    d_from = network_distance(net, pipe.from_vertex, p)
    d_to = network_distance(net, p, pipe.to_vertex)
    assert d_from + d_to == pytest.approx(pipe.length)

    f = action_times(net, p)
    region = admissible_set(net, p)
    assert net.x0 not in region.boundary_leaves
    for leaf in net.accessible:
        if leaf in region.boundary_leaves:
            assert f.f[leaf] == pytest.approx(travel_time(net, leaf, p))
        else:
            assert f.f[leaf] == 0.0
    assert math.isclose(
        region_area_integral(net, region),
        sum(area_integral(net.pipes[q].area, lo, hi) for q, (lo, hi) in region.covered),
    )


# -- closed-form action times against the graph search ------------------------


def _uniform_pipe(pid, a, b, length):
    return {"id": pid, "from": a, "to": b, "length": length, "area": {"base": 1.0, "blocks": []}}


def reference_profile_points(net, pipe_id, cfg, dt):
    """The point-by-point profile loop on an IRM of step ``dt``: action times by graph search, offsets and positions."""
    pipe = net.pipes[pipe_id]
    from_far = net.far_side_vertex(pipe_id) == pipe.from_vertex
    rows, offsets, positions = [], [], []
    k = 1
    while True:
        d = k * cfg.dx
        if d > pipe.length + cfg.dx * 1e-9:
            break
        d = min(d, pipe.length)
        offset = d if from_far else pipe.length - d
        f = reference_action_times(net, PointOnPipe(pipe_id, offset), endpoint_ok=True)
        if f.max() - cfg.tau > dt / 4:
            break
        rows.append(f)
        offsets.append(offset)
        positions.append(d)
        k += 1
    return np.reshape(rows, (-1, len(net.accessible))), np.array(offsets), np.array(positions)


def _profile_cases():
    """(name, network, tau, dt, dx) of the stock presets, of the benchmark's seeded trees, and of one pipe.

    On the 500 m pipe, tau and not the pipe's end stops the profile: at
    dx 60.5 the fifth point lies exactly a*(tau + tol) from the far end.
    """
    from test_simulate import _treegen

    treegen = _treegen()
    cases = [(name, validate_network(PRESETS[name]["network"]), PRESETS[name]["reconstruct"]["tau"], dt,
              PRESETS[name]["reconstruct"]["dx"]) for name, dt in (("exp1", 0.01), ("exp2", 0.007))]
    single = validate_network({"wave_speed": 1000.0, "gravity": 9.81, "vertices": ["L", "R"], "x0": "R",
                               "accessible": ["L"], "pipes": [_uniform_pipe("P", "L", "R", 500.0)]})
    cases += [("single-pipe", single, 0.3, 0.01, dx) for dx in (10.0, 60.5)]
    for seed in (1, 2, 3):
        cases.append((f"tree-measured-{seed}", validate_network(treegen.generate(seed, "measured")), 1.2, 0.007, 7.0))
        cases.append((f"tree-exact-{seed}", validate_network(treegen.generate(seed, "exact")), 1.195, 0.01, 10.0))
    return cases


def test_profile_action_times_match_graph_search_bit_for_bit():
    # every profile point of every pipe, at the settings each network is reconstructed with
    for name, net, tau, dt, dx in _profile_cases():
        for pid in net.pipes:
            cfg = ReconConfig(tau=tau, dx=dx)
            times, offsets, positions = _profile_points(net, pid, cfg, dt)
            expected = reference_profile_points(net, pid, cfg, dt)
            assert len(positions) > 0, (name, pid)
            for got, want in zip((times, offsets, positions), expected):
                assert got.tobytes() == want.tobytes(), (name, pid)
            for offset, row in zip(offsets.tolist(), times):
                f = action_times(net, PointOnPipe(pid, offset), endpoint_ok=True)
                assert np.array([f.f[leaf] for leaf in net.accessible]).tobytes() == row.tobytes(), (name, pid, offset)


@given(tree_specs(), st.data())
@settings(max_examples=50, deadline=None)
def test_action_times_match_graph_search_on_random_trees(spec, data):
    net = validate_network(spec)
    pid = data.draw(st.sampled_from(sorted(net.pipes)))
    pipe = net.pipes[pid]
    inside = st.floats(min_value=0.0, max_value=pipe.length, exclude_min=True, exclude_max=True)
    # the pipe's x0-side end stands for the limit from inside, as a profile's last point may
    offsets = data.draw(st.lists(inside, min_size=1, max_size=5)) + [pipe.end_coord(net.x0_side_vertex(pid))]
    expected = np.array([reference_action_times(net, PointOnPipe(pid, o), endpoint_ok=True) for o in offsets])
    assert action_times_along(net, pid, offsets).tobytes() == expected.tobytes()


@pytest.mark.parametrize("ends", [("J1", "J2"), ("J2", "J1")], ids=["far-end-first", "x0-end-first"])
def test_action_times_on_a_pipe_shorter_than_round_off(ends):
    # at 1e-14 m, E's distances to J1 and J2 are the same float, so only the
    # tree's orientation, not a distance comparison, can tell E is not cut off
    net = validate_network({
        "wave_speed": 1000.0, "gravity": 9.81, "vertices": ["A", "B", "C", "E", "J1", "J2"], "x0": "C",
        "accessible": ["A", "B", "E"],
        "pipes": [_uniform_pipe("AJ", "A", "J1", 400.0), _uniform_pipe("BJ", "B", "J1", 300.0),
                  _uniform_pipe("JJ", *ends, 1e-14), _uniform_pipe("JC", "J2", "C", 500.0),
                  _uniform_pipe("JE", "J2", "E", 200.0)],
    })
    assert vertex_distances(net, "E")["J1"] == vertex_distances(net, "E")["J2"]
    offsets = [2.5e-15, 5e-15, 9.9e-15, net.pipes["JJ"].end_coord("J2")]
    f = action_times_along(net, "JJ", offsets)
    expected = np.array([reference_action_times(net, PointOnPipe("JJ", o), endpoint_ok=True) for o in offsets])
    assert f.tobytes() == expected.tobytes()
    assert (f[:, :2] > 0).all() and (f[:, 2] == 0).all()
    cfg = ReconConfig(tau=1.0, dx=1e-15)
    for got, want in zip(_profile_points(net, "JJ", cfg, 0.01), reference_profile_points(net, "JJ", cfg, 0.01)):
        assert got.size and got.tobytes() == want.tobytes()


def _large_tree():
    """A seeded tree of 2,002 vertices, x0 a leaf of the root junction; every junction joins 3 or 4 pipes.

    It grows by giving a random accessible leaf two or three new leaves,
    on pipes of random orientation and length. Returns the network spec
    and, per pipe, the number of accessible leaves it cuts off from x0.
    """
    rng = np.random.default_rng(1909)
    parent, pipes, leaves = {}, [], []

    def attach(center, n):
        for _ in range(n):
            child = f"v{len(parent) + 1}"
            parent[child] = center
            ends = (center, child) if rng.random() < 0.5 else (child, center)
            pipes.append(_uniform_pipe(f"p{child}", *ends, float(rng.uniform(50.0, 500.0))))
            leaves.append(child)

    attach("v0", 3)
    x0 = leaves.pop(0)
    while len(parent) < 2000:
        attach(leaves.pop(int(rng.integers(len(leaves)))), int(rng.integers(2, 4)))
    cut_off = {f"p{v}": 0 for v in parent}
    for leaf in leaves:
        v = leaf
        while v in parent:
            cut_off[f"p{v}"] += 1
            v = parent[v]
    cut_off[f"p{x0}"] = len(leaves)
    spec = {"wave_speed": 1000.0, "gravity": 9.81, "vertices": ["v0", *parent], "pipes": pipes, "x0": x0,
            "accessible": leaves}
    return spec, cut_off


def test_validation_memory_on_a_large_tree():
    # a table of distances between every pair of vertices would trace about 200 MB here
    spec, cut_off = _large_tree()
    tracemalloc.start()
    try:
        net = validate_network(spec)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 25e6, peak

    # the smallest pipe cutting off 50 or more leaves, one cutting off a few, and a leaf pipe
    by_count = sorted(cut_off, key=lambda pid: (cut_off[pid], pid))
    big = next(pid for pid in by_count if cut_off[pid] >= 50)
    few = next(pid for pid in by_count if cut_off[pid] >= 5)
    for pid in (big, few, by_count[0]):
        pipe = net.pipes[pid]
        offsets = [0.25 * pipe.length, 0.5 * pipe.length, pipe.end_coord(net.x0_side_vertex(pid))]
        expected = np.array([reference_action_times(net, PointOnPipe(pid, o), endpoint_ok=True) for o in offsets])
        assert ((expected > 0).sum(axis=1) == cut_off[pid]).all(), pid
        assert action_times_along(net, pid, offsets).tobytes() == expected.tobytes(), pid


def _caterpillar():
    """A spine of 1,000 junctions with one leaf each, x0 at one end: 2,002 vertices, the last junction with two leaves."""
    n = 1000
    pipes = [_uniform_pipe("px0", "x0", "j0", 100.0)]
    for k in range(n):
        pipes.append(_uniform_pipe(f"l{k}", f"j{k}", f"L{k}", 50.0 + k % 7))
        if k + 1 < n:
            pipes.append(_uniform_pipe(f"s{k}", f"j{k}", f"j{k + 1}", 100.0 + k % 3))
    pipes.append(_uniform_pipe("lend", f"j{n - 1}", "Lend", 60.0))
    accessible = [f"L{k}" for k in range(n)] + ["Lend"]
    return {"wave_speed": 1000.0, "gravity": 9.81, "vertices": ["x0", *(f"j{k}" for k in range(n)), *accessible],
            "pipes": pipes, "x0": "x0", "accessible": accessible}


def test_validation_memory_on_a_caterpillar():
    # storage linear in the tree: one (leaf, distance) pair per pipe on each leaf's path to x0 traces about 46 MB
    # here as tuples and 11.4 MB in flat arrays
    spec = _caterpillar()
    tracemalloc.start()
    try:
        net = validate_network(spec)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(net.vertices) == 2002
    assert peak < 2e6, peak

    # the x0 pipe cuts off every leaf, a mid-spine pipe half of them, a leaf pipe one; the graph
    # search walks the whole tree once per cut-off leaf and point, so the big pipes get one point each
    for pid, n_cut, fractions in (("px0", 1001, [0.5]), ("s500", 500, [1.0]), ("l10", 1, [0.25, 0.5, 1.0])):
        pipe, x0_end = net.pipes[pid], net.pipes[pid].end_coord(net.x0_side_vertex(pid))
        offsets = [abs(x0_end - (1.0 - t) * pipe.length) for t in fractions]
        expected = np.array([reference_action_times(net, PointOnPipe(pid, o), endpoint_ok=True) for o in offsets])
        assert ((expected > 0).sum(axis=1) == n_cut).all(), pid
        assert action_times_along(net, pid, offsets).tobytes() == expected.tobytes(), pid


# -- structure checks against the two-walk validation they replaced ----------


def reference_structure(vertices, pipes, x0, accessible):
    """The structural checks of the validation that walked each network twice, and its orientation.

    ``pipes`` are ``Pipe``s between known vertices. Raises what that
    validation raised, in its order; returns each pipe's x0-side vertex
    and, per pipe, its cut-off leaves as (index into ``accessible``,
    distance to the pipe's far vertex) pairs.
    """
    for p in pipes:
        if p.from_vertex == p.to_vertex:
            raise ConfigError(f"pipe {p.id!r} is a self-loop")
    if len(pipes) < len(vertices) - 1:
        raise ConfigError(f"{len(pipes)} pipes cannot connect {len(vertices)} vertices")
    adjacency = {v: [] for v in vertices}
    for p in pipes:
        adjacency[p.from_vertex].append(p)
        adjacency[p.to_vertex].append(p)
    reached = {vertices[0]}
    stack = [vertices[0]]
    while stack:
        v = stack.pop()
        for p in adjacency[v]:
            w = p.to_vertex if v == p.from_vertex else p.from_vertex
            if w not in reached:
                reached.add(w)
                stack.append(w)
    if len(reached) != len(vertices):
        raise ConfigError("network is not connected")
    if len(pipes) != len(vertices) - 1:
        raise ConfigError(f"{len(pipes)} pipes on {len(vertices)} vertices form a cycle")
    for v in vertices:
        if len(adjacency[v]) == 2:
            raise ConfigError(f"vertex {v!r} joins exactly two pipes")
    leaves = {v for v in vertices if len(adjacency[v]) == 1}
    if x0 not in leaves:
        raise ConfigError(f"x0 = {x0!r} is not a leaf")
    if set(accessible) != leaves - {x0} or len(set(accessible)) != len(accessible):
        raise ConfigError("accessible list must be exactly all leaves except x0")

    parent_edge = {x0: None}
    order = [x0]
    while order:
        v = order.pop()
        for p in adjacency[v]:
            w = p.to_vertex if v == p.from_vertex else p.from_vertex
            if w not in parent_edge:
                parent_edge[w] = p.id
                order.append(w)
    by_id = {p.id: p for p in pipes}
    side = {pid: p.to_vertex if parent_edge[p.from_vertex] == pid else p.from_vertex for pid, p in by_id.items()}
    cut_off = {pid: [] for pid in by_id}
    for i, leaf in enumerate(accessible):
        v, dist = leaf, 0.0
        while (pid := parent_edge[v]) is not None:
            cut_off[pid].append((i, dist))
            dist += by_id[pid].length
            v = side[pid]
    return side, cut_off


def reference_action_times_along(spec, side, cut_off, pipe_id, offsets):
    """The per-leaf loop that filled the action times from the (leaf, distance) pairs."""
    pipe = next(p for p in spec["pipes"] if p["id"] == pipe_id)
    far = pipe["to"] if side[pipe_id] == pipe["from"] else pipe["from"]
    offsets = np.asarray(offsets, dtype=float)
    dv = offsets if far == pipe["from"] else pipe["length"] - offsets
    f = np.zeros((offsets.size, len(spec["accessible"])))
    for i, dist in cut_off[pipe_id]:
        f[:, i] = (dist + dv) / spec["wave_speed"]
    return f


def _spec_pipes(spec):
    return [Pipe(p["id"], p["from"], p["to"], float(p["length"]), BlockAreaProfile(p["area"]["base"]))
            for p in spec["pipes"]]


@st.composite
def edited_specs(draw):
    """A preset or random tree network with one to three structural edits.

    Added pipes and accessible ids lean towards the newest vertex. Two
    edits are made of the others, so that some edited specs are trees
    again: a new vertex joined by a pipe and listed as accessible, and an
    accessible id dropped and added back at the end.
    """
    spec = copy.deepcopy(draw(st.sampled_from([EXP1_NETWORK, EXP2_NETWORK]) | tree_specs()))
    vertices, pipes, accessible = spec["vertices"], spec["pipes"], spec["accessible"]
    newest_first = st.builds(lambda i: vertices[-1 - i], st.integers(min_value=0, max_value=len(vertices) - 1))
    for k in range(draw(st.integers(min_value=1, max_value=3))):
        edit = draw(st.sampled_from(["new-leaf", "move-accessible", "isolated-vertex", "add-pipe", "add-accessible",
                                     "drop-accessible", "duplicate-accessible", "x0", "degree-two", "drop-pipe"]))
        new = f"w{k}"
        if edit == "new-leaf":
            vertices.append(new)
            pipes.append(_uniform_pipe(new, draw(st.sampled_from(vertices)), new, 100.0))
            accessible.append(new)
        elif edit == "move-accessible" and accessible:
            accessible.append(accessible.pop(draw(st.integers(min_value=0, max_value=len(accessible) - 1))))
        elif edit == "isolated-vertex":
            vertices.append(new)
        elif edit == "add-pipe":  # self-loops included
            a, b = draw(st.sampled_from(vertices)), draw(newest_first)
            pipes.append(_uniform_pipe(new, a, b, float(draw(st.integers(min_value=50, max_value=500)))))
        elif edit == "add-accessible":
            accessible.append(draw(newest_first | st.just("nowhere")))
        elif edit == "drop-accessible" and accessible:
            accessible.pop(draw(st.integers(min_value=0, max_value=len(accessible) - 1)))
        elif edit == "duplicate-accessible" and accessible:
            accessible.append(draw(st.sampled_from(accessible)))
        elif edit == "x0":
            degree = {v: sum(v in (p["from"], p["to"]) for p in pipes) for v in vertices}
            spec["x0"] = draw(st.sampled_from([v for v in vertices if degree[v] >= 3] + ["nowhere"]))
        elif edit == "degree-two" and pipes:
            p = pipes.pop(draw(st.integers(min_value=0, max_value=len(pipes) - 1)))
            vertices.append(new)
            pipes += [_uniform_pipe(f"{new}a", p["from"], new, p["length"] / 2),
                      _uniform_pipe(f"{new}b", new, p["to"], p["length"] / 2)]
        elif edit == "drop-pipe" and pipes:
            pipes.pop(draw(st.integers(min_value=0, max_value=len(pipes) - 1)))
    return spec


@given(edited_specs())
@settings(max_examples=300, deadline=None)
def test_structure_checks_match_the_two_walk_validation(spec):
    args = (spec["vertices"], _spec_pipes(spec), spec["x0"], spec["accessible"])
    try:
        expected = reference_structure(*args)
    except ConfigError as exc:
        expected = exc
    builds = [lambda: validate_network(spec)]
    if not any(p["from"] == p["to"] for p in spec["pipes"]):  # a self-loop is refused while parsing
        builds.append(lambda: Network(spec["wave_speed"], spec["gravity"], *args))
    for build in builds:
        if isinstance(expected, Exception):
            with pytest.raises(type(expected)) as raised:
                build()
            assert type(raised.value) is type(expected) and str(raised.value) == str(expected)
            continue
        net = build()
        side, cut_off = expected
        assert net.accessible == tuple(spec["accessible"])
        assert net.vertices == tuple(spec["vertices"])
        assert {pid: net.x0_side_vertex(pid) for pid in net.pipes} == side
        for pid, pipe in net.pipes.items():
            offsets = [0.3 * pipe.length, pipe.end_coord(side[pid])]
            want = reference_action_times_along(spec, side, cut_off, pid, offsets)
            assert action_times_along(net, pid, offsets).tobytes() == want.tobytes(), pid


def test_network_built_directly_checks_its_structure():
    # a triangle and an isolated x0: the walk from x0 reaches one vertex of four
    triangle = [Pipe(a + b, a, b, 100.0, BlockAreaProfile(1.0)) for a, b in ("AB", "BC", "CA")]
    with pytest.raises(ConfigError, match="not connected"):
        Network(1000.0, 9.81, ["A", "B", "C", "X"], triangle, "X", [])
    # the preset tree plus a pipe between two leaves: connected, one pipe too many
    pipes = _spec_pipes(EXP1_NETWORK) + [Pipe("AB", "A", "B", 100.0, BlockAreaProfile(1.0))]
    with pytest.raises(ConfigError, match="form a cycle"):
        Network(1000.0, 9.81, EXP1_NETWORK["vertices"], pipes, "C", ["A", "B"])


@pytest.mark.parametrize("edit, match", [
    ("same-pipe-twice", "duplicate pipe id 'DC'"),
    ("pipe-id-reused", "duplicate pipe id 'DC'"),
    ("vertex-twice", "duplicate vertex ids"),
])
def test_duplicate_ids_refused_by_both_entry_points(exp1_spec, edit, match):
    # built directly, the first two made a 3-pipe network (silently, or as 3 pipes that cannot connect 5
    # vertices), and the third was refused only as disconnected
    if edit == "same-pipe-twice":
        exp1_spec["pipes"].append(dict(exp1_spec["pipes"][2]))
    elif edit == "pipe-id-reused":
        exp1_spec["vertices"].append("E")
        exp1_spec["accessible"].append("E")
        exp1_spec["pipes"].append(_uniform_pipe("DC", "D", "E", 200.0))
    else:
        exp1_spec["vertices"].append("A")
    args = (exp1_spec["vertices"], _spec_pipes(exp1_spec), exp1_spec["x0"], exp1_spec["accessible"])
    for build in (lambda: validate_network(exp1_spec), lambda: Network(1000.0, 9.81, *args)):
        with pytest.raises(ConfigError, match=match):
            build()


def test_network_built_directly_refuses_unknown_or_no_vertices():
    # the messages validate_network gives for the same faults, not a KeyError or an IndexError
    pipe = Pipe("P", "A", "Z", 1.0, BlockAreaProfile(1.0))
    with pytest.raises(ConfigError, match="pipe 'P' references unknown vertices"):
        Network(1000, 9.81, ["A", "B"], [pipe], "A", ["B"])
    with pytest.raises(ConfigError, match="at least one vertex"):
        Network(1000, 9.81, [], [], "A", [])
    spec = {"wave_speed": 1000, "gravity": 9.81, "vertices": ["A", "B"], "x0": "A", "accessible": ["B"],
            "pipes": [{"id": "P", "from": "A", "to": "Z", "length": 1.0, "area": {"base": 1.0}}]}
    with pytest.raises(ConfigError, match="pipe 'P' references unknown vertices"):
        validate_network(spec)
    with pytest.raises(ConfigError, match="at least one vertex"):
        validate_network(dict(spec, vertices=[], pipes=[]))
