import dataclasses
import hashlib
import math

import numpy as np
import pytest

import mesh_oracle
from robinsym import meshing
from robinsym.domains import Domain, _orient, build_domain, parse_domain_spec, piece_point
from robinsym.meshing import (
    Mesh,
    MeshError,
    _stitch,
    export_mesh_text,
    generate_mesh,
    refine_mesh,
    validate_mesh,
)


def test_square_tensor_grid_counts():
    m = generate_mesh(build_domain("rect", w=1.0, h=1.0), 0.25)
    assert m.num_nodes == 25
    assert len(m.triangles) == 32
    assert len(m.boundary_edges) == 16


def test_disc_mesh_area_accuracy():
    d = build_domain("disc", r=1.0)
    m = generate_mesh(d, 0.1)
    assert abs(m.area() - math.pi) < 1e-3
    assert abs(m.boundary_length() - 2 * math.pi) < 2e-3


def test_ellipse_boundary_nodes_on_curve():
    d = build_domain("ellipse", a=2.0, b=0.5)
    m = generate_mesh(d, 0.1)
    bn = np.unique(m.boundary_edges)
    x, y = m.nodes[bn, 0], m.nodes[bn, 1]
    assert np.max(np.abs((x / 2.0) ** 2 + (y / 0.5) ** 2 - 1.0)) < 1e-12


def test_stadium_mesh_valid_and_accurate():
    d = build_domain("stadium", l=1.0, r=0.5)
    m = generate_mesh(d, 0.1)
    validate_mesh(m)
    assert abs(m.area() - d.measure) < 2e-3
    assert abs(m.boundary_length() - d.perimeter) < 4e-3


def test_polygon_fan_and_nonconvex_error():
    tri = build_domain("polygon", vertices=[(0, 0), (2, 0), (1, 1.5)])
    m = generate_mesh(tri, 0.3)
    assert abs(m.area() - tri.measure) < 1e-12
    notch = build_domain("polygon", vertices=[(0, 0), (2, 0), (2, 2), (1, 0.5), (0, 2)])
    m = generate_mesh(notch, 0.3)
    validate_mesh(m)
    assert m.area() == pytest.approx(notch.measure, rel=1e-14)


def test_refine_counts_and_composition():
    m = generate_mesh(build_domain("rect", w=1.0, h=1.0), 0.25)
    r1 = refine_mesh(m)
    assert len(r1.triangles) == 128
    r2a = refine_mesh(r1)
    assert len(r2a.triangles) == 4 * len(r1.triangles)
    assert r2a.num_nodes == len(np.unique(r2a.triangles))


def test_refine_midpoint_numbering_and_positions():
    d = build_domain("ellipse", a=1.5, b=0.6)
    m = generate_mesh(d, 0.2)
    r = refine_mesh(m)
    V, T, B = m.num_nodes, len(m.triangles), len(m.boundary_edges)
    unique_edges = np.unique(np.sort(m.triangles[:, [0, 1, 1, 2, 2, 0]].reshape(-1, 2), axis=1),
                             axis=0)
    assert r.num_nodes == V + len(unique_edges)
    assert len(r.triangles) == 4 * T
    assert len(r.boundary_edges) == 2 * B
    # a new node is joined to exactly the two old endpoints of its parent edge
    e = np.sort(r.triangles[:, [0, 1, 1, 2, 2, 0]].reshape(-1, 2), axis=1)
    e = np.unique(e[(e[:, 0] < V) & (e[:, 1] >= V)], axis=0)
    order = np.argsort(e[:, 1], kind="stable")
    new, old = e[order, 1].reshape(-1, 2), e[order, 0].reshape(-1, 2)
    assert np.array_equal(new[:, 0], np.arange(V, r.num_nodes))
    assert np.array_equal(new[:, 1], new[:, 0])
    assert np.array_equal(np.unique(old, axis=0), unique_edges)  # one new node per edge
    assert np.array_equal(old, m.graph.edges)  # node V + e halves edge e
    on_boundary = np.isin(new[:, 0], r.boundary_edges)
    exact_mid = (m.nodes[old[:, 0]] + m.nodes[old[:, 1]]) / 2.0
    assert np.array_equal(r.nodes[V:][~on_boundary], exact_mid[~on_boundary])
    assert on_boundary.sum() == B
    x, y = r.nodes[V:][on_boundary].T
    assert np.max(np.abs((x / 1.5) ** 2 + (y / 0.6) ** 2 - 1.0)) < 1e-12
    assert sorted(old[0]) == sorted(m.triangles[0, :2])  # node V halves edge 0 of triangle 0


def test_refine_disc_area_error_ratio():
    d = build_domain("disc", r=1.0)
    m = generate_mesh(d, 0.2)
    errs = []
    for _ in range(3):
        errs.append(abs(m.area() - math.pi))
        m = refine_mesh(m)
    errs.append(abs(m.area() - math.pi))
    for a, b in zip(errs, errs[1:]):
        assert a / b >= 3.5


def test_refine_projects_boundary_midpoints():
    d = build_domain("disc", r=1.0)
    m = refine_mesh(generate_mesh(d, 0.2))
    bn = np.unique(m.boundary_edges)
    radii = np.hypot(m.nodes[bn, 0], m.nodes[bn, 1])
    assert np.max(np.abs(radii - 1.0)) < 1e-12


def test_mesh_text_roundtrip_bit_exact():
    m = generate_mesh(build_domain("ellipse", a=1.3, b=0.9), 0.2)
    lines = export_mesh_text(m).splitlines()
    V, T = m.num_nodes, len(m.triangles)
    assert lines[0] == f"nodes {V} triangles {T} bedges {len(m.boundary_edges)}"
    rows = [line.split() for line in lines[1:]]
    assert np.array_equal(np.array(rows[:V], dtype=float), m.nodes)
    assert np.array_equal(np.array(rows[V:V + T], dtype=np.int64), m.triangles)
    assert np.array_equal(np.array(rows[V + T:], dtype=np.int64), m.boundary_edges)


def test_h_guard():
    d = build_domain("disc", r=1.0)
    with pytest.raises(MeshError):
        generate_mesh(d, 0.9)


def test_every_family_validates():
    for spec in ("disc r=1", "ellipse a=1.5 b=0.667", "rect w=2 h=0.5",
                 "stadium l=1 r=0.5", "polygon 0,0 1,0 1.2,0.8 0.5,1.3 -0.2,0.7"):
        m = generate_mesh(parse_domain_spec(spec), 0.15)
        validate_mesh(m)
        areas = m.triangle_areas()
        assert areas.min() > 0


def _refine_loop_reference(m):
    """Per-triangle dict walk that numbers each midpoint on first visit."""
    nodes = list(map(tuple, m.nodes))
    midpoint = {}

    def mid(a, b):
        key = (min(a, b), max(a, b))
        if key not in midpoint:
            midpoint[key] = len(nodes)
            nodes.append(((nodes[a][0] + nodes[b][0]) / 2.0, (nodes[a][1] + nodes[b][1]) / 2.0))
        return midpoint[key]

    tris = []
    for a, b, c in m.triangles.tolist():
        ab, bc, ca = mid(a, b), mid(b, c), mid(c, a)
        tris.extend([(a, ab, ca), (ab, b, bc), (ca, bc, c), (ab, bc, ca)])
    bedges, bt = [], []
    for k, (a, b) in enumerate(m.boundary_edges.tolist()):
        i = mid(a, b)
        ta, tb = m.boundary_t[k]
        tm = 0.5 * (ta + tb)
        nodes[i] = tuple(piece_point(m.domain.boundary_pieces()[m.boundary_curve[k]], tm))
        bt.extend([(ta, tm), (tm, tb)])
        bedges.extend([(a, i), (i, b)])
    return np.array(nodes), np.array(tris), np.array(bedges), np.array(bt)


@pytest.mark.parametrize("spec", ["disc r=1", "ellipse a=1.5 b=0.6", "stadium l=1 r=0.5",
                                  "rect w=2 h=0.5", "polygon 0,0 1,0 1.2,0.8 0.5,1.3 -0.2,0.7",
                                  "polygon 0,0 3,0 3,2 2,2 2,1 1,1 1,2 0,2"])
def test_refine_matches_loop_reference_bit_exact(spec):
    m = generate_mesh(parse_domain_spec(spec), 0.15)
    for mesh in (m, refine_mesh(m)):
        r = refine_mesh(mesh)
        nodes, tris, bedges, bt = _refine_loop_reference(mesh)
        assert np.array_equal(r.nodes, nodes)
        assert np.array_equal(r.triangles, tris)
        assert np.array_equal(r.boundary_edges, bedges)
        assert np.array_equal(r.boundary_t, bt)
        assert np.array_equal(r.boundary_curve, np.repeat(mesh.boundary_curve, 2))
        # checking the orientation near the boundary only misses no child
        full = mesh_oracle.refine_mesh(mesh)
        assert np.array_equal(r.triangles, full.triangles)
        assert all(np.array_equal(a, b) for a, b in zip(r.graph, full.graph))


def test_refine_takes_the_boundary_pieces_once(monkeypatch):
    # a regular 60-gon has 60 boundary curves; the pieces are taken once,
    # not once per curve, so refinement stays linear in the vertex count
    m = generate_mesh(parse_domain_spec("polygon " + " ".join(
        f"{math.cos(math.pi * k / 30):.6f},{math.sin(math.pi * k / 30):.6f}" for k in range(60))), 0.3)
    calls = []
    pieces = Domain.boundary_pieces
    monkeypatch.setattr(Domain, "boundary_pieces", lambda self: calls.append(self) or pieces(self))
    refine_mesh(m)
    assert len(np.unique(m.boundary_curve)) == 60 and len(calls) == 1


def _stitch_loop_reference(inner, outer, span):
    """The angular two-pointer merge, one triangle at a time."""
    m, n = len(inner) - 1, len(outer) - 1
    tris = []
    p = q = 0
    while p < m or q < n:
        if q >= n or (p < m and span * (p + 1) / m <= span * (q + 1) / n):
            tris.append((inner[p], outer[q], inner[p + 1]))
            p += 1
        else:
            tris.append((inner[p], outer[q], outer[q + 1]))
            q += 1
    return tris


def test_stitch_matches_loop_reference():
    # the disc rings (8i nodes, closed), the stadium cap rings (4k arcs,
    # span pi), a fan, equal rings and ratios whose thresholds tie
    pairs = [(8 * i, 8 * (i + 1), 2.0 * math.pi) for i in range(1, 60)]
    pairs += [(4 * k, 4 * (k + 1), math.pi) for k in range(1, 40)]
    pairs += [(0, 8, 2.0 * math.pi), (0, 4, math.pi), (5, 5, 1.0), (3, 6, 1.0), (6, 9, 0.7),
              (7, 3, 2.0)]
    for m, n, span in pairs:
        inner, outer = list(range(m + 1)), list(range(1000, 1001 + n))
        assert _stitch(inner, outer, span).tolist() == \
            [list(t) for t in _stitch_loop_reference(inner, outer, span)]


def _digest(m):
    arrays = (m.nodes, m.triangles, m.boundary_edges, m.boundary_t, m.boundary_curve)
    return [hashlib.sha256(a.tobytes()).hexdigest() for a in arrays]


# the benchmark's stadium and its shape-family rectangle and stadium (area pi)
_R1 = math.sqrt(math.pi / (2.0 + math.pi))


@pytest.mark.parametrize("spec,h", [
    ("stadium l=1 r=0.5", 0.1), ("stadium l=1 r=0.5", 0.025),
    ("stadium l=0.001 r=0.5", 0.05), ("stadium l=1 r=0.5 cx=0.3 cy=-1.7", 0.1),
    ("stadium l=0.37 r=1.3", 0.2), ("stadium l=3 r=0.2", 0.05),
    (f"stadium l={_R1!r} r={_R1!r}", 0.1),
    ("rect w=1 h=1", 0.25), ("rect w=2 h=0.5", 0.05), ("rect w=3.3 h=0.7", 0.1),
    ("rect w=1.5 h=1 cx=-0.4 cy=2.1", 0.13),
    (f"rect w={math.sqrt(1.6 * math.pi)!r} h={math.sqrt(math.pi / 1.6)!r}", 0.1)])
def test_tensor_grid_meshes_match_the_loop_reference(spec, h):
    d = parse_domain_spec(spec)
    ref = getattr(mesh_oracle, f"_mesh_{d.kind}")(d, h)
    m = generate_mesh(d, h)
    assert _digest(m) == _digest(ref)
    assert _digest(refine_mesh(m)) == _digest(refine_mesh(ref))


def test_refine_records_its_parent_and_prolongation_interpolates_linear_fields():
    from robinsym.fem import _prolongation
    m = generate_mesh(build_domain("ellipse", a=1.5, b=0.6), 0.2)
    r = refine_mesh(m)
    assert r.parent is m
    assert m.graph.edges.shape == (r.num_nodes - m.num_nodes, 2)
    P = _prolongation(r)
    assert P.shape == (r.num_nodes, m.num_nodes)
    assert set(np.unique(P.data)) == {0.5, 1.0}
    grad = np.array([-1.3, 2.1])
    interp = P @ (0.7 + m.nodes @ grad)
    exact = 0.7 + r.nodes @ grad
    # boundary midpoints are projected onto the ellipse, interior ones are not
    interior = np.setdiff1d(np.arange(r.num_nodes), np.unique(r.boundary_edges))
    assert np.allclose(interp[interior], exact[interior], rtol=0.0, atol=1e-14)
    assert np.array_equal(interp[:m.num_nodes], exact[:m.num_nodes])


_EVERY_FAMILY = ["disc r=1", "ellipse a=1.5 b=0.6", "rect w=2 h=0.5", "stadium l=1 r=0.5",
                 "polygon -1.009,0.4251 -0.949,-0.4603 -0.0763,-1.0736 "
                 "0.5474,-0.9483 1.0583,-0.1542 0.725,0.8098 -0.1133,1.0612",
                 "polygon 0,0 2,0 2,1 1,1 1,2 0,2",
                 "polygon 0,0 3,0 3,2 2,2 2,1 1,1 1,2 0,2"]


@pytest.mark.parametrize("spec", _EVERY_FAMILY)
def test_generated_meshes_have_no_parent(spec):
    m = generate_mesh(parse_domain_spec(spec), 0.2)
    assert m.parent is None


@pytest.mark.parametrize("spec", _EVERY_FAMILY)
def test_meshes_keep_int32_connectivity(spec):
    # as the edge graph's arrays are
    m = generate_mesh(parse_domain_spec(spec), 0.2)
    for m in (m, refine_mesh(m)):
        assert m.triangles.dtype == m.boundary_edges.dtype == np.int32


@pytest.mark.parametrize("spec", _EVERY_FAMILY)
def test_boundary_edges_run_with_the_mesh_on_their_left(spec):
    # the superlevel boundary reads them so; the order may differ
    m = generate_mesh(parse_domain_spec(spec), 0.2)
    for m in (m, refine_mesh(m)):
        expected = mesh_oracle.one_owner_edges(m)
        assert len(m.boundary_edges) == len(expected)
        assert np.array_equal(np.unique(m.boundary_edges, axis=0),
                              np.unique(expected, axis=0))


def test_edge_graph_keys_do_not_wrap_at_int32():
    # on 100,000 nodes, edges (0, 80000) and (42950, 47296) have keys
    # lo * V + hi that agree mod 2^32: int32 keys would merge them, 5 edges
    tris = np.array([(0, 80000, 1), (42950, 47296, 2)], dtype=np.int32)
    m = mesh_oracle.hand_mesh(np.zeros((100_000, 2)), tris, np.empty((0, 2), dtype=np.int32))
    assert len(m.graph.edges) == 6


_ELLIPSE_2 = "ellipse a=1.4142135623730951 b=0.70710678118654757"


def _check_graph(m):
    """m.graph against its definition, read off the triangles directly."""
    g = m.graph
    assert all(a.dtype == np.int32 for a in g)
    t = m.triangles
    for j in range(3):
        ends = np.sort(t[:, [j, (j + 1) % 3]], axis=1)
        assert np.array_equal(g.edges[g.triangle_edges[:, j]], ends)
    assert np.array_equal(g.edges[g.boundary_ids], np.sort(m.boundary_edges, axis=1))
    # numbered in first-met order: edge e first appears after edges 0..e-1
    flat = g.triangle_edges.ravel()
    seen = np.maximum.accumulate(flat)
    assert flat[0] == 0 and np.all(np.diff(seen) <= 1)
    assert seen[-1] == len(g.edges) - 1


@pytest.mark.parametrize("spec", ["disc r=1", _ELLIPSE_2, "stadium l=1 r=0.5", "rect w=2 h=0.5",
                                  "polygon 0,0 2,0 2,1 1,1 1,2 0,2"])
def test_refine_hands_over_the_sort_built_graph(spec):
    m = generate_mesh(parse_domain_spec(spec), 0.2)
    _check_graph(m)
    for _ in range(2):
        m = refine_mesh(m)
        handed = m.graph
        built = meshing._edge_graph(m)  # by np.unique, as a generated mesh's
        for a, b in zip(handed, built):
            assert a.dtype == b.dtype and np.array_equal(a, b)
        _check_graph(m)
    # a replaced mesh builds its graph again, and gets the same one
    again = dataclasses.replace(m).graph
    assert again is not handed and all(np.array_equal(a, b) for a, b in zip(again, handed))


def test_fix_orientation_turns_the_edge_rows_with_the_triangles():
    # no generated child turns over, so turn some by hand: a, c, b has the
    # edges ca, bc, ab in its own order
    m = generate_mesh(parse_domain_spec(_ELLIPSE_2), 0.2)
    turned = np.arange(len(m.triangles)) % 3 == 1
    tris, te = m.triangles.copy(), m.graph.triangle_edges.copy()
    tris[turned] = tris[turned][:, [0, 2, 1]]
    te[turned] = te[turned][:, [2, 1, 0]]
    meshing._fix_orientation(m.nodes, tris, te)
    assert np.array_equal(tris, m.triangles) and np.array_equal(te, m.graph.triangle_edges)


def test_every_mesh_is_bound_to_its_domain():
    nodes, tris, bedges = _unit_square_pair()
    with pytest.raises(TypeError, match="domain"):
        Mesh(nodes=nodes, triangles=tris, boundary_edges=bedges)
    m = refine_mesh(mesh_oracle.hand_mesh(nodes, tris, bedges, _UNIT_SQUARE))
    validate_mesh(m)
    assert m.area() == 1.0 and m.boundary_length() == 4.0


def _min_angle_deg(m):
    p = m.nodes[m.triangles]
    cosines = []
    for i in range(3):
        a, b = p[:, (i + 1) % 3] - p[:, i], p[:, (i + 2) % 3] - p[:, i]
        cosines.append((a * b).sum(axis=1) / (np.hypot(*a.T) * np.hypot(*b.T)))
    return math.degrees(math.acos(min(1.0, float(np.max(cosines)))))


_QUALITY_FAMILIES = [
    "rect w=2 h=0.5", "disc r=1", "ellipse a=1.4142135623730951 b=0.70710678118654757",
    "polygon -1.009,0.4251 -0.949,-0.4603 -0.0763,-1.0736 0.5474,-0.9483 1.0583,-0.1542 "
    "0.725,0.8098 -0.1133,1.0612",
    "polygon 0,0 1,0 0,1", "stadium l=1 r=0.5", "stadium l=0.2 r=0.8", "stadium l=3 r=0.25",
    # ear-clipped: the L-shape (45 degrees), the U-shape (18.4) and the notch (26.6)
    "polygon 0,0 2,0 2,1 1,1 1,2 0,2", "polygon 0,0 3,0 3,2 2,2 2,1 1,1 1,2 0,2",
    "polygon 0,0 2,0 2,2 1,0.5 0,2"]


@pytest.mark.parametrize("h", [0.1, 0.05])
@pytest.mark.parametrize("spec", _QUALITY_FAMILIES)
def test_min_angle_of_every_family(spec, h):
    # the polar-grid stadium caps went down to 1.4-5.7 degrees here; the
    # smallest angle now is the right-triangle fan's and the U-shape's 18.4
    m = generate_mesh(parse_domain_spec(spec), h)
    assert _min_angle_deg(m) >= 15.0
    assert _min_angle_deg(refine_mesh(m)) >= 15.0


# area errors of the polar-grid caps, which the graded caps replaced
_POLAR_CAP_AREA_ERROR = {("stadium l=1 r=0.5", 0.1): 1.344e-3,
                         ("stadium l=1 r=0.5", 0.05): 3.255e-4,
                         ("stadium l=0.2 r=0.8", 0.1): 1.323e-3,
                         ("stadium l=0.2 r=0.8", 0.05): 3.242e-4,
                         ("stadium l=3 r=0.25", 0.1): 1.259e-3,
                         ("stadium l=3 r=0.25", 0.05): 3.359e-4}


@pytest.mark.parametrize("spec,h", sorted(_POLAR_CAP_AREA_ERROR))
def test_stadium_graded_caps(spec, h):
    d = parse_domain_spec(spec)
    l, r, cx, cy = d.params
    m = generate_mesh(d, h)
    mc = math.ceil(2.0 * r / h)
    assert np.bincount(m.boundary_curve).tolist() == [round(l / (r / mc)), 4 * mc] * 2
    assert abs(m.area() - d.measure) < _POLAR_CAP_AREA_ERROR[spec, h]
    for mesh in (m, refine_mesh(m)):
        x, y = mesh.nodes[np.unique(mesh.boundary_edges)].T
        dx = np.maximum(np.abs(x - cx) - l / 2, 0.0)
        assert np.max(np.abs(np.hypot(dx, y - cy) - r)) < 1e-12


# ---------------------------------------------------------------------------
# validate_mesh: one mesh per violation

# the unit square, its sides in the order of _unit_square_pair's boundary edges
_UNIT_SQUARE = "polygon 0,0 1,0 1,1 0,1"


def _unit_square_pair():
    """Two positively oriented triangles on the unit square, sharing 1-2."""
    nodes = np.array([(0.0, 0.0), (1.0, 0.0), (0.0, 1.0), (1.0, 1.0)])
    tris = np.array([(0, 1, 2), (1, 3, 2)])
    bedges = np.array([(0, 1), (1, 3), (3, 2), (2, 0)])
    return nodes, tris, bedges


def _square_mesh(nodes, tris, bedges):
    return mesh_oracle.hand_mesh(nodes, tris, bedges, _UNIT_SQUARE)


def test_validate_accepts_the_unit_square_pair():
    nodes, tris, bedges = _unit_square_pair()
    validate_mesh(_square_mesh(nodes, tris, bedges))
    # the boundary edges are compared undirected and in any order
    validate_mesh(_square_mesh(nodes, tris, bedges[::-1, ::-1]))


def test_validate_rejects_a_nonpositive_area():
    nodes, tris, bedges = _unit_square_pair()
    flipped = np.array([(0, 2, 1), (1, 3, 2)])
    with pytest.raises(MeshError, match="nonpositive triangle area"):
        validate_mesh(_square_mesh(nodes, flipped, bedges))
    flat = np.vstack([nodes, [(0.5, 0.5)]])
    degenerate = np.array([(0, 1, 2), (1, 3, 2), (1, 4, 2)])
    with pytest.raises(MeshError, match="nonpositive triangle area"):
        validate_mesh(_square_mesh(flat, degenerate, bedges))


def test_validate_rejects_an_edge_of_three_triangles():
    nodes, tris, bedges = _unit_square_pair()
    nodes = np.vstack([nodes, [(2.0, 2.0)]])
    tris = np.vstack([tris, [(1, 4, 2)]])  # a third triangle on edge 1-2
    with pytest.raises(MeshError, match="more than two triangles"):
        validate_mesh(_square_mesh(nodes, tris, bedges))


@pytest.mark.parametrize("bedges", [
    [(0, 1), (1, 3), (3, 2)],                   # one boundary edge missing
    [(0, 1), (1, 3), (3, 2), (2, 0), (1, 2)],   # an interior edge listed
    [(0, 1), (1, 3), (3, 2), (0, 3)],           # a non-edge in place of 2-0
    [(0, 1), (1, 3), (3, 2), (-1, 6)],          # a bad pair with the key of 2-0
    [(0, 1), (1, 3), (3, 2), (2, 0), (1, 0)]])  # 0-1 listed twice: perimeter 5
def test_validate_rejects_a_boundary_list_that_does_not_match(bedges):
    nodes, tris, _ = _unit_square_pair()
    with pytest.raises(MeshError, match="boundary edge list"):
        validate_mesh(_square_mesh(nodes, tris, bedges))


@pytest.mark.parametrize("bedges", [[(0, 1), (1, 3), (3, 2), (0, 3)],
                                    [(0, 1), (1, 3), (3, 2), (-1, 6)]])
def test_edge_graph_rejects_a_boundary_edge_that_is_no_triangle_edge(bedges):
    nodes, tris, _ = _unit_square_pair()
    with pytest.raises(MeshError, match="not a triangle edge"):
        _square_mesh(nodes, tris, bedges).graph


def test_validate_rejects_a_bad_boundary_on_a_generated_mesh():
    m = generate_mesh(parse_domain_spec("ellipse a=1.5 b=0.6"), 0.2)
    with pytest.raises(MeshError, match="boundary edge list"):
        validate_mesh(mesh_oracle.hand_mesh(m.nodes, m.triangles, m.boundary_edges[1:],
                                            m.domain))
    interior = np.setdiff1d(np.arange(m.num_nodes), np.unique(m.boundary_edges))[:2]
    with pytest.raises(MeshError, match="boundary edge list"):
        validate_mesh(mesh_oracle.hand_mesh(
            m.nodes, m.triangles, np.vstack([m.boundary_edges[1:], interior]), m.domain))


# ---------------------------------------------------------------------------
# locate: the solvers' point location between meshes that are not nested


def _all_scores(mesh, points):
    """The smallest barycentric coordinate of every point in every triangle."""
    c = mesh.nodes[mesh.triangles]
    d = _orient(c[:, 0], c[:, 1], c[:, 2])
    p = points[:, None, :]
    return np.min([_orient(p, c[None, :, (i + 1) % 3], c[None, :, (i + 2) % 3]) / d
                   for i in range(3)], axis=0)


@pytest.mark.parametrize("spec, coarse_h, fine_h", [
    ("disc r=1", 0.5, 0.1), ("ellipse a=1.4142135623730951 b=0.70710678118654757", 0.3, 0.1),
    ("stadium l=1 r=0.5", 0.2, 0.07), ("polygon 0,0 2,0 2,1 1,1 1,2 0,2", 0.5, 0.15)])
def test_locate_picks_the_best_triangle_of_all(spec, coarse_h, fine_h):
    # every point of the finer mesh, the boundary nodes outside the coarse
    # mesh's chords included, gets the triangle whose smallest barycentric
    # coordinate is largest over all triangles, and weights that
    # reproduce the point (P1 interpolation is exact for linear functions)
    d = parse_domain_spec(spec)
    coarse, points = generate_mesh(d, coarse_h), generate_mesh(d, fine_h).nodes
    tri, bary = meshing.locate(coarse, points)
    scores = _all_scores(coarse, points)
    assert np.allclose(bary.min(axis=1), scores.max(axis=1), rtol=0.0, atol=1e-14)
    corners = coarse.nodes[coarse.triangles[tri]]
    assert np.allclose(np.einsum("ij,ijk->ik", bary, corners), points, rtol=0.0, atol=1e-14)
    assert np.allclose(bary.sum(axis=1), 1.0, rtol=0.0, atol=1e-14)


def test_locate_reproduces_refinement_on_nested_meshes():
    # a refined mesh's nodes are its parent's nodes and edge midpoints, so
    # the located weights are those of the refinement's prolongation
    parent = generate_mesh(parse_domain_spec("polygon 0,0 2,0 2,1 1,1 1,2 0,2"), 0.5)
    child = refine_mesh(parent)
    tri, bary = meshing.locate(parent, child.nodes)
    weights = np.zeros((child.num_nodes, parent.num_nodes))
    np.add.at(weights, (np.arange(child.num_nodes)[:, None], parent.triangles[tri]), bary)
    expected = np.zeros_like(weights)
    expected[np.arange(parent.num_nodes), np.arange(parent.num_nodes)] = 1.0
    mid = parent.num_nodes + np.arange(len(parent.graph.edges))
    expected[mid[:, None], parent.graph.edges] = 0.5
    assert np.allclose(weights, expected, rtol=0.0, atol=1e-15)


def test_locate_takes_a_boundary_triangle_for_a_point_far_outside():
    # a point in a cell no triangle meets is outside every triangle
    m = generate_mesh(build_domain("disc", r=1.0), 0.2)
    points = np.array([[0.99, 0.99], [-5.0, 3.0], [0.0, 0.0]])
    tri, bary = meshing.locate(m, points)
    boundary = np.unique(m.boundary_edges)
    assert np.isin(m.triangles[tri[:2]], boundary).any(axis=1).all()
    corners = m.nodes[m.triangles[tri]]
    assert np.allclose(np.einsum("ij,ijk->ik", bary, corners), points, rtol=0.0, atol=1e-12)
    assert bary[2].min() >= 0.0
