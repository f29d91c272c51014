import math

import numpy as np
import pytest

from robinsym.domains import build_domain, parse_domain_spec
from robinsym.meshing import (
    MeshError,
    UnsupportedDomainError,
    export_mesh_text,
    generate_mesh,
    import_mesh_text,
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
    bn = m.boundary_nodes()
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
    with pytest.raises(UnsupportedDomainError):
        generate_mesh(notch, 0.3)


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
    parent_edges = np.unique(np.sort(m.triangles[:, [0, 1, 1, 2, 2, 0]].reshape(-1, 2), axis=1),
                             axis=0)
    assert r.num_nodes == V + len(parent_edges)
    assert len(r.triangles) == 4 * T
    assert len(r.boundary_edges) == 2 * B
    # a new node is joined to exactly the two old endpoints of its parent edge
    e = np.sort(r.triangles[:, [0, 1, 1, 2, 2, 0]].reshape(-1, 2), axis=1)
    e = np.unique(e[(e[:, 0] < V) & (e[:, 1] >= V)], axis=0)
    order = np.argsort(e[:, 1], kind="stable")
    new, old = e[order, 1].reshape(-1, 2), e[order, 0].reshape(-1, 2)
    assert np.array_equal(new[:, 0], np.arange(V, r.num_nodes))
    assert np.array_equal(new[:, 1], new[:, 0])
    assert np.array_equal(np.unique(old, axis=0), parent_edges)  # one new node per edge
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
    bn = m.boundary_nodes()
    radii = np.hypot(m.nodes[bn, 0], m.nodes[bn, 1])
    assert np.max(np.abs(radii - 1.0)) < 1e-12


def test_mesh_text_roundtrip_bit_exact():
    m = generate_mesh(build_domain("ellipse", a=1.3, b=0.9), 0.2)
    text = export_mesh_text(m)
    m2 = import_mesh_text(text)
    assert export_mesh_text(m2) == text
    assert abs(m2.area() - m.area()) < 1e-15


def test_import_rejects_bad_header():
    with pytest.raises(MeshError):
        import_mesh_text("nodes 3 cells 1 bedges 3\n")


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
        if m.boundary_curve is not None:
            ta, tb = m.boundary_t[k]
            tm = 0.5 * (ta + tb)
            nodes[i] = tuple(m.domain.boundary_point(int(m.boundary_curve[k]), tm))
            bt.extend([(ta, tm), (tm, tb)])
        bedges.extend([(a, i), (i, b)])
    return np.array(nodes), np.array(tris), np.array(bedges), np.array(bt)


@pytest.mark.parametrize("spec", ["ellipse a=1.5 b=0.6", "stadium l=1 r=0.5", "rect w=2 h=0.5",
                                  "polygon 0,0 1,0 1.2,0.8 0.5,1.3 -0.2,0.7"])
def test_refine_matches_loop_reference_bit_exact(spec):
    m = generate_mesh(parse_domain_spec(spec), 0.15)
    for mesh in (m, refine_mesh(m), import_mesh_text(export_mesh_text(m))):
        r = refine_mesh(mesh)
        nodes, tris, bedges, bt = _refine_loop_reference(mesh)
        assert np.array_equal(r.nodes, nodes)
        assert np.array_equal(r.triangles, tris)
        assert np.array_equal(r.boundary_edges, bedges)
        if mesh.boundary_curve is None:
            assert r.boundary_t is None and r.boundary_curve is None
        else:
            assert np.array_equal(r.boundary_t, bt)
            assert np.array_equal(r.boundary_curve, np.repeat(mesh.boundary_curve, 2))


def test_refine_records_its_parent_and_prolongation_interpolates_linear_fields():
    from robinsym.fem import _prolongation
    m = generate_mesh(build_domain("ellipse", a=1.5, b=0.6), 0.2)
    r = refine_mesh(m)
    assert r.parent is m
    assert r.parent_edges.shape == (r.num_nodes - m.num_nodes, 2)
    P = _prolongation(r)
    assert P.shape == (r.num_nodes, m.num_nodes)
    assert set(np.unique(P.data)) == {0.5, 1.0}
    grad = np.array([-1.3, 2.1])
    interp = P @ (0.7 + m.nodes @ grad)
    exact = 0.7 + r.nodes @ grad
    # boundary midpoints are projected onto the ellipse, interior ones are not
    interior = np.setdiff1d(np.arange(r.num_nodes), r.boundary_nodes())
    assert np.allclose(interp[interior], exact[interior], rtol=0.0, atol=1e-14)
    assert np.array_equal(interp[:m.num_nodes], exact[:m.num_nodes])


@pytest.mark.parametrize("spec", ["disc r=1", "ellipse a=1.5 b=0.6", "rect w=2 h=0.5",
                                  "stadium l=1 r=0.5"])
def test_generated_and_imported_meshes_have_no_parent(spec):
    m = generate_mesh(parse_domain_spec(spec), 0.2)
    for mesh in (m, import_mesh_text(export_mesh_text(refine_mesh(m)))):
        assert mesh.parent is None and mesh.parent_edges is None
