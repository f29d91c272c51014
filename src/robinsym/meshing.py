"""Triangular meshes for the parametric shape families.

Structured generators: graded polar rings for disc/ellipse, tensor grid for
rectangles, rectangle plus polar caps for stadiums, centroid fan for convex
polygons.  Boundary nodes always lie on the exact boundary; refinement
projects new boundary midpoints back onto it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .domains import Domain, GeometryError, _polygon_is_convex


class MeshError(ValueError):
    """Mesh construction or validation failure."""


class UnsupportedDomainError(MeshError):
    """Domain family the structured generator cannot mesh."""


@dataclass
class Mesh:
    """Nodes, positively oriented triangles, and boundary edges.

    boundary_curve / boundary_t bind each boundary edge to the generating
    domain's boundary parametrization so refinement can project midpoints;
    imported meshes have no binding and refine with straight midpoints.
    """

    nodes: np.ndarray          # (N, 2)
    triangles: np.ndarray      # (T, 3)
    boundary_edges: np.ndarray  # (B, 2)
    h: float
    domain: Domain | None = None
    boundary_curve: np.ndarray | None = None  # (B,) int
    boundary_t: np.ndarray | None = None      # (B, 2) params of edge endpoints
    # refine_mesh output only: the mesh it split, and the two parent nodes of
    # each new node (node parent.num_nodes + i is the midpoint of row i)
    parent: Mesh | None = field(default=None, repr=False, compare=False)
    parent_edges: np.ndarray | None = field(default=None, repr=False, compare=False)

    @property
    def num_nodes(self) -> int:
        return len(self.nodes)

    def triangle_areas(self):
        p = self.nodes[self.triangles]
        d1 = p[:, 1] - p[:, 0]
        d2 = p[:, 2] - p[:, 0]
        return 0.5 * (d1[:, 0] * d2[:, 1] - d1[:, 1] * d2[:, 0])

    def area(self) -> float:
        return float(self.triangle_areas().sum())

    def boundary_lengths(self):
        e = self.nodes[self.boundary_edges]
        return np.hypot(*(e[:, 1] - e[:, 0]).T)

    def boundary_length(self) -> float:
        return float(self.boundary_lengths().sum())

    def boundary_nodes(self):
        return np.unique(self.boundary_edges)

    def outward_normals(self):
        """Unit outward normal per boundary edge (domain lies left of a->b)."""
        e = self.nodes[self.boundary_edges]
        t = e[:, 1] - e[:, 0]
        length = np.hypot(t[:, 0], t[:, 1])
        n = np.stack([t[:, 1], -t[:, 0]], axis=1) / length[:, None]
        return n


def _fix_orientation(nodes, tris):
    p = nodes[tris]
    d1 = p[:, 1] - p[:, 0]
    d2 = p[:, 2] - p[:, 0]
    area2 = d1[:, 0] * d2[:, 1] - d1[:, 1] * d2[:, 0]
    flip = area2 < 0
    tris[flip] = tris[flip][:, [0, 2, 1]]
    return tris


def validate_mesh(m: Mesh):
    """Edge-ownership and positivity checks; raises MeshError on violation."""
    areas = m.triangle_areas()
    if np.any(areas <= 0):
        raise MeshError("nonpositive triangle area")
    edges = np.concatenate([m.triangles[:, [0, 1]], m.triangles[:, [1, 2]],
                            m.triangles[:, [2, 0]]])
    edges = np.sort(edges, axis=1)
    uniq, counts = np.unique(edges, axis=0, return_counts=True)
    if counts.max() > 2:
        raise MeshError("edge shared by more than two triangles")
    single = uniq[counts == 1]
    bset = np.sort(m.boundary_edges, axis=1)
    a = {tuple(e) for e in single.tolist()}
    b = {tuple(e) for e in bset.tolist()}
    if a != b:
        raise MeshError("boundary edge list does not match single-owner edges")


# ---------------------------------------------------------------------------
# generators


def _ring_counts(i):
    return 8 * i


def _disc_topology(rings):
    """Node layout and triangles of the graded-ring template on the unit disc.

    Returns (rho, theta, triangles, ring_of_outer_nodes): ring i carries 8*i
    nodes; consecutive rings are stitched by an angular two-pointer merge.
    """
    rho = [0.0]
    theta = [0.0]
    start = [0]
    for i in range(1, rings + 1):
        n = _ring_counts(i)
        start.append(len(rho))
        for j in range(n):
            rho.append(i / rings)
            theta.append(2.0 * math.pi * j / n)
    tris = []
    # center fan
    for j in range(8):
        tris.append((0, start[1] + j, start[1] + (j + 1) % 8))
    for i in range(2, rings + 1):
        m, n = _ring_counts(i - 1), _ring_counts(i)
        si, so = start[i - 1], start[i]
        p = q = 0
        while p < m or q < n:
            ang_in = 2.0 * math.pi * (p + 1) / m
            ang_out = 2.0 * math.pi * (q + 1) / n
            if q >= n or (p < m and ang_in <= ang_out):
                tris.append((si + p % m, so + q % n, si + (p + 1) % m))
                p += 1
            else:
                tris.append((si + p % m, so + q % n, so + (q + 1) % n))
                q += 1
    outer = np.arange(start[rings], start[rings] + _ring_counts(rings))
    return np.array(rho), np.array(theta), np.array(tris, dtype=np.int64), outer


def _mesh_disc_like(domain: Domain, h: float) -> Mesh:
    if domain.kind == "disc":
        r, cx, cy = domain.params
        ax = ay = r
    else:
        ax, ay, cx, cy = domain.params
    rings = max(2, int(math.ceil(2.0 * max(ax, ay) / h)))
    rho, theta, tris, outer = _disc_topology(rings)
    nodes = np.stack([cx + ax * rho * np.cos(theta), cy + ay * rho * np.sin(theta)], axis=1)
    n = len(outer)
    bedges = np.stack([outer, np.roll(outer, -1)], axis=1)
    t0 = 2.0 * math.pi * np.arange(n) / n
    bt = np.stack([t0, t0 + 2.0 * math.pi / n], axis=1)
    return Mesh(nodes=nodes, triangles=_fix_orientation(nodes, tris),
                boundary_edges=bedges, h=h, domain=domain,
                boundary_curve=np.zeros(n, dtype=np.int64), boundary_t=bt)


def _mesh_rect(domain: Domain, h: float) -> Mesh:
    w, hh, cx, cy = domain.params
    nx = max(1, round(w / h))
    ny = max(1, round(hh / h))
    xs = cx - w / 2 + np.arange(nx + 1) * (w / nx)
    ys = cy - hh / 2 + np.arange(ny + 1) * (hh / ny)
    xs[-1] = cx + w / 2
    ys[-1] = cy + hh / 2
    xx, yy = np.meshgrid(xs, ys, indexing="ij")
    nodes = np.stack([xx.ravel(), yy.ravel()], axis=1)

    def idx(i, j):
        return i * (ny + 1) + j

    tris = []
    for i in range(nx):
        for j in range(ny):
            a, b, c, d = idx(i, j), idx(i + 1, j), idx(i + 1, j + 1), idx(i, j + 1)
            tris.append((a, b, c))
            tris.append((a, c, d))
    tris = np.array(tris, dtype=np.int64)
    bedges, bcurve, bt = [], [], []
    for i in range(nx):  # bottom, curve 0, param = fraction along side
        bedges.append((idx(i, 0), idx(i + 1, 0)))
        bcurve.append(0)
        bt.append((i / nx, (i + 1) / nx))
    for j in range(ny):  # right, curve 1
        bedges.append((idx(nx, j), idx(nx, j + 1)))
        bcurve.append(1)
        bt.append((j / ny, (j + 1) / ny))
    for i in range(nx):  # top, curve 2 (right-to-left)
        bedges.append((idx(nx - i, ny), idx(nx - i - 1, ny)))
        bcurve.append(2)
        bt.append((i / nx, (i + 1) / nx))
    for j in range(ny):  # left, curve 3 (top-to-bottom)
        bedges.append((idx(0, ny - j), idx(0, ny - j - 1)))
        bcurve.append(3)
        bt.append((j / ny, (j + 1) / ny))
    return Mesh(nodes=nodes, triangles=_fix_orientation(nodes, tris),
                boundary_edges=np.array(bedges, dtype=np.int64), h=h, domain=domain,
                boundary_curve=np.array(bcurve, dtype=np.int64),
                boundary_t=np.array(bt))


def _mesh_stadium(domain: Domain, h: float) -> Mesh:
    l, r, cx, cy = domain.params
    mc = max(2, int(math.ceil(2.0 * r / h)))
    sy = r / mc
    nx = max(1, round(l / sy))
    sx = l / nx
    kang = max(2, round(math.pi * mc))  # angular cells per half-circle

    key_scale = 1e9 / max(l, r)
    node_map: dict = {}
    nodes: list = []

    def add(x, y):
        key = (round(x * key_scale), round(y * key_scale))
        i = node_map.get(key)
        if i is None:
            i = len(nodes)
            nodes.append((x, y))
            node_map[key] = i
        return i

    tris = []
    # central rectangle
    for i in range(nx + 1):
        for j in range(2 * mc + 1):
            add(cx - l / 2 + i * sx, cy - r + j * sy)
    for i in range(nx):
        for j in range(2 * mc):
            a = add(cx - l / 2 + i * sx, cy - r + j * sy)
            b = add(cx - l / 2 + (i + 1) * sx, cy - r + j * sy)
            c = add(cx - l / 2 + (i + 1) * sx, cy - r + (j + 1) * sy)
            d = add(cx - l / 2 + i * sx, cy - r + (j + 1) * sy)
            tris.append((a, b, c))
            tris.append((a, c, d))

    def cap(x0, th0):
        """Polar tensor half-disc centered (x0, cy), angles th0 .. th0 + pi."""
        ring_idx = []
        center = add(x0, cy)
        for k in range(1, mc + 1):
            rk = k * sy
            row = [add(x0 + rk * math.cos(th0 + math.pi * m / kang),
                       cy + rk * math.sin(th0 + math.pi * m / kang))
                   for m in range(kang + 1)]
            ring_idx.append(row)
        for m in range(kang):
            tris.append((center, ring_idx[0][m], ring_idx[0][m + 1]))
        for k in range(mc - 1):
            lo, hi = ring_idx[k], ring_idx[k + 1]
            for m in range(kang):
                tris.append((lo[m], hi[m], hi[m + 1]))
                tris.append((lo[m], hi[m + 1], lo[m + 1]))
        return ring_idx[-1]

    right_outer = cap(cx + l / 2, -math.pi / 2)
    left_outer = cap(cx - l / 2, math.pi / 2)

    bedges, bcurve, bt = [], [], []
    for i in range(nx):  # bottom side, curve 0
        bedges.append((add(cx - l / 2 + i * sx, cy - r), add(cx - l / 2 + (i + 1) * sx, cy - r)))
        bcurve.append(0)
        bt.append((i / nx, (i + 1) / nx))
    for m in range(kang):  # right cap arc, curve 1, angle from -pi/2
        bedges.append((right_outer[m], right_outer[m + 1]))
        bcurve.append(1)
        bt.append((-math.pi / 2 + math.pi * m / kang, -math.pi / 2 + math.pi * (m + 1) / kang))
    for i in range(nx):  # top side, curve 2 (right-to-left)
        bedges.append((add(cx + l / 2 - i * sx, cy + r), add(cx + l / 2 - (i + 1) * sx, cy + r)))
        bcurve.append(2)
        bt.append((i / nx, (i + 1) / nx))
    for m in range(kang):  # left cap arc, curve 3, angle from pi/2
        bedges.append((left_outer[m], left_outer[m + 1]))
        bcurve.append(3)
        bt.append((math.pi / 2 + math.pi * m / kang, math.pi / 2 + math.pi * (m + 1) / kang))
    nodes = np.array(nodes)
    tris = np.array(tris, dtype=np.int64)
    return Mesh(nodes=nodes, triangles=_fix_orientation(nodes, tris),
                boundary_edges=np.array(bedges, dtype=np.int64), h=h, domain=domain,
                boundary_curve=np.array(bcurve, dtype=np.int64), boundary_t=np.array(bt))


def _mesh_polygon(domain: Domain, h: float) -> Mesh:
    v = domain.vertices
    if not _polygon_is_convex(v):
        raise UnsupportedDomainError(
            "nonconvex polygon: generate the mesh externally and load it with import_mesh_text")
    c = domain.center
    nodes = np.vstack([c[None, :], v])
    m = len(v)
    tris = np.array([(0, 1 + i, 1 + (i + 1) % m) for i in range(m)], dtype=np.int64)
    bedges = np.array([(1 + i, 1 + (i + 1) % m) for i in range(m)], dtype=np.int64)
    bcurve = np.arange(m, dtype=np.int64)
    bt = np.tile(np.array([0.0, 1.0]), (m, 1))
    mesh = Mesh(nodes=nodes, triangles=_fix_orientation(nodes, tris),
                boundary_edges=bedges, h=h, domain=domain,
                boundary_curve=bcurve, boundary_t=bt)
    edge_len = np.hypot(*(nodes[tris[:, 1]] - nodes[tris[:, 0]]).T).max()
    longest = max(edge_len, mesh.boundary_lengths().max())
    while longest > h:
        mesh = refine_mesh(mesh)
        longest *= 0.5
    mesh.h = h
    return mesh


def generate_mesh(domain: Domain, h: float) -> Mesh:
    """Structured mesh with target size h (must satisfy 0 < h < diameter/4)."""
    if not 0.0 < h < domain.diameter() / 4.0:
        raise MeshError("target size must be in (0, diameter/4)")
    if domain.kind in ("disc", "ellipse"):
        mesh = _mesh_disc_like(domain, h)
    elif domain.kind == "rect":
        mesh = _mesh_rect(domain, h)
    elif domain.kind == "stadium":
        mesh = _mesh_stadium(domain, h)
    elif domain.kind == "polygon":
        mesh = _mesh_polygon(domain, h)
    else:
        raise UnsupportedDomainError(f"no generator for {domain.kind!r}")
    validate_mesh(mesh)
    return mesh


# ---------------------------------------------------------------------------
# refinement


def refine_mesh(m: Mesh) -> Mesh:
    """Uniform 4-split; boundary midpoints are projected to the exact boundary.

    New nodes are numbered from num_nodes in the order their edges are first
    met walking edges ab, bc, ca of each triangle in turn.  Boundary edges
    must be triangle edges, as validate_mesh guarantees.  The result keeps
    `m` as its `parent` and the endpoints of each split edge as
    `parent_edges`, the hierarchy the eigensolver's multigrid walks.
    """
    V = m.num_nodes
    t = m.triangles.astype(np.int64)
    e = np.sort(t[:, [0, 1, 1, 2, 2, 0]].reshape(-1, 2), axis=1)
    codes, first, inv = np.unique(e[:, 0] * V + e[:, 1], return_index=True,
                                  return_inverse=True)
    rank = np.empty(len(codes), dtype=np.int64)
    rank[np.argsort(first)] = np.arange(len(codes))
    ab, bc, ca = (V + rank[inv.reshape(-1)]).reshape(-1, 3).T
    a, b, c = t.T
    tris = np.stack([a, ab, ca, ab, b, bc, ca, bc, c, ab, bc, ca], axis=1).reshape(-1, 3)
    edges = e[np.sort(first)]
    nodes = np.concatenate([m.nodes, (m.nodes[edges[:, 0]] + m.nodes[edges[:, 1]]) / 2.0])

    be = m.boundary_edges.astype(np.int64)
    bkey = np.sort(be, axis=1)
    bmid = V + rank[np.searchsorted(codes, bkey[:, 0] * V + bkey[:, 1])]
    has_curves = m.domain is not None and m.boundary_curve is not None
    bcurve = bt = None
    if has_curves:
        tm = 0.5 * (m.boundary_t[:, 0] + m.boundary_t[:, 1])
        for k in range(len(be)):
            nodes[bmid[k]] = m.domain.boundary_point(int(m.boundary_curve[k]), tm[k])
        bt = np.stack([m.boundary_t[:, 0], tm, tm, m.boundary_t[:, 1]], axis=1).reshape(-1, 2)
        bcurve = np.repeat(m.boundary_curve.astype(np.int64), 2)
    bedges = np.stack([be[:, 0], bmid, bmid, be[:, 1]], axis=1).reshape(-1, 2)

    return Mesh(nodes=nodes, triangles=_fix_orientation(nodes, tris),
                boundary_edges=bedges, h=m.h / 2.0, domain=m.domain,
                boundary_curve=bcurve, boundary_t=bt, parent=m, parent_edges=edges)


# ---------------------------------------------------------------------------
# text round-trip


def export_mesh_text(m: Mesh) -> str:
    lines = [f"nodes {m.num_nodes} triangles {len(m.triangles)} bedges {len(m.boundary_edges)}"]
    for x, y in m.nodes:
        lines.append(f"{x:.17g} {y:.17g}")
    for a, b, c in m.triangles:
        lines.append(f"{a} {b} {c}")
    for a, b in m.boundary_edges:
        lines.append(f"{a} {b}")
    return "\n".join(lines) + "\n"


def import_mesh_text(text: str) -> Mesh:
    lines = text.strip().split("\n")
    head = lines[0].split()
    if len(head) != 6 or head[0] != "nodes" or head[2] != "triangles" or head[4] != "bedges":
        raise MeshError("bad mesh header")
    nn, nt, nb = int(head[1]), int(head[3]), int(head[5])
    if len(lines) != 1 + nn + nt + nb:
        raise MeshError("mesh file line count does not match header")
    nodes = np.array([[float(v) for v in lines[1 + i].split()] for i in range(nn)])
    tris = np.array([[int(v) for v in lines[1 + nn + i].split()] for i in range(nt)],
                    dtype=np.int64)
    bedges = np.array([[int(v) for v in lines[1 + nn + nt + i].split()] for i in range(nb)],
                      dtype=np.int64)
    lens = np.hypot(*(nodes[tris[:, 1]] - nodes[tris[:, 0]]).T)
    mesh = Mesh(nodes=nodes, triangles=_fix_orientation(nodes, tris), boundary_edges=bedges,
                h=float(np.median(lens)))
    validate_mesh(mesh)
    return mesh
