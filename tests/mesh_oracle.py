"""References for the tensor-grid meshers and the refinement in
`robinsym.meshing`.

`_mesh_rect` and `_mesh_stadium` build the rectangle and stadium meshes one
cell and one node at a time, the stadium joining its caps to the central
rectangle through a dict of rounded coordinates.  `refine_mesh` checks the
orientation of every child.  The package's generators and refinement must
reproduce them bit for bit.  `one_owner_edges` reads a mesh's directed
boundary off its triangles alone.
"""

import math

import numpy as np

from robinsym.domains import Domain, parse_domain_spec, piece_point
from robinsym.meshing import Mesh, _fix_orientation, _frozen_graph, _stitch


def hand_mesh(nodes, triangles, boundary_edges, domain="polygon 0,0 1,0 0,1") -> Mesh:
    """A mesh built node by node, bound to `domain` (a Domain or a spec) with
    boundary edge k on curve k, parameters 0 to 1: the binding of an
    unrefined polygon mesh whose boundary edges are the polygon's sides in
    order.  Any other boundary list, such as the deliberately wrong ones of
    the validation tests, gets the same binding; only refinement reads it."""
    if isinstance(domain, str):
        domain = parse_domain_spec(domain)
    boundary_edges = np.asarray(boundary_edges)
    count = len(boundary_edges)
    return Mesh(nodes=np.asarray(nodes, dtype=float), triangles=np.asarray(triangles),
                boundary_edges=boundary_edges, domain=domain,
                boundary_curve=np.arange(count), boundary_t=np.tile([0.0, 1.0], (count, 1)))


def one_owner_edges(mesh: Mesh) -> np.ndarray:
    """The edges of the positively oriented triangles that belong to one
    triangle only, directed as their triangle runs: the boundary edges, with
    the mesh on their left."""
    tris = mesh.triangles
    edges = np.concatenate([tris[:, [0, 1]], tris[:, [1, 2]], tris[:, [2, 0]]])
    lo, hi = np.sort(edges, axis=1).astype(np.int64).T
    _, inverse, counts = np.unique(lo * mesh.num_nodes + hi, return_inverse=True,
                                   return_counts=True)
    return edges[counts[inverse] == 1]


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
    tris = np.array(tris, dtype=np.int32)
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
                boundary_edges=np.array(bedges, dtype=np.int32), domain=domain,
                boundary_curve=np.array(bcurve, dtype=np.int64),
                boundary_t=np.array(bt))


def _mesh_stadium(domain: Domain, h: float) -> Mesh:
    """Tensor grid on the central rectangle, 2*mc cells across the diameter,
    and a graded half-disc on each end whose ring k carries 4k arcs, half the
    disc template's 8k; the rings are `_stitch`ed as on the disc and end on
    the rectangle's end columns."""
    l, r, cx, cy = domain.params
    mc = max(2, int(math.ceil(2.0 * r / h)))
    sy = r / mc
    nx = max(1, round(l / sy))
    sx = l / nx
    kang = 4 * mc  # boundary arcs per cap: ring k carries 4k

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
        """Graded half-disc centered (x0, cy), angles th0 .. th0 + pi; add()
        merges each ring's two end nodes into the rectangle's end column."""
        rings = [[add(x0, cy)]]
        for k in range(1, mc + 1):
            rk = k * sy
            rings.append([add(x0 + rk * math.cos(th0 + math.pi * m / (4 * k)),
                              cy + rk * math.sin(th0 + math.pi * m / (4 * k)))
                          for m in range(4 * k + 1)])
        for lo, hi in zip(rings, rings[1:]):
            tris.extend(_stitch(lo, hi, math.pi).tolist())
        return rings[-1]

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
    tris = np.array(tris, dtype=np.int32)
    return Mesh(nodes=nodes, triangles=_fix_orientation(nodes, tris),
                boundary_edges=np.array(bedges, dtype=np.int32), domain=domain,
                boundary_curve=np.array(bcurve, dtype=np.int64), boundary_t=np.array(bt))


def refine_mesh(m: Mesh) -> Mesh:
    """The uniform 4-split of `meshing.refine_mesh`, with `_fix_orientation`
    over all 4T children instead of the children of the triangles that own
    a boundary edge."""
    V, g = m.num_nodes, m.graph
    E, T = len(g.edges), len(m.triangles)
    a, b, c = m.triangles.T
    eab, ebc, eca = g.triangle_edges.T
    ab, bc, ca = V + eab, V + ebc, V + eca
    tris = np.stack([a, ab, ca, ab, b, bc, ca, bc, c, ab, bc, ca], axis=1).reshape(-1, 3)
    nodes = np.concatenate([m.nodes, (m.nodes[g.edges[:, 0]] + m.nodes[g.edges[:, 1]]) / 2.0])
    be = m.boundary_edges
    bmid = V + g.boundary_ids
    tm = 0.5 * (m.boundary_t[:, 0] + m.boundary_t[:, 1])
    for curve in np.unique(m.boundary_curve):
        on = m.boundary_curve == curve
        nodes[bmid[on]] = piece_point(m.domain.boundary_pieces()[curve], tm[on])
    bt = np.stack([m.boundary_t[:, 0], tm, tm, m.boundary_t[:, 1]], axis=1).reshape(-1, 2)
    bcurve = np.repeat(m.boundary_curve.astype(np.int64), 2)
    bedges = np.stack([be[:, 0], bmid, bmid, be[:, 1]], axis=1).reshape(-1, 2)

    # The new edges, int32 as (lo, hi): the halves, then ab-bc, bc-ca and
    # ca-ab of each parent triangle.  Edge p-q's half at p is 2e + (p > q).
    pairs = np.empty((2 * E + 3 * T, 2), dtype=np.int32)
    pairs[:2 * E, 0] = g.edges.ravel()
    pairs[:2 * E, 1] = np.repeat(np.arange(V, V + E, dtype=np.int32), 2)
    for j, (p, q) in enumerate([(ab, bc), (bc, ca), (ca, ab)]):
        pairs[2 * E + j::3] = np.stack([np.minimum(p, q), np.maximum(p, q)], axis=1)
    inner = 2 * E + 3 * np.arange(T, dtype=np.int32)
    te = np.stack([2 * eab + (a > b), inner + 2, 2 * eca + (a > c),
                   2 * eab + (b > a), 2 * ebc + (b > c), inner,
                   inner + 1, 2 * ebc + (c > b), 2 * eca + (c > a),
                   inner, inner + 1, inner + 2], axis=1).reshape(-1, 3)
    _fix_orientation(nodes, tris, te)
    # renumber in first-met order
    first = np.full(len(pairs), te.size, dtype=np.int32)
    np.minimum.at(first, te.ravel(), np.arange(te.size, dtype=np.int32))
    met = np.zeros(te.size, dtype=bool)
    met[first] = True
    order = te.ravel()[met]
    rank = np.empty(len(order), dtype=np.int32)
    rank[order] = np.arange(len(order), dtype=np.int32)
    p, q = be.T
    graph = _frozen_graph(pairs[order], rank[te], rank[np.stack(
        [2 * g.boundary_ids + (p > q), 2 * g.boundary_ids + (q > p)], axis=1).ravel()])
    child = Mesh(nodes=nodes, triangles=tris, boundary_edges=bedges, domain=m.domain,
                 boundary_curve=bcurve, boundary_t=bt, parent=m)
    child._graph = graph
    return child
