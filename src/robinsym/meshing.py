"""Triangular meshes for the parametric shape families.

Structured generators: graded polar rings for disc/ellipse; one tensor grid
for rectangles and the stadium's central rectangle, whose graded half-ring
caps join its end columns by node index; for polygons a centroid fan if
convex and ear clipping otherwise, refined down to h.  Every mesh is bound
to its domain: boundary nodes lie on the exact boundary, and refinement
projects new boundary midpoints back onto it.  `locate` finds points in a
mesh, for the solvers' transfers between meshes that are not nested.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from typing import NamedTuple

import numpy as np

from .domains import Domain, _orient, _polygon_is_convex, piece_point


class MeshError(ValueError):
    """Mesh construction or validation failure."""


# The kernels that run once over all triangles or all mu segments of a mesh
# work this many at a time, so that their transients stop growing with the
# mesh: the triangle areas and P1 gradients (`_doubled_areas`,
# `fem._p1_geometry`), the load vector (`fem.load_vector`), the mu event and
# running sums (`levelset.build_mu_segments`), the edge values that every
# u* and f* computes afresh (`levelset.DistributionFunction.edge_values`)
# and the integral of a P1 field (`fem.field_integral`).  A kernel over
# segments x Gauss points passes its point count as `width`, so that a block
# holds at most this many points: the fixed and adaptive Lorentz rules on the
# mu side (`rearrange.lorentz_power_integral`, `_batched_segment_integral`)
# and on the disc side (`radial.RadialSolution.lorentz_power_integral`).
# Each block adds in the order the whole array would, so every output is
# bit-identical at any size.
# The size was set on build_mu_segments for the 52.4k-node ellipse, blocking
# the event sums only (tracemalloc above live memory: 2^14 peaked 9.2 MB,
# 2^16 11.5 MB, one block 14.3 MB).
_CHUNK = 1 << 14


def _blocks(n: int, width: int = 1):
    """range(n) as consecutive slices of _CHUNK // width rows (at least one),
    for a kernel that works on `width` values per row."""
    step = max(_CHUNK // width, 1)
    return (slice(lo, min(lo + step, n)) for lo in range(0, n, step))


class EdgeGraph(NamedTuple):
    """The undirected edges of a mesh, int32 and read-only: `edges[e]` is
    edge e as (lo, hi) node numbers, edges numbered in the order they are
    first met walking edges ab, bc, ca of each triangle in turn;
    `triangle_edges[t]` are the numbers of triangle t's edges ab, bc, ca and
    `boundary_ids[k]` that of boundary edge k."""

    edges: np.ndarray           # (E, 2)
    triangle_edges: np.ndarray  # (T, 3)
    boundary_ids: np.ndarray    # (B,)


def _frozen_graph(edges, triangle_edges, boundary_ids) -> EdgeGraph:
    graph = EdgeGraph(*(a.astype(np.int32, copy=False)
                         for a in (edges, triangle_edges, boundary_ids)))
    for a in graph:
        a.flags.writeable = False
    return graph


@dataclass
class Mesh:
    """Nodes, positively oriented triangles, and boundary edges, each
    directed with the mesh on its left: counterclockwise around the domain.

    `triangles` and `boundary_edges` are int32, as the edge graph's arrays
    are: `__post_init__` casts them, a copy only for a mesh built by hand,
    since the generators and `refine_mesh` build int32.  Products of node
    numbers, such as the edge keys lo * V + hi, are formed in int64.

    Every mesh is bound to its domain: boundary_curve / boundary_t bind
    each boundary edge to the domain's boundary parametrization, so that
    refinement can project midpoints.
    No target size is kept: h only sets a generator's resolution.

    `graph` is the mesh's `EdgeGraph`: `refine_mesh` hands its output the
    graph it built along with the split, and any other mesh computes its
    own on first use.  `dataclasses.replace` gives a mesh that computes it
    again.

    The arrays are made read-only on construction, because `fem` keeps
    solver data computed from them in the mesh's private store, which
    lives as long as the mesh; `dataclasses.replace` gives a mesh with an
    empty one.
    """

    nodes: np.ndarray           # (N, 2)
    triangles: np.ndarray       # (T, 3)
    boundary_edges: np.ndarray  # (B, 2)
    domain: Domain
    boundary_curve: np.ndarray  # (B,) int
    boundary_t: np.ndarray      # (B, 2) params of edge endpoints
    # refine_mesh output only: the mesh it split; node parent.num_nodes + e
    # is the midpoint of the parent's edge e
    parent: Mesh | None = field(default=None, repr=False, compare=False)
    _graph: EdgeGraph | None = field(default=None, init=False, repr=False, compare=False)
    _store: dict = field(default_factory=dict, init=False, repr=False, compare=False)

    def __post_init__(self):
        self.triangles = self.triangles.astype(np.int32, copy=False)
        self.boundary_edges = self.boundary_edges.astype(np.int32, copy=False)
        for a in (self.nodes, self.triangles, self.boundary_edges, self.boundary_curve,
                  self.boundary_t):
            a.flags.writeable = False

    @property
    def graph(self) -> EdgeGraph:
        if self._graph is None:
            self._graph = _edge_graph(self)
        return self._graph

    @property
    def num_nodes(self) -> int:
        return len(self.nodes)

    def triangle_areas(self):
        return 0.5 * _doubled_areas(self.nodes, self.triangles)

    def area(self) -> float:
        return float(self.triangle_areas().sum())

    def boundary_lengths(self):
        e = self.nodes[self.boundary_edges]
        return np.hypot(*(e[:, 1] - e[:, 0]).T)

    def boundary_length(self) -> float:
        return float(self.boundary_lengths().sum())


def _corners(tris, j):
    """The node numbers of corners 0, 1 and 2 of the triangles in block j, as
    three contiguous intp arrays: a gather through the strided int32 columns
    of tris would convert its index to intp on every gather."""
    return tris[j].T.astype(np.intp)


def _doubled_areas(nodes, tris):
    """Twice the signed area of each triangle, gathered one coordinate at a
    time, a block of triangles at a time."""
    x, y = nodes[:, 0], nodes[:, 1]
    out = np.empty(len(tris))
    for j in _blocks(len(tris)):
        t0, t1, t2 = _corners(tris, j)
        x0, y0 = x[t0], y[t0]
        out[j] = (x[t1] - x0) * (y[t2] - y0) - (y[t1] - y0) * (x[t2] - x0)
    return out


def _fix_orientation(nodes, tris, tri_edges=None):
    """Turns each negatively oriented triangle a, b, c to a, c, b in place,
    and its row of tri_edges, if given, from ab, bc, ca to ca, bc, ab."""
    flip = _doubled_areas(nodes, tris) < 0
    tris[flip] = tris[flip][:, [0, 2, 1]]
    if tri_edges is not None:
        tri_edges[flip] = tri_edges[flip][:, [2, 1, 0]]
    return tris


def _edge_keys(a, b, V):
    """The undirected edges a-b as int64 keys min * V + max."""
    a, b = a.astype(np.int64), b.astype(np.int64)
    return np.minimum(a, b) * V + np.maximum(a, b)


def _edge_graph(m: Mesh) -> EdgeGraph:
    """m's `EdgeGraph` by sorting the edge keys of its triangles."""
    V = m.num_nodes
    t = m.triangles
    # edges ab, bc, ca of each triangle in turn, as keys lo * V + hi; only
    # the keys are kept through the sort, and the edges are read back off them
    s = t[:, [1, 2, 0]]
    keys = np.minimum(t, s).astype(np.int64)
    keys *= V
    keys += np.maximum(t, s)
    del s
    codes, first, inv = np.unique(keys, return_index=True, return_inverse=True)
    del keys
    order = np.argsort(first)  # the edges in first-met order
    rank = np.empty(len(order), dtype=np.int64)
    rank[order] = np.arange(len(order))
    edges = np.stack(np.divmod(codes[order], V), axis=1)
    be = m.boundary_edges
    k = np.searchsorted(codes, _edge_keys(be[:, 0], be[:, 1], V))
    ids = rank[np.minimum(k, len(codes) - 1)]
    if not np.array_equal(edges[ids], np.sort(be, axis=1)):
        raise MeshError("a boundary edge is not a triangle edge")
    return _frozen_graph(edges, rank[inv].reshape(-1, 3), ids)


def validate_mesh(m: Mesh):
    """Index, positivity and edge-ownership checks; raises MeshError on
    violation."""
    V, t, be = m.num_nodes, m.triangles, m.boundary_edges
    if len(t) == 0 or t.min() < 0 or t.max() >= V:
        raise MeshError("no triangles, or a triangle node index out of range")
    if not np.all(m.triangle_areas() > 0):  # a NaN area fails too
        raise MeshError("nonpositive triangle area")
    keys, counts = np.unique(_edge_keys(t.ravel(), t[:, [1, 2, 0]].ravel(), V),
                             return_counts=True)
    if counts.max() > 2:
        raise MeshError("edge shared by more than two triangles")
    # a node index outside [0, V) could alias another edge's key
    inside = len(be) == 0 or (be.min() >= 0 and be.max() < V)
    # sorted, not unique: a boundary edge listed twice does not match
    if not (inside and np.array_equal(keys[counts == 1],
                                      np.sort(_edge_keys(be[:, 0], be[:, 1], V)))):
        raise MeshError("boundary edge list does not match single-owner edges")


# ---------------------------------------------------------------------------
# generators


def _stitch(inner, outer, span):
    """Triangles between two rings of node indices that sweep the same angle
    `span`, nodes equally spaced and both ends included (a closed ring repeats
    its first node): an angular merge.  Step k advances the ring whose next
    node comes first, the inner one on ties, from inner[p], outer[q] to
    inner[p + 1] or outer[q + 1].  A one-node inner ring gives a fan."""
    inner, outer = np.asarray(inner), np.asarray(outer)
    m, n = len(inner) - 1, len(outer) - 1
    ends = np.concatenate([span * np.arange(1, m + 1) / m, span * np.arange(1, n + 1) / n])
    step_inner = np.argsort(ends, kind="stable") < m
    p = np.cumsum(step_inner) - step_inner
    q = np.arange(m + n) - p
    third = np.where(step_inner, inner[np.minimum(p + 1, m)], outer[np.minimum(q + 1, n)])
    return np.stack([inner[p], outer[q], third], axis=1)


def _disc_topology(rings):
    """Node layout and triangles of the graded-ring template on the unit disc.

    Returns (rho, theta, triangles, ring_of_outer_nodes): ring i carries 8*i
    nodes; consecutive rings are stitched by `_stitch`.
    """
    counts = 8 * np.arange(rings + 1)
    counts[0] = 1
    starts = np.concatenate([[0], np.cumsum(counts)]).astype(np.int32)
    rho = np.repeat(np.arange(rings + 1) / rings, counts)
    theta = np.concatenate([2.0 * math.pi * np.arange(n) / n for n in counts])
    closed = [starts[:1]] + [np.append(np.arange(starts[i], starts[i + 1], dtype=np.int32),
                                       starts[i]) for i in range(1, rings + 1)]
    tris = np.concatenate([_stitch(lo, hi, 2.0 * math.pi) for lo, hi in zip(closed, closed[1:])])
    return rho, theta, tris, closed[-1][:-1]


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
                boundary_edges=bedges, domain=domain,
                boundary_curve=np.zeros(n, dtype=np.int64), boundary_t=bt)


def _grid(x0, y0, sx, sy, nx, ny):
    """The nx-by-ny tensor grid with corner (x0, y0) and steps sx, sy: its
    nodes, the (nx+1, ny+1) array of their numbers (i-major) and the triangles
    (a, b, c), (a, c, d) of each cell a, b, c, d counterclockwise."""
    idx = np.arange((nx + 1) * (ny + 1), dtype=np.int32).reshape(nx + 1, ny + 1)
    xx, yy = np.meshgrid(x0 + np.arange(nx + 1) * sx, y0 + np.arange(ny + 1) * sy,
                         indexing="ij")
    a, b, c, d = (q.ravel() for q in (idx[:-1, :-1], idx[1:, :-1], idx[1:, 1:], idx[:-1, 1:]))
    tris = np.stack([a, b, c, a, c, d], axis=1).reshape(-1, 3)
    return np.stack([xx.ravel(), yy.ravel()], axis=1), idx, tris


def _bound(runs):
    """Boundary edges and their curve binding from the counterclockwise runs
    (node indices, parameters at those nodes); run c lies on curve c."""
    return dict(
        boundary_edges=np.concatenate([np.stack([v[:-1], v[1:]], axis=1) for v, _ in runs]),
        boundary_curve=np.repeat(np.arange(len(runs)), [len(v) - 1 for v, _ in runs]),
        boundary_t=np.concatenate([np.stack([t[:-1], t[1:]], axis=1) for _, t in runs]))


def _mesh_rect(domain: Domain, h: float) -> Mesh:
    """Tensor grid; side c is curve c, parametrized by the fraction along it."""
    w, hh, cx, cy = domain.params
    nx = max(1, round(w / h))
    ny = max(1, round(hh / h))
    nodes, idx, tris = _grid(cx - w / 2, cy - hh / 2, w / nx, hh / ny, nx, ny)
    nodes[idx[-1], 0] = cx + w / 2
    nodes[idx[:, -1], 1] = cy + hh / 2
    along_x, along_y = np.arange(nx + 1) / nx, np.arange(ny + 1) / ny
    runs = [(idx[:, 0], along_x), (idx[-1], along_y), (idx[::-1, -1], along_x),
            (idx[0, ::-1], along_y)]
    return Mesh(nodes=nodes, triangles=_fix_orientation(nodes, tris), domain=domain,
                **_bound(runs))


def _mesh_stadium(domain: Domain, h: float) -> Mesh:
    """Tensor grid on the central rectangle, 2*mc cells across the diameter,
    and a graded half-disc on each end whose ring k carries 4k arcs, half the
    disc template's 8k; the rings are `_stitch`ed as on the disc.  A cap's
    centre is node mc of the rectangle's end column (read top to bottom on
    the left), and its ring k runs from column node mc - k through 4k - 1 new
    nodes to column node mc + k.  New nodes are numbered right cap first."""
    l, r, cx, cy = domain.params
    mc = max(2, int(math.ceil(2.0 * r / h)))
    sy = r / mc
    nx = max(1, round(l / sy))
    nodes, idx, tris = _grid(cx - l / 2, cy - r, l / nx, sy, nx, 2 * mc)
    nodes, tris, arcs = [nodes], [tris], []
    for column, x0, th0 in ((idx[-1], cx + l / 2, -math.pi / 2),
                            (idx[0, ::-1], cx - l / 2, math.pi / 2)):
        ring = column[[mc]]
        for k in range(1, mc + 1):
            theta = th0 + math.pi * np.arange(1, 4 * k) / (4 * k)
            new = sum(map(len, nodes)) + np.arange(4 * k - 1, dtype=np.int32)
            nodes.append(np.stack([x0 + k * sy * np.cos(theta),
                                   cy + k * sy * np.sin(theta)], axis=1))
            outer = np.concatenate([column[[mc - k]], new, column[[mc + k]]])
            tris.append(_stitch(ring, outer, math.pi))
            ring = outer
        arcs.append(ring)
    nodes, tris = np.concatenate(nodes), np.concatenate(tris)
    along, arc = np.arange(nx + 1) / nx, math.pi * np.arange(4 * mc + 1) / (4 * mc)
    runs = [(idx[:, 0], along), (arcs[0], -math.pi / 2 + arc), (idx[::-1, -1], along),
            (arcs[1], math.pi / 2 + arc)]
    return Mesh(nodes=nodes, triangles=_fix_orientation(nodes, tris), domain=domain,
                **_bound(runs))


def _ear_clip(v):
    """Triangles (as vertex numbers) of the counterclockwise simple polygon v
    by ear clipping (Meisters 1975).  An ear is a convex corner whose
    triangle holds no other remaining vertex, not even on its border; each
    step cuts the ear whose smallest angle is largest."""
    left = np.arange(len(v), dtype=np.int32)
    tris = []
    while len(left) > 3:
        n = len(left)
        a, b, c = (v[np.roll(left, s)] for s in (1, 0, -1))  # the corner at each vertex
        p = v[left][None]
        inside = ((_orient(a[:, None], b[:, None], p) >= 0)
                  & (_orient(b[:, None], c[:, None], p) >= 0)
                  & (_orient(c[:, None], a[:, None], p) >= 0))
        inside[np.arange(n)[:, None], (np.arange(n)[:, None] + [-1, 0, 1]) % n] = False
        sides = [q / np.hypot(*q.T)[:, None] for q in (b - a, c - b, a - c)]
        cosine = np.max([-(e * f).sum(axis=1) for e, f in zip(sides, sides[1:] + sides[:1])],
                        axis=0)  # of the ear's smallest angle
        cosine[(_orient(a, b, c) <= 0) | inside.any(axis=1)] = np.inf
        k = int(np.argmin(cosine))
        if cosine[k] == np.inf:
            raise MeshError("no ear to cut: the polygon is not simple")
        tris.append(left[[k - 1, k, (k + 1) % n]])
        left = np.delete(left, k)
    return np.array(tris + [left])


def _mesh_polygon(domain: Domain, h: float) -> Mesh:
    """A fan from the centroid if the polygon is convex, `_ear_clip`
    otherwise; then uniform refinement until no edge is longer than h.  The
    last mesh is returned without its ancestors, a chain root like every
    other generated mesh, with the graph refinement handed it."""
    v = domain.vertices
    m = len(v)
    ring = np.arange(m + 1, dtype=np.int32) % m  # the vertices, back to the first
    if _polygon_is_convex(v):
        nodes, ring = np.vstack([domain.center[None, :], v]), ring + 1
        tris = np.stack([np.zeros(m, dtype=np.int32), ring[:-1], ring[1:]], axis=1)
    else:
        nodes, tris = v, _ear_clip(v)
    side = np.array([0.0, 1.0])
    mesh = Mesh(nodes=nodes, triangles=_fix_orientation(nodes, tris), domain=domain,
                **_bound([(ring[i:i + 2], side) for i in range(m)]))
    p = nodes[mesh.triangles]
    longest = np.hypot(*(p - p[:, [1, 2, 0]]).reshape(-1, 2).T).max()
    while longest > h:
        mesh = refine_mesh(mesh)
        longest *= 0.5
    if mesh.parent is not None:
        root = replace(mesh, parent=None)
        root._graph = mesh.graph
        mesh = root
    return mesh


def _generate(domain: Domain, h: float) -> Mesh:
    """The family generator's mesh of domain at size h, unchecked."""
    if domain.kind in ("disc", "ellipse"):
        return _mesh_disc_like(domain, h)
    if domain.kind == "rect":
        return _mesh_rect(domain, h)
    if domain.kind == "stadium":
        return _mesh_stadium(domain, h)
    return _mesh_polygon(domain, h)


def generate_mesh(domain: Domain, h: float) -> Mesh:
    """Structured mesh with target size h (must satisfy 0 < h < diameter/4)."""
    if not 0.0 < h < domain.diameter() / 4.0:
        raise MeshError("target size must be in (0, diameter/4)")
    mesh = _generate(domain, h)
    validate_mesh(mesh)
    return mesh


def locate(mesh: Mesh, points):
    """(triangle, barycentric coordinates) of each point in mesh: the
    triangle that holds the point or, for a point outside every triangle
    (as across a curved boundary), the candidate whose smallest coordinate
    is largest, the first one on ties.

    Candidates come from buckets: a uniform grid over the mesh's bounding
    box with about two cells per triangle, but at most 256 cells a side,
    so that a cell number is a 16-bit key and sorts by radix.  Each
    triangle is listed in every cell its bounding box meets, a triangle
    with a boundary node in every cell within one cell of its box too, so
    that a point just outside the mesh finds it.  A point takes the
    triangles of the cell it falls in (clamped to the grid) or, if that
    cell has none, the triangles with a boundary node: a triangle holding
    the point would be listed in its cell."""
    points = np.asarray(points, dtype=float)
    c0, c1, c2 = mesh.nodes[mesh.triangles.T]
    T = len(c0)
    lo, hi = mesh.nodes.min(axis=0), mesh.nodes.max(axis=0)
    size = max(math.sqrt(float(np.prod(hi - lo)) / (2 * T)), float(np.max(hi - lo)) / 256)
    shape = np.clip(np.ceil((hi - lo) / size), 1, 256).astype(np.intp)

    def cell(xy):
        return np.clip(((xy - lo) / size).astype(np.intp), 0, shape - 1)

    on_boundary = np.zeros(mesh.num_nodes, dtype=bool)
    on_boundary[mesh.boundary_edges] = True
    outer = on_boundary[mesh.triangles].any(axis=1)
    pad = np.where(outer, size, 0.0)[:, None]
    first = cell(np.minimum(np.minimum(c0, c1), c2) - pad)
    span = cell(np.maximum(np.maximum(c0, c1), c2) + pad) - first + 1
    count = span[:, 0] * span[:, 1]
    owner = np.repeat(np.arange(T), count)
    k = np.arange(len(owner)) - np.repeat(np.cumsum(count) - count, count)
    row, col = np.divmod(k, np.repeat(span[:, 1], count))
    bucket = np.repeat(first @ (shape[1], 1), count) + row * shape[1] + col
    order = np.argsort(bucket.astype(np.uint16), kind="stable")
    table = np.concatenate([owner[order], np.flatnonzero(outer)])
    start = np.zeros(shape[0] * shape[1] + 1, dtype=np.intp)
    np.cumsum(np.bincount(bucket, minlength=len(start) - 1), out=start[1:])
    c = cell(points) @ (shape[1], 1)
    base, n = start[c], start[c + 1] - start[c]
    base[n == 0], n[n == 0] = len(owner), len(table) - len(owner)
    point = np.repeat(np.arange(len(points)), n)
    offset = np.cumsum(n) - n
    tri = table[np.arange(len(point)) - np.repeat(offset - base, n)]
    # l1 and l2 are linear in p - corner 0: l1 = (dx e2y - dy e2x) / d, l2 =
    # (dy e1x - dx e1y) / d for the edges e1, e2 from corner 0
    e1, e2 = (c1 - c0).T, (c2 - c0).T
    d = e1[0] * e2[1] - e1[1] * e2[0]
    dx = points[:, 0][point] - c0[:, 0][tri]
    dy = points[:, 1][point] - c0[:, 1][tri]
    bary = np.empty((3, len(point)))
    bary[1] = dx * (e2[1] / d)[tri] - dy * (e2[0] / d)[tri]
    bary[2] = dy * (e1[0] / d)[tri] - dx * (e1[1] / d)[tri]
    np.subtract(1.0, bary[1], out=bary[0])
    bary[0] -= bary[2]
    score = bary.min(axis=0)
    best = np.flatnonzero(score == np.maximum.reduceat(score, offset)[point])
    best = best[np.concatenate([[True], point[best[1:]] != point[best[:-1]]])]
    return tri[best], bary[:, best].T


# ---------------------------------------------------------------------------
# refinement


def refine_mesh(m: Mesh) -> Mesh:
    """Uniform 4-split; boundary midpoints are projected to the exact boundary.

    Node num_nodes + e is the midpoint of edge e of `m.graph`.  The result
    keeps `m` as its `parent`, the hierarchy the solvers' multigrid walks,
    and carries its own graph, built without a sort: edge e splits into the
    halves 2e (at its lo end) and 2e + 1 (at its hi end), parent triangle t
    adds the inner edges 2E + 3t + j, and one `np.minimum.at` over the new
    triangles' edges renumbers them in first-met order.
    """
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
    # the pieces once, the edges split by curve in one sort: linear in a polygon's size
    pieces, order = m.domain.boundary_pieces(), np.argsort(m.boundary_curve, kind="stable")
    curves, starts = np.unique(m.boundary_curve[order], return_index=True)
    for curve, on in zip(curves, np.split(order, starts[1:])):
        nodes[bmid[on]] = piece_point(pieces[curve], tm[on])
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
    # a child can turn over only at a projected midpoint: check the four
    # children of each triangle that owns a boundary edge
    on_boundary = np.zeros(E, dtype=bool)
    on_boundary[g.boundary_ids] = True
    rows = (4 * np.flatnonzero(on_boundary[g.triangle_edges].any(axis=1))[:, None]
            + np.arange(4)).ravel()
    near, near_edges = tris[rows], te[rows]
    _fix_orientation(nodes, near, near_edges)
    tris[rows], te[rows] = near, near_edges
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


# ---------------------------------------------------------------------------
# text export


def export_mesh_text(m: Mesh) -> str:
    lines = [f"nodes {m.num_nodes} triangles {len(m.triangles)} bedges {len(m.boundary_edges)}"]
    for x, y in m.nodes:
        lines.append(f"{x:.17g} {y:.17g}")
    for a, b, c in m.triangles:
        lines.append(f"{a} {b} {c}")
    for a, b in m.boundary_edges:
        lines.append(f"{a} {b}")
    return "\n".join(lines) + "\n"
