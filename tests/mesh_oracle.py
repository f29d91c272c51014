"""Loop references for the tensor-grid meshers in `robinsym.meshing`.

`_mesh_rect` and `_mesh_stadium` build the rectangle and stadium meshes one
cell and one node at a time, the stadium joining its caps to the central
rectangle through a dict of rounded coordinates.  The array generators must
reproduce them bit for bit.
"""

import math

import numpy as np

from robinsym.domains import Domain
from robinsym.meshing import Mesh, _fix_orientation, _stitch


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
                boundary_edges=np.array(bedges, dtype=np.int64), domain=domain,
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
    tris = np.array(tris, dtype=np.int64)
    return Mesh(nodes=nodes, triangles=_fix_orientation(nodes, tris),
                boundary_edges=np.array(bedges, dtype=np.int64), domain=domain,
                boundary_curve=np.array(bcurve, dtype=np.int64), boundary_t=np.array(bt))
