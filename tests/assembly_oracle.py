"""Element-by-element P1 assembly, kept as an independent test oracle.

It assembles the stiffness, boundary mass and mass matrices the way the
package did before it assembled them per edge: every element matrix goes
into one COO matrix, duplicates and all, and scipy sums the duplicates when
it converts to CSR.  The off-diagonal entries of the per-edge matrices must
equal these bit for bit; the diagonals sum in another order.  The load
vector evaluates the source at three edge midpoints per triangle and sums
all triangles' terms in one bincount; the package's per-edge, blockwise
load must equal it bit for bit.  It is not part of the package.
"""

import numpy as np
from scipy import sparse

from robinsym.fem import _check_admissible, _p1_geometry


def _assemble(n: int, elements: np.ndarray, data: np.ndarray) -> sparse.csr_matrix:
    """Sum element matrices into an n x n CSR matrix: for every local pair
    (i, j), row-major, row d * i + j of data holds one value per element at
    (elements[:, i], elements[:, j])."""
    d = elements.shape[1]
    index = elements.T.astype(np.int32)  # the index dtype coo_matrix keeps
    rows = np.repeat(index, d, axis=0).ravel()
    cols = np.tile(index, (d, 1)).ravel()
    return sparse.coo_matrix((data.ravel(), (rows, cols)), shape=(n, n)).tocsr()


def _mass_data(d, weight, denominator):
    """The data of an exact P1 mass matrix: weight * 2 / denominator on the
    diagonal, weight * 1 / denominator off it."""
    diag, off = weight * 2.0 / denominator, weight * 1.0 / denominator
    return np.stack([diag if i == j else off for i in range(d) for j in range(d)])


def stiffness_matrix(mesh):
    b, c, area = _p1_geometry(mesh)
    area4 = 4.0 * area
    data = np.empty((9, len(area)))
    for i in range(3):
        for j in range(3):
            np.divide(b[i] * b[j] + c[i] * c[j], area4, out=data[3 * i + j])
    return _assemble(mesh.num_nodes, mesh.triangles, data)


def boundary_mass_matrix(mesh):
    return _assemble(mesh.num_nodes, mesh.boundary_edges,
                     _mass_data(2, mesh.boundary_lengths(), 6.0))


def mass_matrix(mesh):
    return _assemble(mesh.num_nodes, mesh.triangles,
                     _mass_data(3, mesh.triangle_areas(), 12.0))


def robin_matrix(mesh, beta):
    return stiffness_matrix(mesh) + beta * boundary_mass_matrix(mesh)


def load_vector(mesh, f):
    t0, t1, t2 = mesh.triangles.T

    def midpoints(v):  # on edges 01, 12, 20
        v0, v1, v2 = v[t0], v[t1], v[t2]
        return np.stack([0.5 * (v0 + v1), 0.5 * (v1 + v2), 0.5 * (v2 + v0)], axis=1)

    fm = f.evaluate(midpoints(mesh.nodes[:, 0]), midpoints(mesh.nodes[:, 1]))
    _check_admissible(fm)
    # basis function i is 1/2 on the two edges touching vertex i, 0 opposite
    contrib = np.empty_like(fm)
    contrib[:, 0] = fm[:, 0] + fm[:, 2]
    contrib[:, 1] = fm[:, 0] + fm[:, 1]
    contrib[:, 2] = fm[:, 1] + fm[:, 2]
    contrib *= (mesh.triangle_areas() / 6.0)[:, None]
    return np.bincount(mesh.triangles.ravel(), contrib.ravel(), minlength=mesh.num_nodes)
