"""P1 finite elements for the Robin-Poisson problem and the principal eigenpair.

The boundary term beta * integral(u v) over the boundary uses exact edge-mass
blocks L/6 [[2,1],[1,2]]; no lumping, so the compatibility identity
beta * boundary_integral(u) = volume_integral(f) holds to solver tolerance.

The Robin-Poisson system is solved by one SuperLU factorization (symmetric
mode, minimum-degree ordering).  The principal eigenpair comes from nested
inverse iteration down the mesh's `refine_mesh` hierarchy: LU solves on the
coarsest mesh, then on each finer one CG preconditioned by a multigrid
V-cycle, started from the prolonged eigenvector of the mesh below.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy import sparse
from scipy.sparse.linalg import LinearOperator, cg, splu

from .meshing import Mesh


class SolverError(RuntimeError):
    """Linear or eigen solver failed: singular matrix, residual above its
    tolerance, or iteration cap exceeded."""

    def __init__(self, message, residual_history=None):
        super().__init__(message)
        self.residual_history = residual_history or []


class SourceError(ValueError):
    """Source term violates admissibility (nonnegative, not identically zero)."""


@dataclass
class SourceSpec:
    """Right-hand side: constant, callable f(x, y), nodal values, or a radial
    decreasing profile evaluated as f(|x - centroid|)."""

    kind: str                      # const | expr | nodal | radial
    value: float = 1.0
    fn: object = None
    values: np.ndarray | None = None
    centroid: tuple = (0.0, 0.0)
    label: str = ""

    def evaluate(self, x, y):
        x = np.asarray(x, dtype=float)
        y = np.asarray(y, dtype=float)
        if self.kind == "const":
            return np.full(x.shape, float(self.value))
        if self.kind == "expr":
            return np.asarray(self.fn(x, y), dtype=float)
        if self.kind == "radial":
            r = np.hypot(x - self.centroid[0], y - self.centroid[1])
            return np.asarray(self.fn(r), dtype=float)
        raise SourceError("nodal sources evaluate through their mesh")

    def nodal_values(self, mesh: Mesh):
        if self.kind == "nodal":
            v = np.asarray(self.values, dtype=float)
            if len(v) != mesh.num_nodes:
                raise SourceError("nodal source length does not match mesh")
            return v
        return self.evaluate(mesh.nodes[:, 0], mesh.nodes[:, 1])


def constant_source(c=1.0) -> SourceSpec:
    return SourceSpec(kind="const", value=c, label=f"const {c:g}")


def _check_admissible(vals):
    if np.any(vals < -1e-14):
        raise SourceError("source must be nonnegative")
    if not np.any(vals > 0):
        raise SourceError("source must not be identically zero")
    if not np.all(np.isfinite(vals)):
        raise SourceError("source must be square-integrable (finite values)")


@dataclass
class ScalarField:
    """Nodal values of a piecewise-linear function on a mesh."""

    mesh: Mesh
    values: np.ndarray

    @property
    def u_min(self) -> float:
        return float(self.values.min())

    @property
    def u_max(self) -> float:
        return float(self.values.max())


@dataclass
class SparseSystem:
    matrix: sparse.csr_matrix
    rhs: np.ndarray
    mesh: Mesh
    beta: float


def _p1_geometry(mesh: Mesh):
    p = mesh.nodes[mesh.triangles]
    b = np.stack([p[:, 1, 1] - p[:, 2, 1], p[:, 2, 1] - p[:, 0, 1], p[:, 0, 1] - p[:, 1, 1]], axis=1)
    c = np.stack([p[:, 2, 0] - p[:, 1, 0], p[:, 0, 0] - p[:, 2, 0], p[:, 1, 0] - p[:, 0, 0]], axis=1)
    d1 = p[:, 1] - p[:, 0]
    d2 = p[:, 2] - p[:, 0]
    area = 0.5 * (d1[:, 0] * d2[:, 1] - d1[:, 1] * d2[:, 0])
    return p, b, c, area


def _assemble(n: int, elements: np.ndarray, local) -> sparse.csr_matrix:
    """Sum element matrices into an n x n CSR matrix: for every local pair
    (i, j), row-major, local(i, j) holds one value per element at
    (elements[:, i], elements[:, j])."""
    d = elements.shape[1]
    pairs = [(i, j) for i in range(d) for j in range(d)]
    elements = elements.astype(np.int32)  # the index dtype coo_matrix keeps
    data = np.empty((len(pairs), len(elements)))
    for k, (i, j) in enumerate(pairs):
        data[k] = local(i, j)
    coo = sparse.coo_matrix((data.ravel(),
                             (np.concatenate([elements[:, i] for i, _ in pairs]),
                              np.concatenate([elements[:, j] for _, j in pairs]))),
                            shape=(n, n))
    return coo.tocsr()


def stiffness_matrix(mesh: Mesh) -> sparse.csr_matrix:
    b, c, area = _p1_geometry(mesh)[1:]
    return _assemble(mesh.num_nodes, mesh.triangles,
                     lambda i, j: (b[:, i] * b[:, j] + c[:, i] * c[:, j]) / (4.0 * area))


def boundary_mass_matrix(mesh: Mesh) -> sparse.csr_matrix:
    length = mesh.boundary_lengths()
    return _assemble(mesh.num_nodes, mesh.boundary_edges,
                     lambda i, j: length * (2.0 if i == j else 1.0) / 6.0)


def mass_matrix(mesh: Mesh) -> sparse.csr_matrix:
    area = mesh.triangle_areas()
    return _assemble(mesh.num_nodes, mesh.triangles,
                     lambda i, j: area * (2.0 if i == j else 1.0) / 12.0)


def load_vector(mesh: Mesh, f: SourceSpec) -> np.ndarray:
    """Load by 3-point (edge midpoint) quadrature, exact for quadratics."""
    if f.kind == "nodal":
        fn = f.nodal_values(mesh)
        fm = 0.5 * (fn[mesh.triangles][:, [0, 1, 2]] + fn[mesh.triangles][:, [1, 2, 0]])
    else:
        p = mesh.nodes[mesh.triangles]
        mids = 0.5 * (p + np.roll(p, -1, axis=1))  # midpoints of edges 01, 12, 20
        fm = f.evaluate(mids[..., 0], mids[..., 1])
    _check_admissible(fm)
    _, _, _, area = _p1_geometry(mesh)
    # basis function i is 1/2 on the two edges touching vertex i, 0 opposite
    contrib = np.empty_like(fm)
    contrib[:, 0] = fm[:, 0] + fm[:, 2]
    contrib[:, 1] = fm[:, 0] + fm[:, 1]
    contrib[:, 2] = fm[:, 1] + fm[:, 2]
    contrib *= (area / 6.0)[:, None]
    load = np.zeros(mesh.num_nodes)
    np.add.at(load, mesh.triangles.ravel(), contrib.ravel())
    return load


def assemble_robin_system(mesh: Mesh, f: SourceSpec, beta: float) -> SparseSystem:
    if beta <= 0:
        raise ValueError("beta must be positive")
    A = stiffness_matrix(mesh) + beta * boundary_mass_matrix(mesh)
    rhs = load_vector(mesh, f)
    return SparseSystem(matrix=A, rhs=rhs, mesh=mesh, beta=beta)


def _factor(A):
    """SuperLU factor of the SPD matrix A.  SuperLU runs in symmetric mode: a
    minimum-degree ordering of A + A^T and no pivoting keep the fill at
    Cholesky shape."""
    try:
        return splu(A.tocsc(), permc_spec="MMD_AT_PLUS_A", diag_pivot_thresh=0.0,
                    options=dict(SymmetricMode=True))
    except RuntimeError as exc:
        raise SolverError(f"singular matrix on {A.shape[0]} nodes: {exc}") from exc


def solve_poisson(system: SparseSystem) -> ScalarField:
    """One sparse LU factorization and one solve; guarantees relative residual
    <= 1e-10 or raises SolverError."""
    A, b = system.matrix, system.rhs
    x = _factor(A).solve(b)
    resid = float(np.linalg.norm(b - A @ x)) / float(np.linalg.norm(b))
    if not resid <= 1e-10:
        raise SolverError(f"LU solve left relative residual {resid:.3e}", [resid])
    return ScalarField(mesh=system.mesh, values=x)


def solve_robin_poisson(mesh: Mesh, f: SourceSpec, beta: float) -> ScalarField:
    return solve_poisson(assemble_robin_system(mesh, f, beta))


# inverse iteration stops when lambda changes by at most _EIGEN_TOL relative,
# and fails after _EIGEN_MAXITER steps; each inner PCG solve stops at relative
# residual _PCG_TOL and fails after _PCG_MAXITER iterations
_EIGEN_TOL = 1e-10
_EIGEN_MAXITER = 200
_PCG_TOL = 1e-13
_PCG_MAXITER = 500
# the V-cycle smoother: damped Jacobi, this weight, this many sweeps on each side
_JACOBI_OMEGA = 0.6
_JACOBI_SWEEPS = 2


def _prolongation(mesh: Mesh) -> sparse.csr_matrix:
    """P1 interpolation from mesh.parent to mesh: an old node keeps its value,
    a new node takes the mean of its parent edge's two endpoints."""
    V, n_new = mesh.parent.num_nodes, len(mesh.parent_edges)
    indptr = np.concatenate([np.arange(V + 1), V + 2 * np.arange(1, n_new + 1)])
    indices = np.concatenate([np.arange(V), mesh.parent_edges.ravel()])
    data = np.concatenate([np.ones(V), np.full(2 * n_new, 0.5)])
    return sparse.csr_matrix((data, indices, indptr), shape=(mesh.num_nodes, V))


def _vcycle(levels, lu, r):
    """One symmetric V-cycle for the matrix of levels[-1]: damped Jacobi
    before and after each coarse-grid correction, the root's LU at the
    bottom.  levels[j] = (A, omega / diag(A), P), P prolonging from level
    j - 1; the root itself is not in the list."""
    stack = []
    for A, dinv, P in reversed(levels):
        x = dinv * r  # the first sweep, from x = 0
        for _ in range(_JACOBI_SWEEPS - 1):
            x += dinv * (r - A @ x)
        stack.append((x, r))
        r = P.T @ (r - A @ x)
    x = lu.solve(r)
    for (A, dinv, P), (x_pre, r) in zip(levels, reversed(stack)):
        x = x_pre + P @ x
        for _ in range(_JACOBI_SWEEPS):
            x += dinv * (r - A @ x)
    return x


def _pcg(A, b, x0, precondition):
    x, info = cg(A, b, x0=x0, rtol=_PCG_TOL, atol=0.0, maxiter=_PCG_MAXITER,
                 M=LinearOperator(A.shape, matvec=precondition, dtype=float))
    if info:
        resid = float(np.linalg.norm(b - A @ x)) / float(np.linalg.norm(b))
        raise SolverError(f"PCG hit its cap of {_PCG_MAXITER} iterations on {A.shape[0]}"
                          f" nodes at relative residual {resid:.3e}", [resid])
    return x


def _inverse_iteration(A, M, w, solve):
    """Inverse power iteration from w; solve(b, x0) solves A z = b from the
    guess x0.  Returns lambda and the M-normalized eigenvector."""
    w = w / math.sqrt(w @ (M @ w))
    lam = float(w @ (A @ w))
    for _ in range(_EIGEN_MAXITER):
        z = solve(M @ w, w / lam)
        nz = math.sqrt(z @ (M @ z))
        if nz == 0:
            raise SolverError("inverse iteration produced the zero vector")
        w = z / nz
        lam_new = float(w @ (A @ w))
        if abs(lam_new - lam) <= _EIGEN_TOL * abs(lam_new):
            return lam_new, w
        lam = lam_new
    raise SolverError(f"eigen iteration cap {_EIGEN_MAXITER} exceeded")


def _nested_eigenpair(mesh: Mesh, beta: float):
    """Nested inverse iteration down mesh's parent chain: LU solves on the
    root, then on each finer mesh V-cycle PCG from the prolonged
    eigenvector (full-multigrid eigensolver; Brandt, McCormick and Ruge,
    SIAM J. Sci. Stat. Comput. 1983)."""
    chain = [mesh]
    while chain[-1].parent is not None:
        chain.append(chain[-1].parent)
    # assembly sets the peak memory, so every level is assembled, finest
    # first, before the root's LU factor exists
    systems = [(m, stiffness_matrix(m) + beta * boundary_mass_matrix(m), mass_matrix(m))
               for m in chain]
    _, A, M = systems.pop()
    lu = _factor(A)
    lam, w = _inverse_iteration(A, M, np.ones(A.shape[0]), lambda b, x0: lu.solve(b))
    levels = []
    for m, A, M in reversed(systems):
        P = _prolongation(m)
        levels.append((A, _JACOBI_OMEGA / A.diagonal(), P))
        lam, w = _inverse_iteration(
            A, M, P @ w, lambda b, x0: _pcg(A, b, x0, lambda r: _vcycle(levels, lu, r)))
    return lam, w


def principal_robin_eigenpair(mesh: Mesh, beta: float):
    """Smallest eigenvalue of (K + beta B) w = lambda M w and its
    eigenfunction, positive with unit L2 norm (`_nested_eigenpair`)."""
    if beta <= 0:
        raise ValueError("beta must be positive")
    lam, w = _nested_eigenpair(mesh, beta)
    if w.sum() < 0:
        w = -w
    return lam, ScalarField(mesh=mesh, values=w)


# ---------------------------------------------------------------------------
# integration

# 7-point Radon rule, degree 5, barycentric coordinates and weights
_RADON_BARY = np.array([
    [1 / 3, 1 / 3, 1 / 3],
    [0.059715871789770, 0.470142064105115, 0.470142064105115],
    [0.470142064105115, 0.059715871789770, 0.470142064105115],
    [0.470142064105115, 0.470142064105115, 0.059715871789770],
    [0.797426985353087, 0.101286507323456, 0.101286507323456],
    [0.101286507323456, 0.797426985353087, 0.101286507323456],
    [0.101286507323456, 0.101286507323456, 0.797426985353087],
])
_RADON_W = np.array([0.225, 0.132394152788506, 0.132394152788506, 0.132394152788506,
                     0.125939180544827, 0.125939180544827, 0.125939180544827])


def field_integral(u: ScalarField) -> float:
    """Exact integral of the piecewise-linear interpolant."""
    _, _, _, area = _p1_geometry(u.mesh)
    return float(np.sum(area * u.values[u.mesh.triangles].mean(axis=1)))


def field_integral_pow(u: ScalarField, p: float) -> float:
    """Integral of |u|^p; exact for p = 1, 2 on one-signed fields, 7-point
    quadrature (degree 5) otherwise."""
    _, _, _, area = _p1_geometry(u.mesh)
    v = u.values[u.mesh.triangles]
    if p == 1.0 and (u.values >= 0).all():
        return float(np.sum(area * v.mean(axis=1)))
    if p == 2.0:
        s = v.sum(axis=1)
        return float(np.sum(area / 12.0 * (s * s + (v * v).sum(axis=1))))
    vals = np.abs(v @ _RADON_BARY.T) ** p
    return float(np.sum(area * (vals @ _RADON_W)))


def boundary_integral(u: ScalarField) -> float:
    """Exact boundary integral of the trace (edge trapezoid = exact for P1)."""
    e = u.mesh.boundary_edges
    length = u.mesh.boundary_lengths()
    return float(np.sum(length * 0.5 * (u.values[e[:, 0]] + u.values[e[:, 1]])))


def integrate_field(u: ScalarField, mode: str = "l1", p: float | None = None) -> float:
    """Dispatch: 'l1'/'l2'/'lp' integrate |u|^p over the domain (returning the
    integral, not the norm); 'boundary_l1' integrates |u| over the boundary."""
    if mode == "l1":
        return field_integral_pow(u, 1.0)
    if mode == "l2":
        return field_integral_pow(u, 2.0)
    if mode == "lp":
        if p is None or p < 1:
            raise ValueError("lp mode needs p >= 1")
        return field_integral_pow(u, float(p))
    if mode == "boundary_l1":
        return boundary_integral(ScalarField(u.mesh, np.abs(u.values)))
    raise ValueError(f"unknown mode {mode!r}")


def nodal_source_field(mesh: Mesh, f: SourceSpec) -> ScalarField:
    """Interpolate a source onto the mesh (used to rearrange f)."""
    vals = f.nodal_values(mesh)
    _check_admissible(vals)
    return ScalarField(mesh=mesh, values=np.maximum(vals, 0.0))
