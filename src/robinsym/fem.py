"""P1 finite elements for the Robin-Poisson problem and the principal eigenpair.

The boundary term beta * integral(u v) over the boundary uses exact edge-mass
blocks L/6 [[2,1],[1,2]]; no lumping, so the compatibility identity
beta * boundary_integral(u) = volume_integral(f) holds to solver tolerance.
Matrices are assembled per edge of the mesh's edge graph (`Mesh.graph`): an
edge's entry is the bincount of its one or two triangle terms (the
cotangent formula; Pinkall and Polthier, Exp. Math. 2, 1993), a node's that
of its triangles' terms, and one COO without duplicates becomes the CSR.

Both solvers share one multigrid hierarchy per mesh: its `refine_mesh`
parent chain and, under the chain root, coarse levels of the root's own
domain (`_coarse`).  These are the domain meshed afresh at sizes halving
from just under the generator's limit, diameter/4, up to the last mesh
with at most 0.6 of the root's nodes (a polygon's are its first mesh
refined, as its generator makes them); each transfer is P1 interpolation
of the coarser mesh at the finer level's nodes (`meshing.locate`), and the
coarse matrices are the Galerkin products P^T A P down from the root's
Robin matrix (non-nested coarse spaces with inherited operators converge
as nested ones do; Bramble, Pasciak and Xu, Math. Comp. 56, 1991).  Every
V-cycle ends in one dense solve on its coarsest level: the last coarse
mesh with at most _DENSE nodes, or the root itself if it is that small.
Where no mesh is that small (a polygon is never meshed coarser than its
vertices), smoothed-aggregation levels continue below the coarsest mesh
until one is.  The coarsest matrix is checked by a float64 Cholesky
factor, so that a singular one raises SolverError naming its node count,
and its inverse is applied in float32.  The Robin-Poisson system is
solved by CG preconditioned by the V-cycle on every mesh, the root
included, to a relative residual of at most 1e-10.  The principal
eigenpair comes from nested LOBPCG, one V-cycle per step, started from
the ones vector on the root and above it from the prolonged eigenvector
of the mesh below.

The V-cycle runs in single precision: its level matrices (float32 entries
sharing the float64 matrix's index arrays), Jacobi weights, prolongations
and restrictions, and the coarsest inverse.  A preconditioner needs only a
few correct digits, so the residual is rounded to float32 on the way in
and the correction widened on the way out, while the Krylov recurrences,
every dot product and the residual checks stay in float64 (Carson and
Higham, SIAM J. Sci. Comput. 40, 2018).  CG stops at 1e-13 or at the
rounding floor of its true residual, whichever comes first.

The Krylov solvers work in fixed working sets.  CG is a loop of its own
with the recurrence of SciPy's `cg`, LOBPCG keeps its three blocks and
their A and M images in one (3, 3, n) array updated in place, and the
V-cycle's Jacobi sweeps update in place.  Nothing comes from SciPy's
sparse linear algebra, so `scipy.sparse.linalg` is never loaded.

The hierarchy is built once per mesh chain.  Each mesh keeps, per beta, in
its private store (`Mesh._store`, living as long as the mesh): the Robin
matrix `assemble_robin_system` returns, the coarse levels and coarsest
inverse if the mesh is a chain root, and the raw principal eigenpair.  So
every source on a ladder solves against the same coarse levels, and each
rung's eigenpair continues from the stored one of the rung below.  A root
matrix that is not the stored one gets coarse levels for that solve only.
`assemble_robin_system` is the only writer of a Robin matrix: one that a
solver needs on a mesh the system was never assembled on is assembled for
that call.  Nothing else is kept there: mass matrices, prolongations and
Jacobi weights of the refinement levels are cheap to form again, and
keeping them, or a Robin matrix that only the eigensolver assembled,
raised peak memory without saving time.  The edge graph that assembly and
prolongation read belongs to the mesh itself, not to the store, since it
does not depend on beta.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np
from scipy import sparse

from .meshing import Mesh, _blocks, _corners, _doubled_areas, _generate, locate, refine_mesh


class SolverError(RuntimeError):
    """Linear or eigen solver failed: singular matrix, residual above its
    tolerance, or iteration cap exceeded.  `residual` is the relative
    residual the solver stopped at: 1.0, that of x = 0, where a linear solve
    failed before its first iterate, and None for a LOBPCG start vector of
    M-norm zero, which has no residual."""

    def __init__(self, message, residual=None):
        super().__init__(message)
        self.residual = residual


class SourceError(ValueError):
    """Problem data violates admissibility: a source that is negative,
    identically zero or not finite, or a beta that is not positive and finite."""


def _check_beta(beta: float):
    if not (math.isfinite(beta) and beta > 0):
        raise SourceError(f"beta must be positive and finite, got {beta:g}")


@dataclass
class SourceSpec:
    """Right-hand side: a constant or a callable f(x, y)."""

    kind: str                      # const | expr
    value: float = 1.0
    fn: object = None
    label: str = ""

    def evaluate(self, x, y):
        x = np.asarray(x, dtype=float)
        y = np.asarray(y, dtype=float)
        if self.kind == "const":
            return np.full(x.shape, float(self.value))
        if self.kind == "expr":
            return np.asarray(self.fn(x, y), dtype=float)
        raise SourceError(f"unknown source kind {self.kind!r}")


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
    """(b, c, area): the three basis functions' gradients times twice the
    area, (b[i], c[i]) for vertex i, and the triangle areas, gathered one
    coordinate at a time, a block of triangles at a time."""
    x, y, T = mesh.nodes[:, 0], mesh.nodes[:, 1], len(mesh.triangles)
    b, c = np.empty((3, T)), np.empty((3, T))
    for j in _blocks(T):
        t0, t1, t2 = _corners(mesh.triangles, j)
        x0, x1, x2, y0, y1, y2 = x[t0], x[t1], x[t2], y[t0], y[t1], y[t2]
        b[0, j], b[1, j], b[2, j] = y1 - y2, y2 - y0, y0 - y1
        c[0, j], c[1, j], c[2, j] = x2 - x1, x0 - x2, x1 - x0
    # (x1 - x0)(y2 - y0) - (y1 - y0)(x2 - x0), as in Mesh.triangle_areas
    return b, c, 0.5 * (c[2] * b[1] - b[2] * c[1])


def _symmetric(n: int, pairs: np.ndarray, off: np.ndarray, diag: np.ndarray):
    """The symmetric n x n CSR matrix with off[k] at (i, j) and (j, i) for
    row k = (i, j) of pairs, i != j and no pair twice, and diag on the
    diagonal where it is nonzero: one COO without duplicates."""
    i, j = pairs.T
    d = np.flatnonzero(diag)
    rows = np.concatenate([i, j, d], dtype=np.int32)  # the index dtype coo_matrix keeps
    cols = np.concatenate([j, i, d], dtype=np.int32)
    return sparse.coo_matrix((np.concatenate([off, off, diag[d]]), (rows, cols)),
                             shape=(n, n)).tocsr()


def stiffness_matrix(mesh: Mesh) -> sparse.csr_matrix:
    """The P1 stiffness matrix, one entry per edge of mesh.graph (explicit
    zeros kept) and per node.  An edge's entry is the bincount of its one or
    two triangles' terms, a node's that of its triangles' terms in triangle
    order."""
    g = mesh.graph
    b, c, area = _p1_geometry(mesh)
    area4 = 4.0 * area
    terms = np.empty((len(area), 3))  # of edges ab, bc, ca, then of vertices a, b, c
    for i in range(3):
        j = (i + 1) % 3
        np.divide(b[i] * b[j] + c[i] * c[j], area4, out=terms[:, i])
    off = np.bincount(g.triangle_edges.ravel(), terms.ravel(), minlength=len(g.edges))
    for i in range(3):
        np.divide(b[i] * b[i] + c[i] * c[i], area4, out=terms[:, i])
    del b, c, area, area4
    diag = np.bincount(mesh.triangles.ravel(), terms.ravel(), minlength=mesh.num_nodes)
    del terms
    return _symmetric(mesh.num_nodes, g.edges, off, diag)


def boundary_mass_matrix(mesh: Mesh) -> sparse.csr_matrix:
    """The exact boundary edge mass, L/6 [[2, 1], [1, 2]] per boundary edge."""
    length = mesh.boundary_lengths()
    diag = np.bincount(mesh.boundary_edges.ravel(), np.repeat(length * 2.0 / 6.0, 2),
                       minlength=mesh.num_nodes)
    return _symmetric(mesh.num_nodes, mesh.boundary_edges, length * 1.0 / 6.0, diag)


def mass_matrix(mesh: Mesh) -> sparse.csr_matrix:
    """The exact P1 mass, area/12 on each edge of a triangle and 2 area/12
    on each vertex, summed per edge of mesh.graph and per node."""
    g = mesh.graph
    area = mesh.triangle_areas()
    off = np.bincount(g.triangle_edges.ravel(), np.repeat(area * 1.0 / 12.0, 3),
                      minlength=len(g.edges))
    diag = np.bincount(mesh.triangles.ravel(), np.repeat(area * 2.0 / 12.0, 3),
                       minlength=mesh.num_nodes)
    return _symmetric(mesh.num_nodes, g.edges, off, diag)


def load_vector(mesh: Mesh, f: SourceSpec) -> np.ndarray:
    """Load by 3-point (edge midpoint) quadrature, exact for quadratics.
    f is evaluated once per edge of mesh.graph; each triangle's terms are
    added by node, in triangle order, a block of triangles at a time."""
    g = mesh.graph
    lo, hi = g.edges.T
    x, y = mesh.nodes[:, 0], mesh.nodes[:, 1]
    fe = f.evaluate(0.5 * (x[lo] + x[hi]), 0.5 * (y[lo] + y[hi]))
    _check_admissible(fe)
    out = np.zeros(mesh.num_nodes)
    for j in _blocks(len(mesh.triangles)):
        tris = mesh.triangles[j]
        fm = fe[g.triangle_edges[j]]  # on edges ab, bc, ca
        # basis function i is 1/2 on the two edges touching vertex i, 0 opposite
        contrib = np.empty_like(fm)
        contrib[:, 0] = fm[:, 0] + fm[:, 2]
        contrib[:, 1] = fm[:, 0] + fm[:, 1]
        contrib[:, 2] = fm[:, 1] + fm[:, 2]
        contrib *= (0.5 * _doubled_areas(mesh.nodes, tris) / 6.0)[:, None]
        np.add.at(out, tris.ravel(), contrib.ravel())
    return out


def _robin_matrix(mesh: Mesh, beta: float) -> sparse.csr_matrix:
    return stiffness_matrix(mesh) + beta * boundary_mass_matrix(mesh)


def _store(mesh: Mesh, beta: float) -> dict:
    """mesh's solver store for beta (see the module docstring)."""
    return mesh._store.setdefault(beta, {})


def _robin(mesh: Mesh, beta: float) -> sparse.csr_matrix:
    """The Robin matrix of (mesh, beta): the one `assemble_robin_system`
    stored, or else one assembled for this call."""
    A = _store(mesh, beta).get("matrix")
    return _robin_matrix(mesh, beta) if A is None else A


def assemble_robin_system(mesh: Mesh, f: SourceSpec, beta: float) -> SparseSystem:
    """The Robin-Poisson system on mesh.  Its matrix is assembled once per
    (mesh, beta), stored read-only, and shared by every system and solver
    on that mesh."""
    _check_beta(beta)
    store = _store(mesh, beta)
    if "matrix" not in store:
        A = _robin_matrix(mesh, beta)
        for a in (A.data, A.indices, A.indptr):
            a.flags.writeable = False
        store["matrix"] = A
    rhs = load_vector(mesh, f)
    return SparseSystem(matrix=store["matrix"], rhs=rhs, mesh=mesh, beta=beta)


def _single(A) -> sparse.csr_matrix:
    """A with its entries rounded to float32, sharing A's index arrays."""
    return sparse.csr_matrix((A.data.astype(np.float32), A.indices, A.indptr), shape=A.shape)


def solve_poisson(system: SparseSystem) -> ScalarField:
    """CG preconditioned by the V-cycle of system.mesh's hierarchy
    (`_hierarchy`), the coarser refinement levels rediscretized with
    system.beta, down the root's coarse levels.  Guarantees relative residual
    <= 1e-10 or raises SolverError; a zero right-hand side gives the zero
    field, the exact solution.  A solve above the bound gets one step of
    iterative refinement: PCG on the residual evaluated afresh sheds the
    rounding the recurrence accumulated, which at small beta, where x is a
    large constant plus a small variation, can exceed the bound.  On a chain
    root, a matrix that is not the one `assemble_robin_system` stored there
    gets coarse levels for this solve only."""
    A, b, mesh = system.matrix, system.rhs, system.mesh
    if not np.any(b):
        return ScalarField(mesh=mesh, values=np.zeros_like(b))
    if mesh.parent is None and A is not _store(mesh, system.beta).get("matrix"):
        inverse, levels = _coarse(mesh, A)
    else:
        inverse, levels = _hierarchy(mesh, system.beta, A)
    precondition = functools.partial(_vcycle, levels, inverse)
    bnorm = float(np.linalg.norm(b))
    x = _pcg(A, b, precondition)
    r = b - A @ x
    if not np.linalg.norm(r) <= 1e-10 * bnorm:
        x += _pcg(A, r, precondition)
        r = b - A @ x
    resid = float(np.linalg.norm(r)) / bnorm
    if not resid <= 1e-10:
        raise SolverError(f"PCG solve and one refinement step left relative residual"
                          f" {resid:.3e}", resid)
    return ScalarField(mesh=system.mesh, values=x)


def solve_robin_poisson(mesh: Mesh, f: SourceSpec, beta: float) -> ScalarField:
    return solve_poisson(assemble_robin_system(mesh, f, beta))


# LOBPCG stops at relative eigen-residual _EIGEN_RTOL and fails after
# _EIGEN_MAXITER steps; a Poisson PCG solve stops at relative residual
# _PCG_TOL or below _PCG_FLOOR times its rounding floor (`_pcg`), and fails
# after _PCG_MAXITER iterations
_EIGEN_RTOL = 1e-7
_EIGEN_MAXITER = 200
_PCG_TOL = 1e-13
_PCG_FLOOR = 0.5
_PCG_MAXITER = 500
# the V-cycle smoother: damped Jacobi, this weight, this many sweeps on each side
_JACOBI_OMEGA = 0.6
_JACOBI_SWEEPS = 2
# the V-cycle ends in a dense solve on its coarsest level, of at most this
# many nodes (`_coarse`): inverting 169 or 225 nodes took 1.8 or 2.5 ms,
# less than one more level and its share of every cycle, 289 nodes 5.6 ms
_DENSE = 250
# a chain root's coarse meshes have at most _COARSE_CUT times its nodes,
# and halving the size multiplies a mesh's nodes by at least _GROWTH
# (`_coarse_meshes`); at a cut of 1/2 the 13,041-node stadium root went
# down to 1,891 nodes and its 51.7k-node child took 14 V-cycles, at 0.6 it
# keeps its 6,903-node mesh and the child takes 12
_COARSE_CUT = 0.6
_GROWTH = 2.5
# `_aggregation` links two nodes where |a_ij| > this times sqrt(a_ii a_jj)
_STRONG = 0.08


def _prolongation(mesh: Mesh) -> sparse.csr_matrix:
    """P1 interpolation from mesh.parent to mesh, in float32 (its entries 1
    and 1/2 are exact): an old node keeps its value, a new node takes the
    mean of its parent edge's two endpoints."""
    edges = mesh.parent.graph.edges
    V, n_new = mesh.parent.num_nodes, len(edges)
    indptr = np.concatenate([np.arange(V + 1), V + 2 * np.arange(1, n_new + 1)])
    indices = np.concatenate([np.arange(V), edges.ravel()])
    data = np.concatenate([np.ones(V, np.float32), np.full(2 * n_new, 0.5, np.float32)])
    return sparse.csr_matrix((data, indices, indptr), shape=(mesh.num_nodes, V))


def _chain(mesh: Mesh):
    """mesh, its parent, that mesh's parent, and so on down to the root."""
    while mesh is not None:
        yield mesh
        mesh = mesh.parent


def _coarse_meshes(root: Mesh):
    """root's domain meshed at sizes halving from just under the
    generator's limit, diameter/4, coarsest first, as long as a mesh has at
    most _COARSE_CUT times root's nodes.  A mesh at half the size has at
    least _GROWTH times the nodes, so the search stops before generating
    one that would be cut.  A polygon's generator refines its first mesh
    until no edge is longer than the size, so its meshes at the halved
    sizes are the first one refined once, twice, and so on."""
    limit, meshes = _COARSE_CUT * root.num_nodes, []
    h = math.nextafter(root.domain.diameter() / 4.0, 0.0)
    m = _generate(root.domain, h)
    while m.num_nodes <= limit:
        meshes.append(m)
        if _GROWTH * m.num_nodes > limit:
            break
        h /= 2.0
        m = refine_mesh(m) if root.domain.kind == "polygon" else _generate(root.domain, h)
    return meshes


def _transfer(coarse: Mesh, fine: Mesh) -> sparse.csr_matrix:
    """P1 interpolation from coarse to fine's nodes (`meshing.locate`)."""
    tri, weights = locate(coarse, fine.nodes)
    n = fine.num_nodes
    return sparse.csr_matrix((weights.ravel(), coarse.triangles[tri].ravel(),
                              3 * np.arange(n + 1)), shape=(n, coarse.num_nodes))


def _diagonal(A) -> np.ndarray:
    """A's diagonal; SolverError unless every entry is positive."""
    diag = A.diagonal()
    if not np.all(diag > 0):
        raise SolverError(f"nonpositive diagonal entry on {A.shape[0]} nodes", 1.0)
    return diag


def _level(A, P, R):
    """The V-cycle level of A, P prolonging into it and R = P^T restricting
    from it, in CSR: (A, omega / diag(A), P, R) in float32."""
    diag = _diagonal(A)
    return (_single(A), (_JACOBI_OMEGA / diag).astype(np.float32),
            P.astype(np.float32, copy=False), R.astype(np.float32, copy=False))


def _aggregation(A) -> sparse.csr_matrix:
    """The smoothed-aggregation prolongation of A (Vanek, Mandel and
    Brezina, Computing 56, 1996) on its strong links, |a_ij| > _STRONG
    sqrt(a_ii a_jj).  The aggregates are the nodes of a maximal independent
    set of the strong links, picked by a fixed pseudo-random priority, each
    with the neighbours that join it (the first in the set among their
    neighbours).  The piecewise constant P is smoothed by one Jacobi step
    of F, A's diagonal and strong links: (I - 4/3 D^-1 F / rho) P, rho >=
    the spectral radius of D^-1 F by Gershgorin.  Smoothed with all of A,
    a node of many weak links (a polygon fan's centre) spread over every
    aggregate, and a 200-gon's 256-node level had 40,342 entries."""
    n, diag = A.shape[0], _diagonal(A)
    rows = np.repeat(np.arange(n), np.diff(A.indptr))
    strong = (A.data ** 2 > _STRONG ** 2 * diag[rows] * diag[A.indices]) & (A.indices != rows)
    r, c = rows[strong], A.indices[strong]
    priority = np.arange(n, dtype=np.uint64) * np.uint64(2654435761) % np.uint64(2 ** 32)
    state = np.zeros(n, dtype=np.int8)  # 0 undecided, 1 in the set, -1 out
    while not state.all():
        undecided = state == 0
        beaten = np.zeros(n, dtype=bool)
        beaten[r[undecided[r] & undecided[c] & (priority[c] > priority[r])]] = True
        chosen = undecided & ~beaten
        state[chosen] = 1
        out = np.zeros(n, dtype=bool)
        out[c[chosen[r]]] = True
        state[out & (state == 0)] = -1
    aggregate = np.cumsum(state == 1) - 1
    joins = (state[r] == -1) & (state[c] == 1)
    members, first = np.unique(r[joins], return_index=True)
    aggregate[members] = aggregate[c[joins][first]]
    T = sparse.csr_matrix((np.ones(n), aggregate, np.arange(n + 1)),
                          shape=(n, int(aggregate.max()) + 1))
    F = A.copy()
    F.data[~strong & (A.indices != rows)] = 0.0
    rho = float(np.max(abs(F) @ np.ones(n) / diag))
    return (T - sparse.diags(4.0 / (3.0 * rho) / diag) @ (F @ T)).tocsr()


def _inverse(A) -> np.ndarray:
    """The inverse of the SPD matrix A, dense and in float32: L^-T L^-1 for
    its float64 Cholesky factor L, L^-1 rounded to float32 and the product
    formed in float32.  A counts as singular where the factor fails or a
    pivot falls to float32's epsilon times its diagonal entry: below that,
    a float32 inverse keeps nothing of A."""
    A = A.toarray()
    try:
        L = np.linalg.cholesky(A)
    except np.linalg.LinAlgError as exc:
        raise SolverError(f"singular matrix on {len(A)} nodes: {exc}", 1.0) from exc
    pivot = float(np.min(np.diagonal(L) ** 2 / np.diagonal(A)))
    if not pivot > np.finfo(np.float32).eps:
        raise SolverError(f"singular matrix on {len(A)} nodes: Cholesky pivot {pivot:.1e}"
                          f" of its diagonal entry", 1.0)
    Linv = np.linalg.inv(L).astype(np.float32)
    return Linv.T @ Linv


def _coarse(root: Mesh, A):
    """The bottom of the V-cycle under the chain root with matrix A:
    (inverse, levels), levels[j] = `_level` tuples from the level above the
    coarsest up to the root, and the coarsest matrix's `_inverse`, as
    `_vcycle` takes them.  The levels are root and `_coarse_meshes(root)`,
    from the last of them with at most _DENSE nodes, or the first if none
    is that small; their matrices are the Galerkin P^T A P down from A
    (Bramble, Pasciak and Xu, Math. Comp. 56, 1991).  Where the coarsest
    mesh has more than _DENSE nodes (a polygon of many vertices is never
    meshed coarser than its vertices), `_aggregation` levels continue
    below it until one has at most _DENSE."""
    meshes = _coarse_meshes(root) + [root] if root.num_nodes > _DENSE else [root]
    while len(meshes) > 1 and meshes[1].num_nodes <= _DENSE:
        del meshes[0]
    transfers = [_transfer(coarse, fine) for coarse, fine in zip(meshes[-2::-1], meshes[:0:-1])]
    levels = []
    while transfers or A.shape[0] > _DENSE:
        P = transfers.pop(0) if transfers else _aggregation(A)
        if P.shape[1] == A.shape[0]:
            raise SolverError(f"no strong link to aggregate on {A.shape[0]} nodes", 1.0)
        R = P.T.tocsr()
        levels.append(_level(A, P, R))
        A = R @ (A @ P)
    return _inverse(A), levels[::-1]


def _hierarchy(mesh: Mesh, beta: float, A):
    """The V-cycle hierarchy of mesh's parent chain, with A on mesh itself:
    (coarsest inverse, levels), levels[j] = `_level` tuples from the level
    above the coarsest up to mesh, as `_vcycle` takes them.  The root's
    part, `_coarse` of its matrix (A on a root), is built once per (root,
    beta) and kept in its store; above it the matrices come from `_robin`,
    and their float32 levels are formed anew."""
    chain = list(_chain(mesh))
    matrices = [A] + [_robin(m, beta) for m in chain[1:-1]]
    root = _store(chain[-1], beta)
    if "coarse" not in root:
        root["coarse"] = _coarse(chain[-1], A if mesh.parent is None else _robin(chain[-1], beta))
    inverse, levels = root["coarse"]
    above = []
    for m, A in zip(chain[-2::-1], matrices[::-1]):
        P = _prolongation(m)
        above.append(_level(A, P, P.T.tocsr()))
    return inverse, levels + above


def _residual(A, x, r):
    """r - A x, through one temporary."""
    s = A @ x
    return np.subtract(r, s, out=s)


def _jacobi(A, dinv, r, x):
    """One damped-Jacobi sweep x += dinv * (r - A x), in place."""
    s = _residual(A, x, r)
    s *= dinv
    x += s


def _vcycle(levels, inverse, r):
    """One symmetric V-cycle for the matrix of levels[-1]: damped Jacobi
    before and after each coarse-grid correction, the dense inverse of the
    coarsest level at the bottom.  levels[j] = (A, omega / diag(A), P, P^T),
    P prolonging from level j - 1; the coarsest level itself is not in the
    list.  The cycle runs in float32: r is rounded once on the way in, the
    correction widened once on the way out."""
    r = r.astype(np.float32)
    stack = []
    for A, dinv, _, R in reversed(levels):
        x = dinv * r  # the first sweep, from x = 0
        for _ in range(_JACOBI_SWEEPS - 1):
            _jacobi(A, dinv, r, x)
        stack.append((x, r))
        r = R @ _residual(A, x, r)
    x = inverse @ r
    for (A, dinv, P, _), (x_pre, r) in zip(levels, reversed(stack)):
        x_pre += P @ x
        x = x_pre
        for _ in range(_JACOBI_SWEEPS):
            _jacobi(A, dinv, r, x)
    return x.astype(float)


def _abs_norm(A, x):
    """||(|A| |x|)|| for the CSR matrix A, a block of rows at a time."""
    x = np.abs(x)
    return math.sqrt(sum(float(np.sum((abs(A[j]) @ x) ** 2)) for j in _blocks(A.shape[0])))


def _pcg(A, b, precondition):
    """Preconditioned CG from x = 0, with the recurrence and dot products of
    scipy.sparse.linalg.cg: run for as many iterations, both give the same
    bits.  It stops once ||r|| < _PCG_TOL * ||b||, or once ||r|| is below
    _PCG_FLOOR times the rounding floor eps ||(|A| |x|)||, where the true
    residual b - A x stagnates however far the recurrence goes on
    (Greenbaum, SIAM J. Matrix Anal. Appl. 18, 1997).  The floor is taken
    once, at the first iterate x = alpha p, which the V-cycle already puts
    close to the solution."""
    x, r = np.zeros_like(b), b.copy()
    bnorm = float(np.linalg.norm(b))
    if bnorm == 0:
        return x
    tol = _PCG_TOL * bnorm
    for it in range(_PCG_MAXITER):
        if np.linalg.norm(r) < tol:
            return x
        z = precondition(r)
        rho = np.dot(r, z)
        if it:
            p *= rho / rho_prev
            p += z
        else:
            p = z.copy()
        q = A @ p
        alpha = rho / np.dot(p, q)
        if not it:
            tol = max(tol, _PCG_FLOOR * np.finfo(float).eps * abs(alpha) * _abs_norm(A, p))
        x += alpha * p
        r -= alpha * q
        rho_prev = rho
    resid = float(np.linalg.norm(b - A @ x)) / bnorm
    raise SolverError(f"PCG hit its cap of {_PCG_MAXITER} iterations on {A.shape[0]}"
                      f" nodes at relative residual {resid:.3e}", resid)


def _lobpcg(A, M, w, precondition):
    """The smallest eigenpair of A w = lambda M w by one-vector LOBPCG from w
    (Knyazev, SIAM J. Sci. Comput. 23, 2001).  Each step is a Rayleigh-Ritz
    on span{w, t, p}: t = precondition(r) for the residual r = A w - lambda
    M w, p the previous step, both M-normalized; p is dropped for a step
    whose Gram matrix is not positive definite, or after a step that left
    it zero.  The A and M images of w, t and p are carried along as the
    same combinations: the three blocks (x, A x, M x) are B[0], B[1] and
    B[2] of one (3, 3, n) array, allocated once and updated in place, and
    a step reads the first k of them.  It stops when ||r|| <= _EIGEN_RTOL *
    lambda * ||M w||.  Returns lambda and the M-normalized eigenvector;
    raises SolverError if w or a preconditioned residual has M-norm zero."""
    n = A.shape[0]
    B = np.empty((3, 3, n))

    def load(j, x, resid=None):
        """B[j] = (x, A x, M x) / ||x||_M; resid is the step's residual."""
        B[j, 0] = x
        B[j, 1] = A @ x
        B[j, 2] = M @ x
        norm = math.sqrt(B[j, 0] @ B[j, 2])
        if not norm > 0:
            raise SolverError(f"LOBPCG direction of M-norm {norm:g} on {n} nodes", resid)
        B[j] /= norm

    load(0, w)
    lam, k = float(B[0, 0] @ B[0, 1]), 2
    for step in range(_EIGEN_MAXITER + 1):
        r = B[0, 1] - lam * B[0, 2]
        resid = float(np.linalg.norm(r)) / (lam * float(np.linalg.norm(B[0, 2])))
        if resid <= _EIGEN_RTOL:
            return lam, B[0, 0].copy()
        if step == _EIGEN_MAXITER:
            break
        load(1, precondition(r), resid)
        del r  # not needed again, so not alive beside the new w below
        GA, GM = B[:k, 0] @ B[:k, 1].T, B[:k, 0] @ B[:k, 2].T
        try:
            L = np.linalg.cholesky(GM)
        except np.linalg.LinAlgError:  # p is (nearly) in span{w, t}
            k, GA, L = 2, GA[:2, :2], np.linalg.cholesky(GM[:2, :2])
        Linv = np.linalg.inv(L)
        vals, vecs = np.linalg.eigh(Linv @ GA @ Linv.T)
        y, lam = Linv.T @ vecs[:, 0], float(vals[0])
        B[0] = np.tensordot(y, B[:k], 1)
        B[2] = np.tensordot(y[1:], B[1:k], 1)
        norm = math.sqrt(B[2, 0] @ B[2, 2])
        k = 3 if norm > 0 else 2
        if k == 3:
            B[2] /= norm
    raise SolverError(f"LOBPCG hit its cap of {_EIGEN_MAXITER} steps on {A.shape[0]} nodes"
                      f" at relative residual {resid:.3e}", resid)


def _nested_eigenpair(mesh: Mesh, beta: float):
    """The raw (lambda, w) of (mesh, beta), kept in mesh's store: nested
    LOBPCG down mesh's parent chain, each mesh's preconditioned by its
    hierarchy's V-cycle (on the root, its coarse levels') and
    started from the ones vector on the root, above it from the prolonged
    eigenvector of the mesh below (full-multigrid eigensolver; Brandt,
    McCormick and Ruge, SIAM J. Sci. Stat. Comput. 1983; Knyazev and
    Neymeyr, ETNA 15, 2003)."""
    store = _store(mesh, beta)
    if "eigenpair" in store:
        return store["eigenpair"]
    w = None if mesh.parent is None else _nested_eigenpair(mesh.parent, beta)[1]
    A, M = _robin(mesh, beta), mass_matrix(mesh)
    inverse, levels = _hierarchy(mesh, beta, A)
    w = np.ones(A.shape[0]) if w is None else levels[-1][2] @ w
    lam, w = _lobpcg(A, M, w, lambda r: _vcycle(levels, inverse, r))
    w.flags.writeable = False
    store["eigenpair"] = lam, w
    return lam, w


def principal_robin_eigenpair(mesh: Mesh, beta: float):
    """Smallest eigenvalue of (K + beta B) w = lambda M w and its
    eigenfunction, positive with unit L2 norm (`_nested_eigenpair`)."""
    _check_beta(beta)
    lam, w = _nested_eigenpair(mesh, beta)
    return lam, ScalarField(mesh=mesh, values=-w if w.sum() < 0 else w.copy())


# ---------------------------------------------------------------------------
# integration

def field_integral(u: ScalarField) -> float:
    """Exact integral of the piecewise-linear interpolant; the triangle
    means are gathered a block of triangles at a time."""
    terms = u.mesh.triangle_areas()  # area x mean value, per triangle
    for j in _blocks(len(terms)):
        terms[j] *= u.values[u.mesh.triangles[j]].mean(axis=1)
    return float(np.sum(terms))


def boundary_integral(u: ScalarField) -> float:
    """Exact boundary integral of the trace (edge trapezoid = exact for P1)."""
    e = u.mesh.boundary_edges
    length = u.mesh.boundary_lengths()
    return float(np.sum(length * 0.5 * (u.values[e[:, 0]] + u.values[e[:, 1]])))


def nodal_source_field(mesh: Mesh, f: SourceSpec) -> ScalarField:
    """Interpolate a source onto the mesh (used to rearrange f)."""
    vals = f.evaluate(mesh.nodes[:, 0], mesh.nodes[:, 1])
    _check_admissible(vals)
    return ScalarField(mesh=mesh, values=np.maximum(vals, 0.0))
