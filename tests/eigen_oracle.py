"""Nested inverse iteration, kept as an independent test oracle.

It computes the principal Robin eigenvalue the way the package did before
LOBPCG replaced it: inverse power iteration down the mesh's parent chain,
LU solves on the root and V-cycle PCG solves to relative residual 1e-13 on
each finer mesh, stopping when lambda changes by at most 1e-10 relative.
It reads no eigenpair from the meshes' stores and keeps none there.  It is
not part of the package.
"""

import math

import numpy as np
from scipy.sparse.linalg import LinearOperator, cg

from robinsym.fem import _hierarchy, _robin_matrix, _root_factor, _vcycle, mass_matrix

TOL = 1e-10
MAXITER = 200


def _pcg(A, b, x0, precondition):
    """CG from x0 to relative residual 1e-13, preconditioned."""
    x, info = cg(A, b, x0=x0, rtol=1e-13, atol=0.0, maxiter=500,
                 M=LinearOperator(A.shape, matvec=precondition, dtype=float))
    assert info == 0, f"PCG did not converge on {A.shape[0]} nodes"
    return x


def _inverse_iteration(A, M, w, solve):
    """Inverse power iteration from w; solve(b, x0) solves A z = b from the
    guess x0.  Returns lambda and the M-normalized eigenvector."""
    w = w / math.sqrt(w @ (M @ w))
    lam = float(w @ (A @ w))
    for _ in range(MAXITER):
        z = solve(M @ w, w / lam)
        w = z / math.sqrt(z @ (M @ z))
        lam_new = float(w @ (A @ w))
        if abs(lam_new - lam) <= TOL * abs(lam_new):
            return lam_new, w
        lam = lam_new
    raise AssertionError(f"inverse iteration cap {MAXITER} exceeded")


def inverse_iteration_eigenpair(mesh, beta):
    """(lambda, w) of (mesh, beta) by nested inverse iteration."""
    A, M = _robin_matrix(mesh, beta), mass_matrix(mesh)
    if mesh.parent is None:
        lu = _root_factor(mesh, beta, False, A)
        return _inverse_iteration(A, M, np.ones(A.shape[0]), lambda b, x0: lu.solve(b))
    w = inverse_iteration_eigenpair(mesh.parent, beta)[1]
    lu, levels = _hierarchy(mesh, beta, A, keep=False)
    return _inverse_iteration(
        A, M, levels[-1][2] @ w, lambda b, x0: _pcg(A, b, x0, lambda r: _vcycle(levels, lu, r)))
