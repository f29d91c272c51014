"""Reference eigen and Krylov solvers, kept as test oracles; not part of
the package.

Nested inverse iteration computes the principal Robin eigenvalue the way
the package did before LOBPCG replaced it: inverse power iteration down the
mesh's parent chain, solves by a float64 LU of its own (`factor`) on the
root and V-cycle PCG solves to relative residual 1e-13 on each finer mesh,
stopping when lambda changes by at most 1e-10 relative.  It reads no
eigenpair from the meshes' stores and keeps none there.

`scipy_pcg` is SciPy's `cg`, `lobpcg` the package's LOBPCG as it was when
every step stacked a fresh Rayleigh-Ritz basis, and `vcycle` the package's
float32 V-cycle before its sweeps went in place and before each level kept
its restriction P^T in CSR: it restricts by `P.T @`.  Its bottom is the
package's, the coarsest level's dense float32 inverse.  The package's
fixed-working-set `fem._pcg`, `fem._lobpcg` and `fem._vcycle` must return
the same bits.
"""

import math

import numpy as np
from scipy.sparse.linalg import LinearOperator, cg, splu

from robinsym.fem import (
    _EIGEN_MAXITER, _EIGEN_RTOL, _JACOBI_SWEEPS, _hierarchy, _robin_matrix, mass_matrix)

TOL = 1e-10
MAXITER = 200


def factor(A):
    """Float64 SuperLU factor of the SPD matrix A, in symmetric mode."""
    return splu(A.tocsc(), permc_spec="MMD_AT_PLUS_A", diag_pivot_thresh=0.0,
                options=dict(SymmetricMode=True))


def scipy_pcg(A, b, precondition, x0=None, maxiter=None):
    """SciPy's CG from x0 (zero if None), preconditioned: to relative
    residual 1e-13, or for exactly maxiter iterations unless it gets there
    first."""
    x, info = cg(A, b, x0=x0, rtol=1e-13, atol=0.0, maxiter=maxiter or 500,
                 M=LinearOperator(A.shape, matvec=precondition, dtype=float))
    assert info == 0 or info == maxiter, f"PCG did not converge on {A.shape[0]} nodes"
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
    w = None if mesh.parent is None else inverse_iteration_eigenpair(mesh.parent, beta)[1]
    if mesh.parent is None:
        lu = factor(A)
        return _inverse_iteration(A, M, np.ones(A.shape[0]), lambda b, x0: lu.solve(b))
    inverse, levels = _hierarchy(mesh, beta, A)
    return _inverse_iteration(A, M, levels[-1][2] @ w, lambda b, x0: scipy_pcg(
        A, b, lambda r: vcycle(levels, inverse, r), x0))


def vcycle(levels, inverse, r):
    """The package's V-cycle as it was before its Jacobi sweeps went in
    place: three temporaries per sweep, in float32 between the rounding of
    r and the widening of the result, and restriction by P.T."""
    r = r.astype(np.float32)
    stack = []
    for A, dinv, P, _ in reversed(levels):
        x = dinv * r
        for _ in range(_JACOBI_SWEEPS - 1):
            x += dinv * (r - A @ x)
        stack.append((x, r))
        r = P.T @ (r - A @ x)
    x = inverse @ r
    for (A, dinv, P, _), (x_pre, r) in zip(levels, reversed(stack)):
        x = x_pre + P @ x
        for _ in range(_JACOBI_SWEEPS):
            x += dinv * (r - A @ x)
    return x.astype(float)


def _m_normalized(v):
    """v = (x, A x, M x) scaled to x.M x = 1, or None if x is zero."""
    norm = math.sqrt(v[0] @ v[2])
    return v / norm if norm > 0 else None


def lobpcg(A, M, w, precondition):
    """One-vector LOBPCG from w, each step stacking the Rayleigh-Ritz basis
    [w, t, p] (p dropped when None or when the Gram matrix is not positive
    definite) and the next w and p anew.  Returns lambda and the
    M-normalized eigenvector."""
    W = _m_normalized(np.stack([w, A @ w, M @ w]))
    lam, P = float(W[0] @ W[1]), None
    for _ in range(_EIGEN_MAXITER + 1):
        r = W[1] - lam * W[2]
        resid = float(np.linalg.norm(r)) / (lam * float(np.linalg.norm(W[2])))
        if resid <= _EIGEN_RTOL:
            return lam, W[0].copy()
        t = precondition(r)
        B = np.stack([W, _m_normalized(np.stack([t, A @ t, M @ t]))] + ([] if P is None else [P]))
        GA, GM = B[:, 0] @ B[:, 1].T, B[:, 0] @ B[:, 2].T
        try:
            L = np.linalg.cholesky(GM)
        except np.linalg.LinAlgError:
            B, GA, L = B[:2], GA[:2, :2], np.linalg.cholesky(GM[:2, :2])
        Linv = np.linalg.inv(L)
        vals, vecs = np.linalg.eigh(Linv @ GA @ Linv.T)
        y, lam = Linv.T @ vecs[:, 0], float(vals[0])
        W, P = np.tensordot(y, B, 1), _m_normalized(np.tensordot(y[1:], B[1:], 1))
    raise AssertionError(f"LOBPCG cap {_EIGEN_MAXITER} exceeded")
