import math

import numpy as np
import pytest
from scipy import sparse

from robinsym.domains import build_domain
from robinsym.fem import (
    ScalarField,
    SolverError,
    SourceError,
    SourceSpec,
    SparseSystem,
    assemble_robin_system,
    boundary_integral,
    boundary_mass_matrix,
    constant_source,
    field_integral,
    field_integral_pow,
    integrate_field,
    load_vector,
    principal_robin_eigenpair,
    solve_poisson,
    solve_robin_poisson,
    stiffness_matrix,
)
from robinsym.meshing import generate_mesh, refine_mesh
from robinsym.radial import bessel_eigen_oracle


def disc_exact(r, beta=1.0, R=1.0):
    return (R * R - r * r) / 4.0 + R / (2.0 * beta)


def test_zero_source_rejected_and_zero_load():
    m = generate_mesh(build_domain("rect", w=1.0, h=1.0), 0.25)
    with pytest.raises(SourceError):
        load_vector(m, constant_source(0.0))


def test_constant_field_energy_is_beta_perimeter():
    m = generate_mesh(build_domain("rect", w=1.0, h=1.0), 0.25)
    beta = 1.7
    sys = assemble_robin_system(m, constant_source(1.0), beta)
    ones = np.ones(m.num_nodes)
    energy = ones @ (sys.matrix @ ones)
    assert energy == pytest.approx(beta * 4.0, rel=1e-13)


def test_assembly_symmetry_exact():
    m = generate_mesh(build_domain("ellipse", a=1.2, b=0.9), 0.2)
    sys = assemble_robin_system(m, constant_source(), 1.0)
    diff = (sys.matrix - sys.matrix.T).tocoo()
    assert len(diff.data) == 0 or np.max(np.abs(diff.data)) == 0.0


def test_disc_solution_linf_and_convergence():
    # quick second-order sanity ladder; the binding >= 3.5 ratio check at the
    # stated h = 0.02 anchor runs in the acceptance suite (P1 nodal sup error
    # carries a log factor, so the ratio creeps up to 4 from below)
    d = build_domain("disc", r=1.0)
    m = generate_mesh(d, 0.08)
    errs = []
    for _ in range(3):
        u = solve_robin_poisson(m, constant_source(1.0), 1.0)
        r = np.hypot(m.nodes[:, 0], m.nodes[:, 1])
        errs.append(np.max(np.abs(u.values - disc_exact(r))))
        m = refine_mesh(m)
    # h about 0.02 at the last level
    assert errs[-1] <= 2e-3
    assert errs[0] / errs[1] >= 3.3
    assert errs[1] / errs[2] >= 3.4


def test_solution_strictly_positive():
    for spec, mk in (("rect", dict(w=2.0, h=0.5)), ("stadium", dict(l=1.0, r=0.5))):
        m = generate_mesh(build_domain(spec, **mk), 0.1)
        u = solve_robin_poisson(m, constant_source(1.0), 2.0)
        assert u.u_min > 0.0


def test_large_beta_dirichlet_proxy():
    d = build_domain("disc", r=1.0)
    m = generate_mesh(d, 0.05)
    u = solve_robin_poisson(m, constant_source(1.0), 1e6)
    bnd = m.boundary_nodes()
    assert np.max(np.abs(u.values[bnd])) <= 1e-5


def test_integrals_on_disc():
    d = build_domain("disc", r=1.0)
    m = generate_mesh(d, 0.05)
    one = ScalarField(m, np.ones(m.num_nodes))
    assert field_integral(one) == pytest.approx(math.pi, abs=3e-4)
    assert boundary_integral(one) == pytest.approx(2 * math.pi, abs=6e-4)
    u = solve_robin_poisson(m, constant_source(1.0), 1.0)
    assert field_integral(u) == pytest.approx(5 * math.pi / 8, rel=5e-3)


def test_compatibility_identity():
    # beta * boundary integral of u equals the assembled load of f: this is a
    # Galerkin identity, so it holds to solver tolerance, not just O(h^2)
    d = build_domain("ellipse", a=1.5, b=2.0 / 3.0)
    m = generate_mesh(d, 0.1)
    beta = 2.0
    u = solve_robin_poisson(m, constant_source(1.0), beta)
    lhs = beta * boundary_integral(u)
    rhs = float(load_vector(m, constant_source(1.0)).sum())
    assert lhs == pytest.approx(rhs, rel=1e-8)
    # and against the exact continuum integral of f, at discretization accuracy
    assert lhs == pytest.approx(d.measure, rel=2e-3)


def test_stadium_65k_solve_meets_residual_contract():
    # 65,829 nodes: restarted Jacobi-CG stalled here at relative residual
    # 1.7e-10, just above the 1e-10 contract
    m = refine_mesh(generate_mesh(build_domain("stadium", l=1.0, r=0.5), 0.025))
    assert m.num_nodes == 65829
    system = assemble_robin_system(m, constant_source(1.0), 1.0)
    u = solve_poisson(system)
    A, b = system.matrix, system.rhs
    assert np.linalg.norm(b - A @ u.values) / np.linalg.norm(b) <= 1e-10
    assert 1.0 * boundary_integral(u) == pytest.approx(float(b.sum()), rel=1e-8)


def test_exactly_singular_matrix_raises_solver_error():
    m = generate_mesh(build_domain("rect", w=1.0, h=1.0), 0.25)
    zero = sparse.csr_matrix((m.num_nodes, m.num_nodes))
    system = SparseSystem(zero, load_vector(m, constant_source()), m, 1.0)
    with pytest.raises(SolverError, match=f"{m.num_nodes} nodes"):
        solve_poisson(system)


def test_pure_neumann_matrix_fails_residual_check():
    # without the Robin term the stiffness matrix is singular up to rounding:
    # the factorization goes through, the residual check catches it
    m = generate_mesh(build_domain("rect", w=1.0, h=1.0), 0.25)
    system = SparseSystem(stiffness_matrix(m), load_vector(m, constant_source()), m, 1.0)
    with pytest.raises(SolverError) as info:
        solve_poisson(system)
    assert info.value.residual_history[-1] > 1e-10


def test_lp_integrals():
    m = generate_mesh(build_domain("rect", w=1.0, h=1.0), 0.25)
    u = ScalarField(m, m.nodes[:, 0] + 1.0)  # u = x + 1 on [-1/2, 1/2]^2
    assert field_integral_pow(u, 1.0) == pytest.approx(1.0, rel=1e-12)
    assert field_integral_pow(u, 2.0) == pytest.approx(13.0 / 12.0, rel=1e-12)
    assert field_integral_pow(u, 3.0) == pytest.approx(5.0 / 4.0, rel=1e-12)
    assert integrate_field(u, "lp", p=4.0) == pytest.approx(121.0 / 80.0, rel=1e-12)


def test_eigenpair_disc_against_bessel_oracle():
    d = build_domain("disc", r=1.0)
    m = refine_mesh(generate_mesh(d, 0.1))
    lam, w = principal_robin_eigenpair(m, 1.0)
    oracle = bessel_eigen_oracle(1.0, 1.0)
    assert abs(lam - oracle) / oracle < 5e-3
    assert w.u_min > 0.0
    # Rayleigh quotient consistency
    from robinsym.fem import mass_matrix
    A = stiffness_matrix(m) + 1.0 * boundary_mass_matrix(m)
    M = mass_matrix(m)
    rq = float(w.values @ (A @ w.values)) / float(w.values @ (M @ w.values))
    assert rq == pytest.approx(lam, rel=1e-9)


def test_beta_guard():
    m = generate_mesh(build_domain("rect", w=1.0, h=1.0), 0.25)
    with pytest.raises(ValueError):
        assemble_robin_system(m, constant_source(), 0.0)
    with pytest.raises(ValueError):
        principal_robin_eigenpair(m, -1.0)


def test_radial_source_spec():
    m = generate_mesh(build_domain("rect", w=2.0, h=0.5), 0.1)
    src = SourceSpec(kind="radial", fn=lambda r: 2.0 - r, centroid=(0.0, 0.0), label="radial")
    u = solve_robin_poisson(m, src, 1.0)
    assert u.u_min > 0.0
