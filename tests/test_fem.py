import dataclasses
import functools
import math
import tracemalloc
import warnings

import numpy as np
import pytest
from scipy import sparse
from scipy.sparse.linalg import eigsh

import assembly_oracle
import eigen_oracle
from eigen_oracle import inverse_iteration_eigenpair
from proof_oracle import field_integral_pow
from robinsym import fem, meshing

from robinsym.domains import build_domain, parse_domain_spec
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
    load_vector,
    mass_matrix,
    principal_robin_eigenpair,
    solve_poisson,
    solve_robin_poisson,
    stiffness_matrix,
)
from robinsym.levelset import build_mu_segments
from robinsym.meshing import generate_mesh, refine_mesh
from robinsym.radial import bessel_eigen_oracle, symmetrized_solution
from robinsym.rearrange import decreasing_rearrangement, lorentz_power_integral
from robinsym.runner import source_from_name
from robinsym.verify import _fstar_for


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
    bnd = np.unique(m.boundary_edges)
    assert np.max(np.abs(u.values[bnd])) <= 1e-5


def test_integrals_on_disc(monkeypatch):
    # small blocks, so that the triangle means cross block boundaries
    monkeypatch.setattr(meshing, "_CHUNK", 997)
    d = build_domain("disc", r=1.0)
    m = generate_mesh(d, 0.05)
    assert len(m.triangles) > 2 * 997
    one = ScalarField(m, np.ones(m.num_nodes))
    assert field_integral(one) == pytest.approx(math.pi, abs=3e-4)
    assert boundary_integral(one) == pytest.approx(2 * math.pi, abs=6e-4)
    u = solve_robin_poisson(m, constant_source(1.0), 1.0)
    assert field_integral(u) == pytest.approx(5 * math.pi / 8, rel=5e-3)
    # the blockwise sum equals the one over all triangles at once
    assert field_integral(u) == float(np.sum(m.triangle_areas()
                                             * u.values[m.triangles].mean(axis=1)))


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


def test_stadium_51k_solve_meets_residual_contract():
    # this input once stalled restarted Jacobi-CG at relative residual
    # 1.7e-10, just above the 1e-10 contract
    m = refine_mesh(generate_mesh(build_domain("stadium", l=1.0, r=0.5), 0.025))
    assert m.num_nodes == 51681
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
    # without the Robin term the stiffness matrix is singular: its float32
    # factor meets a zero pivot, and the solve fails at the residual of x = 0
    m = generate_mesh(build_domain("rect", w=1.0, h=1.0), 0.25)
    system = SparseSystem(stiffness_matrix(m), load_vector(m, constant_source()), m, 1.0)
    with pytest.raises(SolverError) as info:
        solve_poisson(system)
    assert info.value.residual > 1e-10


def test_exactly_singular_matrix_on_refined_mesh_raises_solver_error():
    # the multigrid path checks the diagonal before it forms the Jacobi weights
    m = refine_mesh(generate_mesh(build_domain("rect", w=1.0, h=1.0), 0.25))
    zero = sparse.csr_matrix((m.num_nodes, m.num_nodes))
    system = SparseSystem(zero, load_vector(m, constant_source()), m, 1.0)
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        with pytest.raises(SolverError, match=f"{m.num_nodes} nodes"):
            solve_poisson(system)


@pytest.mark.parametrize("refinements", [0, 1])
def test_zero_right_hand_side_gives_the_zero_field(refinements):
    # the exact solution, on a root mesh and on a refined one
    m = generate_mesh(parse_domain_spec("disc r=1"), 0.2)
    for _ in range(refinements):
        m = refine_mesh(m)
    u = solve_poisson(SparseSystem(fem._robin_matrix(m, 1.0), np.zeros(m.num_nodes), m, 1.0))
    assert u.mesh is m and np.array_equal(u.values, np.zeros(m.num_nodes))


def test_pure_neumann_matrix_on_refined_mesh_fails():
    # the coarse levels are Robin matrices, so the V-cycle is well defined;
    # PCG on the singular finest matrix runs into its cap
    m = refine_mesh(generate_mesh(build_domain("rect", w=1.0, h=1.0), 0.25))
    system = SparseSystem(stiffness_matrix(m), load_vector(m, constant_source()), m, 1.0)
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        with pytest.raises(SolverError) as info:
            solve_poisson(system)
    assert info.value.residual > 1e-10


_HEPTAGON = ("polygon -1.009,0.4251 -0.949,-0.4603 -0.0763,-1.0736 0.5474,-0.9483 "
             "1.0583,-0.1542 0.725,0.8098 -0.1133,1.0612")
_ELLIPSE_2 = "ellipse a=1.4142135623730951 b=0.70710678118654757"
_FAMILIES = ["disc r=1", _ELLIPSE_2, "rect w=2 h=0.5", "stadium l=1 r=0.5", _HEPTAGON]


def _refined_system(spec, h, levels, source):
    d = parse_domain_spec(spec)
    m = generate_mesh(d, h)
    for _ in range(levels):
        m = refine_mesh(m)
    f = constant_source(1.0) if source == "const" else source_from_name("bump", d)
    return assemble_robin_system(m, f, 1.0)


def _count_vcycles(monkeypatch):
    calls = []
    vcycle = fem._vcycle

    def counted(*args):
        calls.append(1)
        return vcycle(*args)

    monkeypatch.setattr(fem, "_vcycle", counted)
    return calls


@pytest.mark.parametrize("source", ["const", "bump"])
@pytest.mark.parametrize("spec", _FAMILIES)
def test_multigrid_poisson_matches_lu(spec, source, monkeypatch):
    system = _refined_system(spec, 0.1, 2, source)
    calls = _count_vcycles(monkeypatch)
    u = solve_poisson(system).values
    lu = eigen_oracle.factor(system.matrix).solve(system.rhs)
    assert np.max(np.abs(u - lu)) <= 1e-12 * np.max(np.abs(lu))
    assert 0 < len(calls) <= 30


def _true_residual(system, u):
    A, b = system.matrix, system.rhs
    return float(np.linalg.norm(b - A @ u.values) / np.linalg.norm(b))


@pytest.mark.parametrize("spec,h,cap", [(_ELLIPSE_2, 0.05, 21), ("stadium l=1 r=0.5", 0.025, 12)])
def test_multigrid_poisson_iterations_on_the_ladder_meshes(spec, h, cap, monkeypatch):
    # PCG stops at the rounding floor: the recurrence runs on to 1e-13 for
    # more V-cycles while the true residual stands still
    system = _refined_system(spec, h, 1, "bump")
    assert system.mesh.num_nodes == {0.05: 52441, 0.025: 51681}[h]
    calls = _count_vcycles(monkeypatch)
    resid = _true_residual(system, solve_poisson(system))
    assert 0 < len(calls) <= cap
    calls.clear()
    monkeypatch.setattr(fem, "_PCG_FLOOR", 0.0)
    assert resid <= 1.1 * _true_residual(system, solve_poisson(system))
    assert len(calls) > cap


def test_root_mesh_solves_by_pcg_on_its_coarse_levels(monkeypatch):
    # one solve path: on a chain root the V-cycle runs down the root's coarse
    # levels, the root's own level on top, to the dense coarsest inverse
    system = _refined_system("stadium l=1 r=0.5", 0.1, 0, "const")
    n = system.mesh.num_nodes
    cycles = _count(monkeypatch, "_vcycle",
                    lambda levels, inverse, r: levels[-1][0].shape[0] == n > len(inverse))
    assert _true_residual(system, solve_poisson(system)) <= 1e-10
    assert 0 < len(cycles) <= 20


_SLIVER = ("polygon 0.6767,0.0608 0.2689,0.8022 0.2137,1.4323 -0.7003,0.8134 -0.7334,0.4098 "
           "-0.7690,-0.0630 -1.0042,-1.0488 -0.1428,-0.9336 0.3953,-1.4266 0.4048,-0.9313")


def test_sliver_polygon_solves_within_the_residual_contract():
    # ear clipping leaves angles from 0.18 to 179.62 degrees, and the root's
    # coarse levels are its refinement ancestors; the rounding floor of this
    # system is 4.0e-10, and its PCG solve once ended at 2.4e-10
    system = _refined_system(_SLIVER, 0.15, 2, "const")
    assert system.mesh.num_nodes == 16705
    assert _true_residual(system, solve_poisson(system)) <= 1e-10


def test_ratio_two_ellipse_ladder_converges_within_its_guard(monkeypatch):
    # deterministic counts on the 13,225-node root and its 52,441-node
    # child: PCG V-cycles on both, LOBPCG steps on the child
    d = parse_domain_spec(_ELLIPSE_2)
    root = generate_mesh(d, 0.05)
    m = refine_mesh(root)
    assert (root.num_nodes, m.num_nodes) == (13225, 52441)
    calls = _count_vcycles(monkeypatch)
    f = source_from_name("bump", d)
    cycles = []
    for mesh in (root, m):
        system = assemble_robin_system(mesh, f, 1.0)
        calls.clear()
        assert _true_residual(system, solve_poisson(system)) <= 1e-10
        cycles.append(len(calls))
    assert cycles[0] <= 25 and cycles[1] <= 21, cycles
    fem._nested_eigenpair(root, 1.0)
    steps = _count(monkeypatch, "_lobpcg")
    calls.clear()
    principal_robin_eigenpair(m, 1.0)
    assert len(steps) == 1 and len(calls) <= 12, len(calls)


def test_small_beta_solve_takes_one_refinement_step(monkeypatch):
    # at beta = 0.001 u is about |Omega| / (beta |dOmega|) = 375 plus an
    # O(1) part, and the rounding PCG's recurrence accumulates leaves 1.7e-10
    # here; PCG on the residual evaluated afresh meets the contract
    m = refine_mesh(generate_mesh(parse_domain_spec(_L_SHAPE), 0.2))
    system = assemble_robin_system(m, constant_source(), 0.001)
    pcgs = _count(monkeypatch, "_pcg")
    assert _true_residual(system, solve_poisson(system)) <= 1e-10
    assert len(pcgs) == 2


def test_lp_integrals():
    m = generate_mesh(build_domain("rect", w=1.0, h=1.0), 0.25)
    u = ScalarField(m, m.nodes[:, 0] + 1.0)  # u = x + 1 on [-1/2, 1/2]^2
    assert field_integral_pow(u, 1.0) == pytest.approx(1.0, rel=1e-12)
    assert field_integral_pow(u, 2.0) == pytest.approx(13.0 / 12.0, rel=1e-12)
    assert field_integral_pow(u, 3.0) == pytest.approx(5.0 / 4.0, rel=1e-12)
    assert field_integral_pow(u, 4.0) == pytest.approx(121.0 / 80.0, rel=1e-12)


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
    for beta in (math.nan, math.inf):
        with pytest.raises(SourceError, match="beta must be positive and finite"):
            assemble_robin_system(m, constant_source(), beta)
        with pytest.raises(SourceError, match="beta must be positive and finite"):
            principal_robin_eigenpair(m, beta)


def test_radial_source_spec():
    m = generate_mesh(build_domain("rect", w=2.0, h=0.5), 0.1)
    src = SourceSpec(kind="expr", fn=lambda x, y: 2.0 - np.hypot(x, y), label="radial")
    u = solve_robin_poisson(m, src, 1.0)
    assert u.u_min > 0.0


def _eigsh_lambda(m, beta=1.0):
    A = stiffness_matrix(m) + beta * boundary_mass_matrix(m)
    return float(eigsh(A.tocsc(), k=1, M=mass_matrix(m).tocsc(), sigma=0)[0][0])


@pytest.mark.parametrize("spec,h,levels", [
    ("disc r=1", 0.2, 1), ("ellipse a=1.4142135623730951 b=0.70710678118654757", 0.2, 1),
    ("rect w=2 h=0.5", 0.1, 1), ("stadium l=1 r=0.5", 0.1, 1),
    ("polygon -1.009,0.4251 -0.949,-0.4603 -0.0763,-1.0736 0.5474,-0.9483 1.0583,-0.1542 "
     "0.725,0.8098 -0.1133,1.0612", 0.2, 1),
    ("ellipse a=1.2 b=0.8", 0.2, 2)])
def test_multigrid_eigenpair_matches_shift_invert(spec, h, levels):
    m = generate_mesh(parse_domain_spec(spec), h)
    for _ in range(levels):
        m = refine_mesh(m)
    lam, w = principal_robin_eigenpair(m, 1.0)
    assert lam == pytest.approx(_eigsh_lambda(m), rel=1e-9)
    assert w.u_min > 0.0
    assert float(w.values @ (mass_matrix(m) @ w.values)) == pytest.approx(1.0, rel=1e-12)


def test_eigenpair_does_not_depend_on_the_hierarchy():
    m = refine_mesh(generate_mesh(build_domain("stadium", l=1.0, r=0.5), 0.1))
    flat = dataclasses.replace(m, parent=None)
    assert principal_robin_eigenpair(flat, 1.0)[0] == pytest.approx(
        principal_robin_eigenpair(m, 1.0)[0], rel=1e-9)


def test_pcg_cap_raises_with_nodes_and_residual(monkeypatch):
    monkeypatch.setattr(fem, "_PCG_MAXITER", 1)
    system = _refined_system("disc r=1", 0.2, 1, "const")
    with pytest.raises(SolverError,
                       match=rf"on {system.mesh.num_nodes} nodes at relative residual") as info:
        solve_poisson(system)
    assert info.value.residual > fem._PCG_TOL


def test_lobpcg_cap_raises_with_nodes_and_residual(monkeypatch):
    monkeypatch.setattr(fem, "_EIGEN_MAXITER", 1)
    m = refine_mesh(generate_mesh(build_domain("disc", r=1.0), 0.2))
    with pytest.raises(SolverError, match=rf"LOBPCG hit its cap of 1 steps on {m.parent.num_nodes}"
                                          r" nodes at relative residual") as info:
        principal_robin_eigenpair(m, 1.0)
    assert info.value.residual > fem._EIGEN_RTOL


def test_lobpcg_from_a_converged_eigenvector_returns_at_once():
    m = refine_mesh(generate_mesh(parse_domain_spec(_ELLIPSE_2), 0.2))
    lam, w = fem._nested_eigenpair(m, 1.0)
    calls = []

    def precondition(r):
        calls.append(1)
        return r

    A = stiffness_matrix(m) + boundary_mass_matrix(m)
    again, w2 = fem._lobpcg(A, mass_matrix(m), w, precondition)
    assert calls == []
    assert again == pytest.approx(lam, rel=1e-14)
    assert np.allclose(w2, w, rtol=0.0, atol=1e-14)


@pytest.mark.parametrize("spec", _FAMILIES)
def test_lobpcg_matches_inverse_iteration(spec):
    m = refine_mesh(generate_mesh(parse_domain_spec(spec), 0.2 if spec == "disc r=1" else 0.1))
    lam, _ = principal_robin_eigenpair(m, 1.0)
    oracle, _ = inverse_iteration_eigenpair(m, 1.0)
    assert lam == pytest.approx(oracle, rel=1e-10)


_L_SHAPE = "polygon 0,0 2,0 2,1 1,1 1,2 0,2"


def _krylov_ladder(spec, h, refinements, beta):
    """Per rung of the ladder: (mesh, A, M, w0, precondition, oracle), w0
    the ones vector on the root and the prolonged eigenvector of the rung
    below above it; precondition and oracle are the package's and the
    oracle's V-cycle of the rung's hierarchy."""
    m = generate_mesh(parse_domain_spec(spec), h)
    w = None
    for rung in range(refinements + 1):
        if rung:
            m = refine_mesh(m)
        A, M = fem._robin_matrix(m, beta), mass_matrix(m)
        inverse, levels = fem._hierarchy(m, beta, A)
        w0 = levels[-1][2] @ w if rung else np.ones(m.num_nodes)
        precondition = functools.partial(fem._vcycle, levels, inverse)
        oracle = functools.partial(eigen_oracle.vcycle, levels, inverse)
        yield m, A, M, w0, precondition, oracle
        w = fem._lobpcg(A, M, w0, precondition)[1]


def test_a_chain_root_builds_its_coarse_levels_once(monkeypatch):
    m = generate_mesh(parse_domain_spec(_L_SHAPE), 0.1)
    A = fem._robin_matrix(m, 1.0)
    built = _count(monkeypatch, "_coarse")
    inverse, levels = fem._hierarchy(m, 1.0, A)
    stored_inverse, stored_levels = m._store[1.0]["coarse"]
    assert stored_inverse is inverse and stored_levels == levels
    assert [level[0].shape[0] for level in levels] == [561, m.num_nodes]
    assert inverse.shape == (153, 153) and inverse.dtype == np.float32
    again, levels_again = fem._hierarchy(m, 1.0, A)
    assert again is inverse and levels_again == levels and len(built) == 1
    # the V-cycle's bottom is the dense float32 inverse of the coarsest level
    r = load_vector(m, source_from_name("bump", m.domain)).astype(np.float32)
    coarsest = inverse @ r[:153]
    assert np.array_equal(fem._vcycle([], inverse, r[:153]), coarsest.astype(float))
    assert np.array_equal(fem._vcycle(levels, inverse, r), eigen_oracle.vcycle(levels, inverse, r))


@pytest.mark.parametrize("spec, h, coarsest, levels", [
    ("disc r=1", 0.1, 169, [625, 1681]),
    ("disc r=1", 0.05, 169, [625, 2209, 6561]),
    (_ELLIPSE_2, 0.05, 81, [289, 961, 3481, 13225]),
    ("stadium l=1 r=0.5", 0.025, 153, [561, 1891, 6903, 13041]),
    (_L_SHAPE, 0.1, 153, [561, 2145]),
    ("rect w=1 h=1", 0.25, 25, [])])
def test_coarse_levels_halve_from_the_generator_limit(spec, h, coarsest, levels, monkeypatch):
    # the domain meshed at diameter/4 (just under), /8, ...: levels up to
    # the last mesh with at most 0.6 of the root's nodes (the stadium's
    # 6,903 of 13,041), from the last with at most 250 nodes, which is
    # solved densely; the 4-by-4 square is itself dense.  No mesh is
    # generated only to be cut, and a polygon is generated once and refined
    made = []
    generate = fem._generate
    monkeypatch.setattr(fem, "_generate", lambda d, h: made.append(generate(d, h)) or made[-1])
    m = generate_mesh(parse_domain_spec(spec), h)
    inverse, below = fem._coarse(m, fem._robin_matrix(m, 1.0))
    assert inverse.shape == (coarsest, coarsest)
    assert [level[0].shape[0] for level in below] == levels
    assert all(mesh.num_nodes <= 0.6 * m.num_nodes for mesh in made)
    assert len(made) <= 1 if spec == _L_SHAPE else len(made) >= len(levels)
    for (A, dinv, P, R), coarser in zip(below, [coarsest] + levels):
        assert P.shape == (A.shape[0], coarser) and np.array_equal(R.toarray(), P.T.toarray())
        assert A.dtype == dinv.dtype == P.dtype == np.float32


def _regular_polygon(n):
    angles = 2.0 * np.pi * np.arange(n) / n
    return build_domain("polygon", vertices=np.stack([np.cos(angles), np.sin(angles)], axis=1))


def test_aggregation_bounds_the_dense_level_under_a_polygon_of_many_vertices(monkeypatch):
    # a 200-gon's fan, refined once at h just under diameter/4, is its own
    # coarsest mesh: aggregation levels take it down to at most 250 nodes
    # and stay sparse (smoothed with the fan centre's weak links, the
    # 256-node level had 40,342 entries), and the solve meets the contract
    d = _regular_polygon(200)
    m = generate_mesh(d, math.nextafter(d.diameter() / 4.0, 0.0))
    assert m.num_nodes == 601
    system = assemble_robin_system(m, constant_source(), 1.0)
    inverse, below = fem._coarse(m, system.matrix)
    sizes = [level[0].shape[0] for level in below]
    assert len(inverse) <= 250 < sizes[0] and sizes[-1] == m.num_nodes
    assert all(a < b for a, b in zip(sizes, sizes[1:]))
    assert all(level[0].nnz <= 10 * level[0].shape[0] for level in below)
    calls = _count_vcycles(monkeypatch)
    assert _true_residual(system, solve_poisson(system)) <= 1e-10
    assert len(calls) <= 20


def test_aggregation_rejects_a_matrix_with_no_links():
    # a diagonal matrix has nothing to aggregate: SolverError, not a dense
    # solve on every node
    d = _regular_polygon(200)
    m = generate_mesh(d, math.nextafter(d.diameter() / 4.0, 0.0))
    with pytest.raises(SolverError, match="no strong link to aggregate on 601 nodes"):
        fem._coarse(m, sparse.identity(m.num_nodes, format="csr"))


def test_dense_coarsest_rejects_a_matrix_singular_in_float32():
    # at beta = 1e-9 the last Cholesky pivot of the 25-node square is 4e-9
    # of its diagonal entry, below float32's epsilon
    m = generate_mesh(build_domain("rect", w=1.0, h=1.0), 0.25)
    with pytest.raises(SolverError, match="singular matrix on 25 nodes: Cholesky pivot 4.0e-09"):
        solve_robin_poisson(m, constant_source(), 1e-9)


@pytest.mark.parametrize("beta", [1.0, 0.3])
@pytest.mark.parametrize("spec", ["disc r=1", _ELLIPSE_2, "rect w=2 h=0.5", "stadium l=1 r=0.5",
                                  _L_SHAPE])
def test_krylov_solvers_match_the_stacking_oracles_bit_for_bit(spec, beta):
    # the fixed-working-set LOBPCG, the in-house PCG and the in-place
    # V-cycle repeat the arithmetic of a LOBPCG that stacks its basis anew
    # every step, of SciPy's cg run for as many iterations and of
    # three-temporary Jacobi sweeps exactly
    pcg_rungs = 0
    for m, A, M, w0, precondition, oracle in _krylov_ladder(spec, 0.1, 2, beta):
        lam, w = fem._lobpcg(A, M, w0, precondition)
        lam_ref, w_ref = eigen_oracle.lobpcg(A, M, w0, oracle)
        assert lam == lam_ref and np.array_equal(w, w_ref)
        if m.parent is not None:
            b = load_vector(m, source_from_name("bump", m.domain))
            calls = []
            x = fem._pcg(A, b, lambda r: calls.append(1) or precondition(r))
            assert np.array_equal(x, eigen_oracle.scipy_pcg(A, b, oracle, maxiter=len(calls)))
            pcg_rungs += 1
    assert pcg_rungs == 2


@pytest.mark.parametrize("beta", [1.0, 0.3])
@pytest.mark.parametrize("spec", ["disc r=1", _L_SHAPE])
def test_lobpcg_without_p_matches_the_stacking_oracle(spec, beta, monkeypatch):
    # no benchmark or test mesh rejects a 3 x 3 Gram matrix, so force every
    # step onto the span{w, t} branch
    cholesky = np.linalg.cholesky

    def rejecting(G):
        if G.shape == (3, 3):
            raise np.linalg.LinAlgError("rejected")
        return cholesky(G)

    monkeypatch.setattr(np.linalg, "cholesky", rejecting)
    for _, A, M, w0, precondition, oracle in _krylov_ladder(spec, 0.2, 1, beta):
        lam, w = fem._lobpcg(A, M, w0, precondition)
        lam_ref, w_ref = eigen_oracle.lobpcg(A, M, w0, oracle)
        assert lam == lam_ref and np.array_equal(w, w_ref)


def test_lobpcg_zero_direction_raises_solver_error():
    _, A, M, w0, _, _ = next(_krylov_ladder("disc r=1", 0.2, 0, 1.0))
    with pytest.raises(SolverError, match=rf"M-norm 0 on {A.shape[0]} nodes"):
        fem._lobpcg(A, M, w0, lambda r: 0 * r)


# ---------------------------------------------------------------------------
# the per-mesh solver store


def _count(monkeypatch, name, record=lambda *args: True):
    """Count the calls of fem.<name> for which record(*args) holds."""
    calls = []
    inner = getattr(fem, name)

    def counted(*args, **kwargs):
        if record(*args):
            calls.append(1)
        return inner(*args, **kwargs)

    monkeypatch.setattr(fem, name, counted)
    return calls


def test_ladder_builds_its_hierarchy_once(monkeypatch):
    from robinsym.verify import Ladder

    d = parse_domain_spec(_ELLIPSE_2)
    ladder = Ladder(d, 1.0, 0.2, refinements=2)
    root = ladder.meshes[0]
    built = _count(monkeypatch, "_coarse")
    robins = _count(monkeypatch, "_robin_matrix")
    root_iterations = _count(monkeypatch, "_lobpcg",
                             lambda A, *rest: A.shape[0] == root.num_nodes)
    for name in ("const", "radial", "bump"):
        ladder.solutions(source_from_name(name, d))
    lams = ladder.eigenvalues
    # the parent recomputes every coarser level per call: 12, 24 and 3
    assert (len(built), len(robins), len(root_iterations)) == (1, 3, 1)
    assert [principal_robin_eigenpair(m, 1.0)[0] for m in ladder.meshes] == lams
    assert (len(built), len(robins), len(root_iterations)) == (1, 3, 1)


def _chain_results(meshes, d):
    f = source_from_name("bump", d)
    us = [solve_robin_poisson(m, f, 1.0).values for m in meshes]
    eigs = [principal_robin_eigenpair(m, 1.0) for m in meshes]
    return us, [lam for lam, _ in eigs], [w.values for _, w in eigs]


def _fresh_chain(d, h, levels):
    meshes = [generate_mesh(d, h)]
    for _ in range(levels):
        meshes.append(refine_mesh(meshes[-1]))
    return meshes


@pytest.mark.parametrize("spec", [_ELLIPSE_2, "stadium l=1 r=0.5"])
def test_warm_store_matches_a_fresh_chain_exactly(spec):
    d = parse_domain_spec(spec)
    meshes = _fresh_chain(d, 0.2, 2)
    cold = _chain_results(meshes, d)
    warm = _chain_results(meshes, d)
    fresh = _chain_results(_fresh_chain(d, 0.2, 2), d)
    for got in (warm, fresh):
        for a, b in zip(cold, got):
            for x, y in zip(a, b):
                assert np.array_equal(x, y)
    # an eigenpair asked for on the finest mesh first fills the coarser ones
    finest_first = _fresh_chain(d, 0.2, 2)
    lam, w = principal_robin_eigenpair(finest_first[-1], 1.0)
    assert lam == cold[1][-1] and np.array_equal(w.values, cold[2][-1])
    assert [principal_robin_eigenpair(m, 1.0)[0] for m in finest_first] == cold[1]


def test_store_is_kept_per_beta_and_shared_by_systems():
    m = refine_mesh(generate_mesh(build_domain("disc", r=1.0), 0.2))
    one = assemble_robin_system(m, constant_source(1.0), 1.0)
    two = assemble_robin_system(m, constant_source(2.0), 1.0)
    other = assemble_robin_system(m, constant_source(1.0), 3.0)
    assert one.matrix is two.matrix and other.matrix is not one.matrix
    with pytest.raises(ValueError, match="read-only"):
        one.matrix.data[0] = 0.0
    assert solve_poisson(two).values == pytest.approx(2.0 * solve_poisson(one).values, rel=1e-9)
    lam1, w1 = principal_robin_eigenpair(m, 1.0)
    lam3, _ = principal_robin_eigenpair(m, 3.0)
    assert lam3 > lam1
    # the eigenfunction handed out is the caller's to change
    w1.values[:] = 0.0
    assert principal_robin_eigenpair(m, 1.0)[1].u_min > 0.0
    assert sorted(m.parent._store) == [1.0, 3.0]
    # only assemble_robin_system stores a Robin matrix, and the parent was
    # never handed to it
    assert set(m.parent._store[1.0]) == {"coarse", "eigenpair"}
    assert set(m._store[1.0]) == {"matrix", "eigenpair"}


def test_eigenpair_keeps_no_robin_matrix_of_its_own():
    m = refine_mesh(generate_mesh(build_domain("disc", r=1.0), 0.2))
    principal_robin_eigenpair(m, 1.0)
    assert set(m._store[1.0]) == {"eigenpair"}
    assert set(m.parent._store[1.0]) == {"coarse", "eigenpair"}


@pytest.mark.parametrize("h, levels", [(0.25, 0), (0.05, 1)])
def test_root_solve_builds_levels_for_a_matrix_that_is_not_the_stored_one(h, levels,
                                                                         monkeypatch):
    # h = 0.25: a 25-node root, itself the dense coarsest; h = 0.05: a
    # 441-node root over an 81-node dense level
    m = generate_mesh(build_domain("rect", w=1.0, h=1.0), h)
    assert len(fem._coarse(m, fem._robin_matrix(m, 1.0))[1]) == levels
    system = assemble_robin_system(m, constant_source(), 1.0)
    u = solve_poisson(system)
    stored = m._store[1.0]["coarse"]
    built = _count(monkeypatch, "_coarse")
    assert np.array_equal(solve_poisson(system).values, u.values)
    assert len(built) == 0
    copy = SparseSystem(system.matrix.copy(), system.rhs, m, 1.0)
    assert np.array_equal(solve_poisson(copy).values, u.values)
    assert len(built) == 1 and m._store[1.0]["coarse"] is stored


def test_hand_built_systems_fail_on_a_warm_store():
    for levels in (0, 1):
        m = generate_mesh(build_domain("rect", w=1.0, h=1.0), 0.25)
        for _ in range(levels):
            m = refine_mesh(m)
        solve_robin_poisson(m, constant_source(), 1.0)
        principal_robin_eigenpair(m, 1.0)
        load = load_vector(m, constant_source())
        zero = SparseSystem(sparse.csr_matrix((m.num_nodes, m.num_nodes)), load, m, 1.0)
        neumann = SparseSystem(stiffness_matrix(m), load, m, 1.0)
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            with pytest.raises(SolverError, match=f"{m.num_nodes} nodes"):
                solve_poisson(zero)
            with pytest.raises(SolverError) as info:
                solve_poisson(neumann)
        assert info.value.residual > 1e-10


def test_replaced_mesh_starts_with_an_empty_store():
    from dataclasses import replace

    m = generate_mesh(build_domain("disc", r=1.0), 0.2)
    lam, _ = principal_robin_eigenpair(m, 1.0)
    assert m._store
    scaled = replace(m, nodes=2.0 * m.nodes)
    assert scaled._store == {}
    # lambda scales as 1/R^2 for the Dirichlet part; a larger disc has a
    # smaller eigenvalue whatever beta
    assert principal_robin_eigenpair(scaled, 1.0)[0] < lam
    assert principal_robin_eigenpair(m, 1.0)[0] == lam


def test_mesh_arrays_are_read_only():
    m = refine_mesh(generate_mesh(build_domain("ellipse", a=1.5, b=0.6), 0.2))
    for a in (m.nodes, m.triangles, m.boundary_edges, m.boundary_curve, m.boundary_t,
              *m.graph, *m.parent.graph):
        with pytest.raises(ValueError, match="read-only"):
            a[0] = a[1]


# ---------------------------------------------------------------------------
# per-edge assembly against the element-by-element COO oracle

_ASSEMBLY_FAMILIES = ["disc r=1", "ellipse a=1.4142135623730951 b=0.70710678118654757",
                      "stadium l=1 r=0.5", "rect w=2 h=0.5", "polygon 0,0 2,0 2,1 1,1 1,2 0,2"]


def _off_diagonal(A):
    A = A.tocsr(copy=True)
    A.setdiag(0.0)
    A.eliminate_zeros()
    return A


@pytest.mark.parametrize("spec", _ASSEMBLY_FAMILIES)
def test_per_edge_assembly_matches_the_coo_oracle(spec):
    m = generate_mesh(parse_domain_spec(spec), 0.2)
    for _ in range(2):
        beta = 1.3
        robin = assemble_robin_system(m, constant_source(), beta).matrix
        oracle_robin = assembly_oracle.robin_matrix(m, beta)
        assert np.array_equal(robin.indptr, oracle_robin.indptr)
        assert np.array_equal(robin.indices, oracle_robin.indices)
        for A, oracle in [(stiffness_matrix(m), assembly_oracle.stiffness_matrix(m)),
                          (boundary_mass_matrix(m), assembly_oracle.boundary_mass_matrix(m)),
                          (mass_matrix(m), assembly_oracle.mass_matrix(m)),
                          (robin, oracle_robin)]:
            # off the diagonal every entry sums the same one or two terms
            assert (_off_diagonal(A) != _off_diagonal(oracle)).nnz == 0
            # the diagonal sums its terms in another order
            d, ref = A.diagonal(), oracle.diagonal()
            assert np.all(np.abs(d - ref) <= 4 * np.spacing(np.abs(ref)))
        m = refine_mesh(m)


@pytest.mark.parametrize("spec", _ASSEMBLY_FAMILIES)
def test_per_edge_load_vector_matches_the_per_triangle_oracle(spec, monkeypatch):
    # small blocks, so that the triangle terms cross block boundaries
    monkeypatch.setattr(meshing, "_CHUNK", 997)
    d = parse_domain_spec(spec)
    m = generate_mesh(d, 0.1)
    for _ in range(3):
        for name in ("const", "radial", "bump"):
            f = source_from_name(name, d)
            assert np.array_equal(load_vector(m, f), assembly_oracle.load_vector(m, f))
        if len(m.triangles) > 2 * 997:
            break
        m = refine_mesh(m)
    assert len(m.triangles) > 2 * 997


def _transient_mb(fn):
    """fn() and the peak memory it allocated above what was live before, in
    MB, as tracemalloc sees it (numpy reports its array buffers to it)."""
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        out = fn()
        return out, (tracemalloc.get_traced_memory()[1] - base) / 1e6
    finally:
        tracemalloc.stop()


def test_assembly_and_mu_stay_within_their_memory_budget():
    # the 52.4k-node ratio-2 ellipse; element-by-element COO assembly took
    # 30.6 MB and a mu built from one 3T-long piece array 21.5 MB, and
    # the per-edge and chunked forms must take at most 60% of that.  Whole-
    # mesh arrays took 10.0 MB for the load vector, 9.2 MB for mu, 6.8 MB for
    # a fixed-rule Lorentz integral and 3.4 MB for u* on the cosine grid; the
    # blockwise kernels must stay below the bounds.  mu took 8.0 MB with
    # int64 break indices
    d = parse_domain_spec("ellipse a=1.4142135623730951 b=0.70710678118654757")
    m = refine_mesh(generate_mesh(d, 0.05))
    assert m.num_nodes == 52441
    f = source_from_name("bump", d)
    system, assembly_mb = _transient_mb(lambda: assemble_robin_system(m, f, 1.0))
    _, load_mb = _transient_mb(lambda: load_vector(m, f))
    u = solve_poisson(system)
    dist, mu_mb = _transient_mb(lambda: build_mu_segments(u))
    _, lorentz_mb = _transient_mb(lambda: lorentz_power_integral(dist, 2, 2))
    _, ustar_mb = _transient_mb(lambda: decreasing_rearrangement(dist))
    assert assembly_mb <= 0.6 * 30.6, assembly_mb
    assert load_mb <= 6.0, load_mb
    assert mu_mb <= 7.0, mu_mb
    assert lorentz_mb <= 5.0, lorentz_mb
    assert ustar_mb <= 2.6, ustar_mb


def test_symmetrized_lorentz_stays_within_its_memory_budget():
    # the 2,048-point bump f* of the 52.4k-node ratio-2 ellipse.  The disc-
    # side rules over all 2,047 segments at once took 3.85 MB for the fixed
    # rule at (2, 2) and 6.65 MB for the adaptive batch at (0.75, 1); one
    # block of segments at a time must stay below the bounds
    d = parse_domain_spec(_ELLIPSE_2)
    m = refine_mesh(generate_mesh(d, 0.05))
    assert m.num_nodes == 52441
    rs = symmetrized_solution(d.measure, 2, 1.0, _fstar_for(d, m, source_from_name("bump", d)))
    assert len(rs.fstar.s) == 2048
    _, fixed_mb = _transient_mb(lambda: rs.lorentz_power_integral(2, 2))
    _, adaptive_mb = _transient_mb(lambda: rs.lorentz_power_integral(0.75, 1))
    assert fixed_mb <= 1.5, fixed_mb
    assert adaptive_mb <= 2.5, adaptive_mb


def _kept_mb(fn):
    """fn() and the memory it allocated that is still live after it
    returned, in MB, as tracemalloc sees it."""
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        out = fn()
        return out, (tracemalloc.get_traced_memory()[0] - base) / 1e6
    finally:
        tracemalloc.stop()


def test_a_rung_keeps_compact_state():
    # the 52.4k-node ratio-2 ellipse rung.  With int64 triangles and
    # boundary edges its mesh kept 6.51 MB (the root's edge graph, built on
    # the way, included); a mu that also kept its segment midpoints and,
    # after one u*, that u*'s edge values kept 2.94 MB
    d = parse_domain_spec(_ELLIPSE_2)
    root = generate_mesh(d, 0.05)
    m, mesh_mb = _kept_mb(lambda: refine_mesh(root))
    assert m.num_nodes == 52441
    u = solve_robin_poisson(m, source_from_name("bump", d), 1.0)

    def mu_and_ustar():
        dist = build_mu_segments(u)
        decreasing_rearrangement(dist)
        return dist

    _, mu_mb = _kept_mb(mu_and_ustar)
    assert mesh_mb <= 5.5, mesh_mb
    assert mu_mb <= 1.8, mu_mb


def test_lobpcg_stays_within_its_memory_budget():
    # the fine rung of the 52.4k-node ratio-2 ellipse; stacking a fresh
    # (k, 3, n) basis and new w and p blocks every step took 12.2 MB, one
    # (3, 3, n) basis updated in place must take at most 7.5 MB
    m = refine_mesh(generate_mesh(parse_domain_spec(_ELLIPSE_2), 0.05))
    assert m.num_nodes == 52441
    A, M = fem._robin_matrix(m, 1.0), mass_matrix(m)
    inverse, levels = fem._hierarchy(m, 1.0, A)
    w0 = levels[-1][2] @ fem._nested_eigenpair(m.parent, 1.0)[1]
    _, lobpcg_mb = _transient_mb(
        lambda: fem._lobpcg(A, M, w0, functools.partial(fem._vcycle, levels, inverse)))
    assert lobpcg_mb <= 7.5, lobpcg_mb
