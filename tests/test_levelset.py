import math
import warnings
from dataclasses import replace

import numpy as np
import pytest

from proof_oracle import (
    check_propagation,
    dmu,
    exterior_boundary_integral_inv_u,
    exterior_time_integral,
    interior_level_perimeter,
    make_level_grid,
    max_relative_residual,
    ode_residuals,
    perimeter_decomposition,
    profile_distribution,
    superlevel_asymmetry,
    superlevel_boundary,
    superlevel_measure_exact,
)
import proof_oracle
from robinsym import levelset, meshing
from robinsym.domains import _SEARCH_FLOOR, _asymmetry_search, _asymmetry_seeds, build_domain, \
    fraenkel_asymmetry, parse_domain_spec
from robinsym.fem import ScalarField, constant_source, solve_robin_poisson
from robinsym.meshing import generate_mesh, refine_mesh
from robinsym.radial import symmetrized_constant_source
from robinsym.rearrange import DecreasingProfile, constant_profile, decreasing_rearrangement, \
    distribution_function
from robinsym.runner import source_from_name
from mesh_oracle import hand_mesh
from search_oracle import nelder_mead_asymmetry


def single_triangle(values):
    nodes = np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]])
    tris = np.array([[0, 1, 2]])
    bedges = np.array([[0, 1], [1, 2], [2, 0]])
    return ScalarField(hand_mesh(nodes, tris, bedges), np.asarray(values, dtype=float))


def test_triangle_superlevel_quarter():
    u = single_triangle([0.0, 0.0, 1.0])
    # {u > 1/2} is the similar triangle at the top vertex: area (1/2)^2 * A
    assert superlevel_measure_exact(u, 0.5) == pytest.approx(0.125, abs=1e-15)
    # Monte Carlo oracle
    rng = np.random.default_rng(2)
    n = 400_000
    a = rng.uniform(0, 1, size=(n, 2))
    keep = a.sum(axis=1) <= 1.0
    frac = (a[keep, 1] > 0.5).mean() * 0.5
    assert superlevel_measure_exact(u, 0.5) == pytest.approx(frac, abs=3e-3)


def test_superlevel_extremes():
    u = single_triangle([0.2, 0.5, 1.0])
    assert superlevel_measure_exact(u, 0.1) == pytest.approx(0.5, abs=1e-15)
    assert superlevel_measure_exact(u, 1.0) == 0.0
    assert superlevel_measure_exact(u, 2.0) == 0.0


def test_interior_perimeter_plane_field():
    m = generate_mesh(build_domain("rect", w=1.0, h=1.0), 0.25)
    u = ScalarField(m, m.nodes[:, 0] + 0.5)  # u = x + 1/2 on the unit square
    assert interior_level_perimeter(u, 0.5) == pytest.approx(1.0, abs=1e-12)
    assert interior_level_perimeter(u, -0.1) == 0.0


def test_interior_perimeter_cone_on_disc():
    m = generate_mesh(build_domain("disc", r=1.0), 0.05)
    u = ScalarField(m, 1.0 - np.hypot(m.nodes[:, 0], m.nodes[:, 1]))
    per = interior_level_perimeter(u, 0.5)
    assert per == pytest.approx(math.pi, rel=2e-3)


def test_exterior_integral_examples():
    m = generate_mesh(build_domain("disc", r=1.0), 0.1)
    c = 0.7
    u = ScalarField(m, np.full(m.num_nodes, c))
    P = m.boundary_length()
    assert exterior_boundary_integral_inv_u(u, 0.1) == pytest.approx(P / c, rel=1e-12)
    assert exterior_boundary_integral_inv_u(u, 0.7) == 0.0
    # single edge, length 1, endpoint values (1, 2):  integral = ln 2
    nodes = np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]])
    m1 = hand_mesh(nodes, [[0, 1, 2]], [[0, 1]])
    u1 = ScalarField(m1, np.array([1.0, 2.0, 1.0]))
    assert exterior_boundary_integral_inv_u(u1, 0.0) == pytest.approx(math.log(2.0), rel=1e-12)
    # clipped at t = 1.5: u > 1.5 on the upper half of the edge
    expected = 0.5 * math.log(2.0 / 1.5) / 0.5
    assert exterior_boundary_integral_inv_u(u1, 1.5) == pytest.approx(expected * 0.5 / 0.5, rel=1e-10)


def test_positivity_guard():
    u = single_triangle([0.0, 1.0, 1.0])
    with pytest.raises(ValueError):
        exterior_boundary_integral_inv_u(u, 0.5)


def test_radial_ode_equality():
    rs = symmetrized_constant_source(math.pi, beta=1.0)
    grid = make_level_grid(rs.v_M, anchors=(rs.v_m,), count=512)
    lhs, rhs = ode_residuals(rs, constant_profile(1.0, math.pi), 1.0, grid)
    assert max_relative_residual(lhs, rhs) <= 1e-6


def test_fem_ode_inequality_on_ellipse():
    d = build_domain("ellipse", a=1.2, b=1.0 / 1.2)
    h = 0.08
    m = generate_mesh(d, h)
    u = solve_robin_poisson(m, constant_source(1.0), 1.0)
    fstar = decreasing_rearrangement(distribution_function(
        ScalarField(m, np.ones(m.num_nodes))), num=16)
    grid = make_level_grid(u.u_max, anchors=(u.u_min,), count=256)
    lhs, rhs = ode_residuals(u, fstar, 1.0, grid)
    scale = np.maximum(np.maximum(np.abs(lhs), np.abs(rhs)), 1e-300)
    assert np.mean((rhs - lhs) / scale >= -10.0 * h) >= 0.99


def test_lemma33_radial_equality_and_fem_inequality():
    beta = 1.0
    rs = symmetrized_constant_source(math.pi, beta=beta)
    # closed form: exterior boundary term integrates to P v_m / 2 = |Omega|/(2 beta)
    P = 2.0 * math.pi
    lhs_radial = P * rs.v_m / 2.0
    rhs = math.pi / (2.0 * beta)
    assert lhs_radial == pytest.approx(rhs, rel=1e-12)
    # FEM side on a rectangle: inequality with discretization slack
    d = build_domain("rect", w=2.0, h=0.5)
    m = generate_mesh(d, 0.05)
    u = solve_robin_poisson(m, constant_source(1.0), beta)
    val = exterior_time_integral(u, tau=u.u_max * 1.01)
    bound = d.measure / (2.0 * beta)
    assert val <= bound + 5e-3 * bound


def test_perimeter_decomposition_and_isoperimetric():
    d = build_domain("ellipse", a=1.3, b=1.0 / 1.3)
    h = 0.08
    m = generate_mesh(d, h)
    u = solve_robin_poisson(m, constant_source(1.0), 1.0)
    dist = distribution_function(u)
    # below the minimum: no interior level line, full boundary
    t_lo = u.u_min * 0.5
    interior, ext = perimeter_decomposition(u, t_lo)
    assert interior == 0.0
    assert ext == pytest.approx(m.boundary_length(), rel=1e-12)
    # above the maximum: both vanish
    interior, ext = perimeter_decomposition(u, u.u_max * 1.1)
    assert interior == 0.0 and ext == 0.0
    # discrete isoperimetric consistency on a level ladder
    for t in np.linspace(u.u_min * 1.05, u.u_max * 0.95, 25):
        interior, ext = perimeter_decomposition(u, t)
        mu = dist.mu(t)
        assert interior + ext >= 2.0 * math.sqrt(math.pi * mu) - 10.0 * h * math.sqrt(mu)


# the convex heptagon of the benchmark's shape family
HEPTAGON = ("polygon -1.009,0.4251 -0.949,-0.4603 -0.0763,-1.0736 0.5474,-0.9483 "
            "1.0583,-0.1542 0.725,0.8098 -0.1133,1.0612")
ELLIPSE_2 = "ellipse a=1.4142135623730951 b=0.7071067811865476"


def _torsion(spec, h=0.1):
    return solve_robin_poisson(generate_mesh(parse_domain_spec(spec), h),
                               constant_source(1.0), 1.0)


def _l_shape_field():
    # 1 on a mesh of the L-shape, so that every superlevel set below 1 is
    # the whole L
    m = generate_mesh(parse_domain_spec("polygon 0,0 2,0 2,1 1,1 1,2 0,2"), 0.1)
    return ScalarField(m, np.ones(m.num_nodes))


def _signed_area(segments):
    a, b = segments[:, 0], segments[:, 1]
    return 0.5 * float(np.sum(a[:, 0] * b[:, 1] - a[:, 1] * b[:, 0]))


@pytest.mark.parametrize("spec", ["rect w=2 h=0.5", HEPTAGON])
def test_superlevel_asymmetry_below_min_is_domain_asymmetry(spec):
    # below min u the superlevel set is the whole mesh, which covers a
    # straight-sided domain exactly
    u = _torsion(spec)
    a = superlevel_asymmetry(u, 0.5 * u.u_min)
    assert a.value == pytest.approx(fraenkel_asymmetry(parse_domain_spec(spec)).value,
                                    abs=1e-12)


def test_superlevel_asymmetry_of_nonconvex_mesh():
    a = superlevel_asymmetry(_l_shape_field(), 0.5)
    exact = fraenkel_asymmetry(parse_domain_spec("polygon 0,0 2,0 2,1 1,1 1,2 0,2"))
    assert a.value == pytest.approx(exact.value, abs=1e-12)


@pytest.mark.parametrize("spec", ["rect w=2 h=0.5", ELLIPSE_2])
def test_superlevel_boundary_area_is_mu(spec):
    u = _torsion(spec)
    dist = distribution_function(u)
    for t in np.linspace(u.u_min, u.u_max, 7)[1:-1]:
        area = _signed_area(superlevel_boundary(u, t))
        assert area == pytest.approx(superlevel_measure_exact(u, t), rel=1e-12)
        # build_mu_segments rounds the nodal values to multiples of
        # 1e-12 max|u|, which moves mu by up to that times |mu'|
        assert area == pytest.approx(dist.mu(t),
                                     rel=1e-12, abs=1e-12 * u.u_max * abs(dmu(dist, t)))


def test_superlevel_asymmetry_translation_invariant():
    # a bump source makes the level sets lopsided
    d = parse_domain_spec(ELLIPSE_2)
    u = solve_robin_poisson(generate_mesh(d, 0.1), source_from_name("bump", d), 1.0)
    moved = ScalarField(replace(u.mesh, nodes=u.mesh.nodes + [0.7, -0.3]), u.values)
    for t in np.linspace(u.u_min, u.u_max, 5)[1:-1]:
        assert superlevel_asymmetry(moved, t).value == pytest.approx(
            superlevel_asymmetry(u, t).value, abs=1e-9)


def test_superlevel_asymmetry_none_only_when_empty():
    u = _torsion("stadium l=1 r=0.5")
    assert superlevel_asymmetry(u, u.u_max) is None
    assert superlevel_asymmetry(u, 2.0 * u.u_max) is None
    for t in (u.u_max * (1.0 - 1e-6), u.u_min, 0.0):
        a = superlevel_asymmetry(u, t)
        assert a is not None and 0.0 <= a.value < 2.0


def test_ustar_of_a_near_flat_segment_does_not_warn():
    # the first segment falls by 1e-16 over a unit of s: its quadratic root
    # overflows and is discarded for the linear one
    prof = DecreasingProfile(s=[0.0, 1.0, 2.0], values=[1.0, 1.0 - 1e-16, 0.0])
    q = np.linspace(0.0, 2.0, 9)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        out = profile_distribution(prof).ustar(q)
    assert np.allclose(out, np.where(q <= 1.0, 1.0, 2.0 - q), rtol=0.0, atol=1e-15)


def _recording_search(monkeypatch):
    """Patch the search behind superlevel_asymmetry to record its seeds;
    9-seed searches are skipped, as only their seeds are under test."""
    seeds_seen = []

    def search(segments, arcs, area, seeds):
        seeds_seen.append((segments, area, seeds))
        return _asymmetry_search(segments, arcs, area, seeds) if len(seeds) == 1 else None

    monkeypatch.setattr(proof_oracle, "_asymmetry_search", search)
    return seeds_seen


def _criterion_10_levels():
    """The 20 levels of the propagation property suite (acceptance criterion
    10): u and t for each, on four shapes."""
    for spec in ("ellipse a=1.224744871391589 b=0.81649658092772615",
                 "ellipse a=1.4142135623730951 b=0.70710678118654757",
                 "rect w=2 h=0.5", "stadium l=1 r=0.5"):
        alpha = fraenkel_asymmetry(parse_domain_spec(spec)).value
        u = _torsion(spec)
        dist = distribution_function(u)
        for frac in (1 / 16.0, 1 / 8.0, 3 / 16.0, 0.21, 0.24):
            yield u, dist.ustar(u.mesh.area() * (1.0 - alpha * frac))


def test_convex_superlevel_sets_are_searched_from_the_centroid(monkeypatch):
    seen = _recording_search(monkeypatch)
    for u, t in _criterion_10_levels():
        superlevel_asymmetry(u, t)
    assert len(seen) == 20 and {len(s) for _, _, s in seen} == {1, 9}
    for segments, area, (centroid,) in (r for r in seen if len(r[2]) == 1):
        points = segments.reshape(-1, 2)
        lo, hi = points.min(axis=0), points.max(axis=0)
        nine = _asymmetry_seeds((lo[0], hi[0], lo[1], hi[1]), centroid)
        assert _asymmetry_search(segments, [], area, [centroid]).value == pytest.approx(
            _asymmetry_search(segments, [], area, nine).value, abs=1e-12)


def test_superlevel_search_is_no_worse_than_nelder_mead(monkeypatch):
    # the quasi-Newton search against the simplex search it replaced, from
    # the same seeds, on the 20 criterion-10 levels
    seen = _recording_search(monkeypatch)
    for u, t in _criterion_10_levels():
        superlevel_asymmetry(u, t)
    for segments, area, seeds in seen:
        new = _asymmetry_search(segments, [], area, seeds)
        value, evaluations = nelder_mead_asymmetry(segments, [], area, seeds)
        assert new.value <= value + 1e-12
        assert new.evaluations < evaluations


def test_hull_bound_is_a_lower_bound_for_the_superlevel_asymmetry():
    # on a convex U_t the propagation check's bound and the search are one
    # value summed over different segments, equal up to the rounding floor
    for u, t in _criterion_10_levels():
        search = superlevel_asymmetry(u, t)
        bound = check_propagation(u, t).alpha_subset_bound
        assert bound <= search.value + search.error + _SEARCH_FLOOR


def test_nonconvex_superlevel_sets_keep_nine_seeds(monkeypatch):
    seen = _recording_search(monkeypatch)
    superlevel_asymmetry(_l_shape_field(), 0.5)
    m = generate_mesh(build_domain("rect", w=2.0, h=0.5), 0.1)
    superlevel_asymmetry(ScalarField(m, np.abs(m.nodes[:, 0])), 0.5)  # two components
    assert [len(s) for _, _, s in seen] == [9, 9]


def _loop_mu_segments(u):
    """build_mu_segments as a per-segment Python recurrence: the reference
    for the vectorized form, which must match it bit for bit."""
    vals = np.abs(u.values)
    snap = float(vals.max()) * 1e-12
    vals = np.round(vals / snap) * snap
    tv = np.sort(vals[u.mesh.triangles], axis=1)
    v1, v2, v3 = tv[:, 0], tv[:, 1], tv[:, 2]
    area = u.mesh.triangle_areas()
    breaks = np.unique(np.concatenate([[0.0], vals]))
    k = len(breaks) - 1
    centers = 0.5 * (breaks[:-1] + breaks[1:])
    zero = np.zeros_like(area)
    with np.errstate(divide="ignore", invalid="ignore"):
        g1 = -area / ((v2 - v1) * (v3 - v1))
        g2 = area / ((v3 - v2) * (v3 - v1))
    # pieces (start, end, gamma, theta, alpha) adding gamma (t - theta)^2 + alpha
    pieces = [(zero, v1, zero, zero, area, v1 > 0.0), (v1, v2, g1, v1, area, v2 > v1),
              (v2, v3, g2, v3, zero, v3 > v2)]
    starts, ends, gammas, thetas, alphas = (
        np.concatenate([p[i][p[5]] for p in pieces]) for i in range(5))
    si = np.searchsorted(breaks, starts)
    ei = np.searchsorted(breaks, ends)
    add = np.zeros((k + 1, 3))
    sub = np.zeros((k + 1, 3))
    for events, idx, m in ((add, si, centers[np.clip(si, 0, k - 1)]),
                           (sub, ei, centers[np.clip(ei - 1, 0, k - 1)])):
        d = m - thetas
        np.add.at(events[:, 0], idx, gammas * d * d + alphas)
        np.add.at(events[:, 1], idx, 2.0 * gammas * d)
        np.add.at(events[:, 2], idx, gammas)
    coeffs = np.empty((k, 3))
    a = b = c = 0.0
    for j in range(k):
        if j > 0:
            a -= sub[j, 0]
            b -= sub[j, 1]
            c -= sub[j, 2]
            dlt = centers[j] - centers[j - 1]
            a += b * dlt + c * dlt * dlt
            b += 2.0 * c * dlt
        a += add[j, 0]
        b += add[j, 1]
        c += add[j, 2]
        coeffs[j] = (a, b, c)
    return levelset.DistributionFunction(breaks=breaks, coeffs=coeffs,
                                         total_measure=float(area.sum()),
                                         ess_inf=float(vals.min()))


@pytest.mark.parametrize("refinements", [0, 1])
@pytest.mark.parametrize("spec", ["disc r=1", ELLIPSE_2, "rect w=2 h=0.5",
                                  "stadium l=1 r=0.5", HEPTAGON])
def test_build_mu_segments_matches_the_loop(spec, refinements, monkeypatch):
    if refinements:
        # small blocks, so that the events and the running sums cross block
        # boundaries
        monkeypatch.setattr(meshing, "_CHUNK", 997)
    d = parse_domain_spec(spec)
    m = generate_mesh(d, 0.2)
    for _ in range(refinements):
        m = refine_mesh(m)
    fields = [solve_robin_poisson(m, source_from_name(name, d), 1.0) for name in ("const", "bump")]
    # random values on 11 levels: plateaus and many triangles with tied nodes
    rng = np.random.default_rng(refinements)
    fields.append(ScalarField(m, np.round(rng.uniform(0.0, 1.0, m.num_nodes), 1) + 0.5))
    for u in fields:
        got, ref = levelset.build_mu_segments(u), _loop_mu_segments(u)
        for name in ("breaks", "coeffs"):
            assert np.array_equal(getattr(got, name), getattr(ref, name)), name
        assert (got.total_measure, got.ess_inf) == (ref.total_measure, ref.ess_inf)
        ts = np.linspace(0.0, 1.01 * u.u_max, 203)
        assert np.array_equal(got.mu(ts), ref.mu(ts))
