import math

import numpy as np
import pytest

from robinsym.domains import build_domain
from robinsym.fem import ScalarField, field_integral_pow
from robinsym.meshing import generate_mesh
from robinsym.rearrange import (
    DecreasingProfile,
    RearrangeError,
    cavalieri_pnorm_power,
    constant_profile,
    decreasing_rearrangement,
    distribution_function,
    hardy_littlewood_gap,
    lorentz_norm,
    lorentz_power_integral,
    schwarz_value,
)


def two_triangle_square():
    from robinsym.meshing import Mesh
    nodes = np.array([[-0.5, -0.5], [0.5, -0.5], [0.5, 0.5], [-0.5, 0.5]])
    tris = np.array([[0, 1, 2], [0, 2, 3]])
    bedges = np.array([[0, 1], [1, 2], [2, 3], [3, 0]])
    return Mesh(nodes=nodes, triangles=tris, boundary_edges=bedges, h=1.0)


def random_field(mesh, seed, lo=0.0, hi=1.0):
    rng = np.random.default_rng(seed)
    return ScalarField(mesh, rng.uniform(lo, hi, size=mesh.num_nodes))


def cone_profile(num=4097):
    # u(x) = 1 - |x| on the unit disc: u*(s) = 1 - sqrt(s/pi)
    s = math.pi * 0.5 * (1.0 - np.cos(np.pi * np.linspace(0.0, 1.0, num)))
    return DecreasingProfile(s=s, values=1.0 - np.sqrt(s / math.pi))


def test_distribution_of_constant_field():
    m = two_triangle_square()
    u = ScalarField(m, np.full(m.num_nodes, 0.7))
    d = distribution_function(u)
    assert d.mu(0.0) == pytest.approx(1.0, abs=1e-14)
    assert d.mu(0.699) == pytest.approx(1.0, abs=1e-12)
    assert d.mu(0.7) == 0.0
    assert d.mu(1.0) == 0.0


def test_cone_distribution_from_profile():
    prof = cone_profile()
    d = distribution_function(prof)
    # at the profile's own knots the inversion is exact
    for i in (1, 100, 2000, 4000):
        assert d.mu(prof.values[i]) == pytest.approx(prof.s[i], abs=1e-12)
    # against the analytic cone distribution, at the PL sampling accuracy
    for t in (0.0, 0.1, 0.35, 0.5, 0.9):
        assert d.mu(t) == pytest.approx(math.pi * (1 - t) ** 2, rel=1e-5, abs=1e-7)


def test_distribution_matches_monte_carlo():
    m = two_triangle_square()
    u = random_field(m, 11)
    d = distribution_function(u)
    rng = np.random.default_rng(5)
    n = 1_000_000
    px = rng.uniform(-0.5, 0.5, size=n)
    py = rng.uniform(-0.5, 0.5, size=n)
    # interpolate the P1 field at sample points: two triangles split by x+y=0
    tri_vals = u.values[m.triangles]
    pts = m.nodes[m.triangles]
    vals = np.empty(n)
    for k in range(len(m.triangles)):
        p = pts[k]
        T = np.array([[p[1, 0] - p[0, 0], p[2, 0] - p[0, 0]],
                      [p[1, 1] - p[0, 1], p[2, 1] - p[0, 1]]])
        ab = np.linalg.solve(T, np.stack([px - p[0, 0], py - p[0, 1]]))
        inside = (ab[0] >= -1e-12) & (ab[1] >= -1e-12) & (ab.sum(axis=0) <= 1 + 1e-12)
        vals[inside] = (tri_vals[k, 0] * (1 - ab[0] - ab[1]) + tri_vals[k, 1] * ab[0]
                        + tri_vals[k, 2] * ab[1])[inside]
    for t in (0.2, 0.45, 0.7):
        frac = (vals > t).mean()
        sigma = math.sqrt(frac * (1 - frac) / n)
        assert d.mu(t) == pytest.approx(frac, abs=3.5 * sigma)


def test_profile_with_interior_plateau():
    # u* falls 3 -> 2 on [0, .2], stays at 2 on [.2, .5], falls 2 -> 1 on
    # [.5, .7] and 1 -> 0 on [.7, 1]: mu jumps from .5 to .2 at t = 2
    d = distribution_function(DecreasingProfile(s=[0.0, 0.2, 0.5, 0.7, 1.0],
                                                values=[3.0, 2.0, 2.0, 1.0, 0.0]))
    assert d.mu(2.5) == pytest.approx(0.1, rel=1e-12)
    assert d.mu(2.0) == pytest.approx(0.2, rel=1e-12)
    assert d.mu(2.0 - 1e-12) == pytest.approx(0.5, rel=1e-9)
    assert d.mu(1.5) == pytest.approx(0.6, rel=1e-12)
    assert d.mu(0.5) == pytest.approx(0.85, rel=1e-12)
    assert d.mu(3.0) == 0.0
    assert d.ustar(0.3) == pytest.approx(2.0, rel=1e-12)


def test_rearrangement_of_constant():
    d = distribution_function(constant_profile(0.7, 2.5))
    prof = decreasing_rearrangement(d, num=64)
    assert np.allclose(prof.values, 0.7, atol=1e-12)
    assert prof.total == pytest.approx(2.5)


def test_rearrangement_inverts_cone():
    d = distribution_function(cone_profile())
    prof = decreasing_rearrangement(d, num=512)
    ref = 1.0 - np.sqrt(prof.s / math.pi)
    assert np.max(np.abs(prof.values - ref)) < 1e-6


def test_generalized_inverse_inequalities():
    # with the inf{t : mu(t) < s} inverse, ustar(mu(t)) <= t holds for
    # t >= ess inf (below it mu is the constant |Omega| and ustar(|Omega|)
    # is the essential infimum); mu(ustar(s)) <= s holds for every s >= 0
    m = generate_mesh(build_domain("rect", w=1.0, h=1.0), 0.2)
    u = random_field(m, 23)
    d = distribution_function(u)
    rng = np.random.default_rng(17)
    ts = rng.uniform(d.ess_inf, d.ess_sup * 1.05, size=1000)
    ss = rng.uniform(0.0, d.total_measure, size=1000)
    tol = 1e-9
    assert np.all(d.ustar(d.mu(ts)) <= ts + tol)
    assert np.all(d.mu(d.ustar(ss)) <= ss + tol)


def test_schwarz_values():
    prof = cone_profile()
    assert schwarz_value(prof, (0.0, 0.0)) == pytest.approx(1.0, abs=1e-9)
    assert schwarz_value(prof, (0.5, 0.0)) == pytest.approx(0.5, abs=1e-7)
    with pytest.raises(RearrangeError):
        schwarz_value(prof, (1.5, 0.0))


def test_lorentz_trivial_values():
    d = distribution_function(constant_profile(1.0, 1.0))
    assert lorentz_norm(d, 1.0, 1.0) == pytest.approx(1.0, rel=1e-12)
    assert lorentz_norm(d, 2.0, 2.0) == pytest.approx(1.0 / math.sqrt(2.0), rel=1e-12)
    d2 = distribution_function(constant_profile(3.0, 2.0))
    for k in (0.5, 1.0, 2.0):
        assert lorentz_norm(d2, k, 1.0) == pytest.approx(3.0 * 2.0 ** (1.0 / k), rel=1e-11)


def test_lorentz_sup_variant():
    d = distribution_function(constant_profile(1.0, 1.0))
    # sup over t of t^p mu(t) = 1 approached at t -> 1^-
    assert lorentz_norm(d, 1.0, math.inf) == pytest.approx(1.0, rel=1e-12)
    assert lorentz_norm(d, 2.0, math.inf) == pytest.approx(1.0, rel=1e-12)


def test_lorentz_pq_scaling_identity():
    # norm at p = q relates to the Cavalieri functional by the factor q:
    # q * (norm^q) = q * integral t^(q-1) mu dt
    m = generate_mesh(build_domain("rect", w=2.0, h=0.5), 0.125)
    u = random_field(m, 3, lo=0.1, hi=2.0)
    d = distribution_function(u)
    for p in (1.0, 2.0, 3.0):
        lhs = p * lorentz_norm(d, p, p) ** p
        rhs = cavalieri_pnorm_power(d, p)
        assert lhs == pytest.approx(rhs, rel=1e-9)


def test_cavalieri_identity():
    m = generate_mesh(build_domain("rect", w=1.0, h=1.0), 0.125)
    u = random_field(m, 7, lo=0.0, hi=1.5)
    d = distribution_function(u)
    for p in (1.0, 2.0, 3.0):
        exact = field_integral_pow(u, p)
        assert cavalieri_pnorm_power(d, p) == pytest.approx(exact, rel=1e-8)


def test_equimeasurability_of_norms():
    m = generate_mesh(build_domain("rect", w=1.0, h=1.0), 0.125)
    u = random_field(m, 29, lo=0.0, hi=2.0)
    d = distribution_function(u)
    prof = decreasing_rearrangement(d, num=4096)
    for p in (1.0, 2.0, 4.0):
        npow = field_integral_pow(u, p)
        # norm of u* by direct quadrature of the sampled profile
        mid = 0.5 * (prof.values[1:] ** p + prof.values[:-1] ** p)
        star = float((mid * np.diff(prof.s)).sum())
        assert star == pytest.approx(npow, rel=1e-6)
        assert cavalieri_pnorm_power(d, p) == pytest.approx(npow, rel=1e-8)


def test_monotonicity_of_distributions():
    m = generate_mesh(build_domain("rect", w=1.0, h=1.0), 0.2)
    u = random_field(m, 31, lo=0.0, hi=1.0)
    w = ScalarField(m, u.values + 0.3)
    du, dw = distribution_function(u), distribution_function(w)
    ts = np.linspace(0.0, dw.ess_sup, 200)
    assert np.all(du.mu(ts) <= dw.mu(ts) + 1e-12)
    assert lorentz_norm(du, 1.0, 1.0) <= lorentz_norm(dw, 1.0, 1.0)


def test_hardy_littlewood_examples():
    m = generate_mesh(build_domain("rect", w=1.0, h=1.0), 0.125)
    u = random_field(m, 41, lo=0.0, hi=1.0)
    ones = ScalarField(m, np.ones(m.num_nodes))
    assert abs(hardy_littlewood_gap(u, ones)) <= 1e-8
    assert abs(hardy_littlewood_gap(u, u)) <= 1e-6
    # anti-aligned pair: increasing vs decreasing along x
    h = ScalarField(m, m.nodes[:, 0] + 0.5)
    g = ScalarField(m, 0.5 - m.nodes[:, 0])
    assert hardy_littlewood_gap(h, g) > 1e-3


def test_hardy_littlewood_nonnegative_on_random_pairs():
    m = generate_mesh(build_domain("rect", w=1.0, h=1.0), 0.34)
    for seed in range(100):
        h = random_field(m, 1000 + seed)
        g = random_field(m, 2000 + seed)
        assert hardy_littlewood_gap(h, g) >= -1e-8


def test_profile_text_roundtrip():
    prof = cone_profile(num=33)
    text = prof.export_text()
    back = DecreasingProfile.from_text(text)
    assert np.allclose(back.s, prof.s) and np.allclose(back.values, prof.values)


def test_field_distribution_consistency_with_exact_clip():
    from robinsym.levelset import superlevel_measure_exact
    m = generate_mesh(build_domain("ellipse", a=1.3, b=0.8), 0.2)
    u = random_field(m, 53, lo=0.2, hi=1.7)
    d = distribution_function(u)
    for t in np.linspace(0.25, 1.6, 17):
        assert d.mu(t) == pytest.approx(superlevel_measure_exact(u, t), abs=1e-11)


@pytest.mark.parametrize("text", ["0 nan\n1 nan\n", "0 1\n1 nan\n", "0 inf\n1 0\n",
                                  "0 1\ninf 0\n", "nan 1\n1 0\n"])
def test_profile_rejects_non_finite_input(text):
    with pytest.raises(RearrangeError, match="finite"):
        DecreasingProfile.from_text(text)
