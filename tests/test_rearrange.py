import math

import numpy as np
import pytest

from mesh_oracle import hand_mesh
from proof_oracle import (
    cavalieri_pnorm_power,
    field_integral_pow,
    hardy_littlewood_gap,
    profile_distribution,
    superlevel_measure_exact,
)
from quadrature_oracle import segment_batch
from robinsym import meshing, rearrange
from robinsym.domains import build_domain, parse_domain_spec
from robinsym.fem import ScalarField, solve_robin_poisson
from robinsym.levelset import DistributionFunction
from robinsym.meshing import generate_mesh, refine_mesh
from robinsym.radial import symmetrized_constant_source
from robinsym.rearrange import (
    DecreasingProfile,
    RearrangeError,
    constant_profile,
    cosine_grid,
    decreasing_rearrangement,
    distribution_function,
    _batched_segment_integral,
    _gauss,
    lorentz_power_integral,
)
from robinsym.runner import source_from_name


def two_triangle_square():
    nodes = np.array([[-0.5, -0.5], [0.5, -0.5], [0.5, 0.5], [-0.5, 0.5]])
    tris = np.array([[0, 1, 2], [0, 2, 3]])
    bedges = np.array([[0, 1], [1, 2], [2, 3], [3, 0]])
    return hand_mesh(nodes, tris, bedges, "polygon -0.5,-0.5 0.5,-0.5 0.5,0.5 -0.5,0.5")


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
    d = profile_distribution(prof)
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
    d = profile_distribution(DecreasingProfile(s=[0.0, 0.2, 0.5, 0.7, 1.0],
                                               values=[3.0, 2.0, 2.0, 1.0, 0.0]))
    assert d.mu(2.5) == pytest.approx(0.1, rel=1e-12)
    assert d.mu(2.0) == pytest.approx(0.2, rel=1e-12)
    assert d.mu(2.0 - 1e-12) == pytest.approx(0.5, rel=1e-9)
    assert d.mu(1.5) == pytest.approx(0.6, rel=1e-12)
    assert d.mu(0.5) == pytest.approx(0.85, rel=1e-12)
    assert d.mu(3.0) == 0.0
    assert d.ustar(0.3) == pytest.approx(2.0, rel=1e-12)


def test_rearrangement_of_constant():
    d = profile_distribution(constant_profile(0.7, 2.5))
    prof = decreasing_rearrangement(d, num=64)
    assert np.allclose(prof.values, 0.7, atol=1e-12)
    assert prof.total == pytest.approx(2.5)


def test_rearrangement_inverts_cone():
    d = profile_distribution(cone_profile())
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


def test_lorentz_trivial_values():
    d = profile_distribution(constant_profile(1.0, 1.0))
    assert lorentz_power_integral(d, 1.0, 1.0) == pytest.approx(1.0, rel=1e-12)
    assert lorentz_power_integral(d, 2.0, 2.0) ** (1.0 / 2.0) == pytest.approx(
        1.0 / math.sqrt(2.0), rel=1e-12)
    d2 = profile_distribution(constant_profile(3.0, 2.0))
    for k in (0.5, 1.0, 2.0):
        assert lorentz_power_integral(d2, k, 1.0) == pytest.approx(3.0 * 2.0 ** (1.0 / k),
                                                                   rel=1e-11)


def test_lorentz_pq_scaling_identity():
    # norm at p = q relates to the Cavalieri functional by the factor q:
    # q * (norm^q) = q * integral t^(q-1) mu dt
    m = generate_mesh(build_domain("rect", w=2.0, h=0.5), 0.125)
    u = random_field(m, 3, lo=0.1, hi=2.0)
    d = distribution_function(u)
    for p in (1.0, 2.0, 3.0):
        lhs = p * (lorentz_power_integral(d, p, p) ** (1.0 / p)) ** p
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
    assert lorentz_power_integral(du, 1.0, 1.0) <= lorentz_power_integral(dw, 1.0, 1.0)


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
    # `oracle --kind profile` prints export_text; 17 digits read back exactly
    prof = cone_profile(num=33)
    s, values = np.loadtxt(prof.export_text().splitlines(), unpack=True)
    assert np.array_equal(s, prof.s) and np.array_equal(values, prof.values)


def test_field_distribution_consistency_with_exact_clip():
    m = generate_mesh(build_domain("ellipse", a=1.3, b=0.8), 0.2)
    u = random_field(m, 53, lo=0.2, hi=1.7)
    d = distribution_function(u)
    for t in np.linspace(0.25, 1.6, 17):
        assert d.mu(t) == pytest.approx(superlevel_measure_exact(u, t), abs=1e-11)


@pytest.mark.parametrize("text", ["0 nan\n1 nan\n", "0 1\n1 nan\n", "0 inf\n1 0\n",
                                  "0 1\ninf 0\n", "nan 1\n1 0\n"])
def test_profile_rejects_non_finite_input(text):
    s, values = np.array([line.split() for line in text.strip().split("\n")], dtype=float).T
    with pytest.raises(RearrangeError, match="finite"):
        DecreasingProfile(s, values)


def _loop_hardy_littlewood_gap(h, g):
    """hardy_littlewood_gap with one 16-point rule per interval in a loop:
    the reference for the batched form."""
    tris = h.mesh.triangles
    hv, gv = h.values[tris], g.values[tris]
    exact = float(np.sum(h.mesh.triangle_areas() / 12.0
                         * (hv.sum(axis=1) * gv.sum(axis=1) + (hv * gv).sum(axis=1))))
    dh, dg = distribution_function(h), distribution_function(g)
    cuts = [np.array([0.0, dh.total_measure]), *dh.edge_values, *dg.edge_values]
    sb = np.unique(np.clip(np.concatenate(cuts), 0.0, dh.total_measure))
    xg, wg = _gauss(16)
    acc = 0.0
    for a, b in zip(sb, sb[1:]):
        mid, half = 0.5 * (a + b), 0.5 * (b - a)
        sg = mid + half * xg
        acc += half * float(wg @ (dh.ustar(sg) * dg.ustar(sg)))
    return acc - exact


@pytest.mark.parametrize("h", [0.34, 0.125])
def test_hardy_littlewood_gap_matches_the_interval_loop(h):
    # the fields lie in [0, 1] on the unit square, so both integrals are at
    # most 1 and the reassociated sums agree to a few ulps of 1
    m = generate_mesh(build_domain("rect", w=1.0, h=1.0), h)
    for seed in range(10):
        f, g = random_field(m, 3000 + seed), random_field(m, 4000 + seed)
        assert hardy_littlewood_gap(f, g) == pytest.approx(_loop_hardy_littlewood_gap(f, g),
                                                           rel=0.0, abs=1e-14)


# the Lorentz exponents of the default config, ks = 1 and 0.5: (k, 1) for
# lorentz_k1 and (2k, 2) for lorentz_2k2
DEFAULT_LORENTZ_PAIRS = [(1.0, 1.0), (0.5, 1.0), (2.0, 2.0), (1.0, 2.0)]


def _poisson_fields(spec, refinements):
    d = parse_domain_spec(spec)
    m = generate_mesh(d, 0.2)
    for _ in range(refinements):
        m = refine_mesh(m)
    return [solve_robin_poisson(m, source_from_name(name, d), 1.0) for name in ("const", "bump")]


def _adaptive_lorentz(dist, p, q, batch=_batched_segment_integral):
    """The adaptive Gauss 16/32 batch on every segment, for q >= 1."""
    ratio = q / p
    return batch(
        lambda i, t: t ** (q - 1.0) * dist.eval_in_segment(i, t) ** ratio,
        dist.breaks[:-1], dist.breaks[1:], dist.total_measure ** ratio * dist.ess_sup ** q)


@pytest.mark.parametrize("refinements", [0, 1])
@pytest.mark.parametrize("spec", ["disc r=1", "ellipse a=1.4142135623730951 b=0.7071067811865476",
                                  "rect w=2 h=0.5", "stadium l=1 r=0.5"])
def test_exact_lorentz_matches_the_adaptive_batch(spec, refinements):
    for u in _poisson_fields(spec, refinements):
        dist = distribution_function(u)
        for p, q in DEFAULT_LORENTZ_PAIRS:
            assert lorentz_power_integral(dist, p, q) == pytest.approx(
                _adaptive_lorentz(dist, p, q), rel=1e-14, abs=0.0)


def _unblocked_edge_values(dist):
    k = np.arange(dist.num_segments)
    right = np.minimum.accumulate(dist.eval_in_segment(k, dist.breaks[:-1]))
    left = dist.eval_in_segment(k, dist.breaks[1:])
    return right, np.minimum(np.minimum.accumulate(left), right)


class _UnblockedDistribution(DistributionFunction):
    """A distribution function whose u* reads the unblocked edge values."""

    edge_values = property(_unblocked_edge_values)


def _unblocked_fixed_lorentz(dist, p, q):
    """The fixed Gauss rule over all segments at once, for integer q and q/p."""
    ratio = q / p
    keep = dist.breaks[1:] > dist.breaks[:-1]
    a, b = dist.breaks[:-1][keep], dist.breaks[1:][keep]
    x, w = _gauss(int(2 * ratio + q - 1) // 2 + 1)
    mid, half = 0.5 * (a + b), 0.5 * (b - a)
    t = mid[:, None] + half[:, None] * x
    m = dist.eval_in_segment(np.nonzero(keep)[0][:, None], t)
    return float(half @ ((t ** (q - 1.0) * m ** ratio) @ w))


@pytest.mark.parametrize("spec", ["disc r=1", "ellipse a=1.4142135623730951 b=0.7071067811865476"])
def test_blockwise_mu_kernels_match_the_unblocked_formulas(spec, monkeypatch):
    # small blocks, so that the segments cross block boundaries
    monkeypatch.setattr(meshing, "_CHUNK", 997)
    for u in _poisson_fields(spec, 1):
        dist = distribution_function(u)
        assert dist.num_segments > 997
        for got, want in zip(dist.edge_values, _unblocked_edge_values(dist)):
            assert np.array_equal(got, want)
        ref = _UnblockedDistribution(dist.breaks, dist.coeffs, dist.total_measure,
                                     dist.ess_inf)
        s = cosine_grid(dist.total_measure, 2048)
        assert np.array_equal(dist.ustar(s), ref.ustar(s))
        for p, q in DEFAULT_LORENTZ_PAIRS:
            assert lorentz_power_integral(dist, p, q) == _unblocked_fixed_lorentz(dist, p, q)
        assert lorentz_power_integral(dist, 0.75, 1.0) == _adaptive_lorentz(
            dist, 0.75, 1.0, segment_batch)


def _count_eval_points(monkeypatch):
    """Patch DistributionFunction.eval_in_segment to record the number of
    points of every call, and the adaptive batch to record its calls."""
    points, batches = [], []
    eval_in_segment = DistributionFunction.eval_in_segment

    def counting(self, j, t):
        points.append(np.broadcast(j, t).size)
        return eval_in_segment(self, j, t)

    def batch(*args, **kwargs):
        batches.append(args)
        return _batched_segment_integral(*args, **kwargs)

    monkeypatch.setattr(DistributionFunction, "eval_in_segment", counting)
    monkeypatch.setattr(rearrange, "_batched_segment_integral", batch)
    return points, batches


@pytest.mark.parametrize("p, q", DEFAULT_LORENTZ_PAIRS)
def test_exact_lorentz_uses_one_fixed_rule_per_segment(monkeypatch, p, q):
    dist = distribution_function(_poisson_fields("stadium l=1 r=0.5", 1)[1])
    points, batches = _count_eval_points(monkeypatch)
    lorentz_power_integral(dist, p, q)
    degree = int(2 * q / p + q - 1)
    assert not batches
    assert sum(points) == dist.num_segments * (degree // 2 + 1)


@pytest.mark.parametrize("p, q", [(1.5, 1.0), (1.0, 1.5), (3.0, 1.0)])
def test_non_polynomial_lorentz_exponents_use_the_adaptive_batch(monkeypatch, p, q):
    dist = distribution_function(_poisson_fields("stadium l=1 r=0.5", 0)[0])
    _, batches = _count_eval_points(monkeypatch)
    lorentz_power_integral(dist, p, q)
    assert len(batches) == 1


def test_lorentz_q_below_one_is_rejected():
    d = profile_distribution(cone_profile())
    with pytest.raises(RearrangeError, match="q >= 1"):
        lorentz_power_integral(d, 2.0, 0.5)


def test_radial_solution_is_not_a_distribution_input():
    with pytest.raises(RearrangeError, match="cannot build"):
        distribution_function(symmetrized_constant_source(math.pi, 1.0))
