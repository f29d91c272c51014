import math

import numpy as np
import pytest

from proof_oracle import dphi, phi
from quadrature_oracle import radial_fixed_rule, segment_batch
from robinsym import meshing, radial
from robinsym.domains import parse_domain_spec
from robinsym.meshing import generate_mesh, refine_mesh
from robinsym.radial import (
    RadialError,
    _bessel_j0_j1,
    _J0_FIRST_ZERO,
    ball_closed_forms,
    ball_torsion,
    bessel_eigen_oracle,
    symmetrized_constant_source,
    symmetrized_solution,
)
from robinsym.rearrange import DecreasingProfile, _batched_segment_integral, constant_profile
from robinsym.runner import source_from_name
from robinsym.verify import _fstar_for


def test_constant_source_matches_closed_form():
    rs = symmetrized_constant_source(math.pi, beta=1.0)
    assert rs.v_m == pytest.approx(0.5, abs=1e-15)
    assert rs.v_M == pytest.approx(0.75, abs=1e-12)
    s = np.linspace(0.0, math.pi, 777)
    exact = (math.pi - s) / (4.0 * math.pi) + 0.5
    assert np.max(np.abs(rs.value(s) - exact)) < 1e-12
    # v(s) must agree with the r-space closed form u(r), s = pi r^2
    u, _ = ball_closed_forms(1.0, 1.0)
    r = np.sqrt(s / math.pi)
    assert np.max(np.abs(rs.value(s) - u(r))) < 1e-12


def test_vm_scaling_in_beta():
    rs1 = symmetrized_constant_source(math.pi, beta=1.0)
    rs2 = symmetrized_constant_source(math.pi, beta=2.0)
    assert rs2.v_m == pytest.approx(rs1.v_m / 2.0, rel=1e-14)
    # the quadrature term v - v_m is independent of beta
    s = np.linspace(0.0, math.pi, 50)
    assert np.allclose(rs1.value(s) - rs1.v_m, rs2.value(s) - rs2.v_m, atol=1e-14)


def test_boundary_compatibility_identity():
    # beta v_m P(ball) = integral of f*
    for beta in (0.5, 1.0, 3.0):
        rs = symmetrized_constant_source(math.pi, beta=beta)
        P = 2.0 * math.pi
        assert beta * rs.v_m * P == pytest.approx(math.pi, rel=1e-14)


def test_ball_torsion_values():
    assert ball_torsion(1.0, 1.0) == pytest.approx(5 * math.pi / 8, rel=1e-15)
    # beta -> infinity approaches the Dirichlet torsion pi R^4 / 8
    assert ball_torsion(1.0, 1e9) == pytest.approx(math.pi / 8, rel=1e-8)
    u, _ = ball_closed_forms(2.0, 3.0)
    # Robin condition at r = R: u'(R) + beta u(R) = 0 with u' = -R/2
    R, beta = 2.0, 3.0
    assert -R / 2.0 + beta * u(R) == pytest.approx(0.0, abs=1e-14)


def test_bessel_oracle():
    lam = bessel_eigen_oracle(1.0, 1.0)
    assert 1.5 < lam < 1.7
    from scipy.special import j0, j1
    rt = math.sqrt(lam)
    assert -rt * j1(rt) + j0(rt) == pytest.approx(0.0, abs=1e-12)
    # Dirichlet limit: j_{0,1}^2 ~ 5.7832
    assert bessel_eigen_oracle(1.0, 1e8) == pytest.approx(5.783185962946785, rel=1e-6)
    # Neumann limit
    assert bessel_eigen_oracle(1.0, 1e-10) < 1e-8
    # scaling in R: lambda(R) = lambda_hat / R^2 only when beta rescales too
    lam2 = bessel_eigen_oracle(2.0, 0.5)
    assert lam2 == pytest.approx(lam / 4.0, rel=1e-12)


def _brentq_eigen_oracle(R, beta):
    """The disc eigenvalue as the package took it with SciPy: brentq on the
    Bessel form, bracketed by SciPy's first zero of J0."""
    from scipy.optimize import brentq
    from scipy.special import j0, j1, jn_zeros

    def fn(lam):
        rt = math.sqrt(lam)
        return beta if lam <= 0.0 else -rt * j1(rt * R) + beta * j0(rt * R)

    return brentq(fn, 0.0, (jn_zeros(0, 1)[0] / R) ** 2, xtol=1e-15, rtol=8.9e-16, maxiter=200)


def test_bessel_series_match_scipy_on_the_first_lobe():
    from scipy.special import j0, j1, jn_zeros
    # SciPy's zero is one unit in the last place below the correctly rounded one
    assert _J0_FIRST_ZERO == pytest.approx(float(jn_zeros(0, 1)[0]), rel=2.3e-16)
    x = np.linspace(0.0, _J0_FIRST_ZERO, 4001)
    series = np.array([_bessel_j0_j1(v) for v in x])
    assert np.max(np.abs(series[:, 0] - j0(x))) <= 1e-15
    assert np.max(np.abs(series[:, 1] - j1(x))) <= 1e-15


@pytest.mark.parametrize("R", [0.5, 1.0, 2.0])
def test_bessel_oracle_matches_the_brentq_form(R):
    # 18 (R, beta) pairs over four decades of beta
    for beta in (0.1, 0.5, 1.0, 2.0, 10.0, 100.0):
        assert bessel_eigen_oracle(R, beta) == pytest.approx(_brentq_eigen_oracle(R, beta),
                                                             rel=1e-14)


def test_phi_inverts_profile():
    rs = symmetrized_constant_source(math.pi, beta=1.0)
    assert phi(rs, 0.3) == pytest.approx(math.pi, abs=1e-12)
    assert phi(rs, 0.8) == 0.0
    # on [1/2, 3/4] the profile is linear: phi(t) = pi - 4 pi (t - 1/2)
    for t in (0.55, 0.6, 0.7, 0.74):
        assert phi(rs, t) == pytest.approx(math.pi - 4 * math.pi * (t - 0.5), abs=1e-10)
    ts = np.linspace(0.51, 0.749, 97)
    assert np.max(np.abs(rs.value(phi(rs, ts)) - ts)) < 1e-12


def test_lorentz_integrals_against_closed_forms():
    rs = symmetrized_constant_source(math.pi, beta=1.0)
    # integral of phi dt = integral of v ds = torsion of the unit disc
    assert rs.lorentz_power_integral(1.0, 1.0) == pytest.approx(5 * math.pi / 8, rel=1e-11)
    # integral of t phi dt = (1/2) integral v^2 ds = 19 pi / 96
    assert rs.lorentz_power_integral(2.0, 2.0) == pytest.approx(19 * math.pi / 96, rel=1e-11)


def test_fixed_rule_lorentz_integrals_match_the_closed_forms():
    rs = symmetrized_constant_source(math.pi, beta=1.0)
    assert rs.lorentz_power_integral(1.0, 1.0) == pytest.approx(5 * math.pi / 8, rel=1e-14)
    assert rs.lorentz_power_integral(2.0, 2.0) == pytest.approx(19 * math.pi / 96, rel=1e-14)


# the Lorentz exponents of ks = 1 and 0.5: (k, 1) for lorentz_k1 and (2k, 2)
# for lorentz_2k2
LORENTZ_PAIRS = [(1.0, 1.0), (0.5, 1.0), (2.0, 2.0), (1.0, 2.0)]

# centred shapes of area (about) pi: axis ratio 1.7, aspect 1.6, l = r and a
# convex heptagon
_STADIUM_R = math.sqrt(math.pi / (2.0 + math.pi))
SHAPES = [f"ellipse a={math.sqrt(1.7)!r} b={1.0 / math.sqrt(1.7)!r}",
          f"rect w={math.sqrt(1.6 * math.pi)!r} h={math.sqrt(math.pi / 1.6)!r}",
          f"stadium l={_STADIUM_R!r} r={_STADIUM_R!r}",
          "polygon -1.009,0.4251 -0.949,-0.4603 -0.0763,-1.0736 0.5474,-0.9483 "
          "1.0583,-0.1542 0.725,0.8098 -0.1133,1.0612"]


def _rearranged_solutions(spec, refinements):
    """v of the radial and bump sources, from f* rearranged on the mesh
    refined `refinements` times, as a verify ladder builds it."""
    d = parse_domain_spec(spec)
    m = generate_mesh(d, 0.1)
    for _ in range(refinements):
        m = refine_mesh(m)
    return [symmetrized_solution(d.measure, 2, 1.0, _fstar_for(d, m, source_from_name(name, d)))
            for name in ("radial", "bump")]


def _adaptive_lorentz(rs, p, q, batch=_batched_segment_integral):
    """The adaptive Gauss 16/32 batch of value() and slope_g() on every f*
    segment: the reference for the fixed rule."""
    ratio = q / p
    acc = batch(
        lambda _, s: rs.value(s) ** (q - 1.0) * s ** ratio * rs.slope_g(s),
        rs.fstar.s[:-1], rs.fstar.s[1:], rs.measure ** ratio * rs.v_M ** q, 1e-13)
    return rs.measure ** ratio * rs.v_m ** q / q + acc


def _count_batches(monkeypatch):
    batches = []

    def batch(*args, **kwargs):
        batches.append(args)
        return _batched_segment_integral(*args, **kwargs)

    monkeypatch.setattr(radial, "_batched_segment_integral", batch)
    return batches


@pytest.mark.parametrize("refinements", [0, 1])
@pytest.mark.parametrize("spec", SHAPES)
def test_fixed_rule_lorentz_matches_the_adaptive_batch(monkeypatch, spec, refinements):
    batches = _count_batches(monkeypatch)
    for rs in _rearranged_solutions(spec, refinements):
        for p, q in LORENTZ_PAIRS:
            assert rs.lorentz_power_integral(p, q) == pytest.approx(
                _adaptive_lorentz(rs, p, q), rel=1e-14, abs=0.0)
    assert not batches


def test_other_exponents_and_dimensions_use_the_adaptive_batch(monkeypatch):
    rs = _rearranged_solutions(SHAPES[2], 0)[1]
    disc = symmetrized_constant_source(math.pi, beta=1.0)
    batches = _count_batches(monkeypatch)
    # at p = 0.01 the polynomial s^99 F(s) is beyond the 32-point rule
    for sol, p, q in [(rs, 0.75, 1.0), (disc, 0.01, 1.0)]:
        batches.clear()
        assert sol.lorentz_power_integral(p, q) == _adaptive_lorentz(sol, p, q)
        assert len(batches) == 1


@pytest.mark.parametrize("p, q", LORENTZ_PAIRS)
def test_blockwise_fixed_rule_matches_the_unblocked_formula(monkeypatch, p, q):
    # small blocks, so that the f* segments cross block boundaries
    monkeypatch.setattr(meshing, "_CHUNK", 997)
    batches = _count_batches(monkeypatch)
    for rs in _rearranged_solutions(SHAPES[0], 1):
        assert len(rs.fstar.s) - 1 > 2 * 997 // radial._FIXED_POINTS
        plateau = rs.measure ** (q / p) * rs.v_m ** q / q
        assert rs.lorentz_power_integral(p, q) == plateau + radial_fixed_rule(rs, q, int(q / p))
    assert not batches


def test_blockwise_adaptive_batch_matches_the_unblocked_formula(monkeypatch):
    monkeypatch.setattr(meshing, "_CHUNK", 997)
    batches = _count_batches(monkeypatch)
    for rs in _rearranged_solutions(SHAPES[0], 1):
        assert rs.lorentz_power_integral(0.75, 1.0) == _adaptive_lorentz(rs, 0.75, 1.0,
                                                                         segment_batch)
    assert len(batches) == 2


def test_log_segments_wider_than_4a_use_the_adaptive_batch(monkeypatch):
    # b/a = 10 on every segment but the first puts the log term of v (q = 2)
    # outside the rho = 3 error bound; q = 1 has no log term
    s = np.concatenate([[0.0], 10.0 ** np.arange(-4.0, 1.0)])
    rs = symmetrized_solution(1.0, 2, 1.0, DecreasingProfile(s=s, values=2.0 - s))
    batches = _count_batches(monkeypatch)
    for p, q in LORENTZ_PAIRS:
        batches.clear()
        assert rs.lorentz_power_integral(p, q) == pytest.approx(
            _adaptive_lorentz(rs, p, q), rel=1e-14, abs=0.0)
        assert len(batches) == (q == 2.0)


def test_distribution_view():
    rs = symmetrized_constant_source(math.pi, beta=1.0)
    assert rs.measure == pytest.approx(math.pi)
    assert phi(rs, 0.1) == pytest.approx(math.pi)
    assert phi(rs, 1.0) == 0.0
    # dphi = 1/v' on the decreasing part: here v' = -1/(4 pi), so phi' = -4 pi
    assert dphi(rs, 0.6) == pytest.approx(-4.0 * math.pi, rel=1e-12)


def test_nonconstant_fstar_monotone_and_consistent():
    s = np.linspace(0.0, 2.0, 257)
    fstar = DecreasingProfile(s=s, values=2.0 - 0.8 * s)
    rs = symmetrized_solution(2.0, 2, 1.5, fstar)
    ss = np.linspace(0.0, 2.0, 333)
    vv = rs.value(ss)
    assert np.all(np.diff(vv) <= 1e-15)
    assert rs.v_m == pytest.approx(vv[-1], abs=1e-14)
    assert rs.v_M == pytest.approx(vv[0], abs=1e-14)
    # v_m formula with mean of f* = (2 + 0.4)/2 = 1.2
    mean = fstar.cumulative(fstar.total) / fstar.total
    assert rs.v_m == pytest.approx(math.sqrt(2.0 / math.pi) * mean / (1.5 * 2.0), rel=1e-13)
    # derivative consistency by finite differences in the interior
    mid = ss[50:-50]
    fd = (rs.value(mid + 1e-6) - rs.value(mid - 1e-6)) / 2e-6
    assert np.max(np.abs(fd + rs.slope_g(mid))) < 1e-6


def test_planar_only():
    w3 = 4.0 * math.pi / 3.0
    with pytest.raises(RadialError, match="n must be 2, got 3"):
        symmetrized_solution(w3, 3, 1.0, constant_profile(1.0, w3))


def test_cumulative_source_is_read_from_fstar():
    # the monomial coefficients of F come from the profile's own F and slopes,
    # bit for bit what the formula on the f* grid gives
    s = np.linspace(0.0, 2.0, 257) ** 1.5
    f = 2.0 - 0.3 * s
    rs = symmetrized_solution(s[-1], 2, 1.5, DecreasingProfile(s=s, values=f))
    slopes = (f[1:] - f[:-1]) / (s[1:] - s[:-1])
    fcum = np.concatenate([[0.0], np.cumsum(0.5 * (f[:-1] + f[1:]) * (s[1:] - s[:-1]))])
    assert np.array_equal(rs.fstar._slopes, slopes)
    assert np.array_equal(rs.fstar._cum, fcum)
    assert np.array_equal(rs._q2, 0.5 * slopes)
    q0 = fcum[:-1] - f[:-1] * s[:-1] + 0.5 * slopes * s[:-1] ** 2
    q0[0] = 0.0
    assert np.array_equal(rs._q0, q0)


def test_zero_fstar_rejected():
    with pytest.raises(RadialError):
        symmetrized_solution(1.0, 2, 1.0, constant_profile(0.0, 1.0))


def test_guards():
    with pytest.raises(RadialError):
        ball_closed_forms(-1.0, 1.0)
    with pytest.raises(RadialError):
        bessel_eigen_oracle(1.0, -2.0)


def test_profile_export_roundtrip():
    rs = symmetrized_constant_source(math.pi, beta=1.0)
    prof = rs.profile(num=257)
    rows = [line.split() for line in prof.export_text().strip().split("\n")]
    back = DecreasingProfile(*np.array(rows, dtype=float).T)
    assert np.allclose(back.values, prof.values)
