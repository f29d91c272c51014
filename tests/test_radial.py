import math

import numpy as np
import pytest

from proof_oracle import dphi
from robinsym.radial import (
    RadialError,
    ball_closed_forms,
    ball_torsion,
    bessel_eigen_oracle,
    symmetrized_constant_source,
    symmetrized_solution,
)
from robinsym.rearrange import DecreasingProfile, constant_profile


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


def test_phi_inverts_profile():
    rs = symmetrized_constant_source(math.pi, beta=1.0)
    assert rs.phi(0.3) == pytest.approx(math.pi, abs=1e-12)
    assert rs.phi(0.8) == 0.0
    # on [1/2, 3/4] the profile is linear: phi(t) = pi - 4 pi (t - 1/2)
    for t in (0.55, 0.6, 0.7, 0.74):
        assert rs.phi(t) == pytest.approx(math.pi - 4 * math.pi * (t - 0.5), abs=1e-10)
    ts = np.linspace(0.51, 0.749, 97)
    assert np.max(np.abs(rs.value(rs.phi(ts)) - ts)) < 1e-12


def test_lorentz_integrals_against_closed_forms():
    rs = symmetrized_constant_source(math.pi, beta=1.0)
    # integral of phi dt = integral of v ds = torsion of the unit disc
    assert rs.lorentz_power_integral(1.0, 1.0) == pytest.approx(5 * math.pi / 8, rel=1e-11)
    # integral of t phi dt = (1/2) integral v^2 ds = 19 pi / 96
    assert rs.lorentz_power_integral(2.0, 2.0) == pytest.approx(19 * math.pi / 96, rel=1e-11)


def test_distribution_view():
    rs = symmetrized_constant_source(math.pi, beta=1.0)
    assert rs.measure == pytest.approx(math.pi)
    assert rs.phi(0.1) == pytest.approx(math.pi)
    assert rs.phi(1.0) == 0.0
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


def test_general_dimension_value():
    # n = 3, f* = 1, |Omega| = measure of unit 3-ball: v(0) - v_m = R^2/6 = 1/6
    w3 = 4.0 * math.pi / 3.0
    rs = symmetrized_solution(w3, 3, 1.0, constant_profile(1.0, w3))
    assert rs.v_M - rs.v_m == pytest.approx(1.0 / 6.0, rel=1e-10)
    # v_m = |O|^(1/3)/(3 w3^(1/3) beta) = R/(3 beta) with R = 1
    assert rs.v_m == pytest.approx(1.0 / 3.0, rel=1e-13)


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
