import math

import numpy as np
import pytest

from robinsym.domains import build_domain, parse_domain_spec
from robinsym.fem import SourceSpec, constant_source
from robinsym.verify import (
    KRangeError,
    Ladder,
    check_bossel_daners,
    check_isoperimetric,
    check_lorentz_2k2,
    check_lorentz_k1,
    check_pointwise,
    check_propagation,
    check_saint_venant,
    compute_constants,
    k_range_lorentz_2k2,
    k_range_lorentz_k1,
)

GAMMA2 = 16.0
ELLIPSE_15 = "ellipse a=1.224744871391589 b=0.8164965809277261"  # a/b = 1.5, |O| = pi


def test_constant_c1_hand_value():
    cb = compute_constants(2, math.pi, math.pi, 1.0, 1.0, GAMMA2)
    assert cb.c1 == pytest.approx((math.pi / 2.0) * min(1.0 / (64.0 * GAMMA2), 1.0 / 64.0),
                                  rel=1e-14)
    assert cb.c4 == pytest.approx(cb.c1, rel=1e-14)  # k=1, ||f||_1 = |Omega|


def test_constant_c3_hand_value():
    cb = compute_constants(2, math.pi, math.pi, 1.0, 1.0, GAMMA2)
    assert cb.c3 == pytest.approx(min(1.0 / 128.0, 1.0 / (256.0 * GAMMA2)), rel=1e-14)


def test_constant_c5_formula():
    m, beta = math.pi, 2.0
    cb = compute_constants(2, m, m, beta, 1.0, GAMMA2)
    num = min(1.0 / (64.0 * GAMMA2), beta * math.sqrt(m) / (256.0 * math.sqrt(math.pi)))
    den = 2.0 * beta ** 2 * (m / (2 * math.pi) + 1.0 / (math.pi * beta ** 2)
                             + math.sqrt(m) / (beta * math.sqrt(math.pi)))
    assert cb.c5 == pytest.approx(num / den, rel=1e-14)


def test_constants_vanish_as_beta_grows():
    vals1, vals2 = [], []
    for beta in (1.0, 10.0, 100.0, 1000.0):
        cb = compute_constants(2, math.pi, math.pi, beta, 1.0, GAMMA2)
        vals1.append(cb.c1)
        vals2.append(cb.c2)
    assert all(a >= b for a, b in zip(vals1, vals1[1:]))
    assert all(a >= b for a, b in zip(vals2, vals2[1:]))
    assert vals1[-1] < 1e-3 * vals1[0] and vals2[-1] < 1e-3 * vals2[0]
    # C3 does not depend on beta
    c3s = {compute_constants(2, math.pi, math.pi, b, 1.0, GAMMA2).c3 for b in (1.0, 50.0)}
    assert len(c3s) == 1


def test_k_range_guards():
    d = build_domain("rect", w=2.0, h=0.5)
    generic = SourceSpec(kind="radial", fn=lambda r: 2.0 - r, centroid=(0.0, 0.0),
                         label="radial")
    with pytest.raises(KRangeError, match="2n-2"):
        check_lorentz_k1(Ladder(d, 1.0, 0.2), generic, 2.0, GAMMA2)
    with pytest.raises(KRangeError, match="3n-4"):
        check_lorentz_2k2(Ladder(d, 1.0, 0.2), generic, 1.5, GAMMA2)
    assert k_range_lorentz_k1(2, False) == 1.0
    assert k_range_lorentz_2k2(2, False) == 1.0
    assert math.isinf(k_range_lorentz_k1(2, True))
    assert k_range_lorentz_2k2(3, False) == pytest.approx(0.6)


def test_disc_equality_cases_all_checkers():
    d = build_domain("disc", r=1.0)
    f = constant_source(1.0)
    ladder = Ladder(d, 1.0, 0.12)
    reports = [
        check_lorentz_k1(ladder, f, 1.0, GAMMA2),
        check_lorentz_2k2(ladder, f, 1.0, GAMMA2),
        check_pointwise(ladder, GAMMA2),
        check_saint_venant(ladder, GAMMA2),
        check_bossel_daners(ladder, GAMMA2),
    ]
    for rep in reports:
        assert rep.asymmetry <= 1e-2
        assert abs(rep.lhs_gap) <= rep.disc_error
        assert rep.passed


def test_ellipse_positive_margins():
    d = parse_domain_spec(ELLIPSE_15)
    f = constant_source(1.0)
    ladder = Ladder(d, 1.0, 0.12)
    r1 = check_lorentz_k1(ladder, f, 1.0, GAMMA2)
    r2 = check_lorentz_2k2(ladder, f, 0.5, GAMMA2)
    for rep in (r1, r2):
        assert rep.lhs_gap > 0 and rep.margin > 0 and rep.passed
        assert rep.extras["mu_le_phi_margin"] <= 10.0 * rep.disc_error + 1e-6


def test_nonsymmetric_source_pass():
    d = build_domain("rect", w=2.0, h=0.5)
    f = SourceSpec(kind="radial", fn=lambda r: 2.0 - r, centroid=(0.0, 0.0),
                   label="radial 2-r")
    rep = check_lorentz_k1(Ladder(d, 1.0, 0.1), f, 1.0, GAMMA2)
    assert rep.lhs_gap > 0 and rep.passed


def test_bump_source_pass():
    from robinsym.runner import source_from_name
    d = parse_domain_spec(ELLIPSE_15)
    rep = check_lorentz_2k2(Ladder(d, 1.0, 0.12), source_from_name("bump", d), 0.5, GAMMA2)
    assert rep.lhs_gap > 0 and rep.passed


def test_convex_polygon_through_checker():
    # a mildly irregular convex pentagon exercises the fan mesher, the
    # polygon asymmetry, and the torsion pipeline together
    d = build_domain("polygon", vertices=[(0, 0), (1.4, -0.1), (1.9, 0.8),
                                          (0.9, 1.5), (-0.3, 0.9)])
    rep = check_saint_venant(Ladder(d, 1.0, 0.1), GAMMA2)
    assert rep.lhs_gap > 0 and rep.margin > 0 and rep.passed


def test_pointwise_stadium_domination():
    d = build_domain("stadium", l=1.0, r=0.5)
    rep = check_pointwise(Ladder(d, 1.0, 0.08), GAMMA2)
    assert rep.passed
    assert rep.extras["min_pointwise_diff"] >= -rep.disc_error


def test_bossel_daners_beta_variation():
    d = parse_domain_spec(ELLIPSE_15)
    r1 = check_bossel_daners(Ladder(d, 1.0, 0.15), GAMMA2)
    r10 = check_bossel_daners(Ladder(d, 10.0, 0.15), GAMMA2)
    assert r1.passed and r10.passed
    assert r1.lhs_gap > 0 and r10.lhs_gap > 0
    assert r1.constant != r10.constant
    assert r1.extras["in_proof_regime"]


def test_ladder_solves_once_per_rung_and_eigensolves_on_demand(monkeypatch):
    from robinsym import verify

    solves, eigens = [], []
    solve, eigen = verify.solve_robin_poisson, verify.principal_robin_eigenpair
    monkeypatch.setattr(verify, "solve_robin_poisson",
                        lambda *args: solves.append(args[0]) or solve(*args))
    monkeypatch.setattr(verify, "principal_robin_eigenpair",
                        lambda *args: eigens.append(args[0]) or eigen(*args))
    ladder = Ladder(build_domain("disc", r=1.0), 1.0, 0.2)
    f = constant_source(1.0)
    check_lorentz_k1(ladder, f, 1.0, GAMMA2)
    check_pointwise(ladder, GAMMA2)
    check_saint_venant(ladder, GAMMA2)
    rungs = [id(mesh) for mesh in ladder.meshes]
    assert len(rungs) == 2
    assert [id(mesh) for mesh in solves] == rungs
    assert eigens == []
    check_bossel_daners(ladder, GAMMA2)
    check_bossel_daners(ladder, GAMMA2)
    assert [id(mesh) for mesh in eigens] == rungs
    assert [id(mesh) for mesh in solves] == rungs


def test_isoperimetric_reports():
    disc = check_isoperimetric(build_domain("disc", r=1.0), GAMMA2)
    assert disc.classical_pass and disc.quantitative_pass
    assert abs(disc.deficit) < 1e-12
    square = check_isoperimetric(build_domain("rect", w=1.0, h=1.0), GAMMA2)
    assert square.classical_pass
    assert square.deficit > 0 and np.isfinite(square.gamma_star)
    # gamma at least gamma_star passes, smaller gamma fails
    assert check_isoperimetric(build_domain("rect", w=1.0, h=1.0),
                               square.gamma_star * 1.01).quantitative_pass
    assert not check_isoperimetric(build_domain("rect", w=1.0, h=1.0),
                                   square.gamma_star * 0.5).quantitative_pass


def _torsion_level(d, removed, h=0.1):
    """The torsion function u on a mesh of d and the level t at which the
    superlevel set {u > t} leaves out `removed` of the mesh area."""
    from robinsym.fem import solve_robin_poisson
    from robinsym.meshing import generate_mesh
    from robinsym.rearrange import distribution_function
    u = solve_robin_poisson(generate_mesh(d, h), constant_source(1.0), 1.0)
    return u, distribution_function(u).ustar(u.mesh.area() * (1.0 - removed))


def test_propagation_full_subset():
    d = build_domain("rect", w=2.0, h=0.5)
    rep = check_propagation(d, *_torsion_level(d, 0.0))
    assert rep.applicable and rep.passed
    assert rep.alpha_subset == pytest.approx(rep.alpha_domain, abs=2e-2)


def test_propagation_boundary_layer():
    d = parse_domain_spec("ellipse a=1.4142135623730951 b=0.7071067811865476")
    from robinsym.domains import cached_asymmetry
    alpha = cached_asymmetry(d).value
    rep = check_propagation(d, *_torsion_level(d, alpha / 8.0))
    assert rep.hypothesis_met and rep.applicable
    assert rep.passed


def test_propagation_violated_hypothesis():
    d = parse_domain_spec("ellipse a=1.4142135623730951 b=0.7071067811865476")
    rep = check_propagation(d, *_torsion_level(d, 0.5))
    assert not rep.applicable and rep.passed is None


def test_monotone_asymmetry_trend_across_ellipses():
    # axis ratios 1.1, 1.2, 1.5, 2 at measure pi: alpha and the reported
    # right-hand sides must both increase strictly
    import math as _m
    reports = []
    for ratio in (1.1, 1.2, 1.5, 2.0):
        a = _m.sqrt(ratio)
        d = build_domain("ellipse", a=a, b=1.0 / a)
        reports.append(check_saint_venant(Ladder(d, 1.0, 0.15), GAMMA2))
    alphas = [r.asymmetry for r in reports]
    rhss = [r.rhs for r in reports]
    assert all(x < y for x, y in zip(alphas, alphas[1:]))
    assert all(x < y for x, y in zip(rhss, rhss[1:]))


def test_torsion_equals_l11_functional():
    # integral of u equals integral of mu(t) dt (Cavalieri at p = 1)
    from robinsym.fem import field_integral, solve_robin_poisson
    from robinsym.meshing import generate_mesh
    from robinsym.rearrange import distribution_function, lorentz_power_integral
    d = parse_domain_spec(ELLIPSE_15)
    u = solve_robin_poisson(generate_mesh(d, 0.1), constant_source(1.0), 1.0)
    t_int = field_integral(u)
    l11 = lorentz_power_integral(distribution_function(u), 1.0, 1.0)
    assert l11 == pytest.approx(t_int, rel=1e-8)


def test_quantitative_ode_variant_on_family():
    from robinsym.fem import solve_robin_poisson
    from robinsym.levelset import quantitative_ode_margins
    from robinsym.meshing import generate_mesh
    from robinsym.rearrange import constant_profile
    d = parse_domain_spec(ELLIPSE_15)
    m = generate_mesh(d, 0.1)
    u = solve_robin_poisson(m, constant_source(1.0), 1.0)
    levels = np.linspace(u.u_min * 1.1, u.u_max * 0.8, 5)
    res = quantitative_ode_margins(u, constant_profile(1.0, d.measure), 1.0,
                                   GAMMA2, levels)
    assert len(res) == 5
    # strengthened inequality holds with the 10h discretization allowance
    assert all(margin >= -10.0 * m.h for _, _, margin in res)
