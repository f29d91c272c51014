"""Acceptance criteria, one test per criterion, each printing PASS/FAIL.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines.  Shapes of the verification family: ellipses with axis ratio 1.2,
1.5, 2 normalized to measure pi, the 2 x 0.5 rectangle, and the stadium
with straight length 1 and cap radius 0.5.
"""

import math

import numpy as np
import pytest

from robinsym.domains import (
    build_domain,
    cached_asymmetry,
    parse_domain_spec,
)
from robinsym.fem import ScalarField, constant_source, field_integral, field_integral_pow, \
    principal_robin_eigenpair, solve_robin_poisson
from robinsym.levelset import exterior_time_integral, make_level_grid, ode_residuals
from robinsym.meshing import generate_mesh, refine_mesh
from robinsym.radial import ball_torsion, bessel_eigen_oracle, symmetrized_constant_source, \
    symmetrized_solution
from robinsym.rearrange import DecreasingProfile, cavalieri_pnorm_power, constant_profile, \
    decreasing_rearrangement, distribution_function, hardy_littlewood_gap
from robinsym.runner import source_from_name
from robinsym.verify import (
    Ladder,
    check_bossel_daners,
    check_lorentz_2k2,
    check_lorentz_k1,
    check_pointwise,
    check_propagation,
    check_saint_venant,
)

GAMMA2 = 16.0  # suite configuration value; see the gamma_star diagnostics

FAMILY = (
    "ellipse a=1.0954451150103324 b=0.91287092917527679",   # ratio 1.2, |O| = pi
    "ellipse a=1.224744871391589 b=0.81649658092772615",    # ratio 1.5
    "ellipse a=1.4142135623730951 b=0.70710678118654757",   # ratio 2.0
    "rect w=2 h=0.5",
    "stadium l=1 r=0.5",
)


def _verdict(num, label, ok, detail=""):
    print(f"ACCEPTANCE {num:>2}: {'PASS' if ok else 'FAIL'} - {label} {detail}")
    assert ok, f"criterion {num} failed: {label} {detail}"


def disc_exact(r, beta=1.0, R=1.0):
    return (R * R - r * r) / 4.0 + R / (2.0 * beta)


def test_criterion_01_disc_oracle_convergence():
    d = build_domain("disc", r=1.0)
    mesh = generate_mesh(d, 0.02)
    errs = []
    for _ in range(2):
        u = solve_robin_poisson(mesh, constant_source(1.0), 1.0)
        r = np.hypot(mesh.nodes[:, 0], mesh.nodes[:, 1])
        errs.append(float(np.max(np.abs(u.values - disc_exact(r)))))
        mesh = refine_mesh(mesh)
    ratio = errs[0] / errs[1]
    ok = errs[0] <= 2e-3 and ratio >= 3.5
    _verdict(1, "disc oracle", ok,
             f"(Linf at h=0.02: {errs[0]:.2e} <= 2e-3, refinement ratio {ratio:.2f} >= 3.5)")


def test_criterion_02_torsion_oracle():
    exact = ball_torsion(1.0, 1.0)
    m = generate_mesh(build_domain("disc", r=1.0), 0.05)
    u = solve_robin_poisson(m, constant_source(1.0), 1.0)
    fem = field_integral(u)
    ok = (abs(exact - 5 * math.pi / 8) < 1e-14
          and abs(fem - exact) / exact < 5e-3)
    _verdict(2, "torsion oracle", ok,
             f"(closed form {exact:.6f} = 5pi/8, FEM {fem:.6f}, rel diff "
             f"{abs(fem - exact) / exact:.2e} < 5e-3)")


def test_criterion_03_vm_identity_and_profile():
    rs = symmetrized_constant_source(math.pi, beta=1.0)
    s = np.linspace(0.0, math.pi, 4097)
    dev = float(np.max(np.abs(rs.value(s) - ((math.pi - s) / (4 * math.pi) + 0.5))))
    ok = rs.v_m == 0.5 and dev <= 1e-9
    _verdict(3, "v_m identity", ok, f"(v_m = {rs.v_m}, profile deviation {dev:.2e} <= 1e-9)")


def test_criterion_04_radial_ode_and_boundary_identity():
    worst = 0.0
    for fstar in (constant_profile(1.0, math.pi),
                  DecreasingProfile(s=np.linspace(0.0, math.pi, 257),
                                    values=2.0 - 1.5 * np.linspace(0.0, 1.0, 257))):
        rs = symmetrized_solution(math.pi, 2, 1.0, fstar)
        grid = make_level_grid(rs.v_M, anchors=(rs.v_m,), count=512)
        rep = ode_residuals(rs, fstar, 1.0, grid)
        worst = max(worst, rep.max_relative_residual())
        # boundary-weighted level integral (tau >= v_m): P v_m / 2 = F(|O|)/(2 beta)
        lhs = 2.0 * math.pi * rs.v_m / 2.0
        rhs = fstar.cumulative(math.pi) / 2.0
        worst = max(worst, abs(lhs - rhs) / rhs)
    ok = worst <= 1e-6
    _verdict(4, "radial level-set identities", ok, f"(max relative residual {worst:.2e} <= 1e-6)")


def test_criterion_05_disc_equality_regression():
    d = build_domain("disc", r=1.0)
    f = constant_source(1.0)
    ladder = Ladder(d, 1.0, 0.1)
    reports = [
        check_lorentz_k1(ladder, f, 1.0, GAMMA2),
        check_lorentz_2k2(ladder, f, 1.0, GAMMA2),
        check_pointwise(ladder, GAMMA2),
        check_saint_venant(ladder, GAMMA2),
        check_bossel_daners(ladder, GAMMA2),
    ]
    alpha = cached_asymmetry(d).value
    bad = [r.theorem for r in reports if abs(r.lhs_gap) > r.disc_error or not r.passed]
    ok = not bad and alpha <= 1e-2
    _verdict(5, "disc equality regression", ok,
             f"(alpha = {alpha:.2e} <= 1e-2, all five gaps within Richardson error"
             f"{'' if not bad else '; violations: ' + ', '.join(bad)})")


def _family_reports(checker, beta=1.0, h=0.12, ks=(1.0, 0.5), sources=("const", "radial")):
    reports = []
    for spec in FAMILY:
        d = parse_domain_spec(spec)
        ladder = Ladder(d, beta, h)
        for k in ks:
            for src in sources:
                f = source_from_name(src, d)
                reports.append(checker(ladder, f, k, GAMMA2))
    return reports


def test_criterion_06_lorentz_k1_suite():
    reports = _family_reports(check_lorentz_k1)
    worst = min(r.margin for r in reports)
    ok = all(r.margin > 0 and r.passed for r in reports)
    _verdict(6, "L(k,1) comparison suite", ok,
             f"({len(reports)} runs: ellipse ratios 1.2/1.5/2, rect, stadium; "
             f"k in {{1, 1/2}}, f constant and radial; min margin {worst:.3e} > 0)")


def test_criterion_07_lorentz_2k2_suite():
    reports = _family_reports(check_lorentz_2k2)
    worst = min(r.margin for r in reports)
    ordering = all(r.lhs_gap >= -r.disc_error for r in reports)
    ok = all(r.margin > 0 and r.passed for r in reports) and ordering
    _verdict(7, "L(2k,2) comparison suite", ok,
             f"({len(reports)} runs; min margin {worst:.3e} > 0; "
             f"norm ordering never violated: {ordering})")


def test_criterion_08_pointwise_suite():
    reports = []
    for spec in FAMILY:
        reports.append(check_pointwise(Ladder(parse_domain_spec(spec), 1.0, 0.12), GAMMA2))
    dom = all(r.extras["min_pointwise_diff"] >= -r.disc_error for r in reports)
    ok = all(r.margin > 0 and r.passed for r in reports) and dom
    _verdict(8, "pointwise comparison suite", ok,
             f"(sup(v - u_sharp) >= C3 alpha^3 on all {len(reports)} family members; "
             f"v >= u_sharp - tol everywhere: {dom})")


def test_criterion_09_corollaries():
    sv = [check_saint_venant(Ladder(parse_domain_spec(s), 1.0, 0.12), GAMMA2) for s in FAMILY]
    bd = [check_bossel_daners(Ladder(parse_domain_spec(s), 1.0, 0.12), GAMMA2)
          for s in FAMILY]
    m = refine_mesh(generate_mesh(build_domain("disc", r=1.0), 0.1))
    lam, _ = principal_robin_eigenpair(m, 1.0)
    oracle = bessel_eigen_oracle(1.0, 1.0)
    eig_rel = abs(lam - oracle) / oracle
    ok = (all(r.margin > 0 and r.passed for r in sv)
          and all(r.margin > 0 and r.passed for r in bd)
          and eig_rel < 5e-3)
    _verdict(9, "torsion and eigenvalue corollaries", ok,
             f"(torsion gaps >= C4 a^2, eigen gaps >= C5 a^2 on the family; "
             f"disc FEM eigenvalue vs Bessel oracle rel diff {eig_rel:.2e} < 5e-3)")


def test_criterion_10_property_suites():
    details = []

    # equimeasurability through three routes at 1e-6
    m = generate_mesh(build_domain("rect", w=2.0, h=0.5), 0.1)
    rng = np.random.default_rng(6)
    u = ScalarField(m, rng.uniform(0.1, 2.0, size=m.num_nodes))
    dist = distribution_function(u)
    prof = decreasing_rearrangement(dist, num=8192)
    eq_ok = True
    for p in (1.0, 2.0, 4.0):
        direct = field_integral_pow(u, p)
        via_mu = cavalieri_pnorm_power(dist, p)
        # u_sharp route: radial quadrature over the equal-measure disc
        R = math.sqrt(dist.total_measure / math.pi)
        r = np.linspace(0.0, R, 4097)
        vals = prof(math.pi * r * r) ** p * 2 * math.pi * r
        via_sharp = float(np.trapezoid(vals, r))
        eq_ok &= abs(via_mu - direct) <= 1e-6 * direct
        eq_ok &= abs(via_sharp - direct) <= 1e-4 * direct
    details.append(f"equimeasurability {eq_ok}")

    # Hardy-Littlewood gap on 100 random pairs
    m2 = generate_mesh(build_domain("rect", w=1.0, h=1.0), 0.34)
    hl_ok = all(
        hardy_littlewood_gap(
            ScalarField(m2, np.random.default_rng(3000 + i).uniform(0, 1, m2.num_nodes)),
            ScalarField(m2, np.random.default_rng(4000 + i).uniform(0, 1, m2.num_nodes)),
        ) >= -1e-8
        for i in range(100))
    details.append(f"hardy-littlewood {hl_ok}")

    # Cavalieri identity at 1e-8
    cav_ok = all(
        abs(cavalieri_pnorm_power(dist, p) - field_integral_pow(u, p))
        <= 1e-8 * field_integral_pow(u, p)
        for p in (1.0, 2.0, 3.0))
    details.append(f"cavalieri {cav_ok}")

    # generalized-inverse relations at 1000 probes
    rng = np.random.default_rng(8)
    ts = rng.uniform(dist.ess_inf, dist.ess_sup * 1.02, size=1000)
    ss = rng.uniform(0.0, dist.total_measure, size=1000)
    inv_ok = bool(np.all(dist.ustar(dist.mu(ts)) <= ts + 1e-9)
                  and np.all(dist.mu(dist.ustar(ss)) <= ss + 1e-9))
    details.append(f"generalized-inverse {inv_ok}")

    # isoperimetric inequality on 100 random convex polygons
    from scipy.spatial import ConvexHull
    rng = np.random.default_rng(12)
    iso_ok = True
    for _ in range(100):
        pts = rng.normal(size=(14, 2)) * rng.uniform(0.3, 3.0)
        d = build_domain("polygon", vertices=pts[ConvexHull(pts).vertices])
        iso_ok &= d.perimeter >= 2.0 * math.sqrt(math.pi * d.measure) - 1e-12
    details.append(f"isoperimetric {iso_ok}")

    # asymmetry propagation on 20 (domain, superlevel set of the torsion
    # function) pairs satisfying the removed-measure hypothesis
    prop_ok = True
    count = 0
    for spec in ("ellipse a=1.224744871391589 b=0.81649658092772615",
                 "ellipse a=1.4142135623730951 b=0.70710678118654757",
                 "rect w=2 h=0.5", "stadium l=1 r=0.5"):
        d = parse_domain_spec(spec)
        alpha = cached_asymmetry(d).value
        u = solve_robin_poisson(generate_mesh(d, 0.1), constant_source(1.0), 1.0)
        dist = distribution_function(u)
        for frac in (1 / 16.0, 1 / 8.0, 3 / 16.0, 0.21, 0.24):
            t = dist.ustar(u.mesh.area() * (1.0 - alpha * frac))
            rep = check_propagation(d, u, t)
            prop_ok &= rep.applicable and bool(rep.passed)
            count += 1
    details.append(f"propagation {prop_ok} ({count} pairs)")

    ok = eq_ok and hl_ok and cav_ok and inv_ok and iso_ok and prop_ok
    _verdict(10, "rearrangement property suites", ok, "(" + "; ".join(details) + ")")


def test_criterion_11_determinism(tmp_path):
    from robinsym.config import parse_config
    from robinsym.runner import emit_reports, run_experiments

    text = """\
[run]
domains = disc r=1; ellipse a=1.224744871391589 b=0.81649658092772615
betas = 1
ks = 1
sources = const
theorems = lorentz_k1, lorentz_2k2, pointwise, saint_venant, bossel_daners
h = 0.15
refinements = 1

[gamma]
gamma2 = 16.0
provenance = acceptance suite constant, validated against gamma_star diagnostics

[output]
dir = reports
"""
    import os
    outs = []
    for run in ("a", "b"):
        cfg = parse_config(text)
        rows = run_experiments(cfg)
        out = tmp_path / run
        emit_reports(rows, str(out))
        outs.append(out)
    same = True
    for name in sorted(os.listdir(outs[0])):
        with open(outs[0] / name, "rb") as f1, open(outs[1] / name, "rb") as f2:
            same &= f1.read() == f2.read()
    _verdict(11, "determinism", same,
             "(repeated verify run produced byte-identical reports)")
