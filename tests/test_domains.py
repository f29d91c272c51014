import math

import numpy as np
import pytest
from scipy.special import ellipe

from raster_oracle import (
    BallSpec,
    MeasureMismatchError,
    _domain_box_fractions,
    cell_fractions,
    circle_box_area,
    make_grid,
    sym_diff_area,
    symmetric_difference_with_ball,
)
from robinsym.domains import (
    GeometryError,
    _ball_overlap,
    _oriented_boundary,
    build_domain,
    domain_spec_string,
    equal_measure_radius,
    fraenkel_asymmetry,
    isoperimetric_deficit,
    parse_domain_spec,
    unit_ball_measure,
)


def square_disc_overlap_defect():
    """Closed-form |square Delta disc| for the unit square vs its equal-area disc.

    The disc of area 1 centered at the square's center pokes out through the
    four sides; each protrusion is a circular segment at chord distance 1/2.
    """
    r = 1.0 / math.sqrt(math.pi)
    d = 0.5
    seg = r * r * math.acos(d / r) - d * math.sqrt(r * r - d * d)
    return 8.0 * seg


def test_unit_ball_measure():
    assert unit_ball_measure(2) == pytest.approx(math.pi, rel=1e-15)
    assert unit_ball_measure(3) == pytest.approx(4.0 * math.pi / 3.0, rel=1e-14)


def test_disc_measure_perimeter():
    d = build_domain("disc", r=1.0)
    assert d.measure == pytest.approx(math.pi, rel=1e-15)
    assert d.perimeter == pytest.approx(2.0 * math.pi, rel=1e-15)


def test_unit_square():
    d = build_domain("rect", w=1.0, h=1.0)
    assert d.measure == 1.0
    assert d.perimeter == 4.0


def test_ellipse_perimeter_quadrature():
    d = build_domain("ellipse", a=2.0, b=0.5)
    assert d.measure == pytest.approx(math.pi, rel=1e-15)
    # independent oracle: complete elliptic integral of the second kind
    oracle = 4.0 * 2.0 * ellipe(1.0 - (0.5 / 2.0) ** 2)
    assert d.perimeter == pytest.approx(oracle, rel=1e-10)
    assert d.perimeter == pytest.approx(8.578, abs=2e-3)


def test_stadium_measure_perimeter():
    d = build_domain("stadium", l=1.0, r=0.5)
    assert d.measure == pytest.approx(1.0 + math.pi * 0.25, rel=1e-15)
    assert d.perimeter == pytest.approx(2.0 + math.pi, rel=1e-15)


def test_polygon_shoelace_and_orientation():
    sq = build_domain("polygon", vertices=[(0, 0), (1, 0), (1, 1), (0, 1)])
    assert sq.measure == pytest.approx(1.0)
    assert sq.perimeter == pytest.approx(4.0)
    # clockwise input is auto-corrected
    cw = build_domain("polygon", vertices=[(0, 0), (0, 1), (1, 1), (1, 0)])
    assert cw.measure == pytest.approx(1.0)
    assert np.allclose(cw.vertices, sq.vertices[::1]) or cw.measure > 0


def test_polygon_rejects_self_intersection():
    with pytest.raises(GeometryError):
        build_domain("polygon", vertices=[(0, 0), (1, 1), (1, 0), (0, 1)])


@pytest.mark.parametrize("spec", ["polygon 0,0 1,0 1,0 1,1 0,1",
                                  "polygon 0,0 1,0 1,1 0,1 0,0"])
def test_polygon_rejects_zero_length_edge(spec):
    # a repeated vertex, inside the chain or closing it, would only fail
    # later, in the mesher, on a zero-area fan triangle
    with pytest.raises(GeometryError, match="zero-length edge"):
        parse_domain_spec(spec)


def test_nonpositive_parameters_rejected():
    with pytest.raises(GeometryError):
        build_domain("disc", r=-1.0)
    with pytest.raises(GeometryError):
        build_domain("rect", w=0.0, h=1.0)


def test_spec_roundtrip():
    for text in ("disc r=1", "ellipse a=2 b=0.5", "rect w=2 h=0.5",
                 "stadium l=1 r=0.5", "polygon 0,0 2,0 1,1.5"):
        d = parse_domain_spec(text)
        d2 = parse_domain_spec(domain_spec_string(d))
        assert d2.measure == pytest.approx(d.measure, rel=1e-14)


def test_circle_box_area_against_quadrature():
    rng = np.random.default_rng(7)
    r = 0.83
    for _ in range(40):
        x0, y0 = rng.uniform(-1.2, 0.9, size=2)
        x1 = x0 + rng.uniform(0.05, 0.8)
        y1 = y0 + rng.uniform(0.05, 0.8)
        # Monte Carlo oracle on the box
        n = 200_000
        px = rng.uniform(x0, x1, size=n)
        py = rng.uniform(y0, y1, size=n)
        hit = (px * px + py * py <= r * r).mean()
        mc = hit * (x1 - x0) * (y1 - y0)
        sigma = (x1 - x0) * (y1 - y0) * math.sqrt(max(hit * (1 - hit), 1e-12) / n)
        exact = float(circle_box_area(x0, x1, y0, y1, 0.0, 0.0, r))
        assert abs(exact - mc) < 5.0 * sigma + 1e-12


def test_cell_fractions_sum_to_measure():
    for spec in ("disc r=1", "ellipse a=2 b=0.5", "rect w=2 h=0.5",
                 "stadium l=1 r=0.5", "polygon 0,0 2,0 2,1 0,1"):
        d = parse_domain_spec(spec)
        grid = make_grid(d.bounding_box(), d.diameter() / 256, pad=0.01)
        frac = cell_fractions(d, grid)
        assert float(frac.sum()) * grid.h ** 2 == pytest.approx(d.measure, rel=1e-9)


def test_symmetric_difference_disc_with_itself():
    d = build_domain("disc", r=1.0)
    area, err = symmetric_difference_with_ball(d, BallSpec((0.0, 0.0), 1.0))
    assert area <= 1e-12
    assert err >= 0.0


def test_symmetric_difference_square_vs_disc():
    d = build_domain("rect", w=1.0, h=1.0)
    r = equal_measure_radius(1.0)
    area, err = symmetric_difference_with_ball(d, BallSpec((0.0, 0.0), r))
    assert area == pytest.approx(square_disc_overlap_defect(), abs=5e-5)
    assert area == pytest.approx(0.1811, abs=5e-4)


def test_polygon_square_matches_rect_at_every_layer():
    # the subcell pass hands _domain_box_fractions corner arrays of shapes
    # (n,sub,1) and (n,1,sub) that only broadcast; the polygon branch must
    # take them like every other shape branch
    poly = parse_domain_spec("polygon -0.5,-0.5 0.5,-0.5 0.5,0.5 -0.5,0.5")
    rect = build_domain("rect", w=1.0, h=1.0)
    hs = 0.05
    x0 = np.array([-0.6, -0.52, 0.1, 0.47])[:, None, None] + np.arange(4)[None, :, None] * hs
    y0 = np.array([0.3, -0.55, 0.46, 0.0])[:, None, None] + np.arange(4)[None, None, :] * hs
    fp = _domain_box_fractions(poly, x0, x0 + hs, y0, y0 + hs, hs)
    fr = _domain_box_fractions(rect, x0, x0 + hs, y0, y0 + hs, hs)
    assert fp.shape == (4, 4, 4)
    np.testing.assert_allclose(fp, fr, rtol=0.0, atol=1e-12)
    assert np.any((fp > 0.0) & (fp < 1.0))  # some boxes straddle an edge
    ball = BallSpec((0.0, 0.0), equal_measure_radius(1.0))
    ap, ep = symmetric_difference_with_ball(poly, ball)
    ar, er = symmetric_difference_with_ball(rect, ball)
    assert ap == pytest.approx(ar, abs=1e-12)
    assert ep == pytest.approx(er, abs=1e-12)
    a = fraenkel_asymmetry(poly)
    assert a.value == pytest.approx(square_disc_overlap_defect(), abs=1e-4)
    assert abs(a.center[0]) < 1e-3 and abs(a.center[1]) < 1e-3


def test_symmetric_difference_disjoint_translates():
    d = build_domain("disc", r=1.0)
    area, _ = symmetric_difference_with_ball(d, BallSpec((10.0, 0.0), 1.0))
    assert area == pytest.approx(2.0 * d.measure, rel=1e-9)


def test_symmetric_difference_measure_guard():
    d = build_domain("disc", r=1.0)
    with pytest.raises(MeasureMismatchError):
        symmetric_difference_with_ball(d, BallSpec((0.0, 0.0), 1.01))


def test_identity_decomposition():
    # |Omega Delta B| = |Omega| + |B| - 2 |Omega cap B|: check against an
    # independent overlap computed by Monte Carlo
    d = parse_domain_spec("ellipse a=1.5 b=0.6666666666666666")
    r = equal_measure_radius(d.measure)
    center = (0.1, 0.05)
    area, _ = symmetric_difference_with_ball(d, BallSpec(center, r))
    rng = np.random.default_rng(3)
    n = 2_000_000
    x0, x1, y0, y1 = d.bounding_box()
    x0, x1 = min(x0, center[0] - r), max(x1, center[0] + r)
    y0, y1 = min(y0, center[1] - r), max(y1, center[1] + r)
    px = rng.uniform(x0, x1, size=n)
    py = rng.uniform(y0, y1, size=n)
    in_d = d.contains(px, py)
    in_b = (px - center[0]) ** 2 + (py - center[1]) ** 2 <= r * r
    box = (x1 - x0) * (y1 - y0)
    overlap = in_d.mean() * 0 + (in_d & in_b).mean() * box
    expected = d.measure + math.pi * r * r - 2.0 * overlap
    assert area == pytest.approx(expected, abs=4.0 * box / math.sqrt(n))


def test_asymmetry_disc_is_zero():
    a = fraenkel_asymmetry(build_domain("disc", r=1.0))
    assert a.value <= 1e-3
    assert abs(a.center[0]) < 1e-3 and abs(a.center[1]) < 1e-3


def test_asymmetry_unit_square():
    a = fraenkel_asymmetry(build_domain("rect", w=1.0, h=1.0))
    assert a.value == pytest.approx(square_disc_overlap_defect(), abs=1e-4)
    assert abs(a.center[0]) < 1e-3 and abs(a.center[1]) < 1e-3


def test_asymmetry_ellipse_semianalytic_oracle():
    # concentric symmetric difference of the measure-pi ellipse and the unit
    # disc: (1/2) integral |r_e(th)^2 - 1| dth with r_e^2 = 1/(b^2 c^2 + a^2 s^2);
    # by the ellipse's two reflection symmetries the centroid is the optimum
    from scipy.integrate import quad as _quad
    for ratio in (1.5, 2.0):
        f = lambda th: abs(1.0 / (math.cos(th) ** 2 / ratio + ratio * math.sin(th) ** 2) - 1.0)
        val, _ = _quad(f, 0.0, 2.0 * math.pi, limit=400, epsabs=1e-12)
        oracle = 0.5 * val / math.pi
        a = math.sqrt(ratio)
        res = fraenkel_asymmetry(parse_domain_spec(f"ellipse a={a!r} b={1.0 / a!r}"))
        assert res.value == pytest.approx(oracle, abs=2e-5)
        assert abs(res.center[0]) < 1e-3 and abs(res.center[1]) < 1e-3


def test_asymmetry_ellipse_brute_force_crosscheck():
    d = parse_domain_spec("ellipse a=1.4142135623730951 b=0.7071067811865476")
    a = fraenkel_asymmetry(d)
    assert 0.0 < a.value < 2.0
    # brute-force center grid at doubled resolution must not beat the search
    r = a.radius
    hh = d.diameter() / 1024
    grid = make_grid(d.bounding_box(), hh, pad=2 * hh)
    frac = cell_fractions(d, grid)
    vals = []
    for cx in np.linspace(-0.2, 0.2, 9):
        for cy in np.linspace(-0.1, 0.1, 5):
            vals.append(sym_diff_area(d, frac, grid, (cx, cy), r, d.measure) / d.measure)
    assert a.value <= min(vals) + 1e-4


def test_asymmetry_translation_invariance():
    base = parse_domain_spec("ellipse a=1.5 b=0.6666666666666666")
    moved = parse_domain_spec("ellipse a=1.5 b=0.6666666666666666 cx=0.7 cy=-0.3")
    a0 = fraenkel_asymmetry(base)
    a1 = fraenkel_asymmetry(moved)
    assert abs(a0.value - a1.value) < 1e-6


def test_asymmetry_scale_invariance():
    vals = {}
    for lam in (0.5, 1.0, 2.0):
        d = build_domain("rect", w=2.0 * lam, h=0.5 * lam)
        vals[lam] = fraenkel_asymmetry(d).value
    assert vals[0.5] == pytest.approx(vals[1.0], abs=2e-5)
    assert vals[2.0] == pytest.approx(vals[1.0], abs=2e-5)


def test_asymmetry_range_invariant():
    for spec in ("disc r=0.7", "rect w=3 h=0.4", "stadium l=2 r=0.3"):
        a = fraenkel_asymmetry(parse_domain_spec(spec))
        assert 0.0 <= a.value < 2.0


# the shapes of the benchmark's shape family (area pi) and the default config's
# ellipse, through every boundary piece: arcs, segments and both mixed
STADIUM_R = math.sqrt(math.pi / (2.0 + math.pi))
ASYMMETRY_SHAPES = (
    f"ellipse a={math.sqrt(1.7)!r} b={1.0 / math.sqrt(1.7)!r}",
    f"rect w={math.sqrt(1.6 * math.pi)!r} h={math.sqrt(math.pi / 1.6)!r}",
    f"stadium l={STADIUM_R!r} r={STADIUM_R!r}",
    "polygon -1.009,0.4251 -0.949,-0.4603 -0.0763,-1.0736 0.5474,-0.9483 "
    "1.0583,-0.1542 0.725,0.8098 -0.1133,1.0612",
    "ellipse a=1.2247448713915892 b=0.81649658092772615",
)


def _lens_area(R, r, d):
    """Closed-form area of the intersection of discs of radii R, r at distance d."""
    if d >= R + r:
        return 0.0
    if d <= abs(R - r):
        return math.pi * min(R, r) ** 2
    return (R * R * math.acos((d * d + R * R - r * r) / (2.0 * d * R))
            + r * r * math.acos((d * d + r * r - R * R) / (2.0 * d * r))
            - 0.5 * math.sqrt((-d + R + r) * (d + R - r) * (d - R + r) * (d + R + r)))


def test_exact_overlap_matches_disc_lens():
    d = build_domain("disc", r=1.3, cx=0.2, cy=-0.4)
    for r in (0.7, 1.3, 1.9):
        # inside, off-centre; partly outside; disjoint (or containing for r=1.9)
        for off in ((0.13, -0.07), (0.9, 0.4), (1.8, 0.5), (3.0, 0.0)):
            x = (0.2 + off[0], -0.4 + off[1])
            exact = _lens_area(1.3, r, math.hypot(*off))
            assert _ball_overlap(*_oriented_boundary(d), x, r) == pytest.approx(exact, abs=1e-13)


@pytest.mark.parametrize("spec", ASYMMETRY_SHAPES + ("rect w=1 h=1", "polygon 0,0 2,0 2,1 1,1 1,2 0,2"))
def test_exact_overlap_matches_raster_oracle(spec):
    # the boundary integral against the independent closed-form raster with
    # its subcell pass; the L-shape is nonconvex and the centers include one
    # outside the domain
    d = parse_domain_spec(spec)
    r = equal_measure_radius(d.measure)
    for off in ((0.13, -0.07), (0.9, 0.4), (3.0, 0.0)):
        x = (d.center[0] + off[0], d.center[1] + off[1])
        raster, _ = symmetric_difference_with_ball(d, BallSpec(x, r))
        exact = 2.0 * (d.measure - _ball_overlap(*_oriented_boundary(d), x, r))
        assert exact == pytest.approx(raster, abs=1e-6)


def test_asymmetry_ellipse_closed_form():
    # the concentric equal-area disc crosses the ellipse where both radii are
    # sqrt(ab), which gives alpha = (4/pi)(atan sqrt(a/b) - atan sqrt(b/a))
    for ratio in (1.5, 1.7, 2.0):
        a = math.sqrt(ratio)
        b = 1.0 / a
        res = fraenkel_asymmetry(build_domain("ellipse", a=a, b=b))
        oracle = 4.0 / math.pi * (math.atan(math.sqrt(a / b)) - math.atan(math.sqrt(b / a)))
        assert res.value == pytest.approx(oracle, abs=1e-12)
        assert res.error <= 1e-12


def test_asymmetry_disc_and_translated_disc_vanish():
    for d in (build_domain("disc", r=1.0), build_domain("disc", r=0.7, cx=3.1, cy=-2.0)):
        assert fraenkel_asymmetry(d).value == pytest.approx(0.0, abs=1e-15)


def test_asymmetry_translation_invariance_exact():
    for spec in ASYMMETRY_SHAPES[:3]:
        base = fraenkel_asymmetry(parse_domain_spec(spec)).value
        moved = fraenkel_asymmetry(parse_domain_spec(spec + " cx=0.7 cy=-0.3")).value
        assert moved == pytest.approx(base, abs=1e-12)
    verts = np.array([[0.0, 0.0], [2.0, 0.0], [2.0, 1.0], [1.0, 1.0], [1.0, 2.0], [0.0, 2.0]])
    base = fraenkel_asymmetry(build_domain("polygon", vertices=verts)).value
    moved = fraenkel_asymmetry(build_domain("polygon", vertices=verts + [0.7, -0.3])).value
    assert moved == pytest.approx(base, abs=1e-12)


def test_asymmetry_evaluation_budget():
    # a deterministic guard on the search cost in place of a timing test
    for spec in ASYMMETRY_SHAPES:
        res = fraenkel_asymmetry(parse_domain_spec(spec))
        assert 0 < res.evaluations <= 300


def test_isoperimetric_on_random_convex_polygons():
    from scipy.spatial import ConvexHull
    rng = np.random.default_rng(42)
    for _ in range(100):
        pts = rng.normal(size=(12, 2)) * rng.uniform(0.5, 2.0)
        hull = ConvexHull(pts)
        d = build_domain("polygon", vertices=pts[hull.vertices])
        assert d.perimeter >= 2.0 * math.sqrt(math.pi * d.measure)
        assert isoperimetric_deficit(d) >= 0.0
