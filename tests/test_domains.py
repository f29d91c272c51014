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
from robinsym import domains
from robinsym.domains import (
    GeometryError,
    _asymmetry_seeds,
    _ball_overlap,
    _ellipse_perimeter,
    _oriented_boundary,
    build_domain,
    domain_spec_string,
    equal_measure_radius,
    fraenkel_asymmetry,
    isoperimetric_deficit,
    parse_domain_spec,
)
from overlap_oracle import slice_overlap
from search_oracle import nelder_mead_asymmetry


def square_disc_overlap_defect():
    """Closed-form |square Delta disc| for the unit square vs its equal-area disc.

    The disc of area 1 centered at the square's center pokes out through the
    four sides; each protrusion is a circular segment at chord distance 1/2.
    """
    r = 1.0 / math.sqrt(math.pi)
    d = 0.5
    seg = r * r * math.acos(d / r) - d * math.sqrt(r * r - d * d)
    return 8.0 * seg


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


@pytest.mark.parametrize("ratio", [1.0, 1.0 + 1e-12, 1.0 + 1e-6, 1.5, 2.0, 10.0, 137.0, 1e3, 1e4])
def test_agm_ellipse_perimeter_matches_quad_and_ellipe(ratio):
    from scipy.integrate import quad
    for a in (1.0, 0.37, 25.0):
        b = a / ratio
        perimeter = _ellipse_perimeter(a, b)
        assert perimeter == pytest.approx(4.0 * a * ellipe((1.0 - b / a) * (1.0 + b / a)),
                                          rel=1e-14)
        # a quarter arc, split at the bend of the flat ellipses
        quarter, _ = quad(lambda t: math.hypot(a * math.sin(t), b * math.cos(t)),
                          0.0, 0.5 * math.pi, points=[b / a], epsabs=0.0,
                          epsrel=2e-14, limit=500)
        assert perimeter == pytest.approx(4.0 * quarter, rel=1e-14)


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


@pytest.mark.parametrize("spec", [
    "polygon 0,0 1,1 1,0 0,1",              # two edges cross
    "polygon 0,0 2,0 2,2 1,0 0,2",          # vertex (1,0) lies on the bottom edge
    "polygon 0,0 2,0 2,2 1,1 1,1.5 1,1 0,2"])  # a zero-width spike, its base repeated
def test_polygon_rejects_self_intersection(spec):
    with pytest.raises(GeometryError, match="self-intersecting or touches itself"):
        parse_domain_spec(spec)


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


@pytest.mark.parametrize("spec, match", [
    ("disc", "disc needs parameter 'r'"),
    ("disc radius=1", "unknown disc parameter 'radius'"),
    ("disc r=1 foo=2", "unknown disc parameter 'foo'"),
    ("disc r=1 r=2", "repeated parameter 'r'"),
    ("disc r=abc", "disc parameter 'r' must be a finite number, got 'abc'"),
    ("polygon 0,0 1,0 1,x", "coordinate of polygon vertex 3 must be a finite number, got 'x'"),
    ("disc r=nan", "disc parameter 'r' must be a finite number, got 'nan'"),
    ("disc r=inf", "disc parameter 'r' must be a finite number, got 'inf'"),
    ("rect w=2 h=0", r"rect w, h must lie in \[1e-70, 1e\+70\]"),
    ("disc r=1e-200", r"disc r must lie in \[1e-70, 1e\+70\]"),
    ("disc r=1 cx=1e75", r"disc r must lie .* and its coordinates within \+-1e\+70"),
    ("polygon 0,0 1,0 1,1e-75 0,1", r"polygon edges must lie in \[1e-70, 1e\+70\]"),
    ("rect w=2 h=1 cx=1e17", r"rect w, h: a centre coordinate of 1e\+17 is more than 2\^26 times "
                             r"the smallest extent 1, too far out for the doubles there to resolve "
                             r"the shape"),
    ("disc r=1e-9 cy=1", r"disc r: a centre coordinate of 1 is more than 2\^26 times"),
    ("polygon 1e8,0 100000001,0 1e8,1", r"polygon: a centre coordinate of 1e\+08 is more"),
    ("ellipse a=1 b=1e-16", r"ellipse a, b: the axis ratio 1e-16 is below 2\^-52, too thin for "
                            r"the doubles to resolve where a ball crosses it"),
])
def test_domain_spec_names_the_bad_parameter(spec, match):
    with pytest.raises(GeometryError, match=match):
        parse_domain_spec(spec)


@pytest.mark.parametrize("spec, offset", [
    ("rect w=2 h=1 cx={c}", 2.0 ** 26), ("ellipse a=2 b=1 cx={c} cy={c}", 2.0 ** 26),
    ("polygon {c},0 {c1},0 {c},1", 2.0 ** 26 - 0.5)])
def test_shapes_far_from_the_origin_keep_their_asymmetry_up_to_the_cut(spec, offset):
    # with its centre at 2^26 times its smallest extent from the origin the
    # shape is accepted and keeps its asymmetry; one double further it is
    # rejected, long before its points round together (the rectangle's at
    # 1e16)
    unit = fraenkel_asymmetry(parse_domain_spec(spec.format(c=0.0, c1=1.0)))
    far = fraenkel_asymmetry(parse_domain_spec(spec.format(c=repr(offset), c1=repr(offset + 1))))
    assert abs(far.value - unit.value) <= 1e-9 and far.error <= 1e-12
    beyond = math.nextafter(offset, math.inf)
    with pytest.raises(GeometryError, match="too far out"):
        parse_domain_spec(spec.format(c=repr(beyond), c1=repr(beyond + 1)))


@pytest.mark.parametrize("spec, area", [
    ("polygon 0,0 1,0 1,1e-8 0,1", 0.5),
    ("polygon 1e7,1e7 10000001,1e7 10000001,10000001 1e7,10000001 1e7,10000000.99", 1.0)])
def test_a_short_polygon_edge_is_no_offset(spec, area):
    # a polygon's offset is its bounding box's centre against the box's
    # extents, not its coordinates against its shortest edge: the edges of
    # 1e-8 and 0.01 are more than 2^26 times smaller than the coordinates 1
    # and 1e7
    assert parse_domain_spec(spec).measure == pytest.approx(area, rel=1e-7)


def test_a_polygon_far_from_the_origin_keeps_its_area_and_centroid():
    # the shoelace sums start from vertex 0: summed from the origin, this
    # heptagon's centroid at 1e6 was 8 off and its fan mesh had 57,793
    # nodes where 953 were due
    v = np.array([(-1.009, 0.4251), (-0.949, -0.4603), (-0.0763, -1.0736), (0.5474, -0.9483),
                  (1.0583, -0.1542), (0.725, 0.8098), (-0.1133, 1.0612)])
    near, far = (build_domain("polygon", vertices=v + shift) for shift in (0.0, 1e6))
    assert far.measure == pytest.approx(near.measure, rel=1e-9)
    assert np.allclose(far.center - 1e6, near.center, rtol=0.0, atol=1e-9)


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
    a, b = d.params[:2]
    in_d = (px / a) ** 2 + (py / b) ** 2 <= 1.0
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
    # a shape is rejected for its size or keeps its unit-size asymmetry
    shapes = (lambda s: build_domain("ellipse", a=2.0 ** 0.5 * s, b=s / 2.0 ** 0.5),
              lambda s: build_domain("rect", w=2.0 * s, h=s),
              lambda s: build_domain("polygon", vertices=[(0.0, 0.0), (s, 0.0), (0.0, s)]),
              lambda s: build_domain("disc", r=s))
    accepted = set()
    for shape in shapes:
        unit = fraenkel_asymmetry(shape(1.0)).value
        for lam in [0.5, 2.0] + [10.0 ** k for k in range(-320, 301, 10)]:
            try:
                a = fraenkel_asymmetry(shape(lam))
            except GeometryError:
                continue
            assert abs(a.value - unit) <= 1e-12 and a.error <= 1e-12, (lam, a)
            accepted.add(lam)
    assert accepted >= {0.5, 2.0} | {10.0 ** k for k in range(-60, 61, 10)}


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
            assert _ball_overlap(*_oriented_boundary(d), x, r)[0] == pytest.approx(exact, abs=1e-13)


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
        exact = 2.0 * (d.measure - _ball_overlap(*_oriented_boundary(d), x, r)[0])
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


def _strip_alpha(half, R, area):
    """The asymmetry of a shape whose equal-measure ball at its centre meets
    it in the strip |y| <= half of the ball."""
    return 2.0 - 4.0 * (half * math.sqrt(R * R - half * half) + R * R * math.asin(half / R)) / area


def _ellipse_alpha_by_quad(a, b):
    """The asymmetry of the ellipse against its concentric equal-measure ball,
    r^2 = ab, from the polar area 1/2 integral min(rho(theta)^2, ab) over a
    quadrant; the ball is inside up to theta_c = atan (b/a)^(1/2)."""
    from scipy.integrate import quad
    theta_c = math.atan(math.sqrt(b / a))
    outer, _ = quad(lambda t: (a * b) ** 2 / ((b * math.cos(t)) ** 2 + (a * math.sin(t)) ** 2),
                    theta_c, 0.5 * math.pi, epsabs=1e-15 * a * b, epsrel=1e-14, limit=200)
    return 2.0 - 4.0 * (a * b * theta_c + outer) / (math.pi * a * b)


def _thin_triangle_alpha(h):
    """The asymmetry of the triangle (-1/2, -h/2), (1/2, -h/2), (0, h/2) for
    h far below its equal-measure radius r: 2 |U minus B| / |U| as an
    integral over the height y = h eta of the triangle's half-width
    (1/2 - eta) / 2 beyond the ball's, minimized over the centre (0, h eta0)
    on the axis of symmetry."""
    from scipy.integrate import quad
    from scipy.optimize import brentq, minimize_scalar
    r = math.sqrt(h / (2.0 * math.pi))

    def alpha(eta0):
        def beyond(eta):
            return (0.5 - eta) / 2.0 - math.sqrt(r * r - (h * (eta - eta0)) ** 2)
        top = brentq(beyond, -0.5, 0.5, xtol=1e-300, rtol=1e-15)
        return 8.0 * quad(beyond, -0.5, top, epsabs=1e-17, epsrel=1e-13, limit=200)[0]

    best = minimize_scalar(alpha, bounds=(-0.5, 0.5), method="bounded",
                           options=dict(xatol=1e-10))
    return min(best.fun, alpha(0.0))


def _thin_triangle(h):
    return build_domain("polygon", vertices=[(-0.5, -h / 2.0), (0.5, -h / 2.0), (0.0, h / 2.0)])


def test_long_and_thin_shapes_keep_their_asymmetry():
    # a ball much shorter than the shape, against closed forms and quad
    rect = fraenkel_asymmetry(parse_domain_spec("rect w=1000 h=0.001"))
    R = math.sqrt(1.0 / math.pi)
    assert abs(rect.value - _strip_alpha(0.0005, R, 1.0)) <= 1e-13
    ellipse = fraenkel_asymmetry(parse_domain_spec("ellipse a=1000 b=0.001"))
    reference = _ellipse_alpha_by_quad(1000.0, 0.001)
    assert reference == pytest.approx(1.9974535217593554, abs=1e-14)
    assert abs(ellipse.value - reference) <= 1e-12
    for h in (1e-8, 1e-12):
        assert abs(fraenkel_asymmetry(_thin_triangle(h)).value - _thin_triangle_alpha(h)) <= 1e-12


def test_thin_shapes_match_their_references_or_are_rejected():
    # the segments are taken in their lines' coordinates and stay exact at
    # every aspect; an ellipse's crossings are resolved down to b/a = 2^-52,
    # and a thinner one is rejected
    accepted = set()
    for k in range(2, 41):
        aspect = 10.0 ** k
        w, h = math.sqrt(aspect), 1.0 / math.sqrt(aspect)
        rect, stadium = build_domain("rect", w=w, h=h), build_domain("stadium", l=w, r=h)
        cases = [(rect, _strip_alpha(h / 2.0, equal_measure_radius(w * h), rect.measure)),
                 (stadium, _strip_alpha(h, equal_measure_radius(stadium.measure),
                                        stadium.measure))]
        try:
            ellipse = build_domain("ellipse", a=w, b=h)
        except GeometryError as e:
            assert "below 2^-52" in str(e) and aspect > 2.0 ** 52
        else:
            a, b = ellipse.params[:2]
            cases.append((ellipse, 2.0 - 8.0 / math.pi * math.atan(math.sqrt(b / a))))
            accepted.add(k)
        for d, reference in cases:
            res = fraenkel_asymmetry(d)
            assert abs(res.value - reference) <= res.error + 1e-12, (d, res, reference)
    assert accepted == set(range(2, 16))
    for k in range(4, 21):
        res = fraenkel_asymmetry(_thin_triangle(10.0 ** -k))
        assert abs(res.value - _thin_triangle_alpha(10.0 ** -k)) <= res.error + 1e-12, (k, res)


THIN_SHAPES = ("rect w=1000 h=0.001", "ellipse a=1000 b=0.001", "stadium l=1000 r=0.001",
               "polygon -0.5,-5e-9 0.5,-5e-9 0,5e-9")

# centres where the equal-measure circle crosses an ellipse twice close together (2.5e-4
# apart in the arc's parameter on the a=2 ellipse), or a thin ellipse near its tip
CLOSE_CROSSINGS = {"ellipse a=2 b=0.5": [(-1.34043498, -0.67024136)],
                   ASYMMETRY_SHAPES[-1]: [(0.31616519, 0.258147)],
                   "ellipse a=1000 b=0.001": [(997.6209290257059, 0.052014331288833926)]}


@pytest.mark.parametrize("spec", ASYMMETRY_SHAPES + THIN_SHAPES + (
    "disc r=1.3 cx=0.2 cy=-0.4", "polygon 0,0 2,0 2,1 1,1 1,2 0,2",
    "polygon 0,0 3,0 3,2 2,2 2,1 1,1 1,2 0,2", "ellipse a=2 b=0.5"))
def test_ball_overlap_matches_the_slice_oracle(spec):
    # seeded centres in the bounding box grown by r: inside, near and outside
    # the shape, along all of a long one; one far outside; on a long ellipse,
    # more within a few r of each tip; and the close crossings above
    d = parse_domain_spec(spec)
    r = equal_measure_radius(d.measure)
    x0, x1, y0, y1 = d.bounding_box()
    rng = np.random.default_rng(sum(map(ord, spec)))
    centres = list(rng.uniform([x0 - r, y0 - r], [x1 + r, y1 + r], size=(12, 2)))
    if d.kind == "ellipse" and x1 - x0 > 100.0 * r:
        # within 3r inside each tip: beyond one, the oracle's quad warns of roundoff
        for tip, inward in ((x0, 1.0), (x1, -1.0)):
            step = rng.uniform([0.0, -r], [3.0 * r, r], size=(6, 2))
            centres += list(np.array([tip, 0.0]) + step * [inward, 1.0])
    centres += [np.array([x1 + 2.0 * r, y0])]
    centres += [np.array(x) for x in CLOSE_CROSSINGS.get(spec, [])]
    for x in centres:
        overlap, _ = _ball_overlap(*_oriented_boundary(d), x, r)
        assert abs(overlap - slice_overlap(d, x, r)) <= 1e-13 * math.pi * r * r, x
    if spec == "ellipse a=2 b=0.5":
        # a 40-digit slice integral cut at the four crossings (r = 1 exactly)
        overlap, _ = _ball_overlap(*_oriented_boundary(d), CLOSE_CROSSINGS[spec][0], r)
        assert abs(overlap - 0.89628075289490002) <= 1e-15


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


L_SHAPE = "polygon 0,0 2,0 2,1 1,1 1,2 0,2"


def test_asymmetry_evaluation_budget():
    # a deterministic guard on the search cost in place of a timing test: at
    # most 10 overlap integrals per seed (9 measured, on the heptagon)
    for spec in ASYMMETRY_SHAPES + (L_SHAPE,):
        seeds = 9 if spec == L_SHAPE else 1
        res = fraenkel_asymmetry(parse_domain_spec(spec))
        assert 0 < res.evaluations <= 10 * seeds


@pytest.mark.parametrize("spec", ["disc r=1.3 cy=0.2", "disc r=0.3 cx=2 cy=1"])
def test_disc_search_stops_at_the_rounding_floor(spec, monkeypatch):
    # at the exact centre the value is rounding noise about 0 and so is the
    # gradient; without the floor every step fails all its halvings
    d = parse_domain_spec(spec)
    res = fraenkel_asymmetry(d)
    monkeypatch.setattr(domains, "_SEARCH_FLOOR", -math.inf)
    unfloored = fraenkel_asymmetry(d)
    assert res.evaluations == 1 < unfloored.evaluations
    assert (res.value, res.center, res.error) == \
        (unfloored.value, unfloored.center, unfloored.error)


@pytest.mark.parametrize("spec", ASYMMETRY_SHAPES[:4] + (L_SHAPE,))
def test_overlap_gradient_matches_central_differences(spec):
    # generic centres at the search radius, a ball that contains the domain,
    # a disjoint one, and circles tangent to a segment from inside
    d = parse_domain_spec(spec)
    boundary = _oriented_boundary(d)
    r = equal_measure_radius(d.measure)
    far = 3.0 * d.diameter()
    cases = [(d.center + off, r) for off in ((0.0, 0.0), (0.13, -0.07), (0.3, 0.2))]
    cases += [(d.center, far), (d.center + (far, 0.0), r)]
    tangent = []
    for a, b in boundary[0]:
        inward = np.array([a[1] - b[1], b[0] - a[0]]) / math.dist(a, b)
        tangent.append((0.5 * (a + b) + r * inward, r))
    for k, (x, radius) in enumerate(cases + tangent):
        # the overlap grows like (distance)^(3/2) off a tangency, so there the
        # central difference is only O(step^(1/2)) accurate
        step, tol = (1e-6, 1e-8) if k < len(cases) else (1e-9, 1e-4)
        _, grad = _ball_overlap(*boundary, x, radius)
        fd = [(_ball_overlap(*boundary, x + e, radius)[0]
               - _ball_overlap(*boundary, x - e, radius)[0]) / (2.0 * step)
              for e in np.eye(2) * step]
        assert grad == pytest.approx(fd, abs=tol)
    assert bool(tangent) == (spec != ASYMMETRY_SHAPES[0])  # all but the ellipse have segments


@pytest.mark.parametrize("spec", ASYMMETRY_SHAPES + (L_SHAPE, "disc r=1", "rect w=1 h=1"))
def test_asymmetry_search_is_no_worse_than_nelder_mead(spec):
    # the quasi-Newton search against the simplex search it replaced, from
    # the same seeds
    d = parse_domain_spec(spec)
    seeds = [d.center]
    if spec == L_SHAPE:
        seeds = _asymmetry_seeds(d.bounding_box(), d.center)
    res = fraenkel_asymmetry(d)
    value, evaluations = nelder_mead_asymmetry(*_oriented_boundary(d), d.measure, seeds)
    assert res.value <= value + 1e-12
    assert res.evaluations < evaluations


def test_isoperimetric_on_random_convex_polygons():
    from scipy.spatial import ConvexHull
    rng = np.random.default_rng(42)
    for _ in range(100):
        pts = rng.normal(size=(12, 2)) * rng.uniform(0.5, 2.0)
        hull = ConvexHull(pts)
        d = build_domain("polygon", vertices=pts[hull.vertices])
        assert d.perimeter >= 2.0 * math.sqrt(math.pi * d.measure)
        assert isoperimetric_deficit(d) >= 0.0
