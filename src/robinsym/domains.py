"""Planar domains: exact measure/perimeter and Fraenkel asymmetry.

Shapes are parametric (disc, ellipse, rectangle, stadium) or simple polygons;
each boundary is a chain of segments and elliptic arcs (`boundary_pieces`).
The Fraenkel asymmetry comes from the area of the intersection with a ball,
a boundary integral taken in closed form piece by piece, and its exact
gradient in the center (`_ball_overlap`), minimized over the center by a
quasi-Newton search (`_asymmetry_search`).  Both take oriented segments and
arcs, not a Domain, so the tests' oracle for the superlevel sets of a P1
field (`tests/proof_oracle.py`) searches them as the shapes are searched.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

TWO_PI = 2.0 * math.pi


class GeometryError(ValueError):
    """Invalid geometric input."""


# the parameters each shape takes, in Domain.params order
_SHAPE_PARAMS = {"disc": ("r",), "ellipse": ("a", "b"), "rect": ("w", "h"),
                 "stadium": ("l", "r"), "polygon": ("vertices",)}


def _finite(name: str, value) -> float:
    """float(value), or GeometryError naming `name` if that is not finite."""
    try:
        x = float(value)
    except (TypeError, ValueError):
        x = math.nan
    if not math.isfinite(x):
        raise GeometryError(f"{name} must be a finite number, got {value!r}")
    return x


def _polygon_signed_area(v):
    """The shoelace area, from vertex 0 so that no product grows with the
    polygon's distance from the origin."""
    x, y = (v - v[0]).T
    return 0.5 * float(np.sum(x * np.roll(y, -1) - np.roll(x, -1) * y))


def _orient(a, b, c):
    """Twice the signed area of the triangles (a, b, c), broadcast over rows."""
    return ((b[..., 0] - a[..., 0]) * (c[..., 1] - a[..., 1])
            - (b[..., 1] - a[..., 1]) * (c[..., 0] - a[..., 0]))


def _polygon_is_simple(v):
    """True when no two edges of the closed chain v meet but adjacent ones at
    their shared vertex (O(E^2)): no proper crossing and no vertex on an edge
    other than its own two, which also rules out two adjacent edges folding
    back onto each other."""
    m = len(v)
    w = np.roll(v, -1, axis=0)  # edge i runs from v[i] to w[i]
    for i in range(m):
        side = _orient(v[i], w[i], v)
        touch = (side == 0) & (((v - v[i]) * (v - w[i])).sum(axis=1) <= 0)
        touch[[i, (i + 1) % m]] = False
        j = np.arange(i + 2, m - (i == 0))  # the later edges not adjacent to i
        cross = ((side[j] * side[(j + 1) % m] < 0)
                 & (_orient(v[j], w[j], v[i]) * _orient(v[j], w[j], w[i]) < 0))
        if touch.any() or cross.any():
            return False
    return True


def _polygon_is_convex(v):
    """True when every corner turns the same way, straight ones (|cross| <
    1e-14) aside."""
    cr = _orient(v, np.roll(v, -1, axis=0), np.roll(v, -2, axis=0))
    cr = cr[np.abs(cr) >= 1e-14]
    return bool(np.all(cr > 0) or np.all(cr < 0))


def _polygon_centroid(v):
    """The area centroid, from vertex 0 as `_polygon_signed_area` is."""
    x, y = (v - v[0]).T
    xn, yn = np.roll(x, -1), np.roll(y, -1)
    cross = x * yn - xn * y
    a = 0.5 * np.sum(cross)
    cx = np.sum((x + xn) * cross) / (6.0 * a)
    cy = np.sum((y + yn) * cross) / (6.0 * a)
    return v[0] + np.array([cx, cy])


# ---------------------------------------------------------------------------
# Domain


@dataclass(frozen=True)
class Domain:
    """Planar shape with exact measure and perimeter.

    kind is one of disc / ellipse / rect / stadium / polygon; params hold the
    shape parameters and (cx, cy) offset; polygon vertices are stored
    counterclockwise.
    """

    kind: str
    params: tuple
    measure: float
    perimeter: float
    _vertices: tuple = ()

    @property
    def vertices(self):
        return np.asarray(self._vertices, dtype=float).reshape(-1, 2)

    @property
    def center(self):
        if self.kind == "polygon":
            return _polygon_centroid(self.vertices)
        return np.array(self.params[-2:])

    def bounding_box(self):
        if self.kind == "disc":
            r, cx, cy = self.params
            return (cx - r, cx + r, cy - r, cy + r)
        if self.kind == "ellipse":
            a, b, cx, cy = self.params
            return (cx - a, cx + a, cy - b, cy + b)
        if self.kind == "rect":
            w, h, cx, cy = self.params
            return (cx - w / 2, cx + w / 2, cy - h / 2, cy + h / 2)
        if self.kind == "stadium":
            l, r, cx, cy = self.params
            return (cx - l / 2 - r, cx + l / 2 + r, cy - r, cy + r)
        v = self.vertices
        return (v[:, 0].min(), v[:, 0].max(), v[:, 1].min(), v[:, 1].max())

    def diameter(self) -> float:
        x0, x1, y0, y1 = self.bounding_box()
        return math.hypot(x1 - x0, y1 - y0)

    # -- boundary parametrization (mesh refinement and the asymmetry) --------

    def boundary_pieces(self):
        """The counterclockwise boundary, one piece per boundary curve.

        A piece is ("segment", a, b), the point a + t (b - a) for t in [0, 1],
        or ("arc", (cx, cy), (A, B), (s0, s1)), the point
        (cx + A cos s, cy + B sin s) for s in [s0, s1].
        """
        if self.kind in ("disc", "ellipse"):
            *axes, cx, cy = self.params
            return [("arc", (cx, cy), (axes[0], axes[-1]), (0.0, TWO_PI))]
        if self.kind == "rect":
            w, h, cx, cy = self.params
            corners = [(cx - w / 2, cy - h / 2), (cx + w / 2, cy - h / 2),
                       (cx + w / 2, cy + h / 2), (cx - w / 2, cy + h / 2)]
            return [("segment", np.array(corners[i]), np.array(corners[(i + 1) % 4]))
                    for i in range(4)]
        if self.kind == "stadium":
            l, r, cx, cy = self.params
            half_pi = 0.5 * math.pi
            return [("segment", np.array([cx - l / 2, cy - r]), np.array([cx + l / 2, cy - r])),
                    ("arc", (cx + l / 2, cy), (r, r), (-half_pi, half_pi)),
                    ("segment", np.array([cx + l / 2, cy + r]), np.array([cx - l / 2, cy + r])),
                    ("arc", (cx - l / 2, cy), (r, r), (half_pi, 3.0 * half_pi))]
        v = self.vertices
        return [("segment", v[i], v[(i + 1) % len(v)]) for i in range(len(v))]


def piece_point(piece, t):
    """The point of a `Domain.boundary_pieces` piece at parameter t."""
    if piece[0] == "segment":
        _, a, b = piece
        return a + np.multiply.outer(t, b - a)
    _, (cx, cy), (A, B), _ = piece
    return np.stack([cx + A * np.cos(t), cy + B * np.sin(t)], axis=-1)


# ---------------------------------------------------------------------------
# construction


def _ellipse_perimeter(a: float, b: float) -> float:
    """Gauss-Kummer form of the perimeter through the arithmetic-geometric
    mean: P = 2 pi (a^2 - sum_n 2^(n-1) c_n^2) / AGM(a, b), with c_0^2 =
    a^2 - b^2 and c_(n+1) = (a_n - b_n) / 2 (Abramowitz-Stegun 17.6.3-4).
    The n = 0 term is folded in, (a^2 + b^2) / 2, so nothing cancels there."""
    total, weight = 0.5 * (a * a + b * b), 1.0
    while True:
        c = 0.5 * (a - b)
        a, b = 0.5 * (a + b), math.sqrt(a * b)
        total -= weight * c * c
        weight *= 2.0
        if c <= 1e-15 * a:
            return TWO_PI * total / a


# Sizes are held decades inside where the doubles give out: below about 1e-165 a shape's
# measure underflows and its asymmetry divides by zero, above about 1e155 an ellipse's reads
# nan, and the products of three lengths in `_polygon_centroid` overflow near 1e103.
_MIN_LENGTH, _MAX_LENGTH = 1e-70, 1e70
# A centre more than 2^26 times the shape's smallest extent from the origin leaves fewer than
# 2^26 doubles across that extent: `rect w=2 h=1 cx=1e17` rounded its corners together and
# read asymmetry 2 with error 0 (0.5159 at cx = 0).  Below the cut, meshes and searches
# resolve the shape to 1.5e-8 of that extent or finer.
_MAX_OFFSET = 2.0 ** 26
# An ellipse's equal-measure ball crosses it within (b/a)^(1/2) of s = +-pi/2, where doubles
# are 2^-52 apart, so below b/a = 2^-52 fewer than 2^26 of them resolve the crossings: past
# that, b/a = 1e-24 read the asymmetry 7e-10 off, and 1e-32 read 0 for 2.
_MIN_AXIS_RATIO = 2.0 ** -52


def _check_size(name: str, lengths, coordinates) -> None:
    """GeometryError unless each length and |coordinate| fits the window above."""
    if min(lengths) < _MIN_LENGTH or max(map(abs, [*lengths, *coordinates])) > _MAX_LENGTH:
        raise GeometryError(f"{name} must lie in [{_MIN_LENGTH:g}, {_MAX_LENGTH:g}] and its "
                            f"coordinates within +-{_MAX_LENGTH:g}")


def _check_offset(name: str, extents, centre) -> None:
    """GeometryError if a coordinate of centre exceeds _MAX_OFFSET times the
    smallest extent."""
    far = max(map(abs, centre))
    if far > _MAX_OFFSET * min(extents):
        raise GeometryError(f"{name}: a centre coordinate of {far:g} is more than 2^26 times "
                            f"the smallest extent {min(extents):g}, too far out for the doubles "
                            f"there to resolve the shape")


def build_domain(kind: str, **kw) -> Domain:
    """Build a validated Domain from shape parameters.

    Accepted forms: disc(r), ellipse(a, b), rect(w, h), stadium(l, r),
    polygon(vertices=[(x, y), ...]); all shapes but polygon take optional
    cx, cy offsets.
    """
    kind = kind.lower()
    if kind not in _SHAPE_PARAMS:
        raise GeometryError(f"unknown shape kind {kind!r}")
    names = _SHAPE_PARAMS[kind]
    offsets = () if kind == "polygon" else ("cx", "cy")
    for name in kw:
        if name not in names + offsets:
            raise GeometryError(f"unknown {kind} parameter {name!r}; it takes "
                                f"{', '.join(names + offsets)}")
    for name in names:
        if name not in kw:
            raise GeometryError(f"{kind} needs parameter {name!r}")
    if kind != "polygon":
        kw = {name: _finite(f"{kind} parameter {name!r}", kw.get(name, 0.0))
              for name in names + offsets}
        cx, cy = kw["cx"], kw["cy"]
        _check_size(f"{kind} {', '.join(names)}", [kw[n] for n in names], [cx, cy])
        _check_offset(f"{kind} {', '.join(names)}", [kw[n] for n in names], [cx, cy])
    if kind == "disc":
        r = kw["r"]
        dom = Domain("disc", (r, cx, cy), math.pi * r * r, TWO_PI * r)
    elif kind == "ellipse":
        a, b = kw["a"], kw["b"]
        if a < b:
            a, b = b, a
        if b < _MIN_AXIS_RATIO * a:
            raise GeometryError(f"ellipse a, b: the axis ratio {b / a:g} is below 2^-52, too "
                                f"thin for the doubles to resolve where a ball crosses it")
        dom = Domain("ellipse", (a, b, cx, cy), math.pi * a * b, _ellipse_perimeter(a, b))
    elif kind == "rect":
        w, h = kw["w"], kw["h"]
        dom = Domain("rect", (w, h, cx, cy), w * h, 2.0 * (w + h))
    elif kind == "stadium":
        l, r = kw["l"], kw["r"]
        dom = Domain("stadium", (l, r, cx, cy), 2.0 * r * l + math.pi * r * r,
                     2.0 * l + TWO_PI * r)
    else:
        v = np.array([[_finite(f"coordinate of polygon vertex {i}", c) for c in p]
                      for i, p in enumerate(kw["vertices"], start=1)]).reshape(-1, 2)
        if len(v) < 3:
            raise GeometryError("polygon needs at least 3 vertices")
        if np.any(np.all(np.roll(v, -1, axis=0) == v, axis=1)):
            raise GeometryError("polygon has a zero-length edge (a repeated vertex)")
        _check_size("polygon edges", np.hypot(*(np.roll(v, -1, axis=0) - v).T), v.ravel())
        lo, hi = v.min(axis=0), v.max(axis=0)
        _check_offset("polygon", hi - lo, (lo + hi) / 2.0)
        if not _polygon_is_simple(v):
            raise GeometryError("polygon is self-intersecting or touches itself")
        area = _polygon_signed_area(v)
        if area < 0:  # auto-correct clockwise input
            v = v[::-1].copy()
            area = -area
        if area <= 0:
            raise GeometryError("degenerate polygon")
        per = float(np.sum(np.hypot(*(np.roll(v, -1, axis=0) - v).T)))
        dom = Domain("polygon", (), area, per, tuple(v.ravel()))
    # sanity: the isoperimetric inequality must hold for any genuine shape
    if dom.perimeter < 2.0 * math.sqrt(math.pi * dom.measure) * (1.0 - 1e-12):
        raise GeometryError("shape violates the isoperimetric inequality; bad parameters?")
    return dom


def parse_domain_spec(text: str) -> Domain:
    """Parse the mini-language: 'disc r=1', 'polygon 0,0 1,0 1,1', etc."""
    parts = text.strip().split()
    if not parts:
        raise GeometryError("empty domain spec")
    kind = parts[0].lower()
    if kind == "polygon":
        pts = []
        for tok in parts[1:]:
            xy = tok.split(",")
            if len(xy) != 2:
                raise GeometryError(f"bad polygon vertex {tok!r}")
            pts.append(xy)
        return build_domain("polygon", vertices=pts)
    kw = {}
    for tok in parts[1:]:
        if "=" not in tok:
            raise GeometryError(f"bad parameter {tok!r} in domain spec")
        k, v = tok.split("=", 1)
        if k in kw:
            raise GeometryError(f"repeated parameter {k!r} in domain spec")
        kw[k] = v
    return build_domain(kind, **kw)


def domain_spec_string(d: Domain) -> str:
    if d.kind == "polygon":
        return "polygon " + " ".join(f"{x:.17g},{y:.17g}" for x, y in d.vertices)
    items = [f"{n}={p:.17g}" for n, p in zip(_SHAPE_PARAMS[d.kind], d.params)]
    cx, cy = d.params[-2:]
    if cx != 0.0 or cy != 0.0:
        items += [f"cx={cx:.17g}", f"cy={cy:.17g}"]
    return d.kind + " " + " ".join(items)


def equal_measure_radius(measure: float) -> float:
    """Radius (|Omega| / pi)^(1/2) of the disc with the given measure."""
    return (measure / math.pi) ** 0.5


@dataclass(frozen=True)
class AsymmetryResult:
    value: float
    center: tuple
    radius: float
    error: float
    evaluations: int = 0


def _asymmetry_seeds(bbox, center):
    x0, x1, y0, y1 = bbox
    w6, h6 = (x1 - x0) / 6.0, (y1 - y0) / 6.0
    offs = [(0.0, 0.0), (w6, 0.0), (-w6, 0.0), (0.0, h6), (0.0, -h6),
            (w6, h6), (w6, -h6), (-w6, h6), (-w6, -h6)]
    return [np.array([center[0] + dx, center[1] + dy]) for dx, dy in offs]


def _oriented_boundary(domain: Domain):
    """(segments, arcs) of the counterclockwise boundary: the segments as an
    (S, 2, 2) array of start and end points, the arcs as in `boundary_pieces`."""
    pieces = domain.boundary_pieces()
    segments = np.array([p[1:] for p in pieces if p[0] == "segment"]).reshape(-1, 2, 2)
    return segments, [p[1:] for p in pieces if p[0] == "arc"]


def _ball_overlap(segments, arcs, x, r):
    """(|U cap B_r(x)|, its gradient in x) for the set U bounded by oriented
    `segments` and `arcs`, U on the left.

    The area is 1/2 closed integral of min(|p - x|, r)^2 dtheta_x(p): the
    divergence theorem for F(q) = min(|q - x|, r)^2 (q - x) / (2 |q - x|^2),
    whose divergence is the indicator of B_r(x); it holds for any center and
    any boundary traversed with U on its left, in any order of its pieces.
    Cut where they cross the circle, the pieces integrate in closed form:
    inside the ball to 1/2 (p - x) x dp, outside to r^2 / 2 times the angle
    swept about x.  A segment is taken in its line's coordinates, where it
    crosses the circle at s = +-(r^2 - d^2)^(1/2), d the signed distance of
    x from the line, however much shorter than the segment the ball is.
    Segments must have positive length.

    An arc p(s) = c + (A cos s, B sin s) crosses the circle where g(s) =
    |p(s) - x|^2 - r^2 vanishes.  With z = e^(is) and o = c - x, z^2 g is the
    quartic q z^4 + (o_1 A - i o_2 B) z^3 + (|o|^2 - r^2 + (A^2 + B^2) / 2) z^2
    + (o_1 A + i o_2 B) z + q, q = (A^2 - B^2) / 4, so its four roots hold
    every crossing.  Their angles, as they come and after two Newton steps
    on g, cut the arc into panels beside its fixed quarter ends, and each
    panel is inside or outside as g is at its midpoint: an end that is no
    crossing only splits a panel.  The quarter ends keep each outside panel
    under a sweep of pi about x: a quarter of an ellipse bounds a cap at most
    (2^(1/2) - 1) min(A, B) thick, thinner than the equal-measure radius
    (AB)^(1/2) (a stadium's caps are cut into eighths).

    The gradient is minus the integral of the outward normal of U over the
    boundary inside the ball, that is the sum of the chords of the boundary
    pieces clipped to the ball, turned by +90 degrees.
    """
    x = np.asarray(x, dtype=float)
    r2 = r * r
    total = 0.0
    chords = np.zeros(2)
    if len(segments):
        a = segments[:, 0] - x
        e = segments[:, 1] - segments[:, 0]
        length = np.hypot(e[:, 0], e[:, 1])
        d = (a[:, 0] * e[:, 1] - a[:, 1] * e[:, 0]) / length
        s0 = np.einsum("ij,ij->i", a, e) / length
        s1 = s0 + length
        half_chord = np.sqrt(np.maximum((r - d) * (r + d), 0.0))
        lo, hi = np.clip(-half_chord, s0, s1), np.clip(half_chord, s0, s1)
        # the angle about x of the points s0, lo, hi, s1, continuous along the line
        angle = np.arctan2(np.sign(d) * np.stack([s0, lo, hi, s1]), np.abs(d))
        total += d @ (hi - lo) + r2 * np.sum(angle[1] - angle[0] + angle[3] - angle[2])
        chords += ((hi - lo) / length) @ e
    for (cx, cy), (A, B), (s0, s1) in arcs:
        ox, oy = cx - x[0], cy - x[1]

        def g(s):  # |p(s) - x|^2 - r^2 and its derivative
            c, sn = np.cos(s), np.sin(s)
            px, py = ox + A * c, oy + B * sn
            return px ** 2 + py ** 2 - r2, 2.0 * (py * B * c - px * A * sn)

        q = 0.25 * (A - B) * (A + B)
        raw = np.angle(np.roots([q, ox * A - 1j * oy * B,
                                 ox * ox + oy * oy - r2 + 0.5 * (A * A + B * B),
                                 ox * A + 1j * oy * B, q]))
        newton = raw
        with np.errstate(divide="ignore", invalid="ignore"):
            for _ in range(2):
                newton = newton - np.divide(*g(newton))
            # a nan (where g is flat) fails s < s1
            s = s0 + np.mod(np.concatenate([raw, newton]) - s0, TWO_PI)
        ends = np.sort(np.concatenate([np.linspace(s0, s1, 5), s[s < s1]]))
        inside = g(0.5 * (ends[:-1] + ends[1:]))[0] < 0.0
        c, sn = np.cos(ends), np.sin(ends)
        dc, ds = np.diff(c), np.diff(sn)
        px, py = ox + A * c, oy + B * sn
        sweep = np.arctan2(px[:-1] * py[1:] - py[:-1] * px[1:],
                           px[:-1] * px[1:] + py[:-1] * py[1:])
        total += np.sum(np.where(inside, A * B * np.diff(ends) + ox * B * ds - oy * A * dc,
                                 r2 * sweep))
        chords += [A * np.sum(dc[inside]), B * np.sum(ds[inside])]
    return 0.5 * total, np.array([-chords[1], chords[0]])


# quasi-Newton search: value tolerance on the predicted decrease, the floor
# of f, Armijo constant, and caps on the iterations and on the halvings of
# one step.  The asymmetry is >= 0 and its computed value carries a few ulps
# of rounding (at their centres `disc r=1.3 cy=0.2` and `disc r=0.3 cx=2
# cy=1` read 0, with a gradient of rounding noise), so a value at the floor
# is a minimum.
_SEARCH_FTOL = 1e-15
_SEARCH_FLOOR = 1e-14
_ARMIJO = 1e-4
_SEARCH_ITERATIONS = 100
_STEP_HALVINGS = 30


def _quasi_newton(fg, x, scale):
    """A local minimum of f near x by BFGS with the exact gradient and an
    Armijo backtracking line search (Nocedal and Wright, Numerical
    Optimization, 2006, Alg. 6.1); fg(x) returns (f, grad f).

    `scale` is a length: the first inverse Hessian guess is scale^2 I and no
    step is longer than scale.  The search stops when the decrease predicted
    by the quadratic model, g.H.g / 2, falls below _SEARCH_FTOL, when f is
    at most _SEARCH_FLOOR (f >= 0 here), or when no step along the search
    direction decreases f.  Returns x, f and the decrease g.H.g / 2 there.
    """
    f, g = fg(x)
    H = scale * scale * np.eye(2)
    scaled = False
    for _ in range(_SEARCH_ITERATIONS):
        p = -H @ g
        slope = float(g @ p)
        if f <= _SEARCH_FLOOR or not -slope > 2.0 * _SEARCH_FTOL:
            break
        p *= min(1.0, scale / math.hypot(*p))
        slope = float(g @ p)
        t = 1.0
        for _ in range(_STEP_HALVINGS):
            fn, gn = fg(x + t * p)
            if fn <= f + _ARMIJO * t * slope:
                break
            t *= 0.5
        else:
            break
        s, y = t * p, gn - g
        sy = float(s @ y)
        if sy > 0.0:
            if not scaled:  # Shanno-Phua scaling of the first guess (N-W 6.20)
                H, scaled = sy / float(y @ y) * np.eye(2), True
            v = np.eye(2) - np.outer(s, y) / sy
            H = v @ H @ v.T + np.outer(s, s) / sy
        x, f, g = x + s, fn, gn
    return x, f, 0.5 * float(g @ H @ g)


def _asymmetry_search(segments, arcs, area, seeds) -> AsymmetryResult:
    """min_x |U Delta B_r(x)| / |U| over centers, |B_r| = |U| = area, for the
    set U bounded by `segments` and `arcs` (see `_ball_overlap`).

    The objective is exact up to rounding: |U Delta B| = 2 (|U| - |U cap
    B|), and its gradient is exact.  One quasi-Newton run (`_quasi_newton`,
    steps up to r) starts from each seed and the best end point wins.
    `error` is the decrease its quadratic model still predicts there, at
    most the value since the asymmetry is >= 0.  `evaluations` counts the
    overlap integrals, each of which gives the value and the gradient.
    """
    # an empty segment (a level line through a node) bounds nothing
    segments = segments[np.any(segments[:, 0] != segments[:, 1], axis=1)]
    r = equal_measure_radius(area)
    evaluations = 0

    def objective(x):
        nonlocal evaluations
        evaluations += 1
        overlap, gradient = _ball_overlap(segments, arcs, x, r)
        return 2.0 * (1.0 - overlap / area), (-2.0 / area) * gradient

    ends = []
    for s in seeds:
        x, f, decrease = _quasi_newton(objective, np.asarray(s, dtype=float), r)
        ends.append((float(f), float(x[0]), float(x[1]), decrease))
    value, cx, cy, decrease = min(ends)
    value = max(value, 0.0)
    return AsymmetryResult(value, (cx, cy), r, min(decrease, value), evaluations)


def fraenkel_asymmetry(domain: Domain) -> AsymmetryResult:
    """min_x |Omega Delta B_r(x)| / |B_r| over centers, |B_r| = |Omega|.

    The overlap |Omega cap B| is a boundary integral (`_ball_overlap`) taken
    in closed form on the boundary's pieces, cut where they cross the
    circle.  For a convex domain the square root of the overlap is concave
    in the center on its support (Brunn-Minkowski), so one quasi-Newton run
    from the centroid finds the global minimum; a nonconvex polygon is
    searched from the centroid and 8 bounding-box offsets
    (`_asymmetry_search`).
    """
    seeds = [domain.center]
    if domain.kind == "polygon" and not _polygon_is_convex(domain.vertices):
        seeds = _asymmetry_seeds(domain.bounding_box(), domain.center)
    return _asymmetry_search(*_oriented_boundary(domain), domain.measure, seeds)


@functools.cache
def cached_asymmetry(domain: Domain) -> AsymmetryResult:
    """`fraenkel_asymmetry`, searched once per domain."""
    return fraenkel_asymmetry(domain)


def isoperimetric_deficit(domain: Domain):
    """P / (2 pi^(1/2) |Omega|^(1/2)) - 1, the scale-free deficit."""
    base = 2.0 * math.pi ** 0.5 * domain.measure ** 0.5
    return domain.perimeter / base - 1.0
