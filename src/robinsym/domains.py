"""Planar domains: exact measure/perimeter and Fraenkel asymmetry.

Shapes are parametric (disc, ellipse, rectangle, stadium) or simple polygons;
each boundary is a chain of segments and elliptic arcs (`boundary_pieces`).
The Fraenkel asymmetry comes from an exact boundary integral for the area of
the intersection with a ball (`_ball_overlap`), minimized over the center by
Nelder-Mead (`_asymmetry_search`).  Both take oriented segments and arcs, not
a Domain, so the superlevel sets of a P1 field (`levelset.superlevel_asymmetry`)
go through the same search as the shapes.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.integrate import quad
from scipy.optimize import minimize
from scipy.special import gamma as _gamma_fn

TWO_PI = 2.0 * math.pi


class GeometryError(ValueError):
    """Invalid geometric input."""



def unit_ball_measure(n: int) -> float:
    """Volume of the unit ball in R^n (pi for n=2)."""
    if n < 1:
        raise GeometryError("dimension must be >= 1")
    return math.pi ** (n / 2.0) / _gamma_fn(n / 2.0 + 1.0)



def _polygon_signed_area(v):
    x, y = v[:, 0], v[:, 1]
    return 0.5 * float(np.sum(x * np.roll(y, -1) - np.roll(x, -1) * y))


def _polygon_is_simple(v):
    """Reject self-intersecting polygons (O(E^2) proper-crossing test)."""
    m = len(v)

    def seg(i):
        return v[i], v[(i + 1) % m]

    def orient(a, b, c):
        return (b[0] - a[0]) * (c[1] - a[1]) - (b[1] - a[1]) * (c[0] - a[0])

    for i in range(m):
        a, b = seg(i)
        for j in range(i + 1, m):
            if j == i or (j + 1) % m == i or (i + 1) % m == j:
                continue
            c, d = seg(j)
            if orient(a, b, c) * orient(a, b, d) < 0 and orient(c, d, a) * orient(c, d, b) < 0:
                return False
    return True


def _polygon_is_convex(v):
    m = len(v)
    sign = 0
    for i in range(m):
        a, b, c = v[i], v[(i + 1) % m], v[(i + 2) % m]
        cr = (b[0] - a[0]) * (c[1] - a[1]) - (b[1] - a[1]) * (c[0] - a[0])
        if abs(cr) < 1e-14:
            continue
        s = 1 if cr > 0 else -1
        if sign == 0:
            sign = s
        elif s != sign:
            return False
    return True


def _polygon_contains(v, px, py):
    """Crossing-number point-in-polygon test, vectorized over points."""
    inside = np.zeros_like(px, dtype=bool)
    m = len(v)
    for i in range(m):
        xa, ya = v[i]
        xb, yb = v[(i + 1) % m]
        cond = (ya > py) != (yb > py)
        with np.errstate(divide="ignore", invalid="ignore"):
            xcut = xa + (py - ya) * (xb - xa) / (yb - ya)
        inside ^= cond & (px < xcut)
    return inside


def _polygon_centroid(v):
    x, y = v[:, 0], v[:, 1]
    xn, yn = np.roll(x, -1), np.roll(y, -1)
    cross = x * yn - xn * y
    a = 0.5 * np.sum(cross)
    cx = np.sum((x + xn) * cross) / (6.0 * a)
    cy = np.sum((y + yn) * cross) / (6.0 * a)
    return np.array([cx, cy])


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

    def key(self):
        return (self.kind, self.params, self._vertices)

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

    def contains(self, px, py):
        """Exact membership test, vectorized over point arrays."""
        px = np.asarray(px, dtype=float)
        py = np.asarray(py, dtype=float)
        if self.kind == "disc":
            r, cx, cy = self.params
            return (px - cx) ** 2 + (py - cy) ** 2 <= r * r
        if self.kind == "ellipse":
            a, b, cx, cy = self.params
            return ((px - cx) / a) ** 2 + ((py - cy) / b) ** 2 <= 1.0
        if self.kind == "rect":
            w, h, cx, cy = self.params
            return (np.abs(px - cx) <= w / 2) & (np.abs(py - cy) <= h / 2)
        if self.kind == "stadium":
            l, r, cx, cy = self.params
            x, y = px - cx, py - cy
            in_rect = (np.abs(x) <= l / 2) & (np.abs(y) <= r)
            in_caps = (np.abs(x) - l / 2) ** 2 + y ** 2 <= r * r
            return in_rect | (in_caps & (np.abs(x) > l / 2))
        return _polygon_contains(self.vertices, px, py)

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

    def boundary_curve_count(self) -> int:
        return len(self.boundary_pieces())

    def boundary_point(self, curve_id: int, t):
        """Point on boundary curve `curve_id` at parameter t."""
        t = np.asarray(t, dtype=float)
        kind, *piece = self.boundary_pieces()[curve_id]
        if kind == "segment":
            a, b = piece
            return a + np.multiply.outer(t, b - a)
        (cx, cy), (A, B), _ = piece
        return np.stack([cx + A * np.cos(t), cy + B * np.sin(t)], axis=-1)


# ---------------------------------------------------------------------------
# construction


def _ellipse_perimeter(a: float, b: float) -> float:
    val, _ = quad(lambda t: math.hypot(a * math.sin(t), b * math.cos(t)), 0.0, TWO_PI,
                  epsabs=1e-13, epsrel=1e-13, limit=200)
    return val


def build_domain(kind: str, **kw) -> Domain:
    """Build a validated Domain from shape parameters.

    Accepted forms: disc(r), ellipse(a, b), rect(w, h), stadium(l, r),
    polygon(vertices=[(x, y), ...]); all shapes but polygon take optional
    cx, cy offsets.
    """
    kind = kind.lower()
    cx = float(kw.get("cx", 0.0))
    cy = float(kw.get("cy", 0.0))
    if kind == "disc":
        r = float(kw["r"])
        if r <= 0:
            raise GeometryError("disc radius must be positive")
        dom = Domain("disc", (r, cx, cy), math.pi * r * r, TWO_PI * r)
    elif kind == "ellipse":
        a, b = float(kw["a"]), float(kw["b"])
        if a <= 0 or b <= 0:
            raise GeometryError("ellipse semi-axes must be positive")
        if a < b:
            a, b = b, a
        dom = Domain("ellipse", (a, b, cx, cy), math.pi * a * b, _ellipse_perimeter(a, b))
    elif kind == "rect":
        w, h = float(kw["w"]), float(kw["h"])
        if w <= 0 or h <= 0:
            raise GeometryError("rectangle sides must be positive")
        dom = Domain("rect", (w, h, cx, cy), w * h, 2.0 * (w + h))
    elif kind == "stadium":
        l, r = float(kw["l"]), float(kw["r"])
        if l <= 0 or r <= 0:
            raise GeometryError("stadium parameters must be positive")
        dom = Domain("stadium", (l, r, cx, cy), 2.0 * r * l + math.pi * r * r,
                     2.0 * l + TWO_PI * r)
    elif kind == "polygon":
        v = np.asarray(kw["vertices"], dtype=float).reshape(-1, 2)
        if len(v) < 3:
            raise GeometryError("polygon needs at least 3 vertices")
        if not _polygon_is_simple(v):
            raise GeometryError("polygon is self-intersecting")
        area = _polygon_signed_area(v)
        if area < 0:  # auto-correct clockwise input
            v = v[::-1].copy()
            area = -area
        if area <= 0:
            raise GeometryError("degenerate polygon")
        edges = np.hypot(*(np.roll(v, -1, axis=0) - v).T)
        if not np.all(edges > 0):
            raise GeometryError("polygon has a zero-length edge (a repeated vertex)")
        per = float(np.sum(edges))
        dom = Domain("polygon", (), area, per, tuple(v.ravel()))
    else:
        raise GeometryError(f"unknown shape kind {kind!r}")
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
            pts.append((float(xy[0]), float(xy[1])))
        return build_domain("polygon", vertices=pts)
    kw = {}
    for tok in parts[1:]:
        if "=" not in tok:
            raise GeometryError(f"bad parameter {tok!r} in domain spec")
        k, v = tok.split("=", 1)
        kw[k.strip()] = float(v)
    return build_domain(kind, **kw)


def domain_spec_string(d: Domain) -> str:
    if d.kind == "polygon":
        return "polygon " + " ".join(f"{x:.17g},{y:.17g}" for x, y in d.vertices)
    names = {"disc": ("r",), "ellipse": ("a", "b"), "rect": ("w", "h"), "stadium": ("l", "r")}[d.kind]
    items = [f"{n}={p:.17g}" for n, p in zip(names, d.params)]
    cx, cy = d.params[-2:]
    if cx != 0.0 or cy != 0.0:
        items += [f"cx={cx:.17g}", f"cy={cy:.17g}"]
    return d.kind + " " + " ".join(items)


def equal_measure_radius(measure: float, n: int = 2) -> float:
    """Radius of the ball with the given measure (exact: sqrt(|Omega|/pi) in 2d)."""
    return (measure / unit_ball_measure(n)) ** (1.0 / n)


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


_GAUSS = np.polynomial.legendre.leggauss(16)
ARC_SAMPLES = 33


def _gauss_rule(lo, hi, halve=False):
    """Gauss-Legendre nodes and weights on the panels [lo, hi] (last axis);
    with halve, on both halves of every panel."""
    if halve:
        mid = 0.5 * (lo + hi)
        lo, hi = np.concatenate([lo, mid], axis=-1), np.concatenate([mid, hi], axis=-1)
    xi, w = _GAUSS
    half = 0.5 * (hi - lo)[..., None]
    return lo[..., None] + half * (xi + 1.0), half * w


def _arc_panel_ends(g, dg, s0, s1):
    """Panel ends on [s0, s1]: every 8th of ARC_SAMPLES samples, plus the roots
    of g, found as sign changes between samples and refined by Newton
    safeguarded with the bracket.

    The fixed ends keep panels at a quarter of a full arc: one 16-point panel
    over a whole ellipse integrates a distant ball to only about 1e-7.
    """
    s = np.linspace(s0, s1, ARC_SAMPLES)
    inside = g(s) < 0.0
    k = np.nonzero(inside[:-1] != inside[1:])[0]
    lo, hi, lo_inside = s[k], s[k + 1], inside[k]
    t = 0.5 * (lo + hi)
    for _ in range(64):
        gt = g(t)
        below = (gt < 0.0) == lo_inside
        lo, hi = np.where(below, t, lo), np.where(below, hi, t)
        with np.errstate(divide="ignore", invalid="ignore"):
            step = t - gt / dg(t)
        # a converged step lands on the bracket end just moved to t: a strict
        # test would throw it away for the midpoint
        step = np.where((lo <= step) & (step <= hi), step, 0.5 * (lo + hi))
        done = np.all(np.abs(step - t) <= 1e-15 * (1.0 + np.abs(t)))
        t = step
        if done:
            break
    return np.sort(np.concatenate([s[::8], t]))


def _oriented_boundary(domain: Domain):
    """(segments, arcs) of the counterclockwise boundary: the segments as an
    (S, 2, 2) array of start and end points, the arcs as in `boundary_pieces`."""
    pieces = domain.boundary_pieces()
    segments = np.array([p[1:] for p in pieces if p[0] == "segment"]).reshape(-1, 2, 2)
    return segments, [p[1:] for p in pieces if p[0] == "arc"]


def _ball_overlap(segments, arcs, x, r, halve=False):
    """|U cap B_r(x)| = 1/2 closed integral of min(|p - x|, r)^2 dtheta_x(p)
    for the set U bounded by oriented `segments` and `arcs`, U on the left.

    This is the divergence theorem for F(q) = min(|q - x|, r)^2 (q - x) /
    (2 |q - x|^2), whose divergence is the indicator of B_r(x); it holds for
    any center and any boundary traversed with U on its left, in any order
    of its pieces.  The integrand is smooth except where |p - x| = r, so the
    Gauss panels of every piece are split there.  Segments must have
    positive length.
    """
    x = np.asarray(x, dtype=float)
    r2 = r * r
    total = 0.0
    if len(segments):
        a = segments[:, 0] - x
        e = segments[:, 1] - segments[:, 0]
        qa = np.einsum("ij,ij->i", e, e)
        qb = np.einsum("ij,ij->i", a, e)
        qc = np.einsum("ij,ij->i", a, a) - r2
        root = np.sqrt(np.maximum(qb * qb - qa * qc, 0.0))
        # panels [0, t-], [t-, t+], [t+, 1] end at the crossings clipped to
        # the segment, so a segment that crosses fewer times has empty ones
        cut = np.clip((-qb[:, None] + root[:, None] * [-1.0, 1.0]) / qa[:, None], 0.0, 1.0)
        ends = np.column_stack([np.zeros(len(a)), cut, np.ones(len(a))])
        t, w = _gauss_rule(ends[:, :-1], ends[:, 1:], halve)
        px = a[:, 0, None, None] + t * e[:, 0, None, None]
        py = a[:, 1, None, None] + t * e[:, 1, None, None]
        cross = (a[:, 0] * e[:, 1] - a[:, 1] * e[:, 0])[:, None, None]
        total += np.sum(w * cross * r2 / np.maximum(px * px + py * py, r2))
    for (cx, cy), (A, B), (s0, s1) in arcs:
        ox, oy = cx - x[0], cy - x[1]

        def g(s):
            return (ox + A * np.cos(s)) ** 2 + (oy + B * np.sin(s)) ** 2 - r2

        def dg(s):
            c, sn = np.cos(s), np.sin(s)
            return 2.0 * ((oy + B * sn) * B * c - (ox + A * c) * A * sn)

        ends = _arc_panel_ends(g, dg, s0, s1)
        s, w = _gauss_rule(ends[:-1], ends[1:], halve)
        c, sn = np.cos(s), np.sin(s)
        px, py = ox + A * c, oy + B * sn
        total += np.sum(w * (px * B * c + py * A * sn) * r2 / np.maximum(px * px + py * py, r2))
    return 0.5 * total


def _asymmetry_search(segments, arcs, area, seeds) -> AsymmetryResult:
    """min_x |U Delta B_r(x)| / |U| over centers, |B_r| = |U| = area, for the
    set U bounded by `segments` and `arcs` (see `_ball_overlap`).

    The objective is exact up to quadrature: |U Delta B| = 2 (|U| - |U cap
    B|).  One Nelder-Mead run starts from each seed and the best end point
    wins.  `error` is the change of the value when every panel is halved,
    and `evaluations` counts the overlap integrals taken.
    """
    # an empty segment (a level line through a node) bounds nothing
    segments = segments[np.any(segments[:, 0] != segments[:, 1], axis=1)]
    r = equal_measure_radius(area)
    evaluations = 0

    def objective(x, halve=False):
        nonlocal evaluations
        evaluations += 1
        return 2.0 * (1.0 - _ball_overlap(segments, arcs, x, r, halve) / area)

    ends = []
    for s in seeds:
        res = minimize(objective, s, method="Nelder-Mead",
                       options=dict(xatol=1e-9, fatol=1e-13, maxiter=400, maxfev=600))
        ends.append((float(res.fun), float(res.x[0]), float(res.x[1])))
    value, cx, cy = min(ends)
    fine = float(objective((cx, cy), halve=True))
    return AsymmetryResult(value=max(fine, 0.0), center=(cx, cy), radius=r,
                           error=abs(value - fine), evaluations=evaluations)


def fraenkel_asymmetry(domain: Domain) -> AsymmetryResult:
    """min_x |Omega Delta B_r(x)| / |B_r| over centers, |B_r| = |Omega|.

    The overlap |Omega cap B| is a boundary integral (`_ball_overlap`) taken
    with 16-point Gauss-Legendre panels split where the boundary crosses the
    circle.  For a convex domain the square root of the overlap is concave
    in the center on its support (Brunn-Minkowski), so one Nelder-Mead run
    from the centroid finds the global minimum; a nonconvex polygon is
    searched from the centroid and 8 bounding-box offsets
    (`_asymmetry_search`).
    """
    seeds = [domain.center]
    if domain.kind == "polygon" and not _polygon_is_convex(domain.vertices):
        seeds = _asymmetry_seeds(domain.bounding_box(), domain.center)
    return _asymmetry_search(*_oriented_boundary(domain), domain.measure, seeds)


_ASYMMETRY_CACHE: dict = {}


def cached_asymmetry(domain: Domain) -> AsymmetryResult:
    key = domain.key()
    if key not in _ASYMMETRY_CACHE:
        _ASYMMETRY_CACHE[key] = fraenkel_asymmetry(domain)
    return _ASYMMETRY_CACHE[key]


def isoperimetric_deficit(domain: Domain, n: int = 2):
    """P / (n omega^(1/n) |Omega|^((n-1)/n)) - 1, the scale-free deficit."""
    base = n * unit_ball_measure(n) ** (1.0 / n) * domain.measure ** ((n - 1.0) / n)
    return domain.perimeter / base - 1.0
