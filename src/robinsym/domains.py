"""Planar domains: exact measure/perimeter, rasterization, and Fraenkel asymmetry.

Shapes are parametric (disc, ellipse, rectangle, stadium) or simple polygons;
each boundary is a chain of segments and elliptic arcs (`boundary_pieces`).
The Fraenkel asymmetry of a shape comes from an exact boundary integral for
the area of its intersection with a ball.  Area fractions of raster cells
are computed in closed form for every shape, which makes symmetric
differences against balls accurate to a few cells' worth of subcell error
rather than O(h * perimeter); the raster serves masks and is an independent
check of the boundary integral.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.integrate import quad
from scipy.optimize import minimize
from scipy.special import gamma as _gamma_fn

TWO_PI = 2.0 * math.pi

# default raster resolution: cell size == diameter / RASTER_CELLS
RASTER_CELLS = 512


class GeometryError(ValueError):
    """Invalid geometric input."""


class MeasureMismatchError(GeometryError):
    """Ball measure does not match the domain measure."""


def unit_ball_measure(n: int) -> float:
    """Volume of the unit ball in R^n (pi for n=2)."""
    if n < 1:
        raise GeometryError("dimension must be >= 1")
    return math.pi ** (n / 2.0) / _gamma_fn(n / 2.0 + 1.0)


@dataclass(frozen=True)
class BallSpec:
    """A disc prescribed by center and radius."""

    center: tuple
    radius: float

    def __post_init__(self):
        if not self.radius > 0.0:
            raise GeometryError("ball radius must be positive")

    @property
    def area(self) -> float:
        return math.pi * self.radius ** 2


@dataclass(frozen=True)
class Grid:
    """Axis-aligned raster lattice of square cells."""

    x0: float
    y0: float
    h: float
    nx: int
    ny: int

    def cell_centers(self):
        cx = self.x0 + (np.arange(self.nx) + 0.5) * self.h
        cy = self.y0 + (np.arange(self.ny) + 0.5) * self.h
        return np.meshgrid(cx, cy, indexing="ij")

    def cell_boxes(self, ii, jj):
        """Box corners (x0, x1, y0, y1) of the cells with indices (ii, jj)."""
        x0 = self.x0 + ii * self.h
        y0 = self.y0 + jj * self.h
        return x0, x0 + self.h, y0, y0 + self.h


@dataclass
class RasterMask:
    """Boolean occupancy grid; cells count h^2 toward the measure."""

    grid: Grid
    mask: np.ndarray

    @property
    def area(self) -> float:
        return float(np.count_nonzero(self.mask)) * self.grid.h ** 2

    def centroid(self):
        xx, yy = self.grid.cell_centers()
        m = self.mask
        w = np.count_nonzero(m)
        if w == 0:
            raise GeometryError("empty raster mask")
        return np.array([xx[m].mean(), yy[m].mean()])


# ---------------------------------------------------------------------------
# closed-form cell fractions


def _circle_corner_area(x, y, r):
    """Area of {u <= x, v <= y} within the disc of radius r at the origin."""
    x = np.minimum(np.maximum(x, -r), r)
    yc = np.minimum(np.maximum(y, -r), r)
    uy = np.sqrt(np.maximum(r * r - yc * yc, 0.0))

    def G(u):
        u = np.minimum(np.maximum(u, -r), r)
        root = np.sqrt(np.maximum(r * r - u * u, 0.0))
        return 0.5 * (u * root + r * r * np.arcsin(np.clip(u / r, -1.0, 1.0)))

    g_mr = -0.25 * math.pi * r * r  # G(-r)
    a = np.minimum(x, -uy)
    b = np.clip(x, -uy, uy)
    c = np.maximum(x, uy)
    pos = yc >= 0.0
    out = np.where(pos, 2.0 * (G(a) - g_mr), 0.0)
    out = out + yc * (b + uy) + G(b) - G(-uy)
    out = out + np.where(pos, 2.0 * (G(c) - G(uy)), 0.0)
    return out


def circle_box_area(x0, x1, y0, y1, cx, cy, r):
    """Exact area of [x0,x1]x[y0,y1] intersected with the disc (cx, cy, r)."""
    a = _circle_corner_area(x1 - cx, y1 - cy, r)
    b = _circle_corner_area(x0 - cx, y1 - cy, r)
    c = _circle_corner_area(x1 - cx, y0 - cy, r)
    d = _circle_corner_area(x0 - cx, y0 - cy, r)
    return np.maximum(a - b - c + d, 0.0)


def _clip_polygon_box(poly, x0, x1, y0, y1):
    """Sutherland-Hodgman clip of a polygon against an axis-aligned box."""
    def clip_axis(pts, axis, bound, keep_leq):
        out = []
        m = len(pts)
        for i in range(m):
            p, q = pts[i], pts[(i + 1) % m]
            pin = (p[axis] <= bound) if keep_leq else (p[axis] >= bound)
            qin = (q[axis] <= bound) if keep_leq else (q[axis] >= bound)
            if pin:
                out.append(p)
            if pin != qin:
                t = (bound - p[axis]) / (q[axis] - p[axis])
                out.append((p[0] + t * (q[0] - p[0]), p[1] + t * (q[1] - p[1])))
        return out

    pts = [tuple(v) for v in poly]
    for axis, bound, keep in ((0, x1, True), (0, x0, False), (1, y1, True), (1, y0, False)):
        pts = clip_axis(pts, axis, bound, keep)
        if len(pts) < 3:
            return 0.0
    area = 0.0
    for i in range(len(pts)):
        xa, ya = pts[i]
        xb, yb = pts[(i + 1) % len(pts)]
        area += xa * yb - xb * ya
    return 0.5 * abs(area)


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

    def centroid(self):
        return self.center

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

    # -- raster fractions ---------------------------------------------------

    def cell_fractions(self, grid: Grid):
        """Exact area fraction of every grid cell covered by the domain."""
        return _cell_fractions(self, grid)

    def raster_mask(self, resolution: int = RASTER_CELLS) -> RasterMask:
        grid = make_grid(self.bounding_box(), self.diameter() / resolution, pad=0.0)
        frac = self.cell_fractions(grid)
        return RasterMask(grid=grid, mask=frac >= 0.5)


def make_grid(bbox, h, pad=0.0) -> Grid:
    x0, x1, y0, y1 = bbox
    x0 -= pad
    y0 -= pad
    nx = int(math.ceil((x1 + pad - x0) / h)) + 1
    ny = int(math.ceil((y1 + pad - y0) / h)) + 1
    return Grid(x0=x0, y0=y0, h=h, nx=nx, ny=ny)


_FRACTION_CACHE: dict = {}


def _cell_fractions(domain: Domain, grid: Grid):
    key = (domain.key(), grid)
    hit = _FRACTION_CACHE.get(key)
    if hit is not None:
        return hit
    frac = _cell_fractions_uncached(domain, grid)
    if len(_FRACTION_CACHE) > 64:
        _FRACTION_CACHE.clear()
    _FRACTION_CACHE[key] = frac
    return frac


def _cell_fractions_uncached(domain: Domain, grid: Grid):
    if domain.kind == "polygon":
        return _polygon_fractions(domain.vertices, grid)
    h = grid.h
    ii, jj = np.meshgrid(np.arange(grid.nx), np.arange(grid.ny), indexing="ij")
    x0, x1, y0, y1 = grid.cell_boxes(ii, jj)
    if domain.kind == "disc":
        r, cx, cy = domain.params
        return _disc_fractions(x0, x1, y0, y1, cx, cy, r, h)
    return _domain_box_fractions(domain, x0, x1, y0, y1, h)


def _disc_fractions(x0, x1, y0, y1, cx, cy, r, h):
    mx = 0.5 * (x0 + x1) - cx
    my = 0.5 * (y0 + y1) - cy
    d = np.hypot(mx, my)
    half_diag = h * math.sqrt(0.5)
    frac = np.where(d + half_diag <= r, 1.0, 0.0)
    ring = (d + half_diag > r) & (d - half_diag < r)
    if np.any(ring):
        f = circle_box_area(x0[ring], x1[ring], y0[ring], y1[ring], cx, cy, r)
        frac[ring] = f / (h * h)
    return frac


def _polygon_fractions(verts, grid: Grid):
    h = grid.h
    frac = np.zeros((grid.nx, grid.ny))
    boundary = np.zeros((grid.nx, grid.ny), dtype=bool)
    m = len(verts)
    for i in range(m):
        a, b = verts[i], verts[(i + 1) % m]
        steps = max(2, int(math.ceil(4.0 * np.hypot(*(b - a)) / h)))
        ts = np.linspace(0.0, 1.0, steps)
        px = a[0] + ts * (b[0] - a[0])
        py = a[1] + ts * (b[1] - a[1])
        ci = np.clip(((px - grid.x0) / h).astype(int), 0, grid.nx - 1)
        cj = np.clip(((py - grid.y0) / h).astype(int), 0, grid.ny - 1)
        for di in (-1, 0, 1):
            for dj in (-1, 0, 1):
                boundary[np.clip(ci + di, 0, grid.nx - 1), np.clip(cj + dj, 0, grid.ny - 1)] = True
    xx, yy = grid.cell_centers()
    interior = _polygon_contains(verts, xx, yy)
    frac[~boundary] = interior[~boundary].astype(float)
    bi, bj = np.nonzero(boundary)
    x0, x1, y0, y1 = grid.cell_boxes(bi, bj)
    vals = np.empty(len(bi))
    for k in range(len(bi)):
        vals[k] = _clip_polygon_box(verts, x0[k], x1[k], y0[k], y1[k]) / (h * h)
    frac[bi, bj] = vals
    return frac


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


# ---------------------------------------------------------------------------
# symmetric difference and asymmetry


def _ball_fraction_sums(frac, grid: Grid, cx, cy, r, sub=0, domain=None):
    """Pieces of sum |F - F_ball| h^2 over the grid plus ball mass in-grid.

    Returns (sym_sum, ball_in_grid), both in area units.  With sub > 0,
    cells crossed by both boundaries are recomputed on a sub x sub subgrid
    (this is the subcell refinement pass; `frac` alone cannot resolve a
    crossing inside one cell).
    """
    h = grid.h
    xc = grid.x0 + (np.arange(grid.nx) + 0.5) * h
    yc = grid.y0 + (np.arange(grid.ny) + 0.5) * h
    dx = (xc - cx)[:, None]
    dy = (yc - cy)[None, :]
    d = np.hypot(dx, dy)
    half_diag = h * math.sqrt(0.5)
    full = d + half_diag <= r
    ring = ~full & (d - half_diag < r)
    fb = full.astype(float)
    if np.any(ring):
        ii, jj = np.nonzero(ring)
        x0, x1, y0, y1 = grid.cell_boxes(ii, jj)
        fb[ii, jj] = circle_box_area(x0, x1, y0, y1, cx, cy, r) / (h * h)
    sym = np.abs(frac - fb)
    if sub > 0 and domain is not None:
        both = ring & (frac > 0.0) & (frac < 1.0)
        if np.any(both):
            ii, jj = np.nonzero(both)
            sym[ii, jj] = _subcell_sym(domain, grid, ii, jj, cx, cy, r, sub)
    return float(sym.sum()) * h * h, float(fb.sum()) * h * h


def _subcell_sym(domain, grid: Grid, ii, jj, cx, cy, r, sub):
    """Recompute |F - F_ball| on cells split sub x sub; exact on both sides."""
    h = grid.h
    hs = h / sub
    off = np.arange(sub) * hs
    x0c = grid.x0 + ii * h
    y0c = grid.y0 + jj * h
    sx0 = x0c[:, None, None] + off[None, :, None]
    sy0 = y0c[:, None, None] + off[None, None, :]
    sx1 = sx0 + hs
    sy1 = sy0 + hs
    fb = circle_box_area(sx0, sx1, sy0, sy1, cx, cy, r) / (hs * hs)
    fo = _domain_box_fractions(domain, sx0, sx1, sy0, sy1, hs)
    return np.abs(fo - fb).mean(axis=(1, 2))


def _domain_box_fractions(domain: Domain, x0, x1, y0, y1, h):
    """Exact fractions of arbitrary boxes (grid cells and the subcell pass)."""
    kind = domain.kind
    if kind == "disc":
        r, cx, cy = domain.params
        return circle_box_area(x0, x1, y0, y1, cx, cy, r) / (h * h)
    if kind == "ellipse":
        a, b, cx, cy = domain.params
        s = a / b
        return circle_box_area(x0 - cx, x1 - cx, (y0 - cy) * s, (y1 - cy) * s, 0.0, 0.0, a) / (s * h * h)
    if kind == "rect":
        w, hh, cx, cy = domain.params
        lx = np.maximum(np.minimum(x1, cx + w / 2) - np.maximum(x0, cx - w / 2), 0.0)
        ly = np.maximum(np.minimum(y1, cy + hh / 2) - np.maximum(y0, cy - hh / 2), 0.0)
        return lx * ly / (h * h)
    if kind == "stadium":
        l, r, cx, cy = domain.params
        lx = np.maximum(np.minimum(x1, cx + l / 2) - np.maximum(x0, cx - l / 2), 0.0)
        ly = np.maximum(np.minimum(y1, cy + r) - np.maximum(y0, cy - r), 0.0)
        rect = lx * ly
        # caps are the half-discs cut by the vertical lines x = cx -+ l/2
        left = circle_box_area(x0, np.minimum(x1, cx - l / 2), y0, y1, cx - l / 2, cy, r)
        left = np.where(x0 < cx - l / 2, left, 0.0)
        right = circle_box_area(np.maximum(x0, cx + l / 2), x1, y0, y1, cx + l / 2, cy, r)
        right = np.where(x1 > cx + l / 2, right, 0.0)
        return (rect + left + right) / (h * h)
    # polygon: clip each box; callers may pass corner arrays that only
    # broadcast against each other (the subcell pass does)
    x0, x1, y0, y1 = np.broadcast_arrays(x0, x1, y0, y1)
    verts = domain.vertices
    out = [_clip_polygon_box(verts, *box)
           for box in zip(x0.ravel(), x1.ravel(), y0.ravel(), y1.ravel())]
    return np.reshape(out, x0.shape) / (h * h)


def _sym_diff_area(domain: Domain, frac, grid: Grid, center, radius, ball_area, sub=0):
    """|Omega Delta ball| from cell fractions; ball mass outside the grid counts fully."""
    sym_in, ball_in = _ball_fraction_sums(frac, grid, center[0], center[1], radius,
                                          sub=sub, domain=domain)
    return max(sym_in + (ball_area - ball_in), 0.0)


def symmetric_difference_with_ball(domain: Domain, ball: BallSpec, h: float | None = None):
    """Area of Omega Delta B with a Richardson error estimate.

    The ball must have the same measure as the domain (relative 1e-9); h
    defaults to diameter/512.  Returns (area, error_estimate).
    """
    if abs(ball.area - domain.measure) > 1e-9 * domain.measure:
        raise MeasureMismatchError(
            f"ball area {ball.area} does not match domain measure {domain.measure}")
    if h is None:
        h = domain.diameter() / RASTER_CELLS
    if h <= 0:
        raise GeometryError("cell size must be positive")
    vals = []
    for hh in (h, 0.5 * h):
        grid = make_grid(domain.bounding_box(), hh, pad=2 * hh)
        frac = domain.cell_fractions(grid)
        vals.append(_sym_diff_area(domain, frac, grid, ball.center, ball.radius,
                                   ball.area, sub=4))
    return vals[1], abs(vals[0] - vals[1])


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


def _minimize_center(objective, seeds, fatol, xatol=1e-8):
    best = None
    for s in seeds:
        res = minimize(objective, s, method="Nelder-Mead",
                       options=dict(xatol=xatol, fatol=fatol, maxiter=400, maxfev=600))
        cand = (float(res.fun), float(res.x[0]), float(res.x[1]))
        if best is None or cand < best:
            best = cand
    return best


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


def _ball_overlap(domain: Domain, x, r, halve=False):
    """|Omega cap B_r(x)| = 1/2 closed integral of min(|p - x|, r)^2 dtheta_x(p).

    This is the divergence theorem for F(q) = min(|q - x|, r)^2 (q - x) /
    (2 |q - x|^2), whose divergence is the indicator of B_r(x); it holds for
    any center and any simple boundary traversed counterclockwise.  The
    integrand is smooth except where |p - x| = r, so the Gauss panels of every
    boundary piece are split there.
    """
    pieces = domain.boundary_pieces()
    segments = np.array([p[1:] for p in pieces if p[0] == "segment"]).reshape(-1, 2, 2)
    # a repeated polygon vertex gives an empty edge, which bounds nothing
    segments = segments[np.any(segments[:, 0] != segments[:, 1], axis=1)]
    arcs = [p[1:] for p in pieces if p[0] == "arc"]
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


def fraenkel_asymmetry(domain: Domain) -> AsymmetryResult:
    """min_x |Omega Delta B_r(x)| / |B_r| over centers, |B_r| = |Omega|.

    The objective is exact up to quadrature: |Omega Delta B| = 2 (|Omega| -
    |Omega cap B|), and the overlap is a boundary integral (`_ball_overlap`)
    taken with 16-point Gauss-Legendre panels split where the boundary
    crosses the circle.  For a convex domain the square root of the overlap
    is concave in the center on its support (Brunn-Minkowski), so one
    Nelder-Mead run from the centroid finds the global minimum; a nonconvex
    polygon is searched from the centroid and 8 bounding-box offsets.
    `error` is the change of the value when every panel is halved, and
    `evaluations` counts the overlap integrals taken.
    """
    r = equal_measure_radius(domain.measure)
    area = domain.measure
    evaluations = 0

    def objective(x, halve=False):
        nonlocal evaluations
        evaluations += 1
        return 2.0 * (1.0 - _ball_overlap(domain, x, r, halve) / area)

    seeds = [domain.center]
    if domain.kind == "polygon" and not _polygon_is_convex(domain.vertices):
        seeds = _asymmetry_seeds(domain.bounding_box(), domain.center)
    value, cx, cy = _minimize_center(objective, seeds, fatol=1e-13, xatol=1e-9)
    fine = float(objective((cx, cy), halve=True))
    return AsymmetryResult(value=max(fine, 0.0), center=(cx, cy), radius=r,
                           error=abs(value - fine), evaluations=evaluations)


_ASYMMETRY_CACHE: dict = {}


def cached_asymmetry(domain: Domain) -> AsymmetryResult:
    key = domain.key()
    if key not in _ASYMMETRY_CACHE:
        _ASYMMETRY_CACHE[key] = fraenkel_asymmetry(domain)
    return _ASYMMETRY_CACHE[key]


def fraenkel_asymmetry_of_mask(rm: RasterMask) -> AsymmetryResult:
    """Asymmetry of a rasterized set (used for superlevel sets and subsets)."""
    area = rm.area
    if area <= 0:
        raise GeometryError("mask has zero area")
    r = equal_measure_radius(area)
    grid = rm.grid
    frac = rm.mask.astype(float)
    c0 = rm.centroid()
    bbox = (grid.x0, grid.x0 + grid.nx * grid.h, grid.y0, grid.y0 + grid.ny * grid.h)

    def objective(x):
        s, b = _ball_fraction_sums(frac, grid, x[0], x[1], r)
        return (s + (area - b)) / area

    best = _minimize_center(objective, _asymmetry_seeds(bbox, c0), fatol=1e-13)
    # boundary-cell count gives the O(h * perimeter) accuracy of a 0/1 mask
    per_cells = np.count_nonzero(rm.mask != np.roll(rm.mask, 1, axis=0)) + \
        np.count_nonzero(rm.mask != np.roll(rm.mask, 1, axis=1))
    err = per_cells * grid.h ** 2 / area
    return AsymmetryResult(value=best[0], center=(best[1], best[2]), radius=r, error=err)


def isoperimetric_deficit(domain: Domain, n: int = 2):
    """P / (n omega^(1/n) |Omega|^((n-1)/n)) - 1, the scale-free deficit."""
    base = n * unit_ball_measure(n) ** (1.0 / n) * domain.measure ** ((n - 1.0) / n)
    return domain.perimeter / base - 1.0
