"""Closed-form raster areas: the tests' independent oracle for the exact
boundary-integral ball overlap of `robinsym.domains`.

The area fraction of every raster cell covered by a domain is computed in
closed form (circle/box overlap, affine-scaled ellipses, the stadium as a
rectangle plus two half-discs, clipped polygons), so the symmetric
difference of a domain and a ball carries only the error of cells crossed by
both boundaries; those cells are split once more in a subcell pass.  Each
shape has one box-fraction routine (`_domain_box_fractions`); polygons skip
it on cells away from their edges, where a point-in-polygon test decides.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from robinsym.domains import Domain, GeometryError, _polygon_contains

# default raster resolution: cell size == diameter / RASTER_CELLS
RASTER_CELLS = 512


class MeasureMismatchError(GeometryError):
    """Ball measure does not match the domain measure."""


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


def make_grid(bbox, h, pad=0.0) -> Grid:
    x0, x1, y0, y1 = bbox
    x0 -= pad
    y0 -= pad
    nx = int(math.ceil((x1 + pad - x0) / h)) + 1
    ny = int(math.ceil((y1 + pad - y0) / h)) + 1
    return Grid(x0=x0, y0=y0, h=h, nx=nx, ny=ny)


# ---------------------------------------------------------------------------
# closed-form box areas


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
    """Exact area of [x0,x1]x[y0,y1] intersected with the disc (cx, cy, r).

    A box inside or outside the disc whole gets its area or 0 directly: the
    difference of four corner areas of size r^2 would leave a rounding
    residue of about 1e-16 r^2 on every such box.
    """
    a = _circle_corner_area(x1 - cx, y1 - cy, r)
    b = _circle_corner_area(x0 - cx, y1 - cy, r)
    c = _circle_corner_area(x1 - cx, y0 - cy, r)
    d = _circle_corner_area(x0 - cx, y0 - cy, r)
    far_x = np.maximum(np.abs(x0 - cx), np.abs(x1 - cx))
    far_y = np.maximum(np.abs(y0 - cy), np.abs(y1 - cy))
    near_x = np.maximum(np.maximum(x0 - cx, cx - x1), 0.0)
    near_y = np.maximum(np.maximum(y0 - cy, cy - y1), 0.0)
    area = np.where(far_x ** 2 + far_y ** 2 <= r * r, (x1 - x0) * (y1 - y0),
                    np.maximum(a - b - c + d, 0.0))
    return np.where(near_x ** 2 + near_y ** 2 >= r * r, 0.0, area)


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


@functools.lru_cache(maxsize=64)
def cell_fractions(domain: Domain, grid: Grid):
    """Exact area fraction of every grid cell covered by the domain."""
    if domain.kind == "polygon":
        return _polygon_fractions(domain, grid)
    ii, jj = np.meshgrid(np.arange(grid.nx), np.arange(grid.ny), indexing="ij")
    return _domain_box_fractions(domain, *grid.cell_boxes(ii, jj), grid.h)


def _polygon_fractions(domain: Domain, grid: Grid):
    """Cells near an edge are clipped; the others are inside or outside whole."""
    h = grid.h
    verts = domain.vertices
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
    frac = _polygon_contains(verts, xx, yy).astype(float)
    bi, bj = np.nonzero(boundary)
    frac[bi, bj] = _domain_box_fractions(domain, *grid.cell_boxes(bi, bj), h)
    return frac


# ---------------------------------------------------------------------------
# symmetric difference with a ball


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


def sym_diff_area(domain: Domain, frac, grid: Grid, center, radius, ball_area, sub=0):
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
        frac = cell_fractions(domain, grid)
        vals.append(sym_diff_area(domain, frac, grid, ball.center, ball.radius,
                                  ball.area, sub=4))
    return vals[1], abs(vals[0] - vals[1])
