"""Exact level-set geometry of piecewise-linear fields, and the one
distribution-function class.

The superlevel measure mu(t) = |{u > t}| of a P1 field is piecewise
quadratic in the level t with breakpoints at nodal values; that of a
piecewise-linear decreasing profile is piecewise linear.  Both are a
`DistributionFunction`, which also inverts mu (`ustar`).  The segment
coefficients are kept in a basis centered at each segment's midpoint: every
contribution is then bounded by the triangle area, so near-duplicate nodal
values (ubiquitous on symmetric meshes) cannot blow up the expansion.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np
from scipy.spatial import ConvexHull

from .domains import _asymmetry_search, _asymmetry_seeds
from .fem import ScalarField


class LevelGridError(ValueError):
    """Level grid too coarse or malformed."""


# ---------------------------------------------------------------------------
# per-triangle clip area


def _sorted_triangle_values(u: ScalarField):
    tv = u.values[u.mesh.triangles]
    order = np.argsort(tv, axis=1, kind="stable")
    tv_sorted = np.take_along_axis(tv, order, axis=1)
    return tv_sorted, order


def superlevel_measure_exact(u: ScalarField, t: float) -> float:
    """Exact area of {interpolant > t}: each triangle is clipped by its level line."""
    tv, _ = _sorted_triangle_values(u)
    v1, v2, v3 = tv[:, 0], tv[:, 1], tv[:, 2]
    area = u.mesh.triangle_areas()
    with np.errstate(divide="ignore", invalid="ignore"):
        d1 = np.maximum((v2 - v1) * (v3 - v1), 1e-300)
        d2 = np.maximum((v3 - v2) * (v3 - v1), 1e-300)
        mid = area * (1.0 - (t - v1) ** 2 / d1)
        top = area * (v3 - t) ** 2 / d2
    out = np.where(t < v1, area,
                   np.where(t < v2, mid, np.where(t < v3, top, 0.0)))
    return float(np.maximum(out, 0.0).sum())


# ---------------------------------------------------------------------------
# piecewise-quadratic superlevel measure


@dataclass
class DistributionFunction:
    """Nonincreasing right-continuous t -> mu(t) = |{u > t}|, piecewise
    quadratic: mu(t) = a + b (t - m) + c (t - m)^2 on [breaks[j], breaks[j+1])
    with m = centers[j] and (a, b, c) = coeffs[j].  P1 fields give quadratic
    segments (`build_mu_segments`), decreasing profiles linear ones
    (`from_profile`)."""

    breaks: np.ndarray    # K+1 ascending, breaks[0] = 0
    centers: np.ndarray   # K midpoints
    coeffs: np.ndarray    # (K, 3) local (a, b, c)
    total_measure: float
    ess_inf: float

    @classmethod
    def from_profile(cls, s, values) -> "DistributionFunction":
        """mu of a nonnegative, nonincreasing, piecewise-linear profile with
        nodes (s, values), s ascending from 0: linear in t on every strictly
        decreasing piece, a jump at every plateau."""
        s, y = np.asarray(s, dtype=float), np.asarray(values, dtype=float)
        total, ymin = float(s[-1]), float(y[-1])
        breaks = np.unique(np.concatenate([[0.0], y[y > 0.0]]))
        if len(breaks) == 1:  # the zero profile: one stub segment
            breaks = np.array([0.0, 1e-300])
        centers = 0.5 * (breaks[:-1] + breaks[1:])
        coeffs = np.zeros((len(centers), 3))
        coeffs[:, 0] = total
        # strictly decreasing pieces [y[i+1], y[i]], ascending in t; they
        # tile [ymin, ymax], and each midpoint above ymin lies on the first
        # piece that ends above it
        i = np.nonzero(y[:-1] > y[1:])[0][::-1]
        if len(i):
            hi, slope = y[i], (s[i + 1] - s[i]) / (y[i + 1] - y[i])
            on = centers >= ymin
            p = np.minimum(np.searchsorted(hi, centers[on], side="right"), len(i) - 1)
            coeffs[on, 0] = s[i[p]] + (centers[on] - hi[p]) * slope[p]
            coeffs[on, 1] = slope[p]
        return cls(breaks=breaks, centers=centers, coeffs=coeffs, total_measure=total,
                   ess_inf=ymin)

    @property
    def num_segments(self) -> int:
        return len(self.centers)

    @property
    def ess_sup(self) -> float:
        return float(self.breaks[-1])

    def locate(self, t):
        return np.clip(np.searchsorted(self.breaks, t, side="right") - 1, 0,
                       self.num_segments - 1)

    def eval_in_segment(self, j, t):
        x = t - self.centers[j]
        a, b, c = self.coeffs[j, 0], self.coeffs[j, 1], self.coeffs[j, 2]
        return np.clip(a + b * x + c * x * x, 0.0, self.total_measure)

    def mu(self, t):
        t = np.asarray(t, dtype=float)
        j = self.locate(t)
        out = self.eval_in_segment(j, t)
        out = np.where(t < self.breaks[0], self.total_measure, out)
        out = np.where(t >= self.breaks[-1], 0.0, out)
        return out if out.ndim else float(out)

    def dmu(self, t):
        t = np.asarray(t, dtype=float)
        j = self.locate(t)
        x = t - self.centers[j]
        d = self.coeffs[j, 1] + 2.0 * self.coeffs[j, 2] * x
        d = np.where((t < self.breaks[0]) | (t >= self.breaks[-1]), 0.0, d)
        d = np.minimum(d, 0.0)
        return d if d.ndim else float(d)

    @cached_property
    def edge_values(self):
        """(right limits at segment starts, left limits at segment ends),
        made monotone in scan order against rounding wobble."""
        k = np.arange(self.num_segments)
        right = np.minimum.accumulate(self.eval_in_segment(k, self.breaks[:-1]))
        left = self.eval_in_segment(k, self.breaks[1:])
        return right, np.minimum(np.minimum.accumulate(left), right)

    def ustar(self, s):
        """Generalized inverse inf{t >= 0 : mu(t) < s}, vectorized."""
        s_arr = np.asarray(s, dtype=float)
        scalar = s_arr.ndim == 0
        s_arr = np.atleast_1d(s_arr).astype(float)
        right, left = self.edge_values
        k = self.num_segments
        # queries at the full measure must resolve to the essential infimum,
        # not fall through a 1-ulp wobble of the computed plateau value
        s_arr = np.minimum(s_arr, right[0])
        j = np.searchsorted(-left, -s_arr, side="right")
        out = np.empty_like(s_arr)
        beyond = j >= k
        out[beyond] = self.breaks[-1]
        active = ~beyond & (s_arr > 0)
        out[~beyond & ~active] = self.breaks[-1]
        ji = np.clip(j, 0, k - 1)
        jump = active & (right[ji] < s_arr)
        out[jump] = self.breaks[ji[jump]]
        solve = active & ~jump
        if np.any(solve):
            js = ji[solve]
            a = self.coeffs[js, 0] - s_arr[solve]
            b = self.coeffs[js, 1]
            c = self.coeffs[js, 2]
            x0 = self.breaks[js] - self.centers[js]
            x1 = self.breaks[js + 1] - self.centers[js]
            lin = np.abs(c) * np.maximum(np.abs(x0), np.abs(x1)) < 1e-14 * np.maximum(np.abs(b), 1e-300)
            # a linear segment's quadratic root may overflow; it is discarded
            with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
                xl = -a / np.where(b != 0, b, -1e-300)
                disc = np.maximum(b * b - 4.0 * c * a, 0.0)
                sq = np.sqrt(disc)
                qq = -0.5 * (b + np.sign(b + (b == 0)) * sq)
                r1 = qq / np.where(c != 0, c, 1e-300)
                r2 = a / np.where(qq != 0, qq, 1e-300)
            tol = 1e-9 * (x1 - x0) + 1e-300
            in1 = (r1 >= x0 - tol) & (r1 <= x1 + tol)
            root = np.where(in1, r1, r2)
            x = np.where(lin, xl, root)
            x = np.clip(x, x0, x1)
            out[solve] = self.centers[js] + x
        out = np.clip(out, 0.0, self.breaks[-1])
        return float(out[0]) if scalar else out


def build_mu_segments(u: ScalarField) -> DistributionFunction:
    """mu of |u| for a P1 field, exact and piecewise quadratic."""
    vals = np.abs(u.values)
    vmax = float(vals.max())
    if vmax <= 0.0:
        raise ValueError("field is identically zero")
    snap = vmax * 1e-12
    vals = np.round(vals / snap) * snap
    tv = np.sort(vals[u.mesh.triangles], axis=1)
    v1, v2, v3 = tv[:, 0], tv[:, 1], tv[:, 2]
    area = u.mesh.triangle_areas()
    breaks = np.unique(np.concatenate([[0.0], vals]))
    k = len(breaks) - 1
    centers = 0.5 * (breaks[:-1] + breaks[1:])
    total = float(area.sum())

    # pieces as (start, end, gamma, theta, alpha)
    starts, ends, gammas, thetas, alphas = [], [], [], [], []

    def piece(s, e, g, th, al, keep):
        starts.append(s[keep])
        ends.append(e[keep])
        gammas.append(g[keep])
        thetas.append(th[keep])
        alphas.append(al[keep])

    zero = np.zeros_like(area)
    keep0 = v1 > 0.0
    piece(zero, v1, zero, zero, area, keep0)
    with np.errstate(divide="ignore", invalid="ignore"):
        g1 = -area / ((v2 - v1) * (v3 - v1))
        g2 = area / ((v3 - v2) * (v3 - v1))
    piece(v1, v2, g1, v1, area, v2 > v1)
    piece(v2, v3, g2, v3, zero, v3 > v2)

    starts = np.concatenate(starts)
    ends = np.concatenate(ends)
    gammas = np.concatenate(gammas)
    thetas = np.concatenate(thetas)
    alphas = np.concatenate(alphas)

    si = np.searchsorted(breaks, starts)
    ei = np.searchsorted(breaks, ends)

    add = np.zeros((k + 1, 3))
    sub = np.zeros((k + 1, 3))
    # start events expand about the center of the segment they enter
    ms = centers[np.clip(si, 0, k - 1)]
    d = ms - thetas
    np.add.at(add[:, 0], si, gammas * d * d + alphas)
    np.add.at(add[:, 1], si, 2.0 * gammas * d)
    np.add.at(add[:, 2], si, gammas)
    # end events expand about the center of the segment they leave
    me = centers[np.clip(ei - 1, 0, k - 1)]
    d = me - thetas
    np.add.at(sub[:, 0], ei, gammas * d * d + alphas)
    np.add.at(sub[:, 1], ei, 2.0 * gammas * d)
    np.add.at(sub[:, 2], ei, gammas)

    coeffs = np.empty((k, 3))
    a = b = c = 0.0
    for j in range(k):
        if j > 0:
            a -= sub[j, 0]
            b -= sub[j, 1]
            c -= sub[j, 2]
            dlt = centers[j] - centers[j - 1]
            a += b * dlt + c * dlt * dlt
            b += 2.0 * c * dlt
        a += add[j, 0]
        b += add[j, 1]
        c += add[j, 2]
        coeffs[j] = (a, b, c)
    return DistributionFunction(breaks=breaks, centers=centers, coeffs=coeffs,
                                total_measure=total, ess_inf=float(vals.min()))


# ---------------------------------------------------------------------------
# level-curve lengths and boundary integrals


def _level_segments(u: ScalarField, t: float):
    """(cut, a, b, top) per triangle: whether the level t cuts it (v1 < t <
    v3 for its sorted nodal values), the ends a and b of its level segment,
    on the edges p1-p2 or p2-p3 and p1-p3, and its top node p3."""
    tv, order = _sorted_triangle_values(u)
    pts = u.mesh.nodes[u.mesh.triangles]
    pts = np.take_along_axis(pts, order[:, :, None], axis=1)
    v1, v2, v3 = tv[:, 0], tv[:, 1], tv[:, 2]
    p1, p2, p3 = pts[:, 0], pts[:, 1], pts[:, 2]
    lower = (t > v1) & (t < v2)
    upper = (t >= v2) & (t < v3)
    w12 = (t - v1) / np.where(v2 > v1, v2 - v1, 1.0)
    w13 = (t - v1) / np.where(v3 > v1, v3 - v1, 1.0)
    w23 = (t - v2) / np.where(v3 > v2, v3 - v2, 1.0)
    a = np.where(lower[:, None], p1 + w12[:, None] * (p2 - p1),
                 p2 + w23[:, None] * (p3 - p2))
    b = p1 + w13[:, None] * (p3 - p1)
    return lower | upper, a, b, p3


def interior_level_perimeter(u: ScalarField, t: float) -> float:
    """Total length of the level line {interpolant = t} inside triangles."""
    cut, a, b, _ = _level_segments(u, t)
    seg = np.hypot(a[:, 0] - b[:, 0], a[:, 1] - b[:, 1])
    return float(np.where(cut, seg, 0.0).sum())


def _outer_edges(mesh):
    """Boundary edges directed with the mesh on their left: the edges of the
    positively oriented triangles that belong to one triangle only."""
    tris = mesh.triangles
    edges = np.concatenate([tris[:, [0, 1]], tris[:, [1, 2]], tris[:, [2, 0]]])
    key = np.min(edges, axis=1) * mesh.num_nodes + np.max(edges, axis=1)
    _, inverse, counts = np.unique(key, return_inverse=True, return_counts=True)
    return edges[counts[inverse] == 1]


def superlevel_boundary(u: ScalarField, t: float) -> np.ndarray:
    """Oriented boundary of U_t = {interpolant > t} as an (S, 2, 2) array of
    segment start and end points, with U_t on the left of every segment.

    Two kinds of segment bound U_t: the level segment of every triangle the
    level cuts, turned so that the triangle's top node lies on its left, and
    the part of every mesh boundary edge where u > t.
    """
    cut, a, b, top = _level_segments(u, t)
    a, b, top = a[cut], b[cut], top[cut]
    turn = ((b[:, 0] - a[:, 0]) * (top[:, 1] - a[:, 1])
            - (b[:, 1] - a[:, 1]) * (top[:, 0] - a[:, 0])) < 0.0
    level = np.stack([np.where(turn[:, None], b, a), np.where(turn[:, None], a, b)], axis=1)

    edges = _outer_edges(u.mesh)
    p, q = u.mesh.nodes[edges[:, 0]], u.mesh.nodes[edges[:, 1]]
    up, uq = u.values[edges[:, 0]], u.values[edges[:, 1]]
    keep = (up > t) | (uq > t)
    p, q, up, uq = p[keep], q[keep], up[keep], uq[keep]
    with np.errstate(divide="ignore", invalid="ignore"):
        crossing = p + ((up - t) / (up - uq))[:, None] * (q - p)
    outer = np.stack([np.where((up > t)[:, None], p, crossing),
                      np.where((uq > t)[:, None], q, crossing)], axis=1)
    return np.concatenate([level, outer])


def exterior_boundary_integral_inv_u(u: ScalarField, t: float) -> float:
    """Integral of 1/u over the boundary portion where u > t (closed form)."""
    e = u.mesh.boundary_edges
    ua = u.values[e[:, 0]]
    ub = u.values[e[:, 1]]
    if np.any(ua <= 0.0) or np.any(ub <= 0.0):
        raise ValueError("boundary values must be strictly positive")
    length = u.mesh.boundary_lengths()
    lo = np.minimum(ua, ub)
    hi = np.maximum(ua, ub)
    cut = np.maximum(lo, t)
    active = hi > t
    with np.errstate(divide="ignore", invalid="ignore"):
        frac = np.where(hi > lo, (hi - cut) / (hi - lo), 1.0)
        sub_len = length * frac
        near = np.abs(hi - cut) < 1e-12 * hi
        val = np.where(near, sub_len / hi, sub_len * np.log(hi / np.maximum(cut, 1e-300))
                       / np.maximum(hi - cut, 1e-300))
    return float(np.where(active, val, 0.0).sum())


def perimeter_decomposition(u: ScalarField, t: float):
    """(interior level length, exterior boundary length where u > t)."""
    e = u.mesh.boundary_edges
    ua, ub = u.values[e[:, 0]], u.values[e[:, 1]]
    lo, hi = np.minimum(ua, ub), np.maximum(ua, ub)
    length = u.mesh.boundary_lengths()
    with np.errstate(divide="ignore", invalid="ignore"):
        frac = np.where(hi > lo, np.clip((hi - np.maximum(lo, t)) / (hi - lo), 0.0, 1.0),
                        (hi > t).astype(float))
    ext = float((length * frac).sum())
    return interior_level_perimeter(u, t), ext


# ---------------------------------------------------------------------------
# level grids and the level-set ODE report


@dataclass(frozen=True)
class LevelGrid:
    """Strictly increasing interior levels for residual checks."""

    values: np.ndarray

    def __post_init__(self):
        v = self.values
        if len(v) < 64:
            raise LevelGridError("level grid needs at least 64 interior points")
        if np.any(np.diff(v) <= 0):
            raise LevelGridError("level grid values must be strictly increasing")


# the grid stays _LEVEL_MARGIN * t_max away from 0 and t_max, and keeps at
# most _LEVEL_MAX_POINTS levels
_LEVEL_MARGIN = 1e-6
_LEVEL_MAX_POINTS = 8192


def make_level_grid(t_max: float, anchors=(), count: int = 512, include=()) -> LevelGrid:
    """Cosine-clustered levels on (0, t_max) refined near each anchor.

    Anchor values (u_min, v_min, ...) become panel boundaries so points
    cluster there; `include` values (nodal values) are inserted with a
    relative 1e-12 jitter to avoid degenerate level lines through vertices.
    """
    if t_max <= 0:
        raise LevelGridError("t_max must be positive")
    lo = _LEVEL_MARGIN * t_max
    hi = (1.0 - _LEVEL_MARGIN) * t_max
    panels = sorted({lo, hi, *[float(a) for a in anchors if lo < float(a) < hi]})
    pts = []
    for a, b in zip(panels, panels[1:]):
        n = max(16, int(round(count * (b - a) / (hi - lo))))
        x = 0.5 * (1.0 - np.cos(np.pi * np.linspace(0.0, 1.0, n)))
        pts.append(a + (b - a) * x)
    vals = np.concatenate(pts) if pts else np.linspace(lo, hi, count)
    if len(include):
        inc = np.asarray(include, dtype=float) * (1.0 + 1e-12) + 1e-12 * t_max
        inc = inc[(inc > lo) & (inc < hi)]
        vals = np.concatenate([vals, inc])
    # the anchors themselves are exceptional levels (kinks of mu); keep the
    # clustering but evaluate just off them
    interior = np.array([a for a in panels[1:-1]])
    if len(interior):
        keep = ~np.isin(vals, interior)
        vals = np.concatenate([vals[keep], interior * (1.0 - 1e-9), interior * (1.0 + 1e-9)])
    vals = np.unique(vals)
    if len(vals) > _LEVEL_MAX_POINTS:
        idx = np.unique(np.linspace(0, len(vals) - 1, _LEVEL_MAX_POINTS).astype(int))
        vals = vals[idx]
    return LevelGrid(values=vals)


@dataclass
class OdeResidualReport:
    """Per-level comparison of n^2 w_n^(2/n) mu^((2n-2)/n) against
    (-mu' + (1/beta) * exterior 1/u integral) * F(mu)."""

    t: np.ndarray
    mu: np.ndarray
    dmu: np.ndarray
    interior_perimeter: np.ndarray
    exterior_integral: np.ndarray
    lhs: np.ndarray
    rhs: np.ndarray

    @property
    def residual(self):
        return self.lhs - self.rhs

    @property
    def margin(self):
        return self.rhs - self.lhs

    def max_relative_residual(self) -> float:
        scale = np.maximum(np.abs(self.lhs), np.abs(self.rhs))
        ok = scale > 0
        return float(np.max(np.abs(self.residual[ok]) / scale[ok]))

    def fraction_satisfied(self, tol: float) -> float:
        scale = np.maximum(np.maximum(np.abs(self.lhs), np.abs(self.rhs)), 1e-300)
        return float(np.mean(self.margin / scale >= -tol))

    def export_text(self) -> str:
        header = "# t mu dmu interior_perimeter exterior_integral lhs rhs margin"
        rows = [header]
        for k in range(len(self.t)):
            rows.append(" ".join(f"{v:.17g}" for v in
                                 (self.t[k], self.mu[k], self.dmu[k],
                                  self.interior_perimeter[k], self.exterior_integral[k],
                                  self.lhs[k], self.rhs[k], self.margin[k])))
        return "\n".join(rows) + "\n"


def ode_residuals(source, fstar, beta: float, grid: LevelGrid) -> OdeResidualReport:
    """Level-set ODE residuals for a FEM field (inequality) or a radial
    solution (equality); fstar is the decreasing rearrangement of the datum."""
    ts = grid.values
    n = getattr(source, "n", 2)
    omega_n = math.pi if n == 2 else math.pi ** (n / 2.0) / math.gamma(n / 2.0 + 1.0)
    cn = n * n * omega_n ** (2.0 / n)
    if hasattr(source, "phi"):  # radial solution
        mu = source.phi(ts)
        dmu = source.dphi(ts)
        per_ball = n * omega_n ** (1.0 / n) * np.maximum(mu, 0.0) ** ((n - 1.0) / n)
        interior = np.where(ts > source.v_m, per_ball, 0.0)
        pb = n * omega_n ** (1.0 / n) * source.measure ** ((n - 1.0) / n)
        exterior = np.where(ts < source.v_m, pb / source.v_m, 0.0)
    else:
        dist = build_mu_segments(source)
        mu = dist.mu(ts)
        dmu = dist.dmu(ts)
        interior = np.array([interior_level_perimeter(source, t) for t in ts])
        exterior = np.array([exterior_boundary_integral_inv_u(source, t) for t in ts])
    lhs = cn * np.maximum(mu, 0.0) ** ((2.0 * n - 2.0) / n)
    rhs = (-dmu + exterior / beta) * fstar.cumulative(mu)
    return OdeResidualReport(t=ts, mu=mu, dmu=dmu, interior_perimeter=interior,
                             exterior_integral=exterior, lhs=lhs, rhs=rhs)


def superlevel_asymmetry(u: ScalarField, t: float):
    """Fraenkel asymmetry of U_t = {interpolant > t}, or None when U_t is empty.

    The boundary of U_t (`superlevel_boundary`) goes through the same
    boundary-integral search as a domain.  A convex U_t (the hull of its
    boundary points has its area, to 1e-12 relative) is searched from its
    centroid alone, as `fraenkel_asymmetry` searches a convex domain; any
    other U_t from its centroid and 8 offsets in its bounding box.
    """
    segments = superlevel_boundary(u, t)
    # area and centroid by the shoelace formulas, about a nearby origin
    origin = segments[0, 0] if len(segments) else 0.0
    a, b = segments[:, 0] - origin, segments[:, 1] - origin
    cross = a[:, 0] * b[:, 1] - a[:, 1] * b[:, 0]
    area = 0.5 * float(cross.sum())
    if not area > 0.0:
        return None
    centroid = origin + ((a + b) * cross[:, None]).sum(axis=0) / (6.0 * area)
    points = segments.reshape(-1, 2)
    seeds = [centroid]
    if ConvexHull(points).volume > area * (1.0 + 1e-12):  # a 2-D hull's volume is its area
        lo, hi = points.min(axis=0), points.max(axis=0)
        seeds = _asymmetry_seeds((lo[0], hi[0], lo[1], hi[1]), centroid)
    return _asymmetry_search(segments, [], area, seeds)


def quantitative_ode_margins(u: ScalarField, fstar, beta: float, gamma_n: float,
                             levels):
    """Margins of the asymmetry-strengthened level-set inequality
    4 pi mu (1 + alpha(U_t)^2 / gamma_n) <= RHS at the given levels."""
    dist = build_mu_segments(u)
    out = []
    for t in np.asarray(levels, dtype=float):
        mu = float(dist.mu(t))
        a = superlevel_asymmetry(u, t)
        if a is None:
            continue
        ext = exterior_boundary_integral_inv_u(u, t)
        rhs = (-float(dist.dmu(t)) + ext / beta) * float(fstar.cumulative(mu))
        lhs = 4.0 * math.pi * mu * (1.0 + a.value ** 2 / gamma_n)
        out.append((t, a.value, rhs - lhs))
    return out


def exterior_time_integral(u: ScalarField, tau: float) -> float:
    """integral_0^tau t * (boundary integral of 1/u over {u > t}) dt.

    The integrand has kinks only at boundary nodal values, so panel-wise
    Gauss quadrature between them is accurate.
    """
    bvals = np.unique(u.values[np.unique(u.mesh.boundary_edges)])
    cuts = np.unique(np.concatenate([[0.0, tau], bvals[(bvals > 0) & (bvals < tau)]]))
    xg, wg = np.polynomial.legendre.leggauss(16)
    total = 0.0
    for a, b in zip(cuts, cuts[1:]):
        mid, half = 0.5 * (a + b), 0.5 * (b - a)
        tg = mid + half * xg
        vals = np.array([t * exterior_boundary_integral_inv_u(u, t) for t in tg])
        total += half * float(wg @ vals)
    return total


# ---------------------------------------------------------------------------
# Gronwall helpers


def gronwall_bound(xi_tau0: float, C: float, tau0: float, tau):
    """Bounds implied by tau * xi' <= xi + C for tau >= tau0 > 0:
    xi(tau) <= (xi(tau0) + C) (tau/tau0) - C and xi' <= (xi(tau0) + C)/tau0."""
    if tau0 <= 0:
        raise ValueError("tau0 must be positive")
    if C < 0:
        raise ValueError("C must be nonnegative")
    tau = np.asarray(tau, dtype=float)
    if np.any(tau < tau0):
        raise ValueError("tau must be >= tau0")
    value = (xi_tau0 + C) * (tau / tau0) - C
    slope = (xi_tau0 + C) / tau0
    if value.ndim == 0:
        return float(value), slope
    return value, slope


def gronwall_hypothesis_margin(tau, xi, dxi, C: float):
    """max of tau*xi' - xi - C; positive means the hypothesis fails there."""
    tau = np.asarray(tau, dtype=float)
    margins = tau * np.asarray(dxi, dtype=float) - np.asarray(xi, dtype=float) - C
    return float(margins.max()), margins
