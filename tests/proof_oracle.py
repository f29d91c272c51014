"""The identities of the paper's proof, as the tests' oracle for package
results: the level-set ODE of Lemma 3.3 and its asymmetry-strengthened form
with the boundary terms it integrates, exact superlevel areas and level-line
lengths of P1 fields, the asymmetry of their superlevel sets and its
propagation, the distribution function of a decreasing profile and of the
disc solution (phi), and the Cavalieri and Hardy-Littlewood identities.
Not part of the package, which checks the five inequalities, not the proof.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.spatial import ConvexHull

from robinsym.domains import AsymmetryResult, _asymmetry_search, _asymmetry_seeds, \
    _polygon_centroid, cached_asymmetry
from robinsym.fem import ScalarField
from robinsym.levelset import DistributionFunction, build_mu_segments
from robinsym.radial import RadialSolution
from robinsym.rearrange import DecreasingProfile, _gauss, distribution_function, \
    lorentz_power_integral

# ---------------------------------------------------------------------------
# superlevel geometry of a P1 field


def superlevel_measure_exact(u: ScalarField, t: float) -> float:
    """Exact area of {interpolant > t}: each triangle is clipped by its level line."""
    v1, v2, v3 = np.sort(u.values[u.mesh.triangles], axis=1).T
    area = u.mesh.triangle_areas()
    with np.errstate(divide="ignore", invalid="ignore"):
        mid = area * (1.0 - (t - v1) ** 2 / np.maximum((v2 - v1) * (v3 - v1), 1e-300))
        top = area * (v3 - t) ** 2 / np.maximum((v3 - v2) * (v3 - v1), 1e-300)
    out = np.where(t < v1, area, np.where(t < v2, mid, np.where(t < v3, top, 0.0)))
    return float(np.maximum(out, 0.0).sum())


def _level_segments(u: ScalarField, t: float):
    """(cut, a, b, top) per triangle: whether the level t cuts it (v1 < t <
    v3 for its sorted nodal values), the ends a and b of its level segment,
    on the edges p1-p2 or p2-p3 and p1-p3, and its top node p3."""
    tv = u.values[u.mesh.triangles]
    order = np.argsort(tv, axis=1, kind="stable")
    tv = np.take_along_axis(tv, order, axis=1)
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


def superlevel_boundary(u: ScalarField, t: float) -> np.ndarray:
    """Oriented boundary of U_t = {interpolant > t} as an (S, 2, 2) array of
    segment start and end points, with U_t on the left of every segment.

    Two kinds of segment bound U_t: the level segment of every triangle the
    level cuts, turned so that the triangle's top node lies on its left, and
    the part where u > t of every edge in the mesh's `boundary_edges`, which
    run counterclockwise, with the mesh on their left.
    """
    cut, a, b, top = _level_segments(u, t)
    a, b, top = a[cut], b[cut], top[cut]
    turn = ((b[:, 0] - a[:, 0]) * (top[:, 1] - a[:, 1])
            - (b[:, 1] - a[:, 1]) * (top[:, 0] - a[:, 0])) < 0.0
    level = np.stack([np.where(turn[:, None], b, a), np.where(turn[:, None], a, b)], axis=1)

    edges = u.mesh.boundary_edges
    p, q = u.mesh.nodes[edges[:, 0]], u.mesh.nodes[edges[:, 1]]
    up, uq = u.values[edges[:, 0]], u.values[edges[:, 1]]
    keep = (up > t) | (uq > t)
    p, q, up, uq = p[keep], q[keep], up[keep], uq[keep]
    with np.errstate(divide="ignore", invalid="ignore"):
        crossing = p + ((up - t) / (up - uq))[:, None] * (q - p)
    outer = np.stack([np.where((up > t)[:, None], p, crossing),
                      np.where((uq > t)[:, None], q, crossing)], axis=1)
    return np.concatenate([level, outer])


def superlevel_asymmetry(u: ScalarField, t: float) -> AsymmetryResult | None:
    """Fraenkel asymmetry of U_t = {interpolant > t}, or None when U_t is empty.

    The boundary of U_t (`superlevel_boundary`) goes through the package's
    boundary-integral quasi-Newton search, as a domain does.  A convex U_t
    (the convex hull of its boundary points has its area to 1e-12
    relative) is searched from its centroid alone, as `fraenkel_asymmetry`
    searches a convex domain; any other U_t from its centroid and 8 offsets
    in its bounding box.
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
    if ConvexHull(points - origin).volume > area * (1.0 + 1e-12):
        lo, hi = points.min(axis=0), points.max(axis=0)
        seeds = _asymmetry_seeds((lo[0], hi[0], lo[1], hi[1]), centroid)
    return _asymmetry_search(segments, [], area, seeds)


def interior_level_perimeter(u: ScalarField, t: float) -> float:
    """Total length of the level line {interpolant = t} inside triangles."""
    cut, a, b, _ = _level_segments(u, t)
    return float(np.where(cut, np.hypot(*(a - b).T), 0.0).sum())


def _boundary_values(u: ScalarField):
    """(lo, hi, length): the smaller and larger end value of every boundary
    edge, and its length."""
    e = u.mesh.boundary_edges
    ua, ub = u.values[e[:, 0]], u.values[e[:, 1]]
    return np.minimum(ua, ub), np.maximum(ua, ub), u.mesh.boundary_lengths()


def perimeter_decomposition(u: ScalarField, t: float):
    """(interior level length, exterior boundary length where u > t)."""
    lo, hi, length = _boundary_values(u)
    with np.errstate(divide="ignore", invalid="ignore"):
        frac = np.where(hi > lo, np.clip((hi - np.maximum(lo, t)) / (hi - lo), 0.0, 1.0),
                        (hi > t).astype(float))
    return interior_level_perimeter(u, t), float((length * frac).sum())


def exterior_boundary_integral_inv_u(u: ScalarField, t: float) -> float:
    """Integral of 1/u over the boundary portion where u > t (closed form)."""
    lo, hi, length = _boundary_values(u)
    if np.any(lo <= 0.0):
        raise ValueError("boundary values must be strictly positive")
    cut = np.maximum(lo, t)
    with np.errstate(divide="ignore", invalid="ignore"):
        sub_len = length * np.where(hi > lo, (hi - cut) / (hi - lo), 1.0)
        val = np.where(np.abs(hi - cut) < 1e-12 * hi, sub_len / hi,
                       sub_len * np.log(hi / np.maximum(cut, 1e-300))
                       / np.maximum(hi - cut, 1e-300))
    return float(np.where(hi > t, val, 0.0).sum())


def exterior_time_integral(u: ScalarField, tau: float) -> float:
    """integral_0^tau t * (boundary integral of 1/u over {u > t}) dt, by
    16-point Gauss panels between the boundary nodal values, where alone
    the integrand has kinks."""
    bvals = np.unique(u.values[u.mesh.boundary_edges])
    cuts = np.unique(np.concatenate([[0.0, tau], bvals[(bvals > 0) & (bvals < tau)]]))
    xg, wg = _gauss(16)
    total = 0.0
    for a, b in zip(cuts, cuts[1:]):
        mid, half = 0.5 * (a + b), 0.5 * (b - a)
        vals = [t * exterior_boundary_integral_inv_u(u, t) for t in mid + half * xg]
        total += half * float(wg @ vals)
    return total


# ---------------------------------------------------------------------------
# distribution functions


def dmu(dist: DistributionFunction, t):
    """mu'(t) from the segment polynomial: 0 outside (0, ess sup), never positive."""
    t = np.asarray(t, dtype=float)
    j = dist.locate(t)
    m = 0.5 * (dist.breaks[j] + dist.breaks[j + 1])  # segment j's midpoint
    d = dist.coeffs[j, 1] + 2.0 * dist.coeffs[j, 2] * (t - m)
    d = np.minimum(np.where((t < dist.breaks[0]) | (t >= dist.breaks[-1]), 0.0, d), 0.0)
    return d if d.ndim else float(d)


def phi(rs: RadialSolution, t):
    """Measure of {v > t}: inverts the strictly decreasing profile."""
    t = np.asarray(t, dtype=float)
    scalar = t.ndim == 0
    t = np.atleast_1d(t).astype(float)
    v_breaks = rs.v_m + rs._w_at_breaks  # v at s-breakpoints, decreasing
    out = np.empty_like(t)
    out[t <= rs.v_m] = rs.measure
    out[t >= rs.v_M] = 0.0
    mid = (t > rs.v_m) & (t < rs.v_M)
    if np.any(mid):
        tm = t[mid]
        # segment index along s: v decreasing, so search on -v_breaks
        j = np.clip(np.searchsorted(-v_breaks, -tm, side="right") - 1, 0, len(rs._s) - 2)
        lo = rs._s[j]
        hi = rs._s[j + 1]
        x = 0.5 * (lo + hi)
        for _ in range(80):
            fx = rs.value(x) - tm
            move = fx > 0  # v too big -> s must grow
            lo = np.where(move, x, lo)
            hi = np.where(move, hi, x)
            g = rs.slope_g(x)
            step = np.where(g > 0, fx / np.maximum(g, 1e-300), 0.0)
            xn = x + step  # v' = -g, Newton: x - f/v' = x + f/g
            bad = (xn <= lo) | (xn >= hi) | ~np.isfinite(xn)
            xn = np.where(bad, 0.5 * (lo + hi), xn)
            if np.all(np.abs(xn - x) <= 1e-15 * rs.measure):
                x = xn
                break
            x = xn
        out[mid] = x
    out = np.clip(out, 0.0, rs.measure)
    return float(out[0]) if scalar else out


def dphi(rs: RadialSolution, t):
    """phi'(t) = -1/g(phi(t)) on (v_m, v_M), 0 outside."""
    t = np.asarray(t, dtype=float)
    g = rs.slope_g(phi(rs, t))
    out = np.where((t > rs.v_m) & (t < rs.v_M) & (g > 0), -1.0 / np.maximum(g, 1e-300), 0.0)
    return out if out.ndim else float(out)


def profile_distribution(prof: DecreasingProfile) -> DistributionFunction:
    """mu of a decreasing piecewise-linear profile: linear in t on every
    strictly decreasing piece, a jump at every plateau."""
    s, y = prof.s, prof.values
    total, ymin = float(s[-1]), float(y[-1])
    breaks = np.unique(np.concatenate([[0.0], y[y > 0.0]]))
    if len(breaks) == 1:  # the zero profile: one stub segment
        breaks = np.array([0.0, 1e-300])
    centers = 0.5 * (breaks[:-1] + breaks[1:])
    coeffs = np.zeros((len(centers), 3))
    coeffs[:, 0] = total
    # strictly decreasing pieces [y[i+1], y[i]], ascending in t; they tile
    # [ymin, ymax], and each midpoint above ymin lies on the first piece
    # that ends above it
    i = np.nonzero(y[:-1] > y[1:])[0][::-1]
    if len(i):
        hi, slope = y[i], (s[i + 1] - s[i]) / (y[i + 1] - y[i])
        on = centers >= ymin
        p = np.minimum(np.searchsorted(hi, centers[on], side="right"), len(i) - 1)
        coeffs[on, 0] = s[i[p]] + (centers[on] - hi[p]) * slope[p]
        coeffs[on, 1] = slope[p]
    return DistributionFunction(breaks=breaks, coeffs=coeffs, total_measure=total,
                                ess_inf=ymin)


# ---------------------------------------------------------------------------
# the planar level-set ODE (Lemma 3.3)


def make_level_grid(t_max: float, anchors=(), count: int = 512) -> np.ndarray:
    """Cosine-clustered increasing levels on (0, t_max), 1e-6 t_max away
    from both ends; each anchor (u_min, v_min, ...) is a panel end that the
    levels cluster at, and is evaluated just off, as it is a kink of mu."""
    lo, hi = 1e-6 * t_max, (1.0 - 1e-6) * t_max
    panels = sorted({lo, hi, *[float(a) for a in anchors if lo < float(a) < hi]})
    pts = []
    for a, b in zip(panels, panels[1:]):
        n = max(16, int(round(count * (b - a) / (hi - lo))))
        pts.append(a + (b - a) * (0.5 * (1.0 - np.cos(np.pi * np.linspace(0.0, 1.0, n)))))
    vals, interior = np.concatenate(pts), np.array(panels[1:-1])
    if len(interior):
        vals = np.concatenate([vals[~np.isin(vals, interior)],
                               interior * (1.0 - 1e-9), interior * (1.0 + 1e-9)])
    return np.unique(vals)


def ode_residuals(source, fstar: DecreasingProfile, beta: float, levels):
    """(lhs, rhs) of 4 pi mu <= (-mu' + boundary integral of 1/u over
    {u > t} / beta) F(mu), F the primitive of f*, at the levels: an
    inequality for a P1 field, an equality for a radial solution."""
    ts = np.asarray(levels, dtype=float)
    if isinstance(source, RadialSolution):
        mu, dm = phi(source, ts), dphi(source, ts)
        exterior = np.where(ts < source.v_m,
                            2.0 * math.sqrt(math.pi * source.measure) / source.v_m, 0.0)
    else:
        dist = build_mu_segments(source)
        mu, dm = dist.mu(ts), dmu(dist, ts)
        exterior = np.array([exterior_boundary_integral_inv_u(source, t) for t in ts])
    return 4.0 * math.pi * np.maximum(mu, 0.0), (-dm + exterior / beta) * fstar.cumulative(mu)


def max_relative_residual(lhs, rhs) -> float:
    scale = np.maximum(np.abs(lhs), np.abs(rhs))
    ok = scale > 0
    return float(np.max(np.abs(lhs - rhs)[ok] / scale[ok]))


def quantitative_ode_margins(u: ScalarField, fstar: DecreasingProfile, beta: float,
                             gamma_n: float, levels):
    """(t, alpha(U_t), rhs - lhs) of the asymmetry-strengthened inequality
    4 pi mu (1 + alpha(U_t)^2 / gamma_n) <= rhs at every level whose
    superlevel set U_t is not empty."""
    dist = build_mu_segments(u)
    out = []
    for t in np.asarray(levels, dtype=float):
        mu, a = float(dist.mu(t)), superlevel_asymmetry(u, t)
        if a is not None:
            ext = exterior_boundary_integral_inv_u(u, t)
            rhs = (-dmu(dist, t) + ext / beta) * float(fstar.cumulative(mu))
            out.append((t, a.value, rhs - 4.0 * math.pi * mu * (1.0 + a.value ** 2 / gamma_n)))
    return out


# ---------------------------------------------------------------------------
# asymmetry propagation


@dataclass
class PropagationReport:
    alpha_domain: float
    alpha_subset_bound: float | None
    hypothesis_met: bool
    passed: bool | None


def check_propagation(u: ScalarField, t: float) -> PropagationReport:
    """Asymmetry propagation to the superlevel set U_t = {u > t} of a field
    on a mesh of a domain: if |Omega \\ U_t| / |Omega| <= alpha(Omega)/4,
    the removed fraction measured on the mesh as 1 - mu(t) / |mesh|, then
    alpha(U_t) >= alpha(Omega)/2.  When the hypothesis fails the report
    asserts nothing: alpha_subset_bound and passed are None.

    U_t lies in the convex hull H of its boundary points, so with |B_r| =
    |U_t|, alpha(U_t) >= 2 (1 - max_x |H cap B_r(x)| / |U_t|).  That map of x
    is log-concave (Prekopa-Leindler), so one search from H's centroid finds
    the bound, and it must reach alpha(Omega)/2 within both searches' errors.
    """
    alpha = cached_asymmetry(u.mesh.domain)
    removed = 1.0 - float(distribution_function(u).mu(t)) / u.mesh.area()
    if removed > alpha.value / 4.0 + 1e-12:
        return PropagationReport(alpha.value, None, False, None)
    points = superlevel_boundary(u, t).reshape(-1, 2)
    hull = points[ConvexHull(points).vertices]  # counterclockwise
    edges = np.stack([hull, np.roll(hull, -1, axis=0)], axis=1)
    bound = _asymmetry_search(edges, [], superlevel_measure_exact(u, t),
                              [_polygon_centroid(hull)])
    margin = bound.value - alpha.value / 2.0 + bound.error + alpha.error / 2.0
    return PropagationReport(alpha.value, bound.value, True, bool(margin >= 0.0))


# ---------------------------------------------------------------------------
# integral identities


def cavalieri_pnorm_power(dist: DistributionFunction, p: float) -> float:
    """p * integral t^(p-1) mu(t) dt, equal to the p-th power of the L^p norm."""
    return p * lorentz_power_integral(dist, p, p)


def hardy_littlewood_gap(h: ScalarField, g: ScalarField) -> float:
    """integral of h* g* ds minus integral of h g dx, for nonnegative fields
    on one mesh; nonnegative up to quadrature tolerance."""
    hv, gv = h.values[h.mesh.triangles], g.values[g.mesh.triangles]
    exact = float(np.sum(h.mesh.triangle_areas() / 12.0
                         * (hv.sum(axis=1) * gv.sum(axis=1) + (hv * gv).sum(axis=1))))
    dh, dg = distribution_function(h), distribution_function(g)
    total = dh.total_measure
    cuts = [np.array([0.0, total]), *dh.edge_values, *dg.edge_values]
    sb = np.unique(np.clip(np.concatenate(cuts), 0.0, total))
    xg, wg = _gauss(16)
    mid, half = 0.5 * (sb[1:] + sb[:-1]), 0.5 * (sb[1:] - sb[:-1])
    sg = mid[:, None] + half[:, None] * xg
    return float(half @ ((dh.ustar(sg) * dg.ustar(sg)) @ wg)) - exact


# the 7-point Radon rule, degree 5: barycentric coordinates and weights
_RADON_A, _RADON_B = 0.059715871789770, 0.470142064105115
_RADON_C, _RADON_D = 0.797426985353087, 0.101286507323456
_RADON_BARY = np.array([[1 / 3] * 3, [_RADON_A, _RADON_B, _RADON_B],
                        [_RADON_B, _RADON_A, _RADON_B], [_RADON_B, _RADON_B, _RADON_A],
                        [_RADON_C, _RADON_D, _RADON_D], [_RADON_D, _RADON_C, _RADON_D],
                        [_RADON_D, _RADON_D, _RADON_C]])
_RADON_W = np.array([0.225] + [0.132394152788506] * 3 + [0.125939180544827] * 3)


def field_integral_pow(u: ScalarField, p: float) -> float:
    """Integral of |u|^p; exact for p = 1, 2 on one-signed fields, 7-point
    quadrature (degree 5) otherwise."""
    area = u.mesh.triangle_areas()
    v = u.values[u.mesh.triangles]
    if p == 1.0 and (u.values >= 0).all():
        return float(np.sum(area * v.mean(axis=1)))
    if p == 2.0:
        s = v.sum(axis=1)
        return float(np.sum(area / 12.0 * (s * s + (v * v).sum(axis=1))))
    return float(np.sum(area * (np.abs(v @ _RADON_BARY.T) ** p @ _RADON_W)))
