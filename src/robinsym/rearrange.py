"""Distribution functions, rearrangements, and Lorentz norms.

Norms are always computed from the distribution function mu, never from a
sampled rearrangement: the theorem gaps are differences of integrals of
mu^(1/k), and inverse-sampling error would show up directly in them.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .fem import ScalarField
from .levelset import MuSegments, build_mu_segments
from .domains import unit_ball_measure

_GAUSS_CACHE: dict = {}


def _gauss(n):
    if n not in _GAUSS_CACHE:
        _GAUSS_CACHE[n] = np.polynomial.legendre.leggauss(n)
    return _GAUSS_CACHE[n]


class RearrangeError(ValueError):
    pass


@dataclass(frozen=True)
class LorentzParams:
    """Exponents of the L^(p,q) scale; q may be math.inf."""

    p: float
    q: float

    def __post_init__(self):
        if not self.p > 0:
            raise RearrangeError("Lorentz p must be positive")
        if not (self.q > 0):
            raise RearrangeError("Lorentz q must be positive (or inf)")


# ---------------------------------------------------------------------------
# decreasing profiles


@dataclass
class DecreasingProfile:
    """Piecewise-linear nonincreasing function on [0, total measure]."""

    s: np.ndarray
    values: np.ndarray

    def __post_init__(self):
        self.s = np.asarray(self.s, dtype=float)
        self.values = np.asarray(self.values, dtype=float)
        if len(self.s) != len(self.values) or len(self.s) < 2:
            raise RearrangeError("profile needs matching s/value arrays")
        if self.s[0] != 0.0 or np.any(np.diff(self.s) <= 0):
            raise RearrangeError("profile s-grid must increase from 0")
        scale = max(abs(float(self.values[0])), 1e-300)
        if np.any(np.diff(self.values) > 1e-9 * scale):
            raise RearrangeError("profile values must be nonincreasing")
        self.values = np.minimum.accumulate(self.values)
        if np.any(self.values < 0):
            raise RearrangeError("profile values must be nonnegative")
        df = np.diff(self.values)
        ds = np.diff(self.s)
        self._cum = np.concatenate([[0.0], np.cumsum(0.5 * (self.values[:-1] + self.values[1:]) * ds)])
        self._slopes = df / ds

    @property
    def total(self) -> float:
        return float(self.s[-1])

    def __call__(self, q):
        return np.interp(q, self.s, self.values)

    def cumulative(self, q):
        """Exact integral of the profile from 0 to q (piecewise quadratic)."""
        q = np.clip(np.asarray(q, dtype=float), 0.0, self.total)
        j = np.clip(np.searchsorted(self.s, q, side="right") - 1, 0, len(self.s) - 2)
        d = q - self.s[j]
        out = self._cum[j] + self.values[j] * d + 0.5 * self._slopes[j] * d * d
        return out if out.ndim else float(out)

    def mean(self) -> float:
        return float(self.cumulative(self.total)) / self.total

    def export_text(self) -> str:
        return "\n".join(f"{a:.17g} {b:.17g}" for a, b in zip(self.s, self.values)) + "\n"

    @classmethod
    def from_text(cls, text: str):
        rows = [line.split() for line in text.strip().split("\n")]
        arr = np.array([[float(a), float(b)] for a, b in rows])
        return cls(s=arr[:, 0], values=arr[:, 1])


def constant_profile(value: float, total: float) -> DecreasingProfile:
    return DecreasingProfile(s=np.array([0.0, total]), values=np.array([value, value]))


# ---------------------------------------------------------------------------
# distribution functions


class DistributionFunction:
    """Nonincreasing right-continuous t -> |{u > t}| with exact piecewise
    structure (quadratic segments for P1 fields, linear for profiles)."""

    def __init__(self, segments: MuSegments):
        self._seg = segments
        self._edges = None

    @property
    def total_measure(self) -> float:
        return self._seg.total

    @property
    def ess_sup(self) -> float:
        return float(self._seg.breaks[-1])

    @property
    def ess_inf(self) -> float:
        return self._seg.u_min

    @property
    def breaks(self):
        return self._seg.breaks

    def mu(self, t):
        return self._seg.mu(t)

    def dmu(self, t):
        return self._seg.dmu(t)

    def _edge_values(self):
        if self._edges is None:
            right, left = self._seg.edge_values()
            # enforce monotone scan order against rounding wobble
            right = np.minimum.accumulate(right)
            left = np.minimum(np.minimum.accumulate(left), right)
            self._edges = (right, left)
        return self._edges

    def ustar(self, s):
        """Generalized inverse inf{t >= 0 : mu(t) < s}, vectorized."""
        seg = self._seg
        s_arr = np.asarray(s, dtype=float)
        scalar = s_arr.ndim == 0
        s_arr = np.atleast_1d(s_arr).astype(float)
        right, left = self._edge_values()
        k = seg.num_segments
        # queries at the full measure must resolve to the essential infimum,
        # not fall through a 1-ulp wobble of the computed plateau value
        s_arr = np.minimum(s_arr, right[0])
        j = np.searchsorted(-left, -s_arr, side="right")
        out = np.empty_like(s_arr)
        beyond = j >= k
        out[beyond] = seg.breaks[-1]
        active = ~beyond & (s_arr > 0)
        out[~beyond & ~active] = seg.breaks[-1]
        ji = np.clip(j, 0, k - 1)
        jump = active & (right[ji] < s_arr)
        out[jump] = seg.breaks[ji[jump]]
        solve = active & ~jump
        if np.any(solve):
            js = ji[solve]
            a = seg.coeffs[js, 0] - s_arr[solve]
            b = seg.coeffs[js, 1]
            c = seg.coeffs[js, 2]
            x0 = seg.breaks[js] - seg.centers[js]
            x1 = seg.breaks[js + 1] - seg.centers[js]
            lin = np.abs(c) * np.maximum(np.abs(x0), np.abs(x1)) < 1e-14 * np.maximum(np.abs(b), 1e-300)
            with np.errstate(divide="ignore", invalid="ignore"):
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
            out[solve] = seg.centers[js] + x
        out = np.clip(out, 0.0, seg.breaks[-1])
        return float(out[0]) if scalar else out


def _segments_from_profile(prof: DecreasingProfile) -> MuSegments:
    s, y = prof.s, prof.values
    total = prof.total
    pieces = []  # (t_lo, t_hi, s_i, y_i, slope) ascending in t
    for i in range(len(s) - 2, -1, -1):
        if y[i] > y[i + 1]:
            slope = (s[i + 1] - s[i]) / (y[i + 1] - y[i])
            pieces.append((y[i + 1], y[i], s[i], y[i], slope))
    ymin = float(y[-1])
    breaks = [0.0]
    if ymin > 0.0:
        breaks.append(ymin)
    for lo, hi, *_ in pieces:
        if hi > breaks[-1]:
            if lo > breaks[-1]:
                breaks.append(lo)
            breaks.append(hi)
    breaks = np.unique(np.array(breaks))
    k = len(breaks) - 1
    centers = 0.5 * (breaks[:-1] + breaks[1:])
    coeffs = np.zeros((max(k, 0), 3))
    ptr = 0  # pieces and segments are both ascending in t
    for j in range(k):
        m = centers[j]
        if m < ymin or not pieces:
            coeffs[j] = (total, 0.0, 0.0)
            continue
        while ptr < len(pieces) - 1 and pieces[ptr][1] <= m:
            ptr += 1
        lo, hi, si, yi, slope = pieces[ptr]
        if m < lo or (m >= hi and not (j == k - 1 and hi >= breaks[-1])):
            coeffs[j] = (total, 0.0, 0.0) if m < ymin else (0.0, 0.0, 0.0)
            continue
        coeffs[j] = (si + (m - yi) * slope, slope, 0.0)
    if k == 0:  # constant zero profile is rejected upstream; keep a stub
        breaks = np.array([0.0, max(ymin, 1e-300)])
        centers = 0.5 * (breaks[:-1] + breaks[1:])
        coeffs = np.array([[total, 0.0, 0.0]])
        k = 1
    return MuSegments(breaks=breaks, centers=centers, coeffs=coeffs, total=total,
                      u_min=ymin)


def distribution_function(obj) -> DistributionFunction:
    """Distribution function of |u| for a ScalarField or DecreasingProfile.

    Radial solutions carry their own exact distribution; use their
    .distribution() (see phi_distribution) which shares this interface.
    """
    if isinstance(obj, ScalarField):
        return DistributionFunction(build_mu_segments(obj))
    if isinstance(obj, DecreasingProfile):
        return DistributionFunction(_segments_from_profile(obj))
    if hasattr(obj, "distribution"):
        return obj.distribution()
    raise RearrangeError(f"cannot build a distribution function from {type(obj)!r}")


def decreasing_rearrangement(dist, num: int = 2048) -> DecreasingProfile:
    """u* sampled on a cosine-clustered s-grid (dense near 0 and |Omega|)."""
    if isinstance(dist, ScalarField):
        dist = distribution_function(dist)
    total = dist.total_measure
    sgrid = total * 0.5 * (1.0 - np.cos(np.pi * np.linspace(0.0, 1.0, num)))
    vals = dist.ustar(sgrid)
    vals = np.minimum.accumulate(vals)
    return DecreasingProfile(s=sgrid, values=vals)


def schwarz_value(prof: DecreasingProfile, x, n: int = 2) -> float:
    """u_sharp(x) = u*(omega_n |x|^n) on the equal-measure ball."""
    x = np.asarray(x, dtype=float)
    s = unit_ball_measure(n) * np.linalg.norm(x) ** n
    if s > prof.total * (1.0 + 1e-12):
        raise RearrangeError("point lies outside the equal-measure ball")
    return float(prof(min(s, prof.total)))


# ---------------------------------------------------------------------------
# quadrature over distribution segments


def _batched_segment_integral(eval_fn, a, b, tol_scale, rel_tol=1e-12, max_rounds=14):
    """Sum of integrals over segments [a_i, b_i] of a piecewise-smooth
    integrand; eval_fn(i, t) is vectorized over matching index/point arrays.
    All segments are integrated in one Gauss 16/32 batch, and only
    offenders are bisected."""
    xg1, wg1 = _gauss(16)
    xg2, wg2 = _gauss(32)
    idx = np.arange(len(a))
    total = 0.0
    for _ in range(max_rounds):
        if len(a) == 0:
            break
        mid, half = 0.5 * (a + b), 0.5 * (b - a)
        t1 = mid[:, None] + half[:, None] * xg1[None, :]
        t2 = mid[:, None] + half[:, None] * xg2[None, :]
        j1 = np.broadcast_to(idx[:, None], t1.shape)
        j2 = np.broadcast_to(idx[:, None], t2.shape)
        i1 = half * (eval_fn(j1, t1) @ wg1)
        i2 = half * (eval_fn(j2, t2) @ wg2)
        err = np.abs(i2 - i1)
        good = err <= rel_tol * np.maximum(tol_scale, np.abs(i2)) + 1e-300
        total += float(i2[good].sum())
        bad = ~good
        a = np.concatenate([a[bad], mid[bad]])
        b = np.concatenate([mid[bad], b[bad]])
        idx = np.concatenate([idx[bad], idx[bad]])
    if len(a):
        mid, half = 0.5 * (a + b), 0.5 * (b - a)
        t2 = mid[:, None] + half[:, None] * xg2[None, :]
        j2 = np.broadcast_to(idx[:, None], t2.shape)
        total += float((half * (eval_fn(j2, t2) @ wg2)).sum())
    return total


def lorentz_power_integral(dist, p: float, q: float) -> float:
    """integral of t^(q-1) mu(t)^(q/p) dt over [0, ess sup]."""
    if hasattr(dist, "lorentz_power_integral"):
        return dist.lorentz_power_integral(p, q)
    if isinstance(dist, ScalarField):
        dist = distribution_function(dist)
    params = LorentzParams(p, q)
    breaks = np.asarray(dist.breaks, dtype=float)
    ratio = params.q / params.p
    a, b = breaks[:-1], breaks[1:]
    keep = b > a
    a, b = a[keep], b[keep]
    jmap = np.nonzero(keep)[0]
    scale = dist.total_measure ** ratio * max(dist.ess_sup, 1e-300) ** params.q
    seg = dist._seg

    if params.q >= 1.0:
        def f(i, t):
            m = seg.eval_in_segment(jmap[i], t)
            return t ** (params.q - 1.0) * m ** ratio
        total = _batched_segment_integral(f, a, b, scale)
    else:
        # substitute tau = t^q to absorb the integrable t^(q-1) weight
        def f(i, tau):
            t = tau ** (1.0 / params.q)
            m = seg.eval_in_segment(jmap[i], t)
            return m ** ratio / params.q
        total = _batched_segment_integral(f, a ** params.q, b ** params.q, scale)
    if not math.isfinite(total):
        raise RearrangeError("divergent Lorentz integral")
    return total


def lorentz_norm(dist, p: float, q: float) -> float:
    """Lorentz functional: (integral t^q mu^(q/p) dt/t)^(1/q), or
    sup_t t^p mu(t) when q = inf."""
    if math.isinf(q):
        return _lorentz_sup(dist, p)
    return lorentz_power_integral(dist, p, q) ** (1.0 / q)


def _lorentz_sup(dist, p: float) -> float:
    """sup of t^p mu(t): per segment the candidates are the endpoints (left
    limit at the right end) and the roots of p mu + t mu' = 0."""
    if isinstance(dist, ScalarField):
        dist = distribution_function(dist)
    seg = getattr(dist, "_seg", None)
    if seg is None:
        ts = np.linspace(0.0, dist.ess_sup, 8193)
        return float(np.max(ts ** p * dist.mu(ts)))
    best = 0.0
    for j in range(seg.num_segments):
        a, b = float(seg.breaks[j]), float(seg.breaks[j + 1])
        m = float(seg.centers[j])
        ca, cb, cc = seg.coeffs[j]
        cand = [a, b]
        # p mu + t mu' = 0 with mu = ca + cb x + cc x^2, t = x + m
        c2 = (p + 2.0) * cc
        c1 = (p + 1.0) * cb + 2.0 * cc * m
        c0 = p * ca + cb * m
        if abs(c2) > 0:
            disc = c1 * c1 - 4.0 * c2 * c0
            if disc >= 0:
                sq = math.sqrt(disc)
                for root in ((-c1 + sq) / (2 * c2), (-c1 - sq) / (2 * c2)):
                    t = root + m
                    if a < t < b:
                        cand.append(t)
        elif abs(c1) > 0:
            t = -c0 / c1 + m
            if a < t < b:
                cand.append(t)
        ts = np.array(cand)
        vals = ts ** p * seg.eval_in_segment(np.full(len(ts), j, dtype=int), ts)
        best = max(best, float(vals.max()))
    return best


def cavalieri_pnorm_power(dist, p: float) -> float:
    """p * integral t^(p-1) mu(t) dt, equal to the p-th power of the L^p norm."""
    return p * lorentz_power_integral(dist, p, p)


def hardy_littlewood_gap(h: ScalarField, g: ScalarField) -> float:
    """integral of h* g* ds minus integral of h g dx (nonnegative up to
    quadrature tolerance); both fields must be nonnegative on one mesh."""
    if h.mesh is not g.mesh:
        raise RearrangeError("fields must share one mesh")
    if h.u_min < 0 or g.u_min < 0:
        raise RearrangeError("Hardy-Littlewood gap expects nonnegative fields")
    tris = h.mesh.triangles
    area = h.mesh.triangle_areas()
    hv = h.values[tris]
    gv = g.values[tris]
    exact = float(np.sum(area / 12.0 * (hv.sum(axis=1) * gv.sum(axis=1) + (hv * gv).sum(axis=1))))

    dh = distribution_function(h)
    dg = distribution_function(g)
    total = dh.total_measure
    cuts = [np.array([0.0, total])]
    for d in (dh, dg):
        r, l = d._edge_values()
        cuts.extend([r, l])
    sb = np.unique(np.clip(np.concatenate(cuts), 0.0, total))
    xg, wg = _gauss(16)
    acc = 0.0
    for a, b in zip(sb, sb[1:]):
        if b <= a:
            continue
        mid, half = 0.5 * (a + b), 0.5 * (b - a)
        sg = mid + half * xg
        acc += half * float(wg @ (dh.ustar(sg) * dg.ustar(sg)))
    return acc - exact

