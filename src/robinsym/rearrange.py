"""Decreasing profiles, rearrangements, and Lorentz norms.

The distribution function mu itself is `levelset.DistributionFunction`;
`distribution_function` builds it for a field or a profile.  Norms are always
computed from mu, never from a sampled rearrangement: the theorem gaps are
differences of integrals of mu^(1/k), and inverse-sampling error would show
up directly in them.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cache

import numpy as np

from .fem import ScalarField
from .levelset import DistributionFunction, build_mu_segments
from .domains import unit_ball_measure


@cache
def _gauss(n):
    return np.polynomial.legendre.leggauss(n)


class RearrangeError(ValueError):
    pass


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
        if not (np.all(np.isfinite(self.s)) and np.all(np.isfinite(self.values))):
            raise RearrangeError("profile s and values must be finite")
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


def distribution_function(obj) -> DistributionFunction:
    """Distribution function of |u| for a ScalarField or DecreasingProfile."""
    if isinstance(obj, ScalarField):
        return build_mu_segments(obj)
    if isinstance(obj, DecreasingProfile):
        return DistributionFunction.from_profile(obj.s, obj.values)
    raise RearrangeError(f"cannot build a distribution function from {type(obj)!r}")


def decreasing_rearrangement(dist: DistributionFunction, num: int = 2048) -> DecreasingProfile:
    """u* sampled on a cosine-clustered s-grid (dense near 0 and |Omega|)."""
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


def lorentz_power_integral(dist: DistributionFunction, p: float, q: float) -> float:
    """integral of t^(q-1) mu(t)^(q/p) dt over [0, ess sup], for p > 0 and
    q >= 1.

    When q and q/p are positive integers the integrand is a polynomial of
    degree 2 q/p + q - 1 on every segment of mu, and one fixed Gauss rule per
    segment integrates it exactly; other exponents go through the adaptive
    batch."""
    if not (p > 0 and q >= 1):
        raise RearrangeError("Lorentz exponents need p > 0 and q >= 1")
    breaks = np.asarray(dist.breaks, dtype=float)
    ratio = q / p
    a, b = breaks[:-1], breaks[1:]
    keep = b > a
    a, b = a[keep], b[keep]
    jmap = np.nonzero(keep)[0]
    scale = dist.total_measure ** ratio * max(dist.ess_sup, 1e-300) ** q

    if float(q).is_integer() and float(ratio).is_integer():
        x, w = _gauss(int(2 * ratio + q - 1) // 2 + 1)
        mid, half = 0.5 * (a + b), 0.5 * (b - a)
        t = mid[:, None] + half[:, None] * x
        m = dist.eval_in_segment(jmap[:, None], t)
        total = float(half @ ((t ** (q - 1.0) * m ** ratio) @ w))
    else:
        def f(i, t):
            m = dist.eval_in_segment(jmap[i], t)
            return t ** (q - 1.0) * m ** ratio
        total = _batched_segment_integral(f, a, b, scale)
    if not math.isfinite(total):
        raise RearrangeError("divergent Lorentz integral")
    return total


def lorentz_norm(dist: DistributionFunction, p: float, q: float) -> float:
    """Lorentz functional: (integral t^q mu^(q/p) dt/t)^(1/q) for q >= 1, or
    sup_t t^p mu(t) when q = inf."""
    if math.isinf(q):
        return _lorentz_sup(dist, p)
    return lorentz_power_integral(dist, p, q) ** (1.0 / q)


def _lorentz_sup(dist: DistributionFunction, p: float) -> float:
    """sup of t^p mu(t): per segment the candidates are the endpoints (left
    limit at the right end) and the roots of p mu + t mu' = 0, all segments
    in one evaluation."""
    a, b, m = dist.breaks[:-1], dist.breaks[1:], dist.centers
    ca, cb, cc = dist.coeffs.T
    # p mu + t mu' = 0 with mu = ca + cb x + cc x^2, t = x + m
    c2 = (p + 2.0) * cc
    c1 = (p + 1.0) * cb + 2.0 * cc * m
    c0 = p * ca + cb * m
    quadratic = np.abs(c2) > 0
    disc = c1 * c1 - 4.0 * c2 * c0
    sq = np.sqrt(np.where(disc >= 0, disc, 0.0))
    den = np.where(quadratic, 2 * c2, 1.0)
    roots = [(-c1 + sq) / den + m, (-c1 - sq) / den + m,
             -c0 / np.where(c1 != 0, c1, 1.0) + m]
    real = [quadratic & (disc >= 0)] * 2 + [~quadratic & (np.abs(c1) > 0)]
    keep = [ok & (a < t) & (t < b) for t, ok in zip(roots, real)]
    j = np.arange(dist.num_segments)
    seg = np.concatenate([j, j] + [j[k] for k in keep])
    ts = np.concatenate([a, b] + [t[k] for t, k in zip(roots, keep)])
    return float(np.max(ts ** p * dist.eval_in_segment(seg, ts)))


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
        cuts.extend(d.edge_values)
    sb = np.unique(np.clip(np.concatenate(cuts), 0.0, total))
    xg, wg = _gauss(16)
    mid, half = 0.5 * (sb[1:] + sb[:-1]), 0.5 * (sb[1:] - sb[:-1])
    sg = mid[:, None] + half[:, None] * xg
    return float(half @ ((dh.ustar(sg) * dg.ustar(sg)) @ wg)) - exact

