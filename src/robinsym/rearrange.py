"""Decreasing profiles, rearrangements, and Lorentz integrals.

The distribution function mu itself is `levelset.DistributionFunction`;
`distribution_function` builds it for a field.  Lorentz integrals are always
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
from .meshing import _blocks


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

    def cumulative(self, q):
        """Exact integral of the profile from 0 to q (piecewise quadratic)."""
        q = np.clip(np.asarray(q, dtype=float), 0.0, self.total)
        j = np.clip(np.searchsorted(self.s, q, side="right") - 1, 0, len(self.s) - 2)
        d = q - self.s[j]
        out = self._cum[j] + self.values[j] * d + 0.5 * self._slopes[j] * d * d
        return out if out.ndim else float(out)

    def export_text(self) -> str:
        return "\n".join(f"{a:.17g} {b:.17g}" for a, b in zip(self.s, self.values)) + "\n"


def constant_profile(value: float, total: float) -> DecreasingProfile:
    return DecreasingProfile(s=np.array([0.0, total]), values=np.array([value, value]))


# ---------------------------------------------------------------------------
# distribution functions


def distribution_function(obj) -> DistributionFunction:
    """Distribution function of |u| for a ScalarField."""
    if isinstance(obj, ScalarField):
        return build_mu_segments(obj)
    raise RearrangeError(f"cannot build a distribution function from {type(obj)!r}")


def cosine_grid(total: float, num: int) -> np.ndarray:
    """num points total (1 - cos(pi i / (num - 1))) / 2 on [0, total], dense
    near both ends.  Every segment [a, b] but the first has b <= 4 a (the
    ratio peaks at 4 cos^2(pi / (2 num - 2)) < 4), which the fixed Gauss rule
    of `RadialSolution.lorentz_power_integral` needs at q = 2."""
    return total * 0.5 * (1.0 - np.cos(np.pi * np.linspace(0.0, 1.0, num)))


def decreasing_rearrangement(dist: DistributionFunction, num: int = 2048) -> DecreasingProfile:
    """u* sampled on the cosine grid (dense near 0 and |Omega|)."""
    sgrid = cosine_grid(dist.total_measure, num)
    vals = dist.ustar(sgrid)
    vals = np.minimum.accumulate(vals)
    return DecreasingProfile(s=sgrid, values=vals)


# ---------------------------------------------------------------------------
# quadrature over distribution segments


# the adaptive batch bisects an offending segment at most this many times
_MAX_ROUNDS = 14


def _batched_segment_integral(eval_fn, a, b, tol_scale, rel_tol=1e-12):
    """Sum of integrals over segments [a_i, b_i] of a piecewise-smooth
    integrand; eval_fn(i, t) is vectorized over matching index/point arrays.
    All segments are integrated in one Gauss 16/32 batch, and only
    offenders are bisected, up to _MAX_ROUNDS times.  Each rule is
    evaluated one block of segments at a time into a full-length vector of
    per-segment integrals, so the tolerance test and the sums run over all
    segments as one pass would."""
    xg1, wg1 = _gauss(16)
    xg2, wg2 = _gauss(32)
    idx = np.arange(len(a))
    total = 0.0

    def rule(x, w, mid, half, idx):
        out = np.empty(len(mid))
        for j in _blocks(len(mid), len(x)):
            t = mid[j, None] + half[j, None] * x
            out[j] = half[j] * (eval_fn(np.broadcast_to(idx[j, None], t.shape), t) @ w)
        return out

    for _ in range(_MAX_ROUNDS):
        if len(a) == 0:
            break
        mid, half = 0.5 * (a + b), 0.5 * (b - a)
        i1 = rule(xg1, wg1, mid, half, idx)
        i2 = rule(xg2, wg2, mid, half, idx)
        err = np.abs(i2 - i1)
        good = err <= rel_tol * np.maximum(tol_scale, np.abs(i2)) + 1e-300
        total += float(i2[good].sum())
        bad = ~good
        a = np.concatenate([a[bad], mid[bad]])
        b = np.concatenate([mid[bad], b[bad]])
        idx = np.concatenate([idx[bad], idx[bad]])
    if len(a):
        total += float(rule(xg2, wg2, 0.5 * (a + b), 0.5 * (b - a), idx).sum())
    return total


def lorentz_power_integral(dist: DistributionFunction, p: float, q: float) -> float:
    """integral of t^(q-1) mu(t)^(q/p) dt over [0, ess sup], for p > 0 and
    q >= 1.

    When q and q/p are positive integers the integrand is a polynomial of
    degree 2 q/p + q - 1 on every segment of mu, and one fixed Gauss rule per
    segment integrates it exactly; other exponents go through the adaptive
    batch.  Both rules run one block of segments at a time."""
    if not (p > 0 and q >= 1):
        raise RearrangeError("Lorentz exponents need p > 0 and q >= 1")
    breaks = np.asarray(dist.breaks, dtype=float)
    ratio = q / p
    a, b = breaks[:-1], breaks[1:]  # b > a: the breaks come from np.unique
    scale = dist.total_measure ** ratio * max(dist.ess_sup, 1e-300) ** q

    if float(q).is_integer() and float(ratio).is_integer():
        x, w = _gauss(int(2 * ratio + q - 1) // 2 + 1)
        half = 0.5 * (b - a)
        v = np.empty(len(a))  # the integrals over the segments, divided by half
        for j in _blocks(len(a), len(x)):
            t = (0.5 * (a[j] + b[j]))[:, None] + half[j, None] * x
            m = dist.eval_in_segment(np.arange(j.start, j.stop)[:, None], t)
            v[j] = (t ** (q - 1.0) * m ** ratio) @ w
        total = float(half @ v)
    else:
        def f(i, t):
            m = dist.eval_in_segment(i, t)
            return t ** (q - 1.0) * m ** ratio
        total = _batched_segment_integral(f, a, b, scale)
    if not math.isfinite(total):
        raise RearrangeError("divergent Lorentz integral")
    return total
