"""The superlevel measure mu(t) = |{u > t}| of a P1 field, and the one
distribution-function class.

mu is piecewise quadratic in the level t with breakpoints at nodal values;
it is a `DistributionFunction`, which also inverts mu (`ustar`).  The segment
coefficients are kept in a basis centered at each segment's midpoint, where
a triangle's contribution to mu is bounded by its area.  Its coefficients
are not: two nodal values a rounding apart (common on symmetric meshes)
give a huge quadratic coefficient, which enters the running sums at its
first break and leaves at its last, and the cancellation leaves about eps
times it behind in every later segment.  On the 25.9k-node disc (h = 0.1,
refined twice) mu is off the exact superlevel area by up to 5.1e-9.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .fem import ScalarField
from .meshing import _blocks, _corners


@dataclass
class DistributionFunction:
    """Nonincreasing right-continuous t -> mu(t) = |{u > t}|, piecewise
    quadratic: mu(t) = a + b (t - m) + c (t - m)^2 on [breaks[j], breaks[j+1])
    with m = center(j) and (a, b, c) = coeffs[j] (`build_mu_segments`).

    Only the breaks and the coefficients are kept: a segment's midpoint is
    computed from the breaks where it is used, and the edge values that
    `ustar` searches are computed on each call, since each distribution is
    inverted once per use."""

    breaks: np.ndarray    # K+1 ascending, breaks[0] = 0
    coeffs: np.ndarray    # (K, 3) local (a, b, c)
    total_measure: float
    ess_inf: float

    @property
    def num_segments(self) -> int:
        return len(self.coeffs)

    def center(self, j):
        """The midpoint of segment j (an index, index array or slice), the m
        of its local basis."""
        return 0.5 * (self.breaks[:-1][j] + self.breaks[1:][j])

    @property
    def ess_sup(self) -> float:
        return float(self.breaks[-1])

    def locate(self, t):
        return np.clip(np.searchsorted(self.breaks, t, side="right") - 1, 0,
                       self.num_segments - 1)

    def eval_in_segment(self, j, t):
        x = t - self.center(j)
        a, b, c = self.coeffs[j, 0], self.coeffs[j, 1], self.coeffs[j, 2]
        return np.clip(a + b * x + c * x * x, 0.0, self.total_measure)

    def mu(self, t):
        t = np.asarray(t, dtype=float)
        j = self.locate(t)
        out = self.eval_in_segment(j, t)
        out = np.where(t < self.breaks[0], self.total_measure, out)
        out = np.where(t >= self.breaks[-1], 0.0, out)
        return out if out.ndim else float(out)

    @property
    def edge_values(self):
        """(right limits at segment starts, left limits at segment ends),
        made monotone in scan order against rounding wobble; computed anew
        on each access."""
        right, left = np.empty(self.num_segments), np.empty(self.num_segments)
        for j in _blocks(self.num_segments):
            right[j] = self.eval_in_segment(j, self.breaks[j])
            left[j] = self.eval_in_segment(j, self.breaks[j.start + 1:j.stop + 1])
        np.minimum.accumulate(right, out=right)
        np.minimum.accumulate(left, out=left)
        return right, np.minimum(left, right, out=left)

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
            m = self.center(js)
            x0 = self.breaks[js] - m
            x1 = self.breaks[js + 1] - m
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
            out[solve] = m + x
        out = np.clip(out, 0.0, self.breaks[-1])
        return float(out[0]) if scalar else out


def _event_sums(i1, i2, i3, area, breaks, centers):
    """The start and end event sums of build_mu_segments, each (3, k).

    A triangle with ascending break indices i1 <= i2 <= i3 adds gamma (t -
    theta)^2 + alpha to mu on the pieces between consecutive indices si <
    ei: (0, i1) where i1 > 0, then (i1, i2) and (i2, i3) where nonempty.  A
    piece's start event expands it about the center of the segment it
    enters, its end event about the center of the segment it leaves, each
    as the three sums gamma d^2 + alpha, 2 gamma d and gamma, d = m - theta.
    np.add.at adds in order, as one bincount over all pieces of the first
    kind, then the second, then the third would; in `_blocks` of
    triangles, no piece array is longer than one block.
    """
    add, sub = np.zeros((3, len(breaks))), np.zeros((3, len(breaks)))

    def events(sums, idx, m, gamma, theta, alpha):
        d = m - theta
        gd = gamma * d
        np.add.at(sums[0], idx, d * gd + alpha)
        np.add.at(sums[1], idx, 2.0 * gd)
        np.add.at(sums[2], idx, gamma)

    for piece in range(3):
        for block in _blocks(len(area)):
            j1, j2, j3, a = i1[block], i2[block], i3[block], area[block]
            if piece == 0:
                # gamma = 0 and theta = 0: only the area, at break 0 and at i1
                on = j1 > 0
                np.add.at(add[0], np.zeros_like(j1[on]), a[on])
                np.add.at(sub[0], j1[on], a[on])
                continue
            if piece == 1:
                # theta = v1; a nonempty piece has v1 < v2, so no divisor is zero
                on = j2 > j1
                si, ei, a = j1[on], j2[on], a[on]
                theta = breaks[si]
                gamma = -a / ((breaks[ei] - theta) * (breaks[j3[on]] - theta))
            else:
                # theta = v3, and v2 < v3
                on = j3 > j2
                si, ei, a = j2[on], j3[on], a[on]
                theta = breaks[ei]
                gamma = a / ((theta - breaks[si]) * (theta - breaks[j1[on]]))
                a = 0.0
            events(add, si, centers[si], gamma, theta, a)
            events(sub, ei, centers[ei - 1], gamma, theta, a)
    return add[:, :-1], sub[:, :-1]  # bin k holds ends at the top break, past every segment


def build_mu_segments(u: ScalarField) -> DistributionFunction:
    """mu of |u| for a P1 field, piecewise quadratic.

    The nodal values are first snapped to multiples of 1e-12 max|u|, so
    that values equal up to rounding share one breakpoint; mu is then exact
    for the snapped field, and up to about 1e-12 relative off the exact
    superlevel area of u itself.
    """
    vals = np.abs(u.values)
    vmax = float(vals.max())
    if vmax <= 0.0:
        raise ValueError("field is identically zero")
    snap = vmax * 1e-12
    vals = np.round(vals / snap) * snap
    breaks, inverse = np.unique(np.concatenate([[0.0], vals]), return_inverse=True)
    ess_inf = float(vals.min())
    del vals
    # break indices of each triangle's nodal values, ascending, by a
    # three-element min/max sorting network; int32, since there are at most
    # as many breaks as nodes
    inverse = inverse[1:].astype(np.int32)
    tris = u.mesh.triangles
    a, b, c = abc = np.empty((3, len(tris)), dtype=np.int32)
    for j in _blocks(len(tris)):
        abc[:, j] = inverse[_corners(tris, j)]
    del inverse, abc
    i1, b = np.minimum(a, b), np.maximum(a, b)
    b, i3 = np.minimum(b, c), np.maximum(b, c)
    i1, i2 = np.minimum(i1, b), np.maximum(i1, b)
    del a, b, c
    area = u.mesh.triangle_areas()
    k = len(breaks) - 1
    centers = 0.5 * (breaks[:-1] + breaks[1:])
    total = float(area.sum())

    add, sub = _event_sums(i1, i2, i3, area, breaks, centers)
    del i1, i2, i3, area

    # Running sums over the segments, shifted to each segment's center by
    # a += b dlt + c dlt^2 and b += 2 c dlt after the events that end there
    # and before those that start there.  cumsum adds in sequence, so
    # interleaving the three steps of each segment repeats that recurrence's
    # roundings exactly; a block's first step adds the sum the block before
    # ended with, the same addition one cumsum over all segments makes.
    coeffs = np.empty((k, 3))

    def run(j, col, *steps):
        """coeffs[j, col] = the running sum after each segment's last step;
        returns the sums after its first."""
        s = np.stack(steps, axis=1)
        if j.start:
            s[0, 0] += coeffs[j.start - 1, col]
        np.cumsum(s, out=s.ravel())
        coeffs[j, col] = s[:, -1]
        return s[:, 0]

    for j in _blocks(k):
        dlt = np.diff(centers[j], prepend=centers[max(j.start - 1, 0)])
        c_sub = run(j, 2, -sub[2, j], add[2, j])
        b_sub = run(j, 1, -sub[1, j], 2.0 * c_sub * dlt, add[1, j])
        run(j, 0, -sub[0, j], b_sub * dlt + c_sub * dlt * dlt, add[0, j])
    return DistributionFunction(breaks=breaks, coeffs=coeffs, total_measure=total,
                                ess_inf=ess_inf)
