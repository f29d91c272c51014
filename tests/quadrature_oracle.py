"""The segment x Gauss point quadratures over all segments at once, kept as
an independent test oracle.

The package evaluates these rules one block of segments at a time; the
per-segment dot products and the final sums are the same, so its results
must equal these bit for bit at any block size.  Not part of the package.
"""

import numpy as np

from robinsym.radial import _FIXED_POINTS, RadialSolution
from robinsym.rearrange import _MAX_ROUNDS, _gauss


def segment_batch(eval_fn, a, b, tol_scale, rel_tol=1e-12):
    """The adaptive Gauss 16/32 batch of `rearrange._batched_segment_integral`,
    each round evaluating both rules on all segments in one array."""
    xg1, wg1 = _gauss(16)
    xg2, wg2 = _gauss(32)
    idx = np.arange(len(a))
    total = 0.0
    for _ in range(_MAX_ROUNDS):
        if len(a) == 0:
            break
        mid, half = 0.5 * (a + b), 0.5 * (b - a)
        t1 = mid[:, None] + half[:, None] * xg1[None, :]
        t2 = mid[:, None] + half[:, None] * xg2[None, :]
        i1 = half * (eval_fn(np.broadcast_to(idx[:, None], t1.shape), t1) @ wg1)
        i2 = half * (eval_fn(np.broadcast_to(idx[:, None], t2.shape), t2) @ wg2)
        good = np.abs(i2 - i1) <= rel_tol * np.maximum(tol_scale, np.abs(i2)) + 1e-300
        total += float(i2[good].sum())
        bad = ~good
        a, b = np.concatenate([a[bad], mid[bad]]), np.concatenate([mid[bad], b[bad]])
        idx = np.concatenate([idx[bad], idx[bad]])
    if len(a):
        mid, half = 0.5 * (a + b), 0.5 * (b - a)
        t2 = mid[:, None] + half[:, None] * xg2[None, :]
        total += float((half * (eval_fn(np.broadcast_to(idx[:, None], t2.shape), t2)
                                @ wg2)).sum())
    return total


def radial_fixed_rule(rs: RadialSolution, q: float, r: int) -> float:
    """`RadialSolution._fixed_rule_integral` with the 32-point rule on
    every f* segment in one (segments x points) array."""
    x, w = _gauss(_FIXED_POINTS)
    a, b = rs._s[:-1], rs._s[1:]
    mid, half = 0.5 * (a + b), 0.5 * (b - a)
    t = mid[:, None] + half[:, None] * x
    y = t ** (r - 1) * (rs._q0[:, None] + t * (rs._q1[:, None] + t * rs._q2[:, None]))
    if q == 2.0:
        j = np.arange(len(a))
        shift = rs.v_m + rs._w_at_breaks[1:] + rs._antiderivative(b, j)
        y *= shift[:, None] - rs._antiderivative(t, j[:, None])
    return float(half @ (y @ w)) / rs._cn
