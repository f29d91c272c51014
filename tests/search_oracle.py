"""The Nelder-Mead asymmetry search, kept as an independent test oracle.

It minimizes the same overlap objective as `domains._asymmetry_search`
from the same seeds, but with SciPy's derivative-free simplex method and
the tolerances the package used before the quasi-Newton search replaced
it.  It is not part of the package.
"""

import numpy as np
from scipy.optimize import minimize

from robinsym.domains import _ball_overlap, equal_measure_radius


def nelder_mead_asymmetry(segments, arcs, area, seeds):
    """(value at the best end point, evaluations)."""
    segments = segments[np.any(segments[:, 0] != segments[:, 1], axis=1)]
    r = equal_measure_radius(area)
    evaluations = 0

    def objective(x):
        nonlocal evaluations
        evaluations += 1
        return 2.0 * (1.0 - _ball_overlap(segments, arcs, x, r)[0] / area)

    ends = [minimize(objective, s, method="Nelder-Mead",
                     options=dict(xatol=1e-9, fatol=1e-13, maxiter=400, maxfev=600))
            for s in seeds]
    best = min(ends, key=lambda res: res.fun)
    return max(best.fun, 0.0), evaluations
