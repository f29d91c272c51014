"""The area of a shape's overlap with a ball by vertical slices, kept as an
independent test oracle for `domains._ball_overlap`.

With F(X, Y) the length of the ball's vertical slice at X below the height
Y, the overlap is minus the closed integral of F(p) dp_x over the
counterclockwise boundary, as the area is minus that of y dx.  Each boundary
piece is cut where it crosses the circle and where its x passes x_1 +- r;
between the cuts F is 0, the whole slice 2c(X), or Y - x_2 + c(X), with
c(X) = (r^2 - (X - x_1)^2)^(1/2) integrated in closed form and Y dX by
SciPy's quad.  The cuts are sign changes on a grid of 2^16 steps of the
piece's parameter, refined by brentq, so a tangency can go unseen; the
centres the tests draw avoid them.  Not part of the package.

Two crossings inside one grid step go unseen as well, and that sets its
limit on a thin ellipse, where they crowd: at b/a = 1e-9 (a = 10^4.5) and
centre (7911.98, 0.7945) it reads 1.2247e-4 for an overlap of 7.4370e-5
(`_ball_overlap` agrees with a 40-digit slice integral cut at the crossings
to 5e-13).  It matches `_ball_overlap` to 1e-13 pi r^2 down to b/a = 1e-6,
so no test uses it on a thinner ellipse; within r beyond a thin ellipse's
tip its quad warns of roundoff, so the tests' centres there lie inside
the tip.
"""

import math

import numpy as np
from scipy.integrate import quad
from scipy.optimize import brentq


def _parametrize(piece, x):
    """(point(t) - x, dX/dt(t), parameter range) of a `Domain.boundary_pieces`
    piece; a segment is parametrized by X - x_1, so that a ball much shorter
    than it is resolved."""
    if piece[0] == "segment":
        _, a, b = piece
        ua, ub = a[0] - x[0], b[0] - x[0]
        slope = (b[1] - a[1]) / (b[0] - a[0])
        return lambda u: (u, a[1] - x[1] + (u - ua) * slope), lambda u: 1.0, (ua, ub)
    _, (cx, cy), (A, B), span = piece
    return (lambda t: (cx - x[0] + A * np.cos(t), cy - x[1] + B * np.sin(t)),
            lambda t: -A * np.sin(t), span)


def slice_overlap(domain, x, r):
    """|domain cap B_r(x)|."""

    def slice_integral(u):  # integral of c from 0 to u
        u = min(max(u, -r), r)
        c = math.sqrt((r - u) * (r + u))
        return 0.5 * (u * c + r * r * math.atan2(u, c))  # asin(u / r) loses digits at +-r

    total = 0.0
    for piece in domain.boundary_pieces():
        if piece[0] == "segment" and piece[1][0] == piece[2][0]:
            continue  # a vertical segment has no dX
        point, dx, (lo, hi) = _parametrize(piece, x)
        levels = [lambda t: np.hypot(*point(t)) - r,
                  lambda t: point(t)[0] + r, lambda t: point(t)[0] - r]
        t = np.linspace(min(lo, hi), max(lo, hi), 2 ** 16 + 1)
        cuts = [lo, hi]
        for level in levels:
            v = level(t)
            cuts += list(t[v == 0.0])
            cuts += [brentq(level, t[k], t[k + 1], xtol=1e-300, rtol=1e-15)
                     for k in np.flatnonzero(v[:-1] * v[1:] < 0.0)]
        cuts = np.unique(cuts)
        for a, b in zip(cuts[:-1], cuts[1:]):
            X, Y = point(0.5 * (a + b))
            if abs(X) >= r:
                continue
            c = math.sqrt(r * r - X * X)
            column = slice_integral(point(b)[0]) - slice_integral(point(a)[0])
            if Y >= c:
                part = 2.0 * column
            elif Y > -c:
                below, _ = quad(lambda s: point(s)[1] * dx(s), a, b,
                                epsabs=1e-16 * r * r, epsrel=1e-13)
                part = below + column
            else:
                continue
            total -= part if lo < hi else -part  # the cuts run upwards
    return total
