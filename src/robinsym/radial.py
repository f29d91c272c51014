"""The symmetrized problem on the equal-measure disc, solved in closed form.

With s = pi |x|^2 the solution of -Delta v = f_sharp with Robin boundary
data is

    v(s) = v_m + integral_s^{|Omega|} F(t) / (4 pi t) dt,
    v_m  = |Omega|^(1/2) / (2 beta pi^(1/2)) * mean of f*,

where F(t) = integral_0^t f*.  For a piecewise-linear f* every integral here
is elementary, so v and v' are exact; no FEM is involved on the disc.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .domains import _MAX_LENGTH, _MIN_LENGTH
from .meshing import _blocks
from .rearrange import DecreasingProfile, _batched_segment_integral, _gauss, constant_profile, \
    cosine_grid

# points of the fixed Gauss rule of `RadialSolution.lorentz_power_integral`
_FIXED_POINTS = 32


class RadialError(ValueError):
    pass


class OracleError(RuntimeError):
    """A closed-form oracle could not bracket its root."""


def _positive_finite(*values) -> bool:
    return all(math.isfinite(v) and v > 0 for v in values)


@dataclass
class RadialSolution:
    """Profile v over s = pi |x|^2 in [0, measure], decreasing."""

    measure: float
    beta: float
    fstar: DecreasingProfile
    v_m: float = field(init=False)
    v_M: float = field(init=False)

    def __post_init__(self):
        if not _positive_finite(self.measure, self.beta):
            raise RadialError("need finite measure > 0, finite beta > 0")
        if self.fstar.total <= 0 or self.fstar.values[0] <= 0:
            raise RadialError("f* must not be identically zero")
        if abs(self.fstar.total - self.measure) > 1e-9 * self.measure:
            raise RadialError("f* must live on [0, measure]")
        self._cn = 4.0 * math.pi
        s = self.fstar.s
        f = self.fstar.values
        slopes, fcum = self.fstar._slopes, self.fstar._cum  # of f*, and F at its breaks
        # F(t) = q0 + q1 t + q2 t^2 on segment i (monomial basis)
        self._q2 = 0.5 * slopes
        self._q1 = f[:-1] - slopes * s[:-1]
        self._q0 = fcum[:-1] - f[:-1] * s[:-1] + 0.5 * slopes * s[:-1] ** 2
        self._q0[0] = 0.0  # F(0) = 0 exactly on the first segment
        self._s = s
        self.v_m = self.measure ** 0.5 / (self.beta * 2.0 * math.pi ** 0.5) \
            * (fcum[-1] / self.measure)
        w_right = self._antiderivative(s[1:], np.arange(len(s) - 1))
        w_left = self._antiderivative(s[:-1], np.arange(len(s) - 1))
        seg_int = w_right - w_left
        back = np.concatenate([np.cumsum(seg_int[::-1])[::-1], [0.0]])
        self._w_at_breaks = back  # W(s_i) = integral_{s_i}^{S} g
        self.v_M = self.v_m + float(back[0])

    # -- elementary integrals ------------------------------------------------

    def _antiderivative(self, t, j):
        """Antiderivative of g(t) = F(t) / (c t) on segment j at t, c = 4 pi:
        (q0 ln t + q1 t + q2 t^2 / 2) / c."""
        q0, q1, q2 = self._q0[j], self._q1[j], self._q2[j]
        tt = np.maximum(t, 1e-300)  # t = 0 only occurs where q0 = 0 exactly
        t0 = np.where(q0 != 0.0, q0 * np.log(tt), 0.0)
        return (t0 + q1 * tt + q2 * tt ** 2.0 / 2.0) / self._cn

    def _locate(self, s):
        return np.clip(np.searchsorted(self._s, s, side="right") - 1, 0, len(self._s) - 2)

    def slope_g(self, s):
        """g(s) = F(s) / (c s) = -v'(s), c = 4 pi; nonnegative."""
        s = np.asarray(s, dtype=float)
        F = self.fstar.cumulative(s)
        out = F * np.maximum(s, 1e-300) ** -1.0 / self._cn
        # at s = 0 the quotient F(s) / s tends to f*(0)
        return np.where(s <= 0.0, self.fstar.values[0] / self._cn, out)

    def value(self, s):
        """v(s), vectorized; s outside [0, measure] is clamped."""
        s = np.clip(np.asarray(s, dtype=float), 0.0, self.measure)
        j = self._locate(s)
        w = self._w_at_breaks[j + 1] + (self._antiderivative(self._s[j + 1], j)
                                        - self._antiderivative(s, j))
        out = self.v_m + w
        return out if out.ndim else float(out)

    # -- norms and export -----------------------------------------------------

    def lorentz_power_integral(self, p: float, q: float) -> float:
        """integral t^(q-1) phi^(q/p) dt, phi(t) = |{v > t}|, via the
        substitution t = v(s).

        With q in {1, 2} and r = q/p an integer, one fixed 32-point Gauss
        rule per f* segment [a, b] integrates v^(q-1) s^r g = v^(q-1) s^(r-1)
        F(s)/c.  For q = 1 that is a polynomial of degree r + 1, so
        the rule is exact.  For q = 2, v adds q0 ln s on segments with
        q0 != 0, which all have a > 0; where b <= 4 a the integrand is
        analytic inside the Bernstein ellipse rho = 3, and the rule converges
        to about 3^-64 (Trefethen, SIAM Rev. 50, 2008, Thm 4.5).  Both need
        the polynomial degree r + 2q - 1 below 64.  Other exponents and
        grids go through the adaptive batch.  Both rules run one block of
        segments at a time, so their working set does not grow with f*."""
        if p <= 0 or q <= 0:
            raise RadialError("Lorentz exponents must be positive")
        plateau = self.measure ** (q / p) * self.v_m ** q / q
        ratio = q / p
        if self._fixed_rule_holds(q, ratio):
            return plateau + self._fixed_rule_integral(q, int(ratio))
        scale = self.measure ** ratio * self.v_M ** q

        def f(_, s):
            return self.value(s) ** (q - 1.0) * s ** ratio * self.slope_g(s)

        acc = _batched_segment_integral(f, self._s[:-1].astype(float),
                                        self._s[1:].astype(float), scale, 1e-13)
        return plateau + acc

    def _fixed_rule_holds(self, q: float, ratio: float) -> bool:
        """Whether `_fixed_rule_integral` is exact (q = 1) or converged (q = 2)."""
        if q not in (1.0, 2.0) or not ratio.is_integer():
            return False
        if ratio + 2.0 * q - 1.0 > 2 * _FIXED_POINTS - 1:
            return False
        logs = self._q0 != 0.0
        return q == 1.0 or bool(np.all(self._s[1:][logs] <= 4.0 * self._s[:-1][logs]))

    def _fixed_rule_integral(self, q: float, r: int) -> float:
        """integral of v^(q-1) s^(r-1) F(s)/c over [0, measure], one
        32-point Gauss rule per f* segment, evaluated one block of segments
        at a time (`_blocks` of width 32)."""
        x, w = _gauss(_FIXED_POINTS)
        a, b = self._s[:-1], self._s[1:]
        mid, half = 0.5 * (a + b), 0.5 * (b - a)
        if q == 2.0:
            # on segment j, v(s) = v(b_j) + A_j(b_j) - A_j(s), A_j = `_antiderivative`
            shift = self.v_m + self._w_at_breaks[1:] + self._antiderivative(b, np.arange(len(a)))
        v = np.empty(len(a))  # the rule on each segment, divided by half
        for j in _blocks(len(a), _FIXED_POINTS):
            t = mid[j, None] + half[j, None] * x
            y = t ** (r - 1) * (self._q0[j, None] + t * (self._q1[j, None]
                                                          + t * self._q2[j, None]))
            if q == 2.0:
                y *= shift[j, None] - self._antiderivative(t, np.arange(j.start, j.stop)[:, None])
            v[j] = y @ w
        return float(half @ v) / self._cn

    def profile(self, num: int = 2048) -> DecreasingProfile:
        """v sampled at num >= 2 points of the cosine grid."""
        if num < 2:
            raise RadialError(f"a profile needs at least 2 samples, got {num}")
        sg = cosine_grid(self.measure, num)
        return DecreasingProfile(s=sg, values=self.value(sg))

    def export_text(self, num: int = 2048) -> str:
        return self.profile(num).export_text()


def symmetrized_solution(measure: float, n: int, beta: float,
                         fstar: DecreasingProfile) -> RadialSolution:
    """Solution profile of the symmetrized problem from the rearranged datum (n = 2)."""
    if n != 2:
        raise RadialError(f"the symmetrized problem is planar: n must be 2, got {n!r}")
    return RadialSolution(measure=measure, beta=beta, fstar=fstar)


def symmetrized_constant_source(measure: float, beta: float) -> RadialSolution:
    return symmetrized_solution(measure, 2, beta, constant_profile(1.0, measure))


# ---------------------------------------------------------------------------
# disc oracles


def ball_closed_forms(R: float, beta: float):
    """(radial profile u(r), torsion) for f = 1 on the disc of radius R:
    u(r) = (R^2 - r^2)/4 + R/(2 beta), T = pi R^4/8 + pi R^3/(2 beta)."""
    if not (_positive_finite(beta) and _MIN_LENGTH <= R <= _MAX_LENGTH):  # keeps R^4 finite
        raise RadialError(f"R and beta must be positive and finite, R in "
                          f"[{_MIN_LENGTH:g}, {_MAX_LENGTH:g}]")

    def u(r):
        return (R * R - np.asarray(r, dtype=float) ** 2) / 4.0 + R / (2.0 * beta)

    torsion = math.pi * R ** 4 / 8.0 + math.pi * R ** 3 / (2.0 * beta)
    return u, torsion


def ball_torsion(R: float, beta: float) -> float:
    return ball_closed_forms(R, beta)[1]


# the first zero of J0, and the number of power-series terms that give J0
# and J1 to rounding on [0, _J0_FIRST_ZERO]: there |x^2/4| <= 1.45, and the
# first term left out is below 1.45^15 / (14! 15!) < 1e-20
_J0_FIRST_ZERO = 2.404825557695773  # correctly rounded
_BESSEL_TERMS = 14


def _bessel_j0_j1(x: float):
    """(J0(x), J1(x)) by their power series in Horner form, for 0 <= x <=
    _J0_FIRST_ZERO: J0 = sum_k q^k / k!^2 and J1 = (x/2) sum_k q^k / (k! (k+1)!),
    q = -x^2/4."""
    q = -0.25 * x * x
    s0 = s1 = 1.0
    for k in range(_BESSEL_TERMS, 0, -1):
        s0 = 1.0 + s0 * q / (k * k)
        s1 = 1.0 + s1 * q / (k * (k + 1))
    return s0, 0.5 * x * s1


def bessel_eigen_oracle(R: float, beta: float) -> float:
    """Smallest lambda with -sqrt(lambda) J1(sqrt(lambda) R) + beta J0(...) = 0.

    This is the principal Robin eigenvalue of the disc of radius R; it lies
    strictly below the Dirichlet value (j_{0,1}/R)^2, which brackets the root.
    The bracket is bisected down to adjacent floating-point numbers, with
    J0 and J1 from their power series (`_bessel_j0_j1`).
    """
    if not (_positive_finite(beta) and _MIN_LENGTH <= R <= _MAX_LENGTH):  # keeps (j01/R)^2 finite
        raise RadialError(f"R and beta must be positive and finite, R in "
                          f"[{_MIN_LENGTH:g}, {_MAX_LENGTH:g}]")
    hi = (_J0_FIRST_ZERO / R) ** 2

    def fn(lam):
        rt = math.sqrt(lam)
        j0, j1 = _bessel_j0_j1(rt * R)
        return -rt * j1 + beta * j0

    if not (fn(0.0) > 0.0 > fn(hi)):
        raise OracleError("failed to bracket the principal Robin eigenvalue")
    lo = 0.0
    while True:
        mid = 0.5 * (lo + hi)
        if not lo < mid < hi:
            return hi
        if fn(mid) > 0.0:
            lo = mid
        else:
            hi = mid
