"""Checkers for the quantitative comparison inequalities.

All five theorems read one pair of functions: the Robin-Poisson solution u
on the domain and the symmetrized solution v on the equal-measure disc.  A
`Ladder` holds them for one (domain, beta) on a mesh ladder, computing each
piece once, and each checker is a short functional of a ladder.  A checker
computes both sides of one inequality: the gap between the
symmetrized-problem functional and the actual-solution functional on the
left, and constant * asymmetry^power on the right.  `_estimate` alone takes
the discretization error, the rung difference |gap(h) - gap(h / 2^refinements)|,
and a check passes when margin + error >= 0, so mesh error can never produce
a false failure.  The Lorentz extra `mu_le_phi_margin` is the mesh's area
deficit mu(0) - |Omega|: mu - phi at the levels below v_m, where phi =
|Omega|; it compares no level set of v.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field as dataclass_field, fields
from functools import cached_property

import numpy as np

from .domains import Domain, cached_asymmetry, domain_spec_string, equal_measure_radius
from .fem import SourceSpec, constant_source, field_integral, \
    nodal_source_field, principal_robin_eigenpair, solve_robin_poisson
from .meshing import generate_mesh, refine_mesh
from .radial import ball_torsion, bessel_eigen_oracle, symmetrized_solution
from .rearrange import DecreasingProfile, constant_profile, cosine_grid, \
    decreasing_rearrangement, distribution_function, lorentz_power_integral


class KRangeError(ValueError):
    """Lorentz exponent outside the admissible range for a theorem."""


# the theorems that take a source and a k, with the paper's bound on k for a
# generic source (1 at n = 2); a constant source admits any k > 0
K_RANGES = {"lorentz_k1": "n/(2n-2)", "lorentz_2k2": "n/(3n-4)"}


def check_k(theorem: str, k: float, f_is_constant: bool) -> None:
    """Raise KRangeError unless the Lorentz `theorem` admits k."""
    bound = math.inf if f_is_constant else 1.0
    if not 0.0 < k <= bound * (1.0 + 1e-12):
        raise KRangeError(f"{theorem}: k={k:g} outside the admissible range 0 < k <= "
                          f"{K_RANGES[theorem]} = {bound:g} at n=2")


@dataclass(frozen=True)
class ConstantsBundle:
    """Explicit constants of the quantitative inequalities."""

    c1: float
    c2: float
    c3: float
    c4: float
    c5: float


def compute_constants(measure: float, f_l1: float, beta: float, k: float,
                      gamma_n: float) -> ConstantsBundle:
    """Evaluate the displayed constant formulas at n = 2, omega_2 = pi (no
    range guard here; the checkers guard k per theorem).  Each formula keeps
    the rounding of its general-n form: 1/k + 1/n - 1 reads 1.0 / k + 0.5 - 1.0."""
    if min(measure, f_l1, beta, k, gamma_n) <= 0:
        raise ValueError("all constant inputs must be positive")
    nw = 2.0 * math.pi ** 0.5
    c1 = (measure ** (1.0 / k + 0.5 - 1.0) * f_l1 / (beta * nw)) * min(
        1.0 / (2.0 ** (1.0 / k + 5.0) * gamma_n),
        beta * measure ** 0.5 / (2.0 ** (1.0 / k + 3.0 + 1.0) * nw))
    c2 = (measure ** -0.5 * f_l1 / (beta * nw)) ** 2 * measure ** (1.0 / k) * min(
        1.0 / (2.0 ** (1.0 / k + 5.0) * gamma_n),
        beta * measure ** 0.5 / (2.0 ** (1.0 / k + 5.0 + 1.0) * nw))
    c3 = measure * min(1.0 / (2.0 ** 7 * math.pi),
                       1.0 / (2.0 ** 8 * math.pi * gamma_n))
    c4 = (measure ** 1.5 / (beta * nw)) * min(
        1.0 / (2.0 ** 6 * gamma_n),
        beta * measure ** 0.5 / (2.0 ** 5.0 * nw))
    c5 = min(1.0 / (2.0 ** 6 * gamma_n),
             beta * math.sqrt(measure) / (2.0 ** 8 * math.sqrt(math.pi))) / (
        2.0 * beta ** 2 * (measure / (2.0 * math.pi) + 1.0 / (math.pi * beta ** 2)
                           + math.sqrt(measure) / (beta * math.sqrt(math.pi))))
    return ConstantsBundle(c1=c1, c2=c2, c3=c3, c4=c4, c5=c5)


@dataclass
class TheoremReport:
    """One inequality check: gap, asymmetry, constant, margin, verdict."""

    theorem: str
    domain: str
    f: str
    beta: float
    k: float | None
    gamma_n: float
    h: float
    gap: float
    alpha: float
    alpha_err: float
    constant: float
    alpha_power: int
    rhs: float
    margin: float
    disc_error: float
    passed: bool
    extras: dict = dataclass_field(default_factory=dict)

    def row(self) -> dict:
        """Every field but alpha_power and the extras by name (k None as nan)."""
        out = {fd.name: getattr(self, fd.name) for fd in fields(self)
               if fd.name not in ("alpha_power", "extras")}
        if self.k is None:
            out["k"] = float("nan")
        return out


# ---------------------------------------------------------------------------
# shared pipeline: one Ladder per (domain, beta)


def _stretch_profile(prof: DecreasingProfile, total: float) -> DecreasingProfile:
    """Rescale the s-grid so the profile lives on [0, total] exactly (mesh
    area differs from the exact measure by the O(h^2) geometry error)."""
    return DecreasingProfile(s=prof.s * (total / prof.total), values=prof.values.copy())


def _fstar_for(domain: Domain, mesh, f: SourceSpec) -> DecreasingProfile:
    if f.kind == "const":
        return constant_profile(f.value, domain.measure)
    ffield = nodal_source_field(mesh, f)
    prof = decreasing_rearrangement(distribution_function(ffield), num=2048)
    return _stretch_profile(prof, domain.measure)


def _f_l1(domain: Domain, mesh, f: SourceSpec) -> float:
    if f.kind == "const":
        return f.value * domain.measure
    return field_integral(nodal_source_field(mesh, f))


class Ladder:
    """The Robin-Poisson problem of one (domain, beta) on the mesh ladder
    h, h/2, ... (`refinements` uniform refinements) that every theorem
    checker reads.

    Each piece is computed on first use and kept: the meshes, the solutions
    u of each source, the rungs (u, mu, v) of each source, and the principal
    eigenvalue on each mesh.  The solver hierarchy lives in the meshes'
    stores (see `fem`) as long as the meshes do: every source solves against
    one Robin matrix per mesh and one root factor, and the eigenvalues come
    from one nested pass up the meshes.  Sources are told apart by
    `f.label`, so two sources on one ladder need distinct labels.  The
    asymmetry comes from `cached_asymmetry`, whose cache runs its search
    once per domain.
    """

    def __init__(self, domain: Domain, beta: float, h: float, refinements: int = 1):
        if refinements < 1:
            raise ValueError("a ladder needs refinements >= 1: the discretization "
                             "error is the gap difference between two rungs")
        self.domain = domain
        self.beta = beta
        self.h = h
        self.refinements = refinements
        self._solutions: dict = {}
        self._rungs: dict = {}

    @cached_property
    def meshes(self) -> list:
        meshes = [generate_mesh(self.domain, self.h)]
        for _ in range(self.refinements):
            meshes.append(refine_mesh(meshes[-1]))
        return meshes

    @property
    def alpha(self):
        """Fraenkel asymmetry of the domain."""
        return cached_asymmetry(self.domain)

    def solutions(self, f: SourceSpec) -> list:
        """u on every mesh of the ladder."""
        if f.label not in self._solutions:
            self._solutions[f.label] = [solve_robin_poisson(mesh, f, self.beta)
                                        for mesh in self.meshes]
        return self._solutions[f.label]

    def rungs(self, f: SourceSpec) -> list:
        """(u, mu, v) on every mesh of the ladder: the solution, its
        distribution function, and the symmetrized solution built from the
        rearranged source f* on that mesh."""
        if f.label not in self._rungs:
            self._rungs[f.label] = [
                (u, distribution_function(u),
                 symmetrized_solution(self.domain.measure, 2, self.beta,
                                      _fstar_for(self.domain, u.mesh, f)))
                for u in self.solutions(f)]
        return self._rungs[f.label]

    @cached_property
    def eigenvalues(self) -> list:
        return [principal_robin_eigenpair(mesh, self.beta)[0] for mesh in self.meshes]


def _estimate(values) -> tuple:
    """(value, error) of a number computed on every rung: the finest rung's
    value and |first - last|, the one discretization-error rule."""
    return values[-1], abs(values[0] - values[-1])


def _report(theorem, ladder: Ladder, f_label, k, gamma_n, gaps, constant, power, extras=None):
    """Assemble a TheoremReport from the gaps on the ladder's rungs."""
    alpha = ladder.alpha
    gap, disc = _estimate(gaps)
    rhs_err = constant * power * max(alpha.value, 1e-30) ** (power - 1) * alpha.error
    err = disc + rhs_err
    rhs = constant * alpha.value ** power
    margin = gap - rhs
    return TheoremReport(
        theorem=theorem, domain=domain_spec_string(ladder.domain), f=f_label,
        beta=ladder.beta, k=k, gamma_n=gamma_n, h=ladder.h, gap=gap,
        alpha=alpha.value, alpha_err=alpha.error, constant=constant,
        alpha_power=power, rhs=rhs, margin=margin, disc_error=err,
        passed=bool(margin + err >= 0.0), extras=extras or {})


# ---------------------------------------------------------------------------
# theorem checkers


def _check_lorentz(theorem: str, ladder: Ladder, f: SourceSpec, k: float, gamma_n: float,
                   p: float, q: float, constant: str, u_min_extra: bool) -> TheoremReport:
    """Gap of the Lorentz power integrals of v and u at (p, q) on every rung
    against `constant` (c1 or c2) alpha^2; `u_min_extra` adds u_min <= v_min."""
    check_k(theorem, k, f.kind == "const")
    rungs = ladder.rungs(f)
    gaps = [rs.lorentz_power_integral(p, q) - lorentz_power_integral(dist, p, q)
            for _, dist, rs in rungs]
    u, dist, rs = rungs[-1]
    extras = {"mu_le_phi_margin": dist.mu(0.0) - rs.measure}  # the mesh's area deficit
    if u_min_extra:
        extras["u_min_le_v_min"] = bool(u.u_min <= rs.v_m + 1e-6 * rs.v_m)
    d = ladder.domain
    constants = compute_constants(d.measure, _f_l1(d, u.mesh, f), ladder.beta, k, gamma_n)
    return _report(theorem, ladder, f.label, k, gamma_n, gaps,
                   getattr(constants, constant), 2, extras)


def check_lorentz_k1(ladder: Ladder, f: SourceSpec, k: float,
                     gamma_n: float) -> TheoremReport:
    """L^(k,1) comparison: ||v|| - ||u|| >= C1 alpha^2 (functional form
    integral mu^(1/k) dt at q = 1)."""
    return _check_lorentz("lorentz_k1", ladder, f, k, gamma_n, k, 1.0, "c1", True)


def check_lorentz_2k2(ladder: Ladder, f: SourceSpec, k: float,
                      gamma_n: float) -> TheoremReport:
    """L^(2k,2) comparison of squared norms: ||v||^2 - ||u||^2 >= C2 alpha^2
    (functional form integral t mu^(1/k) dt)."""
    return _check_lorentz("lorentz_2k2", ladder, f, k, gamma_n, 2.0 * k, 2.0, "c2", False)


def check_pointwise(ladder: Ladder, gamma_n: float) -> TheoremReport:
    """Pointwise comparison at n=2, f=1: sup (v - u_sharp) >= C3 alpha^3,
    with v >= u_sharp - tolerance on the whole s-grid."""
    f = constant_source(1.0)
    total = ladder.domain.measure
    sgrid = cosine_grid(total, 2048)
    gaps = []
    for _, dist, rs in ladder.rungs(f):
        # u* lives on [0, mesh area]; compare on the common measure scale
        scale = dist.total_measure / total
        usharp = dist.ustar(np.minimum(sgrid * scale, dist.total_measure))
        diff = rs.value(sgrid) - usharp
        gaps.append(float(np.max(diff)))
    min_diff = float(np.min(diff))
    constant = compute_constants(total, total, ladder.beta, 1.0, gamma_n).c3
    extras = {"min_pointwise_diff": min_diff,
              "pointwise_domination": bool(min_diff >= -_estimate(gaps)[1] - 1e-9)}
    return _report("pointwise", ladder, f.label, None, gamma_n, gaps, constant, 3, extras)


def check_saint_venant(ladder: Ladder, gamma_n: float) -> TheoremReport:
    """Torsion comparison: T(ball) - T(Omega) >= C4 alpha^2 with
    C4 = C1(k=1, f=1)."""
    f = constant_source(1.0)
    measure = ladder.domain.measure
    t_ball = ball_torsion(equal_measure_radius(measure), ladder.beta)
    gaps = [t_ball - field_integral(u) for u in ladder.solutions(f)]
    constant = compute_constants(measure, measure, ladder.beta, 1.0, gamma_n).c4
    extras = {"torsion_ball": t_ball, "torsion_domain": t_ball - gaps[-1]}
    return _report("saint_venant", ladder, f.label, None, gamma_n, gaps, constant, 2, extras)


def check_bossel_daners(ladder: Ladder, gamma_n: float) -> TheoremReport:
    """Principal eigenvalue comparison: lambda(Omega) - lambda(ball) >= C5
    alpha^2; runs with alpha > 0.5 are flagged as outside the proof's
    small-asymmetry regime (reported, not failed)."""
    measure = ladder.domain.measure
    lam_ball = bessel_eigen_oracle(equal_measure_radius(measure), ladder.beta)
    gaps = [lam - lam_ball for lam in ladder.eigenvalues]
    constant = compute_constants(measure, measure, ladder.beta, 1.0, gamma_n).c5
    extras = {"lambda_domain": ladder.eigenvalues[-1], "lambda_ball": lam_ball,
              "in_proof_regime": bool(ladder.alpha.value <= 0.5)}
    return _report("bossel_daners", ladder, "const 1", None, gamma_n, gaps, constant, 2, extras)


CHECKERS = {
    "lorentz_k1": check_lorentz_k1,
    "lorentz_2k2": check_lorentz_2k2,
    "pointwise": check_pointwise,
    "saint_venant": check_saint_venant,
    "bossel_daners": check_bossel_daners,
}
