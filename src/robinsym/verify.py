"""Checkers for the quantitative comparison inequalities.

All five theorems read one pair of functions: the Robin-Poisson solution u
on the domain and the symmetrized solution v on the equal-measure disc.  A
`Ladder` holds them for one (domain, beta) on a mesh ladder, computing each
piece once, and each checker is a short functional of a ladder.  A checker
computes both sides of one inequality: the gap between the
symmetrized-problem functional and the actual-solution functional on the
left, and constant * asymmetry^power on the right.  Discretization error is
estimated by one uniform refinement (Richardson step), and a check passes
when margin + error >= 0, so mesh error can never produce a false failure.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field as dataclass_field
from functools import cached_property

import numpy as np

from .domains import Domain, cached_asymmetry, domain_spec_string, equal_measure_radius, \
    isoperimetric_deficit, unit_ball_measure
from .fem import ScalarField, SourceSpec, constant_source, field_integral, \
    nodal_source_field, principal_robin_eigenpair, solve_robin_poisson
from .levelset import superlevel_asymmetry
from .meshing import generate_mesh, refine_mesh
from .radial import ball_torsion, bessel_eigen_oracle, symmetrized_solution
from .rearrange import DecreasingProfile, constant_profile, decreasing_rearrangement, \
    distribution_function, lorentz_power_integral


class KRangeError(ValueError):
    """Lorentz exponent outside the admissible range for a theorem."""


def k_range_lorentz_k1(n: int, f_is_constant: bool) -> float:
    """Admissible upper bound for k in the L^(k,1) comparison."""
    if f_is_constant:
        return math.inf if n == 2 else n / (n - 2.0)
    return n / (2.0 * n - 2.0)


def k_range_lorentz_2k2(n: int, f_is_constant: bool) -> float:
    """Admissible upper bound for k in the L^(2k,2) comparison."""
    if f_is_constant:
        return math.inf if n == 2 else n / (n - 2.0)
    return n / (3.0 * n - 4.0)


def _guard_k(k: float, bound: float, label: str, n: int, denom: str):
    if not 0.0 < k <= bound * (1.0 + 1e-12):
        raise KRangeError(
            f"{label}: k={k:g} outside the admissible range 0 < k <= n/({denom})"
            f" = {bound:g} at n={n}")


@dataclass(frozen=True)
class ConstantsBundle:
    """Explicit constants of the quantitative inequalities."""

    n: int
    measure: float
    f_l1: float
    beta: float
    k: float
    gamma_n: float
    c1: float
    c2: float
    c3: float | None
    c4: float
    c5: float | None


def compute_constants(n: int, measure: float, f_l1: float, beta: float, k: float,
                      gamma_n: float) -> ConstantsBundle:
    """Evaluate the displayed constant formulas (no range guard here; the
    checkers guard k per theorem)."""
    if min(measure, f_l1, beta, k, gamma_n) <= 0:
        raise ValueError("all constant inputs must be positive")
    omega = unit_ball_measure(n)
    nw = n * omega ** (1.0 / n)
    c1 = (measure ** (1.0 / k + 1.0 / n - 1.0) * f_l1 / (beta * nw)) * min(
        1.0 / (2.0 ** (1.0 / k + 5.0) * gamma_n),
        beta * measure ** (1.0 / n) / (2.0 ** (1.0 / k + 3.0 + 2.0 / n) * nw))
    c2 = (measure ** (1.0 / n - 1.0) * f_l1 / (beta * nw)) ** 2 * measure ** (1.0 / k) * min(
        1.0 / (2.0 ** (1.0 / k + 5.0) * gamma_n),
        beta * measure ** (1.0 / n) / (2.0 ** (1.0 / k + 5.0 + 2.0 / n) * nw))
    c3 = None
    c5 = None
    if n == 2:
        c3 = measure * min(1.0 / (2.0 ** 7 * math.pi),
                           1.0 / (2.0 ** 8 * math.pi * gamma_n))
        c5 = min(1.0 / (2.0 ** 6 * gamma_n),
                 beta * math.sqrt(measure) / (2.0 ** 8 * math.sqrt(math.pi))) / (
            2.0 * beta ** 2 * (measure / (2.0 * math.pi) + 1.0 / (math.pi * beta ** 2)
                               + math.sqrt(measure) / (beta * math.sqrt(math.pi))))
    c4 = (measure ** (1.0 + 1.0 / n) / (beta * nw)) * min(
        1.0 / (2.0 ** 6 * gamma_n),
        beta * measure ** (1.0 / n) / (2.0 ** (4.0 + 2.0 / n) * nw))
    return ConstantsBundle(n=n, measure=measure, f_l1=f_l1, beta=beta, k=k,
                           gamma_n=gamma_n, c1=c1, c2=c2, c3=c3, c4=c4, c5=c5)


@dataclass
class TheoremReport:
    """One inequality check: gap, asymmetry, constant, margin, verdict."""

    theorem: str
    domain_spec: str
    f_label: str
    beta: float
    k: float | None
    gamma_n: float
    h: float
    lhs_gap: float
    asymmetry: float
    asymmetry_error: float
    constant: float
    alpha_power: int
    rhs: float
    margin: float
    disc_error: float
    passed: bool
    extras: dict = dataclass_field(default_factory=dict)

    def row(self) -> dict:
        out = {
            "theorem": self.theorem,
            "domain": self.domain_spec,
            "f": self.f_label,
            "beta": self.beta,
            "k": float("nan") if self.k is None else self.k,
            "gamma_n": self.gamma_n,
            "h": self.h,
            "gap": self.lhs_gap,
            "alpha": self.asymmetry,
            "alpha_err": self.asymmetry_error,
            "constant": self.constant,
            "rhs": self.rhs,
            "margin": self.margin,
            "disc_error": self.disc_error,
            "passed": self.passed,
        }
        out.update({k: v for k, v in self.extras.items() if isinstance(v, (int, float, bool))})
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
    eigenvalue on each mesh (no eigenvector is kept).  Sources are told apart
    by `f.label`, so two sources on one ladder need distinct labels.  The
    asymmetry comes from `cached_asymmetry`, whose cache runs its search once
    per domain.
    """

    def __init__(self, domain: Domain, beta: float, h: float, refinements: int = 1):
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


def _mu_le_phi_margin(dist, rs) -> float:
    """max over t <= v_m of mu(t) - phi(t); should be <= discretization slack."""
    ts = np.linspace(0.0, rs.v_m * (1.0 - 1e-9), 64)
    return float(np.max(dist.mu(ts) - rs.phi(ts)))


def _report(theorem, ladder: Ladder, f_label, k, gamma_n, gaps, alpha, constant, power,
            extras=None):
    """Assemble a TheoremReport from the Richardson gap ladder."""
    gap = gaps[-1]
    disc = abs(gaps[0] - gaps[-1]) if len(gaps) > 1 else abs(gaps[0]) * 1e-2
    rhs_err = constant * power * max(alpha.value, 1e-30) ** (power - 1) * alpha.error
    err = disc + rhs_err
    rhs = constant * alpha.value ** power
    margin = gap - rhs
    return TheoremReport(
        theorem=theorem, domain_spec=domain_spec_string(ladder.domain), f_label=f_label,
        beta=ladder.beta, k=k, gamma_n=gamma_n, h=ladder.h, lhs_gap=gap,
        asymmetry=alpha.value, asymmetry_error=alpha.error, constant=constant,
        alpha_power=power, rhs=rhs, margin=margin, disc_error=err,
        passed=bool(margin + err >= 0.0), extras=extras or {})


# ---------------------------------------------------------------------------
# theorem checkers


def check_lorentz_k1(ladder: Ladder, f: SourceSpec, k: float,
                     gamma_n: float) -> TheoremReport:
    """L^(k,1) comparison: ||v|| - ||u|| >= C1 alpha^2 (functional form
    integral mu^(1/k) dt at q = 1)."""
    _guard_k(k, k_range_lorentz_k1(2, f.kind == "const"), "lorentz_k1", 2, "2n-2")
    alpha = ladder.alpha
    rungs = ladder.rungs(f)
    gaps = [rs.lorentz_power_integral(k, 1.0) - lorentz_power_integral(dist, k, 1.0)
            for _, dist, rs in rungs]
    u, dist, rs = rungs[-1]
    extras = {"mu_le_phi_margin": _mu_le_phi_margin(dist, rs),
              "u_min_le_v_min": bool(u.u_min <= rs.v_m + 1e-6 * rs.v_m)}
    d = ladder.domain
    constant = compute_constants(2, d.measure, _f_l1(d, u.mesh, f), ladder.beta, k,
                                 gamma_n).c1
    return _report("lorentz_k1", ladder, f.label, k, gamma_n, gaps, alpha, constant, 2,
                   extras)


def check_lorentz_2k2(ladder: Ladder, f: SourceSpec, k: float,
                      gamma_n: float) -> TheoremReport:
    """L^(2k,2) comparison of squared norms: ||v||^2 - ||u||^2 >= C2 alpha^2
    (functional form integral t mu^(1/k) dt)."""
    _guard_k(k, k_range_lorentz_2k2(2, f.kind == "const"), "lorentz_2k2", 2, "3n-4")
    alpha = ladder.alpha
    rungs = ladder.rungs(f)
    gaps = [rs.lorentz_power_integral(2.0 * k, 2.0)
            - lorentz_power_integral(dist, 2.0 * k, 2.0) for _, dist, rs in rungs]
    u, dist, rs = rungs[-1]
    extras = {"mu_le_phi_margin": _mu_le_phi_margin(dist, rs)}
    d = ladder.domain
    constant = compute_constants(2, d.measure, _f_l1(d, u.mesh, f), ladder.beta, k,
                                 gamma_n).c2
    return _report("lorentz_2k2", ladder, f.label, k, gamma_n, gaps, alpha, constant, 2,
                   extras)


def check_pointwise(ladder: Ladder, gamma_n: float) -> TheoremReport:
    """Pointwise comparison at n=2, f=1: sup (v - u_sharp) >= C3 alpha^3,
    with v >= u_sharp - tolerance on the whole s-grid."""
    f = constant_source(1.0)
    alpha = ladder.alpha
    total = ladder.domain.measure
    sgrid = total * 0.5 * (1.0 - np.cos(np.pi * np.linspace(0.0, 1.0, 2048)))
    gaps = []
    for _, dist, rs in ladder.rungs(f):
        # u* lives on [0, mesh area]; compare on the common measure scale
        scale = dist.total_measure / total
        usharp = dist.ustar(np.minimum(sgrid * scale, dist.total_measure))
        diff = rs.value(sgrid) - usharp
        gaps.append(float(np.max(diff)))
    min_diff = float(np.min(diff))
    constant = compute_constants(2, total, total, ladder.beta, 1.0, gamma_n).c3
    extras = {"min_pointwise_diff": min_diff,
              "pointwise_domination": bool(min_diff >= -abs(gaps[0] - gaps[-1]) - 1e-9)}
    return _report("pointwise", ladder, f.label, None, gamma_n, gaps, alpha, constant, 3,
                   extras)


def check_saint_venant(ladder: Ladder, gamma_n: float) -> TheoremReport:
    """Torsion comparison: T(ball) - T(Omega) >= C4 alpha^2 with
    C4 = C1(k=1, f=1)."""
    f = constant_source(1.0)
    alpha = ladder.alpha
    measure = ladder.domain.measure
    t_ball = ball_torsion(equal_measure_radius(measure), ladder.beta)
    gaps = [t_ball - field_integral(u) for u in ladder.solutions(f)]
    constant = compute_constants(2, measure, measure, ladder.beta, 1.0, gamma_n).c4
    extras = {"torsion_ball": t_ball, "torsion_domain": t_ball - gaps[-1]}
    return _report("saint_venant", ladder, f.label, None, gamma_n, gaps, alpha, constant,
                   2, extras)


def check_bossel_daners(ladder: Ladder, gamma_n: float) -> TheoremReport:
    """Principal eigenvalue comparison: lambda(Omega) - lambda(ball) >= C5
    alpha^2; runs with alpha > 0.5 are flagged as outside the proof's
    small-asymmetry regime (reported, not failed)."""
    alpha = ladder.alpha
    measure = ladder.domain.measure
    lam_ball = bessel_eigen_oracle(equal_measure_radius(measure), ladder.beta)
    gaps = [lam - lam_ball for lam in ladder.eigenvalues]
    constant = compute_constants(2, measure, measure, ladder.beta, 1.0, gamma_n).c5
    extras = {"lambda_domain": ladder.eigenvalues[-1], "lambda_ball": lam_ball,
              "in_proof_regime": bool(alpha.value <= 0.5)}
    return _report("bossel_daners", ladder, "const 1", None, gamma_n, gaps, alpha, constant,
                   2, extras)


# ---------------------------------------------------------------------------
# supporting geometric checks


@dataclass
class IsoperimetricReport:
    domain_spec: str
    perimeter: float
    measure: float
    asymmetry: float
    deficit: float
    gamma_n: float
    gamma_star: float
    classical_pass: bool
    quantitative_pass: bool


def check_isoperimetric(domain: Domain, gamma_n: float) -> IsoperimetricReport:
    """Classical and quantitative isoperimetric inequality for one domain.

    gamma_star = alpha^2 / deficit is the smallest constant for which the
    quantitative inequality holds on this domain; the supplied gamma_n
    passes iff gamma_n >= gamma_star.
    """
    alpha = cached_asymmetry(domain)
    deficit = isoperimetric_deficit(domain)
    gamma_star = alpha.value ** 2 / deficit if deficit > 0 else 0.0
    base = 2.0 * math.sqrt(math.pi * domain.measure)
    quant = domain.perimeter >= base * (1.0 + alpha.value ** 2 / gamma_n) * (1.0 - 1e-12)
    return IsoperimetricReport(
        domain_spec=domain_spec_string(domain), perimeter=domain.perimeter,
        measure=domain.measure, asymmetry=alpha.value, deficit=deficit,
        gamma_n=gamma_n, gamma_star=gamma_star,
        classical_pass=bool(deficit >= -1e-12), quantitative_pass=bool(quant))


@dataclass
class PropagationReport:
    domain_spec: str
    alpha_domain: float
    alpha_subset: float | None
    removed_fraction: float
    hypothesis_met: bool
    applicable: bool
    passed: bool | None


def check_propagation(domain: Domain, u: ScalarField, t: float,
                      tol: float = 5e-3) -> PropagationReport:
    """Asymmetry propagation to the superlevel set U_t = {u > t} of a field
    on a mesh of the domain: if |Omega \\ U_t| / |Omega| <= alpha(Omega)/4
    then alpha(U_t) >= alpha(Omega)/2, with the removed fraction measured on
    the mesh, 1 - mu(t) / |mesh|.  When the hypothesis fails the report says
    'not applicable' and asserts nothing."""
    alpha = cached_asymmetry(domain)
    removed = 1.0 - float(distribution_function(u).mu(t)) / u.mesh.area()
    hypothesis = removed <= alpha.value / 4.0 + 1e-12
    if not hypothesis:
        return PropagationReport(domain_spec=domain_spec_string(domain),
                                 alpha_domain=alpha.value, alpha_subset=None,
                                 removed_fraction=removed, hypothesis_met=False,
                                 applicable=False, passed=None)
    a_sub = superlevel_asymmetry(u, t)
    ok = a_sub.value >= alpha.value / 2.0 - a_sub.error - tol
    return PropagationReport(domain_spec=domain_spec_string(domain),
                             alpha_domain=alpha.value, alpha_subset=a_sub.value,
                             removed_fraction=removed, hypothesis_met=True,
                             applicable=True, passed=bool(ok))


CHECKERS = {
    "lorentz_k1": check_lorentz_k1,
    "lorentz_2k2": check_lorentz_2k2,
    "pointwise": check_pointwise,
    "saint_venant": check_saint_venant,
    "bossel_daners": check_bossel_daners,
}
