"""The four benchmark workloads: their inputs, one pass, its checks.

``make_spec`` runs in run.py's process and uses only the standard library;
it builds the inputs a pass receives.  ``setup``,
``run_pass`` and ``check_reports`` run in a fresh interpreter per pass (see
child.py), because robinsym keeps its asymmetry, raster-fraction and Gauss
caches at module level and a user pays for them on every ``robinsym verify``.

All four workloads are closed loops with one caller: each operation starts
after the previous one returned.  README.md says why each one was chosen.
"""

from __future__ import annotations

import contextlib
import hashlib
import math
import os
import time

WORKLOADS = ("verify_default", "shape_family", "poisson_ladder", "eigen_ladder")

BETA = 1.0
ELLIPSE_2 = "ellipse a=1.4142135623730951 b=0.70710678118654757"

# Ladders: (domain spec, h, refinements).  They do not depend on the seed on
# purpose: translating the stadium by a seeded offset decides by rounding
# alone whether its 65.8k-node CG solve stalls, so a seeded ladder would hide
# the known stall on some seeds.
POISSON_LADDER = ((ELLIPSE_2, 0.05, 2), ("stadium l=1 r=0.5", 0.025, 1))
EIGEN_LADDER = (("disc r=1", 0.05, 1), (ELLIPSE_2, 0.05, 1))

# Stated tolerances of the correctness gate.
RESIDUAL_TOL = 1e-10        # ||b - A x|| / ||b||, the solver's own contract
COMPAT_TOL = 1e-8           # |beta * int_boundary u - int f| / |int f|
ALPHA_TOL = 1e-5            # |alpha - ellipse oracle|
TORSION_TOL = 1e-3          # relative, disc torsion against 5 pi / 8
EIGEN_TOL = 1e-3            # relative, disc eigenvalue against the Bessel root
EIGEN_RESIDUAL_TOL = 1e-4   # ||A w - lam M w|| / ||lam M w||


# ---------------------------------------------------------------------------
# inputs (run.py side, standard library only)


def _stadium_radius(l_over_r: float) -> float:
    """Cap radius of the stadium with the given l/r and area pi."""
    return math.sqrt(math.pi / (2.0 * l_over_r + math.pi))


# Four centred shapes of area (about) pi: axis ratio 1.7, aspect 1.6, l/r = 1,
# and a convex heptagon.  They are fixed: the Nelder-Mead search behind every
# asymmetry takes 1.4k to 2.6k objective evaluations on shapes whose
# parameters differ by 3%, so seeded shapes made the pass time spread wider
# than any usable bound, and a seeded order of the same shapes moved the
# peak RSS by 7%.
SHAPE_FAMILY = (
    f"ellipse a={math.sqrt(1.7)!r} b={1.0 / math.sqrt(1.7)!r}",
    f"rect w={math.sqrt(1.6 * math.pi)!r} h={math.sqrt(math.pi / 1.6)!r}",
    f"stadium l={_stadium_radius(1.0)!r} r={_stadium_radius(1.0)!r}",
    "polygon -1.009,0.4251 -0.949,-0.4603 -0.0763,-1.0736 0.5474,-0.9483 "
    "1.0583,-0.1542 0.725,0.8098 -0.1133,1.0612",
)


def make_spec(workload: str) -> dict:
    """The inputs of one workload.  They do not depend on the seed (see
    README.md, "Seeds"); run.py records the seed with every result."""
    if workload not in WORKLOADS:
        raise ValueError(f"unknown workload {workload!r}; choose from {WORKLOADS}")
    spec = {"workload": workload}
    if workload == "verify_default":
        spec["argv"] = ["verify"]
    elif workload == "shape_family":
        spec["config"] = (
            "[run]\n"
            f"domains = {'; '.join(SHAPE_FAMILY)}\n"
            f"betas = {BETA:g}\n"
            "ks = 1\n"
            "sources = radial; bump\n"
            "theorems = lorentz_k1, lorentz_2k2, saint_venant\n"
            "h = 0.1\n"
            "refinements = 1\n"
            "\n[gamma]\n"
            "gamma2 = 16.0\n"
            "provenance = benchmark input; the default config's placeholder value\n")
    elif workload == "poisson_ladder":
        spec["ladder"] = [list(r) for r in POISSON_LADDER]
    else:
        spec["ladder"] = [list(r) for r in EIGEN_LADDER]
    return spec


def rung_count(spec: dict) -> int:
    return sum(1 + refs for _, _, refs in spec.get("ladder", ()))


# Per-rung metrics exist for every rung of the longest ladder, on every workload.
MAX_RUNGS = max(rung_count(make_spec(w)) for w in WORKLOADS)


# ---------------------------------------------------------------------------
# oracles (independent of robinsym)


def ellipse_alpha_oracle(a: float, b: float) -> float:
    """Asymmetry of a centred ellipse against the concentric equal-area disc.

    (0.5/pi) * integral |rho(theta)^2 / (a b) - 1| dtheta in closed form: the
    boundaries cross at tan(theta) = sqrt(b/a) and the sector area of the
    ellipse up to theta is (a b / 2) atan((a/b) tan theta).
    """
    a, b = max(a, b), min(a, b)
    return 4.0 / math.pi * (math.atan(math.sqrt(a / b)) - math.atan(math.sqrt(b / a)))


def disc_eigen_oracle(R: float, beta: float) -> float:
    """Principal Robin eigenvalue of the disc: the first root of
    k J1(k R) = beta J0(k R), below the Dirichlet root j_{0,1} / R."""
    from scipy.optimize import brentq
    from scipy.special import j0, j1, jn_zeros

    hi = jn_zeros(0, 1)[0] / R
    k = brentq(lambda x: x * j1(x * R) - beta * j0(x * R), 1e-9, hi * (1 - 1e-15), xtol=1e-15)
    return k * k


def disc_torsion_oracle(R: float, beta: float) -> float:
    """Torsional rigidity of the disc with Robin parameter beta."""
    return math.pi * R ** 4 / 8.0 + math.pi * R ** 3 / (2.0 * beta)


# ---------------------------------------------------------------------------
# passes (child side)


class Stopwatch:
    """Wall clock of a pass with the correctness checks taken out."""

    def __init__(self):
        self.start = time.perf_counter()
        self.cpu_start = time.process_time()
        self.excluded = 0.0
        self.cpu_excluded = 0.0

    @contextlib.contextmanager
    def paused(self):
        t, c = time.perf_counter(), time.process_time()
        try:
            yield
        finally:
            self.excluded += time.perf_counter() - t
            self.cpu_excluded += time.process_time() - c

    def elapsed(self) -> float:
        return time.perf_counter() - self.start - self.excluded

    def cpu_elapsed(self) -> float:
        """Processor time of the pass (all threads), checks excluded."""
        return time.process_time() - self.cpu_start - self.cpu_excluded


def setup(spec: dict) -> dict:
    """Import the package and build the inputs: what a user waits for before
    the first result can start.  Returns the state a pass needs."""
    import robinsym
    import robinsym.cli
    from robinsym.config import default_config_text, parse_config
    from robinsym.domains import parse_domain_spec

    state = {"robinsym": robinsym}
    if "ladder" in spec:
        state["domains"] = [parse_domain_spec(d) for d, _, _ in spec["ladder"]]
    else:
        text = spec.get("config") or default_config_text()
        state["config"] = parse_config(text)
        state["domains"] = [parse_domain_spec(d) for d in state["config"].domains]
    return state


def run_pass(spec: dict, state: dict, tracer, watch: Stopwatch, outdir: str) -> dict:
    """One pass of the workload; returns its operations and check inputs."""
    workload = spec["workload"]
    if workload == "verify_default":
        import robinsym.cli

        code = robinsym.cli.main(spec["argv"] + ["--out", outdir])
        return {"exit_code": code}
    if workload == "shape_family":
        from robinsym import runner

        rows = runner.run_experiments(state["config"])
        runner.emit_reports(rows, outdir)
        return {}
    if workload == "poisson_ladder":
        return _poisson_ladder(spec, state, tracer, watch)
    return _eigen_ladder(spec, state, tracer, watch)


@contextlib.contextmanager
def _gate(tracer, watch):
    with watch.paused(), tracer.span("gate"):
        yield


def _rungs(spec, state, tracer):
    """Yield (rung index, domain, mesh) over the ladder, meshing as it goes."""
    from robinsym import meshing

    i = 0
    for domain, (_, h, refinements) in zip(state["domains"], spec["ladder"]):
        mesh = None
        for level in range(refinements + 1):
            with tracer.span("rung", tag=f"r{i}"):
                mesh = meshing.generate_mesh(domain, h) if level == 0 \
                    else meshing.refine_mesh(mesh)
                yield i, domain, mesh
            i += 1


def _poisson_ladder(spec, state, tracer, watch) -> dict:
    import numpy as np
    from robinsym import fem, radial, rearrange, runner
    from robinsym.rearrange import DecreasingProfile

    ops = []
    for i, domain, mesh in _rungs(spec, state, tracer):
        f = runner.source_from_name("bump", domain)
        system = fem.assemble_robin_system(mesh, f, BETA)
        op = {"rung": i, "nodes": mesh.num_nodes, "ok": False, "checks": {}}
        ops.append(op)
        try:
            u = fem.solve_poisson(system)
        except fem.SolverError as exc:
            op["error"] = f"{type(exc).__name__}: {exc}"
            continue
        op["ok"] = True
        with _gate(tracer, watch):
            A, b = system.matrix, system.rhs
            resid = float(np.linalg.norm(b - A @ u.values) / np.linalg.norm(b))
            total_f = float(b.sum())
            compat = abs(BETA * fem.boundary_integral(u) - total_f) / abs(total_f)
            op["residual"], op["compat"] = resid, compat
            op["checks"] = {"residual": resid <= RESIDUAL_TOL, "compat": compat <= COMPAT_TOL}
        dist = rearrange.distribution_function(u)
        norm_u = rearrange.lorentz_power_integral(dist, 1.0, 1.0)
        sq_u = rearrange.lorentz_power_integral(dist, 2.0, 2.0)
        fdist = rearrange.distribution_function(fem.nodal_source_field(mesh, f))
        prof = rearrange.decreasing_rearrangement(fdist, num=2048)
        # f* lives on [0, mesh area]; the disc problem needs [0, |Omega|]
        fstar = DecreasingProfile(s=prof.s * (domain.measure / prof.total),
                                  values=prof.values)
        rs = radial.symmetrized_solution(domain.measure, 2, BETA, fstar)
        op["gap_k1"] = rs.lorentz_power_integral(1.0, 1.0) - norm_u
        op["gap_2k2"] = rs.lorentz_power_integral(2.0, 2.0) - sq_u
    return {"ops": ops}


def _eigen_ladder(spec, state, tracer, watch) -> dict:
    import numpy as np
    from robinsym import fem

    ops = []
    for i, domain, mesh in _rungs(spec, state, tracer):
        op = {"rung": i, "nodes": mesh.num_nodes, "ok": False, "checks": {}}
        ops.append(op)
        try:
            lam, w = fem.principal_robin_eigenpair(mesh, BETA)
        except fem.SolverError as exc:
            op["error"] = f"{type(exc).__name__}: {exc}"
            continue
        op["ok"] = True
        op["lambda"] = lam
        with _gate(tracer, watch):
            A = fem.stiffness_matrix(mesh) + BETA * fem.boundary_mass_matrix(mesh)
            Mw = fem.mass_matrix(mesh) @ w.values
            resid = float(np.linalg.norm(A @ w.values - lam * Mw) / np.linalg.norm(lam * Mw))
            R = math.sqrt(domain.measure / math.pi)
            lam_disc = disc_eigen_oracle(R, BETA)
            op["residual"] = resid
            op["checks"] = {"residual": resid <= EIGEN_RESIDUAL_TOL,
                            "positive": bool(w.values.min() > 0.0)}
            if domain.kind == "disc":
                op["eigen_rel_err"] = abs(lam - lam_disc) / lam_disc
                op["checks"]["oracle"] = op["eigen_rel_err"] <= EIGEN_TOL
            else:
                # Bossel-Daners: the equal-area disc has the smallest eigenvalue
                op["checks"]["bossel_daners"] = lam >= lam_disc
    return {"ops": ops}


# ---------------------------------------------------------------------------
# checks on verify reports (child side, after the timed region)


def report_digest(outdir: str) -> str:
    h = hashlib.sha256()
    for name in sorted(os.listdir(outdir)):
        with open(os.path.join(outdir, name), "rb") as fh:
            h.update(name.encode() + b"\0" + fh.read() + b"\0")
    return h.hexdigest()


def check_reports(outdir: str) -> dict:
    """Jobs, verdicts and oracle errors read back from a report directory."""
    import json

    from robinsym.domains import parse_domain_spec

    jobs = []
    for name in sorted(os.listdir(outdir)):
        if name.startswith("job_") and name.endswith(".json"):
            with open(os.path.join(outdir, name)) as fh:
                jobs.append(json.load(fh))
    out = {"attempted": len(jobs), "failed": 0, "passed": 0, "errors": [],
           "checks": {}, "accuracy": {}, "digest": report_digest(outdir)}
    for job in jobs:
        if job["status"] != "ok":
            out["failed"] += 1
            out["errors"].append(f"job {job['job']}: {job['error']}")
            continue
        rep = job["report"]
        out["passed"] += bool(rep["passed"])
        out["checks"][f"job{job['job']}.passed"] = bool(rep["passed"])
        dom = parse_domain_spec(job["spec"]["domain"])
        if dom.kind == "ellipse" and dom.params[2:] == (0.0, 0.0):
            err = abs(rep["alpha"] - ellipse_alpha_oracle(*dom.params[:2]))
            out["accuracy"]["alpha_err"] = max(err, out["accuracy"].get("alpha_err", 0.0))
        if dom.kind == "disc":
            R = dom.params[0]
            if job["spec"]["theorem"] == "saint_venant":
                t_exact = disc_torsion_oracle(R, job["spec"]["beta"])
                out["accuracy"]["torsion_rel_err"] = \
                    abs(job["extras"]["torsion_domain"] - t_exact) / t_exact
            elif job["spec"]["theorem"] == "bossel_daners":
                lam_exact = disc_eigen_oracle(R, job["spec"]["beta"])
                out["accuracy"]["eigen_rel_err"] = \
                    abs(job["extras"]["lambda_domain"] - lam_exact) / lam_exact
    tolerances = {"alpha_err": ALPHA_TOL, "torsion_rel_err": TORSION_TOL,
                  "eigen_rel_err": EIGEN_TOL}
    for key, value in out["accuracy"].items():
        out["checks"][key] = value <= tolerances[key]
    return out


def summarize_ops(result: dict) -> dict:
    """Attempted, failed and passed operations of a ladder pass."""
    ops = result["ops"]
    acc = {}
    errs = [op["eigen_rel_err"] for op in ops if "eigen_rel_err" in op]
    if errs:
        acc["eigen_rel_err"] = max(errs)
    checks = {f"r{op['rung']}.{k}": v for op in ops for k, v in op["checks"].items()}
    return {"attempted": len(ops), "failed": sum(not op["ok"] for op in ops),
            "passed": sum(op["ok"] and all(op["checks"].values()) for op in ops),
            "errors": [f"r{op['rung']}: {op['error']}" for op in ops if "error" in op],
            "checks": checks, "accuracy": acc}
