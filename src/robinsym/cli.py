"""Command-line interface: solve, asymmetry, oracle, mesh, verify."""

from __future__ import annotations

import argparse
import sys

import numpy as np

from .config import KNOWN_SOURCES, ConfigError, default_config_text, parse_config
from .domains import GeometryError, fraenkel_asymmetry, isoperimetric_deficit, \
    parse_domain_spec
from .fem import SolverError, SourceError, boundary_integral, field_integral, \
    solve_robin_poisson
from .meshing import MeshError, export_mesh_text, generate_mesh, refine_mesh
from .radial import OracleError, RadialError, ball_closed_forms, bessel_eigen_oracle, \
    symmetrized_constant_source
from .rearrange import RearrangeError
from .runner import all_passed, emit_reports, run_experiments, source_from_name

# what bad input or a failed solve raises: reported in one line, exit code 2
_ERRORS = (ConfigError, GeometryError, MeshError, SourceError, SolverError, RadialError,
           OracleError, RearrangeError, OSError)


def _load_mesh(args):
    if args.refine < 0:
        raise MeshError(f"--refine must be >= 0, got {args.refine}")
    mesh = generate_mesh(parse_domain_spec(args.domain), args.h)
    for _ in range(args.refine):
        mesh = refine_mesh(mesh)
    return mesh


def cmd_mesh(args) -> int:
    mesh = _load_mesh(args)
    text = export_mesh_text(mesh)
    if args.out:
        with open(args.out, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)
    print(f"# nodes={mesh.num_nodes} triangles={len(mesh.triangles)} "
          f"area={mesh.area():.12g} boundary={mesh.boundary_length():.12g}",
          file=sys.stderr)
    return 0


def cmd_solve(args) -> int:
    mesh = _load_mesh(args)
    f = source_from_name(args.f, mesh.domain)
    u = solve_robin_poisson(mesh, f, args.beta)
    out = export_mesh_text(mesh) + f"values {mesh.num_nodes}\n" + \
        "\n".join(f"{v:.17g}" for v in u.values) + "\n"
    if args.out:
        with open(args.out, "w") as fh:
            fh.write(out)
    print(f"u_min={u.u_min:.12g} u_max={u.u_max:.12g} "
          f"integral={field_integral(u):.12g} boundary={boundary_integral(u):.12g}")
    return 0


def cmd_asymmetry(args) -> int:
    d = parse_domain_spec(args.domain)
    a = fraenkel_asymmetry(d)
    deficit = isoperimetric_deficit(d)
    # the smallest gamma of the quantitative isoperimetric inequality on d
    gamma_star = a.value ** 2 / deficit if deficit > 0 else 0.0
    print(f"asymmetry={a.value:.10g} center=({a.center[0]:.10g}, {a.center[1]:.10g}) "
          f"radius={a.radius:.10g} error={a.error:.3g} evaluations={a.evaluations} "
          f"deficit={deficit:.10g} gamma_star={gamma_star:.10g}")
    return 0


def cmd_oracle(args) -> int:
    if args.kind == "torsion":
        _, t = ball_closed_forms(args.R, args.beta)
        print(f"torsion={t:.15g}")
    elif args.kind == "eigen":
        print(f"lambda={bessel_eigen_oracle(args.R, args.beta):.15g}")
    else:
        try:
            measure = np.pi * args.R ** 2
        except OverflowError:
            measure = np.inf  # the profile rejects it
        rs = symmetrized_constant_source(measure, args.beta)
        sys.stdout.write(rs.export_text(num=args.samples))
    return 0


def cmd_verify(args) -> int:
    if args.config:
        with open(args.config) as fh:
            text = fh.read()
    else:
        text = default_config_text()
    cfg = parse_config(text)
    if args.out:
        cfg.outdir = args.out
    rows = run_experiments(cfg)
    files = emit_reports(rows, cfg.outdir)
    ok = all_passed(rows)
    npass = sum(1 for r in rows if r.status == "ok" and r.report.passed)
    print(f"{npass}/{len(rows)} checks passed; reports in {cfg.outdir} "
          f"({len(files)} files)")
    return 0 if ok else 1


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(prog="robinsym",
                                 description="Robin-Poisson symmetrization laboratory")
    sub = ap.add_subparsers(dest="command", required=True)

    # no abbreviations: where a command has no --h, `--h` would be read as
    # `--help`, and `oracle --b` as `--beta`
    p = sub.add_parser("mesh", help="generate, refine and export a mesh", allow_abbrev=False)
    p.add_argument("--domain", required=True, help="domain spec, e.g. 'disc r=1'")
    p.add_argument("--h", type=float, default=0.1)
    p.add_argument("--refine", type=int, default=0)
    p.add_argument("--out")
    p.set_defaults(fn=cmd_mesh)

    p = sub.add_parser("solve", help="one Robin-Poisson solve with field export",
                       allow_abbrev=False)
    p.add_argument("--domain", required=True)
    p.add_argument("--h", type=float, default=0.05)
    p.add_argument("--refine", type=int, default=0)
    p.add_argument("--beta", type=float, default=1.0)
    p.add_argument("--f", default="const", choices=KNOWN_SOURCES)
    p.add_argument("--out")
    p.set_defaults(fn=cmd_solve)

    p = sub.add_parser("asymmetry", help="Fraenkel asymmetry and gamma_star of one domain",
                       allow_abbrev=False)
    p.add_argument("--domain", required=True)
    p.set_defaults(fn=cmd_asymmetry)

    p = sub.add_parser("oracle", help="disc closed forms and the Bessel eigenvalue",
                       allow_abbrev=False)
    p.add_argument("--R", type=float, default=1.0)
    p.add_argument("--beta", type=float, default=1.0)
    p.add_argument("--kind", choices=("torsion", "eigen", "profile"), default="torsion")
    p.add_argument("--samples", type=int, default=65)
    p.set_defaults(fn=cmd_oracle)

    p = sub.add_parser("verify", help="run the full inequality suite from a config",
                       allow_abbrev=False)
    p.add_argument("--config")
    p.add_argument("--out")
    p.set_defaults(fn=cmd_verify)
    return ap


def main(argv=None) -> int:
    """Run one command; exit code 0 on success, 1 when a verify check
    fails, 2 on bad input or a failed solve."""
    args = build_parser().parse_args(argv)
    try:
        return args.fn(args)
    except _ERRORS as exc:
        print(f"robinsym {args.command}: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    raise SystemExit(main())
