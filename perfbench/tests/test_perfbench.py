"""Tests of the benchmark's own machinery.

Run from the repository root:  python3 -m pytest perfbench/tests -q
"""

from __future__ import annotations

import json
import math
import os
import re
import sys
import tempfile
import time

import numpy as np
import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
BENCH = os.path.dirname(HERE)
ROOT = os.path.dirname(BENCH)
sys.path.insert(0, BENCH)
sys.path.insert(0, os.path.join(ROOT, "src"))

import run  # noqa: E402
import workloads  # noqa: E402
from tracer import Tracer, layer_metrics  # noqa: E402

import robinsym.cli  # noqa: E402,F401
from robinsym import cli, fem, meshing, verify  # noqa: E402

TINY_CONFIG = """\
[run]
domains = ellipse a=1.2 b=0.8333333333333334
ks = 1
sources = bump
theorems = lorentz_k1, saint_venant
h = 0.2
refinements = 1

[gamma]
gamma2 = 16.0
provenance = test input
"""


def test_benchmark_json_lists_the_reported_metrics():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        bench = json.load(fh)
    e2e = {m["name"]: (m["unit"], m["better"]) for m in bench["end_to_end"]}
    layer = {m["name"]: (m["unit"], m["better"]) for m in bench["per_layer"]}
    assert e2e == run.END_TO_END
    assert layer == run.PER_LAYER
    assert [w["name"] for w in bench["workloads"]] == list(workloads.WORKLOADS)
    assert bench["paths"] == ["perfbench"]


def test_shape_family_shapes():
    from robinsym.domains import parse_domain_spec

    cfg = robinsym.config.parse_config(workloads.make_spec("shape_family")["config"])
    assert tuple(cfg.domains) == workloads.SHAPE_FAMILY
    doms = {d.kind: d for d in map(parse_domain_spec, workloads.SHAPE_FAMILY)}
    assert sorted(doms) == ["ellipse", "polygon", "rect", "stadium"]
    for d in doms.values():
        assert d.measure == pytest.approx(math.pi, rel=1e-3)
    a, b = doms["ellipse"].params[:2]
    assert a / b == pytest.approx(1.7)
    assert len(doms["polygon"].vertices) == 7


def test_ellipse_oracle_matches_quadrature():
    for a in (1.1, math.sqrt(1.5), math.sqrt(2.0)):
        b = 1.0 / a
        th = np.linspace(0.0, 2.0 * math.pi, 400001)
        rho2 = (a * b) ** 2 / ((b * np.cos(th)) ** 2 + (a * np.sin(th)) ** 2)
        quad = 0.5 / math.pi * np.trapezoid(np.abs(rho2 - 1.0), th)
        assert workloads.ellipse_alpha_oracle(a, b) == pytest.approx(quad, abs=1e-8)


def test_disc_eigen_oracle_matches_package():
    from robinsym.radial import bessel_eigen_oracle

    for R, beta in ((1.0, 1.0), (0.7, 3.0)):
        assert workloads.disc_eigen_oracle(R, beta) == pytest.approx(
            bessel_eigen_oracle(R, beta), rel=1e-12)


def test_tracer_patches_every_lookup_site_and_restores_it():
    originals = (verify.generate_mesh, meshing.generate_mesh, cli.solve_robin_poisson,
                 dict(verify.CHECKERS), verify.cached_asymmetry, robinsym.refine_mesh)
    with Tracer():
        assert verify.generate_mesh is meshing.generate_mesh is robinsym.generate_mesh
        assert verify.generate_mesh is not originals[0]
        assert cli.solve_robin_poisson is fem.solve_robin_poisson is not originals[2]
        assert all(verify.CHECKERS[k] is getattr(verify, f"check_{k}")
                   for k in verify.CHECKERS)
        assert all(v is not originals[3][k] for k, v in verify.CHECKERS.items())
        assert verify.cached_asymmetry is not originals[4]
    assert (verify.generate_mesh, meshing.generate_mesh, cli.solve_robin_poisson,
            dict(verify.CHECKERS), verify.cached_asymmetry, robinsym.refine_mesh) == originals


def test_self_times_sum_to_the_root_span():
    spec = {"workload": "poisson_ladder", "ladder": [["disc r=1", 0.2, 1]]}
    state = workloads.setup(spec)
    tracer = Tracer()
    with tracer:
        watch = workloads.Stopwatch()
        with tracer.span("pass"):
            data = workloads.run_pass(spec, state, tracer, watch, "")
    assert all(op["ok"] and all(op["checks"].values()) for op in data["ops"])
    roots = [s for s in tracer.spans if s.parent is None]
    assert len(roots) == 1
    self_t = tracer.self_times()
    assert sum(self_t.values()) == pytest.approx(roots[0].duration, rel=1e-9, abs=1e-9)
    assert all(v >= -1e-9 for v in self_t.values())

    m = layer_metrics(tracer, workloads.MAX_RUNGS)
    gate = sum(self_t[s.id] for s in tracer.spans if s.stage == "gate")
    stage_sum = sum(v for k, v in m.items() if re.fullmatch(r"[a-z.]+\.[a-z_]+_s", k))
    assert stage_sum + gate == pytest.approx(roots[0].duration, rel=1e-9, abs=1e-9)
    assert m["fem.solves"] == 2 and m["fem.solve_failed"] == 0
    assert m["meshing.meshes"] == 2
    assert m["meshing.nodes.r1"] > m["meshing.nodes.r0"] > 0
    assert m["meshing.nodes.r2"] == 0
    assert m["fem.solve_s.r0"] > 0 and m["fem.solve_s.r2"] == 0.0


def test_traced_pass_gives_the_untraced_report_digest():
    spec = {"workload": "shape_family", "config": TINY_CONFIG}
    with tempfile.TemporaryDirectory() as tmp:
        runner = run.Runner(ROOT, spec, tmp, time.monotonic() + 120.0)
        plain = runner.child("pass", trace=False)
        traced = runner.child("pass", trace=True)
    assert plain["attempted"] == traced["attempted"] == 2
    assert plain["digest"] == traced["digest"]
    assert all(plain["checks"].values()) and all(traced["checks"].values())
    layer = traced["layer"]
    assert layer["verify.jobs"] == 2
    assert layer["domains.asymmetry_searches"] == 1
    assert layer["domains.asymmetry_hit_frac"] == 0.5
    assert "layer" not in plain
