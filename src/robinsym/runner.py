"""Experiment orchestration: enumerate checker jobs, run each (domain, beta)
group of them on one shared `Ladder`, and persist deterministic reports."""

from __future__ import annotations

import json
import math
import os
from dataclasses import dataclass

import numpy as np

from .config import RunConfig
from .domains import parse_domain_spec
from .fem import SourceSpec, constant_source
from .verify import CHECKERS, K_RANGES, Ladder, TheoremReport

_COLUMNS = ("job", "status", "theorem", "domain", "f", "beta", "k", "alpha", "gap",
            "rhs", "margin", "disc_error", "passed")


def source_from_name(name: str, domain) -> SourceSpec:
    """The reproducible source catalog: constant, radially decreasing, and a
    non-symmetric off-center bump."""
    if name == "const":
        return constant_source(1.0)
    c = domain.center
    if name == "radial":
        return SourceSpec(kind="expr", fn=lambda x, y: 2.0 - np.hypot(x - c[0], y - c[1]),
                          label="radial 2-r")
    if name == "bump":
        x0, x1, y0, y1 = domain.bounding_box()
        bx = c[0] + 0.2 * (x1 - x0)
        by = c[1] + 0.1 * (y1 - y0)
        w2 = (0.35 * (x1 - x0)) ** 2

        def fn(x, y):
            return np.exp(-((x - bx) ** 2 + (y - by) ** 2) / w2)

        return SourceSpec(kind="expr", fn=fn, label="bump")
    raise ValueError(f"unknown source {name!r}")


@dataclass
class Job:
    index: int
    theorem: str
    domain_spec: str
    beta: float
    k: float | None
    source: str


@dataclass
class ResultRow:
    job: Job
    status: str                      # ok | failed
    report: TheoremReport | None
    config_hash: str
    error: str = ""

    def cells(self) -> dict:
        """The job's spec, then its report's row (nan, not passed, if it failed)."""
        out = (self.report.row() if self.report is not None
               else dict.fromkeys(_COLUMNS, float("nan")) | {"passed": False})
        return out | {"job": self.job.index, "status": self.status,
                      "theorem": self.job.theorem, "domain": self.job.domain_spec,
                      "f": self.job.source, "beta": self.job.beta,
                      "k": float("nan") if self.job.k is None else self.job.k}

    def payload(self) -> dict:
        out = {"job": self.job.index, "status": self.status, "error": self.error,
               "config_hash": self.config_hash,
               "spec": {"theorem": self.job.theorem, "domain": self.job.domain_spec,
                        "beta": self.job.beta, "k": self.job.k, "f": self.job.source}}
        if self.report is not None:
            out["report"] = self.report.row()
            out["extras"] = self.report.extras
        return out


def enumerate_jobs(cfg: RunConfig) -> list:
    jobs = []
    for theorem in cfg.theorems:
        runs = ([(k, src) for src in cfg.sources for k in cfg.ks] if theorem in K_RANGES
                else [(None, "const")])
        for spec in cfg.domains:
            for beta in cfg.betas:
                for k, src in runs:
                    jobs.append(Job(len(jobs), theorem, spec, beta, k, src))
    return jobs


def _check(job: Job, ladder: Ladder, cfg: RunConfig) -> TheoremReport:
    checker = CHECKERS[job.theorem]
    if job.theorem in K_RANGES:
        f = source_from_name(job.source, ladder.domain)
        return checker(ladder, f, job.k, cfg.gamma2)
    return checker(ladder, cfg.gamma2)


def run_experiments(cfg: RunConfig) -> list:
    """Run every job, each (domain, beta) group on one Ladder that is dropped
    before the next group starts; rows come back in job order.  Failures,
    including a domain spec that does not parse, become failed rows and never
    abort the batch."""
    groups: dict = {}
    for job in enumerate_jobs(cfg):
        groups.setdefault((job.domain_spec, job.beta), []).append(job)
    rows = []
    for (spec, beta), jobs in groups.items():
        ladder = None
        for job in jobs:
            try:  # isolate per-job failures
                if ladder is None:
                    ladder = Ladder(parse_domain_spec(spec), beta, cfg.h, cfg.refinements)
                rows.append(ResultRow(job=job, status="ok", report=_check(job, ladder, cfg),
                                      config_hash=cfg.config_hash()))
            except Exception as exc:
                rows.append(ResultRow(job=job, status="failed", report=None,
                                      error=f"{type(exc).__name__}: {exc}",
                                      config_hash=cfg.config_hash()))
    return sorted(rows, key=lambda row: row.job.index)


def _fmt(v) -> str:
    if isinstance(v, bool):
        return "yes" if v else "no"
    if isinstance(v, float):
        return "nan" if math.isnan(v) else f"{v:.6g}"
    return str(v)


def emit_reports(rows: list, outdir: str) -> list:
    """Aggregate table, one JSON per job, and plot-data files; byte-stable
    for a fixed config."""
    if not rows:
        raise ValueError("no result rows to emit")
    os.makedirs(outdir, exist_ok=True)
    written = []

    cells = [row.cells() for row in rows]
    widths = {c: max(len(c), *(len(_fmt(r[c])) for r in cells)) for c in _COLUMNS}
    lines = ["  ".join(c.ljust(widths[c]) for c in _COLUMNS)]
    for r in cells:
        lines.append("  ".join(_fmt(r[c]).ljust(widths[c]) for c in _COLUMNS))
    table = os.path.join(outdir, "summary.txt")
    with open(table, "w") as fh:
        fh.write("\n".join(lines) + "\n")
    written.append(table)

    for row in rows:
        path = os.path.join(outdir, f"job_{row.job.index:03d}.json")
        with open(path, "w") as fh:
            json.dump(row.payload(), fh, indent=2, sort_keys=True)
            fh.write("\n")
        written.append(path)

    for power, fname in ((2, "plot_gap_vs_alpha2.txt"), (3, "plot_gap_vs_alpha3.txt")):
        pts = sorted((row.report.alpha ** power, row.report.gap)
                     for row in rows
                     if row.status == "ok" and row.report.alpha_power == power)
        path = os.path.join(outdir, fname)
        with open(path, "w") as fh:
            fh.write(f"# alpha^{power} gap\n")
            for x, y in pts:
                fh.write(f"{x:.17g} {y:.17g}\n")
        written.append(path)
    return written


def all_passed(rows: list) -> bool:
    return all(row.status == "ok" and row.report.passed for row in rows)
