"""robinsym benchmark: run one workload (or all) and print its metrics.

Usage (from the root of a robinsym source tree):

    python3 perfbench/run.py --workload NAME|all --seed N --seconds S --trace 0|1

Each pass runs in a fresh interpreter (child.py) with ``src`` on its path.
With ``--trace 0`` the run keeps starting untraced passes while the next one
is expected to finish within S seconds (at least one), adds set-up-only
interpreters until it has SETUP_SAMPLES set-up times, and reports the
end-to-end metrics as medians over passes.  With ``--trace 1`` it runs one
untraced and one traced pass and reports the per-layer metrics of the traced
one.  Every pass is checked (see workloads.py); the last line printed is one
JSON object with the keys correct, attempted, failed and metrics.
Result files and spans go to .perfbench/ under the current directory.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time

sys.dont_write_bytecode = True
sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import workloads  # noqa: E402
from tracer import RUNG_STAGES, STAGE_METRICS  # noqa: E402

SETUP_SAMPLES = 5
RUN_LIMIT_S = 170.0     # a run must end within 180 s, set-up included
OUT_DIR = ".perfbench"

# One BLAS thread per pass.  On a 2-core machine the default two OpenBLAS threads
# made the 25.9k-node disc eigenpair slower (2.0-3.2 s against 1.4-2.0 s) for
# twice the CPU time, and tied the run-to-run spread to the neighbours' load.
CHILD_THREADS = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1"}

# name -> (unit, better)
END_TO_END = {
    "wall_s": ("s", "lower"),
    "setup_s": ("s", "lower"),
    "peak_rss_mb": ("MB", "lower"),
    "ok_frac": ("frac", "higher"),
    "pass_frac": ("frac", "higher"),
}

def _per_layer() -> dict:
    units = {m: ("s", "lower") for m in STAGE_METRICS.values()}
    units.update({
        "domains.asymmetry_searches": ("count", "lower"),
        "domains.asymmetry_hit_frac": ("frac", "higher"),
        "domains.asymmetry_failed": ("count", "lower"),
        "domains.alpha_err": ("abs", "lower"),
        "meshing.meshes": ("count", "lower"),
        "meshing.nodes_max": ("count", "lower"),
        "fem.solves": ("count", "lower"),
        "fem.solve_distinct_frac": ("frac", "higher"),
        "fem.solve_failed": ("count", "lower"),
        "fem.nnz_max": ("count", "lower"),
        "fem.eigens": ("count", "lower"),
        "fem.eigen_failed": ("count", "lower"),
        "fem.torsion_rel_err": ("rel", "lower"),
        "fem.eigen_rel_err": ("rel", "lower"),
        "levelset.segments_max": ("count", "lower"),
        "verify.jobs": ("count", "lower"),
        "trace.unattributed_s": ("s", "lower"),
        "trace.overhead_s": ("s", "lower"),
    })
    for i in range(workloads.MAX_RUNGS):
        units[f"meshing.nodes.r{i}"] = ("count", "lower")
        for stage in RUNG_STAGES:
            units[f"{STAGE_METRICS[stage]}.r{i}"] = ("s", "lower")
    return units


PER_LAYER = _per_layer()
ACCURACY = {"alpha_err": "domains.alpha_err", "torsion_rel_err": "fem.torsion_rel_err",
            "eigen_rel_err": "fem.eigen_rel_err"}


class BenchError(RuntimeError):
    """The run could not produce a result."""


def environment(root: str, seed: int, workload: str) -> dict:
    """Machine, interpreter and source identity recorded next to a result."""
    commit = None
    if os.path.isdir(os.path.join(root, ".git")):
        try:
            commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root, timeout=30,
                                    capture_output=True, text=True).stdout.strip() or None
        except (OSError, subprocess.TimeoutExpired):
            commit = None
    h = hashlib.sha256()
    src = os.path.join(root, "src")
    for dirpath, dirnames, filenames in sorted(os.walk(src)):
        dirnames.sort()
        for name in sorted(filenames):
            if name.endswith(".py"):
                path = os.path.join(dirpath, name)
                h.update(os.path.relpath(path, src).encode() + b"\0")
                with open(path, "rb") as fh:
                    h.update(fh.read())
    return {"workload": workload, "seed": seed, "nproc": os.cpu_count(),
            "cpus_allowed": len(os.sched_getaffinity(0)),
            "python": platform.python_version(), "platform": platform.platform(),
            "git_commit": commit, "source_sha256": h.hexdigest(),
            "child_env": CHILD_THREADS}


class Runner:
    """Starts child interpreters for one workload and collects their results."""

    def __init__(self, root: str, spec: dict, tmp: str, deadline: float):
        self.root = root
        self.spec = spec
        self.tmp = tmp
        self.deadline = deadline
        self.count = 0
        self.env = dict(os.environ)
        src = os.path.join(root, "src")
        self.env["PYTHONPATH"] = src + os.pathsep + self.env.get("PYTHONPATH", "") \
            if self.env.get("PYTHONPATH") else src
        self.env.update(CHILD_THREADS)

    def child(self, mode: str, trace: bool) -> dict:
        self.count += 1
        base = os.path.join(self.tmp, f"{self.count:03d}")
        outdir = base + "-reports"
        os.makedirs(outdir)
        job = {"spec": self.spec, "mode": mode, "trace": trace, "outdir": outdir,
               "src": os.path.join(self.root, "src")}
        remaining = self.deadline - time.monotonic()
        if remaining <= 1.0:
            raise BenchError("out of time before starting a pass")
        with open(base + "-log.txt", "w") as log:
            job["spawned"] = time.monotonic()
            with open(base + "-spec.json", "w") as fh:
                json.dump(job, fh)
            # the spec write is part of starting the interpreter, like argv
            try:
                proc = subprocess.run(
                    [sys.executable, os.path.join(os.path.dirname(__file__), "child.py"),
                     base + "-spec.json", base + "-out.json"],
                    cwd=self.root, env=self.env, stdout=log, stderr=subprocess.STDOUT,
                    timeout=remaining)
            except subprocess.TimeoutExpired:
                raise BenchError(f"{mode} interpreter exceeded the {RUN_LIMIT_S:g} s run limit")
        cost = time.monotonic() - job["spawned"]
        if proc.returncode != 0:
            with open(base + "-log.txt") as fh:
                tail = fh.read()[-2000:]
            raise BenchError(f"{mode} interpreter exited with {proc.returncode}:\n{tail}")
        with open(base + "-out.json") as fh:
            result = json.load(fh)
        result["cost_s"] = cost
        return result


def _median(values):
    return float(statistics.median(values))


def run_workload(root: str, name: str, seed: int, seconds: float, trace: bool,
                 tmp: str, deadline: float) -> dict:
    spec = workloads.make_spec(name)
    tmp = os.path.join(tmp, name)
    os.makedirs(tmp)
    runner = Runner(root, spec, tmp, deadline)
    started = time.monotonic()
    passes = []
    if trace:
        passes.append(runner.child("pass", trace=False))
        passes.append(runner.child("pass", trace=True))
    else:
        passes.append(runner.child("pass", trace=False))
        while time.monotonic() - started + passes[-1]["cost_s"] <= seconds:
            passes.append(runner.child("pass", trace=False))
    setups = [p["setup_s"] for p in passes]
    if not trace:
        while len(setups) < SETUP_SAMPLES:
            setups.append(runner.child("setup", trace=False)["setup_s"])

    attempted = sum(p["attempted"] for p in passes)
    failed = sum(p["failed"] for p in passes)
    passed = sum(p["passed"] for p in passes)
    checks = {f"pass{i}.{k}": bool(v) for i, p in enumerate(passes)
              for k, v in p["checks"].items()}
    digests = {p["digest"] for p in passes if "digest" in p}
    if digests:
        checks["report_digest_stable"] = len(digests) == 1
    correct = all(checks.values()) and attempted > 0

    accuracy = passes[-1]["accuracy"]
    if trace:
        traced, plain = passes[1], passes[0]
        metrics = dict(traced["layer"])
        metrics["trace.overhead_s"] = traced["wall_s"] - plain["wall_s"]
        for key, metric in ACCURACY.items():
            metrics[metric] = accuracy.get(key, 0.0)
        units = PER_LAYER
    else:
        metrics = {
            "wall_s": _median([p["wall_s"] for p in passes]),
            "setup_s": _median(setups),
            "peak_rss_mb": _median([p["peak_rss_mb"] for p in passes]),
            "ok_frac": (attempted - failed) / attempted if attempted else 0.0,
            "pass_frac": passed / attempted if attempted else 0.0,
        }
        units = END_TO_END
    missing = set(units) ^ set(metrics)
    if missing:
        raise BenchError(f"metric set mismatch: {sorted(missing)}")
    return {
        "workload": name, "seed": seed, "trace": trace, "correct": correct,
        "attempted": attempted, "failed": failed, "passed": passed,
        "metrics": {k: {"value": metrics[k], "unit": units[k][0]} for k in units},
        "accuracy": accuracy, "setup_samples": setups,
        "failed_checks": sorted(k for k, v in checks.items() if not v),
        "errors": sorted({e for p in passes for e in p["errors"]}),
        "environment": passes[-1]["environment"],
        "passes": [{k: v for k, v in p.items() if k not in ("spans", "layer")}
                   for p in passes],
        "spans": passes[-1].get("spans"),
    }


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True,
                    choices=workloads.WORKLOADS + ("all",))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    # a terminated run still stops and waits for its pass interpreter
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))

    root = os.getcwd()
    if not os.path.isfile(os.path.join(root, "src", "robinsym", "__init__.py")):
        print("perfbench: run from the root of a robinsym source tree "
              "(src/robinsym not found)", file=sys.stderr)
        return 2
    names = workloads.WORKLOADS if args.workload == "all" else (args.workload,)
    out = os.path.join(root, OUT_DIR)
    os.makedirs(out, exist_ok=True)
    env = environment(root, args.seed, args.workload)
    results = []
    tmp = tempfile.mkdtemp(prefix="run-", dir=out)
    try:
        for name in names:
            deadline = time.monotonic() + RUN_LIMIT_S
            results.append(run_workload(root, name, args.seed, args.seconds,
                                        bool(args.trace), tmp, deadline))
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    finally:
        shutil.rmtree(tmp, ignore_errors=True)

    for res in results:
        res["environment"] = {**env, "workload": res["workload"], **res["environment"]}
        stem = f"{res['workload']}-seed{args.seed}-trace{args.trace}"
        spans = res.pop("spans")
        if spans is not None:
            with open(os.path.join(out, stem + "-spans.json"), "w") as fh:
                json.dump(spans, fh)
        with open(os.path.join(out, stem + ".json"), "w") as fh:
            json.dump(res, fh, indent=1, sort_keys=True)
        print(f"== {res['workload']} seed={args.seed} trace={args.trace} "
              f"passes={len(res['passes'])} correct={res['correct']} "
              f"attempted={res['attempted']} failed={res['failed']}")
        print("environment " + json.dumps(res["environment"], sort_keys=True))
        for err in res["errors"]:
            print(f"failed operation: {err}")
        for check in res["failed_checks"]:
            print(f"FAILED CHECK: {check}")
        for key, value in sorted(res["accuracy"].items()):
            print(f"{key:32s} {value:.6g}")
        for key, m in res["metrics"].items():
            print(f"{key:32s} {m['value']:.6g} {m['unit']}")

    if len(results) == 1:
        metrics = results[0]["metrics"]
    else:
        metrics = {f"{r['workload']}.{k}": v for r in results for k, v in r["metrics"].items()}
    correct = all(r["correct"] for r in results)
    print(json.dumps({"correct": correct,
                      "attempted": sum(r["attempted"] for r in results),
                      "failed": sum(r["failed"] for r in results),
                      "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    raise SystemExit(main())
