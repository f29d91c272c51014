"""One pass of one workload in a fresh interpreter.

Usage: python3 perfbench/child.py SPEC_JSON OUT_JSON

SPEC_JSON holds the workload inputs (workloads.make_spec), run.py's
monotonic clock reading taken just before this interpreter was started, the
mode ("pass" or "setup", which stops once ready), whether to trace, and a
scratch directory for reports.  The pass writes its timings, counters, check
results and, when traced, its spans and per-layer numbers to OUT_JSON.
"""

from __future__ import annotations

import json
import os
import resource
import sys
import time


def _environment() -> dict:
    """Library versions and the OpenBLAS build and thread count in use."""
    import ctypes

    import numpy
    import scipy

    env = {"numpy": numpy.__version__, "scipy": scipy.__version__, "openblas": []}
    with open("/proc/self/maps") as fh:
        libs = sorted({line.split()[-1] for line in fh if "openblas" in line.lower()
                       and line.split()[-1].startswith("/")})
    for path in libs:
        lib = ctypes.CDLL(path)
        entry = {"library": os.path.basename(path)}
        for prefix, suffix in (("scipy_openblas_", "64_"), ("scipy_openblas_", ""),
                               ("openblas_", "64_"),
                               ("openblas_", "")):
            try:
                get_config = getattr(lib, f"{prefix}get_config{suffix}")
                get_threads = getattr(lib, f"{prefix}get_num_threads{suffix}")
            except AttributeError:
                continue
            get_config.restype = ctypes.c_char_p
            get_threads.restype = ctypes.c_int
            entry.update(config=get_config().decode(), threads=int(get_threads()))
            break
        env["openblas"].append(entry)
    return env


def main(argv) -> int:
    spec_path, out_path = argv
    with open(spec_path) as fh:
        job = json.load(fh)
    here = os.path.dirname(os.path.abspath(__file__))
    sys.path.insert(0, here)
    import workloads
    from tracer import NullTracer, Tracer, layer_metrics

    spec = job["spec"]
    tracer = NullTracer()
    if job["trace"]:
        import robinsym.cli  # noqa: F401  (load every module before patching)

        tracer = Tracer().install()
    state = workloads.setup(spec)
    ready = time.monotonic()
    result = {"setup_s": ready - job["spawned"]}
    src = os.path.dirname(os.path.dirname(os.path.abspath(state["robinsym"].__file__)))
    if src != os.path.abspath(job["src"]):
        raise RuntimeError(f"robinsym was imported from {src}, not from {job['src']}")
    if job["mode"] == "setup":
        _write(out_path, result)
        return 0

    outdir = job["outdir"]
    watch = workloads.Stopwatch()
    with tracer.span("pass"):
        data = workloads.run_pass(spec, state, tracer, watch, outdir)
    result["wall_s"] = watch.elapsed()
    result["cpu_s"] = watch.cpu_elapsed()
    result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    if job["trace"]:
        tracer.uninstall()

    if "ops" in data:
        result.update(workloads.summarize_ops(data))
        result["ops"] = data["ops"]
    else:
        result.update(workloads.check_reports(outdir))
        if "exit_code" in data:
            all_ok = result["passed"] == result["attempted"]
            result["checks"]["exit_code"] = (data["exit_code"] == 0) == all_ok
    if job["trace"]:
        result["layer"] = layer_metrics(tracer, workloads.MAX_RUNGS)
        result["spans"] = tracer.records()
    result["environment"] = _environment()
    _write(out_path, result)
    return 0


def _write(path: str, payload: dict) -> None:
    with open(path, "w") as fh:
        json.dump(payload, fh)


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
