"""In-memory span tracer for the robinsym benchmark.

The tracer wraps public robinsym functions from outside the package: every
place a caller looks a traced function up (the defining module, every module
that imported it by name, module-level dispatch tables such as
``verify.CHECKERS``, and class attributes for methods) is pointed at one
wrapper, and the originals are put back on exit.  Each call records a span
(stage name, start, end, parent span, job or rung tag, and a few counters
read from arguments and results).  Spans stay in a list until the pass ends.
"""

from __future__ import annotations

import contextlib
import functools
import hashlib
import sys
import time
from dataclasses import dataclass, field

# stage name -> (module, attribute) pairs; "Class.method" patches a class
# attribute.  These are the layer boundaries the benchmark reports.
STAGES = {
    "config.parse": [("config", "parse_config")],
    "domains.asymmetry": [("domains", "cached_asymmetry"),
                          ("domains", "fraenkel_asymmetry")],
    "meshing.generate": [("meshing", "generate_mesh")],
    "meshing.refine": [("meshing", "refine_mesh")],
    "fem.assemble": [("fem", "assemble_robin_system")],
    "fem.solve": [("fem", "solve_robin_poisson"), ("fem", "solve_poisson")],
    "fem.eigen": [("fem", "principal_robin_eigenpair")],
    "levelset.mu_segments": [("levelset", "build_mu_segments")],
    "rearrange.mu": [("rearrange", "distribution_function")],
    "rearrange.lorentz": [("rearrange", "lorentz_power_integral")],
    "rearrange.fstar": [("rearrange", "decreasing_rearrangement")],
    "radial.symmetrize": [("radial", "symmetrized_solution"),
                          ("radial", "RadialSolution.lorentz_power_integral")],
    "radial.oracle": [("radial", "bessel_eigen_oracle"), ("radial", "ball_torsion"),
                      ("radial", "ball_closed_forms")],
    "verify.check": [("verify", name) for name in
                     ("check_lorentz_k1", "check_lorentz_2k2", "check_pointwise",
                      "check_saint_venant", "check_bossel_daners")],
    "runner.emit": [("runner", "emit_reports")],
}


@dataclass
class Span:
    id: int
    stage: str
    func: str
    parent: int | None
    tag: str | None
    start: float
    end: float = 0.0
    failed: bool = False
    info: dict = field(default_factory=dict)

    @property
    def duration(self) -> float:
        return self.end - self.start


def _fingerprint(system) -> str:
    """Exact identity of a linear system: matrix pattern, values and rhs."""
    A = system.matrix
    h = hashlib.blake2b(digest_size=16)
    for arr in (A.indptr, A.indices, A.data, system.rhs):
        h.update(arr.tobytes())
    return h.hexdigest()


def _annotate_call(span: Span, func: str, args) -> None:
    """Counters read from the arguments, before the call can fail."""
    if func == "solve_poisson":
        span.info["fingerprint"] = _fingerprint(args[0])


def _annotate_result(span: Span, func: str, result) -> None:
    """Counters read from the result (sizes)."""
    if func in ("generate_mesh", "refine_mesh"):
        span.info["nodes"] = int(result.num_nodes)
    elif func == "assemble_robin_system":
        span.info["nnz"] = int(result.matrix.nnz)
    elif func == "build_mu_segments":
        span.info["segments"] = int(result.num_segments)


PACKAGE = "robinsym"


class Tracer:
    """Patch the traced robinsym names, record spans, restore on exit."""

    def __init__(self):
        self.spans: list[Span] = []
        self._stack: list[Span] = []
        self._undo: list = []
        self._jobs = 0

    # -- spans ---------------------------------------------------------------

    def _open(self, stage: str, func: str, tag: str | None = None) -> Span:
        parent = self._stack[-1] if self._stack else None
        if tag is None and parent is not None:
            tag = parent.tag
        span = Span(id=len(self.spans), stage=stage, func=func,
                    parent=None if parent is None else parent.id, tag=tag,
                    start=time.perf_counter())
        self.spans.append(span)
        self._stack.append(span)
        return span

    def _close(self, span: Span) -> None:
        span.end = time.perf_counter()
        popped = self._stack.pop()
        if popped is not span:
            raise RuntimeError("span stack out of order")

    @contextlib.contextmanager
    def span(self, stage: str, tag: str | None = None):
        """A span opened by the benchmark itself (the pass, a ladder rung,
        a correctness check)."""
        span = self._open(stage, stage, tag)
        try:
            yield span
        except BaseException:
            span.failed = True
            raise
        finally:
            self._close(span)

    def _wrap(self, stage: str, name: str, fn):
        tracer = self
        func = name.rsplit(".", 1)[-1]
        is_check = stage == "verify.check"

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            tag = None
            if is_check:
                tag = f"job{tracer._jobs}"
                tracer._jobs += 1
            span = tracer._open(stage, func, tag)
            _annotate_call(span, func, args)
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                span.failed = True
                raise
            finally:
                tracer._close(span)
            _annotate_result(span, func, result)
            return result

        return traced

    # -- patching ------------------------------------------------------------

    def _modules(self):
        return [m for n, m in sorted(sys.modules.items())
                if m is not None and (n == PACKAGE or n.startswith(PACKAGE + "."))]

    def install(self) -> "Tracer":
        """Point every lookup site of every traced name at its wrapper."""
        modules = self._modules()
        by_name = {m.__name__: m for m in modules}
        for stage, targets in STAGES.items():
            for modname, attr in targets:
                mod = by_name[f"{PACKAGE}.{modname}"]
                if "." in attr:
                    cls_name, meth = attr.split(".")
                    cls = getattr(mod, cls_name)
                    orig = cls.__dict__[meth]
                    self._set(cls, meth, orig, self._wrap(stage, attr, orig))
                    continue
                orig = getattr(mod, attr)
                wrapper = self._wrap(stage, attr, orig)
                for m in modules:
                    for key, val in list(vars(m).items()):
                        if val is orig:
                            self._set(m, key, orig, wrapper)
                        elif type(val) is dict:
                            for dkey, dval in list(val.items()):
                                if dval is orig:
                                    self._set_item(val, dkey, orig, wrapper)
        return self

    def _set(self, owner, key, orig, new):
        setattr(owner, key, new)
        self._undo.append(lambda: setattr(owner, key, orig))

    def _set_item(self, table, key, orig, new):
        table[key] = new
        self._undo.append(lambda: table.__setitem__(key, orig))

    def uninstall(self) -> None:
        while self._undo:
            self._undo.pop()()

    def __enter__(self) -> "Tracer":
        return self.install()

    def __exit__(self, exc_type, exc, tb):
        self.uninstall()
        return False

    # -- analysis ------------------------------------------------------------

    def self_times(self) -> dict:
        """span id -> span duration minus the durations of its children."""
        out = {s.id: s.duration for s in self.spans}
        for s in self.spans:
            if s.parent is not None:
                out[s.parent] -= s.duration
        return out

    def records(self) -> list:
        """Spans as plain dicts, for writing out after the pass."""
        return [{"id": s.id, "stage": s.stage, "func": s.func, "parent": s.parent,
                 "tag": s.tag, "start": s.start, "end": s.end, "failed": s.failed,
                 **s.info} for s in self.spans]


class NullTracer:
    """Stand-in used on untraced passes: the same calls, no patching, no spans."""

    def span(self, stage: str, tag: str | None = None):
        return contextlib.nullcontext()


# Stage -> metric reported for its summed self time.
STAGE_METRICS = {stage: stage + "_s" for stage in STAGES}
STAGE_METRICS["verify.check"] = "verify.check_self_s"

# Stages also reported per ladder rung, with the suffix ".r<i>".
RUNG_STAGES = ("meshing.generate", "meshing.refine", "fem.assemble", "fem.solve",
               "fem.eigen", "levelset.mu_segments", "rearrange.mu",
               "rearrange.lorentz", "rearrange.fstar", "radial.symmetrize")


def layer_metrics(tracer: Tracer, rungs: int) -> dict:
    """Per-layer numbers from the spans of one traced pass.

    Stage times are self times, so they add up, together with
    ``trace.unattributed_s`` (self time of the pass and rung spans the
    benchmark opens itself) and the self time of the correctness-check
    spans, to the total duration of the top-level spans.
    """
    spans = tracer.spans
    self_t = tracer.self_times()
    children: dict = {}
    for s in spans:
        if s.parent is not None:
            children.setdefault(s.parent, []).append(s)
    by_func: dict = {}
    for s in spans:
        by_func.setdefault(s.func, []).append(s)

    out = {metric: 0.0 for metric in STAGE_METRICS.values()}
    out["trace.unattributed_s"] = 0.0
    for s in spans:
        if s.stage in STAGE_METRICS:
            out[STAGE_METRICS[s.stage]] += self_t[s.id]
        elif s.stage != "gate":
            out["trace.unattributed_s"] += self_t[s.id]

    cached = by_func.get("cached_asymmetry", [])
    searches = by_func.get("fraenkel_asymmetry", [])
    hits = [s for s in cached if not s.failed
            and not any(c.func == "fraenkel_asymmetry" for c in children.get(s.id, []))]
    out["domains.asymmetry_searches"] = len(searches)
    out["domains.asymmetry_failed"] = sum(s.failed for s in searches)
    out["domains.asymmetry_hit_frac"] = len(hits) / len(cached) if cached else 0.0

    generate = by_func.get("generate_mesh", [])
    gen_ids = {s.id for s in generate}
    meshes = generate + [s for s in by_func.get("refine_mesh", [])
                         if s.parent not in gen_ids]
    mesh_ids = {s.id for s in meshes}
    out["meshing.meshes"] = len(meshes)
    out["meshing.nodes_max"] = max((s.info.get("nodes", 0) for s in meshes), default=0)

    solves = by_func.get("solve_poisson", [])
    out["fem.solves"] = len(solves)
    out["fem.solve_failed"] = sum(s.failed for s in solves)
    distinct = {s.info["fingerprint"] for s in solves}
    out["fem.solve_distinct_frac"] = len(distinct) / len(solves) if solves else 0.0
    out["fem.nnz_max"] = max((s.info.get("nnz", 0) for s in
                              by_func.get("assemble_robin_system", [])), default=0)
    eigens = by_func.get("principal_robin_eigenpair", [])
    out["fem.eigens"] = len(eigens)
    out["fem.eigen_failed"] = sum(s.failed for s in eigens)
    out["levelset.segments_max"] = max((s.info.get("segments", 0) for s in
                                        by_func.get("build_mu_segments", [])), default=0)
    out["verify.jobs"] = sum(1 for s in spans if s.stage == "verify.check")

    for i in range(rungs):
        tag = f"r{i}"
        for stage in RUNG_STAGES:
            out[f"{STAGE_METRICS[stage]}.{tag}"] = 0.0
        nodes = 0
        for s in spans:
            if s.tag != tag:
                continue
            if s.stage in RUNG_STAGES:
                out[f"{STAGE_METRICS[s.stage]}.{tag}"] += self_t[s.id]
            if s.id in mesh_ids:
                nodes = s.info.get("nodes", 0)
        out[f"meshing.nodes.{tag}"] = nodes
    return out
