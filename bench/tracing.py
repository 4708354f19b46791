"""Layer spans for the benchmark's traced passes.

A :class:`Tracer` wraps, for the duration of a ``with tracer.active():``
block, every public function of every ``rbsdelab`` module, in the defining
module and in every module that imported it by name.  Three private entry
points are wrapped as well, because the layer metrics need them:

- ``cli._map_ordered``: each scenario handed to a worker becomes a
  ``cli.work`` span on the worker's thread, whose parent is the
  ``cli._map_ordered`` span on the calling thread;
- ``bsde._bisect_step``: counted on the enclosing span, not timed;
- ``GeneratorSpec.__call__``: counted on the enclosing span, not timed.

``AdaptedRegulatedProcess.__post_init__`` (the validation every process
build runs) is recorded as the span ``tree_space.AdaptedRegulatedProcess``.

Each span records its name, parent, thread, wall-clock start and end, and
the thread CPU time spent inside it.  Self time is the span's CPU time
minus that of its direct children on the same thread, so the two worker
threads of a ``--jobs 2`` solve do not count each other's time or the time
they wait for the interpreter lock.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import inspect
import itertools
import statistics
import threading
import time
from collections import Counter, defaultdict

LAYERS = (
    "cli",
    "scenarios",
    "tree_space",
    "snell",
    "bsde",
    "rbsde",
    "penalization",
    "ito_regulated",
    "grid_path",
)

STEP = "bsde.implicit_interval_step"
REDUCTION = "rbsde.solve_via_reduction"
LOWER_BOUND = "rbsde.default_lower_bound"
TRANSFORM = "rbsde.barrier_transform"
PROCESS = "tree_space.AdaptedRegulatedProcess"


class Span:
    __slots__ = (
        "id", "name", "parent", "thread", "start", "end",
        "cpu", "self_cpu", "gen_evals", "fallbacks", "_cpu0", "_child_cpu",
    )

    def __init__(self, span_id: int, name: str, parent: int | None) -> None:
        self.id = span_id
        self.name = name
        self.parent = parent
        self.thread = threading.get_ident()
        self.gen_evals = 0
        self.fallbacks = 0
        self._child_cpu = 0.0
        self.end = self.cpu = self.self_cpu = 0.0
        self.start = time.perf_counter()
        self._cpu0 = time.thread_time()

    @property
    def layer(self) -> str:
        return self.name.split(".", 1)[0]


class Tracer:
    """Span recorder; spans stay in memory until :meth:`take` hands them out."""

    def __init__(self) -> None:
        self._ids = itertools.count()
        self._local = threading.local()
        self._spans: list[Span] = []
        self._patches: list[tuple[object, str, object]] = []

    # -- recording -----------------------------------------------------

    def _stack(self) -> list[Span]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _enter(self, name: str, parent: int | None = None) -> Span:
        stack = self._stack()
        span = Span(next(self._ids), name, stack[-1].id if stack else parent)
        stack.append(span)
        return span

    def _exit(self, span: Span) -> None:
        span.cpu = time.thread_time() - span._cpu0
        span.end = time.perf_counter()
        stack = self._stack()
        stack.pop()
        span.self_cpu = span.cpu - span._child_cpu
        if stack:
            stack[-1]._child_cpu += span.cpu
        self._spans.append(span)

    def _span(self, name: str, fn, parent: int | None = None):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = self._enter(name, parent)
            try:
                return fn(*args, **kwargs)
            finally:
                self._exit(span)

        return traced

    def _counter(self, field: str, fn):
        @functools.wraps(fn)
        def counted(*args, **kwargs):
            stack = self._stack()
            if stack:
                setattr(stack[-1], field, getattr(stack[-1], field) + 1)
            return fn(*args, **kwargs)

        return counted

    def _mapper(self, fn):
        @functools.wraps(fn)
        def traced_map(work, items, jobs):
            span = self._enter("cli._map_ordered")
            try:
                return fn(self._span("cli.work", work, parent=span.id), items, jobs)
            finally:
                self._exit(span)

        return traced_map

    # -- installation --------------------------------------------------

    def _targets(self, modules: dict) -> dict:
        targets = {}
        for layer, module in modules.items():
            for attr, obj in vars(module).items():
                if (
                    inspect.isfunction(obj)
                    and obj.__module__ == module.__name__
                    and not attr.startswith("_")
                ):
                    targets[obj] = self._span(f"{layer}.{attr}", obj)
        cli, bsde = modules["cli"], modules["bsde"]
        targets[cli._map_ordered] = self._mapper(cli._map_ordered)
        targets[bsde._bisect_step] = self._counter("fallbacks", bsde._bisect_step)
        return targets

    def _patch(self, owner, attr: str, value) -> None:
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def install(self) -> None:
        if self._patches:
            raise RuntimeError("tracer already installed")
        package = importlib.import_module("rbsdelab")
        modules = {name: importlib.import_module(f"rbsdelab.{name}") for name in LAYERS}
        targets = self._targets(modules)
        for module in [package, *modules.values()]:
            for attr, obj in list(vars(module).items()):
                if inspect.isfunction(obj) and obj in targets:
                    self._patch(module, attr, targets[obj])
        process = modules["tree_space"].AdaptedRegulatedProcess
        self._patch(process, "__post_init__", self._span(PROCESS, process.__post_init__))
        spec = modules["bsde"].GeneratorSpec
        self._patch(spec, "__call__", self._counter("gen_evals", spec.__call__))

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, value = self._patches.pop()
            setattr(owner, attr, value)

    @contextlib.contextmanager
    def active(self):
        self.install()
        try:
            yield self
        finally:
            self.uninstall()

    def take(self) -> list[Span]:
        spans, self._spans = self._spans, []
        return spans


# ----------------------------------------------------------------------
# layer metrics

#: name -> unit of every per-layer metric, in report order.
METRICS = {
    "cli.self_s": "s",
    "cli.artifact_bytes": "bytes",
    "cli.files": "count",
    "scenarios.build_s": "s",
    "scenarios.self_s": "s",
    "tree_space.rule_fields_s": "s",
    "tree_space.process_builds": "count",
    "tree_space.process_validate_s": "s",
    "tree_space.self_s": "s",
    "snell.envelope_s": "s",
    "snell.brute_force_s": "s",
    "snell.self_s": "s",
    "bsde.implicit_step_s": "s",
    "bsde.implicit_steps": "count",
    "bsde.gen_evals_per_step": "ratio",
    "bsde.bisection_fallbacks": "count",
    "bsde.self_s": "s",
    "rbsde.direct_s": "s",
    "rbsde.reduction_s": "s",
    "rbsde.reduction.lower_bound_s": "s",
    "rbsde.reduction.transform_s": "s",
    "rbsde.reduction.self_s": "s",
    "rbsde.transforms_per_reduction": "ratio",
    "rbsde.verify_s": "s",
    "rbsde.distance_s": "s",
    "rbsde.compare_s": "s",
    "rbsde.self_s": "s",
    "penalization.solve_s": "s",
    "penalization.study_s": "s",
    "penalization.solves": "count",
    "penalization.self_s": "s",
    "ito_regulated.tail_check_s": "s",
    "ito_regulated.jump_terms_s": "s",
    "ito_regulated.residual_s": "s",
    "ito_regulated.serialize_s": "s",
    "ito_regulated.self_s": "s",
    "trace.spans": "count",
    "trace.overhead_pct": "%",
}

#: Metrics that must repeat exactly between traced passes of one input.
DETERMINISTIC = tuple(name for name, unit in METRICS.items() if unit in ("count", "bytes", "ratio"))


def layer_self_times(spans: list[Span]) -> dict[str, float]:
    """Self CPU seconds per layer."""
    out = {layer: 0.0 for layer in LAYERS}
    for span in spans:
        out[span.layer] += span.self_cpu
    return out


def unreached_layers(spans: list[Span]) -> list[str]:
    """Layers in which no traced call ran."""
    reached = {span.layer for span in spans}
    return [layer for layer in LAYERS if layer not in reached]


def dominant(spans: list[Span]) -> tuple[str, str, float, float]:
    """(layer, function, layer self seconds, traced self seconds) of the largest layer."""
    per_layer = layer_self_times(spans)
    layer = max(per_layer, key=per_layer.get)
    per_name: dict[str, float] = defaultdict(float)
    for span in spans:
        if span.layer == layer:
            per_name[span.name] += span.self_cpu
    name = max(per_name, key=per_name.get) if per_name else layer
    return layer, name, per_layer[layer], sum(per_layer.values())


def layer_metrics(spans: list[Span], artifact_bytes: int, files: int) -> dict[str, float]:
    """Every entry of :data:`METRICS` except the tracing overhead, for one pass."""
    by_id = {span.id: span for span in spans}
    total: dict[str, float] = defaultdict(float)
    count: Counter = Counter()
    outermost: dict[str, float] = defaultdict(float)
    in_reduction: dict[str, float] = defaultdict(float)
    in_reduction_count: Counter = Counter()
    gen_evals_in_steps = 0
    fallbacks = 0
    for span in spans:
        total[span.name] += span.cpu
        count[span.name] += 1
        parent = by_id.get(span.parent)
        if parent is None or parent.layer != span.layer:
            outermost[span.layer] += span.cpu
        if parent is not None and parent.name == REDUCTION:
            in_reduction[span.name] += span.cpu
            in_reduction_count[span.name] += 1
        if span.name == STEP:
            gen_evals_in_steps += span.gen_evals
        fallbacks += span.fallbacks
    self_times = layer_self_times(spans)
    steps = count[STEP]
    reductions = count[REDUCTION]
    metrics = {
        "cli.artifact_bytes": float(artifact_bytes),
        "cli.files": float(files),
        "scenarios.build_s": outermost["scenarios"],
        "tree_space.rule_fields_s": total["tree_space.rule_value_fields"],
        "tree_space.process_builds": float(count[PROCESS]),
        "tree_space.process_validate_s": total[PROCESS],
        "snell.envelope_s": total["snell.snell_envelope"],
        "snell.brute_force_s": total["snell.brute_force_snell"],
        "bsde.implicit_step_s": total[STEP],
        "bsde.implicit_steps": float(steps),
        "bsde.gen_evals_per_step": gen_evals_in_steps / steps if steps else 0.0,
        "bsde.bisection_fallbacks": float(fallbacks),
        "rbsde.direct_s": total["rbsde.solve_reflected_direct"],
        "rbsde.reduction_s": total[REDUCTION],
        "rbsde.reduction.lower_bound_s": in_reduction[LOWER_BOUND],
        "rbsde.reduction.transform_s": in_reduction[TRANSFORM],
        "rbsde.reduction.self_s": total[REDUCTION]
        - in_reduction[LOWER_BOUND]
        - in_reduction[TRANSFORM],
        "rbsde.transforms_per_reduction": (
            in_reduction_count[TRANSFORM] / reductions if reductions else 0.0
        ),
        "rbsde.verify_s": total["rbsde.verify_solution"],
        "rbsde.distance_s": total["rbsde.solution_distance"],
        "rbsde.compare_s": total["rbsde.compare_solutions"],
        "penalization.solve_s": total["penalization.solve_penalized"],
        "penalization.study_s": total["penalization.convergence_study"],
        "penalization.solves": float(count["penalization.solve_penalized"]),
        "ito_regulated.tail_check_s": total["ito_regulated.cor4_inequality_check"],
        "ito_regulated.jump_terms_s": total["ito_regulated.power_jump_terms"],
        "ito_regulated.residual_s": total["ito_regulated.ito_residual"]
        + total["ito_regulated.product_residual"],
        "ito_regulated.serialize_s": total["ito_regulated.serialize_path_csv"],
        "trace.spans": float(len(spans)),
    }
    for layer in LAYERS:
        if f"{layer}.self_s" in METRICS:
            metrics[f"{layer}.self_s"] = self_times[layer]
    return metrics


def median_metrics(passes: list[dict[str, float]]) -> dict[str, float]:
    """Per-metric median over traced passes."""
    return {name: statistics.median(p[name] for p in passes) for name in passes[0]}
