"""Layer timers wrapped around the program's public functions.

The traced run replaces selected functions and methods with wrappers that
count calls, count rows (a kernel's effective batch width) and time each
call.  Every wrapper pushes a child-time slot on a shared stack, so a
bucket's *self* time excludes time spent inside any other wrapped call:
the self times of different buckets never overlap.  *Inclusive* time is
also kept, counting only the outermost call of a bucket.

Nothing in the program changes: wrappers call straight through and return
the original result, so traced outputs must equal untraced ones
(``run.py`` checks this).
"""

from __future__ import annotations

import resource
import sys
from time import perf_counter
from typing import Callable

RowCounter = Callable[[tuple, dict], int]


def peak_rss_mb() -> float:
    """Peak resident set of this process so far, in MiB (Linux: KiB units)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


class _Bucket:
    __slots__ = ("calls", "rows", "self_s", "incl_s", "depth")

    def __init__(self):
        self.calls = 0
        self.rows = 0
        self.self_s = 0.0
        self.incl_s = 0.0
        self.depth = 0


class LayerProbe:
    """Per-bucket totals of the wrapped calls.

    Wrappers stay installed for the life of the traced process.
    """

    def __init__(self):
        self._buckets: dict[str, _Bucket] = {}
        self._stack: list[float] = []
        self.extra: dict[str, float] = {}

    # ------------------------------------------------------------ wrapping
    def _wrapper(self, fn, bucket_name: str, rows: RowCounter | None, after):
        bucket = self._buckets.setdefault(bucket_name, _Bucket())
        stack = self._stack

        def wrapper(*args, **kwargs):
            stack.append(0.0)
            bucket.depth += 1
            start = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                elapsed = perf_counter() - start
                child = stack.pop()
                bucket.depth -= 1
                bucket.calls += 1
                bucket.self_s += elapsed - child
                if bucket.depth == 0:
                    bucket.incl_s += elapsed
                if rows is not None:
                    bucket.rows += rows(args, kwargs)
                if stack:
                    stack[-1] += elapsed
                if after is not None:
                    after()

        wrapper.__wrapped__ = fn
        return wrapper

    def wrap_method(
        self, cls, name: str, bucket: str, rows: RowCounter | None = None
    ) -> None:
        """Wrap ``cls.name`` (a plain method defined on ``cls`` itself)."""
        setattr(cls, name, self._wrapper(cls.__dict__[name], bucket, rows, None))

    def wrap_function(
        self, fn, bucket: str, rows: RowCounter | None = None, after=None
    ) -> None:
        """Wrap a module-level function everywhere it is bound by name.

        Modules that did ``from x import fn`` hold their own reference, so
        every loaded ``repro`` module binding the same object is patched.
        """
        wrapper = self._wrapper(fn, bucket, rows, after)
        for module_name, module in list(sys.modules.items()):
            if module is None or not module_name.startswith("repro"):
                continue
            namespace = vars(module)
            for attr, value in list(namespace.items()):
                if value is fn:
                    setattr(module, attr, wrapper)

    # ------------------------------------------------------------- reading
    def reset(self) -> None:
        for bucket in self._buckets.values():
            bucket.calls = bucket.rows = 0
            bucket.self_s = bucket.incl_s = 0.0
        self.extra.clear()

    def totals(self) -> dict[str, float]:
        """Additive raw totals, keyed ``<bucket>.<field>``."""
        out: dict[str, float] = dict(self.extra)
        for name, bucket in self._buckets.items():
            out[f"{name}.calls"] = bucket.calls
            out[f"{name}.rows"] = bucket.rows
            out[f"{name}.self_s"] = bucket.self_s
            out[f"{name}.incl_s"] = bucket.incl_s
        return out


def recorder_totals(recorder) -> dict[str, float]:
    """Counters and exact histogram moments of a ``repro.obs`` Recorder."""
    out: dict[str, float] = {f"rec.{k}": float(v) for k, v in recorder.counters.items()}
    for name, hist in recorder.histograms.items():
        out[f"hist.{name}.count"] = float(hist.count)
        out[f"hist.{name}.total"] = float(hist.total)
    return out


def _second_len(args: tuple, kwargs: dict) -> int:
    """Row count of ``method(self, batch, ...)``."""
    return len(args[1])


def install_layer_probe() -> LayerProbe:
    """Wrap every layer boundary the per-layer metrics read."""
    from repro.accuracy import exit_model, surrogate
    from repro.arch import cost
    from repro.engine import service
    from repro.eval import dynamic, static
    from repro.exits import training
    from repro.hardware import population_kernel
    from repro.metrics import pareto
    from repro.nn import functional, optim, tensor
    from repro.search import hadas, ioe, nsga2
    from repro.serving import governor, harness, router, simulator, stream, workload
    from repro.supernet import pretrain

    probe = LayerProbe()
    method = probe.wrap_method
    function = probe.wrap_function

    # search
    method(nsga2.NSGA2, "make_offspring", "search.offspring")
    method(nsga2.NSGA2, "_evaluate_all", "search.evaluate")
    method(ioe._InnerProblem, "evaluate_batch", "search.evaluate")
    function(nsga2.environmental_selection, "search.selection")
    function(nsga2.rank_and_crowd, "search.selection")
    method(ioe.InnerEngine, "run", "search.inner_run")
    method(hadas.HadasSearch, "make_inner_engine", "search.inner_build")
    # metrics
    function(pareto.non_dominated_sort, "metrics.sort")
    # eval
    method(dynamic.DynamicEvaluator, "evaluate_generation", "eval.generation")
    method(
        dynamic.DynamicEvaluator, "evaluate_population", "eval.population",
        rows=_second_len,
    )
    method(static.StaticEvaluator, "evaluate", "eval.static")
    # hardware
    method(
        population_kernel.PopulationKernel, "fused_batch", "hardware.fused_batch",
        rows=_second_len,
    )
    method(population_kernel.PopulationKernel, "path_costs", "hardware.path_costs")
    # accuracy
    method(
        exit_model.BackboneExitOracle, "population_stats", "accuracy.oracle_stats",
        rows=_second_len,
    )
    method(exit_model.BackboneExitOracle, "__init__", "accuracy.oracle_init")
    method(exit_model.BackboneExitOracle, "_column", "accuracy.oracle_column")
    for name in ("__init__", "accuracy", "accuracy_fraction"):
        method(surrogate.AccuracySurrogate, name, "accuracy.surrogate")
    # arch
    function(cost.estimate_cost, "arch.cost")
    # engine
    method(service.EvaluationService, "evaluate_batch", "engine.service")
    # serving
    function(harness.build_serving_stack, "serving.stack_build")

    def note_trace_rss() -> None:
        probe.extra["serving.trace_peak_rss_mb"] = peak_rss_mb()

    function(workload.make_trace, "serving.trace_build", after=note_trace_rss)
    method(stream.LogitsSynthesizer, "synthesize", "serving.stream_build")
    function(simulator.compile_stream, "serving.compile_stream")
    method(governor.AdaptiveGovernor, "select", "serving.governor")
    method(governor.StaticPolicy, "select", "serving.governor")
    # fleet
    for cls in (router.RoundRobinRouter, router.LeastBacklogRouter,
                router.DifficultyAwareRouter):
        method(cls, "route_block", "fleet.route")
    # nn / supernet / exits
    function(functional.conv2d, "nn.conv2d")
    method(tensor.Tensor, "backward", "nn.backward")
    method(optim.Adam, "step", "nn.optim")
    method(optim.SGD, "step", "nn.optim")
    function(pretrain.pretrain_supernet, "supernet.pretrain")
    function(training.train_exits, "exits.train")
    return probe
