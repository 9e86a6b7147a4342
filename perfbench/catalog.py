"""What the benchmark measures: workloads, metrics and the layer map.

Plain data shared by ``run.py`` and the measuring process (``worker.py``);
it imports nothing from the program, so ``run.py`` can describe and
validate a run before anything is built.

Every metric carries its unit, its direction and its kind:

* ``host``      -- host wall time or memory; varies run to run;
* ``simulated`` -- a quantity of the simulated system or of the search
                   result; fixed for a given seed, so any change in it is a
                   behaviour change, not noise;
* ``count``     -- an exact count (or a ratio of exact counts) taken from
                   the traced run; fixed for a given seed.
"""

from __future__ import annotations

#: Start of every protocol line a measuring process writes to stdout.
PREFIX = "@perfbench "

# --------------------------------------------------------------- workloads
#: name -> why it was chosen.  Each workload runs single-threaded (one
#: worker, BLAS pinned to one thread): on a small shared host a process
#: pool would measure the scheduler, so the engine's process executor is
#: deliberately left out.
WORKLOADS: dict[str, str] = {
    "ioe-paper": (
        "Paper-budget (50x70) inner NSGA-II on the a3 backbone, once on each "
        "of tx2-gpu, agx-gpu, carmel-cpu and denver-cpu. The hot search path: "
        "each generation's 50 genomes split into DVFS groups of ~1.5 genomes, "
        "so kernel width and per-call overhead dominate. No static evaluation, "
        "no engine fan-out; the four board grids differ (126-261 settings)."
    ),
    "hadas-bilevel": (
        "Full HadasSearch on tx2-gpu, paper outer budget (30x15, 5 IOE "
        "candidates) with the fast inner budget (16x6): the whole search "
        "path, cold. Each of ~23-30 distinct backbones builds its own exit "
        "oracle and inner NSGA-II, whose generations split into DVFS groups "
        "of ~1.1 genomes. The static evaluator, estimate_cost and the "
        "surrogate sit on its hot path, and the evaluation engine is reached "
        "only here. Six searches per seed (seeds 6s to 6s+5): how many inner "
        "runs a search needs depends on its seed's backbone repeats, so the "
        "work of one search alone varies from seed to seed."
    ),
    "serve-1m": (
        "Single tx2-gpu device, a3 with 3 exits, adaptive governor, Poisson "
        "arrivals at 0.7 utilisation, 10^6 requests, unbounded queue. The "
        "indexed single-device engine, batcher, compiled pricing and "
        "governor at the headline scale; no router and no admission."
    ),
    "fleet-bursty": (
        "Quad fleet (agx-gpu, carmel-cpu, tx2-gpu, denver-cpu), difficulty-"
        "aware router, adaptive governors, bursty MMPP arrivals at 0.95 "
        "utilisation, 20% latency-critical, per-lane admission cap 32, "
        "~2x10^5 requests. Exercises routing blocks, admission drops, the "
        "critical bypass and burst-widened batches. Known defect kept "
        "visible on purpose: serving/workload.py::bursty_trace keeps a view "
        "of a full-buffer cumsum per dwell segment, so trace build time and "
        "memory grow quadratically; it shows in setup_s, peak_rss_mb and "
        "serving.trace_peak_rss_mb (about 0.9 GiB right after the trace "
        "build) so that a fix can be claimed."
    ),
    "train-exits": (
        "Miniature supernet pretraining (5 sandwich steps) then frozen-"
        "backbone exit training (15 steps) on the 512-sample synthetic set, "
        "as in examples/train_multi_exit.py; pretraining is cut from 10 "
        "steps so that each of a run's three processes times a whole "
        "operation inside the run length. The only workload that reaches "
        "nn (im2col/col2im, autograd, optimisers); it bypasses every search "
        "and serving layer, and the other workloads bypass nn."
    ),
}

# ---------------------------------------------------------- end-to-end
#: (name, unit, better, kind, meaning).  Every workload reports every one of
#: these, so each is defined for every workload.
END_TO_END: list[tuple[str, str, str, str, str]] = [
    ("setup_s", "s", "lower", "host",
     "interpreter start to ready-to-run: imports, stacks, trace, stream, "
     "dataset; median over the fresh processes of one run"),
    ("run_rel", "ref", "lower", "host",
     "the timed operation, untraced, in units of a fixed host reference "
     "snippet (interpreter and NumPy work) timed just before each operation "
     "in the same process: median of the per-operation ratios, per item, "
     "summed over items. The operation is a search until its final archive "
     "exists (one per board on ioe-paper, six searches on hadas-bilevel), "
     "the serving run() call, or pretraining plus exit training. The plain "
     "wall time drifts with the shared host's speed by tens of per cent "
     "within minutes; the ratio cancels that drift. Plain seconds are "
     "printed beside it and reported as bench.run_s"),
    ("peak_rss_mb", "MiB", "lower", "host",
     "peak resident set of a measuring process (set-up and timed phase); "
     "median over the fresh processes of one run"),
]

# ------------------------------------------------------------ per layer
#: (name, unit, better, kind, end-to-end metric it should move, workload).
#: The ``result`` figures are what the user gets out; they are exact for a
#: given seed, so they are compared per seed, not against a bound.
PER_LAYER: list[tuple[str, str, str, str, str, str]] = [
    # result: what a run produces
    ("front_hv", "frac", "higher", "simulated", "-", "ioe-paper"),
    ("sim_slo_met", "frac", "higher", "simulated", "-", "fleet-bursty"),
    ("sim_p95_ms", "ms", "lower", "simulated", "-", "serve-1m"),
    ("sim_mj_per_req", "mJ", "lower", "simulated", "-", "serve-1m"),
    ("exit_dyn_acc", "frac", "higher", "simulated", "-", "train-exits"),
    # search (search/nsga2.py, search/ioe.py, search/hadas.py)
    ("search.evaluations", "count", "lower", "count", "run_rel", "ioe-paper"),
    ("search.memo_hit_frac", "frac", "higher", "count", "run_rel", "ioe-paper"),
    ("search.variation_s", "s", "lower", "host", "run_rel", "ioe-paper"),
    ("search.evaluate_self_s", "s", "lower", "host", "run_rel", "ioe-paper"),
    ("search.selection_s", "s", "lower", "host", "run_rel", "ioe-paper"),
    ("search.inner_runs", "count", "lower", "count", "run_rel", "hadas-bilevel"),
    ("search.inner_run_s", "s", "lower", "host", "run_rel", "hadas-bilevel"),
    ("search.inner_build_s", "s", "lower", "host", "run_rel", "hadas-bilevel"),
    # metrics (metrics/pareto.py)
    ("metrics.sort_calls", "count", "lower", "count", "run_rel", "ioe-paper"),
    ("metrics.sort_s", "s", "lower", "host", "run_rel", "ioe-paper"),
    # eval (eval/dynamic.py, eval/static.py)
    ("eval.population_calls", "count", "lower", "count", "run_rel", "ioe-paper"),
    ("eval.population_rows_per_call", "rows", "higher", "count", "run_rel", "ioe-paper"),
    ("eval.population_self_s", "s", "lower", "host", "run_rel", "ioe-paper"),
    ("eval.generation_self_s", "s", "lower", "host", "run_rel", "ioe-paper"),
    ("eval.static_calls", "count", "lower", "count", "run_rel", "hadas-bilevel"),
    ("eval.static_s", "s", "lower", "host", "run_rel", "hadas-bilevel"),
    # hardware (hardware/population_kernel.py)
    ("hardware.fused_batch_calls", "count", "lower", "count", "run_rel", "ioe-paper"),
    ("hardware.fused_batch_rows_per_call", "rows", "higher", "count", "run_rel", "ioe-paper"),
    ("hardware.fused_batch_s", "s", "lower", "host", "run_rel", "ioe-paper"),
    ("hardware.path_costs_s", "s", "lower", "host", "run_rel", "ioe-paper"),
    # accuracy (accuracy/exit_model.py, accuracy/surrogate.py)
    ("accuracy.oracle_rows_per_call", "rows", "higher", "count", "run_rel", "ioe-paper"),
    ("accuracy.oracle_stats_s", "s", "lower", "host", "run_rel", "ioe-paper"),
    ("accuracy.prefix_hit_frac", "frac", "higher", "count", "run_rel", "ioe-paper"),
    ("accuracy.oracle_builds", "count", "lower", "count", "run_rel", "hadas-bilevel"),
    ("accuracy.oracle_build_s", "s", "lower", "host", "run_rel", "hadas-bilevel"),
    ("accuracy.surrogate_s", "s", "lower", "host", "run_rel", "hadas-bilevel"),
    # arch (arch/cost.py)
    ("arch.cost_calls", "count", "lower", "count", "run_rel", "hadas-bilevel"),
    ("arch.cost_s", "s", "lower", "host", "run_rel", "hadas-bilevel"),
    # engine (engine/service.py)
    ("engine.tasks", "count", "lower", "count", "run_rel", "hadas-bilevel"),
    ("engine.tasks_failed", "count", "lower", "count", "run_rel", "hadas-bilevel"),
    ("engine.overhead_s", "s", "lower", "host", "run_rel", "hadas-bilevel"),
    # serving (serving/harness.py, workload.py, stream.py, simulator.py,
    # governor.py)
    ("serving.stack_build_s", "s", "lower", "host", "setup_s", "fleet-bursty"),
    ("serving.trace_build_s", "s", "lower", "host", "setup_s", "fleet-bursty"),
    ("serving.trace_peak_rss_mb", "MiB", "lower", "host", "peak_rss_mb", "fleet-bursty"),
    ("serving.stream_build_s", "s", "lower", "host", "setup_s", "fleet-bursty"),
    ("serving.compile_stream_s", "s", "lower", "host", "run_rel", "serve-1m"),
    ("serving.governor_calls", "count", "lower", "count", "run_rel", "serve-1m"),
    ("serving.governor_s", "s", "lower", "host", "run_rel", "serve-1m"),
    ("serving.batches", "count", "lower", "count", "run_rel", "serve-1m"),
    ("serving.requests_per_batch", "requests", "higher", "count", "run_rel", "serve-1m"),
    ("serving.admission_drop_frac", "frac", "lower", "simulated", "sim_slo_met", "fleet-bursty"),
    # fleet (serving/fleet.py, serving/router.py)
    ("fleet.route_calls", "count", "lower", "count", "run_rel", "fleet-bursty"),
    ("fleet.arrivals_per_block", "requests", "higher", "count", "run_rel", "fleet-bursty"),
    ("fleet.route_s", "s", "lower", "host", "run_rel", "fleet-bursty"),
    ("fleet.dispatches", "count", "lower", "count", "run_rel", "fleet-bursty"),
    ("fleet.requests_per_dispatch", "requests", "higher", "count", "run_rel", "fleet-bursty"),
    # nn / supernet / exits
    ("nn.conv2d_calls", "count", "lower", "count", "run_rel", "train-exits"),
    ("nn.conv2d_fwd_s", "s", "lower", "host", "run_rel", "train-exits"),
    ("nn.backward_s", "s", "lower", "host", "run_rel", "train-exits"),
    ("nn.optim_step_s", "s", "lower", "host", "run_rel", "train-exits"),
    ("supernet.pretrain_s", "s", "lower", "host", "run_rel", "train-exits"),
    ("exits.train_s", "s", "lower", "host", "run_rel", "train-exits"),
    # the benchmark itself: plain untraced wall time, and tracing cost
    ("bench.run_s", "s", "lower", "host", "run_rel", "all"),
    ("bench.trace_overhead_frac", "frac", "lower", "host", "run_rel", "all"),
]


def derive_layer_metrics(raw: dict[str, float]) -> dict[str, float]:
    """Per-layer metrics from the additive raw totals a traced op emits.

    ``raw`` holds wrapper totals (``<bucket>.calls``, ``.rows``, ``.self_s``,
    ``.incl_s``), recorder counters and histogram totals
    (``rec.<name>``, ``hist.<name>.count``/``.total``) and a few figures of
    the op's own report (``report.*``).  Missing keys read as zero: a layer
    the workload bypasses reports zero calls and zero time.
    """

    def g(key: str) -> float:
        return float(raw.get(key, 0.0))

    def ratio(num: float, den: float) -> float:
        return num / den if den else 0.0

    evaluations = g("rec.nsga.evaluations")
    hits = g("rec.oracle.prefix_hits")
    return {
        "front_hv": ratio(g("report.front_hv"), g("report.fronts")),
        "sim_slo_met": ratio(g("report.met_slo"), g("report.offered")),
        "sim_p95_ms": g("report.p95_ms"),
        "sim_mj_per_req": ratio(g("report.energy_mj"), g("report.served")),
        "exit_dyn_acc": g("report.exit_dyn_acc"),
        "search.evaluations": evaluations,
        "search.memo_hit_frac": ratio(
            g("rec.nsga.memoized"), evaluations + g("rec.nsga.memoized")
        ),
        "search.variation_s": g("search.offspring.self_s"),
        "search.evaluate_self_s": g("search.evaluate.self_s"),
        "search.selection_s": g("search.selection.self_s"),
        "search.inner_runs": g("search.inner_run.calls"),
        "search.inner_run_s": g("search.inner_run.incl_s"),
        "search.inner_build_s": g("search.inner_build.self_s"),
        "metrics.sort_calls": g("metrics.sort.calls"),
        "metrics.sort_s": g("metrics.sort.self_s"),
        "eval.population_calls": g("eval.population.calls"),
        "eval.population_rows_per_call": ratio(
            g("eval.population.rows"), g("eval.population.calls")
        ),
        "eval.population_self_s": g("eval.population.self_s"),
        "eval.generation_self_s": g("eval.generation.self_s"),
        "eval.static_calls": g("eval.static.calls"),
        "eval.static_s": g("eval.static.self_s"),
        "hardware.fused_batch_calls": g("hardware.fused_batch.calls"),
        "hardware.fused_batch_rows_per_call": ratio(
            g("hardware.fused_batch.rows"), g("hardware.fused_batch.calls")
        ),
        "hardware.fused_batch_s": g("hardware.fused_batch.self_s"),
        "hardware.path_costs_s": g("hardware.path_costs.self_s"),
        "accuracy.oracle_rows_per_call": ratio(
            g("accuracy.oracle_stats.rows"), g("accuracy.oracle_stats.calls")
        ),
        "accuracy.oracle_stats_s": g("accuracy.oracle_stats.self_s"),
        "accuracy.prefix_hit_frac": ratio(hits, hits + g("rec.oracle.prefix_nodes")),
        "accuracy.oracle_builds": g("accuracy.oracle_init.calls"),
        "accuracy.oracle_build_s": g("accuracy.oracle_init.self_s")
        + g("accuracy.oracle_column.self_s"),
        "accuracy.surrogate_s": g("accuracy.surrogate.self_s"),
        "arch.cost_calls": g("arch.cost.calls"),
        "arch.cost_s": g("arch.cost.self_s"),
        "engine.tasks": g("rec.engine.tasks_submitted"),
        "engine.tasks_failed": g("rec.engine.tasks_failed"),
        "engine.overhead_s": g("engine.service.self_s"),
        "serving.stack_build_s": g("serving.stack_build.incl_s"),
        "serving.trace_build_s": g("serving.trace_build.incl_s"),
        "serving.trace_peak_rss_mb": g("serving.trace_peak_rss_mb"),
        "serving.stream_build_s": g("serving.stream_build.incl_s"),
        "serving.compile_stream_s": g("serving.compile_stream.incl_s"),
        "serving.governor_calls": g("serving.governor.calls"),
        "serving.governor_s": g("serving.governor.self_s"),
        "serving.batches": g("hist.serving.batch_size.count"),
        "serving.requests_per_batch": ratio(
            g("hist.serving.batch_size.total"), g("hist.serving.batch_size.count")
        ),
        "serving.admission_drop_frac": ratio(
            g("report.dropped"), g("report.offered")
        ),
        "fleet.route_calls": g("fleet.route.calls"),
        "fleet.arrivals_per_block": ratio(
            g("hist.fleet.block_size.total"), g("hist.fleet.block_size.count")
        ),
        "fleet.route_s": g("fleet.route.self_s"),
        "fleet.dispatches": g("hist.fleet.batch_size.count"),
        "fleet.requests_per_dispatch": ratio(
            g("hist.fleet.batch_size.total"), g("hist.fleet.batch_size.count")
        ),
        "nn.conv2d_calls": g("nn.conv2d.calls"),
        "nn.conv2d_fwd_s": g("nn.conv2d.self_s"),
        "nn.backward_s": g("nn.backward.self_s"),
        "nn.optim_step_s": g("nn.optim.self_s"),
        "supernet.pretrain_s": g("supernet.pretrain.incl_s"),
        "exits.train_s": g("exits.train.incl_s"),
    }
