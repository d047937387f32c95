"""Every metric the benchmark reports: name, unit, better direction.

``END_TO_END`` is what an untraced run prints as its result and what
``BENCHMARK.json`` bounds: the simulator's host cost, which is what a
user waits for and what every speed claim names.

``PER_LAYER`` is what a traced run prints: per-layer host counts and
self times, per-layer simulated statistics, and the simulated
end-to-end results.  Simulated numbers are exact per seed, so they are
compared exactly -- through the report digest every run prints -- not
within a bound; several are also undefined on some workload (fleet
metrics on ``cu_405b``, CU metrics on the fleets).  A metric a
workload does not exercise reads 0.
"""

from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True)
class Metric:
    name: str
    unit: str
    better: str  # "lower" | "higher"
    what: str


END_TO_END: tuple[Metric, ...] = (
    Metric("run_s", "s", "lower",
           "host, reference seconds: ClusterSim.run + to_json + "
           "summary_table (cu_405b: the two event simulations); median of "
           "the repetitions"),
    Metric("setup_s", "s", "lower",
           "host, reference seconds: traffic + fleet construction (cu_405b: "
           "ISO-TDP sizing, system_for, compile_decode_step); median of 7"),
    Metric("peak_rss_mb", "MB", "lower",
           "host: peak resident set of the process through its first run"),
)

#: Simulated end-to-end metrics: printed by every run, exact per seed.
SIMULATED: tuple[Metric, ...] = (
    Metric("sim_goodput", "ratio", "higher",
           "simulated: requests within SLO / offered (shed and rejected "
           "count as misses); fleets only"),
    Metric("sim_tok_per_s", "tok/s", "higher",
           "simulated: arrival-window decode tokens/s (cu_405b: BS=32)"),
    Metric("sim_ttft_p50_s", "s", "lower",
           "simulated: median TTFT from each request's due arrival; "
           "fleets only"),
    Metric("sim_ttft_tail_s", "s", "lower",
           "simulated: highest of TTFT p99/p95/p90 with >= 10 samples "
           "beyond it; fleets only"),
    Metric("sim_tpot_p50_s", "s", "lower",
           "simulated: median time per output token (cu_405b: BS=32 step)"),
    Metric("sim_j_per_tok", "J/tok", "lower",
           "simulated: fleet energy per decode token (cu_405b: BS=32)"),
    Metric("sim_usd_per_mtok", "USD/Mtok", "lower",
           "simulated: fleet $ per million decode tokens; fleets only"),
    Metric("sim_step_ms", "ms", "lower",
           "simulated: event-simulated decode step at BS=1; cu_405b only"),
    Metric("iso_tdp_latency_x", "x", "higher",
           "simulated: 4xH100 decode latency / event-simulated RPU latency "
           "at BS=1; cu_405b only"),
)

LAYER_HOST: tuple[Metric, ...] = (
    Metric("requests.generate_s", "s", "lower", "self time generating traffic"),
    Metric("platform.build_s", "s", "lower", "self time building the fleet"),
    Metric("engine.push_calls", "count", "lower", "EventCalendar.push calls"),
    Metric("engine.batches", "count", "lower", "EventCalendar.pop_batch calls"),
    Metric("engine.self_s", "s", "lower", "self time in run_loop"),
    Metric("cluster.self_s", "s", "lower",
           "self time in ClusterSim (handlers, bulk lane, drain hook)"),
    Metric("cluster.step_cost_calls", "count", "lower", "DecodePod.step_cost calls"),
    Metric("cluster.per_step_boundaries", "count", "lower",
           "ContinuousBatchScheduler.advance calls"),
    Metric("platform.decode_step_calls", "count", "lower",
           "Platform.decode_step calls (step-cost cache misses)"),
    Metric("platform.decode_step_s", "s", "lower", "self time in decode_step"),
    Metric("platform.prefill_calls", "count", "lower", "Platform.prefill calls"),
    Metric("platform.prefill_s", "s", "lower", "self time in prefill"),
    Metric("platform.step_cache_hit_ratio", "ratio", "higher",
           "1 - decode_step calls / step_cost calls"),
    Metric("scheduler.admit_calls", "count", "lower", "scheduler admit calls"),
    Metric("scheduler.admit_s", "s", "lower", "self time in admit"),
    Metric("scheduler.advance_s", "s", "lower", "self time in advance"),
    Metric("kvstore.prefix_calls", "count", "lower",
           "acquire_prefix + peek_prefix + register_prefix calls"),
    Metric("kvstore.swap_calls", "count", "lower", "swap_out + swap_in calls"),
    Metric("kvstore.self_s", "s", "lower",
           "self time in prefix, swap and reclaim_cached calls"),
    Metric("tenancy.bucket_takes", "count", "lower", "TokenBucket.take calls"),
    Metric("tenancy.self_s", "s", "lower", "self time in TokenBucket.take"),
    Metric("report.self_s", "s", "lower",
           "self time in to_json + summary_table(group_by='tenant')"),
    Metric("run.cold_s", "s", "lower",
           "run_s of the process's first run (process-wide caches cold)"),
    Metric("obs.overhead_ratio", "ratio", "lower",
           "run_s with TraceConfig() on / off, same seed"),
    Metric("compiler.compile_s", "s", "lower", "self time in compile_decode_step"),
    Metric("compiler.instructions", "count", "lower",
           "instructions in the compiled BS=1 and BS=32 programs"),
    Metric("sim.self_s", "s", "lower", "self time in simulate_decode_step"),
    Metric("sim.arb_grants", "count", "lower",
           "pipeline arbiter grants, BS=1 + BS=32"),
    Metric("harness.trace_overhead_ratio", "ratio", "lower",
           "traced run_s / untraced run_s (cost of these spans)"),
)

LAYER_SIM: tuple[Metric, ...] = (
    Metric("prefill.queue_mean_depth", "count", "lower",
           "time-mean prefill service queue depth"),
    Metric("prefill.util", "ratio", "higher", "mean prefill pod utilization"),
    Metric("decode.util", "ratio", "higher", "mean decode pod utilization"),
    Metric("decode.kv_occupancy", "ratio", "higher",
           "busy-weighted mean decode KV-pool occupancy"),
    Metric("kvstore.prefix_hit_rate", "ratio", "higher",
           "prefix tokens served from cache / looked up"),
    Metric("kvstore.swap_gb", "GB", "lower", "bytes over the host swap link"),
    Metric("scheduler.preemptions", "count", "lower", "paged-KV preemptions"),
    Metric("tenancy.shed", "count", "lower", "requests shed by admission"),
    Metric("tenancy.scale_events", "count", "lower", "autoscaler actions"),
    Metric("sim.mem_bw_util", "ratio", "higher", "HBM pipeline utilization, BS=1"),
    Metric("sim.comp_util", "ratio", "higher", "TMAC utilization, BS=1"),
    Metric("sim.buffer_stall_ms", "ms", "lower",
           "buffer write + compute read stalls summed over cores, BS=1"),
)

PER_LAYER: tuple[Metric, ...] = LAYER_HOST + LAYER_SIM + SIMULATED
