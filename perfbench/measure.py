"""Measure one workload for one seed.

Untraced mode repeats the workload back to back for the time budget and
reports the end-to-end metrics as medians over the repetitions.  Traced
mode spends half the budget untraced and half with every layer boundary
wrapped (see :mod:`layers`), and reports per-layer counts, self times
and the tracing overhead.  Both modes run the same correctness checks
on every repetition and count each failed one in a :class:`Ledger`:

- liveness: completed + shed + rejected equals the requests offered;
- sane outputs: monotone request lifecycles, goodput in [0, 1],
  positive energy (fleets); analytic-vs-event agreement within the
  documented 10% and an ISO-TDP speed-up above 1 (``cu_405b``);
- determinism: every repetition's digest equals the first one's, and a
  run with ``TraceConfig()`` on (and, traced, with the layer wrappers
  installed) reproduces it exactly.
"""

from __future__ import annotations

import contextlib
import dataclasses
import hashlib
import json
import math
import resource
import statistics
import time
import traceback
from collections.abc import Callable
from dataclasses import dataclass, field

from repro import TraceConfig
from repro.analysis.perf_model import decode_step_perf, system_for
from repro.analysis.strong_scaling import iso_tdp_comparison
from repro.compiler.lowering import compile_decode_step
from repro.models import Workload as ModelWorkload
from repro.serving.cluster import ClusterReport, ClusterSim
from repro.serving.engine import report_digest
from repro.sim.system_sim import simulate_decode_step

from hostclock import HostClock, Mark
from layers import SpanRecorder, instrument
from workloads import CuSpec, Workload

#: Fewest timed repetitions a run makes, whatever its time budget.
MIN_REPS = 2
#: Setups timed per run (extra setup-only passes top up the repetitions').
SETUP_SAMPLES = 7
#: Analytic decode model vs event simulation tolerance (perf_model's
#: documented validation band).
ANALYTIC_TOLERANCE = 0.10


@dataclass
class Ledger:
    """Operations attempted and failed, with each failure's reason."""

    attempted: int = 0
    failures: list[str] = field(default_factory=list)

    def record(self, label: str, problems: list[str]) -> None:
        self.attempted += 1
        if problems:
            self.failures.append(f"{label}: {'; '.join(problems)}")

    @property
    def failed(self) -> int:
        return len(self.failures)

    @property
    def fail_ratio(self) -> float:
        return self.failed / self.attempted if self.attempted else 0.0


@dataclass
class Rep:
    """One repetition: its timings (reference seconds, see
    :mod:`hostclock`), its output and that output's digest."""

    setup_s: float
    run_s: float
    raw_run_s: float
    #: Reference seconds per wall second over the whole repetition
    #: (converts span times, which include the sampler's share).
    scale: float
    output: object
    digest: str
    offered: int = 0


@dataclass
class Result:
    """Everything one workload run reports."""

    workload: str
    seed: int
    trace: bool
    ledger: Ledger
    digest: str = ""
    reps: int = 0
    metrics: dict[str, float] = field(default_factory=dict)
    #: Every timed repetition's run_s, and its raw (uncalibrated)
    #: seconds, in order (untraced runs only).
    run_samples: list[float] = field(default_factory=list)
    raw_run_samples: list[float] = field(default_factory=list)


def _no_span(name: str) -> contextlib.AbstractContextManager:
    return contextlib.nullcontext()


def peak_rss_mb() -> float:
    """Peak resident set of this process so far (Linux reports KiB)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def repeat(rep: Callable[[], Rep | None], seconds: float, min_reps: int) -> list[Rep]:
    """Run ``rep`` back to back until the next one would overrun
    ``seconds`` of wall time (at least ``min_reps`` times); a failed rep
    (``None``) ends the loop."""
    reps: list[Rep] = []
    start = time.perf_counter()
    while True:
        done = rep()
        if done is None:
            break
        reps.append(done)
        elapsed = time.perf_counter() - start
        if len(reps) >= min_reps and elapsed * (len(reps) + 1) / len(reps) > seconds:
            break
    return reps


# ----------------------------------------------------------------------
# Fleet workloads
# ----------------------------------------------------------------------
def fleet_problems(report: ClusterReport, offered: int) -> list[str]:
    """Liveness and output sanity of one fleet report."""
    problems = []
    resolved = len(report.completed) + len(report.shed) + len(report.rejected)
    if resolved != offered:
        problems.append(
            f"{offered - resolved} of {offered} offered requests unresolved"
        )
    for record in report.completed:
        first, done = record.first_token_s, record.completed_s
        if first is None or done is None or not (
            record.request.arrival_s <= first <= done
        ):
            problems.append(
                f"request {record.request.request_id} has a non-monotone "
                f"lifecycle (arrival {record.request.arrival_s}, first token "
                f"{first}, done {done})"
            )
            break
    if not 0.0 <= report.goodput <= 1.0:
        problems.append(f"goodput {report.goodput} outside [0, 1]")
    if report.completed and not report.energy_per_token_j > 0.0:
        problems.append("non-positive energy per token")
    return problems


def ttft_tail(report: ClusterReport) -> tuple[float, float, int]:
    """(percentile, TTFT at it, samples beyond it): the highest of p99,
    p95 and p90 with at least 10 samples beyond; p90 when none has."""
    values = [record.ttft_s for record in report.completed]
    for q in (99.0, 95.0, 90.0):
        value = report.ttft_percentile(q) if values else 0.0
        beyond = sum(1 for v in values if v > value)
        if beyond >= 10:
            break
    return q, value, beyond


def fleet_simulated(report: ClusterReport) -> dict[str, float]:
    """The exact, seed-determined metrics of one fleet report."""
    pods = report.pod_stats
    prefill = [p.utilization(report.duration_s) for p in pods if p.kind == "prefill"]
    decode = [p.utilization(report.duration_s) for p in pods if p.kind == "decode"]
    done = bool(report.completed)
    return {
        "sim_goodput": report.goodput,
        "sim_tok_per_s": report.arrival_window_tokens_per_s,
        "sim_ttft_p50_s": report.ttft_percentile(50) if done else 0.0,
        "sim_ttft_tail_s": ttft_tail(report)[1],
        "sim_tpot_p50_s": report.tpot_percentile(50) if done else 0.0,
        "sim_j_per_tok": report.energy_per_token_j,
        "sim_usd_per_mtok": report.usd_per_mtok,
        "prefill.queue_mean_depth": report.prefill_queue.mean_depth,
        "prefill.util": statistics.fmean(prefill) if prefill else 0.0,
        "decode.util": statistics.fmean(decode) if decode else 0.0,
        "decode.kv_occupancy": report.mean_decode_kv_occupancy,
        "kvstore.prefix_hit_rate": report.prefix_hit_rate,
        "kvstore.swap_gb": report.total_swap_bytes / 1e9,
        "scheduler.preemptions": float(report.total_preemptions),
        "tenancy.shed": float(len(report.shed)),
        "tenancy.scale_events": float(len(report.scaling_events)),
    }


def fleet_layers(recorder: SpanRecorder) -> dict[str, float]:
    """Per-layer host counts and self times of one traced fleet run."""
    st = recorder.self_times()
    n = recorder.counts()
    step_costs = n.get("cluster.step_cost", 0)
    decode_steps = n.get("platform.decode", 0)
    return {
        "requests.generate_s": st.get("requests.generate", 0.0),
        "platform.build_s": st.get("platform.build", 0.0),
        "engine.push_calls": n.get("engine.push", 0),
        "engine.batches": n.get("engine.pop_batch", 0),
        "engine.self_s": st.get("engine", 0.0),
        "cluster.self_s": st.get("cluster", 0.0),
        "cluster.step_cost_calls": step_costs,
        "cluster.per_step_boundaries": n.get("scheduler.advance", 0),
        "platform.decode_step_calls": decode_steps,
        "platform.decode_step_s": st.get("platform.decode", 0.0),
        "platform.prefill_calls": n.get("platform.prefill", 0),
        "platform.prefill_s": st.get("platform.prefill", 0.0),
        "platform.step_cache_hit_ratio": (
            1.0 - decode_steps / step_costs if step_costs else 0.0
        ),
        "scheduler.admit_calls": n.get("scheduler.admit", 0),
        "scheduler.admit_s": st.get("scheduler.admit", 0.0),
        "scheduler.advance_s": st.get("scheduler.advance", 0.0),
        "kvstore.prefix_calls": n.get("kvstore.prefix", 0),
        "kvstore.swap_calls": n.get("kvstore.swap", 0),
        "kvstore.self_s": sum(
            st.get(name, 0.0)
            for name in ("kvstore.prefix", "kvstore.swap", "kvstore.reclaim")
        ),
        "tenancy.bucket_takes": n.get("tenancy", 0),
        "tenancy.self_s": st.get("tenancy", 0.0),
        "report.self_s": st.get("report", 0.0),
    }


#: Per-layer keys that are counts: they must repeat exactly.
COUNT_KEYS = (
    "engine.push_calls", "engine.batches", "cluster.step_cost_calls",
    "cluster.per_step_boundaries", "platform.decode_step_calls",
    "platform.prefill_calls", "scheduler.admit_calls", "kvstore.prefix_calls",
    "kvstore.swap_calls", "tenancy.bucket_takes",
)


def scale_times(layer: dict[str, float], scale: float) -> dict[str, float]:
    """Span self times (keys ending ``_s``) converted to reference
    seconds; counts and ratios unchanged."""
    return {k: v * scale if k.endswith("_s") else v for k, v in layer.items()}


class Bench:
    """Runs one workload for one seed and fills a :class:`Result`."""

    def __init__(self, workload: Workload, seed: int, seconds: float,
                 trace: bool, spans_out: str | None = None) -> None:
        self.workload = workload
        self.seed = seed
        self.seconds = seconds
        #: Where a traced run writes its first traced repetition's spans.
        self.spans_out = spans_out
        self.result = Result(workload.name, seed, trace, Ledger())
        self.reference: Rep | None = None
        self.clock = HostClock()

    # -- one checked repetition ----------------------------------------
    def _checked(self, label: str, make: Callable[[], Rep]) -> Rep | None:
        """Run one repetition, check it, and record it in the ledger."""
        try:
            rep = make()
        except Exception:  # a raising run is a failed operation
            self.result.ledger.record(label, [traceback.format_exc(limit=3)])
            return None
        problems = self._problems(rep)
        if self.reference is None:
            self.reference = rep
            self.result.digest = rep.digest
        elif rep.digest != self.reference.digest:
            problems.append(
                f"digest {rep.digest[:16]} differs from the first run's "
                f"{self.reference.digest[:16]}"
            )
        self.result.ledger.record(label, problems)
        return rep

    def _problems(self, rep: Rep) -> list[str]:
        if self.workload.fleet:
            return fleet_problems(rep.output, rep.offered)
        return cu_problems(rep.output)

    # -- repetitions ----------------------------------------------------
    def _rep(self, recorder: SpanRecorder | None = None,
             obs: TraceConfig | None = None) -> Rep:
        if self.workload.fleet:
            return self._fleet_rep(recorder, obs)
        return self._cu_rep(recorder)

    def _fleet_rep(self, recorder: SpanRecorder | None,
                   obs: TraceConfig | None) -> Rep:
        span = recorder.span if recorder is not None else _no_span
        m0 = self.clock.mark()
        with span("requests.generate"):
            scenario = self.workload.scenario(self.seed)
        with span("platform.build"):
            config = scenario.cluster()
        with span("requests.generate"):
            requests = scenario.requests()
        m1 = self.clock.mark()
        if obs is not None:
            config = dataclasses.replace(config, trace=obs)
        with span("cluster"):
            report = ClusterSim(config).run(requests)
        with span("report"):
            report.to_json()
            report.summary_table(group_by="tenant")
        m2 = self.clock.mark()
        return self._timed(m0, m1, m2, report, report_digest(report), len(requests))

    def _cu_rep(self, recorder: SpanRecorder | None) -> Rep:
        span = recorder.span if recorder is not None else _no_span
        spec = self.workload.cu
        m0 = self.clock.mark()
        comparison, points = cu_setup(spec, span)
        m1 = self.clock.mark()
        sims = []
        for _bs, workload, system, program in points:
            with span("sim"):
                sims.append(simulate_decode_step(
                    system, workload, program=program,
                    detail_cores=spec.detail_cores,
                ))
        m2 = self.clock.mark()
        output = CuOutput(spec, comparison, points, sims)
        return self._timed(m0, m1, m2, output, output.digest())

    def _timed(self, m0: Mark, m1: Mark, m2: Mark, output: object,
               digest: str, offered: int = 0) -> Rep:
        """A repetition from its three marks (start, set up, done), all
        calibrated by the samples taken over the whole repetition."""
        factor = self.clock.factor(m0, m2)
        setup = self.clock.span(m0, m1, factor)
        run = self.clock.span(m1, m2, factor)
        scale = (setup.ref_s + run.ref_s) / (m2.wall - m0.wall)
        return Rep(setup.ref_s, run.ref_s, run.raw_s, scale, output, digest,
                   offered)

    def _setup_samples(self, reps: list[Rep]) -> list[float]:
        """Setup times of ``reps`` topped up to SETUP_SAMPLES."""
        samples = [rep.setup_s for rep in reps]
        while len(samples) < SETUP_SAMPLES:
            start = self.clock.mark()
            if self.workload.fleet:
                scenario = self.workload.scenario(self.seed)
                scenario.cluster()
                scenario.requests()
            else:
                cu_setup(self.workload.cu, _no_span)
            samples.append(self.clock.span(start, self.clock.mark()).ref_s)
        return samples

    def _obs_check(self) -> float:
        """One run with ``TraceConfig()`` on; its digest must match the
        untraced runs'.  Returns its run time (0 for ``cu_405b``)."""
        if not self.workload.fleet:
            return 0.0
        rep = self._checked("TraceConfig() run", lambda: self._rep(obs=TraceConfig()))
        return rep.run_s if rep is not None else 0.0

    # -- the two modes ---------------------------------------------------
    def run(self) -> Result:
        with self.clock:
            if self.result.trace:
                self._traced()
            else:
                self._untraced()
        return self.result

    def _warmup(self) -> Rep | None:
        """The process's first run: it sets the reference digest and
        fills process-wide caches, so it is timed apart (``run.cold_s``)
        and kept out of the medians."""
        return self._checked("first run", self._rep)

    def _untraced(self) -> None:
        if self._warmup() is None:
            return
        # Through one run: later repetitions add allocator growth that
        # depends on how many fit in the time budget.
        rss = peak_rss_mb()
        reps = repeat(lambda: self._checked("run", self._rep), self.seconds, MIN_REPS)
        if not reps:
            return
        setups = self._setup_samples(reps)
        self._obs_check()
        self.result.reps = len(reps)
        self.result.run_samples = [rep.run_s for rep in reps]
        self.result.raw_run_samples = [rep.raw_run_s for rep in reps]
        self.result.metrics = {
            "run_s": statistics.median(rep.run_s for rep in reps),
            "setup_s": statistics.median(setups),
            "peak_rss_mb": rss,
            **self._simulated(),
        }

    def _traced(self) -> None:
        cold = self._warmup()
        if cold is None:
            return
        half = self.seconds / 2
        plain = repeat(lambda: self._checked("run", self._rep), half, MIN_REPS)
        if not plain:
            return
        recorders: list[SpanRecorder] = []

        def traced_rep() -> Rep | None:
            recorder = SpanRecorder()
            with instrument(recorder):
                rep = self._checked(
                    "run with layer spans", lambda: self._rep(recorder)
                )
            recorders.append(recorder)
            return rep

        traced = repeat(traced_rep, half, 1)
        if not traced:
            return
        if self.spans_out is not None:
            recorders[0].write_chrome(self.spans_out)
        obs_s = self._obs_check()
        plain_s = statistics.median(rep.run_s for rep in plain)
        layers = [
            scale_times(
                fleet_layers(r) if self.workload.fleet else cu_layers(r),
                rep.scale,
            )
            for r, rep in zip(recorders, traced)
        ]
        self.result.ledger.record("layer counts repeat", [
            f"{key} differs across runs of one seed"
            for key in COUNT_KEYS
            if len({layer.get(key, 0) for layer in layers}) > 1
        ])
        merged = {
            key: (layers[0][key] if key in COUNT_KEYS
                  else statistics.median(layer[key] for layer in layers))
            for key in layers[0]
        }
        self.result.reps = len(plain) + len(traced)
        self.result.metrics = {
            **merged,
            "run.cold_s": cold.run_s,
            "obs.overhead_ratio": obs_s / plain_s if obs_s else 0.0,
            "harness.trace_overhead_ratio":
                statistics.median(rep.run_s for rep in traced) / plain_s,
            **self._simulated(),
        }

    def _simulated(self) -> dict[str, float]:
        output = self.reference.output
        if self.workload.fleet:
            return fleet_simulated(output)
        return output.simulated()

    # -- explanations printed beside the numbers ------------------------
    def notes(self) -> list[str]:
        if self.reference is None:
            return []
        output = self.reference.output
        if self.workload.fleet:
            q, value, beyond = ttft_tail(output)
            return [
                f"sim_ttft_tail_s is TTFT p{q:g} = {value:.6g} s with {beyond} "
                f"of {len(output.completed)} samples beyond it",
                "reference error: the fleet model is unvalidated against "
                "hardware (no measured reference in the repository); no "
                "error figure",
            ]
        return output.reference_notes()


# ----------------------------------------------------------------------
# cu_405b: event-driven CU simulation
# ----------------------------------------------------------------------
def cu_setup(spec: CuSpec, span) -> tuple[object, list[tuple]]:
    """ISO-TDP sizing, then per batch size: the workload, its RPU and
    its compiled decode step."""
    comparison = iso_tdp_comparison(spec.model, spec.gpu_count, seq_len=spec.seq_len)
    points = []
    for bs in spec.batches:
        workload = ModelWorkload(spec.model, batch_size=bs, seq_len=spec.seq_len)
        system = system_for(comparison.rpu_cus, workload)
        with span("compiler"):
            program = compile_decode_step(workload, system)
        points.append((bs, workload, system, program))
    return comparison, points


@dataclass
class CuOutput:
    """The ISO-TDP comparison, the compiled points and their SimResults."""

    spec: CuSpec
    comparison: object
    points: list[tuple]
    sims: list

    def _analytic_error(self, index: int) -> tuple[float, float]:
        _bs, workload, system, _program = self.points[index]
        analytic = decode_step_perf(system, workload).latency_s
        return analytic, analytic / self.sims[index].latency_s - 1.0

    @property
    def iso_x(self) -> float:
        return self.comparison.gpu_latency_s / self.sims[0].latency_s

    def digest(self) -> str:
        rows = []
        for (bs, _w, system, program), sim in zip(self.points, self.sims):
            rows.append({
                "bs": bs,
                "cus": system.num_cus,
                "instructions": program.core.num_instructions,
                "latency_s": repr(sim.latency_s),
                "energy_per_cu_j": {k: repr(v) for k, v in sim.energy_per_cu_j().items()},
                "stalls": {k: repr(v) for k, v in sim.stalls.items()},
                "arbitration": sim.arbitration,
                "util": [repr(sim.mem_utilization), repr(sim.comp_utilization),
                         repr(sim.net_utilization)],
            })
        rows.append({"gpu_latency_s": repr(self.comparison.gpu_latency_s)})
        return hashlib.sha256(json.dumps(rows, sort_keys=True).encode()).hexdigest()

    def simulated(self) -> dict[str, float]:
        bs1, bsn = self.sims[0], self.sims[-1]
        batch = self.points[-1][0]
        return {
            "sim_j_per_tok": bsn.energy_per_token_j(batch),
            "sim_tpot_p50_s": bsn.latency_s,
            "sim_tok_per_s": bsn.tokens_per_s(batch),
            "sim_step_ms": bs1.latency_s * 1e3,
            "iso_tdp_latency_x": self.iso_x,
            "sim.mem_bw_util": bs1.mem_utilization,
            "sim.comp_util": bs1.comp_utilization,
            "sim.buffer_stall_ms": sum(bs1.stalls.values()) * 1e3,
            "compiler.instructions": float(sum(
                program.core.num_instructions for *_rest, program in self.points
            )),
            "sim.arb_grants": float(sum(
                sim.arbitration.get("grants", 0) for sim in self.sims
            )),
        }

    def reference_notes(self) -> list[str]:
        notes = []
        paper = self.spec.paper_iso_x
        if paper is not None:
            notes.append(
                f"reference error: iso_tdp_latency_x {self.iso_x:.2f}x vs the "
                f"paper's {paper}x -> {self.iso_x / paper - 1:+.1%} (RPU "
                f"{self.comparison.rpu_cus} CUs vs {self.comparison.gpu_name})"
            )
        for index, (bs, *_rest) in enumerate(self.points):
            analytic, error = self._analytic_error(index)
            notes.append(
                f"reference error: analytic decode_step_perf vs event "
                f"simulation at BS={bs}: {analytic * 1e3:.4f} ms vs "
                f"{self.sims[index].latency_s * 1e3:.4f} ms -> {error:+.2%}"
            )
        return notes


def cu_problems(output: CuOutput) -> list[str]:
    problems = []
    for index, (bs, *_rest) in enumerate(output.points):
        sim = output.sims[index]
        if not (sim.latency_s > 0.0 and math.isfinite(sim.latency_s)):
            problems.append(f"BS={bs}: latency {sim.latency_s}")
            continue
        _analytic, error = output._analytic_error(index)
        if abs(error) > ANALYTIC_TOLERANCE:
            problems.append(
                f"BS={bs}: analytic model off the event simulation by {error:+.1%}"
            )
        if not sim.energy_per_token_j(bs) > 0.0:
            problems.append(f"BS={bs}: non-positive energy per token")
    if not output.iso_x > 1.0:
        problems.append(f"ISO-TDP speed-up {output.iso_x:.2f}x is not above 1")
    return problems


def cu_layers(recorder: SpanRecorder) -> dict[str, float]:
    st = recorder.self_times()
    return {
        "compiler.compile_s": st.get("compiler", 0.0),
        "sim.self_s": st.get("sim", 0.0),
    }
