"""Disaggregated prefill/decode serving (paper Section I and VI).

The paper's deployment model (following Splitwise and NVIDIA Dynamo):
prefill runs on compute-dense GPUs, the KV cache is transferred to the
RPU's memory, and the RPU decodes autonomously, interrupting the host
once per generated token batch.  This package composes the repository's
GPU and RPU models into that end-to-end query pipeline -- one query at a
time in :mod:`repro.serving.disaggregated`, and full fleet traffic with
continuous batching in :mod:`repro.serving.cluster` -- and reports the
interactive-latency metrics the paper motivates (TTFT, TPOT, goodput
against the ~10 s interaction threshold).  Prefill pods pull from one
shared service queue (:class:`PrefillPolicy`: FIFO / SJF / aged
priority / prefix-affine) and prefix-cache hits are bound at *service
start*, so fan-out siblings queued behind their founder recover the
hit.  Decode-pod KV lives in :mod:`repro.serving.kvstore`: a block
store with a ref-counted prefix cache (shared system prompts / agentic
fan-out reuse resident blocks) and a host swap tier for preempted
sequences.
"""

from repro.serving.contracts import (
    PurityViolation,
    contracts_enabled,
    mutates,
    pure_probe,
)

from repro.serving.cluster import (
    ClusterConfig,
    ClusterReport,
    ClusterSim,
    DecodePodSpec,
    PrefillPolicy,
    PrefillQueueStats,
    ServingOptions,
    SimulationStalled,
    simulate,
)
from repro.serving.disaggregated import (
    INTERACTION_THRESHOLD_S,
    DisaggregatedSystem,
    QueryResult,
)
from repro.serving.engine import (
    EventCalendar,
    report_digest,
    run_loop,
)
from repro.serving.kvstore import (
    KvBlockStore,
    KvStoreStats,
    SwapPolicy,
    swap_recompute_costs,
)
from repro.serving.requests import (
    ArrivalProcess,
    ArrivalTrace,
    Request,
    RequestShape,
    TraceRow,
    TrafficClass,
    TrafficSpec,
    merge_requests,
    prefix_founders,
    reasoning_traffic,
    sibling_ttft_mean,
    truncated_lognormal_mean,
)
from repro.serving.scheduler import (
    ContinuousBatchScheduler,
    Policy,
    Reservation,
)
from repro.serving.tenancy import (
    BATCH,
    INTERACTIVE,
    STANDARD,
    AdmissionConfig,
    AutoscalerConfig,
    CostModel,
    ScalingEvent,
    SloClass,
    TenantReport,
    TenantSpec,
    TokenBucket,
    fairness,
)

__all__ = [
    "AdmissionConfig",
    "ArrivalProcess",
    "ArrivalTrace",
    "AutoscalerConfig",
    "BATCH",
    "ClusterConfig",
    "CostModel",
    "INTERACTIVE",
    "STANDARD",
    "ScalingEvent",
    "SloClass",
    "TenantReport",
    "TenantSpec",
    "TokenBucket",
    "TraceRow",
    "fairness",
    "merge_requests",
    "ClusterReport",
    "ClusterSim",
    "ContinuousBatchScheduler",
    "DecodePodSpec",
    "DisaggregatedSystem",
    "EventCalendar",
    "INTERACTION_THRESHOLD_S",
    "KvBlockStore",
    "KvStoreStats",
    "Policy",
    "PrefillPolicy",
    "PrefillQueueStats",
    "PurityViolation",
    "QueryResult",
    "Request",
    "RequestShape",
    "Reservation",
    "ServingOptions",
    "SimulationStalled",
    "SwapPolicy",
    "TrafficClass",
    "TrafficSpec",
    "prefix_founders",
    "reasoning_traffic",
    "report_digest",
    "run_loop",
    "sibling_ttft_mean",
    "contracts_enabled",
    "mutates",
    "pure_probe",
    "simulate",
    "swap_recompute_costs",
    "truncated_lognormal_mean",
]
