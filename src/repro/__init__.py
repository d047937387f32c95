"""repro: a from-scratch reproduction of "RPU: A Reasoning Processing
Unit" (Adiletta, Wei, Brooks -- HPCA 2026).

Public API highlights:

- :mod:`repro.memory` -- the HBM-CO capacity-optimized memory model;
- :mod:`repro.arch` -- the RPU core/CU/package/system hierarchy;
- :mod:`repro.models` -- the Llama3/Llama4 workload zoo;
- :mod:`repro.quant` -- MXFP/NXFP/BFP/FP8 codecs and the stream decoder;
- :mod:`repro.compiler` / :mod:`repro.isa` -- the deterministic toolchain;
- :mod:`repro.sim` -- the event-driven single-CU simulator;
- :mod:`repro.gpu` -- the H100/H200 baselines;
- :mod:`repro.platform` -- the hardware-agnostic platform interface
  (RPU/GPU/custom SKUs behind one prefill/decode/KV contract);
- :mod:`repro.serving` -- disaggregated serving: single query to
  fleet-scale continuous batching with paged KV;
- :mod:`repro.serving.kvstore` -- the KV cache hierarchy: ref-counted
  prefix cache (radix trie, copy-on-write) + host swap tier with the
  swap-vs-recompute cost model;
- :mod:`repro.api` -- declarative :class:`Scenario` runner (model +
  traffic + fleet + SLO in, :class:`ClusterReport` out);
- :mod:`repro.specdec` -- the speculative-decoding throughput model;
- :mod:`repro.analysis` -- one module per paper figure/table, plus the
  fleet sweeps.

Quick start::

    from repro import LLAMA3_70B, Scenario
    report = Scenario(LLAMA3_70B).run()      # paper deployment: GPU
    print(report.summary_table())            # prefill + RPU decode

    from repro.models import Workload
    from repro.analysis.perf_model import decode_step_perf, system_for

    workload = Workload(LLAMA3_70B, batch_size=1, seq_len=8192)
    system = system_for(204, workload)          # 204 CUs, optimal HBM-CO
    result = decode_step_perf(system, workload)
    print(f"{result.latency_s * 1e3:.2f} ms/token")
"""

__version__ = "1.0.0"

from repro.arch import ComputeUnit, Package, ReasoningCore, RpuSystem
from repro.models import LLAMA3_70B, MODELS, Workload, get_model
from repro.obs import TraceConfig
from repro.platform import GpuPlatform, Platform, RpuPlatform
from repro.serving import (
    AdmissionConfig,
    ArrivalTrace,
    AutoscalerConfig,
    ClusterConfig,
    ClusterReport,
    CostModel,
    KvBlockStore,
    PrefillPolicy,
    SloClass,
    SwapPolicy,
    TenantSpec,
    simulate,
)
from repro.api import (
    PodGroup,
    Scenario,
    TrafficSpec,
    register_scenario,
    scenario,
    scenario_names,
)

__all__ = [
    "LLAMA3_70B",
    "MODELS",
    "AdmissionConfig",
    "ArrivalTrace",
    "AutoscalerConfig",
    "ClusterConfig",
    "ClusterReport",
    "ComputeUnit",
    "CostModel",
    "GpuPlatform",
    "KvBlockStore",
    "Package",
    "Platform",
    "PodGroup",
    "PrefillPolicy",
    "ReasoningCore",
    "RpuPlatform",
    "RpuSystem",
    "Scenario",
    "SloClass",
    "SwapPolicy",
    "TenantSpec",
    "TraceConfig",
    "TrafficSpec",
    "Workload",
    "get_model",
    "register_scenario",
    "scenario",
    "scenario_names",
    "simulate",
    "__version__",
]
