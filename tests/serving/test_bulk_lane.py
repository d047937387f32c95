"""The bulk quiet lane against its oracle: the per-step decode path.

``ClusterSim._bulk_quiet_steps`` returning False sends every decode
boundary through the single-step path, so patching it off (with pytest's
``monkeypatch``; the simulator has no switch for it) gives a reference
run of the same scenario.  ``benchmarks/bench_sim_speed.py`` applies the
same patch to time the lane against this path.  The lane is a pure
speed-up: both runs must produce the same report digest, on reasoning
traffic whose tool-call pauses and busy prefill queue the lane chains
over.
"""

import itertools

import pytest
from test_engine import DIGESTS, SCENARIOS, _base, _reasoning_requests

from repro.models.llama3 import LLAMA3_70B
from repro.serving.cluster import ClusterSim, PrefillPolicy, simulate
from repro.serving.engine import report_digest
from repro.serving.kvstore import SwapPolicy
from repro.serving.scheduler import ContinuousBatchScheduler


def _run(monkeypatch, config, requests, *, lane):
    """(report digest, ``advance`` calls) of one run, with the bulk
    lane on or patched off."""
    calls = [0]
    advance = ContinuousBatchScheduler.advance

    def counted(self, step_end_s):
        calls[0] += 1
        return advance(self, step_end_s)

    with monkeypatch.context() as patch:
        patch.setattr(ContinuousBatchScheduler, "advance", counted)
        if not lane:
            patch.setattr(
                ClusterSim, "_bulk_quiet_steps", lambda self, now, pod: False
            )
        report = simulate(config, requests)
    return report_digest(report), calls[0]


@pytest.mark.parametrize(
    "swap, prefill",
    list(itertools.product(
        (SwapPolicy.NEVER, SwapPolicy.AUTO),
        (PrefillPolicy.FIFO, PrefillPolicy.PRIORITY,
         PrefillPolicy.PREFIX_AFFINE),
    )),
    ids=lambda value: value.value,
)
def test_lane_matches_per_step_oracle(monkeypatch, swap, prefill):
    config = _base(
        LLAMA3_70B, 3e9,
        prefix_caching=True,
        swap_policy=swap,
        prefill_policy=prefill,
    )
    requests = _reasoning_requests()
    on, _ = _run(monkeypatch, config, requests, lane=True)
    off, _ = _run(monkeypatch, config, requests, lane=False)
    assert on == off


@pytest.mark.parametrize(
    "name", ["reasoning_device_parks", "reasoning_swap_parks"]
)
def test_lane_covers_tool_pauses_and_busy_queue(monkeypatch, name):
    """On reasoning traffic the lane must collapse almost every decode
    boundary: a pending tool pause or a prefill queue waiting on busy
    pods no longer forces the per-step path.  Counts, not seconds, so
    the bound holds on any machine."""
    config, requests = SCENARIOS[name]()
    on, lane_steps = _run(monkeypatch, config, requests, lane=True)
    off, oracle_steps = _run(monkeypatch, config, requests, lane=False)
    assert on == off == DIGESTS[name]
    assert lane_steps * 20 <= oracle_steps, (lane_steps, oracle_steps)
