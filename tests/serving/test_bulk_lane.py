"""The bulk quiet lane against its oracle: the per-step decode path.

``ClusterSim._bulk_quiet_steps`` returning False sends every decode
boundary through the single-step path, so patching it off (with pytest's
``monkeypatch``; the simulator has no switch for it) gives a reference
run of the same scenario.  ``benchmarks/bench_sim_speed.py`` applies the
same patch to time the lane against this path.  The lane is a pure
speed-up: both runs must produce the same report digest, on reasoning
traffic whose tool-call pauses and busy prefill queue the lane chains
over, and on the inputs below that reach the lane's rarest branches.
"""

import itertools
import math

import pytest
from fleets import fleet
from test_engine import DIGESTS, SCENARIOS, _base, _reasoning_requests

from repro.api import PodGroup, Scenario
from repro.models.llama3 import LLAMA3_70B
from repro.serving.cluster import (
    STEP_CONTEXT_BUCKET,
    ClusterSim,
    PrefillPolicy,
    simulate,
)
from repro.serving.engine import report_digest
from repro.serving.kvstore import SwapPolicy
from repro.serving.requests import ArrivalProcess, Request, TrafficSpec
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


def _h100_pair(traffic, **knobs):
    """Two H100 decode pods for Llama3-70B behind one GPU prefill pod.
    The pods step at similar rates, so each bulk span walks the other
    pod's quiet chain and its uniform runs stop at the walker's clock."""
    scenario = Scenario(
        LLAMA3_70B,
        traffic=traffic,
        prefill=(PodGroup("gpu"),),
        decode=(PodGroup("h100", count=2),),
        kv_budget_bytes=4e9,
        **knobs,
    )
    return scenario.cluster(), scenario.requests()


def _lockstep_burst(decode_len):
    """Four identical requests at t=0, two per RPU decode pod: the pods
    step in lockstep, so a span can end exactly on the other pod's
    trigger, where the exact-tie guard backs off one boundary."""
    return fleet(LLAMA3_70B, prefill=4), [
        Request(i, 0.0, LLAMA3_70B, prompt_len=2048, decode_len=decode_len)
        for i in range(4)
    ]


def _tight_pool():
    """Two sequences on one RPU decode pod whose pool runs dry while
    they decode: a block growth that would preempt falls inside a
    uniform run, which must end before its boundary."""
    return fleet(LLAMA3_70B, prefill=2, decode=1, kv_budget_bytes=8e8), [
        Request(i, 0.0, LLAMA3_70B, prompt_len=2048 - 300 * i, decode_len=1500)
        for i in range(2)
    ]


#: name -> () -> (config, requests): inputs that reach lane branches no
#: digest pin does.  In ``lockstep_burst`` the tie guard fires after a
#: per-boundary step and after a one-boundary uniform run; in
#: ``lockstep_burst_long`` after a six-boundary run, which the rollback
#: replays five boundaries of; in ``lockstep_burst_growth`` after a run
#: that grew blocks, so the replay must switch occupancy addends inside
#: the run.  ``tight_pool`` ends a run at a loud growth.  The H100 pairs
#: are where a uniform run must stop at a lagging walker's clock, and
#: where a walked pod's runs cross its growths, quiet and loud.
ORACLE_INPUTS = {
    "lockstep_burst": lambda: _lockstep_burst(1024),
    "lockstep_burst_long": lambda: _lockstep_burst(1500),
    "lockstep_burst_growth": lambda: _lockstep_burst(1283),
    "tight_pool": _tight_pool,
    "h100_pair_cot": lambda: _h100_pair(
        TrafficSpec(
            rate_rps=16.0, duration_s=6.0, seed=249,
            prompt_mean=128, decode_mean=1500, cot_turns=2,
        )
    ),
    "h100_pair_bursty_prefix": lambda: _h100_pair(
        TrafficSpec(
            rate_rps=16.0, duration_s=6.0, seed=578,
            process=ArrivalProcess.BURSTY,
            prompt_mean=2048, decode_mean=700, prefix_share_prob=0.6,
        ),
        prefix_caching=True,
    ),
    "h100_pair_walk_growths": lambda: _h100_pair(
        TrafficSpec(
            rate_rps=16.0, duration_s=3.0, seed=2,
            prompt_mean=1024, decode_mean=1200,
        )
    ),
}


@pytest.mark.parametrize("name", list(ORACLE_INPUTS))
def test_lane_matches_oracle_on_walks_and_ties(monkeypatch, name):
    config, requests = ORACLE_INPUTS[name]()
    on, _ = _run(monkeypatch, config, requests, lane=True)
    off, _ = _run(monkeypatch, config, requests, lane=False)
    assert on == off


def _step_cost(batch, context):
    """A decode-step cost keyed like ``DecodePod.step_cost`` (contexts
    above the bucket round down to it) whose latency is not monotone in
    context, so a cost kept one boundary too long changes the sum."""
    if context > STEP_CONTEXT_BUCKET:
        context = context // STEP_CONTEXT_BUCKET * STEP_CONTEXT_BUCKET
    return 1e-3 * (1.0 + (context * 7919 + batch * 104729) % 97 / 97.0), 0.0


def _walk_state(start, boundaries, total, batch):
    """A growth-free walk state in ``ClusterSim._pod_quiet_state``'s
    layout: ``boundaries`` quiet boundaries of a ``batch``-sequence
    chain whose contexts sum to ``total`` at its first boundary."""
    quotient, remainder = divmod(total, batch)
    tie = 2 * remainder == batch
    mean = quotient + (quotient & 1) if tie else max(1, round(total / batch))
    return [start, boundaries, quotient, mean, tie, batch,
            {}, _step_cost, 0, None]


@pytest.mark.parametrize("batch", range(1, 7))
def test_walk_trigger_is_the_per_boundary_sum(batch):
    """``_advance_walk`` against a per-boundary replay of the same chain:
    the batch-mean context (rounded half-even, as the scheduler does)
    priced one boundary at a time.  Every remainder is covered, the
    exact .5 ones included, and the means straddle the 512-token bucket
    edge, where the cost key goes from changing every boundary to every
    512.  The trigger must match bit for bit whether the walk runs in
    one call or resumes across three."""
    start, boundaries = 0.1, 700
    for first_mean in (300, 509, 511, 512, 513):
        for remainder in range(batch):
            total = batch * first_mean + remainder
            clocks = [start]
            for k in range(boundaries):
                mean = max(1, round((total + k * batch) / batch))
                clocks.append(clocks[-1] + _step_cost(batch, mean)[0])
            case = (first_mean, remainder)

            state = _walk_state(start, boundaries, total, batch)
            assert ClusterSim._advance_walk(state, math.inf) == clocks[-1], case

            state = _walk_state(start, boundaries, total, batch)
            for stop in (boundaries // 3, 2 * boundaries // 3):
                # Walks every boundary starting at or before the limit.
                assert ClusterSim._advance_walk(state, clocks[stop]) is None, case
                assert state[0] == clocks[stop + 1], case
            assert ClusterSim._advance_walk(state, math.inf) == clocks[-1], case
