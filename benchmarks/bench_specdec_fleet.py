"""Speculative decoding on the fleet: the ``reasoning_prod`` preset
with draft/verify speculation off vs on at equal KV budget, the
acceptance-rate sweep behind it, and a defaults-off digest re-check --
emitted as tables and machine-readable ``BENCH_specdec_fleet.json``.

Two contracts are enforced here:

- **speedup**: at the paper's lookahead-8 / 4.6-accepted operating
  point, specdec-on decode pods deliver >= 1.5x the goodput-weighted
  effective decode tok/s of the same fleet with specdec off, on
  identical reasoning arrivals at equal KV budget;
- **neutrality**: with specdec off the simulator is bit-identical to
  the pinned baseline -- every specdec-off digest pin in
  ``tests/serving/test_engine.py`` is recomputed and compared here,
  like ``tools/capture_digests.py --check`` does in CI.
"""

import importlib.util
from pathlib import Path

from conftest import emit

from _emit import write_bench_json
from repro.analysis.cluster_sweep import sweep
from repro.api import Scenario, TrafficSpec, scenario
from repro.models.llama3 import LLAMA3_70B
from repro.serving.cluster import ClusterReport, simulate
from repro.serving.engine import report_digest
from repro.specdec import SpecDecConfig, SpeculativeConfig
from repro.util.stats import left_sum
from repro.util.tables import Table

JSON_PATH = Path(__file__).resolve().parent / "BENCH_specdec_fleet.json"
ENGINE_TESTS = (
    Path(__file__).resolve().parent.parent
    / "tests" / "serving" / "test_engine.py"
)

#: The acceptance bar: goodput-weighted effective decode throughput
#: with specdec on over off, same arrivals, equal KV budget.
MIN_SPEEDUP = 1.5
#: Tokens accepted per lookahead-8 window in the acceptance sweep.
ACCEPTED = (2.0, 3.0, 4.6, 6.0)


def _effective_decode_rate(report: ClusterReport) -> float:
    """Goodput-weighted decode tokens per decode-pod busy second --
    the rate speculation lifts even when wall-clock throughput is
    arrival-bound."""
    busy = left_sum(p.busy_s for p in report.pod_stats if p.kind == "decode")
    if busy <= 0.0:
        return 0.0
    return report.goodput * report.decode_tokens / busy


def _acceptance_sweep():
    """The no-specdec baseline, then lookahead-8 speculation (colocated
    draft, draft-KV headroom charged) at each acceptance rate, on
    identical 2 RPS reasoning traffic."""
    base = Scenario(
        model=LLAMA3_70B,
        traffic=TrafficSpec(rate_rps=2.0, duration_s=15.0, decode_mean=4096),
    )
    windows = [
        SpeculativeConfig(lookahead=8, accepted_per_window=accepted)
        for accepted in ACCEPTED
    ]
    return sweep(
        base,
        [{"specdec": None}]
        + [{"specdec": SpecDecConfig(speculation=w)} for w in windows],
    )


def _acceptance_point(point, report, base_rate):
    """One acceptance-sweep row, as emitted (0 accepted / lookahead 0
    marks the baseline)."""
    window = point.specdec.speculation if point.specdec else None
    rate = _effective_decode_rate(report)
    return {
        "accepted_per_window": window.accepted_per_window if window else 0.0,
        "lookahead": window.lookahead if window else 0,
        "effective_decode_tokens_per_s": rate,
        "speedup": rate / base_rate,
        "energy_per_token_j": report.energy_per_token_j,
        "completed": len(report.completed),
    }


def _load_engine_pins():
    """Import the digest-pin module the way the capture tool does."""
    spec = importlib.util.spec_from_file_location("test_engine", ENGINE_TESTS)
    mod = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mod)
    return mod


def build():
    off_scenario = scenario("reasoning_prod", LLAMA3_70B)
    requests = off_scenario.requests()
    off = off_scenario.run(requests)
    on = scenario(
        "reasoning_prod", LLAMA3_70B, specdec=SpecDecConfig()
    ).run(requests)
    rows = _acceptance_sweep()
    base_rate = _effective_decode_rate(rows[0][1])
    acceptance = [_acceptance_point(*row, base_rate) for row in rows]
    # Defaults-off neutrality: recompute every specdec-off pin.
    pins = _load_engine_pins()
    digests = {}
    for name, builder in pins.SCENARIOS.items():
        config, pin_requests = builder()
        if config.specdec is not None:
            continue
        digests[name] = report_digest(simulate(config, pin_requests))
    return off, on, acceptance, pins.DIGESTS, digests


def test_specdec_fleet(benchmark):
    off, on, acceptance, pinned, recomputed = benchmark.pedantic(
        build, rounds=1, iterations=1
    )
    off_rate = _effective_decode_rate(off)
    on_rate = _effective_decode_rate(on)
    speedup = on_rate / off_rate

    preset_table = Table(
        "reasoning_prod preset, identical arrivals at equal KV budget "
        "(Llama3-70B verify, Llama3-8B colocated draft, L=8 / 4.6 accepted)",
        ["specdec", "completed", "eff decode tok/s", "tok/s", "J/token"],
    )
    for label, report, rate in (("off", off, off_rate), ("on", on, on_rate)):
        preset_table.add_row([
            label,
            f"{len(report.completed)}/{report.num_submitted}",
            f"{rate:,.0f}",
            f"{report.tokens_per_s:,.0f}",
            f"{report.energy_per_token_j:.2f}",
        ])

    sweep_table = Table(
        "Acceptance-rate sweep (lookahead 8, colocated draft, "
        "reasoning traffic)",
        ["accepted/window", "eff decode tok/s", "speedup", "J/token"],
    )
    for p in acceptance:
        label = (
            "off" if p["lookahead"] == 0 else f"{p['accepted_per_window']:.1f}"
        )
        sweep_table.add_row([
            label,
            f"{p['effective_decode_tokens_per_s']:,.0f}",
            f"{p['speedup']:.2f}x",
            f"{p['energy_per_token_j']:.2f}",
        ])
    emit(preset_table, sweep_table)

    # -- acceptance: the paper's operating point pays off on the fleet
    assert len(on.completed) == len(off.completed)
    assert speedup >= MIN_SPEEDUP, (
        f"specdec-on effective decode rate {on_rate:,.0f} tok/s is only "
        f"{speedup:.2f}x the specdec-off {off_rate:,.0f} tok/s "
        f"(need >= {MIN_SPEEDUP}x)"
    )
    # The sweep brackets the operating point: negligible lift at low
    # acceptance, monotone-increasing effective rate above it.
    rates = [p["effective_decode_tokens_per_s"] for p in acceptance]
    assert rates[-1] > rates[1]
    by_accept = {p["accepted_per_window"]: p for p in acceptance}
    assert by_accept[6.0]["speedup"] > by_accept[2.0]["speedup"]

    # -- acceptance: specdec off is bit-identical to the pinned baseline
    for name, digest in recomputed.items():
        assert digest == pinned[name], (
            f"specdec-off scenario {name!r} drifted from its pin"
        )
    assert len(recomputed) == 22

    write_bench_json(
        JSON_PATH,
        "specdec_fleet",
        config={
            "model": LLAMA3_70B.name,
            "preset": "reasoning_prod",
            "lookahead": 8,
            "accepted_per_window": 4.6,
            "sweep_accepted": list(ACCEPTED),
            "min_speedup": MIN_SPEEDUP,
        },
        metrics={
            "effective_decode_tokens_per_s": {
                "off": off_rate,
                "on": on_rate,
                "speedup": speedup,
            },
            "acceptance_sweep": acceptance,
            "defaults_off_pins_checked": len(recomputed),
            "reasoning_prod": {
                "off": off.to_json(),
                "on": on.to_json(),
            },
        },
    )
