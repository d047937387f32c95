"""Fast self-test of the benchmark harness (``run.py --self-test``).

Runs the real measurement code on tiny workloads and checks:

- the metric registry matches ``BENCHMARK.json`` (names, units, better
  direction, workloads) and every name and unit is well formed;
- an untraced and a traced tiny fleet run, and a tiny CU run, report
  every metric they owe, with no failed operation;
- ``fail_ratio`` counts a hand-built report that leaves an offered
  request unresolved;
- span self time is duration minus children, and :func:`instrument`
  restores every wrapped attribute.
"""

from __future__ import annotations

import dataclasses
import json
import re
from pathlib import Path

from repro.models import LLAMA3_8B
from repro.serving.cluster import ClusterReport

from layers import COUNTED_METHODS, SPANNED_METHODS, SpanRecorder, instrument
from measure import Bench, Ledger, fleet_problems
from metrics import END_TO_END, PER_LAYER
from workloads import WORKLOADS, CuSpec, Workload, chat_hybrid

ROOT = Path(__file__).resolve().parent.parent
NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")
UNIT = re.compile(r"[A-Za-z0-9_/%.-]{1,16}")


class Checks:
    def __init__(self) -> None:
        self.run = 0
        self.failed: list[str] = []

    def __call__(self, ok: bool, what: str) -> None:
        self.run += 1
        if not ok:
            self.failed.append(what)


def tiny_chat(seed: int):
    """chat_hybrid cut to a 5 s arrival window."""
    scenario = chat_hybrid(seed)
    traffic = dataclasses.replace(scenario.traffic, duration_s=5.0)
    return dataclasses.replace(scenario, traffic=traffic)


TINY_FLEET = Workload("tiny_fleet", "self-test", scenario=tiny_chat)
TINY_CU = Workload(
    "tiny_cu", "self-test",
    cu=CuSpec(LLAMA3_8B, gpu_count=1, seq_len=1024, batches=(1, 2),
              detail_cores=1),
)


def check_registry(check: Checks) -> None:
    names = [m.name for m in END_TO_END + PER_LAYER]
    check(len(names) == len(set(names)), "metric names are unique")
    for metric in END_TO_END + PER_LAYER:
        check(NAME.fullmatch(metric.name) is not None, f"name {metric.name}")
        check(UNIT.fullmatch(metric.unit) is not None, f"unit of {metric.name}")
        check(metric.better in ("lower", "higher"), f"better of {metric.name}")
    check(any(m.name == "setup_s" and m.unit == "s" and m.better == "lower"
              for m in END_TO_END), "setup_s is an end-to-end metric")
    spec_path = ROOT / "BENCHMARK.json"
    if not spec_path.is_file():
        return
    spec = json.loads(spec_path.read_text())
    for key, metrics in (("end_to_end", END_TO_END), ("per_layer", PER_LAYER)):
        declared = [(m["name"], m["unit"], m["better"]) for m in spec[key]]
        ours = [(m.name, m.unit, m.better) for m in metrics]
        check(declared == ours, f"BENCHMARK.json {key} matches the registry")
    check([w["name"] for w in spec["workloads"]] == list(WORKLOADS),
          "BENCHMARK.json workloads match")


def check_runs(check: Checks) -> None:
    e2e = [m.name for m in END_TO_END]
    for workload in (TINY_FLEET, TINY_CU):
        for trace in (False, True):
            result = Bench(workload, seed=1, seconds=0.0, trace=trace).run()
            label = f"{workload.name} trace={int(trace)}"
            check(result.ledger.failed == 0,
                  f"{label}: no failed operation {result.ledger.failures}")
            check(len(result.digest) == 64, f"{label}: digest printed")
            owed = (["run.cold_s", "harness.trace_overhead_ratio"]
                    if trace else e2e)
            check(all(result.metrics.get(n, 0.0) > 0.0 for n in owed),
                  f"{label}: every owed metric measured")
            if trace and workload.fleet:
                check(result.metrics["engine.push_calls"] > 0,
                      f"{label}: engine pushes counted")
                check(result.metrics["cluster.self_s"] > 0.0,
                      f"{label}: cluster self time recorded")
            if trace and not workload.fleet:
                check(result.metrics["compiler.instructions"] > 0,
                      f"{label}: instructions counted")


def check_fail_ratio(check: Checks) -> None:
    requests = tiny_chat(1).requests()
    report = ClusterReport(completed=(), rejected=(), duration_s=1.0,
                           pod_stats=())
    problems = fleet_problems(report, offered=len(requests))
    check(bool(problems) and "unresolved" in problems[0],
          "an unresolved request is a failed operation")
    ledger = Ledger()
    ledger.record("hand-built report", problems)
    ledger.record("clean run", [])
    check(ledger.failed == 1 and ledger.fail_ratio == 0.5,
          "fail_ratio = failed / attempted")


def check_spans(check: Checks) -> None:
    recorder = SpanRecorder()
    outer, inner = recorder.name_id("outer"), recorder.name_id("inner")
    # outer [0, 10] holds inner [1, 4] and inner [5, 6].
    for ident, parent, start, end in ((outer, -1, 0.0, 10.0),
                                      (inner, 0, 1.0, 4.0),
                                      (inner, 0, 5.0, 6.0)):
        recorder.name_ix.append(ident)
        recorder.parent.append(parent)
        recorder.start.append(start)
        recorder.end.append(end)
    check(recorder.self_times() == {"outer": 6.0, "inner": 4.0},
          "self time is duration minus children")
    check(recorder.span_counts() == {"outer": 1, "inner": 2}, "span counts")

    targets = [(owner, attr) for owner, attr, _ in SPANNED_METHODS + COUNTED_METHODS]
    before = [vars(owner)[attr] for owner, attr in targets]
    with instrument(SpanRecorder()):
        wrapped = [vars(owner)[attr] for owner, attr in targets]
    after = [vars(owner)[attr] for owner, attr in targets]
    check(all(w is not b for w, b in zip(wrapped, before)), "wrappers installed")
    check(all(a is b for a, b in zip(after, before)), "originals restored")


def main() -> int:
    check = Checks()
    check_registry(check)
    check_fail_ratio(check)
    check_spans(check)
    check_runs(check)
    for failure in check.failed:
        print(f"self-test FAILED: {failure}")
    print(f"self-test: {check.run - len(check.failed)}/{check.run} checks passed")
    return 1 if check.failed else 0
