"""Regenerate or verify every digest pin table.

Four tables are checked: the engine digests (``DIGESTS`` in
``tests/serving/test_engine.py``), the two CU simulator pins
(``TestOutputPin.PINS`` and ``TestCoreTracePin.PINS`` in
``tests/sim/test_system_sim.py``, over that module's ``PIN_POINTS``)
and perfbench's ``cu_405b`` digest (``PINS`` in
``tests/test_perfbench_digests.py``, computed by perfbench's own code).

Capture (maintainer flow) -- run on a checkout whose simulator behavior
is the intended baseline and paste each emitted dict over its table::

    PYTHONPATH=src python tools/capture_digests.py

Check (CI flow) -- recompute every scenario and point and compare
against the committed tables, exiting non-zero when one is stale (a
scenario or point was added/removed without re-pinning, or a pin no
longer matches what the simulator produces)::

    PYTHONPATH=src python tools/capture_digests.py --check

Changing a pin is changing the simulator's reported numbers -- do it
knowingly.
"""

import argparse
import importlib.util
import pathlib
import sys
import time

ROOT = pathlib.Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))


def _load(name: str, path: pathlib.Path):
    spec = importlib.util.spec_from_file_location(name, path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


mod = _load("test_engine", ROOT / "tests" / "serving" / "test_engine.py")
cu = _load("test_system_sim", ROOT / "tests" / "sim" / "test_system_sim.py")
bench = _load("test_perfbench_digests", ROOT / "tests" / "test_perfbench_digests.py")

from repro.serving.cluster import simulate  # noqa: E402
from repro.serving.engine import report_digest  # noqa: E402


def compute_digests() -> dict[str, str]:
    digests = {}
    for name, build in mod.SCENARIOS.items():
        config, requests = build()
        t0 = time.perf_counter()
        report = simulate(config, requests)
        elapsed = time.perf_counter() - t0
        digests[name] = report_digest(report)
        print(
            f"    # {name}: {len(requests)} requests, "
            f"{len(report.completed)} completed, {elapsed:.2f}s",
            file=sys.stderr,
        )
    return digests


def compute_cu_pins() -> tuple[dict[str, str], dict[str, str]]:
    """Each pinned CU point's output and core-0 trace digests."""
    outputs, traces = {}, {}
    for name in cu.PIN_POINTS:
        t0 = time.perf_counter()
        result = cu.simulate_pin_point(name)
        outputs[name] = cu.TestOutputPin.output_digest(result)
        traces[name] = cu.TestCoreTracePin.trace_digest(result)
        print(f"    # {name}: {time.perf_counter() - t0:.2f}s", file=sys.stderr)
    return outputs, traces


def compute_perfbench_pins() -> dict[str, str]:
    """Each pinned perfbench workload's digest."""
    digests = {}
    for name in bench.PINS:
        t0 = time.perf_counter()
        digests[name] = bench.perfbench_digest(name)
        print(f"    # perfbench {name}: {time.perf_counter() - t0:.2f}s", file=sys.stderr)
    return digests


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--check",
        action="store_true",
        help="verify the committed pin tables instead of printing new ones",
    )
    args = parser.parse_args(argv)
    outputs, traces = compute_cu_pins()
    tables = [
        ("DIGESTS", mod.DIGESTS, compute_digests()),
        ("TestOutputPin.PINS", cu.TestOutputPin.PINS, outputs),
        ("TestCoreTracePin.PINS", cu.TestCoreTracePin.PINS, traces),
        ("test_perfbench_digests.PINS", bench.PINS, compute_perfbench_pins()),
    ]
    if not args.check:
        for label, _pinned, digests in tables:
            print(f"{label} = {{")
            for name, digest in digests.items():
                print(f'    "{name}": "{digest}",')
            print("}")
        return 0

    failed = False
    for label, pinned, digests in tables:
        stale = sorted(
            name
            for name in digests.keys() | pinned.keys()
            if digests.get(name) != pinned.get(name)
        )
        for name in stale:
            print(
                f"stale pin: {label}[{name!r}]: computed "
                f"{digests.get(name, '<missing>')}, pinned {pinned.get(name, '<missing>')}",
                file=sys.stderr,
            )
        if stale:
            failed = True
            print(
                f"{label} is stale ({len(stale)}/{len(digests)} entries); "
                "rerun tools/capture_digests.py and review the diff",
                file=sys.stderr,
            )
        else:
            print(f"{label} is current ({len(digests)} entries)", file=sys.stderr)
    return 1 if failed else 0


if __name__ == "__main__":
    raise SystemExit(main())
