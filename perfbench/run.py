"""The repository's benchmark: simulator host time and simulated results.

Run from the repository root::

    python3 perfbench/run.py                       # all four workloads
    python3 perfbench/run.py --workload mt_prod --seed 1 --seconds 20
    python3 perfbench/run.py --workload reasoning --trace 1   # per-layer
    python3 perfbench/run.py --self-test           # fast harness check

One process, one thread.  Each workload runs back to back for
``--seconds`` (at least three repetitions); ``--trace 0`` prints the
end-to-end metrics (medians over the repetitions), ``--trace 1`` the
per-layer ones from a run with every layer boundary wrapped.  The last
line of standard output is one JSON object: ``correct``, ``attempted``,
``failed`` and ``metrics``.  See ``perfbench/README.md``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"


def _import_program() -> None:
    """Put the checkout's ``src`` first on the path, or exit 2."""
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"perfbench: no simulator sources under {SRC}; run from a "
              "checkout of the repository", file=sys.stderr)
        sys.exit(2)
    sys.path.insert(0, str(SRC))


def machine_stamp() -> dict[str, str]:
    """Python, numpy leg, CPU count and model, and the git commit."""
    try:
        import numpy  # noqa: F401

        numpy_on = not os.environ.get("REPRO_NO_NUMPY")
    except ImportError:
        numpy_on = False
    cpu = platform.machine()
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as info:
            for line in info:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {
        "python": platform.python_version(),
        "numpy": "on" if numpy_on else "off",
        "nproc": str(os.cpu_count()),
        "cpu": cpu,
        "commit": git_commit(ROOT),
    }


def git_commit(root: Path) -> str:
    """HEAD's commit read from ``.git`` (no subprocess), or a note."""
    git = root / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        loose = git / ref
        if loose.is_file():
            return loose.read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown (not a git checkout)"


def fmt(value: float) -> str:
    return f"{value:.6g}"


def print_result(result, bench, metrics) -> None:
    """One workload's block: header, digest, samples, every metric with
    its unit, the correctness ledger and the notes."""
    ledger = result.ledger
    print(f"\n== {result.workload}  seed={result.seed}  "
          f"{'traced' if result.trace else 'untraced'}  reps={result.reps}  "
          f"({bench.workload.why})")
    print(f"digest {result.workload} seed={result.seed}: {result.digest}")
    if result.run_samples:
        print("run_s samples: " + " ".join(fmt(x) for x in result.run_samples))
        print("raw run seconds: "
              + " ".join(fmt(x) for x in result.raw_run_samples))
    for metric in metrics:
        value = result.metrics.get(metric.name)
        shown = "n/a" if value is None else fmt(value)
        print(f"  {metric.name:<32} {shown:>14} {metric.unit:<9} {metric.what}")
    print(f"  {'fail_ratio':<32} {fmt(ledger.fail_ratio):>14} {'ratio':<9} "
          f"failed {ledger.failed} / attempted {ledger.attempted}")
    for note in bench.notes():
        print(f"  note: {note}")
    for failure in ledger.failures:
        print(f"  FAILED {failure}")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", default="all",
                        help="workload name, or 'all' (default)")
    parser.add_argument("--seed", type=int, default=None,
                        help="workload seed (default: each workload's default)")
    parser.add_argument("--seconds", type=float, default=15.0,
                        help="measurement time per workload (default 15)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0,
                        help="1: per-layer metrics from a traced run")
    parser.add_argument("--spans-out", metavar="PATH", default=None,
                        help="with --trace 1: write the first traced run's "
                             "spans as a Chrome trace file (the workload's "
                             "name is inserted before the suffix)")
    parser.add_argument("--self-test", action="store_true",
                        help="run the harness self-test at tiny scale")
    args = parser.parse_args(argv)

    _import_program()
    if args.self_test:
        import selftest

        return selftest.main()

    from measure import Bench
    from metrics import END_TO_END, PER_LAYER, SIMULATED
    from workloads import DEFAULT_SEED, HELD_OUT_SEED, WORKLOADS

    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    unknown = [n for n in names if n not in WORKLOADS]
    if unknown:
        parser.error(f"unknown workload {unknown[0]!r} "
                     f"(known: {', '.join(WORKLOADS)}, all)")
    seed = DEFAULT_SEED if args.seed is None else args.seed
    reported = PER_LAYER if args.trace else END_TO_END
    # Untraced runs print the simulated metrics too (exact per seed).
    shown = reported if args.trace else END_TO_END + SIMULATED

    stamp = machine_stamp()
    print("perfbench machine: " + ", ".join(f"{k} {v}" for k, v in stamp.items()))
    print(f"perfbench run: workloads {', '.join(names)}; seed {seed} "
          f"(default {DEFAULT_SEED}, held out {HELD_OUT_SEED}); "
          f"{args.seconds:g} s each; trace {args.trace}")

    results = []
    for name in names:
        spans_out = None
        if args.spans_out:
            out = Path(args.spans_out)
            spans_out = str(out.with_name(f"{out.stem}.{name}{out.suffix}"))
        bench = Bench(WORKLOADS[name], seed, args.seconds, bool(args.trace),
                      spans_out)
        result = bench.run()
        print_result(result, bench, shown)
        results.append(result)

    # A per-layer metric a workload does not exercise reads 0; every
    # end-to-end metric must have been measured.
    required = [] if args.trace else reported
    if not all(r.metrics and all(m.name in r.metrics for m in required)
               for r in results):
        print("perfbench: a workload produced no measurement", file=sys.stderr)
        return 1
    single = len(results) == 1
    metrics = {}
    for result in results:
        for metric in reported:
            key = metric.name if single else f"{result.workload}.{metric.name}"
            metrics[key] = {"value": result.metrics.get(metric.name, 0.0),
                            "unit": metric.unit}
    attempted = sum(r.ledger.attempted for r in results)
    failed = sum(r.ledger.failed for r in results)
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
