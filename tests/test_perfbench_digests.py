"""perfbench's workload digests, pinned.

A perfbench run checks that every repetition reproduces its first one's
digest, but compares no digest with a committed value.  This module
does, for ``cu_405b``: it imports the benchmark's own workload and
measurement code from ``perfbench/`` (writing no bytecode there) and
reproduces the digest of a ``cu_405b`` repetition.  Its inputs have no
randomness, so the seed does not enter.

``tools/capture_digests.py --check`` checks the same table.
"""

import contextlib
import importlib
import pathlib
import sys

from repro.sim.system_sim import simulate_decode_step

PERFBENCH = pathlib.Path(__file__).resolve().parent.parent / "perfbench"

#: perfbench's digest of each pinned workload.
PINS = {
    "cu_405b": "6de8f16ef6569a71a859d591c54ee0a9028966b3b7d786527bd38eea411e5329",
}


def _perfbench(name: str):
    """perfbench's module ``name``, imported from ``perfbench/`` as the
    benchmark imports it (its modules import each other by bare name)."""
    path, bytecode = list(sys.path), sys.dont_write_bytecode
    sys.path.insert(0, str(PERFBENCH))
    sys.dont_write_bytecode = True
    try:
        return importlib.import_module(name)
    finally:
        sys.path[:], sys.dont_write_bytecode = path, bytecode


def perfbench_digest(name: str) -> str:
    """The digest one perfbench repetition of CU workload ``name``
    reports (the simulations ``measure.Bench`` runs, without timing).

    The loop below is a copy of ``Bench._cu_rep``'s simulation loop
    (``perfbench/measure.py``, lines 327-335), not a call to it: if that
    loop changes, this copy must change with it, or the pin checks a
    computation perfbench no longer runs.
    """
    measure = _perfbench("measure")
    spec = _perfbench("workloads").WORKLOADS[name].cu
    comparison, points = measure.cu_setup(spec, lambda _layer: contextlib.nullcontext())
    sims = [
        simulate_decode_step(
            system, workload, program=program, detail_cores=spec.detail_cores
        )
        for _bs, workload, system, program in points
    ]
    return measure.CuOutput(spec, comparison, points, sims).digest()


def test_cu_405b_digest_is_pinned():
    assert perfbench_digest("cu_405b") == PINS["cu_405b"]
