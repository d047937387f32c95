"""Shorthand for the fleet most serving tests run: the paper's
deployment, GPU prefill pods in front of RPU decode pods."""

from repro.api import PodGroup, Scenario


def fleet(model, prefill=2, decode=2, **knobs):
    """``Scenario(model, **knobs).cluster()`` with ``prefill`` GPU
    prefill pods and ``decode`` RPU decode pods (two of each, as
    ``Scenario`` has by default)."""
    return Scenario(
        model,
        prefill=(PodGroup("gpu", count=prefill),),
        decode=(PodGroup("rpu", count=decode),),
        **knobs,
    ).cluster()
