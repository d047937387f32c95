"""Event-kernel semantics: time, ordering, signals, process joins."""

import pytest

from repro.sim.kernel import SimulationError, Simulator, Timeout


def test_timeout_advances_time():
    sim = Simulator()
    log = []

    def proc():
        yield Timeout(1.5)
        log.append(sim.now)

    sim.process(proc())
    assert sim.run() == 1.5
    assert log == [1.5]


def test_zero_timeout_allowed():
    sim = Simulator()

    def proc():
        yield Timeout(0.0)

    sim.process(proc())
    assert sim.run() == 0.0


def test_negative_timeout_rejected():
    with pytest.raises(ValueError):
        Timeout(-1.0)


def test_fifo_ordering_at_same_time():
    sim = Simulator()
    log = []

    def proc(tag):
        yield Timeout(1.0)
        log.append(tag)

    for tag in "abc":
        sim.process(proc(tag))
    sim.run()
    assert log == ["a", "b", "c"]


def test_signal_wakes_all_waiters():
    sim = Simulator()
    gate = sim.signal()
    log = []

    def waiter(tag):
        yield gate
        log.append((tag, sim.now))

    def firer():
        yield Timeout(2.0)
        gate.fire("payload")

    sim.process(waiter("x"))
    sim.process(waiter("y"))
    sim.process(firer())
    sim.run()
    assert log == [("x", 2.0), ("y", 2.0)]


def test_wait_on_fired_signal_resumes_immediately():
    sim = Simulator()
    gate = sim.signal()
    gate.fire()
    log = []

    def proc():
        yield gate
        log.append(sim.now)

    sim.process(proc())
    sim.run()
    assert log == [0.0]


def test_refire_is_noop():
    sim = Simulator()
    gate = sim.signal()
    gate.fire(1)
    gate.fire(2)
    assert gate.value == 1


def test_process_join():
    sim = Simulator()
    log = []

    def child():
        yield Timeout(3.0)
        return "done"

    def parent():
        result = yield sim.process(child(), "child")
        log.append((result, sim.now))

    sim.process(parent())
    sim.run()
    assert log == [("done", 3.0)]


def test_run_until_stops_early():
    sim = Simulator()

    def proc():
        yield Timeout(10.0)

    sim.process(proc())
    assert sim.run(until=4.0) == 4.0
    assert sim.run() == 10.0


def test_invalid_yield_raises():
    sim = Simulator()

    def proc():
        yield 42

    sim.process(proc(), "core7.comp")
    with pytest.raises(SimulationError, match=r"process core7\.comp yielded 42"):
        sim.run()


def test_shared_timeout_object_resumes_each_yielder():
    """One Timeout yielded by several processes, again and again, puts
    each back at its own clock plus the delay, same-time ones in FIFO
    order."""
    sim = Simulator()
    wait = Timeout(2.0)
    log = []

    def proc(tag, start):
        yield Timeout(start)
        for _ in range(2):
            yield wait
            log.append((tag, sim.now))

    sim.process(proc("a", 0.0))
    sim.process(proc("b", 1.0))
    sim.process(proc("c", 0.0))
    sim.run()
    assert log == [
        ("a", 2.0), ("c", 2.0), ("b", 3.0), ("a", 4.0), ("c", 4.0), ("b", 5.0)
    ]


def test_timeout_subclass_schedules():
    class Pause(Timeout):
        __slots__ = ()

    sim = Simulator()
    log = []

    def proc():
        yield Pause(0.5)
        log.append(sim.now)
        yield Timeout(0.25)
        log.append(sim.now)

    sim.process(proc())
    assert sim.run() == 0.75
    assert log == [0.5, 0.75]


def test_resuming_a_finished_process_raises():
    sim = Simulator()

    def proc():
        yield Timeout(1.0)

    process = sim.process(proc(), "worker")
    sim.run()
    assert process.done
    sim._schedule(0.0, process)
    with pytest.raises(SimulationError, match="worker resumed after finishing"):
        sim.run()


def test_time_running_backwards_raises():
    sim = Simulator()

    def proc():
        yield Timeout(1.0)
        yield Timeout(1.0)

    process = sim.process(proc())
    sim.run(until=1.5)
    sim._schedule(-1.0, process)
    with pytest.raises(SimulationError, match="time went backwards"):
        sim.run()


def test_nested_dependency_chain():
    sim = Simulator()
    log = []

    def stage(name, gate_in, gate_out, delay):
        if gate_in is not None:
            yield gate_in
        yield Timeout(delay)
        log.append((name, sim.now))
        if gate_out is not None:
            gate_out.fire()

    g1, g2 = sim.signal(), sim.signal()
    sim.process(stage("c", g2, None, 1.0))
    sim.process(stage("b", g1, g2, 2.0))
    sim.process(stage("a", None, g1, 3.0))
    sim.run()
    assert log == [("a", 3.0), ("b", 5.0), ("c", 6.0)]
