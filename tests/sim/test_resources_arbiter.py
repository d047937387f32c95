"""Bandwidth resources (FIFO links) and pipeline arbiters."""

import pytest

from repro.sim.arbiter import PipelineArbiter
from repro.sim.kernel import Simulator, Timeout
from repro.sim.resources import BandwidthResource


class TestBandwidthResource:
    """A transfer books a slot with ``reserve`` and waits until its
    finish, as the engines do."""

    def test_transfer_duration(self):
        sim = Simulator()
        link = BandwidthResource(sim, bandwidth_bytes_per_s=100.0)
        log = []

        def proc():
            start, finish = link.reserve(50.0)
            yield Timeout(finish - sim.now)
            log.append(((start, finish), sim.now))

        sim.process(proc())
        sim.run()
        assert log == [((0.0, 0.5), 0.5)]

    def test_fifo_serialization(self):
        sim = Simulator()
        link = BandwidthResource(sim, 100.0)
        log = []

        def proc():
            start, finish = link.reserve(100.0)
            yield Timeout(finish - sim.now)
            log.append(((start, finish), sim.now))

        sim.process(proc())
        sim.process(proc())
        sim.run()
        assert log == [((0.0, 1.0), 1.0), ((1.0, 2.0), 2.0)]

    def test_idle_link_starts_at_once(self):
        """A transfer that finds the link idle starts at the current
        time, not when the link last freed."""
        sim = Simulator()
        link = BandwidthResource(sim, 100.0)
        log = []

        def proc(delay):
            yield Timeout(delay)
            start, finish = link.reserve(100.0)
            yield Timeout(finish - sim.now)
            log.append(((start, finish), sim.now))

        sim.process(proc(0.0))
        sim.process(proc(3.0))
        sim.run()
        assert log == [((0.0, 1.0), 1.0), ((3.0, 4.0), 4.0)]

    def test_zero_byte_transfer_waits_its_turn(self):
        """An empty transfer still queues behind the one holding the
        link and resumes when that one finishes."""
        sim = Simulator()
        link = BandwidthResource(sim, 100.0)
        log = []

        def proc(nbytes):
            start, finish = link.reserve(nbytes)
            yield Timeout(finish - sim.now)
            log.append(((start, finish), sim.now))

        sim.process(proc(100.0))
        sim.process(proc(0.0))
        sim.run()
        assert log == [((0.0, 1.0), 1.0), ((1.0, 1.0), 1.0)]

    def test_rejects_bad_args(self):
        sim = Simulator()
        with pytest.raises(ValueError):
            BandwidthResource(sim, 0.0)
        link = BandwidthResource(sim, 1.0)
        with pytest.raises(ValueError):
            link.reserve(-1)
        # The refused booking took no slot.
        assert link.reserve(1.0) == (0.0, 1.0)

    def test_reserve_books_fifo_slots_without_waiting(self):
        """``reserve`` books the next slot at once: back to back while
        the link is busy, from the current time once it is idle."""
        sim = Simulator()
        link = BandwidthResource(sim, 100.0)
        assert link.reserve(100.0) == (0.0, 1.0)
        assert link.reserve(50.0) == (1.0, 1.5)
        assert sim.now == 0.0
        log = []

        def proc():
            yield Timeout(4.0)
            log.append(link.reserve(100.0))

        sim.process(proc())
        sim.run()
        assert log == [(4.0, 5.0)]


class TestArbiter:
    def test_serializes_and_counts(self):
        sim = Simulator()
        arbiter = PipelineArbiter(sim, access_time_s=1.0)
        order = []

        def engine(name):
            yield from arbiter.access(name)
            order.append((name, sim.now))

        sim.process(engine("memory"))
        sim.process(engine("compute"))
        sim.run()
        assert arbiter.grants == 2
        assert arbiter.conflicts == 1
        assert order[0][1] < order[1][1]

    def test_priority_order(self):
        """Network preempts queued memory/compute requests."""
        sim = Simulator()
        arbiter = PipelineArbiter(sim, access_time_s=1.0)
        order = []

        def engine(name, start):
            yield Timeout(start)
            yield from arbiter.access(name)
            order.append(name)

        sim.process(engine("memory", 0.0))  # holds the port first
        sim.process(engine("compute", 0.1))
        sim.process(engine("network", 0.2))
        sim.run()
        assert order == ["memory", "network", "compute"]

    def test_unknown_engine_lowest_priority(self):
        sim = Simulator()
        arbiter = PipelineArbiter(sim, access_time_s=1.0)
        order = []

        def engine(name, start):
            yield Timeout(start)
            yield from arbiter.access(name)
            order.append(name)

        sim.process(engine("memory", 0.0))
        sim.process(engine("mystery", 0.1))
        sim.process(engine("compute", 0.2))
        sim.run()
        assert order == ["memory", "compute", "mystery"]

    def test_mixed_waiters_granted_by_rank_then_arrival(self):
        """Five waiters of interleaved ranks queue behind a holder; a
        network request arriving mid-grant still goes next."""
        sim = Simulator()
        arbiter = PipelineArbiter(sim, access_time_s=1.0)
        order = []

        def engine(tag, name, start):
            yield Timeout(start)
            yield from arbiter.access(name)
            order.append((tag, sim.now))

        sim.process(engine("m0", "memory", 0.0))  # holds the port first
        sim.process(engine("m1", "memory", 0.1))
        sim.process(engine("c1", "compute", 0.2))
        sim.process(engine("x1", "mystery", 0.3))
        sim.process(engine("c2", "compute", 0.4))
        sim.process(engine("n1", "network", 1.5))  # arrives while c1 holds
        sim.run()
        assert order == [
            ("m0", 1.0), ("c1", 2.0), ("n1", 3.0), ("c2", 4.0), ("m1", 5.0), ("x1", 6.0)
        ]
        assert arbiter.grants == 6
        assert arbiter.conflicts == 5

    def test_release_hands_the_port_to_the_queued_waiter(self):
        """A newcomer arriving at the very instant the holder releases,
        before the woken waiter resumes, must queue: the port passes to
        the waiter, so no two holds overlap."""
        sim = Simulator()
        arbiter = PipelineArbiter(sim, access_time_s=1.0)
        holds = []

        def engine(name, *delays):
            for delay in delays:
                yield Timeout(delay)
            yield from arbiter.access(name)
            holds.append((name, sim.now - 1.0, sim.now))

        sim.process(engine("memory", 0.0))  # holds [0, 1)
        sim.process(engine("network", 0.5))  # queues behind it
        # Resumes at 1.0 after the holder's release (scheduled later).
        sim.process(engine("compute", 0.25, 0.75))
        sim.run()
        assert holds == [
            ("memory", 0.0, 1.0), ("network", 1.0, 2.0), ("compute", 2.0, 3.0)
        ]
        assert arbiter.grants == 3
        assert arbiter.conflicts == 2

    def test_try_grant_takes_only_a_free_port(self):
        arbiter = PipelineArbiter(Simulator(), access_time_s=1.0)
        assert arbiter.hold.delay == 1.0
        assert arbiter.try_grant()
        assert arbiter.grants == 1
        assert not arbiter.try_grant()
        assert arbiter.grants == 1 and arbiter.conflicts == 0
        arbiter.release()
        assert arbiter.try_grant()
        assert arbiter.grants == 2

    def test_release_passes_a_stepped_grant_to_the_queued_waiter(self):
        """A holder that took the port with ``try_grant`` releases it to
        the waiter queued in ``access``: the port stays busy, so a
        ``try_grant`` at the release instant fails."""
        sim = Simulator()
        arbiter = PipelineArbiter(sim, access_time_s=1.0)
        log = []

        def holder():
            assert arbiter.try_grant()
            yield arbiter.hold
            arbiter.release()
            log.append(("released", sim.now, arbiter.try_grant()))

        def waiter():
            yield from arbiter.access("compute")
            log.append(("granted", sim.now))

        sim.process(holder())
        sim.process(waiter())
        sim.run()
        assert log == [("released", 1.0, False), ("granted", 2.0)]
        assert arbiter.grants == 2
        assert arbiter.conflicts == 1
        # The waiter's release freed the port.
        assert arbiter.try_grant()

    def test_rejects_negative_access_time(self):
        with pytest.raises(ValueError):
            PipelineArbiter(Simulator(), access_time_s=-1.0)
