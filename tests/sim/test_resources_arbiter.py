"""Bandwidth resources (FIFO links) and pipeline arbiters."""

import pytest

from repro.sim.arbiter import PipelineArbiter
from repro.sim.kernel import Simulator, Timeout
from repro.sim.resources import BandwidthResource


class TestBandwidthResource:
    def test_transfer_duration(self):
        sim = Simulator()
        link = BandwidthResource(sim, "l", bandwidth_bytes_per_s=100.0)
        spans = []

        def proc():
            span = yield from link.transfer(50.0)
            spans.append(span)

        sim.process(proc())
        sim.run()
        assert spans == [(0.0, 0.5)]

    def test_fifo_serialization(self):
        sim = Simulator()
        link = BandwidthResource(sim, "l", 100.0)
        spans = []

        def proc():
            span = yield from link.transfer(100.0)
            spans.append(span)

        sim.process(proc())
        sim.process(proc())
        sim.run()
        assert spans == [(0.0, 1.0), (1.0, 2.0)]
        assert link.busy_s == pytest.approx(2.0)
        assert link.bytes_moved == 200.0

    def test_latency_added_after_occupancy(self):
        sim = Simulator()
        link = BandwidthResource(sim, "l", 100.0, latency_s=0.25)
        done = []

        def proc():
            yield from link.transfer(100.0)
            done.append(sim.now)

        sim.process(proc())
        sim.run()
        assert done == [1.25]

    def test_utilization(self):
        sim = Simulator()
        link = BandwidthResource(sim, "l", 100.0)

        def proc():
            yield from link.transfer(50.0)

        sim.process(proc())
        sim.run()
        assert link.utilization(1.0) == pytest.approx(0.5)
        assert link.utilization(0.0) == 0.0

    def test_rejects_bad_args(self):
        sim = Simulator()
        with pytest.raises(ValueError):
            BandwidthResource(sim, "l", 0.0)
        link = BandwidthResource(sim, "l", 1.0)
        with pytest.raises(ValueError):
            list(link.transfer(-1))


class TestArbiter:
    def test_serializes_and_counts(self):
        sim = Simulator()
        arbiter = PipelineArbiter(sim, "a", access_time_s=1.0)
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
        arbiter = PipelineArbiter(sim, "a", access_time_s=1.0)
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
        arbiter = PipelineArbiter(sim, "a", access_time_s=1.0)
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
        arbiter = PipelineArbiter(sim, "a", access_time_s=1.0)
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

    def test_rejects_negative_access_time(self):
        with pytest.raises(ValueError):
            PipelineArbiter(Simulator(), "a", access_time_s=-1.0)
