"""SRAM buffers: valid counters, back-pressure, occupancy conservation,
and the non-blocking steps the process phases are built on."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.sim.buffers import BufferError, SramBuffer
from repro.sim.kernel import Simulator, Timeout


def run(generator_fn, capacity=1000.0, trace=False):
    """Helper: run a scenario against a fresh sim + buffer."""
    sim = Simulator()
    buffer = SramBuffer(sim, "buf", capacity, trace=trace)
    sim.process(generator_fn(sim, buffer))
    sim.run()
    return buffer


def test_write_then_read():
    def scenario(sim, buf):
        yield from buf.allocate("a", 100, valid_count=1)
        buf.commit("a")
        yield from buf.read("a")

    buffer = run(scenario)
    assert buffer.occupancy_bytes == 0


def test_valid_count_two_consumers():
    def scenario(sim, buf):
        yield from buf.allocate("a", 100, valid_count=2)
        buf.commit("a")
        yield from buf.read("a")
        assert buf.occupancy_bytes == 100  # still one consumer pending
        yield from buf.read("a")
        assert buf.occupancy_bytes == 0

    run(scenario)


def test_read_without_decrement_keeps_entry():
    def scenario(sim, buf):
        yield from buf.allocate("a", 50, valid_count=1)
        buf.commit("a")
        yield from buf.read("a", decrement=False)
        assert buf.try_read("a", decrement=False)
        assert buf.occupancy_bytes == 50
        yield from buf.read("a")
        assert not buf.try_read("a", decrement=False)
        assert buf.occupancy_bytes == 0

    run(scenario)


def test_reader_blocks_until_commit():
    sim = Simulator()
    buf = SramBuffer(sim, "b", 1000)
    times = []

    def reader():
        yield from buf.read("x")
        times.append(sim.now)

    def writer():
        yield Timeout(5.0)
        yield from buf.allocate("x", 10)
        buf.commit("x")

    sim.process(reader())
    sim.process(writer())
    sim.run()
    assert times == [5.0]
    assert buf.read_stall_s == 5.0


def test_writer_blocks_on_capacity():
    sim = Simulator()
    buf = SramBuffer(sim, "b", 100)
    times = []

    def producer():
        yield from buf.allocate("a", 80)
        buf.commit("a")
        yield from buf.allocate("b", 80)  # must wait for space
        times.append(sim.now)

    def consumer():
        yield Timeout(3.0)
        yield from buf.read("a")

    sim.process(producer())
    sim.process(consumer())
    sim.run()
    assert times == [3.0]
    assert buf.write_stall_s == pytest.approx(3.0)


def test_oversized_entry_rejected():
    def scenario(sim, buf):
        yield from buf.allocate("huge", 2000)

    with pytest.raises(BufferError, match="buf: entry 'huge' .* exceeds buffer"):
        run(scenario, capacity=1000)


def test_double_write_rejected():
    def scenario(sim, buf):
        yield from buf.allocate("a", 10)
        buf.commit("a")
        yield from buf.allocate("a", 10)

    with pytest.raises(BufferError, match="buf: double write to entry 'a'"):
        run(scenario)


def test_over_consume_rejected():
    def scenario(sim, buf):
        yield from buf.allocate("a", 10, valid_count=1)
        buf.commit("a")
        yield from buf.read("a")
        # Entry is gone; a second read should block forever (deadlock),
        # not over-consume -- so this scenario just never completes.
        if buf.try_read("a"):
            raise AssertionError("entry should be released")

    buffer = run(scenario)
    assert buffer.occupancy_bytes == 0


def test_commit_without_allocate_rejected():
    sim = Simulator()
    buf = SramBuffer(sim, "b", 100)
    with pytest.raises(BufferError, match="b: commit of unallocated entry 'nope'"):
        buf.commit("nope")


def test_allocate_commit_two_phase():
    sim = Simulator()
    buf = SramBuffer(sim, "b", 100)
    seen = []

    def reader():
        yield from buf.read("x")
        seen.append(sim.now)

    def writer():
        yield from buf.allocate("x", 10)
        yield Timeout(7.0)  # DMA in flight: space held, not yet valid
        buf.commit("x")

    sim.process(reader())
    sim.process(writer())
    sim.run()
    assert seen == [7.0]


def test_reader_waits_on_allocated_uncommitted_entry():
    """An entry that is allocated but not yet committed blocks a reader
    until the commit, and the wait counts as a read stall."""
    sim = Simulator()
    buf = SramBuffer(sim, "b", 100)
    seen = []

    def writer():
        yield from buf.allocate("x", 10)
        yield Timeout(7.0)
        buf.commit("x")

    def reader():
        yield Timeout(1.0)
        assert buf.occupancy_bytes == 10  # allocated ...
        assert not buf.try_read("x")  # ... but not readable
        yield from buf.read("x")
        seen.append(sim.now)

    sim.process(writer())
    sim.process(reader())
    sim.run()
    assert seen == [7.0]
    assert buf.read_stall_s == 6.0
    assert buf.occupancy_bytes == 0
    assert not buf.try_read("x")


def test_occupancy_trace_records_changes():
    def scenario(sim, buf):
        yield from buf.allocate("a", 60)
        buf.commit("a")
        yield from buf.read("a")

    buffer = run(scenario, trace=True)
    occupancies = [b for _, b in buffer.occupancy_trace]
    assert 60 in occupancies and occupancies[-1] == 0


def test_occupancy_trace_kept_only_when_asked():
    def scenario(sim, buf):
        yield from buf.allocate("a", 60)
        buf.commit("a")
        yield from buf.read("a")

    buffer = run(scenario)
    assert buffer.occupancy_trace is None
    assert buffer.occupancy_bytes == 0


class TestSteps:
    """``try_allocate`` and ``try_read`` change the buffer only when
    they succeed, and never yield."""

    def test_try_allocate_reserves_space_when_it_fits(self):
        buf = SramBuffer(Simulator(), "b", 100, trace=True)
        assert buf.try_allocate("a", 60, valid_count=2)
        assert buf.occupancy_bytes == 60
        assert buf.occupancy_trace == [(0.0, 0.0), (0.0, 60)]
        assert buf.try_allocate("b", 40)  # exactly full
        assert buf.occupancy_bytes == 100

    def test_try_allocate_refuses_when_full(self):
        buf = SramBuffer(Simulator(), "b", 100, trace=True)
        assert buf.try_allocate("a", 80)
        trace = list(buf.occupancy_trace)
        assert not buf.try_allocate("b", 30)
        assert buf.occupancy_bytes == 80
        assert buf.occupancy_trace == trace
        buf.commit("a")
        assert buf.try_read("a")  # frees the space ...
        assert buf.try_allocate("b", 30)  # ... so it fits now
        assert buf.occupancy_bytes == 30

    def test_try_allocate_rejects_what_can_never_fit(self):
        buf = SramBuffer(Simulator(), "b", 100)
        with pytest.raises(BufferError, match="b: entry 'huge' \\(101 B\\) exceeds"):
            buf.try_allocate("huge", 101)
        assert buf.occupancy_bytes == 0

    def test_try_allocate_rejects_a_double_write(self):
        buf = SramBuffer(Simulator(), "b", 100)
        assert buf.try_allocate("a", 10)
        with pytest.raises(BufferError, match="b: double write to entry 'a'"):
            buf.try_allocate("a", 10)
        assert buf.occupancy_bytes == 10

    @pytest.mark.parametrize("nbytes, valid_count", [(-1.0, 1), (10.0, 0)])
    def test_try_allocate_rejects_bad_args(self, nbytes, valid_count):
        buf = SramBuffer(Simulator(), "b", 100)
        with pytest.raises(ValueError):
            buf.try_allocate("a", nbytes, valid_count)

    def test_try_read_refuses_absent_and_uncommitted_entries(self):
        buf = SramBuffer(Simulator(), "b", 100)
        assert not buf.try_read("a")
        assert buf.try_allocate("a", 10, valid_count=1)
        assert not buf.try_read("a")
        assert buf.occupancy_bytes == 10  # the refused read took nothing
        buf.commit("a")
        assert buf.try_read("a")
        assert buf.occupancy_bytes == 0

    def test_try_read_counts_down_the_valid_counter(self):
        buf = SramBuffer(Simulator(), "b", 100)
        assert buf.try_allocate("a", 10, valid_count=2)
        buf.commit("a")
        assert buf.try_read("a", decrement=False)
        assert buf.try_read("a")
        assert buf.occupancy_bytes == 10
        assert buf.try_read("a")
        assert buf.occupancy_bytes == 0
        assert not buf.try_read("a")

    def test_steps_wake_the_waiting_phases(self):
        """A waiting ``allocate`` resumes when ``try_read`` frees space;
        a waiting ``read`` when ``commit`` publishes the entry."""
        sim = Simulator()
        buf = SramBuffer(sim, "b", 100)
        log = []

        def producer():
            yield from buf.allocate("b", 50)
            log.append(("allocated", sim.now))

        def consumer():
            yield from buf.read("c")
            log.append(("read", sim.now))

        def stepper():
            assert buf.try_allocate("a", 60)
            buf.commit("a")
            yield Timeout(2.0)
            assert buf.try_read("a")
            assert buf.try_allocate("c", 10)
            yield Timeout(1.0)
            buf.commit("c")

        sim.process(stepper())
        sim.process(producer())
        sim.process(consumer())
        sim.run()
        assert log == [("allocated", 2.0), ("read", 3.0)]
        assert buf.write_stall_s == 2.0
        assert buf.read_stall_s == 3.0


@settings(max_examples=25, deadline=None)
@given(
    st.lists(
        st.tuples(st.floats(1, 50), st.integers(1, 3)),
        min_size=1,
        max_size=20,
    )
)
def test_conservation_property(entries):
    """Bytes written == bytes released once all valid counts drain."""
    sim = Simulator()
    buf = SramBuffer(sim, "b", 1e9)

    def producer():
        for i, (size, count) in enumerate(entries):
            yield from buf.allocate(f"k{i}", size, valid_count=count)
            buf.commit(f"k{i}")

    def consumer():
        for i, (size, count) in enumerate(entries):
            for _ in range(count):
                yield from buf.read(f"k{i}")

    sim.process(producer())
    sim.process(consumer())
    sim.run()
    assert buf.occupancy_bytes == pytest.approx(0.0)
