"""SRAM buffers: valid counters, back-pressure, occupancy conservation."""

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
        yield from buf.write("a", 100, valid_count=1)
        yield from buf.read("a")

    buffer = run(scenario)
    assert buffer.occupancy_bytes == 0


def test_valid_count_two_consumers():
    def scenario(sim, buf):
        yield from buf.write("a", 100, valid_count=2)
        yield from buf.read("a")
        assert buf.occupancy_bytes == 100  # still one consumer pending
        yield from buf.read("a")
        assert buf.occupancy_bytes == 0

    run(scenario)


def test_read_without_decrement_keeps_entry():
    def scenario(sim, buf):
        yield from buf.write("a", 50, valid_count=1)
        yield from buf.read("a", decrement=False)
        assert buf.contains("a")
        yield from buf.read("a")
        assert not buf.contains("a")

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
        yield from buf.write("x", 10)

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
        yield from buf.write("a", 80)
        yield from buf.write("b", 80)  # must wait for space
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
        yield from buf.write("huge", 2000)

    with pytest.raises(BufferError, match="exceeds buffer"):
        run(scenario, capacity=1000)


def test_double_write_rejected():
    def scenario(sim, buf):
        yield from buf.write("a", 10)
        yield from buf.write("a", 10)

    with pytest.raises(BufferError, match="double write"):
        run(scenario)


def test_over_consume_rejected():
    def scenario(sim, buf):
        yield from buf.write("a", 10, valid_count=1)
        yield from buf.read("a")
        # Entry is gone; a second read should block forever (deadlock),
        # not over-consume -- so this scenario just never completes.
        if buf.contains("a"):
            raise AssertionError("entry should be released")

    run(scenario)


def test_commit_without_allocate_rejected():
    sim = Simulator()
    buf = SramBuffer(sim, "b", 100)
    with pytest.raises(BufferError, match="unallocated"):
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


def test_occupancy_trace_records_changes():
    def scenario(sim, buf):
        yield from buf.write("a", 60)
        yield from buf.read("a")

    buffer = run(scenario, trace=True)
    occupancies = [b for _, b in buffer.occupancy_trace]
    assert 60 in occupancies and occupancies[-1] == 0


def test_occupancy_trace_kept_only_when_asked():
    def scenario(sim, buf):
        yield from buf.write("a", 60)
        yield from buf.read("a")

    buffer = run(scenario)
    assert buffer.occupancy_trace is None
    assert buffer.occupancy_bytes == 0


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
            yield from buf.write(f"k{i}", size, valid_count=count)

    def consumer():
        for i, (size, count) in enumerate(entries):
            for _ in range(count):
                yield from buf.read(f"k{i}")

    sim.process(producer())
    sim.process(consumer())
    sim.run()
    assert buf.occupancy_bytes == pytest.approx(0.0)
