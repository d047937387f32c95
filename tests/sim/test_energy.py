"""EnergyMeter.charge against the per-component reference it replaced.

``charge`` charges one pipeline interval a record of ``(component,
joules)`` parts, built once per shape by ``record``, and ``power_trace``
bins the logged intervals in a single walk over each one's time bins.
The oracle below charges each part on its own, walking the bins again
every time, exactly as the meter once did; every total and every power
bin must come out identical under ``==``, however records are shared
and however reads, charges and record builds interleave.
"""

from collections import defaultdict

import pytest
from hypothesis import given, settings, strategies as st

from repro.sim.energy import EnergyMeter
from repro.sim.kernel import Simulator

BIN_S = 1e-6
GROUPS = ("mem", "comp", "net")
COMPONENTS = ("act", "mov-mem", "tsvs", "io", "mov-si", "sram-w")


class PerComponentMeter:
    """Reference meter: one ``add`` per (component, joules) part."""

    def __init__(self, bin_s: float):
        self.bin_s = bin_s
        self.totals = defaultdict(lambda: defaultdict(float))
        self._bins = defaultdict(lambda: defaultdict(float))

    def add(self, group, component, joules, start_s, end_s):
        if joules < 0:
            raise ValueError("joules must be non-negative")
        if end_s < start_s:
            raise ValueError("end must not precede start")
        self.totals[group][component] += joules
        if joules == 0:
            return
        if end_s == start_s:
            self._bins[group][int(start_s / self.bin_s)] += joules
            return
        first = int(start_s / self.bin_s)
        last = int(end_s / self.bin_s)
        duration = end_s - start_s
        for index in range(first, last + 1):
            lo = max(start_s, index * self.bin_s)
            hi = min(end_s, (index + 1) * self.bin_s)
            if hi > lo:
                self._bins[group][index] += joules * (hi - lo) / duration

    def charge(self, group, start_s, end_s, parts):
        for component, joules in parts:
            self.add(group, component, joules, start_s, end_s)

    def breakdown(self):
        return {g: dict(c) for g, c in self.totals.items()}

    def power_trace(self, group, until_s):
        num_bins = max(1, int(until_s / self.bin_s) + 1)
        times = [i * self.bin_s for i in range(num_bins)]
        watts = [self._bins[group].get(i, 0.0) / self.bin_s for i in range(num_bins)]
        return times, watts


joules_st = st.one_of(st.just(0.0), st.floats(min_value=1e-15, max_value=1e-6))


@st.composite
def intervals(draw):
    """A (start, end) pair: zero-length, ending on a bin edge, or free,
    spanning up to 40 bins; starts on a bin edge or inside a bin."""
    start_bin = draw(st.integers(0, 50))
    if draw(st.booleans()):
        start_s = start_bin * BIN_S
    else:
        start_s = (start_bin + draw(st.floats(0.0, 1.0, exclude_max=True))) * BIN_S
    kind = draw(st.sampled_from(("instant", "edge", "free")))
    if kind == "instant":
        return start_s, start_s
    if kind == "edge":
        end_s = (start_bin + draw(st.integers(1, 40))) * BIN_S
        return start_s, max(start_s, end_s)
    return start_s, start_s + draw(st.floats(min_value=1e-12, max_value=40 * BIN_S))


@st.composite
def shapes(draw):
    """One energy shape's parts: 1-6 distinct components, zeros allowed."""
    components = draw(
        st.lists(st.sampled_from(COMPONENTS), min_size=1, max_size=6, unique=True)
    )
    return [(component, draw(joules_st)) for component in components]


@st.composite
def charge_sequences(draw):
    """1-12 charges, each of a shape drawn from a pool of 1-12: every
    charge may have a shape of its own, or shapes may repeat, within a
    group and across groups."""
    groups = GROUPS[: draw(st.integers(1, 3))]
    pool = draw(st.lists(shapes(), min_size=1, max_size=12))
    sequence = []
    for _ in range(draw(st.integers(1, 12))):
        start_s, end_s = draw(intervals())
        shape = draw(st.integers(0, len(pool) - 1))
        sequence.append((draw(st.sampled_from(groups)), start_s, end_s, shape))
    return pool, sequence


def _snapshot(meter, until_s):
    return meter.breakdown(), {g: meter.power_trace(g, until_s) for g in GROUPS}


def _logged(meter):
    """The meter's not-yet-binned charges, per group."""
    return {group: list(log) for group, log in meter._log.items()}


def _assert_reads_match(meter, oracle, until_s):
    assert meter.breakdown() == oracle.breakdown()
    for group in GROUPS:
        assert meter.power_trace(group, until_s) == oracle.power_trace(group, until_s)
    # A trace cut short of the last charge reads the same prefix.
    for group in GROUPS:
        assert meter.power_trace(group, 5 * BIN_S) == oracle.power_trace(group, 5 * BIN_S)


@settings(deadline=None)
@given(charge_sequences(), st.data())
def test_charge_matches_per_component_reference(charges, data):
    """Traces read after a random prefix of the charges, then again
    after more charges, all equal the oracle's.  A shape's record is
    built when it is first charged, as the engines build theirs."""
    pool, sequence = charges
    meter = EnergyMeter(Simulator(), bin_s=BIN_S)
    oracle = PerComponentMeter(BIN_S)
    records = {}
    until_s = max(end for _, _, end, _ in sequence) + 3 * BIN_S
    reads = set(
        data.draw(st.lists(st.integers(0, len(sequence) - 1), max_size=3), label="reads")
    )
    for index, (group, start_s, end_s, shape) in enumerate(sequence):
        if index in reads:
            _assert_reads_match(meter, oracle, until_s)
        if shape not in records:
            records[shape] = meter.record(pool[shape])
        meter.charge(group, start_s, end_s, records[shape])
        oracle.charge(group, start_s, end_s, pool[shape])
    assert meter.records == [records[shape] for shape in records]
    _assert_reads_match(meter, oracle, until_s)
    # Every charge is binned now; reading again changes nothing.
    assert all(not log for log in _logged(meter).values())
    _assert_reads_match(meter, oracle, until_s)


@pytest.mark.parametrize("read_first", [False, True])
@pytest.mark.parametrize(
    "start_s, end_s, parts, raises_at, match",
    [
        (1e-6, 3e-6, [("act", 1e-9), ("io", -1e-12)], "record", "non-negative"),
        (3e-6, 1e-6, [("act", 1e-9), ("io", 2e-9)], "charge", "precede"),
        (2e-6, 2e-6, [("act", 0.0), ("io", -1.0)], "record", "non-negative"),
    ],
)
def test_invalid_charge_raises_and_changes_nothing(
    start_s, end_s, parts, raises_at, match, read_first
):
    """A negative part raises when its record is built, an interval
    that ends before it starts when it is charged; either way totals,
    bins and the log are untouched."""
    meter = EnergyMeter(Simulator(), bin_s=BIN_S)
    clean = EnergyMeter(Simulator(), bin_s=BIN_S)
    for m in (meter, clean):
        m.charge("mem", 0.5e-6, 2.5e-6, m.record([("act", 3e-9), ("tsvs", 1e-9)]))
    if read_first:
        meter.power_trace("mem", 5e-6)
    logged = _logged(meter)
    if raises_at == "record":
        with pytest.raises(ValueError, match=match):
            meter.record(parts)
        assert len(meter.records) == 1
    else:
        record = meter.record(parts)
        with pytest.raises(ValueError, match=match):
            meter.charge("mem", start_s, end_s, record)
    assert _logged(meter) == logged
    assert _snapshot(meter, 5e-6) == _snapshot(clean, 5e-6)


@pytest.mark.parametrize("num_parts", range(7))
def test_each_charge_logs_three_floats(num_parts):
    """Charging one record n times grows the unread log by exactly 3n
    floats (start, end, record index), whatever the record's parts."""
    meter = EnergyMeter(Simulator(), bin_s=BIN_S)
    meter.record([("act", 1e-9)])  # so the charged record's index is 1
    parts = [(c, 1e-9 * (i % 2)) for i, c in enumerate(COMPONENTS[:num_parts])]
    record = meter.record(parts)
    for n in range(1, 6):
        meter.charge("comp", n * BIN_S, (n + 0.5) * BIN_S, record)
        assert len(meter._log["comp"]) == 3 * n
    assert list(meter._log["comp"])[-3:] == [5 * BIN_S, 5.5 * BIN_S, 1.0]


def test_trace_past_the_last_bin_reads_zero():
    meter = EnergyMeter(Simulator(), bin_s=BIN_S)
    meter.charge("net", 0.0, 0.0, meter.record([("io", 2e-6)]))
    times, watts = meter.power_trace("net", 3.5e-6)
    assert len(times) == 4
    assert watts == [2e-6 / BIN_S, 0.0, 0.0, 0.0]
    assert meter.power_trace("comp", 1e-6)[1] == [0.0, 0.0]
