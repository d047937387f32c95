"""EnergyMeter.charge against the per-component reference it replaced.

``charge`` charges one pipeline interval a record of ``(component,
joules)`` parts, built once per shape.  The oracle below charges each
part on its own, exactly as the meter once did; every total must come
out identical under ``==``, however records are shared and however
reads, charges and record builds interleave.
"""

from collections import defaultdict

import pytest
from hypothesis import given, settings, strategies as st

from repro.sim.energy import EnergyMeter, EnergyRecord

US = 1e-6
GROUPS = ("mem", "comp", "net")
COMPONENTS = ("act", "mov-mem", "tsvs", "io", "mov-si", "sram-w")


class PerComponentMeter:
    """Reference meter: one ``add`` per (component, joules) part."""

    def __init__(self):
        self.totals = defaultdict(lambda: defaultdict(float))

    def add(self, group, component, joules, start_s, end_s):
        if joules < 0:
            raise ValueError("joules must be non-negative")
        if end_s < start_s:
            raise ValueError("end must not precede start")
        self.totals[group][component] += joules

    def charge(self, group, start_s, end_s, parts):
        for component, joules in parts:
            self.add(group, component, joules, start_s, end_s)

    def breakdown(self):
        return {g: dict(c) for g, c in self.totals.items()}

    def total_j(self, group=None):
        """Left-to-right sums: a group's parts in charge order, then the
        groups in first-charge order."""
        if group is None:
            total = 0
            for name in self.totals:
                total += self.total_j(name)
            return total
        total = 0
        for joules in self.totals.get(group, {}).values():
            total += joules
        return total


joules_st = st.one_of(st.just(0.0), st.floats(min_value=1e-15, max_value=1e-6))


@st.composite
def intervals(draw):
    """A (start, end) pair: zero-length or up to 40 us long."""
    start_s = draw(st.floats(0.0, 50 * US))
    if draw(st.booleans()):
        return start_s, start_s
    return start_s, start_s + draw(st.floats(min_value=1e-12, max_value=40 * US))


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


def _assert_reads_match(meter, oracle):
    assert meter.breakdown() == oracle.breakdown()
    for group in GROUPS:
        assert meter.total_j(group) == oracle.total_j(group)
    assert meter.total_j() == oracle.total_j()


@settings(deadline=None)
@given(charge_sequences())
def test_charge_matches_per_component_reference(charges):
    """Every read between charges, and after the last, equals the
    oracle's.  A shape's record is built when it is first charged, as
    the engines build theirs."""
    pool, sequence = charges
    meter = EnergyMeter()
    oracle = PerComponentMeter()
    records = {}
    for group, start_s, end_s, shape in sequence:
        _assert_reads_match(meter, oracle)
        if shape not in records:
            records[shape] = EnergyRecord(pool[shape])
        meter.charge(group, start_s, end_s, records[shape])
        oracle.charge(group, start_s, end_s, pool[shape])
    _assert_reads_match(meter, oracle)


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
    that ends before it starts when it is charged; either way the
    totals are untouched, whether every group's total was read first
    or not."""
    meter = EnergyMeter()
    clean = EnergyMeter()
    for m in (meter, clean):
        m.charge("mem", 0.5e-6, 2.5e-6, EnergyRecord([("act", 3e-9), ("tsvs", 1e-9)]))
    if read_first:
        for group in GROUPS:
            meter.total_j(group)
    if raises_at == "record":
        with pytest.raises(ValueError, match=match):
            EnergyRecord(parts)
    else:
        record = EnergyRecord(parts)
        with pytest.raises(ValueError, match=match):
            meter.charge("mem", start_s, end_s, record)
    assert meter.breakdown() == clean.breakdown()
    assert meter.total_j() == clean.total_j()


def test_reading_an_uncharged_group_adds_no_group():
    """``total_j`` of a group never charged reads 0 and leaves
    ``breakdown()`` as it was."""
    meter = EnergyMeter()
    meter.charge("mem", 0.0, 1e-6, EnergyRecord([("act", 3e-9), ("io", 0.0)]))
    assert [meter.total_j(group) for group in GROUPS] == [3e-9, 0, 0]
    assert meter.total_j() == 3e-9
    assert meter.breakdown() == {"mem": {"act": 3e-9, "io": 0.0}}


@pytest.mark.parametrize("num_parts", range(7))
def test_each_charge_adds_every_part(num_parts):
    """Charging one record n times adds each of its parts n times, in
    part order, zero parts included, whatever the record's parts."""
    meter = EnergyMeter()
    parts = [(c, 1e-9 * (i % 2)) for i, c in enumerate(COMPONENTS[:num_parts])]
    record = EnergyRecord(parts)
    expected = dict.fromkeys(COMPONENTS[:num_parts], 0.0)
    for n in range(1, 6):
        meter.charge("comp", n * US, (n + 0.5) * US, record)
        for component, joules in parts:
            expected[component] += joules
        assert meter.breakdown() == {"comp": expected}
        assert list(meter.breakdown()["comp"]) == list(COMPONENTS[:num_parts])
    assert meter.total_j("comp") == meter.total_j() == 5e-9 * (num_parts // 2)


def test_record_holds_its_own_copy_of_the_parts():
    """A record keeps its parts as built, in order, from any iterable:
    changing the caller's list later changes no charge."""
    parts = [("act", 3e-9), ("io", 0.0)]
    record = EnergyRecord(parts)
    parts.append(("tsvs", 1.0))
    parts[0] = ("act", 5.0)
    assert record.parts == (("act", 3e-9), ("io", 0.0))
    assert EnergyRecord(iter(record.parts)).parts == record.parts
    meter = EnergyMeter()
    meter.charge("mem", 0.0, US, record)
    assert meter.breakdown() == {"mem": {"act": 3e-9, "io": 0.0}}
