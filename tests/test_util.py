"""Tests for repro.util: units, tables, Pareto helpers, statistics."""

from math import inf, nextafter, ulp

import pytest
from hypothesis import given, settings, strategies as st

from repro.util.pareto import dominates, pareto_front
from repro.util.stats import repeat_add, repeat_add_below
from repro.util.tables import Table, format_cell
from repro.util.units import fmt_bytes, fmt_energy, fmt_power, fmt_time


class TestUnits:
    def test_fmt_bytes_gb(self):
        assert fmt_bytes(256e9) == "256.0 GB"

    def test_fmt_bytes_small(self):
        assert fmt_bytes(512) == "512 B"

    def test_fmt_time_ms(self):
        assert fmt_time(1.4e-3) == "1.40 ms"

    def test_fmt_time_us(self):
        assert fmt_time(42e-6) == "42.00 us"

    def test_fmt_time_ns(self):
        assert fmt_time(8e-9) == "8.0 ns"

    def test_fmt_power_kw(self):
        assert fmt_power(2800) == "2.80 kW"

    def test_fmt_energy_pj(self):
        assert fmt_energy(3.44e-12) == "3.44 pJ"

    def test_fmt_energy_j(self):
        assert fmt_energy(4.2) == "4.20 J"


class TestTable:
    def test_render_contains_headers_and_rows(self):
        table = Table("T", ["a", "b"])
        table.add_row(["x", 1.5])
        out = table.render()
        assert "T" in out and "a" in out and "1.5" in out

    def test_row_width_mismatch_raises(self):
        table = Table("T", ["a", "b"])
        with pytest.raises(ValueError):
            table.add_row(["only-one"])

    def test_format_cell_float_precision(self):
        assert format_cell(0.123456) == "0.1235"

    def test_format_cell_bool(self):
        assert format_cell(True) == "yes"

    def test_format_cell_scientific(self):
        assert "e" in format_cell(1.5e-7)


class TestPareto:
    def test_dominates_strict(self):
        assert dominates((1, 1), (2, 2))
        assert not dominates((2, 2), (1, 1))

    def test_dominates_requires_strict_improvement(self):
        assert not dominates((1, 1), (1, 1))

    def test_dominates_length_mismatch(self):
        with pytest.raises(ValueError):
            dominates((1,), (1, 2))

    def test_front_simple(self):
        items = [(1, 3), (2, 2), (3, 1), (3, 3)]
        front = pareto_front(items, lambda x: x)
        assert (3, 3) not in front
        assert len(front) == 3

    def test_front_dedupes_ties(self):
        items = [(1, 1), (1, 1)]
        assert len(pareto_front(items, lambda x: x)) == 1

    @given(
        st.lists(
            st.tuples(
                st.integers(min_value=0, max_value=20),
                st.integers(min_value=0, max_value=20),
            ),
            min_size=1,
            max_size=40,
        )
    )
    def test_front_members_are_undominated(self, items):
        front = pareto_front(items, lambda x: x)
        assert front, "front is never empty for non-empty input"
        for member in front:
            assert not any(dominates(other, member) for other in items)

    @given(
        st.lists(
            st.tuples(st.integers(0, 10), st.integers(0, 10)),
            min_size=1,
            max_size=30,
        )
    )
    def test_every_item_dominated_by_or_on_front(self, items):
        front = pareto_front(items, lambda x: x)
        for item in items:
            covered = item in front or any(
                dominates(f, item) or tuple(f) == tuple(item) for f in front
            )
            assert covered


class TestStats:
    """Percentile/mean helpers: report digests pin these floats."""

    def test_percentiles_single_sort_matches_per_quantile(self):
        import random

        from repro.util.stats import percentile, percentiles

        rng = random.Random(9)
        values = [rng.expovariate(1.0) for _ in range(257)]
        qs = (0.0, 25.0, 50.0, 95.0, 99.0, 100.0)
        batch = percentiles(values, qs)
        assert batch == [percentile(values, q) for q in qs]
        assert batch == sorted(batch)
        assert batch[0] == min(values) and batch[-1] == max(values)

    def test_percentile_interpolation_and_presorted(self):
        from repro.util.stats import percentile

        values = [10.0, 20.0, 30.0, 40.0]
        assert percentile(values, 50) == 25.0  # linear interpolation
        assert percentile([40.0, 10.0, 30.0, 20.0], 50) == 25.0
        assert percentile(values, 50, presorted=True) == 25.0

    def test_percentiles_match_reference_interpolation(self):
        """Closest ranks weighted by the fractional rank, bit-for-bit,
        on an input large enough to have taken the old numpy sort."""
        import random

        from repro.util.stats import percentiles

        rng = random.Random(21)
        values = [rng.uniform(-1e9, 1e9) for _ in range(500)]
        qs = (0.0, 1.0, 33.3, 50.0, 90.0, 99.9, 100.0)
        ordered = sorted(values)
        expected = []
        for q in qs:
            rank = (len(ordered) - 1) * q / 100.0
            lo = int(rank)
            hi = min(lo + 1, len(ordered) - 1)
            frac = rank - lo
            expected.append(ordered[lo] * (1.0 - frac) + ordered[hi] * frac)
        assert percentiles(values, qs) == expected

    def test_percentiles_leave_input_unmodified(self):
        from repro.util.stats import percentiles

        values = [3.0, 1.0, 2.0, 5.0, 4.0]
        snapshot = list(values)
        assert percentiles(values, (50.0,)) == [3.0]
        assert values == snapshot
        assert percentiles(tuple(values), (0.0, 100.0)) == [1.0, 5.0]

    def test_edge_cases(self):
        from repro.util.stats import mean, percentile, percentiles

        assert percentiles([], (50.0, 99.0)) == [0.0, 0.0]
        assert percentile([7.0], 95) == 7.0
        assert mean([]) == 0.0
        assert mean([1.0, 2.0, 4.0]) == pytest.approx(7.0 / 3.0)
        with pytest.raises(ValueError):
            percentile([1.0], 101.0)
        with pytest.raises(ValueError):
            percentile([1.0], -0.5)

    def test_sums_are_left_folds_on_every_interpreter(self):
        """The builtin ``sum()`` compensates float rounding since
        CPython 3.12 (it gives 1.0 here); reports must not."""
        from repro.util.stats import left_sum, mean

        values = [1e16, 1.0, -1e16]
        assert left_sum(values) == (1e16 + 1.0) - 1e16 == 0.0
        assert left_sum(iter(values)) == 0.0
        assert mean(values) == 0.0
        assert left_sum([]) == 0


def _added(x, c, n):
    """The reference: ``x`` after ``n`` times ``x += c``, one at a time."""
    for _ in range(n):
        x += c
    return x


def _added_below(x, c, n, limit, inclusive):
    """The reference for :func:`repeat_add_below`: the loop that checks
    the limit before every add."""
    taken = 0
    while taken < n and (x <= limit if inclusive else x < limit):
        x += c
        taken += 1
    return x, taken


_SIGNIFICAND = st.floats(min_value=1.0, max_value=2.0, exclude_max=True)


@st.composite
def _repeated_adds(draw):
    """``(x, c, n)`` at the closed form's edges: zeros, subnormals,
    half-ulp ties from odd and even starts, and binade crossings."""
    kind = draw(st.sampled_from(("zero", "subnormal", "tie", "crossing", "any")))
    n = draw(st.integers(min_value=0, max_value=600))
    if kind == "subnormal":
        # Below 2**-1021 the ulp is 5e-324 throughout.
        x = draw(st.integers(0, 2**52)) * 5e-324
        return x, draw(st.integers(0, 2**20)) * 5e-324, n
    x = draw(_SIGNIFICAND) * 2.0 ** draw(st.integers(-40, 40))
    if kind == "zero":
        return (0.0, x, n) if draw(st.booleans()) else (x, 0.0, n)
    if kind == "tie":
        # An odd number of half ulps: every add inside x's binade ties.
        return x, (2 * draw(st.integers(0, 2**12)) + 1) * ulp(x) / 2, n
    c = x * draw(_SIGNIFICAND) * 2.0 ** -draw(st.integers(0, 45))
    if kind == "crossing":
        # A few adds below a power of two, so the run crosses it.
        top = 2.0 ** draw(st.integers(-40, 40))
        c = top * draw(_SIGNIFICAND) * 2.0 ** -draw(st.integers(2, 45))
        x = max(0.0, top - draw(st.integers(0, 40)) * c - draw(_SIGNIFICAND) * c)
    return x, c, n


class TestRepeatAdd:
    """The closed forms against the loop they replace, bit for bit."""

    @settings(derandomize=True, max_examples=500, deadline=None)
    @given(_repeated_adds())
    def test_repeat_add_is_the_loop(self, case):
        x, c, n = case
        assert repeat_add(x, c, n).hex() == _added(x, c, n).hex(), case

    @settings(derandomize=True, max_examples=500, deadline=None)
    @given(_repeated_adds(), st.data())
    def test_repeat_add_below_is_the_loop(self, case, data):
        """Limits at a value the loop reaches, one ulp either side of
        one, anywhere on the way, below the start and at infinity; each
        checked as ``x >= limit`` and as ``x > limit``."""
        x, c, n = case
        reached = data.draw(st.integers(0, n).map(lambda j: _added(x, c, j)))
        limit = data.draw(st.one_of(
            st.just(reached),
            st.sampled_from((-inf, inf)).map(lambda way: nextafter(reached, way)),
            st.floats(min_value=0.0, max_value=_added(x, c, n) + 1.0),
            st.just(inf),
        ))
        for inclusive in (False, True):
            got = repeat_add_below(x, c, n, limit, inclusive=inclusive)
            want = _added_below(x, c, n, limit, inclusive)
            assert (got[0].hex(), got[1]) == (want[0].hex(), want[1]), (
                case, limit, inclusive,
            )

    def test_edges(self):
        """No adds, an addend lost below half an ulp, and a tie from an
        odd significand, which settles on the first add."""
        assert repeat_add(1.5, 2.0, 0) == 1.5
        assert repeat_add_below(1.5, 2.0, 0, inf) == (1.5, 0)
        assert repeat_add(1.0, ulp(1.0) / 4, 10**9) == 1.0
        odd = nextafter(1.0, 2.0)
        tie = 3 * ulp(1.0) / 2
        assert repeat_add(odd, tie, 1001) == _added(odd, tie, 1001)
        assert repeat_add_below(0.0, 1.0, 10, 3.0) == (3.0, 3)
        assert repeat_add_below(0.0, 1.0, 10, 3.0, inclusive=True) == (4.0, 4)
