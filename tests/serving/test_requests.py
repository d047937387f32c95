"""Traffic generation: seeded determinism, rates, mixes, bounds."""

import hashlib
from functools import partial

import pytest

from repro.models.llama3 import LLAMA3_8B, LLAMA3_70B
from repro.serving.requests import (
    ArrivalProcess,
    ArrivalTrace,
    Request,
    TraceRow,
    TrafficClass,
    TrafficSpec,
    reasoning_traffic,
    truncated_lognormal_mean,
)
from repro.serving.tenancy import TenantSpec


def generate(duration_s, **overrides):
    """The requests of a ``TrafficSpec`` over ``duration_s`` (reasoning
    traffic at 2 rps, seed 123, unless overridden)."""
    knobs = dict(
        classes=(reasoning_traffic(LLAMA3_70B),),
        rate_rps=2.0,
        seed=123,
    )
    knobs.update(overrides)
    return TrafficSpec(duration_s=duration_s, **knobs).requests(LLAMA3_70B)


class TestDeterminism:
    def test_same_seed_same_trace(self):
        a = generate(50.0)
        b = generate(50.0)
        assert a == b

    def test_different_seed_different_trace(self):
        a = generate(50.0, seed=1)
        b = generate(50.0, seed=2)
        assert a != b

    def test_bursty_deterministic_too(self):
        a = generate(50.0, process=ArrivalProcess.BURSTY)
        b = generate(50.0, process=ArrivalProcess.BURSTY)
        assert a == b


class TestArrivals:
    def test_sorted_unique_ids_in_window(self):
        requests = generate(100.0)
        times = [r.arrival_s for r in requests]
        assert times == sorted(times)
        assert all(0.0 <= t < 100.0 for t in times)
        assert len({r.request_id for r in requests}) == len(requests)

    @pytest.mark.parametrize("process", list(ArrivalProcess))
    def test_average_rate_respected(self, process):
        duration = 500.0
        requests = generate(duration, process=process, rate_rps=2.0)
        rate = len(requests) / duration
        assert rate == pytest.approx(2.0, rel=0.25)

    def test_bursty_is_burstier(self):
        """Dispersion of per-window counts exceeds Poisson's (index of
        dispersion 1)."""

        def dispersion(process):
            requests = generate(400.0, process=process, rate_rps=4.0, seed=9)
            bins = [0] * 400
            for r in requests:
                bins[int(r.arrival_s)] += 1
            mean = sum(bins) / len(bins)
            var = sum((b - mean) ** 2 for b in bins) / len(bins)
            return var / mean

        assert dispersion(ArrivalProcess.BURSTY) > 1.5 * dispersion(
            ArrivalProcess.POISSON
        )


class TestLengthsAndMix:
    def test_lengths_clamped(self):
        cls = TrafficClass(
            LLAMA3_70B, prompt_mean=512, decode_mean=256,
            min_len=64, max_prompt=1024, max_decode=512,
        )
        requests = generate(200.0, classes=(cls,))
        assert requests
        for r in requests:
            assert 64 <= r.prompt_len <= 1024
            assert 64 <= r.decode_len <= 512

    def test_mean_length_near_configured_mean(self):
        requests = generate(400.0, rate_rps=4.0)
        decodes = [r.decode_len for r in requests]
        assert sum(decodes) / len(decodes) == pytest.approx(4096, rel=0.25)

    def test_realized_mean_matches_truncated_lognormal(self):
        """The docstring claim ('offered load = rate * expected length')
        must hold numerically: the seeded sample mean pins to the
        analytic truncated-lognormal mean, even with tight bounds."""
        cls = TrafficClass(
            LLAMA3_70B, prompt_mean=2048, decode_mean=4096,
            min_len=256, max_decode=8192, max_prompt=8192,
        )
        requests = generate(800.0, classes=(cls,), rate_rps=8.0)
        assert len(requests) > 4000
        decodes = [r.decode_len for r in requests]
        prompts = [r.prompt_len for r in requests]
        assert sum(decodes) / len(decodes) == pytest.approx(
            cls.expected_decode_len, rel=0.04
        )
        assert sum(prompts) / len(prompts) == pytest.approx(
            cls.expected_prompt_len, rel=0.04
        )
        # With a bound near the mean, the truncated mean is visibly
        # below the configured one -- the old docstring's claim.
        assert cls.expected_decode_len < 4096

    def test_resampling_leaves_no_mass_on_bounds(self):
        """Clamping used to pile ~7% of draws exactly onto max_decode;
        resampling leaves only the rounding residue at the edges."""
        cls = TrafficClass(
            LLAMA3_70B, prompt_mean=2048, decode_mean=4096,
            min_len=256, max_decode=8192,
        )
        requests = generate(400.0, classes=(cls,), rate_rps=8.0)
        at_edge = sum(r.decode_len == 8192 for r in requests) / len(requests)
        assert at_edge < 0.01

    def test_truncated_mean_loose_bounds_is_configured_mean(self):
        assert truncated_lognormal_mean(
            1024, 0.6, 1, 10**9
        ) == pytest.approx(1024, rel=1e-6)

    def test_truncated_mean_validation(self):
        with pytest.raises(ValueError):
            truncated_lognormal_mean(1024, 0.6, 0, 8192)
        with pytest.raises(ValueError):
            truncated_lognormal_mean(1024, 0.0, 16, 8192)
        with pytest.raises(ValueError):
            truncated_lognormal_mean(1024, 0.6, 8192, 16)

    def test_priority_stamped_from_class(self):
        vip = TrafficClass(LLAMA3_70B, priority=2)
        requests = generate(50.0, classes=(vip,))
        assert requests
        assert all(r.priority == 2 for r in requests)

    def test_model_mix_follows_weights(self):
        classes = (
            TrafficClass(LLAMA3_70B, weight=3.0),
            TrafficClass(LLAMA3_8B, weight=1.0),
        )
        requests = generate(400.0, classes=classes, rate_rps=4.0)
        share = sum(r.model.name == LLAMA3_70B.name for r in requests) / len(requests)
        assert share == pytest.approx(0.75, abs=0.08)


class TestPrefixGroups:
    def shared_class(self, **overrides):
        defaults = dict(
            prompt_mean=1024, prefix_share_prob=0.9, prefix_fanout=4,
            prefix_frac=0.75,
        )
        defaults.update(overrides)
        return TrafficClass(LLAMA3_70B, **defaults)

    def test_disabled_by_default_and_stream_unchanged(self):
        """share_prob = 0 must not touch the RNG: arrivals and lengths
        are identical to a generator without any prefix knobs."""
        plain = generate(50.0)
        explicit = generate(50.0, classes=(
            TrafficClass(
                LLAMA3_70B, prompt_mean=2048, decode_mean=4096,
                prefix_share_prob=0.0,
            ),
        ))
        assert all(r.prefix_id is None and r.prefix_len == 0 for r in plain)
        assert [(r.arrival_s, r.prompt_len, r.decode_len) for r in plain] == [
            (r.arrival_s, r.prompt_len, r.decode_len) for r in explicit
        ]

    def test_arrivals_unchanged_when_sharing_enabled(self):
        """The prefix coin is drawn after the lengths, so arrival times
        (drawn up front) and the first request's lengths never move."""
        off = generate(50.0)
        on = generate(50.0, classes=(self.shared_class(
            prompt_mean=2048, decode_mean=4096),))
        assert [r.arrival_s for r in off] == [r.arrival_s for r in on]
        assert (off[0].prompt_len, off[0].decode_len) == (
            on[0].prompt_len, on[0].decode_len
        )

    def test_groups_share_prefix_and_respect_fanout(self):
        requests = generate(200.0, classes=(self.shared_class(),), rate_rps=4.0)
        groups: dict[int, list] = {}
        for r in requests:
            assert 0 <= r.prefix_len <= r.prompt_len
            if r.prefix_id is not None:
                assert r.prefix_len > 0
                groups.setdefault(r.prefix_id, []).append(r)
        sizes = [len(members) for members in groups.values()]
        assert max(sizes) <= 4  # prefix_fanout caps group size
        assert any(size > 1 for size in sizes)  # sharing actually occurs
        for members in groups.values():
            # Every member shares the group prefix, capped at its own
            # (possibly shorter) prompt.
            longest = max(m.prefix_len for m in members)
            for m in members:
                assert m.prefix_len == min(longest, m.prompt_len)

    def test_deterministic_with_sharing(self):
        a = generate(50.0, classes=(self.shared_class(),))
        b = generate(50.0, classes=(self.shared_class(),))
        assert a == b

    def test_validation(self):
        # The shape knobs are checked where they are declared, so a
        # class and a spec reject the same values when built.
        for build in (self.shared_class, TrafficSpec):
            with pytest.raises(ValueError, match="prefix_share_prob"):
                build(prefix_share_prob=1.5)
            with pytest.raises(ValueError, match="prefix_fanout"):
                build(prefix_fanout=0)
            with pytest.raises(ValueError, match="prefix_frac"):
                build(prefix_frac=0.0)
            with pytest.raises(ValueError, match="prefix_frac"):
                build(prefix_frac=1.2)

    def test_request_prefix_validation(self):
        with pytest.raises(ValueError):
            Request(0, 0.0, LLAMA3_70B, prompt_len=100, decode_len=10,
                    prefix_id=1, prefix_len=200)
        with pytest.raises(ValueError):
            Request(0, 0.0, LLAMA3_70B, prompt_len=100, decode_len=10,
                    prefix_len=50)  # prefix_len without a prefix_id
        ok = Request(0, 0.0, LLAMA3_70B, prompt_len=100, decode_len=10,
                     prefix_id=1, prefix_len=100)
        assert ok.prefix_len == 100


class TestValidation:
    def test_request_workload_roundtrip(self):
        request = Request(0, 1.0, LLAMA3_70B, prompt_len=2048, decode_len=1024)
        workload = request.workload()
        assert workload.prefill_len == 2048
        assert workload.decode_len == 1024
        assert workload.seq_len == request.total_len

    def test_rejects_bad_config(self):
        with pytest.raises(ValueError):
            Request(0, 0.0, LLAMA3_70B, prompt_len=0, decode_len=10)
        with pytest.raises(ValueError, match="weight"):
            TrafficClass(LLAMA3_70B, weight=0.0)
        with pytest.raises(ValueError, match="min_len"):
            TrafficClass(LLAMA3_70B, prompt_mean=8)
        # A spec's arrival knobs raise when it is built, before any
        # request is drawn.
        with pytest.raises(ValueError, match="classes"):
            TrafficSpec(classes=())
        with pytest.raises(ValueError, match="rate_rps"):
            TrafficSpec(rate_rps=0.0)
        with pytest.raises(ValueError, match="duration_s"):
            TrafficSpec(duration_s=0.0)
        with pytest.raises(ValueError, match="burst_factor"):
            TrafficSpec(burst_factor=0.5)

    @pytest.mark.parametrize("field", ["prompt_mean", "decode_mean"])
    def test_spec_mean_below_class_min_len_raises_when_built(self, field):
        """A spec that builds its own classes checks their mean lengths
        against the classes' min_len when the spec is built, naming the
        field; with explicit classes it has no classes of its own."""
        with pytest.raises(ValueError, match=f"^{field} must be >= 16"):
            TrafficSpec(**{field: 8})
        TrafficSpec(**{field: 16})
        TrafficSpec(classes=(TrafficClass(LLAMA3_70B),), **{field: 8})


class TestReasoningTraffic:
    """PR 10: multi-turn CoT, tool pauses, self-consistency fan-out."""

    def test_section_ix_split(self):
        cls = reasoning_traffic(LLAMA3_70B)
        assert cls.prompt_mean == 2048
        assert cls.decode_mean == 4096
        # The reasoning structure knobs are off in the plain class.
        assert cls.cot_turns == 1
        assert cls.self_consistency_n == 1

    def test_composes_with_prefix_share_without_perturbing_rng(self):
        from dataclasses import replace

        shared = replace(reasoning_traffic(LLAMA3_70B), prefix_share_prob=0.6)
        plain = TrafficClass(
            LLAMA3_70B, prompt_mean=2048, decode_mean=4096,
            prefix_share_prob=0.6,
        )
        assert generate(30.0, classes=(shared,), seed=7) == generate(
            30.0, classes=(plain,), seed=7
        )

    def test_default_knobs_do_not_touch_the_stream(self):
        """Turning the reasoning knobs to their defaults (even with
        changed think-time statistics, which only matter when pauses
        exist) must leave the default RNG stream bit-identical."""
        from dataclasses import replace

        base = TrafficClass(
            LLAMA3_70B, prompt_mean=2048, decode_mean=4096,
            prefix_share_prob=0.6,
        )
        knobbed = replace(
            base, cot_turns=1, self_consistency_n=1, think_time_mean_s=9.0
        )
        assert generate(30.0, classes=(base,), seed=11) == generate(
            30.0, classes=(knobbed,), seed=11
        )

    def test_cot_turns_produce_tool_pauses(self):
        cls = TrafficClass(
            LLAMA3_8B, prompt_mean=256, decode_mean=128, cot_turns=3
        )
        requests = TrafficSpec(
            classes=(cls,), rate_rps=4.0, seed=5, duration_s=10.0
        ).requests(LLAMA3_8B)
        assert requests
        for request in requests:
            assert len(request.tool_pauses) == 2
            positions = [at for at, _ in request.tool_pauses]
            assert positions == sorted(positions)
            assert all(0 < at < request.decode_len for at in positions)
            assert all(think > 0.0 for _, think in request.tool_pauses)

    def test_self_consistency_fanout_shares_full_prompt(self):
        cls = TrafficClass(
            LLAMA3_8B, prompt_mean=256, decode_mean=128,
            self_consistency_n=4,
        )
        requests = TrafficSpec(
            classes=(cls,), rate_rps=2.0, seed=5, duration_s=10.0
        ).requests(LLAMA3_8B)
        assert len(requests) % 4 == 0
        assert [r.request_id for r in requests] == list(range(len(requests)))
        for i in range(0, len(requests), 4):
            group = requests[i:i + 4]
            founder = group[0]
            assert founder.prefix_id is not None
            for sibling in group:
                assert sibling.arrival_s == founder.arrival_s
                assert sibling.prefix_id == founder.prefix_id
                assert sibling.prompt_len == founder.prompt_len
                assert sibling.prefix_len == founder.prompt_len
        # Distinct logical arrivals get distinct groups.
        assert len({r.prefix_id for r in requests}) == len(requests) // 4

    def test_self_consistency_overrides_prefix_share(self):
        cls = TrafficClass(
            LLAMA3_8B, prompt_mean=256, decode_mean=128,
            self_consistency_n=3, prefix_share_prob=1.0, prefix_frac=0.5,
        )
        requests = TrafficSpec(
            classes=(cls,), rate_rps=2.0, seed=5, duration_s=10.0
        ).requests(LLAMA3_8B)
        # Fan-out groups share the *full* prompt, not prefix_frac of it.
        for request in requests:
            assert request.prefix_len == request.prompt_len

    def test_cot_composes_with_self_consistency(self):
        cls = TrafficClass(
            LLAMA3_8B, prompt_mean=256, decode_mean=128,
            cot_turns=2, self_consistency_n=2,
        )
        requests = TrafficSpec(
            classes=(cls,), rate_rps=2.0, seed=5, duration_s=10.0
        ).requests(LLAMA3_8B)
        assert requests
        for request in requests:
            assert len(request.tool_pauses) == 1

    def test_validation(self):
        for build in (partial(TrafficClass, LLAMA3_8B), TrafficSpec):
            with pytest.raises(ValueError, match="cot_turns"):
                build(cot_turns=0)
            with pytest.raises(ValueError, match="think_time_mean_s"):
                build(think_time_mean_s=0.0)
            with pytest.raises(ValueError, match="think_time_sigma"):
                build(think_time_sigma=0.0)
            with pytest.raises(ValueError, match="self_consistency_n"):
                build(self_consistency_n=0)

    def test_request_tool_pause_validation(self):
        Request(0, 0.0, LLAMA3_8B, 128, 64, tool_pauses=((10, 1.0), (30, 2.0)))
        with pytest.raises(ValueError):  # not ascending
            Request(0, 0.0, LLAMA3_8B, 128, 64,
                    tool_pauses=((30, 1.0), (10, 2.0)))
        with pytest.raises(ValueError):  # at decode end
            Request(0, 0.0, LLAMA3_8B, 128, 64, tool_pauses=((64, 1.0),))
        with pytest.raises(ValueError):  # zero think time
            Request(0, 0.0, LLAMA3_8B, 128, 64, tool_pauses=((10, 0.0),))

    def test_replay_carries_reasoning_structure(self):
        from repro.serving.requests import ArrivalTrace, TraceRow

        cls = TrafficClass(
            LLAMA3_8B, prompt_mean=256, decode_mean=128,
            cot_turns=2, self_consistency_n=2,
        )
        trace = ArrivalTrace((TraceRow(0.5), TraceRow(1.0)))
        requests = TrafficSpec(classes=(cls,), seed=5, trace=trace).requests(
            LLAMA3_8B
        )
        assert len(requests) == 4  # 2 rows x 2 samples
        for request in requests:
            assert len(request.tool_pauses) == 1
            assert request.prefix_len == request.prompt_len


class TestStreamPin:
    """The generated streams are part of the digest contract: every pin
    downstream starts from them.  One hash over a table of specs that
    covers each sampling path pins them bit for bit."""

    #: SHA-256 over STREAM_TABLE's requests, one line per request.
    DIGEST = "8564ca5f469e5249c9b9d4c777c5b724905002e2a9171c1af556383db2118db1"

    STREAM_TABLE = (
        TrafficSpec(rate_rps=3.0, duration_s=20.0, seed=7),
        TrafficSpec(
            rate_rps=4.0, duration_s=20.0, seed=3,
            process=ArrivalProcess.BURSTY, burst_factor=6.0, burst_dwell_s=2.0,
        ),
        TrafficSpec(
            rate_rps=4.0, duration_s=15.0, seed=5,
            prefix_share_prob=0.85, prefix_fanout=4, prefix_frac=0.75,
        ),
        TrafficSpec(
            rate_rps=2.0, duration_s=15.0, seed=9, prompt_mean=256,
            decode_mean=128, cot_turns=3, think_time_mean_s=1.5,
        ),
        TrafficSpec(
            rate_rps=2.0, duration_s=15.0, seed=4, prompt_mean=256,
            decode_mean=128, cot_turns=2, self_consistency_n=4,
        ),
        TrafficSpec(rate_rps=3.0, duration_s=15.0, seed=6, priorities=(0, 1, 2)),
        TrafficSpec(  # explicit rows: given lengths and priority pass through
            seed=8, prefix_share_prob=0.5,
            trace=ArrivalTrace((
                TraceRow(0.0, prompt_len=100, decode_len=50),
                TraceRow(0.5, prompt_len=300),
                TraceRow(1.0, decode_len=70, priority=5),
                TraceRow(2.0),
            )),
        ),
        TrafficSpec(seed=10, trace=ArrivalTrace.diurnal(3.0, 20.0, seed=10)),
        TrafficSpec(
            rate_rps=4.0, duration_s=15.0, seed=12,
            classes=(
                TrafficClass(LLAMA3_70B, weight=3.0),
                TrafficClass(
                    LLAMA3_8B, prompt_mean=512, decode_mean=256,
                    prefix_share_prob=0.6, priority=1,
                ),
            ),
        ),
        TrafficSpec(tenants=(
            TenantSpec(
                "chat", priority=2,
                traffic=TrafficSpec(
                    seed=13, prompt_mean=512, decode_mean=256,
                    trace=ArrivalTrace.flash_crowd(1.0, 10.0, seed=13),
                ),
            ),
            TenantSpec(
                "batch",
                traffic=TrafficSpec(
                    rate_rps=1.5, duration_s=10.0, seed=14, decode_mean=2048,
                ),
            ),
        )),
    )

    def test_stream_table_matches_the_pinned_digest(self):
        digest = hashlib.sha256()
        for spec in self.STREAM_TABLE:
            requests = spec.requests(LLAMA3_70B)
            assert requests
            for r in requests:
                digest.update(
                    f"{r.request_id} {r.arrival_s!r} {r.model.name}"
                    f" {r.prompt_len} {r.decode_len} {r.priority}"
                    f" {r.prefix_id} {r.prefix_len} {r.tenant!r}"
                    f" {r.tool_pauses!r}\n".encode()
                )
            digest.update(b"--\n")
        assert digest.hexdigest() == self.DIGEST
