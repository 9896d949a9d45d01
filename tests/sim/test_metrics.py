"""Direct tests for the latency-summary and windowed-metrics helpers."""

import pytest

from repro.service.autoscaler import Autoscaler, MetricsSample, percentile
from repro.sim.metrics import LatencyStats, summarize
from repro.sim.metrics import percentile as nearest_rank


class TestSummarize:
    def test_empty_sample_set_is_an_error(self):
        with pytest.raises(ValueError, match="zero samples"):
            summarize([])

    def test_single_sample_is_every_percentile(self):
        stats = summarize([0.042])
        assert stats.count == 1
        assert stats.mean == stats.median == stats.p95 == stats.p99 == 0.042
        assert stats.minimum == stats.maximum == 0.042
        assert stats.stddev == 0.0

    def test_nearest_rank_on_a_known_population(self):
        stats = summarize([float(v) for v in range(1, 101)])
        assert stats.median == 50.0
        assert stats.p95 == 95.0
        assert stats.p99 == 99.0
        assert stats.minimum == 1.0 and stats.maximum == 100.0

    def test_small_samples_report_observed_values(self):
        # Nearest rank never interpolates: with four samples the p95 is the
        # maximum, not a value between the top two.
        stats = summarize([1.0, 2.0, 3.0, 4.0])
        assert stats.median == 2.0  # ceil(0.5 * 4) = rank 2
        assert stats.p95 == 4.0
        assert stats.p99 == 4.0

    def test_moments(self):
        stats = summarize([1.0, 3.0])
        assert stats.mean == 2.0
        assert stats.stddev == 1.0  # population stddev

    def test_order_of_samples_is_irrelevant(self):
        assert summarize([3.0, 1.0, 2.0]) == summarize([1.0, 2.0, 3.0])


class TestLatencyStats:
    def test_millisecond_views(self):
        stats = summarize([0.002, 0.004])
        assert stats.mean_ms() == pytest.approx(3.0)
        assert stats.p95_ms() == pytest.approx(4.0)
        assert stats.p99_ms() == pytest.approx(4.0)

    def test_overhead_vs(self):
        base = summarize([0.010])
        slow = summarize([0.015])
        assert slow.overhead_vs(base) == pytest.approx(50.0)
        zero = summarize([0.0])
        assert slow.overhead_vs(zero) is None

    def test_overhead_vs_zero_baseline_stays_valid_json(self):
        # float("inf") would serialize as the bare word ``Infinity``, which
        # no strict JSON parser accepts; the undefined ratio must reach a
        # report as null instead.
        import json

        slow = summarize([0.015])
        report = {"overhead_pct": slow.overhead_vs(summarize([0.0])),
                  "latency": slow.to_dict()}
        serialized = json.dumps(report, allow_nan=False)
        assert json.loads(serialized)["overhead_pct"] is None

    def test_to_dict_has_all_moments(self):
        payload = summarize([0.5]).to_dict()
        assert set(payload) == {"count", "mean", "median", "p95", "p99",
                                "minimum", "maximum", "stddev"}


class TestPercentileHelpers:
    def test_internal_percentile_rejects_empty(self):
        with pytest.raises(ValueError, match="no samples"):
            nearest_rank([], 0.99)

    def test_internal_percentile_clamps_fraction_zero(self):
        assert nearest_rank([1.0, 2.0, 3.0], 0.0) == 1.0
        assert nearest_rank([1.0, 2.0, 3.0], 1.0) == 3.0

    def test_windowed_percentile_empty_window_is_silence(self):
        # The autoscaler treats "no completed requests" as no signal — not
        # as a zero-latency window that would trigger a shrink.
        assert percentile([], 0.99) is None

    def test_windowed_percentile_single_sample(self):
        assert percentile([0.25], 0.99) == 0.25
        assert percentile([0.25], 0.0) == 0.25

    def test_windowed_percentile_nearest_rank(self):
        window = [0.001 * v for v in range(1, 11)]
        assert percentile(window, 0.5) == pytest.approx(0.005)
        assert percentile(window, 0.99) == pytest.approx(0.010)

    def test_windowed_percentile_validates_fraction(self):
        with pytest.raises(ValueError):
            percentile([1.0], 1.5)
        with pytest.raises(ValueError):
            percentile([1.0], -0.1)


class _StubClock:
    def __init__(self, now=0.0):
        self._now = now

    def now(self):
        return self._now


class _StubRing:
    def __init__(self, shard_count):
        self.shard_count = shard_count


class _StubPlane:
    """Just enough plane for Autoscaler.sample(): a clock, a ring, queues."""

    def __init__(self, depths, shard_count=2, now=1.5):
        self.clock = _StubClock(now)
        self.ring = _StubRing(shard_count)
        self._depths = depths

    def queue_depth_per_shard(self):
        return dict(self._depths)


class TestQueueDepthSampling:
    def test_no_shards_reporting_reads_as_depth_zero(self):
        scaler = Autoscaler(_StubPlane({}))
        sample = scaler.sample()
        assert sample == MetricsSample(time_s=1.5, p99_s=None,
                                       queue_depth=0, shard_count=2)

    def test_depth_is_the_max_across_shards(self):
        scaler = Autoscaler(_StubPlane({"s0": 1, "s1": 7, "s2": 3},
                                       shard_count=3))
        assert scaler.sample().queue_depth == 7

    def test_callers_latency_window_passes_through(self):
        scaler = Autoscaler(_StubPlane({"s0": 0}))
        assert scaler.sample(p99_s=0.125).p99_s == 0.125
        # An empty latency window stays None end to end.
        assert scaler.sample(p99_s=percentile([], 0.99)).p99_s is None
