import math
import multiprocessing
import random
import sys
import threading

import numpy as np
import pytest
from numpy.random import Generator, Philox, SeedSequence

from attrisk import uq
from attrisk.uq import (
    CHUNK_SIZE,
    BoxWhiskerSummary,
    EmpiricalDistribution,
    RandomStream,
    UncertainScalar,
    histogram,
    percentile,
    sample,
    summarize,
    tail_probability,
)

SEED = 20150302


def dist(values):
    return EmpiricalDistribution.from_samples(values)


def normal_cdf(x):
    # independent oracle: standard normal CDF via the complementary error function
    return 0.5 * math.erfc(-x / math.sqrt(2))


class TestUncertainScalar:
    def test_rejects_nonfinite(self):
        with pytest.raises(ValueError):
            UncertainScalar(float("nan"), 1.0)
        with pytest.raises(ValueError):
            UncertainScalar(0.0, float("inf"))

    def test_rejects_negative_dispersion(self):
        with pytest.raises(ValueError):
            UncertainScalar(0.0, -0.1)


class TestSampling:
    def test_point_mass_repeats_value(self):
        q = UncertainScalar(3.54)
        assert sample(q, RandomStream(1), 3).tolist() == [3.54, 3.54, 3.54]

    def test_rejects_zero_draws(self):
        with pytest.raises(ValueError):
            sample(UncertainScalar(1.0), RandomStream(1), 0)

    def test_standard_normal_moments(self):
        n = 1_000_000
        draws = sample(UncertainScalar(0.0, 1.0), RandomStream(SEED), n)
        assert abs(draws.mean()) < 0.005
        assert abs(draws.std() - 1.0) < 0.005

    def test_moment_bounds_scale_with_dispersion(self):
        n = 1_000_000
        q = UncertainScalar(2.0, 0.25)
        draws = sample(q, RandomStream(SEED, 5), n)
        assert abs(draws.mean() - q.value) < 5 * q.dispersion / math.sqrt(n)
        assert abs(draws.std() - q.dispersion) < 5 * q.dispersion / math.sqrt(2 * n)

    def test_negative_fraction_matches_normal_cdf(self):
        # fraction of N(1.08, 0.37^2) draws at or below zero
        q = UncertainScalar(1.08, 0.37)
        draws = sample(q, RandomStream(SEED, 2), 1_000_000)
        expected = normal_cdf(-1.08 / 0.37)
        assert expected == pytest.approx(0.00176, abs=5e-6)
        assert abs((draws <= 0).mean() - expected) < 0.0005

    def test_same_seed_bit_identical(self):
        a = RandomStream(42, 1).standard_normal(100_000)
        b = RandomStream(42, 1).standard_normal(100_000)
        assert np.array_equal(a, b)

    def test_prefix_independent_of_total_count(self):
        # the i-th draw depends only on (seed, label, i), not on n
        short = RandomStream(42, 1).standard_normal(1000)
        long = RandomStream(42, 1).standard_normal(CHUNK_SIZE + 5000)
        assert np.array_equal(short, long[:1000])

    def test_distinct_labels_are_distinct_streams(self):
        a = RandomStream(42, 1).standard_normal(1000)
        b = RandomStream(42, 2).standard_normal(1000)
        assert not np.array_equal(a, b)


def serial_chunks(seed, label, n, order=None):
    """Reference: key and fill each chunk on this thread, in the given order."""
    out = np.empty(n)
    chunks = list(range((n + CHUNK_SIZE - 1) // CHUNK_SIZE))
    for i in order(chunks) if order else chunks:
        start = i * CHUNK_SIZE
        count = min(CHUNK_SIZE, n - start)
        gen = Generator(Philox(SeedSequence(seed, spawn_key=(label, i))))
        out[start:start + count] = gen.standard_normal(count)
    return out


def _draw_in_child(n):
    return RandomStream(7, 1).standard_normal(n).tobytes()


class TestChunkParallel:
    SIZES = [1, CHUNK_SIZE, CHUNK_SIZE + 1, 5 * CHUNK_SIZE + 17]

    @pytest.mark.parametrize("n", SIZES)
    def test_pool_matches_serial_reference(self, n):
        assert np.array_equal(RandomStream(SEED, 1).standard_normal(n),
                              serial_chunks(SEED, 1, n))

    @pytest.mark.parametrize("n", SIZES)
    def test_chunk_order_does_not_matter(self, n):
        def shuffled(chunks):
            random.Random(n).shuffle(chunks)
            return chunks

        assert np.array_equal(RandomStream(SEED, 2).standard_normal(n),
                              serial_chunks(SEED, 2, n, order=shuffled))

    def test_concurrent_callers_get_their_own_bits(self):
        n = 5 * CHUNK_SIZE + 17
        expected = {1: serial_chunks(SEED, 1, n), 2: serial_chunks(SEED, 2, n)}
        mismatches = []

        def draw(label):
            for _ in range(5):
                if not np.array_equal(RandomStream(SEED, label).standard_normal(n),
                                      expected[label]):
                    mismatches.append(label)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            others = [threading.Thread(target=draw, args=(2,)) for _ in range(3)]
            for t in others:
                t.start()
            draw(1)
            for t in others:
                t.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in others)
        assert mismatches == []

    def test_single_chunk_stays_on_calling_thread(self, monkeypatch):
        def no_pool():
            raise AssertionError("a single chunk must not use the pool")

        monkeypatch.setattr(uq, "_pool", no_pool)
        assert np.array_equal(RandomStream(SEED, 1).standard_normal(CHUNK_SIZE),
                              serial_chunks(SEED, 1, CHUNK_SIZE))

    def test_forked_child_can_draw(self):
        n = 2 * CHUNK_SIZE + 1
        RandomStream(7, 1).standard_normal(n)  # the parent's pool now exists
        with multiprocessing.get_context("fork").Pool(1) as pool:
            got = pool.apply_async(_draw_in_child, (n,)).get(timeout=60)
        assert got == serial_chunks(7, 1, n).tobytes()


class TestEmpiricalDistribution:
    def test_requires_two_samples(self):
        with pytest.raises(ValueError):
            dist([1.0])

    def test_rejects_nonfinite_samples(self):
        with pytest.raises(ValueError):
            dist([1.0, float("nan")])

    @pytest.mark.parametrize("bad", [float("nan"), float("inf"), -float("inf")])
    def test_rejects_nonfinite_anywhere(self, bad):
        for at in range(5):
            values = [3.0, -1.0, 2.0, 0.5]
            values.insert(at, bad)
            with pytest.raises(ValueError, match="finite"):
                dist(values)

    def test_sorted_on_construction(self):
        d = dist([3, 1, 2])
        assert d.samples.tolist() == [1, 2, 3]
        assert d.sample_count == 3

    def test_from_samples_leaves_caller_array_alone(self):
        values = np.array([3.0, 1.0, 2.0])
        d = dist(values)
        assert values.tolist() == [3.0, 1.0, 2.0]
        assert not d.samples.flags.writeable


class TestPercentile:
    def test_exact_median_odd(self):
        assert percentile(dist([1, 2, 3, 4, 5]), 0.5) == 3

    def test_interpolated_median_even(self):
        assert percentile(dist([1, 2, 3, 4]), 0.5) == 2.5

    def test_interpolation_between_order_statistics(self):
        # h = 0.25 * 1, interpolate 10 + 0.25 * 10
        assert percentile(dist([10, 20]), 0.25) == 12.5

    def test_endpoints(self):
        d = dist([5, 1, 9])
        assert percentile(d, 0.0) == 1
        assert percentile(d, 1.0) == 9

    def test_rejects_out_of_range_q(self):
        with pytest.raises(ValueError):
            percentile(dist([1, 2]), 1.5)
        with pytest.raises(ValueError):
            percentile(dist([1, 2]), -0.1)


class TestSummarize:
    def test_symmetric_samples(self):
        s = summarize(dist([-2, -1, 0, 1, 2]))
        assert s.median == 0
        assert s.mean == 0

    def test_ordering_enforced(self):
        with pytest.raises(ValueError):
            BoxWhiskerSummary(median=0, q25=1, q75=2, p05=0, p95=3,
                              p005=-1, p995=4, mean=0)


class TestTailProbability:
    def test_all_positive(self):
        assert tail_probability(dist([1, 2, 3]), 0) == 0

    def test_split(self):
        assert tail_probability(dist([-1, 1]), 0) == 0.5

    def test_threshold_inclusive(self):
        d = dist([0.0, 0.0, 1.0])
        assert tail_probability(d, 0) == pytest.approx(2 / 3)

    def test_extreme_thresholds(self):
        d = dist([1, 2, 3])
        assert tail_probability(d, -1e300) == 0
        assert tail_probability(d, 1e300) == 1

    def test_all_zero_samples_at_zero(self):
        assert tail_probability(dist([0.0, 0.0]), 0) == 1.0


class TestHistogram:
    def test_two_bins(self):
        assert histogram(dist([0, 1, 2, 3]), 2) == [(0, 1.5, 2), (1.5, 3, 2)]

    def test_degenerate_zero_width(self):
        assert histogram(dist([5, 5, 5]), 4) == [(5, 5, 3)]

    def test_counts_conserved(self):
        d = dist(np.linspace(-3, 7, 1001))
        bins = histogram(d, 13)
        assert sum(count for _, _, count in bins) == d.sample_count

    def test_modal_bin_near_zero_for_standard_normal(self):
        draws = sample(UncertainScalar(0.0, 1.0), RandomStream(SEED, 3), 1_000_000)
        bins = histogram(EmpiricalDistribution.from_samples(draws), 100)
        lo, hi, _ = max(bins, key=lambda b: b[2])
        # the density is nearly flat at the mode, so sampling noise can shift
        # the modal bin by a bin or two; require it within 3 widths of zero
        width = bins[0][1] - bins[0][0]
        assert abs((lo + hi) / 2) < 3 * width

    def test_rejects_zero_bins(self):
        with pytest.raises(ValueError):
            histogram(dist([1, 2]), 0)
