import math
import multiprocessing
import os
import random
import subprocess
import sys
import threading
import time
import tracemalloc
from functools import partial
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings, strategies as st
from hypothesis.extra.numpy import arrays
from numpy.random import Generator, Philox, SeedSequence

from attrisk import uq
from attrisk.uq import (
    CHUNK_SIZE,
    BoxWhiskerSummary,
    EmpiricalDistribution,
    UncertainScalar,
    histogram,
    percentile,
    sort_in_place,
    summarize,
    tail_probability,
)
from conftest import sample

SEED = 20150302
NORMAL = UncertainScalar(0.0, 1.0)


def dist(values):
    return EmpiricalDistribution(np.array(values, dtype=float))


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
        assert sample(q, 1, 0, 3).tolist() == [3.54, 3.54, 3.54]

    def test_standard_normal_moments(self):
        n = 1_000_000
        draws = sample(UncertainScalar(0.0, 1.0), SEED, 0, n)
        assert abs(draws.mean()) < 0.005
        assert abs(draws.std() - 1.0) < 0.005

    def test_moment_bounds_scale_with_dispersion(self):
        n = 1_000_000
        q = UncertainScalar(2.0, 0.25)
        draws = sample(q, SEED, 5, n)
        assert abs(draws.mean() - q.value) < 5 * q.dispersion / math.sqrt(n)
        assert abs(draws.std() - q.dispersion) < 5 * q.dispersion / math.sqrt(2 * n)

    def test_negative_fraction_matches_normal_cdf(self):
        # fraction of N(1.08, 0.37^2) draws at or below zero
        q = UncertainScalar(1.08, 0.37)
        draws = sample(q, SEED, 2, 1_000_000)
        expected = normal_cdf(-1.08 / 0.37)
        assert expected == pytest.approx(0.00176, abs=5e-6)
        assert abs((draws <= 0).mean() - expected) < 0.0005

    def test_same_seed_bit_identical(self):
        a = sample(NORMAL, 42, 1, 100_000)
        b = sample(NORMAL, 42, 1, 100_000)
        assert np.array_equal(a, b)

    def test_prefix_independent_of_total_count(self):
        # the i-th draw depends only on (seed, label, i), not on n
        short = sample(NORMAL, 42, 1, 1000)
        long = sample(NORMAL, 42, 1, CHUNK_SIZE + 5000)
        assert np.array_equal(short, long[:1000])

    def test_distinct_labels_are_distinct_streams(self):
        a = sample(NORMAL, 42, 1, 1000)
        b = sample(NORMAL, 42, 2, 1000)
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


def _run_child(code):
    """Run code in a fresh interpreter that imports this checkout's attrisk."""
    src = str(Path(uq.__file__).resolve().parent.parent)
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    return subprocess.run([sys.executable, "-c", code], env=env,
                          capture_output=True, timeout=120)


def _draw_in_child(n):
    return sample(NORMAL, 7, 1, n).tobytes()


class TestChunkParallel:
    SIZES = [1, CHUNK_SIZE, CHUNK_SIZE + 1, 5 * CHUNK_SIZE + 17]

    @pytest.mark.parametrize("n", SIZES)
    def test_pool_matches_serial_reference(self, n):
        assert np.array_equal(sample(NORMAL, SEED, 1, n),
                              serial_chunks(SEED, 1, n))

    @pytest.mark.parametrize("n", SIZES)
    def test_chunk_order_does_not_matter(self, n):
        def shuffled(chunks):
            random.Random(n).shuffle(chunks)
            return chunks

        assert np.array_equal(sample(NORMAL, SEED, 2, n),
                              serial_chunks(SEED, 2, n, order=shuffled))

    def test_concurrent_callers_get_their_own_bits(self):
        n = 5 * CHUNK_SIZE + 17
        expected = {1: serial_chunks(SEED, 1, n), 2: serial_chunks(SEED, 2, n)}
        mismatches = []

        def draw(label):
            for _ in range(5):
                if not np.array_equal(sample(NORMAL, SEED, label, n),
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

    def test_single_chunk_stays_on_calling_thread(self, two_workers):
        draw, threads = uq.chunk_sampler(NORMAL, SEED, 1), []

        def work(i, chunk):
            threads.append(threading.get_ident())
            draw(i, chunk)

        out = np.empty(CHUNK_SIZE)
        uq.map_chunks(work, out)
        assert threads == [threading.get_ident()]
        assert np.array_equal(out, serial_chunks(SEED, 1, CHUNK_SIZE))

    def test_each_chunk_is_keyed_on_the_thread_that_fills_it(self, monkeypatch, two_workers):
        keyed, filled, key = {}, {}, uq.SeedSequence

        def recorded(seed, *, spawn_key):
            keyed[spawn_key] = threading.get_ident()
            return key(seed, spawn_key=spawn_key)

        monkeypatch.setattr(uq, "SeedSequence", recorded)
        draw = uq.chunk_sampler(NORMAL, SEED, 1)
        assert keyed == {}  # no chunk is keyed before it is filled
        meet = threading.Barrier(2, timeout=30)

        def work(i, chunk):
            filled[(1, i)] = threading.get_ident()
            if i < 2:  # chunks 0 and 1 wait for each other: one fills on the helper
                meet.wait()
            draw(i, chunk)

        out = np.empty(3 * CHUNK_SIZE)
        uq.map_chunks(work, out)
        assert keyed == filled and len(set(filled.values())) == 2
        assert np.array_equal(out, serial_chunks(SEED, 1, out.size))

    @pytest.mark.parametrize("n", SIZES[1:])
    def test_chunks_run_under_the_callers_error_state(self, n):
        def overflow(i, chunk):
            chunk *= 10.0

        with np.errstate(over="raise"), pytest.raises(FloatingPointError):
            uq.map_chunks(overflow, np.full(n, 1e308))

    def test_raises_only_once_every_started_chunk_has_written(self, two_workers):
        started = threading.Event()

        def work(i, chunk):
            if i == 0:
                assert started.wait(30)
                raise KeyError("chunk 0")
            started.set()
            time.sleep(0.05)
            chunk[:] = 1.0

        out = np.zeros(2 * CHUNK_SIZE)
        with pytest.raises(KeyError, match="chunk 0"):
            uq.map_chunks(work, out)
        assert np.all(out[CHUNK_SIZE:] == 1.0)

    def test_import_starts_no_thread(self):
        proc = _run_child("import threading, attrisk\n"
                          "print([t.name for t in threading.enumerate()])\n")
        assert (proc.returncode, proc.stdout) == (0, b"['MainThread']\n"), proc.stderr

    def test_helpers_without_affinity_or_fork_hook(self):
        # macOS has no os.sched_getaffinity and Windows no os.register_at_fork
        # either: the workers are then the CPU count, the helper threads start
        # all the same, and the bits do not change.
        n = 3 * CHUNK_SIZE + 5
        proc = _run_child(
            "import os, sys\n"
            "del os.sched_getaffinity, os.register_at_fork\n"
            "import numpy as np\n"
            "from attrisk import uq\n"
            "assert uq._workers == (os.cpu_count() or 1)\n"
            "x = np.empty(%d)\n"
            "uq.map_chunks(uq.chunk_sampler(uq.UncertainScalar(0.0, 1.0), 7, 2), x)\n"
            "sys.stdout.buffer.write(x.tobytes())\n" % n)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout == sample(NORMAL, 7, 2, n).tobytes()

    def test_run_leaves_no_thread_behind(self):
        # Two workers, so the run's draws and sort take a helper thread.
        proc = _run_child(
            "import os, threading\n"
            "from attrisk import scenario, uq\n"
            "uq._workers = 2\n"
            "here = os.path.dirname(scenario.__file__)\n"
            "cfg = scenario.load_scenario(os.path.join(here, 'scenarios', 'syria_2010.yaml'),\n"
            "                             {'mc.samples': 2 * uq.CHUNK_SIZE + 1})\n"
            "scenario.run_scenario(cfg)\n"
            "print([t.name for t in threading.enumerate()])\n")
        assert (proc.returncode, proc.stdout) == (0, b"['MainThread']\n"), proc.stderr

    def test_forked_child_can_draw(self):
        n = 2 * CHUNK_SIZE + 1
        sample(NORMAL, 7, 1, n)  # the parent has drawn with helper threads first
        with multiprocessing.get_context("fork").Pool(1) as pool:
            got = pool.apply_async(_draw_in_child, (n,)).get(timeout=60)
        assert got == serial_chunks(7, 1, n).tobytes()


def sorted_in_place(values):
    a = np.array(values, dtype=float)
    sort_in_place(a)
    return a


@pytest.fixture
def two_workers(monkeypatch):
    """Two-thread paths open with two workers counted, even on one CPU (the
    helper and the caller then run in turn)."""
    monkeypatch.setattr(uq, "_workers", 2)


@pytest.fixture
def pooled_sort(monkeypatch, two_workers):
    """sort_in_place sorts as two tasks from 2 values up."""
    monkeypatch.setattr(uq, "POOL_SORT_MIN", 2)


def sort_threads(values, meet=None):
    """sort_in_place on a copy of values: the threads its sorts ran on, and the
    result. Each sort first waits at the barrier meet, if one is given."""
    threads = []

    class Recording(np.ndarray):
        def sort(self, *args, **kwargs):
            threads.append(threading.get_ident())
            if meet:
                meet.wait()
            np.ndarray.sort(self, *args, **kwargs)

    a = np.array(values, dtype=float).view(Recording)
    sort_in_place(a)
    return threads, a.view(np.ndarray)


class TestSortInPlace:
    """The two-task sort gives np.sort's bytes: a sorted float64 array is unique
    but for the order of mixed -0.0 and +0.0, which no case here holds."""

    # pooled_sort sets the same two values for every example.
    @settings(suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(values=arrays(np.float64, st.integers(2, 3000),
                         elements=st.floats(allow_nan=False)),
           zero=st.sampled_from([0.0, -0.0]))
    def test_bytes_match_np_sort(self, values, zero, pooled_sort):
        values = np.where(values == 0, zero, values)  # zeros of one sign
        assert sorted_in_place(values).tobytes() == np.sort(values).tobytes()

    @pytest.mark.parametrize("offset", [-1, 0, 1])
    def test_around_the_crossover(self, two_workers, offset):
        values = sample(NORMAL, SEED, 6, uq.POOL_SORT_MIN + offset)
        assert sorted_in_place(values).tobytes() == np.sort(values).tobytes()

    RNG = np.random.default_rng(SEED)
    N = 3 * CHUNK_SIZE + 7  # odd, and not a whole number of chunks
    SHAPES = {
        "normal": RNG.standard_normal(N),
        "all-equal": np.full(N, 2.5),
        "ties-at-the-middle": RNG.integers(0, 3, N).astype(float),
        "sorted": np.arange(N, dtype=float),  # partitioned at the middle already
        "reversed": np.arange(N, 0, -1, dtype=float),
        "two-values": np.repeat([1.0, -1.0], [N // 2, N - N // 2]),
        "infinities": np.where(RNG.random(N) < 0.1, np.inf, RNG.standard_normal(N)) * np.sign(
            RNG.random(N) - 0.5),
    }

    @pytest.mark.parametrize("shape", SHAPES)
    def test_shapes(self, shape, pooled_sort):
        values = self.SHAPES[shape]
        assert sorted_in_place(values).tobytes() == np.sort(values).tobytes()

    @pytest.mark.parametrize("at", [0, N // 2 - 1, N // 2, N - 1])
    def test_nan_anywhere(self, at, pooled_sort):
        values = np.random.default_rng(at).standard_normal(self.N)
        values[at] = np.nan
        assert sorted_in_place(values).tobytes() == np.sort(values).tobytes()
        with pytest.raises(ValueError, match="samples must be finite"):
            EmpiricalDistribution(values)

    def test_one_worker_sorts_on_the_calling_thread(self, monkeypatch):
        monkeypatch.setattr(uq, "POOL_SORT_MIN", 2)
        monkeypatch.setattr(uq, "_workers", 1)
        values = self.SHAPES["normal"]
        threads, result = sort_threads(values)
        assert threads == [threading.get_ident()]
        assert result.tobytes() == np.sort(values).tobytes()

    def test_two_workers_sort_the_halves_as_two_tasks(self, pooled_sort):
        # The two sorts wait for each other, so neither thread can sort both halves.
        values = self.SHAPES["normal"]
        threads, result = sort_threads(values, threading.Barrier(2, timeout=30))
        assert len(threads) == 2 and threading.get_ident() in threads
        assert result.tobytes() == np.sort(values).tobytes()

    def test_call_from_pool_work_finishes(self):
        # Every worker sorts inside map_chunks work: each nested call starts
        # a helper of its own, and all of them finish.
        proc = _run_child(
            "import numpy as np\n"
            "from attrisk import uq\n"
            "uq.POOL_SORT_MIN, uq._workers = 2, max(uq._workers, 2)\n"
            "def work(i, chunk):\n"
            "    values = np.random.default_rng(i).standard_normal(chunk.size)\n"
            "    chunk[:] = values\n"
            "    uq.sort_in_place(chunk)\n"
            "    return chunk.tobytes() == np.sort(values).tobytes()\n"
            "print(uq.map_chunks(work, np.empty(4 * uq.CHUNK_SIZE)))\n")
        assert (proc.returncode, proc.stdout) == (0, b"[True, True, True, True]\n"), proc.stderr

    def test_concurrent_callers_share_the_pool(self, pooled_sort):
        arrays = [np.random.default_rng(k).standard_normal(2 * CHUNK_SIZE + k) for k in range(4)]
        mismatches = []

        def sorts(values):
            for _ in range(5):
                if sorted_in_place(values).tobytes() != np.sort(values).tobytes():
                    mismatches.append(values.size)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=sorts, args=(a,)) for a in arrays]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in threads)
        assert mismatches == []

    def test_makes_no_n_sized_temporary(self, pooled_sort):
        values = sample(NORMAL, SEED, 7, 2_000_000)
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            sort_in_place(values)
            peak = tracemalloc.get_traced_memory()[1] - base
        finally:
            tracemalloc.stop()
        assert np.all(values[:-1] <= values[1:])
        # The partition and both sorts work in place: under one float chunk.
        # A mask over a whole half alone would be n/2 = 1e6 bytes.
        assert peak < 8 * CHUNK_SIZE


def handshake():
    """Two tasks, each waiting (with a timeout) for the other to start, so they
    must run on two threads at once; each returns its index, thread and result."""
    started = [threading.Event(), threading.Event()]

    def task(me, result=None):
        def run():
            started[me].set()
            assert started[1 - me].wait(30), "the other task never started"
            return me, threading.get_ident(), result() if result else None

        return run

    return task


class TestAtOnce:
    def test_results_come_back_in_order(self, monkeypatch):
        # More workers than CPUs, three callers at once and a thread switch at
        # every chance: each task still runs once, its result in its place.
        monkeypatch.setattr(uq, "_workers", 4)
        ran, mismatches = [], []

        def task(caller, k):
            ran.append((caller, k))
            return k

        def calls(caller):
            for _ in range(20):
                got = uq.at_once(*(partial(task, caller, k) for k in range(16)))
                if got != list(range(16)):
                    mismatches.append(got)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            callers = [threading.Thread(target=calls, args=(c,)) for c in range(3)]
            for t in callers:
                t.start()
            for t in callers:
                t.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in callers)
        assert mismatches == []
        assert sorted(ran) == sorted([(c, k) for c in range(3) for k in range(16)] * 20)

    def test_two_tasks_run_at_once_one_on_the_caller(self, two_workers):
        task = handshake()
        (first, one, _), (second, other, _) = uq.at_once(task(0), task(1))
        assert (first, second) == (0, 1)
        assert one != other and threading.get_ident() in (one, other)

    def test_an_error_waits_for_the_started_tasks_and_stops_the_rest(self, two_workers):
        started, failing, ran = threading.Event(), threading.Event(), []

        def fails():
            assert started.wait(30)
            try:
                raise KeyError("fails")
            finally:
                failing.set()

        def slow():
            started.set()
            assert failing.wait(30)
            time.sleep(0.05)
            ran.append("slow")

        with pytest.raises(KeyError, match="fails"):
            uq.at_once(fails, slow, lambda: ran.append("after"))
        assert ran == ["slow"]

    def test_the_lowest_indexed_error_is_raised(self, two_workers):
        raised = threading.Event()

        def first():
            assert raised.wait(30)
            raise KeyError("first")

        def second():
            try:
                raise KeyError("second")
            finally:
                raised.set()

        with pytest.raises(KeyError, match="first"):
            uq.at_once(first, second)

    def test_a_helper_that_cannot_start_waits_for_the_started_ones(self, monkeypatch):
        # The second helper fails to start once the first has taken a task: no
        # further task starts, and the error comes once that task has written.
        monkeypatch.setattr(uq, "_workers", 3)
        started, wrote, starts = threading.Event(), [], []
        start = threading.Thread.start

        def second_fails(thread):
            starts.append(thread)
            if len(starts) == 2:
                assert started.wait(30)
                raise RuntimeError("can't start new thread")
            start(thread)

        def slow(k):
            started.set()
            time.sleep(0.05)
            wrote.append(k)

        monkeypatch.setattr(uq.threading.Thread, "start", second_fails)
        with pytest.raises(RuntimeError, match="can't start new thread"):
            uq.at_once(*(partial(slow, k) for k in range(4)))
        assert wrote == [0]

    def test_tasks_run_under_the_callers_error_state(self, two_workers):
        task = handshake()
        with np.errstate(over="raise"):
            results = uq.at_once(task(0, lambda: np.geterr()["over"]),
                                 task(1, lambda: np.geterr()["over"]))
        assert [over for _, _, over in results] == ["raise", "raise"]
        with np.errstate(over="raise"), pytest.raises(FloatingPointError):
            uq.at_once(*[lambda: np.full(2, 1e308) * 10.0] * 4)

    def test_one_worker_runs_inline_in_order(self, monkeypatch):
        monkeypatch.setattr(uq, "_workers", 1)
        order = []
        assert uq.at_once(*(partial(lambda k: order.append((k, threading.get_ident())), k)
                            for k in range(3))) == [None] * 3
        assert order == [(k, threading.get_ident()) for k in range(3)]

    def test_one_task_runs_inline(self, two_workers):
        assert uq.at_once(threading.get_ident) == [threading.get_ident()]


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

    def test_constructor_sorts_an_unsorted_array(self):
        d = EmpiricalDistribution(np.array([3.0, 1.0, 2.0]))
        assert percentile(d, 0.0) == 1.0
        bins = histogram(d, 4)
        edges = [lo for lo, _, _ in bins] + [bins[-1][1]]
        assert edges == [1.0, 1.5, 2.0, 2.5, 3.0]

    @pytest.mark.parametrize("bad", [float("nan"), float("inf"), -float("inf")])
    def test_constructor_refuses_nonfinite(self, bad):
        with pytest.raises(ValueError, match="^samples must be finite$"):
            EmpiricalDistribution(np.array([1.0, bad, 2.0]))

    @pytest.mark.parametrize("values", [[1.0], [[1.0, 2.0], [3.0, 4.0]]],
                             ids=["one-sample", "2-d"])
    def test_constructor_refuses_one_sample_or_2d(self, values):
        with pytest.raises(ValueError, match="need at least 2 samples"):
            EmpiricalDistribution(np.array(values))

    @pytest.mark.parametrize("values", [[3.0, 1.0, 2.0], np.array([3, 1, 2], dtype=np.int64),
                                        np.array([3.0, 1.0, 2.0], dtype=np.float32)],
                             ids=["list", "int64", "float32"])
    def test_constructor_refuses_all_but_a_float64_array(self, values):
        with pytest.raises(ValueError, match="^samples must be a float64 ndarray$"):
            EmpiricalDistribution(values)

    def test_constructor_takes_over_the_array_read_only(self):
        values = np.array([3.0, 1.0, 2.0])
        d = EmpiricalDistribution(values)
        assert d.samples is values
        assert not values.flags.writeable
        with pytest.raises(ValueError, match="read-only"):
            values[0] = 0.0

    @pytest.mark.parametrize("at", [1, CHUNK_SIZE - 1, CHUNK_SIZE, CHUNK_SIZE + 1,
                                    2 * CHUNK_SIZE + 4])
    def test_one_descent_anywhere_is_sorted(self, at):
        # The order is checked in windows of CHUNK_SIZE + 1 values that
        # overlap by one, so a descent at a window join is seen too.
        values = np.arange(2 * CHUNK_SIZE + 5.0)
        values[[at - 1, at]] = values[[at, at - 1]]
        assert np.array_equal(dist(values).samples, np.arange(2 * CHUNK_SIZE + 5.0))

    def test_non_decreasing_signed_zeros_keep_their_bits(self):
        # -0.0 == 0.0, so mixed signed zeros are in order already and are
        # not sorted, which would leave their order unspecified.
        values = np.zeros(CHUNK_SIZE + 3)
        values[::3] = -0.0
        values[0], values[-1] = -1.0, 1.0
        bits = values.tobytes()
        d = EmpiricalDistribution(values)
        assert d.samples.tobytes() == bits
        assert not d.samples.flags.writeable

    @pytest.mark.parametrize("n", [2, CHUNK_SIZE + 1, 1_000_000])
    def test_variance_matches_numpy(self, n):
        d = dist(sample(UncertainScalar(3.54, 1.2), SEED, 4, n))
        assert d.variance == pytest.approx(np.var(d.samples), rel=1e-12, abs=0)

    def test_variance_makes_no_n_sized_temporary(self):
        d = dist(sample(NORMAL, SEED, 4, 1_000_000))
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            d.variance
            peak = tracemalloc.get_traced_memory()[1] - base
        finally:
            tracemalloc.stop()
        assert peak < 2 * 8 * CHUNK_SIZE + 64 * 1024


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
        draws = sample(UncertainScalar(0.0, 1.0), SEED, 3, 1_000_000)
        bins = histogram(EmpiricalDistribution(draws), 100)
        lo, hi, _ = max(bins, key=lambda b: b[2])
        # the density is nearly flat at the mode, so sampling noise can shift
        # the modal bin by a bin or two; require it within 3 widths of zero
        width = bins[0][1] - bins[0][0]
        assert abs((lo + hi) / 2) < 3 * width

    def test_rejects_zero_bins(self):
        with pytest.raises(ValueError):
            histogram(dist([1, 2]), 0)
