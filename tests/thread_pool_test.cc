#include "common/thread_pool.h"

#include <atomic>
#include <numeric>
#include <stdexcept>
#include <vector>

#include "common/fault_injection.h"
#include "common/random.h"
#include "gtest/gtest.h"
#include "obs/metrics.h"
#include "obs/obs.h"

namespace soi {
namespace {

TEST(ThreadPoolTest, ParallelForCoversEveryIndexExactlyOnce) {
  for (int threads : {1, 2, 4, 8}) {
    ThreadPool pool(threads);
    std::vector<std::atomic<int>> hits(1000);
    for (auto& h : hits) h = 0;
    ParallelFor(&pool, 0, 1000, [&](int64_t i) {
      ++hits[static_cast<size_t>(i)];
    });
    for (const auto& h : hits) EXPECT_EQ(h, 1);
  }
}

TEST(ThreadPoolTest, ParallelForWithNullPoolRunsInline) {
  std::vector<int> out(100, 0);
  ParallelFor(nullptr, 0, 100, [&](int64_t i) {
    out[static_cast<size_t>(i)] = static_cast<int>(i) * 2;
  });
  for (int i = 0; i < 100; ++i) EXPECT_EQ(out[static_cast<size_t>(i)], i * 2);
}

TEST(ThreadPoolTest, EmptyAndReversedRangesAreNoOps) {
  ThreadPool pool(4);
  int calls = 0;
  ParallelFor(&pool, 0, 0, [&](int64_t) { ++calls; });
  ParallelFor(&pool, 5, 5, [&](int64_t) { ++calls; });
  ParallelFor(&pool, 10, 3, [&](int64_t) { ++calls; });
  ParallelForChunks(&pool, 7, 7, [&](int64_t, int64_t) { ++calls; });
  EXPECT_EQ(calls, 0);
}

TEST(ThreadPoolTest, ChunksPartitionTheRange) {
  ThreadPool pool(3);
  std::mutex mutex;
  std::vector<std::pair<int64_t, int64_t>> chunks;
  ParallelForChunks(&pool, 10, 110, [&](int64_t lo, int64_t hi) {
    std::lock_guard<std::mutex> lock(mutex);
    chunks.push_back({lo, hi});
  });
  std::sort(chunks.begin(), chunks.end());
  ASSERT_FALSE(chunks.empty());
  EXPECT_LE(chunks.size(), 3u);
  EXPECT_EQ(chunks.front().first, 10);
  EXPECT_EQ(chunks.back().second, 110);
  for (size_t i = 1; i < chunks.size(); ++i) {
    EXPECT_EQ(chunks[i].first, chunks[i - 1].second);
  }
}

TEST(ThreadPoolTest, PropagatesExceptionsAndStaysUsable) {
  ThreadPool pool(4);
  EXPECT_THROW(
      ParallelFor(&pool, 0, 100,
                  [&](int64_t i) {
                    if (i == 37) throw std::runtime_error("boom");
                  }),
      std::runtime_error);
  // Every chunk still ran to completion and the pool is reusable.
  std::atomic<int64_t> sum{0};
  ParallelFor(&pool, 0, 100, [&](int64_t i) { sum += i; });
  EXPECT_EQ(sum, 99 * 100 / 2);
}

TEST(ThreadPoolTest, PropagatesExceptionFromCallerChunkToo) {
  ThreadPool pool(2);
  EXPECT_THROW(ParallelFor(&pool, 0, 10,
                           [&](int64_t i) {
                             if (i == 0) throw std::logic_error("first");
                           }),
               std::logic_error);
}

TEST(ThreadPoolTest, NestedParallelForRunsInlineWithoutDeadlock) {
  ThreadPool pool(4);
  std::vector<int64_t> sums(8, 0);
  ParallelFor(&pool, 0, 8, [&](int64_t i) {
    EXPECT_TRUE(ThreadPool::InParallelRegion());
    // The nested loop must degrade to the sequential path (same pool or
    // any other), so plain non-atomic accumulation is safe.
    ParallelFor(&pool, 0, 100, [&](int64_t j) {
      sums[static_cast<size_t>(i)] += j;
    });
  });
  for (int64_t s : sums) EXPECT_EQ(s, 99 * 100 / 2);
  EXPECT_FALSE(ThreadPool::InParallelRegion());
}

TEST(ThreadPoolTest, ParallelSortMatchesStdSort) {
  Rng rng(42);
  std::vector<int64_t> values(50000);
  for (auto& v : values) v = static_cast<int64_t>(rng.UniformInt(
      static_cast<uint64_t>(10000)));
  auto cmp = [](int64_t a, int64_t b) { return a < b; };
  std::vector<int64_t> expected = values;
  std::sort(expected.begin(), expected.end(), cmp);
  for (int threads : {1, 2, 3, 4, 8}) {
    ThreadPool pool(threads);
    std::vector<int64_t> got = values;
    ParallelSort(&pool, got.begin(), got.end(), cmp);
    EXPECT_EQ(got, expected) << "threads=" << threads;
  }
}

// An injected chunk-dispatch fault must behave exactly like a thrown
// chunk body: siblings run to completion, the error reaches the caller,
// and the pool (and its queue-depth gauge) are left clean. Runs fully
// only under the `fault` preset; elsewhere it checks the happy path.
TEST(ThreadPoolTest, InjectedChunkFaultDoesNotTakeDownSiblingsOrPool) {
  fault::Registry::Global().Reset();
  ThreadPool pool(4);
  std::vector<std::atomic<int>> hits(64);
  for (auto& h : hits) h = 0;
  auto count_all = [&](int64_t i) { ++hits[static_cast<size_t>(i)]; };

  {
    // Fire on the second chunk dispatched, once.
    fault::FaultPlan plan;
    plan.after = 1;
    fault::ScopedFault armed("pool.run_chunk", plan);
    if (fault::kEnabled) {
      EXPECT_THROW(ParallelFor(&pool, 0, 64, count_all),
                   fault::FaultInjectedError);
      // Exactly one chunk was lost; the sibling chunks all completed.
      int64_t done = 0;
      for (const auto& h : hits) done += h;
      EXPECT_LT(done, 64);
      EXPECT_GE(done, 64 - (64 / 4 + 1));
      EXPECT_EQ(fault::Registry::Global().FireCount("pool.run_chunk"), 1);
    } else {
      ParallelFor(&pool, 0, 64, count_all);
      for (const auto& h : hits) EXPECT_EQ(h, 1);
    }
  }

  // The pool is not wedged: a follow-up loop covers every index.
  for (auto& h : hits) h = 0;
  ParallelFor(&pool, 0, 64, count_all);
  for (const auto& h : hits) EXPECT_EQ(h, 1);

  // All queued tasks were drained, faulted or not.
  obs::MetricsSnapshot snapshot = obs::Registry::Global().Snapshot();
  for (const obs::MetricsSnapshot::GaugeValue& gauge : snapshot.gauges) {
    if (gauge.name == "soi.pool.queue_depth") {
      EXPECT_EQ(gauge.value, 0);
    }
  }
}

TEST(ThreadPoolTest, ParallelSortSmallRangeFallsBack) {
  ThreadPool pool(4);
  std::vector<int> values = {5, 3, 9, 1};
  ParallelSort(&pool, values.begin(), values.end(),
               [](int a, int b) { return a < b; });
  EXPECT_EQ(values, (std::vector<int>{1, 3, 5, 9}));
}

}  // namespace
}  // namespace soi
