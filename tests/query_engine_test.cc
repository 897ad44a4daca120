#include "core/query_engine.h"

#include <atomic>
#include <cmath>
#include <condition_variable>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "common/random.h"
#include "common/string_util.h"
#include "common/thread_pool.h"
#include "core/soi_algorithm.h"
#include "gtest/gtest.h"
#include "obs/obs.h"
#include "test_util.h"

namespace soi {
namespace {

// A self-contained SOI instance (mirrors the soi_algorithm_test fixture).
struct Instance {
  RoadNetwork network;
  Vocabulary vocabulary;
  std::vector<Poi> pois;
  GridGeometry geometry;
  PoiGridIndex grid;
  GlobalInvertedIndex global_index;
  SegmentCellIndex segment_cells;

  Instance(uint64_t seed, double cell_size, int64_t num_pois,
           int32_t vocab_size)
      : network(testing_util::MakeGridNetwork(5, 5, 0.01)),
        pois(MakePois(seed, num_pois, vocab_size, &vocabulary)),
        geometry(network.bounds().Expanded(0.005), cell_size),
        grid(geometry.bounds(), cell_size, pois),
        global_index(grid),
        segment_cells(network, geometry) {}

  static std::vector<Poi> MakePois(uint64_t seed, int64_t n,
                                   int32_t vocab_size,
                                   Vocabulary* vocabulary) {
    Rng rng(seed);
    Box box = Box::FromCorners(Point{-0.004, -0.004}, Point{0.044, 0.044});
    return testing_util::RandomPois(box, n, vocab_size, vocabulary, &rng);
  }
};

// A mixed batch with repeated eps values (so the cache sees hits), varied
// keywords, and varied k.
std::vector<SoiQuery> MakeBatch(uint64_t seed, int count) {
  Rng rng(seed);
  const double eps_values[] = {0.0008, 0.002, 0.005};
  std::vector<SoiQuery> batch;
  for (int i = 0; i < count; ++i) {
    SoiQuery query;
    std::vector<KeywordId> keywords;
    int64_t nq = rng.UniformInt(1, 3);
    for (int64_t j = 0; j < nq; ++j) {
      keywords.push_back(static_cast<KeywordId>(rng.UniformInt(0, 7)));
    }
    query.keywords = KeywordSet(keywords);
    query.k = static_cast<int32_t>(rng.UniformInt(1, 10));
    query.eps = eps_values[rng.UniformInt(static_cast<uint64_t>(3))];
    batch.push_back(query);
  }
  return batch;
}

// Bit-identical comparison of two results: answer streets (ids, exact
// interest bits, best segment) and every thread-invariant stat. Timings
// are wall-clock and excluded.
void ExpectIdenticalResults(const SoiResult& got, const SoiResult& want,
                            const char* label) {
  SCOPED_TRACE(label);
  ASSERT_EQ(got.streets.size(), want.streets.size());
  for (size_t i = 0; i < got.streets.size(); ++i) {
    EXPECT_EQ(got.streets[i].street, want.streets[i].street) << "rank " << i;
    EXPECT_EQ(got.streets[i].interest, want.streets[i].interest)
        << "rank " << i;
    EXPECT_EQ(got.streets[i].best_segment, want.streets[i].best_segment)
        << "rank " << i;
  }
  EXPECT_EQ(got.stats.iterations, want.stats.iterations);
  EXPECT_EQ(got.stats.cells_popped, want.stats.cells_popped);
  EXPECT_EQ(got.stats.segments_popped, want.stats.segments_popped);
  EXPECT_EQ(got.stats.segments_seen, want.stats.segments_seen);
  EXPECT_EQ(got.stats.segments_finalized_in_refinement,
            want.stats.segments_finalized_in_refinement);
  EXPECT_EQ(got.stats.poi_distance_checks, want.stats.poi_distance_checks);
  EXPECT_EQ(got.stats.final_upper_bound, want.stats.final_upper_bound);
  EXPECT_EQ(got.stats.final_lower_bound, want.stats.final_lower_bound);
}

TEST(QueryEngineTest, RunBatchIsBitIdenticalToSequentialAtAnyThreadCount) {
  Instance instance(3, /*cell_size=*/0.003, /*num_pois=*/600,
                    /*vocab_size=*/8);
  std::vector<SoiQuery> batch = MakeBatch(17, 24);

  // The reference path: fresh sequential maps + sequential TopK per query.
  SoiAlgorithm sequential(instance.network, instance.grid,
                          instance.global_index);
  std::vector<SoiResult> expected;
  for (const SoiQuery& query : batch) {
    EpsAugmentedMaps maps(instance.segment_cells, query.eps);
    expected.push_back(sequential.TryTopK(query, maps).ValueOrDie());
  }

  for (int threads : {1, 2, 4}) {
    QueryEngineOptions options;
    options.num_threads = threads;
    QueryEngine engine(instance.network, instance.grid,
                       instance.global_index, instance.segment_cells,
                       options);
    std::vector<Result<SoiResult>> got = engine.TryRunBatch(batch);
    ASSERT_EQ(got.size(), expected.size());
    std::string label = "threads=" + std::to_string(threads);
    for (size_t i = 0; i < got.size(); ++i) {
      ExpectIdenticalResults(got[i].ValueOrDie(), expected[i],
                             (label + " query=" + std::to_string(i)).c_str());
    }
  }
}

TEST(QueryEngineTest, ParallelEpsAugmentationIsIdenticalToSequential) {
  Instance instance(5, 0.003, 400, 6);
  ThreadPool pool(4);
  for (double eps : {0.0, 0.0008, 0.003}) {
    EpsAugmentedMaps sequential(instance.segment_cells, eps);
    EpsAugmentedMaps parallel(instance.segment_cells, eps, &pool);
    for (SegmentId id = 0; id < instance.network.num_segments(); ++id) {
      EXPECT_EQ(parallel.SegmentCells(id), sequential.SegmentCells(id))
          << "segment " << id;
    }
    for (CellId cell = 0; cell < instance.geometry.num_cells(); ++cell) {
      EXPECT_EQ(parallel.CellSegments(cell), sequential.CellSegments(cell))
          << "cell " << cell;
    }
  }
}

TEST(QueryEngineTest, ParallelSegmentCellIndexIsIdenticalToSequential) {
  RoadNetwork network = testing_util::MakeGridNetwork(6, 6, 0.01);
  GridGeometry geometry(network.bounds().Expanded(0.005), 0.002);
  ThreadPool pool(4);
  SegmentCellIndex sequential(network, geometry);
  SegmentCellIndex parallel(network, geometry, &pool);
  for (SegmentId id = 0; id < network.num_segments(); ++id) {
    EXPECT_EQ(parallel.SegmentCells(id), sequential.SegmentCells(id));
  }
  for (CellId cell = 0; cell < geometry.num_cells(); ++cell) {
    EXPECT_EQ(parallel.CellSegments(cell), sequential.CellSegments(cell));
  }
}

TEST(QueryEngineTest, CacheMemoizesPerEps) {
  Instance instance(7, 0.003, 300, 6);
  QueryEngineOptions options;
  options.num_threads = 1;
  QueryEngine engine(instance.network, instance.grid, instance.global_index,
                     instance.segment_cells, options);

  auto a = engine.TryGetMaps(0.001).ValueOrDie();
  auto b = engine.TryGetMaps(0.001).ValueOrDie();
  auto c = engine.TryGetMaps(0.002).ValueOrDie();
  EXPECT_EQ(a.get(), b.get());  // same memoized maps object
  EXPECT_NE(a.get(), c.get());
  QueryEngine::CacheStats stats = engine.cache_stats();
  EXPECT_EQ(stats.hits, 1);
  EXPECT_EQ(stats.misses, 2);
  EXPECT_EQ(stats.evictions, 0);
}

TEST(QueryEngineTest, CacheEvictsLeastRecentlyUsedAtCapacity) {
  Instance instance(9, 0.003, 300, 6);
  QueryEngineOptions options;
  options.num_threads = 1;
  options.eps_cache_capacity = 2;
  QueryEngine engine(instance.network, instance.grid, instance.global_index,
                     instance.segment_cells, options);

  auto a = engine.TryGetMaps(0.001).ValueOrDie();  // miss
  std::weak_ptr<const EpsAugmentedMaps> b =
      engine.TryGetMaps(0.002).ValueOrDie();       // miss
  engine.TryGetMaps(0.001).ValueOrDie();           // hit; 0.002 becomes LRU
  engine.TryGetMaps(0.003).ValueOrDie();           // miss, evicts 0.002
  EXPECT_EQ(engine.cache_stats().evictions, 1);
  // Unreferenced evicted maps are freed: no cache entry, build future or
  // retired hit-table generation keeps them alive.
  EXPECT_TRUE(b.expired());
  auto a2 = engine.TryGetMaps(0.001).ValueOrDie();  // still cached
  EXPECT_EQ(a.get(), a2.get());
  EXPECT_EQ(engine.cache_stats().hits, 2);
  engine.TryGetMaps(0.002).ValueOrDie();  // was evicted: a fresh miss
  EXPECT_EQ(engine.cache_stats().misses, 4);
  // The evicted shared_ptr handed out earlier remains valid for holders.
  EXPECT_EQ(a->eps(), 0.001);
}

// Regression test for in-flight eviction: at capacity 1, an insert for a
// second eps used to evict the entry whose build was still running,
// detaching the shared future concurrent same-eps requesters join on and
// forcing duplicate builds. In-flight entries are now exempt. The
// build_observer hook makes the race deterministic: the first build is
// held in flight while the eviction pressure and the concurrent same-eps
// request happen.
TEST(QueryEngineTest, EvictionExemptsInFlightBuilds) {
  Instance instance(13, 0.003, 300, 6);
  constexpr double kHotEps = 0.001;
  constexpr double kPressureEps = 0.002;

  std::mutex mutex;
  std::condition_variable cv;
  bool hot_started = false;
  bool release_hot = false;
  std::atomic<int> hot_builds{0};

  QueryEngineOptions options;
  options.num_threads = 1;
  options.eps_cache_capacity = 1;
  options.build_observer = [&](double eps) {
    if (eps != kHotEps) return;
    hot_builds.fetch_add(1);
    std::unique_lock<std::mutex> lock(mutex);
    hot_started = true;
    cv.notify_all();
    cv.wait(lock, [&] { return release_hot; });
  };
  QueryEngine engine(instance.network, instance.grid, instance.global_index,
                     instance.segment_cells, options);

  std::thread builder([&] { engine.TryGetMaps(kHotEps).ValueOrDie(); });
  {
    std::unique_lock<std::mutex> lock(mutex);
    cv.wait(lock, [&] { return hot_started; });
  }
  // The hot build is in flight and the cache is at capacity. This insert
  // must NOT evict it (the cache briefly exceeds capacity instead).
  engine.TryGetMaps(kPressureEps).ValueOrDie();

  // A concurrent same-eps request must join the in-flight build (a hit),
  // not start a second one.
  std::thread joiner([&] { engine.TryGetMaps(kHotEps).ValueOrDie(); });
  while (engine.cache_stats().hits < 1) {
    std::this_thread::yield();
  }
  {
    std::unique_lock<std::mutex> lock(mutex);
    release_hot = true;
    cv.notify_all();
  }
  builder.join();
  joiner.join();

  EXPECT_EQ(hot_builds.load(), 1)
      << "in-flight entry was evicted and rebuilt";
  EXPECT_EQ(engine.cache_stats().evictions, 0);
  // Completed entries are evictable again: a third eps now evicts the
  // LRU completed one.
  engine.TryGetMaps(0.003).ValueOrDie();
  EXPECT_GE(engine.cache_stats().evictions, 1);
}

// The non-deterministic companion: hammer one eps from many threads at
// capacity 1 with occasional distinct-eps eviction pressure. Every hot
// rebuild requires its completed entry to have been evicted by a
// pressure insert first, so hot builds are bounded by pressure builds +
// 1; evicting in-flight builds breaks that bound (and used to).
TEST(QueryEngineTest, HammeringOneEpsAtCapacityOneNeverDuplicatesBuilds) {
  Instance instance(15, 0.003, 200, 6);
  constexpr double kHotEps = 0.001;
  std::atomic<int> hot_builds{0};
  std::atomic<int> pressure_builds{0};

  QueryEngineOptions options;
  options.num_threads = 1;
  options.eps_cache_capacity = 1;
  options.build_observer = [&](double eps) {
    (eps == kHotEps ? hot_builds : pressure_builds).fetch_add(1);
  };
  QueryEngine engine(instance.network, instance.grid, instance.global_index,
                     instance.segment_cells, options);

  constexpr int kThreads = 8;
  constexpr int kIterations = 25;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      for (int i = 0; i < kIterations; ++i) {
        if (t == 0 && i % 5 == 4) {
          // Eviction pressure: a distinct eps per round so it always
          // misses and inserts over the hot entry's slot.
          auto maps = engine.TryGetMaps(0.002 + i * 0.0001).ValueOrDie();
          ASSERT_NE(maps, nullptr);
        } else {
          auto maps = engine.TryGetMaps(kHotEps).ValueOrDie();
          ASSERT_NE(maps, nullptr);
          EXPECT_EQ(maps->eps(), kHotEps);
        }
      }
    });
  }
  for (std::thread& thread : threads) thread.join();

  EXPECT_LE(hot_builds.load(), pressure_builds.load() + 1)
      << "more hot rebuilds than eviction pressure can explain: an "
         "in-flight build was evicted";
}

TEST(QueryEngineTest, WarmStartSeedsTheCacheWithoutCountingMisses) {
  Instance instance(17, 0.003, 300, 6);
  auto a = std::make_shared<const EpsAugmentedMaps>(instance.segment_cells,
                                                    0.001);
  auto b = std::make_shared<const EpsAugmentedMaps>(instance.segment_cells,
                                                    0.002);
  QueryEngineOptions options;
  options.eps_cache_capacity = 2;
  QueryEngine engine(instance.network, instance.grid, instance.global_index,
                     instance.segment_cells, options, {a, b});

  EXPECT_EQ(engine.cache_size(), 2u);
  EXPECT_EQ(engine.cache_stats().hits, 0);
  EXPECT_EQ(engine.cache_stats().misses, 0);

  // Both eps serve from the seeded maps (the identical objects).
  EXPECT_EQ(engine.TryGetMaps(0.001).ValueOrDie().get(), a.get());
  EXPECT_EQ(engine.TryGetMaps(0.002).ValueOrDie().get(), b.get());
  EXPECT_EQ(engine.cache_stats().hits, 2);
  EXPECT_EQ(engine.cache_stats().misses, 0);

  // Seeded entries participate in LRU like any completed entry.
  engine.TryGetMaps(0.001).ValueOrDie();            // 0.002 becomes LRU
  engine.TryGetMaps(0.003).ValueOrDie();            // evicts 0.002
  EXPECT_EQ(engine.cache_stats().evictions, 1);
  EXPECT_EQ(engine.TryGetMaps(0.001).ValueOrDie().get(), a.get());
}

// Pins the warm-start eviction order deterministically: untouched
// pre-seeded entries are evictable in seeding (insertion) order — the
// first-seeded map is the LRU entry the first capacity miss pushes out,
// while later seeds and any subsequently-touched entries survive.
TEST(QueryEngineTest, WarmStartSeedsEvictInInsertionOrderWhenUntouched) {
  Instance instance(35, 0.003, 300, 6);
  auto a = std::make_shared<const EpsAugmentedMaps>(instance.segment_cells,
                                                    0.001);
  auto b = std::make_shared<const EpsAugmentedMaps>(instance.segment_cells,
                                                    0.002);
  auto c = std::make_shared<const EpsAugmentedMaps>(instance.segment_cells,
                                                    0.003);
  QueryEngineOptions options;
  options.eps_cache_capacity = 3;
  QueryEngine engine(instance.network, instance.grid, instance.global_index,
                     instance.segment_cells, options, {a, b, c});
  EXPECT_EQ(engine.cache_size(), 3u);

  // One capacity miss with every seed untouched: exactly the
  // first-seeded entry (a) is evicted.
  engine.TryGetMaps(0.004).ValueOrDie();
  EXPECT_EQ(engine.cache_stats().evictions, 1);
  EXPECT_EQ(engine.TryGetMaps(0.002).ValueOrDie().get(), b.get());
  EXPECT_EQ(engine.TryGetMaps(0.003).ValueOrDie().get(), c.get());
  // a is gone: the same eps now rebuilds a fresh object (a second
  // eviction — of the now-LRU 0.004 entry — makes room).
  EXPECT_NE(engine.TryGetMaps(0.001).ValueOrDie().get(), a.get());
  EXPECT_EQ(engine.cache_stats().evictions, 2);
  // The evicted seed handed out at construction stays valid for holders.
  EXPECT_EQ(a->eps(), 0.001);
}

TEST(QueryEngineTest, WarmStartServesBitIdenticalToColdEngine) {
  Instance instance(19, 0.003, 400, 6);
  std::vector<SoiQuery> batch = MakeBatch(29, 12);
  auto preloaded = std::make_shared<const EpsAugmentedMaps>(
      instance.segment_cells, 0.0008);

  QueryEngineOptions options;
  options.num_threads = 2;
  QueryEngine cold(instance.network, instance.grid, instance.global_index,
                   instance.segment_cells, options);
  QueryEngine warm(instance.network, instance.grid, instance.global_index,
                   instance.segment_cells, options, {preloaded});
  std::vector<Result<SoiResult>> want = cold.TryRunBatch(batch);
  std::vector<Result<SoiResult>> got = warm.TryRunBatch(batch);
  ASSERT_EQ(got.size(), want.size());
  for (size_t i = 0; i < got.size(); ++i) {
    ExpectIdenticalResults(got[i].ValueOrDie(), want[i].ValueOrDie(),
                           "warm-vs-cold");
  }
}

// The engine filters eps up to two grid cells (0.006 here) from its
// near-cell superset and builds larger eps from geometry. Maps and
// answers just below, at and just above that cap are bit-identical to the
// sequential reference over freshly built maps.
TEST(QueryEngineTest, AnswersAroundTheNearCellCapMatchFreshMaps) {
  Instance instance(41, 0.003, 500, 6);
  const double cap = 2 * instance.geometry.cell_size();
  SoiAlgorithm sequential(instance.network, instance.grid,
                          instance.global_index);
  QueryEngineOptions options;
  options.num_threads = 2;
  QueryEngine engine(instance.network, instance.grid, instance.global_index,
                     instance.segment_cells, options);
  for (double eps : {std::nextafter(cap, 0.0), cap, std::nextafter(cap, 1.0)}) {
    const std::string label = "eps " + FormatDouble(eps);
    EpsAugmentedMaps fresh(instance.segment_cells, eps);
    std::shared_ptr<const EpsAugmentedMaps> maps =
        engine.TryGetMaps(eps).ValueOrDie();
    EXPECT_EQ(maps->segment_cells(), fresh.segment_cells()) << label;
    EXPECT_EQ(maps->SegmentsByCellCount(), fresh.SegmentsByCellCount())
        << label;
    for (SoiQuery query : MakeBatch(43, 6)) {
      query.eps = eps;
      ExpectIdenticalResults(engine.TryRun(query).ValueOrDie(),
                             sequential.TryTopK(query, fresh).ValueOrDie(),
                             label.c_str());
    }
  }
}

// Distinct-eps misses within the cap, concurrent ones included, share one
// superset build.
TEST(QueryEngineTest, DistinctEpsMissesShareOneNearCellBuild) {
  Instance instance(43, 0.003, 300, 6);
  QueryEngineOptions options;
  options.num_threads = 4;
  options.eps_cache_capacity = 2;
  QueryEngine engine(instance.network, instance.grid, instance.global_index,
                     instance.segment_cells, options);
  obs::MetricsSnapshot before = obs::Registry::Global().Snapshot();
  std::vector<SoiQuery> batch = MakeBatch(47, 8);
  for (size_t i = 0; i < batch.size(); ++i) {
    batch[i].eps = 0.0005 * static_cast<double>(i + 1);  // up to 0.004
  }
  for (const Result<SoiResult>& result : engine.TryRunBatch(batch)) {
    ASSERT_TRUE(result.ok());
  }
  for (int i = 1; i <= 11; ++i) {  // up to 0.00551
    ASSERT_TRUE(engine.TryGetMaps(0.0005 * i + 0.00001).ok());
  }
  obs::MetricsSnapshot delta =
      obs::Registry::Global().Snapshot().Since(before);
  EXPECT_EQ(engine.cache_stats().misses, 19);
  EXPECT_EQ(delta.CounterOr0("soi.index.near_cells_builds"), 1);
}

// A warm-started engine that only serves its preloaded eps never misses,
// so it never builds the superset.
TEST(QueryEngineTest, WarmEngineServingPreloadedEpsBuildsNoNearCells) {
  Instance instance(45, 0.003, 400, 6);
  auto a = std::make_shared<const EpsAugmentedMaps>(instance.segment_cells,
                                                    0.0008);
  auto b = std::make_shared<const EpsAugmentedMaps>(instance.segment_cells,
                                                    0.002);
  QueryEngineOptions options;
  options.num_threads = 2;
  obs::MetricsSnapshot before = obs::Registry::Global().Snapshot();
  QueryEngine engine(instance.network, instance.grid, instance.global_index,
                     instance.segment_cells, options, {a, b});
  std::vector<SoiQuery> batch = MakeBatch(49, 12);
  for (size_t i = 0; i < batch.size(); ++i) {
    batch[i].eps = i % 2 == 0 ? 0.0008 : 0.002;
  }
  for (const Result<SoiResult>& result : engine.TryRunBatch(batch)) {
    ASSERT_TRUE(result.ok());
  }
  obs::MetricsSnapshot delta =
      obs::Registry::Global().Snapshot().Since(before);
  EXPECT_EQ(engine.cache_stats().misses, 0);
  EXPECT_EQ(delta.CounterOr0("soi.index.near_cells_builds"), 0);
}

TEST(QueryEngineTest, BatchCoalescesDuplicatesBitIdentically) {
  Instance instance(21, 0.003, 400, 8);
  // Three distinct queries, each duplicated (the third twice more), in an
  // interleaved order.
  std::vector<SoiQuery> unique_queries = MakeBatch(31, 3);
  std::vector<SoiQuery> batch = {
      unique_queries[0], unique_queries[1], unique_queries[0],
      unique_queries[2], unique_queries[2], unique_queries[1],
      unique_queries[2]};

  // Per-query reference through a separate engine (no batch, nothing to
  // coalesce).
  QueryEngineOptions options;
  options.num_threads = 2;
  QueryEngine reference_engine(instance.network, instance.grid,
                               instance.global_index,
                               instance.segment_cells, options);
  std::vector<SoiResult> expected;
  for (const SoiQuery& query : batch) {
    expected.push_back(reference_engine.TryRun(query).ValueOrDie());
  }

  QueryEngine engine(instance.network, instance.grid, instance.global_index,
                     instance.segment_cells, options);
  obs::MetricsSnapshot before = obs::Registry::Global().Snapshot();
  std::vector<Result<SoiResult>> got = engine.TryRunBatch(batch);
  obs::MetricsSnapshot delta =
      obs::Registry::Global().Snapshot().Since(before);
  ASSERT_EQ(got.size(), batch.size());
  for (size_t i = 0; i < got.size(); ++i) {
    ASSERT_TRUE(got[i].ok()) << "query " << i;
    ExpectIdenticalResults(got[i].ValueOrDie(), expected[i],
                           ("query=" + std::to_string(i)).c_str());
  }
  // 7 entries, 3 unique: 4 coalesced duplicates.
  EXPECT_EQ(delta.CounterOr0("soi.engine.batch_coalesced"), 4);
}

// Regression test for coalesced-group admission: a coalesced duplicate
// used to ride its leader's single in-flight slot, so a batch of N
// identical queries only charged 1 against max_inflight_queries —
// letting a bounded engine evaluate unbounded logical load. Admission is
// now per logical query: each duplicate claims its own slot (in input
// order) for the duration of the shared evaluation, and members beyond
// the bound are shed individually with kResourceExhausted while the
// admitted ones still share one evaluation.
TEST(QueryEngineTest, CoalescedGroupsChargeAdmissionPerLogicalQuery) {
  Instance instance(33, 0.003, 300, 6);
  QueryEngineOptions options;
  options.num_threads = 2;
  options.max_inflight_queries = 3;
  std::atomic<int> builds{0};
  options.build_observer = [&](double) { builds.fetch_add(1); };
  QueryEngine engine(instance.network, instance.grid, instance.global_index,
                     instance.segment_cells, options);

  SoiQuery query;
  query.keywords = KeywordSet({0, 1});
  query.k = 5;
  query.eps = 0.002;

  // Exactly at the bound: all three logical queries fit, nothing is
  // shed, and the group still evaluates (and builds) only once.
  std::vector<SoiQuery> at_bound(3, query);
  std::vector<Result<SoiResult>> got = engine.TryRunBatch(at_bound);
  ASSERT_EQ(got.size(), 3u);
  for (size_t i = 0; i < got.size(); ++i) {
    ASSERT_TRUE(got[i].ok()) << "query " << i << ": "
                             << got[i].status().ToString();
  }
  EXPECT_EQ(builds.load(), 1);
  SoiResult want = got[0].ValueOrDie();

  // Above the bound: the first three members (input order) are admitted
  // and share the evaluation; the fourth and fifth are shed with the
  // typed admission error — not silently admitted for free.
  std::vector<SoiQuery> over_bound(5, query);
  got = engine.TryRunBatch(over_bound);
  ASSERT_EQ(got.size(), 5u);
  for (size_t i = 0; i < 3; ++i) {
    ASSERT_TRUE(got[i].ok()) << "query " << i << ": "
                             << got[i].status().ToString();
    ExpectIdenticalResults(got[i].ValueOrDie(), want,
                           ("admitted=" + std::to_string(i)).c_str());
  }
  for (size_t i = 3; i < 5; ++i) {
    ASSERT_FALSE(got[i].ok()) << "query " << i;
    EXPECT_EQ(got[i].status().code(), StatusCode::kResourceExhausted)
        << "query " << i;
    // The in-flight count its own claim observed: 4, then 5.
    std::string shed = "shed: " + std::to_string(i + 1) + " in-flight";
    EXPECT_NE(got[i].status().message().find(shed), std::string::npos)
        << got[i].status().ToString();
  }
  // The shared evaluation served from the warm cache: still one build.
  EXPECT_EQ(builds.load(), 1);
}

TEST(QueryEngineTest, PerQueryTokensDisableCoalescing) {
  Instance instance(23, 0.003, 300, 6);
  QueryEngineOptions options;
  options.num_threads = 1;
  QueryEngine engine(instance.network, instance.grid, instance.global_index,
                     instance.segment_cells, options);

  // Two identical queries with independent tokens, the second already
  // fired: were they coalesced onto one evaluation, the fired token
  // could not produce its per-query kCancelled.
  std::vector<SoiQuery> batch = MakeBatch(41, 1);
  batch.push_back(batch.front());
  std::vector<CancellationToken> cancels = {
      CancellationToken::Cancellable(), CancellationToken::Cancellable()};
  cancels[1].Cancel();
  std::vector<Result<SoiResult>> got = engine.TryRunBatch(batch, cancels);
  ASSERT_EQ(got.size(), 2u);
  EXPECT_TRUE(got[0].ok());
  ASSERT_FALSE(got[1].ok());
  EXPECT_EQ(got[1].status().code(), StatusCode::kCancelled);
}

TEST(QueryEngineTest, ConcurrentWarmCacheHitsServeOneMapsObject) {
  Instance instance(27, 0.003, 300, 6);
  QueryEngineOptions options;
  options.num_threads = 4;
  QueryEngine engine(instance.network, instance.grid, instance.global_index,
                     instance.segment_cells, options);
  SoiQuery query = MakeBatch(51, 1).front();
  // Warms the cache (one miss).
  SoiResult expected = engine.TryRun(query).ValueOrDie();

  // Hammer the warm entry from many threads: every lookup must resolve
  // on the contention-free snapshot path against the one cached maps
  // object (no rebuilds — miss count stays 1), bit-identically.
  constexpr int kThreads = 8;
  constexpr int kPerThread = 4;
  std::shared_ptr<const EpsAugmentedMaps> maps =
      engine.TryGetMaps(query.eps).ValueOrDie();
  std::vector<std::thread> workers;
  std::vector<Status> failures(kThreads, Status::OK());
  for (int t = 0; t < kThreads; ++t) {
    workers.emplace_back([&, t] {
      for (int i = 0; i < kPerThread; ++i) {
        auto got_maps = engine.TryGetMaps(query.eps);
        if (!got_maps.ok()) {
          failures[static_cast<size_t>(t)] = got_maps.status();
          return;
        }
        if (got_maps.ValueOrDie().get() != maps.get()) {
          failures[static_cast<size_t>(t)] =
              Status::Internal("hit returned a different maps object");
          return;
        }
        auto result = engine.TryRun(query);
        if (!result.ok()) {
          failures[static_cast<size_t>(t)] = result.status();
          return;
        }
      }
    });
  }
  for (std::thread& worker : workers) worker.join();
  for (const Status& status : failures) EXPECT_TRUE(status.ok());
  QueryEngine::CacheStats stats = engine.cache_stats();
  EXPECT_EQ(stats.misses, 1);
  EXPECT_EQ(stats.evictions, 0);
  EXPECT_GE(stats.hits, kThreads * kPerThread);
  ExpectIdenticalResults(engine.TryRun(query).ValueOrDie(), expected,
                         "after hammering");
}

TEST(QueryEngineTest, SingleRunMatchesBatch) {
  Instance instance(11, 0.003, 400, 6);
  std::vector<SoiQuery> batch = MakeBatch(23, 6);
  QueryEngineOptions options;
  options.num_threads = 2;
  QueryEngine engine(instance.network, instance.grid, instance.global_index,
                     instance.segment_cells, options);
  std::vector<Result<SoiResult>> batched = engine.TryRunBatch(batch);
  for (size_t i = 0; i < batch.size(); ++i) {
    SoiResult single = engine.TryRun(batch[i]).ValueOrDie();
    ExpectIdenticalResults(single, batched[i].ValueOrDie(), "single-vs-batch");
  }
}

}  // namespace
}  // namespace soi
