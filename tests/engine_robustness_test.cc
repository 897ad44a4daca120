// Robustness tests for the hardened serving path (DESIGN.md "Failure
// model"): admission validation, deadlines/cancellation, overload
// shedding, and recovery from injected faults. The fault-dependent tests
// run fully only under -DSOI_FAULT_INJECTION=ON (the `fault` preset) and
// degrade to checking the happy path elsewhere.

#include <cmath>
#include <limits>
#include <string>
#include <vector>

#include "common/cancellation.h"
#include "common/fault_injection.h"
#include "common/random.h"
#include "core/query_engine.h"
#include "core/soi_algorithm.h"
#include "gtest/gtest.h"
#include "obs/metrics.h"
#include "obs/obs.h"
#include "test_util.h"

namespace soi {
namespace {

// A self-contained SOI instance (mirrors the query_engine_test fixture).
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

SoiQuery ValidQuery(double eps = 0.002) {
  SoiQuery query;
  query.keywords = KeywordSet({0, 1});
  query.k = 3;
  query.eps = eps;
  return query;
}

void ExpectIdenticalResults(const SoiResult& got, const SoiResult& want,
                            const std::string& label) {
  SCOPED_TRACE(label);
  ASSERT_EQ(got.streets.size(), want.streets.size());
  for (size_t i = 0; i < got.streets.size(); ++i) {
    EXPECT_EQ(got.streets[i].street, want.streets[i].street);
    EXPECT_EQ(got.streets[i].interest, want.streets[i].interest);
    EXPECT_EQ(got.streets[i].best_segment, want.streets[i].best_segment);
  }
  EXPECT_EQ(got.stats.iterations, want.stats.iterations);
  EXPECT_EQ(got.stats.segments_seen, want.stats.segments_seen);
  EXPECT_EQ(got.stats.poi_distance_checks, want.stats.poi_distance_checks);
}

TEST(EngineRobustnessTest, QueryValidationRejectsMalformedQueries) {
  SoiQuery query = ValidQuery();
  EXPECT_TRUE(query.Validate().ok());

  SoiQuery nan_eps = ValidQuery(std::nan(""));
  EXPECT_EQ(nan_eps.Validate().code(), StatusCode::kInvalidArgument);
  SoiQuery inf_eps = ValidQuery(std::numeric_limits<double>::infinity());
  EXPECT_EQ(inf_eps.Validate().code(), StatusCode::kInvalidArgument);
  SoiQuery negative_eps = ValidQuery(-0.001);
  EXPECT_EQ(negative_eps.Validate().code(), StatusCode::kInvalidArgument);
  SoiQuery zero_eps = ValidQuery(0.0);
  EXPECT_EQ(zero_eps.Validate().code(), StatusCode::kInvalidArgument);

  SoiQuery bad_k = ValidQuery();
  bad_k.k = 0;
  EXPECT_EQ(bad_k.Validate().code(), StatusCode::kInvalidArgument);
  bad_k.k = -5;
  EXPECT_EQ(bad_k.Validate().code(), StatusCode::kInvalidArgument);

  SoiQuery no_keywords = ValidQuery();
  no_keywords.keywords = KeywordSet();
  EXPECT_EQ(no_keywords.Validate().code(), StatusCode::kInvalidArgument);
}

// The NaN regression of the eps-keyed cache: NaN != NaN, so a NaN key
// would miss (and insert a fresh entry) on every lookup. Validation must
// reject the query before the cache is ever consulted.
TEST(EngineRobustnessTest, NanEpsNeverBecomesACacheKey) {
  Instance instance(3, 0.003, 300, 6);
  QueryEngine engine(instance.network, instance.grid, instance.global_index,
                     instance.segment_cells);

  SoiQuery nan_query = ValidQuery(std::nan(""));
  for (int i = 0; i < 3; ++i) {
    Result<SoiResult> result = engine.TryRun(nan_query);
    ASSERT_FALSE(result.ok());
    EXPECT_EQ(result.status().code(), StatusCode::kInvalidArgument);
  }
  EXPECT_EQ(engine.cache_size(), 0u);
  EXPECT_EQ(engine.cache_stats().misses, 0);

  // The engine is untouched: a valid query works and caches normally.
  EXPECT_TRUE(engine.TryRun(ValidQuery()).ok());
  EXPECT_EQ(engine.cache_size(), 1u);
}

TEST(EngineRobustnessTest, ExpiredDeadlineReturnsDeadlineExceeded) {
  Instance instance(5, 0.003, 300, 6);
  QueryEngine engine(instance.network, instance.grid, instance.global_index,
                     instance.segment_cells);

  obs::MetricsSnapshot before = obs::Registry::Global().Snapshot();
  CancellationToken expired = CancellationToken::WithDeadline(-1.0);
  Result<SoiResult> result = engine.TryRun(ValidQuery(), expired);
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kDeadlineExceeded);
  obs::MetricsSnapshot delta =
      obs::Registry::Global().Snapshot().Since(before);
  EXPECT_EQ(delta.CounterOr0("soi.engine.deadline_exceeded"), 1);

  // An expired deadline observed during the maps build (TryGetMaps) must
  // not leave a half-built cache entry behind. This is the engine's first
  // miss, and 0.004 is within the near-cell cap (two 0.003 cells), so the
  // expired token also aborts the superset build.
  before = obs::Registry::Global().Snapshot();
  auto maps = engine.TryGetMaps(0.004, &expired);
  ASSERT_FALSE(maps.ok());
  EXPECT_EQ(maps.status().code(), StatusCode::kDeadlineExceeded);
  EXPECT_EQ(engine.cache_size(), 0u);
  delta = obs::Registry::Global().Snapshot().Since(before);
  EXPECT_EQ(delta.CounterOr0("soi.index.near_cells_builds"), 0);

  // The same eps builds fine afterwards, superset included: the failed
  // attempt kept none to reuse.
  EXPECT_TRUE(engine.TryGetMaps(0.004).ok());
  EXPECT_EQ(engine.cache_size(), 1u);
  delta = obs::Registry::Global().Snapshot().Since(before);
  EXPECT_EQ(delta.CounterOr0("soi.index.near_cells_builds"), 1);
}

TEST(EngineRobustnessTest, CancellationMidFilteringReturnsCancelled) {
  Instance instance(7, 0.003, 400, 6);
  CancellationToken token = CancellationToken::Cancellable();
  QueryEngineOptions options;
  // Cancel from inside the filtering loop via the per-iteration observer:
  // deterministic, no timing dependence.
  options.algorithm.observer =
      [token](const SoiAlgorithmOptions::FilterSnapshot&) {
        token.Cancel();
      };
  QueryEngine engine(instance.network, instance.grid, instance.global_index,
                     instance.segment_cells, options);

  Result<SoiResult> result = engine.TryRun(ValidQuery(), token);
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kCancelled);

  // The engine survives: the same query re-runs fine without the token.
  EXPECT_TRUE(engine.TryRun(ValidQuery()).ok());
}

TEST(EngineRobustnessTest, RunBatchSuccessPathIsUnchangedByHardening) {
  Instance instance(9, 0.003, 400, 6);
  SoiAlgorithm sequential(instance.network, instance.grid,
                          instance.global_index);
  SoiQuery query = ValidQuery();
  EpsAugmentedMaps maps(instance.segment_cells, query.eps);
  SoiResult expected = sequential.TryTopK(query, maps).ValueOrDie();

  QueryEngineOptions options;
  options.num_threads = 4;
  QueryEngine engine(instance.network, instance.grid, instance.global_index,
                     instance.segment_cells, options);
  Result<SoiResult> tried = engine.TryRun(query);
  ASSERT_TRUE(tried.ok()) << tried.status().ToString();
  ExpectIdenticalResults(tried.ValueOrDie(), expected, "TryRun");
}

TEST(EngineRobustnessTest, SheddingBeyondMaxInflight) {
  Instance instance(11, 0.003, 300, 6);
  QueryEngineOptions options;
  options.num_threads = 4;
  options.max_inflight_queries = 1;
  QueryEngine engine(instance.network, instance.grid, instance.global_index,
                     instance.segment_cells, options);

  // Distinct queries (distinct k) so none coalesce: admission is pure
  // first-come-first-served racing, not the per-logical-query group
  // charge (that path has its own test in query_engine_test.cc).
  std::vector<SoiQuery> batch;
  for (int i = 0; i < 8; ++i) {
    SoiQuery query = ValidQuery();
    query.k = 1 + i;
    batch.push_back(query);
  }
  std::vector<Result<SoiResult>> results = engine.TryRunBatch(batch);
  ASSERT_EQ(results.size(), batch.size());
  int ok = 0, shed = 0;
  for (const Result<SoiResult>& result : results) {
    if (result.ok()) {
      ++ok;
    } else {
      EXPECT_EQ(result.status().code(), StatusCode::kResourceExhausted);
      ++shed;
    }
  }
  // Admission is first-come-first-served under a racing batch, so the
  // split is nondeterministic — but at least one query is always
  // admitted, and every query gets exactly one of the two outcomes.
  EXPECT_GE(ok, 1);
  EXPECT_EQ(ok + shed, static_cast<int>(batch.size()));

  // A sequential engine under the same bound never sheds distinct
  // queries: they run one at a time, each within the in-flight limit.
  QueryEngineOptions sequential_options;
  sequential_options.max_inflight_queries = 1;
  QueryEngine sequential_engine(instance.network, instance.grid,
                                instance.global_index,
                                instance.segment_cells, sequential_options);
  for (const Result<SoiResult>& result :
       sequential_engine.TryRunBatch(batch)) {
    EXPECT_TRUE(result.ok());
  }
}

// The acceptance scenario of this PR: one batch mixing healthy queries,
// invalid queries, an expired-deadline query, and (under the fault
// preset) an injected eps-cache build fault. Failed entries report their
// per-query Status; healthy entries are bit-identical to the sequential
// reference; the engine and its cache stay clean throughout.
TEST(EngineRobustnessTest, MixedBatchReturnsPerQueryStatuses) {
  fault::Registry::Global().Reset();
  Instance instance(13, 0.003, 500, 8);

  const double kFaultedEps = 0.005;
  std::vector<SoiQuery> batch;
  std::vector<CancellationToken> cancels;
  // Indices 0-5: healthy, two eps values exercising the cache.
  for (int i = 0; i < 6; ++i) {
    SoiQuery query = ValidQuery(i % 2 == 0 ? 0.002 : 0.0008);
    query.keywords = KeywordSet({static_cast<KeywordId>(i % 4),
                                 static_cast<KeywordId>((i + 1) % 4)});
    query.k = 2 + i % 3;
    batch.push_back(query);
    cancels.push_back(CancellationToken());
  }
  // Index 6: NaN eps (invalid).
  batch.push_back(ValidQuery(std::nan("")));
  cancels.push_back(CancellationToken());
  // Index 7: k = 0 (invalid).
  SoiQuery bad_k = ValidQuery();
  bad_k.k = 0;
  batch.push_back(bad_k);
  cancels.push_back(CancellationToken());
  // Index 8: expired deadline.
  batch.push_back(ValidQuery(0.003));
  cancels.push_back(CancellationToken::WithDeadline(-1.0));
  // Index 9: targets the faulted eps — under the fault preset its maps
  // build fails once (kInternal); elsewhere it behaves like a healthy
  // query.
  SoiQuery faulted = ValidQuery(kFaultedEps);
  batch.push_back(faulted);
  cancels.push_back(CancellationToken());

  // Sequential reference for every structurally valid query.
  SoiAlgorithm sequential(instance.network, instance.grid,
                          instance.global_index);
  auto reference = [&](const SoiQuery& query) {
    EpsAugmentedMaps maps(instance.segment_cells, query.eps);
    return sequential.TryTopK(query, maps).ValueOrDie();
  };

  for (int threads : {1, 4}) {
    SCOPED_TRACE("threads=" + std::to_string(threads));
    QueryEngineOptions options;
    options.num_threads = threads;
    QueryEngine engine(instance.network, instance.grid,
                       instance.global_index, instance.segment_cells,
                       options);
    fault::ScopedFault armed("cache.build_maps", fault::FaultPlan{});

    std::vector<Result<SoiResult>> results =
        engine.TryRunBatch(batch, cancels);
    ASSERT_EQ(results.size(), batch.size());

    EXPECT_EQ(results[6].status().code(), StatusCode::kInvalidArgument);
    EXPECT_EQ(results[7].status().code(), StatusCode::kInvalidArgument);
    EXPECT_EQ(results[8].status().code(), StatusCode::kDeadlineExceeded);

    // The structurally valid queries (0-5 and 9): under the fault preset
    // exactly one absorbs the injected build fault (whichever triggered
    // the first maps build — scheduling-dependent) and reports
    // kInternal; every other one must return a result bit-identical to
    // the sequential reference. Same-eps peers of the faulted build
    // retry against the evicted slot and succeed.
    int internal = 0;
    for (size_t i : {0u, 1u, 2u, 3u, 4u, 5u, 9u}) {
      const Result<SoiResult>& result = results[i];
      if (result.ok()) {
        ExpectIdenticalResults(result.ValueOrDie(), reference(batch[i]),
                               "query " + std::to_string(i));
      } else {
        EXPECT_EQ(result.status().code(), StatusCode::kInternal)
            << "query " << i << ": " << result.status().ToString();
        ++internal;
      }
    }
    EXPECT_EQ(internal, fault::kEnabled ? 1 : 0);
    if (fault::kEnabled) {
      EXPECT_EQ(fault::Registry::Global().FireCount("cache.build_maps"), 1);
    }

    // No stale or poisoned cache entry: every eps in the batch can be
    // (re)built and served after the storm.
    for (double eps : {0.002, 0.0008, 0.003, kFaultedEps}) {
      Result<SoiResult> retry = engine.TryRun(ValidQuery(eps));
      EXPECT_TRUE(retry.ok()) << "eps=" << eps << ": "
                              << retry.status().ToString();
    }
    EXPECT_EQ(engine.cache_size(), 4u);
  }
}

TEST(EngineRobustnessTest, FailedMapsBuildEvictsItsCacheEntry) {
  if (!fault::kEnabled) {
    GTEST_SKIP() << "fault points compiled out (build with the `fault` "
                    "preset)";
  }
  fault::Registry::Global().Reset();
  Instance instance(15, 0.003, 300, 6);
  QueryEngine engine(instance.network, instance.grid, instance.global_index,
                     instance.segment_cells);

  obs::MetricsSnapshot before = obs::Registry::Global().Snapshot();
  {
    fault::ScopedFault armed("cache.build_maps", fault::FaultPlan{});
    Result<SoiResult> result = engine.TryRun(ValidQuery());
    ASSERT_FALSE(result.ok());
    EXPECT_EQ(result.status().code(), StatusCode::kInternal);
  }
  // The failed build's entry was evicted, not published.
  EXPECT_EQ(engine.cache_size(), 0u);

  // Recovery: the same eps rebuilds from scratch and serves.
  Result<SoiResult> retry = engine.TryRun(ValidQuery());
  ASSERT_TRUE(retry.ok()) << retry.status().ToString();
  EXPECT_EQ(engine.cache_size(), 1u);
  obs::MetricsSnapshot delta =
      obs::Registry::Global().Snapshot().Since(before);
  // Both attempts missed (the failed entry never became visible as a
  // hit), and only the successful one counts as a completed build.
  EXPECT_EQ(delta.CounterOr0("soi.cache.misses"), 2);
  EXPECT_EQ(delta.CounterOr0("soi.cache.builds"), 1);
}

TEST(EngineRobustnessTest, RefinementFaultSurfacesAsInternal) {
  if (!fault::kEnabled) {
    GTEST_SKIP() << "fault points compiled out (build with the `fault` "
                    "preset)";
  }
  fault::Registry::Global().Reset();
  Instance instance(17, 0.003, 400, 6);
  QueryEngine engine(instance.network, instance.grid, instance.global_index,
                     instance.segment_cells);

  {
    fault::ScopedFault armed("soi.refine.finalize", fault::FaultPlan{});
    Result<SoiResult> result = engine.TryRun(ValidQuery());
    ASSERT_FALSE(result.ok());
    EXPECT_EQ(result.status().code(), StatusCode::kInternal);
  }
  // The maps cache is unaffected (the build succeeded) and the engine
  // still serves.
  EXPECT_EQ(engine.cache_size(), 1u);
  EXPECT_TRUE(engine.TryRun(ValidQuery()).ok());
}

TEST(EngineRobustnessTest, RunBatchStillBitIdenticalAcrossThreadCounts) {
  // Tier-1 determinism guard rerun against the hardened path: Run and
  // RunBatch are now thin wrappers over TryRun, and must remain
  // bit-identical to the sequential reference.
  Instance instance(19, 0.003, 400, 6);
  SoiAlgorithm sequential(instance.network, instance.grid,
                          instance.global_index);
  std::vector<SoiQuery> batch;
  for (int i = 0; i < 8; ++i) {
    SoiQuery query = ValidQuery(i % 2 == 0 ? 0.002 : 0.004);
    query.keywords = KeywordSet({static_cast<KeywordId>(i % 5)});
    query.k = 1 + i % 4;
    batch.push_back(query);
  }
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
    for (size_t i = 0; i < got.size(); ++i) {
      ExpectIdenticalResults(got[i].ValueOrDie(), expected[i],
                             "threads=" + std::to_string(threads) +
                                 " query=" + std::to_string(i));
    }
  }
}

}  // namespace
}  // namespace soi
