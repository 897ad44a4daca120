// The observability determinism contract (DESIGN.md "Observability"):
// instrumentation must never change results. The fully instrumented
// engine path — metrics armed, trace recording active — must return
// bit-identical answers to the plain sequential algorithm.

#include <vector>

#include "common/random.h"
#include "core/diversify/greedy_baseline.h"
#include "core/diversify/st_rel_div.h"
#include "core/query_engine.h"
#include "core/soi_algorithm.h"
#include "core/street_photos.h"
#include "gtest/gtest.h"
#include "network/network_builder.h"
#include "obs/obs.h"
#include "test_util.h"

namespace soi {
namespace {

struct Instance {
  RoadNetwork network;
  Vocabulary vocabulary;
  std::vector<Poi> pois;
  GridGeometry geometry;
  PoiGridIndex grid;
  GlobalInvertedIndex global_index;
  SegmentCellIndex segment_cells;

  explicit Instance(uint64_t seed)
      : network(testing_util::MakeGridNetwork(5, 5, 0.01)),
        pois(MakePois(seed, &vocabulary)),
        geometry(network.bounds().Expanded(0.005), 0.003),
        grid(geometry.bounds(), 0.003, pois),
        global_index(grid),
        segment_cells(network, geometry) {}

  static std::vector<Poi> MakePois(uint64_t seed, Vocabulary* vocabulary) {
    Rng rng(seed);
    Box box = Box::FromCorners(Point{-0.004, -0.004}, Point{0.044, 0.044});
    return testing_util::RandomPois(box, 500, 8, vocabulary, &rng);
  }
};

std::vector<SoiQuery> MakeQueries() {
  std::vector<SoiQuery> queries;
  for (double eps : {0.0008, 0.002}) {
    for (int32_t k : {3, 8}) {
      for (KeywordId kw : {KeywordId{0}, KeywordId{3}}) {
        SoiQuery query;
        query.keywords = KeywordSet({kw, KeywordId{5}});
        query.k = k;
        query.eps = eps;
        queries.push_back(query);
      }
    }
  }
  return queries;
}

void ExpectIdentical(const SoiResult& got, const SoiResult& want) {
  ASSERT_EQ(got.streets.size(), want.streets.size());
  for (size_t i = 0; i < got.streets.size(); ++i) {
    EXPECT_EQ(got.streets[i].street, want.streets[i].street) << "rank " << i;
    EXPECT_EQ(got.streets[i].interest, want.streets[i].interest)
        << "rank " << i;
    EXPECT_EQ(got.streets[i].best_segment, want.streets[i].best_segment)
        << "rank " << i;
  }
  EXPECT_EQ(got.stats.iterations, want.stats.iterations);
  EXPECT_EQ(got.stats.segments_seen, want.stats.segments_seen);
  EXPECT_EQ(got.stats.poi_distance_checks, want.stats.poi_distance_checks);
}

TEST(ObsDeterminismTest, InstrumentedEngineMatchesPlainSequential) {
  Instance instance(21);
  std::vector<SoiQuery> queries = MakeQueries();

  // Reference: the plain sequential path, metrics quiet, tracing off.
  SoiAlgorithm sequential(instance.network, instance.grid,
                          instance.global_index);
  std::vector<SoiResult> expected;
  for (const SoiQuery& query : queries) {
    EpsAugmentedMaps maps(instance.segment_cells, query.eps);
    expected.push_back(sequential.TryTopK(query, maps).ValueOrDie());
  }

  // Everything armed: trace recording active across the whole batch and
  // the registry live, on the threaded engine path.
  obs::TraceRecorder::Global().Start();
  QueryEngineOptions options;
  options.num_threads = 4;
  QueryEngine engine(instance.network, instance.grid, instance.global_index,
                     instance.segment_cells, options);
  std::vector<Result<SoiResult>> got = engine.TryRunBatch(queries);
  obs::TraceRecorder::Global().Stop();

  ASSERT_EQ(got.size(), expected.size());
  for (size_t i = 0; i < got.size(); ++i) {
    SCOPED_TRACE("query " + std::to_string(i));
    ExpectIdentical(got[i].ValueOrDie(), expected[i]);
  }

  // Sanity on the instrumentation itself: the batch must have produced
  // spans and query counts.
  EXPECT_FALSE(obs::TraceRecorder::Global().Collect().empty());
  EXPECT_GE(
      obs::Registry::Global().Snapshot().CounterOr0("soi.query.count"),
      static_cast<int64_t>(queries.size()));
}

TEST(ObsDeterminismTest, InstrumentedDiversificationMatchesBaseline) {
  // StRelDivSelect is instrumented (spans + counters); GreedyBaselineSelect
  // is the reference implementation it must match selection-for-selection
  // with tracing active.
  NetworkBuilder builder;
  VertexId a = builder.AddVertex({0, 0});
  VertexId b = builder.AddVertex({0.015, 0.001});
  SOI_CHECK(builder.AddStreet("S", {a, b}).ok());
  RoadNetwork network = std::move(builder).Build().ValueOrDie();
  Vocabulary vocabulary;
  Rng rng(77);
  Box box = Box::FromCorners(Point{-0.001, -0.003}, Point{0.016, 0.004});
  std::vector<Photo> photos =
      testing_util::RandomPhotos(box, 300, 12, &vocabulary, &rng);
  StreetPhotos sp = ExtractStreetPhotosBruteForce(network, 0, photos, 0.0035);
  ASSERT_GT(sp.size(), 20);

  DiversifyParams params;
  params.k = 10;
  params.lambda = 0.5;
  params.w = 0.5;
  params.rho = 0.0005;
  PhotoScorer scorer(sp, params.rho);
  PhotoGridIndex index(params.rho / 2, sp.photos);
  CellBoundsCalculator bounds(sp, index);

  obs::TraceRecorder::Global().Start();
  DiversifyResult fast = StRelDivSelect(scorer, bounds, params);
  obs::TraceRecorder::Global().Stop();
  DiversifyResult slow = GreedyBaselineSelect(scorer, params);
  EXPECT_EQ(fast.selected, slow.selected);
}

}  // namespace
}  // namespace soi
