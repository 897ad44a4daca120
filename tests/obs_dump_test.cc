// End-to-end introspection-plane test (the PR's acceptance criterion):
// a real workload through a QueryEngine must leave DumpState JSON that
// (a) validates as strict JSON, (b) contains QueryRecords with nonzero
// phase timings, and (c) carries latency-histogram exemplars whose query
// ids resolve to records in the flight-recorder snapshot — the
// p99-to-replayable-query link the plane exists for. Uses the
// process-global registry/recorder (that is what DumpState serializes),
// resetting them per test.

#include "obs/dump.h"

#include <fstream>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "common/json_util.h"
#include "common/json_writer.h"
#include "common/random.h"
#include "core/query_engine.h"
#include "gtest/gtest.h"
#include "obs/flight_recorder.h"
#include "obs/metrics.h"
#include "obs/obs.h"
#include "test_util.h"

namespace soi {
namespace {

// Self-contained SOI instance (mirrors the query_engine_test fixture).
struct Instance {
  RoadNetwork network;
  Vocabulary vocabulary;
  std::vector<Poi> pois;
  GridGeometry geometry;
  PoiGridIndex grid;
  GlobalInvertedIndex global_index;
  SegmentCellIndex segment_cells;

  Instance()
      : network(testing_util::MakeGridNetwork(5, 5, 0.01)),
        pois(MakePois(&vocabulary)),
        geometry(network.bounds().Expanded(0.005), 0.002),
        grid(geometry.bounds(), 0.002, pois),
        global_index(grid),
        segment_cells(network, geometry) {}

  static std::vector<Poi> MakePois(Vocabulary* vocabulary) {
    Rng rng(20260808);
    Box box = Box::FromCorners(Point{-0.004, -0.004}, Point{0.044, 0.044});
    return testing_util::RandomPois(box, 300, 8, vocabulary, &rng);
  }
};

std::vector<SoiQuery> MakeBatch(int count) {
  Rng rng(7);
  const double eps_values[] = {0.0008, 0.002};
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
    query.eps = eps_values[rng.UniformInt(static_cast<uint64_t>(2))];
    batch.push_back(query);
  }
  return batch;
}

class ObsDumpTest : public ::testing::Test {
 protected:
  void SetUp() override {
    obs::Registry::Global().Reset();
    obs::FlightRecorder::Global().Reset();
  }
};

TEST_F(ObsDumpTest, QueryRecordJsonIsValid) {
  obs::QueryRecord record;
  record.query_id = 42;
  record.psi_size = 2;
  record.k = 10;
  record.eps = 0.0005;
  record.keyword_ids = {3, 7};
  record.total_seconds = 0.012;
  record.status = StatusCode::kDeadlineExceeded;
  std::ostringstream out;
  JsonWriter json(&out);
  obs::WriteQueryRecordJson(record, &json);
  ASSERT_TRUE(json.done());
  std::string text = out.str();
  EXPECT_TRUE(ValidateJson(text).ok()) << text;
  EXPECT_NE(text.find("\"query_id\": 42"), std::string::npos) << text;
  EXPECT_NE(text.find("\"status\": \"Deadline exceeded\""), std::string::npos)
      << text;
}

TEST_F(ObsDumpTest, EmptyStateIsValidJson) {
  std::string text = obs::DumpStateJson();
  Status valid = ValidateJson(text);
  EXPECT_TRUE(valid.ok()) << valid.ToString() << "\n" << text;
  EXPECT_NE(text.find("\"flight_recorder\""), std::string::npos);
  EXPECT_NE(text.find("\"metrics\""), std::string::npos);
}

// The acceptance test: serve a workload, dump, and check the dump links
// together — valid JSON, populated QueryRecords with nonzero phase
// timings, and a latency exemplar resolvable in the recorder snapshot.
TEST_F(ObsDumpTest, ServedWorkloadProducesLinkedDump) {
  Instance instance;
  QueryEngineOptions options;
  options.num_threads = 2;
  QueryEngine engine(instance.network, instance.grid, instance.global_index,
                     instance.segment_cells, options);
  std::vector<SoiQuery> batch = MakeBatch(24);
  std::vector<Result<SoiResult>> results = engine.TryRunBatch(batch);
  for (const Result<SoiResult>& result : results) {
    ASSERT_TRUE(result.ok()) << result.status().ToString();
  }

  std::string text = obs::DumpStateJson();
  Status valid = ValidateJson(text);
  ASSERT_TRUE(valid.ok()) << valid.ToString();
  EXPECT_NE(text.find("\"query_id\""), std::string::npos);

  obs::FlightRecorder::Snapshot flights =
      obs::FlightRecorder::Global().Snap();
  ASSERT_EQ(flights.total_recorded, static_cast<int64_t>(batch.size()));

  // At least one record carries nonzero phase timings and the phases are
  // bounded by the query's own wall clock.
  bool saw_phases = false;
  for (const obs::QueryRecord& record : flights.recent) {
    EXPECT_GT(record.query_id, 0u);
    EXPECT_GT(record.psi_size, 0);
    EXPECT_FALSE(record.keyword_ids.empty());
    EXPECT_EQ(record.status, StatusCode::kOk);
    if (record.cache_hit || record.coalesced) continue;
    if (record.lists_seconds > 0.0 && record.refine_seconds > 0.0) {
      saw_phases = true;
      EXPECT_LE(record.lists_seconds + record.filter_seconds +
                    record.refine_seconds,
                record.total_seconds + 1e-6);
    }
  }
  EXPECT_TRUE(saw_phases)
      << "no record carried nonzero lists+refine phase timings";

  // Exemplar link: the engine's latency histogram points at real,
  // resolvable flight records, including one behind the p99 bucket.
  obs::MetricsSnapshot metrics = obs::Registry::Global().Snapshot();
  const obs::Histogram::Snapshot* latency =
      metrics.FindHistogram("soi.engine.query_seconds");
  ASSERT_NE(latency, nullptr);
  ASSERT_EQ(latency->total_count, static_cast<int64_t>(batch.size()));
  uint64_t p99_exemplar = latency->ExemplarForQuantile(0.99);
  ASSERT_NE(p99_exemplar, 0u);
  const obs::QueryRecord* linked = flights.Find(p99_exemplar);
  ASSERT_NE(linked, nullptr)
      << "p99 exemplar query " << p99_exemplar
      << " not resolvable in the flight recorder";
  EXPECT_GT(linked->total_seconds, 0.0);
  // The record is replayable: its identity reconstructs a full SoiQuery.
  EXPECT_GT(linked->k, 0);
  EXPECT_GT(linked->eps, 0.0);
  EXPECT_FALSE(linked->keyword_ids.empty());
  // Every stamped exemplar resolves, not just the p99 one.
  for (uint64_t exemplar : latency->exemplars) {
    if (exemplar != 0) {
      EXPECT_NE(flights.Find(exemplar), nullptr);
    }
  }
}

TEST_F(ObsDumpTest, WriteStateFileRoundTrips) {
  std::string path =
      ::testing::TempDir() + "/soi_dump_test_state.json";
  Status written = obs::WriteStateFile(path);
  ASSERT_TRUE(written.ok()) << written.ToString();
  std::ifstream file(path);
  ASSERT_TRUE(file.good());
  std::ostringstream content;
  content << file.rdbuf();
  EXPECT_TRUE(ValidateJson(content.str()).ok());
  EXPECT_FALSE(obs::WriteStateFile("/nonexistent_dir_xyz/state.json").ok());
}

}  // namespace
}  // namespace soi
