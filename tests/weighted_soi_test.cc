// Tests for the weighted-mass extension (the note under Definition 1):
// POIs carry importance weights, segment mass is the weight sum, and the
// SOI algorithm's bounds remain sound because SL1 aggregates weight sums.

#include <sstream>
#include <vector>

#include "common/random.h"
#include "core/interest.h"
#include "core/soi_algorithm.h"
#include "core/soi_baseline.h"
#include "gtest/gtest.h"
#include "objects/object_io.h"
#include "test_util.h"

namespace soi {
namespace {

// Dyadic weights (1, 0.5, 2, 4, 0.25) sum exactly in any order, so SOI
// and BL produce bit-identical interests even though they accumulate mass
// in different cell orders.
double DyadicWeight(Rng* rng) {
  constexpr double kWeights[] = {1.0, 0.5, 2.0, 4.0, 0.25};
  return kWeights[rng->UniformInt(uint64_t{5})];
}

struct Instance {
  RoadNetwork network;
  Vocabulary vocabulary;
  std::vector<Poi> pois;
  GridGeometry geometry;
  PoiGridIndex grid;
  GlobalInvertedIndex global_index;
  SegmentCellIndex segment_cells;

  explicit Instance(uint64_t seed)
      : network(testing_util::MakeGridNetwork(4, 4, 0.01)),
        pois(MakePois(seed, &vocabulary)),
        geometry(network.bounds().Expanded(0.005), 0.003),
        grid(geometry.bounds(), 0.003, pois),
        global_index(grid),
        segment_cells(network, geometry) {}

  static std::vector<Poi> MakePois(uint64_t seed, Vocabulary* vocabulary) {
    Rng rng(seed);
    Box box = Box::FromCorners(Point{-0.004, -0.004}, Point{0.034, 0.034});
    std::vector<Poi> pois =
        testing_util::RandomPois(box, 500, 6, vocabulary, &rng);
    for (Poi& poi : pois) poi.weight = DyadicWeight(&rng);
    return pois;
  }
};

TEST(WeightedInterestTest, BruteForceMassSumsWeights) {
  Segment segment{Point{0, 0}, Point{1, 0}};
  std::vector<Poi> pois(3);
  pois[0].position = Point{0.2, 0.01};
  pois[0].keywords = KeywordSet({1});
  pois[0].weight = 2.5;
  pois[1].position = Point{0.6, -0.02};
  pois[1].keywords = KeywordSet({1});
  pois[1].weight = 0.5;
  pois[2].position = Point{0.9, 0.01};
  pois[2].keywords = KeywordSet({2});  // Irrelevant.
  pois[2].weight = 100.0;
  EXPECT_DOUBLE_EQ(
      BruteForceSegmentMass(segment, pois, KeywordSet({1}), 0.05), 3.0);
}

TEST(WeightedInterestTest, UnitWeightsReduceToCounts) {
  Vocabulary vocabulary;
  Rng rng(3);
  Box box = Box::FromCorners(Point{0, 0}, Point{1, 1});
  std::vector<Poi> pois =
      testing_util::RandomPois(box, 200, 5, &vocabulary, &rng);
  Segment segment{Point{0.2, 0.5}, Point{0.8, 0.5}};
  KeywordSet query({0, 1});
  double mass = BruteForceSegmentMass(segment, pois, query, 0.1);
  int64_t count = 0;
  for (const Poi& poi : pois) {
    if (poi.IsRelevantTo(query) && segment.DistanceTo(poi.position) <= 0.1) {
      ++count;
    }
  }
  EXPECT_DOUBLE_EQ(mass, static_cast<double>(count));
}

TEST(WeightedSoiTest, GlobalIndexWeightSumsMatchPostings) {
  Instance instance(7);
  for (KeywordId keyword = 0; keyword < instance.vocabulary.size();
       ++keyword) {
    for (const auto& entry : instance.global_index.Entries(keyword)) {
      const std::vector<PoiId>* postings =
          instance.grid.FindPostings(entry.cell, keyword);
      ASSERT_NE(postings, nullptr);
      double weight = 0.0;
      for (PoiId id : *postings) {
        weight += instance.pois[static_cast<size_t>(id)].weight;
      }
      EXPECT_DOUBLE_EQ(entry.weight, weight);
      EXPECT_EQ(entry.num_pois, static_cast<int64_t>(postings->size()));
    }
  }
}

TEST(WeightedSoiTest, BaselineMassMatchesBruteForce) {
  Instance instance(11);
  SoiBaseline baseline(instance.network, instance.grid);
  EpsAugmentedMaps maps(instance.segment_cells, 0.002);
  KeywordSet query({0, 2});
  for (SegmentId id = 0; id < instance.network.num_segments(); ++id) {
    EXPECT_DOUBLE_EQ(
        baseline.SegmentMass(id, query, maps),
        BruteForceSegmentMass(instance.network.segment(id).geometry,
                              instance.pois, query, 0.002));
  }
}

class WeightedSoiEquivalence : public ::testing::TestWithParam<uint64_t> {};

TEST_P(WeightedSoiEquivalence, SoiMatchesBaselineOnWeightedData) {
  Instance instance(GetParam());
  SoiAlgorithm algorithm(instance.network, instance.grid,
                         instance.global_index);
  SoiBaseline baseline(instance.network, instance.grid);
  Rng rng(GetParam() * 131 + 5);
  for (double eps : {0.001, 0.003}) {
    EpsAugmentedMaps maps(instance.segment_cells, eps);
    for (int32_t k : {1, 4, 12}) {
      SoiQuery query;
      std::vector<KeywordId> q;
      int64_t nq = rng.UniformInt(1, 3);
      for (int64_t i = 0; i < nq; ++i) {
        q.push_back(static_cast<KeywordId>(rng.UniformInt(0, 5)));
      }
      query.keywords = KeywordSet(q);
      query.k = k;
      query.eps = eps;
      SoiResult fast = algorithm.TryTopK(query, maps).ValueOrDie();
      SoiResult slow = baseline.TopK(query, maps);
      ASSERT_EQ(fast.streets.size(), slow.streets.size());
      for (size_t i = 0; i < fast.streets.size(); ++i) {
        EXPECT_DOUBLE_EQ(fast.streets[i].interest, slow.streets[i].interest)
            << "k=" << k << " eps=" << eps << " rank=" << i;
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, WeightedSoiEquivalence,
                         ::testing::Values(21, 22, 23, 24, 25));

// The unseen upper bound must stay sound with weights: SL1 aggregates
// weight sums, not counts.
TEST(WeightedSoiTest, UpperBoundSoundWithWeights) {
  Instance instance(31);
  SoiQuery query;
  query.keywords = KeywordSet({0});
  query.k = 4;
  query.eps = 0.002;
  EpsAugmentedMaps maps(instance.segment_cells, query.eps);
  SoiBaseline baseline(instance.network, instance.grid);
  std::vector<double> exact = baseline.AllSegmentInterests(query, maps);
  SoiAlgorithm algorithm(instance.network, instance.grid,
                         instance.global_index);
  SoiAlgorithmOptions options;
  options.observer = [&](const SoiAlgorithmOptions::FilterSnapshot& snap) {
    double max_unseen = 0.0;
    for (SegmentId id = 0; id < instance.network.num_segments(); ++id) {
      if (!(*snap.segment_seen)[static_cast<size_t>(id)]) {
        max_unseen = std::max(max_unseen, exact[static_cast<size_t>(id)]);
      }
    }
    EXPECT_GE(snap.upper_bound, max_unseen * (1 - 1e-12));
  };
  algorithm.TryTopK(query, maps, options).ValueOrDie();
}

TEST(WeightedSoiTest, WeightsSurviveIoRoundTrip) {
  Vocabulary vocabulary;
  std::vector<Poi> pois(3);
  pois[0].position = Point{1, 2};
  pois[0].keywords = KeywordSet({vocabulary.Intern("shop")});
  pois[0].weight = 2.5;
  pois[1].position = Point{3, 4};
  pois[1].keywords = KeywordSet({vocabulary.Intern("food")});
  // pois[1] keeps the default weight 1 (written without the column).
  pois[2].position = Point{5, 6};
  pois[2].keywords = KeywordSet({vocabulary.Intern("bank")});
  pois[2].weight = 0.125;

  std::stringstream stream;
  ASSERT_TRUE(WritePois(pois, vocabulary, &stream).ok());
  Vocabulary fresh;
  auto loaded = ReadPois(&stream, &fresh);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  ASSERT_EQ(loaded.ValueOrDie().size(), 3u);
  EXPECT_DOUBLE_EQ(loaded.ValueOrDie()[0].weight, 2.5);
  EXPECT_DOUBLE_EQ(loaded.ValueOrDie()[1].weight, 1.0);
  EXPECT_DOUBLE_EQ(loaded.ValueOrDie()[2].weight, 0.125);
}

TEST(WeightedSoiTest, NegativeWeightRejectedOnRead) {
  std::stringstream stream("# soi-objects v1\n1\t2\tshop\t-3\n");
  Vocabulary vocabulary;
  EXPECT_FALSE(ReadPois(&stream, &vocabulary).ok());
}

// Weighting changes the ranking: a single heavy POI can outrank a cluster
// of light ones.
TEST(WeightedSoiTest, HeavyPoiDominates) {
  NetworkBuilder builder;
  VertexId a = builder.AddVertex({0, 0});
  VertexId b = builder.AddVertex({0.01, 0});
  VertexId c = builder.AddVertex({0, 0.01});
  VertexId d = builder.AddVertex({0.01, 0.01});
  SOI_CHECK(builder.AddStreet("Light", {a, b}).ok());
  SOI_CHECK(builder.AddStreet("Heavy", {c, d}).ok());
  RoadNetwork network = std::move(builder).Build().ValueOrDie();

  std::vector<Poi> pois;
  // Three unit-weight POIs on "Light".
  for (int i = 0; i < 3; ++i) {
    Poi poi;
    poi.position = Point{0.002 + 0.002 * i, 0.0001};
    poi.keywords = KeywordSet({1});
    pois.push_back(poi);
  }
  // One weight-8 POI on "Heavy".
  Poi heavy;
  heavy.position = Point{0.005, 0.0099};
  heavy.keywords = KeywordSet({1});
  heavy.weight = 8.0;
  pois.push_back(heavy);

  GridGeometry geometry(network.bounds().Expanded(0.002), 0.002);
  PoiGridIndex grid(geometry.bounds(), 0.002, pois);
  GlobalInvertedIndex global_index(grid);
  SegmentCellIndex segment_cells(network, geometry);
  EpsAugmentedMaps maps(segment_cells, 0.001);
  SoiAlgorithm algorithm(network, grid, global_index);
  SoiQuery query;
  query.keywords = KeywordSet({1});
  query.k = 1;
  query.eps = 0.001;
  SoiResult result = algorithm.TryTopK(query, maps).ValueOrDie();
  ASSERT_EQ(result.streets.size(), 1u);
  EXPECT_EQ(network.street(result.streets[0].street).name, "Heavy");
}

}  // namespace
}  // namespace soi
