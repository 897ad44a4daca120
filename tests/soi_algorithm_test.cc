#include <algorithm>
#include <vector>

#include "common/random.h"
#include "core/soi_algorithm.h"
#include "core/soi_baseline.h"
#include "gtest/gtest.h"
#include "test_util.h"

namespace soi {
namespace {

// A self-contained SOI test instance: network, POIs, and all indices.
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
    std::vector<Poi> pois =
        testing_util::RandomPois(box, n, vocab_size, vocabulary, &rng);
    // Add a dense cluster so there is a clear winner street (like a real
    // shopping street), exercising early termination.
    for (int i = 0; i < n / 5; ++i) {
      Poi poi;
      poi.position = Point{0.02 + rng.Normal(0, 0.0004),
                           0.01 + rng.UniformDouble(0, 0.01)};
      poi.keywords = KeywordSet({0, static_cast<KeywordId>(
                                        rng.UniformInt(0, vocab_size - 1))});
      pois.push_back(std::move(poi));
    }
    return pois;
  }
};

// Exact per-street interests via the baseline's full scan.
std::vector<RankedStreet> ExactTopK(const Instance& instance,
                                    const SoiQuery& query,
                                    const EpsAugmentedMaps& maps) {
  SoiBaseline baseline(instance.network, instance.grid);
  std::vector<double> interests =
      baseline.AllSegmentInterests(query, maps);
  return RankStreets(instance.network, interests, query.k);
}

void ExpectValidTopK(const Instance& instance, const SoiQuery& query,
                     const EpsAugmentedMaps& maps,
                     const SoiResult& result) {
  SoiBaseline baseline(instance.network, instance.grid);
  std::vector<double> interests =
      baseline.AllSegmentInterests(query, maps);
  std::vector<RankedStreet> expected =
      RankStreets(instance.network, interests,
                  static_cast<int32_t>(instance.network.num_streets()));
  // Exact interest per street, for validating reported values.
  std::vector<double> street_exact(
      static_cast<size_t>(instance.network.num_streets()), 0.0);
  for (const RankedStreet& entry : expected) {
    street_exact[static_cast<size_t>(entry.street)] = entry.interest;
  }

  ASSERT_EQ(result.streets.size(),
            std::min<size_t>(static_cast<size_t>(query.k),
                             static_cast<size_t>(
                                 instance.network.num_streets())));
  // Reported interests are exact and ordered.
  for (size_t i = 0; i < result.streets.size(); ++i) {
    const RankedStreet& entry = result.streets[i];
    EXPECT_DOUBLE_EQ(entry.interest,
                     street_exact[static_cast<size_t>(entry.street)])
        << "street " << entry.street;
    if (i > 0) {
      EXPECT_GE(result.streets[i - 1].interest, entry.interest);
    }
  }
  // The interest multiset equals the true top-k multiset (Problem 1 allows
  // any tie resolution at the boundary).
  std::vector<double> got;
  std::vector<double> want;
  for (const RankedStreet& entry : result.streets) {
    got.push_back(entry.interest);
  }
  for (size_t i = 0; i < result.streets.size(); ++i) {
    want.push_back(expected[i].interest);
  }
  std::sort(got.begin(), got.end());
  std::sort(want.begin(), want.end());
  ASSERT_EQ(got.size(), want.size());
  for (size_t i = 0; i < got.size(); ++i) {
    EXPECT_DOUBLE_EQ(got[i], want[i]) << "rank " << i;
  }
}

class SoiEquivalence
    : public ::testing::TestWithParam<std::tuple<uint64_t,
                                                 SourceListStrategy, bool>> {
};

TEST_P(SoiEquivalence, MatchesBaselineAcrossQueries) {
  auto [seed, strategy, pruned] = GetParam();
  Instance instance(seed, /*cell_size=*/0.003, /*num_pois=*/600,
                    /*vocab_size=*/8);
  SoiAlgorithm algorithm(instance.network, instance.grid,
                         instance.global_index);
  SoiAlgorithmOptions options;
  options.strategy = strategy;
  options.pruned_refinement = pruned;
  Rng rng(seed * 977 + 1);
  for (double eps : {0.0008, 0.002, 0.005}) {
    EpsAugmentedMaps maps(instance.segment_cells, eps);
    for (int32_t k : {1, 3, 10}) {
      for (int32_t nq : {1, 2, 4}) {
        SoiQuery query;
        std::vector<KeywordId> q;
        for (int32_t i = 0; i < nq; ++i) {
          q.push_back(static_cast<KeywordId>(rng.UniformInt(0, 7)));
        }
        query.keywords = KeywordSet(q);
        query.k = k;
        query.eps = eps;
        SoiResult result = algorithm.TryTopK(query, maps, options).ValueOrDie();
        ExpectValidTopK(instance, query, maps, result);
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, SoiEquivalence,
    ::testing::Combine(
        ::testing::Values(uint64_t{1}, uint64_t{2}, uint64_t{3}),
        ::testing::Values(SourceListStrategy::kAlternateCellsSegments,
                          SourceListStrategy::kRoundRobin,
                          SourceListStrategy::kCellsFirst),
        ::testing::Bool()));

// Different grid cell sizes must not affect the answer.
TEST(SoiAlgorithmTest, CellSizeIndependence) {
  std::vector<std::vector<double>> interest_sets;
  for (double cell_size : {0.0015, 0.003, 0.008}) {
    Instance instance(7, cell_size, 500, 6);
    SoiAlgorithm algorithm(instance.network, instance.grid,
                           instance.global_index);
    EpsAugmentedMaps maps(instance.segment_cells, 0.002);
    SoiQuery query;
    query.keywords = KeywordSet({0, 1});
    query.k = 8;
    query.eps = 0.002;
    SoiResult result = algorithm.TryTopK(query, maps).ValueOrDie();
    std::vector<double> interests;
    for (const RankedStreet& entry : result.streets) {
      interests.push_back(entry.interest);
    }
    interest_sets.push_back(interests);
  }
  for (size_t i = 1; i < interest_sets.size(); ++i) {
    ASSERT_EQ(interest_sets[i].size(), interest_sets[0].size());
    for (size_t j = 0; j < interest_sets[0].size(); ++j) {
      EXPECT_DOUBLE_EQ(interest_sets[i][j], interest_sets[0][j]);
    }
  }
}

// The unseen upper bound must dominate the true interest of every unseen
// segment at every filtering iteration (Lemma 1, second case).
TEST(SoiAlgorithmTest, UpperBoundIsSoundThroughoutFiltering) {
  Instance instance(11, 0.003, 500, 6);
  SoiQuery query;
  query.keywords = KeywordSet({0});
  query.k = 5;
  query.eps = 0.002;
  EpsAugmentedMaps maps(instance.segment_cells, query.eps);
  SoiBaseline baseline(instance.network, instance.grid);
  std::vector<double> exact = baseline.AllSegmentInterests(query, maps);

  SoiAlgorithm algorithm(instance.network, instance.grid,
                         instance.global_index);
  SoiAlgorithmOptions options;
  int64_t snapshots = 0;
  options.observer = [&](const SoiAlgorithmOptions::FilterSnapshot& snap) {
    ++snapshots;
    double max_unseen = 0.0;
    for (SegmentId id = 0; id < instance.network.num_segments(); ++id) {
      if (!(*snap.segment_seen)[static_cast<size_t>(id)]) {
        max_unseen =
            std::max(max_unseen, exact[static_cast<size_t>(id)]);
      }
    }
    EXPECT_GE(snap.upper_bound, max_unseen * (1 - 1e-12));
  };
  SoiResult result = algorithm.TryTopK(query, maps, options).ValueOrDie();
  EXPECT_GT(snapshots, 0);
  ExpectValidTopK(instance, query, maps, result);
}

// LB_k must never exceed the true k-th best street interest.
TEST(SoiAlgorithmTest, LowerBoundIsSound) {
  Instance instance(13, 0.003, 500, 6);
  SoiQuery query;
  query.keywords = KeywordSet({1, 2});
  query.k = 4;
  query.eps = 0.002;
  EpsAugmentedMaps maps(instance.segment_cells, query.eps);
  std::vector<RankedStreet> exact_topk = ExactTopK(instance, query, maps);
  double kth = exact_topk.back().interest;

  SoiAlgorithm algorithm(instance.network, instance.grid,
                         instance.global_index);
  SoiAlgorithmOptions options;
  options.observer = [&](const SoiAlgorithmOptions::FilterSnapshot& snap) {
    EXPECT_LE(snap.lower_bound, kth * (1 + 1e-12) + 1e-300);
  };
  algorithm.TryTopK(query, maps, options).ValueOrDie();
}

TEST(SoiAlgorithmTest, EmptyMatchQueryReturnsZeroInterest) {
  Instance instance(17, 0.003, 200, 5);
  Vocabulary& vocab = instance.vocabulary;
  KeywordId unused_keyword = vocab.Intern("keyword-with-no-pois");
  SoiQuery query;
  query.keywords = KeywordSet({unused_keyword});
  query.k = 3;
  query.eps = 0.002;
  EpsAugmentedMaps maps(instance.segment_cells, query.eps);
  SoiAlgorithm algorithm(instance.network, instance.grid,
                         instance.global_index);
  SoiResult result = algorithm.TryTopK(query, maps).ValueOrDie();
  ASSERT_EQ(result.streets.size(), 3u);
  for (const RankedStreet& entry : result.streets) {
    EXPECT_DOUBLE_EQ(entry.interest, 0.0);
  }
  // Nothing should have been examined: SL1 is empty, so UB = 0 instantly.
  EXPECT_EQ(result.stats.cells_popped, 0);
}

TEST(SoiAlgorithmTest, StatsAreCoherent) {
  Instance instance(19, 0.003, 600, 6);
  SoiQuery query;
  query.keywords = KeywordSet({0});
  query.k = 5;
  query.eps = 0.002;
  EpsAugmentedMaps maps(instance.segment_cells, query.eps);
  SoiAlgorithm algorithm(instance.network, instance.grid,
                         instance.global_index);
  SoiResult result = algorithm.TryTopK(query, maps).ValueOrDie();
  const SoiQueryStats& stats = result.stats;
  EXPECT_GT(stats.iterations, 0);
  EXPECT_EQ(stats.iterations, stats.cells_popped + stats.segments_popped);
  EXPECT_LE(stats.segments_seen, instance.network.num_segments());
  EXPECT_GE(stats.list_construction_seconds, 0.0);
  EXPECT_GE(stats.filtering_seconds, 0.0);
  EXPECT_GE(stats.refinement_seconds, 0.0);
  EXPECT_GE(stats.final_upper_bound, 0.0);
  EXPECT_GE(stats.final_lower_bound, 0.0);
  // Termination condition reached (there are more streets than k here).
  EXPECT_LE(stats.final_upper_bound,
            stats.final_lower_bound * (1 + 1e-12) + 1e-300);
}

// The filter phase should terminate before exhausting the lists when a few
// streets dominate (the raison d'etre of the algorithm).
TEST(SoiAlgorithmTest, PrunesWorkOnSkewedData) {
  Instance instance(23, 0.003, 1000, 6);
  SoiQuery query;
  query.keywords = KeywordSet({0});
  query.k = 1;
  query.eps = 0.0015;
  EpsAugmentedMaps maps(instance.segment_cells, query.eps);
  SoiAlgorithm algorithm(instance.network, instance.grid,
                         instance.global_index);
  SoiResult result = algorithm.TryTopK(query, maps).ValueOrDie();
  EXPECT_LT(result.stats.segments_seen, instance.network.num_segments());
}

TEST(SoiAlgorithmDeathTest, RejectsMismatchedEps) {
  Instance instance(29, 0.003, 100, 5);
  EpsAugmentedMaps maps(instance.segment_cells, 0.001);
  SoiAlgorithm algorithm(instance.network, instance.grid,
                         instance.global_index);
  SoiQuery query;
  query.keywords = KeywordSet({0});
  query.eps = 0.002;  // != maps.eps()
  EXPECT_DEATH(algorithm.TryTopK(query, maps).ValueOrDie(), "eps");
}

}  // namespace
}  // namespace soi
