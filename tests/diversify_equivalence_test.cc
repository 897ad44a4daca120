#include <algorithm>
#include <iterator>
#include <vector>

#include "common/random.h"
#include "core/diversify/greedy_baseline.h"
#include "core/diversify/objective.h"
#include "core/diversify/st_rel_div.h"
#include "core/street_photos.h"
#include "datagen/dataset.h"
#include "gtest/gtest.h"
#include "network/network_builder.h"
#include "test_util.h"

namespace soi {
namespace {

// ST_Rel+Div must select exactly the same photo sequence as the greedy
// baseline, for any parameters — it is an exact algorithm, only faster.
struct Fixture {
  RoadNetwork network;
  std::vector<Photo> photos;
  StreetPhotos sp;

  explicit Fixture(uint64_t seed, int64_t n = 500) {
    NetworkBuilder builder;
    VertexId a = builder.AddVertex({0, 0});
    VertexId b = builder.AddVertex({0.015, 0.001});
    VertexId c = builder.AddVertex({0.03, 0.0});
    SOI_CHECK(builder.AddStreet("S", {a, b, c}).ok());
    network = std::move(builder).Build().ValueOrDie();
    Vocabulary vocabulary;
    Rng rng(seed);
    Box box = Box::FromCorners(Point{-0.001, -0.003}, Point{0.031, 0.004});
    photos = testing_util::RandomPhotos(box, n, 18, &vocabulary, &rng);
    sp = ExtractStreetPhotosBruteForce(network, 0, photos, 0.0035);
    SOI_CHECK(sp.size() > 50);
  }
};

class StRelDivEquivalence
    : public ::testing::TestWithParam<std::tuple<uint64_t, double, double>> {
};

TEST_P(StRelDivEquivalence, SelectsSameSequenceAsBaseline) {
  auto [seed, lambda, w] = GetParam();
  Fixture fx(seed);
  DiversifyParams params;
  params.lambda = lambda;
  params.w = w;
  params.rho = 0.0005;
  for (int32_t k : {1, 5, 15}) {
    params.k = k;
    PhotoScorer scorer(fx.sp, params.rho);
    PhotoGridIndex index(params.rho / 2, fx.sp.photos);
    CellBoundsCalculator bounds(fx.sp, index);
    DiversifyResult baseline = GreedyBaselineSelect(scorer, params);
    DiversifyResult fast = StRelDivSelect(scorer, bounds, params);
    EXPECT_EQ(fast.selected, baseline.selected)
        << "k=" << k << " lambda=" << lambda << " w=" << w;
    // The whole point: strictly fewer exact mmr evaluations.
    EXPECT_LE(fast.stats.mmr_evaluations, baseline.stats.mmr_evaluations);
  }
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, StRelDivEquivalence,
    ::testing::Combine(::testing::Values(uint64_t{1}, uint64_t{2},
                                         uint64_t{3}),
                       ::testing::Values(0.0, 0.5, 1.0),
                       ::testing::Values(0.0, 0.5, 1.0)));

// F of Eq. 2 recomputed from Definitions 4-7 and Eqs. 4-5 alone, with
// the scorer's order of floating-point operations, so equality is bitwise.
// `counts` are the brute-force neighbour counts of Definition 4.
double BruteForceObjective(const StreetPhotos& sp,
                           const std::vector<int64_t>& counts,
                           const std::vector<PhotoId>& set,
                           const DiversifyParams& params) {
  double inv_total = 1.0 / static_cast<double>(sp.size());
  double norm = sp.street_terms.L1Norm();
  double inv_norm = norm > 0 ? 1.0 / norm : 0.0;
  double w = params.w;
  double spatial = 0.0;
  double textual = 0.0;
  for (PhotoId r : set) {
    const Photo& photo = sp.photos[static_cast<size_t>(r)];
    spatial += static_cast<double>(counts[static_cast<size_t>(r)]) * inv_total;
    textual += sp.street_terms.WeightOf(photo.keywords) * inv_norm;
  }
  double inv_k = 1.0 / static_cast<double>(set.size());
  double rel = w * inv_k * spatial + (1.0 - w) * inv_k * textual;

  double div = 0.0;
  size_t k = set.size();
  if (k >= 2) {
    spatial = 0.0;
    textual = 0.0;
    for (size_t i = 0; i < k; ++i) {
      const Photo& a = sp.photos[static_cast<size_t>(set[i])];
      for (size_t j = i + 1; j < k; ++j) {
        const Photo& b = sp.photos[static_cast<size_t>(set[j])];
        spatial += a.position.DistanceTo(b.position) / sp.max_distance;
        std::vector<KeywordId> common;
        std::set_intersection(a.keywords.ids().begin(), a.keywords.ids().end(),
                              b.keywords.ids().begin(), b.keywords.ids().end(),
                              std::back_inserter(common));
        int64_t intersection = static_cast<int64_t>(common.size());
        int64_t union_size =
            a.keywords.size() + b.keywords.size() - intersection;
        textual += union_size == 0
                       ? 0.0
                       : 1.0 - static_cast<double>(intersection) /
                                   static_cast<double>(union_size);
      }
    }
    double inv_pairs = 2.0 / (static_cast<double>(k) * (k - 1));
    div = w * inv_pairs * spatial + (1.0 - w) * inv_pairs * textual;
  }
  return (1.0 - params.lambda) * rel + params.lambda * div;
}

// The differential gate of the scorer: on every street of seeded tiny
// cities, spatial relevance is the brute-force count bit for bit,
// ST_Rel+Div selects what the greedy baseline selects, and the objective
// is the brute-force recomputation bit for bit. (describe's run-time check
// compares two selectors sharing one scorer, so it cannot see a scorer
// fault.)
class TinyCitySweep : public ::testing::TestWithParam<uint64_t> {};

TEST_P(TinyCitySweep, ScorerAndSelectionMatchBruteForce) {
  Dataset dataset =
      GenerateCity(testing_util::TinyCityProfile(GetParam())).ValueOrDie();
  DiversifyParams params;
  params.k = 20;
  params.lambda = 0.5;
  params.w = 0.5;
  params.rho = 0.0001;
  int64_t described = 0;
  for (StreetId street = 0; street < dataset.network.num_streets();
       ++street) {
    StreetPhotos sp = ExtractStreetPhotosBruteForce(
        dataset.network, street, dataset.photos, 0.0005);
    if (sp.size() == 0) continue;
    ++described;
    PhotoScorer scorer(sp, params.rho);
    std::vector<int64_t> counts =
        testing_util::BruteForceNeighborCounts(sp, params.rho);
    double inv_total = 1.0 / static_cast<double>(sp.size());
    for (PhotoId r = 0; r < sp.size(); ++r) {
      ASSERT_EQ(testing_util::BitsOf(scorer.SpatialRel(r)),
                testing_util::BitsOf(
                    static_cast<double>(counts[static_cast<size_t>(r)]) *
                    inv_total))
          << "street " << street << " photo " << r;
    }
    PhotoGridIndex index(params.rho / 2, sp.photos);
    CellBoundsCalculator bounds(sp, index);
    DiversifyResult fast = StRelDivSelect(scorer, bounds, params);
    DiversifyResult baseline = GreedyBaselineSelect(scorer, params);
    ASSERT_EQ(fast.selected, baseline.selected) << "street " << street;
    EXPECT_EQ(testing_util::BitsOf(scorer.Objective(fast.selected, params)),
              testing_util::BitsOf(
                  BruteForceObjective(sp, counts, fast.selected, params)))
        << "street " << street;
  }
  EXPECT_GT(described, 10);
}

INSTANTIATE_TEST_SUITE_P(Seeds, TinyCitySweep,
                         ::testing::Values(uint64_t{1}, uint64_t{2},
                                           uint64_t{3}));

TEST(StRelDivTest, KLargerThanPhotosSelectsAll) {
  Fixture fx(9, 80);
  DiversifyParams params;
  params.k = 10000;
  params.rho = 0.0005;
  PhotoScorer scorer(fx.sp, params.rho);
  PhotoGridIndex index(params.rho / 2, fx.sp.photos);
  CellBoundsCalculator bounds(fx.sp, index);
  DiversifyResult fast = StRelDivSelect(scorer, bounds, params);
  EXPECT_EQ(static_cast<int64_t>(fast.selected.size()), fx.sp.size());
  // All distinct.
  std::set<PhotoId> unique(fast.selected.begin(), fast.selected.end());
  EXPECT_EQ(unique.size(), fast.selected.size());
}

TEST(StRelDivTest, PrunesCellsOnClusteredData) {
  Fixture fx(11, 800);
  DiversifyParams params;
  params.k = 10;
  params.rho = 0.0004;
  PhotoScorer scorer(fx.sp, params.rho);
  PhotoGridIndex index(params.rho / 2, fx.sp.photos);
  CellBoundsCalculator bounds(fx.sp, index);
  DiversifyResult fast = StRelDivSelect(scorer, bounds, params);
  EXPECT_GT(fast.stats.cells_pruned, 0);
  EXPECT_GT(fast.stats.cells_refined, 0);
}

TEST(GreedyBaselineTest, FirstPickMaximizesRelevanceWhenLambdaZero) {
  Fixture fx(13, 200);
  DiversifyParams params;
  params.k = 3;
  params.lambda = 0.0;
  params.w = 0.5;
  params.rho = 0.0005;
  PhotoScorer scorer(fx.sp, params.rho);
  DiversifyResult result = GreedyBaselineSelect(scorer, params);
  ASSERT_EQ(result.selected.size(), 3u);
  // With lambda=0 mmr is selection-independent: the result must be the
  // top-3 photos by Rel (ties by id).
  std::vector<PhotoId> all(static_cast<size_t>(fx.sp.size()));
  for (PhotoId r = 0; r < fx.sp.size(); ++r) all[static_cast<size_t>(r)] = r;
  std::stable_sort(all.begin(), all.end(), [&](PhotoId x, PhotoId y) {
    return scorer.Rel(x, params.w) > scorer.Rel(y, params.w);
  });
  EXPECT_EQ(result.selected[0], all[0]);
  // Remaining two are the next best by value (order within equal values is
  // by id for both).
  std::set<PhotoId> expected(all.begin(), all.begin() + 3);
  std::set<PhotoId> got(result.selected.begin(), result.selected.end());
  EXPECT_EQ(got, expected);
}

TEST(GreedyBaselineTest, SelectionsAreDistinct) {
  Fixture fx(17, 150);
  DiversifyParams params;
  params.k = 20;
  params.rho = 0.0005;
  PhotoScorer scorer(fx.sp, params.rho);
  DiversifyResult result = GreedyBaselineSelect(scorer, params);
  std::set<PhotoId> unique(result.selected.begin(), result.selected.end());
  EXPECT_EQ(unique.size(), result.selected.size());
}

// Selecting with near-duplicate photos (the HMV effect): with diversity
// enabled, the summary must not be all duplicates.
TEST(DiversifyTest, DiversityAvoidsNearDuplicates) {
  NetworkBuilder builder;
  VertexId a = builder.AddVertex({0, 0});
  VertexId b = builder.AddVertex({0.01, 0});
  SOI_CHECK(builder.AddStreet("S", {a, b}).ok());
  RoadNetwork network = std::move(builder).Build().ValueOrDie();
  std::vector<Photo> photos;
  // 30 near-duplicates at one hotspot with identical tags.
  Rng rng(19);
  for (int i = 0; i < 30; ++i) {
    Photo photo;
    photo.position = Point{0.002 + rng.Normal(0, 0.00002),
                           rng.Normal(0, 0.00002)};
    photo.keywords = KeywordSet({1, 2, 3});
    photos.push_back(photo);
  }
  // 5 scattered distinct photos.
  for (int i = 0; i < 5; ++i) {
    Photo photo;
    photo.position = Point{0.004 + 0.001 * i, 0.0005};
    photo.keywords = KeywordSet({static_cast<KeywordId>(10 + i)});
    photos.push_back(photo);
  }
  StreetPhotos sp = ExtractStreetPhotosBruteForce(network, 0, photos, 0.002);
  ASSERT_EQ(sp.size(), 35);
  DiversifyParams params;
  params.k = 3;
  params.rho = 0.0002;

  // Pure spatial relevance: picks only hotspot duplicates.
  params.lambda = 0.0;
  params.w = 1.0;
  PhotoScorer scorer(sp, params.rho);
  DiversifyResult rel_only = GreedyBaselineSelect(scorer, params);
  int rel_dupes = 0;
  for (PhotoId r : rel_only.selected) {
    if (r < 30) ++rel_dupes;
  }
  EXPECT_EQ(rel_dupes, 3);

  // Diversity-leaning rel+div: must include at least one non-duplicate
  // (the duplicates have zero pairwise diversity, so a second duplicate
  // contributes nothing to the diversity term).
  params.lambda = 0.8;
  params.w = 0.5;
  DiversifyResult balanced = GreedyBaselineSelect(scorer, params);
  int distinct = 0;
  for (PhotoId r : balanced.selected) {
    if (r >= 30) ++distinct;
  }
  EXPECT_GE(distinct, 1);
}

}  // namespace
}  // namespace soi
