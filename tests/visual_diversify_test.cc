// Tests for the visual-features extension (the paper's future work:
// "enhance the diversification criteria with visual features extracted
// from the photos"): descriptor distances, visual relevance/diversity,
// bound soundness, ST_Rel+Div equivalence with the baseline, and exact
// backward compatibility when visual_weight = 0.

#include <cmath>
#include <vector>

#include "common/random.h"
#include "core/diversify/cell_bounds.h"
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

TEST(VisualDistanceTest, BasicProperties) {
  std::vector<float> a = {0, 0, 0, 0};
  std::vector<float> b = {1, 1, 1, 1};
  std::vector<float> c = {0.5, 0.5, 0.5, 0.5};
  EXPECT_DOUBLE_EQ(VisualDistance(a, a), 0.0);
  EXPECT_DOUBLE_EQ(VisualDistance(a, b), 1.0);  // Cube diagonal, RMS = 1.
  EXPECT_DOUBLE_EQ(VisualDistance(a, c), 0.5);
  EXPECT_DOUBLE_EQ(VisualDistance(a, b), VisualDistance(b, a));
}

// A single-street world whose photos carry descriptors.
struct VisualWorld {
  RoadNetwork network;
  std::vector<Photo> photos;
  StreetPhotos sp;

  explicit VisualWorld(uint64_t seed, int64_t n = 300) {
    NetworkBuilder builder;
    VertexId a = builder.AddVertex({0, 0});
    VertexId b = builder.AddVertex({0.02, 0});
    SOI_CHECK(builder.AddStreet("S", {a, b}).ok());
    network = std::move(builder).Build().ValueOrDie();
    Rng rng(seed);
    Vocabulary vocabulary;
    photos = testing_util::RandomPhotos(
        Box::FromCorners(Point{0, -0.002}, Point{0.02, 0.002}), n, 16,
        &vocabulary, &rng);
    // Descriptors: three visual "scene clusters" plus noise.
    std::vector<std::vector<float>> bases;
    for (int c = 0; c < 3; ++c) {
      std::vector<float> base(6);
      for (float& v : base) v = static_cast<float>(rng.UniformDouble());
      bases.push_back(base);
    }
    for (size_t i = 0; i < photos.size(); ++i) {
      const std::vector<float>& base = bases[i % bases.size()];
      std::vector<float> descriptor(6);
      for (size_t d = 0; d < 6; ++d) {
        descriptor[d] = static_cast<float>(std::clamp(
            static_cast<double>(base[d]) + rng.Normal(0, 0.05), 0.0, 1.0));
      }
      photos[i].visual = std::move(descriptor);
    }
    sp = ExtractStreetPhotosBruteForce(network, 0, photos, 0.0025);
    SOI_CHECK(sp.size() > 40);
  }
};

TEST(VisualScorerTest, ZeroWeightIsExactlyThePaperObjective) {
  VisualWorld world(1);
  DiversifyParams params;
  params.k = 6;
  params.rho = 0.0005;
  params.visual_weight = 0.0;
  PhotoScorer scorer(world.sp, params.rho);
  ASSERT_TRUE(scorer.has_visual());
  // Per-photo and set-level quantities match the w-only forms bit-exactly.
  for (PhotoId r = 0; r < std::min<int64_t>(world.sp.size(), 50); ++r) {
    EXPECT_EQ(scorer.Rel(r, params), scorer.Rel(r, params.w));
  }
  DiversifyResult result = GreedyBaselineSelect(scorer, params);
  EXPECT_EQ(scorer.Objective(result.selected, params),
            (1.0 - params.lambda) *
                    scorer.SetRelevance(result.selected, params.w) +
                params.lambda * scorer.SetDiversity(result.selected,
                                                    params.w));
}

TEST(VisualScorerTest, VisualRelAndDivAreInUnitRange) {
  VisualWorld world(2);
  PhotoScorer scorer(world.sp, 0.0005);
  Rng rng(7);
  for (int trial = 0; trial < 200; ++trial) {
    PhotoId a = static_cast<PhotoId>(rng.UniformInt(0, world.sp.size() - 1));
    PhotoId b = static_cast<PhotoId>(rng.UniformInt(0, world.sp.size() - 1));
    EXPECT_GE(scorer.VisualRel(a), 0.0);
    EXPECT_LE(scorer.VisualRel(a), 1.0);
    EXPECT_GE(scorer.VisualDiv(a, b), 0.0);
    EXPECT_LE(scorer.VisualDiv(a, b), 1.0);
    EXPECT_DOUBLE_EQ(scorer.VisualDiv(a, b), scorer.VisualDiv(b, a));
    EXPECT_DOUBLE_EQ(scorer.VisualDiv(a, a), 0.0);
  }
}

class VisualBoundsProperty : public ::testing::TestWithParam<uint64_t> {};

TEST_P(VisualBoundsProperty, CellBoundsContainExactValues) {
  VisualWorld world(GetParam());
  double rho = 0.0005;
  PhotoScorer scorer(world.sp, rho);
  PhotoGridIndex index(rho / 2, world.sp.photos);
  CellBoundsCalculator bounds(world.sp, index);
  Rng rng(GetParam() * 13 + 1);
  constexpr double kTol = 1e-9;  // float descriptors -> coarser tolerance.
  for (CellId cell : index.non_empty_cells()) {
    for (int trial = 0; trial < 4; ++trial) {
      PhotoId ref =
          static_cast<PhotoId>(rng.UniformInt(0, world.sp.size() - 1));
      Bounds vdiv = bounds.VisualDiv(cell, ref);
      for (PhotoId r : index.FindCell(cell)->photos) {
        EXPECT_GE(scorer.VisualDiv(r, ref), vdiv.lower - kTol);
        EXPECT_LE(scorer.VisualDiv(r, ref), vdiv.upper + kTol);
      }
    }
  }
}

TEST_P(VisualBoundsProperty, VisualAwareMmrBoundsContainExact) {
  VisualWorld world(GetParam() + 50);
  double rho = 0.0005;
  PhotoScorer scorer(world.sp, rho);
  PhotoGridIndex index(rho / 2, world.sp.photos);
  CellBoundsCalculator bounds(world.sp, index);
  Rng rng(GetParam() * 19 + 3);
  for (int trial = 0; trial < 4; ++trial) {
    DiversifyParams params;
    params.k = static_cast<int32_t>(rng.UniformInt(2, 6));
    params.lambda = rng.UniformDouble();
    params.w = rng.UniformDouble();
    params.visual_weight = rng.UniformDouble(0.1, 0.8);
    params.rho = rho;
    std::vector<PhotoId> selected;
    int64_t ns = rng.UniformInt(0, 3);
    for (int64_t i = 0; i < ns; ++i) {
      selected.push_back(
          static_cast<PhotoId>(rng.UniformInt(0, world.sp.size() - 1)));
    }
    for (CellId cell : index.non_empty_cells()) {
      Bounds mmr = bounds.Mmr(cell, selected, params);
      for (PhotoId r : index.FindCell(cell)->photos) {
        double exact = scorer.Mmr(r, selected, params);
        EXPECT_GE(exact, mmr.lower - 1e-9);
        EXPECT_LE(exact, mmr.upper + 1e-9);
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, VisualBoundsProperty,
                         ::testing::Values(1, 2, 3, 4));

class VisualEquivalence
    : public ::testing::TestWithParam<std::tuple<uint64_t, double>> {};

TEST_P(VisualEquivalence, StRelDivMatchesBaselineWithVisualWeight) {
  auto [seed, visual_weight] = GetParam();
  VisualWorld world(seed);
  DiversifyParams params;
  params.k = 8;
  params.lambda = 0.5;
  params.w = 0.5;
  params.rho = 0.0005;
  params.visual_weight = visual_weight;
  PhotoScorer scorer(world.sp, params.rho);
  PhotoGridIndex index(params.rho / 2, world.sp.photos);
  CellBoundsCalculator bounds(world.sp, index);
  DiversifyResult fast = StRelDivSelect(scorer, bounds, params);
  DiversifyResult slow = GreedyBaselineSelect(scorer, params);
  EXPECT_EQ(fast.selected, slow.selected) << "v=" << visual_weight;
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, VisualEquivalence,
    ::testing::Combine(::testing::Values(uint64_t{5}, uint64_t{6}),
                       ::testing::Values(0.0, 0.3, 0.7, 1.0)));

// Visually near-duplicate photos with *different tags and locations* are
// only separated by the visual criterion.
TEST(VisualDiversifyTest, VisualWeightAvoidsVisualDuplicates) {
  NetworkBuilder builder;
  VertexId a = builder.AddVertex({0, 0});
  VertexId b = builder.AddVertex({0.01, 0});
  SOI_CHECK(builder.AddStreet("S", {a, b}).ok());
  RoadNetwork network = std::move(builder).Build().ValueOrDie();
  Rng rng(11);
  std::vector<Photo> photos;
  // 20 photos of the same monument from different spots with different
  // tags (high spatial + textual diversity) but identical appearance.
  std::vector<float> monument = {0.9f, 0.1f, 0.8f, 0.2f};
  for (int i = 0; i < 20; ++i) {
    Photo photo;
    photo.position = Point{0.0005 * i, (i % 2 ? 1 : -1) * 0.0004};
    photo.keywords = KeywordSet({static_cast<KeywordId>(i)});
    photo.visual = monument;
    photos.push_back(photo);
  }
  // 5 visually distinct photos.
  for (int i = 0; i < 5; ++i) {
    Photo photo;
    photo.position = Point{0.002 * i, 0.0001};
    photo.keywords = KeywordSet({static_cast<KeywordId>(100 + i)});
    photo.visual = {static_cast<float>(0.2 * i), 0.9f,
                    static_cast<float>(0.1 * i), 0.7f};
    photos.push_back(photo);
  }
  StreetPhotos sp = ExtractStreetPhotosBruteForce(network, 0, photos, 0.002);
  ASSERT_EQ(sp.size(), 25);
  DiversifyParams params;
  params.k = 4;
  params.lambda = 1.0;  // Pure diversity.
  params.w = 0.5;
  params.rho = 0.0005;
  PhotoScorer scorer(sp, params.rho);

  // Without the visual term, spatial+textual diversity is happy with all
  // monument shots (they are spread out and have disjoint tags).
  params.visual_weight = 0.0;
  DiversifyResult blind = GreedyBaselineSelect(scorer, params);
  int blind_monument = 0;
  for (PhotoId r : blind.selected) {
    if (r < 20) ++blind_monument;
  }
  // With a strong visual weight, the summary mixes in visually distinct
  // photos.
  params.visual_weight = 0.8;
  DiversifyResult aware = GreedyBaselineSelect(scorer, params);
  int aware_distinct = 0;
  for (PhotoId r : aware.selected) {
    if (r >= 20) ++aware_distinct;
  }
  EXPECT_GE(aware_distinct, 2);
  EXPECT_GE(blind_monument, aware_distinct == 0 ? 0 : 1);
}

TEST(VisualDiversifyTest, GeneratorAttachesConsistentDescriptors) {
  CityProfile profile = testing_util::TinyCityProfile(9);
  profile.target_photos = 400;
  Dataset dataset = GenerateCity(profile).ValueOrDie();
  ASSERT_FALSE(dataset.photos.empty());
  size_t dim = dataset.photos[0].visual.size();
  EXPECT_EQ(dim, static_cast<size_t>(profile.visual_descriptor_dim));
  for (const Photo& photo : dataset.photos) {
    ASSERT_EQ(photo.visual.size(), dim);
    for (float v : photo.visual) {
      EXPECT_GE(v, 0.0f);
      EXPECT_LE(v, 1.0f);
    }
  }
}

TEST(VisualDiversifyTest, DimZeroDisablesDescriptors) {
  CityProfile profile = testing_util::TinyCityProfile(10);
  profile.target_photos = 200;
  profile.visual_descriptor_dim = 0;
  Dataset dataset = GenerateCity(profile).ValueOrDie();
  for (const Photo& photo : dataset.photos) {
    EXPECT_TRUE(photo.visual.empty());
  }
}

}  // namespace
}  // namespace soi
