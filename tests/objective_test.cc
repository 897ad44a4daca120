#include <algorithm>
#include <cmath>
#include <limits>
#include <vector>

#include "common/random.h"
#include "core/diversify/objective.h"
#include "core/street_photos.h"
#include "grid/grid_geometry.h"
#include "gtest/gtest.h"
#include "network/network_builder.h"
#include "test_util.h"

namespace soi {
namespace {

using testing_util::BitsOf;

// A one-street world, from the origin to `end`, with photos placed by the
// test.
struct World {
  RoadNetwork network;
  std::vector<Photo> photos;

  explicit World(Point end = Point{1, 0}) {
    NetworkBuilder builder;
    VertexId a = builder.AddVertex({0, 0});
    VertexId b = builder.AddVertex(end);
    SOI_CHECK(builder.AddStreet("S", {a, b}).ok());
    network = std::move(builder).Build().ValueOrDie();
  }

  void Add(double x, double y, std::vector<KeywordId> tags) {
    Photo photo;
    photo.position = Point{x, y};
    photo.keywords = KeywordSet(std::move(tags));
    photos.push_back(std::move(photo));
  }

  StreetPhotos Extract(double eps) const {
    return ExtractStreetPhotosBruteForce(network, 0, photos, eps);
  }
};

TEST(PhotoScorerTest, SpatialRelCountsNeighborhood) {
  World world;
  world.Add(0.10, 0.0, {1});
  world.Add(0.11, 0.0, {2});  // Within rho=0.02 of the first.
  world.Add(0.50, 0.0, {3});  // Isolated.
  StreetPhotos sp = world.Extract(0.1);
  PhotoScorer scorer(sp, /*rho=*/0.02);
  // Photo 0 has neighbors {0, 1} -> 2/3.
  EXPECT_DOUBLE_EQ(scorer.SpatialRel(0), 2.0 / 3.0);
  EXPECT_DOUBLE_EQ(scorer.SpatialRel(1), 2.0 / 3.0);
  EXPECT_DOUBLE_EQ(scorer.SpatialRel(2), 1.0 / 3.0);  // Only itself.
}

// Every spatial_rel must be the O(n^2) scan's neighbour count over |R_s|,
// bit for bit.
void ExpectSpatialRelIsBruteForce(const StreetPhotos& sp, double rho) {
  PhotoScorer scorer(sp, rho);
  std::vector<int64_t> counts =
      testing_util::BruteForceNeighborCounts(sp, rho);
  double inv_total = 1.0 / static_cast<double>(sp.size());
  for (PhotoId r = 0; r < sp.size(); ++r) {
    ASSERT_EQ(BitsOf(scorer.SpatialRel(r)),
              BitsOf(static_cast<double>(counts[static_cast<size_t>(r)]) *
                     inv_total))
        << "photo " << r << " brute-force count "
        << counts[static_cast<size_t>(r)];
  }
}

TEST(PhotoScorerTest, SpatialRelMatchesBruteForceOnRandomData) {
  Rng rng(5);
  World world;
  for (int i = 0; i < 300; ++i) {
    world.Add(rng.UniformDouble(0, 1), rng.UniformDouble(-0.02, 0.02),
              {static_cast<KeywordId>(rng.UniformInt(0, 9))});
  }
  StreetPhotos sp = world.Extract(0.05);
  ASSERT_EQ(sp.size(), 300);
  ExpectSpatialRelIsBruteForce(sp, 0.013);
}

// The layouts below stress the cell counting of spatial relevance: whole
// cells counted at once, cells skipped, and the per-pair test on cells
// that straddle a photo's rho circle.
constexpr double kRho = 0.0001;

TEST(PhotoScorerTest, SpatialRelExactOnEventStacks) {
  // Event photos are stacked around a centre with N(0, rho/10) jitter;
  // the second stack overlaps the first's rho circles.
  Rng rng(21);
  World world(Point{0.01, 0});
  for (double cx : {0.002, 0.002 + 1.5 * kRho, 0.006}) {
    for (int i = 0; i < 500; ++i) {
      world.Add(cx + rng.Normal(0, kRho / 10), rng.Normal(0, kRho / 10),
                {1, 2});
    }
  }
  for (int i = 0; i < 300; ++i) {
    world.Add(rng.UniformDouble(0, 0.01), rng.UniformDouble(-0.0005, 0.0005),
              {3});
  }
  ExpectSpatialRelIsBruteForce(world.Extract(0.001), kRho);
}

TEST(PhotoScorerTest, SpatialRelExactOnDuplicatePositions) {
  Rng rng(22);
  World world(Point{0.01, 0});
  for (int spot = 0; spot < 60; ++spot) {
    Point p{0.003 + rng.UniformDouble(0, 0.0005),
            rng.UniformDouble(-0.0002, 0.0002)};
    int64_t copies = rng.UniformInt(1, 20);
    for (int64_t i = 0; i < copies; ++i) world.Add(p.x, p.y, {1});
  }
  ExpectSpatialRelIsBruteForce(world.Extract(0.001), kRho);
}

// The largest s with std::sqrt(s) <= rho, so a pair counts exactly when
// its rounded squared distance is at most this. Recomputed here rather
// than taken from the scorer.
double SquaredLimit(double rho) {
  constexpr double kInf = std::numeric_limits<double>::infinity();
  double limit = rho * rho;
  while (std::sqrt(limit) > rho) limit = std::nextafter(limit, 0.0);
  while (std::sqrt(std::nextafter(limit, kInf)) <= rho) {
    limit = std::nextafter(limit, kInf);
  }
  return limit;
}

// A partner of p up and to the right, in direction t (well away from the
// axes), at the rho boundary: the farthest point one ulp step of its y
// can reach that still counts, preferring one whose squared distance to
// p is exactly SquaredLimit(rho).
Point PartnerAtLimit(const Point& p, double t, double rho) {
  constexpr double kInf = std::numeric_limits<double>::infinity();
  const double limit = SquaredLimit(rho);
  Point q;
  double qx = p.x + rho * std::cos(t);
  for (int attempt = 0; attempt < 64; ++attempt) {
    double dx = qx - p.x;
    double qy = p.y + std::sqrt(std::max(0.0, limit - dx * dx));
    auto inside = [&](double y) {
      return p.SquaredDistanceTo(Point{qx, y}) <= limit;
    };
    while (!inside(qy)) qy = std::nextafter(qy, p.y);
    while (inside(std::nextafter(qy, kInf))) qy = std::nextafter(qy, kInf);
    q = Point{qx, qy};
    if (p.SquaredDistanceTo(q) == limit) break;
    qx = std::nextafter(qx, kInf);
  }
  return q;
}

TEST(PhotoScorerTest, SpatialRelExactOnPairsRhoApart) {
  constexpr double kInf = std::numeric_limits<double>::infinity();
  World world(Point{0.01, 0});
  // Along the axes: coordinates that are power-of-two multiples of rho
  // make the differences exactly rho, and one ulp further out does not
  // count.
  for (int i = 0; i < 4; ++i) {
    double y = 0.0002 * (i - 2);
    for (double x : {-2 * kRho, -kRho, 0.0, kRho, 2 * kRho}) {
      world.Add(x, y, {1});
    }
    world.Add(std::nextafter(2 * kRho, kInf), y + 0.00005, {2});
    world.Add(kRho, y + 0.00005, {2});
  }
  for (double x : {0.003, 0.004}) {
    for (double y : {-kRho, 0.0, kRho, 2 * kRho}) world.Add(x, y, {1});
    world.Add(x + 0.00005, std::nextafter(kRho, kInf), {2});
    world.Add(x + 0.00005, -kRho, {2});
  }
  // Along diagonals: pairs at the squared limit (sqrt rounds their
  // distance to at most rho) with a twin one ulp beyond, and companions
  // that keep the partner its cell's far corner (i % 3 == 1) or put no
  // member there (i % 3 == 2), so every level of the cell counting meets
  // the boundary.
  Rng rng(23);
  for (int i = 0; i < 150; ++i) {
    Point p{rng.UniformDouble(0.005, 0.009),
            rng.UniformDouble(-0.0004, 0.0004)};
    Point q = PartnerAtLimit(p, rng.UniformDouble(0.3, 1.2), kRho);
    world.Add(p.x, p.y, {1});
    world.Add(q.x, q.y, {3});
    world.Add(q.x, std::nextafter(q.y, kInf), {3});
    double step = kRho / 20 * rng.UniformDouble(0.5, 1.0);
    if (i % 3 == 1) world.Add(q.x - step, q.y - step, {4});
    if (i % 3 == 2) world.Add(q.x - step, q.y + step, {4});
  }
  ExpectSpatialRelIsBruteForce(world.Extract(0.001), kRho);
}

TEST(PhotoScorerTest, SpatialRelExactOnCellBoundaries) {
  // A lattice of spacing rho/2 from the photos' own minimum corner puts
  // every photo on a boundary of the rho/2 grid, with many pairs exactly
  // rho apart along an axis.
  World world(Point{0.01, 0});
  for (int i = 0; i < 60; ++i) {
    for (int j = 0; j < 9; ++j) {
      world.Add(0.002 + i * (kRho / 2), -0.0002 + j * (kRho / 2), {1});
    }
  }
  StreetPhotos sp = world.Extract(0.001);
  ASSERT_EQ(sp.size(), 60 * 9);
  ExpectSpatialRelIsBruteForce(sp, kRho);
}

TEST(PhotoScorerTest, SpatialRelExactWhenRoundingPutsPairsThreeCellsApart) {
  // With the photos' bounds fixed by two corner photos, the scorer's grid
  // is the rho/2 grid over those bounds grown by rho. Near a cell
  // boundary the rounding of the cell arithmetic can put a pair within
  // rho of each other three cells apart, outside the 5x5 block that
  // exact arithmetic promises.
  constexpr double kInf = std::numeric_limits<double>::infinity();
  World world(Point{0.01, 0});
  Box bounds = Box::FromCorners(Point{0.001, -0.0004}, Point{0.009, 0.0004});
  world.Add(bounds.min.x, bounds.min.y, {1});
  world.Add(bounds.max.x, bounds.max.y, {1});
  GridGeometry geometry(bounds.Expanded(kRho), kRho / 2);
  int pairs = 0;
  for (int k = 3; k < 150; ++k) {
    double x = geometry.bounds().min.x + k * (kRho / 2);
    for (double px : {std::nextafter(x, -kInf), x, std::nextafter(x, kInf)}) {
      double qx = px + kRho;
      while (qx - px > kRho) qx = std::nextafter(qx, -kInf);
      while (std::nextafter(qx, kInf) - px <= kRho) {
        qx = std::nextafter(qx, kInf);
      }
      if (geometry.CoordOf(Point{qx, 0}).ix -
              geometry.CoordOf(Point{px, 0}).ix ==
          3) {
        world.Add(px, 0.0001, {2});
        world.Add(qx, 0.0001, {2});
        ++pairs;
      }
    }
  }
  ASSERT_GT(pairs, 0);
  ExpectSpatialRelIsBruteForce(world.Extract(0.001), kRho);
}

TEST(PhotoScorerTest, SpatialRelExactOnOnePhoto) {
  World world(Point{0.01, 0});
  world.Add(0.004, 0.0001, {1});
  StreetPhotos sp = world.Extract(0.001);
  ExpectSpatialRelIsBruteForce(sp, kRho);
  EXPECT_EQ(PhotoScorer(sp, kRho).SpatialRel(0), 1.0);
}

TEST(PhotoScorerTest, SpatialRelExactWhenAllPhotosCoincide) {
  World world(Point{0.01, 0});
  for (int i = 0; i < 300; ++i) world.Add(0.005, 0.0001, {1});
  StreetPhotos sp = world.Extract(0.001);
  ExpectSpatialRelIsBruteForce(sp, kRho);
  for (PhotoId r = 0; r < sp.size(); ++r) {
    EXPECT_EQ(PhotoScorer(sp, kRho).SpatialRel(r), 1.0);
  }
}

TEST(PhotoScorerTest, SpatialRelExactOnLongDiagonalStreet) {
  // A street whose grid spans ~1000 x 1000 cells of rho/2 holding a few
  // thousand photos: scattered along it, plus event stacks.
  Rng rng(24);
  World world(Point{0.05, 0.05});
  for (int i = 0; i < 2000; ++i) {
    double t = rng.UniformDouble(0, 0.05);
    world.Add(t + rng.Normal(0, kRho), t + rng.Normal(0, kRho), {1});
  }
  for (double t : {0.01, 0.03}) {
    for (int i = 0; i < 500; ++i) {
      world.Add(t + rng.Normal(0, kRho / 10), t + rng.Normal(0, kRho / 10),
                {2});
    }
  }
  ExpectSpatialRelIsBruteForce(world.Extract(0.001), kRho);
}

TEST(PhotoScorerTest, PairwiseDiversityMatchesDefinitionsBitForBit) {
  Rng rng(25);
  World world;
  for (int i = 0; i < 300; ++i) {
    std::vector<KeywordId> tags;
    int64_t n = rng.UniformInt(0, 6);
    for (int64_t t = 0; t < n; ++t) {
      tags.push_back(static_cast<KeywordId>(rng.UniformInt(0, 12)));
    }
    world.Add(rng.UniformDouble(0, 1), rng.UniformDouble(-0.05, 0.05),
              std::move(tags));
  }
  StreetPhotos sp = world.Extract(0.06);
  ASSERT_EQ(sp.size(), 300);
  PhotoScorer scorer(sp, 0.02);
  for (PhotoId a = 0; a < sp.size(); ++a) {
    const Photo& pa = sp.photos[static_cast<size_t>(a)];
    for (PhotoId b = 0; b < sp.size(); ++b) {
      const Photo& pb = sp.photos[static_cast<size_t>(b)];
      ASSERT_EQ(BitsOf(scorer.SpatialDiv(a, b)),
                BitsOf(pa.position.DistanceTo(pb.position) /
                       sp.max_distance))
          << a << "," << b;
      ASSERT_EQ(BitsOf(scorer.TextualDiv(a, b)),
                BitsOf(pa.keywords.JaccardDistance(pb.keywords)))
          << a << "," << b;
    }
  }
}

TEST(PhotoScorerTest, TextualRelFollowsDefinition6) {
  World world;
  world.Add(0.1, 0.0, {1, 2});
  world.Add(0.2, 0.0, {2});
  world.Add(0.3, 0.0, {3});
  StreetPhotos sp = world.Extract(0.1);
  // Phi_s: {1:1, 2:2, 3:1}, norm 4.
  PhotoScorer scorer(sp, 0.01);
  EXPECT_DOUBLE_EQ(scorer.TextualRel(0), (1.0 + 2.0) / 4.0);
  EXPECT_DOUBLE_EQ(scorer.TextualRel(1), 2.0 / 4.0);
  EXPECT_DOUBLE_EQ(scorer.TextualRel(2), 1.0 / 4.0);
}

TEST(PhotoScorerTest, SpatialDivNormalizedByMaxD) {
  World world;
  world.Add(0.0, 0.0, {1});
  world.Add(1.0, 0.0, {2});
  StreetPhotos sp = world.Extract(0.5);
  PhotoScorer scorer(sp, 0.1);
  EXPECT_DOUBLE_EQ(scorer.SpatialDiv(0, 1), 1.0 / sp.max_distance);
  EXPECT_DOUBLE_EQ(scorer.SpatialDiv(0, 0), 0.0);
  EXPECT_DOUBLE_EQ(scorer.SpatialDiv(0, 1), scorer.SpatialDiv(1, 0));
}

TEST(PhotoScorerTest, TextualDivIsJaccard) {
  World world;
  world.Add(0.1, 0.0, {1, 2});
  world.Add(0.2, 0.0, {2, 3});
  world.Add(0.3, 0.0, {1, 2});
  StreetPhotos sp = world.Extract(0.1);
  PhotoScorer scorer(sp, 0.01);
  EXPECT_DOUBLE_EQ(scorer.TextualDiv(0, 1), 1.0 - 1.0 / 3.0);
  EXPECT_DOUBLE_EQ(scorer.TextualDiv(0, 2), 0.0);
}

TEST(PhotoScorerTest, RelAndDivWeighting) {
  World world;
  world.Add(0.1, 0.0, {1});
  world.Add(0.9, 0.0, {2});
  StreetPhotos sp = world.Extract(0.1);
  PhotoScorer scorer(sp, 0.01);
  EXPECT_DOUBLE_EQ(scorer.Rel(0, 1.0), scorer.SpatialRel(0));
  EXPECT_DOUBLE_EQ(scorer.Rel(0, 0.0), scorer.TextualRel(0));
  EXPECT_DOUBLE_EQ(scorer.Div(0, 1, 1.0), scorer.SpatialDiv(0, 1));
  EXPECT_DOUBLE_EQ(scorer.Div(0, 1, 0.0), scorer.TextualDiv(0, 1));
  EXPECT_DOUBLE_EQ(
      scorer.Div(0, 1, 0.3),
      0.3 * scorer.SpatialDiv(0, 1) + 0.7 * scorer.TextualDiv(0, 1));
}

TEST(PhotoScorerTest, MmrMatchesEquation10) {
  World world;
  world.Add(0.1, 0.0, {1});
  world.Add(0.5, 0.0, {2});
  world.Add(0.9, 0.0, {3});
  StreetPhotos sp = world.Extract(0.1);
  PhotoScorer scorer(sp, 0.05);
  DiversifyParams params;
  params.k = 3;
  params.lambda = 0.4;
  params.w = 0.6;
  // Empty selection: pure relevance term.
  EXPECT_DOUBLE_EQ(scorer.Mmr(0, {}, params),
                   (1 - 0.4) * scorer.Rel(0, 0.6));
  // One selected photo.
  std::vector<PhotoId> selected{1};
  EXPECT_DOUBLE_EQ(scorer.Mmr(0, selected, params),
                   0.6 * scorer.Rel(0, 0.6) +
                       0.4 / 2.0 * scorer.Div(0, 1, 0.6));
}

TEST(PhotoScorerTest, SetRelevanceAndDiversityFollowEquations4And5) {
  World world;
  world.Add(0.1, 0.0, {1});
  world.Add(0.5, 0.0, {2});
  world.Add(0.9, 0.0, {1, 2});
  StreetPhotos sp = world.Extract(0.1);
  PhotoScorer scorer(sp, 0.05);
  double w = 0.5;
  std::vector<PhotoId> set{0, 1, 2};
  double expected_rel = 0.0;
  for (PhotoId r : set) {
    expected_rel += w / 3.0 * scorer.SpatialRel(r) +
                    (1 - w) / 3.0 * scorer.TextualRel(r);
  }
  EXPECT_NEAR(scorer.SetRelevance(set, w), expected_rel, 1e-15);

  double expected_div = 0.0;
  double pairs = 3.0;  // C(3,2)
  for (size_t i = 0; i < set.size(); ++i) {
    for (size_t j = i + 1; j < set.size(); ++j) {
      expected_div += w * scorer.SpatialDiv(set[i], set[j]) +
                      (1 - w) * scorer.TextualDiv(set[i], set[j]);
    }
  }
  expected_div /= pairs;
  EXPECT_NEAR(scorer.SetDiversity(set, w), expected_div, 1e-15);

  DiversifyParams params;
  params.lambda = 0.25;
  params.w = w;
  EXPECT_NEAR(scorer.Objective(set, params),
              0.75 * scorer.SetRelevance(set, w) +
                  0.25 * scorer.SetDiversity(set, w),
              1e-15);
}

TEST(PhotoScorerTest, SetDiversityOfSingletonIsZero) {
  World world;
  world.Add(0.1, 0.0, {1});
  StreetPhotos sp = world.Extract(0.1);
  PhotoScorer scorer(sp, 0.05);
  EXPECT_DOUBLE_EQ(scorer.SetDiversity({0}, 0.5), 0.0);
  EXPECT_DOUBLE_EQ(scorer.SetRelevance({}, 0.5), 0.0);
}

TEST(PhotoScorerTest, ValuesAreInUnitRange) {
  Vocabulary vocabulary;
  Rng rng(7);
  World world;
  for (int i = 0; i < 200; ++i) {
    std::vector<KeywordId> tags;
    int64_t n = rng.UniformInt(1, 5);
    for (int64_t t = 0; t < n; ++t) {
      tags.push_back(static_cast<KeywordId>(rng.UniformInt(0, 20)));
    }
    world.Add(rng.UniformDouble(0, 1), rng.UniformDouble(-0.05, 0.05),
              std::move(tags));
  }
  StreetPhotos sp = world.Extract(0.06);
  PhotoScorer scorer(sp, 0.02);
  for (PhotoId r = 0; r < sp.size(); ++r) {
    EXPECT_GE(scorer.SpatialRel(r), 0.0);
    EXPECT_LE(scorer.SpatialRel(r), 1.0);
    EXPECT_GE(scorer.TextualRel(r), 0.0);
    EXPECT_LE(scorer.TextualRel(r), 1.0);
  }
  for (int trial = 0; trial < 100; ++trial) {
    PhotoId a = static_cast<PhotoId>(rng.UniformInt(0, sp.size() - 1));
    PhotoId b = static_cast<PhotoId>(rng.UniformInt(0, sp.size() - 1));
    EXPECT_GE(scorer.SpatialDiv(a, b), 0.0);
    EXPECT_LE(scorer.SpatialDiv(a, b), 1.0);
    EXPECT_GE(scorer.TextualDiv(a, b), 0.0);
    EXPECT_LE(scorer.TextualDiv(a, b), 1.0);
  }
}

}  // namespace
}  // namespace soi
