#ifndef SOI_TESTS_TEST_UTIL_H_
#define SOI_TESTS_TEST_UTIL_H_

#include <cstdint>
#include <cstring>
#include <string>
#include <vector>

#include "common/check.h"
#include "common/random.h"
#include "core/street_photos.h"
#include "datagen/city_profile.h"
#include "network/network_builder.h"
#include "network/road_network.h"
#include "objects/photo.h"
#include "objects/poi.h"
#include "text/vocabulary.h"

namespace soi {
namespace testing_util {

/// A straight grid network with `rows` x `cols` intersections spaced
/// `spacing` apart starting at `origin`; every row/column is one street of
/// (cols-1)/(rows-1) segments.
inline RoadNetwork MakeGridNetwork(int32_t rows, int32_t cols,
                                   double spacing,
                                   Point origin = Point{0.0, 0.0}) {
  NetworkBuilder builder;
  std::vector<VertexId> ids(static_cast<size_t>(rows) * cols);
  for (int32_t i = 0; i < rows; ++i) {
    for (int32_t j = 0; j < cols; ++j) {
      ids[static_cast<size_t>(i) * cols + j] = builder.AddVertex(
          Point{origin.x + j * spacing, origin.y + i * spacing});
    }
  }
  // Street names are built with operator+= instead of
  // `"H" + std::to_string(i)`: GCC 12 emits a false-positive
  // -Wrestrict diagnostic (GCC PR105651) when the
  // operator+(const char*, string&&) overload is inlined at -O3, and
  // the default build treats it as an error.
  for (int32_t i = 0; i < rows; ++i) {
    std::vector<VertexId> path;
    for (int32_t j = 0; j < cols; ++j) {
      path.push_back(ids[static_cast<size_t>(i) * cols + j]);
    }
    std::string name = "H";
    name += std::to_string(i);
    SOI_CHECK(builder.AddStreet(name, path).ok());
  }
  for (int32_t j = 0; j < cols; ++j) {
    std::vector<VertexId> path;
    for (int32_t i = 0; i < rows; ++i) {
      path.push_back(ids[static_cast<size_t>(i) * cols + j]);
    }
    std::string name = "V";
    name += std::to_string(j);
    SOI_CHECK(builder.AddStreet(name, path).ok());
  }
  auto network = std::move(builder).Build();
  SOI_CHECK(network.ok());
  return std::move(network).ValueOrDie();
}

/// `n` POIs uniform in `bounds`, each with 1-3 keywords drawn from a
/// `vocab_size`-word vocabulary (Zipf-skewed, interned as "kw<i>").
inline std::vector<Poi> RandomPois(const Box& bounds, int64_t n,
                                   int32_t vocab_size,
                                   Vocabulary* vocabulary, Rng* rng) {
  std::vector<KeywordId> words;
  for (int32_t i = 0; i < vocab_size; ++i) {
    words.push_back(vocabulary->Intern("kw" + std::to_string(i)));
  }
  ZipfSampler sampler(words.size(), 0.8);
  std::vector<Poi> pois;
  pois.reserve(static_cast<size_t>(n));
  for (int64_t i = 0; i < n; ++i) {
    Poi poi;
    poi.position = Point{rng->UniformDouble(bounds.min.x, bounds.max.x),
                         rng->UniformDouble(bounds.min.y, bounds.max.y)};
    std::vector<KeywordId> ids;
    int64_t count = rng->UniformInt(1, 3);
    for (int64_t c = 0; c < count; ++c) {
      ids.push_back(words[sampler.Sample(rng)]);
    }
    poi.keywords = KeywordSet(std::move(ids));
    pois.push_back(std::move(poi));
  }
  return pois;
}

/// `n` photos uniform in `bounds` with 1-5 Zipf keywords; a third of them
/// are concentrated around the box center to create density contrast.
inline std::vector<Photo> RandomPhotos(const Box& bounds, int64_t n,
                                       int32_t vocab_size,
                                       Vocabulary* vocabulary, Rng* rng) {
  std::vector<KeywordId> words;
  for (int32_t i = 0; i < vocab_size; ++i) {
    words.push_back(vocabulary->Intern("pw" + std::to_string(i)));
  }
  ZipfSampler sampler(words.size(), 1.0);
  Point center{(bounds.min.x + bounds.max.x) / 2,
               (bounds.min.y + bounds.max.y) / 2};
  std::vector<Photo> photos;
  photos.reserve(static_cast<size_t>(n));
  for (int64_t i = 0; i < n; ++i) {
    Photo photo;
    if (i % 3 == 0) {
      photo.position =
          Point{center.x + rng->Normal(0, bounds.Width() / 20),
                center.y + rng->Normal(0, bounds.Height() / 20)};
    } else {
      photo.position =
          Point{rng->UniformDouble(bounds.min.x, bounds.max.x),
                rng->UniformDouble(bounds.min.y, bounds.max.y)};
    }
    std::vector<KeywordId> ids;
    int64_t count = rng->UniformInt(1, 5);
    for (int64_t c = 0; c < count; ++c) {
      ids.push_back(words[sampler.Sample(rng)]);
    }
    photo.keywords = KeywordSet(std::move(ids));
    photos.push_back(std::move(photo));
  }
  return photos;
}

/// A down-scaled city profile that generates in milliseconds; used by the
/// property-test sweeps.
/// The bits of `v`, for comparisons that must be exact (EXPECT_DOUBLE_EQ
/// allows a 4-ulp difference).
inline uint64_t BitsOf(double v) {
  uint64_t bits;
  std::memcpy(&bits, &v, sizeof(bits));
  return bits;
}

/// Definition 4's neighbour counts by the O(n^2) scan: for each photo r of
/// R_s, the photos r' (r itself included) with r.DistanceTo(r') <= rho.
inline std::vector<int64_t> BruteForceNeighborCounts(const StreetPhotos& sp,
                                                     double rho) {
  std::vector<int64_t> counts(sp.photos.size(), 0);
  for (size_t i = 0; i < sp.photos.size(); ++i) {
    for (const Photo& other : sp.photos) {
      if (sp.photos[i].position.DistanceTo(other.position) <= rho) {
        ++counts[i];
      }
    }
  }
  return counts;
}

inline CityProfile TinyCityProfile(uint64_t seed) {
  CityProfile profile;
  profile.name = "Tinytown";
  profile.seed = seed;
  profile.bbox = Box::FromCorners(Point{10.0, 50.0}, Point{10.04, 50.02});
  profile.target_segments = 260;
  profile.target_pois = 4000;
  profile.target_photos = 1500;
  profile.num_arterials = 2;
  profile.categories = {
      {"shop", 0.05, 4, 0.5},
      {"food", 0.08, 3, 0.4},
      {"museum", 0.02, 2, 0.5},
      {"office", 0.20, 0, 0.0},
  };
  profile.noise_vocabulary = 120;
  profile.num_photo_street_clusters = 4;
  profile.num_photo_events = 3;
  return profile;
}

}  // namespace testing_util
}  // namespace soi

#endif  // SOI_TESTS_TEST_UTIL_H_
