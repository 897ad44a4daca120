#include <algorithm>
#include <set>
#include <vector>

#include "common/random.h"
#include "datagen/dataset.h"
#include "geometry/distance.h"
#include "grid/segment_cell_index.h"
#include "gtest/gtest.h"
#include "test_util.h"

namespace soi {
namespace {

GridGeometry GeometryFor(const RoadNetwork& network, double cell_size) {
  return GridGeometry(network.bounds().Expanded(cell_size), cell_size);
}

// C_eps rows as the per-eps geometric loop computes them: probe one cell
// beyond eps around the segment MBR, keep distance <= eps in
// ForEachCellInBox order. The filter path must reproduce this arena.
CsrArray<CellId> GeometricRows(const SegmentCellIndex& base, double eps) {
  const GridGeometry& geometry = base.geometry();
  CsrArray<CellId> rows;
  for (SegmentId id = 0; id < base.network().num_segments(); ++id) {
    const Segment& seg = base.network().segment(id).geometry;
    geometry.ForEachCellInBox(
        seg.BoundingBox().Expanded(eps + geometry.cell_size()),
        [&](CellId cell) {
          if (SegmentBoxDistance(seg, geometry.CellBox(cell)) <= eps) {
            rows.PushValue(cell);
          }
        });
    rows.FinishRow();
  }
  return rows;
}

// SL2 by a comparison sort: decreasing |C_eps(l)|, ties by ascending id.
std::vector<SegmentId> SortedSl2(const EpsAugmentedMaps& maps) {
  std::vector<SegmentId> order(
      static_cast<size_t>(maps.segment_cells().num_rows()));
  for (size_t i = 0; i < order.size(); ++i) {
    order[i] = static_cast<SegmentId>(i);
  }
  std::sort(order.begin(), order.end(), [&](SegmentId a, SegmentId b) {
    if (maps.NumSegmentCells(a) != maps.NumSegmentCells(b)) {
      return maps.NumSegmentCells(a) > maps.NumSegmentCells(b);
    }
    return a < b;
  });
  return order;
}

// `got` equals `want` byte for byte: rows, inversion and SL2 order.
void ExpectSameMaps(const EpsAugmentedMaps& got, const EpsAugmentedMaps& want,
                    int64_t num_cells) {
  ASSERT_EQ(got.segment_cells(), want.segment_cells());
  for (CellId cell = 0; cell < num_cells; ++cell) {
    ASSERT_EQ(got.CellSegments(cell), want.CellSegments(cell))
        << "cell " << cell;
  }
  EXPECT_EQ(got.SegmentsByCellCount(), want.SegmentsByCellCount());
}

TEST(SegmentCellIndexTest, BaseMapsMatchBruteForce) {
  RoadNetwork network = testing_util::MakeGridNetwork(4, 5, 0.01);
  GridGeometry geometry = GeometryFor(network, 0.004);
  SegmentCellIndex index(network, geometry);
  for (SegmentId id = 0; id < network.num_segments(); ++id) {
    const Segment& seg = network.segment(id).geometry;
    std::set<CellId> expected;
    for (CellId cell = 0; cell < geometry.num_cells(); ++cell) {
      // Mirrors the exact touch test in segment_cell_index.cc.
      // soi-lint: float-eq
      if (SegmentBoxDistance(seg, geometry.CellBox(cell)) == 0.0) {
        expected.insert(cell);
      }
    }
    std::set<CellId> actual(index.SegmentCells(id).begin(),
                            index.SegmentCells(id).end());
    EXPECT_EQ(actual, expected) << "segment " << id;
  }
}

TEST(SegmentCellIndexTest, MapsAreInverses) {
  RoadNetwork network = testing_util::MakeGridNetwork(3, 4, 0.01);
  GridGeometry geometry = GeometryFor(network, 0.005);
  SegmentCellIndex index(network, geometry);
  for (SegmentId id = 0; id < network.num_segments(); ++id) {
    for (CellId cell : index.SegmentCells(id)) {
      const auto& segs = index.CellSegments(cell);
      EXPECT_NE(std::find(segs.begin(), segs.end(), id), segs.end());
    }
  }
  for (CellId cell = 0; cell < geometry.num_cells(); ++cell) {
    for (SegmentId id : index.CellSegments(cell)) {
      const auto& cells = index.SegmentCells(id);
      EXPECT_TRUE(std::binary_search(cells.begin(), cells.end(), cell));
    }
  }
}

class EpsAugmentationProperty
    : public ::testing::TestWithParam<std::tuple<uint64_t, double>> {};

TEST_P(EpsAugmentationProperty, MatchesBruteForceAndIsSymmetric) {
  auto [seed, eps] = GetParam();
  Rng rng(seed);
  RoadNetwork network = testing_util::MakeGridNetwork(4, 4, 0.01);
  GridGeometry geometry = GeometryFor(network, 0.0035);
  SegmentCellIndex base(network, geometry);
  EpsAugmentedMaps geometric(base, eps);
  // The filter path at cap = eps and at the engine's cap of two cells
  // (0.007 here, so the 0.007 sweep value also hits eps == cap).
  for (double cap : {eps, 2 * geometry.cell_size()}) {
    SCOPED_TRACE("cap " + std::to_string(cap));
    EpsAugmentedMaps filtered(SegmentNearCells(base, cap), eps);
    ExpectSameMaps(filtered, geometric, geometry.num_cells());
  }
  EXPECT_EQ(geometric.segment_cells(), GeometricRows(base, eps));
  const EpsAugmentedMaps& maps = geometric;
  EXPECT_DOUBLE_EQ(maps.eps(), eps);

  for (SegmentId id = 0; id < network.num_segments(); ++id) {
    const Segment& seg = network.segment(id).geometry;
    std::set<CellId> expected;
    for (CellId cell = 0; cell < geometry.num_cells(); ++cell) {
      if (SegmentBoxDistance(seg, geometry.CellBox(cell)) <= eps) {
        expected.insert(cell);
      }
    }
    std::set<CellId> actual(maps.SegmentCells(id).begin(),
                            maps.SegmentCells(id).end());
    EXPECT_EQ(actual, expected) << "segment " << id << " eps " << eps;
    // C_eps grows with eps and contains the base cells.
    for (CellId cell : base.SegmentCells(id)) {
      EXPECT_TRUE(expected.count(cell) > 0);
    }
    // Symmetry with L_eps.
    for (CellId cell : maps.SegmentCells(id)) {
      const auto& segs = maps.CellSegments(cell);
      EXPECT_NE(std::find(segs.begin(), segs.end(), id), segs.end());
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, EpsAugmentationProperty,
    ::testing::Combine(::testing::Values(uint64_t{1}),
                       ::testing::Values(0.0005, 0.002, 0.006, 0.007)));

// The key completeness property behind UpdateInterest: any POI within eps
// of a segment lies in a cell of C_eps(l).
TEST(EpsAugmentationTest, CoversAllNearbyPoints) {
  Rng rng(17);
  RoadNetwork network = testing_util::MakeGridNetwork(3, 3, 0.01);
  GridGeometry geometry = GeometryFor(network, 0.003);
  SegmentCellIndex base(network, geometry);
  double eps = 0.0025;
  EpsAugmentedMaps maps(base, eps);
  const Box& bounds = geometry.bounds();
  for (int i = 0; i < 3000; ++i) {
    Point p{rng.UniformDouble(bounds.min.x, bounds.max.x),
            rng.UniformDouble(bounds.min.y, bounds.max.y)};
    CellId cell = geometry.CellOf(p);
    for (SegmentId id = 0; id < network.num_segments(); ++id) {
      if (network.segment(id).geometry.DistanceTo(p) <= eps) {
        const auto& cells = maps.SegmentCells(id);
        EXPECT_TRUE(std::binary_search(cells.begin(), cells.end(), cell))
            << "point " << p << " near segment " << id
            << " but its cell is not in C_eps";
      }
    }
  }
}

TEST(EpsAugmentationTest, ZeroEpsEqualsBaseMaps) {
  RoadNetwork network = testing_util::MakeGridNetwork(3, 3, 0.01);
  GridGeometry geometry = GeometryFor(network, 0.004);
  SegmentCellIndex base(network, geometry);
  EpsAugmentedMaps maps(base, 0.0);
  for (SegmentId id = 0; id < network.num_segments(); ++id) {
    EXPECT_EQ(maps.SegmentCells(id), base.SegmentCells(id));
  }
  // Through the filter path too, from a superset that holds more cells.
  SegmentNearCells near(base, 2 * geometry.cell_size());
  EpsAugmentedMaps filtered(near, 0.0);
  EXPECT_EQ(filtered.segment_cells(), base.segment_cells());
  for (CellId cell = 0; cell < geometry.num_cells(); ++cell) {
    EXPECT_EQ(filtered.CellSegments(cell), base.CellSegments(cell));
  }
}

TEST(SegmentNearCellsTest, RowsAreSortedWithExactDistancesWithinCap) {
  RoadNetwork network = testing_util::MakeGridNetwork(3, 4, 0.01);
  GridGeometry geometry = GeometryFor(network, 0.003);
  SegmentCellIndex base(network, geometry);
  const double cap = 0.005;
  SegmentNearCells near(base, cap);
  EXPECT_EQ(near.cap(), cap);
  int64_t entries = 0;
  for (SegmentId id = 0; id < network.num_segments(); ++id) {
    const Segment& seg = network.segment(id).geometry;
    Span<CellId> cells = near.Cells(id);
    Span<double> distances = near.Distances(id);
    ASSERT_EQ(cells.size(), distances.size());
    EXPECT_TRUE(std::is_sorted(cells.begin(), cells.end()));
    std::set<CellId> expected;
    for (CellId cell = 0; cell < geometry.num_cells(); ++cell) {
      if (SegmentBoxDistance(seg, geometry.CellBox(cell)) <= cap) {
        expected.insert(cell);
      }
    }
    EXPECT_EQ(std::set<CellId>(cells.begin(), cells.end()), expected);
    for (size_t i = 0; i < cells.size(); ++i) {
      EXPECT_EQ(distances[i],
                SegmentBoxDistance(seg, geometry.CellBox(cells[i])));
    }
    entries += static_cast<int64_t>(cells.size());
  }
  EXPECT_EQ(near.num_entries(), entries);
  // SoA: 4-byte cell ids and 8-byte distances, no per-entry padding.
  EXPECT_EQ(near.RetainedBytes(),
            entries * 12 + (network.num_segments() + 1) * 8);
}

// The seeded sweep: small generated cities at the benchmark's cell size,
// every eps the benchmark serves plus random eps in (0, cap]. Filtered
// maps equal the geometric loop's rows, the inversion and the SL2 order
// of a comparison sort.
TEST(EpsAugmentationTest, FilterPathMatchesGeometricBuildOnGeneratedCities) {
  constexpr double kCellSize = 0.0005;
  const double cap = 2 * kCellSize;
  std::vector<double> sweep;
  for (int i = 0; i < 16; ++i) sweep.push_back(0.00020 + 0.00002 * i);
  for (double eps : {0.0004, 0.0005, 0.0007, cap}) sweep.push_back(eps);
  Rng rng(2016);
  for (int i = 0; i < 8; ++i) {
    sweep.push_back(cap * (1.0 - rng.UniformDouble()));  // (0, cap]
  }
  for (uint64_t seed : {1, 2, 3}) {
    Dataset dataset =
        GenerateCity(testing_util::TinyCityProfile(seed)).ValueOrDie();
    std::unique_ptr<DatasetIndexes> indexes =
        BuildIndexes(dataset, kCellSize);
    const SegmentCellIndex& base = indexes->segment_cells;
    SegmentNearCells near(base, cap);
    for (double eps : sweep) {
      SCOPED_TRACE("seed " + std::to_string(seed) + " eps " +
                   std::to_string(eps));
      EpsAugmentedMaps filtered(near, eps);
      EpsAugmentedMaps geometric(base, eps);
      ASSERT_EQ(filtered.segment_cells(), GeometricRows(base, eps));
      ExpectSameMaps(filtered, geometric, base.geometry().num_cells());
      EXPECT_EQ(filtered.SegmentsByCellCount(), SortedSl2(filtered));
    }
  }
}

TEST(EpsAugmentationTest, AdoptedMapsStoreTheSameSl2Order) {
  RoadNetwork network = testing_util::MakeGridNetwork(4, 4, 0.01);
  GridGeometry geometry = GeometryFor(network, 0.003);
  SegmentCellIndex base(network, geometry);
  EpsAugmentedMaps fresh(base, 0.004);
  EpsAugmentedMaps adopted(base, 0.004,
                           CsrArray<CellId>(fresh.segment_cells()));
  EXPECT_EQ(adopted.SegmentsByCellCount(), SortedSl2(fresh));
  EXPECT_EQ(fresh.SegmentsByCellCount(), SortedSl2(fresh));
}

TEST(EpsAugmentationTest, NumSegmentCellsMatchesListSize) {
  RoadNetwork network = testing_util::MakeGridNetwork(3, 3, 0.01);
  GridGeometry geometry = GeometryFor(network, 0.004);
  SegmentCellIndex base(network, geometry);
  EpsAugmentedMaps maps(base, 0.001);
  for (SegmentId id = 0; id < network.num_segments(); ++id) {
    EXPECT_EQ(maps.NumSegmentCells(id),
              static_cast<int64_t>(maps.SegmentCells(id).size()));
    EXPECT_GT(maps.NumSegmentCells(id), 0);
  }
}

}  // namespace
}  // namespace soi
