// The flat-CSR index layout: CsrArray/Span unit behavior, and the
// determinism contract of the CSR index builds — the serving arenas must
// be bit-identical for every thread count and to a nested-vector
// reference build.

#include <sstream>
#include <string>
#include <vector>

#include "common/csr.h"
#include "common/random.h"
#include "common/span.h"
#include "common/thread_pool.h"
#include "grid/global_inverted_index.h"
#include "grid/segment_cell_index.h"
#include "gtest/gtest.h"
#include "test_util.h"

namespace soi {
namespace {

TEST(CsrArrayTest, FromRowsRoundTrips) {
  std::vector<std::vector<int>> rows = {{1, 2, 3}, {}, {7}, {}, {9, 10}};
  CsrArray<int> csr = CsrArray<int>::FromRows(rows);
  ASSERT_EQ(csr.num_rows(), 5);
  EXPECT_EQ(csr.num_values(), 6);
  for (size_t i = 0; i < rows.size(); ++i) {
    EXPECT_EQ(csr.Row(static_cast<int64_t>(i)), rows[i]) << "row " << i;
    EXPECT_EQ(csr.RowSize(static_cast<int64_t>(i)),
              static_cast<int64_t>(rows[i].size()));
  }
}

TEST(CsrArrayTest, StreamingBuilderMatchesFromRows) {
  std::vector<std::vector<int>> rows = {{4, 5}, {}, {6}};
  CsrArray<int> streamed;
  for (const std::vector<int>& row : rows) {
    for (int v : row) streamed.PushValue(v);
    streamed.FinishRow();
  }
  EXPECT_EQ(streamed, CsrArray<int>::FromRows(rows));
}

TEST(CsrArrayTest, FromRowCountsAllocatesZeroedRows) {
  CsrArray<int> csr = CsrArray<int>::FromRowCounts({2, 0, 3});
  ASSERT_EQ(csr.num_rows(), 3);
  EXPECT_EQ(csr.RowSize(0), 2);
  EXPECT_EQ(csr.RowSize(1), 0);
  EXPECT_EQ(csr.RowSize(2), 3);
  for (int v : csr.Row(2)) EXPECT_EQ(v, 0);
  csr.mutable_row(2)[1] = 42;
  EXPECT_EQ(csr.Row(2)[1], 42);
}

TEST(SpanTest, ComparesAndPrints) {
  std::vector<int> values = {1, 2, 3};
  Span<int> span(values);
  EXPECT_EQ(span, values);
  EXPECT_EQ(values, span);
  EXPECT_NE(span, std::vector<int>({1, 2}));
  std::ostringstream out;
  out << span;
  EXPECT_EQ(out.str(), "[1, 2, 3]");
}

GridGeometry GeometryFor(const RoadNetwork& network, double cell_size) {
  return GridGeometry(network.bounds().Expanded(cell_size), cell_size);
}

// The CSR arenas of the base maps are bit-identical for thread counts
// {1, 2, 8} — offsets and values alike, not merely set-equal rows.
TEST(CsrLayoutDeterminismTest, SegmentCellIndexIdenticalAcrossThreads) {
  RoadNetwork network = testing_util::MakeGridNetwork(5, 6, 0.01);
  GridGeometry geometry = GeometryFor(network, 0.004);
  SegmentCellIndex reference(network, geometry, /*pool=*/nullptr);
  for (int threads : {2, 8}) {
    ThreadPool pool(threads);
    SegmentCellIndex parallel(network, geometry, &pool);
    EXPECT_EQ(parallel.segment_cells(), reference.segment_cells())
        << threads << " threads";
    for (CellId cell = 0; cell < geometry.num_cells(); ++cell) {
      ASSERT_EQ(parallel.CellSegments(cell), reference.CellSegments(cell))
          << "cell " << cell << ", " << threads << " threads";
    }
  }
}

TEST(CsrLayoutDeterminismTest, EpsMapsIdenticalAcrossThreads) {
  RoadNetwork network = testing_util::MakeGridNetwork(4, 5, 0.01);
  GridGeometry geometry = GeometryFor(network, 0.0035);
  SegmentCellIndex base(network, geometry);
  EpsAugmentedMaps reference(base, 0.006, /*pool=*/nullptr);
  SegmentNearCells reference_near(base, 2 * geometry.cell_size(),
                                  /*pool=*/nullptr);
  for (int threads : {1, 2, 8}) {
    SCOPED_TRACE(std::to_string(threads) + " threads");
    ThreadPool pool(threads);
    EpsAugmentedMaps parallel(base, 0.006, &pool);
    // The filter path: the superset and the maps filtered from it.
    SegmentNearCells near(base, 2 * geometry.cell_size(), &pool);
    ASSERT_EQ(near.num_entries(), reference_near.num_entries());
    for (SegmentId id = 0; id < network.num_segments(); ++id) {
      ASSERT_EQ(near.Cells(id), reference_near.Cells(id)) << "segment " << id;
      ASSERT_EQ(near.Distances(id), reference_near.Distances(id))
          << "segment " << id;
    }
    EpsAugmentedMaps filtered(near, 0.006, &pool);
    for (const EpsAugmentedMaps* maps : {&parallel, &filtered}) {
      EXPECT_EQ(maps->segment_cells(), reference.segment_cells());
      for (CellId cell = 0; cell < geometry.num_cells(); ++cell) {
        ASSERT_EQ(maps->CellSegments(cell), reference.CellSegments(cell))
            << "cell " << cell;
      }
      EXPECT_EQ(maps->SegmentsByCellCount(), reference.SegmentsByCellCount());
    }
  }
}

// The CSR build equals a nested-vector reference build: collecting each
// segment's span back into vectors and flattening through FromRows must
// reproduce the arena exactly.
TEST(CsrLayoutDeterminismTest, ArenaMatchesNestedVectorReference) {
  RoadNetwork network = testing_util::MakeGridNetwork(4, 4, 0.01);
  GridGeometry geometry = GeometryFor(network, 0.005);
  SegmentCellIndex index(network, geometry);
  std::vector<std::vector<CellId>> nested(
      static_cast<size_t>(network.num_segments()));
  for (SegmentId id = 0; id < network.num_segments(); ++id) {
    nested[static_cast<size_t>(id)] = index.SegmentCells(id).ToVector();
  }
  EXPECT_EQ(index.segment_cells(), CsrArray<CellId>::FromRows(nested));
}

// The snapshot adoption constructor over the serving arena reproduces the
// fresh build bit-identically (the warm-start path's core claim).
TEST(CsrLayoutDeterminismTest, AdoptionCtorsReproduceFreshBuild) {
  RoadNetwork network = testing_util::MakeGridNetwork(4, 5, 0.01);
  GridGeometry geometry = GeometryFor(network, 0.004);
  SegmentCellIndex fresh(network, geometry);
  SegmentCellIndex adopted(network, geometry,
                           CsrArray<CellId>(fresh.segment_cells()));
  EXPECT_EQ(adopted.segment_cells(), fresh.segment_cells());
  for (CellId cell = 0; cell < geometry.num_cells(); ++cell) {
    ASSERT_EQ(adopted.CellSegments(cell), fresh.CellSegments(cell));
  }

  EpsAugmentedMaps fresh_eps(fresh, 0.005);
  EpsAugmentedMaps adopted_eps(fresh, 0.005,
                               CsrArray<CellId>(fresh_eps.segment_cells()));
  EXPECT_EQ(adopted_eps.segment_cells(), fresh_eps.segment_cells());
  for (CellId cell = 0; cell < geometry.num_cells(); ++cell) {
    ASSERT_EQ(adopted_eps.CellSegments(cell), fresh_eps.CellSegments(cell));
  }
}

// The dense KeywordId-indexed global index: the adoption constructor over
// the serving arena preserves every list and the non-empty count, and the
// query-time aggregation is identical through both.
TEST(CsrLayoutDeterminismTest, GlobalIndexAdoptionPreservesLists) {
  Vocabulary vocabulary;
  Rng rng(7);
  std::vector<Poi> pois = testing_util::RandomPois(
      Box::FromCorners(Point{0, 0}, Point{1, 1}), 400, 10, &vocabulary,
      &rng);
  PoiGridIndex grid(Box::FromCorners(Point{0, 0}, Point{1, 1}), 0.2, pois);
  GlobalInvertedIndex fresh(grid);
  GlobalInvertedIndex adopted(CsrArray<GlobalInvertedIndex::Entry>(
      fresh.lists()));
  EXPECT_EQ(adopted.num_keywords(), fresh.num_keywords());
  EXPECT_EQ(adopted.lists(), fresh.lists());
  KeywordSet query({0, 1, 2});
  EXPECT_EQ(fresh.BuildQueryCellList(query, grid),
            adopted.BuildQueryCellList(query, grid));
}

}  // namespace
}  // namespace soi
