#include "grid/segment_cell_index.h"

#include <algorithm>
#include <vector>

#include "common/check.h"
#include "common/stopwatch.h"
#include "common/thread_pool.h"
#include "geometry/distance.h"
#include "obs/obs.h"

namespace soi {

namespace {

// Inverts the segment -> cells CSR into cell -> segments, in parallel,
// without locks, deterministically. A sequential counting pass over the
// flat values arena sizes every per-cell row exactly; the fill pass then
// statically partitions the cell-id space and each chunk scans the
// (sorted) per-segment rows in segment-id order, claiming only the cells
// it owns, so every per-cell row comes out ascending by segment id for
// any thread count — matching the sequential inversion order.
void InvertSegmentCells(const CsrArray<CellId>& segment_cells,
                        int64_t num_cells, ThreadPool* pool,
                        CsrArray<SegmentId>* cell_segments) {
  std::vector<int64_t> counts(static_cast<size_t>(num_cells), 0);
  for (CellId cell : segment_cells.values()) {
    ++counts[static_cast<size_t>(cell)];
  }
  *cell_segments = CsrArray<SegmentId>::FromRowCounts(counts);
  // Reuse `counts` as per-cell fill cursors. Each cell is owned by
  // exactly one chunk, so the cursor updates are race-free.
  std::fill(counts.begin(), counts.end(), 0);
  const int64_t num_segments = segment_cells.num_rows();
  ParallelForChunks(pool, 0, num_cells, [&](int64_t lo, int64_t hi) {
    for (int64_t id = 0; id < num_segments; ++id) {
      Span<CellId> cells = segment_cells.Row(id);
      auto first = std::lower_bound(cells.begin(), cells.end(),
                                    static_cast<CellId>(lo));
      for (auto it = first; it != cells.end() && *it < hi; ++it) {
        const size_t cell = static_cast<size_t>(*it);
        cell_segments->mutable_row(*it)[counts[cell]++] =
            static_cast<SegmentId>(id);
      }
    }
  });
}

// SL2 (Section 3.2.2): row ids by decreasing row size, ties by ascending
// id — the order a comparison sort on (size desc, id asc) yields, computed
// as a stable counting sort in O(rows + largest row).
std::vector<SegmentId> OrderByDecreasingRowSize(const CsrArray<CellId>& rows) {
  int64_t max_size = 0;
  for (int64_t r = 0; r < rows.num_rows(); ++r) {
    max_size = std::max(max_size, rows.RowSize(r));
  }
  // starts[max_size - size] is the next output slot for rows of `size`.
  std::vector<int64_t> starts(static_cast<size_t>(max_size) + 1, 0);
  for (int64_t r = 0; r < rows.num_rows(); ++r) {
    ++starts[static_cast<size_t>(max_size - rows.RowSize(r))];
  }
  int64_t next = 0;
  for (int64_t& start : starts) {
    const int64_t count = start;
    start = next;
    next += count;
  }
  std::vector<SegmentId> order(static_cast<size_t>(rows.num_rows()));
  for (int64_t r = 0; r < rows.num_rows(); ++r) {
    const size_t bucket = static_cast<size_t>(max_size - rows.RowSize(r));
    order[static_cast<size_t>(starts[bucket]++)] = static_cast<SegmentId>(r);
  }
  return order;
}

// Segments per build chunk: chunks are staged in waves of one chunk per
// thread, so staging stays a small slice of the result.
constexpr int64_t kSegmentsPerChunk = 512;

struct NearCellRows {
  CsrArray<CellId> cells;
  std::vector<double> distances;  // parallel to cells.values()
};

// The one dilation loop: per segment, the cells within `cap` of it, in
// ForEachCellInBox (ascending cell id) order, with their exact
// SegmentBoxDistance. Each wave stages one chunk per thread in parallel,
// then appends the chunks in segment order, so the result does not
// depend on the thread count. The result arrays reserve the probe-box
// cell count up front — an upper bound that stays virtual except for the
// pages written — so rows land in place with no growth copy and the
// build never holds a second copy of the result. `cancel` (may be null)
// is checked once per segment.
NearCellRows BuildNearCellRows(const RoadNetwork& network,
                               const GridGeometry& geometry, double cap,
                               ThreadPool* pool,
                               const CancellationToken* cancel) {
  // Probe one cell beyond cap so a cell at distance exactly cap across a
  // boundary is still visited; SegmentBoxDistance returns 0.0 identically
  // when the segment touches the (closed) box.
  auto probe_of = [&](int64_t id) {
    return network.segment(static_cast<SegmentId>(id))
        .geometry.BoundingBox()
        .Expanded(cap + geometry.cell_size());
  };
  const int64_t num_segments = network.num_segments();
  int64_t bound = 0;
  for (int64_t id = 0; id < num_segments; ++id) {
    const Box probe = probe_of(id);
    const CellCoord lo = geometry.CoordOf(probe.min);
    const CellCoord hi = geometry.CoordOf(probe.max);
    bound += int64_t{hi.ix - lo.ix + 1} * int64_t{hi.iy - lo.iy + 1};
  }
  std::vector<int64_t> offsets;
  offsets.reserve(static_cast<size_t>(num_segments) + 1);
  offsets.push_back(0);
  std::vector<CellId> cells;
  cells.reserve(static_cast<size_t>(bound));
  NearCellRows rows;
  rows.distances.reserve(static_cast<size_t>(bound));

  struct Chunk {
    std::vector<int64_t> row_sizes;
    std::vector<CellId> cells;
    std::vector<double> distances;
  };
  const int64_t num_chunks =
      (num_segments + kSegmentsPerChunk - 1) / kSegmentsPerChunk;
  const int64_t wave = pool != nullptr ? pool->num_threads() : 1;
  std::vector<Chunk> staging(static_cast<size_t>(wave));
  for (int64_t first = 0; first < num_chunks; first += wave) {
    const int64_t last = std::min(num_chunks, first + wave);
    ParallelFor(pool, first, last, [&](int64_t c) {
      Chunk& chunk = staging[static_cast<size_t>(c - first)];
      chunk.row_sizes.clear();
      chunk.cells.clear();
      chunk.distances.clear();
      const int64_t lo = c * kSegmentsPerChunk;
      const int64_t hi = std::min(num_segments, lo + kSegmentsPerChunk);
      for (int64_t id = lo; id < hi; ++id) {
        if (cancel != nullptr) ThrowIfCancelled(*cancel);
        const Segment& seg =
            network.segment(static_cast<SegmentId>(id)).geometry;
        const size_t row_start = chunk.cells.size();
        geometry.ForEachCellInBox(probe_of(id), [&](CellId cell) {
          const double distance =
              SegmentBoxDistance(seg, geometry.CellBox(cell));
          if (distance <= cap) {
            chunk.cells.push_back(cell);
            chunk.distances.push_back(distance);
          }
        });
        chunk.row_sizes.push_back(
            static_cast<int64_t>(chunk.cells.size() - row_start));
      }
    });
    for (int64_t c = first; c < last; ++c) {
      const Chunk& chunk = staging[static_cast<size_t>(c - first)];
      for (int64_t size : chunk.row_sizes) {
        offsets.push_back(offsets.back() + size);
      }
      cells.insert(cells.end(), chunk.cells.begin(), chunk.cells.end());
      rows.distances.insert(rows.distances.end(), chunk.distances.begin(),
                            chunk.distances.end());
    }
  }
  rows.cells = CsrArray<CellId>(std::move(offsets), std::move(cells));
  return rows;
}

}  // namespace

SegmentCellIndex::SegmentCellIndex(const RoadNetwork& network,
                                   GridGeometry geometry, ThreadPool* pool)
    : geometry_(std::move(geometry)), network_(&network) {
  SOI_TRACE_SPAN("grid.build_segment_cells");
  Stopwatch build_timer;
  // The cells at distance 0: the near cells at cap 0 (distances are
  // never negative, so `<= 0` is the exact touch test).
  segment_cells_ = BuildNearCellRows(network, geometry_, 0.0, pool,
                                     /*cancel=*/nullptr)
                       .cells;
  InvertSegmentCells(segment_cells_, geometry_.num_cells(), pool,
                     &cell_segments_);
  SOI_OBS_COUNTER_ADD("soi.index.segment_cells_builds", 1);
  SOI_OBS_HISTOGRAM_OBSERVE("soi.index.segment_cells_build_seconds",
                            build_timer.ElapsedSeconds());
}

SegmentCellIndex::SegmentCellIndex(const RoadNetwork& network,
                                   GridGeometry geometry,
                                   CsrArray<CellId> segment_cells,
                                   ThreadPool* pool)
    : geometry_(std::move(geometry)),
      network_(&network),
      segment_cells_(std::move(segment_cells)) {
  SOI_CHECK(segment_cells_.num_rows() == network.num_segments())
      << "adopted segment cell lists do not match the network: "
      << segment_cells_.num_rows() << " rows for "
      << network.num_segments() << " segments";
  InvertSegmentCells(segment_cells_, geometry_.num_cells(), pool,
                     &cell_segments_);
}

SegmentNearCells::SegmentNearCells(const SegmentCellIndex& base, double cap,
                                   ThreadPool* pool,
                                   const CancellationToken* cancel)
    : base_(&base), cap_(cap) {
  SOI_CHECK(cap >= 0) << "eps must be non-negative (near-cell cap " << cap
                      << ")";
  SOI_TRACE_SPAN("grid.near_cells");
  Stopwatch build_timer;
  NearCellRows rows =
      BuildNearCellRows(base.network(), base.geometry(), cap, pool, cancel);
  cells_ = std::move(rows.cells);
  distances_ = std::move(rows.distances);
  SOI_OBS_COUNTER_ADD("soi.index.near_cells_builds", 1);
  SOI_OBS_HISTOGRAM_OBSERVE("soi.index.near_cells_build_seconds",
                            build_timer.ElapsedSeconds());
}

int64_t SegmentNearCells::RetainedBytes() const {
  return static_cast<int64_t>(
      cells_.offsets().size() * sizeof(int64_t) +
      cells_.values().size() * sizeof(CellId) +
      distances_.size() * sizeof(double));
}

EpsAugmentedMaps::EpsAugmentedMaps(const SegmentNearCells& near, double eps,
                                   ThreadPool* pool,
                                   const CancellationToken* cancel)
    : eps_(eps), geometry_(&near.base().geometry()) {
  SOI_CHECK(eps >= 0 && eps <= near.cap())
      << "eps " << eps << " outside the near-cell range [0, " << near.cap()
      << "]";
  SOI_TRACE_SPAN("grid.eps_augment");
  Stopwatch build_timer;
  // Count, size exactly, then fill in place: the near rows are already in
  // ForEachCellInBox order, so keeping `distance <= eps` in stored order
  // reproduces the geometric build's rows byte for byte.
  const int64_t num_segments = near.base().network().num_segments();
  std::vector<int64_t> counts(static_cast<size_t>(num_segments));
  ParallelFor(pool, 0, num_segments, [&](int64_t id) {
    if (cancel != nullptr) ThrowIfCancelled(*cancel);
    int64_t kept = 0;
    for (double distance : near.Distances(static_cast<SegmentId>(id))) {
      kept += distance <= eps ? 1 : 0;
    }
    counts[static_cast<size_t>(id)] = kept;
  });
  segment_cells_ = CsrArray<CellId>::FromRowCounts(counts);
  ParallelFor(pool, 0, num_segments, [&](int64_t id) {
    Span<CellId> cells = near.Cells(static_cast<SegmentId>(id));
    Span<double> distances = near.Distances(static_cast<SegmentId>(id));
    CellId* out = segment_cells_.mutable_row(id);
    for (size_t i = 0; i < cells.size(); ++i) {
      if (distances[i] <= eps) *out++ = cells[i];
    }
  });
  FinishRows(pool);
  SOI_OBS_COUNTER_ADD("soi.index.eps_augment_builds", 1);
  SOI_OBS_HISTOGRAM_OBSERVE("soi.index.eps_augment_seconds",
                            build_timer.ElapsedSeconds());
}

EpsAugmentedMaps::EpsAugmentedMaps(const SegmentCellIndex& base, double eps,
                                   ThreadPool* pool,
                                   const CancellationToken* cancel)
    : EpsAugmentedMaps(SegmentNearCells(base, eps, pool, cancel), eps, pool,
                       cancel) {}

EpsAugmentedMaps::EpsAugmentedMaps(const SegmentCellIndex& base, double eps,
                                   CsrArray<CellId> segment_cells,
                                   ThreadPool* pool)
    : eps_(eps),
      geometry_(&base.geometry()),
      segment_cells_(std::move(segment_cells)) {
  SOI_CHECK(eps >= 0) << "eps must be non-negative";
  SOI_CHECK(segment_cells_.num_rows() == base.network().num_segments())
      << "adopted eps cell lists do not match the network: "
      << segment_cells_.num_rows() << " rows for "
      << base.network().num_segments() << " segments";
  FinishRows(pool);
}

void EpsAugmentedMaps::FinishRows(ThreadPool* pool) {
  InvertSegmentCells(segment_cells_, geometry_->num_cells(), pool,
                     &cell_segments_);
  sl2_order_ = OrderByDecreasingRowSize(segment_cells_);
}

}  // namespace soi
