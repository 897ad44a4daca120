#ifndef SOI_GRID_SEGMENT_CELL_INDEX_H_
#define SOI_GRID_SEGMENT_CELL_INDEX_H_

#include <cstdint>
#include <vector>

#include "common/cancellation.h"
#include "common/csr.h"
#include "common/span.h"
#include "grid/grid_geometry.h"
#include "network/road_network.h"

namespace soi {

class ThreadPool;

/// The offline cell <-> segment maps of Section 3.2.1: which grid cells
/// each street segment passes through and, inversely, which segments cross
/// each cell (distance 0).
///
/// Storage is flat CSR (common/csr.h): one contiguous arena per direction
/// instead of one heap block per segment/cell, so the PopCell hot path
/// walks contiguous memory with no per-row pointer chase. Accessors
/// return span views over the arenas.
///
/// Construction is data-parallel when a ThreadPool is supplied: the
/// per-segment cell lists are computed in deterministic fixed chunks,
/// then inverted into the per-cell lists with a count/cursor
/// owner-partition pass. The built index is bit-identical for every
/// thread count (see DESIGN.md "Threading model").
class SegmentCellIndex {
 public:
  /// Requires the grid geometry to cover the network bounds. `pool` (may
  /// be null) parallelizes construction only; it is not retained.
  SegmentCellIndex(const RoadNetwork& network, GridGeometry geometry,
                   ThreadPool* pool = nullptr);

  /// Snapshot adoption path (src/snapshot): wraps already-computed
  /// per-segment cell lists — one sorted CSR row per segment of
  /// `network`, validated by the caller against `geometry` — and
  /// re-derives only the per-cell inversion. Bit-identical to a fresh
  /// build over the same network/geometry for any thread count.
  SegmentCellIndex(const RoadNetwork& network, GridGeometry geometry,
                   CsrArray<CellId> segment_cells,
                   ThreadPool* pool = nullptr);

  const GridGeometry& geometry() const { return geometry_; }
  const RoadNetwork& network() const { return *network_; }

  /// Cells intersected by segment `id`, ascending by cell id.
  Span<CellId> SegmentCells(SegmentId id) const {
    return segment_cells_.Row(id);
  }

  /// Segments intersecting cell `id` (empty if none), ascending by
  /// segment id.
  Span<SegmentId> CellSegments(CellId id) const {
    return cell_segments_.Row(id);
  }

  /// The full segment -> cells arena (snapshot writer, determinism
  /// tests).
  const CsrArray<CellId>& segment_cells() const { return segment_cells_; }

 private:
  GridGeometry geometry_;
  const RoadNetwork* network_;
  CsrArray<CellId> segment_cells_;
  // Dense, indexed by CellId (the algorithm already keeps dense per-cell
  // arrays per query, so this costs nothing new and avoids hash lookups
  // on the PopCell hot path).
  CsrArray<SegmentId> cell_segments_;
};

/// Per segment, the grid cells within distance `cap` of it, each with its
/// exact SegmentBoxDistance: the superset every EpsAugmentedMaps with
/// eps <= cap is filtered from (DESIGN.md "Eps maps as a filter").
/// Geometry is fixed, so QueryEngine builds this once and turns each later
/// eps-map build into a scan of stored doubles.
///
/// Rows list cells in ascending cell id — the order ForEachCellInBox
/// visits them — and Distances(id)[i] belongs to Cells(id)[i]. Storage is
/// SoA: one CSR arena of CellIds plus one parallel array of doubles
/// sharing its offsets, 12 bytes per entry with no padding.
class SegmentNearCells {
 public:
  /// `pool` (may be null) parallelizes the build; the result is
  /// bit-identical for every thread count. `cancel` (may be null) is
  /// checked once per segment; a fired token aborts construction by
  /// throwing CancelledError (see EpsAugmentedMaps). Requires cap >= 0.
  SegmentNearCells(const SegmentCellIndex& base, double cap,
                   ThreadPool* pool = nullptr,
                   const CancellationToken* cancel = nullptr);

  double cap() const { return cap_; }
  const SegmentCellIndex& base() const { return *base_; }

  /// Cells within cap of segment `id`, ascending by cell id.
  Span<CellId> Cells(SegmentId id) const { return cells_.Row(id); }

  /// Exact segment-to-cell distances, parallel to Cells(id).
  Span<double> Distances(SegmentId id) const {
    const size_t begin =
        static_cast<size_t>(cells_.offsets()[static_cast<size_t>(id)]);
    return Span<double>(distances_.data() + begin,
                        static_cast<size_t>(cells_.RowSize(id)));
  }

  /// Number of stored (cell, distance) entries over all segments.
  int64_t num_entries() const { return cells_.num_values(); }

  /// Bytes held by the arenas (offsets, cell ids, distances).
  int64_t RetainedBytes() const;

 private:
  const SegmentCellIndex* base_;
  double cap_;
  CsrArray<CellId> cells_;
  std::vector<double> distances_;
};

/// The query-time eps augmentation of the maps: C_eps(l) = cells within
/// distance eps of segment l, and L_eps(c) = segments within distance eps
/// of cell c (Section 3.2.1). Constructed once per (dataset, eps); its
/// construction cost is part of the list-construction phase the paper
/// reports in Figure 4, and is the cost QueryEngine memoizes per eps.
///
/// Every constructor also stores the SL2 order (Section 3.2.2): all
/// segments by decreasing |C_eps(l)|, ties by ascending id. It is a pure
/// function of the rows, so queries read it instead of sorting.
class EpsAugmentedMaps {
 public:
  /// The filter path: keeps, per segment, the cells of `near` with
  /// distance <= eps, in their stored order. Requires
  /// 0 <= eps <= near.cap(); the rows are byte-equal to the geometric
  /// build for the same eps (DESIGN.md "Eps maps as a filter"). `pool`
  /// (may be null) parallelizes the filter and the inversion into
  /// L_eps(c); `cancel` (may be null) is checked once per segment.
  EpsAugmentedMaps(const SegmentNearCells& near, double eps,
                   ThreadPool* pool = nullptr,
                   const CancellationToken* cancel = nullptr);

  /// The geometric path: builds SegmentNearCells at cap = eps, then
  /// filters it. `pool` (may be null) parallelizes every pass; the result
  /// is bit-identical to the sequential construction for every thread
  /// count. `cancel` (may be null) is checked once per segment; a fired
  /// token aborts construction by throwing CancelledError, which the
  /// serving path (QueryEngine::TryRun) converts back to a Status — this
  /// is the one sanctioned use of exceptions besides parallel-chunk
  /// capture (DESIGN.md "Failure model").
  EpsAugmentedMaps(const SegmentCellIndex& base, double eps,
                   ThreadPool* pool = nullptr,
                   const CancellationToken* cancel = nullptr);

  /// Snapshot adoption path (src/snapshot): wraps restored per-segment
  /// eps-dilated cell lists (one sorted CSR row per segment, validated
  /// by the caller) and re-derives only the inversion. Bit-identical to
  /// a fresh build for the same base/eps.
  EpsAugmentedMaps(const SegmentCellIndex& base, double eps,
                   CsrArray<CellId> segment_cells,
                   ThreadPool* pool = nullptr);

  double eps() const { return eps_; }
  const GridGeometry& geometry() const { return *geometry_; }

  /// C_eps(l): cells within eps of segment `id`, ascending by cell id.
  Span<CellId> SegmentCells(SegmentId id) const {
    return segment_cells_.Row(id);
  }

  /// L_eps(c): segments within eps of cell `id` (empty if none),
  /// ascending by segment id.
  Span<SegmentId> CellSegments(CellId id) const {
    return cell_segments_.Row(id);
  }

  /// |C_eps(l)| for every segment (the key of source list SL2).
  int64_t NumSegmentCells(SegmentId id) const {
    return segment_cells_.RowSize(id);
  }

  /// SL2: every segment by decreasing |C_eps(l)|, ties by ascending id.
  Span<SegmentId> SegmentsByCellCount() const { return sl2_order_; }

  /// The full segment -> cells arena (snapshot writer, determinism
  /// tests).
  const CsrArray<CellId>& segment_cells() const { return segment_cells_; }

 private:
  // Derives L_eps(c) and the SL2 order from segment_cells_.
  void FinishRows(ThreadPool* pool);

  double eps_;
  const GridGeometry* geometry_;
  CsrArray<CellId> segment_cells_;
  CsrArray<SegmentId> cell_segments_;
  std::vector<SegmentId> sl2_order_;
};

}  // namespace soi

#endif  // SOI_GRID_SEGMENT_CELL_INDEX_H_
