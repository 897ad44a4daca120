#ifndef SOI_GRID_LIVE_POI_VIEW_H_
#define SOI_GRID_LIVE_POI_VIEW_H_

#include <cstdint>
#include <memory>
#include <vector>

#include "common/check.h"
#include "common/span.h"
#include "grid/global_inverted_index.h"
#include "grid/poi_grid_index.h"
#include "grid/poi_overlay.h"
#include "text/keyword_set.h"

namespace soi {

/// The epoch-pinned read surface of the POI indexes: a base
/// PoiGridIndex/GlobalInvertedIndex pair plus an optional PoiDeltaOverlay
/// merged in at read time. Every POI-side read the SOI algorithm performs
/// (cell buckets, posting merges, global-index rows, the SL1 query cell
/// list) goes through this view, so a query sees one consistent epoch for
/// its whole evaluation.
///
/// With a null overlay the view is a zero-cost pass-through to the base
/// indexes — GlobalInvertedIndex::BuildQueryCellList itself delegates
/// here, so the static and live read paths are one implementation and
/// cannot drift apart. With an overlay, lookups consult the overlay's
/// replacement cells/rows first (one hash probe) and fall back to the
/// base; merged reads are bit-identical to a cold rebuild of the live
/// dataset (see grid/poi_overlay.h for the id-order argument).
///
/// Plain value type: three borrowed pointers. The referenced indexes and
/// overlay must outlive the view — the ingest layer guarantees this by
/// handing views out only through pinned PoiEpochSnapshots.
class LivePoiView {
 public:
  /// Base-only view (the static read path).
  LivePoiView(const PoiGridIndex& grid, const GlobalInvertedIndex& global)
      : grid_(&grid), global_(&global), overlay_(nullptr) {}

  /// Overlay view; `overlay` may be null (equivalent to base-only).
  LivePoiView(const PoiGridIndex& grid, const GlobalInvertedIndex& global,
              const PoiDeltaOverlay* overlay)
      : grid_(&grid), global_(&global), overlay_(overlay) {}

  const GridGeometry& geometry() const { return grid_->geometry(); }
  const PoiGridIndex& base_grid() const { return *grid_; }

  /// The POI for a live id: base table for ids below the base size, the
  /// overlay's insert table above it.
  const Poi& PoiById(PoiId id) const {
    const std::vector<Poi>& base = grid_->pois();
    if (overlay_ == nullptr ||
        static_cast<size_t>(id) < overlay_->base_size) {
      return base[static_cast<size_t>(id)];
    }
    return (*overlay_->added)[static_cast<size_t>(id) -
                              overlay_->base_size];
  }

  /// Cell bucket merged through the overlay, or nullptr if the cell is
  /// empty in this epoch.
  const PoiGridIndex::Cell* FindCell(CellId id) const {
    if (overlay_ != nullptr) {
      auto it = overlay_->cells.find(id);
      if (it != overlay_->cells.end()) return it->second.get();
    }
    return grid_->FindCell(id);
  }

  /// |P_c| in this epoch (0 if empty).
  int64_t NumPoisInCell(CellId id) const {
    const PoiGridIndex::Cell* cell = FindCell(id);
    return cell == nullptr ? 0 : static_cast<int64_t>(cell->pois.size());
  }

  /// Global-index entries for `keyword` in this epoch, sorted
  /// decreasingly on weight (the base row unless the overlay replaced
  /// it). Empty for out-of-range ids, like the base accessor.
  Span<GlobalInvertedIndex::Entry> Entries(KeywordId keyword) const {
    if (overlay_ != nullptr) {
      auto it = overlay_->rows.find(keyword);
      if (it != overlay_->rows.end()) {
        return Span<GlobalInvertedIndex::Entry>(*it->second);
      }
    }
    return global_->Entries(keyword);
  }

  /// Invokes `fn(PoiId)` once per POI in `cell` relevant to `query`,
  /// ascending by live id — the same merge (MergeRelevantInCell) the
  /// base index runs, applied to this epoch's effective cell.
  template <typename Fn>
  void ForEachRelevantInCell(CellId cell, const KeywordSet& query,
                             Fn&& fn) const {
    const PoiGridIndex::Cell* c = FindCell(cell);
    if (c == nullptr) return;
    MergeRelevantInCell(*c, query, fn);
  }

  /// The SL1 aggregation of Algorithm 1 over this epoch: identical
  /// accumulation order to (and, with a null overlay, the single
  /// implementation behind) GlobalInvertedIndex::BuildQueryCellList.
  void BuildQueryCellList(const KeywordSet& query,
                          GlobalInvertedIndex::QueryCellScratch* scratch,
                          std::vector<GlobalInvertedIndex::Entry>* result)
      const;

  bool has_overlay() const { return overlay_ != nullptr; }

 private:
  const PoiGridIndex* grid_;
  const GlobalInvertedIndex* global_;
  const PoiDeltaOverlay* overlay_;
};

/// One published epoch: the index pointers a reader may dereference for
/// as long as it holds the snapshot's shared_ptr. After a compaction the
/// overlay is null and grid/global point at the freshly built arenas,
/// whose ownership rides along in `retain`.
struct PoiEpochSnapshot {
  uint64_t epoch = 0;
  const PoiGridIndex* grid = nullptr;
  const GlobalInvertedIndex* global = nullptr;
  /// Null in compacted epochs.
  std::shared_ptr<const PoiDeltaOverlay> overlay;
  /// Keeps whatever arena `grid`/`global` point into alive (the
  /// compacted index bundle); null for the epoch-0 base.
  std::shared_ptr<const void> retain;

  LivePoiView View() const {
    SOI_DCHECK(grid != nullptr && global != nullptr);
    return LivePoiView(*grid, *global, overlay.get());
  }
};

/// Where QueryEngine pins an epoch per query. Pin() is wait-free for
/// readers (the ingest implementation reads a common/rcu.h Published
/// snapshot, never a lock) and the returned snapshot stays valid until
/// released.
class PoiEpochSource {
 public:
  virtual ~PoiEpochSource() = default;
  virtual std::shared_ptr<const PoiEpochSnapshot> Pin() const = 0;
};

}  // namespace soi

#endif  // SOI_GRID_LIVE_POI_VIEW_H_
