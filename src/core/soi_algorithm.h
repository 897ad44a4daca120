#ifndef SOI_CORE_SOI_ALGORITHM_H_
#define SOI_CORE_SOI_ALGORITHM_H_

#include <functional>
#include <memory>
#include <vector>

#include "common/cancellation.h"
#include "core/soi_query.h"
#include "grid/global_inverted_index.h"
#include "grid/poi_grid_index.h"
#include "grid/segment_cell_index.h"
#include "network/road_network.h"

namespace soi {

class LivePoiView;
class ThreadPool;

/// Pool of reusable per-query scratch arenas (dense per-segment /
/// per-street arrays, candidate heaps, source-list buffers). Defined in
/// soi_algorithm.cc; sized by the bound dataset and shared by concurrent
/// TryTopK calls so the serving hot path performs no steady-state heap
/// allocation.
struct SoiScratchPool;

/// Order in which the filtering phase consumes the three ranked source
/// lists of Section 3.2.2.
///
/// SL1 holds cells sorted by decreasing relevant-POI count, SL2 segments by
/// decreasing neighboring-cell count, SL3 segments by increasing length.
/// Correctness is independent of the strategy (asserted by tests); the
/// strategies differ only in how fast the bounds converge.
enum class SourceListStrategy {
  /// The paper's practical default: alternate SL1 (cells) and SL3 (short
  /// segments), consulting SL2 only when its top segment neighbors an
  /// outsized number of cells.
  kAlternateCellsSegments,
  /// Strict SL1 -> SL2 -> SL3 rotation (the pseudocode of Algorithm 1).
  kRoundRobin,
  /// Drain SL1 before touching segments (ablation).
  kCellsFirst,
};

/// Tuning knobs and instrumentation hooks for SoiAlgorithm::TryTopK.
struct SoiAlgorithmOptions {
  SourceListStrategy strategy = SourceListStrategy::kAlternateCellsSegments;

  /// When true (default), the refinement phase computes exact interests
  /// "as necessary" (Algorithm 1's wording): a seen segment is finalized
  /// only if its optimistic interest bound can still displace the current
  /// k-th street. The returned top-k is unchanged (see DESIGN.md); setting
  /// false finalizes every seen segment (ablation).
  bool pruned_refinement = true;

  /// Optional pool for intra-query parallelism (source-list sorts, the
  /// refinement bound/finalize work). Not owned; may be null. The result
  /// is bit-identical for every pool size (DESIGN.md "Threading model"),
  /// so this is purely a latency knob.
  ThreadPool* pool = nullptr;

  /// Observability attribution: when nonzero, this query's latency
  /// histogram samples carry the id as their exemplar, linking the
  /// bucket back to the query's flight-recorder record. Assigned by
  /// QueryEngine (FlightRecorder::NextQueryId); 0 = unattributed.
  /// Plain data — has no effect on the evaluation or its result.
  uint64_t query_id = 0;

  /// Cooperative cancellation/deadline handle, checked once per
  /// filtering iteration and once per refinement segment. The default
  /// inert token never fires and costs one null test per check, so the
  /// determinism contract and hot-path cost are untouched for callers
  /// that don't use it. TryTopK surfaces a fired token as
  /// kCancelled / kDeadlineExceeded.
  CancellationToken cancel;

  /// Epoch-pinned POI read surface for this evaluation (grid/live_poi_view.h).
  /// When null the run reads the indexes the SoiAlgorithm was constructed
  /// over — the static path. When set, every POI-side read (cell buckets,
  /// posting merges, SL1) goes through the view instead, so live-ingest
  /// callers (QueryEngine over an ingest::LiveWorld) evaluate against one
  /// consistent epoch. The view's base indexes must share the constructed
  /// grid's geometry; the caller keeps the view's targets alive for the
  /// duration of the call.
  const LivePoiView* live_view = nullptr;

  /// Test/diagnostic hook invoked once per filtering iteration, after the
  /// bounds are recomputed and before the termination check.
  struct FilterSnapshot {
    double upper_bound = 0.0;
    double lower_bound = 0.0;
    /// seen[id] != 0 iff segment id has been encountered. Valid only
    /// during the callback.
    const std::vector<char>* segment_seen = nullptr;
  };
  std::function<void(const FilterSnapshot&)> observer;
};

/// The SOI algorithm of Section 3.2 (Algorithm 1): top-k street retrieval
/// by progressive examination of cells and segments with a seen lower
/// bound LB_k and an unseen upper bound UB, followed by a refinement phase
/// that computes exact interests for the seen segments.
///
/// The instance is bound to one dataset's indices and is immutable /
/// thread-compatible; each TryTopK call carries its own state.
class SoiAlgorithm {
 public:
  /// All three indices must be built over the same grid geometry. `pool`
  /// (may be null) parallelizes the offline by-length sort only; it is
  /// not retained.
  SoiAlgorithm(const RoadNetwork& network, const PoiGridIndex& grid,
               const GlobalInvertedIndex& global_index,
               ThreadPool* pool = nullptr);

  /// Out of line: SoiScratchPool is incomplete here.
  ~SoiAlgorithm();

  SoiAlgorithm(const SoiAlgorithm&) = delete;
  SoiAlgorithm& operator=(const SoiAlgorithm&) = delete;

  /// Evaluates the query. `maps` must be the eps augmentation for
  /// query.eps over the same network and grid geometry. Returns
  /// kInvalidArgument for a query that fails SoiQuery::Validate() or
  /// maps built for a different eps/geometry, kCancelled /
  /// kDeadlineExceeded when options.cancel fires mid-run (checked per
  /// filtering iteration and per refinement segment).
  [[nodiscard]] Result<SoiResult> TryTopK(
      const SoiQuery& query, const EpsAugmentedMaps& maps,
      const SoiAlgorithmOptions& options = {}) const;

  /// Segment ids sorted by increasing length (the offline SL3 list).
  const std::vector<SegmentId>& segments_by_length() const {
    return segments_by_length_;
  }

 private:
  const RoadNetwork* network_;
  const PoiGridIndex* grid_;
  const GlobalInvertedIndex* global_index_;
  std::vector<SegmentId> segments_by_length_;
  // Reused across queries; internally synchronized (leases are handed to
  // concurrent TryTopK calls under the pool's own mutex).
  std::unique_ptr<SoiScratchPool> scratch_pool_;
};

}  // namespace soi

#endif  // SOI_CORE_SOI_ALGORITHM_H_
