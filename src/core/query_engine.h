#ifndef SOI_CORE_QUERY_ENGINE_H_
#define SOI_CORE_QUERY_ENGINE_H_

#include <atomic>
#include <cstdint>
#include <functional>
#include <future>
#include <memory>
#include <string>
#include <unordered_map>
#include <vector>

#include "common/mutex.h"
#include "common/rcu.h"
#include "common/thread_annotations.h"
#include "core/soi_algorithm.h"
#include "core/soi_query.h"
#include "grid/segment_cell_index.h"

namespace soi {

class PoiEpochSource;
class ThreadPool;

namespace obs {
// Forward declaration only: the layering rule (DESIGN.md
// "Observability") keeps obs headers out of non-obs headers. The
// record is filled and published in query_engine.cc.
struct QueryRecord;
}  // namespace obs

/// Tuning knobs for QueryEngine.
struct QueryEngineOptions {
  /// Total concurrency: TryRunBatch evaluates up to this many queries at
  /// once, and single-query work (index augmentation, sorts, refinement)
  /// uses the same pool. 1 = fully sequential, no threads spawned.
  int num_threads = 1;

  /// Maximum number of memoized EpsAugmentedMaps (one per distinct eps).
  /// The LRU *completed* entry is evicted beyond this; entries whose
  /// build is still in flight are exempt (evicting one would detach the
  /// shared future concurrent same-eps requesters wait on and force a
  /// duplicate build). When every entry is in flight the cache briefly
  /// exceeds capacity — bounded by the number of concurrent distinct-eps
  /// builds — and shrinks back as builds complete and become evictable.
  /// In-flight queries keep their maps alive through shared_ptr handoff.
  /// Must be >= 1.
  size_t eps_cache_capacity = 8;

  /// Admission control (DESIGN.md "Failure model"): when positive,
  /// TryRun sheds any query that would raise the number of in-flight
  /// queries beyond this bound, returning kResourceExhausted without
  /// touching the cache or the pool. 0 (default) = unbounded.
  size_t max_inflight_queries = 0;

  /// Per-query algorithm options. The `pool` field is overridden by the
  /// engine's own pool.
  SoiAlgorithmOptions algorithm;

  /// Live-ingest integration (grid/live_poi_view.h): when set, every
  /// admitted query pins one epoch from this source for its whole
  /// evaluation — Pin() is wait-free, the pinned snapshot is released
  /// when the query finishes, and the query's POI reads all see that
  /// epoch's index state. Null (default) = the static indexes the
  /// engine was constructed over. Not owned; must outlive the engine.
  /// Overrides algorithm.live_view per query when set.
  const PoiEpochSource* epoch_source = nullptr;

  /// Test/diagnostic hook: invoked outside the cache lock at the start
  /// of every eps-maps cache build, with the eps being built. The
  /// eviction regression tests use it to hold a build in flight
  /// deterministically; it must not call back into the engine.
  std::function<void(double)> build_observer;
};

/// The multi-query front end of the reproduction (the serving-path
/// substrate of ROADMAP.md): binds one dataset's network + indices, keeps
/// the per-eps augmented maps memoized behind a bounded LRU cache, and
/// evaluates query batches concurrently on an internal fixed-size
/// ThreadPool.
///
/// Determinism contract (DESIGN.md "Threading model"): for every query,
/// TryRun/TryRunBatch return results bit-identical to the sequential
/// `SoiAlgorithm::TryTopK(query, EpsAugmentedMaps(segment_cells, eps))`
/// — for any num_threads, cache capacity, or batch composition. Timing
/// fields of SoiQueryStats are excluded (wall-clock).
///
/// Thread-safe: TryRun, TryRunBatch and TryGetMaps may be called from
/// multiple threads. The referenced network and indices must outlive the
/// engine.
///
/// Failure semantics of the Try* serving path — validation, admission
/// control, deadlines/cancellation, and the no-cache-poisoning guarantee
/// for failed eps builds — are specified in DESIGN.md "Failure model".
class QueryEngine {
 public:
  /// All indices must be built over the same grid geometry (checked per
  /// query by SoiAlgorithm::TryTopK).
  QueryEngine(const RoadNetwork& network, const PoiGridIndex& grid,
              const GlobalInvertedIndex& global_index,
              const SegmentCellIndex& segment_cells,
              QueryEngineOptions options = {});

  /// Warm-start construction (DESIGN.md "Persistence & warm start"):
  /// like the primary constructor, but pre-seeds the eps cache with
  /// already-built augmented maps — typically restored from a snapshot
  /// (src/snapshot) — so the first queries skip the augmentation build.
  /// Every entry must be non-null and built over `segment_cells`'s grid
  /// geometry, the eps values must be distinct, and preloaded.size()
  /// must not exceed options.eps_cache_capacity. Serving through a
  /// warm-started engine is bit-identical to a cold engine that built
  /// the same maps itself; the seeded entries count as neither hits nor
  /// misses until first use.
  QueryEngine(
      const RoadNetwork& network, const PoiGridIndex& grid,
      const GlobalInvertedIndex& global_index,
      const SegmentCellIndex& segment_cells, QueryEngineOptions options,
      std::vector<std::shared_ptr<const EpsAugmentedMaps>> preloaded);

  ~QueryEngine();

  QueryEngine(const QueryEngine&) = delete;
  QueryEngine& operator=(const QueryEngine&) = delete;

  /// Evaluates one query through the eps cache — the serving entry
  /// point (DESIGN.md "Failure model"). Returns, instead of the result:
  ///  - kInvalidArgument if the query fails SoiQuery::Validate() —
  ///    checked before the eps cache is consulted, so a NaN eps can
  ///    never be used as a cache key;
  ///  - kResourceExhausted if admission control sheds the query
  ///    (see QueryEngineOptions::max_inflight_queries);
  ///  - kDeadlineExceeded / kCancelled if `cancel` fires before or
  ///    during evaluation (checked cooperatively per filtering
  ///    iteration, per refinement segment, and per segment of an eps
  ///    augmentation build);
  ///  - kInternal for an injected fault (SOI_FAULT_INJECTION builds).
  /// A failed eps-cache build never leaves a poisoned entry behind:
  /// the builder evicts its own entry before publishing the failure,
  /// and concurrent waiters retry against a clean slot.
  [[nodiscard]] Result<SoiResult> TryRun(const SoiQuery& query);

  /// TryRun with a per-query cancellation/deadline token (overrides the
  /// engine-wide options.algorithm.cancel for this query only).
  [[nodiscard]] Result<SoiResult> TryRun(const SoiQuery& query,
                                         const CancellationToken& cancel);

  /// Evaluates the batch through TryRun, up to num_threads queries
  /// concurrently, returning one Result per query in input order.
  /// Failures are per-entry: invalid, shed, expired, or faulted queries
  /// report their Status while the rest return results bit-identical to
  /// the sequential reference. `cancels` must be empty (engine-wide
  /// token for all) or hold one token per query.
  ///
  /// Duplicate coalescing: when `cancels` is empty, queries with the same
  /// full identity <Psi, k, eps> are evaluated once — the first occurrence
  /// (the leader) runs, and the later duplicates receive a copy of its
  /// Result. Bit-identity is preserved because an identical query yields
  /// an identical evaluation (only the wall-clock timing fields, excluded
  /// from the contract, are shared instead of re-measured). With per-query
  /// tokens nothing is coalesced: two duplicates may legitimately differ
  /// in when their tokens fire. Coalesced duplicates are counted in
  /// soi.engine.batch_coalesced.
  [[nodiscard]] std::vector<Result<SoiResult>> TryRunBatch(
      const std::vector<SoiQuery>& queries,
      const std::vector<CancellationToken>& cancels = {});

  /// The memoized eps augmentation for `eps`, building (and caching) it
  /// on first use. Concurrent requests for the same eps share one build.
  /// A hit on a completed entry is contention-free: it resolves against a
  /// read-mostly snapshot of the completed-entry table without touching
  /// cache_mutex_ (see hit_table_ below). A build aborted by `cancel`
  /// (may be null) or an injected fault surfaces as kCancelled /
  /// kDeadlineExceeded / kInternal, after the failed entry has been
  /// evicted so later requests rebuild from scratch. When `cache_hit`
  /// is non-null it reports whether the lookup resolved without this
  /// call building (fast-path hit or a wait on an in-flight entry) —
  /// the per-query flight-recorder view of soi.cache.hits/misses.
  [[nodiscard]] Result<std::shared_ptr<const EpsAugmentedMaps>> TryGetMaps(
      double eps, const CancellationToken* cancel = nullptr,
      bool* cache_hit = nullptr) SOI_EXCLUDES(cache_mutex_);

  /// Cumulative eps-cache counters (monotone since construction).
  struct CacheStats {
    int64_t hits = 0;
    int64_t misses = 0;
    int64_t evictions = 0;

    double HitRate() const {
      int64_t total = hits + misses;
      return total > 0 ? static_cast<double>(hits) /
                             static_cast<double>(total)
                       : 0.0;
    }
  };

  /// Reads the cache counters without taking `cache_mutex_`: each field
  /// is a relaxed atomic load, so scraping metrics never blocks (nor is
  /// blocked by) an in-flight batch. Consistency contract: every counter
  /// is individually monotone and exact; a read concurrent with a lookup
  /// may observe the hit/miss of that lookup before or after — there is
  /// no cross-counter atomicity, which scrapers must (and do) tolerate.
  CacheStats cache_stats() const;

  /// A JSON object with this engine's cache counters plus a snapshot of
  /// the global metrics registry (counters/gauges/histograms). This is
  /// the serving-path metrics export the bench harnesses embed in
  /// BENCH_*.json.
  std::string MetricsJson() const;

  int num_threads() const;
  const SoiAlgorithm& algorithm() const { return algorithm_; }

  /// Number of live eps-cache entries (test/diagnostic hook; takes
  /// cache_mutex_).
  size_t cache_size() const SOI_EXCLUDES(cache_mutex_);

 private:
  /// What a cache entry's future resolves to: the maps on success, or
  /// the build failure. Publishing a Status (rather than broken-promise
  /// exceptions) keeps waiters on the no-exceptions serving path.
  struct MapsPayload {
    std::shared_ptr<const EpsAugmentedMaps> maps;
    Status status;
  };
  using MapsFuture = std::shared_future<MapsPayload>;

  struct CacheEntry {
    MapsFuture maps;  // the build's result; unset for warm-start entries
    /// Set under cache_mutex_ once the build has succeeded; null means
    /// in flight. Completed entries resolve through it, never blocking on
    /// the future, and are the only ones eviction and the hit table see.
    std::shared_ptr<const EpsAugmentedMaps> ready_maps;
    /// LRU clock, shared with the hit-table snapshot so contention-free
    /// hits keep the recency the evictor reads. Heap-allocated because
    /// the snapshot may outlive the cache entry across an eviction.
    std::shared_ptr<std::atomic<uint64_t>> last_used;
    /// Distinguishes this entry from any later entry for the same eps,
    /// so a failed builder evicts only its own entry (never a healthy
    /// replacement raced in by a retrying waiter).
    uint64_t id = 0;
  };

  /// The contention-free hit path: an immutable map of the *completed*
  /// cache entries, republished (common/rcu.h) copy-on-write whenever
  /// that set changes — build completion, eviction, warm-start preload.
  /// A hit looks up eps, bumps the shared LRU clock, and copies the maps
  /// out — wait-free, no mutex. Misses and in-flight entries fall
  /// through to the locked slow path. A lookup racing an eviction may
  /// still hit the just-retired generation; the maps stay alive through
  /// the HitEntry shared_ptr and the counters tolerate the blur (see
  /// cache_stats()).
  struct HitEntry {
    std::shared_ptr<const EpsAugmentedMaps> maps;
    std::shared_ptr<std::atomic<uint64_t>> last_used;
  };
  using HitTable = std::unordered_map<double, HitEntry>;

  /// The near-cell superset every eps <= near_cells_cap_ is filtered
  /// from, built on the first such miss with `cancel` (may be null) on
  /// pool_. Concurrent first misses share one build. A cancelled or
  /// faulted build returns its Status and leaves nothing behind, so the
  /// next miss builds again.
  Result<const SegmentNearCells*> TryGetNearCells(
      const CancellationToken* cancel) SOI_EXCLUDES(cache_mutex_);

  /// Republishes hit_table_ from the completed entries of cache_.
  void RebuildHitTableLocked() SOI_REQUIRES(cache_mutex_);

  /// Claims one in-flight slot, which the caller must give back. Returns
  /// OK, or the kResourceExhausted shed status naming the in-flight count
  /// the claim observed when that exceeds max_inflight_queries.
  Status ClaimInflightSlot();

  /// TryRun with an explicit admission mode: the shared body behind the
  /// public TryRun (preadmitted = false, admission control inside) and
  /// TryRunBatch's coalesced groups (preadmitted = true — the batch has
  /// already charged one in-flight slot per coalesced logical query, so
  /// the evaluation itself must not charge again).
  Result<SoiResult> TryRunCounted(const SoiQuery& query,
                                  const CancellationToken& cancel,
                                  bool preadmitted);

  /// TryRunCounted's body. `record` (never null) accumulates the per-query
  /// flight-recorder fields the evaluation path knows — cache hit/miss
  /// and the phase stats — while the caller owns identity, total wall
  /// time, final status, and publication to the FlightRecorder.
  Result<SoiResult> TryRunInternal(const SoiQuery& query,
                                   const CancellationToken& cancel,
                                   obs::QueryRecord* record,
                                   bool preadmitted);

  const SegmentCellIndex* segment_cells_;
  QueryEngineOptions options_;
  std::unique_ptr<ThreadPool> pool_;  // null when num_threads <= 1
  SoiAlgorithm algorithm_;

  // Lock-ordering invariant: cache_mutex_ is a LEAF lock. While holding
  // it, the engine never submits pool work, never blocks on a future,
  // never runs user callbacks (build_observer runs before the build,
  // outside the lock), and never takes another engine lock. Builds and
  // observability exports happen outside the critical sections, which
  // are limited to map bookkeeping.
  mutable Mutex cache_mutex_{"core.QueryEngine.eps_cache",
                             lock_graph::kRankLeaf};
  // The superset cap: a fixed multiple of the grid cell size (see
  // query_engine.cc). Larger eps build from geometry.
  const double near_cells_cap_;
  // Set once, by the build that succeeded; immutable and alive until the
  // engine is destroyed, so the pointer is used outside the lock.
  std::unique_ptr<const SegmentNearCells> near_cells_
      SOI_GUARDED_BY(cache_mutex_);
  // Valid while a superset build is in flight; its waiters block on it.
  std::shared_future<Status> near_cells_build_ SOI_GUARDED_BY(cache_mutex_);
  std::unordered_map<double, CacheEntry> cache_ SOI_GUARDED_BY(cache_mutex_);
  // Fast-path view (null until the first entry completes); published
  // under cache_mutex_.
  Published<HitTable> hit_table_;
  // Monotone logical clock for LRU recency; atomic so lock-free hits can
  // bump it without cache_mutex_.
  std::atomic<uint64_t> cache_tick_{0};
  uint64_t next_entry_id_ SOI_GUARDED_BY(cache_mutex_) = 0;
  // Queries currently inside TryRun (admission control).
  std::atomic<int64_t> inflight_{0};
  // Updated under cache_mutex_ (writers), read lock-free by
  // cache_stats() (see its contract above).
  std::atomic<int64_t> cache_hits_{0};
  std::atomic<int64_t> cache_misses_{0};
  std::atomic<int64_t> cache_evictions_{0};
};

}  // namespace soi

#endif  // SOI_CORE_QUERY_ENGINE_H_
