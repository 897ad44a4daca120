#ifndef SOI_OBS_FLIGHT_RECORDER_H_
#define SOI_OBS_FLIGHT_RECORDER_H_

#include <atomic>
#include <cstdint>
#include <vector>

#include "common/mutex.h"
#include "common/status.h"
#include "common/thread_annotations.h"
#include "obs/metrics.h"

namespace soi {
namespace obs {

/// One completed serving-path query: identity, outcome, wall/phase
/// timings, and per-query work counters, with a process-monotone id.
///
/// The record is replayable: <keyword_ids, k, eps> reconstructs the exact
/// SoiQuery (keyword ids are sorted/deduplicated, so the identity is
/// byte-exact — the same key batch coalescing uses), and the timings plus
/// counters explain where the evaluation spent its time. Latency
/// histogram exemplars (Histogram::Observe's exemplar_query_id) point at
/// these ids, so a p99 bucket links back to the query that landed there.
struct QueryRecord {
  /// Assigned by FlightRecorder::NextQueryId() (1, 2, ...); 0 = unset.
  uint64_t query_id = 0;

  // Query identity <Psi, k, eps>.
  int32_t psi_size = 0;
  int32_t k = 0;
  double eps = 0.0;
  /// The sorted, deduplicated keyword ids of Psi (KeywordId is int32_t;
  /// kept as plain ints so obs stays independent of src/text headers).
  std::vector<int32_t> keyword_ids;

  // Wall/phase timings, seconds. total_seconds is the engine-observed
  // wall time (admission to result); the three phases are the
  // SoiQueryStats breakdown and sum to slightly less (cache lookup,
  // scratch lease, bookkeeping).
  double total_seconds = 0.0;
  double lists_seconds = 0.0;
  double filter_seconds = 0.0;
  double refine_seconds = 0.0;

  // Per-query work counters (SoiQueryStats deltas; zero on failure).
  int64_t iterations = 0;
  int64_t cells_popped = 0;
  int64_t segments_popped = 0;
  int64_t segments_seen = 0;
  int64_t segments_finalized = 0;
  int64_t poi_distance_checks = 0;

  /// True when the eps-cache lookup resolved without a build (fast-path
  /// or in-flight-entry hit).
  bool cache_hit = false;
  /// True for a batch duplicate served by copying its leader's result
  /// (soi.engine.batch_coalesced); such records carry the leader's phase
  /// timings but zero total_seconds of their own.
  bool coalesced = false;

  /// Ingest epoch the query was pinned to (0 when the engine serves the
  /// static indexes — no epoch source configured).
  uint64_t ingest_epoch = 0;

  /// kOk on success; kInvalidArgument / kResourceExhausted (shed) /
  /// kDeadlineExceeded / kCancelled / kInternal mirror the TryRun
  /// failure taxonomy (DESIGN.md "Failure model").
  StatusCode status = StatusCode::kOk;
};

/// Retains the most recent queries plus the slowest ones seen, for live
/// introspection (obs::DumpState) and post-hoc slow-query analysis.
///
/// Discipline matches TraceRecorder: appends go to one of kNumShards
/// ring buffers keyed by the caller's stable thread slot
/// (internal_metrics::ThreadShard()), each guarded by its own mutex —
/// uncontended except against a concurrent Snap(), so an append is one
/// short critical section per query (~100ns against multi-ms queries).
/// The top-M slowest reservoir admits behind a relaxed atomic floor:
/// once full, queries faster than the current M-th slowest skip its
/// mutex entirely. Always armed.
///
/// Thread-safe.
class FlightRecorder {
 public:
  /// Ring slots per shard (kNumShards rings) and reservoir size.
  static constexpr size_t kDefaultRecentPerShard = 256;
  static constexpr size_t kDefaultSlowestCapacity = 32;

  explicit FlightRecorder(size_t recent_per_shard = kDefaultRecentPerShard,
                          size_t slowest_capacity = kDefaultSlowestCapacity);

  FlightRecorder(const FlightRecorder&) = delete;
  FlightRecorder& operator=(const FlightRecorder&) = delete;

  /// The process-wide recorder QueryEngine records to (via the
  /// SOI_OBS_FLIGHT_* macros in obs.h).
  static FlightRecorder& Global();

  /// The next process-monotone query id (1, 2, ...). Relaxed fetch_add;
  /// ids stay unique and monotone across Reset().
  uint64_t NextQueryId() {
    return next_query_id_.fetch_add(1, std::memory_order_relaxed) + 1;
  }

  /// Highest id handed out so far (0 before the first query).
  uint64_t last_query_id() const {
    return next_query_id_.load(std::memory_order_relaxed);
  }

  /// Appends one completed query. When the caller's shard ring is full
  /// its oldest record is overwritten (counted in Snapshot::dropped).
  void Record(const QueryRecord& record);

  /// A consistent point-in-time view: each shard ring and the reservoir
  /// are copied under their own locks, so every record is complete
  /// (never a half-written struct) and the per-shard sequences are
  /// gap-free suffixes of what was recorded. Appends concurrent with the
  /// snapshot land in it or in the next one, never torn.
  struct Snapshot {
    /// The retained recent records, ascending query_id.
    std::vector<QueryRecord> recent;
    /// Top-M by total_seconds, descending (ties: ascending query_id).
    std::vector<QueryRecord> slowest;
    /// Records ever appended / overwritten by ring wrap-around.
    int64_t total_recorded = 0;
    int64_t dropped = 0;
    /// Highest query id handed out at snapshot time.
    uint64_t last_query_id = 0;

    /// The record with `query_id` (searching recent, then slowest), or
    /// nullptr — e.g. a histogram exemplar id resolves through this.
    const QueryRecord* Find(uint64_t query_id) const;
  };
  Snapshot Snap() const;

  /// Clears the rings and the reservoir (capacities kept; query ids keep
  /// rising). For tests and between-bench-run isolation, like
  /// Registry::Reset: quiesce recording threads first.
  void Reset();

  size_t recent_capacity() const { return recent_per_shard_ * kNumShards; }
  size_t slowest_capacity() const { return slowest_capacity_; }

 private:
  struct alignas(64) Shard {
    mutable Mutex mutex{"obs.FlightRecorder.ring", lock_graph::kRankLeaf};
    /// Ring storage; grows to recent_per_shard_ then wraps.
    std::vector<QueryRecord> ring SOI_GUARDED_BY(mutex);
    size_t next SOI_GUARDED_BY(mutex) = 0;  // next write position
    int64_t total SOI_GUARDED_BY(mutex) = 0;
    int64_t dropped SOI_GUARDED_BY(mutex) = 0;
  };

  size_t recent_per_shard_;
  size_t slowest_capacity_;
  Shard shards_[kNumShards];

  std::atomic<uint64_t> next_query_id_{0};

  /// Reservoir admission gate: the current M-th slowest total_seconds
  /// once the reservoir is full, -1.0 (admit everything) before. A
  /// stale read only costs one extra mutex acquisition — admission is
  /// re-checked under the lock.
  std::atomic<double> slowest_floor_{-1.0};
  mutable Mutex slowest_mutex_{"obs.FlightRecorder.slowest",
                               lock_graph::kRankLeaf};
  /// Min-heap on total_seconds (front = evictee).
  std::vector<QueryRecord> slowest_ SOI_GUARDED_BY(slowest_mutex_);
};

}  // namespace obs
}  // namespace soi

#endif  // SOI_OBS_FLIGHT_RECORDER_H_
