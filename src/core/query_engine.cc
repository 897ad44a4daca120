#include "core/query_engine.h"

#include <algorithm>
#include <memory>
#include <optional>
#include <sstream>
#include <string>
#include <unordered_map>
#include <utility>

#include "common/check.h"
#include "common/fault_injection.h"
#include "common/json_writer.h"
#include "common/stopwatch.h"
#include "common/string_util.h"
#include "common/thread_pool.h"
#include "grid/live_poi_view.h"
#include "obs/json_export.h"
#include "obs/obs.h"

namespace soi {

namespace {

// Bumps the per-failure-class serving counters and passes the status
// through, so failure paths read `return CountQueryFailure(st);`.
Status CountQueryFailure(Status status) {
  switch (status.code()) {
    case StatusCode::kDeadlineExceeded:
      SOI_OBS_COUNTER_ADD("soi.engine.deadline_exceeded", 1);
      break;
    case StatusCode::kCancelled:
      SOI_OBS_COUNTER_ADD("soi.engine.cancelled", 1);
      break;
    default:
      break;
  }
  return status;
}

// RAII release of `slots` in-flight query slots.
class InflightGuard {
 public:
  explicit InflightGuard(std::atomic<int64_t>* counter, int64_t slots = 1)
      : counter_(counter), slots_(slots) {}
  ~InflightGuard() {
    counter_->fetch_sub(slots_, std::memory_order_relaxed);
    // Last-write-wins level for introspection; a racing Set from a
    // concurrent query only blurs the gauge by one, never the admission
    // check (which reads the atomic, not the gauge).
    SOI_OBS_GAUGE_SET("soi.engine.inflight",
                      counter_->load(std::memory_order_relaxed));
  }
  InflightGuard(const InflightGuard&) = delete;
  InflightGuard& operator=(const InflightGuard&) = delete;

 private:
  std::atomic<int64_t>* counter_;
  int64_t slots_;
};

// Flight-recorder identity fields of one query (and its fresh id).
obs::QueryRecord MakeQueryRecord(const SoiQuery& query) {
  obs::QueryRecord record;
  record.query_id = SOI_OBS_NEXT_QUERY_ID();
  record.psi_size = static_cast<int32_t>(query.keywords.size());
  record.k = query.k;
  record.eps = query.eps;
  record.keyword_ids = query.keywords.ids();
  return record;
}

// Copies the per-query evaluation stats into the flight record.
void FillRecordFromStats(const SoiQueryStats& stats,
                         obs::QueryRecord* record) {
  record->lists_seconds = stats.list_construction_seconds;
  record->filter_seconds = stats.filtering_seconds;
  record->refine_seconds = stats.refinement_seconds;
  record->iterations = stats.iterations;
  record->cells_popped = stats.cells_popped;
  record->segments_popped = stats.segments_popped;
  record->segments_seen = stats.segments_seen;
  record->segments_finalized = stats.segments_finalized_in_refinement;
  record->poi_distance_checks = stats.poi_distance_checks;
}

// Canonical byte key of a query's full identity <Psi, k, eps> for batch
// coalescing. KeywordSet ids are sorted and deduplicated, so identical
// queries produce identical keys. Raw double bits keep the key exact
// (coalescing must never merge queries whose eps merely prints alike).
std::string QueryIdentityKey(const SoiQuery& query) {
  const std::vector<KeywordId>& ids = query.keywords.ids();
  std::string key;
  key.reserve(sizeof(query.eps) + sizeof(query.k) +
              ids.size() * sizeof(KeywordId));
  auto append = [&key](const void* bytes, size_t n) {
    key.append(static_cast<const char*>(bytes), n);
  };
  append(&query.eps, sizeof(query.eps));
  append(&query.k, sizeof(query.k));
  for (KeywordId id : ids) append(&id, sizeof(id));
  return key;
}

// The near-cell superset covers eps up to this many grid cells: every
// eps soibench serves (at most 0.0007) and the paper's default of 0.0005
// on 0.0005 cells, for 12 bytes per (segment, cell) entry within the cap.
constexpr double kNearCellsCapInCells = 2.0;

}  // namespace

QueryEngine::QueryEngine(const RoadNetwork& network, const PoiGridIndex& grid,
                         const GlobalInvertedIndex& global_index,
                         const SegmentCellIndex& segment_cells,
                         QueryEngineOptions options)
    : segment_cells_(&segment_cells),
      options_(std::move(options)),
      pool_(options_.num_threads > 1
                ? std::make_unique<ThreadPool>(options_.num_threads)
                : nullptr),
      algorithm_(network, grid, global_index, pool_.get()),
      near_cells_cap_(kNearCellsCapInCells *
                      segment_cells.geometry().cell_size()) {
  SOI_CHECK(options_.num_threads >= 1) << "num_threads must be >= 1";
  SOI_CHECK(options_.eps_cache_capacity >= 1)
      << "eps_cache_capacity must be >= 1";
  options_.algorithm.pool = pool_.get();
}

QueryEngine::QueryEngine(
    const RoadNetwork& network, const PoiGridIndex& grid,
    const GlobalInvertedIndex& global_index,
    const SegmentCellIndex& segment_cells, QueryEngineOptions options,
    std::vector<std::shared_ptr<const EpsAugmentedMaps>> preloaded)
    : QueryEngine(network, grid, global_index, segment_cells,
                  std::move(options)) {
  SOI_CHECK(preloaded.size() <= options_.eps_cache_capacity)
      << "warm start: " << preloaded.size()
      << " preloaded maps exceed eps_cache_capacity="
      << options_.eps_cache_capacity;
  [[maybe_unused]] size_t cache_size_after = 0;
  {
    MutexLock lock(cache_mutex_);
    for (std::shared_ptr<const EpsAugmentedMaps>& maps : preloaded) {
      SOI_CHECK(maps != nullptr) << "warm start: null preloaded maps";
      double eps = maps->eps();
      CacheEntry entry;
      entry.ready_maps = std::move(maps);
      entry.last_used = std::make_shared<std::atomic<uint64_t>>(
          cache_tick_.fetch_add(1, std::memory_order_relaxed) + 1);
      entry.id = ++next_entry_id_;
      bool inserted = cache_.emplace(eps, std::move(entry)).second;
      SOI_CHECK(inserted) << "warm start: duplicate preloaded eps="
                          << FormatDouble(eps);
    }
    RebuildHitTableLocked();
    cache_size_after = cache_.size();
  }
  SOI_OBS_GAUGE_SET("soi.cache.size",
                    static_cast<int64_t>(cache_size_after));
}

void QueryEngine::RebuildHitTableLocked() {
  auto table = std::make_unique<HitTable>();
  table->reserve(cache_.size());
  for (const auto& [eps, entry] : cache_) {
    if (entry.ready_maps == nullptr) continue;  // still building
    table->emplace(eps, HitEntry{entry.ready_maps, entry.last_used});
  }
  hit_table_.Publish(std::move(table));
}

QueryEngine::~QueryEngine() = default;

int QueryEngine::num_threads() const {
  return pool_ ? options_.num_threads : 1;
}

Result<std::shared_ptr<const EpsAugmentedMaps>> QueryEngine::TryGetMaps(
    double eps, const CancellationToken* cancel, bool* cache_hit) {
  if (cache_hit != nullptr) *cache_hit = false;
  // Contention-free hit path: resolve against the read-mostly snapshot
  // of completed entries. In the steady state (the cache warmed to the
  // serving eps values) every query takes this branch and the batch
  // threads never serialize on cache_mutex_. A hit racing an eviction
  // may resolve against the just-evicted snapshot — the maps stay alive
  // through the shared_ptr, so this only blurs LRU recency by one tick.
  std::shared_ptr<const EpsAugmentedMaps> hit_maps = hit_table_.Read(
      [&](const HitTable* table) -> std::shared_ptr<const EpsAugmentedMaps> {
        if (table == nullptr) return nullptr;
        auto hit = table->find(eps);
        if (hit == table->end()) return nullptr;
        hit->second.last_used->store(
            cache_tick_.fetch_add(1, std::memory_order_relaxed) + 1,
            std::memory_order_relaxed);
        return hit->second.maps;
      });
  if (hit_maps != nullptr) {
    cache_hits_.fetch_add(1, std::memory_order_relaxed);
    SOI_OBS_COUNTER_ADD("soi.cache.hits", 1);
    if (cache_hit != nullptr) *cache_hit = true;
    return hit_maps;
  }

  // Bounded retry: a waiter that observes a peer's failed build loops
  // around and — the failed entry having been evicted by its builder —
  // typically becomes the new builder. The bound only guards against a
  // pathological fault plan failing every rebuild.
  constexpr int kMaxAttempts = 8;
  for (int attempt = 0; attempt < kMaxAttempts; ++attempt) {
    std::promise<MapsPayload> promise;
    MapsFuture future;
    std::shared_ptr<const EpsAugmentedMaps> ready;
    uint64_t my_id = 0;
    bool builder = false;
    bool hit = false;
    bool evicted = false;
    [[maybe_unused]] size_t cache_size_after = 0;
    uint64_t tick = cache_tick_.fetch_add(1, std::memory_order_relaxed) + 1;
    // Contention proxy for the bench: how often the serving path had to
    // take cache_mutex_ at all (0 per batch once the cache is warm).
    SOI_OBS_COUNTER_ADD("soi.cache.locked_path", 1);
    {
      // Critical section: map bookkeeping only (cache_mutex_ is a leaf
      // lock — see query_engine.h); counters and gauges are emitted
      // after release.
      MutexLock lock(cache_mutex_);
      auto it = cache_.find(eps);
      if (it != cache_.end()) {
        // In-flight entry (completed ones resolve lock-free above, but
        // an entry completed between the snapshot load and here also
        // lands in this branch — both count as hits).
        hit = true;
        it->second.last_used->store(tick, std::memory_order_relaxed);
        ready = it->second.ready_maps;
        future = it->second.maps;
      } else {
        if (cache_.size() >= options_.eps_cache_capacity) {
          // LRU among *completed* entries only: evicting an in-flight
          // build would detach the shared future concurrent same-eps
          // requesters are about to wait on, and the next same-eps
          // request would start a duplicate build. If every entry is in
          // flight, nothing is evictable and the cache temporarily runs
          // over capacity (bounded by the number of concurrent
          // distinct-eps builds).
          auto victim = cache_.end();
          for (auto entry = cache_.begin(); entry != cache_.end();
               ++entry) {
            if (entry->second.ready_maps == nullptr) continue;
            if (victim == cache_.end() ||
                entry->second.last_used->load(std::memory_order_relaxed) <
                    victim->second.last_used->load(
                        std::memory_order_relaxed)) {
              victim = entry;
            }
          }
          if (victim != cache_.end()) {
            cache_.erase(victim);  // holders keep maps via their shared_ptr
            RebuildHitTableLocked();
            evicted = true;
          }
        }
        my_id = ++next_entry_id_;
        future = promise.get_future().share();
        CacheEntry entry;
        entry.maps = future;
        entry.last_used = std::make_shared<std::atomic<uint64_t>>(tick);
        entry.id = my_id;
        cache_.emplace(eps, std::move(entry));
        builder = true;
        cache_size_after = cache_.size();
      }
    }
    if (hit) {
      cache_hits_.fetch_add(1, std::memory_order_relaxed);
      SOI_OBS_COUNTER_ADD("soi.cache.hits", 1);
    } else {
      cache_misses_.fetch_add(1, std::memory_order_relaxed);
      SOI_OBS_COUNTER_ADD("soi.cache.misses", 1);
      if (evicted) {
        cache_evictions_.fetch_add(1, std::memory_order_relaxed);
        SOI_OBS_COUNTER_ADD("soi.cache.evictions", 1);
      }
      SOI_OBS_GAUGE_SET("soi.cache.size",
                        static_cast<int64_t>(cache_size_after));
    }

    if (!builder) {
      // Completed: resolve directly. In flight: block on the build.
      MapsPayload payload = ready != nullptr
                                ? MapsPayload{std::move(ready), Status::OK()}
                                : future.get();
      if (payload.status.ok()) {
        if (cache_hit != nullptr) *cache_hit = true;
        return payload.maps;
      }
      continue;  // peer's build failed and was evicted; retry
    }

    // Build outside the lock so other eps values proceed concurrently;
    // same-eps requesters block on the shared future instead of
    // duplicating the build. From a batch worker the inner parallel
    // loops run inline. Exceptions are the two sanctioned unwinding
    // paths (DESIGN.md "Failure model"): cooperative cancellation and
    // injected faults, both converted to Status right here.
    MapsPayload payload;
    if (options_.build_observer) options_.build_observer(eps);
    try {
      SOI_TRACE_SPAN("cache.build_maps");
      Stopwatch build_timer;
      SOI_FAULT_POINT("cache.build_maps");
      if (eps <= near_cells_cap_) {
        // The filter path; the first such miss also builds the superset,
        // and its cost lands in this build's soi.cache.build_seconds.
        Result<const SegmentNearCells*> near = TryGetNearCells(cancel);
        if (near.ok()) {
          payload.maps = std::make_shared<const EpsAugmentedMaps>(
              *near.ValueOrDie(), eps, pool_.get(), cancel);
        } else {
          payload.status = near.status();
        }
      } else {
        payload.maps = std::make_shared<const EpsAugmentedMaps>(
            *segment_cells_, eps, pool_.get(), cancel);
      }
      if (payload.status.ok()) {
        SOI_OBS_COUNTER_ADD("soi.cache.builds", 1);
        SOI_OBS_HISTOGRAM_OBSERVE("soi.cache.build_seconds",
                                  build_timer.ElapsedSeconds());
      }
    } catch (const CancelledError& e) {
      payload.status = e.status();
    } catch (const std::exception& e) {
      payload.status = Status::Internal(
          std::string("eps augmentation build failed: ") + e.what());
    }

    if (!payload.status.ok()) {
      // Evict our own entry BEFORE publishing the failure, so a waiter
      // that wakes on the failed payload retries against a clean slot.
      // The id check keeps a healthy replacement entry (raced in after
      // our eviction by a retrying waiter) untouched. No hit-table
      // republish: an in-flight entry was never in the snapshot.
      [[maybe_unused]] size_t size_after = 0;
      bool erased = false;
      {
        MutexLock lock(cache_mutex_);
        auto it = cache_.find(eps);
        if (it != cache_.end() && it->second.id == my_id) {
          cache_.erase(it);
          erased = true;
          size_after = cache_.size();
        }
      }
      if (erased) {
        SOI_OBS_GAUGE_SET("soi.cache.size",
                          static_cast<int64_t>(size_after));
      }
    } else {
      // Mark the build complete BEFORE publishing the value: once
      // waiters can see the payload the entry must already be a normal
      // evictable cache resident — and in the lock-free hit snapshot.
      // The id check is defensive — eviction skips in-flight entries
      // and only this builder erases its own, so the entry is still
      // ours here.
      MutexLock lock(cache_mutex_);
      auto it = cache_.find(eps);
      if (it != cache_.end() && it->second.id == my_id) {
        it->second.ready_maps = payload.maps;
        RebuildHitTableLocked();
      }
    }
    promise.set_value(payload);
    if (payload.status.ok()) return payload.maps;
    return payload.status;  // the builder reports its own failure
  }
  return Status::Internal("eps augmentation build failed repeatedly for "
                          "eps=" + FormatDouble(eps));
}

Result<const SegmentNearCells*> QueryEngine::TryGetNearCells(
    const CancellationToken* cancel) {
  // Same shape as the eps cache: one builder per attempt, waiters block
  // on its shared future, and a failed build is cleared before waiters
  // wake, so a retrying waiter becomes the next builder.
  constexpr int kMaxAttempts = 8;
  for (int attempt = 0; attempt < kMaxAttempts; ++attempt) {
    std::promise<Status> promise;
    std::shared_future<Status> in_flight;
    {
      MutexLock lock(cache_mutex_);
      if (near_cells_ != nullptr) return near_cells_.get();
      if (near_cells_build_.valid()) {
        in_flight = near_cells_build_;
      } else {
        near_cells_build_ = promise.get_future().share();
      }
    }
    if (in_flight.valid()) {
      in_flight.wait();
      continue;  // built now, or the peer's build failed: look again
    }
    Status status;
    std::unique_ptr<const SegmentNearCells> built;
    try {
      built = std::make_unique<const SegmentNearCells>(
          *segment_cells_, near_cells_cap_, pool_.get(), cancel);
    } catch (const CancelledError& e) {
      status = e.status();
    } catch (const std::exception& e) {
      status = Status::Internal(
          std::string("near-cell superset build failed: ") + e.what());
    }
    const SegmentNearCells* near = built.get();
    {
      MutexLock lock(cache_mutex_);
      if (built != nullptr) near_cells_ = std::move(built);
      near_cells_build_ = std::shared_future<Status>();
    }
    promise.set_value(status);
    if (!status.ok()) return status;
    return near;
  }
  return Status::Internal("near-cell superset build failed repeatedly");
}

Status QueryEngine::ClaimInflightSlot() {
  int64_t inflight = inflight_.fetch_add(1, std::memory_order_relaxed) + 1;
  SOI_OBS_GAUGE_SET("soi.engine.inflight", inflight);
  if (options_.max_inflight_queries == 0 ||
      inflight <= static_cast<int64_t>(options_.max_inflight_queries)) {
    return Status::OK();
  }
  SOI_OBS_COUNTER_ADD("soi.engine.shed", 1);
  return Status::ResourceExhausted(
      "query shed: " + std::to_string(inflight) +
      " in-flight queries exceeds max_inflight_queries=" +
      std::to_string(options_.max_inflight_queries));
}

Result<SoiResult> QueryEngine::TryRun(const SoiQuery& query) {
  return TryRun(query, options_.algorithm.cancel);
}

Result<SoiResult> QueryEngine::TryRun(const SoiQuery& query,
                                      const CancellationToken& cancel) {
  return TryRunCounted(query, cancel, /*preadmitted=*/false);
}

Result<SoiResult> QueryEngine::TryRunCounted(const SoiQuery& query,
                                             const CancellationToken& cancel,
                                             bool preadmitted) {
  // The observability envelope around the evaluation: every TryRun —
  // success, invalid, shed, expired, faulted — leaves one QueryRecord
  // in the flight recorder, and successful queries additionally stamp
  // their id as the soi.engine.query_seconds exemplar of their latency
  // bucket.
  obs::QueryRecord record = MakeQueryRecord(query);
  Stopwatch timer;
  Result<SoiResult> result =
      TryRunInternal(query, cancel, &record, preadmitted);
  record.total_seconds = timer.ElapsedSeconds();
  record.status = result.ok() ? StatusCode::kOk : result.status().code();
  SOI_OBS_FLIGHT_RECORD(record);
  if (result.ok()) {
    SOI_OBS_HISTOGRAM_OBSERVE_EXEMPLAR("soi.engine.query_seconds",
                                       record.total_seconds,
                                       record.query_id);
  }
  return result;
}

Result<SoiResult> QueryEngine::TryRunInternal(
    const SoiQuery& query, const CancellationToken& cancel,
    obs::QueryRecord* record, bool preadmitted) {
  // Validation precedes every other step — in particular the eps cache
  // lookup, so a NaN eps (NaN != NaN would miss and insert on every
  // call) can never become a cache key.
  SOI_RETURN_NOT_OK(query.Validate());

  // Admission control — unless the caller (a coalesced TryRunBatch
  // group) already charged one slot per logical query it represents.
  std::optional<InflightGuard> guard;
  if (!preadmitted) {
    Status slot = ClaimInflightSlot();
    guard.emplace(&inflight_);  // gives the slot back, admitted or shed
    SOI_RETURN_NOT_OK(slot);
  }

  SOI_TRACE_SPAN("engine.query");
  Status admitted = cancel.Check();
  if (!admitted.ok()) return CountQueryFailure(std::move(admitted));

  std::shared_ptr<const EpsAugmentedMaps> maps;
  {
    auto maps_result =
        TryGetMaps(query.eps, cancel.cancellable() ? &cancel : nullptr,
                   &record->cache_hit);
    if (!maps_result.ok()) {
      return CountQueryFailure(maps_result.status());
    }
    maps = std::move(maps_result).ValueOrDie();
  }

  // Live ingest: pin one epoch for the whole evaluation. The snapshot's
  // shared_ptr (and through it the overlay / compacted arenas) stays
  // alive until this frame returns, so the view's borrowed pointers are
  // valid for every read the algorithm performs. Pinned after admission
  // so shed queries never delay overlay reclamation.
  std::shared_ptr<const PoiEpochSnapshot> epoch;
  std::optional<LivePoiView> live_view;
  if (options_.epoch_source != nullptr) {
    epoch = options_.epoch_source->Pin();
    live_view.emplace(epoch->View());
    record->ingest_epoch = epoch->epoch;
  }

  SoiAlgorithmOptions algorithm_options = options_.algorithm;
  algorithm_options.cancel = cancel;
  if (live_view.has_value()) {
    algorithm_options.live_view = &*live_view;
  }
  // Exemplar attribution for the per-phase latency histograms.
  algorithm_options.query_id = record->query_id;
  // TryTopK is Status-based, but an injected fault inside its parallel
  // refinement still unwinds as an exception; convert it here so the
  // serving boundary is exception-free.
  try {
    Result<SoiResult> result =
        algorithm_.TryTopK(query, *maps, algorithm_options);
    if (!result.ok()) return CountQueryFailure(result.status());
    FillRecordFromStats(result.ValueOrDie().stats, record);
    return result;
  } catch (const CancelledError& e) {
    return CountQueryFailure(e.status());
  } catch (const std::exception& e) {
    return CountQueryFailure(Status::Internal(
        std::string("query evaluation failed: ") + e.what()));
  }
}

std::vector<Result<SoiResult>> QueryEngine::TryRunBatch(
    const std::vector<SoiQuery>& queries,
    const std::vector<CancellationToken>& cancels) {
  SOI_CHECK(cancels.empty() || cancels.size() == queries.size())
      << "TryRunBatch: cancels must be empty or one per query, got "
      << cancels.size() << " tokens for " << queries.size() << " queries";
  SOI_TRACE_SPAN("engine.run_batch");
  Stopwatch timer;
  SOI_OBS_COUNTER_ADD("soi.engine.batches", 1);
  SOI_OBS_COUNTER_ADD("soi.engine.batch_queries",
                      static_cast<int64_t>(queries.size()));
  // Coalesce duplicates (identical <Psi, k, eps>) onto one evaluation.
  // leader[i] == i marks an entry that runs; a duplicate points at the
  // earlier identical query (always a smaller index, so the forward
  // fan-out pass below is well-ordered). Per-query tokens disable
  // coalescing: two duplicates may differ in when their tokens fire.
  std::vector<int64_t> leader(queries.size());
  int64_t coalesced = 0;
  if (cancels.empty() && queries.size() > 1) {
    std::unordered_map<std::string, int64_t> first_by_key;
    first_by_key.reserve(queries.size());
    for (size_t i = 0; i < queries.size(); ++i) {
      auto [it, inserted] = first_by_key.emplace(
          QueryIdentityKey(queries[i]), static_cast<int64_t>(i));
      leader[i] = it->second;
      if (!inserted) ++coalesced;
    }
  } else {
    for (size_t i = 0; i < queries.size(); ++i) {
      leader[i] = static_cast<int64_t>(i);
    }
  }
  if (coalesced > 0) {
    SOI_OBS_COUNTER_ADD("soi.engine.batch_coalesced", coalesced);
  }
  // Members of each coalesced group, ascending (a leader's own index
  // comes first). Admission control charges per member below.
  std::vector<std::vector<int64_t>> group_members(queries.size());
  for (size_t i = 0; i < queries.size(); ++i) {
    group_members[static_cast<size_t>(leader[i])].push_back(
        static_cast<int64_t>(i));
  }

  std::vector<Result<SoiResult>> results(
      queries.size(),
      Result<SoiResult>(Status::Internal(
          "query not evaluated: batch aborted before this entry ran")));
  try {
    // Dynamic work-grabbing (not static chunking): per-query cost is
    // wildly uneven — a cold eps build can take orders of magnitude
    // longer than a warm-cache query — and a static chunk containing
    // one slow query serializes every query behind it in that chunk.
    // Each entry writes only results[i], so the timing-dependent claim
    // order cannot affect the (bit-identical) per-query results.
    ParallelForDynamic(
        pool_.get(), 0, static_cast<int64_t>(queries.size()),
        [&](int64_t i) {
          size_t idx = static_cast<size_t>(i);
          if (leader[idx] != i) return;  // coalesced dup
          const CancellationToken& cancel =
              cancels.empty() ? options_.algorithm.cancel : cancels[idx];
          const std::vector<int64_t>& group = group_members[idx];
          if (group.size() == 1) {
            // No duplicates: the single-query path (admission inside).
            results[idx] = TryRun(queries[idx], cancel);
            return;
          }
          // Coalesced group: admission control is per *logical query* —
          // each duplicate occupies one in-flight slot for the duration
          // of the shared evaluation, exactly as if it had been submitted
          // alone. Slots are claimed in input order; a member that finds
          // the engine full is shed individually (and gives its slot back
          // once every member has claimed) while admitted members still
          // share the one evaluation.
          std::vector<Status> admission(group.size());
          for (Status& status : admission) status = ClaimInflightSlot();
          int64_t num_admitted =
              std::count_if(admission.begin(), admission.end(),
                            [](const Status& status) { return status.ok(); });
          inflight_.fetch_sub(static_cast<int64_t>(group.size()) - num_admitted,
                              std::memory_order_relaxed);
          std::optional<Result<SoiResult>> eval;
          if (num_admitted > 0) {
            InflightGuard release(&inflight_, num_admitted);
            eval = TryRunCounted(queries[idx], cancel, /*preadmitted=*/true);
          }
          for (size_t g = 0; g < group.size(); ++g) {
            results[static_cast<size_t>(group[g])] =
                admission[g].ok() ? *eval : Result<SoiResult>(admission[g]);
          }
        });
  } catch (const std::exception&) {
    // Only reachable when an injected "pool.run_chunk" fault hits the
    // batch's own outer loop: TryRun itself never throws. The loop's
    // unevaluated entries keep their placeholder Internal status;
    // entries evaluated by sibling participants are unaffected.
  }
  // Flight records for the coalesced duplicates. The group lambda
  // already assigned every member's result (the shared evaluation, or a
  // per-member shed status; a group aborted by a pool fault leaves all
  // its members on the placeholder). Each duplicate gets its own record
  // — marked coalesced, carrying the phase stats of the evaluation that
  // served it but no wall time of its own.
  for (size_t i = 0; i < queries.size(); ++i) {
    if (leader[i] == static_cast<int64_t>(i)) continue;
    obs::QueryRecord record = MakeQueryRecord(queries[i]);
    record.coalesced = true;
    record.status =
        results[i].ok() ? StatusCode::kOk : results[i].status().code();
    if (results[i].ok()) {
      FillRecordFromStats(results[i].ValueOrDie().stats, &record);
    }
    SOI_OBS_FLIGHT_RECORD(record);
  }
  SOI_OBS_HISTOGRAM_OBSERVE("soi.engine.batch_seconds",
                            timer.ElapsedSeconds());
  return results;
}

size_t QueryEngine::cache_size() const {
  // Test/diagnostic hook. Must count in-flight entries too, so it reads
  // cache_ (not the completed-only hit snapshot); the critical section
  // is a single size() read.
  MutexLock lock(cache_mutex_);
  return cache_.size();
}

QueryEngine::CacheStats QueryEngine::cache_stats() const {
  CacheStats stats;
  stats.hits = cache_hits_.load(std::memory_order_relaxed);
  stats.misses = cache_misses_.load(std::memory_order_relaxed);
  stats.evictions = cache_evictions_.load(std::memory_order_relaxed);
  return stats;
}

std::string QueryEngine::MetricsJson() const {
  CacheStats cache = cache_stats();
  std::ostringstream out;
  JsonWriter json(&out);
  json.BeginObject();
  json.Key("cache");
  json.BeginObject();
  json.KeyValue("hits", cache.hits);
  json.KeyValue("misses", cache.misses);
  json.KeyValue("evictions", cache.evictions);
  json.KeyValue("hit_rate", cache.HitRate());
  json.EndObject();
  json.KeyValue("num_threads", static_cast<int64_t>(num_threads()));
  json.Key("registry");
  obs::WriteMetricsJson(obs::Registry::Global().Snapshot(), &json);
  json.EndObject();
  return out.str();
}

}  // namespace soi
