#ifndef SOI_INGEST_LIVE_WORLD_H_
#define SOI_INGEST_LIVE_WORLD_H_

#include <atomic>
#include <cstdint>
#include <memory>
#include <string>
#include <thread>
#include <unordered_set>
#include <vector>

#include "common/mutex.h"
#include "common/rcu.h"
#include "common/status.h"
#include "common/thread_annotations.h"
#include "datagen/dataset.h"
#include "grid/live_poi_view.h"
#include "grid/poi_overlay.h"
#include "objects/photo.h"
#include "objects/poi.h"

namespace soi {

class ThreadPool;

namespace ingest {

/// One atomically-applied set of updates. POI deletes name live POI ids
/// (base ids, or ids returned by earlier batches' inserts); a batch
/// cannot delete a POI it inserts itself — its ids are assigned during
/// application. Photo updates are symmetric. An invalid batch is
/// rejected whole: validation runs before any state is touched, so a
/// kInvalidArgument batch has no effect on any epoch.
struct UpdateBatch {
  std::vector<Poi> poi_inserts;
  std::vector<PoiId> poi_deletes;
  std::vector<Photo> photo_inserts;
  std::vector<PhotoId> photo_deletes;

  bool empty() const {
    return poi_inserts.empty() && poi_deletes.empty() &&
           photo_inserts.empty() && photo_deletes.empty();
  }
  int64_t num_ops() const {
    return static_cast<int64_t>(poi_inserts.size() + poi_deletes.size() +
                                photo_inserts.size() +
                                photo_deletes.size());
  }
};

struct LiveWorldOptions {
  /// Parallelizes index builds (base construction, compaction,
  /// snapshot save). Not owned; may be null. The world's writer mutex
  /// (rank kRankIngest) is held while builders submit pool work, which
  /// the rank ladder permits (kRankIngest < kRankThreadPool).
  ThreadPool* pool = nullptr;

  /// When > 0, a background compactor thread folds the overlay into a
  /// fresh arena whenever at least this many ops have been applied
  /// since the last compaction. 0 (default) = manual Compact() only.
  int64_t auto_compact_ops = 0;
};

/// The incremental-update subsystem (DESIGN.md "Ingest & epochs"): owns
/// one dataset plus its index suite and accepts POI/photo insert/delete
/// batches on top of the flat CSR indexes, without ever blocking
/// readers.
///
/// Update model — epochs over immutable state:
///  - ApplyBatch validates the whole batch, builds a fresh
///    PoiDeltaOverlay (copy-on-write; untouched cells/rows shared with
///    the previous epoch), and publishes a new PoiEpochSnapshot
///    atomically. Failure (validation or an "ingest.apply_delta" fault)
///    publishes nothing.
///  - Compact() — or the background compactor — folds base + overlay
///    into a freshly built PoiGridIndex/GlobalInvertedIndex arena
///    (fixed base geometry, live ids renumbered densely in live-id
///    order) and republishes with a null overlay. A failed compaction
///    ("ingest.compact" fault) publishes nothing; readers stay on the
///    old epoch and the overlay remains intact for a retry.
///  - Pin() (the PoiEpochSource implementation QueryEngine reads
///    through) is wait-free and never blocks on the writer: the current
///    snapshot is a common/rcu.h Published value, republished under
///    the writer mutex, so a retired epoch is reclaimed only after
///    readers are observed quiescent.
///
/// Correctness bar (asserted by tests/ingest_test.cc): after any
/// interleaving of batches and compactions, queries over a pinned
/// current epoch are bit-identical to the same queries over indexes
/// cold-rebuilt from the live dataset on the world's fixed geometry.
/// The geometry is fixed at construction (derived from the initial
/// dataset, exactly as BuildIndexes does) for the world's lifetime;
/// inserts outside its bounds are rejected with kInvalidArgument.
///
/// Photos are not on the query read path, so they are delta-buffered in
/// the writer (visible through num_live_photos()) and materialized at
/// compaction / snapshot time only.
///
/// Thread-safe: ApplyBatch/Compact/Save serialize on the writer mutex;
/// Pin() and the accessors never take it.
class LiveWorld : public PoiEpochSource {
 public:
  /// Takes ownership of `dataset` and builds the base (epoch 0) index
  /// suite over it with cells of side `cell_size` (the BuildIndexes
  /// geometry). The base suite stays alive — at a stable address — for
  /// the world's lifetime, so QueryEngine can be constructed over
  /// base_indexes() and outlive any number of compactions.
  LiveWorld(Dataset dataset, double cell_size,
            LiveWorldOptions options = {});
  ~LiveWorld() override;

  LiveWorld(const LiveWorld&) = delete;
  LiveWorld& operator=(const LiveWorld&) = delete;

  /// Wait-free epoch pin (PoiEpochSource). The snapshot — and through
  /// it the overlay or compacted arena it references — stays valid
  /// until the returned shared_ptr is released.
  std::shared_ptr<const PoiEpochSnapshot> Pin() const override;

  /// Applies `batch` as one new epoch. kInvalidArgument (nothing
  /// applied) for out-of-bounds or non-finite positions, non-positive
  /// or non-finite weights, empty or out-of-vocabulary POI keyword
  /// sets, unknown/dead/duplicate delete ids; kInternal for an injected
  /// "ingest.apply_delta" fault. An empty batch is a no-op OK.
  [[nodiscard]] Status ApplyBatch(const UpdateBatch& batch);

  /// Folds the current overlay + photo deltas into a fresh arena and
  /// republishes (no-op OK when already compact). kInternal for an
  /// injected "ingest.compact" fault — in that case nothing is
  /// published and the overlay remains for a later retry.
  [[nodiscard]] Status Compact();

  /// Compacts, then writes the live dataset + freshly built index suite
  /// through the versioned snapshot format (src/snapshot), stamping the
  /// ingest meta fields (epoch, applied op count). The saved file
  /// round-trips through LoadSnapshot like any cold snapshot.
  [[nodiscard]] Status Save(const std::string& path);

  /// A deep copy of the current live dataset (live ids renumbered
  /// densely in live-id order — the compaction/cold-rebuild order).
  /// Test/diagnostic hook for bit-identity comparisons.
  Dataset MaterializeLiveDataset() const;

  // --- immutable base state (safe without the writer mutex) ----------
  const Dataset& base_dataset() const { return *base_dataset_; }
  const DatasetIndexes& base_indexes() const { return *base_indexes_; }
  const GridGeometry& geometry() const { return base_indexes_->geometry; }

  // --- monotone counters (relaxed atomics) ----------------------------
  uint64_t epoch() const {
    return published_epoch_.load(std::memory_order_relaxed);
  }
  uint64_t applied_ops() const {
    return applied_ops_count_.load(std::memory_order_relaxed);
  }
  int64_t num_live_pois() const {
    return live_pois_count_.load(std::memory_order_relaxed);
  }
  int64_t num_live_photos() const {
    return live_photos_count_.load(std::memory_order_relaxed);
  }

 private:
  /// A compacted generation: the live dataset (densely renumbered) and
  /// the indexes built over it on the fixed base geometry. Epoch
  /// snapshots keep their generation alive via shared_ptr (the
  /// snapshot's `retain`), so a compaction never invalidates pinned
  /// readers.
  struct Arena {
    Dataset dataset;
    std::unique_ptr<PoiGridIndex> grid;
    std::unique_ptr<GlobalInvertedIndex> global;
  };

  // Writer-side view of the current epoch (grid/global of the current
  // arena, or the base suite when arena_ is null).
  const PoiGridIndex& CurrentGridLocked() const SOI_REQUIRES(mutex_);
  const GlobalInvertedIndex& CurrentGlobalLocked() const
      SOI_REQUIRES(mutex_);

  Status ValidateBatchLocked(const UpdateBatch& batch) const
      SOI_REQUIRES(mutex_);
  Status CompactLocked() SOI_REQUIRES(mutex_);
  Dataset MaterializeLiveDatasetLocked() const SOI_REQUIRES(mutex_);
  void PublishLocked(std::shared_ptr<const PoiEpochSnapshot> snapshot)
      SOI_REQUIRES(mutex_);
  void CompactorLoop();

  // Immutable after construction.
  std::unique_ptr<Dataset> base_dataset_;
  std::unique_ptr<DatasetIndexes> base_indexes_;
  double cell_size_ = 0.0;
  LiveWorldOptions options_;

  // Writer mutex: serializes ApplyBatch/Compact/Save and guards every
  // writer-side field. Rank kRankIngest — held across index builds
  // that submit pool work (rank kRankThreadPool), never across any
  // other named lock.
  mutable Mutex mutex_{"ingest.LiveWorld.writer",
                       lock_graph::kRankIngest};
  CondVar compact_cv_;

  std::shared_ptr<const Arena> arena_ SOI_GUARDED_BY(mutex_);
  std::shared_ptr<const PoiDeltaOverlay> overlay_ SOI_GUARDED_BY(mutex_);
  // Photo deltas since the last compaction (photo live ids follow the
  // same base-then-appended scheme as POIs).
  std::vector<Photo> photos_added_ SOI_GUARDED_BY(mutex_);
  std::unordered_set<PhotoId> photos_deleted_ SOI_GUARDED_BY(mutex_);
  size_t photo_base_size_ SOI_GUARDED_BY(mutex_) = 0;
  uint64_t epoch_ SOI_GUARDED_BY(mutex_) = 0;
  int64_t ops_since_compact_ SOI_GUARDED_BY(mutex_) = 0;
  bool stop_compactor_ SOI_GUARDED_BY(mutex_) = false;

  // The current epoch, read by Pin(); published under mutex_ (see
  // PublishLocked).
  Published<std::shared_ptr<const PoiEpochSnapshot>> snapshot_;

  // Lock-free mirrors for the public accessors.
  std::atomic<uint64_t> published_epoch_{0};
  std::atomic<uint64_t> applied_ops_count_{0};
  std::atomic<int64_t> live_pois_count_{0};
  std::atomic<int64_t> live_photos_count_{0};

  std::thread compactor_;
};

}  // namespace ingest
}  // namespace soi

#endif  // SOI_INGEST_LIVE_WORLD_H_
