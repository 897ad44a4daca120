#include "ingest/live_world.h"

#include <algorithm>
#include <cmath>
#include <unordered_map>
#include <utility>

#include "common/check.h"
#include "common/fault_injection.h"
#include "common/stopwatch.h"
#include "common/thread_pool.h"
#include "obs/obs.h"
#include "snapshot/snapshot.h"

namespace soi {
namespace ingest {

LiveWorld::LiveWorld(Dataset dataset, double cell_size,
                     LiveWorldOptions options)
    : base_dataset_(std::make_unique<Dataset>(std::move(dataset))),
      base_indexes_(BuildIndexes(*base_dataset_, cell_size, options.pool)),
      cell_size_(cell_size),
      options_(options) {
  SOI_CHECK(cell_size > 0.0) << "cell_size must be positive";
  live_pois_count_.store(static_cast<int64_t>(base_dataset_->pois.size()),
                         std::memory_order_relaxed);
  live_photos_count_.store(
      static_cast<int64_t>(base_dataset_->photos.size()),
      std::memory_order_relaxed);
  {
    MutexLock lock(mutex_);
    photo_base_size_ = base_dataset_->photos.size();
    auto snapshot = std::make_shared<PoiEpochSnapshot>();
    snapshot->epoch = 0;
    snapshot->grid = &base_indexes_->poi_grid;
    snapshot->global = &base_indexes_->global_index;
    PublishLocked(std::move(snapshot));
  }
  if (options_.auto_compact_ops > 0) {
    compactor_ = std::thread([this] { CompactorLoop(); });
  }
}

LiveWorld::~LiveWorld() {
  if (compactor_.joinable()) {
    {
      MutexLock lock(mutex_);
      stop_compactor_ = true;
    }
    compact_cv_.NotifyAll();
    compactor_.join();
  }
}

std::shared_ptr<const PoiEpochSnapshot> LiveWorld::Pin() const {
  return snapshot_.Read([](const auto* current) { return *current; });
}

void LiveWorld::PublishLocked(
    std::shared_ptr<const PoiEpochSnapshot> snapshot) {
  snapshot_.Publish(
      std::make_unique<const std::shared_ptr<const PoiEpochSnapshot>>(
          std::move(snapshot)));
}

const PoiGridIndex& LiveWorld::CurrentGridLocked() const {
  return arena_ != nullptr ? *arena_->grid : base_indexes_->poi_grid;
}

const GlobalInvertedIndex& LiveWorld::CurrentGlobalLocked() const {
  return arena_ != nullptr ? *arena_->global
                           : base_indexes_->global_index;
}

Status LiveWorld::ValidateBatchLocked(const UpdateBatch& batch) const {
  const GridGeometry& geometry = base_indexes_->geometry;
  const int64_t num_keywords = base_dataset_->vocabulary.size();
  auto check_position = [&](const Point& p,
                            const char* what) -> Status {
    if (!std::isfinite(p.x) || !std::isfinite(p.y)) {
      return Status::InvalidArgument(std::string(what) +
                                     " has a non-finite position");
    }
    if (!geometry.bounds().Contains(p)) {
      return Status::InvalidArgument(
          std::string(what) +
          " lies outside the world's fixed grid bounds (the geometry is "
          "fixed at construction; out-of-bounds inserts are rejected)");
    }
    return Status::OK();
  };
  auto check_keywords = [&](const KeywordSet& keywords,
                            const char* what) -> Status {
    for (KeywordId id : keywords.ids()) {
      if (id < 0 || id >= num_keywords) {
        return Status::InvalidArgument(
            std::string(what) + " carries unknown keyword id " +
            std::to_string(id));
      }
    }
    return Status::OK();
  };

  for (const Poi& poi : batch.poi_inserts) {
    SOI_RETURN_NOT_OK(check_position(poi.position, "POI insert"));
    if (!std::isfinite(poi.weight) || poi.weight <= 0.0) {
      return Status::InvalidArgument(
          "POI insert weight must be finite and positive");
    }
    if (poi.keywords.empty()) {
      return Status::InvalidArgument(
          "POI insert must carry at least one keyword");
    }
    SOI_RETURN_NOT_OK(check_keywords(poi.keywords, "POI insert"));
  }

  const size_t base_size = CurrentGridLocked().pois().size();
  const size_t num_added =
      overlay_ != nullptr ? overlay_->added->size() : 0;
  std::unordered_set<PoiId> batch_deletes;
  for (PoiId id : batch.poi_deletes) {
    if (id < 0 || static_cast<size_t>(id) >= base_size + num_added) {
      return Status::InvalidArgument("POI delete names unknown id " +
                                     std::to_string(id));
    }
    if (overlay_ != nullptr && overlay_->deleted->count(id) > 0) {
      return Status::InvalidArgument("POI delete names already-deleted id " +
                                     std::to_string(id));
    }
    if (!batch_deletes.insert(id).second) {
      return Status::InvalidArgument("POI delete repeats id " +
                                     std::to_string(id) +
                                     " within one batch");
    }
  }

  for (const Photo& photo : batch.photo_inserts) {
    SOI_RETURN_NOT_OK(check_position(photo.position, "photo insert"));
    SOI_RETURN_NOT_OK(check_keywords(photo.keywords, "photo insert"));
  }
  const size_t photo_total = photo_base_size_ + photos_added_.size();
  std::unordered_set<PhotoId> photo_batch_deletes;
  for (PhotoId id : batch.photo_deletes) {
    if (id < 0 || static_cast<size_t>(id) >= photo_total) {
      return Status::InvalidArgument("photo delete names unknown id " +
                                     std::to_string(id));
    }
    if (photos_deleted_.count(id) > 0) {
      return Status::InvalidArgument(
          "photo delete names already-deleted id " + std::to_string(id));
    }
    if (!photo_batch_deletes.insert(id).second) {
      return Status::InvalidArgument("photo delete repeats id " +
                                     std::to_string(id) +
                                     " within one batch");
    }
  }
  return Status::OK();
}

Status LiveWorld::ApplyBatch(const UpdateBatch& batch) {
  if (batch.empty()) return Status::OK();
  MutexLock lock(mutex_);
  SOI_RETURN_NOT_OK(ValidateBatchLocked(batch));
  SOI_TRACE_SPAN("ingest.apply_batch");

  const PoiGridIndex& grid = CurrentGridLocked();
  const GlobalInvertedIndex& global = CurrentGlobalLocked();
  const GridGeometry& geometry = base_indexes_->geometry;
  const PoiDeltaOverlay* prev = overlay_.get();
  const size_t base_size = grid.pois().size();
  SOI_DCHECK(prev == nullptr || prev->base_size == base_size);

  // --- build the next epoch's overlay entirely in locals; nothing below
  // touches member state until the commit block after the fault point,
  // so a failure (including an injected one) publishes nothing. --------

  auto added = std::make_shared<std::vector<Poi>>(
      prev != nullptr ? *prev->added : std::vector<Poi>());
  auto deleted = std::make_shared<std::unordered_set<PoiId>>(
      prev != nullptr ? *prev->deleted : std::unordered_set<PoiId>());
  const PoiId first_new_id =
      static_cast<PoiId>(base_size + added->size());
  added->insert(added->end(), batch.poi_inserts.begin(),
                batch.poi_inserts.end());
  std::unordered_set<PoiId> batch_deleted(batch.poi_deletes.begin(),
                                          batch.poi_deletes.end());
  deleted->insert(batch_deleted.begin(), batch_deleted.end());

  auto poi_at = [&](PoiId id) -> const Poi& {
    return static_cast<size_t>(id) < base_size
               ? grid.pois()[static_cast<size_t>(id)]
               : (*added)[static_cast<size_t>(id) - base_size];
  };
  // The previous epoch's read surface, for effective-cell/row lookups.
  const LivePoiView prev_view(grid, global, prev);

  // Cells whose bucket changes this batch.
  std::unordered_set<CellId> affected;
  for (const Poi& poi : batch.poi_inserts) {
    affected.insert(geometry.CellOf(poi.position));
  }
  for (PoiId id : batch.poi_deletes) {
    affected.insert(geometry.CellOf(poi_at(id).position));
  }

  // Rematerialize every affected cell: survivors of the previous
  // effective cell in ascending id order, then this batch's inserts in
  // insert order (their ids are larger than every earlier id, so the
  // concatenation stays sorted — the cold-rebuild id order).
  std::unordered_map<CellId, std::shared_ptr<const PoiGridIndex::Cell>>
      new_cells = prev != nullptr ? prev->cells : decltype(new_cells)();
  // keyword -> affected cells carrying it before or after this batch.
  std::unordered_map<KeywordId, std::vector<CellId>> dirty_rows;
  for (CellId cell : affected) {
    const PoiGridIndex::Cell* old_cell = prev_view.FindCell(cell);
    auto replacement = std::make_shared<PoiGridIndex::Cell>();
    if (old_cell != nullptr) {
      for (PoiId id : old_cell->pois) {
        if (batch_deleted.count(id) == 0) {
          replacement->pois.push_back(id);
        }
      }
      for (const auto& [keyword, postings] : old_cell->postings) {
        (void)postings;
        dirty_rows[keyword].push_back(cell);
      }
    }
    for (size_t i = 0; i < batch.poi_inserts.size(); ++i) {
      if (geometry.CellOf(batch.poi_inserts[i].position) == cell) {
        replacement->pois.push_back(first_new_id +
                                    static_cast<PoiId>(i));
      }
    }
    for (PoiId id : replacement->pois) {
      for (KeywordId keyword : poi_at(id).keywords.ids()) {
        std::vector<PoiId>& postings = replacement->postings[keyword];
        if (postings.empty() && (old_cell == nullptr ||
                                 old_cell->postings.count(keyword) == 0)) {
          // Keyword newly present in this cell: its row is dirty too
          // (cells already carrying it were queued above).
          dirty_rows[keyword].push_back(cell);
        }
        postings.push_back(id);
      }
    }
    new_cells[cell] = std::move(replacement);
  }

  // Rebuild every dirty global-index row from the previous effective
  // row: affected cells get fully recomputed entries (count and weight
  // summed over the replacement postings in ascending id order — the
  // cold-rebuild operand order), untouched entries keep their previous
  // bits, and the canonical re-sort makes the sequence a pure function
  // of the entry set.
  std::unordered_map<
      KeywordId,
      std::shared_ptr<const std::vector<GlobalInvertedIndex::Entry>>>
      new_rows = prev != nullptr ? prev->rows : decltype(new_rows)();
  for (auto& [keyword, cells_of_keyword] : dirty_rows) {
    Span<GlobalInvertedIndex::Entry> old_row = prev_view.Entries(keyword);
    std::vector<GlobalInvertedIndex::Entry> row(old_row.begin(),
                                                old_row.end());
    // A cell can appear twice in cells_of_keyword (old and new posting
    // both present); the recomputation is idempotent, so duplicates are
    // harmless.
    for (CellId cell : cells_of_keyword) {
      auto replacement = new_cells.find(cell);
      SOI_DCHECK(replacement != new_cells.end());
      auto entry_it =
          std::find_if(row.begin(), row.end(),
                       [cell](const GlobalInvertedIndex::Entry& e) {
                         return e.cell == cell;
                       });
      auto postings_it = replacement->second->postings.find(keyword);
      if (postings_it == replacement->second->postings.end() ||
          postings_it->second.empty()) {
        if (entry_it != row.end()) row.erase(entry_it);
        continue;
      }
      double weight = 0.0;
      for (PoiId id : postings_it->second) weight += poi_at(id).weight;
      GlobalInvertedIndex::Entry entry{
          cell, static_cast<int64_t>(postings_it->second.size()), weight};
      if (entry_it != row.end()) {
        *entry_it = entry;
      } else {
        row.push_back(entry);
      }
    }
    GlobalInvertedIndex::SortByWeightDesc(&row);
    new_rows[keyword] =
        std::make_shared<const std::vector<GlobalInvertedIndex::Entry>>(
            std::move(row));
  }

  const int64_t num_live =
      (prev != nullptr ? prev->num_live_pois
                       : static_cast<int64_t>(base_size)) +
      static_cast<int64_t>(batch.poi_inserts.size()) -
      static_cast<int64_t>(batch.poi_deletes.size());

  // The only failure point past validation. Everything above lives in
  // locals: a fired fault unwinds with no member touched, no epoch
  // published, readers unaffected.
  try {
    SOI_FAULT_POINT("ingest.apply_delta");
  } catch (const fault::FaultInjectedError& e) {
    SOI_OBS_COUNTER_ADD("soi.ingest.apply_failures", 1);
    return Status::Internal(std::string(e.what()) +
                            ": batch discarded, no epoch published");
  }

  // --- commit + publish ----------------------------------------------
  auto overlay = std::make_shared<PoiDeltaOverlay>();
  overlay->base_size = base_size;
  overlay->added = std::move(added);
  overlay->deleted = std::move(deleted);
  overlay->cells = std::move(new_cells);
  overlay->rows = std::move(new_rows);
  overlay->num_live_pois = num_live;
  overlay_ = std::move(overlay);

  photos_added_.insert(photos_added_.end(), batch.photo_inserts.begin(),
                       batch.photo_inserts.end());
  photos_deleted_.insert(batch.photo_deletes.begin(),
                         batch.photo_deletes.end());

  ++epoch_;
  auto snapshot = std::make_shared<PoiEpochSnapshot>();
  snapshot->epoch = epoch_;
  snapshot->grid = &grid;
  snapshot->global = &global;
  snapshot->overlay = overlay_;
  snapshot->retain = arena_;
  PublishLocked(std::move(snapshot));

  published_epoch_.store(epoch_, std::memory_order_relaxed);
  applied_ops_count_.fetch_add(static_cast<uint64_t>(batch.num_ops()),
                               std::memory_order_relaxed);
  live_pois_count_.store(num_live, std::memory_order_relaxed);
  live_photos_count_.fetch_add(
      static_cast<int64_t>(batch.photo_inserts.size()) -
          static_cast<int64_t>(batch.photo_deletes.size()),
      std::memory_order_relaxed);
  ops_since_compact_ += batch.num_ops();

  SOI_OBS_COUNTER_ADD("soi.ingest.batches", 1);
  SOI_OBS_COUNTER_ADD("soi.ingest.poi_inserts",
                      static_cast<int64_t>(batch.poi_inserts.size()));
  SOI_OBS_COUNTER_ADD("soi.ingest.poi_deletes",
                      static_cast<int64_t>(batch.poi_deletes.size()));
  SOI_OBS_COUNTER_ADD("soi.ingest.photo_inserts",
                      static_cast<int64_t>(batch.photo_inserts.size()));
  SOI_OBS_COUNTER_ADD("soi.ingest.photo_deletes",
                      static_cast<int64_t>(batch.photo_deletes.size()));
  SOI_OBS_GAUGE_SET("soi.ingest.epoch", static_cast<int64_t>(epoch_));
  SOI_OBS_GAUGE_SET("soi.ingest.overlay_cells",
                    static_cast<int64_t>(overlay_->cells.size()));

  if (options_.auto_compact_ops > 0 &&
      ops_since_compact_ >= options_.auto_compact_ops) {
    compact_cv_.NotifyAll();
  }
  return Status::OK();
}

Dataset LiveWorld::MaterializeLiveDatasetLocked() const {
  const Dataset& current =
      arena_ != nullptr ? arena_->dataset : *base_dataset_;
  Dataset out;
  out.name = current.name;
  out.vocabulary = current.vocabulary;
  out.network = current.network;
  // The planted ground truth describes the original dataset; a mutated
  // world has none (mirroring LoadDataset).

  const PoiGridIndex& grid = CurrentGridLocked();
  if (overlay_ == nullptr) {
    out.pois = grid.pois();
  } else {
    out.pois.reserve(static_cast<size_t>(overlay_->num_live_pois));
    for (size_t id = 0; id < overlay_->base_size; ++id) {
      if (overlay_->deleted->count(static_cast<PoiId>(id)) == 0) {
        out.pois.push_back(grid.pois()[id]);
      }
    }
    for (size_t i = 0; i < overlay_->added->size(); ++i) {
      PoiId id = static_cast<PoiId>(overlay_->base_size + i);
      if (overlay_->deleted->count(id) == 0) {
        out.pois.push_back((*overlay_->added)[i]);
      }
    }
  }

  out.photos.reserve(photo_base_size_ + photos_added_.size());
  for (size_t id = 0; id < photo_base_size_; ++id) {
    if (photos_deleted_.count(static_cast<PhotoId>(id)) == 0) {
      out.photos.push_back(current.photos[id]);
    }
  }
  for (size_t i = 0; i < photos_added_.size(); ++i) {
    PhotoId id = static_cast<PhotoId>(photo_base_size_ + i);
    if (photos_deleted_.count(id) == 0) {
      out.photos.push_back(photos_added_[i]);
    }
  }
  return out;
}

Dataset LiveWorld::MaterializeLiveDataset() const {
  MutexLock lock(mutex_);
  return MaterializeLiveDatasetLocked();
}

Status LiveWorld::Compact() {
  MutexLock lock(mutex_);
  return CompactLocked();
}

Status LiveWorld::CompactLocked() {
  if (overlay_ == nullptr && photos_added_.empty() &&
      photos_deleted_.empty()) {
    return Status::OK();  // already compact
  }
  SOI_TRACE_SPAN("ingest.compact");
  Stopwatch timer;

  // Build the next generation entirely off to the side: the live
  // dataset densely renumbered in live-id order, indexed on the fixed
  // base geometry (NOT BuildIndexes' derived bounds — the geometry is
  // invariant for the world's lifetime so pinned eps maps stay valid).
  auto arena = std::make_shared<Arena>();
  arena->dataset = MaterializeLiveDatasetLocked();
  arena->grid = std::make_unique<PoiGridIndex>(
      base_indexes_->geometry.bounds(), cell_size_, arena->dataset.pois);
  arena->global = std::make_unique<GlobalInvertedIndex>(*arena->grid);

  // The only failure point: a fired fault discards the arena locals —
  // nothing published, the overlay intact for a retry, readers still on
  // the old epoch.
  try {
    SOI_FAULT_POINT("ingest.compact");
  } catch (const fault::FaultInjectedError& e) {
    SOI_OBS_COUNTER_ADD("soi.ingest.compact_failures", 1);
    return Status::Internal(std::string(e.what()) +
                            ": compaction aborted, no epoch published");
  }

  arena_ = std::move(arena);
  overlay_.reset();
  photos_added_.clear();
  photos_deleted_.clear();
  photo_base_size_ = arena_->dataset.photos.size();

  ++epoch_;
  auto snapshot = std::make_shared<PoiEpochSnapshot>();
  snapshot->epoch = epoch_;
  snapshot->grid = arena_->grid.get();
  snapshot->global = arena_->global.get();
  snapshot->retain = arena_;
  PublishLocked(std::move(snapshot));

  published_epoch_.store(epoch_, std::memory_order_relaxed);
  ops_since_compact_ = 0;
  SOI_OBS_COUNTER_ADD("soi.ingest.compactions", 1);
  SOI_OBS_HISTOGRAM_OBSERVE("soi.ingest.compact_seconds",
                            timer.ElapsedSeconds());
  SOI_OBS_GAUGE_SET("soi.ingest.epoch", static_cast<int64_t>(epoch_));
  SOI_OBS_GAUGE_SET("soi.ingest.overlay_cells", 0);
  return Status::OK();
}

Status LiveWorld::Save(const std::string& path) {
  MutexLock lock(mutex_);
  SOI_RETURN_NOT_OK(CompactLocked());

  const Dataset& dataset =
      arena_ != nullptr ? arena_->dataset : *base_dataset_;
  // The snapshot writer wants a full DatasetIndexes. Rebuild one over
  // the compacted dataset on the fixed geometry (segment_cells and the
  // photo grid are not kept per-generation; the POI indexes are rebuilt
  // rather than moved out of the shared arena).
  GridGeometry geometry = base_indexes_->geometry;
  std::vector<Point> photo_positions;
  photo_positions.reserve(dataset.photos.size());
  for (const Photo& photo : dataset.photos) {
    photo_positions.push_back(photo.position);
  }
  PoiGridIndex poi_grid(geometry.bounds(), cell_size_, dataset.pois);
  GlobalInvertedIndex global_index(poi_grid);
  SegmentCellIndex segment_cells(dataset.network, geometry,
                                 options_.pool);
  PointGrid<PhotoId> photo_grid(geometry, photo_positions);
  DatasetIndexes indexes{std::move(geometry), std::move(poi_grid),
                         std::move(global_index),
                         std::move(segment_cells),
                         std::move(photo_grid)};

  SnapshotContents contents;
  contents.dataset = &dataset;
  contents.indexes = &indexes;
  contents.ingest_epoch = epoch_;
  contents.ingest_applied_ops =
      applied_ops_count_.load(std::memory_order_relaxed);
  return SaveSnapshotToFile(contents, path);
}

void LiveWorld::CompactorLoop() {
  MutexLock lock(mutex_);
  while (true) {
    while (!stop_compactor_ &&
           ops_since_compact_ < options_.auto_compact_ops) {
      compact_cv_.Wait(mutex_);
    }
    if (stop_compactor_) return;
    Status status = CompactLocked();
    if (!status.ok() && !stop_compactor_) {
      // Injected compaction fault: the overlay (and the trigger
      // condition) persists, so back off instead of spinning; the next
      // notify or the timeout retries.
      compact_cv_.WaitFor(mutex_, 0.05);
    }
  }
}

}  // namespace ingest
}  // namespace soi
