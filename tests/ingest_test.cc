// Property tests of the incremental-update subsystem (DESIGN.md
// "Ingest & epochs"): after ANY interleaving of update batches and
// compactions, queries over a pinned current epoch must be bit-identical
// to the same queries over indexes cold-rebuilt from the live dataset on
// the world's fixed geometry — the correctness bar of src/ingest. The
// suite also pins the RCU reader guarantees (old pins survive later
// epochs and compactions untouched), whole-batch validation atomicity,
// the background compactor, and the versioned snapshot round-trip of a
// compacted world.

#include <atomic>
#include <bit>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <limits>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "common/random.h"
#include "common/status.h"
#include "core/query_engine.h"
#include "core/soi_algorithm.h"
#include "datagen/dataset.h"
#include "grid/live_poi_view.h"
#include "gtest/gtest.h"
#include "ingest/live_world.h"
#include "snapshot/snapshot.h"
#include "test_util.h"

namespace soi {
namespace ingest {
namespace {

constexpr double kCellSize = 0.002;
constexpr int32_t kPoiVocab = 12;

/// The box RandomPois draws from; inserts stay inside it so they are
/// always within the world's fixed geometry.
Box PoiBox() {
  return Box::FromCorners(Point{-0.004, -0.004}, Point{0.044, 0.044});
}

Dataset MakeDataset(uint64_t seed, int64_t num_pois, int64_t num_photos) {
  Dataset dataset;
  dataset.name = "ingest-fixture";
  dataset.network = testing_util::MakeGridNetwork(5, 5, 0.01);
  Rng rng(seed);
  dataset.pois = testing_util::RandomPois(PoiBox(), num_pois, kPoiVocab,
                                          &dataset.vocabulary, &rng);
  dataset.photos = testing_util::RandomPhotos(PoiBox(), num_photos, 8,
                                              &dataset.vocabulary, &rng);
  return dataset;
}

/// The query mix every bit-identity check runs: eps / k / keyword shapes
/// covering single-keyword, overlapping, and multi-keyword queries over
/// the kw0..kw11 POI vocabulary.
std::vector<SoiQuery> MakeQueryPool() {
  std::vector<SoiQuery> pool;
  for (double eps : {0.001, 0.002, 0.004}) {
    for (int32_t k : {1, 5, 50}) {
      for (const std::vector<KeywordId>& ids :
           {std::vector<KeywordId>{0}, std::vector<KeywordId>{0, 1},
            std::vector<KeywordId>{2, 3, 5}}) {
        SoiQuery query;
        query.keywords = KeywordSet(ids);
        query.k = k;
        query.eps = eps;
        pool.push_back(std::move(query));
      }
    }
  }
  return pool;
}

void ExpectBitIdentical(const std::vector<RankedStreet>& got,
                        const std::vector<RankedStreet>& want,
                        const char* what) {
  ASSERT_EQ(got.size(), want.size()) << what;
  for (size_t i = 0; i < got.size(); ++i) {
    EXPECT_EQ(got[i].street, want[i].street) << what << " rank " << i;
    EXPECT_EQ(std::bit_cast<uint64_t>(got[i].interest),
              std::bit_cast<uint64_t>(want[i].interest))
        << what << " rank " << i;
    EXPECT_EQ(got[i].best_segment, want[i].best_segment)
        << what << " rank " << i;
  }
}

/// Runs the whole pool through `live` (epoch-pinned reads) and through a
/// cold rebuild of the world's current live dataset on the same fixed
/// geometry, and asserts every ranking is bit-identical — the ingest
/// correctness bar.
void ExpectMatchesColdRebuild(const LiveWorld& world, QueryEngine* live,
                              const std::vector<SoiQuery>& pool,
                              const char* what) {
  Dataset dataset = world.MaterializeLiveDataset();
  PoiGridIndex grid(world.geometry().bounds(), kCellSize, dataset.pois);
  GlobalInvertedIndex global(grid);
  // The network and segment<->cell maps are immutable for the world's
  // lifetime, so the base ones are exactly what a cold rebuild derives.
  QueryEngine cold(world.base_dataset().network, grid, global,
                   world.base_indexes().segment_cells);
  for (size_t q = 0; q < pool.size(); ++q) {
    Result<SoiResult> got = live->TryRun(pool[q]);
    Result<SoiResult> want = cold.TryRun(pool[q]);
    ASSERT_TRUE(got.ok()) << what << ": " << got.status().ToString();
    ASSERT_TRUE(want.ok()) << what << ": " << want.status().ToString();
    ExpectBitIdentical(got.ValueOrDie().streets,
                       want.ValueOrDie().streets, what);
  }
}

/// A live-reading engine over the world's stable base indexes.
std::unique_ptr<QueryEngine> MakeLiveEngine(const LiveWorld& world,
                                            int num_threads = 1) {
  QueryEngineOptions options;
  options.num_threads = num_threads;
  options.epoch_source = &world;
  return std::make_unique<QueryEngine>(
      world.base_dataset().network, world.base_indexes().poi_grid,
      world.base_indexes().global_index,
      world.base_indexes().segment_cells, options);
}

/// An insert inside `bounds` (the world's fixed geometry, which covers
/// the realized dataset — not the sampling box, which may overhang it),
/// pulled in by a small margin so edge rounding cannot escape.
Poi RandomInsert(Rng* rng, const Box& bounds) {
  double mx = bounds.Width() * 0.01;
  double my = bounds.Height() * 0.01;
  Poi poi;
  poi.position =
      Point{rng->UniformDouble(bounds.min.x + mx, bounds.max.x - mx),
            rng->UniformDouble(bounds.min.y + my, bounds.max.y - my)};
  std::vector<KeywordId> ids;
  int64_t count = rng->UniformInt(1, 3);
  for (int64_t c = 0; c < count; ++c) {
    ids.push_back(static_cast<KeywordId>(rng->UniformInt(0, kPoiVocab - 1)));
  }
  poi.keywords = KeywordSet(std::move(ids));
  poi.weight = rng->UniformDouble(0.5, 2.0);
  return poi;
}

TEST(IngestTest, EpochZeroIsBitIdenticalToTheStaticPath) {
  LiveWorld world(MakeDataset(21, 400, 60), kCellSize);
  EXPECT_EQ(world.epoch(), 0u);
  EXPECT_EQ(world.num_live_pois(), 400);
  EXPECT_EQ(world.num_live_photos(), 60);

  std::shared_ptr<const PoiEpochSnapshot> pin = world.Pin();
  ASSERT_NE(pin, nullptr);
  EXPECT_EQ(pin->epoch, 0u);
  EXPECT_EQ(pin->overlay, nullptr);
  EXPECT_EQ(pin->grid, &world.base_indexes().poi_grid);

  std::unique_ptr<QueryEngine> live = MakeLiveEngine(world);
  ExpectMatchesColdRebuild(world, live.get(), MakeQueryPool(), "epoch 0");
}

TEST(IngestTest, InsertsAndDeletesBecomeVisibleAndOldPinsDoNot) {
  LiveWorld world(MakeDataset(22, 300, 40), kCellSize);
  std::unique_ptr<QueryEngine> live = MakeLiveEngine(world);
  std::vector<SoiQuery> pool = MakeQueryPool();

  // Pin epoch 0 before any mutation; it must stay frozen below.
  std::shared_ptr<const PoiEpochSnapshot> old_pin = world.Pin();
  Result<SoiResult> before = live->TryRun(pool[4]);
  ASSERT_TRUE(before.ok());

  Rng rng(97);
  UpdateBatch batch;
  for (int i = 0; i < 25; ++i) {
    batch.poi_inserts.push_back(
        RandomInsert(&rng, world.geometry().bounds()));
  }
  for (PoiId id : {3, 17, 42, 118, 250}) batch.poi_deletes.push_back(id);
  Status applied = world.ApplyBatch(batch);
  ASSERT_TRUE(applied.ok()) << applied.ToString();
  EXPECT_EQ(world.epoch(), 1u);
  EXPECT_EQ(world.num_live_pois(), 300 + 25 - 5);
  EXPECT_EQ(world.applied_ops(), 30u);

  // The new epoch serves the mutated world, bit-identically to a cold
  // rebuild of it.
  ExpectMatchesColdRebuild(world, live.get(), pool, "after batch");

  // The old pin still reads epoch 0: same state, bit for bit.
  EXPECT_EQ(old_pin->epoch, 0u);
  EXPECT_EQ(old_pin->overlay, nullptr);
  LivePoiView old_view = old_pin->View();
  SoiAlgorithmOptions view_options;
  view_options.live_view = &old_view;
  SoiAlgorithm algorithm(world.base_dataset().network,
                         world.base_indexes().poi_grid,
                         world.base_indexes().global_index);
  EpsAugmentedMaps maps(world.base_indexes().segment_cells, pool[4].eps);
  Result<SoiResult> frozen = algorithm.TryTopK(pool[4], maps, view_options);
  ASSERT_TRUE(frozen.ok()) << frozen.status().ToString();
  ExpectBitIdentical(frozen.ValueOrDie().streets,
                     before.ValueOrDie().streets, "old pin");
}

TEST(IngestTest, InvalidBatchesAreRejectedWholeWithNoEpochChange) {
  LiveWorld world(MakeDataset(23, 200, 20), kCellSize);
  Rng rng(5);
  uint64_t epoch = world.epoch();
  int64_t live_pois = world.num_live_pois();
  uint64_t applied = world.applied_ops();

  auto expect_rejected = [&](const UpdateBatch& batch, const char* what) {
    Status status = world.ApplyBatch(batch);
    EXPECT_EQ(status.code(), StatusCode::kInvalidArgument) << what;
    EXPECT_EQ(world.epoch(), epoch) << what;
    EXPECT_EQ(world.num_live_pois(), live_pois) << what;
    EXPECT_EQ(world.applied_ops(), applied) << what;
  };

  {
    // A good insert riding with an out-of-bounds one: whole batch dies.
    UpdateBatch batch;
    batch.poi_inserts.push_back(
        RandomInsert(&rng, world.geometry().bounds()));
    Poi outside = RandomInsert(&rng, world.geometry().bounds());
    outside.position = Point{9.0, 9.0};
    batch.poi_inserts.push_back(outside);
    expect_rejected(batch, "out of bounds");
  }
  {
    UpdateBatch batch;
    Poi nan_pos = RandomInsert(&rng, world.geometry().bounds());
    nan_pos.position.x = std::numeric_limits<double>::quiet_NaN();
    batch.poi_inserts.push_back(nan_pos);
    expect_rejected(batch, "NaN position");
  }
  {
    UpdateBatch batch;
    Poi bad_weight = RandomInsert(&rng, world.geometry().bounds());
    bad_weight.weight = 0.0;
    batch.poi_inserts.push_back(bad_weight);
    expect_rejected(batch, "non-positive weight");
  }
  {
    UpdateBatch batch;
    Poi no_keywords = RandomInsert(&rng, world.geometry().bounds());
    no_keywords.keywords = KeywordSet();
    batch.poi_inserts.push_back(no_keywords);
    expect_rejected(batch, "empty keywords");
  }
  {
    UpdateBatch batch;
    Poi bad_keyword = RandomInsert(&rng, world.geometry().bounds());
    bad_keyword.keywords = KeywordSet({static_cast<KeywordId>(
        world.base_dataset().vocabulary.size() + 5)});
    batch.poi_inserts.push_back(bad_keyword);
    expect_rejected(batch, "out-of-vocabulary keyword");
  }
  {
    UpdateBatch batch;
    batch.poi_deletes = {5, 5};
    expect_rejected(batch, "duplicate delete");
  }
  {
    UpdateBatch batch;
    batch.poi_deletes = {100000};
    expect_rejected(batch, "unknown delete id");
  }
  {
    // Deleting a dead POI: kill id 7 for real first.
    UpdateBatch kill;
    kill.poi_deletes = {7};
    ASSERT_TRUE(world.ApplyBatch(kill).ok());
    epoch = world.epoch();
    live_pois = world.num_live_pois();
    applied = world.applied_ops();
    UpdateBatch batch;
    batch.poi_deletes = {7};
    expect_rejected(batch, "already-deleted id");
  }
  {
    UpdateBatch batch;
    batch.photo_deletes = {100000};
    expect_rejected(batch, "unknown photo delete id");
  }

  // An empty batch is a no-op OK, not a new epoch.
  EXPECT_TRUE(world.ApplyBatch(UpdateBatch{}).ok());
  EXPECT_EQ(world.epoch(), epoch);
}

TEST(IngestTest, SequentialBatchesStayBitIdenticalThroughCompaction) {
  LiveWorld world(MakeDataset(24, 350, 50), kCellSize);
  std::unique_ptr<QueryEngine> live = MakeLiveEngine(world);
  std::vector<SoiQuery> pool = MakeQueryPool();
  Rng rng(4242);

  // Local mirror of the live-id space: alive ids, and the next id an
  // insert receives. Compaction renumbers densely in live-id order.
  std::vector<PoiId> alive(350);
  for (size_t i = 0; i < alive.size(); ++i) {
    alive[i] = static_cast<PoiId>(i);
  }
  PoiId next_id = 350;

  for (int step = 0; step < 8; ++step) {
    UpdateBatch batch;
    int64_t inserts = rng.UniformInt(0, 12);
    for (int64_t i = 0; i < inserts; ++i) {
      batch.poi_inserts.push_back(
          RandomInsert(&rng, world.geometry().bounds()));
    }
    int64_t deletes = rng.UniformInt(0, 6);
    for (int64_t d = 0; d < deletes && !alive.empty(); ++d) {
      size_t pick = static_cast<size_t>(
          rng.UniformInt(0, static_cast<int64_t>(alive.size()) - 1));
      batch.poi_deletes.push_back(alive[pick]);
      alive.erase(alive.begin() + static_cast<int64_t>(pick));
    }
    if (rng.UniformInt(0, 3) == 0) {
      Photo photo;
      photo.position = Point{0.01, 0.01};
      batch.photo_inserts.push_back(std::move(photo));
    }
    ASSERT_TRUE(world.ApplyBatch(batch).ok()) << "step " << step;
    for (size_t i = 0; i < batch.poi_inserts.size(); ++i) {
      alive.push_back(next_id++);
    }
    ASSERT_EQ(world.num_live_pois(),
              static_cast<int64_t>(alive.size()));

    ExpectMatchesColdRebuild(world, live.get(), pool,
                             ("step " + std::to_string(step)).c_str());

    if (step == 3 || step == 6) {
      ASSERT_TRUE(world.Compact().ok());
      EXPECT_EQ(world.Pin()->overlay, nullptr);
      // Ids renumber densely; the next insert continues from the top.
      for (size_t i = 0; i < alive.size(); ++i) {
        alive[i] = static_cast<PoiId>(i);
      }
      next_id = static_cast<PoiId>(alive.size());
      ExpectMatchesColdRebuild(world, live.get(), pool, "post-compact");
    }
  }
}

TEST(IngestTest, PinnedSnapshotSurvivesCompactionAndReclamation) {
  LiveWorld world(MakeDataset(25, 250, 30), kCellSize);
  Rng rng(77);
  UpdateBatch batch;
  for (int i = 0; i < 10; ++i) {
    batch.poi_inserts.push_back(
        RandomInsert(&rng, world.geometry().bounds()));
  }
  batch.poi_deletes = {1, 2, 3};
  ASSERT_TRUE(world.ApplyBatch(batch).ok());

  // Pin the overlay epoch, then compact twice (the second republish
  // reclaims retired holders); the pinned view must stay fully valid.
  std::shared_ptr<const PoiEpochSnapshot> pin = world.Pin();
  ASSERT_NE(pin->overlay, nullptr);
  uint64_t pinned_epoch = pin->epoch;

  ASSERT_TRUE(world.Compact().ok());
  UpdateBatch more;
  more.poi_inserts.push_back(RandomInsert(&rng, world.geometry().bounds()));
  ASSERT_TRUE(world.ApplyBatch(more).ok());
  ASSERT_TRUE(world.Compact().ok());

  EXPECT_EQ(pin->epoch, pinned_epoch);
  LivePoiView view = pin->View();
  // Walk every cell of the pinned epoch through the overlay merge; this
  // dereferences the overlay's replacement cells and the base arena.
  int64_t live_total = 0;
  for (CellId cell = 0; cell < world.geometry().num_cells(); ++cell) {
    live_total += view.NumPoisInCell(cell);
  }
  EXPECT_EQ(live_total, 250 + 10 - 3);

  // A released pin of the current epoch lives on only in the published
  // holder; two republishes retire that holder and free it.
  std::weak_ptr<const PoiEpochSnapshot> released = world.Pin();
  EXPECT_FALSE(released.expired());
  ASSERT_TRUE(world.ApplyBatch(more).ok());
  ASSERT_TRUE(world.Compact().ok());
  EXPECT_TRUE(released.expired()) << "a retired epoch was never reclaimed";
}

TEST(IngestTest, RandomizedInterleavingMatchesColdRebuildAtTheEnd) {
  LiveWorld world(MakeDataset(26, 400, 50), kCellSize);
  std::unique_ptr<QueryEngine> live = MakeLiveEngine(world, 2);
  std::vector<SoiQuery> pool = MakeQueryPool();

  std::atomic<bool> stop{false};
  std::atomic<int64_t> applied_batches{0};
  std::atomic<int64_t> query_failures{0};

  // Two writers race random batches; deletes may collide with each
  // other (or with compaction renumbering), which must surface as
  // whole-batch kInvalidArgument — never a partial application.
  std::vector<std::thread> writers;
  for (int w = 0; w < 2; ++w) {
    writers.emplace_back([&world, &applied_batches, w] {
      Rng rng(1000 + static_cast<uint64_t>(w));
      for (int step = 0; step < 30; ++step) {
        UpdateBatch batch;
        int64_t inserts = rng.UniformInt(1, 6);
        for (int64_t i = 0; i < inserts; ++i) {
          batch.poi_inserts.push_back(
              RandomInsert(&rng, world.geometry().bounds()));
        }
        if (rng.UniformInt(0, 1) == 0) {
          batch.poi_deletes.push_back(
              static_cast<PoiId>(rng.UniformInt(0, 399)));
        }
        Status status = world.ApplyBatch(batch);
        ASSERT_TRUE(status.ok() ||
                    status.code() == StatusCode::kInvalidArgument)
            << status.ToString();
        if (status.ok()) ++applied_batches;
      }
    });
  }
  // One compactor thread folding mid-flight.
  std::thread compactor([&world, &stop] {
    while (!stop.load(std::memory_order_acquire)) {
      ASSERT_TRUE(world.Compact().ok());
      std::this_thread::sleep_for(std::chrono::milliseconds(2));
    }
  });
  // Reader threads hammer the live engine; epochs change under them but
  // every query must still succeed (pinned-epoch consistency).
  std::vector<std::thread> readers;
  for (int r = 0; r < 2; ++r) {
    readers.emplace_back([&live, &pool, &stop, &query_failures, r] {
      size_t i = static_cast<size_t>(r);
      while (!stop.load(std::memory_order_acquire)) {
        Result<SoiResult> result = live->TryRun(pool[i++ % pool.size()]);
        if (!result.ok()) ++query_failures;
      }
    });
  }

  for (std::thread& writer : writers) writer.join();
  stop.store(true, std::memory_order_release);
  compactor.join();
  for (std::thread& reader : readers) reader.join();

  EXPECT_GT(applied_batches.load(), 0);
  EXPECT_EQ(query_failures.load(), 0);

  // The final state — after the dust settles and one more fold — is
  // bit-identical to a cold rebuild of the final dataset.
  ASSERT_TRUE(world.Compact().ok());
  ExpectMatchesColdRebuild(world, live.get(), pool, "final state");
  Dataset final_dataset = world.MaterializeLiveDataset();
  EXPECT_EQ(static_cast<int64_t>(final_dataset.pois.size()),
            world.num_live_pois());
  EXPECT_EQ(static_cast<int64_t>(final_dataset.photos.size()),
            world.num_live_photos());
}

TEST(IngestTest, BackgroundCompactorFoldsAfterTheOpThreshold) {
  LiveWorldOptions options;
  options.auto_compact_ops = 4;
  LiveWorld world(MakeDataset(27, 200, 20), kCellSize, options);
  Rng rng(31);

  UpdateBatch batch;
  for (int i = 0; i < 5; ++i) {
    batch.poi_inserts.push_back(
        RandomInsert(&rng, world.geometry().bounds()));
  }
  ASSERT_TRUE(world.ApplyBatch(batch).ok());

  // The compactor wakes on the threshold and republishes a null-overlay
  // epoch; poll with a generous deadline.
  auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(30);
  while (std::chrono::steady_clock::now() < deadline) {
    std::shared_ptr<const PoiEpochSnapshot> pin = world.Pin();
    if (pin->overlay == nullptr && pin->epoch >= 2) break;
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  std::shared_ptr<const PoiEpochSnapshot> pin = world.Pin();
  EXPECT_EQ(pin->overlay, nullptr);
  EXPECT_GE(pin->epoch, 2u);
  EXPECT_EQ(world.num_live_pois(), 205);
}

TEST(IngestTest, SaveRoundTripsThroughTheVersionedSnapshotFormat) {
  LiveWorld world(MakeDataset(28, 300, 40), kCellSize);
  std::unique_ptr<QueryEngine> live = MakeLiveEngine(world);
  std::vector<SoiQuery> pool = MakeQueryPool();
  Rng rng(88);

  UpdateBatch batch;
  for (int i = 0; i < 15; ++i) {
    batch.poi_inserts.push_back(
        RandomInsert(&rng, world.geometry().bounds()));
  }
  batch.poi_deletes = {10, 20, 30};
  Photo photo;
  photo.position = Point{0.02, 0.02};
  batch.photo_inserts.push_back(std::move(photo));
  batch.photo_deletes = {5};
  ASSERT_TRUE(world.ApplyBatch(batch).ok());

  std::string path = ::testing::TempDir() + "/soi_ingest_test.snap";
  ASSERT_TRUE(world.Save(path).ok());

  // Save compacts first, so the file records the post-fold epoch.
  Result<SnapshotInfo> info = InspectSnapshotFile(path);
  ASSERT_TRUE(info.ok()) << info.status().ToString();
  EXPECT_EQ(info.ValueOrDie().format_version, kSnapshotFormatVersion);
  EXPECT_EQ(info.ValueOrDie().ingest_epoch, world.epoch());
  EXPECT_EQ(info.ValueOrDie().ingest_applied_ops, world.applied_ops());
  EXPECT_EQ(info.ValueOrDie().num_pois,
            static_cast<uint64_t>(world.num_live_pois()));
  EXPECT_EQ(info.ValueOrDie().num_photos,
            static_cast<uint64_t>(world.num_live_photos()));

  Result<LoadedSnapshot> loaded = LoadSnapshotFromFile(path);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  const LoadedSnapshot& snap = loaded.ValueOrDie();
  EXPECT_EQ(snap.ingest_epoch, world.epoch());
  EXPECT_EQ(snap.ingest_applied_ops, world.applied_ops());

  // The restored dataset is the live dataset, id for id.
  Dataset materialized = world.MaterializeLiveDataset();
  ASSERT_EQ(snap.dataset->pois.size(), materialized.pois.size());
  for (size_t i = 0; i < materialized.pois.size(); ++i) {
    ASSERT_EQ(std::bit_cast<uint64_t>(snap.dataset->pois[i].position.x),
              std::bit_cast<uint64_t>(materialized.pois[i].position.x));
    ASSERT_EQ(std::bit_cast<uint64_t>(snap.dataset->pois[i].weight),
              std::bit_cast<uint64_t>(materialized.pois[i].weight));
    ASSERT_EQ(snap.dataset->pois[i].keywords.ids(),
              materialized.pois[i].keywords.ids());
  }
  ASSERT_EQ(snap.dataset->photos.size(), materialized.photos.size());

  // An engine warm-started over the restored indexes answers the pool
  // bit-identically to the live world.
  QueryEngine restored(snap.dataset->network, snap.indexes->poi_grid,
                       snap.indexes->global_index,
                       snap.indexes->segment_cells);
  for (const SoiQuery& query : pool) {
    Result<SoiResult> got = restored.TryRun(query);
    Result<SoiResult> want = live->TryRun(query);
    ASSERT_TRUE(got.ok());
    ASSERT_TRUE(want.ok());
    ExpectBitIdentical(got.ValueOrDie().streets,
                       want.ValueOrDie().streets, "restored snapshot");
  }
  std::remove(path.c_str());
}

}  // namespace
}  // namespace ingest
}  // namespace soi
