// ingest-mixed: one writer applies seeded POI insert/delete batches to a
// LiveWorld at a fixed batch rate while closed-loop readers query through
// the engine's epoch source. Reads go through LivePoiView overlays, and
// the background compactor (auto_compact_ops) folds the overlay several
// times per run — latency spikes a read-only workload never shows.

#include <algorithm>
#include <iostream>
#include <thread>

#include "common/random.h"
#include "common/thread_pool.h"
#include "datagen/city_profile.h"
#include "grid/global_inverted_index.h"
#include "grid/poi_grid_index.h"
#include "harness.h"
#include "ingest/live_world.h"

namespace soibench {
namespace {

using soi::ingest::LiveWorld;
using soi::ingest::UpdateBatch;

constexpr double kBatchRate = 25.0;  // batches per second
constexpr int kInsertsPerBatch = 8;
constexpr int kDeletesPerBatch = 8;
// A compaction every ~1.5 s of writes: each load point sees several, so
// how many land in one is not left to chance.
constexpr int64_t kAutoCompactOps = 600;
constexpr size_t kProbeQueries = 16;
// Ten samples beyond the write p95.
constexpr int64_t kWriteSamples = 200;

struct IngestState {
  std::unique_ptr<LiveWorld> world;
  std::unique_ptr<soi::QueryEngine> engine;  // destroyed before the world
};

/// The writer: a local mirror of the live-id space (ascending), so its
/// deletes always name live POIs. A batch that crosses kAutoCompactOps
/// makes the compactor renumber ids densely; the writer waits for that
/// epoch before building its next batch, then renumbers its mirror.
class Writer {
 public:
  Writer(LiveWorld* world, uint64_t seed, const soi::Dataset& dataset)
      : world_(world), rng_(seed, /*stream=*/0x77) {
    alive_.resize(static_cast<size_t>(world->num_live_pois()));
    for (size_t i = 0; i < alive_.size(); ++i) {
      alive_[i] = static_cast<soi::PoiId>(i);
    }
    next_id_ = static_cast<soi::PoiId>(alive_.size());
    for (const soi::CategorySpec& spec :
         soi::LondonProfile(kScale).categories) {
      categories_.push_back(dataset.vocabulary.Find(spec.keyword));
    }
  }

  void Run(const std::atomic<bool>& stop) {
    const Clock::time_point start = Clock::now();
    const soi::Box& bounds = world_->geometry().bounds();
    const double mx = bounds.Width() * 0.01;
    const double my = bounds.Height() * 0.01;
    for (int64_t b = 0; !stop.load(std::memory_order_relaxed); ++b) {
      std::this_thread::sleep_until(
          start + std::chrono::duration_cast<Clock::duration>(
                      std::chrono::duration<double>(b / kBatchRate)));
      UpdateBatch batch;
      for (int i = 0; i < kInsertsPerBatch; ++i) {
        soi::Poi poi;
        poi.position = soi::Point{
            rng_.UniformDouble(bounds.min.x + mx, bounds.max.x - mx),
            rng_.UniformDouble(bounds.min.y + my, bounds.max.y - my)};
        poi.keywords = soi::KeywordSet(
            {categories_[rng_.UniformInt(categories_.size())]});
        batch.poi_inserts.push_back(std::move(poi));
      }
      for (int i = 0; i < kDeletesPerBatch && !alive_.empty(); ++i) {
        size_t pick = static_cast<size_t>(rng_.UniformInt(alive_.size()));
        batch.poi_deletes.push_back(alive_[pick]);
        alive_.erase(alive_.begin() + static_cast<int64_t>(pick));
      }
      const uint64_t epoch_before = world_->epoch();
      const uint64_t request = NextRequestId();
      const Clock::time_point t0 = Clock::now();
      soi::Status applied;
      {
        ScopedSpan root("ingest_mixed.write", request);
        ScopedSpan span("ingest.apply_batch");
        applied = world_->ApplyBatch(batch);
      }
      const double ms = MillisBetween(t0, Clock::now());
      Tracer::Get().RecordWall(request, ms);
      apply_ms.Add(ms);
      ++batches;
      if (!applied.ok()) {
        CheckTyped(applied);
        ++failed;
        return;  // the mirror no longer matches the world
      }
      for (size_t i = 0; i < batch.poi_inserts.size(); ++i) {
        alive_.push_back(next_id_++);
      }
      std::shared_ptr<const soi::PoiEpochSnapshot> pin = world_->Pin();
      if (pin->overlay != nullptr) {
        overlay_cells_max = std::max<int64_t>(
            overlay_cells_max,
            static_cast<int64_t>(pin->overlay->cells.size()));
      }
      ops_since_compact_ += batch.num_ops();
      if (ops_since_compact_ >= kAutoCompactOps) {
        if (!AwaitCompaction(epoch_before + 2)) {
          ++failed;
          return;
        }
        for (size_t i = 0; i < alive_.size(); ++i) {
          alive_[i] = static_cast<soi::PoiId>(i);
        }
        next_id_ = static_cast<soi::PoiId>(alive_.size());
        ops_since_compact_ = 0;
      }
    }
  }

  Samples apply_ms;
  int64_t batches = 0;
  int64_t failed = 0;
  int64_t overlay_cells_max = 0;

 private:
  bool AwaitCompaction(uint64_t epoch) {
    const Clock::time_point give_up = Clock::now() + std::chrono::seconds(30);
    while (world_->epoch() < epoch) {
      if (Clock::now() > give_up) {
        std::cerr << "soibench: compaction did not publish epoch " << epoch
                  << "\n";
        return false;
      }
      std::this_thread::sleep_for(std::chrono::microseconds(200));
    }
    return true;
  }

  LiveWorld* world_;
  soi::Rng rng_;
  std::vector<soi::KeywordId> categories_;
  std::vector<soi::PoiId> alive_;
  soi::PoiId next_id_ = 0;
  int64_t ops_since_compact_ = 0;
};

/// Runs `run` (closed-loop readers) with the writer beside it.
template <typename T>
T WithWriter(Writer* writer, const std::function<T()>& run) {
  std::atomic<bool> stop{false};
  std::thread writer_thread([&] { writer->Run(stop); });
  T out = run();
  stop.store(true);
  writer_thread.join();
  return out;
}

}  // namespace

Outcome RunIngestMixed(const Config& config) {
  Outcome outcome;
  const int engine_threads = config.nproc;
  // Builds the base suite at set-up and every compaction.
  soi::ThreadPool world_pool(config.nproc);
  std::unique_ptr<IngestState> state = RepeatSetup<IngestState>(
      &outcome, [&](SetupTimes* times) {
        const Clock::time_point t0 = Clock::now();
        soi::LoadedSnapshot snap =
            SetUpFromSnapshot(config, &world_pool, times);
        // Go live from the restored dataset: LiveWorld owns it and builds
        // its own base suite, so the restored indexes are dropped first
        // (they point into the dataset being moved).
        snap.eps_maps.clear();
        snap.indexes.reset();
        auto s = std::make_unique<IngestState>();
        soi::ingest::LiveWorldOptions world_options;
        world_options.pool = &world_pool;
        world_options.auto_compact_ops = kAutoCompactOps;
        s->world = std::make_unique<LiveWorld>(std::move(*snap.dataset),
                                               kCellSize, world_options);
        soi::QueryEngineOptions options;
        options.num_threads = engine_threads;
        options.epoch_source = s->world.get();
        const soi::DatasetIndexes& base = s->world->base_indexes();
        s->engine = std::make_unique<soi::QueryEngine>(
            s->world->base_dataset().network, base.poi_grid,
            base.global_index, base.segment_cells, options);
        for (double eps : kServeEps) {
          if (!s->engine->TryGetMaps(eps).ok()) {
            std::cerr << "soibench: eps-map warm-up failed\n";
            std::exit(1);
          }
        }
        times->total_s =
            std::chrono::duration<double>(Clock::now() - t0).count();
        return s;
      });
  LiveWorld& world = *state->world;
  soi::QueryEngine& engine = *state->engine;

  const std::vector<soi::SoiQuery> stream = MakeQueryStream(
      world.base_dataset(), config.seed, 1 << 16, QueryMix{});
  std::atomic<size_t> cursor{0};
  auto op = [&](int) {
    const size_t index = cursor.fetch_add(1, std::memory_order_relaxed);
    soi::Result<soi::SoiResult> result = [&] {
      ScopedSpan span("core.engine.try_run");
      return engine.TryRun(stream[index % stream.size()]);
    }();
    if (!result.ok()) {
      CheckTyped(result.status());
      return false;
    }
    const soi::SoiQueryStats& stats = result.ValueOrDie().stats;
    TraceSoiPhases(0, "core.engine.try_run", stats.list_construction_seconds,
                   stats.filtering_seconds, stats.refinement_seconds);
    return true;
  };

  Writer writer(&world, config.seed, world.base_dataset());
  const int nominal_readers = std::max(1, config.nproc / 2);
  const int high_readers = std::max(1, config.nproc - 1);  // + the writer
  const uint64_t epoch_start = world.epoch();
  const LayerWindow window = OpenWindow(engine);
  const Clock::time_point write_start = Clock::now();
  const LoadPoints points = WithWriter<LoadPoints>(&writer, [&] {
    return RunLoadPoints("ingest_mixed.read", nominal_readers, high_readers,
                         0.5 * config.seconds, op);
  });
  const double write_s =
      std::chrono::duration<double>(Clock::now() - write_start).count();
  RecordEngineLayers(engine, window, &outcome);
  const soi::obs::MetricsSnapshot d =
      soi::obs::Registry::Global().Snapshot().Since(window.registry);
  const uint64_t epochs = world.epoch() - epoch_start;
  outcome.metrics.Set("rss_mb", PeakRssMb(), "MB");

  if (config.trace) {
    FinishTrace(config, &outcome);
    ClosedLoop untraced = WithWriter<ClosedLoop>(&writer, [&] {
      return RunClosedLoop("ingest_mixed.read", nominal_readers,
                           0.1 * config.seconds, kBaselineOps,
                           kPhaseLimitSeconds, op);
    });
    RecordTraceOverhead(points.nominal.op_ms.Percentile(0.5),
                        untraced.op_ms.Percentile(0.5), &outcome);
  }

  // Correctness: probe queries on the final epoch must match a cold
  // rebuild of the materialized live dataset on the world's geometry.
  soi::Dataset live = world.MaterializeLiveDataset();
  soi::PoiGridIndex grid(world.geometry().bounds(), kCellSize, live.pois);
  soi::GlobalInvertedIndex global(grid);
  soi::QueryEngine cold(world.base_dataset().network, grid, global,
                        world.base_indexes().segment_cells);
  int64_t mismatches = 0;
  for (size_t i = 0; i < kProbeQueries; ++i) {
    const soi::SoiQuery& query = stream[i * 97 % stream.size()];
    soi::Result<soi::SoiResult> got = engine.TryRun(query);
    soi::Result<soi::SoiResult> want = cold.TryRun(query);
    if (!got.ok() || !want.ok() ||
        !SameStreets(got.ValueOrDie().streets, want.ValueOrDie().streets)) {
      ++mismatches;
    }
  }

  // A read is the TryRun call itself, so p50_ms / p99_ms are its latency;
  // core.engine.try_run_* would repeat them and is not reported.
  RecordClosedLoop(points, &outcome);
  Metrics& m = outcome.metrics;
  // A run applies a few hundred batches, too few for a p99: the write
  // tail is the p95, from at least kWriteSamples batches.
  if (writer.failed == 0 &&
      static_cast<int64_t>(writer.apply_ms.size()) < kWriteSamples) {
    std::cerr << "soibench: the writer applied " << writer.apply_ms.size()
              << " batches, fewer than the " << kWriteSamples
              << " a p95 needs\n";
    std::exit(1);
  }
  m.Set("ingest.apply_p50_ms", writer.apply_ms.Percentile(0.5), "ms");
  m.Set("ingest.apply_p95_ms", writer.apply_ms.Percentile(0.95), "ms");
  // The writer's rate is fixed, so epochs and compactions per second of
  // the mixed phases show whether it kept up.
  m.Set("ingest.compactions",
        static_cast<double>(d.CounterOr0("soi.ingest.compactions")) / write_s,
        "1/s");
  const soi::obs::Histogram::Snapshot* compact =
      d.FindHistogram("soi.ingest.compact_seconds");
  m.Set("ingest.compact_ms", compact != nullptr ? compact->Mean() * 1e3 : 0.0,
        "ms");
  m.Set("ingest.overlay_cells_max",
        static_cast<double>(writer.overlay_cells_max), "count");
  m.Set("ingest.epochs", static_cast<double>(epochs) / write_s, "1/s");
  m.Set("workload.duplicate_share", DuplicateShare(stream, cursor.load()),
        "share");

  outcome.attempted = points.nominal.ops + points.high.ops + writer.batches;
  outcome.failed = points.nominal.failed + points.high.failed +
                   writer.failed + mismatches;
  outcome.correct = mismatches == 0 && writer.failed == 0;
  auto& dd = outcome.details;
  dd["write_batches"] = static_cast<double>(writer.batches);
  dd["write_samples"] = static_cast<double>(writer.apply_ms.size());
  dd["checked"] = static_cast<double>(kProbeQueries);
  dd["mismatches"] = static_cast<double>(mismatches);
  RecordBudget(Budget{high_readers + 1, 0, 0, engine_threads, config.nproc},
               &outcome);
  return outcome;
}

}  // namespace soibench
