// describe: the paper's second problem. Each operation finds the top-1
// street of a seeded category query through QueryEngine::TryRun, extracts
// its photos R_s (ExtractStreetPhotos) and selects a diverse summary with
// ST_Rel+Div (StRelDivSelect, k=20, lambda=0.5, w=0.5, rho=0.0001). No
// other workload touches core.street_photos or core.diversify.

#include <algorithm>
#include <iostream>
#include <mutex>
#include <set>

#include "common/thread_pool.h"
#include "core/diversify/cell_bounds.h"
#include "core/diversify/greedy_baseline.h"
#include "core/diversify/st_rel_div.h"
#include "core/street_photos.h"
#include "grid/photo_grid_index.h"
#include "harness.h"

namespace soibench {
namespace {

constexpr double kEps = 0.0005;
// One operation in kCheckEvery is re-checked against the greedy
// baseline, for up to kMaxChecks distinct streets.
constexpr int64_t kCheckEvery = 16;
constexpr size_t kMaxChecks = 6;

soi::DiversifyParams Params() {
  soi::DiversifyParams params;
  params.k = 20;
  params.lambda = 0.5;
  params.w = 0.5;
  params.rho = 0.0001;
  return params;
}

struct DescribeState {
  soi::LoadedSnapshot snap;
  std::unique_ptr<soi::QueryEngine> engine;
};

/// Per-caller layer accumulators (summed over the caller's operations).
struct LayerSums {
  Samples try_run_ms;
  int64_t described = 0;
  double extract_ms = 0.0;
  double photos = 0.0;
  double scorer_ms = 0.0;
  double index_ms = 0.0;
  double select_ms = 0.0;
  int64_t mmr_evaluations = 0;
  int64_t cells_pruned = 0;
  int64_t cells_refined = 0;
};

double MsSince(Clock::time_point t) { return MillisBetween(t, Clock::now()); }

}  // namespace

Outcome RunDescribe(const Config& config) {
  Outcome outcome;
  const int engine_threads = config.nproc;
  soi::ThreadPool setup_pool(config.nproc);
  std::unique_ptr<DescribeState> state = RepeatSetup<DescribeState>(
      &outcome, [&](SetupTimes* times) {
        const Clock::time_point t0 = Clock::now();
        auto s = std::make_unique<DescribeState>();
        s->snap = SetUpFromSnapshot(config, &setup_pool, times);
        soi::QueryEngineOptions options;
        options.num_threads = engine_threads;
        s->engine = std::make_unique<soi::QueryEngine>(
            s->snap.dataset->network, s->snap.indexes->poi_grid,
            s->snap.indexes->global_index, s->snap.indexes->segment_cells,
            options, std::move(s->snap.eps_maps));
        times->total_s =
            std::chrono::duration<double>(Clock::now() - t0).count();
        return s;
      });
  soi::QueryEngine& engine = *state->engine;
  const soi::Dataset& dataset = *state->snap.dataset;
  const soi::DatasetIndexes& indexes = *state->snap.indexes;
  const soi::DiversifyParams params = Params();

  QueryMix mix;
  mix.max_keywords = 2;
  mix.k_values = {1};
  mix.eps_values = {kEps};
  const std::vector<soi::SoiQuery> stream =
      MakeQueryStream(dataset, config.seed, 1 << 16, mix);
  std::atomic<size_t> cursor{0};
  std::vector<LayerSums> sums(static_cast<size_t>(config.nproc));
  std::mutex checks_mutex;
  std::set<soi::StreetId> checked_streets;
  std::vector<std::pair<soi::StreetId, std::vector<soi::PhotoId>>> checks;

  auto op = [&](int caller) {
    LayerSums& mine = sums[static_cast<size_t>(caller)];
    const size_t index = cursor.fetch_add(1, std::memory_order_relaxed);
    Clock::time_point t = Clock::now();
    soi::Result<soi::SoiResult> top = [&] {
      ScopedSpan span("core.engine.try_run");
      return engine.TryRun(stream[index % stream.size()]);
    }();
    mine.try_run_ms.Add(MsSince(t));
    if (!top.ok()) {
      CheckTyped(top.status());
      return false;
    }
    const soi::SoiQueryStats& stats = top.ValueOrDie().stats;
    TraceSoiPhases(0, "core.engine.try_run", stats.list_construction_seconds,
                   stats.filtering_seconds, stats.refinement_seconds);
    if (top.ValueOrDie().streets.empty()) return true;
    const soi::StreetId street = top.ValueOrDie().streets[0].street;

    t = Clock::now();
    soi::StreetPhotos photos = [&] {
      ScopedSpan span("core.street_photos.extract");
      return soi::ExtractStreetPhotos(dataset.network, street, dataset.photos,
                                      indexes.photo_grid, kEps);
    }();
    mine.extract_ms += MsSince(t);
    mine.photos += static_cast<double>(photos.size());
    ++mine.described;
    if (photos.size() == 0) return true;

    t = Clock::now();
    std::unique_ptr<soi::PhotoScorer> scorer;
    {
      ScopedSpan span("core.diversify.score");
      scorer = std::make_unique<soi::PhotoScorer>(photos, params.rho);
    }
    mine.scorer_ms += MsSince(t);
    t = Clock::now();
    std::unique_ptr<soi::PhotoGridIndex> grid;
    std::unique_ptr<soi::CellBoundsCalculator> bounds;
    {
      ScopedSpan span("core.diversify.index");
      grid = std::make_unique<soi::PhotoGridIndex>(params.rho / 2,
                                                   photos.photos);
      bounds = std::make_unique<soi::CellBoundsCalculator>(photos, *grid);
    }
    mine.index_ms += MsSince(t);
    t = Clock::now();
    soi::DiversifyResult selection = [&] {
      ScopedSpan span("core.diversify.select");
      return soi::StRelDivSelect(*scorer, *bounds, params);
    }();
    mine.select_ms += MsSince(t);
    mine.mmr_evaluations += selection.stats.mmr_evaluations;
    mine.cells_pruned += selection.stats.cells_pruned;
    mine.cells_refined += selection.stats.cells_refined;

    if (index % kCheckEvery == 0) {
      std::lock_guard<std::mutex> lock(checks_mutex);
      if (checks.size() < kMaxChecks &&
          checked_streets.insert(street).second) {
        checks.emplace_back(street, selection.selected);
      }
    }
    // Freeing R_s and the diversification state is part of the op.
    ScopedSpan span("describe.release");
    bounds.reset();
    grid.reset();
    scorer.reset();
    photos = soi::StreetPhotos();
    return true;
  };

  const int nominal_callers = std::max(1, config.nproc / 2);
  const int high_callers = config.nproc;
  const LayerWindow window = OpenWindow(engine);
  const LoadPoints points = RunLoadPoints(
      "describe.op", nominal_callers, high_callers, 0.5 * config.seconds, op);
  RecordEngineLayers(engine, window, &outcome);
  outcome.metrics.Set("rss_mb", PeakRssMb(), "MB");
  LayerSums total;
  for (const LayerSums& s : sums) {
    total.try_run_ms.Append(s.try_run_ms);
    total.described += s.described;
    total.extract_ms += s.extract_ms;
    total.photos += s.photos;
    total.scorer_ms += s.scorer_ms;
    total.index_ms += s.index_ms;
    total.select_ms += s.select_ms;
    total.mmr_evaluations += s.mmr_evaluations;
    total.cells_pruned += s.cells_pruned;
    total.cells_refined += s.cells_refined;
  }

  if (config.trace) {
    FinishTrace(config, &outcome);
    ClosedLoop untraced =
        RunClosedLoop("describe.op", nominal_callers, 0.1 * config.seconds,
                      kBaselineOps, kPhaseLimitSeconds, op);
    RecordTraceOverhead(points.nominal.op_ms.Percentile(0.5),
                        untraced.op_ms.Percentile(0.5), &outcome);
  }

  // Correctness: ST_Rel+Div must select exactly what the greedy baseline
  // selects on the same street.
  int64_t mismatches = 0;
  for (const auto& [street, selected] : checks) {
    soi::StreetPhotos photos = soi::ExtractStreetPhotos(
        dataset.network, street, dataset.photos, indexes.photo_grid, kEps);
    soi::PhotoScorer scorer(photos, params.rho);
    if (soi::GreedyBaselineSelect(scorer, params).selected != selected) {
      ++mismatches;
    }
  }

  const double n = static_cast<double>(std::max<int64_t>(1, total.described));
  RecordClosedLoop(points, &outcome);
  Metrics& m = outcome.metrics;
  m.Set("core.engine.try_run_p50_ms", total.try_run_ms.Percentile(0.5), "ms");
  m.Set("core.engine.try_run_p99_ms", total.try_run_ms.Percentile(0.99),
        "ms");
  m.Set("core.street_photos.extract_ms", total.extract_ms / n, "ms");
  m.Set("core.street_photos.photos", total.photos / n, "count");
  m.Set("core.diversify.scorer_ms", total.scorer_ms / n, "ms");
  m.Set("core.diversify.index_ms", total.index_ms / n, "ms");
  m.Set("core.diversify.select_ms", total.select_ms / n, "ms");
  m.Set("core.diversify.mmr_evaluations", total.mmr_evaluations / n,
        "count");
  const int64_t cells = total.cells_pruned + total.cells_refined;
  m.Set("core.diversify.prune_ratio",
        cells > 0 ? static_cast<double>(total.cells_pruned) / cells : 0.0,
        "share");
  m.Set("workload.duplicate_share", DuplicateShare(stream, cursor.load()),
        "share");

  outcome.attempted = points.nominal.ops + points.high.ops;
  outcome.failed = points.nominal.failed + points.high.failed + mismatches;
  outcome.correct = mismatches == 0;
  outcome.details["checked"] = static_cast<double>(checks.size());
  outcome.details["mismatches"] = static_cast<double>(mismatches);
  RecordBudget(Budget{high_callers, 0, 0, engine_threads, config.nproc},
               &outcome);
  return outcome;
}

}  // namespace soibench
