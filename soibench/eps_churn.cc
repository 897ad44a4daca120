// eps-churn: closed-loop direct QueryEngine::TryRun with the same Psi/k
// mix as serve-london, but eps drawn from 16 distinct values — twice the
// engine's default 8-entry eps cache — so eps-map builds (grid) and LRU
// eviction (core.engine cache) do most of the work here and almost none
// on serve-london. A cache or build change should move this workload and
// leave serve-london unchanged.

#include <algorithm>
#include <iostream>
#include <map>
#include <mutex>

#include "common/thread_pool.h"
#include "core/soi_algorithm.h"
#include "harness.h"

namespace soibench {
namespace {

constexpr int kEpsValues = 16;
// One operation in kCheckEvery is re-checked against a fresh sequential
// evaluation, up to kMaxChecks.
constexpr int64_t kCheckEvery = 32;
constexpr size_t kMaxChecks = 12;

std::vector<double> ChurnEps() {
  std::vector<double> eps;
  for (int i = 0; i < kEpsValues; ++i) eps.push_back(0.00020 + 0.00002 * i);
  return eps;
}

struct ChurnState {
  soi::LoadedSnapshot snap;
  std::unique_ptr<soi::QueryEngine> engine;
};

}  // namespace

Outcome RunEpsChurn(const Config& config) {
  Outcome outcome;
  const int engine_threads = config.nproc;
  soi::ThreadPool setup_pool(config.nproc);
  std::unique_ptr<ChurnState> state = RepeatSetup<ChurnState>(
      &outcome, [&](SetupTimes* times) {
        const Clock::time_point t0 = Clock::now();
        auto s = std::make_unique<ChurnState>();
        s->snap = SetUpFromSnapshot(config, &setup_pool, times);
        // A cold cache: the restored serve-eps maps are not in this mix.
        s->snap.eps_maps.clear();
        soi::QueryEngineOptions options;
        options.num_threads = engine_threads;
        s->engine = std::make_unique<soi::QueryEngine>(
            s->snap.dataset->network, s->snap.indexes->poi_grid,
            s->snap.indexes->global_index, s->snap.indexes->segment_cells,
            options);
        times->total_s =
            std::chrono::duration<double>(Clock::now() - t0).count();
        return s;
      });
  soi::QueryEngine& engine = *state->engine;

  QueryMix mix;
  mix.eps_values = ChurnEps();
  const std::vector<soi::SoiQuery> stream =
      MakeQueryStream(*state->snap.dataset, config.seed, 1 << 16, mix);
  std::atomic<size_t> cursor{0};
  std::mutex checks_mutex;
  std::vector<std::pair<size_t, std::vector<soi::RankedStreet>>> checks;

  auto op = [&](int) {
    const size_t index = cursor.fetch_add(1, std::memory_order_relaxed);
    const soi::SoiQuery& query = stream[index % stream.size()];
    soi::Result<soi::SoiResult> result = [&] {
      ScopedSpan span("core.engine.try_run");
      return engine.TryRun(query);
    }();
    if (!result.ok()) {
      CheckTyped(result.status());
      return false;
    }
    const soi::SoiQueryStats& stats = result.ValueOrDie().stats;
    TraceSoiPhases(0, "core.engine.try_run", stats.list_construction_seconds,
                   stats.filtering_seconds, stats.refinement_seconds);
    if (index % kCheckEvery == 0) {
      std::lock_guard<std::mutex> lock(checks_mutex);
      if (checks.size() < kMaxChecks) {
        checks.emplace_back(index % stream.size(),
                            result.ValueOrDie().streets);
      }
    }
    return true;
  };

  const int nominal_callers = std::max(1, config.nproc / 2);
  const int high_callers = config.nproc;
  const LayerWindow window = OpenWindow(engine);
  const LoadPoints points = RunLoadPoints(
      "eps_churn.op", nominal_callers, high_callers, 0.5 * config.seconds, op);
  RecordEngineLayers(engine, window, &outcome);
  outcome.metrics.Set("rss_mb", PeakRssMb(), "MB");

  if (config.trace) {
    FinishTrace(config, &outcome);
    ClosedLoop untraced =
        RunClosedLoop("eps_churn.op", nominal_callers, 0.1 * config.seconds,
                      kBaselineOps, kPhaseLimitSeconds, op);
    RecordTraceOverhead(points.nominal.op_ms.Percentile(0.5),
                        untraced.op_ms.Percentile(0.5), &outcome);
  }

  // Correctness: each sampled answer must equal a sequential
  // SoiAlgorithm::TryTopK over freshly built eps maps.
  const soi::DatasetIndexes& indexes = *state->snap.indexes;
  soi::SoiAlgorithm reference(state->snap.dataset->network, indexes.poi_grid,
                              indexes.global_index);
  std::map<double, std::unique_ptr<soi::EpsAugmentedMaps>> fresh;
  int64_t mismatches = 0;
  for (const auto& [index, streets] : checks) {
    const soi::SoiQuery& query = stream[index];
    auto& maps = fresh[query.eps];
    if (maps == nullptr) {
      // The pool only speeds the build up; the maps are bit-identical
      // for every thread count.
      maps = std::make_unique<soi::EpsAugmentedMaps>(indexes.segment_cells,
                                                     query.eps, &setup_pool);
    }
    soi::Result<soi::SoiResult> want = reference.TryTopK(query, *maps);
    if (!want.ok() || !SameStreets(want.ValueOrDie().streets, streets)) {
      ++mismatches;
    }
  }

  // The operation is the TryRun call itself, so p50_ms / p99_ms are its
  // latency; core.engine.try_run_* would repeat them and is not reported.
  RecordClosedLoop(points, &outcome);
  outcome.metrics.Set("workload.duplicate_share",
                      DuplicateShare(stream, cursor.load()), "share");

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
