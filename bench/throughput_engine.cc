// Batch-throughput benchmark for the parallel QueryEngine: a mixed-eps
// query workload is pushed through QueryEngine::RunBatch at 1/2/4/8
// threads, per city. Reports queries/sec, speedup over the 1-thread
// engine, and the eps-cache hit rate, plus the legacy no-cache sequential
// path (fresh EpsAugmentedMaps per query — the pre-engine cost model) for
// context. Machine-readable results go to BENCH_soi_throughput.json in
// the working directory so the perf trajectory is trackable across PRs;
// every engine run now embeds its per-phase time breakdown (source-list
// construction / filtering / refinement / eps-map builds) and work
// counters, computed as metrics-registry deltas around the timed batch
// (each thread count reports the best of three warm passes — min-time
// filters scheduler jitter the gates would otherwise trip on), and one
// 8-thread batch of the first city is captured as a Chrome trace
// (TRACE_soi_throughput.json; open in chrome://tracing or
// https://ui.perfetto.dev).
//
// Every engine run is checked bit-identical to the 1-thread run (the
// determinism contract of DESIGN.md "Threading model").
//
// The bench is also a perf GATE (exit code 1 on violation):
//  - scaling: QPS must not degrade as threads grow — monotone up to a 5%
//    noise allowance through min(8, hardware threads), and within a 20%
//    allowance for oversubscribed thread counts beyond the hardware;
//  - floor: at the recorded-baseline scale (0.1), 1-thread QPS must be at
//    least 2x the seed serving path's (bench/throughput_baseline.h).
// `--smoke` runs a reduced thread set {1, 2} with the scaling gate only,
// sized for the `perf`-labeled ctest smoke run at small scale.

#include <algorithm>
#include <cmath>
#include <iostream>
#include <string>
#include <thread>
#include <vector>

#include "bench_util.h"
#include "common/random.h"
#include "common/stopwatch.h"
#include "core/query_engine.h"
#include "eval/table_printer.h"
#include "obs/dump.h"
#include "obs/flight_recorder.h"
#include "obs/obs.h"
#include "throughput_baseline.h"

namespace soi {
namespace {

struct EngineRun {
  int threads = 0;
  double seconds = 0.0;
  double qps = 0.0;
  double speedup_vs_1thread = 0.0;
  double cache_hit_rate = 0.0;
  QueryEngine::CacheStats cache;
  // Registry activity of the timed batch only.
  obs::MetricsSnapshot metrics;
  // Per-query wall-clock of the best timed pass, sorted ascending, from
  // the flight recorder. Coalesced duplicates are excluded: they
  // piggyback on a leader and would contribute fictitious ~0s samples.
  std::vector<double> latencies;
};

// Exact percentile of a sorted sample set (nearest-rank method).
double Percentile(const std::vector<double>& sorted, double q) {
  if (sorted.empty()) return 0.0;
  double rank = q * static_cast<double>(sorted.size());
  size_t index = static_cast<size_t>(std::ceil(rank));
  if (index > 0) --index;
  if (index >= sorted.size()) index = sorted.size() - 1;
  return sorted[index];
}

struct CityRun {
  std::string city;
  double baseline_nocache_seconds = 0.0;
  double baseline_nocache_qps = 0.0;
  std::vector<EngineRun> runs;
};

// A deterministic mixed workload: every (eps, k, |Psi|) combination,
// repeated and shuffled, so distinct eps values interleave and the
// per-eps memoization has both misses and hits.
std::vector<SoiQuery> MakeBatch(const Dataset& dataset) {
  constexpr double kEpsValues[] = {0.0004, 0.0005, 0.0007};
  constexpr int32_t kKValues[] = {10, 50};
  constexpr int kRepeats = 3;
  std::vector<SoiQuery> batch;
  for (int repeat = 0; repeat < kRepeats; ++repeat) {
    for (double eps : kEpsValues) {
      for (int32_t k : kKValues) {
        for (int psi = 1; psi <= 4; ++psi) {
          SoiQuery query;
          query.keywords = bench_util::AccumulatedQueryKeywords(dataset, psi);
          query.k = k;
          query.eps = eps;
          batch.push_back(query);
        }
      }
    }
  }
  Rng rng(20260806);
  rng.Shuffle(&batch);
  return batch;
}

// `capture_trace`: record the timed max-thread batch into the global
// trace recorder (left stopped afterwards, events retained for export).
CityRun MeasureCity(const bench_util::CityContext& city,
                    const std::vector<int>& thread_counts,
                    bool capture_trace) {
  CityRun out;
  out.city = city.profile.name;
  std::vector<SoiQuery> batch = MakeBatch(city.dataset);

  // Legacy path: sequential, one fresh augmentation per query.
  {
    SoiAlgorithm algorithm(city.dataset.network, city.indexes->poi_grid,
                           city.indexes->global_index);
    Stopwatch timer;
    for (const SoiQuery& query : batch) {
      EpsAugmentedMaps maps(city.indexes->segment_cells, query.eps);
      SoiResult result = algorithm.TryTopK(query, maps).ValueOrDie();
      (void)result;
    }
    out.baseline_nocache_seconds = timer.ElapsedSeconds();
    out.baseline_nocache_qps =
        static_cast<double>(batch.size()) / out.baseline_nocache_seconds;
  }

  // Each thread count reports the best of kTimedRepeats warm passes: a
  // single batch can lose double-digit percentages to scheduler jitter
  // on a noisy or oversubscribed host, and the scaling gates below
  // compare these numbers directly — min-time is the standard filter.
  constexpr int kTimedRepeats = 3;
  std::vector<Result<SoiResult>> reference;
  for (int threads : thread_counts) {
    QueryEngineOptions options;
    options.num_threads = threads;
    QueryEngine engine(city.dataset.network, city.indexes->poi_grid,
                       city.indexes->global_index,
                       city.indexes->segment_cells, options);
    // Warm-up pass (first-touch allocations, cache population), then the
    // timed passes on a warm cache — the steady-state serving shape.
    for (const Result<SoiResult>& result : engine.TryRunBatch(batch)) {
      SOI_CHECK(result.ok()) << result.status().ToString();
    }
    bool tracing = capture_trace && threads == thread_counts.back();
    EngineRun run;
    run.threads = threads;
    for (int rep = 0; rep < kTimedRepeats; ++rep) {
      bool trace_this = tracing && rep == 0;
      if (trace_this) obs::TraceRecorder::Global().Start();
      obs::MetricsSnapshot before = obs::Registry::Global().Snapshot();
      // Query ids are monotone, so records of this pass are exactly those
      // with id > the recorder's watermark taken here.
      uint64_t flight_watermark =
          obs::FlightRecorder::Global().last_query_id();
      Stopwatch timer;
      std::vector<Result<SoiResult>> results = engine.TryRunBatch(batch);
      double seconds = timer.ElapsedSeconds();
      obs::MetricsSnapshot delta =
          obs::Registry::Global().Snapshot().Since(before);
      std::vector<double> latencies;
      obs::FlightRecorder::Snapshot flights =
          obs::FlightRecorder::Global().Snap();
      for (const obs::QueryRecord& record : flights.recent) {
        if (record.query_id > flight_watermark && !record.coalesced) {
          latencies.push_back(record.total_seconds);
        }
      }
      std::sort(latencies.begin(), latencies.end());
      if (trace_this) obs::TraceRecorder::Global().Stop();
      if (reference.empty()) {
        reference = std::move(results);  // the 1-thread rep 0 pass
      } else {
        bench_util::CheckSameAnswers(results, reference,
                                     "thread-count-dependent");
      }
      if (rep == 0 || seconds < run.seconds) {
        run.seconds = seconds;
        run.metrics = std::move(delta);
        run.latencies = std::move(latencies);
      }
    }
    run.qps = static_cast<double>(batch.size()) / run.seconds;
    run.cache = engine.cache_stats();
    run.cache_hit_rate = run.cache.HitRate();
    out.runs.push_back(run);
  }
  for (EngineRun& run : out.runs) {
    run.speedup_vs_1thread = run.seconds > 0.0
                                 ? out.runs.front().seconds / run.seconds
                                 : 0.0;
  }
  return out;
}

double HistogramSum(const obs::MetricsSnapshot& metrics,
                    const std::string& name) {
  const obs::Histogram::Snapshot* histogram = metrics.FindHistogram(name);
  return histogram != nullptr ? histogram->sum : 0.0;
}

struct GateResult {
  std::string name;
  bool pass = false;
  std::string detail;
};

// The scaling gate: adding threads must not lose throughput. Within the
// hardware's core budget the requirement is monotone QPS between
// adjacent thread counts up to a 5% measurement-noise allowance. Thread
// counts beyond the hardware (every count > 1 on a 1-core CI box) only
// assert that oversubscription does not *collapse* throughput, and they
// compare against the best within-hardware run rather than the adjacent
// count: adjacent oversubscribed points are both noisy, so chaining
// their ratios multiplies jitter into spurious failures, while a real
// contention collapse (a lock convoy, a refcount storm) loses several
// multiples — far below the 40% allowance that covers honest
// context-switch overhead on a sub-hardware box.
constexpr double kMonotoneNoiseFactor = 0.95;
constexpr double kOversubscribedCollapseFactor = 0.60;

std::vector<GateResult> CheckGates(const CityRun& city, double scale,
                                   bool smoke, unsigned hardware_threads) {
  std::vector<GateResult> gates;
  // The 1-thread run is always within the hardware budget, so it
  // anchors the best-within-hardware reference unconditionally.
  double best_within_hw = city.runs.empty() ? 0.0 : city.runs.front().qps;
  for (const EngineRun& run : city.runs) {
    if (static_cast<unsigned>(run.threads) <= hardware_threads) {
      best_within_hw = std::max(best_within_hw, run.qps);
    }
  }
  for (size_t i = 1; i < city.runs.size(); ++i) {
    const EngineRun& prev = city.runs[i - 1];
    const EngineRun& next = city.runs[i];
    bool within_hw =
        static_cast<unsigned>(next.threads) <= hardware_threads;
    GateResult gate;
    if (within_hw) {
      gate.name = "scaling_" + std::to_string(prev.threads) + "t_to_" +
                  std::to_string(next.threads) + "t";
      gate.pass = next.qps >= kMonotoneNoiseFactor * prev.qps;
      gate.detail = FormatDouble(next.qps, 1) + " qps at " +
                    std::to_string(next.threads) + "t vs " +
                    FormatDouble(prev.qps, 1) + " at " +
                    std::to_string(prev.threads) + "t (floor " +
                    FormatDouble(kMonotoneNoiseFactor * prev.qps, 1) +
                    ", within hardware)";
    } else {
      gate.name = "no_collapse_" + std::to_string(next.threads) + "t";
      gate.pass =
          next.qps >= kOversubscribedCollapseFactor * best_within_hw;
      gate.detail = FormatDouble(next.qps, 1) + " qps at " +
                    std::to_string(next.threads) + "t vs best " +
                    FormatDouble(best_within_hw, 1) +
                    " within hardware (floor " +
                    FormatDouble(
                        kOversubscribedCollapseFactor * best_within_hw, 1) +
                    ", oversubscribed)";
    }
    gates.push_back(std::move(gate));
  }
  if (!smoke) {
    const bench_util::ThroughputBaseline* baseline =
        bench_util::FindSeedBaseline(city.city, scale);
    if (baseline != nullptr && !city.runs.empty()) {
      const EngineRun& single = city.runs.front();
      GateResult gate;
      gate.name = "qps_2x_seed_baseline";
      gate.pass = single.qps >= 2.0 * baseline->qps_1thread;
      gate.detail = FormatDouble(single.qps, 1) + " qps at 1t vs seed " +
                    FormatDouble(baseline->qps_1thread, 1) + " (floor " +
                    FormatDouble(2.0 * baseline->qps_1thread, 1) + ")";
      gates.push_back(std::move(gate));
    }
  }
  return gates;
}

void WriteRunJson(JsonWriter* json, const EngineRun& run) {
  json->BeginObject();
  json->KeyValue("threads", run.threads);
  json->KeyValue("seconds", run.seconds);
  json->KeyValue("qps", run.qps);
  json->KeyValue("speedup_vs_1thread", run.speedup_vs_1thread);
  json->KeyValue("cache_hit_rate", run.cache_hit_rate);
  json->KeyValue("cache_hits", run.cache.hits);
  json->KeyValue("cache_misses", run.cache.misses);
  json->KeyValue("cache_evictions", run.cache.evictions);

  // Per-query latency distribution of the best pass, from the flight
  // recorder. Exact percentiles over all executed (non-coalesced)
  // queries of the batch — small samples, so no histogram-bucket
  // interpolation error.
  if (!run.latencies.empty()) {
    json->Key("latency");
    json->BeginObject();
    json->KeyValue("samples", static_cast<int64_t>(run.latencies.size()));
    json->KeyValue("p50_seconds", Percentile(run.latencies, 0.50));
    json->KeyValue("p99_seconds", Percentile(run.latencies, 0.99));
    json->KeyValue("p999_seconds", Percentile(run.latencies, 0.999));
    json->KeyValue("max_seconds", run.latencies.back());
    json->EndObject();
  }

  // Per-phase wall-clock totals of the timed batch, summed across
  // worker threads (so phases can exceed `seconds` when threads > 1).
  json->Key("phases");
  json->BeginObject();
  json->KeyValue("index_build_seconds",
                 HistogramSum(run.metrics, "soi.cache.build_seconds"));
  json->KeyValue("lists_seconds",
                 HistogramSum(run.metrics, "soi.query.lists_seconds"));
  json->KeyValue("filter_seconds",
                 HistogramSum(run.metrics, "soi.query.filter_seconds"));
  json->KeyValue("refine_seconds",
                 HistogramSum(run.metrics, "soi.query.refine_seconds"));
  json->KeyValue("pool_queue_wait_seconds",
                 HistogramSum(run.metrics, "soi.pool.queue_wait_seconds"));
  json->EndObject();

  json->Key("counters");
  json->BeginObject();
  for (const char* name :
       {"soi.query.count", "soi.query.iterations", "soi.query.cells_popped",
        "soi.query.segments_popped", "soi.query.segments_seen",
        "soi.query.segments_finalized_in_refinement",
        "soi.query.poi_distance_checks", "soi.cache.builds",
        "soi.pool.tasks",
        // Allocation / contention shape of the timed batch: scratch-arena
        // reuse (created should be ~num_threads, reused everything else),
        // coalesced duplicate queries, and how often the eps lookup had
        // to take cache_mutex_ (0 on a warm cache = contention-free).
        "soi.scratch.created", "soi.scratch.reused",
        "soi.engine.batch_coalesced", "soi.cache.locked_path",
        // Serving-path failure counters (DESIGN.md "Failure model") —
        // all zero in this healthy unbounded workload, recorded so a
        // regression that starts shedding or timing out is visible in
        // the trajectory.
        "soi.engine.shed", "soi.engine.deadline_exceeded",
        "soi.engine.cancelled"}) {
    json->KeyValue(name, run.metrics.CounterOr0(name));
  }
  json->EndObject();
  json->EndObject();
}

void WriteJson(const std::vector<CityRun>& cities,
               const std::vector<std::vector<GateResult>>& gates,
               const bench_util::BenchOptions& options, size_t batch_size,
               bool smoke, unsigned hardware_threads,
               const std::string& path) {
  bench_util::BenchJsonFile out("soi_throughput", options, path);
  JsonWriter* json = out.json();
  json->KeyValue("batch_size", static_cast<int64_t>(batch_size));
  json->KeyValue("smoke", smoke);
  json->KeyValue("hardware_threads",
                 static_cast<int64_t>(hardware_threads));
  json->Key("cities");
  json->BeginArray();
  for (size_t c = 0; c < cities.size(); ++c) {
    const CityRun& city = cities[c];
    json->BeginObject();
    json->KeyValue("city", city.city);
    json->KeyValue("baseline_nocache_qps", city.baseline_nocache_qps);
    json->Key("runs");
    json->BeginArray();
    for (const EngineRun& run : city.runs) WriteRunJson(json, run);
    json->EndArray();
    json->Key("gates");
    json->BeginArray();
    for (const GateResult& gate : gates[c]) {
      json->BeginObject();
      json->KeyValue("name", gate.name);
      json->KeyValue("pass", gate.pass);
      json->KeyValue("detail", gate.detail);
      json->EndObject();
    }
    json->EndArray();
    json->EndObject();
  }
  json->EndArray();
  out.Close();
}

int Run(int argc, char** argv) {
  // --smoke is this binary's own flag; strip it before the shared parser
  // (which rejects flags it does not know).
  bool smoke = false;
  std::vector<char*> filtered_argv;
  filtered_argv.reserve(static_cast<size_t>(argc));
  for (int i = 0; i < argc; ++i) {
    if (std::string(argv[i]) == "--smoke") {
      smoke = true;
      continue;
    }
    filtered_argv.push_back(argv[i]);
  }
  bench_util::BenchOptions options = bench_util::ParseBenchOptions(
      static_cast<int>(filtered_argv.size()), filtered_argv.data());
  // Live introspection: SIGUSR1 snapshots the metrics + flight recorder
  // of a running (possibly long, full-scale) bench. Best-effort — the
  // bench must run on platforms without the hook.
  (void)obs::InstallSignalDump("SOI_STATE_throughput.json");
  auto cities = bench_util::LoadCities(options);
  const std::vector<int> thread_counts =
      smoke ? std::vector<int>{1, 2} : std::vector<int>{1, 2, 4, 8};
  const unsigned hardware_threads =
      std::max(1u, std::thread::hardware_concurrency());

  std::vector<CityRun> measured;
  std::vector<std::vector<GateResult>> gates;
  size_t batch_size = 0;
  for (const auto& city : cities) {
    batch_size = MakeBatch(city->dataset).size();
    std::cout << "\nQueryEngine throughput (" << city->profile.name
              << "): " << batch_size << " mixed-eps queries\n\n";
    // One Chrome trace per bench invocation: the max-thread batch of the
    // first city.
    CityRun run =
        MeasureCity(*city, thread_counts, /*capture_trace=*/measured.empty());
    TablePrinter table({"threads", "batch time", "queries/s",
                        "speedup vs 1t", "cache hit rate"});
    for (const EngineRun& engine_run : run.runs) {
      table.AddRow({std::to_string(engine_run.threads),
                    FormatMillis(engine_run.seconds),
                    FormatDouble(engine_run.qps, 1),
                    FormatDouble(engine_run.speedup_vs_1thread, 2) + "x",
                    FormatDouble(engine_run.cache_hit_rate * 100, 1) + "%"});
    }
    table.AddRow({"legacy seq (no cache)",
                  FormatMillis(run.baseline_nocache_seconds),
                  FormatDouble(run.baseline_nocache_qps, 1),
                  FormatDouble(run.runs.front().seconds > 0
                                   ? run.baseline_nocache_seconds /
                                         run.runs.front().seconds
                                   : 0.0,
                               2) +
                      "x slower",
                  "-"});
    table.Print(&std::cout);

    if (!run.runs.empty()) {
      // Per-phase breakdown of the 1-thread timed batch (thread counts
      // only shift work across cores; the per-phase shape is the same).
      const EngineRun& first = run.runs.front();
      std::cout << "\nPer-phase wall clock (1 thread): lists "
                << FormatMillis(HistogramSum(first.metrics,
                                             "soi.query.lists_seconds"))
                << ", filter "
                << FormatMillis(HistogramSum(first.metrics,
                                             "soi.query.filter_seconds"))
                << ", refine "
                << FormatMillis(HistogramSum(first.metrics,
                                             "soi.query.refine_seconds"))
                << ", eps-map builds "
                << FormatMillis(HistogramSum(first.metrics,
                                             "soi.cache.build_seconds"))
                << "\n";
    }
    gates.push_back(
        CheckGates(run, options.scale, smoke, hardware_threads));
    measured.push_back(run);
  }

  WriteJson(measured, gates, options, batch_size, smoke, hardware_threads,
            "BENCH_soi_throughput.json");
  std::cout << "\nWrote BENCH_soi_throughput.json. Thread speedups track "
               "the host's core count\n(single-core machines bottleneck at "
               "1x); the engine's cache advantage over the\nlegacy "
               "per-query augmentation shows in the last row.\n";

  bool gates_pass = true;
  std::cout << "\nPerf gates (" << hardware_threads
            << " hardware thread(s)):\n";
  for (size_t c = 0; c < measured.size(); ++c) {
    for (const GateResult& gate : gates[c]) {
      std::cout << "  [" << (gate.pass ? "PASS" : "FAIL") << "] "
                << measured[c].city << " " << gate.name << ": "
                << gate.detail << "\n";
      gates_pass = gates_pass && gate.pass;
    }
  }
  if (!gates_pass) {
    std::cout << "\nPERF GATE FAILURE: the serving path regressed (or the "
                 "recorded baseline in\nbench/throughput_baseline.h is "
                 "stale — update it deliberately, with numbers).\n";
  }
  Status trace_status = obs::TraceRecorder::Global().WriteChromeTrace(
      "TRACE_soi_throughput.json");
  SOI_CHECK(trace_status.ok()) << trace_status.ToString();
  std::cout << "Wrote TRACE_soi_throughput.json ("
            << obs::TraceRecorder::Global().Collect().size()
            << " spans; open in chrome://tracing or ui.perfetto.dev).\n";
  return gates_pass ? 0 : 1;
}

}  // namespace
}  // namespace soi

int main(int argc, char** argv) { return soi::Run(argc, argv); }
