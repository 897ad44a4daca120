#ifndef SOIBENCH_HARNESS_H_
#define SOIBENCH_HARNESS_H_

// Shared pieces of the libsoi benchmark: run configuration, the metric
// sink, latency samples, the seeded query-stream generator, the
// snapshot-based set-up path, closed-loop runners, and the span tracer
// behind the traced run. The benchmark treats libsoi as a black box: it
// calls only public library functions and reads only what they return.

#include <atomic>
#include <chrono>
#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "core/query_engine.h"
#include "core/soi_query.h"
#include "datagen/dataset.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "snapshot/snapshot.h"

namespace soibench {

using Clock = std::chrono::steady_clock;

/// London at this scale is every workload's city; the grid cell side is
/// the paper's (and soid's) 0.0005.
inline constexpr double kScale = 0.1;
inline constexpr double kCellSize = 0.0005;

/// The eps working set of the serving-style workloads: three values, so
/// it fits the engine's default 8-entry eps cache.
inline const std::vector<double> kServeEps = {0.0004, 0.0005, 0.0007};

/// Set-up is repeated this many times per run; setup_s is the median.
inline constexpr int kSetupRepeats = 3;

/// A p99 is reported only from at least this many samples (ten beyond
/// the percentile). Every measured phase runs until it has them.
inline constexpr int64_t kTailSamples = 1000;

/// A closed-loop phase that has not collected its samples after this
/// long fails the run instead of publishing a thin percentile.
inline constexpr double kPhaseLimitSeconds = 45.0;

/// Closed-loop operations in the traced run's untraced baseline, which
/// only needs a p50.
inline constexpr int64_t kBaselineOps = 300;

/// What the command line asks for.
struct Config {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  /// Hardware threads: the bound on every thread and connection count.
  int nproc = 1;
  /// Scratch directory (inside the checkout) for snapshot files.
  std::string work_dir;
};

/// Metric sink: name -> (value, unit). Workloads set what they measure;
/// main.cc prints them.
class Metrics {
 public:
  struct Value {
    double value = 0.0;
    std::string unit;
  };
  void Set(const std::string& name, double value, const std::string& unit) {
    values_[name] = Value{value, unit};
  }
  const std::map<std::string, Value>& values() const { return values_; }

 private:
  std::map<std::string, Value> values_;
};

/// One run's outcome.
struct Outcome {
  bool correct = true;
  int64_t attempted = 0;
  /// Typed errors + sheds + timeouts + wrong answers.
  int64_t failed = 0;
  Metrics metrics;
  /// Free-form details (sample counts, rates, budget) for the report.
  std::map<std::string, double> details;
};

/// Latency samples in milliseconds.
class Samples {
 public:
  void Add(double ms) { ms_.push_back(ms); }
  void Append(const Samples& other);
  size_t size() const { return ms_.size(); }
  /// Nearest-rank percentile, q in (0, 1]; 0 when empty.
  double Percentile(double q) const;

 private:
  mutable std::vector<double> ms_;
  mutable bool sorted_ = false;
};

double MillisBetween(Clock::time_point from, Clock::time_point to);

/// Peak resident set size of the process so far, in MB.
double PeakRssMb();

/// Median of a non-empty vector.
double Median(std::vector<double> values);

// --- inputs ---------------------------------------------------------------

/// Shape of a seeded query stream.
struct QueryMix {
  int min_keywords = 1;
  int max_keywords = 4;
  std::vector<int32_t> k_values = {10, 20, 50};
  std::vector<double> eps_values = kServeEps;
};

/// `count` queries <Psi, k, eps>: Psi a random subset of the city's
/// category keywords, with every size, k and eps of the mix equally
/// often. Deterministic in (dataset, seed, mix).
std::vector<soi::SoiQuery> MakeQueryStream(const soi::Dataset& dataset,
                                           uint64_t seed, size_t count,
                                           const QueryMix& mix);

/// 1 - distinct/total over the first `used` queries of a stream.
double DuplicateShare(const std::vector<soi::SoiQuery>& stream, size_t used);

/// Bitwise equality of two answers (street, interest bits, best segment).
bool SameStreets(const std::vector<soi::RankedStreet>& a,
                 const std::vector<soi::RankedStreet>& b);

// --- set-up ---------------------------------------------------------------

/// Per-layer timings of one set-up.
struct SetupTimes {
  double generate_s = 0.0;
  double build_indexes_s = 0.0;
  double eps_maps_s = 0.0;
  double save_s = 0.0;
  double load_s = 0.0;
  int64_t snapshot_bytes = 0;
  /// The whole set-up, including the workload's own last steps.
  double total_s = 0.0;
};

/// The deployment path every workload starts from, as tools/soid does:
/// generate London, build the index suite, build the kServeEps maps,
/// save a snapshot and restore it. The restored snapshot is what the
/// workload serves from.
soi::LoadedSnapshot SetUpFromSnapshot(const Config& config,
                                      soi::ThreadPool* pool,
                                      SetupTimes* times);

/// Records setup_s and the per-layer set-up metrics: medians over `runs`.
void RecordSetup(const std::vector<SetupTimes>& runs, Outcome* outcome);

/// Runs `make` kSetupRepeats times, keeping the last result, and records
/// the medians into `outcome`. `make` must fill its SetupTimes, including
/// total_s.
template <typename T>
std::unique_ptr<T> RepeatSetup(
    Outcome* outcome,
    const std::function<std::unique_ptr<T>(SetupTimes*)>& make) {
  std::vector<SetupTimes> runs;
  std::unique_ptr<T> kept;
  for (int i = 0; i < kSetupRepeats; ++i) {
    kept.reset();  // tear the previous world down before the next one
    SetupTimes times;
    kept = make(&times);
    runs.push_back(times);
  }
  RecordSetup(runs, outcome);
  return kept;
}

// --- load -------------------------------------------------------------------

/// Snapshot of the library's own counters (metrics registry and an
/// engine's eps cache) at one instant; Since() gives an interval.
struct LayerWindow {
  soi::obs::MetricsSnapshot registry;
  soi::QueryEngine::CacheStats cache;
};
LayerWindow OpenWindow(const soi::QueryEngine& engine);

/// Records the per-layer metrics every engine workload shares (eps-map
/// builds, cache, shedding, SOI phases and work counters, pool) for the
/// interval since `start`.
void RecordEngineLayers(const soi::QueryEngine& engine,
                        const LayerWindow& start, Outcome* outcome);

/// Result of one closed-loop phase.
struct ClosedLoop {
  Samples op_ms;
  int64_t ops = 0;
  int64_t failed = 0;
  double elapsed_s = 0.0;
  double Qps() const { return elapsed_s > 0 ? ops / elapsed_s : 0.0; }
  void Merge(const ClosedLoop& other);
};

/// A fresh request id (1, 2, ...), unique in the process. Spans and
/// measured wall times of one request share it.
uint64_t NextRequestId();

/// Runs `callers` threads, each calling op(caller) back to back, until
/// `seconds` have passed and at least `min_ops` completed, or until
/// `limit_seconds` have passed. op returns false for a failed operation.
/// Each operation is one request: it runs inside a root span named
/// `root`, and its wall time, taken with this loop's own clock, is
/// recorded for the trace reconciliation.
ClosedLoop RunClosedLoop(const char* root, int callers, double seconds,
                         int64_t min_ops, double limit_seconds,
                         const std::function<bool(int)>& op);

/// A closed-loop workload's two load points: `nominal` callers and
/// `high` callers, each until `seconds` have passed and kTailSamples
/// operations completed. The points alternate in kSlices slices, so both
/// see the same stretch of the run and a slow spell of the host is
/// shared between them instead of landing on one.
inline constexpr int kSlices = 5;
struct LoadPoints {
  ClosedLoop nominal;
  ClosedLoop high;
};
LoadPoints RunLoadPoints(const char* root, int nominal, int high,
                         double seconds, const std::function<bool(int)>& op);

/// Exits with an error when `samples` cannot support a p99.
void RequireTail(const Samples& samples, const char* phase);

/// The end-to-end latency metrics of a closed-loop workload: p50_ms and
/// p99_ms at the nominal caller count, p99_ms.high with every caller
/// busy, and capacity_qps as the operations completed per second then.
void RecordClosedLoop(const LoadPoints& points, Outcome* outcome);

/// The thread and connection budget, printed next to build_info; each
/// count is checked against the host's hardware threads.
struct Budget {
  int generator_threads = 0;
  int connections = 0;
  int server_workers = 0;
  int engine_pool = 0;
  int setup_pool = 0;
};
void RecordBudget(const Budget& budget, Outcome* outcome);

/// Counts a TryRun failure: typed statuses count as failed operations;
/// anything outside the documented taxonomy aborts the run.
void CheckTyped(const soi::Status& status);

// --- tracing ----------------------------------------------------------------

/// In-memory span recorder for the traced run. Every span has a name,
/// start, end, parent and request id; spans are also mirrored into the
/// library's obs::TraceRecorder so the Chrome trace written at the end
/// shows them nested with the library's own internal spans. Recording is
/// off (one relaxed load per span) unless Enable() was called.
class Tracer {
 public:
  struct Span {
    const char* name = nullptr;
    int64_t start_ns = 0;
    int64_t end_ns = 0;
    int64_t parent = -1;  // index into the same thread's spans, -1 = root
    uint64_t request = 0;
  };

  static Tracer& Get();
  /// Starts recording (and the library's obs::TraceRecorder with it).
  void Enable();
  /// Stops recording new spans; recorded spans stay for Derive().
  void Disable();
  bool enabled() const { return enabled_.load(std::memory_order_relaxed); }
  int64_t Now() const;
  int64_t ToNs(Clock::time_point t) const;

  /// Opens a span on the calling thread; returns its handle. `request`
  /// 0 inherits the parent's request id. `start_ns` < 0 means now.
  int64_t Begin(const char* name, uint64_t request, int64_t start_ns);
  void End(int64_t handle, int64_t end_ns);

  /// Records a request's wall time as the benchmark measured it with its
  /// own clock reads, outside the spans. Derive() reconciles against it.
  void RecordWall(uint64_t request, double ms);

  /// Records `ms` of layer `name` that the library reported rather than
  /// the benchmark timed (SoiQueryStats phases, the flight recorder's
  /// engine time). It sits inside the span or reported layer named
  /// `parent` of the same request; its position there is unknown, so it
  /// enters only the self times. `request` 0 is the request of the
  /// calling thread's innermost open span.
  void AddReported(uint64_t request, const char* parent, const char* name,
                   double ms);

  /// Per-layer self time derived from the spans: for each layer name, the
  /// summed duration minus the part its children cover, in ms. A
  /// request's layers are every span and reported layer below its root;
  /// the root span (the workload's own operation) is not a layer. A
  /// request reconciles when its layers' self times add up to its
  /// recorded wall time within the stated tolerance.
  struct Breakdown {
    std::map<std::string, double> self_ms;
    std::map<std::string, int64_t> count;
    int64_t requests = 0;
    int64_t reconciled = 0;
    int64_t orphans = 0;  // reported layers whose parent was not found
    double wall_ms = 0.0;
    double unattributed_ms = 0.0;  // wall time outside every layer
  };
  Breakdown Derive() const;

  /// Per-request reconciliation tolerance: |layers - wall| <= this share
  /// of the wall time plus kToleranceMs.
  static constexpr double kToleranceShare = 0.05;
  static constexpr double kToleranceMs = 0.25;
  /// FinishTrace warns when fewer requests than this share reconcile.
  static constexpr double kMinReconciledShare = 0.95;

 private:
  struct ThreadSpans;
  ThreadSpans* Local();

  std::atomic<bool> enabled_{false};
  Clock::time_point epoch_ = Clock::now();
  mutable std::mutex mutex_;
  std::vector<std::unique_ptr<ThreadSpans>> threads_;
};

/// RAII span over one layer call.
class ScopedSpan {
 public:
  explicit ScopedSpan(const char* name, uint64_t request = 0);
  ~ScopedSpan();
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

 private:
  int64_t handle_ = -1;
  soi::obs::ScopedSpan obs_span_;
};

/// Opens a span that started at `start`: an open-loop request starts at
/// its scheduled send time, which the thread may have passed already.
/// EndAt closes it; spans opened in between become its children.
int64_t BeginAt(const char* name, uint64_t request, Clock::time_point start);
void EndAt(int64_t handle, Clock::time_point end);

/// When tracing, records the SOI phases a TryRun reported (lists, filter,
/// refine) as layers inside `parent` of `request` (0: the current one).
void TraceSoiPhases(uint64_t request, const char* parent,
                    double lists_s, double filter_s, double refine_s);

/// Ends the traced run: stops recording, records the span breakdown and
/// its reconciliation, and writes the Chrome trace into the work dir.
void FinishTrace(const Config& config, Outcome* outcome);

/// obs.trace_overhead_frac: traced p50 / untraced p50 - 1.
void RecordTraceOverhead(double traced_p50_ms, double untraced_p50_ms,
                         Outcome* outcome);

// --- workloads (one file each) ----------------------------------------------

Outcome RunServeLondon(const Config& config);
Outcome RunEpsChurn(const Config& config);
Outcome RunIngestMixed(const Config& config);
Outcome RunDescribe(const Config& config);

}  // namespace soibench

#endif  // SOIBENCH_HARNESS_H_
