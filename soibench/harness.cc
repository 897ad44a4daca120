#include "harness.h"

#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <iostream>
#include <set>
#include <thread>
#include <tuple>

#include "common/random.h"
#include "common/thread_pool.h"
#include "datagen/city_profile.h"

namespace soibench {

using soi::Dataset;
using soi::SoiQuery;

// --- samples ----------------------------------------------------------------

void Samples::Append(const Samples& other) {
  ms_.insert(ms_.end(), other.ms_.begin(), other.ms_.end());
  sorted_ = false;
}

double Samples::Percentile(double q) const {
  if (ms_.empty()) return 0.0;
  if (!sorted_) {
    std::sort(ms_.begin(), ms_.end());
    sorted_ = true;
  }
  size_t rank = static_cast<size_t>(std::ceil(q * ms_.size()));
  if (rank > 0) --rank;
  return ms_[std::min(rank, ms_.size() - 1)];
}

double MillisBetween(Clock::time_point from, Clock::time_point to) {
  return std::chrono::duration<double, std::milli>(to - from).count();
}

double PeakRssMb() {
  struct rusage usage;
  std::memset(&usage, 0, sizeof(usage));
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB on Linux
}

double Median(std::vector<double> values) {
  std::sort(values.begin(), values.end());
  size_t n = values.size();
  return n % 2 == 1 ? values[n / 2] : 0.5 * (values[n / 2 - 1] + values[n / 2]);
}

// --- inputs -----------------------------------------------------------------

std::vector<SoiQuery> MakeQueryStream(const Dataset& dataset, uint64_t seed,
                                      size_t count, const QueryMix& mix) {
  std::vector<soi::KeywordId> categories;
  for (const soi::CategorySpec& spec :
       soi::LondonProfile(kScale).categories) {
    soi::KeywordId id = dataset.vocabulary.Find(spec.keyword);
    if (id == soi::kInvalidKeyword) {
      std::cerr << "soibench: dataset lacks category " << spec.keyword
                << "\n";
      std::exit(1);
    }
    categories.push_back(id);
  }
  // Stratified: every block holds each (|Psi|, k, eps) combination once,
  // in shuffled order, and keywords are dealt from a shuffled deck of the
  // categories, so the mix of query shapes and how often each keyword is
  // asked for are the same for every seed. Only the keyword subsets and
  // the order vary. (Category sizes differ by 40x, and so does the cost
  // of a query that names one.)
  struct Shape {
    int size;
    int32_t k;
    double eps;
  };
  std::vector<Shape> block;
  for (int size = mix.min_keywords; size <= mix.max_keywords; ++size) {
    for (int32_t k : mix.k_values) {
      for (double eps : mix.eps_values) block.push_back(Shape{size, k, eps});
    }
  }
  soi::Rng rng(seed, /*stream=*/0x51);
  std::vector<soi::KeywordId> deck;
  size_t dealt = 0;
  std::vector<SoiQuery> stream;
  stream.reserve(count);
  while (stream.size() < count) {
    rng.Shuffle(&block);
    for (const Shape& shape : block) {
      if (stream.size() == count) break;
      const size_t size = static_cast<size_t>(shape.size);
      if (deck.size() - dealt < size) {
        // Too few cards left: they are dealt first, then the other
        // categories in fresh shuffled order, so every keyword is still
        // dealt once per deck and a Psi never repeats a keyword.
        std::vector<soi::KeywordId> rest(deck.begin() + dealt, deck.end());
        deck = categories;
        for (soi::KeywordId id : rest) {
          deck.erase(std::find(deck.begin(), deck.end(), id));
        }
        rng.Shuffle(&deck);
        deck.insert(deck.begin(), rest.begin(), rest.end());
        dealt = 0;
      }
      SoiQuery query;
      query.keywords = soi::KeywordSet(std::vector<soi::KeywordId>(
          deck.begin() + dealt, deck.begin() + dealt + size));
      dealt += size;
      query.k = shape.k;
      query.eps = shape.eps;
      stream.push_back(std::move(query));
    }
  }
  return stream;
}

double DuplicateShare(const std::vector<SoiQuery>& stream, size_t used) {
  used = std::min(used, stream.size());
  if (used == 0) return 0.0;
  std::set<std::tuple<std::vector<soi::KeywordId>, int32_t, double>> seen;
  for (size_t i = 0; i < used; ++i) {
    seen.emplace(stream[i].keywords.ids(), stream[i].k, stream[i].eps);
  }
  return 1.0 - static_cast<double>(seen.size()) / static_cast<double>(used);
}

bool SameStreets(const std::vector<soi::RankedStreet>& a,
                 const std::vector<soi::RankedStreet>& b) {
  if (a.size() != b.size()) return false;
  for (size_t i = 0; i < a.size(); ++i) {
    if (a[i].street != b[i].street || a[i].best_segment != b[i].best_segment ||
        std::memcmp(&a[i].interest, &b[i].interest, sizeof(double)) != 0) {
      return false;
    }
  }
  return true;
}

// --- set-up -----------------------------------------------------------------

namespace {

double SecondsSince(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

}  // namespace

soi::LoadedSnapshot SetUpFromSnapshot(const Config& config,
                                      soi::ThreadPool* pool,
                                      SetupTimes* times) {
  Clock::time_point t = Clock::now();
  soi::Result<Dataset> generated = [&] {
    ScopedSpan span("datagen.generate");
    return soi::GenerateCity(soi::LondonProfile(kScale));
  }();
  if (!generated.ok()) {
    std::cerr << "soibench: GenerateCity: " << generated.status().ToString()
              << "\n";
    std::exit(1);
  }
  Dataset dataset = std::move(generated).ValueOrDie();
  times->generate_s = SecondsSince(t);

  t = Clock::now();
  std::unique_ptr<soi::DatasetIndexes> indexes;
  {
    ScopedSpan span("grid.build_indexes");
    indexes = soi::BuildIndexes(dataset, kCellSize, pool);
  }
  times->build_indexes_s = SecondsSince(t);

  t = Clock::now();
  std::vector<std::unique_ptr<soi::EpsAugmentedMaps>> maps;
  {
    ScopedSpan span("grid.eps_maps_build");
    for (double eps : kServeEps) {
      maps.push_back(std::make_unique<soi::EpsAugmentedMaps>(
          indexes->segment_cells, eps, pool));
    }
  }
  times->eps_maps_s = SecondsSince(t);

  const std::string path = config.work_dir + "/london.snap";
  t = Clock::now();
  {
    ScopedSpan span("snapshot.save");
    soi::SnapshotContents contents;
    contents.dataset = &dataset;
    contents.indexes = indexes.get();
    for (const auto& m : maps) contents.eps_maps.push_back(m.get());
    soi::Status saved = soi::SaveSnapshotToFile(contents, path);
    if (!saved.ok()) {
      std::cerr << "soibench: SaveSnapshotToFile: " << saved.ToString()
                << "\n";
      std::exit(1);
    }
  }
  times->save_s = SecondsSince(t);
  maps.clear();
  indexes.reset();

  t = Clock::now();
  soi::Result<soi::LoadedSnapshot> loaded = [&] {
    ScopedSpan span("snapshot.load");
    return soi::LoadSnapshotFromFile(path, pool);
  }();
  if (!loaded.ok()) {
    std::cerr << "soibench: LoadSnapshotFromFile: "
              << loaded.status().ToString() << "\n";
    std::exit(1);
  }
  times->load_s = SecondsSince(t);
  soi::Result<soi::SnapshotInfo> info = soi::InspectSnapshotFile(path);
  times->snapshot_bytes =
      info.ok() ? static_cast<int64_t>(info.ValueOrDie().total_bytes) : 0;
  std::remove(path.c_str());
  return std::move(loaded).ValueOrDie();
}

void RecordSetup(const std::vector<SetupTimes>& runs, Outcome* outcome) {
  auto median_of = [&](double SetupTimes::*field) {
    std::vector<double> values;
    for (const SetupTimes& run : runs) values.push_back(run.*field);
    return Median(values);
  };
  Metrics& m = outcome->metrics;
  m.Set("setup_s", median_of(&SetupTimes::total_s), "s");
  m.Set("datagen.generate_s", median_of(&SetupTimes::generate_s), "s");
  m.Set("grid.build_indexes_s", median_of(&SetupTimes::build_indexes_s),
        "s");
  m.Set("snapshot.save_s", median_of(&SetupTimes::save_s), "s");
  m.Set("snapshot.load_s", median_of(&SetupTimes::load_s), "s");
  m.Set("snapshot.bytes", static_cast<double>(runs.back().snapshot_bytes),
        "bytes");
  outcome->details["setup_eps_maps_s"] = median_of(&SetupTimes::eps_maps_s);
}

// --- load -------------------------------------------------------------------

LayerWindow OpenWindow(const soi::QueryEngine& engine) {
  return LayerWindow{soi::obs::Registry::Global().Snapshot(),
                     engine.cache_stats()};
}

void RecordEngineLayers(const soi::QueryEngine& engine,
                        const LayerWindow& start, Outcome* outcome) {
  soi::obs::MetricsSnapshot now = soi::obs::Registry::Global().Snapshot();
  soi::obs::MetricsSnapshot d = now.Since(start.registry);
  soi::QueryEngine::CacheStats cache = engine.cache_stats();
  Metrics& m = outcome->metrics;

  auto hist_mean_ms = [&](const char* name) {
    const soi::obs::Histogram::Snapshot* h = d.FindHistogram(name);
    return h != nullptr ? h->Mean() * 1e3 : 0.0;
  };
  auto hist_count = [&](const char* name) {
    const soi::obs::Histogram::Snapshot* h = d.FindHistogram(name);
    return h != nullptr ? static_cast<double>(h->total_count) : 0.0;
  };

  // Counts that grow with the number of queries a time-bounded phase
  // completes are reported per query, so a faster engine does not read
  // as more work.
  const double queries =
      static_cast<double>(
          std::max<int64_t>(1, d.CounterOr0("soi.query.count")));
  m.Set("grid.eps_maps_builds",
        hist_count("soi.cache.build_seconds") / queries, "count");
  m.Set("grid.eps_maps_build_ms", hist_mean_ms("soi.cache.build_seconds"),
        "ms");
  const int64_t hits = cache.hits - start.cache.hits;
  const int64_t misses = cache.misses - start.cache.misses;
  m.Set("core.engine.cache_hit_rate",
        hits + misses > 0 ? static_cast<double>(hits) / (hits + misses) : 0.0,
        "share");
  m.Set("core.engine.cache_evictions",
        static_cast<double>(cache.evictions - start.cache.evictions) /
            queries,
        "count");
  m.Set("core.engine.shed",
        static_cast<double>(d.CounterOr0("soi.engine.shed")), "count");

  m.Set("core.soi.lists_ms", hist_mean_ms("soi.query.lists_seconds"), "ms");
  m.Set("core.soi.filter_ms", hist_mean_ms("soi.query.filter_seconds"), "ms");
  m.Set("core.soi.refine_ms", hist_mean_ms("soi.query.refine_seconds"), "ms");
  auto per_query = [&](const char* name) {
    return static_cast<double>(d.CounterOr0(name)) / queries;
  };
  m.Set("core.soi.iterations", per_query("soi.query.iterations"), "count");
  m.Set("core.soi.cells_popped", per_query("soi.query.cells_popped"),
        "count");
  m.Set("core.soi.segments_seen", per_query("soi.query.segments_seen"),
        "count");
  m.Set("core.soi.segments_finalized",
        per_query("soi.query.segments_finalized_in_refinement"), "count");
  m.Set("core.soi.poi_distance_checks",
        per_query("soi.query.poi_distance_checks"), "count");
  const double seen =
      static_cast<double>(d.CounterOr0("soi.query.segments_seen"));
  m.Set("core.soi.refine_yield",
        seen > 0 ? d.CounterOr0("soi.query.segments_finalized_in_refinement") /
                       seen
                 : 0.0,
        "share");

  m.Set("common.pool.queue_wait_ms",
        hist_mean_ms("soi.pool.queue_wait_seconds"), "ms");
  m.Set("common.pool.tasks",
        static_cast<double>(d.CounterOr0("soi.pool.tasks")) / queries,
        "count");
  outcome->details["engine_queries"] = queries;
}

uint64_t NextRequestId() {
  static std::atomic<uint64_t> next{1};
  return next.fetch_add(1, std::memory_order_relaxed);
}

void ClosedLoop::Merge(const ClosedLoop& other) {
  op_ms.Append(other.op_ms);
  ops += other.ops;
  failed += other.failed;
  elapsed_s += other.elapsed_s;
}

ClosedLoop RunClosedLoop(const char* root, int callers, double seconds,
                         int64_t min_ops, double limit_seconds,
                         const std::function<bool(int)>& op) {
  struct PerCaller {
    Samples ms;
    int64_t ops = 0;
    int64_t failed = 0;
  };
  std::vector<PerCaller> per(static_cast<size_t>(callers));
  std::atomic<int64_t> done{0};
  std::atomic<bool> stop{false};
  const Clock::time_point start = Clock::now();
  const Clock::time_point soft_end =
      start + std::chrono::duration_cast<Clock::duration>(
                  std::chrono::duration<double>(seconds));
  const Clock::time_point hard_end =
      start + std::chrono::duration_cast<Clock::duration>(
                  std::chrono::duration<double>(limit_seconds));
  Tracer& tracer = Tracer::Get();
  std::vector<std::thread> threads;
  for (int c = 0; c < callers; ++c) {
    threads.emplace_back([&, c] {
      PerCaller& mine = per[static_cast<size_t>(c)];
      while (!stop.load(std::memory_order_relaxed)) {
        const uint64_t request = NextRequestId();
        Clock::time_point t0 = Clock::now();
        bool ok;
        {
          ScopedSpan span(root, request);
          ok = op(c);
        }
        Clock::time_point t1 = Clock::now();
        const double ms = MillisBetween(t0, t1);
        if (tracer.enabled()) tracer.RecordWall(request, ms);
        mine.ms.Add(ms);
        ++mine.ops;
        if (!ok) ++mine.failed;
        int64_t total = done.fetch_add(1, std::memory_order_relaxed) + 1;
        if ((t1 >= soft_end && total >= min_ops) || t1 >= hard_end) {
          stop.store(true, std::memory_order_relaxed);
        }
      }
    });
  }
  for (std::thread& thread : threads) thread.join();
  ClosedLoop out;
  out.elapsed_s =
      std::chrono::duration<double>(Clock::now() - start).count();
  for (const PerCaller& p : per) {
    out.op_ms.Append(p.ms);
    out.ops += p.ops;
    out.failed += p.failed;
  }
  return out;
}

LoadPoints RunLoadPoints(const char* root, int nominal, int high,
                         double seconds, const std::function<bool(int)>& op) {
  LoadPoints out;
  const double slice_s = seconds / kSlices;
  const double limit_s = kPhaseLimitSeconds / kSlices;
  for (int slice = 0; slice < kSlices; ++slice) {
    out.nominal.Merge(RunClosedLoop(root, nominal, slice_s,
                                    kTailSamples / kSlices, limit_s, op));
    out.high.Merge(RunClosedLoop(root, high, slice_s, kTailSamples / kSlices,
                                 limit_s, op));
  }
  return out;
}

void RequireTail(const Samples& samples, const char* phase) {
  if (static_cast<int64_t>(samples.size()) < kTailSamples) {
    std::cerr << "soibench: the " << phase << " phase collected "
              << samples.size() << " samples, fewer than the "
              << kTailSamples << " a p99 needs (phase limit "
              << kPhaseLimitSeconds << " s)\n";
    std::exit(1);
  }
}

void RecordClosedLoop(const LoadPoints& points, Outcome* outcome) {
  const ClosedLoop& nominal = points.nominal;
  const ClosedLoop& high = points.high;
  RequireTail(nominal.op_ms, "nominal");
  RequireTail(high.op_ms, "high");
  Metrics& m = outcome->metrics;
  m.Set("p50_ms", nominal.op_ms.Percentile(0.5), "ms");
  m.Set("p99_ms", nominal.op_ms.Percentile(0.99), "ms");
  m.Set("p99_ms.high", high.op_ms.Percentile(0.99), "ms");
  m.Set("capacity_qps", high.Qps(), "1/s");
  outcome->details["nominal_samples"] =
      static_cast<double>(nominal.op_ms.size());
  outcome->details["high_samples"] = static_cast<double>(high.op_ms.size());
}

void RecordBudget(const Budget& budget, Outcome* outcome) {
  auto& d = outcome->details;
  d["budget.generator_threads"] = budget.generator_threads;
  d["budget.connections"] = budget.connections;
  d["budget.server_workers"] = budget.server_workers;
  d["budget.engine_pool"] = budget.engine_pool;
  d["budget.setup_pool"] = budget.setup_pool;
}

void CheckTyped(const soi::Status& status) {
  switch (status.code()) {
    case soi::StatusCode::kInvalidArgument:
    case soi::StatusCode::kResourceExhausted:
    case soi::StatusCode::kDeadlineExceeded:
    case soi::StatusCode::kCancelled:
    case soi::StatusCode::kInternal:
    case soi::StatusCode::kIOError:
    case soi::StatusCode::kUnavailable:
      return;
    default:
      std::cerr << "soibench: untyped failure: " << status.ToString() << "\n";
      std::exit(1);
  }
}

// --- tracing ----------------------------------------------------------------

struct Tracer::ThreadSpans {
  struct Reported {
    uint64_t request;
    const char* parent;
    const char* name;
    double ms;
  };
  std::vector<Span> spans;
  std::vector<int64_t> open;  // stack of indices into spans
  std::vector<Reported> reported;
  std::vector<std::pair<uint64_t, double>> walls;  // request, ms
};

Tracer& Tracer::Get() {
  static Tracer* tracer = new Tracer();
  return *tracer;
}

void Tracer::Enable() {
  epoch_ = Clock::now();
  soi::obs::TraceRecorder::Global().Start();
  enabled_.store(true, std::memory_order_release);
}

void Tracer::Disable() { enabled_.store(false, std::memory_order_release); }

int64_t Tracer::ToNs(Clock::time_point t) const {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(t - epoch_)
      .count();
}

int64_t Tracer::Now() const { return ToNs(Clock::now()); }

Tracer::ThreadSpans* Tracer::Local() {
  thread_local ThreadSpans* local = nullptr;
  if (local == nullptr) {
    std::lock_guard<std::mutex> lock(mutex_);
    threads_.push_back(std::make_unique<ThreadSpans>());
    local = threads_.back().get();
  }
  return local;
}

int64_t Tracer::Begin(const char* name, uint64_t request, int64_t start_ns) {
  if (!enabled()) return -1;
  ThreadSpans* local = Local();
  Span span;
  span.name = name;
  span.start_ns = start_ns >= 0 ? start_ns : Now();
  span.parent = local->open.empty() ? -1 : local->open.back();
  span.request = request != 0 || span.parent < 0
                     ? request
                     : local->spans[static_cast<size_t>(span.parent)].request;
  local->spans.push_back(span);
  int64_t handle = static_cast<int64_t>(local->spans.size()) - 1;
  local->open.push_back(handle);
  return handle;
}

void Tracer::End(int64_t handle, int64_t end_ns) {
  if (handle < 0) return;
  ThreadSpans* local = Local();
  local->spans[static_cast<size_t>(handle)].end_ns = end_ns;
  if (!local->open.empty() && local->open.back() == handle) {
    local->open.pop_back();
  }
}

void Tracer::RecordWall(uint64_t request, double ms) {
  if (enabled()) Local()->walls.emplace_back(request, ms);
}

void Tracer::AddReported(uint64_t request, const char* parent,
                         const char* name, double ms) {
  if (!enabled()) return;
  ThreadSpans* local = Local();
  if (request == 0 && !local->open.empty()) {
    request = local->spans[static_cast<size_t>(local->open.back())].request;
  }
  local->reported.push_back(ThreadSpans::Reported{request, parent, name, ms});
}

Tracer::Breakdown Tracer::Derive() const {
  std::lock_guard<std::mutex> lock(mutex_);
  // Every layer of every request, timed or reported, as one node list.
  struct Node {
    const char* name;
    uint64_t request;
    double ms;
    double child_ms = 0.0;
    bool root = false;
  };
  std::vector<Node> nodes;
  std::map<std::pair<uint64_t, std::string>, size_t> by_name;
  for (const auto& thread : threads_) {
    const size_t base = nodes.size();
    for (const Span& span : thread->spans) {
      nodes.push_back(Node{span.name, span.request,
                           (span.end_ns - span.start_ns) / 1e6, 0.0,
                           span.parent < 0});
    }
    for (size_t i = 0; i < thread->spans.size(); ++i) {
      const Span& span = thread->spans[i];
      if (span.parent >= 0) {
        nodes[base + static_cast<size_t>(span.parent)].child_ms +=
            nodes[base + i].ms;
      }
      if (span.request != 0) by_name[{span.request, span.name}] = base + i;
    }
  }
  Breakdown out;
  // Reported layers nest by name: a parent may itself be reported.
  std::vector<std::pair<size_t, const char*>> reported;  // node, parent
  for (const auto& thread : threads_) {
    for (const ThreadSpans::Reported& r : thread->reported) {
      by_name[{r.request, r.name}] = nodes.size();
      reported.emplace_back(nodes.size(), r.parent);
      nodes.push_back(Node{r.name, r.request, r.ms});
    }
  }
  for (const auto& [node, parent] : reported) {
    auto it = by_name.find({nodes[node].request, parent});
    if (it == by_name.end()) {
      ++out.orphans;
    } else {
      nodes[it->second].child_ms += nodes[node].ms;
    }
  }
  std::map<uint64_t, double> layer_ms;  // request -> summed layer self time
  for (const Node& node : nodes) {
    const double self = node.ms - node.child_ms;
    out.self_ms[node.name] += self;
    out.count[node.name] += 1;
    if (!node.root && node.request != 0) layer_ms[node.request] += self;
  }
  for (const auto& thread : threads_) {
    for (const auto& [request, wall] : thread->walls) {
      const double layers = layer_ms[request];
      ++out.requests;
      out.wall_ms += wall;
      out.unattributed_ms += wall - layers;
      if (std::fabs(wall - layers) <= kToleranceShare * wall + kToleranceMs) {
        ++out.reconciled;
      }
    }
  }
  return out;
}

ScopedSpan::ScopedSpan(const char* name, uint64_t request)
    : handle_(Tracer::Get().Begin(name, request, -1)), obs_span_(name) {}

ScopedSpan::~ScopedSpan() {
  if (handle_ >= 0) Tracer::Get().End(handle_, Tracer::Get().Now());
}

int64_t BeginAt(const char* name, uint64_t request, Clock::time_point start) {
  Tracer& tracer = Tracer::Get();
  if (!tracer.enabled()) return -1;
  return tracer.Begin(name, request, tracer.ToNs(start));
}

void EndAt(int64_t handle, Clock::time_point end) {
  Tracer& tracer = Tracer::Get();
  if (handle >= 0) tracer.End(handle, tracer.ToNs(end));
}

void TraceSoiPhases(uint64_t request, const char* parent, double lists_s,
                    double filter_s, double refine_s) {
  Tracer& tracer = Tracer::Get();
  if (!tracer.enabled()) return;
  tracer.AddReported(request, parent, "core.soi.lists", lists_s * 1e3);
  tracer.AddReported(request, parent, "core.soi.filter", filter_s * 1e3);
  tracer.AddReported(request, parent, "core.soi.refine", refine_s * 1e3);
}

void FinishTrace(const Config& config, Outcome* outcome) {
  Tracer& tracer = Tracer::Get();
  tracer.Disable();
  soi::obs::TraceRecorder::Global().Stop();
  Tracer::Breakdown b = tracer.Derive();
  Metrics& m = outcome->metrics;
  m.Set("obs.trace_reconciled_frac",
        b.requests > 0 ? static_cast<double>(b.reconciled) / b.requests : 0.0,
        "share");
  m.Set("obs.trace_unattributed_frac",
        b.wall_ms > 0 ? b.unattributed_ms / b.wall_ms : 0.0, "share");
  for (const auto& [name, self] : b.self_ms) {
    outcome->details["self_ms." + name] = self;
    outcome->details["spans." + name] = static_cast<double>(b.count[name]);
  }
  outcome->details["trace_requests"] = static_cast<double>(b.requests);
  outcome->details["trace_orphans"] = static_cast<double>(b.orphans);
  if (b.reconciled < Tracer::kMinReconciledShare * b.requests) {
    std::cerr << "soibench: warning: only " << b.reconciled << " of "
              << b.requests << " traced requests reconcile with their wall "
              << "time\n";
  }
  const std::string path = config.work_dir + "/trace-" + config.workload +
                           ".json";
  soi::Status written =
      soi::obs::TraceRecorder::Global().WriteChromeTrace(path);
  if (!written.ok()) {
    std::cerr << "soibench: writing " << path << ": " << written.ToString()
              << "\n";
  } else {
    std::cerr << "soibench: wrote Chrome trace " << path << "\n";
  }
}

void RecordTraceOverhead(double traced_p50_ms, double untraced_p50_ms,
                         Outcome* outcome) {
  outcome->metrics.Set(
      "obs.trace_overhead_frac",
      untraced_p50_ms > 0 ? traced_p50_ms / untraced_p50_ms - 1.0 : 0.0,
      "share");
}

}  // namespace soibench
