// serve-london: open-loop soid traffic against a server warm-started from
// a snapshot, as tools/soid serves. It is the only workload that runs the
// serving front-end, snapshot restore and the engine pool under
// concurrent wire traffic; its three eps values stay warm in the eps
// cache, so eps-map builds are bypassed.
//
// Load: one process, `connections` persistent client connections, each
// request due at start + j/rate and timed from that scheduled instant
// (so a stall also charges the requests queued behind it). Two fixed
// operating points, nominal and high, then the connections saturated
// find capacity.

#include <algorithm>
#include <deque>
#include <iostream>
#include <thread>
#include <tuple>

#include "common/thread_pool.h"
#include "harness.h"
#include "obs/flight_recorder.h"
#include "serve/client.h"
#include "serve/server.h"

namespace soibench {
namespace {

using soi::serve::SoidClient;
using soi::serve::SoidServer;

// Fixed offered rates, req/s. On the reference host (4 hardware threads)
// the saturated capacity is 155-180 req/s, depending on how busy the
// shared machine is; nominal sits at about half of it and high at about
// two thirds. Each connection must send every 4/rate seconds, so a rate
// closer to capacity makes the tail follow the host's speed. The rates
// are constants, not derived per run, so every run and every commit is
// offered the same load.
constexpr double kNominalRate = 80.0;
constexpr double kHighRate = 110.0;
// Requests per operating point: enough for a p99.
constexpr int64_t kPointRequests = kTailSamples;
constexpr int64_t kBlockRequests = 100;
// The saturated phase runs at least this long and kTailSamples requests.
constexpr double kSaturateSeconds = 3.0;
// One request in kCheckEvery is re-run on the direct engine.
constexpr int64_t kCheckEvery = 32;

struct ServeState {
  soi::LoadedSnapshot snap;
  std::unique_ptr<soi::QueryEngine> engine;
  std::unique_ptr<SoidServer> server;  // destroyed first: drains
};

struct Sampled {
  size_t query = 0;
  std::vector<soi::RankedStreet> streets;
};

struct Phase {
  Samples latency_ms;  // scheduled send -> response
  Samples client_ms;   // actual send -> response
  Samples late_ms;     // scheduled send -> actual send
  Samples engine_ms;   // the engine's own wall time, from the flight recorder
  int64_t sent = 0;
  int64_t failed = 0;
  int64_t unmatched = 0;  // requests without an engine record
  std::vector<Sampled> sampled;

  void Merge(Phase&& other) {
    latency_ms.Append(other.latency_ms);
    client_ms.Append(other.client_ms);
    late_ms.Append(other.late_ms);
    engine_ms.Append(other.engine_ms);
    sent += other.sent;
    failed += other.failed;
    unmatched += other.unmatched;
    for (Sampled& s : other.sampled) sampled.push_back(std::move(s));
  }
};

/// Identity of a query as the flight recorder keeps it.
using QueryKey = std::tuple<std::vector<int32_t>, int32_t, double>;

class Generator {
 public:
  Generator(int port, int connections, const std::vector<soi::SoiQuery>* stream)
      : stream_(stream) {
    for (int c = 0; c < connections; ++c) {
      soi::serve::SoidClientOptions options;
      options.port = port;
      options.max_attempts = 1;          // open loop: no retries
      options.io_timeout_seconds = 60.0;  // slowness is data, not failure
      clients_.push_back(std::make_unique<SoidClient>(options));
    }
  }

  /// Offers `requests` requests at `rate` req/s, consuming the stream in
  /// order. The schedule restarts every kBlockRequests requests once the
  /// previous block has been answered, so a stall of the host (not of the
  /// server) cannot snowball into a backlog for the rest of the phase.
  /// With `measure`, each answered request is matched to the engine's
  /// flight record of it: its engine time, and in the traced run the
  /// engine and SOI-phase layers inside the request.
  Phase Run(double rate, int64_t requests, bool measure) {
    Phase out;
    for (int64_t done = 0; done < requests; done += kBlockRequests) {
      out.Merge(RunBlock(rate, std::min(kBlockRequests, requests - done),
                         measure));
    }
    return out;
  }

  /// Keeps every connection busy back to back, with no schedule, until
  /// `seconds` have passed and `min_requests` were answered.
  ClosedLoop Saturate(double seconds, int64_t min_requests) {
    std::atomic<size_t> next{cursor_};
    ClosedLoop out = RunClosedLoop(
        "serve.saturated", static_cast<int>(clients_.size()), seconds,
        min_requests, kPhaseLimitSeconds, [&](int c) {
          const size_t index = next.fetch_add(1) % stream_->size();
          ScopedSpan span("serve.soid_query");
          soi::Result<soi::serve::QueryResponse> response =
              clients_[static_cast<size_t>(c)]->Query((*stream_)[index]);
          if (!response.ok()) {
            CheckTyped(response.status());
            return false;
          }
          return true;
        });
    cursor_ = next.load();
    watermark_ = soi::obs::FlightRecorder::Global().last_query_id();
    return out;
  }

  size_t used() const { return cursor_; }

 private:
  struct Sent {
    uint64_t request = 0;
    size_t query = 0;
  };

  Phase RunBlock(double rate, int64_t total, bool measure) {
    const int connections = static_cast<int>(clients_.size());
    std::vector<Phase> per(static_cast<size_t>(connections));
    std::vector<Sent> sent(static_cast<size_t>(total));
    for (Sent& s : sent) s.request = NextRequestId();
    const size_t base = cursor_;
    const Clock::time_point start =
        Clock::now() + std::chrono::milliseconds(20);
    Tracer& tracer = Tracer::Get();
    std::vector<std::thread> threads;
    for (int c = 0; c < connections; ++c) {
      threads.emplace_back([&, c] {
        Phase& mine = per[static_cast<size_t>(c)];
        SoidClient& client = *clients_[static_cast<size_t>(c)];
        for (int64_t j = c; j < total; j += connections) {
          const Clock::time_point due =
              start + std::chrono::duration_cast<Clock::duration>(
                          std::chrono::duration<double>(j / rate));
          std::this_thread::sleep_until(due);
          Sent& s = sent[static_cast<size_t>(j)];
          s.query = (base + static_cast<size_t>(j)) % stream_->size();
          const Clock::time_point at = Clock::now();
          int64_t root = BeginAt("serve.request", s.request, due);
          EndAt(BeginAt("serve.generator_late", 0, due), at);
          soi::Result<soi::serve::QueryResponse> response = [&] {
            ScopedSpan span("serve.soid_query");
            return client.Query((*stream_)[s.query]);
          }();
          const Clock::time_point done = Clock::now();
          EndAt(root, done);
          tracer.RecordWall(s.request, MillisBetween(due, done));
          mine.latency_ms.Add(MillisBetween(due, done));
          mine.client_ms.Add(MillisBetween(at, done));
          mine.late_ms.Add(MillisBetween(due, at));
          ++mine.sent;
          if (!response.ok()) {
            CheckTyped(response.status());
            ++mine.failed;
          } else if (measure && j % kCheckEvery == 0) {
            mine.sampled.push_back(
                Sampled{s.query, std::move(response).ValueOrDie().streets});
          }
        }
      });
    }
    for (std::thread& thread : threads) thread.join();
    cursor_ += static_cast<size_t>(total);
    Phase out;
    for (Phase& p : per) out.Merge(std::move(p));
    MatchEngineRecords(sent, measure, &out);
    return out;
  }

  /// The engine appends a query's flight record before it returns, so
  /// every answered request of the block has one by now. Records are
  /// matched to requests by query identity, in order.
  void MatchEngineRecords(const std::vector<Sent>& sent, bool measure,
                          Phase* out) {
    const soi::obs::FlightRecorder::Snapshot snap =
        soi::obs::FlightRecorder::Global().Snap();
    std::map<QueryKey, std::deque<const soi::obs::QueryRecord*>> by_key;
    uint64_t last = watermark_;
    for (const soi::obs::QueryRecord& record : snap.recent) {
      if (record.query_id <= watermark_ || record.coalesced) continue;
      last = std::max(last, record.query_id);
      by_key[QueryKey{record.keyword_ids, record.k, record.eps}].push_back(
          &record);
    }
    watermark_ = last;
    if (!measure) return;
    for (const Sent& s : sent) {
      const soi::SoiQuery& query = (*stream_)[s.query];
      auto it = by_key.find(QueryKey{query.keywords.ids(), query.k, query.eps});
      if (it == by_key.end() || it->second.empty()) {
        ++out->unmatched;
        continue;
      }
      const soi::obs::QueryRecord& record = *it->second.front();
      it->second.pop_front();
      out->engine_ms.Add(record.total_seconds * 1e3);
      Tracer::Get().AddReported(s.request, "serve.soid_query",
                                "core.engine.try_run",
                                record.total_seconds * 1e3);
      TraceSoiPhases(s.request, "core.engine.try_run", record.lists_seconds,
                     record.filter_seconds, record.refine_seconds);
    }
  }

  const std::vector<soi::SoiQuery>* stream_;
  std::vector<std::unique_ptr<SoidClient>> clients_;
  size_t cursor_ = 0;
  uint64_t watermark_ = 0;
};

SoidServer::Stats operator-(const SoidServer::Stats& a,
                            const SoidServer::Stats& b) {
  SoidServer::Stats d;
  d.shed_queue_full = a.shed_queue_full - b.shed_queue_full;
  d.expired_at_admission = a.expired_at_admission - b.expired_at_admission;
  d.evicted_slow = a.evicted_slow - b.evicted_slow;
  return d;
}

}  // namespace

Outcome RunServeLondon(const Config& config) {
  Outcome outcome;
  const int workers = config.nproc;
  const int connections = config.nproc;
  soi::ThreadPool setup_pool(config.nproc);

  std::unique_ptr<ServeState> state = RepeatSetup<ServeState>(
      &outcome, [&](SetupTimes* times) {
        const Clock::time_point t0 = Clock::now();
        auto s = std::make_unique<ServeState>();
        s->snap = SetUpFromSnapshot(config, &setup_pool, times);
        soi::QueryEngineOptions engine_options;
        engine_options.num_threads = workers;
        s->engine = std::make_unique<soi::QueryEngine>(
            s->snap.dataset->network, s->snap.indexes->poi_grid,
            s->snap.indexes->global_index, s->snap.indexes->segment_cells,
            engine_options, std::move(s->snap.eps_maps));
        soi::serve::SoidServerOptions server_options;
        server_options.num_workers = workers;
        server_options.queue_capacity = 128;
        s->server = std::make_unique<SoidServer>(s->engine.get(),
                                                 server_options);
        if (soi::Status started = s->server->Start(); !started.ok()) {
          std::cerr << "soibench: SoidServer::Start: " << started.ToString()
                    << "\n";
          std::exit(1);
        }
        times->total_s =
            std::chrono::duration<double>(Clock::now() - t0).count();
        return s;
      });
  soi::QueryEngine& engine = *state->engine;

  std::vector<soi::SoiQuery> stream =
      MakeQueryStream(*state->snap.dataset, config.seed, 1 << 16, QueryMix{});
  Generator generator(state->server->port(), connections, &stream);

  // Warm-up: connect every client and touch every code path once.
  generator.Run(kNominalRate, kBlockRequests / 2, false);
  const soi::serve::SoidServer::Stats stats_before = state->server->stats();
  const LayerWindow window = OpenWindow(engine);

  // The two operating points alternate block by block, so both see the
  // same stretch of the run and a slow spell of the host is shared
  // between them instead of landing on one.
  Phase nominal;
  Phase high;
  for (int64_t done = 0; done < kPointRequests; done += kBlockRequests) {
    nominal.Merge(generator.Run(kNominalRate, kBlockRequests, true));
    high.Merge(generator.Run(kHighRate, kBlockRequests, true));
  }
  RecordEngineLayers(engine, window, &outcome);
  const SoidServer::Stats stats = state->server->stats() - stats_before;
  outcome.metrics.Set("rss_mb", PeakRssMb(), "MB");
  RequireTail(nominal.latency_ms, "nominal");
  RequireTail(high.latency_ms, "high");
  RequireTail(nominal.engine_ms, "nominal engine");

  // Capacity: every connection kept busy back to back. The client is
  // synchronous, so the connections never have more than `connections`
  // requests in flight, and an offered rate above what the server
  // completes turns into generator backlog, not server queueing. The
  // completed rate with the connections saturated is therefore the
  // highest rate served without a growing backlog.
  const ClosedLoop saturated =
      generator.Saturate(kSaturateSeconds, kTailSamples);
  RequireTail(saturated.op_ms, "saturated");

  if (config.trace) {
    FinishTrace(config, &outcome);
    Phase untraced = generator.Run(kNominalRate, kBaselineOps, false);
    RecordTraceOverhead(nominal.latency_ms.Percentile(0.5),
                        untraced.latency_ms.Percentile(0.5), &outcome);
  }

  // Correctness: sampled soid answers must be bit-identical to the
  // direct engine's.
  int64_t mismatches = 0;
  int64_t checked = 0;
  for (const Phase* phase : {&nominal, &high}) {
    for (const Sampled& s : phase->sampled) {
      soi::Result<soi::SoiResult> direct = engine.TryRun(stream[s.query]);
      ++checked;
      if (!direct.ok() ||
          !SameStreets(direct.ValueOrDie().streets, s.streets)) {
        ++mismatches;
      }
    }
  }

  Metrics& m = outcome.metrics;
  m.Set("p50_ms", nominal.latency_ms.Percentile(0.5), "ms");
  m.Set("p99_ms", nominal.latency_ms.Percentile(0.99), "ms");
  m.Set("p99_ms.high", high.latency_ms.Percentile(0.99), "ms");
  m.Set("capacity_qps", saturated.Qps(), "1/s");
  m.Set("core.engine.try_run_p50_ms", nominal.engine_ms.Percentile(0.5),
        "ms");
  m.Set("core.engine.try_run_p99_ms", nominal.engine_ms.Percentile(0.99),
        "ms");
  m.Set("serve.overhead_p50_ms",
        nominal.client_ms.Percentile(0.5) - nominal.engine_ms.Percentile(0.5),
        "ms");
  m.Set("serve.generator_late_p99_ms", nominal.late_ms.Percentile(0.99),
        "ms");
  m.Set("serve.shed_queue_full", static_cast<double>(stats.shed_queue_full),
        "count");
  m.Set("serve.expired_at_admission",
        static_cast<double>(stats.expired_at_admission), "count");
  m.Set("serve.evicted_slow", static_cast<double>(stats.evicted_slow),
        "count");
  m.Set("workload.duplicate_share",
        DuplicateShare(stream, generator.used()), "share");

  outcome.attempted = nominal.sent + high.sent + saturated.ops;
  outcome.failed =
      nominal.failed + high.failed + saturated.failed + mismatches;
  outcome.correct = mismatches == 0;
  auto& d = outcome.details;
  d["nominal_rate"] = kNominalRate;
  d["high_rate"] = kHighRate;
  d["nominal_samples"] = static_cast<double>(nominal.latency_ms.size());
  d["high_samples"] = static_cast<double>(high.latency_ms.size());
  d["engine_samples"] = static_cast<double>(nominal.engine_ms.size());
  d["engine_unmatched"] =
      static_cast<double>(nominal.unmatched + high.unmatched);
  d["saturated_samples"] = static_cast<double>(saturated.op_ms.size());
  d["saturated_p50_ms"] = saturated.op_ms.Percentile(0.5);
  d["saturated_p99_ms"] = saturated.op_ms.Percentile(0.99);
  d["checked"] = static_cast<double>(checked);
  d["mismatches"] = static_cast<double>(mismatches);
  RecordBudget(Budget{connections, connections, workers, workers,
                      config.nproc},
               &outcome);
  return outcome;
}

}  // namespace soibench
