#ifndef SOI_SERVE_SERVER_H_
#define SOI_SERVE_SERVER_H_

#include <atomic>
#include <cstdint>
#include <deque>
#include <memory>
#include <string>
#include <thread>
#include <unordered_map>
#include <vector>

#include "common/cancellation.h"
#include "common/mutex.h"
#include "common/status.h"
#include "common/thread_annotations.h"
#include "serve/net.h"
#include "serve/protocol.h"

namespace soi {

class QueryEngine;

namespace serve {

/// Tuning and robustness knobs of the soid front-end. Every bound is a
/// fail-closed overload valve: connections above max_connections are
/// refused, requests above queue_capacity are shed with
/// kResourceExhausted, and a client that stalls mid-frame or cannot
/// drain its responses is evicted rather than allowed to pin a worker.
struct SoidServerOptions {
  std::string host = "127.0.0.1";
  /// 0 = kernel-assigned ephemeral port, readable via port() after
  /// Start() (how tests and the in-process bench bind).
  int port = 0;
  /// Worker threads executing requests against the engine.
  int num_workers = 4;
  /// Bounded request queue capacity — the explicit backpressure valve.
  size_t queue_capacity = 64;
  /// Concurrent connection cap; excess accepts are answered with one
  /// kResourceExhausted error frame and closed.
  size_t max_connections = 64;
  /// Slow-client eviction: no bytes for this long mid-frame, or a
  /// response the peer will not drain within write_timeout_seconds,
  /// closes the connection. Idle connections (no frame in progress) are
  /// not evicted.
  double read_timeout_seconds = 10.0;
  double write_timeout_seconds = 10.0;
  /// Graceful drain budget: after RequestDrain(), in-flight and queued
  /// requests get this long to finish before their tokens are cancelled
  /// and queued work is answered with kCancelled.
  double drain_deadline_seconds = 5.0;
  /// When non-empty, Wait() flushes obs::DumpState JSON here as the last
  /// act of a drain — the post-mortem flight record of the process.
  std::string drain_state_path;
};

/// The soid serving front-end (DESIGN.md "Serving & overload"): a TCP
/// server speaking the serve/protocol.h framing over one warm-started
/// QueryEngine.
///
/// Threading model: one accept loop (50ms poll tick so drain is prompt),
/// one reader thread per live connection, and num_workers worker threads
/// consuming the bounded request queue. Readers decode + admit (frame
/// validation, wire-deadline token construction, expired-at-admission
/// shedding, queue backpressure); workers evaluate through
/// QueryEngine::TryRun with the request's CancellationToken and write
/// the response under the connection's write lock. Every failure is a
/// typed error frame or a counted eviction — never a crash, never a
/// silent drop (chaos-gated by tests/serve_chaos_test.cc).
///
/// Drain state machine: kServing -> (RequestDrain, e.g. SIGTERM) ->
/// kDraining (listener closed; readers keep reading, and any complete
/// frame that arrives after the transition — including one that raced
/// the SIGTERM in a socket buffer — is answered with a typed
/// kUnavailable error frame before the connection closes, never a
/// silent drop) -> [drain deadline elapses] kCancelling (in-flight
/// tokens cancelled, queued requests answered kCancelled) -> kStopped
/// (workers joined, readers exited, obs state file flushed).
class SoidServer {
 public:
  enum class State { kIdle, kServing, kDraining, kCancelling, kStopped };

  /// Monotone counters mirrored into the soi.serve.* metrics.
  struct Stats {
    int64_t accepted = 0;
    int64_t connections_rejected = 0;
    int64_t requests = 0;
    int64_t responses_ok = 0;
    int64_t responses_error = 0;
    int64_t bad_frames = 0;
    int64_t shed_queue_full = 0;
    int64_t expired_at_admission = 0;
    int64_t evicted_slow = 0;
    /// Complete frames read after the drain transition and answered with
    /// a kUnavailable error frame (the drain-race guarantee).
    int64_t rejected_draining = 0;
    int64_t drain_cancelled = 0;
    int64_t faults_injected = 0;
  };

  /// The engine must be thread-safe (it is) and outlive the server.
  SoidServer(QueryEngine* engine, SoidServerOptions options);
  ~SoidServer();

  SoidServer(const SoidServer&) = delete;
  SoidServer& operator=(const SoidServer&) = delete;

  /// Binds, listens, and spawns the accept loop and workers. Fails
  /// (kIOError / kInvalidArgument) without leaking threads.
  [[nodiscard]] Status Start();

  /// The bound port (valid after Start(); the ephemeral answer when
  /// options.port was 0).
  int port() const { return port_; }

  /// Begins graceful drain. Idempotent, async-signal-watcher friendly
  /// (ordinary thread context required — wire it to SIGTERM through
  /// common/signal_watch.h, never a raw signal handler). The actual
  /// teardown runs on the thread blocked in Wait().
  void RequestDrain();

  /// Blocks until a requested drain completes, then tears down: joins
  /// the accept loop and workers, waits for reader threads, flushes the
  /// drain state file. Returns OK on a fully clean drain (every request
  /// finished within the drain deadline), kDeadlineExceeded when
  /// in-flight work had to be cancelled, or the state-file write error.
  /// Must be called exactly once per successful Start(); the destructor
  /// calls RequestDrain() + Wait() if the caller has not.
  [[nodiscard]] Status Wait();

  State state() const { return state_.load(std::memory_order_acquire); }
  Stats stats() const;

 private:
  struct Connection;
  struct Request {
    std::shared_ptr<Connection> conn;
    QueryRequest wire;
    CancellationToken token;
    uint64_t serial = 0;
  };

  void AcceptLoop();
  void ReaderLoop(std::shared_ptr<Connection> conn);
  void WorkerLoop();

  /// One frame: header + payload + dispatch. Returns false when the
  /// connection is done (EOF, eviction, protocol violation).
  bool ServeOneFrame(const std::shared_ptr<Connection>& conn);
  void HandleQuery(const std::shared_ptr<Connection>& conn,
                   QueryRequest request);
  void ExecuteRequest(const Request& request);

  /// Serialized, best-effort frame write; evicts the connection on a
  /// send timeout (slow client) and counts every failure.
  void WriteFrame(const std::shared_ptr<Connection>& conn,
                  const std::string& frame);
  void WriteError(const std::shared_ptr<Connection>& conn,
                  uint64_t request_id, const Status& status);
  void EvictConnection(const std::shared_ptr<Connection>& conn,
                       const char* why);

  /// OK, or why the request was not admitted (kResourceExhausted when
  /// the queue is full, kCancelled when the server is draining).
  [[nodiscard]] Status TryEnqueue(Request request);
  /// Pops one request; false when the queue is stopped and empty.
  bool PopRequest(Request* out);

  void RegisterToken(uint64_t serial, const CancellationToken& token);
  void ReleaseToken(uint64_t serial);
  void FinishRequest();

  QueryEngine* const engine_;
  const SoidServerOptions options_;
  int port_ = 0;
  Listener listener_;
  std::atomic<State> state_{State::kIdle};

  std::thread accept_thread_;
  std::vector<std::thread> workers_;

  std::atomic<bool> drain_requested_{false};
  std::atomic<bool> stop_accepting_{false};
  /// Set at the kServing -> kDraining transition. Readers poll it on a
  /// short first-byte tick: an idle connection closes promptly, while a
  /// frame already in the socket buffer is still read in full and
  /// answered with kUnavailable instead of being silently dropped.
  std::atomic<bool> draining_reads_{false};
  /// Set in kCancelling: workers answer queued requests with kCancelled
  /// instead of evaluating them.
  std::atomic<bool> cancel_queued_{false};

  mutable Mutex queue_mutex_{"serve.SoidServer.queue",
                             lock_graph::kRankServe};
  CondVar queue_cv_;
  std::deque<Request> queue_ SOI_GUARDED_BY(queue_mutex_);
  bool queue_stopped_ SOI_GUARDED_BY(queue_mutex_) = false;
  /// Admitted requests not yet answered (queued + executing); the
  /// quantity drain waits on.
  int64_t outstanding_ SOI_GUARDED_BY(queue_mutex_) = 0;
  CondVar drain_cv_;  // signalled when outstanding_ hits zero
  CondVar drain_request_cv_;  // signalled by RequestDrain

  mutable Mutex conns_mutex_{"serve.SoidServer.conns",
                             lock_graph::kRankServe};
  std::unordered_map<uint64_t, std::shared_ptr<Connection>> conns_
      SOI_GUARDED_BY(conns_mutex_);
  uint64_t next_conn_id_ SOI_GUARDED_BY(conns_mutex_) = 0;
  /// Live reader threads (they are detached; drain waits for zero).
  int64_t readers_active_ SOI_GUARDED_BY(conns_mutex_) = 0;
  CondVar readers_cv_;

  mutable Mutex tokens_mutex_{"serve.SoidServer.tokens",
                              lock_graph::kRankServe};
  std::unordered_map<uint64_t, CancellationToken> inflight_tokens_
      SOI_GUARDED_BY(tokens_mutex_);
  std::atomic<uint64_t> next_serial_{0};

  struct AtomicStats;
  std::unique_ptr<AtomicStats> stats_;
};

/// Installs a SIGTERM watcher (through the shared common/signal_watch.h
/// mask helper, so it composes with obs::InstallSignalDump's SIGUSR1
/// hook) that calls server->RequestDrain(). Call before Start() and
/// before other threads exist; the server must outlive the process's
/// last SIGTERM delivery.
[[nodiscard]] Status InstallSigtermDrain(SoidServer* server);

}  // namespace serve
}  // namespace soi

#endif  // SOI_SERVE_SERVER_H_
