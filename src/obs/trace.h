#ifndef SOI_OBS_TRACE_H_
#define SOI_OBS_TRACE_H_

#include <atomic>
#include <cstdint>
#include <memory>
#include <ostream>
#include <string>
#include <vector>

#include "common/mutex.h"
#include "common/status.h"
#include "common/thread_annotations.h"

namespace soi {
namespace obs {

/// One completed span: a named begin/end interval on one thread.
/// `name` must be a string literal (spans are recorded by pointer; no
/// allocation on the hot path).
struct TraceEvent {
  const char* name = nullptr;
  /// Nanoseconds since the recorder was started.
  int64_t start_ns = 0;
  int64_t duration_ns = 0;
  /// Small stable id assigned per recording thread (0, 1, ...).
  int32_t thread_id = 0;
  /// Span nesting depth on its thread at begin time (0 = outermost).
  int32_t depth = 0;
};

/// Collects spans into fixed-capacity per-thread ring buffers while a
/// recording session is active, and exports them as Chrome trace_event
/// JSON (load chrome://tracing or https://ui.perfetto.dev).
///
/// Lifecycle: Start(capacity) arms recording and clears previous events;
/// Stop() disarms (buffers stay readable); Collect()/ExportChromeJson()
/// read back. Spans opened while recording is off cost two relaxed loads
/// and record nothing. When a thread's ring fills, its oldest events are
/// overwritten and counted in dropped().
///
/// Thread-safe; span recording takes only the recording thread's own
/// buffer mutex (uncontended except against a concurrent Collect).
class TraceRecorder {
 public:
  TraceRecorder() = default;
  TraceRecorder(const TraceRecorder&) = delete;
  TraceRecorder& operator=(const TraceRecorder&) = delete;

  /// The process-wide recorder that SOI_TRACE_SPAN writes to.
  static TraceRecorder& Global();

  /// Arms recording with `events_per_thread` ring slots per thread and
  /// clears previously collected events. Restarting while active is
  /// allowed (in-flight spans whose begin predates the restart are
  /// dropped on end).
  void Start(size_t events_per_thread = 1 << 14) SOI_EXCLUDES(mutex_);

  /// Disarms recording. Spans currently open complete without recording.
  void Stop();

  bool active() const { return active_.load(std::memory_order_relaxed); }

  /// All recorded events, sorted by start time (ties: deeper span last so
  /// parents order before their children).
  std::vector<TraceEvent> Collect() const SOI_EXCLUDES(mutex_);

  /// Events overwritten because a per-thread ring filled.
  int64_t dropped() const SOI_EXCLUDES(mutex_);

  /// Writes the events as a Chrome trace_event JSON document
  /// ({"traceEvents": [...]}, complete "X" events, microsecond units).
  void ExportChromeJson(std::ostream* out) const;

  /// ExportChromeJson to a file.
  [[nodiscard]] Status WriteChromeTrace(const std::string& path) const;

 private:
  friend class ScopedSpan;

  struct ThreadBuffer {
    mutable Mutex mutex{"obs.TraceRecorder.ring", lock_graph::kRankLeaf};
    // Assigned once at registration (under the recorder's mutex_), then
    // read-only; not guarded.
    int32_t thread_id = 0;
    std::vector<TraceEvent> ring SOI_GUARDED_BY(mutex);
    size_t next SOI_GUARDED_BY(mutex) = 0;   // next write position
    size_t count SOI_GUARDED_BY(mutex) = 0;  // live events (<= ring size)
    int64_t dropped SOI_GUARDED_BY(mutex) = 0;
    // Session the ring contents belong to.
    uint64_t session SOI_GUARDED_BY(mutex) = 0;
  };

  /// The calling thread's buffer, created and registered on first use.
  ThreadBuffer* LocalBuffer() SOI_EXCLUDES(mutex_);
  void Record(const char* name, int64_t start_ns, int64_t duration_ns,
              int32_t depth, uint64_t session);

  /// Nanoseconds since the current session's epoch.
  int64_t NowNs() const;

  std::atomic<bool> active_{false};
  std::atomic<uint64_t> session_{0};
  std::atomic<int64_t> epoch_ns_{0};  // steady_clock epoch of the session
  std::atomic<size_t> capacity_{1 << 14};

  // Guards buffers_ registration/iteration; held across the per-buffer
  // ring locks in Collect(), hence the lower rank.
  mutable Mutex mutex_{"obs.TraceRecorder.buffers",
                       lock_graph::kRankObsOuter};
  std::vector<std::unique_ptr<ThreadBuffer>> buffers_ SOI_GUARDED_BY(mutex_);
};

/// RAII span: records one TraceEvent on the global recorder from
/// construction to destruction, if a recording session is active at
/// construction time. Use through SOI_TRACE_SPAN (obs.h).
class ScopedSpan {
 public:
  explicit ScopedSpan(const char* name);
  ~ScopedSpan();

  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

 private:
  const char* name_;
  int64_t start_ns_ = 0;
  uint64_t session_ = 0;
  int32_t depth_ = 0;
  bool recording_ = false;
};

}  // namespace obs
}  // namespace soi

#endif  // SOI_OBS_TRACE_H_
