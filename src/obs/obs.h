#ifndef SOI_OBS_OBS_H_
#define SOI_OBS_OBS_H_

/// The umbrella header instrumentation sites include: the SOI_OBS_*
/// macros write to the global metrics registry and SOI_TRACE_SPAN opens a
/// scoped span on the global trace recorder.
///
/// The instrumented build is the only build: every macro below is always
/// live, and tests/obs_determinism_test.cc asserts that the instrumented
/// engine returns results bit-identical to the pure sequential algorithm.
///
/// Naming scheme (see DESIGN.md "Observability"): dot-separated
/// `soi.<subsystem>.<what>[_seconds]`, e.g. `soi.query.filter_seconds`,
/// `soi.cache.hits`, `soi.pool.queue_depth`. Span names mirror the
/// metric subsystem segment: "soi.query" > "soi.lists" / "soi.filter" /
/// "soi.refine", "cache.build_maps", "div.st_rel_div", ...

#include "obs/flight_recorder.h"
#include "obs/metrics.h"
#include "obs/trace.h"

#define SOI_OBS_CONCAT_INNER_(a, b) a##b
#define SOI_OBS_CONCAT_(a, b) SOI_OBS_CONCAT_INNER_(a, b)

/// Records a scoped span named `name` (a string literal) from here to the
/// end of the enclosing block, when trace recording is active.
#define SOI_TRACE_SPAN(name)                                        \
  ::soi::obs::ScopedSpan SOI_OBS_CONCAT_(soi_obs_span_, __LINE__) { \
    name                                                            \
  }

/// Adds `delta` to the global counter `name`. The registry lookup runs
/// once per call site (function-local static); the add itself is a
/// wait-free sharded fetch_add.
#define SOI_OBS_COUNTER_ADD(name, delta)                            \
  do {                                                              \
    static ::soi::obs::Counter* const soi_obs_counter_ =            \
        ::soi::obs::Registry::Global().GetCounter(name);            \
    soi_obs_counter_->Add(delta);                                   \
  } while (false)

/// Adds `delta` to the global gauge `name` (use negative deltas to
/// decrement).
#define SOI_OBS_GAUGE_ADD(name, delta)                              \
  do {                                                              \
    static ::soi::obs::Gauge* const soi_obs_gauge_ =                \
        ::soi::obs::Registry::Global().GetGauge(name);              \
    soi_obs_gauge_->Add(delta);                                     \
  } while (false)

/// Sets the global gauge `name`.
#define SOI_OBS_GAUGE_SET(name, value)                              \
  do {                                                              \
    static ::soi::obs::Gauge* const soi_obs_gauge_ =                \
        ::soi::obs::Registry::Global().GetGauge(name);              \
    soi_obs_gauge_->Set(value);                                     \
  } while (false)

/// Observes `value` (seconds) in the global latency histogram `name`
/// (default 1us..50s exponential buckets).
#define SOI_OBS_HISTOGRAM_OBSERVE(name, value)                      \
  do {                                                              \
    static ::soi::obs::Histogram* const soi_obs_histogram_ =        \
        ::soi::obs::Registry::Global().GetHistogram(name);          \
    soi_obs_histogram_->Observe(value);                             \
  } while (false)

/// SOI_OBS_HISTOGRAM_OBSERVE plus an exemplar stamp: `query_id` (a
/// FlightRecorder query id; 0 = none) becomes the bucket's most recent
/// sample, linking the latency bucket to a replayable QueryRecord.
#define SOI_OBS_HISTOGRAM_OBSERVE_EXEMPLAR(name, value, query_id)   \
  do {                                                              \
    static ::soi::obs::Histogram* const soi_obs_histogram_ =        \
        ::soi::obs::Registry::Global().GetHistogram(name);          \
    soi_obs_histogram_->Observe(value, query_id);                   \
  } while (false)

/// Draws the next process-monotone query id from the global
/// FlightRecorder (1, 2, ...; never 0, the "unset" id).
#define SOI_OBS_NEXT_QUERY_ID() \
  (::soi::obs::FlightRecorder::Global().NextQueryId())

/// Appends a completed ::soi::obs::QueryRecord to the global
/// FlightRecorder.
#define SOI_OBS_FLIGHT_RECORD(record)                         \
  do {                                                        \
    ::soi::obs::FlightRecorder::Global().Record(record);      \
  } while (false)

#endif  // SOI_OBS_OBS_H_
