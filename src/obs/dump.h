#ifndef SOI_OBS_DUMP_H_
#define SOI_OBS_DUMP_H_

#include <string>

#include "common/json_writer.h"
#include "common/status.h"
#include "obs/flight_recorder.h"

namespace soi {
namespace obs {

/// Serializes one QueryRecord as a JSON object (keys: query_id, psi_size,
/// k, eps, keyword_ids, timings, work counters, cache_hit, coalesced,
/// status). The writer must be positioned where a value may start.
void WriteQueryRecordJson(const QueryRecord& record, JsonWriter* json);

/// The live introspection surface (DESIGN.md "Observability"): one JSON
/// object capturing what the process is doing right now —
///
///   {"version": 1,
///    "metrics": {counters/gauges/histograms incl. engine gauges
///                soi.engine.inflight / soi.cache.size /
///                soi.scratch.free, histogram exemplar query ids},
///    "flight_recorder": {last_query_id, total_recorded, dropped,
///                        "recent": [QueryRecord...],
///                        "slowest": [QueryRecord...]},
///    "lock_graph": {enabled,
///                   "nodes": [{name, rank}...],
///                   "edges": [{from, to, context}...],
///                   "violations": [{kind, summary, edges}...]}}
///
/// This is the exact component the soid serving binary mounts behind an
/// HTTP endpoint; until then it is reachable in-process, through the
/// soi_obs tool, and via the SIGUSR1 hook below. The lock_graph section
/// (DESIGN.md "Lock ordering & layering") is empty unless the build
/// compiled the detector in (SOI_DEADLOCK_DETECT=ON, the `deadlock` preset).
void DumpState(JsonWriter* json);

/// DumpState into a string.
std::string DumpStateJson();

/// DumpState to a file (atomic enough for operators: written to `path`
/// directly, flushed, write errors reported as kIOError).
[[nodiscard]] Status WriteStateFile(const std::string& path);

/// Installs the SIGUSR1 dump hook: every SIGUSR1 the process receives
/// makes it write DumpState to `path` (overwriting). Call early in
/// main(), before worker threads exist: the calling thread's signal
/// mask — which new threads inherit — is altered to block SIGUSR1, and
/// a dedicated watcher thread consumes the signal with sigwait (writing
/// JSON from an async signal handler would not be signal-safe). The
/// watcher is detached and lives for the process; installing twice or
/// on a non-POSIX platform returns an error.
[[nodiscard]] Status InstallSignalDump(const std::string& path);

}  // namespace obs
}  // namespace soi

#endif  // SOI_OBS_DUMP_H_
