#include "obs/dump.h"

#include <fstream>
#include <sstream>
#include <utility>

#if defined(__unix__) || defined(__APPLE__)
#include <signal.h>
#endif

#include "analysis/lock_graph.h"
#include "common/signal_watch.h"
#include "obs/json_export.h"
#include "obs/metrics.h"
#include "obs/obs.h"

namespace soi {
namespace obs {

void WriteQueryRecordJson(const QueryRecord& record, JsonWriter* json) {
  json->BeginObject();
  json->KeyValue("query_id", record.query_id);
  json->KeyValue("psi_size", record.psi_size);
  json->KeyValue("k", record.k);
  json->KeyValue("eps", record.eps);
  json->Key("keyword_ids");
  json->BeginArray();
  for (int32_t id : record.keyword_ids) json->Int(id);
  json->EndArray();
  json->KeyValue("total_seconds", record.total_seconds);
  json->KeyValue("lists_seconds", record.lists_seconds);
  json->KeyValue("filter_seconds", record.filter_seconds);
  json->KeyValue("refine_seconds", record.refine_seconds);
  json->KeyValue("iterations", record.iterations);
  json->KeyValue("cells_popped", record.cells_popped);
  json->KeyValue("segments_popped", record.segments_popped);
  json->KeyValue("segments_seen", record.segments_seen);
  json->KeyValue("segments_finalized", record.segments_finalized);
  json->KeyValue("poi_distance_checks", record.poi_distance_checks);
  json->KeyValue("cache_hit", record.cache_hit);
  json->KeyValue("coalesced", record.coalesced);
  json->KeyValue("ingest_epoch", record.ingest_epoch);
  json->KeyValue("status", StatusCodeToString(record.status));
  json->EndObject();
}

void DumpState(JsonWriter* json) {
  json->BeginObject();
  json->KeyValue("version", int64_t{1});

  json->Key("metrics");
  WriteMetricsJson(Registry::Global().Snapshot(), json);

  json->Key("flight_recorder");
  json->BeginObject();
  FlightRecorder::Snapshot flights = FlightRecorder::Global().Snap();
  json->KeyValue("last_query_id", flights.last_query_id);
  json->KeyValue("total_recorded", flights.total_recorded);
  json->KeyValue("dropped", flights.dropped);
  json->Key("recent");
  json->BeginArray();
  for (const QueryRecord& record : flights.recent) {
    WriteQueryRecordJson(record, json);
  }
  json->EndArray();
  json->Key("slowest");
  json->BeginArray();
  for (const QueryRecord& record : flights.slowest) {
    WriteQueryRecordJson(record, json);
  }
  json->EndArray();
  json->EndObject();

  // The lock-order graph (analysis/lock_graph.h). Empty with the
  // detector compiled out (the default); under the `deadlock` preset it
  // carries every named mutex, every held->acquired edge observed, and
  // any discipline violations — so a SIGUSR1 state dump from a wedged
  // soid shows which lock orders the process has actually exercised.
  json->Key("lock_graph");
  json->BeginObject();
  json->KeyValue("enabled", lock_graph::kEnabled);
  lock_graph::GraphSnapshot graph = lock_graph::LockGraph::Global().Snapshot();
  json->Key("nodes");
  json->BeginArray();
  for (const lock_graph::NodeSnapshot& node : graph.nodes) {
    json->BeginObject();
    json->KeyValue("name", node.name);
    json->KeyValue("rank", int64_t{node.rank});
    json->EndObject();
  }
  json->EndArray();
  json->Key("edges");
  json->BeginArray();
  for (const lock_graph::EdgeSnapshot& edge : graph.edges) {
    json->BeginObject();
    json->KeyValue("from", edge.from);
    json->KeyValue("to", edge.to);
    json->KeyValue("context", edge.context);
    json->EndObject();
  }
  json->EndArray();
  json->Key("violations");
  json->BeginArray();
  for (const lock_graph::Violation& violation : graph.violations) {
    json->BeginObject();
    json->KeyValue("kind", lock_graph::ViolationKindName(violation.kind));
    json->KeyValue("summary", violation.summary);
    json->Key("edges");
    json->BeginArray();
    for (const std::string& edge : violation.edges) json->String(edge);
    json->EndArray();
    json->EndObject();
  }
  json->EndArray();
  json->EndObject();

  json->EndObject();
}

std::string DumpStateJson() {
  std::ostringstream out;
  JsonWriter json(&out);
  DumpState(&json);
  return out.str();
}

Status WriteStateFile(const std::string& path) {
  std::ofstream file(path);
  if (!file.good()) {
    return Status::IOError("cannot write state file " + path);
  }
  JsonWriter json(&file);
  DumpState(&json);
  file << "\n";
  file.flush();
  if (!json.done() || !file.good()) {
    return Status::IOError("failed writing state file " + path);
  }
  return Status::OK();
}

#if defined(__unix__) || defined(__APPLE__)

Status InstallSignalDump(const std::string& path) {
  // All mask manipulation lives in common/signal_watch.cc so this hook
  // and soid's SIGTERM drain watcher compose in one process instead of
  // clobbering each other's setup; WatchSignal rejects a second SIGUSR1
  // installation with kAlreadyExists.
  return WatchSignal(SIGUSR1, [path] {
    // Best-effort by design: a failed dump (disk full, unlinkable
    // path) must never take down the serving process.
    (void)WriteStateFile(path);
  });
}

#else  // !(__unix__ || __APPLE__)

Status InstallSignalDump(const std::string& path) {
  (void)path;
  return Status::Internal(
      "SIGUSR1 dump hook requires a POSIX signal interface");
}

#endif

}  // namespace obs
}  // namespace soi
