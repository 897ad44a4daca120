// soibench: runs one libsoi benchmark workload and prints its result as
// one JSON line on stdout. Normally started through run.py, which builds
// this binary and checks its metrics against BENCHMARK.json:
//
//   soibench --workload <serve-london|eps-churn|ingest-mixed|describe>
//            --seed <n> --seconds <s> --trace <0|1> --work-dir <dir>

#include <algorithm>
#include <cstdlib>
#include <iostream>
#include <sstream>
#include <string>
#include <thread>

#include "common/json_writer.h"
#include "harness.h"

#ifndef SOIBENCH_COMPILER
#define SOIBENCH_COMPILER "unknown"
#endif
#ifndef SOIBENCH_CXX_FLAGS
#define SOIBENCH_CXX_FLAGS ""
#endif
#ifndef SOIBENCH_BUILD_TYPE
#define SOIBENCH_BUILD_TYPE "unknown"
#endif

namespace soibench {
namespace {

// Thread/connection budget: never more than the host's hardware threads,
// and never more than 4, so hosts with more cores offer the same load.
constexpr int kMaxThreads = 4;

int Usage() {
  std::cerr << "usage: soibench --workload <serve-london|eps-churn|"
               "ingest-mixed|describe> --seed <n> --seconds <s> "
               "--trace <0|1> --work-dir <dir>\n";
  return 2;
}

void Print(const Config& config, const Outcome& outcome) {
  std::ostringstream out;
  soi::JsonWriter json(&out, /*pretty=*/false);
  json.BeginObject();
  json.KeyValue("correct", outcome.correct);
  json.KeyValue("attempted", outcome.attempted);
  json.KeyValue("failed", outcome.failed);
  json.Key("metrics");
  json.BeginObject();
  for (const auto& [name, v] : outcome.metrics.values()) {
    json.Key(name);
    json.BeginObject();
    json.KeyValue("value", v.value);
    json.KeyValue("unit", v.unit);
    json.EndObject();
  }
  json.EndObject();
  json.Key("details");
  json.BeginObject();
  for (const auto& [name, value] : outcome.details) json.KeyValue(name, value);
  json.EndObject();
  json.Key("build_info");
  json.BeginObject();
  json.KeyValue("compiler", SOIBENCH_COMPILER);
  json.KeyValue("cxx_flags", SOIBENCH_CXX_FLAGS);
  json.KeyValue("build_type", SOIBENCH_BUILD_TYPE);
  json.KeyValue("hardware_threads",
                static_cast<int64_t>(std::thread::hardware_concurrency()));
  json.KeyValue("thread_budget", static_cast<int64_t>(config.nproc));
  json.EndObject();
  json.EndObject();
  std::cout << out.str() << std::endl;
}

int Main(int argc, char** argv) {
  Config config;
  bool have_trace = false;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string flag = argv[i];
    const std::string value = argv[i + 1];
    if (flag == "--workload") {
      config.workload = value;
    } else if (flag == "--seed") {
      config.seed = std::strtoull(value.c_str(), nullptr, 10);
    } else if (flag == "--seconds") {
      config.seconds = std::strtod(value.c_str(), nullptr);
    } else if (flag == "--trace") {
      config.trace = value == "1";
      have_trace = value == "0" || value == "1";
    } else if (flag == "--work-dir") {
      config.work_dir = value;
    } else {
      return Usage();
    }
  }
  if (argc % 2 != 1 || config.workload.empty() || !have_trace ||
      config.work_dir.empty() || !(config.seconds > 0)) {
    return Usage();
  }
  config.nproc = std::clamp(
      static_cast<int>(std::thread::hardware_concurrency()), 1, kMaxThreads);
  if (config.trace) Tracer::Get().Enable();

  Outcome outcome;
  if (config.workload == "serve-london") {
    outcome = RunServeLondon(config);
  } else if (config.workload == "eps-churn") {
    outcome = RunEpsChurn(config);
  } else if (config.workload == "ingest-mixed") {
    outcome = RunIngestMixed(config);
  } else if (config.workload == "describe") {
    outcome = RunDescribe(config);
  } else {
    std::cerr << "soibench: unknown workload " << config.workload << "\n";
    return Usage();
  }
  Print(config, outcome);
  return outcome.correct ? 0 : 1;
}

}  // namespace
}  // namespace soibench

int main(int argc, char** argv) { return soibench::Main(argc, argv); }
