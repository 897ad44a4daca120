#ifndef SOI_BENCH_BENCH_UTIL_H_
#define SOI_BENCH_BENCH_UTIL_H_

#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <iostream>
#include <memory>
#include <string>
#include <vector>

#include "common/check.h"
#include "common/json_writer.h"
#include "common/status.h"
#include "common/string_util.h"
#include "core/soi_query.h"
#include "datagen/city_profile.h"
#include "datagen/dataset.h"

namespace soi {
namespace bench_util {

/// Shared knobs of the experiment harnesses. Every bench binary accepts:
///   --scale=<0..1>   dataset scale relative to the paper's Table 1 sizes
///                    (default 0.1: full sweeps in seconds)
///   --cities=London,Berlin,Vienna   subset of cities to run
struct BenchOptions {
  double scale = 0.1;
  std::vector<std::string> cities = {"London", "Berlin", "Vienna"};
};

inline BenchOptions ParseBenchOptions(int argc, char** argv) {
  BenchOptions options;
  for (int i = 1; i < argc; ++i) {
    std::string arg = argv[i];
    if (arg.rfind("--scale=", 0) == 0) {
      auto value = ParseDouble(arg.substr(8));
      SOI_CHECK(value.ok() && value.ValueOrDie() > 0 &&
                value.ValueOrDie() <= 1)
          << "--scale must be in (0, 1]";
      options.scale = value.ValueOrDie();
    } else if (arg.rfind("--cities=", 0) == 0) {
      options.cities = Split(arg.substr(9), ',');
    } else if (arg.rfind("--benchmark", 0) == 0) {
      // Passed through to google-benchmark binaries.
    } else {
      std::cerr << "unknown flag: " << arg
                << " (supported: --scale=, --cities=)\n";
      std::exit(2);
    }
  }
  return options;
}

/// One city's generated dataset plus its offline index suite.
struct CityContext {
  CityProfile profile;
  Dataset dataset;
  std::unique_ptr<DatasetIndexes> indexes;
  double index_build_seconds = 0.0;
};

/// Generates (deterministically) the requested cities at the requested
/// scale and builds their indices with grid cell size `cell_size`.
std::vector<std::unique_ptr<CityContext>> LoadCities(
    const BenchOptions& options, double cell_size = 0.0005);

/// The accumulated Table 4 query keyword sets: the first `count` of
/// {religion, education, food, services}, resolved in the dataset's
/// vocabulary.
KeywordSet AccumulatedQueryKeywords(const Dataset& dataset, int count);

/// Fatal unless both TryRunBatch results succeeded with identical answers
/// (streets, exact interests, best segments); `what` labels a failure.
void CheckSameAnswers(const std::vector<Result<SoiResult>>& got,
                      const std::vector<Result<SoiResult>>& want,
                      const char* what);

/// The one machine-readable results writer shared by the experiment
/// drivers (Figure 4/5/6, throughput): streams the standard BENCH_*.json
/// envelope
///
///   {"benchmark": <name>, "scale": <--scale>, "cities_requested": [...],
///    "build_info": {git_describe, compiler, cxx_flags, build_type,
///                   hardware_threads, timestamp_utc},
///    <caller-written fields>, "metrics": <global metrics snapshot>}
///
/// The constructor opens the file and writes the header fields; the
/// caller adds its payload through json() (which is positioned inside
/// the root object); Close() appends the metrics-registry snapshot
/// (counters, gauges, per-phase latency histograms) and closes the
/// document.
class BenchJsonFile {
 public:
  BenchJsonFile(const std::string& benchmark, const BenchOptions& options,
                const std::string& path);
  ~BenchJsonFile();

  BenchJsonFile(const BenchJsonFile&) = delete;
  BenchJsonFile& operator=(const BenchJsonFile&) = delete;

  /// The underlying writer, inside the root object: add payload with
  /// Key()/KeyValue()/containers.
  JsonWriter* json() { return &json_; }

  /// Embeds the metrics snapshot, closes the root object, flushes, and
  /// checks the file wrote cleanly. Must be called exactly once.
  void Close();

 private:
  std::string path_;
  std::ofstream file_;
  JsonWriter json_;
  bool closed_ = false;
};

}  // namespace bench_util
}  // namespace soi

#endif  // SOI_BENCH_BENCH_UTIL_H_
