#include "bench_util.h"

#include <algorithm>
#include <ctime>
#include <thread>

#include "common/stopwatch.h"
#include "obs/json_export.h"
#include "obs/metrics.h"

// Build provenance, injected by bench/CMakeLists.txt at configure time.
// Fallbacks keep non-CMake compiles (e.g. IDE single-TU checks) building.
#ifndef SOI_BUILD_GIT_DESCRIBE
#define SOI_BUILD_GIT_DESCRIBE "unknown"
#endif
#ifndef SOI_BUILD_COMPILER
#define SOI_BUILD_COMPILER "unknown"
#endif
#ifndef SOI_BUILD_CXX_FLAGS
#define SOI_BUILD_CXX_FLAGS ""
#endif
#ifndef SOI_BUILD_TYPE
#define SOI_BUILD_TYPE "unknown"
#endif

namespace soi {
namespace bench_util {
namespace {

// UTC wall-clock of the run start, ISO 8601 ("2026-08-08T12:34:56Z").
std::string UtcTimestamp() {
  // soi-lint: determinism (wall-clock provenance stamp, not a seed)
  std::time_t now = std::time(nullptr);
  std::tm utc = {};
#if defined(_WIN32)
  gmtime_s(&utc, &now);
#else
  gmtime_r(&now, &utc);
#endif
  char buffer[32];
  if (std::strftime(buffer, sizeof(buffer), "%Y-%m-%dT%H:%M:%SZ", &utc) == 0) {
    return "unknown";
  }
  return buffer;
}

}  // namespace

std::vector<std::unique_ptr<CityContext>> LoadCities(
    const BenchOptions& options, double cell_size) {
  std::vector<std::unique_ptr<CityContext>> cities;
  for (const CityProfile& profile : AllCityProfiles(options.scale)) {
    bool wanted = false;
    for (const std::string& name : options.cities) {
      if (name == profile.name) wanted = true;
    }
    if (!wanted) continue;
    auto context = std::make_unique<CityContext>();
    context->profile = profile;
    std::cerr << "[bench] generating " << profile.name << " (scale="
              << options.scale << ", target_segments="
              << profile.target_segments << ", target_pois="
              << profile.target_pois << ")...\n";
    auto dataset = GenerateCity(profile);
    SOI_CHECK(dataset.ok()) << dataset.status().ToString();
    context->dataset = std::move(dataset).ValueOrDie();
    Stopwatch timer;
    context->indexes = BuildIndexes(context->dataset, cell_size);
    context->index_build_seconds = timer.ElapsedSeconds();
    cities.push_back(std::move(context));
  }
  SOI_CHECK(!cities.empty()) << "no city matched --cities";
  return cities;
}

KeywordSet AccumulatedQueryKeywords(const Dataset& dataset, int count) {
  static const char* kTable4Keywords[] = {"religion", "education", "food",
                                          "services"};
  SOI_CHECK(count >= 1 && count <= 4);
  std::vector<KeywordId> ids;
  for (int i = 0; i < count; ++i) {
    KeywordId id = dataset.vocabulary.Find(kTable4Keywords[i]);
    SOI_CHECK(id != kInvalidKeyword)
        << "dataset lacks keyword " << kTable4Keywords[i];
    ids.push_back(id);
  }
  return KeywordSet(std::move(ids));
}

void CheckSameAnswers(const std::vector<Result<SoiResult>>& got,
                      const std::vector<Result<SoiResult>>& want,
                      const char* what) {
  SOI_CHECK(got.size() == want.size());
  for (size_t i = 0; i < got.size(); ++i) {
    const std::vector<RankedStreet>& g = got[i].ValueOrDie().streets;
    const std::vector<RankedStreet>& w = want[i].ValueOrDie().streets;
    SOI_CHECK(g.size() == w.size());
    for (size_t r = 0; r < g.size(); ++r) {
      SOI_CHECK(g[r].street == w[r].street && g[r].interest == w[r].interest &&
                g[r].best_segment == w[r].best_segment)
          << what << " answer differs at query " << i << " rank " << r;
    }
  }
}

BenchJsonFile::BenchJsonFile(const std::string& benchmark,
                             const BenchOptions& options,
                             const std::string& path)
    : path_(path), file_(path), json_(&file_) {
  SOI_CHECK(file_.good()) << "cannot write " << path;
  json_.BeginObject();
  json_.KeyValue("benchmark", benchmark);
  json_.KeyValue("scale", options.scale);
  json_.Key("cities_requested");
  json_.BeginArray();
  for (const std::string& city : options.cities) json_.String(city);
  json_.EndArray();
  // Provenance block: which build, on what hardware, when. Without it a
  // BENCH_*.json number cannot be compared across PRs.
  json_.Key("build_info");
  json_.BeginObject();
  json_.KeyValue("git_describe", SOI_BUILD_GIT_DESCRIBE);
  json_.KeyValue("compiler", SOI_BUILD_COMPILER);
  json_.KeyValue("cxx_flags", SOI_BUILD_CXX_FLAGS);
  json_.KeyValue("build_type", SOI_BUILD_TYPE);
  json_.KeyValue(
      "hardware_threads",
      static_cast<int64_t>(std::max(1u, std::thread::hardware_concurrency())));
  json_.KeyValue("timestamp_utc", UtcTimestamp());
  json_.EndObject();
}

BenchJsonFile::~BenchJsonFile() {
  SOI_CHECK(closed_) << "BenchJsonFile " << path_
                     << " destroyed without Close()";
}

void BenchJsonFile::Close() {
  SOI_CHECK(!closed_) << "BenchJsonFile " << path_ << " closed twice";
  closed_ = true;
  json_.Key("metrics");
  obs::WriteMetricsJson(obs::Registry::Global().Snapshot(), &json_);
  json_.EndObject();
  file_ << "\n";
  file_.flush();
  SOI_CHECK(json_.done() && file_.good()) << "failed writing " << path_;
}

}  // namespace bench_util
}  // namespace soi
