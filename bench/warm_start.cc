// Warm-start benchmark (DESIGN.md "Persistence & warm start"): per city,
// measures the cold serving path (BuildIndexes + eps-augmentation builds)
// against snapshot save + load, checks the warm-started QueryEngine
// answers bit-identically to the cold one, and reports the snapshot's
// per-section sizes. Machine-readable results go to
// BENCH_soi_warm_start.json in the working directory; the acceptance bar
// is load strictly faster than the cold build it replaces.

#include <cstdio>
#include <iostream>
#include <memory>
#include <string>
#include <vector>

#include "bench_util.h"
#include "common/stopwatch.h"
#include "core/query_engine.h"
#include "eval/table_printer.h"
#include "snapshot/snapshot.h"

namespace soi {
namespace {

constexpr double kEpsValues[] = {0.0004, 0.0005, 0.0007};
constexpr double kCellSize = 0.0005;

struct CityRun {
  std::string city;
  double cold_build_seconds = 0.0;  // BuildIndexes + all eps builds
  double save_seconds = 0.0;
  double load_seconds = 0.0;
  double speedup = 0.0;  // cold_build_seconds / load_seconds
  uint64_t snapshot_bytes = 0;
  SnapshotInfo info;
};

std::vector<SoiQuery> MakeProbeBatch(const Dataset& dataset) {
  std::vector<SoiQuery> batch;
  for (double eps : kEpsValues) {
    for (int psi = 1; psi <= 4; ++psi) {
      SoiQuery query;
      query.keywords = bench_util::AccumulatedQueryKeywords(dataset, psi);
      query.k = 20;
      query.eps = eps;
      batch.push_back(query);
    }
  }
  return batch;
}

CityRun MeasureCity(const Dataset& dataset) {
  CityRun out;
  out.city = dataset.name;
  std::string path = "BENCH_warm_start_" + dataset.name + ".snapshot";

  // Cold path: everything a process restart has to redo without a
  // snapshot — offline index suite plus the per-eps augmentations.
  Stopwatch cold_timer;
  std::unique_ptr<DatasetIndexes> indexes = BuildIndexes(dataset, kCellSize);
  std::vector<std::unique_ptr<EpsAugmentedMaps>> cold_maps;
  for (double eps : kEpsValues) {
    cold_maps.push_back(
        std::make_unique<EpsAugmentedMaps>(indexes->segment_cells, eps));
  }
  out.cold_build_seconds = cold_timer.ElapsedSeconds();

  SnapshotContents contents;
  contents.dataset = &dataset;
  contents.indexes = indexes.get();
  for (const std::unique_ptr<EpsAugmentedMaps>& maps : cold_maps) {
    contents.eps_maps.push_back(maps.get());
  }
  Stopwatch save_timer;
  Status saved = SaveSnapshotToFile(contents, path);
  SOI_CHECK(saved.ok()) << saved.ToString();
  out.save_seconds = save_timer.ElapsedSeconds();

  Stopwatch load_timer;
  Result<LoadedSnapshot> loaded = LoadSnapshotFromFile(path);
  SOI_CHECK(loaded.ok()) << loaded.status().ToString();
  out.load_seconds = load_timer.ElapsedSeconds();
  out.speedup = out.cold_build_seconds / out.load_seconds;

  Result<SnapshotInfo> info = InspectSnapshotFile(path);
  SOI_CHECK(info.ok()) << info.status().ToString();
  out.info = info.ValueOrDie();
  out.snapshot_bytes = out.info.total_bytes;

  // Determinism probe: a cold engine and a warm-started engine over the
  // restored state must answer bit-identically.
  const LoadedSnapshot& snap = loaded.ValueOrDie();
  std::vector<SoiQuery> batch = MakeProbeBatch(dataset);
  QueryEngineOptions options;
  options.eps_cache_capacity = sizeof(kEpsValues) / sizeof(kEpsValues[0]);
  QueryEngine cold_engine(dataset.network, indexes->poi_grid,
                          indexes->global_index, indexes->segment_cells,
                          options);
  QueryEngine warm_engine(snap.dataset->network, snap.indexes->poi_grid,
                          snap.indexes->global_index,
                          snap.indexes->segment_cells, options,
                          snap.eps_maps);
  bench_util::CheckSameAnswers(warm_engine.TryRunBatch(batch),
                               cold_engine.TryRunBatch(batch), "warm-start");
  // The warm engine served every eps from the preloaded maps.
  SOI_CHECK(warm_engine.cache_stats().misses == 0)
      << "warm-start engine rebuilt maps it was seeded with";

  std::remove(path.c_str());
  return out;
}

}  // namespace
}  // namespace soi

int main(int argc, char** argv) {
  using namespace soi;
  bench_util::BenchOptions options =
      bench_util::ParseBenchOptions(argc, argv);
  std::vector<std::unique_ptr<bench_util::CityContext>> cities =
      bench_util::LoadCities(options);

  std::vector<CityRun> runs;
  for (const std::unique_ptr<bench_util::CityContext>& city : cities) {
    runs.push_back(MeasureCity(city->dataset));
  }

  TablePrinter table({"city", "cold build", "save", "load", "speedup",
                      "snapshot MB"});
  for (const CityRun& run : runs) {
    // The two-argument FormatDouble is eval/table_printer.h's
    // fixed-precision formatter (the one-argument round-trippable
    // overload lives in common/string_util.h).
    table.AddRow({run.city, FormatMillis(run.cold_build_seconds),
                  FormatMillis(run.save_seconds),
                  FormatMillis(run.load_seconds),
                  FormatDouble(run.speedup, 2),
                  FormatDouble(static_cast<double>(run.snapshot_bytes) /
                                   (1024.0 * 1024.0),
                               2)});
  }
  table.Print(&std::cout);

  bench_util::BenchJsonFile out("soi_warm_start", options,
                                "BENCH_soi_warm_start.json");
  JsonWriter* json = out.json();
  json->KeyValue("cell_size", kCellSize);
  json->Key("eps_values");
  json->BeginArray();
  for (double eps : kEpsValues) json->Double(eps);
  json->EndArray();
  json->Key("cities");
  json->BeginArray();
  bool all_faster = true;
  for (const CityRun& run : runs) {
    json->BeginObject();
    json->KeyValue("city", run.city);
    json->KeyValue("cold_build_seconds", run.cold_build_seconds);
    json->KeyValue("save_seconds", run.save_seconds);
    json->KeyValue("load_seconds", run.load_seconds);
    json->KeyValue("speedup_vs_cold_build", run.speedup);
    json->KeyValue("snapshot_bytes", run.snapshot_bytes);
    json->Key("sections");
    json->BeginArray();
    for (const SnapshotSectionInfo& section : run.info.sections) {
      json->BeginObject();
      json->KeyValue("name", section.name);
      json->KeyValue("bytes", section.bytes);
      json->EndObject();
    }
    json->EndArray();
    json->KeyValue("load_faster_than_cold",
                   run.load_seconds < run.cold_build_seconds);
    json->EndObject();
    all_faster = all_faster && run.load_seconds < run.cold_build_seconds;
  }
  json->EndArray();
  json->KeyValue("all_loads_faster_than_cold", all_faster);
  out.Close();

  if (!all_faster) {
    std::cerr << "warm start failed its bar: snapshot load was not "
                 "strictly faster than the cold build\n";
    return 1;
  }
  std::cout << "\nwrote BENCH_soi_warm_start.json\n";
  return 0;
}
