// Reproduces Figure 4 of the paper: execution time of the SOI algorithm
// vs the BL baseline on each city, (a-c) varying k with |Psi|=3, and
// (d-f) varying |Psi| with k=50. SOI's time is broken down into list
// construction / filtering / refinement, as in the paper's stacked bars.
//
// Expected shape (paper): SOI outperforms BL by ~2.1-3.2x on London,
// 1.6-2.1x on Berlin, 1.1-2.5x on Vienna when varying k, and by 1.1x up
// to 18x when varying |Psi| (more selective keyword sets prune more).

#include <iostream>

#include "bench_util.h"
#include "common/stopwatch.h"
#include "core/soi_algorithm.h"
#include "core/soi_baseline.h"
#include "eval/table_printer.h"

namespace soi {
namespace {

struct Measurement {
  SoiQueryStats soi_stats;
  double soi_seconds = 0.0;
  double bl_seconds = 0.0;
};

Measurement Measure(const bench_util::CityContext& city,
                    const SoiQuery& query, const EpsAugmentedMaps& maps) {
  SoiAlgorithm algorithm(city.dataset.network, city.indexes->poi_grid,
                         city.indexes->global_index);
  SoiBaseline baseline(city.dataset.network, city.indexes->poi_grid);

  Measurement m;
  // Warm-up + best-of-3 to de-noise (queries are deterministic).
  for (int run = 0; run < 3; ++run) {
    Stopwatch timer;
    SoiResult result = algorithm.TryTopK(query, maps).ValueOrDie();
    double elapsed = timer.ElapsedSeconds();
    if (run == 0 || elapsed < m.soi_seconds) {
      m.soi_seconds = elapsed;
      m.soi_stats = result.stats;
    }
  }
  for (int run = 0; run < 3; ++run) {
    Stopwatch timer;
    SoiResult result = baseline.TopK(query, maps);
    double elapsed = timer.ElapsedSeconds();
    if (run == 0 || elapsed < m.bl_seconds) m.bl_seconds = elapsed;
  }
  return m;
}

void AddRow(TablePrinter* table, const std::string& label,
            const Measurement& m) {
  double speedup = m.soi_seconds > 0 ? m.bl_seconds / m.soi_seconds : 0.0;
  table->AddRow({label, FormatMillis(m.soi_seconds),
                 FormatMillis(m.soi_stats.list_construction_seconds),
                 FormatMillis(m.soi_stats.filtering_seconds),
                 FormatMillis(m.soi_stats.refinement_seconds),
                 FormatMillis(m.bl_seconds),
                 FormatDouble(speedup, 2) + "x",
                 std::to_string(m.soi_stats.segments_seen)});
}

// One sweep point in the machine-readable output, with the SOI per-phase
// breakdown alongside the totals (mirrors the stacked bars).
void WritePointJson(JsonWriter* json, const std::string& axis,
                    const std::string& value, const Measurement& m) {
  json->BeginObject();
  json->KeyValue(axis, value);
  json->KeyValue("soi_seconds", m.soi_seconds);
  json->KeyValue("lists_seconds", m.soi_stats.list_construction_seconds);
  json->KeyValue("filter_seconds", m.soi_stats.filtering_seconds);
  json->KeyValue("refine_seconds", m.soi_stats.refinement_seconds);
  json->KeyValue("bl_seconds", m.bl_seconds);
  json->KeyValue("speedup",
                 m.soi_seconds > 0 ? m.bl_seconds / m.soi_seconds : 0.0);
  json->KeyValue("segments_seen", m.soi_stats.segments_seen);
  json->EndObject();
}

int Run(int argc, char** argv) {
  bench_util::BenchOptions options =
      bench_util::ParseBenchOptions(argc, argv);
  auto cities = bench_util::LoadCities(options);
  double eps = 0.0005;

  bench_util::BenchJsonFile out("fig4_soi_performance", options,
                                "BENCH_fig4_soi_performance.json");
  JsonWriter* json = out.json();
  json->KeyValue("eps", eps);
  json->Key("cities");
  json->BeginArray();
  for (const auto& city : cities) {
    EpsAugmentedMaps maps(city->indexes->segment_cells, eps);
    json->BeginObject();
    json->KeyValue("city", city->profile.name);

    // --- Figure 4 (a-c): varying k, |Psi| = 3 ---------------------------
    std::cout << "\nFigure 4 (" << city->profile.name
              << "): varying k, |Psi|=3, eps=0.0005\n\n";
    TablePrinter by_k({"k", "SOI total", "  lists", "  filter", "  refine",
                       "BL total", "speedup", "segm.seen"});
    json->Key("varying_k");
    json->BeginArray();
    for (int32_t k : {10, 20, 50, 100, 200}) {
      SoiQuery query;
      query.keywords =
          bench_util::AccumulatedQueryKeywords(city->dataset, 3);
      query.k = k;
      query.eps = eps;
      Measurement m = Measure(*city, query, maps);
      AddRow(&by_k, std::to_string(k), m);
      WritePointJson(json, "k", std::to_string(k), m);
    }
    json->EndArray();
    by_k.Print(&std::cout);

    // --- Figure 4 (d-f): varying |Psi|, k = 50 --------------------------
    std::cout << "\nFigure 4 (" << city->profile.name
              << "): varying |Psi|, k=50, eps=0.0005\n\n";
    TablePrinter by_psi({"|Psi|", "SOI total", "  lists", "  filter",
                         "  refine", "BL total", "speedup", "segm.seen"});
    json->Key("varying_psi");
    json->BeginArray();
    for (int count = 1; count <= 4; ++count) {
      SoiQuery query;
      query.keywords =
          bench_util::AccumulatedQueryKeywords(city->dataset, count);
      query.k = 50;
      query.eps = eps;
      Measurement m = Measure(*city, query, maps);
      AddRow(&by_psi, std::to_string(count), m);
      WritePointJson(json, "psi", std::to_string(count), m);
    }
    json->EndArray();
    json->EndObject();
    by_psi.Print(&std::cout);
  }
  json->EndArray();
  out.Close();
  std::cout << "\nWrote BENCH_fig4_soi_performance.json.\n"
               "Paper shape: SOI beats BL by 1.1-3.2x across k and by up "
               "to 18x for selective\nkeyword sets; SOI cost grows with "
               "|Psi| while BL is insensitive to it.\n";
  return 0;
}

}  // namespace
}  // namespace soi

int main(int argc, char** argv) { return soi::Run(argc, argv); }
