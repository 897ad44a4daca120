// Reproduces Table 2 / Section 5.1.1 of the paper: effectiveness of SOI
// identification. The paper queries "shop" over Berlin with k=10,
// eps=0.0005 and compares the returned streets against two authoritative
// web-source lists of 5 shopping streets each, reporting recall 0.8.
//
// Here the ground truth is the generator's planted hotspot streets and the
// two derived noisy "web source" lists (see DESIGN.md, Substitutions).

#include <algorithm>
#include <iostream>
#include <set>

#include "bench_util.h"
#include "core/soi_algorithm.h"
#include "eval/metrics.h"
#include "eval/table_printer.h"

namespace soi {
namespace {

int Run(int argc, char** argv) {
  bench_util::BenchOptions options =
      bench_util::ParseBenchOptions(argc, argv);
  auto cities = bench_util::LoadCities(options);

  std::cout << "\nTable 2: Comparison of identified top SOIs for \"shop\""
            << " (k=10, eps=0.0005)\n";
  for (const auto& city : cities) {
    const Dataset& dataset = city->dataset;
    const CategoryGroundTruth* truth = dataset.ground_truth.Find("shop");
    SOI_CHECK(truth != nullptr);

    SoiQuery query;
    query.keywords = KeywordSet({dataset.vocabulary.Find("shop")});
    query.k = 10;
    query.eps = 0.0005;
    EpsAugmentedMaps maps(city->indexes->segment_cells, query.eps);
    SoiAlgorithm algorithm(dataset.network, city->indexes->poi_grid,
                           city->indexes->global_index);
    SoiResult result = algorithm.TryTopK(query, maps).ValueOrDie();

    std::cout << "\n--- " << city->profile.name << " ---\n\n";
    std::set<StreetId> source1(truth->web_sources[0].begin(),
                               truth->web_sources[0].end());
    std::set<StreetId> source2(truth->web_sources[1].begin(),
                               truth->web_sources[1].end());
    TablePrinter table({"Rank", "Top-10 SOIs", "Interest", "In source #1",
                        "In source #2"});
    for (size_t i = 0; i < result.streets.size(); ++i) {
      const RankedStreet& entry = result.streets[i];
      table.AddRow({std::to_string(i + 1),
                    dataset.network.street(entry.street).name,
                    FormatDouble(entry.interest, 1),
                    source1.count(entry.street) ? "yes" : "",
                    source2.count(entry.street) ? "yes" : ""});
    }
    table.Print(&std::cout);

    double recall1 =
        RecallAtK(result.streets, truth->web_sources[0], query.k);
    double recall2 =
        RecallAtK(result.streets, truth->web_sources[1], query.k);
    double recall_truth4 = RecallAtK(
        result.streets,
        std::vector<StreetId>(
            truth->hotspots.begin(),
            truth->hotspots.begin() +
                std::min<size_t>(4, truth->hotspots.size())),
        query.k);
    std::cout << "\nrecall@10 vs web source #1: " << FormatDouble(recall1, 2)
              << "   vs web source #2: " << FormatDouble(recall2, 2)
              << "   vs top-4 planted hotspots: "
              << FormatDouble(recall_truth4, 2) << "\n";
    std::cout << "(paper, Berlin, real web sources: 0.80 / 0.80)\n";
  }
  return 0;
}

}  // namespace
}  // namespace soi

int main(int argc, char** argv) { return soi::Run(argc, argv); }
