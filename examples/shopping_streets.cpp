// Shopping streets of Berlin — the paper's motivating scenario
// (Section 5.1.1, Table 2 / Figure 2).
//
// Generates the Berlin preset, runs the k-SOI query for "shop"
// (k=10, eps=0.0005 ~ 55 m), and prints the ranked streets annotated with
// whether each appears in the planted ground truth and the two derived
// "authoritative web source" lists, like the paper's Table 2 discussion.
//
// Usage: shopping_streets [--scale=0.1] [--keyword=shop] [--k=10]

#include <algorithm>
#include <iostream>
#include <set>
#include <string>

#include "common/string_util.h"
#include "core/soi_algorithm.h"
#include "datagen/dataset.h"
#include "eval/metrics.h"
#include "eval/table_printer.h"

int main(int argc, char** argv) {
  using namespace soi;
  double scale = 0.1;
  std::string keyword = "shop";
  int32_t k = 10;
  for (int i = 1; i < argc; ++i) {
    std::string arg = argv[i];
    if (arg.rfind("--scale=", 0) == 0) {
      scale = ParseDouble(arg.substr(8)).ValueOrDie();
    } else if (arg.rfind("--keyword=", 0) == 0) {
      keyword = arg.substr(10);
    } else if (arg.rfind("--k=", 0) == 0) {
      k = static_cast<int32_t>(ParseInt64(arg.substr(4)).ValueOrDie());
    } else {
      std::cerr << "usage: shopping_streets [--scale=] [--keyword=] "
                   "[--k=]\n";
      return 2;
    }
  }

  std::cerr << "Generating Berlin (scale=" << scale << ")...\n";
  Dataset dataset = GenerateCity(BerlinProfile(scale)).ValueOrDie();
  auto indexes = BuildIndexes(dataset, /*cell_size=*/0.0005);

  KeywordId keyword_id = dataset.vocabulary.Find(keyword);
  if (keyword_id == kInvalidKeyword) {
    std::cerr << "keyword '" << keyword << "' is unknown in this dataset\n";
    return 1;
  }

  SoiQuery query;
  query.keywords = KeywordSet({keyword_id});
  query.k = k;
  query.eps = 0.0005;  // ~55 m, the paper's setting.
  EpsAugmentedMaps maps(indexes->segment_cells, query.eps);
  SoiAlgorithm algorithm(dataset.network, indexes->poi_grid,
                         indexes->global_index);
  SoiResult result = algorithm.TryTopK(query, maps).ValueOrDie();

  const CategoryGroundTruth* truth = dataset.ground_truth.Find(keyword);
  std::set<StreetId> planted;
  std::set<StreetId> source1;
  std::set<StreetId> source2;
  if (truth != nullptr) {
    planted.insert(truth->hotspots.begin(), truth->hotspots.end());
    source1.insert(truth->web_sources[0].begin(),
                   truth->web_sources[0].end());
    source2.insert(truth->web_sources[1].begin(),
                   truth->web_sources[1].end());
  }

  std::cout << "\nTop-" << k << " Streets of Interest for \"" << keyword
            << "\" in Berlin\n\n";
  TablePrinter table({"Rank", "Street", "Interest", "Length (deg)",
                      "Planted", "Src#1", "Src#2"});
  for (size_t i = 0; i < result.streets.size(); ++i) {
    const RankedStreet& entry = result.streets[i];
    const Street& street = dataset.network.street(entry.street);
    table.AddRow({std::to_string(i + 1), street.name,
                  FormatDouble(entry.interest, 1),
                  FormatDouble(street.length, 5),
                  planted.count(entry.street) ? "yes" : "",
                  source1.count(entry.street) ? "yes" : "",
                  source2.count(entry.street) ? "yes" : ""});
  }
  table.Print(&std::cout);

  if (truth != nullptr) {
    std::cout << "\nrecall@" << k << " vs web source #1: "
              << FormatDouble(
                     RecallAtK(result.streets, truth->web_sources[0], k), 2)
              << ", vs web source #2: "
              << FormatDouble(
                     RecallAtK(result.streets, truth->web_sources[1], k), 2)
              << "\n";
  }
  std::cout << "\nQuery stats: " << result.stats.iterations
            << " iterations, " << result.stats.cells_popped
            << " cells popped, " << result.stats.segments_seen
            << " segments seen (of " << dataset.network.num_segments()
            << "), total "
            << FormatMillis(result.stats.TotalSeconds()) << "\n";
  return 0;
}
