// Walking tour — the paper's future-work extension: "provide route
// recommendations based on the discovered streets of interest".
//
// Finds the top-k food streets of the Vienna preset, then plans a walking
// tour that starts at the most interesting street and greedily hops to
// the nearest unvisited one over the road network, printing the visiting
// order, connecting walks, and total distances.
//
// Usage: walking_tour [--scale=0.05] [--keyword=food] [--k=5]

#include <iostream>
#include <string>

#include "common/string_util.h"
#include "core/route_recommender.h"
#include "core/soi_algorithm.h"
#include "datagen/dataset.h"
#include "eval/table_printer.h"
#include "network/shortest_path.h"

int main(int argc, char** argv) {
  using namespace soi;
  double scale = 0.05;
  std::string keyword = "food";
  int32_t k = 5;
  for (int i = 1; i < argc; ++i) {
    std::string arg = argv[i];
    if (arg.rfind("--scale=", 0) == 0) {
      scale = ParseDouble(arg.substr(8)).ValueOrDie();
    } else if (arg.rfind("--keyword=", 0) == 0) {
      keyword = arg.substr(10);
    } else if (arg.rfind("--k=", 0) == 0) {
      k = static_cast<int32_t>(ParseInt64(arg.substr(4)).ValueOrDie());
    } else {
      std::cerr << "usage: walking_tour [--scale=] [--keyword=] [--k=]\n";
      return 2;
    }
  }

  std::cerr << "Generating Vienna (scale=" << scale << ")...\n";
  Dataset dataset = GenerateCity(ViennaProfile(scale)).ValueOrDie();
  auto indexes = BuildIndexes(dataset, /*cell_size=*/0.0005);

  KeywordId keyword_id = dataset.vocabulary.Find(keyword);
  if (keyword_id == kInvalidKeyword) {
    std::cerr << "unknown keyword '" << keyword << "'\n";
    return 1;
  }
  SoiQuery query;
  query.keywords = KeywordSet({keyword_id});
  query.k = k;
  query.eps = 0.0005;
  EpsAugmentedMaps maps(indexes->segment_cells, query.eps);
  SoiAlgorithm algorithm(dataset.network, indexes->poi_grid,
                         indexes->global_index);
  SoiResult result = algorithm.TryTopK(query, maps).ValueOrDie();

  ShortestPathEngine engine(dataset.network);
  RouteRecommender recommender(dataset.network, engine);
  RecommendedRoute route = recommender.PlanTour(result.streets);

  constexpr double kMetersPerDegree = 111000.0;
  std::cout << "\nWalking tour of the top-" << k << " \"" << keyword
            << "\" streets in Vienna:\n\n";
  TablePrinter table({"Stop", "Street", "Street length (m)",
                      "Walk from previous (m)"});
  for (size_t i = 0; i < route.street_order.size(); ++i) {
    const Street& street = dataset.network.street(route.street_order[i]);
    double walk =
        i == 0 ? 0.0 : route.legs[i - 1].path.length * kMetersPerDegree;
    table.AddRow({std::to_string(i + 1), street.name,
                  FormatDouble(street.length * kMetersPerDegree, 0),
                  FormatDouble(walk, 0)});
  }
  table.Print(&std::cout);
  std::cout << "\nTotal: "
            << FormatDouble(route.street_length * kMetersPerDegree, 0)
            << " m of streets of interest + "
            << FormatDouble(route.connecting_length * kMetersPerDegree, 0)
            << " m of connecting walks = "
            << FormatDouble(route.TotalLength() * kMetersPerDegree, 0)
            << " m\n";
  if (!route.unreachable.empty()) {
    std::cout << "Unreachable (different network component):";
    for (StreetId id : route.unreachable) {
      std::cout << " \"" << dataset.network.street(id).name << "\"";
    }
    std::cout << "\n";
  }
  return 0;
}
