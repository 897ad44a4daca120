// Reproduces Table 3 / Section 5.1.2 of the paper: objective scores
// (Equation 2, lambda = w = 0.5, after normalization by the ST_Rel+Div
// score) of the nine photo-selection techniques on the top SOI of each
// city. The paper's shape: ST_Rel+Div is 1.000 and the highest everywhere,
// with margins up to 4.5x and no consistent runner-up.

#include <iostream>
#include <vector>

#include "bench_util.h"
#include "core/diversify/variants.h"
#include "core/soi_algorithm.h"
#include "core/street_photos.h"
#include "eval/table_printer.h"

namespace soi {
namespace {

int Run(int argc, char** argv) {
  bench_util::BenchOptions options =
      bench_util::ParseBenchOptions(argc, argv);
  auto cities = bench_util::LoadCities(options);

  DiversifyParams params;
  params.k = 3;          // The 3-photo summaries of Figure 3.
  params.lambda = 0.5;   // The paper's evaluation setting.
  params.w = 0.5;
  params.rho = 0.0001;
  double eps = 0.0005;

  // scores[method][city]
  std::vector<std::vector<double>> scores(
      AllSelectionMethods().size());
  std::vector<std::string> city_names;

  for (const auto& city : cities) {
    const Dataset& dataset = city->dataset;
    city_names.push_back(city->profile.name);

    // Top SOI for "shop".
    SoiQuery query;
    query.keywords = KeywordSet({dataset.vocabulary.Find("shop")});
    query.k = 1;
    query.eps = eps;
    EpsAugmentedMaps maps(city->indexes->segment_cells, eps);
    SoiAlgorithm algorithm(dataset.network, city->indexes->poi_grid,
                           city->indexes->global_index);
    SoiResult result = algorithm.TryTopK(query, maps).ValueOrDie();
    SOI_CHECK(!result.streets.empty());
    StreetId top = result.streets[0].street;

    StreetPhotos sp = ExtractStreetPhotos(dataset.network, top,
                                          dataset.photos,
                                          city->indexes->photo_grid, eps);
    SOI_CHECK(sp.size() > params.k)
        << city->profile.name << ": top SOI has too few photos";
    PhotoScorer scorer(sp, params.rho);

    double full_score = 0.0;
    std::vector<double> city_scores;
    for (SelectionMethod method : AllSelectionMethods()) {
      DiversifyResult selection = SelectWithMethod(scorer, method, params);
      double score = scorer.Objective(selection.selected, params);
      city_scores.push_back(score);
      if (method == SelectionMethod::kStRelDiv) full_score = score;
    }
    SOI_CHECK(full_score > 0);
    for (size_t m = 0; m < city_scores.size(); ++m) {
      scores[m].push_back(city_scores[m] / full_score);
    }
  }

  std::cout << "\nTable 3: Objective scores (Eq. 2, lambda=w=0.5), "
               "normalized by ST_Rel+Div\n\n";
  std::vector<std::string> headers = {"Method"};
  for (const std::string& name : city_names) headers.push_back(name);
  TablePrinter table(headers);
  for (size_t m = 0; m < AllSelectionMethods().size(); ++m) {
    std::vector<std::string> row = {
        SelectionMethodName(AllSelectionMethods()[m])};
    for (double score : scores[m]) row.push_back(FormatDouble(score, 3));
    table.AddRow(std::move(row));
  }
  table.Print(&std::cout);
  std::cout << "\nPaper (London/Berlin/Vienna): S_Rel .831/.726/.508, "
               "T_Rel .708/.367/.219, ST_Rel+Div 1.000 everywhere\n";
  return 0;
}

}  // namespace
}  // namespace soi

int main(int argc, char** argv) { return soi::Run(argc, argv); }
