// Photo description of a Street of Interest — the paper's Figure 3 /
// Section 5.1.2 scenario.
//
// Finds the top "shop" street of the London preset (the synthetic "Oxford
// Street"), then prints the 3-photo summaries selected by S_Rel, T_Rel,
// and ST_Rel+Div side by side, illustrating why pure relevance picks
// near-duplicates (the HMV effect / one demonstration) and the combined
// criterion yields a varied summary.
//
// Usage: photo_summary [--scale=0.1] [--photos=3]

#include <iostream>
#include <string>

#include "common/string_util.h"
#include "core/diversify/variants.h"
#include "core/soi_algorithm.h"
#include "core/street_photos.h"
#include "datagen/dataset.h"
#include "eval/table_printer.h"

namespace {

void PrintSummary(const soi::Dataset& dataset,
                  const soi::StreetPhotos& sp,
                  const soi::PhotoScorer& scorer,
                  const std::vector<soi::PhotoId>& selected,
                  const std::string& title) {
  std::cout << "\n" << title << ":\n";
  for (soi::PhotoId local : selected) {
    const soi::Photo& photo = sp.photos.at(static_cast<size_t>(local));
    std::cout << "  (" << soi::FormatDouble(photo.position.x, 5) << ", "
              << soi::FormatDouble(photo.position.y, 5) << ")  srel="
              << soi::FormatDouble(scorer.SpatialRel(local), 3)
              << " trel=" << soi::FormatDouble(scorer.TextualRel(local), 3)
              << "  tags:";
    for (soi::KeywordId tag : photo.keywords.ids()) {
      std::cout << " " << dataset.vocabulary.Name(tag);
    }
    std::cout << "\n";
  }
}

}  // namespace

int main(int argc, char** argv) {
  using namespace soi;
  double scale = 0.1;
  int32_t num_photos = 3;
  for (int i = 1; i < argc; ++i) {
    std::string arg = argv[i];
    if (arg.rfind("--scale=", 0) == 0) {
      scale = ParseDouble(arg.substr(8)).ValueOrDie();
    } else if (arg.rfind("--photos=", 0) == 0) {
      num_photos =
          static_cast<int32_t>(ParseInt64(arg.substr(9)).ValueOrDie());
    } else {
      std::cerr << "usage: photo_summary [--scale=] [--photos=]\n";
      return 2;
    }
  }

  std::cerr << "Generating London (scale=" << scale << ")...\n";
  Dataset dataset = GenerateCity(LondonProfile(scale)).ValueOrDie();
  auto indexes = BuildIndexes(dataset, /*cell_size=*/0.0005);

  // The most interesting shopping street (the paper's Oxford Street).
  SoiQuery query;
  query.keywords = KeywordSet({dataset.vocabulary.Find("shop")});
  query.k = 1;
  query.eps = 0.0005;
  EpsAugmentedMaps maps(indexes->segment_cells, query.eps);
  SoiAlgorithm algorithm(dataset.network, indexes->poi_grid,
                         indexes->global_index);
  StreetId top =
      algorithm.TryTopK(query, maps).ValueOrDie().streets.at(0).street;

  StreetPhotos sp = ExtractStreetPhotos(dataset.network, top,
                                        dataset.photos, indexes->photo_grid,
                                        query.eps);
  std::cout << "Top shopping street: \"" << dataset.network.street(top).name
            << "\" with " << sp.size() << " nearby photos\n";

  DiversifyParams params;
  params.k = num_photos;
  params.lambda = 0.5;
  params.w = 0.5;
  params.rho = 0.0001;
  PhotoScorer scorer(sp, params.rho);

  for (SelectionMethod method :
       {SelectionMethod::kSRel, SelectionMethod::kTRel,
        SelectionMethod::kStRelDiv}) {
    DiversifyResult result = SelectWithMethod(scorer, method, params);
    PrintSummary(dataset, sp, scorer, result.selected,
                 SelectionMethodName(method) + " summary (Figure 3 style)");
    std::cout << "  objective F (lambda=w=0.5): "
              << FormatDouble(scorer.Objective(result.selected, params), 4)
              << "\n";
  }
  std::cout << "\nNote how S_Rel clusters on the densest photo spot and "
               "T_Rel on the dominant tag\ntheme, while ST_Rel+Div mixes "
               "locations and topics.\n";
  return 0;
}
