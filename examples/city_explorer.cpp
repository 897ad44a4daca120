// City explorer: an end-to-end exploration session over a persisted
// dataset, demonstrating the IO layer plus multi-keyword queries.
//
//  1. Generates the Vienna preset and saves it to disk (SaveDataset).
//  2. Loads it back (LoadDataset) — the path any real deployment with
//     external data would take.
//  3. Runs a multi-keyword k-SOI query ("food culture") and describes each
//     returned street with a 3-photo diversified summary.
//
// Usage: city_explorer [--scale=0.05] [--query="food culture"] [--k=5]

#include <cstdio>
#include <iostream>
#include <string>

#include "common/string_util.h"
#include "core/diversify/st_rel_div.h"
#include "core/soi_algorithm.h"
#include "core/street_photos.h"
#include "datagen/dataset.h"
#include "eval/table_printer.h"
#include "text/tokenizer.h"

int main(int argc, char** argv) {
  using namespace soi;
  double scale = 0.05;
  std::string query_text = "food culture";
  int32_t k = 5;
  for (int i = 1; i < argc; ++i) {
    std::string arg = argv[i];
    if (arg.rfind("--scale=", 0) == 0) {
      scale = ParseDouble(arg.substr(8)).ValueOrDie();
    } else if (arg.rfind("--query=", 0) == 0) {
      query_text = arg.substr(8);
    } else if (arg.rfind("--k=", 0) == 0) {
      k = static_cast<int32_t>(ParseInt64(arg.substr(4)).ValueOrDie());
    } else {
      std::cerr << "usage: city_explorer [--scale=] [--query=] [--k=]\n";
      return 2;
    }
  }

  // --- 1+2: persist and reload the dataset. ------------------------------
  std::cerr << "Generating Vienna (scale=" << scale << ")...\n";
  Dataset generated = GenerateCity(ViennaProfile(scale)).ValueOrDie();
  std::string prefix = "/tmp/soi_city_explorer_vienna";
  Status saved = SaveDataset(generated, prefix);
  if (!saved.ok()) {
    std::cerr << "save failed: " << saved.ToString() << "\n";
    return 1;
  }
  auto loaded = LoadDataset("Vienna", prefix);
  if (!loaded.ok()) {
    std::cerr << "load failed: " << loaded.status().ToString() << "\n";
    return 1;
  }
  Dataset dataset = std::move(loaded).ValueOrDie();
  std::cerr << "Reloaded from " << prefix << ".{network,pois,photos}: "
            << dataset.network.num_segments() << " segments, "
            << dataset.pois.size() << " POIs, " << dataset.photos.size()
            << " photos\n";
  auto indexes = BuildIndexes(dataset, /*cell_size=*/0.0005);

  // --- 3: multi-keyword exploration. --------------------------------------
  KeywordSet keywords = LookupKeywords(query_text, dataset.vocabulary);
  if (keywords.empty()) {
    std::cerr << "no known keywords in query '" << query_text << "'\n";
    return 1;
  }
  SoiQuery query;
  query.keywords = keywords;
  query.k = k;
  query.eps = 0.0005;
  EpsAugmentedMaps maps(indexes->segment_cells, query.eps);
  SoiAlgorithm algorithm(dataset.network, indexes->poi_grid,
                         indexes->global_index);
  SoiResult result = algorithm.TryTopK(query, maps).ValueOrDie();

  std::cout << "\nTop-" << k << " streets for \"" << query_text
            << "\" in Vienna:\n";
  DiversifyParams params;
  params.k = 3;
  params.rho = 0.0001;
  for (size_t i = 0; i < result.streets.size(); ++i) {
    const RankedStreet& entry = result.streets[i];
    std::cout << "\n#" << (i + 1) << " "
              << dataset.network.street(entry.street).name
              << " (interest " << FormatDouble(entry.interest, 1) << ")\n";
    StreetPhotos sp = ExtractStreetPhotos(dataset.network, entry.street,
                                          dataset.photos,
                                          indexes->photo_grid, query.eps);
    if (sp.size() < params.k) {
      std::cout << "   (only " << sp.size()
                << " photos nearby; no summary)\n";
      continue;
    }
    PhotoScorer scorer(sp, params.rho);
    PhotoGridIndex photo_index(params.rho / 2, sp.photos);
    CellBoundsCalculator cell_bounds(sp, photo_index);
    DiversifyResult summary = StRelDivSelect(scorer, cell_bounds, params);
    for (PhotoId local : summary.selected) {
      const Photo& photo = sp.photos.at(static_cast<size_t>(local));
      std::cout << "   photo @ (" << FormatDouble(photo.position.x, 5)
                << ", " << FormatDouble(photo.position.y, 5) << ") tags:";
      for (KeywordId tag : photo.keywords.ids()) {
        std::cout << " " << dataset.vocabulary.Name(tag);
      }
      std::cout << "\n";
    }
  }
  // Clean up the temp files.
  std::remove((prefix + ".network").c_str());
  std::remove((prefix + ".pois").c_str());
  std::remove((prefix + ".photos").c_str());
  return 0;
}
