// Quickstart: the smallest end-to-end use of libsoi's public API.
//
//  1. Build a road network with NetworkBuilder.
//  2. Attach POIs and photos.
//  3. Build the offline indices.
//  4. Ask for the top-k Streets of Interest for a keyword (Problem 1).
//  5. Describe the winner with a diversified photo summary (Problem 2).
//
// Everything is hand-placed so the expected outcome is obvious: the cafes
// cluster on Riverside Lane, so it must win the "cafe" query.

#include <iostream>

#include "core/diversify/greedy_baseline.h"
#include "core/diversify/st_rel_div.h"
#include "core/soi_algorithm.h"
#include "core/street_photos.h"
#include "grid/global_inverted_index.h"
#include "grid/point_grid.h"
#include "network/network_builder.h"
#include "text/tokenizer.h"
#include "text/vocabulary.h"

int main() {
  using namespace soi;

  // --- 1. A tiny road network: two streets crossing. --------------------
  NetworkBuilder builder;
  VertexId west = builder.AddVertex({0.000, 0.002});
  VertexId mid = builder.AddVertex({0.005, 0.002});
  VertexId east = builder.AddVertex({0.010, 0.002});
  VertexId south = builder.AddVertex({0.005, 0.000});
  VertexId north = builder.AddVertex({0.005, 0.004});
  SOI_CHECK(builder.AddStreet("Riverside Lane", {west, mid, east}).ok());
  SOI_CHECK(builder.AddStreet("Market Street", {south, north}).ok());
  RoadNetwork network = std::move(builder).Build().ValueOrDie();

  // --- 2. POIs: three cafes on Riverside Lane, one elsewhere. -----------
  Vocabulary vocabulary;
  KeywordId cafe = vocabulary.Intern("cafe");
  KeywordId bank = vocabulary.Intern("bank");
  std::vector<Poi> pois;
  auto add_poi = [&](double x, double y, KeywordId keyword) {
    pois.push_back(Poi{Point{x, y}, KeywordSet({keyword})});
  };
  add_poi(0.001, 0.0022, cafe);
  add_poi(0.002, 0.0018, cafe);
  add_poi(0.003, 0.0021, cafe);
  add_poi(0.005, 0.0035, bank);

  // --- 3. Offline indices (shared grid geometry). -----------------------
  double cell_size = 0.0005;
  Box bounds = network.bounds().Expanded(0.001);
  GridGeometry geometry(bounds, cell_size);
  PoiGridIndex poi_grid(bounds, cell_size, pois);
  GlobalInvertedIndex global_index(poi_grid);
  SegmentCellIndex segment_cells(network, geometry);

  // --- 4. Top-1 Street of Interest for "cafe". --------------------------
  SoiQuery query;
  query.keywords = KeywordSet({cafe});
  query.k = 1;
  query.eps = 0.0005;
  EpsAugmentedMaps maps(segment_cells, query.eps);
  SoiAlgorithm algorithm(network, poi_grid, global_index);
  SoiResult result = algorithm.TryTopK(query, maps).ValueOrDie();
  const RankedStreet& winner = result.streets.at(0);
  std::cout << "Top street for \"cafe\": "
            << network.street(winner.street).name
            << " (interest " << winner.interest << ")\n";

  // --- 5. Describe it with 2 diverse photos. ----------------------------
  std::vector<Photo> photos;
  auto add_photo = [&](double x, double y, const char* tags) {
    Photo photo;
    photo.position = Point{x, y};
    photo.keywords = TokenizeToKeywords(tags, &vocabulary);
    photos.push_back(std::move(photo));
  };
  add_photo(0.0012, 0.0021, "cafe latte morning");
  add_photo(0.0013, 0.0021, "cafe latte morning");  // Near-duplicate.
  add_photo(0.0030, 0.0019, "streetart mural");
  add_photo(0.0080, 0.0022, "river bridge sunset");

  std::vector<Point> photo_positions;
  for (const Photo& photo : photos) {
    photo_positions.push_back(photo.position);
  }
  PointGrid<PhotoId> photo_grid(geometry, photo_positions);
  StreetPhotos sp = ExtractStreetPhotos(network, winner.street, photos,
                                        photo_grid, query.eps);
  DiversifyParams params;
  params.k = 2;
  params.rho = 0.0002;
  PhotoScorer scorer(sp, params.rho);
  PhotoGridIndex photo_index(params.rho / 2, sp.photos);
  CellBoundsCalculator cell_bounds(sp, photo_index);
  DiversifyResult summary = StRelDivSelect(scorer, cell_bounds, params);

  std::cout << "Photo summary of "
            << network.street(winner.street).name << ":\n";
  for (PhotoId local : summary.selected) {
    const Photo& photo = sp.photos.at(static_cast<size_t>(local));
    std::cout << "  photo at (" << photo.position.x << ", "
              << photo.position.y << ") tags:";
    for (KeywordId tag : photo.keywords.ids()) {
      std::cout << " " << vocabulary.Name(tag);
    }
    std::cout << "\n";
  }
  std::cout << "Done. (The summary avoids the near-duplicate cafe shots.)\n";
  return 0;
}
