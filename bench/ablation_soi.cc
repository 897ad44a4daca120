// Ablation study (google-benchmark) for the SOI algorithm's design
// choices, called out in DESIGN.md: source-list access strategy, pruned
// vs full refinement, and grid cell size. Run with --benchmark_filter=...
// to narrow.

#include <map>
#include <memory>

#include "benchmark/benchmark.h"
#include "common/check.h"
#include "core/soi_algorithm.h"
#include "core/soi_baseline.h"
#include "datagen/dataset.h"

namespace soi {
namespace {

// One shared small city (Vienna preset at 1/20 scale) so every benchmark
// measures the same workload; built once on first use.
struct World {
  Dataset dataset;
  std::unique_ptr<DatasetIndexes> indexes;
  std::unique_ptr<EpsAugmentedMaps> maps;
  double eps = 0.0005;

  explicit World(double cell_size) {
    CityProfile profile = ViennaProfile(0.05);
    auto generated = GenerateCity(profile);
    SOI_CHECK(generated.ok());
    dataset = std::move(generated).ValueOrDie();
    indexes = BuildIndexes(dataset, cell_size);
    maps = std::make_unique<EpsAugmentedMaps>(indexes->segment_cells, eps);
  }
};

World& SharedWorld() {
  static World* world = new World(/*cell_size=*/0.0005);
  return *world;
}

SoiQuery MakeQuery(const Dataset& dataset, int32_t k) {
  SoiQuery query;
  query.keywords = KeywordSet({dataset.vocabulary.Find("shop"),
                               dataset.vocabulary.Find("food")});
  query.k = k;
  query.eps = 0.0005;
  return query;
}

void BM_SoiStrategy(benchmark::State& state) {
  World& world = SharedWorld();
  SoiAlgorithm algorithm(world.dataset.network, world.indexes->poi_grid,
                         world.indexes->global_index);
  SoiQuery query = MakeQuery(world.dataset, 20);
  SoiAlgorithmOptions options;
  options.strategy = static_cast<SourceListStrategy>(state.range(0));
  int64_t segments_seen = 0;
  for (auto _ : state) {
    SoiResult result =
        algorithm.TryTopK(query, *world.maps, options).ValueOrDie();
    segments_seen = result.stats.segments_seen;
    benchmark::DoNotOptimize(result);
  }
  state.counters["segments_seen"] = static_cast<double>(segments_seen);
}
BENCHMARK(BM_SoiStrategy)
    ->Arg(static_cast<int>(SourceListStrategy::kAlternateCellsSegments))
    ->Arg(static_cast<int>(SourceListStrategy::kRoundRobin))
    ->Arg(static_cast<int>(SourceListStrategy::kCellsFirst))
    ->Unit(benchmark::kMillisecond);

void BM_SoiRefinement(benchmark::State& state) {
  World& world = SharedWorld();
  SoiAlgorithm algorithm(world.dataset.network, world.indexes->poi_grid,
                         world.indexes->global_index);
  SoiQuery query = MakeQuery(world.dataset, 20);
  SoiAlgorithmOptions options;
  options.pruned_refinement = state.range(0) != 0;
  int64_t finalized = 0;
  for (auto _ : state) {
    SoiResult result =
        algorithm.TryTopK(query, *world.maps, options).ValueOrDie();
    finalized = result.stats.segments_finalized_in_refinement;
    benchmark::DoNotOptimize(result);
  }
  state.counters["segments_finalized"] = static_cast<double>(finalized);
}
BENCHMARK(BM_SoiRefinement)->Arg(0)->Arg(1)->Unit(benchmark::kMillisecond);

void BM_SoiCellSize(benchmark::State& state) {
  // Cell size in 1e-5 degree units: 25 -> 0.00025 etc.
  double cell_size = state.range(0) * 1e-5;
  static std::map<int64_t, std::unique_ptr<World>>* worlds =
      new std::map<int64_t, std::unique_ptr<World>>();
  auto it = worlds->find(state.range(0));
  if (it == worlds->end()) {
    it = worlds->emplace(state.range(0), std::make_unique<World>(cell_size))
             .first;
  }
  World& world = *it->second;
  SoiAlgorithm algorithm(world.dataset.network, world.indexes->poi_grid,
                         world.indexes->global_index);
  SoiQuery query = MakeQuery(world.dataset, 20);
  for (auto _ : state) {
    SoiResult result = algorithm.TryTopK(query, *world.maps).ValueOrDie();
    benchmark::DoNotOptimize(result);
  }
}
BENCHMARK(BM_SoiCellSize)
    ->Arg(25)
    ->Arg(50)
    ->Arg(100)
    ->Arg(200)
    ->Unit(benchmark::kMillisecond);

void BM_SoiVsBaseline(benchmark::State& state) {
  World& world = SharedWorld();
  SoiQuery query = MakeQuery(world.dataset, static_cast<int32_t>(
                                                state.range(1)));
  if (state.range(0) == 0) {
    SoiAlgorithm algorithm(world.dataset.network, world.indexes->poi_grid,
                           world.indexes->global_index);
    for (auto _ : state) {
      SoiResult result = algorithm.TryTopK(query, *world.maps).ValueOrDie();
      benchmark::DoNotOptimize(result);
    }
  } else {
    SoiBaseline baseline(world.dataset.network, world.indexes->poi_grid);
    for (auto _ : state) {
      SoiResult result = baseline.TopK(query, *world.maps);
      benchmark::DoNotOptimize(result);
    }
  }
}
BENCHMARK(BM_SoiVsBaseline)
    ->ArgsProduct({{0, 1}, {1, 10, 100}})
    ->ArgNames({"algo(0=SOI,1=BL)", "k"})
    ->Unit(benchmark::kMillisecond);

}  // namespace
}  // namespace soi

BENCHMARK_MAIN();
