#include "core/diversify/st_rel_div.h"

#include <algorithm>

#include "common/check.h"
#include "common/stopwatch.h"
#include "obs/obs.h"

namespace soi {

namespace {

// A candidate cell of one iteration.
struct CellCandidate {
  CellId cell;
  double upper;
};

// Per-cell incremental state: the accumulated diversity-bound sums over
// the already-selected photos. Updated once per selection instead of being
// recomputed from scratch each iteration (the recomputation would cost
// O(|C| * |R|) per iteration and defeat the index).
struct CellDivSums {
  double lower = 0.0;
  double upper = 0.0;
};

}  // namespace

DiversifyResult StRelDivSelect(const PhotoScorer& scorer,
                               const CellBoundsCalculator& bounds,
                               const DiversifyParams& params) {
  SOI_CHECK(params.k > 0);
  SOI_TRACE_SPAN("div.st_rel_div");
  Stopwatch timer;
  const PhotoGridIndex& index = bounds.index();
  DiversifyResult result;
  int64_t n = scorer.num_photos();
  std::vector<char> taken(static_cast<size_t>(n), 0);

  // Cells whose photos are all selected must not contribute to the filter
  // threshold (their bound guarantees would be vacuous for candidates).
  const std::vector<CellId>& cells = index.non_empty_cells();
  std::vector<int64_t> remaining(cells.size());
  std::vector<CellDivSums> div_sums(cells.size());
  // Relevance bounds do not depend on the selection: one lookup per cell.
  std::vector<Bounds> rel_bounds(cells.size());
  for (size_t slot = 0; slot < cells.size(); ++slot) {
    remaining[slot] = index.NumPhotosInCell(cells[slot]);
    rel_bounds[slot] = bounds.CombinedRel(cells[slot], params);
  }

  // Exact per-photo mmr bookkeeping: div_sum[r] accumulates
  // Div(r, selected[i], w) in selection order, exactly as the baseline's
  // inner loop does, so the two algorithms produce bit-identical scores;
  // synced[r] is how many selected photos are already folded in.
  std::vector<double> photo_div_sum(static_cast<size_t>(n), 0.0);
  std::vector<size_t> photo_synced(static_cast<size_t>(n), 0);
  auto exact_mmr = [&](PhotoId r,
                       const std::vector<PhotoId>& selected) {
    double& div_sum = photo_div_sum[static_cast<size_t>(r)];
    size_t& synced = photo_synced[static_cast<size_t>(r)];
    while (synced < selected.size()) {
      div_sum += scorer.Div(r, selected[synced], params);
      ++synced;
    }
    double value = (1.0 - params.lambda) * scorer.Rel(r, params);
    if (params.k > 1 && !selected.empty()) {
      value += params.lambda / static_cast<double>(params.k - 1) * div_sum;
    }
    ++result.stats.mmr_evaluations;
    return value;
  };

  double div_factor =
      params.k > 1 ? params.lambda / static_cast<double>(params.k - 1) : 0.0;
  double rel_factor = 1.0 - params.lambda;

  int64_t target = std::min<int64_t>(params.k, n);
  std::vector<CellCandidate> surviving;
  while (static_cast<int64_t>(result.selected.size()) < target) {
    SOI_TRACE_SPAN("div.iteration");
    // --- filtering phase: per-cell mmr bounds from the cached sums ------
    double mmr_min = 0.0;
    bool have_min = false;
    bool have_selection = !result.selected.empty();
    for (size_t slot = 0; slot < cells.size(); ++slot) {
      if (remaining[slot] == 0) continue;
      double lower = rel_factor * rel_bounds[slot].lower;
      if (have_selection) lower += div_factor * div_sums[slot].lower;
      if (!have_min || lower > mmr_min) {
        mmr_min = lower;
        have_min = true;
      }
    }
    SOI_DCHECK(have_min);

    surviving.clear();
    for (size_t slot = 0; slot < cells.size(); ++slot) {
      if (remaining[slot] == 0) continue;
      double upper = rel_factor * rel_bounds[slot].upper;
      if (have_selection) upper += div_factor * div_sums[slot].upper;
      if (upper >= mmr_min) {
        surviving.push_back(CellCandidate{cells[slot], upper});
      } else {
        ++result.stats.cells_pruned;
      }
    }
    std::sort(surviving.begin(), surviving.end(),
              [](const CellCandidate& a, const CellCandidate& b) {
                if (a.upper != b.upper) return a.upper > b.upper;
                return a.cell < b.cell;
              });

    // --- refinement phase: exact mmr inside surviving cells -------------
    PhotoId next_photo = -1;
    double next_value = 0.0;
    for (const CellCandidate& candidate : surviving) {
      if (next_photo >= 0 && candidate.upper < next_value) {
        // Cells are in decreasing upper-bound order: nothing further can
        // beat the best exact value already found.
        ++result.stats.cells_pruned;
        continue;
      }
      ++result.stats.cells_refined;
      const PhotoGridIndex::Cell* bucket = index.FindCell(candidate.cell);
      SOI_DCHECK(bucket != nullptr);
      for (PhotoId r : bucket->photos) {
        if (taken[static_cast<size_t>(r)]) continue;
        double value = exact_mmr(r, result.selected);
        // Same tie-break as the baseline: larger value, then smaller id.
        // (Cells arrive out of id order, so the id test is explicit.)
        if (next_photo < 0 || value > next_value ||
            (value == next_value && r < next_photo)) {
          next_photo = r;
          next_value = value;
        }
      }
    }
    SOI_DCHECK(next_photo >= 0);
    taken[static_cast<size_t>(next_photo)] = 1;
    size_t chosen_slot = bounds.Slot(index.geometry().CellOf(
        scorer.street_photos()
            .photos[static_cast<size_t>(next_photo)]
            .position));
    --remaining[chosen_slot];
    result.selected.push_back(next_photo);

    // Fold the new selection into every cell's cached diversity-bound
    // sums (one pass per selection; selection-order accumulation keeps
    // the sums equal to a from-scratch recomputation).
    if (params.k > 1 &&
        static_cast<int64_t>(result.selected.size()) < target) {
      for (size_t slot = 0; slot < cells.size(); ++slot) {
        if (remaining[slot] == 0) continue;
        Bounds div = bounds.CombinedDiv(cells[slot], next_photo, params);
        div_sums[slot].lower += div.lower;
        div_sums[slot].upper += div.upper;
      }
    }
  }
  result.stats.seconds = timer.ElapsedSeconds();
  SOI_OBS_COUNTER_ADD("soi.div.st_rel_div.selections", 1);
  SOI_OBS_COUNTER_ADD("soi.div.st_rel_div.mmr_evaluations",
                      result.stats.mmr_evaluations);
  SOI_OBS_COUNTER_ADD("soi.div.st_rel_div.cells_refined",
                      result.stats.cells_refined);
  SOI_OBS_COUNTER_ADD("soi.div.st_rel_div.cells_pruned",
                      result.stats.cells_pruned);
  SOI_OBS_HISTOGRAM_OBSERVE("soi.div.st_rel_div.seconds",
                            result.stats.seconds);
  return result;
}

}  // namespace soi
