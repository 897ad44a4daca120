#ifndef SOI_CORE_DIVERSIFY_CELL_BOUNDS_H_
#define SOI_CORE_DIVERSIFY_CELL_BOUNDS_H_

#include <vector>

#include "core/diversify/objective.h"
#include "core/street_photos.h"
#include "grid/photo_grid_index.h"

namespace soi {

/// A [lower, upper] interval.
struct Bounds {
  double lower = 0.0;
  double upper = 0.0;
};

/// The cell-level bounds of Section 4.2.2: for every photo inside a grid
/// cell, each returned interval contains the photo's exact value of the
/// corresponding mmr component. The relevance bounds depend only on the
/// street, so CellBoundsCalculator precomputes them per cell at
/// construction; the per-selected-photo diversity bounds are evaluated on
/// demand.
class CellBoundsCalculator {
 public:
  /// `index` must be built over street_photos.photos with cell side rho/2.
  CellBoundsCalculator(const StreetPhotos& street_photos,
                       const PhotoGridIndex& index);

  const PhotoGridIndex& index() const { return *index_; }

  /// Position of `cell` in index().non_empty_cells(), the order of the
  /// per-cell arrays here and in the selectors. Requires a non-empty cell.
  size_t Slot(CellId cell) const;

  /// Equations 11-12: bounds on spatial_rel(r) for any r in the cell.
  Bounds SpatialRel(CellId cell) const;

  /// Equations 13-14: bounds on textual_rel(r) for any r in the cell.
  Bounds TextualRel(CellId cell) const;

  /// Equations 15-16: bounds on spatial_div(r', r) for any r' in the cell
  /// and the given photo r (local id).
  Bounds SpatialDiv(CellId cell, PhotoId r) const;

  /// Equations 17-18: bounds on textual_div(r', r) for any r' in the cell
  /// and the given photo r (local id).
  Bounds TextualDiv(CellId cell, PhotoId r) const;

  /// Visual extension: bounds on VisualDiv(r', r) for any r' in the cell.
  /// Requires descriptors.
  Bounds VisualDiv(CellId cell, PhotoId r) const;

  /// Combined relevance bounds under the full parameter set (the visual
  /// extension only affects diversity, so this is the w-weighted
  /// spatial/textual combination).
  Bounds CombinedRel(CellId cell, const DiversifyParams& params) const;

  /// Combined pairwise-diversity bounds of any r' in the cell against
  /// photo `r` under the full parameter set.
  Bounds CombinedDiv(CellId cell, PhotoId r,
                     const DiversifyParams& params) const;

  /// Bounds on mmr(r') of Eq. 10 for any r' in the cell, given the
  /// currently selected photos, under the full parameter set (visual
  /// extension included).
  Bounds Mmr(CellId cell, const std::vector<PhotoId>& selected,
             const DiversifyParams& params) const;

 private:
  const StreetPhotos* street_photos_;
  const PhotoGridIndex* index_;
  // Precomputed per non-empty cell (dense in the order of
  // index.non_empty_cells()).
  std::vector<Bounds> spatial_rel_;
  std::vector<Bounds> textual_rel_;
};

}  // namespace soi

#endif  // SOI_CORE_DIVERSIFY_CELL_BOUNDS_H_
