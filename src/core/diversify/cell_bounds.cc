#include "core/diversify/cell_bounds.h"

#include <algorithm>
#include <cmath>

#include "common/check.h"

namespace soi {

CellBoundsCalculator::CellBoundsCalculator(const StreetPhotos& street_photos,
                                           const PhotoGridIndex& index)
    : street_photos_(&street_photos), index_(&index) {
  const std::vector<CellId>& cells = index.non_empty_cells();
  spatial_rel_.resize(cells.size());
  textual_rel_.resize(cells.size());

  double inv_total = 1.0 / static_cast<double>(street_photos.size());
  const TermVector& terms = street_photos.street_terms;
  double inv_norm = terms.L1Norm() > 0 ? 1.0 / terms.L1Norm() : 0.0;

  for (size_t slot = 0; slot < cells.size(); ++slot) {
    CellId cell = cells[slot];
    const PhotoGridIndex::Cell* bucket = index.FindCell(cell);
    SOI_DCHECK(bucket != nullptr);

    // Equations 11-12. The cell side is rho/2, so a photo covers at least
    // its own cell and at most the two surrounding rings.
    spatial_rel_[slot].lower =
        static_cast<double>(bucket->photos.size()) * inv_total;
    spatial_rel_[slot].upper =
        static_cast<double>(index.NeighborhoodCount(cell, 2)) * inv_total;

    // Equations 13-14 via the keyword sets Psi^-(c|s) / Psi^+(c|s): the
    // psi_min lowest-frequency and psi_max highest-frequency keywords of
    // c.Psi under Phi_s.
    std::vector<double> weights;
    weights.reserve(static_cast<size_t>(bucket->keywords.size()));
    for (KeywordId keyword : bucket->keywords.ids()) {
      weights.push_back(terms.Get(keyword));
    }
    std::sort(weights.begin(), weights.end());
    double lower_sum = 0.0;
    for (int64_t i = 0;
         i < bucket->psi_min && i < static_cast<int64_t>(weights.size());
         ++i) {
      lower_sum += weights[static_cast<size_t>(i)];
    }
    double upper_sum = 0.0;
    for (int64_t i = 0;
         i < bucket->psi_max && i < static_cast<int64_t>(weights.size());
         ++i) {
      upper_sum += weights[weights.size() - 1 - static_cast<size_t>(i)];
    }
    textual_rel_[slot].lower = lower_sum * inv_norm;
    textual_rel_[slot].upper = upper_sum * inv_norm;
  }
}

size_t CellBoundsCalculator::Slot(CellId cell) const {
  const std::vector<CellId>& cells = index_->non_empty_cells();
  auto it = std::lower_bound(cells.begin(), cells.end(), cell);
  SOI_DCHECK(it != cells.end() && *it == cell);
  return static_cast<size_t>(it - cells.begin());
}

Bounds CellBoundsCalculator::SpatialRel(CellId cell) const {
  return spatial_rel_[Slot(cell)];
}

Bounds CellBoundsCalculator::TextualRel(CellId cell) const {
  return textual_rel_[Slot(cell)];
}

Bounds CellBoundsCalculator::SpatialDiv(CellId cell, PhotoId r) const {
  const Point& position =
      street_photos_->photos[static_cast<size_t>(r)].position;
  Box box = index_->geometry().CellBox(cell);
  double inv_maxd = 1.0 / street_photos_->max_distance;
  Bounds bounds;
  bounds.lower = box.MinDistanceTo(position) * inv_maxd;
  bounds.upper = box.MaxDistanceTo(position) * inv_maxd;
  return bounds;
}

Bounds CellBoundsCalculator::TextualDiv(CellId cell, PhotoId r) const {
  const PhotoGridIndex::Cell* bucket = index_->FindCell(cell);
  SOI_DCHECK(bucket != nullptr);
  const KeywordSet& photo_keywords =
      street_photos_->photos[static_cast<size_t>(r)].keywords;
  int64_t nr = photo_keywords.size();
  int64_t psi_min = bucket->psi_min;
  int64_t psi_max = bucket->psi_max;

  Bounds bounds;
  if (nr == 0) {
    // Jaccard distance to an empty set is 0 against another empty set and
    // 1 otherwise; the cell's cardinality range decides what is possible.
    bounds.lower = psi_min == 0 ? 0.0 : 1.0;
    bounds.upper = psi_max == 0 ? 0.0 : 1.0;
    return bounds;
  }

  int64_t intersection = bucket->keywords.IntersectionSize(photo_keywords);
  // Equation 17: the most-similar possible photo keeps as many common
  // keywords as the cell allows.
  if (intersection < psi_min) {
    bounds.lower = 1.0 - static_cast<double>(intersection) /
                             static_cast<double>(nr + psi_min - intersection);
  } else {
    bounds.lower = 1.0 - static_cast<double>(std::min(intersection, psi_max)) /
                             static_cast<double>(nr);
  }
  // Equation 18: the least-similar possible photo avoids Psi_r entirely if
  // the cell has enough foreign keywords.
  int64_t foreign = bucket->keywords.size() - intersection;
  if (foreign < psi_min) {
    bounds.upper = 1.0 - static_cast<double>(psi_min - foreign) /
                             static_cast<double>(nr + foreign);
  } else {
    bounds.upper = 1.0;
  }
  return bounds;
}

namespace {

// [min, max] RMS-normalized distance between a descriptor box and a point
// descriptor (the d-dimensional analogue of Box::Min/MaxDistanceTo).
Bounds DescriptorBoxDistance(const std::vector<float>& lo,
                             const std::vector<float>& hi,
                             const std::vector<float>& p) {
  SOI_DCHECK(!lo.empty());
  SOI_DCHECK(lo.size() == p.size());
  double min_sum = 0.0;
  double max_sum = 0.0;
  for (size_t d = 0; d < lo.size(); ++d) {
    double below = static_cast<double>(lo[d]) - static_cast<double>(p[d]);
    double above = static_cast<double>(p[d]) - static_cast<double>(hi[d]);
    double gap = std::max({below, above, 0.0});
    min_sum += gap * gap;
    double far_side = std::max(std::abs(static_cast<double>(p[d]) - lo[d]),
                               std::abs(static_cast<double>(p[d]) - hi[d]));
    max_sum += far_side * far_side;
  }
  double inv_dim = 1.0 / static_cast<double>(lo.size());
  return Bounds{std::sqrt(min_sum * inv_dim), std::sqrt(max_sum * inv_dim)};
}

}  // namespace

Bounds CellBoundsCalculator::VisualDiv(CellId cell, PhotoId r) const {
  const PhotoGridIndex::Cell* bucket = index_->FindCell(cell);
  SOI_DCHECK(bucket != nullptr);
  SOI_CHECK(!bucket->visual_min.empty())
      << "cell has no visual descriptors";
  const std::vector<float>& descriptor =
      street_photos_->photos[static_cast<size_t>(r)].visual;
  return DescriptorBoxDistance(bucket->visual_min, bucket->visual_max,
                               descriptor);
}

Bounds CellBoundsCalculator::CombinedRel(CellId cell,
                                         const DiversifyParams& params) const {
  Bounds srel = SpatialRel(cell);
  Bounds trel = TextualRel(cell);
  return Bounds{params.w * srel.lower + (1.0 - params.w) * trel.lower,
                params.w * srel.upper + (1.0 - params.w) * trel.upper};
}

Bounds CellBoundsCalculator::CombinedDiv(CellId cell, PhotoId r,
                                         const DiversifyParams& params) const {
  Bounds sdiv = SpatialDiv(cell, r);
  Bounds tdiv = TextualDiv(cell, r);
  Bounds div{params.w * sdiv.lower + (1.0 - params.w) * tdiv.lower,
             params.w * sdiv.upper + (1.0 - params.w) * tdiv.upper};
  if (params.visual_weight > 0) {
    Bounds vdiv = VisualDiv(cell, r);
    double v = params.visual_weight;
    div.lower = (1.0 - v) * div.lower + v * vdiv.lower;
    div.upper = (1.0 - v) * div.upper + v * vdiv.upper;
  }
  return div;
}

Bounds CellBoundsCalculator::Mmr(CellId cell,
                                 const std::vector<PhotoId>& selected,
                                 const DiversifyParams& params) const {
  Bounds rel = CombinedRel(cell, params);
  double rel_factor = 1.0 - params.lambda;
  Bounds mmr{rel_factor * rel.lower, rel_factor * rel.upper};
  if (params.k > 1 && !selected.empty()) {
    double lower_sum = 0.0;
    double upper_sum = 0.0;
    for (PhotoId r : selected) {
      Bounds div = CombinedDiv(cell, r, params);
      lower_sum += div.lower;
      upper_sum += div.upper;
    }
    double div_factor = params.lambda / static_cast<double>(params.k - 1);
    mmr.lower += div_factor * lower_sum;
    mmr.upper += div_factor * upper_sum;
  }
  return mmr;
}

}  // namespace soi
