#include "core/diversify/objective.h"

#include <algorithm>
#include <array>
#include <cmath>
#include <cstdint>
#include <limits>
#include <utility>

#include "common/check.h"
#include "grid/grid_geometry.h"

namespace soi {

namespace {

// The largest s with std::sqrt(s) <= rho. sqrt is correctly rounded, so
// p.DistanceTo(q) <= rho exactly when p.SquaredDistanceTo(q) <= this.
double SquaredLimit(double rho) {
  constexpr double kInf = std::numeric_limits<double>::infinity();
  double limit = rho * rho;
  while (std::sqrt(limit) > rho) limit = std::nextafter(limit, 0.0);
  while (std::sqrt(std::nextafter(limit, kInf)) <= rho) {
    limit = std::nextafter(limit, kInf);
  }
  return limit;
}

// {near, far}: SquaredDistanceTo's arithmetic on the per-axis extreme
// differences between boxes `a` and `b`. Rounded arithmetic is monotone,
// so these bound the computed squared distance of every pair of members
// exactly (DESIGN.md "Algorithm notes").
std::pair<double, double> SquaredReach(const Box& a, const Box& b) {
  // up >= down on each axis, as both boxes are non-empty.
  auto axis = [](double up, double down) {
    return std::pair<double, double>(std::max({down, -up, 0.0}),
                                     std::max(up, -down));
  };
  auto [near_x, far_x] = axis(a.max.x - b.min.x, a.min.x - b.max.x);
  auto [near_y, far_y] = axis(a.max.y - b.min.y, a.min.y - b.max.y);
  return {near_x * near_x + near_y * near_y, far_x * far_x + far_y * far_y};
}

// Definition 4's neighbour counts, equal to the O(n^2) scan's, by cell
// counting over the non-empty cells of a rho/2 grid with tight member
// boxes. A cell is settled for a whole cell pair, then for each photo:
// wholesale when its far extreme is within rho, skipped when its near
// extreme is beyond; only the rest test their members.
std::vector<int64_t> NeighborCounts(const std::vector<Point>& positions,
                                    double rho) {
  const double limit = SquaredLimit(rho);
  Box bounds = Box::Empty();
  for (const Point& p : positions) bounds.ExtendToCover(p);
  // Degenerate single-point bounds still need a non-empty grid box.
  GridGeometry geometry(bounds.Expanded(rho), rho / 2);
  std::vector<uint64_t> keys(positions.size());  // cell << 32 | photo
  for (size_t i = 0; i < positions.size(); ++i) {
    keys[i] = (static_cast<uint64_t>(geometry.CellOf(positions[i])) << 32) | i;
  }
  std::sort(keys.begin(), keys.end());
  std::vector<CellId> cells;
  std::vector<Box> boxes;
  std::vector<int64_t> offsets;
  std::vector<PhotoId> ids;
  for (uint64_t key : keys) {
    if (cells.empty() || cells.back() != static_cast<CellId>(key >> 32)) {
      cells.push_back(static_cast<CellId>(key >> 32));
      boxes.push_back(Box::Empty());
      offsets.push_back(static_cast<int64_t>(ids.size()));
    }
    ids.push_back(static_cast<PhotoId>(key & 0xffffffffu));
    boxes.back().ExtendToCover(positions[static_cast<size_t>(ids.back())]);
  }
  offsets.push_back(static_cast<int64_t>(ids.size()));
  const CsrArray<PhotoId> members(std::move(offsets), std::move(ids));

  // Exact arithmetic would need the 5x5 block of cells around a photo's
  // cell, but rounding in CoordOf can put a pair within rho three cells
  // apart (never four), so the 7x7 block is scanned. Each block row keeps
  // a cursor into `cells` that only moves forward as the cell id grows.
  constexpr int32_t kReach = 3;
  constexpr int32_t kSide = 2 * kReach + 1;
  std::vector<size_t> row_start(kSide, 0);
  std::vector<int64_t> counts(positions.size());
  std::array<int64_t, kSide * kSide> straddling{};
  for (int64_t a = 0; a < members.num_rows(); ++a) {
    CellCoord c = geometry.ToCoord(cells[static_cast<size_t>(a)]);
    int64_t wholesale = 0;
    size_t num_straddling = 0;
    for (int32_t row = 0; row < kSide; ++row) {
      int32_t iy = c.iy - kReach + row;
      if (iy < 0 || iy >= geometry.ny()) continue;
      CellId lo = geometry.ToId(CellCoord{std::max(c.ix - kReach, 0), iy});
      CellId hi = geometry.ToId(
          CellCoord{std::min(c.ix + kReach, geometry.nx() - 1), iy});
      size_t& b = row_start[static_cast<size_t>(row)];
      while (b < cells.size() && cells[b] < lo) ++b;
      for (size_t e = b; e < cells.size() && cells[e] <= hi; ++e) {
        auto [near, far] = SquaredReach(boxes[static_cast<size_t>(a)],
                                        boxes[e]);
        // Branch-free: the outcomes of sparse cells are unpredictable.
        wholesale += far <= limit ? members.RowSize(static_cast<int64_t>(e))
                                  : 0;
        straddling[num_straddling] = static_cast<int64_t>(e);
        num_straddling += near <= limit && far > limit;
      }
    }
    for (PhotoId p : members.Row(a)) {
      const Point& position = positions[static_cast<size_t>(p)];
      int64_t count = wholesale;
      for (size_t i = 0; i < num_straddling; ++i) {
        int64_t e = straddling[i];
        auto [near, far] = SquaredReach(Box{position, position},
                                        boxes[static_cast<size_t>(e)]);
        if (far <= limit) {
          count += members.RowSize(e);
        } else if (near <= limit) {
          for (PhotoId q : members.Row(e)) {
            count += position.SquaredDistanceTo(
                         positions[static_cast<size_t>(q)]) <= limit;
          }
        }
      }
      counts[static_cast<size_t>(p)] = count;
    }
  }
  return counts;
}

}  // namespace

PhotoScorer::PhotoScorer(const StreetPhotos& street_photos, double rho)
    : street_photos_(&street_photos), rho_(rho) {
  SOI_CHECK(!street_photos.photos.empty())
      << "PhotoScorer over an empty R_s";
  SOI_CHECK(rho > 0) << "rho must be positive";
  SOI_CHECK(street_photos.max_distance > 0)
      << "maxD(s) must be positive";
  const std::vector<Photo>& photos = street_photos.photos;
  size_t n = photos.size();

  positions_.reserve(n);
  for (const Photo& photo : photos) {
    positions_.push_back(photo.position);
    for (KeywordId id : photo.keywords.ids()) keywords_.PushValue(id);
    keywords_.FinishRow();
  }

  std::vector<int64_t> neighbors = NeighborCounts(positions_, rho);
  spatial_rel_.resize(n);
  double inv_total = 1.0 / static_cast<double>(n);
  for (size_t i = 0; i < n; ++i) {
    spatial_rel_[i] = static_cast<double>(neighbors[i]) * inv_total;
  }

  // Textual relevance (Definition 6); an empty Phi_s yields 0 everywhere.
  textual_rel_.resize(n);
  const TermVector& terms = street_photos.street_terms;
  double inv_norm = terms.L1Norm() > 0 ? 1.0 / terms.L1Norm() : 0.0;
  for (size_t i = 0; i < n; ++i) {
    textual_rel_[i] = terms.WeightOf(photos[i].keywords) * inv_norm;
  }

  // Visual extension: centroid descriptor and per-photo visual relevance
  // (similarity to the centroid). All-or-nothing: either every photo has
  // a descriptor of the same dimension or none does.
  if (!photos[0].visual.empty()) {
    size_t dim = photos[0].visual.size();
    std::vector<double> sums(dim, 0.0);
    for (const Photo& photo : photos) {
      SOI_CHECK(photo.visual.size() == dim)
          << "inconsistent visual descriptor dimensions";
      for (size_t d = 0; d < dim; ++d) sums[d] += photo.visual[d];
    }
    centroid_.resize(dim);
    for (size_t d = 0; d < dim; ++d) {
      centroid_[d] = static_cast<float>(sums[d] / static_cast<double>(n));
    }
    visual_rel_.resize(n);
    for (size_t i = 0; i < n; ++i) {
      visual_rel_[i] = 1.0 - VisualDistance(photos[i].visual, centroid_);
    }
  }
}

double PhotoScorer::VisualDiv(PhotoId r1, PhotoId r2) const {
  SOI_DCHECK(has_visual());
  const std::vector<Photo>& photos = street_photos_->photos;
  return VisualDistance(photos[static_cast<size_t>(r1)].visual,
                        photos[static_cast<size_t>(r2)].visual);
}

double PhotoScorer::SpatialDiv(PhotoId r1, PhotoId r2) const {
  double d = positions_[static_cast<size_t>(r1)].DistanceTo(
      positions_[static_cast<size_t>(r2)]);
  return d / street_photos_->max_distance;
}

double PhotoScorer::TextualDiv(PhotoId r1, PhotoId r2) const {
  return JaccardDistance(keywords_.Row(r1), keywords_.Row(r2));
}

double PhotoScorer::Mmr(PhotoId r, const std::vector<PhotoId>& selected,
                        const DiversifyParams& params) const {
  SOI_DCHECK(params.visual_weight == 0 || has_visual())
      << "visual_weight > 0 requires photos with visual descriptors";
  double value = (1.0 - params.lambda) * Rel(r, params);
  if (params.k > 1 && !selected.empty()) {
    double div_sum = 0.0;
    for (PhotoId other : selected) div_sum += Div(r, other, params);
    value += params.lambda / static_cast<double>(params.k - 1) * div_sum;
  }
  return value;
}

double PhotoScorer::SetRelevance(const std::vector<PhotoId>& set,
                                 double w) const {
  if (set.empty()) return 0.0;
  double spatial = 0.0;
  double textual = 0.0;
  for (PhotoId r : set) {
    spatial += SpatialRel(r);
    textual += TextualRel(r);
  }
  double inv_k = 1.0 / static_cast<double>(set.size());
  return w * inv_k * spatial + (1.0 - w) * inv_k * textual;
}

double PhotoScorer::SetDiversity(const std::vector<PhotoId>& set,
                                 double w) const {
  size_t k = set.size();
  if (k < 2) return 0.0;
  double spatial = 0.0;
  double textual = 0.0;
  for (size_t i = 0; i < k; ++i) {
    for (size_t j = i + 1; j < k; ++j) {
      spatial += SpatialDiv(set[i], set[j]);
      textual += TextualDiv(set[i], set[j]);
    }
  }
  double inv_pairs = 2.0 / (static_cast<double>(k) * (k - 1));
  return w * inv_pairs * spatial + (1.0 - w) * inv_pairs * textual;
}

double PhotoScorer::SetDiversity(const std::vector<PhotoId>& set,
                                 const DiversifyParams& params) const {
  double base = SetDiversity(set, params.w);
  size_t k = set.size();
  if (params.visual_weight == 0 || k < 2) return base;
  double visual = 0.0;
  for (size_t i = 0; i < k; ++i) {
    for (size_t j = i + 1; j < k; ++j) {
      visual += VisualDiv(set[i], set[j]);
    }
  }
  visual *= 2.0 / (static_cast<double>(k) * (k - 1));
  return (1.0 - params.visual_weight) * base +
         params.visual_weight * visual;
}

double PhotoScorer::Objective(const std::vector<PhotoId>& set,
                              const DiversifyParams& params) const {
  return (1.0 - params.lambda) * SetRelevance(set, params) +
         params.lambda * SetDiversity(set, params);
}

}  // namespace soi
