#ifndef SOI_CORE_DIVERSIFY_OBJECTIVE_H_
#define SOI_CORE_DIVERSIFY_OBJECTIVE_H_

#include <cstdint>
#include <vector>

#include "common/csr.h"
#include "core/street_photos.h"
#include "geometry/point.h"
#include "objects/photo.h"

namespace soi {

/// Parameters of the SOI diversification problem (Problem 2 and Eq. 10):
/// summary size k, relevance/diversity trade-off lambda, spatial/textual
/// weight w, and the neighborhood radius rho of Definition 4.
struct DiversifyParams {
  int32_t k = 20;
  double lambda = 0.5;
  double w = 0.5;
  double rho = 0.0001;
  /// Weight of the visual-feature component in the *diversity* criteria
  /// (the paper's future work: "enhance the diversification criteria with
  /// visual features extracted from the photos"). 0 (default) reproduces
  /// the paper's purely spatio-textual diversity exactly; with v > 0 the
  /// pairwise diversity becomes
  /// (1-v) * (w * spatial + (1-w) * textual) + v * visual. Relevance
  /// stays spatio-textual. Requires photos with visual descriptors when
  /// positive.
  double visual_weight = 0.0;
};

/// Evaluates the spatio-textual relevance/diversity measures of Section
/// 4.1.2 for one street's photo set R_s. All selection algorithms (greedy
/// baseline, ST_Rel+Div, and the comparison variants) score through one
/// shared PhotoScorer instance, so their arithmetic is bit-identical and
/// result equality is exact.
///
/// Photo ids are local indices into StreetPhotos::photos.
class PhotoScorer {
 public:
  /// Precomputes per-photo spatial relevance (neighborhood counts within
  /// `rho`, Definition 4) and textual relevance (Definition 6), and copies
  /// the positions and keyword ids the pairwise measures read into flat
  /// columns. Requires a non-empty R_s and rho > 0.
  PhotoScorer(const StreetPhotos& street_photos, double rho);

  const StreetPhotos& street_photos() const { return *street_photos_; }
  double rho() const { return rho_; }
  int64_t num_photos() const {
    return static_cast<int64_t>(spatial_rel_.size());
  }

  /// spatial_rel(r) (Definition 4): photos of R_s within rho of r
  /// (including r itself), normalized by |R_s|.
  double SpatialRel(PhotoId r) const {
    return spatial_rel_[static_cast<size_t>(r)];
  }

  /// textual_rel(r) (Definition 6).
  double TextualRel(PhotoId r) const {
    return textual_rel_[static_cast<size_t>(r)];
  }

  /// True iff the photos carry visual descriptors.
  bool has_visual() const { return !centroid_.empty(); }

  /// Visual relevance (extension): similarity of the photo's descriptor
  /// to the street's centroid descriptor, in [0, 1]. Requires
  /// has_visual().
  double VisualRel(PhotoId r) const {
    return visual_rel_[static_cast<size_t>(r)];
  }

  /// The street's mean descriptor (empty when photos have none).
  const std::vector<float>& visual_centroid() const { return centroid_; }

  /// w-combined relevance of Eq. 4's summands.
  double Rel(PhotoId r, double w) const {
    return w * SpatialRel(r) + (1.0 - w) * TextualRel(r);
  }

  /// Relevance under the full parameter set. The visual extension only
  /// affects diversity, so this always equals Rel(r, params.w); it exists
  /// so callers can score uniformly through the parameter struct.
  double Rel(PhotoId r, const DiversifyParams& params) const {
    return Rel(r, params.w);
  }

  /// spatial_div(r, r') (Definition 5): distance normalized by maxD(s).
  double SpatialDiv(PhotoId r1, PhotoId r2) const;

  /// textual_div(r, r') (Definition 7): Jaccard distance of tag sets.
  double TextualDiv(PhotoId r1, PhotoId r2) const;

  /// Visual diversity (extension): normalized descriptor distance.
  /// Requires has_visual().
  double VisualDiv(PhotoId r1, PhotoId r2) const;

  /// w-combined pairwise diversity of Eq. 5's summands.
  double Div(PhotoId r1, PhotoId r2, double w) const {
    return w * SpatialDiv(r1, r2) + (1.0 - w) * TextualDiv(r1, r2);
  }

  /// Diversity under the full parameter set, including the visual
  /// extension. Identical to Div(r1, r2, params.w) when visual_weight
  /// is 0.
  double Div(PhotoId r1, PhotoId r2, const DiversifyParams& params) const {
    double div = Div(r1, r2, params.w);
    if (params.visual_weight > 0) {
      div = (1.0 - params.visual_weight) * div +
            params.visual_weight * VisualDiv(r1, r2);
    }
    return div;
  }

  /// The maximal marginal relevance of Eq. 10 for candidate `r` given the
  /// already-selected set: (1-lambda) rel(r) + lambda/(k-1) sum div(r, r').
  double Mmr(PhotoId r, const std::vector<PhotoId>& selected,
             const DiversifyParams& params) const;

  /// rel(R_k) of Eq. 4 for a selected set.
  double SetRelevance(const std::vector<PhotoId>& set, double w) const;

  /// rel(R_k) through the parameter struct; always equals the w-only
  /// version (the visual extension only affects diversity).
  double SetRelevance(const std::vector<PhotoId>& set,
                      const DiversifyParams& params) const {
    return SetRelevance(set, params.w);
  }

  /// div(R_k) of Eq. 5 for a selected set (0 for sets of size < 2).
  double SetDiversity(const std::vector<PhotoId>& set, double w) const;

  /// div(R_k) including the visual extension; equals the w-only version
  /// when visual_weight is 0.
  double SetDiversity(const std::vector<PhotoId>& set,
                      const DiversifyParams& params) const;

  /// The full objective F of Eq. 2.
  double Objective(const std::vector<PhotoId>& set,
                   const DiversifyParams& params) const;

 private:
  const StreetPhotos* street_photos_;
  double rho_;
  // Columns of R_s in local photo-id order, so SpatialDiv and TextualDiv
  // read two flat arrays instead of scattered Photo objects.
  std::vector<Point> positions_;
  CsrArray<KeywordId> keywords_;
  std::vector<double> spatial_rel_;
  std::vector<double> textual_rel_;
  // Visual extension (empty when photos carry no descriptors).
  std::vector<float> centroid_;
  std::vector<double> visual_rel_;
};

}  // namespace soi

#endif  // SOI_CORE_DIVERSIFY_OBJECTIVE_H_
