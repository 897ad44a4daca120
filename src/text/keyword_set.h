#ifndef SOI_TEXT_KEYWORD_SET_H_
#define SOI_TEXT_KEYWORD_SET_H_

#include <cstdint>
#include <initializer_list>
#include <vector>

#include "common/span.h"
#include "text/vocabulary.h"

namespace soi {

/// An immutable-after-build sorted set of keyword ids (the Psi_p of a POI,
/// Psi_r of a photo, or Psi of a query).
///
/// Stored as a sorted vector for cache-friendly merge-style intersections,
/// which dominate the cost of the textual diversity (Jaccard) computations.
class KeywordSet {
 public:
  KeywordSet() = default;

  /// Builds from arbitrary ids; sorts and deduplicates.
  explicit KeywordSet(std::vector<KeywordId> ids);
  KeywordSet(std::initializer_list<KeywordId> ids);

  bool empty() const { return ids_.empty(); }
  int64_t size() const { return static_cast<int64_t>(ids_.size()); }

  const std::vector<KeywordId>& ids() const { return ids_; }

  bool Contains(KeywordId id) const;

  /// True iff the sets share at least one keyword (the relevance predicate
  /// Psi_p intersect Psi != empty of Definition 1).
  bool IntersectsAny(const KeywordSet& other) const;

  /// |this intersect other|.
  int64_t IntersectionSize(const KeywordSet& other) const;

  /// Jaccard distance 1 - |A^B|/|AvB| (Definition 7). Two empty sets have
  /// distance 0.
  double JaccardDistance(const KeywordSet& other) const;

  friend bool operator==(const KeywordSet& a, const KeywordSet& b) {
    return a.ids_ == b.ids_;
  }

 private:
  std::vector<KeywordId> ids_;
};

/// |A intersect B| of two ascending, duplicate-free id runs: the one merge
/// loop behind every keyword-set intersection.
int64_t IntersectionSize(Span<KeywordId> a, Span<KeywordId> b);

/// Jaccard distance 1 - |A^B|/|AvB| (Definition 7) of two ascending,
/// duplicate-free id runs, from one merge: |AvB| = |A| + |B| - |A^B|. Two
/// empty runs have distance 0.
double JaccardDistance(Span<KeywordId> a, Span<KeywordId> b);

}  // namespace soi

#endif  // SOI_TEXT_KEYWORD_SET_H_
