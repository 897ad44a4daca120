#include "text/keyword_set.h"

#include <algorithm>

namespace soi {

KeywordSet::KeywordSet(std::vector<KeywordId> ids) : ids_(std::move(ids)) {
  std::sort(ids_.begin(), ids_.end());
  ids_.erase(std::unique(ids_.begin(), ids_.end()), ids_.end());
}

KeywordSet::KeywordSet(std::initializer_list<KeywordId> ids)
    : KeywordSet(std::vector<KeywordId>(ids)) {}

bool KeywordSet::Contains(KeywordId id) const {
  return std::binary_search(ids_.begin(), ids_.end(), id);
}

bool KeywordSet::IntersectsAny(const KeywordSet& other) const {
  return IntersectionSize(other) > 0;
}

int64_t KeywordSet::IntersectionSize(const KeywordSet& other) const {
  return soi::IntersectionSize(ids_, other.ids_);
}

double KeywordSet::JaccardDistance(const KeywordSet& other) const {
  return soi::JaccardDistance(ids_, other.ids_);
}

int64_t IntersectionSize(Span<KeywordId> a, Span<KeywordId> b) {
  size_t i = 0;
  size_t j = 0;
  int64_t count = 0;
  while (i < a.size() && j < b.size()) {
    if (a[i] == b[j]) {
      ++count;
      ++i;
      ++j;
    } else if (a[i] < b[j]) {
      ++i;
    } else {
      ++j;
    }
  }
  return count;
}

double JaccardDistance(Span<KeywordId> a, Span<KeywordId> b) {
  int64_t intersection_size = IntersectionSize(a, b);
  int64_t union_size = static_cast<int64_t>(a.size() + b.size()) -
                       intersection_size;
  if (union_size == 0) return 0.0;
  return 1.0 - static_cast<double>(intersection_size) /
                   static_cast<double>(union_size);
}

}  // namespace soi
