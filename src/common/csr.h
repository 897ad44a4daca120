#ifndef SOI_COMMON_CSR_H_
#define SOI_COMMON_CSR_H_

#include <cstdint>
#include <utility>
#include <vector>

#include "common/check.h"
#include "common/span.h"

namespace soi {

/// Flat CSR (compressed sparse row) storage: `num_rows + 1` offsets into
/// one contiguous values arena. Replaces std::vector<std::vector<T>> in
/// the serving-path indexes — one allocation instead of one per row, rows
/// contiguous in memory in row order, and Row(i) is two loads with no
/// pointer chase into a separately allocated block.
///
/// Row contents and row count are immutable once built; builders either
/// stream rows in order (PushValue + FinishRow), adopt finished offsets
/// and values, or pre-size from exact per-row counts (FromRowCounts +
/// cursor fill, the pattern the deterministic parallel builds use).
template <typename T>
class CsrArray {
 public:
  /// An empty array with zero rows.
  CsrArray() : offsets_(1, 0) {}

  /// Adopts pre-built storage. `offsets` must be non-empty,
  /// non-decreasing, start at 0, and end at values.size().
  CsrArray(std::vector<int64_t> offsets, std::vector<T> values)
      : offsets_(std::move(offsets)), values_(std::move(values)) {
    SOI_CHECK(!offsets_.empty() && offsets_.front() == 0 &&
              offsets_.back() == static_cast<int64_t>(values_.size()))
        << "malformed CSR offsets";
  }

  /// Converts from nested-vector rows (snapshot ingest, tests).
  static CsrArray FromRows(const std::vector<std::vector<T>>& rows) {
    CsrArray out;
    size_t total = 0;
    for (const auto& row : rows) total += row.size();
    out.offsets_.reserve(rows.size() + 1);
    out.values_.reserve(total);
    for (const auto& row : rows) {
      out.values_.insert(out.values_.end(), row.begin(), row.end());
      out.offsets_.push_back(static_cast<int64_t>(out.values_.size()));
    }
    return out;
  }

  /// Pre-sizes the array to hold exactly `counts[i]` values in row i,
  /// value-initialized. Use mutable_row() to fill. This is the shape the
  /// lock-free parallel inversion wants: counts pass, exclusive prefix
  /// sum, then disjoint cursor fill.
  static CsrArray FromRowCounts(const std::vector<int64_t>& counts) {
    CsrArray out;
    out.offsets_.resize(counts.size() + 1);
    out.offsets_[0] = 0;
    for (size_t i = 0; i < counts.size(); ++i) {
      SOI_DCHECK(counts[i] >= 0);
      out.offsets_[i + 1] = out.offsets_[i] + counts[i];
    }
    out.values_.resize(static_cast<size_t>(out.offsets_.back()));
    return out;
  }

  /// Streaming builder: appends one value to the row currently under
  /// construction; FinishRow() seals it.
  void PushValue(T value) { values_.push_back(std::move(value)); }
  void FinishRow() {
    offsets_.push_back(static_cast<int64_t>(values_.size()));
  }

  int64_t num_rows() const {
    return static_cast<int64_t>(offsets_.size()) - 1;
  }
  int64_t num_values() const {
    return static_cast<int64_t>(values_.size());
  }

  Span<T> Row(int64_t row) const {
    SOI_DCHECK(row >= 0 && row < num_rows());
    const size_t r = static_cast<size_t>(row);
    return Span<T>(values_.data() + offsets_[r],
                   static_cast<size_t>(offsets_[r + 1] - offsets_[r]));
  }

  int64_t RowSize(int64_t row) const {
    SOI_DCHECK(row >= 0 && row < num_rows());
    const size_t r = static_cast<size_t>(row);
    return offsets_[r + 1] - offsets_[r];
  }

  /// Mutable view of row `row` for cursor-fill after FromRowCounts.
  T* mutable_row(int64_t row) {
    SOI_DCHECK(row >= 0 && row < num_rows());
    return values_.data() + offsets_[static_cast<size_t>(row)];
  }

  const std::vector<int64_t>& offsets() const { return offsets_; }
  const std::vector<T>& values() const { return values_; }

  friend bool operator==(const CsrArray& a, const CsrArray& b) {
    return a.offsets_ == b.offsets_ && a.values_ == b.values_;
  }
  friend bool operator!=(const CsrArray& a, const CsrArray& b) {
    return !(a == b);
  }

 private:
  std::vector<int64_t> offsets_;
  std::vector<T> values_;
};

}  // namespace soi

#endif  // SOI_COMMON_CSR_H_
