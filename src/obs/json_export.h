#ifndef SOI_OBS_JSON_EXPORT_H_
#define SOI_OBS_JSON_EXPORT_H_

#include <string>

#include "common/json_writer.h"
#include "obs/metrics.h"

namespace soi {
namespace obs {

/// Writes `snapshot` as one JSON object value into `json` (which must be
/// positioned where a value is expected — after Key(), inside an array,
/// or at the root):
///
///   {
///     "counters": {"soi.cache.hits": 12, ...},
///     "gauges": {"soi.pool.queue_depth": 0, ...},
///     "histograms": {
///       "soi.query.filter_seconds": {
///         "count": 288, "sum": 0.12, "mean": ..., "p50": ..., "p99": ...,
///         "buckets": [{"le": 1e-06, "count": 0}, ...]   // cumulative
///       }, ...
///     }
///   }
///
/// Zero-count histograms are exported without the "buckets" array, and
/// empty sections are emitted as empty objects, so the document shape is
/// stable before the first metric is registered.
void WriteMetricsJson(const MetricsSnapshot& snapshot, JsonWriter* json);

/// WriteMetricsJson of a snapshot as a standalone pretty-printed string.
std::string MetricsToJson(const MetricsSnapshot& snapshot);

}  // namespace obs
}  // namespace soi

#endif  // SOI_OBS_JSON_EXPORT_H_
