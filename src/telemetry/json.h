#ifndef FW_TELEMETRY_JSON_H_
#define FW_TELEMETRY_JSON_H_

/// JSON renderer for metric snapshots — the bench-artifact format
/// (bench_util.h --metrics-json=PATH). One top-level object:
///
///   { "counters": { name: integer, ... },
///     "gauges": { name: float, ... },
///     "histograms": { name: { "count", "sum", "mean",
///                             "p50", "p90", "p99",
///                             "buckets": [[le, n], ...] }, ... },
///     "trace": [ { "at_ns", "kind", "duration_ns", "a", "b" }, ... ],
///     "trace_dropped": integer }
///
/// Histogram buckets are emitted sparsely (populated buckets only) as
/// [inclusive-upper-bound, count] pairs. Key order follows the
/// registry's name order, so equal snapshots render byte-identically —
/// artifact diffs are meaningful.

#include <string>

#include "telemetry/metrics.h"

namespace fw {
namespace telemetry {

/// Renders one snapshot as a JSON object (no trailing newline).
std::string RenderJson(const MetricsSnapshot& snapshot);

}  // namespace telemetry
}  // namespace fw

#endif  // FW_TELEMETRY_JSON_H_
