#include "telemetry/json.h"

#include <cinttypes>
#include <cstdio>

namespace fw {
namespace telemetry {

namespace {

void AppendU64(std::string& out, uint64_t v) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%" PRIu64, v);
  out += buf;
}

void AppendI64(std::string& out, int64_t v) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%" PRId64, v);
  out += buf;
}

void AppendDouble(std::string& out, double v) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  out += buf;
}

// Registry names are dotted lowercase identifiers (no quotes/escapes by
// construction), so quoting is plain wrapping.
void AppendKey(std::string& out, const std::string& name) {
  out += '"';
  out += name;
  out += "\": ";
}

}  // namespace

std::string RenderJson(const MetricsSnapshot& snapshot) {
  std::string out = "{\n  \"counters\": {";
  bool first = true;
  for (const auto& [name, value] : snapshot.counters) {
    out += first ? "\n    " : ",\n    ";
    first = false;
    AppendKey(out, name);
    AppendU64(out, value);
  }
  out += first ? "}" : "\n  }";

  out += ",\n  \"gauges\": {";
  first = true;
  for (const auto& [name, value] : snapshot.gauges) {
    out += first ? "\n    " : ",\n    ";
    first = false;
    AppendKey(out, name);
    AppendDouble(out, value);
  }
  out += first ? "}" : "\n  }";

  out += ",\n  \"histograms\": {";
  first = true;
  for (const auto& [name, hist] : snapshot.histograms) {
    out += first ? "\n    " : ",\n    ";
    first = false;
    AppendKey(out, name);
    out += "{\"count\": ";
    AppendU64(out, hist.count);
    out += ", \"sum\": ";
    AppendU64(out, hist.sum);
    out += ", \"mean\": ";
    AppendDouble(out, hist.Mean());
    out += ", \"p50\": ";
    AppendDouble(out, hist.Percentile(0.50));
    out += ", \"p90\": ";
    AppendDouble(out, hist.Percentile(0.90));
    out += ", \"p99\": ";
    AppendDouble(out, hist.Percentile(0.99));
    out += ", \"buckets\": [";
    bool first_bucket = true;
    for (uint32_t b = 0; b < kHistogramBuckets; ++b) {
      if (hist.buckets[b] == 0) continue;
      if (!first_bucket) out += ", ";
      first_bucket = false;
      out += "[";
      AppendU64(out, BucketHigh(b));
      out += ", ";
      AppendU64(out, hist.buckets[b]);
      out += "]";
    }
    out += "]}";
  }
  out += first ? "}" : "\n  }";

  out += ",\n  \"trace\": [";
  first = true;
  for (const TraceEvent& event : snapshot.trace) {
    out += first ? "\n    " : ",\n    ";
    first = false;
    out += "{\"at_ns\": ";
    AppendU64(out, event.at_ns);
    out += ", \"kind\": \"";
    out += TraceKindName(event.kind);
    out += "\", \"duration_ns\": ";
    AppendU64(out, event.duration_ns);
    out += ", \"a\": ";
    AppendI64(out, event.a);
    out += ", \"b\": ";
    AppendI64(out, event.b);
    out += "}";
  }
  out += first ? "]" : "\n  ]";

  out += ",\n  \"trace_dropped\": ";
  AppendU64(out, snapshot.trace_dropped);
  out += "\n}";
  return out;
}

}  // namespace telemetry
}  // namespace fw
