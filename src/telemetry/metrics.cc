#include "telemetry/metrics.h"

#include "common/clock.h"

namespace fw {
namespace telemetry {

double HistogramSnapshot::Percentile(double q) const {
  if (count == 0) return 0.0;
  if (q < 0.0) q = 0.0;
  if (q > 1.0) q = 1.0;
  // Nearest rank, 1-based: ceil(q * count), at least 1. The product
  // can overshoot an exact integer (0.07 * 100 == 7.0000000000000009),
  // so a ceiling only counts once it clears the floor by more than the
  // product's rounding error.
  const double exact = q * static_cast<double>(count);
  uint64_t rank = static_cast<uint64_t>(exact);
  if (exact - static_cast<double>(rank) > exact * 1e-12) ++rank;
  if (rank < 1) rank = 1;
  if (rank > count) rank = count;
  uint64_t seen = 0;
  for (uint32_t b = 0; b < kHistogramBuckets; ++b) {
    if (buckets[b] == 0) continue;
    if (seen + buckets[b] < rank) {
      seen += buckets[b];
      continue;
    }
    // The target rank lands in bucket b. Interpolate linearly between
    // the bucket's bounds by the rank's position within the bucket —
    // exact for bucket 0 (all zeros), a within-bucket estimate
    // otherwise.
    double low = static_cast<double>(BucketLow(b));
    double high = static_cast<double>(BucketHigh(b));
    double into = static_cast<double>(rank - seen) /
                  static_cast<double>(buckets[b]);
    return low + (high - low) * into;
  }
  return static_cast<double>(BucketHigh(kHistogramBuckets - 1));
}

HistogramSnapshot Histogram::Snapshot() const {
  HistogramSnapshot snap;
  for (const Shard& shard : shards_) {
    for (uint32_t b = 0; b < kHistogramBuckets; ++b) {
      uint64_t n = shard.buckets[b].load(std::memory_order_relaxed);
      snap.buckets[b] += n;
      snap.count += n;
    }
    snap.sum += shard.sum.load(std::memory_order_relaxed);
  }
  return snap;
}

const char* TraceKindName(TraceKind kind) {
  switch (kind) {
    case TraceKind::kReplan:
      return "replan";
    case TraceKind::kResize:
      return "resize";
    case TraceKind::kCheckpoint:
      return "checkpoint";
    case TraceKind::kIdleRetire:
      return "idle_retire";
    case TraceKind::kWatermarkStall:
      return "watermark_stall";
    case TraceKind::kLateBurst:
      return "late_burst";
    case TraceKind::kDriftReplan:
      return "drift_replan";
    case TraceKind::kCrossoverDone:
      return "crossover_done";
    case TraceKind::kRecovery:
      return "recovery";
  }
  return "unknown";
}

MetricsRegistry::MetricsRegistry() = default;
MetricsRegistry::~MetricsRegistry() = default;

namespace {
// Resolve-or-create in an ordered map of owned metrics. unique_ptr keeps
// the metric's address stable across rehashing-free map growth — the
// handle contract in the header.
template <typename Map>
typename Map::mapped_type::element_type* GetOrCreate(Map& map,
                                                     std::string_view name) {
  auto it = map.find(name);
  if (it == map.end()) {
    it = map.emplace(std::string(name),
                     std::make_unique<typename Map::mapped_type::element_type>())
             .first;
  }
  return it->second.get();
}
}  // namespace

Counter* MetricsRegistry::GetCounter(std::string_view name) {
  MutexLock lock(&mu_);
  return GetOrCreate(counters_, name);
}

Gauge* MetricsRegistry::GetGauge(std::string_view name) {
  MutexLock lock(&mu_);
  return GetOrCreate(gauges_, name);
}

MaxGauge* MetricsRegistry::GetMaxGauge(std::string_view name) {
  MutexLock lock(&mu_);
  return GetOrCreate(max_gauges_, name);
}

Histogram* MetricsRegistry::GetHistogram(std::string_view name) {
  MutexLock lock(&mu_);
  return GetOrCreate(histograms_, name);
}

void MetricsRegistry::RecordTrace(TraceKind kind, uint64_t duration_ns,
                                  int64_t a, int64_t b) {
  TraceEvent event;
  event.at_ns = MonotonicNanos();
  event.kind = kind;
  event.duration_ns = duration_ns;
  event.a = a;
  event.b = b;
  MutexLock lock(&mu_);
  if (trace_.size() < kTraceCapacity) {
    trace_.push_back(event);
  } else {
    trace_[trace_next_ % kTraceCapacity] = event;
  }
  ++trace_next_;
}

MetricsSnapshot MetricsRegistry::Snapshot() const {
  MetricsSnapshot snap;
  MutexLock lock(&mu_);
  for (const auto& [name, counter] : counters_) {
    snap.counters[name] = counter->Total();
  }
  for (const auto& [name, gauge] : gauges_) {
    snap.gauges[name] = gauge->Value();
  }
  for (const auto& [name, gauge] : max_gauges_) {
    // Max gauges render as plain gauges at snapshot time: the sharded
    // cells are an implementation detail of lock-free raising.
    snap.gauges[name] = static_cast<double>(gauge->Max());
  }
  for (const auto& [name, histogram] : histograms_) {
    snap.histograms[name] = histogram->Snapshot();
  }
  if (trace_next_ <= kTraceCapacity) {
    snap.trace = trace_;
  } else {
    // Ring has wrapped: oldest event sits at the write cursor.
    snap.trace.reserve(kTraceCapacity);
    uint64_t start = trace_next_ % kTraceCapacity;
    for (size_t i = 0; i < kTraceCapacity; ++i) {
      snap.trace.push_back(trace_[(start + i) % kTraceCapacity]);
    }
    snap.trace_dropped = trace_next_ - kTraceCapacity;
  }
  return snap;
}

MetricsRegistry* ScratchRegistry() {
  // Leaked: executors outlive no sessions here, but test fixtures create
  // bare ShardedExecutors whose threads may still write at static-destructor
  // time; a leaked registry can never dangle.
  static MetricsRegistry* scratch = new MetricsRegistry();
  return scratch;
}

}  // namespace telemetry
}  // namespace fw
