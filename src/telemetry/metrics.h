#ifndef FW_TELEMETRY_METRICS_H_
#define FW_TELEMETRY_METRICS_H_

/// Always-on runtime telemetry (DESIGN.md §13): a session-owned registry
/// of sharded metric cells — relaxed-atomic counters, gauges, and
/// fixed-bucket log2 latency histograms — plus a bounded trace-event ring
/// for structural events (replans, resizes, watermark stalls, late-event
/// bursts). Designed around two constraints:
///
///  * the hot path never takes a lock or shares a cache line across
///    shards: every metric is an array of cache-line-aligned cells,
///    writers touch only their own cell with relaxed atomics, and cells
///    are summed only at snapshot time;
///  * measurement never perturbs results: telemetry reads the clock
///    (common/clock.h) and counts, but nothing observable — results,
///    watermarks, checkpoints — ever depends on a metric value, so the
///    bitwise-determinism invariant (fuzz + elasticity suites) holds
///    whatever the metrics read.
///
/// Registry handles (Counter*, Gauge*, Histogram*) are resolved by name
/// once, at construction time (plan build / executor build), never per
/// event. Handles are stable for the registry's lifetime: the registry
/// owns the metric objects at fixed addresses, so a re-registered name
/// (a replan rebuilding an executor over the same session) returns the
/// same object — which is exactly what makes counters cumulative across
/// executor swaps and exact across Resize: the cells never move, so no
/// count is dropped or double-merged (tests/telemetry_test.cc pins
/// 1→4→2).

#include <array>
#include <atomic>
#include <bit>
#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "common/mutex.h"

namespace fw {
namespace telemetry {

/// Telemetry is always compiled in. Kept only for the benchmark's
/// run-context block, which still reports it.
inline constexpr bool kEnabled = true;

/// Cells per metric. Shard i writes cell (i & kCellMask); with more
/// shards than cells, distant shards share a cell — totals stay exact
/// (cells are summed), only false sharing could reappear past 16 workers.
inline constexpr uint32_t kCells = 16;
inline constexpr uint32_t kCellMask = kCells - 1;
static_assert((kCells & kCellMask) == 0, "kCells must be a power of two");

/// Histogram buckets: bucket 0 holds exact zeros; bucket b (1..64) holds
/// values in [2^(b-1), 2^b - 1]. Fixed log2 buckets keep Record() to a
/// bit_width plus one relaxed increment, and make bucket boundaries
/// identical across runs and hosts (no adaptive resizing to drift).
inline constexpr uint32_t kHistogramBuckets = 65;

/// Bucket index of a value (see above).
inline constexpr uint32_t BucketOf(uint64_t value) {
  return value == 0 ? 0u : static_cast<uint32_t>(std::bit_width(value));
}

/// Inclusive value range covered by a bucket.
inline constexpr uint64_t BucketLow(uint32_t bucket) {
  return bucket == 0 ? 0 : uint64_t{1} << (bucket - 1);
}
inline constexpr uint64_t BucketHigh(uint32_t bucket) {
  return bucket == 0 ? 0
         : bucket >= 64
             ? ~uint64_t{0}
             : (uint64_t{1} << bucket) - 1;
}

namespace internal {
struct alignas(64) Cell {
  std::atomic<uint64_t> value{0};
};
}  // namespace internal

/// Monotonic event count, sharded. Writers pass their shard index; any
/// index is safe (masked). Total() is a relaxed sum — exact once the
/// writers are quiesced, a live snapshot otherwise.
class Counter {
 public:
  void Add(uint32_t cell, uint64_t delta) {
    cells_[cell & kCellMask].value.fetch_add(delta,
                                             std::memory_order_relaxed);
  }
  void Increment(uint32_t cell) { Add(cell, 1); }

  uint64_t Total() const {
    uint64_t total = 0;
    for (const auto& cell : cells_) {
      total += cell.value.load(std::memory_order_relaxed);
    }
    return total;
  }

 private:
  std::array<internal::Cell, kCells> cells_{};
};

/// Instantaneous value (one writer at a time; last write wins). Values
/// are doubles stored as bit patterns, so Set/Value are lock-free.
class Gauge {
 public:
  void Set(double value) {
    bits_.store(std::bit_cast<uint64_t>(value), std::memory_order_relaxed);
  }

  double Value() const {
    return std::bit_cast<double>(bits_.load(std::memory_order_relaxed));
  }

 private:
  std::atomic<uint64_t> bits_{std::bit_cast<uint64_t>(0.0)};
};

/// Sharded high-water mark (e.g. per-shard ring backlog peaks). Each
/// writer raises only its own cell; Max() is the cross-cell maximum.
class MaxGauge {
 public:
  void UpdateMax(uint32_t cell, uint64_t value) {
    std::atomic<uint64_t>& slot = cells_[cell & kCellMask].value;
    uint64_t seen = slot.load(std::memory_order_relaxed);
    while (value > seen &&
           !slot.compare_exchange_weak(seen, value,
                                       std::memory_order_relaxed)) {
    }
  }

  uint64_t Max() const {
    uint64_t max = 0;
    for (const auto& cell : cells_) {
      uint64_t v = cell.value.load(std::memory_order_relaxed);
      if (v > max) max = v;
    }
    return max;
  }

 private:
  std::array<internal::Cell, kCells> cells_{};
};

/// Aggregated histogram state (one consistent read of a Histogram).
struct HistogramSnapshot {
  uint64_t count = 0;
  uint64_t sum = 0;
  std::array<uint64_t, kHistogramBuckets> buckets{};

  /// Rank-based percentile estimate (q in [0, 1]): finds the bucket
  /// containing the nearest-rank sample, rank ceil(q * count), and
  /// interpolates linearly inside its [low, high] value range. Exact for bucket 0 (zeros); within a
  /// factor-of-two bound otherwise — the contract of log2 buckets.
  double Percentile(double q) const;
  double Mean() const {
    return count == 0 ? 0.0
                      : static_cast<double>(sum) / static_cast<double>(count);
  }
};

/// Fixed-bucket log2 latency histogram, sharded like Counter. Record is
/// a bit_width plus two relaxed adds (bucket count and value sum).
class Histogram {
 public:
  void Record(uint32_t cell, uint64_t value) {
    Shard& shard = shards_[cell & kCellMask];
    shard.buckets[BucketOf(value)].fetch_add(1, std::memory_order_relaxed);
    shard.sum.fetch_add(value, std::memory_order_relaxed);
  }

  HistogramSnapshot Snapshot() const;

 private:
  struct alignas(64) Shard {
    std::array<std::atomic<uint64_t>, kHistogramBuckets> buckets{};
    std::atomic<uint64_t> sum{0};
  };
  std::array<Shard, kCells> shards_{};
};

/// Structural runtime events recorded in the trace ring. Values are
/// serialized into artifacts — append only, never renumber.
enum class TraceKind : uint8_t {
  kReplan = 0,         // a/b = operators migrated / cold
  kResize = 1,         // a/b = shard width before / after
  kCheckpoint = 2,     // a = operators snapshotted
  kIdleRetire = 3,     // last query removed; pipeline retired
  kWatermarkStall = 4, // a = events buffered while the watermark held
  kLateBurst = 5,      // a = consecutive late events in the burst
  kDriftReplan = 6,    // a = structural change (0 recost-only, 1 crossover)
  kCrossoverDone = 7,  // a = accumulate ops retired with the old pipeline
  kRecovery = 8,       // a/b = changelog records replayed / snapshots skipped
};

const char* TraceKindName(TraceKind kind);

/// One trace event. `at_ns` is MonotonicNanos (process-relative; compare
/// within one run only), `duration_ns` the span length for span-shaped
/// events (replan/resize/checkpoint), 0 for point events.
struct TraceEvent {
  uint64_t at_ns = 0;
  TraceKind kind = TraceKind::kReplan;
  uint64_t duration_ns = 0;
  int64_t a = 0;
  int64_t b = 0;
};

/// Everything a registry knows, aggregated at one point in time. Maps
/// are ordered by name so snapshot iteration — and therefore every
/// rendered artifact — is deterministic.
struct MetricsSnapshot {
  std::map<std::string, uint64_t> counters;
  std::map<std::string, double> gauges;
  std::map<std::string, HistogramSnapshot> histograms;
  /// Oldest first; `trace_dropped` counts events evicted by the bounded
  /// ring before this snapshot.
  std::vector<TraceEvent> trace;
  uint64_t trace_dropped = 0;
};

/// The session-owned metric namespace. Registration and snapshotting
/// lock `mu_`; the returned metric objects are lock-free and live at
/// stable addresses until the registry dies (the executor handle
/// contract above). Thread-safe throughout — but by design only
/// registration, trace recording, and Snapshot ever touch the lock, and
/// none of those is on the per-event path.
class MetricsRegistry {
 public:
  MetricsRegistry();
  ~MetricsRegistry();

  MetricsRegistry(const MetricsRegistry&) = delete;
  MetricsRegistry& operator=(const MetricsRegistry&) = delete;

  /// Resolve-or-create by name. Names are dotted lowercase
  /// ("executor.batch_handoff_ns"); the Prometheus renderer maps them to
  /// fw_executor_batch_handoff_ns. Re-resolving a name returns the same
  /// object (never resets it).
  Counter* GetCounter(std::string_view name);
  Gauge* GetGauge(std::string_view name);
  MaxGauge* GetMaxGauge(std::string_view name);
  Histogram* GetHistogram(std::string_view name);

  /// Appends to the bounded trace ring (capacity kTraceCapacity; oldest
  /// events are dropped and counted). Stamps TraceEvent::at_ns.
  void RecordTrace(TraceKind kind, uint64_t duration_ns = 0, int64_t a = 0,
                   int64_t b = 0);

  MetricsSnapshot Snapshot() const;

  static constexpr size_t kTraceCapacity = 256;

 private:
  mutable Mutex mu_;
  /// Ordered maps: snapshot (and export) order is the name order.
  std::map<std::string, std::unique_ptr<Counter>, std::less<>> counters_
      FW_GUARDED_BY(mu_);
  std::map<std::string, std::unique_ptr<Gauge>, std::less<>> gauges_
      FW_GUARDED_BY(mu_);
  std::map<std::string, std::unique_ptr<MaxGauge>, std::less<>> max_gauges_
      FW_GUARDED_BY(mu_);
  std::map<std::string, std::unique_ptr<Histogram>, std::less<>> histograms_
      FW_GUARDED_BY(mu_);
  /// Bounded ring: write cursor wraps; size() = min(next_, capacity).
  std::vector<TraceEvent> trace_ FW_GUARDED_BY(mu_);
  uint64_t trace_next_ FW_GUARDED_BY(mu_) = 0;
};

/// Fallback registry for executors constructed without a session (tests,
/// raw harness runs): writes land in a process-global scratch namespace
/// nobody snapshots, so instrumented code never branches on "is
/// telemetry wired". Leaked intentionally (lives for the process).
MetricsRegistry* ScratchRegistry();

}  // namespace telemetry
}  // namespace fw

#endif  // FW_TELEMETRY_METRICS_H_
