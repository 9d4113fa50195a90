#ifndef FW_BENCH_E2E_E2E_H_
#define FW_BENCH_E2E_E2E_H_

// The end-to-end benchmark (README.md in this directory): four seeded
// workloads driven through StreamSession the way a dashboard host drives
// it, plus a traced run that replays each workload's input through every
// layer's public entry point. Everything here is benchmark code; the
// library only ever sees the generated inputs.

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "exec/columns.h"
#include "exec/event.h"
#include "query/query.h"
#include "session/session.h"

namespace fw {
namespace e2e {

/// PushColumns batch size of the columnar workloads.
inline constexpr size_t kBatch = 1024;
/// Events between churn steps (query_churn) and between edits (all).
inline constexpr size_t kChurnInterval = 4096;
/// The session's drain cadence under sharding (ShardedExecutor default).
inline constexpr size_t kDrainInterval = 65536;
/// Snapshot cadence of every durable session (DurabilityOptions default).
inline constexpr uint64_t kSnapshotInterval = 65536;

// --- Workloads ---------------------------------------------------------

struct WorkloadSpec {
  std::string name;
  uint32_t num_keys = 1;
  uint32_t num_shards = 1;
  TimeT max_delay = 0;
  /// PushColumns in kBatch-event batches; false pushes per event.
  bool columnar = true;
  /// Durability on in every phase (not only the crash phase).
  bool durable = false;
  /// Replace one query every kChurnInterval events while streaming.
  bool churn = false;
  /// Generated stream length, events per saturate round, and events fed
  /// to the correctness gates and the traced replays (all at scale 1).
  size_t stream_events = 0;
  size_t round_events = 0;
  size_t check_events = 0;
  /// Open-loop rate of the paced phase, events per second.
  double paced_rate = 0.0;
};

/// One churn or edit step: remove live query `victim % live.size()` and
/// add `pool[pool_index]`.
struct ChurnStep {
  size_t victim = 0;
  size_t pool_index = 0;
};

/// Everything a run feeds the library. The dashboards (initial queries
/// and replacement pool) are part of each workload's definition and the
/// same for every seed; everything else comes from the seed.
struct Inputs {
  /// The stream in arrival order.
  std::vector<Event> events;
  /// The same stream as kBatch-event columnar chunks (columnar workloads).
  std::vector<EventColumns> chunks;
  /// Running maximum of arrival timestamps: the first arrival reaching a
  /// window end is the result's trigger event.
  std::vector<TimeT> max_ts;
  /// Initial live queries and their SQL text (queries register via SQL).
  std::vector<StreamQuery> queries;
  std::vector<std::string> sql;
  /// Replacement queries for churn and edits, and the step sequence.
  std::vector<std::string> pool_sql;
  std::vector<ChurnStep> steps;
  /// Events between consecutive kills of the crash phase.
  std::vector<size_t> crash_gaps;
};

/// The workload called `name`, or null.
const WorkloadSpec* FindWorkload(const std::string& name);
/// `scale` shrinks every size (the smoke run uses ~0.01).
WorkloadSpec Scaled(const WorkloadSpec& spec, double scale);
Inputs Generate(const WorkloadSpec& spec, uint64_t seed);
StreamSession::Options SessionOptions(const WorkloadSpec& spec);

// --- Results -------------------------------------------------------------

/// Order-insensitive exact fingerprint of a result multiset: XOR of
/// per-result FNV-1a hashes over (query tag, window-local operator, start,
/// end, key, value bits). Delivery order legitimately differs across
/// shard counts and drain points; content must not.
struct Fingerprint {
  uint64_t results = 0;
  uint64_t hash = 0;

  static uint64_t Hash(uint64_t tag, const WindowResult& r);
  void Fold(uint64_t tag, const WindowResult& r) {
    ++results;
    hash ^= Hash(tag, r);
  }
  bool operator==(const Fingerprint& other) const = default;
};

/// Receives every result a session delivers, tagged with its query id.
class ResultObserver {
 public:
  virtual ~ResultObserver() = default;
  virtual void Observe(QueryId id, const WindowResult& result) = 0;
};

class FingerprintObserver : public ResultObserver {
 public:
  void Observe(QueryId id, const WindowResult& result) override {
    print.Fold(id, result);
  }
  Fingerprint print;
};

/// Engine-level sink folding every result under one query tag: what a
/// session would deliver to query `tag` (ids count from 1 in
/// registration order).
class TagSink : public ResultSink {
 public:
  TagSink(QueryId tag, Fingerprint* print) : tag_(tag), print_(print) {}
  void OnResult(const WindowResult& result) override {
    print_->Fold(tag_, result);
  }

 private:
  QueryId tag_;
  Fingerprint* print_;
};

/// The first `n` arrivals, stably sorted by timestamp: the order a
/// bounded-lateness pipeline releases them in.
std::vector<Event> SortedPrefix(const std::vector<Event>& events, size_t n);

// --- Metrics -------------------------------------------------------------

struct Metric {
  double value = 0.0;
  std::string unit;
  /// How many samples the value summarizes (1 for a single measurement).
  size_t samples = 1;
};

/// Linear-interpolated quantile (q in [0, 1]) of `values`; 0 when empty.
double Quantile(std::vector<double> values, double q);
inline double Median(std::vector<double> values) {
  return Quantile(std::move(values), 0.5);
}

/// Result latencies in nanoseconds, bucketed at 1% resolution so that
/// millions of results cost a few kilobytes; quantiles interpolate inside
/// a bucket by rank.
class LatencyHistogram {
 public:
  LatencyHistogram();
  void Record(uint64_t ns);
  uint64_t count() const { return count_; }
  double QuantileNs(double q) const;

 private:
  std::vector<uint64_t> buckets_;
  uint64_t count_ = 0;
};

/// Deletes a durability directory and the files in it.
void RemoveDir(const std::string& dir);

/// Peak resident set since the last ResetPeakRss, in MiB above the
/// resident set at that reset. Linux only (/proc/self).
void ResetPeakRss();
double PeakRssAboveBaselineMb();

// --- Tracing -------------------------------------------------------------

/// In-memory span recorder for the traced run: {name, layer, start, end,
/// parent, run id}, written at exit as Chrome trace-event JSON. Spans are
/// scoped, so the innermost open span is the parent of a new one.
class Tracer {
 public:
  explicit Tracer(uint64_t run_id) : run_id_(run_id) {}

  void Begin(const std::string& name, const std::string& layer);
  /// Closes the innermost open span.
  void End();

  /// Busy seconds of the spans of `layer` (named `name`, or all when
  /// empty). Spans of one layer never nest in this benchmark, so busy
  /// time is the sum of durations.
  double LayerSeconds(const std::string& layer,
                      const std::string& name = "") const;

  bool WriteChromeJson(const std::string& path) const;

 private:
  struct Span {
    std::string name;
    std::string layer;
    uint64_t start_ns = 0;
    uint64_t end_ns = 0;
    int parent = -1;
  };
  uint64_t run_id_;
  std::vector<Span> spans_;
  std::vector<int> open_;
};

/// Scoped span; a null tracer records nothing.
class SpanScope {
 public:
  SpanScope(Tracer* tracer, const std::string& name, const std::string& layer)
      : tracer_(tracer) {
    if (tracer_ != nullptr) tracer_->Begin(name, layer);
  }
  ~SpanScope() {
    if (tracer_ != nullptr) tracer_->End();
  }
  SpanScope(const SpanScope&) = delete;
  SpanScope& operator=(const SpanScope&) = delete;

 private:
  Tracer* tracer_;
};

// --- Runs ----------------------------------------------------------------

struct RunConfig {
  uint64_t seed = 1;
  double seconds = 10.0;
  /// Directory for durable sessions' files (created and emptied here).
  std::string scratch_dir;
  /// Traced run: where trace_<workload>.json goes.
  std::string trace_dir;
  /// Flips one value the correctness gate sees, to prove the gate fails.
  bool inject_fault = false;
};

struct RunOutput {
  bool correct = true;
  uint64_t attempted = 0;
  uint64_t failed = 0;
  std::map<std::string, Metric> metrics;
  /// Per-phase event counts and seconds for the result's context block.
  std::map<std::string, double> phases;
  /// One line per failure, printed to stderr.
  std::vector<std::string> errors;

  /// Counts one attempted operation (a call, a gate comparison); a non-OK
  /// status or a false check counts it as failed.
  void Count(const Status& status, const std::string& what);
  void Check(bool ok, const std::string& what);
  /// Records a failure of an operation already counted as attempted.
  void Fail(const std::string& what);
  void Set(const std::string& name, double value, const std::string& unit,
           size_t samples = 1) {
    metrics[name] = Metric{value, unit, samples};
  }
};

/// The open-loop phase, in slices of fresh sessions fed at
/// spec.paced_rate. Report sets latency_p50_ms / latency_p99_ms (median
/// over slices of each slice's percentile) and the generator's own
/// bench.* numbers.
class PacedPhase {
 public:
  PacedPhase(const WorkloadSpec& spec, const Inputs& inputs,
             const RunConfig& config)
      : spec_(spec), in_(inputs), config_(config) {}

  /// One slice of `seconds`; appends the session's setup time.
  void RunSlice(double seconds, std::vector<double>* setups, RunOutput* out);
  void Report(RunOutput* out) const;

 private:
  const WorkloadSpec& spec_;
  const Inputs& in_;
  const RunConfig& config_;
  std::vector<double> p50_ms_;
  std::vector<double> p99_ms_;
  std::vector<double> lag_ms_;
  std::vector<double> batch_events_;
  uint64_t results_ = 0;
  uint64_t flushed_ = 0;
  size_t events_ = 0;
  double seconds_ = 0.0;
};

/// Untraced run: the end-to-end metrics.
RunOutput RunMeasured(const WorkloadSpec& spec, const Inputs& inputs,
                      const RunConfig& config);
/// Traced run: the per-layer metrics.
RunOutput RunTraced(const WorkloadSpec& spec, const Inputs& inputs,
                    const RunConfig& config);

}  // namespace e2e
}  // namespace fw

#endif  // FW_BENCH_E2E_E2E_H_
