// The untraced run: every end-to-end metric, then the correctness gates.
//
// Every workload goes through the same five user-visible operations, so
// each end-to-end metric exists on each workload; what differs is the
// configuration and input that decide which layers do the work:
//   setup      construct a session and register every dashboard (SQL)
//   saturate   closed loop: push a fixed stream as fast as calls return,
//              in rounds of fresh sessions; throughput per round
//   paced      open loop at a fixed rate in slices of fresh sessions;
//              result latency from the due time of each result's trigger
//              event; p50 and p99 per slice
//   edit       replace one dashboard every kEditInterval events on a
//              warm live session; wall time of each Add/RemoveQuery
//   crash      durable session killed (destructor) at seeded points and
//              brought back with StreamSession::Recover
//
// Shared hosts alternate between two speeds (a busy neighbour on the
// sibling hyperthread costs ~1.5x) in episodes of one to ten seconds. A
// median of samples flips between the two modes with the share of slow
// time in the run, so every metric reports its fast decile instead: the
// 90th percentile of round throughput, the 10th percentile of call times
// and of per-slice latency percentiles. The phases are interleaved in
// one-second cycles, so each metric's samples span the whole run.

#include <algorithm>
#include <cmath>
#include <cstring>
#include <unordered_map>

#include "common/clock.h"
#include "e2e.h"
#include "exec/engine.h"
#include "live_session.h"
#include "plan/plan.h"

namespace fw {
namespace e2e {
namespace {

/// Seconds of --seconds per cycle, the shares of a cycle the saturate and
/// paced phases take, and the edits and kills per second of --seconds.
/// The gates are untimed.
constexpr double kCycleSeconds = 1.0;
constexpr double kSaturateShare = 0.35;
constexpr double kPacedShare = 0.3;
constexpr double kEditsPerSecond = 40;
constexpr double kCrashesPerSecond = 2;
/// Events between two edits of the edit phase.
constexpr size_t kEditInterval = 1024;
/// The fast decile (see the file comment).
constexpr double kFastTimes = 0.1;
constexpr double kFastRates = 0.9;
/// The open-loop generator wakes this often and pushes everything due.
constexpr uint64_t kWakeNs = 250'000;

/// Sets `name` to the q-quantile of `values`, if there are any.
void SetQuantile(RunOutput* out, const std::string& name,
                 const std::vector<double>& values, double q,
                 const std::string& unit, size_t samples = 0) {
  if (!values.empty()) {
    out->Set(name, Quantile(values, q), unit,
             samples > 0 ? samples : values.size());
  }
}

/// Rounds of fresh sessions, each pushing the first round_events events
/// and finishing; every round must deliver the same result multiset.
class SaturatePhase {
 public:
  SaturatePhase(const WorkloadSpec& spec, const Inputs& in,
                const RunConfig& config)
      : spec_(spec), in_(in), config_(config) {}

  /// Rounds until `budget_s` is spent (at least one).
  void RunCycle(double budget_s, std::vector<double>* setups, RunOutput* out) {
    MonotonicTimer cycle;
    do {
      if (failed_) return;
      FingerprintObserver sink;
      LiveSession live(spec_, in_,
                       LiveSession::For(spec_, config_.scratch_dir), &sink);
      Status status = live.Start();
      if (status.ok()) {
        setups->push_back(live.setup_seconds());
        MonotonicTimer round;
        status = live.FeedTo(spec_.round_events);
        if (status.ok()) status = live.Finish();
        if (status.ok()) {
          rates_.push_back(static_cast<double>(spec_.round_events) /
                           round.ElapsedSeconds());
        }
      }
      out->attempted += live.calls();
      if (!status.ok()) {
        out->Fail("saturate: " + status.ToString());
        failed_ = true;
      } else if (rates_.size() == 1) {
        first_ = sink.print;
      } else {
        out->Check(sink.print == first_,
                   "saturate: round " + std::to_string(rates_.size()) +
                       " delivered a different result multiset than round 1");
      }
    } while (cycle.ElapsedSeconds() < budget_s);
    seconds_ += cycle.ElapsedSeconds();
  }

  void Report(RunOutput* out) const {
    SetQuantile(out, "events_per_s", rates_, kFastRates, "events/s");
    out->phases["saturate_events"] =
        static_cast<double>(spec_.round_events * rates_.size());
    out->phases["saturate_s"] = seconds_;
  }

 private:
  const WorkloadSpec& spec_;
  const Inputs& in_;
  const RunConfig& config_;
  std::vector<double> rates_;
  Fingerprint first_;
  double seconds_ = 0.0;
  bool failed_ = false;
};

/// Latency of each result from the due time of its trigger event: the
/// first arrival whose timestamp reaches the window end plus max_delay.
class LatencyObserver : public ResultObserver {
 public:
  LatencyObserver(const Inputs& in, TimeT max_delay, double ns_per_event)
      : max_ts_(in.max_ts),
        max_delay_(max_delay),
        ns_per_event_(ns_per_event) {}

  void Observe(QueryId, const WindowResult& result) override {
    if (finishing) {
      ++flushed;
      return;
    }
    if (result.end != last_end_) {
      last_end_ = result.end;
      trigger_ = static_cast<size_t>(
          std::lower_bound(max_ts_.begin(), max_ts_.end(),
                           result.end + max_delay_) -
          max_ts_.begin());
    }
    const uint64_t now = MonotonicNanos();
    const double due =
        static_cast<double>(t0) + static_cast<double>(trigger_) * ns_per_event_;
    if (trigger_ >= due_limit || static_cast<double>(now) < due) {
      ++early;
      return;
    }
    histogram.Record(static_cast<uint64_t>(static_cast<double>(now) - due));
  }

  uint64_t t0 = 0;
  /// Events pushed (or being pushed) so far; a trigger beyond it means
  /// the result arrived before its trigger event.
  size_t due_limit = 0;
  bool finishing = false;
  uint64_t flushed = 0;
  uint64_t early = 0;
  LatencyHistogram histogram;

 private:
  const std::vector<TimeT>& max_ts_;
  const TimeT max_delay_;
  const double ns_per_event_;
  TimeT last_end_ = -1;
  size_t trigger_ = 0;
};

}  // namespace

void PacedPhase::RunSlice(double seconds, std::vector<double>* setups,
                          RunOutput* out) {
  const double ns_per_event = 1e9 / spec_.paced_rate;
  const size_t total = std::min(
      in_.events.size(), static_cast<size_t>(spec_.paced_rate * seconds));
  LatencyObserver latency(in_, spec_.max_delay, ns_per_event);
  LiveSession::Config live_config =
      LiveSession::For(spec_, config_.scratch_dir);
  // Each slice churns through its own stretch of the step list.
  live_config.first_step = events_ / kChurnInterval;
  LiveSession live(spec_, in_, live_config, &latency);
  Status status = live.Start();
  if (status.ok()) setups->push_back(live.setup_seconds());
  const uint64_t t0 = MonotonicNanos();
  latency.t0 = t0;
  uint64_t wake = t0;
  while (status.ok() && live.fed() < total) {
    const uint64_t now = MonotonicNanos();
    lag_ms_.push_back(static_cast<double>(now - wake) * 1e-6);
    const size_t due = std::min(
        total,
        static_cast<size_t>(static_cast<double>(now - t0) / ns_per_event) + 1);
    if (due > live.fed()) {
      batch_events_.push_back(static_cast<double>(due - live.fed()));
      latency.due_limit = due;
      status = live.FeedTo(due);
    }
    wake += kWakeNs;
    // Spin rather than sleep: a sleep overshoots by a host-dependent
    // amount, which would land in every latency sample.
    while (MonotonicNanos() < wake) {
    }
  }
  seconds_ += static_cast<double>(MonotonicNanos() - t0) * 1e-9;
  events_ += total;
  latency.finishing = true;
  if (status.ok()) status = live.Finish();
  out->attempted += live.calls();
  if (!status.ok()) {
    out->Fail("paced: " + status.ToString());
    return;
  }
  out->Check(latency.early == 0,
             "paced: " + std::to_string(latency.early) +
                 " results arrived before their trigger event");
  const LatencyHistogram& h = latency.histogram;
  results_ += h.count();
  flushed_ += latency.flushed;
  p50_ms_.push_back(h.QuantileNs(0.5) * 1e-6);
  if (static_cast<double>(h.count()) * 0.01 >= 10.0) {
    p99_ms_.push_back(h.QuantileNs(0.99) * 1e-6);
  }
}

void PacedPhase::Report(RunOutput* out) const {
  SetQuantile(out, "latency_p50_ms", p50_ms_, kFastTimes, "ms", results_);
  SetQuantile(out, "latency_p99_ms", p99_ms_, kFastTimes, "ms", results_);
  out->Set("paced_finish_results", static_cast<double>(flushed_), "count");
  SetQuantile(out, "bench.gen_lag_ms_p99", lag_ms_, 0.99, "ms");
  if (!lag_ms_.empty()) {
    out->Set("bench.gen_lag_ms_max",
             *std::max_element(lag_ms_.begin(), lag_ms_.end()), "ms",
             lag_ms_.size());
  }
  SetQuantile(out, "bench.paced_batch_events_p50", batch_events_, 0.5,
              "events");
  out->phases["paced_events"] = static_cast<double>(events_);
  out->phases["paced_s"] = seconds_;
}

namespace {

/// One warm live session whose dashboards are edited, cycle after cycle.
class EditPhase {
 public:
  EditPhase(const WorkloadSpec& spec, const Inputs& in,
            const RunConfig& config)
      : in_(in), live_(spec, in, EditConfig(spec, config), &sink_) {}

  void RunCycle(size_t edits, std::vector<double>* setups) {
    MonotonicTimer cycle;
    if (!started_) {
      started_ = true;
      status_ = live_.Start();
      if (status_.ok()) {
        setups->push_back(live_.setup_seconds());
        status_ = live_.FeedTo(kDrainInterval);  // Warm state to migrate.
      }
    }
    for (size_t i = 0; status_.ok() && i < edits &&
                       live_.fed() + kEditInterval <= in_.events.size();
         ++i) {
      status_ = live_.Edit();
      if (status_.ok()) status_ = live_.FeedTo(live_.fed() + kEditInterval);
    }
    seconds_ += cycle.ElapsedSeconds();
  }

  void Report(RunOutput* out) const {
    out->attempted += live_.calls();
    if (!status_.ok()) out->Fail("edit: " + status_.ToString());
    SetQuantile(out, "replan_ms_p10", live_.replan_ms(), kFastTimes, "ms");
    out->phases["edit_events"] = static_cast<double>(live_.fed());
    out->phases["edit_s"] = seconds_;
  }

 private:
  static LiveSession::Config EditConfig(const WorkloadSpec& spec,
                                        const RunConfig& config) {
    LiveSession::Config live = LiveSession::For(spec, config.scratch_dir);
    live.churn = false;  // Edits come from RunCycle instead.
    return live;
  }

  const Inputs& in_;
  FingerprintObserver sink_;
  LiveSession live_;
  bool started_ = false;
  Status status_;
  double seconds_ = 0.0;
};

/// One durable session (in the workload's configuration otherwise),
/// killed and recovered at the seeded crash points, cycle after cycle.
class CrashPhase {
 public:
  CrashPhase(const WorkloadSpec& spec, const Inputs& in,
             const RunConfig& config)
      : in_(in), live_(spec, in, CrashConfig(spec, config), &sink_) {}

  void RunCycle(size_t crashes) {
    MonotonicTimer cycle;
    if (!started_) {
      started_ = true;
      status_ = live_.Start();
    }
    for (size_t i = 0; status_.ok() && i < crashes &&
                       next_gap_ < in_.crash_gaps.size();
         ++i) {
      status_ = live_.FeedTo(live_.fed() + in_.crash_gaps[next_gap_++]);
      double seconds = 0.0;
      if (status_.ok()) status_ = live_.CrashAndRecover(&seconds);
      if (status_.ok()) recover_ms_.push_back(seconds * 1e3);
    }
    seconds_ += cycle.ElapsedSeconds();
  }

  void Report(RunOutput* out) const {
    out->attempted += live_.calls();
    if (!status_.ok()) out->Fail("crash: " + status_.ToString());
    SetQuantile(out, "recovery_ms_p10", recover_ms_, kFastTimes, "ms");
    out->phases["crash_events"] = static_cast<double>(live_.fed());
    out->phases["crash_s"] = seconds_;
  }

 private:
  static LiveSession::Config CrashConfig(const WorkloadSpec& spec,
                                         const RunConfig& config) {
    LiveSession::Config live = LiveSession::For(spec, config.scratch_dir);
    live.durable = true;
    live.dir = LiveSession::NewDir(config.scratch_dir);
    return live;
  }

  const Inputs& in_;
  FingerprintObserver sink_;
  LiveSession live_;
  bool started_ = false;
  Status status_;
  size_t next_gap_ = 0;
  std::vector<double> recover_ms_;
  double seconds_ = 0.0;
};

// --- Correctness gates ---------------------------------------------------

/// Fingerprints what a gate's session delivers; with `inject_fault` it
/// corrupts the first result it sees, which the gate must catch.
class GateObserver : public FingerprintObserver {
 public:
  explicit GateObserver(bool inject_fault) : inject_fault_(inject_fault) {}
  void Observe(QueryId id, const WindowResult& result) override {
    if (inject_fault_) {
      inject_fault_ = false;
      WindowResult corrupted = result;
      corrupted.value += 1.0;
      FingerprintObserver::Observe(id, corrupted);
      return;
    }
    FingerprintObserver::Observe(id, result);
  }

 private:
  bool inject_fault_;
};

/// Runs a gate session over the first `n` events (and Finish).
Status RunGateSession(const WorkloadSpec& spec, const Inputs& in,
                      const LiveSession::Config& live_config, size_t n,
                      ResultObserver* observer, RunOutput* out) {
  LiveSession live(spec, in, live_config, observer);
  Status status = live.Start();
  if (status.ok()) status = live.FeedTo(n);
  if (status.ok()) status = live.Finish();
  out->attempted += live.calls();
  return status;
}

/// Each query's results must equal its original unshared plan, executed
/// per event on the sorted stream: independent of the optimizer, the
/// shared plan, sharding and reordering.
void OracleGate(const WorkloadSpec& spec, const Inputs& in,
                const RunConfig& config, RunOutput* out) {
  GateObserver got(config.inject_fault);
  Status status =
      RunGateSession(spec, in, LiveSession::For(spec, config.scratch_dir),
                     spec.check_events, &got, out);
  if (!status.ok()) {
    out->Fail("oracle gate session: " + status.ToString());
    return;
  }
  Fingerprint want;
  const std::vector<Event> sorted = SortedPrefix(in.events, spec.check_events);
  PlanExecutor::Options options;
  options.num_keys = spec.num_keys;
  for (size_t i = 0; i < in.queries.size(); ++i) {
    const QueryPlan plan =
        QueryPlan::Original(in.queries[i].windows, in.queries[i].agg);
    TagSink sink(static_cast<QueryId>(i + 1), &want);
    PlanExecutor executor(plan, options, &sink);
    for (const Event& event : sorted) executor.Push(event);
    executor.Finish();
  }
  out->Check(got.print == want,
             "oracle gate: session delivered " +
                 std::to_string(got.print.results) +
                 " results unequal to the original plans' " +
                 std::to_string(want.results));
}

/// A churning session must equal a per-event, 1-shard session with the
/// same churn schedule (the fuzz harness's oracle).
void ChurnGate(const WorkloadSpec& spec, const Inputs& in,
               const RunConfig& config, RunOutput* out) {
  GateObserver got(config.inject_fault);
  FingerprintObserver want;
  LiveSession::Config reference = LiveSession::For(spec, config.scratch_dir);
  reference.columnar = false;
  reference.num_shards = 1;
  reference.durable = false;
  Status status =
      RunGateSession(spec, in, LiveSession::For(spec, config.scratch_dir),
                     spec.check_events, &got, out);
  if (status.ok()) {
    status = RunGateSession(spec, in, reference, spec.check_events, &want, out);
  }
  if (!status.ok()) {
    out->Fail("churn gate session: " + status.ToString());
    return;
  }
  out->Check(got.print == want.print,
             "churn gate: " + std::to_string(got.print.results) +
                 " results unequal to the per-event reference's " +
                 std::to_string(want.print.results));
}

/// Deduplicates at-least-once delivery across recoveries: a re-delivered
/// result must be bitwise equal to its first delivery.
class DedupObserver : public ResultObserver {
 public:
  explicit DedupObserver(bool inject_fault) : inject_fault_(inject_fault) {}

  void Observe(QueryId id, const WindowResult& result) override {
    WindowResult r = result;
    if (inject_fault_) {
      inject_fault_ = false;
      r.value += 1.0;
    }
    auto [it, inserted] = seen_.try_emplace(
        Key{id, r.operator_id, r.start, r.end, r.key}, r.value);
    if (!inserted && std::memcmp(&it->second, &r.value, sizeof(double)) != 0) {
      ++conflicts;
    }
  }

  Fingerprint Distinct() const {
    Fingerprint print;
    for (const auto& [key, value] : seen_) {
      print.Fold(key.id, WindowResult{key.op, key.start, key.end, key.key,
                                      value});
    }
    return print;
  }

  uint64_t conflicts = 0;

 private:
  struct Key {
    QueryId id;
    int op;
    TimeT start;
    TimeT end;
    uint32_t key;
    bool operator==(const Key& other) const = default;
  };
  struct KeyHash {
    size_t operator()(const Key& k) const {
      return Fingerprint::Hash(k.id, WindowResult{k.op, k.start, k.end, k.key,
                                                  0.0});
    }
  };
  bool inject_fault_;
  std::unordered_map<Key, double, KeyHash> seen_;
};

/// Killed and recovered at seeded points, a durable session's
/// deduplicated results must equal an uninterrupted plain session's.
void DurableGate(const WorkloadSpec& spec, const Inputs& in,
                 const RunConfig& config, RunOutput* out) {
  DedupObserver got(config.inject_fault);
  LiveSession::Config durable = LiveSession::For(spec, config.scratch_dir);
  durable.dir = LiveSession::NewDir(config.scratch_dir);
  durable.durable = true;
  {
    LiveSession live(spec, in, durable, &got);
    Status status = live.Start();
    for (size_t gap : in.crash_gaps) {
      if (!status.ok() || live.fed() + gap >= spec.check_events) break;
      status = live.FeedTo(live.fed() + gap);
      double seconds = 0.0;
      if (status.ok()) status = live.CrashAndRecover(&seconds);
    }
    if (status.ok()) status = live.FeedTo(spec.check_events);
    if (status.ok()) status = live.Finish();
    out->attempted += live.calls();
    if (!status.ok()) {
      out->Fail("durable gate session: " + status.ToString());
      return;
    }
  }
  FingerprintObserver want;
  LiveSession::Config plain = LiveSession::For(spec, config.scratch_dir);
  plain.durable = false;
  Status status =
      RunGateSession(spec, in, plain, spec.check_events, &want, out);
  if (!status.ok()) {
    out->Fail("durable gate reference: " + status.ToString());
    return;
  }
  out->Check(got.conflicts == 0,
             "durable gate: " + std::to_string(got.conflicts) +
                 " re-delivered results differ from their first delivery");
  out->Check(got.Distinct() == want.print,
             "durable gate: recovered results unequal to the uninterrupted "
             "session's");
}

}  // namespace

RunOutput RunMeasured(const WorkloadSpec& spec, const Inputs& in,
                      const RunConfig& config) {
  RunOutput out;
  std::vector<double> setups;
  SaturatePhase saturate(spec, in, config);
  PacedPhase paced(spec, in, config);
  EditPhase edits(spec, in, config);
  CrashPhase crashes(spec, in, config);
  const size_t cycles = std::max<size_t>(
      1, static_cast<size_t>(std::lround(config.seconds / kCycleSeconds)));
  const double cycle_s = config.seconds / static_cast<double>(cycles);
  for (size_t cycle = 0; cycle < cycles; ++cycle) {
    saturate.RunCycle(kSaturateShare * cycle_s, &setups, &out);
    paced.RunSlice(kPacedShare * cycle_s, &setups, &out);
    edits.RunCycle(static_cast<size_t>(std::ceil(kEditsPerSecond * cycle_s)),
                   &setups);
    crashes.RunCycle(
        static_cast<size_t>(std::ceil(kCrashesPerSecond * cycle_s)));
  }
  saturate.Report(&out);
  paced.Report(&out);
  edits.Report(&out);
  crashes.Report(&out);
  SetQuantile(&out, "setup_s", setups, kFastTimes, "s");

  MonotonicTimer gates;
  if (spec.churn) {
    ChurnGate(spec, in, config, &out);
  } else {
    OracleGate(spec, in, config, &out);
  }
  if (spec.durable) DurableGate(spec, in, config, &out);
  out.phases["check_events"] = static_cast<double>(spec.check_events);
  out.phases["gate_s"] = gates.ElapsedSeconds();
  return out;
}

}  // namespace e2e
}  // namespace fw
