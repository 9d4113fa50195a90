// The traced run: per-layer metrics. One session round of the workload
// over its first check_events events (initial queries, no churn or
// kills, so every replay has one reference) is re-fed to each layer's
// public entry point, and every call runs inside a span named
// <layer>/<call>; per-event calls are spanned in groups of kGroup. Every
// replay that produces results or a release order must reproduce the
// session's bitwise. Spans stay in memory and are written as Chrome
// trace-event JSON when the run ends.

#include <sys/stat.h>

#include <algorithm>
#include <cstdint>
#include <limits>

#include "common/clock.h"
#include "cost/cost_model.h"
#include "durability/framed_io.h"
#include "durability/manager.h"
#include "e2e.h"
#include "exec/checkpoint.h"
#include "exec/engine.h"
#include "exec/migrate.h"
#include "exec/reorderer.h"
#include "live_session.h"
#include "multi/multi_query.h"
#include "plan/plan.h"
#include "query/parser.h"
#include "runtime/sharded_executor.h"
#include "telemetry/metrics.h"
#include "workload/datagen.h"

namespace fw {
namespace e2e {
namespace {

/// Events per span of per-event calls (and per telemetry sample stride).
constexpr size_t kGroup = 4096;
/// Repetitions of the single-call measurements (median reported).
constexpr int kReps = 5;
/// Churn steps replayed through the optimizer and migration.
constexpr size_t kReplans = 128;
/// Share of --seconds for the short open-loop phase (bench.* metrics).
constexpr double kPacedShare = 0.1;

double Ms(const MonotonicTimer& timer) { return timer.ElapsedSeconds() * 1e3; }

/// Runs `fn` inside a span and appends its wall time in ms to `ms`.
template <typename Fn>
auto InSpan(Tracer* tracer, const char* name, const char* layer,
            std::vector<double>* ms, Fn&& fn) {
  MonotonicTimer timer;
  SpanScope span(tracer, name, layer);
  auto value = fn();
  ms->push_back(Ms(timer));
  return value;
}

/// Routes shared-plan results to per-query fingerprints, like the
/// session's RoutingSink + callbacks.
class RoutedPrint {
 public:
  RoutedPrint(const MultiQueryOptimizer::SharedPlan& shared,
              const std::vector<StreamQuery>& queries) {
    for (size_t i = 0; i < queries.size(); ++i) {
      sinks_.push_back(
          std::make_unique<TagSink>(static_cast<QueryId>(i + 1), &print));
    }
    std::vector<ResultSink*> pointers;
    for (const auto& sink : sinks_) pointers.push_back(sink.get());
    router = std::make_unique<RoutingSink>(shared, queries, pointers);
  }

  Fingerprint print;
  std::unique_ptr<RoutingSink> router;

 private:
  std::vector<std::unique_ptr<TagSink>> sinks_;
};

class CaptureSink : public ResultSink {
 public:
  void OnResult(const WindowResult& result) override {
    results.push_back(result);
  }
  std::vector<WindowResult> results;
};

/// One session round; returns the busy seconds of its ingest and Finish
/// calls. With a tracer, each kGroup-event feed is a span.
double SessionRound(const WorkloadSpec& spec, const Inputs& in,
                    const RunConfig& config, Tracer* tracer,
                    Fingerprint* print, std::vector<double>* metrics_us,
                    RunOutput* out) {
  FingerprintObserver sink;
  LiveSession::Config live_config = LiveSession::For(spec, config.scratch_dir);
  live_config.churn = false;
  LiveSession live(spec, in, live_config, &sink);
  Status status = live.Start();
  uint64_t busy_ns = 0;
  while (status.ok() && live.fed() < spec.check_events) {
    const uint64_t start = MonotonicNanos();
    {
      SpanScope span(tracer, "feed", "session");
      status = live.FeedTo(std::min(live.fed() + kGroup, spec.check_events));
    }
    busy_ns += MonotonicNanos() - start;
    if (status.ok() && metrics_us != nullptr &&
        live.fed() % kDrainInterval == 0) {
      MonotonicTimer timer;
      const StreamSession::SessionMetrics metrics = live.session().Metrics();
      metrics_us->push_back(timer.ElapsedSeconds() * 1e6);
      if (metrics.stats.events_pushed != live.fed()) {
        status = Status::Internal("Metrics() reports a wrong event count");
      }
    }
  }
  if (status.ok()) {
    const uint64_t start = MonotonicNanos();
    SpanScope span(tracer, "finish", "session");
    status = live.Finish();
    busy_ns += MonotonicNanos() - start;
  }
  out->attempted += live.calls();
  if (!status.ok()) out->Fail("session round: " + status.ToString());
  *print = sink.print;
  return static_cast<double>(busy_ns) * 1e-9;
}

struct ExecReplay {
  uint64_t ops = 0;
  uint64_t results = 0;
  uint64_t closes = 0;
  ExecutorCheckpoint checkpoint;  // Taken before Finish.
  std::string checkpoint_text;
};

/// PlanExecutor over the sorted stream (the order the session's engines
/// see it), results captured and routed in kDrainInterval strides.
ExecReplay ReplayExec(const WorkloadSpec& spec,
                      const MultiQueryOptimizer::SharedPlan& shared,
                      const std::vector<Event>& sorted, RoutedPrint* routed,
                      Tracer* tracer, RunOutput* out) {
  ExecReplay replay;
  PlanExecutor::Options options;
  options.num_keys = spec.num_keys;
  CaptureSink capture;
  PlanExecutor executor(shared.plan, options, &capture);
  auto route = [&] {
    SpanScope span(tracer, "route", "multi");
    for (const WindowResult& result : capture.results) {
      routed->router->OnResult(result);
    }
    replay.results += capture.results.size();
    capture.results.clear();
  };
  const std::vector<EventColumns> chunks =
      spec.columnar ? SplitIntoColumns(sorted, kBatch)
                    : std::vector<EventColumns>{};
  for (size_t begin = 0; begin < sorted.size(); begin += kGroup) {
    const size_t end = std::min(sorted.size(), begin + kGroup);
    {
      SpanScope span(tracer, "push", "exec");
      if (spec.columnar) {
        for (size_t c = begin / kBatch; c * kBatch < end; ++c) {
          executor.PushColumns(chunks[c]);
        }
      } else {
        for (size_t i = begin; i < end; ++i) executor.Push(sorted[i]);
      }
    }
    if (end % kDrainInterval == 0) route();
  }

  std::vector<double> take_ms, serialize_ms, deserialize_ms, restore_ms;
  for (int rep = 0; rep < kReps; ++rep) {
    Result<ExecutorCheckpoint> checkpoint =
        InSpan(tracer, "take", "checkpoint", &take_ms,
               [&] { return executor.Checkpoint(); });
    out->Count(checkpoint.status(), "checkpoint take");
    if (!checkpoint.ok()) return replay;
    replay.checkpoint = *checkpoint;
    replay.checkpoint_text =
        InSpan(tracer, "serialize", "checkpoint", &serialize_ms,
               [&] { return replay.checkpoint.Serialize(); });
    Result<ExecutorCheckpoint> parsed =
        InSpan(tracer, "deserialize", "checkpoint", &deserialize_ms, [&] {
          return ExecutorCheckpoint::Deserialize(replay.checkpoint_text);
        });
    out->Count(parsed.status(), "checkpoint deserialize");
    CaptureSink unused;
    PlanExecutor fresh(shared.plan, options, &unused);
    out->Count(InSpan(tracer, "restore", "checkpoint", &restore_ms,
                      [&] { return fresh.Restore(replay.checkpoint); }),
               "checkpoint restore");
  }
  out->Set("checkpoint.take_ms", Median(take_ms), "ms", take_ms.size());
  out->Set("checkpoint.serialize_ms", Median(serialize_ms), "ms",
           serialize_ms.size());
  out->Set("checkpoint.deserialize_ms", Median(deserialize_ms), "ms",
           deserialize_ms.size());
  out->Set("checkpoint.restore_ms", Median(restore_ms), "ms",
           restore_ms.size());
  out->Set("checkpoint.bytes",
           static_cast<double>(replay.checkpoint_text.size()), "bytes");

  {
    SpanScope span(tracer, "finish", "exec");
    executor.Finish();
  }
  route();
  replay.ops = executor.TotalAccumulateOps();
  for (uint64_t closes : executor.PerOperatorCloses()) replay.closes += closes;
  return replay;
}

/// ShardedExecutor over the arrival-order stream at the workload's width
/// and lateness bound, drained at the session's cadence explicitly so the
/// drains can be timed.
void ReplayRuntime(const WorkloadSpec& spec, const Inputs& in,
                   const MultiQueryOptimizer::SharedPlan& shared,
                   RoutedPrint* routed, Tracer* tracer, RunOutput* out) {
  telemetry::MetricsRegistry registry;
  ShardedExecutor::Options options;
  options.num_keys = spec.num_keys;
  options.num_shards = spec.num_shards;
  options.max_delay = spec.max_delay;
  options.drain_interval = std::numeric_limits<uint64_t>::max();
  options.metrics = &registry;
  ShardedExecutor executor(shared.plan, options, routed->router.get());
  double occupancy_max = 0.0;
  size_t drains = 0;
  const size_t n = spec.check_events;
  for (size_t begin = 0; begin < n; begin += kGroup) {
    const size_t end = std::min(n, begin + kGroup);
    {
      SpanScope span(tracer, "push", "runtime");
      if (spec.columnar) {
        for (size_t c = begin / kBatch; c * kBatch < end; ++c) {
          executor.PushColumns(in.chunks[c]);
        }
      } else {
        for (size_t i = begin; i < end; ++i) executor.Push(in.events[i]);
      }
    }
    occupancy_max = std::max(occupancy_max, executor.RingOccupancy());
    if (end % kDrainInterval == 0) {
      SpanScope span(tracer, "drain", "runtime");
      executor.Drain();
      ++drains;
    }
  }
  const std::vector<uint64_t> per_shard = executor.EventsPerShard();
  {
    SpanScope span(tracer, "drain", "runtime");
    executor.Finish();
    ++drains;
  }
  uint64_t total = 0;
  uint64_t most = 0;
  for (uint64_t events : per_shard) {
    total += events;
    most = std::max(most, events);
  }
  out->Set("runtime.push_busy_s", tracer->LayerSeconds("runtime", "push"), "s");
  out->Set("runtime.drain_busy_s", tracer->LayerSeconds("runtime", "drain"),
           "s");
  out->Set("runtime.drains", static_cast<double>(drains), "count");
  out->Set("runtime.shard_skew",
           total > 0 ? static_cast<double>(most) * per_shard.size() /
                           static_cast<double>(total)
                     : 1.0,
           "ratio");
  out->Set("runtime.ring_occupancy_max", occupancy_max, "ratio");
}

uint64_t MixEvent(uint64_t h, const Event& event) {
  for (uint64_t v : {static_cast<uint64_t>(event.timestamp),
                     static_cast<uint64_t>(event.key)}) {
    h = (h ^ v) * 0x100000001b3ull;
  }
  return h;
}

/// Reorderer over the arrival-order stream under the workload's lateness
/// bound (0: every event releases on arrival); the release order must be
/// the stable timestamp sort.
void ReplayReorder(const WorkloadSpec& spec, const Inputs& in,
                   const std::vector<Event>& sorted, Tracer* tracer,
                   RunOutput* out) {
  Reorderer reorderer;
  uint64_t released = 0xcbf29ce484222325ull;
  uint64_t seq = 0;
  uint64_t peak = 0;
  TimeT max_seen = std::numeric_limits<TimeT>::min();
  auto emit = [&released](const Event& event) {
    released = MixEvent(released, event);
  };
  const size_t n = spec.check_events;
  for (size_t begin = 0; begin < n; begin += kGroup) {
    SpanScope span(tracer, "release", "reorder");
    for (size_t i = begin; i < std::min(n, begin + kGroup); ++i) {
      const Event& event = in.events[i];
      reorderer.Buffer(event, seq++);
      max_seen = std::max(max_seen, event.timestamp);
      reorderer.ReleaseThrough(max_seen - spec.max_delay, emit);
      peak = std::max<uint64_t>(peak, reorderer.buffered());
    }
  }
  {
    SpanScope span(tracer, "release", "reorder");
    reorderer.ReleaseAll(emit);
  }
  uint64_t want = 0xcbf29ce484222325ull;
  for (const Event& event : sorted) want = MixEvent(want, event);
  out->Check(released == want,
             "reorder replay: release order differs from the timestamp sort");
  out->Set("reorder.busy_s", tracer->LayerSeconds("reorder"), "s");
  out->Set("reorder.peak_buffered", static_cast<double>(peak), "events");
}

/// The churn schedule's query sets through Reoptimize, and the replay's
/// checkpoint migrated along the resulting plans by lineage.
void ReplayReplans(const Inputs& in,
                   const MultiQueryOptimizer::SharedPlan& shared,
                   const ExecutorCheckpoint& checkpoint, Tracer* tracer,
                   RunOutput* out) {
  std::vector<StreamQuery> pool;
  for (const std::string& sql : in.pool_sql) {
    Result<StreamQuery> query = ParseQuery(sql);
    out->Count(query.status(), "parse pool query");
    if (!query.ok()) return;
    pool.push_back(*query);
  }
  std::vector<StreamQuery> live = in.queries;
  std::vector<std::string> lineages = OperatorLineages(shared.plan);
  ExecutorCheckpoint state = checkpoint;
  std::vector<double> reoptimize_ms, migrate_ms;
  for (size_t k = 0; k < std::min(kReplans, in.steps.size()); ++k) {
    const ChurnStep& step = in.steps[k];
    live.erase(live.begin() +
               static_cast<std::ptrdiff_t>(step.victim % live.size()));
    live.push_back(pool[step.pool_index]);
    Result<MultiQueryOptimizer::SharedPlan> next =
        InSpan(tracer, "reoptimize", "multi", &reoptimize_ms,
               [&] { return MultiQueryOptimizer::Reoptimize(live); });
    out->Count(next.status(), "reoptimize");
    if (!next.ok()) return;
    std::vector<std::string> next_lineages = OperatorLineages(next->plan);
    CheckpointMigration migration =
        InSpan(tracer, "migrate", "migrate", &migrate_ms, [&] {
          return MigrateCheckpoint(state, lineages, next_lineages);
        });
    out->Check(migration.checkpoint.operators.size() ==
                   next->plan.num_operators(),
               "migration: checkpoint does not match the new plan");
    state = std::move(migration.checkpoint);
    lineages = std::move(next_lineages);
  }
  out->Set("multi.reoptimize_ms_p50", Median(reoptimize_ms), "ms",
           reoptimize_ms.size());
  out->Set("migrate.ms_p50", Median(migrate_ms), "ms", migrate_ms.size());
}

/// The admitted stream appended to a fresh changelog in the workload's
/// record shape (one batch or one event per record), with a snapshot of
/// the replay's checkpoint published whenever one is due; then the reads
/// recovery makes: the newest snapshot and the changelog suffix.
void ReplayDurability(const WorkloadSpec& spec, const Inputs& in,
                      const ExecutorCheckpoint& checkpoint,
                      const RunConfig& config, Tracer* tracer,
                      RunOutput* out) {
  const std::string dir = LiveSession::NewDir(config.scratch_dir);
  telemetry::MetricsRegistry registry;
  DurabilityOptions options;
  options.enabled = true;
  options.dir = dir;
  options.snapshot_interval_events = kSnapshotInterval;
  Result<std::unique_ptr<durability::DurabilityManager>> manager =
      durability::DurabilityManager::CreateFresh(options, &registry);
  out->Count(manager.status(), "durability create");
  if (!manager.ok()) return;

  durability::SnapshotContents contents;
  contents.meta.num_keys = spec.num_keys;
  contents.meta.max_delay = spec.max_delay;
  for (size_t i = 0; i < in.queries.size(); ++i) {
    contents.queries.push_back({static_cast<uint64_t>(i + 1), in.queries[i]});
  }
  contents.has_checkpoint = true;

  std::vector<double> snapshot_ms;
  uint64_t covered_events = 0;
  EventColumns single;
  Status status;
  const size_t n = spec.check_events;
  for (size_t begin = 0; status.ok() && begin < n; begin += kGroup) {
    const size_t end = std::min(n, begin + kGroup);
    {
      SpanScope span(tracer, "append", "durability");
      if (spec.columnar) {
        for (size_t c = begin / kBatch; status.ok() && c * kBatch < end; ++c) {
          status = (*manager)->AppendEvents(in.chunks[c]);
        }
      } else {
        for (size_t i = begin; status.ok() && i < end; ++i) {
          single.clear();
          single.Append(in.events[i]);
          status = (*manager)->AppendEvents(single);
        }
      }
    }
    // No snapshot at the very end, so the recovery reads below replay a
    // whole snapshot interval of changelog.
    if (status.ok() && end < n && (*manager)->SnapshotDue()) {
      contents.meta.covered_events = end;
      contents.meta.events_pushed = end;
      // Like the session's, each snapshot serializes the executor state.
      status = InSpan(tracer, "snapshot", "durability", &snapshot_ms, [&] {
        {
          SpanScope span(tracer, "serialize", "checkpoint");
          contents.checkpoint = checkpoint.Serialize();
        }
        return (*manager)->WriteSnapshot(contents);
      });
      covered_events = end;
    }
  }
  out->Count(status, "durability append/snapshot");
  const durability::DurabilityManager::Counters counters =
      (*manager)->counters();
  manager->reset();

  std::vector<double> load_ms, read_ms;
  Result<durability::LoadedSnapshot> loaded =
      InSpan(tracer, "load", "durability", &load_ms,
             [&] { return durability::LoadLatestSnapshot(dir); });
  out->Count(loaded.status(), "snapshot load");
  std::vector<durability::WalRecord> records;
  if (loaded.ok()) {
    out->Check(loaded->found && loaded->contents.meta.covered_events ==
                                    covered_events,
               "durability replay: newest snapshot not found");
    out->Count(InSpan(tracer, "read", "durability", &read_ms,
                      [&] {
                        return durability::ReadChangelog(
                            dir, loaded->contents.meta.covered_seq, &records);
                      }),
               "changelog read");
  }
  uint64_t replayed = 0;
  for (const durability::WalRecord& record : records) {
    EventColumns columns;
    if (record.type == durability::kWalEvents &&
        durability::DecodeEventsPayload(record.payload, &columns).ok()) {
      replayed += columns.size();
    }
  }
  out->Check(covered_events + replayed == n,
             "durability replay: snapshot plus changelog cover " +
                 std::to_string(covered_events + replayed) + " of " +
                 std::to_string(n) + " events");

  struct stat file_stat {};
  double snapshot_bytes = 0.0;
  if (loaded.ok() && ::stat(loaded->path.c_str(), &file_stat) == 0) {
    snapshot_bytes = static_cast<double>(file_stat.st_size);
  }
  RemoveDir(dir);

  out->Set("durability.append_busy_s",
           tracer->LayerSeconds("durability", "append"), "s");
  out->Set("durability.snapshot_ms_p50", Median(snapshot_ms), "ms",
           snapshot_ms.size());
  out->Set("durability.snapshot_bytes", snapshot_bytes, "bytes");
  out->Set("durability.snapshot_load_ms", Median(load_ms), "ms");
  out->Set("durability.changelog_read_ms", Median(read_ms), "ms");
  out->Set("durability.fsyncs", static_cast<double>(counters.wal_fsyncs),
           "count");
  out->Set("durability.wal_bytes_per_event",
           static_cast<double>(counters.wal_bytes) / static_cast<double>(n),
           "bytes/event");
}

}  // namespace

RunOutput RunTraced(const WorkloadSpec& spec, const Inputs& in,
                    const RunConfig& config) {
  RunOutput out;
  Tracer tracer(config.seed);
  const size_t n = spec.check_events;

  // The session itself: untraced (the overhead baseline), then traced.
  Fingerprint session_print;
  Fingerprint traced_print;
  std::vector<double> metrics_us;
  ResetPeakRss();
  const double untraced_busy =
      SessionRound(spec, in, config, nullptr, &session_print, nullptr, &out);
  out.Set("session.state_peak_mb", PeakRssAboveBaselineMb(), "MB");
  const double session_busy = SessionRound(spec, in, config, &tracer,
                                           &traced_print, &metrics_us, &out);
  out.Check(traced_print == session_print,
            "traced session round delivered different results");
  out.Set("session.push_busy_s", session_busy, "s");
  out.Set("trace.overhead_frac", session_busy / untraced_busy - 1.0, "ratio");
  out.Set("telemetry.metrics_us_p50", Median(metrics_us), "us",
          metrics_us.size());

  // Front end and optimizer: what registering the queries costs.
  std::vector<double> parse_us;
  for (int rep = 0; rep < kReps; ++rep) {
    SpanScope span(&tracer, "parse", "query");
    for (const std::string& sql : in.sql) {
      MonotonicTimer timer;
      Result<StreamQuery> query = ParseQuery(sql);
      parse_us.push_back(timer.ElapsedSeconds() * 1e6);
      out.Count(query.status(), "parse");
    }
  }
  out.Set("query.parse_us", Median(parse_us), "us", parse_us.size());
  std::vector<double> optimize_ms;
  auto optimize = [&] {
    return InSpan(&tracer, "optimize", "multi", &optimize_ms,
                  [&] { return MultiQueryOptimizer::Reoptimize(in.queries); });
  };
  Result<MultiQueryOptimizer::SharedPlan> shared = optimize();
  for (int rep = 1; rep < kReps; ++rep) shared = optimize();
  out.Count(shared.status(), "optimize");
  if (!shared.ok()) return out;
  out.Set("multi.optimize_ms", Median(optimize_ms), "ms", optimize_ms.size());
  int factors = 0;
  for (const PlanOperator& op : shared->plan.operators()) {
    factors += op.is_factor;
  }
  out.Set("plan.operators", static_cast<double>(shared->plan.num_operators()),
          "count");
  out.Set("plan.factor_windows", factors, "count");
  out.Set("plan.predicted_boost", shared->PredictedBoost(), "ratio");

  // Engine and routing.
  const std::vector<Event> sorted = SortedPrefix(in.events, n);
  RoutedPrint exec_print(*shared, in.queries);
  const ExecReplay exec =
      ReplayExec(spec, *shared, sorted, &exec_print, &tracer, &out);
  out.Check(exec_print.print == session_print,
            "exec replay: routed results differ from the session's");
  const double exec_busy = tracer.LayerSeconds("exec");
  const double events = static_cast<double>(n);
  out.Set("exec.busy_s", exec_busy, "s");
  out.Set("exec.ns_per_op",
          exec.ops > 0 ? exec_busy * 1e9 / static_cast<double>(exec.ops) : 0.0,
          "ns");
  out.Set("exec.ops_per_event", static_cast<double>(exec.ops) / events,
          "ops/event");
  out.Set("exec.results_per_event", static_cast<double>(exec.results) / events,
          "results/event");
  out.Set("exec.closes_per_event", static_cast<double>(exec.closes) / events,
          "closes/event");
  // Fig. 19's unit: measured ops per hyper-period over the model's
  // prediction (shared_cost, priced at eta = 1 over the merged set).
  WindowSet merged;
  for (const StreamQuery& query : in.queries) {
    for (const Window& window : query.windows) (void)merged.Add(window);
  }
  const double span_units = static_cast<double>(
      sorted.back().timestamp - sorted.front().timestamp + 1);
  const double measured_per_period = static_cast<double>(exec.ops) *
                                     CostModel(merged).hyper_period() /
                                     span_units;
  out.Set("exec.cost_ratio", measured_per_period / shared->shared_cost,
          "ratio");
  out.Set("multi.routing_busy_s", tracer.LayerSeconds("multi", "route"), "s");

  // Runtime, reorder stage, replans, durability.
  RoutedPrint runtime_print(*shared, in.queries);
  ReplayRuntime(spec, in, *shared, &runtime_print, &tracer, &out);
  out.Check(runtime_print.print == session_print,
            "runtime replay: results differ from the session's");
  ReplayReorder(spec, in, sorted, &tracer, &out);
  ReplayReplans(in, *shared, exec.checkpoint, &tracer, &out);
  ReplayDurability(spec, in, exec.checkpoint, config, &tracer, &out);

  // The session's time not covered by the replayed layers it runs: the
  // runtime (engine, reorder, routing inside) and, when on, durability
  // (changelog appends, snapshots with their checkpoint serialization).
  double covered = tracer.LayerSeconds("runtime");
  if (spec.durable) {
    covered += tracer.LayerSeconds("durability", "append") +
               tracer.LayerSeconds("durability", "snapshot");
  }
  out.Set("session.self_s", session_busy - covered, "s");
  out.Set("trace.coverage", covered / session_busy, "ratio");

  // A short open loop for the generator's own numbers.
  std::vector<double> setups;
  PacedPhase paced(spec, in, config);
  paced.RunSlice(kPacedShare * config.seconds, &setups, &out);
  paced.Report(&out);

  const std::string path = config.trace_dir + "/trace_" + spec.name + ".json";
  out.Check(durability::EnsureDir(config.trace_dir).ok() &&
                tracer.WriteChromeJson(path),
            "cannot write " + path);
  return out;
}

}  // namespace e2e
}  // namespace fw
