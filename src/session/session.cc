#include "session/session.h"

#include <algorithm>
#include <utility>

#include "common/clock.h"
#include "common/logging.h"
#include "durability/manager.h"
#include "exec/checkpoint.h"
#include "exec/migrate.h"
#include "plan/printer.h"
#include "query/parser.h"
#include "runtime/partition.h"

namespace fw {

namespace {

/// The one place the unified ingestion error contract is worded
/// (session.h, Push): every rejection from Push, PushBatch, or
/// PushColumns names the first rejected event's index within the call
/// and its timestamp, with the cause appended. Events before the index
/// were applied.
Status IngestStopped(size_t index, TimeT timestamp, const Status& cause) {
  return Status(cause.code(),
                "ingest stopped at event " + std::to_string(index) +
                    " (timestamp " + std::to_string(timestamp) +
                    "): " + cause.message());
}

/// The recovery-side analogue of IngestStopped — the same stop-position
/// contract, worded in changelog coordinates: the segment (by base
/// sequence) and record index where replay had to stop, with the cause
/// appended. Everything before that record was applied.
Status RecoveryStopped(uint64_t segment_base, uint64_t record_index,
                       const Status& cause) {
  return Status(cause.code(),
                "recovery stopped at segment " +
                    std::to_string(segment_base) + ", record " +
                    std::to_string(record_index) + ": " + cause.message());
}

/// AutoResizeOptions kept lenient legacy defaults (min_shards or
/// scale_down_checks of 0 were historically tolerated); ResizePolicy
/// validates strictly, so sanitize at the boundary instead of aborting
/// sessions that never enable the monitor.
ResizePolicy::Options PolicyOptionsFrom(
    const StreamSession::AutoResizeOptions& options) {
  ResizePolicy::Options policy;
  policy.min_shards = std::max(options.min_shards, 1u);
  policy.max_shards = std::max(options.max_shards, policy.min_shards);
  policy.scale_up_occupancy = options.scale_up_occupancy;
  policy.scale_down_occupancy = options.scale_down_occupancy;
  policy.scale_down_checks =
      options.scale_down_checks > 0
          ? static_cast<uint32_t>(options.scale_down_checks)
          : 1u;
  policy.target_rate_per_shard = std::max(options.target_rate_per_shard, 0.0);
  return policy;
}

/// RateEstimator validates alpha strictly; a session with adaptive
/// features disabled must not abort on an ignored knob (the enabled case
/// is checked loudly in the constructor body).
double SanitizedRateAlpha(double alpha) {
  return alpha > 0.0 && alpha <= 1.0 ? alpha : 0.3;
}

/// Largest window range in the plan: a crossover's old pipeline owns
/// every instance starting before the cutover C, and the last of those
/// ends strictly before C + max_range — so it can retire once the
/// release watermark reaches C - 1 + max_range.
TimeT MaxRange(const QueryPlan& plan) {
  TimeT max_range = 0;
  for (const PlanOperator& op : plan.operators()) {
    max_range = std::max(max_range, op.window.range());
  }
  return max_range;
}

/// Copies rows [begin, end) of a columnar batch — the cold paths
/// (mid-batch rejection, monitor-sample segmentation) re-slice so the
/// executor still sees columnar hand-offs.
EventColumns SliceColumns(const EventColumns& columns, size_t begin,
                          size_t end) {
  EventColumns out;
  out.Reserve(end - begin);
  out.timestamps.assign(
      columns.timestamps.begin() + static_cast<ptrdiff_t>(begin),
      columns.timestamps.begin() + static_cast<ptrdiff_t>(end));
  out.keys.assign(columns.keys.begin() + static_cast<ptrdiff_t>(begin),
                  columns.keys.begin() + static_cast<ptrdiff_t>(end));
  out.values.assign(columns.values.begin() + static_cast<ptrdiff_t>(begin),
                    columns.values.begin() + static_cast<ptrdiff_t>(end));
  return out;
}

}  // namespace

void StreamSession::CallbackSink::OnResult(const WindowResult& result) {
  ++owner_->results_delivered;
  if (owner_->callback) owner_->callback(result);
}

void StreamSession::CallbackSink::OnBlock(int operator_id, TimeT start,
                                          TimeT end, const uint32_t* keys,
                                          const double* values,
                                          size_t count) {
  owner_->results_delivered += count;
  if (!owner_->callback) return;
  // The one place a block splits back into results: ResultCallback is
  // per result.
  WindowResult result{operator_id, start, end, 0, 0.0};
  for (size_t i = 0; i < count; ++i) {
    result.key = keys[i];
    result.value = values[i];
    owner_->callback(result);
  }
}

/// See the declaration in session.h: the era gate every pipeline routes
/// through. Results pass iff their window start lies in
/// [min_start, max_start) — open on both ends until a crossover narrows
/// the old pipeline to starts < C and the new one to starts >= C. All
/// results of a block share one start, so a block passes or drops whole.
class StreamSession::StartGateSink : public ResultSink {
 public:
  explicit StartGateSink(ResultSink* next) : next_(next) {}

  void OnResult(const WindowResult& result) override {
    if (Passes(result.start)) next_->OnResult(result);
  }

  void OnBlock(int operator_id, TimeT start, TimeT end, const uint32_t* keys,
               const double* values, size_t count) override {
    if (Passes(start)) {
      next_->OnBlock(operator_id, start, end, keys, values, count);
    }
  }

  void set_min_start(TimeT min_start) { min_start_ = min_start; }
  void set_max_start(TimeT max_start) { max_start_ = max_start; }

 private:
  bool Passes(TimeT start) const {
    return start >= min_start_ && start < max_start_;
  }

  ResultSink* next_;
  TimeT min_start_ = std::numeric_limits<TimeT>::min();
  TimeT max_start_ = std::numeric_limits<TimeT>::max();
};

/// The outgoing pipeline of a structural drift replan (see session.h).
/// Members declare in dependency order — executor references gate, gate
/// references router, router references the shared plan's subscription
/// table — so the implicit reverse-order destruction is safe.
struct StreamSession::DriftCrossover {
  std::unique_ptr<MultiQueryOptimizer::SharedPlan> shared;
  std::unique_ptr<RoutingSink> router;
  std::unique_ptr<StartGateSink> gate;
  std::unique_ptr<ShardedExecutor> executor;
  std::vector<std::string> lineages;
  /// End of the last window instance owned by the old pipeline (instance
  /// starts < cutover): retire once the release watermark reaches it.
  TimeT retire_at = 0;
};

StreamSession::StreamSession() : StreamSession(Options{}) {}

StreamSession::StreamSession(const Options& options)
    : options_(options),
      watermark_lag_hist_(metrics_.GetHistogram("session.watermark_lag")),
      push_batch_size_hist_(
          metrics_.GetHistogram("session.push_batch_size")),
      events_pushed_counter_(metrics_.GetCounter("session.events_pushed")),
      events_dropped_counter_(metrics_.GetCounter("session.events_dropped")),
      replans_counter_(metrics_.GetCounter("session.replans")),
      resizes_counter_(metrics_.GetCounter("session.resizes")),
      ring_occupancy_gauge_(metrics_.GetGauge("session.ring_occupancy")),
      live_queries_gauge_(metrics_.GetGauge("session.live_queries")),
      num_shards_gauge_(metrics_.GetGauge("session.num_shards")),
      reorder_buffered_gauge_(metrics_.GetGauge("session.reorder_buffered")),
      accumulate_ops_gauge_(metrics_.GetGauge("engine.accumulate_ops_total")),
      closed_total_gauge_(metrics_.GetGauge("engine.closed_instances_total")),
      finalized_total_gauge_(
          metrics_.GetGauge("engine.finalized_results_total")),
      drift_replans_counter_(metrics_.GetCounter("session.drift_replans")),
      observed_eta_gauge_(metrics_.GetGauge("session.observed_eta")),
      throughput_eps_gauge_(metrics_.GetGauge("session.throughput_eps")),
      resize_policy_(PolicyOptionsFrom(options.auto_resize)),
      rate_(SanitizedRateAlpha(options.adaptive.rate_alpha)) {
  session_role_.AssertHeld();  // Constructing thread is the caller thread.
  FW_CHECK_GT(options.num_keys, 0u);
  FW_CHECK_GE(options.max_delay, 0);
  if (options_.adaptive.enabled) {
    FW_CHECK_GT(options_.adaptive.rate_alpha, 0.0);
    FW_CHECK_LE(options_.adaptive.rate_alpha, 1.0);
    FW_CHECK_GT(options_.adaptive.check_interval, 0u);
    FW_CHECK_GE(options_.adaptive.reoptimize_ratio, 1.0);
  }
  planned_eta_ = options_.optimizer.eta;
  if (options_.max_delay > 0 &&
      options_.late_policy == LatePolicy::kSideOutput &&
      options_.late_callback) {
    late_sink_ = std::make_unique<ConsumerFn<LateEventCallback>>(
        options_.late_callback);
  }
  if (options_.durability.enabled) {
    Result<std::unique_ptr<durability::DurabilityManager>> manager =
        durability::DurabilityManager::CreateFresh(options_.durability,
                                                   &metrics_);
    if (manager.ok()) {
      durability_ = std::move(*manager);
    } else {
      // Constructors cannot return Status; latch the failure and surface
      // it from the first ingest or churn call (fail-stop, never a
      // session that silently runs without its log).
      durability_error_ = manager.status();
    }
  }
}

StreamSession::~StreamSession() {
  session_role_.AssertHeld();  // Destroying thread is the caller thread.
  // Each pipeline's executor references its gate, the gate its router,
  // the router the queries' sinks; tear down in dependency order, the
  // crossover's outgoing pipeline first.
  cross_.reset();
  executor_.reset();
  gate_.reset();
  router_.reset();
}

Status StreamSession::CheckMutable() const {
  if (finished_) {
    return Status::InvalidArgument("session is finished");
  }
  return Status::OK();
}

Result<QueryId> StreamSession::AddQuery(const StreamQuery& query,
                                        ResultCallback callback) {
  session_role_.AssertHeld();  // Public entry: caller thread only.
  FW_RETURN_IF_ERROR(CheckMutable());
  if (options_.durability.enabled) FW_RETURN_IF_ERROR(CheckDurable());
  if (query.windows.empty()) {
    return Status::InvalidArgument("query without windows");
  }
  if (query.agg == nullptr) {
    return Status::InvalidArgument("query without an aggregate function");
  }
  if (!SupportsSharing(query.agg)) {
    return Status::Unimplemented(
        query.agg->name +
        " is holistic and cannot join a shared session; execute "
        "QueryPlan::Original directly instead");
  }
  // Grouping is an execution property of the whole session (every event
  // carries one key drawn from [0, num_keys)), so a global aggregate in a
  // keyed session would silently produce per-key results.
  if (!query.per_key && options_.num_keys > 1) {
    return Status::InvalidArgument(
        "global (non-PerKey) query in a session with num_keys " +
        std::to_string(options_.num_keys) +
        "; declare PerKey or use a num_keys=1 session");
  }
  if (!queries_.empty()) {
    const StreamQuery& first = queries_.front()->query;
    if (query.source != first.source) {
      return Status::InvalidArgument(
          "session reads stream '" + first.source + "', query reads '" +
          query.source + "'");
    }
    if (query.agg != first.agg) {
      return Status::InvalidArgument(
          "session aggregates " + first.agg->name + ", query aggregates " +
          query.agg->name);
    }
    if (query.per_key != first.per_key ||
        query.key_column != first.key_column) {
      return Status::InvalidArgument(
          "session groups by '" +
          (first.per_key ? first.key_column : std::string("<none>")) +
          "', query groups by '" +
          (query.per_key ? query.key_column : std::string("<none>")) + "'");
    }
  }

  auto live = std::make_unique<LiveQuery>();
  live->id = next_id_;
  live->query = query;
  live->callback = std::move(callback);

  std::vector<LiveQuery*> candidate;
  candidate.reserve(queries_.size() + 1);
  for (const auto& q : queries_) candidate.push_back(q.get());
  candidate.push_back(live.get());
  FW_RETURN_IF_ERROR(Rebuild(candidate));

  ++next_id_;
  queries_.push_back(std::move(live));
  if (durability_) {
    // Logged after the commit: a failed Rebuild must leave the changelog
    // as untouched as the session. An append failure here latches — the
    // query is live in memory but not durable, so further ingest (which
    // would widen the divergence) is refused.
    Status logged = durability_->AppendAddQuery(queries_.back()->id, query);
    if (!logged.ok()) {
      durability_error_ = logged;
      return logged;
    }
    MaybeSnapshot();
  }
  return queries_.back()->id;
}

Result<QueryId> StreamSession::AddQuery(std::string_view sql,
                                        ResultCallback callback) {
  Result<StreamQuery> query = ParseQuery(sql);
  if (!query.ok()) return query.status();
  return AddQuery(*query, std::move(callback));
}

Result<QueryId> StreamSession::AddQuery(const QueryBuilder& builder,
                                        ResultCallback callback) {
  Result<StreamQuery> query = builder.Build();
  if (!query.ok()) return query.status();
  return AddQuery(*query, std::move(callback));
}

size_t StreamSession::FindQuery(QueryId id) const {
  for (size_t i = 0; i < queries_.size(); ++i) {
    if (queries_[i]->id == id) return i;
  }
  return queries_.size();
}

Status StreamSession::RemoveQuery(QueryId id) {
  session_role_.AssertHeld();  // Public entry: caller thread only.
  FW_RETURN_IF_ERROR(CheckMutable());
  if (options_.durability.enabled) FW_RETURN_IF_ERROR(CheckDurable());
  size_t index = FindQuery(id);
  if (index == queries_.size()) {
    return Status::NotFound("no query with id " + std::to_string(id));
  }
  std::vector<LiveQuery*> remaining;
  remaining.reserve(queries_.size() - 1);
  for (size_t i = 0; i < queries_.size(); ++i) {
    if (i != index) remaining.push_back(queries_[i].get());
  }
  FW_RETURN_IF_ERROR(Rebuild(remaining));
  queries_.erase(queries_.begin() + static_cast<ptrdiff_t>(index));
  if (durability_) {
    Status logged = durability_->AppendRemoveQuery(id);
    if (!logged.ok()) {
      durability_error_ = logged;
      return logged;
    }
    MaybeSnapshot();
  }
  return Status::OK();
}

Status StreamSession::Rebuild(const std::vector<LiveQuery*>& live) {
  MonotonicTimer timer;

  if (live.empty()) {
    // Session went idle: retire the whole pipeline (in-flight windows are
    // dropped — nobody subscribes to them anymore). Results already
    // emitted but still buffered in the shards belong to windows that
    // closed before the removal, so deliver them first, exactly like the
    // single-threaded path did during Push. During a crossover both
    // pipelines only *drain* — the idle path never closes windows, so
    // flush-closing the gated new executor here would emit results a
    // static-plan session never emits, into callbacks being removed.
    if (executor_) {
      if (cross_) cross_->executor->Drain();
      executor_->Drain();
      if (cross_) {
        // The old pipeline is the oracle-visible one: it saw the whole
        // stream with the session's original clock, so its lates, peak,
        // and watermark retire as the session's. The new pipeline's
        // reorder stage is a muted warm-up duplicate — only its real
        // work (ops) and close tallies bank.
        retired_ops_ += cross_->executor->TotalAccumulateOps();
        retired_late_ += cross_->executor->late_events();
        retired_reorder_peak_ = std::max(
            retired_reorder_peak_, cross_->executor->reorder_buffer_peak());
        retired_watermark_ = cross_->executor->current_watermark();
        for (uint64_t c : cross_->executor->PerOperatorCloses()) {
          retired_closes_total_ += c;
        }
        for (uint64_t f : cross_->executor->PerOperatorFinalizes()) {
          retired_finalizes_total_ += f;
        }
        retired_ops_ += executor_->TotalAccumulateOps();
        for (uint64_t c : executor_->PerOperatorCloses()) {
          retired_closes_total_ += c;
        }
        for (uint64_t f : executor_->PerOperatorFinalizes()) {
          retired_finalizes_total_ += f;
        }
      } else {
        retired_ops_ += executor_->TotalAccumulateOps();
        // The reorder stage retires with the pipeline: its buffered
        // events belonged to windows nobody subscribes to anymore, its
        // counters move into the session tallies, and the event-time
        // clock restarts on revival.
        retired_late_ += executor_->late_events();
        retired_reorder_peak_ = std::max(retired_reorder_peak_,
                                         executor_->reorder_buffer_peak());
        retired_watermark_ = executor_->current_watermark();
        for (uint64_t c : executor_->PerOperatorCloses()) {
          retired_closes_total_ += c;
        }
        for (uint64_t f : executor_->PerOperatorFinalizes()) {
          retired_finalizes_total_ += f;
        }
      }
      metrics_.RecordTrace(telemetry::TraceKind::kIdleRetire);
    }
    cross_.reset();
    executor_.reset();
    gate_.reset();
    router_.reset();
    shared_.reset();
    lineages_.clear();
    // A retired pipeline has no hand-off rings: the occupancy gauge must
    // read 0, not the last live sample (the ring_occupancy staleness
    // contract, pinned by the stats-lifecycle regression tests).
    ring_occupancy_gauge_->Set(0.0);
    ++replans_;
    replans_counter_->Increment(0);
    last_migrated_ = 0;
    last_cold_ = 0;
    last_replan_seconds_ = timer.ElapsedSeconds();
    return Status::OK();
  }

  std::vector<StreamQuery> queries;
  std::vector<ResultSink*> sinks;
  queries.reserve(live.size());
  sinks.reserve(live.size());
  for (LiveQuery* q : live) {
    queries.push_back(q->query);
    sinks.push_back(&q->sink);
  }

  Result<MultiQueryOptimizer::SharedPlan> shared =
      MultiQueryOptimizer::Reoptimize(queries, options_.optimizer,
                                      options_.track_baseline);
  if (!shared.ok()) return shared.status();

  // A churn replan folds an in-flight crossover back into one pipeline
  // first: the restored (old) pipeline saw the whole stream, so the
  // checkpoint below migrates exactly a static pipeline's state. Ordered
  // after the optimizer run — an optimizer error must leave the session
  // (including the crossover) untouched.
  if (cross_) FW_RETURN_IF_ERROR(CancelCrossover());

  // Materialize the owned plan first: the executor keeps a pointer to it
  // for its whole lifetime (Resize rebuilds engines over it), so it must
  // live at its final address before any executor is constructed.
  auto shared_owned = std::make_unique<MultiQueryOptimizer::SharedPlan>(
      std::move(*shared));

  // Carry surviving operator state across the swap (see class comment for
  // the migration semantics). ShardedExecutor::Checkpoint drains buffered
  // results through the old router and merges the shards into the global
  // view, so the lineage migration below is shard-count agnostic.
  std::vector<std::string> lineages = OperatorLineages(shared_owned->plan);
  CheckpointMigration migration;
  if (executor_) {
    Result<ExecutorCheckpoint> checkpoint = executor_->Checkpoint();
    if (!checkpoint.ok()) return checkpoint.status();
    migration = MigrateCheckpoint(*checkpoint, lineages_, lineages);
  } else {
    migration.cold = static_cast<int>(shared_owned->plan.num_operators());
  }

  auto router = std::make_unique<RoutingSink>(*shared_owned, queries,
                                              std::move(sinks));
  auto gate = std::make_unique<StartGateSink>(router.get());
  ShardedExecutor::Options exec_options;
  exec_options.num_keys = options_.num_keys;
  exec_options.num_shards = options_.num_shards;
  exec_options.max_delay = options_.max_delay;
  exec_options.late_sink = late_sink_.get();
  exec_options.metrics = &metrics_;
  auto executor = std::make_unique<ShardedExecutor>(shared_owned->plan,
                                                    exec_options,
                                                    gate.get());
  if (executor_) {
    FW_RETURN_IF_ERROR(executor->Restore(migration.checkpoint));
    retired_ops_ += executor_->TotalAccumulateOps() - migration.carried_ops;
    // Close/finalize counts never migrate (they are not in the
    // checkpoint): the whole outgoing pipeline's tallies retire here,
    // and the new engines restart at zero.
    for (uint64_t c : executor_->PerOperatorCloses()) {
      retired_closes_total_ += c;
    }
    for (uint64_t f : executor_->PerOperatorFinalizes()) {
      retired_finalizes_total_ += f;
    }
  }

  // Commit; destroy the old executor before the gate and router it
  // references.
  executor_ = std::move(executor);
  gate_ = std::move(gate);
  router_ = std::move(router);
  shared_ = std::move(shared_owned);
  lineages_ = std::move(lineages);
  ++replans_;
  replans_counter_->Increment(0);
  last_migrated_ = migration.migrated;
  last_cold_ = migration.cold;
  last_replan_seconds_ = timer.ElapsedSeconds();
  metrics_.RecordTrace(telemetry::TraceKind::kReplan, timer.ElapsedNanos(),
                       migration.migrated, migration.cold);
  return Status::OK();
}

Status StreamSession::Resize(uint32_t new_num_shards) {
  session_role_.AssertHeld();  // Public entry: caller thread only.
  FW_RETURN_IF_ERROR(CheckMutable());
  if (new_num_shards == 0) {
    return Status::InvalidArgument("num_shards must be >= 1");
  }
  MonotonicTimer timer;
  const uint32_t width_before =
      executor_ ? executor_->num_shards()
                : EffectiveShards(options_.num_shards, options_.num_keys);
  if (executor_) {
    // In-place exact handoff (runtime/ShardedExecutor::Resize): drains,
    // merges shard checkpoints, rebuilds at the new width, re-splits.
    // Cumulative counters ride inside the checkpoint, so nothing is
    // retired here. During a crossover only the live pipeline re-scales;
    // the outgoing one keeps its width for its bounded remaining life.
    FW_RETURN_IF_ERROR(executor_->Resize(new_num_shards));
  }
  options_.num_shards = new_num_shards;  // Future replans keep the width.
  ++resize_count_;
  resizes_counter_->Increment(0);
  last_resize_ns_ = timer.ElapsedNanos();
  metrics_.RecordTrace(telemetry::TraceKind::kResize, last_resize_ns_,
                       width_before,
                       executor_ ? executor_->num_shards()
                                 : EffectiveShards(options_.num_shards,
                                                   options_.num_keys));
  resize_policy_.OnApplied();
  return Status::OK();
}

void StreamSession::AutoResizeCheck(uint64_t events_at_sample,
                                    TimeT wm_at_sample) {
  const AutoResizeOptions& policy = options_.auto_resize;
  // The throughput signal shares the drift detector's rate estimator;
  // whichever monitor samples first feeds it the next delta.
  if (policy.target_rate_per_shard > 0.0) {
    ObserveRate(events_at_sample, wm_at_sample);
  }
  ResizeSignal signal;
  signal.current_shards = executor_->num_shards();
  signal.ring_occupancy = executor_->RingOccupancy();
  ring_occupancy_gauge_->Set(signal.ring_occupancy);
  if (policy.target_rate_per_shard > 0.0 && rate_.has_observations()) {
    signal.rate_valid = true;
    signal.observed_rate = rate_.rate();
  }

  const uint32_t current = signal.current_shards;
  const uint32_t target = resize_policy_.Decide(signal);
  if (target == current) return;
  // Every proposal — scale-up, scale-down, or out-of-bounds clamp —
  // passes the same guards: a resize that cannot change the effective
  // width (keyless plan, or already one shard per key) would churn
  // executors for nothing, and a scale-up the cost model prices at gain
  // <= 1 cannot pay for its swap. Vetoes report back to the policy so
  // the hysteresis streak resets instead of re-firing a hopeless
  // proposal every sample.
  if (EffectiveShards(target, options_.num_keys) == current ||
      (target > current && shared_ &&
       shared_->PredictedResizeGain(current, target, options_.num_keys) <=
           1.0)) {
    resize_policy_.OnVetoed();
    return;
  }
  // Best-effort: a failed resize (cannot happen for the plans a session
  // admits — they always checkpoint) leaves the current width standing,
  // to retry after a fresh streak.
  Status status = Resize(target);
  if (!status.ok()) resize_policy_.OnVetoed();
}

void StreamSession::ObserveRate(uint64_t events_at_sample,
                                TimeT wm_at_sample) {
  if (!rate_seeded_) {
    // First sample pins the origin; the estimator needs a delta.
    rate_seeded_ = true;
    rate_last_events_ = events_at_sample;
    rate_last_wm_ = wm_at_sample;
    rate_last_ns_ = MonotonicNanos();
    return;
  }
  const uint64_t events = events_at_sample - rate_last_events_;
  const TimeT span = wm_at_sample - rate_last_wm_;
  if (events == 0 && span <= 0) return;  // Same stream position.
  rate_.ObserveBatch(events, span);
  rate_last_events_ = events_at_sample;
  rate_last_wm_ = wm_at_sample;
  if (rate_.has_observations()) {
    observed_eta_gauge_->Set(rate_.rate());
  }
  // Wall-clock events/sec is export-only (decisions use the event-time
  // rate above, which replays deterministically).
  const uint64_t now_ns = MonotonicNanos();
  if (now_ns > rate_last_ns_ && rate_last_ns_ > 0 && events > 0) {
    throughput_eps_gauge_->Set(static_cast<double>(events) * 1e9 /
                               static_cast<double>(now_ns - rate_last_ns_));
  }
  rate_last_ns_ = now_ns;
}

void StreamSession::DriftCheck(uint64_t events_at_sample,
                               TimeT wm_at_sample) {
  ObserveRate(events_at_sample, wm_at_sample);
  if (cross_) return;  // One crossover at a time.
  if (!rate_.has_observations()) return;
  const double eta_hat = rate_.rate();
  if (eta_hat <= 0.0 || planned_eta_ <= 0.0) return;
  const double ratio = eta_hat > planned_eta_ ? eta_hat / planned_eta_
                                              : planned_eta_ / eta_hat;
  if (ratio < options_.adaptive.reoptimize_ratio) return;
  if (events_at_sample - last_drift_replan_events_ <
      options_.adaptive.min_events_between_replans) {
    return;
  }
  // The cooldown restarts even when the replan below fails or recosts in
  // place: either way the detector observed this drift and acted.
  last_drift_replan_events_ = events_at_sample;
  StartDriftReplan(eta_hat, wm_at_sample);
}

void StreamSession::StartDriftReplan(double eta_hat, TimeT wm_at_sample) {
  MonotonicTimer timer;
  std::vector<StreamQuery> queries;
  std::vector<ResultSink*> sinks;
  queries.reserve(queries_.size());
  sinks.reserve(queries_.size());
  for (const auto& q : queries_) {
    queries.push_back(q->query);
    sinks.push_back(&q->sink);
  }
  OptimizerOptions observed = options_.optimizer;
  observed.eta = eta_hat;
  Result<MultiQueryOptimizer::SharedPlan> shared =
      MultiQueryOptimizer::Reoptimize(queries, observed,
                                      options_.track_baseline);
  if (!shared.ok()) return;  // Keep the current plan; retry on later drift.

  // From here on the session is costed at the observed rate: later churn
  // replans and drift checks both start from η̂.
  options_.optimizer.eta = eta_hat;
  planned_eta_ = eta_hat;
  ++drift_replans_;
  drift_replans_counter_->Increment(0);

  auto fresh = std::make_unique<MultiQueryOptimizer::SharedPlan>(
      std::move(*shared));
  if (PlansStructurallyEqual(shared_->plan, fresh->plan)) {
    // Same operators, new pricing: adopt the observed-η costing in place.
    // No executor swap, no state movement — results are trivially
    // unchanged.
    shared_->shared_cost = fresh->shared_cost;
    shared_->independent_cost = fresh->independent_cost;
    shared_->original_cost = fresh->original_cost;
    metrics_.RecordTrace(telemetry::TraceKind::kDriftReplan,
                         timer.ElapsedNanos(), 0, 0);
    return;
  }

  // Structural switch (factor windows evicted or reinstated): bounded
  // dual-pipeline crossover. Cutover C is the first timestamp the
  // current watermark has not reached; instances starting before C stay
  // with the old pipeline (which already holds their partials), the new
  // pipeline owns starts >= C — its slices tile from instance starts, so
  // gating by start keeps its output exact even though it never saw
  // pre-cutover events. retire_at computes on the *old* plan: its last
  // owned instance starts at C - 1 at the latest.
  const TimeT cutover = wm_at_sample + 1;
  const TimeT retire_at = cutover - 1 + MaxRange(shared_->plan);
  auto router = std::make_unique<RoutingSink>(*fresh, queries,
                                              std::move(sinks));
  auto gate = std::make_unique<StartGateSink>(router.get());
  gate->set_min_start(cutover);
  ShardedExecutor::Options exec_options;
  exec_options.num_keys = options_.num_keys;
  exec_options.num_shards = options_.num_shards;
  exec_options.max_delay = options_.max_delay;
  // The new pipeline's late set is a subset of the old's (a younger
  // reorder clock only accepts more): muted so late counts and side
  // outputs are not duplicated while both run.
  exec_options.late_sink = nullptr;
  exec_options.metrics = &metrics_;
  auto executor = std::make_unique<ShardedExecutor>(fresh->plan,
                                                    exec_options,
                                                    gate.get());

  auto cross = std::make_unique<DriftCrossover>();
  cross->retire_at = retire_at;
  gate_->set_max_start(cutover);  // Old pipeline: pre-cutover era only.
  cross->shared = std::move(shared_);
  cross->router = std::move(router_);
  cross->gate = std::move(gate_);
  cross->executor = std::move(executor_);
  cross->lineages = std::move(lineages_);

  // The new pipeline starts cold by construction — every instance it may
  // emit opens at or after the cutover, so there is no state worth
  // migrating (and lineages changed structurally anyway).
  executor_ = std::move(executor);
  gate_ = std::move(gate);
  router_ = std::move(router);
  shared_ = std::move(fresh);
  lineages_ = OperatorLineages(shared_->plan);
  cross_ = std::move(cross);
  metrics_.RecordTrace(telemetry::TraceKind::kDriftReplan,
                       timer.ElapsedNanos(), 1, 0);
}

void StreamSession::MaybeCompleteCrossover(TimeT wm_now) {
  if (!cross_) return;
  // Release watermark: the newest timestamp whose windows can still
  // change is wm_now - max_delay (late arrivals land behind it). Every
  // old-pipeline instance ends at or before retire_at, so once the
  // release watermark reaches it they have all closed with final
  // contents. Completing *later* than this point is always
  // output-identical — which is why the columnar path may check at
  // segment granularity instead of per event.
  const TimeT release =
      options_.max_delay == 0 ? wm_now : wm_now - options_.max_delay;
  if (release >= cross_->retire_at) CompleteCrossover();
}

void StreamSession::CompleteCrossover() {
  DriftCrossover& cross = *cross_;
  // Joins workers and delivers anything still buffered. All pre-cutover
  // instances have closed canonically by now (their ends precede the
  // release watermark), and post-cutover flushes are suppressed by the
  // old gate — the new pipeline owns and already emitted that era.
  cross.executor->Finish();
  retired_ops_ += cross.executor->TotalAccumulateOps();
  // The session's late tally must read as one pipeline's: the live
  // executor's counter includes warm-up lates the old pipeline also
  // counted, so bank only the old pipeline's surplus over it. (The new
  // clock starts younger, so its late set — and count — is a subset.)
  const uint64_t old_late = cross.executor->late_events();
  const uint64_t new_late = executor_->late_events();
  retired_late_ += old_late > new_late ? old_late - new_late : 0;
  retired_reorder_peak_ =
      std::max(retired_reorder_peak_, cross.executor->reorder_buffer_peak());
  for (uint64_t c : cross.executor->PerOperatorCloses()) {
    retired_closes_total_ += c;
  }
  for (uint64_t f : cross.executor->PerOperatorFinalizes()) {
    retired_finalizes_total_ += f;
  }
  metrics_.RecordTrace(
      telemetry::TraceKind::kCrossoverDone, 0,
      static_cast<int64_t>(cross.executor->TotalAccumulateOps()));
  cross_.reset();
  // The surviving pipeline takes over late accounting and side outputs.
  executor_->set_late_sink(late_sink_.get());
}

Status StreamSession::CancelCrossover() {
  // Flush the new (gated) executor's canonical closes: its gate passes
  // exactly the start >= cutover era it alone owns, and that emission
  // set provably equals what the old pipeline's gate is suppressing —
  // so delivering it here, before the old pipeline's own checkpoint,
  // keeps the merged output a single static pipeline's (DESIGN.md §15).
  Result<ExecutorCheckpoint> flushed = executor_->Checkpoint();
  if (!flushed.ok()) return flushed.status();
  retired_ops_ += executor_->TotalAccumulateOps();
  for (uint64_t c : executor_->PerOperatorCloses()) {
    retired_closes_total_ += c;
  }
  for (uint64_t f : executor_->PerOperatorFinalizes()) {
    retired_finalizes_total_ += f;
  }
  // Restore the old pipeline into the live slots — it ingested the whole
  // stream, so its state is exactly a static session's. Assignment order
  // destroys the new pipeline in dependency order (executor, then gate,
  // then router). The restored gate keeps max_start = cutover: the
  // caller (a churn Rebuild) checkpoints immediately, and the start >=
  // cutover closes that checkpoint flushes were already delivered above.
  executor_ = std::move(cross_->executor);
  gate_ = std::move(cross_->gate);
  router_ = std::move(cross_->router);
  shared_ = std::move(cross_->shared);
  lineages_ = std::move(cross_->lineages);
  cross_.reset();
  executor_->set_late_sink(late_sink_.get());
  return Status::OK();
}

Status StreamSession::Push(const Event& event) {
  session_role_.AssertHeld();  // Public entry: caller thread only.
  FW_RETURN_IF_ERROR(CheckMutable());
  if (options_.max_delay == 0 && event.timestamp < watermark_) {
    return IngestStopped(
        0, event.timestamp,
        Status::InvalidArgument("out-of-order event: timestamp " +
                                std::to_string(event.timestamp) +
                                " behind watermark " +
                                std::to_string(watermark_)));
  }
  if (event.key >= options_.num_keys) {
    return IngestStopped(
        0, event.timestamp,
        Status::OutOfRange("event key " + std::to_string(event.key) +
                           " outside key space [0, " +
                           std::to_string(options_.num_keys) + ")"));
  }
  // Write-ahead: the event reaches the changelog before it mutates any
  // session state, so a crash between the two replays it instead of
  // losing it.
  if (options_.durability.enabled) {
    Status logged = DurableAppend(event);
    if (!logged.ok()) return IngestStopped(0, event.timestamp, logged);
  }
  if (event.timestamp > watermark_) watermark_ = event.timestamp;
  ++events_pushed_;
  events_pushed_counter_->Increment(0);
  // Event-time lag behind the newest timestamp seen: 0 when in order,
  // the disorder distribution otherwise (late events land past
  // max_delay). Two relaxed adds and a bit_width — no clock read.
  watermark_lag_hist_->Record(
      0, static_cast<uint64_t>(watermark_ - event.timestamp));
  if (!executor_) {
    ++events_dropped_;
    events_dropped_counter_->Increment(0);
    return Status::OK();
  }
  // Dual-push during a crossover, outgoing pipeline first (it owns the
  // earlier result era, and both routers feed the same sinks).
  if (cross_) cross_->executor->Push(event);
  executor_->Push(event);
  if (options_.auto_resize.enabled &&
      ++events_since_resize_check_ >= options_.auto_resize.check_interval) {
    events_since_resize_check_ = 0;
    AutoResizeCheck(events_pushed_, watermark_);
  }
  if (options_.adaptive.enabled &&
      ++events_since_drift_check_ >= options_.adaptive.check_interval) {
    events_since_drift_check_ = 0;
    DriftCheck(events_pushed_, watermark_);
  }
  MaybeCompleteCrossover(watermark_);
  if (durability_) MaybeSnapshot();
  return Status::OK();
}

Status StreamSession::PushBatch(const std::vector<Event>& events) {
  // Rows transpose into columns once, here, so PushColumns is the one
  // batch hot path (same checks, same error wording, same engine folds).
  return PushColumns(EventColumns::FromEvents(events));
}

Status StreamSession::PushColumns(const EventColumns& columns) {
  session_role_.AssertHeld();  // Public entry: caller thread only.
  FW_RETURN_IF_ERROR(CheckMutable());
  FW_RETURN_IF_ERROR(columns.Validate());
  const size_t count = columns.size();
  push_batch_size_hist_->Record(0, count);
  if (count == 0) return Status::OK();

  // In-batch positions where a monitor's cadence crosses. Recording the
  // position *and* the running watermark lets the checks below run with
  // the exact stream position scalar Push would have seen — and carrying
  // the counter remainders (instead of the old at-most-once-per-batch
  // sampling) keeps the cadence identical across batch boundaries, so
  // scalar and columnar ingestion of one stream make the same decisions
  // at the same events.
  struct SamplePoint {
    size_t index;   // Event index within this batch.
    TimeT wm;       // Watermark after accepting that event.
    uint8_t kinds;  // Bit 0: resize check due. Bit 1: drift check due.
  };
  std::vector<SamplePoint> samples;
  const bool monitor_resize =
      executor_ != nullptr && options_.auto_resize.enabled;
  const bool monitor_drift =
      executor_ != nullptr && options_.adaptive.enabled;
  uint64_t resize_streak = events_since_resize_check_;
  uint64_t drift_streak = events_since_drift_check_;

  // Find the acceptable prefix under the ingestion contract — the same
  // per-event checks Push applies, simulated against a local watermark so
  // nothing is committed past the first rejection. Per-event telemetry
  // (the watermark-lag distribution) records exactly as per-event Push
  // would.
  size_t accepted = count;
  Status cause = Status::OK();
  TimeT advanced = watermark_;
  for (size_t i = 0; i < count; ++i) {
    const TimeT timestamp = columns.timestamps[i];
    if (options_.max_delay == 0 && timestamp < advanced) {
      cause = Status::InvalidArgument(
          "out-of-order event: timestamp " + std::to_string(timestamp) +
          " behind watermark " + std::to_string(advanced));
      accepted = i;
      break;
    }
    if (columns.keys[i] >= options_.num_keys) {
      cause = Status::OutOfRange(
          "event key " + std::to_string(columns.keys[i]) +
          " outside key space [0, " + std::to_string(options_.num_keys) +
          ")");
      accepted = i;
      break;
    }
    if (timestamp > advanced) advanced = timestamp;
    watermark_lag_hist_->Record(
        0, static_cast<uint64_t>(advanced - columns.timestamps[i]));
    uint8_t due = 0;
    if (monitor_resize &&
        ++resize_streak >= options_.auto_resize.check_interval) {
      resize_streak = 0;
      due |= 1;
    }
    if (monitor_drift &&
        ++drift_streak >= options_.adaptive.check_interval) {
      drift_streak = 0;
      due |= 2;
    }
    if (due != 0) samples.push_back({i, advanced, due});
  }

  // Write-ahead for the whole accepted prefix, as one changelog record,
  // before any of it mutates session state. An append failure rejects
  // the entire batch (index 0): nothing was applied, so the caller's
  // resume position is the batch start — consistent with the contract.
  if (options_.durability.enabled && accepted > 0) {
    Status logged = DurableAppendColumns(columns, accepted);
    if (!logged.ok()) return IngestStopped(0, columns.timestamps[0], logged);
  }

  // Apply the accepted prefix (possibly the whole batch).
  const uint64_t events_before = events_pushed_;
  watermark_ = advanced;
  events_pushed_ += accepted;
  events_pushed_counter_->Add(0, accepted);
  if (monitor_resize) events_since_resize_check_ = resize_streak;
  if (monitor_drift) events_since_drift_check_ = drift_streak;
  if (!executor_) {
    events_dropped_ += accepted;
    events_dropped_counter_->Add(0, accepted);
  } else if (samples.empty() && !cross_ && accepted == count) {
    executor_->PushColumns(columns);  // Hot path: one hand-off, no copy.
  } else if (accepted > 0) {
    // Split the accepted prefix at the sample points: each segment hands
    // off columnar (to both pipelines during a crossover, outgoing
    // first), then the due checks run at the boundary with that exact
    // stream position — a mid-batch drift replan or resize applies to
    // the remaining segments, just as it would between scalar pushes.
    size_t begin = 0;
    size_t next_sample = 0;
    while (begin < accepted) {
      const SamplePoint* sample =
          next_sample < samples.size() ? &samples[next_sample] : nullptr;
      const size_t end = sample ? sample->index + 1 : accepted;
      if (begin == 0 && end == count) {
        if (cross_) cross_->executor->PushColumns(columns);
        executor_->PushColumns(columns);
      } else {
        const EventColumns segment = SliceColumns(columns, begin, end);
        if (cross_) cross_->executor->PushColumns(segment);
        executor_->PushColumns(segment);
      }
      if (sample) {
        const uint64_t events_at = events_before + sample->index + 1;
        if (sample->kinds & 1) AutoResizeCheck(events_at, sample->wm);
        if (sample->kinds & 2) DriftCheck(events_at, sample->wm);
        // The *running* watermark, not the committed full-batch one:
        // completing against the latter could retire the old pipeline
        // while later rows in this batch still belong to its era.
        MaybeCompleteCrossover(sample->wm);
        ++next_sample;
      }
      begin = end;
    }
  }
  if (executor_ && accepted > 0) MaybeCompleteCrossover(watermark_);
  if (durability_) MaybeSnapshot();
  if (accepted == count) return Status::OK();
  return IngestStopped(accepted, columns.timestamps[accepted], cause);
}

Status StreamSession::Finish() {
  session_role_.AssertHeld();  // Public entry: caller thread only.
  if (finished_) return Status::OK();
  finished_ = true;
  // Finishing mid-crossover retires the old pipeline first: it flushes
  // its (pre-cutover) era through its gate, then the survivor flushes
  // everything from the cutover on — together, one static pipeline's
  // Finish output.
  if (cross_) CompleteCrossover();
  if (executor_) executor_->Finish();
  // A finished executor's rings are drained and its workers joined; the
  // occupancy gauge reads 0, like the idle-retire path.
  ring_occupancy_gauge_->Set(0.0);
  // One final snapshot (finished flag set, no executor checkpoint — the
  // windows all flushed above), so recovering a finished session is a
  // snapshot load with an empty replay. It is written synchronously, and
  // no write is left in flight after Finish even on a failed session.
  if (durability_) {
    if (durability_error_.ok()) durability_error_ = BeginDurableSnapshot();
    Status written = durability_->JoinSnapshot();
    if (durability_error_.ok()) durability_error_ = written;
  }
  return durability_error_;
}

const QueryPlan* StreamSession::shared_plan() const {
  session_role_.AssertHeld();  // Public entry: caller thread only.
  return shared_ ? &shared_->plan : nullptr;
}

Result<std::string> StreamSession::Explain(QueryId id) const {
  session_role_.AssertHeld();  // Public entry: caller thread only.
  size_t index = FindQuery(id);
  if (index == queries_.size()) {
    return Status::NotFound("no query with id " + std::to_string(id));
  }
  FW_CHECK(shared_ != nullptr);
  const LiveQuery& live = *queries_[index];

  std::string out = "query " + std::to_string(id) + ": " +
                    live.query.ToSql() + "\nsubscriptions:\n";
  for (const MultiQueryOptimizer::Subscription& sub :
       shared_->subscriptions) {
    if (sub.query_index != static_cast<int>(index)) continue;
    out += "  " + sub.window.ToString() + " <- shared operator " +
           std::to_string(sub.plan_operator) + " [" +
           shared_->plan.op(sub.plan_operator).label + "]\n";
  }
  out += "shared plan (" + std::to_string(shared_->plan.num_operators()) +
         " operators serving " + std::to_string(queries_.size()) +
         " queries):\n" + ToSummary(shared_->plan);
  return out;
}

Result<StreamSession::QueryStats> StreamSession::StatsFor(QueryId id) const {
  session_role_.AssertHeld();  // Public entry: caller thread only.
  size_t index = FindQuery(id);
  if (index == queries_.size()) {
    return Status::NotFound("no query with id " + std::to_string(id));
  }
  QueryStats stats;
  stats.results_delivered = queries_[index]->results_delivered;
  if (executor_) {
    std::vector<uint64_t> per_op = executor_->PerOperatorOps();
    // Subscribed operators plus everything upstream of them: the whole
    // provider chain works for this query. Chains overlap, so collect
    // before summing.
    std::vector<bool> attributed(per_op.size(), false);
    for (const MultiQueryOptimizer::Subscription& sub :
         shared_->subscriptions) {
      if (sub.query_index != static_cast<int>(index)) continue;
      int cursor = sub.plan_operator;
      while (cursor >= 0 && !attributed[static_cast<size_t>(cursor)]) {
        attributed[static_cast<size_t>(cursor)] = true;
        cursor = shared_->plan.op(cursor).parent;
      }
    }
    for (size_t i = 0; i < per_op.size(); ++i) {
      if (attributed[i]) stats.attributed_ops += per_op[i];
    }
  }
  return stats;
}

StreamSession::SessionStats StreamSession::Stats() const {
  session_role_.AssertHeld();  // Public entry: caller thread only.
  // At rest: join an in-flight snapshot write so the durability tallies
  // (and the files) are exact. A write failure stays with the manager
  // until the next mutation latches it.
  if (durability_) (void)durability_->JoinSnapshot();
  return BuildStats();
}

StreamSession::SessionStats StreamSession::BuildStats() const {
  SessionStats stats;
  stats.live_queries = queries_.size();
  stats.events_pushed = events_pushed_;
  stats.events_dropped = events_dropped_;
  stats.replans = replans_;
  stats.operators_migrated = last_migrated_;
  stats.operators_cold = last_cold_;
  stats.last_replan_seconds = last_replan_seconds_;
  // Crossover double-processing is real work, so it counts: both
  // pipelines' ops while one is in flight.
  stats.lifetime_ops =
      retired_ops_ + (executor_ ? executor_->TotalAccumulateOps() : 0) +
      (cross_ ? cross_->executor->TotalAccumulateOps() : 0);
  stats.num_shards = executor_
                         ? executor_->num_shards()
                         : EffectiveShards(options_.num_shards,
                                           options_.num_keys);
  stats.resize_count = resize_count_;
  stats.last_resize_ns = last_resize_ns_;
  if (executor_) {
    stats.events_per_shard = executor_->EventsPerShard();
    stats.ring_occupancy = executor_->RingOccupancy();
  }
  // During a crossover the *old* pipeline carries the session's
  // event-time identity: it runs the original reorder clock, so its
  // lates, buffer depth, and watermark are what a static session
  // reports; the new pipeline's reorder stage is a muted warm-up.
  const ShardedExecutor* clock =
      cross_ ? cross_->executor.get() : executor_.get();
  stats.late_events = retired_late_ + (clock ? clock->late_events() : 0);
  stats.reorder_buffered = clock ? clock->reorder_buffered() : 0;
  stats.reorder_buffer_peak = std::max(
      retired_reorder_peak_, clock ? clock->reorder_buffer_peak() : 0);
  if (options_.max_delay == 0) {
    stats.current_watermark = watermark_;
  } else {
    stats.current_watermark =
        clock ? clock->current_watermark() : retired_watermark_;
  }
  if (shared_) {
    stats.shared_cost = shared_->shared_cost;
    stats.original_cost = shared_->original_cost;
    stats.independent_cost = shared_->independent_cost;
    stats.predicted_boost = shared_->PredictedBoost();
    stats.predicted_savings = shared_->PredictedSavings();
    stats.predicted_shard_boost =
        shared_->PredictedShardBoost(options_.num_shards, options_.num_keys);
    stats.sharded_cost =
        shared_->ShardedCost(options_.num_shards, options_.num_keys);
  }
  stats.observed_eta = rate_.has_observations() ? rate_.rate() : 0.0;
  stats.planned_eta = planned_eta_;
  stats.drift_replans = drift_replans_;
  if (durability_) {
    const durability::DurabilityManager::Counters& d =
        durability_->counters();
    stats.wal_records = d.wal_records;
    stats.wal_bytes = d.wal_bytes;
    stats.wal_fsyncs = d.wal_fsyncs;
    stats.snapshots_written = d.snapshots_written;
    stats.truncate_failures = d.truncate_failures;
  }
  return stats;
}

StreamSession::SessionMetrics StreamSession::Metrics() const {
  session_role_.AssertHeld();  // Public entry: caller thread only.
  // Never waits for a snapshot write: the durability tallies are those of
  // the last completed one.
  if (durability_) (void)durability_->ReapSnapshot();
  SessionMetrics metrics;
  metrics.stats = BuildStats();

  // Per-operator breakdown of the current topology — during a crossover,
  // the live (new-plan) pipeline. The executor getters quiesce, so the
  // counts are exact at this instant; they are cumulative across Resize
  // (executor-banked retired tallies) but restart at each replan (new
  // plan, new operators).
  uint64_t closes_total = retired_closes_total_;
  uint64_t finalizes_total = retired_finalizes_total_;
  if (cross_) {
    for (uint64_t c : cross_->executor->PerOperatorCloses()) {
      closes_total += c;
    }
    for (uint64_t f : cross_->executor->PerOperatorFinalizes()) {
      finalizes_total += f;
    }
  }
  if (executor_ && shared_) {
    const std::vector<uint64_t> ops = executor_->PerOperatorOps();
    const std::vector<uint64_t> closes = executor_->PerOperatorCloses();
    const std::vector<uint64_t> finalizes = executor_->PerOperatorFinalizes();
    metrics.operators.reserve(ops.size());
    for (size_t i = 0; i < ops.size(); ++i) {
      OperatorMetrics op;
      op.operator_id = static_cast<int>(i);
      op.label = shared_->plan.op(static_cast<int>(i)).label;
      op.accumulate_ops = ops[i];
      op.closed_instances = i < closes.size() ? closes[i] : 0;
      op.finalized_results = i < finalizes.size() ? finalizes[i] : 0;
      closes_total += op.closed_instances;
      finalizes_total += op.finalized_results;
      metrics.operators.push_back(std::move(op));
    }
  }
  metrics.closed_instances_total = closes_total;
  metrics.finalized_results_total = finalizes_total;

  // Publish the instantaneous session view into the registry, so the
  // snapshot below (and any Prometheus/JSON render of it) carries the
  // session gauges alongside the hot-path counters and histograms.
  live_queries_gauge_->Set(static_cast<double>(metrics.stats.live_queries));
  num_shards_gauge_->Set(static_cast<double>(metrics.stats.num_shards));
  ring_occupancy_gauge_->Set(metrics.stats.ring_occupancy);
  reorder_buffered_gauge_->Set(
      static_cast<double>(metrics.stats.reorder_buffered));
  accumulate_ops_gauge_->Set(static_cast<double>(metrics.stats.lifetime_ops));
  closed_total_gauge_->Set(static_cast<double>(closes_total));
  finalized_total_gauge_->Set(static_cast<double>(finalizes_total));
  observed_eta_gauge_->Set(metrics.stats.observed_eta);

  metrics.telemetry = metrics_.Snapshot();
  return metrics;
}

std::vector<QueryId> StreamSession::QueryIds() const {
  session_role_.AssertHeld();  // Public entry: caller thread only.
  std::vector<QueryId> ids;
  ids.reserve(queries_.size());
  for (const auto& q : queries_) ids.push_back(q->id);
  return ids;
}

Status StreamSession::CheckDurable() {
  if (!durability_error_.ok()) return durability_error_;
  FW_CHECK(durability_ != nullptr);
  // Every mutation reaps a finished snapshot writer (one atomic load
  // while it runs), so a failed write fail-stops the session at the
  // first call after it completes.
  durability_error_ = durability_->ReapSnapshot();
  return durability_error_;
}

Status StreamSession::DurableAppend(const Event& event) {
  FW_RETURN_IF_ERROR(CheckDurable());
  durable_scratch_.clear();
  durable_scratch_.Append(event);
  Status logged = durability_->AppendEvents(durable_scratch_);
  if (!logged.ok()) durability_error_ = logged;
  return logged;
}

Status StreamSession::DurableAppendColumns(const EventColumns& columns,
                                           size_t accepted) {
  FW_RETURN_IF_ERROR(CheckDurable());
  // Only admitted events belong in the changelog: a rejected suffix was
  // never applied, and replay must not apply it either.
  Status logged = accepted == columns.size()
                      ? durability_->AppendEvents(columns)
                      : durability_->AppendEvents(
                            SliceColumns(columns, 0, accepted));
  if (!logged.ok()) durability_error_ = logged;
  return logged;
}

void StreamSession::MaybeSnapshot() {
  // Deferred while a drift crossover is in flight: the dual-pipeline
  // state is transient and the canonical checkpoint describes one
  // pipeline — the next quiescent batch boundary snapshots instead.
  if (!durability_ || cross_ || !durability_error_.ok()) return;
  if (!durability_->SnapshotDue()) return;
  // A failed snapshot latches (fail-stop on the next ingest) but does
  // not fail the Push that triggered it: that batch was logged and
  // applied — it is durable through the changelog.
  durability_error_ = BeginDurableSnapshot();
}

Status StreamSession::BeginDurableSnapshot() {
  const uint64_t started_ns = MonotonicNanos();
  durability::SnapshotContents contents;
  std::optional<ExecutorCheckpoint> checkpoint;
  FW_RETURN_IF_ERROR(BuildDurableSnapshot(&contents, &checkpoint));
  return durability_->BeginSnapshot(std::move(contents),
                                    std::move(checkpoint), started_ns);
}

Status StreamSession::BuildDurableSnapshot(
    durability::SnapshotContents* out,
    std::optional<ExecutorCheckpoint>* checkpoint) {
  MonotonicTimer timer;
  durability::SnapshotContents& contents = *out;
  durability::SnapshotMeta& meta = contents.meta;
  constexpr TimeT kNoWatermark = std::numeric_limits<TimeT>::min();
  meta.covered_events = events_pushed_;
  meta.num_keys = options_.num_keys;
  meta.max_delay = options_.max_delay;
  meta.late_policy = static_cast<uint8_t>(options_.late_policy);
  meta.finished = finished_ ? 1 : 0;
  meta.events_pushed = events_pushed_;
  meta.events_dropped = events_dropped_;
  meta.replans = replans_;
  meta.drift_replans = drift_replans_;
  meta.resize_count = resize_count_;
  meta.next_id = next_id_;
  meta.watermark_valid = watermark_ != kNoWatermark ? 1 : 0;
  meta.watermark = meta.watermark_valid ? watermark_ : 0;
  meta.retired_ops = retired_ops_;
  meta.retired_late = retired_late_;
  meta.retired_reorder_peak = retired_reorder_peak_;
  meta.retired_closes_total = retired_closes_total_;
  meta.retired_finalizes_total = retired_finalizes_total_;
  meta.retired_watermark_valid = retired_watermark_ != kNoWatermark ? 1 : 0;
  meta.retired_watermark = meta.retired_watermark_valid ? retired_watermark_ : 0;
  meta.planned_eta = planned_eta_;
  contents.queries.reserve(queries_.size());
  for (const auto& q : queries_) {
    contents.queries.push_back({q->id, q->query});
  }
  if (executor_ && !finished_) {
    // Canonical merged checkpoint: CloseThrough-canonicalized, shard
    // counts merged into the global view — a pure function of the
    // delivered stream, which is what makes recovery bitwise exact.
    Result<ExecutorCheckpoint> taken = executor_->Checkpoint();
    if (!taken.ok()) return taken.status();
    metrics_.RecordTrace(telemetry::TraceKind::kCheckpoint,
                         timer.ElapsedNanos(),
                         static_cast<int64_t>(taken->operators.size()));
    *checkpoint = std::move(*taken);
  }
  return Status::OK();
}

Status StreamSession::ReplayRecord(const durability::WalRecord& record,
                                   const CallbackFactory& callbacks) {
  switch (record.type) {
    case durability::kWalEvents: {
      EventColumns columns;
      FW_RETURN_IF_ERROR(
          durability::DecodeEventsPayload(record.payload, &columns));
      return PushColumns(columns);
    }
    case durability::kWalAddQuery: {
      uint64_t id = 0;
      StreamQuery query;
      FW_RETURN_IF_ERROR(
          durability::DecodeQueryPayload(record.payload, &id, &query));
      next_id_ = id;  // Replayed queries keep their original ids.
      Result<QueryId> added =
          AddQuery(query, callbacks ? callbacks(id, query) : nullptr);
      if (!added.ok()) return added.status();
      FW_CHECK_EQ(*added, id);
      return Status::OK();
    }
    case durability::kWalRemoveQuery: {
      uint64_t id = 0;
      FW_RETURN_IF_ERROR(
          durability::DecodeRemoveQueryPayload(record.payload, &id));
      return RemoveQuery(id);
    }
    default:
      return Status::InvalidArgument("unknown changelog record type " +
                                     std::to_string(record.type));
  }
}

Result<StreamSession::RecoveryInfo> StreamSession::Recover(
    std::string_view dir, Options options, const CallbackFactory& callbacks) {
  MonotonicTimer timer;
  options.durability.dir = std::string(dir);

  Result<durability::LoadedSnapshot> loaded =
      durability::LoadLatestSnapshot(options.durability.dir);
  if (!loaded.ok()) return loaded.status();
  const durability::SnapshotMeta& meta = loaded->contents.meta;

  if (loaded->found) {
    // The options that shape results must match the crashed session's;
    // num_shards deliberately may differ (sharding is output-invariant,
    // and the checkpoint restores at any width).
    if (meta.num_keys != options.num_keys ||
        meta.max_delay != options.max_delay ||
        meta.late_policy != static_cast<uint8_t>(options.late_policy)) {
      return Status::InvalidArgument(
          "recovery options disagree with the snapshot: snapshot has "
          "num_keys " +
          std::to_string(meta.num_keys) + ", max_delay " +
          std::to_string(meta.max_delay) + ", late_policy " +
          std::to_string(meta.late_policy) + "; options request num_keys " +
          std::to_string(options.num_keys) + ", max_delay " +
          std::to_string(options.max_delay) + ", late_policy " +
          std::to_string(static_cast<uint8_t>(options.late_policy)));
    }
  }

  const uint64_t start_seq = loaded->found ? meta.covered_seq : 0;
  std::vector<durability::WalRecord> records;
  FW_RETURN_IF_ERROR(durability::ReadChangelog(options.durability.dir,
                                               start_seq, &records));
  const uint64_t next_seq =
      records.empty() ? start_seq : records.back().seq + 1;

  // Build with durability off — replay must not re-log the changelog —
  // and at the snapshot's planned η: the optimizer is deterministic, so
  // re-optimizing the snapshot's query set at that η reproduces the
  // checkpointed plan structure, and the executor Restore below lands on
  // matching operators.
  Options replay_options = options;
  replay_options.durability = {};
  if (loaded->found) replay_options.optimizer.eta = meta.planned_eta;
  auto session = std::make_unique<StreamSession>(replay_options);
  session->session_role_.AssertHeld();  // Constructed on this thread.

  RecoveryInfo info;
  info.snapshots_skipped = loaded->skipped;

  if (loaded->found) {
    info.snapshot_events = meta.covered_events;
    for (const durability::SnapshotQuery& snap_query :
         loaded->contents.queries) {
      session->next_id_ = snap_query.id;  // Ids survive recovery.
      Result<QueryId> added = session->AddQuery(
          snap_query.query,
          callbacks ? callbacks(snap_query.id, snap_query.query) : nullptr);
      if (!added.ok()) {
        return Status(added.status().code(),
                      "recovery could not re-install query " +
                          std::to_string(snap_query.id) + ": " +
                          added.status().message());
      }
      FW_CHECK_EQ(*added, snap_query.id);
    }
    if (loaded->contents.has_checkpoint) {
      if (session->executor_ == nullptr) {
        return Status::InvalidArgument(
            "snapshot carries an executor checkpoint but no queries");
      }
      Result<ExecutorCheckpoint> checkpoint =
          ExecutorCheckpoint::Deserialize(loaded->contents.checkpoint);
      if (!checkpoint.ok()) {
        return Status(checkpoint.status().code(),
                      "snapshot checkpoint rejected: " +
                          checkpoint.status().message());
      }
      Status restored = session->executor_->Restore(*checkpoint);
      if (!restored.ok()) {
        return Status(restored.code(), "snapshot checkpoint rejected: " +
                                           restored.message());
      }
    }
    // Overwrite the counters the installs above advanced with the
    // snapshot's values; replay advances them naturally from here.
    constexpr TimeT kNoWatermark = std::numeric_limits<TimeT>::min();
    session->next_id_ = meta.next_id;
    session->watermark_ =
        meta.watermark_valid ? meta.watermark : kNoWatermark;
    session->events_pushed_ = meta.events_pushed;
    session->events_dropped_ = meta.events_dropped;
    session->replans_ = static_cast<int>(meta.replans);
    session->drift_replans_ = static_cast<int>(meta.drift_replans);
    session->resize_count_ = meta.resize_count;
    session->retired_ops_ = meta.retired_ops;
    session->retired_late_ = meta.retired_late;
    session->retired_reorder_peak_ = meta.retired_reorder_peak;
    session->retired_closes_total_ = meta.retired_closes_total;
    session->retired_finalizes_total_ = meta.retired_finalizes_total;
    session->retired_watermark_ =
        meta.retired_watermark_valid ? meta.retired_watermark : kNoWatermark;
    session->planned_eta_ = meta.planned_eta;
    if (meta.finished) session->finished_ = true;
  }

  // Replay the changelog suffix. Results finalized after the snapshot
  // re-deliver here (at-least-once), bitwise identical to the original
  // delivery; a failure names the exact stop position.
  for (const durability::WalRecord& record : records) {
    Status applied = session->ReplayRecord(record, callbacks);
    if (!applied.ok()) {
      return RecoveryStopped(record.segment_base, record.index_in_segment,
                             applied);
    }
    ++info.replayed_records;
  }

  // Publish a snapshot of the recovered state BEFORE resuming durable
  // logging: it covers everything replayed — including any torn tail in
  // the old newest segment — and must be durable before Attach opens a
  // fresh segment. Opening first would demote the torn segment to
  // non-newest while records past the old snapshot's coverage could
  // still be lost in it; a crash inside the (checkpoint-sized) snapshot
  // write would then brick every later recovery. In this order a crash
  // either leaves the directory unchanged (recovery re-runs) or
  // snapshot-covered (the torn segment is fully covered, so the reader
  // skips it).
  durability::SnapshotContents recovery_snapshot;
  std::optional<ExecutorCheckpoint> checkpoint;
  FW_RETURN_IF_ERROR(
      session->BuildDurableSnapshot(&recovery_snapshot, &checkpoint));
  if (checkpoint) {
    recovery_snapshot.checkpoint = checkpoint->Serialize();
    recovery_snapshot.has_checkpoint = true;
  }
  recovery_snapshot.meta.covered_seq = next_seq;
  FW_RETURN_IF_ERROR(durability::WriteSnapshotFile(options.durability.dir,
                                                   recovery_snapshot));

  session->options_.durability = options.durability;
  session->options_.durability.enabled = true;
  Result<std::unique_ptr<durability::DurabilityManager>> manager =
      durability::DurabilityManager::Attach(session->options_.durability,
                                            next_seq, &session->metrics_);
  if (!manager.ok()) return manager.status();
  session->durability_ = std::move(*manager);
  // Count the snapshot and truncate the files it covers now that the
  // fresh segment (base == next_seq) exists.
  session->durability_->NoteSnapshotPublished(next_seq);

  session->metrics_.RecordTrace(
      telemetry::TraceKind::kRecovery, timer.ElapsedNanos(),
      static_cast<int64_t>(info.replayed_records), info.snapshots_skipped);
  info.durable_events = session->events_pushed_;
  info.recovered_queries = session->queries_.size();
  info.session = std::move(session);
  return info;
}

RuntimeProfile StreamSession::Profile() const {
  session_role_.AssertHeld();  // Public entry: caller thread only.
  RuntimeProfile profile;
  if (rate_.has_observations()) profile.observed_eta = rate_.rate();
  if (executor_) {
    const std::vector<uint64_t> per_shard = executor_->EventsPerShard();
    uint64_t total = 0;
    uint64_t peak = 0;
    for (uint64_t events : per_shard) {
      total += events;
      peak = std::max(peak, events);
    }
    if (total > 0 && !per_shard.empty()) {
      profile.key_skew =
          static_cast<double>(peak) /
          (static_cast<double>(total) / static_cast<double>(per_shard.size()));
    }
    const std::vector<uint64_t> ops = executor_->PerOperatorOps();
    const std::vector<uint64_t> closes = executor_->PerOperatorCloses();
    const std::vector<uint64_t> finalizes = executor_->PerOperatorFinalizes();
    profile.operators.reserve(ops.size());
    for (size_t i = 0; i < ops.size(); ++i) {
      RuntimeProfile::OperatorProfile op;
      op.operator_id = static_cast<int>(i);
      op.accumulate_ops = ops[i];
      op.closed_instances = i < closes.size() ? closes[i] : 0;
      op.finalized_results = i < finalizes.size() ? finalizes[i] : 0;
      profile.operators.push_back(op);
    }
  }
  return profile;
}

}  // namespace fw
