#include "session/session.h"

#include <algorithm>
#include <optional>
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

/// See the declaration in session.h. Members declare in dependency
/// order — the executor references the gate and the plan, the gate the
/// router — so the implicit destructor joins the executor first. Held by
/// pointer: the executor keeps the plan's address for its whole lifetime
/// (Resize rebuilds engines over it).
struct StreamSession::Pipeline {
  Pipeline(MultiQueryOptimizer::SharedPlan plan,
           const std::vector<StreamQuery>& queries,
           std::vector<ResultSink*> sinks,
           const ShardedExecutor::Options& options)
      : shared(std::move(plan)),
        lineages(OperatorLineages(shared.plan)),
        router(shared, queries, std::move(sinks)),
        gate(&router),
        executor(shared.plan, options, &gate) {}

  MultiQueryOptimizer::SharedPlan shared;
  std::vector<std::string> lineages;
  RoutingSink router;
  StartGateSink gate;
  ShardedExecutor executor;
  /// Outgoing pipeline of a crossover only: the end of the last window
  /// instance it owns (starts < cutover); it retires once the release
  /// watermark reaches this.
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
      resize_policy_(options.auto_resize),
      rate_(SanitizedRateAlpha(options.adaptive.rate_alpha)) {
  session_role_.AssertHeld();  // Constructing thread is the caller thread.
  FW_CHECK_GT(options.num_keys, 0u);
  FW_CHECK_GE(options.max_delay, 0);
  if (options_.adaptive.enabled) {
    FW_CHECK_GT(options_.adaptive.rate_alpha, 0.0);
    FW_CHECK_LE(options_.adaptive.rate_alpha, 1.0);
    FW_CHECK_GT(options_.monitor_interval, 0u);
    FW_CHECK_GE(options_.adaptive.reoptimize_ratio, 1.0);
  }
  // The executors' late side output: the callback under kSideOutput,
  // nothing under kDrop.
  if (options_.late_policy != LatePolicy::kSideOutput) {
    options_.late_callback = nullptr;
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
  // Join the executors before anything else goes, the crossover's
  // outgoing pipeline first.
  cross_.reset();
  live_.reset();
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
  FW_RETURN_IF_ERROR(CheckJoinable(
      query, queries_.empty() ? nullptr : &queries_.front()->query));

  auto live = std::make_unique<LiveQuery>();
  live->id = counters_.next_id;
  live->query = query;
  live->callback = std::move(callback);

  std::vector<LiveQuery*> candidate;
  candidate.reserve(queries_.size() + 1);
  for (const auto& q : queries_) candidate.push_back(q.get());
  candidate.push_back(live.get());
  FW_RETURN_IF_ERROR(Rebuild(candidate));

  ++counters_.next_id;
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

Status StreamSession::CheckJoinable(const StreamQuery& query,
                                    const StreamQuery* first) const {
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
  if (first == nullptr) return Status::OK();
  if (query.source != first->source) {
    return Status::InvalidArgument("session reads stream '" + first->source +
                                   "', query reads '" + query.source + "'");
  }
  if (query.agg != first->agg) {
    return Status::InvalidArgument("session aggregates " + first->agg->name +
                                   ", query aggregates " + query.agg->name);
  }
  if (query.per_key != first->per_key ||
      query.key_column != first->key_column) {
    return Status::InvalidArgument(
        "session groups by '" +
        (first->per_key ? first->key_column : std::string("<none>")) +
        "', query groups by '" +
        (query.per_key ? query.key_column : std::string("<none>")) + "'");
  }
  return Status::OK();
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

std::unique_ptr<StreamSession::Pipeline> StreamSession::NewPipeline(
    MultiQueryOptimizer::SharedPlan shared,
    const std::vector<StreamQuery>& queries,
    const std::vector<LiveQuery*>& live, LateEventCallback late_sink) {
  std::vector<ResultSink*> sinks;
  sinks.reserve(live.size());
  for (LiveQuery* q : live) sinks.push_back(&q->sink);
  ShardedExecutor::Options exec_options;
  exec_options.num_keys = options_.num_keys;
  exec_options.num_shards = options_.num_shards;
  exec_options.max_delay = options_.max_delay;
  exec_options.late_sink = std::move(late_sink);
  exec_options.metrics = &metrics_;
  return std::make_unique<Pipeline>(std::move(shared), queries,
                                    std::move(sinks), exec_options);
}

void StreamSession::BankWork(const ShardedExecutor& executor) {
  for (const RuntimeProfile::OperatorProfile& op : executor.Counters()) {
    counters_.retired_ops += op.accumulate_ops;
    counters_.retired_closes_total += op.closed_instances;
    counters_.retired_finalizes_total += op.finalized_results;
  }
}

Status StreamSession::Rebuild(const std::vector<LiveQuery*>& live) {
  MonotonicTimer timer;

  std::unique_ptr<Pipeline> next;
  if (!live.empty()) {
    std::vector<StreamQuery> queries;
    queries.reserve(live.size());
    for (LiveQuery* q : live) queries.push_back(q->query);
    Result<MultiQueryOptimizer::SharedPlan> shared =
        MultiQueryOptimizer::Reoptimize(queries, options_.optimizer,
                                        options_.track_baseline);
    if (!shared.ok()) return shared.status();
    next = NewPipeline(std::move(*shared), queries, live,
                       options_.late_callback);
  }

  // Churn and idle retire both fold an in-flight crossover back into one
  // pipeline first: the restored (old) pipeline saw the whole stream, so
  // the checkpoint below covers exactly a static pipeline's state.
  // Ordered after the optimizer run — an optimizer error must leave the
  // session (including the crossover) untouched.
  if (cross_) FW_RETURN_IF_ERROR(CancelCrossover());

  // Carry surviving operator state across the swap (see class comment for
  // the migration semantics). ShardedExecutor::Checkpoint closes every
  // window the delivered stream completes, drains buffered results
  // through the old router and merges the shards into the global view,
  // so the lineage migration below is shard-count agnostic — and so is
  // what an idle retire delivers.
  CheckpointMigration migration;
  if (live_) {
    Result<ExecutorCheckpoint> checkpoint = live_->executor.Checkpoint();
    if (!checkpoint.ok()) return checkpoint.status();
    if (next) {
      migration =
          MigrateCheckpoint(*checkpoint, live_->lineages, next->lineages);
      FW_RETURN_IF_ERROR(next->executor.Restore(migration.checkpoint));
    } else {
      // Idle: in-flight windows are dropped (nobody subscribes to them
      // anymore), and the reorder stage retires with the pipeline — its
      // buffered events belonged to those windows, its counters move into
      // the session tallies, and the event-time clock restarts on
      // revival.
      counters_.retired_late += live_->executor.late_events();
      counters_.retired_reorder_peak =
          std::max(counters_.retired_reorder_peak,
                   live_->executor.reorder_buffer_peak());
      counters_.retired_watermark = live_->executor.current_watermark();
      metrics_.RecordTrace(telemetry::TraceKind::kIdleRetire);
    }
    // Close/finalize counts never migrate (they are not in the
    // checkpoint): the whole outgoing pipeline's tallies retire here, less
    // the ops that carried over into the new executor.
    BankWork(live_->executor);
    counters_.retired_ops -= migration.carried_ops;
  } else {
    migration.cold = static_cast<int>(next->shared.plan.num_operators());
  }

  // Commit; the old pipeline's executor joins before its gate and router
  // go.
  live_ = std::move(next);
  ++counters_.replans;
  replans_counter_->Increment(0);
  last_migrated_ = migration.migrated;
  last_cold_ = migration.cold;
  last_replan_seconds_ = timer.ElapsedSeconds();
  if (live_) {
    metrics_.RecordTrace(telemetry::TraceKind::kReplan, timer.ElapsedNanos(),
                         migration.migrated, migration.cold);
  } else {
    // A retired pipeline has no hand-off rings: the occupancy gauge must
    // read 0, not the last live sample (the ring_occupancy staleness
    // contract, pinned by the stats-lifecycle regression tests).
    ring_occupancy_gauge_->Set(0.0);
  }
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
      live_ ? live_->executor.num_shards()
            : EffectiveShards(options_.num_shards, options_.num_keys);
  if (live_) {
    // In-place exact handoff (runtime/ShardedExecutor::Resize): drains,
    // merges shard checkpoints, rebuilds at the new width, re-splits.
    // Cumulative counters ride inside the checkpoint, so nothing is
    // retired here. During a crossover only the live pipeline re-scales;
    // the outgoing one keeps its width for its bounded remaining life.
    FW_RETURN_IF_ERROR(live_->executor.Resize(new_num_shards));
  }
  options_.num_shards = new_num_shards;  // Future replans keep the width.
  ++counters_.resize_count;
  resizes_counter_->Increment(0);
  last_resize_ns_ = timer.ElapsedNanos();
  metrics_.RecordTrace(telemetry::TraceKind::kResize, last_resize_ns_,
                       width_before,
                       live_ ? live_->executor.num_shards()
                             : EffectiveShards(options_.num_shards,
                                               options_.num_keys));
  resize_policy_.OnApplied();
  return Status::OK();
}

void StreamSession::Sample(uint64_t events_at_sample, TimeT wm_at_sample) {
  // One rate estimator serves the drift detector and the resize
  // throughput signal, so it is observed once per sample, first.
  if (options_.adaptive.enabled ||
      options_.auto_resize.target_rate_per_shard > 0.0) {
    ObserveRate(events_at_sample, wm_at_sample);
  }
  if (options_.auto_resize.enabled) AutoResizeCheck();
  if (options_.adaptive.enabled) DriftCheck(events_at_sample, wm_at_sample);
}

void StreamSession::AutoResizeCheck() {
  ResizeSignal signal;
  signal.current_shards = live_->executor.num_shards();
  signal.ring_occupancy = live_->executor.RingOccupancy();
  ring_occupancy_gauge_->Set(signal.ring_occupancy);
  if (options_.auto_resize.target_rate_per_shard > 0.0 &&
      rate_.has_observations()) {
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
      (target > current &&
       live_->shared.PredictedResizeGain(current, target,
                                         options_.num_keys) <= 1.0)) {
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
  if (cross_) return;  // One crossover at a time.
  if (!rate_.has_observations()) return;
  const double eta_hat = rate_.rate();
  const double planned_eta = options_.optimizer.eta;
  if (eta_hat <= 0.0 || planned_eta <= 0.0) return;
  const double ratio = eta_hat > planned_eta ? eta_hat / planned_eta
                                             : planned_eta / eta_hat;
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
  std::vector<LiveQuery*> live;
  queries.reserve(queries_.size());
  live.reserve(queries_.size());
  for (const auto& q : queries_) {
    queries.push_back(q->query);
    live.push_back(q.get());
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
  ++counters_.drift_replans;
  drift_replans_counter_->Increment(0);

  if (PlansStructurallyEqual(live_->shared.plan, shared->plan)) {
    // Same operators, new pricing: adopt the observed-η costing in place.
    // No executor swap, no state movement — results are trivially
    // unchanged.
    live_->shared.shared_cost = shared->shared_cost;
    live_->shared.independent_cost = shared->independent_cost;
    live_->shared.original_cost = shared->original_cost;
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
  // owned instance starts at C - 1 at the latest. The new pipeline starts
  // cold by construction — every instance it may emit opens at or after
  // the cutover, so there is no state worth migrating — and its late
  // events are muted: its late set is a subset of the old's (a younger
  // reorder clock only accepts more), so counting or side-outputting
  // them would duplicate while both run.
  const TimeT cutover = wm_at_sample + 1;
  std::unique_ptr<Pipeline> next =
      NewPipeline(std::move(*shared), queries, live, nullptr);
  next->gate.set_min_start(cutover);
  live_->gate.set_max_start(cutover);  // Old pipeline: pre-cutover era only.
  live_->retire_at = cutover - 1 + MaxRange(live_->shared.plan);
  cross_ = std::move(live_);
  live_ = std::move(next);
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
  ShardedExecutor& old = cross_->executor;
  // Joins workers and delivers anything still buffered. All pre-cutover
  // instances have closed canonically by now (their ends precede the
  // release watermark), and post-cutover flushes are suppressed by the
  // old gate — the new pipeline owns and already emitted that era.
  old.Finish();
  BankWork(old);
  // The session's late tally must read as one pipeline's: the live
  // executor's counter includes warm-up lates the old pipeline also
  // counted, so bank only the old pipeline's surplus over it. (The new
  // clock starts younger, so its late set — and count — is a subset.)
  const uint64_t old_late = old.late_events();
  const uint64_t new_late = live_->executor.late_events();
  counters_.retired_late += old_late > new_late ? old_late - new_late : 0;
  counters_.retired_reorder_peak =
      std::max(counters_.retired_reorder_peak, old.reorder_buffer_peak());
  metrics_.RecordTrace(telemetry::TraceKind::kCrossoverDone, 0,
                       static_cast<int64_t>(old.TotalAccumulateOps()));
  cross_.reset();
  // The surviving pipeline takes over late accounting and side outputs.
  live_->executor.set_late_sink(options_.late_callback);
}

Status StreamSession::CancelCrossover() {
  // Flush the new (gated) executor's canonical closes: its gate passes
  // exactly the start >= cutover era it alone owns, and that emission
  // set provably equals what the old pipeline's gate is suppressing —
  // so delivering it here, before the old pipeline's own checkpoint,
  // keeps the merged output a single static pipeline's (DESIGN.md §15).
  Result<ExecutorCheckpoint> flushed = live_->executor.Checkpoint();
  if (!flushed.ok()) return flushed.status();
  BankWork(live_->executor);
  // The old pipeline ingested the whole stream, so its state is exactly
  // a static session's. The move destroys the new pipeline. The restored
  // gate keeps max_start = cutover: the caller (Rebuild) checkpoints
  // immediately, and the start >= cutover closes that checkpoint flushes
  // were already delivered above.
  live_ = std::move(cross_);
  live_->executor.set_late_sink(options_.late_callback);
  return Status::OK();
}

Status StreamSession::AdmissionCause(TimeT timestamp, uint32_t key,
                                     TimeT newest) const {
  if (timestamp < 0) {
    // Window instances start at 0, so the engine would fold such an event
    // into no window at all.
    return Status::OutOfRange("timestamp " + std::to_string(timestamp) +
                              " is negative: event time starts at 0");
  }
  if (options_.max_delay == 0 && timestamp < newest) {
    return Status::InvalidArgument(
        "out-of-order event: timestamp " + std::to_string(timestamp) +
        " behind watermark " + std::to_string(newest));
  }
  return Status::OutOfRange("event key " + std::to_string(key) +
                            " outside key space [0, " +
                            std::to_string(options_.num_keys) + ")");
}

Status StreamSession::Push(const Event& event) {
  session_role_.AssertHeld();  // Public entry: caller thread only.
  FW_RETURN_IF_ERROR(CheckMutable());
  TimeT& watermark = counters_.watermark;
  if (!Admissible(event.timestamp, event.key, watermark)) {
    return IngestStopped(0, event.timestamp,
                         AdmissionCause(event.timestamp, event.key, watermark));
  }
  // Write-ahead: the event reaches the changelog before it mutates any
  // session state, so a crash between the two replays it instead of
  // losing it.
  if (options_.durability.enabled) {
    Status logged = DurableAppend(event);
    if (!logged.ok()) return IngestStopped(0, event.timestamp, logged);
  }
  if (event.timestamp > watermark) watermark = event.timestamp;
  ++counters_.events_pushed;
  events_pushed_counter_->Increment(0);
  // Event-time lag behind the newest timestamp seen: 0 when in order,
  // the disorder distribution otherwise (late events land past
  // max_delay). Two relaxed adds and a bit_width — no clock read.
  watermark_lag_hist_->Record(
      0, static_cast<uint64_t>(watermark - event.timestamp));
  if (!live_) {
    ++counters_.events_dropped;
    events_dropped_counter_->Increment(0);
    return Status::OK();
  }
  // Dual-push during a crossover, outgoing pipeline first (it owns the
  // earlier result era, and both routers feed the same sinks).
  if (cross_) cross_->executor.Push(event);
  live_->executor.Push(event);
  if (Monitored() && ++events_since_sample_ >= options_.monitor_interval) {
    events_since_sample_ = 0;
    Sample(counters_.events_pushed, watermark);
  }
  MaybeCompleteCrossover(watermark);
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
  if (count == 0) {
    push_batch_size_hist_->Record(0, 0);
    return Status::OK();
  }

  // In-batch positions where the monitor cadence crosses. Recording the
  // position *and* the running watermark lets the samples below run with
  // the exact stream position scalar Push would have seen — and carrying
  // the counter remainder (instead of sampling at most once per batch)
  // keeps the cadence identical across batch boundaries, so scalar and
  // columnar ingestion of one stream make the same decisions at the same
  // events.
  struct SamplePoint {
    size_t index;  // Event index within this batch.
    TimeT wm;      // Watermark after accepting that event.
  };
  std::vector<SamplePoint> samples;
  const bool monitored = live_ && Monitored();
  uint64_t streak = events_since_sample_;

  // Find the acceptable prefix under the ingestion contract — Push's
  // admission rules, applied against a local watermark so nothing is
  // committed past the first rejection. Per-event telemetry (the
  // watermark-lag distribution) records exactly as per-event Push would.
  size_t accepted = count;
  TimeT advanced = counters_.watermark;
  for (size_t i = 0; i < count; ++i) {
    const TimeT timestamp = columns.timestamps[i];
    if (!Admissible(timestamp, columns.keys[i], advanced)) {
      accepted = i;
      break;
    }
    if (timestamp > advanced) advanced = timestamp;
    watermark_lag_hist_->Record(0, static_cast<uint64_t>(advanced - timestamp));
    if (monitored && ++streak >= options_.monitor_interval) {
      streak = 0;
      samples.push_back({i, advanced});
    }
  }

  // Write-ahead for the whole accepted prefix, as one changelog record,
  // before any of it mutates session state. An append failure rejects
  // the entire batch (index 0): nothing was applied, so the caller's
  // resume position is the batch start — consistent with the contract.
  if (options_.durability.enabled && accepted > 0) {
    Status logged = DurableAppendColumns(columns, accepted);
    if (!logged.ok()) {
      push_batch_size_hist_->Record(0, 0);
      return IngestStopped(0, columns.timestamps[0], logged);
    }
  }
  push_batch_size_hist_->Record(0, accepted);

  // Apply the accepted prefix (possibly the whole batch).
  const uint64_t events_before = counters_.events_pushed;
  counters_.watermark = advanced;
  counters_.events_pushed += accepted;
  events_pushed_counter_->Add(0, accepted);
  if (monitored) events_since_sample_ = streak;
  if (!live_) {
    counters_.events_dropped += accepted;
    events_dropped_counter_->Add(0, accepted);
  } else if (samples.empty() && !cross_ && accepted == count) {
    live_->executor.PushColumns(columns);  // Hot path: one hand-off.
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
        if (cross_) cross_->executor.PushColumns(columns);
        live_->executor.PushColumns(columns);
      } else {
        const EventColumns segment = SliceColumns(columns, begin, end);
        if (cross_) cross_->executor.PushColumns(segment);
        live_->executor.PushColumns(segment);
      }
      if (sample) {
        Sample(events_before + sample->index + 1, sample->wm);
        // The *running* watermark, not the committed full-batch one:
        // completing against the latter could retire the old pipeline
        // while later rows in this batch still belong to its era.
        MaybeCompleteCrossover(sample->wm);
        ++next_sample;
      }
      begin = end;
    }
  }
  if (live_ && accepted > 0) MaybeCompleteCrossover(counters_.watermark);
  if (durability_) MaybeSnapshot();
  if (accepted == count) return Status::OK();
  const TimeT timestamp = columns.timestamps[accepted];
  return IngestStopped(
      accepted, timestamp,
      AdmissionCause(timestamp, columns.keys[accepted], advanced));
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
  if (live_) live_->executor.Finish();
  // A finished executor's rings are drained and its workers joined; the
  // occupancy gauge reads 0, like the idle-retire path.
  ring_occupancy_gauge_->Set(0.0);
  // One final snapshot (finished flag set, no executor checkpoint — the
  // windows all flushed above), so recovering a finished session is a
  // snapshot load with an empty replay. It is written synchronously, and
  // no write is left in flight after Finish even on a failed session.
  if (durability_) {
    if (durability_error_.ok()) durability_error_ = BeginDurableSnapshot();
    Status written = durability_->Settle();
    if (durability_error_.ok()) durability_error_ = written;
  }
  return durability_error_;
}

const QueryPlan* StreamSession::shared_plan() const {
  session_role_.AssertHeld();  // Public entry: caller thread only.
  return live_ ? &live_->shared.plan : nullptr;
}

Result<std::string> StreamSession::Explain(QueryId id) const {
  session_role_.AssertHeld();  // Public entry: caller thread only.
  size_t index = FindQuery(id);
  if (index == queries_.size()) {
    return Status::NotFound("no query with id " + std::to_string(id));
  }
  FW_CHECK(live_ != nullptr);
  const MultiQueryOptimizer::SharedPlan& shared = live_->shared;
  const LiveQuery& live = *queries_[index];

  std::string out = "query " + std::to_string(id) + ": " +
                    live.query.ToSql() + "\nsubscriptions:\n";
  for (const MultiQueryOptimizer::Subscription& sub : shared.subscriptions) {
    if (sub.query_index != static_cast<int>(index)) continue;
    out += "  " + sub.window.ToString() + " <- shared operator " +
           std::to_string(sub.plan_operator) + " [" +
           shared.plan.op(sub.plan_operator).label + "]\n";
  }
  out += "shared plan (" + std::to_string(shared.plan.num_operators()) +
         " operators serving " + std::to_string(queries_.size()) +
         " queries):\n" + ToSummary(shared.plan);
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
  if (live_) {
    const std::vector<RuntimeProfile::OperatorProfile> counters =
        live_->executor.Counters();
    // Subscribed operators plus everything upstream of them: the whole
    // provider chain works for this query. Chains overlap, so collect
    // before summing.
    std::vector<bool> attributed(counters.size(), false);
    for (const MultiQueryOptimizer::Subscription& sub :
         live_->shared.subscriptions) {
      if (sub.query_index != static_cast<int>(index)) continue;
      int cursor = sub.plan_operator;
      while (cursor >= 0 && !attributed[static_cast<size_t>(cursor)]) {
        attributed[static_cast<size_t>(cursor)] = true;
        cursor = live_->shared.plan.op(cursor).parent;
      }
    }
    for (size_t i = 0; i < counters.size(); ++i) {
      if (attributed[i]) stats.attributed_ops += counters[i].accumulate_ops;
    }
  }
  return stats;
}

StreamSession::SessionStats StreamSession::Stats() const {
  session_role_.AssertHeld();  // Public entry: caller thread only.
  // At rest: wait for the in-flight group commit and snapshot write so
  // the durability tallies (and the files) are exact. A failure stays
  // with the manager until the next mutation latches it.
  if (durability_) (void)durability_->Settle();
  SessionStats stats = BuildStats();
  // Crossover double-processing is real work, so it counts: both
  // pipelines' ops while one is in flight.
  stats.lifetime_ops = counters_.retired_ops;
  for (const Pipeline* pipeline : {cross_.get(), live_.get()}) {
    if (pipeline == nullptr) continue;
    stats.lifetime_ops += pipeline->executor.TotalAccumulateOps();
  }
  return stats;
}

StreamSession::SessionStats StreamSession::BuildStats() const {
  SessionStats stats;
  stats.live_queries = queries_.size();
  stats.events_pushed = counters_.events_pushed;
  stats.events_dropped = counters_.events_dropped;
  stats.replans = static_cast<int>(counters_.replans);
  stats.operators_migrated = last_migrated_;
  stats.operators_cold = last_cold_;
  stats.last_replan_seconds = last_replan_seconds_;
  stats.num_shards = live_ ? live_->executor.num_shards()
                           : EffectiveShards(options_.num_shards,
                                             options_.num_keys);
  stats.resize_count = counters_.resize_count;
  stats.last_resize_ns = last_resize_ns_;
  if (live_) {
    stats.events_per_shard = live_->executor.EventsPerShard();
    stats.ring_occupancy = live_->executor.RingOccupancy();
  }
  // During a crossover the *old* pipeline carries the session's
  // event-time identity: it runs the original reorder clock, so its
  // lates, buffer depth, and watermark are what a static session
  // reports; the new pipeline's reorder stage is a muted warm-up.
  const Pipeline* clock = cross_ ? cross_.get() : live_.get();
  stats.late_events =
      counters_.retired_late + (clock ? clock->executor.late_events() : 0);
  stats.reorder_buffered = clock ? clock->executor.reorder_buffered() : 0;
  stats.reorder_buffer_peak =
      std::max(counters_.retired_reorder_peak,
               clock ? clock->executor.reorder_buffer_peak() : 0);
  if (options_.max_delay == 0) {
    stats.current_watermark = counters_.watermark;
  } else {
    stats.current_watermark =
        clock ? clock->executor.current_watermark()
              : counters_.retired_watermark;
  }
  if (live_) {
    const MultiQueryOptimizer::SharedPlan& shared = live_->shared;
    stats.shared_cost = shared.shared_cost;
    stats.original_cost = shared.original_cost;
    stats.independent_cost = shared.independent_cost;
    stats.predicted_boost = shared.PredictedBoost();
    stats.predicted_savings = shared.PredictedSavings();
    stats.predicted_shard_boost =
        shared.PredictedShardBoost(options_.num_shards, options_.num_keys);
    stats.sharded_cost =
        shared.ShardedCost(options_.num_shards, options_.num_keys);
  }
  stats.observed_eta = rate_.has_observations() ? rate_.rate() : 0.0;
  stats.planned_eta = options_.optimizer.eta;
  stats.drift_replans = static_cast<int>(counters_.drift_replans);
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
  // Never waits for a group commit or a snapshot write: the durability
  // tallies are those of the last completed ones.
  if (durability_) (void)durability_->Reap();
  SessionMetrics metrics;
  metrics.stats = BuildStats();

  // Per-operator breakdown of the current topology — during a crossover,
  // the live (new-plan) pipeline — plus the session totals, which also
  // count the outgoing pipeline's (its ops too, as Stats() does). Each
  // executor synchronizes once, so the counts are exact at this instant;
  // they are cumulative across Resize but restart at each replan (new
  // plan, new operators).
  metrics.stats.lifetime_ops = counters_.retired_ops;
  uint64_t closes_total = counters_.retired_closes_total;
  uint64_t finalizes_total = counters_.retired_finalizes_total;
  for (const Pipeline* pipeline : {cross_.get(), live_.get()}) {
    if (pipeline == nullptr) continue;
    for (const RuntimeProfile::OperatorProfile& op :
         pipeline->executor.Counters()) {
      metrics.stats.lifetime_ops += op.accumulate_ops;
      closes_total += op.closed_instances;
      finalizes_total += op.finalized_results;
      if (pipeline == live_.get()) {
        metrics.operators.push_back(
            {op, live_->shared.plan.op(op.operator_id).label});
      }
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
  // Every mutation reaps a finished group commit and snapshot writer
  // (one atomic load each while they run), so a failed fsync or write
  // fail-stops the session at the first call after it completes.
  durability_error_ = durability_->Reap();
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
  durability::SnapshotMeta& meta = contents.meta;
  static_cast<durability::SessionCounters&>(meta) = counters_;
  meta.covered_events = counters_.events_pushed;
  meta.num_keys = options_.num_keys;
  meta.max_delay = options_.max_delay;
  meta.late_policy = static_cast<uint8_t>(options_.late_policy);
  meta.finished = finished_ ? 1 : 0;
  meta.planned_eta = options_.optimizer.eta;
  contents.queries.reserve(queries_.size());
  for (const auto& q : queries_) {
    contents.queries.push_back({q->id, q->query});
  }
  // The checkpoint travels unserialized: serializing is the writer's job.
  std::optional<ExecutorCheckpoint> checkpoint;
  if (live_ && !finished_) {
    // Canonical merged checkpoint: CloseThrough-canonicalized, shard
    // counts merged into the global view — a pure function of the
    // delivered stream, which is what makes recovery bitwise exact.
    Result<ExecutorCheckpoint> taken = live_->executor.Checkpoint();
    if (!taken.ok()) return taken.status();
    metrics_.RecordTrace(telemetry::TraceKind::kCheckpoint,
                         MonotonicNanos() - started_ns,
                         static_cast<int64_t>(taken->operators.size()));
    checkpoint = std::move(*taken);
  }
  return durability_->BeginSnapshot(std::move(contents),
                                    std::move(checkpoint), started_ns);
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
      counters_.next_id = id;  // Replayed queries keep their original ids.
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

Status StreamSession::InstallSnapshot(
    const durability::SnapshotContents& contents,
    const CallbackFactory& callbacks) {
  // Every query passes AddQuery's checks, then one Rebuild plans and
  // builds them all: Reoptimize is a pure function of the ordered query
  // list, so this is the plan the last of one AddQuery per query would
  // build, without the intermediate ones.
  std::vector<std::unique_ptr<LiveQuery>> installed;
  std::vector<LiveQuery*> live;
  installed.reserve(contents.queries.size());
  live.reserve(contents.queries.size());
  for (const durability::SnapshotQuery& snap_query : contents.queries) {
    Status checked = CheckJoinable(
        snap_query.query,
        installed.empty() ? nullptr : &installed.front()->query);
    if (!checked.ok()) {
      return Status(checked.code(), "recovery could not re-install query " +
                                        std::to_string(snap_query.id) +
                                        ": " + checked.message());
    }
    auto query = std::make_unique<LiveQuery>();
    query->id = snap_query.id;  // Ids survive recovery.
    query->query = snap_query.query;
    if (callbacks) query->callback = callbacks(snap_query.id, snap_query.query);
    live.push_back(query.get());
    installed.push_back(std::move(query));
  }
  if (!live.empty()) {
    Status built = Rebuild(live);
    if (!built.ok()) {
      return Status(built.code(),
                    "recovery could not re-install the snapshot's queries: " +
                        built.message());
    }
  }
  queries_ = std::move(installed);

  if (contents.has_checkpoint) {
    if (live_ == nullptr) {
      return Status::InvalidArgument(
          "snapshot carries an executor checkpoint but no queries");
    }
    Result<ExecutorCheckpoint> checkpoint =
        ExecutorCheckpoint::Deserialize(contents.checkpoint);
    if (!checkpoint.ok()) {
      return Status(checkpoint.status().code(),
                    "snapshot checkpoint rejected: " +
                        checkpoint.status().message());
    }
    Status restored = live_->executor.Restore(*checkpoint);
    if (!restored.ok()) {
      return Status(restored.code(),
                    "snapshot checkpoint rejected: " + restored.message());
    }
  }

  // Overwrite the counters the install advanced with the snapshot's
  // values; replay advances them naturally from here. The plan's η came
  // with the options (Recover builds at the snapshot's planned η).
  const durability::SnapshotMeta& meta = contents.meta;
  counters_ = static_cast<const durability::SessionCounters&>(meta);
  if (meta.finished) finished_ = true;
  return Status::OK();
}

Result<StreamSession::RecoveryInfo> StreamSession::Recover(
    std::string_view dir, Options options, const CallbackFactory& callbacks) {
  const uint64_t started_ns = MonotonicNanos();
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
  std::optional<durability::SegmentTail> newest;
  FW_RETURN_IF_ERROR(durability::ReadChangelog(
      options.durability.dir, start_seq, &records, &newest));
  const uint64_t next_seq =
      records.empty() ? start_seq : records.back().seq + 1;
  const uint64_t loaded_ns = MonotonicNanos();

  // Build with durability off — replay must not re-log the changelog —
  // and at the snapshot's planned η: the optimizer is deterministic, so
  // re-optimizing the snapshot's query set at that η reproduces the
  // checkpointed plan structure, and the executor Restore lands on
  // matching operators.
  Options replay_options = options;
  replay_options.durability = {};
  if (loaded->found) replay_options.optimizer.eta = meta.planned_eta;
  auto session = std::make_unique<StreamSession>(replay_options);
  session->session_role_.AssertHeld();  // Constructed on this thread.

  RecoveryInfo info;
  info.snapshots_skipped = loaded->skipped;

  const uint64_t install_ns = MonotonicNanos();
  if (loaded->found) {
    info.snapshot_events = meta.covered_events;
    FW_RETURN_IF_ERROR(session->InstallSnapshot(loaded->contents, callbacks));
  }
  const uint64_t installed_ns = MonotonicNanos();

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
  const uint64_t replayed_ns = MonotonicNanos();

  // Resume durable logging where the crashed run stopped: the newest
  // segment continues after its last whole record (a torn tail is cut),
  // or a fresh one opens at next_seq. Then a snapshot of the recovered
  // state takes the periodic path: the resumed segment is fsynced
  // before the roll demotes it — so it is never tearable — and the
  // background writer publishes and truncates. A crash before the
  // publish recovers from the previous snapshot and replays the same
  // suffix again; one after it recovers from this snapshot. A failed
  // snapshot latches, fail-stopping the session at its first mutation,
  // as a periodic one does.
  session->options_.durability = options.durability;
  session->options_.durability.enabled = true;
  Result<std::unique_ptr<durability::DurabilityManager>> manager =
      durability::DurabilityManager::Attach(session->options_.durability,
                                            next_seq, newest,
                                            &session->metrics_);
  if (!manager.ok()) return manager.status();
  session->durability_ = std::move(*manager);
  session->durability_error_ = session->BeginDurableSnapshot();
  const uint64_t handed_off_ns = MonotonicNanos();

  telemetry::MetricsRegistry& metrics = session->metrics_;
  metrics.GetHistogram("durability.recovery_load_ns")
      ->Record(0, loaded_ns - started_ns);
  metrics.GetHistogram("durability.recovery_install_ns")
      ->Record(0, installed_ns - install_ns);
  metrics.GetHistogram("durability.recovery_replay_ns")
      ->Record(0, replayed_ns - installed_ns);
  metrics.GetHistogram("durability.recovery_handoff_ns")
      ->Record(0, handed_off_ns - replayed_ns);
  metrics.RecordTrace(telemetry::TraceKind::kRecovery,
                      MonotonicNanos() - started_ns,
                      static_cast<int64_t>(info.replayed_records),
                      info.snapshots_skipped);
  info.durable_events = session->counters_.events_pushed;
  info.recovered_queries = session->queries_.size();
  info.session = std::move(session);
  return info;
}

RuntimeProfile StreamSession::Profile() const {
  session_role_.AssertHeld();  // Public entry: caller thread only.
  RuntimeProfile profile;
  if (rate_.has_observations()) profile.observed_eta = rate_.rate();
  if (live_) {
    const std::vector<uint64_t> per_shard = live_->executor.EventsPerShard();
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
    profile.operators = live_->executor.Counters();
  }
  return profile;
}

}  // namespace fw
