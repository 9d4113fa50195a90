#ifndef FW_SESSION_SESSION_H_
#define FW_SESSION_SESSION_H_

#include <cstdint>
#include <functional>
#include <limits>
#include <memory>
#include <optional>
#include <string_view>
#include <vector>

#include "adaptive/adaptive.h"
#include "adaptive/resize_policy.h"
#include "common/mutex.h"
#include "common/status.h"
#include "cost/runtime_profile.h"
#include "durability/options.h"
#include "exec/columns.h"
#include "exec/event.h"
#include "multi/multi_query.h"
#include "query/builder.h"
#include "query/query.h"
#include "runtime/sharded_executor.h"
#include "telemetry/metrics.h"

namespace fw {

namespace durability {
class DurabilityManager;
struct SnapshotContents;
struct WalRecord;
}  // namespace durability

/// Stable handle for one query registered with a StreamSession. Ids are
/// assigned once and never reused within a session.
using QueryId = uint64_t;

/// The library's front door for the paper's motivating scenario (§I): a
/// long-lived population of multi-window aggregate queries over one event
/// stream, arriving and departing while the stream flows. A StreamSession
/// owns the whole pipeline — parse/build, joint (multi-query) cost-based
/// optimization, shared-plan execution, and per-query result routing — so
/// callers never wire ParseQuery/MultiQueryOptimizer/PlanExecutor/
/// RoutingSink by hand:
///
///   StreamSession session({.num_keys = 4});
///   QueryId dash = session
///                      .AddQuery(Query().Min("temp").From("telemetry")
///                                    .PerKey("device").Tumbling(20),
///                                [](const WindowResult& r) { ... })
///                      .value();
///   session.Push({.timestamp = 3, .key = 1, .value = 21.5});
///   session.RemoveQuery(dash);
///
/// ## Dynamic query add/remove and state-preserving re-optimization
///
/// AddQuery/RemoveQuery may be called on a live session, mid-stream. Each
/// call re-runs the shared-plan optimizer over the updated query set
/// (MultiQueryOptimizer::Reoptimize) and swaps in a new executor. Operator
/// state migrates across the swap by *lineage* (the operator's provider
/// window chain, plan/OperatorLineages):
///
///  * operators whose lineage survives the replan keep their in-flight
///    partial aggregates and cursors exactly (their provider chain is
///    unchanged, so resumption is exact: every later result equals what an
///    unchanged session — or a fresh session fed the whole stream — would
///    emit);
///  * operators that are new, or whose provider chain changed, start cold:
///    their window instances already open at the swap only reflect
///    post-swap events, so results for windows straddling the swap are
///    partial. Windows opening at or after the swap are exact.
///
/// Removing a query immediately drops its subscriptions; its in-flight
/// windows never emit. State of operators still serving other queries is
/// retained. All queries of a session must read the same source stream and
/// use the same shareable (non-holistic) aggregate — the IoT-dashboard
/// shape the multi-query optimizer supports; holistic queries (MEDIAN) are
/// rejected at AddQuery.
///
/// ## Sharded parallel execution
///
/// With Options::num_shards > 1 the session executes its shared plan on
/// the sharded runtime (runtime/ShardedExecutor): events are
/// hash-partitioned by grouping key across worker threads, each running a
/// private engine over its key slice, and results are merged back — on
/// the caller's thread, so callbacks never run concurrently — in
/// deterministic (window end, start, operator, key) order. The delivered
/// result multiset is bitwise identical to a num_shards = 1 session
/// across churn, replans, and Finish; only delivery timing changes
/// (buffered results arrive at drain points: periodically, and on every
/// replan and Finish — stats reads synchronize the counters but deliver
/// nothing). Replans stay state-preserving: shard checkpoints
/// merge into the global view, migrate by lineage as below, and split
/// back across shards. The shard count is capped at num_keys — a keyless
/// session cannot parallelize — and the default (1) runs the
/// single-threaded engine inline, exactly as before.
///
/// ## Out-of-order ingestion (event time under bounded lateness)
///
/// By default sessions are strict: Push rejects any timestamp regression.
/// Real traces are disordered, so Options::max_delay > 0 switches the
/// session to bounded-lateness event time (DESIGN.md §9): events may
/// arrive up to max_delay time units behind the newest timestamp seen.
/// They are buffered in per-shard reorder stages and released into the
/// engines in (timestamp, arrival) order as the watermark — newest
/// timestamp minus max_delay — passes them; Finish drains the buffers
/// before finalizing any window. A stream whose disorder stays within
/// max_delay therefore produces results identical to the same stream
/// sorted (bitwise, when timestamps are distinct), at any shard count.
///
/// An event older than the watermark on arrival is *late*: it is never
/// aggregated, and Options::late_policy decides whether it is counted and
/// dropped or also handed to Options::late_callback (a side output, on
/// the Push thread). SessionStats reports late_events, the reorder-buffer
/// depth and peak, and the current watermark. Replans checkpoint the
/// in-flight buffers with the operator state, so churn under disorder
/// stays exact; a session that goes idle (last query removed) discards
/// buffered events with the pipeline — they had no subscribers — and
/// restarts its event-time clock on revival.
///
/// ## Online elasticity (live shard re-scaling)
///
/// Resize(n) re-scales a live sharded session in place (DESIGN.md §10):
/// the executor quiesces, merges every shard's checkpoint into the global
/// view (window state, in-flight reorder buffers, the event-time clock,
/// and all cumulative counters), and re-splits it across the new shard
/// count. The handoff is *exact*: from the resize point onward the
/// session emits bitwise what a session that ran at the target width from
/// the start would emit — no result is dropped, duplicated, or reordered,
/// and churn replans and bounded-lateness disorder keep working across
/// the swap. Options::auto_resize turns on a load monitor that samples
/// the hand-off ring occupancy every few thousand events and re-scales
/// within [min_shards, max_shards] automatically; because resizes are
/// exact, *when* they trigger never affects results.
///
/// Sessions are push-based and driven from one caller thread; with
/// max_delay = 0 events must arrive in non-decreasing timestamp order
/// across the whole session lifetime. That single-caller-thread contract
/// is annotated (DESIGN.md §12): all session state is FW_GUARDED_BY the
/// caller thread's role, so under Clang `-Wthread-safety` any code path
/// that touches it without being pinned to that thread fails to compile.
class StreamSession {
 public:
  /// Per-query result delivery. Results carry the window interval, group
  /// key, and final value; operator_id is rewritten to the window's
  /// position within the query's own window set (0-based), exactly like
  /// RoutingSink.
  using ResultCallback = std::function<void(const WindowResult&)>;

  /// Side output for late events (see LatePolicy::kSideOutput): called on
  /// the Push thread, in arrival order.
  using LateEventCallback = std::function<void(const Event&)>;

  /// What happens to an event that arrives behind the watermark. Only
  /// reachable with Options::max_delay > 0 — a strict-order session
  /// rejects out-of-order events at Push instead.
  enum class LatePolicy {
    kDrop,        // Count in SessionStats::late_events and discard.
    kSideOutput,  // Count, then hand to Options::late_callback.
  };

  /// Load-driven shard re-scaling (see the class comment). The monitor
  /// runs on the Push thread: every check_interval accepted events it
  /// samples the executor and asks the blended ResizePolicy
  /// (adaptive/resize_policy.h) for a target width. Two signals blend
  /// per sample:
  ///
  ///  * worst-shard SPSC ring occupancy (in-flight batches / ring
  ///    capacity) — the legacy signal: scale up at scale_up_occupancy,
  ///    count toward a scale-down at scale_down_occupancy;
  ///  * the observed event rate η̂ (events per event-time unit, EWMA —
  ///    AdaptiveOptions::rate_alpha), enabled by a non-zero
  ///    target_rate_per_shard: scale up when η̂ exceeds target × current
  ///    shards, allow a scale-down only when the halved topology would
  ///    still absorb η̂. Event-time based, so the signal replays
  ///    deterministically.
  ///
  /// Occupancy alone cannot see load from inline (1-shard) mode — there
  /// are no rings there — so the occupancy-only monitor never scales
  /// below 2 shards. With a rate target configured, the throughput
  /// signal stays measurable at 1 shard, and the monitor can scale down
  /// into inline mode and back out again. Scale-downs need
  /// scale_down_checks consecutive cold samples (hysteresis: scale up
  /// fast, down slowly); any vetoed proposal — width no-op (keyless
  /// plans), predicted-gain rejection (SharedPlan::PredictedResizeGain),
  /// resize failure — resets the streak so a hopeless resize backs off
  /// instead of re-firing every sample. A session whose width lies
  /// outside [min_shards, max_shards] is clamped back into range through
  /// the same guards. Because resizes are exact, *when* they trigger
  /// never affects results; every automatic resize counts in
  /// SessionStats::resize_count, exactly like an explicit Resize.
  struct AutoResizeOptions {
    bool enabled = false;
    uint32_t min_shards = 1;
    uint32_t max_shards = 8;
    /// Accepted events between monitor samples.
    uint64_t check_interval = 8192;
    double scale_up_occupancy = 0.5;
    double scale_down_occupancy = 0.02;
    /// Consecutive low samples required before scaling down (hysteresis:
    /// scale up fast, down slowly).
    int scale_down_checks = 4;
    /// Events per event-time unit one shard is expected to absorb; a
    /// non-zero value turns on the throughput signal (0 keeps the legacy
    /// occupancy-only monitor, which never scales below 2 shards).
    double target_rate_per_shard = 0.0;
  };

  /// Runtime-adaptive re-optimization (DESIGN.md §15): the session
  /// estimates the observed event rate η̂ (an EWMA over event time, fed
  /// every check_interval accepted events) and, when it drifts a factor
  /// of reoptimize_ratio away from the η the current shared plan was
  /// costed with, re-runs MultiQueryOptimizer::Reoptimize at η̂ — the
  /// paper's §VI dynamic cost estimates, closed mid-stream. A replan
  /// that keeps the plan structure adopts the new costing in place; one
  /// that changes it (lower rates evict factor windows, higher rates
  /// reinstate them) switches over through a bounded dual-pipeline
  /// crossover that keeps emitted results bitwise identical to a
  /// static-plan session: the outgoing pipeline finishes every window
  /// instance that opened before the cutover while the new pipeline —
  /// result-gated to instances opening at or after it — warms up on the
  /// same events, and the old pipeline retires once the watermark passes
  /// the last straddling instance. Later query churn keeps working (a
  /// churn replan first folds an in-flight crossover back into one
  /// pipeline, exactly). Drift replans count in
  /// SessionStats::drift_replans, never in `replans`.
  struct AdaptiveOptions {
    bool enabled = false;
    /// EWMA weight of the newest rate observation, in (0, 1]. The one
    /// rate estimator is shared with the auto-resize throughput signal.
    double rate_alpha = 0.3;
    /// Accepted events between drift checks.
    uint64_t check_interval = 8192;
    /// Re-optimize when η̂ and the planned η differ by at least this
    /// factor, in either direction.
    double reoptimize_ratio = 2.0;
    /// Replan cooldown in accepted events — bounds replan churn (and the
    /// cost of crossover double-processing) while the estimate settles.
    /// Also gates the *first* drift replan, giving the EWMA a warm-up.
    uint64_t min_events_between_replans = 65536;
  };

  struct Options {
    /// Size of the grouping-key space; events must use keys below this.
    uint32_t num_keys = 1;
    /// Key-partitioned execution shards (see the class comment). 1 (the
    /// default) runs the single-threaded engine inline — today's path —
    /// while k > 1 spawns min(k, num_keys) worker threads.
    uint32_t num_shards = 1;
    /// Bounded event-time disorder (see the class comment): accept events
    /// arriving up to this many time units behind the newest timestamp
    /// seen. 0 (the default) is strict-order ingestion — today's
    /// behavior, byte for byte.
    TimeT max_delay = 0;
    /// Disposition of late events (max_delay > 0 only).
    LatePolicy late_policy = LatePolicy::kDrop;
    /// Receives each late event under LatePolicy::kSideOutput; null means
    /// late events are only counted.
    LateEventCallback late_callback = nullptr;
    /// Load-driven shard re-scaling; off by default (the shard count
    /// only changes via explicit Resize calls).
    AutoResizeOptions auto_resize = {};
    /// Feedback-driven re-optimization; off by default (the shared plan
    /// only changes via AddQuery/RemoveQuery).
    AdaptiveOptions adaptive = {};
    /// Knobs forwarded to the cost-based optimizer on every (re)plan.
    OptimizerOptions optimizer = {};
    /// Also compute the independently-optimized per-query cost baseline on
    /// every replan (one extra optimizer run per query), so
    /// Stats().predicted_savings is meaningful. Off by default: replan
    /// latency is on the serving path.
    bool track_baseline = false;
    /// Crash durability (DESIGN.md §16); off by default. When enabled,
    /// every admitted event batch and every query add/remove is appended
    /// (write-ahead) to a CRC-framed changelog in `durability.dir`, group-
    /// committed under `durability.fsync_policy`, and a full canonical
    /// snapshot is published every `snapshot_interval_events` admitted
    /// events — truncating the changelog it covers. The snapshot is taken
    /// on the caller thread and written by a background writer (at most
    /// one in flight). After a crash, StreamSession::Recover rebuilds the
    /// session from the newest valid snapshot plus a changelog replay.
    /// Durability is fail-stop: the first append/snapshot error latches,
    /// and every later ingest or churn call returns it instead of letting
    /// memory and disk diverge. A failed background write latches at the
    /// first such call after it completes.
    DurabilityOptions durability = {};
  };

  /// Per-query measurements.
  struct QueryStats {
    /// Window results delivered to this query: the number of callback
    /// invocations, or with a null callback the results that would have
    /// been delivered (see AddQuery).
    uint64_t results_delivered = 0;
    /// Engine accumulate/merge ops of the shared-plan operators this query
    /// subscribes to — the per-query attribution of PerOperatorOps. An
    /// operator shared by several queries counts fully for each, so the
    /// sum over queries can exceed total ops (that overlap *is* the
    /// sharing).
    uint64_t attributed_ops = 0;
  };

  /// Session-wide measurements.
  ///
  /// Counter lifecycle contract: counters documented as *cumulative*
  /// (events_pushed, events_dropped, replans, lifetime_ops, late_events,
  /// reorder_buffer_peak, resize_count) cover the whole session lifetime
  /// — they never reset and are never double-counted across executor
  /// swaps, whether the swap is a churn replan, a Resize, or an
  /// idle-retire/revive cycle (the regression tests in
  /// tests/elasticity_test.cc pin this). Everything else is either
  /// *instantaneous* (live_queries, reorder_buffered, current_watermark,
  /// ring_occupancy, the cost/boost fields), scoped to the *most recent
  /// replan* (operators_migrated, operators_cold, last_replan_seconds) or
  /// *most recent resize* (last_resize_ns), or scoped to the *current
  /// executor topology* (num_shards, events_per_shard — a resize or
  /// replan restarts the per-shard tallies at the new width, and an idle
  /// session has none).
  struct SessionStats {
    size_t live_queries = 0;
    uint64_t events_pushed = 0;
    /// Events pushed while no query was live (accepted and discarded).
    uint64_t events_dropped = 0;
    /// Number of replans (every successful AddQuery/RemoveQuery is one).
    int replans = 0;
    /// Operator migration tally of the most recent replan.
    int operators_migrated = 0;
    int operators_cold = 0;
    double last_replan_seconds = 0.0;
    /// Engine ops across the session lifetime, including operators retired
    /// by replans.
    uint64_t lifetime_ops = 0;
    /// Model cost of the current shared plan, of the unshared original
    /// plans (the ASA/Flink default), and of the independently-optimized
    /// per-query baseline (0 unless Options::track_baseline).
    double shared_cost = 0.0;
    double original_cost = 0.0;
    double independent_cost = 0.0;
    /// Original cost / shared cost: the predicted speedup over running
    /// every query's original plan.
    double predicted_boost = 1.0;
    /// Independent baseline cost / shared cost (1 when the baseline is
    /// untracked).
    double predicted_savings = 1.0;
    /// Effective shard count: min(num_shards requested, num_keys), >= 1.
    /// Reflects the live executor's width, so it tracks Resize.
    uint32_t num_shards = 1;
    /// Predicted speedup of the sharded shared plan over the unshared
    /// single-threaded originals: predicted_boost x num_shards under the
    /// idealized balance model (SharedPlan::PredictedShardBoost).
    double predicted_shard_boost = 1.0;
    /// Model cost of the current shared plan at the current width
    /// (SharedPlan::ShardedCost — re-evaluated after every resize).
    double sharded_cost = 0.0;
    /// Completed Resize calls (explicit and auto), and the wall-clock
    /// latency of the most recent one.
    uint64_t resize_count = 0;
    uint64_t last_resize_ns = 0;
    /// Observed event rate η̂ (events per event-time unit, EWMA); 0
    /// until the first rate observation — the estimator needs two
    /// monitor samples with advancing event time. Cumulative across
    /// executor swaps (the estimator is session-owned).
    double observed_eta = 0.0;
    /// The η the current shared plan's costs were computed with: the
    /// optimizer assumption at first, the drifted estimate after an
    /// observed-η replan.
    double planned_eta = 1.0;
    /// Drift-triggered re-optimizations (Options::adaptive), cumulative.
    /// Counted separately from `replans`, which stays "every successful
    /// AddQuery/RemoveQuery".
    int drift_replans = 0;
    /// Events delivered into each shard's engine since the current
    /// topology was built (skew observability); empty while idle. Late
    /// events never count; reordered events count on release.
    std::vector<uint64_t> events_per_shard;
    /// Instantaneous worst-shard hand-off backlog in [0, 1] — the signal
    /// auto_resize samples. 0 for inline (1-shard) and idle sessions.
    double ring_occupancy = 0.0;
    /// Events that arrived behind the watermark (max_delay sessions):
    /// counted here — and side-output under LatePolicy::kSideOutput —
    /// but never aggregated. A subset of events_pushed.
    uint64_t late_events = 0;
    /// Events currently held in the reorder buffers, and the lifetime
    /// peak of that depth (bounds the memory cost of disorder).
    uint64_t reorder_buffered = 0;
    uint64_t reorder_buffer_peak = 0;
    /// Event-time watermark: the newest timestamp seen minus max_delay
    /// (with max_delay = 0, simply the newest timestamp pushed).
    /// numeric_limits<TimeT>::min() before the first event.
    TimeT current_watermark = std::numeric_limits<TimeT>::min();
    /// Durability tallies (all 0 unless Options::durability.enabled):
    /// changelog records and bytes appended, fsyncs issued, and snapshots
    /// published — cumulative since the session started (or since
    /// Recover re-attached the changelog).
    uint64_t wal_records = 0;
    uint64_t wal_bytes = 0;
    uint64_t wal_fsyncs = 0;
    uint64_t snapshots_written = 0;
    /// Covered changelog/snapshot files truncation could not delete —
    /// harmless for recovery (replay skips fully covered segments) but a
    /// disk leak worth alerting on.
    uint64_t truncate_failures = 0;
  };

  /// Per-operator observability of the *current* shared plan: identity,
  /// cost (accumulate/merge ops), slice-close rate (window instances
  /// closed), and selectivity (finalized per-key results; 0 for
  /// unexposed factor windows). Ops and close/finalize counts are
  /// cumulative across Resize (the executor banks retired-topology
  /// tallies); a churn replan builds a new plan, so the vector describes
  /// the operators alive since the last replan only — session-lifetime
  /// totals live in SessionMetrics::closed_instances_total.
  struct OperatorMetrics {
    int operator_id = 0;
    std::string label;
    uint64_t accumulate_ops = 0;
    uint64_t closed_instances = 0;
    uint64_t finalized_results = 0;
  };

  /// The structured telemetry snapshot (DESIGN.md §13) — a superset of
  /// Stats(): the same SessionStats view (same lifecycle contracts, same
  /// values), plus the registry snapshot (sharded counters, latency
  /// histograms, trace ring) and the per-operator breakdown. Render
  /// `telemetry` with telemetry/prometheus.h or telemetry/json.h.
  struct SessionMetrics {
    SessionStats stats;
    telemetry::MetricsSnapshot telemetry;
    /// Current topology (empty while idle); see OperatorMetrics.
    std::vector<OperatorMetrics> operators;
    /// Session-lifetime window instances closed / results finalized,
    /// including operators retired by replans and idle periods —
    /// cumulative, like SessionStats::lifetime_ops.
    uint64_t closed_instances_total = 0;
    uint64_t finalized_results_total = 0;
  };

  StreamSession();
  explicit StreamSession(const Options& options);
  ~StreamSession();

  StreamSession(const StreamSession&) = delete;
  StreamSession& operator=(const StreamSession&) = delete;

  /// Registers a query and replans the shared pipeline. The callback may
  /// be null (results counted but not delivered — useful for throughput
  /// runs). On error the session is unchanged.
  Result<QueryId> AddQuery(const StreamQuery& query,
                           ResultCallback callback = nullptr);
  /// SQL front end (see query/parser.h for the dialect).
  Result<QueryId> AddQuery(std::string_view sql,
                           ResultCallback callback = nullptr);
  /// Fluent front end; forwards QueryBuilder::Build errors.
  Result<QueryId> AddQuery(const QueryBuilder& builder,
                           ResultCallback callback = nullptr);

  /// Unsubscribes a query and replans. In-flight windows of the removed
  /// query never emit; state shared with surviving queries is retained.
  Status RemoveQuery(QueryId id);

  /// Re-scales the session to min(new_num_shards, num_keys) worker
  /// threads (1 = the inline single-threaded engine) with exact state
  /// handoff — see the class comment. Works mid-stream, under disorder,
  /// and interleaved with AddQuery/RemoveQuery; an idle session just
  /// records the width for its next pipeline. Later replans keep the new
  /// width.
  Status Resize(uint32_t new_num_shards);

  /// Pushes one event through the shared plan. With max_delay = 0 events
  /// must be timestamp-ordered and out-of-order events are rejected; with
  /// max_delay > 0 disorder within the bound is reordered and deeper
  /// regressions follow the late policy (always OK). Events pushed while
  /// no query is live are counted and discarded.
  ///
  /// All three ingestion entry points (Push, PushBatch, PushColumns)
  /// share one error contract: a rejection reports the first rejected
  /// event's index within the call and its timestamp, with identical
  /// wording ("ingest stopped at event I (timestamp T): <cause>"), and
  /// every event before that index was applied — callers resume from the
  /// reported index regardless of how they ingest. For Push the index is
  /// always 0.
  Status Push(const Event& event);

  /// Pushes a batch of row-form events; a thin wrapper that transposes
  /// into EventColumns and forwards to PushColumns, so rows and columns
  /// ride one hot path. Stops at the first rejected event under the
  /// shared ingestion error contract (see Push).
  Status PushBatch(const std::vector<Event>& events);

  /// Pushes a columnar (SoA) batch through the shared plan — the
  /// vectorized ingestion path (DESIGN.md §14). Results are bitwise
  /// identical to pushing the same events one at a time in column order,
  /// at any shard count, under disorder, and across mid-stream Resize;
  /// only the work per event shrinks (one shard-partition pass per batch,
  /// per-run batch folds in the operators). Columns must be equal length
  /// (columns.Validate(); nothing is applied on mismatch). Stops at the
  /// first rejected event under the shared ingestion error contract (see
  /// Push): the accepted prefix is applied, the rest is not.
  Status PushColumns(const EventColumns& columns);

  /// Ends the stream: flushes every open window of every live query. The
  /// session is read-only afterwards (Push/AddQuery/RemoveQuery error);
  /// Explain and stats remain available. Idempotent. A durable session
  /// publishes one final snapshot synchronously (so recovery of a
  /// finished session is a snapshot load, no replay) and returns the
  /// latched durability error, if any, after flushing.
  Status Finish();

  /// Supplies the result callback for each query Recover re-installs —
  /// callbacks are code, so they cannot live in the changelog. Called
  /// once per recovered query with its original id; returning null
  /// leaves that query's results counted but undelivered.
  using CallbackFactory =
      std::function<ResultCallback(QueryId, const StreamQuery&)>;

  /// What Recover hands back: the rebuilt session plus the replay
  /// positions a caller needs to resume its feed — durable_events is the
  /// exact number of events the recovered session has absorbed, so the
  /// producer re-sends from there. Results finalized between the loaded
  /// snapshot and the crash are re-delivered during replay (at-least-
  /// once), with values bitwise identical to the original delivery.
  struct RecoveryInfo {
    std::unique_ptr<StreamSession> session;
    /// Stream position (admitted events) captured by the loaded
    /// snapshot; 0 when recovery started from an empty/absent snapshot.
    uint64_t snapshot_events = 0;
    /// Stream position after changelog replay — where to resume pushing.
    uint64_t durable_events = 0;
    /// Changelog records replayed on top of the snapshot.
    uint64_t replayed_records = 0;
    /// Newer snapshot files that failed validation (torn or corrupt) and
    /// were skipped back over.
    int snapshots_skipped = 0;
    size_t recovered_queries = 0;
  };

  /// Rebuilds a session from the durability dir a crashed (or cleanly
  /// stopped) session wrote: loads the newest *valid* snapshot — torn or
  /// bit-damaged files are detected by CRC and skipped back over — then
  /// replays the changelog suffix. A torn final changelog record (the
  /// crash landed mid-write) marks clean end-of-log; damage anywhere
  /// earlier fails with "recovery stopped at segment S, record R:
  /// <cause>" — the same stop-position contract as the ingestion error
  /// wording. Recovery is idempotent (recovering the same dir twice
  /// yields the same session) and shard-count-portable: `options` may
  /// request a different num_shards than the crashed session ran
  /// (results stay bitwise identical — sharding is output-invariant).
  /// The options fingerprint that *does* shape results (num_keys,
  /// max_delay, late_policy) must match the snapshot, or Recover refuses.
  /// On success the session resumes durable logging into `dir` and
  /// publishes a fresh snapshot (truncating everything it replayed).
  static Result<RecoveryInfo> Recover(
      std::string_view dir, Options options,
      const CallbackFactory& callbacks = nullptr);

  /// Ids of the live queries, in plan (insertion) order.
  std::vector<QueryId> QueryIds() const;

  /// Renders the query, its subscriptions into the shared plan, and the
  /// shared plan itself (plan/printer summary).
  Result<std::string> Explain(QueryId id) const;

  Result<QueryStats> StatsFor(QueryId id) const;
  /// The classic pull-only counter view — now a thin view over the same
  /// state Metrics() reports (both build from one BuildStats helper), so
  /// the cumulative/instantaneous/topology-scoped contracts above stay
  /// pinned by the existing elasticity regression tests. A durable
  /// session joins its in-flight snapshot write first, so the durability
  /// tallies are exact at rest.
  SessionStats Stats() const;
  /// The full telemetry snapshot; see SessionMetrics. Publishes the
  /// instantaneous session gauges (ring occupancy, live queries, engine
  /// totals) into the registry first, so the returned snapshot — and any
  /// Prometheus/JSON rendering of it — is self-contained. Never waits for
  /// a snapshot write: durability tallies are as of the last completed
  /// one.
  SessionMetrics Metrics() const;

  /// Observed runtime statistics in the cost model's vocabulary
  /// (cost/runtime_profile.h): the measured η̂, per-shard load skew, and
  /// per-operator accumulate/close/finalize counters of the current
  /// topology — the same feedback the drift detector hands back to the
  /// optimizer, exposed for callers costing plans themselves
  /// (CostModel's RuntimeProfile constructor).
  RuntimeProfile Profile() const;

  size_t num_queries() const {
    session_role_.AssertHeld();  // Public entry: caller thread only.
    return queries_.size();
  }
  bool finished() const {
    session_role_.AssertHeld();  // Public entry: caller thread only.
    return finished_;
  }

  /// The current shared plan, or null while no query is live.
  const QueryPlan* shared_plan() const;

 private:
  struct LiveQuery;

  /// Per-query ResultSink bridging RoutingSink to the user callback:
  /// counts every result (callback or not) and calls the callback once
  /// per result.
  class CallbackSink : public ResultSink {
   public:
    explicit CallbackSink(LiveQuery* owner) : owner_(owner) {}
    void OnResult(const WindowResult& result) override;
    void OnBlock(int operator_id, TimeT start, TimeT end,
                 const uint32_t* keys, const double* values,
                 size_t count) override;

   private:
    LiveQuery* owner_;
  };

  struct LiveQuery {
    QueryId id = 0;
    StreamQuery query;
    ResultCallback callback;
    uint64_t results_delivered = 0;
    CallbackSink sink{this};
  };

  /// Result gate between the executor and the router: forwards only
  /// results whose window *start* falls in [min_start, max_start). Every
  /// live pipeline is built with one (open by default — a gate cannot be
  /// inserted after construction, the executor's sink is fixed); drift
  /// crossovers then narrow the two pipelines to disjoint eras. Defined
  /// in session.cc.
  class StartGateSink;

  /// The outgoing pipeline of an in-flight structural drift replan: it
  /// keeps ingesting every event (dual-push) and owns all window
  /// instances that opened before the cutover, while the gated new
  /// pipeline in the live slots owns instances from the cutover on.
  /// Retired — Finish, bank counters, destroy — once the watermark
  /// passes retire_at, the end of the last pre-cutover instance.
  struct DriftCrossover;

  /// Re-optimizes over `live`, migrates executor state by lineage, and
  /// commits the new pipeline. On error the session is unchanged. An
  /// in-flight crossover is first folded back into one pipeline
  /// (CancelCrossover), so churn and drift compose.
  Status Rebuild(const std::vector<LiveQuery*>& live)
      FW_REQUIRES(session_role_);

  /// One auto-resize policy step (see AutoResizeOptions), sampled at the
  /// monitor cadence from Push/PushColumns while a pipeline is live.
  /// `events_at_sample`/`wm_at_sample` pin the sample to a stream
  /// position: the scalar path passes its running counters, the columnar
  /// path the mid-batch values where the cadence crossed — so both paths
  /// feed the rate estimator identical observations.
  void AutoResizeCheck(uint64_t events_at_sample, TimeT wm_at_sample)
      FW_REQUIRES(session_role_);

  /// Feeds the shared rate estimator the (events, event-time) delta
  /// since the previous observation, and publishes the rate gauges.
  void ObserveRate(uint64_t events_at_sample, TimeT wm_at_sample)
      FW_REQUIRES(session_role_);

  /// One drift-detector step (see AdaptiveOptions): observe the rate,
  /// compare η̂ against the planned η, start a drift replan past the
  /// threshold (and cooldown). Skipped while a crossover is in flight.
  void DriftCheck(uint64_t events_at_sample, TimeT wm_at_sample)
      FW_REQUIRES(session_role_);

  /// Re-runs the optimizer at η̂. Structure kept: adopt the new costing
  /// in place. Structure changed: start a dual-pipeline crossover with
  /// cutover wm_at_sample + 1 (events through wm_at_sample were already
  /// pushed to the old pipeline only).
  void StartDriftReplan(double eta_hat, TimeT wm_at_sample)
      FW_REQUIRES(session_role_);

  /// Completes the crossover once every pre-cutover instance is beyond
  /// late arrivals: release watermark (wm_now, or wm_now - max_delay
  /// under disorder) at or past retire_at. Completing later than the
  /// threshold is always output-identical — pre-cutover instances have
  /// all closed or can only be flushed with their final contents — so
  /// the columnar path may check at segment granularity.
  void MaybeCompleteCrossover(TimeT wm_now) FW_REQUIRES(session_role_);
  void CompleteCrossover() FW_REQUIRES(session_role_);

  /// Folds an in-flight crossover back into one pipeline for a churn
  /// replan: flushes the new executor's canonical closes (its gated era
  /// was already emitted by it alone), banks its counters, and restores
  /// the old pipeline — which saw the whole stream, so its state is
  /// exactly a single static pipeline's — into the live slots.
  Status CancelCrossover() FW_REQUIRES(session_role_);

  /// Position of `id` in queries_, or queries_.size() when unknown.
  size_t FindQuery(QueryId id) const FW_REQUIRES(session_role_);

  Status CheckMutable() const FW_REQUIRES(session_role_);

  /// Durability hooks (inert unless Options::durability.enabled). The
  /// append helpers run write-ahead — before the events/churn mutate any
  /// session state — and latch the first failure into durability_error_.
  Status CheckDurable() FW_REQUIRES(session_role_);
  Status DurableAppend(const Event& event) FW_REQUIRES(session_role_);
  Status DurableAppendColumns(const EventColumns& columns, size_t accepted)
      FW_REQUIRES(session_role_);
  /// Starts a snapshot if one is due; called between batches, never
  /// while a drift crossover is in flight (dual-pipeline state is
  /// transient — the next quiescent point snapshots instead).
  void MaybeSnapshot() FW_REQUIRES(session_role_);
  /// Takes the snapshot here and hands it to the manager's background
  /// writer (DurabilityManager::BeginSnapshot).
  Status BeginDurableSnapshot() FW_REQUIRES(session_role_);
  /// Fills `out` with the canonical session image a snapshot publishes
  /// (counters, query set) — everything but covered_seq — and takes the
  /// merged executor checkpoint into `checkpoint` (left empty when idle
  /// or finished) unserialized: serializing is the writer's job. Split
  /// out so Recover can publish its snapshot *before* attaching a
  /// DurabilityManager: the file must be durable before a new changelog
  /// segment demotes the crashed run's torn newest segment.
  Status BuildDurableSnapshot(durability::SnapshotContents* out,
                              std::optional<ExecutorCheckpoint>* checkpoint)
      FW_REQUIRES(session_role_);
  /// Applies one replayed changelog record during Recover.
  Status ReplayRecord(const durability::WalRecord& record,
                      const CallbackFactory& callbacks)
      FW_REQUIRES(session_role_);

  /// The one SessionStats builder both Stats() and Metrics() share.
  SessionStats BuildStats() const FW_REQUIRES(session_role_);

  /// The caller thread's role: sessions are driven from one thread (see
  /// the class comment), and every member below is owned by it. Public
  /// entry points assert the role; private helpers require it.
  ThreadRole session_role_;

  Options options_ FW_GUARDED_BY(session_role_);

  /// Session-owned metric namespace (DESIGN.md §13). Declared before the
  /// executor members below so it outlives them (members destroy in
  /// reverse order): executors hold handles into it, and their workers
  /// may record up to the join inside the executor's destructor. The
  /// registry is internally synchronized, and the handles are resolved
  /// once here — never per event — so they carry no guard.
  telemetry::MetricsRegistry metrics_;
  /// Event-time lag of each accepted event behind the newest timestamp
  /// seen (in event-time units): 0 for in-order arrivals, the disorder
  /// distribution otherwise; late events land past max_delay.
  telemetry::Histogram* const watermark_lag_hist_;
  /// Accepted events per PushBatch/PushColumns call (the ingestion batch
  /// size distribution — how much amortization the columnar path gets).
  /// Per-event Push does not record here.
  telemetry::Histogram* const push_batch_size_hist_;
  telemetry::Counter* const events_pushed_counter_;
  telemetry::Counter* const events_dropped_counter_;
  telemetry::Counter* const replans_counter_;
  telemetry::Counter* const resizes_counter_;
  /// Instantaneous gauges, published by Metrics()/AutoResizeCheck and
  /// zeroed on idle-retire and Finish (a retired pipeline has no rings —
  /// the gauge must not report the last live sample forever).
  telemetry::Gauge* const ring_occupancy_gauge_;
  telemetry::Gauge* const live_queries_gauge_;
  telemetry::Gauge* const num_shards_gauge_;
  telemetry::Gauge* const reorder_buffered_gauge_;
  /// Engine totals published at snapshot time (the engine layer keeps
  /// plain counters; see OperatorMetrics).
  telemetry::Gauge* const accumulate_ops_gauge_;
  telemetry::Gauge* const closed_total_gauge_;
  telemetry::Gauge* const finalized_total_gauge_;
  /// Runtime-adaptive loop: drift replans, the observed η̂ gauge, and the
  /// wall-clock events/sec gauge (export-only — every decision the loop
  /// makes reads the deterministic event-time rate instead).
  telemetry::Counter* const drift_replans_counter_;
  telemetry::Gauge* const observed_eta_gauge_;
  telemetry::Gauge* const throughput_eps_gauge_;

  QueryId next_id_ FW_GUARDED_BY(session_role_) = 1;
  /// Plan order.
  std::vector<std::unique_ptr<LiveQuery>> queries_
      FW_GUARDED_BY(session_role_);

  /// Adapter handing late events to Options::late_callback; wired as the
  /// executor's side-output sink, so it must outlive every executor.
  std::unique_ptr<EventConsumer> late_sink_ FW_GUARDED_BY(session_role_);

  /// Current pipeline; all null while no query is live. The executor
  /// references the gate, the gate the router, the router the queries'
  /// sinks — members declare in dependency order so destruction (reverse
  /// order) tears down referencers first.
  std::unique_ptr<MultiQueryOptimizer::SharedPlan> shared_
      FW_GUARDED_BY(session_role_);
  std::unique_ptr<RoutingSink> router_ FW_GUARDED_BY(session_role_);
  std::unique_ptr<StartGateSink> gate_ FW_GUARDED_BY(session_role_);
  std::unique_ptr<ShardedExecutor> executor_ FW_GUARDED_BY(session_role_);
  /// Of the current plan's operators.
  std::vector<std::string> lineages_ FW_GUARDED_BY(session_role_);

  /// In-flight structural drift replan (see DriftCrossover); null almost
  /// always. Declared after queries_ and late_sink_ — its router and
  /// executor reference them.
  std::unique_ptr<DriftCrossover> cross_ FW_GUARDED_BY(session_role_);

  bool finished_ FW_GUARDED_BY(session_role_) = false;
  /// Newest timestamp accepted; strict (max_delay = 0) sessions reject
  /// events behind it.
  TimeT watermark_ FW_GUARDED_BY(session_role_) =
      std::numeric_limits<TimeT>::min();
  uint64_t events_pushed_ FW_GUARDED_BY(session_role_) = 0;
  uint64_t events_dropped_ FW_GUARDED_BY(session_role_) = 0;
  /// Ops of operators dropped by past replans (their counters left the
  /// executor with them).
  uint64_t retired_ops_ FW_GUARDED_BY(session_role_) = 0;
  /// Reorder-stage accounting of pipelines retired by idle periods (live
  /// replans carry theirs through the checkpoint instead).
  uint64_t retired_late_ FW_GUARDED_BY(session_role_) = 0;
  uint64_t retired_reorder_peak_ FW_GUARDED_BY(session_role_) = 0;
  /// Window-close / finalize tallies of operators retired by replans and
  /// idle periods (the executor banks its own across Resize); see
  /// SessionMetrics::closed_instances_total.
  uint64_t retired_closes_total_ FW_GUARDED_BY(session_role_) = 0;
  uint64_t retired_finalizes_total_ FW_GUARDED_BY(session_role_) = 0;
  TimeT retired_watermark_ FW_GUARDED_BY(session_role_) =
      std::numeric_limits<TimeT>::min();
  int replans_ FW_GUARDED_BY(session_role_) = 0;
  int last_migrated_ FW_GUARDED_BY(session_role_) = 0;
  int last_cold_ FW_GUARDED_BY(session_role_) = 0;
  double last_replan_seconds_ FW_GUARDED_BY(session_role_) = 0.0;
  uint64_t resize_count_ FW_GUARDED_BY(session_role_) = 0;
  uint64_t last_resize_ns_ FW_GUARDED_BY(session_role_) = 0;
  /// Auto-resize monitor: accepted events since the last sample, and the
  /// blended decision policy (which owns the scale-down hysteresis —
  /// including the reset-on-veto backoff).
  uint64_t events_since_resize_check_ FW_GUARDED_BY(session_role_) = 0;
  ResizePolicy resize_policy_ FW_GUARDED_BY(session_role_);

  /// Shared observed-rate estimator (η̂): one EWMA feeds both the
  /// auto-resize throughput signal and the drift detector, observed as
  /// (events, event-time) deltas at whichever monitor samples next.
  RateEstimator rate_ FW_GUARDED_BY(session_role_);
  bool rate_seeded_ FW_GUARDED_BY(session_role_) = false;
  uint64_t rate_last_events_ FW_GUARDED_BY(session_role_) = 0;
  TimeT rate_last_wm_ FW_GUARDED_BY(session_role_) = 0;
  /// Wall-clock timestamp of the previous rate observation, for the
  /// events/sec gauge (telemetry-only; decisions use event time).
  uint64_t rate_last_ns_ FW_GUARDED_BY(session_role_) = 0;

  /// Drift detector state: η the current plan is costed at, accepted
  /// events since the last check, the stream position of the last drift
  /// replan (cooldown), and the cumulative replan count.
  double planned_eta_ FW_GUARDED_BY(session_role_) = 1.0;
  uint64_t events_since_drift_check_ FW_GUARDED_BY(session_role_) = 0;
  uint64_t last_drift_replan_events_ FW_GUARDED_BY(session_role_) = 0;
  int drift_replans_ FW_GUARDED_BY(session_role_) = 0;

  /// Durability manager (null unless Options::durability.enabled) and
  /// the sticky first durability failure: once an append or snapshot
  /// errors, the session fail-stops — ingest and churn return this
  /// status rather than letting memory run ahead of the log.
  std::unique_ptr<durability::DurabilityManager> durability_
      FW_GUARDED_BY(session_role_);
  Status durability_error_ FW_GUARDED_BY(session_role_);
  /// Reusable single-event columns for the scalar Push append (keeps the
  /// per-event WAL encode allocation-free once warm).
  EventColumns durable_scratch_ FW_GUARDED_BY(session_role_);
};

}  // namespace fw

#endif  // FW_SESSION_SESSION_H_
