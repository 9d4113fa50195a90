#ifndef FW_RUNTIME_SHARDED_EXECUTOR_H_
#define FW_RUNTIME_SHARDED_EXECUTOR_H_

#include <array>
#include <cstdint>
#include <functional>
#include <limits>
#include <memory>
#include <utility>
#include <vector>

#include "common/mutex.h"
#include "common/status.h"
#include "cost/runtime_profile.h"
#include "exec/checkpoint.h"
#include "exec/columns.h"
#include "exec/engine.h"
#include "exec/event.h"
#include "exec/reorderer.h"
#include "exec/sink.h"
#include "plan/plan.h"
#include "telemetry/metrics.h"

namespace fw {

/// Key-partitioned parallel execution of one QueryPlan (the shared-nothing
/// scaling path sketched in DESIGN.md §8): events are hash-partitioned by
/// grouping key across N shards, each shard runs a private single-threaded
/// PlanExecutor over its key slice on its own worker thread, fed through a
/// bounded SPSC ring in batches, and a merge stage funnels per-shard
/// result blocks back into the caller's sink in deterministic
/// (window end, start, operator, key) order.
///
/// Because every operator's state and every result is per-key, and each
/// key lives on exactly one shard, the merged result stream is the exact
/// multiset — bitwise, since each key's fold order is its stream order
/// regardless of sharding — of a single-threaded run over the same plan.
///
/// ## Threading and delivery contract
///
///  * All public methods must be called from one thread (the "session
///    thread"); the executor owns its worker threads internally. This
///    contract is annotated for Clang Thread Safety Analysis (DESIGN.md
///    §12): session-thread state is FW_GUARDED_BY(session_role_), worker
///    -owned state by each Shard's worker role, and the quiesce/join
///    handoffs between them are asserted where the happens-before edge is
///    established.
///  * The caller's sink is only ever invoked on the session thread, from
///    inside Push/Drain/Finish/Checkpoint — never concurrently. Plain
///    sinks (CollectingSink, RoutingSink) are safe here; see exec/sink.h
///    for which sinks tolerate being wired *directly* into per-shard
///    executors instead.
///  * With num_shards effectively 1 (requested 1, or a keyless stream —
///    see EffectiveShards) the executor runs in *inline mode*: no threads,
///    no buffering, results delivered synchronously from Push exactly like
///    a bare PlanExecutor. This keeps the default StreamSession path
///    byte-identical to the pre-sharding engine.
///  * With N > 1 shards, results are buffered per shard and delivered in
///    chunks at *drain points*; the pushed events between two drain
///    points form an *epoch*. A periodic drain point (every
///    Options::drain_interval pushed events) closes the current epoch e
///    and delivers the previous one: the workers fold epoch e while the
///    session thread merges and delivers epoch e − 1, and the drain point
///    waits only until every worker has folded epoch e − 1. The full
///    drain points — Drain/Finish/Checkpoint/Restore (Resize checkpoints
///    and restores, so it is one too) — quiesce the workers and deliver
///    the outstanding epoch and the current one as one chunk. Each chunk
///    is in (window end, start, operator, key) order — a total order over
///    one executor's results, so a chunk is fully determined by its
///    content. Epochs and drain points depend only on the pushed sequence
///    and the API calls made, so delivery order is deterministic
///    run-to-run. An executor destroyed without Finish discards
///    still-buffered results.
///  * Nobody sorts. Each shard buffers one result run per plan operator
///    and epoch parity, and the engine appends to every run in strictly
///    increasing (end, start, key) order (the emission-order contract on
///    WindowAggregateOperator). At a drain point the session thread
///    merges the shards × operators runs one closed instance at a time:
///    a heap picks the smallest head (end, start, operator), the at most
///    N blocks of that instance — one per shard holding its keys — merge
///    by key, and the sink gets the instance as one OnBlock call. The
///    workers have nothing to do at a drain point beyond folding what
///    they were handed.
///  * Latency: a result produced while its shard folds epoch e is
///    delivered at the drain point that closes epoch e + 1, so it waits
///    at most two drain intervals of pushed events (2 × 512 by default)
///    after the event that produced it. Across chunks delivery is not
///    globally sorted — see DESIGN.md §8.
///
/// ## Bounded-lateness ingestion (Options::max_delay > 0)
///
/// With a positive max_delay the executor accepts out-of-order input
/// through one reorder stage ahead of partitioning: each accepted event
/// is stamped with a global arrival sequence number and buffered in one
/// Reorderer; the event-time watermark — the maximum timestamp seen minus
/// max_delay — releases buffered events in (timestamp, arrival) order,
/// and only a released event picks its shard. An event older than the
/// watermark on arrival is *late*: counted, and either dropped or handed
/// to Options::late_sink. Because the watermark, the lateness decision,
/// and the release order depend only on the pushed sequence — never on
/// partitioning — results stay bitwise identical across shard counts
/// (for streams with distinct timestamps; on timestamp ties within one
/// key, identical to arrival order). Every pushed event, late or not,
/// counts toward the periodic drain point, which falls after the push's
/// release wave. Checkpoints carry the in-flight buffer
/// (ExecutorCheckpoint::reorder), so Restore — into any shard count —
/// resumes the disordered stream exactly; Finish drains the buffer before
/// any window finalizes. DESIGN.md §9 has the full semantics.
///
/// ## Online elasticity (Resize)
///
/// Resize re-scales a live executor in place (DESIGN.md §10): quiesce,
/// snapshot everything into the global checkpoint (window state, reorder
/// buffer, event-time clock, op counters), tear the topology down, and
/// rebuild it at the new width with the checkpoint's operator state split
/// across the new shards. Because the snapshot is the same
/// shard-count-portable view replans migrate through, the resized
/// executor's future output is bitwise identical to one that ran at the
/// target width from the start — no drop, duplicate, or reorder, even
/// mid-disorder. Push may resume with the next event.
class ShardedExecutor {
 public:
  struct Options {
    /// Size of the grouping-key space; events must use keys below this.
    uint32_t num_keys = 1;
    /// Requested worker count; clamped to EffectiveShards(num_shards,
    /// num_keys). 1 selects inline mode (see class comment).
    uint32_t num_shards = 1;
    /// Events per hand-off batch (producer-side buffering; amortizes the
    /// queue's atomics over many events).
    size_t batch_size = 256;
    /// Ring capacity per shard, in batches; the producer blocks when a
    /// shard falls this far behind (backpressure).
    size_t queue_capacity = 64;
    /// Pushed events per epoch: a periodic drain point after every this
    /// many pushed events (late ones included) delivers the previous
    /// epoch's results, so a result waits at most two intervals and each
    /// shard buffers at most two epochs of results (see the class
    /// comment).
    uint64_t drain_interval = 512;
    /// Bounded event-time disorder (see the class comment): events may
    /// arrive up to this many time units behind the stream's maximum
    /// timestamp. 0 (default) requires strictly ordered input — the
    /// pre-existing path, byte for byte.
    TimeT max_delay = 0;
    /// Side output for late events (max_delay > 0 only): events behind
    /// the watermark are handed here, on the session thread, in arrival
    /// order. Empty: late events are counted and dropped.
    std::function<void(const Event&)> late_sink;
    /// Metric namespace for this executor's instrumentation (DESIGN.md
    /// §13): batch hand-off latency, drain-point stage timings, ring
    /// high-water marks, reorder release/late counts, structural trace
    /// events. Null (the default) falls back to a process-global scratch
    /// registry, so instrumented code never branches on wiring. Must
    /// outlive the executor.
    telemetry::MetricsRegistry* metrics = nullptr;
  };

  /// `sink` must outlive the executor.
  ShardedExecutor(const QueryPlan& plan, const Options& options,
                  ResultSink* sink);
  ~ShardedExecutor();

  ShardedExecutor(const ShardedExecutor&) = delete;
  ShardedExecutor& operator=(const ShardedExecutor&) = delete;

  /// Routes one event to its key's shard. With max_delay = 0 events must
  /// be timestamp-ordered (the per-shard subsequences then are too); with
  /// max_delay > 0 the event is buffered, released by watermark, or — if
  /// older than the watermark — counted late and dropped or side-output.
  /// Invalid after Finish.
  void Push(const Event& event);

  /// Columnar ingestion: exactly equivalent to Push on each row in order
  /// (same results, same drain points, same lateness decisions — bitwise),
  /// but the whole batch's shard assignment is computed in one pass over
  /// the key column and each shard's hand-off batches stay columnar end to
  /// end, so the workers fold them through the engines' batch accumulate
  /// (DESIGN.md §14). Same ordering contract as Push per mode.
  void PushColumns(const EventColumns& columns);

  /// Ends the stream: drains the reorder buffer (every buffered event is
  /// released before any window finalizes), hands off everything pending,
  /// stops and joins the workers, flushes every shard's plan, and
  /// delivers all results.
  void Finish();

  /// Quiesces the shards (every pushed event fully processed) and delivers
  /// buffered results now. The reorder buffer is untouched — events ahead
  /// of the watermark stay buffered until it passes them (or Finish).
  /// No-op in inline mode.
  void Drain();

  /// Drains, then snapshots all shards into one *global* checkpoint — the
  /// same shape a single-threaded executor over this plan would produce,
  /// so it migrates by lineage (exec/migrate.h) and restores into an
  /// executor with any shard count. Under max_delay > 0 the snapshot also
  /// carries the in-flight reorder buffer and the event-time clock
  /// (never flushing buffered events early — that would reorder them
  /// ahead of not-yet-arrived older events). Unsupported for holistic
  /// plans.
  Result<ExecutorCheckpoint> Checkpoint();

  /// Restores a global checkpoint taken from an executor over the same
  /// plan and key space (any shard count), splitting per-key operator
  /// state across this executor's shards and re-buffering the in-flight
  /// out-of-order events in the reorder stage. A drain point: results
  /// produced before the call reach the sink before it returns, as inline
  /// mode already delivered them, so a rollback's replayed results never
  /// share a chunk with the ones they repeat. Errors, changing nothing, on
  /// a lateness-mode mismatch — a checkpoint with buffered events cannot
  /// restore into a strict-order executor, and a strict-order mid-stream
  /// checkpoint (no event-time clock) cannot resume under max_delay > 0 —
  /// and on buffered events no reorder stage could have written (see
  /// DESIGN.md §9). Push may resume with the next event.
  Status Restore(const ExecutorCheckpoint& checkpoint);

  /// Re-scales the executor in place to min(new_num_shards, num_keys)
  /// worker threads (1 = inline mode) with exact state handoff — see the
  /// class comment. Buffered results are delivered (a drain point) before
  /// the swap; cumulative counters (accumulate ops, late events, reorder
  /// buffer peak) carry across it, while the per-topology EventsPerShard
  /// counters restart at the new width. When the effective width is
  /// already current this only records the requested count — no swap.
  /// Unsupported for holistic plans (they cannot checkpoint). Invalid
  /// after Finish.
  Status Resize(uint32_t new_num_shards);

  /// Replaces the late-event side output (see Options::late_sink; empty
  /// means count-and-drop). Takes effect with the next pushed event.
  /// Exists for crossover replans: while two pipelines ingest the same
  /// stream, the new one's late stream is a subset of the old one's, so
  /// the session mutes it to keep the side output (and its ordering)
  /// identical to a single-pipeline run, and unmutes the survivor.
  void set_late_sink(std::function<void(const Event&)> late_sink) {
    session_role_.AssertHeld();  // Public entry: session thread only.
    options_.late_sink = std::move(late_sink);
  }

  /// Total accumulate/merge ops across all shards. Synchronizes with the
  /// workers (waits until pushed events are processed); logically const.
  uint64_t TotalAccumulateOps() const;

  /// Per-operator accumulate ops, closed window instances and finalized
  /// results, summed across shards and indexed like the plan's operators,
  /// all read under one synchronization with the workers. Cumulative
  /// across Resize: ops ride inside checkpoints, while closes and
  /// finalizes reset with each topology (the serialized format does not
  /// carry them), so Resize banks the outgoing topology's into retired_
  /// and this adds them back.
  std::vector<RuntimeProfile::OperatorProfile> Counters() const;

  /// Effective shard count (1 in inline mode).
  uint32_t num_shards() const {
    session_role_.AssertHeld();  // Public entry: session thread only.
    return inline_executor_ ? 1u : static_cast<uint32_t>(shards_.size());
  }

  /// Event-time watermark of the reorder stage: events below it are late.
  /// numeric_limits<TimeT>::min() until the first event, and always in
  /// strict-order mode (which has no watermark — the caller enforces
  /// ordering). Session-thread state; never blocks on the workers.
  TimeT current_watermark() const {
    session_role_.AssertHeld();  // Public entry: session thread only.
    if (options_.max_delay == 0 || !reorder_any_seen_) {
      return std::numeric_limits<TimeT>::min();
    }
    return reorder_max_seen_ - options_.max_delay;
  }

  /// Events that arrived behind the watermark (dropped or side-output).
  uint64_t late_events() const {
    session_role_.AssertHeld();  // Public entry: session thread only.
    return late_events_;
  }

  /// Events currently held in the reorder buffer, and the lifetime peak.
  uint64_t reorder_buffered() const {
    session_role_.AssertHeld();  // Public entry: session thread only.
    return reorderer_.buffered();
  }
  uint64_t reorder_buffer_peak() const {
    session_role_.AssertHeld();  // Public entry: session thread only.
    return reorder_buffer_peak_;
  }

  /// Events delivered into each shard's engine since this topology was
  /// built (construction or the last Resize) — the skew signal. Indexed
  /// by shard; under max_delay > 0 an event counts when the watermark
  /// releases it, and late events never count. Session-thread state;
  /// never blocks on the workers.
  std::vector<uint64_t> EventsPerShard() const {
    session_role_.AssertHeld();  // Public entry: session thread only.
    return events_per_shard_;
  }

  /// Instantaneous hand-off backlog: the worst shard's in-flight batch
  /// count — the full ring plus the one batch its worker is folding — as
  /// a fraction of capacity + 1, in [0, 1]. 0 in inline mode (no rings).
  /// A cheap load signal for auto-resize policies — sampled without
  /// quiescing, so it is a snapshot, not a high-water mark.
  double RingOccupancy() const;

 private:
  /// Shard-local result buffer: two run sets, one per epoch parity, each
  /// holding one run per plan operator, indexed by operator id. OnBlock
  /// appends to the run set of the epoch selected by set_epoch — the
  /// worker selects each batch's epoch before folding it. The engine's
  /// emission-order contract keeps every run strictly increasing in
  /// (end, start, key), so a run is a sequence of blocks, one per closed
  /// instance, each held as a Block header over the run's parallel key
  /// and value arrays (12 bytes per result). The engine's two OnBlock
  /// calls for one close extend one header. Written only by the shard's
  /// worker while a batch is in flight; the session thread reads an
  /// epoch's run set once every worker has folded that epoch (see
  /// DeliverBuffered). The guard lives on the owning member
  /// (Shard::buffer is FW_GUARDED_BY(worker_role)) rather than in here,
  /// because the capability is per shard, not per sink.
  class BufferSink : public ResultSink {
   public:
    /// One closed instance's results: keys[offset, offset + count) of the
    /// run and the same range of values.
    struct Block {
      TimeT start;
      TimeT end;
      size_t offset;
      size_t count;
    };
    struct Run {
      std::vector<Block> blocks;
      std::vector<uint32_t> keys;
      std::vector<double> values;
    };

    explicit BufferSink(size_t num_operators)
        : runs_{std::vector<Run>(num_operators),
                std::vector<Run>(num_operators)} {}
    void OnResult(const WindowResult& result) override {
      OnBlock(result.operator_id, result.start, result.end, &result.key,
              &result.value, 1);
    }
    void OnBlock(int operator_id, TimeT start, TimeT end,
                 const uint32_t* keys, const double* values,
                 size_t count) override;
    /// Routes the following OnBlock calls into `epoch`'s run set.
    void set_epoch(uint64_t epoch) { parity_ = epoch & 1; }
    const std::vector<Run>& runs(uint64_t epoch) const {
      return runs_[epoch & 1];
    }
    void Clear(uint64_t epoch);

   private:
    std::array<std::vector<Run>, 2> runs_;
    uint64_t parity_ = 0;
  };

  /// DeliverBuffered's cursor over one (shard, operator) run: `next` is
  /// the head block, `end` one past the run's last block, and `taken`
  /// the head block's results already merged while several shards'
  /// blocks of one instance merge by key.
  struct RunCursor {
    const BufferSink::Run* run;
    const BufferSink::Block* next;
    const BufferSink::Block* end;
    int operator_id;
    size_t taken;
  };

  struct Shard;

  /// Builds the execution topology (inline executor or worker shards,
  /// per-shard counters) for the current options_. The executor must
  /// hold no topology when called — the constructor's tail and Resize's
  /// rebuild step.
  void BuildTopology() FW_REQUIRES(session_role_);

  /// Feeds one ordered (released or strict-path) event into its key's
  /// shard: inline push, or pending-batch hand-off.
  void DeliverToShard(const Event& event) FW_REQUIRES(session_role_);
  /// Counts one pushed event toward the periodic drain point and takes it
  /// when due — after the push's release wave, never inside it.
  void EndPush() FW_REQUIRES(session_role_);
  /// The bounded-lateness Push path: classify late, buffer, release.
  void ReorderPush(const Event& event) FW_REQUIRES(session_role_);
  /// Releases every buffered event at or below `watermark` to its shard.
  void ReleaseThrough(TimeT watermark) FW_REQUIRES(session_role_);
  /// The reorder stage's checkpoint section: clock, counters, and the
  /// buffered events in arrival order.
  ReorderCheckpoint ReorderSection() const FW_REQUIRES(session_role_);

  /// Hands the shard's pending partial batch, if any, to its queue, tagged
  /// with the current epoch.
  void FlushPending(Shard* shard) FW_REQUIRES(session_role_);
  /// Flushes all pending batches and waits until every worker has consumed
  /// its queue. Afterwards the session thread may read shard state.
  void Quiesce() FW_REQUIRES(session_role_);
  /// The periodic drain point: hands over the current epoch's pending
  /// batches, waits until every worker has folded the outstanding epoch
  /// (the current one's predecessor, if undelivered) and delivers it.
  void CloseEpoch() FW_REQUIRES(session_role_);
  /// The tail of every drain point: delivers the merge of every shard's
  /// per-operator runs of the undelivered epochs before `end` into the
  /// sink as one chunk (see the class comment), clears them, and opens
  /// the next epoch. Callers first make sure every worker has folded
  /// those epochs. Records one executor.drain_wait_ns sample (from
  /// `drain_started_ns`, the clock read before the drain point flushed,
  /// to now) and one executor.drain_deliver_ns sample (the merge and the
  /// callbacks).
  void DeliverBuffered(uint64_t drain_started_ns, uint64_t end)
      FW_REQUIRES(session_role_);
  void StopWorkers() FW_REQUIRES(session_role_);

  /// Capability of the one thread driving the public API (the class
  /// comment's "session thread"). Entry points assert it, private helpers
  /// require it, and every mutable member below is guarded by it —
  /// everything this class owns directly is session-thread state; the
  /// workers only ever see their own Shard, whose ownership split the
  /// Shard definition annotates.
  ThreadRole session_role_;

  /// num_shards moves under Resize; everything else is set once.
  Options options_ FW_GUARDED_BY(session_role_);
  /// Merge-stage delivery target; only ever invoked from the session
  /// thread (the sink thread-safety contract in exec/sink.h).
  ResultSink* const sink_;
  /// The plan every topology executes; the caller keeps it alive for the
  /// executor's lifetime (Resize rebuilds engines over it).
  const QueryPlan* const plan_;

  /// Inline mode: the one executor, wired straight to sink_.
  std::unique_ptr<PlanExecutor> inline_executor_
      FW_GUARDED_BY(session_role_);

  /// Threaded mode.
  std::vector<std::unique_ptr<Shard>> shards_ FW_GUARDED_BY(session_role_);
  uint64_t events_since_drain_ FW_GUARDED_BY(session_role_) = 0;
  /// The epoch pushed events join (every drain point opens a new one),
  /// and the oldest epoch whose results are not yet delivered: epoch_ − 1
  /// after a periodic drain point, epoch_ after a full one. Hand-off
  /// batches carry their epoch; a shard buffers results by its parity.
  uint64_t epoch_ FW_GUARDED_BY(session_role_) = 0;
  uint64_t undelivered_ FW_GUARDED_BY(session_role_) = 0;
  bool stopped_ FW_GUARDED_BY(session_role_) = false;
  /// PushColumns scratch: the batch's per-event shard assignment, computed
  /// in one pass over the key column (grown once, reused per batch).
  std::vector<uint32_t> shard_ids_ FW_GUARDED_BY(session_role_);
  /// DeliverBuffered scratch, reused across drains: the heap of non-empty
  /// runs, the runs whose head block is the instance being delivered, and
  /// the block that several shards' blocks of one instance merge into.
  std::vector<RunCursor> merge_heap_ FW_GUARDED_BY(session_role_);
  std::vector<RunCursor> merge_blocks_ FW_GUARDED_BY(session_role_);
  std::vector<uint32_t> merge_keys_ FW_GUARDED_BY(session_role_);
  std::vector<double> merge_values_ FW_GUARDED_BY(session_role_);

  /// Per-shard delivered-event counts for the current topology (session
  /// thread only; sized num_shards()).
  std::vector<uint64_t> events_per_shard_ FW_GUARDED_BY(session_role_);

  /// Largest timestamp delivered into any engine — the close frontier
  /// checkpoints canonicalize to (see Checkpoint). Restarted by Restore
  /// (the restored state may be older than this execution's deliveries —
  /// a rollback-replay must not inherit the future's frontier); tracked
  /// since construction/Restore it still coincides with the stream-wide
  /// maximum whenever anything was delivered, because deliveries never
  /// regress across the whole executor.
  TimeT delivered_max_ FW_GUARDED_BY(session_role_) = 0;
  bool delivered_any_ FW_GUARDED_BY(session_role_) = false;

  /// Bounded-lateness reorder stage, ahead of partitioning (session thread
  /// only; empty unless max_delay > 0). One heap and one clock for the
  /// whole stream, so neither lateness nor release order depends on
  /// partitioning.
  Reorderer reorderer_ FW_GUARDED_BY(session_role_);
  TimeT reorder_max_seen_ FW_GUARDED_BY(session_role_) = 0;
  bool reorder_any_seen_ FW_GUARDED_BY(session_role_) = false;
  uint64_t reorder_next_seq_ FW_GUARDED_BY(session_role_) = 0;
  uint64_t late_events_ FW_GUARDED_BY(session_role_) = 0;
  uint64_t reorder_buffer_peak_ FW_GUARDED_BY(session_role_) = 0;

  /// Telemetry (DESIGN.md §13). The registry outlives the executor (it
  /// is session-owned, or the process-global scratch); handles are
  /// resolved once at construction and never per event. The handles
  /// themselves are immutable pointers; the metric objects they point at
  /// are internally thread-safe (relaxed sharded cells).
  telemetry::MetricsRegistry* const metrics_;
  /// Enqueue→folded latency of each hand-off batch, one sample per
  /// batch (cell = shard index); recorded by the workers.
  telemetry::Histogram* const handoff_hist_;
  /// The two stages of a drain point, one sample each per drain point
  /// (threaded mode only; see DeliverBuffered).
  telemetry::Histogram* const drain_wait_hist_;
  telemetry::Histogram* const drain_deliver_hist_;
  /// Per-shard in-flight-batch high-water marks (cell = shard index).
  telemetry::MaxGauge* const ring_highwater_;
  /// Watermark-released and late event tallies of the reorder stage.
  telemetry::Counter* const released_counter_;
  telemetry::Counter* const late_counter_;

  /// Closes and finalizes of topologies retired by Resize (their ops stay
  /// 0: ops ride inside checkpoints); empty until the first Resize, then
  /// added back by Counters().
  std::vector<RuntimeProfile::OperatorProfile> retired_
      FW_GUARDED_BY(session_role_);

  /// Trace-event detectors (session thread; plain counters). A watermark
  /// that holds still for kStallTraceThreshold buffered events, then
  /// advances, records a kWatermarkStall span; a run of
  /// kLateBurstThreshold consecutive late events records a kLateBurst
  /// when it ends.
  static constexpr uint64_t kStallTraceThreshold = 4096;
  static constexpr uint64_t kLateBurstThreshold = 64;
  uint64_t events_since_wm_advance_ FW_GUARDED_BY(session_role_) = 0;
  uint64_t late_run_ FW_GUARDED_BY(session_role_) = 0;
};

}  // namespace fw

#endif  // FW_RUNTIME_SHARDED_EXECUTOR_H_
