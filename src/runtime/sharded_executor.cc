#include "runtime/sharded_executor.h"

#include <algorithm>
#include <atomic>
#include <thread>
#include <tuple>
#include <utility>

#include "common/clock.h"
#include "common/logging.h"
#include "runtime/partition.h"
#include "runtime/shard_checkpoint.h"
#include "runtime/spsc_queue.h"

namespace fw {

namespace {
/// The SPSC hand-off unit: a producer-built columnar event batch stamped
/// with its enqueue time, so the consuming worker can record one
/// enqueue→folded latency sample per batch — zero per-event clock reads.
/// Columnar end to end:
/// the producer appends routed events straight into the columns and the
/// worker folds them through PlanExecutor::PushColumns, so per-event and
/// columnar ingestion share one engine-side hot path.
struct EventBatch {
  EventColumns columns;
  uint64_t enqueued_ns = 0;
  /// The epoch the events were pushed in: selects the run set the
  /// worker's BufferSink writes while folding them.
  uint64_t epoch = 0;
};

/// Waits until a worker has folded `target` batches; the acquire load
/// pairs with the worker's release after each one.
void AwaitConsumed(const std::atomic<uint64_t>& consumed, uint64_t target) {
  SpinBackoff backoff;
  while (consumed.load(std::memory_order_acquire) < target) backoff.Pause();
}
}  // namespace

/// One worker shard. The members split into three ownership classes,
/// annotated for the thread-safety analysis (DESIGN.md §12):
///
///  * worker-owned (`executor`, `buffer`): guarded by `worker_role` — the
///    worker folds batches into them; the session thread reclaims them
///    only across a quiesce (`consumed == enqueued`, whose acquire load
///    pairs with the worker's release increment) or after joining the
///    worker, and reads one closed epoch's run set of `buffer` once
///    `consumed` reaches `epoch_enqueued`; every such site asserts the
///    role naming that edge;
///  * session-owned (`pending`, `enqueued`, `epoch_enqueued`, `worker`):
///    guarded by the executor's session role (held here by pointer,
///    since a capability expression must name a member reachable from
///    the shard);
///  * the synchronization fabric itself (`queue`, `consumed`): the SPSC
///    ring and the quiesce counter are the primitives that *create* the
///    handoff edges, so they are intentionally unguarded — their safety
///    argument is the memory-order analysis in runtime/spsc_queue.h.
struct ShardedExecutor::Shard {
  Shard(size_t queue_capacity, const ThreadRole* session, uint32_t shard_index,
        telemetry::Histogram* handoff, size_t num_operators)
      : session_role(session),
        index(shard_index),
        handoff_hist(handoff),
        buffer(num_operators),
        queue(queue_capacity) {}

  /// Capability of this shard's worker thread (see above).
  ThreadRole worker_role;
  /// The owning executor's session_role_, the producer-side capability.
  const ThreadRole* const session_role;
  /// Position in the topology — the metric cell this shard writes.
  const uint32_t index;
  /// Batch hand-off latency sink (internally thread-safe; see the
  /// executor's handoff_hist_).
  telemetry::Histogram* const handoff_hist;

  BufferSink buffer FW_GUARDED_BY(worker_role);
  std::unique_ptr<PlanExecutor> executor FW_GUARDED_BY(worker_role);
  SpscQueue<EventBatch> queue;
  /// Producer-side partial batch (columnar), session thread only.
  EventColumns pending FW_GUARDED_BY(session_role);
  /// Batches handed off so far; session thread only.
  uint64_t enqueued FW_GUARDED_BY(session_role) = 0;
  /// `enqueued` at the last periodic drain point: once `consumed`
  /// reaches it, the worker has folded every epoch before the current
  /// one.
  uint64_t epoch_enqueued FW_GUARDED_BY(session_role) = 0;
  /// Batches fully processed; written by the worker (release) and read by
  /// the session thread (acquire) — equality with `enqueued` is the
  /// quiesce point that publishes the shard's executor/buffer state.
  std::atomic<uint64_t> consumed{0};
  std::thread worker FW_GUARDED_BY(session_role);
};

ShardedExecutor::ShardedExecutor(const QueryPlan& plan,
                                 const Options& options, ResultSink* sink)
    : options_(options),
      sink_(sink),
      plan_(&plan),
      metrics_(options.metrics != nullptr ? options.metrics
                                          : telemetry::ScratchRegistry()),
      handoff_hist_(metrics_->GetHistogram("executor.batch_handoff_ns")),
      drain_wait_hist_(metrics_->GetHistogram("executor.drain_wait_ns")),
      drain_deliver_hist_(
          metrics_->GetHistogram("executor.drain_deliver_ns")),
      ring_highwater_(metrics_->GetMaxGauge("executor.ring_highwater_batches")),
      released_counter_(metrics_->GetCounter("reorder.released_events")),
      late_counter_(metrics_->GetCounter("reorder.late_events")) {
  // The constructing thread is the session thread; nothing else can see
  // the object yet.
  session_role_.AssertHeld();
  FW_CHECK(sink != nullptr);
  FW_CHECK_GT(options.num_keys, 0u);
  FW_CHECK_GT(options.batch_size, 0u);
  FW_CHECK_GE(options.max_delay, 0);
  BuildTopology();
}

void ShardedExecutor::BuildTopology() {
  FW_CHECK(!inline_executor_ && shards_.empty());
  const uint32_t shards = EffectiveShards(options_.num_shards,
                                          options_.num_keys);
  events_per_shard_.assign(shards, 0);
  PlanExecutor::Options exec_options;
  exec_options.num_keys = options_.num_keys;
  if (shards == 1) {
    inline_executor_ =
        std::make_unique<PlanExecutor>(*plan_, exec_options, sink_);
    return;
  }

  shards_.reserve(shards);
  for (uint32_t i = 0; i < shards; ++i) {
    auto shard = std::make_unique<Shard>(
        std::max<size_t>(options_.queue_capacity, 2), &session_role_, i,
        handoff_hist_, plan_->num_operators());
    // No worker exists yet: the building thread owns the whole shard,
    // worker-side members included.
    shard->worker_role.AssertHeld();
    shard->session_role->AssertHeld();
    shard->executor =
        std::make_unique<PlanExecutor>(*plan_, exec_options, &shard->buffer);
    shard->pending.Reserve(options_.batch_size);
    shards_.push_back(std::move(shard));
  }
  for (auto& shard : shards_) {
    Shard* s = shard.get();
    s->session_role->AssertHeld();  // `worker` is session-side state.
    s->worker = std::thread([s] {
      // This closure is the worker thread: between a batch's dequeue and
      // the matching `consumed` release-increment it owns the shard's
      // engine and result buffer.
      s->worker_role.AssertHeld();
      EventBatch batch;
      while (s->queue.Pop(&batch)) {
        s->buffer.set_epoch(batch.epoch);
        s->executor->PushColumns(batch.columns);
        // One sample per batch: time from producer flush to fully folded.
        s->handoff_hist->Record(s->index,
                                MonotonicNanos() - batch.enqueued_ns);
        // The release publishes the folded state and its results.
        s->consumed.fetch_add(1, std::memory_order_release);
      }
    });
  }
}

ShardedExecutor::~ShardedExecutor() {
  // Destruction happens on the session thread after all other use.
  session_role_.AssertHeld();
  StopWorkers();
}

void ShardedExecutor::StopWorkers() {
  if (inline_executor_ || stopped_) return;
  for (auto& shard : shards_) {
    shard->session_role->AssertHeld();  // Producer side: session thread.
    FlushPending(shard.get());
    shard->queue.Close();
  }
  for (auto& shard : shards_) {
    shard->session_role->AssertHeld();
    if (shard->worker.joinable()) shard->worker.join();
  }
  stopped_ = true;
}

void ShardedExecutor::FlushPending(Shard* shard) {
  // FW_REQUIRES(session_role_) callers: the shard's producer side is the
  // same capability, reached through the shard's back-pointer.
  shard->session_role->AssertHeld();
  if (shard->pending.empty()) return;
  EventBatch batch;
  batch.columns.Reserve(options_.batch_size);
  batch.columns.Swap(&shard->pending);  // Leaves a fresh reserved buffer.
  batch.enqueued_ns = MonotonicNanos();
  batch.epoch = epoch_;
  shard->queue.Push(std::move(batch));
  ++shard->enqueued;
  // In-flight high-water mark (relaxed read: an undercount by in-flight
  // consumption only makes the mark conservative, never wrong).
  ring_highwater_->UpdateMax(
      shard->index,
      shard->enqueued - shard->consumed.load(std::memory_order_relaxed));
}

void ShardedExecutor::Push(const Event& event) {
  session_role_.AssertHeld();  // Public entry: session thread only.
  if (!inline_executor_) FW_CHECK(!stopped_) << "Push after Finish";
  if (options_.max_delay > 0) {
    ReorderPush(event);
  } else {
    DeliverToShard(event);
  }
  EndPush();
}

void ShardedExecutor::EndPush() {
  if (!inline_executor_ && ++events_since_drain_ >= options_.drain_interval) {
    CloseEpoch();
  }
}

void ShardedExecutor::DeliverToShard(const Event& event) {
  if (!delivered_any_ || event.timestamp > delivered_max_) {
    delivered_max_ = event.timestamp;
    delivered_any_ = true;
  }
  if (inline_executor_) {
    ++events_per_shard_[0];
    inline_executor_->Push(event);
    return;
  }
  const uint32_t shard_index =
      ShardForKey(event.key, static_cast<uint32_t>(shards_.size()));
  ++events_per_shard_[shard_index];
  Shard* shard = shards_[shard_index].get();
  shard->session_role->AssertHeld();  // Producer side: session thread.
  shard->pending.Append(event);
  if (shard->pending.size() >= options_.batch_size) FlushPending(shard);
}

void ShardedExecutor::PushColumns(const EventColumns& columns) {
  session_role_.AssertHeld();  // Public entry: session thread only.
  const size_t count = columns.size();
  if (count == 0) return;
  if (!inline_executor_) FW_CHECK(!stopped_) << "Push after Finish";
  if (options_.max_delay > 0) {
    // Lateness classification is inherently per event — each one tests or
    // moves the watermark — so the batch unrolls into ReorderPush; the
    // released events still land in the shards' columnar pending batches
    // and fold through the engines' batch accumulate.
    for (size_t i = 0; i < count; ++i) {
      ReorderPush(columns[i]);
      EndPush();
    }
    return;
  }
  // Strict mode: the batch is timestamp-ordered (same contract as Push),
  // so its last timestamp is its maximum. Checkpoint/Resize cannot run
  // mid-call, so advancing the frontier up front is equivalent to the
  // per-event updates.
  const TimeT last = columns.timestamps[count - 1];
  if (!delivered_any_ || last > delivered_max_) {
    delivered_max_ = last;
    delivered_any_ = true;
  }
  if (inline_executor_) {
    events_per_shard_[0] += count;
    inline_executor_->PushColumns(columns);
    return;
  }
  // One pass computes the whole batch's shard permutation — no per-event
  // hash re-entry — then an arrival-order scatter keeps batch hand-offs
  // and drain points at the exact event positions per-event Push would
  // produce, so delivery order stays deterministic and identical.
  shard_ids_.resize(count);
  ComputeShardIds(columns.keys.data(), count, num_shards(),
                  shard_ids_.data());
  for (size_t i = 0; i < count; ++i) {
    const uint32_t shard_index = shard_ids_[i];
    ++events_per_shard_[shard_index];
    Shard* shard = shards_[shard_index].get();
    shard->session_role->AssertHeld();  // Producer side: session thread.
    shard->pending.Append(columns.timestamps[i], columns.keys[i],
                          columns.values[i]);
    if (shard->pending.size() >= options_.batch_size) FlushPending(shard);
    EndPush();
  }
}

void ShardedExecutor::ReorderPush(const Event& event) {
  if (reorder_any_seen_ && event.timestamp < current_watermark()) {
    ++late_events_;
    late_counter_->Increment(0);
    ++late_run_;
    if (options_.late_sink) options_.late_sink(event);
    return;
  }
  if (late_run_ >= kLateBurstThreshold) {
    // A long run of consecutive late events just ended — the shape of an
    // upstream replay or a clock glitch; worth a trace mark.
    metrics_->RecordTrace(telemetry::TraceKind::kLateBurst, 0,
                          static_cast<int64_t>(late_run_));
  }
  late_run_ = 0;
  const bool advanced =
      !reorder_any_seen_ || event.timestamp > reorder_max_seen_;
  if (advanced) {
    if (events_since_wm_advance_ >= kStallTraceThreshold) {
      // The watermark finally moved after holding still across many
      // buffered events — a stalled upstream timestamp source.
      metrics_->RecordTrace(telemetry::TraceKind::kWatermarkStall, 0,
                            static_cast<int64_t>(events_since_wm_advance_));
    }
    events_since_wm_advance_ = 0;
    reorder_max_seen_ = event.timestamp;
  } else {
    ++events_since_wm_advance_;
  }
  reorder_any_seen_ = true;
  reorderer_.Buffer(event, reorder_next_seq_++);
  reorder_buffer_peak_ =
      std::max<uint64_t>(reorder_buffer_peak_, reorderer_.buffered());
  // If the watermark held still, only this event can sit on it.
  ReleaseThrough(current_watermark());
}

void ShardedExecutor::ReleaseThrough(TimeT watermark) {
  reorderer_.ReleaseThrough(watermark, [this](const Event& event) {
    session_role_.AssertHeld();  // Synchronous callback, same thread.
    released_counter_->Increment(0);
    DeliverToShard(event);
  });
}

void ShardedExecutor::Quiesce() {
  for (auto& shard : shards_) FlushPending(shard.get());
  for (auto& shard : shards_) {
    shard->session_role->AssertHeld();  // `enqueued` is producer-side.
    AwaitConsumed(shard->consumed, shard->enqueued);
  }
}

void ShardedExecutor::BufferSink::OnBlock(int operator_id, TimeT start,
                                          TimeT end, const uint32_t* keys,
                                          const double* values,
                                          size_t count) {
  Run& run = runs_[parity_][static_cast<size_t>(operator_id)];
  // Within one run equal (start, end) means the same instance: this is
  // the second block of a close.
  if (!run.blocks.empty() && run.blocks.back().start == start &&
      run.blocks.back().end == end) {
    run.blocks.back().count += count;
  } else {
    run.blocks.push_back({start, end, run.keys.size(), count});
  }
  run.keys.insert(run.keys.end(), keys, keys + count);
  run.values.insert(run.values.end(), values, values + count);
}

void ShardedExecutor::BufferSink::Clear(uint64_t epoch) {
  for (Run& run : runs_[epoch & 1]) {
    run.blocks.clear();
    run.keys.clear();
    run.values.clear();
  }
}

void ShardedExecutor::DeliverBuffered(uint64_t drain_started_ns,
                                      uint64_t end) {
  const uint64_t deliver_started_ns = MonotonicNanos();
  drain_wait_hist_->Record(0, deliver_started_ns - drain_started_ns);
  merge_heap_.clear();
  for (auto& shard : shards_) {
    // The session thread owns the run sets of epochs [undelivered_, end):
    // at a full drain point the caller quiesced (or joined) the worker;
    // at a periodic one it waited for consumed >= epoch_enqueued, the
    // acquire that pairs with the worker's release after the epoch's
    // last batch. The worker writes those run sets again only for
    // batches of later epochs, enqueued after this returns.
    shard->worker_role.AssertHeld();
    for (uint64_t epoch = undelivered_; epoch < end; ++epoch) {
      const std::vector<BufferSink::Run>& runs = shard->buffer.runs(epoch);
      for (size_t op = 0; op < runs.size(); ++op) {
        const std::vector<BufferSink::Block>& blocks = runs[op].blocks;
        if (blocks.empty()) continue;
        merge_heap_.push_back({&runs[op], blocks.data(),
                               blocks.data() + blocks.size(),
                               static_cast<int>(op), 0});
      }
    }
  }
  // Each run's blocks are strictly increasing in (end, start), so ordering
  // the runs by their head block's (end, start, operator) delivers
  // instances in merge order; the min-heap takes one step per run holding
  // the instance. A shard closes an instance once, so at a full drain
  // point its older epoch's run and its current one never share one.
  const auto later = [](const RunCursor& a, const RunCursor& b) {
    return std::tie(b.next->end, b.next->start, b.operator_id) <
           std::tie(a.next->end, a.next->start, a.operator_id);
  };
  std::make_heap(merge_heap_.begin(), merge_heap_.end(), later);
  while (!merge_heap_.empty()) {
    // Pop every run whose head block is the smallest instance: one per
    // shard that holds keys of it. The heap's front is never smaller than
    // the popped minimum, so "not later" means the same instance.
    merge_blocks_.clear();
    do {
      std::pop_heap(merge_heap_.begin(), merge_heap_.end(), later);
      merge_blocks_.push_back(merge_heap_.back());
      merge_heap_.pop_back();
    } while (!merge_heap_.empty() &&
             !later(merge_heap_.front(), merge_blocks_.front()));
    const RunCursor& first = merge_blocks_.front();
    const BufferSink::Block& head = *first.next;
    if (merge_blocks_.size() == 1) {
      sink_->OnBlock(first.operator_id, head.start, head.end,
                     first.run->keys.data() + head.offset,
                     first.run->values.data() + head.offset, head.count);
    } else {
      // Several shards closed this instance: merge their blocks by key
      // into one. Keys never span shards, so heads never tie.
      merge_keys_.clear();
      merge_values_.clear();
      while (true) {
        RunCursor* smallest = nullptr;
        uint32_t smallest_key = 0;
        for (RunCursor& block : merge_blocks_) {
          if (block.taken == block.next->count) continue;
          const uint32_t key =
              block.run->keys[block.next->offset + block.taken];
          if (smallest == nullptr || key < smallest_key) {
            smallest = &block;
            smallest_key = key;
          }
        }
        if (smallest == nullptr) break;
        merge_keys_.push_back(smallest_key);
        merge_values_.push_back(
            smallest->run->values[smallest->next->offset + smallest->taken]);
        ++smallest->taken;
      }
      sink_->OnBlock(first.operator_id, head.start, head.end,
                     merge_keys_.data(), merge_values_.data(),
                     merge_keys_.size());
    }
    for (RunCursor& block : merge_blocks_) {
      block.taken = 0;
      if (++block.next == block.end) continue;
      merge_heap_.push_back(block);
      std::push_heap(merge_heap_.begin(), merge_heap_.end(), later);
    }
  }
  for (auto& shard : shards_) {
    shard->worker_role.AssertHeld();  // Still owned (see above).
    for (uint64_t epoch = undelivered_; epoch < end; ++epoch) {
      shard->buffer.Clear(epoch);
    }
  }
  drain_deliver_hist_->Record(0, MonotonicNanos() - deliver_started_ns);
  undelivered_ = end;
  ++epoch_;
  events_since_drain_ = 0;
}

void ShardedExecutor::CloseEpoch() {
  const uint64_t drain_started_ns = MonotonicNanos();
  for (auto& shard : shards_) FlushPending(shard.get());
  for (auto& shard : shards_) {
    shard->session_role->AssertHeld();  // `enqueued` is producer-side.
    // Only the outstanding epoch, which in steady state the worker folded
    // while the session thread pushed the one closing now. With none
    // outstanding (after a full drain point) this returns at once.
    AwaitConsumed(shard->consumed, shard->epoch_enqueued);
    shard->epoch_enqueued = shard->enqueued;
  }
  DeliverBuffered(drain_started_ns, epoch_);
}

void ShardedExecutor::Drain() {
  session_role_.AssertHeld();  // Public entry: session thread only.
  if (inline_executor_) return;
  const uint64_t drain_started_ns = MonotonicNanos();
  Quiesce();
  DeliverBuffered(drain_started_ns, epoch_ + 1);
}

void ShardedExecutor::Finish() {
  session_role_.AssertHeld();  // Public entry: session thread only.
  // End of stream: drain the reorder buffer first, so every buffered
  // event is folded before any window finalizes.
  ReleaseThrough(std::numeric_limits<TimeT>::max());
  if (inline_executor_) {
    inline_executor_->Finish();
    return;
  }
  const uint64_t drain_started_ns = MonotonicNanos();
  StopWorkers();
  for (auto& shard : shards_) {
    // Workers are joined: the join published everything they wrote, so
    // flushing the shard plans from this thread is safe.
    shard->worker_role.AssertHeld();
    shard->buffer.set_epoch(epoch_);
    shard->executor->Finish();
  }
  DeliverBuffered(drain_started_ns, epoch_ + 1);
}

ReorderCheckpoint ShardedExecutor::ReorderSection() const {
  ReorderCheckpoint meta;
  meta.any_seen = reorder_any_seen_;
  meta.max_seen = reorder_max_seen_;
  meta.max_delay = options_.max_delay;
  meta.next_seq = reorder_next_seq_;
  meta.late_events = late_events_;
  meta.buffer_peak = reorder_buffer_peak_;
  meta.events = reorderer_.Snapshot();
  return meta;
}

Result<ExecutorCheckpoint> ShardedExecutor::Checkpoint() {
  session_role_.AssertHeld();  // Public entry: session thread only.
  // Canonicalize before snapshotting: close every instance the delivered
  // frontier allows, in every engine. Without this, *when* an instance
  // closes depends on when its operator's next local input arrived —
  // which differs across shard counts — so a straddling instance could be
  // open on one topology and already emitted on another, and a cold
  // operator introduced by a replan would see different provider tails.
  // After CloseThrough, the snapshot is a pure function of the delivered
  // stream (DESIGN.md §10). Sound because every future delivery carries a
  // timestamp at or past the frontier - 1 (strict mode: input is ordered;
  // bounded-lateness mode: releases never regress behind the watermark).
  const TimeT close_frontier = delivered_max_ + 1;
  Result<ExecutorCheckpoint> checkpoint = ExecutorCheckpoint{};
  if (inline_executor_) {
    if (delivered_any_) inline_executor_->CloseThrough(close_frontier);
    checkpoint = inline_executor_->Checkpoint();
  } else {
    const uint64_t drain_started_ns = MonotonicNanos();
    Quiesce();
    if (delivered_any_) {
      // Workers are quiesced, so the session thread may drive the engines;
      // close results extend the current epoch's per-operator runs.
      for (auto& shard : shards_) {
        shard->worker_role.AssertHeld();  // Quiesced (see above).
        shard->buffer.set_epoch(epoch_);
        shard->executor->CloseThrough(close_frontier);
      }
    }
    DeliverBuffered(drain_started_ns, epoch_ + 1);
    std::vector<ExecutorCheckpoint> parts;
    parts.reserve(shards_.size());
    for (auto& shard : shards_) {
      shard->worker_role.AssertHeld();  // Still quiesced: no pushes since
                                        // the drain above.
      Result<ExecutorCheckpoint> part = shard->executor->Checkpoint();
      if (!part.ok()) return part.status();
      parts.push_back(std::move(*part));
    }
    checkpoint = MergeShardCheckpoints(parts);
  }
  if (!checkpoint.ok()) return checkpoint;
  if (options_.max_delay > 0) checkpoint->reorder = ReorderSection();
  metrics_->RecordTrace(telemetry::TraceKind::kCheckpoint, 0,
                        static_cast<int64_t>(checkpoint->operators.size()));
  return checkpoint;
}

namespace {

bool AnyOperatorProgress(const ExecutorCheckpoint& checkpoint) {
  for (const OperatorCheckpoint& op : checkpoint.operators) {
    if (op.next_m > 0 || op.next_open_start > 0 || op.accumulate_ops > 0 ||
        !op.open_instances.empty()) {
      return true;
    }
  }
  return false;
}

/// Rejects buffered events no reorder stage could have written. A
/// buffered event releases into the engines' per-key state arrays later,
/// far from any validation, so it must be checked while the restore is
/// still atomic: a stage buffers only after its first event, in arrival
/// order, below next_seq, and only events at or above its watermark (and
/// at or below the newest timestamp it saw), with keys in range.
Status CheckBufferedEvents(const ReorderCheckpoint& reorder,
                           uint32_t num_keys) {
  if (reorder.events.empty()) return Status::OK();
  if (!reorder.any_seen) {
    return Status::InvalidArgument(
        "checkpoint buffers " + std::to_string(reorder.events.size()) +
        " events, but its reorder stage saw none");
  }
  uint64_t previous_seq = 0;
  for (size_t i = 0; i < reorder.events.size(); ++i) {
    const BufferedEvent& buffered = reorder.events[i];
    const TimeT t = buffered.event.timestamp;
    if (buffered.event.key >= num_keys) {
      return Status::InvalidArgument(
          "checkpoint buffers an event with key " +
          std::to_string(buffered.event.key) + " outside key space [0, " +
          std::to_string(num_keys) + ")");
    }
    // 0 <= t <= max_seen is tested first, so the watermark cannot
    // overflow.
    if (t < 0 || t > reorder.max_seen ||
        t < reorder.max_seen - reorder.max_delay) {
      return Status::InvalidArgument(
          "checkpoint buffers an event at timestamp " + std::to_string(t) +
          ", outside [max(0, max seen - max_delay), max seen] for max seen " +
          std::to_string(reorder.max_seen) + " and max_delay " +
          std::to_string(reorder.max_delay));
    }
    if (buffered.seq >= reorder.next_seq ||
        (i > 0 && buffered.seq <= previous_seq)) {
      return Status::InvalidArgument(
          "checkpoint buffers arrival sequence number " +
          std::to_string(buffered.seq) +
          " out of order or at or past next_seq " +
          std::to_string(reorder.next_seq));
    }
    previous_seq = buffered.seq;
  }
  return Status::OK();
}

}  // namespace

Status ShardedExecutor::Restore(const ExecutorCheckpoint& checkpoint) {
  session_role_.AssertHeld();  // Public entry: session thread only.
  if (options_.max_delay == 0 && !checkpoint.reorder.events.empty()) {
    return Status::InvalidArgument(
        "checkpoint holds " + std::to_string(checkpoint.reorder.events.size()) +
        " buffered out-of-order events, but this executor is strict-order "
        "(max_delay = 0)");
  }
  if (options_.max_delay > 0 && checkpoint.reorder.Inactive() &&
      AnyOperatorProgress(checkpoint)) {
    // The mirror direction: a strict-order run's snapshot carries no
    // event-time clock, so a bounded-lateness executor would accept
    // events arbitrarily far behind the restored operators' progress and
    // misfold them silently.
    return Status::InvalidArgument(
        "checkpoint was taken mid-stream by a strict-order executor (no "
        "event-time clock); it cannot resume under max_delay > 0");
  }
  if (options_.max_delay > 0 && !checkpoint.reorder.Inactive() &&
      checkpoint.reorder.max_delay != options_.max_delay) {
    // A different bound moves the watermark relative to the snapshotted
    // engines' progress — a larger one would regress it and release
    // events behind windows that already closed.
    return Status::InvalidArgument(
        "checkpoint was taken under max_delay " +
        std::to_string(checkpoint.reorder.max_delay) +
        ", but this executor runs max_delay " +
        std::to_string(options_.max_delay) +
        "; the watermark cannot change mid-stream");
  }
  FW_RETURN_IF_ERROR(CheckBufferedEvents(checkpoint.reorder,
                                         options_.num_keys));
  if (inline_executor_) {
    // PlanExecutor reads only the operator section; the reorder section
    // is restored below by the stage that owns it.
    FW_RETURN_IF_ERROR(inline_executor_->Restore(checkpoint));
  } else {
    // A drain point (see the declaration): the results the shards hold
    // reach the sink before the restored engines can re-emit instances
    // they repeat, which also keeps every per-operator run increasing.
    Drain();
    for (uint32_t i = 0; i < num_shards(); ++i) {
      // Quiesced by the drain: the worker only touches its executor while
      // a batch is in flight, so restoring from the session thread is
      // race-free; the queue's release/acquire pair on the next batch
      // publishes the new state.
      shards_[i]->worker_role.AssertHeld();
      FW_RETURN_IF_ERROR(shards_[i]->executor->Restore(
          ExtractShardCheckpoint(checkpoint, i, num_shards())));
    }
  }
  // The close frontier tracks *this* execution's deliveries; the restored
  // state may be older (a rollback-replay), in which case a stale frontier
  // would make the next Checkpoint close windows the replay still owes
  // events to. Restart it — re-deliveries rebuild it, and a canonical
  // checkpoint has nothing left to close below its own frontier anyway.
  delivered_max_ = 0;
  delivered_any_ = false;
  if (options_.max_delay > 0) {
    const ReorderCheckpoint& reorder = checkpoint.reorder;
    reorder_any_seen_ = reorder.any_seen;
    reorder_max_seen_ = reorder.max_seen;
    reorder_next_seq_ = reorder.next_seq;
    late_events_ = reorder.late_events;
    reorder_buffer_peak_ =
        std::max(reorder.buffer_peak, uint64_t{reorder.events.size()});
    // Original arrival sequence numbers keep the release order exact.
    reorderer_.Clear();
    for (const BufferedEvent& buffered : reorder.events) {
      reorderer_.Buffer(buffered.event, buffered.seq);
    }
  }
  return Status::OK();
}

Status ShardedExecutor::Resize(uint32_t new_num_shards) {
  session_role_.AssertHeld();  // Public entry: session thread only.
  if (new_num_shards == 0) {
    return Status::InvalidArgument("num_shards must be >= 1");
  }
  FW_CHECK(!stopped_) << "Resize after Finish";
  const uint32_t target =
      EffectiveShards(new_num_shards, options_.num_keys);
  if (target == num_shards()) {
    // Same effective width (e.g. 8 -> 16 over 4 keys): no swap, just
    // remember the requested count.
    options_.num_shards = new_num_shards;
    return Status::OK();
  }
  // Quiesce + snapshot: Checkpoint drains first, so every buffered result
  // reaches the sink before the swap, and the global view carries window
  // state, the reorder buffer, the event-time clock, and all cumulative
  // counters.
  Result<ExecutorCheckpoint> checkpoint = Checkpoint();
  if (!checkpoint.ok()) return checkpoint.status();
  // Bank the outgoing topology's closes and finalizes: the fresh engines
  // restart them at zero, and Counters() adds retired_ back. Counters()
  // already includes the earlier banks, so it replaces them.
  retired_ = Counters();
  for (RuntimeProfile::OperatorProfile& op : retired_) op.accumulate_ops = 0;
  // Tear down the old topology. Workers are joined before their engines
  // are discarded; their queues are already empty from the drain.
  if (!inline_executor_) {
    StopWorkers();
    stopped_ = false;
  }
  inline_executor_.reset();
  shards_.clear();
  options_.num_shards = new_num_shards;
  // Rebuild at the new width and split the snapshot's operator state
  // across it. Restore re-buffers the in-flight reorder events unchanged
  // and cannot fail: the checkpoint came from this very executor (same
  // plan, key space, and lateness mode).
  BuildTopology();
  return Restore(*checkpoint);
}

double ShardedExecutor::RingOccupancy() const {
  session_role_.AssertHeld();  // Public entry: session thread only.
  double worst = 0.0;
  for (const auto& shard : shards_) {
    shard->session_role->AssertHeld();  // `enqueued` is producer-side.
    // In flight = the ring's contents plus the batch the worker popped
    // and is still folding, so at most capacity + 1.
    const uint64_t in_flight =
        shard->enqueued - shard->consumed.load(std::memory_order_acquire);
    worst = std::max(
        worst, static_cast<double>(in_flight) /
                   static_cast<double>(shard->queue.capacity() + 1));
  }
  return worst;
}

uint64_t ShardedExecutor::TotalAccumulateOps() const {
  session_role_.AssertHeld();  // Public entry: session thread only.
  if (inline_executor_) return inline_executor_->TotalAccumulateOps();
  // Logically const: Quiesce only synchronizes with the workers so the
  // counters are exact; no results are delivered and no state changes.
  const_cast<ShardedExecutor*>(this)->Quiesce();
  uint64_t total = 0;
  for (const auto& shard : shards_) {
    shard->worker_role.AssertHeld();  // Quiesced (see above).
    total += shard->executor->TotalAccumulateOps();
  }
  return total;
}

std::vector<RuntimeProfile::OperatorProfile> ShardedExecutor::Counters()
    const {
  session_role_.AssertHeld();  // Public entry: session thread only.
  // Logically const, like TotalAccumulateOps.
  if (!inline_executor_) const_cast<ShardedExecutor*>(this)->Quiesce();
  std::vector<RuntimeProfile::OperatorProfile> counters = retired_;
  const auto add = [&counters](const PlanExecutor& executor) {
    const std::vector<uint64_t> ops = executor.PerOperatorOps();
    const std::vector<uint64_t> closes = executor.PerOperatorCloses();
    const std::vector<uint64_t> finalizes = executor.PerOperatorFinalizes();
    if (counters.empty()) {
      counters.resize(ops.size());
      for (size_t i = 0; i < ops.size(); ++i) {
        counters[i].operator_id = static_cast<int>(i);
      }
    }
    FW_CHECK_EQ(ops.size(), counters.size());
    for (size_t i = 0; i < ops.size(); ++i) {
      counters[i].accumulate_ops += ops[i];
      counters[i].closed_instances += closes[i];
      counters[i].finalized_results += finalizes[i];
    }
  };
  if (inline_executor_) add(*inline_executor_);
  for (const auto& shard : shards_) {
    shard->worker_role.AssertHeld();  // Quiesced (or joined) above.
    add(*shard->executor);
  }
  return counters;
}

}  // namespace fw
