#ifndef FW_EXEC_CHECKPOINT_H_
#define FW_EXEC_CHECKPOINT_H_

#include <cstdint>
#include <string>
#include <vector>

#include "agg/aggregate.h"
#include "common/status.h"
#include "exec/event.h"

namespace fw {

/// A snapshot of one window instance's partial state inside an operator.
struct InstanceCheckpoint {
  int64_t m = 0;
  std::vector<AggState> states;  // Per key.
};

/// A snapshot of one window-aggregate operator.
struct OperatorCheckpoint {
  int operator_id = 0;
  int64_t next_m = 0;
  TimeT next_open_start = 0;
  uint64_t accumulate_ops = 0;
  std::vector<InstanceCheckpoint> open_instances;
};

/// One in-flight event of a bounded-lateness reorder stage
/// (exec/reorderer.h): buffered because its timestamp is still ahead
/// of the watermark, tagged with the global arrival sequence number that
/// makes equal-timestamp release order deterministic.
struct BufferedEvent {
  uint64_t seq = 0;
  Event event;
};

/// Snapshot of a reorder stage (runtime/ShardedExecutor with
/// Options::max_delay > 0): the event-time clock, late/buffer accounting,
/// and every buffered event. Inactive — all defaults, no events — for
/// strict-order executors, in which case serialization writes only a
/// cleared reorder-section flag.
struct ReorderCheckpoint {
  bool any_seen = false;
  TimeT max_seen = 0;
  /// The lateness bound the snapshot was taken under. Restoring into an
  /// executor with a different bound would move the watermark relative
  /// to the engines' progress, so Restore requires an exact match.
  TimeT max_delay = 0;
  uint64_t next_seq = 0;
  uint64_t late_events = 0;
  uint64_t buffer_peak = 0;
  std::vector<BufferedEvent> events;  // In arrival (seq) order.

  /// Ignores max_delay: a bounded-lateness executor that never saw an
  /// event has no state worth carrying, exactly like a strict one.
  bool Inactive() const {
    return !any_seen && next_seq == 0 && late_events == 0 &&
           buffer_peak == 0 && events.empty();
  }
};

/// A consistent snapshot of a whole plan execution, taken between events.
/// Restoring it into a fresh PlanExecutor over the same plan resumes the
/// computation exactly where it stopped — the library-level analogue of
/// the engine-state handling the paper notes Scotty must implement per
/// engine (§I: "Scotty needs to handle checkpoints and state backends for
/// Apache Flink"); here it falls out of the operator model.
struct ExecutorCheckpoint {
  std::vector<OperatorCheckpoint> operators;
  /// In-flight reorder-buffer state (bounded-lateness executors only; see
  /// DESIGN.md §9). PlanExecutor itself neither writes nor reads it —
  /// ShardedExecutor owns the reorder stage and this section with it.
  ReorderCheckpoint reorder;

  /// One binary layout on common/codec.h, so checkpoints can be persisted
  /// and restored across processes: the magic "FWCB"; a U32 operator
  /// count and per operator its id, next_m, next_open_start,
  /// accumulate_ops and open instances (m, then one EncodeAggState record
  /// per key); a U8 reorder-section flag and, when set, the section.
  /// Deserialize rejects any other magic (the retired text format
  /// included), truncation, and trailing bytes with a Status.
  std::string Serialize() const;
  static Result<ExecutorCheckpoint> Deserialize(const std::string& bytes);
};

}  // namespace fw

#endif  // FW_EXEC_CHECKPOINT_H_
