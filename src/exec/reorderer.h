#ifndef FW_EXEC_REORDERER_H_
#define FW_EXEC_REORDERER_H_

#include <algorithm>
#include <cstdint>
#include <limits>
#include <tuple>
#include <vector>

#include "exec/checkpoint.h"
#include "exec/event.h"

namespace fw {

/// The bounded-disorder buffer of the event-time pipeline (DESIGN.md §9):
/// holds events whose timestamps are still ahead of the watermark and
/// releases them, once the watermark passes, in (timestamp, arrival
/// sequence) order.
///
/// The ordering is *stable*: equal-timestamp events of one key always
/// release in arrival order because arrival sequence numbers are assigned
/// by the session thread before partitioning. This is what keeps a key's
/// fold order — and therefore every result, bit for bit — identical
/// across shard counts.
///
/// The watermark is external: ShardedExecutor drives its one Reorderer,
/// ahead of partitioning, from one event-time clock (the maximum
/// timestamp seen across the whole stream minus max_delay), so lateness
/// and release decisions never depend on how keys are partitioned.
/// Classifying an event as late (below the watermark) is the caller's
/// job; a Reorderer only ever holds events at or above it.
class Reorderer {
 public:
  /// Buffers one event under its global arrival sequence number.
  void Buffer(const Event& event, uint64_t seq);

  /// Pops every buffered event with timestamp <= watermark, in
  /// (timestamp, seq) order, into `emit(const Event&)`. Returns the count
  /// released. `emit` must not touch this Reorderer.
  template <typename EmitFn>
  size_t ReleaseThrough(TimeT watermark, EmitFn&& emit) {
    size_t released = 0;
    while (!heap_.empty() && heap_.front().event.timestamp <= watermark) {
      std::pop_heap(heap_.begin(), heap_.end(), ReleasesLater());
      emit(heap_.back().event);
      heap_.pop_back();
      ++released;
    }
    return released;
  }

  /// Pops everything (end of stream: Finish drains the buffers before any
  /// window finalizes).
  template <typename EmitFn>
  size_t ReleaseAll(EmitFn&& emit) {
    return ReleaseThrough(std::numeric_limits<TimeT>::max(),
                          std::forward<EmitFn>(emit));
  }

  size_t buffered() const { return heap_.size(); }
  void Clear() { heap_.clear(); }

  /// The buffered events in arrival (seq) order, for checkpointing.
  std::vector<BufferedEvent> Snapshot() const;

 private:
  /// "Greater" on (timestamp, seq), turning std::*_heap's max-heap into a
  /// min-heap that releases the oldest (and, on ties, earliest-arrived)
  /// event first.
  struct ReleasesLater {
    bool operator()(const BufferedEvent& a, const BufferedEvent& b) const {
      return std::tie(a.event.timestamp, a.seq) >
             std::tie(b.event.timestamp, b.seq);
    }
  };

  std::vector<BufferedEvent> heap_;  // std::*_heap under ReleasesLater.
};

}  // namespace fw

#endif  // FW_EXEC_REORDERER_H_
