#ifndef FW_EXEC_COLUMNS_H_
#define FW_EXEC_COLUMNS_H_

#include <cstddef>
#include <cstdint>
#include <type_traits>
#include <vector>

#include "common/logging.h"
#include "common/status.h"
#include "exec/event.h"

namespace fw {

/// Struct-of-arrays event batch — the columnar ingestion unit (DESIGN.md
/// §14). Columns are parallel: timestamps[i]/keys[i]/values[i] describe
/// event i, in stream order. The engine's batch accumulate reads the
/// value column with unit stride, which is what makes the per-run folds
/// vectorizable; every ingestion entry point calls Validate() up front so
/// a ragged batch is rejected before any event is applied.
struct EventColumns {
  std::vector<TimeT> timestamps;
  std::vector<uint32_t> keys;
  std::vector<double> values;

  size_t size() const { return timestamps.size(); }
  bool empty() const { return timestamps.empty(); }

  /// Clears all columns; capacity is kept (batches are recycled across
  /// queue hand-offs).
  void clear() {
    timestamps.clear();
    keys.clear();
    values.clear();
  }

  void Reserve(size_t n) {
    timestamps.reserve(n);
    keys.reserve(n);
    values.reserve(n);
  }

  void Append(TimeT timestamp, uint32_t key, double value) {
    timestamps.push_back(timestamp);
    keys.push_back(key);
    values.push_back(value);
  }
  void Append(const Event& event) {
    Append(event.timestamp, event.key, event.value);
  }

  /// Row view of event `i`. Bounds are the caller's responsibility, like
  /// vector::operator[].
  Event operator[](size_t i) const {
    return Event{timestamps[i], keys[i], values[i]};
  }

  void Swap(EventColumns* other) {
    timestamps.swap(other->timestamps);
    keys.swap(other->keys);
    values.swap(other->values);
  }

  /// All columns must be the same length; reports each length on
  /// mismatch. Every PushColumns entry point runs this before touching
  /// any event, so a ragged batch is all-or-nothing rejected.
  Status Validate() const;

  /// Transposes row-form events (PushBatch's input).
  static EventColumns FromEvents(const std::vector<Event>& events);
};

// EventColumns rides through SpscQueue hand-offs (runtime/spsc_queue.h),
// whose protocol requires nothrow moves.
static_assert(std::is_nothrow_move_constructible_v<EventColumns>);
static_assert(std::is_nothrow_move_assignable_v<EventColumns>);

/// One run's events grouped by key, the input of
/// WindowAggregateOperator::AccumulateRun. The grouping is a stable
/// counting sort: within a key the values keep their stream order, so
/// folding a group with one batch-kernel call is bitwise identical to
/// per-event folds (order-sensitive functions like FIRST/LAST included).
/// Grouping does not depend on the reader, so a run that feeds several
/// raw readers is grouped once (PlanExecutor::PushColumns).
class KeyGroups {
 public:
  KeyGroups() = default;
  // The views below may point into the object itself.
  KeyGroups(const KeyGroups&) = delete;
  KeyGroups& operator=(const KeyGroups&) = delete;

  /// Groups the parallel `keys`/`values` spans; every key must lie in
  /// [0, num_keys) (checked). Costs O(count + distinct keys), whatever
  /// num_keys is: the key-indexed counters are zeroed again before it
  /// returns. A one-event run, the common case on sparse streams, copies
  /// nothing and stays inline.
  void Assign(const uint32_t* keys, const double* values, size_t count,
              uint32_t num_keys) {
    count_ = count;
    values_ = values;
    if (count == 1) {
      FW_CHECK_LT(keys[0], num_keys);
      single_length_ = 1;
      keys_ = keys;
      lengths_ = &single_length_;
      num_groups_ = 1;
      return;
    }
    Group(keys, values, count, num_keys);
  }

  /// Grouped events in total, and the distinct keys in first-appearance
  /// order with their group lengths (num_groups() entries each).
  size_t count() const { return count_; }
  size_t num_groups() const { return num_groups_; }
  const uint32_t* keys() const { return keys_; }
  const uint32_t* lengths() const { return lengths_; }
  /// The values, one contiguous segment per group in group order. A
  /// single-key run points into the caller's spans (keys and values),
  /// which must outlive the folds.
  const double* values() const { return values_; }

 private:
  /// Assign's counting sort, for runs of any other length.
  void Group(const uint32_t* keys, const double* values, size_t count,
             uint32_t num_keys);

  std::vector<uint32_t> counts_;  // Key-indexed; zero between Assigns.
  std::vector<uint32_t> group_keys_;
  std::vector<uint32_t> group_lengths_;  // Parallel to group_keys_.
  std::vector<double> scattered_;
  /// A single-key run's one group length: such a run copies nothing.
  uint32_t single_length_ = 0;
  const uint32_t* keys_ = nullptr;
  const uint32_t* lengths_ = nullptr;
  const double* values_ = nullptr;
  size_t num_groups_ = 0;
  size_t count_ = 0;
};

}  // namespace fw

#endif  // FW_EXEC_COLUMNS_H_
