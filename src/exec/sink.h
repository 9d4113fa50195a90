#ifndef FW_EXEC_SINK_H_
#define FW_EXEC_SINK_H_

#include <cstddef>
#include <cstdint>
#include <map>
#include <tuple>
#include <vector>

#include "common/mutex.h"
#include "exec/event.h"

namespace fw {

/// Receives finalized results from exposed operators (the plan's Union).
///
/// ## Thread safety across shards
///
/// The sharded runtime (runtime/ShardedExecutor) invokes its *merge-stage*
/// sink only from the session thread, so any sink below — including the
/// unsynchronized CountingSink and CollectingSink — is safe as a
/// ShardedExecutor or StreamSession sink regardless of shard count. A sink
/// wired *directly* into per-shard executors (one PlanExecutor per worker
/// thread) would have to be thread-safe, and none below is: give each
/// shard its own sink instead.
class ResultSink {
 public:
  virtual ~ResultSink() = default;
  virtual void OnResult(const WindowResult& result) = 0;

  /// One closed instance's results in one call: `count` (at least 1)
  /// results of operator `operator_id` over [start, end), keys strictly
  /// ascending, `values[i]` belonging to `keys[i]`. The arrays are valid
  /// only during the call. Exactly equivalent to OnResult for each result
  /// in order, which is what the default does, so a sink that implements
  /// only OnResult sees the same sequence. The engine, the sharded merge,
  /// the session's gate and the multi-query router all pass blocks
  /// (DESIGN.md §4).
  virtual void OnBlock(int operator_id, TimeT start, TimeT end,
                       const uint32_t* keys, const double* values,
                       size_t count);
};

/// Counts results and checksums values; the default sink for throughput
/// runs (no per-result allocation, and the checksum keeps the compiler
/// from discarding the aggregation work).
///
/// Single-threaded delivery is part of the annotated contract: all state
/// is guarded by `delivery_role_`, the thread role of whichever thread
/// the sink is wired into (the session thread, or one shard's worker for
/// a per-shard sink). See DESIGN.md §12.
class CountingSink : public ResultSink {
 public:
  void OnResult(const WindowResult& result) override {
    delivery_role_.AssertHeld();  // Delivery is single-threaded (above).
    ++count_;
    checksum_ += result.value;
  }

  uint64_t count() const {
    delivery_role_.AssertHeld();  // Read from the delivery thread.
    return count_;
  }
  double checksum() const {
    delivery_role_.AssertHeld();  // Read from the delivery thread.
    return checksum_;
  }

 private:
  ThreadRole delivery_role_;
  uint64_t count_ FW_GUARDED_BY(delivery_role_) = 0;
  double checksum_ FW_GUARDED_BY(delivery_role_) = 0.0;
};

/// Collects every result; used by tests, examples, and the verifier.
/// NOT thread-safe (see the ResultSink note): `results_` is guarded by
/// the delivery thread's role, like CountingSink.
class CollectingSink : public ResultSink {
 public:
  void OnResult(const WindowResult& result) override {
    delivery_role_.AssertHeld();  // Delivery is single-threaded (above).
    results_.push_back(result);
  }

  const std::vector<WindowResult>& results() const {
    delivery_role_.AssertHeld();  // Read from the delivery thread.
    return results_;
  }

  /// Results keyed by (operator, window start, window end, group key) for
  /// order-insensitive equivalence checks.
  using ResultKey = std::tuple<int, TimeT, TimeT, uint32_t>;
  std::map<ResultKey, double> ToMap() const;

 private:
  ThreadRole delivery_role_;
  std::vector<WindowResult> results_ FW_GUARDED_BY(delivery_role_);
};

}  // namespace fw

#endif  // FW_EXEC_SINK_H_
