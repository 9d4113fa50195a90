#ifndef FW_EXEC_ENGINE_H_
#define FW_EXEC_ENGINE_H_

#include <memory>
#include <vector>

#include "exec/event.h"
#include "exec/operator.h"
#include "exec/sink.h"
#include "plan/plan.h"

namespace fw {

/// Executes a logical QueryPlan over an ordered event stream. This is the
/// library's stand-in for Trill/ASA (see DESIGN.md): a push-based,
/// single-threaded, event-time engine. The source loop multicasts each
/// event to every operator that reads the raw stream; rewritten plans
/// forward sub-aggregates along the operator tree; exposed operators feed
/// the shared sink (the plan's Union). Timestamps must be ≥ 0: window
/// instance m spans [m·slide, m·slide + range) from m = 0, so an event
/// before 0 falls in no instance (StreamSession rejects them at
/// admission). Every instance is delivered during the first event at or
/// past its end, factor-fed ones included (DESIGN.md §4).
class PlanExecutor {
 public:
  struct Options {
    /// Size of the grouping-key space; events must use keys below this.
    uint32_t num_keys = 1;
  };

  /// `sink` must outlive the executor.
  PlanExecutor(const QueryPlan& plan, const Options& options,
               ResultSink* sink);

  PlanExecutor(const PlanExecutor&) = delete;
  PlanExecutor& operator=(const PlanExecutor&) = delete;

  /// Pushes one event through the plan. Events must be timestamp-ordered,
  /// with timestamps ≥ 0.
  void Push(const Event& event);

  /// Pushes a timestamp-ordered columnar batch through the plan. Exactly
  /// equivalent to Push on each row in order (bitwise results, same
  /// emission interleaving), but splits the batch into runs over which no
  /// raw reader's open-instance set changes and folds each run with the
  /// operators' batch accumulate (DESIGN.md §14). Holistic plans fall
  /// back to the per-event path.
  void PushColumns(const EventColumns& columns);

  /// Ends the stream: flushes operators in topological order so tail
  /// sub-aggregates reach downstream operators before those flush.
  void Finish();

  /// Push all + Finish.
  void Run(const std::vector<Event>& events);

  /// Clears operator state and counters for another run.
  void Reset();

  /// Closes, in topological order, every window instance that can no
  /// longer receive input because all future items carry timestamps at or
  /// past `frontier` (pass 1 + the largest delivered timestamp). Parents
  /// close first, so their tail sub-aggregates reach children before the
  /// children's own close. Checkpoints call this to make snapshots
  /// canonical — a pure function of the delivered stream, independent of
  /// how lazily closes would otherwise trail behind per-operator input
  /// (which differs across shard counts; DESIGN.md §10). No-op for
  /// holistic plans, which cannot checkpoint anyway.
  void CloseThrough(TimeT frontier);

  /// Snapshots every operator's state between events. Unsupported for
  /// holistic plans (their state is unbounded; see DESIGN.md).
  Result<ExecutorCheckpoint> Checkpoint() const;

  /// Restores a snapshot taken from an executor over the same plan and
  /// key-space. After restoring, Push may resume with the next event.
  Status Restore(const ExecutorCheckpoint& checkpoint);

  /// Total accumulate/merge operations across all operators — the
  /// engine-measured analogue of the paper's cost C.
  uint64_t TotalAccumulateOps() const;

  /// Per-operator accumulate/merge counts, indexed like the plan's
  /// operators. The per-operator analogue of the model's c_i, used by the
  /// harness to attribute cost to individual windows.
  std::vector<uint64_t> PerOperatorOps() const;

  /// Per-operator closed window-instance counts (slice-close rates) and
  /// finalized result counts (selectivity), indexed like the plan's
  /// operators — the telemetry layer's per-operator signals for the
  /// future MultiQueryOptimizer::Reoptimize cost feedback. Unlike
  /// accumulate ops these are NOT carried through checkpoints; callers
  /// that survive topology swaps keep retired tallies (DESIGN.md §13).
  std::vector<uint64_t> PerOperatorCloses() const;
  std::vector<uint64_t> PerOperatorFinalizes() const;

  /// Number of operators reading the raw stream.
  size_t num_roots() const { return raw_readers_.size(); }

 private:
  bool holistic_ = false;
  std::vector<std::unique_ptr<WindowAggregateOperator>> operators_;
  std::vector<std::unique_ptr<HolisticWindowOperator>> holistic_operators_;
  /// Raw-reading operators, in plan order (the implicit source Multicast).
  std::vector<WindowAggregateOperator*> raw_readers_;
  std::vector<HolisticWindowOperator*> holistic_raw_readers_;
  /// Operator indices, parents before children.
  std::vector<int> topological_order_;
  uint32_t num_keys_;
  /// PushColumns' grouping scratch for multi-reader runs.
  KeyGroups run_;
};

/// Convenience: executes `plan` over `events` and returns the measured
/// throughput in events per second (wall clock) via *throughput_out, plus
/// the op count via *ops_out (either may be null).
void ExecutePlan(const QueryPlan& plan, const std::vector<Event>& events,
                 uint32_t num_keys, ResultSink* sink,
                 double* throughput_out, uint64_t* ops_out);

}  // namespace fw

#endif  // FW_EXEC_ENGINE_H_
