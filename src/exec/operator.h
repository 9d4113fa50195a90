#ifndef FW_EXEC_OPERATOR_H_
#define FW_EXEC_OPERATOR_H_

#include <cstddef>
#include <cstdint>
#include <deque>
#include <vector>

#include "agg/aggregate.h"
#include "exec/checkpoint.h"
#include "exec/columns.h"
#include "exec/event.h"
#include "exec/sink.h"
#include "window/window.h"

namespace fw {

/// Event-time window-aggregate operator, the engine's workhorse. One
/// instance handles one window of one plan operator and supports both
/// input modes of a rewritten plan:
///
///  * raw mode — consumes ordered Events; every event is folded into each
///    currently open window instance (at most ceil(r/s) of them);
///  * sub-aggregate mode — consumes the closed instances of the parent
///    operator, whose window covers/partitions this one, in close order;
///    each of a closed instance's per-key states is merged into each open
///    instance (M(W, W') closed instances per instance lifetime).
///
/// Instances are opened lazily, keyed by the instance number m (interval
/// [m*s, m*s + r)), and closed as the input watermark passes their end.
/// Each instance keeps a bitmap of the keys it has folded (one bit per
/// key, recycled with its pooled state buffer; Restore rebuilds it from
/// the non-empty states), so a close visits only those keys, in ascending
/// key order, never all num_keys states.
///
/// A closing instance goes to each child once, not once per key, and to
/// the sink as ResultSink::OnBlock calls, not one call per result.
/// Delivery order: the first non-empty key's result goes to the sink as a
/// one-key block; then every child, in AddChild order, advances its
/// frontier once to the instance (closing — and recursively delivering —
/// whatever ends before it, opening whatever covers it); then the
/// remaining keys' results go out as one block; then every child merges
/// all the non-empty states into its open instances and retires (closes,
/// delivering recursively) the instance that ends with this one, which
/// has just merged its last sub-aggregate. A childless operator has
/// nothing to order between the two blocks, so it delivers each instance
/// as one block. Handing the children one key at a time would deliver the
/// same sequence: only the first key could close or open anything, only
/// the last merge could retire anything, and sibling subtrees share no
/// state. An instance with no data reaches neither the sink nor any
/// child, so no merge retires the child instances ending with it; an
/// empty raw instance is one the reader skips, and an event that makes
/// it skip one closes every descendant instance ending at or before that
/// event (PrepareRun). So a factor-fed instance, like a raw one, is
/// delivered during the first event at or past its end.
///
/// Emission order: from construction, Reset or Restore on, the operator's
/// results reach the sink in strictly increasing (end, start, key) order
/// — instances close oldest first (by m, so by end and start alike), and
/// a close walks its keys in ascending order, so every block's keys
/// ascend and the blocks of one instance are adjacent in the operator's
/// own sequence. The sharded runtime merges its per-operator result runs
/// without sorting them on the strength of this contract
/// (runtime/sharded_executor.h).
///
/// The operator counts one "accumulate op" per (item × instance) fold —
/// exactly the unit of the paper's cost model — which the harness uses for
/// the Figure 19 cost-model validation.
class WindowAggregateOperator {
 public:
  struct Config {
    Window window{1, 1};
    /// Registered aggregate descriptor; required (never null).
    AggFn agg = nullptr;
    /// Plan operator index, reported in results.
    int operator_id = 0;
    /// Whether finalized results go to the sink (factor windows do not).
    bool exposed = true;
    /// Key-space size; keys must lie in [0, num_keys).
    uint32_t num_keys = 1;
  };

  /// `sink` may be null only when !config.exposed; it must outlive the
  /// operator, as must all children.
  WindowAggregateOperator(const Config& config, ResultSink* sink);

  WindowAggregateOperator(const WindowAggregateOperator&) = delete;
  WindowAggregateOperator& operator=(const WindowAggregateOperator&) = delete;

  /// Registers a downstream consumer of this operator's sub-aggregates;
  /// the child must have the same key space.
  void AddChild(WindowAggregateOperator* child);

  /// Raw-mode input; events must arrive in non-decreasing timestamp order.
  void OnEvent(const Event& event);

  /// Columnar raw-mode input: exactly equivalent to calling OnEvent for
  /// each row in order — bitwise, including emission order — but folds
  /// per-run with the aggregate's batch kernel (DESIGN.md §14). The batch
  /// must be timestamp-ordered, like OnEvent input.
  void OnEvents(const EventColumns& columns);

  /// Advances the close/open frontier to event-time `t` (the exact
  /// CloseBefore/OpenThrough prefix OnEvent runs before its fold) and
  /// returns the *run boundary*: the first timestamp at which the
  /// open-instance set would change again. Every event with timestamp in
  /// [t, boundary) folds into the current open set with no close or open
  /// work, so a caller may fold such a span via AccumulateRun without
  /// revisiting the frontier. Always returns a value > t. When it skips
  /// an instance no event reached, it also closes every descendant
  /// instance that ends at or before `t` (see the class comment).
  TimeT PrepareRun(TimeT t);

  /// Folds one run's events (all with timestamps inside the current run,
  /// grouped by KeyGroups::Assign against this operator's num_keys) into
  /// every open instance: each (instance, key) state takes one
  /// batch-kernel call (or the derived scalar-loop fallback) over its
  /// values in stream order, which keeps results bitwise identical to
  /// per-event folding. Counts one accumulate op per (event × instance),
  /// exactly like OnEvent.
  void AccumulateRun(const KeyGroups& run);

  /// Closes every open instance (end of stream). Children are NOT flushed;
  /// the executor flushes in topological order so tail sub-aggregates
  /// propagate before a child's own flush.
  void Flush();

  /// Eagerly applies the close rule up to a frontier: emits and retires
  /// every open instance whose end precedes `frontier`, exactly as the
  /// next input past it would. Sound whenever no future input can carry a
  /// timestamp (or sub-aggregate span) inside those instances — i.e.
  /// `frontier` is at most one past the largest timestamp the executor
  /// has delivered. PlanExecutor::CloseThrough drives this in topological
  /// order at checkpoints, so snapshots are *canonical*: which instances
  /// are open depends only on the delivered stream, never on how lazily
  /// each operator's inputs happened to arrive (DESIGN.md §10).
  void CloseUpTo(TimeT frontier) { CloseBefore(frontier); }

  /// Resets all state and counters for a fresh run.
  void Reset();

  /// Snapshots the operator's open instances and cursors. Valid between
  /// input items (i.e., not re-entrantly from a sink callback).
  OperatorCheckpoint Checkpoint() const;

  /// Restores a snapshot taken from an identically configured operator.
  Status Restore(const OperatorCheckpoint& checkpoint);

  uint64_t accumulate_ops() const { return accumulate_ops_; }
  /// Window instances this operator has closed (emitted + retired) — the
  /// slice-close rate signal. Unlike accumulate_ops_, these two are pure
  /// observability counters: they reset with the operator and are NOT
  /// carried through checkpoints (the executor layer keeps retired
  /// tallies across topology swaps instead, so the serialized checkpoint
  /// format stays untouched).
  uint64_t closed_instances() const { return closed_instances_; }
  /// Finalized per-key results emitted to the sink (exposed operators
  /// only; factor windows stay at 0) — the selectivity signal.
  uint64_t finalized_results() const { return finalized_results_; }
  const Config& config() const { return config_; }
  const std::vector<WindowAggregateOperator*>& children() const {
    return children_;
  }

 private:
  struct Instance {
    int64_t m = 0;
    /// Per-key partial aggregates; state.n == 0 marks "no data".
    std::vector<AggState> states;
    /// Bit k % 64 of word k / 64 is set by every fold into key k
    /// (ceil(num_keys / 64) words); zeroed again when the instance closes.
    std::vector<uint64_t> touched;

    /// The state a fold into `key` updates, with the key marked touched.
    AggState* StateFor(uint32_t key) {
      touched[key >> 6] |= uint64_t{1} << (key & 63);
      return &states[key];
    }
  };

  TimeT InstanceStart(int64_t m) const { return m * config_.window.slide(); }
  TimeT InstanceEnd(int64_t m) const {
    return m * config_.window.slide() + config_.window.range();
  }

  /// Closes (emits + pops) open instances whose end precedes `watermark`.
  void CloseBefore(TimeT watermark);

  /// Emits and pops the oldest open instance. Out of line, so the checks
  /// that call it (CloseBefore, the retire step of MergeSubAggregates)
  /// stay small enough to inline where they usually find nothing to do.
  [[gnu::noinline]] void RetireFront();

  /// CloseBefore(watermark) on every operator below this one, parents
  /// before their children. Kept out of line: dense streams never call
  /// it, so it stays out of the hot raw path's code.
  [[gnu::noinline]] void CloseDescendantsBefore(TimeT watermark);

  /// Opens every instance whose interval starts at or before `start_limit`
  /// and ends at or after `end_floor`; instances before that are skipped
  /// (their span has passed — they can no longer receive data). Amortized
  /// O(1): boundaries advance incrementally, with a division only after a
  /// data gap longer than the window range.
  void OpenThrough(TimeT start_limit, TimeT end_floor);

  /// Finalizes a closing instance to the sink as one or two blocks and
  /// hands it to the children (see the class comment for the order).
  void EmitInstance(Instance* instance);

  /// A closed instance's non-empty keys within one bitmap word.
  struct KeyMask {
    uint32_t word;
    uint64_t bits;
  };

  /// Sub-aggregate input: merges states[key] for each of `keys` (the
  /// parent's closed instance, ascending) into every open instance — one
  /// AggMergeBatch call per instance (the merge_batch kernel, or its
  /// per-key fallback) — and ORs `masks`, the same keys as bitmap words,
  /// into each instance's touched bits. The parent has already advanced
  /// this operator's frontier to that instance. Then retires every open
  /// instance that ends at or before `end`, the parent instance's end:
  /// each later parent instance ends after it, and the frontier move it
  /// brings would close such an instance before merging anything.
  void MergeSubAggregates(const std::vector<AggState>& states,
                          const std::vector<uint32_t>& keys,
                          const std::vector<KeyMask>& masks, TimeT end);

  /// Appends instance m to open_, with zeroed states and bitmap taken
  /// from the pool (or allocated).
  Instance& OpenInstance(int64_t m);

  Config config_;
  ResultSink* sink_;
  /// The aggregate's data-path operations, resolved once from the
  /// registered descriptor at construction (plan build) — the hot loops
  /// below never dispatch through the registry or an enum switch.
  void (*accumulate_)(AggState*, double);
  /// Batch fold; null when the function declares no kernel, in which case
  /// AccumulateRun falls back to a scalar loop over accumulate_ (the
  /// derived fallback of the accumulate_batch contract).
  void (*accumulate_batch_)(AggState*, const double*, size_t);
  double (*finalize_)(const AggState&);
  std::vector<WindowAggregateOperator*> children_;
  std::deque<Instance> open_;  // Ordered by m (and thus by end).
  int64_t next_m_ = 0;         // Next instance number not yet opened.
  TimeT next_open_start_ = 0;  // == next_m_ * slide.
  std::vector<Instance> instance_pool_;  // Recycled closed instances.
  /// EmitInstance scratch: the closing instance's non-empty keys, as a
  /// list and as one mask per bitmap word that holds any, and (exposed
  /// operators) their finalized values, parallel to the list — the
  /// instance's OnBlock arrays.
  std::vector<uint32_t> emit_keys_;
  std::vector<KeyMask> emit_masks_;
  std::vector<double> emit_values_;
  /// OnEvents' grouping scratch, one run at a time.
  KeyGroups run_;
  uint64_t accumulate_ops_ = 0;
  uint64_t closed_instances_ = 0;
  uint64_t finalized_results_ = 0;
};

/// Raw-only window aggregation for holistic functions (MEDIAN): the state
/// is the full multiset of values, so sharing is impossible (§III-A) and
/// the operator never has children. Same emission-order contract as
/// WindowAggregateOperator: results are strictly increasing in (end,
/// start, key), because instances open and close in m order and a close
/// walks the keys in ascending order. Each closed instance with data
/// reaches the sink as one block.
class HolisticWindowOperator {
 public:
  using Config = WindowAggregateOperator::Config;

  HolisticWindowOperator(const Config& config, ResultSink* sink);

  void OnEvent(const Event& event);
  void Flush();
  void Reset();

  uint64_t accumulate_ops() const { return accumulate_ops_; }
  uint64_t closed_instances() const { return closed_instances_; }
  uint64_t finalized_results() const { return finalized_results_; }

 private:
  struct Instance {
    int64_t m = 0;
    std::vector<HolisticState> states;
  };

  TimeT InstanceEnd(int64_t m) const {
    return m * config_.window.slide() + config_.window.range();
  }

  void CloseBefore(TimeT watermark);
  void EmitInstance(Instance* instance);

  Config config_;
  ResultSink* sink_;
  std::deque<Instance> open_;
  /// EmitInstance scratch: the closing instance's block.
  std::vector<uint32_t> emit_keys_;
  std::vector<double> emit_values_;
  int64_t next_m_ = 0;
  uint64_t accumulate_ops_ = 0;
  uint64_t closed_instances_ = 0;
  uint64_t finalized_results_ = 0;
};

}  // namespace fw

#endif  // FW_EXEC_OPERATOR_H_
